//! The fleet: every server's placement state plus the one allocator
//! that searches it.
//!
//! A [`Fleet`] is plain single-threaded state owned by the service's
//! admission loop ([`crate::service`]); nothing else reads or writes
//! it, so there are no locks, no mailboxes and no copies to keep in
//! sync. The loop asks it to search for a placement, to commit one, to
//! advance its virtual clock (retiring finished VMs), and — for
//! consolidation sweeps and crash recovery — to move single VMs and to
//! dump or load its complete state.
//!
//! Determinism rests on two rules kept here: a committed placement's
//! resident VMs get finish instants estimated from the post-placement
//! mix, and resident vectors keep insertion order, so a WAL replay
//! that commits the same placements in the same order rebuilds the
//! fleet bit for bit (finish instants, energy, and which VM a
//! consolidation drain picks).

// P1: a panic here would kill the admission loop, the fleet's only
// writer. P2: blocking output here would stall every admission (file
// and stdin access are checked by `lib.rs`'s `fleet_state_does_no_io`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::print_stdout,
    clippy::print_stderr
)]

use eavm_core::{
    AllocationModel, AllocationStrategy, DbModel, OptimizationGoal, Placement, Proactive,
    RequestView, ResilientModel, ServerView,
};
use eavm_durability::FleetDump;
use eavm_faults::LookupFaults;
use eavm_telemetry::Counter;
use eavm_types::{EavmError, Joules, MixVector, Seconds, ServerId, WorkloadType};

use crate::service::CacheStats;

/// The service's allocator: the empirical model behind a fault-tolerant
/// wrapper. A faulted lookup is answered by the wrapper's analytic
/// fallback and never reaches the model's table.
pub(crate) type ServiceStrategy = Proactive<ResilientModel<DbModel>>;

/// One resident VM with its estimated completion instant (fixed at
/// commit, from the post-placement mix).
#[derive(Debug, Clone, Copy)]
struct ResidentVm {
    ty: WorkloadType,
    finish: Seconds,
}

/// One server of the fleet.
#[derive(Debug, Clone)]
struct SrvState {
    id: ServerId,
    mix: MixVector,
    resident: Vec<ResidentVm>,
}

/// Every server's state plus the allocator that searches it.
pub(crate) struct Fleet {
    servers: Vec<SrvState>,
    strategy: ServiceStrategy,
    clock: Seconds,
    estimated_energy: Joules,
    /// No resident VM finishes before this instant: a lower bound,
    /// lowered by every VM that joins and raised to the true minimum by
    /// every retiring scan. An advance short of it retires nothing, so
    /// it skips the scan.
    earliest_finish: Seconds,
}

impl Fleet {
    /// An empty fleet of `servers` servers with ids `0..servers`.
    pub(crate) fn new(servers: usize, strategy: ServiceStrategy) -> Self {
        Fleet {
            servers: (0..servers)
                .map(|i| SrvState {
                    id: ServerId::from(i),
                    mix: MixVector::EMPTY,
                    resident: Vec::new(),
                })
                .collect(),
            strategy,
            clock: Seconds(0.0),
            estimated_energy: Joules(0.0),
            earliest_finish: Seconds(f64::INFINITY),
        }
    }

    /// Current state of every server as strategy views, in id order.
    pub(crate) fn views(&self) -> Vec<ServerView> {
        let slots = self.strategy.model().cpu_slots();
        self.servers
            .iter()
            .map(|s| ServerView {
                id: s.id,
                mix: s.mix,
                platform: 0,
                cpu_slots: slots,
            })
            .collect()
    }

    /// Every server's current mix, in id order.
    pub(crate) fn mixes(&self) -> impl Iterator<Item = MixVector> + '_ {
        self.servers.iter().map(|s| s.mix)
    }

    /// The per-server OS bound on hostable VMs of each type.
    pub(crate) fn max_mix(&self) -> MixVector {
        self.strategy.model().max_mix()
    }

    /// Cheap necessary condition before any partition search: the
    /// request's type must have enough free OS-bound slots fleet-wide.
    /// Under saturation this short-circuits a search to O(servers)
    /// arithmetic.
    pub(crate) fn capacity_feasible(&self, request: &RequestView) -> bool {
        let bound = self.max_mix().count(request.workload);
        let free: u32 = self
            .servers
            .iter()
            .map(|s| bound.saturating_sub(s.mix.count(request.workload)))
            .sum();
        free >= request.vm_count
    }

    /// Run the PROACTIVE partition search over the whole fleet without
    /// touching it. `None` means no feasible placement right now.
    pub(crate) fn search(&mut self, request: &RequestView) -> Option<Vec<Placement>> {
        let views = self.views();
        self.strategy.allocate(request, &views).ok()
    }

    fn server_mut(&mut self, id: ServerId) -> Option<&mut SrvState> {
        self.servers.iter_mut().find(|s| s.id == id)
    }

    /// Model-estimated dynamic energy delta of adding `add` onto `old`.
    fn energy_delta(&self, old: MixVector, add: MixVector) -> Joules {
        let model = self.strategy.model();
        let before = if old.is_empty() {
            Joules(0.0)
        } else {
            model.run_energy(old).unwrap_or(Joules(0.0))
        };
        let after = model.run_energy(old + add).unwrap_or(before);
        after - before
    }

    /// Materialize `placement`'s VMs on its (already updated) server,
    /// with finish instants estimated from the post-placement mix.
    fn materialize(&mut self, placement: &Placement) -> Result<(), EavmError> {
        let clock = self.clock;
        let mix = self
            .server_mut(placement.server)
            .ok_or_else(|| EavmError::Infeasible(format!("unknown server {}", placement.server)))?
            .mix;
        // Estimate every finish before touching the server again, so no
        // fallible lookup happens inside the mutation.
        let mut fresh: Vec<ResidentVm> = Vec::new();
        let mut earliest = Seconds(f64::INFINITY);
        for (ty, count) in placement.add.iter().filter(|(_, count)| *count > 0) {
            let finish = clock + self.strategy.model().exec_time(mix, ty)?;
            earliest = earliest.min(finish);
            for _ in 0..count {
                fresh.push(ResidentVm { ty, finish });
            }
        }
        if let Some(srv) = self.server_mut(placement.server) {
            srv.resident.extend(fresh);
        }
        self.earliest_finish = self.earliest_finish.min(earliest);
        Ok(())
    }

    /// Commit a placement decision: fold every add into its server's
    /// mix, then materialize each placement and account its energy
    /// against the pre-add mix. Live admissions and WAL replay both
    /// come through here, which is what makes replay bit-exact.
    /// Partition proposals place each server at most once, so the fold
    /// order cannot change a finish estimate. The placements are walked
    /// twice, so a caller can hand over a lazy conversion of its own
    /// list without collecting it.
    pub(crate) fn commit<I>(&mut self, placements: I)
    where
        I: IntoIterator<Item = Placement>,
        I::IntoIter: Clone,
    {
        let placements = placements.into_iter();
        for p in placements.clone() {
            if let Some(srv) = self.server_mut(p.server) {
                srv.mix += p.add;
            }
        }
        for p in placements {
            let new_mix = self.server_mut(p.server).map(|s| s.mix).unwrap_or_default();
            if let Some(old) = new_mix.checked_sub(&p.add) {
                self.estimated_energy += self.energy_delta(old, p.add);
            }
            let _ = self.materialize(&p);
        }
    }

    /// Advance the virtual clock, retiring every VM whose estimated
    /// finish is at or before `t`. Returns the number retired.
    pub(crate) fn advance_to(&mut self, t: Seconds) -> usize {
        self.clock = self.clock.max(t);
        if t.0 < self.earliest_finish.0 {
            return 0;
        }
        let mut retired = 0;
        let mut earliest = Seconds(f64::INFINITY);
        for srv in &mut self.servers {
            let mut freed = MixVector::EMPTY;
            srv.resident.retain(|vm| {
                let done = vm.finish.0 <= t.0;
                if done {
                    freed += MixVector::single(vm.ty, 1);
                } else {
                    earliest = earliest.min(vm.finish);
                }
                !done
            });
            if !freed.is_empty() {
                let shrunk = srv.mix.checked_sub(&freed);
                debug_assert!(
                    shrunk.is_some(),
                    "retiring on server {}: freed {:?} not in mix {:?}",
                    srv.id,
                    freed,
                    srv.mix
                );
                srv.mix = shrunk.unwrap_or_default();
                retired += freed.total() as usize;
            }
        }
        self.earliest_finish = earliest;
        retired
    }

    /// Live-migrate one VM of `ty` from `from` to `to`: drain it off
    /// the donor and land it on the receiver with its finish instant
    /// pushed out by the pre-copy `stall`. A failed drain skips the
    /// move; a failed landing puts the VM back on its donor. Returns
    /// whether the VM moved.
    pub(crate) fn migrate(
        &mut self,
        from: ServerId,
        to: ServerId,
        ty: WorkloadType,
        stall: Seconds,
    ) -> bool {
        let Some(finish) = self.drain_vm(from, ty) else {
            return false;
        };
        if self.inject_vm(to, ty, finish + stall) {
            return true;
        }
        self.inject_vm(from, ty, finish);
        false
    }

    /// Consolidation drain: remove the first resident VM of `ty` from
    /// `server` and return its estimated finish instant. `None` when
    /// the server is unknown or hosts no VM of that type. "First in
    /// resident order" is what makes every drain of a journaled move
    /// pick the *same* VM.
    fn drain_vm(&mut self, server: ServerId, ty: WorkloadType) -> Option<Seconds> {
        let srv = self.server_mut(server)?;
        let pos = srv.resident.iter().position(|vm| vm.ty == ty)?;
        let shrunk = srv.mix.checked_sub(&MixVector::single(ty, 1))?;
        let vm = srv.resident.remove(pos);
        srv.mix = shrunk;
        Some(vm.finish)
    }

    /// Consolidation landing: host a drained VM on `server` with its
    /// migration-delayed finish instant, appended to the resident
    /// vector. Returns `false` for an unknown server.
    fn inject_vm(&mut self, server: ServerId, ty: WorkloadType, finish: Seconds) -> bool {
        match self.server_mut(server) {
            Some(srv) => {
                srv.mix += MixVector::single(ty, 1);
                srv.resident.push(ResidentVm { ty, finish });
                self.earliest_finish = self.earliest_finish.min(finish);
                true
            }
            None => false,
        }
    }

    /// Earliest estimated VM completion anywhere in the fleet.
    pub(crate) fn next_finish(&self) -> Option<Seconds> {
        self.servers
            .iter()
            .flat_map(|s| s.resident.iter().map(|vm| vm.finish))
            .reduce(Seconds::min)
    }

    /// Serialize the placement state for a checkpoint: clock,
    /// accumulated energy, and every resident VM with its bit-exact
    /// finish time.
    pub(crate) fn dump(&self) -> FleetDump {
        FleetDump {
            clock: self.clock,
            energy: self.estimated_energy,
            servers: self
                .servers
                .iter()
                .map(|s| {
                    (
                        s.id,
                        s.resident.iter().map(|vm| (vm.ty, vm.finish)).collect(),
                    )
                })
                .collect(),
        }
    }

    /// Replace the placement state with a checkpoint dump. Every
    /// resident keeps its persisted finish time, so a recovered process
    /// retires VMs at exactly the virtual instants the crashed one
    /// would have.
    pub(crate) fn load_dump(&mut self, dump: &FleetDump) {
        self.servers = dump
            .servers
            .iter()
            .map(|(id, residents)| {
                let mut mix = MixVector::EMPTY;
                for &(ty, _) in residents {
                    mix += MixVector::single(ty, 1);
                }
                SrvState {
                    id: *id,
                    mix,
                    resident: residents
                        .iter()
                        .map(|&(ty, finish)| ResidentVm { ty, finish })
                        .collect(),
                }
            })
            .collect();
        self.clock = dump.clock;
        self.estimated_energy = dump.energy;
        self.earliest_finish = self.next_finish().unwrap_or(Seconds(f64::INFINITY));
    }

    /// VMs currently resident fleet-wide.
    pub(crate) fn resident_vms(&self) -> usize {
        self.servers.iter().map(|s| s.resident.len()).sum()
    }

    /// Model-estimated dynamic energy of everything committed so far.
    pub(crate) fn estimated_energy(&self) -> Joules {
        self.estimated_energy
    }

    /// The allocator's model-table counters.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        CacheStats::of(self.strategy.model().inner())
    }

    /// Model lookups answered by the analytic fallback after an injected
    /// transient failure.
    pub(crate) fn model_fallbacks(&self) -> u64 {
        self.strategy.model().model_fallbacks()
    }
}

/// Build the service's allocator over `model`, counting
/// partition-search work into `search_metrics` and
/// injected-lookup-failure fallbacks into `fallbacks`.
pub(crate) fn build_strategy(
    model: DbModel,
    goal: OptimizationGoal,
    deadlines: [Seconds; 3],
    qos_margin: f64,
    search_metrics: eavm_core::SearchMetrics,
    lookup_faults: LookupFaults,
    fallbacks: Counter,
) -> ServiceStrategy {
    Proactive::new(
        ResilientModel::with_faults(model, lookup_faults, fallbacks),
        goal,
        deadlines,
    )
    .with_qos_margin(qos_margin)
    .with_search_metrics(search_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;
    use eavm_types::JobId;

    fn deadlines() -> [Seconds; 3] {
        [Seconds(6000.0), Seconds(6000.0), Seconds(6000.0)]
    }

    fn fleet(n: usize) -> Fleet {
        let db = DbBuilder::exact().build().expect("db");
        let strategy = build_strategy(
            DbModel::new(db),
            OptimizationGoal::BALANCED,
            deadlines(),
            1.0,
            eavm_core::SearchMetrics::default(),
            LookupFaults::disabled(),
            Counter::standalone(),
        );
        Fleet::new(n, strategy)
    }

    fn request(id: u32, ty: WorkloadType, vms: u32) -> RequestView {
        RequestView {
            id: JobId::new(id),
            workload: ty,
            vm_count: vms,
            deadline: deadlines()[ty.index()],
        }
    }

    /// Search, then commit what the search found.
    fn place(fleet: &mut Fleet, request: &RequestView) -> Option<Vec<Placement>> {
        let placements = fleet.search(request)?;
        fleet.commit(placements.iter().copied());
        Some(placements)
    }

    #[test]
    fn commit_materializes_and_later_advance_retires() {
        let mut fleet = fleet(2);
        let placements =
            place(&mut fleet, &request(1, WorkloadType::Cpu, 3)).expect("feasible on empty fleet");
        let placed: u32 = placements.iter().map(|p| p.add.total()).sum();
        assert_eq!(placed, 3);
        assert_eq!(fleet.resident_vms(), 3);
        assert!(fleet.estimated_energy().0 > 0.0);

        let finish = fleet.next_finish().expect("resident vms have finishes");
        assert!(finish.0 > 0.0);
        // Advancing short of the earliest finish retires nothing.
        assert_eq!(fleet.advance_to(Seconds(finish.0 / 2.0)), 0);
        // Advancing past the last finish empties the fleet.
        assert_eq!(fleet.advance_to(Seconds(finish.0 * 100.0)), 3);
        assert_eq!(fleet.resident_vms(), 0);
        assert!(fleet.mixes().all(|m| m.is_empty()));
    }

    #[test]
    fn search_leaves_the_fleet_untouched() {
        let mut fleet = fleet(2);
        let found = fleet.search(&request(1, WorkloadType::Io, 2));
        assert!(found.is_some());
        assert_eq!(fleet.resident_vms(), 0);
        assert!(fleet.mixes().all(|m| m.is_empty()));
    }

    #[test]
    fn dump_round_trips_bit_exact_and_replayed_commits_match() {
        let mut live = fleet(2);
        let first = place(&mut live, &request(1, WorkloadType::Cpu, 3)).expect("feasible");
        place(&mut live, &request(2, WorkloadType::Io, 2)).expect("feasible");

        // load_dump(dump()) preserves mixes, energy, clock, and every
        // finish instant bit-exact.
        let dump = live.dump();
        let mut twin = fleet(0);
        twin.load_dump(&dump);
        assert_eq!(twin.dump(), dump);
        assert_eq!(
            twin.estimated_energy().0.to_bits(),
            live.estimated_energy().0.to_bits()
        );
        assert_eq!(
            twin.next_finish().unwrap().0.to_bits(),
            live.next_finish().unwrap().0.to_bits()
        );

        // Replaying the first request's journaled placements onto a
        // fresh fleet reproduces the live fleet's state after it.
        let mut replayed = fleet(2);
        replayed.commit(first.iter().copied());
        let mut reference = fleet(2);
        place(&mut reference, &request(1, WorkloadType::Cpu, 3)).expect("feasible");
        assert_eq!(replayed.dump(), reference.dump());
    }

    #[test]
    fn drain_then_inject_preserves_the_vm_and_delays_its_finish() {
        let mut fleet = fleet(2);
        place(&mut fleet, &request(1, WorkloadType::Cpu, 2)).expect("feasible");
        let before = fleet.resident_vms();
        let views = fleet.views();
        let donor = views
            .iter()
            .find(|s| !s.mix.is_empty())
            .map(|s| s.id)
            .expect("placed somewhere");
        let receiver = views
            .iter()
            .find(|s| s.id != donor)
            .map(|s| s.id)
            .expect("two servers");

        // No IO VM is resident: the drain refuses without side effects.
        assert_eq!(fleet.drain_vm(donor, WorkloadType::Io), None);

        let finish = fleet
            .drain_vm(donor, WorkloadType::Cpu)
            .expect("a cpu vm is resident");
        let stall = Seconds(1.5);
        assert!(fleet.inject_vm(receiver, WorkloadType::Cpu, finish + stall));
        assert_eq!(fleet.resident_vms(), before, "vm conservation");
        assert_eq!(
            fleet.server_mut(receiver).unwrap().mix,
            MixVector::new(1, 0, 0)
        );
        // The moved VM's finish carries the migration stall bit-exact.
        let moved = fleet.server_mut(receiver).unwrap().resident[0];
        assert_eq!(moved.finish.0.to_bits(), (finish + stall).0.to_bits());
        // Unknown servers are refused, not panicked on.
        assert!(!fleet.inject_vm(ServerId::new(99), WorkloadType::Cpu, finish));
        assert_eq!(fleet.drain_vm(ServerId::new(99), WorkloadType::Cpu), None);
    }

    #[test]
    fn saturated_fleet_finds_no_placement() {
        let mut fleet = fleet(1);
        // Fill the one server to its OS bound for CPU VMs.
        let bound = fleet.max_mix().cpu;
        for i in 0..bound {
            if place(&mut fleet, &request(i, WorkloadType::Cpu, 1)).is_none() {
                break;
            }
        }
        let one_more = request(99, WorkloadType::Cpu, 1);
        assert!(!fleet.capacity_feasible(&one_more));
        assert!(fleet.search(&one_more).is_none());
    }
}
