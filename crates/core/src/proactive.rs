//! The PROACTIVE application-centric allocator (Sect. III-D, Fig. 3).
//!
//! Control flow per incoming request, mirroring the paper's component
//! diagram:
//!
//! 1. **Partition search** — enumerate the set partitions of the
//!    request's VMs. VMs of one request share a workload profile, so
//!    the candidates collapse to the integer partitions of the VM
//!    count, which [`IntegerPartitions`] steps through in place
//!    (largest block first; the same order as the multiset enumeration
//!    of `eavm-partitions`, whose Orlov RGS generator backs the general
//!    labelled case).
//! 2. **Per-block placement** — for each block of a partition, evaluate
//!    every active server plus one powered-off server per platform: the
//!    block joins the server's current mix, the resulting mix is checked
//!    against the model's hostable bounds and the per-type QoS deadlines
//!    (estimated execution time of *every* resident type must stay
//!    within its deadline), and the feasible candidates are ranked by
//!    the optimization goal. Ties choose "the first server of the list".
//!    One estimate of the new mix answers both the check and the score.
//!    A server no earlier block of the partition joined is evaluated at
//!    most once per block size per search; every candidate is still
//!    visited in list order.
//! 3. **Partition ranking** — each fully placed partition is scored as
//!    `α·(Ê/Ê_min) + (1−α)·(T̂/T̂_min)` where `Ê` is the summed
//!    incremental run energy of its placements and `T̂` the slowest
//!    block's estimated execution time; the best partition wins.
//!
//! Returning [`EavmError::Infeasible`] (no partition places) tells the
//! simulator to queue the request, exactly like a saturated cloud.

use eavm_partitions::IntegerPartitions;
use eavm_telemetry::Counter;
use eavm_types::{EavmError, Joules, MixVector, Seconds, WorkloadType};

use crate::goal::OptimizationGoal;
use crate::model::AllocationModel;
use crate::strategy::{AllocationStrategy, Placement, RequestView, ServerView};

/// Caps bounding the brute-force search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCaps {
    /// Maximum number of partitions evaluated per request (the integer
    /// partitions of 4 VMs are only 5, but burst-level allocation can
    /// inflate the space).
    pub max_partitions: usize,
}

impl Default for SearchCaps {
    fn default() -> Self {
        SearchCaps {
            max_partitions: 4_096,
        }
    }
}

/// Counters observing the partition search. The default is all-no-op
/// handles (a dropped write is a branch on `None`), so an allocator built
/// without [`Proactive::with_search_metrics`] pays nothing.
///
/// Counts are accumulated locally during a search and flushed with one
/// atomic add per counter at the end.
#[derive(Debug, Clone, Default)]
pub struct SearchMetrics {
    /// Searches run (one per [`Proactive::explain`] call).
    pub searches: Counter,
    /// Partitions pulled from the enumeration and placed (or attempted).
    pub partitions_evaluated: Counter,
    /// Partitions whose every block found a feasible server.
    pub partitions_feasible: Counter,
    /// Per-block server candidates rejected by hostability/QoS checks.
    pub candidates_pruned: Counter,
    /// Unused: the counters are flushed with a plain add. Kept so code
    /// that builds `SearchMetrics` by its fields (the perfbench ladder)
    /// still compiles.
    pub stripe: usize,
}

/// One explained partition candidate: the Fig. 3 "rank" step's working
/// data, exposed for inspection and the `fig3_flow` experiment binary.
#[derive(Debug, Clone)]
pub struct PartitionCandidate {
    /// The partition's blocks (per-type VM counts).
    pub blocks: Vec<MixVector>,
    /// Greedily chosen placements for each block.
    pub placements: Vec<Placement>,
    /// Summed incremental run energy of the placements.
    pub energy: Joules,
    /// Estimated execution time of the slowest block.
    pub time: Seconds,
    /// Goal score, normalized against the best candidate (1.0 = best on
    /// both axes); lower is better.
    pub score: f64,
    /// `true` for the candidate [`Proactive::allocate`] would pick.
    pub chosen: bool,
}

/// The PROACTIVE allocation strategy.
///
/// Holds one allocation model per hardware platform (a single model in
/// the paper's homogeneous setting); candidate servers are estimated
/// against the model of *their* platform, which is the heterogeneous
/// extension the paper lists as future work.
#[derive(Debug, Clone)]
pub struct Proactive<M> {
    /// One model per platform, indexed by [`ServerView::platform`].
    models: Vec<M>,
    goal: OptimizationGoal,
    /// Per-type response-time deadlines (QoS guarantees).
    deadlines: [Seconds; 3],
    /// "The algorithm can be relaxed by disregarding the QoS guarantees
    /// but it might be not acceptable for production system."
    enforce_qos: bool,
    /// Planning headroom: a placement is feasible only if every resident
    /// type's estimated execution time stays within `qos_margin ×
    /// deadline`. Values below 1 reserve deadline budget for queueing
    /// delay (the deadline is a *response-time* bound, but the allocator
    /// can only control the execution-time share of it).
    qos_margin: f64,
    caps: SearchCaps,
    metrics: SearchMetrics,
}

impl<M: AllocationModel> Proactive<M> {
    /// Build a PROACTIVE allocator over a model with per-type deadlines
    /// (homogeneous fleet).
    pub fn new(model: M, goal: OptimizationGoal, deadlines: [Seconds; 3]) -> Self {
        Self::heterogeneous(vec![model], goal, deadlines)
    }

    /// Build a platform-aware allocator: one model per hardware platform,
    /// indexed by [`ServerView::platform`]. Panics on an empty model list.
    pub fn heterogeneous(models: Vec<M>, goal: OptimizationGoal, deadlines: [Seconds; 3]) -> Self {
        assert!(!models.is_empty(), "at least one platform model required");
        Proactive {
            models,
            goal,
            deadlines,
            enforce_qos: true,
            qos_margin: 1.0,
            caps: SearchCaps::default(),
            metrics: SearchMetrics::default(),
        }
    }

    /// Disable/enable the QoS feasibility filter.
    pub fn with_qos_enforcement(mut self, enforce: bool) -> Self {
        self.enforce_qos = enforce;
        self
    }

    /// Set the planning headroom (fraction of each deadline the estimated
    /// execution time may consume; must be in `(0, 1]`).
    pub fn with_qos_margin(mut self, margin: f64) -> Self {
        assert!(
            margin > 0.0 && margin <= 1.0,
            "qos margin must be in (0, 1]"
        );
        self.qos_margin = margin;
        self
    }

    /// Override the search caps.
    pub fn with_caps(mut self, caps: SearchCaps) -> Self {
        self.caps = caps;
        self
    }

    /// Attach search counters (see [`SearchMetrics`]).
    pub fn with_search_metrics(mut self, metrics: SearchMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The model backing this allocator's reference platform.
    pub fn model(&self) -> &M {
        &self.models[0]
    }

    /// The model for a platform index (unknown platforms fall back to the
    /// reference platform's model).
    fn model_for(&self, platform: u32) -> &M {
        self.models
            .get(platform as usize)
            .unwrap_or(&self.models[0])
    }

    /// The configured goal.
    pub fn goal(&self) -> OptimizationGoal {
        self.goal
    }

    /// Evaluate `block` joining a server that holds `old`, under the
    /// server's platform `model`: one estimate of the new mix serves the
    /// hostability-then-QoS check and the score. `old_energy` is asked
    /// only once the candidate is feasible, and only for a non-empty
    /// `old`.
    fn evaluate(
        &self,
        model: &M,
        old: MixVector,
        block: MixVector,
        old_energy: impl FnOnce() -> Option<Joules>,
    ) -> Eval {
        let new_mix = old + block;
        if !new_mix.fits_within(&model.max_mix()) {
            return Eval::Pruned;
        }
        let Ok(est) = model.estimate_mix(new_mix) else {
            return Eval::Pruned;
        };
        if self.enforce_qos
            && !WorkloadType::ALL
                .into_iter()
                .all(|ty| match est.time_of(ty) {
                    Some(t) => t <= self.deadlines[ty.index()] * self.qos_margin,
                    None => true,
                })
        {
            return Eval::Pruned;
        }
        let old_energy = if old.is_empty() {
            Joules::ZERO
        } else {
            match old_energy() {
                Some(e) => e,
                None => return Eval::Skipped,
            }
        };
        let d_energy = (est.energy - old_energy).max(Joules::ZERO);
        // The block's VMs share the request's profile(s); the block
        // finishes when its slowest type does.
        let block_time = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| block[ty] > 0)
            .filter_map(|ty| est.time_of(ty))
            .fold(Seconds::ZERO, Seconds::max);
        Eval::Scored(d_energy, block_time)
    }

    /// Place the blocks of one partition greedily, leaving the
    /// partition's per-server adds in `search.adds`; returns the summed
    /// incremental energy and the slowest block's time if every block
    /// fits.
    fn place_partition(&self, parts: &[u32], search: &mut Search<'_>) -> Option<(Joules, Seconds)> {
        for (i, _) in search.adds.drain(..) {
            search.slots[i].add = None;
        }
        let servers = search.servers;
        let mut energy = Joules::ZERO;
        let mut time = Seconds::ZERO;

        for &size in parts {
            let block = MixVector::single(search.workload, size);
            let row = (size as usize - 1) * servers.len();
            let mut best: Option<(usize, Joules, Seconds)> = None;
            // Candidate servers: every currently non-empty (tentative)
            // server in list order, plus the first empty one *per
            // platform* — empty servers of one platform are
            // interchangeable, and the paper breaks ties by "the first
            // server of the list".
            for (i, server) in servers.iter().enumerate() {
                let model = self.model_for(server.platform);
                let eval = match search.slots[i].add {
                    // A server an earlier block of this partition joined
                    // is evaluated afresh against its tentative mix.
                    Some(a) => {
                        let old = server.mix + search.adds[a].1;
                        self.evaluate(model, old, block, || model.run_energy(old).ok())
                    }
                    None => {
                        // Only the first tentatively empty server of a
                        // platform is a candidate. Empties of a platform
                        // are joined in list order, so that is the one
                        // whose previous same-platform empty (if any) has
                        // been joined.
                        if server.mix.is_empty()
                            && search.slots[i]
                                .prev_empty
                                .is_some_and(|j| search.slots[j].add.is_none())
                        {
                            continue;
                        }
                        // Untouched: `(size, server)` fixes the answer,
                        // so it is computed once per search.
                        match search.cache[row + i] {
                            Some(eval) => eval,
                            None => {
                                let slot = &mut search.slots[i];
                                let eval = self.evaluate(model, server.mix, block, || {
                                    *slot
                                        .old_energy
                                        .get_or_insert_with(|| model.run_energy(server.mix).ok())
                                });
                                search.cache[row + i] = Some(eval);
                                eval
                            }
                        }
                    }
                };
                let (d_energy, block_time) = match eval {
                    Eval::Scored(e, t) => (e, t),
                    Eval::Pruned => {
                        search.pruned += 1;
                        continue;
                    }
                    Eval::Skipped => continue,
                };

                let better = match &best {
                    None => true,
                    Some((_, be, bt)) => {
                        // Per-block ranking under the goal, normalized by
                        // the incumbent; strict improvement required so
                        // ties keep the earliest server. Normalizing by
                        // the incumbent makes "beats" non-transitive, so
                        // candidates with an equal (mix, platform) key
                        // must still each be visited, in list order:
                        // one that lost to an earlier incumbent can beat
                        // a later one. The cache above only saves the
                        // lookups; it never skips a visit.
                        let e_norm = d_energy.value() / be.value().max(f64::MIN_POSITIVE);
                        let t_norm = block_time.value() / bt.value().max(f64::MIN_POSITIVE);
                        self.goal.score(e_norm, t_norm) < 1.0 - 1e-12
                    }
                };
                if better {
                    best = Some((i, d_energy, block_time));
                }
            }

            let (i, d_energy, block_time) = best?;
            match search.slots[i].add {
                Some(a) => search.adds[a].1 += block,
                None => {
                    search.slots[i].add = Some(search.adds.len());
                    search.adds.push((i, block));
                }
            }
            energy += d_energy;
            time = time.max(block_time);
        }
        Some((energy, time))
    }

    /// Enumerate and score every feasible partition candidate for a
    /// request — the full working data of the Fig. 3 "rank the
    /// partitions" step. The candidate [`AllocationStrategy::allocate`]
    /// would commit is marked [`PartitionCandidate::chosen`].
    ///
    /// Returns an empty vector (not an error) when no partition places.
    pub fn explain(
        &self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<PartitionCandidate>, EavmError> {
        let mix = request.mix();
        // Blocks can never exceed the deepest hostable bound for the
        // request's type across the fleet's platforms, so cap block size
        // up front to prune the enumeration.
        let max_block = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| {
                self.models
                    .iter()
                    .map(|m| m.max_mix()[ty])
                    .max()
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        if max_block == 0 {
            return Err(EavmError::Infeasible(format!(
                "request {} has a type the model cannot host",
                request.id
            )));
        }

        let mut search = Search::new(request, servers, max_block);
        let mut min_energy = f64::INFINITY;
        let mut min_time = f64::INFINITY;
        let mut out: Vec<PartitionCandidate> = Vec::new();
        // A request's VMs share one profile, so its partitions are the
        // integer partitions of its VM count.
        let mut parts = IntegerPartitions::new(request.vm_count, max_block);
        let mut evaluated = 0u64;
        while evaluated < self.caps.max_partitions as u64 {
            let Some(part) = parts.next_partition() else {
                break;
            };
            evaluated += 1;
            let Some((energy, time)) = self.place_partition(part, &mut search) else {
                continue;
            };
            min_energy = min_energy.min(energy.value());
            min_time = min_time.min(time.value());
            search.adds.sort_unstable_by_key(|&(i, _)| i);
            out.push(PartitionCandidate {
                blocks: part
                    .iter()
                    .map(|&size| MixVector::single(request.workload, size))
                    .collect(),
                placements: search
                    .adds
                    .iter()
                    .map(|&(i, add)| Placement {
                        server: servers[i].id,
                        add,
                    })
                    .collect(),
                energy,
                time,
                score: 0.0,
                chosen: false,
            });
        }
        // One flush per search keeps the hot loop free of atomics.
        let m = &self.metrics;
        m.searches.add(1);
        m.partitions_evaluated.add(evaluated);
        m.partitions_feasible.add(out.len() as u64);
        m.candidates_pruned.add(search.pruned);

        // Normalize against the best-in-class values so α weighs two
        // comparable dimensionless quantities; the strict comparison
        // keeps the earliest (first-listed) partition on ties.
        let mut best: Option<(f64, usize)> = None;
        for (i, c) in out.iter_mut().enumerate() {
            let e_norm = if min_energy > 0.0 {
                c.energy.value() / min_energy
            } else {
                1.0
            };
            let t_norm = if min_time > 0.0 {
                c.time.value() / min_time
            } else {
                1.0
            };
            c.score = self.goal.score(e_norm, t_norm);
            if best.is_none_or(|(s, _)| c.score < s - 1e-12) {
                best = Some((c.score, i));
            }
        }
        if let Some((_, i)) = best {
            out[i].chosen = true;
        }
        Ok(out)
    }
}

/// What one block joining one server comes to.
#[derive(Debug, Clone, Copy)]
enum Eval {
    /// Not hostable, over a QoS deadline, or the estimate failed.
    Pruned,
    /// The server's current run energy could not be looked up.
    Skipped,
    /// Feasible: incremental run energy and the block's time.
    Scored(Joules, Seconds),
}

/// Per-server working state of one search.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Run energy of the server's snapshot mix, looked up on first need
    /// (`Some(None)` when the lookup failed).
    old_energy: Option<Option<Joules>>,
    /// The previous server in the list with an empty snapshot mix on the
    /// same platform, if this one's is empty too.
    prev_empty: Option<usize>,
    /// Index into [`Search::adds`] once a block of the current partition
    /// joined this server.
    add: Option<usize>,
}

/// The working state of one [`Proactive::explain`] call: allocated once
/// per search, reused by every partition and block.
struct Search<'a> {
    servers: &'a [ServerView],
    workload: WorkloadType,
    /// Evaluations against the snapshot mixes, indexed
    /// `(block size − 1) × servers + server`; exact because the snapshot
    /// fixes the old mix and the request fixes the block.
    cache: Vec<Option<Eval>>,
    slots: Vec<Slot>,
    /// The current partition's `(server, add)` list, at most one entry
    /// per block.
    adds: Vec<(usize, MixVector)>,
    /// Visited candidates rejected by hostability/QoS, cached or not.
    pruned: u64,
}

impl<'a> Search<'a> {
    fn new(request: &RequestView, servers: &'a [ServerView], max_block: u32) -> Self {
        let sizes = max_block.min(request.vm_count) as usize;
        let mut slots = vec![Slot::default(); servers.len()];
        // The last empty server seen per platform; fleets have a handful.
        let mut last_empty: Vec<(u32, usize)> = Vec::new();
        for (i, server) in servers.iter().enumerate() {
            if !server.mix.is_empty() {
                continue;
            }
            match last_empty.iter_mut().find(|(p, _)| *p == server.platform) {
                Some((_, last)) => {
                    slots[i].prev_empty = Some(*last);
                    *last = i;
                }
                None => last_empty.push((server.platform, i)),
            }
        }
        Search {
            servers,
            workload: request.workload,
            cache: vec![None; sizes * servers.len()],
            slots,
            adds: Vec::with_capacity(request.vm_count as usize),
            pruned: 0,
        }
    }
}

impl<M: AllocationModel> AllocationStrategy for Proactive<M> {
    fn name(&self) -> String {
        self.goal.label()
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let candidates = self.explain(request, servers)?;
        candidates
            .into_iter()
            .find(|c| c.chosen)
            .map(|c| c.placements)
            .ok_or_else(|| {
                EavmError::Infeasible(format!(
                    "no feasible partition for request {} ({} VMs of {})",
                    request.id, request.vm_count, request.workload
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DbModel;
    use crate::strategy::validate_placements;
    use eavm_benchdb::DbBuilder;
    use eavm_types::{JobId, ServerId};

    fn model() -> DbModel {
        DbModel::new(DbBuilder::exact().build().unwrap())
    }

    fn deadlines() -> [Seconds; 3] {
        [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)]
    }

    fn proactive(goal: OptimizationGoal) -> Proactive<DbModel> {
        Proactive::new(model(), goal, deadlines())
    }

    fn req(ty: WorkloadType, n: u32) -> RequestView {
        RequestView {
            id: JobId::new(1),
            workload: ty,
            vm_count: n,
            deadline: deadlines()[ty.index()],
        }
    }

    fn empty_servers(n: u32) -> Vec<ServerView> {
        (0..n)
            .map(|i| ServerView::homogeneous(ServerId::new(i), MixVector::EMPTY))
            .collect()
    }

    #[test]
    fn names_track_alpha() {
        assert_eq!(proactive(OptimizationGoal::ENERGY).name(), "PA-1");
        assert_eq!(proactive(OptimizationGoal::PERFORMANCE).name(), "PA-0");
        assert_eq!(proactive(OptimizationGoal::BALANCED).name(), "PA-0.5");
    }

    #[test]
    fn placements_cover_requests_exactly() {
        let mut pa = proactive(OptimizationGoal::BALANCED);
        let servers = empty_servers(4);
        for ty in WorkloadType::ALL {
            for n in 1..=4 {
                let r = req(ty, n);
                let p = pa.allocate(&r, &servers).unwrap();
                validate_placements(&r, &servers, &p).unwrap();
            }
        }
    }

    #[test]
    fn energy_goal_consolidates_onto_occupied_server() {
        // One server already runs 2 CPU VMs; a new 2-VM CPU request should
        // join it under PA-1 (amortized idle power) rather than power on a
        // second server.
        let mut pa = proactive(OptimizationGoal::ENERGY);
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(2, 0, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let p = pa.allocate(&req(WorkloadType::Cpu, 2), &servers).unwrap();
        assert_eq!(p.len(), 1, "energy goal must not spread: {p:?}");
        assert_eq!(p[0].server, ServerId::new(0));
    }

    #[test]
    fn performance_goal_avoids_heavy_contention() {
        // Server 0 is packed near the CPU optimum; PA-0 should prefer the
        // idle server for a new CPU request, while PA-1 tolerates joining.
        let bounds_cpu = model().max_mix().cpu;
        let packed = MixVector::new(bounds_cpu - 1, 0, 0);
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), packed),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let mut pa0 = proactive(OptimizationGoal::PERFORMANCE);
        let p = pa0.allocate(&req(WorkloadType::Cpu, 1), &servers).unwrap();
        assert_eq!(
            p[0].server,
            ServerId::new(1),
            "performance goal must prefer the uncontended server"
        );
    }

    #[test]
    fn qos_filter_rejects_overloaded_placements() {
        // With sub-solo deadlines nothing can ever satisfy QoS.
        let mut pa = Proactive::new(
            model(),
            OptimizationGoal::BALANCED,
            [Seconds(10.0), Seconds(10.0), Seconds(10.0)],
        );
        let servers = empty_servers(2);
        assert!(matches!(
            pa.allocate(&req(WorkloadType::Cpu, 1), &servers),
            Err(EavmError::Infeasible(_))
        ));
        // Relaxing QoS ("the algorithm can be relaxed") makes it feasible.
        let mut relaxed = Proactive::new(
            model(),
            OptimizationGoal::BALANCED,
            [Seconds(10.0), Seconds(10.0), Seconds(10.0)],
        )
        .with_qos_enforcement(false);
        assert!(relaxed
            .allocate(&req(WorkloadType::Cpu, 1), &servers)
            .is_ok());
    }

    #[test]
    fn respects_model_hostability_bounds() {
        // Fill one server to the memory bound; the next memory VM must go
        // elsewhere even if QoS would allow it.
        let m = model();
        let osm = m.max_mix().mem;
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(0, osm, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let mut pa = proactive(OptimizationGoal::ENERGY);
        let p = pa.allocate(&req(WorkloadType::Mem, 1), &servers).unwrap();
        assert_eq!(p[0].server, ServerId::new(1));
    }

    #[test]
    fn infeasible_when_everything_is_full() {
        let m = model();
        let bounds = m.max_mix();
        let full = MixVector::new(bounds.cpu, 0, 0);
        let servers = vec![ServerView::homogeneous(ServerId::new(0), full)];
        let mut pa = proactive(OptimizationGoal::BALANCED);
        assert!(matches!(
            pa.allocate(&req(WorkloadType::Cpu, 1), &servers),
            Err(EavmError::Infeasible(_))
        ));
    }

    #[test]
    fn application_awareness_separates_incompatible_types() {
        // A server nearly saturated with memory VMs: a new memory VM
        // placed there would thrash. PROACTIVE must send it elsewhere,
        // while count-based FF-2 would happily stack it.
        let m = model();
        let osm = m.max_mix().mem;
        let servers = vec![
            ServerView::homogeneous(
                ServerId::new(0),
                MixVector::new(0, osm.saturating_sub(1).max(1), 0),
            ),
            ServerView::homogeneous(ServerId::new(1), MixVector::new(1, 0, 0)),
        ];
        let mut pa = proactive(OptimizationGoal::PERFORMANCE);
        let p = pa.allocate(&req(WorkloadType::Mem, 2), &servers).unwrap();
        // At least one VM must avoid the memory-saturated server 0.
        let on_zero: u32 = p
            .iter()
            .filter(|pl| pl.server == ServerId::new(0))
            .map(|pl| pl.add.total())
            .sum();
        assert!(on_zero < 2, "PA-0 stacked memory VMs onto a thrashing host");
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let servers = empty_servers(3);
        let r = req(WorkloadType::Io, 4);
        let p1 = proactive(OptimizationGoal::BALANCED)
            .allocate(&r, &servers)
            .unwrap();
        let p2 = proactive(OptimizationGoal::BALANCED)
            .allocate(&r, &servers)
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn explain_exposes_the_ranked_candidates() {
        let pa = proactive(OptimizationGoal::BALANCED);
        let servers = empty_servers(4);
        let r = req(WorkloadType::Cpu, 4);
        let candidates = pa.explain(&r, &servers).unwrap();
        // 4 identical VMs: the 5 integer partitions of 4, all feasible on
        // an empty fleet.
        assert_eq!(candidates.len(), 5);
        assert_eq!(candidates.iter().filter(|c| c.chosen).count(), 1);
        let chosen = candidates.iter().find(|c| c.chosen).unwrap();
        // The chosen candidate carries the minimal score.
        for c in &candidates {
            assert!(chosen.score <= c.score + 1e-12);
            let placed: u32 = c.placements.iter().map(|p| p.add.total()).sum();
            assert_eq!(placed, 4, "every candidate covers the request");
            let block_sum: u32 = c.blocks.iter().map(|b| b.total()).sum();
            assert_eq!(block_sum, 4);
        }
        // allocate() commits exactly the chosen candidate's placements.
        let mut pa2 = proactive(OptimizationGoal::BALANCED);
        assert_eq!(pa2.allocate(&r, &servers).unwrap(), chosen.placements);
    }

    #[test]
    fn explain_returns_empty_when_nothing_fits() {
        let m = model();
        let full = MixVector::new(m.max_mix().cpu, 0, 0);
        let servers = vec![ServerView::homogeneous(ServerId::new(0), full)];
        let pa = proactive(OptimizationGoal::BALANCED);
        let candidates = pa.explain(&req(WorkloadType::Cpu, 2), &servers).unwrap();
        assert!(candidates.is_empty());
    }

    #[test]
    fn search_metrics_observe_the_search() {
        use eavm_telemetry::Counter;
        let metrics = SearchMetrics {
            searches: Counter::standalone(),
            partitions_evaluated: Counter::standalone(),
            partitions_feasible: Counter::standalone(),
            candidates_pruned: Counter::standalone(),
            stripe: 0,
        };
        let mut pa = proactive(OptimizationGoal::BALANCED).with_search_metrics(metrics.clone());
        let servers = empty_servers(4);
        pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap();
        assert_eq!(metrics.searches.get(), 1);
        // 4 identical VMs on an empty fleet: 5 partitions, all feasible.
        assert_eq!(metrics.partitions_evaluated.get(), 5);
        assert_eq!(metrics.partitions_feasible.get(), 5);
        // Default (no-op) metrics must not change behavior.
        let mut plain = proactive(OptimizationGoal::BALANCED);
        assert_eq!(
            plain
                .allocate(&req(WorkloadType::Cpu, 4), &servers)
                .unwrap(),
            pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap()
        );
    }

    #[test]
    fn partition_cap_limits_search() {
        let mut pa =
            proactive(OptimizationGoal::BALANCED).with_caps(SearchCaps { max_partitions: 1 });
        let servers = empty_servers(4);
        // Still succeeds: the first (single-block) partition is feasible.
        let p = pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap();
        validate_placements(&req(WorkloadType::Cpu, 4), &servers, &p).unwrap();
    }
}
