//! The allocation-model abstraction.
//!
//! Everything the allocator and the simulator need to know about a
//! candidate per-server allocation `(Ncpu, Nmem, Nio)` flows through
//! [`AllocationModel`]: projected per-type execution times, average
//! power, and total run energy.
//!
//! Two implementations mirror the paper's methodology split:
//!
//! * [`DbModel`] wraps the empirical CSV database — this is the
//!   *knowledge* the PROACTIVE allocator acts on, noisy meter readings
//!   and all — and answers the hostable mixes from a dense table built
//!   once from it.
//! * [`AnalyticModel`] evaluates the testbed's contention equations
//!   directly — this is the *ground truth* the datacenter simulator
//!   executes, so allocator-model error propagates realistically into
//!   the results.

use eavm_benchdb::ModelDatabase;
use eavm_telemetry::Counter;
use eavm_testbed::{ApplicationProfile, BenchmarkSuite, ContentionModel, PowerModel, ServerSpec};
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

/// A one-shot estimate of a mix: per-type execution times plus total run
/// energy. Strategies that score many candidate mixes use this to avoid
/// repeated lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixEstimate {
    /// Projected execution time per type present in the mix.
    pub per_type_time: [Option<Seconds>; 3],
    /// Estimated total energy of running the mix to completion.
    pub energy: Joules,
}

impl MixEstimate {
    /// Execution time for a type, if present.
    pub fn time_of(&self, ty: WorkloadType) -> Option<Seconds> {
        self.per_type_time[ty.index()]
    }

    /// The longest per-type execution time in the mix.
    pub fn longest_time(&self) -> Seconds {
        self.per_type_time
            .iter()
            .flatten()
            .copied()
            .fold(Seconds::ZERO, Seconds::max)
    }
}

/// Per-server behaviour estimates keyed by the type-mix vector.
pub trait AllocationModel {
    /// Projected full execution time of a VM of `ty` while `mix` (which
    /// must include it) resides on one server.
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError>;

    /// Average power drawn by a server hosting `mix` (idle power for the
    /// empty mix).
    fn power(&self, mix: MixVector) -> Result<Watts, EavmError>;

    /// Estimated total energy of running `mix` to completion from scratch
    /// on one server.
    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError>;

    /// Solo runtime of one VM of `ty` on an idle server.
    fn solo_time(&self, ty: WorkloadType) -> Seconds;

    /// Largest mix this model considers hostable on one server; the
    /// PROACTIVE allocator never proposes blocks beyond these bounds.
    fn max_mix(&self) -> MixVector;

    /// Physical CPU slots of the modelled server (the count-based
    /// baselines' capacity basis). Defaults to the reference machine's 4.
    fn cpu_slots(&self) -> u32 {
        4
    }

    /// Per-VM slowdown of `ty` under `mix` relative to its solo runtime.
    fn slowdown(&self, mix: MixVector, ty: WorkloadType) -> Result<f64, EavmError> {
        Ok(self.exec_time(mix, ty)? / self.solo_time(ty))
    }

    /// Estimate every per-type time and the run energy of a mix at once.
    /// The default composes the fine-grained methods; implementations
    /// with a natural one-shot lookup (the database) override it.
    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        let mut per_type_time = [None; 3];
        for ty in WorkloadType::ALL {
            if mix[ty] > 0 {
                per_type_time[ty.index()] = Some(self.exec_time(mix, ty)?);
            }
        }
        Ok(MixEstimate {
            per_type_time,
            energy: self.run_energy(mix)?,
        })
    }
}

/// Table cells beyond which [`DbModel`] keeps no table and answers every
/// lookup from the database. A real box is a few hundred cells, but its
/// bounds come from the database's auxiliary file.
const MAX_TABLE_CELLS: usize = 1 << 16;

/// The empirical model: lookups (and bounded extrapolation) against the
/// benchmarked database.
///
/// [`DbModel::new`] evaluates [`ModelDatabase::estimate`] once for every
/// mix in the box `0..=max_mix()` — the only mixes the PROACTIVE
/// allocator proposes — and keeps the answers in a dense table indexed
/// in the database's `(Ncpu, Nmem, Nio)` order. `estimate_mix`,
/// `exec_time` and `run_energy` answer an in-box mix by index. The
/// empty mix, mixes outside the box and cells whose estimate errs fall
/// through to [`ModelDatabase::estimate`] itself. Each cell holds the
/// value of the call it replaces, so every answer is bit-identical to
/// the database's; the paper's binary search stays the reference.
///
/// Two counters record the traffic: `hits` counts answers from the
/// table, `misses` the fall-throughs (the empty mix is neither).
#[derive(Debug, Clone)]
pub struct DbModel {
    db: ModelDatabase,
    bounds: MixVector,
    table: Box<[Option<MixEstimate>]>,
    hits: Counter,
    misses: Counter,
}

impl DbModel {
    /// Wrap a built database; lookups are not counted.
    pub fn new(db: ModelDatabase) -> Self {
        DbModel::with_counters(db, Counter::noop(), Counter::noop())
    }

    /// Wrap a built database, counting table answers on `hits` and
    /// fall-throughs to the database on `misses`.
    pub fn with_counters(db: ModelDatabase, hits: Counter, misses: Counter) -> Self {
        let os_bounds = db.aux().os_bounds;
        let cells = [os_bounds.cpu, os_bounds.mem, os_bounds.io]
            .into_iter()
            .try_fold(1usize, |n, b| n.checked_mul(b as usize + 1));
        // Past the cap the box shrinks to the empty mix alone, whose
        // cell is always `None`: every lookup falls through.
        let bounds = if cells.is_some_and(|n| n <= MAX_TABLE_CELLS) {
            os_bounds
        } else {
            MixVector::EMPTY
        };
        let table = MixVector::space(bounds)
            .map(|mix| {
                db.estimate(mix).ok().map(|est| MixEstimate {
                    per_type_time: est.per_type_time,
                    energy: est.energy,
                })
            })
            .collect();
        DbModel {
            db,
            bounds,
            table,
            hits,
            misses,
        }
    }

    /// Access the underlying database.
    pub fn database(&self) -> &ModelDatabase {
        &self.db
    }

    /// Lookups answered from the table so far.
    pub fn table_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that fell through to the database so far.
    pub fn table_misses(&self) -> u64 {
        self.misses.get()
    }

    /// The table cell of `mix`, if it lies in the box and its estimate
    /// succeeded. [`MixVector::space`] lays the cells out io-fastest.
    fn cell(&self, mix: MixVector) -> Option<MixEstimate> {
        let b = self.bounds;
        if mix.cpu > b.cpu || mix.mem > b.mem || mix.io > b.io {
            return None;
        }
        let (mem_span, io_span) = (b.mem as usize + 1, b.io as usize + 1);
        let i = (mix.cpu as usize * mem_span + mix.mem as usize) * io_span + mix.io as usize;
        self.table.get(i).copied().flatten()
    }
}

impl AllocationModel for DbModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.estimate_mix(mix)?
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        if let Some(est) = self.cell(mix) {
            self.hits.inc();
            return Ok(est);
        }
        if !mix.is_empty() {
            self.misses.inc();
        }
        let est = self.db.estimate(mix)?;
        Ok(MixEstimate {
            per_type_time: est.per_type_time,
            energy: est.energy,
        })
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        if mix.is_empty() {
            // The database has no empty register; idle power is a known
            // constant of the platform (125 W, Sect. IV-A).
            return Ok(Watts(125.0));
        }
        Ok(self.db.estimate(mix)?.avg_power())
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        Ok(self.estimate_mix(mix)?.energy)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.db.aux().solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.db.aux().os_bounds
    }
}

/// The analytic ground-truth model: evaluates the contention equations of
/// the testbed for a mix held constant for the whole run.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    server: ServerSpec,
    contention: ContentionModel,
    representatives: [ApplicationProfile; 3],
    max_mix: MixVector,
}

impl AnalyticModel {
    /// Build from explicit parts. `max_mix` bounds what the model deems
    /// hostable (used for allocator feasibility, not simulation).
    pub fn new(
        server: ServerSpec,
        contention: ContentionModel,
        suite: &BenchmarkSuite,
        max_mix: MixVector,
    ) -> Self {
        AnalyticModel {
            server,
            contention,
            representatives: [
                suite.representative(WorkloadType::Cpu).clone(),
                suite.representative(WorkloadType::Mem).clone(),
                suite.representative(WorkloadType::Io).clone(),
            ],
            max_mix,
        }
    }

    /// The reference testbed with the standard suite; the hostable bound
    /// defaults to 16 VMs of any type (the base-test depth).
    pub fn reference() -> Self {
        Self::new(
            ServerSpec::reference_rack_server(),
            ContentionModel::default(),
            &BenchmarkSuite::standard(),
            MixVector::new(16, 16, 16),
        )
    }

    /// The server spec backing this model.
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }

    fn vms_of(&self, mix: MixVector) -> Vec<&ApplicationProfile> {
        let mut vms = Vec::with_capacity(mix.total() as usize);
        for ty in WorkloadType::ALL {
            for _ in 0..mix[ty] {
                vms.push(&self.representatives[ty.index()]);
            }
        }
        vms
    }

    fn index_of_first(&self, mix: MixVector, ty: WorkloadType) -> Option<usize> {
        if mix[ty] == 0 {
            return None;
        }
        // vms_of lays types out in canonical order.
        let mut offset = 0usize;
        for t in WorkloadType::ALL {
            if t == ty {
                return Some(offset);
            }
            offset += mix[t] as usize;
        }
        None
    }
}

impl AllocationModel for AnalyticModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        let i = self
            .index_of_first(mix, ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))?;
        let vms = self.vms_of(mix);
        Ok(self.contention.projected_time(&self.server, &vms, i))
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        let vms = self.vms_of(mix);
        Ok(PowerModel::power_with_vms(&self.server, &vms))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        // Approximate the run as the mix held to the longest VM's finish;
        // the piecewise integrator in eavm-testbed refines this, but the
        // allocator only needs a consistent comparator.
        let vms = self.vms_of(mix);
        let longest = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| self.exec_time(mix, ty).expect("type present"))
            .fold(Seconds::ZERO, Seconds::max);
        let p = PowerModel::power_with_vms(&self.server, &vms);
        Ok(p * longest)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.representatives[ty.index()].base_runtime
    }

    fn max_mix(&self) -> MixVector {
        self.max_mix
    }

    fn cpu_slots(&self) -> u32 {
        self.server.cpu_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;

    fn db_model() -> DbModel {
        DbModel::new(
            DbBuilder {
                max_base_vms: 6,
                meter_seed: None,
                ..Default::default()
            }
            .build()
            .unwrap(),
        )
    }

    #[test]
    fn db_model_solo_exec_time_matches_base_runtime() {
        let m = db_model();
        for ty in WorkloadType::ALL {
            let t = m.exec_time(MixVector::single(ty, 1), ty).unwrap();
            assert!(
                (t.value() - m.solo_time(ty).value()).abs() / t.value() < 1e-6,
                "{ty}: {t} vs {}",
                m.solo_time(ty)
            );
            assert!((m.slowdown(MixVector::single(ty, 1), ty).unwrap() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn db_model_empty_mix_power_is_idle() {
        let m = db_model();
        assert_eq!(m.power(MixVector::EMPTY).unwrap(), Watts(125.0));
        assert_eq!(m.run_energy(MixVector::EMPTY).unwrap(), Joules::ZERO);
    }

    #[test]
    fn analytic_and_db_models_agree_on_solo_times() {
        let a = AnalyticModel::reference();
        let d = db_model();
        for ty in WorkloadType::ALL {
            assert_eq!(a.solo_time(ty), d.solo_time(ty));
        }
    }

    #[test]
    fn analytic_model_exec_time_matches_contention_projection() {
        let a = AnalyticModel::reference();
        let mix = MixVector::new(2, 1, 1);
        for ty in WorkloadType::ALL {
            let t = a.exec_time(mix, ty).unwrap();
            assert!(t > a.solo_time(ty), "contention must stretch {ty}");
        }
        assert!(a
            .exec_time(MixVector::new(2, 0, 0), WorkloadType::Io)
            .is_err());
    }

    #[test]
    fn models_agree_within_tolerance_inside_the_grid() {
        // The database was *built* from the analytic model; inside the
        // grid the two must agree closely (exactly, without meter noise,
        // up to the held-mix vs piecewise-run difference).
        let a = AnalyticModel::reference();
        let d = db_model();
        for mix in [
            MixVector::new(2, 1, 0),
            MixVector::new(1, 1, 1),
            MixVector::new(3, 0, 2),
        ] {
            for ty in WorkloadType::ALL {
                if mix[ty] == 0 {
                    continue;
                }
                let ta = a.exec_time(mix, ty).unwrap().value();
                let td = d.exec_time(mix, ty).unwrap().value();
                let rel = (ta - td).abs() / ta;
                assert!(rel < 0.15, "{mix}/{ty}: analytic {ta} vs db {td}");
            }
        }
    }

    #[test]
    fn power_grows_with_mix_size_in_both_models() {
        let a = AnalyticModel::reference();
        let d = db_model();
        let small = MixVector::new(1, 0, 0);
        let big = MixVector::new(3, 1, 1);
        assert!(a.power(big).unwrap() > a.power(small).unwrap());
        assert!(d.power(big).unwrap() > Watts(125.0));
    }

    #[test]
    fn max_mix_bounds_are_exposed() {
        let d = db_model();
        assert_eq!(d.max_mix(), d.database().aux().os_bounds);
        let a = AnalyticModel::reference();
        assert_eq!(a.max_mix(), MixVector::new(16, 16, 16));
    }

    #[test]
    fn run_energy_scales_with_load() {
        let a = AnalyticModel::reference();
        let e1 = a.run_energy(MixVector::new(1, 0, 0)).unwrap();
        let e4 = a.run_energy(MixVector::new(4, 0, 0)).unwrap();
        assert!(e4 > e1);
        // But consolidation amortizes: energy per VM shrinks.
        assert!(e4.value() / 4.0 < e1.value());
    }
}
