//! Deterministic single-thread mode.
//!
//! The reference mode: it drives the service's allocator stack
//! (`Proactive<ResilientModel<DbModel>>`) through the discrete-event
//! simulator's virtual clock, single-threaded, so a given trace always
//! yields the same allocations and the same energy.
//!
//! `DbModel` answers from a table holding exactly what the database's
//! binary search returns, so `replay_deterministic` must equal a plain
//! `Simulation::run(Proactive<DbModel>, …)` bit for bit — the
//! `service_replay` integration test asserts exactly that.

use std::sync::Arc;

use eavm_benchdb::ModelDatabase;
use eavm_core::{AllocationModel, DbModel, OptimizationGoal, SearchMetrics};
use eavm_faults::{FaultPlan, LookupFaults};
use eavm_simulator::{CloudConfig, SimOutcome, Simulation, SimulationError};
use eavm_swf::VmRequest;
use eavm_telemetry::{Counter, Telemetry};
use eavm_types::Seconds;

use crate::fleet::build_strategy;
use crate::service::CacheStats;

/// Configuration of a deterministic replay.
#[derive(Debug, Clone)]
pub struct DeterministicConfig {
    /// PROACTIVE optimization goal α.
    pub goal: OptimizationGoal,
    /// Per-type response-time deadlines (Cpu, Mem, Io).
    pub deadlines: [Seconds; 3],
    /// QoS margin forwarded to the allocator.
    pub qos_margin: f64,
    /// Record the per-interval allocation timeline in the outcome.
    pub timeline: bool,
    /// Observability sink for the replay (model-table, search, and simulator
    /// instruments). Disabled by default; enabling it must not perturb
    /// the outcome — nothing on this path reads the wall clock.
    pub telemetry: Arc<Telemetry>,
    /// Deterministic fault plan: host crashes and degradations are
    /// injected into the simulator, and the plan's lookup-fault stream
    /// perturbs the allocator's model lookups through
    /// [`eavm_core::ResilientModel`]. `None` replays faithfully.
    /// Because both injections are pure functions of the plan, replays
    /// with the same plan are byte-identical, telemetry on or off.
    pub faults: Option<FaultPlan>,
}

impl DeterministicConfig {
    /// Defaults matching [`crate::ServiceConfig::new`].
    pub fn new(goal: OptimizationGoal, deadlines: [Seconds; 3]) -> Self {
        DeterministicConfig {
            goal,
            deadlines,
            qos_margin: 0.65,
            timeline: false,
            telemetry: Telemetry::disabled(),
            faults: None,
        }
    }

    /// Replace the observability sink.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Inject a deterministic fault plan into the replay.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Replay `requests` through the discrete-event engine with the
/// service's allocator, single-threaded and fully reproducible.
/// `ground_truth` is the simulator's physics model; the returned
/// [`CacheStats`] count the allocator's model-table lookups and
/// the trailing `u64` counts model lookups answered by the analytic
/// fallback under injected faults (always zero without a fault plan).
pub fn replay_deterministic<G: AllocationModel>(
    ground_truth: G,
    cloud: CloudConfig,
    db: ModelDatabase,
    config: &DeterministicConfig,
    requests: &[VmRequest],
) -> Result<(SimOutcome, CacheStats, u64), SimulationError> {
    let tel = &config.telemetry;
    let model = if tel.is_enabled() {
        DbModel::with_counters(
            db,
            tel.counter("replay.cache.hits"),
            tel.counter("replay.cache.misses"),
        )
    } else {
        DbModel::with_counters(db, Counter::standalone(), Counter::standalone())
    };
    let search_metrics = if tel.is_enabled() {
        SearchMetrics {
            searches: tel.counter("replay.search.searches"),
            partitions_evaluated: tel.counter("replay.search.partitions_evaluated"),
            partitions_feasible: tel.counter("replay.search.partitions_feasible"),
            candidates_pruned: tel.counter("replay.search.candidates_pruned"),
            stripe: 0,
        }
    } else {
        SearchMetrics::default()
    };
    let lookup = config
        .faults
        .as_ref()
        .map(|plan| plan.lookup_faults())
        .unwrap_or_else(LookupFaults::disabled);
    let fallbacks = if tel.is_enabled() {
        tel.counter("replay.model_fallbacks")
    } else {
        Counter::standalone()
    };
    let mut strategy = build_strategy(
        model,
        config.goal,
        config.deadlines,
        config.qos_margin,
        search_metrics,
        lookup,
        fallbacks,
    );
    let mut simulation =
        Simulation::new(ground_truth, cloud).with_telemetry(Arc::clone(&config.telemetry));
    if config.timeline {
        simulation = simulation.with_timeline();
    }
    if let Some(plan) = &config.faults {
        simulation = simulation.with_faults(plan.clone());
    }
    let outcome = simulation.run(&mut strategy, requests)?;
    let cache = CacheStats::of(strategy.model().inner());
    let fallbacks = strategy.model().model_fallbacks();
    Ok((outcome, cache, fallbacks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;
    use eavm_core::AnalyticModel;
    use eavm_types::{JobId, WorkloadType};

    fn requests(n: u32) -> Vec<VmRequest> {
        (0..n)
            .map(|i| VmRequest {
                id: JobId::new(i),
                submit: Seconds((i as f64) * 120.0),
                workload: WorkloadType::ALL[(i % 3) as usize],
                vm_count: 1 + i % 3,
                deadline: Seconds(7200.0),
                priority: eavm_swf::Priority::ALL[(i % 3) as usize],
            })
            .collect()
    }

    #[test]
    fn replay_is_reproducible_run_to_run() {
        let db = DbBuilder::exact().build().expect("db");
        let cloud = CloudConfig::new("TEST", 6).expect("cloud");
        let cfg = DeterministicConfig::new(OptimizationGoal::BALANCED, [Seconds(7200.0); 3]);
        let reqs = requests(12);
        let (a, cache_a, fb_a) = replay_deterministic(
            AnalyticModel::reference(),
            cloud.clone(),
            db.clone(),
            &cfg,
            &reqs,
        )
        .expect("first run");
        let (b, cache_b, fb_b) =
            replay_deterministic(AnalyticModel::reference(), cloud, db, &cfg, &reqs)
                .expect("second run");
        assert_eq!(a, b);
        assert_eq!(cache_a.hits, cache_b.hits);
        assert_eq!(cache_a.misses, cache_b.misses);
        assert!(cache_a.hits > 0, "expected lookups answered by the table");
        assert_eq!((fb_a, fb_b), (0, 0), "no fault plan, no fallbacks");
    }
}
