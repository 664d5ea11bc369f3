//! # eavm — Energy-Aware Application-Centric VM Allocation for HPC Workloads
//!
//! A full Rust reproduction of Viswanathan, Lee, Rodero, Pompili,
//! Parashar & Gamell, *"Energy-Aware Application-Centric VM Allocation
//! for HPC Workloads"* (IPDPS/IPPS 2011): the empirical
//! benchmarking-based allocation model, the PROACTIVE(α) partition-search
//! allocator, the FIRST-FIT baselines, and every substrate the evaluation
//! depends on — a synthetic single-server testbed (contention + power +
//! metering), the CSV model database, Orlov set-partition enumeration,
//! SWF trace tooling with an EGEE-like generator, and a discrete-event
//! datacenter simulator with Fig.-4 interval-weighted accounting.
//!
//! ## Quick start
//!
//! ```
//! use eavm::prelude::*;
//!
//! // 1. Build the empirical model: base tests + exhaustive combined
//! //    benchmarks on the synthetic testbed (Sect. III of the paper).
//! let db = DbBuilder::exact().build().expect("model database");
//! assert!(db.covers(MixVector::new(1, 1, 1)));
//!
//! // 2. Wrap it as the PROACTIVE allocator's knowledge and ask for a
//! //    placement of a 4-VM CPU-intensive job on a small fleet.
//! let deadlines = [Seconds(3600.0), Seconds(3000.0), Seconds(2700.0)];
//! let mut pa = Proactive::new(DbModel::new(db), OptimizationGoal::BALANCED, deadlines);
//! let servers: Vec<ServerView> = (0..4u32)
//!     .map(|i| ServerView::homogeneous(ServerId::new(i), MixVector::EMPTY))
//!     .collect();
//! let request = RequestView {
//!     id: JobId::new(0),
//!     workload: WorkloadType::Cpu,
//!     vm_count: 4,
//!     deadline: deadlines[0],
//! };
//! let placements = pa.allocate(&request, &servers).expect("feasible");
//! let placed: u32 = placements.iter().map(|p| p.add.total()).sum();
//! assert_eq!(placed, 4);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`types`] | shared ids, units, workload classification, mix vectors |
//! | [`testbed`] | synthetic server hardware / contention / power / meter / profiler |
//! | [`benchdb`] | benchmarking platform + CSV model database (Tables I & II) |
//! | [`partitions`] | Orlov set-partition and multiset-partition enumeration |
//! | [`swf`] | SWF parsing, cleaning, EGEE-like generation, VM-request adaptation |
//! | [`core`] | PROACTIVE(α) + FIRST-FIT strategies, models, Fig. 4 estimation |
//! | [`simulator`] | discrete-event datacenter engine + metrics + cloud sizing |
//! | [`faults`] | seeded deterministic fault plans: crashes, degradation, lookup failures |
//! | [`telemetry`] | metrics registry, bounded event journal, Prometheus/JSON exporters |
//! | [`storage`] | file-operation abstraction + seeded storage-fault injection (torn writes, bit rot, ENOSPC) |
//! | [`durability`] | write-ahead admission journal, checkpoint snapshots, scrubbing, crash recovery |
//! | [`migrate`] | live-migration pre-copy cost model + threshold consolidation policy |
//! | [`overload`] | deterministic overload control: AIMD limits, queue-age shedding, circuit breaker, brownout |
//! | [`service`] | online allocation service (one deterministic single-writer admission loop) |
//!
//! The `eavm-bench` crate (not re-exported) regenerates every table and
//! figure of the paper; see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub use eavm_benchdb as benchdb;
pub use eavm_core as core;
pub use eavm_durability as durability;
pub use eavm_faults as faults;
pub use eavm_migrate as migrate;
pub use eavm_overload as overload;
pub use eavm_partitions as partitions;
pub use eavm_service as service;
pub use eavm_simulator as simulator;
pub use eavm_storage as storage;
pub use eavm_swf as swf;
pub use eavm_telemetry as telemetry;
pub use eavm_testbed as testbed;
pub use eavm_types as types;

/// Everything a downstream user typically needs, one import away.
pub mod prelude {
    pub use eavm_benchdb::{AuxData, BaseTests, DbBuilder, DbRecord, ModelDatabase};
    pub use eavm_core::strategy::{Placement, RequestView, ServerView};
    pub use eavm_core::{
        AllocationModel, AllocationStrategy, AnalyticModel, DbModel, FirstFit, MixEstimate,
        OptimizationGoal, Proactive,
    };
    pub use eavm_faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, LookupFaults};
    pub use eavm_overload::{OverloadConfig, Priority};
    pub use eavm_partitions::{multiset_partitions, BoundedPartitions, SetPartitions};
    pub use eavm_simulator::{CloudConfig, SimOutcome, Simulation};
    pub use eavm_swf::{
        adapt_trace, clean_trace, AdaptConfig, GeneratorConfig, SwfTrace, TraceGenerator, VmRequest,
    };
    pub use eavm_telemetry::{MetricsSnapshot, Severity, Telemetry};
    pub use eavm_testbed::{
        ApplicationProfile, BenchmarkSuite, ContentionModel, PowerMeter, PowerModel, Profiler,
        RunSimulator, ServerSpec, Subsystem,
    };
    pub use eavm_types::{
        EavmError, JobId, Joules, MixVector, Seconds, ServerId, VmId, Watts, WorkloadType,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let spec = ServerSpec::reference_rack_server();
        assert_eq!(spec.cpu_slots(), 4);
        let goal = OptimizationGoal::BALANCED;
        assert_eq!(goal.alpha(), 0.5);
        let mix = MixVector::new(1, 2, 3);
        assert_eq!(mix.total(), 6);
    }
}
