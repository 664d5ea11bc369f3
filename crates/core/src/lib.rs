//! # eavm-core
//!
//! The paper's primary contribution: an **application-centric,
//! energy-aware, proactive VM allocation algorithm** (Sect. III-D) plus
//! the FIRST-FIT baselines it is evaluated against (Sect. IV-D).
//!
//! * [`goal`] — the optimization goal `α ∈ [0, 1]`: `α` weights energy
//!   minimization, `1 − α` weights performance (execution time).
//! * [`model`] — the [`model::AllocationModel`] abstraction over
//!   "(mix of VM types on one server) → estimated times / power /
//!   energy", with two implementations: [`model::DbModel`] backed by the
//!   empirical CSV database (what the PROACTIVE allocator consults) and
//!   [`model::AnalyticModel`] backed directly by the testbed equations
//!   (the simulator's ground truth).
//! * [`strategy`] — the [`strategy::AllocationStrategy`] interface the
//!   datacenter simulator drives: a strategy maps an incoming VM request
//!   plus the current per-server allocations to a set of placements.
//! * [`first_fit`] — FIRST-FIT (FF), FF-2 and FF-3: CPU-slot counting
//!   with multiplexing factors 1/2/3, profile-blind.
//! * [`best_fit`] — the classical best-fit refinement (Sect. II "first
//!   fit, best fit, etc."), an extra baseline for ablations.
//! * [`proactive`] — the PROACTIVE strategy: brute-force search over set
//!   partitions of the request's VMs (Orlov's generator, multiset
//!   fast path), greedy per-block server choice, scoring by
//!   `α·Ê/Ê_min + (1−α)·T̂/T̂_min`, with QoS feasibility filtering.
//! * [`estimate`] — the interval-weighted execution-time / energy
//!   arithmetic of Fig. 4 (unit-tested against the paper's worked
//!   example: 1380 s and 14.25 kJ).
//! * [`learned`] — extension (the paper's future-work item): a
//!   least-squares regression model fitted to the database, usable as a
//!   drop-in [`model::AllocationModel`].
//! * [`resilient`] — fault-tolerant wrapper: injected transient lookup
//!   failures degrade to the analytic estimate (counted, never panicking)
//!   instead of failing the allocation.

#![forbid(unsafe_code)]

pub mod best_fit;
pub mod estimate;
pub mod first_fit;
pub mod goal;
pub mod learned;
pub mod model;
pub mod proactive;
pub mod resilient;
pub mod strategy;

pub use best_fit::BestFit;
pub use first_fit::{reference_cpu_slots, FirstFit};
pub use goal::OptimizationGoal;
pub use model::{AllocationModel, AnalyticModel, DbModel, MixEstimate};
pub use proactive::{PartitionCandidate, Proactive, SearchCaps, SearchMetrics};
pub use resilient::ResilientModel;
pub use strategy::{AllocationStrategy, Placement, RequestView, ServerView};

/// The CPU-slot-counting baseline a short name selects, over servers
/// of `cpu_slots` CPU slots: `ff`, `ff2`, `ff3` (first fit at 1–3 VMs
/// per CPU) and `bf`, `bf2`, `bf3` (best fit). `None` for any other
/// name.
pub fn baseline_strategy(name: &str, cpu_slots: u32) -> Option<Box<dyn AllocationStrategy>> {
    Some(match name {
        "ff" => Box::new(FirstFit::ff(cpu_slots)),
        "ff2" => Box::new(FirstFit::with_multiplex(cpu_slots, 2)),
        "ff3" => Box::new(FirstFit::with_multiplex(cpu_slots, 3)),
        "bf" => Box::new(BestFit::bf(cpu_slots)),
        "bf2" => Box::new(BestFit::with_multiplex(cpu_slots, 2)),
        "bf3" => Box::new(BestFit::with_multiplex(cpu_slots, 3)),
        _ => return None,
    })
}
