//! # eavm-simulator
//!
//! Discrete-event datacenter simulator reproducing Sect. IV-A of the
//! paper: a fleet of identical servers, job requests arriving from a
//! (cleaned, adapted) workload trace, an injected [`AllocationStrategy`]
//! deciding placements at submission time (proactive allocation), and
//! interval-weighted execution-time / energy accounting exactly as in
//! Fig. 4 — each VM progresses at rate `1 / T̂(current mix)` so its
//! realized execution time is the weighted average of the per-allocation
//! estimates, and server energy integrates a piecewise-constant power
//! trace. "We also assume a fixed power dissipation of 125 W when a
//! server" is powered on; all provisioned servers draw idle power for
//! the whole makespan (which is why the paper's SMALLER cloud consumes
//! less total energy despite a longer makespan). Scheduling and
//! provisioning overheads are not modelled, per the paper.
//!
//! [`cloud`] sizes the SMALLER and LARGER clouds (the latter
//! over-dimensioned by ~15 %); [`metrics`] collects the three evaluation
//! metrics — makespan, energy, % SLA violations — plus diagnostics.
//!
//! [`AllocationStrategy`]: eavm_core::AllocationStrategy

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]

pub mod cloud;
pub mod engine;
pub mod metrics;
pub mod migration;

pub use cloud::CloudConfig;
pub use engine::{QueuePolicy, Simulation, SimulationError};
pub use metrics::{AllocationInterval, SimOutcome};
pub use migration::{MigrationConfig, MigrationWindow};
