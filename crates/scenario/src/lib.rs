//! # eavm-scenario
//!
//! Declarative multi-phase scenarios for the eavm stack: workloads as
//! **data files**, not Rust code.
//!
//! A `.eavm` scenario file describes a linear phase state machine.
//! Every phase composes an arrival mix (rate, burstiness, job-size
//! distribution — the [`eavm_swf`] generator knobs), a fault plan
//! (delegating to [`eavm_faults`]), fleet maintenance/brownout
//! overrides, an optional placement-policy switch, and an exit
//! condition (arrival count or sim-time budget). Three layers:
//!
//! * [`parse`] — a tiny dependency-free TOML-ish parser with strict
//!   grammar and structured, line-numbered [`ScenarioError`]s (it never
//!   panics on malformed input; a proptest corpus pins that down).
//! * [`spec`] — the validated model ([`ScenarioSpec`]) with mode/
//!   feature compatibility checks.
//! * [`mod@compile`] + [`engine`] — lowering onto the existing simulator
//!   (prefix-diffed per-phase attribution, mid-run policy and fault-
//!   plan switches) or the live service in paced mode (snapshot-diffed
//!   phase rows), producing one deterministic outcome CSV per run.
//!
//! The committed scenario library lives in the repository's
//! `scenarios/` directory and is replayed twice by CI, diffing the two
//! CSVs byte for byte.

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]

pub mod compile;
pub mod engine;
pub mod parse;
pub mod spec;

pub use compile::{compile, CompiledPhase, CompiledScenario};
pub use engine::{run_scenario, solo_times, PhaseRow, PhasedStrategy, ScenarioOutcome};
pub use parse::{parse_scenario, ErrorKind, ScenarioError};
pub use spec::{
    ExitCondition, FaultSpec, FleetSpec, HostRange, Mode, PhaseSpec, Policy, ScenarioSpec,
    ServiceSpec,
};
