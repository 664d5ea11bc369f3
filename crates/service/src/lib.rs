//! # eavm-service
//!
//! An **online allocation control plane** on top of the paper's batch
//! machinery: where `eavm-simulator` replays a whole trace offline,
//! this crate keeps the fleet resident and serves a live stream of VM
//! requests.
//!
//! Two layers, bottom-up:
//!
//! * `fleet` — every server's placement state plus the one allocator
//!   that searches it (`Proactive<ResilientModel<DbModel>>`, whose
//!   [`eavm_core::DbModel`] answers every hostable mix from a dense
//!   per-mix table): plain single-threaded state with search, commit,
//!   clock-advance, migration and checkpoint operations.
//! * [`service`] — [`service::AllocService`]: one deterministic
//!   single-writer admission loop on one thread. It owns the fleet
//!   and takes requests one at a time, in arrival order: journal the
//!   submission, brownout check, advance the clock to the submit
//!   instant, search the whole fleet, then place, park in a FIFO wait
//!   queue or shed, journal the verdict and ack it on a per-ticket
//!   [`service::Verdict`] stream. Admission is bounded (blocking
//!   backpressure or shed-on-full).
//!
//! Because one thread decides one request at a time, the verdict
//! stream is a pure function of the request sequence: every driving
//! mode ([`replay_online`], [`drive_paced`], journaled or not) yields
//! the same verdict log, and [`service::AllocService::recover`] replays
//! a crashed journal back to it. Injected transient model-lookup
//! failures ([`eavm_faults::LookupFaults`]) degrade to the analytic
//! estimate via [`eavm_core::ResilientModel`] and are counted as
//! `model_fallbacks`.
//!
//! [`deterministic::replay_deterministic`] is the discrete-event
//! reference mode: the same allocator driven by the simulator engine,
//! reproducing `Simulation::run` exactly (the `service_replay`
//! integration test pins this down).

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]

pub mod deterministic;
pub mod durable;
mod fleet;
mod journaled;
pub mod service;

pub use deterministic::{replay_deterministic, DeterministicConfig};
pub use durable::{verdict_line, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use service::{
    drive_paced, replay_online, AllocService, CacheStats, DrainReport, ReplayReport, ServiceConfig,
    ServiceStats, ShedReason, SubmitOutcome, Verdict,
};

#[cfg(test)]
mod tests {
    /// The half of rule P2 clippy cannot express: the fleet state, the
    /// admission loop's hot path, names no file, stdin or other std I/O
    /// in code (comments aside). Its print half is denied in `fleet.rs`.
    #[test]
    fn fleet_state_does_no_io() {
        let code = include_str!("fleet.rs")
            .lines()
            .map(|line| line.split("//").next().unwrap_or(""));
        for (n, line) in code.enumerate() {
            for banned in ["std::fs", "fs::", "File", "OpenOptions", "stdin", "std::io"] {
                assert!(!line.contains(banned), "fleet.rs:{}: {banned}", n + 1);
            }
        }
    }
}
