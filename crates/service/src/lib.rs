//! # eavm-service
//!
//! An **online allocation control plane** on top of the paper's batch
//! machinery: where `eavm-simulator` replays a whole trace offline,
//! this crate keeps the fleet resident and serves a live stream of VM
//! requests.
//!
//! Three layers, bottom-up:
//!
//! * [`memo`] — [`memo::MemoModel`]: a semantically transparent LRU
//!   memoization layer over any [`eavm_core::AllocationModel`]. The
//!   PROACTIVE partition search evaluates the same
//!   `(resident mix ⊎ pending block)` keys over and over — the cache
//!   (keyed on the packed [`eavm_core::MixKey`]) turns each repeat
//!   into an O(1) hit and counts hits/misses/evictions.
//! * `fleet` — every server's placement state plus the one memoized
//!   allocator that searches it: plain single-threaded state with
//!   search, commit, clock-advance, migration and checkpoint
//!   operations.
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
//! reference mode: the same memoized allocator driven by the simulator
//! engine, reproducing `Simulation::run` exactly (the memo layer is
//! provably invisible to allocation decisions — the `service_replay`
//! integration test pins this down).

#![forbid(unsafe_code)]

pub mod deterministic;
pub mod durable;
mod fleet;
pub mod memo;
pub mod service;

pub use deterministic::{replay_deterministic, DeterministicConfig};
pub use durable::{verdict_line, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use memo::{CacheMetrics, CacheStats, MemoModel};
pub use service::{
    drive_paced, replay_online, AllocService, DrainReport, ReplayReport, ServiceConfig,
    ServiceStats, ShedReason, SubmitOutcome, Verdict,
};
