//! The allocation control plane: one deterministic single-writer
//! admission loop over the whole fleet.
//!
//! [`AllocService::start`] spawns exactly one thread, the admission
//! loop, which owns the `Fleet` outright. Clients talk to it over a
//! **bounded** `sync_channel`: [`AllocService::submit`] blocks when the
//! queue is full (backpressure), [`AllocService::try_submit`] sheds
//! instead. Every submitted request eventually produces at least one
//! [`Verdict`] on the verdict stream, tagged with its ticket.
//!
//! The loop takes requests one at a time, in arrival order, and runs
//! each to completion before looking at the next:
//!
//! 1. journal the submission;
//! 2. brownout check (with the overload plane armed);
//! 3. advance the fleet clock to the submit instant, retiring finished
//!    VMs;
//! 4. run the PROACTIVE partition search over the whole fleet;
//! 5. place the request, park it in the FIFO wait queue, or shed it;
//! 6. journal the verdict, then ack it on the verdict stream.
//!
//! If the request freed capacity it then retries the wait queue, runs a
//! consolidation sweep when the virtual clock crossed into a new epoch,
//! and writes a checkpoint when one is due. Nothing else ever touches
//! the fleet, so the verdict stream is a pure function of the request
//! sequence: blocking, non-blocking, paced and journaled driving all
//! produce the same verdict log, and a recovered journal replays to it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use eavm_benchdb::ModelDatabase;
use eavm_core::{OptimizationGoal, Placement, RequestView, SearchMetrics};
use eavm_faults::LookupFaults;
use eavm_overload::{OverloadConfig, OverloadPlane, OverloadSnapshot, Priority};
use eavm_swf::VmRequest;
use eavm_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Severity, Telemetry};
use eavm_types::{EavmError, Joules, MixVector, Seconds, ServerId};

use eavm_durability::{
    recover_dir_with, scrub_dir_with, MoveRec, RecoveredState, ScrubReport, SnapshotRec, WalRecord,
};
use eavm_migrate::{plan_moves, ConsolidationConfig, HostLoad, Hysteresis};

use crate::durable::{
    dump_to_snap, make_storage, parked_to_rec, rebuild, req_to_rec, verdict_to_record,
    DurInstruments, DurabilityConfig, DurabilityStats, Journal, RecoveryReport,
};
use crate::fleet::{build_strategy, Fleet};
use crate::memo::{CacheMetrics, CacheStats};

/// Tuning knobs for [`AllocService::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The first argument of [`ServiceConfig::new`]. It must be 1: the
    /// fleet is one unit owned by one admission loop, and any other
    /// value is an [`EavmError::InvalidConfig`] at start or recover.
    shards: usize,
    /// Total servers in the fleet.
    pub servers: usize,
    /// Bound of the admission channel *and* of the parked wait queue.
    pub queue_capacity: usize,
    /// LRU capacity of the allocator's model cache.
    pub cache_capacity: usize,
    /// PROACTIVE optimization goal α.
    pub goal: OptimizationGoal,
    /// Per-type response-time deadlines (Cpu, Mem, Io).
    pub deadlines: [Seconds; 3],
    /// QoS margin forwarded to the allocator.
    pub qos_margin: f64,
    /// Observability sink of the admission loop. Enabled by default;
    /// swap in [`Telemetry::disabled`] to make every instrument a no-op
    /// (stats snapshots keep working off private standalone counters).
    pub telemetry: Arc<Telemetry>,
    /// Injected transient model-lookup failures (disabled by default).
    /// Faulted lookups degrade to the analytic estimate and are counted
    /// as `model_fallbacks`; they never fail a request.
    pub lookup_faults: LookupFaults,
    /// Durability: when set, the loop journals every admission event to
    /// a write-ahead log *before* acking it and checkpoints the fleet
    /// periodically, making the service crash-recoverable via
    /// [`AllocService::recover`]. `None` (the default) journals nothing.
    pub durability: Option<DurabilityConfig>,
    /// Online consolidation: when set, the loop runs a threshold-driven
    /// drain sweep whenever the virtual clock crosses into a new
    /// `interval`-sized epoch, live-migrating VMs off underutilized
    /// servers (each charged its pre-copy stall) so the emptied donors
    /// stop drawing power. Sweeps are journaled *before* execution, so a
    /// crash mid-sweep recovers bit-exactly. `None` (the default) never
    /// migrates.
    pub consolidation: Option<ConsolidationConfig>,
    /// Adaptive overload control: when set, the loop runs a fleet-wide
    /// AIMD admission limit, CoDel-style queue-age shedding of parked
    /// requests, a circuit breaker mirroring the model-lookup fault
    /// stream, and a priority brownout ladder (`Batch` shed first,
    /// `Interactive` never). All controller state is a pure function of
    /// the journaled event stream, so recovery re-derives it bit-exactly.
    /// `None` (the default) admits exactly as before.
    pub overload: Option<OverloadConfig>,
}

impl ServiceConfig {
    /// A small sane default around `servers` reference machines.
    /// `shards` must be 1; see the field docs.
    pub fn new(shards: usize, servers: usize) -> Self {
        ServiceConfig {
            shards,
            servers,
            queue_capacity: 1024,
            cache_capacity: 4096,
            goal: OptimizationGoal::BALANCED,
            deadlines: [Seconds(5400.0), Seconds(4500.0), Seconds(4050.0)],
            qos_margin: 0.65,
            telemetry: Telemetry::new(),
            lookup_faults: LookupFaults::disabled(),
            durability: None,
            consolidation: None,
            overload: None,
        }
    }

    /// Enable periodic consolidation sweeps.
    pub fn with_consolidation(mut self, consolidation: ConsolidationConfig) -> Self {
        self.consolidation = Some(consolidation);
        self
    }

    /// Enable the adaptive overload-control plane.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }

    /// Journal into `dir` with default durability settings.
    pub fn with_journal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durability = Some(DurabilityConfig::new(dir));
        self
    }

    /// Set the full durability configuration.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Replace the observability sink.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Inject transient model-lookup failures.
    pub fn with_lookup_faults(mut self, faults: LookupFaults) -> Self {
        self.lookup_faults = faults;
        self
    }
}

/// Outcome of one submitted request, tagged by ticket on the verdict
/// stream. A `Queued` verdict is followed by a second verdict when the
/// parked request is later placed or shed.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Placed on arrival. `shard` is always 0 (the field keeps the
    /// journal and verdict-log format).
    Admitted {
        /// Always 0.
        shard: usize,
        /// The committed placements.
        placements: Vec<Placement>,
    },
    /// Placed after waiting: from the parked wait queue, or on arrival
    /// once the clock sync that follows a failed search freed capacity.
    /// `shards` is always `[0]` (the field keeps the journal and
    /// verdict-log format).
    AdmittedCrossShard {
        /// Always `[0]`.
        shards: Vec<usize>,
        /// The committed placements.
        placements: Vec<Placement>,
    },
    /// Fleet-wide infeasible right now; parked at this wait-queue depth.
    Queued {
        /// Position in the wait queue (1 = head).
        depth: usize,
    },
    /// Never emitted. Kept only as a journal-format tag, so journals
    /// that hold it still decode and replay.
    Requeued {
        /// The shard the journal names.
        shard: usize,
    },
    /// Dropped; see the reason.
    Shed {
        /// Why the request was dropped.
        reason: ShedReason,
    },
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// `try_submit` found the admission channel full.
    AdmissionFull,
    /// The parked wait queue was full.
    WaitQueueFull,
    /// Infeasible even on an otherwise empty fleet (drain gave up).
    Unplaceable,
    /// Never emitted. Kept only as a journal-format tag, so journals
    /// that hold it still decode and replay.
    ShardFailure,
    /// The journal could not make the decision durable (append retries
    /// exhausted — disk full, torn writes): the service is read-only
    /// degraded and sheds rather than acking what recovery could never
    /// reproduce.
    StorageDegraded,
    /// The request sat in the parked wait queue past the overload
    /// plane's CoDel target for a full interval: stale work is shed so
    /// it cannot starve fresh work (requires `ServiceConfig::overload`).
    QueueAged,
    /// The brownout ladder refused the request's priority class at the
    /// current pressure rung (requires `ServiceConfig::overload`).
    /// `Interactive` requests are never shed for this reason.
    BrownoutClass,
}

impl ShedReason {
    /// Every reason, in wire-index order. Adding a variant without
    /// extending this array (and the exhaustive matches below) is a
    /// compile error — the WAL codec can never silently drop a reason.
    pub const ALL: [ShedReason; 7] = [
        ShedReason::AdmissionFull,
        ShedReason::WaitQueueFull,
        ShedReason::Unplaceable,
        ShedReason::ShardFailure,
        ShedReason::StorageDegraded,
        ShedReason::QueueAged,
        ShedReason::BrownoutClass,
    ];

    /// Stable wire index, mirrored by `eavm-durability`'s
    /// `shed_reason_name` table. Exhaustive on purpose: a new variant
    /// fails to compile here instead of round-tripping as garbage.
    pub fn index(self) -> u8 {
        match self {
            ShedReason::AdmissionFull => 0,
            ShedReason::WaitQueueFull => 1,
            ShedReason::Unplaceable => 2,
            ShedReason::ShardFailure => 3,
            ShedReason::StorageDegraded => 4,
            ShedReason::QueueAged => 5,
            ShedReason::BrownoutClass => 6,
        }
    }

    /// Inverse of [`ShedReason::index`]; `None` for indices no variant
    /// claims (a corrupt or future frame).
    pub fn from_index(index: u8) -> Option<ShedReason> {
        ShedReason::ALL.iter().copied().find(|r| r.index() == index)
    }

    /// The stable snapshot-counter name recovery bumps when replaying a
    /// journaled shed with this reason. `None` for `AdmissionFull`,
    /// which is decided handle-side before anything is journaled.
    pub fn counter_name(self) -> Option<&'static str> {
        match self {
            ShedReason::AdmissionFull => None,
            ShedReason::WaitQueueFull => Some("shed_wait_queue"),
            ShedReason::Unplaceable => Some("shed_unplaceable"),
            ShedReason::ShardFailure => Some("shed_shard_failure"),
            ShedReason::StorageDegraded => Some("shed_storage_degraded"),
            ShedReason::QueueAged => Some("shed_queue_aged"),
            ShedReason::BrownoutClass => Some("shed_brownout_class"),
        }
    }

    /// Whether the overload plane's AIMD limiter cuts on this shed.
    /// Only genuine overload signals cut (a full wait queue, an aged-out
    /// entry). Brownout sheds must NOT cut: cutting on the ladder's own
    /// decisions is a positive-feedback death spiral. Used identically
    /// by the live verdict path and WAL replay, so limiter state stays
    /// a pure function of the journal.
    pub fn cuts_limits(self) -> bool {
        match self {
            ShedReason::WaitQueueFull | ShedReason::QueueAged => true,
            ShedReason::AdmissionFull
            | ShedReason::Unplaceable
            | ShedReason::ShardFailure
            | ShedReason::StorageDegraded
            | ShedReason::BrownoutClass => false,
        }
    }
}

/// Service counters, assembled by [`AllocService::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests the admission loop accepted off the admission channel.
    pub submitted: u64,
    /// Requests shed at admission (`try_submit` on a full channel).
    pub shed_admission: u64,
    /// Requests shed because the wait queue was full.
    pub shed_wait_queue: u64,
    /// Requests shed as unplaceable during drain.
    pub shed_unplaceable: u64,
    /// Requests shed with [`ShedReason::ShardFailure`]; only a
    /// recovered journal that holds such sheds makes this nonzero.
    pub shed_shard_failure: u64,
    /// Requests shed because the journal lost its storage (read-only
    /// degraded mode: no decision can be made durable).
    pub shed_storage_degraded: u64,
    /// Parked requests shed by the overload plane's queue aging.
    pub shed_queue_aged: u64,
    /// Requests shed by the brownout ladder for their priority class.
    pub shed_brownout_class: u64,
    /// Requests placed on arrival ([`Verdict::Admitted`]).
    pub admitted_local: u64,
    /// Requests placed after waiting ([`Verdict::AdmittedCrossShard`]).
    pub admitted_cross_shard: u64,
    /// Requests placed only after waiting in the parked queue.
    pub admitted_after_wait: u64,
    /// Requests currently parked.
    pub parked: u64,
    /// Model lookups answered by the analytic fallback after an
    /// injected transient failure.
    pub model_fallbacks: u64,
    /// The allocator's model-cache counters.
    pub cache: CacheStats,
    /// Current virtual time.
    pub virtual_now: Seconds,
    /// VMs resident fleet-wide.
    pub resident_vms: usize,
    /// Model-estimated dynamic energy of everything committed so far.
    pub estimated_energy: Joules,
    /// Wall-clock submit-to-first-verdict latency distribution (µs).
    pub admission_latency_us: HistogramSnapshot,
    /// WAL/checkpoint/recovery counters (all zero without durability).
    pub durability: DurabilityStats,
    /// Consolidation sweeps run (epoch crossings; 0 without
    /// consolidation).
    pub consolidation_sweeps: u64,
    /// VMs live-migrated by consolidation sweeps.
    pub consolidation_migrations: u64,
    /// Donor hosts fully drained (powered down) by sweeps.
    pub consolidation_hosts_drained: u64,
    /// Journaled submissions by priority class, indexed by
    /// [`Priority::index`] (Batch, Standard, Interactive).
    pub submitted_class: [u64; 3],
    /// Admissions by priority class, indexed the same way.
    pub admitted_class: [u64; 3],
    /// Controller state of the overload plane; `None` without
    /// `ServiceConfig::overload`.
    pub overload: Option<OverloadSnapshot>,
}

/// Result of [`AllocService::drain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainReport {
    /// Virtual time after the drain.
    pub advanced_to: Seconds,
    /// VMs retired while draining.
    pub retired: usize,
    /// Parked requests shed as unplaceable.
    pub shed_unplaceable: u64,
}

/// Outcome of a non-blocking [`AllocService::try_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Accepted; a verdict with this ticket will follow.
    Enqueued(u64),
    /// Admission channel full; dropped with this ticket.
    Shed(u64),
}

enum Ctl {
    Submit {
        ticket: u64,
        request: VmRequest,
        /// Wall-clock submit instant for the admission-latency
        /// histogram; `None` when telemetry is disabled, so the hot
        /// submit path never reads the clock for nothing.
        t0: Option<Instant>,
    },
    AdvanceTo {
        t: Seconds,
        done: Sender<()>,
    },
    Drain {
        done: Sender<DrainReport>,
    },
    Stats {
        reply: Sender<ServiceStats>,
    },
    Shutdown,
}

/// Handle to a running allocation service.
pub struct AllocService {
    ctl_tx: SyncSender<Ctl>,
    verdict_rx: Receiver<(u64, Verdict)>,
    next_ticket: AtomicU64,
    shed_admission: Counter,
    telemetry: Arc<Telemetry>,
    admission: Option<JoinHandle<()>>,
}

impl AllocService {
    /// Spawn the admission loop over `db`.
    pub fn start(db: ModelDatabase, config: ServiceConfig) -> Result<AllocService, EavmError> {
        Self::launch(db, config, None, None).map(|(service, _)| service)
    }

    /// Recover a service from its journal directory (`config.durability`
    /// must be set): load the newest usable checkpoint, replay the WAL
    /// tail deterministically (no search re-runs — journaled decisions
    /// are re-applied with their original placements and clock
    /// advances), re-drive any submitted-but-undecided request before
    /// new traffic, and continue journaling where the crashed process
    /// stopped. An empty journal directory recovers to a fresh service.
    pub fn recover(
        db: ModelDatabase,
        config: ServiceConfig,
    ) -> Result<(AllocService, RecoveryReport), EavmError> {
        let dcfg = config.durability.as_ref().ok_or_else(|| {
            EavmError::InvalidConfig(
                "recover needs a journal directory (ServiceConfig::with_journal_dir)".into(),
            )
        })?;
        let dir = dcfg.dir.clone();
        // Recovery reads route through the configured storage backend,
        // so injected faults exercise this path too.
        let storage = make_storage(dcfg);
        // Optional pre-recovery scrub: truncate damaged WAL tails and
        // quarantine corrupt snapshots so the reads below only ever see
        // a self-consistent journal.
        let scrubbed = if dcfg.scrub_on_recover {
            Some(scrub_dir_with(storage.as_ref(), &dir)?)
        } else {
            None
        };
        let state = recover_dir_with(storage.as_ref(), &dir)?;
        Self::launch(db, config, Some(state), scrubbed)
    }

    fn launch(
        db: ModelDatabase,
        config: ServiceConfig,
        recovered: Option<RecoveredState>,
        scrubbed: Option<ScrubReport>,
    ) -> Result<(AllocService, RecoveryReport), EavmError> {
        if config.shards != 1 {
            return Err(EavmError::InvalidConfig(format!(
                "one admission loop owns the whole fleet: shards must be 1, got {}",
                config.shards
            )));
        }
        if config.servers == 0 {
            return Err(EavmError::InvalidConfig(
                "service needs at least one server".into(),
            ));
        }
        if let Some(consolidation) = &config.consolidation {
            consolidation.validate().map_err(EavmError::InvalidConfig)?;
        }
        // Resolve the overload plane up front: auto limits come from the
        // fleet size, and an unarmed breaker mirrors the lookup-fault
        // stream when one is injected (the probe process then observes
        // exactly the failure process the allocator sees).
        let mut plane = match &config.overload {
            Some(overload) => {
                let mut resolved = overload.clone().resolve(config.servers);
                // eavm-lint: allow(D4, reason = "exact-zero means `breaker unarmed`: the rate is user config copied verbatim, and only a literal 0.0 opts into mirroring the fault stream")
                if resolved.breaker_rate == 0.0 && config.lookup_faults.is_enabled() {
                    resolved = resolved.with_breaker_stream(
                        config.lookup_faults.seed(),
                        config.lookup_faults.failure_rate(),
                    );
                }
                resolved.validate().map_err(EavmError::InvalidConfig)?;
                Some(OverloadPlane::new(resolved))
            }
            None => None,
        };
        let telemetry = Arc::clone(&config.telemetry);
        let mut fleet = Fleet::new(
            config.servers,
            build_strategy(
                db,
                config.cache_capacity,
                config.goal,
                config.deadlines,
                config.qos_margin,
                cache_metrics(&telemetry),
                search_metrics(&telemetry),
                config.lookup_faults,
                if telemetry.is_enabled() {
                    telemetry.counter("service.model_fallbacks")
                } else {
                    Counter::standalone()
                },
            ),
        );

        let shed_admission = if telemetry.is_enabled() {
            telemetry.counter("service.shed.admission")
        } else {
            Counter::standalone()
        };
        let counters = Instruments::new(&telemetry, shed_admission.clone());

        // Rebuild recovered state into the fresh fleet before the loop
        // starts: load the snapshot, replay the WAL tail
        // deterministically, then seed the counters with the crashed
        // process's values.
        let mut report = RecoveryReport::default();
        let mut hysteresis = Hysteresis::new(config.servers);
        let mut pending_sweep = false;
        let mut resume_retired = false;
        let (now, restored_parked, resume, next_ticket) = match recovered.as_ref() {
            Some(state) => {
                let rebuilt = rebuild(
                    state,
                    &mut fleet,
                    config.consolidation.as_ref(),
                    plane.as_mut(),
                );
                hysteresis = rebuilt.hysteresis;
                pending_sweep = rebuilt.pending_sweep;
                resume_retired = rebuilt.tail_retired;
                counters.seed(&rebuilt.counters);
                let dur = &counters.durability;
                dur.frames_replayed.add(rebuilt.frames_replayed);
                dur.snapshots_loaded.add(state.snapshots_loaded);
                dur.torn_frames_dropped.add(state.torn_frames_dropped);
                dur.tmp_swept.add(state.tmp_swept);
                if let Some(report) = &scrubbed {
                    dur.snapshots_quarantined
                        .add(report.snapshots_quarantined());
                    dur.torn_tails_repaired.add(report.torn_tails_repaired);
                    dur.tmp_swept.add(report.tmp_swept);
                }
                report = RecoveryReport {
                    snapshots_loaded: state.snapshots_loaded,
                    frames_replayed: rebuilt.frames_replayed,
                    torn_frames_dropped: state.torn_frames_dropped,
                    resumed_inflight: rebuilt.resume.len(),
                    restored_parked: rebuilt.parked.len(),
                    resident_vms: fleet.resident_vms(),
                    virtual_now: rebuilt.now,
                    next_ticket: rebuilt.next_ticket,
                    verdicts: state.verdict_lines(),
                };
                (
                    rebuilt.now,
                    rebuilt.parked,
                    rebuilt.resume,
                    rebuilt.next_ticket,
                )
            }
            None => (Seconds(0.0), Vec::new(), Vec::new(), 0),
        };
        let journal = match &config.durability {
            Some(dcfg) => Some(Journal::open(
                dcfg,
                recovered.as_ref(),
                &counters.durability,
            )?),
            None => None,
        };

        let (ctl_tx, ctl_rx) = sync_channel(config.queue_capacity);
        let (verdict_tx, verdict_rx) = channel();
        counters.parked_depth.set(restored_parked.len() as i64);
        // Seed the verdict-time metadata (submit, deadline, class) for
        // every recovered ticket that still awaits a final verdict —
        // re-driven in-flight requests and restored parked entries
        // alike — so the plane's hooks and the class counters see the
        // same arguments the crashed process would have supplied.
        let mut meta: BTreeMap<u64, (Seconds, Seconds, Priority)> = BTreeMap::new();
        for (ticket, request) in &resume {
            meta.insert(
                *ticket,
                (request.submit, request.deadline, request.priority),
            );
        }
        for (ticket, request, _) in &restored_parked {
            meta.insert(
                *ticket,
                (request.submit, request.deadline, request.priority),
            );
        }
        let mut admission = Admission {
            config,
            fleet,
            ctl_rx,
            verdict_tx,
            parked: restored_parked
                .into_iter()
                .map(|(ticket, request, parked_at)| Parked {
                    ticket,
                    view: view_of(&request),
                    submit: request.submit,
                    priority: request.priority,
                    parked_at,
                })
                .collect(),
            inflight: BTreeMap::new(),
            meta,
            plane,
            now,
            counters,
            journal,
            resume,
            ticket_watermark: next_ticket,
            hysteresis,
            pending_sweep,
            resume_retired,
            storage_degraded: false,
        };
        let handle = std::thread::Builder::new()
            .name("eavm-admission".into())
            .spawn(move || admission.run())
            .map_err(EavmError::Io)?;
        Ok((
            AllocService {
                ctl_tx,
                verdict_rx,
                next_ticket: AtomicU64::new(next_ticket),
                shed_admission,
                telemetry,
                admission: Some(handle),
            },
            report,
        ))
    }

    fn ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// The observability sink this service reports into. Snapshot it
    /// via [`Telemetry::snapshot`] for export.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    fn stamp(&self) -> Option<Instant> {
        // eavm-lint: allow(D1, reason = "admission-latency stamp, gated on telemetry; the disabled path never reads a clock and no replayed state depends on it")
        self.telemetry.is_enabled().then(Instant::now)
    }

    /// Submit with backpressure: blocks while the admission queue is
    /// full. Returns the request's ticket.
    pub fn submit(&self, request: VmRequest) -> u64 {
        let ticket = self.ticket();
        let t0 = self.stamp();
        let _ = self.ctl_tx.send(Ctl::Submit {
            ticket,
            request,
            t0,
        });
        ticket
    }

    /// Submit without blocking: sheds the request when the admission
    /// queue is full.
    pub fn try_submit(&self, request: VmRequest) -> SubmitOutcome {
        let ticket = self.ticket();
        let t0 = self.stamp();
        match self.ctl_tx.try_send(Ctl::Submit {
            ticket,
            request,
            t0,
        }) {
            Ok(()) => SubmitOutcome::Enqueued(ticket),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shed_admission.add(1);
                SubmitOutcome::Shed(ticket)
            }
        }
    }

    /// One request/reply round trip with the admission loop. `Err`
    /// means the loop's thread is down — never a silent default.
    fn call<T>(&self, make: impl FnOnce(Sender<T>) -> Ctl) -> Result<T, EavmError> {
        let down = || EavmError::Unavailable("admission loop is down".into());
        let (tx, rx) = channel();
        self.ctl_tx.send(make(tx)).map_err(|_| down())?;
        rx.recv().map_err(|_| down())
    }

    /// Advance the virtual clock and retry parked requests. Blocks until
    /// the advance is fully applied.
    pub fn advance_to(&self, t: Seconds) -> Result<(), EavmError> {
        self.call(|done| Ctl::AdvanceTo { t, done })
    }

    /// Run virtual time forward until the wait queue empties (or its
    /// head is unplaceable even on a drained fleet).
    pub fn drain(&self) -> Result<DrainReport, EavmError> {
        self.call(|done| Ctl::Drain { done })
    }

    /// Snapshot the service counters. Everything submitted before the
    /// call is decided by the time it returns.
    pub fn stats(&self) -> Result<ServiceStats, EavmError> {
        self.call(|reply| Ctl::Stats { reply })
    }

    /// Collect every verdict currently available, in emission order.
    pub fn poll_verdicts(&self) -> Vec<(u64, Verdict)> {
        self.verdict_rx.try_iter().collect()
    }

    /// Stop the admission loop, returning the final counters. The
    /// thread is joined even when the final snapshot fails.
    pub fn shutdown(mut self) -> Result<ServiceStats, EavmError> {
        let stats = self.stats();
        self.stop();
        stats
    }

    fn stop(&mut self) {
        let _ = self.ctl_tx.send(Ctl::Shutdown);
        if let Some(handle) = self.admission.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AllocService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Cache counters: registry handles when telemetry is enabled, private
/// standalone counters otherwise.
fn cache_metrics(telemetry: &Telemetry) -> CacheMetrics {
    if telemetry.is_enabled() {
        CacheMetrics {
            hits: telemetry.counter("service.cache.hits"),
            misses: telemetry.counter("service.cache.misses"),
            evictions: telemetry.counter("service.cache.evictions"),
            stripe: 0,
        }
    } else {
        CacheMetrics::standalone()
    }
}

/// Partition-search counters; see [`cache_metrics`].
fn search_metrics(telemetry: &Telemetry) -> SearchMetrics {
    if telemetry.is_enabled() {
        SearchMetrics {
            searches: telemetry.counter("service.search.searches"),
            partitions_evaluated: telemetry.counter("service.search.partitions_evaluated"),
            partitions_feasible: telemetry.counter("service.search.partitions_feasible"),
            candidates_pruned: telemetry.counter("service.search.candidates_pruned"),
            stripe: 0,
        }
    } else {
        SearchMetrics::default()
    }
}

fn view_of(request: &VmRequest) -> RequestView {
    RequestView {
        id: request.id,
        workload: request.workload,
        vm_count: request.vm_count,
        deadline: request.deadline,
    }
}

/// The admission loop's counters, gauge, and latency histogram.
/// Registry handles when telemetry is enabled (exports see them live),
/// private standalone instruments otherwise — [`ServiceStats`] reads
/// them the same way in both modes.
struct Instruments {
    submitted: Counter,
    /// Shared with the [`AllocService`] handle, which is the writer.
    shed_admission: Counter,
    shed_wait_queue: Counter,
    shed_unplaceable: Counter,
    shed_shard_failure: Counter,
    shed_storage_degraded: Counter,
    shed_queue_aged: Counter,
    shed_brownout_class: Counter,
    admitted_local: Counter,
    admitted_cross_shard: Counter,
    admitted_after_wait: Counter,
    /// Journaled submissions by priority class ([`Priority::index`]).
    submitted_class: [Counter; 3],
    /// Admissions by priority class.
    admitted_class: [Counter; 3],
    /// Depth of the parked wait queue.
    parked_depth: Gauge,
    /// Wall-clock submit-to-first-verdict latency (µs).
    admission_latency: Histogram,
    /// WAL/checkpoint/recovery counters.
    durability: DurInstruments,
    /// Consolidation sweeps run (one per epoch crossing).
    consolidation_sweeps: Counter,
    /// VMs live-migrated by sweeps.
    consolidation_migrations: Counter,
    /// Donor hosts fully drained (powered down) by sweeps.
    consolidation_hosts_drained: Counter,
    /// The last swept epoch — monotone, so a counter models it; this is
    /// the durable watermark that keeps recovery from re-planning a
    /// sweep whose journaled frame it already replayed.
    consolidation_epoch: Counter,
}

impl Instruments {
    fn new(telemetry: &Telemetry, shed_admission: Counter) -> Instruments {
        let enabled = telemetry.is_enabled();
        let counter = |name: &str| {
            if enabled {
                telemetry.counter(name)
            } else {
                Counter::standalone()
            }
        };
        Instruments {
            submitted: counter("service.submitted"),
            shed_admission,
            shed_wait_queue: counter("service.shed.wait_queue"),
            shed_unplaceable: counter("service.shed.unplaceable"),
            shed_shard_failure: counter("service.shed.shard_failure"),
            shed_storage_degraded: counter("service.shed.storage_degraded"),
            shed_queue_aged: counter("service.shed.queue_aged"),
            shed_brownout_class: counter("service.shed.brownout_class"),
            admitted_local: counter("service.admitted.local"),
            admitted_cross_shard: counter("service.admitted.cross_shard"),
            admitted_after_wait: counter("service.admitted.after_wait"),
            submitted_class: [
                counter("service.submitted.batch"),
                counter("service.submitted.standard"),
                counter("service.submitted.interactive"),
            ],
            admitted_class: [
                counter("service.admitted.batch"),
                counter("service.admitted.standard"),
                counter("service.admitted.interactive"),
            ],
            parked_depth: if enabled {
                telemetry.gauge("service.parked_depth")
            } else {
                Gauge::standalone()
            },
            admission_latency: if enabled {
                telemetry.histogram("service.admission_latency_us")
            } else {
                Histogram::standalone()
            },
            durability: DurInstruments::new(telemetry),
            consolidation_sweeps: counter("service.consolidation.sweeps"),
            consolidation_migrations: counter("service.consolidation.migrations"),
            consolidation_hosts_drained: counter("service.consolidation.hosts_drained"),
            consolidation_epoch: counter("service.consolidation.epoch"),
        }
    }

    /// The counters persisted by checkpoints and seeded on recovery,
    /// with their stable snapshot names. `shed_admission` is excluded:
    /// it is written handle-side and never journaled.
    fn named(&self) -> [(&'static str, &Counter); 20] {
        [
            ("submitted", &self.submitted),
            ("shed_wait_queue", &self.shed_wait_queue),
            ("shed_unplaceable", &self.shed_unplaceable),
            ("shed_shard_failure", &self.shed_shard_failure),
            ("shed_storage_degraded", &self.shed_storage_degraded),
            ("shed_queue_aged", &self.shed_queue_aged),
            ("shed_brownout_class", &self.shed_brownout_class),
            ("submitted_class_batch", &self.submitted_class[0]),
            ("submitted_class_standard", &self.submitted_class[1]),
            ("submitted_class_interactive", &self.submitted_class[2]),
            ("admitted_class_batch", &self.admitted_class[0]),
            ("admitted_class_standard", &self.admitted_class[1]),
            ("admitted_class_interactive", &self.admitted_class[2]),
            ("admitted_local", &self.admitted_local),
            ("admitted_cross_shard", &self.admitted_cross_shard),
            ("admitted_after_wait", &self.admitted_after_wait),
            ("consolidation_sweeps", &self.consolidation_sweeps),
            ("consolidation_migrations", &self.consolidation_migrations),
            (
                "consolidation_hosts_drained",
                &self.consolidation_hosts_drained,
            ),
            ("consolidation_epoch", &self.consolidation_epoch),
        ]
    }

    /// Restore counter values saved by a checkpoint (plus tail replay).
    /// Names this version does not keep are ignored.
    fn seed(&self, values: &[(String, u64)]) {
        for (name, value) in values {
            if *value == 0 {
                continue;
            }
            if let Some((_, counter)) = self.named().iter().find(|(n, _)| n == name) {
                counter.add(*value);
            }
        }
    }

    /// Current values of every persisted counter, for a checkpoint.
    fn values(&self) -> Vec<(String, u64)> {
        self.named()
            .iter()
            .map(|(name, counter)| (name.to_string(), counter.get()))
            .collect()
    }
}

struct Parked {
    ticket: u64,
    view: RequestView,
    /// Original submit instant — persisted by checkpoints so recovered
    /// deadline arithmetic stays exact.
    submit: Seconds,
    /// Scheduling class, for the brownout ladder after recovery.
    priority: Priority,
    /// Instant the request entered the wait queue; the overload plane's
    /// queue-age shedding measures sojourn from here.
    parked_at: Seconds,
}

/// The admission loop: the only owner and writer of the fleet.
struct Admission {
    config: ServiceConfig,
    fleet: Fleet,
    ctl_rx: Receiver<Ctl>,
    verdict_tx: Sender<(u64, Verdict)>,
    parked: VecDeque<Parked>,
    /// Submit instants of tickets that have not seen a verdict yet,
    /// recorded only when telemetry is enabled. Ordered map: cheap at
    /// this size, and keeps every loop structure free of hash-iteration
    /// order by construction.
    inflight: BTreeMap<u64, Instant>,
    /// Submit instant, deadline, and priority class of every ticket
    /// still awaiting its *final* verdict — the arguments the overload
    /// plane's hooks and the class counters need at verdict time, and
    /// what checkpoints persist for parked entries.
    meta: BTreeMap<u64, (Seconds, Seconds, Priority)>,
    /// The overload-control plane; `None` without
    /// `ServiceConfig::overload`. State mutates only in its event
    /// hooks, each fired right after the matching WAL record becomes
    /// durable — recovery replays the identical hooks from the journal.
    plane: Option<OverloadPlane>,
    now: Seconds,
    counters: Instruments,
    /// Write-ahead journal; `None` without durability. Every admission
    /// event is appended *before* its verdict is acked.
    journal: Option<Journal>,
    /// Recovered submitted-but-undecided requests, re-driven before any
    /// new traffic.
    resume: Vec<(u64, VmRequest)>,
    /// Strictly above every ticket seen (or recovered); checkpoints
    /// persist it as `next_ticket`.
    ticket_watermark: u64,
    /// Anti-flapping cooldowns of the consolidation policy; checkpoints
    /// persist the nonzero entries and recovery replays journaled
    /// sweeps, so planned moves after a crash match the uncrashed run.
    hysteresis: Hysteresis,
    /// Recovery found the journal ending on a decision frame whose
    /// boundary `Migrate` frame may have been lost to the crash; see
    /// [`crate::durable::Rebuilt::pending_sweep`].
    pending_sweep: bool,
    /// The crashed request's journaled retirement was already applied
    /// by the rebuild, so re-driving it cannot observe it; see
    /// [`crate::durable::Rebuilt::tail_retired`].
    resume_retired: bool,
    /// Sticky read-only degradation: a journal append exhausted its
    /// retries, so no further decision can be made durable. Every
    /// subsequent request is shed with [`ShedReason::StorageDegraded`]
    /// instead of being acked on state recovery could never reproduce.
    storage_degraded: bool,
}

impl Admission {
    fn run(&mut self) {
        self.resume_recovered();
        while let Ok(msg) = self.ctl_rx.recv() {
            match msg {
                Ctl::Submit {
                    ticket,
                    request,
                    t0,
                } => {
                    if let Some(t0) = t0 {
                        self.inflight.insert(ticket, t0);
                    }
                    self.ticket_watermark = self.ticket_watermark.max(ticket + 1);
                    self.admit(ticket, &request, false);
                }
                Ctl::AdvanceTo { t, done } => {
                    // Mixes only shrink when VMs retire, so parked
                    // requests can only have become placeable if the
                    // advance actually retired something. Queue aging is
                    // pure clock, though: it must run even on a
                    // zero-retirement advance, or a recovered run's
                    // startup retry would shed entries the live run had
                    // not.
                    if self.advance(t) > 0 {
                        self.retry_parked();
                    } else {
                        self.shed_aged();
                    }
                    let _ = done.send(());
                }
                Ctl::Drain { done } => {
                    let report = self.drain();
                    let _ = done.send(report);
                }
                Ctl::Stats { reply } => {
                    let _ = reply.send(self.stats());
                }
                Ctl::Shutdown => break,
            }
            // Consolidation and checkpoints happen only here, between
            // fully processed messages: no request is mid-flight, so the
            // sweep sees a settled fleet and the snapshot needs no
            // pending set. Sweep first — a due checkpoint then captures
            // the post-sweep fleet.
            self.maybe_consolidate();
            self.maybe_checkpoint();
        }
        if let Some(journal) = self.journal.as_mut() {
            let _ = journal.sync();
        }
    }

    /// Finish whatever the crashed process left half done, before any
    /// new traffic: re-drive recovered in-flight requests (deterministic
    /// re-execution lands them exactly where the crashed process would
    /// have), and complete a parked-retry pass or a consolidation sweep
    /// the crash cut short. A no-op on a fresh start.
    fn resume_recovered(&mut self) {
        let resume = std::mem::take(&mut self.resume);
        let pending_sweep = std::mem::take(&mut self.pending_sweep);
        let resume_retired = std::mem::take(&mut self.resume_retired);
        if !resume.is_empty() {
            for (ticket, request) in &resume {
                self.admit(*ticket, request, true);
            }
            if resume_retired && !self.parked.is_empty() {
                // The crashed request's clock advance retired capacity,
                // so the live run followed its decision with a parked
                // retry — but the rebuild already applied that
                // retirement, so the re-driven decision above saw zero
                // freed capacity and skipped it. Re-run the retry tail
                // of `admit`: the re-journaled `Clock` and the retry
                // admissions land frame-for-frame where the crashed
                // process would have put them.
                self.advance(self.now);
                self.retry_parked();
            }
            self.maybe_consolidate();
            self.maybe_checkpoint();
            return;
        }
        // A crash can also cut a parked-retry sequence short: the
        // crashed process had already retired capacity and begun
        // admitting waiters at this instant, so finish the sequence now —
        // the rebuilt fleet is exactly the mid-sequence state, so each
        // re-run search lands where the crashed process would have.
        // No-op when nothing parked fits (including every fresh start).
        let waited = self.counters.admitted_after_wait.get();
        if !self.parked.is_empty() {
            if resume_retired {
                // The crashed request's clock advance freed capacity but
                // its journaled sync was lost with the crash: sync now
                // (re-journaling the `Clock` the live run wrote).
                self.advance(self.now);
            }
            self.retry_parked();
        }
        if pending_sweep || self.counters.admitted_after_wait.get() > waited {
            // The retries above closed with a consolidation check; and
            // if the journal ended on a decision frame, the boundary
            // sweep may have been due but its `Migrate` frame lost —
            // re-fire before any new admission sees the un-consolidated
            // fleet. No-op when the watermark is current.
            self.maybe_consolidate();
        }
    }

    /// Append a record through the journal's resilient path. Returns
    /// `true` when the record is durable (or the service journals
    /// nothing at all). Exhausted retries flip the loop into sticky
    /// read-only degradation — once here, further calls short-circuit
    /// to `false` without hammering the dead disk.
    fn journal_append(&mut self, record: &WalRecord) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return true;
        };
        if self.storage_degraded {
            return false;
        }
        match journal.append_resilient(record) {
            Ok(()) => true,
            Err(err) => {
                self.storage_degraded = true;
                self.counters.durability.degraded_entries.add(1);
                self.config.telemetry.event(
                    self.now.0,
                    "service",
                    Severity::Error,
                    "journal append failed; entering read-only degraded mode",
                    vec![("error", err.to_string())],
                );
                false
            }
        }
    }

    /// Journal and ack a verdict; an admission is committed to the fleet
    /// only once this returns `true`. Returns `true` when the intended
    /// verdict was acked; `false` when it could not be made durable and
    /// was downgraded to a storage-degraded shed. Either way the ticket
    /// has received exactly one answer for this call — on `false` the
    /// (shed) answer was *final*, so callers must neither bump the
    /// intended verdict's outcome counter nor keep the ticket queued
    /// for a second one.
    fn verdict(&mut self, ticket: u64, verdict: Verdict) -> bool {
        // The admission latency is submit to *first* verdict: a parked
        // request's `Queued` verdict stops its clock, the later
        // placement or shed does not re-report.
        if let Some(t0) = self.inflight.remove(&ticket) {
            self.counters
                .admission_latency
                .record(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        // Journal-before-ack: the verdict becomes durable (and the
        // injected crash schedule gets its chance to abort) before the
        // client can observe it, so recovery never re-decides a request
        // whose answer may have escaped. A verdict that cannot be made
        // durable must not be acked either — the client instead learns
        // the service degraded, and still gets exactly one answer.
        let (verdict, acked) = if self.journal_append(&verdict_to_record(ticket, &verdict)) {
            self.note_verdict(ticket, &verdict);
            (verdict, true)
        } else {
            self.counters.shed_storage_degraded.add(1);
            // The degraded shed is the ticket's final answer; it was
            // never journaled, so no plane hook fires for it (replay
            // will not see it either).
            self.meta.remove(&ticket);
            (
                Verdict::Shed {
                    reason: ShedReason::StorageDegraded,
                },
                false,
            )
        };
        let _ = self.verdict_tx.send((ticket, verdict));
        acked
    }

    /// Journal and ack a shed, counting it under its reason once acked
    /// (a shed that degraded is counted as a storage shed by
    /// [`Admission::verdict`]). Returns whether it was acked.
    fn shed(&mut self, ticket: u64, view: &RequestView, reason: ShedReason) -> bool {
        self.shed_event(ticket, view, reason);
        let acked = self.verdict(ticket, Verdict::Shed { reason });
        let c = &self.counters;
        let counter = match reason {
            ShedReason::WaitQueueFull => Some(&c.shed_wait_queue),
            ShedReason::Unplaceable => Some(&c.shed_unplaceable),
            ShedReason::QueueAged => Some(&c.shed_queue_aged),
            ShedReason::BrownoutClass => Some(&c.shed_brownout_class),
            ShedReason::AdmissionFull | ShedReason::ShardFailure | ShedReason::StorageDegraded => {
                None
            }
        };
        if let (true, Some(counter)) = (acked, counter) {
            counter.add(1);
        }
        acked
    }

    /// A verdict record just became durable: fire the overload plane's
    /// matching hook and settle the per-ticket metadata. Mirrored
    /// record-for-record by WAL replay in `rebuild`, which is what
    /// keeps plane state a pure function of the journal.
    fn note_verdict(&mut self, ticket: u64, verdict: &Verdict) {
        match verdict {
            Verdict::Admitted { .. } | Verdict::AdmittedCrossShard { .. } => {
                if let Some((submit, deadline, priority)) = self.meta.remove(&ticket) {
                    if let Some(plane) = self.plane.as_mut() {
                        plane.on_admitted(submit.0, deadline.0);
                    }
                    self.counters.admitted_class[priority.index()].add(1);
                }
            }
            Verdict::Shed { reason } => {
                self.meta.remove(&ticket);
                if let Some(plane) = self.plane.as_mut() {
                    plane.on_shed(reason.cuts_limits());
                }
            }
            // Interim verdicts: the ticket still awaits a final answer.
            Verdict::Queued { .. } | Verdict::Requeued { .. } => {}
        }
    }

    /// A `Submit` record just became durable: register the ticket's
    /// verdict-time metadata, count its class, and advance the plane
    /// (clock, breaker probe). Replay fires the identical hook per
    /// journaled `Submit` frame.
    fn note_submit(&mut self, ticket: u64, request: &VmRequest) {
        self.meta
            .insert(ticket, (request.submit, request.deadline, request.priority));
        self.counters.submitted_class[request.priority.index()].add(1);
        if let Some(plane) = self.plane.as_mut() {
            plane.on_submit(request.submit.0);
        }
    }

    /// The brownout ladder's current rung, from the fleet's resident
    /// total, wait-queue fill, and breaker state.
    fn brownout_rung(&self) -> u8 {
        let Some(plane) = self.plane.as_ref() else {
            return 0;
        };
        let resident: u32 = self.fleet.mixes().map(|m| m.total()).sum();
        plane.rung(
            resident as usize,
            self.parked.len(),
            self.config.queue_capacity,
        )
    }

    /// Decide one request: journal its submission, check the brownout
    /// ladder, advance the fleet clock to its submit instant, search the
    /// whole fleet, and place, park or shed it; then retry the wait
    /// queue if the request's clock advances freed capacity. `resumed`
    /// marks a recovered in-flight request being re-driven: its
    /// submission was already journaled and counted by the crashed
    /// process, so neither happens again.
    fn admit(&mut self, ticket: u64, request: &VmRequest, resumed: bool) {
        let view = view_of(request);
        if !resumed {
            let record = WalRecord::Submit {
                ticket,
                req: req_to_rec(request),
            };
            if self.journal_append(&record) {
                self.note_submit(ticket, request);
            }
            // Counted even when degraded, so conservation holds.
            self.counters.submitted.add(1);
        }
        if self.storage_degraded {
            // Read-only degradation: nothing can be made durable, so
            // nothing may mutate the fleet — the request still gets
            // exactly one (shed) verdict.
            self.shed(ticket, &view, ShedReason::StorageDegraded);
            return;
        }
        // The submit advanced the plane's durable clock, and a recovered
        // process re-runs the (aged-pruning) retry pass at startup
        // before re-driving this very request. Prune here too, so the
        // brownout rung and queue-full decisions below see exactly the
        // wait queue a post-crash replay would.
        self.shed_aged();
        self.now = self.now.max(request.submit);
        // Brownout ladder: under pressure, sheddable classes are
        // refused before any placement work. Applies to re-driven
        // requests too — their decision never made the journal, and the
        // rebuilt plane and fleet are exactly what the crashed process
        // would have judged them by.
        if OverloadPlane::sheds_class(self.brownout_rung(), request.priority) {
            self.shed(ticket, &view, ShedReason::BrownoutClass);
            return;
        }
        // The clock advance to the submit instant is not journaled:
        // replay re-derives it from the `Admitted` frame (or from the
        // `Clock` frame a failed search journals next).
        let mut retired = self.fleet.advance_to(request.submit);
        match self.fleet.search(&view) {
            Some(placements) => {
                let admitted = Verdict::Admitted {
                    shard: 0,
                    placements: placements.clone(),
                };
                if self.verdict(ticket, admitted) {
                    self.fleet.commit(&placements);
                    self.counters.admitted_local.add(1);
                }
            }
            None => {
                // Sync the clock to `now` (journaled, so the aging pass
                // must follow it before any park decision), then search
                // again only if that freed capacity: on an unchanged
                // fleet the search would fail the same way.
                let synced = self.advance(self.now);
                retired += synced;
                self.shed_aged();
                let placements = if synced > 0 && self.fleet.capacity_feasible(&view) {
                    self.fleet.search(&view)
                } else {
                    None
                };
                match placements {
                    Some(placements) => {
                        let admitted = Verdict::AdmittedCrossShard {
                            shards: vec![0],
                            placements: placements.clone(),
                        };
                        if self.verdict(ticket, admitted) {
                            self.fleet.commit(&placements);
                            self.counters.admitted_cross_shard.add(1);
                        }
                    }
                    None => self.park_or_shed(ticket, view),
                }
            }
        }
        if retired > 0 && !self.parked.is_empty() {
            self.advance(self.now);
            self.retry_parked();
        }
    }

    /// Park a fleet-wide-infeasible request, or shed it when the wait
    /// queue is full.
    fn park_or_shed(&mut self, ticket: u64, view: RequestView) {
        if self.parked.len() >= self.config.queue_capacity {
            self.shed(ticket, &view, ShedReason::WaitQueueFull);
            return;
        }
        // Park only once the `Queued` ack is durable: an ack that
        // degraded to a shed already answered the ticket finally, so it
        // must not stay queued for a second verdict.
        let depth = self.parked.len() + 1;
        if self.verdict(ticket, Verdict::Queued { depth }) {
            let (submit, priority) = self
                .meta
                .get(&ticket)
                .map(|&(submit, _, priority)| (submit, priority))
                .unwrap_or((self.now, Priority::Standard));
            self.parked.push_back(Parked {
                ticket,
                view,
                submit,
                priority,
                parked_at: self.now,
            });
            self.counters.parked_depth.set(self.parked.len() as i64);
        }
    }

    /// CoDel-style pass over the wait queue: shed every parked request
    /// whose sojourn exceeded the overload plane's target for a full
    /// interval. Runs at the head of every parked retry and after every
    /// zero-retirement clock advance, so recovery (which re-runs the
    /// retry pass at startup) sheds at exactly the instants the live
    /// run did. No-op without the plane.
    fn shed_aged(&mut self) {
        let mut index = 0;
        while index < self.parked.len() {
            let aged = match (self.plane.as_ref(), self.parked.get(index)) {
                (Some(plane), Some(entry)) => plane.queue_aged(entry.parked_at.0),
                _ => return,
            };
            if !aged {
                index += 1;
                continue;
            }
            let Some(entry) = self.parked.remove(index) else {
                return;
            };
            self.counters.parked_depth.set(self.parked.len() as i64);
            self.shed(entry.ticket, &entry.view, ShedReason::QueueAged);
        }
    }

    /// Journal a shed decision (dropped entirely when telemetry is off).
    fn shed_event(&self, ticket: u64, view: &RequestView, reason: ShedReason) {
        let reason = match reason {
            ShedReason::AdmissionFull => "admission full",
            ShedReason::WaitQueueFull => "wait queue full",
            ShedReason::Unplaceable => "unplaceable",
            ShedReason::ShardFailure => "shard failure",
            ShedReason::StorageDegraded => "storage degraded",
            ShedReason::QueueAged => "queue aged",
            ShedReason::BrownoutClass => "brownout class",
        };
        self.config.telemetry.event(
            self.now.0,
            "service",
            Severity::Warn,
            "request shed",
            vec![
                ("ticket", ticket.to_string()),
                ("job", view.id.to_string()),
                ("vms", view.vm_count.to_string()),
                ("reason", reason.to_string()),
            ],
        );
    }

    /// Run one consolidation sweep if the virtual clock has crossed
    /// into a new epoch. The sweep plans over the fleet, journals the
    /// full move list *before* moving anything — the frame, not the
    /// re-planned sweep, is the replay authority — then executes each
    /// move as a drain/inject pair, charging the moved VM its pre-copy
    /// stall by pushing its finish instant out.
    fn maybe_consolidate(&mut self) {
        let Some(cfg) = self.config.consolidation.clone() else {
            return;
        };
        let epoch = cfg.epoch_of(self.now);
        let last = self.counters.consolidation_epoch.get();
        if epoch <= last {
            return;
        }
        self.counters.consolidation_epoch.add(epoch - last);
        self.hysteresis.begin_sweep();
        let hosts: Vec<HostLoad> = self
            .fleet
            .mixes()
            .map(|mix| HostLoad {
                mix,
                available: true,
            })
            .collect();
        // The loop's richer guard is the per-server OS bound; the
        // per-receiver capacity bound lives in the config itself.
        let bound = self.fleet.max_mix();
        let plan = plan_moves(&hosts, &cfg, &self.hysteresis, |_, mix| {
            mix.fits_within(&bound)
        });
        let cost = cfg.model.cost();
        if !self.journal_append(&WalRecord::Migrate {
            epoch,
            t: self.now.0,
            stall: cost.stall.0,
            moves: plan
                .moves
                .iter()
                .map(|m| MoveRec {
                    from: m.from as u32,
                    to: m.to as u32,
                    ty: m.ty.index() as u8,
                })
                .collect(),
        }) {
            // Journal-before-execute: an unjournaled sweep would be
            // invisible to recovery, so its moves must never touch the
            // fleet.
            return;
        }
        let mut executed = 0u64;
        for m in &plan.moves {
            if self.execute_move(m, cost.stall) {
                executed += 1;
            }
        }
        let mixes: Vec<MixVector> = self.fleet.mixes().collect();
        let drained = plan
            .emptied
            .iter()
            .filter(|&&h| mixes.get(h).is_some_and(MixVector::is_empty))
            .count() as u64;
        self.hysteresis.commit(&plan, cfg.hysteresis_sweeps);
        self.counters.consolidation_sweeps.add(1);
        self.counters.consolidation_migrations.add(executed);
        self.counters.consolidation_hosts_drained.add(drained);
        if executed > 0 {
            self.config.telemetry.event(
                self.now.0,
                "service",
                Severity::Info,
                "consolidation sweep",
                vec![
                    ("epoch", epoch.to_string()),
                    ("migrations", executed.to_string()),
                    ("hosts_drained", drained.to_string()),
                ],
            );
        }
    }

    /// Execute one planned migration: drain the VM off its donor
    /// (learning its finish instant) and land it on the receiver with
    /// the finish pushed out by `stall`. A failed drain skips the move;
    /// a failed landing puts the VM back on its donor.
    fn execute_move(&mut self, m: &eavm_migrate::Move, stall: Seconds) -> bool {
        let from = ServerId::from(m.from);
        let to = ServerId::from(m.to);
        let Some(finish) = self.fleet.drain_vm(from, m.ty) else {
            return false;
        };
        if self.fleet.inject_vm(to, m.ty, finish + stall) {
            return true;
        }
        self.fleet.inject_vm(from, m.ty, finish);
        false
    }

    /// Write a checkpoint when the journal's cadence says one is due.
    /// Runs only between messages (no request mid-flight). A failure
    /// skips this checkpoint rather than stopping the loop: the WAL
    /// alone is always sufficient for recovery.
    fn maybe_checkpoint(&mut self) {
        if !self.journal.as_ref().is_some_and(Journal::checkpoint_due) {
            return;
        }
        let snapshot = SnapshotRec {
            // seq / wal_frames / cache_generation are stamped by the
            // journal at write time.
            seq: 0,
            wal_frames: 0,
            cache_generation: 0,
            now: self.now.0,
            next_ticket: self.ticket_watermark,
            shards: vec![dump_to_snap(&self.fleet.dump())],
            parked: self
                .parked
                .iter()
                .map(|p| {
                    (
                        p.ticket,
                        parked_to_rec(&p.view, p.submit, p.priority),
                        p.parked_at.0,
                    )
                })
                .collect(),
            counters: {
                // Nonzero hysteresis cooldowns ride along as reserved
                // counter names; recovery strips them back out before
                // seeding the real counters.
                let mut values = self.counters.values();
                for (host, c) in self.hysteresis.cooldowns().iter().enumerate() {
                    if *c > 0 {
                        values.push((format!("consolidation_cooldown_{host}"), u64::from(*c)));
                    }
                }
                // Overload-plane scalars ride along the same way; the
                // plane itself is *re-derived* from the WAL tail, this
                // merely seeds the snapshot baseline.
                if let Some(plane) = self.plane.as_ref() {
                    plane.save(&mut values);
                }
                values
            },
        };
        if let Some(journal) = self.journal.as_mut() {
            if let Err(err) = journal.write_checkpoint(snapshot) {
                let message = if journal.snapshots_disabled() {
                    "checkpoint retry budget exhausted; snapshots disabled, WAL-only from here"
                } else {
                    "checkpoint write failed; continuing on WAL alone"
                };
                self.config.telemetry.event(
                    self.now.0,
                    "service",
                    Severity::Warn,
                    message,
                    vec![("error", err.to_string())],
                );
            }
        }
    }

    /// Advance the virtual clock to `t`, journaled, retiring finished
    /// VMs. Returns the number retired.
    fn advance(&mut self, t: Seconds) -> usize {
        self.now = self.now.max(t);
        // Clock advances are journaled so recovery retires resident VMs
        // at exactly the instants the live run did. A failed append is
        // tolerable here — retirement is monotone with virtual time, so
        // replaying without this frame can only retire the same VMs a
        // little later — and the degraded flag it sets sheds everything
        // that could have observed the difference.
        if self.journal_append(&WalRecord::Clock { t: t.0 }) {
            if let Some(plane) = self.plane.as_mut() {
                plane.on_clock(t.0);
            }
        }
        self.fleet.advance_to(t)
    }

    /// FIFO retry of parked requests; stops at the first one that still
    /// doesn't fit (head-of-line blocking mirrors the simulator queue).
    fn retry_parked(&mut self) {
        self.shed_aged();
        while let Some(view) = self.parked.front().map(|p| p.view) {
            let placements = if self.fleet.capacity_feasible(&view) {
                self.fleet.search(&view)
            } else {
                None
            };
            let Some(placements) = placements else {
                return;
            };
            let Some(head) = self.parked.pop_front() else {
                return;
            };
            self.counters.parked_depth.set(self.parked.len() as i64);
            let admitted = Verdict::AdmittedCrossShard {
                shards: vec![0],
                placements: placements.clone(),
            };
            if self.verdict(head.ticket, admitted) {
                self.fleet.commit(&placements);
                self.counters.admitted_cross_shard.add(1);
                self.counters.admitted_after_wait.add(1);
            }
        }
    }

    fn drain(&mut self) -> DrainReport {
        let mut report = DrainReport {
            advanced_to: self.now,
            ..DrainReport::default()
        };
        report.retired += self.advance(self.now);
        loop {
            self.retry_parked();
            if self.parked.is_empty() {
                break;
            }
            match self.fleet.next_finish() {
                Some(finish) => {
                    report.retired += self.advance(finish);
                    report.advanced_to = self.now;
                }
                None => {
                    // Fleet fully drained and the head still does not
                    // fit: it (and anything behind it) never will.
                    while let Some(head) = self.parked.pop_front() {
                        if self.shed(head.ticket, &head.view, ShedReason::Unplaceable) {
                            report.shed_unplaceable += 1;
                        }
                    }
                    self.counters.parked_depth.set(0);
                    break;
                }
            }
        }
        report
    }

    fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.get(),
            shed_admission: c.shed_admission.get(),
            shed_wait_queue: c.shed_wait_queue.get(),
            shed_unplaceable: c.shed_unplaceable.get(),
            shed_shard_failure: c.shed_shard_failure.get(),
            shed_storage_degraded: c.shed_storage_degraded.get(),
            shed_queue_aged: c.shed_queue_aged.get(),
            shed_brownout_class: c.shed_brownout_class.get(),
            admitted_local: c.admitted_local.get(),
            admitted_cross_shard: c.admitted_cross_shard.get(),
            admitted_after_wait: c.admitted_after_wait.get(),
            parked: self.parked.len() as u64,
            model_fallbacks: self.fleet.model_fallbacks(),
            cache: self.fleet.cache_stats(),
            virtual_now: self.now,
            resident_vms: self.fleet.resident_vms(),
            estimated_energy: self.fleet.estimated_energy(),
            admission_latency_us: c.admission_latency.snapshot(),
            durability: c.durability.stats(),
            consolidation_sweeps: c.consolidation_sweeps.get(),
            consolidation_migrations: c.consolidation_migrations.get(),
            consolidation_hosts_drained: c.consolidation_hosts_drained.get(),
            submitted_class: std::array::from_fn(|i| c.submitted_class[i].get()),
            admitted_class: std::array::from_fn(|i| c.admitted_class[i].get()),
            overload: self.plane.as_ref().map(OverloadPlane::snapshot),
        }
    }
}

/// Summary returned by [`replay_online`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Final service counters.
    pub stats: ServiceStats,
    /// Every `(ticket, verdict)` pair, stably ordered by ticket.
    pub verdicts: Vec<(u64, Verdict)>,
    /// VM requests fed to the service.
    pub requests: usize,
    /// Total VMs across those requests.
    pub vms: u64,
}

/// Feed a (submit-sorted) trace through a live service with blocking
/// backpressure, then drain and shut down. Virtual time rides along
/// with each request, so the submitter never waits on a decision.
pub fn replay_online(
    db: &ModelDatabase,
    config: ServiceConfig,
    requests: &[VmRequest],
) -> Result<ReplayReport, EavmError> {
    let service = AllocService::start(db.clone(), config)?;
    for request in requests {
        service.submit(request.clone());
    }
    service.drain()?;
    let mut verdicts = service.poll_verdicts();
    let stats = service.shutdown()?;
    verdicts.sort_by_key(|(ticket, _)| *ticket);
    Ok(ReplayReport {
        stats,
        verdicts,
        requests: requests.len(),
        vms: requests.iter().map(|r| r.vm_count as u64).sum(),
    })
}

/// Submit `requests` one at a time, waiting after each until the
/// service has decided it and acked the verdict. The verdicts are the
/// same as for any other driving mode; pacing only bounds each
/// request's queueing, so the round trip is its ack latency.
pub fn drive_paced(service: &AllocService, requests: &[VmRequest]) -> Result<(), EavmError> {
    for request in requests {
        service.submit(request.clone());
        service.stats()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;
    use eavm_types::{JobId, WorkloadType};

    fn db() -> ModelDatabase {
        DbBuilder::exact().build().expect("db")
    }

    fn request(id: u32, submit: f64, ty: WorkloadType, vms: u32) -> VmRequest {
        VmRequest {
            id: JobId::new(id),
            submit: Seconds(submit),
            workload: ty,
            vm_count: vms,
            deadline: Seconds(6000.0),
            priority: Priority::Standard,
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        for config in [
            ServiceConfig::new(0, 4),
            ServiceConfig::new(2, 4),
            ServiceConfig::new(1, 0),
        ] {
            let err = AllocService::start(db(), config).err().expect("rejected");
            assert!(matches!(err, EavmError::InvalidConfig(_)), "{err}");
        }
        let mut journaled = ServiceConfig::new(8, 4);
        journaled.durability = Some(DurabilityConfig::new(tmp("shards")));
        assert!(matches!(
            AllocService::recover(db(), journaled).err(),
            Some(EavmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn admits_on_arrival_on_an_empty_fleet() {
        let service = AllocService::start(db(), ServiceConfig::new(1, 6)).expect("start");
        service.advance_to(Seconds(0.0)).expect("advance");
        let t0 = service.submit(request(0, 0.0, WorkloadType::Cpu, 2));
        let t1 = service.submit(request(1, 0.0, WorkloadType::Io, 1));
        // Stats is a synchronous rendezvous: the submissions above are
        // fully processed once it returns.
        let stats = service.stats().expect("stats");
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.admitted_local, 2);
        assert_eq!(stats.resident_vms, 3);
        assert!(stats.estimated_energy.0 > 0.0);
        let verdicts = service.poll_verdicts();
        assert_eq!(verdicts.len(), 2);
        for (ticket, v) in verdicts {
            assert!(ticket == t0 || ticket == t1);
            assert!(matches!(v, Verdict::Admitted { shard: 0, .. }), "got {v:?}");
        }
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn request_larger_than_one_server_spans_servers_on_arrival() {
        let mut config = ServiceConfig::new(1, 2);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        let service = AllocService::start(db(), config).expect("start");
        // Mem bound per server is 4 in the paper's OS limits; ask for 6.
        service.submit(request(0, 0.0, WorkloadType::Mem, 6));
        let stats = service.stats().expect("stats");
        assert_eq!(stats.admitted_local, 1);
        assert_eq!(stats.resident_vms, 6);
        let verdicts = service.poll_verdicts();
        match &verdicts[0].1 {
            Verdict::Admitted { placements, .. } => {
                assert_eq!(placements.len(), 2, "got {placements:?}");
                assert_eq!(placements.iter().map(|p| p.add.total()).sum::<u32>(), 6);
            }
            other => panic!("got {other:?}"),
        }
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn saturated_fleet_parks_then_places_after_retirement() {
        let mut config = ServiceConfig::new(1, 1);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        let service = AllocService::start(db(), config).expect("start");
        // Saturate the single server's CPU bound (10).
        for i in 0..10 {
            service.submit(request(i, 0.0, WorkloadType::Cpu, 1));
        }
        let t_parked = service.submit(request(10, 0.0, WorkloadType::Cpu, 1));
        let stats = service.stats().expect("stats");
        assert_eq!(stats.parked, 1);
        let report = service.drain().expect("drain");
        assert!(report.retired > 0);
        assert_eq!(report.shed_unplaceable, 0);
        let stats = service.stats().expect("stats");
        assert_eq!(stats.parked, 0);
        assert_eq!(stats.admitted_after_wait, 1);
        let verdicts = service.poll_verdicts();
        let mine: Vec<_> = verdicts
            .iter()
            .filter(|(t, _)| *t == t_parked)
            .map(|(_, v)| v.clone())
            .collect();
        assert!(matches!(mine[0], Verdict::Queued { .. }), "got {mine:?}");
        assert!(
            matches!(&mine[1], Verdict::AdmittedCrossShard { shards, .. } if shards == &[0]),
            "got {mine:?}"
        );
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn unplaceable_request_is_shed_on_drain() {
        let mut config = ServiceConfig::new(1, 1);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        let service = AllocService::start(db(), config).expect("start");
        // 11 CPU VMs in one request exceeds the fleet-wide OS bound (10).
        let t = service.submit(request(0, 0.0, WorkloadType::Cpu, 11));
        let report = service.drain().expect("drain");
        assert_eq!(report.shed_unplaceable, 1);
        let verdicts = service.poll_verdicts();
        let shed = verdicts
            .iter()
            .any(|(ticket, v)| *ticket == t && matches!(v, Verdict::Shed { .. }));
        assert!(shed, "got {verdicts:?}");
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn consolidation_sweeps_fire_and_conserve_vms() {
        let mut config = ServiceConfig::new(1, 4);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        config.consolidation = Some(ConsolidationConfig {
            interval: Seconds(100.0),
            drain_threshold: 1,
            hysteresis_sweeps: 0,
            ..ConsolidationConfig::default()
        });
        let service = AllocService::start(db(), config).expect("start");
        for i in 0..6 {
            service.submit(request(i, 0.0, WorkloadType::ALL[(i % 3) as usize], 1));
        }
        let before = service.stats().expect("stats");
        assert_eq!(before.resident_vms, 6);
        // Crossing two epoch boundaries fires at least one sweep (the
        // epoch watermark jumps straight to epoch_of(now)).
        service.advance_to(Seconds(250.0)).expect("advance");
        let stats = service.stats().expect("stats");
        assert!(stats.consolidation_sweeps >= 1, "no sweep fired: {stats:?}");
        // Consolidation moves VMs, never creates or destroys them:
        // nothing retires this early, so residency is conserved.
        assert_eq!(stats.resident_vms, 6);
        assert!(stats.consolidation_migrations >= stats.consolidation_hosts_drained);
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn replay_places_every_vm_and_hits_the_cache() {
        let requests: Vec<VmRequest> = (0..20)
            .map(|i| {
                let ty = WorkloadType::ALL[(i % 3) as usize];
                request(i, (i as f64) * 50.0, ty, 1 + i % 3)
            })
            .collect();
        let report = replay_online(&db(), ServiceConfig::new(1, 8), &requests).expect("replay");
        assert_eq!(report.requests, 20);
        let admitted = report.stats.admitted_local + report.stats.admitted_cross_shard;
        assert_eq!(admitted + report.stats.shed_unplaceable, 20);
        assert_eq!(report.stats.shed_unplaceable, 0);
        assert!(report.stats.cache.hits > 0, "cache never hit");
        assert!(report.stats.estimated_energy.0 > 0.0);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-svc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn enospc_exhaustion_degrades_to_read_only_shedding() {
        use eavm_storage::StorageFaultConfig;
        let dir = tmp("enospc");
        let mut config = ServiceConfig::new(1, 2);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        config.durability = Some(
            DurabilityConfig::new(&dir)
                .with_checkpoint_every(1_000)
                .with_append_retries(1)
                .with_storage_faults(StorageFaultConfig::quiet(7).with_enospc_after(400)),
        );
        let service = AllocService::start(db(), config).expect("start");
        for i in 0..12 {
            service.submit(request(i, 0.0, WorkloadType::Cpu, 1));
        }
        let stats = service.stats().expect("stats");
        let verdicts = service.poll_verdicts();
        // Conservation: every ticket gets exactly one verdict — admitted
        // before the disk filled, shed with StorageDegraded after.
        assert_eq!(verdicts.len(), 12, "got {verdicts:?}");
        let shed = verdicts
            .iter()
            .filter(|(_, v)| {
                matches!(
                    v,
                    Verdict::Shed {
                        reason: ShedReason::StorageDegraded
                    }
                )
            })
            .count() as u64;
        assert!(stats.admitted_local >= 1, "nothing admitted: {stats:?}");
        assert!(shed >= 1, "nothing shed degraded: {verdicts:?}");
        assert_eq!(stats.shed_storage_degraded, shed);
        // A degraded shed never touches the fleet.
        assert_eq!(stats.resident_vms as u64, stats.admitted_local);
        assert!(
            stats.durability.append_failures >= 1,
            "{:?}",
            stats.durability
        );
        assert!(
            stats.durability.degraded_entries >= 1,
            "{:?}",
            stats.durability
        );
        assert!(
            stats.durability.storage_faults_injected >= 1,
            "{:?}",
            stats.durability
        );
        service.shutdown().expect("shutdown");
    }

    #[test]
    fn checkpoint_failures_back_off_then_fall_back_to_wal_only() {
        use eavm_storage::StorageFaultConfig;
        let dir = tmp("ckpt-fail");
        let mut config = ServiceConfig::new(1, 2);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        config.durability = Some(
            DurabilityConfig::new(&dir)
                .with_checkpoint_every(2)
                .with_checkpoint_retry_budget(1)
                .with_storage_faults(StorageFaultConfig::quiet(11).with_fail_rename(1.0)),
        );
        let service = AllocService::start(db(), config).expect("start");
        for i in 0..10 {
            service.submit(request(i, 0.0, WorkloadType::Cpu, 1));
        }
        let stats = service.stats().expect("stats");
        // Every snapshot rename fails: the journal backs off, then
        // disables snapshots — but admissions never degrade, because
        // the WAL alone still carries every decision.
        assert!(
            stats.durability.checkpoint_failures >= 2,
            "{:?}",
            stats.durability
        );
        assert_eq!(stats.durability.snapshots_written, 0);
        assert!(
            stats.durability.degraded_entries >= 1,
            "{:?}",
            stats.durability
        );
        assert_eq!(stats.shed_storage_degraded, 0);
        assert_eq!(stats.admitted_local, 10);
        service.shutdown().expect("shutdown");

        // WAL-only recovery with a clean backend reproduces the run.
        let mut clean = ServiceConfig::new(1, 2);
        clean.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        clean.durability = Some(DurabilityConfig::new(&dir));
        let (recovered, report) = AllocService::recover(db(), clean).expect("recover");
        assert_eq!(report.snapshots_loaded, 0);
        assert!(report.frames_replayed > 0);
        assert_eq!(report.resident_vms, 10);
        recovered.shutdown().expect("shutdown");
    }

    #[test]
    fn scrub_on_recover_quarantines_the_corrupt_snapshot() {
        let dir = tmp("scrub-recover");
        let mut config = ServiceConfig::new(1, 2);
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        config.durability = Some(DurabilityConfig::new(&dir).with_checkpoint_every(2));
        let service = AllocService::start(db(), config).expect("start");
        for i in 0..8 {
            service.submit(request(i, 0.0, WorkloadType::Cpu, 1));
        }
        service.shutdown().expect("shutdown");

        // Rot the newest snapshot (largest sequence sorts last).
        let newest = {
            let mut snaps: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.to_string_lossy().ends_with(".snap"))
                .collect();
            snaps.sort();
            snaps.pop().expect("no snapshot written")
        };
        let mut raw = std::fs::read(&newest).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&newest, &raw).unwrap();

        let mut clean = ServiceConfig::new(1, 2);
        clean.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        clean.durability = Some(DurabilityConfig::new(&dir).with_scrub_on_recover());
        let (recovered, report) = AllocService::recover(db(), clean).expect("recover");
        // The scrub renamed the rotten file out of the snapshot
        // namespace and recovery fell back to the older checkpoint.
        assert_eq!(report.snapshots_loaded, 1);
        assert_eq!(report.resident_vms, 8);
        let stats = recovered.stats().expect("stats");
        assert_eq!(stats.durability.snapshots_quarantined, 1);
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".quarantine"))
            .count();
        assert_eq!(quarantined, 1);
        recovered.shutdown().expect("shutdown");
    }
}
