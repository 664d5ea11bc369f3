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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use eavm_benchdb::ModelDatabase;
use eavm_core::{DbModel, OptimizationGoal, RequestView, SearchMetrics};
use eavm_faults::LookupFaults;
use eavm_overload::{OverloadConfig, OverloadPlane, OverloadSnapshot};
use eavm_swf::VmRequest;
use eavm_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Severity, Telemetry};
use eavm_types::{EavmError, Joules, MixVector, Seconds, ServerId};

use eavm_durability::{
    recover_dir_with, scrub_dir_with, RecoveredState, ScrubReport, SnapshotRec, WalRecord,
};
pub use eavm_durability::{ShedReason, Verdict};
use eavm_migrate::{plan_moves, ConsolidationConfig, HostLoad, Hysteresis, Move, MovePlan};

use crate::durable::{
    make_storage, DurInstruments, DurabilityConfig, DurabilityStats, Journal, RecoveryReport,
};
use crate::fleet::{build_strategy, Fleet};
use crate::journaled::{self, AckTx, Journaled};

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

/// Lookup counters of the allocator's [`DbModel`] table, exposed in
/// [`ServiceStats`] and by [`crate::replay_deterministic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the model's per-mix table.
    pub hits: u64,
    /// Lookups that fell through to the database itself.
    pub misses: u64,
}

impl CacheStats {
    /// The counters of `model`'s table.
    pub(crate) fn of(model: &DbModel) -> CacheStats {
        CacheStats {
            hits: model.table_hits(),
            misses: model.table_misses(),
        }
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
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
    /// The allocator's model-table counters.
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
    /// [`Priority::index`](eavm_overload::Priority::index) (Batch, Standard, Interactive).
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
        let plane = match &config.overload {
            Some(overload) => {
                let mut resolved = overload.clone().resolve(config.servers);
                // Exact zero means "breaker unarmed": the rate is user
                // config copied verbatim, and only a literal 0.0 opts into
                // mirroring the fault stream.
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
        let fleet = Fleet::new(
            config.servers,
            build_strategy(
                db_model(db, &telemetry),
                config.goal,
                config.deadlines,
                config.qos_margin,
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
        let (ctl_tx, ctl_rx) = sync_channel(config.queue_capacity);
        let (verdict_tx, verdict_rx) = channel();
        let mut admission = Admission {
            counters: Instruments::new(&telemetry, shed_admission.clone()),
            hysteresis: Hysteresis::new(config.servers),
            config,
            fleet,
            ctl_rx,
            verdict_tx: AckTx::new(verdict_tx),
            parked: VecDeque::new(),
            inflight: BTreeMap::new(),
            meta: BTreeMap::new(),
            plane,
            now: Seconds(0.0),
            journal_clock: Seconds(0.0),
            journal: None,
            ticket_watermark: 0,
            pending_sweep: false,
            resume_retired: false,
            storage_degraded: false,
        };
        let mut report = RecoveryReport::default();
        if let Some(state) = recovered.as_ref() {
            report = admission.recover(state);
            let dur = &admission.counters.durability;
            dur.frames_replayed.add(report.frames_replayed);
            dur.snapshots_loaded.add(state.snapshots_loaded);
            dur.torn_frames_dropped.add(state.torn_frames_dropped);
            dur.tmp_swept.add(state.tmp_swept);
            if let Some(report) = &scrubbed {
                dur.snapshots_quarantined
                    .add(report.snapshots_quarantined());
                dur.torn_tails_repaired.add(report.torn_tails_repaired);
                dur.tmp_swept.add(report.tmp_swept);
            }
        }
        if let Some(dcfg) = &admission.config.durability {
            admission.journal = Some(Journal::open(
                dcfg,
                recovered.as_ref(),
                &admission.counters.durability,
            )?);
        }
        let next_ticket = admission.ticket_watermark;
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

    #[expect(
        clippy::disallowed_methods,
        reason = "admission-latency stamp, gated on telemetry; the disabled path never reads a clock and no replayed state depends on it"
    )]
    fn stamp(&self) -> Option<Instant> {
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

/// The allocator's empirical model. Its table counters are registry
/// handles when telemetry is enabled, private standalone counters
/// otherwise.
fn db_model(db: ModelDatabase, telemetry: &Telemetry) -> DbModel {
    if telemetry.is_enabled() {
        DbModel::with_counters(
            db,
            telemetry.counter("service.cache.hits"),
            telemetry.counter("service.cache.misses"),
        )
    } else {
        DbModel::with_counters(db, Counter::standalone(), Counter::standalone())
    }
}

/// Partition-search counters; see [`db_model`].
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
    /// Journaled submissions by priority class
    /// ([`Priority::index`](eavm_overload::Priority::index)).
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

    /// Restore one counter value saved by a checkpoint. Names this
    /// version does not keep are ignored.
    fn seed(&self, name: &str, value: u64) {
        if let Some((_, counter)) = self.named().iter().find(|(n, _)| *n == name) {
            counter.add(value);
        }
    }

    /// The counter a journaled shed with `reason` is counted on. `None`
    /// for `AdmissionFull`: the handle sheds and counts it before
    /// anything is journaled.
    fn shed(&self, reason: ShedReason) -> Option<&Counter> {
        match reason {
            ShedReason::AdmissionFull => None,
            ShedReason::WaitQueueFull => Some(&self.shed_wait_queue),
            ShedReason::Unplaceable => Some(&self.shed_unplaceable),
            ShedReason::ShardFailure => Some(&self.shed_shard_failure),
            ShedReason::StorageDegraded => Some(&self.shed_storage_degraded),
            ShedReason::QueueAged => Some(&self.shed_queue_aged),
            ShedReason::BrownoutClass => Some(&self.shed_brownout_class),
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

/// One entry of the wait queue.
struct Parked {
    ticket: u64,
    /// The full request: its submit instant and class keep deadline
    /// arithmetic and the brownout ladder exact after recovery, and
    /// checkpoints persist it.
    request: VmRequest,
    /// Instant the request entered the wait queue; the overload plane's
    /// queue-age shedding measures sojourn from here.
    parked_at: Seconds,
}

/// The admission loop: the only owner and writer of the fleet.
struct Admission {
    config: ServiceConfig,
    fleet: Fleet,
    ctl_rx: Receiver<Ctl>,
    verdict_tx: AckTx,
    parked: VecDeque<Parked>,
    /// Submit instants of tickets that have not seen a verdict yet,
    /// recorded only when telemetry is enabled. Ordered map: cheap at
    /// this size, and keeps every loop structure free of hash-iteration
    /// order by construction.
    inflight: BTreeMap<u64, Instant>,
    /// Every ticket still awaiting its *final* verdict: the parked ones
    /// plus the one being decided. Holds what the overload plane's hooks,
    /// the class counters and a later `Queued` need at verdict time.
    meta: BTreeMap<u64, VmRequest>,
    /// The overload-control plane; `None` without
    /// `ServiceConfig::overload`. Its state changes only in
    /// [`Admission::apply`], so it is a pure function of the journal.
    plane: Option<OverloadPlane>,
    now: Seconds,
    /// The instant the journal has advanced the fleet to: the latest
    /// applied `Clock`, or submit instant an applied admission advanced
    /// to (a loaded snapshot's fleet clock to begin with). A `Clock` not
    /// past it retires nothing and cannot move the overload plane, so
    /// [`Admission::advance`] journals none.
    journal_clock: Seconds,
    counters: Instruments,
    /// Write-ahead journal; `None` without durability. Every admission
    /// event is appended *before* its verdict is acked.
    journal: Option<Journal>,
    /// Strictly above every ticket seen (or recovered); checkpoints
    /// persist it as `next_ticket`.
    ticket_watermark: u64,
    /// Anti-flapping cooldowns of the consolidation policy; checkpoints
    /// persist the nonzero entries and recovery replays journaled
    /// sweeps, so planned moves after a crash match the uncrashed run.
    hysteresis: Hysteresis,
    /// Recovery found the journal ending on a decision frame: the
    /// crashed process had finished a request, but the boundary
    /// `Migrate` frame that may have been due was lost to the crash. The
    /// live run swept before its next admission, so the recovered loop
    /// re-checks consolidation before serving new traffic. A journal
    /// that ends mid-request needs no flag: the boundary after the
    /// re-driven request re-checks at the same virtual instant.
    pending_sweep: bool,
    /// Recovery found that the crashed request retired resident VMs (a
    /// mid-request `Clock`, or an admission's advance to its submit
    /// instant) but its parked-retry pass is not in the journal. Replay
    /// already applied the retirement, so the re-driven request sees no
    /// freed capacity; the loop re-runs `advance(now)` plus the retry
    /// pass explicitly, as the tail of `admit` would have.
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

    /// The state transition of one journaled record, and the only one:
    /// the live loop decides, journals the record, applies it here and
    /// then acks, and [`Admission::recover`] applies every WAL tail
    /// frame here too. Both therefore reach the same fleet, wait queue,
    /// counters, hysteresis and overload plane by construction. Returns
    /// the VMs retired: by a `Clock`, or by an admission's advance to
    /// its submit instant.
    fn apply(&mut self, record: Journaled<&WalRecord>) -> usize {
        let mut retired = 0;
        match *record {
            WalRecord::Submit { ticket, req } => {
                self.now = self.now.max(req.submit);
                self.ticket_watermark = self.ticket_watermark.max(ticket + 1);
                self.counters.submitted.inc();
                self.counters.submitted_class[req.priority.index()].inc();
                if let Some(plane) = self.plane.as_mut() {
                    plane.on_submit(req.submit.0);
                }
                self.meta.insert(*ticket, req.clone());
            }
            WalRecord::Clock { t } => {
                self.now = self.now.max(*t);
                self.journal_clock = self.journal_clock.max(*t);
                if let Some(plane) = self.plane.as_mut() {
                    plane.on_clock(t.0);
                }
                retired = self.fleet.advance_to(*t);
            }
            WalRecord::Verdict { ticket, verdict } => {
                retired = self.apply_verdict(*ticket, verdict)
            }
            WalRecord::Migrate {
                epoch,
                t,
                stall,
                moves,
            } => self.sweep(*epoch, *t, *stall, moves),
        }
        self.counters.parked_depth.set(self.parked.len() as i64);
        retired
    }

    /// [`Admission::apply`] for a journaled verdict.
    fn apply_verdict(&mut self, ticket: u64, verdict: &Verdict) -> usize {
        let mut retired = 0;
        match verdict {
            Verdict::Admitted { placements, .. }
            | Verdict::AdmittedCrossShard { placements, .. } => {
                let request = self.meta.remove(&ticket);
                if let Some(request) = &request {
                    // The search ran on a fleet advanced to the submit
                    // instant. That advance is not journaled: live it
                    // already happened and this retires nothing; replay
                    // re-derives it here.
                    self.journal_clock = self.journal_clock.max(request.submit);
                    retired = self.fleet.advance_to(request.submit);
                }
                self.fleet.commit(placements.iter().copied());
                if matches!(verdict, Verdict::Admitted { .. }) {
                    self.counters.admitted_local.inc();
                } else {
                    self.counters.admitted_cross_shard.inc();
                }
                if self.unpark(ticket) {
                    self.counters.admitted_after_wait.inc();
                }
                if let Some(request) = request {
                    self.counters.admitted_class[request.priority.index()].inc();
                    if let Some(plane) = self.plane.as_mut() {
                        plane.on_admitted(request.submit.0, request.deadline.0);
                    }
                }
            }
            Verdict::Queued { .. } => {
                if let Some(request) = self.meta.get(&ticket) {
                    self.parked.push_back(Parked {
                        ticket,
                        request: request.clone(),
                        parked_at: self.now,
                    });
                }
            }
            // An interim verdict this version never writes.
            Verdict::Requeued { .. } => {}
            Verdict::Shed { reason } => {
                self.meta.remove(&ticket);
                self.unpark(ticket);
                if let Some(counter) = self.counters.shed(*reason) {
                    counter.inc();
                }
                if let Some(plane) = self.plane.as_mut() {
                    plane.on_shed(reason.cuts_limits());
                }
            }
        }
        retired
    }

    /// Execute a journaled consolidation sweep. The frame is the
    /// authority: exactly its moves run, never a re-planned set.
    /// Draining "the first resident of the journaled type" picks the VM
    /// the planner meant because resident vectors rebuild bit-exact, and
    /// the journaled stall delays its finish instant. A donor counts as
    /// drained when the sweep left it empty.
    fn sweep(&mut self, epoch: u64, t: Seconds, stall: Seconds, moves: &[Move]) {
        self.now = self.now.max(t);
        self.hysteresis.begin_sweep();
        let mut executed = 0u64;
        let mut donors = BTreeSet::new();
        for &Move { from, to, ty } in moves {
            if self
                .fleet
                .migrate(ServerId::from(from), ServerId::from(to), ty, stall)
            {
                executed += 1;
                donors.insert(from);
            }
        }
        let plan = MovePlan {
            moves: moves.to_vec(),
            ..MovePlan::default()
        };
        let sweeps = self
            .config
            .consolidation
            .as_ref()
            .map_or(1, |c| c.hysteresis_sweeps);
        self.hysteresis.commit(&plan, sweeps);
        let mixes: Vec<MixVector> = self.fleet.mixes().collect();
        let drained = donors
            .iter()
            .filter(|&&h| mixes.get(h).is_some_and(MixVector::is_empty))
            .count() as u64;
        let c = &self.counters;
        let last = c.consolidation_epoch.get();
        if epoch > last {
            c.consolidation_epoch.add(epoch - last);
        }
        c.consolidation_sweeps.inc();
        c.consolidation_migrations.add(executed);
        c.consolidation_hosts_drained.add(drained);
    }

    /// Drop `ticket` from the wait queue; `true` when it was parked.
    fn unpark(&mut self, ticket: u64) -> bool {
        match self.parked.iter().position(|p| p.ticket == ticket) {
            Some(index) => self.parked.remove(index).is_some(),
            None => false,
        }
    }

    /// Rebuild the crashed process's state into this fresh loop: load
    /// the newest usable snapshot, then [`Admission::apply`] every WAL
    /// tail frame — the very transitions the crashed process ran — so
    /// no search re-runs and every finish time, retirement instant and
    /// later verdict comes out bit-identical to the uncrashed run.
    fn recover(&mut self, state: &RecoveredState) -> RecoveryReport {
        if let Some(snap) = &state.snapshot {
            self.load_snapshot(snap);
        }
        for record in journaled::recovered(state) {
            let frame: &WalRecord = *record;
            // `meta` holds the parked tickets plus the one being
            // decided, so equal sizes mean no request is mid-flight.
            let idle = self.meta.len() == self.parked.len();
            let retired = self.apply(record);
            if idle && matches!(frame, WalRecord::Submit { .. } | WalRecord::Clock { .. }) {
                // A new request, or a post-decision sync (or drain /
                // AdvanceTo) made it to the journal: any retirement
                // the previous request owed its retry pass was
                // consumed or skipped, so the debt never carries.
                self.resume_retired = false;
            } else if retired > 0 {
                self.resume_retired = true;
            }
            self.pending_sweep = matches!(
                frame,
                WalRecord::Verdict { verdict, .. } if !matches!(verdict, Verdict::Requeued { .. })
            );
        }
        RecoveryReport {
            snapshots_loaded: state.snapshots_loaded,
            frames_replayed: state.tail().len() as u64,
            torn_frames_dropped: state.torn_frames_dropped,
            resumed_inflight: self.meta.len() - self.parked.len(),
            restored_parked: self.parked.len(),
            resident_vms: self.fleet.resident_vms(),
            virtual_now: self.now,
            next_ticket: self.ticket_watermark,
            verdicts: state.verdict_lines(),
        }
    }

    /// Load a checkpoint: fleet, clock, ticket watermark, wait queue and
    /// counters. Reserved counter names carry hysteresis cooldowns and
    /// overload-plane scalars instead; they never reach the real
    /// counters, and the next checkpoint re-emits them fresh.
    fn load_snapshot(&mut self, snap: &SnapshotRec) {
        self.now = snap.now;
        self.ticket_watermark = snap.next_ticket;
        if let Some(dump) = &snap.fleet {
            self.journal_clock = dump.clock;
            self.fleet.load_dump(dump);
        }
        let mut cooldowns = Vec::new();
        for (name, value) in &snap.counters {
            if let Some(host) = name
                .strip_prefix("consolidation_cooldown_")
                .and_then(|s| s.parse::<usize>().ok())
            {
                cooldowns.push((host, u32::try_from(*value).unwrap_or(u32::MAX)));
            } else if name.starts_with(OverloadPlane::COUNTER_PREFIX) {
                if let Some(plane) = self.plane.as_mut() {
                    plane.load(name, *value);
                }
            } else {
                self.counters.seed(name, *value);
            }
        }
        self.hysteresis = Hysteresis::restore(self.fleet.mixes().count(), &cooldowns);
        for (ticket, request, parked_at) in &snap.parked {
            self.meta.insert(*ticket, request.clone());
            self.parked.push_back(Parked {
                ticket: *ticket,
                request: request.clone(),
                parked_at: *parked_at,
            });
        }
        self.counters.parked_depth.set(self.parked.len() as i64);
    }

    /// Finish whatever the crashed process left half done, before any
    /// new traffic: re-drive the request it was deciding (deterministic
    /// re-execution lands it exactly where the crashed process would
    /// have), and complete a parked-retry pass or a consolidation sweep
    /// the crash cut short. A no-op on a fresh start.
    fn resume_recovered(&mut self) {
        let resume: Vec<(u64, VmRequest)> = self
            .meta
            .iter()
            .filter(|(ticket, _)| !self.parked.iter().any(|p| p.ticket == **ticket))
            .map(|(ticket, request)| (*ticket, request.clone()))
            .collect();
        let pending_sweep = std::mem::take(&mut self.pending_sweep);
        let resume_retired = std::mem::take(&mut self.resume_retired);
        if !resume.is_empty() {
            for (ticket, request) in &resume {
                self.admit(*ticket, request, true);
            }
            if resume_retired && !self.parked.is_empty() {
                // The crashed request's clock advance retired capacity,
                // so the live run followed its decision with a parked
                // retry — but replay already applied that retirement,
                // so the re-driven decision above saw zero freed
                // capacity and skipped it. Re-run the retry tail of
                // `admit`: its `Clock` (journaled only if the tail does
                // not already hold it) and the retry admissions land
                // frame-for-frame where the crashed process would have
                // put them.
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
                // (journaling the `Clock` the live run wrote).
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

    /// Append a record through the journal's resilient path and hand it
    /// back as [`Journaled`]: `Some` when the record is in the WAL (or
    /// the service journals nothing at all). Exhausted retries flip the
    /// loop into sticky read-only degradation — once here, further calls
    /// short-circuit to `None` without hammering the dead disk.
    fn journal_append(&mut self, record: WalRecord) -> Option<Journaled<WalRecord>> {
        if self.storage_degraded {
            return None;
        }
        match journaled::append(self.journal.as_mut(), record) {
            Ok(journaled) => Some(journaled),
            Err(err) => {
                self.storage_degraded = true;
                self.counters.durability.degraded_entries.inc();
                self.config.telemetry.event(
                    self.now.0,
                    "service",
                    Severity::Error,
                    "journal append failed; entering read-only degraded mode",
                    vec![("error", err.to_string())],
                );
                None
            }
        }
    }

    /// Journal a verdict, apply it, then ack it. Returns `true` when the
    /// intended verdict was acked; `false` when it could not be made
    /// durable and was downgraded to a storage-degraded shed, which is
    /// the ticket's final answer. Either way the ticket has received
    /// exactly one answer for this call.
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
        match self.journal_append(WalRecord::Verdict { ticket, verdict }) {
            Some(record) => {
                self.apply(record.by_ref());
                self.verdict_tx.send(record);
                true
            }
            None => {
                // Never journaled, so never applied: the ticket is
                // answered finally without touching the fleet or the
                // overload plane (replay will not see it either).
                self.counters.shed_storage_degraded.inc();
                self.meta.remove(&ticket);
                self.unpark(ticket);
                self.counters.parked_depth.set(self.parked.len() as i64);
                self.verdict_tx.send_storage_degraded_shed(ticket);
                false
            }
        }
    }

    /// Journal, apply and ack a shed. Returns whether it was acked.
    fn shed(&mut self, ticket: u64, view: &RequestView, reason: ShedReason) -> bool {
        self.shed_event(ticket, view, reason);
        self.verdict(ticket, Verdict::Shed { reason })
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
    /// `Submit` was already journaled by the crashed process and
    /// applied by recovery, so neither happens again.
    fn admit(&mut self, ticket: u64, request: &VmRequest, resumed: bool) {
        let view = view_of(request);
        if !resumed {
            let record = WalRecord::Submit {
                ticket,
                req: request.clone(),
            };
            match self.journal_append(record) {
                Some(submit) => {
                    self.apply(submit.by_ref());
                }
                // Counted even when degraded, so conservation holds.
                None => self.counters.submitted.inc(),
            }
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
        // Brownout ladder: under pressure, sheddable classes are
        // refused before any placement work. Applies to re-driven
        // requests too — their decision never made the journal, and the
        // recovered plane and fleet are exactly what the crashed process
        // would have judged them by.
        if OverloadPlane::sheds_class(self.brownout_rung(), request.priority) {
            self.shed(ticket, &view, ShedReason::BrownoutClass);
            return;
        }
        // The clock advance to the submit instant is not journaled:
        // applying the `Admitted` frame re-derives it (or the `Clock`
        // frame a failed search journals next covers it).
        let mut retired = self.fleet.advance_to(request.submit);
        match self.fleet.search(&view) {
            Some(placements) => {
                self.verdict(
                    ticket,
                    Verdict::Admitted {
                        shard: 0,
                        placements,
                    },
                );
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
                        self.verdict(
                            ticket,
                            Verdict::AdmittedCrossShard {
                                shards: vec![0],
                                placements,
                            },
                        );
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
    /// queue is full. Applying the durable `Queued` record parks it; an
    /// ack that degraded to a shed answered it finally instead.
    fn park_or_shed(&mut self, ticket: u64, view: RequestView) {
        if self.parked.len() >= self.config.queue_capacity {
            self.shed(ticket, &view, ShedReason::WaitQueueFull);
            return;
        }
        let depth = self.parked.len() + 1;
        self.verdict(ticket, Verdict::Queued { depth });
    }

    /// CoDel-style pass over the wait queue: shed every parked request
    /// whose sojourn exceeded the overload plane's target for a full
    /// interval. Runs at the head of every parked retry and after every
    /// zero-retirement clock advance, so recovery (which re-runs the
    /// retry pass at startup) sheds at exactly the instants the live
    /// run did. No-op without the plane.
    fn shed_aged(&mut self) {
        let mut index = 0;
        while let Some(entry) = self.parked.get(index) {
            let Some(plane) = self.plane.as_ref() else {
                return;
            };
            if !plane.queue_aged(entry.parked_at.0) {
                index += 1;
                continue;
            }
            // Applying the shed (or its degraded answer) unparks it.
            let (ticket, view) = (entry.ticket, view_of(&entry.request));
            self.shed(ticket, &view, ShedReason::QueueAged);
        }
    }

    /// Journal a shed decision (dropped entirely when telemetry is off).
    fn shed_event(&self, ticket: u64, view: &RequestView, reason: ShedReason) {
        self.config.telemetry.event(
            self.now.0,
            "service",
            Severity::Warn,
            "request shed",
            vec![
                ("ticket", ticket.to_string()),
                ("job", view.id.to_string()),
                ("vms", view.vm_count.to_string()),
                ("reason", reason.name().to_string()),
            ],
        );
    }

    /// Run one consolidation sweep if the virtual clock has crossed
    /// into a new epoch. The sweep plans over the fleet and journals the
    /// full move list *before* moving anything — the frame, not the
    /// re-planned sweep, is the replay authority — then applies it. A
    /// read-only degraded loop never sweeps: it can journal nothing.
    fn maybe_consolidate(&mut self) {
        let Some(cfg) = self.config.consolidation.clone() else {
            return;
        };
        let epoch = cfg.epoch_of(self.now);
        if self.storage_degraded || epoch <= self.counters.consolidation_epoch.get() {
            return;
        }
        // Plan against the cooldowns this sweep will see; applying the
        // journaled frame decays the real ones.
        let mut hysteresis = self.hysteresis.clone();
        hysteresis.begin_sweep();
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
        let plan = plan_moves(&hosts, &cfg, &hysteresis, |_, mix| mix.fits_within(&bound));
        let record = WalRecord::Migrate {
            epoch,
            t: self.now,
            stall: cfg.model.cost().stall,
            moves: plan.moves,
        };
        // Journal-before-execute: an unjournaled sweep would be
        // invisible to recovery, so its moves must never touch the
        // fleet.
        let Some(sweep) = self.journal_append(record) else {
            return;
        };
        let c = &self.counters;
        let before = (
            c.consolidation_migrations.get(),
            c.consolidation_hosts_drained.get(),
        );
        self.apply(sweep.by_ref());
        let c = &self.counters;
        let migrations = c.consolidation_migrations.get() - before.0;
        if migrations > 0 {
            let drained = c.consolidation_hosts_drained.get() - before.1;
            self.config.telemetry.event(
                self.now.0,
                "service",
                Severity::Info,
                "consolidation sweep",
                vec![
                    ("epoch", epoch.to_string()),
                    ("migrations", migrations.to_string()),
                    ("hosts_drained", drained.to_string()),
                ],
            );
        }
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
            // seq / wal_frames are stamped by the journal at write time.
            seq: 0,
            wal_frames: 0,
            now: self.now,
            next_ticket: self.ticket_watermark,
            fleet: Some(self.fleet.dump()),
            parked: self
                .parked
                .iter()
                .map(|p| (p.ticket, p.request.clone(), p.parked_at))
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
    /// VMs. Returns the number retired. A `t` the journal has already
    /// advanced the fleet to is a no-op: the frame would retire nothing,
    /// and journaling it anyway is how a re-driven request used to
    /// append a `Clock` its crashed run had already written.
    fn advance(&mut self, t: Seconds) -> usize {
        if t.0 <= self.journal_clock.0 {
            return 0;
        }
        // Clock advances are journaled so recovery retires resident VMs
        // at exactly the instants the live run did.
        match self.journal_append(WalRecord::Clock { t }) {
            Some(clock) => self.apply(clock.by_ref()),
            // Read-only degraded: the clock still moves, so a drain
            // ends, but nothing observes it that replay could not —
            // every later request is shed without a search.
            None => {
                self.now = self.now.max(t);
                self.fleet.advance_to(t)
            }
        }
    }

    /// FIFO retry of parked requests; stops at the first one that still
    /// doesn't fit (head-of-line blocking mirrors the simulator queue).
    /// Applying each admission (or its degraded shed) unparks the head.
    fn retry_parked(&mut self) {
        self.shed_aged();
        while let Some((ticket, view)) =
            self.parked.front().map(|p| (p.ticket, view_of(&p.request)))
        {
            let placements = if self.fleet.capacity_feasible(&view) {
                self.fleet.search(&view)
            } else {
                None
            };
            let Some(placements) = placements else {
                return;
            };
            self.verdict(
                ticket,
                Verdict::AdmittedCrossShard {
                    shards: vec![0],
                    placements,
                },
            );
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
                    while let Some((ticket, view)) =
                        self.parked.front().map(|p| (p.ticket, view_of(&p.request)))
                    {
                        if self.shed(ticket, &view, ShedReason::Unplaceable) {
                            report.shed_unplaceable += 1;
                        }
                    }
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
    use eavm_overload::Priority;
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
                .with_storage_faults(StorageFaultConfig::quiet(11).with_fail_rename(1.0)),
        );
        let service = AllocService::start(db(), config).expect("start");
        for i in 0..10 {
            service.submit(request(i, 0.0, WorkloadType::Cpu, 1));
        }
        // Pump one `Clock` frame per advance until the backoff (2, 4,
        // 8, 16 frames between attempts) exhausts the retry budget. Each
        // advance must move the clock to journal a frame; deadlines are
        // far out, so nothing retires.
        for t in 1..=16 {
            service.advance_to(Seconds(f64::from(t))).expect("advance");
        }
        let stats = service.stats().expect("stats");
        let disabled = service
            .telemetry()
            .journal()
            .events()
            .iter()
            .any(|e| e.message.contains("retry budget exhausted"));
        assert!(disabled, "snapshots were never disabled");
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
