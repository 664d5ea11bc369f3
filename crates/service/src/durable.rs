//! Durability wiring: the admission loop's handle on the write-ahead
//! log.
//!
//! `Journal` does journal-before-ack appends, the checkpoint cadence,
//! snapshot writes, and the injected [`CrashSchedule`] that aborts the
//! process after a chosen number of events became durable. The records
//! themselves carry the service's own types (`eavm-durability` owns
//! their wire format), and [`verdict_line`] — re-exported from there —
//! is the single rendering both live services and WAL replays use.
//!
//! Recovery itself needs no code of its own here: the admission loop
//! applies each recovered WAL frame through the same `Admission::apply`
//! transition it ran when it journaled the frame (`service.rs`).

use std::path::PathBuf;

pub use eavm_durability::verdict_line;
use eavm_durability::{
    prune_snapshots_with, sweep_tmp_files_with, wal_path, write_snapshot_with, RecoveredState,
    SnapshotRec, Wal, WalRecord,
};
use eavm_faults::CrashSchedule;
use eavm_storage::{FaultyStorage, OsStorage, Storage, StorageFaultConfig, StorageStats};
use eavm_telemetry::{Counter, Telemetry};
use eavm_types::{EavmError, Seconds};

/// Durability knobs hung off `ServiceConfig`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Journal directory: holds `wal.log` plus checkpoint snapshots.
    pub dir: PathBuf,
    /// Write a checkpoint snapshot every this many WAL appends (≥ 1).
    pub checkpoint_every: u64,
    /// Injected process crash after N durable journal events (testing
    /// and chaos drills only): the process aborts *after* fsyncing the
    /// triggering frame, so recovery always sees it.
    pub crash: Option<CrashSchedule>,
    /// Extra in-process retries for a failed WAL append (with a
    /// torn-tail repair between attempts) before the admission loop
    /// gives up and enters read-only degraded mode. Total attempts per record
    /// are `1 + append_retries`.
    pub append_retries: u32,
    /// Run the offline scrubber over the journal directory before
    /// recovery: repairs torn WAL tails and quarantines corrupt
    /// snapshot files instead of merely skipping them.
    pub scrub_on_recover: bool,
    /// Deterministic storage-fault injection for every journal file
    /// operation; `None` is a plain OS passthrough.
    pub storage_faults: Option<StorageFaultConfig>,
}

impl DurabilityConfig {
    /// Journal into `dir` with the default checkpoint cadence (256).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 256,
            crash: None,
            append_retries: 2,
            scrub_on_recover: false,
            storage_faults: None,
        }
    }

    /// Change the checkpoint cadence (clamped to at least 1).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Arm an injected process crash.
    pub fn with_crash(mut self, crash: CrashSchedule) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Change the per-record append retry allowance.
    pub fn with_append_retries(mut self, retries: u32) -> Self {
        self.append_retries = retries;
        self
    }

    /// Scrub (repair + quarantine) the journal directory before
    /// recovering from it.
    pub fn with_scrub_on_recover(mut self) -> Self {
        self.scrub_on_recover = true;
        self
    }

    /// Arm deterministic storage-fault injection.
    pub fn with_storage_faults(mut self, faults: StorageFaultConfig) -> Self {
        self.storage_faults = Some(faults);
        self
    }
}

/// The storage backend a [`DurabilityConfig`] asks for: the seeded
/// fault injector when faults are armed, the OS passthrough otherwise.
pub(crate) fn make_storage(cfg: &DurabilityConfig) -> Box<dyn Storage> {
    match cfg.storage_faults {
        Some(faults) if !faults.is_quiet() => Box::new(FaultyStorage::new(faults)),
        _ => Box::new(OsStorage::new()),
    }
}

/// Durability counters surfaced in `ServiceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL frames appended by this process.
    pub wal_appends: u64,
    /// Checkpoint snapshots written by this process.
    pub snapshots_written: u64,
    /// WAL frames replayed on top of the snapshot during recovery.
    pub frames_replayed: u64,
    /// Snapshots loaded during recovery (0 or 1).
    pub snapshots_loaded: u64,
    /// Torn or corrupt trailing frames dropped during recovery.
    pub torn_frames_dropped: u64,
    /// WAL appends that failed (each retry attempt counts).
    pub append_failures: u64,
    /// Checkpoint writes that failed (snapshot skipped, WAL retained).
    pub checkpoint_failures: u64,
    /// Times the service entered a degraded mode: WAL-only after a
    /// checkpoint failure, read-only after append retries ran dry.
    pub degraded_entries: u64,
    /// Torn WAL tails truncated back to a valid boundary (at open,
    /// between append retries, or by a pre-recovery scrub).
    pub torn_tails_repaired: u64,
    /// Corrupt snapshot files quarantined by a pre-recovery scrub.
    pub snapshots_quarantined: u64,
    /// Faults the storage backend injected (0 without injection).
    pub storage_faults_injected: u64,
    /// Directory fsyncs that failed after a snapshot rename (counted,
    /// never hidden: the rename itself still happened).
    pub dir_sync_failures: u64,
    /// Leftover checkpoint `*.tmp` files swept at open or recovery.
    pub tmp_swept: u64,
}

/// Live counter handles behind [`DurabilityStats`]; registry-backed
/// when telemetry is enabled, private standalone counters otherwise.
#[derive(Debug, Clone)]
pub(crate) struct DurInstruments {
    pub wal_appends: Counter,
    pub snapshots_written: Counter,
    pub frames_replayed: Counter,
    pub snapshots_loaded: Counter,
    pub torn_frames_dropped: Counter,
    pub append_failures: Counter,
    pub checkpoint_failures: Counter,
    pub degraded_entries: Counter,
    pub torn_tails_repaired: Counter,
    pub snapshots_quarantined: Counter,
    pub storage_faults_injected: Counter,
    pub dir_sync_failures: Counter,
    pub tmp_swept: Counter,
}

impl DurInstruments {
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        if telemetry.is_enabled() {
            DurInstruments {
                wal_appends: telemetry.counter("service.durability.wal_appends"),
                snapshots_written: telemetry.counter("service.durability.snapshots_written"),
                frames_replayed: telemetry.counter("service.durability.frames_replayed"),
                snapshots_loaded: telemetry.counter("service.durability.snapshots_loaded"),
                torn_frames_dropped: telemetry.counter("service.durability.torn_frames_dropped"),
                append_failures: telemetry.counter("service.durability.append_failures"),
                checkpoint_failures: telemetry.counter("service.durability.checkpoint_failures"),
                degraded_entries: telemetry.counter("service.durability.degraded_entries"),
                torn_tails_repaired: telemetry.counter("service.durability.torn_tails_repaired"),
                snapshots_quarantined: telemetry
                    .counter("service.durability.snapshots_quarantined"),
                storage_faults_injected: telemetry
                    .counter("service.durability.storage_faults_injected"),
                dir_sync_failures: telemetry.counter("service.durability.dir_sync_failures"),
                tmp_swept: telemetry.counter("service.durability.tmp_swept"),
            }
        } else {
            DurInstruments {
                wal_appends: Counter::standalone(),
                snapshots_written: Counter::standalone(),
                frames_replayed: Counter::standalone(),
                snapshots_loaded: Counter::standalone(),
                torn_frames_dropped: Counter::standalone(),
                append_failures: Counter::standalone(),
                checkpoint_failures: Counter::standalone(),
                degraded_entries: Counter::standalone(),
                torn_tails_repaired: Counter::standalone(),
                snapshots_quarantined: Counter::standalone(),
                storage_faults_injected: Counter::standalone(),
                dir_sync_failures: Counter::standalone(),
                tmp_swept: Counter::standalone(),
            }
        }
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_appends: self.wal_appends.get(),
            snapshots_written: self.snapshots_written.get(),
            frames_replayed: self.frames_replayed.get(),
            snapshots_loaded: self.snapshots_loaded.get(),
            torn_frames_dropped: self.torn_frames_dropped.get(),
            append_failures: self.append_failures.get(),
            checkpoint_failures: self.checkpoint_failures.get(),
            degraded_entries: self.degraded_entries.get(),
            torn_tails_repaired: self.torn_tails_repaired.get(),
            snapshots_quarantined: self.snapshots_quarantined.get(),
            storage_faults_injected: self.storage_faults_injected.get(),
            dir_sync_failures: self.dir_sync_failures.get(),
            tmp_swept: self.tmp_swept.get(),
        }
    }
}

/// Checkpoint files kept per journal directory (newest N).
const SNAPSHOTS_KEPT: usize = 2;

/// Consecutive checkpoint failures tolerated — each widening the
/// cadence with a doubling backoff — before snapshots are disabled for
/// the rest of the process (WAL-only mode).
const CHECKPOINT_RETRY_BUDGET: u32 = 3;

/// The admission loop's write side of the journal.
pub(crate) struct Journal {
    storage: Box<dyn Storage>,
    wal: Wal,
    dir: PathBuf,
    checkpoint_every: u64,
    /// Appends before the next checkpoint attempt; equals
    /// `checkpoint_every` when healthy, doubles per consecutive failure
    /// (capped) so a sick disk is not hammered every cadence.
    checkpoint_wait: u64,
    since_checkpoint: u64,
    checkpoint_failure_streak: u32,
    /// Cleared after [`CHECKPOINT_RETRY_BUDGET`] consecutive failures:
    /// WAL-only for the rest of the process.
    snapshots_enabled: bool,
    append_retries: u32,
    next_seq: u64,
    /// Frames appended by *this process* — the crash schedule counts
    /// these, not the historical frames a recovered WAL already held.
    appended: u64,
    crash: Option<CrashSchedule>,
    /// Backend counters already published to the instruments; the delta
    /// since this baseline is what each publish adds.
    published: StorageStats,
    instruments: DurInstruments,
}

impl Journal {
    /// Open (or create) the journal under `cfg.dir`. A fresh start
    /// (`state == None`) on a directory that already holds WAL frames is
    /// refused: silently appending a second history onto the first would
    /// make the log unrecoverable — the caller must recover instead.
    pub(crate) fn open(
        cfg: &DurabilityConfig,
        state: Option<&RecoveredState>,
        instruments: &DurInstruments,
    ) -> Result<Journal, EavmError> {
        let storage = make_storage(cfg);
        storage.create_dir_all(&cfg.dir)?;
        let swept = sweep_tmp_files_with(storage.as_ref(), &cfg.dir)?;
        instruments.tmp_swept.add(swept);
        let (wal, _torn) = Wal::open_with(storage.as_ref(), &wal_path(&cfg.dir))?;
        if wal.torn_bytes_dropped() > 0 {
            instruments.torn_tails_repaired.add(1);
        }
        if state.is_none() && wal.frames() > 0 {
            return Err(EavmError::InvalidConfig(format!(
                "journal directory {} already holds {} WAL frames; recover instead of starting fresh",
                cfg.dir.display(),
                wal.frames()
            )));
        }
        let snapshot = state.and_then(|s| s.snapshot.as_ref());
        let next_seq = snapshot.map_or(1, |s| s.seq + 1);
        // The frames past the loaded snapshot (every frame without one)
        // already count toward the next checkpoint, so a recovered
        // process checkpoints at the frame the uncrashed one would have.
        let since_checkpoint = wal
            .frames()
            .saturating_sub(snapshot.map_or(0, |s| s.wal_frames));
        let mut journal = Journal {
            storage,
            wal,
            dir: cfg.dir.clone(),
            checkpoint_every: cfg.checkpoint_every.max(1),
            checkpoint_wait: cfg.checkpoint_every.max(1),
            since_checkpoint,
            checkpoint_failure_streak: 0,
            snapshots_enabled: true,
            append_retries: cfg.append_retries,
            next_seq,
            appended: 0,
            crash: cfg.crash,
            published: StorageStats::default(),
            instruments: instruments.clone(),
        };
        journal.publish_storage();
        Ok(journal)
    }

    /// Fold the storage backend's fault/failure counters into the live
    /// instruments (delta since the last publish).
    fn publish_storage(&mut self) {
        let stats = self.storage.stats();
        self.instruments.storage_faults_injected.add(
            stats
                .faults_injected
                .saturating_sub(self.published.faults_injected),
        );
        self.instruments.dir_sync_failures.add(
            stats
                .dir_sync_failures
                .saturating_sub(self.published.dir_sync_failures),
        );
        self.published = stats;
    }

    /// Append one record (journal-before-ack: the caller sends the
    /// matching verdict only after this returns). When an injected
    /// crash schedule fires, the triggering frame is fsynced first and
    /// the process aborts — recovery must always see the frame whose
    /// ack may or may not have escaped.
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), EavmError> {
        self.wal.append(&record.encode())?;
        self.instruments.wal_appends.add(1);
        self.since_checkpoint += 1;
        self.appended += 1;
        if let Some(crash) = &self.crash {
            if crash.should_crash(self.appended) {
                let _ = self.wal.sync();
                std::process::abort();
            }
        }
        Ok(())
    }

    /// [`Journal::append`] with a bounded retry loop. A failed append
    /// may leave a torn frame prefix on disk, and a retry blindly
    /// appended after it would sit unreachable behind the tear — so the
    /// WAL is reopened (which truncates back to the valid boundary)
    /// between attempts. Exhausting the retries surfaces the last error;
    /// the caller decides whether that means degraded mode.
    pub(crate) fn append_resilient(&mut self, record: &WalRecord) -> Result<(), EavmError> {
        let mut attempts = 0u32;
        loop {
            match self.append(record) {
                Ok(()) => {
                    self.publish_storage();
                    return Ok(());
                }
                Err(err) => {
                    self.instruments.append_failures.add(1);
                    attempts += 1;
                    if attempts > self.append_retries || self.reopen_wal().is_err() {
                        self.publish_storage();
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Reopen the WAL in place, truncating any torn prefix a failed
    /// append left behind.
    fn reopen_wal(&mut self) -> Result<(), EavmError> {
        let (wal, _torn) = Wal::open_with(self.storage.as_ref(), &wal_path(&self.dir))?;
        if wal.torn_bytes_dropped() > 0 {
            self.instruments.torn_tails_repaired.add(1);
        }
        self.wal = wal;
        Ok(())
    }

    pub(crate) fn checkpoint_due(&self) -> bool {
        self.snapshots_enabled && self.since_checkpoint >= self.checkpoint_wait
    }

    /// `true` once repeated checkpoint failures disabled snapshots for
    /// the rest of the process (the WAL alone still suffices to
    /// recover).
    pub(crate) fn snapshots_disabled(&self) -> bool {
        !self.snapshots_enabled
    }

    /// Write a checkpoint: fsync the WAL (the snapshot's `wal_frames`
    /// claim must never outrun durable frames), atomically publish the
    /// snapshot, prune old ones. A failure widens the cadence with a
    /// doubling backoff and — past the retry budget — disables
    /// snapshots entirely; the WAL alone always suffices to recover.
    pub(crate) fn write_checkpoint(&mut self, mut snap: SnapshotRec) -> Result<(), EavmError> {
        snap.seq = self.next_seq;
        snap.wal_frames = self.wal.frames();
        let written = self.wal.sync().and_then(|()| {
            write_snapshot_with(self.storage.as_ref(), &self.dir, snap.seq, &snap.encode())
                .map(|_| ())
        });
        match written {
            Ok(()) => {
                let _ = prune_snapshots_with(self.storage.as_ref(), &self.dir, SNAPSHOTS_KEPT);
                self.instruments.snapshots_written.add(1);
                self.since_checkpoint = 0;
                self.checkpoint_wait = self.checkpoint_every;
                self.checkpoint_failure_streak = 0;
                self.next_seq += 1;
                self.publish_storage();
                Ok(())
            }
            Err(err) => {
                self.instruments.checkpoint_failures.add(1);
                if self.checkpoint_failure_streak == 0 {
                    // First failure of a streak: the service just
                    // entered WAL-only degraded operation.
                    self.instruments.degraded_entries.add(1);
                }
                self.checkpoint_failure_streak += 1;
                self.checkpoint_wait =
                    self.checkpoint_every << self.checkpoint_failure_streak.min(4);
                self.since_checkpoint = 0;
                if self.checkpoint_failure_streak > CHECKPOINT_RETRY_BUDGET {
                    self.snapshots_enabled = false;
                }
                self.publish_storage();
                Err(err)
            }
        }
    }

    pub(crate) fn sync(&mut self) -> Result<(), EavmError> {
        self.wal.sync()
    }
}

// ---------------------------------------------------------------------
// Recovery report.

/// What [`AllocService::recover`] reports about a completed recovery.
///
/// [`AllocService::recover`]: crate::service::AllocService::recover
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Snapshots loaded (0 or 1).
    pub snapshots_loaded: u64,
    /// WAL frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Torn/corrupt trailing frames dropped.
    pub torn_frames_dropped: u64,
    /// Requests that were submitted but still undecided at the crash;
    /// the admission loop re-drives them before serving new traffic.
    pub resumed_inflight: usize,
    /// Parked wait-queue entries restored.
    pub restored_parked: usize,
    /// VMs resident after recovery.
    pub resident_vms: usize,
    /// Virtual clock after recovery.
    pub virtual_now: Seconds,
    /// Next admission ticket (strictly above every journaled one).
    pub next_ticket: u64,
    /// Every verdict already decided before the crash, reconstructed
    /// from the WAL in emission order: `(ticket, verdict_line)`.
    pub verdicts: Vec<(u64, String)>,
}

impl RecoveryReport {
    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered snapshots_loaded={} frames_replayed={} torn_frames_dropped={} \
             resumed_inflight={} restored_parked={} resident_vms={} now={:.3} next_ticket={}",
            self.snapshots_loaded,
            self.frames_replayed,
            self.torn_frames_dropped,
            self.resumed_inflight,
            self.restored_parked,
            self.resident_vms,
            self.virtual_now.0,
            self.next_ticket,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_durability::recover_dir;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-dur-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn empty_snapshot() -> SnapshotRec {
        SnapshotRec {
            seq: 0,
            wal_frames: 0,
            now: Seconds(0.0),
            next_ticket: 0,
            fleet: None,
            parked: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Appends until a checkpoint is due; returns the WAL frames then.
    fn frames_at_next_checkpoint(journal: &mut Journal) -> u64 {
        while !journal.checkpoint_due() {
            journal
                .append(&WalRecord::Clock { t: Seconds(0.0) })
                .expect("append");
        }
        journal.wal.frames()
    }

    #[test]
    fn recovered_journal_keeps_the_checkpoint_cadence() {
        let every = 5;
        let dir = tmp("cadence");
        let cfg = DurabilityConfig::new(&dir).with_checkpoint_every(every);
        let instruments = DurInstruments::new(&Telemetry::disabled());

        // Without a snapshot every frame on disk counts.
        let mut journal = Journal::open(&cfg, None, &instruments).expect("open");
        for _ in 0..3 {
            journal
                .append(&WalRecord::Clock { t: Seconds(0.0) })
                .expect("append");
        }
        drop(journal);
        let state = recover_dir(&dir).expect("recover");
        assert!(state.snapshot.is_none());
        let mut journal = Journal::open(&cfg, Some(&state), &instruments).expect("reopen");
        assert_eq!(frames_at_next_checkpoint(&mut journal), every);

        // With one, the frames past it count: the tail holds 3.
        journal
            .write_checkpoint(empty_snapshot())
            .expect("checkpoint");
        for _ in 0..3 {
            journal
                .append(&WalRecord::Clock { t: Seconds(0.0) })
                .expect("append");
        }
        drop(journal);
        let state = recover_dir(&dir).expect("recover");
        let wal_frames = state.snapshot.as_ref().expect("snapshot").wal_frames;
        assert_eq!((wal_frames, state.frames), (every, every + 3));
        let mut journal = Journal::open(&cfg, Some(&state), &instruments).expect("reopen");
        assert_eq!(frames_at_next_checkpoint(&mut journal), wal_frames + every);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
