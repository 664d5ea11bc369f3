//! Journal-directory recovery: pick the newest usable snapshot, decode
//! the WAL, and report exactly what was salvaged.
//!
//! The subtle invariant is snapshot *selection*: a checkpoint records
//! how many WAL frames it covers, and after a torn-tail truncation the
//! newest snapshot may cover more frames than the log still holds — a
//! snapshot "from the future" relative to the surviving WAL. Replaying
//! from it would skip frames that were never applied, so recovery walks
//! snapshots newest-first and takes the first one that both validates
//! (magic + CRC + decode) and satisfies `wal_frames <= frames on disk`,
//! falling back to a full-WAL replay from genesis when none qualifies.

use std::path::{Path, PathBuf};

use eavm_storage::{OsStorage, Storage};
use eavm_types::EavmError;

use crate::record::{SnapshotRec, WalRecord};
use crate::snapshot::{list_snapshots_with, read_snapshot_with, sweep_tmp_files_with};
use crate::verdict::verdict_line;
use crate::wal::read_frames_with;

/// File name of the WAL inside a journal directory.
pub const WAL_FILE: &str = "wal.log";

/// The WAL path for a journal directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Everything salvaged from a journal directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// The snapshot recovery starts from, if any usable one existed.
    pub snapshot: Option<SnapshotRec>,
    /// Every decodable WAL record, from frame zero.
    pub records: Vec<WalRecord>,
    /// Index into `records` where post-snapshot replay begins (0 when
    /// there is no snapshot).
    pub tail_start: usize,
    /// Valid frames on disk (equals `records.len()`).
    pub frames: u64,
    /// Torn/corrupt trailing frames dropped (WAL tail plus any record
    /// that framed correctly but failed to decode).
    pub torn_frames_dropped: u64,
    /// 1 when a snapshot was loaded, else 0.
    pub snapshots_loaded: u64,
    /// Snapshot files that existed but were skipped (corrupt, or
    /// covering more frames than the surviving WAL).
    pub snapshots_skipped: u64,
    /// Leftover checkpoint `*.tmp` files swept away before recovery.
    pub tmp_swept: u64,
}

impl RecoveredState {
    /// Records recovery will replay on top of the snapshot.
    pub fn tail(&self) -> &[WalRecord] {
        &self.records[self.tail_start..]
    }

    /// The verdict-log lines reconstructed from the full WAL, in
    /// append (emission) order.
    pub fn verdict_lines(&self) -> Vec<(u64, String)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Verdict { ticket, verdict } => {
                    Some((*ticket, verdict_line(*ticket, verdict)))
                }
                WalRecord::Submit { .. } | WalRecord::Clock { .. } | WalRecord::Migrate { .. } => {
                    None
                }
            })
            .collect()
    }
}

/// Recover whatever the journal directory holds. A directory with no
/// WAL and no snapshots recovers to the empty state — starting a brand
/// new service under a journal directory and recovering from it are the
/// same operation.
pub fn recover_dir(dir: &Path) -> Result<RecoveredState, EavmError> {
    recover_dir_with(&OsStorage::new(), dir)
}

/// [`recover_dir`] through an explicit [`Storage`] backend.
pub fn recover_dir_with(storage: &dyn Storage, dir: &Path) -> Result<RecoveredState, EavmError> {
    // A crash between a checkpoint's temp write and its rename strands
    // a `*.tmp` file forever; recovery is the natural sweep point.
    let tmp_swept = sweep_tmp_files_with(storage, dir)?;
    let (payloads, mut torn) = read_frames_with(storage, &wal_path(dir))?;
    let mut records = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(_) => {
                // A frame whose CRC validated but whose body does not
                // decode is corruption all the same: stop here, drop it
                // and everything after it.
                torn += 1;
                break;
            }
        }
    }
    let frames = records.len() as u64;

    let mut snapshot = None;
    let mut skipped = 0u64;
    for (_, path) in list_snapshots_with(storage, dir)? {
        match read_snapshot_with(storage, &path).and_then(|payload| SnapshotRec::decode(&payload)) {
            Ok(snap) if snap.wal_frames <= frames => {
                snapshot = Some(snap);
                break;
            }
            _ => skipped += 1,
        }
    }
    let tail_start = snapshot
        .as_ref()
        .map(|s| s.wal_frames as usize)
        .unwrap_or(0);
    Ok(RecoveredState {
        snapshots_loaded: u64::from(snapshot.is_some()),
        snapshot,
        tail_start,
        frames,
        torn_frames_dropped: torn,
        snapshots_skipped: skipped,
        tmp_swept,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use crate::wal::Wal;
    use eavm_swf::{Priority, VmRequest};
    use eavm_types::{JobId, Seconds, WorkloadType};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-rec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submit(ticket: u64) -> WalRecord {
        WalRecord::Submit {
            ticket,
            req: VmRequest {
                id: JobId(ticket as u32),
                submit: Seconds(0.0),
                workload: WorkloadType::Cpu,
                vm_count: 1,
                deadline: Seconds(100.0),
                priority: Priority::Standard,
            },
        }
    }

    fn empty_snapshot(seq: u64, wal_frames: u64) -> SnapshotRec {
        SnapshotRec {
            seq,
            wal_frames,
            now: Seconds(0.0),
            next_ticket: wal_frames,
            fleet: None,
            parked: vec![],
            counters: vec![],
        }
    }

    #[test]
    fn empty_directory_recovers_to_genesis() {
        let dir = tmp("genesis");
        let state = recover_dir(&dir).unwrap();
        assert!(state.snapshot.is_none());
        assert!(state.records.is_empty());
        assert_eq!(state.torn_frames_dropped, 0);
        assert_eq!(state.snapshots_loaded, 0);
    }

    #[test]
    fn snapshot_plus_tail_split() {
        let dir = tmp("tail");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        for t in 0..6 {
            wal.append(&submit(t).encode()).unwrap();
        }
        write_snapshot(&dir, 1, &empty_snapshot(1, 4).encode()).unwrap();

        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.frames, 6);
        assert_eq!(state.snapshots_loaded, 1);
        assert_eq!(state.tail_start, 4);
        assert_eq!(state.tail().len(), 2);
        assert!(matches!(
            state.tail()[0],
            WalRecord::Submit { ticket: 4, .. }
        ));
    }

    #[test]
    fn future_snapshot_is_skipped_after_wal_truncation() {
        let dir = tmp("future");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        for t in 0..3 {
            wal.append(&submit(t).encode()).unwrap();
        }
        // Checkpoint claims to cover 10 frames — more than the 3 that
        // survived. It must be skipped in favour of the older one.
        write_snapshot(&dir, 2, &empty_snapshot(2, 10).encode()).unwrap();
        write_snapshot(&dir, 1, &empty_snapshot(1, 2).encode()).unwrap();

        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.snapshots_skipped, 1);
        assert_eq!(state.snapshot.as_ref().unwrap().seq, 1);
        assert_eq!(state.tail_start, 2);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let dir = tmp("corrupt-snap");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(&submit(0).encode()).unwrap();
        write_snapshot(&dir, 1, &empty_snapshot(1, 1).encode()).unwrap();
        let bad = write_snapshot(&dir, 2, &empty_snapshot(2, 1).encode()).unwrap();
        let mut raw = std::fs::read(&bad).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&bad, &raw).unwrap();

        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.snapshots_skipped, 1);
        assert_eq!(state.snapshot.as_ref().unwrap().seq, 1);
    }

    #[test]
    fn leftover_checkpoint_tmp_files_are_swept() {
        let dir = tmp("tmp-sweep");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(&submit(0).encode()).unwrap();
        write_snapshot(&dir, 1, &empty_snapshot(1, 1).encode()).unwrap();
        // Debris from two crashed checkpoints.
        std::fs::write(dir.join("snap-0000000000000002.snap.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("snap-0000000000000003.snap.tmp"), b"").unwrap();

        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.tmp_swept, 2);
        assert_eq!(state.snapshots_loaded, 1);
        let leftover: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftover.is_empty(), "tmp files survived: {leftover:?}");
    }

    #[test]
    fn undecodable_record_counts_as_torn() {
        let dir = tmp("badrec");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(&submit(0).encode()).unwrap();
        wal.append(&[250, 1, 2, 3]).unwrap(); // valid frame, bogus record
        wal.append(&submit(2).encode()).unwrap();

        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.frames, 1);
        assert_eq!(state.torn_frames_dropped, 1);
        assert_eq!(state.records.len(), 1);
    }
}
