//! `JournalScrub`: offline integrity repair for a journal directory.
//!
//! Recovery (`recover_dir`) is deliberately read-only beyond the tmp
//! sweep: it *skips* damage. The scrubber is the tool that makes the
//! damage go away, so the next recovery starts from a journal that is
//! clean by construction. One pass does four things, in order:
//!
//! 1. **Sweep** leftover checkpoint `*.tmp` files (crash debris).
//! 2. **Repair the WAL tail**: walk frames from the magic, verifying
//!    the length prefix, the CRC, *and* that the record body decodes —
//!    the file is truncated back to the last fully-valid record
//!    boundary, turning a torn or bit-rotted tail into a clean EOF.
//! 3. **Quarantine corrupt snapshots**: every `snap-*.snap` that fails
//!    magic/CRC/decode validation is renamed to `*.snap.quarantine`
//!    (kept for post-mortem, invisible to recovery), so selection falls
//!    back to the next-newest valid one.
//! 4. **Select**: report which snapshot recovery would now start from,
//!    counting "future" snapshots (coverage beyond the surviving WAL)
//!    as skipped-but-healthy — they are not corruption and are left in
//!    place.
//!
//! The whole pass is deterministic: given the same directory bytes it
//! performs the same repairs and renders the same report, which is what
//! lets CI corrupt two copies of a journal with the same fault seed and
//! `cmp` the two scrub reports.

use std::path::{Path, PathBuf};

use eavm_storage::{OsStorage, Storage};
use eavm_types::EavmError;

use crate::crc32::crc32;
use crate::record::{SnapshotRec, WalRecord};
use crate::recovery::wal_path;
use crate::snapshot::{
    list_snapshots_with, read_snapshot_with, sweep_tmp_files_with, QUARANTINE_SUFFIX,
};
use crate::wal::{FRAME_HEADER, MAX_FRAME_LEN, WAL_MAGIC};

/// What one scrub pass found and fixed. Rendered with [`render`]
/// (deterministic, file names only — never absolute paths, so reports
/// from two copies of the same journal compare byte-equal).
///
/// [`render`]: ScrubReport::render
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// A `wal.log` was present.
    pub wal_present: bool,
    /// Fully-valid records surviving in the WAL after repair.
    pub wal_records: u64,
    /// Bytes truncated off the WAL tail (0 = no repair needed).
    pub torn_bytes_truncated: u64,
    /// 1 when the tail was repaired, else 0 (kept as a counter so the
    /// service can sum it across scrubs).
    pub torn_tails_repaired: u64,
    /// Leftover checkpoint `*.tmp` files removed.
    pub tmp_swept: u64,
    /// Snapshot files examined.
    pub snapshots_checked: u64,
    /// Snapshot files that validated end-to-end.
    pub snapshots_ok: u64,
    /// File names (not paths) renamed to `.quarantine`, in the order
    /// they were examined (newest sequence first).
    pub quarantined: Vec<String>,
    /// Valid snapshots skipped because they cover more WAL frames than
    /// survive on disk — healthy files, wrong timeline.
    pub snapshots_future: u64,
    /// The snapshot sequence recovery will now start from, if any.
    pub usable_snapshot: Option<u64>,
}

impl ScrubReport {
    /// Number of snapshots moved to quarantine.
    pub fn snapshots_quarantined(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// True when the pass changed nothing: no debris, no repair, no
    /// quarantine.
    pub fn is_clean(&self) -> bool {
        self.torn_tails_repaired == 0 && self.tmp_swept == 0 && self.quarantined.is_empty()
    }

    /// Deterministic multi-line report (stable across machines and
    /// directory locations).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wal: present={} records={} torn_bytes_truncated={} torn_tails_repaired={}\n",
            self.wal_present, self.wal_records, self.torn_bytes_truncated, self.torn_tails_repaired
        ));
        out.push_str(&format!(
            "snapshots: checked={} ok={} quarantined={} future={} usable={}\n",
            self.snapshots_checked,
            self.snapshots_ok,
            self.snapshots_quarantined(),
            self.snapshots_future,
            self.usable_snapshot
                .map(|s| s.to_string())
                .unwrap_or_else(|| "none".into()),
        ));
        for name in &self.quarantined {
            out.push_str(&format!("quarantine: {name}\n"));
        }
        out.push_str(&format!("tmp_swept: {}\n", self.tmp_swept));
        out.push_str(&format!(
            "verdict: {}\n",
            if self.is_clean() { "clean" } else { "repaired" }
        ));
        out
    }
}

/// Walk the raw WAL bytes and return the byte length of the prefix
/// (including the magic) whose frames are valid *and* decode as
/// records, plus how many records that is.
fn valid_record_prefix(raw: &[u8]) -> (u64, u64) {
    let mut pos = WAL_MAGIC.len();
    let mut records = 0u64;
    loop {
        if raw.len() - pos < FRAME_HEADER {
            break;
        }
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN || raw.len() - pos - FRAME_HEADER < len {
            break;
        }
        let payload = &raw[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc || WalRecord::decode(payload).is_err() {
            break;
        }
        records += 1;
        pos += FRAME_HEADER + len;
    }
    (pos as u64, records)
}

/// Scrub a journal directory on the real filesystem.
pub fn scrub_dir(dir: &Path) -> Result<ScrubReport, EavmError> {
    scrub_dir_with(&OsStorage::new(), dir)
}

/// Scrub a journal directory through an explicit [`Storage`] backend.
pub fn scrub_dir_with(storage: &dyn Storage, dir: &Path) -> Result<ScrubReport, EavmError> {
    let mut report = ScrubReport {
        tmp_swept: sweep_tmp_files_with(storage, dir)?,
        ..ScrubReport::default()
    };

    // WAL: truncate back to the last valid, decodable record boundary.
    let path = wal_path(dir);
    if let Some(raw) = storage.try_read(&path)? {
        report.wal_present = true;
        if raw.len() < WAL_MAGIC.len() || raw[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(EavmError::Durability(format!(
                "{} is not a WAL (bad magic); refusing to scrub",
                path.display()
            )));
        }
        let (keep, records) = valid_record_prefix(&raw);
        report.wal_records = records;
        if keep < raw.len() as u64 {
            storage.truncate(&path, keep)?;
            report.torn_bytes_truncated = raw.len() as u64 - keep;
            report.torn_tails_repaired = 1;
        }
    }

    // Snapshots: quarantine anything corrupt; classify the rest.
    for (seq, path) in list_snapshots_with(storage, dir)? {
        report.snapshots_checked += 1;
        let valid =
            read_snapshot_with(storage, &path).and_then(|payload| SnapshotRec::decode(&payload));
        match valid {
            Ok(snap) => {
                report.snapshots_ok += 1;
                if snap.wal_frames <= report.wal_records {
                    if report.usable_snapshot.is_none() {
                        report.usable_snapshot = Some(seq);
                    }
                } else {
                    report.snapshots_future += 1;
                }
            }
            Err(_) => {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let quarantine = PathBuf::from(format!("{}{QUARANTINE_SUFFIX}", path.display()));
                storage.rename(&path, &quarantine)?;
                report.quarantined.push(name);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover_dir;
    use crate::snapshot::{snapshot_name, write_snapshot};
    use crate::wal::Wal;
    use eavm_swf::{Priority, VmRequest};
    use eavm_types::{JobId, Seconds, WorkloadType};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-scrub-{}-{name}", std::process::id()));
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

    fn snapshot_rec(seq: u64, wal_frames: u64) -> SnapshotRec {
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

    fn seeded_dir(name: &str) -> PathBuf {
        let dir = tmp(name);
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        for t in 0..6 {
            wal.append(&submit(t).encode()).unwrap();
        }
        write_snapshot(&dir, 1, &snapshot_rec(1, 2).encode()).unwrap();
        write_snapshot(&dir, 2, &snapshot_rec(2, 4).encode()).unwrap();
        dir
    }

    #[test]
    fn clean_journal_scrubs_clean() {
        let dir = seeded_dir("clean");
        let report = scrub_dir(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.wal_records, 6);
        assert_eq!(report.snapshots_ok, 2);
        assert_eq!(report.usable_snapshot, Some(2));
        assert!(report.render().contains("verdict: clean"));
    }

    #[test]
    fn torn_tail_is_truncated_to_a_record_boundary() {
        let dir = seeded_dir("torn");
        let path = wal_path(&dir);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xAB; 11]);
        std::fs::write(&path, &raw).unwrap();

        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.torn_tails_repaired, 1);
        assert_eq!(report.torn_bytes_truncated, 11);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // Idempotent: a second pass finds nothing to do.
        assert!(scrub_dir(&dir).unwrap().is_clean());
    }

    #[test]
    fn undecodable_record_is_also_truncated() {
        let dir = tmp("badrec");
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(&submit(0).encode()).unwrap();
        let keep = wal.bytes();
        wal.append(&[250, 1, 2, 3]).unwrap(); // valid frame, bogus record
        drop(wal);
        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.wal_records, 1);
        assert_eq!(report.torn_tails_repaired, 1);
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), keep);
        assert_eq!(recover_dir(&dir).unwrap().torn_frames_dropped, 0);
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_with_fallback() {
        let dir = seeded_dir("quarantine");
        let newest = dir.join(snapshot_name(2));
        let mut raw = std::fs::read(&newest).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&newest, &raw).unwrap();

        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.quarantined, vec![format!("{}", snapshot_name(2))]);
        assert_eq!(report.usable_snapshot, Some(1));
        assert!(!newest.exists());
        assert!(PathBuf::from(format!("{}{QUARANTINE_SUFFIX}", newest.display())).exists());
        // Recovery after the scrub starts from the surviving snapshot.
        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.snapshot.as_ref().unwrap().seq, 1);
        assert_eq!(state.snapshots_skipped, 0);
    }

    #[test]
    fn future_snapshot_is_skipped_not_quarantined() {
        let dir = seeded_dir("future");
        // Truncate the WAL to fewer frames than snapshot 2 covers.
        let raw = std::fs::read(wal_path(&dir)).unwrap();
        let (keep, _) = {
            // Keep magic + 3 records by re-scanning 3 frames.
            let mut pos = WAL_MAGIC.len();
            for _ in 0..3 {
                let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_HEADER + len;
            }
            (pos, ())
        };
        std::fs::write(wal_path(&dir), &raw[..keep]).unwrap();

        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.snapshots_future, 1);
        assert_eq!(report.usable_snapshot, Some(1));
        assert!(report.quarantined.is_empty());
        assert!(dir.join(snapshot_name(2)).exists(), "healthy file stays");
    }

    #[test]
    fn report_renders_deterministically() {
        let a = scrub_dir(&seeded_dir("render-a")).unwrap();
        let b = scrub_dir(&seeded_dir("render-b")).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(!a.render().contains('/'), "no paths in the report");
    }
}
