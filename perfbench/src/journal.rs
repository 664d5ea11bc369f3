//! Per-pass journal directories and the durability-layer re-pricing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use eavm_durability::{list_snapshots, read_frames, read_snapshot, wal_path, write_snapshot, Wal};

/// A fresh directory under the run's temporary root, removed on drop —
/// also when the pass using it errors or panics.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `<root>/<tag>-<pid>-<n>`, unique within this process.
    pub fn new(root: &Path, tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Type of the filesystem holding `dir`, as `stat -f` reports it.
pub fn filesystem(dir: &Path) -> String {
    std::process::Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|fs| !fs.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The service's own journal, priced again through `eavm-durability`.
#[derive(Debug, Clone, Default)]
pub struct Repriced {
    /// WAL frames in the journal.
    pub frames: u64,
    /// WAL bytes, header included.
    pub bytes: u64,
    /// Per-frame `Wal::append` times, µs.
    pub append_us: Vec<f64>,
    /// `Wal::sync` times at the checkpoint cadence and at the end, µs.
    pub sync_us: Vec<f64>,
    /// Size of the newest snapshot file.
    pub snapshot_bytes: u64,
    /// `write_snapshot` time of the newest snapshot's payload, µs.
    pub snapshot_us: f64,
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Read the frames of the journal in `journal` and append them to a
/// fresh WAL in `into`, syncing every `cadence` appends and once at the
/// end as the service does; then rewrite the newest snapshot there.
pub fn reprice(journal: &Path, into: &Path, cadence: u64) -> Result<Repriced, String> {
    let err = |what: &str, e: eavm_types::EavmError| format!("{what}: {e}");
    let (frames, torn) = read_frames(&wal_path(journal)).map_err(|e| err("read_frames", e))?;
    if torn != 0 {
        return Err(format!("service journal has {torn} torn frame(s)"));
    }
    let (mut wal, _) = Wal::open(&wal_path(into)).map_err(|e| err("Wal::open", e))?;
    let mut out = Repriced {
        frames: frames.len() as u64,
        ..Repriced::default()
    };
    for (i, frame) in frames.iter().enumerate() {
        let t = Instant::now();
        wal.append(frame).map_err(|e| err("Wal::append", e))?;
        out.append_us.push(micros(t));
        if (i as u64 + 1).is_multiple_of(cadence) {
            let t = Instant::now();
            wal.sync().map_err(|e| err("Wal::sync", e))?;
            out.sync_us.push(micros(t));
        }
    }
    let t = Instant::now();
    wal.sync().map_err(|e| err("Wal::sync", e))?;
    out.sync_us.push(micros(t));
    out.bytes = wal.bytes();

    let snapshots = list_snapshots(journal).map_err(|e| err("list_snapshots", e))?;
    let (seq, newest) = snapshots
        .first()
        .ok_or_else(|| "service journal holds no snapshot".to_string())?;
    out.snapshot_bytes = std::fs::metadata(newest)
        .map_err(|e| format!("stat {}: {e}", newest.display()))?
        .len();
    let payload = read_snapshot(newest).map_err(|e| err("read_snapshot", e))?;
    let t = Instant::now();
    write_snapshot(into, *seq, &payload).map_err(|e| err("write_snapshot", e))?;
    out.snapshot_us = micros(t);
    Ok(out)
}
