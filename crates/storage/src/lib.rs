//! # eavm-storage
//!
//! The storage abstraction underneath the durability plane.
//!
//! `eavm-durability` used to call `std::fs` directly, which meant its
//! only testable failure mode was clean truncation at a frame boundary.
//! This crate narrows every file operation the WAL / snapshot /
//! recovery code performs into one object-safe [`Storage`] trait with
//! two backends:
//!
//! * [`OsStorage`] — a passthrough to `std::fs` that additionally
//!   counts every operation (and every *failed* directory sync, which
//!   the snapshot writer used to discard silently) into
//!   [`StorageStats`].
//! * [`FaultyStorage`] — a seeded, SplitMix64-driven fault injector in
//!   the same discipline as `eavm-faults`: no wall clock, no OS
//!   entropy, same seed ⇒ byte-identical fault stream. It injects torn
//!   appends (a strict prefix of the write persists), single/multi-bit
//!   flips on read-back, ENOSPC once a byte budget is exhausted,
//!   dropped `sync_data`/`sync_all`, and failed renames (the snapshot
//!   temp file is left behind).
//!
//! The trait is deliberately file-level rather than handle-level
//! everywhere except appending: the WAL genuinely owns an
//! append-positioned handle across calls, so [`Storage::open_append`]
//! hands out a boxed [`StorageFile`]; everything else (whole-file
//! reads, atomic snapshot writes, truncation, rename, removal,
//! directory listing/sync) is a single call, which keeps both backends
//! small and the fault surface explicit.
//!
//! This crate depends on nothing but `std`.

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]
// C2: a codec match must name every variant, so a new record kind
// cannot be swallowed by a wildcard arm.
#![deny(clippy::wildcard_enum_match_arm)]

mod faulty;
mod os;
mod rng;

pub use faulty::{FaultyStorage, StorageFaultConfig};
pub use os::OsStorage;
pub use rng::{mix64, SplitMix64};

use std::fmt::Debug;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// An open, append-positioned file handle (the WAL's write side).
pub trait StorageFile: Send + Debug {
    /// Append `bytes` at the current end of file and flush them to the
    /// OS. On `Err` the file may hold a *prefix* of `bytes` — exactly
    /// the torn-tail shape the WAL scan is built to truncate.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Force everything appended so far onto stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// Every file operation the durability plane performs, behind one
/// object-safe trait so a seeded fault injector can stand in for the
/// real filesystem.
pub trait Storage: Send + Sync + Debug {
    /// Read a whole file; `Ok(None)` when it does not exist.
    fn try_read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Open (creating if missing) a file for appending, positioned at
    /// its current end.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Create-or-truncate `path`, write `bytes`, and `sync_data` — the
    /// snapshot temp-file write. On `Err` a partial file may remain.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Shrink a file to `len` bytes (torn-tail repair).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove one file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// File names in `dir`, **sorted** (directory iteration order is
    /// not deterministic and must never leak into replay). A missing
    /// directory is an empty listing.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// `mkdir -p`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// `sync_all` on the directory itself, making a prior rename
    /// durable. Failures are counted in [`StorageStats`] even when the
    /// caller ignores the result.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Read a whole file; a missing file is an error here.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.try_read(path)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no such file", path.display()),
            )
        })
    }

    /// Operation and fault counters accumulated so far.
    fn stats(&self) -> StorageStats;
}

/// A point-in-time copy of a backend's operation counters.
///
/// `dir_sync_failures` is the satellite fix for the old
/// `let _ = d.sync_all()` in the snapshot writer: the failure is still
/// non-fatal (the rename already happened), but it is now counted and
/// surfaced instead of discarded. `faults_injected` is zero for
/// [`OsStorage`] and counts every injected anomaly for
/// [`FaultyStorage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    pub reads: u64,
    pub appends: u64,
    pub appended_bytes: u64,
    pub writes: u64,
    pub truncates: u64,
    pub renames: u64,
    pub removes: u64,
    pub file_syncs: u64,
    pub dir_syncs: u64,
    pub dir_sync_failures: u64,
    pub faults_injected: u64,
}

/// The shared atomic counter block behind [`StorageStats`].
#[derive(Debug, Default)]
pub(crate) struct StorageCounters {
    reads: AtomicU64,
    appends: AtomicU64,
    appended_bytes: AtomicU64,
    writes: AtomicU64,
    truncates: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
    file_syncs: AtomicU64,
    dir_syncs: AtomicU64,
    dir_sync_failures: AtomicU64,
    faults_injected: AtomicU64,
}

macro_rules! bump {
    ($($name:ident),+) => {
        $(pub(crate) fn $name(&self, by: u64) {
            self.$name.fetch_add(by, Ordering::Relaxed);
        })+
    };
}

impl StorageCounters {
    bump!(
        reads,
        appends,
        appended_bytes,
        writes,
        truncates,
        renames,
        removes,
        file_syncs,
        dir_syncs,
        dir_sync_failures
    );

    pub(crate) fn snapshot(&self) -> StorageStats {
        StorageStats {
            reads: self.reads.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            truncates: self.truncates.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            file_syncs: self.file_syncs.load(Ordering::Relaxed),
            dir_syncs: self.dir_syncs.load(Ordering::Relaxed),
            dir_sync_failures: self.dir_sync_failures.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-storage-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn os_storage_round_trips_and_counts() {
        let dir = tmp("os-roundtrip");
        let s = OsStorage::new();
        assert_eq!(s.try_read(&dir.join("missing")).unwrap(), None);
        assert!(s.read(&dir.join("missing")).is_err());

        let path = dir.join("wal.log");
        let mut f = s.open_append(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(s.read(&path).unwrap(), b"hello world");

        // Reopening appends after the existing bytes.
        let mut f = s.open_append(&path).unwrap();
        f.append(b"!").unwrap();
        drop(f);
        assert_eq!(s.read(&path).unwrap(), b"hello world!");

        s.truncate(&path, 5).unwrap();
        assert_eq!(s.read(&path).unwrap(), b"hello");

        s.write_file(&dir.join("b.tmp"), b"snapshot bytes").unwrap();
        s.rename(&dir.join("b.tmp"), &dir.join("b.snap")).unwrap();
        s.sync_dir(&dir).unwrap();
        assert_eq!(s.read_dir(&dir).unwrap(), vec!["b.snap", "wal.log"]);
        s.remove_file(&dir.join("b.snap")).unwrap();
        assert_eq!(s.read_dir(&dir).unwrap(), vec!["wal.log"]);

        let stats = s.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.appended_bytes, 12);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.truncates, 1);
        assert_eq!(stats.renames, 1);
        assert_eq!(stats.removes, 1);
        assert_eq!(stats.dir_syncs, 1);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn read_dir_is_sorted_and_tolerates_missing_dirs() {
        let dir = tmp("os-readdir");
        let s = OsStorage::new();
        for name in ["c", "a", "b"] {
            s.write_file(&dir.join(name), b"x").unwrap();
        }
        assert_eq!(s.read_dir(&dir).unwrap(), vec!["a", "b", "c"]);
        assert_eq!(s.read_dir(&dir.join("nope")).unwrap(), Vec::<String>::new());
    }
}
