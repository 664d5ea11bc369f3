//! # eavm-durability
//!
//! Crash durability for the allocation service: an append-only
//! write-ahead log of admission events, periodic checkpoint snapshots,
//! and the recovery scan that stitches them back into live state.
//!
//! Design in one paragraph: the coordinator journals every admission
//! event (submit, admit, queue, requeue, shed, clock advance) as a
//! CRC32-checksummed length-prefixed frame *before* acking it, and
//! every `checkpoint_every` appends it snapshots its full placement
//! state (per-server resident VMs with bit-exact finish times, parked
//! queue, counters) to an atomically renamed snapshot file. Recovery
//! loads the newest snapshot whose coverage is consistent with the
//! surviving WAL, replays the WAL tail, truncates any torn trailing
//! frames, and hands the service enough state to resume with verdicts
//! byte-identical to the run that never crashed.
//!
//! The journal has one vocabulary, the service's own: a [`WalRecord`]
//! carries the `VmRequest`, the [`Verdict`], the consolidation `Move`s
//! or the clock instant itself, and a [`SnapshotRec`] the
//! [`FleetDump`] and the parked requests. [`Verdict`], [`ShedReason`]
//! and [`verdict_line`], the one rendering of a verdict for live acks
//! and WAL replays alike, live here too (`eavm-service` re-exports
//! them), so [`record`] is the single owner of the wire format and
//! nothing converts to or from mirror types. Below this crate sit only
//! `eavm-types`, `eavm-core`, `eavm-swf`, `eavm-migrate` and the
//! `eavm-storage` file-operation abstraction; none of them depends on
//! it. Every file access routes through an
//! [`eavm_storage::Storage`] backend, so the fault injector can drive
//! torn writes, bit rot, ENOSPC, and dropped syncs through the exact
//! production code paths; [`scrub`] is the offline repair pass that
//! truncates damaged tails and quarantines corrupt snapshots.

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]
// C2: a codec match must name every variant, so a new record kind
// cannot be swallowed by a wildcard arm.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod codec;
pub mod crc32;
pub mod record;
pub mod recovery;
pub mod scrub;
pub mod snapshot;
pub mod verdict;
pub mod wal;

pub use crc32::crc32;
pub use record::{FleetDump, SnapshotRec, WalRecord};
pub use recovery::{recover_dir, recover_dir_with, wal_path, RecoveredState, WAL_FILE};
pub use scrub::{scrub_dir, scrub_dir_with, ScrubReport};
pub use snapshot::{
    list_snapshots, list_snapshots_with, prune_snapshots, prune_snapshots_with, read_snapshot,
    read_snapshot_with, snapshot_name, sweep_tmp_files, sweep_tmp_files_with, write_snapshot,
    write_snapshot_with, QUARANTINE_SUFFIX, SNAPSHOT_MAGIC,
};
pub use verdict::{verdict_line, ShedReason, Verdict};
pub use wal::{read_frames, read_frames_with, Wal, FRAME_HEADER, MAX_FRAME_LEN, WAL_MAGIC};
