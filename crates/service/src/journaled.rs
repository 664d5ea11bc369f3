//! Journal-before-ack as a type (rule W1).
//!
//! A client may observe a verdict, and a consolidation move may touch
//! the fleet, only after the matching WAL record was appended: anything
//! acked or moved first could be lost to a crash that recovery never
//! sees. [`Journaled`] is the proof. Only [`append`] wraps a value, and
//! only once the journal took its record (a service without a journal
//! journals nothing, so there everything counts as journaled), and
//! [`recovered`] wraps the frames read back from a WAL. The ack sender
//! [`AckTx`] and the admission loop's one state transition,
//! `Admission::apply`, accept nothing else, so acking or applying a
//! decision without its record is a compile error.
//!
//! The one verdict acked without a record is the storage-degraded shed:
//! it is sent precisely because nothing can be journaled any more. It
//! has its own sender, [`AckTx::send_storage_degraded_shed`], which can
//! send no other verdict.
//!
//! "Journaled" means handed to the WAL, not fsynced: appends reach the
//! disk at checkpoints, at shutdown and before a scheduled crash.

use std::ops::Deref;
use std::sync::mpsc::Sender;

use eavm_durability::{RecoveredState, WalRecord};
use eavm_types::EavmError;

use crate::durable::Journal;
use crate::service::{ShedReason, Verdict};

/// A value whose WAL record has been appended. The field is private to
/// this module, so no other code can forge one.
#[must_use = "a journaled value exists to be acked or applied"]
pub(crate) struct Journaled<T>(T);

impl<T> Deref for Journaled<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Journaled<T> {
    /// Borrow the journaled value; the borrow is journaled too.
    pub(crate) fn by_ref(&self) -> Journaled<&T> {
        Journaled(&self.0)
    }
}

/// Append `record` to `journal` (if there is one) and, once it is in,
/// hand it back as journaled.
pub(crate) fn append(
    journal: Option<&mut Journal>,
    record: WalRecord,
) -> Result<Journaled<WalRecord>, EavmError> {
    if let Some(journal) = journal {
        journal.append_resilient(&record)?;
    }
    Ok(Journaled(record))
}

/// The WAL tail a recovery replays: every frame in it was read back
/// from the journal, so it is journaled by construction.
pub(crate) fn recovered(state: &RecoveredState) -> impl Iterator<Item = Journaled<&WalRecord>> {
    state.tail().iter().map(Journaled)
}

/// The sending half of the verdict stream; it acks journaled verdicts
/// only.
pub(crate) struct AckTx(Sender<(u64, Verdict)>);

impl AckTx {
    pub(crate) fn new(tx: Sender<(u64, Verdict)>) -> Self {
        AckTx(tx)
    }

    /// Ack the verdict a journaled record carries, moving it out of the
    /// record; a record without one (submit, clock, sweep) acks
    /// nothing. A dropped receiver (the client stopped listening) is not
    /// the admission loop's concern.
    pub(crate) fn send(&self, record: Journaled<WalRecord>) {
        if let WalRecord::Verdict { ticket, verdict } = record.0 {
            let _ = self.0.send((ticket, verdict));
        }
    }

    /// The storage-degraded shed for `ticket`: the ticket's final answer
    /// once the journal can take no more records.
    pub(crate) fn send_storage_degraded_shed(&self, ticket: u64) {
        let reason = ShedReason::StorageDegraded;
        let _ = self.0.send((ticket, Verdict::Shed { reason }));
    }
}
