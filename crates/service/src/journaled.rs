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
//! has its own constructor, [`Journaled::storage_degraded_shed`], which
//! can build no other verdict.
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

impl<A, B> Journaled<(A, B)> {
    /// Both halves of a journaled pair were journaled together.
    pub(crate) fn split(self) -> (Journaled<A>, Journaled<B>) {
        (Journaled(self.0 .0), Journaled(self.0 .1))
    }
}

impl Journaled<(u64, Verdict)> {
    /// The storage-degraded shed for `ticket`: the ticket's final
    /// answer once the journal can take no more records.
    pub(crate) fn storage_degraded_shed(ticket: u64) -> Self {
        Journaled((
            ticket,
            Verdict::Shed {
                reason: ShedReason::StorageDegraded,
            },
        ))
    }
}

/// Append `record` to `journal` (if there is one) and, once it is in,
/// hand `value` back as journaled.
pub(crate) fn append<T>(
    journal: Option<&mut Journal>,
    record: &WalRecord,
    value: T,
) -> Result<Journaled<T>, EavmError> {
    if let Some(journal) = journal {
        journal.append_resilient(record)?;
    }
    Ok(Journaled(value))
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

    /// Ack a verdict. A dropped receiver (the client stopped listening)
    /// is not the admission loop's concern.
    pub(crate) fn send(&self, verdict: Journaled<(u64, Verdict)>) {
        let _ = self.0.send(verdict.0);
    }
}
