//! The client-visible answers the allocation service journals, and the
//! one function that renders them as verdict-log text.
//!
//! [`Verdict`] travels on the service's verdict stream and inside the
//! WAL's verdict frames alike, so live acks and WAL replays render
//! through the same [`verdict_line`] — which is what makes "verdict-log
//! byte equality" a meaningful crash-recovery acceptance test.

use eavm_core::Placement;
use eavm_types::WorkloadType;

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
    /// it cannot starve fresh work (requires the service's overload
    /// plane).
    QueueAged,
    /// The brownout ladder refused the request's priority class at the
    /// current pressure rung (requires the service's overload plane).
    /// `Interactive` requests are never shed for this reason.
    BrownoutClass,
}

impl ShedReason {
    /// Every reason, in wire-index order: `ALL[r.index()] == r`, which
    /// is how the WAL decoder maps a byte back to a reason.
    pub const ALL: [ShedReason; 7] = [
        ShedReason::AdmissionFull,
        ShedReason::WaitQueueFull,
        ShedReason::Unplaceable,
        ShedReason::ShardFailure,
        ShedReason::StorageDegraded,
        ShedReason::QueueAged,
        ShedReason::BrownoutClass,
    ];

    /// Stable wire index. Exhaustive on purpose: a new variant fails to
    /// compile here instead of round-tripping as garbage.
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

    /// Stable name, used by the verdict log and the shed telemetry
    /// event.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::AdmissionFull => "admission-full",
            ShedReason::WaitQueueFull => "wait-queue-full",
            ShedReason::Unplaceable => "unplaceable",
            ShedReason::ShardFailure => "shard-failure",
            ShedReason::StorageDegraded => "storage-degraded",
            ShedReason::QueueAged => "queue-aged",
            ShedReason::BrownoutClass => "brownout-class",
        }
    }

    /// Whether the overload plane's AIMD limiter cuts on this shed.
    /// Only genuine overload signals cut (a full wait queue, an aged-out
    /// entry). Brownout sheds must NOT cut: cutting on the ladder's own
    /// decisions is a positive-feedback death spiral. Read only when a
    /// journaled shed is applied, so limiter state stays a pure
    /// function of the journal.
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

/// The canonical verdict-log line for `verdict` under `ticket`.
pub fn verdict_line(ticket: u64, verdict: &Verdict) -> String {
    match verdict {
        Verdict::Admitted { shard, placements } => format!(
            "{ticket} admitted shard={shard} placements={}",
            render_placements(placements)
        ),
        Verdict::AdmittedCrossShard { shards, placements } => {
            let s: Vec<String> = shards.iter().map(usize::to_string).collect();
            format!(
                "{ticket} admitted-cross shards=[{}] placements={}",
                s.join(","),
                render_placements(placements)
            )
        }
        Verdict::Queued { depth } => format!("{ticket} queued depth={depth}"),
        Verdict::Requeued { shard } => format!("{ticket} requeued shard={shard}"),
        Verdict::Shed { reason } => format!("{ticket} shed reason={}", reason.name()),
    }
}

/// `[server:cpu/mem/io,...]`.
fn render_placements(placements: &[Placement]) -> String {
    let body: Vec<String> = placements
        .iter()
        .map(|p| {
            format!(
                "{}:{}/{}/{}",
                p.server.0,
                p.add[WorkloadType::Cpu],
                p.add[WorkloadType::Mem],
                p.add[WorkloadType::Io]
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shed_reason_has_a_stable_name() {
        let names: Vec<&str> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "admission-full",
                "wait-queue-full",
                "unplaceable",
                "shard-failure",
                "storage-degraded",
                "queue-aged",
                "brownout-class",
            ]
        );
        for (i, reason) in ShedReason::ALL.iter().enumerate() {
            assert_eq!(usize::from(reason.index()), i, "{reason:?}");
        }
        let reason = ShedReason::BrownoutClass;
        let line = verdict_line(12, &Verdict::Shed { reason });
        assert_eq!(line, "12 shed reason=brownout-class");
    }
}
