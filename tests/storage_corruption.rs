//! Property tests for the durability plane under arbitrary byte
//! corruption: whatever a hostile disk does to a journal directory —
//! bit flips, truncation, duplicated ranges, zeroed runs — recovery
//! must never panic and must never invent a verdict that was not
//! journaled, and a scrub pass must leave a directory recovery accepts.

use std::path::PathBuf;

use eavm::durability::{
    recover_dir, scrub_dir, wal_path, write_snapshot, ShedReason, SnapshotRec, Verdict, Wal,
    WalRecord,
};
use eavm::prelude::*;
use proptest::prelude::*;

/// One seeded journal: alternating submit/verdict records plus two
/// checkpoints, exactly the shape the service writes.
fn build_journal(tag: &str) -> (PathBuf, Vec<(u64, String)>) {
    let dir = std::env::temp_dir().join(format!("eavm-prop-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
    let mut frames = 0u64;
    for ticket in 0..8u64 {
        let submit = WalRecord::Submit {
            ticket,
            req: VmRequest {
                id: JobId::new(ticket as u32),
                submit: Seconds(ticket as f64),
                workload: WorkloadType::from_index((ticket % 3) as usize),
                vm_count: 1 + (ticket % 4) as u32,
                deadline: Seconds(3600.0),
                priority: Priority::from_index((ticket % 3) as usize),
            },
        };
        let verdict = if ticket % 2 == 0 {
            Verdict::Admitted {
                shard: (ticket % 2) as usize,
                placements: vec![Placement {
                    server: ServerId::from(ticket as usize),
                    add: MixVector::new(1, 0, 0),
                }],
            }
        } else {
            Verdict::Shed {
                reason: ShedReason::ALL[(ticket % 4) as usize],
            }
        };
        let verdict = WalRecord::Verdict { ticket, verdict };
        wal.append(&submit.encode()).unwrap();
        wal.append(&verdict.encode()).unwrap();
        frames += 2;
        if ticket == 3 || ticket == 6 {
            let snap = SnapshotRec {
                seq: ticket,
                wal_frames: frames,
                now: Seconds(ticket as f64),
                next_ticket: ticket + 1,
                fleet: None,
                parked: vec![],
                counters: vec![],
            };
            write_snapshot(&dir, ticket, &snap.encode()).unwrap();
        }
    }
    wal.sync().unwrap();
    let baseline = recover_dir(&dir).unwrap().verdict_lines();
    (dir, baseline)
}

/// One mutation, encoded as `(kind, a, b)` so it composes with the
/// vendored proptest's tuple strategies: 0 = bit flip at `a` (bit
/// `b % 8`), 1 = truncate to `a` bytes, 2 = duplicate `b` bytes from
/// `a` onto the tail, 3 = zero a `b`-byte run at `a`. Positions and
/// lengths wrap to the file size.
type Mutation = (usize, usize, usize);

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..4096, 1usize..256)
}

fn apply(raw: &mut Vec<u8>, (kind, a, b): Mutation) {
    if raw.is_empty() {
        return;
    }
    match kind {
        0 => {
            let pos = a % raw.len();
            raw[pos] ^= 1 << (b % 8);
        }
        1 => raw.truncate(a % (raw.len() + 1)),
        2 => {
            let from = a % raw.len();
            let end = (from + b).min(raw.len());
            let dup = raw[from..end].to_vec();
            raw.extend_from_slice(&dup);
        }
        _ => {
            let pos = a % raw.len();
            let end = (pos + b).min(raw.len());
            raw[pos..end].fill(0);
        }
    }
}

/// "Never acks absent verdicts": every line a damaged journal yields
/// must have appeared in the undamaged one.
fn assert_subset(damaged: &[(u64, String)], baseline: &[(u64, String)]) {
    for line in damaged {
        assert!(
            baseline.contains(line),
            "recovery invented a verdict: {line:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corrupt one journal file arbitrarily: `recover_dir` either
    /// returns an error or salvages a subset — never panics, never
    /// fabricates verdicts.
    #[test]
    fn recovery_survives_arbitrary_corruption(
        target in 0usize..8,
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let (dir, baseline) = build_journal("recover");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = files[target % files.len()].clone();
        let mut raw = std::fs::read(&victim).unwrap();
        for m in mutations {
            apply(&mut raw, m);
        }
        std::fs::write(&victim, &raw).unwrap();

        if let Ok(state) = recover_dir(&dir) {
            assert_subset(&state.verdict_lines(), &baseline);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scrub-then-recover: whenever the scrubber accepts the damaged
    /// directory, the repaired journal must recover cleanly, still
    /// yield only journaled verdicts, and scrub idempotently.
    #[test]
    fn scrub_makes_damage_recoverable(
        target in 0usize..8,
        m in arb_mutation(),
    ) {
        let (dir, baseline) = build_journal("scrub");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = files[target % files.len()].clone();
        let mut raw = std::fs::read(&victim).unwrap();
        apply(&mut raw, m);
        std::fs::write(&victim, &raw).unwrap();

        // The scrubber refuses only a WAL whose magic is gone; any
        // directory it accepts must then recover without error.
        if let Ok(report) = scrub_dir(&dir) {
            let state = recover_dir(&dir).expect("scrubbed journal must recover");
            assert_subset(&state.verdict_lines(), &baseline);
            prop_assert_eq!(state.frames, report.wal_records);
            let second = scrub_dir(&dir).expect("second scrub");
            prop_assert!(second.is_clean(), "scrub not idempotent: {}", second.render());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
