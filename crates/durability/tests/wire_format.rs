//! The journal's wire format, pinned byte for byte.
//!
//! The constants below are one WAL frame payload of every record tag
//! and two snapshots, encoded by the format's earlier, primitive-field
//! record types. Decoding them with today's typed records and encoding
//! the result again must give back the very same bytes: a journal
//! written before the records carried the service's own types recovers
//! unchanged, and one written now is readable by the same rules.
//!
//! The second half pins strict decoding: a frame that checksums fine
//! but names an enum index no variant claims is corruption, so
//! recovery drops it as torn and the scrubber truncates it.

use std::path::PathBuf;

use eavm_core::Placement;
use eavm_durability::{
    recover_dir, scrub_dir, verdict_line, wal_path, FleetDump, ShedReason, SnapshotRec, Verdict,
    Wal, WalRecord,
};
use eavm_migrate::Move;
use eavm_swf::{Priority, VmRequest};
use eavm_types::{JobId, Joules, MixVector, Seconds, ServerId, WorkloadType};

const SUBMIT: &str = "010300000000000000110000000000000000205e400104000000000000000094c14002";
const ADMITTED: &str = "020300000000000000000000000100000005000000000000000400000000000000";
const ADMITTED_CROSS: &str = "0304000000000000000100000000000000020000000000000002000000000000000000000006000000010000000000000001000000";
const QUEUED: &str = "04050000000000000002000000";
const REQUEUED: &str = "05060000000000000001000000";
const SHED: &str = "06070000000000000006";
const CLOCK: &str = "070000000010e1b040";
const MIGRATE: &str = "080900000000000000000000008018b540000000000080fe3f02000000030000000000000002030000000100000000";

/// One fleet record, as the service writes every checkpoint.
const SNAPSHOT: &str = "020c000000000000005401000000000000000000004061be4085030000000000000c000000000000000100000000000000000000004061be4000000000d012334102000000000000000200000000000000002040bf4002000000004094c140010000000000000001000000840300000000000037000000000000000058bb400203000000000000000070c740000000000020e8bc4002000000090000007375626d6974746564840300000000000018000000636f6e736f6c69646174696f6e5f636f6f6c646f776e5f310200000000000000";

/// Two fleet records (indices 0 and 1), as a sharded fleet wrote them.
const SNAPSHOT_TWO_RECORDS: &str = "020d000000000000006401000000000000000000004061be4086030000000000000d000000000000000200000000000000000000000058bb400000000080842e4101000000000000000100000000000000002040bf4001000000000000004061be400000000080840e4101000000010000000100000001000000004094c14002000000840300000000000037000000000000000058bb400203000000000000000070c740000000000020e8bc408503000000000000380000000000000000bcbb400001000000000000000018b5400100000000804cbd4002000000090000007375626d697474656485030000000000000f000000736865645f71756575655f616765640300000000000000";

fn bytes(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn placement(server: u32, cpu: u32, mem: u32, io: u32) -> Placement {
    Placement {
        server: ServerId(server),
        add: MixVector::new(cpu, mem, io),
    }
}

fn request(
    id: u32,
    submit: f64,
    workload: WorkloadType,
    vm_count: u32,
    deadline: f64,
    priority: Priority,
) -> VmRequest {
    VmRequest {
        id: JobId(id),
        submit: Seconds(submit),
        workload,
        vm_count,
        deadline: Seconds(deadline),
        priority,
    }
}

fn verdict(ticket: u64, verdict: Verdict) -> WalRecord {
    WalRecord::Verdict { ticket, verdict }
}

#[test]
fn every_wal_tag_decodes_and_reencodes_byte_identically() {
    let cases = [
        (
            SUBMIT,
            WalRecord::Submit {
                ticket: 3,
                req: request(
                    17,
                    120.5,
                    WorkloadType::Mem,
                    4,
                    9000.0,
                    Priority::Interactive,
                ),
            },
            None,
        ),
        (
            ADMITTED,
            verdict(
                3,
                Verdict::Admitted {
                    shard: 0,
                    placements: vec![placement(5, 0, 4, 0)],
                },
            ),
            Some("3 admitted shard=0 placements=[5:0/4/0]"),
        ),
        (
            ADMITTED_CROSS,
            verdict(
                4,
                Verdict::AdmittedCrossShard {
                    shards: vec![0],
                    placements: vec![placement(0, 2, 0, 0), placement(6, 1, 0, 1)],
                },
            ),
            Some("4 admitted-cross shards=[0] placements=[0:2/0/0,6:1/0/1]"),
        ),
        (
            QUEUED,
            verdict(5, Verdict::Queued { depth: 2 }),
            Some("5 queued depth=2"),
        ),
        (
            REQUEUED,
            verdict(6, Verdict::Requeued { shard: 1 }),
            Some("6 requeued shard=1"),
        ),
        (
            SHED,
            verdict(
                7,
                Verdict::Shed {
                    reason: ShedReason::BrownoutClass,
                },
            ),
            Some("7 shed reason=brownout-class"),
        ),
        (
            CLOCK,
            WalRecord::Clock {
                t: Seconds(4321.0625),
            },
            None,
        ),
        (
            MIGRATE,
            WalRecord::Migrate {
                epoch: 9,
                t: Seconds(5400.5),
                stall: Seconds(1.90625),
                moves: vec![
                    Move {
                        from: 3,
                        to: 0,
                        ty: WorkloadType::Io,
                    },
                    Move {
                        from: 3,
                        to: 1,
                        ty: WorkloadType::Cpu,
                    },
                ],
            },
            None,
        ),
    ];
    for (hex, want, line) in cases {
        let wire = bytes(hex);
        let record = WalRecord::decode(&wire).unwrap();
        assert_eq!(record, want, "{hex}");
        assert_eq!(record.encode(), wire, "{hex}");
        let rendered = match &record {
            WalRecord::Verdict { ticket, verdict } => Some(verdict_line(*ticket, verdict)),
            WalRecord::Submit { .. } | WalRecord::Clock { .. } | WalRecord::Migrate { .. } => None,
        };
        assert_eq!(rendered.as_deref(), line, "{hex}");
    }
}

#[test]
fn snapshot_decodes_and_reencodes_byte_identically() {
    let wire = bytes(SNAPSHOT);
    let snap = SnapshotRec::decode(&wire).unwrap();
    let want = SnapshotRec {
        seq: 12,
        wal_frames: 340,
        now: Seconds(7777.25),
        next_ticket: 901,
        fleet: Some(FleetDump {
            clock: Seconds(7777.25),
            energy: Joules(1.25e6),
            servers: vec![
                (
                    ServerId(0),
                    vec![
                        (WorkloadType::Cpu, Seconds(8000.125)),
                        (WorkloadType::Io, Seconds(9000.5)),
                    ],
                ),
                (ServerId(1), vec![]),
            ],
        }),
        parked: vec![(
            900,
            request(55, 7000.0, WorkloadType::Io, 3, 12000.0, Priority::Batch),
            Seconds(7400.125),
        )],
        counters: vec![
            ("submitted".into(), 900),
            ("consolidation_cooldown_1".into(), 2),
        ],
    };
    assert_eq!(snap, want);
    assert_eq!(snap.encode(), wire);
}

#[test]
fn a_snapshot_with_two_fleet_records_merges_into_one_fleet() {
    let snap = SnapshotRec::decode(&bytes(SNAPSHOT_TWO_RECORDS)).unwrap();
    let want = SnapshotRec {
        seq: 13,
        wal_frames: 356,
        now: Seconds(7777.25),
        next_ticket: 902,
        // Servers in record order, the latest clock, the summed energy.
        fleet: Some(FleetDump {
            clock: Seconds(7777.25),
            energy: Joules(1.25e6),
            servers: vec![
                (ServerId(0), vec![(WorkloadType::Cpu, Seconds(8000.125))]),
                (ServerId(1), vec![(WorkloadType::Mem, Seconds(9000.5))]),
            ],
        }),
        parked: vec![
            (
                900,
                request(55, 7000.0, WorkloadType::Io, 3, 12000.0, Priority::Batch),
                Seconds(7400.125),
            ),
            (
                901,
                request(56, 7100.0, WorkloadType::Cpu, 1, 5400.0, Priority::Standard),
                Seconds(7500.5),
            ),
        ],
        counters: vec![("submitted".into(), 901), ("shed_queue_aged".into(), 3)],
    };
    assert_eq!(snap, want);
    // Re-encoded, the merged fleet is one record, which reads back as
    // the same snapshot.
    assert_eq!(SnapshotRec::decode(&snap.encode()).unwrap(), want);
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eavm-wire-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `frame` with the byte at `offset` (from the end when negative)
/// replaced by `value`.
fn patched(frame: &str, offset: isize, value: u8) -> Vec<u8> {
    let mut wire = bytes(frame);
    let at = if offset < 0 {
        wire.len() - offset.unsigned_abs()
    } else {
        offset.unsigned_abs()
    };
    wire[at] = value;
    wire
}

#[test]
fn an_out_of_range_enum_index_is_a_torn_frame() {
    // Submit: tag, ticket, id and submit put the workload byte at 21;
    // priority is the last byte. Shed's reason and the last move's type
    // are the last bytes of their frames.
    let cases = [
        ("priority 7", patched(SUBMIT, -1, 7)),
        ("workload 3", patched(SUBMIT, 21, 3)),
        ("shed reason 7", patched(SHED, -1, 7)),
        ("move type 3", patched(MIGRATE, -1, 3)),
    ];
    for (what, bad) in cases {
        assert!(WalRecord::decode(&bad).is_err(), "{what} decoded");
        let dir = tmp(&what.replace(' ', "-"));
        let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(&bytes(CLOCK)).unwrap();
        let valid_len = wal.bytes();
        // The frame itself is intact: only its body is out of range.
        wal.append(&bad).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let state = recover_dir(&dir).unwrap();
        assert_eq!(
            (state.frames, state.torn_frames_dropped),
            (1, 1),
            "{what}: recovery kept the frame"
        );

        let report = scrub_dir(&dir).unwrap();
        assert_eq!(report.wal_records, 1, "{what}");
        assert_eq!(report.torn_tails_repaired, 1, "{what}");
        assert_eq!(
            std::fs::metadata(wal_path(&dir)).unwrap().len(),
            valid_len,
            "{what}: scrub left the frame in place"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
