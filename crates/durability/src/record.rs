//! The logical records framed into the WAL and snapshots.
//!
//! Records carry the service's own types — [`VmRequest`], [`Verdict`],
//! [`Move`], [`FleetDump`] — so this module is the one place that knows
//! the wire format: each type's bytes are written and read right here,
//! and nothing else converts to or from them. Every record kind has a
//! one-byte tag. Decoding an unknown tag, a short body, trailing bytes,
//! or an enum index no variant claims (a workload, priority, shed-reason
//! or move type out of range) is an [`EavmError::Durability`], so
//! recovery treats it exactly like frame corruption — stop, truncate,
//! count.

// C1: no silent `as` conversions in the wire format; use the checked
// helpers (`try_from`, `put_len`).
#![deny(clippy::as_conversions)]

use eavm_core::Placement;
use eavm_migrate::Move;
use eavm_swf::{Priority, VmRequest};
use eavm_types::{EavmError, JobId, Joules, MixVector, Seconds, ServerId, WorkloadType};

use crate::codec::{Dec, Enc};
use crate::verdict::{ShedReason, Verdict};

const TAG_SUBMIT: u8 = 1;
const TAG_ADMITTED: u8 = 2;
const TAG_ADMITTED_CROSS: u8 = 3;
const TAG_QUEUED: u8 = 4;
const TAG_REQUEUED: u8 = 5;
const TAG_SHED: u8 = 6;
const TAG_CLOCK: u8 = 7;
const TAG_MIGRATE: u8 = 8;

/// One admission event, journaled before the matching ack leaves the
/// service. `Clock` records the fleet-wide virtual clock advances so
/// recovery retires resident VMs at exactly the instants the live run
/// did.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A request entered the service under `ticket`.
    Submit { ticket: u64, req: VmRequest },
    /// The verdict `ticket` was answered with. Each [`Verdict`] variant
    /// has its own tag on the wire.
    Verdict { ticket: u64, verdict: Verdict },
    /// Fleet-wide virtual clock advance to `t`.
    Clock { t: Seconds },
    /// One consolidation sweep at epoch `epoch`, journaled *before* any
    /// move executes: the sweep's virtual instant `t`, the per-move
    /// migration stall in solo-runtime seconds, and the full move list
    /// (possibly empty — an empty sweep still durably advances the
    /// epoch watermark so recovery never re-plans it).
    Migrate {
        epoch: u64,
        t: Seconds,
        stall: Seconds,
        moves: Vec<Move>,
    },
}

/// The fleet's placement state at checkpoint time: per-server resident
/// VMs with their estimated finish instants. Finish times are persisted
/// bit-exact so a recovered fleet retires VMs at the same virtual
/// instants the crashed process would have.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDump {
    /// The fleet's virtual clock.
    pub clock: Seconds,
    /// Accumulated model-estimated dynamic energy.
    pub energy: Joules,
    pub servers: Vec<(ServerId, Vec<(WorkloadType, Seconds)>)>,
}

// v2: requests carry a priority class and parked entries persist the
// true submit instant plus the park instant (for queue-age shedding).
const SNAPSHOT_VERSION: u8 = 2;

/// A full coordinator checkpoint: everything needed to restart the
/// service without replaying the WAL prefix it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRec {
    /// Monotone checkpoint sequence number.
    pub seq: u64,
    /// WAL frames covered: recovery replays only frames `>= wal_frames`.
    pub wal_frames: u64,
    /// Coordinator virtual clock.
    pub now: Seconds,
    /// Next admission ticket to hand out.
    pub next_ticket: u64,
    /// The fleet; `None` for a snapshot that holds no fleet record.
    pub fleet: Option<FleetDump>,
    /// Parked wait-queue entries in FIFO order: ticket, the original
    /// request (true submit instant included), and the virtual instant
    /// the entry was parked (the queue-age shedding baseline).
    pub parked: Vec<(u64, VmRequest, Seconds)>,
    /// Coordinator counter values by name.
    pub counters: Vec<(String, u64)>,
}

/// The wire byte of a small enum index (every enum here has far fewer
/// than 256 variants).
fn index_byte(index: usize) -> u8 {
    u8::try_from(index).unwrap_or(u8::MAX)
}

/// The variant of `all` (listed in wire-index order) that `byte` names.
fn variant<T: Copy>(all: &[T], byte: u8, what: &str) -> Result<T, EavmError> {
    all.get(usize::from(byte))
        .copied()
        .ok_or_else(|| EavmError::Durability(format!("{what} index {byte} out of range")))
}

fn put_workload(e: &mut Enc, ty: WorkloadType) {
    e.put_u8(index_byte(ty.index()));
}

fn get_workload(d: &mut Dec) -> Result<WorkloadType, EavmError> {
    variant(&WorkloadType::ALL, d.get_u8()?, "workload")
}

fn put_request(e: &mut Enc, req: &VmRequest) {
    e.put_u32(req.id.0);
    e.put_f64(req.submit.0);
    put_workload(e, req.workload);
    e.put_u32(req.vm_count);
    e.put_f64(req.deadline.0);
    e.put_u8(index_byte(req.priority.index()));
}

fn get_request(d: &mut Dec) -> Result<VmRequest, EavmError> {
    Ok(VmRequest {
        id: JobId(d.get_u32()?),
        submit: Seconds(d.get_f64()?),
        workload: get_workload(d)?,
        vm_count: d.get_u32()?,
        deadline: Seconds(d.get_f64()?),
        priority: variant(&Priority::ALL, d.get_u8()?, "priority")?,
    })
}

fn put_placements(e: &mut Enc, placements: &[Placement]) {
    e.put_len(placements.len());
    for p in placements {
        e.put_u32(p.server.0);
        for ty in WorkloadType::ALL {
            e.put_u32(p.add[ty]);
        }
    }
}

fn get_placements(d: &mut Dec) -> Result<Vec<Placement>, EavmError> {
    let n = d.get_len()?;
    (0..n)
        .map(|_| {
            Ok(Placement {
                server: ServerId(d.get_u32()?),
                add: MixVector::new(d.get_u32()?, d.get_u32()?, d.get_u32()?),
            })
        })
        .collect()
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Submit { ticket, req } => {
                e.put_u8(TAG_SUBMIT);
                e.put_u64(*ticket);
                put_request(&mut e, req);
            }
            WalRecord::Verdict { ticket, verdict } => match verdict {
                Verdict::Admitted { shard, placements } => {
                    e.put_u8(TAG_ADMITTED);
                    e.put_u64(*ticket);
                    e.put_len(*shard);
                    put_placements(&mut e, placements);
                }
                Verdict::AdmittedCrossShard { shards, placements } => {
                    e.put_u8(TAG_ADMITTED_CROSS);
                    e.put_u64(*ticket);
                    e.put_len(shards.len());
                    for &s in shards {
                        e.put_len(s);
                    }
                    put_placements(&mut e, placements);
                }
                Verdict::Queued { depth } => {
                    e.put_u8(TAG_QUEUED);
                    e.put_u64(*ticket);
                    e.put_len(*depth);
                }
                Verdict::Requeued { shard } => {
                    e.put_u8(TAG_REQUEUED);
                    e.put_u64(*ticket);
                    e.put_len(*shard);
                }
                Verdict::Shed { reason } => {
                    e.put_u8(TAG_SHED);
                    e.put_u64(*ticket);
                    e.put_u8(reason.index());
                }
            },
            WalRecord::Clock { t } => {
                e.put_u8(TAG_CLOCK);
                e.put_f64(t.0);
            }
            WalRecord::Migrate {
                epoch,
                t,
                stall,
                moves,
            } => {
                e.put_u8(TAG_MIGRATE);
                e.put_u64(*epoch);
                e.put_f64(t.0);
                e.put_f64(stall.0);
                e.put_len(moves.len());
                for m in moves {
                    e.put_len(m.from);
                    e.put_len(m.to);
                    put_workload(&mut e, m.ty);
                }
            }
        }
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<WalRecord, EavmError> {
        let mut d = Dec::new(bytes);
        let record = match d.get_u8()? {
            TAG_SUBMIT => WalRecord::Submit {
                ticket: d.get_u64()?,
                req: get_request(&mut d)?,
            },
            TAG_ADMITTED => WalRecord::Verdict {
                ticket: d.get_u64()?,
                verdict: Verdict::Admitted {
                    shard: d.get_len()?,
                    placements: get_placements(&mut d)?,
                },
            },
            TAG_ADMITTED_CROSS => {
                let ticket = d.get_u64()?;
                let n = d.get_len()?;
                let shards = (0..n).map(|_| d.get_len()).collect::<Result<_, _>>()?;
                let placements = get_placements(&mut d)?;
                WalRecord::Verdict {
                    ticket,
                    verdict: Verdict::AdmittedCrossShard { shards, placements },
                }
            }
            TAG_QUEUED => WalRecord::Verdict {
                ticket: d.get_u64()?,
                verdict: Verdict::Queued {
                    depth: d.get_len()?,
                },
            },
            TAG_REQUEUED => WalRecord::Verdict {
                ticket: d.get_u64()?,
                verdict: Verdict::Requeued {
                    shard: d.get_len()?,
                },
            },
            TAG_SHED => WalRecord::Verdict {
                ticket: d.get_u64()?,
                verdict: Verdict::Shed {
                    reason: variant(&ShedReason::ALL, d.get_u8()?, "shed reason")?,
                },
            },
            TAG_CLOCK => WalRecord::Clock {
                t: Seconds(d.get_f64()?),
            },
            TAG_MIGRATE => {
                let epoch = d.get_u64()?;
                let t = Seconds(d.get_f64()?);
                let stall = Seconds(d.get_f64()?);
                let n = d.get_len()?;
                let moves = (0..n)
                    .map(|_| {
                        Ok(Move {
                            from: d.get_len()?,
                            to: d.get_len()?,
                            ty: get_workload(&mut d)?,
                        })
                    })
                    .collect::<Result<_, EavmError>>()?;
                WalRecord::Migrate {
                    epoch,
                    t,
                    stall,
                    moves,
                }
            }
            tag => {
                return Err(EavmError::Durability(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        };
        d.expect_end()?;
        Ok(record)
    }
}

impl SnapshotRec {
    /// The v2 layout. The fleet goes out as one record at index 0 whose
    /// `cache_generation` mirrors `seq`, as the format has always
    /// stored it.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u64(self.seq);
        e.put_u64(self.wal_frames);
        e.put_f64(self.now.0);
        e.put_u64(self.next_ticket);
        e.put_u64(self.seq);
        e.put_len(usize::from(self.fleet.is_some()));
        if let Some(fleet) = &self.fleet {
            e.put_u32(0);
            e.put_f64(fleet.clock.0);
            e.put_f64(fleet.energy.0);
            e.put_len(fleet.servers.len());
            for (server, residents) in &fleet.servers {
                e.put_u32(server.0);
                e.put_len(residents.len());
                for &(ty, finish) in residents {
                    put_workload(&mut e, ty);
                    e.put_f64(finish.0);
                }
            }
        }
        e.put_len(self.parked.len());
        for (ticket, req, parked_at) in &self.parked {
            e.put_u64(*ticket);
            put_request(&mut e, req);
            e.put_f64(parked_at.0);
        }
        e.put_len(self.counters.len());
        for (name, value) in &self.counters {
            e.put_str(name);
            e.put_u64(*value);
        }
        e.finish()
    }

    /// Reads the v2 layout. A snapshot with several fleet records
    /// (written by a sharded fleet) merges into one: servers in record
    /// order, the latest clock, the summed energy. The record index and
    /// `cache_generation` are read and ignored.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotRec, EavmError> {
        let mut d = Dec::new(bytes);
        let version = d.get_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(EavmError::Durability(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let seq = d.get_u64()?;
        let wal_frames = d.get_u64()?;
        let now = Seconds(d.get_f64()?);
        let next_ticket = d.get_u64()?;
        let _cache_generation = d.get_u64()?;
        let mut fleet: Option<FleetDump> = None;
        for _ in 0..d.get_len()? {
            let _index = d.get_u32()?;
            let dump = fleet.get_or_insert(FleetDump {
                clock: Seconds(0.0),
                energy: Joules(0.0),
                servers: Vec::new(),
            });
            dump.clock = dump.clock.max(Seconds(d.get_f64()?));
            dump.energy += Joules(d.get_f64()?);
            for _ in 0..d.get_len()? {
                let server = ServerId(d.get_u32()?);
                let n = d.get_len()?;
                let residents = (0..n)
                    .map(|_| Ok((get_workload(&mut d)?, Seconds(d.get_f64()?))))
                    .collect::<Result<_, EavmError>>()?;
                dump.servers.push((server, residents));
            }
        }
        let parked_count = d.get_len()?;
        let parked = (0..parked_count)
            .map(|_| Ok((d.get_u64()?, get_request(&mut d)?, Seconds(d.get_f64()?))))
            .collect::<Result<_, EavmError>>()?;
        let counter_count = d.get_len()?;
        let counters = (0..counter_count)
            .map(|_| Ok((d.get_string()?, d.get_u64()?)))
            .collect::<Result<_, EavmError>>()?;
        d.expect_end()?;
        Ok(SnapshotRec {
            seq,
            wal_frames,
            now,
            next_ticket,
            fleet,
            parked,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::verdict_line;

    fn placement(server: u32, cpu: u32, mem: u32, io: u32) -> Placement {
        Placement {
            server: ServerId(server),
            add: MixVector::new(cpu, mem, io),
        }
    }

    fn verdict(ticket: u64, verdict: Verdict) -> WalRecord {
        WalRecord::Verdict { ticket, verdict }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Submit {
                ticket: 3,
                req: VmRequest {
                    id: JobId(17),
                    submit: Seconds(120.5),
                    workload: WorkloadType::Mem,
                    vm_count: 4,
                    deadline: Seconds(9000.0),
                    priority: Priority::Interactive,
                },
            },
            verdict(
                3,
                Verdict::Admitted {
                    shard: 1,
                    placements: vec![placement(5, 0, 4, 0)],
                },
            ),
            verdict(
                4,
                Verdict::AdmittedCrossShard {
                    shards: vec![0, 1],
                    placements: vec![placement(0, 2, 0, 0), placement(6, 1, 0, 0)],
                },
            ),
            verdict(5, Verdict::Queued { depth: 2 }),
            verdict(6, Verdict::Requeued { shard: 0 }),
            verdict(
                7,
                Verdict::Shed {
                    reason: ShedReason::Unplaceable,
                },
            ),
            WalRecord::Clock {
                t: Seconds(4321.0625),
            },
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
            WalRecord::Migrate {
                epoch: 10,
                t: Seconds(6000.0),
                stall: Seconds(1.90625),
                moves: vec![],
            },
        ]
    }

    #[test]
    fn wal_records_round_trip() {
        for record in sample_records() {
            let decoded = WalRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    /// Also the integer-tag half of rule C2, which
    /// `wildcard_enum_match_arm` cannot see: a byte outside the known
    /// tag set never decodes, even in front of an otherwise valid body.
    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        let records = sample_records();
        let tags: Vec<u8> = records.iter().map(|r| r.encode()[0]).collect();
        for tag in (0..=u8::MAX).filter(|t| !tags.contains(t)) {
            for record in &records {
                let mut bytes = record.encode();
                bytes[0] = tag;
                assert!(WalRecord::decode(&bytes).is_err(), "WAL tag {tag}");
            }
        }
        let mut bytes = WalRecord::Clock { t: Seconds(1.0) }.encode();
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());
        assert!(WalRecord::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn verdict_lines_are_stable() {
        let lines: Vec<String> = sample_records()
            .iter()
            .filter_map(|r| match r {
                WalRecord::Verdict { ticket, verdict } => Some(verdict_line(*ticket, verdict)),
                WalRecord::Submit { .. } | WalRecord::Clock { .. } | WalRecord::Migrate { .. } => {
                    None
                }
            })
            .collect();
        assert_eq!(
            lines,
            [
                "3 admitted shard=1 placements=[5:0/4/0]",
                "4 admitted-cross shards=[0,1] placements=[0:2/0/0,6:1/0/0]",
                "5 queued depth=2",
                "6 requeued shard=0",
                "7 shed reason=unplaceable",
            ]
        );
    }

    #[test]
    fn migrate_frames_round_trip_bit_exact() {
        let rec = WalRecord::Migrate {
            epoch: 41,
            t: Seconds(12_300.25),
            stall: Seconds(1.906_25),
            moves: vec![Move {
                from: 7,
                to: 2,
                ty: WorkloadType::Mem,
            }],
        };
        let decoded = WalRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        if let WalRecord::Migrate { stall, .. } = decoded {
            assert_eq!(stall.0.to_bits(), 1.906_25f64.to_bits());
        } else {
            panic!("decoded to a different variant");
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exact() {
        let snap = SnapshotRec {
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
                VmRequest {
                    id: JobId(55),
                    submit: Seconds(7000.0),
                    workload: WorkloadType::Io,
                    vm_count: 3,
                    deadline: Seconds(12000.0),
                    priority: Priority::Batch,
                },
                Seconds(7400.125),
            )],
            counters: vec![
                ("service.submitted".into(), 900),
                ("service.requeued".into(), 2),
            ],
        };
        let decoded = SnapshotRec::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        // f64 fields survive bit-exact.
        let fleet = decoded.fleet.as_ref().unwrap();
        assert_eq!(fleet.servers[0].1[0].1 .0.to_bits(), 8000.125f64.to_bits());
        assert_eq!(decoded.parked[0].2 .0.to_bits(), 7400.125f64.to_bits());
        // A snapshot without a fleet record round-trips too.
        let bare = SnapshotRec {
            fleet: None,
            ..snap
        };
        assert_eq!(SnapshotRec::decode(&bare.encode()).unwrap(), bare);
    }

    #[test]
    fn snapshot_version_is_checked() {
        let mut bytes = SnapshotRec {
            seq: 0,
            wal_frames: 0,
            now: Seconds(0.0),
            next_ticket: 0,
            fleet: None,
            parked: vec![],
            counters: vec![],
        }
        .encode();
        for version in (0..=u8::MAX).filter(|&v| v != SNAPSHOT_VERSION) {
            bytes[0] = version;
            assert!(SnapshotRec::decode(&bytes).is_err(), "version {version}");
        }
    }
}
