//! Crash-recovery determinism for the durable allocation service.
//!
//! The headline guarantee of `eavm-durability` + `AllocService::recover`
//! is *bit-exact* resumption: crash the service at ANY write-ahead-log
//! frame boundary, recover from whatever survived on disk (snapshots
//! included), re-drive the remaining traffic, and the reconstructed
//! verdict log is byte-identical to an uncrashed control run. These
//! tests enumerate every truncation point rather than sampling a few —
//! the WAL for the workload below is small enough that exhaustiveness
//! is cheap and it is exactly the property the paper-reproduction
//! pipeline leans on (a multi-day trace replay must be resumable
//! without perturbing a single allocation decision).

use std::path::{Path, PathBuf};

use eavm::durability::{read_frames, recover_dir, wal_path, Wal, WalRecord};
use eavm::migrate::ConsolidationConfig;
use eavm::prelude::*;
use eavm::service::{
    drive_paced, replay_online, verdict_line, AllocService, DurabilityConfig, ServiceConfig,
    ServiceStats,
};
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eavm-recov-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(id: u32, submit: f64, ty: WorkloadType, vms: u32) -> VmRequest {
    VmRequest {
        id: JobId::new(id),
        submit: Seconds(submit),
        workload: ty,
        vm_count: vms,
        deadline: Seconds(1e7),
        priority: Priority::Standard,
    }
}

/// A workload that exercises every WAL record kind on a 4-server fleet
/// (per-server OS bounds: 10 CPU / 4 Mem VMs): admissions on arrival,
/// a Mem block too big for one server (placed across three), wait-queue
/// parking with admit-after-wait during drain, and an unplaceable shed.
fn workload() -> Vec<VmRequest> {
    vec![
        request(0, 0.0, WorkloadType::Cpu, 8),
        request(1, 50.0, WorkloadType::Io, 1),
        // Mem bound is 4 per server: 10 spans three servers.
        request(2, 100.0, WorkloadType::Mem, 10),
        request(3, 150.0, WorkloadType::Cpu, 9),
        request(4, 200.0, WorkloadType::Cpu, 9),
        request(5, 250.0, WorkloadType::Mem, 2),
        // CPU resident 26 so far; 16 more exceeds the fleet bound of 40
        // until something retires: parked, admitted after wait.
        request(6, 300.0, WorkloadType::Cpu, 16),
        request(7, 350.0, WorkloadType::Io, 2),
        request(8, 400.0, WorkloadType::Cpu, 1),
        request(9, 450.0, WorkloadType::Io, 1),
        // 41 CPU VMs can never fit a 40-slot fleet: shed unplaceable.
        request(10, 500.0, WorkloadType::Cpu, 41),
        request(11, 550.0, WorkloadType::Io, 1),
        request(12, 600.0, WorkloadType::Cpu, 2),
        request(13, 650.0, WorkloadType::Mem, 2),
    ]
}

fn config(dir: &Path) -> ServiceConfig {
    let mut config = ServiceConfig::new(1, 4)
        .with_durability(DurabilityConfig::new(dir.to_path_buf()).with_checkpoint_every(4));
    config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
    config
}

/// Every counter a recovered run must carry over, plus the state it
/// ends in, by name: a recovered run that re-drives the rest of the
/// traffic must end exactly where the uncrashed control did, not only
/// hand out the same verdicts.
fn final_state(stats: &ServiceStats) -> Vec<(&'static str, u64)> {
    let [sb, ss, si] = stats.submitted_class;
    let [ab, as_, ai] = stats.admitted_class;
    vec![
        ("submitted", stats.submitted),
        ("admitted_local", stats.admitted_local),
        ("admitted_cross_shard", stats.admitted_cross_shard),
        ("admitted_after_wait", stats.admitted_after_wait),
        ("shed_admission", stats.shed_admission),
        ("shed_wait_queue", stats.shed_wait_queue),
        ("shed_unplaceable", stats.shed_unplaceable),
        ("shed_shard_failure", stats.shed_shard_failure),
        ("shed_storage_degraded", stats.shed_storage_degraded),
        ("shed_queue_aged", stats.shed_queue_aged),
        ("shed_brownout_class", stats.shed_brownout_class),
        ("submitted_class_batch", sb),
        ("submitted_class_standard", ss),
        ("submitted_class_interactive", si),
        ("admitted_class_batch", ab),
        ("admitted_class_standard", as_),
        ("admitted_class_interactive", ai),
        ("consolidation_sweeps", stats.consolidation_sweeps),
        ("consolidation_migrations", stats.consolidation_migrations),
        (
            "consolidation_hosts_drained",
            stats.consolidation_hosts_drained,
        ),
        ("parked", stats.parked),
        ("resident_vms", stats.resident_vms as u64),
        ("virtual_now_bits", stats.virtual_now.0.to_bits()),
        ("estimated_energy_bits", stats.estimated_energy.0.to_bits()),
    ]
}

/// The journaled verdict stream of a directory, stably ordered by
/// ticket (a ticket that was first Queued and later Admitted keeps its
/// two lines in emission order).
fn journal_lines(dir: &Path) -> Vec<(u64, String)> {
    let mut lines = recover_dir(dir).expect("recover_dir").verdict_lines();
    lines.sort_by_key(|(ticket, _)| *ticket);
    lines
}

#[test]
fn recovery_is_bit_exact_at_every_wal_truncation_point() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = workload();

    // Control: one uncrashed run under a journal directory.
    let ctrl = tmp("ctrl");
    let report = replay_online(&db, config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);
    let control_state = final_state(&report.stats);

    // The journal reconstructs exactly the verdict stream the live
    // service handed out (same pinned line format, same tickets).
    let mut live: Vec<(u64, String)> = report
        .verdicts
        .iter()
        .map(|(ticket, verdict)| (*ticket, verdict_line(*ticket, verdict)))
        .collect();
    live.sort_by_key(|(ticket, _)| *ticket);
    assert_eq!(control, live, "journal must mirror the live verdict stream");

    // Sanity: the workload really exercised every record kind.
    let joined: String = control.iter().map(|(t, l)| format!("{t} {l}\n")).collect();
    assert!(
        joined.contains("admitted shard="),
        "no local admission:\n{joined}"
    );
    assert!(
        joined.contains("admitted-cross"),
        "no admission after a wait:\n{joined}"
    );
    assert!(
        joined.contains("queued depth="),
        "no parked request:\n{joined}"
    );
    assert!(
        joined.contains("shed reason=unplaceable"),
        "no shed:\n{joined}"
    );

    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0);
    let snapshots: Vec<PathBuf> = std::fs::read_dir(&ctrl)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect();
    assert!(
        !snapshots.is_empty(),
        "checkpoint_every=4 wrote no snapshots"
    );

    // Crash at EVERY frame boundary: keep the first k frames (plus
    // every control snapshot — snapshots "from the future" relative to
    // the truncated WAL must be skipped, older ones used), recover,
    // re-drive what the crashed process never got to, and demand a
    // byte-identical journal.
    let mut wal_diverged = Vec::new();
    for k in 0..=payloads.len() {
        let dir = tmp(&format!("cut{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        let (mut wal, _) = Wal::open(&wal_path(&dir)).expect("wal");
        for payload in &payloads[..k] {
            wal.append(payload).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (service, report) = AllocService::recover(db.clone(), config(&dir)).expect("recover");
        let resume_from = report.next_ticket as usize;
        assert!(resume_from <= requests.len(), "ticket watermark ran ahead");
        drive_paced(&service, &requests[resume_from..]).expect("re-drive");
        service.drain().expect("drain");
        let _ = service.poll_verdicts();
        let stats = service.shutdown().expect("shutdown");

        let recovered = journal_lines(&dir);
        assert_eq!(
            recovered,
            control,
            "verdict log diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        assert_eq!(
            final_state(&stats),
            control_state,
            "counters or final state diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        if read_frames(&wal_path(&dir)).expect("recovered wal").0 != payloads {
            wal_diverged.push(k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        wal_diverged.is_empty(),
        "recovered WAL differs from the control's after crashes at frames {wal_diverged:?} of {}",
        payloads.len()
    );
}

/// Like [`config`] but with consolidation sweeps enabled: every 100
/// virtual seconds any host holding at most 2 VMs drains onto best-fit
/// peers (no hysteresis, so every sweep is eligible). Submissions below
/// advance virtual time across many epoch boundaries, so sweeps —
/// and the `Migrate` WAL frames they journal *before* executing — are
/// interleaved with admissions, checkpoints, and retirements.
fn consolidated_config(dir: &Path) -> ServiceConfig {
    config(dir).with_consolidation(ConsolidationConfig {
        interval: Seconds(100.0),
        drain_threshold: 2,
        hysteresis_sweeps: 0,
        ..ConsolidationConfig::default()
    })
}

/// A workload whose submissions stretch across nine consolidation
/// epochs: an early block of CPU VMs anchors a receiver host while
/// later single-VM arrivals scatter stragglers for the sweeps to
/// harvest (deadlines are far out, so nothing retires mid-run and every
/// journaled move concerns a still-resident VM).
fn consolidating_workload() -> Vec<VmRequest> {
    vec![
        request(0, 0.0, WorkloadType::Cpu, 6),
        request(1, 60.0, WorkloadType::Io, 1),
        request(2, 120.0, WorkloadType::Mem, 1),
        request(3, 240.0, WorkloadType::Io, 1),
        request(4, 360.0, WorkloadType::Cpu, 2),
        request(5, 480.0, WorkloadType::Mem, 10),
        request(6, 600.0, WorkloadType::Cpu, 33),
        request(7, 720.0, WorkloadType::Io, 1),
        request(8, 840.0, WorkloadType::Cpu, 1),
    ]
}

/// Crash-mid-migration byte parity: with consolidation sweeps running
/// between admissions, truncate the WAL at EVERY frame boundary —
/// including boundaries that land between a journaled `Migrate` frame
/// and the sweep that follows it — recover, re-drive, and demand both a
/// byte-identical verdict log and identical consolidation totals. The
/// journal-before-execute discipline is what makes this hold: a sweep's
/// move list is durable before any VM moves, so replay re-executes
/// exactly the journaled schedule instead of re-planning.
#[test]
fn recovery_is_bit_exact_across_consolidation_sweeps() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = consolidating_workload();

    let ctrl = tmp("mig-ctrl");
    let report = replay_online(&db, consolidated_config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);
    assert!(
        report.stats.consolidation_migrations >= 1,
        "workload never migrated a VM: {:?}",
        report.stats
    );

    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0);
    let migrate_frames = payloads
        .iter()
        .filter_map(|p| match WalRecord::decode(p) {
            Ok(WalRecord::Migrate { moves, .. }) => Some(moves.len()),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert!(
        migrate_frames.iter().any(|&moves| moves > 0),
        "no Migrate frame with a non-empty move list was journaled"
    );
    let snapshots: Vec<PathBuf> = std::fs::read_dir(&ctrl)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect();

    let mut wal_diverged = Vec::new();
    for k in 0..=payloads.len() {
        let dir = tmp(&format!("mig-cut{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        let (mut wal, _) = Wal::open(&wal_path(&dir)).expect("wal");
        for payload in &payloads[..k] {
            wal.append(payload).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (service, rec) =
            AllocService::recover(db.clone(), consolidated_config(&dir)).expect("recover");
        let resume_from = rec.next_ticket as usize;
        drive_paced(&service, &requests[resume_from..]).expect("re-drive");
        service.drain().expect("drain");
        let _ = service.poll_verdicts();
        let stats = service.shutdown().expect("shutdown");

        assert_eq!(
            journal_lines(&dir),
            control,
            "verdict log diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        // The consolidation schedule itself converged too: the same
        // sweeps ran, the same VMs moved, the same donors powered down.
        assert_eq!(
            (
                stats.consolidation_sweeps,
                stats.consolidation_migrations,
                stats.consolidation_hosts_drained,
            ),
            (
                report.stats.consolidation_sweeps,
                report.stats.consolidation_migrations,
                report.stats.consolidation_hosts_drained,
            ),
            "consolidation totals diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        assert_eq!(
            final_state(&stats),
            final_state(&report.stats),
            "counters or final state diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        if read_frames(&wal_path(&dir)).expect("recovered wal").0 != payloads {
            wal_diverged.push(k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        wal_diverged.is_empty(),
        "recovered WAL differs from the control's after crashes at frames {wal_diverged:?} of {}",
        payloads.len()
    );
    let _ = std::fs::remove_dir_all(&ctrl);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: consolidation never creates or destroys a VM, no
    /// matter the sweep regime. Random (interval, threshold,
    /// hysteresis) regimes run over a stream of small requests; the
    /// fleet's resident count must equal the VMs admitted minus those
    /// retired, and every submission must still resolve to exactly one
    /// final verdict.
    #[test]
    fn consolidation_regimes_conserve_vms(
        interval in 40.0f64..300.0,
        threshold in 1u32..=3,
        hysteresis in 0u32..=2,
    ) {
        let db = DbBuilder::exact().build().expect("db");
        let mut config = ServiceConfig::new(1, 6)
            .with_consolidation(ConsolidationConfig {
                interval: Seconds(interval),
                drain_threshold: threshold,
                hysteresis_sweeps: hysteresis,
                ..ConsolidationConfig::default()
            });
        // Far deadlines, and a clock that never passes a VM's finish
        // while submitting: nothing retires, so residency is exact.
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        let service = AllocService::start(db, config).expect("start");

        let total = 30u32;
        let mut vms = 0usize;
        for i in 0..total {
            let ty = WorkloadType::ALL[(i % 3) as usize];
            vms += 1 + (i % 2) as usize;
            service.submit(request(i, f64::from(i) * 30.0, ty, 1 + i % 2));
        }

        // Mid-run, after many sweeps: every admitted VM is still
        // resident somewhere, wherever the sweeps moved it.
        let mid = service.stats().expect("stats");
        prop_assert!(mid.consolidation_sweeps >= 1,
            "interval {} over 870 virtual seconds fired no sweep", interval);
        prop_assert_eq!(mid.parked, 0, "{:?}", mid);
        prop_assert_eq!(mid.resident_vms, vms, "sweeps lost or made VMs: {:?}", mid);

        service.drain().expect("drain");
        let stats = service.shutdown().expect("shutdown");

        // Every submission resolves: nothing lost to a sweep, nothing
        // double-counted.
        prop_assert_eq!(
            stats.admitted_local
                + stats.admitted_cross_shard
                + stats.shed_wait_queue
                + stats.shed_unplaceable
                + stats.shed_shard_failure,
            u64::from(total),
            "verdict conservation broken: {:?}", stats
        );
        prop_assert_eq!(stats.parked, 0);
        // A drained host implies at least one executed move.
        prop_assert!(
            stats.consolidation_migrations >= stats.consolidation_hosts_drained,
            "more hosts drained than VMs moved: {:?}", stats
        );
    }
}

#[test]
fn torn_and_corrupt_tails_are_dropped_without_panicking() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = workload();
    let ctrl = tmp("tear-ctrl");
    replay_online(&db, config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);
    let wal_bytes = std::fs::read(wal_path(&ctrl)).unwrap();

    // A half-written frame at the tail (the classic power-cut artifact)
    // is truncated away; recovery then re-executes from the last good
    // frame and still converges to the control log.
    let torn_dir = tmp("torn");
    let mut torn_bytes = wal_bytes.clone();
    torn_bytes.extend_from_slice(&[0x4a, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(wal_path(&torn_dir), &torn_bytes).unwrap();
    let (service, report) = AllocService::recover(db.clone(), config(&torn_dir)).expect("recover");
    assert!(report.torn_frames_dropped >= 1, "torn tail went unnoticed");
    drive_paced(&service, &requests[report.next_ticket as usize..]).expect("re-drive");
    service.drain().expect("drain");
    let stats = service.shutdown().expect("shutdown");
    assert!(stats.durability.torn_frames_dropped >= 1);
    assert_eq!(journal_lines(&torn_dir), control);

    // A bit flip inside the final frame fails its CRC: that frame (and
    // only that frame) is dropped, and recovery re-executes it.
    let flip_dir = tmp("flip");
    let mut flipped = wal_bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xff;
    std::fs::write(wal_path(&flip_dir), &flipped).unwrap();
    let (service, report) = AllocService::recover(db.clone(), config(&flip_dir)).expect("recover");
    assert_eq!(
        report.torn_frames_dropped, 1,
        "CRC failure must drop exactly the final frame"
    );
    drive_paced(&service, &requests[report.next_ticket as usize..]).expect("re-drive");
    service.drain().expect("drain");
    service.shutdown().expect("shutdown");
    assert_eq!(journal_lines(&flip_dir), control);
}

#[test]
fn parked_requests_and_counters_survive_recovery() {
    let db = DbBuilder::exact().build().expect("db");
    let dir = tmp("parked");
    // A fresh config per service instance: recovery models a NEW
    // process, so it must not share the first run's telemetry registry
    // (seeded counters would stack on the live ones).
    let cfg = || {
        let mut cfg = ServiceConfig::new(1, 1)
            .with_durability(DurabilityConfig::new(dir.clone()).with_checkpoint_every(5));
        cfg.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        cfg
    };

    // Saturate the single server's CPU bound (10), then park one more.
    let service = AllocService::start(db.clone(), cfg()).expect("start");
    for i in 0..11u32 {
        service.submit(request(i, i as f64, WorkloadType::Cpu, 1));
        service.stats().expect("stats");
    }
    let stats = service.stats().expect("stats");
    assert_eq!(stats.parked, 1, "11th VM should be waiting");
    // Shut down WITHOUT draining: the parked request must come back.
    service.shutdown().expect("shutdown");

    let (service, report) = AllocService::recover(db, cfg()).expect("recover");
    assert_eq!(report.restored_parked, 1);
    assert_eq!(report.resident_vms, 10);
    assert_eq!(report.next_ticket, 11);
    assert!(report.summary().contains("restored_parked=1"));
    let stats = service.stats().expect("stats");
    assert_eq!(stats.submitted, 11, "seeded counters lost across recovery");
    assert_eq!(stats.parked, 1);

    // Draining the recovered service retires residents and finally
    // admits the parked request — nothing is lost, nothing doubled.
    service.drain().expect("drain");
    let stats = service.shutdown().expect("shutdown");
    assert_eq!(stats.admitted_after_wait, 1);
    assert_eq!(stats.parked, 0);
    assert_eq!(
        stats.admitted_local + stats.admitted_cross_shard,
        11,
        "every submission must resolve to an admission: {stats:?}"
    );
}
