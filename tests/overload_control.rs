//! Acceptance tests for the adaptive overload-control plane.
//!
//! The headline guarantee: under a 4×-capacity flash crowd the
//! brownout ladder sheds Batch-class work first and Interactive-class
//! goodput stays at or above 90% of its offered load, while the whole
//! run — AIMD limits, queue aging, breaker probes included — remains a
//! pure function of the request stream (byte-identical verdicts across
//! repeats, telemetry on or off, and across crash/recovery at every
//! WAL frame boundary).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eavm::durability::{read_frames, recover_dir, wal_path, Wal};
use eavm::prelude::*;
use eavm::service::{
    drive_paced, replay_online, AllocService, DurabilityConfig, ServiceConfig, ServiceStats,
};
use eavm::telemetry::Telemetry;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eavm-ovl-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn classed(id: u32, submit: f64, priority: Priority, vms: u32) -> VmRequest {
    VmRequest {
        id: JobId::new(id),
        submit: Seconds(submit),
        workload: WorkloadType::Cpu,
        vm_count: vms,
        deadline: Seconds(1e7),
        priority,
    }
}

/// A 4×-capacity flash crowd against a 4-server fleet (CPU bound 10
/// per server ⇒ 40 VMs fleet-wide): a calm warm-up, then 150
/// single-VM requests arriving every 5 virtual seconds — 90 Batch, 40
/// Standard, 20 Interactive, interleaved so every class keeps arriving
/// throughout the spike. 158 offered VMs ≈ 4× the 40-slot capacity.
fn flash_crowd() -> Vec<VmRequest> {
    let mut requests: Vec<VmRequest> = (0..8)
        .map(|i| classed(i, f64::from(i) * 150.0, Priority::Standard, 1))
        .collect();
    // Per 15-block: 9 Batch, 4 Standard, 2 Interactive.
    let pattern = [
        Priority::Batch,
        Priority::Batch,
        Priority::Interactive,
        Priority::Batch,
        Priority::Batch,
        Priority::Standard,
        Priority::Batch,
        Priority::Batch,
        Priority::Standard,
        Priority::Batch,
        Priority::Batch,
        Priority::Interactive,
        Priority::Batch,
        Priority::Standard,
        Priority::Standard,
    ];
    for i in 0..150u32 {
        let priority = pattern[(i as usize) % pattern.len()];
        requests.push(classed(8 + i, 1200.0 + f64::from(i) * 5.0, priority, 1));
    }
    requests
}

/// The flash-crowd service config. The AIMD ceiling is pinned below
/// physical capacity (24 VMs vs the 40 the OS bounds allow) so
/// the ladder's pressure signal engages deterministically mid-spike:
/// AIMD raises track admissions one-for-one, so with an uncapped limit
/// the rung would only engage after a congestion cut. The park queue
/// is sized so rung 2 (parked ≥ capacity/2) fires while Interactive
/// stragglers still have park room, and the queue-age threshold is
/// generous enough that parked Interactive work survives to its
/// admit-after-wait instead of aging out.
fn overload_config() -> ServiceConfig {
    let mut config = ServiceConfig::new(1, 4);
    config.queue_capacity = 32;
    config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
    config.overload = Some(OverloadConfig {
        max_limit: 24.0,
        queue_target: 7200.0,
        queue_interval: 7200.0,
        ..OverloadConfig::default()
    });
    config
}

fn run_flash_crowd(config: ServiceConfig) -> ServiceStats {
    let db = DbBuilder::exact().build().expect("db");
    let service = AllocService::start(db, config).expect("start");
    drive_paced(&service, &flash_crowd()).expect("drive");
    service.drain().expect("drain");
    service.shutdown().expect("shutdown")
}

#[test]
fn flash_crowd_sheds_batch_first_and_preserves_interactive_goodput() {
    let stats = run_flash_crowd(overload_config());
    let [sub_b, sub_s, sub_i] = stats.submitted_class;
    let [adm_b, adm_s, adm_i] = stats.admitted_class;
    assert_eq!(sub_b + sub_s + sub_i, 158, "offered load: {stats:?}");

    // The ladder fired: Batch was brownout-shed while the crowd lasted.
    assert!(
        stats.shed_brownout_class > 0,
        "no brownout sheds under 4x overload: {stats:?}"
    );
    // Batch is shed first: its goodput collapses well below the
    // Interactive floor the ladder protects.
    let batch_goodput = adm_b as f64 / sub_b as f64;
    let interactive_goodput = adm_i as f64 / sub_i as f64;
    assert!(
        interactive_goodput >= 0.9,
        "Interactive goodput {interactive_goodput:.3} < 0.9 \
         (admitted {adm_i} of {sub_i}): {stats:?}"
    );
    assert!(
        batch_goodput < interactive_goodput,
        "Batch ({batch_goodput:.3}) was not shed before Interactive \
         ({interactive_goodput:.3}): {stats:?}"
    );
    assert!(
        batch_goodput <= adm_s as f64 / sub_s as f64,
        "Batch outlived Standard under brownout: {stats:?}"
    );

    // The AIMD plane observed the run and the counters conserve: every
    // submission resolved to exactly one final verdict.
    let overload = stats.overload.as_ref().expect("plane armed");
    assert!(
        (1.0..=24.0).contains(&overload.limit),
        "limit escaped its clamp: {overload:?}"
    );
    let finals = stats.admitted_local
        + stats.admitted_cross_shard
        + stats.shed_admission
        + stats.shed_wait_queue
        + stats.shed_unplaceable
        + stats.shed_shard_failure
        + stats.shed_storage_degraded
        + stats.shed_queue_aged
        + stats.shed_brownout_class;
    assert_eq!(finals, 158, "verdict conservation broken: {stats:?}");
}

// --------------------------------------------------------------------
// Determinism: the plane is a pure function of the verdict stream.
// --------------------------------------------------------------------

/// splitmix64 — the test's own source of seeded variety.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded mini flash crowd: 14–20 small requests arriving fast
/// enough to overrun the capped limiter, with priorities, workload
/// types, VM counts, and deadlines all drawn from the seed. Tight
/// deadlines make some admissions land late (AIMD cuts), and the tight
/// queue-aging in [`stress_config`] sheds long-parked work, so the
/// journals cover every overload verdict kind.
fn seeded_crowd(seed: u64) -> Vec<VmRequest> {
    let count = 14 + (mix64(seed) % 7) as u32;
    let mut t = 0.0;
    (0..count)
        .map(|i| {
            let h = mix64(seed ^ u64::from(i) << 32);
            t += 10.0 + (h % 80) as f64;
            let priority = Priority::ALL[(h >> 8) as usize % 3];
            let ty = WorkloadType::ALL[(h >> 16) as usize % 3];
            let deadline = if h >> 24 & 1 == 0 { 250.0 } else { 1e7 };
            VmRequest {
                id: JobId::new(i),
                submit: Seconds(t),
                workload: ty,
                vm_count: 1 + (h >> 32) as u32 % 3,
                deadline: Seconds(deadline),
                priority,
            }
        })
        .collect()
}

/// Overloaded, journaled, breaker-armed config for the determinism
/// sweep: a capped limiter, a tiny park queue, aggressive queue aging,
/// and a lossy breaker probe stream, so limiter cuts, aged sheds,
/// brownout sheds, and breaker transitions all reach the WAL.
fn stress_config(dir: &Path, seed: u64, telemetry: Arc<Telemetry>) -> ServiceConfig {
    let mut config = ServiceConfig::new(1, 2)
        .with_durability(DurabilityConfig::new(dir.to_path_buf()).with_checkpoint_every(4))
        .with_telemetry(telemetry);
    config.queue_capacity = 4;
    config.overload = Some(
        OverloadConfig {
            max_limit: 8.0,
            queue_target: 120.0,
            queue_interval: 120.0,
            breaker_threshold: 3,
            breaker_cooldown: 200.0,
            ..OverloadConfig::default()
        }
        .with_breaker_stream(seed, 0.3),
    );
    config
}

/// The journaled verdict stream of a directory, stably ordered by
/// ticket.
fn journal_lines(dir: &Path) -> Vec<(u64, String)> {
    let mut lines = recover_dir(dir).expect("recover_dir").verdict_lines();
    lines.sort_by_key(|(ticket, _)| *ticket);
    lines
}

/// One seed of the purity sweep: a straight telemetry-off control, a
/// telemetry-on repeat, and a crash/recovery at every WAL frame
/// boundary must all yield byte-identical verdict logs and
/// bit-identical final limiter/breaker snapshots.
fn check_overload_purity(seed: u64) {
    let db = DbBuilder::exact().build().expect("db");
    let requests = seeded_crowd(seed);

    // Control: telemetry off, journaled.
    let ctrl = tmp(&format!("ctrl-{seed}"));
    let report = replay_online(
        &db,
        stress_config(&ctrl, seed, Telemetry::disabled()),
        &requests,
    )
    .expect("control run");
    let control = journal_lines(&ctrl);
    let snapshot = report.stats.overload.clone().expect("plane armed");

    // Telemetry on: instruments observe, decisions must not move.
    let tel = tmp(&format!("tel-{seed}"));
    let report_tel = replay_online(&db, stress_config(&tel, seed, Telemetry::new()), &requests)
        .expect("telemetry run");
    assert_eq!(
        &journal_lines(&tel),
        &control,
        "telemetry perturbed the verdicts"
    );
    assert_eq!(
        report_tel.stats.overload.as_ref(),
        Some(&snapshot),
        "telemetry perturbed the plane"
    );

    // Crash at every WAL frame boundary and re-drive the rest.
    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0u64);
    let snapshots: Vec<PathBuf> = std::fs::read_dir(&ctrl)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect();
    for k in 0..=payloads.len() {
        let dir = tmp(&format!("cut-{seed}-{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        let (mut wal, _) = Wal::open(&wal_path(&dir)).expect("wal");
        for payload in &payloads[..k] {
            wal.append(payload).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (service, recovery) =
            AllocService::recover(db.clone(), stress_config(&dir, seed, Telemetry::disabled()))
                .expect("recover");
        let resume_from = recovery.next_ticket as usize;
        assert!(resume_from <= requests.len(), "ticket watermark ran ahead");
        drive_paced(&service, &requests[resume_from..]).expect("re-drive");
        service.drain().expect("drain");
        let _ = service.poll_verdicts();
        let stats = service.shutdown().expect("shutdown");

        assert_eq!(
            &journal_lines(&dir),
            &control,
            "verdicts diverged after crash at WAL frame {}/{}",
            k,
            payloads.len()
        );
        assert_eq!(
            stats.overload.as_ref(),
            Some(&snapshot),
            "limiter/breaker state diverged after crash at WAL frame {}/{}",
            k,
            payloads.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ctrl);
    let _ = std::fs::remove_dir_all(&tel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite guarantee: shed decisions and the final limiter /
    /// breaker state are a pure function of the journaled verdict
    /// stream — invariant under telemetry and crash placement.
    #[test]
    fn overload_state_is_a_pure_function_of_the_verdict_stream(seed in 0u64..1 << 32) {
        check_overload_purity(seed);
    }
}
