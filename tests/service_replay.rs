//! Integration: the service's deterministic replay mode is bit-exact
//! against the batch simulator. The memoization layer in front of the
//! model must be semantically transparent — `replay_deterministic`
//! (Proactive over the memoized DbModel) and a plain `Simulation::run`
//! (Proactive over the bare DbModel) must make the same allocation
//! decisions, interval for interval, and report the same total energy,
//! while the cache demonstrably shortcuts repeat lookups.

use std::sync::Arc;

use eavm::prelude::*;
use eavm::service::{replay_deterministic, DeterministicConfig};

fn build_requests(seed: u64, total_vms: u32, solo: [Seconds; 3]) -> Vec<VmRequest> {
    let mut generator = TraceGenerator::new(GeneratorConfig {
        seed,
        total_jobs: (total_vms as usize) / 2,
        ..Default::default()
    })
    .unwrap();
    let mut trace = generator.generate();
    clean_trace(&mut trace);
    let cfg = AdaptConfig {
        qos_factor: 3.0,
        ..AdaptConfig::paper(seed, solo)
    };
    let mut requests = adapt_trace(&trace, &cfg);
    eavm::swf::truncate_to_vm_total(&mut requests, total_vms);
    requests
}

fn deadlines(db: &ModelDatabase, factor: f64) -> [Seconds; 3] {
    [
        db.aux().solo_time(WorkloadType::Cpu) * factor,
        db.aux().solo_time(WorkloadType::Mem) * factor,
        db.aux().solo_time(WorkloadType::Io) * factor,
    ]
}

#[test]
fn deterministic_replay_matches_batch_simulation_exactly() {
    let db = DbBuilder::exact().build().unwrap();
    let solo = [
        db.aux().solo_time(WorkloadType::Cpu),
        db.aux().solo_time(WorkloadType::Mem),
        db.aux().solo_time(WorkloadType::Io),
    ];
    let requests = build_requests(11, 500, solo);
    let cloud = CloudConfig::new("REPLAY", 6).unwrap();
    let dl = deadlines(&db, 3.0);

    // Reference: the batch simulator with the unmemoized model.
    let mut reference = Proactive::new(DbModel::new(db.clone()), OptimizationGoal::BALANCED, dl)
        .with_qos_margin(0.65);
    let expected = Simulation::new(AnalyticModel::reference(), cloud.clone())
        .with_timeline()
        .run(&mut reference, &requests)
        .unwrap();

    // Service path: same allocator stack plus the memoization layer,
    // with telemetry ENABLED — instruments must observe the replay
    // without perturbing a single allocation decision.
    let telemetry = Telemetry::new();
    let mut config = DeterministicConfig::new(OptimizationGoal::BALANCED, dl)
        .with_telemetry(Arc::clone(&telemetry));
    config.timeline = true;
    let (outcome, cache, fallbacks) =
        replay_deterministic(AnalyticModel::reference(), cloud, db, &config, &requests).unwrap();
    assert_eq!(fallbacks, 0, "no fault plan must mean no fallbacks");

    // Same allocation decisions: the timeline records every per-server
    // allocation interval the strategy produced.
    assert!(!outcome.timeline.is_empty());
    assert_eq!(outcome.timeline, expected.timeline);
    // Same totals, energy included, bit for bit.
    assert_eq!(outcome, expected);
    assert_eq!(outcome.energy, expected.energy);
    assert_eq!(
        outcome.vms as u32,
        requests.iter().map(|r| r.vm_count).sum()
    );

    // And the cache was genuinely exercised, not bypassed.
    assert!(cache.hits > 0, "memo cache never hit: {cache:?}");
    assert!(
        cache.hit_rate() > 0.5,
        "repeat mixes should dominate: {cache:?}"
    );

    // The registry saw the same traffic the stats structs report: one
    // source of truth, not parallel bookkeeping.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("replay.cache.hits"), cache.hits);
    assert_eq!(snap.counter("replay.cache.misses"), cache.misses);
    assert_eq!(snap.counter("sim.vms_placed"), outcome.vms as u64);
    assert!(snap.counter("replay.search.searches") > 0);
}

/// FNV-1a over a verdict log: a stable digest to pin it by.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The ticket-ordered verdict log, one `verdict_line` per line.
fn verdict_log(verdicts: &[(u64, eavm::service::Verdict)]) -> String {
    verdicts
        .iter()
        .map(|(ticket, v)| format!("{ticket} {}\n", eavm::service::verdict_line(*ticket, v)))
        .collect()
}

/// Every way of driving the online service decides the same way: the
/// admission loop takes one request at a time in arrival order, so the
/// verdict log is a pure function of the trace. Unpaced blocking
/// submission, one-at-a-time pacing, and a journaled run (whose log is
/// rebuilt from the WAL) must give byte-identical logs, run after run,
/// and that log is pinned: it is the log a one-shard, one-request-at-a-
/// time run of the sharded service produced before the single-writer
/// loop replaced it.
#[test]
fn every_driving_mode_gives_the_same_verdict_log() {
    use eavm::durability::recover_dir;
    use eavm::service::{drive_paced, replay_online, AllocService, ServiceConfig};
    use eavm_bench::pipeline::{Pipeline, PipelineConfig};

    let p = Pipeline::build(PipelineConfig::small(7)).unwrap();
    let (cloud, _) = p.clouds();
    let config = || {
        let mut config = ServiceConfig::new(1, cloud.servers).with_telemetry(Telemetry::disabled());
        config.goal = OptimizationGoal::new(0.5).unwrap();
        config.deadlines = p.deadlines;
        config.qos_margin = p.config.qos_margin;
        config
    };

    let unpaced = || {
        verdict_log(
            &replay_online(&p.db, config(), &p.requests)
                .unwrap()
                .verdicts,
        )
    };
    let paced = || {
        let service = AllocService::start(p.db.clone(), config()).unwrap();
        drive_paced(&service, &p.requests).unwrap();
        service.drain().unwrap();
        let mut verdicts = service.poll_verdicts();
        service.shutdown().unwrap();
        verdicts.sort_by_key(|(ticket, _)| *ticket);
        verdict_log(&verdicts)
    };
    let journaled = |run: usize| {
        let dir = std::env::temp_dir().join(format!("eavm-modes-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = replay_online(&p.db, config().with_journal_dir(&dir), &p.requests).unwrap();
        let mut lines = recover_dir(&dir).unwrap().verdict_lines();
        lines.sort_by_key(|(ticket, _)| *ticket);
        let _ = std::fs::remove_dir_all(&dir);
        let log: String = lines.iter().map(|(t, l)| format!("{t} {l}\n")).collect();
        assert_eq!(
            log,
            verdict_log(&live.verdicts),
            "WAL and live stream differ"
        );
        log
    };

    let reference = unpaced();
    assert_eq!(reference.lines().count(), 366);
    assert_eq!(fnv1a(&reference), 0xe84e_a660_add8_4e2a, "{reference}");
    for run in 0..2 {
        assert_eq!(unpaced(), reference, "unpaced run {run}");
        assert_eq!(paced(), reference, "paced run {run}");
        assert_eq!(journaled(run), reference, "journaled run {run}");
    }
}
