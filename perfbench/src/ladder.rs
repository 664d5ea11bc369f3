//! The traced run: the trace priced at every layer.
//!
//! Rounds of every pass kind, each untraced then traced, run until the
//! time is spent. Traced passes wrap the layers' public traits in the
//! [`probe`](crate::probe) adapters or turn the service's telemetry on;
//! untraced passes give the baseline for each kind's tracing overhead
//! and the per-ack times. Every traced pass is checked against the
//! untraced result, so the tracing is shown not to change a decision,
//! and every count must repeat exactly from pass to pass.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use eavm_bench::{PipelineConfig, StrategyKind};
use eavm_benchdb::DbBuilder;
use eavm_core::{DbModel, FirstFit, OptimizationGoal, Proactive, SearchMetrics};
use eavm_swf::adapt::{adapt_trace, truncate_to_vm_total};
use eavm_swf::{clean_trace, AdaptConfig, GeneratorConfig, TraceGenerator, VmRequest};
use eavm_telemetry::{Counter, Telemetry};
use eavm_types::WorkloadType;

use crate::checks::{self, Tally};
use crate::passes::{self, Inputs, PA_ALPHA};
use crate::probe::{self, Span, TimedModel, TimedStrategy};
use crate::stats::{median, quantile};
use crate::{Options, Report, PER_LAYER};

/// The two layers behind `Pipeline::build`, timed apart: the DB
/// campaign, then trace synthesis, cleaning and adaptation. These are
/// `Pipeline::build`'s own steps through the same public functions; the
/// trace must come out equal to the pipeline's.
fn setup_layers(cfg: &PipelineConfig, expected: &[VmRequest]) -> Result<(f64, f64), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let db = DbBuilder {
        meter_seed: Some(cfg.seed),
        ..Default::default()
    }
    .build_parallel(threads)
    .map_err(|e| format!("DbBuilder::build_parallel: {e}"))?;
    let db_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut generator = TraceGenerator::new(GeneratorConfig {
        seed: cfg.seed,
        total_jobs: (cfg.total_vms as usize / 2).max(64),
        mean_burst_gap_s: cfg.mean_burst_gap_s,
        ..Default::default()
    })?;
    let mut trace = generator.generate();
    clean_trace(&mut trace);
    let solo = WorkloadType::ALL.map(|ty| db.aux().solo_time(ty));
    let adapt_cfg = AdaptConfig {
        qos_factor: cfg.qos_factor,
        ..AdaptConfig::paper(cfg.seed ^ 0xADAF, solo)
    };
    let mut requests = adapt_trace(&trace, &adapt_cfg);
    truncate_to_vm_total(&mut requests, cfg.total_vms);
    let swf_s = t.elapsed().as_secs_f64();
    if requests != expected {
        return Err("the ladder's trace differs from Pipeline::build's".into());
    }
    Ok((db_s, swf_s))
}

/// Work counts of one traced pass; they must repeat exactly.
type Counts = BTreeMap<&'static str, u64>;

/// Remember the first pass's counts of `kind`, or check a later pass's
/// against them.
fn same_counts(
    first: &mut BTreeMap<&'static str, Counts>,
    kind: &'static str,
    counts: Counts,
) -> Result<u64, String> {
    match first.get(kind) {
        None => {
            first.insert(kind, counts);
            Ok(0)
        }
        Some(seen) if *seen == counts => Ok(0),
        Some(seen) => Err(format!(
            "counts vary between passes: {seen:?} vs {counts:?}"
        )),
    }
}

/// Samples the ladder collects.
#[derive(Debug, Default)]
struct Samples {
    untraced_s: BTreeMap<&'static str, Vec<f64>>,
    traced_s: BTreeMap<&'static str, Vec<f64>>,
    model_ns_per_call: Vec<f64>,
    proactive_self_us: Vec<f64>,
    sim_self_us: BTreeMap<&'static str, Vec<f64>>,
    threadless_s: Vec<f64>,
    submit_us: Vec<f64>,
    drain_ms: Vec<f64>,
    admitted: u64,
    admitted_cross: u64,
    ack_us: Vec<f64>,
    append_us: Vec<f64>,
    sync_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    snapshot_bytes: u64,
}

impl Samples {
    fn untraced(&mut self, kind: &'static str, secs: f64) {
        self.untraced_s.entry(kind).or_default().push(secs);
    }

    fn traced(&mut self, kind: &'static str, secs: f64) {
        self.traced_s.entry(kind).or_default().push(secs);
    }

    fn overhead(&self, kind: &str) -> (f64, usize) {
        let traced = self.traced_s.get(kind).map_or(&[][..], Vec::as_slice);
        let untraced = self.untraced_s.get(kind).map_or(&[][..], Vec::as_slice);
        (
            median(traced) / median(untraced) - 1.0,
            traced.len().min(untraced.len()),
        )
    }
}

/// Traced `Simulation::run`: the strategy's `allocate` and the
/// simulator's physics model timed from outside. Returns the pass's
/// counts and its simulator self time per request.
fn traced_sim<S: eavm_core::AllocationStrategy>(
    inputs: &Inputs,
    strategy: S,
    alloc: &Rc<Span>,
    clock_ns: f64,
) -> Result<(f64, eavm_simulator::SimOutcome, u64, f64), String> {
    let physics = Span::shared();
    let mut strategy = TimedStrategy::new(strategy, Rc::clone(alloc));
    let ground_truth = TimedModel::new(inputs.pipeline.ground_truth.clone(), Rc::clone(&physics));
    let (secs, outcome) = passes::simulate(inputs, ground_truth, &mut strategy)?;
    let children = alloc.nanos() + physics.nanos();
    let clock = (alloc.calls() + physics.calls()) as f64 * clock_ns;
    let self_us = (secs * 1e9 - children as f64 - clock) / inputs.requests().len() as f64 / 1e3;
    Ok((secs, outcome, physics.calls(), self_us))
}

/// Run the ladder and report every per-layer metric.
pub fn run(
    opts: &Options,
    inputs: &Inputs,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let requests = inputs.requests();
    let n = requests.len();
    let nf = n as f64;
    let vms = inputs.vms;

    let mut db_s = Vec::new();
    let mut swf_s = Vec::new();
    for _ in 0..opts.setups.max(1) {
        let (db, swf) = setup_layers(&inputs.pipeline.config, requests)?;
        db_s.push(db);
        swf_s.push(swf);
    }
    let clock_ns = probe::clock_read_ns();
    report.meta("clock_read_ns", format!("{clock_ns:.1}"));

    let (secs, reference) = passes::threadless(inputs)?;
    let mut s = Samples {
        threadless_s: vec![secs],
        ..Samples::default()
    };
    let mut first_counts = BTreeMap::new();
    let mut ff_reference = None;
    let mut first_log = None;
    let mut rounds = 0;
    let started = Instant::now();
    loop {
        let label = |kind: &str| format!("ladder round {rounds} {kind}");

        // paper_pa, untraced then traced.
        let pass = passes::paper(inputs, StrategyKind::Pa(PA_ALPHA)).and_then(|(secs, out)| {
            s.untraced("paper_pa", secs);
            checks::sim(&out, &reference, vms)
        });
        tally.pass(&label("paper_pa"), n, pass);
        let pass = (|| {
            let model = Span::shared();
            let alloc = Span::shared();
            let search = SearchMetrics {
                searches: Counter::standalone(),
                partitions_evaluated: Counter::standalone(),
                partitions_feasible: Counter::standalone(),
                candidates_pruned: Counter::standalone(),
                stripe: 0,
            };
            let p = &inputs.pipeline;
            let strategy = Proactive::new(
                TimedModel::new(DbModel::new(p.db.clone()), Rc::clone(&model)),
                OptimizationGoal::new(PA_ALPHA).expect("valid alpha"),
                p.deadlines,
            )
            .with_qos_margin(p.config.qos_margin)
            .with_search_metrics(search.clone());
            let (secs, out, _, sim_self) = traced_sim(inputs, strategy, &alloc, clock_ns)?;
            s.traced("paper_pa", secs);
            s.sim_self_us.entry("pa").or_default().push(sim_self);
            let calls = model.calls();
            s.model_ns_per_call
                .push((model.nanos() as f64 - calls as f64 * clock_ns) / calls as f64);
            s.proactive_self_us.push(
                (alloc.nanos() as f64 - model.nanos() as f64 - calls as f64 * clock_ns) / nf / 1e3,
            );
            checks::sim(&out, &reference, vms)?;
            let counts = Counts::from([
                ("searches", search.searches.get()),
                ("partitions", search.partitions_evaluated.get()),
                ("pruned", search.candidates_pruned.get()),
                ("model_calls", calls),
            ]);
            same_counts(&mut first_counts, "paper_pa", counts)
        })();
        tally.pass(&label("paper_pa traced"), n, pass);

        // paper_ff, untraced then traced.
        let pass = passes::paper(inputs, StrategyKind::Ff2).and_then(|(secs, out)| {
            s.untraced("paper_ff", secs);
            checks::sim(&out, ff_reference.get_or_insert_with(|| out.clone()), vms)
        });
        tally.pass(&label("paper_ff"), n, pass);
        let pass = (|| {
            let alloc = Span::shared();
            let slots = inputs.pipeline.ground_truth.server().cpu_slots();
            let (secs, out, physics_calls, sim_self) =
                traced_sim(inputs, FirstFit::with_multiplex(slots, 2), &alloc, clock_ns)?;
            s.traced("paper_ff", secs);
            s.sim_self_us.entry("ff").or_default().push(sim_self);
            checks::sim(&out, ff_reference.get_or_insert_with(|| out.clone()), vms)?;
            same_counts(
                &mut first_counts,
                "paper_ff",
                Counts::from([("physics_calls", physics_calls)]),
            )
        })();
        tally.pass(&label("paper_ff traced"), n, pass);

        // service_stream, untraced then traced.
        let pass = passes::stream(inputs).and_then(|(secs, r)| {
            s.untraced("service_stream", secs);
            checks::verdicts(requests, &r.verdicts, &r.stats)
        });
        tally.pass(&label("service_stream"), n, pass);
        let pass = passes::stream_traced(inputs).and_then(|run| {
            s.traced("service_stream", run.secs);
            s.submit_us.extend(run.submit_us);
            s.drain_ms.push(run.drain_ms);
            s.admitted += run.stats.admitted_local + run.stats.admitted_cross_shard;
            s.admitted_cross += run.stats.admitted_cross_shard;
            checks::verdicts(requests, &run.verdicts, &run.stats)
        });
        tally.pass(&label("service_stream traced"), n, pass);

        // service_durable, untraced then traced with the journal priced
        // again.
        let pass =
            passes::durable(inputs, &opts.tmp_dir, Telemetry::disabled(), false).and_then(|run| {
                s.untraced("service_durable", run.secs);
                s.ack_us.extend_from_slice(&run.ack_us);
                passes::check_durable(inputs, &run, &mut first_log)
            });
        tally.pass(&label("service_durable"), n, pass);
        let pass = passes::durable(inputs, &opts.tmp_dir, Telemetry::new(), true).and_then(|run| {
            s.traced("service_durable", run.secs);
            let lost = passes::check_durable(inputs, &run, &mut first_log)?;
            let metric = |name| run.metrics.counter(name);
            let mut counts = Counts::from([
                ("memo_hits", metric("service.cache.hits")),
                ("memo_misses", metric("service.cache.misses")),
                ("partitions", metric("service.search.partitions_evaluated")),
                ("snapshots", run.stats.durability.snapshots_written),
            ]);
            if let Some(r) = run.repriced {
                s.append_us.extend(r.append_us);
                s.sync_us.extend(r.sync_us);
                s.snapshot_us.push(r.snapshot_us);
                s.snapshot_bytes = r.snapshot_bytes;
                counts.insert("frames", r.frames);
                counts.insert("wal_bytes", r.bytes);
            }
            same_counts(&mut first_counts, "service_durable", counts).map(|_| lost)
        });
        tally.pass(&label("service_durable traced"), n, pass);

        let pass = passes::threadless(inputs).and_then(|(secs, out)| {
            s.threadless_s.push(secs);
            checks::sim(&out, &reference, vms)
        });
        tally.pass(&label("threadless"), n, pass);

        rounds += 1;
        if rounds >= opts.min_passes && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    report.meta("rounds", rounds);

    let count = |kind: &str, key: &str| {
        first_counts
            .get(kind)
            .and_then(|c: &Counts| c.get(key))
            .map_or(f64::NAN, |&v| v as f64)
    };
    let per_req = |kind: &str, key: &str| count(kind, key) / nf;
    let mut push = |name: &str, value: f64, samples: usize| {
        report.push(PER_LAYER, name, value, samples);
    };
    push("benchdb.build_s", median(&db_s), db_s.len());
    push("swf.trace_s", median(&swf_s), swf_s.len());
    push(
        "core.proactive.searches_per_req",
        per_req("paper_pa", "searches"),
        n,
    );
    push(
        "core.proactive.partitions_per_req",
        per_req("paper_pa", "partitions"),
        n,
    );
    push(
        "core.proactive.pruned_per_req",
        per_req("paper_pa", "pruned"),
        n,
    );
    push(
        "core.proactive.self_us_per_req",
        median(&s.proactive_self_us),
        s.proactive_self_us.len(),
    );
    push(
        "core.model.calls_per_req",
        per_req("paper_pa", "model_calls"),
        n,
    );
    push(
        "core.model.ns_per_call",
        median(&s.model_ns_per_call),
        s.model_ns_per_call.len(),
    );
    for (kind, name) in [
        ("pa", "simulator.pa.self_us_per_req"),
        ("ff", "simulator.ff.self_us_per_req"),
    ] {
        let v = s.sim_self_us.get(kind).map_or(&[][..], Vec::as_slice);
        push(name, median(v), v.len());
    }
    push(
        "simulator.physics_calls_per_req",
        per_req("paper_ff", "physics_calls"),
        n,
    );
    push(
        "service.submit_us_p50",
        median(&s.submit_us),
        s.submit_us.len(),
    );
    push("service.drain_ms", median(&s.drain_ms), s.drain_ms.len());
    push(
        "service.slow_path_frac",
        s.admitted_cross as f64 / s.admitted.max(1) as f64,
        s.admitted as usize,
    );
    let hits = count("service_durable", "memo_hits");
    let lookups = hits + count("service_durable", "memo_misses");
    push("service.memo.lookups_per_req", lookups / nf, n);
    push("service.memo.hit_ratio", hits / lookups, lookups as usize);
    push(
        "service.search.partitions_per_req",
        per_req("service_durable", "partitions"),
        n,
    );
    let threadless_us = median(&s.threadless_s) / nf * 1e6;
    push(
        "service.threadless_us_per_req",
        threadless_us,
        s.threadless_s.len(),
    );
    let stream_s = s
        .untraced_s
        .get("service_stream")
        .map_or(&[][..], Vec::as_slice);
    push(
        "service.machinery_us_per_req",
        median(stream_s) / nf * 1e6 - threadless_us,
        stream_s.len(),
    );
    push(
        "service.ack_us_p50",
        quantile(&s.ack_us, 0.5),
        s.ack_us.len(),
    );
    push(
        "service.ack_us_p99",
        quantile(&s.ack_us, 0.99),
        s.ack_us.len(),
    );
    push(
        "durability.frames_per_req",
        per_req("service_durable", "frames"),
        n,
    );
    push(
        "durability.bytes_per_req",
        per_req("service_durable", "wal_bytes"),
        n,
    );
    push(
        "durability.append_us_p50",
        median(&s.append_us),
        s.append_us.len(),
    );
    push(
        "durability.sync_us_p50",
        median(&s.sync_us),
        s.sync_us.len(),
    );
    push(
        "durability.snapshots_per_kreq",
        per_req("service_durable", "snapshots") * 1e3,
        n,
    );
    push(
        "durability.snapshot_bytes",
        s.snapshot_bytes as f64,
        s.snapshot_us.len(),
    );
    push(
        "durability.snapshot_us_p50",
        median(&s.snapshot_us),
        s.snapshot_us.len(),
    );
    for kind in ["paper_pa", "paper_ff", "service_stream", "service_durable"] {
        let (frac, samples) = s.overhead(kind);
        push(&format!("telemetry.overhead_frac.{kind}"), frac, samples);
    }
    Ok(())
}
