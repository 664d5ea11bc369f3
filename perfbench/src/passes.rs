//! One function per pass kind, and the untraced measurement loop.
//!
//! A pass replays the whole trace once from a fresh simulator or
//! service and returns its wall time with what the checks need.

use std::fmt::Display;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eavm_bench::{Pipeline, StrategyKind};
use eavm_core::{AllocationModel, AllocationStrategy, OptimizationGoal};
use eavm_service::{
    drive_paced, replay_deterministic, replay_online, AllocService, DeterministicConfig,
    ReplayReport, ServiceConfig, ServiceStats, Verdict,
};
use eavm_simulator::{CloudConfig, SimOutcome, Simulation};
use eavm_swf::VmRequest;
use eavm_telemetry::{MetricsSnapshot, Telemetry};

use crate::checks::{self, Tally};
use crate::journal::{self, Repriced, TempDir};
use crate::stats::{median, quantile};
use crate::{Options, Report, Workload, END_TO_END};

/// PROACTIVE's goal on the paper's reproduction path (PA-0.5).
pub const PA_ALPHA: f64 = 0.5;

/// The built trace and the SMALLER cloud it runs on.
#[derive(Debug)]
pub struct Inputs {
    /// The pipeline behind every pass.
    pub pipeline: Pipeline,
    /// The SMALLER cloud (the pipeline's reference server count).
    pub cloud: CloudConfig,
    /// VMs across the trace.
    pub vms: u64,
}

fn fail<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Inputs {
    /// Wrap a built pipeline.
    pub fn new(pipeline: Pipeline) -> Inputs {
        let (cloud, _) = pipeline.clouds();
        let vms = pipeline
            .requests
            .iter()
            .map(|r| u64::from(r.vm_count))
            .sum();
        Inputs {
            pipeline,
            cloud,
            vms,
        }
    }

    /// The adapted trace.
    pub fn requests(&self) -> &[VmRequest] {
        &self.pipeline.requests
    }

    /// One shard over the SMALLER cloud, with the pipeline's deadlines
    /// and QoS margin.
    pub fn service_config(&self, telemetry: Arc<Telemetry>) -> ServiceConfig {
        let mut config = ServiceConfig::new(1, self.cloud.servers).with_telemetry(telemetry);
        config.goal = OptimizationGoal::new(PA_ALPHA).expect("valid alpha");
        config.deadlines = self.pipeline.deadlines;
        config.qos_margin = self.pipeline.config.qos_margin;
        config
    }
}

/// One `Simulation::run` of `strategy` over `model`, timed.
pub fn simulate<M: AllocationModel, S: AllocationStrategy + ?Sized>(
    inputs: &Inputs,
    model: M,
    strategy: &mut S,
) -> Result<(f64, SimOutcome), String> {
    let simulation = Simulation::new(model, inputs.cloud.clone());
    let t = Instant::now();
    let outcome = simulation
        .run(strategy, inputs.requests())
        .map_err(fail("Simulation::run"))?;
    Ok((t.elapsed().as_secs_f64(), outcome))
}

/// A paper-path pass: `kind` through `Pipeline::strategy`.
pub fn paper(inputs: &Inputs, kind: StrategyKind) -> Result<(f64, SimOutcome), String> {
    let mut strategy = inputs.pipeline.strategy(kind);
    simulate(
        inputs,
        inputs.pipeline.ground_truth.clone(),
        strategy.as_mut(),
    )
}

/// `replay_deterministic`: the service's memoized allocator with no
/// threads; also the PA-0.5 reference outcome.
pub fn threadless(inputs: &Inputs) -> Result<(f64, SimOutcome), String> {
    let p = &inputs.pipeline;
    let mut config = DeterministicConfig::new(
        OptimizationGoal::new(PA_ALPHA).expect("valid alpha"),
        p.deadlines,
    );
    config.qos_margin = p.config.qos_margin;
    let (model, cloud, db) = (p.ground_truth.clone(), inputs.cloud.clone(), p.db.clone());
    let t = Instant::now();
    let (outcome, _, _) = replay_deterministic(model, cloud, db, &config, inputs.requests())
        .map_err(fail("replay_deterministic"))?;
    Ok((t.elapsed().as_secs_f64(), outcome))
}

/// A `replay_online` pass with telemetry off.
pub fn stream(inputs: &Inputs) -> Result<(f64, ReplayReport), String> {
    let config = inputs.service_config(Telemetry::disabled());
    let t = Instant::now();
    let report = replay_online(&inputs.pipeline.db, config, inputs.requests())
        .map_err(fail("replay_online"))?;
    Ok((t.elapsed().as_secs_f64(), report))
}

/// A streamed pass driven through `AllocService` directly, the way
/// `replay_online` does, timing each `submit` and the drain.
#[derive(Debug)]
pub struct TracedStream {
    /// Start to shutdown.
    pub secs: f64,
    /// Time blocked in each `submit`, µs.
    pub submit_us: Vec<f64>,
    /// `drain` time, ms.
    pub drain_ms: f64,
    /// Every verdict.
    pub verdicts: Vec<(u64, Verdict)>,
    /// Final counters.
    pub stats: ServiceStats,
}

/// A streamed pass with telemetry on.
pub fn stream_traced(inputs: &Inputs) -> Result<TracedStream, String> {
    let config = inputs.service_config(Telemetry::new());
    let db = inputs.pipeline.db.clone();
    let mut submit_us = Vec::with_capacity(inputs.requests().len());
    let t = Instant::now();
    let service = AllocService::start(db, config).map_err(fail("AllocService::start"))?;
    for request in inputs.requests() {
        let request = request.clone();
        let s = Instant::now();
        service.submit(request);
        submit_us.push(micros(s));
    }
    let d = Instant::now();
    service.drain().map_err(fail("AllocService::drain"))?;
    let drain_ms = micros(d) / 1e3;
    let verdicts = service.poll_verdicts();
    let stats = service.shutdown().map_err(fail("AllocService::shutdown"))?;
    Ok(TracedStream {
        secs: t.elapsed().as_secs_f64(),
        submit_us,
        drain_ms,
        verdicts,
        stats,
    })
}

/// A durable paced pass.
#[derive(Debug)]
pub struct DurableRun {
    /// Start to shutdown.
    pub secs: f64,
    /// Round trip of each `drive_paced` call, µs.
    pub ack_us: Vec<f64>,
    /// Every verdict.
    pub verdicts: Vec<(u64, Verdict)>,
    /// Final counters.
    pub stats: ServiceStats,
    /// The telemetry registry after shutdown (empty when disabled).
    pub metrics: MetricsSnapshot,
    /// The journal priced again, when asked for.
    pub repriced: Option<Repriced>,
}

/// Submit one request per `drive_paced` call with the WAL journal on in
/// a fresh directory under `tmp_dir`, then drain and shut down. Checks
/// that `AllocService::recover` on the finished journal reproduces the
/// live final energy and resident VMs; with `reprice`, prices the
/// journal again through `eavm-durability`. The directory is removed
/// however the pass ends.
pub fn durable(
    inputs: &Inputs,
    tmp_dir: &Path,
    telemetry: Arc<Telemetry>,
    reprice: bool,
) -> Result<DurableRun, String> {
    let dir = TempDir::new(tmp_dir, "journal")?;
    let config = inputs
        .service_config(Arc::clone(&telemetry))
        .with_journal_dir(dir.path());
    let cadence = config.durability.as_ref().map_or(1, |d| d.checkpoint_every);
    let db = inputs.pipeline.db.clone();
    let mut ack_us = Vec::with_capacity(inputs.requests().len());
    let t = Instant::now();
    let service = AllocService::start(db, config).map_err(fail("AllocService::start"))?;
    for request in inputs.requests() {
        let a = Instant::now();
        drive_paced(&service, std::slice::from_ref(request)).map_err(fail("drive_paced"))?;
        ack_us.push(micros(a));
    }
    service.drain().map_err(fail("AllocService::drain"))?;
    let verdicts = service.poll_verdicts();
    let stats = service.shutdown().map_err(fail("AllocService::shutdown"))?;
    let secs = t.elapsed().as_secs_f64();

    let recover_config = inputs
        .service_config(Telemetry::disabled())
        .with_journal_dir(dir.path());
    let (recovered, _) = AllocService::recover(inputs.pipeline.db.clone(), recover_config)
        .map_err(fail("AllocService::recover"))?;
    let after = recovered.shutdown().map_err(fail("recovered shutdown"))?;
    if after.estimated_energy.0.to_bits() != stats.estimated_energy.0.to_bits()
        || after.resident_vms != stats.resident_vms
    {
        return Err(format!(
            "recovery gives energy {} J and {} resident VMs, the live run {} J and {}",
            after.estimated_energy.0,
            after.resident_vms,
            stats.estimated_energy.0,
            stats.resident_vms
        ));
    }

    let repriced = if reprice {
        let into = TempDir::new(tmp_dir, "reprice")?;
        Some(journal::reprice(dir.path(), into.path(), cadence)?)
    } else {
        None
    };
    Ok(DurableRun {
        secs,
        ack_us,
        verdicts,
        stats,
        metrics: telemetry.snapshot(),
        repriced,
    })
}

/// Checks a durable pass: verdicts, and a verdict log byte-identical to
/// the first pass's.
pub fn check_durable(
    inputs: &Inputs,
    run: &DurableRun,
    first_log: &mut Option<String>,
) -> Result<u64, String> {
    let lost = checks::verdicts(inputs.requests(), &run.verdicts, &run.stats)?;
    let log = checks::verdict_log(&run.verdicts);
    match first_log {
        Some(first) if *first != log => Err("verdict log differs from the first pass's".into()),
        Some(_) => Ok(lost),
        None => {
            *first_log = Some(log);
            Ok(lost)
        }
    }
}

/// The untraced run: passes of one workload until `opts.seconds` is
/// spent, with `opts.setups` set-ups spread evenly over the loop (the
/// first, `first_setup_s`, built `inputs`). Reports the end-to-end
/// metrics.
pub fn measure(
    opts: &Options,
    inputs: &Inputs,
    first_setup_s: f64,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let n = inputs.requests().len();
    let vms = inputs.vms;
    // One checked pass: its wall time and its shed or missing verdicts.
    let pass: Box<dyn Fn() -> Result<(f64, u64), String>> = match opts.workload {
        Workload::PaperPa => {
            // Every PA pass must equal the threadless replay.
            let reference = threadless(inputs)?.1;
            Box::new(move || {
                let (secs, outcome) = paper(inputs, StrategyKind::Pa(PA_ALPHA))?;
                checks::sim(&outcome, &reference, vms).map(|lost| (secs, lost))
            })
        }
        Workload::ServiceStream => Box::new(|| {
            let (secs, r) = stream(inputs)?;
            checks::verdicts(inputs.requests(), &r.verdicts, &r.stats).map(|lost| (secs, lost))
        }),
    };
    let mut setup_times = vec![first_setup_s];
    let setup_every = opts.seconds / opts.setups.max(1) as f64;
    let set_up = |setup_times: &mut Vec<f64>, tally: &mut Tally| -> Result<(), String> {
        let (secs, pipeline) = crate::build(&opts.pipeline)?;
        setup_times.push(secs);
        let same = (pipeline.requests == inputs.pipeline.requests)
            .then_some(0)
            .ok_or_else(|| "Pipeline::build gave a different trace".to_string());
        tally.pass("set-up", 0, same);
        Ok(())
    };
    let mut rates = Vec::new();
    let mut passes = 0;
    let started = Instant::now();
    loop {
        if setup_times.len() < opts.setups
            && started.elapsed().as_secs_f64() >= setup_times.len() as f64 * setup_every
        {
            set_up(&mut setup_times, tally)?;
        }
        let label = format!("{} pass {passes}", opts.workload.name());
        match pass() {
            Ok((secs, lost)) => {
                rates.push(n as f64 / secs);
                tally.pass(&label, n, Ok(lost));
            }
            Err(e) => tally.pass(&label, n, Err(e)),
        }
        passes += 1;
        if passes >= opts.min_passes && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    while setup_times.len() < opts.setups {
        set_up(&mut setup_times, tally)?;
    }
    report.meta("passes", passes);
    report.meta("setups", setup_times.len());
    report.meta("pass_req_per_s_q1", quantile(&rates, 0.25));
    report.meta("pass_req_per_s_q3", quantile(&rates, 0.75));
    report.push(END_TO_END, "req_per_s", median(&rates), rates.len());
    report.push(
        END_TO_END,
        "setup_s",
        median(&setup_times),
        setup_times.len(),
    );
    Ok(())
}
