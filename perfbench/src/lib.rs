//! The repository benchmark.
//!
//! One trace, the paper's EGEE-like 10,000-VM workload built by
//! [`eavm_bench::Pipeline`], is driven through the program's top-level
//! entry points only (`Simulation::run`, `replay_online`,
//! `AllocService::start/submit/drain/shutdown`, `drive_paced`,
//! `replay_deterministic` and the `eavm-durability` functions), so the
//! internals behind them can be reworked without touching this crate.
//!
//! * An untraced run (`--trace 0`) replays the trace in repeated passes
//!   of one [`Workload`], each pass from a fresh simulator or service,
//!   and reports the end-to-end metrics in [`END_TO_END`].
//! * A traced run (`--trace 1`) runs the per-layer ladder
//!   ([`ladder`]): every pass kind, traced and untraced in alternation,
//!   timing the calls into each layer's public functions from outside.
//!   It reports every metric in [`PER_LAYER`], whatever the workload.
//!
//! Every pass is checked for correctness; see [`checks`].

pub mod checks;
pub mod journal;
pub mod ladder;
pub mod passes;
pub mod probe;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use eavm_bench::{Pipeline, PipelineConfig};

use crate::checks::Tally;
use crate::passes::Inputs;

/// One traffic mix the untraced run can measure.
///
/// The ladder also prices an FF-2 pass and a durable paced pass, but
/// neither is an end-to-end workload: their throughput follows the load
/// other tenants put on the host (up to 1.9x and 2.6x between runs
/// minutes apart on a 2-vCPU VM), far beyond any bound a gate could
/// hold, while these two stay within about 10%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Simulation::run` with PA-0.5 on the SMALLER cloud: the paper's
    /// reproduction path, dominated by partition search and model
    /// lookups.
    PaperPa,
    /// `replay_online` on one shard with blocking backpressure, no
    /// journal and telemetry off: admission machinery at saturation.
    ServiceStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::PaperPa, Workload::ServiceStream];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPa => "paper_pa",
            Workload::ServiceStream => "service_stream",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric the benchmark declares: its name and unit.
pub type Declared = (&'static str, &'static str);

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Declared] = &[
    // Requests brought to a final result per wall second on the
    // workload's path: simulated (paper_pa), or given a final verdict
    // including service start, drain and shutdown (service_stream).
    // Median over the run's passes.
    ("req_per_s", "1/s"),
    // `Pipeline::build` (DB campaign plus trace synthesis, cleaning and
    // adaptation); median of the run's set-ups, which are spread over
    // the pass loop so they meet the same host conditions as the passes.
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. `README.md` maps
/// each to the end-to-end metric and workload it should move.
pub const PER_LAYER: &[Declared] = &[
    ("benchdb.build_s", "s"),
    ("swf.trace_s", "s"),
    ("core.proactive.searches_per_req", "count"),
    ("core.proactive.partitions_per_req", "count"),
    ("core.proactive.pruned_per_req", "count"),
    ("core.proactive.self_us_per_req", "us"),
    ("core.model.calls_per_req", "count"),
    ("core.model.ns_per_call", "ns"),
    ("simulator.pa.self_us_per_req", "us"),
    ("simulator.ff.self_us_per_req", "us"),
    ("simulator.physics_calls_per_req", "count"),
    ("service.submit_us_p50", "us"),
    ("service.drain_ms", "ms"),
    ("service.slow_path_frac", "ratio"),
    ("service.memo.lookups_per_req", "count"),
    ("service.memo.hit_ratio", "ratio"),
    ("service.search.partitions_per_req", "count"),
    ("service.threadless_us_per_req", "us"),
    ("service.machinery_us_per_req", "us"),
    ("service.ack_us_p50", "us"),
    ("service.ack_us_p99", "us"),
    ("durability.frames_per_req", "count"),
    ("durability.bytes_per_req", "bytes"),
    ("durability.append_us_p50", "us"),
    ("durability.sync_us_p50", "us"),
    ("durability.snapshots_per_kreq", "count"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.snapshot_us_p50", "us"),
    ("telemetry.overhead_frac.paper_pa", "ratio"),
    ("telemetry.overhead_frac.paper_ff", "ratio"),
    ("telemetry.overhead_frac.service_stream", "ratio"),
    ("telemetry.overhead_frac.service_durable", "ratio"),
];

/// How one benchmark run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload of an untraced run; a traced run measures the ladder.
    pub workload: Workload,
    /// `--trace 1`: report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Trace shape; `seed` is the workload seed.
    pub pipeline: PipelineConfig,
    /// Wall time the pass loop runs for.
    pub seconds: f64,
    /// Passes run even when `seconds` is already spent (≥ 1).
    pub min_passes: usize,
    /// `Pipeline::build` repetitions behind `setup_s`, spread evenly over
    /// the pass loop (≥ 1).
    pub setups: usize,
    /// Parent of the per-pass journal directories; removed when empty.
    pub tmp_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name (prefixed by its workload in a merged report).
    pub name: String,
    /// Declared unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (passes, calls or requests).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests attempted across all passes.
    pub attempted: u64,
    /// Requests failed: shed or missing verdicts, and every request of
    /// an errored or incorrect pass.
    pub failed: u64,
    /// What each failed check found.
    pub problems: Vec<String>,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Run metadata (`nproc`, seed, trace shape, sample counts, ...).
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Record a metric; `name` must be declared in `table`.
    fn push(&mut self, table: &[Declared], name: &str, value: f64, samples: usize) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite: {value}"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: metadata, then every metric with its unit
    /// and sample count, then any failed check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.meta {
            out.push_str(&format!("# {key}={value}\n"));
        }
        out.push_str(&format!(
            "# failed_frac={} ({} of {} requests)\n",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<42} {:>16.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for problem in &self.problems {
            out.push_str(&format!("FAILED: {problem}\n"));
        }
        out
    }
}

/// JSON has no NaN or infinity; a non-finite metric has already failed
/// the run (see `Report::push`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Wall time of one `Pipeline::build`, and the pipeline.
fn build(config: &PipelineConfig) -> Result<(f64, Pipeline), String> {
    let t = Instant::now();
    let pipeline = Pipeline::build(config.clone()).map_err(|e| format!("Pipeline::build: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), pipeline))
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (setup_s, pipeline) = build(&opts.pipeline)?;
    let inputs = Inputs::new(pipeline);
    let mut report = Report::default();
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.meta("seed", opts.pipeline.seed);
    report.meta("requests", inputs.requests().len());
    report.meta("vms", inputs.vms);
    report.meta("servers", inputs.cloud.servers);
    std::fs::create_dir_all(&opts.tmp_dir)
        .map_err(|e| format!("create {}: {e}", opts.tmp_dir.display()))?;
    report.meta("journal_fs", journal::filesystem(&opts.tmp_dir));

    let mut tally = Tally::default();
    let result = if opts.trace {
        report.meta("mode", "ladder");
        ladder::run(opts, &inputs, &mut tally, &mut report)
    } else {
        report.meta("mode", opts.workload.name());
        passes::measure(opts, &inputs, setup_s, &mut tally, &mut report)
    };
    // Only removes the parent when every per-pass directory is gone.
    let _ = std::fs::remove_dir(&opts.tmp_dir);
    result?;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.problems.extend(tally.problems);
    Ok(report)
}
