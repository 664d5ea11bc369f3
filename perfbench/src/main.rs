//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_pa|service_stream|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the run metadata and every metric with its unit and sample
//! count, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--workload all` runs every
//! workload untraced and then the traced ladder. Exits 1 when a check
//! fails and 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;

use eavm_bench::PipelineConfig;
use eavm_perfbench::{run, Options, Report, Workload};

/// Per-pass journal directories live here, inside the working
/// directory, and are removed as each pass ends.
const TMP_DIR: &str = ".perfbench_tmp";

/// `Pipeline::build` repetitions behind `setup_s`.
const SETUPS: usize = 15;

/// Passes (ladder rounds) run however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PipelineConfig::default().seed;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = parse_u64(&value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!("--workload is required: {}|all", names.join("|")))?;
    let (workloads, all) = if workload == "all" {
        (Workload::ALL.to_vec(), true)
    } else {
        let w = Workload::from_name(&workload).ok_or(format!(
            "unknown workload {workload}: {}|all",
            names.join("|")
        ))?;
        (vec![w], false)
    };
    Ok(Args {
        workloads,
        all,
        seed,
        seconds,
        trace,
    })
}

fn run_one(args: &Args, workload: Workload, trace: bool) -> Result<Report, String> {
    let opts = Options {
        workload,
        trace,
        pipeline: PipelineConfig {
            seed: args.seed,
            ..PipelineConfig::default()
        },
        seconds: args.seconds,
        min_passes: MIN_PASSES,
        setups: SETUPS,
        tmp_dir: PathBuf::from(TMP_DIR),
    };
    let report = run(&opts)?;
    print!("{}", report.render());
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    if args.all {
        for &workload in &args.workloads {
            runs.push((workload, false));
        }
        runs.push((args.workloads[0], true));
    } else {
        runs.push((args.workloads[0], args.trace));
    }
    let mut reports = Vec::new();
    for (workload, trace) in runs {
        println!("## {}", if trace { "ladder" } else { workload.name() });
        match run_one(&args, workload, trace) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let correct = reports.iter().all(Report::correct);
    let last = if args.all {
        merge(&args.workloads, &reports)
    } else {
        reports.pop().expect("one report")
    };
    println!("{}", last.json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One summary for `--workload all`: end-to-end metrics prefixed by
/// their workload, per-layer metrics as they are.
fn merge(workloads: &[Workload], reports: &[Report]) -> Report {
    let mut merged = Report::default();
    for (i, report) in reports.iter().enumerate() {
        merged.attempted += report.attempted;
        merged.failed += report.failed;
        merged.problems.extend(report.problems.iter().cloned());
        for metric in &report.metrics {
            let mut metric = metric.clone();
            if let Some(w) = workloads.get(i) {
                metric.name = format!("{}/{}", w.name(), metric.name);
            }
            merged.metrics.push(metric);
        }
    }
    merged
}
