//! Calibration probe: run the strategy × cloud matrix at reduced scale
//! and print the headline comparisons. Not part of the published
//! experiment set; used to tune pipeline constants.

#![forbid(unsafe_code)]

use eavm_bench::report::Table;
use eavm_bench::{Pipeline, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let total_vms: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let smaller: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(26);
    let gap: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(90.0);
    let qos: f64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(3.0);
    let margin: f64 = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(0.65);

    let cfg = PipelineConfig {
        total_vms,
        smaller_servers: smaller,
        mean_burst_gap_s: gap,
        qos_factor: qos,
        qos_margin: margin,
        ..Default::default()
    };
    eprintln!("building pipeline: {cfg:?}");
    let p = Pipeline::build(cfg).unwrap();
    eprintln!(
        "requests={} vms={} deadlines={:?} bounds={}",
        p.requests.len(),
        p.total_vms(),
        p.deadlines,
        p.db.aux().os_bounds
    );

    let mut t = Table::new(vec![
        "cloud",
        "strategy",
        "makespan_s",
        "energy_MJ",
        "sla_pct",
        "peak_busy",
        "mean_wait_s",
    ]);
    #[expect(
        clippy::disallowed_methods,
        reason = "reports the matrix's wall-clock run time; no outcome depends on it"
    )]
    let start = std::time::Instant::now();
    for out in p.run_matrix().unwrap() {
        t.row(vec![
            out.cloud.clone(),
            out.strategy.clone(),
            format!("{:.0}", out.makespan().value()),
            format!("{:.2}", out.energy.value() / 1e6),
            format!("{:.1}", out.sla_violation_pct()),
            format!("{}", out.peak_servers_busy),
            format!("{:.0}", out.mean_wait_time().value()),
        ]);
    }
    println!("{}", t.render());
    eprintln!("matrix wall time: {:.1}s", start.elapsed().as_secs_f64());
}
