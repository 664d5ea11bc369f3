//! Fig. 5 — "Makespan (s)": workload execution time for FF, FF-2, FF-3,
//! PA-1, PA-0 and PA-0.5 on the SMALLER and LARGER clouds, replaying the
//! 10,000-VM adapted trace.

#![forbid(unsafe_code)]

use eavm_bench::chart::chart_of;
use eavm_bench::report::{pct_delta, Table};
use eavm_bench::{Pipeline, PipelineConfig};

fn main() {
    let p = Pipeline::build(PipelineConfig::default()).expect("pipeline");
    eprintln!(
        "trace: {} requests, {} VMs; clouds: {:?}",
        p.requests.len(),
        p.total_vms(),
        p.clouds()
    );

    let outcomes = p.run_matrix().expect("matrix");
    let mut t = Table::new(vec!["cloud", "strategy", "makespan_s", "vs FF (%)"]);
    let mut ff_per_cloud = std::collections::BTreeMap::new();
    for o in &outcomes {
        if o.strategy == "FF" {
            ff_per_cloud.insert(o.cloud.clone(), o.makespan().value());
        }
    }
    for o in &outcomes {
        let ff = ff_per_cloud[&o.cloud];
        t.row(vec![
            o.cloud.clone(),
            o.strategy.clone(),
            format!("{:.0}", o.makespan().value()),
            format!("{:+.1}", pct_delta(ff, o.makespan().value())),
        ]);
    }
    println!("{}", t.render());

    let rows: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| (format!("{}/{}", o.cloud, o.strategy), o.makespan().value()))
        .collect();
    println!("{}", chart_of(&rows, 48, |v| format!("{v:.0} s")));

    let best_pa = outcomes
        .iter()
        .filter(|o| o.cloud == "SMALLER" && o.strategy.starts_with("PA"))
        .map(|o| o.makespan().value())
        .fold(f64::INFINITY, f64::min);
    println!(
        "headline: PROACTIVE shortens the SMALLER-cloud makespan by {:.1}% vs FF \
         (paper: up to 18% shorter execution times)",
        -pct_delta(ff_per_cloud["SMALLER"], best_pa)
    );
}
