//! Fig. 6 — "Energy consumption (J)": total energy for each strategy ×
//! cloud, replaying the 10,000-VM adapted trace.

#![forbid(unsafe_code)]

use eavm_bench::chart::chart_of;
use eavm_bench::report::{grouped, pct_delta, Table};
use eavm_bench::{Pipeline, PipelineConfig};

fn main() {
    let p = Pipeline::build(PipelineConfig::default()).expect("pipeline");
    let outcomes = p.run_matrix().expect("matrix");

    let mut t = Table::new(vec![
        "cloud",
        "strategy",
        "energy_J",
        "static_share",
        "vs FF (%)",
    ]);
    let mut ff_per_cloud = std::collections::BTreeMap::new();
    for o in &outcomes {
        if o.strategy == "FF" {
            ff_per_cloud.insert(o.cloud.clone(), o.energy.value());
        }
    }
    for o in &outcomes {
        let ff = ff_per_cloud[&o.cloud];
        t.row(vec![
            o.cloud.clone(),
            o.strategy.clone(),
            grouped(o.energy.value()),
            format!("{:.0}%", 100.0 * o.idle_energy_fraction()),
            format!("{:+.1}", pct_delta(ff, o.energy.value())),
        ]);
    }
    println!("{}", t.render());

    let rows: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| (format!("{}/{}", o.cloud, o.strategy), o.energy.value()))
        .collect();
    println!("{}", chart_of(&rows, 48, |v| format!("{:.0} MJ", v / 1e6)));

    // Headline claims to compare against the paper's Sect. IV-E.
    let find = |cloud: &str, strat: &str| {
        outcomes
            .iter()
            .find(|o| o.cloud == cloud && o.strategy == strat)
            .map(|o| o.energy.value())
            .expect("outcome present")
    };
    let pa1 = find("SMALLER", "PA-1");
    let pa0 = find("SMALLER", "PA-0");
    println!(
        "headline: PA-1 saves {:.1}% energy vs FF on the SMALLER cloud (paper: ~12% on average)",
        -pct_delta(ff_per_cloud["SMALLER"], pa1)
    );
    println!(
        "headline: the energy goal (PA-1) saves {:.1}% more than the performance goal (PA-0) \
         (paper: almost 3%)",
        -pct_delta(pa0, pa1)
    );
    println!(
        "headline: SMALLER-cloud FF consumes {:.1}% less energy than LARGER-cloud FF \
         (paper: SMALLER consumes less despite the longer makespan)",
        -pct_delta(find("LARGER", "FF"), find("SMALLER", "FF"))
    );
}
