//! Runs every workload and the ladder at `PipelineConfig::small` scale,
//! twice, and checks the benchmark against its own declaration: every
//! metric in `BENCHMARK.json` is emitted with its declared unit, the
//! exact counts repeat, and no journal directory is left behind.

use std::path::{Path, PathBuf};

use eavm_bench::PipelineConfig;
use eavm_perfbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric entry in one section of
/// `BENCHMARK.json` (the entries carrying a `unit`).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name closes");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .map(|(u, _)| u.to_string())
                .expect("entry has a unit");
            (name.to_string(), unit)
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn small(workload: Workload, trace: bool, tmp_dir: &Path) -> Report {
    let opts = Options {
        workload,
        trace,
        pipeline: PipelineConfig::small(11),
        seconds: 0.0,
        min_passes: 2,
        setups: 1,
        tmp_dir: tmp_dir.to_path_buf(),
    };
    let report = run(&opts).expect("benchmark run");
    assert!(
        report.correct(),
        "{} failed its checks:\n{}",
        workload.name(),
        report.render()
    );
    report
}

/// Values that must repeat exactly for a fixed seed: counts and sizes.
fn counts(report: &Report) -> Vec<(String, u64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "bytes")
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn declaration_matches_the_code() {
    let table = |t: &[(&str, &str)]| {
        sorted(
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect(),
        )
    };
    assert_eq!(sorted(declared("end_to_end")), table(END_TO_END));
    assert_eq!(sorted(declared("per_layer")), table(PER_LAYER));
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("read README.md");
    for (name, _) in PER_LAYER {
        let key = name
            .strip_prefix("telemetry.overhead_frac.")
            .map_or(*name, |_| "telemetry.overhead_frac.<kind>");
        assert!(
            readme.contains(&format!("| `{key}` |")),
            "{name} missing from the movement map"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_counts_repeat() {
    let tmp_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    let _ = std::fs::remove_dir_all(&tmp_dir);
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));

    let mut rounds = Vec::new();
    for _ in 0..2 {
        for workload in Workload::ALL {
            let report = small(workload, false, &tmp_dir);
            assert_eq!(sorted(emitted(&report)), end_to_end, "{}", workload.name());
        }
        let ladder = small(Workload::PaperPa, true, &tmp_dir);
        assert_eq!(sorted(emitted(&ladder)), per_layer);
        rounds.push(counts(&ladder));
        assert!(
            !tmp_dir.exists(),
            "journal directories left behind in {}",
            tmp_dir.display()
        );
    }
    assert!(!rounds[0].is_empty());
    assert_eq!(rounds[0], rounds[1], "counts differ between runs");
}
