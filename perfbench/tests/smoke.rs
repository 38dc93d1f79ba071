//! Smoke runs of every workload at toy sizes: each emits every metric
//! `BENCHMARK.json` names, with its unit, and passes every output check.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use ebc_bench::json::Json;

const WORKLOADS: [&str; 4] = [
    "thm12-cd-tree",
    "dense-32k",
    "registry-grid-256",
    "matrix-cd-star",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// Runs one smoke workload and returns its result line.
fn run(workload: &str, trace: u8) -> Json {
    let out_dir: PathBuf = std::env::current_exe()
        .expect("test executable path")
        .parent()
        .expect("target directory")
        .join(format!("perfbench-smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--smoke")
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

/// Checks the result line against the metric list of `section`.
fn check(workload: &str, trace: u8, section: &str) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let bench = benchmark_json();
    let wanted = bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list");
    let mut names = BTreeSet::new();
    for metric in wanted {
        let name = metric
            .get("name")
            .and_then(Json::as_str)
            .expect("metric name");
        let unit = metric
            .get("unit")
            .and_then(Json::as_str)
            .expect("metric unit");
        names.insert(name);
        let got = metrics
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} not emitted"));
        assert_eq!(
            got.1.get("unit").and_then(Json::as_str),
            Some(unit),
            "{workload}: {name}"
        );
        assert!(
            got.1.get("value").and_then(Json::as_f64).is_some(),
            "{workload}: {name}"
        );
    }
    assert_eq!(
        emitted, names,
        "{workload} trace {trace}: emitted metrics differ from {section}"
    );
}

#[test]
fn every_workload_is_named_in_benchmark_json() {
    let bench = benchmark_json();
    let named: BTreeSet<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(named, WORKLOADS.into_iter().collect());
}

#[test]
fn thm12_cd_tree_smoke() {
    check(WORKLOADS[0], 0, "end_to_end");
    check(WORKLOADS[0], 1, "per_layer");
}

#[test]
fn dense_32k_smoke() {
    check(WORKLOADS[1], 0, "end_to_end");
    check(WORKLOADS[1], 1, "per_layer");
}

#[test]
fn registry_grid_256_smoke() {
    check(WORKLOADS[2], 0, "end_to_end");
    check(WORKLOADS[2], 1, "per_layer");
}

#[test]
fn matrix_cd_star_smoke() {
    check(WORKLOADS[3], 0, "end_to_end");
    check(WORKLOADS[3], 1, "per_layer");
}
