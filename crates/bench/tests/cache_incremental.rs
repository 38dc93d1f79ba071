//! End-to-end incremental-sweep checks through the public API: a cold
//! run populates the cell cache, a warm run under identical config and
//! sources re-executes nothing, and the emitted documents stay
//! bit-identical either way — the cache must be invisible in every
//! output except its own counters.

use ebc_bench::baseline::baseline_doc;
use ebc_bench::measure::RunConfig;
use ebc_bench::{find_experiment, run_experiment};

fn quick_config(cache_dir: &std::path::Path) -> RunConfig {
    RunConfig {
        seeds: Some(2),
        quick: true,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..RunConfig::default()
    }
}

#[test]
fn warm_rerun_executes_zero_cells_and_emits_identical_documents() {
    let dir = std::env::temp_dir().join("ebc_cache_incremental");
    std::fs::remove_dir_all(&dir).ok();
    let spec = find_experiment("table1_lower").unwrap();
    let config = quick_config(&dir);

    let cold = run_experiment(spec, &config);
    let stats = cold.cache.expect("cache configured");
    assert_eq!(stats.hits, 0, "cold run cannot hit");
    assert_eq!(stats.misses, cold.cases.len());
    assert_eq!(stats.invalidated, 0);
    assert!(!cold.cases.is_empty());

    let warm = run_experiment(spec, &config);
    let stats = warm.cache.expect("cache configured");
    assert_eq!(stats.misses, 0, "warm run must re-execute nothing");
    assert_eq!(stats.invalidated, 0);
    assert_eq!(stats.hits, warm.cases.len());

    // The wall-clock profile tells the same story: every warm cell is
    // marked cached with exactly zero sim time (nothing executed), which
    // is what CI's warm-gate assertion on BENCH_profile.json reads.
    assert_eq!(warm.profile.cells.len(), warm.cases.len());
    for cell in &warm.profile.cells {
        assert!(
            cell.cached,
            "warm cell {} not served from cache",
            cell.label
        );
        assert_eq!(
            cell.sim,
            std::time::Duration::ZERO,
            "warm cell {} spent sim time",
            cell.label
        );
    }
    let cold_sim = cold.profile.totals().1;
    assert!(cold_sim > std::time::Duration::ZERO, "cold run simulated");

    // Loaded cells must be indistinguishable from executed ones: same
    // result JSON (modulo the cache counters) and same baseline doc,
    // which is what the gate diffs against.
    let strip = |r: &ebc_bench::ExperimentResult| {
        let mut r = clone_result(r);
        r.cache = None;
        r.to_json().to_string_pretty()
    };
    assert_eq!(strip(&cold), strip(&warm));
    assert_eq!(
        baseline_doc(&cold).to_string_pretty(),
        baseline_doc(&warm).to_string_pretty()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncached_and_cached_runs_agree() {
    let dir = std::env::temp_dir().join("ebc_cache_vs_uncached");
    std::fs::remove_dir_all(&dir).ok();
    let spec = find_experiment("fig1_path").unwrap();

    let cached = run_experiment(spec, &quick_config(&dir));
    assert!(cached.cache.is_some());
    let uncached = run_experiment(
        spec,
        &RunConfig {
            seeds: Some(2),
            quick: true,
            ..RunConfig::default()
        },
    );
    assert!(uncached.cache.is_none());
    assert_eq!(
        baseline_doc(&cached).to_string_pretty(),
        baseline_doc(&uncached).to_string_pretty()
    );

    std::fs::remove_dir_all(&dir).ok();
}

fn clone_result(r: &ebc_bench::ExperimentResult) -> ebc_bench::ExperimentResult {
    ebc_bench::ExperimentResult {
        spec: r.spec,
        config: r.config.clone(),
        cases: r.cases.clone(),
        extra: r.extra.clone(),
        cache: r.cache,
        profile: r.profile.clone(),
    }
}
