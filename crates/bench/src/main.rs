//! The experiment CLI.
//!
//! ```text
//! cargo run --release -p ebc-bench -- --list
//! cargo run --release -p ebc-bench -- --experiment fig1_path --quick
//! cargo run --release -p ebc-bench -- --seeds 10 --out-dir results/
//! cargo run --release -p ebc-bench -- --update-baselines
//! cargo run --release -p ebc-bench -- --quick --check-against bench-baselines
//! ```
//!
//! With no `--experiment` every registered experiment runs. Each run
//! prints an aligned table and writes a schema-stable
//! `BENCH_<experiment>.json` to the output directory (the scenario matrix
//! additionally writes `BENCH_scaling_fits.json`).
//!
//! `--check-against <dir>` turns the run into a regression gate over
//! **every selected experiment** (all of them by default): each is
//! re-run and its per-case summary means and fitted scaling exponents
//! (by bootstrap-CI overlap) are diffed against the checked-in
//! `<dir>/<experiment>.json`, exiting nonzero on any out-of-tolerance
//! drift and writing a per-experiment `BENCH_gate_report.json` (plus a
//! markdown `BENCH_gate_summary.md` for CI step summaries) to the
//! output directory. `--update-baselines` refreshes the whole
//! `bench-baselines/` directory in one step. Both force an unlimited
//! per-cell budget so the gated case set never depends on machine speed.
//!
//! Every run drains through the on-disk cell cache (`--cache-dir`,
//! default `.ebc-cache`): a cell stored under the same config by a binary
//! built from the same sources (the vendored dataset samples included)
//! loads from disk instead of re-executing, so a warm `--check-against`
//! run re-executes zero cells. `--no-cache` opts out,
//! `--print-fingerprint` emits the code digest CI keys its cache restore
//! on, and hit/miss/invalidation counts land in `BENCH_cache_stats.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use ebc_bench::baseline::{self, GateOutcome};
use ebc_bench::cache::{code_digest, CacheStats};
use ebc_bench::json::Json;
use ebc_bench::measure::{RunnerProfile, UNLIMITED_BUDGET_MS};
use ebc_bench::{
    find_experiment, report_and_write, run_experiment, ExperimentSpec, RunConfig, EXPERIMENTS,
};

/// Where `--update-baselines` writes (and CI reads) the checked-in gate.
const BASELINE_DIR: &str = "bench-baselines";

/// Default on-disk cell cache (CI persists this across runs).
const CACHE_DIR: &str = ".ebc-cache";

struct Args {
    list: bool,
    experiments: Vec<String>,
    config: RunConfig,
    out_dir: PathBuf,
    check_against: Option<PathBuf>,
    update_baselines: bool,
    cache_dir: PathBuf,
    no_cache: bool,
    print_fingerprint: bool,
}

const USAGE: &str = "\
Usage: ebc-bench [OPTIONS]

Options:
  --list                 List registered experiments and exit
  --experiment <NAME>    Run only this experiment (exact name or unique
                         substring; repeatable). Default: run all.
  --seeds <N>            Override the per-case seed count
  --quick                Smaller sweeps and fewer seeds (CI smoke mode)
  --family <NAME>        Scenario matrix: only this graph family
                         (e.g. cycle, grid, hypercube, unit-disk)
  --model <NAME>         Scenario matrix: only this collision model
                         (local, cd, cd-star, no-cd)
  --algo <NAME>          Scenario matrix: only this algorithm
                         (e.g. theorem11, bgi_decay, path_theorem21)
  --fault <NAME>         Scenario matrix: only this fault plan
                         (none, slot-loss, crash, jammer)
  --budget-ms <N>        Scenario matrix: wall-clock budget per (algorithm,
                         family, model) cell before its n-sweep truncates
                         (0 = first size only; default 250 quick / 2000 full)
  --trace-out <PATH>     Scenario matrix: re-run the first compatible cell
                         with telemetry on and write its Chrome trace-event
                         JSON to PATH (plus a .jsonl sibling); load it at
                         https://ui.perfetto.dev or chrome://tracing
  --check-against <DIR>  Regression gate: run every selected experiment
                         (default: all) and diff per-case summary means
                         and scaling-exponent CIs against
                         <DIR>/<experiment>.json; writes
                         BENCH_gate_report.json and exits nonzero on drift
  --update-baselines     Rewrite bench-baselines/ (one file per registered
                         experiment) from fresh quick runs, then exit
  --cache-dir <DIR>      On-disk cell cache: warm cells (same cell config,
                         stored by a binary built from the same sources)
                         are loaded instead of re-executed
                         (default .ebc-cache)
  --no-cache             Disable the cell cache (every cell re-executes)
  --print-fingerprint    Print this binary's build-time code digest (the
                         key CI restores the cache under) and exit
  --out-dir <DIR>        Directory for BENCH_<name>.json files (default .)
  --threads <N>          Worker threads for seed sweeps (default: all cores)
  -h, --help             Show this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        list: false,
        experiments: Vec::new(),
        config: RunConfig::default(),
        out_dir: PathBuf::from("."),
        check_against: None,
        update_baselines: false,
        cache_dir: PathBuf::from(CACHE_DIR),
        no_cache: false,
        print_fingerprint: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--list" => args.list = true,
            "--experiment" => args.experiments.push(value("--experiment")?),
            "--seeds" => {
                let v = value("--seeds")?;
                args.config.seeds = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --seeds {v:?}"))?,
                );
            }
            "--quick" => args.config.quick = true,
            "--family" => args.config.family = Some(value("--family")?),
            "--model" => args.config.model = Some(value("--model")?),
            "--algo" => args.config.algo = Some(value("--algo")?),
            "--fault" => args.config.fault = Some(value("--fault")?),
            "--budget-ms" => {
                let v = value("--budget-ms")?;
                args.config.budget_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --budget-ms {v:?}"))?,
                );
            }
            "--trace-out" => args.config.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--check-against" => {
                args.check_against = Some(PathBuf::from(value("--check-against")?))
            }
            "--update-baselines" => args.update_baselines = true,
            "--cache-dir" => args.cache_dir = PathBuf::from(value("--cache-dir")?),
            "--no-cache" => args.no_cache = true,
            "--print-fingerprint" => args.print_fingerprint = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--threads" => {
                let v = value("--threads")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --threads {v:?}"))?;
                // The vendored rayon shim reads this per sweep.
                std::env::set_var("EBC_NUM_THREADS", n.to_string());
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs `spec` with an unlimited cell budget (gate runs and baseline
/// refreshes must not depend on machine speed; only the scenario matrix
/// reads the budget, so this is a no-op for the other experiments).
fn gated_run(spec: &'static ExperimentSpec, config: &RunConfig) -> ebc_bench::ExperimentResult {
    let mut config = config.clone();
    config.budget_ms = Some(UNLIMITED_BUDGET_MS);
    run_experiment(spec, &config)
}

/// Writes `BENCH_cache_stats.json`: the code digest the cells were
/// stored under, and hit/miss/invalidation counts per experiment plus in
/// total. CI parses this to assert a warm gate re-executes nothing and
/// uploads it as an artifact.
fn write_cache_stats(
    out_dir: &std::path::Path,
    per_experiment: &[(&'static str, CacheStats)],
) -> std::io::Result<PathBuf> {
    let mut total = CacheStats::default();
    let mut rows = Vec::new();
    for (name, stats) in per_experiment {
        total.add(*stats);
        rows.push(
            Json::obj()
                .field("experiment", *name)
                .field("cache", stats.to_json()),
        );
    }
    let doc = Json::obj()
        .field("cache_stats_schema", 3u64)
        .field("code", code_digest())
        .field("experiments", Json::Arr(rows))
        .field("total", total.to_json());
    let path = out_dir.join("BENCH_cache_stats.json");
    std::fs::write(&path, doc.to_string_pretty())?;
    Ok(path)
}

/// Writes `BENCH_profile.json`: every experiment's per-cell wall-clock
/// breakdown (graph build / sim / cache) plus analysis time, with grand
/// totals across the run. Kept separate from the `BENCH_<name>.json`
/// result documents so wall-clock noise never churns the baselines; the
/// per-experiment totals match the `profile:` line in the report tables.
fn write_profile(
    out_dir: &std::path::Path,
    per_experiment: &[(&'static str, RunnerProfile)],
) -> std::io::Result<PathBuf> {
    use std::time::Duration;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    let (mut build, mut sim, mut analysis, mut cache) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    for (name, profile) in per_experiment {
        let (b, s, c) = profile.totals();
        build += b;
        sim += s;
        cache += c;
        analysis += profile.analysis;
        rows.push(
            Json::obj()
                .field("experiment", *name)
                .field("profile", profile.to_json()),
        );
    }
    let grand = build + sim + analysis + cache;
    let doc = Json::obj()
        .field("profile_schema", 1u64)
        .field("experiments", Json::Arr(rows))
        .field(
            "totals",
            Json::obj()
                .field("build_ms", ms(build))
                .field("sim_ms", ms(sim))
                .field("analysis_ms", ms(analysis))
                .field("cache_ms", ms(cache))
                .field("total_ms", ms(grand)),
        );
    let path = out_dir.join("BENCH_profile.json");
    std::fs::write(&path, doc.to_string_pretty())?;
    Ok(path)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.print_fingerprint {
        println!("{}", code_digest());
        return ExitCode::SUCCESS;
    }

    if !args.no_cache {
        args.config.cache_dir = Some(args.cache_dir.clone());
    }

    if args.list {
        println!("{:<20} TITLE", "NAME");
        for spec in EXPERIMENTS {
            println!("{:<20} {}", spec.name, spec.title);
        }
        return ExitCode::SUCCESS;
    }

    if args.update_baselines {
        // A filtered refresh would overwrite the full baseline with a
        // slice, silently un-gating every other cell — refuse instead.
        if args.config.family.is_some()
            || args.config.model.is_some()
            || args.config.algo.is_some()
            || args.config.fault.is_some()
        {
            eprintln!(
                "error: --update-baselines refreshes the full gate; \
                 drop --family/--model/--algo/--fault"
            );
            return ExitCode::FAILURE;
        }
        // Baselines gate the CI quick runs, so the refresh pins quick
        // mode regardless of the other flags.
        let mut config = args.config.clone();
        config.quick = true;
        for spec in EXPERIMENTS {
            let result = gated_run(spec, &config);
            match baseline::write_baseline(std::path::Path::new(BASELINE_DIR), &result) {
                Ok(path) => {
                    println!("wrote {} ({} cases)", path.display(), result.cases.len());
                }
                Err(e) => {
                    eprintln!("error: writing baselines for {}: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "refreshed {BASELINE_DIR}/ for {} experiments — commit to update the gate",
            EXPERIMENTS.len()
        );
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&'static ExperimentSpec> = if args.experiments.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        let mut specs = Vec::new();
        for name in &args.experiments {
            match find_experiment(name) {
                Some(spec) => specs.push(spec),
                None => {
                    eprintln!("error: no unique experiment matches {name:?} (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        specs
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }

    // With `--check-against` every selected run doubles as its own gate
    // run (budget pinned so the case set is machine-independent).
    let mut outcomes: Vec<GateOutcome> = Vec::new();
    let mut cache_rows: Vec<(&'static str, CacheStats)> = Vec::new();
    let mut profile_rows: Vec<(&'static str, RunnerProfile)> = Vec::new();
    for spec in selected {
        let started = std::time::Instant::now();
        let result = if args.check_against.is_some() {
            gated_run(spec, &args.config)
        } else {
            run_experiment(spec, &args.config)
        };
        match report_and_write(&result, started.elapsed(), &args.out_dir) {
            Ok(paths) => {
                for path in paths {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing results for {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
        if let Some(stats) = result.cache {
            cache_rows.push((spec.name, stats));
        }
        profile_rows.push((spec.name, result.profile.clone()));
        if let Some(dir) = &args.check_against {
            outcomes.push(GateOutcome {
                experiment: spec.name,
                report: baseline::check_against(dir, &result),
                cache: result.cache,
            });
        }
    }

    if !cache_rows.is_empty() {
        match write_cache_stats(&args.out_dir, &cache_rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing cache stats: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !profile_rows.is_empty() {
        match write_profile(&args.out_dir, &profile_rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dir) = &args.check_against {
        let report_path = args.out_dir.join("BENCH_gate_report.json");
        if let Err(e) = std::fs::write(
            &report_path,
            baseline::gate_report_doc(dir, &outcomes).to_string_pretty(),
        ) {
            eprintln!("error: writing {}: {e}", report_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", report_path.display());
        let summary_path = args.out_dir.join("BENCH_gate_summary.md");
        if let Err(e) = std::fs::write(
            &summary_path,
            baseline::gate_summary_markdown(dir, &outcomes),
        ) {
            eprintln!("error: writing {}: {e}", summary_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", summary_path.display());
        let mut failed = 0usize;
        for outcome in &outcomes {
            match &outcome.report {
                Ok(report) => {
                    for note in &report.notes {
                        println!("note: {}: {note}", outcome.experiment);
                    }
                    if report.passed() {
                        println!("gate PASSED: {}", outcome.experiment);
                    } else {
                        eprintln!("gate FAILED: {}", outcome.experiment);
                        for r in &report.regressions {
                            eprintln!("  regression: {r}");
                        }
                        failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("gate FAILED: {}: {e}", outcome.experiment);
                    failed += 1;
                }
            }
        }
        if failed > 0 {
            eprintln!(
                "baseline gate FAILED against {} ({failed}/{} experiments; if \
                 intentional, refresh with `cargo run -p ebc-bench -- \
                 --update-baselines` and commit)",
                dir.display(),
                outcomes.len()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "baseline gate PASSED against {} ({} experiments checked)",
            dir.display(),
            outcomes.len()
        );
    }
    ExitCode::SUCCESS
}
