//! The repository benchmark: host cost per charged energy unit, end to end
//! and per layer, over four closed-loop workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it runs untraced iterations for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced iterations, runs the radio probes, and prints the per-layer
//! metrics. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `python3 perfbench/run.py` builds
//! this binary and runs it; see `perfbench/README.md`.

mod machine;
mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ebc_bench::json::Json;
use ebc_core::suite::ALGORITHMS;
use ebc_radio::Model;

use trace::{self_ns_by_layer, total_ns, Tracer};
use workloads::{digest, iterate, model_key, Ctx, Iteration, Workload};

/// Untraced iterations a run makes at least, however short `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// Traced (and untraced twin) iterations a traced run makes at least.
const MIN_TRACED: usize = 2;
/// How long each iteration is followed by set-up-only repeats (at least
/// one), for many more set-up samples than iterations.
const SETUP_REPEAT_WINDOW: Duration = Duration::from_millis(40);
/// Repeats of each radio probe; the median is reported.
const PROBE_REPEATS: usize = 3;

/// The layers spans are grouped by.
const LAYERS: [&str; 5] = ["perfbench", "graphs", "radio", "core", "bench"];

/// Expected simulated statistics per workload and seed.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    print_stats: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <thm12-cd-tree|dense-32k|registry-grid-256|matrix-cd-star> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--print-stats] [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Thm12CdTree,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        print_stats: false,
        out_dir: PathBuf::from(".bench_build/perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::by_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--print-stats" => args.print_stats = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The fastest sample, which the end-to-end timings report. The shared
/// host's speed swings by up to 2× for seconds to minutes at a time, so a
/// median moves with the mix of states a run happens to see, while the
/// fastest of many short iterations moved about half as much between runs.
fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The pinned form of an iteration's simulated statistics.
fn stats_record(it: &Iteration) -> Json {
    Json::obj()
        .field("energy_units", it.energy_units())
        .field(
            "energy_max",
            it.stats.iter().map(|s| s.energy_max).max().unwrap_or(0),
        )
        .field("clock", it.stats.iter().map(|s| s.clock).sum::<u64>())
        .field(
            "idle_skipped",
            it.stats.iter().map(|s| s.idle_skipped).sum::<u64>(),
        )
        .field("runs", it.stats.len())
        .field("digest", digest(&it.stats))
}

/// The pinned statistics for this workload and seed, if any.
fn expected(args: &Args) -> Option<Json> {
    if args.smoke {
        return None;
    }
    let doc = Json::parse(EXPECTED).expect("expected.json parses");
    doc.get(args.workload.name())?
        .get(&args.seed.to_string())
        .cloned()
}

/// Marks failed iterations: own failed checks, statistics that differ
/// from the first iteration's, or a first iteration that differs from the
/// pinned statistics. Returns the failure messages.
fn judge(args: &Args, iters: &[&Iteration]) -> (usize, Vec<String>) {
    let first = iters[0];
    let mut messages = Vec::new();
    let pin_ok = match expected(args) {
        Some(pin) => {
            let got = stats_record(first);
            if got != pin {
                messages.push(format!(
                    "simulated statistics differ from the pinned ones: got {} expected {}",
                    got.to_string_pretty().trim_end(),
                    pin.to_string_pretty().trim_end()
                ));
            }
            got == pin
        }
        None => true,
    };
    let mut failed = 0;
    for (i, it) in iters.iter().enumerate() {
        let repeat = it.stats == first.stats;
        if !repeat {
            messages.push(format!(
                "iteration {i}: simulated statistics differ from iteration 0"
            ));
        }
        messages.extend(it.failures.iter().map(|f| format!("iteration {i}: {f}")));
        failed += usize::from(!pin_ok || !repeat || !it.failures.is_empty());
    }
    (failed, messages)
}

/// The unit of a metric, from its name.
fn unit(name: &str) -> &'static str {
    if name.contains("ns_per_") {
        "ns"
    } else if name.contains("us_per_") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_mb") {
        "MB"
    } else {
        "count"
    }
}

/// Every per-layer metric, in output order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = ["graphs.build_ms", "graphs.csr_bytes"]
        .map(String::from)
        .to_vec();
    for m in ebc_core::suite::MESSAGING_MODELS {
        names.push(format!("radio.kernel.ns_per_poll.{}", model_key(m)));
    }
    names.extend(
        [
            "radio.kernel.polls",
            "radio.schedule.ns_per_wake",
            "radio.schedule.ns_per_sparse_row",
            "radio.schedule.skipped_slots",
            "radio.energy.units",
        ]
        .map(String::from),
    );
    for alg in ALGORITHMS {
        for &m in alg.supported_models() {
            names.push(format!(
                "core.{}.{}.ns_per_energy_unit",
                alg.name(),
                model_key(m)
            ));
            names.push(format!("core.{}.{}.energy_units", alg.name(), model_key(m)));
        }
    }
    names.extend(
        [
            "bench.cache.lookup_us_per_hit",
            "bench.cache.store_us_per_miss",
            "bench.fits_ms",
            "bench.emit_ms",
            "bench.emit_bytes",
            "bench.cache.hits",
            "bench.cache.misses",
            "bench.warm_s",
        ]
        .map(String::from),
    );
    names.extend(LAYERS.iter().map(|l| format!("{l}.self_ms")));
    names.push("trace.overhead_s".into());
    names
}

/// Median host time and exact count of each radio probe.
struct ProbeFigures {
    kernel: Vec<(Model, f64, u64)>,
    wake: (f64, u64),
    sparse_row: (f64, u64),
}

fn run_probes(ctx: &Ctx, tr: &mut Tracer, with_kernel: bool) -> ProbeFigures {
    let graph = ctx.probe_graph();
    let shift = if ctx.smoke { 8 } else { 0 };
    let repeat = |tr: &mut Tracer, name: &str, f: &dyn Fn() -> probes::Probe| {
        let runs: Vec<probes::Probe> = (0..PROBE_REPEATS)
            .map(|_| tr.span("radio", name, |_| f()))
            .collect();
        (
            median(runs.iter().map(|p| p.ns_per_unit()).collect()),
            runs[0].count,
        )
    };
    let kernel = if with_kernel {
        ebc_core::suite::MESSAGING_MODELS
            .iter()
            .map(|&m| {
                let (ns, count) =
                    repeat(tr, &format!("radio.probe.kernel.{}", model_key(m)), &|| {
                        probes::kernel(&graph, m, shift)
                    });
                (m, ns, count)
            })
            .collect()
    } else {
        Vec::new()
    };
    ProbeFigures {
        kernel,
        wake: repeat(tr, "radio.probe.dynamic", &|| {
            probes::dynamic(&graph, shift)
        }),
        sparse_row: repeat(tr, "radio.probe.sparse", &|| probes::sparse(&graph, shift)),
    }
}

/// The per-layer metrics of one traced iteration. Metrics of a layer the
/// workload does not exercise stay 0.
fn layer_metrics(
    ctx: &Ctx,
    it: &Iteration,
    tr: &Tracer,
    span_range: &std::ops::Range<usize>,
    probes: &ProbeFigures,
) -> BTreeMap<String, f64> {
    let first_span = span_range.start;
    let spans = &tr.since(first_span)[..span_range.len()];
    let mut m: BTreeMap<String, f64> = per_layer_names().into_iter().map(|n| (n, 0.0)).collect();
    m.insert(
        "graphs.build_ms".into(),
        total_ns(spans, "graphs.build") as f64 / 1e6,
    );
    for s in &it.stats {
        if let Some(ns) = Some(total_ns(spans, &format!("core.{}", s.label))).filter(|&ns| ns > 0) {
            m.insert(
                format!("core.{}.ns_per_energy_unit", s.label),
                ns as f64 / s.energy_total.max(1) as f64,
            );
            m.insert(
                format!("core.{}.energy_units", s.label),
                s.energy_total as f64,
            );
        }
    }
    if ctx.workload == Workload::Dense32k {
        let polls_per_model = it.facts["radio.kernel.polls"] / 4.0;
        for model in ebc_core::suite::MESSAGING_MODELS {
            let key = model_key(model);
            let ns = total_ns(spans, &format!("radio.kernel.{key}"));
            m.insert(
                format!("radio.kernel.ns_per_poll.{key}"),
                ns as f64 / polls_per_model,
            );
        }
    }
    for &(model, ns, _) in &probes.kernel {
        m.insert(format!("radio.kernel.ns_per_poll.{}", model_key(model)), ns);
    }
    if !probes.kernel.is_empty() {
        m.insert(
            "radio.kernel.polls".into(),
            probes.kernel.iter().map(|k| k.2 as f64).sum(),
        );
    }
    m.insert("radio.schedule.ns_per_wake".into(), probes.wake.0);
    m.insert(
        "radio.schedule.ns_per_sparse_row".into(),
        probes.sparse_row.0,
    );
    m.insert(
        "radio.schedule.skipped_slots".into(),
        it.stats.iter().map(|s| s.idle_skipped as f64).sum(),
    );
    m.insert("radio.energy.units".into(), it.energy_units() as f64);
    m.insert(
        "bench.emit_ms".into(),
        total_ns(spans, "bench.emit") as f64 / 1e6,
    );
    if let Some(warm) = it.warm {
        m.insert("bench.warm_s".into(), secs(warm));
    }
    for (layer, ns) in self_ns_by_layer(spans, first_span) {
        m.insert(format!("{layer}.self_ms"), ns as f64 / 1e6);
    }
    // Facts the workload measured or counted itself take precedence.
    for (k, v) in &it.facts {
        m.insert(k.clone(), *v);
    }
    m
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                unit(k)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One sweep thread: the matrix's seed sweeps then run in the calling
    // thread, so nothing else contends for the cores being measured.
    std::env::set_var("EBC_NUM_THREADS", "1");
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("EBC_DATASET_CACHE_DIR", args.out_dir.join("datasets"));
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    let name = args.workload.name();

    if args.print_stats {
        let it = iterate(&ctx, &mut Tracer::new(false));
        for f in &it.failures {
            eprintln!("check failed: {f}");
        }
        println!("{}", stats_record(&it).to_string_pretty().trim_end());
        return if it.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let start = Instant::now();
    let mut plain = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut untraced: Vec<Iteration> = Vec::new();
    // Each traced iteration with the range of its spans.
    let mut traced: Vec<(std::ops::Range<usize>, Iteration)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    if args.trace {
        while traced.len() < MIN_TRACED || start.elapsed() < budget {
            untraced.push(iterate(&ctx, &mut plain));
            let first = tracer.begin_iteration(traced.len());
            let it = iterate(&ctx, &mut tracer);
            traced.push((first..tracer.mark(), it));
        }
    } else {
        while untraced.len() < MIN_ITERATIONS || start.elapsed() < budget {
            let it = iterate(&ctx, &mut plain);
            setups.push(secs(it.setup));
            untraced.push(it);
            // Set-up-only repeats after each iteration, so the set-up
            // samples spread over the whole run like the iterations do.
            let extra = Instant::now();
            while extra.elapsed() < SETUP_REPEAT_WINDOW {
                setups.push(secs(workloads::setup_only(&ctx)));
            }
        }
    }

    let all: Vec<&Iteration> = untraced
        .iter()
        .chain(traced.iter().map(|(_, it)| it))
        .collect();
    let (failed, messages) = judge(&args, &all);
    for msg in &messages {
        eprintln!("check failed: {msg}");
    }
    let attempted = all.len();
    let run_s = fastest(untraced.iter().map(|it| secs(it.run)));
    let warm: Vec<f64> = untraced.iter().filter_map(|it| it.warm.map(secs)).collect();
    let ws = all[0].working_set_bytes;

    let metrics: Vec<(String, f64)> = if args.trace {
        tracer.begin_iteration(traced.len());
        let probes = run_probes(&ctx, &mut tracer, args.workload != Workload::Dense32k);
        let per_iteration: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|(spans, it)| layer_metrics(&ctx, it, &tracer, spans, &probes))
            .collect();
        let traced_run_s = fastest(traced.iter().map(|(_, it)| secs(it.run)));
        let path = args
            .out_dir
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("warning: writing {}: {e}", path.display());
        }
        per_layer_names()
            .into_iter()
            .map(|k| {
                let v = if k == "trace.overhead_s" {
                    traced_run_s - run_s
                } else {
                    median(per_iteration.iter().map(|m| m[&k]).collect())
                };
                (k, v)
            })
            .collect()
    } else {
        vec![
            ("run_s".into(), run_s),
            (
                "ns_per_energy_unit".into(),
                fastest(
                    untraced
                        .iter()
                        .map(|it| it.run.as_nanos() as f64 / it.energy_units().max(1) as f64),
                ),
            ),
            ("setup_s".into(), fastest(setups.iter().copied())),
            ("peak_rss_mb".into(), machine::peak_rss_mb().unwrap_or(0.0)),
        ]
    };

    let env = machine::record(ws);
    println!(
        "workload {name} seed {} trace {}: closed loop, 1 client, {} iterations ({} untraced) in {:.1} s",
        args.seed,
        u8::from(args.trace),
        attempted,
        untraced.len(),
        secs(start.elapsed())
    );
    println!(
        "  env {}",
        env.to_string_pretty()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (k, v) in &metrics {
        println!("  {k:<48} {v:>16.6} {}", unit(k));
    }
    if !args.trace {
        println!(
            "  {:<48} {:>16.6} s",
            "run_s_median",
            median(untraced.iter().map(|it| secs(it.run)).collect())
        );
        if !warm.is_empty() {
            println!("  {:<48} {:>16.6} s", "warm_s", median(warm.clone()));
        }
        println!(
            "  {:<48} {:>16.6} ({failed}/{attempted})",
            "fail_frac",
            failed as f64 / attempted as f64
        );
    }
    let record = Json::obj()
        .field("workload", name)
        .field("seed", args.seed)
        .field("trace", args.trace)
        .field("smoke", args.smoke)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("fail_frac", failed as f64 / attempted as f64)
        .field(
            "run_s_samples",
            Json::Arr(untraced.iter().map(|it| secs(it.run).into()).collect()),
        )
        .field(
            "setup_s_samples",
            Json::Arr(setups.iter().map(|&s| s.into()).collect()),
        )
        .field(
            "warm_s_samples",
            Json::Arr(warm.into_iter().map(Json::from).collect()),
        )
        .field(
            "metrics",
            metrics.iter().fold(Json::obj(), |o, (k, v)| {
                o.field(k, Json::obj().field("value", *v).field("unit", unit(k)))
            }),
        )
        .field(
            "failures",
            Json::Arr(messages.iter().map(|m| m.as_str().into()).collect()),
        )
        .field("env", env);
    let path = args.out_dir.join(format!(
        "result-{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_string_pretty()) {
        eprintln!("warning: writing {}: {e}", path.display());
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
