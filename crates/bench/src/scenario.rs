//! The scenario matrix: every registered algorithm crossed with every
//! graph family, collision model, and size.
//!
//! The paper's Table 1 spans four messaging models and eight-plus
//! algorithms; the per-row experiments in [`crate::experiments`] each pin
//! one algorithm to one or two topologies. This runner sweeps the full
//! `Family × Model × algorithm × n` cross-product through the
//! [`ebc_core::suite`] registry, filtering — and *counting* — the
//! incompatible pairs (a CD-only algorithm under No-CD, the §8 path
//! algorithm off the path) instead of dropping them silently.
//!
//! Each `(algorithm, family, model)` *cell* sweeps the n axis under a
//! wall-clock budget ([`RunConfig::cell_budget`]): the first size always
//! runs, and once a cell's sweeps have spent the budget its remaining
//! sizes are dropped — tallied under `skip_counts.skipped_budget`, with
//! every case of the cut-short cell carrying a `truncated: true` param so
//! downstream fits know the axis is incomplete. Scaling fits across each
//! cell's n axis ([`crate::analysis`]) — including the seed-level
//! bootstrap `exponent_ci` / `class_confident` fields the CI-overlap
//! gate diffs ([`crate::stats`]) — are emitted as a top-level `fits`
//! section; quick mode keeps at least two seeds per point
//! ([`RunConfig::seeds_for_size`]) so those CIs never degenerate.
//!
//! The emitted `BENCH_scenario_matrix.json` carries the skip accounting as
//! top-level fields (`skip_counts`, `skipped_pairs`) next to the usual
//! per-case sweeps, and the `--family`/`--model`/`--algo` CLI flags narrow
//! the axes.
//!
//! Three *headline* cells — flooding and the Theorem 11/12 algorithms on
//! the binary tree (`is_headline`) — extend their n axis past the shared
//! sizes to `n = 10^6` under a dedicated budget
//! ([`RunConfig::headline_cell_budget`]), so the scaling fits for the
//! paper's flagship bounds rest on three decades of n.
//!
//! A *fault axis* ([`MATRIX_FAULTS`], filtered by `--fault`) crosses
//! every cell with the [`ebc_radio::FaultPlan`]s of [`matrix_fault_plan`]:
//! lossy slots, early crash faults, and a budgeted periodic jammer.
//! Faulted cells run at the two smallest sizes only — the axis measures
//! *degradation*, not scaling, so the clean cells keep the full n sweep
//! (and the headline extension, and the scaling fits) to themselves. Each
//! faulted seed also runs its clean twin, yielding `success_rate` (every
//! surviving device informed), `energy_overhead_vs_clean` (total-energy
//! ratio against the twin), and `lost_sends` columns; adapters that
//! opt out via [`ebc_core::suite::BroadcastAlgorithm::fault_tolerant`]
//! are tallied under `skipped_fault_intolerant`.
//!
//! The matrix runs as a *work queue*: a plan phase enumerates the
//! surviving `(family, fault, model, algorithm)` cells into a pending
//! queue, and a drain phase executes them in plan order — each cell's
//! seed sweep through the rayon pool, each completed case written back
//! to the content-addressed cell cache ([`crate::cache`]) through the
//! [`CaseRunner`]. Warm cells come back from the store without
//! executing; their wall-clock cost is zero, so a warm budgeted run can
//! only *deepen* a cell's n axis relative to its cold run, never shrink
//! it (gate runs pin an unlimited budget and are unaffected). The
//! `truncated` flag is applied after execution and never stored, so a
//! cached cell re-derives it under whatever budget the current run uses.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebc_core::suite::{BroadcastAlgorithm, ALGORITHMS, MESSAGING_MODELS};
use ebc_graphs::families::Family;
use ebc_radio::{FaultPlan, Graph, JammerStrategy, Model, Sim};

use crate::analysis;
use crate::experiments::{model_name, ExperimentOutput};
use crate::json::Json;
use crate::measure::{standard_metrics, Case, CaseRunner, RunConfig};

/// The matrix sizes: four n-points in quick (CI smoke) mode — the minimum
/// for a meaningful scaling fit — five in full mode. Cells whose per-size
/// cost outgrows the wall-clock budget truncate instead of pinning the
/// whole sweep, so the top sizes no longer need to fit every algorithm.
fn matrix_sizes(config: &RunConfig) -> &'static [usize] {
    if config.quick {
        &[16, 32, 64, 128]
    } else {
        &[16, 32, 64, 128, 256]
    }
}

/// Extra n-points appended to the headline cells' axes, up to the paper's
/// million-node scale. 1048575 = 2^20 − 1 is the complete-binary-tree
/// generator's exact vertex count — asking for 2^20 would overshoot to
/// the next depth (2^21 − 1).
const HEADLINE_EXTRA_SIZES: &[usize] = &[4096, 65536, 1048575];

/// The fault axis, in presentation order: the clean baseline plus one
/// representative of each implemented fault mode that degrades whole
/// transmissions (edge loss and churn are exercised by the radio crate's
/// own suites; the matrix keeps the axis small enough to cross with the
/// full registry).
pub const MATRIX_FAULTS: &[&str] = &["none", "slot-loss", "crash", "jammer"];

/// The [`FaultPlan`] one fault-axis value denotes at size `n`.
///
/// The strengths are fixed, deliberately sub-lethal constants: heavy
/// enough that `success_rate` visibly degrades somewhere in the registry,
/// light enough that flooding still usually completes — a fault axis
/// where every run fails says as little as one where every run succeeds.
pub fn matrix_fault_plan(kind: &str, n: usize) -> FaultPlan {
    match kind {
        "none" => FaultPlan::None,
        // A quarter of all slots lose their deliveries (senders still pay).
        "slot-loss" => FaultPlan::SlotLoss { p: 0.25 },
        // An eighth of the devices (never source 0) crash in the first few
        // hundred slots, staggered so the down set grows gradually.
        "crash" => FaultPlan::Crash {
            schedule: (1..n)
                .step_by(8)
                .enumerate()
                .map(|(i, v)| (32 * (i as u64 + 1), v))
                .collect(),
        },
        // A periodic jammer whose energy budget scales with the instance:
        // every eighth observed slot is jammed until 16n jams are spent.
        "jammer" => FaultPlan::Jammer {
            budget: 16 * n as u64,
            strategy: JammerStrategy::Periodic { period: 8 },
        },
        other => unreachable!("unknown fault axis value {other:?}"),
    }
}

/// Whether a cell is one of the three flagship combinations whose n axis
/// extends to `n = 10^6`: flooding and the Theorem 11/12 broadcast
/// algorithms on the bounded-degree binary tree, each under its natural
/// model. Only these earn the big sizes — the full cross-product at 10^6
/// would take hours — and they run under
/// [`RunConfig::headline_cell_budget`] so the extension is not truncated
/// in a default quick run.
fn is_headline(alg: &str, family: Family, model: Model) -> bool {
    family == Family::BinaryTree
        && matches!(
            (alg, model),
            ("naive_flood", Model::Local) | ("theorem11", Model::Local) | ("theorem12", Model::Cd)
        )
}

/// One skipped `(algorithm, model)`, `(algorithm, family)`, or budget-cut
/// combination and how often the cross-product hit it.
struct Skip {
    kind: &'static str,
    algorithm: &'static str,
    axis: String,
    count: usize,
}

/// One pending cell of the work queue: a `(family, fault, model,
/// algorithm)` combination whose n axis the drain phase will sweep.
struct CellJob {
    family: Family,
    fault: &'static str,
    model: Model,
    alg: &'static dyn BroadcastAlgorithm,
}

/// Runs the scenario matrix under `config`, executing every cell through
/// `runner` (warm cells return from the cell cache without running).
///
/// Every *compatible* combination is swept over the configured seeds from
/// source 0; incompatible combinations are tallied into the output's
/// `extra` fields. Axis filters narrow the cross-product *before* any
/// counting — the `axes` field records what survived them, and a filter
/// that matches nothing yields an empty matrix (`total_combinations: 0`),
/// not an error.
pub fn run_scenario_matrix(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let families: Vec<Family> = Family::ALL
        .into_iter()
        .filter(|f| matches(&config.family, f.name()))
        .collect();
    let models: Vec<Model> = MESSAGING_MODELS
        .into_iter()
        .filter(|m| matches(&config.model, model_name(*m)))
        .collect();
    let algorithms: Vec<&'static dyn BroadcastAlgorithm> = ALGORITHMS
        .iter()
        .copied()
        .filter(|a| matches(&config.algo, a.name()))
        .collect();
    let faults: Vec<&'static str> = MATRIX_FAULTS
        .iter()
        .copied()
        .filter(|f| matches(&config.fault, f))
        .collect();
    let sizes = matrix_sizes(config);
    let budget = config.cell_budget();

    // Plan phase: enumerate the filtered cross-product into the pending
    // queue, family-major so the drain phase can share one graph map per
    // family (the case order — and with it every emitted document — is
    // exactly the old nested-loop order).
    let mut queue: Vec<CellJob> = Vec::new();
    for &family in &families {
        for &fault in &faults {
            for &model in &models {
                for &alg in &algorithms {
                    queue.push(CellJob {
                        family,
                        fault,
                        model,
                        alg,
                    });
                }
            }
        }
    }

    // Drain phase: execute (or cache-serve) each pending cell. One graph
    // per (family, n), built on first use and dropped when the queue
    // moves past its family; every fault, model, algorithm, and seed
    // shares the same CSR allocation.
    let mut cases = Vec::new();
    let mut skips: Vec<Skip> = Vec::new();
    let mut combinations = 0usize;
    let mut truncated_cells = 0usize;
    let mut graphs: BTreeMap<usize, Arc<Graph>> = BTreeMap::new();
    let mut current_family: Option<Family> = None;
    for job in &queue {
        if current_family != Some(job.family) {
            graphs.clear();
            current_family = Some(job.family);
        }
        let truncated = run_cell(
            config,
            runner,
            job,
            sizes,
            budget,
            &mut graphs,
            &mut cases,
            &mut skips,
            &mut combinations,
        );
        truncated_cells += usize::from(truncated);
    }

    // The --trace-out diagnostic: re-run the first compatible cell with
    // telemetry enabled, outside the runner and cache, and dump its trace.
    if config.trace_out.is_some() {
        trace_first_cell(config, &queue, sizes);
    }

    // Scaling fits read only the clean cells — `scaling_fits` drops
    // faulted cases itself, so the fits section is invariant under the
    // fault axis (and under `--fault` filters that exclude "none").
    let t_fit = Instant::now();
    let fits = analysis::scaling_fits(&cases, config.resamples());
    runner.note_analysis(t_fit.elapsed());
    let count = |kind: &str| -> usize {
        skips
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.count)
            .sum()
    };
    let skipped_incompatible = count("model") + count("graph") + count("fault");
    let extra = vec![
        (
            "axes",
            Json::obj()
                .field(
                    "families",
                    Json::Arr(families.iter().map(|f| f.name().into()).collect()),
                )
                .field(
                    "models",
                    Json::Arr(models.iter().map(|&m| model_name(m).into()).collect()),
                )
                .field(
                    "algorithms",
                    Json::Arr(algorithms.iter().map(|a| a.name().into()).collect()),
                )
                .field(
                    "faults",
                    Json::Arr(faults.iter().map(|&f| f.into()).collect()),
                )
                .field(
                    "sizes",
                    Json::Arr(sizes.iter().map(|&n| n.into()).collect()),
                )
                .field(
                    "headline_extra_sizes",
                    Json::Arr(HEADLINE_EXTRA_SIZES.iter().map(|&n| n.into()).collect()),
                ),
        ),
        (
            "skip_counts",
            Json::obj()
                .field("total_combinations", combinations)
                .field("run", cases.len())
                .field("skipped_incompatible", skipped_incompatible)
                .field("skipped_incompatible_model", count("model"))
                .field("skipped_incompatible_graph", count("graph"))
                .field("skipped_fault_intolerant", count("fault"))
                .field("skipped_budget", count("budget"))
                .field("truncated_cells", truncated_cells)
                .field("budget_ms_per_cell", budget.as_millis() as u64),
        ),
        (
            "skipped_pairs",
            Json::Arr(
                skips
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("kind", s.kind)
                            .field("algorithm", s.algorithm)
                            .field(
                                match s.kind {
                                    "model" => "model",
                                    "graph" => "family",
                                    "fault" => "fault",
                                    _ => "cell",
                                },
                                s.axis.as_str(),
                            )
                            .field("count", s.count)
                    })
                    .collect(),
            ),
        ),
        ("fits", analysis::fits_to_json(&fits)),
    ];
    ExperimentOutput { cases, extra }
}

/// Sweeps one pending cell's n axis under the wall-clock budget,
/// executing each size through `runner` (cache hits cost zero budget).
/// Returns whether the cell was truncated.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    config: &RunConfig,
    runner: &mut CaseRunner,
    job: &CellJob,
    sizes: &[usize],
    budget: Duration,
    graphs: &mut BTreeMap<usize, Arc<Graph>>,
    cases: &mut Vec<Case>,
    skips: &mut Vec<Skip>,
    combinations: &mut usize,
) -> bool {
    let CellJob {
        family,
        fault,
        model,
        alg,
    } = *job;
    let clean = fault == "none";
    // Headline cells sweep on past the shared sizes to the million-node
    // tier, under their own (much larger) budget; faulted cells measure
    // degradation, not scaling, and stop after the two smallest sizes.
    let headline = clean && is_headline(alg.name(), family, model);
    let cell_sizes: Vec<usize> = if headline {
        sizes.iter().chain(HEADLINE_EXTRA_SIZES).copied().collect()
    } else if clean {
        sizes.to_vec()
    } else {
        sizes[..sizes.len().min(2)].to_vec()
    };
    let budget = if headline {
        config.headline_cell_budget()
    } else {
        budget
    };
    let cell_axis = format!("{}/{}/{fault}", family.name(), model_name(model));
    let mut spent = Duration::ZERO;
    let mut truncated = false;
    let mut cell_cases: Vec<Case> = Vec::new();
    for &n in &cell_sizes {
        *combinations += 1;
        if !alg.supports_model(model) {
            tally(skips, "model", alg.name(), model_name(model));
            continue;
        }
        if !clean && !alg.fault_tolerant() {
            tally(skips, "fault", alg.name(), fault);
            continue;
        }
        // Budget-cut before the graph is even built: a truncated headline
        // size would otherwise still pay for a million-vertex instance.
        if truncated {
            tally(skips, "budget", alg.name(), cell_axis.clone());
            continue;
        }
        let graph = match graphs.entry(n) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                // Graph construction is profiled separately from the sweep;
                // the shared build lands on the first consuming cell.
                let t_build = Instant::now();
                let g = Arc::new(family.instance(n, 0xebc0 + n as u64).graph);
                runner.note_build(t_build.elapsed());
                e.insert(g)
            }
        };
        if !alg.supports_graph(graph) {
            tally(skips, "graph", alg.name(), family.name());
            continue;
        }
        let graph = Arc::clone(graph);
        let seeds = config.seeds_for_size(2, n, sizes[0]);
        let params = vec![
            ("family", family.name().into()),
            ("n", graph.n().into()),
            ("m", graph.m().into()),
            ("delta", graph.max_degree().into()),
            ("fault", fault.into()),
            ("model", model_name(model).into()),
            ("algorithm", alg.name().into()),
        ];
        let started = Instant::now();
        let hits_before = runner.stats.hits;
        let case = if clean {
            runner.run_case(params, seeds, |seed| {
                let mut sim = Sim::new(Arc::clone(&graph), model, seed);
                let out = alg.run(&mut sim, 0);
                let mut metrics = vec![
                    ("all_informed", f64::from(u8::from(out.all_informed()))),
                    ("informed_frac", out.count() as f64 / sim.graph().n() as f64),
                ];
                metrics.extend(standard_metrics(&sim.meter().report()));
                metrics
            })
        } else {
            let plan = matrix_fault_plan(fault, graph.n());
            runner.run_case(params, seeds, |seed| {
                // The clean twin: same graph, model, and seed — the
                // denominator of the energy-overhead ratio.
                let mut twin = Sim::new(Arc::clone(&graph), model, seed);
                alg.run(&mut twin, 0);
                let clean_total = twin.meter().total_energy().max(1);
                let mut sim = Sim::with_faults(Arc::clone(&graph), model, seed, plan.clone());
                let out = alg.run(&mut sim, 0);
                // Success = every device that survived to the end is
                // informed; crashed devices are casualties, not failures.
                let success = out.informed.iter().enumerate().all(|(v, &informed)| {
                    informed || sim.fault_state().is_some_and(|f| f.is_down(v))
                });
                let report = sim.meter().report();
                let mut metrics = vec![
                    ("success_rate", f64::from(u8::from(success))),
                    ("informed_frac", out.count() as f64 / sim.graph().n() as f64),
                    (
                        "energy_overhead_vs_clean",
                        report.total as f64 / clean_total as f64,
                    ),
                    ("lost_sends", report.lost_sends as f64),
                ];
                metrics.extend(standard_metrics(&report));
                metrics
            })
        };
        // Only executed sizes spend budget: a warm cell is free, so a
        // cached run can deepen an axis relative to its cold run but
        // never shrink it.
        if runner.stats.hits == hits_before {
            spent += started.elapsed();
        }
        cell_cases.push(case);
        // The first size always runs; once the budget is spent, the rest
        // of the n axis truncates (tallied above on later iterations).
        if spent >= budget {
            truncated = true;
        }
    }
    // A cell only counts as truncated if budget exhaustion actually cut
    // sizes (not when the budget ran out exactly on the last size).
    let cut = truncated
        && skips
            .iter()
            .any(|s| s.kind == "budget" && s.algorithm == alg.name() && s.axis == cell_axis);
    if cut {
        for case in &mut cell_cases {
            case.params.push(("truncated", Json::Bool(true)));
        }
    }
    cases.append(&mut cell_cases);
    cut
}

/// The `--trace-out` diagnostic: runs the first cell of `queue` that is
/// compatible at the smallest matrix size, with full telemetry attached,
/// and writes its Chrome trace-event JSON to [`RunConfig::trace_out`]
/// plus a compact JSONL sibling (same path, `.jsonl` extension).
///
/// The run happens outside the [`CaseRunner`] and the cell cache: it is a
/// diagnostic twin of the cell's first seed, not a measurement — the
/// matrix's cases, budget accounting, and cache stats are unaffected. On
/// the faulted axes the cell's fault plan is applied, so the trace shows
/// lost/jammed/crashed slot events next to the phase spans.
fn trace_first_cell(config: &RunConfig, queue: &[CellJob], sizes: &[usize]) {
    let Some(out_path) = &config.trace_out else {
        return;
    };
    let n = sizes[0];
    for job in queue {
        let CellJob {
            family,
            fault,
            model,
            alg,
        } = *job;
        if !alg.supports_model(model) {
            continue;
        }
        if fault != "none" && !alg.fault_tolerant() {
            continue;
        }
        let graph = family.instance(n, 0xebc0 + n as u64).graph;
        if !alg.supports_graph(&graph) {
            continue;
        }
        let seed = crate::measure::master_seed(0);
        let plan = matrix_fault_plan(fault, graph.n());
        let mut sim = Sim::with_faults(graph, model, seed, plan);
        sim.enable_telemetry();
        alg.run(&mut sim, 0);
        let tel = sim.take_telemetry().expect("telemetry enabled");
        println!(
            "traced cell: {} on {} under {} (fault {fault}, n {}, seed {seed}) — \
             {} events, {} spans, {} counter rows",
            alg.name(),
            family.name(),
            model_name(model),
            sim.graph().n(),
            tel.event_count(),
            tel.spans().len(),
            tel.counters().count(),
        );
        if let Err(e) = std::fs::write(out_path, tel.chrome_trace()) {
            eprintln!("warning: writing {}: {e}", out_path.display());
            return;
        }
        println!("wrote {}", out_path.display());
        let jsonl = out_path.with_extension("jsonl");
        if let Err(e) = std::fs::write(&jsonl, tel.to_jsonl()) {
            eprintln!("warning: writing {}: {e}", jsonl.display());
            return;
        }
        println!("wrote {}", jsonl.display());
        return;
    }
    eprintln!("warning: --trace-out matched no compatible cell (check the axis filters)");
}

/// Axis filter: `None` admits everything; `Some` is a case-insensitive
/// exact name match.
fn matches(filter: &Option<String>, name: &str) -> bool {
    filter
        .as_deref()
        .map_or(true, |f| f.eq_ignore_ascii_case(name))
}

fn tally(
    skips: &mut Vec<Skip>,
    kind: &'static str,
    algorithm: &'static str,
    axis: impl Into<String>,
) {
    let axis = axis.into();
    match skips
        .iter_mut()
        .find(|s| s.kind == kind && s.algorithm == algorithm && s.axis == axis)
    {
        Some(s) => s.count += 1,
        None => skips.push(Skip {
            kind,
            algorithm,
            axis,
            count: 1,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::UNLIMITED_BUDGET_MS;

    /// The matrix with caching disabled — what every structural test
    /// wants (cache behavior has its own tests in [`crate::cache`] and
    /// the `cache_incremental` integration suite).
    fn run_matrix(config: &RunConfig) -> ExperimentOutput {
        run_scenario_matrix(config, &mut CaseRunner::disabled("scenario_matrix"))
    }

    /// Quick config with a zero budget, pinned to the clean fault axis:
    /// every cell runs exactly its first size — deterministic
    /// (wall-clock-independent) and fast, which is what most structural
    /// tests want. Fault-axis tests drop the pin explicitly.
    fn quick_config() -> RunConfig {
        RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            fault: Some("none".into()),
            ..RunConfig::default()
        }
    }

    fn extra_field<'a>(output: &'a ExperimentOutput, key: &str) -> &'a Json {
        output
            .extra
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing extra field {key}"))
    }

    fn int_field(obj: &Json, key: &str) -> i64 {
        match obj.get(key) {
            Some(Json::Int(i)) => *i,
            other => panic!("field {key} not an int: {other:?}"),
        }
    }

    #[test]
    fn quick_matrix_covers_the_claimed_cross_product() {
        let out = run_matrix(&quick_config());
        let mut algorithms = std::collections::BTreeSet::new();
        let mut families = std::collections::BTreeSet::new();
        let mut models = std::collections::BTreeSet::new();
        for case in &out.cases {
            let get = |key: &str| {
                case.params
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| format!("{v:?}"))
                    .unwrap()
            };
            algorithms.insert(get("algorithm"));
            families.insert(get("family"));
            models.insert(get("model"));
        }
        assert!(algorithms.len() >= 6, "algorithms: {algorithms:?}");
        assert!(families.len() >= 6, "families: {families:?}");
        assert_eq!(models.len(), 4, "models: {models:?}");
        // Every compatible case informed every vertex on every seed.
        for case in &out.cases {
            let s = case.summary.metric("all_informed").unwrap();
            assert_eq!(
                (s.min, s.max),
                (1.0, 1.0),
                "not all informed in {:?}",
                case.params
            );
        }
    }

    #[test]
    fn skip_accounting_balances_the_cross_product() {
        let out = run_matrix(&quick_config());
        let counts = extra_field(&out, "skip_counts");
        let total = int_field(counts, "total_combinations");
        let run = int_field(counts, "run");
        let incompatible = int_field(counts, "skipped_incompatible");
        let budget = int_field(counts, "skipped_budget");
        assert_eq!(
            run + incompatible + budget,
            total,
            "skips must account for every combo"
        );
        assert_eq!(run, out.cases.len() as i64);
        assert!(
            incompatible > 0,
            "the matrix must contain incompatible pairs"
        );
        // CD-only algorithms under LOCAL are among the counted skips.
        let model_skips = int_field(counts, "skipped_incompatible_model");
        assert!(model_skips > 0);
        // The §8 path algorithm is scoped to the path family.
        let graph_skips = int_field(counts, "skipped_incompatible_graph");
        assert!(graph_skips > 0);
        assert_eq!(
            incompatible,
            int_field(counts, "skipped_incompatible_model")
                + int_field(counts, "skipped_incompatible_graph")
        );
    }

    #[test]
    fn zero_budget_truncates_every_multi_size_cell() {
        let out = run_matrix(&quick_config());
        let counts = extra_field(&out, "skip_counts");
        assert!(int_field(counts, "skipped_budget") > 0);
        assert!(int_field(counts, "truncated_cells") > 0);
        assert_eq!(int_field(counts, "budget_ms_per_cell"), 0);
        // Every case ran at the smallest size only (family generators may
        // overshoot the requested 16 slightly, e.g. complete binary trees).
        let mut flagged = 0usize;
        for case in &out.cases {
            let n = case
                .params
                .iter()
                .find(|(k, _)| *k == "n")
                .and_then(|(_, v)| v.as_f64())
                .unwrap();
            assert!(n <= 32.0, "budget-cut cell still ran n={n}");
            if matches!(
                case.params.iter().find(|(k, _)| *k == "truncated"),
                Some((_, Json::Bool(true)))
            ) {
                flagged += 1;
            }
        }
        // Cells whose later sizes were graph-incompatible anyway are not
        // budget-cut, but the bulk of the matrix must carry the flag.
        assert!(flagged * 2 > out.cases.len(), "{flagged} flagged");
        // The budget-cut skips appear in skipped_pairs with a cell axis.
        let pairs = extra_field(&out, "skipped_pairs").as_arr().unwrap();
        assert!(pairs
            .iter()
            .any(|p| p.get("kind").and_then(Json::as_str) == Some("budget")
                && p.get("cell").is_some()));
    }

    #[test]
    fn headline_cells_extend_the_n_axis() {
        // A headline cell counts the three extra sizes toward the
        // cross-product (zero budget keeps the test fast: only the first
        // size actually runs, the extension truncates and is tallied).
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("binary-tree".into()),
            model: Some("local".into()),
            algo: Some("naive_flood".into()),
            fault: Some("none".into()),
            ..RunConfig::default()
        });
        let counts = extra_field(&out, "skip_counts");
        assert_eq!(int_field(counts, "total_combinations"), 7);
        assert_eq!(int_field(counts, "run"), 1);
        assert_eq!(int_field(counts, "skipped_budget"), 6);
        let axes = extra_field(&out, "axes");
        let extras = axes.get("headline_extra_sizes").unwrap().as_arr().unwrap();
        assert_eq!(extras.len(), 3);
        // The same algorithm outside its headline model keeps the plain
        // four-size quick axis.
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("binary-tree".into()),
            model: Some("cd".into()),
            algo: Some("naive_flood".into()),
            fault: Some("none".into()),
            ..RunConfig::default()
        });
        let counts = extra_field(&out, "skip_counts");
        assert_eq!(int_field(counts, "total_combinations"), 4);
    }

    #[test]
    fn truncated_flag_survives_a_json_round_trip() {
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("local".into()),
            algo: Some("naive_flood".into()),
            fault: Some("none".into()),
            ..RunConfig::default()
        });
        assert_eq!(out.cases.len(), 1, "one case at the smallest size");
        let doc = out.cases[0].to_json();
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(
            parsed.get("params").unwrap().get("truncated"),
            Some(&Json::Bool(true)),
            "truncated flag lost in round trip: {parsed:?}"
        );
        // And the cell's fits carry it too.
        let fits = extra_field(&out, "fits");
        let reparsed = Json::parse(&fits.to_string_pretty()).unwrap();
        let cell = &reparsed.as_arr().unwrap()[0];
        assert_eq!(cell.get("truncated"), Some(&Json::Bool(true)));
    }

    #[test]
    fn unbudgeted_cell_fits_all_quick_sizes_with_finite_exponents() {
        // One cheap cell, unlimited budget: all four quick sizes run, the
        // fit uses all of them, and naive flooding's energy grows
        // polynomially (Θ(D) on the cycle).
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(UNLIMITED_BUDGET_MS),
            family: Some("cycle".into()),
            model: Some("local".into()),
            algo: Some("naive_flood".into()),
            fault: Some("none".into()),
            ..RunConfig::default()
        });
        assert_eq!(out.cases.len(), 4);
        for case in &out.cases {
            assert!(
                !case.params.iter().any(|(k, _)| *k == "truncated"),
                "unbudgeted cell must not truncate"
            );
        }
        let fits = extra_field(&out, "fits").as_arr().unwrap();
        assert_eq!(fits.len(), 1);
        let cell = &fits[0];
        assert_eq!(cell.get("truncated"), Some(&Json::Bool(false)));
        assert_eq!(cell.get("sizes").unwrap().as_arr().unwrap().len(), 4);
        let emax = cell.get("metrics").unwrap().get("energy_max").unwrap();
        assert_eq!(emax.get("points").unwrap().as_f64(), Some(4.0));
        let exponent = emax.get("exponent").unwrap().as_f64().unwrap();
        assert!(exponent.is_finite());
        assert!(
            emax.get("class").unwrap().as_str() != Some("insufficient-points"),
            "4 n-points must produce a classified fit"
        );
        // The emitted fit carries its bootstrap CI, bracketing the point
        // estimate — what the CI-overlap gate diffs.
        let ci = crate::analysis::ci_from_json(emax.get("exponent_ci"))
            .expect("fitted cell without exponent_ci");
        assert!(ci.0 <= exponent && exponent <= ci.1, "{ci:?} vs {exponent}");
        assert!(matches!(emax.get("class_confident"), Some(Json::Bool(_))));
    }

    #[test]
    fn quick_matrix_sweeps_at_least_two_seeds_per_case() {
        // The bootstrap's precondition: no --seeds pin in quick mode must
        // still leave ≥ 2 measurements per case, or every CI degenerates.
        let out = run_matrix(&RunConfig {
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("local".into()),
            algo: Some("theorem11".into()),
            ..RunConfig::default()
        });
        assert!(!out.cases.is_empty());
        for case in &out.cases {
            assert!(
                case.measurements.len() >= 2,
                "only {} seeds in {:?}",
                case.measurements.len(),
                case.params
            );
        }
    }

    #[test]
    fn axis_filters_narrow_the_matrix() {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("cd".into()),
            algo: Some("theorem11".into()),
            fault: Some("none".into()),
            ..RunConfig::default()
        };
        let out = run_matrix(&config);
        assert_eq!(out.cases.len(), 1);
        let params = &out.cases[0].params;
        for (key, want) in [
            ("family", "cycle"),
            ("model", "cd"),
            ("algorithm", "theorem11"),
        ] {
            let got = params.iter().find(|(k, _)| *k == key).unwrap();
            assert_eq!(got.1, Json::Str(want.into()));
        }
    }

    fn param<'a>(case: &'a Case, key: &str) -> Option<&'a Json> {
        case.params.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    #[test]
    fn fault_cells_emit_success_and_overhead_columns() {
        let out = run_matrix(&RunConfig {
            seeds: Some(2),
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("local".into()),
            algo: Some("naive_flood".into()),
            fault: Some("slot-loss".into()),
            ..RunConfig::default()
        });
        assert_eq!(out.cases.len(), 1);
        let case = &out.cases[0];
        assert_eq!(param(case, "fault"), Some(&Json::Str("slot-loss".into())));
        for metric in [
            "success_rate",
            "informed_frac",
            "energy_overhead_vs_clean",
            "lost_sends",
            "energy_max",
            "time",
        ] {
            let s = case.summary.metric(metric).unwrap_or_else(|| {
                panic!("fault cell missing metric {metric}: {:?}", case.summary)
            });
            assert!(s.mean.is_finite(), "{metric} not finite");
        }
        let s = case.summary.metric("success_rate").unwrap();
        assert!((0.0..=1.0).contains(&s.mean));
        // Flooding runs a fixed ecc+1-slot schedule (no retries), so the
        // overhead ratio can land on either side of 1.0 — but it must
        // stay a positive finite ratio, and with a quarter of the slots
        // lost across two seeds the meter must tally some lost sends.
        let overhead = case.summary.metric("energy_overhead_vs_clean").unwrap();
        assert!(overhead.min > 0.0, "overhead ratio collapsed: {overhead:?}");
        assert!(
            case.summary.metric("lost_sends").unwrap().max > 0.0,
            "slot loss at p=0.25 never cost flooding a send"
        );
        // Clean-only columns stay out of faulted cells.
        assert!(case.summary.metric("all_informed").is_none());
    }

    #[test]
    fn fault_axis_crosses_the_matrix_and_balances_skip_accounting() {
        // No fault pin: the full axis runs. The §8 path adapter opts out
        // of fault injection, so its active-fault combinations land in
        // `skipped_fault_intolerant` and the balance still closes.
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("path".into()),
            ..RunConfig::default()
        });
        let mut faults = std::collections::BTreeSet::new();
        for case in &out.cases {
            faults.insert(format!("{:?}", param(case, "fault").unwrap()));
        }
        assert!(faults.len() >= 4, "fault axis missing: {faults:?}");
        let counts = extra_field(&out, "skip_counts");
        assert!(int_field(counts, "skipped_fault_intolerant") > 0);
        assert_eq!(
            int_field(counts, "run")
                + int_field(counts, "skipped_incompatible")
                + int_field(counts, "skipped_budget"),
            int_field(counts, "total_combinations"),
        );
        let pairs = extra_field(&out, "skipped_pairs").as_arr().unwrap();
        assert!(pairs.iter().any(|p| {
            p.get("kind").and_then(Json::as_str) == Some("fault")
                && p.get("algorithm").and_then(Json::as_str) == Some("path_theorem21")
        }));
        let axes = extra_field(&out, "axes");
        assert_eq!(axes.get("faults").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn scaling_fits_ignore_the_fault_axis() {
        // One cheap combination across the whole fault axis, unlimited
        // budget: the clean cell sweeps all four quick sizes, faulted
        // cells stop at two — and the fits see only the clean series.
        let out = run_matrix(&RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(UNLIMITED_BUDGET_MS),
            family: Some("cycle".into()),
            model: Some("local".into()),
            algo: Some("naive_flood".into()),
            ..RunConfig::default()
        });
        assert_eq!(out.cases.len(), 4 + 3 * 2, "clean 4 sizes + 3 faults × 2");
        let fits = extra_field(&out, "fits").as_arr().unwrap();
        assert_eq!(fits.len(), 1, "faulted cases must not form fit cells");
        assert_eq!(fits[0].get("sizes").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn crash_cells_report_partial_outcomes_in_range() {
        // Under the crash plan success excuses the casualties (a crashed
        // device is counted out, not against), so both rate columns must
        // stay inside [0, 1] and the run must still inform someone — the
        // cycle keeps a second route around each crashed relay.
        let out = run_matrix(&RunConfig {
            seeds: Some(2),
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("no-cd".into()),
            algo: Some("bgi_decay".into()),
            fault: Some("crash".into()),
            ..RunConfig::default()
        });
        assert_eq!(out.cases.len(), 1);
        let s = out.cases[0].summary.metric("success_rate").unwrap();
        assert!((0.0..=1.0).contains(&s.mean), "{s:?}");
        let frac = out.cases[0].summary.metric("informed_frac").unwrap();
        assert!(frac.min > 0.0, "crash plan wiped out the whole run");
        assert!(frac.max <= 1.0);
    }

    #[test]
    fn unknown_filter_yields_an_empty_matrix_not_a_crash() {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            algo: Some("nonexistent".into()),
            ..RunConfig::default()
        };
        let out = run_matrix(&config);
        assert!(out.cases.is_empty());
        assert!(extra_field(&out, "fits").as_arr().unwrap().is_empty());
    }
}
