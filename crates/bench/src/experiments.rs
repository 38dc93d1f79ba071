//! The experiment registry: every row of the paper's Table 1 and every
//! figure, as a structured, parallel, JSON-serializable experiment.
//!
//! Each experiment is a pure function `RunConfig -> Vec<Case>`; the
//! [`ExperimentSpec`] wraps it with its name, human context, and the
//! paper's asymptotic claim. Absolute constants are not expected to match
//! the asymptotic formulas; the *shape* is what each experiment
//! demonstrates — who wins, how costs grow with `n`, `Δ` and `D`, and
//! where tradeoff knobs move the balance.

use ebc_core::cluster::{broadcast_theorem16, partition_beta, Theorem16Config};
use ebc_core::path::{path_broadcast, PathConfig};
use ebc_core::randomized::{broadcast_theorem11, Theorem11Config};
use std::sync::Arc;

use ebc_core::reduction::{run_reduction, theorem2_lower_bound, DecayMiddle, UniformCdMiddle};
use ebc_core::srcomm::Sr;
use ebc_core::suite;
use ebc_core::util::NodeRngs;
use ebc_graphs::deterministic::{cycle, grid, k2k, star};
use ebc_radio::{Graph, Model, Sim};

use crate::cache::CacheStats;
use crate::json::Json;
use crate::measure::{Case, CaseRunner, RunConfig, RunnerProfile};

/// A named experiment: metadata plus its runner.
pub struct ExperimentSpec {
    /// Stable machine name (also the `BENCH_<name>.json` file stem).
    pub name: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// The paper's asymptotic claim this experiment reproduces.
    pub paper: &'static str,
    /// What shape to expect in the numbers, in one sentence.
    pub note: &'static str,
    /// Runs the experiment under `config`, executing every cell through
    /// `runner` (which serves warm cells from the content-addressed cache
    /// when one is configured).
    pub run: fn(&RunConfig, &mut CaseRunner) -> ExperimentOutput,
    /// Experiment-specific scalars for the baseline regression gate
    /// (e.g. `fig1_path`'s `within_2n` rate, Theorem 2's slot counts) —
    /// folded into [`ExperimentResult::gate_scalars`] next to the generic
    /// per-experiment energy means. `None` for experiments whose per-case
    /// summaries already say everything gateable.
    pub gate: Option<fn(&ExperimentResult) -> Vec<GateScalar>>,
}

/// One named scalar an experiment exposes to the baseline regression
/// gate, beyond its per-case summary means.
#[derive(Debug, Clone, PartialEq)]
pub struct GateScalar {
    /// Stable scalar name (the baseline document key).
    pub name: String,
    /// The measured value.
    pub value: f64,
}

impl GateScalar {
    fn new(name: impl Into<String>, value: f64) -> GateScalar {
        GateScalar {
            name: name.into(),
            value,
        }
    }
}

impl ExperimentResult {
    /// The scalars the regression gate records and diffs, in stable order.
    ///
    /// Every result is gateable: the default scalars are the grand means
    /// of the standard energy metrics over all cases, and specs with a
    /// [`gate`] hook contribute their experiment-specific scalars
    /// (delivery-deadline rates, lower-bound slot counts, …) on top. The
    /// baseline gate records these under a `scalars` section and diffs
    /// them with the same relative tolerance as per-case means.
    ///
    /// [`gate`]: ExperimentSpec::gate
    pub fn gate_scalars(&self) -> Vec<GateScalar> {
        let mut scalars = Vec::new();
        // Per-experiment energy means: the grand mean over cases of each
        // energy metric's per-case mean (skipped where a metric is absent
        // or non-finite, so experiments without the standard metric set
        // still gate on their own scalars).
        for metric in ["energy_mean", "energy_max"] {
            let means: Vec<f64> = self
                .cases
                .iter()
                .filter_map(|c| c.summary.metric(metric).map(|s| s.mean))
                .filter(|v| v.is_finite())
                .collect();
            if !means.is_empty() {
                scalars.push(GateScalar::new(
                    format!("{metric}_over_cases"),
                    means.iter().sum::<f64>() / means.len() as f64,
                ));
            }
        }
        if let Some(gate) = self.spec.gate {
            scalars.extend(gate(self));
        }
        scalars
    }
}

/// The grand mean of `metric` over every measurement of every case
/// (`None` when no measurement recorded it).
fn measurement_mean(result: &ExperimentResult, metric: &str) -> Option<f64> {
    let values: Vec<f64> = result
        .cases
        .iter()
        .flat_map(|c| c.metric_values(metric))
        .collect();
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// `fig1_path`'s gate scalars: the fraction of all runs delivering within
/// the paper's worst-case `2n` deadline (Theorem 21 — must stay 1.0).
fn gate_fig1_path(result: &ExperimentResult) -> Vec<GateScalar> {
    measurement_mean(result, "within_2n")
        .map(|rate| GateScalar::new("within_2n_rate", rate))
        .into_iter()
        .collect()
}

/// `table1_lower`'s gate scalars: Theorem 2's leader-election slot counts
/// and election success rate per protocol — the measured side of the
/// energy lower bound `E ≥ T_LE / 2`.
fn gate_table1_lower(result: &ExperimentResult) -> Vec<GateScalar> {
    let mut scalars = Vec::new();
    for protocol in ["decay", "uniform"] {
        let cases: Vec<&Case> = result
            .cases
            .iter()
            .filter(|c| {
                c.params
                    .iter()
                    .any(|(k, v)| *k == "protocol" && *v == Json::Str(protocol.into()))
            })
            .collect();
        for metric in ["le_slots", "elected"] {
            let values: Vec<f64> = cases.iter().flat_map(|c| c.metric_values(metric)).collect();
            if !values.is_empty() {
                scalars.push(GateScalar::new(
                    format!("{metric}_mean_{protocol}"),
                    values.iter().sum::<f64>() / values.len() as f64,
                ));
            }
        }
    }
    scalars
}

/// `scenario_matrix`'s gate scalars: per fault-axis value, the grand
/// `success_rate` (fraction of faulted runs where every surviving device
/// ended informed) and mean `energy_overhead_vs_clean` over all faulted
/// runs of that kind — the headline columns of the fault axis, gated so
/// a fault-layer regression (faults silently not reaching the pipeline
/// would push every success rate to 1.0 and every overhead to exactly
/// 1.0) trips the baseline diff.
fn gate_scenario_matrix(result: &ExperimentResult) -> Vec<GateScalar> {
    let mut scalars = Vec::new();
    for fault in ["slot-loss", "crash", "jammer"] {
        let cases: Vec<&Case> = result
            .cases
            .iter()
            .filter(|c| {
                c.params
                    .iter()
                    .any(|(k, v)| *k == "fault" && *v == Json::Str(fault.into()))
            })
            .collect();
        for metric in ["success_rate", "energy_overhead_vs_clean"] {
            let values: Vec<f64> = cases.iter().flat_map(|c| c.metric_values(metric)).collect();
            if !values.is_empty() {
                scalars.push(GateScalar::new(
                    format!("{metric}_{fault}"),
                    values.iter().sum::<f64>() / values.len() as f64,
                ));
            }
        }
    }
    scalars
}

/// What one experiment run produced: the parameter-point cases plus any
/// experiment-specific top-level JSON fields (e.g. the scenario matrix's
/// skip accounting). Plain case lists convert via `.into()`.
pub struct ExperimentOutput {
    /// One entry per parameter point.
    pub cases: Vec<Case>,
    /// Extra `(key, value)` pairs serialized at the document's top level,
    /// before `"cases"`.
    pub extra: Vec<(&'static str, Json)>,
}

impl From<Vec<Case>> for ExperimentOutput {
    fn from(cases: Vec<Case>) -> ExperimentOutput {
        ExperimentOutput {
            cases,
            extra: Vec::new(),
        }
    }
}

/// A completed experiment: the spec it ran, how, and the cases produced.
pub struct ExperimentResult {
    /// The spec that ran.
    pub spec: &'static ExperimentSpec,
    /// The configuration it ran under.
    pub config: RunConfig,
    /// One entry per parameter point.
    pub cases: Vec<Case>,
    /// Experiment-specific top-level JSON fields.
    pub extra: Vec<(&'static str, Json)>,
    /// Cell-cache accounting for this run — `Some` iff a cache was
    /// configured ([`RunConfig::cache_dir`]).
    pub cache: Option<CacheStats>,
    /// Wall-clock breakdown per cell (build / sim / cache, plus analysis),
    /// aggregated across experiments into `BENCH_profile.json`. Kept out
    /// of the main result document: wall-clock is machine noise, and the
    /// baselines diff that document.
    pub profile: RunnerProfile,
}

/// The JSON schema version stamped into every emitted file. Bump on any
/// backwards-incompatible change to the document layout. (v2: baseline
/// documents gained `scalars` and all-param case keys; scaling fits
/// gained `exponent_ci` / `class_agreement` / `class_confident`.)
pub const SCHEMA_VERSION: u32 = 2;

impl ExperimentResult {
    /// Serializes the full result document (`BENCH_<name>.json` payload).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("experiment", self.spec.name)
            .field("title", self.spec.title)
            .field("paper_bound", self.spec.paper)
            .field("note", self.spec.note)
            .field(
                "config",
                Json::obj()
                    .field("seeds", self.config.seeds.map_or(Json::Null, Json::from))
                    .field("quick", self.config.quick)
                    .field("threads", rayon::current_num_threads()),
            );
        if let Some(cache) = self.cache {
            doc = doc.field("cache", cache.to_json());
        }
        for (k, v) in &self.extra {
            doc = doc.field(k, v.clone());
        }
        doc.field(
            "cases",
            Json::Arr(self.cases.iter().map(Case::to_json).collect()),
        )
    }
}

/// Runs `spec` under `config`, routing every cell through the cell cache
/// when `config.cache_dir` is set.
pub fn run_experiment(spec: &'static ExperimentSpec, config: &RunConfig) -> ExperimentResult {
    let mut runner = CaseRunner::new(spec.name, config);
    let output = (spec.run)(config, &mut runner);
    ExperimentResult {
        spec,
        config: config.clone(),
        cases: output.cases,
        extra: output.extra,
        cache: runner.finish(),
        profile: runner.profile,
    }
}

/// Looks up an experiment by exact name, then by unique substring.
pub fn find_experiment(name: &str) -> Option<&'static ExperimentSpec> {
    if let Some(spec) = EXPERIMENTS.iter().find(|s| s.name == name) {
        return Some(spec);
    }
    let matches: Vec<&'static ExperimentSpec> = EXPERIMENTS
        .iter()
        .filter(|s| s.name.contains(name))
        .collect();
    match matches.as_slice() {
        [one] => Some(one),
        _ => None,
    }
}

fn sizes<'a>(config: &RunConfig, full: &'a [usize], quick: &'a [usize]) -> &'a [usize] {
    if config.quick {
        quick
    } else {
        full
    }
}

/// One broadcast case that runs the registered algorithm `algorithm` (an
/// [`ebc_core::suite`] name, with its default, instance-scaled
/// configuration) from vertex 0 of `g`.
fn registry_case(
    runner: &mut CaseRunner,
    params: Vec<(&'static str, Json)>,
    algorithm: &str,
    g: &Arc<Graph>,
    model: Model,
    seeds: u64,
) -> Case {
    let alg = suite::by_name(algorithm)
        .unwrap_or_else(|| panic!("{algorithm:?} is not a registered algorithm"));
    runner.run_broadcast_case(params, g, model, seeds, |s| alg.run(s, 0).all_informed())
}

/// The parameters of a Table 1 row on a cycle.
fn cycle_row(n: usize, algorithm: &str, model: Model) -> Vec<(&'static str, Json)> {
    vec![
        ("graph", "cycle".into()),
        ("n", n.into()),
        ("algorithm", algorithm.into()),
        ("model", model_name(model).into()),
    ]
}

/// E1/E5/E7 — Table 1 randomized rows: Theorem 11 under LOCAL / CD /
/// No-CD and Theorem 12 under CD, swept over `n` on rings.
fn run_table1_randomized(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &n in sizes(config, &[64, 128, 256, 512], &[64, 128]) {
        let g = Arc::new(cycle(n));
        let variants: &[(&'static str, Model, u64)] = &[
            ("theorem11", Model::Local, 3),
            ("theorem11", Model::Cd, 3),
            ("theorem11", Model::NoCd, 3),
            ("theorem12", Model::Cd, 2),
        ];
        for &(algorithm, model, full_seeds) in variants {
            let seeds = config.seeds_for_size(full_seeds, n, 64);
            let params = cycle_row(n, algorithm, model);
            cases.push(registry_case(runner, params, algorithm, &g, model, seeds));
        }
    }
    cases.into()
}

/// E2 — Theorem 16's `O(D^{1+ε})` time on grids vs Theorem 11.
fn run_table1_dtime(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let t16 = Theorem16Config {
        beta_override: Some(0.25),
        ..Theorem16Config::default()
    };
    let t11 = Theorem11Config::default();
    let mut cases = Vec::new();
    for &side in sizes(config, &[8, 12, 16, 22], &[8, 12]) {
        let g = Arc::new(grid(side, side));
        let seeds = config.seeds_for_size(2, side * side, 64);
        for (algorithm, m16) in [("theorem16", true), ("theorem11", false)] {
            cases.push(runner.run_broadcast_case(
                vec![
                    ("graph", format!("grid {side}x{side}").into()),
                    ("n", (side * side).into()),
                    ("diameter", (2 * (side - 1)).into()),
                    ("algorithm", algorithm.into()),
                    ("model", model_name(Model::NoCd).into()),
                ],
                &g,
                Model::NoCd,
                seeds,
                |s| {
                    if m16 {
                        broadcast_theorem16(s, 0, &t16).all_informed()
                    } else {
                        broadcast_theorem11(s, 0, &t11).all_informed()
                    }
                },
            ));
        }
    }
    cases.into()
}

/// E3 — Corollary 13: bounded-degree No-CD via LOCAL simulation.
fn run_table1_bounded(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &n in sizes(config, &[64, 128, 256, 512], &[64, 128]) {
        let g = Arc::new(cycle(n));
        let seeds = config.seeds_for_size(2, n, 64);
        for algorithm in ["corollary13", "theorem11"] {
            let params = cycle_row(n, algorithm, Model::NoCd);
            cases.push(registry_case(
                runner,
                params,
                algorithm,
                &g,
                Model::NoCd,
                seeds,
            ));
        }
    }
    cases.into()
}

/// E4 — the Theorem 2 reduction on `K_{2,k}`: leader-election slot counts
/// against the analytic lower bounds, plus broadcast energy on the gadget.
fn run_table1_lower(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &k in sizes(config, &[8, 32, 128, 512], &[8, 32]) {
        let le_seeds = config.seeds_for_size(10, k, 8);
        for (protocol, model) in [("decay", Model::NoCd), ("uniform", Model::Cd)] {
            cases.push(runner.run_case(
                vec![
                    ("gadget", "k2k".into()),
                    ("k", k.into()),
                    ("protocol", protocol.into()),
                    ("model", model_name(model).into()),
                    ("bound_f1pct", theorem2_lower_bound(model, k, 0.01).into()),
                ],
                le_seeds,
                |seed| {
                    let r = match protocol {
                        "decay" => run_reduction(k, model, |_| DecayMiddle::new(k), seed, 100_000),
                        _ => run_reduction(k, model, |_| UniformCdMiddle::new(k), seed, 100_000),
                    };
                    vec![
                        ("le_slots", r.slots as f64),
                        ("elected", f64::from(u8::from(r.leader.is_some()))),
                    ]
                },
            ));
        }
        // Broadcast energy on the gadget itself (Theorem 11, CD): always
        // far above the reduction-derived bound.
        let g = Arc::new(k2k(k));
        cases.push(registry_case(
            runner,
            vec![
                ("gadget", "k2k".into()),
                ("k", k.into()),
                ("protocol", "broadcast_theorem11".into()),
                ("model", model_name(Model::Cd).into()),
                (
                    "bound_f1pct",
                    theorem2_lower_bound(Model::Cd, k, 0.01).into(),
                ),
            ],
            "theorem11",
            &g,
            Model::Cd,
            config.seeds_for_size(2, k, 8),
        ));
    }
    cases.into()
}

/// E6 — Theorem 20: lower CD energy bought with much more time.
fn run_table1_cdfast(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &n in sizes(config, &[32, 64, 128], &[32, 64]) {
        let g = Arc::new(cycle(n));
        let seeds = config.seeds_for_size(2, n, 32);
        for algorithm in ["theorem20", "theorem11"] {
            let params = cycle_row(n, algorithm, Model::Cd);
            cases.push(registry_case(
                runner,
                params,
                algorithm,
                &g,
                Model::Cd,
                seeds,
            ));
        }
    }
    cases.into()
}

/// E8/E9 — deterministic rows (Theorems 25 and 27); a single seed, the
/// algorithms are deterministic.
fn run_table1_det(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &n in sizes(config, &[16, 32, 64], &[16, 32]) {
        let g = Arc::new(cycle(n));
        for (label, algorithm, model) in [
            ("theorem25", "det_local_theorem25", Model::Local),
            ("theorem27", "det_cd_theorem27", Model::Cd),
        ] {
            let params = cycle_row(n, label, model);
            cases.push(registry_case(runner, params, algorithm, &g, model, 1));
        }
    }
    cases.into()
}

/// E10/E11 — the §8 path algorithm: ≤ 2n delivery time at `O(log n)`
/// expected per-vertex energy.
fn run_fig1_path(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &exp in sizes(config, &[8, 10, 12, 14], &[8, 10]) {
        let n = 1usize << exp;
        let seeds = config.seeds_for_size(5, n, 1 << 8);
        let cfg = PathConfig {
            oriented: true,
            cap_blocking: true,
        };
        cases.push(runner.run_case(
            vec![("graph", "path".into()), ("n", n.into())],
            seeds,
            |seed| {
                let (stats, sim) = path_broadcast(n, 0, &cfg, seed);
                assert!(stats.all_informed, "path broadcast failed (seed {seed})");
                let r = sim.meter().report();
                vec![
                    ("time", stats.delivery_time as f64),
                    (
                        "within_2n",
                        f64::from(u8::from(stats.delivery_time <= 2 * n as u64)),
                    ),
                    ("energy_max", r.max as f64),
                    ("energy_mean", r.mean),
                ]
            },
        ));
    }
    cases.into()
}

/// E12 — ablations: SR-primitive receiver energies (Lemmas 7/8 vs the CD
/// transform) and `Partition(β)` statistics (Lemmas 14/15).
fn run_ablation(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    // Receiver energy of the two SR primitives on stars of growing degree.
    for &delta in sizes(config, &[8, 64, 512], &[8, 64]) {
        let g = Arc::new(star(delta));
        let senders: Vec<(usize, u32)> = (1..=delta).map(|v| (v, v as u32)).collect();
        let seeds = config.seeds_for_size(10, delta, 8);
        for primitive in ["decay", "cd_transform"] {
            cases.push(runner.run_case(
                vec![
                    ("graph", "star".into()),
                    ("delta", delta.into()),
                    ("primitive", primitive.into()),
                ],
                seeds,
                |seed| {
                    let (model, sr, stream) = if primitive == "decay" {
                        (Model::NoCd, Sr::Decay { delta, sweeps: 20 }, 1)
                    } else {
                        (
                            Model::Cd,
                            Sr::CdTransform {
                                delta,
                                epochs: 30,
                                relevance_check: false,
                            },
                            2,
                        )
                    };
                    let mut sim = Sim::new(Arc::clone(&g), model, seed);
                    let got = sr.run(
                        &mut sim,
                        &senders,
                        &[0],
                        &mut NodeRngs::new(seed, delta + 1, stream),
                    );
                    assert!(got[0].is_some(), "SR delivered nothing (seed {seed})");
                    vec![("receiver_energy", sim.meter().energy(0) as f64)]
                },
            ));
        }
    }
    // Partition(β): measured edge-cut fraction vs the 2β bound and
    // cluster-graph diameter vs the 3βD bound, on a cycle.
    let n = 512;
    let g = Arc::new(cycle(n));
    for beta in [0.1f64, 0.2, 0.3] {
        let seeds = config.seeds_for(5);
        cases.push(runner.run_case(
            vec![
                ("graph", "cycle".into()),
                ("n", n.into()),
                ("beta", beta.into()),
                ("bound_cut_fraction", (2.0 * beta).into()),
                (
                    "bound_cluster_diameter",
                    (3.0 * beta * (n / 2) as f64).into(),
                ),
            ],
            seeds,
            |seed| {
                let mut sim = Sim::new(Arc::clone(&g), Model::Local, seed);
                let mut rngs = NodeRngs::new(seed, n, 9);
                let st = partition_beta(&mut sim, beta, &Sr::Local, &mut rngs);
                let (cg, _) = st.cluster_graph(&g);
                vec![
                    ("cut_fraction", st.edge_cut_fraction(&g)),
                    (
                        "cluster_diameter",
                        f64::from(cg.diameter_exact().unwrap_or(0)),
                    ),
                ]
            },
        ));
    }
    cases.into()
}

/// E13 — the baseline gap: BGI decay's `Θ(D)` energy vs Theorem 11's
/// polylog, on growing rings.
fn run_baseline_gap(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &n in sizes(config, &[128, 256, 512, 1024], &[128, 256]) {
        let g = Arc::new(cycle(n));
        let seeds = config.seeds_for_size(2, n, 128);
        for algorithm in ["theorem11", "bgi_decay"] {
            let params = cycle_row(n, algorithm, Model::NoCd);
            cases.push(registry_case(
                runner,
                params,
                algorithm,
                &g,
                Model::NoCd,
                seeds,
            ));
        }
    }
    cases.into()
}

pub(crate) fn model_name(model: Model) -> &'static str {
    match model {
        Model::NoCd => "no-cd",
        Model::Cd => "cd",
        Model::CdStar => "cd-star",
        Model::Local => "local",
        Model::Beep => "beep",
    }
}

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "table1_randomized",
        title: "Table 1 randomized rows (Theorems 11, 12)",
        paper: "LOCAL: O(n log n) time, O(log n) energy | No-CD: O(n logΔ log²n), O(logΔ log²n) | CD: O(log²n/(ε loglog n)) energy",
        note: "times grow ~linearly in n; energies grow polylog (compare log²n)",
        run: run_table1_randomized,
        gate: None,
    },
    ExperimentSpec {
        name: "table1_dtime",
        title: "Table 1 No-CD row 2 (Theorem 16, D^{1+ε} time)",
        paper: "O(D^{1+ε} log^{O(1/ε)} n) time vs Theorem 11's O(n logΔ log²n); on grids D = 2√n ≪ n",
        note: "Theorem 11's time scales with n, Theorem 16's with D·polylog — the gap widens as the grid grows",
        run: run_table1_dtime,
        gate: None,
    },
    ExperimentSpec {
        name: "table1_bounded",
        title: "Table 1 No-CD row 3 (Corollary 13, Δ = O(1))",
        paper: "O(n log n) time, O(log n) energy on bounded-degree graphs",
        note: "Corollary 13's energy grows like log n and undercuts the generic No-CD pipeline",
        run: run_table1_bounded,
        gate: None,
    },
    ExperimentSpec {
        name: "table1_lower",
        title: "Table 1 lower-bound rows (Theorem 2 reduction on K_{2,k})",
        paper: "energy ≥ T_LE(Δ, f)/2: Ω(log n) in CD, Ω(logΔ log n) in No-CD",
        note: "No-CD election time grows with log k; CD stays near-flat (loglog k); broadcast energy dominates the bound",
        run: run_table1_lower,
        gate: Some(gate_table1_lower),
    },
    ExperimentSpec {
        name: "table1_cdfast",
        title: "Table 1 CD row 2 (Theorem 20)",
        paper: "O(log n (loglogΔ + 1/ξ)/logloglogΔ) energy at O(Δ n^{1+ξ}) time",
        note: "Theorem 20 buys lower energy with (much) more time, per the paper's tradeoff",
        run: run_table1_cdfast,
        gate: None,
    },
    ExperimentSpec {
        name: "table1_det",
        title: "Table 1 deterministic rows (Theorems 25, 27)",
        paper: "LOCAL: O(n log n log N) time, O(log n log N) energy | CD: O(nN² log n log N) time, O(log³N log n) energy",
        note: "both deterministic energies grow polylog; Theorem 27's clock is polynomial (N² factor)",
        run: run_table1_det,
        gate: None,
    },
    ExperimentSpec {
        name: "fig1_path",
        title: "Figure 1 & Theorem 21 (the path algorithm)",
        paper: "worst-case time 2n, expected per-vertex energy O(log n)",
        note: "time stays under 2n at every size; mean energy tracks log n",
        run: run_fig1_path,
        gate: Some(gate_fig1_path),
    },
    ExperimentSpec {
        name: "ablation",
        title: "Ablations (Lemmas 7/8, 14/15, §5 parameters)",
        paper: "decay: O(logΔ log 1/f) receiver energy vs CD transform: O(loglogΔ + log 1/f); Partition(β): edge-cut ≤ 2β, diameter ×3β",
        note: "measured cut fractions sit under 2β; cluster-graph diameters under 3βD",
        run: run_ablation,
        gate: None,
    },
    ExperimentSpec {
        name: "baseline_gap",
        title: "Baseline gap (BGI decay vs Theorem 11)",
        paper: "BGI energy grows Θ(D); Theorem 11's grows polylog",
        note: "doubling n doubles BGI's energy; Theorem 11's is nearly flat (asymptotic claim, large constants)",
        run: run_baseline_gap,
        gate: None,
    },
    ExperimentSpec {
        name: "scenario_matrix",
        title: "Scenario matrix (every algorithm × family × fault × model × n)",
        paper: "Table 1 as a whole: each algorithm's time/energy row holds in exactly its models; incompatible pairs are skipped and counted",
        note: "all_informed is 1.0 on every clean cell; under the fault axis success_rate degrades and energy_overhead_vs_clean exceeds 1 where retries are charged",
        run: crate::scenario::run_scenario_matrix,
        gate: Some(gate_scenario_matrix),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_kebab_stable() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate experiment names");
        for n in names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "name {n:?} is not a stable file stem"
            );
        }
    }

    #[test]
    fn find_experiment_exact_and_substring() {
        assert_eq!(
            find_experiment("table1_randomized").unwrap().name,
            "table1_randomized"
        );
        assert_eq!(find_experiment("path").unwrap().name, "fig1_path");
        // Ambiguous substring resolves to nothing.
        assert!(find_experiment("table1").is_none());
        assert!(find_experiment("nonexistent").is_none());
    }

    #[test]
    fn quick_run_emits_schema_stable_json() {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            ..RunConfig::default()
        };
        let spec = find_experiment("table1_det").unwrap();
        let result = run_experiment(spec, &config);
        assert!(!result.cases.is_empty());
        let doc = result.to_json().to_string_pretty();
        for key in [
            "\"schema_version\"",
            "\"experiment\"",
            "\"paper_bound\"",
            "\"config\"",
            "\"cases\"",
            "\"params\"",
            "\"summary\"",
            "\"measurements\"",
            "\"energy_max\"",
        ] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
    }

    #[test]
    fn deterministic_experiment_reruns_identically() {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            ..RunConfig::default()
        };
        let spec = find_experiment("table1_det").unwrap();
        let a = run_experiment(spec, &config).to_json().to_string_pretty();
        let b = run_experiment(spec, &config).to_json().to_string_pretty();
        assert_eq!(a, b);
    }
}
