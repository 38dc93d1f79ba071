//! The experiment registry: the measurements no scenario-matrix cell
//! makes, as structured, parallel, JSON-serializable experiments. Each
//! Table 1 row's time and energy on a family is a matrix cell
//! ([`crate::scenario`]); the experiments here add what those cells do not
//! measure: Theorem 16 at a pinned β, Theorem 2's reduction, the path
//! algorithm's `2n` deadline, and the SR and `Partition(β)` ablations.
//!
//! Each experiment is a pure function `RunConfig -> Vec<Case>`; the
//! [`ExperimentSpec`] wraps it with its name, human context, and the
//! paper's asymptotic claim. Absolute constants are not expected to match
//! the asymptotic formulas; the *shape* is what each experiment
//! demonstrates — who wins, how costs grow with `n`, `Δ` and `D`, and
//! where tradeoff knobs move the balance.

use ebc_core::cluster::{broadcast_theorem16, partition_beta};
use ebc_core::path::path_broadcast;
use ebc_core::randomized::broadcast_theorem11;
use std::sync::Arc;

use ebc_core::reduction::{run_reduction, theorem2_lower_bound, DecayMiddle, UniformCdMiddle};
use ebc_core::srcomm::Sr;
use ebc_core::util::NodeRngs;
use ebc_graphs::deterministic::{cycle, grid, k2k, star};
use ebc_radio::{Model, Sim};

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
/// case keys cover every param; scaling fits gained `exponent_ci` /
/// `class_agreement` / `class_confident`.)
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

/// Theorem 16's `O(D^{1+ε})` time on grids vs Theorem 11.
fn run_table1_dtime(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
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
                        broadcast_theorem16(s, 0, Some(0.25)).all_informed()
                    } else {
                        broadcast_theorem11(s, 0).all_informed()
                    }
                },
            ));
        }
    }
    cases.into()
}

/// The Theorem 2 reduction on `K_{2,k}`: leader-election slot counts
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
        cases.push(runner.run_broadcast_case(
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
            &g,
            Model::Cd,
            config.seeds_for_size(2, k, 8),
            |s| broadcast_theorem11(s, 0).all_informed(),
        ));
    }
    cases.into()
}

/// The §8 path algorithm: ≤ 2n delivery time at `O(log n)`
/// expected per-vertex energy.
fn run_fig1_path(config: &RunConfig, runner: &mut CaseRunner) -> ExperimentOutput {
    let mut cases = Vec::new();
    for &exp in sizes(config, &[8, 10, 12, 14], &[8, 10]) {
        let n = 1usize << exp;
        let seeds = config.seeds_for_size(5, n, 1 << 8);
        cases.push(runner.run_case(
            vec![("graph", "path".into()), ("n", n.into())],
            seeds,
            |seed| {
                let (stats, sim) = path_broadcast(n, 0, true, seed);
                assert!(stats.all_informed, "path broadcast failed (seed {seed})");
                // Theorem 21: delivery within 2n in the worst case, for n a
                // power of two and the source at an end of the oriented path.
                assert!(
                    stats.delivery_time <= 2 * n as u64,
                    "path broadcast missed its 2n deadline (n {n}, seed {seed}, time {})",
                    stats.delivery_time
                );
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

/// Ablations: SR-primitive receiver energies (Lemmas 7/8 vs the CD
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
        name: "table1_dtime",
        title: "Table 1 No-CD row 2 (Theorem 16, D^{1+ε} time)",
        paper: "O(D^{1+ε} log^{O(1/ε)} n) time vs Theorem 11's O(n logΔ log²n); on grids D = 2√n ≪ n",
        note: "Theorem 11's time scales with n, Theorem 16's with D·polylog — the gap widens as the grid grows",
        run: run_table1_dtime,
    },
    ExperimentSpec {
        name: "table1_lower",
        title: "Table 1 lower-bound rows (Theorem 2 reduction on K_{2,k})",
        paper: "energy ≥ T_LE(Δ, f)/2: Ω(log n) in CD, Ω(logΔ log n) in No-CD",
        note: "No-CD election time grows with log k; CD stays near-flat (loglog k); broadcast energy dominates the bound",
        run: run_table1_lower,
    },
    ExperimentSpec {
        name: "fig1_path",
        title: "Figure 1 & Theorem 21 (the path algorithm)",
        paper: "worst-case time 2n, expected per-vertex energy O(log n)",
        note: "time stays under 2n at every size; mean energy tracks log n",
        run: run_fig1_path,
    },
    ExperimentSpec {
        name: "ablation",
        title: "Ablations (Lemmas 7/8, 14/15, §5 parameters)",
        paper: "decay: O(logΔ log 1/f) receiver energy vs CD transform: O(loglogΔ + log 1/f); Partition(β): edge-cut ≤ 2β, diameter ×3β",
        note: "measured cut fractions sit under 2β; cluster-graph diameters under 3βD",
        run: run_ablation,
    },
    ExperimentSpec {
        name: "scenario_matrix",
        title: "Scenario matrix (every algorithm × family × fault × model × n)",
        paper: "Table 1 as a whole: each algorithm's time/energy row holds in exactly its models; incompatible pairs are skipped and counted",
        note: "all_informed is 1.0 on every clean cell; under the fault axis success_rate degrades and energy_overhead_vs_clean exceeds 1 where retries are charged",
        run: crate::scenario::run_scenario_matrix,
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
            find_experiment("table1_lower").unwrap().name,
            "table1_lower"
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
        let spec = find_experiment("table1_lower").unwrap();
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
        let spec = find_experiment("table1_lower").unwrap();
        let a = run_experiment(spec, &config).to_json().to_string_pretty();
        let b = run_experiment(spec, &config).to_json().to_string_pretty();
        assert_eq!(a, b);
    }
}
