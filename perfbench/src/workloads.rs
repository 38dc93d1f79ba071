//! The four workloads. Each is a closed loop: one client runs iteration
//! after iteration, and an iteration is a timed set-up (graph build and
//! `Sim` construction) followed by the timed run. Every public call into a
//! layer is wrapped in a [`Tracer`] span; every output is checked.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebc_bench::cache::fnv1a64;
use ebc_bench::json::Json;
use ebc_bench::measure::{RunConfig, UNLIMITED_BUDGET_MS};
use ebc_bench::{find_experiment, run_experiment, write_result_files, Case, ExperimentResult};
use ebc_core::suite::{BroadcastAlgorithm, NaiveFlood, ALGORITHMS, MESSAGING_MODELS};
use ebc_graphs::families::Family;
use ebc_radio::{Action, Feedback, Graph, Model, NodeId, Schedule, Sim};

use crate::probes;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Thm12CdTree,
    Dense32k,
    RegistryGrid256,
    MatrixCdStar,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Thm12CdTree,
        Workload::Dense32k,
        Workload::RegistryGrid256,
        Workload::MatrixCdStar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm12CdTree => "thm12-cd-tree",
            Workload::Dense32k => "dense-32k",
            Workload::RegistryGrid256 => "registry-grid-256",
            Workload::MatrixCdStar => "matrix-cd-star",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The metric-name key of a model.
pub fn model_key(model: Model) -> &'static str {
    match model {
        Model::Local => "local",
        Model::Cd => "cd",
        Model::CdStar => "cd-star",
        Model::NoCd => "no-cd",
        Model::Beep => "beep",
    }
}

/// Per-run settings shared by every iteration.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Shrinks every workload to seconds in a debug build.
    pub smoke: bool,
    /// Where the matrix writes its cell cache and result documents.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The master seed handed to every `Sim` (offset like the harness's
    /// own sweep seeds, which start at 1000).
    fn sim_seed(&self) -> u64 {
        self.seed.wrapping_add(1000)
    }

    fn tree_n(&self) -> usize {
        match (self.workload, self.smoke) {
            (_, true) => 1023,
            (Workload::Dense32k, false) => (1 << 15) - 1,
            _ => (1 << 13) - 1,
        }
    }

    fn grid_n(&self) -> usize {
        if self.smoke {
            64
        } else {
            256
        }
    }

    /// The graph the radio probes run on: the workload's largest graph.
    pub fn probe_graph(&self) -> Arc<Graph> {
        let (family, n) = match self.workload {
            Workload::Thm12CdTree | Workload::Dense32k => (Family::BinaryTree, self.tree_n()),
            Workload::RegistryGrid256 => (Family::Grid, self.grid_n()),
            Workload::MatrixCdStar => (matrix_families(self.smoke)[0], MATRIX_SIZES[3]),
        };
        Arc::new(family.instance(n, 0xebc0 + n as u64).graph)
    }
}

/// The simulated statistics of one run: pinned for the default seeds and
/// required to repeat bit for bit across iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStat {
    pub label: String,
    pub energy_total: u64,
    pub energy_max: u64,
    pub clock: u64,
    pub idle_skipped: u64,
}

impl RunStat {
    fn of(label: String, sim: &Sim) -> RunStat {
        let m = sim.meter();
        RunStat {
            label,
            energy_total: m.total_energy(),
            energy_max: m.max_energy(),
            clock: sim.now(),
            idle_skipped: m.idle_skipped(),
        }
    }
}

/// A digest over an iteration's run statistics.
pub fn digest(stats: &[RunStat]) -> String {
    let mut text = String::new();
    for s in stats {
        text.push_str(&format!(
            "{}|{}|{}|{}|{}\n",
            s.label, s.energy_total, s.energy_max, s.clock, s.idle_skipped
        ));
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// One iteration's timings, outputs and failed checks.
#[derive(Default)]
pub struct Iteration {
    pub setup: Duration,
    pub run: Duration,
    /// The matrix's warm pass.
    pub warm: Option<Duration>,
    pub stats: Vec<RunStat>,
    pub failures: Vec<String>,
    /// Exact counts and harness-reported figures, by per-layer metric name.
    pub facts: BTreeMap<String, f64>,
    /// Computed working set: CSR bytes plus one `Sim`'s per-node scratch,
    /// on the largest graph the run drives.
    pub working_set_bytes: u64,
}

impl Iteration {
    pub fn energy_units(&self) -> u64 {
        self.stats.iter().map(|s| s.energy_total).sum()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Per-node sends + listens equal `energy(v)` and sum to
    /// `total_energy`.
    fn check_meter(&mut self, label: &str, sim: &Sim) {
        let m = sim.meter();
        let mut sum = 0u64;
        let mut bad = None;
        for v in 0..sim.graph().n() {
            let e = m.sends(v) + m.listens(v);
            if e != m.energy(v) && bad.is_none() {
                bad = Some(v);
            }
            sum += e;
        }
        self.check(bad.is_none(), || {
            format!("{label}: sends + listens != energy at vertex {bad:?}")
        });
        self.check(sum == m.total_energy(), || {
            format!(
                "{label}: per-node energy sums to {sum}, total_energy is {}",
                m.total_energy()
            )
        });
    }

    fn check_informed(&mut self, label: &str, informed: usize, n: usize) {
        self.check(informed == n, || {
            format!("{label}: informed {informed} of {n} vertices")
        });
    }
}

/// CSR bytes of a graph.
fn csr_bytes(g: &Graph) -> u64 {
    4 * (g.offsets().len() + g.neighbor_data().len()) as u64
}

/// Per-node bytes one `Sim` allocates: the `sending` index (u32), the
/// transmit bitset (1 bit), and the meter's sends/listens/lost counters
/// (3 × u64).
fn sim_scratch_bytes(n: usize) -> u64 {
    (4 * n + n.div_ceil(64) * 8 + 24 * n) as u64
}

fn build(tr: &mut Tracer, family: Family, n: usize) -> Arc<Graph> {
    tr.span("graphs", "graphs.build", |_| {
        Arc::new(family.instance(n, 0xebc0 + n as u64).graph)
    })
}

fn new_sim(tr: &mut Tracer, graph: &Arc<Graph>, model: Model, seed: u64) -> Sim {
    tr.span("radio", "radio.sim_new", |_| {
        Sim::new(Arc::clone(graph), model, seed)
    })
}

/// Runs one algorithm, checks its outputs, and records its statistics.
fn run_alg(tr: &mut Tracer, it: &mut Iteration, alg: &dyn BroadcastAlgorithm, sim: &mut Sim) {
    let label = format!("{}.{}", alg.name(), model_key(sim.model()));
    let out = tr.span("core", &format!("core.{label}"), |_| alg.run(sim, 0));
    it.check_informed(&label, out.count(), sim.graph().n());
    it.check_meter(&label, sim);
    it.stats.push(RunStat::of(label, sim));
}

/// One iteration: set-up, then the timed run.
pub fn iterate(ctx: &Ctx, tr: &mut Tracer) -> Iteration {
    tr.span("perfbench", "perfbench.iteration", |tr| {
        dispatch(ctx, tr, true)
    })
}

/// The set-up alone, for more set-up samples than iterations give.
pub fn setup_only(ctx: &Ctx) -> Duration {
    dispatch(ctx, &mut Tracer::new(false), false).setup
}

fn dispatch(ctx: &Ctx, tr: &mut Tracer, run: bool) -> Iteration {
    match ctx.workload {
        Workload::Thm12CdTree => thm12_cd_tree(ctx, tr, run),
        Workload::Dense32k => dense_32k(ctx, tr, run),
        Workload::RegistryGrid256 => registry_grid_256(ctx, tr, run),
        Workload::MatrixCdStar => matrix_cd_star(ctx, tr, run),
    }
}

/// Theorem 12 under CD on the complete binary tree.
fn thm12_cd_tree(ctx: &Ctx, tr: &mut Tracer, run: bool) -> Iteration {
    let mut it = Iteration::default();
    let t = Instant::now();
    let (graph, mut sim) = tr.span("perfbench", "perfbench.setup", |tr| {
        let graph = build(tr, Family::BinaryTree, ctx.tree_n());
        let sim = new_sim(tr, &graph, Model::Cd, ctx.sim_seed());
        (graph, sim)
    });
    it.setup = t.elapsed();
    if !run {
        return it;
    }
    let alg = ebc_core::suite::by_name("theorem12").expect("registered");
    let t = Instant::now();
    tr.span("perfbench", "perfbench.run", |tr| {
        run_alg(tr, &mut it, alg, &mut sim)
    });
    it.run = t.elapsed();
    it.facts
        .insert("graphs.csr_bytes".into(), csr_bytes(&graph) as f64);
    it.working_set_bytes = csr_bytes(&graph) + sim_scratch_bytes(graph.n());
    it
}

/// Dense slots per model in `dense-32k`.
const DENSE_SLOTS: u64 = 128;

/// The dense kernel once per model, then naive flooding under LOCAL, on
/// the 2^15 − 1-vertex binary tree.
fn dense_32k(ctx: &Ctx, tr: &mut Tracer, run: bool) -> Iteration {
    let mut it = Iteration::default();
    let offset = ctx.seed % 16;
    let t = Instant::now();
    let (graph, all, mut kernel_sims, mut flood_sim) =
        tr.span("perfbench", "perfbench.setup", |tr| {
            let graph = build(tr, Family::BinaryTree, ctx.tree_n());
            let all: Vec<NodeId> = (0..graph.n()).collect();
            let kernel_sims: Vec<Sim> = MESSAGING_MODELS
                .iter()
                .map(|&m| new_sim(tr, &graph, m, ctx.sim_seed()))
                .collect();
            let flood_sim = new_sim(tr, &graph, Model::Local, ctx.sim_seed());
            (graph, all, kernel_sims, flood_sim)
        });
    it.setup = t.elapsed();
    if !run {
        return it;
    }
    let n = graph.n() as u64;
    let t = Instant::now();
    let heard = tr.span("perfbench", "perfbench.run", |tr| {
        let mut heard = 0u64;
        for sim in &mut kernel_sims {
            let name = format!("radio.kernel.{}", model_key(sim.model()));
            let mut behavior = ebc_radio::from_fns(
                |v, t| {
                    if probes::sends(v, t, offset) {
                        Action::Send(1u8)
                    } else {
                        Action::Listen
                    }
                },
                |_, _, fb: Feedback<u8>| heard += u64::from(fb.message().is_some()),
            );
            tr.span("radio", &name, |_| {
                sim.drive(
                    Schedule::Dense {
                        participants: &all,
                        slots: DENSE_SLOTS,
                    },
                    &mut behavior,
                )
            });
        }
        run_alg(tr, &mut it, &NaiveFlood, &mut flood_sim);
        heard
    });
    it.run = t.elapsed();
    std::hint::black_box(heard);
    for sim in &kernel_sims {
        let label = format!("kernel.{}", model_key(sim.model()));
        it.check(sim.meter().total_energy() == DENSE_SLOTS * n, || {
            format!(
                "{label}: dense rows charged {} units, expected slots × n = {}",
                sim.meter().total_energy(),
                DENSE_SLOTS * n
            )
        });
        it.check_meter(&label, sim);
        it.stats.push(RunStat::of(label, sim));
    }
    it.facts.insert(
        "radio.kernel.polls".into(),
        (DENSE_SLOTS * n * kernel_sims.len() as u64) as f64,
    );
    it.facts
        .insert("graphs.csr_bytes".into(), csr_bytes(&graph) as f64);
    it.working_set_bytes = csr_bytes(&graph) + sim_scratch_bytes(graph.n());
    it
}

/// Every registry algorithm under every model it supports: on the grid,
/// and the §8 path algorithm on the path.
fn registry_grid_256(ctx: &Ctx, tr: &mut Tracer, run: bool) -> Iteration {
    let mut it = Iteration::default();
    let t = Instant::now();
    let (grid, path, mut runs) = tr.span("perfbench", "perfbench.setup", |tr| {
        let grid = build(tr, Family::Grid, ctx.grid_n());
        let path = build(tr, Family::Path, ctx.grid_n());
        let mut runs = Vec::new();
        for &alg in ALGORITHMS {
            let graph = if alg.supports_graph(&grid) {
                &grid
            } else {
                &path
            };
            for &model in alg.supported_models() {
                runs.push((alg, new_sim(tr, graph, model, ctx.sim_seed())));
            }
        }
        (grid, path, runs)
    });
    it.setup = t.elapsed();
    if !run {
        return it;
    }
    let t = Instant::now();
    tr.span("perfbench", "perfbench.run", |tr| {
        for (alg, sim) in &mut runs {
            run_alg(tr, &mut it, *alg, sim);
        }
    });
    it.run = t.elapsed();
    it.facts.insert(
        "graphs.csr_bytes".into(),
        (csr_bytes(&grid) + csr_bytes(&path)) as f64,
    );
    it.working_set_bytes = csr_bytes(&grid) + sim_scratch_bytes(grid.n());
    it
}

/// The scenario matrix's quick sizes.
const MATRIX_SIZES: [usize; 4] = [16, 32, 64, 128];

fn matrix_families(smoke: bool) -> Vec<Family> {
    if smoke {
        vec![Family::Cycle]
    } else {
        Family::ALL.to_vec()
    }
}

/// The scenario matrix's clean cells under CD*, cold against a fresh cell
/// cache, then warm against the cache the cold pass filled.
fn matrix_cd_star(ctx: &Ctx, tr: &mut Tracer, run: bool) -> Iteration {
    let mut it = Iteration::default();
    let spec = find_experiment("scenario_matrix").expect("registered experiment");
    let cells = ctx.out_dir.join(format!("cells-{}", ctx.seed));
    let results = ctx.out_dir.join(format!("results-{}", ctx.seed));
    let config = RunConfig {
        quick: true,
        seeds: Some(1),
        model: Some("cd-star".into()),
        family: ctx.smoke.then(|| Family::Cycle.name().into()),
        fault: Some("none".into()),
        budget_ms: Some(UNLIMITED_BUDGET_MS),
        cache_dir: Some(cells.clone()),
        ..RunConfig::default()
    };
    let t = Instant::now();
    let csr = tr.span("perfbench", "perfbench.setup", |tr| {
        fresh_dir(&cells);
        fresh_dir(&results);
        let mut csr = 0;
        for family in matrix_families(ctx.smoke) {
            for n in MATRIX_SIZES {
                csr += csr_bytes(&build(tr, family, n));
            }
        }
        csr
    });
    it.setup = t.elapsed();
    if !run {
        return it;
    }

    let t = Instant::now();
    let (cold, emit_bytes) = tr.span("perfbench", "perfbench.run", |tr| {
        let cold = tr.span("bench", "bench.run_experiment.cold", |_| {
            run_experiment(spec, &config)
        });
        let bytes = tr.span("bench", "bench.emit", |_| emit(&cold, &results));
        (cold, bytes)
    });
    it.run = t.elapsed();
    let t = Instant::now();
    let warm = tr.span("perfbench", "perfbench.warm", |tr| {
        tr.span("bench", "bench.run_experiment.warm", |_| {
            run_experiment(spec, &config)
        })
    });
    it.warm = Some(t.elapsed());

    check_matrix(&mut it, &cold, &warm);
    matrix_stats(&mut it, &cold);
    match emit_bytes {
        Ok(bytes) => {
            it.facts.insert("bench.emit_bytes".into(), bytes as f64);
        }
        Err(e) => it.failures.push(format!("emit: {e}")),
    }
    matrix_facts(&mut it, &cold, &warm);
    it.facts.insert("graphs.csr_bytes".into(), csr as f64);
    it.working_set_bytes = csr;
    // Emptied here, untimed, so every set-up starts from an empty
    // directory at the same cost.
    fresh_dir(&cells);
    fresh_dir(&results);
    it
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark output directory is writable");
}

/// Writes the result documents; returns the bytes written.
fn emit(result: &ExperimentResult, dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for path in write_result_files(result, dir)? {
        bytes += std::fs::metadata(path)?.len();
    }
    Ok(bytes)
}

fn param<'a>(case: &'a Case, key: &str) -> Option<&'a Json> {
    case.params.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn sum_metric(case: &Case, name: &str) -> f64 {
    case.metric_values(name).iter().sum()
}

/// The warm pass returns the cold pass's cases exactly, all from the
/// cache; clean cases inform every vertex.
fn check_matrix(it: &mut Iteration, cold: &ExperimentResult, warm: &ExperimentResult) {
    let cases = |r: &ExperimentResult| Json::Arr(r.cases.iter().map(Case::to_json).collect());
    it.check(!cold.cases.is_empty(), || {
        "matrix: the cold pass ran no cases".into()
    });
    it.check(cases(cold) == cases(warm), || {
        "matrix: warm cases differ from cold cases".into()
    });
    let (c, w) = (
        cold.cache.unwrap_or_default(),
        warm.cache.unwrap_or_default(),
    );
    it.check(
        c.misses == cold.cases.len() && c.hits == 0 && c.invalidated == 0,
        || format!("matrix: cold pass against a fresh cache had {c:?}"),
    );
    it.check(
        w.misses == 0 && w.invalidated == 0 && w.hits == warm.cases.len(),
        || format!("matrix: warm pass had {w:?}"),
    );
    for case in &cold.cases {
        if param(case, "fault").and_then(Json::as_str) == Some("none") {
            let informed = case.metric_values("all_informed");
            it.check(
                !informed.is_empty() && informed.iter().all(|&x| x == 1.0),
                || {
                    format!(
                        "matrix: clean case {:?} left vertices uninformed",
                        case.params
                    )
                },
            );
        }
    }
}

/// Per-case simulated statistics: the energy and clock the cases report,
/// summed over their seeds (the matrix's `Sim`s are out of reach).
fn matrix_stats(it: &mut Iteration, cold: &ExperimentResult) {
    for case in &cold.cases {
        let label = case
            .params
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_string_pretty().trim_end()))
            .collect::<Vec<_>>()
            .join(",");
        it.stats.push(RunStat {
            label,
            energy_total: sum_metric(case, "energy_total") as u64,
            energy_max: case
                .metric_values("energy_max")
                .iter()
                .fold(0.0f64, |a, &b| a.max(b)) as u64,
            clock: sum_metric(case, "time") as u64,
            idle_skipped: 0,
        });
    }
}

/// Layer figures the harness reports about itself: graph build, cache
/// lookup and store, fits, and per-algorithm execution time of the clean
/// cells.
fn matrix_facts(it: &mut Iteration, cold: &ExperimentResult, warm: &ExperimentResult) {
    let (c, w) = (
        cold.cache.unwrap_or_default(),
        warm.cache.unwrap_or_default(),
    );
    let (build, _, store) = cold.profile.totals();
    let (_, _, lookup) = warm.profile.totals();
    let f = &mut it.facts;
    f.insert("graphs.build_ms".into(), build.as_secs_f64() * 1e3);
    f.insert(
        "bench.fits_ms".into(),
        cold.profile.analysis.as_secs_f64() * 1e3,
    );
    f.insert("bench.cache.hits".into(), (c.hits + w.hits) as f64);
    f.insert("bench.cache.misses".into(), (c.misses + w.misses) as f64);
    f.insert(
        "bench.cache.store_us_per_miss".into(),
        store.as_secs_f64() * 1e6 / c.misses.max(1) as f64,
    );
    f.insert(
        "bench.cache.lookup_us_per_hit".into(),
        lookup.as_secs_f64() * 1e6 / w.hits.max(1) as f64,
    );
    // Cells and cases are 1:1 and in the same order.
    let mut per_alg: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (cell, case) in cold.profile.cells.iter().zip(&cold.cases) {
        if param(case, "fault").and_then(Json::as_str) != Some("none") {
            continue;
        }
        let (Some(alg), Some(model)) = (
            param(case, "algorithm").and_then(Json::as_str),
            param(case, "model").and_then(Json::as_str),
        ) else {
            continue;
        };
        let e = per_alg.entry(format!("core.{alg}.{model}")).or_default();
        e.0 += cell.sim.as_nanos() as f64;
        e.1 += sum_metric(case, "energy_total");
    }
    for (name, (ns, energy)) in per_alg {
        f.insert(format!("{name}.ns_per_energy_unit"), ns / energy.max(1.0));
        f.insert(format!("{name}.energy_units"), energy);
    }
}
