//! The measurement layer: parallel seed sweeps producing typed
//! [`Measurement`]s, aggregated into [`Summary`] statistics.
//!
//! Every experiment case boils down to "run this simulation under `seeds`
//! master seeds and aggregate the metrics". [`sweep_seeds`] runs the seeds
//! in parallel (rayon-style `into_par_iter`, one chunk per core) — the
//! sweeps are embarrassingly parallel because each seed builds its own
//! [`Sim`] over one shared `Arc<Graph>`: the CSR arrays are allocated once
//! per case and never deep-cloned per seed.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebc_radio::{Graph, Model, Sim};
use rayon::prelude::*;

use crate::cache::{self, CacheStats, CellCache, Lookup};
use crate::json::Json;

/// How an experiment run is configured (from the CLI).
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Master seeds per case; `None` uses each case's default.
    pub seeds: Option<u64>,
    /// Quick mode: smaller sweeps and fewer seeds, for CI smoke runs.
    pub quick: bool,
    /// Scenario-matrix axis filter: only this graph family (display name).
    pub family: Option<String>,
    /// Scenario-matrix axis filter: only this collision model (JSON key,
    /// e.g. `"no-cd"`).
    pub model: Option<String>,
    /// Scenario-matrix axis filter: only this algorithm (registry name).
    pub algo: Option<String>,
    /// Scenario-matrix axis filter: only this fault plan (JSON key, e.g.
    /// `"slot-loss"`; `"none"` selects the clean cells).
    pub fault: Option<String>,
    /// Per-cell wall-clock budget in milliseconds for the scenario
    /// matrix's n-sweeps; `None` uses the mode's default
    /// ([`RunConfig::cell_budget`]). `Some(0)` truncates every cell after
    /// its first size — the deterministic floor.
    pub budget_ms: Option<u64>,
    /// Where the content-addressed cell cache lives; `None` disables
    /// caching entirely (every cell recomputes). The CLI defaults this to
    /// `.ebc-cache` unless `--no-cache` is given; library callers and
    /// tests default to disabled.
    pub cache_dir: Option<PathBuf>,
    /// Where to write one cell's full telemetry (`--trace-out`): a Chrome
    /// trace-event JSON at this path plus a compact JSONL sibling. The
    /// traced cell is the first scenario-matrix cell passing the axis
    /// filters; `None` disables the diagnostic run.
    pub trace_out: Option<PathBuf>,
}

impl RunConfig {
    /// The floor quick-mode seed scaling never goes below: two seeds when
    /// the experiment has at least two to give, else whatever it has.
    ///
    /// A single seed makes every seed-level bootstrap CI degenerate
    /// (zero-width at the point estimate), which would let the CI-overlap
    /// gate wave through genuinely noisy drifts — so quick mode keeps two
    /// seeds alive wherever full mode has them.
    fn quick_seed_floor(full: u64) -> u64 {
        full.clamp(1, 2)
    }

    /// The seed count to use when a case defaults to `full` seeds. Quick
    /// mode halves it, but never below two seeds (or `full`, if smaller).
    pub fn seeds_for(&self, full: u64) -> u64 {
        let base = self.seeds.unwrap_or(full);
        if self.quick && self.seeds.is_none() {
            (base / 2).max(Self::quick_seed_floor(base))
        } else {
            base.max(1)
        }
    }

    /// The seed count for the size-`n` point of a sweep whose smallest
    /// size is `n_base` and whose full-mode default is `full` seeds.
    ///
    /// In quick mode (with no explicit `--seeds` override) the count
    /// halves for every doubling of `n` past `n_base`, down to the same
    /// two-seed floor as [`RunConfig::seeds_for`] — without the halving
    /// the largest sizes dominate a quick sweep's wall-clock (per-run cost
    /// itself grows with `n`); without the floor the bootstrap CIs
    /// collapse. Monotone non-increasing in `n`. Full mode and pinned seed
    /// counts are unaffected.
    pub fn seeds_for_size(&self, full: u64, n: usize, n_base: usize) -> u64 {
        let mut seeds = self.seeds_for(full);
        if !self.quick || self.seeds.is_some() {
            return seeds;
        }
        let floor = Self::quick_seed_floor(full);
        let mut scale = n_base.max(1);
        // saturating: at the largest sizes `scale` would otherwise
        // overflow `usize` before the seed floor stops the loop.
        while scale.saturating_mul(2) <= n && seeds > floor {
            seeds /= 2;
            scale = scale.saturating_mul(2);
        }
        seeds.max(floor)
    }

    /// The wall-clock budget one scenario-matrix cell (one `(algorithm,
    /// family, model)` combination's whole n-sweep) may spend before its
    /// remaining sizes are truncated. The first size always runs.
    pub fn cell_budget(&self) -> std::time::Duration {
        let ms = self.budget_ms.unwrap_or(if self.quick {
            DEFAULT_QUICK_BUDGET_MS
        } else {
            DEFAULT_FULL_BUDGET_MS
        });
        std::time::Duration::from_millis(ms)
    }

    /// The per-cell budget for the *headline* cells — the flagship
    /// `(algorithm, family, model)` combinations whose n axis extends to
    /// the paper's million-node scale. Large enough that the default
    /// quick run reaches `n = 10^6` without truncating; an explicit
    /// `--budget-ms` still overrides it like any other cell.
    pub fn headline_cell_budget(&self) -> std::time::Duration {
        let ms = self.budget_ms.unwrap_or(if self.quick {
            DEFAULT_QUICK_HEADLINE_BUDGET_MS
        } else {
            DEFAULT_FULL_HEADLINE_BUDGET_MS
        });
        std::time::Duration::from_millis(ms)
    }
}

/// Default per-cell budget in quick (CI smoke) mode.
pub const DEFAULT_QUICK_BUDGET_MS: u64 = 250;
/// Default per-cell budget in full mode.
pub const DEFAULT_FULL_BUDGET_MS: u64 = 2_000;
/// Default headline-cell budget in quick mode. Sizing rule: a cell runs
/// its next size whenever the budget is not yet exhausted, so this must
/// exceed the headline cells' cumulative cost *below* the top size (the
/// `n = 10^6` point itself may overshoot without being cut).
pub const DEFAULT_QUICK_HEADLINE_BUDGET_MS: u64 = 300_000;
/// Default headline-cell budget in full mode.
pub const DEFAULT_FULL_HEADLINE_BUDGET_MS: u64 = 600_000;
/// A budget large enough to never truncate — used by the baseline gate,
/// where wall-clock-dependent truncation would make the case set
/// machine-dependent.
pub const UNLIMITED_BUDGET_MS: u64 = u64::MAX / 1_000_000;

/// One simulated run: a master seed and the metrics it produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The master seed of this run.
    pub seed: u64,
    /// Named metric values, in a fixed per-experiment order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Measurement {
    /// The value of metric `name`, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::obj().field("seed", self.seed);
        for (k, v) in &self.metrics {
            obj = obj.field(k, *v);
        }
        obj
    }
}

/// Aggregate statistics of one metric over a case's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Stats {
    /// Aggregates `values` (empty input yields all-NaN stats).
    ///
    /// A NaN anywhere in the input poisons *every* statistic — `min`/`max`
    /// included. (A plain `f64::min`/`f64::max` fold silently ignores NaN,
    /// so a case with one corrupted measurement used to report a clean
    /// range around a NaN mean.)
    pub fn from_values(values: &[f64]) -> Stats {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return Stats {
                mean: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
                std_dev: f64::NAN,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Stats {
            mean,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std_dev: var.sqrt(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .field("mean", self.mean)
            .field("min", self.min)
            .field("max", self.max)
            .field("std_dev", self.std_dev)
    }
}

/// Per-metric [`Stats`] over all of a case's measurements.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(metric name, stats)` in the experiment's metric order.
    pub metrics: Vec<(&'static str, Stats)>,
}

impl Summary {
    /// Aggregates a batch of measurements metric-by-metric.
    pub fn from_measurements(measurements: &[Measurement]) -> Summary {
        let mut metrics: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for m in measurements {
            for (k, v) in &m.metrics {
                match metrics.iter_mut().find(|(name, _)| name == k) {
                    Some((_, vals)) => vals.push(*v),
                    None => metrics.push((k, vec![*v])),
                }
            }
        }
        Summary {
            metrics: metrics
                .into_iter()
                .map(|(k, vals)| (k, Stats::from_values(&vals)))
                .collect(),
        }
    }

    /// The stats of metric `name`, if present.
    pub fn metric(&self, name: &str) -> Option<Stats> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, s)| *s)
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, s) in &self.metrics {
            obj = obj.field(k, s.to_json());
        }
        obj
    }
}

/// One experiment case: a parameter point and its sweep results.
#[derive(Debug, Clone)]
pub struct Case {
    /// The parameter assignment (e.g. `n`, `model`, `algorithm`).
    pub params: Vec<(&'static str, Json)>,
    /// Per-seed measurements, in seed order.
    pub measurements: Vec<Measurement>,
    /// Aggregates over the measurements.
    pub summary: Summary,
}

impl Case {
    /// Builds a case from its parameter point and measurements.
    pub fn new(params: Vec<(&'static str, Json)>, measurements: Vec<Measurement>) -> Case {
        let summary = Summary::from_measurements(&measurements);
        Case {
            params,
            measurements,
            summary,
        }
    }

    /// The per-seed values of metric `name`, in seed order (seeds that
    /// did not record the metric are skipped). The raw sample the
    /// seed-level bootstrap resamples.
    pub fn metric_values(&self, name: &str) -> Vec<f64> {
        self.measurements
            .iter()
            .filter_map(|m| m.metric(name))
            .collect()
    }

    /// Serializes the case (params, summary, then raw measurements).
    pub fn to_json(&self) -> Json {
        let mut params = Json::obj();
        for (k, v) in &self.params {
            params = params.field(k, v.clone());
        }
        Json::obj()
            .field("params", params)
            .field("summary", self.summary.to_json())
            .field(
                "measurements",
                Json::Arr(self.measurements.iter().map(Measurement::to_json).collect()),
            )
    }
}

/// The master seed of sweep index `i` (0-based).
///
/// Seeds start at 1000 rather than 0 so master seeds never collide with
/// the raw indices some algorithms use for internal streams.
pub fn master_seed(i: u64) -> u64 {
    1000 + i
}

/// Runs `f` once per master seed (`master_seed(0..seeds)`), in parallel,
/// collecting in sweep order. Each [`Measurement`] records the master
/// seed it actually ran with, so a run can be reproduced from the JSON.
pub fn sweep_seeds<F>(seeds: u64, f: F) -> Vec<Measurement>
where
    F: Fn(u64) -> Vec<(&'static str, f64)> + Sync,
{
    (0..seeds)
        .into_par_iter()
        .map(|i| {
            let seed = master_seed(i);
            Measurement {
                seed,
                metrics: f(seed),
            }
        })
        .collect()
}

/// The standard broadcast sweep: one [`Sim`] per seed over one shared
/// `Arc<Graph>` (an `Arc::clone` per seed — the CSR arrays are never
/// deep-copied), asserting the run succeeds, reporting the standard metric
/// set (`time`, `energy_max`, `energy_mean`, `energy_p95`, `energy_total`).
pub fn sweep_broadcast<F>(graph: &Arc<Graph>, model: Model, seeds: u64, f: F) -> Vec<Measurement>
where
    F: Fn(&mut Sim) -> bool + Sync,
{
    sweep_seeds(seeds, |seed| {
        let mut sim = Sim::new(Arc::clone(graph), model, seed);
        assert!(f(&mut sim), "broadcast run failed (seed {seed})");
        let r = sim.meter().report();
        standard_metrics(&r)
    })
}

/// The standard broadcast metric set from one run's [`ebc_radio::EnergyReport`].
pub fn standard_metrics(r: &ebc_radio::EnergyReport) -> Vec<(&'static str, f64)> {
    vec![
        ("time", r.time as f64),
        ("energy_max", r.max as f64),
        ("energy_mean", r.mean),
        ("energy_p95", r.p95 as f64),
        ("energy_total", r.total as f64),
    ]
}

/// Wall-clock breakdown of one cell the runner served.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// The cell's parameter point rendered as `k=v` pairs.
    pub label: String,
    /// Graph (or other input) construction attributed to this cell via
    /// [`CaseRunner::note_build`]. Shared builds land on the first cell
    /// that consumes them.
    pub build: Duration,
    /// Sweep execution — zero when the cell was served from the cache.
    pub sim: Duration,
    /// Cache lookup plus store.
    pub cache: Duration,
    /// Whether the cell was a cache hit.
    pub cached: bool,
}

/// Aggregate wall-clock profile of one runner (one experiment run).
#[derive(Debug, Clone, Default)]
pub struct RunnerProfile {
    /// Per-cell breakdowns, in execution order.
    pub cells: Vec<CellProfile>,
    /// Post-sweep analysis time (scaling fits, verdicts) attributed via
    /// [`CaseRunner::note_analysis`].
    pub analysis: Duration,
    /// Build time recorded but not yet consumed by a cell.
    pending_build: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn label_of(params: &[(&'static str, Json)]) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{k}={}", cache::canon_param(v)))
        .collect::<Vec<_>>()
        .join(" ")
}

impl RunnerProfile {
    /// Totals over the per-cell breakdowns, as `(build, sim, cache)`.
    pub fn totals(&self) -> (Duration, Duration, Duration) {
        let mut b = Duration::ZERO;
        let mut s = Duration::ZERO;
        let mut c = Duration::ZERO;
        for cell in &self.cells {
            b += cell.build;
            s += cell.sim;
            c += cell.cache;
        }
        (b, s, c)
    }

    /// Serializes the profile: totals (in milliseconds) plus the per-cell
    /// table, the shape `BENCH_profile.json` aggregates per experiment.
    pub fn to_json(&self) -> Json {
        let (b, s, c) = self.totals();
        let totals = Json::obj()
            .field("build_ms", ms(b))
            .field("sim_ms", ms(s))
            .field("analysis_ms", ms(self.analysis))
            .field("cache_ms", ms(c))
            .field("total_ms", ms(b + s + c + self.analysis));
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|cell| {
                Json::obj()
                    .field("cell", cell.label.as_str())
                    .field("build_ms", ms(cell.build))
                    .field("sim_ms", ms(cell.sim))
                    .field("cache_ms", ms(cell.cache))
                    .field("cached", cell.cached)
            })
            .collect();
        Json::obj()
            .field("totals", totals)
            .field("cells", Json::Arr(cells))
    }
}

/// Executes experiment cells through the content-addressed cache.
///
/// One runner per experiment run. Every case an experiment produces goes
/// through [`CaseRunner::run_case`] (or the broadcast-shaped
/// [`CaseRunner::run_broadcast_case`]): warm cells return the stored
/// result without executing; cold and invalidated cells run their sweep
/// through the rayon pool exactly as before and are written back to the
/// store atomically. With no cache configured the runner degrades to a
/// plain pass-through around [`sweep_seeds`]/[`sweep_broadcast`].
///
/// The runner also keeps a [`RunnerProfile`]: every cell's wall-clock is
/// split into graph build (attributed via [`CaseRunner::note_build`]),
/// sweep execution, and cache lookup/store, with post-sweep analysis time
/// recorded via [`CaseRunner::note_analysis`].
pub struct CaseRunner {
    experiment: &'static str,
    cache: Option<CellCache>,
    /// Hit/miss/invalidation tally over this runner's cells.
    pub stats: CacheStats,
    /// Wall-clock breakdown over this runner's cells.
    pub profile: RunnerProfile,
}

impl CaseRunner {
    /// A runner for `experiment` under `config` — caching iff
    /// `config.cache_dir` is set. An unopenable cache dir degrades to
    /// uncached execution with a warning rather than failing the run.
    pub fn new(experiment: &'static str, config: &RunConfig) -> CaseRunner {
        let cache = config
            .cache_dir
            .as_ref()
            .and_then(|dir| match CellCache::open(dir) {
                Ok(cache) => Some(cache),
                Err(err) => {
                    eprintln!("warning: cell cache disabled: {err}");
                    None
                }
            });
        CaseRunner {
            experiment,
            cache,
            stats: CacheStats::default(),
            profile: RunnerProfile::default(),
        }
    }

    /// Records input-construction time (graph builds, dataset loads) to be
    /// attributed to the next cell this runner serves. Shared builds land
    /// on the first consuming cell rather than being double-counted.
    pub fn note_build(&mut self, spent: Duration) {
        self.profile.pending_build += spent;
    }

    /// Records post-sweep analysis time (scaling fits, gate verdicts).
    pub fn note_analysis(&mut self, spent: Duration) {
        self.profile.analysis += spent;
    }

    /// The stats to publish: `Some` iff a store was attached (a
    /// pass-through runner's counters are meaningless downstream).
    pub fn finish(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|_| self.stats)
    }

    /// Runs one cell: returns the cached case if the store holds a fresh
    /// entry for `(params, seeds)` under the current sources, else sweeps
    /// `f` over the seeds and stores the result.
    pub fn run_case<F>(&mut self, params: Vec<(&'static str, Json)>, seeds: u64, f: F) -> Case
    where
        F: Fn(u64) -> Vec<(&'static str, f64)> + Sync,
    {
        self.run_with(params, seeds, |s| sweep_seeds(s, &f))
    }

    /// [`CaseRunner::run_case`] in the shape of [`sweep_broadcast`]: one
    /// `Sim` per seed over a shared graph, standard metrics.
    pub fn run_broadcast_case<F>(
        &mut self,
        params: Vec<(&'static str, Json)>,
        graph: &Arc<Graph>,
        model: Model,
        seeds: u64,
        f: F,
    ) -> Case
    where
        F: Fn(&mut Sim) -> bool + Sync,
    {
        self.run_with(params, seeds, |s| sweep_broadcast(graph, model, s, &f))
    }

    fn run_with<E>(&mut self, params: Vec<(&'static str, Json)>, seeds: u64, execute: E) -> Case
    where
        E: FnOnce(u64) -> Vec<Measurement>,
    {
        let label = label_of(&params);
        let build = std::mem::take(&mut self.profile.pending_build);
        let Some(cache) = &self.cache else {
            self.stats.misses += 1;
            let t_exec = Instant::now();
            let case = Case::new(params, execute(seeds));
            self.profile.cells.push(CellProfile {
                label,
                build,
                sim: t_exec.elapsed(),
                cache: Duration::ZERO,
                cached: false,
            });
            return case;
        };
        let key = cache::case_key(self.experiment, &params, seeds);
        let t_cache = Instant::now();
        let looked_up = cache.lookup(&key);
        let mut cache_spent = t_cache.elapsed();
        match looked_up {
            Lookup::Hit(case) => {
                self.stats.hits += 1;
                self.profile.cells.push(CellProfile {
                    label,
                    build,
                    sim: Duration::ZERO,
                    cache: cache_spent,
                    cached: true,
                });
                return case;
            }
            Lookup::Miss => self.stats.misses += 1,
            Lookup::Invalidated => self.stats.invalidated += 1,
        }
        let t_exec = Instant::now();
        let case = Case::new(params, execute(seeds));
        let sim_spent = t_exec.elapsed();
        let t_store = Instant::now();
        if let Err(err) = cache.store(&key, &case) {
            eprintln!("warning: cell cache store failed: {err}");
        }
        cache_spent += t_store.elapsed();
        self.profile.cells.push(CellProfile {
            label,
            build,
            sim: sim_spent,
            cache: cache_spent,
            cached: false,
        });
        case
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_attributes_build_sim_and_analysis_per_cell() {
        let mut runner = CaseRunner::new("profile_test", &RunConfig::default());
        // Build time recorded before a cell lands on that cell; the next
        // cell, with no build of its own, shows zero.
        runner.note_build(Duration::from_millis(7));
        runner.run_case(vec![("n", 16usize.into())], 1, |seed| {
            vec![("x", seed as f64)]
        });
        runner.run_case(vec![("n", 32usize.into())], 1, |seed| {
            vec![("x", seed as f64)]
        });
        runner.note_analysis(Duration::from_millis(3));

        let cells = &runner.profile.cells;
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "n=16");
        assert_eq!(cells[0].build, Duration::from_millis(7));
        assert_eq!(cells[1].build, Duration::ZERO);
        assert!(!cells[0].cached && !cells[1].cached);
        // No cache attached: lookup/store time is structurally zero.
        assert_eq!(cells[0].cache, Duration::ZERO);
        assert_eq!(runner.profile.analysis, Duration::from_millis(3));

        let (build, _sim, cache) = runner.profile.totals();
        assert_eq!(build, Duration::from_millis(7));
        assert_eq!(cache, Duration::ZERO);

        // The serialized totals carry all four components plus the sum.
        let json = runner.profile.to_json();
        let totals = json.get("totals").unwrap();
        assert_eq!(
            totals.get("build_ms").and_then(Json::as_f64),
            Some(7.0),
            "{json:?}"
        );
        assert_eq!(totals.get("analysis_ms").and_then(Json::as_f64), Some(3.0));
        assert!(totals.get("total_ms").and_then(Json::as_f64).unwrap() >= 10.0);
        assert_eq!(json.get("cells").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn stats_aggregate_correctly() {
        let s = Stats::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - 1.118).abs() < 1e-3);
    }

    #[test]
    fn stats_of_empty_are_nan() {
        let s = Stats::from_values(&[]);
        assert!(s.mean.is_nan() && s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn nan_input_poisons_every_statistic() {
        // One corrupted measurement must not yield a clean-looking range:
        // min/max propagate NaN exactly like mean does.
        let s = Stats::from_values(&[1.0, f64::NAN, 3.0]);
        assert!(s.mean.is_nan());
        assert!(s.min.is_nan(), "min ignored the NaN");
        assert!(s.max.is_nan(), "max ignored the NaN");
        assert!(s.std_dev.is_nan());
        // NaN-free inputs are unaffected.
        let s = Stats::from_values(&[1.0, 3.0]);
        assert_eq!((s.min, s.max), (1.0, 3.0));
    }

    #[test]
    fn sweeps_share_one_graph_allocation_across_seeds() {
        // The Arc<Graph> refactor's contract: every seed's Sim points at
        // the same CSR allocation (sweep_broadcast asserts the closure
        // holds for every seed, so a deep clone would panic here).
        let g = Arc::new(Graph::from_edges(2, &[(0, 1)]).unwrap());
        let shared = Arc::clone(&g);
        let ms = sweep_broadcast(&g, Model::Local, 8, move |sim| {
            Arc::ptr_eq(sim.graph_arc(), &shared)
        });
        assert_eq!(ms.len(), 8);
        // The case-local Arc is the only remaining strong handle afterward.
        assert_eq!(Arc::strong_count(&g), 1);
    }

    #[test]
    fn sweep_seeds_is_deterministic_and_ordered() {
        let f = |seed: u64| vec![("x", seed as f64)];
        let a = sweep_seeds(8, f);
        let b = sweep_seeds(8, f);
        assert_eq!(a.len(), 8);
        for (i, (ma, mb)) in a.iter().zip(&b).enumerate() {
            // The recorded seed IS the master seed the run used.
            assert_eq!(ma.seed, master_seed(i as u64));
            assert_eq!(ma.metric("x"), mb.metric("x"));
            assert_eq!(ma.metric("x"), Some(ma.seed as f64));
        }
    }

    #[test]
    fn summary_groups_metrics_across_seeds() {
        let ms = sweep_seeds(4, |seed| vec![("t", seed as f64), ("e", 2.0)]);
        let summary = Summary::from_measurements(&ms);
        assert_eq!(summary.metrics.len(), 2);
        assert_eq!(summary.metric("e").unwrap().mean, 2.0);
        assert_eq!(summary.metric("t").unwrap().min, 1000.0);
        assert_eq!(summary.metric("t").unwrap().max, 1003.0);
        assert!(summary.metric("missing").is_none());
    }

    #[test]
    fn quick_seeds_scale_down_with_n() {
        let quick = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        // Base 8 seeds at the smallest size (quick halves 16 → 8), then a
        // halving per doubling of n, down to the two-seed floor.
        assert_eq!(quick.seeds_for_size(16, 64, 64), 8);
        assert_eq!(quick.seeds_for_size(16, 128, 64), 4);
        assert_eq!(quick.seeds_for_size(16, 256, 64), 2);
        assert_eq!(quick.seeds_for_size(16, 512, 64), 2, "floor of two");
        assert_eq!(quick.seeds_for_size(16, 4096, 64), 2, "floor of two");
        // Full mode never scales.
        let full = RunConfig::default();
        assert_eq!(full.seeds_for_size(16, 4096, 64), 16);
        // An explicit --seeds pin is respected exactly at every size.
        let pinned = RunConfig {
            seeds: Some(6),
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(pinned.seeds_for_size(16, 512, 64), 6);
    }

    #[test]
    fn seeds_for_size_is_monotone_with_a_minimum_floor() {
        // The satellite contract: non-increasing in n, never below the
        // floor (2 where full mode has ≥ 2 seeds, else full's own count),
        // and total-function over degenerate inputs — including the
        // largest representable n, where the doubling scale used to
        // overflow `usize` in debug builds.
        let quick = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        for full in [0u64, 1, 2, 3, 5, 16] {
            let floor = full.clamp(1, 2);
            let mut prev = u64::MAX;
            for n in [16usize, 32, 64, 128, 256, 1 << 20, usize::MAX] {
                let s = quick.seeds_for_size(full, n, 16);
                assert!(s <= prev, "full={full}: not monotone at n={n}");
                assert!(s >= floor, "full={full}: below floor at n={n}");
                prev = s;
            }
            // The largest full-mode n must agree with the floor once the
            // halving has bottomed out.
            assert_eq!(quick.seeds_for_size(full, usize::MAX, 16), floor);
        }
        // n below n_base, and n_base = 0, never scale or panic.
        assert_eq!(quick.seeds_for_size(16, 8, 16), 8);
        assert_eq!(quick.seeds_for_size(16, 0, 0), 8);
        // A single-seed experiment stays single-seed — the floor never
        // invents seeds full mode doesn't have.
        assert_eq!(quick.seeds_for_size(1, 1 << 20, 16), 1);
    }

    #[test]
    fn metric_values_extract_the_raw_seed_sample() {
        let ms = sweep_seeds(4, |seed| vec![("t", seed as f64)]);
        let case = Case::new(vec![("n", 16usize.into())], ms);
        assert_eq!(
            case.metric_values("t"),
            vec![1000.0, 1001.0, 1002.0, 1003.0]
        );
        assert!(case.metric_values("missing").is_empty());
    }

    #[test]
    fn cell_budgets_default_per_mode_and_honor_overrides() {
        let quick = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(
            quick.cell_budget(),
            std::time::Duration::from_millis(DEFAULT_QUICK_BUDGET_MS)
        );
        assert_eq!(
            RunConfig::default().cell_budget(),
            std::time::Duration::from_millis(DEFAULT_FULL_BUDGET_MS)
        );
        let pinned = RunConfig {
            budget_ms: Some(0),
            ..RunConfig::default()
        };
        assert_eq!(pinned.cell_budget(), std::time::Duration::ZERO);
        // Headline cells get their own (larger) defaults, but an explicit
        // --budget-ms override pins them just like any other cell.
        assert_eq!(
            quick.headline_cell_budget(),
            std::time::Duration::from_millis(DEFAULT_QUICK_HEADLINE_BUDGET_MS)
        );
        assert_eq!(
            RunConfig::default().headline_cell_budget(),
            std::time::Duration::from_millis(DEFAULT_FULL_HEADLINE_BUDGET_MS)
        );
        assert_eq!(pinned.headline_cell_budget(), std::time::Duration::ZERO);
    }

    #[test]
    fn quick_mode_halves_default_seeds_only() {
        let quick = RunConfig {
            seeds: None,
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(quick.seeds_for(10), 5);
        assert_eq!(quick.seeds_for(1), 1);
        // Halving stops at two seeds so bootstrap CIs stay non-degenerate.
        assert_eq!(quick.seeds_for(2), 2);
        assert_eq!(quick.seeds_for(3), 2);
        let pinned = RunConfig {
            seeds: Some(7),
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(pinned.seeds_for(10), 7);
    }
}
