//! The unified broadcast-algorithm registry.
//!
//! Every broadcast entry point in this crate — the Table 1 rows, the §8
//! path algorithm, and the baselines — wrapped behind one object-safe
//! trait, so harnesses can sweep the full `algorithm × model × topology`
//! cross-product the paper's claims range over without hard-coding entry
//! points.
//!
//! Each adapter is *n-aware*: iteration counts, repetition counts, and
//! tradeoff parameters are derived from the instance (`n`, `Δ`, `D`) at
//! run time by the algorithms' own scaling, so one registry entry covers
//! every size.
//!
//! ```
//! use ebc_core::suite::{by_name, ALGORITHMS};
//! use ebc_graphs::deterministic::cycle;
//! use ebc_radio::{Model, Sim};
//!
//! let alg = by_name("theorem11").unwrap();
//! assert!(alg.supports_model(Model::NoCd));
//! let mut sim = Sim::new(cycle(32), Model::NoCd, 7);
//! assert!(alg.run(&mut sim, 0).all_informed());
//! ```

use ebc_radio::{Graph, Model, NodeId, Sim};

use crate::baseline::{bgi_decay_broadcast, flood_local};
use crate::cdfast::broadcast_theorem20;
use crate::cluster::broadcast_theorem16;
use crate::det::{broadcast_det_cd, broadcast_det_local, DetCdConfig, DetLocalConfig};
use crate::path::run_path_broadcast;
use crate::randomized::{broadcast_corollary13, broadcast_theorem11, broadcast_theorem12};
use crate::BroadcastOutcome;

/// A broadcast algorithm as a uniform, object-safe strategy.
///
/// Implementations must be deterministic given `sim.seed()` and must meter
/// all energy through `sim` (the path adapter, which runs on a private
/// [`Sim`], folds that run's meter back via [`Sim::absorb_meter`]).
pub trait BroadcastAlgorithm: Sync {
    /// Stable machine name (also the scenario-matrix JSON key).
    fn name(&self) -> &'static str;

    /// The collision models the algorithm is defined in.
    fn supported_models(&self) -> &'static [Model];

    /// Whether the algorithm is defined in `model`.
    fn supports_model(&self, model: Model) -> bool {
        self.supported_models().contains(&model)
    }

    /// Whether the algorithm can run on `graph`. Defaults to `true`;
    /// topology-restricted algorithms (the §8 path algorithm, bounded-Δ
    /// Corollary 13) override this so harnesses can filter — and count —
    /// incompatible pairs instead of crashing on them.
    fn supports_graph(&self, graph: &Graph) -> bool {
        let _ = graph;
        true
    }

    /// Whether the adapter's entire slot pipeline flows through
    /// [`Sim::drive`]'s fault choke point, so an active
    /// [`ebc_radio::FaultPlan`] on the `sim` actually reaches every
    /// transmission.
    ///
    /// Defaults to `true`: adapters drive all their slots through the
    /// `Sim` they are handed, and every registered algorithm runs a
    /// bounded, instance-derived number of slots, so under message loss
    /// they degrade to a partial informed set rather than hanging.
    /// Adapters whose slots run on a private [`Sim`] that never sees the
    /// caller's plan (the §8 path algorithm) override this to `false` —
    /// running them under an active plan would silently simulate a clean
    /// channel, which harnesses must skip or flag.
    fn fault_tolerant(&self) -> bool {
        true
    }

    /// Runs the algorithm on `sim` from `source`. All its parameters
    /// scale with the instance (`n`, `Δ`, `D`).
    ///
    /// # Panics
    ///
    /// May panic if `sim.model()` or `sim.graph()` is unsupported — check
    /// [`supports_model`]/[`supports_graph`] first.
    ///
    /// [`supports_model`]: BroadcastAlgorithm::supports_model
    /// [`supports_graph`]: BroadcastAlgorithm::supports_graph
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome;
}

/// The four messaging models, in the paper's Table 1 column order. (Beep is
/// excluded: beeps carry no message content, so broadcast is not
/// expressible there.)
pub const MESSAGING_MODELS: [Model; 4] = [Model::Local, Model::Cd, Model::CdStar, Model::NoCd];

/// Theorem 11 — iterated relabeling with `p = 1/2, s = 1`; the paper's
/// general-purpose row, defined in every messaging model.
pub struct Theorem11;

impl BroadcastAlgorithm for Theorem11 {
    fn name(&self) -> &'static str {
        "theorem11"
    }
    fn supported_models(&self) -> &'static [Model] {
        &MESSAGING_MODELS
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_theorem11(sim, source);
        sim.span_exit();
        out
    }
}

/// Theorem 12 — CD-only relabeling with model-dependent `(p, s)`, trading
/// slower label growth for `O(log² n / (ε log log n))` energy.
pub struct Theorem12;

impl BroadcastAlgorithm for Theorem12 {
    fn name(&self) -> &'static str {
        "theorem12"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::Cd, Model::CdStar]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_theorem12(sim, source);
        sim.span_exit();
        out
    }
}

/// Corollary 13 — No-CD broadcast on bounded-degree graphs via the
/// Theorem 3 LOCAL simulation (TDMA over a `G + G²` coloring).
pub struct Corollary13;

impl BroadcastAlgorithm for Corollary13 {
    fn name(&self) -> &'static str {
        "corollary13"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::NoCd]
    }
    fn supports_graph(&self, graph: &Graph) -> bool {
        // The corollary assumes Δ = O(1); the TDMA schedule's length grows
        // with Δ², so unbounded-degree families are out of scope.
        graph.max_degree() <= 16
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_corollary13(sim, source);
        sim.span_exit();
        out
    }
}

/// Theorem 16 — Partition(β) clustering for `O(D^{1+ε} polylog n)` time;
/// runs in any messaging model via that model's SR strategy.
pub struct Theorem16;

impl BroadcastAlgorithm for Theorem16 {
    fn name(&self) -> &'static str {
        "theorem16"
    }
    fn supported_models(&self) -> &'static [Model] {
        &MESSAGING_MODELS
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_theorem16(sim, source, None);
        sim.span_exit();
        out
    }
}

/// Theorem 20 — the improved CD algorithm: less energy, `O(Δ n^{1+ξ})`
/// time.
pub struct Theorem20;

impl BroadcastAlgorithm for Theorem20 {
    fn name(&self) -> &'static str {
        "theorem20"
    }
    fn supported_models(&self) -> &'static [Model] {
        // CD only: the §7.2 merge elections detect contention through the
        // noise signal λN, which CD* (arbitrary-message delivery) never
        // produces — under CD* the cluster state goes invalid.
        &[Model::Cd]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_theorem20(sim, source);
        sim.span_exit();
        out
    }
}

/// The §8 path algorithm (Theorem 21): `≤ 2n` delivery time at `O(log n)`
/// expected per-vertex energy — defined only on the canonical
/// `0–1–…–(n−1)` path.
pub struct PathAlgorithm;

impl BroadcastAlgorithm for PathAlgorithm {
    fn name(&self) -> &'static str {
        "path_theorem21"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::Local]
    }
    fn supports_graph(&self, graph: &Graph) -> bool {
        let n = graph.n();
        n >= 2 && graph.m() == n - 1 && (0..n - 1).all(|v| graph.has_edge(v, v + 1))
    }
    fn fault_tolerant(&self) -> bool {
        // The slots run on a private Sim that never sees the caller's
        // fault plan: an active plan would be silently ignored, simulating
        // a clean channel under a faulty label.
        false
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        // The protocol runs on a private Sim over the *same* shared graph
        // (no CSR copy); its charges fold back into `sim`, which books the
        // whole sub-run as one skip.
        sim.span_enter(self.name());
        let mut private = Sim::new(sim.graph_arc().clone(), sim.model(), sim.seed());
        let stats = run_path_broadcast(&mut private, source, false);
        sim.absorb_meter(private.meter());
        sim.skip(stats.quiescence + 1);
        sim.span_exit();
        if sim.telemetry_enabled() {
            // The private run's slots bypass `sim`; surface the delivery
            // curve it reported as gauges on the global clock instead.
            let mut slots: Vec<u64> = stats.delivery_slot.iter().flatten().copied().collect();
            slots.sort_unstable();
            for (rank, s) in slots.iter().enumerate() {
                sim.record_gauge("informed", *s, (rank + 1) as f64);
            }
        }
        BroadcastOutcome {
            informed: stats.delivery_slot.iter().map(|s| s.is_some()).collect(),
            source,
        }
    }
}

/// Deterministic LOCAL broadcast (Theorem 25) via `G_L` ruling sets.
pub struct DetLocal;

impl BroadcastAlgorithm for DetLocal {
    fn name(&self) -> &'static str {
        "det_local_theorem25"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::Local]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_det_local(sim, source, &DetLocalConfig::default());
        sim.span_exit();
        out
    }
}

/// Deterministic CD broadcast (Theorem 27) via iterated ruling-set
/// clustering.
pub struct DetCd;

impl BroadcastAlgorithm for DetCd {
    fn name(&self) -> &'static str {
        "det_cd_theorem27"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::Cd, Model::CdStar]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = broadcast_det_cd(sim, source, &DetCdConfig::default());
        sim.span_exit();
        out
    }
}

/// Naive LOCAL flooding — the time-optimal, energy-hungry baseline.
pub struct NaiveFlood;

impl BroadcastAlgorithm for NaiveFlood {
    fn name(&self) -> &'static str {
        "naive_flood"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::Local]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = flood_local(sim, source);
        sim.span_exit();
        out
    }
}

/// The Bar-Yehuda–Goldreich–Itai decay broadcast — near-optimal time,
/// `Θ(time)` energy; the gap that motivates the paper.
pub struct BgiDecay;

impl BroadcastAlgorithm for BgiDecay {
    fn name(&self) -> &'static str {
        "bgi_decay"
    }
    fn supported_models(&self) -> &'static [Model] {
        &[Model::NoCd, Model::Cd, Model::CdStar]
    }
    fn run(&self, sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
        sim.span_enter(self.name());
        let out = bgi_decay_broadcast(sim, source);
        sim.span_exit();
        out
    }
}

/// Every registered algorithm, in presentation order: the Table 1 rows
/// first, then the §8 path algorithm, then the baselines.
pub static ALGORITHMS: &[&dyn BroadcastAlgorithm] = &[
    &Theorem11,
    &Theorem12,
    &Corollary13,
    &Theorem16,
    &Theorem20,
    &PathAlgorithm,
    &DetLocal,
    &DetCd,
    &NaiveFlood,
    &BgiDecay,
];

/// Looks up a registered algorithm by exact name.
pub fn by_name(name: &str) -> Option<&'static dyn BroadcastAlgorithm> {
    ALGORITHMS.iter().copied().find(|a| a.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, path};
    use ebc_graphs::families::Family;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let mut names: Vec<&str> = ALGORITHMS.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate algorithm names");
        for n in names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "name {n:?} is not a stable key"
            );
        }
    }

    #[test]
    fn by_name_round_trips() {
        for alg in ALGORITHMS {
            assert_eq!(by_name(alg.name()).unwrap().name(), alg.name());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_algorithm_supports_at_least_one_model() {
        for alg in ALGORITHMS {
            assert!(
                !alg.supported_models().is_empty(),
                "{} supports no model",
                alg.name()
            );
            for &m in alg.supported_models() {
                assert!(alg.supports_model(m));
                assert_ne!(m, Model::Beep, "broadcast is not expressible in Beep");
            }
        }
    }

    #[test]
    fn every_algorithm_informs_a_cycle_in_its_first_model() {
        // The cycle is in every algorithm's topology scope; each runs in
        // its first supported model.
        for alg in ALGORITHMS {
            let g = cycle(16);
            if !alg.supports_graph(&g) {
                continue; // path_theorem21: cycles are out of scope
            }
            let model = alg.supported_models()[0];
            let mut sim = Sim::new(g, model, 42);
            let out = alg.run(&mut sim, 0);
            assert!(out.all_informed(), "{} failed on cycle(16)", alg.name());
            assert!(
                sim.meter().total_energy() > 0,
                "{} metered no energy",
                alg.name()
            );
        }
    }

    #[test]
    fn registry_conformance_every_algorithm_model_family() {
        // The permanent cross-product conformance sweep: every registered
        // algorithm, under every model it claims to support, on every
        // compatible family at n = 16, must inform all nodes and meter
        // energy. This is the test shape that caught Theorem 20's CD*
        // bug (its §7.2 elections need the λN noise signal) after the
        // fact — any new algorithm or family joins the sweep
        // automatically.
        let mut combinations = 0usize;
        for alg in ALGORITHMS {
            for &model in alg.supported_models() {
                for family in Family::ALL {
                    let instance = family.instance(16, 0xc0f0);
                    if !alg.supports_graph(&instance.graph) {
                        continue;
                    }
                    combinations += 1;
                    let mut sim = Sim::new(instance.graph, model, 42);
                    let out = alg.run(&mut sim, 0);
                    assert!(
                        out.all_informed(),
                        "{} under {:?} on {} (n={}) left nodes uninformed",
                        alg.name(),
                        model,
                        family.name(),
                        sim.graph().n(),
                    );
                    assert!(
                        sim.meter().total_energy() > 0,
                        "{} under {:?} on {} metered no energy",
                        alg.name(),
                        model,
                        family.name(),
                    );
                    assert!(
                        sim.meter().idle_skipped() <= sim.now(),
                        "{} under {:?} on {} skipped more slots than its clock",
                        alg.name(),
                        model,
                        family.name(),
                    );
                }
            }
        }
        // The sweep must be substantial: ≥ 10 algorithms × ≥ 1 model ×
        // several families each. Guards against a silent registry or
        // family-list regression emptying the loop.
        assert!(combinations >= 100, "only {combinations} combinations ran");
    }

    #[test]
    fn registry_conformance_no_hang_under_heavy_slot_loss() {
        // The no-hang guarantee: every fault-tolerant adapter, under
        // every model it supports, on every compatible family at n = 16,
        // must terminate within its slot budget under SlotLoss{p = 0.5}
        // — reporting a (possibly partial) informed set rather than
        // wedging. Non-instrumentable adapters must say so explicitly
        // via `fault_tolerant()`.
        use ebc_radio::FaultPlan;
        // A generous no-hang slot budget for a faulted run at size `n`
        // whose clean twin consumed `clean_slots`. Adapters derive their
        // schedule lengths from the instance, so faults stretch a run by
        // at most a constant factor; calibrating on the clean clock
        // absorbs the ~10^4x spread in clean clocks across the registry
        // (Theorem 27's skip-dominated clock vs Theorem 16's), and the
        // additive n^3 polylog floor keeps the budget meaningful for the
        // fastest adapters. A run past it has an unbounded retry loop,
        // not ordinary degradation.
        let slot_budget = |n: usize, clean_slots: u64| {
            let log = u64::from(crate::util::ceil_log2(n)).max(1);
            let n = n as u64;
            16 * clean_slots + 64 * n * n * n * log * log
        };
        let mut combinations = 0usize;
        let mut successes = 0usize;
        for alg in ALGORITHMS {
            if !alg.fault_tolerant() {
                assert_eq!(
                    alg.name(),
                    "path_theorem21",
                    "only the path adapter, which runs on a private Sim, may opt out"
                );
                continue;
            }
            for &model in alg.supported_models() {
                // Calibrate one budget per (algorithm, model) on the
                // slowest clean family: under heavy loss an adaptive
                // schedule collapses toward its graph-independent worst
                // case, so a fast family's own clean clock is the wrong
                // yardstick for its degraded run.
                let mut slowest_clean = 0u64;
                for family in Family::ALL {
                    let instance = family.instance(16, 0xc0f0);
                    if !alg.supports_graph(&instance.graph) {
                        continue;
                    }
                    let mut clean = Sim::new(instance.graph, model, 42);
                    alg.run(&mut clean, 0);
                    slowest_clean = slowest_clean.max(clean.now());
                }
                let budget = slot_budget(16, slowest_clean);
                for family in Family::ALL {
                    let instance = family.instance(16, 0xc0f0);
                    if !alg.supports_graph(&instance.graph) {
                        continue;
                    }
                    combinations += 1;
                    let mut sim =
                        Sim::with_faults(instance.graph, model, 42, FaultPlan::SlotLoss { p: 0.5 });
                    let out = alg.run(&mut sim, 0);
                    assert!(
                        sim.now() <= budget,
                        "{} under {:?} on {} ran {} slots (budget {budget})",
                        alg.name(),
                        model,
                        family.name(),
                        sim.now(),
                    );
                    assert_eq!(out.informed.len(), sim.graph().n());
                    assert!((0.0..=1.0).contains(&out.informed_fraction()));
                    if out.all_informed() {
                        successes += 1;
                    }
                }
            }
        }
        assert!(combinations >= 90, "only {combinations} combinations ran");
        // Half the slots are lost: some runs must degrade (a registry
        // where every run still fully informs means the fault layer is
        // not reaching the pipeline), yet the fixed-schedule flooders
        // should still succeed occasionally.
        assert!(
            successes < combinations,
            "no run degraded under p = 0.5 slot loss"
        );
    }

    #[test]
    fn path_adapter_merges_engine_energy_into_sim() {
        let mut sim = Sim::new(path(32), Model::Local, 3);
        let out = PathAlgorithm.run(&mut sim, 0);
        assert!(out.all_informed());
        assert!(
            sim.meter().total_energy() > 0,
            "private run energy not absorbed"
        );
        assert!(sim.now() > 0, "clock did not advance over the sub-run");
        assert!(sim.meter().last_active().unwrap() < sim.now());
    }

    #[test]
    fn path_adapter_rejects_non_paths_via_supports_graph() {
        assert!(PathAlgorithm.supports_graph(&path(8)));
        assert!(!PathAlgorithm.supports_graph(&cycle(8)));
        assert!(!PathAlgorithm.supports_graph(&ebc_graphs::deterministic::star(4)));
    }

    #[test]
    fn corollary13_scopes_out_unbounded_degree() {
        assert!(Corollary13.supports_graph(&cycle(64)));
        assert!(!Corollary13.supports_graph(&ebc_graphs::deterministic::star(64)));
    }

    #[test]
    fn model_filtering_matches_table1() {
        assert!(by_name("theorem12").unwrap().supports_model(Model::Cd));
        assert!(!by_name("theorem12").unwrap().supports_model(Model::NoCd));
        assert!(!by_name("det_local_theorem25")
            .unwrap()
            .supports_model(Model::Cd));
        assert!(by_name("bgi_decay").unwrap().supports_model(Model::NoCd));
        for alg in ALGORITHMS {
            assert!(!alg.supports_model(Model::Beep), "{}", alg.name());
        }
    }

    #[test]
    fn every_adapter_emits_phase_spans_when_telemetry_is_on() {
        // Satellite of the telemetry layer: each registered algorithm marks
        // its protocol phases, nested under a top-level span named after
        // the adapter, and closes everything it opens.
        for alg in ALGORITHMS {
            let g = if alg.supports_graph(&cycle(16)) {
                cycle(16)
            } else {
                path(16) // path_theorem21
            };
            let model = alg.supported_models()[0];
            let mut sim = Sim::new(g, model, 42);
            sim.enable_telemetry();
            let out = alg.run(&mut sim, 0);
            assert!(out.all_informed(), "{}", alg.name());
            let tel = sim.telemetry().expect("telemetry stays attached");
            let spans = tel.spans();
            assert!(
                spans.iter().any(|s| s.name == alg.name() && s.depth == 0),
                "{} has no top-level span",
                alg.name()
            );
            assert!(
                spans.iter().any(|s| s.depth > 0 || s.name != alg.name())
                    || !tel.gauges().is_empty(),
                "{} marked no internal phases or gauges",
                alg.name()
            );
            assert!(
                spans.iter().all(|s| !s.is_open()),
                "{} left a span open",
                alg.name()
            );
        }
    }

    #[test]
    fn telemetry_does_not_change_suite_results() {
        // The layer must be observational: informed set, clock, and energy
        // are bit-identical with telemetry on or off.
        for alg in ALGORITHMS {
            let g = if alg.supports_graph(&cycle(16)) {
                cycle(16)
            } else {
                path(16)
            };
            let model = alg.supported_models()[0];
            let mut plain = Sim::new(g.clone(), model, 7);
            let out_plain = alg.run(&mut plain, 0);
            let mut traced = Sim::new(g, model, 7);
            traced.enable_telemetry();
            let out_traced = alg.run(&mut traced, 0);
            assert_eq!(out_plain, out_traced, "{}", alg.name());
            assert_eq!(plain.now(), traced.now(), "{}", alg.name());
            assert_eq!(
                plain.meter().total_energy(),
                traced.meter().total_energy(),
                "{}",
                alg.name()
            );
        }
    }

    #[test]
    fn suite_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let g = Family::Grid.instance(16, 1).graph;
            let mut sim = Sim::new(g, Model::Cd, seed);
            let out = Theorem11.run(&mut sim, 0);
            (out.count(), sim.now(), sim.meter().total_energy())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
