//! The basic energy-efficient randomized broadcast algorithms (paper §5).
//!
//! All three share one skeleton: start from the all-zero good labeling,
//! iterate the §5 relabeling until few layer-0 vertices remain, then run
//! Lemma 10's broadcast over the final labeling.
//!
//! | Driver | Model | Time | Energy |
//! |--------|-------|------|--------|
//! | [`broadcast_theorem11`] | LOCAL | `O(n log n)` | `O(log n)` |
//! | [`broadcast_theorem11`] | No-CD | `O(n log Δ log² n)` | `O(log Δ log² n)` |
//! | [`broadcast_theorem11`] | CD | `O(n log Δ log² n)` | `O(log² n)` |
//! | [`broadcast_theorem12`] (ε = 1/2) | CD | `O(n log Δ log^{2+ε} n / (ε log log n))` | `O(log² n / (ε log log n))` |
//! | [`broadcast_corollary13`] | No-CD, `Δ = O(1)` | `O(n log n)` | `O(log n)` |

use ebc_radio::{Model, NodeId, Sim};

use crate::cast::{broadcast_with_labeling, relabel};
use crate::labeling::Labeling;
use crate::localsim::build_tdma;
use crate::srcomm::Sr;
use crate::util::{ceil_log2, NodeRngs};
use crate::BroadcastOutcome;

/// Picks the SR-communication strategy Lemma 10 / §5 use in each model,
/// with repetition counts giving failure probability `1/poly(n)`.
///
/// # Panics
///
/// Panics for [`Model::Beep`]: beeps carry no message content, so
/// SR-communication (and hence Broadcast) is not expressible there.
pub fn default_sr_for(model: Model, delta: usize, n: usize) -> Sr {
    let logn = ceil_log2(n.max(2));
    match model {
        Model::Beep => {
            panic!("the Beep model carries no message content; broadcast needs a messaging model")
        }
        Model::Local => Sr::Local,
        Model::NoCd => Sr::Decay {
            delta,
            // Each sweep succeeds with constant probability; Θ(log n)
            // sweeps give 1/poly(n) failure (Lemma 7).
            sweeps: 3 * logn + 6,
        },
        Model::Cd | Model::CdStar => Sr::CdTransform {
            delta,
            // O(log log Δ + log 1/f) epochs (Lemma 8).
            epochs: 2 * ceil_log2(ceil_log2(delta.max(2) + 1) as usize + 1) + 2 * logn + 8,
            relevance_check: true,
        },
    }
}

/// Theorem 11: broadcast via iterated relabeling with `p = 1/2, s = 1`.
///
/// Works in every collision model; the strategy (and thus the cost) adapts
/// to `sim.model()`.
pub fn broadcast_theorem11(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let sr = default_sr_for(sim.model(), delta, n);
    theorem11_with(sim, source, &sr)
}

/// Theorem 11's relabeling and Lemma 10 broadcast over the SR strategy `sr`.
fn theorem11_with(sim: &mut Sim, source: NodeId, sr: &Sr) -> BroadcastOutcome {
    let n = sim.graph().n();
    // Enough for the root count to hit 1 w.h.p. at `p = 1/2, s = 1`.
    let iters = 3 * ceil_log2(n.max(2)) + 16;
    // The `G_L` diameter bound handed to Lemma 10; with a single root, 0
    // suffices — 1 adds slack against the rare two-root outcome.
    let d_bound = 1;
    let layer_bound = n as u32;
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x5e11);
    let mut coins = NodeRngs::new(sim.seed(), n, 0xc011);
    let mut l = Labeling::all_zero(n);
    for _ in 0..iters {
        sim.span_enter("relabel");
        l = relabel(sim, &l, 0.5, 1, layer_bound, sr, &mut rngs, &mut coins);
        sim.span_exit();
        if sim.telemetry_enabled() {
            sim.record_gauge("layer0", sim.now(), l.layer0_count() as f64);
        }
    }
    sim.span_enter("broadcast");
    let out = broadcast_with_labeling(sim, &l, source, layer_bound, d_bound, sr, &mut rngs);
    sim.span_exit();
    out
}

/// Theorem 12's tradeoff parameter ε.
const THEOREM12_EPSILON: f64 = 0.5;

/// Theorem 12 (CD only) at ε = 1/2: relabeling with `p = log^{-ε/2} n`,
/// `s = log n` shrinks the root count by a `log^{ε/2} n` factor per
/// iteration, so `O(log n / (ε log log n))` iterations reach ≤ `log n`
/// roots; Lemma 10 with `d = log n` finishes. Energy
/// `O(log² n / (ε log log n))`.
///
/// # Panics
///
/// Panics if the model lacks collision detection.
pub fn broadcast_theorem12(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    assert!(
        matches!(sim.model(), Model::Cd | Model::CdStar),
        "Theorem 12 is a CD algorithm"
    );
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let logn = ceil_log2(n.max(2)) as f64;
    let sr = default_sr_for(sim.model(), delta, n);
    let p = logn.powf(-THEOREM12_EPSILON / 2.0).clamp(0.01, 0.9);
    let s = logn.ceil() as u32;
    // O(log n / (ε log log n)) iterations, with a safety constant.
    let denom = (THEOREM12_EPSILON * logn.log2().max(1.0)).max(0.5);
    let iters = (3.0 * logn / denom).ceil() as u32 + 8;
    let layer_bound = n as u32;
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x5e12);
    let mut coins = NodeRngs::new(sim.seed(), n, 0xc012);
    let mut l = Labeling::all_zero(n);
    for _ in 0..iters {
        sim.span_enter("relabel");
        l = relabel(sim, &l, p, s, layer_bound, &sr, &mut rngs, &mut coins);
        sim.span_exit();
        if sim.telemetry_enabled() {
            sim.record_gauge("layer0", sim.now(), l.layer0_count() as f64);
        }
    }
    let d_bound = ceil_log2(n.max(2)) + 1;
    sim.span_enter("broadcast");
    let out = broadcast_with_labeling(sim, &l, source, layer_bound, d_bound, &sr, &mut rngs);
    sim.span_exit();
    out
}

/// Corollary 13 (No-CD, bounded degree): Theorem 3's preprocessing builds a
/// `G + G²` coloring, after which the LOCAL Theorem 11 algorithm runs under
/// TDMA — `O(n log n)` time and `O(log n)` energy when `Δ = O(1)`.
pub fn broadcast_corollary13(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    assert_eq!(sim.model(), Model::NoCd, "Corollary 13 targets No-CD");
    let n = sim.graph().n();
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x5e13);
    let mut coins = NodeRngs::new(sim.seed(), n, 0xc013);
    sim.span_enter("tdma_build");
    let sr = build_tdma(sim, &mut rngs, &mut coins);
    sim.span_exit();
    theorem11_with(sim, source, &sr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, grid, path};
    use ebc_graphs::random::{bounded_degree, cluster_chain, gnp_connected};

    #[test]
    fn theorem11_local_informs_everyone() {
        for seed in 0..3u64 {
            let g = gnp_connected(48, 0.08, seed);
            let mut sim = Sim::new(g, Model::Local, seed);
            let out = broadcast_theorem11(&mut sim, 0);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn theorem11_local_energy_logarithmic() {
        let g = cycle(256);
        let mut sim = Sim::new(g, Model::Local, 11);
        let out = broadcast_theorem11(&mut sim, 0);
        assert!(out.all_informed());
        // O(log n): generous constant for the 8-bit log.
        assert!(
            sim.meter().max_energy() <= 60 * 8,
            "energy {}",
            sim.meter().max_energy()
        );
    }

    #[test]
    fn theorem11_nocd_informs_everyone() {
        for seed in 0..3u64 {
            let g = bounded_degree(40, 4, 1.2, seed);
            let mut sim = Sim::new(g, Model::NoCd, seed + 100);
            let out = broadcast_theorem11(&mut sim, 3);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn theorem11_cd_informs_everyone() {
        for seed in 0..3u64 {
            let g = grid(6, 6);
            let mut sim = Sim::new(g, Model::Cd, seed + 7);
            let out = broadcast_theorem11(&mut sim, 5);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn theorem11_handles_high_contention() {
        let g = cluster_chain(4, 8, 3);
        let mut sim = Sim::new(g, Model::NoCd, 9);
        let out = broadcast_theorem11(&mut sim, 0);
        assert!(out.all_informed());
    }

    #[test]
    fn theorem12_cd_informs_everyone() {
        for seed in 0..2u64 {
            let g = grid(5, 5);
            let mut sim = Sim::new(g, Model::Cd, seed + 21);
            let out = broadcast_theorem12(&mut sim, 0);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "CD algorithm")]
    fn theorem12_rejects_nocd() {
        let g = path(8);
        let mut sim = Sim::new(g, Model::NoCd, 0);
        broadcast_theorem12(&mut sim, 0);
    }

    #[test]
    fn corollary13_bounded_degree() {
        let g = cycle(32);
        let mut sim = Sim::new(g, Model::NoCd, 31);
        let out = broadcast_corollary13(&mut sim, 0);
        assert!(out.all_informed());
    }

    #[test]
    fn corollary13_energy_beats_plain_nocd_on_paths() {
        // On a constant-degree graph the TDMA pipeline spends asymptotically
        // less energy than the decay pipeline; check the direction at n=128.
        let g = cycle(128);
        let mut tdma_sim = Sim::new(g.clone(), Model::NoCd, 5);
        let out = broadcast_corollary13(&mut tdma_sim, 0);
        assert!(out.all_informed());
        let mut decay_sim = Sim::new(g, Model::NoCd, 5);
        let out2 = broadcast_theorem11(&mut decay_sim, 0);
        assert!(out2.all_informed());
        assert!(
            tdma_sim.meter().max_energy() < decay_sim.meter().max_energy(),
            "tdma {} vs decay {}",
            tdma_sim.meter().max_energy(),
            decay_sim.meter().max_energy()
        );
    }

    #[test]
    fn default_sr_strategies_by_model() {
        assert!(matches!(default_sr_for(Model::Local, 4, 64), Sr::Local));
        assert!(matches!(
            default_sr_for(Model::NoCd, 4, 64),
            Sr::Decay { .. }
        ));
        assert!(matches!(
            default_sr_for(Model::Cd, 4, 64),
            Sr::CdTransform { .. }
        ));
    }
}
