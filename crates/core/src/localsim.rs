//! Simulation of LOCAL algorithms in No-CD (paper §3, Theorem 3).
//!
//! The preprocessing computes a proper coloring of `G + G²` with `2Δ²`
//! colors, after which any LOCAL algorithm runs collision-free under TDMA:
//! time is divided into frames of `2Δ²` slots, a vertex transmits only in
//! its color's slot, and listens only in its neighbors' color slots — no
//! two vertices within distance 2 ever transmit together.
//!
//! * [`learn_degree`] — `8·Δ·log n` slots in which each vertex transmits its
//!   id with probability `1/Δ`; w.h.p. every vertex learns all neighbor ids
//!   (Lemma 4).
//! * [`two_hop_coloring`] — the iterated propose/announce/fix protocol of
//!   §3.1 (Lemmas 5, 6).
//! * [`build_tdma`] — runs both and returns an [`Sr::Tdma`] strategy ready
//!   for the Corollary 13 pipeline.

use ebc_radio::{Action, Feedback, NodeId, Schedule, Sim, SlotBehavior};
use rand::Rng;

use crate::srcomm::Sr;
use crate::util::{ceil_log2, NodeRngs};

/// Outcome of [`learn_degree`]: what each vertex discovered.
#[derive(Debug, Clone)]
pub struct NeighborKnowledge {
    /// `known[v]` lists the neighbor ids `v` heard (sorted).
    pub known: Vec<Vec<NodeId>>,
}

impl NeighborKnowledge {
    /// Whether every vertex learned its complete neighborhood.
    pub fn complete(&self, g: &ebc_radio::Graph) -> bool {
        (0..g.n()).all(|v| {
            let mut expect: Vec<NodeId> = g.neighbors(v).collect();
            expect.sort_unstable();
            self.known[v] == expect
        })
    }
}

struct LearnDegreeBehavior<'a> {
    delta: usize,
    heard: Vec<std::collections::BTreeSet<NodeId>>,
    rngs: &'a mut NodeRngs,
}

impl SlotBehavior<NodeId> for LearnDegreeBehavior<'_> {
    fn act(&mut self, v: NodeId, _t: u64) -> Action<NodeId> {
        if self.rngs.get(v).gen_bool(1.0 / self.delta as f64) {
            Action::Send(v)
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<NodeId>) {
        if let Feedback::One(u) = fb {
            self.heard[v].insert(u);
        }
    }
}

/// Algorithm *Learn-degree* (§3.1): for `8·Δ·log n` slots each vertex sends
/// its id with probability `1/Δ`, otherwise listens. W.h.p. every vertex
/// learns the ids of all its neighbors (Lemma 4, coupon collection).
pub fn learn_degree(sim: &mut Sim, rngs: &mut NodeRngs) -> NeighborKnowledge {
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let slots = (8.0 * delta as f64 * (ceil_log2(n.max(2)) as f64)).ceil() as u64;
    let participants: Vec<NodeId> = (0..n).collect();
    let mut b = LearnDegreeBehavior {
        delta,
        heard: vec![Default::default(); n],
        rngs,
    };
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots,
        },
        &mut b,
    );
    NeighborKnowledge {
        known: b
            .heard
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect(),
    }
}

/// A Two-Hop-Coloring announcement: `(id, fixed, color, L(v))` where `L(v)`
/// maps each of `v`'s neighbors to the last color `v` heard from them.
#[derive(Debug, Clone, PartialEq)]
struct ColorMsg {
    id: NodeId,
    color: u32,
    l: Vec<(NodeId, Option<u32>)>,
}

/// One neighbor's announced color table: `(neighbor, its color)` pairs.
type ColorTable = Vec<(NodeId, Option<u32>)>;

struct ColoringState {
    color: Vec<u32>,
    fixed: Vec<bool>,
    /// `l[v]`: v's record of each neighbor's last announced color.
    l: Vec<std::collections::BTreeMap<NodeId, Option<u32>>>,
    /// `copies[v]`: v's copy of each neighbor w's own `L(w)`.
    copies: Vec<std::collections::BTreeMap<NodeId, ColorTable>>,
}

struct ColoringBehavior<'a> {
    state: &'a mut ColoringState,
    delta: usize,
    rngs: &'a mut NodeRngs,
}

impl SlotBehavior<ColorMsg> for ColoringBehavior<'_> {
    fn act(&mut self, v: NodeId, _t: u64) -> Action<ColorMsg> {
        if self.rngs.get(v).gen_bool(1.0 / self.delta as f64) {
            Action::Send(ColorMsg {
                id: v,
                color: self.state.color[v],
                l: self.state.l[v].iter().map(|(&k, &c)| (k, c)).collect(),
            })
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<ColorMsg>) {
        if let Feedback::One(m) = fb {
            self.state.l[v].insert(m.id, Some(m.color));
            self.state.copies[v].insert(m.id, m.l);
        }
    }
}

/// Algorithm *Two-Hop-Coloring* (§3.1): returns a proper coloring of
/// `G + G²` with `2Δ²` colors, w.h.p., in `O(Δ log Δ log n)` time and
/// energy.
///
/// `knowledge` must list each vertex's neighbors (from [`learn_degree`]).
/// It runs `4⌈log₂ n⌉ + 8` propose/announce/fix iterations.
///
/// Returns `(colors, num_colors)`.
pub fn two_hop_coloring(
    sim: &mut Sim,
    knowledge: &NeighborKnowledge,
    rngs: &mut NodeRngs,
    coin_rngs: &mut NodeRngs,
) -> (Vec<u32>, u32) {
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let num_colors = (2 * delta * delta) as u32;
    let iters = 4 * ceil_log2(n.max(2)) + 8;
    // Per iteration: Θ(Δ (log Δ + 1)) announcement slots, plus a margin so
    // each vertex hears each neighbor ~twice (Lemma 5's two coupon phases).
    let slots_per_iter = (8.0 * delta as f64 * ((ceil_log2(delta + 1) as f64) + 2.0)).ceil() as u64;
    let mut state = ColoringState {
        color: vec![0; n],
        fixed: vec![false; n],
        l: (0..n)
            .map(|v| knowledge.known[v].iter().map(|&u| (u, None)).collect())
            .collect(),
        copies: vec![Default::default(); n],
    };
    let participants: Vec<NodeId> = (0..n).collect();
    for _ in 0..iters {
        // Step 1: unfixed vertices propose a fresh random color.
        for v in 0..n {
            if !state.fixed[v] {
                state.color[v] = coin_rngs.get(v).gen_range(0..num_colors);
            }
        }
        // Steps 2–3: announce (id, color, L(v)) at rate 1/Δ.
        let mut b = ColoringBehavior {
            state: &mut state,
            delta,
            rngs,
        };
        sim.drive(
            Schedule::Dense {
                participants: &participants,
                slots: slots_per_iter,
            },
            &mut b,
        );
        // Step 4: fix the color if no conflict is visible within distance 2.
        for v in 0..n {
            if state.fixed[v] {
                continue;
            }
            let c = state.color[v];
            let cond_i = state.l[v].values().any(|&e| e.is_none() || e == Some(c));
            let cond_ii = knowledge.known[v].iter().any(|w| {
                match state.copies[v].get(w) {
                    None => true, // never heard w's list
                    Some(lw) => {
                        lw.iter().any(|(_, e)| e.is_none())
                            || lw.iter().filter(|(_, e)| *e == Some(c)).count() >= 2
                    }
                }
            });
            if !cond_i && !cond_ii {
                state.fixed[v] = true;
            }
        }
    }
    (state.color, num_colors)
}

/// Verifies that `colors` is a proper coloring of `G + G²`: all vertices in
/// every closed neighborhood `N⁺(v)` have pairwise distinct colors.
pub fn is_two_hop_proper(g: &ebc_radio::Graph, colors: &[u32]) -> bool {
    (0..g.n()).all(|v| {
        let mut seen = std::collections::HashSet::new();
        seen.insert(colors[v]);
        g.neighbors(v).all(|u| seen.insert(colors[u]))
    })
}

/// Runs the full Theorem 3 preprocessing (Learn-Degree, then
/// Two-Hop-Coloring) and packages the result as a TDMA SR strategy.
///
/// Afterwards any LOCAL algorithm — in particular the Lemma 10 / §5
/// pipeline — runs collision-free with a `2Δ²` time and `Δ` energy
/// overhead, which is how Corollary 13 gets `O(n log n)` time and
/// `O(log n)` energy on bounded-degree graphs.
pub fn build_tdma(sim: &mut Sim, rngs: &mut NodeRngs, coin_rngs: &mut NodeRngs) -> Sr {
    let knowledge = learn_degree(sim, rngs);
    let (colors, num_colors) = two_hop_coloring(sim, &knowledge, rngs, coin_rngs);
    Sr::Tdma {
        colors: std::sync::Arc::new(colors),
        num_colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, grid, path};
    use ebc_graphs::random::bounded_degree;
    use ebc_radio::Model;

    fn rngs2(seed: u64, n: usize) -> (NodeRngs, NodeRngs) {
        (NodeRngs::new(seed, n, 20), NodeRngs::new(seed, n, 21))
    }

    #[test]
    fn learn_degree_discovers_all_neighbors() {
        let g = path(16);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 3);
        let (mut r, _) = rngs2(3, 16);
        let k = learn_degree(&mut sim, &mut r);
        assert!(k.complete(&g));
    }

    #[test]
    fn learn_degree_on_grid() {
        let g = grid(5, 5);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 4);
        let (mut r, _) = rngs2(4, 25);
        let k = learn_degree(&mut sim, &mut r);
        assert!(k.complete(&g));
    }

    #[test]
    fn learn_degree_energy_linear_in_delta_logn() {
        let g = path(64);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 5);
        let (mut r, _) = rngs2(5, 64);
        learn_degree(&mut sim, &mut r);
        // Every vertex is active every slot: energy == slots == 8·Δ·log n.
        let expect = 8 * 2 * ceil_log2(64) as u64;
        assert_eq!(sim.meter().max_energy(), expect);
    }

    #[test]
    fn coloring_is_proper_on_cycle() {
        let g = cycle(24);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 6);
        let (mut r, mut c) = rngs2(6, 24);
        let k = learn_degree(&mut sim, &mut r);
        assert!(k.complete(&g));
        let (colors, num) = two_hop_coloring(&mut sim, &k, &mut r, &mut c);
        assert!(colors.iter().all(|&x| x < num));
        assert!(is_two_hop_proper(&g, &colors));
    }

    #[test]
    fn coloring_is_proper_on_bounded_degree_graphs() {
        for seed in 0..3u64 {
            let g = bounded_degree(40, 4, 1.5, seed);
            let mut sim = Sim::new(g.clone(), Model::NoCd, seed);
            let (mut r, mut c) = rngs2(seed, 40);
            let k = learn_degree(&mut sim, &mut r);
            assert!(k.complete(&g), "seed {seed}");
            let (colors, _) = two_hop_coloring(&mut sim, &k, &mut r, &mut c);
            assert!(is_two_hop_proper(&g, &colors), "seed {seed}");
        }
    }

    #[test]
    fn is_two_hop_proper_rejects_distance_two_conflict() {
        let g = path(3);
        // Endpoints share a color: distance 2 via the middle.
        assert!(!is_two_hop_proper(&g, &[0, 1, 0]));
        assert!(is_two_hop_proper(&g, &[0, 1, 2]));
    }

    #[test]
    fn build_tdma_produces_usable_strategy() {
        let g = path(12);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 7);
        let (mut r, mut c) = rngs2(7, 12);
        let sr = build_tdma(&mut sim, &mut r, &mut c);
        // Use it: vertex 0 sends to vertex 1 collision-free.
        let got = sr.run(&mut sim, &[(0usize, 9u8)], &[1], &mut r);
        assert_eq!(got[0], Some(9));
    }
}
