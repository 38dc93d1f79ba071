//! Down-cast, All-cast, Up-cast, Broadcast-from-labeling (Lemma 10) and the
//! relabeling procedure (§5's "computing a new labeling L′ from L").
//!
//! All three casts are sequences of SR-communication rounds over the layers
//! of a good labeling:
//!
//! * **Down-cast** — for `i = 0 … L−2`: layer-`i` holders send, layer-`(i+1)`
//!   non-holders receive.
//! * **All-cast** — every holder sends, every non-holder receives.
//! * **Up-cast** — for `i = L−1 … 1`: layer-`i` holders send,
//!   layer-`(i−1)` non-holders receive.
//!
//! `L` is the *public* layer bound every vertex knows (the paper uses
//! `L = n` in §5 and `L = D̄` in §6), so the slot schedule is agreed even
//! though most rounds are empty. Rounds in which provably nobody acts still
//! consume their slots on the global clock; rounds with receivers but no
//! senders still charge the receivers (a No-CD listener cannot know).

use ebc_radio::{NodeId, Sim};

use crate::labeling::Labeling;
use crate::srcomm::Sr;
use crate::util::NodeRngs;
use crate::BroadcastOutcome;

/// One SR round between computed sender/receiver sets, with clean skipping.
///
/// Returns `(receiver, message)` pairs for successful receptions.
pub fn sr_round<M>(
    sim: &mut Sim,
    sr: &Sr,
    senders: Vec<(NodeId, M)>,
    receivers: Vec<NodeId>,
    rngs: &mut NodeRngs,
) -> Vec<(NodeId, M)>
where
    M: Clone + core::fmt::Debug + PartialEq,
{
    if senders.is_empty() && receivers.is_empty() {
        sim.skip(sr.round_slots());
        return Vec::new();
    }
    let got = sr.run(sim, &senders, &receivers, rngs);
    receivers
        .into_iter()
        .zip(got)
        .filter_map(|(v, m)| m.map(|m| (v, m)))
        .collect()
}

/// The occupied layers of a labeling, ascending by layer.
///
/// The public layer bound `L` can be as large as `n` (§5 uses `L = n`),
/// but a labeling occupies at most `#distinct labels` of those layers —
/// and a cast round can only be non-trivial when one of its two adjacent
/// layers is occupied. Materializing only the occupied layers lets the
/// casts iterate `O(#occupied)` candidate rounds and batch-skip the empty
/// stretches in one clock jump, instead of allocating `L` buckets and
/// walking every round. Labels at or beyond `layer_bound` are clamped
/// into the last layer (they never arise for labelings from this crate).
struct Layers {
    /// `(layer, its vertices in ascending id order)`, sorted by layer.
    occupied: Vec<(u32, Vec<NodeId>)>,
}

impl Layers {
    fn build(labeling: &Labeling, layer_bound: u32) -> Layers {
        let n = labeling.n();
        // Pass 1: bitmap of present (clamped) labels.
        let mut present = vec![0u64; (layer_bound as usize).div_ceil(64)];
        for v in 0..n {
            let l = labeling.label(v).min(layer_bound - 1);
            present[(l >> 6) as usize] |= 1 << (l & 63);
        }
        let mut occupied: Vec<(u32, Vec<NodeId>)> = Vec::new();
        for (w, &word) in present.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let l = (w as u32) << 6 | word.trailing_zeros();
                occupied.push((l, Vec::new()));
                word &= word - 1;
            }
        }
        // Pass 2: fill each occupied layer in vertex order.
        for v in 0..n {
            let l = labeling.label(v).min(layer_bound - 1);
            let i = occupied
                .binary_search_by_key(&l, |e| e.0)
                .expect("label marked present");
            occupied[i].1.push(v);
        }
        Layers { occupied }
    }

    /// The layer-`l` vertices (empty slice if unoccupied).
    fn get(&self, l: u32) -> &[NodeId] {
        match self.occupied.binary_search_by_key(&l, |e| e.0) {
            Ok(i) => &self.occupied[i].1,
            Err(_) => &[],
        }
    }

    /// Down-cast rounds that can involve anyone, ascending: round `i`
    /// (senders layer `i`, receivers layer `i + 1`) for `i ≤ L - 2` with
    /// layer `i` or `i + 1` occupied.
    fn down_rounds(&self, layer_bound: u32) -> Vec<u64> {
        let mut rounds = Vec::with_capacity(2 * self.occupied.len());
        for &(l, _) in &self.occupied {
            let l = u64::from(l);
            if l + 2 <= u64::from(layer_bound) {
                rounds.push(l); // this layer sends down to l + 1
            }
            if l >= 1 {
                rounds.push(l - 1); // this layer receives from l - 1
            }
        }
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }

    /// Up-cast rounds that can involve anyone, ascending: round `i`
    /// (senders layer `i`, receivers layer `i - 1`) for `1 ≤ i ≤ L - 1`
    /// with layer `i` or `i - 1` occupied. The cast itself runs them in
    /// descending order.
    fn up_rounds(&self, layer_bound: u32) -> Vec<u64> {
        let mut rounds = Vec::with_capacity(2 * self.occupied.len());
        for &(l, _) in &self.occupied {
            let l = u64::from(l);
            if l >= 1 {
                rounds.push(l); // this layer sends up to l - 1
            }
            if l + 1 < u64::from(layer_bound) {
                rounds.push(l + 1); // this layer receives from l + 1
            }
        }
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }
}

/// Runs the candidate rounds of one cast sweep at their public clock
/// positions, batch-skipping the provably-empty rounds in between so the
/// sweep still occupies exactly `total_rounds × round_slots` slots.
///
/// `scheduled` yields `(clock position, round index)` in ascending
/// position order; `f` runs one SR round.
fn run_rounds_at(
    sim: &mut Sim,
    sr: &Sr,
    total_rounds: u64,
    scheduled: impl Iterator<Item = (u64, u32)>,
    mut f: impl FnMut(&mut Sim, u32),
) {
    let mut next = 0u64;
    for (pos, i) in scheduled {
        sim.skip((pos - next) * sr.round_slots());
        f(sim, i);
        next = pos + 1;
    }
    sim.skip((total_rounds - next) * sr.round_slots());
}

/// Flag message used when relaying a single payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Payload;

/// The per-payload cast engine shared by [`broadcast_with_labeling`]: holds
/// the occupied layers so a sweep costs `O(#occupied)` rounds plus batched
/// clock skips, not `O(L)`.
struct PayloadCaster<'a> {
    layers: Layers,
    layer_bound: u32,
    sr: &'a Sr,
}

impl PayloadCaster<'_> {
    fn down(&self, sim: &mut Sim, has: &mut [bool], rngs: &mut NodeRngs) {
        let total = u64::from(self.layer_bound) - 1;
        let rounds = self.layers.down_rounds(self.layer_bound);
        run_rounds_at(
            sim,
            self.sr,
            total,
            rounds.into_iter().map(|i| (i, i as u32)),
            |sim, i| {
                let senders: Vec<(NodeId, Payload)> = self
                    .layers
                    .get(i)
                    .iter()
                    .filter(|&&v| has[v])
                    .map(|&v| (v, Payload))
                    .collect();
                let receivers: Vec<NodeId> = self
                    .layers
                    .get(i + 1)
                    .iter()
                    .copied()
                    .filter(|&v| !has[v])
                    .collect();
                for (v, _) in sr_round(sim, self.sr, senders, receivers, rngs) {
                    has[v] = true;
                }
            },
        );
    }

    fn all(&self, sim: &mut Sim, has: &mut [bool], rngs: &mut NodeRngs) {
        let n = has.len();
        let senders: Vec<(NodeId, Payload)> =
            (0..n).filter(|&v| has[v]).map(|v| (v, Payload)).collect();
        let receivers: Vec<NodeId> = (0..n).filter(|&v| !has[v]).collect();
        for (v, _) in sr_round(sim, self.sr, senders, receivers, rngs) {
            has[v] = true;
        }
    }

    fn up(&self, sim: &mut Sim, has: &mut [bool], rngs: &mut NodeRngs) {
        let total = u64::from(self.layer_bound) - 1;
        let rounds = self.layers.up_rounds(self.layer_bound);
        run_rounds_at(
            sim,
            self.sr,
            total,
            rounds.into_iter().rev().map(|i| (total - i, i as u32)),
            |sim, i| {
                let senders: Vec<(NodeId, Payload)> = self
                    .layers
                    .get(i)
                    .iter()
                    .filter(|&&v| has[v])
                    .map(|&v| (v, Payload))
                    .collect();
                let receivers: Vec<NodeId> = self
                    .layers
                    .get(i - 1)
                    .iter()
                    .copied()
                    .filter(|&v| !has[v])
                    .collect();
                for (v, _) in sr_round(sim, self.sr, senders, receivers, rngs) {
                    has[v] = true;
                }
            },
        );
    }
}

/// Broadcast given a good labeling (Lemma 10).
///
/// `layer_bound` is the public bound `L` on the number of layers
/// (`n` in the §5 algorithms); `d_bound` upper-bounds the diameter of
/// `G_L` (0 when there is a single layer-0 vertex). The protocol is:
/// Up-cast, then `d_bound` repetitions of (Down-cast, All-cast, Up-cast),
/// then a final Down-cast.
///
/// # Panics
///
/// Panics if `layer_bound == 0`, or (debug builds) if `labeling` is not
/// good for the simulation graph.
pub fn broadcast_with_labeling(
    sim: &mut Sim,
    labeling: &Labeling,
    source: NodeId,
    layer_bound: u32,
    d_bound: u32,
    sr: &Sr,
    rngs: &mut NodeRngs,
) -> BroadcastOutcome {
    assert!(layer_bound >= 1);
    // Goodness is an invariant of clean-channel label learning; under an
    // active fault plan a degraded labeling is an expected outcome (the
    // casts below stay bounded either way — they just inform fewer
    // vertices).
    debug_assert!(sim.fault_state().is_some() || labeling.is_good(sim.graph()));
    let n = labeling.n();
    let caster = PayloadCaster {
        layers: Layers::build(labeling, layer_bound),
        layer_bound,
        sr,
    };
    let mut has = vec![false; n];
    has[source] = true;
    sim.span_enter("up_cast");
    caster.up(sim, &mut has, rngs);
    sim.span_exit();
    for _ in 0..d_bound {
        sim.span_enter("down_cast");
        caster.down(sim, &mut has, rngs);
        sim.span_exit();
        sim.span_enter("all_cast");
        caster.all(sim, &mut has, rngs);
        sim.span_exit();
        sim.span_enter("up_cast");
        caster.up(sim, &mut has, rngs);
        sim.span_exit();
        if sim.telemetry_enabled() {
            let informed = has.iter().filter(|&&x| x).count();
            sim.record_gauge("informed", sim.now(), informed as f64);
        }
    }
    sim.span_enter("down_cast");
    caster.down(sim, &mut has, rngs);
    sim.span_exit();
    BroadcastOutcome {
        informed: has,
        source,
    }
}

/// Computes a new good labeling `L′` from `L` (§5).
///
/// 1. Each layer-0 vertex adopts `L′ = 0` independently with probability
///    `p` (private randomness from `coin_rngs`).
/// 2. `s` repetitions of (Down-cast, All-cast, Up-cast) over the *old*
///    layers, transmitting `L′` labels: an unlabelled vertex receiving `m`
///    adopts `L′ = m + 1`.
/// 3. A final Down-cast; unlabelled vertices retain their old label.
///
/// With all SR rounds succeeding, the result is a good labeling in which
/// each old layer-0 vertex remains layer-0 with probability at most
/// `p + (1−p)^{min(s+1,w)}` (`w` = #old roots), and no new roots appear.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn relabel(
    sim: &mut Sim,
    labeling: &Labeling,
    p: f64,
    s: u32,
    layer_bound: u32,
    sr: &Sr,
    rngs: &mut NodeRngs,
    coin_rngs: &mut NodeRngs,
) -> Labeling {
    use rand::Rng;
    assert!((0.0..=1.0).contains(&p));
    let n = labeling.n();
    let mut newl: Vec<Option<u32>> = vec![None; n];
    for (v, slot) in newl.iter_mut().enumerate() {
        if labeling.label(v) == 0 && coin_rngs.get(v).gen_bool(p) {
            *slot = Some(0);
        }
    }
    relabel_from(sim, labeling, newl, s, layer_bound, sr, rngs)
}

/// The deterministic variant used by Appendix A: the new layer-0 set is
/// given explicitly (a ruling set of `G_L`) instead of coin flips.
pub fn relabel_from_roots(
    sim: &mut Sim,
    labeling: &Labeling,
    roots: &[NodeId],
    s: u32,
    layer_bound: u32,
    sr: &Sr,
    rngs: &mut NodeRngs,
) -> Labeling {
    let n = labeling.n();
    let mut newl: Vec<Option<u32>> = vec![None; n];
    for &r in roots {
        debug_assert_eq!(labeling.label(r), 0, "roots must be old layer-0 vertices");
        newl[r] = Some(0);
    }
    relabel_from(sim, labeling, newl, s, layer_bound, sr, rngs)
}

fn relabel_from(
    sim: &mut Sim,
    labeling: &Labeling,
    mut newl: Vec<Option<u32>>,
    s: u32,
    layer_bound: u32,
    sr: &Sr,
    rngs: &mut NodeRngs,
) -> Labeling {
    assert!(layer_bound >= 1);
    let n = labeling.n();
    // The casts sweep the *old* layers (which never change during the
    // relabel), so the occupied-layer structure is built once.
    let layers = Layers::build(labeling, layer_bound);
    let total = u64::from(layer_bound) - 1;
    let down = |sim: &mut Sim, newl: &mut Vec<Option<u32>>, rngs: &mut NodeRngs| {
        let rounds = layers.down_rounds(layer_bound);
        run_rounds_at(
            sim,
            sr,
            total,
            rounds.into_iter().map(|i| (i, i as u32)),
            |sim, i| {
                let senders: Vec<(NodeId, u32)> = layers
                    .get(i)
                    .iter()
                    .filter_map(|&v| newl[v].map(|m| (v, m)))
                    .collect();
                let receivers: Vec<NodeId> = layers
                    .get(i + 1)
                    .iter()
                    .copied()
                    .filter(|&v| newl[v].is_none())
                    .collect();
                for (v, m) in sr_round(sim, sr, senders, receivers, rngs) {
                    newl[v] = Some(m + 1);
                }
            },
        );
    };
    let all = |sim: &mut Sim, newl: &mut Vec<Option<u32>>, rngs: &mut NodeRngs| {
        let senders: Vec<(NodeId, u32)> = (0..n).filter_map(|v| newl[v].map(|m| (v, m))).collect();
        let receivers: Vec<NodeId> = (0..n).filter(|&v| newl[v].is_none()).collect();
        for (v, m) in sr_round(sim, sr, senders, receivers, rngs) {
            newl[v] = Some(m + 1);
        }
    };
    let up = |sim: &mut Sim, newl: &mut Vec<Option<u32>>, rngs: &mut NodeRngs| {
        let rounds = layers.up_rounds(layer_bound);
        run_rounds_at(
            sim,
            sr,
            total,
            rounds.into_iter().rev().map(|i| (total - i, i as u32)),
            |sim, i| {
                let senders: Vec<(NodeId, u32)> = layers
                    .get(i)
                    .iter()
                    .filter_map(|&v| newl[v].map(|m| (v, m)))
                    .collect();
                let receivers: Vec<NodeId> = layers
                    .get(i - 1)
                    .iter()
                    .copied()
                    .filter(|&v| newl[v].is_none())
                    .collect();
                for (v, m) in sr_round(sim, sr, senders, receivers, rngs) {
                    newl[v] = Some(m + 1);
                }
            },
        );
    };
    for _ in 0..s {
        down(sim, &mut newl, rngs);
        all(sim, &mut newl, rngs);
        up(sim, &mut newl, rngs);
    }
    down(sim, &mut newl, rngs);
    Labeling::from_labels(
        (0..n)
            .map(|v| newl[v].unwrap_or_else(|| labeling.label(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, path};
    use ebc_radio::{Model, Sim};

    fn setup(g: ebc_radio::Graph, model: Model, seed: u64) -> (Sim, NodeRngs, NodeRngs) {
        let n = g.n();
        (
            Sim::new(g, model, seed),
            NodeRngs::new(seed, n, 10),
            NodeRngs::new(seed, n, 11),
        )
    }

    #[test]
    fn broadcast_single_root_path_local() {
        let g = path(8);
        let (mut sim, mut rngs, _) = setup(g, Model::Local, 1);
        let l = Labeling::from_labels((0..8).map(|v| v as u32).collect());
        let out = broadcast_with_labeling(&mut sim, &l, 3, 8, 0, &Sr::Local, &mut rngs);
        assert!(out.all_informed());
    }

    #[test]
    fn broadcast_single_root_nocd_decay() {
        let g = path(8);
        let (mut sim, mut rngs, _) = setup(g, Model::NoCd, 2);
        let l = Labeling::from_labels((0..8).map(|v| v as u32).collect());
        let sr = Sr::Decay {
            delta: 2,
            sweeps: 12,
        };
        let out = broadcast_with_labeling(&mut sim, &l, 7, 8, 0, &sr, &mut rngs);
        assert!(out.all_informed());
    }

    #[test]
    fn broadcast_multi_root_needs_dbound() {
        // 4 clusters on a cycle of 8; G_L is a 4-cycle with diameter 2.
        let g = cycle(8);
        let l = Labeling::from_labels(vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let (mut sim, mut rngs, _) = setup(g, Model::Local, 3);
        let out = broadcast_with_labeling(&mut sim, &l, 0, 8, 2, &Sr::Local, &mut rngs);
        assert!(out.all_informed());
    }

    #[test]
    fn broadcast_insufficient_dbound_fails_on_local() {
        // With d_bound = 0 on the 4-cluster cycle, distant clusters cannot
        // be reached (deterministic in LOCAL).
        let g = cycle(8);
        let l = Labeling::from_labels(vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let (mut sim, mut rngs, _) = setup(g, Model::Local, 3);
        let out = broadcast_with_labeling(&mut sim, &l, 0, 8, 0, &Sr::Local, &mut rngs);
        assert!(!out.all_informed());
    }

    #[test]
    fn relabel_keeps_goodness_and_shrinks_roots() {
        let g = cycle(16);
        let (mut sim, mut rngs, mut coins) = setup(g.clone(), Model::Local, 4);
        let mut l = Labeling::all_zero(16);
        for _ in 0..10 {
            let l2 = relabel(&mut sim, &l, 0.5, 1, 16, &Sr::Local, &mut rngs, &mut coins);
            assert!(l2.is_good(&g), "not good: {:?}", l2.labels());
            assert!(l2.layer0_count() <= l.layer0_count());
            l = l2;
        }
        assert_eq!(l.layer0_count(), 1, "roots: {:?}", l.layer0());
    }

    #[test]
    fn relabel_never_creates_new_roots() {
        let g = path(12);
        let (mut sim, mut rngs, mut coins) = setup(g.clone(), Model::Local, 5);
        let l = Labeling::all_zero(12);
        let l2 = relabel(&mut sim, &l, 0.3, 2, 12, &Sr::Local, &mut rngs, &mut coins);
        for v in 0..12 {
            if l.label(v) != 0 {
                assert_ne!(l2.label(v), 0);
            }
        }
    }

    #[test]
    fn relabel_with_decay_nocd() {
        let g = cycle(12);
        let (mut sim, mut rngs, mut coins) = setup(g.clone(), Model::NoCd, 6);
        let sr = Sr::Decay {
            delta: 2,
            sweeps: 15,
        };
        let mut l = Labeling::all_zero(12);
        for _ in 0..12 {
            l = relabel(&mut sim, &l, 0.5, 1, 12, &sr, &mut rngs, &mut coins);
            assert!(l.is_good(&g));
        }
        assert!(l.layer0_count() <= 2, "roots = {}", l.layer0_count());
    }

    #[test]
    fn time_accounts_for_empty_rounds() {
        // With layer bound 8 on an all-zero labeling, a relabel sweep still
        // clocks the full public schedule: (8-1) down + 1 all + 7 up + 7
        // final-down rounds of 1 slot each in LOCAL.
        let g = path(4);
        let (mut sim, mut rngs, mut coins) = setup(g, Model::Local, 7);
        let l = Labeling::all_zero(4);
        let before = sim.now();
        relabel(&mut sim, &l, 0.5, 1, 8, &Sr::Local, &mut rngs, &mut coins);
        assert_eq!(sim.now() - before, 7 + 1 + 7 + 7);
    }
}
