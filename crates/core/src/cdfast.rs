//! The improved randomized CD algorithm (paper §7, Theorem 20):
//! `O(log n (log log Δ + 1/ξ) / log log log Δ)` energy at the price of
//! `O(Δ n^{1+ξ})` time, run at ξ = 0.34.
//!
//! Two ideas power the improvement over §5:
//!
//! 1. **Vertex colorings (§7.1).** `c = O(1/ξ)` public pseudo-random
//!    colorings with `n^ξ Δ` colors each. For a child `u` with parent `v`,
//!    `Ind(u, v)` is the first coloring in which `v`'s color is unique in
//!    `N(u)` — learned once by the Lemma 19 protocol. Downward
//!    transmissions then cost the child exactly *one* listen (at slot
//!    `(Ind, color)` the parent is the only possible transmitter), and
//!    upward transmissions fall into Lemma 8's cheap special case (each
//!    sender is adjacent to exactly one receiver: its parent).
//! 2. **Cluster merging with Active/Wait/Halt states (§7.2).** Whole
//!    clusters merge into neighbors' groups via merge requests, with the
//!    gentle failure probability `f = 1/polyloglog Δ` — energy per request
//!    is only `O(log log Δ)` instead of `O(log n)`.
//!
//! The cluster structure (ids, layers, designated parents) is the same
//! tree structure as Appendix A.3's [`DetClusterState`], which this module
//! reuses.

use ebc_radio::rng::{cluster_rng, splitmix64};
use ebc_radio::{Model, NodeId, Schedule, Sim};
use rand::Rng;

use crate::det::cd::DetClusterState;
use crate::labeling::Labeling;
use crate::srcomm::Sr;
use crate::util::{ceil_log2, NodeRngs};
use crate::BroadcastOutcome;

/// The public coloring family: `colors.get(j, v)` is `Color_j(v)`,
/// derived from the master seed so every vertex can evaluate any other
/// vertex's colors from its id (which is how children know their parent's
/// colors).
#[derive(Debug, Clone)]
pub struct Colorings {
    seed: u64,
    /// Number of colorings, `c = O(1/ξ)`.
    pub c: u32,
    /// Colors per coloring, `≈ n^ξ Δ`.
    pub num_colors: u32,
}

impl Colorings {
    /// A family of `c` colorings with `num_colors` colors under `seed`.
    pub fn new(seed: u64, c: u32, num_colors: u32) -> Self {
        assert!(c >= 1 && num_colors >= 1);
        Colorings {
            seed,
            c,
            num_colors,
        }
    }

    /// `Color_j(v)`.
    pub fn get(&self, j: u32, v: NodeId) -> u32 {
        (splitmix64(self.seed ^ ((j as u64) << 40) ^ (v as u64).wrapping_mul(0x9e37_79b9))
            % u64::from(self.num_colors)) as u32
    }

    /// The analytic `Ind(u, v)`: the first `j` where `v`'s color is unique
    /// among `N(u)` (test helper; the protocol learns it by listening).
    pub fn analytic_ind(&self, g: &ebc_radio::Graph, u: NodeId, v: NodeId) -> Option<u32> {
        (0..self.c).find(|&j| {
            let cv = self.get(j, v);
            g.neighbors(u).all(|w| w == v || self.get(j, w) != cv)
        })
    }
}

/// The Lemma 19 protocol: each vertex with a parent learns
/// `Ind(v, parent(v))` in `O(c · num_colors)` slots and `O(c)` energy.
///
/// For `j = 1..c`, `k = 1..num_colors`: every vertex whose `j`-th color is
/// `k` speaks; every vertex whose parent's `j`-th color is `k` listens.
/// The first `j` with a clean reception is `Ind`.
pub fn lemma19_ind(sim: &mut Sim, st: &DetClusterState, colors: &Colorings) -> Vec<Option<u32>> {
    let n = st.cid.len();
    let mut ind: Vec<Option<u32>> = vec![None; n];
    for j in 0..colors.c {
        // Bucket vertices by color for this coloring.
        let mut by_color: Vec<Vec<NodeId>> = vec![Vec::new(); colors.num_colors as usize];
        for v in 0..n {
            by_color[colors.get(j, v) as usize].push(v);
        }
        let mut listeners_by_color: Vec<Vec<NodeId>> = vec![Vec::new(); colors.num_colors as usize];
        for (v, i) in ind.iter().enumerate() {
            if i.is_none() {
                if let Some(p) = st.parent[v] {
                    listeners_by_color[colors.get(j, p) as usize].push(v);
                }
            }
        }
        for k in 0..colors.num_colors as usize {
            let senders = &by_color[k];
            let listeners = &listeners_by_color[k];
            if listeners.is_empty() {
                sim.skip(1);
                continue;
            }
            let mut heard: Vec<bool> = vec![false; listeners.len()];
            let sender_set: std::collections::HashSet<NodeId> = senders.iter().copied().collect();
            let mut behavior = ebc_radio::from_fns(
                |u, _t| {
                    if sender_set.contains(&u) {
                        ebc_radio::Action::Send(1u8)
                    } else {
                        ebc_radio::Action::Listen
                    }
                },
                |u, _t, fb: ebc_radio::Feedback<u8>| {
                    if matches!(fb, ebc_radio::Feedback::One(_)) {
                        let i = listeners.iter().position(|&x| x == u).expect("listener");
                        heard[i] = true;
                    }
                },
            );
            // A vertex can be both sender and listener only if its parent
            // shares its color; then it cannot listen while sending and
            // Ind(j) is not this j anyway.
            let participants: Vec<NodeId> = senders
                .iter()
                .copied()
                .chain(
                    listeners
                        .iter()
                        .copied()
                        .filter(|u| !sender_set.contains(u)),
                )
                .collect();
            sim.drive(
                Schedule::Dense {
                    participants: &participants,
                    slots: 1,
                },
                &mut behavior,
            );
            drop(behavior);
            for (i, &u) in listeners.iter().enumerate() {
                if heard[i] && ind[u].is_none() {
                    ind[u] = Some(j);
                }
            }
        }
    }
    ind
}

/// One colored downward sweep: per layer, per `(j, k)` slot, layer-`i`
/// holders with `Color_j = k` transmit; a child listens only at its
/// `(Ind, parent color)` slot — one listen per layer round, zero failure.
/// `fold` fires on reception, so messages chain down in one sweep.
fn colored_down(
    sim: &mut Sim,
    st: &DetClusterState,
    colors: &Colorings,
    ind: &[Option<u32>],
    msgs: &mut Vec<Option<u64>>,
    mut fold: impl FnMut(&mut Vec<Option<u64>>, NodeId, u64),
) {
    let n = st.cid.len();
    let max_layer = st.max_layer();
    for layer in 0..=max_layer {
        for j in 0..colors.c {
            let mut send_by_color: Vec<Vec<NodeId>> = vec![Vec::new(); colors.num_colors as usize];
            for v in 0..n {
                if st.labeling.label(v) == layer && msgs[v].is_some() {
                    send_by_color[colors.get(j, v) as usize].push(v);
                }
            }
            let mut listen_by_color: Vec<Vec<NodeId>> =
                vec![Vec::new(); colors.num_colors as usize];
            for (u, i) in ind.iter().enumerate() {
                if st.labeling.label(u) == layer + 1 && *i == Some(j) {
                    if let Some(p) = st.parent[u] {
                        listen_by_color[colors.get(j, p) as usize].push(u);
                    }
                }
            }
            for k in 0..colors.num_colors as usize {
                let senders = &send_by_color[k];
                let listeners = &listen_by_color[k];
                if senders.is_empty() && listeners.is_empty() {
                    sim.skip(1);
                    continue;
                }
                let sender_msg: std::collections::HashMap<NodeId, u64> = senders
                    .iter()
                    .map(|&v| (v, msgs[v].expect("holder")))
                    .collect();
                let mut heard: Vec<Option<u64>> = vec![None; listeners.len()];
                let mut behavior = ebc_radio::from_fns(
                    |u, _t| match sender_msg.get(&u) {
                        Some(&m) => ebc_radio::Action::Send(m),
                        None => ebc_radio::Action::Listen,
                    },
                    |u, _t, fb: ebc_radio::Feedback<u64>| {
                        if let ebc_radio::Feedback::One(m) = fb {
                            let i = listeners.iter().position(|&x| x == u).expect("listener");
                            heard[i] = Some(m);
                        }
                    },
                );
                let participants: Vec<NodeId> = senders
                    .iter()
                    .copied()
                    .chain(
                        listeners
                            .iter()
                            .copied()
                            .filter(|u| !sender_msg.contains_key(u)),
                    )
                    .collect();
                sim.drive(
                    Schedule::Dense {
                        participants: &participants,
                        slots: 1,
                    },
                    &mut behavior,
                );
                drop(behavior);
                for (i, &u) in listeners.iter().enumerate() {
                    if let Some(m) = heard[i] {
                        // Accept only the parent's message: at the Ind slot
                        // the parent is the unique possible same-color
                        // transmitter in N(u), so a clean reception is it.
                        fold(msgs, u, m);
                    }
                }
            }
        }
    }
}

/// One colored upward sweep: per layer (deepest first), per `(j, k)` slot
/// group, Lemma 8 SR-communication from children (whose parent has
/// `Color_j = k` and `Ind = j`) to those parents — the cheap special case,
/// since each sender has exactly one receiver. Parents take the first
/// message received; `fold` fires on reception so values chain to the
/// root in one sweep.
#[allow(clippy::too_many_arguments)]
fn colored_up(
    sim: &mut Sim,
    st: &DetClusterState,
    colors: &Colorings,
    ind: &[Option<u32>],
    epochs: u32,
    rngs: &mut NodeRngs,
    msgs: &mut Vec<Option<u64>>,
    mut fold: impl FnMut(&mut Vec<Option<u64>>, NodeId, u64),
) {
    let n = st.cid.len();
    let delta = sim.graph().max_degree().max(1);
    let max_layer = st.max_layer();
    let sr = Sr::CdTransform {
        delta,
        epochs,
        relevance_check: true,
    };
    for layer in (1..=max_layer).rev() {
        for j in 0..colors.c {
            let mut senders_by_color: Vec<Vec<(NodeId, u64)>> =
                vec![Vec::new(); colors.num_colors as usize];
            for u in 0..n {
                if st.labeling.label(u) == layer && ind[u] == Some(j) {
                    if let (Some(p), Some(m)) = (st.parent[u], msgs[u]) {
                        senders_by_color[colors.get(j, p) as usize].push((u, m));
                    }
                }
            }
            let mut recv_by_color: Vec<Vec<NodeId>> = vec![Vec::new(); colors.num_colors as usize];
            for v in 0..n {
                if st.labeling.label(v) + 1 == layer {
                    recv_by_color[colors.get(j, v) as usize].push(v);
                }
            }
            for k in 0..colors.num_colors as usize {
                let s = &senders_by_color[k];
                let r = &recv_by_color[k];
                if s.is_empty() && r.is_empty() {
                    sim.skip(sr.round_slots());
                    continue;
                }
                let got = sr.run(sim, s, r, rngs);
                for (i, &v) in r.iter().enumerate() {
                    if let Some(m) = got[i] {
                        fold(msgs, v, m);
                    }
                }
            }
        }
    }
}

/// Theorem 20's time/energy knob ξ: `n^ξ Δ` colors per coloring and
/// `c = ⌈2/ξ⌉` colorings.
const THEOREM20_XI: f64 = 0.34;

/// Theorem 20 at ξ = 0.34: energy
/// `O(log n (log log Δ + 1/ξ) / log log log Δ)`, time `O(Δ n^{1+ξ})`,
/// in the CD model.
///
/// # Panics
///
/// Panics if the model lacks collision detection.
pub fn broadcast_theorem20(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    assert!(
        matches!(sim.model(), Model::Cd | Model::CdStar),
        "Theorem 20 is a CD algorithm"
    );
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let c = (2.0 / THEOREM20_XI).ceil() as u32;
    let num_colors = (((n as f64).powf(THEOREM20_XI) * delta as f64).ceil() as u32).max(2);
    let colors = Colorings::new(sim.seed() ^ 0x7e20, c, num_colors);
    let logn = ceil_log2(n.max(2)) as f64;
    let loglog_delta = ((delta.max(4) as f64).log2().log2()).max(1.0);
    // Paper: p = log^{-1/2} log Δ, s = log log Δ. At simulable sizes
    // these round to ~(0.7, 2); clamp into a useful range.
    let p = (1.0 / loglog_delta.sqrt()).clamp(0.2, 0.7);
    let s = (loglog_delta.ceil() as u32).max(2);
    // O(log n / log log log Δ) outer iterations.
    let lll = loglog_delta.log2().max(0.5);
    let iters = ((3.0 * logn / lll).ceil() as u32).max(4);
    // Lemma 8 epochs at the §7 failure rate f = 1/polyloglog Δ — small.
    let epochs = (2.0 * loglog_delta).ceil() as u32 + 6;
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x5e20);
    let ids: Vec<u64> = (0..n).map(|v| v as u64 + 1).collect();
    let mut st = DetClusterState::initial(&ids);
    for iter in 0..iters {
        if st.cluster_count() <= 1 {
            break;
        }
        sim.span_enter("merge_round");
        st = merge_round(
            sim,
            &st,
            &colors,
            epochs,
            p,
            s,
            &mut rngs,
            0x20_0000 + u64::from(iter),
        );
        sim.span_exit();
        if sim.telemetry_enabled() {
            sim.record_gauge("clusters", sim.now(), st.cluster_count() as f64);
        }
        // Validity is a clean-channel invariant; under an active fault
        // plan merge elections can misfire and leave a degraded (but
        // bounded) state.
        debug_assert!(
            sim.fault_state().is_some() || st.is_valid(sim.graph()),
            "invalid state at iter {iter}"
        );
    }
    // Final broadcast: Lemma 10 with the CD SR strategy. The labeling is
    // graph-good because parents are graph neighbors.
    let sr = crate::randomized::default_sr_for(sim.model(), delta, n);
    let layer_bound = (st.labeling.max_label() + 1).max(2);
    let d_bound = (st.cluster_count() as u32).max(1).min(n as u32);
    sim.span_enter("broadcast");
    let out = crate::cast::broadcast_with_labeling(
        sim,
        &st.labeling,
        source,
        layer_bound,
        d_bound,
        &sr,
        &mut rngs,
    );
    sim.span_exit();
    out
}

/// One §7.2 merging phase: Active clusters issue requests; Wait clusters
/// that receive one elect a winner, re-root into the requester's group,
/// and turn Active for the next step.
#[allow(clippy::too_many_arguments)]
fn merge_round(
    sim: &mut Sim,
    st: &DetClusterState,
    colors: &Colorings,
    epochs: u32,
    p: f64,
    s: u32,
    rngs: &mut NodeRngs,
    tag: u64,
) -> DetClusterState {
    let n = st.cid.len();
    let delta = sim.graph().max_degree().max(1);
    let bits_id = ceil_log2(n + 2).max(1);
    let bits_lab = ceil_log2(2 * n + 4) + 1;
    let pack3 = |a: u64, b: u64, c_: u64| (((a << bits_lab) | b) << bits_id) | c_;
    let unpack3 = |m: u64| {
        (
            m >> (bits_lab + bits_id),
            (m >> bits_id) & ((1 << bits_lab) - 1),
            m & ((1 << bits_id) - 1),
        )
    };
    // Cluster states via shared randomness.
    #[derive(Clone, Copy, PartialEq)]
    enum ClState {
        Active,
        Wait,
        Halt,
    }
    let mut cl_state: std::collections::HashMap<u64, ClState> = Default::default();
    {
        let mut roots: Vec<u64> = st.cid.clone();
        roots.sort_unstable();
        roots.dedup();
        for c_ in roots {
            let mut rng = cluster_rng(sim.seed() ^ tag, c_ as usize, 1);
            cl_state.insert(
                c_,
                if rng.gen_bool(p) {
                    ClState::Active
                } else {
                    ClState::Wait
                },
            );
        }
    }
    // group[v] = the forming super-cluster id; labels/parents relative to it.
    let mut group: Vec<u64> = st.cid.clone();
    let mut newlab: Vec<u32> = (0..n).map(|v| st.labeling.label(v)).collect();
    let mut newpar: Vec<Option<NodeId>> = st.parent.clone();
    // Ind is relative to the *old* trees, which all within-phase casts use.
    let ind = lemma19_ind(sim, st, colors);
    let sr_req = Sr::CdTransform {
        delta,
        epochs,
        relevance_check: true,
    };
    for _step in 0..s {
        // (a) Merge requests from members of Active clusters.
        let senders: Vec<(NodeId, u64)> = (0..n)
            .filter(|&v| cl_state.get(&st.cid[v]).copied() == Some(ClState::Active))
            .map(|v| (v, pack3(group[v], u64::from(newlab[v]), v as u64 + 1)))
            .collect();
        let receivers: Vec<NodeId> = (0..n)
            .filter(|&v| cl_state.get(&st.cid[v]).copied() == Some(ClState::Wait))
            .collect();
        let got = sr_req.run(sim, &senders, &receivers, rngs);
        let mut pending: Vec<Option<(u64, u32, NodeId)>> = vec![None; n];
        for (i, &v) in receivers.iter().enumerate() {
            if let Some(m) = got[i] {
                let (grp, lay, sid) = unpack3(m);
                pending[v] = Some((grp, lay as u32 + 1, (sid - 1) as NodeId));
            }
        }
        // Active clusters halt after sending.
        for (_, stt) in cl_state.iter_mut() {
            if *stt == ClState::Active {
                *stt = ClState::Halt;
            }
        }
        // (b) Wait clusters with pending requests elect a winner and
        // re-root into the requester's group.
        let mut msgs: Vec<Option<u64>> = vec![None; n];
        for v in 0..n {
            if let Some((grp, l, _)) = pending[v] {
                msgs[v] = Some(pack3(u64::from(l), grp, v as u64 + 1));
            }
        }
        colored_up(
            sim,
            st,
            colors,
            &ind,
            epochs,
            rngs,
            &mut msgs,
            |msgs, v, m| {
                msgs[v] = Some(match msgs[v] {
                    Some(old) => old.min(m),
                    None => m,
                });
            },
        );
        // Roots announce winners down their trees.
        let mut announced: Vec<Option<u64>> = (0..n)
            .map(|v| {
                (st.labeling.label(v) == 0
                    && cl_state.get(&st.cid[v]).copied() == Some(ClState::Wait))
                .then(|| msgs[v])
                .flatten()
            })
            .collect();
        colored_down(sim, st, colors, &ind, &mut announced, |msgs, v, m| {
            msgs[v] = Some(m);
        });
        // Re-root the winning clusters.
        let mut labmsg: Vec<Option<u64>> = vec![None; n];
        let mut labeled: Vec<bool> = vec![false; n];
        for v in 0..n {
            if let (Some(w), Some((grp, l, phi))) = (announced[v], pending[v]) {
                let (_, wgrp, wid) = unpack3(w);
                if wid == v as u64 + 1 && wgrp == grp {
                    group[v] = grp;
                    newlab[v] = l;
                    newpar[v] = Some(phi);
                    labeled[v] = true;
                    labmsg[v] = Some((u64::from(l) << bits_id) | (v as u64 + 1));
                }
            }
        }
        {
            let announced_ref = &announced;
            let labeled_ref = &mut labeled;
            let group_ref = &mut group;
            colored_up(
                sim,
                st,
                colors,
                &ind,
                epochs,
                rngs,
                &mut labmsg,
                |msgs, v, m| {
                    if labeled_ref[v] || announced_ref[v].is_none() {
                        return;
                    }
                    let l = m >> bits_id;
                    let child = ((m & ((1 << bits_id) - 1)) - 1) as NodeId;
                    let (_, wgrp, _) = unpack3(announced_ref[v].expect("checked"));
                    group_ref[v] = wgrp;
                    newlab[v] = l as u32 + 1;
                    newpar[v] = Some(child);
                    labeled_ref[v] = true;
                    msgs[v] = Some((u64::from(newlab[v]) << bits_id) | (v as u64 + 1));
                },
            );
            colored_down(sim, st, colors, &ind, &mut labmsg, |msgs, v, m| {
                if labeled_ref[v] || announced_ref[v].is_none() {
                    return;
                }
                let l = m >> bits_id;
                let (_, wgrp, _) = unpack3(announced_ref[v].expect("checked"));
                group_ref[v] = wgrp;
                newlab[v] = l as u32 + 1;
                labeled_ref[v] = true;
                msgs[v] = Some((u64::from(newlab[v]) << bits_id) | (v as u64 + 1));
            });
        }
        // Merged clusters turn Active for the next step.
        for (v, &was_labeled) in labeled.iter().enumerate() {
            if was_labeled {
                cl_state.insert(st.cid[v], ClState::Active);
            }
        }
    }
    DetClusterState {
        cid: group,
        labeling: Labeling::from_labels(newlab),
        parent: newpar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, grid, path};

    #[test]
    fn colorings_are_deterministic_and_in_range() {
        let c = Colorings::new(7, 3, 10);
        for j in 0..3 {
            for v in 0..20 {
                let x = c.get(j, v);
                assert!(x < 10);
                assert_eq!(x, c.get(j, v));
            }
        }
    }

    #[test]
    fn lemma19_matches_analytic_ind() {
        let g = grid(4, 4);
        let n = g.n();
        let mut sim = Sim::new(g.clone(), Model::Cd, 3);
        // Build a BFS tree from 0 as the cluster structure.
        let dist = g.bfs(0);
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|v| {
                if v == 0 {
                    None
                } else {
                    g.neighbors(v).find(|&u| dist[u] + 1 == dist[v])
                }
            })
            .collect();
        let st = DetClusterState {
            cid: vec![1; n],
            labeling: Labeling::from_labels(dist.clone()),
            parent: parent.clone(),
        };
        let colors = Colorings::new(99, 4, 16);
        let ind = lemma19_ind(&mut sim, &st, &colors);
        for v in 0..n {
            if let Some(p) = parent[v] {
                assert_eq!(
                    ind[v],
                    colors.analytic_ind(&g, v, p),
                    "vertex {v} (parent {p})"
                );
            }
        }
    }

    #[test]
    fn lemma19_energy_is_c_per_vertex() {
        let g = cycle(16);
        let mut sim = Sim::new(g, Model::Cd, 1);
        let ids: Vec<u64> = (0..16).map(|v| v as u64 + 1).collect();
        let mut st = DetClusterState::initial(&ids);
        // Chain structure: parent = v-1.
        for v in 1..16 {
            st.parent[v] = Some(v - 1);
            st.labeling.set(v, v as u32);
        }
        st.cid = vec![1; 16];
        let colors = Colorings::new(5, 3, 8);
        lemma19_ind(&mut sim, &st, &colors);
        // Each vertex sends once per coloring and listens at most once per
        // coloring: ≤ 2c.
        assert!(sim.meter().max_energy() <= 6);
    }

    #[test]
    fn theorem20_informs_everyone_on_small_graphs() {
        for (name, g) in [
            ("path", path(16)),
            ("cycle", cycle(16)),
            ("grid", grid(4, 4)),
        ] {
            let mut sim = Sim::new(g, Model::Cd, 11);
            let out = broadcast_theorem20(&mut sim, 0);
            assert!(out.all_informed(), "{name}");
        }
    }

    #[test]
    fn theorem20_informs_from_an_inner_source() {
        let g = cycle(24);
        let mut sim = Sim::new(g, Model::Cd, 5);
        let out = broadcast_theorem20(&mut sim, 3);
        assert!(out.all_informed());
    }

    #[test]
    #[should_panic(expected = "CD algorithm")]
    fn theorem20_rejects_local() {
        let g = path(4);
        let mut sim = Sim::new(g, Model::Local, 0);
        broadcast_theorem20(&mut sim, 0);
    }
}
