//! Partition(β) and the `O(D^{1+ε})`-time broadcast algorithm (paper §6).
//!
//! **Partition(β)** (Miller–Peng–Xu, as used by Haeupler–Wajc) clusters the
//! graph with exponential random shifts: each center candidate draws
//! `δ ~ Exponential(β)` and starts claiming vertices at epoch
//! `2 log n / β − ⌈δ⌉`; unclustered vertices join the first cluster they
//! hear. The resulting clustering cuts each edge with probability `≤ 2β`
//! (Lemma 14) and, iterated on the *cluster graph*, shrinks the diameter by
//! a `3β` factor per round w.h.p. (Lemma 15).
//!
//! **Theorem 16** iterates Partition on the cluster graph
//! `log_{1/3β} D` times, maintaining a good labeling and cluster ids
//! (shared cluster randomness, §6.2), simulating each cluster-graph round
//! with Down-cast / All-cast / Up-cast (§6.3) and re-rooting merged
//! clusters per §6.4. With `β = 1/log^{1/ε} n` this yields
//! `O(D^{1+ε} polylog n)` time and `polylog n` energy.
//!
//! Implementation notes (deviations documented in DESIGN.md): inter-cluster
//! *offers* use plain decay SR-communication (any offer is acceptable, so
//! Lemma 17's subsampling is unnecessary there); intra-cluster casts use
//! the Lemma 17 cluster-subsampling so a vertex's own cluster periodically
//! talks without interference from the ≤ C neighboring clusters.

use ebc_radio::rng::{cluster_rng, splitmix64};
use ebc_radio::{NodeId, Sim};

use crate::cast::{broadcast_with_labeling, sr_round};
use crate::labeling::Labeling;
use crate::srcomm::Sr;
use crate::util::{ceil_log2, sample_exponential, NodeRngs};
use crate::BroadcastOutcome;

/// A clustering of the graph: cluster ids, a within-cluster good labeling,
/// and the parent pointers the §6.2 cluster structure maintains.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// `cid[v]`: the id of `v`'s cluster (the original root vertex's id).
    pub cid: Vec<u64>,
    /// Within-cluster layers; layer 0 = the cluster center. Good for the
    /// underlying graph *through same-cluster neighbors*.
    pub labeling: Labeling,
}

impl ClusterState {
    /// The trivial clustering: every vertex is its own singleton cluster.
    pub fn trivial(n: usize) -> Self {
        ClusterState {
            cid: (0..n as u64).collect(),
            labeling: Labeling::all_zero(n),
        }
    }

    /// The number of distinct clusters.
    pub fn cluster_count(&self) -> usize {
        let mut ids: Vec<u64> = self.cid.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Whether every vertex with positive layer has a *same-cluster*
    /// neighbor exactly one layer down — the §6.2 structural invariant.
    pub fn is_valid(&self, g: &ebc_radio::Graph) -> bool {
        (0..g.n()).all(|v| {
            let l = self.labeling.label(v);
            l == 0
                || g.neighbors(v)
                    .any(|u| self.cid[u] == self.cid[v] && self.labeling.label(u) + 1 == l)
        })
    }

    /// Builds the cluster graph (contract each cluster) for analysis.
    /// Returns `(graph, cluster index per vertex)`.
    pub fn cluster_graph(&self, g: &ebc_radio::Graph) -> (ebc_radio::Graph, Vec<usize>) {
        let mut ids: Vec<u64> = self.cid.clone();
        ids.sort_unstable();
        ids.dedup();
        let index: std::collections::HashMap<u64, usize> =
            ids.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let of: Vec<usize> = self.cid.iter().map(|c| index[c]).collect();
        let mut edges = Vec::new();
        for u in 0..g.n() {
            for v in g.neighbors(u) {
                if u < v && of[u] != of[v] {
                    edges.push((of[u], of[v]));
                }
            }
        }
        (
            ebc_radio::Graph::from_edges(ids.len(), &edges).expect("valid cluster graph"),
            of,
        )
    }

    /// The fraction of graph edges cut by the clustering (Lemma 14 bounds
    /// this by `2β` in expectation for Partition(β)).
    pub fn edge_cut_fraction(&self, g: &ebc_radio::Graph) -> f64 {
        let mut cut = 0usize;
        let mut total = 0usize;
        for u in 0..g.n() {
            for v in g.neighbors(u) {
                if u < v {
                    total += 1;
                    if self.cid[u] != self.cid[v] {
                        cut += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }
}

/// Runs Partition(β) on the flat graph (the first §6.1 iteration) using
/// plain SR-communication per epoch.
///
/// Returns the clustering; every vertex is clustered (it self-activates at
/// its own start epoch at the latest).
///
/// # Panics
///
/// Panics if `beta` is not in `(0, 1)`.
pub fn partition_beta(sim: &mut Sim, beta: f64, sr: &Sr, rngs: &mut NodeRngs) -> ClusterState {
    assert!(beta > 0.0 && beta < 1.0);
    let n = sim.graph().n();
    let epochs = ((2.0 * ceil_log2(n.max(2)) as f64) / beta).ceil() as u64;
    // start_v = epochs − ⌈δ_v⌉, clamped into [1, epochs].
    let mut start: Vec<u64> = (0..n)
        .map(|v| {
            let d = sample_exponential(rngs.get(v), beta).ceil() as u64;
            epochs.saturating_sub(d).max(1)
        })
        .collect();
    let mut assigned: Vec<Option<(u64, u32)>> = vec![None; n];
    for t in 1..=epochs {
        for v in 0..n {
            if assigned[v].is_none() && start[v] == t {
                assigned[v] = Some((v as u64, 0));
            }
        }
        let senders: Vec<(NodeId, (u64, u32))> = (0..n)
            .filter_map(|v| assigned[v].map(|(c, l)| (v, (c, l))))
            .collect();
        let receivers: Vec<NodeId> = (0..n).filter(|&v| assigned[v].is_none()).collect();
        for (v, (c, l)) in sr_round(sim, sr, senders, receivers, rngs) {
            assigned[v] = Some((c, l + 1));
        }
    }
    // Everyone self-activated at the latest at its own start epoch.
    start.clear();
    let cid: Vec<u64> = assigned.iter().map(|a| a.expect("assigned").0).collect();
    let labels: Vec<u32> = assigned.iter().map(|a| a.expect("assigned").1).collect();
    ClusterState {
        cid,
        labeling: Labeling::from_labels(labels),
    }
}

/// Messages of the §6 cluster machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CMsg {
    /// A merge offer from a super-clustered vertex: join super-cluster
    /// `scid`; the receiver's layer would be `slayer + 1`.
    Offer { scid: u64, slayer: u32 },
    /// Election candidate / announcement inside cluster `cid`: `vstar`
    /// accepted an offer into `scid` at layer `slayer`.
    Cand {
        cid: u64,
        vstar: NodeId,
        scid: u64,
        slayer: u32,
    },
    /// A new-label broadcast inside cluster `cid`.
    Lab { cid: u64, label: u32 },
}

/// One Lemma 17-style subsampled SR sweep: groups (clusters) are active in
/// a sub-round iff a shared hash elects them, so each receiver periodically
/// hears its own cluster without interference from the ≤ `c_bound` others.
///
/// `senders`: `(vertex, message, group key)`. `receivers`: `(vertex,
/// group key)`; a receiver listens only in sub-rounds where its own group
/// is active, so `accept(message, key)` may take only messages from the
/// receiver's own group. Returns first accepted message per receiver.
#[allow(clippy::too_many_arguments)]
fn subsampled_sr(
    sim: &mut Sim,
    sr: &Sr,
    senders: &[(NodeId, CMsg, u64)],
    receivers: &[(NodeId, u64)],
    accept: impl Fn(&CMsg, u64) -> bool,
    c_bound: u32,
    sub_rounds: u32,
    tag: u64,
    rngs: &mut NodeRngs,
) -> Vec<(NodeId, CMsg)> {
    let mut got: Vec<Option<CMsg>> = vec![None; receivers.len()];
    for q in 0..sub_rounds {
        let active = |group: u64| -> bool {
            splitmix64(sim.seed() ^ group.wrapping_mul(0x9e37) ^ tag ^ (q as u64) << 32)
                % u64::from(c_bound.max(1))
                == 0
        };
        let s: Vec<(NodeId, CMsg)> = senders
            .iter()
            .filter(|(_, _, grp)| active(*grp))
            .map(|(v, m, _)| (*v, m.clone()))
            .collect();
        // Lemma 17: a receiver hears its own cluster, which speaks only
        // when active, so it listens only then.
        let listening: Vec<usize> = (0..receivers.len())
            .filter(|&i| got[i].is_none() && active(receivers[i].1))
            .collect();
        if s.is_empty() && listening.is_empty() {
            sim.skip(sr.round_slots());
            continue;
        }
        let r: Vec<NodeId> = listening.iter().map(|&i| receivers[i].0).collect();
        let res = sr.run(sim, &s, &r, rngs);
        for (&i, m) in listening.iter().zip(res) {
            if let Some(m) = m.filter(|m| accept(m, receivers[i].1)) {
                got[i] = Some(m);
            }
        }
    }
    receivers
        .iter()
        .zip(got)
        .filter_map(|((v, _), m)| m.map(|m| (*v, m)))
        .collect()
}

/// Parameters of one cluster-graph Partition iteration.
#[derive(Debug, Clone)]
pub struct IterateConfig {
    /// The shift parameter β.
    pub beta: f64,
    /// Public bound on the number of distinct neighboring clusters
    /// (Lemma 14(2): `O(log_{1/3β} n)` after the first iteration).
    pub c_bound: u32,
    /// Public bound on the number of layers of the current labeling.
    pub layer_bound: u32,
    /// Sub-rounds per intra-cluster SR sweep (`Θ(C log n)` for w.h.p. —
    /// Lemma 17 needs a sub-round in which the receiver's own cluster is
    /// active and its ≤ C interfering neighbors are not).
    pub sub_rounds: u32,
}

impl IterateConfig {
    /// The Lemma 17 sub-round count for `c_bound` neighboring clusters on
    /// an `n`-vertex graph: `Θ(C log n)`.
    pub fn default_sub_rounds(c_bound: u32, n: usize) -> u32 {
        2 * c_bound * crate::util::ceil_log2(n.max(2)) + 8
    }
}

/// Runs one Partition(β) iteration on the cluster graph of `state`,
/// merging clusters into super-clusters and re-rooting labels per §6.4.
pub fn iterate_partition(
    sim: &mut Sim,
    state: &ClusterState,
    cfg: &IterateConfig,
    sr: &Sr,
    rngs: &mut NodeRngs,
    iter_tag: u64,
) -> ClusterState {
    let n = state.cid.len();
    let epochs = ((2.0 * ceil_log2(n.max(2)) as f64) / cfg.beta).ceil() as u64;
    // Shared cluster randomness: every member derives its cluster's start
    // epoch locally — no communication needed (§6.2).
    let shared_seed = sim.seed();
    let start_of = move |cid: u64| -> u64 {
        let mut rng = cluster_rng(shared_seed ^ iter_tag, cid as usize, 0);
        let d = sample_exponential(&mut rng, cfg.beta).ceil() as u64;
        epochs.saturating_sub(d).max(1)
    };
    // Per-vertex super-cluster assignment being built.
    let mut scid: Vec<Option<u64>> = vec![None; n];
    let mut slab: Vec<Option<u32>> = vec![None; n];
    // Bucket members by (old) layer once; the old labeling is fixed.
    let lb = cfg.layer_bound.max(1) as usize;
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); lb];
    for v in 0..n {
        buckets[(state.labeling.label(v) as usize).min(lb - 1)].push(v);
    }
    for t in 1..=epochs {
        // Self-activation: unmerged clusters whose start epoch arrived
        // become super-cluster centers; members keep their labels.
        for v in 0..n {
            if scid[v].is_none() && start_of(state.cid[v]) == t {
                scid[v] = Some(state.cid[v]);
                slab[v] = Some(state.labeling.label(v));
            }
        }
        // Inter-cluster offers: one plain SR round (any offer serves).
        let senders: Vec<(NodeId, CMsg)> = (0..n)
            .filter_map(|v| {
                scid[v].map(|c| {
                    (
                        v,
                        CMsg::Offer {
                            scid: c,
                            slayer: slab[v].expect("labeled with scid"),
                        },
                    )
                })
            })
            .collect();
        let receivers: Vec<NodeId> = (0..n).filter(|&v| scid[v].is_none()).collect();
        let offers = sr_round(sim, sr, senders, receivers, rngs);
        // pending[v] = (scid, my would-be layer).
        let mut pending: std::collections::HashMap<NodeId, (u64, u32)> = Default::default();
        for (v, m) in offers {
            if let CMsg::Offer { scid: c, slayer } = m {
                pending.insert(v, (c, slayer + 1));
            }
        }
        // Election: candidates rise to the old cluster root (§6.4 step 1),
        // which re-announces the winner downward. Messages are filtered by
        // the old cluster id.
        let mut cand: Vec<Option<(NodeId, u64, u32)>> = vec![None; n];
        for (&v, &(c, l)) in &pending {
            cand[v] = Some((v, c, l));
        }
        for i in (1..lb).rev() {
            let s: Vec<(NodeId, CMsg, u64)> = buckets[i]
                .iter()
                .filter_map(|&v| {
                    cand[v].map(|(vs, c, l)| {
                        (
                            v,
                            CMsg::Cand {
                                cid: state.cid[v],
                                vstar: vs,
                                scid: c,
                                slayer: l,
                            },
                            state.cid[v],
                        )
                    })
                })
                .collect();
            let r: Vec<(NodeId, u64)> = buckets[i - 1]
                .iter()
                .filter(|&&v| scid[v].is_none())
                .map(|&v| (v, state.cid[v]))
                .collect();
            for (v, m) in subsampled_sr(
                sim,
                sr,
                &s,
                &r,
                |m, key| matches!(m, CMsg::Cand { cid, .. } if *cid == key),
                cfg.c_bound,
                cfg.sub_rounds,
                iter_tag ^ (t << 8) ^ (i as u64) << 20,
                rngs,
            ) {
                if let CMsg::Cand {
                    vstar,
                    scid,
                    slayer,
                    ..
                } = m
                {
                    // Keep the first candidate heard (roots pick any one).
                    if cand[v].is_none() {
                        cand[v] = Some((vstar, scid, slayer));
                    }
                }
            }
        }
        // Announce down from the root: the root's candidate wins.
        let mut winner: Vec<Option<(NodeId, u64, u32)>> = vec![None; n];
        for &v in &buckets[0] {
            if scid[v].is_none() {
                winner[v] = cand[v];
            }
        }
        for i in 0..lb - 1 {
            let s: Vec<(NodeId, CMsg, u64)> = buckets[i]
                .iter()
                .filter_map(|&v| {
                    winner[v].map(|(vs, c, l)| {
                        (
                            v,
                            CMsg::Cand {
                                cid: state.cid[v],
                                vstar: vs,
                                scid: c,
                                slayer: l,
                            },
                            state.cid[v],
                        )
                    })
                })
                .collect();
            let r: Vec<(NodeId, u64)> = buckets[i + 1]
                .iter()
                .filter(|&&v| scid[v].is_none())
                .map(|&v| (v, state.cid[v]))
                .collect();
            for (v, m) in subsampled_sr(
                sim,
                sr,
                &s,
                &r,
                |m, key| matches!(m, CMsg::Cand { cid, .. } if *cid == key),
                cfg.c_bound,
                cfg.sub_rounds,
                iter_tag ^ (t << 8) ^ (i as u64) << 20 ^ 0xa,
                rngs,
            ) {
                if let CMsg::Cand {
                    vstar,
                    scid,
                    slayer,
                    ..
                } = m
                {
                    winner[v] = Some((vstar, scid, slayer));
                }
            }
        }
        // Re-rooting (§6.4 step 2): v* adopts its offered layer, labels
        // ascend to the old root, then descend to everyone else.
        let mut newlab: Vec<Option<(u64, u32)>> = vec![None; n];
        for v in 0..n {
            if let Some((vs, c, l)) = winner[v] {
                if vs == v && scid[v].is_none() && pending.get(&v).map(|&(pc, _)| pc) == Some(c) {
                    newlab[v] = Some((c, l));
                }
            }
        }
        let relabel_pass = |sim: &mut Sim,
                            newlab: &mut Vec<Option<(u64, u32)>>,
                            rngs: &mut NodeRngs,
                            upward: bool,
                            tag: u64| {
            let range: Vec<usize> = if upward {
                (1..lb).rev().collect()
            } else {
                (0..lb - 1).collect()
            };
            for i in range {
                let target = if upward { i - 1 } else { i + 1 };
                let s: Vec<(NodeId, CMsg, u64)> = buckets[i]
                    .iter()
                    .filter_map(|&v| {
                        newlab[v].map(|(_, l)| {
                            (
                                v,
                                CMsg::Lab {
                                    cid: state.cid[v],
                                    label: l,
                                },
                                state.cid[v],
                            )
                        })
                    })
                    .collect();
                let r: Vec<(NodeId, u64)> = buckets[target]
                    .iter()
                    .filter(|&&v| scid[v].is_none() && newlab[v].is_none() && winner[v].is_some())
                    .map(|&v| (v, state.cid[v]))
                    .collect();
                for (v, m) in subsampled_sr(
                    sim,
                    sr,
                    &s,
                    &r,
                    |m, key| matches!(m, CMsg::Lab { cid, .. } if *cid == key),
                    cfg.c_bound,
                    cfg.sub_rounds,
                    tag ^ (i as u64) << 20,
                    rngs,
                ) {
                    if let CMsg::Lab { label, .. } = m {
                        let c = winner[v].expect("receiver filtered").1;
                        newlab[v] = Some((c, label + 1));
                    }
                }
            }
        };
        relabel_pass(sim, &mut newlab, rngs, true, iter_tag ^ (t << 8) ^ 0xb);
        relabel_pass(sim, &mut newlab, rngs, false, iter_tag ^ (t << 8) ^ 0xc);
        for v in 0..n {
            if let Some((c, l)) = newlab[v] {
                scid[v] = Some(c);
                slab[v] = Some(l);
            }
        }
    }
    // Fallback (never needed when all SR rounds succeed): retain the old
    // structure for any vertex the w.h.p. guarantees missed.
    let cid: Vec<u64> = (0..n).map(|v| scid[v].unwrap_or(state.cid[v])).collect();
    let labels: Vec<u32> = (0..n)
        .map(|v| slab[v].unwrap_or_else(|| state.labeling.label(v)))
        .collect();
    ClusterState {
        cid,
        labeling: Labeling::from_labels(labels),
    }
}

/// Theorem 16's time/energy tradeoff parameter ε: `β = 1/log^{1/ε} n`.
/// Larger ε → larger β → fewer, cheaper iterations but slower diameter
/// decay.
const THEOREM16_EPSILON: f64 = 0.5;

/// Theorem 16: `O(D^{1+ε} polylog n)`-time, `polylog n`-energy broadcast in
/// No-CD (or any model, using that model's SR strategy).
///
/// Phase 1 iterates Partition(β) — first on the flat graph, then on the
/// cluster graph — for `log_{1/3β} D` iterations, until the cluster-graph
/// diameter bound drops below the `O(log² n / β⁴)` floor of Lemma 15;
/// phase 2 runs Lemma 10's broadcast on the final labeling.
///
/// `beta` pins Partition's β (clamped to `[0.02, 0.45]`) and lowers the
/// diameter floor to the practical `4 log n`, for ablation runs; `None`
/// derives `β = 1/log^{1/ε} n` with ε = 1/2.
pub fn broadcast_theorem16(sim: &mut Sim, source: NodeId, beta: Option<f64>) -> BroadcastOutcome {
    let pinned = beta.is_some();
    let n = sim.graph().n();
    let logn = ceil_log2(n.max(2)) as f64;
    let beta = beta
        .unwrap_or_else(|| logn.powf(-1.0 / THEOREM16_EPSILON))
        .clamp(0.02, 0.45);
    let delta = sim.graph().max_degree().max(1);
    let sr = crate::randomized::default_sr_for(sim.model(), delta, n);
    let d = sim
        .graph()
        .diameter_double_sweep()
        .expect("graph must be connected") as f64;
    // Diameter shrinks by 3β per iteration until the Lemma 15 floor. The
    // paper's floor is O(log²n/β⁴) — astronomically conservative at
    // simulable sizes — so when the caller pins β explicitly (ablation
    // mode) we use the practical floor 4 log n instead.
    let floor = if pinned {
        (4.0 * logn).max(4.0)
    } else {
        (4.0 * logn / beta).max(4.0)
    };
    let mut iters = 0u32;
    let mut cur = d;
    while cur > floor && 3.0 * beta < 0.95 && iters < 24 {
        cur *= 3.0 * beta;
        iters += 1;
    }
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x5e16);
    let mut state = if iters == 0 {
        ClusterState::trivial(n)
    } else {
        sim.span_enter("partition");
        let s = partition_beta(sim, beta, &sr, &mut rngs);
        sim.span_exit();
        s
    };
    // Public parameter evolution: layer bound multiplies by ~4 log n / β
    // per iteration (§6.1), capped at n (labels are path lengths); C is the
    // Lemma 14(2) bound after the first iteration.
    let epoch_layers = ((2.0 * logn) / beta).ceil() as u32;
    let mut layer_bound = epoch_layers.min(n as u32).max(2);
    let c_bound = ((2.0 * logn / (1.0 / (3.0 * beta)).log2().max(0.3)).ceil() as u32).max(2);
    for k in 1..iters {
        let icfg = IterateConfig {
            beta,
            c_bound,
            layer_bound,
            sub_rounds: IterateConfig::default_sub_rounds(c_bound, n),
        };
        sim.span_enter("iterate");
        state = iterate_partition(sim, &state, &icfg, &sr, &mut rngs, 0x17e4 + u64::from(k));
        sim.span_exit();
        layer_bound = layer_bound
            .saturating_mul(4 * epoch_layers.max(1))
            .min(n as u32)
            .max(2);
    }
    // Phase 2: Lemma 10 over the final labeling. The d bound is the
    // cluster-graph diameter bound after shrinkage.
    let mut d_bound = d;
    for _ in 0..iters.saturating_sub(1) {
        d_bound = (d_bound * 3.0 * beta).max(1.0);
    }
    let d_bound = (d_bound.ceil() as u32).max(1).min(n as u32) + 2;
    let final_layer_bound = (state.labeling.max_label() + 1).max(2).min(n as u32);
    sim.span_enter("broadcast");
    let out = broadcast_with_labeling(
        sim,
        &state.labeling,
        source,
        final_layer_bound,
        d_bound,
        &sr,
        &mut rngs,
    );
    sim.span_exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, grid, path};
    use ebc_radio::Model;

    fn setup(g: ebc_radio::Graph, seed: u64) -> (Sim, NodeRngs) {
        let n = g.n();
        (Sim::new(g, Model::Local, seed), NodeRngs::new(seed, n, 30))
    }

    #[test]
    fn partition_assigns_everyone_with_valid_structure() {
        for seed in 0..5u64 {
            let g = cycle(64);
            let (mut sim, mut rngs) = setup(g.clone(), seed);
            let st = partition_beta(&mut sim, 0.25, &Sr::Local, &mut rngs);
            assert!(st.is_valid(&g), "seed {seed}");
            assert!(st.labeling.is_good(&g), "seed {seed}");
            assert!(st.cluster_count() >= 1);
        }
    }

    #[test]
    fn partition_edge_cut_scales_with_beta() {
        // Lemma 14(1): cut probability ≤ 2β. Average over seeds with slack.
        let g = cycle(256);
        for &beta in &[0.1f64, 0.3] {
            let mut total = 0.0;
            let runs = 10;
            for seed in 0..runs {
                let (mut sim, mut rngs) = setup(g.clone(), seed);
                let st = partition_beta(&mut sim, beta, &Sr::Local, &mut rngs);
                total += st.edge_cut_fraction(&g);
            }
            let avg = total / runs as f64;
            assert!(avg <= 2.5 * beta + 0.05, "β={beta}: cut fraction {avg}");
        }
    }

    #[test]
    fn partition_cluster_radius_bounded_by_epochs() {
        let g = path(128);
        let (mut sim, mut rngs) = setup(g.clone(), 3);
        let beta = 0.2;
        let st = partition_beta(&mut sim, beta, &Sr::Local, &mut rngs);
        let epochs = (2.0 * ceil_log2(128) as f64 / beta).ceil() as u32;
        assert!(st.labeling.max_label() <= epochs);
    }

    #[test]
    fn partition_shrinks_cluster_graph_diameter() {
        // Lemma 15 direction: the cluster graph is much smaller than G.
        let g = cycle(256);
        let (mut sim, mut rngs) = setup(g.clone(), 7);
        let st = partition_beta(&mut sim, 0.25, &Sr::Local, &mut rngs);
        let (cg, _) = st.cluster_graph(&g);
        let d0 = g.diameter_exact().unwrap();
        let d1 = cg.diameter_exact().unwrap();
        assert!(
            f64::from(d1) <= 0.9 * f64::from(d0),
            "cluster graph diameter {d1} vs {d0}"
        );
    }

    #[test]
    fn iterate_partition_merges_clusters() {
        let g = cycle(64);
        let (mut sim, mut rngs) = setup(g.clone(), 11);
        let st = partition_beta(&mut sim, 0.3, &Sr::Local, &mut rngs);
        let before = st.cluster_count();
        let cfg = IterateConfig {
            beta: 0.3,
            c_bound: 4,
            layer_bound: st.labeling.max_label() + 40,
            sub_rounds: IterateConfig::default_sub_rounds(4, 64),
        };
        let st2 = iterate_partition(&mut sim, &st, &cfg, &Sr::Local, &mut rngs, 99);
        assert!(st2.is_valid(&g), "invalid after merge");
        let after = st2.cluster_count();
        assert!(after <= before, "{after} > {before}");
    }

    #[test]
    fn theorem16_informs_everyone_on_grid() {
        for seed in 0..2u64 {
            let g = grid(8, 8);
            let mut sim = Sim::new(g, Model::Local, seed);
            let out = broadcast_theorem16(&mut sim, 0, None);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn theorem16_informs_everyone_nocd() {
        let g = grid(6, 6);
        let mut sim = Sim::new(g, Model::NoCd, 5);
        let out = broadcast_theorem16(&mut sim, 3, None);
        assert!(out.all_informed());
    }

    #[test]
    fn theorem16_beta_override_controls_iterations() {
        let g = cycle(128);
        let mut sim = Sim::new(g, Model::Local, 9);
        let out = broadcast_theorem16(&mut sim, 0, Some(0.3));
        assert!(out.all_informed());
    }

    #[test]
    fn trivial_state_is_valid() {
        let g = path(10);
        let st = ClusterState::trivial(10);
        assert!(st.is_valid(&g));
        assert_eq!(st.cluster_count(), 10);
        assert_eq!(st.edge_cut_fraction(&g), 1.0);
    }

    #[test]
    fn cluster_graph_contracts_correctly() {
        let g = path(4);
        let st = ClusterState {
            cid: vec![0, 0, 3, 3],
            labeling: Labeling::from_labels(vec![0, 1, 1, 0]),
        };
        assert!(st.is_valid(&g));
        let (cg, of) = st.cluster_graph(&g);
        assert_eq!(cg.n(), 2);
        assert_eq!(cg.m(), 1);
        assert_eq!(of[0], of[1]);
        assert_ne!(of[1], of[2]);
    }
}
