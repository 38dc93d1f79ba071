//! Theorem 27: deterministic broadcast in the CD model.
//!
//! Iterative clustering where each iteration computes a `(2, log N)`-ruling
//! set of the cluster graph by the *sequential* prefix recursion of
//! Lemma 26 (CD allows only one prefix class to talk at a time), then
//! merges every cluster into a nearby ruling cluster, re-rooting trees per
//! §6.4. All communication uses Lemma 24's deterministic SR-communication
//! and the Appendix A.3 cluster structure: each within-cluster sweep
//! reserves one time interval per vertex ID, so a child only ever listens
//! in its own parent's interval — no two clusters interfere, ever.
//!
//! Costs match the paper's Theorem 27 shape: the slot clock grows
//! polynomially large (the paper's time bound is `O(n N² log n log N)`),
//! while per-vertex energy stays polylogarithmic (`O(log³ N log n)`).

use ebc_radio::{Model, NodeId, Schedule, Sim, SparseSchedule};

use crate::labeling::Labeling;
use crate::srcomm::det_sr;
use crate::util::ceil_log2;
use crate::BroadcastOutcome;

/// The Appendix A.3 deterministic cluster structure.
#[derive(Debug, Clone)]
pub struct DetClusterState {
    /// Cluster id per vertex (= the root's ID).
    pub cid: Vec<u64>,
    /// Within-cluster layers (root = 0).
    pub labeling: Labeling,
    /// Designated parent (a same-cluster neighbor one layer down).
    pub parent: Vec<Option<NodeId>>,
}

impl DetClusterState {
    /// The initial state: every vertex its own singleton cluster.
    pub fn initial(ids: &[u64]) -> Self {
        DetClusterState {
            cid: ids.to_vec(),
            labeling: Labeling::all_zero(ids.len()),
            parent: vec![None; ids.len()],
        }
    }

    /// Number of distinct clusters.
    pub fn cluster_count(&self) -> usize {
        let mut c = self.cid.clone();
        c.sort_unstable();
        c.dedup();
        c.len()
    }

    /// Validity: each positive-layer vertex's parent is a same-cluster
    /// neighbor one layer down.
    pub fn is_valid(&self, g: &ebc_radio::Graph) -> bool {
        (0..g.n()).all(|v| match self.parent[v] {
            None => self.labeling.label(v) == 0,
            Some(p) => {
                g.has_edge(v, p)
                    && self.cid[p] == self.cid[v]
                    && self.labeling.label(p) + 1 == self.labeling.label(v)
            }
        })
    }

    fn children(&self) -> Vec<Vec<NodeId>> {
        let n = self.cid.len();
        let mut ch: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = self.parent[v] {
                ch[p].push(v);
            }
        }
        ch
    }

    pub(crate) fn max_layer(&self) -> u32 {
        self.labeling.max_label()
    }
}

/// Packs fixed-width fields into `u64` Lemma 24 messages. Field 0 is the
/// most significant, so `det_sr`'s minimum orders by field 0 first.
#[derive(Debug, Clone)]
struct Packer {
    widths: Vec<u32>,
}

impl Packer {
    fn new(widths: &[u32]) -> Self {
        assert!(widths.iter().sum::<u32>() <= 62);
        Packer {
            widths: widths.to_vec(),
        }
    }
    fn pack(&self, vals: &[u64]) -> u64 {
        assert_eq!(vals.len(), self.widths.len());
        let mut m = 0u64;
        for (v, &w) in vals.iter().zip(&self.widths) {
            debug_assert!(*v < (1u64 << w), "field {v} exceeds {w} bits");
            m = (m << w) | v;
        }
        m
    }
    fn unpack(&self, mut m: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.widths.len()];
        for (slot, &w) in out.iter_mut().zip(&self.widths).rev() {
            *slot = m & ((1u64 << w) - 1);
            m >>= w;
        }
        out
    }
    fn space(&self) -> u64 {
        1u64 << self.widths.iter().sum::<u32>()
    }
}

/// One downward sweep (A.3 `Downward transmission`): for each layer and
/// each ID interval, the parent with that ID transmits and exactly its
/// children listen — collision-free by construction, zero failure
/// probability. `fold(msgs, child, m)` runs as receptions happen, so a
/// message injected at the root reaches every leaf within one sweep.
fn down_sweep(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
    msgs: &mut Vec<Option<u64>>,
    mut fold: impl FnMut(&mut Vec<Option<u64>>, NodeId, u64),
) {
    let n = st.cid.len();
    let children = st.children();
    let max_layer = st.max_layer();
    for layer in 0..=max_layer {
        // One sparse schedule per layer: parent `v` owns the reserved slot
        // `ids[v] − 1` of the layer's N-slot block, its children listen
        // there, and the engine batch-skips the other N − |parents| slots.
        // Parents sit at `layer`, receivers at `layer + 1`, so receptions
        // within one layer never feed later transmissions of the same
        // layer and can fold after the block.
        let mut active: Vec<NodeId> = (0..n)
            .filter(|&v| st.labeling.label(v) == layer && !children[v].is_empty())
            .collect();
        active.sort_by_key(|&v| ids[v]);
        let mut schedule = SparseSchedule::new();
        let mut parent_at: std::collections::HashMap<u64, NodeId> = Default::default();
        for &v in &active {
            let slot = ids[v] - 1;
            parent_at.insert(slot, v);
            schedule.push(slot, std::iter::once(v).chain(children[v].iter().copied()));
        }
        let mut received: Vec<(NodeId, u64)> = Vec::new();
        let msgs_now: &Vec<Option<u64>> = msgs;
        let mut behavior = ebc_radio::from_fns(
            |u, t| {
                if parent_at.get(&t) == Some(&u) {
                    match msgs_now[u] {
                        Some(m) => ebc_radio::Action::Send(m),
                        None => ebc_radio::Action::Idle,
                    }
                } else {
                    ebc_radio::Action::Listen
                }
            },
            |u, _t, fb: ebc_radio::Feedback<u64>| {
                if let ebc_radio::Feedback::One(m) = fb {
                    received.push((u, m));
                }
            },
        );
        sim.drive(
            Schedule::Sparse {
                schedule: &schedule,
                slots: id_space,
            },
            &mut behavior,
        );
        drop(behavior);
        for (r, m) in received {
            fold(msgs, r, m);
        }
    }
}

/// One upward sweep (A.3 `Upward transmission`): for each layer (deepest
/// parents first... processed root-ward) and each ID interval, the children
/// of the interval's owner run Lemma 24 SR-communication toward it; the
/// parent learns the *minimum* message among its children. `fold` fires on
/// reception, so a leaf's message reaches the root within one sweep.
fn up_sweep(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
    msg_space: u64,
    msgs: &mut Vec<Option<u64>>,
    mut fold: impl FnMut(&mut Vec<Option<u64>>, NodeId, u64),
) {
    let n = st.cid.len();
    let children = st.children();
    let max_layer = st.max_layer();
    let sr_slots = det_sr_slots(msg_space);
    for layer in (0..=max_layer).rev() {
        let mut active: Vec<NodeId> = (0..n)
            .filter(|&v| st.labeling.label(v) == layer && !children[v].is_empty())
            .collect();
        active.sort_by_key(|&v| ids[v]);
        let mut consumed = 0u64;
        for &v in &active {
            sim.skip((ids[v] - 1 - consumed) * sr_slots);
            consumed = ids[v];
            let senders: Vec<(NodeId, u64)> = children[v]
                .iter()
                .filter_map(|&c| msgs[c].map(|m| (c, m)))
                .collect();
            let got = det_sr(sim, &senders, &[v], msg_space);
            if let Some(m) = got[0] {
                fold(msgs, v, m);
            }
        }
        sim.skip((id_space - consumed) * sr_slots);
    }
}

/// Slots one Lemma 24 invocation takes (for clock-accurate skipping).
fn det_sr_slots(msg_space: u64) -> u64 {
    let bits = if msg_space <= 1 {
        1
    } else {
        ceil_log2(msg_space as usize)
    };
    (2u64 << bits) - 2
}

/// The Lemma 26 `(2, log N)`-ruling set over the cluster graph, sequential
/// prefix recursion. Returns the ruling clusters' ids.
fn ruling_set_cd(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
) -> std::collections::HashSet<u64> {
    let n = st.cid.len();
    let bits = ceil_log2((id_space + 1) as usize).max(1);
    let mut roots: Vec<u64> = st.cid.clone();
    roots.sort_unstable();
    roots.dedup();
    let mut alive: std::collections::HashSet<u64> = roots.iter().copied().collect();
    for j in 0..bits {
        let mut prefixes: Vec<u64> = roots.iter().map(|c| c >> (j + 1)).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        for p in prefixes {
            let side = |c: u64| (c >> j) & 1;
            let in_class = |c: u64| c >> (j + 1) == p;
            let zero_side: std::collections::HashSet<u64> = alive
                .iter()
                .copied()
                .filter(|&c| in_class(c) && side(c) == 0)
                .collect();
            let one_side: std::collections::HashSet<u64> = alive
                .iter()
                .copied()
                .filter(|&c| in_class(c) && side(c) == 1)
                .collect();
            if zero_side.is_empty() || one_side.is_empty() {
                // Nothing to merge; the public schedule still passes.
                sim.skip(
                    det_sr_slots(2)
                        + (st.max_layer() as u64 + 1) * id_space * (det_sr_slots(2) + 1),
                );
                continue;
            }
            // Beep: 0-side members transmit, 1-side members listen.
            let senders: Vec<(NodeId, u64)> = (0..n)
                .filter(|&v| zero_side.contains(&st.cid[v]))
                .map(|v| (v, 1))
                .collect();
            let receivers: Vec<NodeId> =
                (0..n).filter(|&v| one_side.contains(&st.cid[v])).collect();
            let heard = det_sr(sim, &senders, &receivers, 2);
            // OR-convergecast within each 1-side cluster.
            let mut msgs: Vec<Option<u64>> = vec![None; n];
            for (i, &v) in receivers.iter().enumerate() {
                if heard[i].is_some() {
                    msgs[v] = Some(1);
                }
            }
            up_sweep(sim, st, ids, id_space, 2, &mut msgs, |msgs, v, _m| {
                msgs[v] = Some(1);
            });
            for (v, m) in msgs.iter().enumerate() {
                if st.labeling.label(v) == 0 && one_side.contains(&st.cid[v]) && *m == Some(1) {
                    alive.remove(&st.cid[v]);
                }
            }
            // Downward announce keeps members' aliveness in sync (content
            // tracked host-side; slots and energy charged faithfully).
            let mut announce: Vec<Option<u64>> = (0..n)
                .map(|v| {
                    (st.labeling.label(v) == 0 && in_class(st.cid[v]))
                        .then_some(u64::from(alive.contains(&st.cid[v])))
                })
                .collect();
            down_sweep(sim, st, ids, id_space, &mut announce, |msgs, v, m| {
                msgs[v] = Some(m);
            });
        }
    }
    alive
}

/// Parameters of the Theorem 27 driver.
#[derive(Debug, Clone, Default)]
pub struct DetCdConfig {
    /// Distinct IDs in `{1, …, id_space}`; `None` → `v + 1`.
    pub ids: Option<Vec<u64>>,
    /// The ID space bound `N`; `None` → `n`.
    pub id_space: Option<u64>,
}

/// Theorem 27: deterministic CD broadcast via iterated ruling-set
/// clustering. Zero failure probability.
///
/// # Panics
///
/// Panics if the model lacks collision detection or the IDs are invalid.
pub fn broadcast_det_cd(sim: &mut Sim, source: NodeId, cfg: &DetCdConfig) -> BroadcastOutcome {
    assert!(
        matches!(sim.model(), Model::Cd | Model::CdStar),
        "Theorem 27 is a CD algorithm"
    );
    let n = sim.graph().n();
    let ids: Vec<u64> = cfg
        .ids
        .clone()
        .unwrap_or_else(|| (0..n).map(|v| v as u64 + 1).collect());
    let id_space = cfg.id_space.unwrap_or(n as u64);
    {
        let mut seen = std::collections::HashSet::new();
        for &id in &ids {
            assert!(
                (1..=id_space).contains(&id),
                "ID {id} outside 1..={id_space}"
            );
            assert!(seen.insert(id), "duplicate ID {id}");
        }
    }
    let vertex_of_id: std::collections::HashMap<u64, NodeId> =
        ids.iter().enumerate().map(|(v, &id)| (id, v)).collect();
    let mut st = DetClusterState::initial(&ids);
    let iters = ceil_log2(n.max(2)) + 2;
    for _ in 0..iters {
        if st.cluster_count() == 1 {
            break;
        }
        sim.span_enter("ruling_set");
        let ruling = ruling_set_cd(sim, &st, &ids, id_space);
        sim.span_exit();
        sim.span_enter("merge");
        st = merge_into_ruling(sim, &st, &ids, id_space, &ruling, &vertex_of_id);
        sim.span_exit();
        if sim.telemetry_enabled() {
            sim.record_gauge("clusters", sim.now(), st.cluster_count() as f64);
        }
        // Validity is a clean-channel invariant; under an active fault
        // plan merges can misfire and leave a degraded (but bounded)
        // state.
        debug_assert!(
            sim.fault_state().is_some() || st.is_valid(sim.graph()),
            "invalid state after merge"
        );
    }
    sim.span_enter("broadcast");
    let out = det_broadcast_final(sim, &st, &ids, id_space, source);
    sim.span_exit();
    out
}

/// The A.2 merging procedure: every non-ruling cluster is absorbed over
/// `2⌈log N⌉ + 2` offer/elect/re-root rounds (the ruling set dominates
/// within `log N` cluster hops); a final pass folds singleton ruling
/// clusters into a neighbor so the cluster count at least halves.
fn merge_into_ruling(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
    ruling: &std::collections::HashSet<u64>,
    vertex_of_id: &std::collections::HashMap<u64, NodeId>,
) -> DetClusterState {
    let n = st.cid.len();
    let bits_id = ceil_log2((id_space + 1) as usize).max(1);
    let bits_lab = ceil_log2(2 * n + 4) + 1;
    // Offer: [scid, layer, sender-id] (min = lowest scid; any offer works).
    let offer_p = Packer::new(&[bits_id, bits_lab, bits_id]);
    // Candidate/announce: [layer, v*-id, scid] (min = shallowest offer).
    let cand_p = Packer::new(&[bits_lab, bits_id, bits_id]);
    // Label: [label, sender-id].
    let lab_p = Packer::new(&[bits_lab, bits_id]);

    let mut scid: Vec<Option<u64>> = (0..n)
        .map(|v| ruling.contains(&st.cid[v]).then_some(st.cid[v]))
        .collect();
    let mut newlab: Vec<u32> = (0..n).map(|v| st.labeling.label(v)).collect();
    let mut newpar: Vec<Option<NodeId>> = st.parent.clone();
    let rounds = 2 * ceil_log2((id_space + 1) as usize) + 2;
    for _ in 0..rounds {
        let receivers: Vec<NodeId> = (0..n).filter(|&v| scid[v].is_none()).collect();
        if receivers.is_empty() {
            break;
        }
        run_merge_round(
            sim,
            st,
            ids,
            id_space,
            &offer_p,
            &cand_p,
            &lab_p,
            vertex_of_id,
            &mut scid,
            &mut newlab,
            &mut newpar,
            None,
        );
    }
    // Singleton pass: ruling clusters that absorbed nobody re-merge into a
    // non-singleton neighbor (A.2's size-1 fix; singletons are pairwise
    // non-adjacent because the ruling set is independent).
    let mut absorbed: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        Default::default();
    for (v, sc) in scid.iter().enumerate() {
        if let Some(c) = *sc {
            absorbed.entry(c).or_default().insert(st.cid[v]);
        }
    }
    let singletons: std::collections::HashSet<u64> = absorbed
        .iter()
        .filter(|(_, olds)| olds.len() == 1)
        .map(|(&c, _)| c)
        .collect();
    if !singletons.is_empty() && absorbed.len() > singletons.len() {
        for sc in scid.iter_mut() {
            if sc.map(|c| singletons.contains(&c)) == Some(true) {
                *sc = None;
            }
        }
        run_merge_round(
            sim,
            st,
            ids,
            id_space,
            &offer_p,
            &cand_p,
            &lab_p,
            vertex_of_id,
            &mut scid,
            &mut newlab,
            &mut newpar,
            Some(&singletons),
        );
    }
    DetClusterState {
        cid: (0..n).map(|v| scid[v].unwrap_or(st.cid[v])).collect(),
        labeling: Labeling::from_labels(newlab),
        parent: newpar,
    }
}

/// One offer → elect → announce → re-root round over the old trees.
#[allow(clippy::too_many_arguments)]
fn run_merge_round(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
    offer_p: &Packer,
    cand_p: &Packer,
    lab_p: &Packer,
    vertex_of_id: &std::collections::HashMap<u64, NodeId>,
    scid: &mut [Option<u64>],
    newlab: &mut [u32],
    newpar: &mut [Option<NodeId>],
    exclude_senders: Option<&std::collections::HashSet<u64>>,
) {
    let n = st.cid.len();
    // Offers from absorbed vertices to unabsorbed ones.
    let senders: Vec<(NodeId, u64)> = (0..n)
        .filter_map(|v| {
            let c = scid[v]?;
            if let Some(excl) = exclude_senders {
                if excl.contains(&c) {
                    return None;
                }
            }
            Some((v, offer_p.pack(&[c, u64::from(newlab[v]), ids[v]])))
        })
        .collect();
    let receivers: Vec<NodeId> = (0..n).filter(|&v| scid[v].is_none()).collect();
    let got = det_sr(sim, &senders, &receivers, offer_p.space());
    let mut pending: Vec<Option<(u64, u32, NodeId)>> = vec![None; n];
    for (i, &v) in receivers.iter().enumerate() {
        if let Some(m) = got[i] {
            let f = offer_p.unpack(m);
            // Under fault injection a jammed slot reads as occupied, so
            // det_sr can assemble a value nobody sent; an offer whose
            // sender id does not resolve is dropped like a lost message.
            if let Some(&phi) = vertex_of_id.get(&f[2]) {
                pending[v] = Some((f[0], f[1] as u32 + 1, phi));
            }
        }
    }
    // Elect v* per cluster: convergecast the minimum candidate.
    let mut msgs: Vec<Option<u64>> = vec![None; n];
    for v in 0..n {
        if let Some((c, l, _)) = pending[v] {
            msgs[v] = Some(cand_p.pack(&[u64::from(l), ids[v], c]));
        }
    }
    up_sweep(
        sim,
        st,
        ids,
        id_space,
        cand_p.space(),
        &mut msgs,
        |msgs, v, m| {
            msgs[v] = Some(match msgs[v] {
                Some(old) => old.min(m),
                None => m,
            });
        },
    );
    // Roots announce the winner; one fold-down sweep reaches every member.
    let mut announced: Vec<Option<u64>> = (0..n)
        .map(|v| {
            if st.labeling.label(v) == 0 && scid[v].is_none() {
                msgs[v]
            } else {
                None
            }
        })
        .collect();
    down_sweep(sim, st, ids, id_space, &mut announced, |msgs, v, m| {
        msgs[v] = Some(m);
    });
    // Re-root: v* adopts its pending offer; labels climb to the old root
    // (re-parenting along the way), then descend to everyone else.
    let mut labmsg: Vec<Option<u64>> = vec![None; n];
    let mut labeled: Vec<bool> = vec![false; n];
    for v in 0..n {
        if let (Some(w), Some((c, l, phi))) = (announced[v], pending[v]) {
            let f = cand_p.unpack(w);
            if f[1] == ids[v] && f[2] == c {
                scid[v] = Some(c);
                newlab[v] = l;
                newpar[v] = Some(phi);
                labeled[v] = true;
                labmsg[v] = Some(lab_p.pack(&[u64::from(l), ids[v]]));
            }
        }
    }
    {
        let scid_ref: &mut [Option<u64>] = scid;
        let announced_ref = &announced;
        let labeled_ref = &mut labeled;
        up_sweep(
            sim,
            st,
            ids,
            id_space,
            lab_p.space(),
            &mut labmsg,
            |msgs, v, m| {
                if labeled_ref[v] || announced_ref[v].is_none() {
                    return;
                }
                let f = lab_p.unpack(m);
                // Drop labels whose sender id does not resolve (possible
                // only when fault injection corrupts a det_sr exchange).
                let Some(&parent) = vertex_of_id.get(&f[1]) else {
                    return;
                };
                let c = cand_p.unpack(announced_ref[v].expect("checked"))[2];
                scid_ref[v] = Some(c);
                newlab[v] = f[0] as u32 + 1;
                newpar[v] = Some(parent);
                labeled_ref[v] = true;
                msgs[v] = Some(lab_p.pack(&[u64::from(newlab[v]), ids[v]]));
            },
        );
        down_sweep(sim, st, ids, id_space, &mut labmsg, |msgs, v, m| {
            if labeled_ref[v] || announced_ref[v].is_none() {
                return;
            }
            let f = lab_p.unpack(m);
            let c = cand_p.unpack(announced_ref[v].expect("checked"))[2];
            scid_ref[v] = Some(c);
            newlab[v] = f[0] as u32 + 1;
            // The old parent is still a same-cluster neighbor one layer
            // down in the re-rooted tree.
            labeled_ref[v] = true;
            msgs[v] = Some(lab_p.pack(&[u64::from(newlab[v]), ids[v]]));
        });
    }
}

/// Lemma 10 with the deterministic primitives: Up-cast the payload to the
/// roots, Down-cast to every member, plus global All-cast rounds for
/// cross-cluster delivery while more than one cluster remains.
fn det_broadcast_final(
    sim: &mut Sim,
    st: &DetClusterState,
    ids: &[u64],
    id_space: u64,
    source: NodeId,
) -> BroadcastOutcome {
    let n = st.cid.len();
    let mut has: Vec<bool> = vec![false; n];
    has[source] = true;
    for _ in 0..2 {
        let mut msgs: Vec<Option<u64>> = has.iter().map(|&h| h.then_some(1)).collect();
        up_sweep(sim, st, ids, id_space, 2, &mut msgs, |msgs, v, _m| {
            msgs[v] = Some(1);
        });
        down_sweep(sim, st, ids, id_space, &mut msgs, |msgs, v, _m| {
            msgs[v] = Some(1);
        });
        for v in 0..n {
            if msgs[v].is_some() {
                has[v] = true;
            }
        }
        let senders: Vec<(NodeId, u64)> = (0..n).filter(|&v| has[v]).map(|v| (v, 1)).collect();
        let receivers: Vec<NodeId> = (0..n).filter(|&v| !has[v]).collect();
        let got = det_sr(sim, &senders, &receivers, 2);
        for (i, &v) in receivers.iter().enumerate() {
            if got[i].is_some() {
                has[v] = true;
            }
        }
        if has.iter().all(|&h| h) {
            break;
        }
    }
    BroadcastOutcome {
        informed: has,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{cycle, grid, path, star};

    #[test]
    fn initial_state_is_valid() {
        let g = path(5);
        let ids: Vec<u64> = (0..5).map(|v| v as u64 + 1).collect();
        let st = DetClusterState::initial(&ids);
        assert!(st.is_valid(&g));
        assert_eq!(st.cluster_count(), 5);
    }

    #[test]
    fn packer_roundtrip() {
        let p = Packer::new(&[5, 7, 5]);
        let m = p.pack(&[17, 100, 3]);
        assert_eq!(p.unpack(m), vec![17, 100, 3]);
        assert!(m < p.space());
        // Ordering: field 0 dominates.
        assert!(p.pack(&[1, 127, 31]) < p.pack(&[2, 0, 0]));
    }

    #[test]
    fn det_cd_broadcast_on_path() {
        let g = path(12);
        let mut sim = Sim::new(g, Model::Cd, 0);
        let out = broadcast_det_cd(&mut sim, 0, &DetCdConfig::default());
        assert!(out.all_informed());
    }

    #[test]
    fn det_cd_broadcast_on_cycle_and_star() {
        let g = cycle(10);
        let mut sim = Sim::new(g, Model::Cd, 0);
        assert!(broadcast_det_cd(&mut sim, 3, &DetCdConfig::default()).all_informed());
        let g = star(9);
        let mut sim = Sim::new(g, Model::Cd, 0);
        assert!(broadcast_det_cd(&mut sim, 1, &DetCdConfig::default()).all_informed());
    }

    #[test]
    fn det_cd_broadcast_on_grid() {
        let g = grid(4, 4);
        let mut sim = Sim::new(g, Model::Cd, 0);
        let out = broadcast_det_cd(&mut sim, 5, &DetCdConfig::default());
        assert!(out.all_informed());
    }

    #[test]
    fn det_cd_is_deterministic_across_seeds() {
        let g = cycle(8);
        let run = |seed: u64| {
            let mut sim = Sim::new(g.clone(), Model::Cd, seed);
            let out = broadcast_det_cd(&mut sim, 0, &DetCdConfig::default());
            (out.all_informed(), sim.meter().max_energy())
        };
        assert_eq!(run(3), run(12345));
    }

    #[test]
    fn det_cd_energy_polylog() {
        let e = |n: usize| -> u64 {
            let g = cycle(n);
            let mut sim = Sim::new(g, Model::Cd, 0);
            broadcast_det_cd(&mut sim, 0, &DetCdConfig::default());
            sim.meter().max_energy()
        };
        let e16 = e(16);
        let e64 = e(64);
        // Polylog growth: far less than the 4× size increase.
        assert!(
            (e64 as f64) < 6.0 * e16 as f64,
            "energy jumped {e16} → {e64}"
        );
    }

    #[test]
    fn det_cd_respects_permuted_ids() {
        let n = 12;
        let g = cycle(n);
        let ids: Vec<u64> = (0..n).map(|v| ((v * 5) % n) as u64 + 1).collect();
        let mut sim = Sim::new(g, Model::Cd, 0);
        let cfg = DetCdConfig {
            ids: Some(ids),
            id_space: Some(n as u64),
        };
        assert!(broadcast_det_cd(&mut sim, 4, &cfg).all_informed());
    }

    #[test]
    #[should_panic(expected = "CD algorithm")]
    fn det_cd_rejects_local() {
        let g = path(4);
        let mut sim = Sim::new(g, Model::Local, 0);
        broadcast_det_cd(&mut sim, 0, &DetCdConfig::default());
    }
}
