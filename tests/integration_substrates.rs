//! Integration tests for the substrates: the single-hop schedule feeding
//! the multi-hop machinery, the LOCAL-simulation preprocessing, the clustering
//! pipeline, and the executable Theorem 2 reduction.

use ebc_core::cluster::{partition_beta, ClusterState};
use ebc_core::localsim::{build_tdma, is_two_hop_proper, learn_degree, two_hop_coloring};
use ebc_core::reduction::{run_reduction, DecayMiddle, UniformCdMiddle};
use ebc_core::srcomm::{det_sr, Sr};
use ebc_core::util::NodeRngs;
use ebc_graphs::deterministic::{grid, k2k};
use ebc_graphs::random::bounded_degree;
use ebc_radio::{Model, NodeId, Sim};

#[test]
fn single_hop_le_and_multi_hop_sr_share_the_schedule() {
    // The Lemma 8 SR-communication consumes exactly the uniform LE
    // schedule; verify both succeed under the same parameters.
    let delta = 64;
    let le = run_reduction(delta, Model::Cd, |_| UniformCdMiddle::new(delta), 5, 500);
    assert!(le.leader.is_some());

    let g = ebc_graphs::deterministic::star(delta);
    let mut sim = Sim::new(g, Model::Cd, 5);
    let senders: Vec<(NodeId, u32)> = (1..=delta).map(|v| (v, v as u32)).collect();
    let sr = Sr::CdTransform {
        delta,
        epochs: 40,
        relevance_check: false,
    };
    let got = sr.run(
        &mut sim,
        &senders,
        &[0],
        &mut NodeRngs::new(5, delta + 1, 2),
    );
    assert!(got[0].is_some());
    // The hub's energy (one listen per epoch, stopping on success) is in
    // the same ballpark as the LE slot count — the reduction's other
    // direction.
    assert!(sim.meter().energy(0) <= 3 * le.slots + 30);
}

#[test]
fn tdma_preprocessing_enables_collision_free_srcomm() {
    let g = bounded_degree(48, 4, 1.5, 7);
    let mut sim = Sim::new(g.clone(), Model::NoCd, 3);
    let mut rngs = NodeRngs::new(3, 48, 1);
    let mut coins = NodeRngs::new(3, 48, 2);
    let knowledge = learn_degree(&mut sim, &mut rngs);
    assert!(knowledge.complete(&g));
    let (colors, _) = two_hop_coloring(&mut sim, &knowledge, &mut rngs, &mut coins);
    assert!(is_two_hop_proper(&g, &colors));
}

#[test]
fn build_tdma_then_relay_across_the_graph() {
    let g = ebc_graphs::deterministic::cycle(24);
    let mut sim = Sim::new(g, Model::NoCd, 9);
    let mut rngs = NodeRngs::new(9, 24, 1);
    let mut coins = NodeRngs::new(9, 24, 2);
    let sr = build_tdma(&mut sim, &mut rngs, &mut coins);
    // Relay a token all the way around using only TDMA SR rounds.
    let mut has = [false; 24];
    has[0] = true;
    for _ in 0..24 {
        let senders: Vec<(NodeId, u8)> = (0..24).filter(|&v| has[v]).map(|v| (v, 1)).collect();
        let receivers: Vec<NodeId> = (0..24).filter(|&v| !has[v]).collect();
        let got = sr.run(&mut sim, &senders, &receivers, &mut rngs);
        for (i, &v) in receivers.iter().enumerate() {
            if got[i].is_some() {
                has[v] = true;
            }
        }
    }
    assert!(has.iter().all(|&b| b));
}

#[test]
fn partition_to_labeling_to_broadcast_pipeline() {
    // The §6 pipeline stages compose: cluster, then Lemma 10 over the
    // resulting labeling.
    let g = grid(8, 8);
    let mut sim = Sim::new(g.clone(), Model::Local, 17);
    let mut rngs = NodeRngs::new(17, 64, 1);
    let st = partition_beta(&mut sim, 0.25, &Sr::Local, &mut rngs);
    assert!(st.is_valid(&g));
    assert!(st.labeling.is_good(&g));
    let d = {
        let (cg, _) = st.cluster_graph(&g);
        cg.diameter_exact().unwrap_or(0)
    };
    let out = ebc_core::cast::broadcast_with_labeling(
        &mut sim,
        &st.labeling,
        0,
        64,
        d + 1,
        &Sr::Local,
        &mut rngs,
    );
    assert!(out.all_informed());
}

#[test]
fn cluster_state_analysis_consistency() {
    let g = grid(6, 6);
    let mut sim = Sim::new(g.clone(), Model::Local, 23);
    let mut rngs = NodeRngs::new(23, 36, 1);
    let st = partition_beta(&mut sim, 0.3, &Sr::Local, &mut rngs);
    let (cg, of) = st.cluster_graph(&g);
    assert_eq!(cg.n(), st.cluster_count());
    // Contracted graph is connected because G is.
    assert!(cg.is_connected());
    // Every vertex maps into range.
    assert!(of.iter().all(|&c| c < cg.n()));
    // Edge-cut fraction consistent with the contraction.
    let trivial = ClusterState::trivial(36);
    assert_eq!(trivial.edge_cut_fraction(&g), 1.0);
}

#[test]
fn reduction_gadget_graph_is_what_theorem2_assumes() {
    let g = k2k(6);
    // s and t non-adjacent, all middles adjacent to both.
    assert!(!g.has_edge(0, 1));
    for m in 2..8 {
        assert!(g.has_edge(0, m) && g.has_edge(1, m));
    }
    // And the reduction machinery elects a leader among exactly k middles.
    let res = run_reduction(6, Model::NoCd, |_| DecayMiddle::new(6), 3, 2_000);
    assert!(matches!(res.leader, Some(l) if l < 6));
}

#[test]
fn det_sr_learns_the_min_message_on_a_star() {
    // Deterministic SR on a star learns the min message with zero failure.
    let g = ebc_graphs::deterministic::star(8);
    let mut sim = Sim::new(g, Model::Cd, 0);
    let senders: Vec<(NodeId, u64)> = (1..=8).map(|v| (v, 20 - v as u64)).collect();
    let got = det_sr(&mut sim, &senders, &[0], 32);
    assert_eq!(got[0], Some(12));
}
