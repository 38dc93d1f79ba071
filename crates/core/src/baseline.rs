//! Baseline broadcast algorithms the paper compares against implicitly.
//!
//! * [`flood_local`] — synchronous flooding in LOCAL: time `D`, but every
//!   vertex listens every slot until informed, so per-vertex energy grows
//!   with `D` (and with its distance from the source).
//! * [`bgi_decay_broadcast`] — the classic Bar-Yehuda–Goldreich–Itai decay
//!   broadcast \[4\] for No-CD: near-optimal `O((D + log n) log n)` *time*,
//!   but uninformed vertices listen continuously, so the *energy* is as
//!   large as the time — the gap that motivates the paper.

use ebc_radio::{Action, Feedback, Model, NodeId, Schedule, Sim, SlotBehavior};
use rand::Rng;

use crate::util::{ceil_log2, NodeRngs};
use crate::BroadcastOutcome;

/// Flooding over one [`Schedule::Dynamic`] primitive: round `r` is global
/// slot `r - 1`, and a vertex that has already relayed is provably idle
/// forever, so its `next_wake` of `None` drops it from the wake queue.
struct FloodBehavior {
    informed_at: Vec<Option<u64>>,
}

impl SlotBehavior<u8> for FloodBehavior {
    fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
        match self.informed_at[v] {
            // Send exactly once, the round after becoming informed.
            Some(r) if r == t => Action::Send(1),
            Some(_) => Action::Idle,
            None => Action::Listen,
        }
    }
    fn feedback(&mut self, v: NodeId, t: u64, fb: Feedback<u8>) {
        if matches!(fb, Feedback::One(_) | Feedback::Many(_)) && self.informed_at[v].is_none() {
            self.informed_at[v] = Some(t + 1);
        }
    }
    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        match self.informed_at[v] {
            // Relayed in slot t (or before): idle for the rest of the run,
            // without drawing randomness — safe to never wake again.
            Some(r) if r <= t => None,
            // Just informed (wake to relay) or still uninformed (listen).
            _ => Some(t + 1),
        }
    }
}

/// Naive flooding in the LOCAL model: each vertex transmits once, the round
/// after it first hears the payload; everyone else listens every round.
///
/// Time is exactly the source's eccentricity + 1; max energy is `Θ(time)`
/// (the farthest vertices listen the whole way). The energy-optimal
/// contrast is [`crate::randomized::broadcast_theorem11`].
pub fn flood_local(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    assert_eq!(sim.model(), Model::Local, "flood_local needs LOCAL");
    let n = sim.graph().n();
    let ecc = sim
        .graph()
        .eccentricity(source)
        .expect("graph must be connected") as u64;
    let participants: Vec<NodeId> = (0..n).collect();
    let mut b = FloodBehavior {
        informed_at: vec![None; n],
    };
    b.informed_at[source] = Some(0);
    let start = sim.now();
    sim.span_enter("flood");
    sim.drive(
        Schedule::Dynamic {
            participants: &participants,
            slots: ecc + 1,
        },
        &mut b,
    );
    sim.span_exit();
    if sim.telemetry_enabled() {
        // The exact informed-set curve: vertex v first holds the payload in
        // the slot before its relay slot `informed_at[v]` (source: slot 0).
        for t in 0..=ecc {
            let informed = b
                .informed_at
                .iter()
                .filter(|r| r.is_some_and(|r| r <= t + 1))
                .count();
            sim.record_gauge("informed", start + t, informed as f64);
        }
    }
    BroadcastOutcome {
        informed: b.informed_at.iter().map(|x| x.is_some()).collect(),
        source,
    }
}

struct BgiBehavior<'a> {
    informed: Vec<bool>,
    sweep_len: u64,
    rngs: &'a mut NodeRngs,
}

impl SlotBehavior<u8> for BgiBehavior<'_> {
    fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
        if self.informed[v] {
            let i = (t % self.sweep_len) as i32;
            if self.rngs.get(v).gen_bool(0.5_f64.powi(i)) {
                Action::Send(1)
            } else {
                Action::Idle
            }
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<u8>) {
        if matches!(fb, Feedback::One(_)) {
            self.informed[v] = true;
        }
    }
}

/// The decay broadcast of Bar-Yehuda, Goldreich and Itai \[4\] in No-CD.
///
/// Informed vertices run decay sweeps continuously; uninformed vertices
/// listen continuously. It runs `2D + O(log n)` sweeps (enough w.h.p.)
/// of `⌈log Δ⌉ + 1` slots each, and the last vertices to be informed
/// spend energy close to the full running time.
pub fn bgi_decay_broadcast(sim: &mut Sim, source: NodeId) -> BroadcastOutcome {
    assert!(
        matches!(sim.model(), Model::NoCd | Model::Cd | Model::CdStar),
        "bgi runs on collision channels"
    );
    let n = sim.graph().n();
    let delta = sim.graph().max_degree().max(1);
    let logn = ceil_log2(n.max(2));
    let d = sim
        .graph()
        .eccentricity(source)
        .expect("graph must be connected");
    let sweeps = 2 * d + 6 * logn + 8;
    let sweep_len = u64::from(ceil_log2(delta + 1)) + 1;
    let participants: Vec<NodeId> = (0..n).collect();
    let mut rngs = NodeRngs::new(sim.seed(), n, 0xb91);
    let mut b = BgiBehavior {
        informed: vec![false; n],
        sweep_len,
        rngs: &mut rngs,
    };
    b.informed[source] = true;
    let start = sim.now();
    sim.span_enter("decay");
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots: u64::from(sweeps) * sweep_len,
        },
        &mut b,
    );
    sim.span_exit();
    if sim.telemetry_enabled() {
        // Phase structure: one span per decay sweep of ⌈log Δ⌉ + 1 slots.
        for i in 0..u64::from(sweeps) {
            let s = start + i * sweep_len;
            sim.span_at("sweep", s, s + sweep_len);
        }
        let informed = b.informed.iter().filter(|&&x| x).count();
        sim.record_gauge("informed", sim.now(), informed as f64);
    }
    BroadcastOutcome {
        informed: b.informed,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{grid, path};
    use ebc_graphs::random::gnp_connected;

    #[test]
    fn flood_informs_everyone_in_diameter_time() {
        let g = path(32);
        let mut sim = Sim::new(g, Model::Local, 0);
        let out = flood_local(&mut sim, 0);
        assert!(out.all_informed());
        assert_eq!(sim.now(), 32); // ecc + 1
    }

    #[test]
    fn flood_energy_grows_with_distance() {
        let g = path(64);
        let mut sim = Sim::new(g, Model::Local, 0);
        flood_local(&mut sim, 0);
        // The last vertex listened ~D slots.
        assert!(sim.meter().energy(63) >= 60);
        // A near vertex is cheap.
        assert!(sim.meter().energy(1) <= 3);
    }

    #[test]
    fn bgi_informs_everyone_on_paths() {
        for seed in 0..5u64 {
            let g = path(48);
            let mut sim = Sim::new(g, Model::NoCd, seed);
            let out = bgi_decay_broadcast(&mut sim, 0);
            assert!(out.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn bgi_informs_everyone_on_grids_and_random_graphs() {
        for seed in 0..3u64 {
            let g = grid(6, 6);
            let mut sim = Sim::new(g, Model::NoCd, seed);
            assert!(bgi_decay_broadcast(&mut sim, 0).all_informed());
            let g = gnp_connected(40, 0.1, seed);
            let mut sim = Sim::new(g, Model::NoCd, seed + 50);
            assert!(bgi_decay_broadcast(&mut sim, 0).all_informed());
        }
    }

    #[test]
    fn bgi_energy_is_order_of_time() {
        // The energy-hungriness that motivates the paper: max energy is a
        // constant fraction of total time.
        let g = path(64);
        let mut sim = Sim::new(g, Model::NoCd, 3);
        bgi_decay_broadcast(&mut sim, 0);
        let time = sim.now();
        let e = sim.meter().max_energy();
        assert!(e * 3 >= time, "energy {e} << time {time}");
    }

    #[test]
    #[should_panic(expected = "needs LOCAL")]
    fn flood_rejects_other_models() {
        let g = path(4);
        let mut sim = Sim::new(g, Model::NoCd, 0);
        flood_local(&mut sim, 0);
    }
}
