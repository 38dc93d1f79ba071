//! The Theorem 2 reduction, executable: Broadcast on `K_{2,k}` ⇒
//! single-hop LeaderElection.
//!
//! The paper's argument: on the gadget `G_k ≅ K_{2,k}` (source `s`, sink
//! `t`, `k` middle vertices), `s` and `t` know nothing beyond their own
//! random bits and the channel feedback — so each middle can *simulate*
//! them locally given shared randomness, and the real communication
//! reduces to the clique of middles. The broadcast succeeds only when some
//! slot has exactly one middle transmitting — precisely leader election.
//! Hence `E_broadcast(K_{2,k}) ≥ T_leader-election(k) / 2`, importing the
//! `Ω(log n)` (CD) and `Ω(log Δ log n)` (No-CD) lower bounds.
//!
//! We make the reduction executable for the natural class of broadcast
//! protocols in which a middle's behavior depends on its private
//! randomness, the slot number, and what it has heard ([`MiddleBehavior`]).
//! [`run_reduction`] runs such a protocol *as* a leader election among the
//! middles and reports the elected middle and slot count — which equals
//! (up to the factor-2 slot skipping) the middles' energy in the original
//! broadcast. It needs no channel simulator: in a single-hop network every
//! middle hears the same thing, and that depends only on how many middles
//! transmitted, so the election counts transmitters in each slot.

use ebc_radio::{Model, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::util::ceil_log2;

/// What a middle vertex does in one (non-skipped) slot of a `K_{2,k}`
/// broadcast protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiddleAction {
    /// Transmit the payload toward `t`.
    Forward,
    /// Listen to the channel.
    Listen,
    /// Sleep.
    Idle,
}

/// A middle vertex's strategy in a `K_{2,k}` broadcast protocol, in the
/// form the reduction consumes: a function of private randomness, slot
/// index, and channel history.
pub trait MiddleBehavior {
    /// The action for slot `slot`.
    fn act(&mut self, rng: &mut SmallRng, slot: u64) -> MiddleAction;
    /// Channel feedback for a slot in which the middle listened (or, full
    /// duplex, transmitted): `None` = silence, `Some(true)` = unique
    /// transmission heard, `Some(false)` = collision (CD only).
    fn observe(&mut self, unique: Option<bool>);
}

/// The decay-style forwarding strategy: after receiving the payload from
/// `s` (slot 0), a middle transmits with probability `2^{-(slot mod L)}`
/// where `L = ⌈log₂ k⌉ + 1` — the classic contention-resolution middle of
/// a broadcast protocol on `K_{2,k}` (No-CD-compatible).
#[derive(Debug, Clone)]
pub struct DecayMiddle {
    sweep_len: u64,
    done: bool,
}

impl DecayMiddle {
    /// A decay middle for gadgets with at most `k` middles.
    pub fn new(k: usize) -> Self {
        DecayMiddle {
            sweep_len: u64::from(ceil_log2(k.max(1) + 1)) + 1,
            done: false,
        }
    }
}

impl MiddleBehavior for DecayMiddle {
    fn act(&mut self, rng: &mut SmallRng, slot: u64) -> MiddleAction {
        if self.done {
            return MiddleAction::Idle;
        }
        let i = (slot % self.sweep_len) as i32;
        if rng.gen_bool(0.5_f64.powi(i)) {
            MiddleAction::Forward
        } else {
            MiddleAction::Idle
        }
    }
    fn observe(&mut self, unique: Option<bool>) {
        if unique == Some(true) {
            self.done = true;
        }
    }
}

/// The uniform CD strategy: all middles share the public exponent schedule
/// of [`ebc_singlehop::UniformLeaderElection`] (they can, because in CD
/// the virtual `t`'s feedback is public), transmitting with probability
/// `2^{-k_t}`.
#[derive(Debug)]
pub struct UniformCdMiddle {
    sched: ebc_singlehop::UniformLeaderElection,
}

impl UniformCdMiddle {
    /// A uniform middle for gadgets with at most `k` middles.
    pub fn new(k: usize) -> Self {
        UniformCdMiddle {
            sched: ebc_singlehop::UniformLeaderElection::new(k.max(1)),
        }
    }
}

impl MiddleBehavior for UniformCdMiddle {
    fn act(&mut self, rng: &mut SmallRng, _slot: u64) -> MiddleAction {
        if self.sched.succeeded() {
            return MiddleAction::Idle;
        }
        if rng.gen_bool(0.5_f64.powi(self.sched.k() as i32)) {
            MiddleAction::Forward
        } else {
            MiddleAction::Listen
        }
    }
    fn observe(&mut self, unique: Option<bool>) {
        let obs = match unique {
            None => ebc_singlehop::Obs::Silence,
            Some(true) => ebc_singlehop::Obs::Unique,
            Some(false) => ebc_singlehop::Obs::Noise,
        };
        self.sched.observe(obs);
    }
}

/// Result of running the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionResult {
    /// The elected middle (the one whose transmission the virtual `t`
    /// uniquely received), if any within the budget.
    pub leader: Option<NodeId>,
    /// Slots consumed — a lower bound witness for the broadcast energy of
    /// the underlying protocol (`E ≥ slots/2` after the paper's skipping
    /// argument).
    pub slots: u64,
}

/// Runs a `K_{2,k}` broadcast protocol as a single-hop leader election
/// among `k` middles (the Theorem 2 simulation).
///
/// Every acting middle runs full duplex (allowed in the lower-bound
/// model): it transmits per its strategy while observing the channel,
/// which is exactly the virtual `t`'s view. That view depends only on how
/// many middles transmitted: none reads as silence, one as the payload,
/// and two or more as a collision, which `t` hears as noise under CD but
/// as silence under No-CD. Idle middles observe nothing. The election
/// terminates the first time `t` would have received the payload — a slot
/// with exactly one transmitter.
pub fn run_reduction<B, F>(
    k: usize,
    model: Model,
    make_behavior: F,
    seed: u64,
    max_slots: u64,
) -> ReductionResult
where
    B: MiddleBehavior,
    F: FnMut(usize) -> B,
{
    assert!(k >= 1);
    let collision = match model {
        Model::NoCd => None,
        Model::Cd => Some(false),
        _ => panic!("the reduction targets the CD / No-CD gadget models"),
    };
    let mut behaviors: Vec<B> = (0..k).map(make_behavior).collect();
    let mut rngs: Vec<SmallRng> = (0..k)
        .map(|v| ebc_radio::rng::node_rng(seed, v, 0x7ed))
        .collect();
    let mut acting: Vec<NodeId> = Vec::with_capacity(k);
    for slot in 0..max_slots {
        acting.clear();
        let (mut sent, mut sender) = (0usize, 0);
        for (v, (behavior, rng)) in behaviors.iter_mut().zip(&mut rngs).enumerate() {
            match behavior.act(rng, slot) {
                MiddleAction::Forward => {
                    sent += 1;
                    sender = v;
                    acting.push(v);
                }
                MiddleAction::Listen => acting.push(v),
                MiddleAction::Idle => {}
            }
        }
        let unique = match sent {
            0 => None,
            1 => Some(true),
            _ => collision,
        };
        for &v in &acting {
            behaviors[v].observe(unique);
        }
        if sent == 1 {
            return ReductionResult {
                leader: Some(sender),
                slots: slot + 1,
            };
        }
    }
    ReductionResult {
        leader: None,
        slots: max_slots,
    }
}

/// The analytic Theorem 2 energy lower bounds for `K_{2,k}` with failure
/// probability `f`: `Ω(log log k + log 1/f)` in CD and
/// `Ω(log k · log 1/f)` in No-CD, divided by 2 per the reduction.
pub fn theorem2_lower_bound(model: Model, k: usize, f: f64) -> f64 {
    let log_inv_f = (1.0 / f).log2().max(1.0);
    let logk = (k.max(2) as f64).log2();
    match model {
        Model::Cd | Model::CdStar => (logk.log2().max(1.0) + log_inv_f) / 2.0,
        _ => (logk * log_inv_f) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    #[test]
    fn decay_reduction_elects_leader() {
        for seed in 0..10u64 {
            let res = run_reduction(16, Model::NoCd, |_| DecayMiddle::new(16), seed, 4000);
            assert!(res.leader.is_some(), "seed {seed}");
            assert!(res.leader.unwrap() < 16);
        }
    }

    #[test]
    fn uniform_cd_reduction_elects_leader_fast() {
        let mut total = 0u64;
        let runs = 20;
        for seed in 0..runs {
            let res = run_reduction(256, Model::Cd, |_| UniformCdMiddle::new(256), seed, 2000);
            assert!(res.leader.is_some(), "seed {seed}");
            total += res.slots;
        }
        let avg = total as f64 / runs as f64;
        // O(log log k) + constant race: far below log² k.
        assert!(avg < 40.0, "avg = {avg}");
    }

    #[test]
    fn nocd_reduction_is_slower_than_cd() {
        // The Ω(log k log 1/f) vs Ω(log log k) separation, empirically.
        let runs = 20;
        let mut no_cd = 0u64;
        let mut cd = 0u64;
        for seed in 0..runs {
            let r1 = run_reduction(256, Model::NoCd, |_| DecayMiddle::new(256), seed, 20_000);
            let r2 = run_reduction(256, Model::Cd, |_| UniformCdMiddle::new(256), seed, 20_000);
            no_cd += r1.slots;
            cd += r2.slots;
        }
        assert!(
            no_cd > cd,
            "No-CD total {no_cd} should exceed CD total {cd}"
        );
    }

    #[test]
    fn single_middle_elected_immediately_in_cd() {
        let res = run_reduction(1, Model::Cd, |_| UniformCdMiddle::new(1), 0, 200);
        assert_eq!(res.leader, Some(0));
    }

    #[test]
    fn le_elects_unique_leader_across_sizes() {
        for &k in &[1usize, 2, 3, 8, 64, 500] {
            let mut ok = 0;
            for seed in 0..20u64 {
                let res = run_reduction(k, Model::Cd, |_| UniformCdMiddle::new(k), seed, 500);
                if let Some(l) = res.leader {
                    assert!(l < k);
                    ok += 1;
                }
            }
            assert!(ok >= 19, "k = {k}: only {ok}/20 elected");
        }
    }

    #[test]
    fn le_single_participant_self_detects() {
        // One middle under a schedule sized for five: its first lone
        // transmission is the unique one, and it ends the election.
        let res = run_reduction(1, Model::Cd, |_| UniformCdMiddle::new(5), 7, 200);
        assert_eq!(res.leader, Some(0));
    }

    #[test]
    fn le_slot_count_is_loglog_scale() {
        // For k = 2^14 middles the election should complete in far fewer
        // than log² k slots — loglog k + constant race steps.
        let k = 1 << 14;
        let mut total = 0u64;
        let runs = 10;
        for seed in 0..runs {
            let res = run_reduction(k, Model::Cd, |_| UniformCdMiddle::new(k), seed, 2_000);
            assert!(res.leader.is_some());
            total += res.slots;
        }
        let avg = total as f64 / runs as f64;
        assert!(avg < 60.0, "avg slots = {avg}");
    }

    /// Replays a fixed per-slot action script and logs every observation
    /// as `(slot, middle, observation)`.
    struct Scripted<'a> {
        middle: usize,
        slot: u64,
        script: &'a [[MiddleAction; 3]],
        log: &'a RefCell<Vec<(u64, usize, Option<bool>)>>,
    }

    impl MiddleBehavior for Scripted<'_> {
        fn act(&mut self, _rng: &mut SmallRng, slot: u64) -> MiddleAction {
            self.slot = slot;
            self.script[slot as usize][self.middle]
        }
        fn observe(&mut self, unique: Option<bool>) {
            self.log.borrow_mut().push((self.slot, self.middle, unique));
        }
    }

    #[test]
    fn acting_middles_observe_what_the_transmitter_count_implies() {
        use MiddleAction::{Forward as F, Idle as I, Listen as L};
        // Zero, two, three, then one transmitter.
        let script = [[L, L, I], [F, L, F], [F, F, F], [I, F, L]];
        for (model, c) in [(Model::NoCd, None), (Model::Cd, Some(false))] {
            let log = RefCell::new(Vec::new());
            let res = run_reduction(
                3,
                model,
                |middle| Scripted {
                    middle,
                    slot: 0,
                    script: &script,
                    log: &log,
                },
                0,
                10,
            );
            assert_eq!(
                res,
                ReductionResult {
                    leader: Some(1),
                    slots: 4
                }
            );
            assert_eq!(
                log.into_inner(),
                [
                    (0, 0, None),
                    (0, 1, None),
                    (1, 0, c),
                    (1, 1, c),
                    (1, 2, c),
                    (2, 0, c),
                    (2, 1, c),
                    (2, 2, c),
                    (3, 1, Some(true)),
                    (3, 2, Some(true)),
                ],
                "{model:?}"
            );
        }
    }

    #[test]
    fn lower_bound_formulas_are_monotone() {
        let cd16 = theorem2_lower_bound(Model::Cd, 16, 0.01);
        let cd4096 = theorem2_lower_bound(Model::Cd, 4096, 0.01);
        assert!(cd4096 >= cd16);
        let nocd16 = theorem2_lower_bound(Model::NoCd, 16, 0.01);
        let nocd4096 = theorem2_lower_bound(Model::NoCd, 4096, 0.01);
        assert!(nocd4096 > nocd16);
        // No-CD bound dominates the CD bound.
        assert!(nocd4096 > cd4096);
    }

    #[test]
    fn reduction_slots_bound_broadcast_energy_shape() {
        // Broadcast energy on K_{2,k} must grow at least like the LE time;
        // check the reduction's slot counts grow with k under No-CD.
        let avg = |k: usize| -> f64 {
            let runs = 10;
            let mut tot = 0;
            for seed in 0..runs {
                let r = run_reduction(k, Model::NoCd, |_| DecayMiddle::new(k), seed, 40_000);
                tot += r.slots;
            }
            tot as f64 / runs as f64
        };
        let small = avg(4);
        let large = avg(512);
        assert!(large > small, "slots: k=4 → {small}, k=512 → {large}");
    }
}
