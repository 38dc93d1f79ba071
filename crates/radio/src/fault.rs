//! Fault injection at the slot pipeline's single choke point.
//!
//! Every transmission in the engine flows through [`crate::Sim`]'s
//! `step_slot`, so faults are applied exactly once per simulated slot —
//! after behaviors act (senders pay for the attempt either way) and
//! before collision resolution computes feedback. Dense, sparse, and
//! dynamic schedules and all five collision models inherit every fault
//! for free.
//!
//! A [`FaultPlan`] declares *what* goes wrong — a lossy channel, crash
//! faults, or a periodic jammer; the engine-side [`FaultState`] tracks
//! *where the plan is* (which devices are down, how much jamming budget
//! remains, which crashes already fired). The slot-loss draw is a pure
//! hash of the fault key and the **global** slot number — never a
//! sequential stream — so batch-skipped slots draw nothing and the three
//! schedule shapes stay bit-identical under the same plan.
//! [`FaultPlan::None`] is never consulted at all: the engine stores no
//! fault state for it, so a clean run is bit-for-bit the pre-fault
//! engine.

use crate::model::{Feedback, Model};
use crate::rng::splitmix64;
use crate::{NodeId, Slot};

/// The stream label under which [`crate::Sim`] derives the fault key
/// from its master seed via [`crate::rng::derive_seed`] — disjoint from
/// every algorithm-visible stream, so adding faults never perturbs an
/// algorithm's own random draws.
pub const FAULT_STREAM: u64 = 0xfa01_7bad_51de_c0de;

/// A declarative fault plan for one simulation run.
///
/// Plans are pure data: pass one to [`crate::Sim::with_faults`] and the
/// engine applies it deterministically. Slot loss draws from a key
/// derived from the simulation's master seed under [`FAULT_STREAM`], so
/// two runs with the same seed and plan fail identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultPlan {
    /// No faults. The engine stores no fault state for this plan, so a
    /// `None` run is bit-identical to the pre-fault engine.
    #[default]
    None,
    /// Each simulated slot is independently *lost* with probability `p`:
    /// every transmission in it vanishes (listeners resolve an empty
    /// channel → [`Feedback::Silence`] in every model) while senders
    /// still pay send energy — the retry cost of unreliable channels.
    SlotLoss {
        /// Per-slot loss probability in `[0, 1]`.
        p: f64,
    },
    /// Devices crash permanently: at global slot `t`, device `v` goes
    /// down for every `(t, v)` in `schedule`. Down devices are never
    /// polled, transmit nothing, hear nothing, and pay no energy.
    Crash {
        /// `(global slot, device)` crash events, in any order.
        schedule: Vec<(Slot, NodeId)>,
    },
    /// An adversary with a finite jamming `budget` that targets every
    /// slot whose global number is ≡ 0 (mod `period`). A jammed slot
    /// reaches every listener as channel garbage: [`Feedback::Silence`]
    /// under No-CD (collisions are indistinguishable from silence),
    /// [`Feedback::Noise`] under CD/CD\*/LOCAL, [`Feedback::Beep`]
    /// under Beep. One budget unit buys one slot actually heard by at
    /// least one listener; slots nobody observes are free, so budget
    /// consumption is identical across schedule shapes.
    Jammer {
        /// How many observed slots the adversary can jam.
        budget: u64,
        /// The jamming period in slots (must be ≥ 1).
        period: u64,
    },
}

/// What the fault layer decides about one simulated slot's channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotVerdict {
    /// The channel behaves normally.
    Clean,
    /// Every transmission is dropped: listeners resolve an empty
    /// transmitting set (silence in every model).
    Lost,
    /// The adversary transmits garbage: every listener hears
    /// [`jam_feedback`] for its model, regardless of real senders.
    Jammed,
}

/// What every listener hears in a jammed slot, per model: the adversary
/// floods the channel, so under No-CD the collision is indistinguishable
/// from silence, under CD/CD\*/LOCAL it is noise (garbage is not a
/// decodable message, even for CD\*'s arbitrary pick), and under Beep
/// the jammer's carrier is just another beep.
pub fn jam_feedback<M>(model: Model) -> Feedback<M> {
    match model {
        Model::NoCd => Feedback::Silence,
        Model::Cd | Model::CdStar | Model::Local => Feedback::Noise,
        Model::Beep => Feedback::Beep,
    }
}

/// The engine-side state of a [`FaultPlan`]: the realized down-set,
/// remaining jam budget, and the cursor into the sorted crash list.
/// Construct via [`FaultState::new`]; [`crate::Sim::with_faults`] does
/// this for you.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// The fault key the slot-loss draw hashes from (derived from the
    /// simulation master seed under [`FAULT_STREAM`]).
    key: u64,
    /// Whether each device is currently down.
    down: Vec<bool>,
    /// The number of members of `down`, tracked incrementally.
    down_count: usize,
    /// Crash events sorted by `(slot, node)`.
    crashes: Vec<(Slot, NodeId)>,
    /// First unapplied index into `crashes`.
    next_crash: usize,
    /// Remaining jamming budget (meaningful for `Jammer` plans only).
    jam_budget: u64,
    /// Devices that crashed in the most recent
    /// [`FaultState::begin_slot`] — the telemetry layer's crash events.
    newly_down: Vec<NodeId>,
}

/// The stream label of the slot-loss draw.
const STREAM_SLOT_LOSS: u64 = 0x51a7_1055;

impl FaultState {
    /// Fault state for `plan` over `n` devices, drawing from `key`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`, a jammer has period
    /// 0, or a crash names a device `>= n`.
    pub fn new(plan: FaultPlan, key: u64, n: usize) -> Self {
        let mut crashes = Vec::new();
        let mut jam_budget = 0;
        match &plan {
            FaultPlan::None => {}
            FaultPlan::SlotLoss { p } => {
                assert!((0.0..=1.0).contains(p), "slot-loss p={p} outside [0, 1]");
            }
            FaultPlan::Crash { schedule } => {
                for &(_, v) in schedule {
                    assert!(v < n, "fault event names device {v} >= n = {n}");
                }
                crashes = schedule.clone();
                crashes.sort_unstable();
            }
            FaultPlan::Jammer { budget, period } => {
                assert!(*period >= 1, "jammer period must be >= 1");
                jam_budget = *budget;
            }
        }
        FaultState {
            plan,
            key,
            down: vec![false; n],
            down_count: 0,
            crashes,
            next_crash: 0,
            jam_budget,
            newly_down: Vec::new(),
        }
    }

    /// Remaining jamming budget (0 for non-jammer plans).
    pub fn jam_budget(&self) -> u64 {
        self.jam_budget
    }

    /// How many devices are currently down.
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// The devices that crashed in the most recent
    /// [`FaultState::begin_slot`] — batch-skipped ranges surface all
    /// their due crashes at the next simulated slot.
    pub fn newly_down(&self) -> &[NodeId] {
        &self.newly_down
    }

    /// The slot-loss draw for `slot`: a uniform value in `[0, 1)` as a
    /// pure hash of the key and the slot — no sequential state, so
    /// skipped slots and reordered calls cannot shift any other draw.
    fn unit(&self, slot: Slot) -> f64 {
        let h = splitmix64(self.key ^ STREAM_SLOT_LOSS ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The choke-point hooks [`crate::Sim`] calls from `step_slot`, in
/// order: [`begin_slot`] once per simulated slot (before polling anyone),
/// then [`is_down`] per participant, then — only if some participant
/// listened — [`verdict`] once. Skipped slots call nothing, so every
/// draw is a pure function of the global slot, never of a sequential
/// stream.
///
/// [`begin_slot`]: FaultState::begin_slot
/// [`is_down`]: FaultState::is_down
/// [`verdict`]: FaultState::verdict
impl FaultState {
    /// Applies every crash scheduled at or before `slot`. Called once
    /// per simulated slot, before any behavior is polled; batch-skipped
    /// ranges are caught up by the next simulated slot.
    pub fn begin_slot(&mut self, slot: Slot) {
        self.newly_down.clear();
        while let Some(&(t, v)) = self.crashes.get(self.next_crash) {
            if t > slot {
                break;
            }
            if !self.down[v] {
                self.down[v] = true;
                self.down_count += 1;
                self.newly_down.push(v);
            }
            self.next_crash += 1;
        }
    }

    /// Whether device `v` is currently down (it has crashed).
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down_count > 0 && self.down[v]
    }

    /// Whether any device is currently down (fast-path gate for the
    /// per-participant masking in the poll loop).
    pub fn any_down(&self) -> bool {
        self.down_count > 0
    }

    /// The channel verdict for `slot`. Called at most once per simulated
    /// slot, and only when at least one (up) participant listened —
    /// unobserved slots never consume jamming budget, keeping budget
    /// spend invariant across schedule shapes.
    pub fn verdict(&mut self, slot: Slot) -> SlotVerdict {
        match self.plan {
            FaultPlan::SlotLoss { p } if self.unit(slot) < p => SlotVerdict::Lost,
            FaultPlan::Jammer { period, .. } if self.jam_budget > 0 && slot % period == 0 => {
                self.jam_budget -= 1;
                SlotVerdict::Jammed
            }
            _ => SlotVerdict::Clean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(plan: FaultPlan, n: usize) -> FaultState {
        FaultState::new(plan, 0xdead_beef, n)
    }

    #[test]
    fn slot_loss_draws_are_pure_functions_of_the_slot() {
        let mut a = state(FaultPlan::SlotLoss { p: 0.5 }, 4);
        let mut b = state(FaultPlan::SlotLoss { p: 0.5 }, 4);
        // b queries a scrambled subset in a different order: verdicts
        // must agree wherever both looked.
        let a_verdicts: Vec<SlotVerdict> = (0..100).map(|t| a.verdict(t)).collect();
        for t in (0..100).rev().step_by(3) {
            assert_eq!(b.verdict(t), a_verdicts[t as usize]);
        }
        let lost = a_verdicts
            .iter()
            .filter(|v| **v == SlotVerdict::Lost)
            .count();
        assert!((20..=80).contains(&lost), "p=0.5 lost {lost}/100");
    }

    #[test]
    fn zero_probability_plans_never_fire() {
        let mut s = state(FaultPlan::SlotLoss { p: 0.0 }, 4);
        assert!((0..200).all(|t| s.verdict(t) == SlotVerdict::Clean));
    }

    #[test]
    fn certain_probability_plans_always_fire() {
        let mut s = state(FaultPlan::SlotLoss { p: 1.0 }, 4);
        assert!((0..200).all(|t| s.verdict(t) == SlotVerdict::Lost));
    }

    #[test]
    fn crash_events_apply_in_slot_order_and_catch_up_after_skips() {
        let mut s = state(
            FaultPlan::Crash {
                schedule: vec![(10, 2), (5, 0)],
            },
            4,
        );
        s.begin_slot(0);
        assert!(!s.any_down());
        s.begin_slot(5);
        assert!(s.is_down(0) && !s.is_down(2));
        // A batch-skip jumped the clock past slot 10: the next simulated
        // slot catches up on everything due.
        s.begin_slot(100);
        assert!(s.is_down(0) && s.is_down(2));
        assert_eq!(s.down_count(), 2);
    }

    #[test]
    fn newly_down_reports_each_transition_once() {
        let mut s = state(
            FaultPlan::Crash {
                schedule: vec![(5, 0), (10, 2)],
            },
            4,
        );
        s.begin_slot(0);
        assert!(s.newly_down().is_empty());
        s.begin_slot(5);
        assert_eq!(s.newly_down(), &[0]);
        s.begin_slot(6);
        assert!(s.newly_down().is_empty(), "transitions report only once");
        // A batch skip past slot 10 surfaces the due transition at the
        // next simulated slot.
        s.begin_slot(100);
        assert_eq!(s.newly_down(), &[2]);
        assert_eq!(s.down_count(), 2);
    }

    #[test]
    fn jammer_budget_depletes_only_on_jammed_slots() {
        let mut s = state(
            FaultPlan::Jammer {
                budget: 2,
                period: 3,
            },
            4,
        );
        let verdicts: Vec<SlotVerdict> = (0..9).map(|t| s.verdict(t)).collect();
        assert_eq!(verdicts[0], SlotVerdict::Jammed);
        assert_eq!(verdicts[1], SlotVerdict::Clean);
        assert_eq!(verdicts[3], SlotVerdict::Jammed);
        // Budget exhausted: slot 6 would match the period but stays clean.
        assert_eq!(verdicts[6], SlotVerdict::Clean);
        assert_eq!(s.jam_budget(), 0);
    }

    #[test]
    fn jam_feedback_per_model() {
        assert_eq!(jam_feedback::<u32>(Model::NoCd), Feedback::Silence);
        assert_eq!(jam_feedback::<u32>(Model::Cd), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::CdStar), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::Local), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::Beep), Feedback::Beep);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_probability_above_one() {
        state(FaultPlan::SlotLoss { p: 1.5 }, 4);
    }

    #[test]
    #[should_panic(expected = ">= n")]
    fn rejects_out_of_range_device() {
        state(
            FaultPlan::Crash {
                schedule: vec![(0, 9)],
            },
            4,
        );
    }
}
