//! SR-communication (paper §4): the basic building block.
//!
//! Given disjoint vertex sets `S` (each holding a message) and `R`, an
//! SR-communication algorithm guarantees that every `v ∈ R` with a neighbor
//! in `S` receives *some* neighbor's message with probability `1 − f`.
//!
//! Four interchangeable strategies are provided, selected by [`Sr`]:
//!
//! * [`Sr::Local`] — in the LOCAL model there are no collisions, so one
//!   slot suffices (`O(1)` time and energy).
//! * [`Sr::Decay`] — the decay algorithm of Bar-Yehuda, Goldreich and Itai
//!   for No-CD (Lemma 7): sweeps of exponentially decreasing transmission
//!   probabilities; `O(log Δ log 1/f)` time and energy.
//! * [`Sr::CdTransform`] — Lemma 8's generic transformation of a *uniform*
//!   single-hop leader-election schedule (from [`ebc_singlehop`]) into
//!   SR-communication for CD: `O(log Δ (log log Δ + log 1/f))` time but
//!   only `O(log log Δ + log 1/f)` energy, plus Remark 9's constant-energy
//!   relevance check.
//! * [`Sr::Tdma`] — collision-free scheduling over a coloring of `G + G²`
//!   (Theorem 3's simulation): sender energy 1, receiver energy ≤ Δ.
//!
//! All strategies keep the paper's energy accounting honest: a No-CD
//! receiver pays for every listening slot even when no neighbor transmits,
//! because it cannot know.

use ebc_radio::{Action, Feedback, Model, NodeId, Schedule, Sim, SlotBehavior, SparseSchedule};
use ebc_singlehop::{Obs, UniformLeaderElection};
use rand::Rng;

use crate::util::{ceil_log2, NodeRngs, RoleMap};

/// Wrapper distinguishing payload messages from Remark 9 relevance markers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SrMsg<M> {
    Marker,
    Payload(M),
}

/// An SR-communication strategy with its parameters.
///
/// `delta` is the public maximum-degree bound Δ; the repetition parameters
/// control the failure probability `f` (`sweeps`/`epochs` `= Θ(log 1/f)`).
#[derive(Debug, Clone)]
pub enum Sr {
    /// One collision-free slot (LOCAL model only).
    Local,
    /// Decay for No-CD (Lemma 7).
    Decay {
        /// Maximum degree bound Δ.
        delta: usize,
        /// Number of decay sweeps (`Θ(log 1/f)`).
        sweeps: u32,
    },
    /// The Lemma 8 transformation for CD.
    CdTransform {
        /// Maximum degree bound Δ.
        delta: usize,
        /// Number of epochs (`Θ(log log Δ + log 1/f)`).
        epochs: u32,
        /// Run Remark 9's 2-slot relevance check so vertices with no
        /// counterpart drop out at `O(1)` energy.
        relevance_check: bool,
    },
    /// TDMA over a proper coloring of `G + G²` (Theorem 3).
    Tdma {
        /// `colors[v]` is the color of vertex `v`.
        colors: std::sync::Arc<Vec<u32>>,
        /// Number of colors (the TDMA frame length).
        num_colors: u32,
    },
}

impl Sr {
    /// The number of slots one invocation occupies on the global clock,
    /// whether or not any vertex participates (the schedule is public, so
    /// idle invocations still consume this much *time*).
    pub fn round_slots(&self) -> u64 {
        match self {
            Sr::Local => 1,
            Sr::Decay { delta, sweeps } => u64::from(*sweeps) * slots_per_sweep(*delta),
            Sr::CdTransform {
                delta,
                epochs,
                relevance_check,
            } => {
                let check = if *relevance_check { 2 } else { 0 };
                check + u64::from(*epochs) * slots_per_sweep(*delta)
            }
            Sr::Tdma { num_colors, .. } => u64::from(*num_colors),
        }
    }

    /// Runs one SR-communication instance.
    ///
    /// `senders` pairs each `S`-vertex with its message; `receivers` lists
    /// `R`. Returns, aligned with `receivers`, the message each receiver
    /// obtained (if any). Vertices outside `S ∪ R` idle and pay nothing.
    ///
    /// # Panics
    ///
    /// Panics if the strategy is incompatible with the simulation's
    /// collision model (e.g. [`Sr::Local`] outside [`Model::Local`]).
    pub fn run<M>(
        &self,
        sim: &mut Sim,
        senders: &[(NodeId, M)],
        receivers: &[NodeId],
        rngs: &mut NodeRngs,
    ) -> Vec<Option<M>>
    where
        M: Clone + core::fmt::Debug + PartialEq,
    {
        match self {
            Sr::Local => run_local(sim, senders, receivers),
            Sr::Decay { delta, sweeps } => {
                run_decay(sim, senders, receivers, *delta, *sweeps, rngs)
            }
            Sr::CdTransform {
                delta,
                epochs,
                relevance_check,
            } => run_cd(
                sim,
                senders,
                receivers,
                *delta,
                *epochs,
                *relevance_check,
                rngs,
            ),
            Sr::Tdma { colors, num_colors } => {
                run_tdma(sim, senders, receivers, colors, *num_colors)
            }
        }
    }
}

fn slots_per_sweep(delta: usize) -> u64 {
    // Transmission probabilities 2^0, 2^-1, …, 2^-⌈log2(Δ+1)⌉.
    u64::from(ceil_log2(delta.max(1) + 1)) + 1
}

fn run_local<M: Clone + core::fmt::Debug>(
    sim: &mut Sim,
    senders: &[(NodeId, M)],
    receivers: &[NodeId],
) -> Vec<Option<M>> {
    assert_eq!(sim.model(), Model::Local, "Sr::Local needs the LOCAL model");
    let mut got: Vec<Option<M>> = vec![None; receivers.len()];
    let roles = RoleMap::new(
        sim.graph().n(),
        senders.iter().map(|(v, _)| *v),
        receivers.iter().copied(),
    );
    let participants: Vec<NodeId> = senders
        .iter()
        .map(|(v, _)| *v)
        .chain(receivers.iter().copied())
        .collect();
    let mut behavior = ebc_radio::from_fns(
        |v, _t| {
            if let Some(si) = roles.sender(v) {
                Action::Send(senders[si].1.clone())
            } else {
                Action::Listen
            }
        },
        |v, _t, fb: Feedback<M>| {
            if let Feedback::Many(ms) = fb {
                if let Some(m) = ms.into_iter().next() {
                    got[roles.receiver(v).expect("listener is a receiver")] = Some(m);
                }
            }
        },
    );
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots: 1,
        },
        &mut behavior,
    );
    drop(behavior);
    got
}

/// Shared state of one decay run, as a [`SlotBehavior`] so the act and
/// feedback paths can both touch `got`.
struct DecayBehavior<'a, M> {
    senders: &'a [(NodeId, M)],
    roles: RoleMap,
    got: Vec<Option<M>>,
    sweep_len: u64,
    rngs: &'a mut NodeRngs,
}

impl<M: Clone> SlotBehavior<M> for DecayBehavior<'_, M> {
    fn act(&mut self, v: NodeId, t: u64) -> Action<M> {
        if let Some(si) = self.roles.sender(v) {
            let i = (t % self.sweep_len) as i32;
            if self.rngs.get(v).gen_bool(0.5_f64.powi(i)) {
                Action::Send(self.senders[si].1.clone())
            } else {
                Action::Idle
            }
        } else if self.got[self.roles.receiver(v).expect("participant is S or R")].is_none() {
            Action::Listen
        } else {
            Action::Idle
        }
    }

    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<M>) {
        if let Feedback::One(m) = fb {
            let slot = &mut self.got[self.roles.receiver(v).expect("listener is a receiver")];
            if slot.is_none() {
                *slot = Some(m);
            }
        }
    }

    // Senders draw randomness every slot, so they can never skip; a
    // receiver that already holds a message is provably Idle (no
    // randomness) for the rest of the run and drops out of the wake queue.
    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        match self.roles.receiver(v) {
            Some(ri) if self.got[ri].is_some() => None,
            _ => Some(t + 1),
        }
    }
}

fn run_decay<M: Clone + core::fmt::Debug>(
    sim: &mut Sim,
    senders: &[(NodeId, M)],
    receivers: &[NodeId],
    delta: usize,
    sweeps: u32,
    rngs: &mut NodeRngs,
) -> Vec<Option<M>> {
    let sweep_len = slots_per_sweep(delta);
    let total = u64::from(sweeps) * sweep_len;
    if receivers.is_empty() && senders.is_empty() {
        sim.skip(total);
        return Vec::new();
    }
    let participants: Vec<NodeId> = senders
        .iter()
        .map(|(v, _)| *v)
        .chain(receivers.iter().copied())
        .collect();
    let mut behavior = DecayBehavior {
        senders,
        roles: RoleMap::new(
            sim.graph().n(),
            senders.iter().map(|(v, _)| *v),
            receivers.iter().copied(),
        ),
        got: vec![None; receivers.len()],
        sweep_len,
        rngs,
    };
    sim.drive(
        Schedule::Dynamic {
            participants: &participants,
            slots: total,
        },
        &mut behavior,
    );
    behavior.got
}

#[allow(clippy::too_many_arguments)]
fn run_cd<M>(
    sim: &mut Sim,
    senders: &[(NodeId, M)],
    receivers: &[NodeId],
    delta: usize,
    epochs: u32,
    relevance_check: bool,
    rngs: &mut NodeRngs,
) -> Vec<Option<M>>
where
    M: Clone + core::fmt::Debug + PartialEq,
{
    assert!(
        matches!(sim.model(), Model::Cd | Model::CdStar),
        "Sr::CdTransform needs collision detection"
    );
    let sweep_len = slots_per_sweep(delta);
    let mut active_s: Vec<bool> = vec![true; senders.len()];
    let mut active_r: Vec<bool> = vec![true; receivers.len()];

    // Remark 9: in CD, one slot where S transmits and R listens tells every
    // receiver whether it has any S-neighbor (noise and messages are both
    // "activity"); a second, mirrored slot tells every sender whether it has
    // any R-neighbor. Irrelevant vertices then idle for the main phase,
    // paying O(1) instead of O(epochs).
    if relevance_check {
        run_marker_slot(
            sim,
            senders.iter().map(|(v, _)| *v),
            receivers,
            &mut active_r,
        );
        let sender_ids: Vec<NodeId> = senders.iter().map(|(v, _)| *v).collect();
        let mut sender_active_flags = active_s.clone();
        run_marker_slot(
            sim,
            receivers.iter().copied(),
            &sender_ids,
            &mut sender_active_flags,
        );
        active_s = sender_active_flags;
    }

    let participants: Vec<NodeId> = senders
        .iter()
        .map(|(v, _)| *v)
        .chain(receivers.iter().copied())
        .collect();
    let mut behavior = CdBehavior {
        senders,
        roles: RoleMap::new(
            sim.graph().n(),
            senders.iter().map(|(v, _)| *v),
            receivers.iter().copied(),
        ),
        got: vec![None; receivers.len()],
        active_s,
        active_r,
        // Each receiver privately simulates the uniform leader-election
        // schedule: in epoch e it listens only at the slot matching its
        // current exponent k_e.
        scheds: receivers
            .iter()
            .map(|_| UniformLeaderElection::new(delta.max(1)))
            .collect(),
        sends: vec![[0; 2]; senders.len()],
        sends_len: vec![0; senders.len()],
        sends_next: vec![0; senders.len()],
        cur_epoch: vec![0; senders.len()],
        epochs: u64::from(epochs),
        sweep_len,
        rngs,
    };
    // All epochs are one dynamic primitive (epoch boundaries live inside
    // the behavior): irrelevant or satisfied vertices drop out of the wake
    // queue once instead of being re-seeded per epoch, so the whole call
    // costs O(|S| + |R|) setup plus the genuinely active polls — the
    // difference that lets the Theorem 12 casts keep their huge
    // participant sets at n = 10^6.
    sim.drive(
        Schedule::Dynamic {
            participants: &participants,
            slots: u64::from(epochs) * sweep_len,
        },
        &mut behavior,
    );
    behavior.got
}

/// State of one Lemma 8 run.
struct CdBehavior<'a, M> {
    senders: &'a [(NodeId, M)],
    roles: RoleMap,
    got: Vec<Option<M>>,
    active_s: Vec<bool>,
    active_r: Vec<bool>,
    scheds: Vec<UniformLeaderElection>,
    /// Predetermined absolute send slots of epoch `cur_epoch[si]`:
    /// `sends[si][..sends_len[si]]`, with `sends_next[si]` consumed so far.
    ///
    /// Slot i of an epoch (1-based) transmits with probability 2^{-i}, at
    /// most twice per epoch, so whichever slot a receiver samples sees the
    /// uniform probability it expects. The Bernoulli draws of one epoch are
    /// batched at the epoch boundary — per-node draw order is identical to
    /// drawing slot-by-slot (each draw stops being made once two sends are
    /// fixed, exactly like the in-slot early-out) — which lets a sender
    /// wake only at its actual send slots instead of polling every slot.
    sends: Vec<[u64; 2]>,
    sends_len: Vec<u8>,
    sends_next: Vec<u8>,
    cur_epoch: Vec<u64>,
    epochs: u64,
    sweep_len: u64,
    rngs: &'a mut NodeRngs,
}

impl<M: Clone> CdBehavior<'_, M> {
    /// Draws sender `si`'s send slots for `epoch` (consuming exactly the
    /// Bernoulli draws the slot-by-slot protocol would).
    fn draw_sends(&mut self, v: NodeId, si: usize, epoch: u64) {
        self.cur_epoch[si] = epoch;
        let mut len = 0u8;
        let rng = self.rngs.get(v);
        for slot in 0..self.sweep_len {
            if rng.gen_bool(0.5_f64.powi(slot as i32 + 1)) {
                self.sends[si][usize::from(len)] = epoch * self.sweep_len + slot;
                len += 1;
                if len == 2 {
                    break;
                }
            }
        }
        self.sends_len[si] = len;
        self.sends_next[si] = 0;
    }

    /// The sender's next send slot, drawing further epochs as needed; the
    /// returned slot is consumed (it becomes the sender's next wake).
    fn next_send_wake(&mut self, v: NodeId, si: usize) -> Option<u64> {
        loop {
            if self.sends_next[si] < self.sends_len[si] {
                let t = self.sends[si][usize::from(self.sends_next[si])];
                self.sends_next[si] += 1;
                return Some(t);
            }
            let next_epoch = self.cur_epoch[si] + 1;
            if next_epoch >= self.epochs {
                return None;
            }
            self.draw_sends(v, si, next_epoch);
        }
    }
}

impl<M: Clone> SlotBehavior<SrMsg<M>> for CdBehavior<'_, M> {
    fn act(&mut self, v: NodeId, t: u64) -> Action<SrMsg<M>> {
        let slot = t % self.sweep_len;
        if let Some(si) = self.roles.sender(v) {
            // A sender is only ever woken at one of its predetermined send
            // slots.
            debug_assert!(self.active_s[si]);
            debug_assert!(self.sends[si][..usize::from(self.sends_len[si])].contains(&t));
            Action::Send(SrMsg::Payload(self.senders[si].1.clone()))
        } else {
            let ri = self.roles.receiver(v).expect("participant is S or R");
            if !self.active_r[ri] || self.got[ri].is_some() {
                return Action::Idle;
            }
            let k = self.scheds[ri].k().clamp(1, self.sweep_len as u32);
            if slot + 1 == u64::from(k) {
                Action::Listen
            } else {
                Action::Idle
            }
        }
    }

    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<SrMsg<M>>) {
        let ri = self.roles.receiver(v).expect("listener is a receiver");
        let obs = match fb {
            Feedback::One(SrMsg::Payload(m)) => {
                self.got[ri] = Some(m);
                Obs::Unique
            }
            Feedback::One(SrMsg::Marker) => Obs::Unique,
            Feedback::Noise | Feedback::Beep => Obs::Noise,
            Feedback::Silence => Obs::Silence,
            Feedback::Many(_) => unreachable!("CD never delivers Many"),
        };
        // A receiver listens once per epoch, so its single observation
        // feeds the leader-election schedule immediately.
        self.scheds[ri].observe(obs);
    }

    // Across the whole run: an inactive or satisfied sender/receiver never
    // enters the wake queue, an active sender wakes only at its
    // predetermined send slots (epochs' draws are batched at the
    // boundary), and an active receiver wakes only at its one sampled slot
    // `k_e - 1` of each epoch.
    fn first_wake(&mut self, v: NodeId) -> Option<u64> {
        if let Some(si) = self.roles.sender(v) {
            if !self.active_s[si] {
                return None;
            }
            self.draw_sends(v, si, 0);
            self.next_send_wake(v, si)
        } else {
            let ri = self.roles.receiver(v).expect("participant is S or R");
            if !self.active_r[ri] || self.got[ri].is_some() {
                return None;
            }
            let k = self.scheds[ri].k().clamp(1, self.sweep_len as u32);
            Some(u64::from(k) - 1)
        }
    }

    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        let epoch = t / self.sweep_len;
        if let Some(si) = self.roles.sender(v) {
            self.next_send_wake(v, si)
        } else {
            let ri = self.roles.receiver(v).expect("participant is S or R");
            if !self.active_r[ri] || self.got[ri].is_some() {
                return None;
            }
            // `feedback` already observed this epoch's outcome, so `k` is
            // next epoch's sampled slot.
            let k = self.scheds[ri].k().clamp(1, self.sweep_len as u32);
            Some((epoch + 1) * self.sweep_len + u64::from(k) - 1)
        }
    }
}

/// One Remark 9 marker slot: everyone in `markers` transmits a marker,
/// everyone in `checkers` listens; `active[i]` is cleared for checkers that
/// hear true silence (no counterpart in range).
fn run_marker_slot(
    sim: &mut Sim,
    markers: impl Iterator<Item = NodeId>,
    checkers: &[NodeId],
    active: &mut [bool],
) {
    let marker_ids: Vec<NodeId> = markers.collect();
    let roles = RoleMap::new(
        sim.graph().n(),
        marker_ids.iter().copied(),
        checkers.iter().copied(),
    );
    let participants: Vec<NodeId> = marker_ids
        .iter()
        .copied()
        .chain(checkers.iter().copied())
        .collect();
    let mut behavior = ebc_radio::from_fns(
        |v, _t| {
            if roles.sender(v).is_some() {
                Action::Send(SrMsg::<u8>::Marker)
            } else {
                Action::Listen
            }
        },
        |v, _t, fb: Feedback<SrMsg<u8>>| {
            if matches!(fb, Feedback::Silence) {
                active[roles.receiver(v).expect("listener is a checker")] = false;
            }
        },
    );
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots: 1,
        },
        &mut behavior,
    );
}

/// State of one TDMA round.
struct TdmaBehavior<'a, M> {
    senders: &'a [(NodeId, M)],
    roles: RoleMap,
    got: Vec<Option<M>>,
    colors: &'a [u32],
}

impl<M: Clone> SlotBehavior<M> for TdmaBehavior<'_, M> {
    fn act(&mut self, v: NodeId, t: u64) -> Action<M> {
        let c = t as u32;
        if let Some(si) = self.roles.sender(v) {
            if self.colors[v] == c {
                return Action::Send(self.senders[si].1.clone());
            }
            Action::Idle
        } else {
            // Only scheduled in slots matching a neighbor's color — the
            // listen schedule every vertex knows after Learn-Degree +
            // coloring — so listen unless the message already arrived.
            if self.got[self.roles.receiver(v).expect("participant is S or R")].is_none() {
                return Action::Listen;
            }
            Action::Idle
        }
    }

    fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<M>) {
        let m = match fb {
            Feedback::One(m) => Some(m),
            Feedback::Many(ms) => ms.into_iter().next(),
            _ => None,
        };
        if let Some(m) = m {
            let slot = &mut self.got[self.roles.receiver(v).expect("listener is a receiver")];
            if slot.is_none() {
                *slot = Some(m);
            }
        }
    }
}

fn run_tdma<M: Clone + core::fmt::Debug>(
    sim: &mut Sim,
    senders: &[(NodeId, M)],
    receivers: &[NodeId],
    colors: &[u32],
    num_colors: u32,
) -> Vec<Option<M>> {
    // The TDMA schedule is public: slot `c` can only carry color class `c`,
    // and a receiver only ever listens in its neighbors' color slots. Build
    // that sparse schedule once and let the engine batch-skip every other
    // slot instead of polling all participants through the whole frame.
    let mut per_slot: Vec<Vec<NodeId>> = vec![Vec::new(); num_colors as usize];
    for &(v, _) in senders {
        per_slot[colors[v] as usize].push(v);
    }
    let mut seen = vec![false; num_colors as usize];
    for &r in receivers {
        for c in seen.iter_mut() {
            *c = false;
        }
        for u in sim.graph().neighbors(r) {
            let c = colors[u] as usize;
            if !seen[c] {
                seen[c] = true;
                per_slot[c].push(r);
            }
        }
    }
    let mut schedule = SparseSchedule::new();
    for (c, ps) in per_slot.into_iter().enumerate() {
        if !ps.is_empty() {
            schedule.push(c as u64, ps);
        }
    }
    let mut behavior = TdmaBehavior {
        senders,
        roles: RoleMap::new(
            sim.graph().n(),
            senders.iter().map(|(v, _)| *v),
            receivers.iter().copied(),
        ),
        got: vec![None; receivers.len()],
        colors,
    };
    sim.drive(
        Schedule::Sparse {
            schedule: &schedule,
            slots: u64::from(num_colors),
        },
        &mut behavior,
    );
    behavior.got
}

/// Deterministic LOCAL SR-communication delivering *all* messages: one
/// slot in which every sender transmits and every receiver hears the full
/// multiset (Appendix A: "in deterministic LOCAL ... each vertex in R can
/// obtain all messages sent from N⁺(v) ∩ S").
///
/// Returns, aligned with `receivers`, the messages heard (sender-id order).
/// A receiver that is also a sender additionally hears its own message.
///
/// # Panics
///
/// Panics if the model is not [`Model::Local`].
pub fn local_gather<M: Clone + core::fmt::Debug>(
    sim: &mut Sim,
    senders: &[(NodeId, M)],
    receivers: &[NodeId],
) -> Vec<Vec<M>> {
    assert_eq!(sim.model(), Model::Local, "local_gather needs LOCAL");
    if senders.is_empty() && receivers.is_empty() {
        sim.skip(1);
        return Vec::new();
    }
    let sender_of: std::collections::HashMap<NodeId, M> = senders.iter().cloned().collect();
    let recv_index: std::collections::HashMap<NodeId, usize> =
        receivers.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut got: Vec<Vec<M>> = vec![Vec::new(); receivers.len()];
    // Senders that also receive use full duplex; they hear neighbors but
    // not themselves, so their own message is appended afterwards.
    let participants: Vec<NodeId> = senders
        .iter()
        .map(|(v, _)| *v)
        .filter(|v| !recv_index.contains_key(v))
        .chain(receivers.iter().copied())
        .collect();
    let mut behavior = ebc_radio::from_fns(
        |v, _t| match (sender_of.get(&v), recv_index.contains_key(&v)) {
            (Some(m), true) => Action::SendListen(m.clone()),
            (Some(m), false) => Action::Send(m.clone()),
            (None, _) => Action::Listen,
        },
        |v, _t, fb: Feedback<M>| {
            if let Feedback::Many(ms) = fb {
                got[recv_index[&v]] = ms;
            }
        },
    );
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots: 1,
        },
        &mut behavior,
    );
    drop(behavior);
    for (i, &v) in receivers.iter().enumerate() {
        if let Some(m) = sender_of.get(&v) {
            got[i].push(m.clone());
        }
    }
    got
}

/// Deterministic SR-communication in CD (Lemma 24).
///
/// Messages are integers in `0..msg_space`. `S` and `R` need not be
/// disjoint; each `v ∈ R` with `N⁺(v) ∩ S ≠ ∅` learns
/// `f_v = min { m_u : u ∈ N⁺(v) ∩ S }` — exactly, with zero failure
/// probability — by binary-searching the bits of `f_v`: at level `x` the
/// slot block has one slot per `(x+1)`-bit prefix; senders transmit at
/// their prefix's slot, and collision detection lets a listener test
/// whether the `p_x(f_v)‖0` branch is occupied.
///
/// Time `O(msg_space)`, per-vertex energy `O(log msg_space)`.
///
/// Returns, aligned with `receivers`, `Some(f_v)` or `None` (no sender in
/// `N⁺(v)`).
///
/// # Panics
///
/// Panics if the model lacks collision detection or a message is out of
/// range.
pub fn det_sr(
    sim: &mut Sim,
    senders: &[(NodeId, u64)],
    receivers: &[NodeId],
    msg_space: u64,
) -> Vec<Option<u64>> {
    assert!(
        matches!(sim.model(), Model::Cd | Model::CdStar),
        "det_sr needs collision detection"
    );
    assert!(msg_space >= 1);
    for (v, m) in senders {
        assert!(*m < msg_space, "message {m} of {v} out of 0..{msg_space}");
    }
    let bits = if msg_space == 1 {
        1
    } else {
        ceil_log2(msg_space as usize)
    };
    let sender_of: std::collections::HashMap<NodeId, u64> = senders.iter().cloned().collect();
    // prefix[ri]: the bits of f_v learned so far; alive[ri]: whether any
    // occupied slot has been seen (i.e. N+(v) ∩ S ≠ ∅ is still possible).
    let mut prefix: Vec<u64> = vec![0; receivers.len()];
    let mut alive: Vec<bool> = vec![true; receivers.len()];
    let recv_index: std::collections::HashMap<NodeId, usize> =
        receivers.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    for x in 0..bits {
        let level_bits = x + 1;
        let level_slots = 1u64 << level_bits;
        // The slot of `v`'s own message at this level, if `v` sends.
        let own_slot = |v: NodeId| sender_of.get(&v).map(|m| m >> (bits - level_bits));
        // occupied0[ri]: whether the prefix‖0 slot had activity this level.
        let mut heard0: Vec<bool> = vec![false; receivers.len()];
        let mut heard1: Vec<bool> = vec![false; receivers.len()];
        // Only slots where someone acts are simulated; the rest of the
        // level block advances the clock untouched (the schedule is
        // public, so this is exact).
        let mut by_slot: std::collections::BTreeMap<u64, (Vec<NodeId>, Vec<NodeId>)> =
            Default::default();
        for (v, m) in senders {
            by_slot
                .entry(m >> (bits - level_bits))
                .or_default()
                .0
                .push(*v);
        }
        for (ri, &v) in receivers.iter().enumerate() {
            if !alive[ri] {
                continue;
            }
            let base = prefix[ri] << 1;
            // Listening at a slot occupied by our own message is pointless
            // (and impossible while sending); our own slot is
            // known-occupied instead.
            let own = own_slot(v);
            if own != Some(base) {
                by_slot.entry(base).or_default().1.push(v);
            }
            if own != Some(base + 1) {
                by_slot.entry(base + 1).or_default().1.push(v);
            }
        }
        let mut schedule = SparseSchedule::new();
        for (t, (slot_senders, slot_listeners)) in by_slot {
            schedule.push(t, slot_senders.into_iter().chain(slot_listeners));
        }
        let mut behavior = ebc_radio::from_fns(
            |v, t| {
                if own_slot(v) == Some(t) {
                    Action::Send(1u8)
                } else {
                    Action::Listen
                }
            },
            |v, t, fb: Feedback<u8>| {
                let ri = recv_index[&v];
                let occupied = !matches!(fb, Feedback::Silence);
                let base = prefix[ri] << 1;
                if t == base {
                    heard0[ri] = occupied;
                } else if t == base + 1 {
                    heard1[ri] = occupied;
                }
            },
        );
        sim.drive(
            Schedule::Sparse {
                schedule: &schedule,
                slots: level_slots,
            },
            &mut behavior,
        );
        drop(behavior);
        for (ri, &v) in receivers.iter().enumerate() {
            if !alive[ri] {
                continue;
            }
            let own = own_slot(v);
            let base = prefix[ri] << 1;
            let occ0 = heard0[ri] || own == Some(base);
            let occ1 = heard1[ri] || own == Some(base + 1);
            if occ0 {
                prefix[ri] = base;
            } else if occ1 {
                prefix[ri] = base + 1;
            } else {
                alive[ri] = false;
            }
        }
    }
    receivers
        .iter()
        .enumerate()
        .map(|(ri, _)| alive[ri].then_some(prefix[ri]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graphs::deterministic::{complete_bipartite, k2k, star};
    use ebc_radio::{Model, Sim};

    fn rngs(n: usize) -> NodeRngs {
        NodeRngs::new(77, n, 1)
    }

    #[test]
    fn local_sr_one_slot() {
        let g = star(3);
        let mut sim = Sim::new(g, Model::Local, 0);
        let senders = vec![(1usize, "a"), (2, "b")];
        let got = Sr::Local.run(&mut sim, &senders, &[0], &mut rngs(4));
        assert!(got[0].is_some());
        assert_eq!(sim.now(), 1);
        assert_eq!(sim.meter().max_energy(), 1);
    }

    #[test]
    fn decay_sr_delivers_from_single_sender() {
        let g = star(1);
        let mut sim = Sim::new(g, Model::NoCd, 3);
        let got = Sr::Decay {
            delta: 1,
            sweeps: 8,
        }
        .run(&mut sim, &[(1usize, 42u32)], &[0], &mut rngs(2));
        assert_eq!(got[0], Some(42));
    }

    #[test]
    fn decay_sr_resolves_contention_whp() {
        // Hub listens; 16 leaves all want to deliver. One decay run with
        // enough sweeps succeeds essentially always.
        let g = star(16);
        let mut fails = 0;
        for seed in 0..30u64 {
            let mut sim = Sim::new(g.clone(), Model::NoCd, seed);
            let senders: Vec<(NodeId, u32)> = (1..=16).map(|v| (v, v as u32)).collect();
            let mut r = NodeRngs::new(seed, 17, 1);
            let got = Sr::Decay {
                delta: 16,
                sweeps: 20,
            }
            .run(&mut sim, &senders, &[0], &mut r);
            if got[0].is_none() {
                fails += 1;
            }
        }
        assert_eq!(fails, 0);
    }

    #[test]
    fn decay_sr_energy_matches_lemma7() {
        let g = star(8);
        let mut sim = Sim::new(g, Model::NoCd, 1);
        let senders: Vec<(NodeId, u8)> = (1..=8).map(|v| (v, 1u8)).collect();
        let sr = Sr::Decay {
            delta: 8,
            sweeps: 10,
        };
        let total = sr.round_slots();
        sr.run(&mut sim, &senders, &[0], &mut rngs(9));
        // The receiver listens at most the full round; senders pay at most
        // one send per slot.
        assert!(sim.meter().energy(0) <= total);
        assert_eq!(sim.now(), total);
    }

    #[test]
    fn decay_receivers_pay_even_without_senders() {
        // No-CD receivers cannot detect absence of senders.
        let g = star(2);
        let mut sim = Sim::new(g, Model::NoCd, 1);
        let sr = Sr::Decay {
            delta: 2,
            sweeps: 4,
        };
        let got = sr.run::<u8>(&mut sim, &[], &[1, 2], &mut rngs(3));
        assert_eq!(got, vec![None, None]);
        assert_eq!(sim.meter().energy(1), sr.round_slots());
    }

    #[test]
    fn cd_sr_delivers_and_saves_receiver_energy() {
        let g = star(64);
        let mut sim = Sim::new(g, Model::Cd, 5);
        let senders: Vec<(NodeId, u32)> = (1..=64).map(|v| (v, v as u32)).collect();
        let sr = Sr::CdTransform {
            delta: 64,
            epochs: 40,
            relevance_check: false,
        };
        let got = sr.run(&mut sim, &senders, &[0], &mut rngs(65));
        assert!(got[0].is_some());
        // Receiver listens once per epoch at most.
        assert!(sim.meter().energy(0) <= 40);
        // Senders transmit at most twice per epoch.
        for v in 1..=64 {
            assert!(sim.meter().energy(v) <= 80);
        }
    }

    #[test]
    fn cd_sr_relevance_check_drops_lonely_vertices() {
        // K_{2,k}: middles 2..k+2 see both s=0 and t=1. Sender s, receiver
        // t has no S-neighbor (s–t not adjacent) so after the relevance
        // check t pays O(1).
        let g = k2k(8);
        let mut sim = Sim::new(g, Model::Cd, 9);
        let sr = Sr::CdTransform {
            delta: 8,
            epochs: 30,
            relevance_check: true,
        };
        let got = sr.run(&mut sim, &[(0usize, 7u8)], &[1], &mut rngs(10));
        // t cannot receive: its only potential senders are the middles.
        assert_eq!(got[0], None);
        assert!(
            sim.meter().energy(1) <= 2,
            "irrelevant receiver paid {}",
            sim.meter().energy(1)
        );
    }

    #[test]
    fn cd_sr_succeeds_across_bipartite_contention() {
        let g = complete_bipartite(10, 10);
        let mut ok = 0;
        for seed in 0..20u64 {
            let mut sim = Sim::new(g.clone(), Model::Cd, seed);
            let senders: Vec<(NodeId, u32)> = (0..10).map(|v| (v, v as u32)).collect();
            let receivers: Vec<NodeId> = (10..20).collect();
            let mut r = NodeRngs::new(seed ^ 1, 20, 2);
            let got = Sr::CdTransform {
                delta: 10,
                epochs: 30,
                relevance_check: false,
            }
            .run(&mut sim, &senders, &receivers, &mut r);
            if got.iter().all(|g| g.is_some()) {
                ok += 1;
            }
        }
        assert!(ok >= 19, "{ok}/20");
    }

    #[test]
    fn tdma_sr_is_collision_free_and_cheap() {
        // Path 0-1-2 colored 0,1,2 (a proper G+G² coloring).
        let g = ebc_graphs::deterministic::path(3);
        let mut sim = Sim::new(g, Model::NoCd, 0);
        let colors = std::sync::Arc::new(vec![0u32, 1, 2]);
        let sr = Sr::Tdma {
            colors,
            num_colors: 3,
        };
        let got = sr.run(&mut sim, &[(0usize, 5u8), (2, 6u8)], &[1], &mut rngs(3));
        // Receiver hears one of them (its two neighbors have distinct
        // colors, so no collision).
        assert!(got[0].is_some());
        assert!(sim.meter().energy(1) <= 2);
        assert_eq!(sim.now(), 3);
    }

    #[test]
    fn det_sr_learns_minimum_exactly() {
        let g = star(5);
        let mut sim = Sim::new(g, Model::Cd, 0);
        let senders: Vec<(NodeId, u64)> = vec![(1, 9), (2, 4), (3, 12), (4, 4)];
        let got = det_sr(&mut sim, &senders, &[0], 16);
        assert_eq!(got[0], Some(4));
    }

    #[test]
    fn det_sr_handles_self_in_both_sets() {
        // Receiver 0 is also a sender with the minimum message: N+ includes
        // itself.
        let g = star(2);
        let mut sim = Sim::new(g, Model::Cd, 0);
        let senders: Vec<(NodeId, u64)> = vec![(0, 3), (1, 7)];
        let got = det_sr(&mut sim, &senders, &[0], 8);
        assert_eq!(got[0], Some(3));
    }

    #[test]
    fn det_sr_reports_no_sender() {
        let g = ebc_graphs::deterministic::path(3);
        let mut sim = Sim::new(g, Model::Cd, 0);
        // Sender at 0; receiver at 2 has no sender in N+.
        let got = det_sr(&mut sim, &[(0, 1)], &[1, 2], 4);
        assert_eq!(got[0], Some(1));
        assert_eq!(got[1], None);
    }

    #[test]
    fn det_sr_energy_logarithmic_in_message_space() {
        let g = star(32);
        let mut sim = Sim::new(g, Model::Cd, 0);
        let senders: Vec<(NodeId, u64)> = (1..=32).map(|v| (v, v as u64 * 7 % 256)).collect();
        det_sr(&mut sim, &senders, &[0], 256);
        // Receiver: ≤ 2 listens per level, 8 levels.
        assert!(sim.meter().energy(0) <= 16, "{}", sim.meter().energy(0));
        // Senders: 1 send per level.
        assert!(sim.meter().energy(1) <= 8);
    }

    #[test]
    fn det_sr_is_deterministic() {
        let g = star(6);
        let senders: Vec<(NodeId, u64)> = vec![(1, 5), (3, 2), (6, 9)];
        let mut s1 = Sim::new(g.clone(), Model::Cd, 1);
        let mut s2 = Sim::new(g, Model::Cd, 999);
        assert_eq!(
            det_sr(&mut s1, &senders, &[0], 16),
            det_sr(&mut s2, &senders, &[0], 16)
        );
    }

    #[test]
    fn round_slots_accounting() {
        assert_eq!(Sr::Local.round_slots(), 1);
        let d = Sr::Decay {
            delta: 7,
            sweeps: 3,
        };
        assert_eq!(d.round_slots(), 3 * 4); // ⌈log2 8⌉ + 1 = 4
        let c = Sr::CdTransform {
            delta: 7,
            epochs: 5,
            relevance_check: true,
        };
        assert_eq!(c.round_slots(), 2 + 5 * 4);
    }
}
