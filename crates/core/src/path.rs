//! The path algorithm (paper §8, Algorithm 1, Theorem 21).
//!
//! Broadcast on an `n`-vertex path in worst-case time `2n` with expected
//! per-vertex energy `O(log n)` — both optimal to constant factors.
//!
//! Each vertex samples a *blocking time* `B = 2^b` with `P(b = i) = 2^{-i}`
//! (capped at `n`). At slot 1 it announces when it will next transmit and
//! learns the same from its upstream neighbor; until slot `B` it *blocks*:
//! sync messages only reschedule its listen alarm. From slot `B` on it
//! *forwards*: every message received at a listen alarm is retransmitted one
//! slot later, so the payload advances one hop per slot except where still
//! blocked. Vertices with large `B` shield downstream vertices from
//! synchronization traffic, which is what caps the expected number of
//! messages any vertex handles at `O(log n)` (Lemmas 22, 23).
//!
//! The orientation-free variant runs two mirrored instances per vertex
//! (upstream = lower / higher neighbor) bundled into single transmissions —
//! the LOCAL model allows this with only a doubling of energy. A dead-end
//! marker from the path's endpoints retires the instance that never sees
//! the payload.

use ebc_radio::{Action, Feedback, Model, NodeId, Schedule, Sim, Slot, SlotBehavior};
use rand::Rng;

use crate::util::NodeRngs;

/// Per-instance message content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Content {
    /// "Next message after `delay` timesteps."
    Sync {
        /// Slots until this sender's next transmission.
        delay: u64,
    },
    /// The broadcast payload.
    Payload,
    /// Nothing will ever arrive from this direction (endpoint marker).
    DeadEnd,
}

/// One transmission: contents for the rightward and leftward instances,
/// bundled (LOCAL messages have unbounded size).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PathMsg {
    from: NodeId,
    /// Content of the rightward instance (upstream = lower neighbor).
    r: Option<Content>,
    /// Content of the leftward instance (upstream = higher neighbor).
    l: Option<Content>,
}

/// Which instance a vertex is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Payload flows low → high; upstream is `v − 1`.
    Right,
    /// Payload flows high → low; upstream is `v + 1`.
    Left,
}

#[derive(Debug, Clone)]
struct Inst {
    dir: Dir,
    /// Blocking time `B`.
    b: Slot,
    listen_alarm: Option<Slot>,
    /// Message stored while blocking, to transmit at `B`.
    stored: Option<Content>,
    /// A forward scheduled for this slot (forwarding mode).
    forward: Option<(Slot, Content)>,
    /// Set once the slot-`B` transmission has happened.
    fired_b: bool,
    done: bool,
}

impl Inst {
    fn next_wake(&self) -> Option<Slot> {
        if self.done {
            return None;
        }
        let mut t: Option<Slot> = None;
        let mut consider = |x: Option<Slot>| {
            if let Some(x) = x {
                t = Some(t.map_or(x, |y: Slot| y.min(x)));
            }
        };
        if !self.fired_b {
            consider(Some(self.b));
        }
        consider(self.listen_alarm);
        consider(self.forward.map(|(s, _)| s));
        t
    }
}

/// Statistics of one path-broadcast run.
#[derive(Debug, Clone)]
pub struct PathRunStats {
    /// Whether every vertex received the payload.
    pub all_informed: bool,
    /// Slot at which each vertex first held the payload (source: 0).
    pub delivery_slot: Vec<Option<Slot>>,
    /// The latest payload delivery slot — the broadcast's completion time.
    pub delivery_time: Slot,
    /// Slot of the last protocol action (quiescence; ≥ `delivery_time`).
    pub quiescence: Slot,
}

/// The Algorithm 1 protocol as a [`Schedule::Dynamic`] behavior.
struct PathProtocol {
    n: usize,
    source: NodeId,
    oriented: bool,
    insts: Vec<Vec<Inst>>,
    got_payload: Vec<Option<Slot>>,
    source_done: bool,
    /// What each vertex heard in the slot just resolved (`None` unless it
    /// listened); `next_wake` consumes it.
    heard: Vec<Option<Feedback<PathMsg>>>,
    /// The last slot in which any vertex was polled.
    last_slot: Slot,
}

impl PathProtocol {
    fn new(n: usize, source: NodeId, oriented: bool, rngs: &mut NodeRngs) -> Self {
        let mut insts: Vec<Vec<Inst>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut list = Vec::new();
            if v != source {
                let dirs: &[Dir] = if oriented {
                    &[Dir::Right]
                } else {
                    &[Dir::Right, Dir::Left]
                };
                for &dir in dirs {
                    let b = sample_blocking_time(rngs.get(v), n as u64);
                    list.push(Inst {
                        dir,
                        b,
                        listen_alarm: Some(1),
                        stored: None,
                        forward: None,
                        fired_b: false,
                        done: false,
                    });
                }
            }
            insts.push(list);
        }
        PathProtocol {
            n,
            source,
            oriented,
            insts,
            got_payload: vec![None; n],
            source_done: false,
            heard: vec![None; n],
            last_slot: 0,
        }
    }

    fn upstream(&self, v: NodeId, dir: Dir) -> Option<NodeId> {
        match dir {
            Dir::Right => v.checked_sub(1),
            Dir::Left => (v + 1 < self.n).then_some(v + 1),
        }
    }

    fn downstream(&self, v: NodeId, dir: Dir) -> Option<NodeId> {
        match dir {
            Dir::Right => (v + 1 < self.n).then_some(v + 1),
            Dir::Left => v.checked_sub(1),
        }
    }

    /// What instance `i` of `v` transmits at slot `now`, if anything.
    fn pending_send(&self, v: NodeId, i: usize, now: Slot) -> Option<Content> {
        let inst = &self.insts[v][i];
        if inst.done {
            return None;
        }
        if let Some((s, c)) = inst.forward {
            if s == now {
                return Some(c);
            }
        }
        if !inst.fired_b && inst.b == now {
            // The slot-B transmission: payload/dead-end if stored, else a
            // sync pointing one slot after our next listen alarm.
            return Some(match inst.stored {
                Some(c) => c,
                None => match inst.listen_alarm {
                    Some(a) => Content::Sync {
                        delay: (a + 1).saturating_sub(now).max(1),
                    },
                    // Nothing will ever arrive (no upstream): retire the
                    // direction.
                    None => Content::DeadEnd,
                },
            });
        }
        None
    }
}

fn sample_blocking_time(rng: &mut impl Rng, n: u64) -> Slot {
    let mut b = 1u32;
    while rng.gen_bool(0.5) {
        b += 1;
        if b >= 62 {
            break;
        }
    }
    (1u64 << b).min(n.next_power_of_two())
}

impl SlotBehavior<PathMsg> for PathProtocol {
    fn first_wake(&mut self, _v: NodeId) -> Option<Slot> {
        // Everyone acts at slot 1: the source transmits the payload, all
        // others announce their blocking time and listen.
        Some(1)
    }

    fn act(&mut self, v: NodeId, now: Slot) -> Action<PathMsg> {
        self.last_slot = now;
        if v == self.source {
            if now == 1 && !self.source_done {
                self.got_payload[v] = Some(0);
                return Action::Send(PathMsg {
                    from: v,
                    r: Some(Content::Payload),
                    l: if self.oriented {
                        None
                    } else {
                        Some(Content::Payload)
                    },
                });
            }
            return Action::Idle;
        }
        let mut r_content = None;
        let mut l_content = None;
        let mut listens = false;
        for i in 0..self.insts[v].len() {
            let inst = &self.insts[v][i];
            if inst.done {
                continue;
            }
            if now == 1 {
                // Initial announcement: "next message after B − 1".
                let c = Content::Sync { delay: inst.b - 1 };
                match inst.dir {
                    Dir::Right => r_content = Some(c),
                    Dir::Left => l_content = Some(c),
                }
                listens = true;
                continue;
            }
            if let Some(c) = self.pending_send(v, i, now) {
                match inst.dir {
                    Dir::Right => r_content = Some(c),
                    Dir::Left => l_content = Some(c),
                }
            }
            if inst.listen_alarm == Some(now) {
                listens = true;
            }
        }
        let sends = r_content.is_some() || l_content.is_some();
        let msg = PathMsg {
            from: v,
            r: r_content,
            l: l_content,
        };
        match (sends, listens) {
            (true, true) => Action::SendListen(msg),
            (true, false) => Action::Send(msg),
            (false, true) => Action::Listen,
            (false, false) => Action::Idle,
        }
    }

    fn feedback(&mut self, v: NodeId, _now: Slot, fb: Feedback<PathMsg>) {
        self.heard[v] = Some(fb);
    }

    // Index loop kept: the body borrows `self` (downstream, got_payload)
    // while mutating `self.insts[v][i]`, which `iter_mut` would forbid.
    #[allow(clippy::needless_range_loop)]
    fn next_wake(&mut self, v: NodeId, now: Slot) -> Option<Slot> {
        let heard = self.heard[v].take();
        if v == self.source {
            self.source_done = true;
            return None;
        }
        // Extract, per instance, the content heard from its upstream.
        let mut heard_contents: Vec<Option<Content>> = vec![None; self.insts[v].len()];
        if let Some(Feedback::Many(msgs)) = &heard {
            for (i, inst) in self.insts[v].iter().enumerate() {
                if inst.listen_alarm != Some(now) && now != 1 {
                    continue;
                }
                let up = self.upstream(v, inst.dir);
                for m in msgs {
                    if Some(m.from) == up {
                        heard_contents[i] = match inst.dir {
                            Dir::Right => m.r,
                            Dir::Left => m.l,
                        };
                    }
                }
            }
        }
        for i in 0..self.insts[v].len() {
            // Clear a forward that fired this slot.
            if let Some((s, c)) = self.insts[v][i].forward {
                if s == now {
                    self.insts[v][i].forward = None;
                    if matches!(c, Content::Payload | Content::DeadEnd) {
                        self.insts[v][i].done = true;
                        continue;
                    }
                }
            }
            // The slot-B transmission fired.
            if !self.insts[v][i].fired_b && self.insts[v][i].b == now {
                self.insts[v][i].fired_b = true;
                if matches!(
                    self.insts[v][i].stored,
                    Some(Content::Payload) | Some(Content::DeadEnd)
                ) || (self.insts[v][i].stored.is_none()
                    && self.insts[v][i].listen_alarm.is_none())
                {
                    self.insts[v][i].done = true;
                    continue;
                }
                self.insts[v][i].stored = None;
            }
            // Process what was heard at a listen alarm.
            if self.insts[v][i].listen_alarm == Some(now) {
                self.insts[v][i].listen_alarm = None;
                if let Some(c) = heard_contents[i] {
                    if c == Content::Payload && self.got_payload[v].is_none() {
                        self.got_payload[v] = Some(now);
                    }
                    let down_exists = self.downstream(v, self.insts[v][i].dir).is_some();
                    let inst = &mut self.insts[v][i];
                    let blocking = now < inst.b;
                    match c {
                        Content::Sync { delay } => {
                            inst.listen_alarm = Some(now + delay.max(1));
                            if !blocking {
                                inst.forward = Some((now + 1, c));
                            }
                        }
                        Content::Payload | Content::DeadEnd => {
                            if blocking {
                                inst.stored = Some(c);
                            } else if down_exists {
                                inst.forward = Some((now + 1, c));
                            } else {
                                inst.done = true;
                            }
                        }
                    }
                } else if self.insts[v][i].listen_alarm.is_none() {
                    // Hearing nothing at an alarm means the upstream vertex
                    // has quit (e.g. the source, or a vertex retired by the
                    // mirrored instance); retire this direction.
                    self.insts[v][i].done = true;
                }
            }
        }
        self.insts[v]
            .iter()
            .filter_map(|inst| inst.next_wake())
            .min()
            .map(|t| t.max(now + 1))
    }
}

/// Runs Algorithm 1 on the path `sim.graph()` (which must be the
/// `0–1–…–(n−1)` path) from `source`, drawing randomness from
/// `sim.seed()`.
///
/// If `oriented`, vertices know the payload flows low → high (the §8.1
/// "knows upstream/downstream" model; `source` must be vertex 0); if not,
/// every vertex runs both mirrored instances. Blocking times are always
/// capped at `n`, so the §8.2.1 unknown-`n` remark (uncapped blocking
/// times: expected time infinite, but `O(n)` with probability `1 − ε`) is
/// not simulated.
///
/// The run is one [`Schedule::Dynamic`] drive over every vertex. Wakes
/// past the slot budget `8n + 64` are dropped. The returned slots count
/// from the drive's first slot.
///
/// # Panics
///
/// Panics if the graph is not that path or `oriented` is set with
/// `source != 0`.
pub fn run_path_broadcast(sim: &mut Sim, source: NodeId, oriented: bool) -> PathRunStats {
    let n = sim.graph().n();
    assert!(
        n >= 2 && sim.graph().m() == n - 1 && (0..n - 1).all(|v| sim.graph().has_edge(v, v + 1)),
        "graph must be the 0–1–…–(n−1) path"
    );
    assert!(
        !oriented || source == 0,
        "oriented mode assumes the source is vertex 0"
    );
    let mut rngs = NodeRngs::new(sim.seed(), n, 0x9a78);
    let mut proto = PathProtocol::new(n, source, oriented, &mut rngs);
    let budget = 8 * n as u64 + 64;
    let participants: Vec<NodeId> = (0..n).collect();
    sim.drive(
        Schedule::Dynamic {
            participants: &participants,
            slots: budget + 1,
        },
        &mut proto,
    );
    let delivery_time = proto
        .got_payload
        .iter()
        .filter_map(|&s| s)
        .max()
        .unwrap_or(0);
    PathRunStats {
        all_informed: proto.got_payload.iter().all(|s| s.is_some()),
        delivery_slot: proto.got_payload,
        delivery_time,
        quiescence: proto.last_slot,
    }
}

/// Convenience: build a LOCAL simulation over the `n`-path and run the
/// broadcast, returning the stats and the simulation (for energy
/// inspection).
pub fn path_broadcast(n: usize, source: NodeId, oriented: bool, seed: u64) -> (PathRunStats, Sim) {
    let mut sim = Sim::new(ebc_graphs::deterministic::path(n), Model::Local, seed);
    let stats = run_path_broadcast(&mut sim, source, oriented);
    (stats, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oriented_informs_everyone() {
        for seed in 0..10u64 {
            let (stats, _) = path_broadcast(64, 0, true, seed);
            assert!(stats.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn unoriented_informs_everyone_from_the_middle() {
        for seed in 0..10u64 {
            let (stats, _) = path_broadcast(65, 32, false, seed);
            assert!(stats.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn unoriented_source_at_end() {
        for seed in 0..5u64 {
            let (stats, _) = path_broadcast(32, 31, false, seed);
            assert!(stats.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn delivery_time_within_2n_for_power_of_two() {
        // Theorem 21: worst-case running time 2n (n a power of two, source
        // at the end).
        let n = 128;
        for seed in 0..10u64 {
            let (stats, _) = path_broadcast(n, 0, true, seed);
            assert!(stats.all_informed);
            assert!(
                stats.delivery_time <= 2 * n as u64,
                "seed {seed}: {} > 2n",
                stats.delivery_time
            );
        }
    }

    #[test]
    fn expected_energy_logarithmic() {
        // Mean per-vertex energy over a few runs stays O(log n) with a
        // modest constant (Lemma 23 gives ~4e/(e−2) · ln(2n)).
        let n = 512;
        let mut total_mean = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let (stats, sim) = path_broadcast(n, 0, true, seed);
            assert!(stats.all_informed);
            total_mean += sim.meter().report().mean;
        }
        let avg = total_mean / runs as f64;
        let logn = (n as f64).log2();
        assert!(avg <= 8.0 * logn, "mean energy {avg} vs log n {logn}");
    }

    #[test]
    fn unoriented_costs_at_most_a_small_multiple() {
        let n = 256;
        let (_, e1) = path_broadcast(n, 0, true, 3);
        let (_, e2) = path_broadcast(n, 0, false, 3);
        assert!(
            e2.meter().report().mean <= 3.0 * e1.meter().report().mean + 4.0,
            "{} vs {}",
            e2.meter().report().mean,
            e1.meter().report().mean
        );
    }

    #[test]
    fn blocking_times_are_powers_of_two_capped() {
        let mut rngs = NodeRngs::new(9, 1, 0);
        for _ in 0..200 {
            let b = sample_blocking_time(rngs.get(0), 64);
            assert!(b.is_power_of_two());
            assert!(b <= 64);
        }
    }

    #[test]
    fn two_vertex_path() {
        let (stats, _) = path_broadcast(2, 0, false, 1);
        assert!(stats.all_informed);
        assert!(stats.delivery_time <= 8);
    }

    #[test]
    fn delivery_slots_monotone_with_distance_oriented() {
        let (stats, _) = path_broadcast(64, 0, true, 5);
        assert!(stats.all_informed);
        let slots: Vec<Slot> = stats.delivery_slot.iter().map(|s| s.unwrap()).collect();
        for w in slots.windows(2) {
            assert!(w[0] <= w[1], "{slots:?}");
        }
    }
}
