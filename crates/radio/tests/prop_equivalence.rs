//! Differential property suite: [`Sim::drive`] must be bit-for-bit
//! equivalent to an independent naive oracle — informed set, feedback log,
//! per-node energy, clock, `last_active` — across every collision model,
//! on random graphs, random scripted behaviors, all three [`Schedule`]
//! shapes (dense, sparse, dynamic), and the fault plans.
//!
//! The oracle shares no code with the engine's slot kernel: it polls every
//! device in every slot and resolves each listener through the public
//! [`resolve`] over [`Graph::neighbors`]. Any divergence in the row scan's
//! early exits, CD\*'s lowest-id pick, LOCAL's ascending message order,
//! the slot-loss drop, or the schedule drivers' clock/energy accounting
//! fails here with the case seed.

use ebc_radio::{
    resolve, Action, FaultPlan, FaultState, Feedback, Graph, Model, NodeId, Schedule, Sim,
    SlotBehavior, SlotVerdict, SparseSchedule,
};
use proptest::prelude::*;

/// Every fault plan at zero strength: the fault layer runs (draws its
/// verdicts, applies its empty crash list) but must never perturb the
/// engine. [`FaultPlan::None`] additionally asserts the no-state fast
/// path.
fn zero_strength_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::None,
        FaultPlan::SlotLoss { p: 0.0 },
        FaultPlan::Crash { schedule: vec![] },
        FaultPlan::Jammer {
            budget: 0,
            period: 1,
        },
    ]
}

/// Splitmix-style mixer: a pure hash of (seed, v, t), so every engine
/// sees identical actions no matter how often or in what order it polls.
fn mix(seed: u64, v: u64, t: u64) -> u64 {
    let mut z =
        seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random connected-enough graph: a deterministic spanning path plus
/// `extra` random chords, so every density from near-tree to dense occurs.
fn random_graph(n: usize, seed: u64) -> Graph {
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let extra = (mix(seed, 0, 0) % (2 * n as u64)) as usize;
    for i in 0..extra {
        let u = (mix(seed, 1, i as u64) % n as u64) as usize;
        let v = (mix(seed, 2, i as u64) % n as u64) as usize;
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// A scripted behavior: the action of `(v, t)` is a pure function of the
/// seed, so the oracle and every schedule shape replay the exact same
/// script. Records everything the runs must agree on.
struct Scripted {
    seed: u64,
    slots: u64,
    /// `informed[v]` once `v` received at least one message.
    informed: Vec<bool>,
    /// Every feedback delivery, in delivery order.
    log: Vec<(NodeId, u64, Feedback<u32>)>,
}

impl Scripted {
    fn new(seed: u64, n: usize, slots: u64) -> Self {
        Scripted {
            seed,
            slots,
            informed: vec![false; n],
            log: Vec::new(),
        }
    }

    /// Whether `v` is scripted to be active (non-idle) in slot `t`.
    fn active(&self, v: NodeId, t: u64) -> bool {
        mix(self.seed, v as u64, t) % 4 != 0
    }

    fn scripted_action(&self, v: NodeId, t: u64) -> Action<u32> {
        if !self.active(v, t) {
            return Action::Idle;
        }
        let msg = (v as u32) << 8 | (t as u32 & 0xff);
        match mix(self.seed, v as u64 ^ 0xabcd, t) % 4 {
            0 | 1 => Action::Listen,
            2 => Action::Send(msg),
            _ => Action::SendListen(msg),
        }
    }
}

impl SlotBehavior<u32> for Scripted {
    fn act(&mut self, v: NodeId, t: u64) -> Action<u32> {
        self.scripted_action(v, t)
    }

    fn feedback(&mut self, v: NodeId, t: u64, fb: Feedback<u32>) {
        if matches!(fb, Feedback::One(_) | Feedback::Many(_)) {
            self.informed[v] = true;
        }
        self.log.push((v, t, fb));
    }

    // Wake hints for Schedule::Dynamic: exactly the scripted active slots.
    // Skipped slots are Idle by construction and consume no randomness, so
    // the dynamic run must be bit-identical to the dense one.
    fn first_wake(&mut self, v: NodeId) -> Option<u64> {
        (0..self.slots).find(|&t| self.active(v, t))
    }

    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        (t + 1..self.slots).find(|&t2| self.active(v, t2))
    }
}

/// What every engine/schedule combination must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    informed: Vec<bool>,
    log: Vec<(NodeId, u64, Feedback<u32>)>,
    energy: Vec<u64>,
    clock: u64,
    last_active: Option<u64>,
}

fn outcome(sim: &Sim, b: Scripted) -> Outcome {
    Outcome {
        informed: b.informed,
        log: b.log,
        energy: (0..sim.graph().n())
            .map(|v| sim.meter().energy(v))
            .collect(),
        clock: sim.now(),
        last_active: sim.meter().last_active(),
    }
}

/// The independent oracle: a naive dense loop over every device and slot,
/// resolving each listener with the public [`resolve`] over
/// [`Graph::neighbors`]. With `faults` (a clone of a run's fault state),
/// every slot in which some device listens asks the public
/// [`FaultState::verdict`], and a [`SlotVerdict::Lost`] slot delivers
/// nothing.
fn naive(
    graph: &Graph,
    model: Model,
    script_seed: u64,
    slots: u64,
    mut faults: Option<FaultState>,
) -> Outcome {
    let n = graph.n();
    let mut b = Scripted::new(script_seed, n, slots);
    let mut energy = vec![0u64; n];
    let mut last_active = None;
    for t in 0..slots {
        let actions: Vec<Action<u32>> = (0..n).map(|v| b.act(v, t)).collect();
        for (v, action) in actions.iter().enumerate() {
            if action.energy() > 0 {
                energy[v] += action.energy();
                last_active = Some(t);
            }
        }
        let lost = actions.iter().any(Action::listens)
            && faults
                .as_mut()
                .is_some_and(|f| f.verdict(t) == SlotVerdict::Lost);
        for v in (0..n).filter(|&v| actions[v].listens()) {
            let heard = graph
                .neighbors(v)
                .filter(|_| !lost)
                .filter_map(|u| actions[u].message().map(|&m| (u, m)));
            let fb = resolve(model, heard);
            b.feedback(v, t, fb);
        }
    }
    Outcome {
        informed: b.informed,
        log: b.log,
        energy,
        clock: slots,
        last_active,
    }
}

/// The schedule shapes every equivalence case is driven under.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense,
    Sparse,
    Dynamic,
}

/// Drives `sim` with a fresh script under `shape`: dense polls every
/// device every slot, sparse names exactly the scripted active polls, and
/// dynamic follows the script's wake hints.
fn drive(sim: &mut Sim, shape: Shape, script_seed: u64, slots: u64) -> Outcome {
    let n = sim.graph().n();
    let all: Vec<NodeId> = (0..n).collect();
    let mut b = Scripted::new(script_seed, n, slots);
    match shape {
        Shape::Dense => sim.drive(
            Schedule::Dense {
                participants: &all,
                slots,
            },
            &mut b,
        ),
        Shape::Sparse => {
            let mut sparse = SparseSchedule::new();
            for t in 0..slots {
                let row: Vec<NodeId> = (0..n).filter(|&v| b.active(v, t)).collect();
                if !row.is_empty() {
                    sparse.push(t, row);
                }
            }
            sim.drive(
                Schedule::Sparse {
                    schedule: &sparse,
                    slots,
                },
                &mut b,
            );
            // Every unscheduled slot was batch-skipped, not simulated.
            assert_eq!(sim.meter().idle_skipped(), slots - sparse.len() as u64);
        }
        Shape::Dynamic => sim.drive(
            Schedule::Dynamic {
                participants: &all,
                slots,
            },
            &mut b,
        ),
    }
    outcome(sim, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Telemetry differential: enabling the recorder must not perturb the
    /// engine. A traced dense drive must match the untraced one —
    /// informed set, feedback log, per-node energy, clock, `last_active`,
    /// `idle_skipped`, and the rng-driven collision outcomes folded into
    /// all of those — bit-for-bit on every model, while actually
    /// recording (non-empty events and counters once anything transmits).
    #[test]
    fn telemetry_does_not_perturb_the_engine(
        n in 2usize..32,
        graph_seed in any::<u64>(),
        script_seed in any::<u64>(),
        slots in 1u64..20,
    ) {
        let graph = random_graph(n, graph_seed);
        for model in Model::ALL {
            let mut plain_sim = Sim::new(graph.clone(), model, 0);
            let plain = drive(&mut plain_sim, Shape::Dense, script_seed, slots);

            let mut traced_sim = Sim::new(graph.clone(), model, 0);
            traced_sim.enable_telemetry();
            let traced = drive(&mut traced_sim, Shape::Dense, script_seed, slots);
            prop_assert_eq!(
                traced_sim.meter().idle_skipped(),
                plain_sim.meter().idle_skipped()
            );
            prop_assert_eq!(&traced, &plain, "traced vs plain, {}", model);

            // The recorder really recorded: a scripted sender exists in
            // almost every case, and whenever one does the event ring and
            // the per-slot counters must have seen it.
            let tel = traced_sim.take_telemetry().expect("telemetry enabled");
            if plain.energy.iter().any(|&e| e > 0) {
                prop_assert!(tel.event_count() > 0, "no events on {}", model);
                prop_assert!(tel.counters().count() > 0, "no counters on {}", model);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drive_matches_naive_oracle_on_all_models(
        n in 2usize..40,
        graph_seed in any::<u64>(),
        script_seed in any::<u64>(),
        slots in 1u64..24,
    ) {
        let graph = random_graph(n, graph_seed);
        for model in Model::ALL {
            let oracle = naive(&graph, model, script_seed, slots, None);
            for shape in [Shape::Dense, Shape::Sparse, Shape::Dynamic] {
                let mut sim = Sim::new(graph.clone(), model, 0);
                let got = drive(&mut sim, shape, script_seed, slots);
                prop_assert_eq!(&got, &oracle, "{:?} vs oracle, {}", shape, model);
            }

            // Fault differential: a faulted dense drive at zero strength —
            // every plan kind with probability 0, empty event lists, or a
            // jammer that never fires — must match the clean oracle
            // bit-for-bit, simulate every slot, and destroy no send.
            for plan in zero_strength_plans() {
                let name = format!("{plan:?}");
                let mut sim = Sim::with_faults(graph.clone(), model, 0, plan);
                let got = drive(&mut sim, Shape::Dense, script_seed, slots);
                prop_assert_eq!(sim.meter().idle_skipped(), 0);
                prop_assert_eq!(
                    sim.meter().total_lost_sends(),
                    0,
                    "zero-strength {} destroyed a send",
                    name
                );
                prop_assert_eq!(&got, &oracle, "faulted({}) vs oracle, {}", name, model);
            }

            // Slot loss at p = 0.3 drops whole slots before the row scan;
            // the oracle drops the same ones through the public verdicts
            // of a clone of the run's own fault state.
            for shape in [Shape::Dense, Shape::Sparse, Shape::Dynamic] {
                let plan = FaultPlan::SlotLoss { p: 0.3 };
                let mut sim = Sim::with_faults(graph.clone(), model, 0, plan);
                let faults = sim.fault_state().cloned();
                prop_assert!(faults.is_some(), "an active plan stores its state");
                let got = drive(&mut sim, shape, script_seed, slots);
                let lossy = naive(&graph, model, script_seed, slots, faults);
                prop_assert_eq!(&got, &lossy, "slot-loss {:?} vs oracle, {}", shape, model);
            }
        }
    }
}
