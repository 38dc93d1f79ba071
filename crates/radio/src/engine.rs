//! The event-driven engine, for protocols with data-dependent wake times.
//!
//! The paper's §8 path algorithm sleeps for long, input-dependent stretches
//! (blocking times, listen alarms), so iterating every device every slot
//! would cost `Θ(n · T)` host time. This engine keeps a wake queue and does
//! work proportional to the number of wake events — which for energy-
//! efficient protocols is proportional to the energy actually spent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::model::{resolve_row, Action, Feedback, Model};
use crate::telemetry::Telemetry;
use crate::{EnergyMeter, Graph, NodeId, Slot};

/// When a device next wants to wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Wake at this (strictly future) slot.
    At(Slot),
    /// The device has terminated and never wakes again.
    Done,
}

/// A device protocol executed by the [`EventEngine`].
///
/// The engine calls [`first_wake`] once per device, then repeatedly
/// [`on_wake`] (at the requested slot) and [`after_slot`] (with feedback if
/// the device listened).
///
/// [`first_wake`]: Protocol::first_wake
/// [`on_wake`]: Protocol::on_wake
/// [`after_slot`]: Protocol::after_slot
pub trait Protocol<M> {
    /// The first slot at which `v` wakes, or [`NextWake::Done`] if it never
    /// participates.
    fn first_wake(&mut self, v: NodeId) -> NextWake;

    /// The action of `v` at its wake slot `now`.
    fn on_wake(&mut self, v: NodeId, now: Slot) -> Action<M>;

    /// Called after the slot resolves. `heard` is `Some` iff `v` listened.
    /// Returns when `v` wakes next; must be strictly after `now`.
    fn after_slot(&mut self, v: NodeId, now: Slot, heard: Option<Feedback<M>>) -> NextWake;
}

/// The result of an [`EventEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// `true` if every device reached [`NextWake::Done`] before the cap.
    pub completed: bool,
    /// The last slot in which any device woke, if any did.
    pub last_slot: Option<Slot>,
}

/// Event-driven executor over a graph and collision model.
#[derive(Debug)]
pub struct EventEngine {
    graph: Arc<Graph>,
    model: Model,
    meter: EnergyMeter,
    /// Opt-in structured recorder; `None` keeps every hook to one check.
    telemetry: Option<Box<Telemetry>>,
    /// Scratch: per-node index+1 into the current slot's sender list (0
    /// when not transmitting).
    sending: Vec<u32>,
    /// Scratch: the packed listening set of the current slot.
    listening: BitSet,
}

impl EventEngine {
    /// A fresh engine over `graph` under `model`.
    ///
    /// Accepts either an owned [`Graph`] or an [`Arc<Graph>`], so seed
    /// sweeps can share one CSR allocation across engines.
    pub fn new(graph: impl Into<Arc<Graph>>, model: Model) -> Self {
        let graph = graph.into();
        let n = graph.n();
        EventEngine {
            graph,
            model,
            meter: EnergyMeter::new(n),
            telemetry: None,
            sending: vec![0; n],
            listening: BitSet::new(n),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the underlying graph (cheap to clone).
    pub fn graph_arc(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Starts recording structured [`Telemetry`] with the default ring
    /// capacities (idempotent). Recording never perturbs the run.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(Telemetry::new()));
        }
    }

    /// Whether a telemetry recorder is attached.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry recorded so far, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches and returns the recorder (for exporting after a run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take().map(|t| *t)
    }

    /// Records an already-closed phase span. No-op without telemetry.
    pub fn span_at(&mut self, name: &'static str, start: Slot, end: Slot) {
        if let Some(t) = &mut self.telemetry {
            t.span_at(name, start, end);
        }
    }

    /// Records one gauge sample. No-op without telemetry.
    pub fn record_gauge(&mut self, name: &'static str, slot: Slot, value: f64) {
        if let Some(t) = &mut self.telemetry {
            t.record_gauge(name, slot, value);
        }
    }

    /// Runs `protocol` until every device terminates or a device asks to
    /// wake after `max_slot` (a safety cap against runaway protocols).
    ///
    /// # Panics
    ///
    /// Panics if a device schedules a wake that is not strictly in the
    /// future.
    pub fn run<M, P>(&mut self, protocol: &mut P, max_slot: Slot) -> RunOutcome
    where
        M: Clone + core::fmt::Debug,
        P: Protocol<M>,
    {
        let n = self.graph.n();
        let mut queue: BinaryHeap<Reverse<(Slot, NodeId)>> = BinaryHeap::new();
        for v in 0..n {
            match protocol.first_wake(v) {
                NextWake::At(t) => queue.push(Reverse((t, v))),
                NextWake::Done => {}
            }
        }
        let mut awake: Vec<NodeId> = Vec::new();
        let mut senders: Vec<(NodeId, M)> = Vec::new();
        let mut listeners: Vec<NodeId> = Vec::new();
        let mut last_slot = None;
        let mut truncated = false;
        while let Some(&Reverse((t, _))) = queue.peek() {
            if t > max_slot {
                truncated = true;
                break;
            }
            awake.clear();
            senders.clear();
            listeners.clear();
            while let Some(&Reverse((t2, v))) = queue.peek() {
                if t2 != t {
                    break;
                }
                queue.pop();
                awake.push(v);
            }
            last_slot = Some(t);
            if let Some(tel) = &mut self.telemetry {
                tel.begin_slot(t, awake.len() as u32);
            }
            for &v in &awake {
                match protocol.on_wake(v, t) {
                    Action::Idle => {}
                    Action::Send(m) => {
                        self.meter.charge_send(v, t);
                        if let Some(tel) = &mut self.telemetry {
                            tel.note_tx(v);
                        }
                        senders.push((v, m));
                    }
                    Action::Listen => {
                        self.meter.charge_listen(v, t);
                        self.listening.insert(v);
                        listeners.push(v);
                    }
                    Action::SendListen(m) => {
                        self.meter.charge_send(v, t);
                        self.meter.charge_listen(v, t);
                        if let Some(tel) = &mut self.telemetry {
                            tel.note_tx(v);
                        }
                        senders.push((v, m));
                        self.listening.insert(v);
                        listeners.push(v);
                    }
                }
            }
            for (i, (v, _)) in senders.iter().enumerate() {
                self.sending[*v] = i as u32 + 1;
            }
            let sending = &self.sending;
            for &v in &awake {
                let heard = if self.listening.contains(v) {
                    let fb = resolve_row(
                        self.model,
                        self.graph.neighbor_row(v),
                        |u| sending[u as usize] != 0,
                        sending,
                        &senders,
                    );
                    if let Some(tel) = &mut self.telemetry {
                        match &fb {
                            Feedback::Silence => tel.note_silence(v),
                            Feedback::Noise | Feedback::Beep => tel.note_noise(v),
                            Feedback::One(_) | Feedback::Many(_) => tel.note_recv(v),
                        }
                    }
                    Some(fb)
                } else {
                    None
                };
                match protocol.after_slot(v, t, heard) {
                    NextWake::At(t2) => {
                        assert!(t2 > t, "device {v} scheduled non-future wake {t2} <= {t}");
                        queue.push(Reverse((t2, v)));
                    }
                    NextWake::Done => {}
                }
            }
            for (v, _) in &senders {
                self.sending[*v] = 0;
            }
            for &v in &listeners {
                self.listening.remove(v);
            }
            if let Some(tel) = &mut self.telemetry {
                tel.end_slot();
            }
        }
        RunOutcome {
            completed: !truncated,
            last_slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A relay race along a path: node 0 sends at slot 1; each node listens
    /// at its own index slot and relays one slot later.
    struct Relay {
        n: usize,
        got: Vec<bool>,
    }

    impl Protocol<u8> for Relay {
        fn first_wake(&mut self, v: NodeId) -> NextWake {
            NextWake::At(v as Slot + 1)
        }
        fn on_wake(&mut self, v: NodeId, _now: Slot) -> Action<u8> {
            if v == 0 {
                Action::Send(7)
            } else {
                Action::Listen
            }
        }
        fn after_slot(&mut self, v: NodeId, now: Slot, heard: Option<Feedback<u8>>) -> NextWake {
            if v == 0 {
                self.got[0] = true;
                return NextWake::Done;
            }
            match heard {
                Some(Feedback::One(7)) => {
                    self.got[v] = true;
                    if v + 1 < self.n {
                        // Relay: become a sender next slot.
                        NextWake::At(now + 1)
                    } else {
                        NextWake::Done
                    }
                }
                _ if self.got[v] => {
                    // Already relayed (we woke once more to send).
                    NextWake::Done
                }
                _ => NextWake::At(now + 1),
            }
        }
    }

    // Relay as written above listens forever; simpler correctness test below.

    struct PingPong {
        rounds: u32,
        log: Vec<(Slot, NodeId)>,
    }

    impl Protocol<u32> for PingPong {
        fn first_wake(&mut self, v: NodeId) -> NextWake {
            let _ = v;
            NextWake::At(1)
        }
        fn on_wake(&mut self, v: NodeId, now: Slot) -> Action<u32> {
            // Node 0 sends on odd slots, node 1 listens on odd slots;
            // roles swap on even slots.
            let odd = now % 2 == 1;
            if (v == 0) == odd {
                Action::Send(now as u32)
            } else {
                Action::Listen
            }
        }
        fn after_slot(&mut self, v: NodeId, now: Slot, heard: Option<Feedback<u32>>) -> NextWake {
            if let Some(Feedback::One(m)) = heard {
                self.log.push((m as Slot, v));
            }
            if now >= self.rounds as Slot {
                NextWake::Done
            } else {
                NextWake::At(now + 1)
            }
        }
    }

    #[test]
    fn ping_pong_alternates() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut eng = EventEngine::new(g, Model::NoCd);
        let mut p = PingPong {
            rounds: 6,
            log: Vec::new(),
        };
        let out = eng.run(&mut p, 100);
        assert!(out.completed);
        assert_eq!(out.last_slot, Some(6));
        // Every slot 1..=6 delivered a message to the listening side.
        assert_eq!(p.log.len(), 6);
        for (i, &(slot, _)) in p.log.iter().enumerate() {
            assert_eq!(slot, i as Slot + 1);
        }
        // Each node spent exactly 6 energy (send or listen each slot).
        assert_eq!(eng.meter().energy(0), 6);
        assert_eq!(eng.meter().energy(1), 6);
    }

    #[test]
    fn truncation_reported() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut eng = EventEngine::new(g, Model::NoCd);
        let mut p = PingPong {
            rounds: 1000,
            log: Vec::new(),
        };
        let out = eng.run(&mut p, 10);
        assert!(!out.completed);
        assert!(out.last_slot.unwrap() <= 10);
    }

    #[test]
    fn sleeping_nodes_cost_nothing() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        struct OnlyZero;
        impl Protocol<u8> for OnlyZero {
            fn first_wake(&mut self, v: NodeId) -> NextWake {
                if v == 0 {
                    NextWake::At(5)
                } else {
                    NextWake::Done
                }
            }
            fn on_wake(&mut self, _v: NodeId, _now: Slot) -> Action<u8> {
                Action::Send(1)
            }
            fn after_slot(&mut self, _v: NodeId, _now: Slot, _h: Option<Feedback<u8>>) -> NextWake {
                NextWake::Done
            }
        }
        let mut eng = EventEngine::new(g, Model::Cd);
        let out = eng.run(&mut OnlyZero, 100);
        assert!(out.completed);
        assert_eq!(out.last_slot, Some(5));
        assert_eq!(eng.meter().energy(0), 1);
        assert_eq!(eng.meter().energy(1), 0);
        assert_eq!(eng.meter().energy(2), 0);
    }

    #[test]
    #[should_panic(expected = "non-future wake")]
    fn non_future_wake_panics() {
        let g = Graph::from_edges(1, &[]).unwrap();
        struct Bad;
        impl Protocol<u8> for Bad {
            fn first_wake(&mut self, _v: NodeId) -> NextWake {
                NextWake::At(1)
            }
            fn on_wake(&mut self, _v: NodeId, _now: Slot) -> Action<u8> {
                Action::Idle
            }
            fn after_slot(&mut self, _v: NodeId, now: Slot, _h: Option<Feedback<u8>>) -> NextWake {
                NextWake::At(now)
            }
        }
        EventEngine::new(g, Model::NoCd).run(&mut Bad, 100);
    }

    #[test]
    fn relay_reaches_everyone_without_collisions() {
        // Schedule relays so transmissions never collide: node v listens at
        // slot v (when its upstream neighbor relays) and sends at slot v+1.
        let n = 8;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        struct Chain {
            n: usize,
            got: Vec<bool>,
        }
        impl Protocol<u8> for Chain {
            fn first_wake(&mut self, v: NodeId) -> NextWake {
                if v == 0 {
                    NextWake::At(1)
                } else {
                    NextWake::At(v as Slot)
                }
            }
            fn on_wake(&mut self, v: NodeId, now: Slot) -> Action<u8> {
                if v == 0 {
                    Action::Send(42)
                } else if now == v as Slot {
                    Action::Listen
                } else {
                    // Second wake: relay.
                    Action::Send(42)
                }
            }
            fn after_slot(
                &mut self,
                v: NodeId,
                now: Slot,
                heard: Option<Feedback<u8>>,
            ) -> NextWake {
                if v == 0 {
                    self.got[0] = true;
                    return NextWake::Done;
                }
                if let Some(Feedback::One(42)) = heard {
                    self.got[v] = true;
                    if v + 1 < self.n {
                        return NextWake::At(now + 1);
                    }
                }
                NextWake::Done
            }
        }
        let mut eng = EventEngine::new(g, Model::NoCd);
        let mut p = Chain {
            n,
            got: vec![false; n],
        };
        let out = eng.run(&mut p, 1000);
        assert!(out.completed);
        assert!(p.got.iter().all(|&b| b), "got = {:?}", p.got);
        // The message advances one hop per slot; the last listener hears it
        // at slot n-1.
        assert_eq!(out.last_slot, Some(n as Slot - 1));
        // Interior nodes: 1 listen + 1 send.
        assert_eq!(eng.meter().energy(3), 2);
        // Endpoints: 1 each.
        assert_eq!(eng.meter().energy(0), 1);
        assert_eq!(eng.meter().energy(n - 1), 1);
    }

    #[test]
    fn dense_slots_resolve_feedback_for_exactly_the_listeners() {
        // Every device is awake every slot; roles alternate by slot parity,
        // so yesterday's listeners are today's senders. Listeners must get
        // `Some` feedback, senders `None`, with no carry-over between slots.
        let n = 12;
        let g = crate::Graph::from_edges(
            n,
            &(0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        struct Dense {
            rounds: Slot,
            heard: Vec<(Slot, NodeId, bool)>,
        }
        impl Protocol<u8> for Dense {
            fn first_wake(&mut self, _v: NodeId) -> NextWake {
                NextWake::At(1)
            }
            fn on_wake(&mut self, v: NodeId, now: Slot) -> Action<u8> {
                if (v as Slot + now) % 2 == 0 {
                    Action::Listen
                } else {
                    Action::Send(1)
                }
            }
            fn after_slot(
                &mut self,
                v: NodeId,
                now: Slot,
                heard: Option<Feedback<u8>>,
            ) -> NextWake {
                self.heard.push((now, v, heard.is_some()));
                if now >= self.rounds {
                    NextWake::Done
                } else {
                    NextWake::At(now + 1)
                }
            }
        }
        let mut eng = EventEngine::new(g, Model::Cd);
        let mut p = Dense {
            rounds: 4,
            heard: Vec::new(),
        };
        let out = eng.run(&mut p, 100);
        assert!(out.completed);
        assert_eq!(p.heard.len(), 4 * n);
        for &(now, v, got) in &p.heard {
            let listened = (v as Slot + now) % 2 == 0;
            assert_eq!(got, listened, "slot {now} node {v}");
        }
        // 6 senders per slot on a clique: every listener heard noise, which
        // the meter sees as one listen charge per listening slot.
        assert_eq!(eng.meter().energy(0), 4);
    }

    // Silence the unused struct warning for Relay (kept as documentation of
    // a subtle pitfall: listen-forever protocols never complete).
    #[test]
    fn relay_struct_is_constructible() {
        let r = Relay {
            n: 1,
            got: vec![false],
        };
        assert_eq!(r.n, 1);
    }
}
