//! Structured, zero-cost-when-off instrumentation for the engines.
//!
//! The paper's protocols are phase machines — epochs, down-sweep rounds,
//! cluster stages, decay sweeps — whose behavior used to be invisible
//! except through final [`crate::EnergyMeter`] aggregates (plus the old
//! stringified trace that existed solely to render Figure 1). This module
//! is the observability layer that replaces it:
//!
//! * **Slot events** ([`SlotEvent`]) — one binary-packed record per
//!   node-level channel event (tx / recv / silence / noise / jammed /
//!   lost / crashed), held in a bounded drop-oldest ring buffer. No
//!   `String` is ever formatted.
//! * **Per-slot counters** ([`SlotCounters`]) — an aggregate time series
//!   (transmitters, deliveries, collisions, loss/jam tallies, down
//!   devices) with one row per *simulated* slot, also ring-bounded.
//! * **Phase spans** ([`Span`]) — named, nestable intervals that
//!   algorithm code opens and closes around its protocol phases via
//!   [`Telemetry::span_enter`] / [`Telemetry::span_exit`] (or records
//!   retroactively via [`Telemetry::span_at`]).
//! * **Gauges** — named `(slot, value)` samples for algorithm-level
//!   curves the engine cannot see, e.g. the informed-set size.
//!
//! Recording is opt-in per engine ([`crate::Sim::enable_telemetry`]).
//! When it is off the engines hold no `Telemetry` at all — every hook is
//! a single `Option` check on a `None` — so instrumented and
//! uninstrumented runs are bit-identical in results, energy, clock, and
//! random streams (property-tested in `tests/prop_equivalence.rs`).
//!
//! Two exporters are provided: [`Telemetry::chrome_trace`] emits Chrome
//! trace-event JSON loadable in Perfetto (`ui.perfetto.dev`) with one
//! microsecond standing in for one slot, and [`Telemetry::to_jsonl`]
//! emits the full record set as compact JSON Lines for ad-hoc tooling.

use std::collections::VecDeque;

use crate::{NodeId, Slot};

/// Default capacity of the slot-event ring buffer (events beyond it drop
/// the oldest first; see [`Telemetry::events_dropped`]).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// Default capacity of the per-slot counter ring buffer.
pub const DEFAULT_COUNTER_CAPACITY: usize = 1 << 16;

/// Maximum number of recorded spans; spans past it are counted, not
/// stored ([`Telemetry::spans_dropped`]). Spans are per protocol phase,
/// not per slot, so real runs sit far below this.
pub const MAX_SPANS: usize = 1 << 16;

/// What one [`SlotEvent`] records about one node in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The node transmitted (it may still be lost or jammed later in
    /// the same slot — those add separate events).
    Tx,
    /// The node listened and decoded at least one message.
    Recv,
    /// The node listened and heard silence.
    Silence,
    /// The node listened and heard noise (or a beep under Beep).
    Noise,
    /// The node listened into a jammed slot and heard channel garbage.
    Jammed,
    /// The node's transmission this slot was destroyed by a fault
    /// verdict (slot loss or jamming) — the per-slot view of
    /// `lost_sends`.
    Lost,
    /// The node crashed at this slot.
    Crashed,
}

impl EventKind {
    /// The stable lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Tx => "tx",
            EventKind::Recv => "recv",
            EventKind::Silence => "silence",
            EventKind::Noise => "noise",
            EventKind::Jammed => "jammed",
            EventKind::Lost => "lost",
            EventKind::Crashed => "crashed",
        }
    }

    fn from_bits(bits: u64) -> EventKind {
        match bits {
            0 => EventKind::Tx,
            1 => EventKind::Recv,
            2 => EventKind::Silence,
            3 => EventKind::Noise,
            4 => EventKind::Jammed,
            5 => EventKind::Lost,
            _ => EventKind::Crashed,
        }
    }

    fn to_bits(self) -> u64 {
        match self {
            EventKind::Tx => 0,
            EventKind::Recv => 1,
            EventKind::Silence => 2,
            EventKind::Noise => 3,
            EventKind::Jammed => 4,
            EventKind::Lost => 5,
            EventKind::Crashed => 6,
        }
    }
}

/// One binary-packed slot event: 16 bytes, no heap data.
///
/// The node id and kind share one word (`node << 3 | kind`), so a full
/// default ring holds a million events in 16 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotEvent {
    /// The global slot the event happened in.
    pub slot: Slot,
    data: u64,
}

impl SlotEvent {
    fn new(slot: Slot, node: NodeId, kind: EventKind) -> SlotEvent {
        SlotEvent {
            slot,
            data: ((node as u64) << 3) | kind.to_bits(),
        }
    }

    /// The node the event concerns.
    pub fn node(&self) -> NodeId {
        (self.data >> 3) as NodeId
    }

    /// What happened.
    pub fn kind(&self) -> EventKind {
        EventKind::from_bits(self.data & 0b111)
    }
}

/// Aggregate counters for one simulated slot.
///
/// Skipped slots ([`crate::Sim::skip`]) produce no row — the series
/// covers exactly the slots the engine stepped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCounters {
    /// The global slot number.
    pub slot: Slot,
    /// Participants offered a poll this slot (including masked-down
    /// devices).
    pub polled: u32,
    /// Devices that transmitted.
    pub tx: u32,
    /// Devices that listened.
    pub listeners: u32,
    /// Listeners that decoded at least one message.
    pub delivered: u32,
    /// Listeners that heard a collision (noise/beep).
    pub collisions: u32,
    /// Listeners that heard silence.
    pub silent: u32,
    /// Transmissions destroyed by a fault verdict this slot.
    pub lost: u32,
    /// Listeners that heard a jammed channel this slot.
    pub jammed: u32,
    /// Devices currently down (crashed).
    pub down: u32,
}

impl SlotCounters {
    /// Energy charged this slot: every transmitter and every listener
    /// pays one unit (a send+listen device pays both).
    pub fn energy(&self) -> u64 {
        self.tx as u64 + self.listeners as u64
    }
}

/// One named phase interval, in slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The phase name (a static label from the algorithm code).
    pub name: &'static str,
    /// First slot of the phase.
    pub start: Slot,
    /// One past the last slot of the phase; [`Slot::MAX`] while the
    /// span is still open.
    pub end: Slot,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u32,
}

impl Span {
    /// Whether the span has not been closed yet.
    pub fn is_open(&self) -> bool {
        self.end == Slot::MAX
    }
}

/// One named gauge sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// The slot the sample refers to.
    pub slot: Slot,
    /// The series name (a static label from the algorithm code).
    pub name: &'static str,
    /// The sampled value.
    pub value: f64,
}

/// The recording state behind an instrumented engine run.
///
/// Engines own one behind an `Option` (see
/// [`crate::Sim::enable_telemetry`]); algorithms reach it through the
/// engine's span/gauge forwarding methods, and callers pull it out with
/// [`crate::Sim::take_telemetry`] to export.
#[derive(Debug, Clone)]
pub struct Telemetry {
    events: VecDeque<SlotEvent>,
    events_cap: usize,
    events_dropped: u64,
    counters: VecDeque<SlotCounters>,
    counters_cap: usize,
    counters_dropped: u64,
    /// The row being filled for the slot currently stepping.
    current: SlotCounters,
    /// Whether `current` holds a begun-but-unflushed row.
    current_open: bool,
    spans: Vec<Span>,
    spans_dropped: u64,
    /// Indices of open spans in `spans` (`None` if that enter was
    /// dropped at capacity — the matching exit then balances silently).
    open: Vec<Option<usize>>,
    gauges: Vec<Gauge>,
    /// The largest slot seen, used to close still-open spans on export.
    last_slot: Slot,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A recorder with the default ring capacities.
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_EVENT_CAPACITY, DEFAULT_COUNTER_CAPACITY)
    }

    /// A recorder holding at most `events` slot events and `counters`
    /// per-slot rows (both drop-oldest once full).
    pub fn with_capacity(events: usize, counters: usize) -> Telemetry {
        Telemetry {
            events: VecDeque::new(),
            events_cap: events.max(1),
            events_dropped: 0,
            counters: VecDeque::new(),
            counters_cap: counters.max(1),
            counters_dropped: 0,
            current: SlotCounters::default(),
            current_open: false,
            spans: Vec::new(),
            spans_dropped: 0,
            open: Vec::new(),
            gauges: Vec::new(),
            last_slot: 0,
        }
    }

    /// Opens the counter row for `slot` with `polled` offered
    /// participants. Called by the engine once per simulated slot.
    pub fn begin_slot(&mut self, slot: Slot, polled: u32) {
        if self.current_open {
            self.flush_current();
        }
        self.current = SlotCounters {
            slot,
            polled,
            ..SlotCounters::default()
        };
        self.current_open = true;
        self.last_slot = self.last_slot.max(slot);
    }

    /// Flushes the current counter row. Called by the engine at the end
    /// of each simulated slot.
    pub fn end_slot(&mut self) {
        if self.current_open {
            self.flush_current();
        }
    }

    fn flush_current(&mut self) {
        if self.counters.len() == self.counters_cap {
            self.counters.pop_front();
            self.counters_dropped += 1;
        }
        self.counters.push_back(self.current);
        self.current_open = false;
    }

    fn push_event(&mut self, node: NodeId, kind: EventKind) {
        if self.events.len() == self.events_cap {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events
            .push_back(SlotEvent::new(self.current.slot, node, kind));
    }

    /// Records that `node` transmitted in the current slot.
    pub fn note_tx(&mut self, node: NodeId) {
        self.current.tx += 1;
        self.push_event(node, EventKind::Tx);
    }

    /// Records that listener `node` decoded at least one message.
    pub fn note_recv(&mut self, node: NodeId) {
        self.current.listeners += 1;
        self.current.delivered += 1;
        self.push_event(node, EventKind::Recv);
    }

    /// Records that listener `node` heard silence.
    pub fn note_silence(&mut self, node: NodeId) {
        self.current.listeners += 1;
        self.current.silent += 1;
        self.push_event(node, EventKind::Silence);
    }

    /// Records that listener `node` heard a collision (noise or beep).
    pub fn note_noise(&mut self, node: NodeId) {
        self.current.listeners += 1;
        self.current.collisions += 1;
        self.push_event(node, EventKind::Noise);
    }

    /// Records that listener `node` heard a jammed channel.
    pub fn note_jammed(&mut self, node: NodeId) {
        self.current.listeners += 1;
        self.current.jammed += 1;
        self.push_event(node, EventKind::Jammed);
    }

    /// Records that `node`'s transmission was destroyed by the slot's
    /// fault verdict.
    pub fn note_lost(&mut self, node: NodeId) {
        self.current.lost += 1;
        self.push_event(node, EventKind::Lost);
    }

    /// Records that `node` went down at the current slot.
    pub fn note_crashed(&mut self, node: NodeId) {
        self.push_event(node, EventKind::Crashed);
    }

    /// Sets the current slot's count of down devices.
    pub fn set_down(&mut self, down: u32) {
        self.current.down = down;
    }

    /// Opens a phase span named `name` at `start`. Spans nest: a later
    /// enter before this one's exit records a deeper span.
    pub fn span_enter(&mut self, name: &'static str, start: Slot) {
        self.last_slot = self.last_slot.max(start);
        let depth = self.open.len() as u32;
        if self.spans.len() >= MAX_SPANS {
            self.spans_dropped += 1;
            self.open.push(None);
            return;
        }
        self.open.push(Some(self.spans.len()));
        self.spans.push(Span {
            name,
            start,
            end: Slot::MAX,
            depth,
        });
    }

    /// Closes the innermost open span at `end`. A stray exit with no
    /// open span is ignored.
    pub fn span_exit(&mut self, end: Slot) {
        self.last_slot = self.last_slot.max(end);
        if let Some(Some(i)) = self.open.pop() {
            let span = &mut self.spans[i];
            span.end = end.max(span.start);
        }
    }

    /// Records an already-closed span retroactively, at the current
    /// nesting depth — for phases whose bounds are only known after the
    /// fact (e.g. per-sweep intervals inside one dense drive).
    pub fn span_at(&mut self, name: &'static str, start: Slot, end: Slot) {
        self.last_slot = self.last_slot.max(end);
        if self.spans.len() >= MAX_SPANS {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            depth: self.open.len() as u32,
        });
    }

    /// Records one sample of the gauge series `name` at `slot` — e.g.
    /// the informed-set size after each relabeling round.
    pub fn record_gauge(&mut self, name: &'static str, slot: Slot, value: f64) {
        self.last_slot = self.last_slot.max(slot);
        self.gauges.push(Gauge { slot, name, value });
    }

    /// The retained slot events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = SlotEvent> + '_ {
        self.events.iter().copied()
    }

    /// The number of retained slot events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// How many events the ring dropped (oldest-first) over capacity.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The retained per-slot counter rows, oldest first.
    pub fn counters(&self) -> impl Iterator<Item = SlotCounters> + '_ {
        self.counters.iter().copied()
    }

    /// How many counter rows the ring dropped over capacity.
    pub fn counters_dropped(&self) -> u64 {
        self.counters_dropped
    }

    /// All recorded spans, in open order. Still-open spans have
    /// `end == Slot::MAX` (see [`Span::is_open`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans were dropped at [`MAX_SPANS`].
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// All recorded gauge samples, in record order.
    pub fn gauges(&self) -> &[Gauge] {
        &self.gauges
    }

    /// The events of kind `kind`, oldest first.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = SlotEvent> + '_ {
        self.events
            .iter()
            .copied()
            .filter(move |e| e.kind() == kind)
    }

    /// The largest slot any record refers to.
    pub fn last_slot(&self) -> Slot {
        self.last_slot
    }

    /// Exports everything as Chrome trace-event JSON — load the string
    /// (saved as a `.json` file) in Perfetto or `chrome://tracing`.
    ///
    /// Mapping: one trace microsecond stands for one slot. Spans become
    /// complete (`"ph": "X"`) events on one track, so nesting renders as
    /// stacked intervals; per-slot counter rows and gauges become
    /// counter (`"ph": "C"`) series; fault events (lost / jammed /
    /// crashed) become instants (`"ph": "i"`) so a faulted run's damage
    /// is visible slot-by-slot. Tx/recv/silence/noise events are left to
    /// the counter series (and to [`Telemetry::to_jsonl`]) — emitting an
    /// instant per node-slot would dwarf the rest of the trace.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"ebc-sim\"}}",
        );
        for span in &self.spans {
            let end = if span.is_open() {
                self.last_slot.max(span.start)
            } else {
                span.end
            };
            let dur = (end - span.start).max(1);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":0,\"tid\":0}}",
                escape(span.name),
                span.start,
                dur
            ));
        }
        for row in &self.counters {
            out.push_str(&format!(
                ",{{\"name\":\"slots\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\
                 \"tx\":{},\"listeners\":{},\"delivered\":{},\"collisions\":{},\
                 \"silent\":{},\"lost\":{},\"jammed\":{},\"down\":{}}}}}",
                row.slot,
                row.tx,
                row.listeners,
                row.delivered,
                row.collisions,
                row.silent,
                row.lost,
                row.jammed,
                row.down
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"{}\":{}}}}}",
                escape(g.name),
                g.slot,
                escape(g.name),
                json_num(g.value)
            ));
        }
        for e in &self.events {
            let kind = e.kind();
            if matches!(
                kind,
                EventKind::Lost | EventKind::Jammed | EventKind::Crashed
            ) {
                out.push_str(&format!(
                    ",{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\
                     \"s\":\"g\",\"args\":{{\"node\":{}}}}}",
                    kind.name(),
                    e.slot,
                    e.node()
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// Exports everything as JSON Lines: one `meta` line (drop tallies),
    /// then one line per span, counter row, gauge sample, and slot event
    /// — the complete record set, including the per-node events the
    /// Chrome exporter folds into counters.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"events_dropped\":{},\"counters_dropped\":{},\
             \"spans_dropped\":{},\"last_slot\":{}}}\n",
            self.events_dropped, self.counters_dropped, self.spans_dropped, self.last_slot
        ));
        for span in &self.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"start\":{},\"end\":{},\
                 \"depth\":{}}}\n",
                escape(span.name),
                span.start,
                if span.is_open() {
                    self.last_slot.max(span.start)
                } else {
                    span.end
                },
                span.depth
            ));
        }
        for row in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counters\",\"slot\":{},\"polled\":{},\"tx\":{},\
                 \"listeners\":{},\"delivered\":{},\"collisions\":{},\"silent\":{},\
                 \"lost\":{},\"jammed\":{},\"down\":{}}}\n",
                row.slot,
                row.polled,
                row.tx,
                row.listeners,
                row.delivered,
                row.collisions,
                row.silent,
                row.lost,
                row.jammed,
                row.down
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"slot\":{},\"value\":{}}}\n",
                escape(g.name),
                g.slot,
                json_num(g.value)
            ));
        }
        for e in &self.events {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"slot\":{},\"node\":{},\"kind\":\"{}\"}}\n",
                e.slot,
                e.node(),
                e.kind().name()
            ));
        }
        out
    }
}

/// Escapes a label for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a gauge value as a JSON number (non-finite values, which no
/// recorder produces in practice, degrade to `0`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pack_node_and_kind() {
        let e = SlotEvent::new(42, 123_456, EventKind::Jammed);
        assert_eq!(e.slot, 42);
        assert_eq!(e.node(), 123_456);
        assert_eq!(e.kind(), EventKind::Jammed);
        for kind in [
            EventKind::Tx,
            EventKind::Recv,
            EventKind::Silence,
            EventKind::Noise,
            EventKind::Jammed,
            EventKind::Lost,
            EventKind::Crashed,
        ] {
            assert_eq!(SlotEvent::new(0, 7, kind).kind(), kind);
            assert_eq!(EventKind::from_bits(kind.to_bits()), kind);
        }
    }

    #[test]
    fn counters_aggregate_per_slot() {
        let mut t = Telemetry::new();
        t.begin_slot(3, 5);
        t.note_tx(0);
        t.note_tx(1);
        t.note_recv(2);
        t.note_noise(3);
        t.note_silence(4);
        t.end_slot();
        let rows: Vec<_> = t.counters().collect();
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!(row.slot, 3);
        assert_eq!(row.polled, 5);
        assert_eq!(row.tx, 2);
        assert_eq!(row.listeners, 3);
        assert_eq!(row.delivered, 1);
        assert_eq!(row.collisions, 1);
        assert_eq!(row.silent, 1);
        assert_eq!(row.energy(), 5);
        assert_eq!(t.event_count(), 5);
    }

    #[test]
    fn event_ring_drops_oldest_first() {
        let mut t = Telemetry::with_capacity(3, 2);
        for slot in 0..5 {
            t.begin_slot(slot, 1);
            t.note_tx(slot as NodeId);
            t.end_slot();
        }
        assert_eq!(t.events_dropped(), 2);
        let slots: Vec<Slot> = t.events().map(|e| e.slot).collect();
        assert_eq!(slots, vec![2, 3, 4], "oldest events dropped first");
        assert_eq!(t.counters_dropped(), 3);
        let rows: Vec<Slot> = t.counters().map(|r| r.slot).collect();
        assert_eq!(rows, vec![3, 4]);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = Telemetry::new();
        t.span_enter("outer", 0);
        t.span_enter("inner", 2);
        t.span_exit(5);
        t.span_exit(9);
        t.span_at("retro", 3, 4);
        assert_eq!(t.spans().len(), 3);
        let [outer, inner, retro] = [t.spans()[0], t.spans()[1], t.spans()[2]];
        assert_eq!(
            (outer.name, outer.start, outer.end, outer.depth),
            ("outer", 0, 9, 0)
        );
        assert_eq!(
            (inner.name, inner.start, inner.end, inner.depth),
            ("inner", 2, 5, 1)
        );
        assert_eq!(
            (retro.name, retro.start, retro.end, retro.depth),
            ("retro", 3, 4, 0)
        );
        assert!(!outer.is_open());
        // A stray exit is ignored.
        t.span_exit(10);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn open_spans_export_to_the_last_seen_slot() {
        let mut t = Telemetry::new();
        t.span_enter("unfinished", 4);
        t.record_gauge("informed", 20, 7.0);
        assert!(t.spans()[0].is_open());
        let trace = t.chrome_trace();
        // Exported with dur = last_slot - start, not u64::MAX.
        assert!(trace.contains("\"name\":\"unfinished\""));
        assert!(trace.contains("\"dur\":16"));
    }

    #[test]
    fn jsonl_lists_every_record() {
        let mut t = Telemetry::new();
        t.span_enter("phase", 0);
        t.begin_slot(0, 2);
        t.note_tx(0);
        t.note_lost(0);
        t.note_jammed(1);
        t.end_slot();
        t.span_exit(1);
        t.record_gauge("informed", 1, 2.0);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + 1 span + 1 counters + 1 gauge + 3 events.
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(jsonl.contains("\"kind\":\"lost\""));
        assert!(jsonl.contains("\"kind\":\"jammed\""));
        assert!(jsonl.contains("\"name\":\"informed\""));
    }

    #[test]
    fn chrome_trace_emits_fault_instants_but_not_tx_instants() {
        let mut t = Telemetry::new();
        t.begin_slot(0, 2);
        t.note_tx(0);
        t.note_crashed(1);
        t.end_slot();
        let trace = t.chrome_trace();
        assert!(trace.contains("\"name\":\"crashed\""));
        assert!(!trace.contains("\"name\":\"tx\""), "tx stays in counters");
        assert!(trace.contains("\"name\":\"slots\""));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
