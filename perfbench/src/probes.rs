//! Synthetic drives of the radio layer, timed apart from the workloads:
//! the slot kernel (`Schedule::Dense`), the wake queue
//! (`Schedule::Dynamic`), and sparse rows (`Schedule::Sparse`).
//!
//! Each probe runs on the workload's own graph, repeats its drive until a
//! fixed amount of work is done (divided by `2^shift`, for smoke runs),
//! and returns the elapsed time with the exact work count, so the ratio is
//! a unit cost.

use std::sync::Arc;
use std::time::Instant;

use ebc_radio::{
    Action, Feedback, Graph, Model, NodeId, Schedule, Sim, SlotBehavior, SparseSchedule,
};

/// Elapsed host time and the exact count of work units it covered.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub ns: u64,
    pub count: u64,
}

impl Probe {
    pub fn ns_per_unit(self) -> f64 {
        self.ns as f64 / self.count.max(1) as f64
    }
}

/// The dense pattern every probe and the `dense-32k` workload share:
/// vertices with `(v + t + offset) % 16 == 0` send, the rest listen.
pub fn sends(v: NodeId, t: u64, offset: u64) -> bool {
    (v as u64 + t + offset).is_multiple_of(16)
}

/// Dense slots needed for about `polls` polls on an `n`-vertex graph.
fn kernel_slots(n: usize, polls: u64) -> u64 {
    (polls / n.max(1) as u64).max(16)
}

/// The slot kernel: every vertex polled in every slot.
pub fn kernel(graph: &Arc<Graph>, model: Model, shift: u32) -> Probe {
    let all: Vec<NodeId> = (0..graph.n()).collect();
    let slots = kernel_slots(graph.n(), 1 << (22 - shift));
    let mut sim = Sim::new(Arc::clone(graph), model, 0);
    let mut heard = 0u64;
    let mut behavior = ebc_radio::from_fns(
        |v, t| {
            if sends(v, t, 0) {
                Action::Send(1u8)
            } else {
                Action::Listen
            }
        },
        |_, _, fb: Feedback<u8>| heard += u64::from(fb.message().is_some()),
    );
    let start = Instant::now();
    sim.drive(
        Schedule::Dense {
            participants: &all,
            slots,
        },
        &mut behavior,
    );
    let ns = start.elapsed().as_nanos() as u64;
    drop(behavior);
    std::hint::black_box(heard);
    Probe {
        ns,
        count: slots * graph.n() as u64,
    }
}

/// A Dynamic drive mixing `t + 1` wakes with wakes 1500 slots out, past
/// the wake queue's 1024-slot ring.
struct WakeMix {
    wakes: u64,
}

impl SlotBehavior<u8> for WakeMix {
    fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
        self.wakes += 1;
        if sends(v, t, 0) {
            Action::Send(1)
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _v: NodeId, _t: u64, fb: Feedback<u8>) {
        std::hint::black_box(fb);
    }
    fn first_wake(&mut self, v: NodeId) -> Option<u64> {
        Some(v as u64 % 64)
    }
    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        Some(if (v as u64 + t).is_multiple_of(8) {
            t + 1500
        } else {
            t + 1
        })
    }
}

/// The wake queue: about 2^21 wakes over up to 16384 devices.
pub fn dynamic(graph: &Arc<Graph>, shift: u32) -> Probe {
    let participants: Vec<NodeId> = (0..graph.n().min(1 << 14)).collect();
    let mut sim = Sim::new(Arc::clone(graph), Model::Cd, 0);
    let mut behavior = WakeMix { wakes: 0 };
    let start = Instant::now();
    while behavior.wakes < 1 << (21 - shift) {
        sim.drive(
            Schedule::Dynamic {
                participants: &participants,
                slots: 4096,
            },
            &mut behavior,
        );
    }
    Probe {
        ns: start.elapsed().as_nanos() as u64,
        count: behavior.wakes,
    }
}

/// Sparse rows: 4096 rows of up to 64 strided devices, one every fourth
/// slot, repeated until 2^17 rows ran.
pub fn sparse(graph: &Arc<Graph>, shift: u32) -> Probe {
    const ROWS: u64 = 4096;
    let n = graph.n();
    let width = n.min(64);
    let stride = n / width;
    let mut schedule = SparseSchedule::new();
    for i in 0..ROWS {
        let lane = i as usize % stride;
        schedule.push(4 * i, (0..width).map(|j| j * stride + lane));
    }
    let mut sim = Sim::new(Arc::clone(graph), Model::NoCd, 0);
    let mut heard = 0u64;
    let mut behavior = ebc_radio::from_fns(
        |v, t| {
            if sends(v, t, 0) {
                Action::Send(1u8)
            } else {
                Action::Listen
            }
        },
        |_, _, fb: Feedback<u8>| heard += u64::from(fb.message().is_some()),
    );
    let mut rows = 0;
    let start = Instant::now();
    while rows < 1 << (17 - shift) {
        sim.drive(
            Schedule::Sparse {
                schedule: &schedule,
                slots: 4 * ROWS,
            },
            &mut behavior,
        );
        rows += ROWS;
    }
    let ns = start.elapsed().as_nanos() as u64;
    drop(behavior);
    std::hint::black_box(heard);
    Probe { ns, count: rows }
}
