//! Energy-efficient Broadcast in multi-hop radio networks.
//!
//! This crate implements every algorithm of *The Energy Complexity of
//! Broadcast* (Chang, Dani, Hayes, He, Li, Pettie — PODC 2018) on the
//! [`ebc_radio`] simulator:
//!
//! | Paper artifact | Module |
//! |----------------|--------|
//! | SR-communication: decay (Lem. 7), CD transformation (Lem. 8), deterministic (Lem. 24) | [`srcomm`] |
//! | LOCAL simulation in No-CD: Learn-Degree, Two-Hop-Coloring, TDMA (Thm. 3) | [`localsim`] |
//! | Good labelings, Down/All/Up-cast, Broadcast-from-labeling (Lem. 10) | [`labeling`], [`cast`] |
//! | Iterative relabeling broadcast (Thms. 11, 12; Cor. 13) | [`randomized`] |
//! | Partition(β) and the `O(D^{1+ε})`-time algorithm (§6, Thm. 16) | [`cluster`] |
//! | The improved CD algorithm (§7, Thm. 20) | [`cdfast`] |
//! | The path algorithm (§8, Alg. 1, Thm. 21) | [`path`] |
//! | Deterministic broadcast via ruling sets (App. A, Thms. 25, 27) | [`det`] |
//! | Baselines: naive flood, BGI decay broadcast | [`baseline`] |
//! | The Theorem 2 lower-bound reduction, executable | [`reduction`] |
//! | Unified algorithm registry (all of the above behind one trait) | [`suite`] |
//!
//! # Quickstart
//!
//! ```
//! use ebc_core::randomized::broadcast_theorem11;
//! use ebc_graphs::random::bounded_degree;
//! use ebc_radio::{Model, Sim};
//!
//! let g = bounded_degree(64, 4, 1.5, 7);
//! let mut sim = Sim::new(g, Model::NoCd, 42);
//! let out = broadcast_theorem11(&mut sim, 0);
//! assert!(out.all_informed());
//! println!("time = {} slots, max energy = {}", sim.now(), sim.meter().max_energy());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cast;
pub mod cdfast;
pub mod cluster;
pub mod det;
pub mod labeling;
pub mod localsim;
pub mod path;
pub mod randomized;
pub mod reduction;
pub mod srcomm;
pub mod suite;
pub mod util;

pub use ebc_radio::{Action, EnergyMeter, FaultPlan, Feedback, Graph, Model, NodeId, Sim, Slot};

/// The outcome of a broadcast run: which vertices ended up informed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// `informed[v]` is `true` iff `v` knows the message.
    pub informed: Vec<bool>,
    /// The source vertex.
    pub source: NodeId,
}

impl BroadcastOutcome {
    /// Whether every vertex was informed — the broadcast correctness
    /// criterion.
    pub fn all_informed(&self) -> bool {
        self.informed.iter().all(|&b| b)
    }

    /// The number of informed vertices.
    pub fn count(&self) -> usize {
        self.informed.iter().filter(|&&b| b).count()
    }

    /// The fraction of vertices informed, in `[0, 1]` — the success
    /// measure of fault-injected runs, where a partial informed set is an
    /// expected outcome rather than a bug. An empty network counts as
    /// fully informed, matching [`BroadcastOutcome::all_informed`].
    pub fn informed_fraction(&self) -> f64 {
        if self.informed.is_empty() {
            1.0
        } else {
            self.count() as f64 / self.informed.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BroadcastOutcome;

    #[test]
    fn outcome_all_informed_and_count() {
        let out = BroadcastOutcome {
            informed: vec![true, true, true],
            source: 0,
        };
        assert!(out.all_informed());
        assert_eq!(out.count(), 3);
    }

    #[test]
    fn outcome_partial_counts_without_all_informed() {
        let out = BroadcastOutcome {
            informed: vec![true, false, true, false],
            source: 2,
        };
        assert!(!out.all_informed());
        assert_eq!(out.count(), 2);
    }

    #[test]
    fn outcome_none_informed() {
        let out = BroadcastOutcome {
            informed: vec![false; 5],
            source: 0,
        };
        assert!(!out.all_informed());
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn outcome_of_empty_network_is_vacuously_complete() {
        // Zero vertices: `all` over an empty set holds, `count` is zero —
        // callers relying on `count() > 0` must special-case n = 0.
        let out = BroadcastOutcome {
            informed: Vec::new(),
            source: 0,
        };
        assert!(out.all_informed());
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn outcome_single_vertex_source_only() {
        // The degenerate n = 1 broadcast: the source alone is the network.
        let out = BroadcastOutcome {
            informed: vec![true],
            source: 0,
        };
        assert!(out.all_informed());
        assert_eq!(out.count(), 1);
    }
}
