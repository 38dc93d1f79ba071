//! Topology generators for radio-network experiments.
//!
//! Every generator returns a *connected* [`Graph`] (the paper's model
//! assumes connectivity). Deterministic families live in [`deterministic`],
//! randomized ones in [`random`], real-graph ingestion (dataset parsers
//! and topologies derived from observed data) in [`datasets`], and
//! [`families`] wraps them all into named, parameterized families with
//! known diameters for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use ebc_graphs::deterministic::{path, k2k};
//!
//! let p = path(8);
//! assert_eq!(p.diameter_exact(), Some(7));
//!
//! // The paper's Theorem 2 gadget: s and t joined through k middle vertices.
//! let g = k2k(5);
//! assert_eq!(g.n(), 7);
//! assert_eq!(g.diameter_exact(), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod deterministic;
pub mod families;
pub mod random;

pub use ebc_radio::{Graph, GraphError};
