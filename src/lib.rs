//! Umbrella crate for *The Energy Complexity of Broadcast* reproduction.
//!
//! Re-exports every sub-crate under one roof so downstream users (and the
//! repo-level `tests/` and `examples/`) can depend on a single crate:
//!
//! * [`radio`] — the discrete-slot radio-network simulator with exact
//!   energy metering ([`ebc_radio`]).
//! * [`graphs`] — deterministic and random topology generators
//!   ([`ebc_graphs`]).
//! * [`singlehop`] — the uniform single-hop leader-election schedule
//!   ([`ebc_singlehop`]).
//! * [`core`] — the paper's broadcast algorithms and lower-bound
//!   reductions ([`ebc_core`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ebc_core as core;
pub use ebc_graphs as graphs;
pub use ebc_radio as radio;
pub use ebc_singlehop as singlehop;
