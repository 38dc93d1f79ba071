//! The single-hop leader-election schedule the multi-hop machinery drives.
//!
//! [`UniformLeaderElection`] is a *uniform* leader-election schedule in the
//! CD model à la Nakano–Olariu: every participant transmits with the same
//! probability `2^{-k_t}` where `k_t` is a function of the public channel
//! history ([`Obs`]) only. It succeeds in `O(log log n′ + log 1/f)` slots.
//!
//! The crate holds the schedule, not a channel. Its two consumers supply the
//! observations: Lemma 8's CD transform (`ebc_core::srcomm`) feeds it what a
//! receiver heard in the multi-hop simulator, and the Theorem 2 reduction
//! (`ebc_core::reduction`) feeds it the number of middles that transmitted
//! in each slot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod uniform;

pub use uniform::{Obs, UniformLeaderElection};
