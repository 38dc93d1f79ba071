//! Shared helpers for the algorithm implementations.

use ebc_radio::rng::node_rng;
use ebc_radio::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// One private RNG per device, derived from a master seed and a logical
/// stream tag so different algorithm phases get independent randomness.
#[derive(Debug)]
pub struct NodeRngs {
    rngs: Vec<SmallRng>,
}

impl NodeRngs {
    /// RNGs for `n` devices under `(seed, stream)`.
    pub fn new(seed: u64, n: usize, stream: u64) -> Self {
        NodeRngs {
            rngs: (0..n).map(|v| node_rng(seed, v, stream)).collect(),
        }
    }

    /// The RNG of device `v`.
    pub fn get(&mut self, v: NodeId) -> &mut SmallRng {
        &mut self.rngs[v]
    }
}

/// O(1) vertex → SR-role lookup over the full id space: one flat `u32`
/// per vertex holding "not a participant", "sender `si`", or "receiver
/// `ri`".
///
/// The SR behaviors ask "is `v` a sender, and which one?" on *every*
/// poll; at `n = 10^6` participant sets, per-poll binary search costs ~17
/// probes of a cold array and dominated the CD rounds. This map is one
/// indexed load. Building it is `O(n)` — the same order as the
/// participant list the round already builds.
#[derive(Debug)]
pub struct RoleMap {
    /// `0` = no role; else index + 1, receivers tagged by the high bit.
    role: Vec<u32>,
}

impl RoleMap {
    const RECV: u32 = 1 << 31;

    /// A map over vertices `0..n` with the given sender/receiver lists.
    ///
    /// Senders and receivers must be disjoint, each duplicate-free.
    pub fn new(
        n: usize,
        senders: impl IntoIterator<Item = NodeId>,
        receivers: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut role = vec![0u32; n];
        for (i, v) in senders.into_iter().enumerate() {
            debug_assert_eq!(role[v], 0, "duplicate role for {v}");
            role[v] = i as u32 + 1;
        }
        for (i, v) in receivers.into_iter().enumerate() {
            debug_assert_eq!(role[v], 0, "duplicate role for {v}");
            role[v] = (i as u32 + 1) | Self::RECV;
        }
        RoleMap { role }
    }

    /// `v`'s index in the sender list, if a sender.
    #[inline]
    pub fn sender(&self, v: NodeId) -> Option<usize> {
        match self.role[v] {
            0 => None,
            r if r & Self::RECV != 0 => None,
            r => Some(r as usize - 1),
        }
    }

    /// `v`'s index in the receiver list, if a receiver.
    #[inline]
    pub fn receiver(&self, v: NodeId) -> Option<usize> {
        match self.role[v] {
            0 => None,
            r if r & Self::RECV == 0 => None,
            r => Some((r & !Self::RECV) as usize - 1),
        }
    }
}

/// `⌈log₂ x⌉` for `x ≥ 1`, with `ceil_log2(1) = 0`.
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1);
    usize::BITS - (x - 1).leading_zeros()
}

/// Samples `Exponential(β)` (rate `β`, mean `1/β`) by inversion.
pub fn sample_exponential(rng: &mut impl Rng, beta: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / beta
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_radio::rng::node_rng;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn node_rngs_are_independent_and_stable() {
        let mut a = NodeRngs::new(1, 4, 9);
        let mut b = NodeRngs::new(1, 4, 9);
        let x: u64 = a.get(2).gen();
        let y: u64 = b.get(2).gen();
        assert_eq!(x, y);
        let z: u64 = b.get(3).gen();
        assert_ne!(x, z);
    }

    #[test]
    fn exponential_mean_roughly_inverse_rate() {
        let mut rng = node_rng(5, 0, 0);
        let beta = 0.25;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, beta))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 4.0).abs() < 0.3, "mean = {mean}");
    }

    #[test]
    fn role_map_finds_original_positions() {
        let roles = RoleMap::new(41, [9usize, 2], [40usize, 7]);
        assert_eq!(roles.sender(9), Some(0));
        assert_eq!(roles.sender(2), Some(1));
        assert_eq!(roles.receiver(40), Some(0));
        assert_eq!(roles.receiver(7), Some(1));
        // Each vertex has at most one role.
        assert_eq!(roles.receiver(9), None);
        assert_eq!(roles.sender(40), None);
        assert_eq!(roles.sender(8), None);
        assert_eq!(roles.receiver(0), None);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = node_rng(6, 0, 0);
        for _ in 0..1000 {
            assert!(sample_exponential(&mut rng, 1.0) >= 0.0);
        }
    }
}
