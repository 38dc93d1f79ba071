//! Packed `u64` bitset words: one bit per device, 64 devices per word.
//!
//! Holds the fault layer's down-set and the event engine's per-slot
//! listening set.

/// A fixed-capacity set over `0..n`, packed 64 bits per `u64` word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for members `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Whether `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert_eq!((0..130).filter(|&i| s.contains(i)).count(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!((0..130).filter(|&i| s.contains(i)).count(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_panics() {
        let mut s = BitSet::new(64);
        s.insert(64);
    }
}
