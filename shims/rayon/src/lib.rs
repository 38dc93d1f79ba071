//! Vendored, dependency-free shim of the slice of the `rayon` API this
//! workspace uses: `into_par_iter()` over a `u64` range, then `map` →
//! `collect`, executed on `std::thread::scope` with one chunk per
//! available core.
//!
//! The workspace must build with no network access to crates.io, so the
//! root manifest patches `rayon` to this path. Unlike the real rayon there
//! is no work-stealing pool — items are split into `available_parallelism`
//! contiguous chunks, which is a fine schedule for the coarse-grained,
//! similar-cost seed sweeps the bench harness runs. Order of results is
//! preserved. Swapping in the real crate is a one-line change in the
//! workspace manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// Returns the number of worker threads used for parallel execution:
/// `EBC_NUM_THREADS` if set, else `std::thread::available_parallelism()`.
pub fn current_num_threads() -> usize {
    if let Ok(s) = std::env::var("EBC_NUM_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over `items`, in parallel chunks, preserving order.
fn par_map_vec<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let mut out: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            // A worker panic propagates; matches rayon's behavior.
            out.push(h.join().expect("parallel worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// A realized parallel iterator: the items plus the (fused) mapping.
///
/// The shim is *eager at collect*: combinators only record the closure,
/// and [`ParIter::collect`] runs the chunks.
pub struct ParIter<T, R, F>
where
    F: Fn(T) -> R + Sync,
{
    items: Vec<T>,
    f: F,
}

/// The subset of rayon's `ParallelIterator` trait methods this shim offers.
impl<T, R, F> ParIter<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Maps each item through `g` (fused with the existing mapping).
    pub fn map<S, G>(self, g: G) -> ParIter<T, S, impl Fn(T) -> S + Sync>
    where
        S: Send,
        G: Fn(R) -> S + Sync,
    {
        let f = self.f;
        ParIter {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Executes the pipeline and collects results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_vec(self.items, &self.f).into_iter().collect()
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    type Iter = ParIter<u64, u64, fn(u64) -> u64>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self.collect(),
            f: std::convert::identity,
        }
    }
}

/// The customary glob-import module, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
        let expect: Vec<u64> = (0u64..1000).map(|x| x * x).collect();
        assert_eq!(squares, expect);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = (0u64..0).into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
    }
}
