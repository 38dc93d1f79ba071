//! Vendored, dependency-free shim of the slice of the `rayon` API this
//! workspace uses: `par_iter()` / `into_par_iter()` plus `map` → `collect`
//! (and a few reductions), executed on `std::thread::scope` with one chunk
//! per available core.
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
/// and [`ParIter::collect`] (or a reduction) runs the chunks.
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

    /// Executes the pipeline and sums the results.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        par_map_vec(self.items, &self.f).into_iter().sum()
    }

    /// Executes the pipeline for its effects, discarding results.
    pub fn for_each(self) {
        let _ = par_map_vec(self.items, &self.f);
    }

    /// Executes the pipeline and reduces pairwise starting from `identity`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        par_map_vec(self.items, &self.f)
            .into_iter()
            .fold(identity(), op)
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

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T, T, fn(T) -> T>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self,
            f: std::convert::identity,
        }
    }
}

macro_rules! impl_range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<$t, $t, fn($t) -> $t>;

            fn into_par_iter(self) -> Self::Iter {
                ParIter {
                    items: self.collect(),
                    f: std::convert::identity,
                }
            }
        }
    )*};
}

impl_range_into_par!(u32, u64, usize);

/// Conversion into a parallel iterator over `&Item`.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// The concrete parallel iterator.
    type Iter;

    /// Returns a parallel iterator over borrowed items.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<&'a T, &'a T, fn(&'a T) -> &'a T>;

    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            items: self.iter().collect(),
            f: std::convert::identity,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<&'a T, &'a T, fn(&'a T) -> &'a T>;

    fn par_iter(&'a self) -> Self::Iter {
        self.as_slice().par_iter()
    }
}

/// The customary glob-import module, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
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
    fn par_iter_borrows() {
        let v: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
        let lens: Vec<usize> = v.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 64);
        assert_eq!(lens[0], 2);
        assert_eq!(lens[10], 3);
    }

    #[test]
    fn sum_matches_serial() {
        let total: u64 = (1u64..=100).collect::<Vec<_>>().into_par_iter().sum();
        assert_eq!(total, 5050);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
    }
}
