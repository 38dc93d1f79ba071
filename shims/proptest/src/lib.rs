//! Vendored, dependency-free shim of the slice of the `proptest` API this
//! workspace uses: [`Strategy`] with `prop_map`, range and tuple
//! strategies, [`any`], [`collection::vec`], [`option::of`], the
//! [`proptest!`] macro and the `prop_assert*` macros.
//!
//! The workspace must build with no network access to crates.io, so the
//! root manifest patches `proptest` to this path. Unlike the real
//! proptest there is **no shrinking** and no persisted failure file —
//! each test runs `cases` deterministically-seeded random cases and
//! `prop_assert*` failures panic with the case seed in the message, which
//! is enough to reproduce (seeding is derived from the case index alone).
//! Swapping in the real crate is a one-line change in the workspace
//! manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Run-time configuration: how many random cases each property runs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The source of randomness handed to strategies, seeded per case.
pub struct TestRunner {
    rng: SmallRng,
}

impl TestRunner {
    /// A runner for case number `case` (deterministic across runs).
    pub fn for_case(case: u64) -> Self {
        TestRunner {
            rng: SmallRng::seed_from_u64(0xebc0_0000u64 ^ case.wrapping_mul(0x9e37_79b9)),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A generator of random values of an associated type.
///
/// The real proptest's `Strategy` produces shrinkable value *trees*; this
/// shim only ever needs plain values.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.base.generate(runner))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(runner),)*)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(runner: &mut TestRunner) -> bool {
        runner.rng().gen_bool(0.5)
    }
}

impl Arbitrary for u64 {
    fn arbitrary(runner: &mut TestRunner) -> u64 {
        runner.rng().gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(runner: &mut TestRunner) -> u32 {
        runner.rng().gen::<u64>() as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(runner: &mut TestRunner) -> usize {
        runner.rng().gen::<u64>() as usize
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

/// A strategy for any value of `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRunner};
    use rand::Rng;

    /// A length specification: exact or a half-open range, as in proptest.
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                runner.rng().gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies, mirroring `proptest::option`.
pub mod option {
    use super::{Strategy, TestRunner};
    use rand::Rng;

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Option<S::Value> {
            // `Some` three times out of four, like the real default weight.
            if runner.rng().gen_bool(0.75) {
                Some(self.inner.generate(runner))
            } else {
                None
            }
        }
    }

    /// A strategy producing `None` or `Some(inner)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// The customary glob-import module, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Arbitrary, ProptestConfig, Strategy, TestRunner};
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministically-seeded cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: one test item per recursion step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ($($strat,)*);
            for case in 0..config.cases {
                let mut runner = $crate::TestRunner::for_case(u64::from(case));
                let ($($arg,)*) = $crate::Strategy::generate(&strategies, &mut runner);
                // Any panic in the body names the failing case for replay.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                if let Err(e) = result {
                    eprintln!("proptest shim: property failed at case {case}");
                    std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    (($cfg:expr);) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut runner = TestRunner::for_case(1);
        for _ in 0..100 {
            let x = (3usize..9).generate(&mut runner);
            assert!((3..9).contains(&x));
        }
    }

    #[test]
    fn vec_exact_and_ranged_sizes() {
        let mut runner = TestRunner::for_case(2);
        let exact = crate::collection::vec(any::<bool>(), 16).generate(&mut runner);
        assert_eq!(exact.len(), 16);
        for _ in 0..50 {
            let v = crate::collection::vec(0u8..255, 0..6).generate(&mut runner);
            assert!(v.len() < 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_and_runs(x in 0u32..10, flag in any::<bool>()) {
            prop_assert!(x < 10, "x = {}", x);
            let _ = flag;
        }
    }
}
