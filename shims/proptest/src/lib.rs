//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The offline build container cannot fetch `proptest`, so this shim
//! implements the slice of its API the workspace's property tests use:
//! the [`Strategy`] trait with [`Strategy::prop_map`], range and
//! [`any`] strategies, [`collection::vec`], and the [`proptest!`],
//! [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`] macros.
//!
//! Differences from real proptest: cases are generated from a fixed
//! seed (fully reproducible runs) and failing inputs are *not* shrunk —
//! the failing case is printed verbatim instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

/// Number of random cases each `proptest!` test body runs.
pub const DEFAULT_CASES: u32 = 64;

/// A generator of test values.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred` (re-draws up to 1000 times).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            pred,
            whence,
        }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Output of [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 1000 draws in a row", self.whence);
    }
}

/// A strategy producing one fixed value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Full-range strategy for a primitive type (proptest's `any::<T>()`).
pub fn any<T: ArbitraryValue>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Output of [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types supported by [`any`].
pub trait ArbitraryValue {
    /// One unconstrained draw.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        use rand::RngCore;
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        use rand::Rng;
        // finite, moderately sized values; property tests here never
        // rely on NaN/inf generation
        rng.random_range(-1.0e6..1.0e6)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::Rng;
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::Rng;
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, i64, i32, f64);

macro_rules! impl_range_from_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::Rng;
                rng.random_range(self.start..=<$t>::MAX)
            }
        }
    )*};
}

impl_range_from_strategy!(usize, u64, u32, i64, i32);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

pub mod collection {
    //! Collection strategies.

    use super::Strategy;
    use rand::rngs::StdRng;

    /// Lengths accepted by [`vec()`]: a fixed size or a size range.
    pub trait IntoSizeRange {
        /// `(min, max)` inclusive bounds.
        fn size_bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn size_bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn size_bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn size_bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for std::ops::RangeTo<usize> {
        fn size_bounds(self) -> (usize, usize) {
            assert!(self.end > 0, "empty size range");
            (0, self.end - 1)
        }
    }

    /// A strategy producing `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.size_bounds();
        VecStrategy { element, min, max }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = rng.random_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs, one glob import away.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, Strategy,
    };

    /// `prop::collection::…` paths used by the tests.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Run `cases` deterministic property cases; used by [`proptest!`].
pub fn run_cases(name: &str, cases: u32, mut case: impl FnMut(&mut StdRng, u32)) {
    use rand::SeedableRng;
    // one fixed master seed per test name keeps runs reproducible while
    // decorrelating sibling tests
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cases {
        case(&mut rng, i);
    }
}

/// Failure type of a property-test body (kept so bodies can
/// `return Ok(())` early or use `?`, as with real proptest).
#[derive(Debug)]
pub enum TestCaseError {
    /// The property does not hold.
    Fail(String),
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

impl<E: std::error::Error> From<E> for TestCaseError {
    fn from(e: E) -> Self {
        TestCaseError::Fail(e.to_string())
    }
}

/// Assert inside a property test (no shrinking: plain panic with the
/// formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Skip the current case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(()); // skip this case
        }
    };
}

/// Define property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` that runs [`DEFAULT_CASES`] random cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), $crate::DEFAULT_CASES, |rng, _case| {
                $(let $pat = $crate::Strategy::generate(&($strat), rng);)+
                #[allow(clippy::redundant_closure_call)]
                let result: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("property `{}` failed: {e}", stringify!($name));
                }
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in 0.5f64..=2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..=2.0).contains(&y));
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec(any::<u64>(), 4)) {
            prop_assert_eq!(v.len(), 4);
        }

        #[test]
        fn map_applies(v in prop::collection::vec(any::<u64>(), 0..6).prop_map(|v| v.len())) {
            prop_assert!(v < 6);
        }

        #[test]
        fn tuples_and_assume((a, b) in (0usize..5, 0usize..5)) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut first = Vec::new();
        crate::run_cases("stable", 8, |rng, _| {
            first.push((0usize..100).generate(rng));
        });
        let mut second = Vec::new();
        crate::run_cases("stable", 8, |rng, _| {
            second.push((0usize..100).generate(rng));
        });
        assert_eq!(first, second);
    }

    #[test]
    fn filter_rejects() {
        crate::run_cases("filter", 16, |rng, _| {
            let v = (0usize..10)
                .prop_filter("even", |x| x % 2 == 0)
                .generate(rng);
            assert_eq!(v % 2, 0);
        });
    }
}
