//! Offline stub of `proptest`.
//!
//! Implements the subset of the proptest 1.x API this workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`, [`Just`], [`any`],
//! integer-range and tuple strategies, `collection::vec`, weighted
//! `prop_oneof!`, and the `proptest!`/`prop_assert*` macros. Differences
//! from upstream: no shrinking (a failing case reports its seed and values
//! but is not minimized), and case generation is seeded deterministically
//! from the test name, so failures reproduce without a persistence file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test case generator, seeded from the test's name.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates a generator seeded from `name` (FNV-1a).
    pub fn from_name(name: &str) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(hash))
    }

    /// Draws a uniform value from `range`.
    pub fn gen_range<T, R: rand::SampleRange<T>>(&mut self, range: R) -> T {
        self.0.gen_range(range)
    }

    /// Draws a raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.0.next_u64()
    }
}

/// A failed property-test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Number of cases to run per property (the config subset used here).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Cases generated per property test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 128 keeps the engine-heavy suites quick
        // while still exercising the generators broadly.
        ProptestConfig { cases: 128 }
    }
}

/// A generator of test values. Object-safe: combinators require `Sized`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing a single fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical full-domain strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the full domain of `T`.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Weighted union of boxed strategies; built by `prop_oneof!`.
pub struct OneOf<V> {
    choices: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    total: u32,
}

impl<V> OneOf<V> {
    /// Creates a union; weights must sum to a positive value.
    pub fn new(choices: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
        let total = choices.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof: zero total weight");
        OneOf { choices, total }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.gen_range(0..self.total);
        for (weight, strategy) in &self.choices {
            if pick < *weight {
                return strategy.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weights summed in constructor")
    }
}

pub mod collection {
    //! Collection strategies (`vec` only).

    use super::{Strategy, TestRng};

    /// Length specification for [`vec`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max: len + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "vec: empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `element` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Declares property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Runs one generated test case. The case body is a closure so that
/// `prop_assert!` and `?` can return early from it.
#[doc(hidden)]
pub fn __run_case(case: impl FnOnce() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    case()
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $($(#[$attr:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    let result = $crate::__run_case(|| {
                        $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                        $body
                        ::core::result::Result::Ok(())
                    });
                    if let ::core::result::Result::Err(e) = result {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Builds a weighted or unweighted union strategy.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>)),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((1u32, Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>)),+
        ])
    };
}

/// Asserts a condition, failing the current case (not the process) so the
/// harness can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality within a property test case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $fmt:literal $(, $arg:expr)* $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($left),
                stringify!($right),
                left,
                right,
                format!($fmt $(, $arg)*)
            )));
        }
    }};
}

/// Asserts inequality within a property test case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    /// Namespace alias matching upstream's `prelude::prop`.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn oneof_respects_weights_roughly() {
        let strategy = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = crate::TestRng::from_name("weights");
        let trues = (0..1000)
            .filter(|_| Strategy::generate(&strategy, &mut rng))
            .count();
        assert!(trues > 700, "trues: {trues}");
    }

    proptest! {
        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(0u8..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for x in v {
                prop_assert!(x < 10);
            }
        }

        #[test]
        fn map_applies(x in (0u32..5).prop_map(|x| x * 2)) {
            prop_assert!(x % 2 == 0);
            prop_assert!(x < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_honored(_x in 0u8..255) {
            // Runs; the case count is implicit in not hanging.
        }
    }
}
