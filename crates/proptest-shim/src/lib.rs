//! # proptest-shim
//!
//! A dependency-free, offline stand-in for the subset of the `proptest`
//! API this workspace uses: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`/`prop_filter`, [`prop_oneof!`], [`any`], [`Just`], range and
//! tuple strategies, `collection::vec`, `option::of`,
//! [`ProptestConfig::with_cases`], and the `prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * no shrinking — a failing case reports its inputs via the standard
//!   assert message and the deterministic per-test seed reproduces it;
//! * the generator is a fixed splitmix64 stream seeded from the test's
//!   module path and case index, so runs are fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator handed to strategies (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// The RNG for one test case: seeded from the test's identity and the
    /// case index, so every run of the suite sees the same inputs.
    #[must_use]
    pub fn for_case(test_name: &str, case: u32) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A value generator (the shim's take on proptest's `Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing `f`, regenerating until one passes.
    fn prop_filter<W, F: Fn(&Self::Value) -> bool>(self, _whence: W, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 10000 consecutive candidates");
    }
}

/// Always yields a clone of the given value.
#[allow(non_snake_case)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed same-typed strategies ([`prop_oneof!`]).
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Builds from at least one choice.
    #[must_use]
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> OneOf<T> {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { choices }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.choices.len() as u64) as usize;
        self.choices[i].generate(rng)
    }
}

/// Whole-domain strategy for a type; see [`any`].
pub struct Any<T>(PhantomData<T>);

/// Generates arbitrary values of `T` over its whole domain.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types with a whole-domain generator.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

fn in_span(rng: &mut TestRng, start: i128, span: u128) -> i128 {
    debug_assert!(span > 0);
    start + (rng.next_u64() as u128 % span) as i128
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                in_span(rng, self.start as i128, span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                in_span(rng, *self.start() as i128, span) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Generates `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() % 4 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Per-test configuration; only `cases` is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// The `proptest!` test-definition macro: each `fn name(x in strat, ...)`
/// becomes a `#[test]` running `cases` deterministic iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// `prop_assert!`: plain `assert!` (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };

    /// The `prop` module alias (`prop::collection::vec` style paths).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Uniform choice among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..2000 {
            let v = (-(1i64 << 43)..(1i64 << 43) - 1).generate(&mut rng);
            assert!((-(1i64 << 43)..(1i64 << 43) - 1).contains(&v));
            let w = (0u32..(1 << 30)).generate(&mut rng);
            assert!(w < 1 << 30);
            let x = (1usize..=4).generate(&mut rng);
            assert!((1..=4).contains(&x));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::for_case("oneof", 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn filter_and_map_compose() {
        let s = (0u32..100).prop_filter("even", |v| v % 2 == 0).prop_map(|v| v + 1);
        let mut rng = crate::TestRng::for_case("fm", 0);
        for _ in 0..500 {
            assert_eq!(s.generate(&mut rng) % 2, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: bindings, tuples, collections, trailing comma.
        #[test]
        fn macro_binds_arguments(
            xs in crate::collection::vec(any::<bool>(), 1..10),
            pair in (0u8..4, 1i32..5),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 10);
            prop_assert!(pair.0 < 4 && pair.1 >= 1);
        }
    }
}
