//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace builds in fully offline environments, so the real
//! `proptest` crate cannot be fetched from a registry. This crate
//! re-implements the small API subset the workspace's property tests
//! use, with the same source-level surface:
//!
//! - [`Strategy`](strategy::Strategy) with `prop_map`, implemented for integer/float ranges
//!   and 2/3/4-tuples of strategies
//! - [`any`] for primitive types
//! - [`collection::vec`]
//! - the [`proptest!`], [`prop_assert!`] and [`prop_assert_eq!`] macros
//! - [`ProptestConfig::with_cases`] via `#![proptest_config(..)]`
//!
//! Differences from the real crate: sampling is derived from a fixed
//! per-test seed (fully deterministic, no `PROPTEST_*` env handling) and
//! failing cases are **not shrunk** — the assertion message reports the
//! case index so a failure can be replayed by running the test again.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: a strategy is just a
    /// deterministic function of the RNG state.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u128) - (self.start as u128);
                    let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % width;
                    self.start + r as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let width = (end as u128) - (start as u128) + 1;
                    let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % width;
                    start + r as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let u = rng.next_f64();
            let v = self.start + u * (self.end - self.start);
            // Guard against rounding up to the (exclusive) end point.
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+ ))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Types with a canonical "whole domain" strategy, used by [`crate::any`].
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }

    impl Arbitrary for u16 {
        fn arbitrary(rng: &mut TestRng) -> u16 {
            rng.next_u64() as u16
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only; property tests on simulators have no use
            // for NaN/inf inputs from `any`.
            rng.next_f64() * 2e12 - 1e12
        }
    }

    /// Strategy returned by [`crate::any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(core::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// A strategy covering the whole domain of `T`.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::default()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: core::ops::Range<usize>,
    }

    /// `proptest::collection::vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// SplitMix64-based RNG: small state, excellent dispersion, and fully
    /// deterministic for a given `(test name, case index)` pair.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Seed derived from the fully qualified test name and case index
        /// so every test gets an independent, stable stream.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= case as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
            TestRng::new(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig};
}

/// Assert a condition inside a property test. Plain `assert!` semantics:
/// this mini-proptest does not shrink, so the panic carries the original
/// condition text (the per-test RNG stream is deterministic, making every
/// failure replayable by re-running the test).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Define property tests. Supports the standard forms:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     /// Doc comment.
///     #[test]
///     fn my_prop(x in 0u64..100, v in proptest::collection::vec(any::<u64>(), 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        #[allow(unused_variables)]
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1_000 {
            let x = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&x));
            let y = (1u64..u64::MAX).sample(&mut rng);
            assert!(y >= 1);
            let f = (-1.5f64..2.5).sample(&mut rng);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let sample = |case| {
            let mut rng = TestRng::for_case("det", case);
            crate::collection::vec((0u64..1_000, any::<bool>()), 0..50).sample(&mut rng)
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3), sample(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The macro itself compiles and runs with config + metas.
        #[test]
        fn macro_roundtrip(x in 0u32..8, pair in (0u64..10, 0f64..1.0)) {
            prop_assert!(x < 8);
            prop_assert!(pair.1 >= 0.0 && pair.1 < 1.0);
            prop_assert_eq!(pair.0, pair.0);
        }
    }
}
