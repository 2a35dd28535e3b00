//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace vendors
//! the API subset its property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_recursive`,
//! regex-ish string strategies, numeric range strategies, `Just`, `any`,
//! tuple strategies, `collection::{vec, btree_map, hash_set}`, the
//! `proptest!`/`prop_oneof!`/`prop_assert!*` macros and
//! [`ProptestConfig`](test_runner::ProptestConfig). Inputs are generated
//! from a deterministic per-test PRNG; there is **no shrinking** — a failing
//! case panics with the generated inputs visible in the assertion message.

pub mod strategy;
pub mod string;

pub mod test_runner {
    /// Runner configuration (API subset: case count).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 48 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }
}

/// Deterministic generator driving all strategies (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name so every test gets a distinct, stable stream.
    pub fn from_name(name: &str) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::TestRng;
    use std::collections::{BTreeMap, HashSet};
    use std::hash::Hash;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with length drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(rng, &self.size);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K, V>` with at most `size.end - 1` entries
    /// (duplicate keys collapse, as in real proptest).
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(rng, &self.size);
            (0..n)
                .map(|_| (self.key.gen_value(rng), self.value.gen_value(rng)))
                .collect()
        }
    }

    /// Strategy for `HashSet<T>` (duplicates collapse).
    #[derive(Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn hash_set<S: Strategy>(element: S, size: Range<usize>) -> HashSetStrategy<S> {
        HashSetStrategy { element, size }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(rng, &self.size);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    fn sample_size(rng: &mut TestRng, size: &Range<usize>) -> usize {
        assert!(size.end > size.start, "collection size range is empty");
        size.start + rng.below((size.end - size.start) as u64) as usize
    }
}

pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assertion macros: identical to `assert!*` (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among same-valued strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// The property-test block macro: declares one zero-argument `#[test]` per
/// inner function, generating its inputs from the listed strategies for
/// `cases` iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}
