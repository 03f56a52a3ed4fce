//! Value-generation strategies: the [`Strategy`] trait plus combinators.

use crate::test_runner::TestRng;
use core::ops::{Range, RangeInclusive};

/// Something that can generate values of a given type from a [`TestRng`].
///
/// Unlike upstream proptest there is no value tree / shrinking; a strategy
/// is just a deterministic sampler.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Uniform choice among several boxed strategies of the same value type;
/// built by the [`prop_oneof!`](crate::prop_oneof) macro.
pub struct OneOf<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Wraps a non-empty list of alternatives.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> OneOf<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_unit() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_unit() as f32 * (self.end - self.start)
    }
}

/// A bare string literal is a regex strategy (`s in "[a-z]{5}"`).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::string_regex(self)
            .unwrap_or_else(|e| panic!("invalid regex strategy {self:?}: {e}"))
            .generate(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident / $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(S0 / 0);
impl_tuple_strategy!(S0 / 0, S1 / 1);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6);
impl_tuple_strategy!(
    S0 / 0,
    S1 / 1,
    S2 / 2,
    S3 / 3,
    S4 / 4,
    S5 / 5,
    S6 / 6,
    S7 / 7
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_tuples_stay_in_bounds() {
        let mut rng = TestRng::from_name("strategy::bounds");
        let strat = (1u32..5, 0u8..=3, 0.0f64..2.0);
        for _ in 0..500 {
            let (a, b, c) = strat.generate(&mut rng);
            assert!((1..5).contains(&a));
            assert!(b <= 3);
            assert!((0.0..2.0).contains(&c));
        }
    }

    #[test]
    fn map_applies_function() {
        let mut rng = TestRng::from_name("strategy::map");
        let strat = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::from_name("strategy::oneof");
        let strat = OneOf::new(vec![
            Box::new((0u32..1).prop_map(|_| 10u32)) as Box<dyn Strategy<Value = u32>>,
            Box::new((0u32..1).prop_map(|_| 20u32)),
        ]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(strat.generate(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }
}
