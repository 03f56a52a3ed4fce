//! Collection strategies: [`vec`].

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use core::ops::{Range, RangeInclusive};

/// A length specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Generates a `Vec` whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.lo + rng.below(self.size.hi - self.size.lo + 1);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_size_range() {
        let mut rng = TestRng::from_name("collection::len");
        let strat = vec(0u32..100, 2..5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            seen.insert(v.len());
        }
        assert_eq!(seen.len(), 3, "all lengths 2..5 should occur");
    }

    #[test]
    fn nested_vecs_work() {
        let mut rng = TestRng::from_name("collection::nested");
        let strat = vec(vec(0u8..=255, 0..4), 1..3);
        let v = strat.generate(&mut rng);
        assert!(!v.is_empty());
    }
}
