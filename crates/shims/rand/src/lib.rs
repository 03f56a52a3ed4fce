//! Hermetic stand-in for the `rand` 0.8 API surface this workspace uses.
//!
//! The build environment has no network access and no vendored registry, so
//! the real `rand` crate cannot be fetched. This shim implements the small
//! subset the workspace depends on — [`rngs::SmallRng`], [`SeedableRng`],
//! and [`Rng::gen_range`]/[`Rng::gen_bool`] — with a deterministic
//! xoshiro256++ generator. Streams differ from upstream `rand`, but every
//! consumer in this workspace only relies on determinism-under-seed and
//! statistical uniformity, never on exact upstream streams.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use core::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types that can be uniformly sampled between two bounds.
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform draw from `[lo, hi)`.
    fn sample_exclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// A uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_exclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128);
                lo + (rng.next_u64() as u128 % span) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_exclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        assert!(lo < hi, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        f64::sample_exclusive(lo, hi, rng)
    }
}

impl SampleUniform for f32 {
    fn sample_exclusive<R: RngCore + ?Sized>(lo: f32, hi: f32, rng: &mut R) -> f32 {
        assert!(lo < hi, "cannot sample empty range");
        let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + unit * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(lo: f32, hi: f32, rng: &mut R) -> f32 {
        f32::sample_exclusive(lo, hi, rng)
    }
}

/// Ranges a value can be uniformly sampled from.
///
/// A single generic impl per range shape (as in upstream `rand`) so the
/// element type flows through inference from how the sampled value is used.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Small, fast generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A xoshiro256++ generator — the same family upstream `SmallRng` uses
    /// on 64-bit targets.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u32..1000), b.gen_range(0u32..1000));
        }
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.gen_range(0u64..1 << 40) == b.gen_range(0u64..1 << 40))
            .count();
        assert!(same < 3, "streams must diverge, {same} collisions");
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u8..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(3i32..=5);
            assert!((3..=5).contains(&w));
            let f = r.gen_range(0.0f64..2.5);
            assert!((0.0..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn uniformity_rough_check() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for b in buckets {
            assert!((800..1_200).contains(&b), "bucket {b} out of line");
        }
    }
}
