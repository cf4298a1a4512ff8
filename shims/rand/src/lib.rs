//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! provides the exact API surface the workspace uses: `SeedableRng`,
//! the `Rng` extension trait (`gen`, `gen_range`, `gen_bool`) and
//! `rngs::StdRng`. The generator is xoshiro256** (Blackman & Vigna),
//! seeded from the 32-byte seed array — deterministic, fast and of
//! high statistical quality, which is all the simulator requires.
//! Streams are NOT bit-compatible with upstream `rand`; every consumer
//! in this workspace only relies on determinism, not on specific
//! values.

#![forbid(unsafe_code)]

/// Seeding behaviour: construct an RNG from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The seed type (always `[u8; 32]` for the RNGs in this shim).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the RNG from the seed bytes.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG from a single `u64` by expanding it with
    /// SplitMix64, mirroring upstream's `seed_from_u64`.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64_step(&mut s);
            let bytes = v.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

#[inline]
fn splitmix64_step(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Core generator interface: a source of uniformly random `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }
}

/// Extension trait with the ergonomic sampling methods.
pub trait Rng: RngCore {
    /// Samples a value of type `T` uniformly from its "standard"
    /// distribution (full range for integers, `[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from the given range (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool requires p in [0, 1]");
        f64::sample(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

impl<T: RngCore + ?Sized> RngCore for &mut T {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Marker + sampling for `Rng::gen`.
pub trait Standard: Sized {
    /// Draws one value from the standard distribution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u8 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types samplable by `gen_range`.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`. `lo < hi` is the caller's duty.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`. `lo <= hi` is the caller's duty.
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                // Width as u128 so `hi - lo` never overflows the target type.
                let span = (hi as i128 - lo as i128) as u128;
                let v = bounded_u128(rng, span);
                (lo as i128 + v as i128) as $t
            }
            #[inline]
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span == 0 {
                    // Full u128 span is impossible for <=64-bit types; the
                    // only overflow case is the full-domain range.
                    return ((rng.next_u64() as i128) + lo as i128) as $t;
                }
                let v = bounded_u128(rng, span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform draw from `[0, span)` by rejection, avoiding modulo bias.
#[inline]
fn bounded_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span <= u64::MAX as u128 {
        let span64 = span as u64;
        // Rejection zone: values >= floor(2^64 / span) * span are biased.
        let zone = u64::MAX - (u64::MAX - span64 + 1) % span64;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return (v % span64) as u128;
            }
        }
    } else {
        // span > 2^64 only arises for ranges wider than u64 — not used by
        // this workspace, but handle it for completeness.
        loop {
            let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if v < (u128::MAX / span) * span {
                return v % span;
            }
        }
    }
}

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u = <$t as Standard>::sample(rng);
                let v = lo + (hi - lo) * u;
                // Guard against rounding up to `hi`.
                if v < hi { v } else { <$t>::max(lo, hi - (hi - lo) * <$t>::EPSILON) }
            }
            #[inline]
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u = <$t as Standard>::sample(rng);
                let v = lo + (hi - lo) * u;
                if v > hi { hi } else { v }
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Range forms accepted by `gen_range`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(
            self.start < self.end,
            "gen_range requires a non-empty range"
        );
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range requires a non-empty range");
        T::sample_closed(rng, lo, hi)
    }
}

/// Named RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator — the shim's `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // xoshiro must not start from the all-zero state.
            if s == [0; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias: the workspace enables the `small_rng` feature but never
    /// distinguishes the two generators.
    pub type SmallRng = StdRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::from_seed([7; 32]);
        let mut b = StdRng::from_seed([7; 32]);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::from_seed([1; 32]);
        let mut b = StdRng::from_seed([2; 32]);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_int_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v: u32 = rng.gen_range(3..=9);
            assert!((3..=9).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 9;
        }
        assert!(seen_lo && seen_hi, "closed range must hit both endpoints");
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(0..7);
            assert!(v < 7);
        }
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f64 = rng.gen_range(-2.5..=4.5);
            assert!((-2.5..=4.5).contains(&v));
            let w: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&w));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn mean_of_f64_close_to_half() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
