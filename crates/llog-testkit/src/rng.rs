//! Deterministic pseudo-random number generation.
//!
//! [`TestRng`] is xoshiro256** (Blackman & Vigna) seeded through
//! [`SplitMix64`], the combination recommended by the xoshiro authors: the
//! SplitMix64 stream decorrelates arbitrary user seeds (including 0) before
//! they reach the xoshiro state, and xoshiro256** provides a fast,
//! high-quality 64-bit stream with a 2^256 − 1 period.
//!
//! This is **not** a cryptographic generator. It exists so workloads,
//! property tests, and benches are bit-for-bit reproducible from a logged
//! `u64` seed on every platform — the deterministic-replay property that
//! logical recovery testing depends on.
//!
//! ```
//! use llog_testkit::TestRng;
//!
//! let mut a = TestRng::seed_from_u64(42);
//! let mut b = TestRng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! ```

/// SplitMix64: a tiny, fast generator used here as a seed expander.
///
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014); constants per Vigna's public-domain C.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new instance from a raw 64-bit seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's deterministic RNG: xoshiro256** seeded via SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Deterministically seed from a `u64` (the only seeding path — every
    /// randomized artifact in the workspace is reproducible from one u64).
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        TestRng { s }
    }

    /// Next 64 bits of the stream (xoshiro256** core step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 bits (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin flip.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn ratio(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniform integer below `bound` (Lemire-style rejection via widening
    /// multiply, debiased by retrying the low-slack region).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Widening multiply maps the 64-bit stream to [0, bound); reject
        // the first `(2^64 % bound)` values of each residue class so every
        // output is exactly equally likely.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform draw from a range, mirroring `rand::Rng::random_range`.
    ///
    /// Accepts `a..b` and `a..=b` over the integer types the workspace
    /// uses (see [`SampleRange`]).
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fill a byte slice with uniform random bytes.
    pub fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derive an independent child generator (for per-case streams).
    pub fn fork(&mut self) -> TestRng {
        TestRng::seed_from_u64(self.next_u64())
    }
}

/// Ranges [`TestRng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut TestRng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample(self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Published reference outputs for SplitMix64 with seed 1234567.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::seed_from_u64(99);
        let mut b = TestRng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(1usize..=4);
            assert!((1..=4).contains(&y));
            let f = rng.random_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let u = rng.f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_draws_are_roughly_uniform() {
        let mut rng = TestRng::seed_from_u64(21);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10 000; allow ±10 %.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn fill_covers_tail_bytes() {
        let mut rng = TestRng::seed_from_u64(5);
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TestRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elems left them sorted");
    }

    #[test]
    fn bool_is_balanced() {
        let mut rng = TestRng::seed_from_u64(13);
        let trues = (0..10_000).filter(|_| rng.bool()).count();
        assert!((4_500..5_500).contains(&trues), "trues {trues}");
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = TestRng::seed_from_u64(3);
        let mut a = parent.fork();
        let mut b = parent.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
