//! Deterministic randomness for simulations.
//!
//! All stochastic choices in the workspace flow through [`SimRng`], a thin
//! newtype over a self-contained ChaCha8 block cipher in counter mode.
//! ChaCha has a stability guarantee across versions (unlike generators
//! whose algorithm may change under us), which is what makes
//! `(seed, config)` a complete description of an experiment run. The
//! implementation is vendored here so the workspace builds with zero
//! external dependencies.

use std::ops::{Range, RangeInclusive};

/// The ChaCha8 keystream generator: 256-bit key, 64-bit block counter,
/// producing 16 words (64 bytes) per block with 8 rounds.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; 16],
    /// Next unread word in `buffer`; 16 means the buffer is exhausted.
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    fn new(key: [u32; 8]) -> Self {
        ChaCha8 {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&Self::SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let input = state;
        for _ in 0..4 {
            // One double round: 4 column rounds + 4 diagonal rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.buffer = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }
}

/// SplitMix64 step, used to expand a 64-bit seed into key material.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seedable, reproducible random number generator.
///
/// ```
/// use tsn_simnet::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng(ChaCha8);

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let word = splitmix64(&mut s);
            pair[0] = word as u32;
            if let Some(hi) = pair.get_mut(1) {
                *hi = (word >> 32) as u32;
            }
        }
        SimRng(ChaCha8::new(key))
    }

    /// Derives an independent child generator.
    ///
    /// Each subsystem (network, churn, behaviour models, …) receives its own
    /// fork, so adding randomness consumption to one subsystem does not
    /// perturb the stream seen by another — runs stay comparable across
    /// code changes.
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label into a fresh seed drawn from this stream.
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives the `stream`-th independent generator of a seed's stream
    /// family, *statelessly*: unlike [`SimRng::fork`] no draw is consumed
    /// from any parent, so `(seed, stream)` fully determines the stream
    /// regardless of who created it, when, or on which thread.
    ///
    /// This is the shard-parallel splitting primitive: the sharded
    /// scenario engine gives every `(round, node)` pair its own stream,
    /// which makes the draw sequence independent of the shard count and
    /// of execution order — the property behind "k shards, bit-identical
    /// outcomes".
    ///
    /// Structured labels (e.g. `round << 32 | node`) are safe: the label
    /// passes through SplitMix64 before touching the seed, so adjacent
    /// labels land in unrelated key material.
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        let mut label = stream;
        let mixed = splitmix64(&mut label);
        let mut s = seed ^ mixed;
        SimRng::seed_from_u64(splitmix64(&mut s))
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.0.next_u32() as u64;
        let hi = self.0.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform sample from an integer range, e.g. `rng.gen_range(0..10)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Unbiased uniform draw in `[0, span)` via rejection sampling.
    fn gen_below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        if span == 1 {
            return 0;
        }
        // Reject draws from the final partial copy of [0, span).
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % span;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → the standard [0,1) mantissa construction.
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.gen_f64() < p
    }

    /// Standard-normal sample via Box–Muller (avoids a dependency on
    /// a distributions crate for the one distribution the simulator
    /// needs).
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Exponential sample with the given rate (`rate > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn gen_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.gen_f64();
        -u.ln() / rate
    }

    /// Chooses one element of a non-empty slice uniformly.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.gen_range(0..items.len());
            Some(&items[i])
        }
    }

    /// Samples an index from a weight vector (weights need not be
    /// normalized; non-finite or negative weights count as zero).
    ///
    /// Returns `None` when all weights are zero or the slice is empty.
    pub fn choose_weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let total: f64 = weights.iter().copied().map(clean).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = clean(w);
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point round-off: fall back to the last positive weight.
        weights.iter().rposition(|&w| clean(w) > 0.0)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

/// Integer ranges [`SimRng::gen_range`] accepts, mirroring the familiar
/// calling convention of mainstream RNG crates for the types the
/// workspace uses.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.gen_below(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.gen_below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn stream_is_reproducible_and_nondegenerate() {
        let mut rng = SimRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let again: Vec<u64> = {
            let mut rng = SimRng::seed_from_u64(42);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(first, again);
        assert!(first.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(9);
        let mut root2 = SimRng::seed_from_u64(9);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g1 = root1.fork(2);
        assert_ne!(f1.next_u64(), g1.next_u64());
    }

    #[test]
    fn streams_are_stateless_deterministic_and_distinct() {
        // Same (seed, stream) → same draws, no matter what else ran.
        let mut a = SimRng::stream(7, 3);
        let _ = SimRng::stream(7, 99).next_u64(); // unrelated stream
        let mut b = SimRng::stream(7, 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Adjacent structured labels (round << 32 | node) diverge.
        let mut streams: Vec<u64> = (0..64u64)
            .map(|i| SimRng::stream(7, (i / 8) << 32 | (i % 8)).next_u64())
            .collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), 64, "no first-draw collisions");
        // Different seeds give different stream families.
        assert_ne!(
            SimRng::stream(1, 0).next_u64(),
            SimRng::stream(2, 0).next_u64()
        );
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x: u32 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = rng.gen_range(0..=5);
            assert!(y <= 5);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 appear");
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_normal(3.0, 2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 3.0).abs() < 0.1,
            "sample mean {mean} too far from 3.0"
        );
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_exp(2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.05,
            "sample mean {mean} too far from 0.5"
        );
    }

    #[test]
    fn weighted_choice_follows_weights() {
        let mut rng = SimRng::seed_from_u64(8);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.choose_weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio} too far from 3");
    }

    #[test]
    fn weighted_choice_degenerate_cases() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(rng.choose_weighted_index(&[]), None);
        assert_eq!(rng.choose_weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.choose_weighted_index(&[f64::NAN, 0.0]), None);
        assert_eq!(rng.choose_weighted_index(&[0.0, 5.0]), Some(1));
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = SimRng::seed_from_u64(10);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
