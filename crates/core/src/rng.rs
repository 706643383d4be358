//! Deterministic pseudo-random number generation.
//!
//! The kernel and all workload generators use this self-contained
//! xoshiro256** generator (seeded through SplitMix64) instead of an external
//! RNG so that simulation results are bit-reproducible across library
//! versions and platforms — a prerequisite for the determinism claims
//! reproduced from the paper (Fig. 11).

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use unison_core::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the raw 256-bit generator state (its snapshot encoding).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent child generator; used to give each node or
    /// flow its own stream without cross-correlation.
    pub fn fork(&mut self, salt: u64) -> Rng {
        let mut seed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
        ];
        Rng { s }
    }

    /// Returns the next 64 random bits.
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

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0) is meaningless");
        // Lemire's multiply-shift rejection method: unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Samples an exponential distribution with the given mean.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // Clamp the uniform away from 0 so ln() is finite.
        let u = self.next_f64().max(1e-18);
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(11);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = Rng::new(9);
        let n = 100_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.next_exp(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.1 * mean, "observed {observed}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(21);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniformity_rough_chi_square() {
        let mut r = Rng::new(17);
        let mut buckets = [0u32; 16];
        let n = 160_000;
        for _ in 0..n {
            buckets[r.next_below(16) as usize] += 1;
        }
        let expect = (n / 16) as f64;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 15 dof, p=0.001 critical value ~37.7.
        assert!(chi2 < 37.7, "chi2 {chi2}");
    }
}
