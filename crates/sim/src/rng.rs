//! Deterministic random numbers and the distributions workloads need.
//!
//! [`DetRng`] is a self-contained xoshiro256++ generator (seeded through
//! splitmix64), so the workspace carries no external RNG dependency and a
//! run is reproducible from its seed alone — across platforms and crate
//! versions, which matters because fault-injection replays (see
//! [`crate::fault`]) compare byte-identical results between runs.

/// A deterministic, seedable random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

/// The splitmix64 stream used to expand seeds; also used by the fault
/// injector to derive independent per-component streams.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> DetRng {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): rejection keeps uniformity.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits / 2^53: the standard uniform-double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// Used for Poisson-process inter-arrival times. A zero or negative
    /// mean returns `0.0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; `1 - f64()` avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_every_value() {
        let mut rng = DetRng::seed_from_u64(10);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(12);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seed_from_u64(11);
        let n = 20_000;
        let mean = 50.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() / mean < 0.05, "observed {observed}");
    }

    #[test]
    fn exponential_degenerate_mean() {
        let mut rng = DetRng::seed_from_u64(1);
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-5.0), 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from_u64(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = DetRng::seed_from_u64(23);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
