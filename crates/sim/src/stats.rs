//! Streaming statistics for experiment harnesses.
//!
//! [`Histogram`] — log-bucketed latency histogram with percentile
//! queries, HdrHistogram-style (bounded relative error per bucket).

use crate::time::Dur;

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 32 sub-buckets bound the relative error of a percentile query at
/// 1/32 ≈ 3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;

/// Log-bucketed histogram over `u64` values (typically picoseconds).
///
/// Values are placed into power-of-two buckets subdivided linearly, so
/// percentile queries have bounded relative error (~3%) at any magnitude.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn bucket_low(index: usize) -> u64 {
        let exp = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if exp == 0 {
            sub
        } else {
            let base = 1u64 << (exp as u32 + SUB_BITS - 1);
            base + sub * (base >> SUB_BITS)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration (stored as picoseconds).
    pub fn record_dur(&mut self, d: Dur) {
        self.record(d.0);
    }

    /// Returns the number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean value, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the exact minimum recorded value, or `0` when empty.
    #[cfg(test)]
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Returns the exact maximum recorded value, or `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at quantile `q` in `[0, 1]` (bucket lower bound),
    /// or `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 {p99}");
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_handles_small_and_huge_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= u64::MAX / 4);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
        }
        for v in 100..200 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 199);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
