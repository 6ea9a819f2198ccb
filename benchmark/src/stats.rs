//! The estimator: order statistics over equal-sized timed segments.
//!
//! A run's timed region is split into equal segments and the reported
//! host time is the **third-fastest segment**. The program is
//! deterministic and every segment does the same work, so interference
//! on a shared box only ever adds time, and it comes in phases that can
//! cover most of a run; the fastest segments are the ones that ran
//! undisturbed. Taking the third rather than the first shrugs off up to
//! two freak readings. On this box it repeats several times better than
//! the lower decile, let alone the median or the mean (README.md has the
//! measured spreads). What it cannot see is a cost that skips three
//! segments, so the others go to the detail file and `compare` judges the
//! mean, which hides nothing, in the row after the estimate.

/// The value at quantile `q` of `sorted` (ascending), nearest-rank.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The rank (1 = fastest) of the sample reported as the estimate.
pub const ESTIMATE_RANK: usize = 3;

/// Order statistics of one set of per-segment (or per-repetition) times.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The [`ESTIMATE_RANK`]-th smallest sample: the estimate.
    pub low: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            low: sorted[ESTIMATE_RANK.min(sorted.len()) - 1],
            p10: quantile_sorted(&sorted, 0.10),
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Index of the segment whose time is the reported estimate — the
/// traced run reads its span breakdown from this one segment, so the
/// parts sum to exactly the reported whole.
pub fn estimate_index(samples: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order[ESTIMATE_RANK.min(samples.len()) - 1]
}

/// Exact histogram of simulated latencies at whole-nanosecond
/// resolution. Simulated metrics must repeat exactly, so no bucketing
/// error is allowed; the value range of this model (hundreds of ns to
/// tens of µs) makes a dense table cheap.
#[derive(Clone, Debug, Default)]
pub struct ExactHist {
    counts: Vec<u64>,
    total: u64,
}

impl ExactHist {
    /// Records one latency.
    #[inline]
    pub fn record(&mut self, d: sim::Dur) {
        let ns = (d.0 / sim::time::PS_PER_NS) as usize;
        if ns >= self.counts.len() {
            self.counts.resize(ns + 1, 0);
        }
        self.counts[ns] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ns as u64;
            }
        }
        0
    }

    /// Samples strictly above the value at quantile `q`.
    pub fn beyond(&self, q: f64) -> u64 {
        let at = self.quantile(q) as usize;
        self.counts.iter().skip(at + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1024).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.10), 103.0);
        assert_eq!(quantile_sorted(&v, 0.50), 512.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1024.0);
        assert_eq!(quantile_sorted(&[7.0], 0.10), 7.0);
        let s = Summary::of(&v);
        assert_eq!((s.low, s.p10, s.p50, s.p90), (3.0, 103.0, 512.0, 922.0));
        assert_eq!(Summary::of(&[9.0, 8.0]).low, 9.0);
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(shuffled[estimate_index(&shuffled)], 3.0);
    }

    #[test]
    fn exact_hist_quantiles() {
        let mut h = ExactHist::default();
        for _ in 0..990 {
            h.record(sim::Dur::from_ns(370));
        }
        for _ in 0..10 {
            h.record(sim::Dur::from_ns(970));
        }
        assert_eq!(h.quantile(0.5), 370);
        assert_eq!(h.quantile(0.99), 370);
        assert_eq!(h.quantile(0.991), 970);
        assert_eq!(h.beyond(0.99), 10);
        assert_eq!(h.count(), 1000);
    }
}
