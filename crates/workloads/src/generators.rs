//! Traffic arrival generators.

use sim::{DetRng, Dur, Time};

/// Poisson packet arrivals (exponential inter-arrival times).
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rng: DetRng,
    mean_gap_ns: f64,
    next: Time,
}

impl PoissonArrivals {
    /// Creates a process with `rate_pps` packets per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_pps` is not positive.
    pub fn new(rate_pps: f64, rng: DetRng) -> PoissonArrivals {
        assert!(rate_pps > 0.0, "rate must be positive");
        PoissonArrivals {
            rng,
            mean_gap_ns: 1e9 / rate_pps,
            next: Time::ZERO,
        }
    }

    /// Returns the next arrival instant.
    pub fn next_arrival(&mut self) -> Time {
        let gap = self.rng.exponential(self.mean_gap_ns);
        self.next += Dur::from_ns_f64(gap);
        self.next
    }
}

/// Constant-bit-rate arrivals.
#[derive(Clone, Debug)]
pub struct CbrArrivals {
    interval: Dur,
    next: Time,
}

impl CbrArrivals {
    /// Creates arrivals every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Dur) -> CbrArrivals {
        assert!(!interval.is_zero(), "interval must be positive");
        CbrArrivals {
            interval,
            next: Time::ZERO,
        }
    }

    /// Creates arrivals that saturate `gbps` with `frame_bytes` frames.
    #[cfg(test)]
    pub(crate) fn at_rate(gbps: f64, frame_bytes: u64) -> CbrArrivals {
        let ns_per_frame = (frame_bytes * 8) as f64 / gbps;
        CbrArrivals::new(Dur::from_ns_f64(ns_per_frame))
    }

    /// Returns the next arrival instant.
    pub fn next_arrival(&mut self) -> Time {
        self.next += self.interval;
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let mut p = PoissonArrivals::new(1_000_000.0, DetRng::seed_from_u64(1));
        let n = 100_000;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = p.next_arrival();
        }
        // n arrivals at 1 Mpps should take ~n microseconds.
        let secs = last.as_secs_f64();
        let expect = n as f64 / 1e6;
        assert!((secs - expect).abs() / expect < 0.02, "took {secs}s");
    }

    #[test]
    fn poisson_is_monotone() {
        let mut p = PoissonArrivals::new(100.0, DetRng::seed_from_u64(2));
        let mut last = Time::ZERO;
        for _ in 0..1000 {
            let t = p.next_arrival();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn cbr_is_exact() {
        let mut c = CbrArrivals::new(Dur::from_ns(100));
        assert_eq!(c.next_arrival(), Time::from_ns(100));
        assert_eq!(c.next_arrival(), Time::from_ns(200));
    }

    #[test]
    fn cbr_at_line_rate() {
        // 1500B at 100 Gbps = 120 ns per frame (payload bits only).
        let mut c = CbrArrivals::at_rate(100.0, 1500);
        assert_eq!(c.next_arrival(), Time::from_ns(120));
    }
}
