//! Token-bucket filter shaping (`tbf`).

use sim::{Dur, Time};

use crate::fifo::Fifo;
use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};

/// A token-bucket shaper over an inner FIFO.
///
/// Unlike the overlay's policing token bucket (which drops), `Tbf`
/// *shapes*: packets wait in the inner queue until tokens accrue, and
/// [`Qdisc::next_ready`] reports when the head becomes eligible so the
/// caller can schedule a timer — exactly how `tc tbf` integrates with the
/// kernel's qdisc watchdog.
#[derive(Clone, Debug)]
pub struct Tbf {
    rate_bytes_per_sec: u64,
    burst_bytes: u64,
    tokens: f64,
    last_update: Time,
    inner: Fifo,
}

impl Tbf {
    /// Creates a shaper at `rate_bytes_per_sec` with `burst_bytes` of
    /// depth over a FIFO of `limit_pkts`.
    ///
    /// # Panics
    ///
    /// Panics if rate or burst is zero.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64, limit_pkts: usize) -> Tbf {
        assert!(rate_bytes_per_sec > 0, "rate must be positive");
        assert!(burst_bytes > 0, "burst must be positive");
        Tbf {
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes as f64,
            last_update: Time::ZERO,
            inner: Fifo::new(limit_pkts),
        }
    }

    fn refill(&mut self, now: Time) {
        let elapsed = now.saturating_since(self.last_update);
        if !elapsed.is_zero() {
            self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_bytes_per_sec as f64)
                .min(self.burst_bytes as f64);
            self.last_update = now;
        }
    }
}

impl Qdisc for Tbf {
    fn enqueue(&mut self, pkt: QPkt, now: Time) -> Result<(), EnqueueError> {
        self.inner.enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: Time) -> Option<QPkt> {
        self.refill(now);
        let head_len = u64::from(self.inner.peek()?.len);
        if self.tokens >= head_len as f64 {
            self.tokens -= head_len as f64;
            self.inner.dequeue(now)
        } else {
            None
        }
    }

    fn next_ready(&self, now: Time) -> Option<Time> {
        let head_len = u64::from(self.inner.peek()?.len);
        // Project token growth from the last update.
        let elapsed = now.saturating_since(self.last_update);
        let tokens_now = (self.tokens + elapsed.as_secs_f64() * self.rate_bytes_per_sec as f64)
            .min(self.burst_bytes as f64);
        if tokens_now >= head_len as f64 {
            return None; // already eligible
        }
        let deficit = head_len as f64 - tokens_now;
        let wait = Dur::from_secs_f64(deficit / self.rate_bytes_per_sec as f64);
        // Round up by a picosecond to avoid an off-by-one busy loop from
        // floating-point truncation.
        Some(now + wait + Dur::from_ps(1))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn backlog_bytes(&self) -> u64 {
        self.inner.backlog_bytes()
    }

    fn stats(&self) -> QdiscStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_passes_immediately() {
        let mut q = Tbf::new(1000, 500, 16);
        q.enqueue(QPkt::new(0, 500, Time::ZERO), Time::ZERO)
            .unwrap();
        assert!(q.dequeue(Time::ZERO).is_some());
    }

    #[test]
    fn shaping_holds_packets_until_tokens() {
        // 1000 B/s, 100 B burst: a 100 B packet drains the bucket; the
        // next 100 B packet must wait 100 ms.
        let mut q = Tbf::new(1000, 100, 16);
        q.enqueue(QPkt::new(0, 100, Time::ZERO), Time::ZERO)
            .unwrap();
        q.enqueue(QPkt::new(1, 100, Time::ZERO), Time::ZERO)
            .unwrap();
        assert!(q.dequeue(Time::ZERO).is_some());
        assert!(q.dequeue(Time::ZERO).is_none());
        let ready = q.next_ready(Time::ZERO).expect("should report readiness");
        assert!(ready >= Time::from_ms(100), "ready at {ready}");
        assert!(ready < Time::from_ms(101), "ready at {ready}");
        // At the reported instant, dequeue succeeds.
        assert!(q.dequeue(ready).is_some());
    }

    #[test]
    fn long_run_rate_is_respected() {
        let rate = 10_000u64; // bytes/s
        let mut q = Tbf::new(rate, 1000, 1024);
        let mut now = Time::ZERO;
        for i in 0..100 {
            q.enqueue(QPkt::new(i, 1000, now), now).unwrap();
        }
        let mut sent = 0u64;
        let end = Time::from_secs(5);
        while now < end {
            match q.dequeue(now) {
                Some(p) => sent += u64::from(p.len),
                None => match q.next_ready(now) {
                    Some(t) => now = t,
                    None => break,
                },
            }
        }
        // 5 s at 10 kB/s plus the 1000 B initial burst.
        let expect = rate * 5 + 1000;
        let err = (sent as f64 - expect as f64).abs() / expect as f64;
        assert!(err < 0.05, "sent {sent}, expected ~{expect}");
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut q = Tbf::new(1000, 200, 16);
        // Idle for 10 s: tokens cap at 200, so only two 100 B packets go
        // back-to-back.
        let now = Time::from_secs(10);
        for i in 0..3 {
            q.enqueue(QPkt::new(i, 100, now), now).unwrap();
        }
        assert!(q.dequeue(now).is_some());
        assert!(q.dequeue(now).is_some());
        assert!(q.dequeue(now).is_none());
    }

    #[test]
    fn empty_queue_not_ready() {
        let q = Tbf::new(1000, 100, 4);
        assert!(q.next_ready(Time::ZERO).is_none());
    }

    #[test]
    fn eligible_head_reports_none() {
        let mut q = Tbf::new(1000, 500, 4);
        q.enqueue(QPkt::new(0, 100, Time::ZERO), Time::ZERO)
            .unwrap();
        assert!(q.next_ready(Time::ZERO).is_none());
    }
}
