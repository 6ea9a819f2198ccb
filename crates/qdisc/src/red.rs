//! Random Early Detection with ECN marking.
//!
//! §4.2 puts congestion control in the on-SmartNIC dataplane; the
//! standard mechanism pairing is an AQM that marks ECN at the bottleneck
//! queue plus a sender reaction (see `nicsim::cc`). This RED follows the
//! classic Floyd/Jacobson design: an EWMA of queue length, a linear
//! marking ramp between two thresholds, and hard drop above the maximum.

use sim::Time;

use crate::fifo::Fifo;
use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};

/// What RED decided about an accepted packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RedDecision {
    /// Queued unmarked.
    Accept,
    /// Queued and ECN-marked (congestion experienced).
    Mark,
}

/// RED configuration.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Average queue length (packets) where marking begins.
    pub min_th: f64,
    /// Average queue length where everything is marked/dropped.
    pub max_th: f64,
    /// Marking probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the queue average.
    pub weight: f64,
}

impl Default for RedConfig {
    fn default() -> RedConfig {
        RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            weight: 0.002,
        }
    }
}

/// A RED/ECN queue.
pub struct Red {
    cfg: RedConfig,
    inner: Fifo,
    avg: f64,
    /// Deterministic counter-based marking (replaces the RNG: mark every
    /// `1/p`-th eligible packet), keeping runs reproducible.
    accum: f64,
    marked: u64,
    hard_drops: u64,
}

impl Red {
    /// Creates a RED queue over a FIFO of `limit_pkts`.
    pub fn new(cfg: RedConfig, limit_pkts: usize) -> Red {
        Red {
            cfg,
            inner: Fifo::new(limit_pkts),
            avg: 0.0,
            accum: 0.0,
            marked: 0,
            hard_drops: 0,
        }
    }

    /// Returns (packets marked, hard drops above max threshold).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.marked, self.hard_drops)
    }

    /// Returns the current averaged queue length.
    #[cfg(test)]
    pub(crate) fn avg_queue(&self) -> f64 {
        self.avg
    }

    /// Offers a packet, returning whether it was ECN-marked.
    pub fn enqueue_ecn(&mut self, pkt: QPkt, now: Time) -> Result<RedDecision, EnqueueError> {
        self.avg = (1.0 - self.cfg.weight) * self.avg + self.cfg.weight * self.inner.len() as f64;
        if self.avg >= self.cfg.max_th {
            self.hard_drops += 1;
            // Count it against the stats of the inner queue by refusing.
            return Err(EnqueueError::QueueFull);
        }
        let mut decision = RedDecision::Accept;
        if self.avg > self.cfg.min_th {
            let p =
                self.cfg.max_p * (self.avg - self.cfg.min_th) / (self.cfg.max_th - self.cfg.min_th);
            self.accum += p;
            if self.accum >= 1.0 {
                self.accum -= 1.0;
                decision = RedDecision::Mark;
                self.marked += 1;
            }
        } else {
            self.accum = 0.0;
        }
        self.inner.enqueue(pkt, now)?;
        Ok(decision)
    }
}

impl Qdisc for Red {
    fn enqueue(&mut self, pkt: QPkt, now: Time) -> Result<(), EnqueueError> {
        self.enqueue_ecn(pkt, now).map(|_| ())
    }

    fn dequeue(&mut self, now: Time) -> Option<QPkt> {
        self.inner.dequeue(now)
    }

    fn next_ready(&self, now: Time) -> Option<Time> {
        self.inner.next_ready(now)
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

    fn pkt(id: u64) -> QPkt {
        QPkt::new(id, 1500, Time::ZERO)
    }

    #[test]
    fn short_queue_never_marks() {
        let mut q = Red::new(RedConfig::default(), 64);
        for i in 0..100 {
            let d = q.enqueue_ecn(pkt(i), Time::ZERO).unwrap();
            assert_eq!(d, RedDecision::Accept);
            q.dequeue(Time::ZERO);
        }
        assert_eq!(q.counters(), (0, 0));
    }

    #[test]
    fn sustained_backlog_marks_some() {
        let mut q = Red::new(RedConfig::default(), 1024);
        // Build and hold a queue of ~10 (between thresholds).
        let mut marked = 0;
        let mut id = 0;
        for _ in 0..10 {
            q.enqueue_ecn(pkt(id), Time::ZERO).unwrap();
            id += 1;
        }
        for _ in 0..5000 {
            if let Ok(RedDecision::Mark) = q.enqueue_ecn(pkt(id), Time::ZERO) {
                marked += 1;
            }
            id += 1;
            q.dequeue(Time::ZERO);
        }
        assert!(marked > 10, "marked {marked}");
        assert!(q.avg_queue() > RedConfig::default().min_th);
    }

    #[test]
    fn heavy_overload_hard_drops() {
        let cfg = RedConfig {
            weight: 0.5, // fast-moving average for the test
            ..RedConfig::default()
        };
        let mut q = Red::new(cfg, 1024);
        let mut dropped = 0;
        for i in 0..200 {
            if q.enqueue_ecn(pkt(i), Time::ZERO).is_err() {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert!(q.counters().1 > 0);
    }

    #[test]
    fn marking_rate_tracks_ramp() {
        // Hold the instantaneous queue near max_th: marking probability
        // approaches max_p.
        let cfg = RedConfig {
            min_th: 5.0,
            max_th: 50.0,
            max_p: 0.2,
            weight: 0.05,
        };
        let mut q = Red::new(cfg, 4096);
        let mut id = 0;
        // Hold backlog at ~40.
        for _ in 0..40 {
            q.enqueue_ecn(pkt(id), Time::ZERO).unwrap();
            id += 1;
        }
        let mut marked = 0;
        let trials = 4000;
        for _ in 0..trials {
            if let Ok(RedDecision::Mark) = q.enqueue_ecn(pkt(id), Time::ZERO) {
                marked += 1;
            }
            id += 1;
            q.dequeue(Time::ZERO);
        }
        let rate = marked as f64 / trials as f64;
        // Expected ~max_p * (40-5)/(50-5) ≈ 0.155.
        assert!((0.10..0.22).contains(&rate), "marking rate {rate}");
    }

    #[test]
    fn qdisc_trait_passthrough() {
        let mut q = Red::new(RedConfig::default(), 8);
        q.enqueue(pkt(1), Time::ZERO).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.backlog_bytes(), 1500);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().id, 1);
        assert!(q.next_ready(Time::ZERO).is_none());
    }
}
