//! Tail-drop FIFO (`pfifo`).

use std::collections::VecDeque;

use sim::Time;

use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};

/// A bounded FIFO queue with tail drop.
#[derive(Clone, Debug)]
pub struct Fifo {
    queue: VecDeque<QPkt>,
    limit_pkts: usize,
    backlog: u64,
    stats: QdiscStats,
}

impl Fifo {
    /// Creates a FIFO holding at most `limit_pkts` packets.
    ///
    /// # Panics
    ///
    /// Panics if `limit_pkts` is zero.
    pub fn new(limit_pkts: usize) -> Fifo {
        assert!(limit_pkts > 0, "FIFO needs capacity");
        Fifo {
            queue: VecDeque::with_capacity(limit_pkts.min(4096)),
            limit_pkts,
            backlog: 0,
            stats: QdiscStats::default(),
        }
    }
}

impl Qdisc for Fifo {
    fn enqueue(&mut self, pkt: QPkt, _now: Time) -> Result<(), EnqueueError> {
        if self.queue.len() >= self.limit_pkts {
            self.stats.dropped += 1;
            return Err(EnqueueError::QueueFull);
        }
        self.backlog += u64::from(pkt.len);
        self.stats.enqueued += 1;
        self.stats.bytes_enqueued += u64::from(pkt.len);
        self.queue.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<QPkt> {
        let pkt = self.queue.pop_front()?;
        self.backlog -= u64::from(pkt.len);
        self.stats.dequeued += 1;
        self.stats.bytes_dequeued += u64::from(pkt.len);
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn backlog_bytes(&self) -> u64 {
        self.backlog
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = Fifo::new(10);
        for i in 0..5 {
            q.enqueue(QPkt::new(i, 100, Time::ZERO), Time::ZERO)
                .unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.dequeue(Time::ZERO).map(|p| p.id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tail_drop_at_limit() {
        let mut q = Fifo::new(2);
        q.enqueue(QPkt::new(0, 10, Time::ZERO), Time::ZERO).unwrap();
        q.enqueue(QPkt::new(1, 10, Time::ZERO), Time::ZERO).unwrap();
        assert_eq!(
            q.enqueue(QPkt::new(2, 10, Time::ZERO), Time::ZERO),
            Err(EnqueueError::QueueFull)
        );
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn backlog_tracks_bytes() {
        let mut q = Fifo::new(10);
        q.enqueue(QPkt::new(0, 100, Time::ZERO), Time::ZERO)
            .unwrap();
        q.enqueue(QPkt::new(1, 200, Time::ZERO), Time::ZERO)
            .unwrap();
        assert_eq!(q.backlog_bytes(), 300);
        q.dequeue(Time::ZERO);
        assert_eq!(q.backlog_bytes(), 200);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut q = Fifo::new(1);
        assert!(q.dequeue(Time::ZERO).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut q = Fifo::new(4);
        for i in 0..4 {
            q.enqueue(QPkt::new(i, 50, Time::ZERO), Time::ZERO).unwrap();
        }
        q.dequeue(Time::ZERO);
        let s = q.stats();
        assert_eq!(s.enqueued, 4);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.bytes_enqueued, 200);
        assert_eq!(s.bytes_dequeued, 50);
    }
}
