//! Multi-queue egress: one independent scheduler per NIC TX queue.
//!
//! Hardware multi-queue NICs do not run one global scheduler — each TX
//! queue arbitrates independently and the queues are served round-robin
//! by the DMA engine (Linux models this as the `mq` qdisc with a child
//! discipline per hardware queue). [`MultiQueue`] mirrors that shape: a
//! fixed array of [`Wfq`] children, per-queue enqueue keyed by the RSS
//! queue id, and a deterministic rotating round-robin dequeue across
//! queues so no queue can starve another. With a single queue the
//! behaviour is byte-identical to a bare [`Wfq`].

use sim::Time;

use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};
use crate::wfq::Wfq;

/// A bank of per-TX-queue [`Wfq`] schedulers with round-robin service.
pub struct MultiQueue {
    queues: Vec<Wfq>,
    weights: Vec<f64>,
    per_class_limit: usize,
    /// Next queue the round-robin pointer will offer service to.
    next_rr: usize,
}

impl MultiQueue {
    /// Creates `num_queues` independent WFQ schedulers, each with the
    /// same per-class `weights` and `per_class_limit`.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues` is zero, or on the same conditions as
    /// [`Wfq::new`] (empty or non-positive weights).
    pub fn new(num_queues: usize, weights: &[f64], per_class_limit: usize) -> MultiQueue {
        assert!(num_queues > 0, "need at least one TX queue");
        MultiQueue {
            queues: (0..num_queues)
                .map(|_| Wfq::new(weights, per_class_limit))
                .collect(),
            weights: weights.to_vec(),
            per_class_limit,
            next_rr: 0,
        }
    }

    /// Returns the number of TX queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Returns the number of classes each queue schedules.
    pub fn num_classes(&self) -> usize {
        self.queues[0].num_classes()
    }

    /// Rebuilds the bank as `num_queues` fresh WFQ schedulers using
    /// `weights` — the multi-queue analogue of swapping in a new [`Wfq`] —
    /// and carries the backlog across the swap: a live reconfiguration
    /// must not lose frames it had already accepted. Each queued packet
    /// re-enters queue `old_queue % num_queues` in its old order (class
    /// order, FIFO within a class) and is tagged afresh under the new
    /// weights; a packet whose class no longer exists falls to class 0,
    /// like any unclassified packet.
    ///
    /// Returns the packets that could not be carried (the receiving class
    /// was full), counted as drops; the caller owes each an account.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`MultiQueue::new`].
    pub fn reconfigure(&mut self, num_queues: usize, weights: &[f64], now: Time) -> Vec<QPkt> {
        let next = MultiQueue::new(num_queues, weights, self.per_class_limit);
        let old = std::mem::replace(self, next);
        let mut refused = Vec::new();
        for (q, mut wfq) in old.queues.into_iter().enumerate() {
            // `purge` books the packets as drops of the scheduler being
            // discarded; what counts from here on is the new bank's stats.
            for mut pkt in wfq.purge() {
                if pkt.class as usize >= weights.len() {
                    pkt.class = 0;
                }
                if self.enqueue_on(q % num_queues, pkt, now).is_err() {
                    refused.push(pkt);
                }
            }
        }
        refused
    }

    /// Returns the configured per-class weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Offers `pkt` to TX queue `queue`.
    pub fn enqueue_on(&mut self, queue: usize, pkt: QPkt, now: Time) -> Result<(), EnqueueError> {
        assert!(queue < self.queues.len(), "TX queue {queue} out of range");
        self.queues[queue].enqueue(pkt, now)
    }

    /// Releases the next packet under rotating round-robin across queues:
    /// the pointer starts at the queue after the last served one, and the
    /// first non-empty queue's WFQ winner departs. Deterministic for a
    /// given enqueue history.
    pub fn dequeue_rr(&mut self, now: Time) -> Option<(usize, QPkt)> {
        let n = self.queues.len();
        for off in 0..n {
            let q = (self.next_rr + off) % n;
            if let Some(pkt) = self.queues[q].dequeue(now) {
                self.next_rr = (q + 1) % n;
                return Some((q, pkt));
            }
        }
        None
    }

    /// Bytes dequeued so far per class, summed across queues (the
    /// cross-queue analogue of `Wfq::class_bytes_sent`).
    pub fn class_bytes_sent(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.num_classes()];
        for q in &self.queues {
            for (i, b) in q.class_bytes_sent().into_iter().enumerate() {
                totals[i] += b;
            }
        }
        totals
    }

    /// Queued packets on one queue.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.queues[queue].len()
    }

    /// Drains every queued packet across all queues without serving them
    /// (see `Wfq::purge`): queue order, then class order, then FIFO —
    /// deterministic, so a crash loses the same frames on every replay.
    pub fn purge(&mut self) -> Vec<QPkt> {
        let mut purged = Vec::new();
        for q in self.queues.iter_mut() {
            purged.extend(q.purge());
        }
        purged
    }
}

impl Qdisc for MultiQueue {
    /// Single-queue-compatible enqueue: offers to queue 0. Multi-queue
    /// callers should use [`MultiQueue::enqueue_on`].
    fn enqueue(&mut self, pkt: QPkt, now: Time) -> Result<(), EnqueueError> {
        self.enqueue_on(0, pkt, now)
    }

    fn dequeue(&mut self, now: Time) -> Option<QPkt> {
        self.dequeue_rr(now).map(|(_, pkt)| pkt)
    }

    fn len(&self) -> usize {
        self.queues.iter().map(Qdisc::len).sum()
    }

    fn backlog_bytes(&self) -> u64 {
        self.queues.iter().map(Qdisc::backlog_bytes).sum()
    }

    fn stats(&self) -> QdiscStats {
        let mut total = QdiscStats::default();
        for q in &self.queues {
            let s = q.stats();
            total.enqueued += s.enqueued;
            total.dequeued += s.dequeued;
            total.dropped += s.dropped;
            total.bytes_enqueued += s.bytes_enqueued;
            total.bytes_dequeued += s.bytes_dequeued;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, len: u32, class: u32) -> QPkt {
        QPkt::new(id, len, Time::ZERO).with_class(class)
    }

    #[test]
    fn single_queue_matches_bare_wfq() {
        let mut mq = MultiQueue::new(1, &[2.0, 1.0], 64);
        let mut wfq = Wfq::new(&[2.0, 1.0], 64);
        for i in 0..40 {
            let p = pkt(i, 600, (i % 2) as u32);
            mq.enqueue(p, Time::ZERO).unwrap();
            wfq.enqueue(p, Time::ZERO).unwrap();
        }
        loop {
            let a = mq.dequeue(Time::ZERO);
            let b = wfq.dequeue(Time::ZERO);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn round_robin_serves_all_queues() {
        let mut mq = MultiQueue::new(4, &[1.0], 64);
        for q in 0..4 {
            for i in 0..3 {
                mq.enqueue_on(q, pkt(q as u64 * 10 + i, 100, 0), Time::ZERO)
                    .unwrap();
            }
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| mq.dequeue_rr(Time::ZERO).map(|(q, _)| q)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_empty_queues() {
        let mut mq = MultiQueue::new(3, &[1.0], 64);
        mq.enqueue_on(2, pkt(1, 100, 0), Time::ZERO).unwrap();
        mq.enqueue_on(2, pkt(2, 100, 0), Time::ZERO).unwrap();
        assert_eq!(mq.dequeue_rr(Time::ZERO).unwrap(), (2, pkt(1, 100, 0)));
        assert_eq!(mq.dequeue_rr(Time::ZERO).unwrap(), (2, pkt(2, 100, 0)));
        assert!(mq.dequeue_rr(Time::ZERO).is_none());
    }

    #[test]
    fn stats_aggregate_across_queues() {
        let mut mq = MultiQueue::new(2, &[1.0], 1);
        mq.enqueue_on(0, pkt(1, 100, 0), Time::ZERO).unwrap();
        mq.enqueue_on(1, pkt(2, 200, 0), Time::ZERO).unwrap();
        // Per-class limit 1: second enqueue on queue 0 drops.
        assert!(mq.enqueue_on(0, pkt(3, 100, 0), Time::ZERO).is_err());
        let s = mq.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.bytes_enqueued, 300);
        assert_eq!(mq.len(), 2);
        assert_eq!(mq.backlog_bytes(), 300);
    }

    #[test]
    fn reconfigure_replaces_all_queues() {
        let mut mq = MultiQueue::new(2, &[1.0, 1.0], 8);
        mq.enqueue_on(1, pkt(1, 100, 0), Time::ZERO).unwrap();
        mq.enqueue_on(1, pkt(2, 100, 1), Time::ZERO).unwrap();
        mq.enqueue_on(0, pkt(3, 100, 1), Time::ZERO).unwrap();
        assert!(mq.reconfigure(2, &[1.0, 3.0], Time::ZERO).is_empty());
        assert_eq!(mq.num_classes(), 2);
        assert_eq!(mq.weights(), &[1.0, 3.0]);
        assert_eq!((mq.queue_len(0), mq.queue_len(1)), (1, 2));
        // The new weights decide the order: class 1 (weight 3) first.
        let order: Vec<u64> = std::iter::from_fn(|| mq.dequeue(Time::ZERO).map(|p| p.id)).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn reconfigure_folds_vanished_classes_and_queues() {
        let mut mq = MultiQueue::new(2, &[1.0, 1.0], 2);
        mq.enqueue_on(0, pkt(1, 100, 0), Time::ZERO).unwrap();
        mq.enqueue_on(0, pkt(2, 100, 1), Time::ZERO).unwrap();
        mq.enqueue_on(1, pkt(3, 100, 1), Time::ZERO).unwrap();
        // One queue, one class, two slots: three packets contend for
        // class 0 of queue 0 and the last to arrive is refused.
        let refused = mq.reconfigure(1, &[1.0], Time::ZERO);
        assert_eq!(refused.iter().map(|p| p.id).collect::<Vec<_>>(), vec![3]);
        assert_eq!(mq.num_queues(), 1);
        assert_eq!(mq.len(), 2);
        assert_eq!(mq.stats().dropped, 1);
        assert_eq!(mq.dequeue(Time::ZERO).unwrap().class, 0);
    }

    #[test]
    #[should_panic(expected = "at least one TX queue")]
    fn zero_queues_rejected() {
        let _ = MultiQueue::new(0, &[1.0], 8);
    }
}
