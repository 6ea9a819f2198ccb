//! Deficit round-robin scheduling (`drr`).

use std::collections::VecDeque;

use sim::Time;

use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};

struct ClassQueue {
    queue: VecDeque<QPkt>,
    quantum: u32,
    deficit: u32,
    backlog: u64,
}

/// Deficit round-robin across a fixed set of classes.
///
/// Each class has a quantum proportional to its share; a class may send
/// up to its accumulated deficit per round, giving byte-accurate weighted
/// fairness with O(1) dequeue.
pub struct Drr {
    classes: Vec<ClassQueue>,
    /// Round-robin order of backlogged classes.
    active: VecDeque<usize>,
    per_class_limit: usize,
    stats: QdiscStats,
    sent_per_class: Vec<u64>,
}

impl Drr {
    /// Creates a scheduler with one quantum per class (bytes per round).
    ///
    /// # Panics
    ///
    /// Panics if `quanta` is empty or any quantum is zero.
    pub fn new(quanta: &[u32], per_class_limit: usize) -> Drr {
        assert!(!quanta.is_empty(), "need at least one class");
        assert!(quanta.iter().all(|&q| q > 0), "quanta must be positive");
        Drr {
            classes: quanta
                .iter()
                .map(|&q| ClassQueue {
                    queue: VecDeque::new(),
                    quantum: q,
                    deficit: 0,
                    backlog: 0,
                })
                .collect(),
            active: VecDeque::new(),
            per_class_limit,
            stats: QdiscStats::default(),
            sent_per_class: vec![0; quanta.len()],
        }
    }

    /// Returns bytes dequeued so far per class (for fairness checks).
    #[cfg(test)]
    pub(crate) fn class_bytes_sent(&self) -> Vec<u64> {
        self.sent_per_class.clone()
    }
}

impl Qdisc for Drr {
    fn enqueue(&mut self, pkt: QPkt, _now: Time) -> Result<(), EnqueueError> {
        let idx = pkt.class as usize;
        if idx >= self.classes.len() {
            self.stats.dropped += 1;
            return Err(EnqueueError::NoSuchClass { class: pkt.class });
        }
        let class = &mut self.classes[idx];
        if class.queue.len() >= self.per_class_limit {
            self.stats.dropped += 1;
            return Err(EnqueueError::QueueFull);
        }
        let was_empty = class.queue.is_empty();
        class.queue.push_back(pkt);
        class.backlog += u64::from(pkt.len);
        self.stats.enqueued += 1;
        self.stats.bytes_enqueued += u64::from(pkt.len);
        if was_empty {
            class.deficit = 0;
            self.active.push_back(idx);
        }
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<QPkt> {
        // At most one full cycle through active classes per dequeue.
        for _ in 0..self.active.len().max(1) {
            let idx = *self.active.front()?;
            let class = &mut self.classes[idx];
            let head_len = match class.queue.front() {
                Some(p) => p.len,
                None => {
                    // Shouldn't happen (emptied classes are removed), but
                    // stay robust.
                    self.active.pop_front();
                    continue;
                }
            };
            if class.deficit >= head_len {
                class.deficit -= head_len;
                let pkt = class.queue.pop_front().expect("head exists");
                class.backlog -= u64::from(pkt.len);
                self.stats.dequeued += 1;
                self.stats.bytes_dequeued += u64::from(pkt.len);
                self.sent_per_class[idx] += u64::from(pkt.len);
                if class.queue.is_empty() {
                    class.deficit = 0;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            // Grant a quantum and rotate to the back of the round.
            class.deficit = class.deficit.saturating_add(class.quantum);
            let idx = self.active.pop_front().expect("checked front");
            self.active.push_back(idx);
        }
        // All classes needed more deficit; loop again (bounded: each class
        // gains a quantum per rotation, so a packet eventually fits).
        self.dequeue_slow()
    }

    fn next_ready(&self, _now: Time) -> Option<Time> {
        None
    }

    fn len(&self) -> usize {
        self.classes.iter().map(|c| c.queue.len()).sum()
    }

    fn backlog_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.backlog).sum()
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

impl Drr {
    fn dequeue_slow(&mut self) -> Option<QPkt> {
        if self.active.is_empty() {
            return None;
        }
        // Keep granting quanta until some head packet fits. Bounded by
        // max(head_len / quantum) rotations.
        for _ in 0..100_000 {
            let idx = *self.active.front()?;
            let class = &mut self.classes[idx];
            let head_len = class.queue.front()?.len;
            if class.deficit >= head_len {
                class.deficit -= head_len;
                let pkt = class.queue.pop_front()?;
                class.backlog -= u64::from(pkt.len);
                self.stats.dequeued += 1;
                self.stats.bytes_dequeued += u64::from(pkt.len);
                self.sent_per_class[idx] += u64::from(pkt.len);
                if class.queue.is_empty() {
                    class.deficit = 0;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            class.deficit = class.deficit.saturating_add(class.quantum);
            let idx = self.active.pop_front()?;
            self.active.push_back(idx);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, len: u32, class: u32) -> QPkt {
        QPkt::new(id, len, Time::ZERO).with_class(class)
    }

    fn drain_bytes(q: &mut Drr, classes: usize) -> Vec<u64> {
        let mut out = vec![0u64; classes];
        while let Some(p) = q.dequeue(Time::ZERO) {
            out[p.class as usize] += u64::from(p.len);
        }
        out
    }

    #[test]
    fn equal_quanta_equal_shares() {
        let mut q = Drr::new(&[1500, 1500], 1024);
        for i in 0..100 {
            q.enqueue(pkt(i, 1000, 0), Time::ZERO).unwrap();
            q.enqueue(pkt(1000 + i, 1000, 1), Time::ZERO).unwrap();
        }
        // Drain half; shares should be near equal.
        let mut sent = [0u64; 2];
        for _ in 0..100 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let diff = (sent[0] as i64 - sent[1] as i64).abs();
        assert!(diff <= 2000, "shares {sent:?}");
    }

    #[test]
    fn weighted_quanta_weighted_shares() {
        // 3:1 quanta should give ~3:1 service while both are backlogged.
        let mut q = Drr::new(&[3000, 1000], 4096);
        for i in 0..300 {
            q.enqueue(pkt(i, 500, 0), Time::ZERO).unwrap();
            q.enqueue(pkt(10_000 + i, 500, 1), Time::ZERO).unwrap();
        }
        let mut sent = [0u64; 2];
        for _ in 0..200 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let ratio = sent[0] as f64 / sent[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio} from {sent:?}");
    }

    #[test]
    fn work_conserving_when_one_class_idle() {
        let mut q = Drr::new(&[1000, 1000], 64);
        for i in 0..10 {
            q.enqueue(pkt(i, 800, 0), Time::ZERO).unwrap();
        }
        let sent = drain_bytes(&mut q, 2);
        assert_eq!(sent, vec![8000, 0]);
    }

    #[test]
    fn large_packets_still_served() {
        // Quantum smaller than packet: deficit accumulates over rounds.
        let mut q = Drr::new(&[100, 100], 8);
        q.enqueue(pkt(0, 1500, 0), Time::ZERO).unwrap();
        let p = q.dequeue(Time::ZERO).expect("eventually served");
        assert_eq!(p.id, 0);
    }

    #[test]
    fn unknown_class_rejected() {
        let mut q = Drr::new(&[100], 8);
        assert_eq!(
            q.enqueue(pkt(0, 100, 5), Time::ZERO),
            Err(EnqueueError::NoSuchClass { class: 5 })
        );
    }

    #[test]
    fn per_class_limit_enforced() {
        let mut q = Drr::new(&[100, 100], 1);
        q.enqueue(pkt(0, 100, 0), Time::ZERO).unwrap();
        assert_eq!(
            q.enqueue(pkt(1, 100, 0), Time::ZERO),
            Err(EnqueueError::QueueFull)
        );
        q.enqueue(pkt(2, 100, 1), Time::ZERO).unwrap();
    }

    #[test]
    fn empty_after_drain() {
        let mut q = Drr::new(&[500, 500], 16);
        q.enqueue(pkt(0, 100, 0), Time::ZERO).unwrap();
        q.dequeue(Time::ZERO).unwrap();
        assert!(q.dequeue(Time::ZERO).is_none());
        assert!(q.is_empty());
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn per_class_accounting() {
        let mut q = Drr::new(&[1000, 1000], 16);
        q.enqueue(pkt(0, 300, 0), Time::ZERO).unwrap();
        q.enqueue(pkt(1, 700, 1), Time::ZERO).unwrap();
        drain_bytes(&mut q, 2);
        assert_eq!(q.class_bytes_sent(), vec![300, 700]);
    }
}
