//! Weighted fair queueing (start-time fair queueing variant).
//!
//! The §2 QoS scenario cites Demers/Keshav/Shenker fair queueing \[10\]:
//! Alice wants the game traffic of each user shaped to a fair share that
//! *no application can compute for itself*, because fairness is a function
//! of all competing sources. This implementation uses per-class virtual
//! finish tags over a global virtual clock (SFQ's start-tag advance),
//! giving long-run throughput proportional to class weight among
//! backlogged classes, and work conservation when classes go idle.

use std::collections::VecDeque;

use sim::Time;

use crate::types::{EnqueueError, QPkt, Qdisc, QdiscStats};

struct ClassState {
    queue: VecDeque<(QPkt, f64)>, // (packet, finish tag)
    weight: f64,
    last_finish: f64,
    backlog: u64,
    sent: u64,
}

/// Weighted fair queueing across a fixed set of classes.
pub struct Wfq {
    classes: Vec<ClassState>,
    vtime: f64,
    per_class_limit: usize,
    stats: QdiscStats,
}

impl Wfq {
    /// Creates a scheduler with one weight per class.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is non-positive.
    pub fn new(weights: &[f64], per_class_limit: usize) -> Wfq {
        assert!(!weights.is_empty(), "need at least one class");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        Wfq {
            classes: weights
                .iter()
                .map(|&w| ClassState {
                    queue: VecDeque::new(),
                    weight: w,
                    last_finish: 0.0,
                    backlog: 0,
                    sent: 0,
                })
                .collect(),
            vtime: 0.0,
            per_class_limit,
            stats: QdiscStats::default(),
        }
    }

    /// Returns the number of classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Returns bytes dequeued so far per class.
    pub(crate) fn class_bytes_sent(&self) -> Vec<u64> {
        self.classes.iter().map(|c| c.sent).collect()
    }

    /// Drains every queued packet without serving it — the device-crash
    /// path, where queued frames are lost, not transmitted. Packets come
    /// back in class order (FIFO within each class) so the caller can
    /// account each loss deterministically; they are counted as drops,
    /// not dequeues, and virtual-time state is left untouched (the whole
    /// scheduler is normally rebuilt right after).
    pub(crate) fn purge(&mut self) -> Vec<QPkt> {
        let mut purged = Vec::new();
        for class in self.classes.iter_mut() {
            while let Some((pkt, _)) = class.queue.pop_front() {
                class.backlog -= u64::from(pkt.len);
                self.stats.dropped += 1;
                purged.push(pkt);
            }
        }
        purged
    }
}

impl Qdisc for Wfq {
    fn enqueue(&mut self, pkt: QPkt, _now: Time) -> Result<(), EnqueueError> {
        let idx = pkt.class as usize;
        if idx >= self.classes.len() {
            self.stats.dropped += 1;
            return Err(EnqueueError::NoSuchClass { class: pkt.class });
        }
        let vtime = self.vtime;
        let class = &mut self.classes[idx];
        if class.queue.len() >= self.per_class_limit {
            self.stats.dropped += 1;
            return Err(EnqueueError::QueueFull);
        }
        // Start tag: resume where the class left off, or the current
        // virtual time if it has been idle (so returning classes don't
        // get credit for idle periods).
        let start = class.last_finish.max(vtime);
        let finish = start + f64::from(pkt.len) / class.weight;
        class.last_finish = finish;
        class.queue.push_back((pkt, finish));
        class.backlog += u64::from(pkt.len);
        self.stats.enqueued += 1;
        self.stats.bytes_enqueued += u64::from(pkt.len);
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<QPkt> {
        // Serve the head with the minimum finish tag.
        let (idx, finish) = self
            .classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.queue.front().map(|(_, f)| (i, *f)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite tags"))?;
        let class = &mut self.classes[idx];
        let (pkt, _) = class.queue.pop_front().expect("head exists");
        class.backlog -= u64::from(pkt.len);
        class.sent += u64::from(pkt.len);
        // Advance the virtual clock to the served packet's finish tag.
        self.vtime = self.vtime.max(finish);
        self.stats.dequeued += 1;
        self.stats.bytes_dequeued += u64::from(pkt.len);
        Some(pkt)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, len: u32, class: u32) -> QPkt {
        QPkt::new(id, len, Time::ZERO).with_class(class)
    }

    #[test]
    fn equal_weights_interleave_fairly() {
        let mut q = Wfq::new(&[1.0, 1.0], 1024);
        for i in 0..50 {
            q.enqueue(pkt(i, 1000, 0), Time::ZERO).unwrap();
            q.enqueue(pkt(100 + i, 1000, 1), Time::ZERO).unwrap();
        }
        let mut sent = [0u64; 2];
        for _ in 0..50 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let diff = (sent[0] as i64 - sent[1] as i64).abs();
        assert!(diff <= 1000, "shares {sent:?}");
    }

    #[test]
    fn weights_drive_shares() {
        // Weights 4:1 with equal offered load => ~4:1 service.
        let mut q = Wfq::new(&[4.0, 1.0], 4096);
        for i in 0..500 {
            q.enqueue(pkt(i, 500, 0), Time::ZERO).unwrap();
            q.enqueue(pkt(10_000 + i, 500, 1), Time::ZERO).unwrap();
        }
        let mut sent = [0u64; 2];
        for _ in 0..400 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let ratio = sent[0] as f64 / sent[1] as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio} from {sent:?}");
    }

    #[test]
    fn different_packet_sizes_fair_in_bytes() {
        // Class 0 sends 1500B frames, class 1 sends 100B frames; byte
        // shares should still converge to the weight ratio (1:1).
        let mut q = Wfq::new(&[1.0, 1.0], 8192);
        for i in 0..200 {
            q.enqueue(pkt(i, 1500, 0), Time::ZERO).unwrap();
        }
        for i in 0..3000 {
            q.enqueue(pkt(10_000 + i, 100, 1), Time::ZERO).unwrap();
        }
        let mut sent = [0u64; 2];
        for _ in 0..1500 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let ratio = sent[0] as f64 / sent[1] as f64;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio} from {sent:?}");
    }

    #[test]
    fn work_conserving() {
        let mut q = Wfq::new(&[1.0, 1.0], 64);
        for i in 0..10 {
            q.enqueue(pkt(i, 500, 1), Time::ZERO).unwrap();
        }
        for _ in 0..10 {
            assert_eq!(q.dequeue(Time::ZERO).unwrap().class, 1);
        }
        assert!(q.dequeue(Time::ZERO).is_none());
    }

    #[test]
    fn idle_class_gets_no_credit() {
        let mut q = Wfq::new(&[1.0, 1.0], 4096);
        // Class 0 sends alone for a while.
        for i in 0..100 {
            q.enqueue(pkt(i, 1000, 0), Time::ZERO).unwrap();
        }
        for _ in 0..100 {
            q.dequeue(Time::ZERO);
        }
        // Class 1 wakes up; both now offer load. Class 1 must NOT get a
        // catch-up burst: service from here should be ~1:1.
        for i in 0..100 {
            q.enqueue(pkt(200 + i, 1000, 0), Time::ZERO).unwrap();
            q.enqueue(pkt(400 + i, 1000, 1), Time::ZERO).unwrap();
        }
        let mut sent = [0u64; 2];
        for _ in 0..100 {
            let p = q.dequeue(Time::ZERO).unwrap();
            sent[p.class as usize] += u64::from(p.len);
        }
        let diff = (sent[0] as i64 - sent[1] as i64).abs();
        assert!(diff <= 1000, "post-idle shares {sent:?}");
    }

    #[test]
    fn fifo_within_class() {
        let mut q = Wfq::new(&[1.0], 64);
        for i in 0..5 {
            q.enqueue(pkt(i, 100, 0), Time::ZERO).unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.dequeue(Time::ZERO).map(|p| p.id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unknown_class_rejected() {
        let mut q = Wfq::new(&[1.0], 8);
        assert_eq!(
            q.enqueue(pkt(0, 100, 3), Time::ZERO),
            Err(EnqueueError::NoSuchClass { class: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        let _ = Wfq::new(&[1.0, 0.0], 8);
    }

    #[test]
    fn purge_drains_everything_as_drops() {
        let mut q = Wfq::new(&[1.0, 1.0], 64);
        q.enqueue(pkt(1, 100, 0), Time::ZERO).unwrap();
        q.enqueue(pkt(2, 200, 1), Time::ZERO).unwrap();
        q.enqueue(pkt(3, 300, 0), Time::ZERO).unwrap();
        let purged = q.purge();
        // Class order, FIFO within class.
        assert_eq!(purged.iter().map(|p| p.id).collect::<Vec<_>>(), [1, 3, 2]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.backlog_bytes(), 0);
        let s = q.stats();
        assert_eq!(s.dropped, 3);
        assert_eq!(s.dequeued, 0);
        assert!(q.dequeue(Time::ZERO).is_none());
    }
}
