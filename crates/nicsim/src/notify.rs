//! Per-process notification queues.
//!
//! §4.3: "the NIC adds notification to a shared notification queue when
//! packets are added to a queue (allowing blocking receive calls) or when
//! a queue is drained (allowing blocking for sends). A process's
//! notification queue is accessible to both the process and the kernel."
//!
//! The kernel control plane monitors these queues to wake blocked
//! threads; for low-activity queues it can enable *interrupts* so it does
//! not burn a core polling (the paper's efficiency argument for blocking
//! I/O support).

use std::collections::VecDeque;

use sim::Time;

use crate::flowtable::ConnId;

/// What happened on a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NotifyKind {
    /// Data arrived in the RX ring.
    RxReady,
    /// The TX ring drained below its threshold (space available).
    TxSpace,
}

/// One notification entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Notification {
    /// The connection.
    pub conn: ConnId,
    /// The event kind.
    pub kind: NotifyKind,
    /// When the NIC posted it.
    pub(crate) at: Time,
}

/// A bounded per-process notification queue with duplicate coalescing.
#[derive(Clone, Debug)]
pub(crate) struct NotifyQueue {
    entries: VecDeque<Notification>,
    capacity: usize,
    /// Whether the kernel asked for an interrupt on next post (armed for
    /// low-activity queues; cleared on delivery).
    interrupts_armed: bool,
    posted: u64,
    coalesced: u64,
    overflows: u64,
    interrupts_fired: u64,
}

impl NotifyQueue {
    /// Creates a queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> NotifyQueue {
        assert!(capacity > 0, "notification queue needs capacity");
        NotifyQueue {
            entries: VecDeque::new(),
            capacity,
            interrupts_armed: false,
            posted: 0,
            coalesced: 0,
            overflows: 0,
            interrupts_fired: 0,
        }
    }

    /// Arms interrupt delivery: the next successful post reports
    /// `fired = true` and disarms.
    pub(crate) fn arm_interrupt(&mut self) {
        self.interrupts_armed = true;
    }

    /// Returns whether interrupts are currently armed.
    #[cfg(test)]
    pub(crate) fn interrupts_armed(&self) -> bool {
        self.interrupts_armed
    }

    /// Posts a notification. Returns `true` if an interrupt fired.
    ///
    /// Consecutive duplicate (conn, kind) entries coalesce: a reader that
    /// hasn't consumed the previous entry learns nothing from a second
    /// identical one, and coalescing keeps a hot connection from flooding
    /// the queue.
    pub(crate) fn post(&mut self, n: Notification) -> bool {
        self.posted += 1;
        let dup = self
            .entries
            .back()
            .is_some_and(|last| last.conn == n.conn && last.kind == n.kind);
        if dup {
            self.coalesced += 1;
        } else if self.entries.len() >= self.capacity {
            // Overflow: drop the new entry but remember that we did — the
            // kernel falls back to a full scan on overflow.
            self.overflows += 1;
        } else {
            self.entries.push_back(n);
        }
        if self.interrupts_armed {
            self.interrupts_armed = false;
            self.interrupts_fired += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the oldest notification.
    pub(crate) fn pop(&mut self) -> Option<Notification> {
        self.entries.pop_front()
    }

    /// Returns the number of pending notifications.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns (posted, coalesced, overflows, interrupts_fired).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.posted,
            self.coalesced,
            self.overflows,
            self.interrupts_fired,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(conn: u64, kind: NotifyKind) -> Notification {
        Notification {
            conn: ConnId(conn),
            kind,
            at: Time::ZERO,
        }
    }

    #[test]
    fn post_and_pop_fifo() {
        let mut q = NotifyQueue::new(8);
        q.post(n(1, NotifyKind::RxReady));
        q.post(n(2, NotifyKind::RxReady));
        assert_eq!(q.pop().unwrap().conn, ConnId(1));
        assert_eq!(q.pop().unwrap().conn, ConnId(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn consecutive_duplicates_coalesce() {
        let mut q = NotifyQueue::new(8);
        q.post(n(1, NotifyKind::RxReady));
        q.post(n(1, NotifyKind::RxReady));
        q.post(n(1, NotifyKind::RxReady));
        assert_eq!(q.len(), 1);
        assert_eq!(q.counters().1, 2);
        // A different kind on the same conn does not coalesce.
        q.post(n(1, NotifyKind::TxSpace));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn interleaved_conns_do_not_coalesce() {
        let mut q = NotifyQueue::new(8);
        q.post(n(1, NotifyKind::RxReady));
        q.post(n(2, NotifyKind::RxReady));
        q.post(n(1, NotifyKind::RxReady));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn overflow_counts_and_drops() {
        let mut q = NotifyQueue::new(2);
        q.post(n(1, NotifyKind::RxReady));
        q.post(n(2, NotifyKind::RxReady));
        q.post(n(3, NotifyKind::RxReady));
        assert_eq!(q.len(), 2);
        assert_eq!(q.counters().2, 1);
    }

    #[test]
    fn interrupt_fires_once_per_arm() {
        let mut q = NotifyQueue::new(8);
        assert!(!q.post(n(1, NotifyKind::RxReady)));
        q.arm_interrupt();
        assert!(q.interrupts_armed());
        assert!(q.post(n(2, NotifyKind::RxReady)));
        // Disarmed after firing.
        assert!(!q.interrupts_armed());
        assert!(!q.post(n(3, NotifyKind::RxReady)));
        assert_eq!(q.counters().3, 1);
    }

    #[test]
    fn interrupt_fires_even_for_coalesced_post() {
        // A blocked reader must be woken even if the entry coalesced.
        let mut q = NotifyQueue::new(8);
        q.post(n(1, NotifyKind::RxReady));
        q.arm_interrupt();
        assert!(q.post(n(1, NotifyKind::RxReady)));
    }
}
