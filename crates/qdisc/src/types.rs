//! Common qdisc types and the [`Qdisc`] trait.

use std::fmt;

use sim::Time;

/// A scheduled packet handle: qdiscs schedule metadata, not buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QPkt {
    /// Unique packet id (for tracing and reordering checks).
    pub id: u64,
    /// Frame length in bytes.
    pub len: u32,
    /// Scheduler class (assigned by a classifier or overlay program).
    pub class: u32,
    /// Arrival instant at the qdisc.
    pub(crate) arrival: Time,
    /// Two words the enqueuer attaches and reads back off the packet it
    /// is handed at dequeue, purge or reconfigure (the NIC: originating
    /// connection and trace id). Opaque: no discipline reads it.
    pub tag: [u64; 2],
}

impl QPkt {
    /// Creates a class-0 packet with a zero tag.
    pub fn new(id: u64, len: u32, arrival: Time) -> QPkt {
        QPkt {
            id,
            len,
            class: 0,
            arrival,
            tag: [0; 2],
        }
    }

    /// Returns a copy assigned to `class`.
    pub fn with_class(self, class: u32) -> QPkt {
        QPkt { class, ..self }
    }

    /// Returns a copy carrying `tag`.
    pub fn with_tag(self, tag: [u64; 2]) -> QPkt {
        QPkt { tag, ..self }
    }
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueError {
    /// The queue (or the packet's band/class queue) is full; the packet
    /// is dropped at the tail.
    QueueFull,
    /// The packet's class does not exist in this discipline.
    NoSuchClass {
        /// The offending class.
        class: u32,
    },
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::QueueFull => write!(f, "queue full"),
            EnqueueError::NoSuchClass { class } => write!(f, "no such class {class}"),
        }
    }
}

impl std::error::Error for EnqueueError {}

impl EnqueueError {
    /// Maps this refusal onto the stack-wide telemetry drop vocabulary
    /// (both variants are tail-drop-at-the-queue from the frame's point
    /// of view).
    pub fn cause(self) -> telemetry::DropCause {
        telemetry::DropCause::QdiscFull
    }
}

/// Counters every discipline maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Packets accepted.
    pub(crate) enqueued: u64,
    /// Packets released.
    pub(crate) dequeued: u64,
    /// Packets dropped at enqueue.
    pub(crate) dropped: u64,
    /// Bytes accepted.
    pub(crate) bytes_enqueued: u64,
    /// Bytes released.
    pub(crate) bytes_dequeued: u64,
}

impl QdiscStats {
    /// Registers every counter into `reg` under `{prefix}.*` keys — the
    /// unified-registry replacement for reading this struct ad hoc.
    pub fn fill_registry(&self, reg: &mut telemetry::Registry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.enqueued"), self.enqueued);
        reg.set_counter(&format!("{prefix}.dequeued"), self.dequeued);
        reg.set_counter(&format!("{prefix}.dropped"), self.dropped);
        reg.set_counter(&format!("{prefix}.bytes_enqueued"), self.bytes_enqueued);
        reg.set_counter(&format!("{prefix}.bytes_dequeued"), self.bytes_dequeued);
    }
}

/// A queueing discipline. Every discipline here is work-conserving: a
/// non-empty queue always has a packet eligible for [`Qdisc::dequeue`].
pub trait Qdisc {
    /// Offers a packet at instant `now`.
    fn enqueue(&mut self, pkt: QPkt, now: Time) -> Result<(), EnqueueError>;

    /// Releases the next packet eligible at `now`, if any.
    fn dequeue(&mut self, now: Time) -> Option<QPkt>;

    /// Returns the number of queued packets.
    fn len(&self) -> usize;

    /// Returns `true` when no packets are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the queued bytes.
    fn backlog_bytes(&self) -> u64;

    /// Returns accumulated counters.
    fn stats(&self) -> QdiscStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpkt_with_class() {
        let p = QPkt::new(1, 100, Time::ZERO);
        assert_eq!(p.tag, [0; 2]);
        let p = p.with_class(3).with_tag([7, 9]);
        assert_eq!(p.class, 3);
        assert_eq!(p.len, 100);
        assert_eq!(p.tag, [7, 9]);
    }

    #[test]
    fn error_display() {
        assert_eq!(EnqueueError::QueueFull.to_string(), "queue full");
        assert_eq!(
            EnqueueError::NoSuchClass { class: 9 }.to_string(),
            "no such class 9"
        );
    }
}
