//! Dataplane shards: the multi-queue sharding layer.
//!
//! A *shard* is the slice of the host one RSS queue's traffic runs on,
//! modelled as plain state the host calls in-thread: an LLC partition,
//! a core meter (in [`oskernel::Scheduler`], indexed by shard) and a
//! restart count. Every host has at least one; the unsharded host is
//! the one-shard case, whose partition is the whole cache.
//! [`Host::run_workers`](crate::Host::run_workers) re-partitions the LLC
//! into `n` way-disjoint shards and re-indexes every connection by the
//! committed RSS table; nothing else changes. Ring pairs are host memory
//! and live in one map on the host in every mode — a connection only
//! remembers which shard's cache and core its ring traffic is charged to.
//!
//! Many cores are modelled by accounting, not by host threads: each
//! fast-path delivery charges its cost to the owning shard's core meter,
//! so the makespan of a run is the busiest core's meter. The simulation
//! itself is single-threaded and deterministic, counters and trace
//! events are live (there is no barrier to wait for), and `run_workers(1)`
//! is byte-identical to the unsharded host because it *is* the same code
//! over the same geometry.
//!
//! What sharding does isolate is failure. The one shard operation that
//! has a frame in flight — the RX ring produce, `Shard::rx_produce` —
//! runs under a supervised call boundary (`supervised`); a panic there
//! restarts that shard (`Shard::restart`) and the host reroutes the
//! frame through the software slow path. Rings and their contents are
//! never touched by a restart.

use memsim::{Llc, MemCosts, RingError};
use pkt::Packet;
use sim::Dur;

use crate::host::{RxDesc, RxRing};

/// Why [`Host::run_workers`](crate::Host::run_workers) refused, or what
/// the shard supervisor reports after a shard panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkerError {
    /// Multi-queue mode is already active; stop it first.
    AlreadyRunning,
    /// Multi-queue mode is not active.
    NotRunning,
    /// The shard count must match the NIC's RSS queue count so each
    /// queue has exactly one owner.
    QueueMismatch {
        /// Requested shard count.
        workers: usize,
        /// The NIC's configured RSS queue count.
        queues: usize,
    },
    /// Shared (per-process) rings cannot be sharded by flow: two
    /// connections of one process may steer to different queues.
    SharedRings,
    /// A shard panicked. The supervisor caught it and restarted the
    /// shard — cold LLC partition, counted, backoff charged to its core;
    /// its rings and the other shards were never affected.
    ShardPanicked {
        /// Which shard crashed.
        shard: usize,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::AlreadyRunning => write!(f, "workers already running"),
            WorkerError::NotRunning => write!(f, "workers not running"),
            WorkerError::QueueMismatch { workers, queues } => {
                write!(f, "{workers} workers cannot own {queues} RSS queues 1:1")
            }
            WorkerError::SharedRings => {
                write!(f, "shared per-process rings cannot be sharded by flow")
            }
            WorkerError::ShardPanicked { shard, payload } => {
                write!(f, "worker shard {shard} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// One dataplane shard. Its core meter is the scheduler's, indexed by
/// the shard's position in the host's shard list.
pub(crate) struct Shard {
    /// The cache this shard's ring traffic goes through: the whole LLC
    /// on a one-shard host, a way-disjoint partition of it otherwise.
    pub(crate) llc: Llc,
    /// Supervised restarts of this shard (drives the backoff doubling).
    pub(crate) restarts: u64,
    /// Fault injection for the supervision test: the next RX produce on
    /// this shard panics with this message.
    #[cfg(test)]
    pub(crate) fault: Option<String>,
}

impl Shard {
    pub(crate) fn new(llc: Llc) -> Shard {
        Shard {
            llc,
            restarts: 0,
            #[cfg(test)]
            fault: None,
        }
    }

    /// DMAs `frame` into `ring` through this shard's cache — the one RX
    /// ring produce site, and the shard operation the supervisor guards:
    /// `Err` carries the payload of a panic inside it. The frame is taken
    /// only at the produce itself, so a shard that panics before then
    /// leaves it with the caller to reroute.
    ///
    /// Cold-tier flows DMA with DDIO bypass: a demoted flow's ring
    /// traffic must not evict the DDIO lines hot flows depend on (the §5
    /// cliff mechanism).
    ///
    /// Kept out of line, boundary and all: with the `catch_unwind` (or
    /// the ring and cache walk under it) inlined into `finish_delivery`,
    /// its landing pads and register pressure tax every path through the
    /// delivery code (~3 % of `rx_fast`, measured).
    #[inline(never)]
    pub(crate) fn rx_produce(
        &mut self,
        ring: &mut RxRing,
        frame: &mut Option<Packet>,
        fid: u64,
        len: usize,
        cold: bool,
        mem: &MemCosts,
    ) -> Result<Result<Dur, RingError>, String> {
        supervised(|| {
            #[cfg(test)]
            if let Some(msg) = self.fault.take() {
                std::panic::resume_unwind(Box::new(msg));
            }
            let desc = RxDesc {
                pkt: frame.take().expect("caller supplies the frame"),
                fid,
            };
            if cold {
                ring.produce_dma_bypass_with(desc, len, &mut self.llc, mem)
            } else {
                ring.produce_dma_with(desc, len, &mut self.llc, mem)
            }
        })
    }

    /// Restarts the shard after a caught panic: its cache comes back
    /// cold (counters and all — the host banks them first), the restart
    /// is counted, and the backoff penalty to charge to its core is
    /// returned — doubling from 50 µs, capped after six doublings.
    pub(crate) fn restart(&mut self) -> Dur {
        self.llc = Llc::new(self.llc.config().clone());
        self.restarts += 1;
        Dur::from_us(50 << (self.restarts - 1).min(6))
    }
}

/// The supervised call boundary: runs one shard operation and turns a
/// panic inside it into the stringified payload, for the host to restart
/// the shard and account the crash. Rings are not behind the boundary's
/// state — they are host memory and survive whatever the shard does.
fn supervised<T>(op: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    })
}
