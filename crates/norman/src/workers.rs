//! Dataplane shards: one per RSS queue the NIC boots with.
//!
//! A *shard* is the slice of the host one RSS queue's traffic runs on,
//! modelled as plain state the host calls in-thread: an LLC partition,
//! a core meter (in [`oskernel::Scheduler`], indexed by shard) and a
//! restart count. [`Host::new`](crate::Host::new) builds one shard per
//! boot queue over a way-disjoint partition of the LLC; a one-queue host
//! is the one-shard case, whose partition is the whole cache. Each
//! connection is charged to the shard its flow steers to under the live
//! RSS table (modulo the shard count); an RSS commit re-steers
//! connections among the boot shards and never re-partitions the cache.
//! Ring pairs are host memory and live in one map on the host — a
//! connection only remembers which shard's cache and core its ring
//! traffic is charged to.
//!
//! Many cores are modelled by accounting, not by host threads: each
//! fast-path delivery charges its cost to the owning shard's core meter,
//! so the makespan of a run is the busiest core's meter. The simulation
//! itself is single-threaded and deterministic, and counters and trace
//! events are live (there is no barrier to wait for).
//!
//! What sharding does isolate is failure. A shard fails as a crash
//! between operations ([`Host::inject_worker_panic`](crate::Host::inject_worker_panic)):
//! the shard restarts (`Shard::restart`) with a cold cache and a backoff
//! charged to its core, and no frame is in flight when it does. Rings
//! and their contents are host memory and are never touched by a
//! restart.

use memsim::{Llc, LlcStats, MemCosts, RingError};
use pkt::Packet;
use sim::Dur;

use crate::host::{RxDesc, RxRing};

/// What [`Host::inject_worker_panic`](crate::Host::inject_worker_panic)
/// reports: the crash it caused, or why it refused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkerError {
    /// There is no shard with this index.
    NoSuchShard {
        /// The requested shard.
        shard: usize,
        /// How many shards the host has (its boot RSS queue count).
        shards: usize,
    },
    /// A shard crashed and was restarted — cold LLC partition, counted,
    /// backoff charged to its core; its rings and the other shards were
    /// never affected.
    ShardPanicked {
        /// Which shard crashed.
        shard: usize,
        /// The message the crash was injected with.
        payload: String,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} on a host with {shards} shards")
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
    /// LLC traffic through the caches earlier restarts discarded, so
    /// [`Shard::llc_stats`] stays cumulative across restarts.
    banked: LlcStats,
    /// Restarts of this shard (drives the backoff doubling).
    pub(crate) restarts: u64,
}

impl Shard {
    pub(crate) fn new(llc: Llc) -> Shard {
        Shard {
            llc,
            banked: LlcStats::default(),
            restarts: 0,
        }
    }

    /// Cumulative LLC traffic through this shard's cache, across restarts.
    pub(crate) fn llc_stats(&self) -> LlcStats {
        let mut stats = self.banked;
        stats.absorb(&self.llc.stats());
        stats
    }

    /// DMAs `frame` into `ring` through this shard's cache — the one RX
    /// ring produce site.
    ///
    /// Cold-tier flows DMA with DDIO bypass: a demoted flow's ring
    /// traffic must not evict the DDIO lines hot flows depend on (the §5
    /// cliff mechanism).
    ///
    /// Kept out of line so the ring and cache walk stay out of the
    /// delivery code's other paths; inlined, it measured no faster on
    /// `rx_fast`.
    #[inline(never)]
    pub(crate) fn rx_produce(
        &mut self,
        ring: &mut RxRing,
        frame: Packet,
        fid: u64,
        cold: bool,
        mem: &MemCosts,
    ) -> Result<Dur, RingError> {
        let len = frame.len();
        let desc = RxDesc { pkt: frame, fid };
        if cold {
            ring.produce_dma_bypass_with(desc, len, &mut self.llc, mem)
        } else {
            ring.produce_dma_with(desc, len, &mut self.llc, mem)
        }
    }

    /// Restarts the shard after a crash: its cache comes back
    /// cold (its counters banked first), the restart is counted, and the
    /// backoff penalty to charge to its core is returned — doubling from
    /// 50 µs, capped after six doublings.
    pub(crate) fn restart(&mut self) -> Dur {
        self.banked.absorb(&self.llc.stats());
        self.llc = Llc::new(self.llc.config().clone());
        self.restarts += 1;
        Dur::from_us(50 << (self.restarts - 1).min(6))
    }
}
