//! Host memory-hierarchy model: LLC with a DDIO way-cap, DMA costs, MMIO
//! costs, and pinned ring buffers.
//!
//! The paper's §5 reports that its prototype "fails to sustain full
//! (100 Gbps) throughput when there are more than 1024 concurrent
//! connections" and suspects DDIO: Intel's Data Direct I/O steers NIC DMA
//! writes into the last-level cache, but only into a *fixed fraction* of
//! its ways. When the set of live ring buffers outgrows that fraction, DMA
//! writes start evicting each other and application reads fall through to
//! DRAM, raising per-packet cost exactly when load is highest.
//!
//! This crate models that mechanism directly:
//!
//! * [`cache::Llc`] — a set-associative last-level cache in which DMA
//!   writes may only allocate into the first `ddio_ways` ways of each set
//!   (the DDIO way mask), while CPU accesses use all ways.
//! * [`ring::HostRing`] — a pinned descriptor+payload ring at a fixed
//!   physical address range, producing per-operation [`sim::Dur`] costs by
//!   walking its cache lines through the LLC.
//! * [`costs::MemCosts`] — the latency numbers for each access outcome,
//!   with defaults drawn from contemporary Xeon measurements.
//! * `mmio` — cost accounting for MMIO register reads/writes (doorbells
//!   and head/tail pointers in the Norman design).

#![forbid(unsafe_code)]

pub(crate) mod cache;
pub(crate) mod costs;
pub(crate) mod mmio;
pub(crate) mod ring;

pub use cache::{AccessKind, AccessOutcome, Llc, LlcConfig, LlcPartitionPlan, LlcStats};
pub use costs::MemCosts;
pub use mmio::MmioBus;
pub use ring::{DescRing, HostRing, RingError};
