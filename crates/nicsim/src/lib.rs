//! The simulated on-path FPGA SmartNIC.
//!
//! This crate is the substitute for the paper's Stratix 10 MX target: a
//! SmartNIC where *every* packet traverses the programmable dataplane
//! (the "on-path" property of §4.1) and where the kernel — and only the
//! kernel — configures that dataplane (§4.4). Its pieces:
//!
//! * [`sram`] — the NIC's bounded on-board memory. Flow-table entries,
//!   ring contexts, and overlay programs/maps all allocate from it;
//!   exhaustion is a first-class outcome (§5's resource-exhaustion
//!   challenge), not a panic.
//! * [`regs`] — the MMIO register file, split into an application region
//!   (per-connection ring head/tail doorbells) and a kernel-only region
//!   (configuration commands). Unprivileged writes to kernel registers
//!   are rejected: the isolation property of §3.
//! * [`flowtable`] — exact-match five-tuple steering plus port listeners,
//!   binding each connection to its owning (uid, pid) so dataplane
//!   programs have the *process view*.
//! * [`notify`] — per-process notification queues with optional interrupt
//!   coalescing, the mechanism behind blocking I/O (§4.3).
//! * [`sniff`] — the dataplane capture tap that `ksniff` (tcpdump
//!   equivalent) reads: global visibility with process attribution.
//! * [`nat`] — source-NAT with RFC 1624 incremental rewriting (§5 lists
//!   NAT among the kernel functions KOPI must offload).
//! * [`cc`] — DCTCP-style on-NIC congestion control (§4.2 lists
//!   congestion control in the dataplane), reacting to ECN marks from
//!   the RED AQM.
//! * [`rss`] — the receive-side-scaling indirection table steering each
//!   frame's Toeplitz hash to one of N RX/TX queue pairs, programmable
//!   only through the kernel control plane.
//! * [`pipeline`] — per-stage latency configuration and verdict types.
//! * [`device`] — [`device::SmartNic`], composing all of the above with
//!   up to four overlay program slots (ingress filter, egress filter,
//!   classifier, accounting) and a WFQ/DRR transmit scheduler.

pub(crate) mod cc;
pub mod device;
pub mod flowtable;
pub(crate) mod nat;
pub(crate) mod notify;
pub mod pipeline;
pub(crate) mod regs;
pub mod rss;
pub mod sniff;
pub(crate) mod sram;

pub use cc::CcParams;

pub use cc::CongestionControl;

pub(crate) use cc::FlowCc;
pub(crate) use device::DeviceState;
pub use device::NicError;
pub use device::SmartNic;
pub use device::POLICY_GENERATION_REG;
pub(crate) use flowtable::ConnEntry;
pub use flowtable::ConnId;
pub use flowtable::FlowCacheConfig;
pub(crate) use flowtable::FlowCacheMode;
pub use flowtable::FlowStats;
pub use flowtable::FlowTable;
pub use flowtable::FlowTier;
pub(crate) use flowtable::LookupHit;
pub(crate) use flowtable::RetierReport;
pub(crate) use nat::NatError;
pub use nat::NatTable;
pub use notify::Notification;
pub use notify::NotifyKind;
pub(crate) use notify::NotifyQueue;
pub use pipeline::NicConfig;
pub use pipeline::RxDisposition;
pub use pipeline::RxResult;
pub use pipeline::TxDisposition;
pub(crate) use regs::RegFile;
pub(crate) use regs::RegRegion;
pub(crate) use rss::RssError;
pub use rss::RssTable;
pub use rss::MAX_QUEUES;
pub(crate) use rss::RSS_NUM_QUEUES_REG;
pub use rss::RSS_TABLE_SIZE;
pub(crate) use sniff::CaptureEntry;
pub use sniff::Direction;
pub(crate) use sniff::Sniffer;
pub use sniff::SnifferFilter;
pub use sram::Sram;
pub use sram::SramCategory;
pub(crate) use sram::SramError;
