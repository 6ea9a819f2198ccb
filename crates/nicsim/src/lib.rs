//! The simulated on-path FPGA SmartNIC.
//!
//! This crate is the substitute for the paper's Stratix 10 MX target: a
//! SmartNIC where *every* packet traverses the programmable dataplane
//! (the "on-path" property of §4.1) and where the kernel — and only the
//! kernel — configures that dataplane (§4.4). Its pieces:
//!
//! * `sram` — the NIC's bounded on-board memory. Flow-table entries,
//!   ring contexts, and overlay programs/maps all allocate from it;
//!   exhaustion is a first-class outcome (§5's resource-exhaustion
//!   challenge), not a panic.
//! * `regs` — the MMIO register file, split into an application region
//!   (per-connection ring head/tail doorbells) and a kernel-only region
//!   (configuration commands). Unprivileged writes to kernel registers
//!   are rejected: the isolation property of §3.
//! * [`flowtable`] — exact-match five-tuple steering plus port listeners,
//!   binding each connection to its owning (uid, pid) so dataplane
//!   programs have the *process view*.
//! * `notify` — per-process notification queues with optional interrupt
//!   coalescing, the mechanism behind blocking I/O (§4.3).
//! * [`sniff`] — the dataplane capture tap that `ksniff` (tcpdump
//!   equivalent) reads: global visibility with process attribution.
//! * `nat` — source-NAT with RFC 1624 incremental rewriting (§5 lists
//!   NAT among the kernel functions KOPI must offload).
//! * `cc` — DCTCP-style on-NIC congestion control (§4.2 lists
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

pub use cc::{CcParams, CongestionControl};
pub use device::{NicError, SmartNic, POLICY_GENERATION_REG};
pub use flowtable::{ConnId, FlowCacheConfig, FlowStats, FlowTable, FlowTier};
pub use nat::NatTable;
pub use notify::{Notification, NotifyKind};
pub use pipeline::{NicConfig, RxDisposition, RxResult, TxDisposition};
pub use rss::{RssTable, MAX_QUEUES, RSS_TABLE_SIZE};
pub use sniff::{Direction, SnifferFilter};
pub use sram::{Sram, SramCategory};
