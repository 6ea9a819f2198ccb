//! Queueing disciplines (`tc qdisc` equivalents).
//!
//! The paper's QoS scenario (§2) needs work-conserving, cross-application
//! traffic shaping — "weighted fair queuing \[10\]" — which no single
//! application can implement for itself. These disciplines are used in two
//! places:
//!
//! * the in-kernel software stack baseline (`oskernel::netstack`), where
//!   they model today's `net/sched`, and
//! * the SmartNIC scheduler stage (`nicsim`), where an overlay classifier
//!   assigns classes and these engines execute the per-class scheduling —
//!   the KOPI arrangement.
//!
//! Implemented disciplines: FIFO tail-drop ([`Fifo`], the kernel
//! stack's egress), weighted fair queueing ([`Wfq`], start-time fair
//! queueing variant), and a per-hardware-queue bank of WFQ schedulers
//! for multi-queue NICs ([`MultiQueue`], the NIC's TX scheduler).
//! [`classify`] provides software classification rules (the kernel-side
//! mirror of overlay classifiers) and [`compile`] lowers qdisc
//! configurations to overlay programs for the NIC.

pub mod classify;
pub mod compile;
pub(crate) mod fifo;
pub(crate) mod mq;
pub(crate) mod types;
pub(crate) mod wfq;

pub use fifo::Fifo;
pub use mq::MultiQueue;
pub use types::{QPkt, Qdisc};
pub use wfq::Wfq;
