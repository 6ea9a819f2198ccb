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
//! Implemented disciplines: FIFO tail-drop ([`Fifo`]), token-bucket
//! shaping ([`Tbf`]), deficit round-robin ([`Drr`]), weighted fair
//! queueing ([`Wfq`], start-time fair queueing variant), RED with ECN
//! marking ([`Red`]), and a per-hardware-queue bank of WFQ schedulers
//! for multi-queue NICs ([`MultiQueue`]).
//! [`classify`] provides software classification rules (the kernel-side
//! mirror of overlay classifiers) and [`compile`] lowers qdisc
//! configurations to overlay programs for the NIC.

pub mod classify;
pub mod compile;
pub(crate) mod drr;
pub(crate) mod fifo;
pub(crate) mod mq;
pub(crate) mod red;
pub(crate) mod tbf;
pub(crate) mod types;
pub(crate) mod wfq;

pub use drr::Drr;
pub use fifo::Fifo;
pub use mq::MultiQueue;
pub use red::{Red, RedConfig, RedDecision};
pub use tbf::Tbf;
pub use types::{QPkt, Qdisc};
pub use wfq::Wfq;
