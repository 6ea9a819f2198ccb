//! Norman: a KOPI (Kernel On-Path Interposition) operating system model.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates into the architecture of Figure 1:
//!
//! ```text
//!   App ──ring buffers / MMIO doorbells──▶ SmartNIC dataplane ──▶ wire
//!    │                                        ▲         │
//!    │ syscalls (connect/accept only)         │ config  │ notifications
//!    ▼                                        │         ▼
//!   Kernel control plane ─────────────────────┘   notification queues
//! ```
//!
//! * [`host`] — [`Host`], one simulated machine: process table,
//!   scheduler, LLC/DDIO, the SmartNIC, the software slow path, and the
//!   in-kernel control plane that mediates *all* NIC configuration.
//! * `ctrl` — the unified control plane: one policy store, compiled
//!   into one bundle, applied with a two-phase epoch-versioned commit
//!   (verify/stage, then atomic swap with rollback), reconciled after
//!   bitstream reprograms, and audited against the NIC.
//! * [`policy`] — the administrator-facing policy types (port
//!   reservations, shaping policies) and how they lower onto the NIC.
//! * [`workers`] — the multi-queue sharding layer: [`Host::run_workers`]
//!   gives each RSS queue a shard — a core meter and a way-disjoint LLC
//!   partition the host charges that queue's deliveries to, in-thread —
//!   with a supervised boundary that restarts a shard that panics.
//! * [`tools`] — `ksniff` (tcpdump), `kfilter` (iptables), `kqdisc`
//!   (tc), `knetstat` (netstat), and [`tools::trace`] (`ktrace`, the
//!   per-packet lifecycle introspector the paper argues interposition
//!   makes possible): each routes through the control plane, never the
//!   dataplane.
//! * `lib_api` — the Norman library: [`lib_api::NormanSocket`], a
//!   POSIX-flavoured handle whose data operations never leave userspace
//!   plus the NIC (§4.3).

pub(crate) mod ctrl;
pub mod host;
pub(crate) mod lib_api;
pub mod policy;
pub mod tools;
pub mod workers;

pub use ctrl::{ControlPlane, CtrlError, DegradationPolicy, NatRule, PolicyStore, RssPolicy};
pub use host::{DeliveryReport, Host, HostConfig};
pub use lib_api::NormanSocket;
pub use policy::{PortReservation, ShapingPolicy};
pub use telemetry::{DropCause, Stage, TraceEvent, TraceFilter, TraceVerdict};
pub use workers::WorkerError;
