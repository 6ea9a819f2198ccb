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
//!
//! # Quick start
//!
//! Open a Norman socket, exchange a datagram, and watch the
//! administrator's tools see everything (`cargo test -p norman --doc`):
//!
//! ```
//! use std::net::Ipv4Addr;
//!
//! use norman::host::DeliveryOutcome;
//! use norman::tools::knetstat;
//! use norman::{Host, HostConfig, NormanSocket};
//! use oskernel::{Cred, Uid};
//! use pkt::{FrameMeta, IpProto, Mac, PacketBuilder};
//! use sim::Time;
//!
//! // A Norman host: kernel control plane + on-path SmartNIC dataplane.
//! let mut host = Host::new(HostConfig::default());
//! let bob = host.spawn(Uid(1001), "bob", "echo-server");
//!
//! // connect() goes through the kernel: policy check, pinned ring pair,
//! // NIC flow-table entry bound to (uid, pid, comm), MMIO doorbells.
//! let sock = NormanSocket::connect(
//!     &mut host,
//!     bob,
//!     IpProto::UDP,
//!     7000,
//!     Ipv4Addr::new(10, 0, 0, 2),
//!     9000,
//!     Mac::local(9),
//!     false,
//! )
//! .expect("connect");
//!
//! // A peer's datagram traverses only the NIC, never the software kernel.
//! let request = PacketBuilder::new()
//!     .ether(Mac::local(9), host.cfg.mac)
//!     .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
//!     .udp(9000, 7000, b"hello norman")
//!     .build();
//! let report = host.deliver_from_wire(&request, Time::ZERO);
//! assert_eq!(report.outcome, DeliveryOutcome::FastPath(sock.conn()));
//!
//! // recv/send are memory operations on the rings.
//! let r = sock.recv(&mut host, Time::from_us(1), false);
//! let frame = r.pkt.expect("a frame");
//! let payload = FrameMeta::of(&frame).unwrap().payload();
//! assert_eq!(&frame.bytes()[payload], b"hello norman");
//! assert!(sock.send(&mut host, b"hello back", Time::from_us(2)).queued);
//! assert_eq!(host.pump_tx(Time::from_us(2)).len(), 1);
//!
//! // And yet the administrator keeps the global, process-attributed
//! // view the paper is about.
//! let rows = knetstat::connections(&host, &Cred::root()).unwrap();
//! assert!(rows
//!     .iter()
//!     .any(|r| r.uid == 1001 && r.comm == "echo-server" && r.via == "nic"));
//! ```

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
