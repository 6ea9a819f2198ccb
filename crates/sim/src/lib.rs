//! Simulation substrate for the Norman KOPI reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`time`] — picosecond-resolution virtual time ([`Time`]) and durations
//!   ([`Dur`]). Picoseconds are required because a 64-byte frame on a
//!   100 Gbps link serializes in 5.12 ns; nanosecond resolution would
//!   accumulate large rounding errors across millions of packets.
//! * `rng` — a seeded, deterministic random number generator with the
//!   distributions the workload generators need (uniform, exponential).
//! * [`stats`] — log-bucketed latency histograms used by the experiment
//!   harnesses.
//! * [`fault`] — seeded fault schedules: lossy, corrupting, reordering
//!   links and op-count crash injectors.
//! * `link` — serialization/propagation delay modelling for a fixed-rate
//!   network link.
//! * `hash` — the fast deterministic hasher behind hot-path maps.
//!
//! There is no event queue: every layer is call-driven, and whoever
//! drives it passes the instant (`now`) each call happens at.
//!
//! All simulation state is single-threaded and deterministic: running the
//! same experiment twice with the same seed produces byte-identical output.

pub mod fault;
pub(crate) mod hash;
pub(crate) mod link;
pub(crate) mod rng;
pub mod stats;
pub mod time;

pub use fault::{CrashInjector, FaultInjector, FaultSchedule, FaultyLink, LossModel};
pub use hash::FastMap;
pub use link::Link;
pub use rng::DetRng;
pub use stats::Histogram;
pub use time::{Dur, Time};
