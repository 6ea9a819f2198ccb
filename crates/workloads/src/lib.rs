//! Workload generators and scenario harnesses.
//!
//! Real applications (Postgres, MySQL, SSH game sessions) are replaced by
//! synthetic traffic with the properties the paper's scenarios depend on:
//! per-process flow ownership, Poisson or constant-rate arrivals, and one
//! misbehaving ARP flooder. See DESIGN.md §2 for the substitution
//! rationale.

pub(crate) mod generators;
pub mod placement;
pub(crate) mod scenarios;

pub use generators::{CbrArrivals, PoissonArrivals};
pub use scenarios::{AliceTestbed, TenantApp, BOB, CHARLIE};
