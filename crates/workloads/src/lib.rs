//! Workload generators and scenario harnesses.
//!
//! Real applications (Postgres, MySQL, SSH game sessions) are replaced by
//! synthetic traffic with the properties the paper's scenarios depend on:
//! per-process flow ownership, Poisson or constant-rate arrivals, and one
//! misbehaving ARP flooder. See DESIGN.md §2 for the substitution
//! rationale.

pub(crate) mod generators;
pub(crate) mod scenarios;

pub use generators::CbrArrivals;

pub use generators::PoissonArrivals;
pub use scenarios::AliceTestbed;
pub use scenarios::TenantApp;
pub use scenarios::BOB;
pub use scenarios::CHARLIE;
