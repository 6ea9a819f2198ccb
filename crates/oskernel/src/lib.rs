//! The simulated operating system kernel.
//!
//! Norman keeps the kernel as the *control plane* (Figure 1): it owns the
//! process table, credentials, cgroups, scheduling, and the only
//! privileged path to the NIC. This crate provides those OS structures
//! plus a complete software network stack that serves two roles:
//!
//! 1. the **kernel-stack baseline** architecture (today's Linux path:
//!    syscalls, copies, netfilter hooks), and
//! 2. **KOPI's software slow path** for traffic the NIC punts (§5).
//!
//! Modules:
//!
//! * `arp` — the kernel ARP cache and responder (the "ARP cache"
//!   Alice inspects in §2's debugging scenario; ARP stays a slow-path
//!   kernel protocol under KOPI).
//! * `cred` — users and credentials (the `uid-owner` of the §2 port
//!   partitioning policy).
//! * `process` — the process table binding pids to uids, command names,
//!   and cgroups: the *process view* that on-NIC and in-kernel
//!   interposition have but hypervisors and switches do not.
//! * `cgroup` — the cgroup id a process carries.
//! * `sched` — blocking and wakeup with context-switch accounting, plus
//!   per-process CPU meters (the §2 process-scheduling scenario's
//!   polling-vs-blocking comparison).
//! * `syscall` — syscall entry/exit and copy cost model.
//! * `hooks` — netfilter-style chains with owner matching.
//! * `netstack` — socket demux + hook evaluation, with per-packet cost
//!   accounting.

#![forbid(unsafe_code)]

pub(crate) mod arp;
pub(crate) mod cgroup;
pub(crate) mod cred;
pub(crate) mod hooks;
pub(crate) mod netstack;
pub(crate) mod process;
pub(crate) mod sched;
pub(crate) mod syscall;

pub use arp::{ArpCache, ArpEntry};
pub use cgroup::CgroupId;
pub use cred::{Cred, Uid};
pub use hooks::{HookVerdict, Rule};
pub use netstack::{NetStack, RxOutcome, StackCosts};
pub use process::{Pid, ProcState, ProcessTable};
pub use sched::Scheduler;
