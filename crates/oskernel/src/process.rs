//! The process table.
//!
//! Interposition tasks "require knowledge of processes, their ownership
//! and privileges, and how to signal/interrupt them" (§3). This table is
//! that knowledge: pids bound to uids, command names, cgroups, and
//! run/block state.

use std::collections::HashMap;
use std::fmt;

use crate::cgroup::CgroupId;
use crate::cred::Cred;
#[cfg(test)]
use crate::cred::Uid;

/// A process id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// Run state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// Runnable or running.
    Running,
    /// Blocked in a syscall, waiting for a wakeup.
    Blocked,
    /// Exited.
    Exited,
}

/// One process.
#[derive(Clone, Debug)]
pub struct Process {
    /// The process id.
    pub pid: Pid,
    /// Owner credentials.
    pub cred: Cred,
    /// Command name (`comm`), the `cmd-owner` match target. Refcounted
    /// so per-packet owner attribution clones a pointer, not the string.
    pub comm: telemetry::Comm,
    /// Containing cgroup.
    pub cgroup: CgroupId,
    /// Run state.
    pub state: ProcState,
}

/// The process table.
#[derive(Default)]
pub struct ProcessTable {
    procs: HashMap<Pid, Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// Creates an empty table; pids start at 1.
    pub fn new() -> ProcessTable {
        ProcessTable {
            procs: HashMap::new(),
            next_pid: 1,
        }
    }

    /// Spawns a process.
    pub fn spawn(&mut self, cred: Cred, comm: &str, cgroup: CgroupId) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Process {
                pid,
                cred,
                comm: telemetry::Comm::new(comm),
                cgroup,
                state: ProcState::Running,
            },
        );
        pid
    }

    /// Terminates a process.
    #[cfg(test)]
    pub(crate) fn exit(&mut self, pid: Pid) -> bool {
        match self.procs.get_mut(&pid) {
            Some(p) => {
                p.state = ProcState::Exited;
                true
            }
            None => false,
        }
    }

    /// Returns a process by pid.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Returns a mutable process by pid.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// Returns the uid owning `pid`, if it exists.
    #[cfg(test)]
    pub(crate) fn uid_of(&self, pid: Pid) -> Option<Uid> {
        self.get(pid).map(|p| p.cred.uid)
    }

    /// Returns the command name of `pid`.
    #[cfg(test)]
    pub(crate) fn comm_of(&self, pid: Pid) -> Option<&str> {
        self.get(pid).map(|p| p.comm.as_str())
    }

    /// Iterates over live (non-exited) processes.
    #[cfg(test)]
    pub(crate) fn live(&self) -> impl Iterator<Item = &Process> {
        self.procs.values().filter(|p| p.state != ProcState::Exited)
    }

    /// Returns all processes owned by `uid`.
    #[cfg(test)]
    pub(crate) fn by_uid(&self, uid: Uid) -> Vec<&Process> {
        let mut v: Vec<&Process> = self.live().filter(|p| p.cred.uid == uid).collect();
        v.sort_by_key(|p| p.pid);
        v
    }

    /// Finds live processes by command name.
    #[cfg(test)]
    pub(crate) fn by_comm(&self, comm: &str) -> Vec<&Process> {
        let mut v: Vec<&Process> = self.live().filter(|p| p.comm == comm).collect();
        v.sort_by_key(|p| p.pid);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_two() -> (ProcessTable, Pid, Pid) {
        let mut t = ProcessTable::new();
        let bob = t.spawn(Cred::new(Uid(1001), "bob"), "postgres", CgroupId::ROOT);
        let charlie = t.spawn(Cred::new(Uid(1002), "charlie"), "mysqld", CgroupId::ROOT);
        (t, bob, charlie)
    }

    #[test]
    fn pids_are_unique_and_sequential() {
        let (_, bob, charlie) = table_with_two();
        assert_eq!(bob, Pid(1));
        assert_eq!(charlie, Pid(2));
    }

    #[test]
    fn attribution_queries() {
        let (t, bob, _) = table_with_two();
        assert_eq!(t.uid_of(bob), Some(Uid(1001)));
        assert_eq!(t.comm_of(bob), Some("postgres"));
        assert_eq!(t.by_uid(Uid(1001)).len(), 1);
        assert_eq!(t.by_comm("mysqld").len(), 1);
        assert!(t.by_comm("nginx").is_empty());
    }

    #[test]
    fn exited_processes_leave_live_views() {
        let (mut t, bob, _) = table_with_two();
        assert!(t.exit(bob));
        assert!(t.by_uid(Uid(1001)).is_empty());
        assert_eq!(t.live().count(), 1);
        // Still in the table (zombie-ish), state reflects exit.
        assert_eq!(t.get(bob).unwrap().state, ProcState::Exited);
    }

    #[test]
    fn exit_unknown_pid_is_false() {
        let mut t = ProcessTable::new();
        assert!(!t.exit(Pid(42)));
    }
}
