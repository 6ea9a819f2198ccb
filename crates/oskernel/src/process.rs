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

    /// Returns a process by pid.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Returns a mutable process by pid.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Uid;

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
        let (t, bob, charlie) = table_with_two();
        let p = t.get(bob).unwrap();
        assert_eq!(
            (p.pid, p.cred.uid, p.comm.as_str()),
            (bob, Uid(1001), "postgres")
        );
        assert_eq!(p.state, ProcState::Running);
        assert_eq!(t.get(charlie).unwrap().comm.as_str(), "mysqld");
        assert!(t.get(Pid(42)).is_none());
    }
}
