//! Blocking, wakeup, and CPU accounting.
//!
//! The §2 process-scheduling scenario: with kernel bypass, "Charlie and
//! Bob are forced to use non-blocking operations and poll for packets,
//! 'burning' CPU cores unnecessarily." This module gives the simulation
//! the machinery to quantify that: processes can block (costing a context
//! switch) or spin (costing CPU the whole time), and per-process
//! [`CpuMeter`]s record where the cycles went.

use sim::{Dur, FastMap, Time};

use crate::process::{Pid, ProcState, ProcessTable};

/// Where a process's CPU time went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuMeter {
    /// Useful work (packet processing, application logic).
    pub busy: Dur,
    /// Spinning on a poll loop waiting for I/O.
    pub polling: Dur,
    /// Context-switch overhead (entering/leaving blocked state).
    pub switching: Dur,
}

impl CpuMeter {
    /// Total CPU consumed.
    pub fn total(&self) -> Dur {
        self.busy + self.polling + self.switching
    }

    /// Fraction of consumed CPU that was useful work (1.0 when idle).
    pub fn efficiency(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            1.0
        } else {
            self.busy.as_ns_f64() / total.as_ns_f64()
        }
    }
}

/// The scheduler: blocking state plus CPU meters.
pub struct Scheduler {
    /// Cost of one context switch (block or wake transition).
    pub(crate) ctx_switch: Dur,
    meters: FastMap<Pid, CpuMeter>,
    /// Per-core kernel-worker meters (multi-queue mode pins one dataplane
    /// worker per core; this records where each core's cycles went,
    /// independent of process attribution).
    core_meters: Vec<CpuMeter>,
    blocked_since: FastMap<Pid, Time>,
    wakeups: u64,
    blocks: u64,
}

impl Scheduler {
    /// Creates a scheduler with the given context-switch cost (a few
    /// microseconds on contemporary Linux once cache effects are
    /// included).
    pub(crate) fn new(ctx_switch: Dur) -> Scheduler {
        Scheduler {
            ctx_switch,
            meters: FastMap::default(),
            core_meters: Vec::new(),
            blocked_since: FastMap::default(),
            wakeups: 0,
            blocks: 0,
        }
    }

    /// A default 2 µs context switch.
    pub fn with_defaults() -> Scheduler {
        Scheduler::new(Dur::from_us(2))
    }

    /// Returns the CPU meter for `pid` (zeroed if never charged).
    pub fn meter(&self, pid: Pid) -> CpuMeter {
        self.meters.get(&pid).copied().unwrap_or_default()
    }

    /// Returns (blocks, wakeups).
    pub fn counters(&self) -> (u64, u64) {
        (self.blocks, self.wakeups)
    }

    /// Charges useful work to `pid`.
    pub fn charge_busy(&mut self, pid: Pid, d: Dur) {
        self.meters.entry(pid).or_default().busy += d;
    }

    /// Charges poll-loop spinning to `pid`.
    pub fn charge_polling(&mut self, pid: Pid, d: Dur) {
        self.meters.entry(pid).or_default().polling += d;
    }

    /// Charges useful kernel-worker work to `core` (growing the per-core
    /// meter bank on first touch). The host calls it once per fast-path
    /// delivery, so the charge is inline and the growth is not.
    #[inline]
    pub fn charge_core_busy(&mut self, core: usize, d: Dur) {
        if core >= self.core_meters.len() {
            self.grow_core_meters(core + 1);
        }
        self.core_meters[core].busy += d;
    }

    #[cold]
    fn grow_core_meters(&mut self, cores: usize) {
        self.core_meters.resize(cores, CpuMeter::default());
    }

    /// Returns the CPU meter for `core` (zeroed if never charged).
    pub fn core_meter(&self, core: usize) -> CpuMeter {
        self.core_meters.get(core).copied().unwrap_or_default()
    }

    /// Number of cores that have been charged at least once.
    pub fn num_cores_charged(&self) -> usize {
        self.core_meters.len()
    }

    /// Blocks `pid` at `now`, charging half a context switch (the switch
    /// away). Returns `false` if the process is missing or already
    /// blocked.
    pub fn block(&mut self, pid: Pid, now: Time, procs: &mut ProcessTable) -> bool {
        let Some(p) = procs.get_mut(pid) else {
            return false;
        };
        if p.state != ProcState::Running {
            return false;
        }
        p.state = ProcState::Blocked;
        self.blocked_since.insert(pid, now);
        self.meters.entry(pid).or_default().switching += self.ctx_switch / 2;
        self.blocks += 1;
        true
    }

    /// Wakes `pid` at `now`, charging the switch back in. Returns the
    /// instant the process actually resumes (wakeup latency included) or
    /// `None` if it was not blocked.
    pub fn wake(&mut self, pid: Pid, now: Time, procs: &mut ProcessTable) -> Option<Time> {
        let p = procs.get_mut(pid)?;
        if p.state != ProcState::Blocked {
            return None;
        }
        p.state = ProcState::Running;
        self.blocked_since.remove(&pid);
        self.meters.entry(pid).or_default().switching += self.ctx_switch / 2;
        self.wakeups += 1;
        Some(now + self.ctx_switch / 2)
    }

    /// Returns how long `pid` has been blocked at `now`, if blocked.
    #[cfg(test)]
    pub(crate) fn blocked_for(&self, pid: Pid, now: Time) -> Option<Dur> {
        self.blocked_since.get(&pid).map(|&since| now - since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupId;
    use crate::cred::{Cred, Uid};

    fn setup() -> (Scheduler, ProcessTable, Pid) {
        let mut procs = ProcessTable::new();
        let pid = procs.spawn(Cred::new(Uid(1001), "bob"), "server", CgroupId::ROOT);
        (Scheduler::with_defaults(), procs, pid)
    }

    #[test]
    fn block_and_wake_cycle() {
        let (mut sched, mut procs, pid) = setup();
        assert!(sched.block(pid, Time::ZERO, &mut procs));
        assert_eq!(procs.get(pid).unwrap().state, ProcState::Blocked);
        assert_eq!(
            sched.blocked_for(pid, Time::from_us(10)),
            Some(Dur::from_us(10))
        );
        let resumed = sched.wake(pid, Time::from_us(10), &mut procs).unwrap();
        assert_eq!(resumed, Time::from_us(10) + Dur::from_us(1));
        assert_eq!(procs.get(pid).unwrap().state, ProcState::Running);
        // A full context switch charged across the pair.
        assert_eq!(sched.meter(pid).switching, Dur::from_us(2));
        assert_eq!(sched.counters(), (1, 1));
    }

    #[test]
    fn double_block_rejected() {
        let (mut sched, mut procs, pid) = setup();
        assert!(sched.block(pid, Time::ZERO, &mut procs));
        assert!(!sched.block(pid, Time::ZERO, &mut procs));
    }

    #[test]
    fn wake_running_process_is_none() {
        let (mut sched, mut procs, pid) = setup();
        assert!(sched.wake(pid, Time::ZERO, &mut procs).is_none());
    }

    #[test]
    fn meters_separate_busy_from_polling() {
        let (mut sched, _procs, pid) = setup();
        sched.charge_busy(pid, Dur::from_us(10));
        sched.charge_polling(pid, Dur::from_us(90));
        let m = sched.meter(pid);
        assert_eq!(m.total(), Dur::from_us(100));
        assert!((m.efficiency() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_meter_is_fully_efficient() {
        let (sched, _procs, pid) = setup();
        assert_eq!(sched.meter(pid).efficiency(), 1.0);
    }

    #[test]
    fn core_meters_track_per_core_work() {
        let (mut sched, _procs, _pid) = setup();
        assert_eq!(sched.num_cores_charged(), 0);
        assert_eq!(sched.core_meter(3), CpuMeter::default());
        sched.charge_core_busy(2, Dur::from_us(50));
        sched.charge_core_busy(0, Dur::from_us(10));
        sched.charge_core_busy(2, Dur::from_us(25));
        assert_eq!(sched.num_cores_charged(), 3);
        assert_eq!(sched.core_meter(2).busy, Dur::from_us(75));
        assert_eq!(sched.core_meter(0).busy, Dur::from_us(10));
        assert_eq!(sched.core_meter(1), CpuMeter::default());
    }

    #[test]
    fn blocked_process_consumes_no_cpu_while_waiting() {
        // The whole point of blocking I/O: a blocked process's meter does
        // not grow with wall-clock time.
        let (mut sched, mut procs, pid) = setup();
        sched.block(pid, Time::ZERO, &mut procs);
        let before = sched.meter(pid).total();
        // ... a second of simulated time passes ...
        sched.wake(pid, Time::from_secs(1), &mut procs);
        let after = sched.meter(pid).total();
        assert_eq!(after - before, Dur::from_us(1)); // only the wake half-switch
    }
}
