//! Syscall cost model.
//!
//! "Virtual movement occurs when network traffic must traverse an
//! isolation boundary on the same core, e.g., moving from userspace to
//! the kernel in the OS stack, which introduces well-known overheads"
//! (§1). This module prices those overheads for the kernel-stack
//! baseline: mode-switch entry/exit plus a per-byte copy between user and
//! kernel buffers.

use sim::Dur;

/// Syscall costs.
#[derive(Clone, Debug)]
pub struct SyscallCosts {
    /// Mode switch in and out (KPTI-era, including TLB/branch-predictor
    /// effects).
    pub(crate) entry_exit: Dur,
    /// Copy between user and kernel space, per byte.
    pub(crate) copy_per_byte: Dur,
    /// Fixed socket-layer bookkeeping per send/recv call.
    pub(crate) socket_overhead: Dur,
}

impl Default for SyscallCosts {
    fn default() -> SyscallCosts {
        SyscallCosts {
            entry_exit: Dur::from_ns(500),
            copy_per_byte: Dur::from_ps(50),
            socket_overhead: Dur::from_ns(150),
        }
    }
}

impl SyscallCosts {
    /// Total cost of a send/recv syscall moving `bytes` of payload.
    pub fn io_call(&self, bytes: usize) -> Dur {
        self.entry_exit + self.socket_overhead + self.copy_per_byte.saturating_mul(bytes as u64)
    }

    /// Cost of a data-less control syscall (e.g. `connect`, `epoll_wait`
    /// returning immediately).
    pub fn control_call(&self) -> Dur {
        self.entry_exit + self.socket_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cost_scales_with_bytes() {
        let c = SyscallCosts::default();
        let small = c.io_call(64);
        let big = c.io_call(1500);
        assert!(big > small);
        assert_eq!(big - small, c.copy_per_byte * (1500 - 64));
    }

    #[test]
    fn control_call_has_no_copy() {
        let c = SyscallCosts::default();
        assert_eq!(c.control_call(), c.io_call(0));
    }

    #[test]
    fn per_packet_overhead_dwarfs_wire_time_for_small_frames() {
        // The kernel-bypass motivation: a 64 B frame serializes in ~7 ns
        // at 100 Gbps, but one syscall costs ~650 ns.
        let c = SyscallCosts::default();
        assert!(c.io_call(64) > Dur::from_ns(500));
    }
}
