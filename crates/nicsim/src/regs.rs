//! The SmartNIC MMIO register file.
//!
//! Two regions model the §3 isolation property:
//!
//! * **App region** — per-connection ring head/tail registers and
//!   doorbells. The kernel *grants* an application access to exactly the
//!   registers of its own connections at connection setup.
//! * **Kernel region** — configuration command registers (program load,
//!   flow-table updates, sniffer control). Only privileged accesses may
//!   touch these; an application attempting to reconfigure the NIC gets a
//!   fault, not a policy bypass.

use std::collections::HashMap;
use std::fmt;

/// Which region a register lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RegRegion {
    /// Application-accessible (if granted).
    App,
    /// Kernel-only.
    Kernel,
}

/// A register access fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegError {
    /// Unprivileged access to a kernel register.
    PrivilegeViolation {
        /// The register address.
        addr: u64,
    },
    /// Access to an app register not granted to this principal.
    NotGranted {
        /// The register address.
        addr: u64,
        /// The accessing principal (pid).
        pid: u32,
    },
    /// The register does not exist.
    NoSuchRegister {
        /// The register address.
        addr: u64,
    },
}

impl fmt::Display for RegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegError::PrivilegeViolation { addr } => {
                write!(f, "unprivileged access to kernel register {addr:#x}")
            }
            RegError::NotGranted { addr, pid } => {
                write!(f, "register {addr:#x} not granted to pid {pid}")
            }
            RegError::NoSuchRegister { addr } => write!(f, "no register at {addr:#x}"),
        }
    }
}

impl std::error::Error for RegError {}

struct Register {
    region: RegRegion,
    value: u64,
    /// For app registers: the pid allowed to touch it.
    owner_pid: Option<u32>,
}

/// The register file.
#[derive(Default)]
pub struct RegFile {
    regs: HashMap<u64, Register>,
    violations: u64,
}

impl RegFile {
    /// Creates an empty register file.
    pub(crate) fn new() -> RegFile {
        RegFile::default()
    }

    /// Defines a kernel-region register.
    pub fn define_kernel(&mut self, addr: u64) {
        self.regs.insert(
            addr,
            Register {
                region: RegRegion::Kernel,
                value: 0,
                owner_pid: None,
            },
        );
    }

    /// Defines an app-region register owned by `pid` (the grant the
    /// kernel issues at connection setup).
    ///
    /// # Panics
    ///
    /// Panics if `addr` already holds a kernel register: an app grant
    /// silently replacing kernel configuration state is an MMIO layout
    /// bug, never a legal grant.
    pub fn define_app(&mut self, addr: u64, pid: u32) {
        assert!(
            !self
                .regs
                .get(&addr)
                .is_some_and(|r| r.region == RegRegion::Kernel),
            "app register grant at {addr:#x} would clobber a kernel register"
        );
        self.regs.insert(
            addr,
            Register {
                region: RegRegion::App,
                value: 0,
                owner_pid: Some(pid),
            },
        );
    }

    /// Removes a register (connection teardown).
    pub(crate) fn remove(&mut self, addr: u64) {
        self.regs.remove(&addr);
    }

    /// Returns the number of rejected accesses.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    fn check(&mut self, addr: u64, pid: Option<u32>) -> Result<(), RegError> {
        let Some(reg) = self.regs.get(&addr) else {
            self.violations += 1;
            return Err(RegError::NoSuchRegister { addr });
        };
        match (reg.region, pid) {
            // Privileged access (kernel): anything goes.
            (_, None) => Ok(()),
            (RegRegion::Kernel, Some(_)) => {
                self.violations += 1;
                Err(RegError::PrivilegeViolation { addr })
            }
            (RegRegion::App, Some(p)) => {
                if reg.owner_pid == Some(p) {
                    Ok(())
                } else {
                    self.violations += 1;
                    Err(RegError::NotGranted { addr, pid: p })
                }
            }
        }
    }

    /// Writes a register. `pid = None` denotes a privileged (kernel)
    /// access.
    pub fn write(&mut self, addr: u64, value: u64, pid: Option<u32>) -> Result<(), RegError> {
        self.check(addr, pid)?;
        self.regs.get_mut(&addr).expect("checked").value = value;
        Ok(())
    }

    /// Reads a register. `pid = None` denotes a privileged access.
    #[cfg(test)]
    pub(crate) fn read(&mut self, addr: u64, pid: Option<u32>) -> Result<u64, RegError> {
        self.check(addr, pid)?;
        Ok(self.regs[&addr].value)
    }

    /// Non-mutating privileged read for audits: no access check, no
    /// violation accounting, `None` when the register does not exist.
    pub fn peek(&self, addr: u64) -> Option<u64> {
        self.regs.get(&addr).map(|r| r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_registers_reject_apps() {
        let mut rf = RegFile::new();
        rf.define_kernel(0x1000);
        assert_eq!(
            rf.write(0x1000, 1, Some(42)),
            Err(RegError::PrivilegeViolation { addr: 0x1000 })
        );
        assert_eq!(rf.violations(), 1);
        // The kernel itself may write.
        assert!(rf.write(0x1000, 7, None).is_ok());
        assert_eq!(rf.read(0x1000, None), Ok(7));
    }

    #[test]
    fn app_registers_enforce_grants() {
        let mut rf = RegFile::new();
        rf.define_app(0x2000, 10);
        assert!(rf.write(0x2000, 5, Some(10)).is_ok());
        assert_eq!(rf.read(0x2000, Some(10)), Ok(5));
        // Another process cannot touch it.
        assert_eq!(
            rf.read(0x2000, Some(11)),
            Err(RegError::NotGranted {
                addr: 0x2000,
                pid: 11
            })
        );
        // The kernel always can.
        assert_eq!(rf.read(0x2000, None), Ok(5));
    }

    #[test]
    fn unknown_register_faults() {
        let mut rf = RegFile::new();
        assert_eq!(
            rf.read(0x9999, None),
            Err(RegError::NoSuchRegister { addr: 0x9999 })
        );
    }

    #[test]
    fn remove_revokes_access() {
        let mut rf = RegFile::new();
        rf.define_app(0x2000, 10);
        rf.remove(0x2000);
        assert!(matches!(
            rf.write(0x2000, 1, Some(10)),
            Err(RegError::NoSuchRegister { .. })
        ));
    }

    #[test]
    fn peek_never_faults_or_counts() {
        let mut rf = RegFile::new();
        rf.define_kernel(0x1000);
        rf.write(0x1000, 9, None).unwrap();
        assert_eq!(rf.peek(0x1000), Some(9));
        assert_eq!(rf.peek(0x9999), None);
        assert_eq!(rf.violations(), 0);
    }

    #[test]
    #[should_panic(expected = "clobber a kernel register")]
    fn app_grant_cannot_overlay_kernel_register() {
        // Regression: connection 65536's doorbells used to land exactly
        // on the kernel config region and silently zero it.
        let mut rf = RegFile::new();
        rf.define_kernel(0x20_0000);
        rf.define_app(0x20_0000, 10);
    }

    #[test]
    fn error_display() {
        assert!(RegError::PrivilegeViolation { addr: 0x10 }
            .to_string()
            .contains("0x10"));
        assert!(RegError::NotGranted { addr: 0x20, pid: 3 }
            .to_string()
            .contains("pid 3"));
    }
}
