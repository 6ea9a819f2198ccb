//! The five datapath architectures the paper compares.
//!
//! §1-§2 argue that the placement of the interposition layer determines
//! both performance (how much data movement each packet pays for) and
//! capability (which views — global traffic, process identity — the
//! layer has). This module implements all five placements over the same
//! substrates so E1 (overhead) and T1 (capability matrix) can measure
//! them head-to-head:
//!
//! | architecture | interposition | movement per packet |
//! |---|---|---|
//! | [`DatapathKind::KernelStack`] | in-kernel (today) | virtual: syscall + copy |
//! | [`DatapathKind::RawBypass`] | none (DPDK-style) | one transfer, no policy |
//! | [`DatapathKind::SidecarCore`] | dedicated core (IX/Snap) | physical: cross-core |
//! | [`DatapathKind::HypervisorSwitch`] | NIC vswitch (AccelNet) | one transfer, port-only policy |
//! | [`DatapathKind::Kopi`] | on-NIC, kernel-managed | one transfer, full policy |

use memsim::{HostRing, Llc, LlcConfig, MemCosts};
use oskernel::StackCosts;
use sim::Dur;

/// Which datapath architecture.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DatapathKind {
    /// Conventional in-kernel network stack.
    KernelStack,
    /// Raw kernel bypass (DPDK-style), no interposition anywhere.
    RawBypass,
    /// Interposition on a dedicated core (IX/Snap-style dataplane OS).
    SidecarCore,
    /// Interposition in a NIC-offloaded hypervisor switch (AccelNet).
    HypervisorSwitch,
    /// Kernel On-Path Interposition (this paper).
    Kopi,
}

impl DatapathKind {
    /// All five, in presentation order.
    pub const ALL: [DatapathKind; 5] = [
        DatapathKind::KernelStack,
        DatapathKind::RawBypass,
        DatapathKind::SidecarCore,
        DatapathKind::HypervisorSwitch,
        DatapathKind::Kopi,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DatapathKind::KernelStack => "kernel-stack",
            DatapathKind::RawBypass => "raw-bypass",
            DatapathKind::SidecarCore => "sidecar-core",
            DatapathKind::HypervisorSwitch => "hypervisor-switch",
            DatapathKind::Kopi => "kopi",
        }
    }
}

/// What an interposition placement can and cannot do (the paper's §3
/// requirements, probed empirically by the T1 experiment).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Capabilities {
    /// Sees traffic of *all* applications on the host.
    pub global_view: bool,
    /// Can attribute traffic to (uid, pid, comm) and signal processes.
    pub process_view: bool,
    /// Applications cannot evade or tamper with the layer.
    pub isolated_from_app: bool,
    /// Supports blocking I/O (can detect arrivals and wake processes).
    pub blocking_io: bool,
    /// Can implement work-conserving cross-application shaping (WFQ).
    pub shaping: bool,
    /// Policies can be updated at software-development cadence.
    pub programmable: bool,
    /// Adds no per-packet kernel/copy cost to the data path.
    pub line_rate_datapath: bool,
}

impl Capabilities {
    /// The §3 requirement list as a score out of 6 (capability columns
    /// except `line_rate_datapath`, which is the performance side).
    pub fn policy_score(&self) -> u32 {
        [
            self.global_view,
            self.process_view,
            self.isolated_from_app,
            self.blocking_io,
            self.shaping,
            self.programmable,
        ]
        .iter()
        .filter(|&&b| b)
        .count() as u32
    }
}

/// Per-packet cost breakdown for one architecture.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostBreakdown {
    /// CPU + memory time on the application's core.
    pub app_core: Dur,
    /// CPU time burned on other host cores (sidecar, softirq core).
    pub other_core: Dur,
    /// Added in-NIC latency (pipelined; affects latency, not host
    /// throughput).
    pub nic_latency: Dur,
}

impl CostBreakdown {
    /// Total host CPU time across cores.
    pub fn total_host(&self) -> Dur {
        self.app_core + self.other_core
    }
}

/// A stateful per-packet cost model for one architecture.
///
/// The ring-based paths keep a live ring + LLC so their costs include
/// real cache behaviour; the kernel path uses the stack cost model.
pub struct Architecture {
    kind: DatapathKind,
    mem: MemCosts,
    llc: Llc,
    rx_ring: HostRing,
    tx_ring: HostRing,
    /// For the sidecar: the interposition core's staging ring.
    sidecar_ring: HostRing,
    stack: StackCosts,
    /// Active filter rules (kernel hooks or NIC programs).
    pub(crate) filter_rules: u64,
    /// Overlay cycles per packet on NIC-resident paths.
    pub(crate) overlay_cycles: u64,
    /// Overlay cycle time.
    pub(crate) overlay_cycle: Dur,
    doorbell_batch: u64,
    ring_ops: u64,
}

impl Architecture {
    /// Creates the cost model for `kind` with default substrates.
    pub fn new(kind: DatapathKind) -> Architecture {
        Architecture {
            kind,
            mem: MemCosts::default(),
            llc: Llc::new(LlcConfig::xeon_default()),
            rx_ring: HostRing::new(0x1000_0000, 256, 2048),
            tx_ring: HostRing::new(0x2000_0000, 256, 2048),
            sidecar_ring: HostRing::new(0x3000_0000, 256, 2048),
            stack: StackCosts::default(),
            filter_rules: 8,
            overlay_cycles: 20,
            overlay_cycle: Dur::from_ns(4),
            doorbell_batch: 4,
            ring_ops: 0,
        }
    }

    /// Returns the capability set of this placement.
    pub fn capabilities(kind: DatapathKind) -> Capabilities {
        match kind {
            DatapathKind::KernelStack => Capabilities {
                global_view: true,
                process_view: true,
                isolated_from_app: true,
                blocking_io: true,
                shaping: true,
                programmable: true,
                line_rate_datapath: false,
            },
            DatapathKind::RawBypass => Capabilities {
                global_view: false,
                process_view: false,
                isolated_from_app: false,
                blocking_io: false,
                shaping: false,
                programmable: true, // the app can run anything — for itself only
                line_rate_datapath: true,
            },
            DatapathKind::SidecarCore => Capabilities {
                global_view: true,
                process_view: true,
                isolated_from_app: true,
                blocking_io: true,
                shaping: true,
                programmable: true,
                line_rate_datapath: false, // burns a core + coherence traffic
            },
            DatapathKind::HypervisorSwitch => Capabilities {
                global_view: true,
                process_view: false, // sees VMs/ports, not processes
                isolated_from_app: true,
                blocking_io: false, // cannot signal host processes
                shaping: true,      // per-port only, but work-conserving
                programmable: true,
                line_rate_datapath: true,
            },
            DatapathKind::Kopi => Capabilities {
                global_view: true,
                process_view: true,
                isolated_from_app: true,
                blocking_io: true,
                shaping: true,
                programmable: true,
                line_rate_datapath: true,
            },
        }
    }

    fn doorbell(&mut self) -> Dur {
        self.ring_ops += 1;
        if self.ring_ops.is_multiple_of(self.doorbell_batch) {
            self.mem.mmio_write
        } else {
            Dur::ZERO
        }
    }

    fn lines(bytes: usize) -> u64 {
        (bytes as u64).div_ceil(64).max(1)
    }

    /// Per-packet receive cost for a frame of `bytes`.
    pub fn rx_cost(&mut self, bytes: usize) -> CostBreakdown {
        match self.kind {
            DatapathKind::KernelStack => {
                // softirq + protocol + hooks on some core, then the recv
                // syscall + copy on the app core.
                let hooks = Dur::from_ns(25).saturating_mul(self.filter_rules);
                CostBreakdown {
                    app_core: self.stack.syscalls.io_call(bytes),
                    other_core: self.stack.softirq + self.stack.protocol + hooks,
                    nic_latency: Dur::ZERO,
                }
            }
            DatapathKind::RawBypass | DatapathKind::HypervisorSwitch | DatapathKind::Kopi => {
                // One transfer: NIC DMA into the app ring, app consumes.
                let _ = self
                    .rx_ring
                    .produce_dma(bytes, &mut self.llc, &self.mem.clone());
                let consume = self
                    .rx_ring
                    .consume_cpu(&mut self.llc, &self.mem.clone())
                    .map(|(_, c)| c)
                    .unwrap_or(Dur::ZERO);
                let nic_latency = match self.kind {
                    // Interposing placements add pipelined NIC latency.
                    DatapathKind::Kopi => self.overlay_cycle.saturating_mul(self.overlay_cycles),
                    DatapathKind::HypervisorSwitch => Dur::from_ns(100),
                    _ => Dur::ZERO,
                };
                CostBreakdown {
                    app_core: consume + self.doorbell(),
                    other_core: Dur::ZERO,
                    nic_latency,
                }
            }
            DatapathKind::SidecarCore => {
                // Two transfers: NIC → sidecar ring; the sidecar runs the
                // interposition logic; the payload then moves cross-core
                // into the app's cache.
                let mem = self.mem.clone();
                let _ = self.sidecar_ring.produce_dma(bytes, &mut self.llc, &mem);
                let sidecar_consume = self
                    .sidecar_ring
                    .consume_cpu(&mut self.llc, &mem)
                    .map(|(_, c)| c)
                    .unwrap_or(Dur::ZERO);
                let hooks = Dur::from_ns(25).saturating_mul(self.filter_rules);
                // Cross-core: the first line pays the full cache-to-cache
                // latency; subsequent lines stream behind it (hardware
                // prefetch pipelines remote-cache reads to roughly LLC
                // latency).
                let coherence = mem.cross_core
                    + mem
                        .llc_hit
                        .saturating_mul(Self::lines(bytes).saturating_sub(1));
                CostBreakdown {
                    app_core: coherence + self.doorbell(),
                    other_core: sidecar_consume + hooks + self.stack.protocol,
                    nic_latency: Dur::ZERO,
                }
            }
        }
    }

    /// Per-packet send cost for a frame of `bytes`.
    pub fn tx_cost(&mut self, bytes: usize) -> CostBreakdown {
        match self.kind {
            DatapathKind::KernelStack => {
                let hooks = Dur::from_ns(25).saturating_mul(self.filter_rules);
                CostBreakdown {
                    app_core: self.stack.syscalls.io_call(bytes),
                    other_core: self.stack.protocol + hooks,
                    nic_latency: Dur::ZERO,
                }
            }
            DatapathKind::RawBypass | DatapathKind::HypervisorSwitch | DatapathKind::Kopi => {
                let mem = self.mem.clone();
                let produce = self
                    .tx_ring
                    .produce_cpu(bytes, &mut self.llc, &mem)
                    .unwrap_or(Dur::ZERO);
                let _ = self.tx_ring.consume_dma(&mut self.llc, &mem);
                let nic_latency = match self.kind {
                    DatapathKind::Kopi => self.overlay_cycle.saturating_mul(self.overlay_cycles),
                    DatapathKind::HypervisorSwitch => Dur::from_ns(100),
                    _ => Dur::ZERO,
                };
                CostBreakdown {
                    app_core: produce + self.doorbell(),
                    other_core: Dur::ZERO,
                    nic_latency,
                }
            }
            DatapathKind::SidecarCore => {
                let mem = self.mem.clone();
                let produce = self
                    .tx_ring
                    .produce_cpu(bytes, &mut self.llc, &mem)
                    .unwrap_or(Dur::ZERO);
                let _ = self.tx_ring.consume_cpu(&mut self.llc, &mem);
                let hooks = Dur::from_ns(25).saturating_mul(self.filter_rules);
                let coherence = mem.cross_core
                    + mem
                        .llc_hit
                        .saturating_mul(Self::lines(bytes).saturating_sub(1));
                CostBreakdown {
                    app_core: produce + self.doorbell(),
                    other_core: coherence + hooks + self.stack.protocol,
                    nic_latency: Dur::ZERO,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rx(kind: DatapathKind, bytes: usize) -> CostBreakdown {
        let mut a = Architecture::new(kind);
        // Warm up, then average.
        for _ in 0..64 {
            a.rx_cost(bytes);
        }
        let mut total = CostBreakdown::default();
        let n = 256;
        for _ in 0..n {
            let c = a.rx_cost(bytes);
            total.app_core += c.app_core;
            total.other_core += c.other_core;
            total.nic_latency += c.nic_latency;
        }
        CostBreakdown {
            app_core: total.app_core / n,
            other_core: total.other_core / n,
            nic_latency: total.nic_latency / n,
        }
    }

    #[test]
    fn paper_ordering_holds_for_small_packets() {
        // §1: bypass ≈ KOPI < sidecar < kernel in host cost.
        let kernel = mean_rx(DatapathKind::KernelStack, 64).total_host();
        let bypass = mean_rx(DatapathKind::RawBypass, 64).total_host();
        let kopi = mean_rx(DatapathKind::Kopi, 64).total_host();
        let sidecar = mean_rx(DatapathKind::SidecarCore, 64).total_host();
        assert_eq!(bypass, kopi, "KOPI host cost must equal raw bypass");
        assert!(kopi < sidecar, "kopi {kopi} vs sidecar {sidecar}");
        assert!(sidecar < kernel, "sidecar {sidecar} vs kernel {kernel}");
    }

    #[test]
    fn kopi_pays_only_nic_latency() {
        let kopi = mean_rx(DatapathKind::Kopi, 64);
        let bypass = mean_rx(DatapathKind::RawBypass, 64);
        assert!(kopi.nic_latency > Dur::ZERO);
        assert_eq!(bypass.nic_latency, Dur::ZERO);
        assert_eq!(kopi.app_core, bypass.app_core);
    }

    #[test]
    fn kernel_cost_grows_with_packet_size_faster_than_bypass() {
        let k_small = mean_rx(DatapathKind::KernelStack, 64).total_host();
        let k_big = mean_rx(DatapathKind::KernelStack, 1500).total_host();
        let b_small = mean_rx(DatapathKind::RawBypass, 64).total_host();
        let b_big = mean_rx(DatapathKind::RawBypass, 1500).total_host();
        // Both grow, but the kernel adds copy cost on top of the memory
        // touches bypass also pays.
        assert!(k_big > k_small);
        assert!(b_big > b_small);
        assert!(k_big - k_small > Dur::from_ns(50));
        let _ = b_big;
    }

    #[test]
    fn sidecar_burns_another_core() {
        let c = mean_rx(DatapathKind::SidecarCore, 512);
        assert!(c.other_core > Dur::ZERO);
        let b = mean_rx(DatapathKind::RawBypass, 512);
        assert_eq!(b.other_core, Dur::ZERO);
    }

    #[test]
    fn capability_matrix_matches_paper() {
        use DatapathKind::*;
        // KOPI and the kernel stack are the only placements with *all*
        // policy capabilities; only KOPI also keeps the fast datapath.
        for kind in DatapathKind::ALL {
            let c = Architecture::capabilities(kind);
            match kind {
                KernelStack => {
                    assert_eq!(c.policy_score(), 6);
                    assert!(!c.line_rate_datapath);
                }
                RawBypass => {
                    assert!(!c.global_view);
                    assert!(!c.isolated_from_app);
                    assert!(c.line_rate_datapath);
                }
                SidecarCore => {
                    assert_eq!(c.policy_score(), 6);
                    assert!(!c.line_rate_datapath);
                }
                HypervisorSwitch => {
                    assert!(c.global_view);
                    assert!(
                        !c.process_view,
                        "AccelNet-style switches lack the process view"
                    );
                    assert!(!c.blocking_io);
                }
                Kopi => {
                    assert_eq!(c.policy_score(), 6);
                    assert!(c.line_rate_datapath);
                }
            }
        }
    }

    #[test]
    fn tx_costs_follow_same_ordering() {
        let mut kernel = Architecture::new(DatapathKind::KernelStack);
        let mut kopi = Architecture::new(DatapathKind::Kopi);
        let mut k_total = Dur::ZERO;
        let mut n_total = Dur::ZERO;
        for _ in 0..128 {
            k_total += kernel.tx_cost(256).total_host();
            n_total += kopi.tx_cost(256).total_host();
        }
        assert!(n_total < k_total);
    }

    #[test]
    fn more_filter_rules_cost_kernel_but_not_kopi_host_time() {
        let mut kernel = Architecture::new(DatapathKind::KernelStack);
        let mut kopi = Architecture::new(DatapathKind::Kopi);
        let k_before = kernel.rx_cost(64).total_host();
        let n_before = kopi.rx_cost(64).total_host();
        kernel.filter_rules = 1000;
        kopi.filter_rules = 1000;
        kopi.overlay_cycles = 200; // richer NIC program
        let k_after = kernel.rx_cost(64).total_host();
        let n_after = kopi.rx_cost(64).total_host();
        assert!(k_after > k_before + Dur::from_us(20));
        // KOPI's host cost is unchanged; only NIC latency grows.
        assert!(n_after <= n_before + Dur::from_ns(1));
        assert!(kopi.rx_cost(64).nic_latency >= Dur::from_ns(800));
    }
}
