//! Pipeline configuration and verdict types for the NIC dataplane.

use pkt::FrameMeta;
use sim::{Dur, Time};

use crate::flowtable::ConnId;

/// SmartNIC configuration.
///
/// Stage costs approximate an FPGA pipeline: parsing and table lookup are
/// fixed-latency hardware stages; overlay execution costs one soft-
/// processor cycle per instruction. The pipeline is, well, pipelined:
/// per-packet *occupancy* (which bounds throughput) is the slowest stage,
/// while *latency* is the sum of stages.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Line rate in Gbps.
    pub gbps: f64,
    /// Wire propagation delay.
    pub propagation: Dur,
    /// Parser stage latency.
    pub parse_cost: Dur,
    /// Flow-table lookup latency (hot tier: on-SRAM exact match).
    pub lookup_cost: Dur,
    /// Extra lookup latency for a cold-tier hit: the NIC walks the
    /// host-memory flow table over PCIe (several dependent DRAM reads)
    /// before it can steer the frame. Paid on top of `lookup_cost`, and
    /// it occupies the lookup stage, so heavy cold traffic throttles
    /// pipeline throughput — the incentive the eviction policy trades
    /// against.
    pub cold_lookup_cost: Dur,
    /// Overlay cycle time.
    pub overlay_cycle: Dur,
    /// Fixed traversal latency (SerDes, CRC, buffering).
    pub base_latency: Dur,
    /// On-board SRAM bytes.
    pub sram_bytes: u64,
    /// Notification queue capacity per process.
    pub notify_capacity: usize,
    /// Sniffer capture buffer entries.
    pub sniffer_capacity: usize,
    /// TX scheduler per-class queue limit (packets).
    pub tx_queue_limit: usize,
    /// Cost of swapping an overlay program (control-plane side; the
    /// dataplane keeps running).
    pub overlay_swap_cost: Dur,
    /// Duration of a full bitstream reprogram, during which the dataplane
    /// is down (§4.4: "these operations take seconds or longer").
    pub bitstream_reprogram: Dur,
    /// Number of RX/TX queue pairs the NIC exposes. The boot-time RSS
    /// indirection table spreads hashes uniformly across them; the kernel
    /// can reprogram both via the control plane. `1` (the default) is the
    /// pre-multi-queue NIC, byte-identical to the single-queue pipeline.
    pub num_queues: usize,
    /// Duration of a kernel-driven device reset after a crash: firmware
    /// reload plus self-test, during which the dataplane behaves exactly
    /// like a bitstream reprogram window (frames dropped with a counted
    /// cause). Much cheaper than a full reprogram, much dearer than an
    /// overlay swap.
    pub reset_cost: Dur,
}

impl Default for NicConfig {
    fn default() -> NicConfig {
        NicConfig {
            gbps: 100.0,
            propagation: Dur::from_ns(500),
            parse_cost: Dur::from_ns(30),
            lookup_cost: Dur::from_ns(40),
            cold_lookup_cost: Dur::from_ns(600),
            overlay_cycle: Dur::from_ns(4),
            base_latency: Dur::from_ns(300),
            sram_bytes: 16 << 20,
            notify_capacity: 1024,
            sniffer_capacity: 1 << 16,
            tx_queue_limit: 1024,
            overlay_swap_cost: Dur::from_us(20),
            bitstream_reprogram: Dur::from_secs(3),
            num_queues: 1,
            reset_cost: Dur::from_ms(100),
        }
    }
}

/// Where an ingress packet ends up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxDisposition {
    /// DMA to the connection's RX ring.
    Deliver {
        /// The matched connection.
        conn: ConnId,
        /// Whether a notification should be posted (blocking I/O).
        notify: bool,
    },
    /// Punt to the kernel software path.
    SlowPath {
        /// Why (for counters).
        reason: SlowPathReason,
    },
    /// Discarded.
    Drop {
        /// Why (for counters).
        reason: DropReason,
    },
}

/// Why a packet took the software slow path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SlowPathReason {
    /// No flow-table match (e.g. ARP, unknown flows — the kernel handles
    /// them as it does today).
    NoFlowMatch,
    /// A policy program returned `slowpath` (low-priority traffic routed
    /// through software to save NIC resources, §5).
    PolicyPunt,
}

/// Why a packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DropReason {
    /// The ingress/egress filter said so.
    Filter,
    /// The dataplane was down for a bitstream reprogram.
    Reprogramming,
    /// A policy program faulted (fail closed).
    PolicyFault,
    /// Unparseable frame.
    Malformed,
    /// The device crashed: volatile state is gone and the dataplane is
    /// dark until a kernel-driven reset.
    DeviceDead,
}

impl DropReason {
    /// Maps this NIC-local reason onto the stack-wide telemetry
    /// vocabulary, so trace consumers see one drop taxonomy.
    pub(crate) fn cause(self) -> telemetry::DropCause {
        match self {
            DropReason::Filter => telemetry::DropCause::Filter,
            DropReason::Reprogramming => telemetry::DropCause::Reprogramming,
            DropReason::PolicyFault => telemetry::DropCause::PolicyFault,
            DropReason::Malformed => telemetry::DropCause::Malformed,
            DropReason::DeviceDead => telemetry::DropCause::DeviceDead,
        }
    }
}

/// Result of ingress processing.
#[derive(Clone, Debug)]
pub struct RxResult {
    /// Final placement.
    pub disposition: RxDisposition,
    /// When the packet emerges from the pipeline (DMA may start then).
    pub ready_at: Time,
    /// Pipeline latency experienced.
    pub latency: Dur,
    /// Whether a notification interrupt fired (kernel should wake the
    /// owner).
    pub interrupt: bool,
    /// The parse-once descriptor computed by the parser stage, for reuse
    /// by every later consumer (slow path, ARP, accept path). `None` only
    /// when the frame never made it through the parser (reprogramming
    /// drops, unparseable frames).
    pub meta: Option<FrameMeta>,
    /// Whether the steering entry was cold-tier when probed: the lookup
    /// paid the host walk, and the kernel routes this frame's ring DMA
    /// around the DDIO ways (demoted flows must not thrash hot rings).
    pub cold: bool,
}

/// Where an egress packet ends up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxDisposition {
    /// Accepted into the scheduler with this class.
    Queued {
        /// Scheduler class assigned by the classifier.
        class: u32,
    },
    /// Dropped by egress policy.
    Drop {
        /// Why.
        reason: DropReason,
    },
}

/// A frame leaving the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxDeparture {
    /// Scheduler packet id.
    pub pkt_id: u64,
    /// Originating connection.
    pub conn: ConnId,
    /// Frame length.
    pub len: u32,
    /// When the last bit arrives at the far end.
    pub arrives_at: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = NicConfig::default();
        assert!(c.gbps > 0.0);
        assert!(c.overlay_cycle > Dur::ZERO);
        assert!(c.bitstream_reprogram >= Dur::from_secs(1));
        assert!(c.overlay_swap_cost < Dur::from_ms(1));
        // The headline comparison of §4.4: overlay updates are orders of
        // magnitude cheaper than bitstream reprogramming.
        assert!(c.bitstream_reprogram.0 / c.overlay_swap_cost.0 > 10_000);
        // Crash recovery sits between the two: a reset is not free, but
        // it must not cost a full reprogram either.
        assert!(c.reset_cost > c.overlay_swap_cost);
        assert!(c.reset_cost < c.bitstream_reprogram);
        // A cold-tier lookup dominates the hot lookup by an order of
        // magnitude — that asymmetry is what the eviction policy manages.
        assert!(c.cold_lookup_cost.0 >= c.lookup_cost.0 * 10);
    }
}
