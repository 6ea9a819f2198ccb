//! Latency constants for the memory hierarchy.

use sim::Dur;

/// Per-access latencies, configurable per experiment.
///
/// Defaults approximate a contemporary Xeon server: ~12 ns LLC hit,
/// ~90 ns DRAM, posted MMIO writes around 100 ns and uncached MMIO reads
/// several times that.
#[derive(Clone, Debug)]
pub struct MemCosts {
    /// CPU load/store that hits in the LLC.
    pub llc_hit: Dur,
    /// CPU load/store that misses to DRAM.
    pub(crate) dram: Dur,
    /// NIC DMA write that hits in the LLC (DDIO write update).
    pub(crate) ddio_hit: Dur,
    /// NIC DMA write that misses and *allocates* into the DDIO ways
    /// (write allocate). Cheap — a full-line write needs no DRAM fetch;
    /// the victim's writeback is asynchronous. The real penalty of DDIO
    /// thrashing lands on the consumer's read misses.
    pub(crate) ddio_alloc: Dur,
    /// NIC DMA write that bypasses to DRAM (DDIO disabled).
    pub(crate) dma_dram: Dur,
    /// Cross-core cache-to-cache transfer (coherence), charged when a
    /// dedicated interposition core touches data produced on another core.
    pub cross_core: Dur,
    /// Posted MMIO register write (doorbell).
    pub mmio_write: Dur,
    /// Software copy cost per byte (~20 GB/s effective single-core
    /// memcpy including both cache reads and writes).
    pub(crate) copy_per_byte: Dur,
}

impl Default for MemCosts {
    fn default() -> MemCosts {
        MemCosts {
            llc_hit: Dur::from_ns(12),
            dram: Dur::from_ns(90),
            ddio_hit: Dur::from_ns(15),
            ddio_alloc: Dur::from_ns(20),
            dma_dram: Dur::from_ns(70),
            cross_core: Dur::from_ns(60),
            mmio_write: Dur::from_ns(100),
            copy_per_byte: Dur::from_ps(50),
        }
    }
}

impl MemCosts {
    /// Returns the cost of copying `bytes` through the CPU.
    pub fn copy(&self, bytes: usize) -> Dur {
        self.copy_per_byte.saturating_mul(bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let c = MemCosts::default();
        assert!(c.llc_hit < c.dram);
        assert!(c.ddio_hit <= c.ddio_alloc);
        assert!(c.ddio_alloc < c.dma_dram);
        assert!(c.llc_hit < c.cross_core);
    }

    #[test]
    fn copy_scales_linearly() {
        let c = MemCosts::default();
        assert_eq!(c.copy(0), Dur::ZERO);
        assert_eq!(c.copy(1000), Dur::from_ns(50));
        assert_eq!(c.copy(2000), c.copy(1000) * 2);
    }
}
