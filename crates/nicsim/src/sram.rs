//! The NIC's bounded on-board memory.
//!
//! "SmartNICs inherently have limited memory relative to the amount of
//! available on-host memory" (§5). Every stateful NIC feature allocates
//! from this budget, and allocation failure is an expected, recoverable
//! outcome that the control plane answers by refusing a connection or
//! routing traffic through the software slow path.

use std::fmt;

/// What an allocation is for (reported by `knetstat` and the E3
/// experiment).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SramCategory {
    /// Flow-table entries (per connection).
    FlowTable,
    /// Per-connection DMA ring context (descriptors cached on-NIC).
    RingContext,
    /// Overlay instruction store.
    Program,
    /// Overlay map state.
    Maps,
    /// Packet buffering between pipeline stages.
    Buffers,
    /// NAT translation entries.
    Nat,
}

impl SramCategory {
    /// All categories, for reporting.
    pub(crate) const ALL: [SramCategory; 6] = [
        SramCategory::FlowTable,
        SramCategory::RingContext,
        SramCategory::Program,
        SramCategory::Maps,
        SramCategory::Buffers,
        SramCategory::Nat,
    ];
}

impl fmt::Display for SramCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SramCategory::FlowTable => "flow-table",
            SramCategory::RingContext => "ring-context",
            SramCategory::Program => "program",
            SramCategory::Maps => "maps",
            SramCategory::Buffers => "buffers",
            SramCategory::Nat => "nat",
        };
        f.write_str(s)
    }
}

/// Allocation failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SramError {
    /// Bytes requested.
    pub(crate) requested: u64,
    /// Bytes free at the time of the request.
    pub(crate) free: u64,
    /// The requesting category.
    pub(crate) category: SramCategory,
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NIC SRAM exhausted: {} requested {} bytes, {} free",
            self.category, self.requested, self.free
        )
    }
}

impl std::error::Error for SramError {}

/// A byte-budget allocator with per-category accounting.
#[derive(Clone, Debug)]
pub struct Sram {
    capacity: u64,
    used: u64,
    by_category: [u64; 6],
    failures: u64,
}

fn cat_index(c: SramCategory) -> usize {
    match c {
        SramCategory::FlowTable => 0,
        SramCategory::RingContext => 1,
        SramCategory::Program => 2,
        SramCategory::Maps => 3,
        SramCategory::Buffers => 4,
        SramCategory::Nat => 5,
    }
}

impl Sram {
    /// Creates an allocator with `capacity` bytes.
    pub fn new(capacity: u64) -> Sram {
        Sram {
            capacity,
            used: 0,
            by_category: [0; 6],
            failures: 0,
        }
    }

    /// A 16 MiB part, typical of mid-range FPGA NICs' on-chip SRAM.
    pub fn typical() -> Sram {
        Sram::new(16 << 20)
    }

    /// Returns bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Returns bytes free.
    pub(crate) fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Returns bytes allocated to `category`.
    pub fn used_by(&self, category: SramCategory) -> u64 {
        self.by_category[cat_index(category)]
    }

    /// Returns the number of failed allocations (exhaustion events).
    #[cfg(test)]
    pub(crate) fn failures(&self) -> u64 {
        self.failures
    }

    /// Allocates `bytes` for `category`.
    pub(crate) fn alloc(&mut self, category: SramCategory, bytes: u64) -> Result<(), SramError> {
        if bytes > self.free() {
            self.failures += 1;
            return Err(SramError {
                requested: bytes,
                free: self.free(),
                category,
            });
        }
        self.used += bytes;
        self.by_category[cat_index(category)] += bytes;
        Ok(())
    }

    /// Frees `bytes` from `category`.
    ///
    /// # Panics
    ///
    /// Panics if more is freed than the category holds (an accounting bug,
    /// never a data-dependent condition).
    pub(crate) fn release(&mut self, category: SramCategory, bytes: u64) {
        let idx = cat_index(category);
        assert!(
            self.by_category[idx] >= bytes,
            "over-free of {category}: freeing {bytes}, holds {}",
            self.by_category[idx]
        );
        self.by_category[idx] -= bytes;
        self.used -= bytes;
    }

    /// Returns a (category, bytes) usage report.
    #[cfg(test)]
    pub(crate) fn report(&self) -> Vec<(SramCategory, u64)> {
        SramCategory::ALL
            .iter()
            .map(|&c| (c, self.used_by(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release_round_trip() {
        let mut s = Sram::new(1000);
        s.alloc(SramCategory::FlowTable, 400).unwrap();
        s.alloc(SramCategory::Program, 100).unwrap();
        assert_eq!(s.used(), 500);
        assert_eq!(s.free(), 500);
        assert_eq!(s.used_by(SramCategory::FlowTable), 400);
        s.release(SramCategory::FlowTable, 400);
        assert_eq!(s.used(), 100);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut s = Sram::new(100);
        s.alloc(SramCategory::RingContext, 80).unwrap();
        let err = s.alloc(SramCategory::RingContext, 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.free, 20);
        assert_eq!(s.failures(), 1);
        // State unchanged by the failed allocation.
        assert_eq!(s.used(), 80);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut s = Sram::new(100);
        assert!(s.alloc(SramCategory::Buffers, 100).is_ok());
        assert_eq!(s.free(), 0);
    }

    #[test]
    #[should_panic(expected = "over-free")]
    fn over_free_is_a_bug() {
        let mut s = Sram::new(100);
        s.alloc(SramCategory::Maps, 10).unwrap();
        s.release(SramCategory::Maps, 20);
    }

    #[test]
    fn report_lists_all_categories() {
        let mut s = Sram::new(1000);
        s.alloc(SramCategory::Program, 64).unwrap();
        let report = s.report();
        assert_eq!(report.len(), 6);
        assert!(report.contains(&(SramCategory::Program, 64)));
        assert!(report.contains(&(SramCategory::Maps, 0)));
    }

    #[test]
    fn error_display() {
        let e = SramError {
            requested: 100,
            free: 10,
            category: SramCategory::FlowTable,
        };
        let s = e.to_string();
        assert!(s.contains("flow-table"));
        assert!(s.contains("100"));
    }
}
