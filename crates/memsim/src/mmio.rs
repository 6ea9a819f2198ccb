//! MMIO register access cost accounting.
//!
//! The Norman design exposes ring head/tail pointers and doorbells as
//! SmartNIC MMIO registers. The dataplane only ever posts writes
//! (doorbells), so writes are all the bus charges. Register *semantics*
//! live in the NIC model; this bus only charges time and counts
//! operations.

use sim::Dur;

use crate::costs::MemCosts;

/// A cost- and count-tracking MMIO bus.
#[derive(Clone, Debug, Default)]
pub struct MmioBus {
    writes: u64,
    time_spent: Dur,
}

impl MmioBus {
    /// Creates an idle bus.
    pub fn new() -> MmioBus {
        MmioBus::default()
    }

    /// Charges one posted register write and returns its cost.
    pub fn write(&mut self, costs: &MemCosts) -> Dur {
        self.writes += 1;
        self.time_spent += costs.mmio_write;
        costs.mmio_write
    }

    /// Returns the number of writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Returns total time charged to MMIO.
    pub fn time_spent(&self) -> Dur {
        self.time_spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_and_counts() {
        let costs = MemCosts::default();
        let mut bus = MmioBus::new();
        let w = bus.write(&costs);
        assert_eq!(w, costs.mmio_write);
        assert_eq!(bus.writes(), 1);
        assert_eq!(bus.time_spent(), costs.mmio_write);
    }
}
