//! Receive-side scaling: the RSS indirection table.
//!
//! Real multi-queue NICs steer each ingress frame to an RX queue by
//! indexing an indirection table with the low bits of the Toeplitz flow
//! hash (already computed once per frame in [`pkt::FrameMeta`]); the OS
//! programs both the queue count and the table through privileged device
//! registers (`ethtool -X`). [`RssTable`] is that table: a fixed
//! [`RSS_TABLE_SIZE`]-entry map from hash buckets to queue ids, valid
//! only when every entry names an existing queue. The kernel reprograms
//! it through the control plane's two-phase commit, never directly —
//! queue steering is policy (§4.4), and a half-written table would
//! misdeliver frames.

use std::fmt;

/// Number of entries in the indirection table (matches common hardware:
/// 128 buckets, indexed by `hash % 128`).
pub const RSS_TABLE_SIZE: usize = 128;

/// Maximum number of RX/TX queue pairs the simulated NIC supports.
pub const MAX_QUEUES: usize = 64;

/// Kernel-only MMIO register mirroring the active queue count, written
/// at RSS configuration time so audits can cross-check device state
/// against the kernel's policy store (like
/// [`crate::device::POLICY_GENERATION_REG`] for the policy epoch).
pub(crate) const RSS_NUM_QUEUES_REG: u64 = 0x20_0008;

/// Why an RSS configuration was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RssError {
    /// Queue count outside `1..=MAX_QUEUES`.
    BadQueueCount {
        /// The offending count.
        queues: usize,
    },
    /// Indirection table is not exactly [`RSS_TABLE_SIZE`] entries.
    BadTableSize {
        /// The offending length.
        len: usize,
    },
    /// A table entry names a queue that does not exist.
    BadEntry {
        /// Table index of the bad entry.
        index: usize,
        /// The out-of-range queue id.
        queue: u16,
    },
}

impl fmt::Display for RssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RssError::BadQueueCount { queues } => {
                write!(f, "queue count {queues} outside 1..={MAX_QUEUES}")
            }
            RssError::BadTableSize { len } => {
                write!(
                    f,
                    "indirection table has {len} entries, need {RSS_TABLE_SIZE}"
                )
            }
            RssError::BadEntry { index, queue } => {
                write!(
                    f,
                    "indirection[{index}] = {queue} names a nonexistent queue"
                )
            }
        }
    }
}

impl std::error::Error for RssError {}

/// The NIC-resident RSS state: queue count plus indirection table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RssTable {
    num_queues: u16,
    indirection: Vec<u16>,
}

impl RssTable {
    /// Builds the boot-time table for `num_queues` queues: entry `i` maps
    /// to queue `i % num_queues`, the uniform spread hardware defaults to.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues` is outside `1..=MAX_QUEUES` — a NIC cannot
    /// boot with zero queues.
    pub fn uniform(num_queues: usize) -> RssTable {
        assert!(
            (1..=MAX_QUEUES).contains(&num_queues),
            "num_queues {num_queues} outside 1..={MAX_QUEUES}"
        );
        RssTable {
            num_queues: num_queues as u16,
            indirection: (0..RSS_TABLE_SIZE)
                .map(|i| (i % num_queues) as u16)
                .collect(),
        }
    }

    /// Validates and installs a full RSS configuration. On error the
    /// previous configuration is untouched (the table is swapped whole,
    /// never entry-by-entry).
    #[cfg(test)]
    pub(crate) fn configure(
        &mut self,
        num_queues: usize,
        indirection: &[u16],
    ) -> Result<(), RssError> {
        let table = RssTable::validated(num_queues, indirection)?;
        *self = table;
        Ok(())
    }

    /// Validates a candidate configuration without installing it.
    pub fn validated(num_queues: usize, indirection: &[u16]) -> Result<RssTable, RssError> {
        if !(1..=MAX_QUEUES).contains(&num_queues) {
            return Err(RssError::BadQueueCount { queues: num_queues });
        }
        if indirection.len() != RSS_TABLE_SIZE {
            return Err(RssError::BadTableSize {
                len: indirection.len(),
            });
        }
        if let Some((index, &queue)) = indirection
            .iter()
            .enumerate()
            .find(|&(_, &q)| usize::from(q) >= num_queues)
        {
            return Err(RssError::BadEntry { index, queue });
        }
        Ok(RssTable {
            num_queues: num_queues as u16,
            indirection: indirection.to_vec(),
        })
    }

    /// Number of active RX/TX queue pairs.
    pub(crate) fn num_queues(&self) -> usize {
        usize::from(self.num_queues)
    }

    /// The full indirection table (always [`RSS_TABLE_SIZE`] entries).
    pub fn indirection(&self) -> &[u16] {
        &self.indirection
    }

    /// Steers a flow hash to its RX queue: `indirection[hash % 128]`.
    pub fn queue_for(&self, hash: u32) -> u16 {
        self.indirection[hash as usize % RSS_TABLE_SIZE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spreads_round_robin() {
        let t = RssTable::uniform(4);
        assert_eq!(t.num_queues(), 4);
        assert_eq!(t.indirection()[0], 0);
        assert_eq!(t.indirection()[1], 1);
        assert_eq!(t.indirection()[5], 1);
        assert_eq!(t.queue_for(0), 0);
        assert_eq!(t.queue_for(129), 1);
        // Every queue is reachable.
        let mut seen = [false; 4];
        for h in 0..256u32 {
            seen[usize::from(t.queue_for(h))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_queue_steers_everything_to_zero() {
        let t = RssTable::uniform(1);
        for h in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(t.queue_for(h), 0);
        }
    }

    #[test]
    fn configure_validates_whole_table() {
        let mut t = RssTable::uniform(2);
        let before = t.clone();
        // Entry names queue 2 with only 2 queues: refused, state intact.
        let mut bad = vec![0u16; RSS_TABLE_SIZE];
        bad[7] = 2;
        assert_eq!(
            t.configure(2, &bad),
            Err(RssError::BadEntry { index: 7, queue: 2 })
        );
        assert_eq!(t, before);
        // Wrong size refused.
        assert_eq!(
            t.configure(2, &[0u16; 64]),
            Err(RssError::BadTableSize { len: 64 })
        );
        // Zero or oversized queue counts refused.
        assert_eq!(
            t.configure(0, &[0u16; RSS_TABLE_SIZE]),
            Err(RssError::BadQueueCount { queues: 0 })
        );
        assert_eq!(
            t.configure(MAX_QUEUES + 1, &vec![0u16; RSS_TABLE_SIZE]),
            Err(RssError::BadQueueCount {
                queues: MAX_QUEUES + 1
            })
        );
        // A skewed but valid table installs atomically.
        let skew: Vec<u16> = (0..RSS_TABLE_SIZE)
            .map(|i| if i < 96 { 0 } else { 1 })
            .collect();
        t.configure(2, &skew).unwrap();
        assert_eq!(t.indirection(), &skew[..]);
        assert_eq!(t.queue_for(95), 0);
        assert_eq!(t.queue_for(96), 1);
    }

    #[test]
    fn error_display() {
        assert!(RssError::BadQueueCount { queues: 0 }
            .to_string()
            .contains("0"));
        assert!(RssError::BadTableSize { len: 3 }
            .to_string()
            .contains("128"));
        assert!(RssError::BadEntry { index: 9, queue: 8 }
            .to_string()
            .contains("indirection[9]"));
    }
}
