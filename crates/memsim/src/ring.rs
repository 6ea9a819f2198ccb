//! Pinned host ring buffers.
//!
//! Each Norman connection owns a pair of rings (RX and TX) pinned at a
//! fixed physical address range. The NIC produces into RX rings with DMA
//! writes (DDIO-constrained) and the application consumes with CPU reads;
//! the TX direction is symmetric. Every operation walks the descriptor
//! line plus the payload lines through the [`Llc`], so the cost of a ring
//! operation depends on whether that ring's lines are still cache-resident
//! — the mechanism behind the paper's connection-scaling cliff.

use sim::Dur;

use crate::cache::{AccessKind, Llc};
use crate::costs::MemCosts;

/// Errors from ring operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingError {
    /// The ring has no free slots.
    Full,
    /// The payload exceeds the slot size.
    Oversize {
        /// Offered payload length.
        len: usize,
        /// Slot capacity.
        slot: usize,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full"),
            RingError::Oversize { len, slot } => {
                write!(f, "payload of {len} bytes exceeds {slot}-byte slot")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// A fixed-address descriptor + payload ring, carrying one descriptor
/// value of type `T` per occupied slot.
///
/// The ring exchanges *descriptors* — like a real NIC ring, the payload
/// bytes never move through it. The `T` is whatever handle the two ends
/// agree on (the dataplane uses a refcounted arena frame handle); the
/// modeled memory cost charges the pinned descriptor and payload-slot
/// addresses, exactly as if the bytes lived in the ring's slot memory.
/// Every produce and consume moves a `T` in and out of its slot record,
/// so `T` should be a handle, not a payload: the dataplane's is 40
/// bytes (`norman`'s `RxDesc`), its record 48.
/// [`HostRing`] is the descriptor-free alias used where only the charge
/// model matters.
#[derive(Clone, Debug)]
pub struct DescRing<T> {
    base_addr: u64,
    slots: usize,
    slot_bytes: usize,
    /// Producer index (free-running).
    head: u64,
    /// Consumer index (free-running).
    tail: u64,
    /// Per slot: the payload's length and, while occupied, the
    /// descriptor riding in it.
    recs: Vec<(u32, Option<T>)>,
    enqueued: u64,
    dequeued: u64,
    full_drops: u64,
    /// Where this ring's lines were last seen in the LLC: `stride`
    /// way-slot entries per slot for [`Llc::access_lines_memo`], entry 0
    /// the descriptor's line (the base address is descriptor-aligned, so
    /// a 16-byte descriptor sits in one line) and entries 1.. the
    /// payload's lines from the slot's address up. An entry belongs to a
    /// line, not to a frame: a shorter payload walks a prefix of the
    /// slot's entries and leaves the rest as they were for the next long
    /// one. Shared by the slot's producer and consumer.
    ways: Vec<u32>,
    /// Entries per slot: one more than the most lines a payload carried
    /// by this ring has spanned (see [`DescRing::grow`]).
    stride: usize,
}

/// A ring that models memory cost only, with no descriptor payload.
pub type HostRing = DescRing<()>;

impl<T> DescRing<T> {
    /// Descriptor size per slot (one 16-byte descriptor; a 64-byte line
    /// holds four).
    pub const DESC_BYTES: u64 = 16;

    /// Creates a ring of `slots` slots of `slot_bytes` each, pinned at
    /// `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `slot_bytes` is zero, if `slot_bytes` exceeds
    /// `u32::MAX` (a slot's payload length is stored as a `u32`), or if
    /// `base_addr` is not a multiple of [`DescRing::DESC_BYTES`] (a
    /// descriptor must not straddle a cache line).
    pub fn new(base_addr: u64, slots: usize, slot_bytes: usize) -> DescRing<T> {
        assert!(slots > 0, "ring needs at least one slot");
        assert!(slot_bytes > 0, "slots need nonzero capacity");
        assert!(
            slot_bytes <= u32::MAX as usize,
            "a {slot_bytes}-byte slot's length does not fit a u32"
        );
        assert!(
            base_addr.is_multiple_of(Self::DESC_BYTES),
            "ring base {base_addr:#x} is not descriptor-aligned"
        );
        DescRing {
            base_addr,
            slots,
            slot_bytes,
            head: 0,
            tail: 0,
            recs: (0..slots).map(|_| (0, None)).collect(),
            enqueued: 0,
            dequeued: 0,
            full_drops: 0,
            ways: vec![u32::MAX; slots * 2],
            stride: 2,
        }
    }

    /// Returns the total pinned footprint in bytes (descriptors +
    /// payload slots), i.e. the working set this ring contributes to the
    /// DDIO share.
    #[cfg(test)]
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.slots as u64 * (Self::DESC_BYTES + self.slot_bytes as u64)
    }

    /// Returns the number of occupied slots.
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// Returns `true` if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Returns `true` if every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len() == self.slots
    }

    /// Returns (enqueued, dequeued, drops-due-to-full) counters.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.enqueued, self.dequeued, self.full_drops)
    }

    /// Maps a free-running index to its slot. Computed once per
    /// operation — the modulo is a hardware divide, and three of them
    /// per ring op showed up in profiles.
    fn slot_of(&self, index: u64) -> usize {
        (index % self.slots as u64) as usize
    }

    fn desc_addr(&self, slot: usize) -> u64 {
        self.base_addr + slot as u64 * Self::DESC_BYTES
    }

    fn slot_addr(&self, slot: usize) -> u64 {
        self.base_addr + self.slots as u64 * Self::DESC_BYTES + slot as u64 * self.slot_bytes as u64
    }

    /// Walks the descriptor line and the lines of a `len`-byte payload
    /// of `slot` through the LLC, returning the memory cost. An empty
    /// payload still touches the slot's first line.
    fn touch(
        &mut self,
        slot: usize,
        len: usize,
        kind: AccessKind,
        llc: &mut Llc,
        costs: &MemCosts,
    ) -> Dur {
        let desc_line = llc.line_of(self.desc_addr(slot));
        let data_addr = self.slot_addr(slot);
        let data_line = llc.line_of(data_addr);
        let lines = (llc.line_of(data_addr + len.max(1) as u64 - 1) - data_line) as usize + 1;
        if lines >= self.stride {
            self.grow(lines + 1);
        }
        let entries = &mut self.ways[slot * self.stride..][..lines + 1];
        let (desc, data) = entries.split_at_mut(1);
        llc.access_lines_memo(desc_line, kind, costs, desc)
            + llc.access_lines_memo(data_line, kind, costs, data)
    }

    /// Re-lays the residency table out with `stride` entries per slot,
    /// keeping what each slot already knows. A ring of short frames never
    /// pays for the entries a full slot would need; one that meets a
    /// longer frame pays one copy per new longest length.
    fn grow(&mut self, stride: usize) {
        let mut ways = vec![u32::MAX; self.slots * stride];
        let rows = ways.chunks_exact_mut(stride);
        for (row, old) in rows.zip(self.ways.chunks_exact(self.stride)) {
            row[..self.stride].copy_from_slice(old);
        }
        self.ways = ways;
        self.stride = stride;
    }

    /// Produces a descriptor for a payload of `len` bytes into the ring
    /// via DMA (the NIC side), returning the memory cost. A refused
    /// descriptor (full ring, oversize payload) is dropped — for a
    /// refcounted handle that releases its buffer, which is exactly
    /// what a NIC drop does.
    pub fn produce_dma_with(
        &mut self,
        desc: T,
        len: usize,
        llc: &mut Llc,
        costs: &MemCosts,
    ) -> Result<Dur, RingError> {
        self.produce_with(desc, len, llc, costs, AccessKind::DmaWrite)
    }

    /// Produces a descriptor via DMA that bypasses DDIO allocation — the
    /// kernel-directed placement for demoted (cold-tier) flows, whose
    /// rings must not consume the LLC ways hot traffic depends on. The
    /// producer pays DRAM latency on cold lines; in exchange the hot
    /// rings' residency is untouched.
    pub fn produce_dma_bypass_with(
        &mut self,
        desc: T,
        len: usize,
        llc: &mut Llc,
        costs: &MemCosts,
    ) -> Result<Dur, RingError> {
        self.produce_with(desc, len, llc, costs, AccessKind::DmaWriteBypass)
    }

    /// Produces a descriptor via CPU stores (the application TX side).
    pub fn produce_cpu_with(
        &mut self,
        desc: T,
        len: usize,
        llc: &mut Llc,
        costs: &MemCosts,
    ) -> Result<Dur, RingError> {
        self.produce_with(desc, len, llc, costs, AccessKind::CpuWrite)
    }

    fn produce_with(
        &mut self,
        desc: T,
        len: usize,
        llc: &mut Llc,
        costs: &MemCosts,
        kind: AccessKind,
    ) -> Result<Dur, RingError> {
        if len > self.slot_bytes {
            return Err(RingError::Oversize {
                len,
                slot: self.slot_bytes,
            });
        }
        if self.is_full() {
            self.full_drops += 1;
            return Err(RingError::Full);
        }
        let slot = self.slot_of(self.head);
        let cost = self.touch(slot, len, kind, llc, costs);
        // `len <= slot_bytes`, which `new` bounded by `u32::MAX`.
        self.recs[slot] = (len as u32, Some(desc));
        self.head += 1;
        self.enqueued += 1;
        Ok(cost)
    }

    /// Consumes the oldest slot via CPU loads (the application RX
    /// side), returning `(descriptor, len, cost)`.
    pub fn consume_cpu_desc(&mut self, llc: &mut Llc, costs: &MemCosts) -> Option<(T, usize, Dur)> {
        self.consume(llc, costs, AccessKind::CpuRead)
    }

    /// Consumes the oldest slot via DMA reads (the NIC TX side),
    /// returning `(descriptor, len, cost)`.
    pub fn consume_dma_desc(&mut self, llc: &mut Llc, costs: &MemCosts) -> Option<(T, usize, Dur)> {
        self.consume(llc, costs, AccessKind::DmaRead)
    }

    /// Consumes the oldest payload via DMA reads, discarding the
    /// descriptor.
    pub fn consume_dma(&mut self, llc: &mut Llc, costs: &MemCosts) -> Option<(usize, Dur)> {
        self.consume(llc, costs, AccessKind::DmaRead)
            .map(|(_, len, cost)| (len, cost))
    }

    fn consume(
        &mut self,
        llc: &mut Llc,
        costs: &MemCosts,
        kind: AccessKind,
    ) -> Option<(T, usize, Dur)> {
        if self.is_empty() {
            return None;
        }
        let slot = self.slot_of(self.tail);
        let len = self.recs[slot].0 as usize;
        let cost = self.touch(slot, len, kind, llc, costs);
        let desc = self.recs[slot]
            .1
            .take()
            .expect("occupied slot without a descriptor");
        self.tail += 1;
        self.dequeued += 1;
        Some((desc, len, cost))
    }

    /// Iterates over the descriptors of the occupied slots, oldest
    /// first (audit/ledger walks; no modeled cost).
    pub fn iter_descs(&self) -> impl Iterator<Item = &T> {
        (self.tail..self.head).filter_map(move |idx| self.recs[self.slot_of(idx)].1.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LlcConfig;

    fn llc() -> Llc {
        Llc::new(LlcConfig::xeon_default())
    }

    #[test]
    fn fifo_order_and_lengths() {
        let mut ring = HostRing::new(0, 4, 2048);
        let mut c = llc();
        let costs = MemCosts::default();
        ring.produce_dma_with((), 100, &mut c, &costs).unwrap();
        ring.produce_dma_with((), 200, &mut c, &costs).unwrap();
        assert_eq!(ring.len(), 2);
        let ((), len, _) = ring.consume_cpu_desc(&mut c, &costs).unwrap();
        assert_eq!(len, 100);
        let ((), len, _) = ring.consume_cpu_desc(&mut c, &costs).unwrap();
        assert_eq!(len, 200);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let mut ring = HostRing::new(0, 2, 64);
        let mut c = llc();
        let costs = MemCosts::default();
        ring.produce_dma_with((), 1, &mut c, &costs).unwrap();
        ring.produce_dma_with((), 1, &mut c, &costs).unwrap();
        assert_eq!(
            ring.produce_dma_with((), 1, &mut c, &costs),
            Err(RingError::Full)
        );
        assert_eq!(ring.counters().2, 1);
        // Draining frees a slot.
        ring.consume_cpu_desc(&mut c, &costs);
        assert!(ring.produce_dma_with((), 1, &mut c, &costs).is_ok());
    }

    #[test]
    fn oversize_payload_rejected() {
        let mut ring = HostRing::new(0, 2, 64);
        let mut c = llc();
        let costs = MemCosts::default();
        assert_eq!(
            ring.produce_dma_with((), 65, &mut c, &costs),
            Err(RingError::Oversize { len: 65, slot: 64 })
        );
    }

    #[test]
    #[should_panic(expected = "not descriptor-aligned")]
    fn unaligned_base_is_refused() {
        let _ = HostRing::new(8, 2, 64);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit a u32")]
    fn slot_longer_than_a_u32_is_refused() {
        let _ = HostRing::new(0, 1, u32::MAX as usize + 1);
    }

    /// Once a slot's lines are resident and the ring knows where, no
    /// frame length makes the model hash a set or scan its ways again: a
    /// residency entry belongs to a line, not to the last frame's shape.
    #[test]
    #[cfg(debug_assertions)]
    fn mixed_lengths_walk_no_set_once_warm() {
        let costs = MemCosts::default();
        let mut c = llc();
        let mut ring = HostRing::new(1 << 12, 2, 2048);
        for _ in 0..2 {
            ring.produce_cpu_with((), 1500, &mut c, &costs).unwrap();
            ring.consume_dma(&mut c, &costs).unwrap();
        }
        let warm = c.set_scans();
        let lens = [64, 256, 1024, 1500].into_iter().cycle().take(1000);
        for len in lens.clone() {
            ring.produce_cpu_with((), len, &mut c, &costs).unwrap();
            ring.consume_dma(&mut c, &costs).unwrap();
        }
        assert_eq!(c.set_scans(), warm, "a CPU producer rescanned a set");
        // A bypassing DMA write allocates nothing, but the lines are
        // resident and proven, so it has nothing to look up either.
        for len in lens {
            ring.produce_dma_bypass_with((), len, &mut c, &costs)
                .unwrap();
            ring.consume_cpu_desc(&mut c, &costs).unwrap();
        }
        assert_eq!(c.set_scans(), warm, "a bypassing producer rescanned a set");
    }

    #[test]
    fn consume_empty_is_none() {
        let mut ring = HostRing::new(0, 2, 64);
        let mut c = llc();
        assert!(ring
            .consume_cpu_desc(&mut c, &MemCosts::default())
            .is_none());
    }

    #[test]
    fn hot_ring_is_cheaper_than_cold() {
        let costs = MemCosts::default();
        let mut c = llc();
        let mut ring = HostRing::new(0, 64, 2048);
        // Warm up: first pass faults every line in.
        let cold = ring.produce_dma_with((), 1500, &mut c, &costs).unwrap();
        ring.consume_cpu_desc(&mut c, &costs);
        // Wrap fully around so the same slot is reused while hot.
        for _ in 0..64 {
            ring.produce_dma_with((), 1500, &mut c, &costs).unwrap();
            ring.consume_cpu_desc(&mut c, &costs);
        }
        let hot = ring.produce_dma_with((), 1500, &mut c, &costs).unwrap();
        assert!(hot < cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn consumer_hits_when_ddio_holds_the_ring() {
        let costs = MemCosts::default();
        let mut c = llc();
        let mut ring = HostRing::new(0, 16, 2048);
        ring.produce_dma_with((), 2048, &mut c, &costs).unwrap();
        c.reset_stats();
        ring.consume_cpu_desc(&mut c, &costs);
        let s = c.stats();
        assert_eq!(
            s.cpu_misses, 0,
            "consumer should hit DDIO-resident lines: {s:?}"
        );
    }

    #[test]
    fn many_rings_thrash_ddio_but_few_do_not() {
        // With the Xeon default (4 MiB DDIO share) and 4 KiB per ring,
        // 256 rings fit comfortably; 4096 rings do not.
        let costs = MemCosts::default();
        let run = |nrings: u64| -> f64 {
            let mut c = llc();
            let ring_footprint = 8 << 10;
            let mut rings: Vec<HostRing> = (0..nrings)
                .map(|i| HostRing::new(i * ring_footprint, 2, 2048))
                .collect();
            // Produce into every ring, then consume from every ring — the
            // NIC runs ahead of the application, as under load. Measure
            // the second pass (steady state).
            for pass in 0..2 {
                if pass == 1 {
                    c.reset_stats();
                }
                for ring in &mut rings {
                    ring.produce_dma_with((), 1500, &mut c, &costs).unwrap();
                }
                for ring in &mut rings {
                    ring.consume_cpu_desc(&mut c, &costs);
                }
            }
            c.stats().cpu_hit_rate()
        };
        let few = run(128);
        let many = run(4096);
        assert!(few > 0.95, "few rings hit rate {few}");
        // 4096 rings oversubscribe the DDIO share ~1.6x; with hashed set
        // indexing the miss rate is substantial but not total.
        assert!(many < 0.75, "many rings hit rate {many}");
        assert!(few - many > 0.2, "thrash gap: few {few}, many {many}");
    }

    #[test]
    fn bypass_produce_spares_hot_rings() {
        let costs = MemCosts::default();
        // Tiny LLC so residency is easy to reason about: bypass traffic
        // over a huge address range must not degrade a hot ring's hits.
        let mut c = Llc::new(LlcConfig {
            size_bytes: 64 * 16 * 64,
            ways: 16,
            ddio_ways: 2,
            line_bytes: 64,
            hash_sets: true,
        });
        let mut hot = HostRing::new(0, 2, 2048);
        // Warm the hot ring, then record its steady-state cost.
        for _ in 0..4 {
            hot.produce_dma_with((), 1500, &mut c, &costs).unwrap();
            hot.consume_cpu_desc(&mut c, &costs).unwrap();
        }
        let before = {
            hot.produce_dma_with((), 1500, &mut c, &costs).unwrap();
            let ((), _, consume) = hot.consume_cpu_desc(&mut c, &costs).unwrap();
            consume
        };
        // A storm of cold-flow traffic through bypassing rings: it cannot
        // allocate, so it cannot displace one line of the hot ring.
        let mut cold_rings: Vec<HostRing> = (1..512)
            .map(|i| HostRing::new(i * (8 << 10), 2, 2048))
            .collect();
        for ring in &mut cold_rings {
            ring.produce_dma_bypass_with((), 1500, &mut c, &costs)
                .unwrap();
        }
        let after = {
            hot.produce_dma_with((), 1500, &mut c, &costs).unwrap();
            let ((), _, consume) = hot.consume_cpu_desc(&mut c, &costs).unwrap();
            consume
        };
        assert_eq!(after, before, "bypass storm displaced hot-ring lines");
        // Whereas the same storm through allocating DMA does displace it.
        for ring in &mut cold_rings {
            ring.consume_cpu_desc(&mut c, &costs).unwrap();
            ring.produce_dma_with((), 1500, &mut c, &costs).unwrap();
        }
        let thrashed = {
            hot.produce_dma_with((), 1500, &mut c, &costs).unwrap();
            let ((), _, consume) = hot.consume_cpu_desc(&mut c, &costs).unwrap();
            consume
        };
        assert!(thrashed > after, "allocating storm should thrash");
        assert!(c.stats().ddio_evictions > 0);
    }

    #[test]
    fn descriptors_ride_the_ring_in_fifo_order() {
        let mut ring: DescRing<&'static str> = DescRing::new(0, 4, 2048);
        let mut c = llc();
        let costs = MemCosts::default();
        ring.produce_dma_with("first", 100, &mut c, &costs).unwrap();
        ring.produce_cpu_with("second", 200, &mut c, &costs)
            .unwrap();
        assert_eq!(
            ring.iter_descs().copied().collect::<Vec<_>>(),
            ["first", "second"]
        );
        let (d, len, _) = ring.consume_cpu_desc(&mut c, &costs).unwrap();
        assert_eq!((d, len), ("first", 100));
        let (d, len, _) = ring.consume_dma_desc(&mut c, &costs).unwrap();
        assert_eq!((d, len), ("second", 200));
        assert!(ring.is_empty());
        assert_eq!(ring.iter_descs().count(), 0);
    }

    #[test]
    fn refused_descriptor_is_dropped() {
        // A produce refusal must release the descriptor (for refcounted
        // handles, that frees the buffer — a real drop).
        let mut ring: DescRing<std::sync::Arc<u8>> = DescRing::new(0, 1, 64);
        let mut c = llc();
        let costs = MemCosts::default();
        let held = std::sync::Arc::new(7u8);
        ring.produce_dma_with(std::sync::Arc::clone(&held), 1, &mut c, &costs)
            .unwrap();
        ring.produce_dma_with(std::sync::Arc::clone(&held), 1, &mut c, &costs)
            .unwrap_err();
        // ring holds 1, we hold 1; the refused clone is gone.
        assert_eq!(std::sync::Arc::strong_count(&held), 2);
    }

    #[test]
    fn descriptor_ring_charges_exactly_like_host_ring() {
        // The descriptor payload must not perturb the memory model: a
        // DescRing<T> and a HostRing driven identically produce
        // identical costs, hit rates, and counters (this is what keeps
        // replay byte-identical across the representation change).
        let costs = MemCosts::default();
        let mut c1 = llc();
        let mut c2 = llc();
        let mut plain: HostRing = HostRing::new(4096, 8, 2048);
        let mut carrying: DescRing<Vec<u8>> = DescRing::new(4096, 8, 2048);
        for i in 0..32usize {
            let len = 64 + (i * 97) % 1400;
            let a = plain.produce_dma_with((), len, &mut c1, &costs).unwrap();
            let b = carrying
                .produce_dma_with(vec![0u8; len], len, &mut c2, &costs)
                .unwrap();
            assert_eq!(a, b, "produce cost diverged at {i}");
            if i % 3 == 0 || plain.is_full() {
                let ((), la, ca) = plain.consume_cpu_desc(&mut c1, &costs).unwrap();
                let (_, lb, cb) = carrying.consume_cpu_desc(&mut c2, &costs).unwrap();
                assert_eq!((la, ca), (lb, cb), "consume cost diverged at {i}");
            }
        }
        assert_eq!(plain.counters(), carrying.counters());
        assert_eq!(c1.stats(), c2.stats());
    }

    #[test]
    fn footprint_accounts_descriptors_and_slots() {
        let ring = HostRing::new(0, 128, 2048);
        assert_eq!(ring.footprint_bytes(), 128 * (16 + 2048));
    }

    #[test]
    fn error_display() {
        assert_eq!(RingError::Full.to_string(), "ring full");
        assert!(RingError::Oversize { len: 9, slot: 4 }
            .to_string()
            .contains("9 bytes"));
    }
}
