//! A set-associative LLC with a DDIO way mask.
//!
//! DMA writes may only allocate into the first `ddio_ways` ways of each
//! set, mirroring Intel DDIO's restriction to a fixed subset of LLC ways.
//! CPU accesses allocate anywhere. Replacement is LRU within the ways the
//! access class is allowed to use; hits anywhere refresh recency.

use sim::Dur;

use crate::costs::MemCosts;

/// Who is touching memory, and how.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// CPU load.
    CpuRead,
    /// CPU store.
    CpuWrite,
    /// Device DMA write (DDIO-constrained allocation).
    DmaWrite,
    /// Device DMA write that deliberately bypasses DDIO allocation: it
    /// updates a line already resident (hit) but never allocates on a
    /// miss, going straight to DRAM. The kernel uses this for demoted
    /// (cold-tier) flows so their rings cannot thrash the DDIO ways that
    /// hot traffic depends on.
    DmaWriteBypass,
    /// Device DMA read.
    DmaRead,
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and fetched/allocated.
    Miss,
}

/// LLC geometry.
#[derive(Clone, Debug)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub(crate) size_bytes: u64,
    /// Associativity.
    pub(crate) ways: u32,
    /// Ways DMA writes may allocate into (the DDIO share). Zero disables
    /// DDIO entirely: every DMA write goes to DRAM.
    pub(crate) ddio_ways: u32,
    /// Line size in bytes.
    pub(crate) line_bytes: u64,
    /// Hash line addresses into sets (modern sliced LLCs with complex
    /// addressing) instead of simple modulo indexing. Hashing avoids the
    /// artificial page-color conflicts modulo indexing fabricates for
    /// page-aligned buffers; turn it off only for tests that need to
    /// construct set collisions deterministically.
    pub(crate) hash_sets: bool,
}

impl LlcConfig {
    /// A 32 MiB, 16-way LLC with 2 DDIO ways — the configuration whose
    /// DDIO share (4 MiB) is outgrown at ~1024 connections with 4 KiB of
    /// ring per connection, matching the paper's observed cliff.
    pub fn xeon_default() -> LlcConfig {
        LlcConfig {
            size_bytes: 32 << 20,
            ways: 16,
            ddio_ways: 2,
            line_bytes: 64,
            hash_sets: true,
        }
    }

    /// The same LLC with DDIO allowed to use every way — the ablation that
    /// removes the paper's suspected bottleneck.
    pub fn unlimited_ddio() -> LlcConfig {
        LlcConfig {
            ddio_ways: 16,
            ..LlcConfig::xeon_default()
        }
    }

    /// Returns the number of sets.
    pub(crate) fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / u64::from(self.ways)
    }

    /// Returns the capacity DMA writes can occupy, in bytes.
    pub fn ddio_capacity(&self) -> u64 {
        self.size_bytes * u64::from(self.ddio_ways) / u64::from(self.ways)
    }
}

/// Per-kind hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// CPU hits.
    pub cpu_hits: u64,
    /// CPU misses.
    pub cpu_misses: u64,
    /// DMA-write DDIO hits/allocations.
    pub dma_hits: u64,
    /// DMA-write DRAM fallbacks.
    pub dma_misses: u64,
    /// Valid lines evicted by DMA-write allocations — the direct measure
    /// of DDIO thrash (§5's cliff mechanism).
    pub ddio_evictions: u64,
}

impl LlcStats {
    /// CPU hit rate in `[0, 1]`, or 1.0 with no accesses.
    #[cfg(test)]
    pub(crate) fn cpu_hit_rate(&self) -> f64 {
        let total = self.cpu_hits + self.cpu_misses;
        if total == 0 {
            1.0
        } else {
            self.cpu_hits as f64 / total as f64
        }
    }

    /// Accumulates another stats block (merging per-shard partitions).
    pub fn absorb(&mut self, other: &LlcStats) {
        self.cpu_hits += other.cpu_hits;
        self.cpu_misses += other.cpu_misses;
        self.dma_hits += other.dma_hits;
        self.dma_misses += other.dma_misses;
        self.ddio_evictions += other.ddio_evictions;
    }
}

/// A way-partitioned split of one physical LLC across worker shards: each
/// shard receives a private slice of the associativity (and of the DDIO
/// way budget), so one shard's ring working set cannot evict another's —
/// the kernel arbitrating cache ways exactly as it arbitrates SRAM. The
/// plan is the audited source of truth: shard geometries must sum back to
/// the donor cache.
#[derive(Clone, Debug)]
pub struct LlcPartitionPlan {
    total: LlcConfig,
    shards: Vec<LlcConfig>,
}

impl LlcPartitionPlan {
    /// Carves `total` into `n` way-disjoint partitions. Ways divide
    /// evenly with the remainder going to the low-index shards; every
    /// shard keeps the donor's set count and line size, so a 1-way split
    /// is the donor geometry unchanged.
    ///
    /// DDIO ways divide the same way but are floored at one per shard
    /// (when the donor has any): the kernel reprograms the IIO way mask
    /// per partition, so every shard dedicates at least one of *its own*
    /// ways to inbound DMA. Without the floor, carving 2 DDIO ways into
    /// 4 shards would leave half the shards with no DMA-allocatable ways
    /// at all, sending their ring traffic straight to DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the donor's associativity.
    pub fn split(total: LlcConfig, n: usize) -> LlcPartitionPlan {
        assert!(n > 0, "need at least one shard");
        assert!(
            n as u32 <= total.ways,
            "cannot give {n} shards way-disjoint slices of {} ways",
            total.ways
        );
        let sets = total.sets();
        let n32 = n as u32;
        let shards = (0..n32)
            .map(|i| {
                let ways = total.ways / n32 + u32::from(i < total.ways % n32);
                let ddio_ways = (total.ddio_ways / n32 + u32::from(i < total.ddio_ways % n32))
                    .max(u32::from(total.ddio_ways > 0));
                LlcConfig {
                    size_bytes: sets * total.line_bytes * u64::from(ways),
                    ways,
                    ddio_ways,
                    line_bytes: total.line_bytes,
                    hash_sets: total.hash_sets,
                }
            })
            .collect();
        LlcPartitionPlan { total, shards }
    }

    /// The per-shard partitions, in shard order.
    pub fn shards(&self) -> &[LlcConfig] {
        &self.shards
    }

    /// The partition of shard `i`.
    #[cfg(test)]
    pub(crate) fn shard(&self, i: usize) -> &LlcConfig {
        &self.shards[i]
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Conservation audit: the shard slices must exactly repartition the
    /// donor's ways and (set-aligned) capacity, and the per-shard DDIO
    /// masks must sum to the donor's budget floored at one way per shard
    /// (see [`LlcPartitionPlan::split`]).
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let ways: u32 = self.shards.iter().map(|s| s.ways).sum();
        if ways != self.total.ways {
            violations.push(format!(
                "llc plan: shard ways sum {ways} != donor {}",
                self.total.ways
            ));
        }
        let ddio: u32 = self.shards.iter().map(|s| s.ddio_ways).sum();
        let want_ddio = if self.total.ddio_ways == 0 {
            0
        } else {
            self.total.ddio_ways.max(self.shards.len() as u32)
        };
        if ddio != want_ddio {
            violations.push(format!(
                "llc plan: shard DDIO ways sum {ddio} != floored donor budget {want_ddio}"
            ));
        }
        for (i, s) in self.shards.iter().enumerate() {
            if self.total.ddio_ways > 0 && s.ddio_ways == 0 {
                violations.push(format!("llc plan: shard {i} lost its DDIO way"));
            }
            if s.ddio_ways > s.ways {
                violations.push(format!(
                    "llc plan: shard {i} DDIO mask {} exceeds its {} ways",
                    s.ddio_ways, s.ways
                ));
            }
        }
        let bytes: u64 = self.shards.iter().map(|s| s.size_bytes).sum();
        let donor = self.total.sets() * self.total.line_bytes * u64::from(self.total.ways);
        if bytes != donor {
            violations.push(format!(
                "llc plan: shard capacity sum {bytes} != donor {donor}"
            ));
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.sets() != self.total.sets() {
                violations.push(format!(
                    "llc plan: shard {i} has {} sets, donor {}",
                    s.sets(),
                    self.total.sets()
                ));
            }
        }
        violations
    }
}

/// Asks the kernel to back a buffer with transparent huge pages. The
/// model's way-slot array spans megabytes and is indexed by hashed set,
/// so with 4 KiB pages nearly every modeled access is also a real dTLB
/// miss; 2 MiB pages remove that. Purely an optimization — errors are
/// ignored and the call is skipped off Linux and under miri (no FFI).
#[allow(unused_variables)]
fn advise_huge_pages(addr: *const u8, len: usize) {
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        const PAGE: usize = 4096;
        let start = addr as usize & !(PAGE - 1);
        let end = (addr as usize + len + PAGE - 1) & !(PAGE - 1);
        // SAFETY: the range covers pages of a live allocation we own;
        // MADV_HUGEPAGE only tunes its backing, never its contents.
        unsafe {
            madvise(start as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE);
        }
    }
}

/// One way slot of the modeled cache: the resident line's address (the
/// tag) and its LRU recency stamp, packed together so the hit path's
/// read-tag/stamp-recency pair lands in one real cache line.
#[derive(Clone, Copy, Debug)]
struct LineSlot {
    tag: u64,
    last_use: u64,
}

impl LineSlot {
    /// An empty slot. `u64::MAX` is unreachable as a tag for any line
    /// size above one byte, which [`Llc::new`] insists on (and the
    /// validity bitmask, not the sentinel, remains the authority in the
    /// scan and victim paths).
    const EMPTY: LineSlot = LineSlot {
        tag: u64::MAX,
        last_use: 0,
    };
}

/// The last-level cache model.
///
/// One `LineSlot` (tag + recency stamp, 16 bytes) per way, set-major in
/// one array, beside a validity bitmask and a most-recently-touched way
/// hint per set. The hint short-circuits the way scan for the dominant
/// re-touch case and the bitmask drives the scan and the victim choice;
/// neither changes a modeled outcome: valid tags within a set are
/// unique, so the hinted hit is the hit the scan would find, and the
/// victim is the lowest invalid way the access class may allocate into,
/// else the least recently used of those ways. Callers that touch fixed
/// lines over and over (rings) hold a way-slot index per line and go
/// through `Llc::access_lines_memo`, which says what such an entry may
/// and may not skip.
pub struct Llc {
    cfg: LlcConfig,
    sets: u64,
    ways: usize,
    /// Tag + recency per way slot, `sets * ways` long, set-major. The
    /// pair shares one 16-byte slot so the dominant hit path (read tag,
    /// stamp recency) touches a single real cache line instead of two
    /// parallel arrays.
    lines: Vec<LineSlot>,
    /// Per-set validity bitmask (way `w` valid iff bit `w` set).
    valid: Vec<u64>,
    /// Per-set most-recently-touched way hint.
    mru: Vec<u8>,
    /// `log2(line_bytes)` when the line size is a power of two, turning
    /// the per-access division into a shift (identical quotients).
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two, turning the set
    /// modulo into a mask (identical remainders).
    set_mask: Option<u64>,
    clock: u64,
    stats: LlcStats,
    /// Calls of `Llc::access_line`, i.e. set hashes + way scans.
    #[cfg(debug_assertions)]
    set_scans: u64,
}

impl Llc {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways, lines
    /// under two bytes, `ddio_ways > ways`, or associativity above the
    /// 64 ways the per-set validity bitmask can represent) or has
    /// `u32::MAX` way slots or more: a way-slot index is a `u32`, and
    /// `u32::MAX` is the residency entry for "unknown"
    /// (`Llc::access_lines_memo`).
    pub fn new(cfg: LlcConfig) -> Llc {
        assert!(cfg.ways > 0, "cache needs at least one way");
        assert!(cfg.ways <= 64, "associativity above 64 is unsupported");
        assert!(cfg.ddio_ways <= cfg.ways, "DDIO ways exceed associativity");
        // With one-byte lines `u64::MAX`, the tag of an empty way, would
        // be a line address.
        assert!(cfg.line_bytes > 1, "lines need at least two bytes");
        let sets = cfg.sets();
        assert!(sets > 0, "cache smaller than one set");
        let slots = sets * u64::from(cfg.ways);
        assert!(
            slots < u64::from(u32::MAX),
            "{slots} way slots do not fit a u32 way-slot index"
        );
        let slots = slots as usize;
        let lines = vec![LineSlot::EMPTY; slots];
        advise_huge_pages(
            lines.as_ptr() as *const u8,
            std::mem::size_of_val(&lines[..]),
        );
        Llc {
            sets,
            ways: cfg.ways as usize,
            lines,
            valid: vec![0; sets as usize],
            mru: vec![0; sets as usize],
            line_shift: cfg
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.line_bytes.trailing_zeros()),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            clock: 0,
            cfg,
            stats: LlcStats::default(),
            #[cfg(debug_assertions)]
            set_scans: 0,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// How many times a set was hashed and its ways scanned — once per
    /// line access that no residency entry proved
    /// ([`Llc::access_lines_memo`]). Debug builds only, like
    /// `pkt::meta::derive_count`.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn set_scans(&self) -> u64 {
        self.set_scans
    }

    /// Resets statistics (the cache contents are retained).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }

    /// Every way of every set as `(tag, last_use)`, `None` where invalid
    /// — the whole residency and recency state, for the model to compare.
    #[cfg(test)]
    fn dump(&self) -> Vec<Vec<Option<(u64, u64)>>> {
        let way = |set: usize, w: usize| {
            let l = self.lines[set * self.ways + w];
            (self.valid[set] >> w & 1 == 1).then_some((l.tag, l.last_use))
        };
        (0..self.sets as usize)
            .map(|set| (0..self.ways).map(|w| way(set, w)).collect())
            .collect()
    }

    /// Line address of `addr`: the division is a shift for power-of-two
    /// line sizes. The line address doubles as the tag — simpler than
    /// stripping set bits and correct under hashed indexing.
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.line_bytes,
        }
    }

    fn set_of(&self, line: u64) -> u64 {
        let x = if self.cfg.hash_sets {
            // SplitMix64 finalizer: decorrelates page-aligned buffers the
            // way sliced complex addressing does on real parts.
            let mut x = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x
        } else {
            line
        };
        match self.set_mask {
            Some(m) => x & m,
            None => x % self.sets,
        }
    }

    /// The hit counter `kind` is counted under.
    fn hits_mut(&mut self, kind: AccessKind) -> &mut u64 {
        match kind {
            AccessKind::CpuRead | AccessKind::CpuWrite | AccessKind::DmaRead => {
                &mut self.stats.cpu_hits
            }
            AccessKind::DmaWrite | AccessKind::DmaWriteBypass => &mut self.stats.dma_hits,
        }
    }

    /// Touches the single cache line containing `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.access_line(self.line_of(addr), kind).0
    }

    /// Touches the line with line address (= tag) `tag`, returning the
    /// outcome and the way slot (`set * ways + way`) now holding the
    /// line — `None` when the access did not leave it cached (a
    /// no-allocate DMA miss).
    fn access_line(&mut self, tag: u64, kind: AccessKind) -> (AccessOutcome, Option<u32>) {
        self.clock += 1;
        #[cfg(debug_assertions)]
        {
            self.set_scans += 1;
        }
        let set = self.set_of(tag) as usize;
        let base = set * self.ways;
        let vmask = self.valid[set];

        // Hit anywhere in the set. The MRU hint catches the dominant
        // re-touch case without scanning; valid tags within a set are
        // unique, so hint and scan can only find the same line.
        let hint = self.mru[set] as usize;
        let hit_way = if vmask >> hint & 1 == 1 && self.lines[base + hint].tag == tag {
            Some(hint)
        } else {
            let mut m = vmask;
            loop {
                if m == 0 {
                    break None;
                }
                let w = m.trailing_zeros() as usize;
                if self.lines[base + w].tag == tag {
                    break Some(w);
                }
                m &= m - 1;
            }
        };
        if let Some(w) = hit_way {
            self.lines[base + w].last_use = self.clock;
            self.mru[set] = w as u8;
            *self.hits_mut(kind) += 1;
            return (AccessOutcome::Hit, Some((base + w) as u32));
        }

        // Miss: allocate within the ways this access class may use.
        let alloc_ways = match kind {
            AccessKind::DmaWrite => self.cfg.ddio_ways as usize,
            // A bypassing DMA write never allocates: straight to DRAM.
            AccessKind::DmaWriteBypass => 0,
            _ => self.ways,
        };
        match kind {
            AccessKind::CpuRead | AccessKind::CpuWrite | AccessKind::DmaRead => {
                self.stats.cpu_misses += 1
            }
            AccessKind::DmaWrite | AccessKind::DmaWriteBypass => self.stats.dma_misses += 1,
        }
        if alloc_ways == 0 {
            // DDIO disabled (or deliberately bypassed): the write goes
            // straight to DRAM, nothing cached.
            return (AccessOutcome::Miss, None);
        }
        // Victim: the lowest-index invalid way if any, else LRU — the
        // same order the original min-by-(valid ? last_use : 0) scan
        // produced, since live stamps start at 1.
        let allowed = if alloc_ways == 64 {
            u64::MAX
        } else {
            (1u64 << alloc_ways) - 1
        };
        let invalid = !vmask & allowed;
        let victim = if invalid != 0 {
            invalid.trailing_zeros() as usize
        } else {
            self.stats.ddio_evictions += u64::from(kind == AccessKind::DmaWrite);
            let mut best = 0;
            let mut best_use = u64::MAX;
            for w in 0..alloc_ways {
                let u = self.lines[base + w].last_use;
                if u < best_use {
                    best_use = u;
                    best = w;
                }
            }
            best
        };
        self.lines[base + victim] = LineSlot {
            tag,
            last_use: self.clock,
        };
        self.valid[set] = vmask | 1 << victim;
        self.mru[set] = victim as u8;
        (AccessOutcome::Miss, Some((base + victim) as u32))
    }

    /// The latency of one line access: the one `(kind, outcome) → cost`
    /// table.
    fn line_cost(&self, kind: AccessKind, outcome: AccessOutcome, costs: &MemCosts) -> Dur {
        use AccessKind::{DmaWrite, DmaWriteBypass};
        use AccessOutcome::{Hit, Miss};
        match (kind, outcome) {
            (DmaWrite | DmaWriteBypass, Hit) => costs.ddio_hit,
            // No DDIO: the write goes to DRAM.
            (DmaWrite, Miss) if self.cfg.ddio_ways == 0 => costs.dma_dram,
            // Write-allocate into the DDIO ways: no fetch.
            (DmaWrite, Miss) => costs.ddio_alloc,
            // Bypassing writes always pay the DRAM path on a miss.
            (DmaWriteBypass, Miss) => costs.dma_dram,
            (_, Hit) => costs.llc_hit,
            (_, Miss) => costs.dram,
        }
    }

    /// Touches every line in `[addr, addr + len)` and returns the summed
    /// latency under `costs`.
    pub fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, costs: &MemCosts) -> Dur {
        if len == 0 {
            return Dur::ZERO;
        }
        let first = self.line_of(addr);
        let last = self.line_of(addr + len - 1);
        let mut total = Dur::ZERO;
        for line in first..=last {
            let (outcome, _) = self.access_line(line, kind);
            total += self.line_cost(kind, outcome, costs);
        }
        total
    }

    /// Touches the `ways.len()` consecutive lines starting at line address
    /// `first_line`, like [`Llc::access_range`] over the same lines, with
    /// a caller-held residency entry per line: `ways[k]` is the way slot
    /// line `first_line + k` occupied when the caller last touched it
    /// (`u32::MAX` = unknown). For lines touched repeatedly at fixed
    /// addresses (ring slots).
    ///
    /// An entry whose way slot is in bounds and still holds the line's tag
    /// *proves* the line resident — tags are full line addresses, a set
    /// never holds one tag twice, and an empty way holds a tag no line
    /// has. For a proven line the walk may skip the set hash, the way
    /// scan and the refresh of the set's MRU hint (the hint only
    /// accelerates `Llc::access_line`'s scan and is verified by tag
    /// compare before use). It may not skip anything the model observes:
    /// the LRU clock ticks once per line, the line's recency stamp is
    /// that tick, and the hit is counted and charged — clock, counter and
    /// cost batched after the walk, to the same values. Any other entry —
    /// never set, stale because the line was evicted or came back into
    /// another way, or recorded against a different `Llc` — fails the
    /// check, goes through `Llc::access_line` and is recorded again.
    /// One table serves every producer and consumer of its lines:
    /// residency does not depend on [`AccessKind`], which only selects
    /// the counter and the cost. `llc_model.rs` holds this walk to the
    /// plain one and to a naive cache, op by op.
    pub(crate) fn access_lines_memo(
        &mut self,
        first_line: u64,
        kind: AccessKind,
        costs: &MemCosts,
        ways: &mut [u32],
    ) -> Dur {
        // Line `k` of the walk, hit or miss, lands on stamp
        // `clock_base + k + 1`.
        let clock_base = self.clock;
        let mut missed_cost = Dur::ZERO;
        let mut missed: u64 = 0;
        let mut k = 0;
        loop {
            // The run of proven hits makes no call, so its state stays
            // in registers: one load, one compare and one store per line.
            let lines = self.lines.as_mut_slice();
            while let Some(&way) = ways.get(k) {
                let tag = first_line + k as u64;
                match lines.get_mut(way as usize) {
                    Some(l) if l.tag == tag => l.last_use = clock_base + k as u64 + 1,
                    _ => break,
                }
                k += 1;
            }
            let Some(way) = ways.get_mut(k) else { break };
            let tag = first_line + k as u64;
            missed_cost += self.access_unproven(tag, clock_base + k as u64, kind, costs, way);
            missed += 1;
            k += 1;
        }
        self.clock = clock_base + k as u64;
        let proven = k as u64 - missed;
        *self.hits_mut(kind) += proven;
        missed_cost + self.line_cost(kind, AccessOutcome::Hit, costs) * proven
    }

    /// The out-of-line half of [`Llc::access_lines_memo`]: a full
    /// [`Llc::access_line`] at LRU clock `clock`, recording where the
    /// line now lives.
    #[cold]
    #[inline(never)]
    fn access_unproven(
        &mut self,
        tag: u64,
        clock: u64,
        kind: AccessKind,
        costs: &MemCosts,
        way: &mut u32,
    ) -> Dur {
        self.clock = clock;
        let (outcome, slot) = self.access_line(tag, kind);
        *way = slot.unwrap_or(u32::MAX);
        self.line_cost(kind, outcome, costs)
    }
}

#[cfg(test)]
#[path = "llc_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: u32, ddio_ways: u32) -> Llc {
        // 4 sets x `ways` ways x 64B lines, modulo-indexed so tests can
        // construct set collisions with address strides.
        Llc::new(LlcConfig {
            size_bytes: 4 * u64::from(ways) * 64,
            ways,
            ddio_ways,
            line_bytes: 64,
            hash_sets: false,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache(4, 2);
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Miss);
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Hit);
        assert_eq!(c.access(32, AccessKind::CpuRead), AccessOutcome::Hit); // same line
        assert_eq!(c.access(64, AccessKind::CpuRead), AccessOutcome::Miss); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache(2, 2);
        // Two distinct tags mapping to set 0 fill it: addresses are
        // line * sets(4) * 64 apart.
        let stride = 4 * 64;
        c.access(0, AccessKind::CpuRead);
        c.access(stride, AccessKind::CpuRead);
        // Refresh the first, then bring in a third: the second is evicted.
        c.access(0, AccessKind::CpuRead);
        c.access(2 * stride, AccessKind::CpuRead);
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Hit);
        assert_eq!(c.access(stride, AccessKind::CpuRead), AccessOutcome::Miss);
    }

    #[test]
    fn dma_writes_confined_to_ddio_ways() {
        // 4 ways, 1 DDIO way: DMA writes thrash a single way while CPU
        // lines in other ways survive.
        let mut c = small_cache(4, 1);
        let stride = 4 * 64;
        // CPU fills ways with tags A, B, C.
        c.access(0, AccessKind::CpuRead);
        c.access(stride, AccessKind::CpuRead);
        c.access(2 * stride, AccessKind::CpuRead);
        // Two successive DMA writes with different tags must both land in
        // the one DDIO-eligible way (way 0), so the first DMA line is
        // evicted by the second...
        c.access(3 * stride, AccessKind::DmaWrite);
        c.access(4 * stride, AccessKind::DmaWrite);
        assert_eq!(
            c.access(3 * stride, AccessKind::CpuRead),
            AccessOutcome::Miss
        );
        assert_eq!(
            c.access(4 * stride, AccessKind::CpuRead),
            AccessOutcome::Hit
        );
        // ...and CPU lines outside the DDIO ways survive. Tag A happened
        // to occupy way 0 (a DDIO-eligible way, shared with the CPU as on
        // real hardware), so only B and C are guaranteed residents.
        assert_eq!(c.access(stride, AccessKind::CpuRead), AccessOutcome::Hit);
        assert_eq!(
            c.access(2 * stride, AccessKind::CpuRead),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn ddio_disabled_never_caches_dma() {
        let mut c = small_cache(4, 0);
        assert_eq!(c.access(0, AccessKind::DmaWrite), AccessOutcome::Miss);
        assert_eq!(c.access(0, AccessKind::DmaWrite), AccessOutcome::Miss);
        // And the CPU can't find it either.
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Miss);
    }

    #[test]
    fn dma_hit_refreshes_and_is_visible_to_cpu() {
        let mut c = small_cache(4, 2);
        c.access(0, AccessKind::DmaWrite);
        // The CPU read of freshly DMA'd data is the DDIO fast path.
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Hit);
    }

    #[test]
    fn working_set_beyond_ddio_capacity_thrashes() {
        // 64 sets x 16 ways, 2 DDIO ways => DDIO capacity 128 lines.
        let cfg = LlcConfig {
            size_bytes: 64 * 16 * 64,
            ways: 16,
            ddio_ways: 2,
            line_bytes: 64,
            hash_sets: true,
        };
        let mut c = Llc::new(cfg);
        let costs = MemCosts::default();
        // Stream DMA writes over 4x the DDIO capacity, twice.
        let lines = 512u64;
        for pass in 0..2 {
            for i in 0..lines {
                c.access_range(i * 64, 64, AccessKind::DmaWrite, &costs);
            }
            if pass == 0 {
                c.reset_stats();
            }
        }
        let s = c.stats();
        // Second pass: nearly everything misses because the working set
        // does not fit in the DDIO ways.
        assert!(s.dma_misses > s.dma_hits, "stats: {s:?}");
    }

    #[test]
    fn working_set_within_ddio_capacity_hits() {
        // Modulo indexing so "within capacity" is exact rather than
        // probabilistic.
        let cfg = LlcConfig {
            size_bytes: 64 * 16 * 64,
            ways: 16,
            ddio_ways: 2,
            line_bytes: 64,
            hash_sets: false,
        };
        let mut c = Llc::new(cfg);
        let costs = MemCosts::default();
        let lines = 64u64; // half the DDIO capacity
        for pass in 0..2 {
            for i in 0..lines {
                c.access_range(i * 64, 64, AccessKind::DmaWrite, &costs);
            }
            if pass == 0 {
                c.reset_stats();
            }
        }
        let s = c.stats();
        assert_eq!(s.dma_misses, 0, "stats: {s:?}");
    }

    #[test]
    fn access_range_cost_counts_lines() {
        let mut c = small_cache(4, 2);
        let costs = MemCosts::default();
        // 130 bytes starting at 0 touches 3 lines, all cold.
        let cost = c.access_range(0, 130, AccessKind::CpuRead, &costs);
        assert_eq!(cost, costs.dram * 3);
        // Re-reading is 3 hits.
        let cost = c.access_range(0, 130, AccessKind::CpuRead, &costs);
        assert_eq!(cost, costs.llc_hit * 3);
        // Zero length is free.
        assert_eq!(c.access_range(0, 0, AccessKind::CpuRead, &costs), Dur::ZERO);
    }

    #[test]
    fn xeon_default_geometry() {
        let cfg = LlcConfig::xeon_default();
        assert_eq!(cfg.sets(), 32 * 1024 * 1024 / 64 / 16);
        assert_eq!(cfg.ddio_capacity(), 4 << 20);
        let unlimited = LlcConfig::unlimited_ddio();
        assert_eq!(unlimited.ddio_capacity(), 32 << 20);
    }

    #[test]
    #[should_panic(expected = "DDIO ways exceed associativity")]
    fn bad_ddio_config_rejected() {
        let _ = Llc::new(LlcConfig {
            size_bytes: 1 << 20,
            ways: 4,
            ddio_ways: 5,
            line_bytes: 64,
            hash_sets: true,
        });
    }

    #[test]
    #[should_panic(expected = "do not fit a u32 way-slot index")]
    fn more_way_slots_than_a_u32_indexes_rejected() {
        // 2^32 one-way sets; refused before anything is allocated.
        let _ = Llc::new(LlcConfig {
            size_bytes: 64 << 32,
            ways: 1,
            ddio_ways: 1,
            line_bytes: 64,
            hash_sets: true,
        });
    }

    #[test]
    fn bypass_write_never_allocates_but_updates_residents() {
        let mut c = small_cache(4, 2);
        // Cold bypass write: DRAM, nothing cached.
        assert_eq!(c.access(0, AccessKind::DmaWriteBypass), AccessOutcome::Miss);
        assert_eq!(c.access(0, AccessKind::CpuRead), AccessOutcome::Miss);
        // A resident line is updated in place (hit), like real in-cache
        // DMA updates.
        assert_eq!(c.access(0, AccessKind::DmaWriteBypass), AccessOutcome::Hit);
        let s = c.stats();
        assert_eq!((s.dma_hits, s.dma_misses), (1, 1));
        // And it never evicts anything.
        assert_eq!(s.ddio_evictions, 0);
    }

    #[test]
    fn ddio_evictions_counted_per_displaced_line() {
        // One DDIO way: every allocating DMA write past the first evicts
        // the previous occupant of way 0 in that set.
        let mut c = small_cache(4, 1);
        let stride = 4 * 64;
        c.access(0, AccessKind::DmaWrite);
        assert_eq!(c.stats().ddio_evictions, 0);
        c.access(stride, AccessKind::DmaWrite);
        c.access(2 * stride, AccessKind::DmaWrite);
        assert_eq!(c.stats().ddio_evictions, 2);
        // CPU evictions are not DDIO evictions.
        let mut c = small_cache(1, 0);
        let stride = 4 * 64;
        c.access(0, AccessKind::CpuRead);
        c.access(stride, AccessKind::CpuRead);
        assert_eq!(c.stats().ddio_evictions, 0);
    }

    #[test]
    fn partition_plan_conserves_donor_geometry() {
        let plan = LlcPartitionPlan::split(LlcConfig::xeon_default(), 4);
        assert_eq!(plan.len(), 4);
        assert!(plan.audit().is_empty(), "{:?}", plan.audit());
        // 16 ways / 4 = 4 each; the 2-way DDIO budget is floored at one
        // way per shard so no shard's DMA is forced to DRAM.
        for s in plan.shards() {
            assert_eq!(s.ways, 4);
            assert_eq!(s.ddio_ways, 1);
            assert_eq!(s.sets(), LlcConfig::xeon_default().sets());
        }
        // Uneven split: remainder ways go to the low shards.
        let plan = LlcPartitionPlan::split(LlcConfig::xeon_default(), 3);
        let ways: Vec<u32> = plan.shards().iter().map(|s| s.ways).collect();
        assert_eq!(ways, vec![6, 5, 5]);
        assert!(plan.audit().is_empty(), "{:?}", plan.audit());
    }

    #[test]
    fn single_shard_plan_is_the_donor() {
        let donor = LlcConfig::xeon_default();
        let plan = LlcPartitionPlan::split(donor.clone(), 1);
        let s = plan.shard(0);
        assert_eq!(s.size_bytes, donor.size_bytes);
        assert_eq!(s.ways, donor.ways);
        assert_eq!(s.ddio_ways, donor.ddio_ways);
        assert!(plan.audit().is_empty());
    }

    #[test]
    #[should_panic(expected = "way-disjoint")]
    fn oversubscribed_plan_rejected() {
        let _ = LlcPartitionPlan::split(
            LlcConfig {
                size_bytes: 1 << 20,
                ways: 4,
                ddio_ways: 2,
                line_bytes: 64,
                hash_sets: true,
            },
            5,
        );
    }

    #[test]
    fn hit_rate_stat() {
        let mut c = small_cache(4, 2);
        c.access(0, AccessKind::CpuRead);
        c.access(0, AccessKind::CpuRead);
        c.access(0, AccessKind::CpuRead);
        c.access(0, AccessKind::CpuRead);
        let s = c.stats();
        assert_eq!(s.cpu_hits, 3);
        assert_eq!(s.cpu_misses, 1);
        assert!((s.cpu_hit_rate() - 0.75).abs() < 1e-9);
    }
}
