//! Differential test for the LLC model's residency memo.
//!
//! [`RefLlc`] is the cache as specified: per set a `Vec` of
//! `Option<(tag, last_use)>`, a hit is a linear search, the victim is the
//! lowest invalid way the access class may allocate into, else the least
//! recently used of those ways. No way hint, no bitmask, no memo. Seeded
//! op streams drive three things side by side — the reference, an [`Llc`]
//! walked with plain [`Llc::access_range`] at the addresses a ring's
//! descriptor and payload slot occupy, and an [`Llc`] behind real
//! [`DescRing`]s (the memo path) — and they must agree on every returned
//! cost, on [`LlcStats`] after every op, and on every way of every set
//! (tag and recency stamp) at the end. A write that never allocates, on
//! a set no line has reached, must also leave that set without a block.

use std::collections::VecDeque;

use sim::DetRng;

use super::*;
use crate::ring::{DescRing, HostRing, RingError};

struct RefLlc {
    cfg: LlcConfig,
    sets: Vec<Vec<Option<(u64, u64)>>>,
    clock: u64,
    stats: LlcStats,
}

impl RefLlc {
    fn new(cfg: LlcConfig) -> RefLlc {
        RefLlc {
            sets: vec![vec![None; cfg.ways as usize]; cfg.sets() as usize],
            cfg,
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        let x = if self.cfg.hash_sets {
            let mut x = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 27)
        } else {
            line
        };
        (x % self.sets.len() as u64) as usize
    }

    fn access_line(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        use AccessKind::*;
        self.clock += 1;
        let dma_write = matches!(kind, DmaWrite | DmaWriteBypass);
        let idx = self.set_of(line);
        let set = &mut self.sets[idx];
        if let Some(way) = set.iter_mut().flatten().find(|w| w.0 == line) {
            way.1 = self.clock;
            if dma_write {
                self.stats.dma_hits += 1;
            } else {
                self.stats.cpu_hits += 1;
            }
            return AccessOutcome::Hit;
        }
        if dma_write {
            self.stats.dma_misses += 1;
        } else {
            self.stats.cpu_misses += 1;
        }
        let allowed = match kind {
            DmaWrite => self.cfg.ddio_ways,
            DmaWriteBypass => 0,
            CpuRead | CpuWrite | DmaRead => self.cfg.ways,
        } as usize;
        let candidates = &set[..allowed];
        let victim = match candidates.iter().position(Option::is_none) {
            Some(w) => w,
            None if allowed == 0 => return AccessOutcome::Miss,
            None => {
                self.stats.ddio_evictions += u64::from(kind == DmaWrite);
                (0..allowed)
                    .min_by_key(|&w| candidates[w].map(|(_, used)| used))
                    .unwrap()
            }
        };
        set[victim] = Some((line, self.clock));
        AccessOutcome::Miss
    }

    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, costs: &MemCosts) -> Dur {
        use AccessKind::*;
        use AccessOutcome::*;
        let mut total = Dur::ZERO;
        if len == 0 {
            return total;
        }
        for line in addr / self.cfg.line_bytes..=(addr + len - 1) / self.cfg.line_bytes {
            total += match (kind, self.access_line(line, kind)) {
                (DmaWrite | DmaWriteBypass, Hit) => costs.ddio_hit,
                (DmaWrite, Miss) if self.cfg.ddio_ways == 0 => costs.dma_dram,
                (DmaWrite, Miss) => costs.ddio_alloc,
                (DmaWriteBypass, Miss) => costs.dma_dram,
                (CpuRead | CpuWrite | DmaRead, Hit) => costs.llc_hit,
                (CpuRead | CpuWrite | DmaRead, Miss) => costs.dram,
            };
        }
        total
    }
}

/// One cache, three ways: the reference, the plain walk, and the one the
/// real rings drive.
struct Rig {
    reference: RefLlc,
    plain: Llc,
    ringed: Llc,
}

impl Rig {
    fn new(cfg: &LlcConfig) -> Rig {
        Rig {
            reference: RefLlc::new(cfg.clone()),
            plain: Llc::new(cfg.clone()),
            ringed: Llc::new(cfg.clone()),
        }
    }

    /// Traffic no ring sees: the same plain walk on all three.
    fn foreign(&mut self, addr: u64, len: u64, kind: AccessKind, costs: &MemCosts) -> [Dur; 3] {
        [
            self.reference.access_range(addr, len, kind, costs),
            self.plain.access_range(addr, len, kind, costs),
            self.ringed.access_range(addr, len, kind, costs),
        ]
    }

    fn check(&self, what: &dyn std::fmt::Debug, cost: [Dur; 3]) {
        assert_eq!(cost[0], cost[1], "plain walk cost, {what:?}");
        assert_eq!(cost[0], cost[2], "ring (memo) cost, {what:?}");
        assert_eq!(self.reference.stats, self.plain.stats(), "{what:?}");
        assert_eq!(self.reference.stats, self.ringed.stats(), "{what:?}");
    }

    fn check_residency(&self) {
        assert!(self.reference.sets == self.plain.dump(), "plain walk");
        assert!(self.reference.sets == self.ringed.dump(), "ring (memo)");
    }
}

/// What a [`DescRing`] is to the memory model: fixed addresses, touched
/// in rotation. The addresses are worked out here, not asked of the ring.
struct ShadowRing {
    base: u64,
    slots: u64,
    slot_bytes: u64,
    head: u64,
    /// (producer, len) of each occupied slot, oldest first.
    occupied: VecDeque<(usize, usize)>,
}

impl ShadowRing {
    /// The descriptor's and the payload's `(addr, len)` for the slot
    /// `back` places behind the producer index.
    fn ranges(&self, back: u64, len: usize) -> [(u64, u64); 2] {
        let slot = (self.head - back) % self.slots;
        let desc = self.base + slot * HostRing::DESC_BYTES;
        let data = self.base + self.slots * HostRing::DESC_BYTES + slot * self.slot_bytes;
        [(desc, HostRing::DESC_BYTES), (data, len.max(1) as u64)]
    }
}

const PRODUCERS: [AccessKind; 3] = [
    AccessKind::DmaWrite,
    AccessKind::DmaWriteBypass,
    AccessKind::CpuWrite,
];
const CONSUMERS: [AccessKind; 2] = [AccessKind::CpuRead, AccessKind::DmaRead];
const ALL_KINDS: [AccessKind; 5] = [
    AccessKind::CpuRead,
    AccessKind::CpuWrite,
    AccessKind::DmaWrite,
    AccessKind::DmaWriteBypass,
    AccessKind::DmaRead,
];

fn produce(
    ring: &mut DescRing<u64>,
    desc: u64,
    len: usize,
    kind: AccessKind,
    llc: &mut Llc,
    costs: &MemCosts,
) -> Result<Dur, RingError> {
    match kind {
        AccessKind::DmaWrite => ring.produce_dma_with(desc, len, llc, costs),
        AccessKind::DmaWriteBypass => ring.produce_dma_bypass_with(desc, len, llc, costs),
        _ => ring.produce_cpu_with(desc, len, llc, costs),
    }
}

/// Drives 24,000 seeded operations over rings of 1, 2, 3 and 64 slots.
/// The rings are carried back and forth between two caches (`a` and `b`,
/// possibly of different geometry) the way a shard restart hands a
/// connection's rings a fresh cache, so every residency entry a ring
/// holds goes stale wholesale now and then; foreign traffic makes single entries stale in between.
fn run(a: &LlcConfig, b: &LlcConfig, slot_bytes: usize, seed: u64) {
    let ops = if cfg!(miri) { 240 } else { 24_000 };
    let costs = MemCosts::default();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut rigs = [Rig::new(a), Rig::new(b)];
    let mut cur = 0;
    // Bases at every descriptor-aligned offset within a line, so payload
    // slots start mid-line as the dataplane's do.
    let layout = [(1, 0), (2, 0), (2, 32), (3, 16), (64, 0), (64, 48)];
    let mut rings: Vec<(DescRing<u64>, ShadowRing)> = layout
        .iter()
        .zip(0u64..)
        .map(|(&(slots, skew), i)| {
            let base = (i + 1) * (1 << 20) + skew;
            let shadow = ShadowRing {
                base,
                slots: slots as u64,
                slot_bytes: slot_bytes as u64,
                head: 0,
                occupied: VecDeque::new(),
            };
            (DescRing::new(base, slots, slot_bytes), shadow)
        })
        .collect();
    let foreign_span = 2 * a.size_bytes.max(b.size_bytes);
    let mut pairs = [[0u32; 2]; 3];
    let mut next_desc = 0u64;
    let mut untouched = 0;

    for op in 0..ops {
        if rng.chance(0.002) {
            cur ^= 1;
        }
        let rig = &mut rigs[cur];
        let r = rng.range_usize(0, rings.len());
        let (ring, shadow) = &mut rings[r];
        // The first op finds every set untouched.
        match if op == 0 { 90 } else { rng.range_u64(0, 100) } {
            // Produce: any producer, any length the slot can hold (and
            // now and then one it cannot).
            0..=44 => {
                let p = rng.range_usize(0, PRODUCERS.len());
                let len = if rng.chance(0.01) {
                    slot_bytes + 1
                } else {
                    rng.range_usize(0, slot_bytes + 1)
                };
                let got = produce(ring, next_desc, len, PRODUCERS[p], &mut rig.ringed, &costs);
                let what = ("produce", op, r, PRODUCERS[p], len);
                if len > slot_bytes {
                    let slot = slot_bytes;
                    assert_eq!(got, Err(RingError::Oversize { len, slot }), "{what:?}");
                } else if shadow.occupied.len() as u64 == shadow.slots {
                    assert_eq!(got, Err(RingError::Full), "{what:?}");
                } else {
                    let mut cost = [Dur::ZERO, Dur::ZERO, got.unwrap()];
                    for (addr, n) in shadow.ranges(0, len) {
                        cost[0] += rig.reference.access_range(addr, n, PRODUCERS[p], &costs);
                        cost[1] += rig.plain.access_range(addr, n, PRODUCERS[p], &costs);
                    }
                    shadow.occupied.push_back((p, len));
                    shadow.head += 1;
                    next_desc += 1;
                    rig.check(&what, cost);
                    continue;
                }
                rig.check(&what, [Dur::ZERO; 3]);
            }
            45..=89 => {
                let c = rng.range_usize(0, CONSUMERS.len());
                let got = match CONSUMERS[c] {
                    AccessKind::CpuRead => ring.consume_cpu_desc(&mut rig.ringed, &costs),
                    _ => ring.consume_dma_desc(&mut rig.ringed, &costs),
                };
                let what = ("consume", op, r, CONSUMERS[c]);
                let Some((p, len)) = shadow.occupied.front().copied() else {
                    assert_eq!(got, None, "{what:?}");
                    continue;
                };
                let (_, got_len, got_cost) = got.unwrap();
                assert_eq!(got_len, len, "{what:?}");
                let mut cost = [Dur::ZERO, Dur::ZERO, got_cost];
                for (addr, n) in shadow.ranges(shadow.occupied.len() as u64, len) {
                    cost[0] += rig.reference.access_range(addr, n, CONSUMERS[c], &costs);
                    cost[1] += rig.plain.access_range(addr, n, CONSUMERS[c], &costs);
                }
                shadow.occupied.pop_front();
                pairs[p][c] += 1;
                rig.check(&what, cost);
            }
            // A write that never allocates, on a set no line has reached
            // yet where one turns up: it misses without giving the set a
            // block.
            90..=91 => {
                let no_allocate = if rig.reference.cfg.ddio_ways == 0 && rng.chance(0.5) {
                    AccessKind::DmaWrite
                } else {
                    AccessKind::DmaWriteBypass
                };
                let line_bytes = rig.reference.cfg.line_bytes;
                let (mut addr, mut fresh) = (0, false);
                for _ in 0..16 {
                    addr = (64 << 20) + rng.range_u64(0, foreign_span);
                    let set = &rig.reference.sets[rig.reference.set_of(addr / line_bytes)];
                    fresh = set.iter().all(Option::is_none);
                    if fresh {
                        break;
                    }
                }
                let cost = rig.foreign(addr, 1, no_allocate, &costs);
                let what = ("no-allocate", op, addr, no_allocate);
                rig.check(&what, cost);
                if fresh {
                    untouched += 1;
                    for llc in [&rig.plain, &rig.ringed] {
                        let set = llc.set_of(llc.line_of(addr)) as usize;
                        assert_eq!(llc.block[set], 0, "{what:?}");
                    }
                }
            }
            // Foreign traffic, half of it over the rings' own lines: it
            // evicts what the rings remember and brings lines back into
            // other ways.
            92..=98 => {
                let kind = *rng.pick(&ALL_KINDS);
                let len = rng.range_u64(0, 4 * slot_bytes as u64);
                let addr = if rng.chance(0.5) {
                    shadow.base + rng.range_u64(0, shadow.slots * (16 + shadow.slot_bytes))
                } else {
                    (64 << 20) + rng.range_u64(0, foreign_span)
                };
                let cost = rig.foreign(addr, len, kind, &costs);
                rig.check(&("foreign", op, addr, len, kind), cost);
            }
            // A burst large enough to push lines out of a full-size cache.
            _ => {
                let kind = *rng.pick(&ALL_KINDS);
                let addr = (64 << 20) + rng.range_u64(0, foreign_span);
                let cost = rig.foreign(addr, 128 << 10, kind, &costs);
                rig.check(&("burst", op, addr, kind), cost);
            }
        }
    }
    for rig in &rigs {
        rig.check_residency();
        let s = rig.reference.stats;
        assert!(cfg!(miri) || s.cpu_hits + s.dma_hits > 0, "no hits: {s:?}");
        assert!(cfg!(miri) || s.cpu_misses + s.dma_misses > 0, "{s:?}");
    }
    assert!(untouched > 0, "no no-allocate write met an untouched set");
    assert!(
        cfg!(miri) || pairs.iter().flatten().all(|&n| n > 0),
        "a producer / consumer pair never ran: {pairs:?}"
    );
}

fn xeon() -> LlcConfig {
    LlcConfig::xeon_default()
}

fn geometry(sets: u64, ways: u32, ddio_ways: u32, line_bytes: u64, hash_sets: bool) -> LlcConfig {
    LlcConfig {
        size_bytes: sets * u64::from(ways) * line_bytes,
        ways,
        ddio_ways,
        line_bytes,
        hash_sets,
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn xeon_default_agrees() {
    // The second cache is a worker shard's partition: fewer way slots,
    // so some remembered indices are out of its bounds.
    let shard = LlcPartitionPlan::split(xeon(), 4).shard(0).clone();
    run(&xeon(), &shard, 2048, 0x11c0_0001);
}

#[test]
#[cfg_attr(miri, ignore)]
fn unlimited_ddio_agrees() {
    run(&LlcConfig::unlimited_ddio(), &xeon(), 2048, 0x11c0_0002);
}

#[test]
#[cfg_attr(miri, ignore)]
fn ddio_disabled_agrees() {
    let off = LlcConfig {
        ddio_ways: 0,
        ..xeon()
    };
    run(&off, &xeon(), 2048, 0x11c0_0003);
}

#[test]
#[cfg_attr(miri, ignore)]
fn every_shard_of_a_four_way_split_agrees() {
    let plan = LlcPartitionPlan::split(xeon(), 4);
    for (i, shard) in plan.shards().iter().enumerate() {
        let next = plan.shard((i + 1) % plan.len());
        run(shard, next, 2048, 0x11c0_0010 + i as u64);
    }
}

#[test]
fn four_sets_where_every_op_evicts_agrees() {
    // Eight lines of cache against 33-line walks: a walk evicts its own
    // head, and every remembered way slot is stale by the next op.
    let tiny = geometry(4, 2, 1, 64, false);
    run(&tiny, &geometry(4, 4, 2, 64, false), 2048, 0x11c0_0020);
    run(&tiny, &geometry(2, 1, 0, 64, false), 256, 0x11c0_0021);
}

#[test]
fn small_hashed_cache_agrees() {
    // Large enough to hold a ring or two, small enough that foreign
    // traffic keeps taking single lines away.
    let small = geometry(64, 16, 2, 64, true);
    run(&small, &geometry(64, 16, 16, 64, true), 2048, 0x11c0_0030);
    run(&small, &geometry(256, 8, 1, 64, true), 512, 0x11c0_0031);
}

#[test]
fn odd_set_count_and_line_size_agrees() {
    // Neither a power of two: the divide and modulo arms of `line_of`
    // and `set_of`. (Lines stay a multiple of the 16-byte descriptor.)
    let odd = geometry(6, 3, 1, 48, true);
    run(&odd, &geometry(100, 5, 2, 80, false), 2048, 0x11c0_0040);
    run(&geometry(37, 7, 3, 64, true), &odd, 300, 0x11c0_0041);
}
