//! The pooled frame arena: fixed-size buffer slots with refcounted
//! handles.
//!
//! The paper's data-movement argument (§1) is that interposition must
//! not reintroduce copies. Before this module the dataplane heap-
//! allocated an `Arc<[u8]>` per frame; real NICs instead DMA into a
//! preallocated pool of fixed-size buffers and pass *descriptors*
//! (buffer index + length) through rings. [`BufArena`] is that pool:
//! a single slab carved into `slot_bytes`-sized slots, a LIFO free
//! list, and per-slot reference counts. [`FrameRef`] is the
//! descriptor-side handle — clone is a refcount bump, drop recycles
//! the slot, and the frame bytes are never copied after the one write
//! that filled the slot.
//!
//! # Slot lifecycle
//!
//! ```text
//!   FREE ── alloc() ──> BUILDING ── freeze(len) ──> SHARED(n)
//!    ^                  (SlotWriter,                (n FrameRefs,
//!    |                   unique &mut)                shared &[u8])
//!    └──── last FrameRef dropped (poisoned in debug builds) ────┘
//! ```
//!
//! # The unsafe core and its invariants
//!
//! All `unsafe` in the buffer path lives in this module, guarded by
//! three invariants (what the miri CI job interprets — see
//! `scripts/ci.sh --job miri` — and what the seeded model in this file's
//! tests checks from outside). The arena is single-threaded: its
//! handles hold an `Rc`, so `BufArena`, [`SlotWriter`], [`FrameRef`]
//! and everything that carries one are `!Send + !Sync`, and the
//! counters below are plain `Cell`s.
//!
//! 1. **Writer uniqueness.** A slot index is popped off the free list
//!    into exactly one [`SlotWriter`]. While that writer exists nothing
//!    else — no `FrameRef`, no other writer — can name the slot, so its
//!    `&mut [u8]` is the only reference to those bytes.
//! 2. **Frozen slots are read-only.** After [`SlotWriter::freeze`] the
//!    bytes are only reachable as `&[u8]` through `FrameRef`s; nothing
//!    hands out `&mut` to a frozen slot.
//! 3. **Recycling requires refcount zero.** A slot returns to the
//!    free list only on the 1→0 refcount transition, so a freed slot
//!    can never alias a live frame.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::rc::Rc;

/// Byte written over a slot when its last reference drops, in debug
/// builds only — a stale `&[u8]` into a recycled slot reads as this
/// pattern instead of plausible frame bytes.
#[cfg(debug_assertions)]
pub(crate) const POISON: u8 = 0xDD;

/// Counters the arena maintains; see [`BufArena::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots currently allocated (building or shared).
    pub(crate) live: usize,
    /// Highest simultaneous `live` ever observed.
    pub high_water: usize,
    /// Successful slot allocations over the arena's lifetime.
    pub(crate) allocs: u64,
    /// Allocation attempts refused because the pool was empty (the
    /// caller fell back to a heap frame).
    pub exhausted: u64,
}

struct ArenaInner {
    slot_bytes: usize,
    /// The slab: `slots * slot_bytes` bytes. `UnsafeCell` because slot
    /// contents are mutated through shared references during the
    /// BUILDING state; the writer-uniqueness invariant (module docs)
    /// is what makes each such access exclusive in practice.
    mem: Box<[UnsafeCell<u8>]>,
    /// Per-slot reference counts. 0 = free, 1 = sole writer or sole
    /// handle, n = shared n ways.
    refs: Box<[Cell<u32>]>,
    /// LIFO free list: deterministic recycling order for replay.
    free: RefCell<Vec<u32>>,
    live: Cell<usize>,
    high_water: Cell<usize>,
    allocs: Cell<u64>,
    exhausted: Cell<u64>,
}

impl ArenaInner {
    /// Raw pointer to the first byte of `slot`.
    #[inline]
    fn slot_ptr(&self, slot: u32) -> *mut u8 {
        debug_assert!((slot as usize) < self.refs.len());
        // SAFETY: in-bounds by construction — slot < slots and the slab
        // holds slots * slot_bytes cells.
        unsafe { self.mem.as_ptr().add(slot as usize * self.slot_bytes) as *mut u8 }
    }

    /// Recycles `slot` after its refcount hit zero. Caller must be on
    /// the 1→0 transition (sole owner), so the poison write is
    /// exclusive.
    fn recycle(&self, slot: u32) {
        #[cfg(debug_assertions)]
        // SAFETY: refcount is zero and the slot is not yet back on the
        // free list — no handle or writer names it, so no reference to
        // its bytes exists.
        unsafe {
            std::ptr::write_bytes(self.slot_ptr(slot), POISON, self.slot_bytes);
        }
        self.live.set(self.live.get() - 1);
        self.free.borrow_mut().push(slot);
    }
}

/// A pool of fixed-size frame buffers with refcounted slot handles.
///
/// Cloning the arena clones the *handle* (`Rc`); all clones share one
/// slab. See the module docs for the slot lifecycle and the invariants
/// the unsafe core maintains.
///
/// Nothing that holds a slot can leave its thread — the compiler's
/// proof that the plain counters are enough, pinned per type. The same
/// call with a bound all three meet compiles, so the refusals are about
/// `Send` and nothing else:
///
/// ```
/// fn assert_clone<T: Clone>() {}
/// assert_clone::<pkt::BufArena>();
/// assert_clone::<pkt::FrameRef>();
/// assert_clone::<pkt::Packet>();
/// ```
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pkt::BufArena>();
/// ```
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pkt::FrameRef>();
/// ```
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pkt::Packet>();
/// ```
#[derive(Clone)]
pub struct BufArena {
    inner: Rc<ArenaInner>,
}

impl std::fmt::Debug for BufArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufArena")
            .field("slots", &self.slots())
            .field("slot_bytes", &self.inner.slot_bytes)
            .field("live", &self.live())
            .finish()
    }
}

impl BufArena {
    /// Creates an arena of `slots` buffers of `slot_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `slots` exceeds `u32`
    /// range (descriptors store the index as `u32`).
    pub fn new(slots: usize, slot_bytes: usize) -> BufArena {
        assert!(
            slots > 0 && slot_bytes > 0,
            "arena dimensions must be nonzero"
        );
        assert!(u32::try_from(slots).is_ok(), "slot index must fit u32");
        let mem = (0..slots * slot_bytes)
            .map(|_| UnsafeCell::new(0u8))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let refs = (0..slots)
            .map(|_| Cell::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        // LIFO pop order: slot 0 first, like a just-filled NIC free
        // ring.
        let free: Vec<u32> = (0..slots as u32).rev().collect();
        BufArena {
            inner: Rc::new(ArenaInner {
                slot_bytes,
                mem,
                refs,
                free: RefCell::new(free),
                live: Cell::new(0),
                high_water: Cell::new(0),
                allocs: Cell::new(0),
                exhausted: Cell::new(0),
            }),
        }
    }

    /// Number of slots in the pool.
    pub fn slots(&self) -> usize {
        self.inner.refs.len()
    }

    /// Usable bytes per slot.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.inner.slot_bytes
    }

    /// Slots currently allocated (the occupancy gauge audits check).
    pub fn live(&self) -> usize {
        self.inner.live.get()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live(),
            high_water: self.inner.high_water.get(),
            allocs: self.inner.allocs.get(),
            exhausted: self.inner.exhausted.get(),
        }
    }

    /// Whether `frame` lives in this arena (same slab).
    pub fn owns(&self, frame: &FrameRef) -> bool {
        Rc::ptr_eq(&self.inner, &frame.inner)
    }

    /// Takes a free slot for exclusive in-place construction. `None`
    /// when the pool is exhausted — callers fall back to a heap frame
    /// and the refusal is counted (see [`ArenaStats::exhausted`]).
    pub fn alloc(&self) -> Option<SlotWriter> {
        let inner = &*self.inner;
        let Some(slot) = inner.free.borrow_mut().pop() else {
            inner.exhausted.set(inner.exhausted.get() + 1);
            return None;
        };
        let prev = inner.refs[slot as usize].replace(1);
        debug_assert_eq!(prev, 0, "free-listed slot had a live refcount");
        let live = inner.live.get() + 1;
        inner.live.set(live);
        inner.high_water.set(inner.high_water.get().max(live));
        inner.allocs.set(inner.allocs.get() + 1);
        Some(SlotWriter {
            inner: Rc::clone(&self.inner),
            slot,
        })
    }

    /// Copies `bytes` into a fresh slot — the software model of the
    /// NIC DMA-ing a wire frame into a pooled RX buffer. `None` when
    /// the bytes exceed a slot or the pool is exhausted.
    pub fn adopt(&self, bytes: &[u8]) -> Option<FrameRef> {
        if bytes.len() > self.inner.slot_bytes {
            return None;
        }
        let mut w = self.alloc()?;
        w.bytes_mut()[..bytes.len()].copy_from_slice(bytes);
        Some(w.freeze(bytes.len()))
    }
}

/// Exclusive write access to one BUILDING slot; consume with
/// [`SlotWriter::freeze`] to share it, or drop to return the slot
/// unused.
pub struct SlotWriter {
    inner: Rc<ArenaInner>,
    slot: u32,
}

impl SlotWriter {
    /// The whole slot, mutable. Contents start as whatever the last
    /// occupant left (poison, in debug builds) — callers write before
    /// they freeze.
    #[inline]
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: writer uniqueness (invariant 1) — this writer is the
        // only reference to the slot, and `&mut self` makes this call
        // exclusive even against re-entrancy.
        unsafe {
            std::slice::from_raw_parts_mut(self.inner.slot_ptr(self.slot), self.inner.slot_bytes)
        }
    }

    /// Ends construction: the first `len` bytes become a shared,
    /// immutable frame.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the slot size.
    pub fn freeze(self, len: usize) -> FrameRef {
        assert!(len <= self.inner.slot_bytes, "frame longer than a slot");
        // Hand the refcount (already 1) from writer to handle.
        // SAFETY: `self` is forgotten right below, so the `Rc` read out
        // of it is the only owner of that strong count and the writer's
        // `Drop` (which would release the slot) never runs.
        let inner = unsafe { std::ptr::read(&self.inner) };
        let slot = self.slot;
        std::mem::forget(self);
        FrameRef {
            inner,
            slot,
            len: len as u32,
        }
    }
}

impl Drop for SlotWriter {
    fn drop(&mut self) {
        // Abandoned build: release the writer's refcount and recycle.
        let prev = self.inner.refs[self.slot as usize].replace(0);
        debug_assert_eq!(prev, 1, "writer refcount must be exactly 1");
        self.inner.recycle(self.slot);
    }
}

impl std::fmt::Debug for SlotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotWriter(slot {})", self.slot)
    }
}

/// A refcounted handle to one frozen frame in a [`BufArena`] slot:
/// the software form of a NIC buffer descriptor. Clone bumps the
/// slot's refcount; dropping the last handle recycles the slot.
pub struct FrameRef {
    inner: Rc<ArenaInner>,
    slot: u32,
    len: u32,
}

impl FrameRef {
    /// The frame bytes (never copied; always the slot memory).
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: the slot is SHARED (refcount ≥ 1 — we hold one), so
        // by invariant 2 no `&mut` exists: shared reads are sound.
        unsafe { std::slice::from_raw_parts(self.inner.slot_ptr(self.slot), self.len as usize) }
    }

    /// The slot index (the descriptor payload rings carry).
    #[cfg(test)]
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// Current refcount (diagnostics and tests only).
    #[cfg(test)]
    pub(crate) fn refcount(&self) -> u32 {
        self.inner.refs[self.slot as usize].get()
    }
}

impl Clone for FrameRef {
    fn clone(&self) -> FrameRef {
        let refs = &self.inner.refs[self.slot as usize];
        refs.set(refs.get() + 1);
        FrameRef {
            inner: Rc::clone(&self.inner),
            slot: self.slot,
            len: self.len,
        }
    }
}

impl Drop for FrameRef {
    fn drop(&mut self) {
        let refs = &self.inner.refs[self.slot as usize];
        refs.set(refs.get() - 1);
        if refs.get() == 0 {
            self.inner.recycle(self.slot);
        }
    }
}

impl std::fmt::Debug for FrameRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameRef(slot {}, {} bytes)", self.slot, self.len)
    }
}

impl PartialEq for FrameRef {
    fn eq(&self, other: &FrameRef) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for FrameRef {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_freeze_read_roundtrip() {
        let arena = BufArena::new(4, 64);
        let mut w = arena.alloc().unwrap();
        w.bytes_mut()[..5].copy_from_slice(b"hello");
        let f = w.freeze(5);
        assert_eq!(f.bytes(), b"hello");
        assert_eq!(f.bytes().len(), 5);
        assert_eq!(arena.live(), 1);
        drop(f);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn clone_is_refcount_bump_not_copy() {
        let arena = BufArena::new(4, 64);
        let f = arena.adopt(b"frame").unwrap();
        let g = f.clone();
        assert_eq!(f.bytes().as_ptr(), g.bytes().as_ptr(), "zero-copy share");
        assert_eq!(f.refcount(), 2);
        assert_eq!(arena.live(), 1, "a clone is not a new slot");
        drop(f);
        assert_eq!(g.bytes(), b"frame");
        drop(g);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn exhaustion_refuses_and_counts() {
        let arena = BufArena::new(2, 64);
        let a = arena.adopt(b"a").unwrap();
        let b = arena.adopt(b"b").unwrap();
        assert!(arena.alloc().is_none());
        assert_eq!(arena.stats().exhausted, 1);
        drop(a);
        assert!(arena.alloc().is_some(), "freed slot is allocatable again");
        drop(b);
    }

    #[test]
    fn oversize_adopt_refused() {
        let arena = BufArena::new(2, 8);
        assert!(arena.adopt(&[0u8; 9]).is_none());
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn recycling_never_aliases_a_live_frame() {
        // Property: holding any set of live FrameRefs, new allocations
        // never land on a slot one of them names.
        let arena = BufArena::new(8, 32);
        let mut live = Vec::new();
        for round in 0..100u32 {
            // Allocate a frame tagged with the round number.
            if let Some(mut w) = arena.alloc() {
                w.bytes_mut()[..4].copy_from_slice(&round.to_be_bytes());
                live.push((round, w.freeze(4)));
            }
            // Drop a pseudo-random subset (deterministic schedule).
            live.retain(|(r, _)| (r * 7 + round) % 3 != 0);
            // Every surviving frame still reads its own tag: no alias.
            for (r, f) in &live {
                assert_eq!(f.bytes(), r.to_be_bytes(), "slot aliased a live frame");
            }
            let slots: std::collections::HashSet<u32> =
                live.iter().map(|(_, f)| f.slot()).collect();
            assert_eq!(slots.len(), live.len(), "two live frames share a slot");
            assert_eq!(arena.live(), live.len());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn freed_slots_are_poisoned() {
        let arena = BufArena::new(1, 16);
        let f = arena.adopt(&[0xABu8; 16]).unwrap();
        let slot = f.slot();
        drop(f);
        // The single slot comes back; its bytes must read as poison,
        // not the old frame.
        let mut w = arena.alloc().unwrap();
        assert_eq!(w.slot, slot);
        assert!(w.bytes_mut().iter().all(|&b| b == POISON));
    }

    #[test]
    fn abandoned_writer_returns_slot() {
        let arena = BufArena::new(1, 16);
        let w = arena.alloc().unwrap();
        drop(w);
        assert_eq!(arena.live(), 0);
        assert!(arena.alloc().is_some());
    }

    /// The arena as specified: a slot is free (`None`) or holds the bytes
    /// its occupant can see and a handle count; freed slots stack LIFO.
    struct Model {
        slots: Vec<Option<(Vec<u8>, u32)>>,
        free: Vec<u32>,
        /// Whether a slot has been recycled at least once (debug builds
        /// poison it then; a never-used slot reads as zeroes).
        recycled: Vec<bool>,
        stats: ArenaStats,
    }

    impl Model {
        fn alloc(&mut self) -> Option<u32> {
            let Some(slot) = self.free.pop() else {
                self.stats.exhausted += 1;
                return None;
            };
            self.stats.live += 1;
            self.stats.high_water = self.stats.high_water.max(self.stats.live);
            self.stats.allocs += 1;
            Some(slot)
        }

        fn release(&mut self, slot: u32) {
            let (_, refs) = self.slots[slot as usize].as_mut().expect("live slot");
            *refs -= 1;
            if *refs == 0 {
                self.slots[slot as usize] = None;
                self.recycled[slot as usize] = true;
                self.free.push(slot);
                self.stats.live -= 1;
            }
        }
    }

    fn random_bytes(rng: &mut sim::DetRng, len: usize) -> Vec<u8> {
        // Never 0xDD, the debug poison byte, so poison is recognisable.
        (0..len).map(|_| (rng.next_u64() % 0xDD) as u8).collect()
    }

    /// Drives one arena and the model through `ops` seeded operations and
    /// compares everything observable after each.
    fn run_against_model(slots: usize, slot_bytes: usize, seed: u64, ops: usize) {
        let mut rng = sim::DetRng::seed_from_u64(seed);
        let arena = BufArena::new(slots, slot_bytes);
        let mut model = Model {
            slots: vec![None; slots],
            free: (0..slots as u32).rev().collect(),
            recycled: vec![false; slots],
            stats: ArenaStats::default(),
        };
        // A writer with the shadow of the whole slot as it has written it.
        let mut writers: Vec<(SlotWriter, Vec<u8>)> = Vec::new();
        let mut frames: Vec<FrameRef> = Vec::new();
        let max_handles = 3 * slots + 2;
        let mut clones = 0u32;

        for op in 0..ops {
            let ctx = format!("seed {seed} slots {slots} op {op}");
            match rng.range_usize(0, 10) {
                // alloc
                0 | 1 => {
                    let want = model.alloc();
                    let got = arena.alloc();
                    assert_eq!(got.as_ref().map(|w| w.slot), want, "{ctx}: slot chosen");
                    if let Some(mut w) = got {
                        let shadow = w.bytes_mut().to_vec();
                        assert_eq!(shadow.len(), slot_bytes, "{ctx}");
                        #[cfg(debug_assertions)]
                        {
                            let fill = if model.recycled[w.slot as usize] {
                                POISON
                            } else {
                                0
                            };
                            assert!(shadow.iter().all(|&b| b == fill), "{ctx}: poison on reuse");
                        }
                        model.slots[w.slot as usize] = Some((shadow.clone(), 1));
                        writers.push((w, shadow));
                    }
                }
                // write into a building slot
                2 if !writers.is_empty() => {
                    let i = rng.range_usize(0, writers.len());
                    let at = rng.range_usize(0, slot_bytes);
                    let len = rng.range_usize(0, slot_bytes - at + 1);
                    let bytes = random_bytes(&mut rng, len);
                    let (w, shadow) = &mut writers[i];
                    w.bytes_mut()[at..at + len].copy_from_slice(&bytes);
                    shadow[at..at + len].copy_from_slice(&bytes);
                }
                // freeze
                3 | 4 if !writers.is_empty() => {
                    let i = rng.range_usize(0, writers.len());
                    let (w, mut shadow) = writers.swap_remove(i);
                    let len = rng.range_usize(0, slot_bytes + 1);
                    let slot = w.slot;
                    shadow.truncate(len);
                    model.slots[slot as usize] = Some((shadow, 1));
                    frames.push(w.freeze(len));
                }
                // abandoned writer
                5 if !writers.is_empty() => {
                    let i = rng.range_usize(0, writers.len());
                    let (w, _) = writers.swap_remove(i);
                    model.release(w.slot);
                    drop(w);
                }
                // adopt, sometimes oversize
                6 => {
                    let len = rng.range_usize(0, slot_bytes + 3);
                    let bytes = random_bytes(&mut rng, len);
                    let got = arena.adopt(&bytes);
                    if len > slot_bytes {
                        assert!(got.is_none(), "{ctx}: oversize adopt");
                    } else {
                        let want = model.alloc();
                        assert_eq!(got.as_ref().map(|f| f.slot), want, "{ctx}: slot chosen");
                        if let Some(f) = got {
                            model.slots[f.slot as usize] = Some((bytes, 1));
                            frames.push(f);
                        }
                    }
                }
                // clone
                7 if !frames.is_empty() && frames.len() + writers.len() < max_handles => {
                    let f = rng.pick(&frames).clone();
                    model.slots[f.slot as usize].as_mut().expect("live").1 += 1;
                    frames.push(f);
                    clones += 1;
                }
                // drop a handle
                _ if !frames.is_empty() => {
                    let i = rng.range_usize(0, frames.len());
                    let f = frames.swap_remove(i);
                    model.release(f.slot);
                    drop(f);
                }
                _ => {}
            }

            assert_eq!(arena.stats(), model.stats, "{ctx}");
            assert_eq!(arena.live(), model.stats.live, "{ctx}");
            for f in &frames {
                let (bytes, refs) = model.slots[f.slot as usize].as_ref().expect("live");
                assert_eq!(f.bytes(), &bytes[..], "{ctx}: bytes of slot {}", f.slot);
                assert_eq!(f.refcount(), *refs, "{ctx}: refcount of slot {}", f.slot);
            }
            for (w, shadow) in &mut writers {
                let slot = w.slot;
                assert_eq!(w.bytes_mut(), &shadow[..], "{ctx}: building slot {slot}");
            }
        }

        // The stream reached the corners it exists for.
        assert!(cfg!(miri) || clones > 0, "no frame was shared");
        assert!(cfg!(miri) || slots > 2 || model.stats.exhausted > 0);
        drop(writers);
        drop(frames);
        assert_eq!(arena.live(), 0, "seed {seed}: every slot returned");
        let all: Vec<SlotWriter> = (0..slots).map_while(|_| arena.alloc()).collect();
        assert_eq!(
            all.len(),
            slots,
            "seed {seed}: every slot allocatable again"
        );
    }

    #[test]
    fn arena_agrees_with_a_plain_model_under_seeded_ops() {
        // 60,000 ops; small cases stay on under miri for whoever has it.
        let ops = if cfg!(miri) { 300 } else { 10_000 };
        for seed in [20210531u64, 19700101] {
            run_against_model(1, 16, seed, ops);
            run_against_model(2, 8, seed ^ 2, ops);
            run_against_model(64, 48, seed ^ 64, ops);
        }
    }

    #[test]
    fn high_water_tracks_peak() {
        let arena = BufArena::new(8, 16);
        let held: Vec<_> = (0..5).map(|_| arena.adopt(b"x").unwrap()).collect();
        drop(held);
        let s = arena.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.high_water, 5);
        assert_eq!(s.allocs, 5);
    }
}
