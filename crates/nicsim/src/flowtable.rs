//! The NIC flow table: a two-tier exact-match connection store with
//! process attribution.
//!
//! Each entry binds a five-tuple to the rings of one connection *and* to
//! the (uid, pid, comm) of the process that opened it — the binding the
//! kernel control plane installs at `connect()`/`accept()` time, and the
//! reason the on-NIC dataplane can evaluate owner-aware policies that
//! hypervisor switches cannot (§2, §3). Listener entries (proto + local
//! port) catch first packets of inbound connections.
//!
//! Flow state is hierarchical (the §5 scaling answer): a bounded **hot
//! tier** of SRAM-resident entries (`crate::sram`: entry slot + DMA
//! ring context, charged atomically) and an unbounded **cold tier** in
//! host memory that costs no SRAM but pays a host-walk latency on every
//! lookup. Promotion and eviction between the tiers are driven by a
//! kernel-programmable [`FlowCacheConfig`] (LRU, priority-aware, or
//! pinned), with victims tracked per RSS queue so each worker shard owns
//! its slice of the hot tier — shared-nothing by construction. Without a
//! committed policy the table is *untiered*: every insert is hot and
//! exhaustion is an insert failure, exactly the pre-hierarchy behavior
//! (§5's resource-exhaustion concern).

use sim::audit::{check, check_at, Check, Violation};
use sim::FastMap;

use pkt::{FiveTuple, IpProto};

use crate::sram::{Sram, SramCategory, SramError};

/// A connection identifier on the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConnId(pub u64);

impl ConnId {
    /// The kernel's own egress (ARP replies): the id no connection gets,
    /// and the one overlay programs read as "no connection".
    pub const KERNEL: ConnId = ConnId(u64::MAX);
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// SRAM cost of one exact-match entry (key + state + ring context
/// pointers), approximating a hardware CAM/hash slot.
pub const ENTRY_BYTES: u64 = 128;

/// SRAM cost of one listener entry.
pub(crate) const LISTENER_BYTES: u64 = 32;

/// SRAM charged per *hot* connection for its on-NIC DMA ring context
/// (descriptor state cached on-board). Cold connections keep their ring
/// context in host memory: no SRAM charge, dearer lookups.
pub(crate) const RING_CONTEXT_BYTES: u64 = 512;

/// Which tier a connection's steering state lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowTier {
    /// On-NIC SRAM: exact-match slot + cached ring context.
    Hot,
    /// Host memory: no SRAM charge, each lookup pays a host-table walk.
    Cold,
}

/// Eviction/promotion discipline for the hot tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowCacheMode {
    /// Pure recency: a cold hit always promotes, evicting the
    /// least-recently-used hot entry on its queue when full.
    Lru,
    /// Priority-aware: entries on `high_prio_ports` outrank the rest and
    /// are never evicted by lower-ranked traffic; `pinned_ports` outrank
    /// everything. Equal ranks behave like LRU.
    PriorityAware,
    /// Only `pinned_ports` entries may occupy the hot tier; everything
    /// else stays cold forever.
    Pinned,
}

impl FlowCacheMode {
    /// Stable lower-snake name (bench JSON, registry keys).
    pub fn name(self) -> &'static str {
        match self {
            FlowCacheMode::Lru => "lru",
            FlowCacheMode::PriorityAware => "priority_aware",
            FlowCacheMode::Pinned => "pinned",
        }
    }
}

/// The kernel-programmable flow-cache policy: how large the hot tier is
/// and how entries are promoted into (and evicted from) it. Committed
/// through the control plane's two-phase path; `None` at the device
/// means the untiered boot behavior.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowCacheConfig {
    /// Maximum hot exact-match entries, divided evenly across RSS queues
    /// (remainder to the low queues) so each shard owns its slice.
    pub hot_capacity: usize,
    /// Promotion/eviction discipline.
    pub mode: FlowCacheMode,
    /// Local ports whose connections rank above normal traffic
    /// ([`FlowCacheMode::PriorityAware`]).
    pub high_prio_ports: Vec<u16>,
    /// Local ports whose connections are never evicted once hot (and the
    /// only hot-eligible ones under [`FlowCacheMode::Pinned`]).
    pub pinned_ports: Vec<u16>,
}

impl FlowCacheConfig {
    /// A pure-LRU cache of `hot_capacity` entries.
    pub fn lru(hot_capacity: usize) -> FlowCacheConfig {
        FlowCacheConfig {
            hot_capacity,
            mode: FlowCacheMode::Lru,
            high_prio_ports: Vec::new(),
            pinned_ports: Vec::new(),
        }
    }

    /// A priority-aware cache protecting connections on `high` ports.
    pub fn priority_aware(hot_capacity: usize, high: &[u16]) -> FlowCacheConfig {
        FlowCacheConfig {
            hot_capacity,
            mode: FlowCacheMode::PriorityAware,
            high_prio_ports: high.to_vec(),
            pinned_ports: Vec::new(),
        }
    }

    /// A pinned cache: only connections on `pinned` ports go hot.
    pub fn pinned(hot_capacity: usize, pinned: &[u16]) -> FlowCacheConfig {
        FlowCacheConfig {
            hot_capacity,
            mode: FlowCacheMode::Pinned,
            high_prio_ports: Vec::new(),
            pinned_ports: pinned.to_vec(),
        }
    }

    /// Eviction rank of a connection with local port `port`: higher ranks
    /// displace lower ones; rank 0 is never hot.
    fn rank_of(&self, port: u16) -> u8 {
        match self.mode {
            FlowCacheMode::Lru => 1,
            FlowCacheMode::PriorityAware => {
                if self.pinned_ports.contains(&port) {
                    3
                } else if self.high_prio_ports.contains(&port) {
                    2
                } else {
                    1
                }
            }
            FlowCacheMode::Pinned => {
                if self.pinned_ports.contains(&port) {
                    3
                } else {
                    0
                }
            }
        }
    }
}

/// One flow-table entry.
#[derive(Clone, Debug)]
pub struct ConnEntry {
    /// The connection id.
    pub(crate) id: ConnId,
    /// Exact-match key (remote -> local direction as seen on RX).
    pub tuple: FiveTuple,
    /// Owning user.
    pub uid: u32,
    /// Owning process.
    pub pid: u32,
    /// Owning command name (kept for `ksniff`/`knetstat` display and
    /// per-event attribution; the dataplane matches on uid/pid). Interned,
    /// so lookups and trace events copy it like any other field.
    pub comm: telemetry::Comm,
    /// Whether the connection requested notifications (blocking I/O).
    pub(crate) notify: bool,
    /// Whether this is a listener entry (proto + local port, no remote
    /// endpoint) rather than an exact-match connection.
    pub(crate) listener: bool,
    /// Which tier the entry currently occupies (listeners are always
    /// hot: they are tiny and catch first packets).
    pub(crate) tier: FlowTier,
    /// The RSS queue that owns this entry's hot-tier slice.
    pub(crate) queue: u16,
    /// Eviction rank under the active cache policy (recomputed on every
    /// policy commit).
    pub(crate) rank: u8,
    /// Logical clock of the last lookup hit (promotion recency).
    pub(crate) last_use: u64,
}

impl ConnEntry {
    /// The process binding, as trace events and taps attribute it.
    pub(crate) fn owner(&self) -> telemetry::Owner {
        telemetry::Owner::new(self.uid, self.pid, self.comm)
    }
}

/// What a lookup resolved to, after recency/promotion side effects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupHit {
    /// The matched connection (exact entry or listener).
    pub id: ConnId,
    /// The tier the entry occupied *when probed* — a cold hit pays the
    /// host-walk cost even if this very lookup promoted it.
    pub tier: FlowTier,
    /// Whether this lookup promoted the entry into the hot tier.
    pub(crate) promoted: bool,
    /// The victim this promotion demoted to make room, if any.
    pub(crate) demoted: Option<(ConnId, FiveTuple)>,
    /// Whether the connection requested notifications — copied out of
    /// the entry at probe time so the RX completion path can steer
    /// without a second table probe.
    pub(crate) notify: bool,
    /// Owning user (copied at probe time, as above).
    pub(crate) uid: u32,
    /// Owning process (copied at probe time, as above).
    pub(crate) pid: u32,
    /// Owning command name (copied at probe time, as above — observers
    /// attribute the frame without a second probe for the entry).
    pub(crate) comm: telemetry::Comm,
}

/// Tier/churn counters (registry keys `flowtable.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that matched nothing.
    pub(crate) misses: u64,
    /// Hits served from the hot tier (listeners included).
    pub hot_hits: u64,
    /// Hits served from the cold tier (host-walk latency).
    pub cold_hits: u64,
    /// Cold→hot promotions (lookup-driven and policy re-tiers).
    pub promotions: u64,
    /// Hot→cold evictions (promotion victims and policy re-tiers).
    pub evictions: u64,
    /// Promotions refused: SRAM full, queue slice full of higher-ranked
    /// entries, or a zero-width slice.
    pub promotion_refusals: u64,
}

/// What a policy re-tier moved, in deterministic (id-sorted) order.
#[derive(Clone, Debug, Default)]
pub(crate) struct RetierReport {
    /// Entries promoted cold→hot.
    pub(crate) promoted: Vec<(ConnId, FiveTuple)>,
    /// Entries demoted hot→cold.
    pub(crate) demoted: Vec<(ConnId, FiveTuple)>,
}

/// Packs a [`FiveTuple`] into one 128-bit exact-match key: two hasher
/// rounds instead of the derive's field-by-field (and per-octet) walk.
/// The packing is injective, so key equality is tuple equality. Public
/// because the same packing keys the overlay's per-flow scratch maps
/// (`PktCtx::flow_key`), so kernel tools can address both uniformly.
#[inline]
pub fn exact_key(t: &FiveTuple) -> u128 {
    (u128::from(u32::from(t.src_ip)) << 96)
        | (u128::from(u32::from(t.dst_ip)) << 64)
        | (u128::from(t.src_port) << 48)
        | (u128::from(t.dst_port) << 32)
        | u128::from(t.proto.0)
}

/// Eviction ranks run 0 (never hot) to 3 (pinned); each queue keeps one
/// recency list per rank.
const RANKS: usize = 4;

/// The "no neighbour" link of a recency list.
const NIL: u32 = u32::MAX;

/// What the `exact` and `listeners` indexes hold for a key: the entry's
/// slab slot, so a lookup reaches it by index after its one hash probe,
/// and the id filed there, which the audit checks the slot against.
#[derive(Clone, Copy)]
struct Resolved {
    slot: u32,
    id: ConnId,
}

/// One slab cell: an entry and its links in the recency list it is on
/// (hot exact entries only; everything else keeps both links [`NIL`]).
struct Slot {
    entry: ConnEntry,
    prev: u32,
    next: u32,
}

/// One (queue, rank) recency list, threaded through the slab by slot
/// index: head = least recently used, tail = most.
#[derive(Clone, Copy)]
struct RecencyList {
    head: u32,
    tail: u32,
    len: usize,
}

impl RecencyList {
    const EMPTY: RecencyList = RecencyList {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A queue's hot slice in victim order. `last_use` is a strictly
/// increasing tick handed to exactly one entry at a time, and an entry
/// goes to the tail of its list whenever it takes a new tick, so each
/// list is in ascending `last_use` order and the lists read in rank order
/// are the queue's hot entries in ascending `(rank, last_use, id)` order:
/// the victim is the head of the lowest non-empty rank.
type QueueLists = [RecencyList; RANKS];

fn hot_len(lists: &QueueLists) -> usize {
    lists.iter().map(|l| l.len).sum()
}

/// The entry at `slot`, which an index or a list says is occupied.
fn entry_at(slab: &[Option<Slot>], slot: u32) -> &ConnEntry {
    &slab[slot as usize]
        .as_ref()
        .expect("a linked or indexed slot holds an entry")
        .entry
}

fn live(slab: &mut [Option<Slot>], slot: u32) -> &mut Slot {
    slab[slot as usize]
        .as_mut()
        .expect("a linked or indexed slot holds an entry")
}

/// Appends `slot` (not on any list) as `list`'s most recent entry.
fn push_back(slab: &mut [Option<Slot>], list: &mut RecencyList, slot: u32) {
    let s = live(slab, slot);
    s.prev = list.tail;
    s.next = NIL;
    match list.tail {
        NIL => list.head = slot,
        tail => live(slab, tail).next = slot,
    }
    list.tail = slot;
    list.len += 1;
}

/// Takes `slot` off `list`, which it must be on.
fn unlink(slab: &mut [Option<Slot>], list: &mut RecencyList, slot: u32) {
    let s = live(slab, slot);
    let (prev, next) = (s.prev, s.next);
    (s.prev, s.next) = (NIL, NIL);
    match prev {
        NIL => list.head = next,
        prev => live(slab, prev).next = next,
    }
    match next {
        NIL => list.tail = prev,
        next => live(slab, next).prev = prev,
    }
    list.len -= 1;
}

/// The flow table.
pub struct FlowTable {
    /// Exact-match index, keyed by the packed tuple ([`exact_key`]).
    exact: FastMap<u128, Resolved>,
    listeners: FastMap<(IpProto, u16), Resolved>,
    /// Connection id → slab slot, for the callers that hold an id.
    by_id: FastMap<ConnId, u32>,
    /// Entry storage; vacated cells are reused through `free`.
    slab: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Active cache policy; `None` = untiered boot behavior.
    cache: Option<FlowCacheConfig>,
    /// RSS queue count the hot tier is sliced across.
    num_queues: usize,
    /// Per-queue victim order over hot exact entries.
    hot: Vec<QueueLists>,
    /// Cold exact-entry count (the hot count is the lists' total).
    cold: usize,
    next_id: u64,
    /// Logical recency clock, ticked per insert and per exact hit.
    tick: u64,
    stats: FlowStats,
}

impl Default for FlowTable {
    fn default() -> FlowTable {
        FlowTable::new()
    }
}

impl FlowTable {
    /// Creates an empty, untiered table with a single queue slice.
    pub fn new() -> FlowTable {
        FlowTable {
            exact: FastMap::default(),
            listeners: FastMap::default(),
            by_id: FastMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            cache: None,
            num_queues: 1,
            hot: vec![[RecencyList::EMPTY; RANKS]],
            cold: 0,
            next_id: 0,
            tick: 0,
            stats: FlowStats::default(),
        }
    }

    /// Returns the number of exact-match entries (both tiers).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.exact.len()
    }

    /// Returns the number of exact-match entries (alias of `len`, named
    /// for audit readability).
    pub fn num_exact(&self) -> usize {
        self.exact.len()
    }

    /// Returns the number of hot-tier exact-match entries.
    pub fn num_hot(&self) -> usize {
        self.hot.iter().map(hot_len).sum()
    }

    /// Returns the number of cold-tier exact-match entries.
    pub fn num_cold(&self) -> usize {
        self.cold
    }

    /// Returns the number of hot entries owned by RSS queue `q`.
    #[cfg(test)]
    pub(crate) fn num_hot_on_queue(&self, q: usize) -> usize {
        self.hot.get(q).map_or(0, hot_len)
    }

    /// Returns the number of listener entries.
    pub fn num_listeners(&self) -> usize {
        self.listeners.len()
    }

    /// Returns the total number of entry records (exact + listeners).
    pub fn num_entries(&self) -> usize {
        self.by_id.len()
    }

    /// Returns (lookups, misses).
    pub fn counters(&self) -> (u64, u64) {
        (self.stats.lookups, self.stats.misses)
    }

    /// Returns the tier/churn counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Returns the active cache policy (`None` = untiered).
    pub(crate) fn cache_config(&self) -> Option<&FlowCacheConfig> {
        self.cache.as_ref()
    }

    /// Returns the tier of connection `id`, if it exists.
    pub fn tier_of(&self, id: ConnId) -> Option<FlowTier> {
        self.entry(id).map(|e| e.tier)
    }

    fn rank_for(&self, local_port: u16) -> u8 {
        self.cache.as_ref().map_or(1, |c| c.rank_of(local_port))
    }

    /// Hot-entry budget of queue `q` under the active policy.
    fn queue_capacity(&self, q: usize) -> usize {
        match &self.cache {
            None => usize::MAX,
            Some(c) => {
                c.hot_capacity / self.num_queues + usize::from(q < c.hot_capacity % self.num_queues)
            }
        }
    }

    /// Charges the SRAM for one hot exact entry (slot + ring context),
    /// atomically: on failure nothing is held.
    fn charge_hot(sram: &mut Sram) -> Result<(), SramError> {
        sram.alloc(SramCategory::FlowTable, ENTRY_BYTES)?;
        if let Err(e) = sram.alloc(SramCategory::RingContext, RING_CONTEXT_BYTES) {
            sram.release(SramCategory::FlowTable, ENTRY_BYTES);
            return Err(e);
        }
        Ok(())
    }

    fn release_hot(sram: &mut Sram) {
        sram.release(SramCategory::FlowTable, ENTRY_BYTES);
        sram.release(SramCategory::RingContext, RING_CONTEXT_BYTES);
    }

    /// Stores `entry` in a free slab cell, off every list, and indexes it
    /// by id.
    fn store(&mut self, entry: ConnEntry) -> Resolved {
        let id = entry.id;
        let cell = Some(Slot {
            entry,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = cell;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("fewer than 2^32 - 1 flow entries");
                self.slab.push(cell);
                slot
            }
        };
        self.by_id.insert(id, slot);
        Resolved { slot, id }
    }

    /// Installs an exact-match connection on RSS queue `queue`.
    ///
    /// `tuple` is the RX-direction key (remote source, local destination).
    /// Untiered, the entry is hot and SRAM exhaustion refuses it (the
    /// legacy §5 failure). Tiered, the entry goes hot only if its queue
    /// slice and the SRAM both have room — overflowing to the cold tier
    /// otherwise, never failing.
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is already installed: a second entry under one
    /// key would orphan the first. The NIC's control entry points refuse
    /// such a request with a typed error before it gets here.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
        queue: u16,
        sram: &mut Sram,
    ) -> Result<(ConnId, FlowTier), SramError> {
        let id = ConnId(self.next_id);
        let tier = self.place_exact(id, tuple, uid, pid, comm, notify, queue, sram, false)?;
        self.next_id += 1;
        Ok((id, tier))
    }

    /// Reinstalls an exact-match connection under a *caller-chosen* id —
    /// the crash-recovery path, where the kernel re-populates a wiped
    /// table from its own connection records and the original ids must
    /// survive (ring keys, doorbell registers and process handles all
    /// reference them). SRAM exhaustion never fails a restore: entries
    /// that no longer fit the hot tier land cold (the control plane's
    /// reconcile re-tiers them under the committed policy afterwards), so
    /// conservation holds across both tiers — no connection is lost to a
    /// crash. Panics if the id or tuple is already taken. `next_id` is
    /// bumped past `id` so later fresh inserts never collide.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        &mut self,
        id: ConnId,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
        queue: u16,
        sram: &mut Sram,
    ) -> FlowTier {
        assert!(
            !self.by_id.contains_key(&id) && !self.exact.contains_key(&exact_key(&tuple)),
            "restore must target a free id and tuple"
        );
        let tier = self
            .place_exact(id, tuple, uid, pid, comm, notify, queue, sram, true)
            .expect("restore overflows to cold instead of failing");
        self.next_id = self.next_id.max(id.0 + 1);
        tier
    }

    /// Shared insert/restore body: decides the tier, charges SRAM, and
    /// registers the entry. `overflow` routes SRAM refusals to the cold
    /// tier instead of erroring (the restore path).
    #[allow(clippy::too_many_arguments)]
    fn place_exact(
        &mut self,
        id: ConnId,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
        queue: u16,
        sram: &mut Sram,
        overflow: bool,
    ) -> Result<FlowTier, SramError> {
        let q = usize::from(queue).min(self.num_queues - 1);
        let rank = self.rank_for(tuple.dst_port);
        let hot_eligible = rank > 0 && hot_len(&self.hot[q]) < self.queue_capacity(q);
        let tier = if hot_eligible {
            match Self::charge_hot(sram) {
                Ok(()) => FlowTier::Hot,
                Err(e) if self.cache.is_none() && !overflow => return Err(e),
                Err(_) => FlowTier::Cold,
            }
        } else {
            FlowTier::Cold
        };
        self.tick += 1;
        let at = self.store(ConnEntry {
            id,
            tuple,
            uid,
            pid,
            comm: telemetry::Comm::new(comm),
            notify,
            listener: false,
            tier,
            queue: q as u16,
            rank,
            last_use: self.tick,
        });
        match tier {
            // The newest tick in the table: the list's most recent entry.
            FlowTier::Hot => {
                push_back(&mut self.slab, &mut self.hot[q][usize::from(rank)], at.slot)
            }
            FlowTier::Cold => self.cold += 1,
        }
        let displaced = self.exact.insert(exact_key(&tuple), at);
        assert!(displaced.is_none(), "{tuple} installed twice");
        Ok(tier)
    }

    /// Reinstalls a listener under a caller-chosen id (crash recovery;
    /// see [`FlowTable::restore`]). Listeners are always hot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_listener(
        &mut self,
        id: ConnId,
        proto: IpProto,
        port: u16,
        uid: u32,
        pid: u32,
        comm: &str,
        sram: &mut Sram,
    ) -> Result<(), SramError> {
        assert!(
            !self.by_id.contains_key(&id) && !self.listeners.contains_key(&(proto, port)),
            "restore must target a free id and listener key"
        );
        sram.alloc(SramCategory::FlowTable, LISTENER_BYTES)?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.register_listener(id, proto, port, uid, pid, comm);
        Ok(())
    }

    /// Installs a listener for `(proto, local_port)`, charging SRAM.
    ///
    /// # Panics
    ///
    /// Panics if `(proto, port)` already has a listener (see
    /// [`FlowTable::insert`]).
    pub(crate) fn insert_listener(
        &mut self,
        proto: IpProto,
        port: u16,
        uid: u32,
        pid: u32,
        comm: &str,
        sram: &mut Sram,
    ) -> Result<ConnId, SramError> {
        sram.alloc(SramCategory::FlowTable, LISTENER_BYTES)?;
        let id = ConnId(self.next_id);
        self.next_id += 1;
        self.register_listener(id, proto, port, uid, pid, comm);
        Ok(id)
    }

    fn register_listener(
        &mut self,
        id: ConnId,
        proto: IpProto,
        port: u16,
        uid: u32,
        pid: u32,
        comm: &str,
    ) {
        let at = self.store(ConnEntry {
            id,
            // Listener entries have no remote endpoint; use a zeroed
            // tuple with only the local port meaningful.
            tuple: FiveTuple {
                src_ip: std::net::Ipv4Addr::UNSPECIFIED,
                dst_ip: std::net::Ipv4Addr::UNSPECIFIED,
                src_port: 0,
                dst_port: port,
                proto,
            },
            uid,
            pid,
            comm: telemetry::Comm::new(comm),
            notify: false,
            listener: true,
            tier: FlowTier::Hot,
            queue: 0,
            rank: u8::MAX,
            last_use: 0,
        });
        let displaced = self.listeners.insert((proto, port), at);
        assert!(
            displaced.is_none(),
            "{proto}/{port} listener installed twice"
        );
    }

    /// Removes a connection, returning its SRAM (per its tier).
    pub fn remove(&mut self, id: ConnId, sram: &mut Sram) -> bool {
        let Some(slot) = self.by_id.remove(&id) else {
            return false;
        };
        let e = &live(&mut self.slab, slot).entry;
        let (listener, tier, tuple) = (e.listener, e.tier, e.tuple);
        let (q, rank) = (usize::from(e.queue), usize::from(e.rank));
        if listener {
            self.listeners.remove(&(tuple.proto, tuple.dst_port));
            sram.release(SramCategory::FlowTable, LISTENER_BYTES);
        } else {
            self.exact.remove(&exact_key(&tuple));
            match tier {
                FlowTier::Hot => {
                    unlink(&mut self.slab, &mut self.hot[q][rank], slot);
                    Self::release_hot(sram);
                }
                FlowTier::Cold => self.cold -= 1,
            }
        }
        self.slab[slot as usize] = None;
        self.free.push(slot);
        true
    }

    /// The connection installed under exactly `tuple`, if any. No side
    /// effects: this is the control path's in-use check, not a lookup.
    pub(crate) fn exact_holder(&self, tuple: &FiveTuple) -> Option<ConnId> {
        self.exact.get(&exact_key(tuple)).map(|at| at.id)
    }

    /// The listener installed on `(proto, port)`, if any (as
    /// [`FlowTable::exact_holder`]).
    pub(crate) fn listener_holder(&self, proto: IpProto, port: u16) -> Option<ConnId> {
        self.listeners.get(&(proto, port)).map(|at| at.id)
    }

    /// Looks up the connection an RX-direction tuple steers to — exact
    /// match first, then a listener on the destination port — and applies
    /// the lookup's side effects: counters, recency, and — under a tiered
    /// policy — promotion of a cold hit into the hot tier (possibly
    /// demoting a victim). One hash probe, then indexed loads. Returns
    /// what the caller needs for latency accounting and lifecycle events.
    pub fn lookup(&mut self, tuple: &FiveTuple, sram: &mut Sram) -> Option<LookupHit> {
        self.stats.lookups += 1;
        let Some(&Resolved { slot, id }) = self
            .exact
            .get(&exact_key(tuple))
            .or_else(|| self.listeners.get(&(tuple.proto, tuple.dst_port)))
        else {
            self.stats.misses += 1;
            return None;
        };
        let e = &mut live(&mut self.slab, slot).entry;
        let mut hit = LookupHit {
            id,
            tier: e.tier,
            promoted: false,
            demoted: None,
            notify: e.notify,
            uid: e.uid,
            pid: e.pid,
            comm: e.comm,
        };
        // Listener hit: always hot, no recency bookkeeping (and no tick
        // consumed — listener hits must not perturb flow recency stamps).
        if e.listener {
            self.stats.hot_hits += 1;
            return Some(hit);
        }
        self.tick += 1;
        e.last_use = self.tick;
        let (q, rank) = (usize::from(e.queue), e.rank);
        match hit.tier {
            FlowTier::Hot => {
                self.stats.hot_hits += 1;
                let list = &mut self.hot[q][usize::from(rank)];
                if list.tail != slot {
                    unlink(&mut self.slab, list, slot);
                    push_back(&mut self.slab, list, slot);
                }
            }
            FlowTier::Cold => {
                self.stats.cold_hits += 1;
                if self.cache.is_some() && rank > 0 {
                    (hit.promoted, hit.demoted) = self.try_promote(slot, q, rank, sram);
                }
            }
        }
        Some(hit)
    }

    /// Attempts to promote the cold entry at `slot` (already
    /// recency-stamped) into queue `q`'s hot slice, demoting a victim if
    /// the policy allows.
    fn try_promote(
        &mut self,
        slot: u32,
        q: usize,
        rank: u8,
        sram: &mut Sram,
    ) -> (bool, Option<(ConnId, FiveTuple)>) {
        let cap = self.queue_capacity(q);
        let lists = &mut self.hot[q];
        let mut demoted = None;
        if hot_len(lists) >= cap {
            // Full: the lowest-ranked, least-recent hot entry is the only
            // candidate victim, and it must not outrank the newcomer.
            let Some(vrank) = lists.iter().position(|l| l.len > 0) else {
                // Zero-capacity slice: nothing can ever go hot here.
                self.stats.promotion_refusals += 1;
                return (false, None);
            };
            if vrank > usize::from(rank) {
                self.stats.promotion_refusals += 1;
                return (false, None);
            }
            let vslot = lists[vrank].head;
            unlink(&mut self.slab, &mut lists[vrank], vslot);
            let victim = &mut live(&mut self.slab, vslot).entry;
            victim.tier = FlowTier::Cold;
            demoted = Some((victim.id, victim.tuple));
            Self::release_hot(sram);
            self.cold += 1;
            self.stats.evictions += 1;
        }
        if Self::charge_hot(sram).is_err() {
            // SRAM exhausted by other categories; stay cold. (If a victim
            // was just demoted this cannot happen — its release freed
            // exactly what we need.)
            self.stats.promotion_refusals += 1;
            return (false, demoted);
        }
        live(&mut self.slab, slot).entry.tier = FlowTier::Hot;
        // Stamped with the newest tick by the hit that got us here.
        push_back(&mut self.slab, &mut lists[usize::from(rank)], slot);
        self.cold -= 1;
        self.stats.promotions += 1;
        (true, demoted)
    }

    /// Installs (or clears) the cache policy and re-tiers every exact
    /// entry deterministically under it: per queue, the highest-ranked,
    /// most-recent entries go hot up to the queue's slice of
    /// `hot_capacity` (and the SRAM budget); the rest go cold. `queue_of`
    /// maps each entry's RX tuple to its owning RSS queue (the same
    /// steering the dataplane uses), so hot-tier ownership follows the
    /// shards. Returns what moved, id-sorted, for lifecycle events.
    pub(crate) fn configure_cache<F: Fn(&FiveTuple) -> u16>(
        &mut self,
        cache: Option<FlowCacheConfig>,
        num_queues: usize,
        queue_of: F,
        sram: &mut Sram,
    ) -> RetierReport {
        assert!(num_queues > 0, "need at least one queue slice");
        self.cache = cache;
        self.num_queues = num_queues;
        // Every exact entry's slot, in id order.
        let mut slots: Vec<u32> = self.exact.values().map(|at| at.slot).collect();
        slots.sort_by_key(|&s| entry_at(&self.slab, s).id);
        for &s in &slots {
            let rank = self.rank_for(entry_at(&self.slab, s).tuple.dst_port);
            let entry = &mut live(&mut self.slab, s).entry;
            entry.queue = queue_of(&entry.tuple).min(num_queues as u16 - 1);
            entry.rank = rank;
        }
        // Desired hot set per queue: best (rank, recency) first.
        let mut by_queue: Vec<Vec<u32>> = vec![Vec::new(); num_queues];
        for &s in &slots {
            let e = entry_at(&self.slab, s);
            if e.rank > 0 {
                by_queue[usize::from(e.queue)].push(s);
            }
        }
        let mut desired = vec![false; self.slab.len()];
        for (q, group) in by_queue.iter_mut().enumerate() {
            group.sort_by_key(|&s| {
                let e = entry_at(&self.slab, s);
                (
                    std::cmp::Reverse(e.rank),
                    std::cmp::Reverse(e.last_use),
                    e.id,
                )
            });
            let cap = self.queue_capacity(q).min(group.len());
            for &s in &group[..cap] {
                desired[s as usize] = true;
            }
        }
        let mut report = RetierReport::default();
        // Demotions first, freeing SRAM for the promotions.
        for &s in &slots {
            let e = &mut live(&mut self.slab, s).entry;
            if e.tier == FlowTier::Hot && !desired[s as usize] {
                e.tier = FlowTier::Cold;
                report.demoted.push((e.id, e.tuple));
                Self::release_hot(sram);
                self.cold += 1;
                self.stats.evictions += 1;
            }
        }
        for &s in &slots {
            let e = &mut live(&mut self.slab, s).entry;
            if e.tier == FlowTier::Cold && desired[s as usize] {
                // SRAM shared with programs/NAT may refuse; refused
                // entries stay cold (deterministically: id order).
                if Self::charge_hot(sram).is_ok() {
                    e.tier = FlowTier::Hot;
                    report.promoted.push((e.id, e.tuple));
                    self.cold -= 1;
                    self.stats.promotions += 1;
                } else {
                    self.stats.promotion_refusals += 1;
                }
            }
        }
        // Rebuild the per-queue victim order from the entries' new state:
        // appended in ascending `last_use`, every list comes out sorted.
        self.hot = vec![[RecencyList::EMPTY; RANKS]; num_queues];
        slots.retain(|&s| entry_at(&self.slab, s).tier == FlowTier::Hot);
        slots.sort_by_key(|&s| entry_at(&self.slab, s).last_use);
        for s in slots {
            let e = entry_at(&self.slab, s);
            let (q, rank) = (usize::from(e.queue), usize::from(e.rank));
            push_back(&mut self.slab, &mut self.hot[q][rank], s);
        }
        report
    }

    /// Internal-consistency audit: the indexes, the recency lists, the
    /// tier tags and the cold counter must describe the same partition of
    /// the entries, and every list must be in victim order.
    pub(crate) fn audit_tiers(&self) -> Vec<Violation> {
        const NONE: u64 = Violation::NONE;
        let mut violations = Vec::new();
        let v = &mut violations;
        let cell = |slot: u32| self.slab.get(slot as usize).and_then(Option::as_ref);
        // Indexes → slab: no dangling slot, no entry filed under a key or
        // id that is not its own.
        let misfiled =
            |at: &Resolved| Violation::new(Check::FlowIndex, at.slot.into(), NONE).at(at.id.0);
        for (&id, &slot) in &self.by_id {
            if cell(slot).map(|s| s.entry.id) != Some(id) {
                v.push(misfiled(&Resolved { id, slot }));
            }
        }
        // The entry an index value names, if the slot still holds it.
        let own = |at: &Resolved| cell(at.slot).map(|s| &s.entry).filter(|e| e.id == at.id);
        let (mut hot_tagged, mut cold_tagged) = (0, 0);
        for (key, at) in &self.exact {
            match own(at).filter(|e| !e.listener && exact_key(&e.tuple) == *key) {
                Some(e) if e.tier == FlowTier::Hot => hot_tagged += 1,
                Some(_) => cold_tagged += 1,
                None => v.push(misfiled(at)),
            }
        }
        for (key, at) in &self.listeners {
            if !own(at).is_some_and(|e| e.listener && (e.tuple.proto, e.tuple.dst_port) == *key) {
                v.push(misfiled(at));
            }
        }
        let occupied = self.slab.iter().flatten().count() as u64;
        check(v, Check::FlowSlabIds, self.by_id.len() as u64, occupied);
        let cells = occupied + self.free.len() as u64;
        check(v, Check::FlowSlabCells, self.slab.len() as u64, cells);
        check(v, Check::FlowHotTagged, self.num_hot() as u64, hot_tagged);
        check(v, Check::FlowColdTagged, self.cold as u64, cold_tagged);
        let queues = self.hot.len() as u64;
        check(v, Check::FlowQueueSlices, self.num_queues as u64, queues);
        for (q, lists) in (0u64..).zip(&self.hot) {
            for (rank, list) in (0u64..).zip(lists) {
                let name = q * RANKS as u64 + rank;
                if rank == 0 {
                    check_at(v, Check::ListRankZero, name, 0, list.len as u64);
                }
                // Walk at most one step past the recorded length, so a
                // cycle reads as a wrong length instead of hanging.
                let (mut walked, mut prev, mut at) = (0usize, NIL, list.head);
                let mut last_use = 0;
                while at != NIL && walked <= list.len {
                    let Some(s) = cell(at) else {
                        v.push(Violation::new(Check::ListDangling, NONE, at.into()).at(name));
                        break;
                    };
                    let (e, id) = (&s.entry, s.entry.id.0);
                    let hot = !e.listener && e.tier == FlowTier::Hot;
                    let queue = if hot { e.queue.into() } else { NONE };
                    check_at(v, Check::ListMember, id, q, queue);
                    check_at(v, Check::ListRank, id, rank, e.rank.into());
                    if e.last_use <= last_use {
                        v.push(Violation::new(Check::ListOrder, last_use, e.last_use).at(id));
                    }
                    check_at(v, Check::ListBackLink, id, prev.into(), s.prev.into());
                    last_use = e.last_use;
                    (prev, at) = (at, s.next);
                    walked += 1;
                }
                check_at(v, Check::ListLength, name, list.len as u64, walked as u64);
                if at == NIL {
                    check_at(v, Check::ListTail, name, list.tail.into(), prev.into());
                }
            }
            let hot = hot_len(lists) as u64;
            let slice = self.queue_capacity(q as usize) as u64;
            if hot > slice {
                v.push(Violation::new(Check::QueueHotBudget, slice, hot).at(q));
            }
        }
        violations
    }

    /// Returns the entry for a connection id.
    pub(crate) fn entry(&self, id: ConnId) -> Option<&ConnEntry> {
        self.by_id.get(&id).map(|&slot| entry_at(&self.slab, slot))
    }

    /// Iterates over all entries (for `knetstat`).
    pub fn entries(&self) -> impl Iterator<Item = &ConnEntry> {
        self.slab.iter().flatten().map(|s| &s.entry)
    }
}

#[cfg(test)]
#[path = "flowtable_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn tuple(sp: u16, dp: u16) -> FiveTuple {
        FiveTuple::udp(addr("10.0.0.2"), sp, addr("10.0.0.1"), dp)
    }

    /// Hot footprint of one exact entry.
    const HOT_BYTES: u64 = ENTRY_BYTES + RING_CONTEXT_BYTES;

    fn insert(ft: &mut FlowTable, sram: &mut Sram, sp: u16, dp: u16) -> (ConnId, FlowTier) {
        ft.insert(tuple(sp, dp), 0, 1, "app", false, 0, sram)
            .unwrap()
    }

    fn hit(ft: &mut FlowTable, sram: &mut Sram, sp: u16, dp: u16) -> LookupHit {
        ft.lookup(&tuple(sp, dp), sram).expect("hit")
    }

    #[test]
    fn exact_match_beats_listener() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let listener = ft
            .insert_listener(IpProto::UDP, 53, 0, 1, "dnsd", &mut sram)
            .unwrap();
        let (conn, tier) = ft
            .insert(tuple(9999, 53), 1001, 42, "resolver", false, 0, &mut sram)
            .unwrap();
        assert_eq!(tier, FlowTier::Hot);
        assert_eq!(ft.lookup(&tuple(9999, 53), &mut sram).unwrap().id, conn);
        // A different remote port falls back to the listener.
        assert_eq!(ft.lookup(&tuple(1234, 53), &mut sram).unwrap().id, listener);
    }

    #[test]
    fn miss_is_counted() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        assert_eq!(ft.lookup(&tuple(1, 2), &mut sram), None);
        assert_eq!(ft.counters(), (1, 1));
    }

    #[test]
    fn entries_carry_process_attribution() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let (id, _) = ft
            .insert(tuple(5000, 5432), 1001, 314, "postgres", true, 0, &mut sram)
            .unwrap();
        let e = ft.entry(id).unwrap();
        assert_eq!(e.uid, 1001);
        assert_eq!(e.pid, 314);
        assert_eq!(e.comm, "postgres");
        assert!(e.notify);
        assert_eq!(e.tier, FlowTier::Hot);
    }

    #[test]
    fn hot_entry_charges_slot_and_ring_context() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let (id, _) = insert(&mut ft, &mut sram, 1, 2);
        assert_eq!(sram.used_by(SramCategory::FlowTable), ENTRY_BYTES);
        assert_eq!(sram.used_by(SramCategory::RingContext), RING_CONTEXT_BYTES);
        assert!(ft.remove(id, &mut sram));
        assert_eq!(sram.used(), 0);
        assert!(!ft.remove(id, &mut sram));
    }

    #[test]
    fn untiered_sram_exhaustion_refuses_connection() {
        let mut sram = Sram::new(HOT_BYTES + HOT_BYTES / 2);
        let mut ft = FlowTable::new();
        insert(&mut ft, &mut sram, 1, 2);
        let err = ft
            .insert(tuple(3, 4), 0, 1, "b", false, 0, &mut sram)
            .unwrap_err();
        assert_eq!(err.category, SramCategory::RingContext);
        // The table did not register a half-installed connection, and the
        // failed attempt holds no SRAM.
        assert_eq!(ft.len(), 1);
        assert_eq!(sram.used(), HOT_BYTES);
        assert_eq!(ft.lookup(&tuple(3, 4), &mut sram), None);
    }

    #[test]
    fn tiered_insert_overflows_to_cold() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        ft.configure_cache(Some(FlowCacheConfig::lru(2)), 1, |_| 0, &mut sram);
        insert(&mut ft, &mut sram, 1, 80);
        insert(&mut ft, &mut sram, 2, 80);
        let (_, tier) = insert(&mut ft, &mut sram, 3, 80);
        assert_eq!(tier, FlowTier::Cold);
        assert_eq!((ft.num_hot(), ft.num_cold()), (2, 1));
        assert_eq!(
            sram.used_by(SramCategory::RingContext),
            2 * RING_CONTEXT_BYTES
        );
        assert!(ft.audit_tiers().is_empty(), "{:?}", ft.audit_tiers());
    }

    #[test]
    fn lru_cold_hit_promotes_and_evicts_lru_victim() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        ft.configure_cache(Some(FlowCacheConfig::lru(2)), 1, |_| 0, &mut sram);
        let (a, _) = insert(&mut ft, &mut sram, 1, 80);
        let (b, _) = insert(&mut ft, &mut sram, 2, 80);
        let (c, _) = insert(&mut ft, &mut sram, 3, 80); // cold
                                                        // Touch a so b becomes the LRU victim.
        assert_eq!(hit(&mut ft, &mut sram, 1, 80).tier, FlowTier::Hot);
        let h = hit(&mut ft, &mut sram, 3, 80);
        assert_eq!(h.tier, FlowTier::Cold); // paid the cold walk...
        assert!(h.promoted); // ...and was promoted for next time
        assert_eq!(h.demoted, Some((b, tuple(2, 80))));
        assert_eq!(ft.tier_of(c), Some(FlowTier::Hot));
        assert_eq!(ft.tier_of(a), Some(FlowTier::Hot));
        assert_eq!(ft.tier_of(b), Some(FlowTier::Cold));
        let s = ft.stats();
        assert_eq!((s.promotions, s.evictions, s.cold_hits), (1, 1, 1));
        assert!(ft.audit_tiers().is_empty(), "{:?}", ft.audit_tiers());
    }

    #[test]
    fn priority_aware_protects_high_prio_from_normal_churn() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        ft.configure_cache(
            Some(FlowCacheConfig::priority_aware(1, &[443])),
            1,
            |_| 0,
            &mut sram,
        );
        let (hi, _) = ft
            .insert(tuple(1, 443), 0, 1, "tls", false, 0, &mut sram)
            .unwrap();
        insert(&mut ft, &mut sram, 2, 80); // cold (table full)
                                           // A storm of normal-traffic cold hits cannot displace the
                                           // high-priority resident.
        for _ in 0..3 {
            let h = hit(&mut ft, &mut sram, 2, 80);
            assert!(!h.promoted);
        }
        assert_eq!(ft.tier_of(hi), Some(FlowTier::Hot));
        assert_eq!(ft.stats().promotion_refusals, 3);
        // But a high-priority cold entry displaces a normal resident.
        let mut ft2 = FlowTable::new();
        ft2.configure_cache(
            Some(FlowCacheConfig::priority_aware(1, &[443])),
            1,
            |_| 0,
            &mut sram,
        );
        let (norm, _) = ft2
            .insert(tuple(5, 80), 0, 1, "web", false, 0, &mut sram)
            .unwrap();
        let (hi2, _) = ft2
            .insert(tuple(6, 443), 0, 1, "tls", false, 0, &mut sram)
            .unwrap();
        let h = ft2.lookup(&tuple(6, 443), &mut sram).unwrap();
        assert!(h.promoted);
        assert_eq!(h.demoted.map(|d| d.0), Some(norm));
        assert_eq!(ft2.tier_of(hi2), Some(FlowTier::Hot));
    }

    #[test]
    fn pinned_mode_keeps_unpinned_cold_forever() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        ft.configure_cache(Some(FlowCacheConfig::pinned(4, &[22])), 1, |_| 0, &mut sram);
        let (ssh, t) = ft
            .insert(tuple(1, 22), 0, 1, "sshd", false, 0, &mut sram)
            .unwrap();
        assert_eq!(t, FlowTier::Hot);
        let (web, t) = insert(&mut ft, &mut sram, 2, 80);
        assert_eq!(t, FlowTier::Cold);
        // Free hot space, yet the unpinned flow never promotes.
        for _ in 0..3 {
            assert!(!hit(&mut ft, &mut sram, 2, 80).promoted);
        }
        assert_eq!(ft.tier_of(web), Some(FlowTier::Cold));
        assert_eq!(ft.tier_of(ssh), Some(FlowTier::Hot));
    }

    #[test]
    fn per_queue_slices_are_shard_local() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        // 3 slots over 2 queues: queue 0 gets 2, queue 1 gets 1.
        ft.configure_cache(
            Some(FlowCacheConfig::lru(3)),
            2,
            |t| t.src_port % 2,
            &mut sram,
        );
        for sp in [2u16, 4, 6] {
            let (_, tier) = ft
                .insert(tuple(sp, 80), 0, 1, "a", false, sp % 2, &mut sram)
                .unwrap();
            assert_eq!(
                tier,
                if sp == 6 {
                    FlowTier::Cold
                } else {
                    FlowTier::Hot
                }
            );
        }
        // Queue 1 has its own slot: churn on queue 0 cannot consume it.
        let (_, tier) = ft
            .insert(tuple(3, 80), 0, 1, "a", false, 1, &mut sram)
            .unwrap();
        assert_eq!(tier, FlowTier::Hot);
        assert_eq!(ft.num_hot_on_queue(0), 2);
        assert_eq!(ft.num_hot_on_queue(1), 1);
        // A cold hit on queue 0 evicts only queue-0 state.
        let h = hit(&mut ft, &mut sram, 6, 80);
        assert!(h.promoted);
        assert_eq!(ft.num_hot_on_queue(1), 1);
        assert!(ft.audit_tiers().is_empty(), "{:?}", ft.audit_tiers());
    }

    #[test]
    fn retier_demotes_and_promotes_deterministically() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        for sp in 1..=4 {
            insert(&mut ft, &mut sram, sp, 80);
        }
        let (hi, _) = ft
            .insert(tuple(9, 443), 0, 1, "tls", false, 0, &mut sram)
            .unwrap();
        // Committing a 2-slot priority policy keeps the high-prio entry
        // plus the most recent normal one.
        let report = ft.configure_cache(
            Some(FlowCacheConfig::priority_aware(2, &[443])),
            1,
            |_| 0,
            &mut sram,
        );
        assert_eq!(report.demoted.len(), 3);
        assert!(report.promoted.is_empty());
        assert_eq!(ft.tier_of(hi), Some(FlowTier::Hot));
        assert_eq!((ft.num_hot(), ft.num_cold()), (2, 3));
        assert_eq!(
            sram.used(),
            2 * HOT_BYTES,
            "demoted entries release slot + ring context"
        );
        // Dropping the policy re-promotes everything (SRAM permitting).
        let report = ft.configure_cache(None, 1, |_| 0, &mut sram);
        assert_eq!(report.promoted.len(), 3);
        assert_eq!((ft.num_hot(), ft.num_cold()), (5, 0));
        assert!(ft.audit_tiers().is_empty(), "{:?}", ft.audit_tiers());
    }

    #[test]
    fn restore_preserves_ids_and_avoids_collisions() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let (a, _) = insert(&mut ft, &mut sram, 1, 2);
        let (b, _) = ft
            .insert(tuple(3, 4), 0, 2, "b", true, 0, &mut sram)
            .unwrap();
        let lst = ft
            .insert_listener(IpProto::UDP, 53, 0, 3, "dnsd", &mut sram)
            .unwrap();
        // Crash: table wiped, SRAM reallocated fresh.
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        assert_eq!(
            ft.restore(b, tuple(3, 4), 0, 2, "b", true, 0, &mut sram),
            FlowTier::Hot
        );
        assert_eq!(
            ft.restore(a, tuple(1, 2), 0, 1, "a", false, 0, &mut sram),
            FlowTier::Hot
        );
        ft.restore_listener(lst, IpProto::UDP, 53, 0, 3, "dnsd", &mut sram)
            .unwrap();
        assert_eq!(ft.lookup(&tuple(1, 2), &mut sram).unwrap().id, a);
        assert_eq!(ft.lookup(&tuple(3, 4), &mut sram).unwrap().id, b);
        assert_eq!(ft.lookup(&tuple(9, 53), &mut sram).unwrap().id, lst);
        assert!(ft.entry(b).unwrap().notify);
        // Fresh inserts after restore never reuse a restored id.
        let (c, _) = insert(&mut ft, &mut sram, 5, 6);
        assert!(c.0 > a.0.max(b.0).max(lst.0));
    }

    #[test]
    fn restore_overflows_to_cold_not_panic() {
        // SRAM for exactly one hot entry: the second restore must land
        // cold (crash recovery cannot lose connections), and conservation
        // spans both tiers.
        let mut sram = Sram::new(HOT_BYTES + LISTENER_BYTES);
        let mut ft = FlowTable::new();
        assert_eq!(
            ft.restore(ConnId(0), tuple(1, 2), 0, 1, "a", false, 0, &mut sram),
            FlowTier::Hot
        );
        assert_eq!(
            ft.restore(ConnId(1), tuple(3, 4), 0, 1, "b", false, 0, &mut sram),
            FlowTier::Cold
        );
        assert_eq!((ft.num_hot(), ft.num_cold()), (1, 1));
        // Both connections still match.
        assert!(ft.lookup(&tuple(3, 4), &mut sram).is_some());
        assert!(ft.audit_tiers().is_empty(), "{:?}", ft.audit_tiers());
    }

    #[test]
    fn removed_connection_stops_matching() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let (id, _) = insert(&mut ft, &mut sram, 7, 8);
        ft.remove(id, &mut sram);
        assert_eq!(ft.lookup(&tuple(7, 8), &mut sram), None);
    }

    #[test]
    fn cold_remove_releases_nothing() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        ft.configure_cache(Some(FlowCacheConfig::lru(1)), 1, |_| 0, &mut sram);
        insert(&mut ft, &mut sram, 1, 80);
        let (cold, tier) = insert(&mut ft, &mut sram, 2, 80);
        assert_eq!(tier, FlowTier::Cold);
        let used = sram.used();
        assert!(ft.remove(cold, &mut sram));
        assert_eq!(sram.used(), used);
        assert_eq!(ft.num_cold(), 0);
    }
}
