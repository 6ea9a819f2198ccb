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
//! tier** of SRAM-resident entries ([`crate::sram`]: entry slot + DMA
//! ring context, charged atomically) and an unbounded **cold tier** in
//! host memory that costs no SRAM but pays a host-walk latency on every
//! lookup. Promotion and eviction between the tiers are driven by a
//! kernel-programmable [`FlowCacheConfig`] (LRU, priority-aware, or
//! pinned), with victims tracked per RSS queue so each worker shard owns
//! its slice of the hot tier — shared-nothing by construction. Without a
//! committed policy the table is *untiered*: every insert is hot and
//! exhaustion is an insert failure, exactly the pre-hierarchy behavior
//! (§5's resource-exhaustion concern).

use std::collections::BTreeSet;

use sim::FastMap;

use pkt::{FiveTuple, IpProto};

use crate::sram::{Sram, SramCategory, SramError};

/// A connection identifier on the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConnId(pub u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// SRAM cost of one exact-match entry (key + state + ring context
/// pointers), approximating a hardware CAM/hash slot.
pub const ENTRY_BYTES: u64 = 128;

/// SRAM cost of one listener entry.
pub const LISTENER_BYTES: u64 = 32;

/// SRAM charged per *hot* connection for its on-NIC DMA ring context
/// (descriptor state cached on-board). Cold connections keep their ring
/// context in host memory: no SRAM charge, dearer lookups.
pub const RING_CONTEXT_BYTES: u64 = 512;

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
    pub id: ConnId,
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
    pub notify: bool,
    /// Which tier the entry currently occupies (listeners are always
    /// hot: they are tiny and catch first packets).
    pub tier: FlowTier,
    /// The RSS queue that owns this entry's hot-tier slice.
    pub queue: u16,
    /// Eviction rank under the active cache policy (recomputed on every
    /// policy commit).
    pub rank: u8,
    /// Logical clock of the last lookup hit (promotion recency).
    pub last_use: u64,
}

impl ConnEntry {
    /// The process binding, as trace events and taps attribute it.
    pub fn owner(&self) -> telemetry::Owner {
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
    pub promoted: bool,
    /// The victim this promotion demoted to make room, if any.
    pub demoted: Option<(ConnId, FiveTuple)>,
    /// Whether the connection requested notifications — copied out of
    /// the entry at probe time so the RX completion path can steer
    /// without a second table probe.
    pub notify: bool,
    /// Owning user (copied at probe time, as above).
    pub uid: u32,
    /// Owning process (copied at probe time, as above).
    pub pid: u32,
    /// Owning command name (copied at probe time, as above — observers
    /// attribute the frame without a second probe for the entry).
    pub comm: telemetry::Comm,
}

/// Tier/churn counters (registry keys `flowtable.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
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
pub struct RetierReport {
    /// Entries promoted cold→hot.
    pub promoted: Vec<(ConnId, FiveTuple)>,
    /// Entries demoted hot→cold.
    pub demoted: Vec<(ConnId, FiveTuple)>,
}

/// Victim-ordering key: `(rank, last_use, id)` ascending, so the minimum
/// element is the lowest-ranked, least-recently-used hot entry.
type VictimKey = (u8, u64, u64);

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

/// The flow table.
pub struct FlowTable {
    /// Exact-match index, keyed by the packed tuple ([`exact_key`]).
    exact: FastMap<u128, ConnId>,
    listeners: FastMap<(IpProto, u16), ConnId>,
    entries: FastMap<ConnId, ConnEntry>,
    /// Active cache policy; `None` = untiered boot behavior.
    cache: Option<FlowCacheConfig>,
    /// RSS queue count the hot tier is sliced across.
    num_queues: usize,
    /// Per-queue victim order over hot exact entries.
    hot: Vec<BTreeSet<VictimKey>>,
    /// Cold exact-entry count (the hot count is the victim sets' total).
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
            entries: FastMap::default(),
            cache: None,
            num_queues: 1,
            hot: vec![BTreeSet::new()],
            cold: 0,
            next_id: 0,
            tick: 0,
            stats: FlowStats::default(),
        }
    }

    /// Returns the number of exact-match entries (both tiers).
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Returns the number of exact-match entries (alias of `len`, named
    /// for audit readability).
    pub fn num_exact(&self) -> usize {
        self.exact.len()
    }

    /// Returns the number of hot-tier exact-match entries.
    pub fn num_hot(&self) -> usize {
        self.hot.iter().map(BTreeSet::len).sum()
    }

    /// Returns the number of cold-tier exact-match entries.
    pub fn num_cold(&self) -> usize {
        self.cold
    }

    /// Returns the number of hot entries owned by RSS queue `q`.
    pub fn num_hot_on_queue(&self, q: usize) -> usize {
        self.hot.get(q).map_or(0, BTreeSet::len)
    }

    /// Returns the number of listener entries.
    pub fn num_listeners(&self) -> usize {
        self.listeners.len()
    }

    /// Returns the total number of entry records (exact + listeners).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no connections are installed.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.listeners.is_empty()
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
    pub fn cache_config(&self) -> Option<&FlowCacheConfig> {
        self.cache.as_ref()
    }

    /// Returns the tier of connection `id`, if it exists.
    pub fn tier_of(&self, id: ConnId) -> Option<FlowTier> {
        self.entries.get(&id).map(|e| e.tier)
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

    fn victim_key(e: &ConnEntry) -> VictimKey {
        (e.rank, e.last_use, e.id.0)
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

    /// Installs an exact-match connection on RSS queue `queue`.
    ///
    /// `tuple` is the RX-direction key (remote source, local destination).
    /// Untiered, the entry is hot and SRAM exhaustion refuses it (the
    /// legacy §5 failure). Tiered, the entry goes hot only if its queue
    /// slice and the SRAM both have room — overflowing to the cold tier
    /// otherwise, never failing.
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

    /// Deprecated pre-tiering installer: single-queue, legacy signature.
    #[deprecated(note = "use FlowTable::insert, which routes through the tiered cache")]
    pub fn install(
        &mut self,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
        sram: &mut Sram,
    ) -> Result<ConnId, SramError> {
        self.insert(tuple, uid, pid, comm, notify, 0, sram)
            .map(|(id, _)| id)
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
    pub fn restore(
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
            !self.entries.contains_key(&id) && !self.exact.contains_key(&exact_key(&tuple)),
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
        let hot_eligible = rank > 0 && self.hot[q].len() < self.queue_capacity(q);
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
        let entry = ConnEntry {
            id,
            tuple,
            uid,
            pid,
            comm: telemetry::Comm::new(comm),
            notify,
            tier,
            queue: q as u16,
            rank,
            last_use: self.tick,
        };
        match tier {
            FlowTier::Hot => {
                self.hot[q].insert(Self::victim_key(&entry));
            }
            FlowTier::Cold => self.cold += 1,
        }
        self.exact.insert(exact_key(&tuple), id);
        self.entries.insert(id, entry);
        Ok(tier)
    }

    /// Reinstalls a listener under a caller-chosen id (crash recovery;
    /// see [`FlowTable::restore`]). Listeners are always hot.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_listener(
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
            !self.entries.contains_key(&id) && !self.listeners.contains_key(&(proto, port)),
            "restore must target a free id and listener key"
        );
        sram.alloc(SramCategory::FlowTable, LISTENER_BYTES)?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.register_listener(id, proto, port, uid, pid, comm);
        Ok(())
    }

    /// Installs a listener for `(proto, local_port)`, charging SRAM.
    pub fn insert_listener(
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
        self.listeners.insert((proto, port), id);
        self.entries.insert(
            id,
            ConnEntry {
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
                tier: FlowTier::Hot,
                queue: 0,
                rank: u8::MAX,
                last_use: 0,
            },
        );
    }

    /// Removes a connection, returning its SRAM (per its tier).
    pub fn remove(&mut self, id: ConnId, sram: &mut Sram) -> bool {
        let Some(entry) = self.entries.remove(&id) else {
            return false;
        };
        if self.exact.remove(&exact_key(&entry.tuple)).is_some() {
            match entry.tier {
                FlowTier::Hot => {
                    self.hot[usize::from(entry.queue)].remove(&Self::victim_key(&entry));
                    Self::release_hot(sram);
                }
                FlowTier::Cold => self.cold -= 1,
            }
        } else if self
            .listeners
            .remove(&(entry.tuple.proto, entry.tuple.dst_port))
            .is_some()
        {
            sram.release(SramCategory::FlowTable, LISTENER_BYTES);
        }
        true
    }

    /// Pure steering resolution for an RX-direction tuple: exact match
    /// first, then a listener on the destination port. No counters, no
    /// recency, no promotion — pair with [`FlowTable::touch_lookup`],
    /// which applies those side effects in arrival order (the split that
    /// keeps batched lookups byte-identical to sequential ones).
    pub fn resolve(&self, tuple: &FiveTuple) -> Option<ConnId> {
        self.exact
            .get(&exact_key(tuple))
            .or_else(|| self.listeners.get(&(tuple.proto, tuple.dst_port)))
            .copied()
    }

    /// Batched [`FlowTable::resolve`]: probes in flow-hash order — the
    /// way hardware bank-sorts a burst to maximize SRAM locality — and
    /// returns results in the caller's original order, coalescing
    /// same-flow runs into one probe. Pure: tier movements never change
    /// which connection a tuple steers to, so resolution order is free.
    pub fn resolve_batch(&self, queries: &[(u32, FiveTuple)]) -> Vec<Option<ConnId>> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| queries[i].0);
        let mut results = vec![None; queries.len()];
        let mut prev: Option<(usize, Option<ConnId>)> = None;
        for i in order {
            results[i] = match prev {
                Some((p, hit)) if queries[p].1 == queries[i].1 => hit,
                _ => self.resolve(&queries[i].1),
            };
            prev = Some((i, results[i]));
        }
        results
    }

    /// Applies the stateful half of one lookup: counters, recency, and —
    /// under a tiered policy — promotion of cold hits into the hot tier
    /// (possibly demoting a victim). Returns what the caller needs for
    /// latency accounting and lifecycle events.
    pub fn touch_lookup(&mut self, resolved: Option<ConnId>, sram: &mut Sram) -> Option<LookupHit> {
        self.stats.lookups += 1;
        let Some(id) = resolved else {
            self.stats.misses += 1;
            return None;
        };
        // One probe serves both the listener check and the recency
        // update: `entries`, `listeners`, `stats`, and `tick` are
        // disjoint fields, so the mutable entry borrow can stay live
        // across them.
        let entry = self.entries.get_mut(&id).expect("resolved id has an entry");
        // Listener hit: always hot, no recency bookkeeping (and no tick
        // consumed — listener hits must not perturb flow recency stamps).
        if self
            .listeners
            .get(&(entry.tuple.proto, entry.tuple.dst_port))
            == Some(&id)
        {
            self.stats.hot_hits += 1;
            return Some(LookupHit {
                id,
                tier: FlowTier::Hot,
                promoted: false,
                demoted: None,
                notify: entry.notify,
                uid: entry.uid,
                pid: entry.pid,
                comm: entry.comm,
            });
        }
        self.tick += 1;
        let tick = self.tick;
        let q = usize::from(entry.queue);
        match entry.tier {
            FlowTier::Hot => {
                self.stats.hot_hits += 1;
                let old = Self::victim_key(entry);
                entry.last_use = tick;
                let new = Self::victim_key(entry);
                let (notify, uid, pid, comm) = (entry.notify, entry.uid, entry.pid, entry.comm);
                let set = &mut self.hot[q];
                set.remove(&old);
                set.insert(new);
                Some(LookupHit {
                    id,
                    tier: FlowTier::Hot,
                    promoted: false,
                    demoted: None,
                    notify,
                    uid,
                    pid,
                    comm,
                })
            }
            FlowTier::Cold => {
                self.stats.cold_hits += 1;
                entry.last_use = tick;
                let rank = entry.rank;
                let (notify, uid, pid, comm) = (entry.notify, entry.uid, entry.pid, entry.comm);
                let (promoted, demoted) = if self.cache.is_some() && rank > 0 {
                    self.try_promote(id, q, sram)
                } else {
                    (false, None)
                };
                Some(LookupHit {
                    id,
                    tier: FlowTier::Cold,
                    promoted,
                    demoted,
                    notify,
                    uid,
                    pid,
                    comm,
                })
            }
        }
    }

    /// Attempts to promote cold entry `id` (already recency-stamped) into
    /// queue `q`'s hot slice, demoting a victim if the policy allows.
    fn try_promote(
        &mut self,
        id: ConnId,
        q: usize,
        sram: &mut Sram,
    ) -> (bool, Option<(ConnId, FiveTuple)>) {
        let cap = self.queue_capacity(q);
        let candidate_rank = self.entries[&id].rank;
        let mut demoted = None;
        if self.hot[q].len() >= cap {
            // Full: the lowest-ranked, least-recent hot entry is the only
            // candidate victim, and it must not outrank the newcomer.
            let Some(&victim_key) = self.hot[q].first() else {
                // Zero-capacity slice: nothing can ever go hot here.
                self.stats.promotion_refusals += 1;
                return (false, None);
            };
            let (vrank, _, vid) = victim_key;
            if vrank > candidate_rank {
                self.stats.promotion_refusals += 1;
                return (false, None);
            }
            self.hot[q].remove(&victim_key);
            let victim = self.entries.get_mut(&ConnId(vid)).expect("victim exists");
            victim.tier = FlowTier::Cold;
            let vtuple = victim.tuple;
            Self::release_hot(sram);
            self.cold += 1;
            self.stats.evictions += 1;
            demoted = Some((ConnId(vid), vtuple));
        }
        if Self::charge_hot(sram).is_err() {
            // SRAM exhausted by other categories; stay cold. (If a victim
            // was just demoted this cannot happen — its release freed
            // exactly what we need.)
            self.stats.promotion_refusals += 1;
            return (false, demoted);
        }
        let entry = self.entries.get_mut(&id).expect("candidate exists");
        entry.tier = FlowTier::Hot;
        self.hot[q].insert(Self::victim_key(entry));
        self.cold -= 1;
        self.stats.promotions += 1;
        (true, demoted)
    }

    /// Looks up the connection for an RX-direction tuple, with full side
    /// effects (counters, recency, promotion).
    pub fn lookup(&mut self, tuple: &FiveTuple, sram: &mut Sram) -> Option<LookupHit> {
        let resolved = self.resolve(tuple);
        self.touch_lookup(resolved, sram)
    }

    /// Batched lookup: hash-sorted resolution, then side effects applied
    /// in the caller's arrival order — the outcome (results, counters,
    /// tier movements) is identical to issuing [`FlowTable::lookup`] once
    /// per query in arrival order.
    pub fn lookup_batch(
        &mut self,
        queries: &[(u32, FiveTuple)],
        sram: &mut Sram,
    ) -> Vec<Option<LookupHit>> {
        self.resolve_batch(queries)
            .into_iter()
            .map(|r| self.touch_lookup(r, sram))
            .collect()
    }

    /// Installs (or clears) the cache policy and re-tiers every exact
    /// entry deterministically under it: per queue, the highest-ranked,
    /// most-recent entries go hot up to the queue's slice of
    /// `hot_capacity` (and the SRAM budget); the rest go cold. `queue_of`
    /// maps each entry's RX tuple to its owning RSS queue (the same
    /// steering the dataplane uses), so hot-tier ownership follows the
    /// shards. Returns what moved, id-sorted, for lifecycle events.
    pub fn configure_cache<F: Fn(&FiveTuple) -> u16>(
        &mut self,
        cache: Option<FlowCacheConfig>,
        num_queues: usize,
        queue_of: F,
        sram: &mut Sram,
    ) -> RetierReport {
        assert!(num_queues > 0, "need at least one queue slice");
        self.cache = cache;
        self.num_queues = num_queues;
        let mut ids: Vec<ConnId> = self.exact.values().copied().collect();
        ids.sort();
        for &id in &ids {
            let rank = self
                .cache
                .as_ref()
                .map_or(1, |c| c.rank_of(self.entries[&id].tuple.dst_port));
            let entry = self.entries.get_mut(&id).expect("exact id has an entry");
            entry.queue = queue_of(&entry.tuple).min(num_queues as u16 - 1);
            entry.rank = rank;
        }
        // Desired hot set per queue: best (rank, recency) first.
        let mut by_queue: Vec<Vec<ConnId>> = vec![Vec::new(); num_queues];
        for &id in &ids {
            let e = &self.entries[&id];
            if e.rank > 0 {
                by_queue[usize::from(e.queue)].push(id);
            }
        }
        let mut desired_set: std::collections::HashSet<ConnId> = std::collections::HashSet::new();
        for (q, group) in by_queue.iter_mut().enumerate() {
            group.sort_by_key(|id| {
                let e = &self.entries[id];
                (
                    std::cmp::Reverse(e.rank),
                    std::cmp::Reverse(e.last_use),
                    e.id.0,
                )
            });
            let cap = self.queue_capacity(q).min(group.len());
            desired_set.extend(&group[..cap]);
        }
        let mut report = RetierReport::default();
        // Demotions first, freeing SRAM for the promotions.
        for &id in &ids {
            let e = self.entries.get_mut(&id).expect("exact id has an entry");
            if e.tier == FlowTier::Hot && !desired_set.contains(&id) {
                e.tier = FlowTier::Cold;
                let tuple = e.tuple;
                Self::release_hot(sram);
                self.cold += 1;
                self.stats.evictions += 1;
                report.demoted.push((id, tuple));
            }
        }
        for &id in &ids {
            if self.entries[&id].tier == FlowTier::Cold && desired_set.contains(&id) {
                // SRAM shared with programs/NAT may refuse; refused
                // entries stay cold (deterministically: id order).
                if Self::charge_hot(sram).is_ok() {
                    let e = self.entries.get_mut(&id).expect("exact id has an entry");
                    e.tier = FlowTier::Hot;
                    self.cold -= 1;
                    self.stats.promotions += 1;
                    report.promoted.push((id, e.tuple));
                } else {
                    self.stats.promotion_refusals += 1;
                }
            }
        }
        // Rebuild the per-queue victim order from the entries' new state.
        self.hot = vec![BTreeSet::new(); num_queues];
        for &id in &ids {
            let e = &self.entries[&id];
            if e.tier == FlowTier::Hot {
                self.hot[usize::from(e.queue)].insert(Self::victim_key(e));
            }
        }
        report
    }

    /// Internal-consistency audit: the victim sets, tier tags, and cold
    /// counter must describe the same partition of the exact entries.
    pub fn audit_tiers(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let hot_tagged = self
            .exact
            .values()
            .filter(|id| self.entries[id].tier == FlowTier::Hot)
            .count();
        let cold_tagged = self.exact.len() - hot_tagged;
        if hot_tagged != self.num_hot() {
            violations.push(format!(
                "flow tiers: {hot_tagged} hot-tagged entries != {} victim-set members",
                self.num_hot()
            ));
        }
        if cold_tagged != self.cold {
            violations.push(format!(
                "flow tiers: {cold_tagged} cold-tagged entries != cold counter {}",
                self.cold
            ));
        }
        for (q, set) in self.hot.iter().enumerate() {
            for &(_, _, id) in set {
                match self.entries.get(&ConnId(id)) {
                    None => violations.push(format!("victim set q{q} names dead conn#{id}")),
                    Some(e) if e.tier != FlowTier::Hot || usize::from(e.queue) != q => {
                        violations.push(format!("victim set q{q} disagrees with conn#{id}'s entry"))
                    }
                    Some(_) => {}
                }
            }
            if let Some(c) = &self.cache {
                if set.len() > self.queue_capacity(q) {
                    violations.push(format!(
                        "queue {q} holds {} hot entries over its {} slice of {}",
                        set.len(),
                        self.queue_capacity(q),
                        c.hot_capacity
                    ));
                }
            }
        }
        violations
    }

    /// Returns the entry for a connection id.
    pub fn entry(&self, id: ConnId) -> Option<&ConnEntry> {
        self.entries.get(&id)
    }

    /// Iterates over all entries (for `knetstat`).
    pub fn entries(&self) -> impl Iterator<Item = &ConnEntry> {
        self.entries.values()
    }
}

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
    fn lookup_batch_matches_sequential() {
        let mut sram = Sram::new(1 << 20);
        let mut ft = FlowTable::new();
        let (a, _) = insert(&mut ft, &mut sram, 1000, 53);
        let (b, _) = insert(&mut ft, &mut sram, 2000, 80);
        // Hashes chosen so sorted probe order differs from arrival order.
        let queries = vec![
            (9u32, tuple(2000, 80)),
            (1u32, tuple(1000, 53)),
            (5u32, tuple(7, 7)),
        ];
        let batch: Vec<_> = ft
            .lookup_batch(&queries, &mut sram)
            .into_iter()
            .map(|h| h.map(|h| h.id))
            .collect();
        assert_eq!(batch, vec![Some(b), Some(a), None]);
        let (lookups, misses) = ft.counters();
        assert_eq!((lookups, misses), (3, 1));
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
    fn tiered_batch_with_promotions_matches_sequential() {
        type Observed = (Vec<Option<(ConnId, FlowTier, bool)>>, FlowStats, u64);
        let run = |batched: bool| -> Observed {
            let mut sram = Sram::new(1 << 20);
            let mut ft = FlowTable::new();
            ft.configure_cache(Some(FlowCacheConfig::lru(2)), 1, |_| 0, &mut sram);
            for sp in 1..=4 {
                insert(&mut ft, &mut sram, sp, 80);
            }
            // Repeated cold hits interleaved with hot ones: promotions and
            // demotions must land identically either way.
            let queries: Vec<(u32, FiveTuple)> = [3u16, 1, 3, 4, 2, 4, 9]
                .iter()
                .map(|&sp| (u32::from(sp) * 7 % 5, tuple(sp, 80)))
                .collect();
            let hits: Vec<Option<LookupHit>> = if batched {
                ft.lookup_batch(&queries, &mut sram)
            } else {
                queries
                    .iter()
                    .map(|(_, t)| ft.lookup(t, &mut sram))
                    .collect()
            };
            (
                hits.into_iter()
                    .map(|h| h.map(|h| (h.id, h.tier, h.promoted)))
                    .collect(),
                ft.stats(),
                sram.used(),
            )
        };
        assert_eq!(run(false), run(true));
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
