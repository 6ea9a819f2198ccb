//! Differential test for the flow table's recency lists.
//!
//! [`Model`] is the table as it was specified before the lists: plain
//! maps, and per queue one `BTreeSet<(rank, last_use, id)>` whose minimum
//! is the victim. Seeded op sequences drive it and the real
//! [`FlowTable`] side by side; they must agree on every result, every
//! counter, every SRAM byte and the whole victim order, with
//! [`FlowTable::audit_tiers`] clean after every op.

use std::collections::{BTreeMap, BTreeSet};

use pkt::{FiveTuple, IpProto};
use sim::DetRng;

use super::*;

struct ModelEntry {
    tuple: FiveTuple,
    pid: u32,
    notify: bool,
    listener: bool,
    tier: FlowTier,
    queue: usize,
    rank: u8,
    last_use: u64,
}

impl ModelEntry {
    fn victim_key(&self, id: u64) -> (u8, u64, u64) {
        (self.rank, self.last_use, id)
    }
}

struct Model {
    entries: BTreeMap<u64, ModelEntry>,
    exact: BTreeMap<FiveTuple, u64>,
    listeners: BTreeMap<(IpProto, u16), u64>,
    cache: Option<FlowCacheConfig>,
    num_queues: usize,
    hot: Vec<BTreeSet<(u8, u64, u64)>>,
    next_id: u64,
    tick: u64,
    stats: FlowStats,
}

// SRAM charging (`FlowTable::charge_hot`/`release_hot`) and the policy's
// port → rank mapping are not what the lists changed: the model shares
// the table's.
fn rank_of(cache: &Option<FlowCacheConfig>, port: u16) -> u8 {
    cache.as_ref().map_or(1, |c| c.rank_of(port))
}

impl Model {
    fn new() -> Model {
        Model {
            entries: BTreeMap::new(),
            exact: BTreeMap::new(),
            listeners: BTreeMap::new(),
            cache: None,
            num_queues: 1,
            hot: vec![BTreeSet::new()],
            next_id: 0,
            tick: 0,
            stats: FlowStats::default(),
        }
    }

    fn capacity(&self, q: usize) -> usize {
        self.cache.as_ref().map_or(usize::MAX, |c| {
            c.hot_capacity / self.num_queues + usize::from(q < c.hot_capacity % self.num_queues)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        id: u64,
        tuple: FiveTuple,
        pid: u32,
        notify: bool,
        queue: u16,
        sram: &mut Sram,
        overflow: bool,
    ) -> Result<FlowTier, SramError> {
        let q = usize::from(queue).min(self.num_queues - 1);
        let rank = rank_of(&self.cache, tuple.dst_port);
        let mut tier = FlowTier::Cold;
        if rank > 0 && self.hot[q].len() < self.capacity(q) {
            match FlowTable::charge_hot(sram) {
                Ok(()) => tier = FlowTier::Hot,
                Err(e) if self.cache.is_none() && !overflow => return Err(e),
                Err(_) => {}
            }
        }
        self.tick += 1;
        let entry = ModelEntry {
            tuple,
            pid,
            notify,
            listener: false,
            tier,
            queue: q,
            rank,
            last_use: self.tick,
        };
        if tier == FlowTier::Hot {
            self.hot[q].insert(entry.victim_key(id));
        }
        self.exact.insert(tuple, id);
        self.entries.insert(id, entry);
        self.next_id = self.next_id.max(id + 1);
        Ok(tier)
    }

    fn insert_listener(
        &mut self,
        proto: IpProto,
        port: u16,
        pid: u32,
        sram: &mut Sram,
    ) -> Option<u64> {
        sram.alloc(SramCategory::FlowTable, LISTENER_BYTES).ok()?;
        let id = self.next_id;
        self.next_id += 1;
        self.listeners.insert((proto, port), id);
        self.entries.insert(
            id,
            ModelEntry {
                tuple: FiveTuple {
                    src_ip: std::net::Ipv4Addr::UNSPECIFIED,
                    dst_ip: std::net::Ipv4Addr::UNSPECIFIED,
                    src_port: 0,
                    dst_port: port,
                    proto,
                },
                pid,
                notify: false,
                listener: true,
                tier: FlowTier::Hot,
                queue: 0,
                rank: u8::MAX,
                last_use: 0,
            },
        );
        Some(id)
    }

    fn remove(&mut self, id: u64, sram: &mut Sram) -> bool {
        let Some(e) = self.entries.remove(&id) else {
            return false;
        };
        if e.listener {
            self.listeners.remove(&(e.tuple.proto, e.tuple.dst_port));
            sram.release(SramCategory::FlowTable, LISTENER_BYTES);
        } else {
            self.exact.remove(&e.tuple);
            if e.tier == FlowTier::Hot {
                assert!(self.hot[e.queue].remove(&e.victim_key(id)));
                FlowTable::release_hot(sram);
            }
        }
        true
    }

    fn lookup(&mut self, tuple: &FiveTuple, sram: &mut Sram) -> Option<LookupHit> {
        self.stats.lookups += 1;
        let resolved = self
            .exact
            .get(tuple)
            .or_else(|| self.listeners.get(&(tuple.proto, tuple.dst_port)));
        let Some(&id) = resolved else {
            self.stats.misses += 1;
            return None;
        };
        let e = self.entries.get_mut(&id).unwrap();
        let mut hit = LookupHit {
            id: ConnId(id),
            tier: e.tier,
            promoted: false,
            demoted: None,
            notify: e.notify,
            uid: 0,
            pid: e.pid,
            comm: telemetry::Comm::new("app"),
        };
        if e.listener {
            self.stats.hot_hits += 1;
            return Some(hit);
        }
        self.tick += 1;
        let old = e.victim_key(id);
        e.last_use = self.tick;
        let (new, q, rank) = (e.victim_key(id), e.queue, e.rank);
        if e.tier == FlowTier::Hot {
            self.stats.hot_hits += 1;
            assert!(self.hot[q].remove(&old));
            self.hot[q].insert(new);
            return Some(hit);
        }
        self.stats.cold_hits += 1;
        if self.cache.is_none() || rank == 0 {
            return Some(hit);
        }
        if self.hot[q].len() >= self.capacity(q) {
            match self.hot[q].first().copied() {
                Some(victim @ (vrank, _, vid)) if vrank <= rank => {
                    self.hot[q].remove(&victim);
                    let v = self.entries.get_mut(&vid).unwrap();
                    v.tier = FlowTier::Cold;
                    hit.demoted = Some((ConnId(vid), v.tuple));
                    FlowTable::release_hot(sram);
                    self.stats.evictions += 1;
                }
                _ => {
                    self.stats.promotion_refusals += 1;
                    return Some(hit);
                }
            }
        }
        if FlowTable::charge_hot(sram).is_err() {
            self.stats.promotion_refusals += 1;
            return Some(hit);
        }
        self.entries.get_mut(&id).unwrap().tier = FlowTier::Hot;
        self.hot[q].insert(new);
        self.stats.promotions += 1;
        hit.promoted = true;
        Some(hit)
    }

    fn configure_cache(
        &mut self,
        cache: Option<FlowCacheConfig>,
        num_queues: usize,
        queue_of: impl Fn(&FiveTuple) -> u16,
        sram: &mut Sram,
    ) -> RetierReport {
        self.cache = cache;
        self.num_queues = num_queues;
        let mut by_queue = vec![Vec::new(); num_queues];
        for (&id, e) in self.entries.iter_mut().filter(|(_, e)| !e.listener) {
            e.queue = usize::from(queue_of(&e.tuple)).min(num_queues - 1);
            e.rank = rank_of(&self.cache, e.tuple.dst_port);
            if e.rank > 0 {
                by_queue[e.queue].push((
                    std::cmp::Reverse(e.rank),
                    std::cmp::Reverse(e.last_use),
                    id,
                ));
            }
        }
        let mut desired = BTreeSet::new();
        for (q, group) in by_queue.iter_mut().enumerate() {
            group.sort();
            let cap = self.capacity(q).min(group.len());
            desired.extend(group[..cap].iter().map(|&(_, _, id)| id));
        }
        let mut report = RetierReport::default();
        for (&id, e) in self.entries.iter_mut().filter(|(_, e)| !e.listener) {
            if e.tier == FlowTier::Hot && !desired.contains(&id) {
                e.tier = FlowTier::Cold;
                FlowTable::release_hot(sram);
                self.stats.evictions += 1;
                report.demoted.push((ConnId(id), e.tuple));
            }
        }
        for (&id, e) in self.entries.iter_mut().filter(|(_, e)| !e.listener) {
            if e.tier == FlowTier::Cold && desired.contains(&id) {
                if FlowTable::charge_hot(sram).is_ok() {
                    e.tier = FlowTier::Hot;
                    self.stats.promotions += 1;
                    report.promoted.push((ConnId(id), e.tuple));
                } else {
                    self.stats.promotion_refusals += 1;
                }
            }
        }
        self.hot = vec![BTreeSet::new(); num_queues];
        for (&id, e) in &self.entries {
            if !e.listener && e.tier == FlowTier::Hot {
                self.hot[e.queue].insert(e.victim_key(id));
            }
        }
        report
    }
}

/// Both tables, their SRAMs, and the checks that hold between ops.
struct Pair {
    real: FlowTable,
    real_sram: Sram,
    model: Model,
    model_sram: Sram,
}

fn queue_of(num_queues: usize) -> impl Fn(&FiveTuple) -> u16 {
    move |t| t.src_port % num_queues as u16
}

impl Pair {
    fn new(sram_bytes: u64) -> Pair {
        Pair {
            real: FlowTable::new(),
            real_sram: Sram::new(sram_bytes),
            model: Model::new(),
            model_sram: Sram::new(sram_bytes),
        }
    }

    fn place(&mut self, restore_as: Option<u64>, tuple: FiveTuple, pid: u32, notify: bool) {
        let queue = queue_of(self.model.num_queues)(&tuple);
        let (real, model) = match restore_as {
            Some(id) => (
                Ok(self.real.restore(
                    ConnId(id),
                    tuple,
                    0,
                    pid,
                    "app",
                    notify,
                    queue,
                    &mut self.real_sram,
                )),
                self.model
                    .place(id, tuple, pid, notify, queue, &mut self.model_sram, true),
            ),
            None => {
                let id = self.model.next_id;
                (
                    self.real
                        .insert(tuple, 0, pid, "app", notify, queue, &mut self.real_sram)
                        .map(|(got, tier)| {
                            assert_eq!(got, ConnId(id));
                            tier
                        }),
                    self.model
                        .place(id, tuple, pid, notify, queue, &mut self.model_sram, false),
                )
            }
        };
        assert_eq!(real, model, "placing {tuple}");
    }

    fn check(&self, step: usize) {
        let audit = self.real.audit_tiers();
        assert!(audit.is_empty(), "step {step}: {audit:?}");
        assert_eq!(self.real.stats(), self.model.stats, "step {step}");
        assert_eq!(self.real_sram.used(), self.model_sram.used(), "step {step}");
        assert_eq!(self.real.num_entries(), self.model.entries.len());
        for (q, set) in self.model.hot.iter().enumerate() {
            let order: Vec<_> = set.iter().copied().collect();
            assert_eq!(victim_order(&self.real, q), order, "step {step} queue {q}");
        }
        for (&id, e) in &self.model.entries {
            let got = self.real.entry(ConnId(id)).expect("entry exists");
            assert_eq!(
                (
                    got.tier,
                    got.rank,
                    got.last_use,
                    usize::from(got.queue),
                    got.listener
                ),
                (e.tier, e.rank, e.last_use, e.queue, e.listener),
                "step {step} conn#{id}"
            );
        }
    }
}

/// Queue `q`'s hot entries as the lists order them: rank by rank, each
/// list head to tail.
fn victim_order(ft: &FlowTable, q: usize) -> Vec<(u8, u64, u64)> {
    let mut order = Vec::new();
    for list in &ft.hot[q] {
        let mut slot = list.head;
        while slot != NIL {
            let s = ft.slab[slot as usize]
                .as_ref()
                .expect("linked slot is live");
            order.push((s.entry.rank, s.entry.last_use, s.entry.id.0));
            slot = s.next;
        }
    }
    order
}

fn random_cache(rng: &mut DetRng, live: usize) -> Option<FlowCacheConfig> {
    let hot_capacity = *rng.pick(&[0, 1, 2, 3, live / 2, live, live + 4]);
    let mode = *rng.pick(&[
        None,
        Some(FlowCacheMode::Lru),
        Some(FlowCacheMode::PriorityAware),
        Some(FlowCacheMode::Pinned),
    ]);
    mode.map(|mode| FlowCacheConfig {
        hot_capacity,
        mode,
        high_prio_ports: vec![443],
        pinned_ports: vec![22],
    })
}

fn run(seed: u64, sram_bytes: u64, steps: usize) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut p = Pair::new(sram_bytes);
    let pool: Vec<FiveTuple> = (1..=24u16)
        .flat_map(|sp| [80u16, 443, 22, 53].map(|dp| (sp, dp)))
        .map(|(sp, dp)| FiveTuple::udp([10, 0, 0, 2].into(), sp, [10, 0, 0, 1].into(), dp))
        .collect();
    for step in 0..steps {
        let tuple = *rng.pick(&pool);
        let live: Vec<u64> = p.model.entries.keys().copied().collect();
        match rng.range_usize(0, 100) {
            // Insert (or, for a tuple already installed, hit it).
            0..=19 if !p.model.exact.contains_key(&tuple) => {
                p.place(None, tuple, rng.range_u64(1, 5) as u32, rng.chance(0.3));
            }
            // Remove a live entry, exact or listener.
            20..=29 if !live.is_empty() => {
                let id = *rng.pick(&live);
                assert_eq!(
                    p.real.remove(ConnId(id), &mut p.real_sram),
                    p.model.remove(id, &mut p.model_sram)
                );
                assert!(!p.real.remove(ConnId(id), &mut p.real_sram));
            }
            30..=34
                if !p
                    .model
                    .listeners
                    .contains_key(&(tuple.proto, tuple.dst_port)) =>
            {
                let real = p
                    .real
                    .insert_listener(tuple.proto, tuple.dst_port, 0, 9, "app", &mut p.real_sram)
                    .ok();
                let model =
                    p.model
                        .insert_listener(tuple.proto, tuple.dst_port, 9, &mut p.model_sram);
                assert_eq!(real.map(|id| id.0), model);
            }
            // Crash-recovery shape: an entry comes back under its old id,
            // or a connection the table never saw arrives with a far one.
            35..=39 => {
                let exact: Vec<u64> = p.model.exact.values().copied().collect();
                if !exact.is_empty() && rng.chance(0.7) {
                    let id = *rng.pick(&exact);
                    let (tuple, pid, notify) = {
                        let e = &p.model.entries[&id];
                        (e.tuple, e.pid, e.notify)
                    };
                    p.real.remove(ConnId(id), &mut p.real_sram);
                    p.model.remove(id, &mut p.model_sram);
                    p.place(Some(id), tuple, pid, notify);
                } else if !p.model.exact.contains_key(&tuple) {
                    let id = p.model.next_id + rng.range_u64(0, 1000);
                    p.place(Some(id), tuple, 7, false);
                }
            }
            40..=45 => {
                let cache = random_cache(&mut rng, p.model.exact.len());
                let nq = rng.range_usize(1, 5);
                let real =
                    p.real
                        .configure_cache(cache.clone(), nq, queue_of(nq), &mut p.real_sram);
                let model = p
                    .model
                    .configure_cache(cache, nq, queue_of(nq), &mut p.model_sram);
                assert_eq!(real.promoted, model.promoted, "step {step}");
                assert_eq!(real.demoted, model.demoted, "step {step}");
            }
            // Everything else is traffic: hot hits, cold hits (and the
            // promotions and victims they cause), listener hits, misses.
            _ => {
                let real = p.real.lookup(&tuple, &mut p.real_sram);
                let model = p.model.lookup(&tuple, &mut p.model_sram);
                assert_eq!(real, model, "step {step}: lookup {tuple}");
            }
        }
        p.check(step);
    }
    let s = p.real.stats();
    assert!(
        s.hot_hits > 0 && s.cold_hits > 0 && s.misses > 0,
        "the sequence exercised every kind of lookup: {s:?}"
    );
}

#[test]
fn recency_lists_agree_with_a_btreeset_model() {
    let hot = ENTRY_BYTES + RING_CONTEXT_BYTES;
    // Roomy SRAM, SRAM for a dozen hot entries, SRAM for two: the last
    // two make charges fail, so refusals and cold overflow are on the path.
    for (seed, sram_bytes) in [(1, 1 << 20), (2, 12 * hot), (3, 2 * hot + LISTENER_BYTES)] {
        for round in 0..8 {
            run(seed * 1000 + round, sram_bytes, 1500);
        }
    }
}

#[test]
fn audit_names_each_way_a_list_can_be_wrong() {
    let mut sram = Sram::new(1 << 20);
    let build = |sram: &mut Sram| {
        let mut ft = FlowTable::new();
        ft.configure_cache(
            Some(FlowCacheConfig::priority_aware(6, &[443])),
            2,
            |_| 0,
            sram,
        );
        for (sp, dp) in [(1u16, 80u16), (2, 80), (3, 443)] {
            let t = FiveTuple::udp([10, 0, 0, 2].into(), sp, [10, 0, 0, 1].into(), dp);
            ft.insert(t, 0, 1, "app", false, 0, sram).unwrap();
        }
        assert!(ft.audit_tiers().is_empty());
        ft
    };
    fn entry(ft: &mut FlowTable, id: u64) -> &mut ConnEntry {
        let slot = ft.by_id[&ConnId(id)];
        &mut live(&mut ft.slab, slot).entry
    }
    type Corrupt = fn(&mut FlowTable);
    // Each corruption, the check it breaks, and the list (queue × 4 +
    // rank) or connection id that check names.
    let cases: [(Check, u64, Corrupt); 6] = [
        (Check::ListLength, 1, |ft| ft.hot[0][1].len = 3),
        (Check::ListRank, 0, |ft| entry(ft, 0).rank = 2),
        (Check::ListOrder, 1, |ft| entry(ft, 1).last_use = 1),
        (Check::ListDangling, 1, |ft| {
            let slot = ft.by_id[&ConnId(1)];
            ft.slab[slot as usize] = None;
        }),
        (Check::ListMember, 0, |ft| entry(ft, 0).queue = 1),
        (Check::ListMember, 2, |ft| {
            entry(ft, 2).tier = FlowTier::Cold
        }),
    ];
    for (expect, at, corrupt) in cases {
        let mut ft = build(&mut sram);
        corrupt(&mut ft);
        let audit = ft.audit_tiers();
        assert!(
            audit.iter().any(|v| v.check == expect && v.at == Some(at)),
            "expected a {expect:?} violation at {at}, got {audit:?}"
        );
    }
}
