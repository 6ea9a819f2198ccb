//! Flow tracking with garbage collection: per-flow aggregation over an
//! event stream, sized for traces much longer than memory.
//!
//! `FlowTracker::observe` folds each [`TraceEvent`] into a per-5-tuple
//! `FlowRecord` (stage timeline, byte/frame counts, owner attribution)
//! and — for drops — into a persistent **drop-site ledger** keyed by
//! `(tuple, stage, cause)`. Live flow records are garbage-collected
//! (idle-first, then oldest-first) once the table exceeds its cap, but
//! the drop-site ledger and the global per-cause totals never
//! evict: collecting a short-lived flow loses its byte counts, never its
//! drop attribution. That is the property a long-lived trace needs —
//! bounded memory with a complete "which flows dropped, where, and
//! whose" answer at the end.
//!
//! [`FlowTracker::from_reader`] streams a recorded event-series file
//! through the tracker (one record in memory at a time) and returns the
//! file's final ledger snapshot alongside, so reports can cross-check
//! conservation entirely offline.

use std::collections::HashMap;

use pkt::FiveTuple;
use sim::{Dur, Time};

use crate::event::{DropCause, Owner, Stage, TraceEvent};
use crate::file::{EventFileReader, FileError, LedgerSnapshot, Record};

/// Tracker sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct TrackerConfig {
    /// Live-flow cap: exceeding it triggers a GC pass.
    pub max_flows: usize,
    /// A flow idle longer than this (no event) is collectable.
    pub idle: Dur,
}

impl Default for TrackerConfig {
    fn default() -> TrackerConfig {
        TrackerConfig {
            max_flows: 4096,
            // 2 ms of virtual time — generous against per-frame gaps
            // (hundreds of ns) while far shorter than a chaos run.
            idle: Dur(2_000_000_000),
        }
    }
}

/// Aggregated state of one live flow.
#[derive(Clone, Debug)]
pub(crate) struct FlowRecord {
    /// The flow's 5-tuple.
    pub(crate) tuple: FiveTuple,
    /// Virtual time of the most recent observed event.
    pub(crate) last: Time,
    /// Events observed for this flow.
    pub(crate) events: u64,
    /// Bytes across the flow's `rx_ingress` events.
    pub(crate) bytes: u64,
    /// Events observed per stage — the flow's stage timeline.
    pub(crate) stage_counts: [u32; Stage::COUNT],
    /// Drop verdicts observed.
    pub(crate) drops: u64,
    /// Owning process, once any event carried attribution.
    pub(crate) owner: Option<Owner>,
    /// Lowest policy generation stamped on the flow's events.
    pub(crate) first_generation: u64,
    /// Highest policy generation stamped on the flow's events.
    pub(crate) last_generation: u64,
}

impl FlowRecord {
    /// Whether the flow ever crossed `stage`.
    #[cfg(test)]
    pub(crate) fn saw(&self, stage: Stage) -> bool {
        self.stage_counts[stage.index()] != 0
    }
}

/// One entry of the never-evicting drop-site ledger: drops of one flow
/// at one stage for one cause, with process attribution.
#[derive(Clone, Debug)]
pub struct DropSite {
    /// The dropped flow's 5-tuple.
    pub tuple: FiveTuple,
    /// Pipeline stage where the drops happened.
    pub stage: Stage,
    /// Typed drop cause.
    pub cause: DropCause,
    /// Owning process, when any dropped frame carried attribution.
    pub owner: Option<Owner>,
    /// Drops recorded at this site.
    pub count: u64,
    /// Virtual time of the latest drop.
    pub(crate) last: Time,
}

/// Per-owner drop totals (the *process view* of the forensics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerDrops {
    /// Owning uid.
    pub uid: u32,
    /// Owning pid.
    pub(crate) pid: u32,
    /// Process command name.
    pub(crate) comm: crate::Comm,
    /// Drops attributed to this process.
    pub drops: u64,
}

/// The flow-tracking engine.
pub struct FlowTracker {
    cfg: TrackerConfig,
    flows: HashMap<FiveTuple, FlowRecord>,
    sites: HashMap<(FiveTuple, usize, usize), DropSite>,
    drops_by_cause: [u64; DropCause::COUNT],
    flows_seen: u64,
    collected: u64,
    gc_runs: u64,
    peak_live: usize,
    last_at: Time,
}

impl FlowTracker {
    /// Creates a tracker with `cfg` sizing.
    pub(crate) fn new(cfg: TrackerConfig) -> FlowTracker {
        FlowTracker {
            cfg,
            flows: HashMap::new(),
            sites: HashMap::new(),
            drops_by_cause: [0; DropCause::COUNT],
            flows_seen: 0,
            collected: 0,
            gc_runs: 0,
            peak_live: 0,
            last_at: Time::ZERO,
        }
    }

    /// Folds one event into the tracker.
    pub(crate) fn observe(&mut self, e: &TraceEvent) {
        self.last_at = self.last_at.max(e.at);
        let dropped = e.verdict.drop_cause();
        if let Some(cause) = dropped {
            self.drops_by_cause[cause.index()] += 1;
        }
        let Some(tuple) = e.tuple else {
            return;
        };
        if let Some(cause) = dropped {
            let site = self
                .sites
                .entry((tuple, e.stage.index(), cause.index()))
                .or_insert_with(|| DropSite {
                    tuple,
                    stage: e.stage,
                    cause,
                    owner: None,
                    count: 0,
                    last: e.at,
                });
            site.count += 1;
            site.last = site.last.max(e.at);
            if site.owner.is_none() {
                site.owner = e.owner;
            }
        }
        let is_new = !self.flows.contains_key(&tuple);
        let flow = self.flows.entry(tuple).or_insert_with(|| FlowRecord {
            tuple,
            last: e.at,
            events: 0,
            bytes: 0,
            stage_counts: [0; Stage::COUNT],
            drops: 0,
            owner: None,
            first_generation: e.generation,
            last_generation: e.generation,
        });
        if is_new {
            self.flows_seen += 1;
        }
        flow.events += 1;
        flow.last = flow.last.max(e.at);
        flow.stage_counts[e.stage.index()] += 1;
        if e.stage == Stage::RxIngress {
            flow.bytes += u64::from(e.len);
        }
        if dropped.is_some() {
            flow.drops += 1;
        }
        if flow.owner.is_none() {
            flow.owner = e.owner;
        }
        flow.first_generation = flow.first_generation.min(e.generation);
        flow.last_generation = flow.last_generation.max(e.generation);
        self.peak_live = self.peak_live.max(self.flows.len());
        if self.flows.len() > self.cfg.max_flows {
            self.gc();
        }
    }

    /// One GC pass: evict idle flows, then — if the table is still over
    /// 3/4 of the cap — the coldest (oldest-`last`) flows down to 3/4.
    /// Drop attribution survives in the site ledger regardless.
    fn gc(&mut self) {
        self.gc_runs += 1;
        let now = self.last_at;
        let idle = self.cfg.idle;
        let before = self.flows.len();
        self.flows
            .retain(|_, f| Dur(now.0.saturating_sub(f.last.0)) <= idle);
        let target = self.cfg.max_flows * 3 / 4;
        if self.flows.len() > target {
            let mut ages: Vec<(Time, FiveTuple)> =
                self.flows.values().map(|f| (f.last, f.tuple)).collect();
            ages.sort_by_key(|(last, t)| {
                (
                    *last,
                    (t.src_ip, t.src_port, t.dst_ip, t.dst_port, t.proto.0),
                )
            });
            for (_, tuple) in ages.into_iter().take(self.flows.len() - target) {
                self.flows.remove(&tuple);
            }
        }
        self.collected += (before - self.flows.len()) as u64;
    }

    /// Streams a recorded file through a fresh tracker; returns the
    /// tracker and the file's final ledger snapshot (for conservation
    /// checks). Memory use is one record plus the tracker itself.
    pub fn from_reader(
        reader: &mut EventFileReader,
        cfg: TrackerConfig,
    ) -> Result<(FlowTracker, Option<LedgerSnapshot>), FileError> {
        let mut tracker = FlowTracker::new(cfg);
        let mut ledger = None;
        while let Some(rec) = reader.next_record()? {
            match rec {
                Record::Event(e) => tracker.observe(&e.event),
                Record::Ledger(l) => ledger = Some(*l),
                Record::Recovery(_) | Record::Fin(_) => {}
            }
        }
        Ok((tracker, ledger))
    }

    /// Live (un-collected) flow count.
    pub fn live(&self) -> usize {
        self.flows.len()
    }

    /// Looks up a live flow.
    #[cfg(test)]
    pub(crate) fn flow(&self, tuple: &FiveTuple) -> Option<&FlowRecord> {
        self.flows.get(tuple)
    }

    /// Flow records ever created. A flow whose record was GC'd and that
    /// then reappears counts again — under churn this measures tracker
    /// pressure, not distinct 5-tuples.
    pub fn flows_seen(&self) -> u64 {
        self.flows_seen
    }

    /// Flow records garbage-collected so far.
    pub fn collected(&self) -> u64 {
        self.collected
    }

    /// GC passes run so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Largest live-flow table observed (never exceeds cap + 1).
    #[cfg(test)]
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total drops observed (tupled or not).
    pub(crate) fn total_drops(&self) -> u64 {
        self.drops_by_cause.iter().sum()
    }

    /// Drops observed with `cause`.
    pub fn drops_by_cause(&self, cause: DropCause) -> u64 {
        self.drops_by_cause[cause.index()]
    }

    /// Builds the forensic report.
    pub fn report(&self) -> FlowReport {
        let mut sites: Vec<DropSite> = self.sites.values().cloned().collect();
        sites.sort_by(|a, b| {
            b.count.cmp(&a.count).then_with(|| {
                (
                    a.tuple.src_ip,
                    a.tuple.src_port,
                    a.stage.index(),
                    a.cause.index(),
                    a.tuple,
                )
                    .cmp(&(
                        b.tuple.src_ip,
                        b.tuple.src_port,
                        b.stage.index(),
                        b.cause.index(),
                        b.tuple,
                    ))
            })
        });
        let mut owners: HashMap<(u32, u32, crate::Comm), u64> = HashMap::new();
        for site in self.sites.values() {
            if let Some(o) = &site.owner {
                *owners.entry((o.uid, o.pid, o.comm)).or_default() += site.count;
            }
        }
        let mut owners: Vec<OwnerDrops> = owners
            .into_iter()
            .map(|((uid, pid, comm), drops)| OwnerDrops {
                uid,
                pid,
                comm,
                drops,
            })
            .collect();
        owners.sort_by(|a, b| b.drops.cmp(&a.drops).then(a.uid.cmp(&b.uid)));
        FlowReport {
            flows_seen: self.flows_seen,
            total_drops: self.total_drops(),
            sites,
            owners,
        }
    }
}

/// The answer to "which flows dropped, where, and whose were they".
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Distinct flows ever tracked.
    pub flows_seen: u64,
    /// Total drops (including events with no parsed tuple).
    pub total_drops: u64,
    /// Drop sites, most drops first.
    pub sites: Vec<DropSite>,
    /// Per-process drop totals, most drops first.
    pub owners: Vec<OwnerDrops>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceVerdict;
    use std::net::Ipv4Addr;

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8),
            9000,
            Ipv4Addr::new(10, 0, 1, 1),
            5432,
        )
    }

    fn ev(t: FiveTuple, at: u64, stage: Stage, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            frame_id: at,
            at: Time(at),
            stage,
            verdict,
            tuple: Some(t),
            len: 100,
            owner: Some(Owner::new(1001, 7, "svc")),
            generation: 0,
        }
    }

    #[test]
    fn tracks_per_flow_timeline_and_owner() {
        let mut tr = FlowTracker::new(TrackerConfig::default());
        let t = tuple(1);
        tr.observe(&ev(t, 10, Stage::RxIngress, TraceVerdict::Pass));
        tr.observe(&ev(t, 20, Stage::RxFlowLookup, TraceVerdict::Hit));
        tr.observe(&ev(t, 30, Stage::RingEnqueue, TraceVerdict::Pass));
        let f = tr.flow(&t).unwrap();
        assert_eq!(f.events, 3);
        assert_eq!(f.bytes, 100);
        assert!(f.saw(Stage::RxFlowLookup));
        assert!(!f.saw(Stage::TxOffer));
        assert_eq!(f.owner.as_ref().unwrap().uid, 1001);
        assert_eq!(f.last, Time(30));
    }

    #[test]
    fn gc_bounds_live_flows_but_keeps_drop_attribution() {
        let cfg = TrackerConfig {
            max_flows: 64,
            idle: Dur(50),
        };
        let mut tr = FlowTracker::new(cfg);
        // 1000 short-lived flows, each dropping once, times far apart so
        // every earlier flow is idle by the time GC runs.
        for i in 0..1000u32 {
            let t = tuple(i);
            let at = u64::from(i) * 100;
            tr.observe(&ev(t, at, Stage::RxIngress, TraceVerdict::Pass));
            tr.observe(&ev(
                t,
                at + 1,
                Stage::RingEnqueue,
                TraceVerdict::Drop(DropCause::RingFull),
            ));
        }
        assert!(tr.live() <= 65, "live {} exceeds cap", tr.live());
        assert!(tr.peak_live() <= 65);
        assert!(tr.collected() > 900);
        assert!(tr.gc_runs() > 0);
        // Every drop still attributed despite collection.
        let report = tr.report();
        assert_eq!(report.total_drops, 1000);
        assert_eq!(report.sites.len(), 1000);
        assert!(report.sites.iter().all(|s| s.owner.is_some()));
        assert_eq!(report.owners.len(), 1);
        assert_eq!(report.owners[0].drops, 1000);
    }

    #[test]
    fn equal_count_sites_report_in_one_order() {
        // Sixteen flows from one source address and port, told apart
        // only by destination port, one drop each: the report's order
        // must not depend on the site map's iteration order.
        let mut tr = FlowTracker::new(TrackerConfig::default());
        for port in (0..16u16).rev() {
            let mut t = tuple(1);
            t.dst_port = 5000 + port;
            tr.observe(&ev(
                t,
                u64::from(port),
                Stage::RingEnqueue,
                TraceVerdict::Drop(DropCause::RingFull),
            ));
        }
        let ports: Vec<u16> = tr.report().sites.iter().map(|s| s.tuple.dst_port).collect();
        assert_eq!(ports, (5000..5016).collect::<Vec<u16>>());
    }

    #[test]
    fn long_lived_flows_survive_gc() {
        let cfg = TrackerConfig {
            max_flows: 32,
            idle: Dur(50),
        };
        let mut tr = FlowTracker::new(cfg);
        let hot = tuple(9999);
        for i in 0..500u32 {
            let at = u64::from(i) * 100;
            // The hot flow fires every tick; churn flows come and go.
            tr.observe(&ev(hot, at, Stage::RxIngress, TraceVerdict::Pass));
            tr.observe(&ev(tuple(i), at, Stage::RxIngress, TraceVerdict::Pass));
        }
        let f = tr.flow(&hot).expect("hot flow must survive GC");
        assert_eq!(f.events, 500);
        assert!(tr.live() <= 33);
    }

    #[test]
    fn untupled_drops_counted_globally() {
        let mut tr = FlowTracker::new(TrackerConfig::default());
        let mut e = ev(
            tuple(1),
            5,
            Stage::RxDrop,
            TraceVerdict::Drop(DropCause::Malformed),
        );
        e.tuple = None;
        tr.observe(&e);
        let report = tr.report();
        assert_eq!(report.total_drops, 1);
        assert!(report.sites.is_empty());
        assert!(report.owners.is_empty());
        assert_eq!(tr.drops_by_cause(DropCause::Malformed), 1);
    }
}
