//! Flow tracking against a real recorded chaos run: bounded memory
//! under flow churn, per-flow drop attribution that survives GC, and
//! the offline conservation cross-check against the live host — the
//! same three claims the CI trace-pipeline leg gates.
//!
//! Tracker-level unit tests (GC mechanics, idle horizons) live in
//! `telemetry::tracking`; here the events come from the dataplane
//! itself via `ktrace collect`, not from hand-built records.

use std::net::Ipv4Addr;

use norman::tools::trace as ktrace;
use norman::{Host, HostConfig};
use oskernel::{Cred, Uid};
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::{Dur, FaultSchedule, FaultyLink, Link, Time};
use telemetry::file::EventFileReader;
use telemetry::tracking::{FlowTracker, TrackerConfig};

const GAP: Dur = Dur(500_000);
const FLOWS: usize = 32;
const ROUNDS: u64 = 2_000;

/// A seeded lossy run over many flows: the "server" tenant drains, the
/// "bulk" tenant overflows its 2-slot rings. Returns the scratch dir,
/// the recorded file, and the host's own ring-drop count.
fn record_chaos(tag: &str, profile: &str) -> (std::path::PathBuf, std::path::PathBuf, u64) {
    let dir =
        std::env::temp_dir().join(format!("norman_flow_tracking_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.ntrace");

    let mut host = Host::new(HostConfig::default()); // ring_slots: 2
    let server = host.spawn(Uid(1001), "alice", "server");
    let bulk = host.spawn(Uid(1002), "bob", "bulk");
    let conns: Vec<_> = (0..FLOWS)
        .map(|i| {
            let pid = if i % 2 == 0 { server } else { bulk };
            host.connect(
                pid,
                IpProto::UDP,
                7000 + i as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap()
        })
        .collect();
    let root = Cred::root();
    ktrace::collect(&mut host, &root, profile, &path).unwrap();

    let pkts: Vec<Packet> = (0..FLOWS)
        .map(|i| {
            PacketBuilder::new()
                .ether(Mac::local(9), host.cfg.mac)
                .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
                .udp(9000, 7000 + i as u16, &[0u8; 512])
                .build()
        })
        .collect();
    let mut wire = FaultyLink::new(
        Link::hundred_gbe(),
        0xF10C ^ ROUNDS,
        FaultSchedule::steady_loss(0.02),
    );
    let mut audit_violations = 0usize;
    for i in 0..ROUNDS {
        let t = Time::ZERO + GAP * i;
        let flow = (i as usize) % FLOWS;
        for d in wire.transmit(t, pkts[flow].bytes().to_vec()) {
            host.deliver_from_wire(&Packet::from_bytes(d.frame), d.at);
            if flow.is_multiple_of(2) {
                let _ = host.app_recv(conns[flow], d.at, false);
            }
        }
        if i % 500 == 499 {
            audit_violations += host.audit().len();
            host.spill_trace().unwrap();
        }
    }
    audit_violations += host.audit().len();
    assert_eq!(audit_violations, 0, "live audits must be clean");
    ktrace::collect_stop(&mut host, &root).unwrap();
    let drops = host.stats().ring_drops;
    assert!(drops > 0, "the bulk tenant's rings must overflow");
    (dir, path, drops)
}

/// A tracker sized far below the run's flow count stays bounded (GC
/// collects idle flows) while the never-evicting drop ledger keeps
/// every site and its attribution.
#[test]
fn gc_bounds_live_flows_under_chaos_without_losing_attribution() {
    let (dir, path, host_drops) = record_chaos("gc", "full-lifecycle");
    let cfg = TrackerConfig {
        max_flows: 8, // far below the 32 flows in the run
        idle: Dur(4_000_000),
    };
    let mut reader = EventFileReader::open(&path).unwrap();
    let (tracker, _ledger) = FlowTracker::from_reader(&mut reader, cfg).unwrap();

    assert!(
        tracker.live() <= cfg.max_flows,
        "live flows {} exceed the {} cap",
        tracker.live(),
        cfg.max_flows
    );
    // Round-robin arrivals against an 8-record cap churn constantly:
    // records are created, GC'd, and recreated, so creations far exceed
    // the 32 distinct flows — that is the pressure GC absorbs.
    assert!(tracker.flows_seen() >= FLOWS as u64);
    assert!(
        tracker.gc_runs() > 0,
        "the cap must actually have triggered GC"
    );
    assert!(tracker.collected() > 0);

    // GC dropped flow *records*, never drop *forensics*: the report
    // still accounts for every ring drop, attributed to the bulk
    // tenant per flow.
    let report = tracker.report();
    assert_eq!(report.total_drops, host_drops);
    // The drop-site ledger never evicts: every one of the 16 bulk flows
    // keeps its own attributed site no matter how often its flow record
    // was collected.
    let dropped_tuples: std::collections::BTreeSet<_> = report
        .sites
        .iter()
        .map(|s| (s.tuple.src_port, s.tuple.dst_port))
        .collect();
    assert_eq!(dropped_tuples.len(), FLOWS / 2);
    for site in &report.sites {
        let owner = site.owner.as_ref().expect("drop site attributed");
        assert_eq!(owner.uid, 1002, "only bulk rings overflow");
        assert_eq!(owner.comm, "bulk");
    }
    let bulk_drops: u64 = report
        .owners
        .iter()
        .filter(|o| o.uid == 1002)
        .map(|o| o.drops)
        .sum();
    assert_eq!(bulk_drops, host_drops);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The CI leg's property: record under `drop-forensics`, report
/// offline, and the file alone conserves drops against both its own
/// ledger snapshot and the host's counter.
#[test]
fn offline_report_conserves_drops_against_host_counter() {
    let (dir, path, host_drops) = record_chaos("conserve", "drop-forensics");
    let sorted = dir.join("chaos.sorted.ntrace");
    ktrace::sort(&path, &sorted).unwrap();
    let f = ktrace::report(&sorted).unwrap();
    assert!(f.header.sorted);
    assert_eq!(f.header.profile, "drop-forensics");
    assert!(
        f.conservation.is_empty(),
        "ledger vs recorded events diverged: {:?}",
        f.conservation
    );
    assert_eq!(f.report.total_drops, host_drops);
    let ledger_total: u64 = f
        .ledger_drops
        .as_ref()
        .expect("drop-forensics spills the ledger")
        .iter()
        .map(|(_, n)| n)
        .sum();
    assert_eq!(ledger_total, host_drops);
    // Every reconstructed site names the ring-enqueue stage with the
    // typed RingFull cause — the full drop ontology, not a bare count.
    assert!(!f.report.sites.is_empty());
    for site in &f.report.sites {
        assert_eq!(site.stage, telemetry::Stage::RingEnqueue);
        assert_eq!(site.cause, telemetry::DropCause::RingFull);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A refused second `ktrace collect` (one is already running) leaves the
/// running collection alone: its events keep streaming, its ledger keeps
/// counting, and the host still audits clean.
#[test]
fn refused_second_collect_leaves_the_running_one_intact() {
    let dir = std::env::temp_dir().join(format!(
        "norman_flow_tracking_refused_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("running.ntrace");

    let mut host = Host::new(HostConfig::default()); // ring_slots: 2
    let bulk = host.spawn(Uid(1002), "bob", "bulk");
    host.connect(
        bulk,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        false,
    )
    .unwrap();
    let pkt = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 7000, &[0u8; 64])
        .build();
    // Nobody drains the 2-slot ring: of 16 frames, 14 drop.
    let deliver = |host: &mut Host, from: Time| {
        for i in 0..8 {
            host.deliver_from_wire(&pkt, from + Dur::from_us(i));
        }
    };

    let root = Cred::root();
    ktrace::collect(&mut host, &root, "full-lifecycle", &path).unwrap();
    deliver(&mut host, Time::ZERO);
    let refused_at = Time::from_us(100);
    assert!(ktrace::collect(&mut host, &root, "drop-forensics", &dir.join("second")).is_err());
    deliver(&mut host, refused_at);
    ktrace::collect_stop(&mut host, &root).unwrap();
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    let series = telemetry::file::EventSeries::load(&path).unwrap();
    let after = series.events.iter().filter(|e| e.event.at >= refused_at);
    assert_eq!(
        after
            .filter(|e| e.event.stage == telemetry::Stage::RxIngress)
            .count(),
        8,
        "the post-refusal frames must be recorded"
    );
    let drops = host.stats().ring_drops;
    assert_eq!(drops, 6 + 8);
    let f = ktrace::report(&path).unwrap();
    assert!(f.conservation.is_empty(), "{:?}", f.conservation);
    assert_eq!(f.report.total_drops, drops);
    let ledger: u64 = f.ledger_drops.unwrap().iter().map(|(_, n)| n).sum();
    assert_eq!(ledger, drops);
    std::fs::remove_dir_all(&dir).unwrap();
}
