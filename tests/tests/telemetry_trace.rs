//! The introspection layer end to end: one packet's full lifecycle —
//! NIC pipeline (parse, filter, flow lookup), ring DMA, notification,
//! application delivery — captured as typed trace
//! events on a single frame id, attributed to the owning process, and
//! queried through the `ktrace` management tool with BPF-ish filters.
//!
//! This is the paper's §2 complaint answered: with kernel interposition
//! over the dataplane, `tcpdump`'s global view and the process view are
//! *joined per packet*, something no bypass architecture offers.

use std::net::Ipv4Addr;

use norman::tools::trace as ktrace;
use norman::{Host, HostConfig, NormanSocket, PortReservation, Stage, TraceFilter, TraceVerdict};
use oskernel::{Cred, Uid};
use pkt::{IpProto, Mac, PacketBuilder};
use sim::{Dur, Time};

fn stages(events: &[norman::TraceEvent]) -> Vec<Stage> {
    events.iter().map(|e| e.stage).collect()
}

/// The acceptance demo: a reply frame crosses the full Norman dataplane
/// from NIC ingress to the application, while `ktrace` records every
/// stage under one frame id with uid/pid/comm attribution and per-stage
/// virtual time.
#[test]
fn one_packet_full_lifecycle_with_attribution() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    // A port reservation loads the NIC ingress+egress filters, so the
    // lifecycle includes explicit filter PASS stages.
    host.update_policy(Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(7000, Uid(1001)))
    })
    .unwrap();
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(203, 0, 113, 9),
        9000,
        Mac::local(9),
        true, // notifications on: the trace shows the wakeup
    )
    .unwrap();

    host.start_trace();

    // Blocking read arms the notification path before the frame lands.
    let r = sock.recv(&mut host, Time::from_us(40), true);
    assert!(r.blocked);

    // The remote's reply crosses the wire into the NIC dataplane.
    let reply = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(203, 0, 113, 9), host.cfg.ip)
        .udp(9000, 7000, b"pong")
        .build();
    let t_wire = Time::from_us(45);
    let report = host.deliver_from_wire(&reply, t_wire);
    assert!(matches!(
        report.outcome,
        norman::host::DeliveryOutcome::FastPath(_)
    ));
    assert_eq!(report.woke, Some(bob));

    // The app consumes it from the ring.
    let t_recv = Time::from_us(47);
    let r = sock.recv(&mut host, t_recv, true);
    assert!(r.len.is_some());

    // NIC ingress tags the frame with its lifecycle id.
    let root = Cred::root();
    let ingress = ktrace::query(
        &host,
        &root,
        &TraceFilter::any().with_stage(Stage::RxIngress),
    )
    .unwrap();
    assert_eq!(ingress.len(), 1);
    let fid = ingress[0].frame_id;
    assert_ne!(fid, 0, "ingress must tag the frame with a lifecycle id");

    // --- One frame id, every stage -------------------------------------
    let life = ktrace::lifecycle(&host, &root, fid).unwrap();
    let got = stages(&life);
    for want in [
        Stage::RxIngress,
        Stage::RxParse,
        Stage::RxFilter,
        Stage::RxFlowLookup,
        Stage::RxDeliver,
        Stage::Notify,
        Stage::RingEnqueue,
        Stage::RingDequeue,
        Stage::AppDeliver,
    ] {
        assert!(got.contains(&want), "lifecycle missing {want:?}: {got:?}");
    }
    // Per-stage timing: the pipeline adds latency before delivery, and
    // the app consumes later still.
    let at = |s: Stage| life.iter().find(|e| e.stage == s).unwrap().at;
    assert_eq!(at(Stage::RxIngress), t_wire);
    assert!(at(Stage::RxDeliver) >= t_wire + Dur::from_ns(300));
    assert_eq!(at(Stage::AppDeliver), t_recv);

    // Attribution: the kernel-boundary join gives the NIC stages the
    // owning (uid, pid, comm).
    let deliver = life.iter().find(|e| e.stage == Stage::RxDeliver).unwrap();
    let owner = deliver.owner.as_ref().expect("attributed");
    assert_eq!((owner.uid, &*owner.comm), (1001, "server"));

    // --- ktrace filters -------------------------------------------------
    // Owner view: everything the server's traffic touched.
    let owned = ktrace::query(&host, &root, &TraceFilter::any().with_uid(1001)).unwrap();
    assert!(owned.iter().all(|e| e.owner.as_ref().unwrap().uid == 1001));
    assert!(owned.iter().any(|e| e.frame_id == fid));
    // Flow view: BPF-ish 5-tuple match on the reply's tuple.
    let tuple = reply.meta().unwrap().tuple.unwrap();
    let flow = ktrace::query(&host, &root, &TraceFilter::any().with_tuple(tuple)).unwrap();
    assert!(flow.iter().any(|e| e.stage == Stage::RxDeliver));
    // Stage view: every flow-table consult in the capture window.
    let lookups = ktrace::query(
        &host,
        &root,
        &TraceFilter::any().with_stage(Stage::RxFlowLookup),
    )
    .unwrap();
    assert_eq!(lookups.len(), 1);
    assert_eq!(lookups[0].verdict, TraceVerdict::Hit);

    // Ledger vs counters: both independent accounts agree.
    assert!(host.audit().is_empty(), "audit: {:?}", host.audit());

    // The unified snapshot spans layers and serialises.
    let snap = host.metrics_snapshot();
    assert_eq!(snap.counter("nic.rx.frames"), Some(1));
    assert_eq!(snap.counter("host.fast_delivered"), Some(1));
    let json = snap.to_json_pretty();
    assert!(json.contains("\"nic.rx.frames\""));
    assert!(json.contains("\"lat.nic.parse\""));
}

/// Disabled telemetry stays silent (no events, no ids leak into the
/// buffer) and enabling mid-run captures only from that point.
#[test]
fn tracing_is_opt_in_and_restartable() {
    let mut host = Host::new(HostConfig::default());
    // `NORMAN_TELEMETRY=1` (the CI trace-enabled job) turns tracing on
    // at construction; this test is about the opt-in transition itself,
    // so establish the off state explicitly.
    host.stop_trace();
    host.telemetry().clear();
    let bob = host.spawn(Uid(1001), "bob", "server");
    let conn = host
        .connect(
            bob,
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
    // Telemetry off (the default): the dataplane emits nothing.
    host.deliver_from_wire(&pkt, Time::ZERO);
    assert!(host.telemetry().is_empty());
    assert_eq!(host.telemetry().stage_count(Stage::RxIngress), 0);

    // Enable: the next frame is fully captured; the audit holds because
    // baselines were re-marked at enable time.
    host.start_trace();
    host.deliver_from_wire(&pkt, Time::from_us(1));
    let _ = host.app_recv(conn, Time::from_us(2), false);
    assert_eq!(host.telemetry().stage_count(Stage::RxIngress), 1);
    assert!(host.audit().is_empty(), "audit: {:?}", host.audit());

    // Restarting clears the capture but keeps the dataplane consistent.
    host.start_trace();
    assert!(host.telemetry().is_empty());
    host.deliver_from_wire(&pkt, Time::from_us(3));
    let _ = host.app_recv(conn, Time::from_us(4), false);
    assert_eq!(host.telemetry().stage_count(Stage::RxIngress), 1);
    assert!(host.audit().is_empty(), "audit: {:?}", host.audit());
}

/// Filter semantics against a real capture: owner, port, stage, and
/// drops-only views compose conjunctively.
#[test]
fn trace_filters_match_owner_tuple_and_stage() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "postgres");
    let eve = host.spawn(Uid(1002), "eve", "scanner");
    host.connect(
        bob,
        IpProto::UDP,
        5432,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        false,
    )
    .unwrap();
    host.connect(
        eve,
        IpProto::UDP,
        8080,
        Ipv4Addr::new(10, 0, 0, 3),
        9001,
        false,
    )
    .unwrap();
    host.start_trace();

    let (mac, ip) = (host.cfg.mac, host.cfg.ip);
    let mk = move |src: [u8; 4], sport: u16, dport: u16| {
        PacketBuilder::new()
            .ether(Mac::local(9), mac)
            .ipv4(Ipv4Addr::from(src), ip)
            .udp(sport, dport, &[0u8; 32])
            .build()
    };
    host.deliver_from_wire(&mk([10, 0, 0, 2], 9000, 5432), Time::ZERO);
    host.deliver_from_wire(&mk([10, 0, 0, 3], 9001, 8080), Time::from_us(1));
    // Unknown port: slow path, then a kernel-side NoSocket drop.
    host.deliver_from_wire(&mk([10, 0, 0, 4], 1, 9999), Time::from_us(2));

    let root = Cred::root();
    let all = ktrace::query(&host, &root, &TraceFilter::any()).unwrap();
    assert!(!all.is_empty());

    // Owner filters only return attributed events for that owner.
    let pg = ktrace::query(&host, &root, &TraceFilter::any().with_comm("postgres")).unwrap();
    assert!(!pg.is_empty());
    assert!(pg
        .iter()
        .all(|e| e.owner.as_ref().unwrap().comm == "postgres"));
    let eve_uid = ktrace::query(&host, &root, &TraceFilter::any().with_uid(1002)).unwrap();
    assert!(eve_uid
        .iter()
        .all(|e| e.owner.as_ref().unwrap().uid == 1002));

    // Port filter matches either endpoint of the 5-tuple.
    let p5432 = ktrace::query(&host, &root, &TraceFilter::any().with_port(5432)).unwrap();
    assert!(!p5432.is_empty());
    assert!(p5432.iter().all(|e| {
        e.tuple
            .map(|t| t.src_port == 5432 || t.dst_port == 5432)
            .unwrap_or(false)
    }));

    // Stage + owner compose conjunctively.
    let f = TraceFilter::any()
        .with_stage(Stage::RxDeliver)
        .with_uid(1001);
    let hits = ktrace::query(&host, &root, &f).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].owner.as_ref().unwrap().pid, 1);

    // Drops-only: the unknown-port frame's kernel-side drop, with a
    // typed cause.
    let drops = ktrace::query(&host, &root, &TraceFilter::any().drops()).unwrap();
    assert!(!drops.is_empty());
    assert!(drops.iter().all(|e| e.verdict.drop_cause().is_some()));
    assert!(drops
        .iter()
        .any(|e| e.verdict.drop_cause() == Some(norman::DropCause::NoSocket)));
}
