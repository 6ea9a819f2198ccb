//! No silent drops: every frame the dataplane accepts terminates in
//! exactly one typed outcome, and every drop carries a typed
//! [`norman::DropCause`] in the trace ledger.
//!
//! The property is checked two ways, against adversarial traffic from
//! seeded fault schedules (loss, corruption, burstiness) plus deliberate
//! policy drops, ring overflow, and qdisc exhaustion:
//!
//! 1. **Conservation** — the per-stage event ledger balances: ingress
//!    events equal deliveries + slow-path punts + drops, ring enqueues
//!    equal dequeues + occupancy, TX offers equal queues + drops.
//!    [`norman::Host::audit`] cross-checks the ledger against every
//!    layer's independently maintained counters.
//! 2. **Typed causes** — each event with a `Drop` verdict exposes
//!    `drop_cause() == Some(_)`, and the sum over the cause-indexed drop
//!    ledger equals the number of drop-verdict terminal events, so no
//!    drop site can lose a frame without naming why.

use std::net::Ipv4Addr;

use norman::{DropCause, Host, HostConfig, PortReservation, Stage, TraceFilter, TraceVerdict};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::{Dur, FaultSchedule, FaultyLink, Link, Time};

const FRAMES: u64 = 4000;
const GAP: Dur = Dur(400_000);

/// Runs chaos traffic plus policy/overflow edge cases through a traced
/// host and asserts conservation and typed-cause coverage.
fn conservation_under(schedule: FaultSchedule, seed: u64, drain: bool) {
    let cfg = HostConfig {
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    // Reserve a second port for a different uid: traffic to it from the
    // wire passes the NIC filter map check only for the owner, giving a
    // deterministic source of Filter drops.
    host.update_policy(Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(4444, Uid(1002)))
    })
    .unwrap();
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
    host.start_trace();

    let good = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 7000, &[0u8; 600])
        .build();
    let reserved_violation = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 4444, &[0u8; 64])
        .build();
    let no_socket = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 4), host.cfg.ip)
        .udp(1, 9999, &[0u8; 64])
        .build();

    let mut wire = FaultyLink::new(Link::hundred_gbe(), seed, schedule);
    let mut ingress_offered = 0u64;
    for i in 0..FRAMES {
        let t = Time::ZERO + GAP * i;
        // Mostly good traffic; every 7th a filter violation; every 13th
        // an unreachable port (slow path + kernel NoSocket drop).
        let pkt = match i % 13 {
            0 => &no_socket,
            _ if i % 7 == 0 => &reserved_violation,
            _ => &good,
        };
        for d in wire.transmit(t, pkt.bytes().to_vec()) {
            host.deliver_from_wire(&Packet::from_bytes(d.frame), d.at);
            ingress_offered += 1;
        }
        // Draining slowly (or not at all) forces RingFull drops.
        if drain && i % 3 == 0 {
            let _ = host.app_recv(conn, t, false);
        }
    }
    for d in wire.flush(Time::ZERO + GAP * FRAMES) {
        host.deliver_from_wire(&Packet::from_bytes(d.frame), d.at);
        ingress_offered += 1;
    }

    let tel = host.telemetry();

    // Every frame that reached the NIC produced exactly one ingress
    // event...
    assert_eq!(tel.stage_count(Stage::RxIngress), ingress_offered);
    // ...and exactly one NIC-level terminal.
    assert_eq!(
        tel.stage_count(Stage::RxIngress),
        tel.stage_count(Stage::RxDeliver)
            + tel.stage_count(Stage::RxSlowPath)
            + tel.stage_count(Stage::RxDrop),
        "RX conservation: ingress != deliver + slowpath + drop"
    );
    // Fast-path deliveries all hit the ring stage (enqueue or ring-full
    // drop), never vanish between NIC and memory.
    assert_eq!(
        tel.stage_count(Stage::RxDeliver),
        tel.stage_count(Stage::RingEnqueue),
        "every NIC delivery must reach the ring stage"
    );

    // Typed causes: every drop-verdict event names a cause, and the
    // cause-indexed ledger sums to the number of drop events.
    let events = tel.events();
    let drop_events = events
        .iter()
        .filter(|e| e.verdict.drop_cause().is_some())
        .count();
    let drops_query = tel.query(&TraceFilter::any().drops());
    assert_eq!(drop_events, drops_query.len());
    let ledger_total = tel.total_drops();
    // The bounded event buffer may have evicted early events, but the
    // ledger never evicts; with the default capacity this run fits.
    assert!(tel.evicted() == 0, "buffer sized for the run");
    let drop_terminals: u64 = [
        Stage::RxDrop,
        Stage::NetstackDrop,
        Stage::NetstackTxDrop,
        Stage::TxDrop,
    ]
    .iter()
    .map(|&s| tel.stage_count(s))
    .sum::<u64>()
        + tel.drop_count(DropCause::RingFull);
    assert_eq!(
        ledger_total, drop_terminals,
        "cause ledger must equal terminal drop events"
    );

    // Expected cause classes actually occurred.
    assert!(tel.drop_count(DropCause::Filter) > 0, "filter drops traced");
    assert!(
        tel.drop_count(DropCause::NoSocket) > 0,
        "kernel no-socket drops traced"
    );
    if !drain {
        assert!(
            tel.drop_count(DropCause::RingFull) > 0,
            "ring overflow drops traced"
        );
    }

    // The full cross-layer audit: ledger vs counters, zero divergence.
    let violations = host.audit();
    assert!(violations.is_empty(), "audit violations: {violations:?}");
}

#[test]
fn no_silent_drops_on_ideal_wire() {
    conservation_under(FaultSchedule::ideal(), 0xA1, true);
}

#[test]
fn no_silent_drops_under_loss() {
    conservation_under(FaultSchedule::steady_loss(0.05), 0xB2, true);
}

#[test]
fn no_silent_drops_under_corruption() {
    conservation_under(FaultSchedule::corrupting(0.01), 0xC3, true);
}

#[test]
fn no_silent_drops_under_bursts_without_draining() {
    conservation_under(FaultSchedule::bursty_loss(0.05), 0xD4, false);
}

/// TX-side conservation: netfilter OUTPUT drops, qdisc exhaustion, and
/// NIC egress drops all surface as typed causes; offers balance against
/// queues + drops.
#[test]
fn tx_drops_are_typed_everywhere() {
    use oskernel::{HookVerdict, Rule};
    use qdisc::classify::ClassifierRule;

    let mut host = Host::new(HostConfig {
        ring_slots: 64,
        ..HostConfig::default()
    });
    let bob = host.spawn(Uid(1001), "bob", "client");
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
    host.start_trace();

    let out = PacketBuilder::new()
        .ether(host.cfg.mac, Mac::local(9))
        .ipv4(host.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
        .udp(7000, 9000, &[0u8; 200])
        .build();

    // Fast-path sends: all queue, then depart.
    for _ in 0..10 {
        let s = host.app_send(conn, &out, Time::ZERO);
        assert!(s.queued);
    }
    let deps = host.pump_tx(Time::MAX);
    assert_eq!(deps.len(), 10);
    let tel = host.telemetry();
    assert_eq!(tel.stage_count(Stage::TxOffer), 10);
    assert_eq!(tel.stage_count(Stage::TxQueue), 10);
    assert_eq!(tel.stage_count(Stage::TxDepart), 10);

    // Kernel-path sends against a dropping OUTPUT chain.
    let mut deny = Rule::new(HookVerdict::Drop);
    deny.matcher = ClassifierRule::any().match_src_port(7000);
    host.stack.output.append(deny);
    let (sent, _) = host.stack.tx(bob, &out, Time::ZERO, &host.procs);
    assert!(!sent);
    assert_eq!(
        host.telemetry().drop_count(DropCause::NetfilterDrop),
        1,
        "OUTPUT-chain drop must be traced"
    );
    assert_eq!(host.telemetry().stage_count(Stage::NetstackTxDrop), 1);

    // Qdisc exhaustion on the kernel egress path.
    host.stack.output.flush();
    host.stack.set_egress_qdisc(Box::new(qdisc::Fifo::new(2)));
    let mut refused = 0;
    for _ in 0..5 {
        let (sent, _) = host.stack.tx(bob, &out, Time::ZERO, &host.procs);
        if !sent {
            refused += 1;
        }
    }
    assert!(refused > 0);
    assert_eq!(
        host.telemetry().drop_count(DropCause::QdiscFull),
        refused,
        "qdisc tail drops must be traced"
    );

    // Every drop event across the run carries a typed cause.
    let drops = host.telemetry().query(&TraceFilter::any().drops());
    assert!(!drops.is_empty());
    assert!(drops.iter().all(|e| e.verdict.drop_cause().is_some()));
    assert!(drops
        .iter()
        .all(|e| matches!(e.verdict, TraceVerdict::Drop(_))));

    assert!(host.audit().is_empty(), "audit: {:?}", host.audit());
}
