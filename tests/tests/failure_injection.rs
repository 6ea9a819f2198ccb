//! Cross-crate integration: failure injection — the system under
//! resource exhaustion, reconfiguration outages, queue overflows, and
//! hostile programs, all of which must degrade without corrupting state.

use std::net::Ipv4Addr;

use nicsim::device::ProgramSlot;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, NormanSocket};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::{Dur, Time};

fn peer_frame(host: &Host, src_port: u16, dst_port: u16, len: usize) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(src_port, dst_port, &vec![0u8; len])
        .build()
}

#[test]
fn bitstream_reprogram_outage_and_recovery_end_to_end() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        Mac::local(9),
        false,
    )
    .unwrap();

    // Traffic flows before.
    let frame = peer_frame(&host, 9000, 7000, 100);
    assert!(matches!(
        host.deliver_from_wire(&frame, Time::ZERO).outcome,
        DeliveryOutcome::FastPath(_)
    ));
    host.app_recv(sock.conn(), Time::ZERO, false);

    // Reprogram: RX drops during the outage; app sends are deferred into
    // the bounded retry buffer rather than silently lost.
    let back = host.nic.reprogram_bitstream(Time::from_ms(1));
    let during = host.deliver_from_wire(&frame, Time::from_ms(500));
    assert_eq!(during.outcome, DeliveryOutcome::Dropped);
    let s = sock.send(&mut host, b"during-outage", Time::from_ms(600));
    assert!(!s.queued, "TX also down during reprogram");
    assert!(s.deferred, "outage TX is buffered for retry");
    assert_eq!(host.tx_retry_len(), 1);
    // Pumping while still frozen releases nothing.
    assert!(host.pump_tx(Time::from_ms(700)).is_empty());
    assert_eq!(host.tx_retry_len(), 1);

    // After: full recovery — RX, app state, and TX all intact, and the
    // deferred frame goes out first.
    let after = host.deliver_from_wire(&frame, back + Dur::from_us(1));
    assert!(matches!(after.outcome, DeliveryOutcome::FastPath(_)));
    let r = sock.recv(&mut host, back + Dur::from_us(2), false);
    assert_eq!(r.len, Some(frame.len()));
    let s = sock.send(&mut host, b"after", back + Dur::from_us(3));
    assert!(s.queued);
    let deps = host.pump_tx(Time::MAX);
    assert_eq!(deps.len(), 2, "deferred frame + fresh frame");
    assert_eq!(host.tx_retry_len(), 0);
    assert_eq!(host.stats().tx_retry_flushed, 1);
}

#[test]
fn notification_queue_overflow_does_not_lose_data() {
    // Tiny notification queue: notifications coalesce/overflow, but the
    // ring still holds every packet.
    let mut cfg = HostConfig::default();
    cfg.nic.notify_capacity = 2;
    cfg.ring_slots = 64;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        Mac::local(9),
        true,
    )
    .unwrap();
    let frame = peer_frame(&host, 9000, 7000, 64);
    for i in 0..32 {
        host.deliver_from_wire(&frame, Time::from_us(i));
    }
    // Consecutive same-conn notifications coalesce into one entry; no
    // overflow is even needed. All 32 payloads are readable.
    for _ in 0..32 {
        assert!(sock.recv(&mut host, Time::from_ms(1), false).len.is_some());
    }
    assert!(sock.recv(&mut host, Time::from_ms(2), false).len.is_none());
}

#[test]
fn hostile_program_cannot_wedge_the_dataplane() {
    // A verified program that faults at runtime on every packet (map key
    // out of bounds) quarantines traffic but the NIC and host survive,
    // and unloading it restores service.
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        Mac::local(9),
        false,
    )
    .unwrap();
    let src = "
        map tiny 1
        ldctx r0, dst_port
        mapld r1, tiny, r0
        ret pass
    ";
    let prog = overlay::assemble("faulty", src).unwrap();
    let artifact = overlay::compile(&prog).unwrap();
    host.nic
        .load_program(ProgramSlot::IngressFilter, prog, artifact, Time::ZERO)
        .unwrap();
    let frame = peer_frame(&host, 9000, 7000, 64);
    for i in 0..10 {
        let rep = host.deliver_from_wire(&frame, Time::from_us(i));
        assert_eq!(rep.outcome, DeliveryOutcome::Dropped, "fail closed");
    }
    host.nic.unload_program(ProgramSlot::IngressFilter);
    let rep = host.deliver_from_wire(&frame, Time::from_us(100));
    assert!(matches!(rep.outcome, DeliveryOutcome::FastPath(_)));
    let _ = sock;
}

#[test]
fn tx_scheduler_overflow_is_reported_not_silent() {
    let mut cfg = HostConfig::default();
    cfg.nic.tx_queue_limit = 4;
    cfg.ring_slots = 64;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "blaster");
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        Mac::local(9),
        false,
    )
    .unwrap();
    let mut queued = 0;
    let mut refused = 0;
    for _ in 0..16 {
        if sock.send(&mut host, &[0u8; 100], Time::ZERO).queued {
            queued += 1;
        } else {
            refused += 1;
        }
    }
    assert_eq!(queued, 4);
    assert_eq!(refused, 12);
    // Draining restores capacity.
    assert_eq!(host.pump_tx(Time::MAX).len(), 4);
    assert!(sock.send(&mut host, &[0u8; 100], Time::from_secs(1)).queued);
}

#[test]
fn slow_path_survives_malformed_frames() {
    let mut host = Host::new(HostConfig::default());
    // Garbage, truncated, and wrong-checksum frames must all be absorbed
    // without panic and without corrupting later traffic.
    let garbage = Packet::from_bytes(vec![0xFFu8; 40]);
    host.deliver_from_wire(&garbage, Time::ZERO);
    let truncated = Packet::from_bytes(vec![0u8; 10]);
    host.deliver_from_wire(&truncated, Time::ZERO);
    let mut corrupted = peer_frame(&host, 1, 2, 64).bytes().to_vec();
    corrupted[20] ^= 0xFF; // breaks the IP checksum
    host.deliver_from_wire(&Packet::from_bytes(corrupted), Time::ZERO);
    // All three were counted as malformed drops, not parsed into state.
    assert_eq!(host.stats().malformed_dropped, 3);
    assert_eq!(host.nic.stats().rx_malformed, 3);

    // Legitimate traffic still works afterwards.
    let bob = host.spawn(Uid(1001), "bob", "server");
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        Mac::local(9),
        false,
    )
    .unwrap();
    let frame = peer_frame(&host, 9000, 7000, 64);
    assert!(matches!(
        host.deliver_from_wire(&frame, Time::from_us(1)).outcome,
        DeliveryOutcome::FastPath(_)
    ));
    let _ = sock;
}

#[test]
fn sram_exhaustion_recovers_after_close() {
    let mut cfg = HostConfig::default();
    cfg.nic.sram_bytes = 8 * 1024;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "churner");
    // Open until exhaustion.
    let mut open = Vec::new();
    for port in 1000..1100u16 {
        match host.connect(
            bob,
            IpProto::UDP,
            port,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        ) {
            Ok(id) => open.push(id),
            Err(_) => break,
        }
    }
    assert!(!open.is_empty());
    let full_count = open.len();
    // Closing half frees capacity for exactly that many more.
    let closed: Vec<_> = open.drain(..full_count / 2).collect();
    for id in &closed {
        host.close(*id);
    }
    let mut reopened = 0;
    for port in 2000..2100u16 {
        if host
            .connect(
                bob,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .is_ok()
        {
            reopened += 1;
        } else {
            break;
        }
    }
    assert_eq!(reopened, closed.len());
}
