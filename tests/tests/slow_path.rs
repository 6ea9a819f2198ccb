//! Cross-crate integration: the kernel slow path — ARP handling, the
//! shared-notification `wait_any`, and kernel-originated transmission.

use std::net::Ipv4Addr;

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, NormanSocket};
use oskernel::{ProcState, Uid};
use pkt::{ArpOp, IpProto, Mac, Packet, PacketBuilder, Payload};
use sim::{Dur, Time};

#[test]
fn arp_request_is_answered_by_the_kernel() {
    let mut host = Host::new(HostConfig::default());
    // A peer asks who-has our address.
    let req = PacketBuilder::arp_request(Mac::local(9), Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip);
    let report = host.deliver_from_wire(&req, Time::ZERO);
    assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
    assert!(report.kernel_cpu > Dur::ZERO);

    // The reply goes out through the NIC (kernel TX path).
    let deps = host.pump_tx(Time::from_us(1));
    assert_eq!(deps.len(), 1);

    // The requester is now in the ARP cache Alice can inspect.
    let entries = host.arp.entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0, Ipv4Addr::new(10, 0, 0, 2));
    assert_eq!(entries[0].1.mac, Mac::local(9));
}

#[test]
fn arp_for_other_hosts_is_cached_policy_not_answered() {
    let mut host = Host::new(HostConfig::default());
    let req = PacketBuilder::arp_request(
        Mac::local(9),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 77),
    );
    host.deliver_from_wire(&req, Time::ZERO);
    assert!(
        host.pump_tx(Time::from_us(1)).is_empty(),
        "no reply for others"
    );
}

#[test]
fn kernel_arp_reply_is_visible_to_ksniff() {
    // Even the kernel's own transmissions pass the tap: full global view.
    let mut host = Host::new(HostConfig::default());
    host.update_policy(Time::ZERO, |p| {
        p.sniffer = Some(nicsim::SnifferFilter::all())
    })
    .unwrap();
    let req = PacketBuilder::arp_request(Mac::local(9), Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip);
    host.deliver_from_wire(&req, Time::ZERO);
    host.pump_tx(Time::from_us(1));
    let entries = host.nic.sniffer.entries();
    // RX request + TX reply.
    assert_eq!(entries.len(), 2);
    let tx: Vec<_> = entries
        .iter()
        .filter(|e| e.direction == nicsim::Direction::Tx)
        .collect();
    assert_eq!(tx.len(), 1);
    assert_eq!(tx[0].comm.as_deref(), Some("kernel"));
}

fn parse_arp(pkt: &Packet) -> pkt::ArpPacket {
    match pkt.parse().unwrap().payload {
        Payload::Arp(a) => a,
        other => panic!("expected ARP, got {other:?}"),
    }
}

#[test]
fn arp_reply_contents_are_correct() {
    let mut host = Host::new(HostConfig::default());
    let req = PacketBuilder::arp_request(Mac::local(9), Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip);
    host.deliver_from_wire(&req, Time::ZERO);
    host.pump_tx(Time::from_us(1));
    // Reconstruct the reply via the cache responder for content check.
    let reply = host
        .arp
        .handle_meta(&req, req.meta().unwrap(), Time::from_us(2))
        .expect("still answers");
    let arp = parse_arp(&reply);
    assert_eq!(arp.op, ArpOp::Reply);
    assert_eq!(arp.sender_ip, host.cfg.ip);
    assert_eq!(arp.sender_mac, host.cfg.mac);
}

#[test]
fn wait_any_returns_pending_connection_without_blocking() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let s1 = NormanSocket::connect(
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
    let s2 = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7001,
        Ipv4Addr::new(10, 0, 0, 2),
        9001,
        Mac::local(9),
        true,
    )
    .unwrap();

    // Data arrives on the second connection.
    let pkt = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9001, 7001, b"data")
        .build();
    host.deliver_from_wire(&pkt, Time::ZERO);

    // wait_any sees the pending notification: no block.
    let ready = host.app_wait_any(bob, Time::from_us(1));
    assert_eq!(ready, Some(s2.conn()));
    assert_eq!(host.procs.get(bob).unwrap().state, ProcState::Running);
    let r = s2.recv(&mut host, Time::from_us(2), false);
    assert!(r.len.is_some());
    let _ = s1;
}

#[test]
fn wait_any_blocks_until_any_connection_wakes() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let socks: Vec<NormanSocket> = (0..4)
        .map(|i| {
            NormanSocket::connect(
                &mut host,
                bob,
                IpProto::UDP,
                7000 + i,
                Ipv4Addr::new(10, 0, 0, 2),
                9000 + i,
                Mac::local(9),
                true,
            )
            .unwrap()
        })
        .collect();

    // Nothing pending: the process blocks.
    assert_eq!(host.app_wait_any(bob, Time::ZERO), None);
    assert_eq!(host.procs.get(bob).unwrap().state, ProcState::Blocked);

    // Traffic to connection 2 wakes it.
    let pkt = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9002, 7002, b"x")
        .build();
    let report = host.deliver_from_wire(&pkt, Time::from_us(10));
    assert_eq!(report.woke, Some(bob));
    // The wakeup's notification names the ready connection.
    let ready = host.app_wait_any(bob, Time::from_us(11));
    assert_eq!(ready, Some(socks[2].conn()));
}
