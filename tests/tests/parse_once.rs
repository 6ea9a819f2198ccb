//! "The host never parses again", as a count: wire bytes become a
//! descriptor exactly once per frame, in the NIC's parser stage, and
//! every later stage — rings, delivery, the kernel slow path, TX — reads
//! the descriptor. `pkt::meta::derive_count` exists in debug builds only.
#![cfg(debug_assertions)]

use std::net::Ipv4Addr;

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, NormanSocket};
use oskernel::Uid;
use pkt::meta::derive_count;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::Time;

const FRAMES: u64 = 48;

/// A frame as it comes off the wire: bytes, no descriptor.
fn wire_frame(host: &Host, src_port: u16, dst_port: u16) -> Packet {
    let built = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(src_port, dst_port, b"payload")
        .build();
    let wire = Packet::from_bytes(built.bytes().to_vec());
    assert!(wire.meta().is_none());
    wire
}

fn host_with_socket() -> (Host, NormanSocket) {
    let mut host = Host::new(HostConfig {
        ring_slots: 64,
        ..HostConfig::default()
    });
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
    (host, sock)
}

#[test]
fn fast_path_frames_are_parsed_once_each() {
    let (mut host, sock) = host_with_socket();
    let burst: Vec<Packet> = (0..FRAMES).map(|_| wire_frame(&host, 9000, 7000)).collect();
    let before = derive_count();
    for chunk in burst.chunks(16) {
        let (reports, _) = host.pump(chunk, Time::ZERO);
        assert!(reports
            .iter()
            .all(|r| r.outcome == DeliveryOutcome::FastPath(sock.conn())));
        for _ in chunk {
            assert!(host.app_recv(sock.conn(), Time::ZERO, false).pkt.is_some());
        }
    }
    assert_eq!(derive_count() - before, FRAMES);
}

#[test]
fn slow_path_frames_are_parsed_once_each() {
    let (mut host, _sock) = host_with_socket();
    let legacy = host.spawn(Uid(1002), "carol", "legacy-app");
    assert!(host.stack.bind(IpProto::UDP, 8080, legacy, &host.procs));
    let before = derive_count();
    for _ in 0..FRAMES {
        let report = host.deliver_frame(wire_frame(&host, 1234, 8080), Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
        assert!(host.stack.recv(IpProto::UDP, 8080, false).0.is_some());
    }
    assert_eq!(derive_count() - before, FRAMES);
}

#[test]
fn built_frames_are_never_parsed_on_tx() {
    let (mut host, sock) = host_with_socket();
    let before = derive_count();
    for i in 0..FRAMES {
        let frame = sock.frame(b"reply");
        assert!(host.app_send(sock.conn(), &frame, Time::from_us(i)).queued);
        host.pump_tx(Time::from_us(i));
    }
    assert_eq!(derive_count() - before, 0);
}
