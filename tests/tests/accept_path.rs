//! Cross-crate integration: the `accept(2)` path (§4.3) and a two-host
//! end-to-end exchange over a simulated wire.

use std::net::Ipv4Addr;

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, NormanSocket};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::Time;

fn client_frame(server: &Host, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), server.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), server.cfg.ip)
        .udp(src_port, dst_port, payload)
        .build()
}

#[test]
fn listener_accept_promotes_to_fast_path() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 5000).unwrap();

    // First packet from a new client: slow path + pending accept.
    let first = client_frame(&host, 40_001, 5000, b"hello");
    let rep = host.deliver_from_wire(&first, Time::ZERO);
    assert_eq!(rep.outcome, DeliveryOutcome::SlowPath);
    assert_eq!(host.pending_accept_count(listener), 1);

    // accept() installs the exact-match connection.
    let conn = host.accept(listener, false).expect("pending connection");
    assert_eq!(host.pending_accept_count(listener), 0);
    let c = host.connection(conn).unwrap();
    assert_eq!(c.tuple.src_port, 40_001);
    assert_eq!(c.tuple.dst_port, 5000);

    // Subsequent packets from that client ride the fast path.
    let second = client_frame(&host, 40_001, 5000, b"data");
    let rep = host.deliver_from_wire(&second, Time::from_us(1));
    assert_eq!(rep.outcome, DeliveryOutcome::FastPath(conn));
    let r = host.app_recv(conn, Time::from_us(2), false);
    assert_eq!(r.len, Some(second.len()));

    // A different client still hits the listener.
    let other = client_frame(&host, 40_002, 5000, b"hi");
    let rep = host.deliver_from_wire(&other, Time::from_us(3));
    assert_eq!(rep.outcome, DeliveryOutcome::SlowPath);
    assert_eq!(host.pending_accept_count(listener), 1);
}

#[test]
fn accept_on_empty_listener_is_none() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 5000).unwrap();
    assert!(host.accept(listener, false).is_none());
    // And accept on a non-listener id is also None.
    assert!(host.accept(nicsim::ConnId(999), false).is_none());
}

#[test]
fn listener_respects_port_reservations() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "postgres");
    let charlie = host.spawn(Uid(1002), "charlie", "mysqld");
    host.update_policy(Time::ZERO, |p| {
        p.reservations
            .push(norman::policy::PortReservation::new(5432, Uid(1001)))
    })
    .unwrap();
    assert!(host.listen(charlie, IpProto::UDP, 5432).is_err());
    assert!(host.listen(bob, IpProto::UDP, 5432).is_ok());
}

#[test]
fn many_clients_accepted_in_arrival_order() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 6000).unwrap();
    for i in 0..10u16 {
        let pkt = client_frame(&host, 50_000 + i, 6000, b"syn");
        host.deliver_from_wire(&pkt, Time::from_us(u64::from(i)));
    }
    assert_eq!(host.pending_accept_count(listener), 10);
    for i in 0..10u16 {
        let conn = host.accept(listener, false).unwrap();
        assert_eq!(host.connection(conn).unwrap().tuple.src_port, 50_000 + i);
    }
}

/// A client retransmits its first packet before the server accepts: one
/// client is waiting, not two, and accepting it leaves nothing behind
/// that a second `accept()` could install over the first connection.
#[test]
fn retransmitted_first_packet_queues_one_client() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 5000).unwrap();
    let first = client_frame(&host, 40_001, 5000, b"hello");
    for i in 0..2 {
        let rep = host.deliver_from_wire(&first, Time::from_us(i));
        assert_eq!(rep.outcome, DeliveryOutcome::SlowPath);
    }
    assert_eq!(host.pending_accept_count(listener), 1);

    let conn = host.accept(listener, false).expect("pending connection");
    assert!(host.accept(listener, false).is_none());
    assert_eq!(host.nic.flows.num_exact(), 1);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    let data = client_frame(&host, 40_001, 5000, b"data");
    let rep = host.deliver_from_wire(&data, Time::from_us(2));
    assert_eq!(rep.outcome, DeliveryOutcome::FastPath(conn));
    assert_eq!(
        host.app_recv(conn, Time::from_us(3), false).len,
        Some(data.len())
    );
    assert!(host.close(conn));
    assert!(host.audit().is_empty(), "{:?}", host.audit());
}

/// The flow table holds one entry per tuple: a second `connect` on an
/// installed tuple is refused, charges nothing and leaves the first
/// connection steering.
#[test]
fn double_connect_on_one_tuple_is_refused() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let remote = Ipv4Addr::new(10, 0, 0, 2);
    let conn = host
        .connect(bob, IpProto::UDP, 5000, remote, 40_001, false)
        .unwrap();
    let sram = host.nic.sram.used();
    let err = host
        .connect(bob, IpProto::UDP, 5000, remote, 40_001, false)
        .unwrap_err();
    assert!(err.to_string().contains("already installed"), "{err}");
    assert_eq!(host.nic.sram.used(), sram);
    assert_eq!(host.nic.flows.num_exact(), 1);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    // A second listener on the port is refused the same way.
    host.listen(bob, IpProto::UDP, 6000).unwrap();
    assert!(host.listen(bob, IpProto::UDP, 6000).is_err());
    assert_eq!(host.nic.flows.num_listeners(), 1);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    let data = client_frame(&host, 40_001, 5000, b"data");
    let rep = host.deliver_from_wire(&data, Time::ZERO);
    assert_eq!(rep.outcome, DeliveryOutcome::FastPath(conn));
}

/// A flood of first packets from distinct clients fills a listener's
/// backlog and stops there: the first client past it is counted and not
/// queued, and its frame still reaches the kernel stack.
#[test]
fn accept_backlog_is_bounded_and_counted() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 6000).unwrap();
    let mut clients = 0u16;
    while host.stats().accept_backlog_refused == 0 {
        assert!(clients < 10_000, "the backlog never filled");
        clients += 1;
        let pkt = client_frame(&host, 10_000 + clients, 6000, b"syn");
        let rep = host.deliver_from_wire(&pkt, Time::from_us(u64::from(clients)));
        assert_eq!(rep.outcome, DeliveryOutcome::SlowPath);
    }
    // Backlog + 1 clients: every one but the last is waiting.
    assert_eq!(host.stats().accept_backlog_refused, 1);
    assert_eq!(
        host.pending_accept_count(listener),
        usize::from(clients) - 1
    );
    assert_eq!(host.stats().slowpath, u64::from(clients));
    assert!(host.audit().is_empty(), "{:?}", host.audit());
}

/// Closing a listener gives back everything `listen` took: the NIC
/// entry and its SRAM, the clients still waiting, and the port.
#[test]
fn closing_a_listener_releases_what_it_held() {
    let mut host = Host::new(HostConfig::default());
    let bob = host.spawn(Uid(1001), "bob", "server");
    let sram_before = host.nic.sram.used();
    let listener = host.listen(bob, IpProto::UDP, 6000).unwrap();
    for i in 0..2u16 {
        let pkt = client_frame(&host, 50_000 + i, 6000, b"syn");
        host.deliver_from_wire(&pkt, Time::from_us(u64::from(i)));
    }
    assert_eq!(host.pending_accept_count(listener), 2);

    assert!(host.close(listener));
    assert!(!host.close(listener));
    assert_eq!(host.pending_accept_count(listener), 0);
    assert!(host.accept(listener, false).is_none());
    assert_eq!(host.nic.sram.used(), sram_before);
    assert_eq!(host.nic.flows.num_listeners(), 0);
    assert!(host.audit().is_empty(), "{:?}", host.audit());
    host.listen(bob, IpProto::UDP, 6000)
        .expect("the port is free again");
}

/// A refused `accept()` loses only a client that can never connect. With
/// the NIC out of SRAM the client keeps its place at the head of the
/// backlog and the same `accept()` succeeds once room is freed; a client
/// whose tuple the process has meanwhile connected itself is dropped, so
/// it cannot wedge the ones behind it.
#[test]
fn refused_accept_keeps_the_client_waiting() {
    let mut cfg = HostConfig::default();
    cfg.nic.sram_bytes = 4096;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let listener = host.listen(bob, IpProto::UDP, 6000).unwrap();
    for i in 0..2u16 {
        let pkt = client_frame(&host, 40_001 + i, 6000, b"hello");
        host.deliver_from_wire(&pkt, Time::from_us(u64::from(i)));
    }
    assert_eq!(host.pending_accept_count(listener), 2);
    let remote = Ipv4Addr::new(10, 0, 0, 2);
    host.connect(bob, IpProto::UDP, 6000, remote, 40_001, false)
        .unwrap();
    let mut hogs = Vec::new();
    while let Ok(conn) = host.connect(
        bob,
        IpProto::UDP,
        7000,
        remote,
        9000 + hogs.len() as u16,
        false,
    ) {
        hogs.push(conn);
    }
    assert!(!hogs.is_empty());

    // Already installed: permanent. No room: transient.
    assert!(host.accept(listener, false).is_none());
    assert_eq!(host.pending_accept_count(listener), 1);
    assert!(host.accept(listener, false).is_none());
    assert_eq!(host.pending_accept_count(listener), 1);

    assert!(host.close(hogs[0]));
    let conn = host.accept(listener, false).expect("room was freed");
    assert_eq!(host.connection(conn).unwrap().tuple.src_port, 40_002);
    assert_eq!(host.pending_accept_count(listener), 0);
    assert!(host.audit().is_empty(), "{:?}", host.audit());
}

/// Two hosts wired back to back: a full request/response across both
/// dataplanes, with the "wire" delivering each host's departures to the
/// other.
#[test]
fn two_hosts_request_response_over_wire() {
    let server_cfg = HostConfig::default();
    let client_cfg = HostConfig {
        ip: Ipv4Addr::new(10, 0, 0, 2),
        mac: Mac::local(2),
        ..HostConfig::default()
    };
    let mut server = Host::new(server_cfg);
    let mut client = Host::new(client_cfg);

    // Server listens; client connects outward.
    let srv_pid = server.spawn(Uid(1001), "bob", "server");
    let listener = server.listen(srv_pid, IpProto::UDP, 7000).unwrap();
    let cli_pid = client.spawn(Uid(2001), "dana", "client");
    let cli_sock = NormanSocket::connect(
        &mut client,
        cli_pid,
        IpProto::UDP,
        40_000,
        server.cfg.ip,
        7000,
        server.cfg.mac,
        false,
    )
    .unwrap();

    // Client sends the request through its own NIC.
    let s = cli_sock.send(&mut client, b"request", Time::ZERO);
    assert!(s.queued);
    let departures = client.pump_tx(Time::ZERO);
    assert_eq!(departures.len(), 1);

    // The wire: rebuild the frame the client sent and deliver to server.
    let request_frame = cli_sock.frame(b"request");
    let rep = server.deliver_from_wire(&request_frame, departures[0].arrives_at);
    assert_eq!(rep.outcome, DeliveryOutcome::SlowPath); // listener hit

    // Server accepts and now has a fast-path connection to the client.
    let srv_conn = server.accept(listener, false).expect("client pending");

    // Server responds.
    let response = PacketBuilder::new()
        .ether(server.cfg.mac, client.cfg.mac)
        .ipv4(server.cfg.ip, client.cfg.ip)
        .udp(7000, 40_000, b"response")
        .build();
    let sr = server.app_send(srv_conn, &response, Time::from_us(10));
    assert!(sr.queued);
    let deps = server.pump_tx(Time::from_us(10));
    assert_eq!(deps.len(), 1);

    // Wire back to the client: lands on its fast path.
    let rep = client.deliver_from_wire(&response, deps[0].arrives_at);
    assert!(matches!(rep.outcome, DeliveryOutcome::FastPath(_)));
    let r = cli_sock.recv(&mut client, deps[0].arrives_at, false);
    assert_eq!(r.len, Some(response.len()));

    // Both administrators retain full visibility of their side.
    let root = oskernel::Cred::root();
    let srv_rows = norman::tools::knetstat::connections(&server, &root).unwrap();
    assert!(srv_rows
        .iter()
        .any(|r| r.comm == "server" && r.via == "nic"));
    let cli_rows = norman::tools::knetstat::connections(&client, &root).unwrap();
    assert!(cli_rows.iter().any(|r| r.comm == "client"));
}
