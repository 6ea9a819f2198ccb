//! The Norman library: POSIX-flavoured sockets over the KOPI dataplane.
//!
//! §4.3: applications "use the familiar sockets interface" while "calls
//! that establish a new connection" go to the kernel and data operations
//! touch only rings and MMIO. [`NormanSocket`] is that handle: `connect`
//! is a control-plane call on [`Host`]; `send`/`recv` are ring
//! operations.

use std::net::Ipv4Addr;

use nicsim::ConnId;
use oskernel::Pid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::Time;

use crate::host::{ConnectError, Host, RecvResult, SendResult};

/// A connected Norman socket.
#[derive(Clone, Debug)]
pub struct NormanSocket {
    conn: ConnId,
    proto: IpProto,
    local_ip: Ipv4Addr,
    local_port: u16,
    remote_ip: Ipv4Addr,
    remote_port: u16,
    local_mac: Mac,
    remote_mac: Mac,
}

impl NormanSocket {
    /// Opens a connection (the `connect(2)` path through the kernel
    /// control plane).
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        host: &mut Host,
        pid: Pid,
        proto: IpProto,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        remote_mac: Mac,
        blocking: bool,
    ) -> Result<NormanSocket, ConnectError> {
        let conn = host.connect(pid, proto, local_port, remote_ip, remote_port, blocking)?;
        Ok(NormanSocket {
            conn,
            proto,
            local_ip: host.cfg.ip,
            local_port,
            remote_ip,
            remote_port,
            local_mac: host.cfg.mac,
            remote_mac,
        })
    }

    /// Returns the NIC connection id.
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// Builds the wire frame for a payload (what the library's zero-copy
    /// TX path assembles directly in the ring).
    pub fn frame(&self, payload: &[u8]) -> Packet {
        let b = PacketBuilder::new()
            .ether(self.local_mac, self.remote_mac)
            .ipv4(self.local_ip, self.remote_ip);
        match self.proto {
            IpProto::TCP => b
                .tcp(
                    self.local_port,
                    self.remote_port,
                    pkt::TcpFlags::ACK,
                    payload,
                )
                .build(),
            _ => b.udp(self.local_port, self.remote_port, payload).build(),
        }
    }

    /// Sends a payload.
    pub fn send(&self, host: &mut Host, payload: &[u8], now: Time) -> SendResult {
        let frame = self.frame(payload);
        host.app_send(self.conn, &frame, now)
    }

    /// Receives the next payload zero-copy (the efficient abstraction of
    /// §4.2: the caller reads the payload in place in the ring).
    pub fn recv(&self, host: &mut Host, now: Time, blocking: bool) -> RecvResult {
        host.app_recv(self.conn, now, blocking)
    }

    /// POSIX-style receive: the payload is copied into the caller's
    /// buffer (portable, but pays `copy_per_byte x len`).
    pub fn recv_posix(&self, host: &mut Host, now: Time, blocking: bool) -> RecvResult {
        host.app_recv_posix(self.conn, now, blocking)
    }

    /// Closes the socket.
    pub fn close(self, host: &mut Host) {
        host.close(self.conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{DeliveryOutcome, HostConfig};
    use oskernel::Uid;

    fn remote_frame(host: &Host, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(9), host.cfg.mac)
            .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
            .udp(src_port, dst_port, payload)
            .build()
    }

    #[test]
    fn echo_round_trip() {
        let mut host = Host::new(HostConfig::default());
        let bob = host.spawn(Uid(1001), "bob", "echo");
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

        // Peer sends us a datagram.
        let req = remote_frame(&host, 9000, 7000, b"ping");
        let report = host.deliver_from_wire(&req, Time::ZERO);
        assert!(matches!(report.outcome, DeliveryOutcome::FastPath(_)));

        // We receive and reply.
        let r = sock.recv(&mut host, Time::from_us(1), false);
        assert_eq!(r.len, Some(req.len()));
        let s = sock.send(&mut host, b"pong", Time::from_us(2));
        assert!(s.queued);
        let deps = host.pump_tx(Time::from_us(2));
        assert_eq!(deps.len(), 1);
    }

    #[test]
    fn frame_uses_connection_endpoints() {
        let mut host = Host::new(HostConfig::default());
        let bob = host.spawn(Uid(1001), "bob", "client");
        let sock = NormanSocket::connect(
            &mut host,
            bob,
            IpProto::UDP,
            1234,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            Mac::local(9),
            false,
        )
        .unwrap();
        let frame = sock.frame(b"GET /");
        let parsed = frame.parse().unwrap();
        assert_eq!(parsed.ports(), Some((1234, 80)));
        assert_eq!(parsed.ip().unwrap().dst, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn tcp_socket_builds_tcp_frames() {
        let mut host = Host::new(HostConfig::default());
        let bob = host.spawn(Uid(1001), "bob", "client");
        let sock = NormanSocket::connect(
            &mut host,
            bob,
            IpProto::TCP,
            5555,
            Ipv4Addr::new(10, 0, 0, 2),
            22,
            Mac::local(9),
            false,
        )
        .unwrap();
        let frame = sock.frame(b"ssh");
        match frame.parse().unwrap().payload {
            pkt::Payload::Tcp { .. } => {}
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn posix_recv_pays_the_copy_zero_copy_does_not() {
        let mut host = Host::new(HostConfig::default());
        let bob = host.spawn(Uid(1001), "bob", "app");
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
        let frame = remote_frame(&host, 9000, 7000, &[0u8; 1400]);
        // Same-size delivery twice; compare the two receive flavours.
        host.deliver_from_wire(&frame, Time::ZERO);
        host.deliver_from_wire(&frame, Time::ZERO);
        let zc = sock.recv(&mut host, Time::ZERO, false);
        let px = sock.recv_posix(&mut host, Time::ZERO, false);
        assert_eq!(zc.len, px.len);
        let copy = host.cfg.mem.copy(frame.len());
        assert_eq!(px.cpu, zc.cpu + copy, "POSIX pays exactly the copy");
    }

    #[test]
    fn close_tears_down() {
        let mut host = Host::new(HostConfig::default());
        let bob = host.spawn(Uid(1001), "bob", "client");
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
        let conn = sock.conn();
        sock.close(&mut host);
        assert!(host.connection(conn).is_none());
    }
}
