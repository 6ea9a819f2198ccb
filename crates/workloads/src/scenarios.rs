//! The §2 testbed: Alice's server with Bob's and Charlie's applications.
//!
//! One builder assembles the exact cast of the paper's four management
//! scenarios: Bob runs Postgres on port 5432, Charlie runs MySQL on
//! 3306, both occasionally play an online game over changing ports, and
//! one buggy application floods ARP.

use std::net::Ipv4Addr;

use nicsim::ConnId;
use norman::{Host, HostConfig};
use oskernel::{Pid, Uid};
use pkt::{IpProto, Mac, Packet, PacketBuilder};

/// Bob's uid.
pub const BOB: Uid = Uid(1001);
/// Charlie's uid.
pub const CHARLIE: Uid = Uid(1002);

/// One tenant application with an open connection.
#[derive(Clone, Debug)]
pub struct TenantApp {
    /// The process.
    pub pid: Pid,
    /// Local port.
    pub port: u16,
    /// The fast-path connection.
    pub conn: ConnId,
}

/// Alice's server, populated per §2.
pub struct AliceTestbed {
    /// The host.
    pub host: Host,
    /// Bob's Postgres (port 5432).
    pub postgres: TenantApp,
    /// Charlie's MySQL (port 3306).
    pub mysql: TenantApp,
    /// Bob's game client (ephemeral port).
    pub bob_game: TenantApp,
    /// Charlie's game client (ephemeral port).
    pub charlie_game: TenantApp,
    /// The buggy ARP flooder (Bob's, naturally).
    pub flooder_pid: Pid,
    /// The remote peer's address.
    pub peer_ip: Ipv4Addr,
    /// The remote peer's MAC.
    pub peer_mac: Mac,
}

impl AliceTestbed {
    /// Builds the testbed on a default host configuration.
    pub fn new() -> AliceTestbed {
        AliceTestbed::with_config(HostConfig::default())
    }

    /// Builds the testbed on a custom host configuration.
    pub(crate) fn with_config(cfg: HostConfig) -> AliceTestbed {
        let peer_ip = Ipv4Addr::new(10, 0, 0, 2);
        let peer_mac = Mac::local(9);
        let mut host = Host::new(cfg);

        let app = |host: &mut Host, uid: Uid, user: &str, comm: &str, port: u16, notify: bool| {
            let pid = host.spawn(uid, user, comm);
            let conn = host
                .connect(pid, IpProto::UDP, port, peer_ip, 9000 + port, notify)
                .expect("testbed connection");
            TenantApp { pid, port, conn }
        };

        let postgres = app(&mut host, BOB, "bob", "postgres", 5432, true);
        let mysql = app(&mut host, CHARLIE, "charlie", "mysqld", 3306, true);
        let bob_game = app(&mut host, BOB, "bob", "game", 42_001, false);
        let charlie_game = app(&mut host, CHARLIE, "charlie", "game", 42_002, false);
        let flooder_pid = host.spawn(BOB, "bob", "arp-flooder");

        AliceTestbed {
            host,
            postgres,
            mysql,
            bob_game,
            charlie_game,
            flooder_pid,
            peer_ip,
            peer_mac,
        }
    }

    /// Builds a frame arriving from the peer to `app`, directly into a
    /// slot of the host's arena — no scratch payload `Vec`, no heap
    /// frame (the zero-length-payload form writes zeroes in place).
    pub fn inbound(&self, app: &TenantApp, payload_len: usize) -> Packet {
        PacketBuilder::new()
            .ether(self.peer_mac, self.host.cfg.mac)
            .ipv4(self.peer_ip, self.host.cfg.ip)
            .udp_zeroes(9000 + app.port, app.port, payload_len)
            .build_in(self.host.arena())
    }

    /// Builds a frame for `app` to transmit, arena-backed as
    /// [`AliceTestbed::inbound`] is.
    pub fn outbound(&self, app: &TenantApp, payload_len: usize) -> Packet {
        PacketBuilder::new()
            .ether(self.host.cfg.mac, self.peer_mac)
            .ipv4(self.host.cfg.ip, self.peer_ip)
            .udp_zeroes(app.port, 9000 + app.port, payload_len)
            .build_in(self.host.arena())
    }

    /// Builds one frame of the buggy app's ARP flood. In a kernel-bypass
    /// world the flooder generates its own ARP traffic (§2: "each
    /// application is responsible for generating their own ARP traffic"),
    /// with a source MAC nobody recognizes.
    pub(crate) fn arp_flood_frame(&self, seq: u32) -> Packet {
        PacketBuilder::arp_request(
            Mac::local(0xBAD),
            self.host.cfg.ip,
            Ipv4Addr::new(10, 0, (seq >> 8) as u8, seq as u8),
        )
    }

    /// Sends the ARP flood through the flooder's NIC path (egress), so
    /// the KOPI tap sees and attributes it. Returns how many frames were
    /// offered.
    ///
    /// The flooder has no flow-table connection (ARP is not TCP/UDP), so
    /// on a real Norman host its raw frames would reach the NIC through a
    /// raw-frame ring bound to its pid; we model that binding by opening
    /// a raw connection for the flooder on first use.
    pub fn run_arp_flood(&mut self, frames: u32, now: sim::Time) -> u32 {
        // Bind a raw connection so the NIC can attribute the flooder's
        // frames (Norman binds every TX ring to a pid at setup).
        let conn = self
            .host
            .connect(
                self.flooder_pid,
                IpProto::UDP,
                61_000,
                self.peer_ip,
                61_000,
                false,
            )
            .expect("flooder raw binding");
        for seq in 0..frames {
            let frame = self.arp_flood_frame(seq);
            let _ = self.host.nic.tx_enqueue(conn, &frame, now);
        }
        frames
    }
}

impl Default for AliceTestbed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norman::host::DeliveryOutcome;
    use sim::Time;

    #[test]
    fn testbed_builds_the_cast() {
        let tb = AliceTestbed::new();
        assert_eq!(tb.host.num_connections(), 4);
        // Distinct processes.
        let pids = [
            tb.postgres.pid,
            tb.mysql.pid,
            tb.bob_game.pid,
            tb.charlie_game.pid,
            tb.flooder_pid,
        ];
        let mut unique = pids.to_vec();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn inbound_frames_reach_their_apps() {
        let mut tb = AliceTestbed::new();
        let pkt = tb.inbound(&tb.postgres.clone(), 200);
        let report = tb.host.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(tb.postgres.conn));
    }

    #[test]
    fn outbound_frames_parse_with_app_ports() {
        let tb = AliceTestbed::new();
        let pkt = tb.outbound(&tb.mysql, 100);
        let parsed = pkt.parse().unwrap();
        assert_eq!(
            pkt::FiveTuple::from_parsed(&parsed).map(|t| (t.src_port, t.dst_port)),
            Some((3306, 9000 + 3306))
        );
    }

    #[test]
    fn arp_flood_is_attributable_through_sniffer() {
        let mut tb = AliceTestbed::new();
        tb.host
            .update_policy(Time::ZERO, |p| {
                p.sniffer = Some(nicsim::SnifferFilter {
                    arp_only: true,
                    ..nicsim::SnifferFilter::all()
                })
            })
            .unwrap();
        tb.run_arp_flood(25, Time::ZERO);
        let entries = tb.host.nic.sniffer.entries();
        assert_eq!(entries.len(), 25);
        assert!(entries
            .iter()
            .all(|e| e.comm.as_deref() == Some("arp-flooder")));
    }
}
