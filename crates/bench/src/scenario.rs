//! Scenario pieces more than one experiment builds: the peer's frames
//! and connections, RSS-balanced port sets, the §5 receiver model.

use std::net::Ipv4Addr;

use nicsim::ConnId;
use norman::host::ConnectError;
use norman::Host;
use oskernel::Pid;
use pkt::{FiveTuple, IpProto, Mac, Packet, PacketBuilder};

/// The remote peer all inbound traffic comes from.
pub(crate) const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Full-size frames of the §5 experiments (E2, E3, M6).
pub(crate) const FRAME: usize = 1500;
/// Cores of the §5 receiver.
pub(crate) const CORES: f64 = 6.0;
/// The receiver's 100 Gbps port.
pub(crate) const LINE_GBPS: f64 = 100.0;

/// Goodput of the §5 receiver when each `FRAME` costs `ns` of its
/// bottleneck resource: `CORES` in parallel, capped at the line.
pub(crate) fn goodput_gbps(ns: f64) -> f64 {
    (FRAME as f64 * 8.0 / (ns / CORES)).min(LINE_GBPS)
}

/// A UDP frame from the peer's `src_port` to `host`'s `dst_port`.
pub(crate) fn udp_to_host(host: &Host, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(PEER_IP, host.cfg.ip)
        .udp(src_port, dst_port, payload)
        .build()
}

/// A non-blocking UDP connection from `pid`'s `port` to the peer's
/// `peer_port`.
pub(crate) fn connect_udp(
    host: &mut Host,
    pid: Pid,
    port: u16,
    peer_port: u16,
) -> Result<ConnId, ConnectError> {
    host.connect(pid, IpProto::UDP, port, PEER_IP, peer_port, false)
}

/// Tries to open `n` UDP connections for `pid` across the port space:
/// local ports cycle through 1024..61024 and the peer's port, from
/// `peer_base`, counts the laps. Returns each attempt with its
/// `(local, peer)` ports; whether a refusal is fatal is the caller's call.
pub(crate) fn open_spread(
    host: &mut Host,
    pid: Pid,
    n: usize,
    peer_base: u16,
) -> Vec<(Result<ConnId, ConnectError>, u16, u16)> {
    (0..n)
        .map(|i| {
            let (port, peer_port) = (1024 + (i % 60_000) as u16, peer_base + (i / 60_000) as u16);
            (connect_udp(host, pid, port, peer_port), port, peer_port)
        })
        .collect()
}

/// `per_queue` UDP ports per RX queue of `host`'s RSS indirection, for
/// traffic from the peer's port 9000: a load offered over them is
/// balanced by construction. Sorted.
pub(crate) fn ports_covering_queues(host: &Host, per_queue: usize) -> Vec<u16> {
    let n = host.cfg.nic.num_queues;
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); n];
    for port in 7000..9000u16 {
        let tuple = FiveTuple::udp(PEER_IP, 9000, host.cfg.ip, port);
        let q = usize::from(host.nic.rss().queue_for(pkt::meta::flow_hash_of(&tuple)));
        if buckets[q].len() < per_queue {
            buckets[q].push(port);
        }
        if buckets.iter().all(|b| b.len() == per_queue) {
            break;
        }
    }
    assert!(
        buckets.iter().all(|b| b.len() == per_queue),
        "port scan exhausted before covering {n} queues"
    );
    let mut ports: Vec<u16> = buckets.into_iter().flatten().collect();
    ports.sort_unstable();
    ports
}

/// The applications' own compute between service rounds: a 48 MiB
/// working set swept through the LLC. Without it the LLC's non-DDIO ways
/// would quietly absorb every ring (an idle host has no DDIO problem);
/// with it, ring lines survive only as long as the DDIO share holds them.
/// Not charged to any per-packet cost.
pub(crate) fn sweep_app_working_set(host: &mut Host) {
    let (base, bytes): (u64, u64) = (0x80_0000_0000, 48 << 20);
    let mem = host.cfg.mem.clone();
    let mut addr = base;
    while addr < base + bytes {
        host.llc_mut()
            .access_range(addr, 64, memsim::AccessKind::CpuRead, &mem);
        addr += 64;
    }
}
