//! E3 — NIC memory exhaustion and the software slow path.
//!
//! Paper anchor (§5): "SmartNICs inherently have limited memory …
//! per-connection state at the NIC can be a scalability bottleneck …
//! Our hope is that a combination of careful data structure design, as
//! well as the option to route 'low priority' or 'performance
//! non-critical' traffic through a software datapath, will mitigate
//! these challenges."
//!
//! We sweep the NIC's SRAM size, attempt to open 16 384 connections, and
//! measure aggregate goodput under an even per-connection load with and
//! without the slow-path fallback. Expected shape: small NICs accept few
//! connections; without fallback the rest get nothing, with fallback
//! they limp along at kernel-stack rates.

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::IpProto;
use serde::Serialize;
use sim::Time;

use crate::scenario::{goodput_gbps, open_spread, udp_to_host, FRAME, LINE_GBPS};
use crate::{claim, Mode, Outcome};

const TARGET_CONNS: usize = 16_384;

#[derive(Serialize)]
struct Row {
    sram_mib: f64,
    conns_accepted: usize,
    fast_share_gbps: f64,
    slow_share_gbps: f64,
    goodput_with_fallback_gbps: f64,
    goodput_without_fallback_gbps: f64,
}

fn run_point(sram_bytes: u64) -> Row {
    let mut cfg = HostConfig::default();
    cfg.nic.sram_bytes = sram_bytes;
    cfg.ring_slots = 2;
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");

    let (accepted, refused): (Vec<_>, Vec<_>) = open_spread(&mut host, pid, TARGET_CONNS, 10_000)
        .into_iter()
        .partition(|(id, ..)| id.is_ok());
    let refused = refused.len();

    // Measure the two per-packet service rates empirically: one fast-path
    // connection and one refused connection's traffic.
    let payload = vec![0u8; FRAME - 42];
    let fast_ns = if let Some(&(Ok(id), port, peer_port)) = accepted.first() {
        let pktf = udp_to_host(&host, peer_port, port, &payload);
        let mut total = 0.0;
        let n = 256;
        for _ in 0..n {
            let rep = host.deliver_from_wire(&pktf, Time::ZERO);
            assert!(matches!(rep.outcome, DeliveryOutcome::FastPath(_)));
            let r = host.app_recv(id, Time::ZERO, false);
            total += rep.mem_cost.as_ns_f64().max(r.cpu.as_ns_f64());
        }
        total / n as f64
    } else {
        f64::INFINITY
    };

    // Slow path: a packet to a port with no NIC flow entry, handled by
    // the kernel stack (which must also bind a socket to accept it).
    host.stack.bind(IpProto::UDP, 62_000, pid, &host.procs);
    let pkts = udp_to_host(&host, 9000, 62_000, &payload);
    let mut slow_total = 0.0;
    let n = 256;
    for _ in 0..n {
        let rep = host.deliver_from_wire(&pkts, Time::ZERO);
        assert_eq!(rep.outcome, DeliveryOutcome::SlowPath);
        // Kernel processing plus the recv syscall the app must make.
        let (p, recv_cost) = host.stack.recv(IpProto::UDP, 62_000, false);
        assert!(p.is_some());
        slow_total += (rep.kernel_cpu + recv_cost).as_ns_f64();
    }
    let slow_ns = slow_total / n as f64;

    // Aggregate model: offered load is spread evenly across all target
    // connections; fast-path connections share the line rate (bounded by
    // CPU), slow-path connections are bounded by one kernel core.
    let offered_per_conn = LINE_GBPS / TARGET_CONNS as f64;
    let fast_capacity = goodput_gbps(fast_ns);
    let fast_share = (accepted.len() as f64 * offered_per_conn).min(fast_capacity);
    let slow_capacity = FRAME as f64 * 8.0 / slow_ns; // one kernel core
    let slow_demand = refused as f64 * offered_per_conn;
    let slow_share = slow_demand.min(slow_capacity);

    Row {
        sram_mib: sram_bytes as f64 / (1 << 20) as f64,
        conns_accepted: accepted.len(),
        fast_share_gbps: fast_share,
        slow_share_gbps: slow_share,
        goodput_with_fallback_gbps: fast_share + slow_share,
        goodput_without_fallback_gbps: fast_share,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let sizes: [u64; 6] = [256 << 10, 1 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20];
    let rows: Vec<Row> = sizes.iter().map(|&bytes| run_point(bytes)).collect();

    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let claims = vec![
        claim(
            "e3/small-sram-refuses-most",
            first.conns_accepted < TARGET_CONNS / 4,
        ),
        claim(
            "e3/big-sram-accepts-all",
            last.conns_accepted == TARGET_CONNS,
        ),
        claim(
            "e3/fallback-helps",
            first.goodput_with_fallback_gbps > first.goodput_without_fallback_gbps,
        ),
        claim(
            "e3/full-sram-line-rate",
            last.goodput_with_fallback_gbps >= 99.0,
        ),
        claim(
            "e3/accepted-grows-with-sram",
            rows.windows(2)
                .all(|w| w[0].conns_accepted <= w[1].conns_accepted),
        ),
    ];
    Outcome::new(&rows, claims)
}
