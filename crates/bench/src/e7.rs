//! E7 — KOPI feature-cost ablation: what does each interposition feature
//! cost on the NIC?
//!
//! Paper anchor (§3): "unnecessary transfers of data … lead to
//! performance overheads that are considered unacceptable … Implementing
//! interposition on a SmartNIC avoids such data movement." The claim to
//! validate: adding dataplane features (filters, accounting, classifiers,
//! capture) raises pipelined NIC *latency* but leaves host per-packet
//! cost untouched, and stays below the line-rate budget.

use nicsim::SnifferFilter;
use norman::{Host, HostConfig, PortReservation, ShapingPolicy};
use oskernel::Uid;
use overlay::builtins;
use serde::Serialize;
use sim::Time;
use workloads::placement::{rx_cost, Flow};

use crate::scenario::{connect_udp, udp_to_host};
use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct Row {
    features: &'static str,
    nic_latency_ns: f64,
    host_cpu_ns: f64,
    min_frame_line_rate_ok: bool,
}

fn run_features(features: &'static str) -> Row {
    let mut host = Host::new(HostConfig::default());
    let pid = host.spawn(Uid(1001), "bob", "server");
    let conn = connect_udp(&mut host, pid, 7000, 9000).unwrap();

    // Every feature is declared in the kernel policy store and lowered
    // onto the NIC by one two-phase control-plane commit.
    host.update_policy(Time::ZERO, |p| {
        if features.contains("filter") {
            p.reservations.push(PortReservation::new(7000, Uid(1001)));
        }
        if features.contains("classify") {
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 1.0)]));
        }
        if features.contains("account") {
            p.accounting = vec![builtins::byte_accounting(), builtins::arp_counter()];
        }
        if features.contains("sniff") {
            p.sniffer = Some(SnifferFilter::all());
        }
    })
    .unwrap();

    let frame = udp_to_host(&host, 9000, 7000, &[0u8; 64]);

    // The accounting E1 and normanbench use; arrivals 1 µs apart so
    // pipeline occupancy does not inflate latency.
    let n = 512;
    let cost = rx_cost(&mut host, Flow::Ring(conn), &frame, n);
    assert_eq!(cost.delivered, n, "every frame takes the fast path");
    if features.contains("account") {
        // Byte accounting (slot 0, map 0, keyed by the uid's low byte)
        // saw every frame.
        let bytes = host.nic.read_accounting_map(0, 0, 1001 & 0xFF);
        assert_eq!(bytes, Some(n * frame.len() as u64), "accounted bytes");
    }
    let t = Time::from_us(n);

    // Line-rate feasibility for 64 B frames (6.72 ns on the wire): the
    // pipeline is pipelined, so the constraint is per-stage occupancy,
    // dominated by the overlay programs. Measure occupancy directly with
    // a back-to-back burst on the raw NIC.
    let burst0 = host.nic.rx(&frame, t);
    let burst1 = host.nic.rx(&frame, t);
    let occupancy = burst1.ready_at - burst0.ready_at;
    let min_frame_ok = occupancy <= sim::Link::hundred_gbe().serialization(64) * 16;
    // (A real pipeline processes 16 packets in parallel stages; the
    // occupancy budget is 16 x the serialization time.)

    Row {
        features,
        nic_latency_ns: cost.per_frame_ns(cost.nic_latency),
        host_cpu_ns: cost.per_frame_ns(cost.host()),
        min_frame_line_rate_ok: min_frame_ok,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let rows: Vec<Row> = [
        "none",
        "filter",
        "filter+classify",
        "filter+classify+account",
        "filter+classify+account+sniff",
    ]
    .into_iter()
    .map(run_features)
    .collect();

    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let claims = vec![
        // The whole point of on-path interposition: host CPU does not
        // grow with NIC features.
        claim(
            "e7/host-cpu-flat",
            rows.iter()
                .all(|r| (r.host_cpu_ns - first.host_cpu_ns).abs() < 5.0),
        ),
        // Latency grows with features but stays in the hundreds of ns.
        claim(
            "e7/latency-grows-with-features",
            last.nic_latency_ns > first.nic_latency_ns,
        ),
        claim("e7/latency-sub-us", last.nic_latency_ns < 1_000.0),
        claim(
            "e7/min-frame-line-rate",
            rows.iter().all(|r| r.min_frame_line_rate_ok),
        ),
    ];
    Outcome::new(&rows, claims)
}
