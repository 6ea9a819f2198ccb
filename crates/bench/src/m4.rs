//! M4 — multi-queue RSS scaling.
//!
//! The question: does sharding the dataplane across N RSS
//! queues with one shard per queue actually buy aggregate throughput?
//! Virtual time makes the answer exact: every fast-path delivery charges
//! its CPU cost to the core of the shard that owns the ring, so the
//! *makespan* of a run is the busiest core's meter — the bottleneck core
//! a real multicore host would wait on. Aggregate goodput is delivered
//! bytes over that makespan. Cores are modelled by accounting, not by
//! host threads, so sharding must not cost wall clock either: each
//! width is timed against the one-queue (one-shard) run and held within
//! 3x of it (never stored: `results/` holds deterministic fields only).
//!
//! The result, written to `results/exp_m4_rss_scaling.json`, is a
//! **scaling curve**: the identical offered load (same flow count, frame
//! size, burst cadence) on hosts booted with 1, 2, and 4 RSS queues, one
//! shard each. Flows are chosen so the NIC's uniform indirection table
//! spreads them evenly at each width. Acceptance bar: >= 2.5x aggregate
//! goodput at 4 workers vs 1.

use std::time::Instant;

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::Packet;
use serde::Serialize;
use sim::{Dur, Time};

use crate::scenario::{connect_udp, ports_covering_queues, udp_to_host};
use crate::{claim, Mode, Outcome};

const FLOWS: usize = 8;
const PAYLOAD: usize = 1458;
const GAP: Dur = Dur::from_us(1);
const BURSTS: u64 = 5_000;

#[derive(Serialize)]
struct ScalePoint {
    workers: usize,
    frames: u64,
    delivered: u64,
    delivered_bytes: u64,
    makespan_ns: f64,
    per_core_busy_ns: Vec<f64>,
    goodput_gbps: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    flows: usize,
    frame_len: usize,
    bursts: u64,
    scaling: Vec<ScalePoint>,
}

fn mk_host(queues: usize) -> (Host, Vec<nicsim::ConnId>, Vec<Packet>) {
    let mut h = Host::new(HostConfig {
        nic: nicsim::NicConfig {
            num_queues: queues,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 256,
        ..HostConfig::default()
    });
    let pid = h.spawn(Uid(1001), "bob", "server");
    let ports = ports_covering_queues(&h, FLOWS / queues.max(1));
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| connect_udp(&mut h, pid, port, 9000).unwrap())
        .collect();
    let frames: Vec<Packet> = ports
        .iter()
        .map(|&port| udp_to_host(&h, 9000, port, &[0u8; PAYLOAD]))
        .collect();
    (h, conns, frames)
}

/// Offers `BURSTS` rounds of one frame per flow, draining every ring
/// each round. Returns (delivered frames, delivered bytes).
fn run_load(h: &mut Host, conns: &[nicsim::ConnId], frames: &[Packet]) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    for i in 0..BURSTS {
        let t = Time::ZERO + GAP * i;
        let (reports, _) = h.pump(frames, t);
        for r in &reports {
            if matches!(r.outcome, DeliveryOutcome::FastPath(_)) {
                delivered += 1;
            }
        }
        for &conn in conns {
            while let Some(len) = h.app_recv(conn, t, false).len {
                bytes += len as u64;
            }
        }
    }
    (delivered, bytes)
}

/// One width of the curve and the wall-clock milliseconds its load took.
fn scale_point(workers: usize, base_goodput: Option<f64>) -> (ScalePoint, f64) {
    let (mut h, conns, frames) = mk_host(workers);
    let start = Instant::now();
    let (delivered, bytes) = run_load(&mut h, &conns, &frames);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    assert_eq!(delivered, BURSTS * FLOWS as u64, "lossless by design");

    let per_core: Vec<f64> = (0..workers)
        .map(|c| h.sched.core_meter(c).busy.as_ns_f64())
        .collect();
    let makespan = per_core.iter().cloned().fold(0.0f64, f64::max);
    assert!(makespan > 0.0, "no delivery work charged to any core");
    let goodput = (bytes * 8) as f64 / makespan; // bits/ns == Gbps
    let point = ScalePoint {
        workers,
        frames: delivered,
        delivered,
        delivered_bytes: bytes,
        makespan_ns: makespan,
        per_core_busy_ns: per_core,
        goodput_gbps: goodput,
        speedup_vs_1: base_goodput.map_or(1.0, |b| goodput / b),
    };
    (point, wall_ms)
}

pub(crate) fn run(_: Mode) -> Outcome {
    let p1 = scale_point(1, None);
    let base = p1.0.goodput_gbps;
    let (scaling, wall_ms): (Vec<ScalePoint>, Vec<f64>) =
        [p1, scale_point(2, Some(base)), scale_point(4, Some(base))]
            .into_iter()
            .unzip();

    // The offered frame, the same at every width.
    let frame_len = mk_host(1).2[0].len();
    let p4 = scaling.iter().find(|p| p.workers == 4).unwrap();
    let claims = vec![
        claim("m4/4-workers-at-least-2.5x", p4.speedup_vs_1 >= 2.5),
        // Cores are accounting, not threads: sharding must not cost wall
        // clock either (timed here, never stored). The one-shard point
        // is the plain pump path.
        claim(
            "m4/sharded-wall-within-3x-of-pump",
            wall_ms.iter().all(|&wall| wall <= 3.0 * wall_ms[0]),
        ),
    ];
    let out = Output {
        schema: "norman-bench-pr5-v1",
        flows: FLOWS,
        frame_len,
        bursts: BURSTS,
        scaling,
    };
    Outcome::new(&out, claims)
}
