//! PR5 — multi-queue RSS scaling baseline.
//!
//! The tentpole question: does sharding the dataplane across N RSS
//! queues with one shard per queue actually buy aggregate throughput?
//! Virtual time makes the answer exact: every fast-path delivery charges
//! its CPU cost to the core of the shard that owns the ring, so the
//! *makespan* of a run is the busiest core's meter — the bottleneck core
//! a real multicore host would wait on. Aggregate goodput is delivered
//! bytes over that makespan. Cores are modelled by accounting, not by
//! host threads, so sharding must not cost wall clock either: each
//! width is timed against the unsharded run and held within 3x of it
//! (printed, not stored — `results/` holds deterministic fields only).
//!
//! Two results, written to `results/exp_pr5_bench.json`:
//!
//! 1. **Scaling curve** — the identical offered load (same flow count,
//!    frame size, burst cadence) at 1, 2, and 4 queues/workers. Flows
//!    are chosen so the NIC's uniform indirection table spreads them
//!    evenly at each width. Acceptance bar: >= 2.5x aggregate goodput at
//!    4 workers vs 1.
//! 2. **Single-queue parity** — the 1-shard run versus the same script
//!    on an unsharded host: identical delivery counts and host counters,
//!    so multi-queue mode costs nothing when disabled.

use std::net::Ipv4Addr;
use std::time::Instant;

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::{FiveTuple, IpProto, Mac, Packet, PacketBuilder};
use serde::Serialize;
use sim::{Dur, Time};

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
struct Parity {
    pump_delivered: u64,
    worker_delivered: u64,
    /// Delivered counts and every `HostStats` counter agree.
    identical: bool,
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    flows: usize,
    frame_len: usize,
    bursts: u64,
    scaling: Vec<ScalePoint>,
    parity: Parity,
}

/// Finds `per_queue` UDP ports per RSS queue under the boot-time uniform
/// table at width `n`, so the offered load is balanced by construction.
fn ports_covering_queues(ip: Ipv4Addr, n: usize, per_queue: usize) -> Vec<u16> {
    let table = nicsim::RssTable::uniform(n);
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); n];
    for port in 7000..9000u16 {
        let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 2), 9000, ip, port);
        let q = usize::from(table.queue_for(pkt::meta::flow_hash_of(&tuple)));
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
    let ports = ports_covering_queues(h.cfg.ip, queues, FLOWS / queues.max(1));
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| {
            h.connect(
                pid,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap()
        })
        .collect();
    let frames: Vec<Packet> = ports
        .iter()
        .map(|&port| {
            PacketBuilder::new()
                .ether(Mac::local(9), h.cfg.mac)
                .ipv4(Ipv4Addr::new(10, 0, 0, 2), h.cfg.ip)
                .udp(9000, port, &[0u8; PAYLOAD])
                .build()
        })
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
    h.run_workers(workers).unwrap();
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

fn main() {
    println!("PR5: multi-queue RSS scaling — per-core shards vs the single-queue dataplane\n");

    // --- 1. scaling curve --------------------------------------------------
    let p1 = scale_point(1, None);
    let base = p1.0.goodput_gbps;
    let (scaling, wall_ms): (Vec<ScalePoint>, Vec<f64>) =
        [p1, scale_point(2, Some(base)), scale_point(4, Some(base))]
            .into_iter()
            .unzip();

    // --- 2. single-queue parity -------------------------------------------
    let (mut pump_host, conns, frames) = mk_host(1);
    let start = Instant::now();
    let (pump_delivered, pump_bytes) = run_load(&mut pump_host, &conns, &frames);
    let pump_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let pump_stats = format!("{:?}", pump_host.stats());
    let (mut worker_host, conns, frames) = mk_host(1);
    worker_host.run_workers(1).unwrap();
    let (worker_delivered, worker_bytes) = run_load(&mut worker_host, &conns, &frames);
    let worker_stats = format!("{:?}", worker_host.stats());
    assert_eq!(pump_bytes, worker_bytes, "parity: delivered bytes");
    let parity = Parity {
        pump_delivered,
        worker_delivered,
        identical: pump_delivered == worker_delivered && pump_stats == worker_stats,
    };

    let out = Output {
        schema: "norman-bench-pr5-v1",
        flows: FLOWS,
        frame_len: frames[0].bytes().len(),
        bursts: BURSTS,
        scaling,
        parity,
    };

    let mut table = bench::Table::new(
        "PR5 — RSS scaling (virtual bottleneck-core time)",
        &[
            "workers",
            "delivered",
            "makespan (us)",
            "goodput (Gbps)",
            "speedup",
            "wall (ms)",
        ],
    );
    for (p, wall) in out.scaling.iter().zip(&wall_ms) {
        table.row(&[
            format!("{}", p.workers),
            format!("{}", p.delivered),
            format!("{:.1}", p.makespan_ns / 1e3),
            format!("{:.1}", p.goodput_gbps),
            format!("{:.2}x", p.speedup_vs_1),
            format!("{wall:.1}"),
        ]);
    }
    table.print();
    println!(
        "\nparity: pump delivered {} vs 1-worker {} — identical counters: {} \
         (unsharded wall clock {pump_wall_ms:.1} ms)",
        out.parity.pump_delivered, out.parity.worker_delivered, out.parity.identical
    );

    // Acceptance bars.
    let p4 = out.scaling.iter().find(|p| p.workers == 4).unwrap();
    assert!(
        p4.speedup_vs_1 >= 2.5,
        "4-worker speedup {:.2}x below the 2.5x bar",
        p4.speedup_vs_1
    );
    assert!(
        out.parity.identical,
        "single-queue worker mode must match the in-line pump exactly:\n  pump:   {pump_stats}\n  worker: {worker_stats}"
    );
    for (p, wall) in out.scaling.iter().zip(&wall_ms) {
        assert!(
            *wall <= 3.0 * pump_wall_ms,
            "{}-worker run took {wall:.1} ms, over 3x the unsharded {pump_wall_ms:.1} ms",
            p.workers
        );
    }
    println!(
        "Shape check PASSED: 4 workers sustain {:.2}x the single-queue goodput (bar: 2.5x),",
        p4.speedup_vs_1
    );
    println!("and 1-worker mode replays the classic dataplane counter-for-counter.");

    bench::write_json("exp_pr5_bench", &out);
}
