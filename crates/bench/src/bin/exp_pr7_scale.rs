//! PR7 — the connection-scaling cliff under hierarchical flow state.
//!
//! E2 shows the paper's §5 cliff: per-connection ring working sets
//! outgrow the DDIO share of the LLC just past ~1024 connections and
//! goodput collapses for *everyone*. This bench measures what the
//! two-tier flow table buys: the kernel sizes the on-NIC hot tier to
//! the DDIO share (hot rings keep allocating into DDIO; cold rings DMA
//! straight to DRAM and pay a host-memory table walk on lookup) and
//! picks the eviction policy, so *which* traffic falls off the cliff
//! becomes a kernel decision instead of a cache accident.
//!
//! Sweep: {1k, 100k, 1M} concurrent connections (`BENCH_SMOKE=1`
//! shrinks to {1k, 4k, 16k}) × four committed policies:
//!
//! * `untiered` — no flow cache: every ring competes for DDIO (E2).
//! * `lru` — recency only: round-robin traffic thrashes the hot tier,
//!   so past the hot capacity everyone goes cold.
//! * `priority-aware` — connections on port 443 outrank the rest and
//!   stay hot; bulk flows churn through the remainder.
//! * `pinned` — only port 443 may be hot; bulk flows are always cold,
//!   even when the hot tier has room.
//!
//! 512 high-priority connections live on port 443 in every run. The
//! cliff for a policy is the largest swept count at which its
//! high-priority goodput still holds >= 90% of the policy's own 1k
//! figure. Acceptance: priority-aware (and pinned) hold the bar at the
//! top of the sweep — the cliff moves from ~1k to past 1M — while
//! untiered and LRU collapse. The full sweep takes minutes, so this is
//! the one experiment with a smoke mode: a full run writes
//! `results/exp_pr7_scale.json`, a smoke run
//! `results/exp_pr7_scale.smoke.json`, and both are committed.

use std::net::Ipv4Addr;

use memsim::LlcConfig;
use nicsim::FlowCacheConfig;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::{IpProto, Mac, PacketBuilder};
use serde::Serialize;
use sim::{Dur, Time};

const FRAME: usize = 1500;
const CORES: f64 = 6.0;
const LINE_GBPS: f64 = 100.0;
const HI_PORT: u16 = 443;
const HI_COUNT: usize = 512;
const RING_SLOTS: usize = 2;
const RING_SLOT_BYTES: usize = 2048;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Hot-tier capacity sized to the DDIO share: the kernel knows the LLC
/// topology and the per-connection ring footprint, so it can bound the
/// number of DDIO-allocating rings to what DDIO can actually hold.
fn hot_capacity() -> usize {
    let llc = LlcConfig::xeon_default();
    (llc.ddio_capacity() / (RING_SLOTS * RING_SLOT_BYTES) as u64) as usize
}

#[derive(Clone, Copy, Default)]
struct ClassAccum {
    dma: Dur,
    nic: Dur,
    recv: Dur,
    pkts: u64,
}

impl ClassAccum {
    fn ns(&self, d: Dur) -> f64 {
        d.as_ns_f64() / self.pkts as f64
    }

    fn goodput(&self) -> f64 {
        let serial = self
            .ns(self.dma)
            .max(self.ns(self.recv))
            .max(self.ns(self.nic));
        (FRAME as f64 * 8.0 / (serial / CORES)).min(LINE_GBPS)
    }
}

#[derive(Serialize)]
struct Row {
    policy: &'static str,
    connections: usize,
    goodput_gbps: f64,
    hi_goodput_gbps: f64,
    lo_goodput_gbps: f64,
    hi_dma_ns: f64,
    hi_recv_ns: f64,
    lo_dma_ns: f64,
    lo_recv_ns: f64,
    lo_nic_ns: f64,
    hot_entries: usize,
    cold_entries: usize,
    promotions: u64,
    evictions: u64,
    audit_violations: usize,
}

#[derive(Serialize)]
struct Cliff {
    policy: &'static str,
    /// Largest swept count where high-priority goodput holds >= 90% of
    /// the policy's own figure at the smallest count.
    cliff_connections: usize,
    hi_goodput_at_max: f64,
    hi_retention_at_max: f64,
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    smoke: bool,
    hot_capacity: usize,
    counts: Vec<usize>,
    rows: Vec<Row>,
    cliffs: Vec<Cliff>,
}

fn run(conns: usize, policy: Option<FlowCacheConfig>, policy_name: &'static str) -> Row {
    let mut cfg = HostConfig {
        llc: LlcConfig::xeon_default(),
        ..HostConfig::default()
    };
    cfg.ring_slots = RING_SLOTS;
    cfg.ring_slot_bytes = RING_SLOT_BYTES;
    // SRAM sizing is E3's experiment; here the untiered baseline must be
    // able to hold every connection on-NIC so the cliff it shows is the
    // cache cliff, not an SRAM refusal.
    cfg.nic.sram_bytes = 1 << 30;
    let mut host = Host::new(cfg);
    host.update_policy(Time::ZERO, |p| p.flow_cache = policy.clone())
        .expect("commit flow-cache policy");
    let pid = host.spawn(Uid(1001), "bob", "server");

    // 512 high-priority connections on port 443, the bulk on the rest of
    // the port space. Five-tuples stay unique via the remote side.
    let hi = HI_COUNT.min(conns / 2);
    let mut ports = Vec::with_capacity(conns);
    let mut conn_ids = Vec::with_capacity(conns);
    for i in 0..conns {
        let (port, remote_port) = if i < hi {
            (HI_PORT, 20_000 + i as u16)
        } else {
            let j = i - hi;
            (1024 + (j % 60_000) as u16, 5_000 + (j / 60_000) as u16)
        };
        let id = host
            .connect(
                pid,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                remote_port,
                false,
            )
            .expect("open connection");
        ports.push((port, remote_port));
        conn_ids.push(id);
    }

    let payload = vec![0u8; FRAME - 42];
    let src_mac = Mac::local(9);
    let src_ip = Ipv4Addr::new(10, 0, 0, 2);
    let (dst_mac, dst_ip) = (host.cfg.mac, host.cfg.ip);

    // Application compute pressure between service rounds, as in E2:
    // without it the CPU ways would quietly absorb every ring.
    let bg_bytes: u64 = 48 << 20;
    let bg_base: u64 = 0x80_0000_0000;
    let mem = host.cfg.mem.clone();

    // Steady state needs one warm round (tier churn reaches its fixed
    // point within a single round-robin pass); big sweeps measure one
    // round, small ones two, like E2.
    let rounds = if conns >= 100_000 { 2 } else { 4 };
    let measured_rounds = if conns >= 100_000 { 1 } else { 2 };
    let mut hi_acc = ClassAccum::default();
    let mut lo_acc = ClassAccum::default();
    let s0 = host.nic.flows.stats();
    for round in 0..rounds {
        let measure = round >= rounds - measured_rounds;
        // NIC fill phase: one frame per connection, in connection order
        // (high-priority first). The reuse distance of a ring line spans
        // the whole live population, exactly as in E2's spread load.
        for (i, &(port, remote_port)) in ports.iter().enumerate() {
            let frame = PacketBuilder::new()
                .ether(src_mac, dst_mac)
                .ipv4(src_ip, dst_ip)
                .udp(remote_port, port, &payload)
                .build();
            let rep = host.deliver_from_wire(&frame, Time::ZERO);
            assert!(
                matches!(rep.outcome, DeliveryOutcome::FastPath(_)),
                "{policy_name}/{conns}: frame {i} must take the fast path, got {:?}",
                rep.outcome
            );
            if measure {
                let acc = if port == HI_PORT {
                    &mut hi_acc
                } else {
                    &mut lo_acc
                };
                acc.dma += rep.mem_cost;
                acc.nic += rep.nic_latency;
                acc.pkts += 1;
            }
        }
        // Service phase, same order: each app drains its one frame.
        for (i, &id) in conn_ids.iter().enumerate() {
            let r = host.app_recv(id, Time::ZERO, false);
            assert!(r.len.is_some(), "ring holds the delivered frame");
            if measure {
                let acc = if ports[i].0 == HI_PORT {
                    &mut hi_acc
                } else {
                    &mut lo_acc
                };
                acc.recv += r.cpu;
            }
        }
        // Compute phase: sweep the apps' own working set through the LLC.
        let mut addr = bg_base;
        while addr < bg_base + bg_bytes {
            host.llc_mut()
                .access_range(addr, 64, memsim::AccessKind::CpuRead, &mem);
            addr += 64;
        }
    }
    let fs = host.nic.flows.stats();
    let violations = host.audit();
    assert!(
        violations.is_empty(),
        "{policy_name}/{conns}: {violations:?}"
    );

    let total = ClassAccum {
        dma: hi_acc.dma + lo_acc.dma,
        nic: hi_acc.nic + lo_acc.nic,
        recv: hi_acc.recv + lo_acc.recv,
        pkts: hi_acc.pkts + lo_acc.pkts,
    };
    Row {
        policy: policy_name,
        connections: conns,
        goodput_gbps: total.goodput(),
        hi_goodput_gbps: hi_acc.goodput(),
        lo_goodput_gbps: lo_acc.goodput(),
        hi_dma_ns: hi_acc.ns(hi_acc.dma),
        hi_recv_ns: hi_acc.ns(hi_acc.recv),
        lo_dma_ns: lo_acc.ns(lo_acc.dma),
        lo_recv_ns: lo_acc.ns(lo_acc.recv),
        lo_nic_ns: lo_acc.ns(lo_acc.nic),
        hot_entries: host.nic.flows.num_hot(),
        cold_entries: host.nic.flows.num_cold(),
        promotions: fs.promotions - s0.promotions,
        evictions: fs.evictions - s0.evictions,
        audit_violations: violations.len(),
    }
}

fn main() {
    let cap = hot_capacity();
    let counts: Vec<usize> = if smoke() {
        vec![1_000, 4_000, 16_000]
    } else {
        vec![1_000, 100_000, 1_000_000]
    };
    println!("PR7: connection scaling under hierarchical flow state");
    println!(
        "(6-core receiver, 1500B frames, {RING_SLOTS}x{RING_SLOT_BYTES}B rings, \
         hot tier = {cap} entries = DDIO share, {HI_COUNT} high-prio conns on :{HI_PORT})"
    );

    type Policy = (&'static str, fn(usize) -> Option<FlowCacheConfig>);
    let policies: [Policy; 4] = [
        ("untiered", |_| None),
        ("lru", |cap| Some(FlowCacheConfig::lru(cap))),
        ("priority-aware", |cap| {
            Some(FlowCacheConfig::priority_aware(cap, &[HI_PORT]))
        }),
        ("pinned", |cap| {
            Some(FlowCacheConfig::pinned(cap, &[HI_PORT]))
        }),
    ];

    let mut rows = Vec::new();
    let mut cliffs = Vec::new();
    for (name, make) in policies {
        let mut table = bench::Table::new(
            &format!("PR7 — {name}"),
            &[
                "connections",
                "goodput (Gbps)",
                "hi-prio (Gbps)",
                "bulk (Gbps)",
                "hot",
                "cold",
                "promotions",
            ],
        );
        for &n in &counts {
            let row = run(n, make(cap), name);
            table.row(&[
                n.to_string(),
                format!("{:.1}", row.goodput_gbps),
                format!("{:.1}", row.hi_goodput_gbps),
                format!("{:.1}", row.lo_goodput_gbps),
                row.hot_entries.to_string(),
                row.cold_entries.to_string(),
                row.promotions.to_string(),
            ]);
            rows.push(row);
        }
        table.print();

        let base = rows
            .iter()
            .find(|r| r.policy == name && r.connections == counts[0])
            .expect("baseline row")
            .hi_goodput_gbps;
        let cliff = counts
            .iter()
            .copied()
            .filter(|&n| {
                rows.iter()
                    .find(|r| r.policy == name && r.connections == n)
                    .expect("row")
                    .hi_goodput_gbps
                    >= 0.90 * base
            })
            .max()
            .unwrap_or(0);
        let at_max = rows
            .iter()
            .find(|r| r.policy == name && r.connections == *counts.last().expect("counts"))
            .expect("max row");
        cliffs.push(Cliff {
            policy: name,
            cliff_connections: cliff,
            hi_goodput_at_max: at_max.hi_goodput_gbps,
            hi_retention_at_max: at_max.hi_goodput_gbps / base,
        });
    }

    // Shape checks — the acceptance bars.
    let g = |policy: &str, conns: usize| {
        rows.iter()
            .find(|r| r.policy == policy && r.connections == conns)
            .expect("row")
    };
    let top = *counts.last().expect("counts");
    for (name, _) in &policies {
        assert!(
            g(name, counts[0]).hi_goodput_gbps >= 99.0,
            "{name}: high-prio line rate at {}",
            counts[0]
        );
    }
    assert!(
        g("untiered", top).hi_goodput_gbps < 0.5 * g("untiered", counts[0]).hi_goodput_gbps,
        "untiered high-prio traffic must fall off the cliff"
    );
    assert!(
        g("lru", top).hi_goodput_gbps < 0.5 * g("lru", counts[0]).hi_goodput_gbps,
        "LRU cannot protect high-prio traffic from round-robin churn"
    );
    for name in ["priority-aware", "pinned"] {
        let retention = g(name, top).hi_goodput_gbps / g(name, counts[0]).hi_goodput_gbps;
        assert!(
            retention >= 0.90,
            "{name}: high-prio goodput retained {retention:.2} at {top} conns, bar 0.90"
        );
        assert!(
            g(name, top).cold_entries > 0,
            "{name}: bulk flows must be in the cold tier at {top} conns"
        );
    }
    assert_eq!(
        g("untiered", top).cold_entries,
        0,
        "untiered runs have no cold tier"
    );
    println!(
        "\nShape check PASSED: untiered and LRU high-prio goodput collapse past the DDIO share,"
    );
    println!(
        "priority-aware and pinned hold >=90% of their 1k high-prio goodput at {top} connections —"
    );
    println!("the cliff is now a kernel policy decision, not a cache accident.");

    let out = Output {
        schema: "norman-bench-pr7-v1",
        smoke: smoke(),
        hot_capacity: cap,
        counts,
        rows,
        cliffs,
    };
    bench::write_json(
        if smoke() {
            "exp_pr7_scale.smoke"
        } else {
            "exp_pr7_scale"
        },
        &out,
    );
}
