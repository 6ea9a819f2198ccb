//! Cross-crate integration: the hierarchical flow-state tier.
//!
//! PR7 splits the NIC flow table into a bounded SRAM-charged hot tier
//! and a host-memory cold tier, with promotion/eviction steered by a
//! kernel-committed [`FlowCacheConfig`]. These tests pin the properties
//! the rest of the stack leans on:
//!
//! 1. **Determinism** — promotion/eviction under a seeded NIC crash
//!    storm replays to a byte-identical metrics document (which folds in
//!    every `flowtable.*` counter), with clean audits across both tiers.
//! 2. **Worker parity** — `run_workers(1)` over a tiered flow table
//!    stays counter-for-counter identical to the inline pump path.
//! 3. **Crash conservation** — cold-tier entries survive a NIC crash:
//!    the kernel rebuilds both tiers deterministically under the
//!    committed policy and `Host::audit` balances hot + cold against
//!    open connections.
//! 4. **Observability** — tier movements surface as
//!    `Stage::FlowPromoted` / `Stage::FlowDemoted` through `ktrace`.
//! 5. **Control plane** — the policy commits, validates, rolls back,
//!    and reverts through the same two-phase `ctrl` path as every
//!    other dataplane policy.

use std::net::Ipv4Addr;

use nicsim::{FlowCacheConfig, FlowTier};
use norman::host::DeliveryOutcome;
use norman::tools::trace as ktrace;
use norman::{Host, HostConfig, Stage};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::fault::{CrashInjector, OpFaultInjector};
use sim::{Dur, Time};
use telemetry::TraceFilter;

fn wire_udp(host: &Host, src_port: u16, dst_port: u16, len: usize) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(src_port, dst_port, &vec![0u8; len])
        .build()
}

/// A host with `n` connections: port 443 first, then the 7000 range.
fn tiered_host(policy: FlowCacheConfig, n: usize) -> (Host, Vec<(nicsim::ConnId, u16)>) {
    let cfg = HostConfig {
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    host.update_policy(Time::ZERO, |p| p.flow_cache = Some(policy))
        .expect("commit flow-cache policy");
    let bob = host.spawn(Uid(1001), "bob", "server");
    let conns = (0..n)
        .map(|i| {
            let port = if i == 0 { 443 } else { 7000 + i as u16 };
            let id = host
                .connect(
                    bob,
                    IpProto::UDP,
                    port,
                    Ipv4Addr::new(10, 0, 0, 2),
                    9000,
                    false,
                )
                .expect("connect");
            (id, port)
        })
        .collect();
    (host, conns)
}

/// Seeded crash storm over a churning two-tier flow table: the tier
/// movements (and everything downstream of them) must replay to a
/// byte-identical metrics document with clean audits.
#[test]
fn seeded_chaos_tiering_replays_byte_identical() {
    fn run() -> (String, u64, u64) {
        // Hot tier of 2 over 6 connections: round-robin traffic churns
        // promotions/evictions on every pass.
        let (mut host, conns) = tiered_host(FlowCacheConfig::priority_aware(2, &[443]), 6);
        host.set_nic_crash_injector(CrashInjector::seeded_rate(1234, 0.02));
        let mut t = Time::from_us(1);
        for round in 0..300u64 {
            let port = conns[(round % conns.len() as u64) as usize].1;
            let burst = [
                wire_udp(&host, 9000, port, 128),
                wire_udp(&host, 9000, 443, 96),
            ];
            host.pump(&burst, t);
            for &(id, _) in &conns {
                host.app_recv(id, t, false);
            }
            t += Dur::from_ms(1);
        }
        // Settle: disarm the injector, drive any pending reset +
        // reconcile to completion so the audit sees steady state.
        host.set_nic_crash_injector(CrashInjector::never());
        let probe = wire_udp(&host, 9000, 443, 64);
        host.pump(std::slice::from_ref(&probe), t);
        host.pump(std::slice::from_ref(&probe), t + Dur::from_ms(500));
        let violations = host.audit();
        assert!(violations.is_empty(), "audit: {violations:?}");
        let fs = host.nic.flows.stats();
        (
            host.metrics_snapshot().to_json_pretty(),
            fs.promotions,
            fs.evictions,
        )
    }
    let (a, promotions, evictions) = run();
    let (b, ..) = run();
    assert!(promotions > 0, "storm must exercise promotions");
    assert!(evictions > 0, "storm must exercise evictions");
    assert_eq!(a, b, "tier churn under chaos must replay byte-identically");
}

/// The single-worker shard path over a tiered flow table must be
/// indistinguishable, counter for counter, from the inline pump path.
#[test]
fn tiering_worker_mode_matches_inline_counter_for_counter() {
    fn run(workers: bool) -> String {
        let (mut host, conns) = tiered_host(FlowCacheConfig::lru(2), 5);
        if workers {
            host.run_workers(1).expect("workers");
        }
        let mut log = String::new();
        for round in 0..8u64 {
            let t = Time::from_us(round * 50);
            // Rotate so every connection crosses cold->hot->cold.
            let burst: Vec<Packet> = (0..3)
                .map(|k| {
                    let port = conns[((round + k) % conns.len() as u64) as usize].1;
                    wire_udp(&host, 9000, port, 200)
                })
                .collect();
            let (reports, _) = host.pump(&burst, t);
            for r in &reports {
                log.push_str(&format!("{:?} {:?}\n", r.outcome, r.mem_cost));
            }
            for (i, &(id, _)) in conns.iter().enumerate() {
                let r = host.app_recv(id, t + Dur::from_us(1), false);
                log.push_str(&format!("recv {i} {:?} {:?}\n", r.len, r.cpu));
            }
        }
        if workers {
            host.stop_workers();
        }
        let fs = host.nic.flows.stats();
        log.push_str(&format!(
            "hot {} cold {} lookups {} cold_hits {} promotions {} evictions {}\n",
            host.nic.flows.num_hot(),
            host.nic.flows.num_cold(),
            fs.lookups,
            fs.cold_hits,
            fs.promotions,
            fs.evictions
        ));
        for &(id, port) in &conns {
            log.push_str(&format!(
                "tier {port} {:?}\n",
                host.nic.flows.tier_of(id).expect("live conn")
            ));
        }
        let violations = host.audit();
        assert!(violations.is_empty(), "audit: {violations:?}");
        log
    }
    assert_eq!(run(false), run(true));
}

/// Cold-tier entries survive a NIC crash: the recovery path rebuilds
/// both tiers under the committed policy, the tier split lands exactly
/// where the policy puts it, and every connection still receives.
#[test]
fn cold_entries_survive_nic_crash_and_audit_balances() {
    let (mut host, conns) = tiered_host(FlowCacheConfig::pinned(4, &[443]), 6);
    // Pinned: only :443 may be hot — 1 hot, 5 cold, by construction.
    assert_eq!(host.nic.flows.num_hot(), 1);
    assert_eq!(host.nic.flows.num_cold(), 5);
    assert!(host.audit().is_empty());

    host.set_nic_crash_injector(CrashInjector::at_op(3));
    let burst: Vec<Packet> = conns
        .iter()
        .map(|&(_, port)| wire_udp(&host, 9000, port, 100))
        .collect();
    host.pump(&burst, Time::from_us(10));
    let (_, crashes) = host.nic.crash_injector_stats();
    assert_eq!(crashes, 1, "schedule must have fired");
    // The next dataplane entry drives reset + restore + reconcile.
    host.pump(&burst, Time::from_us(20));
    assert!(!host.nic.is_dead(), "kernel must reset the NIC");
    let mut t = Time::from_ms(1);
    while host.nic.is_frozen(t) {
        t += Dur::from_ms(1);
    }
    host.pump(&burst, t);

    // Both tiers rebuilt deterministically under the committed policy.
    assert_eq!(host.nic.flows.num_hot(), 1, "pinned conn back in SRAM");
    assert_eq!(host.nic.flows.num_cold(), 5, "cold tier restored");
    for &(id, port) in &conns {
        let want = if port == 443 {
            FlowTier::Hot
        } else {
            FlowTier::Cold
        };
        assert_eq!(host.nic.flows.tier_of(id), Some(want), "port {port}");
    }
    let violations = host.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");

    // And they all still carry traffic end to end.
    for &(id, port) in &conns {
        let f = wire_udp(&host, 9000, port, 64);
        let rep = host.deliver_from_wire(&f, t + Dur::from_us(1));
        assert_eq!(rep.outcome, DeliveryOutcome::FastPath(id));
        // Drain fully: recovery may have salvaged earlier frames too.
        let mut got = 0;
        while host.app_recv(id, t + Dur::from_us(2), false).len.is_some() {
            got += 1;
        }
        assert!(got >= 1, "port {port} must receive after recovery");
    }
}

/// Tier movements are first-class trace events: `ktrace` shows a
/// promotion (and the LRU victim's demotion) on the packet that caused
/// them.
#[test]
fn tier_movements_visible_through_ktrace() {
    let (mut host, conns) = tiered_host(FlowCacheConfig::lru(1), 2);
    let root = oskernel::Cred::root();
    host.start_trace();
    // Conn 0 holds the single hot slot; traffic to conn 1 hits cold,
    // promotes it, and demotes conn 0.
    let f = wire_udp(&host, 9000, conns[1].1, 64);
    let rep = host.deliver_from_wire(&f, Time::from_us(5));
    assert_eq!(rep.outcome, DeliveryOutcome::FastPath(conns[1].0));
    assert_eq!(host.nic.flows.tier_of(conns[1].0), Some(FlowTier::Hot));
    assert_eq!(host.nic.flows.tier_of(conns[0].0), Some(FlowTier::Cold));

    assert_eq!(host.telemetry().stage_count(Stage::FlowPromoted), 1);
    assert_eq!(host.telemetry().stage_count(Stage::FlowDemoted), 1);
    let promoted = ktrace::query(
        &host,
        &root,
        &TraceFilter::any().with_stage(Stage::FlowPromoted),
    )
    .expect("ktrace query");
    assert_eq!(promoted.len(), 1);
    let demoted = ktrace::query(
        &host,
        &root,
        &TraceFilter::any().with_stage(Stage::FlowDemoted),
    )
    .expect("ktrace query");
    assert_eq!(demoted.len(), 1);
}

/// The flow-cache policy rides the same two-phase commit as every other
/// policy: phase-1 validation rejects nonsense, a faulted apply rolls
/// back without touching the NIC, and dropping the policy re-promotes
/// everything the SRAM can hold.
#[test]
fn flow_cache_policy_commits_validates_and_rolls_back() {
    let (mut host, conns) = tiered_host(FlowCacheConfig::lru(2), 5);
    assert_eq!(host.nic.flows.num_hot(), 2);
    assert_eq!(host.nic.flows.num_cold(), 3);
    let gen = host.policy_generation();

    // Phase 1 rejects a zero-capacity hot tier; nothing changes.
    assert!(host
        .update_policy(Time::from_us(10), |p| {
            p.flow_cache = Some(FlowCacheConfig::lru(0))
        })
        .is_err());
    assert_eq!(host.policy_generation(), gen);
    assert_eq!(host.nic.flow_cache().expect("policy").hot_capacity, 2);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    // A faulted apply rolls the whole commit back: the resident policy
    // and both tiers are exactly as before, generation unchanged.
    host.set_policy_fault_injector(OpFaultInjector::fail_nth(1));
    assert!(host
        .update_policy(Time::from_us(20), |p| {
            p.flow_cache = Some(FlowCacheConfig::priority_aware(4, &[443]))
        })
        .is_err());
    assert_eq!(host.policy_generation(), gen);
    assert_eq!(host.nic.flow_cache().expect("policy").hot_capacity, 2);
    assert_eq!(host.nic.flows.num_hot(), 2);
    assert_eq!(host.nic.flows.num_cold(), 3);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    // A clean commit re-tiers live connections under the new policy.
    host.update_policy(Time::from_us(30), |p| {
        p.flow_cache = Some(FlowCacheConfig::pinned(4, &[443]))
    })
    .expect("commit pinned policy");
    assert_eq!(host.nic.flows.num_hot(), 1, "only :443 is pinned");
    assert_eq!(host.nic.flows.num_cold(), 4);
    assert!(host.audit().is_empty(), "{:?}", host.audit());

    // Dropping the policy reverts to the untiered table: everything
    // the SRAM can hold goes hot again.
    host.update_policy(Time::from_us(40), |p| p.flow_cache = None)
        .expect("drop policy");
    assert!(host.nic.flow_cache().is_none());
    assert_eq!(host.nic.flows.num_hot(), conns.len());
    assert_eq!(host.nic.flows.num_cold(), 0);
    assert!(host.audit().is_empty(), "{:?}", host.audit());
}
