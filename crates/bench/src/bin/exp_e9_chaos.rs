//! E9 — chaos sweep: the dataplane under a deterministically misbehaving
//! wire.
//!
//! The paper's case for kernel interposition (§3) rests on the dataplane
//! staying *correct* when the world around it is not: frames arrive
//! corrupted, links flap, the NIC reprograms mid-flight. This experiment
//! drives seeded fault schedules — steady loss 0–10%, bit corruption
//! 0–1%, bursty Gilbert–Elliott loss, and a mid-run bitstream-reprogram
//! outage — through a [`sim::FaultyLink`] into a Norman host while
//! continuously running the NIC's cross-layer state audit.
//!
//! The run also churns the *control plane* while the wire misbehaves: a
//! seeded [`sim::fault::OpFaultInjector`] fails individual apply
//! operations mid-commit, so policy transactions randomly roll back.
//! Every audit checkpoint therefore also exercises the third ledger
//! (`norman::ctrl`): NIC-resident policy state must exactly match the
//! kernel policy store — no partially-applied bundles, ever, including
//! across the mid-run bitstream reprogram (where the control plane must
//! reconcile the full bundle onto the wiped NIC).
//!
//! Four results, all checked at the bottom:
//!   1. goodput degrades smoothly with injected fault rates (no cliffs,
//!      no hangs, no panics);
//!   2. the audit finds zero invariant violations at every checkpoint —
//!      chaos never corrupts NIC state (SRAM accounting, flow table,
//!      scheduler). The sweep runs with lifecycle telemetry *enabled*,
//!      so every audit also cross-checks the trace-event ledger against
//!      each layer's counters ([`Host::audit`]): under chaos, the two
//!      independent accounts of the dataplane must never diverge;
//!   3. mid-commit policy faults really fire (rollbacks > 0) and never
//!      leave a partially-applied bundle behind;
//!   4. the whole sweep is replayable: the same seed produces
//!      byte-identical results (tracing on does not perturb replay).
//!
//! A final sharded segment reruns the kitchen-sink wire against a
//! 4-queue host with one shard per RSS queue ([`Host::run_workers`]):
//! the audits — which now cross shard boundaries — must stay just as
//! clean, and the segment must replay byte-identically.

use std::net::Ipv4Addr;

use norman::host::DeliveryOutcome;
use norman::{
    CtrlError, DegradationPolicy, Host, HostConfig, NatRule, PortReservation, ShapingPolicy,
};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use serde::Serialize;
use sim::fault::{CrashInjector, OpFaultInjector};
use sim::{Dur, FaultSchedule, FaultyLink, Link, Time};

const SEED: u64 = 0xE9_C4A0;
const FRAMES: u64 = 20_000;
const PKT_GAP: Dur = Dur(200_000); // one 1500B frame every 200 ns
const AUDIT_EVERY: u64 = 500;
/// Attempt a policy commit this often (offset from the audit cadence so
/// commits land between checkpoints).
const POLICY_EVERY: u64 = 750;
/// Per-operation probability that a commit step fails mid-apply.
const POLICY_FAULT_RATE: f64 = 0.05;

#[derive(Serialize, Clone, PartialEq)]
struct Row {
    scenario: String,
    offered: u64,
    wire_dropped: u64,
    wire_corrupted: u64,
    delivered_ok: u64,
    rx_malformed: u64,
    goodput_pct: f64,
    tx_deferred: u64,
    tx_retry_flushed: u64,
    audits: u64,
    audit_violations: u64,
    policy_commits: u64,
    policy_rollbacks: u64,
    policy_frozen: u64,
    reconciles: u64,
    generation: u64,
    // Recovery stats (PR6 fault kinds: NIC crash, shard panic, overload).
    nic_crashes: u64,
    nic_resets: u64,
    shard_restarts: u64,
    degraded_slowpath: u64,
    audits_skipped: u64,
}

struct Outage {
    /// Reprogram the NIC when this many frames have been offered.
    at_frame: u64,
}

fn run_chaos(scenario: &str, schedule: FaultSchedule, outage: Option<Outage>) -> Row {
    let cfg = HostConfig {
        ring_slots: 64,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");
    let conn = host
        .connect(
            pid,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    // Baseline policy before traffic: a reservation on the traffic port
    // (owned by bob, so goodput is unaffected), a fixed shaping policy,
    // and a static NAT forward — all of which must survive rollbacks
    // and the mid-run bitstream reprogram intact.
    host.update_policy(Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(7000, Uid(1001)));
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0)]));
        p.nat_external_ip = Some(Ipv4Addr::new(198, 51, 100, 1));
        p.nat_rules.push(NatRule {
            proto: IpProto::UDP,
            ext_port: 8080,
            internal: (Ipv4Addr::new(192, 168, 0, 2), 80),
        });
    })
    .unwrap();
    // From here on, individual commit operations fail with a seeded
    // probability: transactions must roll back cleanly or not at all.
    host.set_policy_fault_injector(OpFaultInjector::seeded_rate(SEED ^ 0x22, POLICY_FAULT_RATE));
    let mut policy_commits = 0u64;
    let mut policy_rollbacks = 0u64;
    let mut policy_frozen = 0u64;
    // Trace the whole run: the audit below then checks the telemetry
    // ledger against every layer's counters at each checkpoint.
    host.start_trace();
    let inbound = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 7000, &[0u8; 1458])
        .build();
    let outbound = PacketBuilder::new()
        .ether(host.cfg.mac, Mac::local(9))
        .ipv4(host.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
        .udp(7000, 9000, &[0u8; 200])
        .build();

    let mut wire = FaultyLink::new(Link::hundred_gbe(), SEED ^ 0x11, schedule);
    let mut delivered_ok = 0u64;
    let mut audits = 0u64;
    let mut audit_violations = 0u64;
    let mut first_violation: Option<String> = None;

    let deliver = |host: &mut Host, at: Time, frame: Vec<u8>, delivered_ok: &mut u64| {
        // Wire bytes are adopted straight into the host arena: the rest
        // of the run moves slot references, never payload copies.
        let pkt = host.adopt_frame(&frame);
        let rep = host.deliver_frame(pkt, at);
        if let DeliveryOutcome::FastPath(_) = rep.outcome {
            *delivered_ok += 1;
            let _ = host.app_recv(conn, at, false);
        }
    };

    for i in 0..FRAMES {
        let t = Time::ZERO + PKT_GAP * i;
        if let Some(o) = &outage {
            if i == o.at_frame {
                host.reprogram_nic(t);
            }
            // While reprogramming, the app keeps trying to send: those
            // frames must defer into the retry buffer, not vanish.
            if i % 100 == 0 {
                let _ = host.app_send(conn, &outbound, t);
                let _ = host.pump_tx(t);
            }
        }
        // Policy churn under fire: flip a second reservation on an
        // unrelated port through a full two-phase commit. Ports rotate
        // so successive bundles differ (real map-fill churn), while the
        // shaping weights stay fixed so the TX scheduler - which may
        // hold queued frames - is never reconfigured mid-run.
        if i % POLICY_EVERY == POLICY_EVERY - 1 {
            let port = 4000 + (i / POLICY_EVERY) as u16 % 16;
            match host.update_policy(t, |p| {
                p.reservations.retain(|r| r.port == 7000);
                p.reservations.push(PortReservation::new(port, Uid(1002)));
            }) {
                Ok(_) => policy_commits += 1,
                Err(CtrlError::CommitFailed { .. }) => policy_rollbacks += 1,
                Err(CtrlError::Frozen { .. }) => policy_frozen += 1,
                Err(e) => panic!("unexpected control-plane error: {e}"),
            }
        }
        for d in wire.transmit(t, inbound.bytes().to_vec()) {
            deliver(&mut host, d.at, d.frame, &mut delivered_ok);
        }
        if i % AUDIT_EVERY == 0 {
            audits += 1;
            let violations = host.audit();
            audit_violations += violations.len() as u64;
            if first_violation.is_none() {
                first_violation = violations.into_iter().next();
            }
        }
    }
    // Drain frames still held for reordering, then a final audit.
    let end = Time::ZERO + PKT_GAP * FRAMES;
    for d in wire.flush(end) {
        deliver(&mut host, d.at, d.frame, &mut delivered_ok);
    }
    let _ = host.pump_tx(Time::MAX);
    audits += 1;
    let final_violations = host.audit();
    audit_violations += final_violations.len() as u64;
    if let Some(v) = first_violation.or_else(|| final_violations.into_iter().next()) {
        eprintln!("AUDIT VIOLATION [{scenario}]: {v}");
    }
    // Segment-end conservation: with rings and socket queues drained,
    // every slot reference handed out over the run — including frames
    // dropped by the wire's faults, the NIC, full rings, and the
    // reprogram outage — must be back in the pool.
    while host.app_recv(conn, end, false).len.is_some() {}
    while host.stack.recv(IpProto::UDP, 7000, false).0.is_some() {}
    assert_eq!(
        host.arena().live(),
        0,
        "arena slots leaked after '{scenario}'"
    );

    let fs = wire.fault_stats();
    let hs = host.stats();
    let ns = host.nic.stats();
    Row {
        scenario: scenario.to_string(),
        offered: FRAMES,
        wire_dropped: fs.dropped + fs.outage_dropped,
        wire_corrupted: fs.corrupted,
        delivered_ok,
        rx_malformed: ns.rx_malformed + ns.rx_bad_checksum,
        goodput_pct: 100.0 * delivered_ok as f64 / FRAMES as f64,
        tx_deferred: hs.tx_deferred,
        tx_retry_flushed: hs.tx_retry_flushed,
        audits,
        audit_violations,
        policy_commits,
        policy_rollbacks,
        policy_frozen,
        reconciles: host.ctrl().stats().reconciles,
        generation: host.policy_generation(),
        nic_crashes: 0,
        nic_resets: ns.resets,
        shard_restarts: 0,
        degraded_slowpath: hs.degraded_slowpath,
        audits_skipped: 0,
    }
}

/// The recovery chaos segment (PR6 fault kinds): a seeded NIC crash
/// storm plus sustained ring overload, on a lossy wire, with lifecycle
/// tracing on. The kernel must reset + restore + reconcile after every
/// crash, the watermark detector must demote the low-priority flow to
/// the software slow path, and every steady-state audit checkpoint must
/// be clean.
fn run_chaos_recovery() -> Row {
    const ROUNDS: u64 = 2_000;
    const GAP: Dur = Dur::from_ms(5);
    let cfg = HostConfig {
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");
    let hi = host
        .connect(
            pid,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let lo = host
        .connect(
            pid,
            IpProto::UDP,
            7001,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    host.update_policy(Time::ZERO, |p| {
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0)]));
        p.degradation = Some(DegradationPolicy {
            high_watermark: 0.5,
            low_watermark: 0.1,
            window: 8,
            low_prio_ports: vec![7001],
        });
    })
    .unwrap();
    host.set_nic_crash_injector(CrashInjector::seeded_rate(SEED ^ 0x55, 0.001));
    host.start_trace();

    let mk = |host: &Host, port: u16| {
        PacketBuilder::new()
            .ether(Mac::local(9), host.cfg.mac)
            .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
            .udp(9000, port, &[0u8; 1458])
            .build()
    };
    let hp = mk(&host, 7000);
    let lp = mk(&host, 7001);
    let mut wire = FaultyLink::new(
        Link::hundred_gbe(),
        SEED ^ 0x66,
        FaultSchedule::steady_loss(0.01),
    );

    let mut delivered_ok = 0u64;
    let mut audits = 0u64;
    let mut audits_skipped = 0u64;
    let mut audit_violations = 0u64;
    let mut first_violation: Option<String> = None;
    for i in 0..ROUNDS {
        let t = Time::ZERO + GAP * i;
        for d in wire.transmit(t, hp.bytes().to_vec()) {
            let pkt = host.adopt_frame(&d.frame);
            let rep = host.deliver_frame(pkt, d.at);
            if let DeliveryOutcome::FastPath(_) = rep.outcome {
                delivered_ok += 1;
            }
        }
        for d in wire.transmit(t, lp.bytes().to_vec()) {
            let pkt = host.adopt_frame(&d.frame);
            let _ = host.deliver_frame(pkt, d.at);
        }
        // The app drains ONLY the high-priority ring, so the low-prio
        // ring saturates and keeps the watermark detector pressured.
        let _ = host.app_recv(hi, t, false);
        // Audit at steady-state checkpoints. Mid-recovery (dead, frozen,
        // or not yet reconciled) the NIC legitimately disagrees with the
        // kernel store — those checkpoints are skipped and counted.
        if i % 100 == 99 {
            let settled = !host.nic.is_dead()
                && !host.nic.is_frozen(t)
                && !host.ctrl().needs_reconcile(&host.nic);
            if settled {
                audits += 1;
                let violations = host.audit();
                audit_violations += violations.len() as u64;
                if first_violation.is_none() {
                    first_violation = violations.into_iter().next();
                }
            } else {
                audits_skipped += 1;
            }
        }
    }
    // Settle: disarm the injector (capturing its counts first), drive
    // any outstanding reset + reconcile to completion, then take the
    // final audit.
    let (_, crashes) = host.nic.crash_injector_stats();
    host.set_nic_crash_injector(CrashInjector::never());
    let end = Time::ZERO + GAP * ROUNDS;
    host.pump(std::slice::from_ref(&hp), end);
    host.pump(std::slice::from_ref(&hp), end + Dur::from_ms(500));
    audits += 1;
    let final_violations = host.audit();
    audit_violations += final_violations.len() as u64;
    if let Some(v) = first_violation.or_else(|| final_violations.into_iter().next()) {
        eprintln!("AUDIT VIOLATION [recovery storm]: {v}");
    }
    // Conservation after the storm: crash wipes, overload drops, and
    // slow-path demotions all release their slot references — draining
    // both rings and both demoted-traffic socket queues must leave the
    // arena empty.
    while host.app_recv(hi, end, false).len.is_some() {}
    while host.app_recv(lo, end, false).len.is_some() {}
    while host.stack.recv(IpProto::UDP, 7000, false).0.is_some() {}
    while host.stack.recv(IpProto::UDP, 7001, false).0.is_some() {}
    assert_eq!(
        host.arena().live(),
        0,
        "arena slots leaked after recovery storm"
    );

    let fs = wire.fault_stats();
    let hs = host.stats();
    let ns = host.nic.stats();
    Row {
        scenario: "1% loss + seeded NIC crash storm + overload degradation".to_string(),
        offered: ROUNDS,
        wire_dropped: fs.dropped + fs.outage_dropped,
        wire_corrupted: fs.corrupted,
        delivered_ok,
        rx_malformed: ns.rx_malformed + ns.rx_bad_checksum,
        goodput_pct: 100.0 * delivered_ok as f64 / ROUNDS as f64,
        tx_deferred: hs.tx_deferred,
        tx_retry_flushed: hs.tx_retry_flushed,
        audits,
        audit_violations,
        policy_commits: 0,
        policy_rollbacks: 0,
        policy_frozen: 0,
        reconciles: host.ctrl().stats().reconciles,
        generation: host.policy_generation(),
        nic_crashes: crashes,
        nic_resets: ns.resets,
        shard_restarts: 0,
        degraded_slowpath: hs.degraded_slowpath,
        audits_skipped,
    }
}

/// The sharded chaos segment: a 4-queue host with one worker per RSS
/// queue under the kitchen-sink wire, plus steering churn (the
/// indirection table rotates through faulted two-phase commits). Audits
/// run on the same cadence as the scalar sweep and must stay clean —
/// counters and events are live, so each checkpoint is a cross-shard
/// snapshot.
fn run_chaos_sharded() -> Row {
    const QUEUES: usize = 4;
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: QUEUES,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 64,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");
    // Two flows per queue under the boot-time uniform table, so every
    // worker sees traffic from the first burst.
    let table = nicsim::RssTable::uniform(QUEUES);
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); QUEUES];
    for port in 7000..9000u16 {
        let tuple = pkt::FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 2), 9000, host.cfg.ip, port);
        let q = usize::from(table.queue_for(pkt::meta::flow_hash_of(&tuple)));
        if buckets[q].len() < 2 {
            buckets[q].push(port);
        }
        if buckets.iter().all(|b| b.len() == 2) {
            break;
        }
    }
    let mut ports: Vec<u16> = buckets.into_iter().flatten().collect();
    ports.sort_unstable();
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| {
            host.connect(
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
    host.run_workers(QUEUES).unwrap();
    host.start_trace();
    host.set_policy_fault_injector(OpFaultInjector::seeded_rate(SEED ^ 0x44, POLICY_FAULT_RATE));

    let frames: Vec<Packet> = ports
        .iter()
        .map(|&port| {
            PacketBuilder::new()
                .ether(Mac::local(9), host.cfg.mac)
                .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
                .udp(9000, port, &[0u8; 1458])
                .build()
        })
        .collect();
    let schedule = FaultSchedule {
        corrupt_rate: 0.002,
        reorder_rate: 0.01,
        reorder_window: 4,
        delay_rate: 0.01,
        max_extra_delay: Dur::from_us(5),
        ..FaultSchedule::steady_loss(0.01)
    };
    let mut wire = FaultyLink::new(Link::hundred_gbe(), SEED ^ 0x33, schedule);

    let mut delivered_ok = 0u64;
    let mut audits = 0u64;
    let mut audit_violations = 0u64;
    let mut policy_commits = 0u64;
    let mut policy_rollbacks = 0u64;
    let mut first_violation: Option<String> = None;
    for i in 0..FRAMES {
        let t = Time::ZERO + PKT_GAP * i;
        let flow = (i % ports.len() as u64) as usize;
        // Steering churn under fire: rotate the indirection table through
        // a faulted two-phase commit; rollbacks must leave the old
        // steering (and every shard's ring ownership) intact.
        if i % POLICY_EVERY == POLICY_EVERY - 1 {
            let rotate = (i / POLICY_EVERY) as usize + 1;
            let rss_table: Vec<u16> = (0..nicsim::RSS_TABLE_SIZE)
                .map(|j| ((j + rotate) % QUEUES) as u16)
                .collect();
            match host.update_policy(t, |p| {
                p.rss = Some(norman::RssPolicy {
                    num_queues: QUEUES,
                    indirection: rss_table.clone(),
                });
            }) {
                Ok(_) => policy_commits += 1,
                Err(CtrlError::CommitFailed { .. }) => policy_rollbacks += 1,
                Err(e) => panic!("unexpected control-plane error: {e}"),
            }
        }
        // Shard chaos: panic a shard (round-robin) every 2500 frames;
        // the supervisor must restart it without losing a resident
        // frame or dirtying a single cross-shard audit.
        if i % 2500 == 2499 {
            let shard = ((i / 2500) % QUEUES as u64) as usize;
            host.inject_worker_panic(shard, "e9 chaos: shard panic", t)
                .expect_err("panic injection must report the crash");
        }
        for d in wire.transmit(t, frames[flow].bytes().to_vec()) {
            let pkt = host.adopt_frame(&d.frame);
            let rep = host.deliver_frame(pkt, d.at);
            if let DeliveryOutcome::FastPath(_) = rep.outcome {
                delivered_ok += 1;
                let _ = host.app_recv(conns[flow], d.at, false);
            }
        }
        // Reordered frames can land on a different flow than the one
        // just offered; a periodic full drain bounds every ring.
        if i % 64 == 0 {
            for &c in &conns {
                while host.app_recv(c, t, false).len.is_some() {}
            }
        }
        if i % AUDIT_EVERY == 0 {
            audits += 1;
            let violations = host.audit();
            audit_violations += violations.len() as u64;
            if first_violation.is_none() {
                first_violation = violations.into_iter().next();
            }
        }
    }
    for d in wire.flush(Time::ZERO + PKT_GAP * FRAMES) {
        let pkt = host.adopt_frame(&d.frame);
        let rep = host.deliver_frame(pkt, d.at);
        if let DeliveryOutcome::FastPath(_) = rep.outcome {
            delivered_ok += 1;
        }
    }
    audits += 1;
    let final_violations = host.audit();
    audit_violations += final_violations.len() as u64;
    if let Some(v) = first_violation.or_else(|| final_violations.into_iter().next()) {
        eprintln!("AUDIT VIOLATION [sharded N=4]: {v}");
    }
    // Every shard's core did real work under chaos.
    assert_eq!(host.sched.num_cores_charged(), QUEUES);
    // Cross-shard conservation: after draining every ring the pool must
    // be whole again — across panics, restarts, and steering churn.
    let end = Time::ZERO + PKT_GAP * (FRAMES + 1);
    for &c in &conns {
        while host.app_recv(c, end, false).len.is_some() {}
    }
    assert_eq!(
        host.arena().live(),
        0,
        "arena slots leaked after sharded chaos"
    );

    let fs = wire.fault_stats();
    let hs = host.stats();
    let ns = host.nic.stats();
    Row {
        scenario: "kitchen sink, 4 RSS queues / 4 workers + shard panics".to_string(),
        offered: FRAMES,
        wire_dropped: fs.dropped + fs.outage_dropped,
        wire_corrupted: fs.corrupted,
        delivered_ok,
        rx_malformed: ns.rx_malformed + ns.rx_bad_checksum,
        goodput_pct: 100.0 * delivered_ok as f64 / FRAMES as f64,
        tx_deferred: 0,
        tx_retry_flushed: 0,
        audits,
        audit_violations,
        policy_commits,
        policy_rollbacks,
        policy_frozen: 0,
        reconciles: host.ctrl().stats().reconciles,
        generation: host.policy_generation(),
        nic_crashes: 0,
        nic_resets: ns.resets,
        shard_restarts: hs.worker_restarts,
        degraded_slowpath: hs.degraded_slowpath,
        audits_skipped: 0,
    }
}

fn run_sweep() -> Vec<Row> {
    let mut rows = Vec::new();

    // Loss curve: 0–10% steady.
    for loss in [0.0, 0.01, 0.02, 0.05, 0.10] {
        rows.push(run_chaos(
            &format!("steady loss {:.0}%", loss * 100.0),
            FaultSchedule::steady_loss(loss),
            None,
        ));
    }
    // Bursty loss at the same long-run rate as the 5% steady point.
    rows.push(run_chaos(
        "bursty (Gilbert-Elliott) ~5%",
        FaultSchedule::bursty_loss(0.05),
        None,
    ));
    // Corruption curve: 0–1%.
    for corrupt in [0.001, 0.005, 0.01] {
        rows.push(run_chaos(
            &format!("corruption {:.1}%", corrupt * 100.0),
            FaultSchedule::corrupting(corrupt),
            None,
        ));
    }
    // The kitchen sink: loss + corruption + reorder + delay, and a
    // bitstream reprogram fired mid-run.
    let sink = FaultSchedule {
        corrupt_rate: 0.002,
        reorder_rate: 0.01,
        reorder_window: 4,
        delay_rate: 0.01,
        max_extra_delay: Dur::from_us(5),
        ..FaultSchedule::steady_loss(0.01)
    };
    rows.push(run_chaos(
        "1% loss + 0.2% corrupt + reorder + mid-run reprogram",
        sink,
        Some(Outage {
            at_frame: FRAMES / 2,
        }),
    ));
    // PR6 fault kinds: NIC crashes, kernel resets, overload degradation.
    rows.push(run_chaos_recovery());
    rows
}

fn main() {
    println!("E9: chaos sweep — seeded fault injection with continuous state audits\n");

    let rows = run_sweep();
    let sharded = run_chaos_sharded();

    let mut table = bench::Table::new(
        "E9 — goodput under injected faults",
        &[
            "scenario",
            "wire drop",
            "wire corrupt",
            "rx malformed",
            "goodput",
            "tx deferred/flushed",
            "policy ok/rb/frz",
            "gen",
            "crash/reset/restart/degr",
            "audit violations",
        ],
    );
    for r in rows.iter().chain(std::iter::once(&sharded)) {
        table.row(&[
            r.scenario.clone(),
            r.wire_dropped.to_string(),
            r.wire_corrupted.to_string(),
            r.rx_malformed.to_string(),
            format!("{:.2}%", r.goodput_pct),
            format!("{}/{}", r.tx_deferred, r.tx_retry_flushed),
            format!(
                "{}/{}/{}",
                r.policy_commits, r.policy_rollbacks, r.policy_frozen
            ),
            r.generation.to_string(),
            format!(
                "{}/{}/{}/{}",
                r.nic_crashes, r.nic_resets, r.shard_restarts, r.degraded_slowpath
            ),
            format!("{}/{} audits", r.audit_violations, r.audits),
        ]);
    }
    table.print();

    // (1) Goodput degrades monotonically-ish along the loss curve and
    // never collapses below the injected fault budget.
    assert!(
        (rows[0].goodput_pct - 100.0).abs() < 1e-9,
        "ideal wire = 100%"
    );
    for w in rows[..5].windows(2) {
        assert!(
            w[1].goodput_pct <= w[0].goodput_pct + 0.5,
            "goodput must fall as loss rises"
        );
    }
    let five_pct = &rows[3];
    assert!(
        five_pct.goodput_pct > 90.0 && five_pct.goodput_pct < 98.0,
        "5% loss costs about 5% goodput, got {:.2}%",
        five_pct.goodput_pct
    );
    // (2) Corruption is caught at the parser, not delivered: malformed
    // counts track the corrupted counts (a few multi-bit flips in the
    // MAC fields can slip past L3/L4 checksums — that is what the FCS
    // would catch on real hardware).
    for r in &rows[6..9] {
        assert!(
            r.rx_malformed as f64 >= 0.8 * r.wire_corrupted as f64,
            "{}: {} corrupted but only {} caught",
            r.scenario,
            r.wire_corrupted,
            r.rx_malformed
        );
    }
    // (3) The outage scenario deferred and then flushed app TX.
    let sink = &rows[9];
    assert!(sink.tx_deferred > 0, "outage must defer app TX");
    assert!(
        sink.tx_retry_flushed > 0,
        "recovery must flush the deferrals"
    );
    // (4) Zero invariant violations anywhere. Every audit includes the
    // control plane's third ledger, so this also proves that no commit —
    // successful, rolled back, or interrupted by the reprogram — ever
    // left a partially-applied bundle on the NIC.
    let total_violations: u64 = rows.iter().map(|r| r.audit_violations).sum();
    let total_audits: u64 = rows.iter().map(|r| r.audits).sum();
    assert_eq!(
        total_violations, 0,
        "chaos must never corrupt NIC state nor diverge the telemetry ledger from the counters"
    );
    // (4b) The control-plane chaos actually fired: across the sweep some
    // commits landed and some rolled back mid-apply, and each row's live
    // generation counts exactly the successful commits (baseline + churn).
    let total_commits: u64 = rows.iter().map(|r| r.policy_commits).sum();
    let total_rollbacks: u64 = rows.iter().map(|r| r.policy_rollbacks).sum();
    assert!(total_commits > 0, "policy churn must commit sometimes");
    assert!(
        total_rollbacks > 0,
        "mid-commit policy faults must fire and roll back"
    );
    for r in &rows {
        assert_eq!(
            r.generation,
            1 + r.policy_commits,
            "{}: generation must count successful commits only",
            r.scenario
        );
    }
    // The reprogram scenario must have reconciled policy onto the wiped NIC.
    assert!(
        sink.reconciles >= 1,
        "bitstream reprogram must trigger a control-plane reconcile"
    );

    // (4d) The recovery storm: the crash schedule really fired, every
    // crash was met with a kernel reset (fail-operational, not fail-
    // stop), overload really demoted the low-prio flow, and the high-
    // prio flow kept the bulk of its goodput through it all.
    let storm = rows.last().unwrap();
    assert!(storm.nic_crashes >= 2, "crash storm must fire");
    assert_eq!(
        storm.nic_resets, storm.nic_crashes,
        "every crash must be answered by a kernel reset"
    );
    assert!(
        storm.reconciles >= storm.nic_crashes,
        "every reset must be followed by a reconcile"
    );
    assert!(
        storm.degraded_slowpath > 0,
        "sustained overload must demote the low-prio flow"
    );
    assert!(
        storm.goodput_pct > 70.0,
        "high-prio goodput through the crash storm collapsed to {:.2}%",
        storm.goodput_pct
    );

    // (4c) The sharded segment: four shards under the same
    // chaos, and the cross-shard audits stay just as clean.
    assert_eq!(
        sharded.audit_violations, 0,
        "sharded chaos must never diverge a shard's ledger from the counters"
    );
    assert!(
        sharded.goodput_pct > 90.0,
        "sharded goodput collapsed to {:.2}%",
        sharded.goodput_pct
    );
    assert!(
        sharded.policy_commits > 0,
        "steering churn must commit sometimes"
    );
    assert_eq!(
        sharded.shard_restarts, 8,
        "every injected shard panic must restart its shard"
    );
    assert_eq!(
        sharded.generation, sharded.policy_commits,
        "sharded generation must count successful commits only"
    );

    // (5) Determinism: the same seed replays byte-identically — including
    // the sharded segment.
    let replay = run_sweep();
    let a = serde_json::to_string(&rows).unwrap();
    let b = serde_json::to_string(&replay).unwrap();
    assert_eq!(a, b, "same seed must reproduce byte-identical results");
    let sharded_replay = run_chaos_sharded();
    assert_eq!(
        serde_json::to_string(&sharded).unwrap(),
        serde_json::to_string(&sharded_replay).unwrap(),
        "sharded replay must be byte-identical"
    );

    println!("\nShape check PASSED: goodput degrades smoothly with injected loss/corruption,");
    println!("corrupted frames are caught at the parser, outage TX defers and flushes, and");
    println!(
        "{total_audits} audits across the sweep found {total_violations} invariant violations; replay is byte-identical."
    );
    println!(
        "Control plane under fire: {total_commits} commits landed, {total_rollbacks} rolled back mid-apply — zero partially-applied bundles."
    );

    let mut all = rows;
    all.push(sharded);
    bench::write_json("exp_e9_chaos", &all);
}
