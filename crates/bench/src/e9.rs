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
//! Four results, each a group of claims:
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
//! 4-queue host, which [`Host::new`] gives one shard per RSS queue:
//! the audits — which now cross shard boundaries — must stay just as
//! clean, and the segment must replay byte-identically.

use norman::host::DeliveryOutcome;
use norman::{CtrlError, DegradationPolicy, Host, HostConfig, PortReservation, ShapingPolicy};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use serde::Serialize;
use sim::fault::OpFaultInjector;
use sim::{Dur, FaultSchedule, FaultyLink, Link, Time, Violation};

use crate::scenario::{connect_udp, ports_covering_queues, udp_to_host, PEER_IP};
use crate::{claim, Mode, Outcome};

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

/// A run's audit checkpoints: how many ran, the violations they found in
/// all, and the first of those.
#[derive(Default)]
struct AuditTally {
    audits: u64,
    violations: u64,
    first: Option<Violation>,
}

impl AuditTally {
    /// One checkpoint: audits `host` and counts what it finds.
    fn audit(&mut self, host: &mut Host) {
        let violations = host.audit();
        self.audits += 1;
        self.violations += violations.len() as u64;
        if self.first.is_none() {
            self.first = violations.into_iter().next();
        }
    }

    /// Prints the first violation of `scenario`, if there was one.
    fn report(&self, scenario: &str) {
        if let Some(v) = &self.first {
            eprintln!("AUDIT VIOLATION [{scenario}]: {v}");
        }
    }
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
    let conn = connect_udp(&mut host, pid, 7000, 9000).unwrap();
    // Baseline policy before traffic: a reservation on the traffic port
    // (owned by bob, so goodput is unaffected) and a fixed shaping
    // policy — both of which must survive rollbacks and the mid-run
    // bitstream reprogram intact.
    host.update_policy(Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(7000, Uid(1001)));
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0)]));
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
    let inbound = udp_to_host(&host, 9000, 7000, &[0u8; 1458]);
    let outbound = PacketBuilder::new()
        .ether(host.cfg.mac, Mac::local(9))
        .ipv4(host.cfg.ip, PEER_IP)
        .udp(7000, 9000, &[0u8; 200])
        .build();

    let mut wire = FaultyLink::new(Link::hundred_gbe(), SEED ^ 0x11, schedule);
    let mut delivered_ok = 0u64;
    let mut tally = AuditTally::default();

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
            tally.audit(&mut host);
        }
    }
    // Drain frames still held for reordering, then a final audit.
    let end = Time::ZERO + PKT_GAP * FRAMES;
    for d in wire.flush(end) {
        deliver(&mut host, d.at, d.frame, &mut delivered_ok);
    }
    let _ = host.pump_tx(Time::MAX);
    tally.audit(&mut host);
    tally.report(scenario);
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
        audits: tally.audits,
        audit_violations: tally.violations,
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
    let hi = connect_udp(&mut host, pid, 7000, 9000).unwrap();
    let lo = connect_udp(&mut host, pid, 7001, 9000).unwrap();
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
    host.set_nic_crash_injector(OpFaultInjector::seeded_rate(SEED ^ 0x55, 0.001));
    host.start_trace();

    let hp = udp_to_host(&host, 9000, 7000, &[0u8; 1458]);
    let lp = udp_to_host(&host, 9000, 7001, &[0u8; 1458]);
    let mut wire = FaultyLink::new(
        Link::hundred_gbe(),
        SEED ^ 0x66,
        FaultSchedule::steady_loss(0.01),
    );

    let mut delivered_ok = 0u64;
    let mut tally = AuditTally::default();
    let mut audits_skipped = 0u64;
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
                tally.audit(&mut host);
            } else {
                audits_skipped += 1;
            }
        }
    }
    // Settle: disarm the injector (capturing its counts first), drive
    // any outstanding reset + reconcile to completion, then take the
    // final audit.
    let (_, crashes) = host.nic.crash_injector_stats();
    host.set_nic_crash_injector(OpFaultInjector::never());
    let end = Time::ZERO + GAP * ROUNDS;
    host.pump(std::slice::from_ref(&hp), end);
    host.pump(std::slice::from_ref(&hp), end + Dur::from_ms(500));
    tally.audit(&mut host);
    tally.report("recovery storm");
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
        audits: tally.audits,
        audit_violations: tally.violations,
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
    let ports = ports_covering_queues(&host, 2);
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| connect_udp(&mut host, pid, port, 9000).unwrap())
        .collect();
    host.start_trace();
    host.set_policy_fault_injector(OpFaultInjector::seeded_rate(SEED ^ 0x44, POLICY_FAULT_RATE));

    let frames: Vec<Packet> = ports
        .iter()
        .map(|&port| udp_to_host(&host, 9000, port, &[0u8; 1458]))
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
    let mut tally = AuditTally::default();
    let mut policy_commits = 0u64;
    let mut policy_rollbacks = 0u64;
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
        // Shard chaos: crash a shard (round-robin) every 2500 frames;
        // the host must restart it without losing a resident
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
            tally.audit(&mut host);
        }
    }
    for d in wire.flush(Time::ZERO + PKT_GAP * FRAMES) {
        let pkt = host.adopt_frame(&d.frame);
        let rep = host.deliver_frame(pkt, d.at);
        if let DeliveryOutcome::FastPath(_) = rep.outcome {
            delivered_ok += 1;
        }
    }
    tally.audit(&mut host);
    tally.report("sharded N=4");
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
        audits: tally.audits,
        audit_violations: tally.violations,
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

pub(crate) fn run(_: Mode) -> Outcome {
    let mut rows = run_sweep();
    let sharded = run_chaos_sharded();
    // The same seed replays byte-identically, the sharded segment too.
    let replayed = serde_json::to_string(&rows).unwrap()
        == serde_json::to_string(&run_sweep()).unwrap()
        && serde_json::to_string(&sharded).unwrap()
            == serde_json::to_string(&run_chaos_sharded()).unwrap();

    let five_pct = &rows[3];
    let sink = &rows[9];
    let storm = &rows[10];
    let claims = vec![
        // (1) Goodput degrades with the loss rate and never collapses
        // below the injected fault budget.
        claim(
            "e9/ideal-wire-full-goodput",
            (rows[0].goodput_pct - 100.0).abs() < 1e-9,
        ),
        claim(
            "e9/goodput-falls-with-loss",
            rows[..5]
                .windows(2)
                .all(|w| w[1].goodput_pct <= w[0].goodput_pct + 0.5),
        ),
        claim(
            "e9/5pct-loss-costs-about-5pct",
            five_pct.goodput_pct > 90.0 && five_pct.goodput_pct < 98.0,
        ),
        // (2) Corruption is caught at the parser, not delivered (a few
        // multi-bit flips in the MAC fields slip past the L3/L4 checksums:
        // the FCS would catch those on real hardware).
        claim(
            "e9/corruption-caught-at-parser",
            rows[6..9]
                .iter()
                .all(|r| r.rx_malformed as f64 >= 0.8 * r.wire_corrupted as f64),
        ),
        // (3) The outage deferred app TX, then flushed it.
        claim("e9/outage-defers-tx", sink.tx_deferred > 0),
        claim("e9/recovery-flushes-tx", sink.tx_retry_flushed > 0),
        // (4) Every audit also checks the control plane's third ledger, so
        // no commit — landed, rolled back or cut by the reprogram — ever
        // left a partially applied bundle on the NIC.
        claim(
            "e9/audits-clean",
            rows.iter().all(|r| r.audit_violations == 0),
        ),
        claim(
            "e9/policy-churn-commits",
            rows.iter().any(|r| r.policy_commits > 0),
        ),
        claim(
            "e9/policy-faults-roll-back",
            rows.iter().any(|r| r.policy_rollbacks > 0),
        ),
        claim(
            "e9/generation-counts-commits",
            rows.iter().all(|r| r.generation == 1 + r.policy_commits),
        ),
        claim("e9/reprogram-reconciles", sink.reconciles >= 1),
        // (4d) The crash storm fired, every crash met a kernel reset and a
        // reconcile, overload demoted the low-priority flow, and the
        // high-priority flow kept the bulk of its goodput.
        claim("e9/crash-storm-fires", storm.nic_crashes >= 2),
        claim(
            "e9/every-crash-reset",
            storm.nic_resets == storm.nic_crashes,
        ),
        claim(
            "e9/every-reset-reconciled",
            storm.reconciles >= storm.nic_crashes,
        ),
        claim("e9/overload-demotes", storm.degraded_slowpath > 0),
        claim("e9/storm-goodput-over-70pct", storm.goodput_pct > 70.0),
        // (4c) Four shards under the same chaos: cross-shard audits as clean.
        claim("e9/sharded-audits-clean", sharded.audit_violations == 0),
        claim("e9/sharded-goodput-over-90pct", sharded.goodput_pct > 90.0),
        claim("e9/steering-churn-commits", sharded.policy_commits > 0),
        claim("e9/every-shard-panic-restarts", sharded.shard_restarts == 8),
        claim(
            "e9/sharded-generation-counts-commits",
            sharded.generation == sharded.policy_commits,
        ),
        // (5) Determinism.
        claim("e9/replay-byte-identical", replayed),
    ];
    rows.push(sharded);
    Outcome::new(&rows, claims)
}
