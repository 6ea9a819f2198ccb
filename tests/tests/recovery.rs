//! Cross-crate integration: the fail-operational dataplane.
//!
//! The paper's interposition argument cuts both ways: if the kernel is
//! the only writer of dataplane policy, the kernel must also be able to
//! rebuild that policy when the device loses it. These tests crash the
//! NIC mid-traffic (deterministic op schedules), panic worker shards,
//! and overload rings, then verify the three recovery invariants:
//!
//! 1. **Reconcile-after-reset** — a kernel-driven reset plus the normal
//!    `ctrl` reconcile path reproduces the committed policy bundle
//!    byte-for-byte (program fingerprints identical, `Host::audit`
//!    clean).
//! 2. **No silent loss** — every frame in flight at a fault is either
//!    delivered, rerouted, or counted as a cause-attributed drop; the
//!    telemetry conservation ledgers still balance.
//! 3. **Determinism** — the same fault schedule replays to byte-
//!    identical outcomes.

use std::net::Ipv4Addr;

use nicsim::device::ProgramSlot;
use norman::host::DeliveryOutcome;
use norman::workers::WorkerError;
use norman::{Cause, CtrlError, DegradationPolicy, Failure, Host, HostConfig, ShapingPolicy};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::fault::OpFaultInjector;
use sim::{Dur, Time};
use telemetry::RecoveryKind;

fn frame_to(host: &Host, src_port: u16, dst_port: u16, len: usize) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(src_port, dst_port, &vec![0u8; len])
        .build()
}

/// Every overlay fingerprint the NIC currently holds, in slot order.
fn resident_fingerprints(host: &Host) -> Vec<Option<u64>> {
    let mut fps: Vec<Option<u64>> = [
        ProgramSlot::IngressFilter,
        ProgramSlot::EgressFilter,
        ProgramSlot::Classifier,
    ]
    .into_iter()
    .map(|s| host.nic.program_fingerprint(s))
    .collect();
    fps.extend(host.nic.accounting_fingerprints().into_iter().map(Some));
    fps
}

fn policy_host() -> (Host, oskernel::Pid) {
    let cfg = HostConfig {
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    host.update_policy(Time::ZERO, |p| {
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0), (Uid(1002), 1.0)]));
        p.reservations
            .push(norman::PortReservation::new(5432, Uid(1001)));
    })
    .unwrap();
    (host, bob)
}

#[test]
fn crash_mid_rx_batch_reconciles_to_identical_policy() {
    // Property, swept over crash positions: wherever in an rx_batch the
    // device dies, the kernel's reset + restore + reconcile reproduces
    // the committed bundle fingerprint-for-fingerprint and the audits
    // stay clean.
    for crash_at in 1..=8u64 {
        let (mut host, bob) = policy_host();
        let conn = host
            .connect(
                bob,
                IpProto::UDP,
                7000,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap();
        let want_fps = resident_fingerprints(&host);
        let want_gen = host.policy_generation();
        host.set_nic_crash_injector(OpFaultInjector::fail_nth(crash_at));

        let pkt = frame_to(&host, 9000, 7000, 200);
        let burst: Vec<Packet> = (0..8).map(|_| pkt.clone()).collect();
        host.pump(&burst, Time::from_us(10));
        let (_, crashes) = host.nic.crash_injector_stats();
        assert_eq!(crashes, 1, "op {crash_at}: schedule must have fired");

        // The next dataplane entry drives the reset; traffic resumes
        // after the thaw with the connection id unchanged.
        host.pump(&burst, Time::from_us(20));
        assert!(!host.nic.is_dead(), "op {crash_at}: kernel must reset");
        let later = Time::from_ms(300);
        let r = host.deliver_from_wire(&pkt, later);
        assert_eq!(
            r.outcome,
            DeliveryOutcome::FastPath(conn),
            "op {crash_at}: restored flow entry must fast-path"
        );

        // Reconcile reproduced the bundle exactly.
        assert_eq!(resident_fingerprints(&host), want_fps, "op {crash_at}");
        assert_eq!(host.policy_generation(), want_gen, "op {crash_at}");
        let violations = host.audit();
        assert!(violations.is_empty(), "op {crash_at}: {violations:?}");
        let tel = host.telemetry();
        assert_eq!(tel.recovery_count(RecoveryKind::NicCrash), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::NicReset), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::ReconcileDone), 1);
    }
}

#[test]
fn crash_recovery_preserves_frame_conservation() {
    // With tracing on across a crash, the event ledger and the counters
    // must keep agreeing: purged TX frames become DeviceDead drops, RX
    // frames in host rings survive, nothing vanishes unaccounted.
    let (mut host, bob) = policy_host();
    let conn = host
        .connect(
            bob,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    host.start_trace();
    let pkt = frame_to(&host, 9000, 7000, 150);
    for i in 0..4 {
        host.deliver_from_wire(&pkt, Time::from_us(i));
    }
    host.nic.crash(Time::from_us(10));
    // Frames already DMA'd into host rings survive the device crash.
    for _ in 0..4 {
        assert_eq!(
            host.app_recv(conn, Time::from_us(20), false).len,
            Some(pkt.len())
        );
    }
    // Recover and keep going; the ledger must still balance end-to-end.
    host.pump_tx(Time::from_us(30)); // kernel detects the dead device, resets
    let later = Time::from_ms(300);
    host.deliver_from_wire(&pkt, later);
    assert_eq!(host.app_recv(conn, later, false).len, Some(pkt.len()));
    let violations = host.audit();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn shard_panic_under_load_keeps_every_frame_accounted() {
    let mut cfg = HostConfig::default();
    cfg.nic.num_queues = 2;
    cfg.ring_slots = 16;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let mut conns = Vec::new();
    for port in 0..4u16 {
        conns.push(
            host.connect(
                bob,
                IpProto::UDP,
                7000 + port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap(),
        );
    }
    host.start_trace();
    let frames: Vec<Packet> = (0..4u16)
        .map(|port| frame_to(&host, 9000, 7000 + port, 100))
        .collect();
    host.pump(&frames, Time::from_us(1));

    // Panic both shards in turn; survivors keep serving throughout.
    let err = host
        .inject_worker_panic(0, "chaos: shard 0 dies", Time::from_us(2))
        .unwrap_err();
    assert!(matches!(err, WorkerError::ShardPanicked { shard: 0, .. }));
    host.pump(&frames, Time::from_us(3));
    let err = host
        .inject_worker_panic(1, "chaos: shard 1 dies", Time::from_us(4))
        .unwrap_err();
    assert!(matches!(err, WorkerError::ShardPanicked { shard: 1, .. }));
    host.pump(&frames, Time::from_us(5));

    assert_eq!(host.stats().worker_restarts, 2);
    // All 12 frames are in rings (restarts never touch them); drain them.
    let mut received = 0;
    for &c in &conns {
        while host.app_recv(c, Time::from_us(10), false).len.is_some() {
            received += 1;
        }
    }
    assert_eq!(received, 12, "no frame may vanish across shard restarts");
    let violations = host.audit();
    assert!(violations.is_empty(), "{violations:?}");
    let tel = host.telemetry();
    assert_eq!(tel.recovery_count(RecoveryKind::ShardPanic), 2);
    assert_eq!(tel.recovery_count(RecoveryKind::ShardRestart), 2);
}

#[test]
fn commit_watchdog_aborts_stalled_transaction() {
    let (mut host, _bob) = policy_host();
    let gen_before = host.policy_generation();
    let fps_before = resident_fingerprints(&host);
    host.set_commit_watchdog(Some(2));
    let err = host
        .update_policy(Time::from_us(1), |p| {
            p.shaping = Some(ShapingPolicy::new(vec![
                (Uid(1001), 2.0),
                (Uid(1002), 2.0),
                (Uid(1003), 2.0),
            ]));
            p.rss = Some(norman::RssPolicy::uniform(1));
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            CtrlError::CommitFailed(Failure {
                cause: Cause::Watchdog,
                ..
            })
        ),
        "unexpected error: {err}"
    );
    // The rollback left everything exactly as committed before.
    assert_eq!(host.policy_generation(), gen_before);
    assert_eq!(resident_fingerprints(&host), fps_before);
    assert_eq!(host.ctrl().stats().watchdog_aborts, 1);
    assert_eq!(
        host.telemetry().recovery_count(RecoveryKind::CommitAborted),
        1
    );
    let violations = host.audit();
    assert!(violations.is_empty(), "{violations:?}");
    // With the watchdog widened, the same transaction commits fine.
    host.set_commit_watchdog(Some(1000));
    host.update_policy(Time::from_us(2), |p| {
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 2.0)]));
    })
    .unwrap();
}

#[test]
fn degradation_protects_high_priority_goodput() {
    let cfg = HostConfig {
        ring_slots: 4,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let hi = host
        .connect(
            bob,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let lo = host
        .connect(
            bob,
            IpProto::UDP,
            7001,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    host.update_policy(Time::ZERO, |p| {
        p.degradation = Some(DegradationPolicy {
            high_watermark: 0.25,
            low_watermark: 0.1,
            window: 8,
            low_prio_ports: vec![7001],
        })
    })
    .unwrap();
    let hp = frame_to(&host, 9000, 7000, 100);
    let lp = frame_to(&host, 9000, 7001, 100);
    // Overload both flows without draining: rings fill, the detector
    // engages, and from then on low-prio frames go to the slow path
    // while high-prio frames win back ring capacity as it drains.
    let mut hi_fast = 0u64;
    let mut t = Time::from_us(1);
    for round in 0..40 {
        let (reports, _) = host.pump(&[hp.clone(), lp.clone()], t);
        if reports[0].outcome == DeliveryOutcome::FastPath(hi) {
            hi_fast += 1;
        }
        // The app keeps up with ONE flow's worth of drain.
        host.app_recv(hi, t, false);
        t += Dur::from_us(10);
        if round == 39 {
            break;
        }
    }
    assert!(host.degraded(), "sustained ring pressure must engage");
    assert!(
        host.stats().degraded_slowpath > 0,
        "low-prio flow must have been demoted"
    );
    // Degraded-mode high-prio goodput stays healthy: after the engage
    // point, the low-prio flow no longer competes for ring slots.
    assert!(
        hi_fast >= 30,
        "high-prio fast deliveries {hi_fast}/40 under degradation"
    );
    // Low-prio frames were delivered via the stack, not dropped.
    assert_eq!(host.stack.rx_degraded(), host.stats().degraded_slowpath);
    let _ = lo;
}

#[test]
fn crash_storm_replays_byte_identically() {
    // Determinism across the whole failure model: a seeded crash storm
    // plus worker panics plus degradation produces the identical metrics
    // document on replay.
    fn run() -> String {
        let cfg = HostConfig {
            ring_slots: 4,
            ..HostConfig::default()
        };
        let mut host = Host::new(cfg);
        let bob = host.spawn(Uid(1001), "bob", "server");
        let _conn = host
            .connect(
                bob,
                IpProto::UDP,
                7000,
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
        host.set_nic_crash_injector(OpFaultInjector::seeded_rate(42, 0.01));
        let pkt = frame_to(&host, 9000, 7000, 128);
        let mut t = Time::from_us(1);
        for _ in 0..200 {
            host.pump(&[pkt.clone(), pkt.clone()], t);
            t += Dur::from_ms(2);
        }
        host.metrics_snapshot().to_json_pretty()
    }
    assert_eq!(run(), run(), "replay must be byte-identical");
}
