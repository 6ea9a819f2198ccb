//! M5 — fail-operational recovery.
//!
//! The interposition argument cuts both ways: because the kernel is the
//! only writer of dataplane policy, the kernel can also *rebuild* that
//! policy when the device or a worker loses it. This bench measures the
//! whole failure model end-to-end in virtual time and writes
//! `results/exp_m5_recovery.json`:
//!
//! 1. **NIC crash recovery** — a deterministic op-schedule crash at
//!    every position inside an rx batch; for each position, the virtual
//!    time from crash to the kernel-driven reset, to reconcile-done,
//!    and to the first post-recovery fast-path delivery. Acceptance:
//!    the restored bundle is fingerprint-identical to the committed one
//!    and every audit is clean.
//! 2. **Shard panic survival** — shards crash between bursts under
//!    load; each restarts, its rings untouched. Acceptance: every
//!    offered frame is received (zero conservation violations),
//!    restarts are counted, audits stay clean.
//! 3. **Degraded-mode goodput** — sustained ring overload engages the
//!    watermark detector and demotes low-priority flows to the software
//!    slow path. Acceptance: the high-priority flow retains >= 70% of
//!    its fast-path goodput while degraded, and demoted frames are
//!    delivered via the stack, not dropped.
//! 4. **Crash-storm determinism** — a seeded random crash storm replays
//!    to a byte-identical metrics document with zero audit violations.

use nicsim::device::ProgramSlot;
use norman::host::DeliveryOutcome;
use norman::{DegradationPolicy, Host, HostConfig, ShapingPolicy};
use oskernel::Uid;
use pkt::Packet;
use serde::Serialize;
use sim::fault::OpFaultInjector;
use sim::{Dur, Time};
use telemetry::RecoveryKind;

use crate::scenario::{connect_udp, udp_to_host};
use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct RecoveryPoint {
    crash_at_op: u64,
    crash_us: f64,
    reset_us: f64,
    reconcile_us: f64,
    first_fastpath_us: f64,
    recovery_ms: f64,
    fingerprints_identical: bool,
    generation_preserved: bool,
    audit_violations: usize,
}

#[derive(Serialize)]
struct ShardPanicRun {
    shards: usize,
    pumps: u64,
    panics: u64,
    restarts: u64,
    frames_offered: u64,
    frames_received: u64,
    conserved: bool,
    audit_violations: usize,
}

#[derive(Serialize)]
struct DegradedRun {
    rounds: u64,
    engaged: bool,
    engage_us: f64,
    hi_fast: u64,
    hi_goodput_retained: f64,
    lo_slowpath: u64,
    lo_delivered_not_dropped: bool,
}

#[derive(Serialize)]
struct StormRun {
    pumps: u64,
    crashes: u64,
    resets: u64,
    shard_restarts: u64,
    replay_identical: bool,
    audit_violations: usize,
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    recovery: Vec<RecoveryPoint>,
    max_recovery_ms: f64,
    shard_panics: ShardPanicRun,
    degraded: DegradedRun,
    storm: StormRun,
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
    .expect("seed policy");
    (host, bob)
}

fn event_time(host: &Host, kind: RecoveryKind) -> Time {
    host.telemetry()
        .recovery_events()
        .iter()
        .find(|e| e.kind == kind)
        .map(|e| e.at)
        .expect("recovery event recorded")
}

/// Crashes the NIC at `crash_at` ops into an 8-frame burst, then lets
/// the kernel recover and probes for the first post-recovery fast-path
/// delivery at a 1ms cadence.
fn recovery_point(crash_at: u64) -> RecoveryPoint {
    let (mut host, bob) = policy_host();
    let conn = connect_udp(&mut host, bob, 7000, 9000).expect("connect");
    let want_fps = resident_fingerprints(&host);
    let want_gen = host.policy_generation();
    host.set_nic_crash_injector(OpFaultInjector::fail_nth(crash_at));

    let pkt = udp_to_host(&host, 9000, 7000, &[0u8; 200]);
    let burst: Vec<Packet> = (0..8).map(|_| pkt.clone()).collect();
    host.pump(&burst, Time::from_us(10));
    let (_, crashes) = host.nic.crash_injector_stats();
    assert_eq!(crashes, 1, "op {crash_at}: schedule must have fired");

    // The next dataplane entry drives the kernel reset; the device then
    // thaws after its reset cost and the reconcile restores the bundle.
    host.pump(&burst, Time::from_us(20));
    assert!(!host.nic.is_dead(), "op {crash_at}: kernel must reset");

    let crash_t = event_time(&host, RecoveryKind::NicCrash);
    let reset_t = event_time(&host, RecoveryKind::NicReset);
    let mut first_fast = Time::ZERO;
    for step in 1..=500u64 {
        let t = Time::from_ms(step);
        if host.deliver_from_wire(&pkt, t).outcome == DeliveryOutcome::FastPath(conn) {
            first_fast = t;
            break;
        }
    }
    assert!(
        first_fast > Time::ZERO,
        "op {crash_at}: traffic must resume within 500ms"
    );
    let reconcile_t = event_time(&host, RecoveryKind::ReconcileDone);

    let fps_ok = resident_fingerprints(&host) == want_fps;
    let gen_ok = host.policy_generation() == want_gen;
    let violations = host.audit();
    RecoveryPoint {
        crash_at_op: crash_at,
        crash_us: crash_t.as_us_f64(),
        reset_us: reset_t.as_us_f64(),
        reconcile_us: reconcile_t.as_us_f64(),
        first_fastpath_us: first_fast.as_us_f64(),
        recovery_ms: first_fast.saturating_since(crash_t).as_us_f64() / 1_000.0,
        fingerprints_identical: fps_ok,
        generation_preserved: gen_ok,
        audit_violations: violations.len(),
    }
}

/// Panics shards round-robin under load; every frame must come out.
fn shard_panic_run() -> ShardPanicRun {
    let pumps: u64 = 12;
    let mut cfg = HostConfig::default();
    cfg.nic.num_queues = 2;
    cfg.ring_slots = 16;
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let conns: Vec<_> = (0..4u16)
        .map(|port| connect_udp(&mut host, bob, 7000 + port, 9000).expect("connect"))
        .collect();
    let frames: Vec<Packet> = (0..4u16)
        .map(|port| udp_to_host(&host, 9000, 7000 + port, &[0u8; 100]))
        .collect();

    let mut panics = 0u64;
    let mut received = 0u64;
    for round in 0..pumps {
        let t = Time::from_us(1 + round * 10);
        host.pump(&frames, t);
        // Panic a shard between bursts on most rounds; survivors and
        // restarted shards keep serving throughout.
        if round + 1 < pumps {
            let shard = (round % 2) as usize;
            let err = host
                .inject_worker_panic(shard, "bench: chaos panic", t + Dur::from_us(1))
                .expect_err("panic injection must report the crash");
            assert!(matches!(err, norman::WorkerError::ShardPanicked { .. }));
            panics += 1;
        }
        // Drain rings every few rounds so offered load fits ring_slots.
        if round % 3 == 2 || round + 1 == pumps {
            for &c in &conns {
                while host.app_recv(c, t + Dur::from_us(5), false).len.is_some() {
                    received += 1;
                }
            }
        }
    }
    let offered = pumps * frames.len() as u64;
    let restarts = host.stats().worker_restarts;
    let violations = host.audit();
    let conserved = received == offered;
    ShardPanicRun {
        shards: 2,
        pumps,
        panics,
        restarts,
        frames_offered: offered,
        frames_received: received,
        conserved,
        audit_violations: violations.len(),
    }
}

/// Overloads a 4-slot ring with a high- and a low-priority flow; the
/// detector must demote the low-priority flow and protect the high-
/// priority one.
fn degraded_run() -> DegradedRun {
    let rounds: u64 = 400;
    let cfg = HostConfig {
        ring_slots: 4,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let bob = host.spawn(Uid(1001), "bob", "server");
    let hi = connect_udp(&mut host, bob, 7000, 9000).expect("connect hi");
    let _lo = connect_udp(&mut host, bob, 7001, 9000).expect("connect lo");
    host.update_policy(Time::ZERO, |p| {
        p.degradation = Some(DegradationPolicy {
            high_watermark: 0.25,
            low_watermark: 0.1,
            window: 8,
            low_prio_ports: vec![7001],
        })
    })
    .expect("degradation policy");
    let hp = udp_to_host(&host, 9000, 7000, &[0u8; 100]);
    let lp = udp_to_host(&host, 9000, 7001, &[0u8; 100]);
    let mut hi_fast = 0u64;
    let mut t = Time::from_us(1);
    for _ in 0..rounds {
        let (reports, _) = host.pump(&[hp.clone(), lp.clone()], t);
        if reports[0].outcome == DeliveryOutcome::FastPath(hi) {
            hi_fast += 1;
        }
        // The app keeps up with only ONE flow's worth of drain, so the
        // offered load is 2x ring capacity by construction.
        host.app_recv(hi, t, false);
        t += Dur::from_us(10);
    }
    let engaged = host.degraded()
        || host
            .telemetry()
            .recovery_count(RecoveryKind::DegradeEngaged)
            > 0;
    let lo_slowpath = host.stats().degraded_slowpath;
    let retained = hi_fast as f64 / rounds as f64;
    let lo_ok = host.stack.rx_degraded() == lo_slowpath;
    DegradedRun {
        rounds,
        engaged,
        engage_us: event_time(&host, RecoveryKind::DegradeEngaged).as_us_f64(),
        hi_fast,
        hi_goodput_retained: retained,
        lo_slowpath,
        lo_delivered_not_dropped: lo_ok,
    }
}

/// A seeded crash storm with worker panics folded in; both runs must
/// produce the identical metrics document and clean audits.
fn storm_run() -> StormRun {
    let pumps: u64 = 1_000;
    fn run(pumps: u64) -> (String, u64, u64, u64, usize) {
        let cfg = HostConfig {
            ring_slots: 4,
            ..HostConfig::default()
        };
        let mut host = Host::new(cfg);
        let bob = host.spawn(Uid(1001), "bob", "server");
        let conn = connect_udp(&mut host, bob, 7000, 9000).expect("connect");
        host.update_policy(Time::ZERO, |p| {
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0)]));
            p.degradation = Some(DegradationPolicy {
                high_watermark: 0.5,
                low_watermark: 0.1,
                window: 8,
                low_prio_ports: vec![7001],
            });
        })
        .expect("policy");
        host.set_nic_crash_injector(OpFaultInjector::seeded_rate(42, 0.01));
        let pkt = udp_to_host(&host, 9000, 7000, &[0u8; 128]);
        let mut t = Time::from_us(1);
        for _ in 0..pumps {
            host.pump(&[pkt.clone(), pkt.clone()], t);
            host.app_recv(conn, t, false);
            t += Dur::from_ms(2);
        }
        let (_, crashes) = host.nic.crash_injector_stats();
        // Settle: disarm the injector and drive any outstanding reset +
        // reconcile to completion, so the audit sees steady state.
        host.set_nic_crash_injector(OpFaultInjector::never());
        host.pump(std::slice::from_ref(&pkt), t);
        host.pump(std::slice::from_ref(&pkt), t + Dur::from_ms(500));
        let resets = host.nic.stats().resets;
        let restarts = host.stats().worker_restarts;
        let violations = host.audit();
        (
            host.metrics_snapshot().to_json_pretty(),
            crashes,
            resets,
            restarts,
            violations.len(),
        )
    }
    let (a, crashes, resets, restarts, violations) = run(pumps);
    let (b, ..) = run(pumps);
    let identical = a == b;
    StormRun {
        pumps,
        crashes,
        resets,
        shard_restarts: restarts,
        replay_identical: identical,
        audit_violations: violations,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let recovery: Vec<RecoveryPoint> = (1..=8u64).map(recovery_point).collect();
    let max_recovery_ms = recovery.iter().map(|p| p.recovery_ms).fold(0.0, f64::max);
    let shard_panics = shard_panic_run();
    let degraded = degraded_run();
    let storm = storm_run();

    let claims = vec![
        claim(
            "m5/reset-restores-the-committed-bundle",
            recovery.iter().all(|p| p.fingerprints_identical),
        ),
        claim(
            "m5/recovery-audits-clean",
            recovery.iter().all(|p| p.audit_violations == 0),
        ),
        claim("m5/shard-panics-conserve-frames", shard_panics.conserved),
        claim(
            "m5/every-panic-restarts-its-shard",
            shard_panics.restarts == shard_panics.panics,
        ),
        claim(
            "m5/shard-panic-audits-clean",
            shard_panics.audit_violations == 0,
        ),
        claim("m5/overload-engages-degradation", degraded.engaged),
        claim("m5/low-prio-demoted", degraded.lo_slowpath > 0),
        claim(
            "m5/high-prio-retains-70pct",
            degraded.hi_goodput_retained >= 0.70,
        ),
        claim(
            "m5/demoted-delivered-via-stack",
            degraded.lo_delivered_not_dropped,
        ),
        claim("m5/storm-replays-byte-identically", storm.replay_identical),
        claim("m5/storm-audits-clean", storm.audit_violations == 0),
    ];
    let out = Output {
        schema: "norman-bench-pr6-v1",
        recovery,
        max_recovery_ms,
        shard_panics,
        degraded,
        storm,
    };
    Outcome::new(&out, claims)
}
