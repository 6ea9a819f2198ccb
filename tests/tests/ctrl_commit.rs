//! Integration tests for the unified control plane (`norman::ctrl`):
//! two-phase epoch-versioned commits, rollback under injected
//! mid-commit faults, reconciliation after bitstream reprograms, and
//! the third audit ledger that cross-checks NIC-resident state against
//! the kernel policy store.

use std::net::Ipv4Addr;

use nicsim::device::ProgramSlot;
use nicsim::{SnifferFilter, POLICY_GENERATION_REG};
use norman::host::DeliveryOutcome;
use norman::{CtrlError, Host, HostConfig, NatRule, PortReservation, ShapingPolicy};
use oskernel::Uid;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::fault::OpFaultInjector;
use sim::{Dur, Time};
use telemetry::Stage;

fn wire_udp(host_ip: Ipv4Addr, src_port: u16, dst_port: u16, len: usize) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), Mac::local(1))
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host_ip)
        .udp(src_port, dst_port, &vec![0u8; len])
        .build()
}

fn full_policy(h: &mut Host, now: Time) -> u64 {
    h.update_policy(now, |p| {
        p.reservations.push(PortReservation::new(5432, Uid(1001)));
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0), (Uid(1002), 1.0)]));
        p.sniffer = Some(SnifferFilter::all());
        p.nat_external_ip = Some(Ipv4Addr::new(198, 51, 100, 1));
        p.nat_rules.push(NatRule {
            proto: IpProto::UDP,
            ext_port: 8080,
            internal: (Ipv4Addr::new(192, 168, 0, 2), 80),
        });
    })
    .unwrap()
}

#[test]
fn commit_bumps_generation_register_and_telemetry() {
    let mut h = Host::new(HostConfig::default());
    assert_eq!(h.policy_generation(), 0);
    let g1 = h
        .update_policy(Time::ZERO, |p| {
            p.reservations.push(PortReservation::new(5432, Uid(1001)))
        })
        .unwrap();
    assert_eq!(g1, 1);
    // The NIC's kernel-only generation register carries the epoch.
    assert_eq!(h.nic.regs.peek(POLICY_GENERATION_REG), Some(1));
    assert_eq!(h.telemetry().generation(), 1);
    let g2 = full_policy(&mut h, Time::from_us(10));
    assert_eq!(g2, 2);
    assert_eq!(h.nic.regs.peek(POLICY_GENERATION_REG), Some(2));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    assert_eq!(h.ctrl().stats().commits, 2);
}

#[test]
fn compile_rejection_leaves_everything_untouched() {
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let before = h.policy().clone();
    // NAT rules without an external ip are refused in phase 1.
    let err = h
        .update_policy(Time::from_us(1), |p| {
            p.nat_external_ip = None;
        })
        .unwrap_err();
    assert!(matches!(err, CtrlError::Compile(_)), "got {err}");
    assert_eq!(h.policy_generation(), 1);
    assert_eq!(h.policy().reservations, before.reservations);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn mid_commit_fault_rolls_back_to_prior_generation() {
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let reserved = wire_udp(h.cfg.ip, 9000, 5432, 100);

    // Fail the 3rd apply operation of the next commit.
    h.set_policy_fault_injector(OpFaultInjector::fail_nth(3));
    let mutation = |p: &mut norman::PolicyStore| {
        p.reservations.push(PortReservation::new(7777, Uid(1002)));
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1002), 9.0)]));
    };
    let before = h.kernel_cpu;
    let err = h.update_policy(Time::from_us(5), mutation).unwrap_err();
    let rolled_back = h.kernel_cpu - before;
    assert!(matches!(err, CtrlError::CommitFailed { .. }), "got {err}");

    // Generation did not advance; the store still holds generation 1's
    // policy; the NIC matches it exactly (third ledger: no divergence).
    assert_eq!(h.policy_generation(), 1);
    assert_eq!(h.ctrl().stats().rollbacks, 1);
    assert_eq!(h.policy().reservations.len(), 1);
    assert!(h.policy().reservations.iter().all(|r| r.port == 5432));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());

    // Generation 1's dataplane policy still enforces: uid 1001 owns
    // 5432, and unowned traffic to it is dropped by the NIC filter.
    let report = h.deliver_from_wire(&reserved, Time::from_us(6));
    assert_eq!(report.outcome, DeliveryOutcome::Dropped);

    // With the fault consumed, the same transaction now commits.
    let before = h.kernel_cpu;
    let g = h.update_policy(Time::from_us(7), mutation).unwrap();
    let clean = h.kernel_cpu - before;
    assert_eq!(g, 2);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());

    // A rollback re-applies the prior bundle on top of the partial
    // apply: dearer than the clean commit, but a bounded number of
    // applies, not pathological (EXPERIMENTS M3).
    assert!(
        clean < rolled_back && rolled_back < clean * 3,
        "rollback charged {rolled_back:?} of kernel CPU, the clean commit {clean:?}"
    );
}

#[test]
fn chaos_sweep_never_leaves_partial_bundles() {
    // Seeded random mid-commit faults across a churn of commits: after
    // every attempt — success or rollback — the third ledger must show
    // zero divergence between NIC-resident state and the kernel store.
    let mut h = Host::new(HostConfig::default());
    h.set_policy_fault_injector(OpFaultInjector::seeded_rate(0xC0FFEE, 0.08));
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    for i in 0..60u16 {
        let now = Time::from_us(u64::from(i) * 10);
        let result = h.update_policy(now, |p| {
            p.reservations
                .push(PortReservation::new(1000 + i, Uid(1001)));
            p.shaping = Some(ShapingPolicy::new(vec![(
                Uid(1001),
                1.0 + f64::from(i % 7),
            )]));
            p.sniffer = if i % 2 == 0 {
                Some(SnifferFilter::all())
            } else {
                None
            };
        });
        match result {
            Ok(_) => committed += 1,
            Err(CtrlError::CommitFailed { .. }) => rolled_back += 1,
            Err(e) => panic!("unexpected control-plane error: {e}"),
        }
        let violations = h.audit();
        assert!(
            violations.is_empty(),
            "iteration {i}: partially-applied bundle: {violations:?}"
        );
    }
    assert!(committed > 0, "chaos rate too high: nothing committed");
    assert!(rolled_back > 0, "chaos rate too low: nothing rolled back");
    assert_eq!(h.ctrl().stats().rollbacks, rolled_back);
    assert_eq!(h.policy_generation(), committed);
}

#[test]
fn reconcile_reinstalls_policy_after_bitstream_reprogram() {
    // Satellite regression: a bitstream reprogram wipes all NIC-resident
    // overlay state; the control plane must notice and reinstall the
    // full bundle before the first post-recovery frame.
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let gen_before = h.policy_generation();

    let back_at = h.reprogram_nic(Time::from_us(10));

    // While down: NIC-resident programs are gone, but the audit knows a
    // reconcile is pending and does not report false divergence.
    assert!(h.ctrl().needs_reconcile(&h.nic));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());

    // First frame after recovery: reconcile runs, then the reinstalled
    // ingress filter drops the violating packet.
    let violating = wire_udp(h.cfg.ip, 9000, 5432, 100);
    let report = h.deliver_from_wire(&violating, back_at + Dur::from_us(1));
    assert_eq!(
        report.outcome,
        DeliveryOutcome::Dropped,
        "reservation must survive the reprogram"
    );
    assert!(!h.ctrl().needs_reconcile(&h.nic));
    assert_eq!(h.ctrl().stats().reconciles, 1);
    // Reconcile reinstalls the same policy: the generation is unchanged.
    assert_eq!(h.policy_generation(), gen_before);
    assert_eq!(h.nic.regs.peek(POLICY_GENERATION_REG), Some(gen_before));
    // Scheduler classes, sniffer, and NAT statics are all back.
    assert_eq!(h.nic.scheduler_class_bytes().len(), 3);
    assert!(h.nic.sniffer.is_enabled());
    assert_eq!(h.nat().unwrap().num_statics(), 1);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn commits_while_frozen_are_refused() {
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    h.reprogram_nic(Time::from_us(10));
    let err = h
        .update_policy(Time::from_us(11), |p| {
            p.reservations.push(PortReservation::new(9999, Uid(1002)))
        })
        .unwrap_err();
    assert!(matches!(err, CtrlError::Frozen { .. }), "got {err}");
    assert_eq!(h.policy_generation(), 1);
}

#[test]
fn degenerate_scheduler_weights_are_rejected_in_phase_one() {
    // Satellite: configure_scheduler validates weights, and the policy
    // compiler refuses them before anything is staged.
    let mut h = Host::new(HostConfig::default());
    for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
        let err = h
            .update_policy(Time::ZERO, |p| {
                p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), bad)]))
            })
            .unwrap_err();
        assert!(matches!(err, CtrlError::Compile(_)), "weight {bad}: {err}");
        assert_eq!(h.policy_generation(), 0);
    }
    // The NIC-level guard also refuses direct degenerate configuration.
    assert!(h
        .nic
        .configure_scheduler(&[1.0, f64::NAN], Time::ZERO)
        .is_err());
    assert!(h.nic.configure_scheduler(&[], Time::ZERO).is_err());
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn app_register_writes_cannot_corrupt_a_staged_bundle() {
    // Satellite: a staged (phase-1) bundle is plain kernel memory. An
    // application hammering NIC control registers mid-transaction gets
    // privilege faults, and the commit that follows is byte-identical
    // to one staged without the interference.
    let mut h = Host::new(HostConfig::default());
    let staged = h
        .stage_policy(|p| {
            p.reservations.push(PortReservation::new(5432, Uid(1001)));
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 3.0)]));
        })
        .unwrap();

    // An app (pid 42) tries to write the kernel-only generation register
    // and a nonexistent control register between stage and commit.
    let violations_before = h.nic.regs.violations();
    assert!(h
        .nic
        .regs
        .write(POLICY_GENERATION_REG, 0xDEAD, Some(42))
        .is_err());
    assert!(h.nic.regs.write(0x20_1234, 0xBEEF, Some(42)).is_err());
    assert_eq!(h.nic.regs.violations(), violations_before + 2);

    // The staged store is untouched and the commit applies it exactly.
    assert_eq!(staged.store().reservations.len(), 1);
    let g = h.commit_staged_policy(staged, Time::from_us(1)).unwrap();
    assert_eq!(g, 1);
    assert_eq!(h.nic.regs.peek(POLICY_GENERATION_REG), Some(1));
    assert_eq!(h.policy().reservations[0].port, 5432);
    assert_eq!(h.nic.scheduler_class_bytes().len(), 2);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn nat_rules_are_kernel_owned_and_conflict_checked() {
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let nat = h.nat().expect("NAT policy creates the kernel table");
    assert_eq!(
        nat.static_target(IpProto::UDP, 8080),
        Some((Ipv4Addr::new(192, 168, 0, 2), 80))
    );

    // Duplicate external ports are a phase-1 conflict.
    let err = h
        .update_policy(Time::from_us(1), |p| {
            p.nat_rules.push(NatRule {
                proto: IpProto::UDP,
                ext_port: 8080,
                internal: (Ipv4Addr::new(192, 168, 0, 3), 81),
            })
        })
        .unwrap_err();
    assert!(matches!(err, CtrlError::Compile(_)), "got {err}");

    // Dropping the rules removes the statics (and the audit agrees).
    h.update_policy(Time::from_us(2), |p| p.nat_rules.clear())
        .unwrap();
    assert_eq!(h.nat().unwrap().num_statics(), 0);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn telemetry_events_carry_the_live_generation() {
    let mut h = Host::new(HostConfig::default());
    h.start_trace();
    let bob = h.spawn(Uid(1001), "bob", "server");
    h.connect(
        bob,
        IpProto::UDP,
        7000,
        Ipv4Addr::new(10, 0, 0, 2),
        9000,
        false,
    )
    .unwrap();

    // Traffic before any commit is stamped generation 0.
    let pkt = wire_udp(h.cfg.ip, 9000, 7000, 64);
    h.deliver_from_wire(&pkt, Time::ZERO);
    full_policy(&mut h, Time::from_us(5));
    // Traffic after the commit is stamped with the new generation.
    h.deliver_from_wire(&pkt, Time::from_us(10));

    let gen0 = h
        .telemetry()
        .query(&norman::TraceFilter::any().with_generation(0));
    let gen1 = h
        .telemetry()
        .query(&norman::TraceFilter::any().with_generation(1));
    assert!(!gen0.is_empty(), "pre-commit events stamped 0");
    assert!(!gen1.is_empty(), "post-commit events stamped 1");
    assert!(gen0.iter().all(|e| e.generation == 0));
    assert!(gen1.iter().all(|e| e.generation == 1));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

/// The fingerprint of the program resident in each overlay slot.
fn resident_fingerprints(h: &Host) -> [Option<u64>; 3] {
    [
        ProgramSlot::IngressFilter,
        ProgramSlot::EgressFilter,
        ProgramSlot::Classifier,
    ]
    .map(|slot| h.nic.program_fingerprint(slot))
}

/// A program that sails through the verifier but exceeds the AOT
/// compiler's block budget (`MAX_COMPILED_INSNS` < `MAX_INSNS`): pure
/// straight-line loads followed by a return.
fn verifies_but_wont_compile() -> overlay::Program {
    use overlay::{Insn, Reg, Verdict};
    let mut insns = Vec::new();
    for _ in 0..overlay::MAX_COMPILED_INSNS {
        insns.push(Insn::LdImm {
            dst: Reg(1),
            imm: 7,
        });
    }
    insns.push(Insn::Ret {
        verdict: Verdict::Pass,
    });
    let p = overlay::Program::new("too-big-to-compile", insns, vec![]);
    overlay::verify(&p).expect("must verify");
    overlay::compile(&p).expect_err("must not compile");
    p
}

#[test]
fn aot_compile_failure_aborts_phase_one_and_keeps_prior_bundle() {
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let fp_before = resident_fingerprints(&h);

    let err = h
        .update_policy(Time::from_us(1), |p| {
            p.accounting.push(verifies_but_wont_compile());
        })
        .unwrap_err();
    assert!(
        matches!(err, CtrlError::CompileRejected { ref program, .. } if program == "too-big-to-compile"),
        "got {err}"
    );

    // Phase 1 aborted: no generation bump, resident fingerprints
    // untouched, the audit ledger still closes, and the refusal is
    // counted in both the stats block and the metrics registry.
    assert_eq!(h.policy_generation(), 1);
    assert_eq!(resident_fingerprints(&h), fp_before);
    assert!(h.policy().accounting.is_empty());
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    assert_eq!(h.ctrl().stats().compile_rejected, 1);
    assert_eq!(
        h.metrics_snapshot().counter("ctrl.compile_rejected"),
        Some(1)
    );
}

#[test]
fn aot_compile_failure_with_armed_fault_injector_touches_nothing() {
    // A phase-1 AOT rejection must abort before any apply op runs: an
    // armed mid-commit fault injector is not consumed, no rollback is
    // recorded, and the very next (valid) commit still absorbs the
    // fault exactly as if the rejected transaction never happened.
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let ops_before = h.ctrl().stats().apply_ops;
    h.set_policy_fault_injector(OpFaultInjector::fail_nth(3));

    let err = h
        .update_policy(Time::from_us(1), |p| {
            p.accounting.push(verifies_but_wont_compile());
        })
        .unwrap_err();
    assert!(
        matches!(err, CtrlError::CompileRejected { .. }),
        "got {err}"
    );
    assert_eq!(h.ctrl().stats().apply_ops, ops_before, "apply ran ops");
    assert_eq!(h.ctrl().stats().rollbacks, 0);
    assert_eq!(h.ctrl().stats().compile_rejected, 1);
    assert_eq!(h.policy_generation(), 1);

    // The armed fault now fires on the next *valid* commit and rolls
    // back cleanly — the rejected transaction left full rollback
    // capability intact.
    let err = h
        .update_policy(Time::from_us(2), |p| {
            p.reservations.push(PortReservation::new(8080, Uid(1002)));
        })
        .unwrap_err();
    assert!(matches!(err, CtrlError::CommitFailed { .. }), "got {err}");
    assert_eq!(h.ctrl().stats().rollbacks, 1);
    assert_eq!(h.policy_generation(), 1);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());

    // Fault consumed; the same mutation commits.
    h.update_policy(Time::from_us(3), |p| {
        p.reservations.push(PortReservation::new(8080, Uid(1002)));
    })
    .unwrap();
    assert_eq!(h.policy_generation(), 2);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn compiled_installs_survive_rollback_and_reconcile() {
    // Rollback and reconcile-after-reprogram both reinstall the installed
    // bundle's own programs with the artifacts phase 1 compiled for them:
    // the resident fingerprints come back exactly and the ledger closes.
    let mut h = Host::new(HostConfig::default());
    full_policy(&mut h, Time::ZERO);
    let committed = resident_fingerprints(&h);
    assert!(committed.iter().all(Option::is_some));

    h.set_policy_fault_injector(OpFaultInjector::fail_nth(4));
    let err = h
        .update_policy(Time::from_us(1), |p| {
            p.reservations.push(PortReservation::new(8080, Uid(1002)));
        })
        .unwrap_err();
    assert!(matches!(err, CtrlError::CommitFailed { .. }), "got {err}");
    assert_eq!(resident_fingerprints(&h), committed);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());

    let back_at = h.reprogram_nic(Time::from_us(10));
    assert_eq!(resident_fingerprints(&h), [None; 3]);
    let frame = wire_udp(h.cfg.ip, 9000, 5432, 100);
    h.deliver_from_wire(&frame, back_at + Dur::from_us(1));
    assert_eq!(h.ctrl().stats().reconciles, 1);
    assert_eq!(resident_fingerprints(&h), committed);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

#[test]
fn shaping_commit_carries_a_standing_tx_backlog() {
    // The paper's live-reconfiguration path (§4): a shaping commit lands
    // while frames wait in the NIC scheduler. They must ride across the
    // scheduler swap, or leave as typed drops — the rebuilt queues used
    // to start empty, with every queued frame's pending record stranded.
    let mut h = Host::new(HostConfig::default());
    h.start_trace();
    let uids = [1001, 1002, 1003, 1004];
    let weights = |w: [f64; 4]| ShapingPolicy::new(uids.iter().map(|&u| Uid(u)).zip(w).collect());
    h.update_policy(Time::ZERO, |p| {
        p.shaping = Some(weights([4.0, 2.0, 1.0, 1.0]))
    })
    .unwrap();
    let conns: Vec<_> = uids
        .iter()
        .enumerate()
        .map(|(i, &uid)| {
            let pid = h.spawn(Uid(uid), "tenant", "svc");
            let port = 7000 + i as u16;
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
    let mut now = Time::from_us(1);
    for i in 0..32 {
        let pkt = PacketBuilder::new()
            .ether(h.cfg.mac, Mac::local(9))
            .ipv4(h.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
            .udp(7000 + (i % 4) as u16, 9000, &[0u8; 200])
            .build();
        assert!(h.app_send(conns[i % 4], &pkt, now).queued);
    }
    assert_eq!(h.nic.tx_backlog(), 32);

    now += Dur::from_us(1);
    h.update_policy(now, |p| p.shaping = Some(weights([1.0, 4.0, 2.0, 1.0])))
        .unwrap();
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    let carried = h.nic.tx_backlog() as u64;
    let tel = h.telemetry().clone();
    assert_eq!(carried + tel.stage_count(Stage::TxDrop), 32);

    // Drain: the link serialises, so departures need the clock to move.
    let mut departed = 0;
    for _ in 0..64 {
        now += Dur::from_us(1);
        departed += h.pump_tx(now).len() as u64;
    }
    assert_eq!(h.nic.tx_backlog(), 0);
    assert_eq!(departed, carried);
    // TX conservation: every frame sent either departed or was dropped
    // with a typed cause.
    assert_eq!(tel.stage_count(Stage::TxOffer), 32);
    assert_eq!(departed + tel.total_drops(), 32);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}
