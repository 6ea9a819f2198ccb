//! Cross-crate integration: custom overlay programs loaded through the
//! control plane onto the live NIC pipeline, verifier gatekeeping, and
//! fault containment.

use nicsim::device::ProgramSlot;
use nicsim::{NicConfig, NicError, RxDisposition, SmartNic};
use overlay::{assemble, verify, Program};
use pkt::{Mac, PacketBuilder};
use sim::Time;

fn udp_to(dst_port: u16, len: usize) -> pkt::Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), Mac::local(1))
        .ipv4("10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap())
        .udp(40_000, dst_port, &vec![0u8; len])
        .build()
}

fn rx_tuple(dst_port: u16) -> pkt::FiveTuple {
    pkt::FiveTuple::udp(
        "10.0.0.2".parse().unwrap(),
        40_000,
        "10.0.0.1".parse().unwrap(),
        dst_port,
    )
}

/// Compiles `program` and loads it, as the control plane's phase 1 and
/// phase 2 do.
fn load(
    nic: &mut SmartNic,
    slot: ProgramSlot,
    program: Program,
    now: Time,
) -> Result<sim::Dur, NicError> {
    let artifact = overlay::compile(&program).expect("compiles");
    nic.load_program(slot, program, artifact, now)
}

#[test]
fn custom_assembled_filter_runs_on_the_nic() {
    // A hand-written policy: drop frames larger than 1000 bytes unless
    // they go to port 443.
    let src = "
        ldctx r0, dst_port
        jeq r0, 443, allow
        ldctx r1, pkt_len
        jgt r1, 1000, deny
        allow:
        ret pass
        deny:
        ret drop
    ";
    let prog = assemble("size_cap", src).unwrap();
    verify(&prog).unwrap();

    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(rx_tuple(443), 0, 1, "web", false)
        .unwrap();
    nic.open_connection(rx_tuple(8080), 0, 1, "other", false)
        .unwrap();
    load(&mut nic, ProgramSlot::IngressFilter, prog, Time::ZERO).unwrap();

    // Small frame to 8080: passes.
    assert!(matches!(
        nic.rx(&udp_to(8080, 100), Time::ZERO).disposition,
        RxDisposition::Deliver { .. }
    ));
    // Large frame to 8080: dropped.
    assert!(matches!(
        nic.rx(&udp_to(8080, 1200), Time::ZERO).disposition,
        RxDisposition::Drop { .. }
    ));
    // Large frame to 443: exempt.
    assert!(matches!(
        nic.rx(&udp_to(443, 1200), Time::ZERO).disposition,
        RxDisposition::Deliver { .. }
    ));
}

#[test]
fn verifier_blocks_unsafe_programs_at_load_time() {
    use overlay::{Insn, Reg, Verdict};
    let bad_programs: Vec<(Program, &'static str)> = vec![
        (
            Program::new(
                "fall-off",
                vec![Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                }],
                vec![],
            ),
            "falls off end",
        ),
        (
            Program::new(
                "backjump",
                vec![
                    Insn::LdImm {
                        dst: Reg(0),
                        imm: 1,
                    },
                    Insn::Jmp { target: 0 },
                    Insn::Ret {
                        verdict: Verdict::Pass,
                    },
                ],
                vec![],
            ),
            "backward jump",
        ),
        (
            Program::new("uninit", vec![Insn::RetReg { src: Reg(3) }], vec![]),
            "uninitialized read",
        ),
    ];
    let mut nic = SmartNic::new(NicConfig::default());
    for (prog, why) in bad_programs {
        let err = load(&mut nic, ProgramSlot::IngressFilter, prog, Time::ZERO);
        assert!(
            matches!(err, Err(NicError::Verify(_))),
            "{why} must be rejected"
        );
    }
    // And nothing was charged to SRAM by the failed loads.
    assert_eq!(nic.sram.used_by(nicsim::SramCategory::Program), 0);
}

#[test]
fn runtime_faults_fail_closed_not_crash() {
    // A verified program whose map key is data-dependent and out of
    // bounds at runtime: the packet is dropped, the NIC survives.
    let src = "
        map small 4
        ldctx r0, dst_port
        mapld r1, small, r0   ; port 8080 is out of bounds for 4 entries
        ret pass
    ";
    let prog = assemble("oob", src).unwrap();
    verify(&prog).unwrap();
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(rx_tuple(8080), 0, 1, "app", false)
        .unwrap();
    load(&mut nic, ProgramSlot::IngressFilter, prog, Time::ZERO).unwrap();
    let r = nic.rx(&udp_to(8080, 64), Time::ZERO);
    assert!(
        matches!(r.disposition, RxDisposition::Drop { .. }),
        "fail closed"
    );
    // The dataplane continues for in-bounds traffic.
    nic.open_connection(rx_tuple(3), 0, 1, "app", false)
        .unwrap();
    let r = nic.rx(&udp_to(3, 64), Time::ZERO);
    assert!(matches!(r.disposition, RxDisposition::Deliver { .. }));
}

#[test]
fn slowpath_verdict_routes_to_kernel() {
    // Policy: punt everything to port 9999 through the software path
    // (the §5 "low priority traffic" escape hatch).
    let src = "
        ldctx r0, dst_port
        jeq r0, 9999, punt
        ret pass
        punt:
        ret slowpath
    ";
    let prog = assemble("punt", src).unwrap();
    verify(&prog).unwrap();
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(rx_tuple(9999), 0, 1, "bulk", false)
        .unwrap();
    nic.open_connection(rx_tuple(80), 0, 1, "web", false)
        .unwrap();
    load(&mut nic, ProgramSlot::IngressFilter, prog, Time::ZERO).unwrap();
    assert!(matches!(
        nic.rx(&udp_to(9999, 64), Time::ZERO).disposition,
        RxDisposition::SlowPath { .. }
    ));
    assert!(matches!(
        nic.rx(&udp_to(80, 64), Time::ZERO).disposition,
        RxDisposition::Deliver { .. }
    ));
}

#[test]
fn accounting_maps_readable_from_control_plane() {
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(rx_tuple(80), 42, 7, "app", false)
        .unwrap();
    let acct = overlay::builtins::byte_accounting();
    let artifact = overlay::compile(&acct).unwrap();
    let slot = nic.add_accounting(acct, artifact, Time::ZERO).unwrap();
    let frame = udp_to(80, 958); // 1000-byte frame
    for _ in 0..10 {
        nic.rx(&frame, Time::ZERO);
    }
    assert_eq!(nic.read_accounting_map(slot, 0, 42), Some(10_000));
}
