//! Differential fuzzing of the overlay's two execution engines.
//!
//! The interpreter (`Vm::run_interp`) is the semantic oracle; the
//! compiled op array (`Vm::run` with a compiled program)
//! must be *bit-identical* on every observable surface: verdicts,
//! cycle counts, marks, register files, map contents, per-flow scratch
//! records, saturating counters, overflow-drop tallies, and fault
//! behavior — packet by packet, over randomly generated verified
//! programs and randomly generated packet streams.
//!
//! This is the `overlay-diff` CI job. Seeds are fixed, so a divergence
//! reproduces deterministically with `cargo test --test overlay_diff`.

use overlay::{
    compile, verify, AluOp, CmpOp, CtxField, Insn, Operand, PktCtx, Program, Reg, Verdict, Vm,
};

/// Deterministic xorshift64 PRNG (same recurrence as the assembler's
/// round-trip property test).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

const CTX_FIELDS: [CtxField; 16] = [
    CtxField::PktLen,
    CtxField::Proto,
    CtxField::SrcIp,
    CtxField::DstIp,
    CtxField::SrcPort,
    CtxField::DstPort,
    CtxField::Uid,
    CtxField::Pid,
    CtxField::FlowHash,
    CtxField::ConnId,
    CtxField::NowNs,
    CtxField::EtherType,
    CtxField::Dscp,
    CtxField::IsArp,
    CtxField::Egress,
    CtxField::Mark,
];

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Min,
    AluOp::Max,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Shape of the program under generation: how many of each declared
/// resource a body may reference.
struct Shape {
    maps: Vec<usize>,     // sizes
    flow_slots: Vec<u64>, // slots per flow map
    counters: usize,
    tails: usize,
}

fn random_verdict(rng: &mut XorShift) -> Verdict {
    match rng.below(5) {
        0 => Verdict::Pass,
        1 => Verdict::Drop,
        2 => Verdict::Class(rng.below(8) as u32),
        3 => Verdict::Redirect(rng.below(4) as u32),
        _ => Verdict::SlowPath,
    }
}

/// Emits one random body of `len` instructions. Registers are tracked
/// so reads mostly hit initialized registers, keys are usually masked
/// to map bounds, and jumps are forward-only — biased toward programs
/// the verifier accepts (the caller still filters through `verify`).
/// Faulting programs (unmasked map keys, out-of-range flow slots) are
/// deliberately kept in the mix: both engines must fault identically.
fn random_body(rng: &mut XorShift, len: usize, shape: &Shape, min_tail: usize) -> Vec<Insn> {
    let mut insns: Vec<Insn> = Vec::with_capacity(len);
    let mut inited: Vec<u8> = Vec::new(); // registers holding values
    let regs = 8u64; // keep to r0-r7 so collisions are common

    // Guarantee at least one initialized register up front.
    insns.push(Insn::LdCtx {
        dst: Reg(rng.below(regs) as u8),
        field: CTX_FIELDS[rng.below(16) as usize],
    });
    if let Insn::LdCtx { dst, .. } = insns[0] {
        inited.push(dst.0);
    }

    while insns.len() < len {
        let i = insns.len();
        let pick_init = |rng: &mut XorShift, inited: &Vec<u8>| -> Reg {
            Reg(inited[rng.below(inited.len() as u64) as usize])
        };
        let operand = |rng: &mut XorShift, inited: &Vec<u8>| -> Operand {
            if rng.chance(2) {
                Operand::Imm(rng.below(64))
            } else {
                Operand::Reg(Reg(inited[rng.below(inited.len() as u64) as usize]))
            }
        };
        match rng.below(12) {
            0 => {
                let dst = Reg(rng.below(regs) as u8);
                insns.push(Insn::LdImm {
                    dst,
                    imm: rng.below(1 << 20),
                });
                inited.push(dst.0);
            }
            1 => {
                let dst = Reg(rng.below(regs) as u8);
                insns.push(Insn::LdCtx {
                    dst,
                    field: CTX_FIELDS[rng.below(16) as usize],
                });
                inited.push(dst.0);
            }
            2 => {
                let dst = Reg(rng.below(regs) as u8);
                let src = operand(rng, &inited);
                insns.push(Insn::Mov { dst, src });
                inited.push(dst.0);
            }
            3 => {
                let dst = pick_init(rng, &inited);
                let src = operand(rng, &inited);
                insns.push(Insn::Alu {
                    op: ALU_OPS[rng.below(12) as usize],
                    dst,
                    src,
                });
            }
            4 if !shape.maps.is_empty() => {
                // Map op, usually with the key masked into bounds first.
                let map = rng.below(shape.maps.len() as u64) as usize;
                let key = pick_init(rng, &inited);
                if rng.below(4) != 0 {
                    insns.push(Insn::Alu {
                        op: AluOp::Mod,
                        dst: key,
                        src: Operand::Imm(shape.maps[map] as u64),
                    });
                    if insns.len() >= len {
                        break;
                    }
                }
                let dst = Reg(rng.below(regs) as u8);
                match rng.below(3) {
                    0 => {
                        insns.push(Insn::MapLoad { dst, map, key });
                        inited.push(dst.0);
                    }
                    1 => insns.push(Insn::MapStore {
                        map,
                        key,
                        src: pick_init(rng, &inited),
                    }),
                    _ => insns.push(Insn::MapAdd {
                        map,
                        key,
                        src: pick_init(rng, &inited),
                    }),
                }
            }
            5 if !shape.flow_slots.is_empty() => {
                let map = rng.below(shape.flow_slots.len() as u64) as usize;
                // Mostly in-bounds immediate slots; occasionally one past
                // the end (fault parity) or a register slot.
                let slot = if rng.chance(8) {
                    Operand::Imm(shape.flow_slots[map])
                } else if rng.chance(4) {
                    Operand::Reg(pick_init(rng, &inited))
                } else {
                    Operand::Imm(rng.below(shape.flow_slots[map]))
                };
                let dst = Reg(rng.below(regs) as u8);
                match rng.below(3) {
                    0 => {
                        insns.push(Insn::FlowLoad { dst, map, slot });
                        inited.push(dst.0);
                    }
                    1 => insns.push(Insn::FlowStore {
                        map,
                        slot,
                        src: pick_init(rng, &inited),
                    }),
                    _ => insns.push(Insn::FlowAdd {
                        map,
                        slot,
                        src: pick_init(rng, &inited),
                    }),
                }
            }
            6 if shape.counters > 0 => {
                insns.push(Insn::CntAdd {
                    counter: rng.below(shape.counters as u64) as usize,
                    src: operand(rng, &inited),
                });
            }
            7 => insns.push(Insn::SetMark {
                src: pick_init(rng, &inited),
            }),
            8 if i + 2 < len => {
                // Forward jump, leaving room for a landing insn.
                let target = i + 1 + rng.below((len - i - 1) as u64) as usize;
                insns.push(Insn::Jmp { target });
            }
            9 if i + 2 < len => {
                let target = i + 1 + rng.below((len - i - 1) as u64) as usize;
                insns.push(Insn::JmpIf {
                    cmp: CMP_OPS[rng.below(6) as usize],
                    lhs: pick_init(rng, &inited),
                    rhs: operand(rng, &inited),
                    target,
                });
            }
            10 if shape.tails > min_tail && rng.chance(2) => {
                insns.push(Insn::TailCall {
                    tail: min_tail + rng.below((shape.tails - min_tail) as u64) as usize,
                });
            }
            _ => {
                let dst = Reg(rng.below(regs) as u8);
                insns.push(Insn::LdImm {
                    dst,
                    imm: rng.below(256),
                });
                inited.push(dst.0);
            }
        }
    }
    // Terminate: retr from an initialized register sometimes, else a
    // literal verdict.
    if rng.chance(4) {
        let src = Reg(inited[rng.below(inited.len() as u64) as usize]);
        insns.push(Insn::RetReg { src });
    } else {
        insns.push(Insn::Ret {
            verdict: random_verdict(rng),
        });
    }
    insns
}

/// Draws random programs until one passes the verifier. The generator
/// is biased enough that this converges in a handful of attempts.
fn random_verified_program(rng: &mut XorShift, case: usize) -> Program {
    for attempt in 0..500 {
        let shape = Shape {
            maps: (0..rng.below(3))
                .map(|_| 2 + rng.below(7) as usize)
                .collect(),
            flow_slots: (0..rng.below(3)).map(|_| 1 + rng.below(3)).collect(),
            counters: rng.below(3) as usize,
            tails: rng.below(3) as usize,
        };
        let main_len = 3 + rng.below(24) as usize;
        let main = random_body(rng, main_len, &shape, 0);
        let mut p = Program::new(
            format!("fuzz-{case}-{attempt}"),
            main,
            shape
                .maps
                .iter()
                .enumerate()
                .map(|(i, &s)| overlay::MapSpec::new(format!("m{i}"), s))
                .collect(),
        );
        for (i, &slots) in shape.flow_slots.iter().enumerate() {
            p = p.with_flow_map(overlay::FlowMapSpec::new(
                format!("f{i}"),
                slots as usize,
                2 + rng.below(5) as usize, // tiny: exercises overflow drops
            ));
        }
        for i in 0..shape.counters {
            p = p.with_counter(format!("c{i}"));
        }
        for t in 0..shape.tails {
            let tail_len = 2 + rng.below(8) as usize;
            let body = random_body(rng, tail_len, &shape, t + 1);
            p = p.with_tail(format!("t{t}"), body);
        }
        if verify(&p).is_ok() {
            return p;
        }
    }
    panic!("generator failed to produce a verifiable program for case {case}");
}

/// A small universe of flow keys/ports so streams revisit flows (maps
/// fill, counters accumulate, overflow drops trigger).
fn random_ctx(rng: &mut XorShift) -> PktCtx {
    let flow = rng.below(12);
    PktCtx {
        flow_key: if rng.chance(10) {
            0
        } else {
            0xfee1_0000 + flow as u128
        },
        pkt_len: 64 + rng.below(1436),
        proto: [6u64, 17, 1][rng.below(3) as usize],
        src_ip: 0x0a00_0002 + flow as u32,
        dst_ip: 0x0a00_0001,
        src_port: 40_000 + flow as u16,
        dst_port: [80u16, 443, 5432, 8080][rng.below(4) as usize],
        uid: 1000 + rng.below(4) as u32,
        pid: 1 + rng.below(8) as u32,
        flow_hash: rng.next() as u32,
        conn_id: rng.below(64),
        now_ns: rng.below(1 << 30),
        ethertype: 0x0800,
        dscp: rng.below(64) as u8,
        is_arp: rng.chance(20),
        egress: rng.chance(2),
        mark: rng.below(4),
    }
}

/// Asserts every observable surface of the two engines is identical.
fn assert_state_identical(compiled: &Vm, interp: &Vm, case: usize, pkt: usize) {
    let at = format!("case {case} packet {pkt}");
    assert_eq!(
        compiled.last_regs(),
        interp.last_regs(),
        "register file diverged at {at}"
    );
    assert_eq!(
        compiled.map_state(),
        interp.map_state(),
        "map state diverged at {at}"
    );
    let mut m = 0;
    while let (Some(a), Some(b)) = (compiled.flow_snapshot(m), interp.flow_snapshot(m)) {
        assert_eq!(a, b, "flow map {m} diverged at {at}");
        assert_eq!(
            compiled.flow_overflow_drops(m),
            interp.flow_overflow_drops(m),
            "flow map {m} overflow drops diverged at {at}"
        );
        m += 1;
    }
    assert_eq!(
        compiled.counters(),
        interp.counters(),
        "counters diverged at {at}"
    );
}

/// The core differential loop: `CASES` random verified programs, each
/// driven by a fresh random packet stream on both engines in lockstep.
fn run_differential(seed: u64, cases: usize, packets: usize) -> (usize, usize) {
    let mut rng = XorShift(seed);
    let mut compiled_cases = 0;
    let mut total_packets = 0;
    for case in 0..cases {
        let program = random_verified_program(&mut rng, case);
        let artifact = match compile(&program) {
            Ok(a) => a,
            // Programs past the AOT block budget fall back to the
            // interpreter in production; nothing to diff.
            Err(_) => continue,
        };
        compiled_cases += 1;
        let mut fast = Vm::with_compiled(program.clone(), artifact);
        let mut oracle = Vm::new(program);
        for pkt in 0..packets {
            let ctx = random_ctx(&mut rng);
            let a = fast.run(&ctx);
            let b = oracle.run_interp(&ctx);
            assert_eq!(
                a, b,
                "verdict/cycles/mark diverged at case {case} packet {pkt}"
            );
            assert_state_identical(&fast, &oracle, case, pkt);
            total_packets += 1;
        }
        assert_eq!(
            (fast.executions, fast.faults),
            (oracle.executions, oracle.faults),
            "exec/fault counters diverged at case {case}"
        );
    }
    (compiled_cases, total_packets)
}

#[test]
fn compiled_engine_is_bit_identical_to_interpreter() {
    let (cases, packets) = run_differential(0x9e37_79b9_7f4a_7c15, 120, 64);
    // The generator must actually exercise the compiled path.
    assert!(cases >= 100, "only {cases} compiled cases");
    assert!(packets >= 6_000, "only {packets} packets diffed");
}

#[test]
fn second_seed_covers_a_disjoint_program_population() {
    let (cases, _) = run_differential(0xdead_beef_cafe_f00d, 60, 48);
    assert!(cases >= 50, "only {cases} compiled cases");
}

#[test]
fn builtin_programs_diff_clean_over_random_streams() {
    // The shipped builtins (port-owner filter, WFQ classifiers, the
    // flow meter) are exactly the programs every policy commit
    // installs; diff them over a longer stream.
    let mut rng = XorShift(0x5eed_5eed_5eed_5eed);
    for program in overlay::builtins::all() {
        let artifact = compile(&program).expect("builtins must compile");
        let mut fast = Vm::with_compiled(program.clone(), artifact);
        let mut oracle = Vm::new(program.clone());
        for pkt in 0..512 {
            let ctx = random_ctx(&mut rng);
            assert_eq!(
                fast.run(&ctx),
                oracle.run_interp(&ctx),
                "builtin '{}' diverged at packet {pkt}",
                program.name
            );
            assert_state_identical(&fast, &oracle, 0, pkt);
        }
    }
}
