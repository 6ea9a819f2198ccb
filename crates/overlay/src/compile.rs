//! Commit-time lowering of verified overlay programs into one flat
//! array of pre-decoded ops, run by one `match` loop.
//!
//! The main body and then each tail are laid out in one `Box<[Op]>`,
//! each followed by a `Fault` sentinel. Operands are resolved to register
//! or immediate forms, map/flow/counter indices are `u32`, and jumps and
//! tail calls are absolute op indices: per packet, nothing is decoded.
//!
//! Parity contract: for any verified program and packet context, the
//! artifact leaves *bit-identical* machine state (registers, mark, maps,
//! flow maps, counters), verdict, cycle count and fault behaviour to the
//! interpreter's. One op per instruction, one cycle per op after the
//! interpreter's budget check, and the sentinel's `PcOutOfBounds` make
//! it hold by construction; `tests/overlay_diff.rs` and
//! `tests/fuzz_asm.rs` (the `overlay-diff` CI job) check it.
//!
//! A program that verifies can still fail to compile
//! ([`MAX_COMPILED_INSNS`] is below the interpreter's store), so the
//! control plane treats [`CompileError`] as a phase-1 commit failure and
//! keeps the prior bundle installed: the NIC runs compiled artifacts only.

use std::rc::Rc;

use crate::isa::{AluOp, CmpOp, CtxField, Insn, Operand, Reg, Verdict, NUM_REGS};
use crate::program::Program;
use crate::vm::{Execution, PktCtx, VmError, VmState};

/// Maximum total instructions (main body plus tails) the compiler
/// accepts. Deliberately smaller than `crate::program::MAX_INSNS`: the
/// modelled artifact store is tighter than the interpreter's program
/// store, so "verifies but fails to compile" is a real, constructible
/// condition the control plane must handle.
pub const MAX_COMPILED_INSNS: usize = 2048;

/// Why a verified program could not be compiled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The program (tails included) exceeds the artifact store.
    TooLarge {
        /// Total instructions across all bodies.
        total: usize,
        /// The artifact-store limit.
        max: usize,
    },
    /// A jump targeted a pc outside its body (unverified input).
    BadJumpTarget {
        /// Body index (0 = main, i+1 = tail i).
        body: usize,
        /// The jump's pc.
        pc: usize,
        /// The offending target.
        target: usize,
    },
    /// A tail-call referenced a missing tail body (unverified input).
    BadTailTarget {
        /// Body index of the caller.
        body: usize,
        /// The call's pc.
        pc: usize,
        /// The offending tail index.
        tail: usize,
    },
    /// A body was empty (unverified input).
    EmptyBody {
        /// The empty body's index.
        body: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooLarge { total, max } => {
                write!(f, "program too large to compile: {total} insns > {max}")
            }
            CompileError::BadJumpTarget { body, pc, target } => {
                write!(f, "body {body} pc {pc}: jump target {target} out of bounds")
            }
            CompileError::BadTailTarget { body, pc, tail } => {
                write!(f, "body {body} pc {pc}: tail {tail} does not exist")
            }
            CompileError::EmptyBody { body } => write!(f, "body {body} is empty"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Register indices in ops come from `Reg` values the verifier has
/// already range-checked; masking to the (power-of-two) register count
/// makes that obvious to the optimizer and erases the bounds checks from
/// the hot loop.
#[inline(always)]
fn reg(r: Reg) -> usize {
    usize::from(r.0) & (NUM_REGS as usize - 1)
}

#[inline(always)]
fn val(o: Operand, regs: &[u64; NUM_REGS as usize]) -> u64 {
    match o {
        Operand::Reg(r) => regs[reg(r)],
        Operand::Imm(v) => v,
    }
}

/// A map, flow-map or counter index, or an op index. Verified indices
/// are small; an undeclared one at or past `u32::MAX` (unverified input)
/// saturates and faults like any other undeclared index, naming
/// `u32::MAX`.
fn idx(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// One pre-decoded instruction. Each mutates [`VmState`] exactly as the
/// interpreter does at the same program point. The ALU and branch ops,
/// which every program runs, have one variant per operand form; the
/// rest keep the source [`Operand`].
#[derive(Clone, Copy, Debug)]
enum Op {
    LdImm {
        dst: Reg,
        imm: u64,
    },
    /// `dst = ctx.field` for every field but the mark.
    LdCtx {
        dst: Reg,
        field: CtxField,
    },
    /// `dst = mark` (the mark is machine state, not context).
    LdMark {
        dst: Reg,
    },
    Mov {
        dst: Reg,
        src: Reg,
    },
    AluR {
        op: AluOp,
        dst: Reg,
        src: Reg,
    },
    AluI {
        op: AluOp,
        dst: Reg,
        imm: u64,
    },
    /// Also a tail call that moves forward: the target body's first op.
    Jmp {
        target: u32,
    },
    JmpIfR {
        cmp: CmpOp,
        lhs: Reg,
        rhs: Reg,
        target: u32,
    },
    JmpIfI {
        cmp: CmpOp,
        lhs: Reg,
        rhs: u64,
        target: u32,
    },
    MapLoad {
        dst: Reg,
        map: u32,
        key: Reg,
    },
    MapWrite {
        map: u32,
        key: Reg,
        src: Reg,
        add: bool,
    },
    FlowLoad {
        dst: Reg,
        map: u32,
        slot: Operand,
    },
    FlowWrite {
        map: u32,
        slot: Operand,
        src: Reg,
        add: bool,
    },
    CntAdd {
        counter: u32,
        src: Operand,
    },
    SetMark {
        src: Reg,
    },
    Ret {
        verdict: Verdict,
    },
    RetReg {
        src: Reg,
    },
    /// The interpreter's `PcOutOfBounds`: the sentinel after every body,
    /// and a tail call that does not move forward.
    Fault,
}

/// A compiled overlay program: the flat op array the control plane
/// swaps in at commit time. Stamped with the source program's
/// fingerprint so audits reconcile compiled NIC state against the policy
/// store byte-for-byte, exactly as they do interpreted programs.
#[derive(Debug)]
pub struct CompiledProgram {
    fingerprint: u64,
    /// Every body's ops, main first, each followed by `Op::Fault`.
    ops: Box<[Op]>,
    /// The interpreter's cycle budget (`total_insns + 1`).
    budget: u64,
}

impl CompiledProgram {
    /// The source program's fingerprint — the artifact's identity for
    /// audit/restore reconciliation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Executes over `ctx`. The caller (`Vm::run`) has already reset the
    /// register file and seeded the mark.
    pub(crate) fn exec(&self, st: &mut VmState, ctx: &PktCtx) -> Result<Execution, VmError> {
        let mut pc = 0usize;
        let mut cycles = 0u64;
        loop {
            // Verified programs only move forward, so this never fires
            // for them; it is the interpreter's bound for the rest.
            if cycles >= self.budget {
                return Err(VmError::CycleBudgetExceeded);
            }
            cycles += 1;
            // Every body ends in a sentinel and every target is in range,
            // so `pc` never leaves the array.
            let Some(&op) = self.ops.get(pc) else {
                return Err(VmError::PcOutOfBounds);
            };
            pc += 1;
            let regs = &mut st.regs;
            match op {
                Op::LdImm { dst, imm } => regs[reg(dst)] = imm,
                Op::LdCtx { dst, field } => regs[reg(dst)] = ctx.read(field),
                Op::LdMark { dst } => regs[reg(dst)] = st.mark,
                Op::Mov { dst, src } => regs[reg(dst)] = regs[reg(src)],
                Op::AluR { op, dst, src } => {
                    regs[reg(dst)] = op.eval(regs[reg(dst)], regs[reg(src)])
                }
                Op::AluI { op, dst, imm } => regs[reg(dst)] = op.eval(regs[reg(dst)], imm),
                Op::Jmp { target } => pc = target as usize,
                Op::JmpIfR {
                    cmp,
                    lhs,
                    rhs,
                    target,
                } => {
                    if cmp.eval(regs[reg(lhs)], regs[reg(rhs)]) {
                        pc = target as usize;
                    }
                }
                Op::JmpIfI {
                    cmp,
                    lhs,
                    rhs,
                    target,
                } => {
                    if cmp.eval(regs[reg(lhs)], rhs) {
                        pc = target as usize;
                    }
                }
                Op::MapLoad { dst, map, key } => {
                    let (map, k) = (map as usize, regs[reg(key)]);
                    match st.maps.get(map).and_then(|m| m.get(k as usize)) {
                        Some(&v) => regs[reg(dst)] = v,
                        None => return Err(VmError::MapKeyOutOfBounds { map, key: k }),
                    }
                }
                Op::MapWrite { map, key, src, add } => {
                    let (map, k, v) = (map as usize, regs[reg(key)], regs[reg(src)]);
                    match st.maps.get_mut(map).and_then(|m| m.get_mut(k as usize)) {
                        Some(slot) if add => *slot = slot.saturating_add(v),
                        Some(slot) => *slot = v,
                        None => return Err(VmError::MapKeyOutOfBounds { map, key: k }),
                    }
                }
                Op::FlowLoad { dst, map, slot } => {
                    let (map, s) = (map as usize, val(slot, regs));
                    match st.flows.get(map).and_then(|fm| fm.load(ctx.flow_key, s)) {
                        Some(v) => regs[reg(dst)] = v,
                        None => return Err(VmError::FlowSlotOutOfBounds { map, slot: s }),
                    }
                }
                Op::FlowWrite {
                    map,
                    slot,
                    src,
                    add,
                } => {
                    let (map, s, v) = (map as usize, val(slot, regs), regs[reg(src)]);
                    let fm = st.flows.get_mut(map);
                    if fm
                        .and_then(|fm| fm.write(ctx.flow_key, s, v, add))
                        .is_none()
                    {
                        return Err(VmError::FlowSlotOutOfBounds { map, slot: s });
                    }
                }
                Op::CntAdd { counter, src } => {
                    let (counter, v) = (counter as usize, val(src, regs));
                    match st.counters.get_mut(counter) {
                        Some(c) => *c = c.saturating_add(v),
                        None => return Err(VmError::CounterOutOfBounds { counter }),
                    }
                }
                Op::SetMark { src } => st.mark = regs[reg(src)],
                Op::Ret { verdict } => {
                    return Ok(Execution {
                        verdict,
                        cycles,
                        mark: st.mark,
                    })
                }
                Op::RetReg { src } => {
                    return Ok(Execution {
                        verdict: Verdict::decode(regs[reg(src)]),
                        cycles,
                        mark: st.mark,
                    })
                }
                Op::Fault => return Err(VmError::PcOutOfBounds),
            }
        }
    }
}

/// Compiles a verified program into its flat op array.
///
/// The input should have passed [`crate::verify::verify`]; malformed
/// input is rejected with a `CompileError` rather than panicking, but
/// the parity contract only holds for verified programs.
pub fn compile(program: &Program) -> Result<Rc<CompiledProgram>, CompileError> {
    let total = program.total_insns();
    if total > MAX_COMPILED_INSNS {
        return Err(CompileError::TooLarge {
            total,
            max: MAX_COMPILED_INSNS,
        });
    }
    let bodies: Vec<&[Insn]> = std::iter::once(program.insns.as_slice())
        .chain(program.tails.iter().map(|t| t.insns.as_slice()))
        .collect();
    // Each body's first op: the bodies are laid out in order, each
    // followed by its sentinel.
    let mut starts = Vec::with_capacity(bodies.len());
    let mut next = 0;
    for (body, insns) in bodies.iter().enumerate() {
        if insns.is_empty() {
            return Err(CompileError::EmptyBody { body });
        }
        starts.push(idx(next));
        next += insns.len() + 1;
    }

    let mut ops = Vec::with_capacity(next);
    for (body, insns) in bodies.iter().enumerate() {
        for (pc, &insn) in insns.iter().enumerate() {
            let target = |target: usize| match target < insns.len() {
                true => Ok(starts[body] + idx(target)),
                false => Err(CompileError::BadJumpTarget { body, pc, target }),
            };
            ops.push(match insn {
                Insn::LdImm { dst, imm } => Op::LdImm { dst, imm },
                Insn::LdCtx {
                    dst,
                    field: CtxField::Mark,
                } => Op::LdMark { dst },
                Insn::LdCtx { dst, field } => Op::LdCtx { dst, field },
                Insn::Mov { dst, src } => match src {
                    Operand::Reg(src) => Op::Mov { dst, src },
                    Operand::Imm(imm) => Op::LdImm { dst, imm },
                },
                Insn::Alu { op, dst, src } => match src {
                    Operand::Reg(src) => Op::AluR { op, dst, src },
                    Operand::Imm(imm) => Op::AluI { op, dst, imm },
                },
                Insn::Jmp { target: t } => Op::Jmp { target: target(t)? },
                Insn::JmpIf {
                    cmp,
                    lhs,
                    rhs,
                    target: t,
                } => {
                    let target = target(t)?;
                    match rhs {
                        Operand::Reg(rhs) => Op::JmpIfR {
                            cmp,
                            lhs,
                            rhs,
                            target,
                        },
                        Operand::Imm(rhs) => Op::JmpIfI {
                            cmp,
                            lhs,
                            rhs,
                            target,
                        },
                    }
                }
                Insn::MapLoad { dst, map, key } => Op::MapLoad {
                    dst,
                    map: idx(map),
                    key,
                },
                Insn::MapStore { map, key, src } | Insn::MapAdd { map, key, src } => {
                    let add = matches!(insn, Insn::MapAdd { .. });
                    Op::MapWrite {
                        map: idx(map),
                        key,
                        src,
                        add,
                    }
                }
                Insn::FlowLoad { dst, map, slot } => Op::FlowLoad {
                    dst,
                    map: idx(map),
                    slot,
                },
                Insn::FlowStore { map, slot, src } | Insn::FlowAdd { map, slot, src } => {
                    let add = matches!(insn, Insn::FlowAdd { .. });
                    Op::FlowWrite {
                        map: idx(map),
                        slot,
                        src,
                        add,
                    }
                }
                Insn::CntAdd { counter, src } => Op::CntAdd {
                    counter: idx(counter),
                    src,
                },
                Insn::TailCall { tail } if tail >= program.tails.len() => {
                    return Err(CompileError::BadTailTarget { body, pc, tail });
                }
                // Body `tail + 1` is tail `tail`: a call from a tail to
                // itself or an earlier one is the interpreter's fault.
                Insn::TailCall { tail } if tail < body => Op::Fault,
                Insn::TailCall { tail } => Op::Jmp {
                    target: starts[tail + 1],
                },
                Insn::SetMark { src } => Op::SetMark { src },
                Insn::Ret { verdict } => Op::Ret { verdict },
                Insn::RetReg { src } => Op::RetReg { src },
            });
        }
        ops.push(Op::Fault);
    }

    Ok(Rc::new(CompiledProgram {
        fingerprint: program.fingerprint(),
        ops: ops.into_boxed_slice(),
        budget: total as u64 + 1,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FlowMapSpec, MapSpec};
    use crate::verify::verify;
    use crate::vm::Vm;

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    /// Runs `ctx` through the interpreter and the compiled artifact of
    /// `program` (which need not verify) and checks that every
    /// observable agrees: the result, registers, mark, maps, flow maps
    /// and their overflow drops, counters and fault tallies.
    fn lockstep(vi: &mut Vm, vc: &mut Vm, ctx: &PktCtx) -> Result<Execution, VmError> {
        let ei = vi.run_interp(ctx);
        let ec = vc.run(ctx);
        let name = &vi.program().name;
        assert_eq!(ei, ec, "execution mismatch for '{name}'");
        assert_eq!(vi.last_regs(), vc.last_regs(), "register file mismatch");
        assert_eq!(vi.state.mark, vc.state.mark, "mark mismatch");
        assert_eq!(vi.map_state(), vc.map_state(), "map state mismatch");
        for m in 0..vi.program().flow_maps.len() {
            assert_eq!(vi.flow_snapshot(m), vc.flow_snapshot(m), "flow map {m}");
            assert_eq!(vi.flow_overflow_drops(m), vc.flow_overflow_drops(m));
        }
        assert_eq!(vi.state.counters, vc.state.counters, "counter mismatch");
        assert_eq!((vi.executions, vi.faults), (vc.executions, vc.faults));
        ei
    }

    /// Both engines over one fresh VM each, for a program that need not
    /// verify.
    fn engines(program: &Program) -> (Vm, Vm) {
        let compiled = compile(program).expect("test program must compile");
        let vc = Vm::with_compiled(program.clone(), compiled);
        (Vm::new(program.clone()), vc)
    }

    fn both(program: &Program, ctx: &PktCtx) -> (Vm, Vm) {
        verify(program).expect("test program must verify");
        let (mut vi, mut vc) = engines(program);
        lockstep(&mut vi, &mut vc, ctx).expect("test program must run");
        (vi, vc)
    }

    /// A chain of constant arithmetic runs op by op, and lands on the
    /// interpreter's registers.
    #[test]
    fn straight_line_constant_fold_parity() {
        let p = Program::new(
            "fold",
            vec![
                Insn::LdImm { dst: r(0), imm: 7 },
                Insn::LdImm { dst: r(1), imm: 5 },
                Insn::Alu {
                    op: AluOp::Mul,
                    dst: r(0),
                    src: Operand::Reg(r(1)),
                },
                Insn::Alu {
                    op: AluOp::Add,
                    dst: r(0),
                    src: Operand::Imm(1),
                },
                Insn::SetMark { src: r(0) },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![],
        );
        let (vi, vc) = both(&p, &PktCtx::default());
        assert_eq!(vi.last_regs()[0], 36);
        assert_eq!(vc.last_regs()[0], 36);
        assert!(vc.is_compiled() && !vi.is_compiled());
    }

    #[test]
    fn branches_and_cycles_match() {
        let p = Program::new(
            "br",
            vec![
                Insn::LdCtx {
                    dst: r(0),
                    field: CtxField::DstPort,
                },
                Insn::JmpIf {
                    cmp: CmpOp::Gt,
                    lhs: r(0),
                    rhs: Operand::Imm(1000),
                    target: 3,
                },
                Insn::Ret {
                    verdict: Verdict::Drop,
                },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![],
        );
        for port in [80u16, 5432] {
            let ctx = PktCtx {
                dst_port: port,
                ..PktCtx::default()
            };
            both(&p, &ctx);
        }
    }

    /// A branch whose operands are both constants runs like any other.
    #[test]
    fn compile_time_constant_branch_folds() {
        let p = Program::new(
            "cbr",
            vec![
                Insn::LdImm { dst: r(0), imm: 9 },
                Insn::JmpIf {
                    cmp: CmpOp::Lt,
                    lhs: r(0),
                    rhs: Operand::Imm(10),
                    target: 3,
                },
                Insn::Ret {
                    verdict: Verdict::Drop,
                },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![],
        );
        let (_, vc) = both(&p, &PktCtx::default());
        assert_eq!(vc.last_regs()[0], 9);
    }

    #[test]
    fn maps_flows_counters_tails_parity() {
        let p = Program::new(
            "full",
            vec![
                Insn::LdCtx {
                    dst: r(0),
                    field: CtxField::PktLen,
                },
                Insn::LdImm { dst: r(1), imm: 0 },
                Insn::MapAdd {
                    map: 0,
                    key: r(1),
                    src: r(0),
                },
                Insn::FlowAdd {
                    map: 0,
                    slot: Operand::Imm(1),
                    src: r(0),
                },
                Insn::CntAdd {
                    counter: 0,
                    src: Operand::Imm(1),
                },
                Insn::TailCall { tail: 0 },
            ],
            vec![MapSpec::new("bytes", 4)],
        )
        .with_flow_map(FlowMapSpec::new("per_flow", 2, 8))
        .with_counter("pkts")
        .with_tail(
            "fin",
            vec![
                Insn::FlowLoad {
                    dst: r(2),
                    map: 0,
                    slot: Operand::Imm(1),
                },
                Insn::SetMark { src: r(2) },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
        );
        let ctx = PktCtx {
            flow_key: 42,
            pkt_len: 1500,
            ..PktCtx::default()
        };
        let (vi, vc) = both(&p, &ctx);
        assert_eq!(vi.flow_snapshot(0), vc.flow_snapshot(0));
        assert_eq!(vi.counter_get(0), Some(1));
        assert_eq!(vc.counter_get(0), Some(1));
        assert_eq!(vc.map_get(0, 0), Some(1500));
    }

    #[test]
    fn too_large_fails_to_compile_but_verifies() {
        let mut insns = Vec::new();
        for _ in 0..MAX_COMPILED_INSNS {
            insns.push(Insn::LdImm { dst: r(0), imm: 1 });
        }
        insns.push(Insn::Ret {
            verdict: Verdict::Pass,
        });
        let p = Program::new("huge", insns, vec![]);
        verify(&p).expect("program within MAX_INSNS verifies");
        assert!(matches!(
            compile(&p),
            Err(CompileError::TooLarge { total, max })
                if total == MAX_COMPILED_INSNS + 1 && max == MAX_COMPILED_INSNS
        ));
    }

    #[test]
    fn fingerprint_stamp_matches_source() {
        let p = Program::new(
            "fp",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![],
        );
        let c = compile(&p).unwrap();
        assert_eq!(c.fingerprint(), p.fingerprint());
        assert!(format!("{c:?}").contains("CompiledProgram"));
    }

    #[test]
    #[should_panic(expected = "fingerprint mismatch")]
    fn with_compiled_rejects_mismatched_artifact() {
        let p = Program::new(
            "a",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![],
        );
        let q = Program::new(
            "b",
            vec![Insn::Ret {
                verdict: Verdict::Drop,
            }],
            vec![],
        );
        let c = compile(&q).unwrap();
        let _ = Vm::with_compiled(p, c);
    }

    #[test]
    fn map_fault_parity() {
        // A data-dependent map fault: key comes from the packet.
        let p = Program::new(
            "oob",
            vec![
                Insn::LdCtx {
                    dst: r(0),
                    field: CtxField::DstPort,
                },
                Insn::MapLoad {
                    dst: r(1),
                    map: 0,
                    key: r(0),
                },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![MapSpec::new("m", 16)],
        );
        verify(&p).unwrap();
        let (mut vi, mut vc) = engines(&p);
        let ctx = PktCtx {
            dst_port: 999,
            ..PktCtx::default()
        };
        let e = lockstep(&mut vi, &mut vc, &ctx);
        assert_eq!(e, Err(VmError::MapKeyOutOfBounds { map: 0, key: 999 }));
        assert_eq!(vc.faults, 1);
    }

    #[test]
    fn map_fault_after_register_writes_leaves_identical_state() {
        // Registers, the mark, a map and a counter are written before a
        // store faults: the fault must find exactly what the interpreter
        // leaves, and the next packet must start from it.
        let p = Program::new(
            "late_fault",
            vec![
                Insn::LdImm { dst: r(0), imm: 7 },
                Insn::LdCtx {
                    dst: r(1),
                    field: CtxField::DstPort,
                },
                Insn::SetMark { src: r(0) },
                Insn::MapAdd {
                    map: 0,
                    key: r(0),
                    src: r(1),
                },
                Insn::CntAdd {
                    counter: 0,
                    src: Operand::Reg(r(1)),
                },
                Insn::Mov {
                    dst: r(2),
                    src: Operand::Imm(3),
                },
                Insn::MapStore {
                    map: 0,
                    key: r(1),
                    src: r(2),
                },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![MapSpec::new("m", 16)],
        )
        .with_counter("c");
        verify(&p).unwrap();
        let (mut vi, mut vc) = engines(&p);
        for port in [9, 999, 12, 4000] {
            let ctx = PktCtx {
                dst_port: port,
                mark: 5,
                ..PktCtx::default()
            };
            let e = lockstep(&mut vi, &mut vc, &ctx);
            assert_eq!(e.is_err(), port >= 16, "port {port}");
        }
        assert_eq!(vc.faults, 2);
        assert_eq!(vc.last_regs()[2], 3);
    }

    #[test]
    fn running_off_a_body_end_faults_like_the_interpreter() {
        // Unverified input: the main body has no `ret`, and neither has
        // the tail the second program calls.
        let no_ret = Program::new("no_ret", vec![Insn::LdImm { dst: r(0), imm: 1 }], vec![]);
        let no_tail_ret = Program::new("no_tail_ret", vec![Insn::TailCall { tail: 0 }], vec![])
            .with_tail("t", vec![Insn::LdImm { dst: r(1), imm: 2 }]);
        for p in [no_ret, no_tail_ret] {
            assert!(verify(&p).is_err());
            let (mut vi, mut vc) = engines(&p);
            let e = lockstep(&mut vi, &mut vc, &PktCtx::default());
            assert_eq!(e, Err(VmError::PcOutOfBounds), "{}", p.name);
        }
    }

    #[test]
    fn tail_call_that_does_not_move_forward_faults_like_the_interpreter() {
        // Tail 0 calls itself; tail 1 calls back into tail 0.
        let ret = Insn::Ret {
            verdict: Verdict::Pass,
        };
        let itself = Program::new("itself", vec![Insn::TailCall { tail: 0 }], vec![])
            .with_tail("t0", vec![Insn::TailCall { tail: 0 }, ret]);
        let back = Program::new("back", vec![Insn::TailCall { tail: 1 }], vec![])
            .with_tail("t0", vec![ret])
            .with_tail(
                "t1",
                vec![
                    Insn::LdImm { dst: r(3), imm: 4 },
                    Insn::TailCall { tail: 0 },
                ],
            );
        for p in [itself, back] {
            let (mut vi, mut vc) = engines(&p);
            let e = lockstep(&mut vi, &mut vc, &PktCtx::default());
            assert_eq!(e, Err(VmError::PcOutOfBounds), "{}", p.name);
        }
    }

    #[test]
    fn backward_jump_exhausts_the_budget_like_the_interpreter() {
        // Unverified input: a loop, which only the cycle budget ends.
        let p = Program::new(
            "spin",
            vec![
                Insn::Alu {
                    op: AluOp::Add,
                    dst: r(0),
                    src: Operand::Imm(1),
                },
                Insn::Jmp { target: 0 },
            ],
            vec![],
        );
        let (mut vi, mut vc) = engines(&p);
        let e = lockstep(&mut vi, &mut vc, &PktCtx::default());
        assert_eq!(e, Err(VmError::CycleBudgetExceeded));
        assert_eq!(vc.last_regs()[0], 2);
    }

    #[test]
    fn every_builtin_matches_the_interpreter_over_a_context_grid() {
        // Map entries every builtin reads on some path: a port owner
        // (uid 1001 + 1 on 5432), a token rate and burst, classes for
        // uid 1001 and DSCP 46, a flow meter threshold.
        let config = [(0, 2), (1, 1500), (46, 3), (1001 & 255, 1002), (5432, 1002)];
        let mut contexts = Vec::new();
        for (i, &uid) in [1001u32, 7, u32::MAX].iter().enumerate() {
            for port in [80u16, 5432] {
                for egress in [false, true] {
                    for (len, dscp) in [(64u64, 0u8), (1500, 46)] {
                        contexts.push(PktCtx {
                            flow_key: u128::from(port) << 16 | i as u128,
                            pkt_len: len,
                            proto: 17,
                            src_port: port ^ 1,
                            dst_port: port,
                            uid,
                            pid: uid.wrapping_add(1),
                            now_ns: contexts.len() as u64 * 700,
                            dscp,
                            is_arp: dscp == 0 && egress,
                            egress,
                            mark: len,
                            ..PktCtx::default()
                        });
                    }
                }
            }
        }
        for p in crate::builtins::all() {
            let (mut vi, mut vc) = engines(&p);
            for (m, spec) in p.maps.iter().enumerate() {
                for (k, v) in config.into_iter().filter(|&(k, _)| k < spec.size) {
                    assert!(vi.map_set(m, k, v) && vc.map_set(m, k, v));
                }
            }
            for ctx in &contexts {
                lockstep(&mut vi, &mut vc, ctx).expect("builtins do not fault");
            }
        }
    }
}
