//! The load-time program verifier.
//!
//! Like the eBPF verifier, this runs when the kernel control plane loads a
//! policy onto the NIC, and rejects any program that could wedge or
//! corrupt the dataplane:
//!
//! 1. **Bounded execution** — all jumps are strictly forward, so a program
//!    of `n` instructions executes at most `n` cycles.
//! 2. **No falling off the end** — straight-line flow must not run past
//!    the last instruction; every path ends in `ret`/`retr`.
//! 3. **Initialized registers** — a register must be definitely assigned
//!    on every path before it is read (computed by forward dataflow over
//!    the jump DAG).
//! 4. **Declared maps only** — map instructions must reference declared
//!    maps; map sizes must be nonzero and within the SRAM entry budget.
//! 5. **Size limits** — at most [`MAX_INSNS`](`crate::program::MAX_INSNS`)
//!    instructions.

use std::fmt;

use crate::isa::{Insn, Operand, Reg};
use crate::program::{
    Program, MAX_COUNTERS, MAX_FLOW_MAP_FLOWS, MAX_FLOW_MAP_SLOTS, MAX_INSNS, MAX_MAP_ENTRIES,
    MAX_TAILS,
};

/// Why a program was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    Empty,
    /// The program exceeds the instruction store.
    TooLong {
        /// Instruction count.
        len: usize,
    },
    /// A jump at `pc` targets `target`, which is not strictly forward or
    /// is out of bounds.
    BadJump {
        /// Offending instruction index.
        pc: usize,
        /// Jump target.
        target: usize,
    },
    /// Straight-line flow can run past the final instruction.
    FallsOffEnd {
        /// Index of the non-terminal final instruction.
        pc: usize,
    },
    /// A register is read before being assigned on some path.
    UninitRead {
        /// Offending instruction index.
        pc: usize,
        /// The register read.
        reg: Reg,
    },
    /// A map instruction references an undeclared map.
    UndeclaredMap {
        /// Offending instruction index.
        pc: usize,
        /// The referenced map index.
        map: usize,
    },
    /// A declared map has zero entries.
    EmptyMap {
        /// Map index.
        map: usize,
    },
    /// Declared maps exceed the SRAM entry budget.
    MapsTooLarge {
        /// Total entries declared.
        entries: usize,
    },
    /// A tail-call targets a missing tail body, or (from within a tail)
    /// a body that is not strictly later — the monotonicity that bounds
    /// every chain structurally.
    BadTailCall {
        /// Offending instruction index.
        pc: usize,
        /// The referenced tail index.
        tail: usize,
    },
    /// A flow-map instruction references an undeclared flow map.
    UndeclaredFlowMap {
        /// Offending instruction index.
        pc: usize,
        /// The referenced flow-map index.
        map: usize,
    },
    /// A declared flow map has zero slots/flows or exceeds its caps.
    BadFlowMapDecl {
        /// Flow-map index.
        map: usize,
    },
    /// An immediate slot index is statically outside the flow record.
    FlowSlotOutOfBounds {
        /// Offending instruction index.
        pc: usize,
        /// The out-of-range slot.
        slot: u64,
    },
    /// A counter instruction references an undeclared counter.
    UndeclaredCounter {
        /// Offending instruction index.
        pc: usize,
        /// The referenced counter index.
        counter: usize,
    },
    /// Too many counters or tail bodies declared.
    TooManyDecls {
        /// Which declaration list overflowed.
        what: &'static str,
        /// How many were declared.
        n: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::TooLong { len } => {
                write!(f, "program of {len} instructions exceeds {MAX_INSNS}")
            }
            VerifyError::BadJump { pc, target } => {
                write!(
                    f,
                    "insn {pc}: jump to {target} is not strictly forward/in bounds"
                )
            }
            VerifyError::FallsOffEnd { pc } => {
                write!(f, "insn {pc}: control flow can fall off the end")
            }
            VerifyError::UninitRead { pc, reg } => {
                write!(f, "insn {pc}: read of uninitialized {reg}")
            }
            VerifyError::UndeclaredMap { pc, map } => {
                write!(f, "insn {pc}: reference to undeclared map {map}")
            }
            VerifyError::EmptyMap { map } => write!(f, "map {map} has zero entries"),
            VerifyError::MapsTooLarge { entries } => {
                write!(
                    f,
                    "maps declare {entries} entries, budget is {MAX_MAP_ENTRIES}"
                )
            }
            VerifyError::BadTailCall { pc, tail } => {
                write!(
                    f,
                    "insn {pc}: tail-call to {tail} is missing or not strictly forward"
                )
            }
            VerifyError::UndeclaredFlowMap { pc, map } => {
                write!(f, "insn {pc}: reference to undeclared flow map {map}")
            }
            VerifyError::BadFlowMapDecl { map } => {
                write!(
                    f,
                    "flow map {map} outside 1..={MAX_FLOW_MAP_SLOTS} slots x 1..={MAX_FLOW_MAP_FLOWS} flows"
                )
            }
            VerifyError::FlowSlotOutOfBounds { pc, slot } => {
                write!(f, "insn {pc}: flow slot {slot} outside the declared record")
            }
            VerifyError::UndeclaredCounter { pc, counter } => {
                write!(f, "insn {pc}: reference to undeclared counter {counter}")
            }
            VerifyError::TooManyDecls { what, n } => {
                write!(f, "{n} {what} declared, over the program limit")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

type RegSet = u16; // bit i = register i definitely initialized

fn operand_reg(o: &Operand) -> Option<Reg> {
    match o {
        Operand::Reg(r) => Some(*r),
        Operand::Imm(_) => None,
    }
}

fn reads_of(insn: &Insn) -> Vec<Reg> {
    let mut out = Vec::new();
    match insn {
        Insn::LdImm { .. } | Insn::LdCtx { .. } | Insn::Jmp { .. } | Insn::Ret { .. } => {}
        Insn::Mov { src, .. } => out.extend(operand_reg(src)),
        Insn::Alu { dst, src, .. } => {
            out.push(*dst);
            out.extend(operand_reg(src));
        }
        Insn::JmpIf { lhs, rhs, .. } => {
            out.push(*lhs);
            out.extend(operand_reg(rhs));
        }
        Insn::MapLoad { key, .. } => out.push(*key),
        Insn::MapStore { key, src, .. } | Insn::MapAdd { key, src, .. } => {
            out.push(*key);
            out.push(*src);
        }
        Insn::FlowLoad { slot, .. } => out.extend(operand_reg(slot)),
        Insn::FlowStore { slot, src, .. } | Insn::FlowAdd { slot, src, .. } => {
            out.extend(operand_reg(slot));
            out.push(*src);
        }
        Insn::CntAdd { src, .. } => out.extend(operand_reg(src)),
        Insn::TailCall { .. } => {}
        Insn::SetMark { src } => out.push(*src),
        Insn::RetReg { src } => out.push(*src),
    }
    out
}

fn write_of(insn: &Insn) -> Option<Reg> {
    match insn {
        Insn::LdImm { dst, .. }
        | Insn::LdCtx { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::MapLoad { dst, .. }
        | Insn::FlowLoad { dst, .. } => Some(*dst),
        _ => None,
    }
}

fn is_terminal(insn: &Insn) -> bool {
    // A tail-call never returns to this body, so it terminates the body's
    // control flow just like `ret` (the tail itself is verified to
    // terminate, and chains are bounded by tail-index monotonicity).
    matches!(
        insn,
        Insn::Ret { .. } | Insn::RetReg { .. } | Insn::TailCall { .. }
    )
}

/// Verifies one body (the main stream or a tail). `min_tail` is the
/// lowest tail index this body may call into: 0 from the main body,
/// `i + 1` from tail `i` — the monotonicity that bounds every chain.
fn verify_body(program: &Program, insns: &[Insn], min_tail: usize) -> Result<(), VerifyError> {
    let n = insns.len();
    if n == 0 {
        return Err(VerifyError::Empty);
    }

    // Structural checks per instruction.
    for (pc, insn) in insns.iter().enumerate() {
        match insn {
            Insn::Jmp { target } | Insn::JmpIf { target, .. }
                if (*target <= pc || *target >= n) =>
            {
                return Err(VerifyError::BadJump {
                    pc,
                    target: *target,
                });
            }
            Insn::MapLoad { map, .. } | Insn::MapStore { map, .. } | Insn::MapAdd { map, .. }
                if *map >= program.maps.len() =>
            {
                return Err(VerifyError::UndeclaredMap { pc, map: *map });
            }
            Insn::FlowLoad { map, slot, .. }
            | Insn::FlowStore { map, slot, .. }
            | Insn::FlowAdd { map, slot, .. } => {
                let Some(spec) = program.flow_maps.get(*map) else {
                    return Err(VerifyError::UndeclaredFlowMap { pc, map: *map });
                };
                // Immediate slots are checked statically; register slots
                // are bounds-checked at runtime.
                if let Operand::Imm(s) = slot {
                    if *s >= spec.slots as u64 {
                        return Err(VerifyError::FlowSlotOutOfBounds { pc, slot: *s });
                    }
                }
            }
            Insn::CntAdd { counter, .. } if *counter >= program.counters.len() => {
                return Err(VerifyError::UndeclaredCounter {
                    pc,
                    counter: *counter,
                });
            }
            Insn::TailCall { tail } if (*tail < min_tail || *tail >= program.tails.len()) => {
                return Err(VerifyError::BadTailCall { pc, tail: *tail });
            }
            _ => {}
        }
    }

    // Fall-through: the last instruction must be terminal or an
    // unconditional jump is impossible (jumps are forward-only, so the
    // last instruction cannot jump). Additionally, straight-line flow into
    // the end from a non-terminal predecessor is caught here.
    let last = &insns[n - 1];
    if !is_terminal(last) {
        return Err(VerifyError::FallsOffEnd { pc: n - 1 });
    }

    // Definite-initialization dataflow. Because jumps are forward-only the
    // program order is a topological order: one pass suffices.
    // `init[pc]` = registers definitely initialized on entry to pc.
    // None = not yet known reachable.
    //
    // Each body starts with nothing initialized. At runtime registers
    // carry across a tail-call, but the verifier deliberately treats a
    // tail entry as uninitialized: a tail is admitted only if it is safe
    // from *any* caller, so bodies verify independently.
    let mut init: Vec<Option<RegSet>> = vec![None; n];
    init[0] = Some(0);
    for pc in 0..n {
        let Some(in_set) = init[pc] else {
            continue; // unreachable instruction: vacuously fine
        };
        let insn = &insns[pc];
        for r in reads_of(insn) {
            if in_set & (1 << r.0) == 0 {
                return Err(VerifyError::UninitRead { pc, reg: r });
            }
        }
        let mut out_set = in_set;
        if let Some(r) = write_of(insn) {
            out_set |= 1 << r.0;
        }
        let mut merge = |idx: usize, set: RegSet| {
            init[idx] = Some(match init[idx] {
                // Definite init = intersection over predecessors.
                Some(prev) => prev & set,
                None => set,
            });
        };
        match insn {
            Insn::Ret { .. } | Insn::RetReg { .. } | Insn::TailCall { .. } => {}
            Insn::Jmp { target } => merge(*target, out_set),
            Insn::JmpIf { target, .. } => {
                merge(*target, out_set);
                merge(pc + 1, out_set);
            }
            _ => {
                if pc + 1 >= n {
                    // Non-terminal last instruction already rejected above,
                    // but guard against logic drift.
                    return Err(VerifyError::FallsOffEnd { pc });
                }
                merge(pc + 1, out_set);
            }
        }
    }

    Ok(())
}

/// Verifies `program`, returning the worst-case cycle count on success.
/// With forward-only jumps and strictly-forward tail-calls that is the
/// total instruction count across the main body and every tail.
pub fn verify(program: &Program) -> Result<usize, VerifyError> {
    if program.insns.is_empty() {
        return Err(VerifyError::Empty);
    }
    let total = program.total_insns();
    if total > MAX_INSNS {
        return Err(VerifyError::TooLong { len: total });
    }

    // Map declarations. Flow maps pre-provision `slots * max_flows`
    // entries, charged against the same SRAM entry budget. Saturating:
    // declared sizes are untrusted, and a sum that wrapped would pass.
    let flow_entries = program
        .flow_maps
        .iter()
        .map(|fm| fm.slots.saturating_mul(fm.max_flows));
    let map_entries = program.maps.iter().map(|m| m.size);
    let total_entries = map_entries
        .chain(flow_entries)
        .fold(0, usize::saturating_add);
    if total_entries > MAX_MAP_ENTRIES {
        return Err(VerifyError::MapsTooLarge {
            entries: total_entries,
        });
    }
    for (i, m) in program.maps.iter().enumerate() {
        if m.size == 0 {
            return Err(VerifyError::EmptyMap { map: i });
        }
    }
    for (i, fm) in program.flow_maps.iter().enumerate() {
        if !(1..=MAX_FLOW_MAP_SLOTS).contains(&fm.slots)
            || !(1..=MAX_FLOW_MAP_FLOWS).contains(&fm.max_flows)
        {
            return Err(VerifyError::BadFlowMapDecl { map: i });
        }
    }
    if program.counters.len() > MAX_COUNTERS {
        return Err(VerifyError::TooManyDecls {
            what: "counters",
            n: program.counters.len(),
        });
    }
    if program.tails.len() > MAX_TAILS {
        return Err(VerifyError::TooManyDecls {
            what: "tails",
            n: program.tails.len(),
        });
    }

    verify_body(program, &program.insns, 0)?;
    for (i, tail) in program.tails.iter().enumerate() {
        verify_body(program, &tail.insns, i + 1)?;
    }

    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, CmpOp, CtxField, Verdict};
    use crate::program::{FlowMapSpec, MapSpec};

    fn prog(insns: Vec<Insn>) -> Program {
        Program::new("t", insns, vec![])
    }

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn minimal_program_verifies() {
        let p = prog(vec![Insn::Ret {
            verdict: Verdict::Pass,
        }]);
        assert_eq!(verify(&p), Ok(1));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(verify(&prog(vec![])), Err(VerifyError::Empty));
    }

    #[test]
    fn backward_jump_rejected() {
        let p = prog(vec![
            Insn::LdImm { dst: r(0), imm: 1 },
            Insn::Jmp { target: 0 },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(verify(&p), Err(VerifyError::BadJump { pc: 1, target: 0 }));
    }

    #[test]
    fn self_jump_rejected() {
        let p = prog(vec![
            Insn::Jmp { target: 0 },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(verify(&p), Err(VerifyError::BadJump { pc: 0, target: 0 }));
    }

    #[test]
    fn out_of_bounds_jump_rejected() {
        let p = prog(vec![
            Insn::Jmp { target: 5 },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(verify(&p), Err(VerifyError::BadJump { pc: 0, target: 5 }));
    }

    #[test]
    fn fall_off_end_rejected() {
        let p = prog(vec![Insn::LdImm { dst: r(0), imm: 1 }]);
        assert_eq!(verify(&p), Err(VerifyError::FallsOffEnd { pc: 0 }));
    }

    #[test]
    fn uninitialized_read_rejected() {
        let p = prog(vec![
            Insn::Alu {
                op: AluOp::Add,
                dst: r(1),
                src: Operand::Imm(1),
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(
            verify(&p),
            Err(VerifyError::UninitRead { pc: 0, reg: r(1) })
        );
    }

    #[test]
    fn init_on_only_one_branch_rejected() {
        // r1 is set only when the branch is taken; the join reads it.
        let p = prog(vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::DstPort,
            },
            Insn::JmpIf {
                cmp: CmpOp::Eq,
                lhs: r(0),
                rhs: Operand::Imm(22),
                target: 3,
            },
            Insn::LdImm { dst: r(1), imm: 7 },
            // Join point: r1 initialized only on the fall-through path.
            Insn::RetReg { src: r(1) },
        ]);
        assert_eq!(
            verify(&p),
            Err(VerifyError::UninitRead { pc: 3, reg: r(1) })
        );
    }

    #[test]
    fn init_on_both_branches_accepted() {
        let p = prog(vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::DstPort,
            },
            Insn::JmpIf {
                cmp: CmpOp::Eq,
                lhs: r(0),
                rhs: Operand::Imm(22),
                target: 4,
            },
            Insn::LdImm { dst: r(1), imm: 0 },
            Insn::Jmp { target: 5 },
            Insn::LdImm { dst: r(1), imm: 1 },
            Insn::RetReg { src: r(1) },
        ]);
        assert!(verify(&p).is_ok());
    }

    #[test]
    fn undeclared_map_rejected() {
        let p = prog(vec![
            Insn::LdImm { dst: r(0), imm: 0 },
            Insn::MapLoad {
                dst: r(1),
                map: 0,
                key: r(0),
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(
            verify(&p),
            Err(VerifyError::UndeclaredMap { pc: 1, map: 0 })
        );
    }

    #[test]
    fn declared_map_accepted() {
        let p = Program::new(
            "m",
            vec![
                Insn::LdImm { dst: r(0), imm: 0 },
                Insn::MapLoad {
                    dst: r(1),
                    map: 0,
                    key: r(0),
                },
                Insn::Ret {
                    verdict: Verdict::Pass,
                },
            ],
            vec![MapSpec::new("counts", 16)],
        );
        assert_eq!(verify(&p), Ok(3));
    }

    #[test]
    fn zero_size_map_rejected() {
        let p = Program::new(
            "m",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("bad", 0)],
        );
        assert_eq!(verify(&p), Err(VerifyError::EmptyMap { map: 0 }));
    }

    #[test]
    fn oversized_maps_rejected() {
        let p = Program::new(
            "m",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("huge", MAX_MAP_ENTRIES + 1)],
        );
        assert!(matches!(verify(&p), Err(VerifyError::MapsTooLarge { .. })));
    }

    #[test]
    fn map_sizes_whose_sum_would_wrap_are_rejected() {
        // `usize::MAX + 2` entries wrap to 1: a plain sum would pass it.
        let p = Program::new(
            "m",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("a", usize::MAX), MapSpec::new("b", 2)],
        )
        .with_flow_map(FlowMapSpec::new("f", 16, usize::MAX));
        assert_eq!(
            verify(&p),
            Err(VerifyError::MapsTooLarge {
                entries: usize::MAX
            })
        );
        assert_eq!(p.sram_bytes(), u64::MAX);
    }

    #[test]
    fn too_long_program_rejected() {
        let mut insns = vec![Insn::LdImm { dst: r(0), imm: 0 }; MAX_INSNS];
        insns.push(Insn::Ret {
            verdict: Verdict::Pass,
        });
        assert!(matches!(
            verify(&prog(insns)),
            Err(VerifyError::TooLong { .. })
        ));
    }

    #[test]
    fn unreachable_code_is_tolerated() {
        let p = prog(vec![
            Insn::Ret {
                verdict: Verdict::Drop,
            },
            // Unreachable, but must not crash the verifier — and may read
            // "uninitialized" registers vacuously.
            Insn::RetReg { src: r(5) },
        ]);
        assert!(verify(&p).is_ok());
    }

    #[test]
    fn worst_case_cycles_equal_length() {
        let p = prog(vec![
            Insn::LdImm { dst: r(0), imm: 1 },
            Insn::LdImm { dst: r(1), imm: 2 },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ]);
        assert_eq!(verify(&p), Ok(3));
    }

    #[test]
    fn error_display() {
        let e = VerifyError::UninitRead { pc: 3, reg: r(2) };
        assert!(e.to_string().contains("r2"));
        assert!(VerifyError::Empty.to_string().contains("empty"));
    }
}
