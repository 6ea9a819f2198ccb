//! Ahead-of-time compilation of verified overlay programs into native
//! closures (threaded code).
//!
//! The interpreter in [`crate::vm`] charges one dispatch per instruction;
//! for policy-bearing scenarios that fetch/decode loop is the dominant
//! per-packet cost. This module lowers a verified [`Program`] into a
//! basic-block graph whose blocks are sequences of pre-bound Rust
//! closures over the shared [`VmState`](crate::vm) — no fetch, no decode,
//! and constant-only register chains are folded at compile time into a
//! single batched write.
//!
//! Parity contract: for any verified program and any packet context, the
//! compiled artifact must leave *bit-identical* machine state (registers,
//! mark, maps, flow maps, counters), the same verdict, the same modelled
//! cycle count, and the same fault behaviour as the interpreter. Cycle
//! accounting is therefore decoupled from the emitted closures: each
//! block carries the number of source instructions it covers, charged
//! wholesale, which is exactly what the interpreter would have charged
//! walking the same path. The differential fuzz suite
//! (`tests/overlay_diff.rs`) and the `overlay-diff` CI job enforce the
//! contract continuously.
//!
//! Compilation can fail on programs that verify — the artifact store is
//! smaller than the interpreter's program store (see
//! [`MAX_COMPILED_INSNS`]) — so the control plane treats
//! [`CompileError`] as a phase-1 commit failure and keeps the prior
//! bundle installed: the NIC runs compiled artifacts only.

use std::collections::BTreeSet;
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

/// Register indices in compiled steps come from `Reg` values the
/// verifier has already range-checked; masking to the (power-of-two)
/// register count makes that obvious to the optimizer and erases the
/// bounds-check branches from the hot loop.
const REG_MASK: usize = NUM_REGS as usize - 1;

/// A pre-resolved operand: either a compile-time constant or a runtime
/// register read.
#[derive(Clone, Copy, Debug)]
enum Val {
    Const(u64),
    Reg(usize),
}

impl Val {
    #[inline(always)]
    fn get(self, st: &VmState) -> u64 {
        match self {
            Val::Const(v) => v,
            Val::Reg(r) => st.regs[r & REG_MASK],
        }
    }
}

/// One emitted unit of work. Steps mutate [`VmState`] exactly as the
/// interpreter would at the same program point.
type Step = Box<dyn Fn(&mut VmState, &PktCtx) -> Result<(), VmError>>;

/// One fused straight-line micro-operation: the simple, non-faulting
/// register/context/mark moves that dominate real programs. Runs of
/// these execute inside a *single* boxed closure (threaded code), so the
/// per-op cost is a compact match dispatch instead of an indirect call —
/// the difference between beating the interpreter by 2× and by 4×.
#[derive(Clone, Copy, Debug)]
enum MicroOp {
    /// Materialize a folded constant into the register file.
    SetConst { dst: usize, v: u64 },
    /// `dst = ctx.field` (any field except the mutable mark).
    CtxRead { dst: usize, field: CtxField },
    /// `dst = mark` (the mark is register-file state, not ctx).
    ReadMark { dst: usize },
    /// `dst = src` register move.
    Mov { dst: usize, src: usize },
    /// `dst = op(dst, const)` — the dominant ALU shape; operands fully
    /// pre-resolved so execution is a single match + arithmetic op.
    AluRC { op: AluOp, dst: usize, b: u64 },
    /// `dst = op(dst, src)` register-register.
    AluRR { op: AluOp, dst: usize, src: usize },
    /// `dst = op(a, b)` general form (left operand folded to a constant).
    Alu {
        op: AluOp,
        dst: usize,
        a: Val,
        b: Val,
    },
    /// `mark = v`.
    SetMark { v: Val },
}

impl MicroOp {
    #[inline(always)]
    fn exec(self, st: &mut VmState, ctx: &PktCtx) {
        match self {
            MicroOp::SetConst { dst, v } => st.regs[dst & REG_MASK] = v,
            MicroOp::CtxRead { dst, field } => st.regs[dst & REG_MASK] = ctx.read(field),
            MicroOp::ReadMark { dst } => st.regs[dst & REG_MASK] = st.mark,
            MicroOp::Mov { dst, src } => st.regs[dst & REG_MASK] = st.regs[src & REG_MASK],
            MicroOp::AluRC { op, dst, b } => {
                let d = dst & REG_MASK;
                st.regs[d] = op.eval(st.regs[d], b);
            }
            MicroOp::AluRR { op, dst, src } => {
                let d = dst & REG_MASK;
                st.regs[d] = op.eval(st.regs[d], st.regs[src & REG_MASK]);
            }
            MicroOp::Alu { op, dst, a, b } => {
                st.regs[dst & REG_MASK] = op.eval(a.get(st), b.get(st))
            }
            MicroOp::SetMark { v } => st.mark = v.get(st),
        }
    }
}

/// Step builder for one block: buffers consecutive micro-ops and fuses
/// each run into one closure; faultable operations (map/flow/counter
/// accesses) stay as standalone steps so their `Result` plumbing — and
/// the interpreter-identical fault ordering — is preserved.
struct Emitter {
    steps: Vec<Step>,
    buf: Vec<MicroOp>,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            steps: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Queues a simple op for fusion.
    fn micro(&mut self, m: MicroOp) {
        self.buf.push(m);
    }

    /// Fuses the queued run, if any, into one step.
    fn fuse(&mut self) {
        match self.buf.len() {
            0 => {}
            1 => {
                let m = self.buf.pop().expect("len checked");
                self.steps.push(Box::new(move |st, ctx| {
                    m.exec(st, ctx);
                    Ok(())
                }));
            }
            _ => {
                let ops: Box<[MicroOp]> = std::mem::take(&mut self.buf).into_boxed_slice();
                self.steps.push(Box::new(move |st, ctx| {
                    for op in ops.iter().copied() {
                        op.exec(st, ctx);
                    }
                    Ok(())
                }));
            }
        }
    }

    /// Emits a faultable/complex step, fusing any queued run first so
    /// execution order matches the source program exactly.
    fn step(&mut self, s: Step) {
        self.fuse();
        self.steps.push(s);
    }

    fn finish(mut self) -> Vec<Step> {
        self.fuse();
        self.steps
    }
}

/// How a block ends. Real control transfers cost one interpreter cycle
/// (already folded into the block's `cycles`); a synthetic fallthrough
/// `Goto` costs nothing.
enum Term {
    Goto(usize),
    Branch {
        cmp: CmpOp,
        lhs: Val,
        rhs: Val,
        then_blk: usize,
        else_blk: usize,
    },
    Ret(Verdict),
    RetReg(Val),
    Tail(usize),
}

struct Block {
    steps: Vec<Step>,
    /// Source instructions this block covers — charged wholesale, which
    /// matches the interpreter's per-insn accounting along the same path
    /// even when constant folding elided the closures.
    cycles: u64,
    term: Term,
}

/// A compiled overlay program: the native-closure artifact the control
/// plane swaps in at commit time. Stamped with the source program's
/// fingerprint so audits reconcile compiled NIC state against the policy
/// store byte-for-byte, exactly as they do interpreted programs.
pub struct CompiledProgram {
    name: String,
    fingerprint: u64,
    blocks: Vec<Block>,
    /// Entry block per body (0 = main, i+1 = tail i).
    body_entry: Vec<usize>,
    /// Defensive cycle budget (`total_insns + 1`), same as the
    /// interpreter's.
    budget: u64,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .field("blocks", &self.blocks.len())
            .field("budget", &self.budget)
            .finish()
    }
}

impl CompiledProgram {
    /// The source program's name.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The source program's fingerprint — the artifact's identity for
    /// audit/restore reconciliation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of basic blocks in the artifact.
    #[cfg(test)]
    pub(crate) fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Executes over `ctx`. The caller (`Vm::run`) has already reset the
    /// register file and seeded the mark.
    pub(crate) fn exec(&self, st: &mut VmState, ctx: &PktCtx) -> Result<Execution, VmError> {
        let mut blk = self.body_entry[0];
        let mut cycles = 0u64;
        loop {
            let b = &self.blocks[blk];
            for step in &b.steps {
                step(st, ctx)?;
            }
            cycles += b.cycles;
            if cycles > self.budget {
                // Unreachable for verified programs (forward-only jumps,
                // monotone tails); kept as defense in depth.
                return Err(VmError::CycleBudgetExceeded);
            }
            match b.term {
                Term::Goto(t) => blk = t,
                Term::Branch {
                    cmp,
                    lhs,
                    rhs,
                    then_blk,
                    else_blk,
                } => {
                    blk = if cmp.eval(lhs.get(st), rhs.get(st)) {
                        then_blk
                    } else {
                        else_blk
                    };
                }
                Term::Ret(verdict) => {
                    return Ok(Execution {
                        verdict,
                        cycles,
                        mark: st.mark,
                    })
                }
                Term::RetReg(v) => {
                    return Ok(Execution {
                        verdict: Verdict::decode(v.get(st)),
                        cycles,
                        mark: st.mark,
                    })
                }
                Term::Tail(body) => blk = self.body_entry[body],
            }
        }
    }
}

/// Per-block compile state: which registers currently hold compile-time
/// constants that have *not* been materialized into the runtime register
/// file yet. Tracking is strictly intra-block (blocks can be entered
/// from multiple predecessors), and every pending constant is flushed in
/// one batched write before the block ends — and before any faultable
/// step — so successor blocks, fault sites, and the final register file
/// always observe interpreter-identical values.
struct ConstTracker {
    known: [Option<u64>; NUM_REGS as usize],
}

impl ConstTracker {
    fn new() -> ConstTracker {
        ConstTracker {
            known: [None; NUM_REGS as usize],
        }
    }

    fn operand(&self, op: Operand) -> Val {
        match op {
            Operand::Imm(v) => Val::Const(v),
            Operand::Reg(r) => self.reg(r),
        }
    }

    fn reg(&self, r: Reg) -> Val {
        match self.known[r.0 as usize] {
            Some(v) => Val::Const(v),
            None => Val::Reg(r.0 as usize),
        }
    }

    /// The register was written at runtime by an emitted step.
    fn clobber(&mut self, r: Reg) {
        self.known[r.0 as usize] = None;
    }

    /// Queues constant-materialization micro-ops for every pending
    /// constant; the emitter fuses them with the surrounding run.
    fn flush(&mut self, em: &mut Emitter) {
        for (r, k) in self.known.iter().enumerate() {
            if let Some(v) = *k {
                em.micro(MicroOp::SetConst { dst: r, v });
            }
        }
        self.known = [None; NUM_REGS as usize];
    }
}

/// Compiles a verified program into a native-closure artifact.
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

    // Pass 1: block layout. Leaders are pc 0, every jump target, and the
    // instruction after any control transfer.
    let mut body_entry = Vec::with_capacity(bodies.len());
    // Per body: sorted leader pcs and the global index of each leader's block.
    let mut layouts: Vec<Vec<(usize, usize)>> = Vec::with_capacity(bodies.len());
    let mut next_blk = 0usize;
    for (bi, insns) in bodies.iter().enumerate() {
        if insns.is_empty() {
            return Err(CompileError::EmptyBody { body: bi });
        }
        let mut leaders = BTreeSet::new();
        leaders.insert(0usize);
        for (pc, insn) in insns.iter().enumerate() {
            match insn {
                Insn::Jmp { target } => {
                    if *target >= insns.len() {
                        return Err(CompileError::BadJumpTarget {
                            body: bi,
                            pc,
                            target: *target,
                        });
                    }
                    leaders.insert(*target);
                    if pc + 1 < insns.len() {
                        leaders.insert(pc + 1);
                    }
                }
                Insn::JmpIf { target, .. } => {
                    if *target >= insns.len() {
                        return Err(CompileError::BadJumpTarget {
                            body: bi,
                            pc,
                            target: *target,
                        });
                    }
                    leaders.insert(*target);
                    if pc + 1 < insns.len() {
                        leaders.insert(pc + 1);
                    }
                }
                Insn::Ret { .. } | Insn::RetReg { .. } if pc + 1 < insns.len() => {
                    leaders.insert(pc + 1);
                }
                Insn::TailCall { tail } => {
                    if *tail >= program.tails.len() {
                        return Err(CompileError::BadTailTarget {
                            body: bi,
                            pc,
                            tail: *tail,
                        });
                    }
                    if pc + 1 < insns.len() {
                        leaders.insert(pc + 1);
                    }
                }
                _ => {}
            }
        }
        let layout: Vec<(usize, usize)> = leaders
            .into_iter()
            .enumerate()
            .map(|(i, pc)| (pc, next_blk + i))
            .collect();
        body_entry.push(next_blk);
        next_blk += layout.len();
        layouts.push(layout);
    }

    // Pass 2: emit each block's steps and terminator.
    let mut blocks = Vec::with_capacity(next_blk);
    for (bi, insns) in bodies.iter().enumerate() {
        let layout = &layouts[bi];
        let blk_of = |pc: usize| -> usize {
            // Jump targets are always leaders by construction of pass 1.
            layout[layout.partition_point(|&(start, _)| start <= pc) - 1].1
        };
        for (li, &(start, _)) in layout.iter().enumerate() {
            let end = layout.get(li + 1).map(|&(pc, _)| pc).unwrap_or(insns.len());
            blocks.push(emit_block(&insns[start..end], end, insns.len(), &blk_of));
        }
    }

    Ok(Rc::new(CompiledProgram {
        name: program.name.clone(),
        fingerprint: program.fingerprint(),
        blocks,
        body_entry,
        budget: total as u64 + 1,
    }))
}

/// Lowers one basic block. `end` is the body-local pc just past the
/// block; `body_len` the body's length; `blk_of` maps body-local pcs to
/// global block indices.
fn emit_block(
    insns: &[Insn],
    end: usize,
    body_len: usize,
    blk_of: &dyn Fn(usize) -> usize,
) -> Block {
    let mut em = Emitter::new();
    let mut consts = ConstTracker::new();
    let cycles = insns.len() as u64;

    let (tail_insns, last) = match insns.last() {
        Some(
            i @ (Insn::Jmp { .. }
            | Insn::JmpIf { .. }
            | Insn::Ret { .. }
            | Insn::RetReg { .. }
            | Insn::TailCall { .. }),
        ) => (&insns[..insns.len() - 1], Some(*i)),
        _ => (insns, None),
    };

    for insn in tail_insns {
        emit_step(*insn, &mut em, &mut consts);
    }

    // Every pending constant materializes before control leaves the
    // block, so the runtime register file is interpreter-identical at
    // block boundaries and at return. Terminator operands resolved
    // *before* the flush still see the constants (baked in), so order is
    // immaterial to them.
    let term = match last {
        Some(Insn::Jmp { target }) => {
            consts.flush(&mut em);
            Term::Goto(blk_of(target))
        }
        Some(Insn::JmpIf {
            cmp,
            lhs,
            rhs,
            target,
        }) => {
            let l = consts.reg(lhs);
            let r = consts.operand(rhs);
            consts.flush(&mut em);
            let then_blk = blk_of(target);
            let else_blk = blk_of(end); // `end < body_len` for verified code
            match (l, r) {
                (Val::Const(a), Val::Const(b)) => {
                    // Branch direction is compile-time constant.
                    Term::Goto(if cmp.eval(a, b) { then_blk } else { else_blk })
                }
                _ => Term::Branch {
                    cmp,
                    lhs: l,
                    rhs: r,
                    then_blk,
                    else_blk,
                },
            }
        }
        Some(Insn::Ret { verdict }) => {
            consts.flush(&mut em);
            Term::Ret(verdict)
        }
        Some(Insn::RetReg { src }) => {
            let v = consts.reg(src);
            consts.flush(&mut em);
            match v {
                Val::Const(c) => Term::Ret(Verdict::decode(c)),
                v => Term::RetReg(v),
            }
        }
        Some(Insn::TailCall { tail }) => {
            consts.flush(&mut em);
            Term::Tail(tail + 1)
        }
        Some(_) | None => {
            consts.flush(&mut em);
            if end < body_len {
                Term::Goto(blk_of(end))
            } else {
                // A verified program cannot fall off a body's end; model
                // the interpreter's fault for unverified input.
                let pc_fault: Step = Box::new(|_, _| Err(VmError::PcOutOfBounds));
                em.step(pc_fault);
                Term::Ret(Verdict::Drop)
            }
        }
    };

    Block {
        steps: em.finish(),
        cycles,
        term,
    }
}

/// Lowers one non-control instruction into at most one step, folding
/// constant-only register arithmetic into the tracker instead.
fn emit_step(insn: Insn, em: &mut Emitter, consts: &mut ConstTracker) {
    match insn {
        Insn::LdImm { dst, imm } => {
            consts.known[dst.0 as usize] = Some(imm);
        }
        Insn::LdCtx { dst, field } => {
            let d = dst.0 as usize;
            if field == CtxField::Mark {
                em.micro(MicroOp::ReadMark { dst: d });
            } else {
                em.micro(MicroOp::CtxRead { dst: d, field });
            }
            consts.clobber(dst);
        }
        Insn::Mov { dst, src } => match consts.operand(src) {
            Val::Const(v) => consts.known[dst.0 as usize] = Some(v),
            Val::Reg(r) => {
                em.micro(MicroOp::Mov {
                    dst: dst.0 as usize,
                    src: r,
                });
                consts.clobber(dst);
            }
        },
        Insn::Alu { op, dst, src } => {
            let a = consts.reg(dst);
            let b = consts.operand(src);
            match (a, b) {
                (Val::Const(x), Val::Const(y)) => {
                    consts.known[dst.0 as usize] = Some(op.eval(x, y));
                }
                _ => {
                    let d = dst.0 as usize;
                    em.micro(match (a, b) {
                        (Val::Reg(r), Val::Const(c)) if r == d => {
                            MicroOp::AluRC { op, dst: d, b: c }
                        }
                        (Val::Reg(r), Val::Reg(s)) if r == d => {
                            MicroOp::AluRR { op, dst: d, src: s }
                        }
                        _ => MicroOp::Alu { op, dst: d, a, b },
                    });
                    consts.clobber(dst);
                }
            }
        }
        Insn::MapLoad { dst, map, key } => {
            let d = dst.0 as usize;
            let k = consts.reg(key);
            // Faultable step: materialize pending constants first so a
            // runtime fault leaves an interpreter-identical register
            // file (the baked `Val::Const` operands stay valid — the
            // flush writes those very values).
            consts.flush(em);
            em.step(Box::new(move |st, _| {
                let kk = k.get(st);
                match st.maps.get(map).and_then(|m| m.get(kk as usize)) {
                    Some(&v) => {
                        st.regs[d] = v;
                        Ok(())
                    }
                    None => Err(VmError::MapKeyOutOfBounds { map, key: kk }),
                }
            }));
            consts.clobber(dst);
        }
        Insn::MapStore { map, key, src } => {
            let k = consts.reg(key);
            let v = consts.reg(src);
            consts.flush(em);
            em.step(Box::new(move |st, _| {
                let kk = k.get(st);
                let vv = v.get(st);
                match st.maps.get_mut(map).and_then(|m| m.get_mut(kk as usize)) {
                    Some(slot) => {
                        *slot = vv;
                        Ok(())
                    }
                    None => Err(VmError::MapKeyOutOfBounds { map, key: kk }),
                }
            }));
        }
        Insn::MapAdd { map, key, src } => {
            let k = consts.reg(key);
            let v = consts.reg(src);
            consts.flush(em);
            em.step(Box::new(move |st, _| {
                let kk = k.get(st);
                let vv = v.get(st);
                match st.maps.get_mut(map).and_then(|m| m.get_mut(kk as usize)) {
                    Some(slot) => {
                        *slot = slot.saturating_add(vv);
                        Ok(())
                    }
                    None => Err(VmError::MapKeyOutOfBounds { map, key: kk }),
                }
            }));
        }
        Insn::FlowLoad { dst, map, slot } => {
            let d = dst.0 as usize;
            let s = consts.operand(slot);
            consts.flush(em);
            em.step(Box::new(move |st, ctx| {
                let ss = s.get(st);
                match st.flows.get(map).and_then(|fm| fm.load(ctx.flow_key, ss)) {
                    Some(v) => {
                        st.regs[d] = v;
                        Ok(())
                    }
                    None => Err(VmError::FlowSlotOutOfBounds { map, slot: ss }),
                }
            }));
            consts.clobber(dst);
        }
        Insn::FlowStore { map, slot, src } | Insn::FlowAdd { map, slot, src } => {
            let add = matches!(insn, Insn::FlowAdd { .. });
            let s = consts.operand(slot);
            let v = consts.reg(src);
            consts.flush(em);
            em.step(Box::new(move |st, ctx| {
                let ss = s.get(st);
                let vv = v.get(st);
                match st
                    .flows
                    .get_mut(map)
                    .and_then(|fm| fm.write(ctx.flow_key, ss, vv, add))
                {
                    Some(()) => Ok(()),
                    None => Err(VmError::FlowSlotOutOfBounds { map, slot: ss }),
                }
            }));
        }
        Insn::CntAdd { counter, src } => {
            let v = consts.operand(src);
            consts.flush(em);
            em.step(Box::new(move |st, _| {
                let vv = v.get(st);
                match st.counters.get_mut(counter) {
                    Some(c) => {
                        *c = c.saturating_add(vv);
                        Ok(())
                    }
                    None => Err(VmError::CounterOutOfBounds { counter }),
                }
            }));
        }
        Insn::SetMark { src } => {
            let v = consts.reg(src);
            em.micro(MicroOp::SetMark { v });
        }
        // Control instructions are terminators, handled by `emit_block`.
        Insn::Jmp { .. }
        | Insn::JmpIf { .. }
        | Insn::Ret { .. }
        | Insn::RetReg { .. }
        | Insn::TailCall { .. } => unreachable!("control insn in block body"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AluOp;
    use crate::program::{FlowMapSpec, MapSpec};
    use crate::verify::verify;
    use crate::vm::Vm;

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    fn both(program: &Program, ctx: &PktCtx) -> (Vm, Vm) {
        verify(program).expect("test program must verify");
        let compiled = compile(program).expect("test program must compile");
        let mut vi = Vm::new(program.clone());
        let mut vc = Vm::with_compiled(program.clone(), compiled);
        let ei = vi.run_interp(ctx);
        let ec = vc.run(ctx);
        assert_eq!(ei, ec, "execution mismatch for '{}'", program.name);
        assert_eq!(vi.last_regs(), vc.last_regs(), "register file mismatch");
        assert_eq!(vi.map_state(), vc.map_state(), "map state mismatch");
        (vi, vc)
    }

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
        assert_eq!(vc.last_regs()[0], 9, "folded constant still materializes");
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
        assert_eq!(c.name(), "fp");
        assert!(c.block_count() >= 1);
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
        let compiled = compile(&p).unwrap();
        let ctx = PktCtx {
            dst_port: 999,
            ..PktCtx::default()
        };
        let mut vi = Vm::new(p.clone());
        let mut vc = Vm::with_compiled(p, compiled);
        assert_eq!(vi.run_interp(&ctx), vc.run(&ctx));
        assert_eq!(vi.faults, 1);
        assert_eq!(vc.faults, 1);
    }
}
