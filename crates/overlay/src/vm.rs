//! The overlay interpreter.
//!
//! Executes a verified [`Program`] against a packet context, charging one
//! overlay cycle per instruction. Map state persists in the [`Vm`] across
//! packets (counters, token buckets). The VM defends in depth: even
//! though the verifier guarantees termination and register hygiene, the
//! interpreter still bounds-checks everything and converts violations
//! into [`VmError`]s rather than panicking — a misbehaving program must
//! never take down the dataplane.

use crate::isa::{CtxField, Insn, Operand, Reg, Verdict, NUM_REGS};
use crate::program::Program;

/// The packet context visible to programs.
#[derive(Clone, Copy, Debug)]
pub struct PktCtx {
    /// The packed 128-bit flow key (`src_ip:dst_ip:src_port:dst_port:proto`
    /// in the flow table's exact-match encoding; 0 for tuple-less frames).
    /// Not register-addressable: flow-map instructions consume it whole.
    pub flow_key: u128,
    /// Frame length in bytes.
    pub pkt_len: u64,
    /// IP protocol (0 for non-IP).
    pub proto: u64,
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port (0 if none).
    pub src_port: u16,
    /// Destination port (0 if none).
    pub dst_port: u16,
    /// Owning uid (`u32::MAX` when the flow is not bound to a process).
    pub uid: u32,
    /// Owning pid (0 when unbound).
    pub pid: u32,
    /// RSS hash.
    pub flow_hash: u32,
    /// NIC flow-table connection id (`u64::MAX` when none).
    pub conn_id: u64,
    /// Current time in nanoseconds.
    pub now_ns: u64,
    /// EtherType.
    pub ethertype: u16,
    /// DSCP/ECN byte.
    pub dscp: u8,
    /// Whether the frame is ARP.
    pub is_arp: bool,
    /// Whether this is egress (transmit) processing.
    pub egress: bool,
    /// Packet mark (read-write).
    pub mark: u64,
}

impl Default for PktCtx {
    fn default() -> PktCtx {
        PktCtx {
            flow_key: 0,
            pkt_len: 64,
            proto: 0,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            uid: u32::MAX,
            pid: 0,
            flow_hash: 0,
            conn_id: u64::MAX,
            now_ns: 0,
            ethertype: 0,
            dscp: 0,
            is_arp: false,
            egress: false,
            mark: 0,
        }
    }
}

impl PktCtx {
    pub(crate) fn read(&self, field: CtxField) -> u64 {
        match field {
            CtxField::PktLen => self.pkt_len,
            CtxField::Proto => self.proto,
            CtxField::SrcIp => u64::from(self.src_ip),
            CtxField::DstIp => u64::from(self.dst_ip),
            CtxField::SrcPort => u64::from(self.src_port),
            CtxField::DstPort => u64::from(self.dst_port),
            CtxField::Uid => u64::from(self.uid),
            CtxField::Pid => u64::from(self.pid),
            CtxField::FlowHash => u64::from(self.flow_hash),
            CtxField::ConnId => self.conn_id,
            CtxField::NowNs => self.now_ns,
            CtxField::EtherType => u64::from(self.ethertype),
            CtxField::Dscp => u64::from(self.dscp),
            CtxField::IsArp => u64::from(self.is_arp),
            CtxField::Egress => u64::from(self.egress),
            CtxField::Mark => self.mark,
        }
    }
}

/// Runtime faults (all defensive; verified programs should not hit them
/// except [`VmError::MapKeyOutOfBounds`], which depends on data).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A map access with a key beyond the map's size.
    MapKeyOutOfBounds {
        /// The map index.
        map: usize,
        /// The offending key.
        key: u64,
    },
    /// A flow-map access with a slot beyond the per-flow record (or an
    /// undeclared flow map).
    FlowSlotOutOfBounds {
        /// The flow-map index.
        map: usize,
        /// The offending slot.
        slot: u64,
    },
    /// A counter instruction referenced an undeclared counter.
    CounterOutOfBounds {
        /// The counter index.
        counter: usize,
    },
    /// Execution exceeded the cycle budget (cannot happen for verified
    /// programs).
    CycleBudgetExceeded,
    /// Program counter escaped the instruction stream.
    PcOutOfBounds,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::MapKeyOutOfBounds { map, key } => {
                write!(f, "map {map} key {key} out of bounds")
            }
            VmError::FlowSlotOutOfBounds { map, slot } => {
                write!(f, "flow map {map} slot {slot} out of bounds")
            }
            VmError::CounterOutOfBounds { counter } => {
                write!(f, "counter {counter} out of bounds")
            }
            VmError::CycleBudgetExceeded => write!(f, "cycle budget exceeded"),
            VmError::PcOutOfBounds => write!(f, "pc out of bounds"),
        }
    }
}

impl std::error::Error for VmError {}

/// The result of running a program over one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Execution {
    /// The policy decision.
    pub verdict: Verdict,
    /// Cycles consumed.
    pub cycles: u64,
    /// The packet mark after execution (programs may set it).
    pub(crate) mark: u64,
}

/// A bounded per-flow scratch map instance: up to `max_flows` records of
/// `slots` `u64`s, keyed on the packed 128-bit flow key. A write when the
/// map is at flow capacity (and no record exists for the key) is dropped
/// deterministically and counted — bounded state, never an error.
#[derive(Clone, Debug)]
pub(crate) struct FlowMapState {
    slots: usize,
    max_flows: usize,
    entries: std::collections::HashMap<u128, Vec<u64>>,
    /// Writes dropped because the map was at flow capacity.
    pub(crate) overflow_drops: u64,
}

impl FlowMapState {
    fn new(slots: usize, max_flows: usize) -> FlowMapState {
        FlowMapState {
            slots,
            max_flows,
            entries: std::collections::HashMap::new(),
            overflow_drops: 0,
        }
    }

    /// Reads `slot` for `key`; a flow with no record reads 0. `None` =
    /// slot out of bounds.
    pub(crate) fn load(&self, key: u128, slot: u64) -> Option<u64> {
        if slot >= self.slots as u64 {
            return None;
        }
        Some(self.entries.get(&key).map_or(0, |rec| rec[slot as usize]))
    }

    /// Writes (or saturating-adds when `add`) `v` into `slot` for `key`,
    /// creating a zeroed record if capacity allows. `None` = slot out of
    /// bounds; an at-capacity drop still returns `Some` (counted, not a
    /// fault).
    pub(crate) fn write(&mut self, key: u128, slot: u64, v: u64, add: bool) -> Option<()> {
        if slot >= self.slots as u64 {
            return None;
        }
        if let Some(rec) = self.entries.get_mut(&key) {
            let s = &mut rec[slot as usize];
            *s = if add { s.saturating_add(v) } else { v };
        } else if self.entries.len() < self.max_flows {
            let mut rec = vec![0u64; self.slots];
            rec[slot as usize] = v;
            self.entries.insert(key, rec);
        } else {
            self.overflow_drops += 1;
        }
        Some(())
    }
}

/// The mutable machine state the interpreter and the compiled path both
/// execute against. One layout shared by construction, so the two
/// execution engines cannot diverge on where state lives.
#[derive(Clone, Debug)]
pub(crate) struct VmState {
    pub(crate) regs: [u64; NUM_REGS as usize],
    pub(crate) mark: u64,
    pub(crate) maps: Vec<Vec<u64>>,
    pub(crate) flows: Vec<FlowMapState>,
    pub(crate) counters: Vec<u64>,
}

/// An overlay processor instance with persistent map state for one loaded
/// program.
#[derive(Clone, Debug)]
pub struct Vm {
    program: Program,
    pub(crate) state: VmState,
    compiled: Option<std::rc::Rc<crate::compile::CompiledProgram>>,
    /// Packets processed.
    pub executions: u64,
    /// Runtime faults observed.
    pub faults: u64,
}

impl Vm {
    /// Instantiates an interpreting VM for `program`, allocating its maps
    /// (zeroed). With [`Vm::run_interp`] this is the differential oracle
    /// the compiled engine is tested against; the dataplane builds its
    /// VMs with [`Vm::with_compiled`].
    ///
    /// The program should have passed [`crate::verify::verify`]; the VM
    /// does not re-verify but enforces all safety bounds dynamically.
    pub fn new(program: Program) -> Vm {
        let state = VmState {
            regs: [0; NUM_REGS as usize],
            mark: 0,
            maps: program.maps.iter().map(|m| vec![0u64; m.size]).collect(),
            flows: program
                .flow_maps
                .iter()
                .map(|fm| FlowMapState::new(fm.slots, fm.max_flows))
                .collect(),
            counters: vec![0; program.counters.len()],
        };
        Vm {
            program,
            state,
            compiled: None,
            executions: 0,
            faults: 0,
        }
    }

    /// Instantiates a VM that executes `compiled` instead of walking the
    /// interpreter. The artifact must have been compiled from exactly
    /// this program — the fingerprint stamp is checked, so a stale or
    /// mismatched artifact can never be swapped in.
    ///
    /// # Panics
    ///
    /// Panics if `compiled`'s source fingerprint differs from
    /// `program.fingerprint()`.
    pub fn with_compiled(
        program: Program,
        compiled: std::rc::Rc<crate::compile::CompiledProgram>,
    ) -> Vm {
        assert_eq!(
            compiled.fingerprint(),
            program.fingerprint(),
            "compiled artifact fingerprint mismatch for '{}'",
            program.name
        );
        let mut vm = Vm::new(program);
        vm.compiled = Some(compiled);
        vm
    }

    /// Whether this VM dispatches to a compiled artifact (`false` = pure
    /// interpreter).
    #[cfg(test)]
    pub(crate) fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Returns the loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Reads a map entry (control-plane introspection, e.g. reading
    /// counters from `knetstat`).
    pub fn map_get(&self, map: usize, key: usize) -> Option<u64> {
        self.state.maps.get(map)?.get(key).copied()
    }

    /// Writes a map entry (control-plane configuration, e.g. installing a
    /// firewall rule's parameters).
    pub fn map_set(&mut self, map: usize, key: usize, value: u64) -> bool {
        match self.state.maps.get_mut(map).and_then(|m| m.get_mut(key)) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// The full array-map state (differential-testing comparisons).
    pub fn map_state(&self) -> &[Vec<u64>] {
        &self.state.maps
    }

    /// Reads one slot of one flow's record; `Some(0)` for a flow with no
    /// record, `None` for an undeclared map or out-of-range slot.
    #[cfg(test)]
    pub(crate) fn flow_get(&self, map: usize, key: u128, slot: usize) -> Option<u64> {
        self.state.flows.get(map)?.load(key, slot as u64)
    }

    /// A deterministic snapshot of one flow map, sorted by flow key
    /// (differential-testing comparisons and `ktrace` dumps).
    pub fn flow_snapshot(&self, map: usize) -> Option<Vec<(u128, Vec<u64>)>> {
        let fm = self.state.flows.get(map)?;
        let mut out: Vec<(u128, Vec<u64>)> =
            fm.entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        Some(out)
    }

    /// Writes deterministically dropped because a flow map was at
    /// capacity.
    pub fn flow_overflow_drops(&self, map: usize) -> Option<u64> {
        self.state.flows.get(map).map(|fm| fm.overflow_drops)
    }

    /// Reads a named saturating counter by declaration index.
    #[cfg(test)]
    pub(crate) fn counter_get(&self, counter: usize) -> Option<u64> {
        self.state.counters.get(counter).copied()
    }

    /// All counters with their declared names, in declaration order
    /// (metrics/`ktrace` export).
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.program
            .counters
            .iter()
            .cloned()
            .zip(self.state.counters.iter().copied())
            .collect()
    }

    /// The register file after the most recent `run` (differential
    /// fuzzing compares it bit-for-bit between engines).
    pub fn last_regs(&self) -> [u64; NUM_REGS as usize] {
        self.state.regs
    }

    /// Executes the program over `ctx` — through the compiled artifact
    /// when one is loaded, otherwise the interpreter. Both paths leave
    /// identical machine state behind.
    pub fn run(&mut self, ctx: &PktCtx) -> Result<Execution, VmError> {
        if let Some(compiled) = &self.compiled {
            self.executions += 1;
            self.state.regs = [0; NUM_REGS as usize];
            self.state.mark = ctx.mark;
            match compiled.exec(&mut self.state, ctx) {
                Ok(e) => Ok(e),
                Err(e) => {
                    self.faults += 1;
                    Err(e)
                }
            }
        } else {
            self.run_interp(ctx)
        }
    }

    /// Executes the program over `ctx` on the interpreter, regardless of
    /// any compiled artifact — the differential-testing oracle.
    pub fn run_interp(&mut self, ctx: &PktCtx) -> Result<Execution, VmError> {
        self.executions += 1;
        self.state.regs = [0; NUM_REGS as usize];
        self.state.mark = ctx.mark;
        let mut body = 0usize; // 0 = main, i+1 = tail i
        let mut pc = 0usize;
        let mut cycles = 0u64;
        let budget = self.program.total_insns() as u64 + 1;

        loop {
            if cycles >= budget {
                self.faults += 1;
                return Err(VmError::CycleBudgetExceeded);
            }
            let insns: &[Insn] = if body == 0 {
                &self.program.insns
            } else {
                match self.program.tails.get(body - 1) {
                    Some(t) => &t.insns,
                    None => {
                        self.faults += 1;
                        return Err(VmError::PcOutOfBounds);
                    }
                }
            };
            let Some(insn) = insns.get(pc).copied() else {
                self.faults += 1;
                return Err(VmError::PcOutOfBounds);
            };
            cycles += 1;

            let val = |o: &Operand, regs: &[u64]| -> u64 {
                match o {
                    Operand::Reg(Reg(r)) => regs[*r as usize],
                    Operand::Imm(v) => *v,
                }
            };

            let st = &mut self.state;
            match insn {
                Insn::LdImm { dst, imm } => {
                    st.regs[dst.0 as usize] = imm;
                    pc += 1;
                }
                Insn::LdCtx { dst, field } => {
                    st.regs[dst.0 as usize] = if field == CtxField::Mark {
                        st.mark
                    } else {
                        ctx.read(field)
                    };
                    pc += 1;
                }
                Insn::Mov { dst, src } => {
                    st.regs[dst.0 as usize] = val(&src, &st.regs);
                    pc += 1;
                }
                Insn::Alu { op, dst, src } => {
                    let a = st.regs[dst.0 as usize];
                    let b = val(&src, &st.regs);
                    st.regs[dst.0 as usize] = op.eval(a, b);
                    pc += 1;
                }
                Insn::Jmp { target } => pc = target,
                Insn::JmpIf {
                    cmp,
                    lhs,
                    rhs,
                    target,
                } => {
                    if cmp.eval(st.regs[lhs.0 as usize], val(&rhs, &st.regs)) {
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
                Insn::MapLoad { dst, map, key } => {
                    let k = st.regs[key.0 as usize];
                    let slot = st.maps.get(map).and_then(|m| m.get(k as usize)).copied();
                    match slot {
                        Some(v) => st.regs[dst.0 as usize] = v,
                        None => {
                            self.faults += 1;
                            return Err(VmError::MapKeyOutOfBounds { map, key: k });
                        }
                    }
                    pc += 1;
                }
                Insn::MapStore { map, key, src } => {
                    let k = st.regs[key.0 as usize];
                    let v = st.regs[src.0 as usize];
                    match st.maps.get_mut(map).and_then(|m| m.get_mut(k as usize)) {
                        Some(slot) => *slot = v,
                        None => {
                            self.faults += 1;
                            return Err(VmError::MapKeyOutOfBounds { map, key: k });
                        }
                    }
                    pc += 1;
                }
                Insn::MapAdd { map, key, src } => {
                    let k = st.regs[key.0 as usize];
                    let v = st.regs[src.0 as usize];
                    match st.maps.get_mut(map).and_then(|m| m.get_mut(k as usize)) {
                        Some(slot) => *slot = slot.saturating_add(v),
                        None => {
                            self.faults += 1;
                            return Err(VmError::MapKeyOutOfBounds { map, key: k });
                        }
                    }
                    pc += 1;
                }
                Insn::FlowLoad { dst, map, slot } => {
                    let s = val(&slot, &st.regs);
                    match st.flows.get(map).and_then(|fm| fm.load(ctx.flow_key, s)) {
                        Some(v) => st.regs[dst.0 as usize] = v,
                        None => {
                            self.faults += 1;
                            return Err(VmError::FlowSlotOutOfBounds { map, slot: s });
                        }
                    }
                    pc += 1;
                }
                Insn::FlowStore { map, slot, src } | Insn::FlowAdd { map, slot, src } => {
                    let add = matches!(insn, Insn::FlowAdd { .. });
                    let s = val(&slot, &st.regs);
                    let v = st.regs[src.0 as usize];
                    match st
                        .flows
                        .get_mut(map)
                        .and_then(|fm| fm.write(ctx.flow_key, s, v, add))
                    {
                        Some(()) => {}
                        None => {
                            self.faults += 1;
                            return Err(VmError::FlowSlotOutOfBounds { map, slot: s });
                        }
                    }
                    pc += 1;
                }
                Insn::CntAdd { counter, src } => {
                    let v = val(&src, &st.regs);
                    match st.counters.get_mut(counter) {
                        Some(c) => *c = c.saturating_add(v),
                        None => {
                            self.faults += 1;
                            return Err(VmError::CounterOutOfBounds { counter });
                        }
                    }
                    pc += 1;
                }
                Insn::TailCall { tail } => {
                    // Registers and mark carry over; control never
                    // returns (verified monotone, so chains are bounded).
                    if tail < body || tail >= self.program.tails.len() {
                        self.faults += 1;
                        return Err(VmError::PcOutOfBounds);
                    }
                    body = tail + 1;
                    pc = 0;
                }
                Insn::SetMark { src } => {
                    st.mark = st.regs[src.0 as usize];
                    pc += 1;
                }
                Insn::Ret { verdict } => {
                    return Ok(Execution {
                        verdict,
                        cycles,
                        mark: st.mark,
                    })
                }
                Insn::RetReg { src } => {
                    return Ok(Execution {
                        verdict: Verdict::decode(st.regs[src.0 as usize]),
                        cycles,
                        mark: st.mark,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, CmpOp};
    use crate::program::MapSpec;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn run_one(insns: Vec<Insn>, maps: Vec<MapSpec>, ctx: &PktCtx) -> Execution {
        let p = Program::new("t", insns, maps);
        crate::verify::verify(&p).expect("test program must verify");
        Vm::new(p).run(ctx).expect("test program must run")
    }

    #[test]
    fn immediate_return() {
        let e = run_one(
            vec![Insn::Ret {
                verdict: Verdict::Drop,
            }],
            vec![],
            &PktCtx::default(),
        );
        assert_eq!(e.verdict, Verdict::Drop);
        assert_eq!(e.cycles, 1);
    }

    #[test]
    fn port_filter_logic() {
        // if dst_port == 5432 { pass } else { drop }
        let insns = vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::DstPort,
            },
            Insn::JmpIf {
                cmp: CmpOp::Eq,
                lhs: r(0),
                rhs: Operand::Imm(5432),
                target: 3,
            },
            Insn::Ret {
                verdict: Verdict::Drop,
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        let mut ctx = PktCtx {
            dst_port: 5432,
            ..PktCtx::default()
        };
        assert_eq!(run_one(insns.clone(), vec![], &ctx).verdict, Verdict::Pass);
        ctx.dst_port = 80;
        assert_eq!(run_one(insns, vec![], &ctx).verdict, Verdict::Drop);
    }

    #[test]
    fn alu_semantics() {
        // r0 = 10; r0 = r0 * 3; r0 = r0 - 5; encode Class(r0>>0)?
        // Simply verify arithmetic via the mark.
        let insns = vec![
            Insn::LdImm { dst: r(0), imm: 10 },
            Insn::Alu {
                op: AluOp::Mul,
                dst: r(0),
                src: Operand::Imm(3),
            },
            Insn::Alu {
                op: AluOp::Sub,
                dst: r(0),
                src: Operand::Imm(5),
            },
            Insn::SetMark { src: r(0) },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        let e = run_one(insns, vec![], &PktCtx::default());
        assert_eq!(e.mark, 25);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let insns = vec![
            Insn::LdImm { dst: r(0), imm: 42 },
            Insn::LdImm { dst: r(1), imm: 0 },
            Insn::Alu {
                op: AluOp::Div,
                dst: r(0),
                src: Operand::Reg(r(1)),
            },
            Insn::SetMark { src: r(0) },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        assert_eq!(run_one(insns, vec![], &PktCtx::default()).mark, 0);
    }

    #[test]
    fn shifts_mask_amount() {
        let insns = vec![
            Insn::LdImm { dst: r(0), imm: 1 },
            Insn::Alu {
                op: AluOp::Shl,
                dst: r(0),
                src: Operand::Imm(65), // masked to 1
            },
            Insn::SetMark { src: r(0) },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        assert_eq!(run_one(insns, vec![], &PktCtx::default()).mark, 2);
    }

    #[test]
    fn map_counters_persist_across_packets() {
        let insns = vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::Uid,
            },
            Insn::LdCtx {
                dst: r(1),
                field: CtxField::PktLen,
            },
            Insn::MapAdd {
                map: 0,
                key: r(0),
                src: r(1),
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        let p = Program::new("count", insns, vec![MapSpec::new("bytes_by_uid", 16)]);
        crate::verify::verify(&p).unwrap();
        let mut vm = Vm::new(p);
        let ctx = PktCtx {
            uid: 3,
            pkt_len: 100,
            ..PktCtx::default()
        };
        vm.run(&ctx).unwrap();
        vm.run(&ctx).unwrap();
        assert_eq!(vm.map_get(0, 3), Some(200));
        assert_eq!(vm.map_get(0, 4), Some(0));
        assert_eq!(vm.executions, 2);
    }

    #[test]
    fn map_out_of_bounds_faults() {
        let insns = vec![
            Insn::LdImm { dst: r(0), imm: 99 },
            Insn::MapLoad {
                dst: r(1),
                map: 0,
                key: r(0),
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        let p = Program::new("oob", insns, vec![MapSpec::new("small", 4)]);
        crate::verify::verify(&p).unwrap();
        let mut vm = Vm::new(p);
        let err = vm.run(&PktCtx::default()).unwrap_err();
        assert_eq!(err, VmError::MapKeyOutOfBounds { map: 0, key: 99 });
        assert_eq!(vm.faults, 1);
    }

    #[test]
    fn control_plane_map_access() {
        let p = Program::new(
            "cfg",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("rules", 8)],
        );
        let mut vm = Vm::new(p);
        assert!(vm.map_set(0, 5, 1234));
        assert_eq!(vm.map_get(0, 5), Some(1234));
        assert!(!vm.map_set(0, 8, 1)); // out of bounds
        assert!(!vm.map_set(1, 0, 1)); // no such map
        assert_eq!(vm.map_get(2, 0), None);
    }

    #[test]
    fn ret_reg_decodes_verdict() {
        let insns = vec![
            Insn::LdImm {
                dst: r(0),
                imm: Verdict::Class(9).encode(),
            },
            Insn::RetReg { src: r(0) },
        ];
        assert_eq!(
            run_one(insns, vec![], &PktCtx::default()).verdict,
            Verdict::Class(9)
        );
    }

    #[test]
    fn cycles_count_executed_instructions() {
        let insns = vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::DstPort,
            },
            Insn::JmpIf {
                cmp: CmpOp::Eq,
                lhs: r(0),
                rhs: Operand::Imm(1),
                target: 3,
            },
            Insn::Ret {
                verdict: Verdict::Drop,
            },
            Insn::Ret {
                verdict: Verdict::Pass,
            },
        ];
        let ctx = PktCtx {
            dst_port: 1,
            ..PktCtx::default()
        };
        let e = run_one(insns, vec![], &ctx);
        // ldctx, jmpif (taken), ret = 3 cycles.
        assert_eq!(e.cycles, 3);
    }

    #[test]
    fn mark_reads_back_within_program() {
        let insns = vec![
            Insn::LdImm { dst: r(0), imm: 7 },
            Insn::SetMark { src: r(0) },
            Insn::LdCtx {
                dst: r(1),
                field: CtxField::Mark,
            },
            Insn::RetReg { src: r(1) },
        ];
        // mark=7 decodes to code 7 => unknown => Drop (fail closed), and
        // the final mark is 7.
        let e = run_one(insns, vec![], &PktCtx::default());
        assert_eq!(e.mark, 7);
        assert_eq!(e.verdict, Verdict::Drop);
    }

    #[test]
    fn incoming_mark_visible() {
        let insns = vec![
            Insn::LdCtx {
                dst: r(0),
                field: CtxField::Mark,
            },
            Insn::RetReg { src: r(0) },
        ];
        let ctx = PktCtx {
            mark: Verdict::Pass.encode(),
            ..PktCtx::default()
        };
        assert_eq!(run_one(insns, vec![], &ctx).verdict, Verdict::Pass);
    }
}
