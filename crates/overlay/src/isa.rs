//! The overlay instruction set.

use std::fmt;

/// A register index (`r0`–`r15`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Reg(pub u8);

/// Number of general-purpose registers.
pub(crate) const NUM_REGS: u8 = 16;

impl Reg {
    /// Creates a register, checking the index.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    #[cfg(test)]
    pub(crate) fn new(n: u8) -> Reg {
        assert!(n < NUM_REGS, "register r{n} out of range");
        Reg(n)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Read-only (and one read-write) packet-context fields.
///
/// These are the values the NIC parser exposes to policy programs. Note
/// `Uid`, `Pid` and `ConnId`: because the kernel control plane binds each
/// connection to its owning process at `connect()` time, the on-NIC
/// dataplane can evaluate *process-aware* policies — the capability the
/// paper shows hypervisor- and network-level interposition cannot offer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CtxField {
    /// Frame length in bytes.
    PktLen,
    /// IP protocol number (0 for non-IP).
    Proto,
    /// Source IPv4 address as a u32.
    SrcIp,
    /// Destination IPv4 address as a u32.
    DstIp,
    /// Source transport port (0 if none).
    SrcPort,
    /// Destination transport port (0 if none).
    DstPort,
    /// Owning user id bound at connection setup (u32::MAX if unbound).
    Uid,
    /// Owning process id bound at connection setup (0 if unbound).
    Pid,
    /// RSS/Toeplitz hash of the flow.
    FlowHash,
    /// Connection id in the NIC flow table (u64::MAX if none).
    ConnId,
    /// Current time in nanoseconds.
    NowNs,
    /// EtherType of the frame.
    EtherType,
    /// DSCP/ECN byte.
    Dscp,
    /// 1 if the frame is ARP, else 0.
    IsArp,
    /// 1 if the frame is being transmitted (egress), 0 for ingress.
    Egress,
    /// The packet mark (read-write via `setmark`).
    Mark,
}

impl fmt::Display for CtxField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CtxField::PktLen => "pkt_len",
            CtxField::Proto => "proto",
            CtxField::SrcIp => "src_ip",
            CtxField::DstIp => "dst_ip",
            CtxField::SrcPort => "src_port",
            CtxField::DstPort => "dst_port",
            CtxField::Uid => "uid",
            CtxField::Pid => "pid",
            CtxField::FlowHash => "flow_hash",
            CtxField::ConnId => "conn_id",
            CtxField::NowNs => "now_ns",
            CtxField::EtherType => "ethertype",
            CtxField::Dscp => "dscp",
            CtxField::IsArp => "is_arp",
            CtxField::Egress => "egress",
            CtxField::Mark => "mark",
        };
        f.write_str(s)
    }
}

/// ALU operations. Division and modulo by zero yield zero (as in eBPF).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (x/0 = 0).
    Div,
    /// Modulo (x%0 = 0).
    Mod,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 63).
    Shl,
    /// Logical shift right (shift amount masked to 63).
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AluOp {
    /// Evaluates the operation. The single source of ALU semantics: the
    /// interpreter and the compiled path both call this, so they cannot
    /// disagree on arithmetic.
    #[inline(always)]
    pub(crate) fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or(0),
            AluOp::Mod => a.checked_rem(b).unwrap_or(0),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }
}

/// Comparison operations for conditional jumps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison.
    pub(crate) fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A register or immediate operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(u64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A map identifier (index into the program's declared maps).
pub(crate) type MapId = usize;

/// One overlay instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Insn {
    /// `dst = imm`.
    LdImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = ctx[field]`.
    LdCtx {
        /// Destination register.
        dst: Reg,
        /// Context field to read.
        field: CtxField,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = dst <op> src`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left) register.
        dst: Reg,
        /// Right operand.
        src: Operand,
    },
    /// Unconditional forward jump to `target`.
    Jmp {
        /// Absolute instruction index.
        target: usize,
    },
    /// Conditional forward jump: `if lhs <cmp> rhs goto target`.
    JmpIf {
        /// Comparison.
        cmp: CmpOp,
        /// Left register.
        lhs: Reg,
        /// Right operand.
        rhs: Operand,
        /// Absolute instruction index.
        target: usize,
    },
    /// `dst = map[key]` (runtime bounds-checked).
    MapLoad {
        /// Destination register.
        dst: Reg,
        /// Declared map index.
        map: MapId,
        /// Key register.
        key: Reg,
    },
    /// `map[key] = src`.
    MapStore {
        /// Declared map index.
        map: MapId,
        /// Key register.
        key: Reg,
        /// Source register.
        src: Reg,
    },
    /// `map[key] = map[key] + src` (saturating), in one cycle — the
    /// overlay's counters/token-bucket primitive.
    MapAdd {
        /// Declared map index.
        map: MapId,
        /// Key register.
        key: Reg,
        /// Source register.
        src: Reg,
    },
    /// Sets the packet mark from a register and continues.
    SetMark {
        /// Source register.
        src: Reg,
    },
    /// `dst = flow_map[flow_key][slot]`. Per-flow scratch state, keyed on
    /// the packed 128-bit flow key the NIC parser derives from the
    /// five-tuple. A flow with no state yet reads as 0; the slot index is
    /// runtime bounds-checked against the declared slot count.
    FlowLoad {
        /// Destination register.
        dst: Reg,
        /// Declared flow-map index.
        map: MapId,
        /// Slot within the per-flow record.
        slot: Operand,
    },
    /// `flow_map[flow_key][slot] = src`. Writing to a flow map already at
    /// its declared flow capacity (and for a flow with no record yet) is
    /// dropped deterministically and counted — bounded state, like eBPF
    /// map update failures.
    FlowStore {
        /// Declared flow-map index.
        map: MapId,
        /// Slot within the per-flow record.
        slot: Operand,
        /// Source register.
        src: Reg,
    },
    /// `flow_map[flow_key][slot] += src` (saturating), one cycle — the
    /// per-flow counter/token primitive.
    FlowAdd {
        /// Declared flow-map index.
        map: MapId,
        /// Slot within the per-flow record.
        slot: Operand,
        /// Source register.
        src: Reg,
    },
    /// `counter[idx] += src` (saturating). Named global counters, read
    /// out-of-band via `ktrace`/metrics without perturbing execution.
    CntAdd {
        /// Declared counter index.
        counter: usize,
        /// Amount to add.
        src: Operand,
    },
    /// Transfers control to tail body `tail` (registers carry over).
    /// The verifier only admits monotonically increasing tail indices,
    /// so chains are bounded by construction — eBPF tail calls without
    /// the runtime depth counter.
    TailCall {
        /// Declared tail-body index.
        tail: usize,
    },
    /// Terminates with an immediate verdict.
    Ret {
        /// The verdict.
        verdict: Verdict,
    },
    /// Terminates with the verdict decoded from a register.
    RetReg {
        /// Register holding an encoded verdict.
        src: Reg,
    },
}

/// A terminal policy decision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Verdict {
    /// Deliver the packet on the fast path.
    Pass,
    /// Discard the packet.
    Drop,
    /// Assign the packet to a scheduler class.
    Class(u32),
    /// Steer the packet to a specific queue/ring.
    Redirect(u32),
    /// Punt the packet to the kernel software path (§5's escape hatch for
    /// resource exhaustion or low-priority traffic).
    SlowPath,
}

impl Verdict {
    /// Encodes the verdict as a u64 (`code | arg << 8`) for `retr`.
    #[cfg(test)]
    pub(crate) fn encode(self) -> u64 {
        match self {
            Verdict::Pass => 0,
            Verdict::Drop => 1,
            Verdict::Class(c) => 2 | (u64::from(c) << 8),
            Verdict::Redirect(q) => 3 | (u64::from(q) << 8),
            Verdict::SlowPath => 4,
        }
    }

    /// Decodes a u64 produced by [`Verdict::encode`]. Unknown codes decode
    /// to [`Verdict::Drop`] (fail closed).
    pub(crate) fn decode(v: u64) -> Verdict {
        let arg = (v >> 8) as u32;
        match v & 0xFF {
            0 => Verdict::Pass,
            1 => Verdict::Drop,
            2 => Verdict::Class(arg),
            3 => Verdict::Redirect(arg),
            4 => Verdict::SlowPath,
            _ => Verdict::Drop,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Drop => write!(f, "drop"),
            Verdict::Class(c) => write!(f, "class {c}"),
            Verdict::Redirect(q) => write!(f, "redirect {q}"),
            Verdict::SlowPath => write!(f, "slowpath"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_encode_decode_round_trip() {
        for v in [
            Verdict::Pass,
            Verdict::Drop,
            Verdict::Class(7),
            Verdict::Class(0),
            Verdict::Redirect(255),
            Verdict::SlowPath,
        ] {
            assert_eq!(Verdict::decode(v.encode()), v);
        }
    }

    #[test]
    fn unknown_verdict_code_fails_closed() {
        assert_eq!(Verdict::decode(0xFF), Verdict::Drop);
        assert_eq!(Verdict::decode(99), Verdict::Drop);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(4, 4));
        assert!(CmpOp::Gt.eval(5, 4));
        assert!(CmpOp::Ge.eval(4, 4));
        assert!(!CmpOp::Lt.eval(4, 4));
        // Unsigned semantics.
        assert!(CmpOp::Gt.eval(u64::MAX, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_register_rejected() {
        let _ = Reg::new(16);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(CtxField::DstPort.to_string(), "dst_port");
        assert_eq!(Operand::Imm(9).to_string(), "9");
        assert_eq!(Verdict::Class(2).to_string(), "class 2");
    }
}
