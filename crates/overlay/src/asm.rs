//! A text assembler for overlay programs.
//!
//! The control-plane tools (`kqdisc`, `kfilter`) express policies in this
//! assembly, which the kernel assembles, verifies, and loads onto the NIC.
//!
//! # Syntax
//!
//! ```text
//! ; Owner-aware port filter: only uid 1001 may use port 5432.
//! map rules 65536            ; declare map 0 with 65536 entries
//!
//! ldctx r0, dst_port
//! mapld r1, rules, r0        ; allowed uid for this port (+1), 0 = any
//! jeq   r1, 0, allow
//! ldctx r2, uid
//! add   r2, 1
//! jeq   r1, r2, allow
//! ret   drop
//! allow:
//! ret   pass
//! ```
//!
//! One statement per line; `;` or `#` starts a comment. Labels end with
//! `:` and may share a line with nothing else. `map NAME SIZE`
//! declarations must precede instructions.

use std::collections::HashMap;
use std::fmt;

use crate::isa::{AluOp, CmpOp, CtxField, Insn, Operand, Reg, Verdict};
use crate::program::{FlowMapSpec, MapSpec, Program, TailBody};

/// An assembly error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Description.
    pub(crate) message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let Some(n) = tok.strip_prefix('r').and_then(|s| s.parse::<u8>().ok()) else {
        return err(line, format!("expected register, got `{tok}`"));
    };
    if n >= crate::isa::NUM_REGS {
        return err(line, format!("register r{n} out of range"));
    }
    Ok(Reg(n))
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, AsmError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse::<u64>()
    };
    parsed.map_err(|_| AsmError {
        line,
        message: format!("expected number, got `{tok}`"),
    })
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, AsmError> {
    if tok.starts_with('r') && tok.len() <= 3 && tok[1..].chars().all(|c| c.is_ascii_digit()) {
        Ok(Operand::Reg(parse_reg(tok, line)?))
    } else {
        Ok(Operand::Imm(parse_u64(tok, line)?))
    }
}

fn parse_ctx_field(tok: &str, line: usize) -> Result<CtxField, AsmError> {
    let f = match tok {
        "pkt_len" => CtxField::PktLen,
        "proto" => CtxField::Proto,
        "src_ip" => CtxField::SrcIp,
        "dst_ip" => CtxField::DstIp,
        "src_port" => CtxField::SrcPort,
        "dst_port" => CtxField::DstPort,
        "uid" => CtxField::Uid,
        "pid" => CtxField::Pid,
        "flow_hash" => CtxField::FlowHash,
        "conn_id" => CtxField::ConnId,
        "now_ns" => CtxField::NowNs,
        "ethertype" => CtxField::EtherType,
        "dscp" => CtxField::Dscp,
        "is_arp" => CtxField::IsArp,
        "egress" => CtxField::Egress,
        "mark" => CtxField::Mark,
        other => return err(line, format!("unknown context field `{other}`")),
    };
    Ok(f)
}

enum PendingInsn {
    Done(Insn),
    Jmp(String),
    JmpIf(CmpOp, Reg, Operand, String),
    TailCall(String),
}

/// One instruction body under assembly (the main body, or a `tail`
/// section). Labels are scoped to their body.
struct BodyAcc {
    name: Option<String>,
    pending: Vec<(usize, PendingInsn)>,
    labels: HashMap<String, usize>,
}

impl BodyAcc {
    fn new(name: Option<String>) -> BodyAcc {
        BodyAcc {
            name,
            pending: Vec::new(),
            labels: HashMap::new(),
        }
    }
}

/// Assembles source text into a [`Program`] named `name`.
///
/// The result is *not* verified; callers (the control plane) should pass
/// it through [`crate::verify::verify`] before loading.
pub fn assemble(name: &str, src: &str) -> Result<Program, AsmError> {
    let mut maps: Vec<MapSpec> = Vec::new();
    let mut map_ids: HashMap<String, usize> = HashMap::new();
    let mut flow_maps: Vec<FlowMapSpec> = Vec::new();
    let mut flow_map_ids: HashMap<String, usize> = HashMap::new();
    let mut counters: Vec<String> = Vec::new();
    let mut counter_ids: HashMap<String, usize> = HashMap::new();
    let mut tail_ids: HashMap<String, usize> = HashMap::new();
    let mut bodies: Vec<BodyAcc> = vec![BodyAcc::new(None)];

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split([';', '#']).next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }

        // Label?
        if let Some(label) = code.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return err(line, "malformed label");
            }
            let body = bodies.last_mut().expect("main body always exists");
            let at = body.pending.len();
            if body.labels.insert(label.to_string(), at).is_some() {
                return err(line, format!("duplicate label `{label}`"));
            }
            continue;
        }

        let (mnemonic, rest) = match code.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (code, ""),
        };
        let args: Vec<String> = if rest.is_empty() {
            vec![]
        } else {
            rest.split(',').map(|a| a.trim().to_string()).collect()
        };
        let argn = |n: usize| -> Result<(), AsmError> {
            if args.len() != n {
                err(
                    line,
                    format!("`{mnemonic}` takes {n} operand(s), got {}", args.len()),
                )
            } else {
                Ok(())
            }
        };

        // Declarations (must precede all instructions) and `tail`
        // section directives.
        let decls_open = bodies.len() == 1 && bodies[0].pending.is_empty();
        match mnemonic {
            "map" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 2 {
                    return err(line, "usage: map NAME SIZE");
                }
                if !decls_open {
                    return err(line, "map declarations must precede instructions");
                }
                if map_ids.contains_key(parts[0]) {
                    return err(line, format!("duplicate map `{}`", parts[0]));
                }
                let size = parse_u64(parts[1], line)? as usize;
                map_ids.insert(parts[0].to_string(), maps.len());
                maps.push(MapSpec::new(parts[0], size));
                continue;
            }
            "flowmap" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 {
                    return err(line, "usage: flowmap NAME SLOTS MAX_FLOWS");
                }
                if !decls_open {
                    return err(line, "flowmap declarations must precede instructions");
                }
                if flow_map_ids.contains_key(parts[0]) {
                    return err(line, format!("duplicate flowmap `{}`", parts[0]));
                }
                let slots = parse_u64(parts[1], line)? as usize;
                let max_flows = parse_u64(parts[2], line)? as usize;
                flow_map_ids.insert(parts[0].to_string(), flow_maps.len());
                flow_maps.push(FlowMapSpec::new(parts[0], slots, max_flows));
                continue;
            }
            "counter" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 1 {
                    return err(line, "usage: counter NAME");
                }
                if !decls_open {
                    return err(line, "counter declarations must precede instructions");
                }
                if counter_ids.contains_key(parts[0]) {
                    return err(line, format!("duplicate counter `{}`", parts[0]));
                }
                counter_ids.insert(parts[0].to_string(), counters.len());
                counters.push(parts[0].to_string());
                continue;
            }
            "tail" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 1 {
                    return err(line, "usage: tail NAME");
                }
                if tail_ids.contains_key(parts[0]) {
                    return err(line, format!("duplicate tail `{}`", parts[0]));
                }
                tail_ids.insert(parts[0].to_string(), bodies.len() - 1);
                bodies.push(BodyAcc::new(Some(parts[0].to_string())));
                continue;
            }
            _ => {}
        }

        let map_id = |tok: &str| -> Result<usize, AsmError> {
            map_ids.get(tok).copied().ok_or_else(|| AsmError {
                line,
                message: format!("unknown map `{tok}`"),
            })
        };
        let flow_id = |tok: &str| -> Result<usize, AsmError> {
            flow_map_ids.get(tok).copied().ok_or_else(|| AsmError {
                line,
                message: format!("unknown flowmap `{tok}`"),
            })
        };
        let counter_id = |tok: &str| -> Result<usize, AsmError> {
            counter_ids.get(tok).copied().ok_or_else(|| AsmError {
                line,
                message: format!("unknown counter `{tok}`"),
            })
        };

        let alu = |op: AluOp, args: &[String]| -> Result<PendingInsn, AsmError> {
            if args.len() != 2 {
                return err(line, format!("`{mnemonic}` takes 2 operands"));
            }
            Ok(PendingInsn::Done(Insn::Alu {
                op,
                dst: parse_reg(&args[0], line)?,
                src: parse_operand(&args[1], line)?,
            }))
        };

        let jcc = |cmp: CmpOp, args: &[String]| -> Result<PendingInsn, AsmError> {
            if args.len() != 3 {
                return err(line, format!("`{mnemonic}` takes 3 operands"));
            }
            Ok(PendingInsn::JmpIf(
                cmp,
                parse_reg(&args[0], line)?,
                parse_operand(&args[1], line)?,
                args[2].clone(),
            ))
        };

        let insn = match mnemonic {
            "ldimm" => {
                argn(2)?;
                PendingInsn::Done(Insn::LdImm {
                    dst: parse_reg(&args[0], line)?,
                    imm: parse_u64(&args[1], line)?,
                })
            }
            "ldctx" => {
                argn(2)?;
                PendingInsn::Done(Insn::LdCtx {
                    dst: parse_reg(&args[0], line)?,
                    field: parse_ctx_field(&args[1], line)?,
                })
            }
            "mov" => {
                argn(2)?;
                PendingInsn::Done(Insn::Mov {
                    dst: parse_reg(&args[0], line)?,
                    src: parse_operand(&args[1], line)?,
                })
            }
            "add" => alu(AluOp::Add, &args)?,
            "sub" => alu(AluOp::Sub, &args)?,
            "mul" => alu(AluOp::Mul, &args)?,
            "div" => alu(AluOp::Div, &args)?,
            "mod" => alu(AluOp::Mod, &args)?,
            "and" => alu(AluOp::And, &args)?,
            "or" => alu(AluOp::Or, &args)?,
            "xor" => alu(AluOp::Xor, &args)?,
            "shl" => alu(AluOp::Shl, &args)?,
            "shr" => alu(AluOp::Shr, &args)?,
            "min" => alu(AluOp::Min, &args)?,
            "max" => alu(AluOp::Max, &args)?,
            "jmp" => {
                argn(1)?;
                PendingInsn::Jmp(args[0].clone())
            }
            "jeq" => jcc(CmpOp::Eq, &args)?,
            "jne" => jcc(CmpOp::Ne, &args)?,
            "jlt" => jcc(CmpOp::Lt, &args)?,
            "jle" => jcc(CmpOp::Le, &args)?,
            "jgt" => jcc(CmpOp::Gt, &args)?,
            "jge" => jcc(CmpOp::Ge, &args)?,
            "mapld" => {
                argn(3)?;
                PendingInsn::Done(Insn::MapLoad {
                    dst: parse_reg(&args[0], line)?,
                    map: map_id(&args[1])?,
                    key: parse_reg(&args[2], line)?,
                })
            }
            "mapst" => {
                argn(3)?;
                PendingInsn::Done(Insn::MapStore {
                    map: map_id(&args[0])?,
                    key: parse_reg(&args[1], line)?,
                    src: parse_reg(&args[2], line)?,
                })
            }
            "mapadd" => {
                argn(3)?;
                PendingInsn::Done(Insn::MapAdd {
                    map: map_id(&args[0])?,
                    key: parse_reg(&args[1], line)?,
                    src: parse_reg(&args[2], line)?,
                })
            }
            "flowld" => {
                argn(3)?;
                PendingInsn::Done(Insn::FlowLoad {
                    dst: parse_reg(&args[0], line)?,
                    map: flow_id(&args[1])?,
                    slot: parse_operand(&args[2], line)?,
                })
            }
            "flowst" => {
                argn(3)?;
                PendingInsn::Done(Insn::FlowStore {
                    map: flow_id(&args[0])?,
                    slot: parse_operand(&args[1], line)?,
                    src: parse_reg(&args[2], line)?,
                })
            }
            "flowadd" => {
                argn(3)?;
                PendingInsn::Done(Insn::FlowAdd {
                    map: flow_id(&args[0])?,
                    slot: parse_operand(&args[1], line)?,
                    src: parse_reg(&args[2], line)?,
                })
            }
            "cntadd" => {
                argn(2)?;
                PendingInsn::Done(Insn::CntAdd {
                    counter: counter_id(&args[0])?,
                    src: parse_operand(&args[1], line)?,
                })
            }
            "tailcall" => {
                argn(1)?;
                PendingInsn::TailCall(args[0].clone())
            }
            "setmark" => {
                argn(1)?;
                PendingInsn::Done(Insn::SetMark {
                    src: parse_reg(&args[0], line)?,
                })
            }
            "ret" => {
                // The operand is space-separated ("ret class 3"), not
                // comma-separated like other instructions.
                let words: Vec<&str> = rest.split_whitespace().collect();
                let verdict = match words.as_slice() {
                    ["pass"] => Some(Verdict::Pass),
                    ["drop"] => Some(Verdict::Drop),
                    ["slowpath"] => Some(Verdict::SlowPath),
                    ["class", arg] => Some(Verdict::Class(parse_u64(arg, line)? as u32)),
                    ["redirect", arg] => Some(Verdict::Redirect(parse_u64(arg, line)? as u32)),
                    [v] if v.starts_with('r') && v[1..].chars().all(|c| c.is_ascii_digit()) => {
                        // `ret rN` returns a register-encoded verdict.
                        bodies
                            .last_mut()
                            .expect("main body always exists")
                            .pending
                            .push((
                                line,
                                PendingInsn::Done(Insn::RetReg {
                                    src: parse_reg(v, line)?,
                                }),
                            ));
                        continue;
                    }
                    _ => None,
                };
                match verdict {
                    Some(v) => PendingInsn::Done(Insn::Ret { verdict: v }),
                    None => {
                        return err(line, "usage: ret pass|drop|slowpath|class N|redirect N|rX")
                    }
                }
            }
            other => return err(line, format!("unknown mnemonic `{other}`")),
        };
        bodies
            .last_mut()
            .expect("main body always exists")
            .pending
            .push((line, insn));
    }

    // Resolve labels (per body) and tail-call names (global).
    let mut main_insns = Vec::new();
    let mut tails = Vec::new();
    for (bi, body) in bodies.into_iter().enumerate() {
        let BodyAcc {
            name: body_name,
            pending,
            labels,
        } = body;
        let mut insns = Vec::with_capacity(pending.len());
        for (line, p) in pending {
            let resolve = |label: &str| -> Result<usize, AsmError> {
                labels.get(label).copied().ok_or_else(|| AsmError {
                    line,
                    message: format!("undefined label `{label}`"),
                })
            };
            insns.push(match p {
                PendingInsn::Done(i) => i,
                PendingInsn::Jmp(label) => Insn::Jmp {
                    target: resolve(&label)?,
                },
                PendingInsn::JmpIf(cmp, lhs, rhs, label) => Insn::JmpIf {
                    cmp,
                    lhs,
                    rhs,
                    target: resolve(&label)?,
                },
                PendingInsn::TailCall(t) => Insn::TailCall {
                    tail: tail_ids.get(&t).copied().ok_or_else(|| AsmError {
                        line,
                        message: format!("undefined tail `{t}`"),
                    })?,
                },
            });
        }
        if bi == 0 {
            main_insns = insns;
        } else {
            tails.push(TailBody {
                name: body_name.unwrap_or_default(),
                insns,
            });
        }
    }

    let mut program = Program::new(name, main_insns, maps);
    program.flow_maps = flow_maps;
    program.counters = counters;
    program.tails = tails;
    Ok(program)
}

/// Disassembles a program back into assembler source text, such that
/// `assemble(&p.name, &disassemble(&p))` reproduces `p` exactly (the
/// round-trip property the test suite enforces). Jump targets become
/// synthetic `L{pc}` labels.
#[cfg(test)]
pub(crate) fn disassemble(program: &Program) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for m in &program.maps {
        let _ = writeln!(out, "map {} {}", m.name, m.size);
    }
    for fm in &program.flow_maps {
        let _ = writeln!(out, "flowmap {} {} {}", fm.name, fm.slots, fm.max_flows);
    }
    for c in &program.counters {
        let _ = writeln!(out, "counter {c}");
    }
    disassemble_body(&mut out, &program.insns, program);
    for t in &program.tails {
        let _ = writeln!(out, "tail {}", t.name);
        disassemble_body(&mut out, &t.insns, program);
    }
    out
}

#[cfg(test)]
fn disassemble_body(out: &mut String, insns: &[Insn], p: &Program) {
    use fmt::Write as _;
    let mut targets: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for insn in insns {
        match insn {
            Insn::Jmp { target } | Insn::JmpIf { target, .. } => {
                targets.insert(*target);
            }
            _ => {}
        }
    }
    let map_name = |i: usize| -> String {
        p.maps
            .get(i)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("map{i}"))
    };
    let flow_name = |i: usize| -> String {
        p.flow_maps
            .get(i)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("flowmap{i}"))
    };
    let counter_name = |i: usize| -> String {
        p.counters
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("counter{i}"))
    };
    let tail_name = |i: usize| -> String {
        p.tails
            .get(i)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("tail{i}"))
    };
    let alu_mnemonic = |op: AluOp| match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Mod => "mod",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Shl => "shl",
        AluOp::Shr => "shr",
        AluOp::Min => "min",
        AluOp::Max => "max",
    };
    let cmp_mnemonic = |cmp: CmpOp| match cmp {
        CmpOp::Eq => "jeq",
        CmpOp::Ne => "jne",
        CmpOp::Lt => "jlt",
        CmpOp::Le => "jle",
        CmpOp::Gt => "jgt",
        CmpOp::Ge => "jge",
    };
    for (pc, insn) in insns.iter().enumerate() {
        if targets.contains(&pc) {
            let _ = writeln!(out, "L{pc}:");
        }
        let _ = match insn {
            Insn::LdImm { dst, imm } => writeln!(out, "ldimm {dst}, {imm}"),
            Insn::LdCtx { dst, field } => writeln!(out, "ldctx {dst}, {field}"),
            Insn::Mov { dst, src } => writeln!(out, "mov {dst}, {src}"),
            Insn::Alu { op, dst, src } => writeln!(out, "{} {dst}, {src}", alu_mnemonic(*op)),
            Insn::Jmp { target } => writeln!(out, "jmp L{target}"),
            Insn::JmpIf {
                cmp,
                lhs,
                rhs,
                target,
            } => writeln!(out, "{} {lhs}, {rhs}, L{target}", cmp_mnemonic(*cmp)),
            Insn::MapLoad { dst, map, key } => {
                writeln!(out, "mapld {dst}, {}, {key}", map_name(*map))
            }
            Insn::MapStore { map, key, src } => {
                writeln!(out, "mapst {}, {key}, {src}", map_name(*map))
            }
            Insn::MapAdd { map, key, src } => {
                writeln!(out, "mapadd {}, {key}, {src}", map_name(*map))
            }
            Insn::FlowLoad { dst, map, slot } => {
                writeln!(out, "flowld {dst}, {}, {slot}", flow_name(*map))
            }
            Insn::FlowStore { map, slot, src } => {
                writeln!(out, "flowst {}, {slot}, {src}", flow_name(*map))
            }
            Insn::FlowAdd { map, slot, src } => {
                writeln!(out, "flowadd {}, {slot}, {src}", flow_name(*map))
            }
            Insn::CntAdd { counter, src } => {
                writeln!(out, "cntadd {}, {src}", counter_name(*counter))
            }
            Insn::TailCall { tail } => writeln!(out, "tailcall {}", tail_name(*tail)),
            Insn::SetMark { src } => writeln!(out, "setmark {src}"),
            Insn::Ret { verdict } => writeln!(out, "ret {verdict}"),
            Insn::RetReg { src } => writeln!(out, "ret {src}"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use crate::vm::{PktCtx, Vm};

    fn assemble_ok(src: &str) -> Program {
        let p = assemble("test", src).expect("assembles");
        verify(&p).expect("verifies");
        p
    }

    #[test]
    fn trivial_program() {
        let p = assemble_ok("ret pass");
        assert_eq!(
            p.insns,
            vec![Insn::Ret {
                verdict: Verdict::Pass
            }]
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble_ok("; a comment\n\n  # another\nret drop ; trailing\n");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn labels_resolve_forward() {
        let src = "
            ldctx r0, dst_port
            jeq r0, 22, allow
            ret drop
            allow:
            ret pass
        ";
        let p = assemble_ok(src);
        let mut vm = Vm::new(p);
        let pass = vm
            .run(&PktCtx {
                dst_port: 22,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(pass.verdict, Verdict::Pass);
        let drop = vm
            .run(&PktCtx {
                dst_port: 80,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(drop.verdict, Verdict::Drop);
    }

    #[test]
    fn maps_by_name() {
        let src = "
            map counters 64
            ldctx r0, uid
            ldimm r1, 1
            mapadd counters, r0, r1
            ret pass
        ";
        let p = assemble_ok(src);
        assert_eq!(p.maps, vec![MapSpec::new("counters", 64)]);
        let mut vm = Vm::new(p);
        vm.run(&PktCtx {
            uid: 5,
            ..PktCtx::default()
        })
        .unwrap();
        vm.run(&PktCtx {
            uid: 5,
            ..PktCtx::default()
        })
        .unwrap();
        assert_eq!(vm.map_get(0, 5), Some(2));
    }

    #[test]
    fn hex_immediates() {
        let p = assemble_ok("ldimm r0, 0x1F\nsetmark r0\nret pass");
        let mut vm = Vm::new(p);
        assert_eq!(vm.run(&PktCtx::default()).unwrap().mark, 0x1F);
    }

    #[test]
    fn ret_variants() {
        assert!(assemble("t", "ret class 3").is_ok());
        assert!(assemble("t", "ret redirect 9").is_ok());
        assert!(assemble("t", "ret slowpath").is_ok());
        assert!(assemble("t", "ldimm r2, 0\nret r2").is_ok());
        assert!(assemble("t", "ret bananas").is_err());
    }

    #[test]
    fn undefined_label_errors_with_line() {
        let e = assemble("t", "jmp nowhere\nret pass").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_rejected_with_line() {
        // The error must carry the line of the *second* (duplicate)
        // definition, not the first or the end of input.
        let e = assemble("t", "a:\nret pass\na:\nret drop").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate label `a`"));
        assert_eq!(e.to_string(), "line 3: duplicate label `a`");
        // Same label in different bodies is fine (labels are body-scoped).
        let p = assemble("t", "a:\ntailcall t0\ntail t0\na:\nret pass").unwrap();
        assert_eq!(p.tails.len(), 1);
        // But duplicated inside a tail body is still rejected, with the
        // tail-local line number.
        let e = assemble("t", "tailcall t0\ntail t0\nb:\nb:\nret pass").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let e = assemble("t", "frobnicate r1").unwrap_err();
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn bad_register_rejected() {
        assert!(assemble("t", "ldimm r16, 1\nret pass").is_err());
        assert!(assemble("t", "ldimm rx, 1\nret pass").is_err());
    }

    #[test]
    fn unknown_map_rejected() {
        let e = assemble("t", "ldimm r0, 0\nmapld r1, nosuch, r0\nret pass").unwrap_err();
        assert!(e.message.contains("nosuch"));
    }

    #[test]
    fn map_after_insn_rejected() {
        let e = assemble("t", "ret pass\nmap late 4").unwrap_err();
        assert!(e.message.contains("precede"));
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(assemble("t", "ldimm r0\nret pass").is_err());
        assert!(assemble("t", "jeq r0, 1\nret pass").is_err());
    }

    #[test]
    fn flow_counter_tail_syntax() {
        let src = "
            flowmap per_flow 2 128
            counter pkts
            ldctx r0, pkt_len
            flowadd per_flow, 0, r0
            flowld r1, per_flow, 0
            cntadd pkts, 1
            tailcall fin
            tail fin
            ; tail entry is uninitialized for the verifier: re-derive
            ; state from the flow map rather than relying on carry-over.
            flowld r2, per_flow, 0
            setmark r2
            ret pass
        ";
        let p = assemble_ok(src);
        assert_eq!(p.flow_maps, vec![FlowMapSpec::new("per_flow", 2, 128)]);
        assert_eq!(p.counters, vec!["pkts".to_string()]);
        assert_eq!(p.tails.len(), 1);
        let mut vm = Vm::new(p);
        let e = vm
            .run(&PktCtx {
                flow_key: 7,
                pkt_len: 900,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(e.mark, 900);
        assert_eq!(vm.counter_get(0), Some(1));
        assert_eq!(vm.flow_get(0, 7, 0), Some(900));
    }

    #[test]
    fn unknown_flowmap_counter_tail_rejected() {
        assert!(assemble("t", "flowld r0, nosuch, 0\nret pass")
            .unwrap_err()
            .message
            .contains("unknown flowmap"));
        assert!(assemble("t", "cntadd nosuch, 1\nret pass")
            .unwrap_err()
            .message
            .contains("unknown counter"));
        assert!(assemble("t", "tailcall nosuch\nret pass")
            .unwrap_err()
            .message
            .contains("undefined tail"));
        assert!(assemble("t", "ret pass\nflowmap late 1 1")
            .unwrap_err()
            .message
            .contains("precede"));
        assert!(assemble("t", "ret pass\ncounter late")
            .unwrap_err()
            .message
            .contains("precede"));
    }

    /// A tiny deterministic PRNG (xorshift64*) so the round-trip
    /// property test needs no external crates.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Generates a random body of `len` instructions with all indices in
    /// range; the last instruction is a return so the body is closed.
    fn random_body(rng: &mut XorShift, len: usize, p: &ProgramShape) -> Vec<Insn> {
        let reg = |rng: &mut XorShift| Reg(rng.below(16) as u8);
        let operand = |rng: &mut XorShift| {
            if rng.below(2) == 0 {
                Operand::Reg(Reg(rng.below(16) as u8))
            } else {
                Operand::Imm(rng.below(1 << 32))
            }
        };
        let mut insns = Vec::with_capacity(len);
        for pc in 0..len - 1 {
            let insn = match rng.below(12) {
                0 => Insn::LdImm {
                    dst: reg(rng),
                    imm: rng.next(),
                },
                1 => Insn::LdCtx {
                    dst: reg(rng),
                    field: [
                        CtxField::PktLen,
                        CtxField::DstPort,
                        CtxField::Uid,
                        CtxField::Mark,
                        CtxField::EtherType,
                    ][rng.below(5) as usize],
                },
                2 => Insn::Mov {
                    dst: reg(rng),
                    src: operand(rng),
                },
                3 => Insn::Alu {
                    op: [AluOp::Add, AluOp::Xor, AluOp::Shl, AluOp::Min][rng.below(4) as usize],
                    dst: reg(rng),
                    src: operand(rng),
                },
                4 => Insn::Jmp {
                    target: rng.below(len as u64) as usize,
                },
                5 => Insn::JmpIf {
                    cmp: [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][rng.below(3) as usize],
                    lhs: reg(rng),
                    rhs: operand(rng),
                    target: rng.below(len as u64) as usize,
                },
                6 if p.maps > 0 => Insn::MapAdd {
                    map: rng.below(p.maps as u64) as usize,
                    key: reg(rng),
                    src: reg(rng),
                },
                7 if p.flow_maps > 0 => Insn::FlowAdd {
                    map: rng.below(p.flow_maps as u64) as usize,
                    slot: operand(rng),
                    src: reg(rng),
                },
                8 if p.counters > 0 => Insn::CntAdd {
                    counter: rng.below(p.counters as u64) as usize,
                    src: operand(rng),
                },
                9 if p.tails > 0 => Insn::TailCall {
                    tail: rng.below(p.tails as u64) as usize,
                },
                10 => Insn::SetMark { src: reg(rng) },
                _ => Insn::Ret {
                    verdict: [
                        Verdict::Pass,
                        Verdict::Drop,
                        Verdict::SlowPath,
                        Verdict::Class(rng.below(8) as u32),
                        Verdict::Redirect(rng.below(8) as u32),
                    ][rng.below(5) as usize],
                },
            };
            let _ = pc;
            insns.push(insn);
        }
        insns.push(if rng.below(4) == 0 {
            Insn::RetReg { src: reg(rng) }
        } else {
            Insn::Ret {
                verdict: Verdict::Pass,
            }
        });
        insns
    }

    struct ProgramShape {
        maps: usize,
        flow_maps: usize,
        counters: usize,
        tails: usize,
    }

    #[test]
    fn assemble_disassemble_round_trip_property() {
        // Seeded property test: for many random (not necessarily
        // verifiable) programs, assemble(disassemble(p)) == p exactly —
        // declarations, instruction streams, tails, names and all.
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..200 {
            let shape = ProgramShape {
                maps: rng.below(3) as usize,
                flow_maps: rng.below(3) as usize,
                counters: rng.below(3) as usize,
                tails: rng.below(3) as usize,
            };
            let main_len = 2 + rng.below(20) as usize;
            let mut decls = Vec::new();
            for i in 0..shape.maps {
                decls.push(MapSpec::new(format!("am{i}"), 1 + rng.below(64) as usize));
            }
            let mut p = Program::new(
                format!("rt{case}"),
                random_body(&mut rng, main_len, &shape),
                decls,
            );
            for i in 0..shape.flow_maps {
                p = p.with_flow_map(FlowMapSpec::new(
                    format!("fm{i}"),
                    1 + rng.below(8) as usize,
                    1 + rng.below(256) as usize,
                ));
            }
            for i in 0..shape.counters {
                p = p.with_counter(format!("cn{i}"));
            }
            for i in 0..shape.tails {
                let tail_len = 2 + rng.below(10) as usize;
                let body = random_body(&mut rng, tail_len, &shape);
                p = p.with_tail(format!("tl{i}"), body);
            }
            let text = disassemble(&p);
            let back = assemble(&p.name, &text).unwrap_or_else(|e| {
                panic!("case {case}: disassembly did not re-assemble: {e}\n{text}")
            });
            assert_eq!(p, back, "case {case} round-trip mismatch:\n{text}");
            // And the round trip is a fixed point: disassembling the
            // re-assembled program reproduces the same text.
            assert_eq!(text, disassemble(&back), "case {case} not a fixed point");
        }
    }

    #[test]
    fn builtin_programs_round_trip() {
        for p in crate::builtins::all() {
            let text = disassemble(&p);
            let back = assemble(&p.name, &text)
                .unwrap_or_else(|e| panic!("builtin '{}' round trip failed: {e}", p.name));
            assert_eq!(p, back, "builtin '{}' round-trip mismatch", p.name);
        }
    }

    #[test]
    fn assembled_filter_counts_cycles() {
        let src = "
            ldctx r0, is_arp
            jeq r0, 1, tap
            ret pass
            tap:
            ret redirect 0
        ";
        let p = assemble_ok(src);
        let mut vm = Vm::new(p);
        let e = vm
            .run(&PktCtx {
                is_arp: true,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(e.verdict, Verdict::Redirect(0));
        assert_eq!(e.cycles, 3);
    }
}
