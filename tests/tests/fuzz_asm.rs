//! Seeded no-panic fuzzing of the overlay assembler and what follows it.
//!
//! `overlay::assemble` reads policy text the control plane is handed, so
//! no text may panic it. Inputs are a small corpus of valid programs —
//! every mnemonic, declaration and `ret` form between them — put through
//! one to four seeded mutations each: byte flips, truncations, swapped
//! tokens, huge immediates, duplicated lines (duplicate labels and
//! declarations) and lines spliced in from another program. Every
//! program that assembles goes through `verify`, then `compile`, and
//! whenever its declared state is small enough to allocate — verified
//! or not — runs in lockstep with the interpreter over a stream of
//! packets, which must agree on every observable.
//!
//! Tier-1 runs a few thousand inputs; the `#[ignore]`d run of 100k is
//! the `overlay-diff` CI job's (`cargo test --test fuzz_asm -- --ignored`).
//! A panic names its seed and input, and the run is deterministic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use overlay::{assemble, compile, verify, PktCtx, Program, Vm};
use sim::DetRng;

/// Valid programs between which every mnemonic, declaration and `ret`
/// form appears.
const CORPUS: [&str; 4] = [
    "
    map rules 65536
    ldctx r3, egress
    jeq r3, 1, eg
    ldctx r0, dst_port
    jmp check
    eg:
    ldctx r0, src_port
    check:
    mapld r1, rules, r0
    jeq r1, 0, allow
    ldctx r2, uid
    add r2, 1
    jeq r1, r2, allow
    ret drop
    allow:
    ret pass
    ",
    "
    map params 2
    map tokens 256
    ldctx r0, uid
    and r0, 0xff
    ldctx r1, now_ns
    div r1, 1000
    ldimm r4, 0
    mapld r3, params, r4
    mul r1, r3
    mapld r5, tokens, r0
    mapadd tokens, r0, r1
    min r5, r1
    ldctx r7, pkt_len
    jge r5, r7, allow
    mapst tokens, r0, r5
    ret drop
    allow:
    sub r5, r7
    shl r5, 2
    shr r5, r7
    mod r5, 3
    ret class 2
    ",
    "
    map params 1
    flowmap meter 2 4096
    counter pkts
    counter bytes
    ldctx r0, pkt_len
    flowadd meter, 0, r0      ; per-flow bytes
    ldimm r1, 1
    flowst meter, 1, r1       # per-flow packets
    cntadd pkts, 1
    cntadd bytes, r0
    mapld r3, params, r1
    jeq r3, 0, out
    flowld r4, meter, r1
    jgt r4, r3, big
    out:
    ret pass
    big:
    tailcall elephant
    tail elephant
    ldimm r5, 1
    setmark r5
    ldctx r6, mark
    jne r6, 1, odd
    ret slowpath
    odd:
    ret redirect 7
    ",
    "
    map classmap 256
    ldctx r0, dscp
    ldctx r8, proto
    ldctx r9, src_ip
    ldctx r10, dst_ip
    ldctx r11, pid
    ldctx r12, flow_hash
    ldctx r13, conn_id
    ldctx r14, ethertype
    ldctx r15, is_arp
    mov r2, r15
    mov r3, 9
    xor r2, r3
    or r2, r14
    max r2, r13
    mapld r1, classmap, r0
    jle r1, 0, default
    jlt r2, r12, default
    sub r1, 1
    shl r1, 8
    or r1, 2
    ret r1
    default:
    ret class 0
    ",
];

/// Numbers a mutation may substitute: the edges of `u64`, of `u32`, and
/// past them.
const HUGE: [&str; 7] = [
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "0xffffffffffffffff",
    "4294967296",
    "1048577",
    "99999999999999999999999",
];

/// Bytes a flip may write: the assembler's own punctuation, digits and
/// letters, and bytes no source should hold.
const BYTES: &[u8] = b":;#, \n\trmx019_-\x00\xff";

fn mutate(rng: &mut DetRng, src: &str) -> String {
    let mut s = src.to_string();
    for _ in 0..rng.range_usize(1, 5) {
        s = match rng.range_usize(0, 7) {
            0 => {
                let mut b = s.into_bytes();
                if !b.is_empty() {
                    let i = rng.range_usize(0, b.len());
                    b[i] = if rng.chance(0.5) {
                        *rng.pick(BYTES)
                    } else {
                        b[i] ^ (1 << rng.range_usize(0, 8))
                    };
                }
                String::from_utf8_lossy(&b).into_owned()
            }
            1 => {
                let cut = rng.range_usize(0, s.len() + 1);
                String::from_utf8_lossy(&s.as_bytes()[..cut]).into_owned()
            }
            2 => swap_tokens(rng, &s),
            3 => replace_number(rng, &s),
            4 => {
                // A duplicated line: a label, a declaration or a `tail`
                // twice, or an instruction repeated.
                let mut lines: Vec<&str> = s.lines().collect();
                if !lines.is_empty() {
                    let i = rng.range_usize(0, lines.len());
                    let at = rng.range_usize(0, lines.len() + 1);
                    lines.insert(at, lines[i]);
                }
                lines.join("\n")
            }
            5 => {
                let donor: Vec<&str> = rng.pick(&CORPUS).lines().collect();
                let mut lines: Vec<&str> = s.lines().collect();
                let at = rng.range_usize(0, lines.len() + 1);
                lines.insert(at, *rng.pick(&donor));
                lines.join("\n")
            }
            _ => {
                let mut lines: Vec<&str> = s.lines().collect();
                if !lines.is_empty() {
                    lines.remove(rng.range_usize(0, lines.len()));
                }
                lines.join("\n")
            }
        };
    }
    s
}

/// Splits into alternating separator and token runs, so swapping two
/// tokens keeps everything between them.
fn pieces(s: &str) -> Vec<(bool, &str)> {
    let is_sep = |c: char| c.is_whitespace() || c == ',';
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(c) = rest.chars().next() {
        let sep = is_sep(c);
        let end = rest.find(|d: char| is_sep(d) != sep).unwrap_or(rest.len());
        out.push((!sep, &rest[..end]));
        rest = &rest[end..];
    }
    out
}

fn swap_tokens(rng: &mut DetRng, s: &str) -> String {
    let mut ps = pieces(s);
    let tokens: Vec<usize> = (0..ps.len()).filter(|&i| ps[i].0).collect();
    if tokens.len() >= 2 {
        ps.swap(*rng.pick(&tokens), *rng.pick(&tokens));
    }
    ps.into_iter().map(|(_, p)| p).collect()
}

fn replace_number(rng: &mut DetRng, s: &str) -> String {
    let mut ps = pieces(s);
    let numbers: Vec<usize> = (0..ps.len())
        .filter(|&i| ps[i].0 && ps[i].1.starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    if !numbers.is_empty() {
        ps[*rng.pick(&numbers)].1 = *rng.pick(&HUGE);
    }
    ps.into_iter().map(|(_, p)| p).collect()
}

/// Declared state small enough to allocate twice per input, as the
/// verifier's bounds keep a verified program's.
fn small_state(p: &Program) -> bool {
    p.sram_bytes() <= 16 << 20
}

fn ctx(rng: &mut DetRng, now_ns: u64) -> PktCtx {
    let pick = |rng: &mut DetRng, edges: &[u64]| *rng.pick(edges);
    PktCtx {
        flow_key: u128::from(rng.next_u64() % 4),
        pkt_len: pick(rng, &[0, 64, 1500, 9000]),
        proto: pick(rng, &[0, 6, 17]),
        src_ip: rng.next_u64() as u32,
        dst_ip: rng.next_u64() as u32,
        src_port: pick(rng, &[0, 1, 5432, 65535]) as u16,
        dst_port: pick(rng, &[0, 80, 5432, 65535]) as u16,
        uid: pick(rng, &[0, 1000, 1001, u64::from(u32::MAX)]) as u32,
        pid: rng.next_u64() as u32,
        flow_hash: rng.next_u64() as u32,
        conn_id: pick(rng, &[0, 3, u64::MAX]),
        now_ns,
        ethertype: pick(rng, &[0x0800, 0x0806]) as u16,
        dscp: pick(rng, &[0, 46, 255]) as u8,
        is_arp: rng.chance(0.2),
        egress: rng.chance(0.5),
        mark: pick(rng, &[0, 1, 2, u64::MAX]),
    }
}

/// The interpreter and the compiled engine over the same packets; every
/// observable must agree after every one.
fn lockstep(rng: &mut DetRng, program: &Program, compiled: std::rc::Rc<overlay::CompiledProgram>) {
    let mut vi = Vm::new(program.clone());
    let mut vc = Vm::with_compiled(program.clone(), compiled);
    // A few map entries set, as the control plane would.
    for m in 0..vi.map_state().len() {
        for k in [0, 1, 2, 233, 5432] {
            let v = rng.next_u64() % 2048;
            assert_eq!(vi.map_set(m, k, v), vc.map_set(m, k, v));
        }
    }
    for i in 0..12 {
        let c = ctx(rng, i * 1_000_000);
        assert_eq!(vi.run_interp(&c), vc.run(&c), "packet {i}");
        assert_eq!(vi.last_regs(), vc.last_regs(), "registers, packet {i}");
        assert_eq!(vi.map_state(), vc.map_state(), "maps, packet {i}");
        for m in (0..).take_while(|&m| vi.flow_snapshot(m).is_some()) {
            assert_eq!(vi.flow_snapshot(m), vc.flow_snapshot(m), "flow map {m}");
            assert_eq!(vi.flow_overflow_drops(m), vc.flow_overflow_drops(m));
        }
        assert_eq!(vi.counters(), vc.counters(), "counters, packet {i}");
        assert_eq!((vi.executions, vi.faults), (vc.executions, vc.faults));
    }
}

/// What the pipeline did with the inputs.
#[derive(Debug, Default)]
struct Tally {
    assembled: usize,
    verified: usize,
    compiled: usize,
    lockstepped: usize,
}

fn fuzz(seed: u64, inputs: usize) -> Tally {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for n in 0..inputs {
        let src = mutate(&mut rng, CORPUS[n % CORPUS.len()]);
        let mut case_rng = DetRng::seed_from_u64(rng.next_u64());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(program) = assemble("fuzz", &src) else {
                return;
            };
            tally.assembled += 1;
            let verified = verify(&program).is_ok();
            tally.verified += usize::from(verified);
            let Ok(compiled) = compile(&program) else {
                return;
            };
            tally.compiled += 1;
            if verified || small_state(&program) {
                tally.lockstepped += 1;
                lockstep(&mut case_rng, &program, compiled);
            }
        }));
        if let Err(panic) = outcome {
            eprintln!("seed {seed:#x}, input {n}:\n{src}");
            std::panic::resume_unwind(panic);
        }
    }
    tally
}

#[test]
fn mutated_assembler_text_never_panics_and_runs_in_lockstep() {
    let t = fuzz(0xA55E_4B1E, 4_000);
    // The mutations must leave a real share of inputs runnable, or the
    // lockstep half of the fuzzer tests nothing.
    assert!(t.assembled > 400 && t.verified > 200, "{t:?}");
    assert!(t.lockstepped >= t.verified, "{t:?}");
}

#[test]
#[ignore = "100k inputs: the overlay-diff CI job runs it with --ignored"]
fn hundred_thousand_mutated_programs_never_panic() {
    let t = fuzz(0x0F0F_1234, 100_000);
    assert!(t.assembled > 10_000 && t.verified > 5_000, "{t:?}");
}
