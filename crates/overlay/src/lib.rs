//! The FPGA *overlay*: a domain-specific soft processor for dataplane
//! policies.
//!
//! The paper (§4.4) proposes loading queueing and filtering policies onto
//! the SmartNIC not by reprogramming the FPGA bitstream (seconds of
//! downtime) but by loading small *programs* into an overlay — "a custom,
//! potentially non-Turing-complete processor with a domain-specific
//! instruction set". This crate is that processor:
//!
//! * `isa` — a 16-register machine with packet-context loads, ALU ops,
//!   forward-only branches, bounded state maps, and terminal verdicts
//!   ([`Verdict::Pass`], [`Verdict::Drop`], class assignment, queue
//!   redirect, and the software slow-path escape hatch from §5).
//! * `verify` — a load-time verifier in the spirit of eBPF's: programs
//!   must be bounded (forward jumps only, so execution length ≤ program
//!   length), must initialize registers before reading them, must end
//!   every path in a `ret`, and may only touch declared maps.
//! * `vm` — the interpreter, charging one overlay cycle per instruction
//!   so the NIC pipeline can account for policy complexity in time.
//! * `asm` — a small text assembler so policies read like policies.
//! * [`builtins`] — the canned policies the experiments load: owner-aware
//!   port filters, token buckets, DSCP classifiers, and an ARP tap.
//!
//! Non-Turing-completeness is load-bearing: because verified programs
//! always terminate within `len(program)` cycles, the kernel control
//! plane can hot-swap policies without risking a wedged dataplane.

pub(crate) mod asm;
pub mod builtins;
pub(crate) mod compile;
pub(crate) mod isa;
pub(crate) mod program;
pub(crate) mod verify;
pub(crate) mod vm;

pub use asm::assemble;
pub use compile::{compile, CompiledProgram, MAX_COMPILED_INSNS};
pub use isa::{AluOp, CmpOp, CtxField, Insn, Operand, Reg, Verdict};
pub use program::{FlowMapSpec, MapSpec, Program};
pub use verify::{verify, VerifyError};
pub use vm::{PktCtx, Vm};
