//! The unified, transactional control plane: the *only* writer of
//! dataplane policy.
//!
//! The paper's architecture (§4.4) has exactly one configurer of the
//! on-path SmartNIC — the kernel. This module enforces that shape in the
//! simulator: every policy the administrator can express (port
//! reservations, per-user shaping, capture filters, raw accounting
//! programs) lives in one kernel-resident [`PolicyStore`], compiles into
//! one [`PolicyBundle`] (overlay programs, map fills, scheduler weights,
//! register writes), and reaches the NIC only through an epoch-versioned
//! two-phase commit:
//!
//! * **Phase 1 — verify & stage.** The bundle is compiled and every
//!   overlay program is run through the verifier; scheduler weights are
//!   validated. Each verified program is then ahead-of-time compiled to
//!   a native [`CompiledProgram`] artifact, the only form the NIC runs; a
//!   program that verifies but fails to compile aborts phase 1 with
//!   [`CtrlError::CompileRejected`] and bumps `ctrl.compile_rejected` —
//!   the prior bundle stays installed, fingerprint untouched. Nothing
//!   on the NIC changes. A staged bundle is plain kernel memory — a
//!   concurrent app poking MMIO registers can fault all it wants
//!   without corrupting it.
//! * **Phase 2 — swap.** The resident bundle is replaced step by step
//!   and the new **generation number** is written to the NIC's
//!   kernel-only generation register ([`nicsim::POLICY_GENERATION_REG`])
//!   and stamped into every subsequent telemetry event. If any step
//!   fails mid-commit (injectable via [`sim::fault::OpFaultInjector`]),
//!   the control plane rolls the NIC back to the prior bundle and the
//!   generation does not advance — observers never see a
//!   partially-applied policy across a commit boundary.
//!
//! Two more duties round out the OS-owns-the-NIC story:
//!
//! * **Reconciliation.** A bitstream reprogram wipes all NIC-resident
//!   overlay state. The control plane notices (the reprogram counter
//!   moved) and re-derives and reinstalls the full bundle from the
//!   policy store as soon as the dataplane is back — policies survive
//!   new hardware.
//! * **The third audit ledger.** [`ControlPlane::audit`] cross-checks
//!   NIC-resident state (program fingerprints, filter map entries,
//!   scheduler classes, sniffer, the generation register)
//!   against the kernel's policy store, giving `Host::audit` a third,
//!   structurally independent account of the dataplane.

use std::collections::HashMap;
use std::convert::Infallible;
use std::rc::Rc;

use nicsim::device::ProgramSlot;
use nicsim::rss::{RssError, RssTable, MAX_QUEUES, RSS_TABLE_SIZE};
use nicsim::{FlowCacheConfig, NicError, SmartNic, POLICY_GENERATION_REG};
use overlay::{builtins, CompiledProgram, Program, VerifyError};
use qdisc::compile::{self, SchedCompileError};
use sim::audit::{check, check_at, Check, Violation};
use sim::fault::OpFaultInjector;
use sim::Time;
use telemetry::{RecoveryKind, Registry, Telemetry};

use crate::policy::{PortReservation, ShapingPolicy};
use nicsim::SnifferFilter;

/// Commit history entries kept for `npolicy status`.
const HISTORY_CAP: usize = 64;

/// Kernel RSS steering policy: the queue count and, optionally, an
/// explicit indirection table. An empty `indirection` means "spread
/// uniformly" (entry `i` → queue `i % num_queues`); a non-empty one must
/// have exactly [`nicsim::RSS_TABLE_SIZE`] entries, each naming a live
/// queue. Like every other policy, RSS reaches the NIC only through the
/// two-phase commit — a half-written steering table would misdeliver
/// frames to workers that do not own their connections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RssPolicy {
    /// RX/TX queue pairs to expose (`1..=nicsim::MAX_QUEUES`).
    pub num_queues: usize,
    /// Explicit indirection table, or empty for uniform spread.
    pub indirection: Vec<u16>,
}

impl RssPolicy {
    /// Uniform steering across `num_queues` queues.
    pub fn uniform(num_queues: usize) -> RssPolicy {
        RssPolicy {
            num_queues,
            indirection: Vec::new(),
        }
    }
}

/// Kernel overload-degradation policy (the paper's §5 mitigation made
/// kernel-programmable): when fast-path ring pressure stays above
/// `high_watermark` across a detection window, the host demotes flows
/// whose local port is listed in `low_prio_ports` to the software slow
/// path — freeing ring/LLC budget for everyone else — and promotes them
/// back once pressure falls below `low_watermark`. The policy is
/// kernel-side state: it rides the two-phase commit like every other
/// policy but installs nothing on the NIC, so it adds no NIC-audit
/// surface.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationPolicy {
    /// Engage degraded mode when the fraction of pressured deliveries in
    /// a window reaches this (0, 1].
    pub high_watermark: f64,
    /// Leave degraded mode when the fraction falls to or below this.
    pub low_watermark: f64,
    /// Detection-window length in fast-path delivery attempts.
    pub window: u64,
    /// Local (destination) ports whose flows are demoted first.
    pub low_prio_ports: Vec<u16>,
}

/// The kernel's complete, authoritative policy state. Mutated only
/// inside [`ControlPlane::update`]-style transactions; the store never
/// diverges from the installed bundle except while a reconcile is
/// pending after a bitstream reprogram.
#[derive(Clone, Debug, Default)]
pub struct PolicyStore {
    /// Port reservations (lowered to ingress+egress owner filters).
    pub reservations: Vec<PortReservation>,
    /// Per-user WFQ shaping (lowered to a classifier + scheduler
    /// weights).
    pub shaping: Option<ShapingPolicy>,
    /// Capture-tap filter, when sniffing is on.
    pub sniffer: Option<SnifferFilter>,
    /// Raw passive accounting programs (verdicts ignored).
    pub accounting: Vec<Program>,
    /// RSS steering (queue count + indirection). `None` leaves the NIC's
    /// boot-time configuration untouched, so unrelated commits never
    /// perturb queue steering.
    pub rss: Option<RssPolicy>,
    /// Overload degradation (watermarks + demotion set). `None` disables
    /// graceful degradation.
    pub degradation: Option<DegradationPolicy>,
    /// Flow-cache tiering policy (hot-tier budget + eviction discipline).
    /// `None` leaves the NIC untiered: every connection charges SRAM, the
    /// boot-time §5 behavior.
    pub flow_cache: Option<FlowCacheConfig>,
}

/// Everything phase 2 installs, in apply order. Compiled from a
/// [`PolicyStore`] by [`PolicyBundle::compile`]; immutable afterwards.
#[derive(Clone, Debug)]
pub(crate) struct PolicyBundle {
    /// Programs per overlay slot, each with its ahead-of-time compiled
    /// artifact. The artifact is stamped with the source program's
    /// fingerprint, and rollback and reconcile reinstall it as is — only
    /// phase 1 ever compiles.
    programs: Vec<(ProgramSlot, Program, Rc<CompiledProgram>)>,
    /// `(slot, map, key, value)` MMIO data writes after load.
    map_fills: Vec<(ProgramSlot, usize, usize, u64)>,
    /// Scheduler weights (always at least one class).
    sched_weights: Vec<f64>,
    /// Passive accounting programs with their compiled artifacts.
    accounting: Vec<(Program, Rc<CompiledProgram>)>,
    /// Capture-tap filter.
    sniffer: Option<SnifferFilter>,
    /// RSS steering, fully resolved: `(num_queues, explicit indirection
    /// table)`. `None` = the store has no RSS policy; the NIC keeps its
    /// boot configuration.
    rss: Option<(usize, Vec<u16>)>,
    /// Overload degradation policy, validated. Kernel-side only: apply
    /// installs nothing on the NIC for it.
    degradation: Option<DegradationPolicy>,
    /// Flow-cache tiering policy, validated and normalized (port lists
    /// sorted + deduped, so audit equality against the NIC is exact).
    flow_cache: Option<FlowCacheConfig>,
}

impl PolicyBundle {
    /// The boot-time bundle: pass-through overlay, single-class
    /// scheduler, no taps.
    pub(crate) fn empty() -> PolicyBundle {
        PolicyBundle {
            programs: Vec::new(),
            map_fills: Vec::new(),
            sched_weights: vec![1.0],
            accounting: Vec::new(),
            sniffer: None,
            rss: None,
            degradation: None,
            flow_cache: None,
        }
    }

    /// Phase 1: lowers the store to an installable bundle, running every
    /// program through the overlay verifier and validating scheduler
    /// weights. Pure — no NIC state is touched.
    pub(crate) fn compile(store: &PolicyStore) -> Result<PolicyBundle, CtrlError> {
        let mut programs = Vec::new();
        let mut map_fills = Vec::new();

        // One owner per port: the filter map holds one uid per port, so
        // two owners would leave the NIC enforcing the last one written
        // while the kernel admits by the first.
        let mut owners = HashMap::new();
        for r in &store.reservations {
            let owner = (r.uid, &r.comm);
            if *owners.entry(r.port).or_insert(owner) != owner {
                return Err(CtrlError::Compile(Refusal::PortOwners(r.port)));
            }
        }
        if !store.reservations.is_empty() {
            for slot in [ProgramSlot::IngressFilter, ProgramSlot::EgressFilter] {
                programs.push((slot, builtins::port_owner_filter()));
                for r in &store.reservations {
                    // uid+1 in the rules map (0 = unreserved).
                    map_fills.push((slot, 0, r.port as usize, u64::from(r.uid.0) + 1));
                }
            }
        }

        let sched_weights = match &store.shaping {
            Some(policy) => {
                let users: Vec<(u32, f64)> = policy
                    .user_weights
                    .iter()
                    .map(|&(uid, w)| (uid.0, w))
                    .collect();
                let setup = compile::try_compile_uid_wfq(&users, policy.default_weight)
                    .map_err(|e| CtrlError::Compile(Refusal::Shaping(e)))?;
                for (map, key, value) in setup.map_fills {
                    map_fills.push((ProgramSlot::Classifier, map, key, value));
                }
                programs.push((ProgramSlot::Classifier, setup.program));
                setup.class_weights
            }
            None => vec![1.0],
        };

        let rss = match &store.rss {
            Some(policy) => {
                if !(1..=MAX_QUEUES).contains(&policy.num_queues) {
                    return Err(CtrlError::Compile(Refusal::RssQueues(policy.num_queues)));
                }
                let table: Vec<u16> = if policy.indirection.is_empty() {
                    (0..RSS_TABLE_SIZE)
                        .map(|i| (i % policy.num_queues) as u16)
                        .collect()
                } else {
                    policy.indirection.clone()
                };
                RssTable::validated(policy.num_queues, &table)
                    .map_err(|e| CtrlError::Compile(Refusal::RssTable(e)))?;
                Some((policy.num_queues, table))
            }
            None => None,
        };

        let flow_cache = match &store.flow_cache {
            Some(fc) => {
                if fc.hot_capacity == 0 {
                    return Err(CtrlError::Compile(Refusal::FlowCacheCapacity));
                }
                // Normalize the port lists so audit can compare the
                // installed config against the bundle with plain equality.
                let mut fc = fc.clone();
                fc.high_prio_ports.sort_unstable();
                fc.high_prio_ports.dedup();
                fc.pinned_ports.sort_unstable();
                fc.pinned_ports.dedup();
                Some(fc)
            }
            None => None,
        };

        if let Some(d) = &store.degradation {
            let (high, low) = (d.high_watermark, d.low_watermark);
            if !(high > 0.0 && high <= 1.0) {
                return Err(CtrlError::Compile(Refusal::HighWatermark(high)));
            }
            if !(low >= 0.0 && low < high) {
                return Err(CtrlError::Compile(Refusal::LowWatermark(low, high)));
            }
            if d.window == 0 {
                return Err(CtrlError::Compile(Refusal::DegradationWindow));
            }
        }

        // Verify every program the bundle would install (the load path
        // verifies again; this keeps phase 1 side-effect-free while
        // still refusing bad bundles before anything is staged), then
        // ahead-of-time compile each one to a native artifact. An AOT
        // failure after a clean verify is a `CompileRejected`: the commit
        // never reaches phase 2, so the resident bundle (and its
        // fingerprints) survive.
        let aot = |program: &Program, accounting: bool| -> Result<Rc<CompiledProgram>, CtrlError> {
            overlay::verify(program).map_err(|error| {
                CtrlError::Compile(Refusal::Verify {
                    program: program.name.clone(),
                    accounting,
                    error,
                })
            })?;
            overlay::compile(program).map_err(|e| CtrlError::CompileRejected {
                program: program.name.clone(),
                reason: e.to_string(),
            })
        };
        let programs = programs
            .into_iter()
            .map(|(slot, program)| {
                let artifact = aot(&program, false)?;
                Ok((slot, program, artifact))
            })
            .collect::<Result<Vec<_>, CtrlError>>()?;
        let accounting = store
            .accounting
            .iter()
            .map(|program| {
                let artifact = aot(program, true)?;
                Ok((program.clone(), artifact))
            })
            .collect::<Result<Vec<_>, CtrlError>>()?;

        Ok(PolicyBundle {
            programs,
            map_fills,
            sched_weights,
            accounting,
            sniffer: store.sniffer,
            rss,
            degradation: store.degradation.clone(),
            flow_cache,
        })
    }

    fn program_for(&self, slot: ProgramSlot) -> Option<&Program> {
        self.programs
            .iter()
            .find(|(s, _, _)| *s == slot)
            .map(|(_, p, _)| p)
    }
}

/// Why phase 1 refused a policy store.
#[derive(Debug)]
pub enum Refusal {
    /// Two reservations give this port different owners.
    PortOwners(u16),
    /// The shaping weights do not compile to a scheduler.
    Shaping(SchedCompileError),
    /// This RSS queue count is outside `1..=MAX_QUEUES`.
    RssQueues(usize),
    /// The RSS indirection table does not fit the queue count.
    RssTable(RssError),
    /// The flow cache's hot tier has no capacity.
    FlowCacheCapacity,
    /// This degradation high watermark is outside `(0, 1]`.
    HighWatermark(f64),
    /// This degradation low watermark (first) is outside `[0, high)`
    /// for the high watermark (second).
    LowWatermark(f64, f64),
    /// The degradation window is zero frames.
    DegradationWindow,
    /// The overlay verifier refused a program of the bundle.
    Verify {
        /// Name of the refused program.
        program: String,
        /// Whether it is an accounting program (else a slot's program).
        accounting: bool,
        /// The verifier's reason.
        error: VerifyError,
    },
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::PortOwners(port) => write!(f, "port {port} reserved for two owners"),
            Refusal::Shaping(e) => write!(f, "{e}"),
            Refusal::RssQueues(n) => write!(f, "RSS queue count {n} outside 1..={MAX_QUEUES}"),
            Refusal::RssTable(e) => write!(f, "RSS policy rejected: {e}"),
            Refusal::FlowCacheCapacity => f.write_str("flow cache hot capacity must be nonzero"),
            Refusal::HighWatermark(high) => {
                write!(f, "degradation high watermark {high} outside (0, 1]")
            }
            Refusal::LowWatermark(low, high) => write!(
                f,
                "degradation low watermark {low} must be in [0, high {high})"
            ),
            Refusal::DegradationWindow => f.write_str("degradation window must be nonzero"),
            Refusal::Verify {
                program,
                accounting,
                error,
            } => {
                let kind = if *accounting { "accounting" } else { "program" };
                write!(f, "{kind} '{program}' rejected: {error}")
            }
        }
    }
}

/// Control-plane failures.
#[derive(Debug)]
pub enum CtrlError {
    /// Phase 1 refused the policy (verifier, weights, port conflicts).
    Compile(Refusal),
    /// Phase 1 verified a program but could not ahead-of-time compile
    /// it to a native artifact. The commit aborts before phase 2: the
    /// prior bundle stays installed with its fingerprints intact, and
    /// `ctrl.compile_rejected` counts the refusal.
    CompileRejected {
        /// Name of the program the AOT compiler refused.
        program: String,
        /// Compiler diagnostic.
        reason: String,
    },
    /// The dataplane is down for a bitstream reprogram.
    Frozen {
        /// When it comes back.
        until: Time,
    },
    /// Phase 2 failed; the NIC was rolled back to the prior generation.
    CommitFailed(Failure),
    /// Phase 2 failed *and* the rollback failed — the NIC state is
    /// undefined. Only reachable if the fault model breaks the
    /// recovery path's invariants; treated as fatal by callers.
    RollbackFailed(Failure),
    /// The device died mid-transaction (the commit's failure), or was
    /// already dead (`None`: the commit was refused before any step), so
    /// neither the commit nor the rollback could reach it. Unlike
    /// [`CtrlError::RollbackFailed`] this is *not* fatal: the kernel
    /// store keeps the prior committed policy, and reconcile reinstalls
    /// it after the device is reset — the transaction simply aborted.
    DeviceLost(Option<Failure>),
}

/// One operation of phase 2's apply, in the order apply issues them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Empty an overlay slot the bundle does not fill.
    UnloadProgram,
    /// Remove one resident accounting program.
    ClearAccounting,
    /// Hot-swap a program into its overlay slot.
    LoadProgram,
    /// Write one map entry of a loaded program.
    FillMap,
    /// Reprogram the TX scheduler's class weights.
    ConfigureScheduler,
    /// Reprogram RSS steering (queue count and indirection table).
    ConfigureRss,
    /// Reprogram flow-cache tiering.
    ConfigureFlowCache,
    /// Install one accounting program.
    AddAccounting,
    /// Switch the capture tap on or off.
    Sniffer,
}

impl Step {
    /// This step failed for `cause`.
    fn failed(self, cause: Cause) -> Failure {
        Failure { step: self, cause }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Step::UnloadProgram => "unload_program",
            Step::ClearAccounting => "clear_accounting",
            Step::LoadProgram => "load_program",
            Step::FillMap => "fill_map",
            Step::ConfigureScheduler => "configure_scheduler",
            Step::ConfigureRss => "configure_rss",
            Step::ConfigureFlowCache => "configure_flow_cache",
            Step::AddAccounting => "add_accounting",
            Step::Sniffer => "sniffer",
        })
    }
}

/// Why an apply step failed.
#[derive(Debug)]
pub enum Cause {
    /// The op-fault injector failed it.
    Injected,
    /// The commit watchdog's op budget ran out before it.
    Watchdog,
    /// The NIC refused it.
    Nic(NicError),
}

/// The apply step that failed, and why.
#[derive(Debug)]
pub struct Failure {
    /// The step.
    pub step: Step,
    /// Why it failed.
    pub cause: Cause,
}

impl Failure {
    /// Wraps the NIC's refusal of `step` (for `map_err`).
    fn nic(step: Step) -> impl FnOnce(NicError) -> Failure {
        move |e| step.failed(Cause::Nic(e))
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let step = self.step;
        match &self.cause {
            Cause::Injected => write!(f, "{step} (injected)"),
            Cause::Watchdog => write!(f, "{step} (watchdog: op deadline exceeded)"),
            Cause::Nic(e) => write!(f, "{step}: {e}"),
        }
    }
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::Compile(e) => write!(f, "policy rejected: {e}"),
            CtrlError::CompileRejected { program, reason } => {
                write!(
                    f,
                    "program '{program}' verified but failed native compilation: \
                     {reason}; prior bundle retained"
                )
            }
            CtrlError::Frozen { until } => write!(f, "dataplane reprogramming until {until}"),
            CtrlError::CommitFailed(step) => {
                write!(
                    f,
                    "commit failed at {step}; rolled back to prior generation"
                )
            }
            CtrlError::RollbackFailed(step) => {
                write!(f, "rollback failed at {step}; NIC state undefined")
            }
            CtrlError::DeviceLost(Some(step)) => {
                write!(
                    f,
                    "commit aborted at {step}: device dead; reconcile after reset"
                )
            }
            CtrlError::DeviceLost(None) => {
                write!(f, "commit refused: device dead; reconcile after reset")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

/// What a history entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitAction {
    /// A bundle was committed under a new generation.
    Committed,
    /// A commit failed mid-apply and the prior bundle was restored.
    RolledBack,
    /// The bundle was reinstalled after a bitstream reprogram.
    Reconciled,
    /// A commit was abandoned because the device died mid-transaction;
    /// the prior policy is reinstalled later by reconcile-after-reset.
    Aborted,
}

/// One line of commit history.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// The generation in force *after* the action.
    pub generation: u64,
    /// Virtual time of the action.
    pub at: Time,
    /// What happened.
    pub action: CommitAction,
}

/// Control-plane counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtrlStats {
    /// Successful commits (== generation).
    pub commits: u64,
    /// Mid-commit failures recovered by rollback.
    pub rollbacks: u64,
    /// Bundle reinstalls after bitstream reprograms.
    pub reconciles: u64,
    /// Individual apply operations executed (including rollbacks).
    pub apply_ops: u64,
    /// Commits abandoned because the device died mid-transaction.
    pub(crate) aborts: u64,
    /// Commits the watchdog cancelled for exceeding their op deadline.
    pub watchdog_aborts: u64,
    /// Phase-1 refusals where a program verified but the ahead-of-time
    /// compiler rejected it (the prior bundle stayed installed).
    pub compile_rejected: u64,
}

/// The kernel control plane: policy store, installed bundle, generation
/// counter, and the commit/reconcile machinery.
pub struct ControlPlane {
    store: PolicyStore,
    installed: PolicyBundle,
    generation: u64,
    /// Scheduler weights currently programmed — the scheduler holds
    /// queued frames and per-class counters, so apply only reconfigures
    /// it when the weights actually change.
    applied_weights: Vec<f64>,
    /// RSS configuration the control plane has programmed, if any
    /// (`None` = the NIC still runs its boot-time steering). Reprogramming
    /// the indirection table mid-stream would re-steer in-flight flows,
    /// so apply only touches it on actual change — the same idempotence
    /// discipline as `applied_weights`.
    applied_rss: Option<(usize, Vec<u16>)>,
    /// Flow-cache tiering config currently programmed (`None` = the NIC
    /// still runs untiered boot behavior). Re-tiering moves entries
    /// between SRAM and host memory, so apply only touches it on actual
    /// change — the same idempotence discipline as `applied_rss`.
    applied_flow_cache: Option<FlowCacheConfig>,
    /// Bitstream reprograms already reflected in NIC-resident state.
    reprograms_seen: u64,
    /// Device resets already reconciled. A crash+reset wipes the NIC
    /// back to power-on, so every reset requires a full reinstall.
    resets_seen: u64,
    /// Commit watchdog: the op budget a single phase-2 transaction may
    /// spend before it is presumed wedged and aborted to rollback.
    /// `None` disables the deadline. Rollback and reconcile are exempt —
    /// recovery must always be allowed to finish.
    watchdog_ops: Option<u64>,
    faults: OpFaultInjector,
    stats: CtrlStats,
    history: Vec<CommitRecord>,
    tel: Telemetry,
}

impl ControlPlane {
    /// Creates a boot-state control plane sharing the host's telemetry
    /// hub (generation stamps).
    pub fn new(tel: Telemetry) -> ControlPlane {
        ControlPlane {
            store: PolicyStore::default(),
            installed: PolicyBundle::empty(),
            generation: 0,
            applied_weights: vec![1.0],
            applied_rss: None,
            applied_flow_cache: None,
            reprograms_seen: 0,
            resets_seen: 0,
            watchdog_ops: None,
            faults: OpFaultInjector::never(),
            stats: CtrlStats::default(),
            history: Vec::new(),
            tel,
        }
    }

    /// The authoritative policy store.
    pub(crate) fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// The installed policy generation (0 = boot, nothing committed).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Control-plane counters.
    pub fn stats(&self) -> CtrlStats {
        self.stats
    }

    /// Commit history, oldest first (bounded).
    pub(crate) fn history(&self) -> &[CommitRecord] {
        &self.history
    }

    /// Arms (or disarms) fault injection on phase-2 apply steps. The
    /// injector is consulted once per operation during commits — never
    /// during rollback or reconcile — so chaos schedules replay
    /// deterministically.
    pub(crate) fn set_fault_injector(&mut self, faults: OpFaultInjector) {
        self.faults = faults;
    }

    /// Arms (or disarms, with `None`) the commit watchdog: a phase-2
    /// transaction that issues more than `ops` apply operations is
    /// presumed stalled, cancelled, and rolled back — so a wedged or
    /// dying device can never hold the control plane mid-commit forever.
    pub(crate) fn set_commit_watchdog(&mut self, ops: Option<u64>) {
        self.watchdog_ops = ops;
    }

    /// The flow-cache policy of the *installed* (committed) bundle, if
    /// any — what the NIC's tiering machinery currently enforces.
    pub(crate) fn flow_cache(&self) -> Option<&FlowCacheConfig> {
        self.installed.flow_cache.as_ref()
    }

    /// The degradation policy of the *installed* (committed) bundle, if
    /// any — what the host's overload detector enforces.
    pub(crate) fn degradation(&self) -> Option<&DegradationPolicy> {
        self.installed.degradation.as_ref()
    }

    /// Phase 1: applies `mutate` to a scratch copy of the store and
    /// compiles + verifies the result, ahead-of-time compiling every
    /// verified program to its native artifact. The live store, the
    /// NIC, and the generation are untouched; the only mutation is the
    /// `ctrl.compile_rejected` counter when the AOT compiler refuses a
    /// verified program.
    fn stage(
        &mut self,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<(PolicyStore, PolicyBundle), CtrlError> {
        let mut store = self.store.clone();
        mutate(&mut store);
        let bundle = PolicyBundle::compile(&store).inspect_err(|e| {
            if matches!(e, CtrlError::CompileRejected { .. }) {
                self.stats.compile_rejected += 1;
            }
        })?;
        Ok((store, bundle))
    }

    /// Phase 2: atomically swaps the staged bundle in under a new
    /// generation. On a mid-commit failure the prior bundle is fully
    /// reinstalled (rollback), the generation does not advance, and the
    /// store keeps its previous contents.
    fn commit_staged(
        &mut self,
        nic: &mut SmartNic,
        store: PolicyStore,
        bundle: PolicyBundle,
        now: Time,
    ) -> Result<u64, CtrlError> {
        if nic.is_dead() {
            // A dead device can take no policy at all; even an empty
            // apply would "succeed" without installing anything. Refuse
            // up front — the kernel resets the device, reconcile
            // reinstalls the committed policy, and the caller retries.
            return Err(CtrlError::DeviceLost(None));
        }
        if nic.is_frozen(now) {
            return Err(CtrlError::Frozen {
                until: nic.frozen_until(),
            });
        }
        let prior = self.installed.clone();
        match self.apply(nic, &bundle, now, true) {
            Ok(()) => {
                self.generation += 1;
                self.finish_apply(nic);
                self.store = store;
                self.installed = bundle;
                self.stats.commits += 1;
                self.record(now, CommitAction::Committed);
                Ok(self.generation)
            }
            Err(failure) => {
                // Roll back: reinstall the prior bundle, with fault
                // injection off — recovery must not recurse.
                // `applied_weights` tracks the *actual* scheduler state,
                // so the rollback reconfigures the scheduler only if the
                // failed apply got far enough to change it.
                if let Err(rb_failure) = self.apply(nic, &prior, now, false) {
                    if nic.is_dead() {
                        // The device died mid-commit and cannot even take
                        // the rollback. That is not "NIC state undefined":
                        // the NIC holds *nothing* (volatile state wiped),
                        // the kernel store still holds the prior committed
                        // policy, and reconcile-after-reset reinstalls it
                        // byte-for-byte. Abort the transaction instead of
                        // declaring the control plane wedged.
                        self.stats.aborts += 1;
                        self.record(now, CommitAction::Aborted);
                        self.tel.record_recovery(
                            now,
                            RecoveryKind::CommitAborted,
                            format!("commit aborted at {failure}: device dead"),
                        );
                        return Err(CtrlError::DeviceLost(Some(failure)));
                    }
                    return Err(CtrlError::RollbackFailed(rb_failure));
                }
                self.finish_apply(nic);
                self.stats.rollbacks += 1;
                if let Cause::Watchdog = failure.cause {
                    self.stats.watchdog_aborts += 1;
                    self.tel.record_recovery(
                        now,
                        RecoveryKind::CommitAborted,
                        format!("watchdog cancelled commit at {failure}; rolled back"),
                    );
                }
                self.record(now, CommitAction::RolledBack);
                Err(CtrlError::CommitFailed(failure))
            }
        }
    }

    /// The transaction most callers want: stage + commit in one call.
    /// On any failure the store is left exactly as before.
    ///
    /// `_unused` is always `None` (`Infallible` has no value); it stays
    /// only because normanbench's bare-NIC replay passes `&mut None`.
    pub fn update(
        &mut self,
        nic: &mut SmartNic,
        _unused: &mut Option<Infallible>,
        now: Time,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<u64, CtrlError> {
        let (store, bundle) = self.stage(mutate)?;
        self.commit_staged(nic, store, bundle, now)
    }

    /// Whether NIC-resident state diverges from the kernel store and
    /// must be reinstalled: the device is dead (reset pending), a
    /// bitstream reprogram replaced the hardware, or a crash+reset wiped
    /// volatile state back to power-on.
    pub fn needs_reconcile(&self, nic: &SmartNic) -> bool {
        nic.is_dead()
            || nic.stats().bitstream_reprograms != self.reprograms_seen
            || nic.stats().resets != self.resets_seen
    }

    /// Reinstalls the full bundle from the policy store after a
    /// bitstream reprogram or a crash+reset wiped the NIC (same
    /// generation — the policy did not change, the hardware did). No-op
    /// while the device is dead (the kernel must reset it first) or
    /// still frozen, or when nothing was wiped. Returns whether a
    /// reconcile ran.
    pub(crate) fn reconcile(&mut self, nic: &mut SmartNic, now: Time) -> Result<bool, CtrlError> {
        if nic.is_dead() || !self.needs_reconcile(nic) || nic.is_frozen(now) {
            return Ok(false);
        }
        let resets = nic.stats().resets;
        if resets != self.resets_seen {
            // A crash rebuilt the scheduler and RSS steering to power-on
            // defaults, so the idempotence trackers are stale — clear
            // them or apply would skip the reprogramming below. (A plain
            // bitstream reprogram leaves the scheduler alone, so the
            // trackers stay valid on that path.)
            self.applied_weights = vec![1.0];
            self.applied_rss = None;
            self.applied_flow_cache = None;
        }
        let bundle = self.installed.clone();
        // Apply with faults off: reconcile is the recovery path.
        self.apply(nic, &bundle, now, false)
            .map_err(CtrlError::RollbackFailed)?;
        self.finish_apply(nic);
        self.reprograms_seen = nic.stats().bitstream_reprograms;
        self.resets_seen = resets;
        self.stats.reconciles += 1;
        self.record(now, CommitAction::Reconciled);
        self.tel.record_recovery(
            now,
            RecoveryKind::ReconcileDone,
            format!("policy generation {} reinstalled", self.generation),
        );
        Ok(true)
    }

    /// Wipe-then-install of `bundle` onto the NIC. Returns the failing
    /// step on error. When `use_faults`, the op-fault injector is
    /// consulted before every operation.
    fn apply(
        &mut self,
        nic: &mut SmartNic,
        bundle: &PolicyBundle,
        now: Time,
        use_faults: bool,
    ) -> Result<(), Failure> {
        // The watchdog deadline applies only to fault-eligible commits;
        // rollback and reconcile must always run to completion.
        let mut budget = if use_faults { self.watchdog_ops } else { None };

        // Wipe the overlay slots the bundle does not reinstall, so a
        // shrinking policy converges too. Slots it does reinstall are
        // hot-swapped by load_program (no pass-through window beyond
        // the swap itself).
        for slot in [
            ProgramSlot::IngressFilter,
            ProgramSlot::EgressFilter,
            ProgramSlot::Classifier,
        ] {
            if bundle.program_for(slot).is_none() && nic.program_loaded(slot) {
                self.op(&mut budget, use_faults, Step::UnloadProgram)?;
                nic.unload_program(slot);
            }
        }
        while nic.num_accounting() > 0 {
            self.op(&mut budget, use_faults, Step::ClearAccounting)?;
            nic.remove_accounting(nic.num_accounting() - 1);
        }

        for (slot, program, artifact) in &bundle.programs {
            self.op(&mut budget, use_faults, Step::LoadProgram)?;
            nic.load_program(*slot, program.clone(), Rc::clone(artifact), now)
                .map_err(Failure::nic(Step::LoadProgram))?;
        }
        for &(slot, map, key, value) in &bundle.map_fills {
            self.op(&mut budget, use_faults, Step::FillMap)?;
            nic.fill_map(slot, map, key, value)
                .map_err(Failure::nic(Step::FillMap))?;
        }

        if self.applied_weights != bundle.sched_weights {
            self.op(&mut budget, use_faults, Step::ConfigureScheduler)?;
            nic.configure_scheduler(&bundle.sched_weights, now)
                .map_err(Failure::nic(Step::ConfigureScheduler))?;
            self.applied_weights = bundle.sched_weights.clone();
        }

        // Wipe-then-install: a bundle without RSS policy reverts the NIC
        // to its boot-time uniform steering — but only if the control
        // plane programmed RSS before (so unrelated commits on a freshly
        // booted NIC never touch steering, and rollbacks of a first RSS
        // commit fully undo it).
        if self.applied_rss != bundle.rss {
            self.op(&mut budget, use_faults, Step::ConfigureRss)?;
            let (queues, table) = match &bundle.rss {
                Some((queues, table)) => (*queues, table.clone()),
                None => {
                    let boot = nic.config().num_queues;
                    (
                        boot,
                        (0..RSS_TABLE_SIZE).map(|i| (i % boot) as u16).collect(),
                    )
                }
            };
            nic.configure_rss(queues, &table, now)
                .map_err(Failure::nic(Step::ConfigureRss))?;
            self.applied_rss = bundle.rss.clone();
        }

        // Same revert discipline as RSS: only undo tiering the control
        // plane itself programmed, so rollback of a first flow-cache
        // commit restores untiered boot behavior.
        if self.applied_flow_cache != bundle.flow_cache {
            self.op(&mut budget, use_faults, Step::ConfigureFlowCache)?;
            nic.configure_flow_cache(bundle.flow_cache.clone(), now)
                .map_err(Failure::nic(Step::ConfigureFlowCache))?;
            self.applied_flow_cache = bundle.flow_cache.clone();
        }

        for (program, artifact) in &bundle.accounting {
            self.op(&mut budget, use_faults, Step::AddAccounting)?;
            nic.add_accounting(program.clone(), Rc::clone(artifact), now)
                .map_err(Failure::nic(Step::AddAccounting))?;
        }

        self.op(&mut budget, use_faults, Step::Sniffer)?;
        match bundle.sniffer {
            Some(filter) => nic.enable_sniffer(filter),
            None => nic.disable_sniffer(),
        }

        Ok(())
    }

    /// Admits one apply operation: spends one unit of the watchdog
    /// `budget` (if armed), counts the op, and consults the fault
    /// injector when `use_faults`.
    fn op(
        &mut self,
        budget: &mut Option<u64>,
        use_faults: bool,
        step: Step,
    ) -> Result<(), Failure> {
        if let Some(b) = budget {
            if *b == 0 {
                return Err(step.failed(Cause::Watchdog));
            }
            *b -= 1;
        }
        self.stats.apply_ops += 1;
        if use_faults && self.faults.should_fail() {
            return Err(step.failed(Cause::Injected));
        }
        Ok(())
    }

    /// Post-apply bookkeeping shared by commit, rollback, and
    /// reconcile: write the generation register and restamp telemetry.
    fn finish_apply(&mut self, nic: &mut SmartNic) {
        let _ = nic.regs.write(POLICY_GENERATION_REG, self.generation, None);
        self.tel.set_generation(self.generation);
    }

    fn record(&mut self, at: Time, action: CommitAction) {
        if self.history.len() == HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(CommitRecord {
            generation: self.generation,
            at,
            action,
        });
    }

    /// The third audit ledger: cross-checks NIC-resident state against
    /// the kernel policy store. Returns violations (empty = the NIC
    /// holds exactly what the kernel believes it holds).
    ///
    /// While a reconcile is pending (a reprogram wiped the NIC and the
    /// control plane has not yet run), NIC-resident checks are skipped —
    /// the divergence is real, known, and about to be repaired; only
    /// the generation stamps are still required to agree.
    pub(crate) fn audit(&self, nic: &SmartNic) -> Vec<Violation> {
        const NONE: u64 = Violation::NONE;
        let mut violations = Vec::new();
        let v = &mut violations;
        let register = nic.regs.peek(POLICY_GENERATION_REG).unwrap_or(NONE);
        check(v, Check::GenerationRegister, self.generation, register);
        let stamped = self.tel.generation();
        check(v, Check::TelemetryGeneration, self.generation, stamped);

        if self.needs_reconcile(nic) {
            return violations;
        }

        let bundle = &self.installed;
        let slots = [
            ProgramSlot::IngressFilter,
            ProgramSlot::EgressFilter,
            ProgramSlot::Classifier,
        ];
        for (i, slot) in (0u64..).zip(slots) {
            let want = bundle.program_for(slot).map_or(NONE, Program::fingerprint);
            let got = nic.program_fingerprint(slot).unwrap_or(NONE);
            check_at(v, Check::ResidentProgram, i, want, got);
        }

        for r in &self.store.reservations {
            let owner = u64::from(r.uid.0) + 1;
            for slot in [ProgramSlot::IngressFilter, ProgramSlot::EgressFilter] {
                let got = nic.read_map(slot, 0, r.port as usize).unwrap_or(NONE);
                check_at(v, Check::FilterMap, r.port.into(), owner, got);
            }
        }

        let classes = nic.scheduler_class_bytes().len() as u64;
        let want = bundle.sched_weights.len() as u64;
        check(v, Check::SchedulerClasses, want, classes);

        if let Some((queues, table)) = &bundle.rss {
            check(v, Check::RssQueues, *queues as u64, nic.num_queues() as u64);
            let resident = nic.rss().indirection();
            let mut entries = (0u64..).zip(table.iter().zip(resident));
            if let Some((i, (&want, &got))) = entries.find(|(_, (want, got))| want != got) {
                v.push(Violation::new(Check::RssTable, want.into(), got.into()).at(i));
            }
        }

        if nic.flow_cache() != bundle.flow_cache.as_ref() {
            let hot = |fc: Option<&FlowCacheConfig>| fc.map_or(NONE, |fc| fc.hot_capacity as u64);
            let want = hot(bundle.flow_cache.as_ref());
            v.push(Violation::new(
                Check::FlowCache,
                want,
                hot(nic.flow_cache()),
            ));
        }

        let sniffing = nic.sniffer.is_enabled().into();
        check(v, Check::Sniffer, bundle.sniffer.is_some().into(), sniffing);

        let want: Vec<u64> = bundle
            .accounting
            .iter()
            .map(|(p, _)| p.fingerprint())
            .collect();
        let got = nic.accounting_fingerprints();
        let fp = |fps: &[u64], i| fps.get(i).copied().unwrap_or(NONE);
        if let Some(i) = (0..want.len().max(got.len())).find(|&i| fp(&want, i) != fp(&got, i)) {
            check_at(v, Check::Accounting, i as u64, fp(&want, i), fp(&got, i));
        }

        violations
    }

    /// Registers control-plane counters under `ctrl.*`.
    pub(crate) fn fill_registry(&self, reg: &mut Registry) {
        reg.set_counter("ctrl.generation", self.generation);
        reg.set_counter("ctrl.commits", self.stats.commits);
        reg.set_counter("ctrl.rollbacks", self.stats.rollbacks);
        reg.set_counter("ctrl.reconciles", self.stats.reconciles);
        reg.set_counter("ctrl.apply_ops", self.stats.apply_ops);
        reg.set_counter("ctrl.aborts", self.stats.aborts);
        reg.set_counter("ctrl.watchdog_aborts", self.stats.watchdog_aborts);
        reg.set_counter("ctrl.compile_rejected", self.stats.compile_rejected);
        reg.set_counter("ctrl.fault_injected", self.faults.injected());
        reg.set_counter("fault.ops", self.faults.ops());
        reg.set_counter("fault.injected", self.faults.injected());
        reg.set_counter(
            "ctrl.rss_queues",
            self.store
                .rss
                .as_ref()
                .map(|p| p.num_queues as u64)
                .unwrap_or(0),
        );
        reg.set_counter(
            "ctrl.flow_cache_hot",
            self.store
                .flow_cache
                .as_ref()
                .map(|fc| fc.hot_capacity as u64)
                .unwrap_or(0),
        );
    }
}
