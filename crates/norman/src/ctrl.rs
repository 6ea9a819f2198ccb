//! The unified, transactional control plane: the *only* writer of
//! dataplane policy.
//!
//! The paper's architecture (§4.4) has exactly one configurer of the
//! on-path SmartNIC — the kernel. This module enforces that shape in the
//! simulator: every policy the administrator can express (port
//! reservations, per-user shaping, capture filters, NAT forwards, raw
//! accounting programs) lives in one kernel-resident [`PolicyStore`],
//! compiles into one [`PolicyBundle`] (overlay programs + map fills +
//! scheduler weights + NAT entries + register writes), and reaches the
//! NIC only through an epoch-versioned two-phase commit:
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
//!   scheduler classes, sniffer, NAT statics, the generation register)
//!   against the kernel's policy store, giving `Host::audit` a third,
//!   structurally independent account of the dataplane.

use std::net::Ipv4Addr;
use std::rc::Rc;

use nicsim::device::ProgramSlot;
use nicsim::rss::{RssTable, MAX_QUEUES, RSS_TABLE_SIZE};
use nicsim::{FlowCacheConfig, NatTable, SmartNic, POLICY_GENERATION_REG};
use overlay::{builtins, CompiledProgram, Program};
use pkt::IpProto;
use qdisc::compile;
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

/// A static NAT forward: inbound `(proto, ext_port)` is rewritten to
/// `internal`, and outbound traffic from `internal` masquerades with the
/// same external port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NatRule {
    /// Transport protocol.
    pub proto: IpProto,
    /// External (public) port.
    pub ext_port: u16,
    /// Internal endpoint the rule forwards to.
    pub internal: (Ipv4Addr, u16),
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
    /// NAT masquerade address, when NAT policy is in force.
    pub nat_external_ip: Option<Ipv4Addr>,
    /// Static NAT forwards (require `nat_external_ip`).
    pub nat_rules: Vec<NatRule>,
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
    /// NAT masquerade address + static forwards.
    nat: Option<(Ipv4Addr, Vec<NatRule>)>,
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
    /// scheduler, no taps, no NAT.
    pub(crate) fn empty() -> PolicyBundle {
        PolicyBundle {
            programs: Vec::new(),
            map_fills: Vec::new(),
            sched_weights: vec![1.0],
            accounting: Vec::new(),
            sniffer: None,
            nat: None,
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
                    .map_err(|e| CtrlError::Compile(e.to_string()))?;
                for (map, key, value) in setup.map_fills {
                    map_fills.push((ProgramSlot::Classifier, map, key, value));
                }
                programs.push((ProgramSlot::Classifier, setup.program));
                setup.class_weights
            }
            None => vec![1.0],
        };

        let nat = match (store.nat_external_ip, store.nat_rules.is_empty()) {
            (Some(ip), _) => {
                let mut seen = std::collections::HashSet::new();
                for r in &store.nat_rules {
                    if !seen.insert((r.proto, r.ext_port)) {
                        return Err(CtrlError::Compile(format!(
                            "duplicate NAT rule for {} port {}",
                            r.proto, r.ext_port
                        )));
                    }
                }
                Some((ip, store.nat_rules.clone()))
            }
            (None, false) => {
                return Err(CtrlError::Compile(
                    "NAT rules require an external ip".to_string(),
                ));
            }
            (None, true) => None,
        };

        let rss = match &store.rss {
            Some(policy) => {
                if !(1..=MAX_QUEUES).contains(&policy.num_queues) {
                    return Err(CtrlError::Compile(format!(
                        "RSS queue count {} outside 1..={MAX_QUEUES}",
                        policy.num_queues
                    )));
                }
                let table: Vec<u16> = if policy.indirection.is_empty() {
                    (0..RSS_TABLE_SIZE)
                        .map(|i| (i % policy.num_queues) as u16)
                        .collect()
                } else {
                    policy.indirection.clone()
                };
                RssTable::validated(policy.num_queues, &table)
                    .map_err(|e| CtrlError::Compile(format!("RSS policy rejected: {e}")))?;
                Some((policy.num_queues, table))
            }
            None => None,
        };

        let flow_cache = match &store.flow_cache {
            Some(fc) => {
                if fc.hot_capacity == 0 {
                    return Err(CtrlError::Compile(
                        "flow cache hot capacity must be nonzero".to_string(),
                    ));
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
            if !(d.high_watermark > 0.0 && d.high_watermark <= 1.0) {
                return Err(CtrlError::Compile(format!(
                    "degradation high watermark {} outside (0, 1]",
                    d.high_watermark
                )));
            }
            if !(d.low_watermark >= 0.0 && d.low_watermark < d.high_watermark) {
                return Err(CtrlError::Compile(format!(
                    "degradation low watermark {} must be in [0, high {})",
                    d.low_watermark, d.high_watermark
                )));
            }
            if d.window == 0 {
                return Err(CtrlError::Compile(
                    "degradation window must be nonzero".to_string(),
                ));
            }
        }

        // Verify every program the bundle would install (the load path
        // verifies again; this keeps phase 1 side-effect-free while
        // still refusing bad bundles before anything is staged), then
        // ahead-of-time compile each one to a native artifact. An AOT
        // failure after a clean verify is a `CompileRejected`: the commit
        // never reaches phase 2, so the resident bundle (and its
        // fingerprints) survive.
        let aot = |program: &Program, kind: &str| -> Result<Rc<CompiledProgram>, CtrlError> {
            overlay::verify(program).map_err(|e| {
                CtrlError::Compile(format!("{kind} '{}' rejected: {e}", program.name))
            })?;
            overlay::compile(program).map_err(|e| CtrlError::CompileRejected {
                program: program.name.clone(),
                reason: e.to_string(),
            })
        };
        let programs = programs
            .into_iter()
            .map(|(slot, program)| {
                let artifact = aot(&program, "program")?;
                Ok((slot, program, artifact))
            })
            .collect::<Result<Vec<_>, CtrlError>>()?;
        let accounting = store
            .accounting
            .iter()
            .map(|program| {
                let artifact = aot(program, "accounting")?;
                Ok((program.clone(), artifact))
            })
            .collect::<Result<Vec<_>, CtrlError>>()?;

        Ok(PolicyBundle {
            programs,
            map_fills,
            sched_weights,
            accounting,
            sniffer: store.sniffer,
            nat,
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

/// A bundle that passed phase 1 and is waiting for phase 2. Plain
/// kernel memory: NIC-side faults (e.g. an app writing control
/// registers) cannot touch it.
#[derive(Clone, Debug)]
pub struct StagedCommit {
    store: PolicyStore,
    bundle: PolicyBundle,
}

impl StagedCommit {
    /// The store this staged commit will install.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }
}

/// Control-plane failures.
#[derive(Debug)]
pub enum CtrlError {
    /// Phase 1 refused the policy (verifier, weights, NAT conflicts).
    Compile(String),
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
    /// Phase 2 failed at `step`; the NIC was rolled back to the prior
    /// generation.
    CommitFailed {
        /// The apply step that failed.
        step: String,
    },
    /// Phase 2 failed *and* the rollback failed — the NIC state is
    /// undefined. Only reachable if the fault model breaks the
    /// recovery path's invariants; treated as fatal by callers.
    RollbackFailed {
        /// The rollback step that failed.
        step: String,
    },
    /// The device died mid-transaction (or was already dead), so neither
    /// the commit nor the rollback could reach it. Unlike
    /// [`CtrlError::RollbackFailed`] this is *not* fatal: the kernel
    /// store keeps the prior committed policy, and reconcile reinstalls
    /// it after the device is reset — the transaction simply aborted.
    DeviceLost {
        /// The apply step at which the device was found dead.
        step: String,
    },
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
            CtrlError::CommitFailed { step } => {
                write!(
                    f,
                    "commit failed at {step}; rolled back to prior generation"
                )
            }
            CtrlError::RollbackFailed { step } => {
                write!(f, "rollback failed at {step}; NIC state undefined")
            }
            CtrlError::DeviceLost { step } => {
                write!(
                    f,
                    "commit aborted at {step}: device dead; reconcile after reset"
                )
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

impl std::fmt::Display for CommitAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitAction::Committed => write!(f, "committed"),
            CommitAction::RolledBack => write!(f, "rolled-back"),
            CommitAction::Reconciled => write!(f, "reconciled"),
            CommitAction::Aborted => write!(f, "aborted"),
        }
    }
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
    /// Human detail (failing step, program counts).
    pub detail: String,
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
    pub(crate) fn stage(
        &mut self,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<StagedCommit, CtrlError> {
        let mut store = self.store.clone();
        mutate(&mut store);
        let bundle = PolicyBundle::compile(&store).inspect_err(|e| {
            if matches!(e, CtrlError::CompileRejected { .. }) {
                self.stats.compile_rejected += 1;
            }
        })?;
        Ok(StagedCommit { store, bundle })
    }

    /// Phase 2: atomically swaps the staged bundle in under a new
    /// generation. On a mid-commit failure the prior bundle is fully
    /// reinstalled (rollback), the generation does not advance, and the
    /// store keeps its previous contents.
    pub(crate) fn commit_staged(
        &mut self,
        nic: &mut SmartNic,
        nat: &mut Option<NatTable>,
        staged: StagedCommit,
        now: Time,
    ) -> Result<u64, CtrlError> {
        if nic.is_dead() {
            // A dead device can take no policy at all; even an empty
            // apply would "succeed" without installing anything. Refuse
            // up front — the kernel resets the device, reconcile
            // reinstalls the committed policy, and the caller retries.
            return Err(CtrlError::DeviceLost {
                step: "commit refused: device dead".to_string(),
            });
        }
        if nic.is_frozen(now) {
            return Err(CtrlError::Frozen {
                until: nic.frozen_until(),
            });
        }
        let prior = self.installed.clone();
        match self.apply(nic, nat, &staged.bundle, now, true) {
            Ok(()) => {
                self.generation += 1;
                self.finish_apply(nic, &staged.bundle);
                self.store = staged.store;
                self.installed = staged.bundle;
                self.stats.commits += 1;
                self.record(
                    now,
                    CommitAction::Committed,
                    format!(
                        "{} programs, {} fills, {} classes",
                        self.installed.programs.len(),
                        self.installed.map_fills.len(),
                        self.installed.sched_weights.len()
                    ),
                );
                Ok(self.generation)
            }
            Err(step) => {
                // Roll back: reinstall the prior bundle, with fault
                // injection off — recovery must not recurse.
                // `applied_weights` tracks the *actual* scheduler state,
                // so the rollback reconfigures the scheduler only if the
                // failed apply got far enough to change it.
                if let Err(rb_step) = self.apply(nic, nat, &prior, now, false) {
                    if nic.is_dead() {
                        // The device died mid-commit and cannot even take
                        // the rollback. That is not "NIC state undefined":
                        // the NIC holds *nothing* (volatile state wiped),
                        // the kernel store still holds the prior committed
                        // policy, and reconcile-after-reset reinstalls it
                        // byte-for-byte. Abort the transaction instead of
                        // declaring the control plane wedged.
                        self.stats.aborts += 1;
                        self.record(now, CommitAction::Aborted, format!("device lost at {step}"));
                        self.tel.record_recovery(
                            now,
                            RecoveryKind::CommitAborted,
                            format!("commit aborted at {step}: device dead"),
                        );
                        return Err(CtrlError::DeviceLost { step });
                    }
                    return Err(CtrlError::RollbackFailed { step: rb_step });
                }
                self.finish_apply(nic, &prior);
                self.stats.rollbacks += 1;
                if step.contains("(watchdog") {
                    self.stats.watchdog_aborts += 1;
                    self.tel.record_recovery(
                        now,
                        RecoveryKind::CommitAborted,
                        format!("watchdog cancelled commit at {step}; rolled back"),
                    );
                }
                self.record(now, CommitAction::RolledBack, format!("failed at {step}"));
                Err(CtrlError::CommitFailed { step })
            }
        }
    }

    /// The transaction most callers want: stage + commit in one call.
    /// On any failure the store is left exactly as before.
    pub fn update(
        &mut self,
        nic: &mut SmartNic,
        nat: &mut Option<NatTable>,
        now: Time,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<u64, CtrlError> {
        let staged = self.stage(mutate)?;
        self.commit_staged(nic, nat, staged, now)
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
    pub(crate) fn reconcile(
        &mut self,
        nic: &mut SmartNic,
        nat: &mut Option<NatTable>,
        now: Time,
    ) -> Result<bool, CtrlError> {
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
        if let Err(step) = self.apply(nic, nat, &bundle, now, false) {
            return Err(CtrlError::RollbackFailed { step });
        }
        self.finish_apply(nic, &bundle);
        self.reprograms_seen = nic.stats().bitstream_reprograms;
        self.resets_seen = resets;
        self.stats.reconciles += 1;
        self.record(
            now,
            CommitAction::Reconciled,
            format!(
                "after reprogram #{} / reset #{}",
                self.reprograms_seen, self.resets_seen
            ),
        );
        self.tel.record_recovery(
            now,
            RecoveryKind::ReconcileDone,
            format!("policy generation {} reinstalled", self.generation),
        );
        Ok(true)
    }

    /// Wipe-then-install of `bundle` onto the NIC. Returns the failing
    /// step name on error. When `use_faults`, the op-fault injector is
    /// consulted before every operation.
    fn apply(
        &mut self,
        nic: &mut SmartNic,
        nat: &mut Option<NatTable>,
        bundle: &PolicyBundle,
        now: Time,
        use_faults: bool,
    ) -> Result<(), String> {
        // The watchdog deadline applies only to fault-eligible commits;
        // rollback and reconcile must always run to completion.
        let mut budget = if use_faults { self.watchdog_ops } else { None };
        let op = |stats: &mut CtrlStats,
                  faults: &mut OpFaultInjector,
                  budget: &mut Option<u64>,
                  step: &str|
         -> Result<(), String> {
            if let Some(b) = budget {
                if *b == 0 {
                    return Err(format!("{step} (watchdog: op deadline exceeded)"));
                }
                *b -= 1;
            }
            stats.apply_ops += 1;
            if use_faults && faults.should_fail() {
                return Err(format!("{step} (injected)"));
            }
            Ok(())
        };

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
                op(
                    &mut self.stats,
                    &mut self.faults,
                    &mut budget,
                    "unload_program",
                )?;
                nic.unload_program(slot);
            }
        }
        while nic.num_accounting() > 0 {
            op(
                &mut self.stats,
                &mut self.faults,
                &mut budget,
                "clear_accounting",
            )?;
            nic.remove_accounting(nic.num_accounting() - 1);
        }

        for (slot, program, artifact) in &bundle.programs {
            op(
                &mut self.stats,
                &mut self.faults,
                &mut budget,
                "load_program",
            )?;
            nic.load_program(*slot, program.clone(), Rc::clone(artifact), now)
                .map_err(|e| format!("load_program: {e}"))?;
        }
        for &(slot, map, key, value) in &bundle.map_fills {
            op(&mut self.stats, &mut self.faults, &mut budget, "fill_map")?;
            nic.fill_map(slot, map, key, value)
                .map_err(|e| format!("fill_map: {e}"))?;
        }

        if self.applied_weights != bundle.sched_weights {
            op(
                &mut self.stats,
                &mut self.faults,
                &mut budget,
                "configure_scheduler",
            )?;
            nic.configure_scheduler(&bundle.sched_weights, now)
                .map_err(|e| format!("configure_scheduler: {e}"))?;
            self.applied_weights = bundle.sched_weights.clone();
        }

        match &bundle.rss {
            Some((queues, table)) => {
                let differs = match &self.applied_rss {
                    Some((q, t)) => q != queues || t != table,
                    None => true,
                };
                if differs {
                    op(
                        &mut self.stats,
                        &mut self.faults,
                        &mut budget,
                        "configure_rss",
                    )?;
                    nic.configure_rss(*queues, table, now)
                        .map_err(|e| format!("configure_rss: {e}"))?;
                    self.applied_rss = Some((*queues, table.clone()));
                }
            }
            None => {
                // Wipe-then-install: a bundle without RSS policy reverts
                // the NIC to its boot-time uniform steering — but only if
                // the control plane programmed RSS before (so unrelated
                // commits on a freshly booted NIC never touch steering,
                // and rollbacks of a first RSS commit fully undo it).
                if self.applied_rss.is_some() {
                    op(
                        &mut self.stats,
                        &mut self.faults,
                        &mut budget,
                        "configure_rss",
                    )?;
                    let boot = nic.config().num_queues;
                    let uniform: Vec<u16> =
                        (0..RSS_TABLE_SIZE).map(|i| (i % boot) as u16).collect();
                    nic.configure_rss(boot, &uniform, now)
                        .map_err(|e| format!("configure_rss: {e}"))?;
                    self.applied_rss = None;
                }
            }
        }

        match &bundle.flow_cache {
            Some(fc) => {
                if self.applied_flow_cache.as_ref() != Some(fc) {
                    op(
                        &mut self.stats,
                        &mut self.faults,
                        &mut budget,
                        "configure_flow_cache",
                    )?;
                    nic.configure_flow_cache(Some(fc.clone()), now)
                        .map_err(|e| format!("configure_flow_cache: {e}"))?;
                    self.applied_flow_cache = Some(fc.clone());
                }
            }
            None => {
                // Same revert discipline as RSS: only undo tiering the
                // control plane itself programmed, so rollback of a first
                // flow-cache commit restores untiered boot behavior.
                if self.applied_flow_cache.is_some() {
                    op(
                        &mut self.stats,
                        &mut self.faults,
                        &mut budget,
                        "configure_flow_cache",
                    )?;
                    nic.configure_flow_cache(None, now)
                        .map_err(|e| format!("configure_flow_cache: {e}"))?;
                    self.applied_flow_cache = None;
                }
            }
        }

        for (program, artifact) in &bundle.accounting {
            op(
                &mut self.stats,
                &mut self.faults,
                &mut budget,
                "add_accounting",
            )?;
            nic.add_accounting(program.clone(), Rc::clone(artifact), now)
                .map_err(|e| format!("add_accounting: {e}"))?;
        }

        op(&mut self.stats, &mut self.faults, &mut budget, "sniffer")?;
        match bundle.sniffer {
            Some(filter) => nic.enable_sniffer(filter),
            None => nic.disable_sniffer(),
        }

        match &bundle.nat {
            Some((ip, rules)) => {
                if nat.is_none() {
                    op(&mut self.stats, &mut self.faults, &mut budget, "nat_create")?;
                    let mut table = NatTable::new(*ip);
                    table.set_telemetry(self.tel.clone());
                    *nat = Some(table);
                }
                let table = nat.as_mut().expect("just ensured");
                if table.external_ip() != *ip {
                    return Err("nat_rebind: external ip changed under live table".to_string());
                }
                table.clear_statics(&mut nic.sram);
                for r in rules {
                    op(&mut self.stats, &mut self.faults, &mut budget, "nat_static")?;
                    table
                        .install_static(r.proto, r.ext_port, r.internal, &mut nic.sram)
                        .map_err(|e| format!("nat_static: {e}"))?;
                }
            }
            None => {
                if let Some(table) = nat.as_mut() {
                    table.clear_statics(&mut nic.sram);
                }
            }
        }
        Ok(())
    }

    /// Post-apply bookkeeping shared by commit, rollback, and
    /// reconcile: write the generation register and restamp telemetry.
    fn finish_apply(&mut self, nic: &mut SmartNic, _bundle: &PolicyBundle) {
        let _ = nic.regs.write(POLICY_GENERATION_REG, self.generation, None);
        self.tel.set_generation(self.generation);
    }

    fn record(&mut self, at: Time, action: CommitAction, detail: String) {
        if self.history.len() == HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(CommitRecord {
            generation: self.generation,
            at,
            action,
            detail,
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
    pub(crate) fn audit(&self, nic: &SmartNic, nat: Option<&NatTable>) -> Vec<String> {
        let mut violations = Vec::new();

        match nic.regs.peek(POLICY_GENERATION_REG) {
            Some(reg) if reg == self.generation => {}
            Some(reg) => violations.push(format!(
                "generation register {reg} != kernel generation {}",
                self.generation
            )),
            None => violations.push("generation register missing".to_string()),
        }
        if self.tel.generation() != self.generation {
            violations.push(format!(
                "telemetry generation {} != kernel generation {}",
                self.tel.generation(),
                self.generation
            ));
        }

        if self.needs_reconcile(nic) {
            return violations;
        }

        let bundle = &self.installed;
        for slot in [
            ProgramSlot::IngressFilter,
            ProgramSlot::EgressFilter,
            ProgramSlot::Classifier,
        ] {
            match (bundle.program_for(slot), nic.program_fingerprint(slot)) {
                (Some(want), Some(got)) => {
                    if want.fingerprint() != got {
                        violations.push(format!(
                            "{slot:?}: resident program fingerprint {got:#x} != store '{}'",
                            want.name
                        ));
                    }
                }
                (Some(want), None) => violations.push(format!(
                    "{slot:?}: store expects '{}' but no program resident",
                    want.name
                )),
                (None, Some(_)) => violations.push(format!(
                    "{slot:?}: resident program not present in policy store"
                )),
                (None, None) => {}
            }
        }

        for r in &self.store.reservations {
            for slot in [ProgramSlot::IngressFilter, ProgramSlot::EgressFilter] {
                let want = u64::from(r.uid.0) + 1;
                match nic.read_map(slot, 0, r.port as usize) {
                    Some(got) if got == want => {}
                    got => violations.push(format!(
                        "{slot:?} map[port {}]: resident {got:?} != reserved uid+1 {want}",
                        r.port
                    )),
                }
            }
        }

        let classes = nic.scheduler_class_bytes().len();
        if classes != bundle.sched_weights.len() {
            violations.push(format!(
                "scheduler has {classes} classes, store expects {}",
                bundle.sched_weights.len()
            ));
        }

        if let Some((queues, table)) = &bundle.rss {
            if nic.num_queues() != *queues {
                violations.push(format!(
                    "NIC exposes {} queues, RSS policy expects {queues}",
                    nic.num_queues()
                ));
            }
            if nic.rss().indirection() != &table[..] {
                violations
                    .push("NIC RSS indirection table diverges from the policy store".to_string());
            }
        }

        if nic.flow_cache() != bundle.flow_cache.as_ref() {
            violations.push(format!(
                "NIC flow cache {:?} diverges from store {:?}",
                nic.flow_cache().map(|fc| fc.mode.name()),
                bundle.flow_cache.as_ref().map(|fc| fc.mode.name())
            ));
        }

        if nic.sniffer.is_enabled() != bundle.sniffer.is_some() {
            violations.push(format!(
                "sniffer enabled={} but store says {}",
                nic.sniffer.is_enabled(),
                bundle.sniffer.is_some()
            ));
        }

        let acct = nic.accounting_fingerprints();
        let want_acct: Vec<u64> = bundle
            .accounting
            .iter()
            .map(|(p, _)| p.fingerprint())
            .collect();
        if acct != want_acct {
            violations.push(format!(
                "accounting programs resident {} != store {}",
                acct.len(),
                want_acct.len()
            ));
        }

        match (&bundle.nat, nat) {
            (Some((ip, rules)), Some(table)) => {
                if table.external_ip() != *ip {
                    violations.push(format!(
                        "NAT external ip {} != store {ip}",
                        table.external_ip()
                    ));
                }
                if table.num_statics() != rules.len() {
                    violations.push(format!(
                        "NAT statics resident {} != store {}",
                        table.num_statics(),
                        rules.len()
                    ));
                }
                for r in rules {
                    if table.static_target(r.proto, r.ext_port) != Some(r.internal) {
                        violations.push(format!(
                            "NAT static {} port {} does not forward to {:?}",
                            r.proto, r.ext_port, r.internal
                        ));
                    }
                }
            }
            (Some(_), None) => violations.push("store has NAT policy but no table".to_string()),
            (None, Some(table)) => {
                if table.num_statics() != 0 {
                    violations.push(format!(
                        "{} NAT statics resident with no NAT policy in store",
                        table.num_statics()
                    ));
                }
            }
            (None, None) => {}
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
