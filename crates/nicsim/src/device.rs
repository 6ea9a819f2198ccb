//! The SmartNIC device model.
//!
//! [`SmartNic`] composes the flow table, SRAM allocator, register file,
//! overlay program slots, notification queues, sniffer tap, transmit
//! scheduler, and link into the on-path dataplane of Figure 1. The
//! *control-plane* methods (`load_program`, `open_connection`,
//! `enable_sniffer`, …) are the operations only the kernel may invoke —
//! callers gate them behind the privileged register path. The
//! *dataplane* methods (`rx`, `tx_enqueue`, `tx_poll`) are what every
//! packet traverses.

use std::collections::HashMap;

use overlay::{verify, CompiledProgram, PktCtx, Program, Verdict, Vm};
use pkt::{FiveTuple, FrameMeta, IpProto, Packet, PktError};
use qdisc::{MultiQueue, QPkt, Qdisc};
use sim::{CrashInjector, Dur, Link, Time};
use telemetry::{
    Comm, DropCause, FrameInfo, HistId, Owner, RecoveryKind, Registry, Stage, StageRec, Telemetry,
    TraceVerdict,
};

use crate::flowtable::{
    ConnEntry, ConnId, FlowCacheConfig, FlowTable, FlowTier, LookupHit, RetierReport,
};
use crate::notify::{Notification, NotifyKind, NotifyQueue};
use crate::pipeline::{
    DropReason, NicConfig, RxDisposition, RxResult, SlowPathReason, TxDeparture, TxDisposition,
};
use crate::regs::RegFile;
use crate::rss::{RssError, RssTable, RSS_NUM_QUEUES_REG};
use crate::sniff::{Direction, Sniffer, SnifferFilter};
use crate::sram::{Sram, SramCategory, SramError};

pub(crate) use crate::flowtable::RING_CONTEXT_BYTES;

/// Maximum accounting programs loadable at once.
pub(crate) const MAX_ACCOUNTING_SLOTS: usize = 4;

/// A programmable slot on the dataplane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgramSlot {
    /// Runs on every ingress packet; verdict is enforced.
    IngressFilter,
    /// Runs on every egress packet; verdict is enforced.
    EgressFilter,
    /// Runs on every egress packet; `class N` verdicts pick the scheduler
    /// class.
    Classifier,
}

/// Kernel-region MMIO register holding the installed policy generation.
/// Written only by the control plane's commit step; apps reading or
/// writing it fault. The audit third ledger cross-checks it against the
/// kernel's policy store.
pub const POLICY_GENERATION_REG: u64 = 0x20_0000;

/// Errors from NIC operations.
#[derive(Debug)]
pub enum NicError {
    /// A program failed verification at load time.
    Verify(overlay::VerifyError),
    /// On-board memory exhausted.
    Sram(SramError),
    /// The dataplane is down for a bitstream reprogram.
    Reprogramming {
        /// When it comes back.
        until: Time,
    },
    /// Unknown connection.
    NoSuchConn(ConnId),
    /// The tuple (or listener key) is already installed, as this
    /// connection: a second entry would orphan it in the flow table.
    AlreadyInstalled(ConnId),
    /// The TX scheduler refused the packet.
    TxQueueFull,
    /// No accounting slot free.
    AccountingSlotsFull,
    /// Map access outside any loaded program's maps.
    NoSuchMap,
    /// A compiled artifact's fingerprint does not match the program it
    /// claims to implement — swapping it in would desynchronize the
    /// audit ledger, so the load is refused.
    ArtifactMismatch {
        /// The program's fingerprint.
        want: u64,
        /// The artifact's fingerprint.
        got: u64,
    },
    /// Scheduler weights rejected (empty, non-finite, or non-positive).
    InvalidWeights {
        /// Index of the offending weight (0 for an empty list).
        index: usize,
        /// The offending value (0.0 for an empty list).
        weight: f64,
    },
    /// RSS configuration rejected (bad queue count, table size, or a
    /// table entry naming a nonexistent queue).
    Rss(RssError),
    /// The device has crashed and must be reset before any operation.
    Dead,
}

impl std::fmt::Display for NicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicError::Verify(e) => write!(f, "program rejected: {e}"),
            NicError::Sram(e) => write!(f, "{e}"),
            NicError::Reprogramming { until } => {
                write!(f, "dataplane reprogramming until {until}")
            }
            NicError::NoSuchConn(id) => write!(f, "no such connection {id}"),
            NicError::AlreadyInstalled(id) => write!(f, "already installed as {id}"),
            NicError::TxQueueFull => write!(f, "TX scheduler queue full"),
            NicError::AccountingSlotsFull => write!(f, "all accounting slots in use"),
            NicError::NoSuchMap => write!(f, "no such program map"),
            NicError::ArtifactMismatch { want, got } => {
                write!(
                    f,
                    "compiled artifact fingerprint {got:#x} does not match program {want:#x}"
                )
            }
            NicError::InvalidWeights { index, weight } => {
                write!(
                    f,
                    "scheduler weight {weight} at index {index} must be finite and positive"
                )
            }
            NicError::Rss(e) => write!(f, "RSS configuration rejected: {e}"),
            NicError::Dead => write!(f, "device crashed; reset required"),
        }
    }
}

impl std::error::Error for NicError {}

impl From<SramError> for NicError {
    fn from(e: SramError) -> NicError {
        NicError::Sram(e)
    }
}

impl From<RssError> for NicError {
    fn from(e: RssError) -> NicError {
        NicError::Rss(e)
    }
}

/// Dataplane counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Ingress frames offered.
    pub(crate) rx_frames: u64,
    /// Ingress frames delivered to rings.
    pub(crate) rx_delivered: u64,
    /// Ingress frames punted to software.
    pub rx_slowpath: u64,
    /// Ingress frames dropped by filters.
    pub rx_filtered: u64,
    /// Ingress frames dropped because they failed to parse (truncated,
    /// bad ethertype, inconsistent lengths, bad IPv4 header checksum).
    pub rx_malformed: u64,
    /// Ingress frames that parsed but failed TCP/UDP checksum
    /// verification (payload corruption caught at the parser stage).
    pub rx_bad_checksum: u64,
    /// Frames dropped while reprogramming.
    pub(crate) dropped_reprogramming: u64,
    /// Egress frames offered.
    pub(crate) tx_frames: u64,
    /// Egress frames dropped by filters.
    pub tx_filtered: u64,
    /// Egress frames transmitted.
    pub(crate) tx_sent: u64,
    /// Overlay program swaps performed.
    pub program_swaps: u64,
    /// Bitstream reprograms performed.
    pub bitstream_reprograms: u64,
    /// Device crashes (volatile state wiped).
    pub(crate) crashes: u64,
    /// Kernel-driven resets after a crash.
    pub resets: u64,
    /// Frames offered (RX or TX) while the device was dead.
    pub(crate) dropped_dead: u64,
    /// Frames lost from the TX scheduler when the device crashed (they
    /// were already counted queued; the crash purges them as drops).
    pub(crate) tx_crash_purged: u64,
    /// Frames a scheduler reconfiguration could not carry into the new
    /// queues (already counted queued; dropped with cause `qdisc_full`).
    pub(crate) tx_reconfig_dropped: u64,
}

impl NicStats {
    /// Registers every counter into `reg` under `nic.*` keys — the
    /// unified-registry view of this struct.
    pub(crate) fn fill_registry(&self, reg: &mut Registry) {
        reg.set_counter("nic.rx.frames", self.rx_frames);
        reg.set_counter("nic.rx.delivered", self.rx_delivered);
        reg.set_counter("nic.rx.slowpath", self.rx_slowpath);
        reg.set_counter("nic.rx.filtered", self.rx_filtered);
        reg.set_counter("nic.rx.malformed", self.rx_malformed);
        reg.set_counter("nic.rx.bad_checksum", self.rx_bad_checksum);
        reg.set_counter("nic.dropped_reprogramming", self.dropped_reprogramming);
        reg.set_counter("nic.tx.frames", self.tx_frames);
        reg.set_counter("nic.tx.filtered", self.tx_filtered);
        reg.set_counter("nic.tx.sent", self.tx_sent);
        reg.set_counter("nic.program_swaps", self.program_swaps);
        reg.set_counter("nic.bitstream_reprograms", self.bitstream_reprograms);
        reg.set_counter("nic.crashes", self.crashes);
        reg.set_counter("nic.resets", self.resets);
        reg.set_counter("nic.dropped_dead", self.dropped_dead);
        reg.set_counter("nic.tx_crash_purged", self.tx_crash_purged);
        reg.set_counter("nic.tx_reconfig_dropped", self.tx_reconfig_dropped);
    }
}

/// Pre-registered stage-latency histograms for the RX pipeline.
struct NicHists {
    parse: HistId,
    lookup: HistId,
    overlay: HistId,
    latency: HistId,
}

fn register_nic_hists(tel: &Telemetry) -> NicHists {
    NicHists {
        parse: tel.register_hist("lat.nic.parse"),
        lookup: tel.register_hist("lat.nic.lookup"),
        overlay: tel.register_hist("lat.nic.overlay"),
        latency: tel.register_hist("lat.nic.rx_total"),
    }
}

/// The fields a frame's lifecycle events share (every emission site's
/// closure; only runs when the hub keeps the events).
fn frame_info(
    frame_id: u64,
    meta: Option<&FrameMeta>,
    len: u32,
    owner: Option<Owner>,
) -> FrameInfo {
    FrameInfo {
        frame_id,
        tuple: meta.and_then(|m| m.tuple),
        len,
        owner,
    }
}

/// The SmartNIC.
pub struct SmartNic {
    cfg: NicConfig,
    /// On-board memory.
    pub sram: Sram,
    /// The flow table.
    pub flows: FlowTable,
    /// The MMIO register file.
    pub regs: RegFile,
    /// The capture tap.
    pub sniffer: Sniffer,
    link: Link,
    ingress_filter: Option<Vm>,
    egress_filter: Option<Vm>,
    classifier: Option<Vm>,
    accounting: Vec<Vm>,
    scheduler: MultiQueue,
    /// The active RSS steering table; programmed only via
    /// [`SmartNic::configure_rss`] (the control-plane path).
    rss: RssTable,
    notify_queues: HashMap<u32, NotifyQueue>,
    pipeline_free: Time,
    frozen_until: Time,
    /// Whether the device has crashed and awaits a kernel reset.
    dead: bool,
    /// Deterministic crash schedule, ticked once per dataplane or
    /// crash-eligible control op.
    crash_faults: CrashInjector,
    next_pkt_id: u64,
    stats: NicStats,
    tel: Telemetry,
    tel_hists: NicHists,
    /// Counter snapshot taken when the telemetry hub was attached (or the
    /// trace last restarted); audit cross-checks compare the ledger
    /// against deltas from here.
    tel_baseline: NicStats,
}

impl SmartNic {
    /// Creates a NIC with the given configuration, `cfg.num_queues`
    /// RX/TX queue pairs behind a uniform boot-time RSS table, and a
    /// single-class (FIFO-equivalent) scheduler per queue.
    pub fn new(cfg: NicConfig) -> SmartNic {
        let sram = Sram::new(cfg.sram_bytes);
        let link = Link::new(cfg.gbps, cfg.propagation);
        let scheduler = MultiQueue::new(cfg.num_queues, &[1.0], cfg.tx_queue_limit);
        let rss = RssTable::uniform(cfg.num_queues);
        let tel = Telemetry::new();
        let tel_hists = register_nic_hists(&tel);
        let mut regs = RegFile::new();
        regs.define_kernel(POLICY_GENERATION_REG);
        regs.define_kernel(RSS_NUM_QUEUES_REG);
        regs.write(RSS_NUM_QUEUES_REG, cfg.num_queues as u64, None)
            .expect("kernel write to a kernel register");
        SmartNic {
            sniffer: Sniffer::new(cfg.sniffer_capacity),
            sram,
            flows: FlowTable::new(),
            regs,
            link,
            ingress_filter: None,
            egress_filter: None,
            classifier: None,
            accounting: Vec::new(),
            scheduler,
            rss,
            notify_queues: HashMap::new(),
            pipeline_free: Time::ZERO,
            frozen_until: Time::ZERO,
            dead: false,
            crash_faults: CrashInjector::never(),
            next_pkt_id: 0,
            stats: NicStats::default(),
            tel,
            tel_hists,
            tel_baseline: NicStats::default(),
            cfg,
        }
    }

    /// Attaches a shared telemetry hub (replacing the NIC's private,
    /// disabled default), re-registers the stage histograms there, and
    /// snapshots current counters as the audit baseline.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel_hists = register_nic_hists(&tel);
        self.tel = tel;
        self.tel_baseline = self.stats;
    }

    /// Returns the telemetry hub handle.
    #[cfg(test)]
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Re-snapshots the counters as the baseline the telemetry ledger is
    /// audited against. Call when (re)starting a trace mid-run, after
    /// clearing the hub.
    pub fn mark_telemetry_baseline(&mut self) {
        self.tel_baseline = self.stats;
    }

    /// Registers the NIC's counters, scheduler stats, sniffer stats and
    /// SRAM occupancy into the unified metrics registry.
    pub fn fill_registry(&self, reg: &mut Registry) {
        self.stats.fill_registry(reg);
        self.scheduler.stats().fill_registry(reg, "nic.sched");
        for (i, b) in self.scheduler_class_bytes().iter().enumerate() {
            reg.set_counter(&format!("nic.sched.class{i}.bytes_sent"), *b);
        }
        let (captured, dropped) = self.sniffer.counters();
        reg.set_counter("nic.sniffer.captured", captured);
        reg.set_counter("nic.sniffer.dropped", dropped);
        reg.set_counter("nic.rss.queues", self.rss.num_queues() as u64);
        reg.set_gauge(
            "nic.sram.used_frac",
            self.sram.used() as f64 / self.cfg.sram_bytes as f64,
        );
        reg.set_counter("nic.flows.exact", self.flows.num_exact() as u64);
        reg.set_counter("nic.flows.listeners", self.flows.num_listeners() as u64);
        let fs = self.flows.stats();
        reg.set_counter("flowtable.hot_entries", self.flows.num_hot() as u64);
        reg.set_counter("flowtable.cold_entries", self.flows.num_cold() as u64);
        reg.set_counter("flowtable.promotions", fs.promotions);
        reg.set_counter("flowtable.evictions", fs.evictions);
        reg.set_counter("flowtable.cold_hits", fs.cold_hits);
        reg.set_counter("flowtable.promotion_refusals", fs.promotion_refusals);
    }

    /// Returns the configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Returns dataplane counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Control plane (kernel-only; callers enforce privilege via regs)
    // ------------------------------------------------------------------

    /// Admits a program and its artifact: the pair must belong together
    /// and the program must verify before any SRAM is charged for it.
    fn charge_program(
        &mut self,
        program: &Program,
        artifact: &CompiledProgram,
    ) -> Result<(), NicError> {
        if artifact.fingerprint() != program.fingerprint() {
            return Err(NicError::ArtifactMismatch {
                want: program.fingerprint(),
                got: artifact.fingerprint(),
            });
        }
        verify(program).map_err(NicError::Verify)?;
        let insn_bytes = program.total_insns() as u64 * 8;
        let map_bytes = program.sram_bytes() - insn_bytes;
        self.sram.alloc(SramCategory::Program, insn_bytes)?;
        if let Err(e) = self.sram.alloc(SramCategory::Maps, map_bytes) {
            self.sram.release(SramCategory::Program, insn_bytes);
            return Err(e.into());
        }
        Ok(())
    }

    fn release_program(&mut self, vm: &Vm) {
        let insn_bytes = vm.program().total_insns() as u64 * 8;
        let map_bytes = vm.program().sram_bytes() - insn_bytes;
        self.sram.release(SramCategory::Program, insn_bytes);
        self.sram.release(SramCategory::Maps, map_bytes);
    }

    /// Loads (or hot-swaps) a program into `slot` together with its
    /// AOT-compiled artifact, returning the control time consumed. The
    /// dataplane keeps running — this is the overlay's whole point
    /// (§4.4). The artifact must carry the program's own fingerprint — a
    /// stale or mismatched artifact is refused before anything is
    /// swapped, keeping the audit ledger coherent.
    pub fn load_program(
        &mut self,
        slot: ProgramSlot,
        program: Program,
        artifact: std::rc::Rc<CompiledProgram>,
        now: Time,
    ) -> Result<Dur, NicError> {
        self.tick_crash(now);
        self.check_dead()?;
        self.check_frozen(now)?;
        self.charge_program(&program, &artifact)?;
        let vm = Vm::with_compiled(program, artifact);
        let old = match slot {
            ProgramSlot::IngressFilter => self.ingress_filter.replace(vm),
            ProgramSlot::EgressFilter => self.egress_filter.replace(vm),
            ProgramSlot::Classifier => self.classifier.replace(vm),
        };
        if let Some(old) = old {
            self.release_program(&old);
        }
        self.stats.program_swaps += 1;
        Ok(self.cfg.overlay_swap_cost)
    }

    /// Unloads the program in `slot` (reverting to pass-through).
    pub fn unload_program(&mut self, slot: ProgramSlot) {
        let old = match slot {
            ProgramSlot::IngressFilter => self.ingress_filter.take(),
            ProgramSlot::EgressFilter => self.egress_filter.take(),
            ProgramSlot::Classifier => self.classifier.take(),
        };
        if let Some(old) = old {
            self.release_program(&old);
        }
    }

    /// Adds a passive accounting program (runs on every packet, verdict
    /// ignored) with its AOT-compiled artifact (see
    /// [`SmartNic::load_program`]). Returns its slot index.
    pub fn add_accounting(
        &mut self,
        program: Program,
        artifact: std::rc::Rc<CompiledProgram>,
        now: Time,
    ) -> Result<usize, NicError> {
        self.tick_crash(now);
        self.check_dead()?;
        self.check_frozen(now)?;
        if self.accounting.len() >= MAX_ACCOUNTING_SLOTS {
            return Err(NicError::AccountingSlotsFull);
        }
        self.charge_program(&program, &artifact)?;
        self.accounting.push(Vm::with_compiled(program, artifact));
        self.stats.program_swaps += 1;
        Ok(self.accounting.len() - 1)
    }

    /// Removes an accounting program by slot index.
    pub fn remove_accounting(&mut self, index: usize) -> bool {
        if index < self.accounting.len() {
            let vm = self.accounting.remove(index);
            self.release_program(&vm);
            true
        } else {
            false
        }
    }

    fn slot_vm_mut(&mut self, slot: ProgramSlot) -> Option<&mut Vm> {
        match slot {
            ProgramSlot::IngressFilter => self.ingress_filter.as_mut(),
            ProgramSlot::EgressFilter => self.egress_filter.as_mut(),
            ProgramSlot::Classifier => self.classifier.as_mut(),
        }
    }

    /// Writes a map entry in a loaded program (MMIO data update: "simply
    /// require injecting new data into memory on the SmartNIC", §4.4).
    pub fn fill_map(
        &mut self,
        slot: ProgramSlot,
        map: usize,
        key: usize,
        value: u64,
    ) -> Result<(), NicError> {
        self.check_dead()?;
        let vm = self.slot_vm_mut(slot).ok_or(NicError::NoSuchMap)?;
        if vm.map_set(map, key, value) {
            Ok(())
        } else {
            Err(NicError::NoSuchMap)
        }
    }

    fn slot_vm(&self, slot: ProgramSlot) -> Option<&Vm> {
        match slot {
            ProgramSlot::IngressFilter => self.ingress_filter.as_ref(),
            ProgramSlot::EgressFilter => self.egress_filter.as_ref(),
            ProgramSlot::Classifier => self.classifier.as_ref(),
        }
    }

    /// Reads a map entry from a loaded program.
    pub fn read_map(&self, slot: ProgramSlot, map: usize, key: usize) -> Option<u64> {
        self.slot_vm(slot)?.map_get(map, key)
    }

    /// Reads a map entry from an accounting program.
    pub fn read_accounting_map(&self, index: usize, map: usize, key: usize) -> Option<u64> {
        self.accounting.get(index)?.map_get(map, key)
    }

    /// Returns whether `slot` currently holds a program.
    pub fn program_loaded(&self, slot: ProgramSlot) -> bool {
        self.slot_vm(slot).is_some()
    }

    /// Content fingerprint of the program resident in `slot`, if any
    /// (the control plane's audit compares this against its policy store).
    pub fn program_fingerprint(&self, slot: ProgramSlot) -> Option<u64> {
        self.slot_vm(slot).map(|vm| vm.program().fingerprint())
    }

    /// Number of resident accounting programs.
    pub fn num_accounting(&self) -> usize {
        self.accounting.len()
    }

    /// Content fingerprints of resident accounting programs, in slot
    /// order.
    pub fn accounting_fingerprints(&self) -> Vec<u64> {
        self.accounting
            .iter()
            .map(|vm| vm.program().fingerprint())
            .collect()
    }

    /// Configures the TX scheduler with per-class weights. Rejects empty,
    /// non-finite, or non-positive weights — a NaN weight would silently
    /// wedge the WFQ virtual-time arithmetic.
    pub fn configure_scheduler(&mut self, weights: &[f64], now: Time) -> Result<(), NicError> {
        self.check_dead()?;
        if weights.is_empty() {
            return Err(NicError::InvalidWeights {
                index: 0,
                weight: 0.0,
            });
        }
        if let Some((index, &weight)) = weights
            .iter()
            .enumerate()
            .find(|&(_, &w)| !(w.is_finite() && w > 0.0))
        {
            return Err(NicError::InvalidWeights { index, weight });
        }
        self.rebuild_scheduler(self.scheduler.num_queues(), weights, now);
        Ok(())
    }

    /// Swaps in a fresh TX scheduler bank. Frames already accepted ride
    /// across the swap — a live reconfiguration is not a drop point — and
    /// the few the new bank cannot hold leave as typed, attributed drops,
    /// never silently.
    fn rebuild_scheduler(&mut self, num_queues: usize, weights: &[f64], now: Time) {
        for pkt in self.scheduler.reconfigure(num_queues, weights, now) {
            let [_, fid] = pkt.tag;
            self.stats.tx_reconfig_dropped += 1;
            self.tel.emit_stage(
                Stage::TxDrop,
                TraceVerdict::Drop(DropCause::QdiscFull),
                now,
                || frame_info(fid, None, pkt.len, None),
            );
        }
    }

    /// Programs the RSS queue count and indirection table (kernel-only;
    /// callers route through the control plane's two-phase commit).
    /// Validation is all-or-nothing: on error the active table is
    /// untouched. A queue-count change rebuilds the per-queue TX
    /// scheduler bank (like a weight swap); an indirection-only change
    /// is pure steering and leaves TX state alone.
    pub fn configure_rss(
        &mut self,
        num_queues: usize,
        indirection: &[u16],
        now: Time,
    ) -> Result<Dur, NicError> {
        self.tick_crash(now);
        self.check_dead()?;
        self.check_frozen(now)?;
        let table = RssTable::validated(num_queues, indirection)?;
        if table.num_queues() != self.scheduler.num_queues() {
            let weights = self.scheduler.weights().to_vec();
            self.rebuild_scheduler(table.num_queues(), &weights, now);
        }
        self.rss = table;
        self.regs
            .write(RSS_NUM_QUEUES_REG, num_queues as u64, None)
            .expect("kernel write to a kernel register");
        // Hot-tier ownership is shard-local: a steering change moves
        // connections between queues, so the per-queue victim slices are
        // rebuilt under the (unchanged) cache policy.
        let cache = self.flows.cache_config().cloned();
        let report = Self::retier(&mut self.flows, &self.rss, cache, &mut self.sram);
        self.emit_retier(&report, now);
        Ok(self.cfg.overlay_swap_cost)
    }

    /// Installs (or clears) the kernel-programmed flow-cache policy and
    /// re-tiers every connection deterministically under it (kernel-only;
    /// callers route through the control plane's two-phase commit). An
    /// overlay-class data update: the dataplane keeps running and the
    /// control side pays `overlay_swap_cost`.
    pub fn configure_flow_cache(
        &mut self,
        cache: Option<FlowCacheConfig>,
        now: Time,
    ) -> Result<Dur, NicError> {
        self.tick_crash(now);
        self.check_dead()?;
        self.check_frozen(now)?;
        let report = Self::retier(&mut self.flows, &self.rss, cache, &mut self.sram);
        self.emit_retier(&report, now);
        Ok(self.cfg.overlay_swap_cost)
    }

    /// The active flow-cache policy, if any (the control plane's audit
    /// compares this against its committed bundle).
    pub fn flow_cache(&self) -> Option<&FlowCacheConfig> {
        self.flows.cache_config()
    }

    /// Re-tiers the flow table under `cache`, with hot-slice ownership
    /// following the RSS steering. Associated fn so callers can keep
    /// disjoint borrows of other NIC fields alive.
    fn retier(
        flows: &mut FlowTable,
        rss: &RssTable,
        cache: Option<FlowCacheConfig>,
        sram: &mut Sram,
    ) -> RetierReport {
        flows.configure_cache(
            cache,
            rss.num_queues(),
            |t| rss.queue_for(pkt::meta::flow_hash_of(t)),
            sram,
        )
    }

    /// Emits the lifecycle event pair for a control-plane re-tier. These
    /// are policy movements, not frame processing, so they carry frame id
    /// 0; `ktrace` shows them with the flow tuple and owning process.
    fn emit_retier(&mut self, report: &RetierReport, now: Time) {
        let moves = (report.demoted.iter().map(|m| (Stage::FlowDemoted, m)))
            .chain(report.promoted.iter().map(|m| (Stage::FlowPromoted, m)));
        for (stage, &(id, tuple)) in moves {
            self.tel
                .emit_stage(stage, TraceVerdict::Pass, now, || FrameInfo {
                    frame_id: 0,
                    tuple: Some(tuple),
                    len: 0,
                    owner: self.flows.entry(id).map(ConnEntry::owner),
                });
        }
    }

    /// Number of active RX/TX queue pairs.
    pub fn num_queues(&self) -> usize {
        self.rss.num_queues()
    }

    /// The active RSS steering table.
    pub fn rss(&self) -> &RssTable {
        &self.rss
    }

    /// Returns per-class bytes sent by the scheduler.
    pub fn scheduler_class_bytes(&self) -> Vec<u64> {
        self.scheduler.class_bytes_sent()
    }

    /// Opens a connection: flow-table entry (hot or cold tier, per the
    /// active cache policy) + app-region doorbell registers for `pid`.
    /// Hot entries charge their slot and ring context atomically inside
    /// the flow table; cold entries live in host memory and charge
    /// nothing. A tuple that is already installed is refused
    /// ([`NicError::AlreadyInstalled`]) with nothing charged or indexed.
    pub fn open_connection(
        &mut self,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
    ) -> Result<ConnId, NicError> {
        self.check_dead()?;
        if let Some(holder) = self.flows.exact_holder(&tuple) {
            return Err(NicError::AlreadyInstalled(holder));
        }
        // The entry's home queue follows RSS steering of its RX tuple, so
        // hot-slice ownership is shard-local from birth.
        let queue = self.rss.queue_for(pkt::meta::flow_hash_of(&tuple));
        let (id, _tier) =
            self.flows
                .insert(tuple, uid, pid, comm, notify, queue, &mut self.sram)?;
        // Two app registers per connection: RX tail doorbell, TX head
        // doorbell.
        self.regs.define_app(Self::rx_doorbell_addr(id), pid);
        self.regs.define_app(Self::tx_doorbell_addr(id), pid);
        if notify {
            self.notify_queues
                .entry(pid)
                .or_insert_with(|| NotifyQueue::new(self.cfg.notify_capacity));
        }
        Ok(id)
    }

    /// Opens a listener on `(proto, port)`; a key that already has one is
    /// refused like a duplicate [`SmartNic::open_connection`].
    pub fn open_listener(
        &mut self,
        proto: IpProto,
        port: u16,
        uid: u32,
        pid: u32,
        comm: &str,
    ) -> Result<ConnId, NicError> {
        self.check_dead()?;
        if let Some(holder) = self.flows.listener_holder(proto, port) {
            return Err(NicError::AlreadyInstalled(holder));
        }
        Ok(self
            .flows
            .insert_listener(proto, port, uid, pid, comm, &mut self.sram)?)
    }

    /// Closes a connection, releasing all its NIC resources (the flow
    /// table returns SRAM per the entry's tier).
    pub fn close_connection(&mut self, id: ConnId) -> Result<(), NicError> {
        self.check_dead()?;
        if !self.flows.remove(id, &mut self.sram) {
            return Err(NicError::NoSuchConn(id));
        }
        self.regs.remove(Self::rx_doorbell_addr(id));
        self.regs.remove(Self::tx_doorbell_addr(id));
        Ok(())
    }

    /// The MMIO address of a connection's RX doorbell. The doorbell
    /// window starts *above* the kernel config region (0x20_xxxx) and
    /// grows upward, so connection ids can climb past 64k without an
    /// app-region doorbell ever aliasing a kernel register. (The old
    /// 0x10_0000 base put connection 65536's doorbells exactly on
    /// [`POLICY_GENERATION_REG`]/`RSS_NUM_QUEUES_REG`.)
    pub fn rx_doorbell_addr(id: ConnId) -> u64 {
        0x100_0000 + id.0 * 16
    }

    /// The MMIO address of a connection's TX doorbell.
    pub fn tx_doorbell_addr(id: ConnId) -> u64 {
        0x100_0000 + id.0 * 16 + 8
    }

    /// Enables the capture tap.
    pub fn enable_sniffer(&mut self, filter: SnifferFilter) {
        self.sniffer.enable(filter);
    }

    /// Disables the capture tap.
    pub fn disable_sniffer(&mut self) {
        self.sniffer.disable();
    }

    /// Starts a full bitstream reprogram: the dataplane is down until it
    /// completes. Returns when the NIC comes back.
    pub fn reprogram_bitstream(&mut self, now: Time) -> Time {
        self.frozen_until = now + self.cfg.bitstream_reprogram;
        self.stats.bitstream_reprograms += 1;
        // A reprogram wipes the loaded overlay programs (new hardware).
        self.unload_program(ProgramSlot::IngressFilter);
        self.unload_program(ProgramSlot::EgressFilter);
        self.unload_program(ProgramSlot::Classifier);
        while !self.accounting.is_empty() {
            self.remove_accounting(0);
        }
        self.frozen_until
    }

    /// Arms an interrupt on `pid`'s notification queue (kernel operation
    /// before blocking the process).
    pub fn arm_interrupt(&mut self, pid: u32) {
        self.notify_queues
            .entry(pid)
            .or_insert_with(|| NotifyQueue::new(self.cfg.notify_capacity))
            .arm_interrupt();
    }

    /// Pops a notification for `pid`.
    pub fn pop_notification(&mut self, pid: u32) -> Option<Notification> {
        self.notify_queues.get_mut(&pid)?.pop()
    }

    fn check_frozen(&self, now: Time) -> Result<(), NicError> {
        if now < self.frozen_until {
            Err(NicError::Reprogramming {
                until: self.frozen_until,
            })
        } else {
            Ok(())
        }
    }

    /// Returns whether the dataplane is down for a bitstream reprogram at
    /// `now`.
    pub fn is_frozen(&self, now: Time) -> bool {
        now < self.frozen_until
    }

    /// When the current (or last) bitstream reprogram window ends.
    pub fn frozen_until(&self) -> Time {
        self.frozen_until
    }

    // ------------------------------------------------------------------
    // Crash / reset (the failure domain)
    // ------------------------------------------------------------------

    /// Installs a deterministic crash schedule. Every dataplane frame and
    /// crash-eligible control op ticks it once; when it fires the device
    /// [`SmartNic::crash`]es at exactly that op — same seed, same op,
    /// same losses on every replay.
    pub fn set_crash_injector(&mut self, injector: CrashInjector) {
        self.crash_faults = injector;
    }

    /// Crash-schedule observability: (ops ticked, crashes fired).
    pub fn crash_injector_stats(&self) -> (u64, u64) {
        (self.crash_faults.ops(), self.crash_faults.crashes())
    }

    /// Returns whether the device has crashed and awaits a reset.
    ///
    /// A crashed NIC has lost *all* volatile state — flow table, ring
    /// contexts, overlay programs and maps, RSS indirection, TX scheduler
    /// contents, notification queues, MMIO register file — and every
    /// dataplane and control operation fails until the kernel drives a
    /// [`SmartNic::reset`]. Recovery is the kernel's job: reset brings the
    /// device back at boot configuration, and the control plane's
    /// reconcile path reinstalls the committed policy bundle.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn check_dead(&self) -> Result<(), NicError> {
        if self.dead {
            Err(NicError::Dead)
        } else {
            Ok(())
        }
    }

    /// Ticks the crash schedule for one op on a live device; returns
    /// `true` if the device is (now) dead. Dead devices don't tick — the
    /// schedule counts ops the hardware actually observed.
    fn tick_crash(&mut self, now: Time) -> bool {
        if !self.dead && self.crash_faults.should_crash() {
            self.crash(now);
        }
        self.dead
    }

    /// Kills the device at `now`: every piece of volatile state — flow
    /// table, ring contexts, overlay programs and their maps, RSS
    /// indirection, TX scheduler contents, notification queues, sniffer
    /// buffer, MMIO register file — is wiped to power-on contents.
    ///
    /// Frames sitting in the TX scheduler are lost; each is accounted as
    /// a counted [`DropCause::DeviceDead`] drop (with its traced frame
    /// id) so conservation audits still balance. Cumulative counters and
    /// the telemetry hub survive: they model the *kernel's* view of the
    /// device, not on-board state.
    ///
    /// Idempotent while dead. Normally driven by the installed crash
    /// schedule; chaos harnesses may also call it directly.
    pub fn crash(&mut self, now: Time) {
        if self.dead {
            return;
        }
        self.dead = true;
        let purged = self.scheduler.purge();
        let n_purged = purged.len();
        for pkt in purged {
            let [_, fid] = pkt.tag;
            self.stats.tx_crash_purged += 1;
            self.tel.emit_stage(
                Stage::TxDrop,
                TraceVerdict::Drop(DropCause::DeviceDead),
                now,
                || frame_info(fid, None, pkt.len, None),
            );
        }
        // Wipe volatile state back to power-on contents.
        self.sram = Sram::new(self.cfg.sram_bytes);
        self.flows = FlowTable::new();
        self.ingress_filter = None;
        self.egress_filter = None;
        self.classifier = None;
        self.accounting = Vec::new();
        self.scheduler = MultiQueue::new(self.cfg.num_queues, &[1.0], self.cfg.tx_queue_limit);
        self.rss = RssTable::uniform(self.cfg.num_queues);
        self.notify_queues.clear();
        self.sniffer = Sniffer::new(self.cfg.sniffer_capacity);
        let mut regs = RegFile::new();
        regs.define_kernel(POLICY_GENERATION_REG);
        regs.define_kernel(RSS_NUM_QUEUES_REG);
        regs.write(RSS_NUM_QUEUES_REG, self.cfg.num_queues as u64, None)
            .expect("kernel write to a kernel register");
        self.regs = regs;
        self.stats.crashes += 1;
        self.tel.record_recovery(
            now,
            RecoveryKind::NicCrash,
            format!(
                "nic crash #{}: {} tx frames purged",
                self.stats.crashes, n_purged
            ),
        );
    }

    /// Kernel-driven device reset: firmware reload plus self-test. The
    /// device stops being dead immediately but stays frozen
    /// (like a reprogram window) for `cfg.reset_cost`; returns when the
    /// dataplane is back. The device comes up at boot configuration — the
    /// control plane's reconcile path reinstalls the committed policy.
    ///
    /// Calling this on a live device models a cold restart: volatile
    /// state is wiped first, exactly as if the device had crashed.
    pub fn reset(&mut self, now: Time) -> Time {
        if !self.dead {
            self.crash(now);
        }
        self.dead = false;
        self.frozen_until = now + self.cfg.reset_cost;
        self.stats.resets += 1;
        self.tel.record_recovery(
            now,
            RecoveryKind::NicReset,
            format!(
                "nic reset #{}: dataplane back at {}",
                self.stats.resets, self.frozen_until
            ),
        );
        self.frozen_until
    }

    /// Reinstalls a connection under its *original* id — the crash-
    /// recovery path, where the kernel repopulates the wiped flow table
    /// from its own records and ring keys / doorbell addresses / process
    /// handles must keep working unchanged.
    /// SRAM exhaustion never fails a restore: an entry that no longer
    /// fits the hot tier lands cold (the reconcile path re-tiers it under
    /// the committed policy), so no connection is lost to a crash.
    pub fn restore_connection(
        &mut self,
        id: ConnId,
        tuple: FiveTuple,
        uid: u32,
        pid: u32,
        comm: &str,
        notify: bool,
    ) -> Result<(), NicError> {
        self.check_dead()?;
        let queue = self.rss.queue_for(pkt::meta::flow_hash_of(&tuple));
        let _tier = self
            .flows
            .restore(id, tuple, uid, pid, comm, notify, queue, &mut self.sram);
        self.regs.define_app(Self::rx_doorbell_addr(id), pid);
        self.regs.define_app(Self::tx_doorbell_addr(id), pid);
        if notify {
            self.notify_queues
                .entry(pid)
                .or_insert_with(|| NotifyQueue::new(self.cfg.notify_capacity));
        }
        Ok(())
    }

    /// Reinstalls a listener under its original id (crash recovery; see
    /// [`SmartNic::restore_connection`]).
    pub fn restore_listener(
        &mut self,
        id: ConnId,
        proto: IpProto,
        port: u16,
        uid: u32,
        pid: u32,
        comm: &str,
    ) -> Result<(), NicError> {
        self.check_dead()?;
        self.flows
            .restore_listener(id, proto, port, uid, pid, comm, &mut self.sram)?;
        Ok(())
    }

    /// Cross-layer invariant audit: verifies that SRAM accounting matches
    /// the live flow table, ring contexts, and loaded overlay programs,
    /// and that the TX scheduler and its connection map agree.
    ///
    /// Returns a list of violations (empty = all invariants hold). Chaos
    /// harnesses call this after every injected fault; any violation means
    /// a fault corrupted NIC state rather than just losing traffic.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();

        // Flow-table SRAM equals *hot-tier* entries at their fixed costs;
        // cold-tier entries live in host memory and charge nothing.
        let expect_flow = self.flows.num_hot() as u64 * crate::flowtable::ENTRY_BYTES
            + self.flows.num_listeners() as u64 * crate::flowtable::LISTENER_BYTES;
        let actual_flow = self.sram.used_by(SramCategory::FlowTable);
        if actual_flow != expect_flow {
            violations.push(format!(
                "flow-table SRAM {actual_flow} != {} hot * {} + {} listeners * {} = {expect_flow}",
                self.flows.num_hot(),
                crate::flowtable::ENTRY_BYTES,
                self.flows.num_listeners(),
                crate::flowtable::LISTENER_BYTES,
            ));
        }

        // Tier conservation: every exact connection is in exactly one
        // tier — none lost, none double-counted.
        if self.flows.num_hot() + self.flows.num_cold() != self.flows.num_exact() {
            violations.push(format!(
                "flow tiers: {} hot + {} cold != {} exact connections",
                self.flows.num_hot(),
                self.flows.num_cold(),
                self.flows.num_exact(),
            ));
        }
        violations.extend(self.flows.audit_tiers());

        // Entry records cover exactly the exact + listener keys.
        let key_count = self.flows.num_exact() + self.flows.num_listeners();
        if self.flows.num_entries() != key_count {
            violations.push(format!(
                "flow-table entry records {} != exact {} + listeners {}",
                self.flows.num_entries(),
                self.flows.num_exact(),
                self.flows.num_listeners(),
            ));
        }

        // Ring contexts: one per *hot* exact-match connection, none for
        // cold connections or listeners.
        let expect_rings = self.flows.num_hot() as u64 * RING_CONTEXT_BYTES;
        let actual_rings = self.sram.used_by(SramCategory::RingContext);
        if actual_rings != expect_rings {
            violations.push(format!(
                "ring-context SRAM {actual_rings} != {} hot conns * {RING_CONTEXT_BYTES} = {expect_rings}",
                self.flows.num_hot(),
            ));
        }

        // Overlay slots: Program/Maps SRAM equals the sum over loaded VMs.
        let mut expect_insn = 0u64;
        let mut expect_maps = 0u64;
        let loaded = self
            .ingress_filter
            .iter()
            .chain(self.egress_filter.iter())
            .chain(self.classifier.iter())
            .chain(self.accounting.iter());
        for vm in loaded {
            let insn = vm.program().insns.len() as u64 * 8;
            expect_insn += insn;
            expect_maps += vm.program().sram_bytes() - insn;
        }
        let actual_insn = self.sram.used_by(SramCategory::Program);
        let actual_maps = self.sram.used_by(SramCategory::Maps);
        if actual_insn != expect_insn {
            violations.push(format!(
                "program SRAM {actual_insn} != loaded programs' instruction bytes {expect_insn}"
            ));
        }
        if actual_maps != expect_maps {
            violations.push(format!(
                "maps SRAM {actual_maps} != loaded programs' map bytes {expect_maps}"
            ));
        }

        // SRAM totals are internally consistent.
        let by_category: u64 = SramCategory::ALL
            .iter()
            .map(|&c| self.sram.used_by(c))
            .sum();
        if by_category != self.sram.used() {
            violations.push(format!(
                "SRAM category sum {by_category} != used total {}",
                self.sram.used()
            ));
        }

        // RSS state is internally consistent: the TX scheduler bank has
        // one queue per RSS queue, every indirection entry names a live
        // queue, and the kernel register mirrors the active count.
        if self.scheduler.num_queues() != self.rss.num_queues() {
            violations.push(format!(
                "TX scheduler has {} queues but RSS table has {}",
                self.scheduler.num_queues(),
                self.rss.num_queues()
            ));
        }
        if let Some((index, &queue)) = self
            .rss
            .indirection()
            .iter()
            .enumerate()
            .find(|&(_, &q)| usize::from(q) >= self.rss.num_queues())
        {
            violations.push(format!(
                "RSS indirection[{index}] = {queue} names a nonexistent queue (have {})",
                self.rss.num_queues()
            ));
        }
        if self.regs.peek(RSS_NUM_QUEUES_REG) != Some(self.rss.num_queues() as u64) {
            violations.push(format!(
                "RSS queue-count register {:?} != active table's {}",
                self.regs.peek(RSS_NUM_QUEUES_REG),
                self.rss.num_queues()
            ));
        }

        // Second, independent ledger: when tracing is on, the telemetry
        // stage totals (accumulated since the trace baseline) must agree
        // with the dataplane's own counters, and every admitted frame
        // must terminate in exactly one of deliver/slowpath/drop.
        if self.tel.is_enabled() {
            let b = &self.tel_baseline;
            let s = &self.stats;
            let stage = |st: Stage| self.tel.stage_count(st);
            let checks = [
                (
                    "rx_ingress vs rx_frames",
                    stage(Stage::RxIngress),
                    s.rx_frames - b.rx_frames,
                ),
                (
                    "rx_deliver vs rx_delivered",
                    stage(Stage::RxDeliver),
                    s.rx_delivered - b.rx_delivered,
                ),
                (
                    "rx_slowpath vs rx_slowpath",
                    stage(Stage::RxSlowPath),
                    s.rx_slowpath - b.rx_slowpath,
                ),
                (
                    "tx_offer vs tx_frames",
                    stage(Stage::TxOffer),
                    s.tx_frames - b.tx_frames,
                ),
                (
                    "tx_depart vs tx_sent",
                    stage(Stage::TxDepart),
                    s.tx_sent - b.tx_sent,
                ),
                (
                    "drop(malformed) vs rx_malformed+rx_bad_checksum",
                    self.tel.drop_count(DropCause::Malformed),
                    (s.rx_malformed - b.rx_malformed) + (s.rx_bad_checksum - b.rx_bad_checksum),
                ),
                (
                    "drop(filter) vs rx_filtered+tx_filtered",
                    self.tel.drop_count(DropCause::Filter),
                    (s.rx_filtered - b.rx_filtered) + (s.tx_filtered - b.tx_filtered),
                ),
                (
                    "drop(reprogramming) vs dropped_reprogramming",
                    self.tel.drop_count(DropCause::Reprogramming),
                    s.dropped_reprogramming - b.dropped_reprogramming,
                ),
                (
                    "drop(device_dead) vs dropped_dead+tx_crash_purged",
                    self.tel.drop_count(DropCause::DeviceDead),
                    (s.dropped_dead - b.dropped_dead) + (s.tx_crash_purged - b.tx_crash_purged),
                ),
            ];
            for (what, ledger, counters) in checks {
                if ledger != counters {
                    violations.push(format!(
                        "telemetry {what}: ledger {ledger} != counters {counters}"
                    ));
                }
            }
            let rx_terminal =
                stage(Stage::RxDeliver) + stage(Stage::RxSlowPath) + stage(Stage::RxDrop);
            if stage(Stage::RxIngress) != rx_terminal {
                violations.push(format!(
                    "RX conservation: {} ingress events != {} terminal (deliver+slowpath+drop)",
                    stage(Stage::RxIngress),
                    rx_terminal
                ));
            }
            // A frame purged by a crash, or refused by a reconfigured
            // scheduler, was both queued (TxQueue at enqueue time) and
            // dropped (TxDrop later), so those are subtracted to keep
            // offers == terminals.
            let purged = (s.tx_crash_purged - b.tx_crash_purged)
                + (s.tx_reconfig_dropped - b.tx_reconfig_dropped);
            let tx_terminal = stage(Stage::TxQueue) + stage(Stage::TxDrop) - purged;
            if stage(Stage::TxOffer) != tx_terminal {
                violations.push(format!(
                    "TX conservation: {} offer events != {} terminal (queue+drop-purged)",
                    stage(Stage::TxOffer),
                    tx_terminal
                ));
            }
        }

        violations
    }

    // ------------------------------------------------------------------
    // Dataplane
    // ------------------------------------------------------------------

    /// Builds the overlay packet context from the parse-once descriptor —
    /// no byte access, no per-stage Toeplitz (the hash rides in the
    /// descriptor). Associated fn (not `&self`) so callers can keep
    /// disjoint borrows of other NIC fields alive.
    fn build_ctx(
        meta: Option<&FrameMeta>,
        len: usize,
        entry: Option<&ConnEntry>,
        egress: bool,
        now: Time,
    ) -> PktCtx {
        let tuple = meta.and_then(|m| m.tuple);
        PktCtx {
            // Same injective packing as the flow table's exact-match key,
            // so per-flow overlay state and flow-table entries agree on
            // flow identity. Tuple-less frames (ARP, malformed) key to 0.
            flow_key: tuple.as_ref().map(crate::flowtable::exact_key).unwrap_or(0),
            pkt_len: len as u64,
            proto: tuple.map(|t| u64::from(t.proto.0)).unwrap_or(0),
            src_ip: tuple.map(|t| u32::from(t.src_ip)).unwrap_or(0),
            dst_ip: tuple.map(|t| u32::from(t.dst_ip)).unwrap_or(0),
            src_port: tuple.map(|t| t.src_port).unwrap_or(0),
            dst_port: tuple.map(|t| t.dst_port).unwrap_or(0),
            uid: entry.map(|e| e.uid).unwrap_or(u32::MAX),
            pid: entry.map(|e| e.pid).unwrap_or(0),
            flow_hash: meta.map(|m| m.flow_hash).unwrap_or(0),
            conn_id: entry.map(|e| e.id.0).unwrap_or(u64::MAX),
            now_ns: now.as_ns_f64() as u64,
            ethertype: meta.map(|m| m.ethertype).unwrap_or(0),
            dscp: meta.map(|m| m.dscp_ecn).unwrap_or(0),
            is_arp: meta.map(|m| m.is_arp()).unwrap_or(false),
            egress,
            mark: 0,
        }
    }

    /// Runs a VM defensively: faults fail closed to `Drop`.
    fn run_vm(vm: &mut Vm, ctx: &PktCtx) -> (Verdict, u64) {
        match vm.run(ctx) {
            Ok(exec) => (exec.verdict, exec.cycles),
            Err(_) => (Verdict::Drop, 1),
        }
    }

    /// The two-event lifecycle of a frame dropped before the flow table:
    /// admitted at `now`, dropped for `cause` at `dropped_at`.
    fn emit_rx_drop(
        &self,
        fid: u64,
        meta: Option<&FrameMeta>,
        len: u32,
        now: Time,
        cause: DropCause,
        dropped_at: Time,
    ) {
        self.tel.emit_stages(
            &[
                StageRec::new(Stage::RxIngress, TraceVerdict::Pass, now),
                StageRec::new(Stage::RxDrop, TraceVerdict::Drop(cause), dropped_at),
            ],
            &[],
            || frame_info(fid, meta, len, None),
        );
    }

    /// Finishes an ingress frame the parser stage rejected (structural
    /// failure or bad transport checksum): it occupies the parser like any
    /// other frame, is visible to the sniffer (unattributed), and becomes
    /// a counted [`DropReason::Malformed`].
    fn rx_malformed_drop(
        &mut self,
        packet: &Packet,
        meta: Result<&FrameMeta, &PktError>,
        now: Time,
    ) -> RxResult {
        let latency = self.cfg.base_latency + self.cfg.parse_cost;
        let start = now.max(self.pipeline_free);
        self.pipeline_free = start + self.cfg.parse_cost;
        match meta {
            // A bad-checksum frame still parsed; the tap shows its summary.
            Ok(m) => self.sniffer.tap(now, Direction::Rx, packet, m, None),
            Err(e) => self
                .sniffer
                .tap_unparsed(now, Direction::Rx, packet, e, None),
        }
        let fid = self
            .tel
            .adopt_frame_id(meta.ok().map(|m| m.frame_id).unwrap_or(0));
        let meta_out = meta.ok().copied().map(|mut m| {
            m.frame_id = fid;
            m
        });
        let len = packet.len() as u32;
        self.emit_rx_drop(
            fid,
            meta_out.as_ref(),
            len,
            now,
            DropCause::Malformed,
            start + latency,
        );
        RxResult {
            disposition: RxDisposition::Drop {
                reason: DropReason::Malformed,
            },
            ready_at: start + latency,
            latency,
            interrupt: false,
            meta: meta_out,
            cold: false,
        }
    }

    /// The reprogramming-window drop (dataplane frozen for a bitstream
    /// reprogram): the frame never enters the pipeline.
    fn rx_frozen_drop(&mut self, packet: &Packet, now: Time) -> RxResult {
        self.stats.dropped_reprogramming += 1;
        let fid = self.tel.alloc_frame_id();
        let len = packet.len() as u32;
        self.emit_rx_drop(fid, None, len, now, DropCause::Reprogramming, now);
        RxResult {
            disposition: RxDisposition::Drop {
                reason: DropReason::Reprogramming,
            },
            ready_at: now,
            latency: Dur::ZERO,
            interrupt: false,
            meta: None,
            cold: false,
        }
    }

    /// The dead-device drop: the frame hits a crashed NIC and vanishes
    /// at the wire, counted so conservation audits still balance.
    fn rx_dead_drop(&mut self, packet: &Packet, now: Time) -> RxResult {
        self.stats.dropped_dead += 1;
        let fid = self.tel.alloc_frame_id();
        let len = packet.len() as u32;
        self.emit_rx_drop(fid, None, len, now, DropCause::DeviceDead, now);
        RxResult {
            disposition: RxDisposition::Drop {
                reason: DropReason::DeviceDead,
            },
            ready_at: now,
            latency: Dur::ZERO,
            interrupt: false,
            meta: None,
            cold: false,
        }
    }

    /// The parser stage: derives the parse-once descriptor (or reuses the
    /// one attached at build time) and rejects damaged frames before they
    /// can touch the flow table or overlay state. A frame that fails to
    /// parse, or parses but fails its transport checksum, is a counted
    /// drop — never a flow-table entry, notification, or slow-path punt
    /// built from garbage bytes.
    ///
    /// Returns `Err(rx_result)` when the frame was consumed as a drop.
    #[allow(clippy::result_large_err)] // Err is the fully-formed per-frame report
    fn rx_parse(&mut self, packet: &Packet, now: Time) -> Result<FrameMeta, RxResult> {
        match FrameMeta::of(packet) {
            Ok(m) if !m.l4_checksum_ok => {
                self.stats.rx_bad_checksum += 1;
                Err(self.rx_malformed_drop(packet, Ok(&m), now))
            }
            Ok(m) => Ok(m),
            Err(e) => {
                self.stats.rx_malformed += 1;
                Err(self.rx_malformed_drop(packet, Err(&e), now))
            }
        }
    }

    /// Processes one ingress frame arriving from the wire at `now`: the
    /// one ingress routine — crash tick, freeze window, parse, flow
    /// lookup, then overlay, timing and disposition (`rx_finish`).
    pub fn rx(&mut self, packet: &Packet, now: Time) -> RxResult {
        self.stats.rx_frames += 1;
        if self.tick_crash(now) {
            return self.rx_dead_drop(packet, now);
        }
        if now < self.frozen_until {
            return self.rx_frozen_drop(packet, now);
        }
        let meta = match self.rx_parse(packet, now) {
            Ok(m) => m,
            Err(dropped) => return dropped,
        };
        let hit = meta
            .tuple
            .and_then(|t| self.flows.lookup(&t, &mut self.sram));
        self.rx_finish(packet, meta, hit, now)
    }

    /// The post-lookup half of ingress: overlay stages, timing, tap,
    /// disposition, and notification. `hit` is the flow-table steering
    /// decision with its tier movements already applied.
    fn rx_finish(
        &mut self,
        packet: &Packet,
        mut meta: FrameMeta,
        hit: Option<LookupHit>,
        now: Time,
    ) -> RxResult {
        // Tag the frame for lifecycle tracing: adopt an id assigned by an
        // upstream stage (e.g. a NAT box sharing the hub) or allocate one.
        meta.frame_id = self.tel.adopt_frame_id(meta.frame_id);
        // RSS steering: the indirection table maps the Toeplitz hash to
        // the RX queue this frame is delivered on.
        meta.queue = self.rss.queue_for(meta.flow_hash);

        // Ownership, notify and comm were copied out of the entry during
        // the lookup probe, so neither steering nor any observer needs a
        // second table probe.
        let cold = hit.is_some_and(|h| h.tier == FlowTier::Cold);

        // Sniffer taps see everything entering the host, post-parse.
        self.sniffer.tap(
            now,
            Direction::Rx,
            packet,
            &meta,
            hit.map(|h| (h.uid, h.pid, h.comm.as_str())),
        );

        // Overlay stages. The VM context is only materialized when a
        // stage will actually run it — with no overlay loaded the frame
        // skips the (field-by-field) context assembly entirely, which is
        // observationally identical since nothing else reads it.
        let filter_loaded = self.ingress_filter.is_some();
        let mut overlay_cycles = 0u64;
        let mut verdict = Verdict::Pass;
        if filter_loaded || !self.accounting.is_empty() {
            let entry = hit.and_then(|h| self.flows.entry(h.id));
            let ctx = Self::build_ctx(Some(&meta), packet.len(), entry, false, now);
            if let Some(vm) = self.ingress_filter.as_mut() {
                let (v, c) = Self::run_vm(vm, &ctx);
                overlay_cycles += c;
                verdict = v;
            }
            for vm in &mut self.accounting {
                let (_, c) = Self::run_vm(vm, &ctx);
                overlay_cycles += c;
            }
        }

        // Timing: latency = all stages; occupancy = the overlay (the
        // slowest programmable stage) or the fixed stages, whichever is
        // longer. A cold-tier hit pays the host-memory table walk in the
        // lookup stage — and occupies it, so cold traffic throttles
        // pipeline throughput (the pressure the eviction policy manages).
        let lookup_cost = if cold {
            self.cfg.lookup_cost + self.cfg.cold_lookup_cost
        } else {
            self.cfg.lookup_cost
        };
        let overlay_time = self.cfg.overlay_cycle.saturating_mul(overlay_cycles);
        let latency = self.cfg.base_latency + self.cfg.parse_cost + lookup_cost + overlay_time;
        let occupancy = overlay_time.max(self.cfg.parse_cost).max(lookup_cost);
        let start = now.max(self.pipeline_free);
        self.pipeline_free = start + occupancy;
        let ready_at = start + latency;

        let disposition = match (verdict, hit) {
            (Verdict::Drop, _) => {
                self.stats.rx_filtered += 1;
                RxDisposition::Drop {
                    reason: DropReason::Filter,
                }
            }
            (Verdict::SlowPath, _) => {
                self.stats.rx_slowpath += 1;
                RxDisposition::SlowPath {
                    reason: SlowPathReason::PolicyPunt,
                }
            }
            (_, Some(h)) => {
                self.stats.rx_delivered += 1;
                RxDisposition::Deliver {
                    conn: h.id,
                    notify: h.notify,
                }
            }
            (_, None) => {
                self.stats.rx_slowpath += 1;
                RxDisposition::SlowPath {
                    reason: SlowPathReason::NoFlowMatch,
                }
            }
        };

        // Post notifications for delivered packets on notify connections.
        let mut interrupt = false;
        if let (RxDisposition::Deliver { conn, notify: true }, Some(h)) = (disposition, hit) {
            let q = self
                .notify_queues
                .entry(h.pid)
                .or_insert_with(|| NotifyQueue::new(self.cfg.notify_capacity));
            interrupt = q.post(Notification {
                conn,
                kind: NotifyKind::RxReady,
                at: ready_at,
            });
        }

        let result = RxResult {
            disposition,
            ready_at,
            latency,
            interrupt,
            meta: Some(meta),
            cold,
        };
        if self.tel.is_enabled() {
            // Per-stage virtual-time latencies ride the same hub call.
            let h = &self.tel_hists;
            let hists = [
                (h.parse, self.cfg.parse_cost),
                (h.lookup, lookup_cost),
                (h.latency, latency),
                (h.overlay, overlay_time),
            ];
            let n = if overlay_time > Dur::ZERO { 4 } else { 3 };
            // A dropping filter verdict is *not* a filter-stage event —
            // the terminal RxDrop carries the cause, so the ledger counts
            // each dropped frame exactly once.
            let filter_stage = match verdict {
                _ if !filter_loaded => None,
                Verdict::Drop => None,
                Verdict::SlowPath => Some(TraceVerdict::SlowPath),
                _ => Some(TraceVerdict::Pass),
            };
            self.trace_rx(
                &result,
                packet.len() as u32,
                hit,
                filter_stage,
                now,
                &hists[..n],
            );
        }
        result
    }

    /// Records one admitted ingress frame's NIC lifecycle — admission,
    /// parse, flow-table steering and any tier movement it triggered, the
    /// filter stage, the terminal event (exactly one of deliver, slowpath
    /// or drop: the conservation ledger) and the notification — together
    /// with its stage-latency samples, in one hub call: one borrow, the
    /// shared fields written once. Ownership is joined from the
    /// flow-table entry the kernel installed — the paper's process view,
    /// with no kernel round-trip.
    fn trace_rx(
        &self,
        rx: &RxResult,
        len: u32,
        hit: Option<LookupHit>,
        filter_stage: Option<TraceVerdict>,
        now: Time,
        hists: &[(HistId, Dur)],
    ) {
        let meta = rx.meta.as_ref();
        let fid = meta.map_or(0, |m| m.frame_id);
        let frame = || {
            frame_info(
                fid,
                meta,
                len,
                hit.map(|h| Owner::new(h.uid, h.pid, h.comm)),
            )
        };
        let mut stages = [StageRec::new(Stage::RxIngress, TraceVerdict::Pass, now); 7];
        let mut filled = 1;
        // Appends a stage; returns how many the frame has crossed so far.
        let mut push = |stage, verdict, at| {
            stages[filled] = StageRec::new(stage, verdict, at);
            filled += 1;
            filled
        };
        push(Stage::RxParse, TraceVerdict::Pass, now);
        let lookup = if hit.is_some() {
            TraceVerdict::Hit
        } else {
            TraceVerdict::Miss
        };
        let mut steered = push(Stage::RxFlowLookup, lookup, now);
        if hit.is_some_and(|h| h.promoted) {
            steered = push(Stage::FlowPromoted, TraceVerdict::Pass, now);
        }
        if let Some(v) = filter_stage {
            push(Stage::RxFilter, v, now);
        }
        let (terminal, verdict) = match rx.disposition {
            RxDisposition::Deliver { .. } => (Stage::RxDeliver, TraceVerdict::Pass),
            RxDisposition::SlowPath { .. } => (Stage::RxSlowPath, TraceVerdict::SlowPath),
            RxDisposition::Drop { reason } => (Stage::RxDrop, TraceVerdict::Drop(reason.cause())),
        };
        let mut crossed = push(terminal, verdict, rx.ready_at);
        if matches!(rx.disposition, RxDisposition::Deliver { notify: true, .. }) {
            crossed = push(Stage::Notify, TraceVerdict::Pass, rx.ready_at);
        }
        let mut rest = &stages[..crossed];
        if let Some((vid, vtuple)) = hit.and_then(|h| h.demoted) {
            // The promotion's victim is traced under this frame's id but
            // with its own tuple and owner, so it cannot share the frame's
            // record: the record is split around it to keep the event order.
            self.tel.emit_stages(&rest[..steered], &[], frame);
            self.tel
                .emit_stage(Stage::FlowDemoted, TraceVerdict::Pass, now, || FrameInfo {
                    frame_id: fid,
                    tuple: Some(vtuple),
                    len: 0,
                    owner: self.flows.entry(vid).map(ConnEntry::owner),
                });
            rest = &rest[steered..];
        }
        self.tel.emit_stages(rest, hists, frame);
    }

    /// Processes a burst of ingress frames arriving together at `now`: a
    /// burst is [`SmartNic::rx`] once per frame, in order.
    pub fn rx_batch(&mut self, packets: &[Packet], now: Time) -> Vec<RxResult> {
        packets.iter().map(|p| self.rx(p, now)).collect()
    }

    /// Records a TX frame refused at the door: offered and dropped for
    /// `cause` in the same instant.
    fn emit_tx_refused(
        &self,
        fid: u64,
        meta: Option<&FrameMeta>,
        len: u32,
        cause: DropCause,
        now: Time,
    ) {
        self.tel.emit_stages(
            &[
                StageRec::new(Stage::TxOffer, TraceVerdict::Pass, now),
                StageRec::new(Stage::TxDrop, TraceVerdict::Drop(cause), now),
            ],
            &[],
            || frame_info(fid, meta, len, None),
        );
    }

    /// Offers an egress frame from `conn` to the NIC at `now` (the host
    /// has rung the TX doorbell and the NIC has DMA-read the frame).
    pub fn tx_enqueue(
        &mut self,
        conn: ConnId,
        packet: &Packet,
        now: Time,
    ) -> Result<TxDisposition, NicError> {
        self.stats.tx_frames += 1;
        let meta = FrameMeta::of(packet);
        let fid = self
            .tel
            .adopt_frame_id(meta.as_ref().ok().map(|m| m.frame_id).unwrap_or(0));
        let len = packet.len() as u32;
        if self.tick_crash(now) {
            self.stats.dropped_dead += 1;
            self.emit_tx_refused(fid, meta.as_ref().ok(), len, DropCause::DeviceDead, now);
            return Ok(TxDisposition::Drop {
                reason: DropReason::DeviceDead,
            });
        }
        if now < self.frozen_until {
            self.stats.dropped_reprogramming += 1;
            self.emit_tx_refused(fid, meta.as_ref().ok(), len, DropCause::Reprogramming, now);
            return Ok(TxDisposition::Drop {
                reason: DropReason::Reprogramming,
            });
        }
        // Borrow the entry in place: the overlay VMs, scheduler, and
        // sniffer are all distinct NIC fields, so the entry never needs
        // cloning on the TX hot path.
        let Some(entry) = self.flows.entry(conn) else {
            self.emit_tx_refused(fid, meta.as_ref().ok(), len, DropCause::StaleConn, now);
            return Err(NicError::NoSuchConn(conn));
        };
        let ctx = Self::build_ctx(meta.as_ref().ok(), packet.len(), Some(entry), true, now);
        let owner = entry.owner();
        let tel = &self.tel;
        let emit = |stage, verdict| {
            tel.emit_stage(stage, verdict, now, || {
                frame_info(fid, meta.as_ref().ok(), len, Some(owner))
            })
        };
        emit(Stage::TxOffer, TraceVerdict::Pass);

        let filter_loaded = self.egress_filter.is_some();
        let mut verdict = Verdict::Pass;
        if let Some(vm) = self.egress_filter.as_mut() {
            let (v, _) = Self::run_vm(vm, &ctx);
            verdict = v;
        }
        for vm in &mut self.accounting {
            let _ = Self::run_vm(vm, &ctx);
        }
        if verdict == Verdict::Drop {
            self.stats.tx_filtered += 1;
            emit(Stage::TxDrop, TraceVerdict::Drop(DropCause::Filter));
            return Ok(TxDisposition::Drop {
                reason: DropReason::Filter,
            });
        }
        if filter_loaded {
            emit(Stage::TxFilter, TraceVerdict::Pass);
        }

        let class = match self.classifier.as_mut() {
            Some(vm) => match Self::run_vm(vm, &ctx) {
                (Verdict::Class(c), _) => c,
                _ => 0,
            },
            None => 0,
        };
        // Clamp to configured classes (unknown classes use class 0, like
        // an unmatched tc filter).
        let class = if (class as usize) < self.scheduler.num_classes() {
            class
        } else {
            0
        };
        emit(Stage::TxClass, TraceVerdict::Class(class));

        // The TX tap sees frames accepted for transmission.
        let tap_owner = Some((owner.uid, owner.pid, owner.comm.as_str()));
        match &meta {
            Ok(m) => self.sniffer.tap(now, Direction::Tx, packet, m, tap_owner),
            Err(e) => self
                .sniffer
                .tap_unparsed(now, Direction::Tx, packet, e, tap_owner),
        }

        let pkt_id = self.next_pkt_id;
        self.next_pkt_id += 1;
        // TX queue selection mirrors RX steering: the same hash → queue
        // mapping, so a connection's traffic stays on one queue pair in
        // both directions.
        let txq = meta
            .as_ref()
            .ok()
            .map(|m| usize::from(self.rss.queue_for(m.flow_hash)))
            .unwrap_or(0);
        let qpkt = QPkt::new(pkt_id, packet.len() as u32, now)
            .with_class(class)
            .with_tag([conn.0, fid]);
        match self.scheduler.enqueue_on(txq, qpkt, now) {
            Ok(()) => {
                emit(Stage::TxQueue, TraceVerdict::Class(class));
                Ok(TxDisposition::Queued { class })
            }
            Err(e) => {
                emit(Stage::TxDrop, TraceVerdict::Drop(e.cause()));
                Err(NicError::TxQueueFull)
            }
        }
    }

    /// Offers a kernel-originated frame (ARP replies, slow-path
    /// responses) to the scheduler. Kernel frames carry root/kernel
    /// attribution through the egress pipeline and use scheduler class 0.
    pub fn tx_enqueue_kernel(
        &mut self,
        packet: &Packet,
        now: Time,
    ) -> Result<TxDisposition, NicError> {
        self.stats.tx_frames += 1;
        let meta = FrameMeta::of(packet);
        let fid = self
            .tel
            .adopt_frame_id(meta.as_ref().ok().map(|m| m.frame_id).unwrap_or(0));
        let len = packet.len() as u32;
        // Takes the hub as an argument: `tick_crash` below needs `&mut self`.
        let emit = |tel: &Telemetry, stage, verdict| {
            tel.emit_stage(stage, verdict, now, || {
                let kernel = Owner::new(0, 0, Comm::KERNEL);
                frame_info(fid, meta.as_ref().ok(), len, Some(kernel))
            })
        };
        emit(&self.tel, Stage::TxOffer, TraceVerdict::Pass);
        if self.tick_crash(now) {
            self.stats.dropped_dead += 1;
            emit(
                &self.tel,
                Stage::TxDrop,
                TraceVerdict::Drop(DropCause::DeviceDead),
            );
            return Ok(TxDisposition::Drop {
                reason: DropReason::DeviceDead,
            });
        }
        if now < self.frozen_until {
            self.stats.dropped_reprogramming += 1;
            emit(
                &self.tel,
                Stage::TxDrop,
                TraceVerdict::Drop(DropCause::Reprogramming),
            );
            return Ok(TxDisposition::Drop {
                reason: DropReason::Reprogramming,
            });
        }
        let mut ctx = Self::build_ctx(meta.as_ref().ok(), packet.len(), None, true, now);
        ctx.uid = 0; // the kernel
        let mut verdict = Verdict::Pass;
        if let Some(vm) = self.egress_filter.as_mut() {
            let (v, _) = Self::run_vm(vm, &ctx);
            verdict = v;
        }
        if verdict == Verdict::Drop {
            self.stats.tx_filtered += 1;
            emit(
                &self.tel,
                Stage::TxDrop,
                TraceVerdict::Drop(DropCause::Filter),
            );
            return Ok(TxDisposition::Drop {
                reason: DropReason::Filter,
            });
        }
        match &meta {
            Ok(m) => self
                .sniffer
                .tap(now, Direction::Tx, packet, m, Some((0, 0, "kernel"))),
            Err(e) => {
                self.sniffer
                    .tap_unparsed(now, Direction::Tx, packet, e, Some((0, 0, "kernel")))
            }
        }
        let pkt_id = self.next_pkt_id;
        self.next_pkt_id += 1;
        // Kernel frames (ARP, slow-path responses) always use queue 0
        // and depart under the no-connection id.
        let qpkt = QPkt::new(pkt_id, packet.len() as u32, now).with_tag([u64::MAX, fid]);
        match self.scheduler.enqueue_on(0, qpkt, now) {
            Ok(()) => {
                emit(&self.tel, Stage::TxQueue, TraceVerdict::Class(0));
                Ok(TxDisposition::Queued { class: 0 })
            }
            Err(e) => {
                emit(&self.tel, Stage::TxDrop, TraceVerdict::Drop(e.cause()));
                Err(NicError::TxQueueFull)
            }
        }
    }

    /// Pulls the next scheduled frame onto the wire. Returns `None` when
    /// nothing is eligible (check [`SmartNic::tx_next_ready`]).
    pub fn tx_poll(&mut self, now: Time) -> Option<TxDeparture> {
        if self.dead || now < self.frozen_until {
            return None;
        }
        // Respect the wire: don't dequeue faster than the link drains.
        if self.link.next_free() > now {
            return None;
        }
        let pkt = self.scheduler.dequeue(now)?;
        let [conn, fid] = pkt.tag;
        let arrives_at = self.link.transmit(now, u64::from(pkt.len));
        self.stats.tx_sent += 1;
        self.tel
            .emit_stage(Stage::TxDepart, TraceVerdict::Pass, now, || {
                frame_info(fid, None, pkt.len, None)
            });
        Some(TxDeparture {
            pkt_id: pkt.id,
            conn: ConnId(conn),
            len: pkt.len,
            arrives_at,
        })
    }

    /// Drains up to `max` scheduled frames onto the wire in one doorbell
    /// sweep, amortizing the frozen-window and wire-availability checks
    /// across the burst. Stops early when the scheduler empties or the
    /// link is busy (the wire serializes frames, so a burst at one
    /// instant usually yields one departure; the batch entry point still
    /// saves the per-call dispatch when the link has drained).
    pub fn tx_poll_batch(&mut self, now: Time, max: usize) -> Vec<TxDeparture> {
        if self.dead || now < self.frozen_until {
            return Vec::new();
        }
        let mut out = Vec::new();
        while out.len() < max {
            match self.tx_poll(now) {
                Some(dep) => out.push(dep),
                None => break,
            }
        }
        out
    }

    /// Returns when TX should next be polled: the later of scheduler
    /// readiness and wire availability.
    pub fn tx_next_ready(&self, now: Time) -> Option<Time> {
        if self.dead || self.scheduler.is_empty() {
            return None;
        }
        let sched = self.scheduler.next_ready(now).unwrap_or(now);
        let wire = self.link.next_free();
        Some(sched.max(wire).max(now))
    }

    /// Returns the number of frames waiting in the TX scheduler.
    pub fn tx_backlog(&self) -> usize {
        self.scheduler.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay::builtins;
    use pkt::{Mac, PacketBuilder};
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn udp_to(dst_port: u16) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.2"), addr("10.0.0.1"))
            .udp(40_000, dst_port, &[0u8; 100])
            .build()
    }

    fn rx_tuple(dst_port: u16) -> FiveTuple {
        FiveTuple::udp(addr("10.0.0.2"), 40_000, addr("10.0.0.1"), dst_port)
    }

    fn nic() -> SmartNic {
        SmartNic::new(NicConfig::default())
    }

    /// Compiles `program` and loads it, as the control plane's phase 1
    /// and phase 2 do.
    fn load(
        nic: &mut SmartNic,
        slot: ProgramSlot,
        program: Program,
        now: Time,
    ) -> Result<Dur, NicError> {
        let artifact = overlay::compile(&program).expect("compiles");
        nic.load_program(slot, program, artifact, now)
    }

    #[test]
    fn unmatched_rx_goes_to_slowpath() {
        let mut nic = nic();
        let r = nic.rx(&udp_to(9999), Time::ZERO);
        assert_eq!(
            r.disposition,
            RxDisposition::SlowPath {
                reason: SlowPathReason::NoFlowMatch
            }
        );
        assert_eq!(nic.stats().rx_slowpath, 1);
    }

    #[test]
    fn matched_rx_delivers_to_connection() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5432), 1001, 42, "postgres", false)
            .unwrap();
        let r = nic.rx(&udp_to(5432), Time::ZERO);
        assert_eq!(
            r.disposition,
            RxDisposition::Deliver {
                conn: id,
                notify: false
            }
        );
        assert!(r.latency > Dur::ZERO);
        assert_eq!(nic.stats().rx_delivered, 1);
    }

    #[test]
    fn ingress_filter_drops_with_process_view() {
        let mut nic = nic();
        nic.open_connection(rx_tuple(5432), 1002, 43, "mysql", false)
            .unwrap();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::port_owner_filter(),
            Time::ZERO,
        )
        .unwrap();
        // Port 5432 reserved for uid 1001; the connection is owned by
        // 1002, so its traffic is dropped on the NIC.
        nic.fill_map(ProgramSlot::IngressFilter, 0, 5432, 1002)
            .unwrap();
        let r = nic.rx(&udp_to(5432), Time::ZERO);
        assert_eq!(
            r.disposition,
            RxDisposition::Drop {
                reason: DropReason::Filter
            }
        );
        assert_eq!(nic.stats().rx_filtered, 1);
    }

    #[test]
    fn notify_connection_posts_and_interrupts() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(7000), 1001, 55, "server", true)
            .unwrap();
        nic.arm_interrupt(55);
        let r = nic.rx(&udp_to(7000), Time::ZERO);
        assert!(r.interrupt, "armed interrupt should fire");
        let n = nic.pop_notification(55).expect("notification posted");
        assert_eq!(n.conn, id);
        assert_eq!(n.kind, NotifyKind::RxReady);
        // Next packet: no interrupt (disarmed), but a notification for a
        // different state change is posted.
        let r = nic.rx(&udp_to(7000), Time::from_us(1));
        assert!(!r.interrupt);
    }

    #[test]
    fn reprogramming_drops_everything() {
        let mut nic = nic();
        nic.open_connection(rx_tuple(80), 0, 1, "www", false)
            .unwrap();
        let back = nic.reprogram_bitstream(Time::ZERO);
        assert_eq!(back, Time::ZERO + NicConfig::default().bitstream_reprogram);
        let r = nic.rx(&udp_to(80), Time::from_secs(1));
        assert_eq!(
            r.disposition,
            RxDisposition::Drop {
                reason: DropReason::Reprogramming
            }
        );
        // After it completes, traffic flows again.
        let r = nic.rx(&udp_to(80), back);
        assert!(matches!(r.disposition, RxDisposition::Deliver { .. }));
        assert_eq!(nic.stats().dropped_reprogramming, 1);
    }

    #[test]
    fn bitstream_reprogram_wipes_programs() {
        let mut nic = nic();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::drop_all(),
            Time::ZERO,
        )
        .unwrap();
        nic.reprogram_bitstream(Time::ZERO);
        // Program SRAM fully released.
        assert_eq!(nic.sram.used_by(SramCategory::Program), 0);
    }

    #[test]
    fn overlay_swap_is_fast_and_non_disruptive() {
        let mut nic = nic();
        nic.open_connection(rx_tuple(80), 0, 1, "www", false)
            .unwrap();
        let cost = load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::allow_all(),
            Time::ZERO,
        )
        .unwrap();
        assert!(cost < Dur::from_ms(1));
        // Dataplane continues working immediately.
        let r = nic.rx(&udp_to(80), Time::ZERO);
        assert!(matches!(r.disposition, RxDisposition::Deliver { .. }));
        assert_eq!(nic.stats().program_swaps, 1);
    }

    #[test]
    fn program_swap_frees_old_sram() {
        let mut nic = nic();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::port_owner_filter(),
            Time::ZERO,
        )
        .unwrap();
        let used_first =
            nic.sram.used_by(SramCategory::Program) + nic.sram.used_by(SramCategory::Maps);
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::port_owner_filter(),
            Time::ZERO,
        )
        .unwrap();
        let used_second =
            nic.sram.used_by(SramCategory::Program) + nic.sram.used_by(SramCategory::Maps);
        assert_eq!(used_first, used_second);
    }

    #[test]
    fn mismatched_artifact_is_refused_before_anything_is_charged() {
        let mut nic = nic();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::port_owner_filter(),
            Time::ZERO,
        )
        .unwrap();
        let resident = nic.program_fingerprint(ProgramSlot::IngressFilter);
        let sram = nic.sram.used();
        let swaps = nic.stats().program_swaps;

        let program = builtins::byte_accounting();
        let stale = overlay::compile(&builtins::allow_all()).unwrap();
        let err = nic.load_program(
            ProgramSlot::IngressFilter,
            program.clone(),
            stale.clone(),
            Time::ZERO,
        );
        assert!(
            matches!(err, Err(NicError::ArtifactMismatch { want, got })
                if want == program.fingerprint() && got == stale.fingerprint()),
            "{err:?}"
        );
        let err = nic.add_accounting(program, stale, Time::ZERO);
        assert!(
            matches!(err, Err(NicError::ArtifactMismatch { .. })),
            "{err:?}"
        );

        assert_eq!(nic.sram.used(), sram);
        assert_eq!(
            nic.program_fingerprint(ProgramSlot::IngressFilter),
            resident
        );
        assert_eq!(nic.num_accounting(), 0);
        assert_eq!(nic.stats().program_swaps, swaps);
    }

    #[test]
    fn connection_exhausts_sram_gracefully() {
        // Room for ~2 connections.
        let cfg = NicConfig {
            sram_bytes: 2 * (RING_CONTEXT_BYTES + crate::flowtable::ENTRY_BYTES) + 64,
            ..NicConfig::default()
        };
        let mut nic = SmartNic::new(cfg);
        nic.open_connection(rx_tuple(1), 0, 1, "a", false).unwrap();
        nic.open_connection(rx_tuple(2), 0, 1, "b", false).unwrap();
        let err = nic.open_connection(rx_tuple(3), 0, 1, "c", false);
        assert!(matches!(err, Err(NicError::Sram(_))), "{err:?}");
        // Closing one frees room for another.
        nic.close_connection(ConnId(0)).unwrap();
        nic.open_connection(rx_tuple(3), 0, 1, "c", false).unwrap();
    }

    #[test]
    fn tx_path_classifies_and_schedules() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5000), 1001, 7, "app", false)
            .unwrap();
        nic.configure_scheduler(&[1.0, 3.0], Time::ZERO).unwrap();
        load(
            &mut nic,
            ProgramSlot::Classifier,
            builtins::uid_classifier(),
            Time::ZERO,
        )
        .unwrap();
        nic.fill_map(ProgramSlot::Classifier, 0, (1001 & 255) as usize, 2)
            .unwrap(); // uid 1001 -> class 1
        let d = nic.tx_enqueue(id, &udp_to(9000), Time::ZERO).unwrap();
        assert_eq!(d, TxDisposition::Queued { class: 1 });
        let dep = nic.tx_poll(Time::ZERO).expect("frame departs");
        assert_eq!(dep.conn, id);
        assert!(dep.arrives_at > Time::ZERO);
        assert_eq!(nic.stats().tx_sent, 1);
    }

    #[test]
    fn scheduler_rejects_degenerate_weights() {
        let mut nic = nic();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = nic.configure_scheduler(&[1.0, bad], Time::ZERO);
            assert!(
                matches!(err, Err(NicError::InvalidWeights { index: 1, .. })),
                "{bad} accepted"
            );
        }
        assert!(matches!(
            nic.configure_scheduler(&[], Time::ZERO),
            Err(NicError::InvalidWeights { index: 0, .. })
        ));
        // The existing (valid) scheduler survives every rejection.
        assert!(nic.configure_scheduler(&[2.0, 1.0], Time::ZERO).is_ok());
    }

    #[test]
    fn generation_register_is_kernel_only() {
        let mut nic = nic();
        assert_eq!(nic.regs.peek(POLICY_GENERATION_REG), Some(0));
        assert!(nic.regs.write(POLICY_GENERATION_REG, 3, None).is_ok());
        assert_eq!(nic.regs.peek(POLICY_GENERATION_REG), Some(3));
        // An app touching the generation register faults and changes
        // nothing.
        assert!(nic.regs.write(POLICY_GENERATION_REG, 9, Some(42)).is_err());
        assert_eq!(nic.regs.peek(POLICY_GENERATION_REG), Some(3));
        assert_eq!(nic.regs.violations(), 1);
    }

    #[test]
    fn egress_filter_blocks_spoofed_port() {
        let mut nic = nic();
        // The thief (uid 1002) opens a connection and tries to *send*
        // from source port 5432, which is reserved for uid 1001.
        let id = nic
            .open_connection(rx_tuple(6000), 1002, 8, "thief", false)
            .unwrap();
        load(
            &mut nic,
            ProgramSlot::EgressFilter,
            builtins::port_owner_filter(),
            Time::ZERO,
        )
        .unwrap();
        nic.fill_map(ProgramSlot::EgressFilter, 0, 5432, 1002)
            .unwrap();
        let spoof = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(5432, 9000, b"steal")
            .build();
        let d = nic.tx_enqueue(id, &spoof, Time::ZERO).unwrap();
        assert_eq!(
            d,
            TxDisposition::Drop {
                reason: DropReason::Filter
            }
        );
        assert_eq!(nic.stats().tx_filtered, 1);
    }

    #[test]
    fn tx_respects_line_rate() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5000), 0, 1, "a", false)
            .unwrap();
        let pkt = udp_to(9000);
        for _ in 0..3 {
            nic.tx_enqueue(id, &pkt, Time::ZERO).unwrap();
        }
        let first = nic.tx_poll(Time::ZERO).unwrap();
        // Wire busy: the next poll at the same instant yields nothing.
        assert!(nic.tx_poll(Time::ZERO).is_none());
        let ready = nic.tx_next_ready(Time::ZERO).unwrap();
        assert!(ready > Time::ZERO);
        let second = nic.tx_poll(ready).unwrap();
        assert!(second.arrives_at > first.arrives_at);
    }

    #[test]
    fn accounting_programs_observe_both_directions() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5000), 42, 7, "app", false)
            .unwrap();
        let acct = builtins::byte_accounting();
        let artifact = overlay::compile(&acct).unwrap();
        let slot = nic.add_accounting(acct, artifact, Time::ZERO).unwrap();
        nic.rx(&udp_to(5000), Time::ZERO);
        nic.tx_enqueue(id, &udp_to(9000), Time::ZERO).unwrap();
        let bytes = nic.read_accounting_map(slot, 0, 42).unwrap();
        assert_eq!(bytes, 2 * udp_to(5000).len() as u64);
    }

    #[test]
    fn sniffer_attributes_tx_frames() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5000), 1001, 99, "game", false)
            .unwrap();
        nic.enable_sniffer(SnifferFilter::all());
        nic.tx_enqueue(id, &udp_to(9000), Time::ZERO).unwrap();
        let entries = nic.sniffer.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].comm.as_deref(), Some("game"));
        assert_eq!(entries[0].uid, Some(1001));
    }

    #[test]
    fn pipeline_occupancy_bounds_throughput() {
        // With a 100-cycle filter at 4ns/cycle, occupancy is 400ns per
        // packet: offering 2 packets at t=0 means the second emerges
        // later.
        let mut nic = nic();
        nic.open_connection(rx_tuple(80), 0, 1, "a", false).unwrap();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::token_bucket(),
            Time::ZERO,
        )
        .unwrap();
        nic.fill_map(ProgramSlot::IngressFilter, 0, 0, 1_000_000)
            .unwrap();
        nic.fill_map(ProgramSlot::IngressFilter, 0, 1, 1_000_000)
            .unwrap();
        let r1 = nic.rx(&udp_to(80), Time::ZERO);
        let r2 = nic.rx(&udp_to(80), Time::ZERO);
        assert!(r2.ready_at > r1.ready_at);
    }

    #[test]
    fn close_revokes_doorbells() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(80), 0, 77, "a", false)
            .unwrap();
        assert!(nic
            .regs
            .write(SmartNic::rx_doorbell_addr(id), 1, Some(77))
            .is_ok());
        nic.close_connection(id).unwrap();
        assert!(nic
            .regs
            .write(SmartNic::rx_doorbell_addr(id), 1, Some(77))
            .is_err());
    }

    #[test]
    fn unknown_conn_tx_errors() {
        let mut nic = nic();
        let err = nic.tx_enqueue(ConnId(99), &udp_to(1), Time::ZERO);
        assert!(matches!(err, Err(NicError::NoSuchConn(ConnId(99)))));
    }

    #[test]
    fn single_queue_nic_stamps_queue_zero() {
        let mut nic = nic();
        nic.open_connection(rx_tuple(80), 0, 1, "a", false).unwrap();
        let r = nic.rx(&udp_to(80), Time::ZERO);
        assert_eq!(nic.num_queues(), 1);
        assert_eq!(r.meta.unwrap().queue, 0);
    }

    #[test]
    fn rss_steers_by_hash_and_spreads_flows() {
        let cfg = NicConfig {
            num_queues: 4,
            ..NicConfig::default()
        };
        let mut nic = SmartNic::new(cfg);
        let mut seen = [false; 4];
        for port in 5000..5064 {
            nic.open_connection(rx_tuple(port), 0, 1, "a", false)
                .unwrap();
            let r = nic.rx(&udp_to(port), Time::ZERO);
            assert!(matches!(r.disposition, RxDisposition::Deliver { .. }));
            let m = r.meta.unwrap();
            // Stamp agrees with the table the kernel programmed.
            assert_eq!(m.queue, nic.rss().queue_for(m.flow_hash));
            seen[usize::from(m.queue)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 distinct flows should touch all 4 queues: {seen:?}"
        );
    }

    #[test]
    fn tx_stays_on_the_flow_queue() {
        let cfg = NicConfig {
            num_queues: 4,
            ..NicConfig::default()
        };
        let mut nic = SmartNic::new(cfg);
        let id = nic
            .open_connection(rx_tuple(5000), 0, 1, "a", false)
            .unwrap();
        let pkt = udp_to(9000);
        let hash = FrameMeta::of(&pkt).unwrap().flow_hash;
        nic.tx_enqueue(id, &pkt, Time::ZERO).unwrap();
        let q = usize::from(nic.rss().queue_for(hash));
        // The frame sits on exactly the queue its hash steers to.
        for other in 0..4 {
            let expect = usize::from(other == q);
            assert_eq!(nic.scheduler.queue_len(other), expect, "queue {other}");
        }
        assert!(nic.tx_poll(Time::ZERO).is_some());
    }

    #[test]
    fn configure_rss_validates_atomically() {
        let cfg = NicConfig {
            num_queues: 2,
            ..NicConfig::default()
        };
        let mut nic = SmartNic::new(cfg);
        let before = nic.rss().clone();
        // Entry out of range: refused, nothing changes, audit stays clean.
        let mut bad = vec![0u16; crate::rss::RSS_TABLE_SIZE];
        bad[3] = 5;
        assert!(matches!(
            nic.configure_rss(2, &bad, Time::ZERO),
            Err(NicError::Rss(RssError::BadEntry { index: 3, queue: 5 }))
        ));
        assert_eq!(*nic.rss(), before);
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
        // A valid skewed table installs; a queue-count change resizes the
        // TX bank and the kernel register follows.
        let skew: Vec<u16> = (0..crate::rss::RSS_TABLE_SIZE)
            .map(|i| (i % 4) as u16)
            .collect();
        nic.configure_rss(4, &skew, Time::ZERO).unwrap();
        assert_eq!(nic.num_queues(), 4);
        assert_eq!(nic.regs.peek(RSS_NUM_QUEUES_REG), Some(4));
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
    }

    /// Frame ids of the traced events at `stage`, in emission order.
    fn traced_fids(nic: &SmartNic, stage: Stage) -> Vec<u64> {
        let at_stage = telemetry::TraceFilter::any().with_stage(stage);
        let events = nic.telemetry().query(&at_stage);
        events.iter().map(|e| e.frame_id).collect()
    }

    #[test]
    fn scheduler_rebuilds_carry_queued_frames() {
        let cfg = NicConfig {
            num_queues: 4,
            tx_queue_limit: 3,
            ..NicConfig::default()
        };
        let mut nic = SmartNic::new(cfg);
        nic.telemetry().set_enabled(true);
        let a = nic
            .open_connection(rx_tuple(5000), 0, 1, "a", false)
            .unwrap();
        let b = nic
            .open_connection(rx_tuple(5001), 1001, 2, "b", false)
            .unwrap();
        nic.configure_scheduler(&[1.0, 3.0], Time::ZERO).unwrap();
        load(
            &mut nic,
            ProgramSlot::Classifier,
            builtins::uid_classifier(),
            Time::ZERO,
        )
        .unwrap();
        nic.fill_map(ProgramSlot::Classifier, 0, (1001 & 255) as usize, 2)
            .unwrap(); // b's uid -> class 1
        let senders = [a, b, a, b];
        for conn in senders {
            nic.tx_enqueue(conn, &udp_to(9000), Time::ZERO).unwrap();
        }
        let offered = traced_fids(&nic, Stage::TxOffer);
        assert_eq!(offered.len(), senders.len());
        // A weight swap and a queue-count change each rebuild the bank;
        // neither may strand the frames it already accepted.
        nic.configure_scheduler(&[2.0, 1.0], Time::ZERO).unwrap();
        assert_eq!(nic.tx_backlog(), 4);
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
        let one_queue = vec![0u16; crate::rss::RSS_TABLE_SIZE];
        nic.configure_rss(1, &one_queue, Time::ZERO).unwrap();
        assert_eq!(nic.tx_backlog(), 4);
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
        // Folding class 1 into class 0 leaves room for three: the last
        // frame carried over (b's second) is refused, under its own id.
        nic.configure_scheduler(&[1.0], Time::ZERO).unwrap();
        assert_eq!(nic.tx_backlog(), 3);
        assert_eq!(nic.stats().tx_reconfig_dropped, 1);
        assert_eq!(traced_fids(&nic, Stage::TxDrop), [offered[3]]);
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
        // Every frame that rode across departs under its sender.
        let mut t = Time::ZERO;
        while let Some(at) = nic.tx_next_ready(t) {
            t = at;
            let dep = nic.tx_poll(t).expect("ready means a departure");
            let fid = *traced_fids(&nic, Stage::TxDepart).last().unwrap();
            let nth = offered.iter().position(|&f| f == fid).unwrap();
            assert_eq!(dep.conn, senders[nth]);
        }
        assert_eq!(nic.stats().tx_sent, 3);
    }

    #[test]
    fn crash_purge_attributes_each_lost_frame() {
        let mut nic = nic();
        nic.telemetry().set_enabled(true);
        let a = nic
            .open_connection(rx_tuple(5000), 0, 1, "a", false)
            .unwrap();
        let b = nic
            .open_connection(rx_tuple(5001), 1001, 2, "b", false)
            .unwrap();
        for conn in [a, b, b, a] {
            nic.tx_enqueue(conn, &udp_to(9000), Time::ZERO).unwrap();
        }
        let offered = traced_fids(&nic, Stage::TxOffer);
        assert_eq!(offered.len(), 4);
        nic.crash(Time::from_ns(100));
        assert_eq!(nic.stats().tx_crash_purged, 4);
        assert_eq!(nic.telemetry().drop_count(DropCause::DeviceDead), 4);
        // One class, one queue: purge order is arrival order.
        assert_eq!(traced_fids(&nic, Stage::TxDrop), offered);
    }

    #[test]
    fn audit_catches_rss_register_drift() {
        let mut nic = nic();
        nic.regs.write(RSS_NUM_QUEUES_REG, 9, None).unwrap();
        let v = nic.audit();
        assert!(
            v.iter().any(|s| s.contains("RSS queue-count register")),
            "{v:?}"
        );
    }

    #[test]
    fn rss_register_is_kernel_only() {
        let mut nic = nic();
        assert!(nic.regs.write(RSS_NUM_QUEUES_REG, 8, Some(42)).is_err());
        assert_eq!(nic.regs.peek(RSS_NUM_QUEUES_REG), Some(1));
    }

    #[test]
    fn crash_wipes_volatile_state_and_gates_everything() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5432), 1001, 42, "postgres", false)
            .unwrap();
        load(
            &mut nic,
            ProgramSlot::IngressFilter,
            builtins::allow_all(),
            Time::ZERO,
        )
        .unwrap();
        // Queue a TX frame so the crash has something to purge.
        let out = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(5432, 40_000, &[0u8; 64])
            .build();
        nic.tx_enqueue(id, &out, Time::ZERO).unwrap();
        assert_eq!(nic.tx_backlog(), 1);

        nic.crash(Time::from_ns(100));
        assert!(nic.is_dead());
        assert!(nic.is_dead());
        assert_eq!(nic.stats().crashes, 1);
        assert_eq!(nic.stats().tx_crash_purged, 1);
        // Volatile state is gone.
        assert_eq!(nic.flows.num_exact(), 0);
        assert_eq!(nic.sram.used(), 0);
        assert!(!nic.program_loaded(ProgramSlot::IngressFilter));
        assert_eq!(nic.tx_backlog(), 0);
        // Everything is gated.
        let r = nic.rx(&udp_to(5432), Time::from_ns(200));
        assert_eq!(
            r.disposition,
            RxDisposition::Drop {
                reason: DropReason::DeviceDead
            }
        );
        assert!(matches!(
            nic.tx_enqueue(id, &out, Time::from_ns(200)),
            Ok(TxDisposition::Drop {
                reason: DropReason::DeviceDead
            })
        ));
        assert!(nic.tx_poll(Time::from_ns(200)).is_none());
        assert!(matches!(
            nic.open_connection(rx_tuple(80), 0, 1, "x", false),
            Err(NicError::Dead)
        ));
        assert!(matches!(
            load(
                &mut nic,
                ProgramSlot::IngressFilter,
                builtins::allow_all(),
                Time::from_ns(200)
            ),
            Err(NicError::Dead)
        ));
        assert_eq!(nic.stats().dropped_dead, 2);
        // Internal invariants still hold on the corpse.
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
    }

    #[test]
    fn reset_revives_at_boot_config_after_freeze() {
        let mut nic = nic();
        nic.crash(Time::ZERO);
        let back = nic.reset(Time::from_ns(1000));
        assert!(!nic.is_dead());
        assert_eq!(back, Time::from_ns(1000) + nic.config().reset_cost);
        assert!(nic.is_frozen(Time::from_ns(1001)));
        // During the reset window frames drop as reprogramming (the
        // device is alive but the dataplane is still dark).
        let r = nic.rx(&udp_to(9999), Time::from_ns(2000));
        assert_eq!(
            r.disposition,
            RxDisposition::Drop {
                reason: DropReason::Reprogramming
            }
        );
        // After the window the NIC works again at boot config.
        let after = back + Dur::from_ns(1);
        assert!(!nic.is_frozen(after));
        let id = nic
            .open_connection(rx_tuple(5432), 1001, 42, "postgres", false)
            .unwrap();
        let r = nic.rx(&udp_to(5432), after);
        assert_eq!(
            r.disposition,
            RxDisposition::Deliver {
                conn: id,
                notify: false
            }
        );
        assert_eq!(nic.stats().resets, 1);
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
    }

    #[test]
    fn crash_injector_kills_at_exact_op_in_rx_and_batch() {
        // Sequential: 5 frames with a crash at op 3.
        let mut a = nic();
        a.set_crash_injector(CrashInjector::at_op(3));
        let frames: Vec<Packet> = (0..5).map(|_| udp_to(9999)).collect();
        let seq: Vec<_> = frames
            .iter()
            .map(|p| a.rx(p, Time::ZERO).disposition)
            .collect();
        // Batched: identical dispositions, crash at the same frame.
        let mut b = nic();
        b.set_crash_injector(CrashInjector::at_op(3));
        let batch: Vec<_> = b
            .rx_batch(&frames, Time::ZERO)
            .into_iter()
            .map(|r| r.disposition)
            .collect();
        assert_eq!(seq, batch);
        assert_eq!(
            seq[1],
            RxDisposition::SlowPath {
                reason: SlowPathReason::NoFlowMatch
            }
        );
        assert_eq!(
            seq[2],
            RxDisposition::Drop {
                reason: DropReason::DeviceDead
            }
        );
        assert_eq!(a.stats().crashes, 1);
        assert_eq!(b.stats().crashes, 1);
        assert_eq!(a.crash_injector_stats(), b.crash_injector_stats());
    }

    #[test]
    fn crash_schedule_ticks_inside_a_reprogramming_window() {
        // Every dataplane entry ticks the crash schedule before it looks
        // at the freeze, one frame at a time or as a burst: five frames
        // into a reprogramming window with a crash due at op 3.
        let frames: Vec<Packet> = (0..5).map(|_| udp_to(9999)).collect();
        let at = Time::from_us(1);
        let armed = || {
            let mut nic = nic();
            nic.set_crash_injector(CrashInjector::at_op(3));
            nic.reprogram_bitstream(Time::ZERO);
            assert!(at < nic.frozen_until());
            nic
        };
        let (mut a, mut b) = (armed(), armed());
        let seq: Vec<_> = frames.iter().map(|p| a.rx(p, at).disposition).collect();
        let batch: Vec<_> = b
            .rx_batch(&frames, at)
            .into_iter()
            .map(|r| r.disposition)
            .collect();
        let frozen = RxDisposition::Drop {
            reason: DropReason::Reprogramming,
        };
        let dead = RxDisposition::Drop {
            reason: DropReason::DeviceDead,
        };
        assert_eq!(seq, [frozen, frozen, dead, dead, dead]);
        assert_eq!(batch, seq);
        assert_eq!(a.crash_injector_stats(), (3, 1));
        assert_eq!(b.crash_injector_stats(), (3, 1));
    }

    #[test]
    fn restore_connection_brings_back_original_id() {
        let mut nic = nic();
        let id = nic
            .open_connection(rx_tuple(5432), 1001, 42, "postgres", true)
            .unwrap();
        nic.crash(Time::ZERO);
        nic.reset(Time::ZERO);
        let after = nic.frozen_until() + Dur::from_ns(1);
        nic.restore_connection(id, rx_tuple(5432), 1001, 42, "postgres", true)
            .unwrap();
        let r = nic.rx(&udp_to(5432), after);
        assert_eq!(
            r.disposition,
            RxDisposition::Deliver {
                conn: id,
                notify: true
            }
        );
        // Doorbells answer to the owner again.
        assert!(nic
            .regs
            .write(SmartNic::rx_doorbell_addr(id), 1, Some(42))
            .is_ok());
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
    }

    #[test]
    fn dead_device_passes_conservation_audit_with_tracing() {
        let mut nic = nic();
        let tel = Telemetry::new();
        tel.set_enabled(true);
        nic.set_telemetry(tel);
        let id = nic
            .open_connection(rx_tuple(5432), 1001, 42, "postgres", false)
            .unwrap();
        let out = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(5432, 40_000, &[0u8; 64])
            .build();
        nic.tx_enqueue(id, &out, Time::ZERO).unwrap();
        nic.rx(&udp_to(5432), Time::ZERO);
        nic.crash(Time::from_ns(50));
        nic.rx(&udp_to(5432), Time::from_ns(60));
        let _ = nic.tx_enqueue(id, &out, Time::from_ns(70));
        assert!(nic.audit().is_empty(), "{:?}", nic.audit());
        assert_eq!(
            nic.telemetry()
                .recovery_count(telemetry::RecoveryKind::NicCrash),
            1
        );
    }
}
