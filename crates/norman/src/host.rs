//! The Norman host: one simulated machine running KOPI.
//!
//! [`Host`] owns every component of Figure 1 and exposes two faces:
//!
//! * **Control plane** (kernel): `spawn`, `connect`, `close`,
//!   `update_policy`. These are the only paths that configure the NIC,
//!   and they consult the process table — policies are expressed over
//!   users and processes, not queues.
//! * **Dataplane** (library + NIC): `deliver_from_wire`, `app_send`,
//!   `app_recv`, `pump_tx`. Data never crosses the kernel on these paths;
//!   costs come from the ring/LLC model and the NIC pipeline.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use memsim::{DescRing, HostRing, Llc, LlcConfig, LlcPartitionPlan, LlcStats, MemCosts, MmioBus};
use nicsim::pipeline::{DropReason, TxDeparture};
use nicsim::{
    ConnId, NicConfig, NicError, Notification, NotifyKind, RssTable, RxDisposition, SmartNic,
    TxDisposition,
};
use oskernel::{ArpCache, CgroupId, Cred, NetStack, Pid, ProcessTable, RxOutcome, Scheduler, Uid};
use pkt::{BufArena, FiveTuple, IpProto, Mac, Packet};
use sim::audit::{check, check_at, Check, Violation};
use sim::fault::OpFaultInjector;
use sim::{Dur, Time};
use telemetry::{
    CollectError, DropCause, FileError, FrameInfo, Owner, Profile, RecoveryKind, Registry,
    SinkStats, Snapshot, Stage, StageRec, Telemetry, TraceVerdict,
};

use crate::ctrl::{ControlPlane, CtrlError, PolicyStore};
use crate::workers::{Shard, WorkerError};

/// How many ring operations share one MMIO doorbell write (batched
/// head/tail updates).
pub const DOORBELL_BATCH: u64 = 4;

/// Frames the host buffers for retry while the NIC dataplane is down for
/// a bitstream reprogram. Beyond this, sends are refused (backpressure)
/// rather than growing memory unboundedly.
pub const TX_RETRY_CAP: usize = 64;

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// NIC configuration.
    pub nic: NicConfig,
    /// LLC geometry (the DDIO way-cap lives here).
    pub llc: LlcConfig,
    /// Memory latencies.
    pub mem: MemCosts,
    /// Ring slots per direction per connection.
    pub ring_slots: usize,
    /// Payload bytes per ring slot.
    pub ring_slot_bytes: usize,
    /// This host's IP.
    pub ip: Ipv4Addr,
    /// This host's MAC.
    pub mac: Mac,
    /// Share one ring pair per *process* instead of per connection — the
    /// §5 ablation for scaling past per-connection semantics.
    pub shared_rings: bool,
    /// Slots in the host's frame buffer arena (each `ring_slot_bytes`
    /// wide). Harness-built and wire-adopted frames live here so the
    /// whole RX path — NIC, rings, sniffer taps, app delivery — shares
    /// one buffer per frame. Exhaustion falls back to heap frames
    /// (correct, just not pooled), so sizing is a performance knob.
    pub arena_slots: usize,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            nic: NicConfig::default(),
            llc: LlcConfig::xeon_default(),
            mem: MemCosts::default(),
            ring_slots: 2,
            ring_slot_bytes: 2048,
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac: Mac::local(1),
            shared_rings: false,
            arena_slots: 4096,
        }
    }
}

/// Why a connection could not be opened.
#[derive(Debug)]
pub enum ConnectError {
    /// The pid does not exist.
    NoSuchProcess(Pid),
    /// A port reservation denies this (uid, comm).
    PolicyDenied {
        /// The requested port.
        port: u16,
        /// The requesting user.
        uid: Uid,
    },
    /// The NIC refused: SRAM exhaustion (§5), a tuple or listener key
    /// that is already installed, a dead device.
    NicResources(NicError),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            ConnectError::PolicyDenied { port, uid } => {
                write!(f, "port {port} is reserved; denied for {uid}")
            }
            ConnectError::NicResources(e) => write!(f, "NIC refused: {e}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// See [`sim::FastMap`]: hot-path maps keyed by simulation-internal
/// values (iteration order never relied on; exposure paths sort).
pub(crate) use sim::FastMap;

/// An RX ring descriptor: the frame handle plus the lifecycle id the NIC
/// tagged the frame with, so whoever consumes the slot can name the frame
/// it held, whenever tracing started. 40 bytes, and the ring's slot
/// record (payload length plus the descriptor while occupied) 48: the
/// handle carries its parse-once descriptor behind a shared pointer,
/// never inline.
#[derive(Debug)]
pub(crate) struct RxDesc {
    pub(crate) pkt: Packet,
    pub(crate) fid: u64,
}

/// The RX direction of a ring pair: the slot a frame occupies in the
/// memory model is paired with the [`Packet`] that owns its bytes, so
/// RX→app delivery moves a refcount, never a payload.
pub(crate) type RxRing = DescRing<RxDesc>;

/// The pinned rings §4.3 gives a connection: one per direction. The TX
/// ring carries no descriptor: `Host::app_send` produces a frame's slot
/// and the NIC DMA-reads it back in the same call, so only the memory
/// the slot's lines cost is modelled, and no frame is ever resident.
#[derive(Debug)]
struct RingPair {
    rx: RxRing,
    tx: HostRing,
}

/// One open connection.
#[derive(Debug)]
pub struct Connection {
    /// Owning process.
    pub(crate) pid: Pid,
    /// Owning user.
    pub(crate) uid: Uid,
    /// RX-direction five-tuple (remote → local).
    pub tuple: FiveTuple,
    /// Whether notifications (blocking I/O) are enabled.
    pub(crate) notify: bool,
    /// The connection's own ring pair. `None` only under
    /// [`HostConfig::shared_rings`], where the pair is its process's
    /// (`Host::proc_rings`).
    rings: Option<RingPair>,
    /// The shard whose cache and core this connection's ring traffic is
    /// charged to: the RSS queue its flow steers to under the committed
    /// indirection table, modulo the boot queue count (always 0 on a
    /// one-queue host). Resolved at setup and after every policy commit —
    /// never per frame.
    shard: usize,
    /// The process binding trace events carry, resolved once when the
    /// connection is set up (a process's `comm` is fixed at spawn, and the
    /// NIC's flow entry binds the same uid) — never per frame.
    owner: Owner,
}

impl Connection {
    /// The pair this connection's frames move through: its own, or under
    /// `shared_rings` its process's — which exists for as long as the
    /// process has a connection (`Host::connect` / `Host::close`).
    fn ring_pair<'a>(&'a mut self, proc_rings: &'a mut FastMap<Pid, RingPair>) -> &'a mut RingPair {
        match &mut self.rings {
            Some(own) => own,
            None => proc_rings
                .get_mut(&self.pid)
                .expect("a process with a shared-ring connection has its pair"),
        }
    }
}

/// What the kernel holds under one NIC flow-table id.
// Connections outnumber listeners by orders of magnitude and are looked
// up per frame: the record stays inline rather than behind a `Box`.
#[allow(clippy::large_enum_variant)]
enum Endpoint {
    /// An open connection.
    Conn(Connection),
    /// A listening port and the clients waiting on it for `accept()`.
    Listener {
        pid: Pid,
        proto: IpProto,
        port: u16,
        backlog: VecDeque<FiveTuple>,
    },
}

impl Endpoint {
    fn conn(&self) -> Option<&Connection> {
        match self {
            Endpoint::Conn(c) => Some(c),
            Endpoint::Listener { .. } => None,
        }
    }
}

/// What happened to a wire-delivered frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryOutcome {
    /// DMA'd into a connection's RX ring.
    FastPath(ConnId),
    /// The matched ring was full; the frame was dropped.
    RingFull(ConnId),
    /// Handled by the kernel software stack.
    SlowPath,
    /// Dropped by NIC policy or during reprogramming.
    Dropped,
}

/// Report for one delivered frame.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryReport {
    /// Where it went.
    pub outcome: DeliveryOutcome,
    /// Memory-system time (DMA + cache effects).
    pub mem_cost: Dur,
    /// NIC pipeline latency.
    pub nic_latency: Dur,
    /// Kernel CPU consumed (slow path only).
    pub kernel_cpu: Dur,
    /// A process that was woken by this frame.
    pub woke: Option<Pid>,
}

/// Result of an `app_recv`.
#[derive(Clone, Debug)]
pub struct RecvResult {
    /// Payload length received, if any.
    pub len: Option<usize>,
    /// The received frame itself — the very buffer the NIC wrote,
    /// handed to the application as a refcounted handle (zero-copy
    /// delivery; `len == pkt.len()` when both are set).
    pub pkt: Option<Packet>,
    /// Application CPU consumed.
    pub cpu: Dur,
    /// Whether the process blocked (notify connections only).
    pub blocked: bool,
}

/// Result of an `app_send`.
#[derive(Clone, Copy, Debug)]
pub struct SendResult {
    /// Whether the frame was accepted for transmission.
    pub queued: bool,
    /// Whether the frame was buffered for retry (dataplane down for a
    /// reprogram; it will be re-offered on recovery by
    /// [`Host::pump_tx`]). Mutually exclusive with `queued`.
    pub deferred: bool,
    /// Application CPU consumed.
    pub cpu: Dur,
}

/// Host-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Frames delivered on the fast path.
    pub fast_delivered: u64,
    /// Frames dropped because an RX ring was full.
    pub ring_drops: u64,
    /// Frames that took the software slow path.
    pub slowpath: u64,
    /// Frames dropped by NIC policy.
    pub nic_dropped: u64,
    /// Frames the NIC dropped as malformed (unparseable or failed
    /// checksum verification) — corrupted-on-the-wire traffic that must
    /// never reach the flow table.
    pub malformed_dropped: u64,
    /// Connections refused for NIC resources.
    pub(crate) conns_refused: u64,
    /// First packets whose client was not queued for `accept()` because
    /// the listener's backlog was full (the frame still reached the
    /// kernel stack).
    pub accept_backlog_refused: u64,
    /// TX frames buffered for retry during a reprogram outage.
    pub tx_deferred: u64,
    /// Deferred TX frames successfully re-offered after recovery.
    pub tx_retry_flushed: u64,
    /// Deferred TX frames lost: retry buffer full (backpressure) or the
    /// connection vanished before recovery.
    pub(crate) tx_retry_dropped: u64,
    /// Frames demoted to the software slow path by overload degradation
    /// (low-priority flows while the degrade detector is engaged).
    pub degraded_slowpath: u64,
    /// Shards restarted after a crash.
    pub worker_restarts: u64,
    /// Delivered frames still unread in an RX ring when `Host::close`
    /// released it.
    pub(crate) discarded_at_close: u64,
}

/// Clients one listener holds for `accept()` at a time (Linux's
/// historical `SOMAXCONN`): a flood of first packets from distinct
/// tuples costs the host this much memory per listening port, no more.
const ACCEPT_BACKLOG: usize = 128;

/// The Norman host.
pub struct Host {
    /// Configuration.
    pub cfg: HostConfig,
    /// Process table.
    pub procs: ProcessTable,
    /// Scheduler and CPU meters.
    pub sched: Scheduler,
    /// The dataplane shards, one per boot RSS queue. A one-queue host
    /// has one, whose cache is the whole last-level cache (with DDIO
    /// way-cap); otherwise shard `i` owns partition `i` of `llc_plan`.
    shards: Vec<Shard>,
    /// The way-disjoint carve-up the shards' caches were built from, with
    /// a per-partition DDIO mask floored at one way, so one shard's ring
    /// working set cannot evict another's and every shard can absorb
    /// inbound DMA.
    llc_plan: LlcPartitionPlan,
    /// MMIO accounting.
    pub mmio: MmioBus,
    /// The SmartNIC.
    pub nic: SmartNic,
    /// The software slow path.
    pub stack: NetStack,
    /// The kernel ARP cache (ARP is a slow-path protocol under KOPI).
    pub arp: ArpCache,
    /// Everything the kernel has installed in the NIC flow table, under
    /// the id the NIC gave it.
    endpoints: FastMap<ConnId, Endpoint>,
    /// The per-process ring pairs of the `shared_rings` ablation; empty
    /// otherwise.
    proc_rings: FastMap<Pid, RingPair>,
    tx_retry: VecDeque<(ConnId, Packet)>,
    /// The pooled frame arena: one slab of `arena_slots x ring_slot_bytes`
    /// backing every arena-built or wire-adopted frame on this host.
    arena: BufArena,
    /// The unified control plane: the only writer of dataplane policy.
    ctrl: ControlPlane,
    next_ring_index: u64,
    ring_ops_since_doorbell: u64,
    /// Kernel CPU consumed by the slow path and control plane.
    pub kernel_cpu: Dur,
    stats: HostStats,
    /// The shared telemetry hub every layer (NIC, stack, host) emits into.
    tel: Telemetry,
    /// Host counters at the moment tracing was last enabled, so audits
    /// compare the event ledger against counter *deltas*.
    tel_baseline: HostStats,
    /// Frames resident in RX rings at that same moment: the occupancy
    /// ledger only sees enqueues made since, but dequeues of these too.
    tel_baseline_resident: u64,
    /// Overload-degradation detector state (engaged flag + the current
    /// pressure window), driven by the committed
    /// [`DegradationPolicy`](crate::ctrl::DegradationPolicy).
    degrade: DegradeState,
    /// `nic.stats().resets` value up to which kernel flow state
    /// (connections and listeners) has been restored — lets
    /// [`Host::maybe_reconcile`] rebuild the flow table exactly once per
    /// NIC reset, before the control plane reinstalls policy.
    resets_restored: u64,
}

/// Watermark-detector state for overload degradation. The window counts
/// fast-path delivery attempts; a window where the pressured fraction
/// reaches the policy's high watermark engages degraded mode, and an
/// engaged detector promotes back once a window's pressured fraction
/// falls to the low watermark. Demoted deliveries count as unpressured
/// window entries, so a fully demoted workload still drains the window
/// and can promote.
#[derive(Clone, Copy, Debug, Default)]
struct DegradeState {
    engaged: bool,
    window_seen: u64,
    window_pressured: u64,
}

impl Host {
    /// Creates a host with one dataplane shard per RSS queue the NIC
    /// boots with (`cfg.nic.num_queues`), each with its own core meter
    /// and a way-disjoint partition of the LLC. A one-queue host has one
    /// shard over the whole cache.
    ///
    /// One telemetry hub is shared by every layer — the NIC, the
    /// software stack, and the host's own ring bookkeeping all emit into
    /// it, so a single frame id threads the full lifecycle. Tracing
    /// starts disabled (free dataplane) unless `NORMAN_TELEMETRY=1` is
    /// set in the environment.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shared_rings` is set with more than one queue (two
    /// connections of one process may steer to different shards, and a
    /// shared ring pair cannot belong to both), or if there are more
    /// queues than LLC ways to partition among their shards.
    pub fn new(cfg: HostConfig) -> Host {
        let queues = cfg.nic.num_queues;
        assert!(
            !cfg.shared_rings || queues == 1,
            "shared per-process rings cannot be sharded across {queues} RSS queues"
        );
        let llc_plan = LlcPartitionPlan::split(cfg.llc.clone(), queues);
        let shards = llc_plan
            .shards()
            .iter()
            .map(|geometry| Shard::new(Llc::new(geometry.clone())))
            .collect();
        let tel = Telemetry::new();
        if std::env::var("NORMAN_TELEMETRY").as_deref() == Ok("1") {
            tel.set_enabled(true);
        }
        let mut nic = SmartNic::new(cfg.nic.clone());
        nic.set_telemetry(tel.clone());
        let mut stack = NetStack::new();
        stack.set_telemetry(tel.clone());
        Host {
            procs: ProcessTable::new(),
            sched: Scheduler::with_defaults(),
            shards,
            llc_plan,
            mmio: MmioBus::new(),
            nic,
            stack,
            arp: ArpCache::new(cfg.ip, cfg.mac),
            endpoints: FastMap::default(),
            proc_rings: FastMap::default(),
            tx_retry: VecDeque::new(),
            arena: BufArena::new(cfg.arena_slots, cfg.ring_slot_bytes),
            ctrl: ControlPlane::new(tel.clone()),
            next_ring_index: 0,
            ring_ops_since_doorbell: 0,
            kernel_cpu: Dur::ZERO,
            stats: HostStats::default(),
            tel,
            tel_baseline: HostStats::default(),
            tel_baseline_resident: 0,
            degrade: DegradeState::default(),
            resets_restored: 0,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Multi-queue shards
    // ------------------------------------------------------------------

    /// Crashes shard `shard` between operations (chaos testing) and
    /// recovers it: by the time this returns the shard has restarted with
    /// a cold cache, the restart is counted, the backoff penalty is
    /// charged to its core, and `ShardPanic`/`ShardRestart` recovery
    /// events are recorded at `now`; its rings are untouched. Always
    /// returns an error: [`WorkerError::ShardPanicked`] describing the
    /// crash it caused, or [`WorkerError::NoSuchShard`] when the host has
    /// no shard `shard`.
    pub fn inject_worker_panic(
        &mut self,
        shard: usize,
        msg: &str,
        now: Time,
    ) -> Result<(), WorkerError> {
        let shards = self.shards.len();
        if shard >= shards {
            return Err(WorkerError::NoSuchShard { shard, shards });
        }
        let penalty = self.shards[shard].restart();
        self.stats.worker_restarts += 1;
        self.sched.charge_core_busy(shard, penalty);
        self.tel.record_recovery(
            now,
            RecoveryKind::ShardPanic,
            format!("shard {shard}: {msg}"),
        );
        self.tel.record_recovery(
            now,
            RecoveryKind::ShardRestart,
            format!(
                "shard {shard} restart #{} (backoff {penalty})",
                self.shards[shard].restarts
            ),
        );
        Err(WorkerError::ShardPanicked {
            shard,
            payload: msg.to_string(),
        })
    }

    /// Which of `n` shards a connection with this RX tuple belongs to
    /// under `rss` (modulo the shard count, so a policy that steers to
    /// more queues than the host booted with cannot leave a connection
    /// without a shard).
    fn shard_for_tuple(rss: &RssTable, tuple: &FiveTuple, n: usize) -> usize {
        if n == 1 {
            return 0;
        }
        usize::from(rss.queue_for(pkt::meta::flow_hash_of(tuple))) % n
    }

    /// Re-resolves every connection's shard after the RSS steering may
    /// have changed. No ring moves: the index only says which cache and
    /// core the connection's ring traffic is charged to.
    fn reindex_connections(&mut self) {
        let n = self.shards.len();
        let rss = self.nic.rss();
        for ep in self.endpoints.values_mut() {
            if let Endpoint::Conn(c) = ep {
                c.shard = Self::shard_for_tuple(rss, &c.tuple, n);
            }
        }
    }

    /// Returns host counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Shard 0's cache: the whole LLC on a one-queue host, shard 0's
    /// partition of it otherwise.
    pub fn llc(&self) -> &Llc {
        &self.shards[0].llc
    }

    /// Mutable access to shard 0's cache (benchmarks model application
    /// compute phases by sweeping working sets through it).
    pub fn llc_mut(&mut self) -> &mut Llc {
        &mut self.shards[0].llc
    }

    /// Returns the shared telemetry handle (the hub every layer emits
    /// into).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Starts (or restarts) per-packet lifecycle tracing: clears the
    /// event buffer, rebaselines every layer's counters, and enables the
    /// hub. The `ktrace` analogue of `tcpdump -i any` + `strace` in one.
    pub fn start_trace(&mut self) {
        self.tel.clear();
        self.tel.set_enabled(true);
        self.nic.mark_telemetry_baseline();
        self.tel_baseline = self.stats;
        self.tel_baseline_resident = self.rx_resident();
    }

    /// Every ring pair on the host, whoever owns it.
    fn ring_pairs(&self) -> impl Iterator<Item = &RingPair> {
        let own = self.connections().filter_map(|c| c.rings.as_ref());
        own.chain(self.proc_rings.values())
    }

    /// Frames sitting in RX rings.
    fn rx_resident(&self) -> u64 {
        self.ring_pairs().map(|r| r.rx.len() as u64).sum()
    }

    /// Stops tracing; the captured events remain queryable.
    pub fn stop_trace(&mut self) {
        self.tel.set_enabled(false);
    }

    /// Starts a durable collection: like [`Host::start_trace`], but every
    /// event the `profile` selects also streams into the event-series
    /// file at `path`. Memory stays bounded — events flow through the
    /// hub's fixed ring and one file buffer; call [`Host::spill_trace`]
    /// periodically to checkpoint the ledger and push bytes to the OS.
    /// The sink is attached first: a refused collection (one is already
    /// running) leaves the trace state of the running one untouched.
    pub(crate) fn start_collect(
        &mut self,
        profile: Profile,
        path: &std::path::Path,
    ) -> Result<(), CollectError> {
        self.tel.start_sink(path, profile)?;
        self.start_trace();
        Ok(())
    }

    /// A collection spill point: writes a ledger snapshot when the
    /// profile asked for one, and flushes the file. Bounds collection
    /// memory to the inter-spill event volume. No-op when no collection
    /// is active.
    pub fn spill_trace(&mut self) -> Result<(), FileError> {
        self.tel.spill_sink()
    }

    /// Stops a collection: writes the final ledger snapshot and fin
    /// record, detaches the sink, and disables tracing. Returns writer
    /// statistics (`None` when no collection was active). The in-memory
    /// buffer remains queryable, exactly like [`Host::stop_trace`].
    pub(crate) fn stop_collect(&mut self) -> Result<Option<SinkStats>, FileError> {
        let stats = self.tel.finish_sink();
        self.stop_trace();
        stats
    }

    /// Cross-checks the telemetry event ledger against the host's and
    /// NIC's independently maintained counters. Returns every violated
    /// invariant (empty = consistent). The trace ledger gives the audit
    /// a second, structurally different account of the same dataplane,
    /// so a bug has to corrupt both in the same way to hide.
    pub fn audit(&mut self) -> Vec<Violation> {
        let mut violations = self.nic.audit();
        // Third ledger: NIC-resident policy state vs the kernel store.
        violations.extend(self.ctrl.audit(&self.nic));
        // Way conservation: the per-shard partitions must tile the donor
        // cache exactly (no way lost, none double-owned).
        violations.extend(self.llc_plan.audit());
        // Arena conservation: every live slot must be reachable from some
        // resident handle — RX rings, kernel socket queues, or the TX retry
        // buffer. A live count above residency means a leaked
        // (unreachable) slot.
        // Residency can legitimately exceed liveness: many descriptors may
        // share one slot (taps, redeliveries). Heap-backed frames and
        // frames built in some other arena pin none of this host's slots
        // and are not counted.
        let live = self.arena.live() as u64;
        let ours = |p: &&Packet| p.arena_frame().is_some_and(|f| self.arena.owns(f));
        let resident = self
            .ring_pairs()
            .flat_map(|r| r.rx.iter_descs().map(|d| &d.pkt))
            .filter(ours)
            .count() as u64
            + self.stack.arena_resident(&self.arena) as u64
            + self.tx_retry.iter().map(|(_, p)| p).filter(ours).count() as u64;
        if live > resident {
            violations.push(Violation::new(Check::ArenaLeak, resident, live));
        }
        if !self.tel.is_enabled() {
            return violations;
        }
        let v = &mut violations;
        let d = |now: u64, base: u64| now.saturating_sub(base);
        let ring_full = self.tel.drop_count(DropCause::RingFull);
        let ring_enq_pass = self
            .tel
            .stage_count(Stage::RingEnqueue)
            .saturating_sub(ring_full);
        let (s, b) = (&self.stats, &self.tel_baseline);
        let delivered = d(s.fast_delivered, b.fast_delivered);
        let enqueue = Stage::RingEnqueue.index() as u64;
        check_at(v, Check::StageLedger, enqueue, delivered, ring_enq_pass);
        let (ring_drops, full) = (d(s.ring_drops, b.ring_drops), DropCause::RingFull.index());
        check_at(v, Check::DropLedger, full as u64, ring_drops, ring_full);
        // Frames already resident when tracing started were never counted
        // as enqueues, but their dequeues are. A frame a `close` discarded
        // left its ring without one.
        let discarded = d(s.discarded_at_close, b.discarded_at_close);
        let occupancy = (self.tel_baseline_resident + ring_enq_pass)
            .saturating_sub(self.tel.stage_count(Stage::RingDequeue) + discarded);
        check(v, Check::RingOccupancy, self.rx_resident(), occupancy);
        violations
    }

    /// Builds one unified metrics snapshot across every layer: NIC
    /// pipeline counters and stage histograms, scheduler classes,
    /// software-stack counters, host delivery counters, and the trace
    /// ledger itself. The single structured document the paper's
    /// "one place to look" management tools read.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        self.nic.fill_registry(&mut reg);
        self.stack.fill_registry(&mut reg);
        self.tel.fill_registry(&mut reg);
        self.ctrl.fill_registry(&mut reg);
        reg.set_counter("host.fast_delivered", self.stats.fast_delivered);
        reg.set_counter("host.ring_drops", self.stats.ring_drops);
        reg.set_counter("host.slowpath", self.stats.slowpath);
        reg.set_counter("host.nic_dropped", self.stats.nic_dropped);
        reg.set_counter("host.malformed_dropped", self.stats.malformed_dropped);
        reg.set_counter("host.conns_refused", self.stats.conns_refused);
        reg.set_counter(
            "host.accept_backlog_refused",
            self.stats.accept_backlog_refused,
        );
        reg.set_counter("host.tx_deferred", self.stats.tx_deferred);
        reg.set_counter("host.tx_retry_flushed", self.stats.tx_retry_flushed);
        reg.set_counter("host.tx_retry_dropped", self.stats.tx_retry_dropped);
        reg.set_counter("host.degraded_slowpath", self.stats.degraded_slowpath);
        reg.set_counter("host.worker_restarts", self.stats.worker_restarts);
        reg.set_counter("host.discarded_at_close", self.stats.discarded_at_close);
        reg.set_counter("host.degraded", u64::from(self.degrade.engaged));
        reg.set_counter("host.connections", self.num_connections() as u64);
        reg.set_counter("host.tx_retry_len", self.tx_retry.len() as u64);
        reg.set_counter("host.workers", self.shards.len() as u64);
        reg.set_gauge("host.kernel_cpu_us", self.kernel_cpu.as_us_f64());
        reg.set_counter("host.arena_live", self.arena.live() as u64);
        reg.set_counter("host.arena_slots", self.arena.slots() as u64);
        let mut llc = LlcStats::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let s = shard.llc_stats();
            reg.set_counter(&format!("llc.shard.{i}.ddio_evictions"), s.ddio_evictions);
            reg.set_counter(&format!("llc.shard.{i}.dma_hits"), s.dma_hits);
            reg.set_counter(&format!("llc.shard.{i}.dma_misses"), s.dma_misses);
            llc.absorb(&s);
        }
        reg.set_counter("llc.ddio_evictions", llc.ddio_evictions);
        reg.set_counter("llc.dma_hits", llc.dma_hits);
        reg.set_counter("llc.dma_misses", llc.dma_misses);
        reg.snapshot()
    }

    /// Returns how many TX frames currently wait in the reprogram-outage
    /// retry buffer.
    pub fn tx_retry_len(&self) -> usize {
        self.tx_retry.len()
    }

    /// The host's pooled frame arena. Harnesses build frames here
    /// (via [`pkt::PacketBuilder::build_in`]) so injection is zero-copy
    /// end to end; tests read [`pkt::BufArena::live`] to assert the
    /// pool drains back to zero.
    pub fn arena(&self) -> &BufArena {
        &self.arena
    }

    /// Adopts raw wire bytes into the host arena, falling back to a
    /// heap-backed frame when the pool is exhausted (correct either
    /// way; only pooling is lost). This is the ingress edge: everything
    /// downstream — NIC, rings, taps, app delivery — shares the one
    /// buffer written here.
    pub fn adopt_frame(&self, bytes: &[u8]) -> Packet {
        match self.arena.adopt(bytes) {
            Some(frame) => Packet::from_arena(frame),
            None => Packet::from_bytes(bytes.to_vec()),
        }
    }

    /// Returns an open connection.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.endpoints.get(&id).and_then(Endpoint::conn)
    }

    /// The open connections, in table order.
    fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.endpoints.values().filter_map(Endpoint::conn)
    }

    /// Returns the number of open connections.
    pub fn num_connections(&self) -> usize {
        self.connections().count()
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Spawns a process for `uid`.
    pub fn spawn(&mut self, uid: Uid, user: &str, comm: &str) -> Pid {
        self.procs.spawn(Cred::new(uid, user), comm, CgroupId::ROOT)
    }

    /// Mutates the kernel policy store inside a two-phase transaction:
    /// the mutated store is compiled and verified (phase 1), then swapped
    /// onto the NIC atomically under a new generation (phase 2). On any
    /// failure — compile rejection, frozen dataplane, or a mid-commit
    /// fault — the store, the NIC, and the generation are exactly as
    /// before. Returns the new generation.
    ///
    /// This is the *only* path that changes dataplane policy.
    pub fn update_policy(
        &mut self,
        now: Time,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<u64, CtrlError> {
        let ops_before = self.ctrl.stats().apply_ops;
        let result = self.ctrl.update(&mut self.nic, &mut None, now, mutate);
        self.charge_policy_ops(ops_before);
        self.reindex_connections();
        result
    }

    /// Charges kernel CPU for a policy transaction: one control syscall
    /// plus one MMIO write per apply operation the commit executed.
    fn charge_policy_ops(&mut self, ops_before: u64) {
        let ops = self.ctrl.stats().apply_ops - ops_before;
        self.kernel_cpu += self.stack.costs().syscalls.control_call();
        for _ in 0..ops {
            self.kernel_cpu += self.mmio.write(&self.cfg.mem);
        }
    }

    /// The control plane (generation, commit history, third audit
    /// ledger).
    pub fn ctrl(&self) -> &ControlPlane {
        &self.ctrl
    }

    /// The authoritative kernel policy store.
    pub fn policy(&self) -> &PolicyStore {
        self.ctrl.store()
    }

    /// The installed policy generation.
    pub fn policy_generation(&self) -> u64 {
        self.ctrl.generation()
    }

    /// Arms fault injection on policy-commit apply steps (chaos testing;
    /// see [`sim::fault::OpFaultInjector`]).
    pub fn set_policy_fault_injector(&mut self, faults: OpFaultInjector) {
        self.ctrl.set_fault_injector(faults);
    }

    /// Sets the commit watchdog: a policy transaction whose phase 2
    /// exceeds this many apply ops is aborted and rolled back, so a
    /// stalled or dying device cannot wedge the control plane. `None`
    /// disables the deadline.
    pub fn set_commit_watchdog(&mut self, ops: Option<u64>) {
        self.ctrl.set_commit_watchdog(ops);
    }

    /// Takes the NIC down for a bitstream reprogram and returns when the
    /// dataplane comes back. The control plane reconciles — reinstalls
    /// the full policy bundle onto the new hardware — on the first
    /// dataplane operation after recovery.
    pub fn reprogram_nic(&mut self, now: Time) -> Time {
        self.nic.reprogram_bitstream(now)
    }

    /// Arms the op-schedule crash injector on the NIC (chaos testing;
    /// see [`sim::fault::OpFaultInjector`]).
    pub fn set_nic_crash_injector(&mut self, injector: OpFaultInjector) {
        self.nic.set_crash_injector(injector);
    }

    /// Reinstalls NIC state if a bitstream reprogram or a crash/reset
    /// wiped it and the dataplane is back up. Called on every dataplane
    /// entry point so policies re-attach before the first post-recovery
    /// frame.
    ///
    /// This is the kernel's fail-operational loop: a dead NIC is reset
    /// here (nothing else in the system has the authority), then once
    /// the device thaws the kernel rebuilds what the crash wiped —
    /// connections and listeners back into the flow table, and finally
    /// the committed policy bundle via [`ControlPlane::reconcile`].
    fn maybe_reconcile(&mut self, now: Time) {
        if self.nic.is_dead() {
            self.kernel_cpu += self.stack.costs().syscalls.control_call();
            self.nic.reset(now);
        }
        if !self.ctrl.needs_reconcile(&self.nic) || self.nic.is_frozen(now) {
            return;
        }
        if self.nic.stats().resets != self.resets_restored {
            self.restore_flow_state(now);
            self.resets_restored = self.nic.stats().resets;
        }
        let ops_before = self.ctrl.stats().apply_ops;
        self.ctrl
            .reconcile(&mut self.nic, now)
            .expect("reconcile runs fault-free and reinstalls onto an empty NIC");
        self.charge_policy_ops(ops_before);
        self.reindex_connections();
    }

    /// Rebuilds the kernel-owned NIC flow state a crash wiped: every
    /// open connection, then every listener, is reinstalled (each in id
    /// order, so recovery is deterministic and ids are preserved).
    ///
    /// The committed flow-cache policy is reinstalled *first*, so both
    /// tiers rebuild deterministically under it: restored entries land
    /// hot until the policy's budget fills, then overflow to the cold
    /// tier — a million-connection restore cannot blow the hot tier's
    /// SRAM. (Reconcile re-applies the policy afterwards through the
    /// ordinary ctrl path; the second re-tier is a deterministic no-op.)
    fn restore_flow_state(&mut self, now: Time) {
        if let Some(fc) = self.ctrl.flow_cache().cloned() {
            let _ = self.nic.configure_flow_cache(Some(fc), now);
        }
        let mut endpoints: Vec<(&ConnId, &Endpoint)> = self.endpoints.iter().collect();
        // Connections before listeners, each kind in id order.
        endpoints.sort_unstable_by_key(|&(id, ep)| (ep.conn().is_none(), id.0));
        for (&id, ep) in endpoints {
            match ep {
                Endpoint::Conn(c) => {
                    let comm = self.procs.get(c.pid).map(|p| p.comm).unwrap_or_default();
                    self.nic
                        .restore_connection(id, c.tuple, c.uid.0, c.pid.0, &comm, c.notify)
                }
                Endpoint::Listener {
                    pid, proto, port, ..
                } => {
                    let (uid, comm) = self
                        .procs
                        .get(*pid)
                        .map(|p| (p.cred.uid.0, p.comm))
                        .unwrap_or_default();
                    self.nic
                        .restore_listener(id, *proto, *port, uid, pid.0, &comm)
                }
            }
            .expect("restore onto a freshly reset NIC cannot exhaust SRAM");
            self.kernel_cpu += self.mmio.write(&self.cfg.mem);
        }
    }

    /// Opens a connection for `pid` on `local_port` to
    /// `(remote_ip, remote_port)`.
    ///
    /// This is the `connect(2)`/`accept(2)` path of §4.3: the kernel
    /// validates policy, allocates and pins a ring pair, programs the NIC
    /// flow table with the (uid, pid, comm) binding, and grants the app
    /// its doorbell registers.
    pub fn connect(
        &mut self,
        pid: Pid,
        proto: IpProto,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        notify: bool,
    ) -> Result<ConnId, ConnectError> {
        let (uid, comm) = {
            let p = self
                .procs
                .get(pid)
                .ok_or(ConnectError::NoSuchProcess(pid))?;
            (p.cred.uid, p.comm)
        };
        // Policy check at setup time (defense in depth: the NIC filter
        // also enforces it per packet).
        if let Some(r) = self
            .ctrl
            .store()
            .reservations
            .iter()
            .find(|r| r.port == local_port)
        {
            if !r.permits(uid, &comm) {
                return Err(ConnectError::PolicyDenied {
                    port: local_port,
                    uid,
                });
            }
        }
        let tuple = FiveTuple {
            src_ip: remote_ip,
            dst_ip: self.cfg.ip,
            src_port: remote_port,
            dst_port: local_port,
            proto,
        };
        let id = match self.nic.open_connection(tuple, uid.0, pid.0, &comm, notify) {
            Ok(id) => id,
            Err(e) => {
                self.stats.conns_refused += 1;
                return Err(ConnectError::NicResources(e));
            }
        };
        let rings = if self.cfg.shared_rings {
            if !self.proc_rings.contains_key(&pid) {
                let pair = self.alloc_ring_pair();
                self.proc_rings.insert(pid, pair);
            }
            None
        } else {
            Some(self.alloc_ring_pair())
        };
        self.endpoints.insert(
            id,
            Endpoint::Conn(Connection {
                pid,
                uid,
                tuple,
                notify,
                rings,
                shard: Self::shard_for_tuple(self.nic.rss(), &tuple, self.shards.len()),
                owner: Owner::new(uid.0, pid.0, comm),
            }),
        );
        // Connection setup costs kernel time (syscall + NIC programming).
        self.kernel_cpu += self.stack.costs().syscalls.control_call() + Dur::from_us(2);
        Ok(id)
    }

    /// Binds a listener on `(proto, port)` for `pid` — the first half of
    /// the `accept(2)` path of §4.3. First packets of inbound connections
    /// match the NIC's listener entry, take the slow path into the
    /// pending-accept queue, and [`Host::accept`] promotes them to
    /// fast-path connections.
    pub fn listen(&mut self, pid: Pid, proto: IpProto, port: u16) -> Result<ConnId, ConnectError> {
        let (uid, comm) = {
            let p = self
                .procs
                .get(pid)
                .ok_or(ConnectError::NoSuchProcess(pid))?;
            (p.cred.uid, p.comm)
        };
        if let Some(r) = self
            .ctrl
            .store()
            .reservations
            .iter()
            .find(|r| r.port == port)
        {
            if !r.permits(uid, &comm) {
                return Err(ConnectError::PolicyDenied { port, uid });
            }
        }
        let id = self
            .nic
            .open_listener(proto, port, uid.0, pid.0, &comm)
            .map_err(ConnectError::NicResources)?;
        self.endpoints.insert(
            id,
            Endpoint::Listener {
                pid,
                proto,
                port,
                backlog: VecDeque::new(),
            },
        );
        self.kernel_cpu += self.stack.costs().syscalls.control_call();
        Ok(id)
    }

    /// Accepts a pending inbound connection on `listener`: allocates the
    /// ring pair, installs the exact-match flow entry, and returns the
    /// new connection — the second half of `accept(2)`. Returns `None`
    /// when nothing is pending, or when the connection is refused: a
    /// client the NIC has no room for right now keeps its place at the
    /// head of the backlog, one that can never be connected (policy, or
    /// its tuple is already installed) is dropped from it.
    pub fn accept(&mut self, listener: ConnId, notify: bool) -> Option<ConnId> {
        let (pid, tuple) = match self.endpoints.get_mut(&listener)? {
            Endpoint::Listener { pid, backlog, .. } => (*pid, backlog.pop_front()?),
            Endpoint::Conn(_) => return None,
        };
        let result = self.connect(
            pid,
            tuple.proto,
            tuple.dst_port,
            tuple.src_ip,
            tuple.src_port,
            notify,
        );
        let transient = matches!(&result, Err(ConnectError::NicResources(e))
            if !matches!(e, NicError::AlreadyInstalled(_)));
        if transient {
            if let Some(Endpoint::Listener { backlog, .. }) = self.endpoints.get_mut(&listener) {
                backlog.push_front(tuple);
            }
        }
        result.ok()
    }

    /// Returns how many inbound connections wait on `listener`.
    pub fn pending_accept_count(&self, listener: ConnId) -> usize {
        match self.endpoints.get(&listener) {
            Some(Endpoint::Listener { backlog, .. }) => backlog.len(),
            _ => 0,
        }
    }

    /// Closes a connection or a listener, releasing its NIC state and
    /// what the kernel held for it: the pinned rings (under
    /// `shared_rings`, with the process's last connection), or the port
    /// and the clients still waiting on it.
    pub fn close(&mut self, id: ConnId) -> bool {
        let Some(closed) = self.endpoints.remove(&id) else {
            return false;
        };
        let _ = self.nic.close_connection(id);
        if let Endpoint::Conn(conn) = closed {
            let released = match conn.rings {
                Some(own) => Some(own),
                None if self.connections().any(|c| c.pid == conn.pid) => None,
                None => self.proc_rings.remove(&conn.pid),
            };
            // The pair goes with whatever the application never read.
            if let Some(pair) = released {
                self.stats.discarded_at_close += pair.rx.len() as u64;
            }
        }
        true
    }

    /// Allocates and pins one ring pair, RX first.
    fn alloc_ring_pair(&mut self) -> RingPair {
        let (slots, slot_bytes) = (self.cfg.ring_slots, self.cfg.ring_slot_bytes);
        RingPair {
            rx: RxRing::new(self.alloc_ring_addr(), slots, slot_bytes),
            tx: HostRing::new(self.alloc_ring_addr(), slots, slot_bytes),
        }
    }

    /// Picks a pinned physical placement for the next ring.
    ///
    /// Physical pages backing pinned rings are not contiguous: placing
    /// rings back-to-back would alias their cache sets and fabricate
    /// associativity conflicts the real machine does not have. A
    /// bijective multiplicative permutation scatters ring cells across a
    /// 16 GiB physical arena instead.
    fn alloc_ring_addr(&mut self) -> u64 {
        let footprint =
            (self.cfg.ring_slots as u64) * (HostRing::DESC_BYTES + self.cfg.ring_slot_bytes as u64);
        let cell = footprint.next_multiple_of(4096);
        // Power-of-two cell count so the odd multiplier is a bijection.
        let cells = ((16u64 << 30) / cell).next_power_of_two() / 2;
        let idx = self.next_ring_index;
        self.next_ring_index += 1;
        let scattered = (idx.wrapping_mul(0x9E37_79B9)) & (cells - 1);
        0x1_0000_0000 + scattered * cell
    }

    // ------------------------------------------------------------------
    // Overload degradation
    // ------------------------------------------------------------------

    /// Whether overload degradation is currently engaged (low-priority
    /// flows demoted to the software slow path).
    pub fn degraded(&self) -> bool {
        self.degrade.engaged
    }

    /// Feeds one fast-path delivery attempt into the degradation
    /// detector. `pressured` means the attempt found its RX ring full —
    /// the occupancy signal. When a full window's pressured fraction
    /// reaches the committed policy's high watermark the detector
    /// engages; once engaged, a window at or below the low watermark
    /// promotes back. No-op without a committed [`DegradationPolicy`]
    /// (`crate::ctrl::DegradationPolicy`).
    fn note_ring_pressure(&mut self, pressured: bool, now: Time) {
        let (high, low, window) = match self.ctrl.degradation() {
            Some(p) => (p.high_watermark, p.low_watermark, p.window),
            None => return,
        };
        self.degrade.window_seen += 1;
        if pressured {
            self.degrade.window_pressured += 1;
        }
        if self.degrade.window_seen < window {
            return;
        }
        let frac = self.degrade.window_pressured as f64 / self.degrade.window_seen as f64;
        self.degrade.window_seen = 0;
        self.degrade.window_pressured = 0;
        if !self.degrade.engaged && frac >= high {
            self.degrade.engaged = true;
            self.tel.record_recovery(
                now,
                RecoveryKind::DegradeEngaged,
                format!(
                    "ring pressure {:.0}% >= {:.0}% over {window} deliveries",
                    frac * 100.0,
                    high * 100.0
                ),
            );
        } else if self.degrade.engaged && frac <= low {
            self.degrade.engaged = false;
            self.tel.record_recovery(
                now,
                RecoveryKind::DegradePromoted,
                format!(
                    "ring pressure {:.0}% <= {:.0}% over {window} deliveries",
                    frac * 100.0,
                    low * 100.0
                ),
            );
        }
    }

    // ------------------------------------------------------------------
    // Dataplane
    // ------------------------------------------------------------------

    fn doorbell_cost(&mut self) -> Dur {
        self.ring_ops_since_doorbell += 1;
        if self.ring_ops_since_doorbell >= DOORBELL_BATCH {
            self.ring_ops_since_doorbell = 0;
            self.mmio.write(&self.cfg.mem)
        } else {
            Dur::ZERO
        }
    }

    /// A frame arrives from the wire at `now`.
    pub fn deliver_from_wire(&mut self, packet: &Packet, now: Time) -> DeliveryReport {
        self.deliver_frame(packet.clone(), now)
    }

    /// [`Host::deliver_from_wire`] with frame ownership handed over — the
    /// NIC presenting an already-DMA'd buffer rather than bytes to copy.
    /// On the fast path the frame handle moves straight into the RX ring
    /// descriptor with no refcount traffic at all; harnesses that own
    /// their frames (the wall-clock benches, the chaos driver) should
    /// prefer this entry point.
    pub fn deliver_frame(&mut self, packet: Packet, now: Time) -> DeliveryReport {
        self.maybe_reconcile(now);
        let rx = self.nic.rx(&packet, now);
        self.finish_delivery(packet, rx, now)
    }

    /// Delivers a burst of frames arriving together at `now`, then drains
    /// TX. What a burst means at the host: one reconcile check, one
    /// arrival instant, the NIC ingests every frame before the host
    /// reacts to any, and TX is drained once after the last. Per frame
    /// the work is [`Host::deliver_from_wire`]'s.
    pub fn pump(
        &mut self,
        packets: &[Packet],
        now: Time,
    ) -> (Vec<DeliveryReport>, Vec<TxDeparture>) {
        self.maybe_reconcile(now);
        let rxs = self.nic.rx_batch(packets, now);
        let deliveries = packets
            .iter()
            .zip(rxs)
            .map(|(p, rx)| self.finish_delivery(p.clone(), rx, now))
            .collect();
        let departures = self.pump_tx(now);
        (deliveries, departures)
    }

    /// The host-side half of ingress: routes one NIC verdict to rings,
    /// the slow path, or drop accounting, reusing the parse-once
    /// descriptor inside the verdict — the host never re-parses frame
    /// bytes. The fast path moves the caller's handle into the ring
    /// without an intermediate copy.
    fn finish_delivery(
        &mut self,
        packet: Packet,
        rx: nicsim::RxResult,
        now: Time,
    ) -> DeliveryReport {
        let mut report = DeliveryReport {
            outcome: DeliveryOutcome::Dropped,
            mem_cost: Dur::ZERO,
            nic_latency: rx.latency,
            kernel_cpu: Dur::ZERO,
            woke: None,
        };
        match rx.disposition {
            RxDisposition::Deliver { conn, ref meta, .. } => {
                let c = match self.endpoints.get_mut(&conn) {
                    Some(Endpoint::Conn(c)) => c,
                    other => {
                        // No ring for it, so the frame is the kernel
                        // stack's. On a listener it is the first packet of
                        // an inbound connection and its client queues for
                        // accept(): a retransmitted first packet finds the
                        // client already waiting, a full backlog turns new
                        // ones away. Otherwise it matched a flow entry the
                        // kernel did not install.
                        if let (Some(Endpoint::Listener { backlog, .. }), Some(tuple)) =
                            (other, meta.tuple)
                        {
                            if !backlog.contains(&tuple) {
                                if backlog.len() < ACCEPT_BACKLOG {
                                    backlog.push_back(tuple);
                                } else {
                                    self.stats.accept_backlog_refused += 1;
                                }
                            }
                        }
                        self.punt_to_stack(&packet, meta, now, &mut report);
                        return report;
                    }
                };
                let (pid, owner, shard) = (c.pid, c.owner, c.shard);
                // Demoted right now: the detector is engaged and the
                // committed policy lists this local port as low-priority.
                let demoted = self.degrade.engaged
                    && self
                        .ctrl
                        .degradation()
                        .is_some_and(|p| p.low_prio_ports.contains(&c.tuple.dst_port));
                if demoted {
                    // Degraded mode: this low-priority flow yields the
                    // fast path so high-priority traffic keeps the
                    // rings. The frame is handled by the kernel stack —
                    // slower, but delivered and accounted.
                    self.punt_to_stack(&packet, meta, now, &mut report);
                    self.stack.note_degraded_rx();
                    self.stats.degraded_slowpath += 1;
                    // Demoted deliveries count as unpressured window
                    // entries so a drained system can promote back.
                    self.note_ring_pressure(false, now);
                    return report;
                }
                // The descriptor *is* the frame handle: producing into the
                // ring moves the handle instead of copying bytes.
                let plen = packet.len();
                let fid = meta.frame_id;
                let produced = self.shards[shard].rx_produce(
                    &mut c.ring_pair(&mut self.proc_rings).rx,
                    packet,
                    fid,
                    rx.cold,
                    &self.cfg.mem,
                );
                let verdict = match produced {
                    Ok(cost) => {
                        report.mem_cost = cost;
                        report.outcome = DeliveryOutcome::FastPath(conn);
                        self.stats.fast_delivered += 1;
                        self.sched.charge_core_busy(shard, cost);
                        self.note_ring_pressure(false, now);
                        TraceVerdict::Pass
                    }
                    Err(_) => {
                        report.outcome = DeliveryOutcome::RingFull(conn);
                        self.stats.ring_drops += 1;
                        self.note_ring_pressure(true, now);
                        TraceVerdict::Drop(DropCause::RingFull)
                    }
                };
                // Meta fields are only read for the trace event, so the
                // (wide) meta copy stays inside the closure. The hub checks
                // the flag again; checking it here keeps the closure's
                // captures off the untraced path (~1 % of `rx_fast`).
                if self.tel.is_enabled() {
                    self.tel
                        .emit_stage(Stage::RingEnqueue, verdict, rx.ready_at, || FrameInfo {
                            frame_id: fid,
                            tuple: meta.tuple,
                            len: plen as u32,
                            owner: Some(owner),
                        });
                }
                if produced.is_err() {
                    return report;
                }
                if rx.interrupt {
                    if let Some(resumed) = self.sched.wake(pid, rx.ready_at, &mut self.procs) {
                        let _ = resumed;
                        report.woke = Some(pid);
                    }
                }
            }
            RxDisposition::SlowPath { ref meta, .. } => {
                // ARP is handled by the kernel itself: update the cache
                // and answer who-has requests for our address.
                if meta.is_arp() {
                    let cost = Dur::from_ns(400); // cache update + reply build
                    self.kernel_cpu += cost;
                    report.kernel_cpu = cost;
                    report.outcome = DeliveryOutcome::SlowPath;
                    self.stats.slowpath += 1;
                    if let Some(reply) = self.arp.handle_meta(&packet, meta, now) {
                        let _ = self.nic.tx_enqueue(ConnId::KERNEL, &reply, now);
                    }
                    return report;
                }
                self.punt_to_stack(&packet, meta, now, &mut report);
            }
            RxDisposition::Drop { reason } => {
                if reason == DropReason::Malformed {
                    self.stats.malformed_dropped += 1;
                } else {
                    self.stats.nic_dropped += 1;
                }
            }
        }
        report
    }

    /// Hands a frame the fast path is not carrying to the kernel stack,
    /// with the NIC's descriptor, and accounts it as a slow-path delivery,
    /// waking the socket's owner if the stack asks for it.
    fn punt_to_stack(
        &mut self,
        packet: &Packet,
        meta: &pkt::FrameMeta,
        now: Time,
        report: &mut DeliveryReport,
    ) {
        let (outcome, cost) = self.stack.rx_with_meta(packet, meta, now);
        self.kernel_cpu += cost;
        report.kernel_cpu = cost;
        report.outcome = DeliveryOutcome::SlowPath;
        self.stats.slowpath += 1;
        if let RxOutcome::Delivered { pid, wake: true } = outcome {
            if self.sched.wake(pid, now + cost, &mut self.procs).is_some() {
                report.woke = Some(pid);
            }
        }
    }

    /// The application receives from a connection's RX ring.
    ///
    /// Pure memory operations — no kernel involvement (§4.3: "the
    /// application can directly send and receive data by merely accessing
    /// memory").
    pub fn app_recv(&mut self, id: ConnId, now: Time, blocking: bool) -> RecvResult {
        let Some(Endpoint::Conn(conn)) = self.endpoints.get_mut(&id) else {
            return RecvResult {
                len: None,
                pkt: None,
                cpu: Dur::ZERO,
                blocked: false,
            };
        };
        let (pid, notify, owner, shard) = (conn.pid, conn.notify, conn.owner, conn.shard);
        let rx_ring = &mut conn.ring_pair(&mut self.proc_rings).rx;
        match rx_ring.consume_cpu_desc(&mut self.shards[shard].llc, &self.cfg.mem) {
            Some((RxDesc { pkt, fid }, len, cost)) => {
                let cpu = cost + self.doorbell_cost();
                self.sched.charge_busy(pid, cpu);
                self.trace_recv(fid, len, owner, now);
                RecvResult {
                    len: Some(len),
                    pkt: Some(pkt),
                    cpu,
                    blocked: false,
                }
            }
            None => {
                // Check the head pointer: one cache read.
                let cpu = self.cfg.mem.llc_hit;
                let mut blocked = false;
                if blocking && notify {
                    self.nic.arm_interrupt(pid.0);
                    blocked = self.sched.block(pid, now, &mut self.procs);
                } else {
                    self.sched.charge_polling(pid, cpu);
                }
                RecvResult {
                    len: None,
                    pkt: None,
                    cpu,
                    blocked,
                }
            }
        }
    }

    /// The two events of a receive: the slot leaves the ring (the ring
    /// knows the frame, not the process) and the frame reaches its owner.
    /// Out of line: the record path it inlines is large, and inside
    /// `app_recv` it costs the traced receive ~1.5 % (`rx_traced`).
    #[inline(never)]
    fn trace_recv(&self, fid: u64, len: usize, owner: Owner, now: Time) {
        self.tel.emit_stages(
            &[
                StageRec::new(Stage::RingDequeue, TraceVerdict::Pass, now).unowned(),
                StageRec::new(Stage::AppDeliver, TraceVerdict::Pass, now),
            ],
            &[],
            || FrameInfo {
                frame_id: fid,
                tuple: None,
                len: len as u32,
                owner: Some(owner),
            },
        );
    }

    /// The application sends a frame on a connection: write payload into
    /// the TX ring (CPU stores), ring the doorbell (MMIO), NIC DMA-reads
    /// and runs egress policy, then schedules.
    pub fn app_send(&mut self, id: ConnId, packet: &Packet, now: Time) -> SendResult {
        let Some(Endpoint::Conn(conn)) = self.endpoints.get_mut(&id) else {
            return SendResult {
                queued: false,
                deferred: false,
                cpu: Dur::ZERO,
            };
        };
        let (pid, shard) = (conn.pid, conn.shard);
        let tx_ring = &mut conn.ring_pair(&mut self.proc_rings).tx;
        let (llc, mem) = (&mut self.shards[shard].llc, &self.cfg.mem);
        let Ok(produce) = tx_ring.produce_cpu_with((), packet.len(), llc, mem) else {
            return SendResult {
                queued: false,
                deferred: false,
                cpu: mem.llc_hit,
            };
        };
        // NIC side: DMA-read the frame out of the ring.
        let _ = tx_ring.consume_dma(llc, mem);
        let doorbell = self.doorbell_cost();
        let (queued, deferred) = self.offer_tx(id, packet, now);
        let cpu = produce + doorbell;
        self.sched.charge_busy(pid, cpu);
        SendResult {
            queued,
            deferred,
            cpu,
        }
    }

    /// Offers a frame to the NIC TX path, buffering it for retry when the
    /// dataplane is down for a bitstream reprogram. Returns
    /// `(queued, deferred)`.
    fn offer_tx(&mut self, id: ConnId, packet: &Packet, now: Time) -> (bool, bool) {
        match self.nic.tx_enqueue(id, packet, now) {
            Ok(TxDisposition::Queued { .. }) => (true, false),
            Ok(TxDisposition::Drop {
                reason: DropReason::Reprogramming,
            }) => {
                // The dataplane is down for a bitstream reprogram. Buffer
                // the frame for retry on recovery instead of silently
                // losing it — bounded, so a long outage applies
                // backpressure rather than growing without limit.
                if self.tx_retry.len() < TX_RETRY_CAP {
                    self.tx_retry.push_back((id, packet.clone()));
                    self.stats.tx_deferred += 1;
                    (false, true)
                } else {
                    self.stats.tx_retry_dropped += 1;
                    (false, false)
                }
            }
            Ok(TxDisposition::Drop { .. }) => (false, false),
            Err(_) => (false, false),
        }
    }

    /// Re-offers frames deferred during a reprogram outage. Stops at the
    /// first frame the NIC still cannot take (still frozen, or scheduler
    /// full) so ordering is preserved.
    fn flush_tx_retry(&mut self, now: Time) {
        while let Some((conn, pkt)) = self.tx_retry.pop_front() {
            match self.nic.tx_enqueue(conn, &pkt, now) {
                Ok(TxDisposition::Queued { .. }) => {
                    self.stats.tx_retry_flushed += 1;
                }
                Ok(TxDisposition::Drop {
                    reason: DropReason::Reprogramming,
                })
                | Err(NicError::TxQueueFull) => {
                    // Not ready yet: put it back and try again later.
                    self.tx_retry.push_front((conn, pkt));
                    break;
                }
                Ok(TxDisposition::Drop { .. }) | Err(_) => {
                    // Policy drop or the connection is gone: the frame is
                    // lost for good.
                    self.stats.tx_retry_dropped += 1;
                }
            }
        }
    }

    /// Drains every frame the NIC can put on the wire up to `now`,
    /// first re-offering any TX frames deferred during a reprogram
    /// outage.
    pub fn pump_tx(&mut self, now: Time) -> Vec<TxDeparture> {
        self.maybe_reconcile(now);
        if !self.tx_retry.is_empty() {
            self.flush_tx_retry(now);
        }
        self.nic.tx_poll_batch(now, usize::MAX)
    }

    /// Pops a pending notification for `pid` (the kernel-side monitor or
    /// a woken process checking why it woke).
    pub fn pop_notification(&mut self, pid: Pid) -> Option<Notification> {
        self.nic.pop_notification(pid.0)
    }

    /// Blocks `pid` until *any* of its notify-enabled connections has
    /// data — the `epoll_wait`/select analogue over the §4.3 shared
    /// notification queue. Returns the ready connection if one is already
    /// pending (no block), or `None` after blocking the process.
    pub fn app_wait_any(&mut self, pid: Pid, now: Time) -> Option<ConnId> {
        // Drain the notification queue first: a pending RxReady means no
        // need to block.
        while let Some(n) = self.nic.pop_notification(pid.0) {
            if n.kind == NotifyKind::RxReady {
                return Some(n.conn);
            }
        }
        self.nic.arm_interrupt(pid.0);
        self.sched.block(pid, now, &mut self.procs);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PortReservation, ShapingPolicy};
    use pkt::PacketBuilder;

    fn host() -> Host {
        Host::new(HostConfig::default())
    }

    fn wire_udp(host_ip: Ipv4Addr, src_port: u16, dst_port: u16, len: usize) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(9), Mac::local(1))
            .ipv4(Ipv4Addr::new(10, 0, 0, 2), host_ip)
            .udp(src_port, dst_port, &vec![0u8; len])
            .build()
    }

    #[test]
    fn rx_slot_record_and_receive_stay_small() {
        // Every fast-path frame is moved into a ring slot record and out
        // again in a `RecvResult`; a field added to `Packet` or `RxDesc`
        // grows both on every frame.
        assert!(std::mem::size_of::<(u32, Option<RxDesc>)>() <= 48);
        assert!(std::mem::size_of::<RecvResult>() <= 64);
        // The NIC's verdict, descriptor inside, is built for every frame
        // and moved into the host's delivery.
        assert!(std::mem::size_of::<nicsim::RxResult>() <= 128);
    }

    fn open_conn(h: &mut Host, pid: Pid, port: u16, notify: bool) -> ConnId {
        h.connect(
            pid,
            IpProto::UDP,
            port,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            notify,
        )
        .unwrap()
    }

    #[test]
    fn fast_path_delivery_and_recv() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 500);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(conn));
        assert!(report.mem_cost > Dur::ZERO);
        assert_eq!(
            report.kernel_cpu,
            Dur::ZERO,
            "fast path must not touch the kernel"
        );
        let r = h.app_recv(conn, Time::ZERO, false);
        assert_eq!(r.len, Some(pkt.len()));
        assert!(r.cpu > Dur::ZERO);
    }

    #[test]
    fn unknown_traffic_takes_slow_path() {
        let mut h = host();
        let pkt = wire_udp(h.cfg.ip, 1, 9999, 64);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
        assert!(report.kernel_cpu > Dur::ZERO);
        assert_eq!(h.stats().slowpath, 1);
    }

    #[test]
    fn frame_for_an_entry_the_kernel_did_not_install_is_accounted() {
        let mut h = host();
        let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 2), 9000, h.cfg.ip, 7000);
        h.nic.open_connection(tuple, 0, 1, "rogue", false).unwrap();
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 64);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
        assert!(report.kernel_cpu > Dur::ZERO);
        assert_eq!(h.stats().slowpath, 1);
        assert_eq!(h.stack.counters().0, 1);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 100);
        // Default rings hold 2 slots.
        h.deliver_from_wire(&pkt, Time::ZERO);
        h.deliver_from_wire(&pkt, Time::ZERO);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::RingFull(conn));
        assert_eq!(h.stats().ring_drops, 1);
        // Draining frees space.
        h.app_recv(conn, Time::ZERO, false);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(conn));
    }

    #[test]
    fn reservation_blocks_connect() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "postgres");
        let charlie = h.spawn(Uid(1002), "charlie", "mysqld");
        h.update_policy(Time::ZERO, |p| {
            p.reservations.push(PortReservation::new(5432, Uid(1001)))
        })
        .unwrap();
        assert!(h
            .connect(
                bob,
                IpProto::UDP,
                5432,
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                false
            )
            .is_ok());
        let err = h
            .connect(
                charlie,
                IpProto::UDP,
                5432,
                Ipv4Addr::new(10, 0, 0, 2),
                2,
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ConnectError::PolicyDenied { port: 5432, .. }));
    }

    #[test]
    fn reservation_enforced_in_dataplane_too() {
        // Even if a connection existed before the reservation (the
        // "misconfiguration or bug" case of §2), the NIC filter drops
        // violating packets.
        let mut h = host();
        let charlie = h.spawn(Uid(1002), "charlie", "mysqld");
        let conn = open_conn(&mut h, charlie, 5432, false);
        h.update_policy(Time::ZERO, |p| {
            p.reservations.push(PortReservation::new(5432, Uid(1001)))
        })
        .unwrap();
        let pkt = wire_udp(h.cfg.ip, 9000, 5432, 100);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::Dropped);
        assert_eq!(h.stats().nic_dropped, 1);
        let _ = conn;
    }

    #[test]
    fn blocking_recv_blocks_and_wakes() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, true);
        // Nothing there: the process blocks.
        let r = h.app_recv(conn, Time::ZERO, true);
        assert!(r.blocked);
        assert_eq!(
            h.procs.get(bob).unwrap().state,
            oskernel::ProcState::Blocked
        );
        // A packet arrives: the NIC notification wakes the process.
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 64);
        let report = h.deliver_from_wire(&pkt, Time::from_us(50));
        assert_eq!(report.woke, Some(bob));
        assert_eq!(
            h.procs.get(bob).unwrap().state,
            oskernel::ProcState::Running
        );
        // And the data is there.
        let r = h.app_recv(conn, Time::from_us(60), true);
        assert_eq!(r.len, Some(pkt.len()));
    }

    #[test]
    fn polling_burns_cpu_blocking_does_not() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "poller");
        let conn = open_conn(&mut h, bob, 7000, false);
        for _ in 0..1000 {
            h.app_recv(conn, Time::ZERO, false);
        }
        let m = h.sched.meter(bob);
        assert!(m.polling > Dur::ZERO);
        assert!(m.efficiency() < 0.01);
    }

    #[test]
    fn send_path_reaches_wire() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "client");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = PacketBuilder::new()
            .ether(h.cfg.mac, Mac::local(9))
            .ipv4(h.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
            .udp(7000, 9000, &[0u8; 200])
            .build();
        let s = h.app_send(conn, &pkt, Time::ZERO);
        assert!(s.queued);
        assert!(s.cpu > Dur::ZERO);
        let departures = h.pump_tx(Time::ZERO);
        assert_eq!(departures.len(), 1);
        assert_eq!(departures[0].conn, conn);
    }

    #[test]
    fn shaping_policy_configures_scheduler() {
        let mut h = host();
        h.update_policy(Time::ZERO, |p| {
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0), (Uid(1002), 1.0)]))
        })
        .unwrap();
        // Scheduler now has 3 classes (default + 2 users).
        assert_eq!(h.nic.scheduler_class_bytes().len(), 3);
        assert_eq!(h.policy_generation(), 1);
    }

    #[test]
    fn shared_rings_mode_uses_one_pair_per_process() {
        let cfg = HostConfig {
            shared_rings: true,
            ring_slots: 64,
            ..HostConfig::default()
        };
        let mut h = Host::new(cfg);
        let bob = h.spawn(Uid(1001), "bob", "server");
        let c1 = open_conn(&mut h, bob, 7000, false);
        let c2 = open_conn(&mut h, bob, 7001, false);
        // Traffic to both connections lands in the same ring: receiving
        // on c2 returns c1's packet first (shared FIFO).
        let p1 = wire_udp(h.cfg.ip, 9000, 7000, 111);
        let p2 = wire_udp(h.cfg.ip, 9000, 7001, 222);
        h.deliver_from_wire(&p1, Time::ZERO);
        h.deliver_from_wire(&p2, Time::ZERO);
        let r = h.app_recv(c2, Time::ZERO, false);
        assert_eq!(r.len, Some(p1.len()));
        // The pair is the process's: it outlives one connection and goes
        // with the last.
        assert!(h.close(c1));
        assert_eq!(h.app_recv(c2, Time::ZERO, false).len, Some(p2.len()));
        let pooled = h.adopt_frame(p2.bytes());
        let report = h.deliver_frame(pooled, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(c2));
        assert_eq!(h.arena().live(), 1);
        assert_eq!(h.app_recv(c2, Time::ZERO, false).len, Some(p2.len()));
        assert!(h.close(c2));
        assert!(h.proc_rings.is_empty());
        assert!(h.audit().is_empty(), "{:?}", h.audit());
        assert_eq!(h.arena().live(), 0);
    }

    /// `close` with frames unread: the rings go, the frames are counted,
    /// and the traced occupancy ledger balances. `before_trace` of the
    /// three frames are delivered before `start_trace`.
    fn close_with_unread_frames(shared_rings: bool, before_trace: usize) {
        let mut h = Host::new(HostConfig {
            shared_rings,
            ring_slots: 4,
            ..HostConfig::default()
        });
        let bob = h.spawn(Uid(1001), "bob", "server");
        let kept = open_conn(&mut h, bob, 7000, false);
        let closed = open_conn(&mut h, bob, 7001, false);
        let frame = wire_udp(h.cfg.ip, 9000, 7001, 200);
        for i in 0..3 {
            if i == before_trace {
                h.start_trace();
            }
            let pooled = h.adopt_frame(frame.bytes());
            let report = h.deliver_frame(pooled, Time::ZERO);
            assert_eq!(report.outcome, DeliveryOutcome::FastPath(closed));
        }
        assert_eq!(h.arena().live(), 3);
        assert!(h.close(closed));
        if h.cfg.shared_rings {
            // The pair is still `kept`'s: nothing is discarded yet.
            assert_eq!(h.stats().discarded_at_close, 0);
            assert!(h.audit().is_empty(), "{:?}", h.audit());
            assert!(h.close(kept));
        }
        assert_eq!(h.stats().discarded_at_close, 3);
        assert!(h.audit().is_empty(), "{:?}", h.audit());
        assert_eq!(h.arena().live(), 0);
        let snap = h.metrics_snapshot();
        assert_eq!(snap.counter("host.discarded_at_close"), Some(3));
    }

    #[test]
    fn close_accounts_the_frames_it_discards() {
        close_with_unread_frames(false, 0);
    }

    #[test]
    fn close_accounts_frames_resident_before_tracing_started() {
        close_with_unread_frames(false, 2);
    }

    #[test]
    fn close_of_a_shared_pair_accounts_with_the_last_connection() {
        close_with_unread_frames(true, 0);
    }

    #[test]
    fn connection_exhaustion_reports_refusal() {
        let mut cfg = HostConfig::default();
        cfg.nic.sram_bytes = 4096; // tiny NIC
        let mut h = Host::new(cfg);
        let bob = h.spawn(Uid(1001), "bob", "server");
        let mut opened = 0;
        let mut refused = 0;
        for port in 0..32 {
            match h.connect(
                bob,
                IpProto::UDP,
                7000 + port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            ) {
                Ok(_) => opened += 1,
                Err(ConnectError::NicResources(_)) => refused += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(opened > 0);
        assert!(refused > 0);
        assert_eq!(h.stats().conns_refused, refused);
    }

    #[test]
    fn corrupted_frame_is_counted_not_delivered() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 500);
        // Flip a payload bit: the UDP checksum no longer verifies.
        let mut bytes = pkt.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let bad = Packet::from_bytes(bytes);
        let report = h.deliver_from_wire(&bad, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::Dropped);
        assert_eq!(h.stats().malformed_dropped, 1);
        assert_eq!(h.stats().nic_dropped, 0);
        assert_eq!(h.stats().fast_delivered, 0);
        // The intact frame still flows.
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(conn));
    }

    #[test]
    fn send_during_outage_defers_and_flushes_on_recovery() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "client");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = PacketBuilder::new()
            .ether(h.cfg.mac, Mac::local(9))
            .ipv4(h.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
            .udp(7000, 9000, &[0u8; 200])
            .build();
        let back_at = h.nic.reprogram_bitstream(Time::ZERO);
        let s = h.app_send(conn, &pkt, Time::from_us(1));
        assert!(!s.queued);
        assert!(s.deferred, "outage send must be buffered, not lost");
        assert_eq!(h.tx_retry_len(), 1);
        // Pumping while still frozen keeps the frame buffered.
        assert!(h.pump_tx(Time::from_us(2)).is_empty());
        assert_eq!(h.tx_retry_len(), 1);
        // After recovery the deferred frame reaches the wire.
        let deps = h.pump_tx(back_at + Dur::from_us(1));
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].conn, conn);
        assert_eq!(h.tx_retry_len(), 0);
        assert_eq!(h.stats().tx_deferred, 1);
        assert_eq!(h.stats().tx_retry_flushed, 1);
    }

    #[test]
    fn retry_buffer_cap_applies_backpressure() {
        let mut h = Host::new(HostConfig {
            ring_slots: 64,
            ..HostConfig::default()
        });
        let bob = h.spawn(Uid(1001), "bob", "client");
        let conn = open_conn(&mut h, bob, 7000, false);
        let pkt = PacketBuilder::new()
            .ether(h.cfg.mac, Mac::local(9))
            .ipv4(h.cfg.ip, Ipv4Addr::new(10, 0, 0, 2))
            .udp(7000, 9000, &[0u8; 64])
            .build();
        h.nic.reprogram_bitstream(Time::ZERO);
        let over = 3;
        for i in 0..TX_RETRY_CAP + over {
            let s = h.app_send(conn, &pkt, Time::from_us(1 + i as u64));
            assert_eq!(s.deferred, i < TX_RETRY_CAP, "send {i}");
            assert!(!s.queued);
        }
        assert_eq!(h.tx_retry_len(), TX_RETRY_CAP);
        assert_eq!(h.stats().tx_retry_dropped, over as u64);
    }

    #[test]
    fn nic_crash_is_auto_recovered_by_the_kernel() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        h.update_policy(Time::ZERO, |p| {
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 4.0)]))
        })
        .unwrap();
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 200);
        assert_eq!(
            h.deliver_from_wire(&pkt, Time::ZERO).outcome,
            DeliveryOutcome::FastPath(conn)
        );
        h.nic.crash(Time::from_us(10));
        assert!(h.nic.is_dead());
        // First entry after the crash: the kernel resets the device.
        // The dataplane is still frozen, so the frame is lost.
        let r = h.deliver_from_wire(&pkt, Time::from_us(11));
        assert!(!h.nic.is_dead(), "kernel must have driven a reset");
        assert_ne!(r.outcome, DeliveryOutcome::FastPath(conn));
        // After the thaw the kernel reconciles: flow table and policy
        // are rebuilt, and traffic resumes on the same connection id.
        let later = Time::from_ms(200);
        let r = h.deliver_from_wire(&pkt, later);
        assert_eq!(r.outcome, DeliveryOutcome::FastPath(conn));
        assert_eq!(
            h.policy_generation(),
            1,
            "reconcile must not bump the generation"
        );
        assert!(
            h.audit().is_empty(),
            "restored NIC state must match the kernel store"
        );
        assert_eq!(h.telemetry().recovery_count(RecoveryKind::NicReset), 1);
        assert_eq!(h.telemetry().recovery_count(RecoveryKind::ReconcileDone), 1);
    }

    #[test]
    fn worker_panic_is_survived_with_frames_intact() {
        let mut h = Host::new(HostConfig {
            ring_slots: 8,
            ..HostConfig::default()
        });
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conns: Vec<ConnId> = (0..4)
            .map(|i| open_conn(&mut h, bob, 7000 + i, false))
            .collect();
        h.start_trace();
        let burst: Vec<Packet> = (0..4)
            .map(|i| wire_udp(h.cfg.ip, 9000, 7000 + i, 100))
            .collect();
        let fast = |reports: &[DeliveryReport]| {
            for (r, &conn) in reports.iter().zip(&conns) {
                assert_eq!(r.outcome, DeliveryOutcome::FastPath(conn));
            }
        };
        // One frame resident in every ring before the crashes.
        fast(&h.pump(&burst, Time::ZERO).0);

        // Shard 0 crashes twice between operations; the backoff charged
        // to its core doubles.
        let busy = |h: &Host| h.sched.core_meter(0).busy;
        let crashes = [
            (Time::from_us(5), Dur::from_us(50)),
            (Time::from_us(7), Dur::from_us(100)),
        ];
        for (n, &(at, backoff)) in crashes.iter().enumerate() {
            let before = busy(&h);
            let err = h
                .inject_worker_panic(0, "injected shard fault", at)
                .unwrap_err();
            assert!(matches!(err, WorkerError::ShardPanicked { shard: 0, .. }));
            assert_eq!(busy(&h) - before, backoff);
            assert_eq!(h.stats().worker_restarts, n as u64 + 1);
        }
        let events = h.telemetry().recovery_events();
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.at)).collect();
        assert_eq!(
            kinds,
            crashes
                .iter()
                .flat_map(|&(at, _)| [
                    (RecoveryKind::ShardPanic, at),
                    (RecoveryKind::ShardRestart, at)
                ])
                .collect::<Vec<_>>()
        );

        // The replacement shard serves new traffic.
        fast(&h.pump(&burst, Time::from_us(20)).0);
        // Nothing that was in a ring was lost: the frame from before the
        // crashes and the one after it, everywhere.
        for (&conn, frame) in conns.iter().zip(&burst) {
            for _ in 0..2 {
                let r = h.app_recv(conn, Time::from_us(30), false);
                assert_eq!(r.len, Some(frame.len()));
            }
            assert!(h.app_recv(conn, Time::from_us(30), false).len.is_none());
        }
        assert!(
            h.audit().is_empty(),
            "conservation must hold across the restarts: {:?}",
            h.audit()
        );
    }

    #[test]
    fn panic_injection_into_a_missing_shard_is_refused() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        assert_eq!(
            h.inject_worker_panic(1, "no such shard", Time::ZERO),
            Err(WorkerError::NoSuchShard {
                shard: 1,
                shards: 1
            })
        );
        assert_eq!(h.stats().worker_restarts, 0);
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 100);
        let (reports, _) = h.pump(std::slice::from_ref(&pkt), Time::ZERO);
        assert_eq!(reports[0].outcome, DeliveryOutcome::FastPath(conn));
    }

    #[test]
    #[should_panic(expected = "shared per-process rings cannot be sharded")]
    fn shared_rings_refuse_more_than_one_queue() {
        let mut cfg = HostConfig {
            shared_rings: true,
            ..HostConfig::default()
        };
        cfg.nic.num_queues = 2;
        Host::new(cfg);
    }

    #[test]
    #[should_panic(expected = "way-disjoint slices")]
    fn more_queues_than_llc_ways_are_refused() {
        let mut cfg = HostConfig::default();
        cfg.nic.num_queues = 17; // the default LLC has 16 ways
        Host::new(cfg);
    }

    #[test]
    fn overload_degrades_low_prio_flows_and_promotes_back() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let hi = open_conn(&mut h, bob, 7000, false);
        let lo = open_conn(&mut h, bob, 7001, false);
        h.update_policy(Time::ZERO, |p| {
            p.degradation = Some(crate::ctrl::DegradationPolicy {
                high_watermark: 0.5,
                low_watermark: 0.25,
                window: 4,
                low_prio_ports: vec![7001],
            })
        })
        .unwrap();
        let hp = wire_udp(h.cfg.ip, 9000, 7000, 100);
        let lp = wire_udp(h.cfg.ip, 9000, 7001, 100);
        // Overload: 2-slot ring fills, then two drops → window 4 at 50%
        // pressured → the detector engages.
        for _ in 0..4 {
            h.deliver_from_wire(&hp, Time::ZERO);
        }
        assert!(h.degraded());
        // Low-priority traffic now takes the software slow path...
        let r = h.deliver_from_wire(&lp, Time::from_us(1));
        assert_eq!(r.outcome, DeliveryOutcome::SlowPath);
        assert_eq!(h.stats().degraded_slowpath, 1);
        assert_eq!(h.stack.rx_degraded(), 1);
        // ...while high-priority traffic keeps its ring (drain first).
        h.app_recv(hi, Time::from_us(2), false);
        h.app_recv(hi, Time::from_us(2), false);
        let r = h.deliver_from_wire(&hp, Time::from_us(3));
        assert_eq!(r.outcome, DeliveryOutcome::FastPath(hi));
        // A calm window (1 demoted + 2 fast + 1 fast = 0% pressured)
        // promotes back to normal operation.
        h.app_recv(hi, Time::from_us(4), false);
        h.deliver_from_wire(&hp, Time::from_us(5));
        h.app_recv(hi, Time::from_us(6), false);
        h.deliver_from_wire(&hp, Time::from_us(7));
        assert!(!h.degraded());
        let r = h.deliver_from_wire(&lp, Time::from_us(8));
        assert_eq!(r.outcome, DeliveryOutcome::FastPath(lo));
        let tel = h.telemetry();
        assert_eq!(tel.recovery_count(RecoveryKind::DegradeEngaged), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::DegradePromoted), 1);
    }

    #[test]
    fn close_releases_resources() {
        let mut h = host();
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        let used_before = h.nic.sram.used();
        assert!(h.close(conn));
        assert!(h.nic.sram.used() < used_before);
        assert!(!h.close(conn));
        // Traffic now takes the slow path.
        let pkt = wire_udp(h.cfg.ip, 9000, 7000, 64);
        let report = h.deliver_from_wire(&pkt, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
    }

    /// Lifecycle property: across seeded chaos — a lossy, corrupting,
    /// reordering wire, a seeded NIC crash injector, and tiny rings
    /// that overflow constantly — every arena slot reference is
    /// eventually returned. Occupancy must come back to zero once the
    /// rings drain, for every seed.
    #[test]
    fn arena_conserved_under_seeded_chaos() {
        for seed in [1u64, 0xBEEF, 0x9_E9_E9] {
            let mut h = Host::new(HostConfig {
                ring_slots: 4,
                arena_slots: 64,
                ..HostConfig::default()
            });
            let bob = h.spawn(Uid(1001), "bob", "server");
            let conn = open_conn(&mut h, bob, 7000, false);
            h.set_nic_crash_injector(sim::fault::OpFaultInjector::seeded_rate(seed ^ 0x55, 0.002));
            let schedule = sim::FaultSchedule {
                corrupt_rate: 0.01,
                reorder_rate: 0.02,
                reorder_window: 4,
                ..sim::FaultSchedule::steady_loss(0.05)
            };
            let mut wire = sim::FaultyLink::new(sim::Link::hundred_gbe(), seed, schedule);
            let template = wire_udp(h.cfg.ip, 9000, 7000, 1000);
            for i in 0..2_000u64 {
                let t = Time::ZERO + Dur(5_000) * i;
                for d in wire.transmit(t, template.bytes().to_vec()) {
                    let pkt = h.adopt_frame(&d.frame);
                    let _ = h.deliver_frame(pkt, d.at);
                }
                // Drain rarely, so RingFull drops exercise the
                // refused-descriptor release path.
                if i % 32 == 0 {
                    while h.app_recv(conn, t, false).len.is_some() {}
                }
            }
            let end = Time::ZERO + Dur(5_000) * 2_000;
            for d in wire.flush(end) {
                let pkt = h.adopt_frame(&d.frame);
                let _ = h.deliver_frame(pkt, d.at);
            }
            while h.app_recv(conn, end, false).len.is_some() {}
            assert!(h.audit().is_empty(), "seed {seed}: {:?}", h.audit());
            assert_eq!(h.arena().live(), 0, "seed {seed} leaked arena slots");
        }
    }

    /// The occupancy ledger counts this host's slots only: a frame built
    /// in some other arena (normanbench's replay does that) rests in a
    /// ring without standing in for a leaked slot of the host's own.
    #[test]
    fn audit_arena_ledger_ignores_frames_of_another_arena() {
        let mut h = Host::new(HostConfig::default());
        let bob = h.spawn(Uid(1001), "bob", "server");
        let conn = open_conn(&mut h, bob, 7000, false);
        let other = BufArena::new(4, 2048);
        let wire = wire_udp(h.cfg.ip, 9000, 7000, 64);
        let foreign = Packet::from_arena(other.adopt(wire.bytes()).expect("slot"));
        let report = h.deliver_frame(foreign, Time::ZERO);
        assert_eq!(report.outcome, DeliveryOutcome::FastPath(conn));
        assert_eq!((other.live(), h.arena().live()), (1, 0));
        assert!(h.audit().is_empty(), "{:?}", h.audit());

        std::mem::forget(h.arena().adopt(b"leaked").expect("slot"));
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.check == Check::ArenaLeak),
            "one live slot, no resident handle of this arena: {violations:?}"
        );
    }

    /// Representation property: an identical seeded delivery sequence
    /// observed through heap-backed frames and through arena-adopted
    /// frames produces identical outcomes, costs, and model state — the
    /// arena changes where bytes live, never what the model sees.
    #[test]
    fn replay_heap_vs_arena_identical() {
        let run = |adopt: bool| {
            let mut h = Host::new(HostConfig {
                ring_slots: 4,
                ..HostConfig::default()
            });
            let bob = h.spawn(Uid(1001), "bob", "server");
            let conn = open_conn(&mut h, bob, 7000, false);
            let mut wire = sim::FaultyLink::new(
                sim::Link::hundred_gbe(),
                7,
                sim::FaultSchedule {
                    corrupt_rate: 0.01,
                    ..sim::FaultSchedule::steady_loss(0.02)
                },
            );
            let template = wire_udp(h.cfg.ip, 9000, 7000, 700);
            let mut log: Vec<(u8, u64, u64)> = Vec::new();
            let mut recv_cpu = Dur::ZERO;
            for i in 0..500u64 {
                let t = Time::ZERO + Dur(5_000) * i;
                for d in wire.transmit(t, template.bytes().to_vec()) {
                    let pkt = if adopt {
                        h.adopt_frame(&d.frame)
                    } else {
                        Packet::from_bytes(d.frame)
                    };
                    let rep = h.deliver_frame(pkt, d.at);
                    let tag = match rep.outcome {
                        DeliveryOutcome::FastPath(_) => 0,
                        DeliveryOutcome::RingFull(_) => 1,
                        DeliveryOutcome::SlowPath => 2,
                        DeliveryOutcome::Dropped => 3,
                    };
                    log.push((tag, rep.mem_cost.0, rep.nic_latency.0));
                }
                if i % 8 == 0 {
                    while {
                        let r = h.app_recv(conn, t, false);
                        recv_cpu += r.cpu;
                        r.len.is_some()
                    } {}
                }
            }
            let llc = h.llc().stats();
            (
                log,
                recv_cpu,
                h.stats(),
                (llc.cpu_hits, llc.cpu_misses, llc.dma_hits, llc.dma_misses),
            )
        };
        let heap = run(false);
        let arena = run(true);
        assert_eq!(heap.0, arena.0, "per-frame outcomes/costs diverged");
        assert_eq!(heap.1, arena.1, "receive-side cpu diverged");
        assert_eq!(heap.3, arena.3, "LLC state evolution diverged");
        assert_eq!(format!("{:?}", heap.2), format!("{:?}", arena.2));
    }
}
