//! Typed per-packet lifecycle events and BPF-ish trace filters.
//!
//! Every frame admitted into the dataplane gets a nonzero `frame_id`
//! (allocated by [`crate::Telemetry`], carried in `pkt::FrameMeta`), and
//! each stage it crosses emits one [`TraceEvent`]. The stage vocabulary is
//! closed ([`Stage`]) so the hub can keep an exact per-stage ledger, and
//! every drop is typed ([`DropCause`]) so "no silent drops" is checkable
//! as a property, not a convention.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

use pkt::FiveTuple;
use sim::Time;

/// A pipeline stage a frame can cross. The variants are ordered roughly
/// in lifecycle order: NIC RX, host ring/notification, kernel slow path,
/// NIC TX.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Frame arrived from the wire at the NIC MAC.
    RxIngress,
    /// NIC parser stage produced (or failed to produce) a descriptor.
    RxParse,
    /// NAT translation applied (verdict carries hit/miss).
    RxNat,
    /// Ingress filter program ran (verdict carries pass/drop).
    RxFilter,
    /// Flow-table lookup (verdict carries hit/miss).
    RxFlowLookup,
    /// A connection was promoted into the SRAM hot tier (emitted with
    /// the frame whose lookup triggered it, or frame 0 for policy
    /// re-tiers).
    FlowPromoted,
    /// A connection was demoted to the host-memory cold tier (eviction
    /// victim or policy re-tier).
    FlowDemoted,
    /// Terminal: frame handed to a per-connection ring (fast path).
    RxDeliver,
    /// Terminal: frame punted to the kernel slow path.
    RxSlowPath,
    /// Terminal: frame dropped in the NIC RX pipeline.
    RxDrop,
    /// Host attempted to enqueue the frame onto a shared-memory ring.
    RingEnqueue,
    /// Application consumed the frame from its ring.
    RingDequeue,
    /// NIC posted a notification (interrupt-style wakeup) for the frame.
    Notify,
    /// Terminal (slow path): kernel netstack delivered to a socket.
    NetstackDeliver,
    /// Terminal (slow path): kernel netstack dropped the frame.
    NetstackDrop,
    /// Kernel netstack queued a frame for transmission.
    NetstackTx,
    /// Kernel netstack dropped a frame on its TX path.
    NetstackTxDrop,
    /// Frame delivered into the application (end of the RX lifecycle).
    AppDeliver,
    /// Frame offered to the NIC TX pipeline.
    TxOffer,
    /// Egress filter program ran.
    TxFilter,
    /// Overlay classifier assigned a scheduler class.
    TxClass,
    /// Frame accepted by the NIC scheduler (qdisc) for transmission.
    TxQueue,
    /// Terminal: frame dropped in the TX pipeline.
    TxDrop,
    /// Terminal: frame left the NIC onto the wire.
    TxDepart,
}

impl Stage {
    /// Number of stages (ledger array size).
    pub(crate) const COUNT: usize = 24;

    /// All stages, in lifecycle order (ledger iteration order).
    pub(crate) const ALL: [Stage; Stage::COUNT] = [
        Stage::RxIngress,
        Stage::RxParse,
        Stage::RxNat,
        Stage::RxFilter,
        Stage::RxFlowLookup,
        Stage::FlowPromoted,
        Stage::FlowDemoted,
        Stage::RxDeliver,
        Stage::RxSlowPath,
        Stage::RxDrop,
        Stage::RingEnqueue,
        Stage::RingDequeue,
        Stage::Notify,
        Stage::NetstackDeliver,
        Stage::NetstackDrop,
        Stage::NetstackTx,
        Stage::NetstackTxDrop,
        Stage::AppDeliver,
        Stage::TxOffer,
        Stage::TxFilter,
        Stage::TxClass,
        Stage::TxQueue,
        Stage::TxDrop,
        Stage::TxDepart,
    ];

    /// Dense ledger index of this stage: its position in [`Stage::ALL`],
    /// which lists the variants in declaration order.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-snake name (metric keys, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::RxIngress => "rx_ingress",
            Stage::RxParse => "rx_parse",
            Stage::RxNat => "rx_nat",
            Stage::RxFilter => "rx_filter",
            Stage::RxFlowLookup => "rx_flow_lookup",
            Stage::FlowPromoted => "flow_promoted",
            Stage::FlowDemoted => "flow_demoted",
            Stage::RxDeliver => "rx_deliver",
            Stage::RxSlowPath => "rx_slowpath",
            Stage::RxDrop => "rx_drop",
            Stage::RingEnqueue => "ring_enqueue",
            Stage::RingDequeue => "ring_dequeue",
            Stage::Notify => "notify",
            Stage::NetstackDeliver => "netstack_deliver",
            Stage::NetstackDrop => "netstack_drop",
            Stage::NetstackTx => "netstack_tx",
            Stage::NetstackTxDrop => "netstack_tx_drop",
            Stage::AppDeliver => "app_deliver",
            Stage::TxOffer => "tx_offer",
            Stage::TxFilter => "tx_filter",
            Stage::TxClass => "tx_class",
            Stage::TxQueue => "tx_queue",
            Stage::TxDrop => "tx_drop",
            Stage::TxDepart => "tx_depart",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a frame was dropped — the unified vocabulary across every layer.
/// Each producing crate maps its local error type onto one of these, so
/// "every drop is typed" holds stack-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// An ingress/egress filter program rejected the frame.
    Filter,
    /// The NIC was frozen mid-bitstream-reprogram.
    Reprogramming,
    /// A policy/accounting VM faulted while processing the frame.
    PolicyFault,
    /// The frame failed to parse or failed checksum verification.
    Malformed,
    /// The destination shared-memory ring was full.
    RingFull,
    /// A qdisc (NIC scheduler or netstack egress) refused the frame.
    QdiscFull,
    /// No socket was bound to the frame's destination.
    NoSocket,
    /// A netfilter chain verdict dropped the frame.
    NetfilterDrop,
    /// NAT had no mapping (or no translation applies) for the frame.
    NatMiss,
    /// The connection state for the frame vanished (stale entry).
    StaleConn,
    /// The TX retry buffer overflowed during an outage.
    RetryOverflow,
    /// The device crashed: the frame hit (or was queued on) a dead NIC
    /// whose volatile state is gone until a kernel-driven reset.
    DeviceDead,
}

impl DropCause {
    /// Number of drop causes (ledger array size).
    pub(crate) const COUNT: usize = 12;

    /// All causes (ledger iteration order).
    pub const ALL: [DropCause; DropCause::COUNT] = [
        DropCause::Filter,
        DropCause::Reprogramming,
        DropCause::PolicyFault,
        DropCause::Malformed,
        DropCause::RingFull,
        DropCause::QdiscFull,
        DropCause::NoSocket,
        DropCause::NetfilterDrop,
        DropCause::NatMiss,
        DropCause::StaleConn,
        DropCause::RetryOverflow,
        DropCause::DeviceDead,
    ];

    /// Dense ledger index of this cause: its position in
    /// [`DropCause::ALL`], which lists the variants in declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-snake name (metric keys, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Filter => "filter",
            DropCause::Reprogramming => "reprogramming",
            DropCause::PolicyFault => "policy_fault",
            DropCause::Malformed => "malformed",
            DropCause::RingFull => "ring_full",
            DropCause::QdiscFull => "qdisc_full",
            DropCause::NoSocket => "no_socket",
            DropCause::NetfilterDrop => "netfilter_drop",
            DropCause::NatMiss => "nat_miss",
            DropCause::StaleConn => "stale_conn",
            DropCause::RetryOverflow => "retry_overflow",
            DropCause::DeviceDead => "device_dead",
        }
    }
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A failure-domain transition: the moments a crash, restart, or
/// degradation decision happened. Unlike per-frame [`TraceEvent`]s these
/// are control-plane-scale (rare) and are recorded unconditionally, so a
/// chaos run is self-describing even with frame tracing off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// The NIC crashed, wiping its volatile state.
    NicCrash,
    /// The kernel reset the NIC (dataplane frozen for the reset window).
    NicReset,
    /// The control plane reinstalled the committed bundle after a wipe.
    ReconcileDone,
    /// A dataplane shard panicked (its rings are untouched).
    ShardPanic,
    /// A panicked shard was restarted (with bounded backoff).
    ShardRestart,
    /// The overload detector engaged degraded mode (low-priority flows
    /// demoted to the software slow path).
    DegradeEngaged,
    /// The overload detector promoted demoted flows back to the fast path.
    DegradePromoted,
    /// A commit transaction aborted (watchdog deadline or device lost).
    CommitAborted,
}

impl RecoveryKind {
    /// Number of recovery kinds (ledger array size).
    pub(crate) const COUNT: usize = 8;

    /// All kinds (ledger iteration order).
    pub(crate) const ALL: [RecoveryKind; RecoveryKind::COUNT] = [
        RecoveryKind::NicCrash,
        RecoveryKind::NicReset,
        RecoveryKind::ReconcileDone,
        RecoveryKind::ShardPanic,
        RecoveryKind::ShardRestart,
        RecoveryKind::DegradeEngaged,
        RecoveryKind::DegradePromoted,
        RecoveryKind::CommitAborted,
    ];

    /// Dense ledger index of this kind: its position in
    /// [`RecoveryKind::ALL`], which lists the variants in declaration order.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-snake name (metric keys, JSON output).
    pub(crate) fn name(self) -> &'static str {
        match self {
            RecoveryKind::NicCrash => "nic_crash",
            RecoveryKind::NicReset => "nic_reset",
            RecoveryKind::ReconcileDone => "reconcile_done",
            RecoveryKind::ShardPanic => "shard_panic",
            RecoveryKind::ShardRestart => "shard_restart",
            RecoveryKind::DegradeEngaged => "degrade_engaged",
            RecoveryKind::DegradePromoted => "degrade_promoted",
            RecoveryKind::CommitAborted => "commit_aborted",
        }
    }
}

impl fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded failure/recovery transition at virtual time `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// When the transition happened.
    pub at: Time,
    /// What happened.
    pub kind: RecoveryKind,
    /// Free-form context (shard index, abort step, watermark fraction).
    pub(crate) detail: String,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<16} {}",
            self.at.to_string(),
            self.kind.name(),
            self.detail
        )
    }
}

/// What a stage decided about the frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The stage let the frame continue.
    Pass,
    /// A lookup stage matched (flow table, NAT mapping).
    Hit,
    /// A lookup stage did not match.
    Miss,
    /// A classifier assigned the frame to this scheduler class.
    Class(u32),
    /// The stage punted the frame to the slow path.
    SlowPath,
    /// The stage dropped the frame, with a typed cause.
    Drop(DropCause),
}

impl TraceVerdict {
    /// Returns the drop cause if this verdict is a drop.
    pub fn drop_cause(&self) -> Option<DropCause> {
        match self {
            TraceVerdict::Drop(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceVerdict::Pass => write!(f, "pass"),
            TraceVerdict::Hit => write!(f, "hit"),
            TraceVerdict::Miss => write!(f, "miss"),
            TraceVerdict::Class(c) => write!(f, "class={c}"),
            TraceVerdict::SlowPath => write!(f, "slowpath"),
            TraceVerdict::Drop(c) => write!(f, "drop:{c}"),
        }
    }
}

/// A process command name, interned for the life of the process so per-
/// event attribution is a plain copy: no refcount, no allocation.
/// Compares and derefs like `&str`.
///
/// Interned names are never freed. Their number is bounded by the distinct
/// names the process ever sees: one per spawned command, plus the names
/// read back from trace files (each at most 64 KiB, and all of them
/// together no larger than the files themselves).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comm(&'static str);

impl Comm {
    /// The kernel's own attribution (ARP replies, slow-path responses).
    pub const KERNEL: Comm = Comm("kernel");

    /// Interns a command name.
    pub fn new(comm: &str) -> Comm {
        static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut names = NAMES
            .lock()
            .expect("the interner lock is only held across a set lookup and insert");
        if let Some(&name) = names.get(comm) {
            return Comm(name);
        }
        let name: &'static str = Box::leak(comm.into());
        names.insert(name);
        Comm(name)
    }

    /// The command name as a string slice (interned, hence `'static`).
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl std::ops::Deref for Comm {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl From<&str> for Comm {
    fn from(s: &str) -> Comm {
        Comm::new(s)
    }
}

impl From<&String> for Comm {
    fn from(s: &String) -> Comm {
        Comm::new(s)
    }
}

impl From<String> for Comm {
    fn from(s: String) -> Comm {
        Comm::new(&s)
    }
}

impl From<&Comm> for Comm {
    fn from(c: &Comm) -> Comm {
        *c
    }
}

impl PartialEq<str> for Comm {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Comm {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Comm {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Comm> for str {
    fn eq(&self, other: &Comm) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Comm> for &str {
    fn eq(&self, other: &Comm) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Display for Comm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process attribution joined at the kernel boundary: the paper's
/// *process view*. The NIC's flow-table entry records uid/pid/comm when
/// the kernel installs it, so dataplane events can carry ownership
/// without consulting the kernel per packet. Plain data: copying an
/// `Owner` touches no refcount and no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owner {
    /// Owning user id (0 for kernel-originated traffic).
    pub uid: u32,
    /// Owning process id (0 for kernel-originated traffic).
    pub pid: u32,
    /// Process command name (e.g. `"memcached"`, `"kernel"`).
    pub comm: Comm,
}

impl Owner {
    /// Builds an owner record. Pass an existing [`Comm`] (or `&Comm`) to
    /// copy it; `&str` goes through the interner (a lock and a lookup), so
    /// hot paths resolve their `Comm` once and keep it.
    pub fn new(uid: u32, pid: u32, comm: impl Into<Comm>) -> Owner {
        Owner {
            uid,
            pid,
            comm: comm.into(),
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid={} pid={} comm={}", self.uid, self.pid, self.comm)
    }
}

/// One recorded lifecycle event: frame `frame_id` crossed `stage` at
/// virtual time `at` with `verdict`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The frame's dataplane-unique id (see `pkt::FrameMeta::frame_id`).
    pub frame_id: u64,
    /// Virtual time the stage completed.
    pub at: Time,
    /// The stage crossed.
    pub stage: Stage,
    /// What the stage decided.
    pub verdict: TraceVerdict,
    /// The frame's 5-tuple, when parsed (the *global view* key).
    pub tuple: Option<FiveTuple>,
    /// Frame length in bytes (0 when unknown, e.g. truncated frames).
    pub len: u32,
    /// Owning process, when attribution is known (the *process view*).
    pub owner: Option<Owner>,
    /// Policy generation installed when the event was recorded. Stamped
    /// by the hub at emit time (producers leave it 0), so every event is
    /// attributable to the exact control-plane epoch that shaped it.
    pub generation: u64,
}

/// The part of a [`TraceEvent`] that every stage event of one frame
/// shares. A multi-stage emission ([`crate::Telemetry::emit_stages`])
/// builds it once and the hub stores it once, however many stages the
/// frame crossed in that call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// The frame's dataplane-unique id.
    pub frame_id: u64,
    /// The frame's 5-tuple, when parsed.
    pub tuple: Option<FiveTuple>,
    /// Frame length in bytes (0 when unknown).
    pub len: u32,
    /// Owning process, when attribution is known.
    pub owner: Option<Owner>,
}

impl FrameInfo {
    /// The full event for this frame crossing `rec`'s stage under policy
    /// generation `generation`.
    pub(crate) fn event(&self, rec: &StageRec, generation: u64) -> TraceEvent {
        TraceEvent {
            frame_id: self.frame_id,
            at: rec.at,
            stage: rec.stage,
            verdict: rec.verdict,
            tuple: self.tuple,
            len: self.len,
            owner: if rec.unowned { None } else { self.owner },
            generation,
        }
    }
}

/// The part of a [`TraceEvent`] that is particular to one stage: which
/// stage, what it decided, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRec {
    /// The stage crossed.
    pub(crate) stage: Stage,
    /// What the stage decided.
    pub(crate) verdict: TraceVerdict,
    /// Virtual time the stage completed.
    pub(crate) at: Time,
    /// The stage does not know whose frame it handled (a ring slot names
    /// the frame, not the process): its event carries no owner, whatever
    /// the [`FrameInfo`] it shares with the frame's other stages says.
    pub(crate) unowned: bool,
}

impl StageRec {
    /// One stage crossing.
    pub fn new(stage: Stage, verdict: TraceVerdict, at: Time) -> StageRec {
        StageRec {
            stage,
            verdict,
            at,
            unowned: false,
        }
    }

    /// The same crossing, recorded without the frame's owner.
    pub fn unowned(self) -> StageRec {
        StageRec {
            unowned: true,
            ..self
        }
    }
}

impl TraceEvent {
    /// The per-frame half of this event.
    pub(crate) fn frame(&self) -> FrameInfo {
        FrameInfo {
            frame_id: self.frame_id,
            tuple: self.tuple,
            len: self.len,
            owner: self.owner,
        }
    }

    /// The per-stage half of this event.
    pub(crate) fn stage_rec(&self) -> StageRec {
        StageRec::new(self.stage, self.verdict, self.at)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] #{:<6} {:<16} {:<18}",
            self.at.to_string(),
            self.frame_id,
            self.stage.name(),
            self.verdict.to_string(),
        )?;
        if let Some(t) = &self.tuple {
            write!(
                f,
                " {}:{}>{}:{}",
                t.src_ip, t.src_port, t.dst_ip, t.dst_port
            )?;
        }
        if let Some(o) = &self.owner {
            write!(f, " [{o}]")?;
        }
        Ok(())
    }
}

/// A BPF-ish conjunctive trace filter: every populated field must match.
/// Built with the `with_*` combinators; an empty filter matches all
/// events.
#[derive(Clone, Debug, Default)]
pub struct TraceFilter {
    /// Match a single frame's lifecycle.
    pub(crate) frame_id: Option<u64>,
    /// Match events attributed to this uid.
    pub(crate) uid: Option<u32>,
    /// Match events attributed to this pid.
    pub(crate) pid: Option<u32>,
    /// Match events attributed to this command name.
    pub(crate) comm: Option<String>,
    /// Match events at this stage.
    pub(crate) stage: Option<Stage>,
    /// Match the exact 5-tuple.
    pub(crate) tuple: Option<FiveTuple>,
    /// Match either endpoint port (src or dst) — tcpdump's `port N`.
    pub(crate) port: Option<u16>,
    /// Match events stamped with this policy generation.
    pub(crate) generation: Option<u64>,
    /// Match only drop verdicts (any cause).
    pub(crate) drops_only: bool,
}

impl TraceFilter {
    /// A filter matching every event.
    pub fn any() -> TraceFilter {
        TraceFilter::default()
    }

    /// Restricts to one frame's lifecycle.
    pub(crate) fn with_frame(mut self, id: u64) -> TraceFilter {
        self.frame_id = Some(id);
        self
    }

    /// Restricts to events owned by `uid`.
    pub fn with_uid(mut self, uid: u32) -> TraceFilter {
        self.uid = Some(uid);
        self
    }

    /// Restricts to events owned by `pid`.
    #[cfg(test)]
    pub(crate) fn with_pid(mut self, pid: u32) -> TraceFilter {
        self.pid = Some(pid);
        self
    }

    /// Restricts to events owned by command `comm`.
    pub fn with_comm(mut self, comm: &str) -> TraceFilter {
        self.comm = Some(comm.to_string());
        self
    }

    /// Restricts to events at `stage`.
    pub fn with_stage(mut self, stage: Stage) -> TraceFilter {
        self.stage = Some(stage);
        self
    }

    /// Restricts to events carrying exactly `tuple`.
    pub fn with_tuple(mut self, tuple: FiveTuple) -> TraceFilter {
        self.tuple = Some(tuple);
        self
    }

    /// Restricts to events whose 5-tuple touches `port` on either end.
    pub fn with_port(mut self, port: u16) -> TraceFilter {
        self.port = Some(port);
        self
    }

    /// Restricts to events stamped with policy generation `generation`.
    pub fn with_generation(mut self, generation: u64) -> TraceFilter {
        self.generation = Some(generation);
        self
    }

    /// Restricts to drop verdicts.
    pub fn drops(mut self) -> TraceFilter {
        self.drops_only = true;
        self
    }

    /// The part of [`TraceFilter::matches`] that needs only the stage and
    /// verdict, so an emit site can ask it before the event is built.
    pub(crate) fn admits_stage(&self, stage: Stage, verdict: TraceVerdict) -> bool {
        self.stage.is_none_or(|want| want == stage)
            && (!self.drops_only || verdict.drop_cause().is_some())
    }

    /// Returns `true` when `event` satisfies every populated field.
    pub(crate) fn matches(&self, event: &TraceEvent) -> bool {
        if !self.admits_stage(event.stage, event.verdict) {
            return false;
        }
        if let Some(id) = self.frame_id {
            if event.frame_id != id {
                return false;
            }
        }
        if let Some(generation) = self.generation {
            if event.generation != generation {
                return false;
            }
        }
        if self.uid.is_some() || self.pid.is_some() || self.comm.is_some() {
            let Some(o) = &event.owner else { return false };
            if self.uid.is_some_and(|u| o.uid != u) {
                return false;
            }
            if self.pid.is_some_and(|p| o.pid != p) {
                return false;
            }
            if self.comm.as_deref().is_some_and(|c| o.comm != c) {
                return false;
            }
        }
        if self.tuple.is_some() || self.port.is_some() {
            let Some(t) = &event.tuple else { return false };
            if self.tuple.as_ref().is_some_and(|want| t != want) {
                return false;
            }
            if self
                .port
                .is_some_and(|p| t.src_port != p && t.dst_port != p)
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::IpProto;
    use std::net::Ipv4Addr;

    fn tuple(sp: u16, dp: u16) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: sp,
            dst_port: dp,
            proto: IpProto::UDP,
        }
    }

    fn event(stage: Stage, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            frame_id: 7,
            at: Time::from_ns(100),
            stage,
            verdict,
            tuple: Some(tuple(5432, 9000)),
            len: 64,
            owner: Some(Owner::new(1000, 42, "memcached")),
            generation: 3,
        }
    }

    #[test]
    fn stage_index_is_dense_and_stable() {
        // `index()` is the discriminant cast, the ledgers (and the trace
        // file) are laid out in `ALL` order: a variant added out of place,
        // or with an explicit discriminant, must fail here.
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(s.index(), i);
        }
        for (i, c) in DropCause::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert_eq!(c.index(), i);
        }
        for (i, k) in RecoveryKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn comm_is_interned_plain_data() {
        fn assert_send_copy<T: Send + Copy>() {}
        assert_send_copy::<Comm>();
        assert_send_copy::<Owner>();
        assert_send_copy::<FrameInfo>();
        let a = Comm::new("memcached");
        let b = Comm::from(String::from("memcached"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one copy per name");
        assert_eq!(Comm::KERNEL, Comm::new("kernel"));
        assert_eq!(Comm::default(), "");
        assert!(a != Comm::new("nginx"));
    }

    #[test]
    fn unowned_stage_drops_only_the_owner() {
        let e = event(Stage::AppDeliver, TraceVerdict::Pass);
        let frame = e.frame();
        assert_eq!(frame.event(&e.stage_rec(), e.generation), e);
        let rec = StageRec::new(Stage::RingDequeue, TraceVerdict::Pass, e.at).unowned();
        let anon = frame.event(&rec, e.generation);
        assert_eq!(anon.owner, None);
        assert_eq!(
            (anon.frame_id, anon.tuple, anon.len),
            (e.frame_id, e.tuple, e.len)
        );
    }

    #[test]
    fn empty_filter_matches_everything() {
        let e = event(Stage::RxIngress, TraceVerdict::Pass);
        assert!(TraceFilter::any().matches(&e));
    }

    #[test]
    fn owner_filter_requires_attribution() {
        let mut e = event(Stage::RxDeliver, TraceVerdict::Pass);
        assert!(TraceFilter::any().with_uid(1000).matches(&e));
        assert!(!TraceFilter::any().with_uid(1001).matches(&e));
        assert!(TraceFilter::any().with_pid(42).matches(&e));
        assert!(TraceFilter::any().with_comm("memcached").matches(&e));
        assert!(!TraceFilter::any().with_comm("nginx").matches(&e));
        e.owner = None;
        assert!(!TraceFilter::any().with_uid(1000).matches(&e));
    }

    #[test]
    fn tuple_and_port_filters() {
        let e = event(Stage::RxFlowLookup, TraceVerdict::Hit);
        assert!(TraceFilter::any().with_tuple(tuple(5432, 9000)).matches(&e));
        assert!(!TraceFilter::any().with_tuple(tuple(1, 2)).matches(&e));
        assert!(TraceFilter::any().with_port(9000).matches(&e));
        assert!(TraceFilter::any().with_port(5432).matches(&e));
        assert!(!TraceFilter::any().with_port(80).matches(&e));
    }

    #[test]
    fn stage_and_drop_filters() {
        let pass = event(Stage::RxFilter, TraceVerdict::Pass);
        let drop = event(Stage::RxDrop, TraceVerdict::Drop(DropCause::Filter));
        assert!(TraceFilter::any()
            .with_stage(Stage::RxFilter)
            .matches(&pass));
        assert!(!TraceFilter::any().with_stage(Stage::RxDrop).matches(&pass));
        assert!(TraceFilter::any().drops().matches(&drop));
        assert!(!TraceFilter::any().drops().matches(&pass));
    }

    #[test]
    fn generation_filter_matches_stamp() {
        let e = event(Stage::RxDeliver, TraceVerdict::Pass);
        assert!(TraceFilter::any().with_generation(3).matches(&e));
        assert!(!TraceFilter::any().with_generation(2).matches(&e));
    }

    #[test]
    fn conjunction_of_fields() {
        let e = event(Stage::RxDeliver, TraceVerdict::Pass);
        let f = TraceFilter::any()
            .with_uid(1000)
            .with_port(9000)
            .with_stage(Stage::RxDeliver);
        assert!(f.matches(&e));
        let f2 = f.with_frame(8); // wrong frame id
        assert!(!f2.matches(&e));
    }

    #[test]
    fn display_renders_stage_verdict_owner() {
        let e = event(Stage::RxDrop, TraceVerdict::Drop(DropCause::Malformed));
        let s = e.to_string();
        assert!(s.contains("rx_drop"));
        assert!(s.contains("drop:malformed"));
        assert!(s.contains("memcached"));
    }
}
