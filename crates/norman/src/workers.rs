//! Per-queue dataplane workers: the multi-queue sharding layer.
//!
//! [`Host::run_workers`](crate::Host::run_workers) pins one worker thread
//! per NIC RSS queue. Each worker owns a *shard*: the ring pairs of every
//! connection whose flow hash steers to its queue, a private LLC slice,
//! local delivery counters, and a buffer of trace events stamped with the
//! policy generation in force when the frame was handled. Nothing a
//! worker owns is shared — the host talks to workers over channels, so
//! the dataplane hot path never takes a lock.
//!
//! Shard-local state is reconciled at a **quiesce barrier**
//! ([`Host::quiesce`](crate::Host::quiesce)): every worker drains its
//! counters, busy time, and buffered events back to the host, which
//! merges them into the global [`HostStats`](crate::host::HostStats),
//! the per-core CPU meters, and the telemetry hub (via
//! [`telemetry::Telemetry::absorb`], which preserves each event's
//! generation stamp). Policy commits, bitstream-reprogram reconciles,
//! and audits all quiesce first, so a generation swap is atomic across
//! shards: no shard can keep emitting under the old generation after the
//! commit returns.
//!
//! Determinism: workers run on real threads, but every exchange is a
//! bounded request/reply over per-worker channels and the host collects
//! replies in worker order, then reassembles per-frame results in
//! arrival order. A multi-worker run is therefore a pure function of its
//! inputs — replaying the same frame schedule twice produces identical
//! reports, and `run_workers(1)` is byte-identical to the single-queue
//! [`Host::pump`](crate::Host::pump) path.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use memsim::{Llc, LlcConfig, LlcPartitionPlan, LlcStats, MemCosts};
use pkt::{FiveTuple, Packet};
use sim::{Dur, Time};
use telemetry::{DropCause, Owner, Stage, TraceEvent, TraceVerdict};

use crate::host::{PktRing, RingKey, RxDesc, RxRing};

/// Why [`Host::run_workers`](crate::Host::run_workers) refused, or what
/// the shard supervisor reports after a worker crash.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkerError {
    /// Worker mode is already active; stop it first.
    AlreadyRunning,
    /// Worker mode is not active.
    NotRunning,
    /// The worker count must match the NIC's RSS queue count so each
    /// queue has exactly one owner.
    QueueMismatch {
        /// Requested worker count.
        workers: usize,
        /// The NIC's configured RSS queue count.
        queues: usize,
    },
    /// Shared (per-process) rings cannot be sharded by flow: two
    /// connections of one process may steer to different queues.
    SharedRings,
    /// A worker thread panicked. The supervisor caught it: the shard's
    /// rings, counters, and events were salvaged, the thread exited
    /// cleanly (joinable), and a replacement shard was started — the
    /// remaining shards never stop serving.
    ShardPanicked {
        /// Which shard crashed.
        shard: usize,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::AlreadyRunning => write!(f, "workers already running"),
            WorkerError::NotRunning => write!(f, "workers not running"),
            WorkerError::QueueMismatch { workers, queues } => {
                write!(f, "{workers} workers cannot own {queues} RSS queues 1:1")
            }
            WorkerError::SharedRings => {
                write!(f, "shared per-process rings cannot be sharded by flow")
            }
            WorkerError::ShardPanicked { shard, payload } => {
                write!(f, "worker shard {shard} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// Delivery counters a shard maintains locally between quiesces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames DMA'd into this shard's RX rings.
    pub fast_delivered: u64,
    /// Frames dropped because the target ring was full.
    pub ring_drops: u64,
    /// Frames whose connection had no ring in this shard.
    pub ring_missing: u64,
}

/// What one worker hands back at a quiesce barrier. Counters and events
/// are *deltas* since the previous quiesce; the worker resets them after
/// reporting.
#[derive(Debug)]
pub struct ShardReport {
    /// Delivery counters accumulated since the last quiesce.
    pub stats: ShardStats,
    /// Trace events buffered since the last quiesce, each stamped with
    /// the policy generation in force when it was recorded.
    pub events: Vec<TraceEvent>,
    /// Worker CPU consumed on deliveries since the last quiesce.
    pub busy: Dur,
    /// LLC traffic through this shard's private partition since the last
    /// quiesce (hits, misses, DDIO evictions).
    pub llc: LlcStats,
    /// Frames currently resident in this shard's RX rings (an absolute
    /// occupancy, not a delta — the audit's third ledger).
    pub rx_resident: u64,
    /// Arena-backed frame descriptors currently resident in this shard's
    /// rings, both directions (absolute occupancy — the host's arena
    /// leak audit sums these against the arena's live-slot count).
    pub arena_resident: u64,
}

/// One frame the host asks a worker to DMA into its shard.
#[derive(Clone, Debug)]
pub(crate) struct DeliverJob {
    /// Position in the pump batch, for reassembly in arrival order.
    pub idx: usize,
    /// The ring pair the frame targets.
    pub key: RingKey,
    /// The frame itself, riding the ring as its descriptor. Cloning a
    /// [`Packet`] is a refcount bump (never a byte copy), so handing the
    /// job across the channel — and keeping the host-side crash-recovery
    /// copy — shares the one buffer.
    pub pkt: Packet,
    /// Frame length on the wire.
    pub len: usize,
    /// Telemetry frame id; rides the ring descriptor to the receiver.
    pub fid: u64,
    /// RX five-tuple, for trace events.
    pub tuple: Option<FiveTuple>,
    /// Owning process of the destination ring, for attribution in trace
    /// events.
    pub owner: Owner,
    /// When the NIC finished with the frame.
    pub ready_at: Time,
    /// Whether the flow was resolved from the cold tier: its ring DMA
    /// bypasses DDIO allocation so demoted flows cannot thrash the
    /// shard's LLC partition.
    pub cold: bool,
    /// Whether tracing is enabled for this batch.
    pub trace: bool,
    /// Policy generation in force when the batch was dispatched.
    pub generation: u64,
}

/// Worker-side outcome of one [`DeliverJob`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliverReply {
    pub idx: usize,
    pub outcome: ShardOutcome,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum ShardOutcome {
    /// DMA'd into the RX ring at this memory cost.
    Fast(Dur),
    /// The ring was full; the frame was dropped.
    RingFull,
    /// The shard has no ring for this key (torn-down state mid-race).
    RingMissing,
    /// The shard crashed before answering this job. The frame is still
    /// in host memory — the supervisor reroutes it through the software
    /// slow path so it is accounted, not silently dropped.
    Crashed,
}

/// Worker-side outcome of one receive.
pub(crate) enum RecvReply {
    /// Dequeued this descriptor (the frame and its lifecycle id) at this
    /// cost.
    Data { desc: RxDesc, len: usize, cost: Dur },
    /// The ring is empty.
    Empty,
    /// The shard has no ring for this key.
    Missing,
}

/// Worker-side outcome of one send (payload write + NIC DMA read).
#[derive(Clone, Copy, Debug)]
pub(crate) enum SendReply {
    /// Payload written into the TX ring at this CPU cost.
    Produced(Dur),
    /// The TX ring is full.
    Full,
    /// The shard has no ring for this key.
    Missing,
}

/// One ring pair in flight between shards (rebalance / teardown).
pub(crate) struct RingEntry {
    pub key: RingKey,
    pub rx: RxRing,
    pub tx: PktRing,
}

enum Op {
    Deliver(Vec<DeliverJob>),
    Recv {
        key: RingKey,
    },
    Send {
        key: RingKey,
        pkt: Packet,
        len: usize,
    },
    InstallRing(Box<RingEntry>),
    CloseRing {
        key: RingKey,
    },
    DrainRings,
    Quiesce,
    ClearTrace,
    /// Fault injection: panic inside the worker thread with this message.
    Panic(String),
    Stop,
}

/// Everything the shard loop rescues from a panicking worker before the
/// thread exits: ring pairs live in host memory and survive the thread,
/// counters and events are a normal quiesce-style report, and any
/// deliver replies completed before the panic come back so the host can
/// reassemble the batch.
pub(crate) struct CrashSalvage {
    /// Deliver replies the shard finished before the panic hit.
    pub partial: Vec<DeliverReply>,
    /// Ring pairs pulled out of the dead shard.
    pub rings: Vec<RingEntry>,
    /// Final counter/event report. The rings are drained *before* this
    /// is built, so `report.rx_resident == 0` — ring occupancy rides the
    /// reinstalled entries and is reported by the replacement shard,
    /// never counted twice.
    pub report: ShardReport,
    /// The panic payload, stringified.
    pub payload: String,
}

enum Reply {
    Delivered(Vec<DeliverReply>),
    Recv(RecvReply),
    Send(SendReply),
    Rings(Vec<RingEntry>),
    Quiesce(Box<ShardReport>),
    Crashed(Box<CrashSalvage>),
    Done,
}

/// The state one worker thread owns outright.
struct Shard {
    rings: HashMap<RingKey, (RxRing, PktRing)>,
    llc: Llc,
    mem: MemCosts,
    stats: ShardStats,
    events: Vec<TraceEvent>,
    busy: Dur,
    /// Deliver replies for the batch currently being processed. Kept on
    /// the shard (not the stack) so a panic mid-batch can salvage them.
    partial: Vec<DeliverReply>,
}

impl Shard {
    fn new(llc: LlcConfig, mem: MemCosts) -> Shard {
        Shard {
            rings: HashMap::new(),
            llc: Llc::new(llc),
            mem,
            stats: ShardStats::default(),
            events: Vec::new(),
            busy: Dur::ZERO,
            partial: Vec::new(),
        }
    }

    fn deliver(&mut self, job: DeliverJob) -> DeliverReply {
        let Some((rx_ring, _)) = self.rings.get_mut(&job.key) else {
            self.stats.ring_missing += 1;
            return DeliverReply {
                idx: job.idx,
                outcome: ShardOutcome::RingMissing,
            };
        };
        // The packet handle itself is the ring descriptor: a refused
        // produce drops it (refcount release), never copies it.
        let desc = RxDesc {
            pkt: job.pkt,
            fid: job.fid,
        };
        let produced = if job.cold {
            rx_ring.produce_dma_bypass_with(desc, job.len, &mut self.llc, &self.mem)
        } else {
            rx_ring.produce_dma_with(desc, job.len, &mut self.llc, &self.mem)
        };
        let (verdict, outcome) = match produced {
            Ok(cost) => {
                self.stats.fast_delivered += 1;
                self.busy += cost;
                (TraceVerdict::Pass, ShardOutcome::Fast(cost))
            }
            Err(_) => {
                self.stats.ring_drops += 1;
                (
                    TraceVerdict::Drop(DropCause::RingFull),
                    ShardOutcome::RingFull,
                )
            }
        };
        if job.trace {
            self.events.push(TraceEvent {
                frame_id: job.fid,
                at: job.ready_at,
                stage: Stage::RingEnqueue,
                verdict,
                tuple: job.tuple,
                len: job.len as u32,
                owner: Some(job.owner),
                generation: job.generation,
            });
        }
        DeliverReply {
            idx: job.idx,
            outcome,
        }
    }

    fn recv(&mut self, key: RingKey) -> RecvReply {
        let Some((rx_ring, _)) = self.rings.get_mut(&key) else {
            return RecvReply::Missing;
        };
        match rx_ring.consume_cpu_desc(&mut self.llc, &self.mem) {
            Some((desc, len, cost)) => RecvReply::Data { desc, len, cost },
            None => RecvReply::Empty,
        }
    }

    fn send(&mut self, key: RingKey, pkt: Packet, len: usize) -> SendReply {
        let Some((_, tx_ring)) = self.rings.get_mut(&key) else {
            return SendReply::Missing;
        };
        match tx_ring.produce_cpu_with(pkt, len, &mut self.llc, &self.mem) {
            Ok(cost) => {
                // NIC side: DMA-read the frame back out of the ring (the
                // discarded descriptor is the NIC releasing its reference).
                let _ = tx_ring.consume_dma(&mut self.llc, &self.mem);
                SendReply::Produced(cost)
            }
            Err(_) => SendReply::Full,
        }
    }

    fn drain_rings(&mut self) -> Vec<RingEntry> {
        let mut keys: Vec<RingKey> = self.rings.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.order());
        keys.into_iter()
            .map(|key| {
                let (rx, tx) = self.rings.remove(&key).expect("key came from the map");
                RingEntry { key, rx, tx }
            })
            .collect()
    }

    fn report(&mut self) -> ShardReport {
        let llc = self.llc.stats();
        self.llc.reset_stats(); // contents stay; counters restart as deltas
        ShardReport {
            stats: std::mem::take(&mut self.stats),
            events: std::mem::take(&mut self.events),
            busy: std::mem::replace(&mut self.busy, Dur::ZERO),
            llc,
            rx_resident: self.rings.values().map(|(rx, _)| rx.len() as u64).sum(),
            arena_resident: self
                .rings
                .values()
                .map(|(rx, tx)| {
                    (rx.iter_descs().filter(|d| d.pkt.is_arena()).count()
                        + tx.iter_descs().filter(|p| p.is_arena()).count())
                        as u64
                })
                .sum(),
        }
    }

    fn handle(&mut self, op: Op) -> Reply {
        match op {
            Op::Deliver(jobs) => {
                for j in jobs {
                    let r = self.deliver(j);
                    self.partial.push(r);
                }
                Reply::Delivered(std::mem::take(&mut self.partial))
            }
            Op::Recv { key } => Reply::Recv(self.recv(key)),
            Op::Send { key, pkt, len } => Reply::Send(self.send(key, pkt, len)),
            Op::InstallRing(e) => {
                self.rings.insert(e.key, (e.rx, e.tx));
                Reply::Done
            }
            Op::CloseRing { key } => {
                self.rings.remove(&key);
                Reply::Done
            }
            Op::DrainRings => Reply::Rings(self.drain_rings()),
            Op::Quiesce => Reply::Quiesce(Box::new(self.report())),
            Op::ClearTrace => {
                self.events.clear();
                Reply::Done
            }
            Op::Panic(msg) => panic!("{msg}"),
            Op::Stop => unreachable!("Stop is handled by the run loop"),
        }
    }

    fn run(mut self, ops: Receiver<Op>, replies: Sender<Reply>) {
        for op in ops {
            if matches!(op, Op::Stop) {
                let _ = replies.send(Reply::Done);
                return;
            }
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(op)));
            let reply = match caught {
                Ok(reply) => reply,
                Err(e) => {
                    // The op panicked. Salvage everything the host needs
                    // — rings FIRST so the final report's rx_resident is
                    // zero (occupancy travels with the ring entries) —
                    // then exit so the thread stays cleanly joinable.
                    let payload = panic_message(e.as_ref());
                    let partial = std::mem::take(&mut self.partial);
                    let rings = self.drain_rings();
                    let report = self.report();
                    let _ = replies.send(Reply::Crashed(Box::new(CrashSalvage {
                        partial,
                        rings,
                        report,
                        payload,
                    })));
                    return;
                }
            };
            if replies.send(reply).is_err() {
                return; // host side went away
            }
        }
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Workers report panics through the supervisor, so the default panic
/// hook's backtrace spew on stderr is pure noise (and would make chaos
/// runs unreadable). Suppress it for worker threads only; every other
/// thread keeps the previous hook.
fn quiet_worker_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("norman-worker-"));
            if !in_worker {
                prev(info);
            }
        }));
    });
}

struct Worker {
    ops: Sender<Op>,
    replies: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn call(&self, op: Op) -> Reply {
        self.ops.send(op).expect("worker thread alive");
        self.replies.recv().expect("worker thread alive")
    }
}

/// One supervised shard restart, recorded for the host to account.
#[derive(Clone, Debug)]
pub(crate) struct ShardCrash {
    /// Which shard crashed.
    pub shard: usize,
    /// The panic payload, stringified.
    pub payload: String,
    /// Cumulative restarts of this shard (1 on the first crash).
    pub restarts: u64,
    /// Backoff penalty the supervisor charges for this restart:
    /// doubling from 50 µs, capped after six doublings.
    pub penalty: Dur,
}

/// The host-side handle to the worker fleet: one channel pair per
/// worker, plus the key→shard ownership map. Also the shard
/// *supervisor*: a `Reply::Crashed` from any worker triggers join →
/// salvage → restart at the same index, and the crash is recorded for
/// the host to account (restart counters, backoff CPU penalty,
/// recovery telemetry).
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    shard_of: HashMap<RingKey, usize>,
    /// The way-disjoint carve-up of the host LLC: shard `i` owns
    /// partition `i` outright, with a per-partition DDIO mask floored
    /// at one way, so one shard's ring working set cannot evict
    /// another's and every shard can absorb inbound DMA.
    plan: LlcPartitionPlan,
    mem: MemCosts,
    /// Per-shard cumulative restart counts (drives backoff doubling).
    restarts: Vec<u64>,
    /// Reports salvaged from crashed shards, folded into the next
    /// quiesce so no counter or event is lost.
    pending_reports: Vec<(usize, ShardReport)>,
    /// Crash records since the last [`WorkerPool::take_crashes`].
    crashes: Vec<ShardCrash>,
}

impl WorkerPool {
    pub(crate) fn new(n: usize, plan: LlcPartitionPlan, mem: MemCosts) -> WorkerPool {
        assert!(n > 0, "need at least one worker");
        assert_eq!(plan.len(), n, "one LLC partition per shard");
        quiet_worker_panics();
        let workers = (0..n)
            .map(|i| Self::spawn_worker(i, plan.shard(i), &mem))
            .collect();
        WorkerPool {
            workers,
            shard_of: HashMap::new(),
            plan,
            mem,
            restarts: vec![0; n],
            pending_reports: Vec::new(),
            crashes: Vec::new(),
        }
    }

    fn spawn_worker(i: usize, llc: &LlcConfig, mem: &MemCosts) -> Worker {
        let (op_tx, op_rx) = channel::<Op>();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let shard = Shard::new(llc.clone(), mem.clone());
        let handle = std::thread::Builder::new()
            .name(format!("norman-worker-{i}"))
            .spawn(move || shard.run(op_rx, reply_tx))
            .expect("spawn worker thread");
        Worker {
            ops: op_tx,
            replies: reply_rx,
            handle: Some(handle),
        }
    }

    /// Receives one reply from worker `i`, supervising crashes. On
    /// [`Reply::Crashed`] the dead thread is joined, a replacement shard
    /// is spawned at the same index with a bounded doubling backoff
    /// penalty, the salvaged rings are reinstalled into it (ring memory
    /// is host memory — it survives the worker), the salvaged report is
    /// banked for the next quiesce, and the crash is recorded. Returns
    /// the panic payload and any partial deliver replies.
    fn recv_supervised(&mut self, i: usize) -> Result<Reply, (String, Vec<DeliverReply>)> {
        let reply = self.workers[i]
            .replies
            .recv()
            .expect("worker reply channel");
        let Reply::Crashed(salvage) = reply else {
            return Ok(reply);
        };
        let CrashSalvage {
            partial,
            rings,
            report,
            payload,
        } = *salvage;
        if let Some(h) = self.workers[i].handle.take() {
            let _ = h.join(); // the shard sent its salvage, then exited
        }
        self.restarts[i] += 1;
        let n = self.restarts[i];
        let penalty = Dur::from_us(50 << (n - 1).min(6));
        self.workers[i] = Self::spawn_worker(i, self.plan.shard(i), &self.mem);
        for e in rings {
            match self.workers[i].call(Op::InstallRing(Box::new(e))) {
                Reply::Done => {}
                _ => unreachable!("reinstall reply"),
            }
        }
        self.pending_reports.push((i, report));
        self.crashes.push(ShardCrash {
            shard: i,
            payload: payload.clone(),
            restarts: n,
            penalty,
        });
        Err((payload, partial))
    }

    /// Fault injection: make shard `shard` panic with `msg`. The
    /// supervisor handles the crash synchronously; by the time this
    /// returns the replacement shard is serving and the crash record is
    /// available via [`WorkerPool::take_crashes`].
    pub(crate) fn inject_panic(&mut self, shard: usize, msg: &str) {
        self.workers[shard]
            .ops
            .send(Op::Panic(msg.to_string()))
            .expect("worker thread alive");
        match self.recv_supervised(shard) {
            Err(_) => {}
            Ok(_) => unreachable!("panic op always crashes the shard"),
        }
    }

    /// Crash records accumulated since the last call.
    pub(crate) fn take_crashes(&mut self) -> Vec<ShardCrash> {
        std::mem::take(&mut self.crashes)
    }

    /// Total shard restarts over the pool's lifetime.
    pub(crate) fn total_restarts(&self) -> u64 {
        self.restarts.iter().sum()
    }

    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The LLC partition plan shards were built from (audited by
    /// [`Host::audit`](crate::Host::audit) for way conservation).
    pub(crate) fn plan(&self) -> &LlcPartitionPlan {
        &self.plan
    }

    /// Which shard owns `key`, if any.
    pub(crate) fn owner_of(&self, key: RingKey) -> Option<usize> {
        self.shard_of.get(&key).copied()
    }

    /// Installs a ring pair into `shard`.
    pub(crate) fn install(&mut self, shard: usize, key: RingKey, rx: RxRing, tx: PktRing) {
        self.shard_of.insert(key, shard);
        self.workers[shard]
            .ops
            .send(Op::InstallRing(Box::new(RingEntry { key, rx, tx })))
            .expect("worker thread alive");
        match self.recv_supervised(shard) {
            Ok(Reply::Done) | Err(_) => {}
            Ok(_) => unreachable!("install reply"),
        }
    }

    /// Tears down `key`'s rings wherever they live.
    pub(crate) fn close(&mut self, key: RingKey) {
        if let Some(shard) = self.shard_of.remove(&key) {
            self.workers[shard]
                .ops
                .send(Op::CloseRing { key })
                .expect("worker thread alive");
            match self.recv_supervised(shard) {
                Ok(Reply::Done) => {}
                Ok(_) => unreachable!("close reply"),
                Err(_) => {
                    // The salvage reinstalled the shard's rings — the one
                    // being closed included. Re-issue against the
                    // replacement shard.
                    self.workers[shard]
                        .ops
                        .send(Op::CloseRing { key })
                        .expect("worker thread alive");
                    match self.recv_supervised(shard) {
                        Ok(Reply::Done) => {}
                        _ => panic!("worker shard {shard} crashed twice during close"),
                    }
                }
            }
        }
    }

    /// Dispatches one per-shard job batch to every worker at once, lets
    /// them run concurrently, and returns the union of replies. Replies
    /// are collected in worker order, so the result is deterministic
    /// regardless of thread scheduling.
    pub(crate) fn deliver(&mut self, batches: Vec<Vec<DeliverJob>>) -> Vec<DeliverReply> {
        assert_eq!(batches.len(), self.workers.len());
        let mut busy = Vec::new();
        for (i, jobs) in batches.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            // Keep a copy so a crashed shard's unanswered jobs can be
            // identified and rerouted (cloning a job bumps its packet's
            // refcount; the frame bytes stay in host memory either way).
            let copy = jobs.clone();
            self.workers[i]
                .ops
                .send(Op::Deliver(jobs))
                .expect("worker thread alive");
            busy.push((i, copy));
        }
        let mut replies = Vec::new();
        for (i, jobs) in busy {
            match self.recv_supervised(i) {
                Ok(Reply::Delivered(mut r)) => replies.append(&mut r),
                Ok(_) => unreachable!("deliver reply"),
                Err((_, mut partial)) => {
                    // Jobs the dead shard never answered come back as
                    // Crashed; the host reroutes those frames through
                    // the slow path, so nothing silently disappears.
                    let answered: HashSet<usize> = partial.iter().map(|r| r.idx).collect();
                    for j in &jobs {
                        if !answered.contains(&j.idx) {
                            partial.push(DeliverReply {
                                idx: j.idx,
                                outcome: ShardOutcome::Crashed,
                            });
                        }
                    }
                    replies.append(&mut partial);
                }
            }
        }
        replies
    }

    pub(crate) fn recv(&mut self, shard: usize, key: RingKey) -> RecvReply {
        self.workers[shard]
            .ops
            .send(Op::Recv { key })
            .expect("worker thread alive");
        match self.recv_supervised(shard) {
            Ok(Reply::Recv(r)) => r,
            Ok(_) => unreachable!("recv reply"),
            Err(_) => {
                // Re-issue once against the replacement shard: the rings
                // (and their contents) survived the crash.
                self.workers[shard]
                    .ops
                    .send(Op::Recv { key })
                    .expect("worker thread alive");
                match self.recv_supervised(shard) {
                    Ok(Reply::Recv(r)) => r,
                    _ => panic!("worker shard {shard} crashed twice during recv"),
                }
            }
        }
    }

    pub(crate) fn send(
        &mut self,
        shard: usize,
        key: RingKey,
        pkt: Packet,
        len: usize,
    ) -> SendReply {
        self.workers[shard]
            .ops
            .send(Op::Send {
                key,
                pkt: pkt.clone(),
                len,
            })
            .expect("worker thread alive");
        match self.recv_supervised(shard) {
            Ok(Reply::Send(r)) => r,
            Ok(_) => unreachable!("send reply"),
            Err(_) => {
                self.workers[shard]
                    .ops
                    .send(Op::Send { key, pkt, len })
                    .expect("worker thread alive");
                match self.recv_supervised(shard) {
                    Ok(Reply::Send(r)) => r,
                    _ => panic!("worker shard {shard} crashed twice during send"),
                }
            }
        }
    }

    /// The quiesce barrier: every worker drains its counters, busy time,
    /// and buffered events. Reports come back in worker (core) order,
    /// with anything salvaged from crashed shards folded back in so the
    /// merge is conservation-exact across restarts.
    pub(crate) fn quiesce(&mut self) -> Vec<ShardReport> {
        for w in &self.workers {
            w.ops.send(Op::Quiesce).expect("worker thread alive");
        }
        let mut reports = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            let report = match self.recv_supervised(i) {
                Ok(Reply::Quiesce(r)) => *r,
                Ok(_) => unreachable!("quiesce reply"),
                Err(_) => {
                    // The shard crashed on the quiesce itself; its
                    // salvage report was banked. Quiesce the replacement
                    // (which inherited the rings) for the occupancy.
                    self.workers[i]
                        .ops
                        .send(Op::Quiesce)
                        .expect("worker thread alive");
                    match self.recv_supervised(i) {
                        Ok(Reply::Quiesce(r)) => *r,
                        _ => panic!("worker shard {i} crashed twice during quiesce"),
                    }
                }
            };
            reports.push(report);
        }
        // Fold in reports salvaged from crashed shards since the last
        // quiesce: their events predate the live report's, so prepend;
        // counters and busy time sum. rx_resident needs no folding — the
        // salvage drained the rings before reporting (so its own count
        // is zero) and the replacement shard that inherited them reports
        // the occupancy.
        for (i, banked) in std::mem::take(&mut self.pending_reports) {
            let live = &mut reports[i];
            live.stats.fast_delivered += banked.stats.fast_delivered;
            live.stats.ring_drops += banked.stats.ring_drops;
            live.stats.ring_missing += banked.stats.ring_missing;
            live.busy += banked.busy;
            live.llc.absorb(&banked.llc);
            let mut events = banked.events;
            events.append(&mut live.events);
            live.events = events;
        }
        reports
    }

    /// Clears trace buffers in every shard (a `start_trace` restart).
    pub(crate) fn clear_trace(&mut self) {
        for w in &self.workers {
            w.ops.send(Op::ClearTrace).expect("worker thread alive");
        }
        for i in 0..self.workers.len() {
            match self.recv_supervised(i) {
                Ok(Reply::Done) | Err(_) => {}
                Ok(_) => unreachable!("clear-trace reply"),
            }
        }
    }

    /// Pulls every ring pair out of every shard (teardown or rebalance).
    pub(crate) fn drain_all(&mut self) -> Vec<RingEntry> {
        let mut entries = Vec::new();
        for w in &self.workers {
            w.ops.send(Op::DrainRings).expect("worker thread alive");
        }
        for i in 0..self.workers.len() {
            match self.recv_supervised(i) {
                Ok(Reply::Rings(mut r)) => entries.append(&mut r),
                Ok(_) => unreachable!("drain reply"),
                Err(_) => {
                    // Crash mid-drain: the salvage reinstalled the rings
                    // into the replacement shard — drain that one.
                    self.workers[i]
                        .ops
                        .send(Op::DrainRings)
                        .expect("worker thread alive");
                    match self.recv_supervised(i) {
                        Ok(Reply::Rings(mut r)) => entries.append(&mut r),
                        _ => panic!("worker shard {i} crashed twice during drain"),
                    }
                }
            }
        }
        self.shard_of.clear();
        entries
    }

    /// Moves every ring pair to the shard `assign` names (missing keys
    /// default to shard 0). Called after a policy commit changed the RSS
    /// steering, under the quiesce barrier.
    pub(crate) fn rebalance(&mut self, assign: &HashMap<RingKey, usize>) {
        for e in self.drain_all() {
            let shard = assign.get(&e.key).copied().unwrap_or(0) % self.workers.len();
            self.install(shard, e.key, e.rx, e.tx);
        }
    }

    /// Stops every worker thread and waits for it to exit.
    pub(crate) fn stop(&mut self) {
        for w in &self.workers {
            let _ = w.ops.send(Op::Stop);
        }
        for w in &mut self.workers {
            let _ = w.replies.recv();
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        self.workers.clear();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping the op senders ends each worker's loop; join so no
        // thread outlives the pool.
        for w in &mut self.workers {
            drop(std::mem::replace(&mut w.ops, channel().0));
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}
