//! The shared telemetry hub.
//!
//! One [`Telemetry`] handle is cloned into every component of a simulated
//! host (NIC, netstack, NAT, host glue). It is an `Rc` over interior-
//! mutable state — the dataplane that emits is single-threaded and
//! deterministic, so no locking is needed and event order is exactly
//! simulation order.
//!
//! Overhead discipline:
//!
//! * **Disabled** — every emission entry point loads one `Cell<bool>` and
//!   returns. No closure runs, nothing is built, the `RefCell` is not
//!   touched; a hub that was never enabled has not even allocated its
//!   event ring.
//! * **Enabled** — emission is *stage-first*: the caller names the stages
//!   a frame crossed ([`StageRec`]: stage, verdict, time) and supplies the
//!   fields those stages share ([`FrameInfo`]: frame id, tuple, length,
//!   owner) through a closure. One call takes one hub borrow, counts each
//!   stage in the ledger, and — only if something will keep the events —
//!   runs the closure once. [`Telemetry::emit_stages`] also takes the
//!   call's histogram samples, so a frame's whole NIC-side record costs a
//!   single borrow. [`Telemetry::emit`] (a closure returning a finished
//!   [`TraceEvent`]) forwards to the same record path.
//! * **Collecting** — while a file sink is attached, the profile's filter
//!   and collectors are asked about `(stage, verdict)` *before* the
//!   closure runs: under `drop-forensics` a delivered frame is counted in
//!   the ledger and otherwise costs nothing.
//! * Frame-id allocation is a bare `Cell<u64>` increment and runs even
//!   when disabled, so ids are stable across enable/disable and replay
//!   remains deterministic.
//!
//! Two data structures live behind the handle:
//!
//! * the **event ring** — bounded at `capacity` events, oldest evicted
//!   first, with an eviction counter so truncation is visible. It holds
//!   plain fixed-size data in two parallel queues: one 64-byte frame
//!   record per emission call (the [`FrameInfo`] and the policy
//!   generation) and one 16-byte cell per stage event, the last cell of
//!   a call marked so eviction knows when to release the record. Nothing
//!   in either queue is read back on the hot path except the cell being
//!   evicted. [`TraceEvent`]s exist only where somebody reads
//!   them: [`Telemetry::events`], [`Telemetry::query`],
//!   [`Telemetry::lifecycle`] and the file sink;
//! * the **ledger** — per-[`Stage`] and per-[`DropCause`] totals that
//!   never evict. Audits cross-check the ledger (not the ring) against
//!   dataplane counters, so conservation checking survives ring wrap and
//!   narrow collection profiles alike.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use sim::stats::Histogram;
use sim::{Dur, Time};

use std::path::Path;

use crate::collect::{CollectError, CollectorRegistry, CollectorSet, Profile};
use crate::event::{
    DropCause, FrameInfo, RecoveryEvent, RecoveryKind, Stage, StageRec, TraceEvent, TraceFilter,
    TraceVerdict,
};
use crate::file::{EventFileWriter, FileError, SinkStats};
use crate::metrics::Registry;

/// Default event-buffer capacity (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Handle to a pre-registered latency histogram; lets hot paths record
/// by index without a name lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// A running collection: the durable file sink a profile attached.
/// Events stream through `writer` (bounded buffering — one `BufWriter`
/// block); the first write error is latched and surfaced when the
/// collection finishes, so the hot path never branches on I/O results
/// twice.
struct Sink {
    writer: EventFileWriter,
    filter: TraceFilter,
    collectors: CollectorSet,
    spill_ledger: bool,
    error: Option<FileError>,
}

impl Sink {
    /// Whether an event at this stage could reach the file — decided
    /// from the stage and verdict alone, before the event is built.
    fn admits(&self, rec: &StageRec) -> bool {
        self.error.is_none()
            && self.filter.admits_stage(rec.stage, rec.verdict)
            && self.collectors.wants_stage(rec.stage, rec.verdict)
    }

    fn offer(&mut self, event: &TraceEvent) {
        if !self.filter.matches(event) || !self.collectors.wants(event) {
            return;
        }
        if let Err(e) = self.writer.append_event(event) {
            self.error = Some(e);
        }
    }

    fn offer_recovery(&mut self, event: &RecoveryEvent) {
        if self.error.is_some() || !self.collectors.wants_recovery(event) {
            return;
        }
        if let Err(e) = self.writer.append_recovery(event) {
            self.error = Some(e);
        }
    }
}

/// One emission call's shared fields as the ring stores them: written
/// once, however many stage cells follow.
#[derive(Clone, Copy)]
struct FrameRec {
    frame: FrameInfo,
    generation: u64,
}

/// A [`StageRec`] in 16 bytes: the verdict is split into a kind and its
/// argument (class id or drop-cause index).
#[derive(Clone, Copy)]
struct StageCell {
    at: Time,
    arg: u32,
    stage: Stage,
    kind: u8,
    /// Whether this is the last cell of its emission call: the next cell
    /// belongs to the next frame record, and evicting this one releases
    /// the record.
    last: bool,
    unowned: bool,
}

impl StageCell {
    fn pack(rec: &StageRec, last: bool) -> StageCell {
        let (kind, arg) = match rec.verdict {
            TraceVerdict::Pass => (0, 0),
            TraceVerdict::Hit => (1, 0),
            TraceVerdict::Miss => (2, 0),
            TraceVerdict::SlowPath => (3, 0),
            TraceVerdict::Class(c) => (4, c),
            TraceVerdict::Drop(cause) => (5, cause as u32),
        };
        StageCell {
            at: rec.at,
            arg,
            stage: rec.stage,
            kind,
            last,
            unowned: rec.unowned,
        }
    }

    fn unpack(&self) -> StageRec {
        let verdict = match self.kind {
            0 => TraceVerdict::Pass,
            1 => TraceVerdict::Hit,
            2 => TraceVerdict::Miss,
            3 => TraceVerdict::SlowPath,
            4 => TraceVerdict::Class(self.arg),
            _ => TraceVerdict::Drop(DropCause::ALL[self.arg as usize]),
        };
        StageRec {
            stage: self.stage,
            verdict,
            at: self.at,
            unowned: self.unowned,
        }
    }
}

// The ring's documented layout (DESIGN.md §11): one cache line per
// emission call, four stage cells per cache line.
const _: () = assert!(std::mem::size_of::<FrameRec>() == 64);
const _: () = assert!(std::mem::size_of::<StageCell>() == 16);

struct Hub {
    /// Frame records, oldest first. The oldest owns the cells at the
    /// front of `cells` up to and including the first one marked `last`,
    /// the next record the run after that, and so on.
    frames: VecDeque<FrameRec>,
    cells: VecDeque<StageCell>,
    capacity: usize,
    evicted: u64,
    stage_counts: [u64; Stage::COUNT],
    drop_counts: [u64; DropCause::COUNT],
    hists: Vec<(String, Histogram)>,
    /// Failure-domain transitions (crash, reset, restart, degrade).
    /// Control-plane-scale and rare, so unbounded and — unlike frame
    /// events — recorded even when tracing is disabled: a chaos run's
    /// recovery story must be observable without paying for per-frame
    /// tracing.
    recovery: Vec<RecoveryEvent>,
    recovery_counts: [u64; RecoveryKind::COUNT],
    /// The attached collection sink, when a profile is recording to disk.
    sink: Option<Sink>,
}

impl Hub {
    /// Reserves the event ring, once: a hub that is never enabled never
    /// pays for it. The cell queue gets its full `capacity` and never
    /// grows. The record queue needs one slot per *call*, which is
    /// `capacity` only if every call carries a single stage; a queue
    /// cycles through all the memory it owns, so reserving for that worst
    /// case would drag four times the cache lines through a traced run
    /// that a typical one (two to three stages per call) needs. It starts
    /// at a quarter and doubles on demand — at most twice in the hub's
    /// life, both while the ring first fills, and never past `capacity`.
    fn reserve_ring(&mut self) {
        if self.cells.capacity() == 0 {
            self.cells.reserve_exact(self.capacity);
            self.frames.reserve_exact(self.capacity.div_ceil(4));
        }
    }

    /// The one record path: counts every stage in the ledger, then keeps
    /// the events wherever they are wanted — the file sink while a
    /// collection runs, the ring otherwise. `frame` runs at most once,
    /// and not at all when nothing keeps the events.
    #[inline]
    fn record(&mut self, generation: u64, stages: &[StageRec], frame: impl FnOnce() -> FrameInfo) {
        for rec in stages {
            self.stage_counts[rec.stage.index()] += 1;
            if let Some(cause) = rec.verdict.drop_cause() {
                self.drop_counts[cause.index()] += 1;
            }
        }
        // While a collection is running, the durable file *is* the query
        // surface — buffering every event a second time in the in-memory
        // ring would double the hot-path cost for a record nobody reads
        // (post-hoc forensics work from the file). The ledger above still
        // counts everything, so conservation audits are unaffected.
        if let Some(sink) = self.sink.as_mut() {
            if stages.iter().any(|rec| sink.admits(rec)) {
                let frame = frame();
                for rec in stages {
                    if sink.admits(rec) {
                        sink.offer(&frame.event(rec, generation));
                    }
                }
            }
            return;
        }
        // A call with more stages than the ring holds keeps its last
        // `capacity` (the leading ones would have been overwritten by the
        // rest anyway).
        let overflow = (self.cells.len() + stages.len()).saturating_sub(self.capacity);
        let old = overflow.min(self.cells.len());
        // Oldest out: a frame record goes with its last cell.
        for _ in 0..old {
            if self.cells.pop_front().is_some_and(|cell| cell.last) {
                self.frames.pop_front();
            }
        }
        self.evicted += overflow as u64;
        let Some((last, rest)) = stages[overflow - old..].split_last() else {
            return;
        };
        self.frames.push_back(FrameRec {
            frame: frame(),
            generation,
        });
        for rec in rest {
            self.cells.push_back(StageCell::pack(rec, false));
        }
        self.cells.push_back(StageCell::pack(last, true));
    }

    /// Materialises the buffered events, oldest first.
    fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut frames = self.frames.iter();
        let mut current = frames.next();
        self.cells.iter().map(move |cell| {
            let f = current.expect("every buffered cell belongs to a frame record");
            if cell.last {
                current = frames.next();
            }
            f.frame.event(&cell.unpack(), f.generation)
        })
    }

    fn spill_sink(&mut self) -> Result<(), FileError> {
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        if sink.spill_ledger {
            sink.writer
                .append_ledger(&self.stage_counts, &self.drop_counts, self.evicted)?;
        }
        sink.writer.flush()?;
        Ok(())
    }
}

/// The shared, cheaply-cloneable telemetry handle.
#[derive(Clone)]
pub struct Telemetry {
    enabled: Rc<Cell<bool>>,
    next_frame_id: Rc<Cell<u64>>,
    generation: Rc<Cell<u64>>,
    hub: Rc<RefCell<Hub>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates a disabled hub with the default event-buffer capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a disabled hub bounding the event buffer at `capacity`
    /// events. The buffer itself is reserved when the hub is first
    /// enabled, so components that build a private hub only to have a
    /// shared one attached never pay for it.
    pub(crate) fn with_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            enabled: Rc::new(Cell::new(false)),
            next_frame_id: Rc::new(Cell::new(1)),
            generation: Rc::new(Cell::new(0)),
            hub: Rc::new(RefCell::new(Hub {
                frames: VecDeque::new(),
                cells: VecDeque::new(),
                capacity: capacity.max(1),
                evicted: 0,
                stage_counts: [0; Stage::COUNT],
                drop_counts: [0; DropCause::COUNT],
                hists: Vec::new(),
                recovery: Vec::new(),
                recovery_counts: [0; RecoveryKind::COUNT],
                sink: None,
            })),
        }
    }

    /// Returns whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off. Turning it on reserves the event ring
    /// if this is the first time, and does not clear existing state;
    /// callers that need a clean ledger (audit baselines) call
    /// [`Telemetry::clear`] first.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.hub.borrow_mut().reserve_ring();
        }
        self.enabled.set(on);
    }

    /// Allocates the next dataplane-unique frame id (never 0). Runs even
    /// when disabled so ids — and therefore replay — are independent of
    /// whether anyone is watching.
    #[inline]
    pub fn alloc_frame_id(&self) -> u64 {
        let id = self.next_frame_id.get();
        self.next_frame_id.set(id + 1);
        id
    }

    /// Adopts an id already carried by a frame (nonzero) or allocates a
    /// fresh one. Lets an upstream stage (e.g. a NAT box in front of the
    /// NIC) tag the frame first and have the NIC keep the same id.
    #[inline]
    pub fn adopt_frame_id(&self, carried: u64) -> u64 {
        if carried != 0 {
            carried
        } else {
            self.alloc_frame_id()
        }
    }

    /// Sets the policy generation stamped into every subsequently emitted
    /// event. The control plane calls this at commit time so telemetry is
    /// attributable to the exact policy epoch in force.
    pub fn set_generation(&self, generation: u64) {
        self.generation.set(generation);
    }

    /// The policy generation currently stamped into emitted events.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// Records that one frame crossed `stages`, in that order, and the
    /// virtual-time samples in `hists` — all under one hub borrow, if
    /// tracing is enabled; otherwise the cost is one flag load. `frame`
    /// supplies the fields the stages share and runs at most once: not at
    /// all when disabled, nor when a running collection's profile keeps
    /// none of these stages (the ledger counts them regardless). The hub
    /// stamps the current policy generation.
    #[inline]
    pub fn emit_stages(
        &self,
        stages: &[StageRec],
        hists: &[(HistId, Dur)],
        frame: impl FnOnce() -> FrameInfo,
    ) {
        if self.enabled.get() {
            let mut hub = self.hub.borrow_mut();
            hub.record(self.generation.get(), stages, frame);
            for &(id, d) in hists {
                hub.hists[id.0].1.record_dur(d);
            }
        }
    }

    /// [`Telemetry::emit_stages`] for a single stage crossing.
    #[inline]
    pub fn emit_stage(
        &self,
        stage: Stage,
        verdict: TraceVerdict,
        at: Time,
        frame: impl FnOnce() -> FrameInfo,
    ) {
        self.emit_stages(&[StageRec::new(stage, verdict, at)], &[], frame);
    }

    /// Records the event built by `build` — if tracing is enabled. When
    /// disabled, `build` is never called; the cost is one flag load. The
    /// hub stamps the current policy generation over whatever the builder
    /// left in `generation` (producers write 0). For callers that hold a
    /// finished event; sites that know their stage up front use
    /// [`Telemetry::emit_stage`], which can skip the build as well.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if self.enabled.get() {
            let event = build();
            self.hub
                .borrow_mut()
                .record(self.generation.get(), &[event.stage_rec()], || {
                    event.frame()
                });
        }
    }

    /// Registers (or finds) the latency histogram `name`, returning a
    /// dense handle for hot-path recording.
    pub fn register_hist(&self, name: &str) -> HistId {
        let mut hub = self.hub.borrow_mut();
        if let Some(i) = hub.hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        hub.hists.push((name.to_string(), Histogram::new()));
        HistId(hub.hists.len() - 1)
    }

    /// Records a failure-domain transition (crash, reset, shard restart,
    /// degradation flip). Unlike [`Telemetry::emit`] this is *not* gated
    /// on the enabled flag: recovery events are rare, control-plane-scale
    /// facts and a chaos run must be self-describing even with per-frame
    /// tracing off.
    pub fn record_recovery(&self, at: sim::Time, kind: RecoveryKind, detail: impl Into<String>) {
        let mut hub = self.hub.borrow_mut();
        hub.recovery_counts[kind.index()] += 1;
        let event = RecoveryEvent {
            at,
            kind,
            detail: detail.into(),
        };
        if let Some(sink) = hub.sink.as_mut() {
            sink.offer_recovery(&event);
        }
        hub.recovery.push(event);
    }

    /// Total recovery events recorded with `kind`.
    pub fn recovery_count(&self, kind: RecoveryKind) -> u64 {
        self.hub.borrow().recovery_counts[kind.index()]
    }

    /// Snapshot of all recorded recovery events, oldest first.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        self.hub.borrow().recovery.clone()
    }

    /// Total events recorded at `stage` (ledger; survives buffer wrap).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.hub.borrow().stage_counts[stage.index()]
    }

    /// Total drops recorded with `cause` (ledger; survives buffer wrap).
    pub fn drop_count(&self, cause: DropCause) -> u64 {
        self.hub.borrow().drop_counts[cause.index()]
    }

    /// Total drops across all causes.
    pub fn total_drops(&self) -> u64 {
        self.hub.borrow().drop_counts.iter().sum()
    }

    /// Number of events evicted from the bounded buffer so far.
    pub fn evicted(&self) -> u64 {
        self.hub.borrow().evicted
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.hub.borrow().cells.len()
    }

    /// Returns `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.hub.borrow().events().collect()
    }

    /// Buffered events matching `filter`, oldest first.
    pub fn query(&self, filter: &TraceFilter) -> Vec<TraceEvent> {
        self.hub
            .borrow()
            .events()
            .filter(|e| filter.matches(e))
            .collect()
    }

    /// The full buffered lifecycle of one frame, oldest first.
    pub fn lifecycle(&self, frame_id: u64) -> Vec<TraceEvent> {
        self.query(&TraceFilter::any().with_frame(frame_id))
    }

    /// Clears the event buffer, ledger, eviction counter and histogram
    /// contents (registrations survive). Frame-id allocation is *not*
    /// reset — ids stay unique for the life of the hub.
    pub fn clear(&self) {
        let mut hub = self.hub.borrow_mut();
        hub.frames.clear();
        hub.cells.clear();
        hub.evicted = 0;
        hub.stage_counts = [0; Stage::COUNT];
        hub.drop_counts = [0; DropCause::COUNT];
        for (_, h) in hub.hists.iter_mut() {
            *h = Histogram::new();
        }
        hub.recovery.clear();
        hub.recovery_counts = [0; RecoveryKind::COUNT];
    }

    /// Dumps the ledger and histograms into `reg` under `trace.*` /
    /// `lat.*` keys.
    pub fn fill_registry(&self, reg: &mut Registry) {
        let hub = self.hub.borrow();
        for stage in Stage::ALL {
            let n = hub.stage_counts[stage.index()];
            if n != 0 {
                reg.set_counter(&format!("trace.stage.{}", stage.name()), n);
            }
        }
        for cause in DropCause::ALL {
            let n = hub.drop_counts[cause.index()];
            if n != 0 {
                reg.set_counter(&format!("trace.drop.{}", cause.name()), n);
            }
        }
        for kind in RecoveryKind::ALL {
            let n = hub.recovery_counts[kind.index()];
            if n != 0 {
                reg.set_counter(&format!("recovery.{}", kind.name()), n);
            }
        }
        reg.set_counter("trace.buffer.evicted", hub.evicted);
        reg.set_counter("trace.buffer.len", hub.cells.len() as u64);
        for (name, h) in hub.hists.iter() {
            reg.merge_hist(name, h);
        }
    }

    /// Attaches a durable file sink driven by `profile`: every
    /// subsequently recorded event that passes the profile's filter and
    /// is wanted by one of its collectors (resolved against `registry`)
    /// streams into the event-series file at `path`. While the sink is
    /// attached, events bypass the in-memory ring (the file is the query
    /// surface; the ledger still counts everything). Does **not** enable
    /// tracing or clear state — callers (e.g. `Host::start_collect`)
    /// own that sequencing.
    pub fn start_sink(
        &self,
        path: &Path,
        profile: &Profile,
        registry: &CollectorRegistry,
    ) -> Result<(), CollectError> {
        let collectors = registry.resolve(&profile.collectors)?;
        let mut hub = self.hub.borrow_mut();
        if hub.sink.is_some() {
            return Err(CollectError::AlreadyCollecting);
        }
        let writer = EventFileWriter::create(path, &profile.name, self.generation.get())?;
        hub.sink = Some(Sink {
            writer,
            filter: profile.filter.clone(),
            collectors,
            spill_ledger: profile.spills_ledger(),
            error: None,
        });
        Ok(())
    }

    /// Whether a collection sink is attached.
    #[cfg(test)]
    pub(crate) fn sink_active(&self) -> bool {
        self.hub.borrow().sink.is_some()
    }

    /// A spill point: writes a ledger snapshot (if the profile asked for
    /// one) and flushes buffered bytes to the OS. No-op without a sink.
    /// Surfaces any write error latched since the last spill.
    pub fn spill_sink(&self) -> Result<(), FileError> {
        self.hub.borrow_mut().spill_sink()
    }

    /// Detaches the sink: writes a final ledger snapshot (when the
    /// profile spills the ledger) and the fin record, flushes, and
    /// returns writer statistics. `Ok(None)` when no sink was attached.
    pub fn finish_sink(&self) -> Result<Option<SinkStats>, FileError> {
        let mut hub = self.hub.borrow_mut();
        let Some(mut sink) = hub.sink.take() else {
            return Ok(None);
        };
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        if sink.spill_ledger {
            sink.writer
                .append_ledger(&hub.stage_counts, &hub.drop_counts, hub.evicted)?;
        }
        let stats = sink.writer.finish()?;
        Ok(Some(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Owner;

    fn ev(id: u64, stage: Stage, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            frame_id: id,
            at: Time::from_ns(id),
            stage,
            verdict,
            tuple: None,
            len: 64,
            owner: None,
            generation: 0,
        }
    }

    #[test]
    fn disabled_hub_never_builds_events() {
        let tel = Telemetry::new();
        let mut built = false;
        tel.emit(|| {
            built = true;
            ev(1, Stage::RxIngress, TraceVerdict::Pass)
        });
        assert!(!built, "closure must not run when disabled");
        assert!(tel.is_empty());
        assert_eq!(tel.stage_count(Stage::RxIngress), 0);
    }

    #[test]
    fn ledger_and_buffer_track_events() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass));
        tel.emit(|| ev(1, Stage::RxDrop, TraceVerdict::Drop(DropCause::Malformed)));
        assert_eq!(tel.len(), 2);
        assert_eq!(tel.stage_count(Stage::RxIngress), 1);
        assert_eq!(tel.stage_count(Stage::RxDrop), 1);
        assert_eq!(tel.drop_count(DropCause::Malformed), 1);
        assert_eq!(tel.total_drops(), 1);
    }

    #[test]
    fn buffer_bounds_but_ledger_survives() {
        let tel = Telemetry::with_capacity(4);
        tel.set_enabled(true);
        for i in 0..10 {
            tel.emit(|| ev(i, Stage::RxIngress, TraceVerdict::Pass));
        }
        assert_eq!(tel.len(), 4);
        assert_eq!(tel.evicted(), 6);
        assert_eq!(tel.stage_count(Stage::RxIngress), 10);
        // Oldest evicted first: remaining ids are 6..10.
        assert_eq!(tel.events()[0].frame_id, 6);
    }

    #[test]
    fn frame_ids_are_unique_and_enable_independent() {
        let tel = Telemetry::new();
        let a = tel.alloc_frame_id();
        tel.set_enabled(true);
        let b = tel.alloc_frame_id();
        assert!(a != 0 && b != 0 && a != b);
        assert_eq!(tel.adopt_frame_id(a), a);
        let c = tel.adopt_frame_id(0);
        assert!(c > b);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.set_enabled(true);
        tel.emit(|| ev(3, Stage::TxOffer, TraceVerdict::Pass));
        assert_eq!(other.stage_count(Stage::TxOffer), 1);
        assert_eq!(other.lifecycle(3).len(), 1);
    }

    #[test]
    fn hist_registration_and_gated_recording() {
        let tel = Telemetry::new();
        let h = tel.register_hist("lat.nic.parse");
        let again = tel.register_hist("lat.nic.parse");
        assert_eq!(h, again);
        let sample = |d| tel.emit_stages(&[], &[(h, d)], || unreachable!("no stage to describe"));
        sample(Dur::from_ns(50)); // disabled: dropped
        tel.set_enabled(true);
        sample(Dur::from_ns(30));
        let mut reg = Registry::new();
        tel.fill_registry(&mut reg);
        let snap = reg.snapshot();
        let row = snap.hist("lat.nic.parse").expect("hist present");
        assert_eq!(row.count, 1);
    }

    #[test]
    fn emit_stamps_current_generation() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass));
        tel.set_generation(5);
        tel.emit(|| ev(2, Stage::RxIngress, TraceVerdict::Pass));
        let events = tel.events();
        assert_eq!(events[0].generation, 0);
        assert_eq!(events[1].generation, 5);
        assert_eq!(tel.generation(), 5);
        let clone = tel.clone();
        assert_eq!(clone.generation(), 5, "clones share the generation cell");
    }

    #[test]
    fn recovery_events_recorded_even_when_disabled() {
        let tel = Telemetry::new();
        assert!(!tel.is_enabled());
        tel.record_recovery(Time::from_ns(5), RecoveryKind::NicCrash, "rx op 7");
        tel.record_recovery(Time::from_ns(9), RecoveryKind::NicReset, "kernel reset");
        assert_eq!(tel.recovery_count(RecoveryKind::NicCrash), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::NicReset), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::ShardPanic), 0);
        let events = tel.recovery_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, RecoveryKind::NicCrash);
        assert_eq!(events[0].detail, "rx op 7");
        let mut reg = Registry::new();
        tel.fill_registry(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("recovery.nic_crash"), Some(1));
        assert_eq!(snap.counter("recovery.nic_reset"), Some(1));
        assert_eq!(snap.counter("recovery.shard_panic"), None);
        tel.clear();
        assert_eq!(tel.recovery_count(RecoveryKind::NicCrash), 0);
        assert!(tel.recovery_events().is_empty());
    }

    #[test]
    fn sink_streams_matching_events_to_disk() {
        use crate::collect::{CollectorRegistry, Profile};
        use crate::file::EventSeries;
        let path =
            std::env::temp_dir().join(format!("norman-hub-sink-{}.nrmtrace", std::process::id()));
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.set_generation(4);
        tel.start_sink(
            &path,
            &Profile::drop_forensics(),
            &CollectorRegistry::builtin(),
        )
        .unwrap();
        assert!(tel.sink_active());
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass)); // not collected
        tel.emit(|| ev(1, Stage::RxDrop, TraceVerdict::Drop(DropCause::Malformed)));
        tel.record_recovery(Time::from_ns(9), RecoveryKind::NicCrash, "boom");
        tel.spill_sink().unwrap();
        let stats = tel.finish_sink().unwrap().expect("sink was attached");
        assert!(!tel.sink_active());
        assert_eq!(stats.events, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.ledgers, 2, "one spill + one final snapshot");
        let series = EventSeries::load(&path).unwrap();
        assert_eq!(series.header.profile, "drop-forensics");
        assert_eq!(series.header.generation, 4);
        assert_eq!(series.events.len(), 1);
        assert_eq!(series.events[0].event.stage, Stage::RxDrop);
        assert_eq!(series.events[0].event.generation, 4);
        // The final ledger snapshot saw *both* events (ledger counts all
        // stages, the file keeps only collected ones).
        let ledger = series.ledger.expect("final snapshot");
        assert_eq!(ledger.stage_counts[Stage::RxIngress.index()], 1);
        assert_eq!(ledger.drop_counts[DropCause::Malformed.index()], 1);
        assert!(series.fin.is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ring_is_reserved_on_first_enable_and_stays_bounded() {
        let tel = Telemetry::new();
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass));
        tel.record_recovery(Time::from_ns(1), RecoveryKind::NicCrash, "x");
        let reserved = |tel: &Telemetry| {
            let hub = tel.hub.borrow();
            (hub.cells.capacity(), hub.frames.capacity())
        };
        assert_eq!(
            reserved(&tel),
            (0, 0),
            "a hub nobody enables reserves nothing"
        );
        tel.set_enabled(true);
        let (cells, frames) = reserved(&tel);
        assert!(cells >= DEFAULT_CAPACITY);
        assert!((DEFAULT_CAPACITY / 4..DEFAULT_CAPACITY).contains(&frames));
        // Four stages per call, several wraps: nothing grows.
        let group = [StageRec::new(Stage::RxIngress, TraceVerdict::Pass, Time::ZERO); 4];
        for _ in 0..DEFAULT_CAPACITY {
            tel.emit_stages(&group, &[], || {
                ev(1, Stage::RxIngress, TraceVerdict::Pass).frame()
            });
        }
        assert_eq!(reserved(&tel), (cells, frames));
        // One stage per call is the worst case for the record queue: it
        // grows to hold one record per buffered event, and stops there.
        for i in 0..3 * DEFAULT_CAPACITY as u64 {
            tel.emit(|| ev(i, Stage::RxIngress, TraceVerdict::Pass));
        }
        tel.set_enabled(false);
        tel.set_enabled(true);
        let (cells_now, frames_now) = reserved(&tel);
        assert_eq!(cells_now, cells);
        assert!((DEFAULT_CAPACITY..2 * DEFAULT_CAPACITY).contains(&frames_now));
        assert_eq!(tel.len(), DEFAULT_CAPACITY);
    }

    #[test]
    fn multi_stage_emit_builds_the_frame_once() {
        let tel = Telemetry::new();
        let h = tel.register_hist("lat.x");
        let stages = [
            StageRec::new(Stage::RxIngress, TraceVerdict::Pass, Time::from_ns(1)),
            StageRec::new(Stage::RingDequeue, TraceVerdict::Pass, Time::from_ns(2)).unowned(),
            StageRec::new(
                Stage::RxDrop,
                TraceVerdict::Drop(DropCause::Filter),
                Time::from_ns(3),
            ),
        ];
        let built = Cell::new(0);
        let frame = || {
            built.set(built.get() + 1);
            FrameInfo {
                frame_id: 9,
                tuple: None,
                len: 64,
                owner: Some(Owner::new(1000, 42, "memcached")),
            }
        };
        tel.emit_stages(&stages, &[(h, Dur::from_ns(5))], frame);
        assert_eq!(built.get(), 0, "disabled: nothing runs");
        tel.set_enabled(true);
        tel.set_generation(2);
        tel.emit_stages(&stages, &[(h, Dur::from_ns(5))], frame);
        assert_eq!(built.get(), 1);
        let events = tel.events();
        assert_eq!(events.len(), 3);
        for (e, rec) in events.iter().zip(&stages) {
            assert_eq!(*e, frame().event(rec, 2));
        }
        assert_eq!(events[1].owner, None);
        assert_eq!(tel.drop_count(DropCause::Filter), 1);
        let mut reg = Registry::new();
        tel.fill_registry(&mut reg);
        assert_eq!(reg.snapshot().hist("lat.x").expect("registered").count, 1);
    }

    #[test]
    fn profile_stage_mask_is_checked_before_the_frame_is_built() {
        use crate::collect::{CollectorRegistry, Profile};
        use crate::file::EventSeries;
        let path =
            std::env::temp_dir().join(format!("norman-hub-mask-{}.nrmtrace", std::process::id()));
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.start_sink(
            &path,
            &Profile::drop_forensics(),
            &CollectorRegistry::builtin(),
        )
        .unwrap();
        let built = Cell::new(0);
        let frame = |id: u64| {
            let built = &built;
            move || {
                built.set(built.get() + 1);
                FrameInfo {
                    frame_id: id,
                    tuple: None,
                    len: 64,
                    owner: None,
                }
            }
        };
        let at = Time::from_ns(1);
        // A delivered frame: every stage passes, drop-forensics keeps none.
        let delivered = [
            StageRec::new(Stage::RxIngress, TraceVerdict::Pass, at),
            StageRec::new(Stage::RxFlowLookup, TraceVerdict::Hit, at),
            StageRec::new(Stage::RxDeliver, TraceVerdict::Pass, at),
        ];
        for id in 0..100 {
            tel.emit_stages(&delivered, &[], frame(id));
            tel.emit_stage(Stage::AppDeliver, TraceVerdict::Pass, at, frame(id));
        }
        assert_eq!(built.get(), 0, "no event constructed for delivered frames");
        // A dropped frame is built once, and only its drop is written.
        tel.emit_stages(
            &[
                StageRec::new(Stage::RxIngress, TraceVerdict::Pass, at),
                StageRec::new(Stage::RxDrop, TraceVerdict::Drop(DropCause::Filter), at),
            ],
            &[],
            frame(100),
        );
        assert_eq!(built.get(), 1);
        // The ledger never looked at the mask.
        assert_eq!(tel.stage_count(Stage::RxIngress), 101);
        assert_eq!(tel.stage_count(Stage::RxDeliver), 100);
        assert_eq!(tel.stage_count(Stage::AppDeliver), 100);
        assert_eq!(tel.drop_count(DropCause::Filter), 1);
        let stats = tel.finish_sink().unwrap().expect("sink was attached");
        assert_eq!(stats.events, 1);
        let series = EventSeries::load(&path).unwrap();
        assert_eq!(series.events[0].event.stage, Stage::RxDrop);
        assert_eq!(series.events[0].event.frame_id, 100);
        std::fs::remove_file(&path).unwrap();
    }

    /// Seeded random event sequences through a small ring, checked after
    /// every step against the obvious model: a `Vec` of everything ever
    /// recorded, of which the ring shows the last `capacity`.
    #[test]
    fn ring_matches_a_plain_vec_model_across_wraps() {
        use pkt::{FiveTuple, IpProto};
        use sim::DetRng;
        use std::net::Ipv4Addr;

        fn arb_rec(r: &mut DetRng) -> StageRec {
            let verdict = match r.range_u64(0, 6) {
                0 => TraceVerdict::Pass,
                1 => TraceVerdict::Hit,
                2 => TraceVerdict::Miss,
                3 => TraceVerdict::SlowPath,
                4 => TraceVerdict::Class(r.next_u64() as u32),
                _ => TraceVerdict::Drop(*r.pick(&DropCause::ALL)),
            };
            let rec = StageRec::new(*r.pick(&Stage::ALL), verdict, Time(r.next_u64()));
            if r.chance(0.2) {
                rec.unowned()
            } else {
                rec
            }
        }
        fn arb_frame(r: &mut DetRng) -> FrameInfo {
            FrameInfo {
                frame_id: r.range_u64(0, 6),
                tuple: r.chance(0.7).then(|| FiveTuple {
                    src_ip: Ipv4Addr::from(r.next_u64() as u32),
                    dst_ip: Ipv4Addr::from(r.next_u64() as u32),
                    src_port: r.next_u64() as u16,
                    dst_port: r.range_u64(7000, 7003) as u16,
                    proto: IpProto(r.next_u64() as u8),
                }),
                len: r.next_u64() as u32,
                owner: r.chance(0.7).then(|| {
                    Owner::new(
                        r.range_u64(1000, 1003) as u32,
                        r.next_u64() as u32,
                        *r.pick(&["svc", "memcached", ""]),
                    )
                }),
            }
        }

        for (seed, capacity) in [(1, 1), (2, 5), (3, 7), (4, 64)] {
            let mut r = DetRng::seed_from_u64(0x7E1E_0000 + seed);
            let tel = Telemetry::with_capacity(capacity);
            tel.set_enabled(true);
            let mut model: Vec<TraceEvent> = Vec::new();
            for step in 0..40 * capacity.max(8) {
                match r.range_u64(0, 10) {
                    0 => tel.set_generation(r.range_u64(0, 4)),
                    1 | 2 => {
                        // A finished event; the hub stamps the generation
                        // over whatever the producer left there.
                        let e = arb_frame(&mut r).event(&arb_rec(&mut r), r.next_u64());
                        tel.emit(|| e.clone());
                        model.push(TraceEvent {
                            generation: tel.generation(),
                            ..e
                        });
                    }
                    _ => {
                        // Zero to nine stages: more than the small rings hold.
                        let frame = arb_frame(&mut r);
                        let recs: Vec<StageRec> =
                            (0..r.range_usize(0, 10)).map(|_| arb_rec(&mut r)).collect();
                        tel.emit_stages(&recs, &[], || frame);
                        model.extend(recs.iter().map(|rec| frame.event(rec, tel.generation())));
                    }
                }
                let kept = &model[model.len().saturating_sub(capacity)..];
                let ctx = format!("seed {seed} capacity {capacity} step {step}");
                assert_eq!(tel.len(), kept.len(), "{ctx}");
                assert_eq!(tel.evicted(), (model.len() - kept.len()) as u64, "{ctx}");
                assert_eq!(tel.events(), kept, "{ctx}");
                for stage in [Stage::RxIngress, Stage::TxDepart, *r.pick(&Stage::ALL)] {
                    let n = model.iter().filter(|e| e.stage == stage).count();
                    assert_eq!(tel.stage_count(stage), n as u64, "{ctx} {stage}");
                }
                let cause = *r.pick(&DropCause::ALL);
                let n = model
                    .iter()
                    .filter(|e| e.verdict == TraceVerdict::Drop(cause))
                    .count();
                assert_eq!(tel.drop_count(cause), n as u64, "{ctx} {cause}");
                let fid = r.range_u64(0, 6);
                let life: Vec<_> = kept.iter().filter(|e| e.frame_id == fid).cloned().collect();
                assert_eq!(tel.lifecycle(fid), life, "{ctx}");
                let filter = match r.range_u64(0, 4) {
                    0 => TraceFilter::any().drops(),
                    1 => TraceFilter::any().with_uid(1001).with_generation(2),
                    2 => TraceFilter::any().with_port(7001),
                    _ => TraceFilter::any()
                        .with_comm("svc")
                        .with_stage(*r.pick(&Stage::ALL)),
                };
                let want: Vec<_> = kept.iter().filter(|e| filter.matches(e)).cloned().collect();
                assert_eq!(tel.query(&filter), want, "{ctx}");
            }
            assert!(
                model.len() > 10 * capacity,
                "several wraps: {}",
                model.len()
            );
            let drops = model.iter().filter(|e| e.verdict.drop_cause().is_some());
            assert_eq!(tel.total_drops(), drops.count() as u64);
        }
    }

    #[test]
    fn clear_resets_ledger_not_ids() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let before = tel.alloc_frame_id();
        tel.emit(|| ev(9, Stage::RxIngress, TraceVerdict::Pass));
        tel.clear();
        assert!(tel.is_empty());
        assert_eq!(tel.stage_count(Stage::RxIngress), 0);
        assert!(tel.alloc_frame_id() > before);
    }
}
