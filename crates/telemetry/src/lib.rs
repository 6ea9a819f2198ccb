//! Norman's introspection layer: typed per-packet lifecycle tracing and a
//! unified metrics registry.
//!
//! The paper's §2 argues that kernel bypass destroys two things operators
//! rely on: the *global view* (tcpdump — what is crossing the wire) and
//! the *process view* (which uid/pid/command owns each flow). KOPI's
//! promise is to restore both from the interposition point itself, without
//! extra data movement. This crate is that observation plane for the
//! simulated stack:
//!
//! * `event` — typed stage events ([`TraceEvent`]): every frame entering
//!   the dataplane is tagged with a `frame_id` (carried in
//!   `pkt::FrameMeta`) and each pipeline stage (ingress, parse, filter,
//!   NAT, flow lookup, ring, notification, netstack, qdisc, departure)
//!   records what happened to it, with uid/pid/comm attribution joined at
//!   the kernel boundary. An event has two halves — what the frame's
//!   stages share ([`FrameInfo`]) and what is particular to one stage
//!   ([`StageRec`]) — and producers hand the hub the halves, not the
//!   event. Attribution is plain data: [`Comm`] is an interned
//!   `&'static str`, so an [`Owner`] is `Copy` and `Send` and costs no
//!   refcount. [`TraceFilter`] gives tcpdump/BPF-ish querying by 5-tuple,
//!   owner, stage and verdict.
//! * [`hub`] — the [`Telemetry`] handle every component shares. A single
//!   `Cell<bool>` gate makes the disabled path effectively free: emission
//!   takes a closure, so nothing is built unless tracing is on, and a hub
//!   nobody enables never reserves its ring. Enabled, emission is
//!   stage-first ([`Telemetry::emit_stages`]): one call, one borrow, the
//!   shared fields written once into a 64-byte record and each stage
//!   into a 16-byte cell; [`TraceEvent`]s are materialised only for
//!   readers. The hub also keeps an aggregate *ledger* (per-stage and
//!   per-drop cause totals) that never evicts, which `SmartNic::audit` /
//!   `Host::audit` cross-check against the dataplane's own counters:
//!   every ingress event must terminate in exactly one of
//!   delivered/forwarded/dropped.
//! * `metrics` — a named [`Registry`] of counters, gauges and
//!   virtual-time latency histograms (reusing [`sim::stats::Histogram`])
//!   replacing the per-crate ad-hoc counter structs, snapshot-able as one
//!   structured document and exportable as JSON.
//!
//! On top of the hub sits the **trace pipeline** (retis-style), which
//! turns the bounded in-memory buffer into a durable, post-hoc-queryable
//! record:
//!
//! * `collect` — pluggable named `Collector`s (lifecycle, drops,
//!   flow-tier churn, recovery) in a [`CollectorRegistry`], bundled into
//!   named [`Profile`]s (filter + collector set + output stages) such as
//!   `drop-forensics`. The hub asks the profile about `(stage, verdict)`
//!   at the emit site, so an event nobody collects is never built.
//! * [`mod@file`] — the durable event-series format: versioned header,
//!   length-prefixed checksummed records, writer-assigned sequence
//!   numbers for stable sorts, streamed reads/writes with bounded
//!   buffering (`EventFileWriter` / [`EventFileReader`] /
//!   [`sort_file`]).
//! * [`tracking`] — [`FlowTracker`]: per-5-tuple aggregation with
//!   garbage collection for long-lived traces; its never-evicting
//!   drop-site ledger answers "which flows dropped, where, and whose"
//!   from a recorded file alone ([`FlowReport`]).
//!
//! The crate depends only on `sim` (time, histograms) and `pkt`
//! (5-tuples, frame meta) so every layer above — nicsim, oskernel, qdisc,
//! norman, bench — can register into the same hub.

pub(crate) mod collect;
pub(crate) mod event;
pub mod file;
pub mod hub;
pub(crate) mod metrics;
pub mod tracking;

pub use collect::{CollectError, CollectorRegistry, Profile};
pub use event::{
    Comm, DropCause, FrameInfo, Owner, RecoveryKind, Stage, StageRec, TraceEvent, TraceFilter,
    TraceVerdict,
};
pub use file::{sort_file, EventFileReader, FileError, Header, SinkStats, SortStats};
pub use hub::{HistId, Telemetry};
pub use metrics::{Registry, Snapshot};
pub use tracking::{FlowReport, FlowTracker, TrackerConfig};
