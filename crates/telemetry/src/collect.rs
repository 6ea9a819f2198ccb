//! Pluggable collectors and named collection profiles.
//!
//! A [`Collector`] is one lens on the event stream — lifecycle, drops,
//! flow-tier churn, recovery — registered by name in a
//! [`CollectorRegistry`] (retis-style: new subsystems plug in without
//! touching the pipeline). A [`Profile`] bundles a [`TraceFilter`], a set
//! of collector names, and the output stages to run, so an operator asks
//! for "drop-forensics" rather than hand-assembling a query.
//!
//! The hub applies a profile at emission time: an event reaches the file
//! sink iff the profile's filter matches **and** at least one of its
//! collectors wants the event. The filter narrows scope (one uid, one
//! port); collectors pick event classes.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{RecoveryEvent, Stage, TraceEvent, TraceFilter, TraceVerdict};
use crate::file::FileError;

/// One pluggable lens on the event stream.
pub(crate) trait Collector {
    /// Registry name (stable, lower-kebab).
    fn name(&self) -> &'static str;

    /// Whether this collector wants `event` recorded.
    fn wants(&self, event: &TraceEvent) -> bool;

    /// Whether this collector could want an event at `stage` with
    /// `verdict` — asked at the emit site, before the event is built.
    /// `false` is a promise that [`Collector::wants`] refuses every such
    /// event, and lets the hub skip building it; the default keeps every
    /// stage and leaves the decision to `wants`.
    fn wants_stage(&self, _stage: Stage, _verdict: TraceVerdict) -> bool {
        true
    }

    /// Whether this collector wants the failure-domain transition
    /// `event` recorded. Defaults to no — most collectors are per-frame.
    fn wants_recovery(&self, _event: &RecoveryEvent) -> bool {
        false
    }
}

/// Records every lifecycle event (the full per-frame story).
pub(crate) struct LifecycleCollector;

impl Collector for LifecycleCollector {
    fn name(&self) -> &'static str {
        "lifecycle"
    }

    fn wants(&self, _event: &TraceEvent) -> bool {
        true
    }
}

/// Records only drop verdicts — the forensics core.
pub(crate) struct DropCollector;

impl Collector for DropCollector {
    fn name(&self) -> &'static str {
        "drops"
    }

    fn wants(&self, event: &TraceEvent) -> bool {
        self.wants_stage(event.stage, event.verdict)
    }

    fn wants_stage(&self, _stage: Stage, verdict: TraceVerdict) -> bool {
        verdict.drop_cause().is_some()
    }
}

/// Records hot/cold flow-tier churn (promotions and demotions).
pub(crate) struct FlowTierCollector;

impl Collector for FlowTierCollector {
    fn name(&self) -> &'static str {
        "flow-tier"
    }

    fn wants(&self, event: &TraceEvent) -> bool {
        self.wants_stage(event.stage, event.verdict)
    }

    fn wants_stage(&self, stage: Stage, _verdict: TraceVerdict) -> bool {
        matches!(stage, Stage::FlowPromoted | Stage::FlowDemoted)
    }
}

/// Records failure-domain transitions (crash, reset, restart, degrade).
pub(crate) struct RecoveryCollector;

impl Collector for RecoveryCollector {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn wants(&self, _event: &TraceEvent) -> bool {
        false
    }

    fn wants_stage(&self, _stage: Stage, _verdict: TraceVerdict) -> bool {
        false
    }

    fn wants_recovery(&self, _event: &RecoveryEvent) -> bool {
        true
    }
}

/// A resolved set of collectors (what a profile's names became).
pub(crate) struct CollectorSet {
    collectors: Vec<Box<dyn Collector>>,
}

impl CollectorSet {
    /// Whether any collector in the set wants `event`.
    pub(crate) fn wants(&self, event: &TraceEvent) -> bool {
        self.collectors.iter().any(|c| c.wants(event))
    }

    /// Whether any collector in the set could want an event at `stage`
    /// with `verdict` (see [`Collector::wants_stage`]).
    pub(crate) fn wants_stage(&self, stage: Stage, verdict: TraceVerdict) -> bool {
        self.collectors
            .iter()
            .any(|c| c.wants_stage(stage, verdict))
    }

    /// Whether any collector in the set wants the recovery event.
    pub(crate) fn wants_recovery(&self, event: &RecoveryEvent) -> bool {
        self.collectors.iter().any(|c| c.wants_recovery(event))
    }

    /// Names of the collectors in the set.
    pub(crate) fn names(&self) -> Vec<&'static str> {
        self.collectors.iter().map(|c| c.name()).collect()
    }
}

impl fmt::Debug for CollectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CollectorSet").field(&self.names()).finish()
    }
}

type Factory = Box<dyn Fn() -> Box<dyn Collector>>;

/// Name → collector factory registry. [`CollectorRegistry::builtin`]
/// carries the four stock collectors; subsystems register more.
pub struct CollectorRegistry {
    factories: BTreeMap<String, Factory>,
}

impl CollectorRegistry {
    /// An empty registry.
    pub(crate) fn new() -> CollectorRegistry {
        CollectorRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// The stock registry: `lifecycle`, `drops`, `flow-tier`, `recovery`.
    pub fn builtin() -> CollectorRegistry {
        let mut reg = CollectorRegistry::new();
        reg.register("lifecycle", || Box::new(LifecycleCollector));
        reg.register("drops", || Box::new(DropCollector));
        reg.register("flow-tier", || Box::new(FlowTierCollector));
        reg.register("recovery", || Box::new(RecoveryCollector));
        reg
    }

    /// Registers (or replaces) the factory for `name`.
    pub(crate) fn register(
        &mut self,
        name: &str,
        factory: impl Fn() -> Box<dyn Collector> + 'static,
    ) {
        self.factories.insert(name.to_string(), Box::new(factory));
    }

    /// Registered collector names, sorted.
    #[cfg(test)]
    pub(crate) fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Instantiates the named collectors.
    pub(crate) fn resolve(&self, names: &[String]) -> Result<CollectorSet, CollectError> {
        let mut collectors = Vec::with_capacity(names.len());
        for name in names {
            let factory = self
                .factories
                .get(name)
                .ok_or_else(|| CollectError::UnknownCollector(name.clone()))?;
            collectors.push(factory());
        }
        Ok(CollectorSet { collectors })
    }
}

impl Default for CollectorRegistry {
    fn default() -> CollectorRegistry {
        CollectorRegistry::builtin()
    }
}

/// An output stage a profile runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutputStage {
    /// Stream matching events into the durable event-series file.
    Events,
    /// Write ledger snapshots at every spill, so drop conservation is
    /// checkable from the file alone.
    Ledger,
}

/// A named collection recipe: filter + collectors + output stages.
#[derive(Debug)]
pub struct Profile {
    /// Profile name (stamped into the file header).
    pub(crate) name: String,
    /// Scope filter applied before any collector sees the event.
    pub(crate) filter: TraceFilter,
    /// Collector names, resolved against a [`CollectorRegistry`].
    pub(crate) collectors: Vec<String>,
    /// Output stages to run.
    pub(crate) outputs: Vec<OutputStage>,
}

impl Profile {
    /// Builds a custom profile recording events + ledger snapshots.
    pub(crate) fn new(name: &str, filter: TraceFilter, collectors: &[&str]) -> Profile {
        Profile {
            name: name.to_string(),
            filter,
            collectors: collectors.iter().map(|s| s.to_string()).collect(),
            outputs: vec![OutputStage::Events, OutputStage::Ledger],
        }
    }

    /// Whether the profile writes ledger snapshots at spill points.
    pub(crate) fn spills_ledger(&self) -> bool {
        self.outputs.contains(&OutputStage::Ledger)
    }

    /// `full-lifecycle`: every event of every frame, plus recovery.
    pub(crate) fn full_lifecycle() -> Profile {
        Profile::new(
            "full-lifecycle",
            TraceFilter::any(),
            &["lifecycle", "recovery"],
        )
    }

    /// `drop-forensics`: every typed drop, flow-tier churn for context,
    /// and recovery transitions — the "which flows dropped, where, and
    /// whose" profile.
    pub(crate) fn drop_forensics() -> Profile {
        Profile::new(
            "drop-forensics",
            TraceFilter::any(),
            &["drops", "flow-tier", "recovery"],
        )
    }

    /// `flow-churn`: hot/cold tier promotions and demotions only.
    pub(crate) fn flow_churn() -> Profile {
        let mut p = Profile::new("flow-churn", TraceFilter::any(), &["flow-tier"]);
        p.outputs = vec![OutputStage::Events];
        p
    }

    /// `recovery`: failure-domain transitions only.
    pub(crate) fn recovery_only() -> Profile {
        let mut p = Profile::new("recovery", TraceFilter::any(), &["recovery"]);
        p.outputs = vec![OutputStage::Events];
        p
    }

    /// Looks up a built-in profile by name.
    pub fn builtin(name: &str) -> Option<Profile> {
        match name {
            "full-lifecycle" => Some(Profile::full_lifecycle()),
            "drop-forensics" => Some(Profile::drop_forensics()),
            "flow-churn" => Some(Profile::flow_churn()),
            "recovery" => Some(Profile::recovery_only()),
            _ => None,
        }
    }

    /// Names of the built-in profiles.
    pub fn builtin_names() -> [&'static str; 4] {
        ["full-lifecycle", "drop-forensics", "flow-churn", "recovery"]
    }
}

/// Failure starting or running a collection.
#[derive(Debug)]
pub enum CollectError {
    /// A profile referenced a collector name nobody registered.
    UnknownCollector(String),
    /// The named profile does not exist.
    UnknownProfile(String),
    /// A collection is already running on this hub.
    AlreadyCollecting,
    /// No collection is running on this hub.
    NotCollecting,
    /// The event-series file failed.
    File(FileError),
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::UnknownCollector(n) => write!(f, "unknown collector: {n}"),
            CollectError::UnknownProfile(n) => write!(f, "unknown profile: {n}"),
            CollectError::AlreadyCollecting => write!(f, "a collection is already running"),
            CollectError::NotCollecting => write!(f, "no collection is running"),
            CollectError::File(e) => write!(f, "event file: {e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<FileError> for CollectError {
    fn from(e: FileError) -> CollectError {
        CollectError::File(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, RecoveryKind, TraceVerdict};
    use sim::Time;

    fn ev(stage: Stage, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            frame_id: 1,
            at: Time(100),
            stage,
            verdict,
            tuple: None,
            len: 64,
            owner: None,
            generation: 0,
        }
    }

    #[test]
    fn builtin_collectors_partition_the_stream() {
        let reg = CollectorRegistry::builtin();
        let set = reg.resolve(&["drops".into(), "flow-tier".into()]).unwrap();
        assert!(set.wants(&ev(Stage::RxDrop, TraceVerdict::Drop(DropCause::Filter))));
        assert!(set.wants(&ev(Stage::FlowPromoted, TraceVerdict::Pass)));
        assert!(!set.wants(&ev(Stage::RxIngress, TraceVerdict::Pass)));
        // The emit-site check agrees with the per-event one.
        assert!(set.wants_stage(Stage::RxDrop, TraceVerdict::Drop(DropCause::Filter)));
        assert!(set.wants_stage(Stage::FlowPromoted, TraceVerdict::Pass));
        assert!(!set.wants_stage(Stage::RxIngress, TraceVerdict::Pass));
        assert!(!set.wants_recovery(&RecoveryEvent {
            at: Time(1),
            kind: RecoveryKind::NicCrash,
            detail: String::new(),
        }));
    }

    #[test]
    fn recovery_collector_only_wants_recovery() {
        let reg = CollectorRegistry::builtin();
        let set = reg.resolve(&["recovery".into()]).unwrap();
        assert!(!set.wants(&ev(Stage::RxDrop, TraceVerdict::Drop(DropCause::Filter))));
        assert!(set.wants_recovery(&RecoveryEvent {
            at: Time(1),
            kind: RecoveryKind::ShardPanic,
            detail: "shard 2".into(),
        }));
    }

    #[test]
    fn unknown_collector_is_a_typed_error() {
        let reg = CollectorRegistry::builtin();
        let err = reg.resolve(&["nonesuch".into()]).unwrap_err();
        assert!(matches!(err, CollectError::UnknownCollector(n) if n == "nonesuch"));
    }

    #[test]
    fn custom_collectors_plug_in() {
        struct OnlyBig;
        impl Collector for OnlyBig {
            fn name(&self) -> &'static str {
                "only-big"
            }
            fn wants(&self, event: &TraceEvent) -> bool {
                event.len > 1000
            }
        }
        let mut reg = CollectorRegistry::builtin();
        reg.register("only-big", || Box::new(OnlyBig));
        let set = reg.resolve(&["only-big".into()]).unwrap();
        let mut e = ev(Stage::RxIngress, TraceVerdict::Pass);
        assert!(!set.wants(&e));
        e.len = 1500;
        assert!(set.wants(&e));
        assert!(reg.names().contains(&"only-big".to_string()));
    }

    #[test]
    fn builtin_profiles_resolve() {
        let reg = CollectorRegistry::builtin();
        for name in Profile::builtin_names() {
            let p = Profile::builtin(name).expect(name);
            assert_eq!(p.name, name);
            reg.resolve(&p.collectors).expect(name);
        }
        assert!(Profile::builtin("nonesuch").is_none());
        assert!(Profile::drop_forensics().spills_ledger());
        assert!(!Profile::flow_churn().spills_ledger());
    }
}
