//! Named collection profiles.
//!
//! A [`Profile`] picks which events of the stream a collection records —
//! lifecycle, drops, flow-tier churn, recovery — and whether the file
//! carries ledger snapshots, so an operator asks for "drop-forensics"
//! rather than hand-assembling a query. The hub asks the profile about
//! `(stage, verdict)` at emission time, before the event is built.

use std::fmt;

use crate::event::{Stage, TraceVerdict};
use crate::file::FileError;

/// A named collection recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// `full-lifecycle`: every event of every frame, plus recovery.
    FullLifecycle,
    /// `drop-forensics`: every typed drop, flow-tier churn for context,
    /// and recovery transitions — the "which flows dropped, where, and
    /// whose" profile.
    DropForensics,
    /// `flow-churn`: hot/cold tier promotions and demotions only.
    FlowChurn,
    /// `recovery`: failure-domain transitions (crash, reset, restart,
    /// degrade) only.
    Recovery,
}

impl Profile {
    /// Every profile, in documentation order.
    const ALL: [Profile; 4] = [
        Profile::FullLifecycle,
        Profile::DropForensics,
        Profile::FlowChurn,
        Profile::Recovery,
    ];

    /// The profile's name, stamped into the file header.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Profile::FullLifecycle => "full-lifecycle",
            Profile::DropForensics => "drop-forensics",
            Profile::FlowChurn => "flow-churn",
            Profile::Recovery => "recovery",
        }
    }

    /// Looks up a profile by name.
    pub fn builtin(name: &str) -> Option<Profile> {
        Profile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Names of the profiles.
    pub fn builtin_names() -> [&'static str; 4] {
        Profile::ALL.map(Profile::name)
    }

    /// Whether the profile records an event at `stage` with `verdict` —
    /// asked at the emit site, before the event is built.
    pub(crate) fn wants_stage(self, stage: Stage, verdict: TraceVerdict) -> bool {
        let tier_churn = matches!(stage, Stage::FlowPromoted | Stage::FlowDemoted);
        match self {
            Profile::FullLifecycle => true,
            Profile::DropForensics => verdict.drop_cause().is_some() || tier_churn,
            Profile::FlowChurn => tier_churn,
            Profile::Recovery => false,
        }
    }

    /// Whether the profile records failure-domain transitions.
    pub(crate) fn wants_recovery(self) -> bool {
        self != Profile::FlowChurn
    }

    /// Whether the profile writes ledger snapshots at spill points, so
    /// drop conservation is checkable from the file alone.
    pub(crate) fn spills_ledger(self) -> bool {
        matches!(self, Profile::FullLifecycle | Profile::DropForensics)
    }
}

/// Failure starting or running a collection.
#[derive(Debug)]
pub enum CollectError {
    /// A collection is already running on this hub.
    AlreadyCollecting,
    /// The event-series file failed.
    File(FileError),
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::AlreadyCollecting => write!(f, "a collection is already running"),
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
    use crate::event::DropCause;

    const DROP: TraceVerdict = TraceVerdict::Drop(DropCause::Filter);

    #[test]
    fn builtin_collectors_partition_the_stream() {
        let p = Profile::DropForensics;
        assert!(p.wants_stage(Stage::RxDrop, DROP));
        assert!(p.wants_stage(Stage::FlowPromoted, TraceVerdict::Pass));
        assert!(!p.wants_stage(Stage::RxIngress, TraceVerdict::Pass));
        assert!(p.wants_recovery());
        assert!(Profile::FullLifecycle.wants_stage(Stage::RxIngress, TraceVerdict::Pass));
        assert!(!Profile::FlowChurn.wants_stage(Stage::RxDrop, DROP));
        assert!(!Profile::FlowChurn.wants_recovery());
    }

    #[test]
    fn recovery_collector_only_wants_recovery() {
        let p = Profile::Recovery;
        assert!(!p.wants_stage(Stage::RxDrop, DROP));
        assert!(!p.wants_stage(Stage::FlowPromoted, TraceVerdict::Pass));
        assert!(p.wants_recovery());
    }

    #[test]
    fn builtin_profiles_resolve() {
        for name in Profile::builtin_names() {
            assert_eq!(Profile::builtin(name).expect(name).name(), name);
        }
        assert_eq!(
            Profile::builtin_names(),
            ["full-lifecycle", "drop-forensics", "flow-churn", "recovery"]
        );
        assert!(Profile::builtin("nonesuch").is_none());
        assert!(Profile::DropForensics.spills_ledger());
        assert!(!Profile::FlowChurn.spills_ledger());
        assert!(!Profile::Recovery.spills_ledger());
    }
}
