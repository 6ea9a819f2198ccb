//! Audit findings as data.
//!
//! Every cross-layer audit (`LlcPartitionPlan`, the NIC flow table, the
//! NIC, the control plane's third ledger, the host) returns the
//! invariants it found broken as [`Violation`]s: which [`Check`] failed,
//! the value the invariant requires, the value the audited state holds,
//! and the index or id the check is about. Callers and tests match on
//! the check; the text is for people.

use std::fmt;

/// The invariant a [`Violation`] names. Unless a variant says otherwise,
/// `expected` is the value the invariant requires and `found` the value
/// the audited state holds, and `at` is unset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    // -- memsim: the LLC partition plan tiles its donor cache.
    /// Shard ways sum to the donor's ways.
    LlcWays,
    /// Shard DDIO ways sum to the donor's budget, floored at one per shard.
    LlcDdioWays,
    /// Shard `at`'s DDIO ways (`found`) lie between one (when the donor has
    /// some) and the shard's ways; `expected` is the bound they cross.
    LlcShardDdio,
    /// Shard capacities sum to the donor's set-aligned capacity.
    LlcCapacity,
    /// Shard `at` has the donor's set count.
    LlcShardSets,

    // -- nicsim flow table: indexes, recency lists, tiers agree. A
    // recency list is named by `queue × 4 + rank`.
    /// An index (id, exact key or listener key) files connection `at` under
    /// slot `expected`, which does not hold it.
    FlowIndex,
    /// Occupied slab cells equal the indexed ids.
    FlowSlabIds,
    /// Occupied plus free cells equal the slab's length.
    FlowSlabCells,
    /// Hot-tagged exact entries equal the recency lists' members.
    FlowHotTagged,
    /// Cold-tagged exact entries equal the cold counter.
    FlowColdTagged,
    /// One hot-list slice per queue.
    FlowQueueSlices,
    /// Recency list `at`, of rank 0, is empty (rank 0 is never hot).
    ListRankZero,
    /// Recency list `at` reaches slot `found`, which is empty.
    ListDangling,
    /// Connection `at` is on queue `expected`'s list but of queue `found`,
    /// or (`found` none) cold or a listener.
    ListMember,
    /// Connection `at` sits on the rank-`expected` list with rank `found`.
    ListRank,
    /// Connection `at`'s last use (`found`) is strictly above its
    /// predecessor's (`expected`), so a tie breaks it too.
    ListOrder,
    /// Connection `at`'s back link is slot `found`, not `expected`.
    ListBackLink,
    /// Recency list `at` walks as many entries as it records.
    ListLength,
    /// Recency list `at` ends at the tail it records.
    ListTail,
    /// Queue `at` holds `found` hot entries, over its slice `expected`.
    QueueHotBudget,

    // -- nicsim device: SRAM, tiers, RSS and the trace ledger.
    /// SRAM category `at` (`nicsim::SramCategory`, in declaration order)
    /// holds what its contents cost; with no `at`, the categories sum to
    /// the used total.
    Sram,
    /// Hot plus cold connections equal the exact connections.
    FlowTiers,
    /// Entry records equal exact connections plus listeners.
    FlowEntries,
    /// The TX scheduler has one queue per RSS queue.
    TxSchedulerQueues,
    /// RSS indirection entry `at` names queue `found`, not below the queue count `expected`.
    RssIndirection,
    /// The RSS queue-count register mirrors the active table.
    RssQueueRegister,
    /// Trace ledger: the counters (`expected`) equal the events of stage `at`
    /// (`telemetry::Stage::index`; for `ring_enqueue`, those that passed).
    StageLedger,
    /// Trace ledger: the counters (`expected`) equal the drops of cause `at`
    /// (`telemetry::DropCause::index`).
    DropLedger,
    /// Frames entering at stage `at` equal those leaving by a terminal stage.
    Conservation,

    // -- norman control plane: NIC-resident policy matches the store.
    /// The NIC's generation register holds the kernel generation.
    GenerationRegister,
    /// Telemetry stamps the kernel generation.
    TelemetryGeneration,
    /// Overlay slot `at` (ingress, egress, classifier) holds the store's program fingerprint.
    ResidentProgram,
    /// A filter map entry for reserved port `at` holds uid + 1.
    FilterMap,
    /// The scheduler has the store's class count.
    SchedulerClasses,
    /// The NIC exposes the RSS policy's queue count.
    RssQueues,
    /// RSS indirection entry `at` holds the policy's queue.
    RssTable,
    /// The NIC's flow-cache config equals the store's. The values are the
    /// hot capacities, equal when another field differs.
    FlowCache,
    /// The sniffer is on (1) exactly when the store has a filter.
    Sniffer,
    /// Accounting program `at` on the NIC has the store's fingerprint.
    Accounting,

    // -- norman host: arena conservation and the ring ledger.
    /// Live arena slots (`found`) do not exceed resident handles (`expected`).
    ArenaLeak,
    /// Trace ledger: enqueues less dequeues and close discards equal RX ring residency.
    RingOccupancy,
}

/// One broken invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant.
    pub check: Check,
    /// The index or id the check is about, when it names one.
    pub at: Option<u64>,
    /// The value the invariant requires.
    pub expected: u64,
    /// The value the audited state holds.
    pub found: u64,
}

impl Violation {
    /// "Nothing there" in `expected` or `found`: an empty slot, an absent register.
    pub const NONE: u64 = u64::MAX;

    /// A violation of `check` with no index.
    pub fn new(check: Check, expected: u64, found: u64) -> Violation {
        Violation {
            check,
            at: None,
            expected,
            found,
        }
    }

    /// The same violation about index or id `at`.
    pub fn at(self, at: u64) -> Violation {
        Violation {
            at: Some(at),
            ..self
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = |v| match v {
            Violation::NONE => "none".to_string(),
            v => v.to_string(),
        };
        let at = self.at.map(|at| format!(" [{at}]")).unwrap_or_default();
        let (expected, found) = (value(self.expected), value(self.found));
        write!(
            f,
            "{:?}{at}: expected {expected}, found {found}",
            self.check
        )
    }
}

/// Records `check` as violated unless `expected == found`.
pub fn check(violations: &mut Vec<Violation>, check: Check, expected: u64, found: u64) {
    if expected != found {
        violations.push(Violation::new(check, expected, found));
    }
}

/// [`check`] about index or id `at`.
pub fn check_at(violations: &mut Vec<Violation>, check: Check, at: u64, expected: u64, found: u64) {
    if expected != found {
        violations.push(Violation::new(check, expected, found).at(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_records_only_disagreement() {
        let mut v = Vec::new();
        check(&mut v, Check::LlcWays, 16, 16);
        check_at(&mut v, Check::LlcShardSets, 2, 1024, 512);
        assert_eq!(v, [Violation::new(Check::LlcShardSets, 1024, 512).at(2)]);
        assert_eq!(
            v[0].to_string(),
            "LlcShardSets [2]: expected 1024, found 512"
        );
        let absent = Violation::new(Check::GenerationRegister, 3, Violation::NONE);
        assert_eq!(
            absent.to_string(),
            "GenerationRegister: expected 3, found none"
        );
    }
}
