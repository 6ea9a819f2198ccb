//! Control-group identifiers.
//!
//! The §2 QoS scenario: "Alice can move the game to its own control group
//! (cgroup) and then use tc and qdisc to enforce a shaping policy." Every
//! process carries the id of the cgroup it lives in.

/// A cgroup identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CgroupId(pub(crate) u32);

impl CgroupId {
    /// The root cgroup every process starts in.
    pub const ROOT: CgroupId = CgroupId(0);
}
