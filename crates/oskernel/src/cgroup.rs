//! Control groups with network class ids.
//!
//! The §2 QoS scenario: "Alice can move the game to its own control group
//! (cgroup) and then use tc and qdisc to enforce a shaping policy." The
//! `net_cls` class id a cgroup carries is what the classifier matches on.

#[cfg(test)]
use std::collections::HashMap;

/// A cgroup identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CgroupId(pub(crate) u32);

impl CgroupId {
    /// The root cgroup every process starts in.
    pub const ROOT: CgroupId = CgroupId(0);
}

/// One cgroup.
#[cfg(test)]
#[derive(Clone, Debug)]
pub(crate) struct Cgroup {
    /// Parent (None for the root).
    pub(crate) parent: Option<CgroupId>,
    /// Network class id (`net_cls.classid`); inherited when `None`.
    pub(crate) net_class: Option<u32>,
}

/// The cgroup hierarchy.
#[cfg(test)]
pub(crate) struct CgroupTree {
    groups: HashMap<CgroupId, Cgroup>,
    next_id: u32,
}

#[cfg(test)]
impl CgroupTree {
    /// Creates a tree containing only the root cgroup (net class 0).
    pub(crate) fn new() -> CgroupTree {
        let mut groups = HashMap::new();
        groups.insert(
            CgroupId::ROOT,
            Cgroup {
                parent: None,
                net_class: Some(0),
            },
        );
        CgroupTree { groups, next_id: 1 }
    }

    /// Creates a child cgroup under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist.
    pub(crate) fn create(&mut self, parent: CgroupId) -> CgroupId {
        assert!(self.groups.contains_key(&parent), "no such parent cgroup");
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.groups.insert(
            id,
            Cgroup {
                parent: Some(parent),
                net_class: None,
            },
        );
        id
    }

    /// Sets a cgroup's network class id (the `tc` handle).
    ///
    /// Returns `false` if the cgroup does not exist.
    pub(crate) fn set_net_class(&mut self, id: CgroupId, class: u32) -> bool {
        match self.groups.get_mut(&id) {
            Some(g) => {
                g.net_class = Some(class);
                true
            }
            None => false,
        }
    }

    /// Returns the effective network class of `id`, walking up the
    /// hierarchy for inherited values.
    pub(crate) fn net_class(&self, id: CgroupId) -> u32 {
        let mut cur = Some(id);
        while let Some(cid) = cur {
            let Some(g) = self.groups.get(&cid) else {
                break;
            };
            if let Some(c) = g.net_class {
                return c;
            }
            cur = g.parent;
        }
        0
    }

    /// Returns the number of cgroups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists_with_class_zero() {
        let t = CgroupTree::new();
        assert_eq!(t.net_class(CgroupId::ROOT), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn child_inherits_until_set() {
        let mut t = CgroupTree::new();
        let game = t.create(CgroupId::ROOT);
        assert_eq!(t.net_class(game), 0);
        t.set_net_class(game, 42);
        assert_eq!(t.net_class(game), 42);
        // Grandchild inherits from the game group.
        let sub = t.create(game);
        assert_eq!(t.net_class(sub), 42);
    }

    #[test]
    fn set_class_on_missing_group_fails() {
        let mut t = CgroupTree::new();
        assert!(!t.set_net_class(CgroupId(99), 1));
    }

    #[test]
    #[should_panic(expected = "no such parent")]
    fn create_under_missing_parent_panics() {
        let mut t = CgroupTree::new();
        t.create(CgroupId(99));
    }

    #[test]
    fn unknown_group_class_defaults_to_zero() {
        let t = CgroupTree::new();
        assert_eq!(t.net_class(CgroupId(7)), 0);
    }
}
