//! Administrator-facing policy types.

use oskernel::Uid;

/// A port reservation: only processes of `uid` (and optionally only the
/// named command) may send or receive on `port` — the §2 partitioning
/// policy ("only Postgres instances run by Bob can send or receive
/// traffic on port 5432").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortReservation {
    /// The reserved port.
    pub port: u16,
    /// The owning user.
    pub uid: Uid,
    /// Optional command-name restriction.
    pub(crate) comm: Option<String>,
}

impl PortReservation {
    /// Reserves `port` for `uid`, any command.
    pub fn new(port: u16, uid: Uid) -> PortReservation {
        PortReservation {
            port,
            uid,
            comm: None,
        }
    }

    /// Restricts the reservation to one command name.
    #[cfg(test)]
    pub(crate) fn for_comm(mut self, comm: &str) -> PortReservation {
        self.comm = Some(comm.to_string());
        self
    }

    /// Returns `true` if `(uid, comm)` may use the port.
    pub(crate) fn permits(&self, uid: Uid, comm: &str) -> bool {
        if uid != self.uid {
            return false;
        }
        match &self.comm {
            Some(want) => want == comm,
            None => true,
        }
    }
}

/// A per-user weighted-fair shaping policy (the §2 QoS scenario): each
/// listed user gets a WFQ class with the given weight; everyone else
/// shares the default class.
#[derive(Clone, Debug)]
pub struct ShapingPolicy {
    /// `(uid, weight)` pairs.
    pub user_weights: Vec<(Uid, f64)>,
    /// Weight of the default class.
    pub default_weight: f64,
}

impl ShapingPolicy {
    /// Creates a policy with default weight 1.0.
    pub fn new(user_weights: Vec<(Uid, f64)>) -> ShapingPolicy {
        ShapingPolicy {
            user_weights,
            default_weight: 1.0,
        }
    }

    /// Returns the WFQ class for `uid` under this policy (0 = default).
    pub fn class_of(&self, uid: Uid) -> u32 {
        self.user_weights
            .iter()
            .position(|&(u, _)| u == uid)
            .map(|i| i as u32 + 1)
            .unwrap_or(0)
    }

    /// Returns the class weight vector (class 0 first).
    pub fn weights(&self) -> Vec<f64> {
        let mut w = vec![self.default_weight];
        w.extend(self.user_weights.iter().map(|&(_, weight)| weight));
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_permits_owner_only() {
        let r = PortReservation::new(5432, Uid(1001));
        assert!(r.permits(Uid(1001), "postgres"));
        assert!(r.permits(Uid(1001), "anything"));
        assert!(!r.permits(Uid(1002), "postgres"));
    }

    #[test]
    fn comm_restriction() {
        let r = PortReservation::new(5432, Uid(1001)).for_comm("postgres");
        assert!(r.permits(Uid(1001), "postgres"));
        assert!(!r.permits(Uid(1001), "netcat"));
    }

    #[test]
    fn shaping_classes_and_weights() {
        let p = ShapingPolicy::new(vec![(Uid(1001), 4.0), (Uid(1002), 2.0)]);
        assert_eq!(p.class_of(Uid(1001)), 1);
        assert_eq!(p.class_of(Uid(1002)), 2);
        assert_eq!(p.class_of(Uid(9999)), 0);
        assert_eq!(p.weights(), vec![1.0, 4.0, 2.0]);
    }
}
