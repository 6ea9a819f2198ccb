//! Users and credentials.

use std::fmt;

/// A user id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Uid(pub u32);

impl Uid {
    /// The superuser.
    pub(crate) const ROOT: Uid = Uid(0);

    /// Returns `true` for root.
    pub(crate) fn is_root(self) -> bool {
        self == Uid::ROOT
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid {}", self.0)
    }
}

/// Credentials attached to a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cred {
    /// The owning user.
    pub uid: Uid,
    /// The user's login name (for tool output).
    pub(crate) user: String,
}

impl Cred {
    /// Creates credentials.
    pub fn new(uid: Uid, user: impl Into<String>) -> Cred {
        Cred {
            uid,
            user: user.into(),
        }
    }

    /// Root credentials.
    pub fn root() -> Cred {
        Cred::new(Uid::ROOT, "root")
    }

    /// Returns `true` if these credentials may perform privileged
    /// operations (configure the NIC, read global captures).
    pub fn is_privileged(&self) -> bool {
        self.uid.is_root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_privileged_others_are_not() {
        assert!(Cred::root().is_privileged());
        assert!(!Cred::new(Uid(1001), "bob").is_privileged());
    }

    #[test]
    fn uid_display() {
        assert_eq!(Uid(7).to_string(), "uid 7");
    }
}
