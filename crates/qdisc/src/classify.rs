//! Software packet classification (the kernel-side mirror of overlay
//! classifiers).
//!
//! A [`ClassifierRule`] matches on flow attributes — including the
//! *process view* attributes (uid, pid) only an OS-integrated
//! interposition layer has. The in-kernel stack evaluates rules in
//! software (`oskernel::hooks`, first match wins); KOPI lowers the same
//! semantics to an overlay program via [`crate::compile`].

use std::net::Ipv4Addr;

use pkt::{FiveTuple, IpProto};

/// Attributes of a packet/flow presented to the classifier.
#[derive(Clone, Copy, Debug)]
pub struct ClassMatch {
    /// Flow five-tuple, if the packet has one.
    pub tuple: Option<FiveTuple>,
    /// Owning uid (`u32::MAX` = unbound).
    pub uid: u32,
    /// Owning pid (0 = unbound).
    pub pid: u32,
    /// Packet mark.
    pub mark: u64,
    /// DSCP byte.
    pub dscp: u8,
}

impl Default for ClassMatch {
    fn default() -> ClassMatch {
        ClassMatch {
            tuple: None,
            uid: u32::MAX,
            pid: 0,
            mark: 0,
            dscp: 0,
        }
    }
}

impl ClassMatch {
    /// Builds match attributes from a parse-once frame descriptor plus
    /// the process-view attributes only the kernel knows — no byte
    /// access, no re-parse.
    pub fn from_meta(meta: &pkt::FrameMeta, uid: u32, pid: u32) -> ClassMatch {
        ClassMatch {
            tuple: meta.tuple,
            uid,
            pid,
            mark: 0,
            dscp: meta.dscp_ecn,
        }
    }
}

/// One classification rule: all present fields must match (the default
/// rule has none and matches everything).
#[derive(Clone, Debug, Default)]
pub struct ClassifierRule {
    /// Match source IP.
    pub src_ip: Option<Ipv4Addr>,
    /// Match destination IP.
    pub dst_ip: Option<Ipv4Addr>,
    /// Match source port.
    pub src_port: Option<u16>,
    /// Match destination port.
    pub dst_port: Option<u16>,
    /// Match protocol.
    pub proto: Option<IpProto>,
    /// Match owning uid.
    pub uid: Option<u32>,
    /// Match owning pid.
    pub pid: Option<u32>,
    /// Match DSCP.
    pub dscp: Option<u8>,
}

impl ClassifierRule {
    /// Returns `true` if `m` satisfies every present constraint.
    pub fn matches(&self, m: &ClassMatch) -> bool {
        let tuple_ok = |f: &dyn Fn(&FiveTuple) -> bool| match &m.tuple {
            Some(t) => f(t),
            // A rule constraining tuple fields cannot match tuple-less
            // packets (e.g. ARP).
            None => false,
        };
        if let Some(ip) = self.src_ip {
            if !tuple_ok(&|t| t.src_ip == ip) {
                return false;
            }
        }
        if let Some(ip) = self.dst_ip {
            if !tuple_ok(&|t| t.dst_ip == ip) {
                return false;
            }
        }
        if let Some(p) = self.src_port {
            if !tuple_ok(&|t| t.src_port == p) {
                return false;
            }
        }
        if let Some(p) = self.dst_port {
            if !tuple_ok(&|t| t.dst_port == p) {
                return false;
            }
        }
        if let Some(pr) = self.proto {
            if !tuple_ok(&|t| t.proto == pr) {
                return false;
            }
        }
        if let Some(uid) = self.uid {
            if m.uid != uid {
                return false;
            }
        }
        if let Some(pid) = self.pid {
            if m.pid != pid {
                return false;
            }
        }
        if let Some(dscp) = self.dscp {
            if m.dscp != dscp {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn m(tuple: Option<FiveTuple>, uid: u32) -> ClassMatch {
        ClassMatch {
            tuple,
            uid,
            ..ClassMatch::default()
        }
    }

    #[test]
    fn tuple_constraints_fail_on_arp() {
        // ARP has no tuple, so a port rule cannot match it.
        assert!(!ClassifierRule {
            dst_port: Some(22),
            ..ClassifierRule::default()
        }
        .matches(&m(None, 0)));
    }

    #[test]
    fn combined_constraints_all_required() {
        let t = FiveTuple::tcp(addr("10.0.0.1"), 5000, addr("10.0.0.2"), 22);
        let rule = ClassifierRule {
            dst_port: Some(22),
            proto: Some(IpProto::TCP),
            uid: Some(1001),
            ..ClassifierRule::default()
        };
        assert!(rule.matches(&m(Some(t), 1001)));
        assert!(!rule.matches(&m(Some(t), 1002))); // wrong uid
        let udp = FiveTuple::udp(addr("10.0.0.1"), 5000, addr("10.0.0.2"), 22);
        assert!(!rule.matches(&m(Some(udp), 1001))); // wrong proto
    }

    #[test]
    fn ip_and_dscp_matching() {
        let t = FiveTuple::udp(addr("192.168.0.5"), 1, addr("10.0.0.1"), 2);
        let rule = ClassifierRule {
            src_ip: Some(addr("192.168.0.5")),
            dscp: Some(0xB8),
            ..ClassifierRule::default()
        };
        let mut mm = m(Some(t), 0);
        mm.dscp = 0xB8;
        assert!(rule.matches(&mm));
        mm.dscp = 0;
        assert!(!rule.matches(&mm));
    }

    #[test]
    fn process_view_rules_need_binding() {
        // The "process view": unbound traffic (uid = MAX) never matches a
        // uid rule, mirroring why hypervisor-level interposition cannot
        // express such policies.
        let rule = ClassifierRule {
            uid: Some(1001),
            ..ClassifierRule::default()
        };
        assert!(!rule.matches(&ClassMatch::default()));
    }
}
