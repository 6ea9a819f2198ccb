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

/// One classification rule: all present fields must match.
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
    /// Creates a rule with no constraints (matches everything).
    pub fn any() -> ClassifierRule {
        ClassifierRule::default()
    }

    /// Builder: match on uid.
    pub fn match_uid(mut self, uid: u32) -> Self {
        self.uid = Some(uid);
        self
    }

    /// Builder: match on destination port.
    pub fn match_dst_port(mut self, port: u16) -> Self {
        self.dst_port = Some(port);
        self
    }

    /// Builder: match on source port.
    pub fn match_src_port(mut self, port: u16) -> Self {
        self.src_port = Some(port);
        self
    }

    /// Builder: match on protocol.
    #[cfg(test)]
    pub(crate) fn match_proto(mut self, proto: IpProto) -> Self {
        self.proto = Some(proto);
        self
    }

    /// Builder: match on DSCP.
    #[cfg(test)]
    pub(crate) fn match_dscp(mut self, dscp: u8) -> Self {
        self.dscp = Some(dscp);
        self
    }

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
        assert!(!ClassifierRule::any()
            .match_dst_port(22)
            .matches(&m(None, 0)));
    }

    #[test]
    fn combined_constraints_all_required() {
        let t = FiveTuple::tcp(addr("10.0.0.1"), 5000, addr("10.0.0.2"), 22);
        let rule = ClassifierRule::any()
            .match_dst_port(22)
            .match_proto(IpProto::TCP)
            .match_uid(1001);
        assert!(rule.matches(&m(Some(t), 1001)));
        assert!(!rule.matches(&m(Some(t), 1002))); // wrong uid
        let udp = FiveTuple::udp(addr("10.0.0.1"), 5000, addr("10.0.0.2"), 22);
        assert!(!rule.matches(&m(Some(udp), 1001))); // wrong proto
    }

    #[test]
    fn ip_and_dscp_matching() {
        let t = FiveTuple::udp(addr("192.168.0.5"), 1, addr("10.0.0.1"), 2);
        let mut rule = ClassifierRule::any().match_dscp(0xB8);
        rule.src_ip = Some(addr("192.168.0.5"));
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
        let rule = ClassifierRule::any().match_uid(1001);
        assert!(!rule.matches(&ClassMatch::default()));
    }
}
