//! Netfilter-style hook chains with owner matching.
//!
//! The §2 port-partitioning policy is expressed in Linux as iptables
//! rules matching `cmd-owner` and `uid-owner` — possible only because
//! netfilter runs inside the kernel with the process table at hand. These
//! chains model `INPUT`/`OUTPUT` with exactly that power: one linear scan
//! over the rules, first match wins, and each rule scanned carries a
//! small cost, as in iptables.

use qdisc::classify::{ClassMatch, ClassifierRule};
use sim::Dur;

/// Rule verdicts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HookVerdict {
    /// Let the packet continue.
    Accept,
    /// Discard the packet.
    Drop,
}

/// One rule: a match spec (including uid/pid owner fields) plus a
/// verdict. The owner/comm fields make sense only on locally-originated
/// or locally-delivered traffic, as with iptables.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The match (reuses the classifier's matcher; its `class` field is
    /// ignored).
    pub matcher: ClassifierRule,
    /// Optional command-name owner match (`-m owner --cmd-owner`).
    pub(crate) comm: Option<String>,
    /// Verdict on match.
    pub(crate) verdict: HookVerdict,
}

impl Rule {
    /// Creates an accept-all/drop-all rule to build on.
    pub fn new(verdict: HookVerdict) -> Rule {
        Rule {
            matcher: ClassifierRule::default(),
            comm: None,
            verdict,
        }
    }

    fn matches(&self, m: &ClassMatch, comm: Option<&str>) -> bool {
        self.matcher.matches(m) && self.comm.as_deref().is_none_or(|want| comm == Some(want))
    }
}

/// An ordered chain with a default policy.
#[derive(Clone, Debug)]
pub struct Chain {
    rules: Vec<Rule>,
    default: HookVerdict,
    /// Per-rule evaluation cost.
    per_rule_cost: Dur,
    evaluated: u64,
    drops: u64,
}

impl Chain {
    /// Creates a chain with the given default policy and a 25 ns per-rule
    /// cost (cache-resident linear scan).
    pub(crate) fn new(default: HookVerdict) -> Chain {
        Chain {
            rules: Vec::new(),
            default,
            per_rule_cost: Dur::from_ns(25),
            evaluated: 0,
            drops: 0,
        }
    }

    /// Appends a rule.
    pub fn append(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Clears all rules.
    pub fn flush(&mut self) {
        self.rules.clear();
    }

    /// Returns the number of rules.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns (packets evaluated, packets dropped).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.drops)
    }

    /// Evaluates the chain over a packet, returning the verdict of the
    /// first matching rule (or the default) and the evaluation cost:
    /// rules scanned × per-rule cost.
    pub(crate) fn evaluate(&mut self, m: &ClassMatch, comm: Option<&str>) -> (HookVerdict, Dur) {
        self.evaluated += 1;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.matches(m, comm) {
                if rule.verdict == HookVerdict::Drop {
                    self.drops += 1;
                }
                return (
                    rule.verdict,
                    self.per_rule_cost.saturating_mul(i as u64 + 1),
                );
            }
        }
        (
            self.default,
            self.per_rule_cost.saturating_mul(self.rules.len() as u64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::FiveTuple;
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn match_for(dst_port: u16, uid: u32) -> ClassMatch {
        ClassMatch {
            tuple: Some(FiveTuple::tcp(
                addr("10.0.0.2"),
                40_000,
                addr("10.0.0.1"),
                dst_port,
            )),
            uid,
            pid: 1,
            mark: 0,
            dscp: 0,
        }
    }

    /// The §2 policy: only uid 1001's postgres may use port 5432.
    fn port_partition_chain() -> Chain {
        let mut chain = Chain::new(HookVerdict::Accept);
        // Rule 1: accept postgres owned by bob on 5432.
        let mut allow = Rule::new(HookVerdict::Accept);
        allow.matcher = ClassifierRule {
            dst_port: Some(5432),
            uid: Some(1001),
            ..ClassifierRule::default()
        };
        allow.comm = Some("postgres".to_string());
        chain.append(allow);
        // Rule 2: drop everything else on 5432.
        let mut deny = Rule::new(HookVerdict::Drop);
        deny.matcher = ClassifierRule {
            dst_port: Some(5432),
            ..ClassifierRule::default()
        };
        chain.append(deny);
        chain
    }

    #[test]
    fn owner_match_enforces_partition() {
        let mut chain = port_partition_chain();
        let (v, _) = chain.evaluate(&match_for(5432, 1001), Some("postgres"));
        assert_eq!(v, HookVerdict::Accept);
        // Charlie's process on the same port is dropped.
        let (v, _) = chain.evaluate(&match_for(5432, 1002), Some("mysqld"));
        assert_eq!(v, HookVerdict::Drop);
        // Bob running a different binary is also dropped (cmd-owner).
        let (v, _) = chain.evaluate(&match_for(5432, 1001), Some("netcat"));
        assert_eq!(v, HookVerdict::Drop);
        assert_eq!(chain.counters(), (3, 2));
    }

    #[test]
    fn unrelated_ports_hit_default() {
        let mut chain = port_partition_chain();
        let (v, cost) = chain.evaluate(&match_for(8080, 1002), Some("nginx"));
        assert_eq!(v, HookVerdict::Accept);
        // Scanned both rules.
        assert_eq!(cost, Dur::from_ns(50));
    }

    #[test]
    fn first_match_cost_is_lower() {
        let mut chain = port_partition_chain();
        let (_, cost) = chain.evaluate(&match_for(5432, 1001), Some("postgres"));
        assert_eq!(cost, Dur::from_ns(25));
    }

    #[test]
    fn flush_empties() {
        let mut chain = port_partition_chain();
        chain.flush();
        assert_eq!(chain.len(), 0);
        let (v, cost) = chain.evaluate(&match_for(5432, 1002), Some("mysqld"));
        assert_eq!(v, HookVerdict::Accept);
        assert_eq!(cost, Dur::ZERO);
    }

    #[test]
    fn default_drop_chain() {
        let mut chain = Chain::new(HookVerdict::Drop);
        let (v, _) = chain.evaluate(&match_for(1, 1), None);
        assert_eq!(v, HookVerdict::Drop);
    }
}
