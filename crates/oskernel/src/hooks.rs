//! Netfilter-style hook chains with owner matching.
//!
//! The §2 port-partitioning policy is expressed in Linux as iptables
//! rules matching `cmd-owner` and `uid-owner` — possible only because
//! netfilter runs inside the kernel with the process table at hand. These
//! chains model `INPUT`/`OUTPUT` with exactly that power, and each rule
//! evaluation carries a small per-rule cost (linear scan, as in
//! iptables).
//!
//! Like the NIC overlay, chains execute through an ahead-of-time
//! compiled form: on first evaluation each rule is lowered to the list
//! of field predicates it actually constrains (a rule matching only
//! `dst_port` tests one closure, not eight `Option` branches), the
//! kernel analogue of nftables' bytecode-over-linear-rules design. The
//! original linear scan survives as [`Chain::evaluate_interp`], the
//! differential-testing oracle — both paths must return identical
//! verdicts, costs, and counters on every packet.

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

    #[cfg(test)]
    fn matches(&self, m: &ClassMatch, comm: Option<&str>) -> bool {
        if !self.matcher.matches(m) {
            return false;
        }
        if let Some(want) = &self.comm {
            if comm != Some(want.as_str()) {
                return false;
            }
        }
        true
    }
}

/// One rule predicate in compiled form: a specialized closure over the
/// packet metadata and (optionally) the owning command name.
type Pred = Box<dyn Fn(&ClassMatch, Option<&str>) -> bool>;

/// A rule lowered to exactly the predicates it constrains. All must
/// hold for the rule to fire.
struct CompiledRule {
    preds: Vec<Pred>,
    verdict: HookVerdict,
}

impl CompiledRule {
    fn lower(rule: &Rule) -> CompiledRule {
        let mut preds: Vec<Pred> = Vec::new();
        let r = &rule.matcher;
        // Tuple-field constraints cannot match tuple-less packets (ARP),
        // same contract as `ClassifierRule::matches`.
        if let Some(ip) = r.src_ip {
            preds.push(Box::new(move |m, _| {
                m.tuple.as_ref().is_some_and(|t| t.src_ip == ip)
            }));
        }
        if let Some(ip) = r.dst_ip {
            preds.push(Box::new(move |m, _| {
                m.tuple.as_ref().is_some_and(|t| t.dst_ip == ip)
            }));
        }
        if let Some(p) = r.src_port {
            preds.push(Box::new(move |m, _| {
                m.tuple.as_ref().is_some_and(|t| t.src_port == p)
            }));
        }
        if let Some(p) = r.dst_port {
            preds.push(Box::new(move |m, _| {
                m.tuple.as_ref().is_some_and(|t| t.dst_port == p)
            }));
        }
        if let Some(pr) = r.proto {
            preds.push(Box::new(move |m, _| {
                m.tuple.as_ref().is_some_and(|t| t.proto == pr)
            }));
        }
        if let Some(uid) = r.uid {
            preds.push(Box::new(move |m, _| m.uid == uid));
        }
        if let Some(pid) = r.pid {
            preds.push(Box::new(move |m, _| m.pid == pid));
        }
        if let Some(dscp) = r.dscp {
            preds.push(Box::new(move |m, _| m.dscp == dscp));
        }
        if let Some(want) = rule.comm.clone() {
            preds.push(Box::new(move |_, comm| comm == Some(want.as_str())));
        }
        CompiledRule {
            preds,
            verdict: rule.verdict,
        }
    }

    fn matches(&self, m: &ClassMatch, comm: Option<&str>) -> bool {
        self.preds.iter().all(|p| p(m, comm))
    }
}

/// An ordered chain with a default policy.
pub struct Chain {
    /// Chain name ("INPUT", "OUTPUT").
    pub(crate) name: String,
    rules: Vec<Rule>,
    default: HookVerdict,
    /// Per-rule evaluation cost.
    per_rule_cost: Dur,
    evaluated: u64,
    drops: u64,
    /// Lowered rule list, rebuilt lazily after `append`/`flush`.
    compiled: Option<Vec<CompiledRule>>,
}

impl Clone for Chain {
    fn clone(&self) -> Chain {
        // The compiled form is derived state; the clone re-lowers on its
        // next evaluation.
        Chain {
            name: self.name.clone(),
            rules: self.rules.clone(),
            default: self.default,
            per_rule_cost: self.per_rule_cost,
            evaluated: self.evaluated,
            drops: self.drops,
            compiled: None,
        }
    }
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("name", &self.name)
            .field("rules", &self.rules)
            .field("default", &self.default)
            .field("per_rule_cost", &self.per_rule_cost)
            .field("evaluated", &self.evaluated)
            .field("drops", &self.drops)
            .field("compiled", &self.compiled.is_some())
            .finish()
    }
}

impl Chain {
    /// Creates a chain with the given default policy and a 25 ns per-rule
    /// cost (cache-resident linear scan).
    pub(crate) fn new(name: &str, default: HookVerdict) -> Chain {
        Chain {
            name: name.to_string(),
            rules: Vec::new(),
            default,
            per_rule_cost: Dur::from_ns(25),
            evaluated: 0,
            drops: 0,
            compiled: None,
        }
    }

    /// Appends a rule, invalidating the compiled form.
    pub fn append(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.compiled = None;
    }

    /// Clears all rules, invalidating the compiled form.
    pub fn flush(&mut self) {
        self.rules.clear();
        self.compiled = None;
    }

    /// Returns whether the chain currently holds a lowered rule list.
    #[cfg(test)]
    pub(crate) fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Returns the number of rules.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the chain has no rules.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Returns (packets evaluated, packets dropped).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.drops)
    }

    /// Evaluates the chain over a packet through the compiled rule
    /// list (lowering it first if rules changed), returning the verdict
    /// and the evaluation cost (rules scanned × per-rule cost). Cost
    /// accounting is identical to the interpreted scan: the lowering
    /// specializes *what* each rule tests, not the iptables linear-walk
    /// cost model.
    pub(crate) fn evaluate(&mut self, m: &ClassMatch, comm: Option<&str>) -> (HookVerdict, Dur) {
        if self.compiled.is_none() {
            self.compiled = Some(self.rules.iter().map(CompiledRule::lower).collect());
        }
        self.evaluated += 1;
        let compiled = self.compiled.as_ref().expect("lowered above");
        for (i, rule) in compiled.iter().enumerate() {
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

    /// The original interpreted linear scan, kept as the differential
    /// oracle for [`Chain::evaluate`]: identical verdicts, costs, and
    /// counter updates, straight off the un-lowered [`Rule`] list.
    #[cfg(test)]
    pub(crate) fn evaluate_interp(
        &mut self,
        m: &ClassMatch,
        comm: Option<&str>,
    ) -> (HookVerdict, Dur) {
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
        let mut chain = Chain::new("INPUT", HookVerdict::Accept);
        // Rule 1: accept postgres owned by bob on 5432.
        let mut allow = Rule::new(HookVerdict::Accept);
        allow.matcher = ClassifierRule::any().match_dst_port(5432).match_uid(1001);
        allow.comm = Some("postgres".to_string());
        chain.append(allow);
        // Rule 2: drop everything else on 5432.
        let mut deny = Rule::new(HookVerdict::Drop);
        deny.matcher = ClassifierRule::any().match_dst_port(5432);
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
        assert!(chain.is_empty());
        let (v, cost) = chain.evaluate(&match_for(5432, 1002), Some("mysqld"));
        assert_eq!(v, HookVerdict::Accept);
        assert_eq!(cost, Dur::ZERO);
    }

    #[test]
    fn default_drop_chain() {
        let mut chain = Chain::new("INPUT", HookVerdict::Drop);
        let (v, _) = chain.evaluate(&match_for(1, 1), None);
        assert_eq!(v, HookVerdict::Drop);
    }

    #[test]
    fn append_invalidates_compiled_form() {
        let mut chain = port_partition_chain();
        assert!(!chain.is_compiled());
        let (v, _) = chain.evaluate(&match_for(5432, 1002), Some("mysqld"));
        assert_eq!(v, HookVerdict::Drop);
        assert!(chain.is_compiled());
        // A rule appended after lowering must take effect on the next
        // packet: accept uid 1002 on 5432 ahead of nothing — it lands
        // after the deny, so instead append a broader accept for 9999.
        let mut allow = Rule::new(HookVerdict::Accept);
        allow.matcher = ClassifierRule::any().match_dst_port(9999).match_uid(1002);
        chain.append(allow);
        assert!(!chain.is_compiled());
        let (v, _) = chain.evaluate(&match_for(9999, 1002), Some("mysqld"));
        assert_eq!(v, HookVerdict::Accept);
    }

    /// Differential oracle: the compiled path and the interpreted scan
    /// must agree on verdict, cost, and counters over randomized chains
    /// and packet streams.
    #[test]
    fn compiled_matches_interpreter_on_random_chains() {
        struct XorShift(u64);
        impl XorShift {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let comms = ["postgres", "mysqld", "nginx", "netcat"];
        for _ in 0..50 {
            let default = if rng.below(2) == 0 {
                HookVerdict::Accept
            } else {
                HookVerdict::Drop
            };
            let mut chain = Chain::new("FUZZ", default);
            for _ in 0..rng.below(6) {
                let verdict = if rng.below(2) == 0 {
                    HookVerdict::Accept
                } else {
                    HookVerdict::Drop
                };
                let mut rule = Rule::new(verdict);
                let mut m = ClassifierRule::any();
                if rng.below(2) == 0 {
                    m = m.match_dst_port(5000 + rng.below(4) as u16);
                }
                if rng.below(2) == 0 {
                    m = m.match_uid(1000 + rng.below(4) as u32);
                }
                rule.matcher = m;
                if rng.below(3) == 0 {
                    rule.comm = Some(comms[rng.below(4) as usize].to_string());
                }
                chain.append(rule);
            }
            let mut oracle = chain.clone();
            for _ in 0..40 {
                let m = match_for(5000 + rng.below(4) as u16, 1000 + rng.below(4) as u32);
                let comm = if rng.below(4) == 0 {
                    None
                } else {
                    Some(comms[rng.below(4) as usize])
                };
                assert_eq!(chain.evaluate(&m, comm), oracle.evaluate_interp(&m, comm));
                assert_eq!(chain.counters(), oracle.counters());
            }
        }
    }
}
