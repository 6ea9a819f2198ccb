//! E4b — the port-partitioning scenario: owner-based port policy.
//!
//! Paper anchor (§2, Partitioning Ports): "only Postgres instances run
//! by Bob can send or receive traffic on port 5432, and only MySQL
//! instances run by Charlie can send or receive traffic on port 3306
//! … In a kernel bypass setup, Alice cannot enforce such a policy …
//! Interposing at the network or hypervisor level also cannot enforce
//! this policy since neither is able to determine what process a packet
//! originated at."
//!
//! We install the policy under each placement and attack it from
//! Charlie's process (opening 5432, then spoofing sends from 5432),
//! counting policy violations that reach the wire. Kernel stack, raw
//! bypass and KOPI are runs of that one attack on a `Host`
//! (`workloads::placement`); the other two rows are asserted from the
//! paper's capability claims (`crate::arch`).

use serde::Serialize;
use workloads::placement::{partition_policy, Placement};

use crate::{arch, claim, Mode, Outcome};

#[derive(Serialize)]
struct Row {
    architecture: &'static str,
    source: &'static str,
    legit_delivered: u64,
    violations_delivered: u64,
    legit_blocked: u64,
    enforceable: bool,
}

const ATTEMPTS: u64 = 100;

/// Runs the attack against a placement the host can take.
fn run_measured(mut p: Placement) -> Row {
    let attack = p.port_attack(ATTEMPTS);
    Row {
        architecture: p.name,
        source: "measured",
        legit_delivered: attack.legit_delivered,
        violations_delivered: attack.violations,
        legit_blocked: ATTEMPTS - attack.legit_delivered,
        enforceable: attack.grab_refused
            && attack.violations == 0
            && attack.legit_delivered == ATTEMPTS,
    }
}

/// The other placements by their claimed capabilities: enforcing the
/// owner policy takes both isolation and the process view. The sidecar
/// has both. The hypervisor can block the *port* but cannot tell Bob's
/// postgres from Charlie's process: it blocks port 5432 for the whole
/// host (legitimate Bob traffic also dies) or allows it for the whole
/// host. Take the conservative block: no violations, all legitimate
/// traffic lost.
fn run_asserted(name: &'static str) -> Row {
    let caps = arch::asserted(name);
    let enforceable = caps.process_view && caps.isolated_from_app;
    let legit_delivered = if enforceable { ATTEMPTS } else { 0 };
    Row {
        architecture: name,
        source: "asserted",
        legit_delivered,
        violations_delivered: 0,
        legit_blocked: ATTEMPTS - legit_delivered,
        enforceable,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let [kernel, bypass, kopi] = Placement::all(&partition_policy()).map(run_measured);
    let rows = [
        kopi,
        kernel,
        bypass,
        run_asserted("sidecar-core"),
        run_asserted("hypervisor-switch"),
    ];

    let row = |name: &str| rows.iter().find(|r| r.architecture == name).unwrap();
    let exact = |name: &str| {
        let r = row(name);
        r.violations_delivered == 0 && r.legit_delivered == ATTEMPTS && r.enforceable
    };
    let bypass = row("raw-bypass");
    let claims = vec![
        claim("e4b/kopi-enforces-exactly", exact("kopi")),
        claim("e4b/kernel-enforces-exactly", exact("kernel-stack")),
        claim(
            "e4b/bypass-lets-every-violation-through",
            bypass.violations_delivered == ATTEMPTS && !bypass.enforceable,
        ),
        claim(
            "e4b/hypervisor-can-only-over-block",
            row("hypervisor-switch").legit_blocked > 0,
        ),
    ];
    Outcome::new(&rows, claims)
}
