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
//! paper's capability claims (`bench::arch`).

use bench::arch;
use serde::Serialize;
use workloads::placement::{partition_policy, Placement};

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

fn main() {
    println!("E4b: owner-based port partitioning (paper §2, Partitioning Ports)");
    println!("(policy: port 5432 = Bob's postgres only; attacker: Charlie, 100 attempts)\n");

    let [kernel, bypass, kopi] = Placement::all(&partition_policy()).map(run_measured);
    let rows = [
        kopi,
        kernel,
        bypass,
        run_asserted("sidecar-core"),
        run_asserted("hypervisor-switch"),
    ];

    let mut table = bench::Table::new(
        "E4b — policy enforcement by architecture",
        &[
            "architecture",
            "source",
            "legit delivered",
            "violations delivered",
            "legit blocked",
            "enforceable",
        ],
    );
    for r in &rows {
        table.row(&[
            r.architecture.to_string(),
            r.source.to_string(),
            r.legit_delivered.to_string(),
            r.violations_delivered.to_string(),
            r.legit_blocked.to_string(),
            if r.enforceable { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.print();

    let row = |name: &str| rows.iter().find(|r| r.architecture == name).unwrap();
    for name in ["kopi", "kernel-stack"] {
        let r = row(name);
        assert_eq!(
            r.violations_delivered, 0,
            "{name} lets no violation through"
        );
        assert_eq!(
            r.legit_delivered, ATTEMPTS,
            "{name} passes legitimate traffic"
        );
        assert!(r.enforceable);
    }
    let bypass = row("raw-bypass");
    assert_eq!(bypass.violations_delivered, ATTEMPTS);
    assert!(!bypass.enforceable);
    assert!(
        row("hypervisor-switch").legit_blocked > 0,
        "hypervisor can only over-block"
    );
    println!("\nShape check PASSED: only process-view architectures (kernel, sidecar, KOPI)");
    println!("enforce the policy exactly; KOPI does so without touching the fast path.");

    bench::write_json("exp_e4b_port_partition", &rows);
}
