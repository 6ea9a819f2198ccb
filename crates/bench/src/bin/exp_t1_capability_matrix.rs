//! T1 — the capability matrix (the paper's implicit table).
//!
//! §2 and §3 argue each interposition placement by capability:
//! global view, process view, isolation, blocking I/O, shaping,
//! programmability, and a fast datapath. The matrix is the paper's claim
//! (`bench::arch::asserted`); for the three placements the one `Host` can
//! take, three of its columns are instead the outcome of a probe that
//! drives and reads that placement (`workloads::placement`) and can fail:
//!
//! * process view — does the operator's trace attribute an ARP flood to
//!   the flooder's pid?
//! * isolation — is E4b's attack refused, and does the application's
//!   write to the NIC's command register fault?
//! * fast datapath — does a received frame cost the host one transfer?
//!
//! Every cell says which it is: `probed` or `asserted`.

use std::collections::HashMap;

use bench::arch;
use serde::Serialize;
use workloads::placement::{partition_policy, Placement};

#[derive(Serialize)]
struct Cell {
    has: bool,
    source: &'static str,
}

#[derive(Serialize)]
struct Row {
    architecture: &'static str,
    global_view: Cell,
    process_view: Cell,
    isolated: Cell,
    blocking_io: Cell,
    shaping: Cell,
    programmable: Cell,
    line_rate: Cell,
    policy_score: u32,
}

fn main() {
    println!("T1: interposition capability matrix (paper §2/§3)\n");

    // Each probe runs on a placement of its own.
    type Probe = fn(&mut Placement) -> bool;
    let policy = partition_policy();
    let mut probed = HashMap::new();
    for (column, probe) in [
        ("process_view", Placement::process_view as Probe),
        ("isolated", Placement::isolated),
        ("line_rate", Placement::fast_datapath),
    ] {
        for mut p in Placement::all(&policy) {
            probed.insert((p.name, column), probe(&mut p));
        }
    }
    assert_eq!(probed.len(), 9);

    let mut rows = Vec::new();
    for name in arch::NAMES {
        let cell = |column, claimed| match probed.get(&(name, column)) {
            Some(&has) => {
                assert_eq!(has, claimed, "{name} {column}: probe against the paper");
                Cell {
                    has,
                    source: "probed",
                }
            }
            None => Cell {
                has: claimed,
                source: "asserted",
            },
        };
        let claim = arch::asserted(name);
        rows.push(Row {
            architecture: name,
            global_view: cell("global_view", claim.global_view),
            process_view: cell("process_view", claim.process_view),
            isolated: cell("isolated", claim.isolated_from_app),
            blocking_io: cell("blocking_io", claim.blocking_io),
            shaping: cell("shaping", claim.shaping),
            programmable: cell("programmable", claim.programmable),
            line_rate: cell("line_rate", claim.line_rate_datapath),
            // Every probed cell equals its claim, so the claim's score is
            // the row's.
            policy_score: claim.policy_score(),
        });
    }

    let mut table = bench::Table::new(
        "T1 — capability matrix (* = probed on Host, otherwise asserted)",
        &[
            "architecture",
            "global view",
            "process view",
            "isolated",
            "blocking io",
            "shaping",
            "programmable",
            "fast datapath",
            "score/6",
        ],
    );
    let show = |c: &Cell| {
        let mark = if c.source == "probed" { "*" } else { "" };
        format!("{}{mark}", if c.has { "yes" } else { "-" })
    };
    for r in &rows {
        table.row(&[
            r.architecture.to_string(),
            show(&r.global_view),
            show(&r.process_view),
            show(&r.isolated),
            show(&r.blocking_io),
            show(&r.shaping),
            show(&r.programmable),
            show(&r.line_rate),
            r.policy_score.to_string(),
        ]);
    }
    table.print();

    // Raw bypass fails where its recipe configured nothing privileged to
    // observe or refuse, and nowhere else.
    assert!(!probed[&("raw-bypass", "process_view")]);
    assert!(!probed[&("raw-bypass", "isolated")]);
    assert!(probed[&("raw-bypass", "line_rate")]);

    // The paper's thesis, as a predicate: KOPI is the only row with a
    // full policy score AND a fast datapath.
    let full_and_fast: Vec<&Row> = rows
        .iter()
        .filter(|r| r.policy_score == 6 && r.line_rate.has)
        .collect();
    assert_eq!(full_and_fast.len(), 1);
    assert_eq!(full_and_fast[0].architecture, "kopi");
    println!("\nShape check PASSED: all 9 probes agree with the paper's table; KOPI is the");
    println!("unique placement with every §3 capability AND an uncompromised datapath —");
    println!("the paper's thesis as a predicate.");

    bench::write_json("exp_t1_capability_matrix", &rows);
}
