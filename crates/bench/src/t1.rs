//! T1 — the capability matrix (the paper's implicit table).
//!
//! §2 and §3 argue each interposition placement by capability:
//! global view, process view, isolation, blocking I/O, shaping,
//! programmability, and a fast datapath. The matrix is the paper's claim
//! (`crate::arch::asserted`); for the three placements the one `Host` can
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

use serde::Serialize;
use workloads::placement::{partition_policy, Placement};

use crate::{arch, claim, Mode, Outcome};

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

pub(crate) fn run(_: Mode) -> Outcome {
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

    let mut agree = true;
    let mut rows = Vec::new();
    for name in arch::NAMES {
        let mut cell = |column, claimed| match probed.get(&(name, column)) {
            Some(&has) => {
                agree &= has == claimed;
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
        let paper = arch::asserted(name);
        rows.push(Row {
            architecture: name,
            global_view: cell("global_view", paper.global_view),
            process_view: cell("process_view", paper.process_view),
            isolated: cell("isolated", paper.isolated_from_app),
            blocking_io: cell("blocking_io", paper.blocking_io),
            shaping: cell("shaping", paper.shaping),
            programmable: cell("programmable", paper.programmable),
            line_rate: cell("line_rate", paper.line_rate_datapath),
            // A probed cell that disagrees fails `t1/probes-agree-with-paper`,
            // so the paper's score is the row's.
            policy_score: paper.policy_score(),
        });
    }

    // The paper's thesis, as a predicate: KOPI is the only row with a
    // full policy score AND a fast datapath.
    let full_and_fast: Vec<&str> = rows
        .iter()
        .filter(|r| r.policy_score == 6 && r.line_rate.has)
        .map(|r| r.architecture)
        .collect();
    let claims = vec![
        claim("t1/probes-agree-with-paper", agree),
        // Raw bypass fails where its recipe configured nothing privileged
        // to observe or refuse, and nowhere else.
        claim(
            "t1/bypass-fails-process-view-and-isolation-only",
            !probed[&("raw-bypass", "process_view")]
                && !probed[&("raw-bypass", "isolated")]
                && probed[&("raw-bypass", "line_rate")],
        ),
        claim("t1/kopi-alone-full-and-fast", full_and_fast == ["kopi"]),
    ];
    Outcome::new(&rows, claims)
}
