//! E1 — per-packet overhead of the five interposition placements.
//!
//! Paper anchor: §1's data-movement argument. Kernel bypass "reduc\[es\]
//! data movement when sending or receiving packets, from two transfers
//! (application, to interposition layer, to NIC) to one (application to
//! NIC)"; virtual movement (syscall+copy) and physical movement
//! (cross-core) both cost. Kernel stack, raw bypass and KOPI are three
//! recipes over one `Host` (`workloads::placement`), charged the way
//! normanbench's `sim_*` rows are, RX and TX in separate phases; the
//! sidecar is a closed form and the hypervisor switch is derived from the
//! measured bypass run (`bench::arch`). Expected shape: KOPI ≈ raw bypass
//! (the delta a number, not a definition) < sidecar < kernel; KOPI pays
//! pipelined NIC latency instead.

use bench::arch;
use serde::Serialize;
use workloads::placement::{partition_policy, Cost, Placement};

#[derive(Serialize)]
struct Row {
    arch: &'static str,
    source: &'static str,
    frame_bytes: usize,
    rx_app_core_ns: f64,
    rx_other_core_ns: f64,
    rx_total_host_ns: f64,
    tx_total_host_ns: f64,
    nic_latency_ns: f64,
    per_core_mpps: f64,
    host_delta_vs_bypass_ns: f64,
}

/// Frames per phase.
const N: u64 = 512;
/// Rules the measured flow scans in a chain: Postgres' port is the
/// policy's first reservation, so its accept rule is the first.
const RULES_SCANNED: u64 = 1;
/// What interposing on the NIC may cost the host over not interposing.
const KOPI_HOST_DELTA_MAX_NS: f64 = 1.0;

fn main() {
    println!("E1: per-packet cost of interposition placements (paper §1/§2)");
    println!("(measured = run on Host; analytic = closed form / derived from the bypass run)");
    let sizes = [64usize, 256, 512, 1024, 1500];
    let policy = partition_policy();
    let mut rows = Vec::new();

    for &bytes in &sizes {
        let [kernel, bypass, kopi] = Placement::all(&policy).map(|mut p| {
            let app = p.tb.postgres.clone();
            let (rx, tx) = (p.rx(&app, bytes, N), p.tx(&app, bytes, N));
            assert_eq!((rx.delivered, tx.delivered), (N, N), "{}", p.name);
            (rx, tx)
        });
        let mut table = bench::Table::new(
            &format!("E1 — {bytes}-byte frames"),
            &[
                "architecture",
                "source",
                "rx app-core (ns)",
                "rx other-core (ns)",
                "rx host total (ns)",
                "tx host total (ns)",
                "NIC latency (ns)",
                "Mpps/core",
            ],
        );
        // Per-frame host cost in whole picoseconds, so a delta prints exactly.
        let host_ps = |c: Cost| (c.host() / c.frames).0 as f64;
        let mut push = |arch, source, (rx, tx): (Cost, Cost)| {
            let row = Row {
                arch,
                source,
                frame_bytes: bytes,
                rx_app_core_ns: rx.per_frame_ns(rx.app_core),
                rx_other_core_ns: rx.per_frame_ns(rx.other_core),
                rx_total_host_ns: rx.per_frame_ns(rx.host()),
                tx_total_host_ns: tx.per_frame_ns(tx.host()),
                nic_latency_ns: rx.per_frame_ns(rx.nic_latency),
                per_core_mpps: 1e3 / rx.per_frame_ns(rx.app_core),
                host_delta_vs_bypass_ns: (host_ps(rx) - host_ps(bypass.0)) / 1e3,
            };
            table.row(&[
                arch.to_string(),
                source.to_string(),
                format!("{:.0}", row.rx_app_core_ns),
                format!("{:.0}", row.rx_other_core_ns),
                format!("{:.0}", row.rx_total_host_ns),
                format!("{:.0}", row.tx_total_host_ns),
                format!("{:.0}", row.nic_latency_ns),
                format!("{:.1}", row.per_core_mpps),
            ]);
            rows.push(row);
        };
        // The sidecar sits behind a plain NIC: bypass's measured latency.
        let sidecar_rx = Cost {
            nic_latency: bypass.0.nic_latency / N,
            ..arch::sidecar_rx(bytes, RULES_SCANNED)
        };
        let sidecar = (sidecar_rx, arch::sidecar_tx(bytes, RULES_SCANNED));
        let hypervisor = (
            arch::hypervisor_switch(bypass.0),
            arch::hypervisor_switch(bypass.1),
        );
        push("kernel-stack", "measured", kernel);
        push("raw-bypass", "measured", bypass);
        push("sidecar-core", "analytic", sidecar);
        push("hypervisor-switch", "analytic", hypervisor);
        push("kopi", "measured", kopi);
        table.print();
    }

    // Shape assertions (the "who wins" the paper predicts).
    let row = |arch: &str, bytes: usize| {
        rows.iter()
            .find(|r| r.arch == arch && r.frame_bytes == bytes)
            .unwrap()
    };
    println!("\nKOPI − raw-bypass, measured on Host (bound: host ≤ {KOPI_HOST_DELTA_MAX_NS} ns):");
    for &bytes in &sizes {
        let (kopi, bypass) = (row("kopi", bytes), row("raw-bypass", bytes));
        println!(
            "  {bytes:>4} B: host {:+.3} ns, NIC latency {:+.0} ns",
            kopi.host_delta_vs_bypass_ns,
            kopi.nic_latency_ns - bypass.nic_latency_ns
        );
        assert!(kopi.host_delta_vs_bypass_ns.abs() <= KOPI_HOST_DELTA_MAX_NS);
        assert!(kopi.nic_latency_ns > bypass.nic_latency_ns);
        assert!(kopi.rx_total_host_ns < row("sidecar-core", bytes).rx_total_host_ns);
        assert!(
            row("sidecar-core", bytes).rx_total_host_ns
                < row("kernel-stack", bytes).rx_total_host_ns
        );
        assert!(kopi.tx_total_host_ns < row("kernel-stack", bytes).tx_total_host_ns);
    }
    println!("\nShape check PASSED: kopi ≈ raw-bypass < sidecar-core < kernel-stack (all sizes)");

    bench::write_json("exp_e1_datapaths", &rows);
}
