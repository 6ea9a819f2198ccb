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
//! measured bypass run (`crate::arch`). Expected shape: KOPI ≈ raw bypass
//! (the delta a number, not a definition) < sidecar < kernel; KOPI pays
//! pipelined NIC latency instead.

use serde::Serialize;
use workloads::placement::{partition_policy, Cost, Placement};

use crate::{arch, claim, Mode, Outcome};

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

pub(crate) fn run(_: Mode) -> Outcome {
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
        // Per-frame host cost in whole picoseconds, so a delta is exact.
        let host_ps = |c: Cost| (c.host() / c.frames).0 as f64;
        let mut push = |arch, source, (rx, tx): (Cost, Cost)| {
            rows.push(Row {
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
            });
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
    }

    // The "who wins" the paper predicts, at every size.
    let row = |arch: &str, bytes: usize| {
        rows.iter()
            .find(|r| r.arch == arch && r.frame_bytes == bytes)
            .unwrap()
    };
    let claims = vec![
        claim(
            "e1/kopi-within-1ns-of-bypass",
            sizes
                .iter()
                .all(|&b| row("kopi", b).host_delta_vs_bypass_ns.abs() <= KOPI_HOST_DELTA_MAX_NS),
        ),
        claim(
            "e1/kopi-pays-nic-latency",
            sizes
                .iter()
                .all(|&b| row("kopi", b).nic_latency_ns > row("raw-bypass", b).nic_latency_ns),
        ),
        claim(
            "e1/kopi-rx-below-sidecar",
            sizes.iter().all(|&b| {
                row("kopi", b).rx_total_host_ns < row("sidecar-core", b).rx_total_host_ns
            }),
        ),
        claim(
            "e1/sidecar-rx-below-kernel",
            sizes.iter().all(|&b| {
                row("sidecar-core", b).rx_total_host_ns < row("kernel-stack", b).rx_total_host_ns
            }),
        ),
        claim(
            "e1/kopi-tx-below-kernel",
            sizes.iter().all(|&b| {
                row("kopi", b).tx_total_host_ns < row("kernel-stack", b).tx_total_host_ns
            }),
        ),
    ];
    Outcome::new(&rows, claims)
}
