//! What stays analytic in the placement comparison (E1, E4b, T1).
//!
//! Kernel stack, raw bypass and KOPI are measured on the one `Host`
//! (`workloads::placement`). A dedicated-core sidecar (IX / Snap) and a
//! NIC-offloaded hypervisor switch (AccelNet) would each need a
//! mechanism the host does not have, so their costs are closed forms over
//! the same constants and their capabilities are the paper's claims,
//! asserted. Every row built from this file says so in its JSON.

use memsim::MemCosts;
use oskernel::StackCosts;
use sim::Dur;
use workloads::placement::Cost;

/// The five placements, in presentation order.
pub const NAMES: [&str; 5] = [
    "kernel-stack",
    "raw-bypass",
    "sidecar-core",
    "hypervisor-switch",
    "kopi",
];

/// What an interposition placement can and cannot do (§3's requirements).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Capabilities {
    /// Sees traffic of *all* applications on the host.
    pub global_view: bool,
    /// Can attribute traffic to (uid, pid, comm) and signal processes.
    pub process_view: bool,
    /// Applications cannot evade or tamper with the layer.
    pub isolated_from_app: bool,
    /// Supports blocking I/O (can detect arrivals and wake processes).
    pub blocking_io: bool,
    /// Can implement work-conserving cross-application shaping (WFQ).
    pub shaping: bool,
    /// Policies can be updated at software-development cadence.
    pub programmable: bool,
    /// Adds no per-packet kernel/copy cost to the data path.
    pub line_rate_datapath: bool,
}

impl Capabilities {
    /// The §3 requirement list as a score out of 6 (every column except
    /// `line_rate_datapath`, which is the performance side).
    pub fn policy_score(&self) -> u32 {
        [
            self.global_view,
            self.process_view,
            self.isolated_from_app,
            self.blocking_io,
            self.shaping,
            self.programmable,
        ]
        .iter()
        .filter(|&&b| b)
        .count() as u32
    }
}

/// The paper's claim for the placement called `name`, in field order.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn asserted(name: &str) -> Capabilities {
    let [global_view, process_view, isolated_from_app, blocking_io, shaping, programmable, line_rate_datapath] =
        match name {
            "kernel-stack" => [true, true, true, true, true, true, false],
            // The app can run anything — for itself only.
            "raw-bypass" => [false, false, false, false, false, true, true],
            // Burns a core and pays coherence traffic.
            "sidecar-core" => [true, true, true, true, true, true, false],
            // Sees VMs and ports, not processes, and cannot signal one;
            // shapes per port only, but work-conserving.
            "hypervisor-switch" => [true, false, true, false, true, true, true],
            "kopi" => [true; 7],
            other => panic!("no placement called {other}"),
        };
    Capabilities {
        global_view,
        process_view,
        isolated_from_app,
        blocking_io,
        shaping,
        programmable,
        line_rate_datapath,
    }
}

/// Ring operations per doorbell, `HostConfig`'s default.
const DOORBELL_BATCH: u64 = 4;
/// What one netfilter-style rule costs to scan, `oskernel::hooks`' value.
const PER_RULE: Dur = Dur::from_ns(25);

/// The terms of a sidecar frame, either direction: `[ring, coherence,
/// interpose, doorbell]`. One side of the staging ring touches the
/// descriptor and the payload in cache. The payload crosses cores: the
/// first line pays the full cache-to-cache latency, the rest stream behind
/// it at about LLC latency. The sidecar scans `rules` filter rules and
/// runs the protocol. The doorbell is a share of one per frame, so a
/// direction costs the same whatever it is interleaved with.
fn sidecar(bytes: usize, rules: u64) -> [Dur; 4] {
    let (mem, stack) = (MemCosts::default(), StackCosts::default());
    let lines = (bytes as u64).div_ceil(64).max(1);
    [
        mem.llc_hit * (1 + lines),
        mem.cross_core + mem.llc_hit * (lines - 1),
        PER_RULE * rules + stack.protocol,
        mem.mmio_write / DOORBELL_BATCH,
    ]
}

fn one_frame(app_core: Dur, other_core: Dur) -> Cost {
    Cost {
        frames: 1,
        delivered: 1,
        app_core,
        other_core,
        nic_latency: Dur::ZERO,
    }
}

/// Sidecar receive: NIC → sidecar ring → interposition → cross-core into
/// the application's cache, which pays the coherence miss and its
/// doorbell.
pub fn sidecar_rx(bytes: usize, rules: u64) -> Cost {
    let [ring, coherence, interpose, doorbell] = sidecar(bytes, rules);
    one_frame(coherence + doorbell, ring + interpose)
}

/// Sidecar send: the application produces into the ring and rings the
/// doorbell; the sidecar pays the coherence miss and interposes.
pub fn sidecar_tx(bytes: usize, rules: u64) -> Cost {
    let [ring, coherence, interpose, doorbell] = sidecar(bytes, rules);
    one_frame(ring + doorbell, coherence + interpose)
}

/// A hypervisor switch leaves the host side of raw bypass as it is and
/// adds a match-action stage on the NIC: its cost is *derived from* the
/// measured bypass run, not computed beside it.
pub fn hypervisor_switch(bypass: Cost) -> Cost {
    Cost {
        nic_latency: bypass.nic_latency + Dur::from_ns(100) * bypass.frames,
        ..bypass
    }
}

#[cfg(test)]
mod tests {
    //! The behaviours the twin's unit tests checked — there `kopi ==
    //! bypass` compared one `match` arm with itself — against the three
    //! measured placements, with the sidecar between them.

    use super::*;
    use norman::PortReservation;
    use workloads::placement::{partition_policy, Placement};
    use workloads::BOB;

    const N: u64 = 256;
    /// What on-NIC interposition may cost the host over none, per frame.
    /// It measures as zero — the host runs the same instructions — but the
    /// claim is a bound, not an identity.
    const KOPI_HOST_DELTA_MAX: Dur = Dur::from_ns(1);

    /// `(RX, TX)` on Postgres' flow: `[kernel stack, raw bypass, KOPI]`.
    fn measure(bytes: usize) -> [(Cost, Cost); 3] {
        Placement::all(&partition_policy()).map(|mut p| {
            let app = p.tb.postgres.clone();
            let (rx, tx) = (p.rx(&app, bytes, N), p.tx(&app, bytes, N));
            assert_eq!((rx.delivered, tx.delivered), (N, N), "{}", p.name);
            (rx, tx)
        })
    }

    fn delta(a: Dur, b: Dur) -> Dur {
        Dur(a.0.abs_diff(b.0))
    }

    fn ordering_holds_at(bytes: usize) {
        // §1: bypass ≈ KOPI < sidecar < kernel in host cost.
        let [kernel, bypass, kopi] = measure(bytes).map(|(rx, _)| rx.host() / N);
        let sidecar = sidecar_rx(bytes, 1).host();
        assert!(
            delta(kopi, bypass) <= KOPI_HOST_DELTA_MAX,
            "{bytes} B: kopi {kopi} vs bypass {bypass}"
        );
        assert!(kopi < sidecar, "kopi {kopi} vs sidecar {sidecar}");
        assert!(sidecar < kernel, "sidecar {sidecar} vs kernel {kernel}");
    }

    #[test]
    fn paper_ordering_holds_for_small_packets() {
        ordering_holds_at(64);
    }

    #[test]
    fn paper_ordering_holds_for_full_frames() {
        ordering_holds_at(1500);
    }

    #[test]
    fn kopi_pays_only_nic_latency() {
        let [_, (bypass, _), (kopi, _)] = measure(64);
        assert!(kopi.nic_latency > bypass.nic_latency);
        assert!(delta(kopi.app_core, bypass.app_core) <= KOPI_HOST_DELTA_MAX * N);
        // Neither ring placement spends kernel time on a frame.
        assert_eq!((kopi.other_core, bypass.other_core), (Dur::ZERO, Dur::ZERO));
    }

    #[test]
    fn kernel_cost_grows_with_packet_size_by_its_copy() {
        let [k_small, b_small, _] = measure(64).map(|(rx, _)| rx.host() / N);
        let [k_big, b_big, _] = measure(1500).map(|(rx, _)| rx.host() / N);
        assert!(k_big > k_small);
        assert!(b_big > b_small);
        // 1,436 more bytes through `copy_to_user` at 50 ps each.
        assert!(k_big - k_small > Dur::from_ns(50));
    }

    #[test]
    fn more_filter_rules_cost_kernel_but_not_kopi_host_time() {
        // 500 reservations are 1,000 rules a chain; the game's port is in
        // none of them, so its frames scan every one.
        let many: Vec<PortReservation> = (0..500)
            .map(|i| PortReservation::new(10_000 + i, BOB))
            .collect();
        let game = |mut p: Placement| {
            let app = p.tb.bob_game.clone();
            let c = p.rx(&app, 64, N);
            assert_eq!(c.delivered, N, "{}", p.name);
            (c.host() / N, c.nic_latency / N)
        };
        let k_before = game(Placement::kernel_stack(&[]));
        let k_after = game(Placement::kernel_stack(&many));
        assert!(k_after.0 > k_before.0 + Dur::from_us(20));
        let n_before = game(Placement::kopi(&[]));
        let n_after = game(Placement::kopi(&many));
        // KOPI's host cost is unchanged; only NIC latency grows.
        assert!(delta(n_after.0, n_before.0) <= Dur::from_ns(1));
        assert!(n_after.1 > n_before.1);
    }

    #[test]
    fn tx_costs_follow_same_ordering() {
        let [kernel, bypass, kopi] = measure(256).map(|(_, tx)| tx.host() / N);
        assert!(kopi < kernel, "kopi {kopi} vs kernel {kernel}");
        assert!(kopi < sidecar_tx(256, 1).host());
        assert!(delta(kopi, bypass) <= KOPI_HOST_DELTA_MAX);
    }

    #[test]
    fn sidecar_burns_another_core() {
        assert!(sidecar_rx(512, 8).other_core > Dur::ZERO);
        let [_, (bypass, _), _] = measure(512);
        assert_eq!(bypass.other_core, Dur::ZERO);
    }

    #[test]
    fn sidecar_doorbell_does_not_depend_on_interleaving() {
        // The artefact this replaces: one `ring_ops` counter with a batch
        // of 4 meant an alternating caller's RX ops were always odd and
        // never paid, its TX ops always even and always did.
        let alone = sidecar_rx(64, 8);
        let _ = sidecar_tx(64, 8);
        assert_eq!(sidecar_rx(64, 8), alone);
        let mem = MemCosts::default();
        assert_eq!(alone.app_core, mem.cross_core + mem.mmio_write / 4);
        assert_eq!(
            sidecar_tx(64, 8).app_core,
            mem.llc_hit * 2 + mem.mmio_write / 4
        );
    }

    #[test]
    fn hypervisor_switch_is_bypass_plus_nic_latency() {
        let [_, (bypass, _), _] = measure(256);
        let hv = hypervisor_switch(bypass);
        assert_eq!(hv.host(), bypass.host());
        assert_eq!(hv.nic_latency - bypass.nic_latency, Dur::from_ns(100) * N);
    }

    #[test]
    fn capability_matrix_matches_paper() {
        // KOPI, the kernel stack and the sidecar are the only placements
        // with *all* policy capabilities; only KOPI also keeps the fast
        // datapath.
        for name in NAMES {
            let c = asserted(name);
            match name {
                "kernel-stack" | "sidecar-core" => {
                    assert_eq!(c.policy_score(), 6);
                    assert!(!c.line_rate_datapath);
                }
                "raw-bypass" => {
                    assert!(!c.global_view);
                    assert!(!c.isolated_from_app);
                    assert!(c.line_rate_datapath);
                }
                "hypervisor-switch" => {
                    assert!(c.global_view);
                    assert!(
                        !c.process_view,
                        "AccelNet-style switches lack the process view"
                    );
                    assert!(!c.blocking_io);
                }
                _ => {
                    assert_eq!(c.policy_score(), 6);
                    assert!(c.line_rate_datapath);
                }
            }
        }
    }
}
