//! What only the measured placements can say (`workloads::placement`):
//! that E1, E7 and normanbench read one cost model, that T1's probes and
//! E4b's attack fail under raw bypass and nowhere else, and that each
//! recipe configures what it says. The placement *ordering* — the
//! behaviours the analytic twin's unit tests checked — is in
//! `bench::arch`'s tests, where the sidecar's closed form is in reach.

use std::net::Ipv4Addr;

use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::{IpProto, Mac, PacketBuilder};
use workloads::placement::{partition_policy, rx_cost, Attack, Cost, Flow, Placement, HEADERS};

/// The number following `"key":` after the first `anchor` in a JSON text.
fn number_after(path: &str, anchor: &str, key: &str) -> f64 {
    let path = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let key = format!("\"{key}\":");
    let from = text.find(anchor).expect("anchor");
    let rest = &text[from + text[from..].find(&key).expect("key") + key.len()..];
    let end = rest.find([',', '\n', '}']).expect("end of value");
    rest[..end].trim().parse().expect("a number")
}

fn host_ns(c: Cost) -> f64 {
    c.per_frame_ns(c.host())
}

#[test]
fn a_64_byte_frame_costs_49_or_61_by_where_its_payload_starts() {
    // normanbench's `rx_fast`: 64-slot rings, so the slots start on a line
    // boundary and a 64 B frame is one payload line.
    let mut host = Host::new(HostConfig {
        ring_slots: 64,
        ..HostConfig::default()
    });
    let remote = Ipv4Addr::new(10, 0, 0, 2);
    let pid = host.spawn(Uid(1001), "bob", "server");
    let conn = host
        .connect(pid, IpProto::UDP, 7000, remote, 9000, false)
        .unwrap();
    let frame = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(remote, host.cfg.ip)
        .udp_zeroes(9000, 7000, 64 - HEADERS)
        .build();
    let aligned = host_ns(rx_cost(&mut host, Flow::Ring(conn), &frame, 512));
    let rx_fast = number_after(
        "scripts/normanbench_smoke_vns.json",
        "\"rx_fast\"",
        "sim_host_cpu_ns_per_frame",
    );
    assert_eq!(aligned, rx_fast);
    // descriptor + payload line at LLC latency, a quarter of a doorbell.
    assert_eq!(aligned, 2.0 * 12.0 + 100.0 / 4.0);

    // E1's row: the default host's 2-slot rings put the payload 32 bytes
    // into a line, so the same frame straddles two.
    let mut p = Placement::kopi(&partition_policy());
    let app = p.tb.postgres.clone();
    assert_eq!(host_ns(p.rx(&app, 64, 512)), aligned + 12.0);
}

#[test]
fn e1_kopi_row_for_e7s_frame_is_e7s_number() {
    // E7: 64 B of UDP payload — a 106 B frame — on the default host:
    // descriptor + three straddled payload lines + a quarter doorbell.
    let mut p = Placement::kopi(&partition_policy());
    let app = p.tb.postgres.clone();
    let e1 = host_ns(p.rx(&app, 64 + HEADERS, 512));
    let e7 = number_after("results/exp_e7_ablation.json", "\"none\"", "host_cpu_ns");
    assert_eq!(e1, e7);
    assert_eq!(e1, 4.0 * 12.0 + 100.0 / 4.0);
}

#[test]
fn probes_fail_under_raw_bypass_and_only_where_nothing_was_configured() {
    type Probe = fn(&mut Placement) -> bool;
    let run = |probe: Probe| Placement::all(&partition_policy()).map(|mut p| probe(&mut p));
    // [kernel stack, raw bypass, KOPI]
    assert_eq!(run(Placement::process_view), [true, false, true]);
    assert_eq!(run(Placement::isolated), [true, false, true]);
    assert_eq!(run(Placement::fast_datapath), [false, true, true]);
}

#[test]
fn port_attack_is_refused_by_kernel_and_kopi_and_by_nothing_under_bypass() {
    let [kernel, bypass, kopi] =
        Placement::all(&partition_policy()).map(|mut p| p.port_attack(100));
    let held = Attack {
        legit_delivered: 100,
        violations: 0,
        grab_refused: true,
    };
    assert_eq!(kernel, held);
    assert_eq!(kopi, held);
    assert_eq!(
        bypass,
        Attack {
            legit_delivered: 100,
            violations: 100,
            grab_refused: false,
        }
    );
}

#[test]
fn recipes_configure_what_they_say() {
    let [kernel, bypass, kopi] = Placement::all(&partition_policy());
    // Raw bypass: nothing committed, nothing traced.
    assert_eq!(bypass.tb.host.policy_generation(), 0);
    assert!(bypass.tb.host.policy().reservations.is_empty());
    assert!(!bypass.tb.host.telemetry().is_enabled());
    assert_eq!(bypass.tb.host.num_connections(), 4);
    // Kernel stack: no rings, four sockets, two rules a reservation a chain.
    assert_eq!(kernel.tb.host.num_connections(), 0);
    let reg = kernel.tb.host.metrics_snapshot();
    assert_eq!(reg.counter("netstack.sockets"), Some(4));
    assert_eq!(reg.counter("netstack.input.rules"), Some(4));
    assert_eq!(reg.counter("netstack.output.rules"), Some(4));
    // KOPI: the policy is the kernel's, lowered onto the NIC.
    assert_eq!(kopi.tb.host.policy().reservations, partition_policy());
    assert!(kopi.tb.host.policy_generation() > 0);
}

#[test]
fn kernel_socket_sends_end_at_the_output_chain_and_pin_no_frame() {
    // A kernel-socket send is syscall, copy, OUTPUT chain and protocol;
    // the stack keeps no egress queue to fill or to pin frames in.
    let mut p = Placement::kernel_stack(&partition_policy());
    let app = p.tb.postgres.clone();
    let sent = p.tx(&app, 64, 2_000);
    assert_eq!(sent.delivered, 2_000);
    let host = &mut p.tb.host;
    assert_eq!(host.stack.arena_resident(host.arena()), 0);
    assert!(host.audit().is_empty(), "audit: {:?}", host.audit());
}
