//! Canned overlay policies used by the control-plane tools and the
//! experiments.
//!
//! Each builder returns an already-verified [`Program`]. Programs are
//! written in overlay assembly (so they double as documentation of the
//! policy language) and parameterized at runtime through their maps via
//! [`crate::vm::Vm::map_set`].

use crate::asm::assemble;
use crate::program::Program;

fn must(name: &str, src: &str) -> Program {
    let p = assemble(name, src).expect("builtin must assemble");
    crate::verify::verify(&p).expect("builtin must verify");
    p
}

/// Passes every packet (the default program on an idle NIC).
pub fn allow_all() -> Program {
    must("allow_all", "ret pass")
}

/// Drops every packet (quarantine).
pub fn drop_all() -> Program {
    must("drop_all", "ret drop")
}

/// Owner-aware port partitioning — the paper's §2 "Partitioning Ports"
/// policy (`iptables -m owner` equivalent, enforced on the NIC).
///
/// Map `rules` (index = port) holds `uid + 1` for a reserved port, or `0`
/// for "any user". Ingress checks the destination port, egress the source
/// port. Packets from flows not bound to any process (uid = `u32::MAX`)
/// never match a reservation and are dropped on reserved ports.
pub fn port_owner_filter() -> Program {
    must(
        "port_owner_filter",
        "
        map rules 65536
        ldctx r3, egress
        jeq r3, 1, eg
        ldctx r0, dst_port
        jmp check
        eg:
        ldctx r0, src_port
        check:
        mapld r1, rules, r0
        jeq r1, 0, allow
        ldctx r2, uid
        add r2, 1
        jeq r1, r2, allow
        ret drop
        allow:
        ret pass
        ",
    )
}

/// Index of the `rules` map in [`port_owner_filter`].
#[cfg(test)]
pub(crate) const PORT_FILTER_RULES_MAP: usize = 0;

/// A per-user token-bucket rate limiter (the `tc`-style shaping
/// primitive).
///
/// * Map 0 `params`: `[0]` = rate in bytes per microsecond, `[1]` = burst
///   in bytes.
/// * Map 1 `tokens`, map 2 `last_us`: per-user state, keyed by
///   `uid & 255`.
///
/// A packet passes if the user's bucket holds at least `pkt_len` tokens,
/// else it is dropped (policing).
pub fn token_bucket() -> Program {
    must(
        "token_bucket",
        "
        map params 2
        map tokens 256
        map last_us 256
        ldctx r0, uid
        and r0, 255
        ldctx r1, now_ns
        div r1, 1000
        mapld r2, last_us, r0
        mapst last_us, r0, r1
        sub r1, r2                 ; elapsed us (first packet: huge, capped by burst)
        ldimm r4, 0
        mapld r3, params, r4       ; rate bytes/us
        mul r1, r3                 ; bytes earned
        mapld r5, tokens, r0
        add r5, r1
        ldimm r4, 1
        mapld r6, params, r4       ; burst
        min r5, r6
        ldctx r7, pkt_len
        jge r5, r7, allow
        mapst tokens, r0, r5
        ret drop
        allow:
        sub r5, r7
        mapst tokens, r0, r5
        ret pass
        ",
    )
}

/// Map indices in [`token_bucket`].
pub(crate) mod token_bucket_maps {
    /// Parameters: `[0]` rate (bytes/us), `[1]` burst (bytes).
    #[cfg(test)]
    pub(crate) const PARAMS: usize = 0;
}

/// Classifies packets into scheduler classes by owning user — the input
/// stage for weighted-fair queueing across users (§2 QoS scenario).
///
/// Map `classmap` (keyed by `uid & 255`) holds `class + 1`, or 0 for the
/// default class 0.
pub fn uid_classifier() -> Program {
    must(
        "uid_classifier",
        "
        map classmap 256
        ldctx r0, uid
        and r0, 255
        mapld r1, classmap, r0
        jeq r1, 0, default
        sub r1, 1
        shl r1, 8
        or r1, 2                  ; encode Verdict::Class(r1)
        ret r1
        default:
        ret class 0
        ",
    )
}

/// Classifies by DSCP byte: map `classmap` (256 entries) maps the DSCP
/// field directly to `class + 1` (0 = default class 0).
pub fn dscp_classifier() -> Program {
    must(
        "dscp_classifier",
        "
        map classmap 256
        ldctx r0, dscp
        mapld r1, classmap, r0
        jeq r1, 0, default
        sub r1, 1
        shl r1, 8
        or r1, 2
        ret r1
        default:
        ret class 0
        ",
    )
}

/// Counts egress ARP frames per pid (map `arp_by_pid`, keyed by
/// `pid & 4095`) — the §2 debugging scenario's provenance counter. All
/// traffic passes.
pub fn arp_counter() -> Program {
    must(
        "arp_counter",
        "
        map arp_by_pid 4096
        ldctx r0, is_arp
        jeq r0, 0, out
        ldctx r1, pid
        and r1, 4095
        ldimm r2, 1
        mapadd arp_by_pid, r1, r2
        out:
        ret pass
        ",
    )
}

/// Accounts bytes per user (map `bytes_by_uid`, keyed by `uid & 255`) —
/// the `knetstat` accounting program. All traffic passes.
pub fn byte_accounting() -> Program {
    must(
        "byte_accounting",
        "
        map bytes_by_uid 256
        ldctx r0, uid
        and r0, 255
        ldctx r1, pkt_len
        mapadd bytes_by_uid, r0, r1
        ret pass
        ",
    )
}

/// Per-flow byte/packet metering with an elephant-flow escape hatch —
/// exercises the eBPF-class extensions end to end. Slot 0 of `meter`
/// accumulates bytes, slot 1 packets, per packed flow key; the `pkts`
/// and `bytes` counters aggregate across flows for `ktrace`/metrics.
/// Flows past the byte threshold in map `params[0]` (0 = unlimited)
/// tail-call into `elephant`, which marks the packet and sends it to the
/// slow path for policy attention.
pub(crate) fn flow_meter() -> Program {
    must(
        "flow_meter",
        "
        map params 1
        flowmap meter 2 4096
        counter pkts
        counter bytes
        ldctx r0, pkt_len
        flowadd meter, 0, r0      ; per-flow bytes
        ldimm r1, 1
        flowadd meter, 1, r1      ; per-flow packets
        cntadd pkts, 1
        cntadd bytes, r0
        ldimm r2, 0
        mapld r3, params, r2      ; byte threshold (0 = off)
        jeq r3, 0, out
        flowld r4, meter, 0
        jge r4, r3, big
        out:
        ret pass
        big:
        tailcall elephant
        tail elephant
        ldimm r5, 1
        setmark r5
        ret slowpath
        ",
    )
}

/// Index of the `params` map in [`flow_meter`] (`[0]` = byte threshold).
#[cfg(test)]
pub(crate) const FLOW_METER_PARAMS_MAP: usize = 0;

/// Index of the `meter` flow map in [`flow_meter`].
#[cfg(test)]
pub(crate) const FLOW_METER_FLOWMAP: usize = 0;

/// Every builtin, for exhaustive tooling (round-trip tests, differential
/// fuzzing, `knetstat` listings).
pub fn all() -> Vec<Program> {
    vec![
        allow_all(),
        drop_all(),
        port_owner_filter(),
        token_bucket(),
        uid_classifier(),
        dscp_classifier(),
        arp_counter(),
        byte_accounting(),
        flow_meter(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Verdict;
    use crate::vm::{PktCtx, Vm};

    #[test]
    fn all_builtins_assemble_and_verify() {
        for p in all() {
            assert!(crate::verify::verify(&p).is_ok(), "{} fails", p.name);
        }
    }

    #[test]
    fn all_builtins_compile() {
        // The NIC runs compiled artifacts only, so every canned policy
        // must compile.
        for p in all() {
            assert!(crate::compile::compile(&p).is_ok(), "{} fails", p.name);
        }
    }

    #[test]
    fn flow_meter_meters_and_escalates() {
        let mut vm = Vm::new(flow_meter());
        let ctx = PktCtx {
            flow_key: 0xdead_beef,
            pkt_len: 600,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&ctx).unwrap().verdict, Verdict::Pass);
        assert_eq!(vm.run(&ctx).unwrap().verdict, Verdict::Pass);
        assert_eq!(vm.flow_get(FLOW_METER_FLOWMAP, 0xdead_beef, 0), Some(1200));
        assert_eq!(vm.flow_get(FLOW_METER_FLOWMAP, 0xdead_beef, 1), Some(2));
        assert_eq!(vm.counter_get(0), Some(2)); // pkts
        assert_eq!(vm.counter_get(1), Some(1200)); // bytes
        assert_eq!(
            vm.counters(),
            vec![("pkts".to_string(), 2), ("bytes".to_string(), 1200)]
        );

        // Arm the elephant threshold: next packet crosses 1500 bytes and
        // tail-calls into the slow-path escalation.
        vm.map_set(FLOW_METER_PARAMS_MAP, 0, 1500);
        let e = vm.run(&ctx).unwrap();
        assert_eq!(e.verdict, Verdict::SlowPath);
        assert_eq!(e.mark, 1);
        // Other flows are unaffected.
        let other = PktCtx {
            flow_key: 77,
            pkt_len: 100,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&other).unwrap().verdict, Verdict::Pass);
    }

    #[test]
    fn port_filter_enforces_ownership() {
        let mut vm = Vm::new(port_owner_filter());
        // Reserve port 5432 for uid 1001 (stored as uid+1).
        vm.map_set(PORT_FILTER_RULES_MAP, 5432, 1002);

        let owner_rx = PktCtx {
            dst_port: 5432,
            uid: 1001,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&owner_rx).unwrap().verdict, Verdict::Pass);

        let thief_rx = PktCtx {
            dst_port: 5432,
            uid: 1002,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&thief_rx).unwrap().verdict, Verdict::Drop);

        // Unreserved ports pass for anyone.
        let other = PktCtx {
            dst_port: 8080,
            uid: 1002,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&other).unwrap().verdict, Verdict::Pass);

        // Egress checks the source port.
        let owner_tx = PktCtx {
            src_port: 5432,
            uid: 1001,
            egress: true,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&owner_tx).unwrap().verdict, Verdict::Pass);
        let thief_tx = PktCtx {
            src_port: 5432,
            uid: 1002,
            egress: true,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&thief_tx).unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn unbound_flows_cannot_claim_reserved_ports() {
        let mut vm = Vm::new(port_owner_filter());
        vm.map_set(PORT_FILTER_RULES_MAP, 22, 1001);
        let raw = PktCtx {
            dst_port: 22,
            uid: u32::MAX,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&raw).unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn token_bucket_polices_rate() {
        let mut vm = Vm::new(token_bucket());
        // 10 bytes/us (= 80 Mbps), burst 1500 bytes.
        vm.map_set(token_bucket_maps::PARAMS, 0, 10);
        vm.map_set(token_bucket_maps::PARAMS, 1, 1500);

        // First packet: bucket fills to burst; a 1000B packet passes.
        let mut ctx = PktCtx {
            uid: 7,
            pkt_len: 1000,
            now_ns: 1_000_000,
            ..PktCtx::default()
        };
        assert_eq!(vm.run(&ctx).unwrap().verdict, Verdict::Pass);
        // Immediately again: only 500 tokens left; dropped.
        assert_eq!(vm.run(&ctx).unwrap().verdict, Verdict::Drop);
        // After 100us: +1000 tokens => passes.
        ctx.now_ns += 100_000;
        assert_eq!(vm.run(&ctx).unwrap().verdict, Verdict::Pass);
    }

    #[test]
    fn token_bucket_isolates_users() {
        let mut vm = Vm::new(token_bucket());
        vm.map_set(token_bucket_maps::PARAMS, 0, 1);
        vm.map_set(token_bucket_maps::PARAMS, 1, 100);
        let a = PktCtx {
            uid: 1,
            pkt_len: 100,
            now_ns: 1_000_000,
            ..PktCtx::default()
        };
        let b = PktCtx { uid: 2, ..a };
        assert_eq!(vm.run(&a).unwrap().verdict, Verdict::Pass);
        assert_eq!(vm.run(&a).unwrap().verdict, Verdict::Drop);
        // User B's bucket is untouched by A's spending.
        assert_eq!(vm.run(&b).unwrap().verdict, Verdict::Pass);
    }

    #[test]
    fn uid_classifier_maps_users_to_classes() {
        let mut vm = Vm::new(uid_classifier());
        vm.map_set(0, 100, 3); // uid 100 -> class 2 (stored +1)
        let e = vm
            .run(&PktCtx {
                uid: 100,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(e.verdict, Verdict::Class(2));
        // Unmapped uid -> class 0.
        let e = vm
            .run(&PktCtx {
                uid: 55,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(e.verdict, Verdict::Class(0));
    }

    #[test]
    fn dscp_classifier_maps_dscp() {
        let mut vm = Vm::new(dscp_classifier());
        vm.map_set(0, 0xB8, 2); // EF -> class 1
        let e = vm
            .run(&PktCtx {
                dscp: 0xB8,
                ..PktCtx::default()
            })
            .unwrap();
        assert_eq!(e.verdict, Verdict::Class(1));
    }

    #[test]
    fn arp_counter_attributes_to_pid() {
        let mut vm = Vm::new(arp_counter());
        let flood = PktCtx {
            is_arp: true,
            pid: 4242,
            egress: true,
            ..PktCtx::default()
        };
        for _ in 0..50 {
            assert_eq!(vm.run(&flood).unwrap().verdict, Verdict::Pass);
        }
        let innocent = PktCtx {
            is_arp: false,
            pid: 1111,
            egress: true,
            ..PktCtx::default()
        };
        vm.run(&innocent).unwrap();
        assert_eq!(vm.map_get(0, 4242 & 4095), Some(50));
        assert_eq!(vm.map_get(0, 1111 & 4095), Some(0));
    }

    #[test]
    fn byte_accounting_sums_lengths() {
        let mut vm = Vm::new(byte_accounting());
        for len in [100u64, 200, 300] {
            vm.run(&PktCtx {
                uid: 9,
                pkt_len: len,
                ..PktCtx::default()
            })
            .unwrap();
        }
        assert_eq!(vm.map_get(0, 9), Some(600));
    }
}
