//! Property-based tests over the core substrates.
//!
//! Cases are generated by the repo's own deterministic RNG
//! ([`sim::DetRng`]) rather than an external property-testing framework:
//! every run explores the same seeded case set, so a failure here is
//! reproducible by rerunning the test — no shrinking needed, the failing
//! iteration index identifies the case.

use std::net::Ipv4Addr;

use memsim::{HostRing, Llc, LlcConfig, MemCosts};
use norman::{Host, HostConfig};
use oskernel::Uid;
use overlay::{PktCtx, Verdict as OverlayVerdict, Vm};
use pkt::{checksum, FiveTuple, IpProto, Mac, Packet, PacketBuilder, Payload, RssHasher, TcpFlags};
use qdisc::{QPkt, Wfq};
use sim::{
    DetRng, Dur, FaultInjector, FaultSchedule, FaultyLink, Histogram, Link, LossModel, Time,
};

/// Seeded per-test RNG: the salt keeps tests independent of each other.
fn rng(salt: u64) -> DetRng {
    DetRng::seed_from_u64(0x5EED_CA5E ^ salt)
}

fn arb_ip(r: &mut DetRng) -> Ipv4Addr {
    Ipv4Addr::from(r.next_u64() as u32)
}

fn arb_bytes(r: &mut DetRng, max_len: usize) -> Vec<u8> {
    let len = r.range_usize(0, max_len + 1);
    (0..len).map(|_| r.next_u64() as u8).collect()
}

/// Any UDP frame we build parses back to exactly what we put in.
#[test]
fn udp_build_parse_round_trip() {
    let mut r = rng(1);
    for _ in 0..64 {
        let (src, dst) = (arb_ip(&mut r), arb_ip(&mut r));
        let sport = r.next_u64() as u16;
        let dport = r.next_u64() as u16;
        let payload = arb_bytes(&mut r, 1400);
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(src, dst)
            .udp(sport, dport, &payload)
            .build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(
            pkt::FiveTuple::from_parsed(&parsed).map(|t| (t.src_port, t.dst_port)),
            Some((sport, dport))
        );
        let ip = parsed.ip().unwrap();
        assert_eq!(ip.src, src);
        assert_eq!(ip.dst, dst);
        match parsed.payload {
            Payload::Udp { payload: range, .. } => {
                assert_eq!(&pkt.bytes()[range], &payload[..]);
            }
            _ => panic!("expected UDP"),
        }
    }
}

/// TCP frames round-trip including ports and flags.
#[test]
fn tcp_build_parse_round_trip() {
    let mut r = rng(2);
    for _ in 0..64 {
        let (src, dst) = (arb_ip(&mut r), arb_ip(&mut r));
        let sport = r.next_u64() as u16;
        let dport = r.next_u64() as u16;
        let payload = arb_bytes(&mut r, 600);
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(src, dst)
            .tcp(sport, dport, TcpFlags::ACK.with(TcpFlags::PSH), &payload)
            .build();
        let parsed = pkt.parse().unwrap();
        let ft = FiveTuple::from_parsed(&parsed).unwrap();
        assert_eq!((ft.src_port, ft.dst_port), (sport, dport));
        match parsed.payload {
            Payload::Tcp { tcp, .. } => {
                assert!(tcp.flags.contains(TcpFlags::PSH));
            }
            _ => panic!("expected TCP"),
        }
    }
}

/// Flipping any single byte of an IPv4 header breaks its checksum.
#[test]
fn ipv4_checksum_detects_single_byte_corruption() {
    let mut r = rng(3);
    for _ in 0..64 {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(arb_ip(&mut r), arb_ip(&mut r))
            .udp(1, 2, b"x")
            .build();
        let corrupt_at = r.range_usize(0, 20);
        let xor = r.range_u64(1, 256) as u8;
        let mut bytes = pkt.bytes().to_vec();
        bytes[14 + corrupt_at] ^= xor;
        assert!(!checksum::verify(&bytes[14..34]));
    }
}

/// The Toeplitz hash steers a flow and its retransmissions to one queue,
/// within bounds.
#[test]
fn rss_is_deterministic_and_bounded() {
    let mut r = rng(4);
    for _ in 0..64 {
        let queues = r.range_u64(1, 64) as u32;
        let h = RssHasher::with_default_key(queues);
        let ft = FiveTuple::udp(
            arb_ip(&mut r),
            r.next_u64() as u16,
            arb_ip(&mut r),
            r.next_u64() as u16,
        );
        let q = h.queue_for(&ft);
        assert!(q < queues);
        assert_eq!(q, h.queue_for(&ft));
    }
}

/// WFQ conserves packets and is FIFO within each class.
#[test]
fn wfq_conservation_and_intra_class_order() {
    let mut r = rng(6);
    for _ in 0..32 {
        let n = r.range_usize(1, 300);
        let pkts: Vec<(u32, u32)> = (0..n)
            .map(|_| (r.range_u64(0, 4) as u32, r.range_u64(60, 1500) as u32))
            .collect();
        let mut q = Wfq::new(&[1.0, 2.0, 4.0, 8.0], 4096);
        for (i, &(class, len)) in pkts.iter().enumerate() {
            q.enqueue(
                QPkt::new(i as u64, len, Time::ZERO).with_class(class),
                Time::ZERO,
            )
            .unwrap();
        }
        let mut out = Vec::new();
        while let Some(p) = q.dequeue(Time::ZERO) {
            out.push(p);
        }
        assert_eq!(out.len(), pkts.len());
        for class in 0..4u32 {
            let ids: Vec<u64> = out
                .iter()
                .filter(|p| p.class == class)
                .map(|p| p.id)
                .collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "class {class} reordered"
            );
        }
    }
}

/// Histogram quantiles are monotone and bounded by min/max.
#[test]
fn histogram_quantiles_monotone() {
    let mut r = rng(9);
    for _ in 0..32 {
        let n = r.range_usize(1, 500);
        let values: Vec<u64> = (0..n).map(|_| r.range_u64(1, 1_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
        let max = *values.iter().max().unwrap();
        assert!(*qs.last().unwrap() <= max);
    }
}

/// Ring buffers are FIFO and conserve lengths under arbitrary
/// produce/consume interleavings.
#[test]
fn host_ring_fifo_under_interleaving() {
    let mut r = rng(10);
    for _ in 0..16 {
        let mut llc = Llc::new(LlcConfig::xeon_default());
        let costs = MemCosts::default();
        let mut ring = HostRing::new(0, 32, 2048);
        let mut expected = std::collections::VecDeque::new();
        let mut next_len = 100usize;
        let ops = r.range_usize(1, 400);
        for _ in 0..ops {
            if r.chance(0.5) {
                match ring.produce_dma_with((), next_len, &mut llc, &costs) {
                    Ok(_) => {
                        expected.push_back(next_len);
                        next_len = 100 + (next_len + 37) % 1900;
                    }
                    Err(_) => assert!(ring.is_full()),
                }
            } else {
                match ring.consume_cpu_desc(&mut llc, &costs) {
                    Some(((), len, _)) => assert_eq!(Some(len), expected.pop_front()),
                    None => assert!(expected.is_empty()),
                }
            }
        }
        assert_eq!(ring.len(), expected.len());
    }
}

/// The builtin port filter, under arbitrary reservations and packets,
/// exactly implements the reservation predicate.
#[test]
fn port_filter_equals_reference_predicate() {
    let mut r = rng(11);
    for _ in 0..256 {
        let reserved_port = r.range_u64(1, 65536) as u16;
        let owner_uid = r.range_u64(0, 10_000) as u32;
        let pkt_port = r.range_u64(1, 65536) as u16;
        let pkt_uid = r.range_u64(0, 10_000) as u32;
        let egress = r.chance(0.5);
        let mut vm = Vm::new(overlay::builtins::port_owner_filter());
        vm.map_set(0, reserved_port as usize, u64::from(owner_uid) + 1);
        let ctx = PktCtx {
            dst_port: if egress { 0 } else { pkt_port },
            src_port: if egress { pkt_port } else { 0 },
            uid: pkt_uid,
            egress,
            ..PktCtx::default()
        };
        let verdict = vm.run(&ctx).unwrap().verdict;
        let expect = if pkt_port == reserved_port && pkt_uid != owner_uid {
            OverlayVerdict::Drop
        } else {
            OverlayVerdict::Pass
        };
        assert_eq!(verdict, expect);
    }
}

/// Verified overlay programs always terminate within their length.
#[test]
fn verified_programs_bounded() {
    let mut r = rng(12);
    for _ in 0..64 {
        let dst_port = r.next_u64() as u16;
        let uid = r.next_u64() as u32;
        let len = r.range_u64(60, 1500);
        for prog in [
            overlay::builtins::port_owner_filter(),
            overlay::builtins::token_bucket(),
            overlay::builtins::uid_classifier(),
            overlay::builtins::byte_accounting(),
        ] {
            let bound = overlay::verify(&prog).unwrap();
            let mut vm = Vm::new(prog);
            let ctx = PktCtx {
                dst_port,
                uid,
                pkt_len: len,
                ..PktCtx::default()
            };
            let exec = vm.run(&ctx).unwrap();
            assert!(exec.cycles as usize <= bound);
        }
    }
}

/// Link serialization is additive: N frames take N times one frame,
/// regardless of arrival pattern (when saturated).
#[test]
fn link_serialization_additive() {
    let mut r = rng(13);
    for _ in 0..64 {
        let n = r.range_u64(1, 100);
        let bytes = r.range_u64(64, 1500);
        let mut link = Link::new(100.0, Dur::ZERO);
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = link.transmit(Time::ZERO, bytes);
        }
        let single = link.serialization(bytes);
        assert_eq!(last, Time::ZERO + single * n);
    }
}

/// Time arithmetic is consistent: (t + d) - t == d for in-range values.
#[test]
fn time_arithmetic_consistent() {
    let mut r = rng(14);
    for _ in 0..64 {
        let time = Time(r.range_u64(0, u64::MAX / 2));
        let dur = Dur(r.range_u64(0, u64::MAX / 4));
        assert_eq!((time + dur) - time, dur);
        assert_eq!((time + dur) - dur, time);
    }
}

/// The assembler and verifier agree: anything the assembler emits from a
/// template of valid policies verifies.
#[test]
fn assembled_templates_verify() {
    let mut r = rng(15);
    for _ in 0..16 {
        let port = r.range_u64(1, 65536) as u16;
        let classes = r.range_u64(1, 16) as u32;
        let src = format!(
            "
            ldctx r0, dst_port
            jeq r0, {port}, special
            ret class 0
            special:
            ret class {classes}
            ",
        );
        let prog = overlay::assemble("template", &src).unwrap();
        assert!(overlay::verify(&prog).is_ok());
        let mut vm = Vm::new(prog);
        let ctx = PktCtx {
            dst_port: port,
            ..PktCtx::default()
        };
        assert_eq!(
            vm.run(&ctx).unwrap().verdict,
            OverlayVerdict::Class(classes)
        );
    }
}

/// NIC flow-table: whatever mix of inserts/removes, lookups only hit live
/// connections, and SRAM accounting balances.
#[test]
fn flowtable_sram_balances() {
    let mut r = rng(16);
    for _ in 0..16 {
        let mut sram = nicsim::Sram::new(1 << 20);
        let mut ft = nicsim::FlowTable::new();
        let mut live = std::collections::HashMap::new();
        let n = r.range_usize(1, 100);
        for i in 0..n {
            let port = r.range_u64(1, 1000) as u16;
            let tuple = FiveTuple::udp(
                Ipv4Addr::new(10, 0, 0, 2),
                5000,
                Ipv4Addr::new(10, 0, 0, 1),
                port,
            );
            if i % 3 == 2 {
                if let Some((_, id)) = live.iter().next().map(|(k, v)| (*k, *v)) {
                    ft.remove(id, &mut sram);
                    let key = live
                        .iter()
                        .find(|&(_, v)| *v == id)
                        .map(|(k, _)| *k)
                        .unwrap();
                    live.remove(&key);
                }
            } else if let std::collections::hash_map::Entry::Vacant(e) = live.entry(tuple) {
                let (id, _tier) = ft.insert(tuple, 0, 1, "p", false, 0, &mut sram).unwrap();
                e.insert(id);
            }
        }
        assert_eq!(
            sram.used_by(nicsim::SramCategory::FlowTable),
            live.len() as u64 * nicsim::flowtable::ENTRY_BYTES
        );
        for (tuple, id) in &live {
            assert_eq!(ft.lookup(tuple, &mut sram).map(|h| h.id), Some(*id));
        }
    }
}

/// Deterministic RNG: identical seeds produce identical workload traces
/// end-to-end.
#[test]
fn workloads_are_reproducible() {
    let mut r = rng(17);
    for _ in 0..8 {
        let seed = r.next_u64();
        use workloads::PoissonArrivals;
        let mut a = PoissonArrivals::new(10_000.0, DetRng::seed_from_u64(seed));
        let mut b = PoissonArrivals::new(10_000.0, DetRng::seed_from_u64(seed));
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }
}

/// Non-random sanity companion: the proto constant used above.
#[test]
fn ipproto_udp_is_17() {
    assert_eq!(IpProto::UDP.0, 17);
}

/// The frame parser never panics on arbitrary bytes — it returns
/// structured errors for every malformed input.
#[test]
fn parser_is_total_on_garbage() {
    let mut r = rng(18);
    for _ in 0..256 {
        let bytes = arb_bytes(&mut r, 200);
        let _ = Packet::from_bytes(bytes).parse();
    }
}

/// The parser also never panics on *almost*-valid frames: take a valid
/// frame and flip one byte anywhere.
#[test]
fn parser_is_total_on_corrupted_frames() {
    let mut r = rng(19);
    for _ in 0..256 {
        let payload = arb_bytes(&mut r, 60);
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2, &payload)
            .build();
        let mut bytes = pkt.bytes().to_vec();
        let idx = r.range_usize(0, bytes.len());
        bytes[idx] ^= r.range_u64(1, 256) as u8;
        let _ = Packet::from_bytes(bytes).parse();
    }
}

// ---------------------------------------------------------------------
// Fault-injection properties
// ---------------------------------------------------------------------

/// Builds a random-but-reasonable fault schedule from `r`.
fn arb_schedule(r: &mut DetRng) -> FaultSchedule {
    let loss = match r.range_u64(0, 3) {
        0 => LossModel::None,
        1 => LossModel::Steady(r.f64() * 0.2),
        _ => LossModel::GilbertElliott {
            p_good_to_bad: r.f64() * 0.05,
            p_bad_to_good: 0.01 + r.f64() * 0.2,
            loss_good: r.f64() * 0.01,
            loss_bad: r.f64(),
        },
    };
    FaultSchedule {
        loss,
        corrupt_rate: r.f64() * 0.05,
        duplicate_rate: r.f64() * 0.05,
        reorder_rate: r.f64() * 0.05,
        reorder_window: 1 + r.range_u64(0, 8) as u32,
        delay_rate: r.f64() * 0.05,
        max_extra_delay: Dur::from_us(1 + r.range_u64(0, 100)),
        outages: if r.chance(0.3) {
            vec![(Time::from_us(100), Time::from_us(200))]
        } else {
            Vec::new()
        },
    }
}

/// Same fault seed + same schedule + same call sequence → byte-identical
/// verdict sequence. This is the replayability contract of the chaos
/// layer: a failing chaos run can always be re-executed exactly.
#[test]
fn fault_injector_same_seed_identical_verdicts() {
    let mut r = rng(23);
    for _ in 0..16 {
        let seed = r.next_u64();
        let schedule = arb_schedule(&mut r);
        let times: Vec<Time> = (0..500)
            .map(|i| Time::from_us(i) + Dur::from_ns(r.range_u64(0, 1000)))
            .collect();
        let mut a = FaultInjector::new(seed, schedule.clone());
        let mut b = FaultInjector::new(seed, schedule);
        for &t in &times {
            assert_eq!(a.verdict(t), b.verdict(t));
        }
        assert_eq!(a.stats(), b.stats());
    }
}

/// The same holds end-to-end through a `FaultyLink`: identical seeds give
/// identical delivery streams (arrival times AND bytes), so whole chaos
/// experiments replay exactly.
#[test]
fn faulty_link_replays_byte_identical() {
    let mut r = rng(24);
    for _ in 0..8 {
        let seed = r.next_u64();
        let schedule = arb_schedule(&mut r);
        let frames: Vec<Vec<u8>> = (0..200).map(|_| arb_bytes(&mut r, 1500)).collect();
        let mut a = FaultyLink::new(Link::hundred_gbe(), seed, schedule.clone());
        let mut b = FaultyLink::new(Link::hundred_gbe(), seed, schedule);
        for (i, f) in frames.iter().enumerate() {
            let at = Time::from_us(i as u64);
            assert_eq!(a.transmit(at, f.clone()), b.transmit(at, f.clone()));
        }
        assert_eq!(a.flush(Time::from_ms(1)), b.flush(Time::from_ms(1)));
        assert_eq!(a.fault_stats(), b.fault_stats());
    }
}

/// Corrupted frames never create dataplane state: no flow-table entries,
/// no pending accepts, no notifications — they are counted and dropped at
/// the parser stage.
#[test]
fn corrupted_frames_never_create_state() {
    let mut r = rng(25);
    let mut h = Host::new(HostConfig::default());
    let bob = h.spawn(Uid(1001), "bob", "server");
    let listener = h.listen(bob, IpProto::UDP, 7000).unwrap();
    let conn = h
        .connect(
            bob,
            IpProto::UDP,
            8000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            true,
        )
        .unwrap();
    let entries_before = h.nic.flows.num_entries();

    for i in 0..200u64 {
        // A frame that, intact, would hit the listener (creating a
        // pending accept) or the notify connection (posting a
        // notification).
        let dst_port = if r.chance(0.5) { 7000 } else { 8000 };
        let pkt = PacketBuilder::new()
            .ether(Mac::local(9), h.cfg.mac)
            .ipv4(arb_ip(&mut r), h.cfg.ip)
            .udp(
                r.range_u64(1, 65536) as u16,
                dst_port,
                &arb_bytes(&mut r, 200),
            )
            .build();
        // Corrupt exactly one byte: a single-word change always breaks
        // the one's-complement sum, so the NIC must reject it. Skip the
        // UDP checksum field itself (bytes 40..42) — zeroing it would
        // engage the RFC 768 checksum opt-out and legitimately deliver.
        let mut bytes = pkt.bytes().to_vec();
        let idx = loop {
            let i = 14 + r.range_usize(0, bytes.len() - 14);
            if !(40..42).contains(&i) {
                break i;
            }
        };
        bytes[idx] ^= r.range_u64(1, 256) as u8;
        h.deliver_from_wire(&Packet::from_bytes(bytes), Time::from_us(i));
    }

    assert_eq!(h.nic.flows.num_entries(), entries_before, "no new entries");
    assert_eq!(h.pending_accept_count(listener), 0, "no phantom accepts");
    assert!(
        h.pop_notification(bob).is_none(),
        "no phantom notifications"
    );
    assert_eq!(h.stats().fast_delivered, 0);
    assert_eq!(h.stats().slowpath, 0);
    let s = h.stats();
    assert_eq!(s.malformed_dropped, 200, "every corrupt frame counted");
    let n = h.nic.stats();
    assert_eq!(n.rx_malformed + n.rx_bad_checksum, 200);
    // The NIC state is still internally consistent.
    assert!(h.nic.audit().is_empty(), "audit: {:?}", h.nic.audit());
    let _ = conn;
}

// ---------------------------------------------------------------------
// Frame-descriptor (parse-once) properties
// ---------------------------------------------------------------------

/// The ingress-derived `FrameMeta` stays equal to a fresh `parse()` of
/// the frame bytes after every pipeline stage: offsets, tuple, Toeplitz
/// flow hash, and checksum-verified flags in lockstep with the bytes.
#[test]
fn frame_meta_matches_fresh_parse_through_all_stages() {
    use pkt::FrameMeta;

    let mut r = rng(26);
    for _ in 0..64 {
        let (local, remote) = (arb_ip(&mut r), arb_ip(&mut r));
        let local_port = r.range_u64(1, 65536) as u16;
        let remote_port = r.range_u64(1, 65536) as u16;
        let payload = arb_bytes(&mut r, 400);
        let tcp = r.chance(0.5);
        let build = |src, dst, sport, dport| {
            let b = PacketBuilder::new()
                .ether(Mac::local(1), Mac::local(2))
                .ipv4(src, dst);
            if tcp {
                b.tcp(sport, dport, TcpFlags::ACK, &payload).build()
            } else {
                b.udp(sport, dport, &payload).build()
            }
        };

        // Stage 0: ingress. The build-time descriptor equals a fresh
        // derive over the bytes.
        let frame = build(local, remote, local_port, remote_port);
        let meta = FrameMeta::of(&frame).unwrap();
        assert_eq!(meta, FrameMeta::derive(frame.bytes()).unwrap());

        // Stage 1: the reply comes back; its descriptor tracks the bytes.
        let reply = build(remote, local, remote_port, local_port);
        let reply_meta = FrameMeta::of(&reply).unwrap();
        assert_eq!(reply_meta, FrameMeta::derive(reply.bytes()).unwrap());
        assert_eq!(reply_meta.tuple.unwrap().dst_port, local_port);

        // Stage 2: the NIC pipeline hands back the descriptor it used.
        let mut nic = nicsim::SmartNic::new(nicsim::NicConfig::default());
        let rx = nic.rx(&reply, Time::ZERO);
        let derived = FrameMeta::derive(reply.bytes()).unwrap();
        assert!(
            matches!(rx.disposition, nicsim::RxDisposition::SlowPath { meta, .. } if meta == derived),
            "{:?}",
            rx.disposition
        );
    }
}

/// The host's two ingress entry points agree: `Host::pump` (one reconcile
/// check per burst, the NIC ingests the burst before the host reacts, TX
/// drained once after it) and per-frame `deliver_from_wire` + `pump_tx`.
/// At the NIC a burst is a loop over `rx`, so there is no second ingress
/// path to compare; what this holds together is the host's handling of a
/// burst. Fed the same (fault-mangled) arrival stream, two identical
/// hosts end with identical delivery reports, departures, counters,
/// captures, and clean audits.
#[test]
fn batched_rx_identical_to_sequential_under_faults() {
    use norman::DeliveryReport;
    use pkt::Packet;

    fn build_host() -> (Host, nicsim::ConnId, nicsim::ConnId) {
        let mut h = Host::new(HostConfig {
            ring_slots: 64,
            ..HostConfig::default()
        });
        let bob = h.spawn(Uid(1001), "bob", "server");
        let listener = h.listen(bob, IpProto::UDP, 7000).unwrap();
        let conn = h
            .connect(
                bob,
                IpProto::UDP,
                8000,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                true,
            )
            .unwrap();
        h.update_policy(Time::ZERO, |p| {
            p.sniffer = Some(nicsim::SnifferFilter::all())
        })
        .unwrap();
        (h, listener, conn)
    }

    let mut r = rng(27);
    for case in 0..8 {
        let seed = r.next_u64();
        let schedule = arb_schedule(&mut r);
        let (mut seq_host, ..) = build_host();
        let (mut batch_host, ..) = build_host();

        // Push a mixed workload through a faulty link: the delivered
        // stream (dropped/corrupted/duplicated/reordered by the
        // schedule) is what both hosts see.
        let mut link = FaultyLink::new(Link::hundred_gbe(), seed, schedule);
        let mut deliveries = Vec::new();
        for i in 0..200u64 {
            let dst_port = match r.range_u64(0, 3) {
                0 => 7000, // listener
                1 => 8000, // notify connection
                _ => 9999, // unknown: slow path
            };
            let pkt = if r.chance(0.1) {
                PacketBuilder::arp_request(Mac::local(9), arb_ip(&mut r), seq_host.cfg.ip)
            } else {
                PacketBuilder::new()
                    .ether(Mac::local(9), seq_host.cfg.mac)
                    .ipv4(arb_ip(&mut r), seq_host.cfg.ip)
                    .udp(
                        r.range_u64(1, 65536) as u16,
                        dst_port,
                        &arb_bytes(&mut r, 200),
                    )
                    .build()
            };
            deliveries.extend(link.transmit(Time::from_us(i), pkt.bytes().to_vec()));
        }
        deliveries.extend(link.flush(Time::from_us(300)));

        // Feed both hosts the identical stream in bursts of up to 32
        // frames, every frame in a burst arriving at the burst instant.
        let mut seq_reports: Vec<DeliveryReport> = Vec::new();
        let mut seq_departures = Vec::new();
        let mut batch_reports: Vec<DeliveryReport> = Vec::new();
        let mut batch_departures = Vec::new();
        for (i, chunk) in deliveries.chunks(32).enumerate() {
            let now = Time::from_ms(1) + Dur::from_us(i as u64 * 10);
            let frames: Vec<Packet> = chunk
                .iter()
                .map(|d| Packet::from_bytes(d.frame.clone()))
                .collect();
            for f in &frames {
                seq_reports.push(seq_host.deliver_from_wire(f, now));
            }
            seq_departures.extend(seq_host.pump_tx(now));
            let (reports, departures) = batch_host.pump(&frames, now);
            batch_reports.extend(reports);
            batch_departures.extend(departures);
        }

        assert_eq!(
            format!("{seq_reports:?}"),
            format!("{batch_reports:?}"),
            "case {case}: per-frame delivery reports diverged"
        );
        assert_eq!(seq_departures, batch_departures, "case {case}");
        assert_eq!(
            format!("{:?}", seq_host.stats()),
            format!("{:?}", batch_host.stats()),
            "case {case}: host counters diverged"
        );
        assert_eq!(
            format!("{:?}", seq_host.nic.stats()),
            format!("{:?}", batch_host.nic.stats()),
            "case {case}: NIC counters diverged"
        );
        assert_eq!(
            seq_host.nic.flows.counters(),
            batch_host.nic.flows.counters(),
            "case {case}: flow-table counters diverged"
        );
        // Batching ingests a whole burst before the host reacts, so
        // within one burst the TX taps (ARP replies) land after all RX
        // taps instead of interleaved. Per direction, order is exact.
        for dir in [nicsim::Direction::Rx, nicsim::Direction::Tx] {
            let caps = |h: &Host| -> Vec<String> {
                h.nic
                    .sniffer
                    .entries()
                    .iter()
                    .filter(|e| e.direction == dir)
                    .map(|e| e.to_string())
                    .collect()
            };
            assert_eq!(
                caps(&seq_host),
                caps(&batch_host),
                "case {case}: {dir:?} captures diverged"
            );
        }
        assert!(seq_host.nic.audit().is_empty());
        assert!(batch_host.nic.audit().is_empty());
    }
}
