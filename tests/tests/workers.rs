//! Multi-queue integration: a host booted with N RSS queues runs one
//! dataplane shard per queue.
//!
//! Four properties:
//!
//! 1. **Shards are the boot queues** — `Host::new` alone gives each
//!    queue a shard: each flow's ring traffic is charged to its own
//!    shard's core meter and LLC partition, and the per-shard counters
//!    read live and stay cumulative across a shard restart.
//! 2. **Generation uniformity** — every trace event of a sharded
//!    delivery carries the policy generation in force when its frame was
//!    handled, even across faulted commits that roll back mid-apply. A
//!    multi-shard chaos run replays deterministically. (The test keeps
//!    the name it had when a quiesce barrier enforced this; events are
//!    emitted live now.)
//! 3. **Conservation at N=4** — the cross-layer audit holds under a
//!    seeded fault schedule with four shards, with counters and
//!    events read live.
//! 4. **RSS policy** — queue steering is kernel-programmable through
//!    the two-phase commit, rolls back atomically, and re-shards the
//!    connections without stranding one.

use std::net::Ipv4Addr;

use nicsim::RssTable;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, RssPolicy, ShapingPolicy, Stage};
use oskernel::Uid;
use pkt::{FiveTuple, IpProto, Mac, Packet, PacketBuilder};
use sim::fault::OpFaultInjector;
use sim::{Dur, FaultSchedule, FaultyLink, Link, Time};

fn wire_udp(host_ip: Ipv4Addr, src_port: u16, dst_port: u16, len: usize) -> Packet {
    PacketBuilder::new()
        .ether(Mac::local(9), Mac::local(1))
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host_ip)
        .udp(src_port, dst_port, &vec![0u8; len])
        .build()
}

/// The RSS queue a local port's RX flow steers to under uniform
/// `num_queues`-way steering (what the NIC computes in its RSS stage).
fn queue_of(host_ip: Ipv4Addr, port: u16, num_queues: usize) -> u16 {
    let tuple = FiveTuple {
        src_ip: Ipv4Addr::new(10, 0, 0, 2),
        dst_ip: host_ip,
        src_port: 9000,
        dst_port: port,
        proto: IpProto::UDP,
    };
    RssTable::uniform(num_queues).queue_for(pkt::meta::flow_hash_of(&tuple))
}

/// Picks `per_queue` local ports steering to each of the `num_queues`
/// queues, so traffic provably exercises every shard.
fn ports_covering_queues(host_ip: Ipv4Addr, num_queues: usize, per_queue: usize) -> Vec<u16> {
    let mut buckets = vec![Vec::new(); num_queues];
    for port in 7000..9000u16 {
        let q = usize::from(queue_of(host_ip, port, num_queues));
        if buckets[q].len() < per_queue {
            buckets[q].push(port);
        }
        if buckets.iter().all(|b| b.len() == per_queue) {
            break;
        }
    }
    assert!(
        buckets.iter().all(|b| b.len() == per_queue),
        "port scan must cover every queue"
    );
    buckets.concat()
}

/// `Host::new` alone makes a 4-queue host four shards: each flow's ring
/// traffic is charged to its own shard's core meter and LLC partition
/// and to no other, and the `llc.*` metrics are the sum over the shards.
#[test]
fn each_flow_is_charged_to_its_own_boot_shard() {
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: 4,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut h = Host::new(cfg);
    let bob = h.spawn(Uid(1001), "bob", "server");
    // One port per queue, in queue order: `ports[q]` steers to queue q.
    let ports = ports_covering_queues(h.cfg.ip, 4, 1);
    for &port in &ports {
        h.connect(
            bob,
            IpProto::UDP,
            port,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    }
    assert_eq!(h.metrics_snapshot().counter("host.workers"), Some(4));
    let shard_dma = |h: &Host, c: usize| {
        let snap = h.metrics_snapshot();
        snap.counter(&format!("llc.shard.{c}.dma_hits")).unwrap()
            + snap.counter(&format!("llc.shard.{c}.dma_misses")).unwrap()
    };
    for (q, &port) in ports.iter().enumerate() {
        let busy: Vec<Dur> = (0..4).map(|c| h.sched.core_meter(c).busy).collect();
        let dma: Vec<u64> = (0..4).map(|c| shard_dma(&h, c)).collect();
        let frame = wire_udp(h.cfg.ip, 9000, port, 400);
        let report = h.deliver_from_wire(&frame, Time::from_us(q as u64));
        assert!(matches!(report.outcome, DeliveryOutcome::FastPath(_)));
        for c in 0..4 {
            let charged = h.sched.core_meter(c).busy > busy[c];
            assert_eq!(charged, c == q, "core {c} after the queue-{q} flow's frame");
            let cached = shard_dma(&h, c) > dma[c];
            assert_eq!(
                cached,
                c == q,
                "shard {c} LLC after the queue-{q} flow's frame"
            );
        }
    }
    let snap = h.metrics_snapshot();
    for what in ["dma_hits", "dma_misses", "ddio_evictions"] {
        let per_shard: u64 = (0..4)
            .map(|c| snap.counter(&format!("llc.shard.{c}.{what}")).unwrap())
            .sum();
        assert_eq!(
            snap.counter(&format!("llc.{what}")),
            Some(per_shard),
            "{what}"
        );
    }
}

/// Counters, core meters and the per-shard LLC metrics are live: there
/// is no barrier to take before reading them, and the per-shard LLC
/// counters keep accumulating across a shard's restart cycle.
#[test]
fn sharded_counters_are_live_and_shard_llc_stats_span_cycles() {
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: 4,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut h = Host::new(cfg);
    let bob = h.spawn(Uid(1001), "bob", "server");
    let ports = ports_covering_queues(h.cfg.ip, 4, 2);
    for &port in &ports {
        h.connect(
            bob,
            IpProto::UDP,
            port,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    }
    let burst: Vec<Packet> = ports
        .iter()
        .map(|&p| wire_udp(h.cfg.ip, 9000, p, 400))
        .collect();
    let n = burst.len() as u64;
    h.pump(&burst, Time::ZERO);

    assert_eq!(h.stats().fast_delivered, n);
    // Shard `c`'s cumulative LLC counters, as the metrics snapshot reads
    // them: (DMA hits, DMA misses, DDIO evictions).
    let shard_llc = |h: &Host, c: usize| {
        let snap = h.metrics_snapshot();
        let read = |what: &str| snap.counter(&format!("llc.shard.{c}.{what}")).unwrap();
        (read("dma_hits"), read("dma_misses"), read("ddio_evictions"))
    };
    let dma = |(hits, misses, _): (u64, u64, u64)| hits + misses;
    assert_eq!(h.metrics_snapshot().counter("host.fast_delivered"), Some(n));
    for c in 0..4 {
        assert!(h.sched.core_meter(c).busy > Dur::ZERO, "core {c} idle");
        assert!(dma(shard_llc(&h, c)) > 0, "shard {c} shows no DMA traffic");
    }

    let first: Vec<_> = (0..4).map(|c| shard_llc(&h, c)).collect();
    for c in 0..4 {
        h.inject_worker_panic(c, "restart", Time::from_us(5))
            .unwrap_err();
    }
    for (c, banked) in first.iter().enumerate() {
        assert_eq!(shard_llc(&h, c), *banked, "restart must bank shard {c}");
    }
    h.pump(&burst, Time::from_us(10));
    for (c, banked) in first.iter().enumerate() {
        assert!(
            dma(shard_llc(&h, c)) > dma(*banked),
            "shard {c} must keep counting on top of the earlier cycle"
        );
    }
}

/// Every burst's ring-enqueue events must carry the generation that was
/// in force when the burst was pumped — a shard emits as it delivers, in
/// the one simulation thread, so no shard can leak old-epoch work into a
/// new epoch (or vice versa), even when commits fault mid-apply and roll
/// back.
#[test]
fn quiesce_barrier_keeps_generations_uniform_across_faulted_commits() {
    let transcript = |seed: u64| -> (String, u64, u64) {
        let cfg = HostConfig {
            nic: nicsim::NicConfig {
                num_queues: 4,
                ..nicsim::NicConfig::default()
            },
            ring_slots: 64,
            ..HostConfig::default()
        };
        let mut h = Host::new(cfg);
        let bob = h.spawn(Uid(1001), "bob", "server");
        let ports = ports_covering_queues(h.cfg.ip, 4, 2);
        let conns: Vec<_> = ports
            .iter()
            .map(|&port| {
                h.connect(
                    bob,
                    IpProto::UDP,
                    port,
                    Ipv4Addr::new(10, 0, 0, 2),
                    9000,
                    false,
                )
                .unwrap()
            })
            .collect();
        h.start_trace();
        h.set_policy_fault_injector(OpFaultInjector::seeded_rate(seed, 0.15));

        let mut committed = 0u64;
        let mut rolled_back = 0u64;
        let mut expected: Vec<(Time, u64)> = Vec::new();
        for round in 0..12u64 {
            let now = Time::from_us(round * 50);
            let gen_in_force = h.policy_generation();
            let burst: Vec<Packet> = ports
                .iter()
                .map(|&p| wire_udp(h.cfg.ip, 9000, p, 300))
                .collect();
            let (reports, _) = h.pump(&burst, now);
            assert!(reports
                .iter()
                .all(|r| matches!(r.outcome, DeliveryOutcome::FastPath(_))));
            expected.push((now, gen_in_force));
            // Commit a steering + shaping change; some of these fault
            // mid-apply and roll back.
            let rotate = usize::try_from(round).unwrap() + 1;
            let table: Vec<u16> = (0..128).map(|i| ((i + rotate) % 4) as u16).collect();
            match h.update_policy(now + Dur::from_us(10), |p| {
                p.rss = Some(RssPolicy {
                    num_queues: 4,
                    indirection: table.clone(),
                });
                p.shaping = Some(ShapingPolicy::new(vec![(
                    Uid(1001),
                    1.0 + (round % 5) as f64,
                )]));
            }) {
                Ok(_) => committed += 1,
                Err(_) => rolled_back += 1,
            }
            let violations = h.audit();
            assert!(violations.is_empty(), "round {round}: {violations:?}");
            // Drain so rings stay shallow.
            for &conn in &conns {
                while h
                    .app_recv(conn, now + Dur::from_us(20), false)
                    .len
                    .is_some()
                {}
            }
        }
        // Per-burst generation uniformity, checked against the event
        // ledger.
        let events = h.telemetry().events();
        for (at, generation) in &expected {
            // Ring events are stamped at delivery time (pump time plus
            // NIC latency), so bucket them by the 50us round window.
            let ring: Vec<_> = events
                .iter()
                .filter(|e| {
                    e.stage == Stage::RingEnqueue && e.at >= *at && e.at < *at + Dur::from_us(50)
                })
                .collect();
            assert_eq!(ring.len(), ports.len(), "burst at {at:?} fully traced");
            assert!(
                ring.iter().all(|e| e.generation == *generation),
                "burst at {at:?} must be uniformly generation {generation}"
            );
        }
        (format!("{events:?}"), committed, rolled_back)
    };

    let (a, committed, rolled_back) = transcript(0x5EED);
    assert!(committed > 0, "fault rate too high: nothing committed");
    assert!(rolled_back > 0, "fault rate too low: nothing rolled back");
    // Shard order must not leak into observable state: the same seed
    // replays to an identical event stream.
    let (b, ..) = transcript(0x5EED);
    assert_eq!(a, b, "multi-worker replay must be deterministic");
}

/// The N=4 conservation property under a seeded chaos schedule: loss and
/// corruption on the wire, policy churn with mid-commit faults, sharded
/// delivery — and the cross-layer audit stays clean throughout.
#[test]
fn conservation_holds_with_four_workers_under_chaos() {
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: 4,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut h = Host::new(cfg);
    let bob = h.spawn(Uid(1001), "bob", "server");
    let ports = ports_covering_queues(h.cfg.ip, 4, 4);
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| {
            h.connect(
                bob,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap()
        })
        .collect();
    h.start_trace();
    h.set_policy_fault_injector(OpFaultInjector::seeded_rate(0xFEED, 0.10));

    let mut wire = FaultyLink::new(
        Link::hundred_gbe(),
        0x77,
        FaultSchedule {
            loss: sim::fault::LossModel::Steady(0.05),
            ..FaultSchedule::corrupting(0.02)
        },
    );
    let mut offered = 0u64;
    for i in 0..2000u64 {
        let t = Time::ZERO + Dur(300_000) * i;
        let port = ports[(i % ports.len() as u64) as usize];
        let pkt = if i % 13 == 0 {
            wire_udp(h.cfg.ip, 1, 9999, 64) // unknown port: slow path
        } else {
            wire_udp(h.cfg.ip, 9000, port, 500)
        };
        for d in wire.transmit(t, pkt.bytes().to_vec()) {
            h.deliver_from_wire(&Packet::from_bytes(d.frame), d.at);
            offered += 1;
        }
        if i % 3 == 0 {
            let conn = conns[(i % conns.len() as u64) as usize];
            let _ = h.app_recv(conn, t, false);
        }
        // Policy churn: rotate the indirection table at a fixed queue
        // count, with seeded mid-commit faults forcing rollbacks.
        if i % 250 == 0 && i > 0 {
            let rotate = usize::try_from(i / 250).unwrap();
            let table: Vec<u16> = (0..128).map(|j| ((j + rotate) % 4) as u16).collect();
            let _ = h.update_policy(t, |p| {
                p.rss = Some(RssPolicy {
                    num_queues: 4,
                    indirection: table.clone(),
                });
            });
            let violations = h.audit();
            assert!(violations.is_empty(), "frame {i}: {violations:?}");
        }
    }
    for d in wire.flush(Time::ZERO + Dur(300_000) * 2000) {
        h.deliver_from_wire(&Packet::from_bytes(d.frame), d.at);
        offered += 1;
    }

    let tel = h.telemetry();
    assert_eq!(tel.stage_count(Stage::RxIngress), offered);
    assert_eq!(
        tel.stage_count(Stage::RxIngress),
        tel.stage_count(Stage::RxDeliver)
            + tel.stage_count(Stage::RxSlowPath)
            + tel.stage_count(Stage::RxDrop),
        "RX conservation across shards"
    );
    assert_eq!(
        tel.stage_count(Stage::RxDeliver),
        tel.stage_count(Stage::RingEnqueue),
        "every shard delivery must reach the ring stage"
    );
    assert!(h.stats().fast_delivered > 0);
    // All four shards did real work.
    assert_eq!(h.sched.num_cores_charged(), 4);
    for core in 0..4 {
        assert!(
            h.sched.core_meter(core).busy > Dur::ZERO,
            "core {core} never charged — a queue went unserved"
        );
    }
    let violations = h.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");
}

#[test]
fn rss_policy_programs_and_rolls_back_through_the_control_plane() {
    let mut h = Host::new(HostConfig::default());
    assert_eq!(h.nic.num_queues(), 1);

    // Commit 1: spread to 4 queues with a custom table.
    let table: Vec<u16> = (0..128).map(|i| ((i + 1) % 4) as u16).collect();
    let g = h
        .update_policy(Time::ZERO, |p| {
            p.rss = Some(RssPolicy {
                num_queues: 4,
                indirection: table.clone(),
            })
        })
        .unwrap();
    assert_eq!(g, 1);
    assert_eq!(h.nic.num_queues(), 4);
    assert_eq!(h.nic.rss().indirection(), &table[..]);
    let mut violations = h.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");

    // Commit 2 faults on its first apply op: full rollback, steering
    // untouched, generation unchanged.
    h.set_policy_fault_injector(OpFaultInjector::fail_nth(1));
    let err = h.update_policy(Time::from_us(10), |p| {
        p.rss = Some(RssPolicy::uniform(2));
    });
    assert!(err.is_err(), "armed fault must abort the commit");
    assert_eq!(h.policy_generation(), 1);
    assert_eq!(h.nic.num_queues(), 4);
    assert_eq!(h.nic.rss().indirection(), &table[..]);
    violations = h.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");

    // Dropping the policy reverts the NIC to boot-time steering.
    let g = h
        .update_policy(Time::from_us(20), |p| p.rss = None)
        .unwrap();
    assert_eq!(g, 2);
    assert_eq!(h.nic.num_queues(), 1);
    violations = h.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");

    // Degenerate queue counts are rejected in phase 1.
    assert!(h
        .update_policy(Time::from_us(30), |p| p.rss = Some(RssPolicy::uniform(0)))
        .is_err());
    assert!(h
        .update_policy(Time::from_us(31), |p| {
            p.rss = Some(RssPolicy::uniform(nicsim::MAX_QUEUES + 1))
        })
        .is_err());
    assert_eq!(h.policy_generation(), 2);
}

/// An RSS commit that moves flows between queues re-indexes every
/// connection's shard: rings never move, so no frame can land somewhere
/// its connection's rings are not.
#[test]
fn rss_commit_reshards_ring_ownership_without_stranding_flows() {
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: 4,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 16,
        ..HostConfig::default()
    };
    let mut h = Host::new(cfg);
    let bob = h.spawn(Uid(1001), "bob", "server");
    let ports = ports_covering_queues(h.cfg.ip, 4, 2);
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| {
            h.connect(
                bob,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap()
        })
        .collect();

    let burst: Vec<Packet> = ports
        .iter()
        .map(|&p| wire_udp(h.cfg.ip, 9000, p, 256))
        .collect();
    for rotate in 1..6usize {
        let table: Vec<u16> = (0..128).map(|j| ((j + rotate) % 4) as u16).collect();
        h.update_policy(Time::from_us(rotate as u64 * 100), |p| {
            p.rss = Some(RssPolicy {
                num_queues: 4,
                indirection: table.clone(),
            });
        })
        .unwrap();
        let (reports, _) = h.pump(&burst, Time::from_us(rotate as u64 * 100 + 10));
        assert!(
            reports
                .iter()
                .all(|r| matches!(r.outcome, DeliveryOutcome::FastPath(_))),
            "rotate {rotate}: every flow must still hit its rings: {reports:?}"
        );
        for &conn in &conns {
            assert!(h
                .app_recv(conn, Time::from_us(rotate as u64 * 100 + 20), false)
                .len
                .is_some());
        }
    }
    let violations = h.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");
}

/// Every frame whose admission was traced must be dequeued and delivered
/// under the id it was admitted with, and with its own length — checked
/// against distinct frame lengths so a mixed-up id cannot pass.
fn assert_frame_ids_follow_frames(h: &Host, traced_lens: &[usize]) {
    let events = h.telemetry().events();
    let at = |stage: Stage| events.iter().filter(move |e| e.stage == stage);
    let ingress: Vec<_> = at(Stage::RxIngress).collect();
    assert_eq!(
        ingress.iter().map(|e| e.len as usize).collect::<Vec<_>>(),
        traced_lens
    );
    for admitted in ingress {
        assert_ne!(admitted.frame_id, 0);
        for stage in [Stage::RingEnqueue, Stage::RingDequeue, Stage::AppDeliver] {
            let same_id: Vec<_> = at(stage)
                .filter(|e| e.frame_id == admitted.frame_id)
                .collect();
            assert_eq!(same_id.len(), 1, "{stage} events for {admitted}");
            assert_eq!(same_id[0].len, admitted.len, "{stage} of {admitted}");
        }
    }
}

#[test]
fn frame_ids_ride_the_ring_when_tracing_starts_on_resident_frames() {
    let mut h = Host::new(HostConfig {
        ring_slots: 8,
        ..HostConfig::default()
    });
    h.stop_trace(); // whatever NORMAN_TELEMETRY says, start untraced
    let bob = h.spawn(Uid(1001), "bob", "server");
    let conn = h
        .connect(
            bob,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let mut now = Time::ZERO;
    let mut deliver = |h: &mut Host, len: usize| {
        now += Dur::from_us(1);
        let report = h.deliver_from_wire(&wire_udp(h.cfg.ip, 9000, 7000, len), now);
        assert!(
            matches!(report.outcome, DeliveryOutcome::FastPath(_)),
            "{:?}",
            report.outcome
        );
    };
    // Three frames land in the ring before anyone is watching.
    for len in [100, 101, 102] {
        deliver(&mut h, len);
    }
    h.start_trace();
    let traced = [200, 201, 202];
    for len in traced {
        deliver(&mut h, len);
    }
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    for _ in 0..6 {
        assert!(h.app_recv(conn, Time::from_us(10), false).len.is_some());
    }
    let traced_wire: Vec<usize> = traced
        .iter()
        .map(|&l| wire_udp(h.cfg.ip, 9000, 7000, l).len())
        .collect();
    assert_frame_ids_follow_frames(&h, &traced_wire);
    // The resident frames were dequeued under their own ids too: six
    // dequeues, six distinct nonzero ids, none borrowed from a neighbour.
    let mut ids: Vec<u64> = h
        .telemetry()
        .events()
        .iter()
        .filter(|e| e.stage == Stage::RingDequeue)
        .map(|e| e.frame_id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6);
    assert!(!ids.contains(&0));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}

/// A shard's worker stops and starts when a crash restarts it;
/// the frames resident in its rings keep their ids across it.
#[test]
fn frame_ids_ride_the_ring_across_worker_start_and_stop() {
    let cfg = HostConfig {
        nic: nicsim::NicConfig {
            num_queues: 4,
            ..nicsim::NicConfig::default()
        },
        ring_slots: 8,
        ..HostConfig::default()
    };
    let mut h = Host::new(cfg);
    let bob = h.spawn(Uid(1001), "bob", "server");
    let ports = ports_covering_queues(h.cfg.ip, 4, 1);
    let conns: Vec<_> = ports
        .iter()
        .map(|&port| {
            h.connect(
                bob,
                IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                false,
            )
            .unwrap()
        })
        .collect();
    h.start_trace();
    // One burst per phase, each frame a different length, with every
    // shard restarted between phases while the frames sit in its rings.
    let mut traced_wire = Vec::new();
    let mut burst = |h: &mut Host, base: usize, at: Time| {
        let frames: Vec<Packet> = ports
            .iter()
            .enumerate()
            .map(|(i, &p)| wire_udp(h.cfg.ip, 9000, p, base + i))
            .collect();
        traced_wire.extend(frames.iter().map(Packet::len));
        let (reports, _) = h.pump(&frames, at);
        assert!(reports
            .iter()
            .all(|r| matches!(r.outcome, DeliveryOutcome::FastPath(_))));
    };
    let restart_all = |h: &mut Host, at: Time| {
        for shard in 0..4 {
            h.inject_worker_panic(shard, "restart", at).unwrap_err();
        }
    };
    burst(&mut h, 100, Time::from_us(1));
    restart_all(&mut h, Time::from_us(2));
    burst(&mut h, 200, Time::from_us(3));
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    restart_all(&mut h, Time::from_us(4));
    burst(&mut h, 300, Time::from_us(5));
    for _ in 0..3 {
        for &conn in &conns {
            assert!(h.app_recv(conn, Time::from_us(10), false).len.is_some());
        }
    }
    assert_frame_ids_follow_frames(&h, &traced_wire);
    assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
}
