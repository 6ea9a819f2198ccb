//! Steady-state ingress touches the heap a fixed number of times, and
//! per frame that number is zero: the NIC's parser verifies TCP/UDP
//! checksums in place, the rings and the arena are reserved up front,
//! and `Host::pump` allocates its two result vectors once per burst
//! whatever the burst's length. Egress under a committed policy is the
//! same: `Host::app_send` allocates nothing per frame, and
//! `Host::pump_tx` only its result vector when something departs.
//! Building a frame costs one block, the descriptor its clones share.
//! Wire frames carry no descriptor, so none of that reaches ingress.
//!
//! A counting global allocator keeps per-thread counts, so tests that
//! run in parallel do not mix. Every count is taken after a warm-up
//! that has seen every flow once and, when `NORMAN_TELEMETRY=1` has
//! tracing on from construction, has filled the trace ring once: its
//! cell slab and record queue are reserved on first enable, the record
//! queue grows (once) only when calls average fewer than two stages,
//! and its epoch queue allocates when the first record is stored.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use nicsim::ConnId;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, PortReservation, ShapingPolicy};
use oskernel::Uid;
use overlay::builtins;
use pkt::{FrameMeta, IpProto, Mac, Packet, PacketBuilder, TcpFlags};
use sim::{Dur, Time};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation on the calling
/// thread.
struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Frames measured after the warm-up.
const FRAMES: usize = 256;
/// Frame lengths on the wire, headers included.
const LENS: [usize; 3] = [64, 256, 1500];
/// What `Host::pump` allocates per burst: the NIC's `Vec<RxResult>` and
/// the host's `Vec<DeliveryReport>` (the departures vector stays empty,
/// so it never allocates).
const PUMP_ALLOCS_PER_BURST: u64 = 2;

const REMOTE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const REMOTE_PORT: u16 = 9000;
const FLOWS: u16 = 8;
const FIRST_PORT: u16 = 7000;

fn host() -> Host {
    Host::new(HostConfig {
        ring_slots: 64,
        arena_slots: 256,
        ..HostConfig::default()
    })
}

/// One connection per port `FIRST_PORT..FIRST_PORT + FLOWS`.
fn connect(host: &mut Host, proto: IpProto) -> Vec<ConnId> {
    let bob = host.spawn(Uid(1001), "bob", "server");
    (0..FLOWS)
        .map(|i| {
            host.connect(bob, proto, FIRST_PORT + i, REMOTE_IP, REMOTE_PORT, false)
                .expect("open a flow")
        })
        .collect()
}

/// A frame as it comes off the wire: `len` bytes in an arena slot (on
/// the heap when it does not fit one) and no parse-once descriptor.
fn wire_frame(host: &Host, proto: IpProto, dst_port: u16, len: usize) -> Packet {
    let b = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(REMOTE_IP, host.cfg.ip);
    let payload = vec![0x5Au8; len - 42 - if proto == IpProto::TCP { 12 } else { 0 }];
    let built = if proto == IpProto::TCP {
        b.tcp(REMOTE_PORT, dst_port, TcpFlags::ACK, &payload)
            .build_in(host.arena())
    } else {
        b.udp(REMOTE_PORT, dst_port, &payload)
            .build_in(host.arena())
    };
    assert_eq!(built.len(), len);
    match built.arena_frame() {
        Some(slot) => Packet::from_arena(slot.clone()),
        None => Packet::from_bytes(built.bytes().to_vec()),
    }
}

fn flow_frames(host: &Host, proto: IpProto, len: usize) -> Vec<Packet> {
    (0..FLOWS)
        .map(|i| wire_frame(host, proto, FIRST_PORT + i, len))
        .collect()
}

/// Runs `step` over frames `0, 1, 2, …` until the warm-up is over: every
/// frame of the pool seen twice and, with tracing on, the trace ring
/// filled once.
fn warm(host: &mut Host, mut step: impl FnMut(&mut Host, usize)) {
    let mut i = 0;
    while i < 2 * usize::from(FLOWS)
        || (host.telemetry().is_enabled() && host.telemetry().evicted() == 0)
    {
        step(host, i);
        i += 1;
    }
}

#[test]
fn build_in_allocates_the_shared_descriptor_and_clone_nothing() {
    let host = host();
    let payload = [0x5Au8; 64];
    let builder = PacketBuilder::new()
        .ether(host.cfg.mac, Mac::local(9))
        .ipv4(host.cfg.ip, REMOTE_IP)
        .udp(FIRST_PORT, REMOTE_PORT, &payload);
    let mut built = None;
    let n = allocs_in(|| built = Some(builder.build_in(host.arena())));
    let built = built.unwrap();
    assert!(built.arena_frame().is_some() && built.meta().is_some());
    assert_eq!(n, 1, "build_in into a free slot: the descriptor's block");
    assert_eq!(allocs_in(|| drop(built.clone())), 0, "Packet::clone");
}

#[test]
fn derive_and_nic_rx_allocate_nothing_per_frame() {
    for proto in [IpProto::UDP, IpProto::TCP] {
        for len in LENS {
            let mut host = host();
            connect(&mut host, proto);
            let frames = flow_frames(&host, proto, len);
            assert!(frames.iter().all(|f| f.meta().is_none()));
            let rx = |host: &mut Host, i: usize| {
                let r = host.nic.rx(&frames[i % frames.len()], Time::ZERO);
                assert!(matches!(
                    r.disposition,
                    nicsim::RxDisposition::Deliver { meta, .. } if meta.l4_checksum_ok
                ));
            };
            warm(&mut host, rx);
            let derive = allocs_in(|| {
                for i in 0..FRAMES {
                    let meta = FrameMeta::derive(frames[i % frames.len()].bytes());
                    assert!(meta.is_ok_and(|m| m.l4_checksum_ok));
                }
            });
            assert_eq!(derive, 0, "FrameMeta::derive, {proto:?} {len} B");
            let nic = allocs_in(|| (0..FRAMES).for_each(|i| rx(&mut host, i)));
            assert_eq!(nic, 0, "SmartNic::rx, {proto:?} {len} B");
        }
    }
}

#[test]
fn fast_path_delivery_allocates_nothing_per_frame() {
    for len in LENS {
        let mut host = host();
        let conns = connect(&mut host, IpProto::UDP);
        let frames = flow_frames(&host, IpProto::UDP, len);
        let deliver = |host: &mut Host, i: usize| {
            let k = i % frames.len();
            let report = host.deliver_frame(frames[k].clone(), Time::ZERO);
            assert_eq!(report.outcome, DeliveryOutcome::FastPath(conns[k]));
            assert_eq!(host.app_recv(conns[k], Time::ZERO, false).len, Some(len));
        };
        warm(&mut host, deliver);
        let n = allocs_in(|| (0..FRAMES).for_each(|i| deliver(&mut host, i)));
        assert_eq!(n, 0, "deliver_frame + app_recv, {len} B");
    }
}

#[test]
fn slow_path_delivery_allocates_nothing_per_frame() {
    for len in LENS {
        let mut host = host();
        let legacy = host.spawn(Uid(1002), "carol", "legacy-app");
        for i in 0..FLOWS {
            assert!(host
                .stack
                .bind(IpProto::UDP, FIRST_PORT + i, legacy, &host.procs));
        }
        let frames = flow_frames(&host, IpProto::UDP, len);
        let deliver = |host: &mut Host, i: usize| {
            let k = i % frames.len();
            let report = host.deliver_frame(frames[k].clone(), Time::ZERO);
            assert_eq!(report.outcome, DeliveryOutcome::SlowPath);
            let port = FIRST_PORT + k as u16;
            let (got, _) = host.stack.recv(IpProto::UDP, port, false);
            assert_eq!(got.map(|p| p.len()), Some(len));
        };
        warm(&mut host, deliver);
        let n = allocs_in(|| (0..FRAMES).for_each(|i| deliver(&mut host, i)));
        assert_eq!(n, 0, "deliver_frame + stack.recv, {len} B");
    }
}

#[test]
fn pump_allocates_per_burst_not_per_frame() {
    let mut host = host();
    let conns = connect(&mut host, IpProto::UDP);
    let frames = flow_frames(&host, IpProto::UDP, 64);
    // Bursts of up to 64 frames over 8 flows fill each flow's 64-slot
    // ring to at most 8 before `app_recv` drains it.
    let pump = |host: &mut Host, burst: &[Packet]| {
        let (reports, departures) = host.pump(burst, Time::ZERO);
        assert_eq!(reports.len(), burst.len());
        assert!(departures.is_empty());
        for (k, r) in reports.iter().enumerate() {
            let conn = conns[k % conns.len()];
            assert_eq!(r.outcome, DeliveryOutcome::FastPath(conn));
            assert!(host.app_recv(conn, Time::ZERO, false).pkt.is_some());
        }
    };
    let bursts: Vec<Vec<Packet>> = [1, 8, 32, 64]
        .into_iter()
        .map(|n| frames.iter().cycle().take(n).cloned().collect())
        .collect();
    warm(&mut host, |host, i| pump(host, &bursts[i % bursts.len()]));
    for burst in &bursts {
        let n = allocs_in(|| pump(&mut host, burst));
        assert_eq!(n, PUMP_ALLOCS_PER_BURST, "pump of {} frames", burst.len());
    }
}

#[test]
fn tx_allocates_nothing_per_frame_under_a_committed_policy() {
    // Reservations (the port-owner filter), shaping (the uid classifier
    // and the TX scheduler) and accounting: every overlay program and
    // the qdisc run on every frame.
    let mut host = host();
    host.update_policy(Time::ZERO, |p| {
        for i in 0..FLOWS {
            let uid = Uid(if i % 2 == 0 { 1001 } else { 1002 });
            p.reservations
                .push(PortReservation::new(FIRST_PORT + i, uid));
        }
        p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 3.0), (Uid(1002), 1.0)]));
        p.accounting.push(builtins::byte_accounting());
    })
    .expect("commit reservations, shaping and accounting");
    let (bob, carol) = (
        host.spawn(Uid(1001), "bob", "app"),
        host.spawn(Uid(1002), "carol", "app"),
    );
    let conns: Vec<ConnId> = (0..FLOWS)
        .map(|i| {
            let pid = if i % 2 == 0 { bob } else { carol };
            host.connect(
                pid,
                IpProto::UDP,
                FIRST_PORT + i,
                REMOTE_IP,
                REMOTE_PORT,
                false,
            )
            .expect("open a flow")
        })
        .collect();
    let frames: Vec<Packet> = LENS
        .iter()
        .flat_map(|&len| (0..FLOWS).map(move |i| (i, len)))
        .map(|(i, len)| {
            PacketBuilder::new()
                .ether(host.cfg.mac, Mac::local(9))
                .ipv4(host.cfg.ip, REMOTE_IP)
                .udp(FIRST_PORT + i, REMOTE_PORT, &vec![0x5Au8; len - 42])
                .build_in(host.arena())
        })
        .collect();
    // One frame at a time, each sent a wire time after the last, so
    // every `pump_tx` finds the link free and the frame just sent
    // departs.
    let mut now = Time::ZERO;
    let send = |host: &mut Host, now: Time, i: usize| {
        let k = i % frames.len();
        let r = host.app_send(conns[k % conns.len()], &frames[k], now);
        assert!(r.queued, "frame {k} queued");
    };
    let pump = |host: &mut Host, now: Time| {
        assert_eq!(host.pump_tx(now).len(), 1);
    };
    // Every frame of the pool twice (a ring meeting a longer frame than
    // it has seen grows its residency table once), then `warm`'s rule.
    let mut step = |host: &mut Host, i: usize| {
        now += Dur::from_us(1);
        send(host, now, i);
        pump(host, now);
    };
    (0..2 * frames.len()).for_each(|i| step(&mut host, i));
    warm(&mut host, step);
    for i in 0..FRAMES {
        now += Dur::from_us(1);
        assert_eq!(allocs_in(|| send(&mut host, now, i)), 0, "app_send {i}");
        assert_eq!(allocs_in(|| pump(&mut host, now)), 1, "pump_tx {i}");
        let idle = allocs_in(|| assert!(host.pump_tx(now).is_empty()));
        assert_eq!(idle, 0, "pump_tx with nothing to send");
    }
    // The pool's slots are the test's, not the host's: release them.
    drop(frames);
    assert_eq!(host.audit(), Vec::<sim::Violation>::new());
}
