//! Steady-state ingress touches the heap a fixed number of times, and
//! per frame that number is zero: the NIC's parser verifies TCP/UDP
//! checksums in place, the rings and the arena are reserved up front,
//! and `Host::pump` allocates its two result vectors once per burst
//! whatever the burst's length.
//!
//! A counting global allocator keeps per-thread counts, so tests that
//! run in parallel do not mix. Every count is taken after a warm-up
//! that has seen every flow once and, when `NORMAN_TELEMETRY=1` has
//! tracing on from construction, has filled the trace ring once: its
//! record queue starts at a quarter of the ring and doubles (at most
//! twice) only while the ring first fills.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use nicsim::ConnId;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::{FrameMeta, IpProto, Mac, Packet, PacketBuilder, TcpFlags};
use sim::Time;

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
fn derive_and_nic_rx_allocate_nothing_per_frame() {
    for proto in [IpProto::UDP, IpProto::TCP] {
        for len in LENS {
            let mut host = host();
            connect(&mut host, proto);
            let frames = flow_frames(&host, proto, len);
            assert!(frames.iter().all(|f| f.meta().is_none()));
            let rx = |host: &mut Host, i: usize| {
                let r = host.nic.rx(&frames[i % frames.len()], Time::ZERO);
                assert!(r.meta.is_some_and(|m| m.l4_checksum_ok));
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
