//! Layer replay: the workload's own input stream fed to each layer's
//! public entry point on a standalone instance, configured as the host
//! configured it.
//!
//! With one thread and nothing contended, a faster layer saves at most
//! its share of the facade span it sits under, so `Σ replayed children ≤
//! facade span` is the check that the breakdown is honest; what is left
//! is the facade's (norman's) self time.

use std::hint::black_box;
use std::time::Instant;

use memsim::{AccessKind, AccessOutcome, DescRing, Llc};
use nicsim::device::ProgramSlot;
use nicsim::{FlowTier, SmartNic};
use norman::ControlPlane;
use oskernel::{Cred, NetStack, ProcessTable, Uid};
use overlay::{PktCtx, Program, Vm};
use pkt::{BufArena, FiveTuple, FrameMeta, IpProto, Packet, PacketBuilder};
use qdisc::{MultiQueue, QPkt};
use sim::Time;
use telemetry::{Comm, Owner, Stage, Telemetry, TraceEvent, TraceVerdict};

use crate::stats::Summary;
use crate::workload::{Kind, Rig, Target, BURST, HEADERS, TX_PREFILL};

/// Timed segments per replay (after [`WARM`] untimed ones).
const SEGMENTS: usize = 64;
const WARM: usize = 2;

/// Wall nanoseconds per operation of every replayed entry point (0 where
/// the workload never reaches the layer), plus the counts read off them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `pkt::FrameMeta::of`.
    pub pkt_parse: f64,
    /// `pkt::PacketBuilder::build_in` into a standalone arena.
    pub pkt_build: f64,
    /// `pkt::BufArena::alloc` + freeze + drop.
    pub pkt_arena: f64,
    /// `nicsim::SmartNic::rx_batch`, per frame.
    pub nic_rx_batch: f64,
    /// `nicsim::SmartNic::rx`.
    pub nic_rx: f64,
    /// `nicsim::FlowTable::lookup`.
    pub flow_lookup: f64,
    /// `nicsim::SmartNic::tx_enqueue`.
    pub nic_tx_enqueue: f64,
    /// `nicsim::SmartNic::tx_poll_batch`, per frame.
    pub nic_tx_poll: f64,
    /// `memsim::DescRing` produce + consume, per frame.
    pub ring: f64,
    /// `memsim::Llc::access_range`, per cache line.
    pub llc_line: f64,
    /// `overlay::Vm::run` over every committed program, per frame.
    pub overlay_run: f64,
    /// Overlay cycles per frame (from `Execution`).
    pub overlay_cycles: f64,
    /// `overlay::compile`, per committed program.
    pub overlay_compile: f64,
    /// `overlay::verify`, per committed program.
    pub overlay_verify: f64,
    /// `qdisc::MultiQueue::enqueue_on` + `dequeue_rr`.
    pub qdisc: f64,
    /// `telemetry::Telemetry::emit`, hub enabled.
    pub tel_emit: f64,
    /// Same, hub disabled.
    pub tel_emit_disabled: f64,
    /// Trace events the standalone NIC emits per frame (hub enabled as on
    /// the host); the host's own emits are the rest.
    pub nic_events_per_frame: f64,
    /// `oskernel::NetStack::rx_with_meta` (the entry the host uses).
    pub stack_rx: f64,
    /// `oskernel::NetStack::recv`.
    pub stack_recv: f64,
}

/// Runs `body(ops)` for warm-up plus [`SEGMENTS`] timed segments and
/// returns the third-fastest segment's nanoseconds per operation — the same
/// estimator the end-to-end number uses.
fn low(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(SEGMENTS);
    for s in 0..WARM + SEGMENTS {
        let start = Instant::now();
        body(ops);
        if s >= WARM {
            samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
    Summary::of(&samples).low
}

/// The schedule cursor every replay walks, from the same start the
/// driver starts at.
struct Cursor<'a> {
    rig: &'a Rig,
    pos: usize,
}

impl Cursor<'_> {
    #[inline]
    fn next(&mut self) -> usize {
        self.rig.entry_at(&mut self.pos)
    }
}

fn cursor(rig: &Rig) -> Cursor<'_> {
    Cursor { rig, pos: 0 }
}

/// A bare NIC holding what the host's NIC holds: the committed policy
/// (installed through the same control plane) and every connection.
fn bare_nic(rig: &Rig, tracing: bool) -> (SmartNic, Telemetry) {
    let tel = Telemetry::new();
    let mut nic = SmartNic::new(rig.host.cfg.nic.clone());
    nic.set_telemetry(tel.clone());
    let policy = rig.policy.clone();
    ControlPlane::new(tel.clone())
        .update(&mut nic, &mut None, Time::ZERO, |p| *p = policy)
        .expect("install the workload's policy on a bare NIC");
    for (f, tuple) in rig.flows.iter().zip(flow_tuples(rig)) {
        let conn = nic
            .open_connection(tuple, f.uid, f.pid.0, "app", false)
            .expect("open a flow on a bare NIC");
        assert_eq!(
            conn, f.conn,
            "bare NIC numbers connections as the host does"
        );
    }
    tel.set_enabled(tracing);
    (nic, tel)
}

/// Each flow's RX five-tuple (remote → local), as `Host::connect` built it.
fn flow_tuples(rig: &Rig) -> impl Iterator<Item = FiveTuple> + '_ {
    rig.flows.iter().map(|f| {
        rig.host
            .connection(f.conn)
            .expect("flow is open on the host")
            .tuple
    })
}

/// Ring base addresses laid out as `Host::connect` lays them out (the
/// scatter of `Host::alloc_ring_addr`), so the standalone LLC sees the
/// same set conflicts. [`check_ring_layout`] holds this copy to the host.
fn ring_addr(rig: &Rig, index: u64) -> u64 {
    let cfg = &rig.host.cfg;
    let footprint =
        cfg.ring_slots as u64 * (DescRing::<Packet>::DESC_BYTES + cfg.ring_slot_bytes as u64);
    let cell = footprint.next_multiple_of(4096);
    let cells = ((16u64 << 30) / cell).next_power_of_two() / 2;
    0x1_0000_0000 + (index.wrapping_mul(0x9E37_79B9) & (cells - 1)) * cell
}

/// Nothing public reports where the host put a ring, so [`ring_addr`] is
/// checked by its effect: one frame goes through each flow of the host,
/// and the line of the ring's first descriptor must then sit in the
/// host's LLC at the address computed here. A change to the host's
/// layout stops the traced run instead of quietly replaying another one.
fn check_ring_layout(rig: &mut Rig, tx: bool) {
    let frames_per_flow = rig.pool.len() / rig.flows.len();
    let (mut now, step) = (Time::ZERO, rig.spec.kind.gap());
    for f in 0..rig.flows.len() {
        let (conn, frame) = (rig.flows[f].conn, &rig.pool[f * frames_per_flow]);
        now += step;
        if tx {
            rig.host.app_send(conn, frame, now);
        } else {
            rig.host.deliver_frame(frame.clone(), now);
            rig.host.app_recv(conn, now, false);
        }
        let base = ring_addr(rig, 2 * f as u64 + u64::from(tx));
        assert_eq!(
            rig.host.llc_mut().access(base, AccessKind::CpuRead),
            AccessOutcome::Hit,
            "flow {f}'s ring is not where the replay lays it out"
        );
    }
}

/// Replays every layer `rig`'s workload reaches, on a rig that was set up
/// and not driven. `ops` is the number of operations per timed segment.
pub fn replay(rig: &mut Rig, ops: u64) -> Layers {
    let mut l = Layers::default();
    let kind = rig.spec.kind;
    let tracing = kind == (Kind::RxBurst { traced: true });
    let tx = kind == Kind::TxShaped;
    // First the programs, then the rings: the ring check drives the host.
    let programs = committed_programs(rig);
    check_ring_layout(rig, tx);
    let rig = &*rig;

    pkt_layer(rig, ops, &mut l);
    telemetry_layer(ops, &mut l);
    match kind {
        Kind::RxBurst { .. } => nic_rx_batch(rig, ops, tracing, &mut l),
        Kind::RxScale => {
            nic_rx(rig, ops, &mut l);
            stack_layer(rig, ops, &mut l);
        }
        Kind::TxShaped => {
            nic_tx(rig, ops, &mut l);
            overlay_layer(rig, &programs, ops, &mut l);
            qdisc_layer(rig, ops, &mut l);
        }
    }
    // TX reaches its connection by id, never through a tuple lookup.
    let cold = if tx {
        vec![false; (WARM + SEGMENTS) * ops as usize]
    } else {
        flow_lookup(rig, ops, &mut l)
    };
    ring_layer(rig, ops, tx, &cold, &mut l);
    l
}

fn pkt_layer(rig: &Rig, ops: u64, l: &mut Layers) {
    let mut c = cursor(rig);
    l.pkt_parse = low(ops, |n| {
        for _ in 0..n {
            let frame = &rig.pool[c.next()];
            black_box(FrameMeta::of(black_box(frame)).expect("pool frames parse"));
        }
    });

    let arena = BufArena::new(64, rig.host.cfg.ring_slot_bytes);
    let (mac, ip) = (rig.host.cfg.mac, rig.host.cfg.ip);
    let mut c = cursor(rig);
    l.pkt_build = low(ops, |n| {
        for _ in 0..n {
            let len = rig.pool[c.next()].len();
            black_box(
                PacketBuilder::new()
                    .ether(mac, mac)
                    .ipv4(ip, ip)
                    .udp_zeroes(9000, 7000, len - HEADERS)
                    .build_in(&arena),
            );
        }
    });
    let mut c = cursor(rig);
    l.pkt_arena = low(ops, |n| {
        for _ in 0..n {
            let len = rig.pool[c.next()].len();
            let slot = arena.alloc().expect("standalone arena never fills");
            black_box(slot.freeze(len));
        }
    });
}

fn telemetry_layer(ops: u64, l: &mut Layers) {
    let comm = Comm::new("app");
    let tuple = FiveTuple::udp(
        "10.0.0.2".parse().expect("literal"),
        9000,
        "10.0.0.1".parse().expect("literal"),
        7000,
    );
    let emit = |enabled: bool| {
        let tel = Telemetry::new();
        tel.set_enabled(enabled);
        let mut id = 0u64;
        low(ops, |n| {
            for _ in 0..n {
                id += 1;
                tel.emit(|| TraceEvent {
                    frame_id: id,
                    at: Time(id),
                    stage: Stage::RingEnqueue,
                    verdict: TraceVerdict::Pass,
                    tuple: Some(tuple),
                    len: 64,
                    owner: Some(Owner::new(1001, 1, &comm)),
                    generation: 0,
                });
            }
            black_box(tel.len());
        })
    };
    l.tel_emit = emit(true);
    l.tel_emit_disabled = emit(false);
}

fn nic_rx_batch(rig: &Rig, ops: u64, tracing: bool, l: &mut Layers) {
    let (mut nic, tel) = bare_nic(rig, tracing);
    // `rx_batch` borrows its frames, so one lap of the schedule is built
    // once and no clone is timed.
    let mut c = cursor(rig);
    let bursts: Vec<Vec<Packet>> = (0..rig.sched.len() / BURST)
        .map(|_| (0..BURST).map(|_| rig.pool[c.next()].clone()).collect())
        .collect();
    let per_seg = (ops / BURST as u64).max(1);
    let (mut b, mut now, step) = (0, Time::ZERO, rig.spec.kind.gap());
    let before = tel.len() as u64 + tel.evicted();
    l.nic_rx_batch = low(per_seg * BURST as u64, |_| {
        for _ in 0..per_seg {
            now += step;
            black_box(nic.rx_batch(&bursts[b], now));
            b = (b + 1) % bursts.len();
        }
    });
    let frames = ((WARM + SEGMENTS) as u64 * per_seg * BURST as u64) as f64;
    l.nic_events_per_frame = (tel.len() as u64 + tel.evicted() - before) as f64 / frames;
}

fn nic_rx(rig: &Rig, ops: u64, l: &mut Layers) {
    let (mut nic, _tel) = bare_nic(rig, false);
    let (mut c, mut now, step) = (cursor(rig), Time::ZERO, rig.spec.kind.gap());
    l.nic_rx = low(ops, |n| {
        for _ in 0..n {
            now += step;
            black_box(nic.rx(&rig.pool[c.next()], now));
        }
    });
}

fn nic_tx(rig: &Rig, ops: u64, l: &mut Layers) {
    let (mut nic, _tel) = bare_nic(rig, false);
    let (mut c, mut now, step) = (cursor(rig), Time::ZERO, rig.spec.kind.gap());
    let block = TX_PREFILL;
    let blocks = (ops / block).max(1);
    let (mut enq, mut poll) = (Vec::new(), Vec::new());
    for s in 0..WARM + SEGMENTS {
        let (mut enq_ns, mut poll_ns) = (0u128, 0u128);
        for _ in 0..blocks {
            let t0 = Instant::now();
            for _ in 0..block {
                let e = c.next();
                let Target::Conn(conn) = rig.target[e] else {
                    unreachable!("tx_shaped has no kernel sockets");
                };
                black_box(nic.tx_enqueue(conn, &rig.pool[e], now)).expect("bare NIC accepts");
            }
            let t1 = Instant::now();
            for _ in 0..block {
                now += step;
                black_box(nic.tx_poll_batch(now, usize::MAX));
            }
            enq_ns += (t1 - t0).as_nanos();
            poll_ns += t1.elapsed().as_nanos();
        }
        if s >= WARM {
            enq.push(enq_ns as f64 / (blocks * block) as f64);
            poll.push(poll_ns as f64 / (blocks * block) as f64);
        }
    }
    assert_eq!(nic.tx_backlog(), 0, "every block drains");
    l.nic_tx_enqueue = Summary::of(&enq).low;
    l.nic_tx_poll = Summary::of(&poll).low;
}

/// Replays `FlowTable::lookup` and returns, per operation, whether the
/// entry was cold when probed — the ring replay routes its DMA the same
/// way the host would.
fn flow_lookup(rig: &Rig, ops: u64, l: &mut Layers) -> Vec<bool> {
    let (mut nic, _tel) = bare_nic(rig, false);
    let tuples: Vec<FiveTuple> = rig
        .pool
        .iter()
        .map(|p| {
            FrameMeta::of(p)
                .expect("pool frames parse")
                .tuple
                .expect("pool frames are UDP")
        })
        .collect();
    let mut c = cursor(rig);
    let mut cold = Vec::with_capacity((WARM + SEGMENTS) * ops as usize);
    l.flow_lookup = low(ops, |n| {
        for _ in 0..n {
            let hit = nic.flows.lookup(&tuples[c.next()], &mut nic.sram);
            cold.push(hit.is_some_and(|h| h.tier == FlowTier::Cold));
        }
    });
    cold
}

fn ring_layer(rig: &Rig, ops: u64, tx: bool, cold: &[bool], l: &mut Layers) {
    let cfg = &rig.host.cfg;
    let mem = cfg.mem.clone();
    let mut llc = Llc::new(cfg.llc.clone());
    // Host::connect allocates the RX ring, then the TX ring, per flow.
    let side = u64::from(tx);
    let mut rings: Vec<DescRing<Packet>> = (0..rig.flows.len() as u64)
        .map(|f| {
            DescRing::new(
                ring_addr(rig, 2 * f + side),
                cfg.ring_slots,
                cfg.ring_slot_bytes,
            )
        })
        .collect();
    let frames_per_flow = rig.pool.len() / rig.flows.len();
    let (mut c, mut i) = (cursor(rig), 0usize);
    l.ring = low(ops, |n| {
        for _ in 0..n {
            let e = c.next();
            let was_cold = cold[i];
            i += 1;
            if matches!(rig.target[e], Target::Socket(_)) {
                continue;
            }
            let (ring, frame) = (&mut rings[e / frames_per_flow], rig.pool[e].clone());
            let len = frame.len();
            let produced = if tx {
                ring.produce_cpu_with(frame, len, &mut llc, &mem)
            } else if was_cold {
                ring.produce_dma_bypass_with(frame, len, &mut llc, &mem)
            } else {
                ring.produce_dma_with(frame, len, &mut llc, &mem)
            };
            black_box(produced).expect("ring has room");
            if tx {
                black_box(ring.consume_dma_desc(&mut llc, &mem));
            } else {
                black_box(ring.consume_cpu_desc(&mut llc, &mem));
            }
        }
    });

    let mut llc = Llc::new(cfg.llc.clone());
    let kind = if tx {
        AccessKind::CpuWrite
    } else {
        AccessKind::DmaWrite
    };
    let (mut c, mut lines) = (cursor(rig), 0u64);
    let per_op = low(ops, |n| {
        for _ in 0..n {
            let e = c.next();
            if matches!(rig.target[e], Target::Socket(_)) {
                continue;
            }
            let len = rig.pool[e].len() as u64;
            let base = ring_addr(rig, 2 * (e / frames_per_flow) as u64 + side);
            black_box(llc.access_range(base, len, kind, &mem));
            lines += len.div_ceil(64);
        }
    });
    let ops_total = (WARM + SEGMENTS) as f64 * ops as f64;
    l.llc_line = per_op * ops_total / lines as f64;
}

/// A `(map, key, value)` write made after a program loads.
type MapFill = (usize, usize, u64);

/// The programs the committed policy runs on an egress frame, with their
/// map fills: what `PolicyBundle::compile` lowers the store to, checked
/// against what the host's NIC holds.
fn committed_programs(rig: &Rig) -> Vec<(Program, Vec<MapFill>)> {
    let (p, nic) = (&rig.policy, &rig.host.nic);
    let mut out = Vec::new();
    let mut slot = |slot: ProgramSlot, program: Program, fills: Vec<MapFill>| {
        assert_eq!(
            nic.program_fingerprint(slot),
            Some(program.fingerprint()),
            "{slot:?} on the host is not the program the replay runs"
        );
        for &(map, key, value) in &fills {
            assert_eq!(
                nic.read_map(slot, map, key),
                Some(value),
                "{slot:?} map {map}[{key}]"
            );
        }
        out.push((program, fills));
    };
    if !p.reservations.is_empty() {
        let fills = p
            .reservations
            .iter()
            .map(|r| (0, r.port as usize, u64::from(r.uid.0) + 1))
            .collect();
        slot(
            ProgramSlot::EgressFilter,
            overlay::builtins::port_owner_filter(),
            fills,
        );
    }
    if let Some(shaping) = &p.shaping {
        let users: Vec<(u32, f64)> = shaping
            .user_weights
            .iter()
            .map(|&(uid, w)| (uid.0, w))
            .collect();
        let setup = qdisc::compile::try_compile_uid_wfq(&users, shaping.default_weight)
            .expect("the committed shaping policy compiles");
        slot(ProgramSlot::Classifier, setup.program, setup.map_fills);
    }
    let accounting: Vec<u64> = p.accounting.iter().map(Program::fingerprint).collect();
    assert_eq!(
        nic.accounting_fingerprints(),
        accounting,
        "accounting programs"
    );
    out.extend(p.accounting.iter().map(|a| (a.clone(), Vec::new())));
    out
}

fn overlay_layer(rig: &Rig, programs: &[(Program, Vec<MapFill>)], ops: u64, l: &mut Layers) {
    if programs.is_empty() {
        return;
    }
    let mut vms: Vec<Vm> = programs
        .iter()
        .map(|(program, fills)| {
            let artifact = overlay::compile(program).expect("committed programs compile");
            let mut vm = Vm::with_compiled(program.clone(), artifact);
            for &(map, key, value) in fills {
                assert!(vm.map_set(map, key, value), "map fill in range");
            }
            vm
        })
        .collect();
    // One egress context per pool frame, as `SmartNic::tx_enqueue` builds it.
    let frames_per_flow = rig.pool.len() / rig.flows.len();
    let ctxs: Vec<PktCtx> = rig
        .pool
        .iter()
        .enumerate()
        .map(|(e, frame)| {
            let meta = FrameMeta::of(frame).expect("pool frames parse");
            let t = meta.tuple.expect("pool frames are UDP");
            let f = &rig.flows[e / frames_per_flow];
            PktCtx {
                flow_key: nicsim::flowtable::exact_key(&t),
                pkt_len: frame.len() as u64,
                proto: u64::from(t.proto.0),
                src_ip: u32::from(t.src_ip),
                dst_ip: u32::from(t.dst_ip),
                src_port: t.src_port,
                dst_port: t.dst_port,
                uid: f.uid,
                pid: f.pid.0,
                flow_hash: meta.flow_hash,
                conn_id: f.conn.0,
                ethertype: meta.ethertype,
                dscp: meta.dscp_ecn,
                egress: true,
                ..PktCtx::default()
            }
        })
        .collect();
    let (mut c, mut cycles) = (cursor(rig), 0u64);
    l.overlay_run = low(ops, |n| {
        for _ in 0..n {
            let ctx = &ctxs[c.next()];
            for vm in &mut vms {
                cycles += black_box(vm.run(black_box(ctx)))
                    .expect("committed programs do not fault")
                    .cycles;
            }
        }
    });
    l.overlay_cycles = cycles as f64 / ((WARM + SEGMENTS) as f64 * ops as f64);

    let reps = (ops / 64).clamp(1, 64);
    let per_program = |f: &dyn Fn(&Program)| {
        low(reps * programs.len() as u64, |_| {
            for _ in 0..reps {
                for (program, _) in programs {
                    f(program);
                }
            }
        })
    };
    l.overlay_verify = per_program(&|p| {
        black_box(overlay::verify(black_box(p))).expect("verifies");
    });
    l.overlay_compile = per_program(&|p| {
        black_box(overlay::compile(black_box(p))).expect("compiles");
    });
}

fn qdisc_layer(rig: &Rig, ops: u64, l: &mut Layers) {
    let Some(shaping) = &rig.policy.shaping else {
        return;
    };
    let nic = &rig.host.cfg.nic;
    let mut mq = MultiQueue::new(nic.num_queues, &shaping.weights(), nic.tx_queue_limit);
    let frames_per_flow = rig.pool.len() / rig.flows.len();
    let (mut c, mut id, now) = (cursor(rig), 0u64, Time::ZERO);
    let mut offer = |mq: &mut MultiQueue| {
        let e = c.next();
        let class = shaping.class_of(Uid(rig.flows[e / frames_per_flow].uid));
        let pkt = QPkt::new(id, rig.pool[e].len() as u32, now).with_class(class);
        id += 1;
        mq.enqueue_on(0, pkt, now).expect("below the class limit");
    };
    // The standing backlog the driver keeps in the shaper.
    for _ in 0..TX_PREFILL {
        offer(&mut mq);
    }
    l.qdisc = low(ops, |n| {
        for _ in 0..n {
            offer(&mut mq);
            black_box(mq.dequeue_rr(now));
        }
    });
}

fn stack_layer(rig: &Rig, ops: u64, l: &mut Layers) {
    // The host hands the stack the descriptor the NIC parser produced.
    let sockets: Vec<(u16, &Packet, FrameMeta)> = rig
        .target
        .iter()
        .zip(&rig.pool)
        .filter_map(|(t, p)| match t {
            Target::Socket(port) => Some((*port, p, FrameMeta::of(p).expect("parses"))),
            Target::Conn(_) => None,
        })
        .collect();
    if sockets.is_empty() {
        return;
    }
    let mut procs = ProcessTable::new();
    let pid = procs.spawn(
        Cred::new(Uid(1001), "alice"),
        "app",
        oskernel::CgroupId::ROOT,
    );
    let mut stack = NetStack::new();
    for &(port, _, _) in &sockets {
        assert!(stack.bind(IpProto::UDP, port, pid, &procs));
    }
    let rounds = (ops / sockets.len() as u64).max(1);
    let (mut rx, mut recv) = (Vec::new(), Vec::new());
    for s in 0..WARM + SEGMENTS {
        let (mut rx_ns, mut recv_ns) = (0u128, 0u128);
        for _ in 0..rounds {
            let t0 = Instant::now();
            for (_, frame, meta) in &sockets {
                black_box(stack.rx_with_meta(black_box(frame), meta, Time::ZERO));
            }
            let t1 = Instant::now();
            for &(port, _, _) in &sockets {
                black_box(stack.recv(IpProto::UDP, port, false));
            }
            rx_ns += (t1 - t0).as_nanos();
            recv_ns += t1.elapsed().as_nanos();
        }
        if s >= WARM {
            let n = (rounds * sockets.len() as u64) as f64;
            rx.push(rx_ns as f64 / n);
            recv.push(recv_ns as f64 / n);
        }
    }
    l.stack_rx = Summary::of(&rx).low;
    l.stack_recv = Summary::of(&recv).low;
}
