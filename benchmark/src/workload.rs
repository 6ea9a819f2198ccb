//! The four workloads: seeded input generation, set-up, and the driver
//! loops that push frames through `norman::Host`.
//!
//! One process, one thread, closed loop: the driver offers the next
//! frame (or burst) only after the previous one completed. No traffic
//! crosses a real link — the driver calls the host directly — and the
//! host sees only the generated frames.

use std::net::Ipv4Addr;

use nicsim::{ConnId, FlowCacheConfig};
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig, PortReservation, ShapingPolicy};
use oskernel::{Pid, Uid};
use overlay::builtins;
use pkt::{IpProto, Mac, Packet, PacketBuilder};
use sim::{DetRng, Dur, Time};
use workloads::CbrArrivals;

use crate::spans::{Site, Tracer};
use crate::stats::ExactHist;

/// Which driver loop a workload uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Bursts of 32 through `Host::pump`, drained with `app_recv`.
    RxBurst {
        /// `Host::start_trace()` before the first frame.
        traced: bool,
    },
    /// One `Host::deliver_frame` + `app_recv` per frame over 2048 flows.
    RxScale,
    /// `app_send` + `pump_tx` per frame with periodic policy commits.
    TxShaped,
}

impl Kind {
    /// Simulated time between driver steps (bursts on the burst
    /// workloads, frames on the others).
    pub fn gap(self) -> Dur {
        match self {
            Kind::RxBurst { .. } => RX_BURST_GAP,
            Kind::RxScale => RX_SCALE_GAP,
            Kind::TxShaped => TX_GAP,
        }
    }
}

/// A workload's fixed description.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The driver loop.
    pub kind: Kind,
    /// Frames offered per second of `--seconds`: the frame count is this
    /// times the seconds asked for, never a function of how fast the
    /// machine happens to be, so the simulated metrics are exact.
    /// Calibrated so that a run measures for about `--seconds` seconds on
    /// the 2-core 2.1 GHz box the benchmark was defined on.
    pub frames_per_second: u64,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "rx_fast",
        kind: Kind::RxBurst { traced: false },
        frames_per_second: 1_600_000,
        why: "64 flows of 64 B frames in bursts of 32, tracing off: bare per-packet cost of parse, batched NIC ingress, rings and delivery",
    },
    Spec {
        name: "rx_traced",
        kind: Kind::RxBurst { traced: true },
        frames_per_second: 1_000_000,
        why: "rx_fast's exact traffic with lifecycle tracing on, so the difference between the two is the telemetry tax and nothing else",
    },
    Spec {
        name: "rx_scale",
        kind: Kind::RxScale,
        frames_per_second: 1_200_000,
        why: "2048 flows against a 128-entry LRU flow cache, unbatched, 1 in 16 frames to kernel sockets: cold tier, DDIO bypass, slow path",
    },
    Spec {
        name: "tx_shaped",
        kind: Kind::TxShaped,
        frames_per_second: 1_600_000,
        why: "64 shaped flows with port filters and accounting, a live policy commit every 25000 frames: overlay, qdisc, NIC TX and control plane",
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Frames per `Host::pump` burst.
pub const BURST: usize = 32;
/// Sends issued at one instant after each drain: the link serialises, so
/// all but the first stay queued and the shaper has a standing backlog to
/// schedule.
pub const TX_PREFILL: u64 = 32;

const REMOTE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const REMOTE_PORT: u16 = 9000;
const REMOTE_MAC: u64 = 9;
const UIDS: [u32; 4] = [1001, 1002, 1003, 1004];
const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
/// Ethernet + IPv4 + UDP headers.
pub const HEADERS: usize = 42;
const RX_FAST_FLOWS: usize = 64;
const RX_FAST_FRAME: usize = 64;
const SCALE_FLOWS: usize = 2_048;
const SCALE_HOT_SET: usize = 64;
const SCALE_HOT_CAPACITY: usize = 128;
const SCALE_SOCKETS: usize = 16;
const SCALE_SOCKET_PORT: u16 = 500;
const SCALE_FRAME: usize = 256;
const TX_FLOWS: usize = 64;
/// The TX size mix, drawn uniformly per frame.
const TX_SIZES: [usize; 4] = [64, 256, 1024, 1500];
/// The shaping weights; each commit rotates them one uid along.
const TX_WEIGHTS: [f64; 4] = [4.0, 2.0, 1.0, 1.0];

/// Inter-burst gap on the burst workloads: 32 frames at 50 ns, above the
/// NIC pipeline's 40 ns per-frame occupancy so it never backs up.
const RX_BURST_GAP: Dur = Dur::from_ns(50 * BURST as u64);
/// Inter-frame gap on `rx_scale`: above the 640 ns a cold lookup occupies
/// the lookup stage.
const RX_SCALE_GAP: Dur = Dur::from_ns(1_000);
/// Inter-frame gap on `tx_shaped`: just above the 121.6 ns a 1500 B frame
/// occupies the 100 Gb/s wire, so the link is free at every `pump_tx`
/// and exactly one queued frame departs per frame sent.
const TX_GAP: Dur = Dur::from_ns(122);

/// Where a pool frame is expected to end up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    /// A fast-path connection (RX: delivered to its ring; TX: sent on it).
    Conn(ConnId),
    /// A kernel UDP socket on this port (slow path).
    Socket(u16),
}

/// One open flow, as the replays need to recreate it on bare layers.
#[derive(Clone, Debug)]
pub struct Flow {
    /// The connection on the measured host.
    pub conn: ConnId,
    /// Owner.
    pub uid: u32,
    /// Owner process.
    pub pid: Pid,
    /// Local UDP port.
    pub port: u16,
}

/// Simulated-cost accumulators over the timed region, plus the
/// correctness counts. All exact: integer picoseconds and counts.
#[derive(Clone, Debug, Default)]
pub struct Acc {
    /// Frames offered.
    pub frames: u64,
    /// Frames whose outcome was not the expected one.
    pub failed: u64,
    /// Σ `RecvResult.cpu` + `SendResult.cpu` + `DeliveryReport.kernel_cpu`
    /// + kernel-socket `recv` syscalls, picoseconds.
    pub host_cpu_ps: u128,
    /// Σ `DeliveryReport.mem_cost`, picoseconds.
    pub mem_ps: u128,
    /// NIC latency per frame (`DeliveryReport.nic_latency`; on TX,
    /// arrival at the far end minus the send instant).
    pub latency: ExactHist,
    /// Policy commits made during the run.
    pub commits: u64,
    /// Largest TX scheduler backlog seen after a send.
    pub backlog_max: u64,
}

/// A host with its workload set up, the generated input, and the
/// driver's cursor.
pub struct Rig {
    /// The workload.
    pub spec: &'static Spec,
    /// The program under test.
    pub host: Host,
    /// Open flows, in creation order.
    pub flows: Vec<Flow>,
    /// The frame pool; schedule entries index it.
    pub pool: Vec<Packet>,
    /// Where each pool frame should end up.
    pub target: Vec<Target>,
    /// The seeded schedule of pool indices, a power of two long, cycled.
    pub sched: Vec<u16>,
    /// The policy committed at set-up (replays install the same).
    pub policy: norman::PolicyStore,
    /// Kernel CPU the flows' `connect` calls were charged, in all.
    pub connect_kernel_cpu: Dur,
    /// tx_shaped: frames between live policy commits. `measure` sets it
    /// to the segment size, so each segment holds exactly one commit.
    pub commit_every: u64,
    pos: usize,
    now: Time,
    clock: CbrArrivals,
    burst: Vec<Packet>,
    /// tx_shaped: frames sent since the last drain.
    since_drain: u64,
    /// tx_shaped: send instant per NIC packet id (ids are sequential).
    send_time: Vec<Time>,
    /// tx_shaped: frames accepted by `app_send`.
    pub sent: u64,
    /// tx_shaped: departures seen from `pump_tx`.
    pub departed: u64,
}

const SEND_TIME_SLOTS: usize = 4096;

fn wire_frame(host: &Host, src_port: u16, dst_port: u16, len: usize, inbound: bool) -> Packet {
    let b = PacketBuilder::new();
    let b = if inbound {
        b.ether(Mac::local(REMOTE_MAC), host.cfg.mac)
            .ipv4(REMOTE_IP, host.cfg.ip)
    } else {
        b.ether(host.cfg.mac, Mac::local(REMOTE_MAC))
            .ipv4(host.cfg.ip, REMOTE_IP)
    };
    b.udp_zeroes(src_port, dst_port, len - HEADERS)
        .build_in(host.arena())
}

/// A frame as it comes off the wire: bytes in an arena slot and no
/// parse-once descriptor, so the NIC's parser stage does its work.
fn strip_meta(built: Packet) -> Packet {
    match built.arena_frame() {
        Some(frame) => Packet::from_arena(frame.clone()),
        None => Packet::from_bytes(built.bytes().to_vec()),
    }
}

impl Rig {
    /// Builds a fresh host, commits the workload's policy, opens its
    /// flows and generates its input from `seed`. This whole function is
    /// what `setup_s` times.
    pub fn setup<T: Tracer>(spec: &'static Spec, seed: u64, tr: &mut T) -> Rig {
        let mut rng = DetRng::seed_from_u64(seed);
        let cfg = match spec.kind {
            Kind::RxBurst { .. } => HostConfig {
                ring_slots: 64,
                arena_slots: 2 * RX_FAST_FLOWS,
                ..HostConfig::default()
            },
            Kind::RxScale => {
                let mut cfg = HostConfig {
                    arena_slots: SCALE_FLOWS + SCALE_SOCKETS + 64,
                    ..HostConfig::default()
                };
                // Tiering, not SRAM exhaustion, is this workload's subject.
                cfg.nic.sram_bytes = 1 << 30;
                cfg
            }
            Kind::TxShaped => HostConfig {
                arena_slots: 2 * TX_FLOWS * TX_SIZES.len(),
                ..HostConfig::default()
            },
        };
        let m = tr.start();
        let mut host = Host::new(cfg);
        tr.stop(Site::HostNew, m);

        let (nflows, base_port) = match spec.kind {
            Kind::RxBurst { .. } => (RX_FAST_FLOWS, 7000u16),
            Kind::RxScale => (SCALE_FLOWS, 2000),
            Kind::TxShaped => (TX_FLOWS, 7000),
        };
        let per_uid = nflows / UIDS.len();
        let pids: Vec<Pid> = UIDS
            .iter()
            .zip(USERS)
            .map(|(&uid, user)| host.spawn(Uid(uid), user, "app"))
            .collect();

        let m = tr.start();
        match spec.kind {
            Kind::RxBurst { .. } => {}
            Kind::RxScale => {
                host.update_policy(Time::ZERO, |p| {
                    p.flow_cache = Some(FlowCacheConfig::lru(SCALE_HOT_CAPACITY));
                })
                .expect("commit the flow-cache policy");
            }
            Kind::TxShaped => {
                host.update_policy(Time::ZERO, |p| {
                    for f in 0..nflows {
                        p.reservations.push(PortReservation::new(
                            base_port + f as u16,
                            Uid(UIDS[f / per_uid]),
                        ));
                    }
                    p.shaping = Some(shaping(0));
                    p.accounting.push(builtins::byte_accounting());
                })
                .expect("commit reservations, shaping and accounting");
            }
        }
        tr.stop(Site::SetupCommit, m);
        let policy = host.policy().clone();

        let before_connects = host.kernel_cpu;
        let mut flows = Vec::with_capacity(nflows);
        for f in 0..nflows {
            let port = base_port + f as u16;
            let pid = pids[f / per_uid];
            let m = tr.start();
            let conn = host
                .connect(pid, IpProto::UDP, port, REMOTE_IP, REMOTE_PORT, false)
                .expect("open a flow");
            tr.stop(Site::Connect, m);
            flows.push(Flow {
                conn,
                uid: UIDS[f / per_uid],
                pid,
                port,
            });
        }
        let connect_kernel_cpu = host.kernel_cpu - before_connects;

        let mut pool = Vec::new();
        let mut target = Vec::new();
        let mut add = |host: &Host, tr: &mut T, src, dst, len, inbound, t| {
            let m = tr.start();
            let built = wire_frame(host, src, dst, len, inbound);
            tr.stop(Site::Build, m);
            // An app's own frames keep the descriptor its library built;
            // frames from the wire arrive as bytes.
            pool.push(if inbound { strip_meta(built) } else { built });
            target.push(t);
        };
        match spec.kind {
            Kind::RxBurst { .. } => {
                for f in &flows {
                    let t = Target::Conn(f.conn);
                    add(&host, tr, REMOTE_PORT, f.port, RX_FAST_FRAME, true, t);
                }
            }
            Kind::RxScale => {
                for f in &flows {
                    let t = Target::Conn(f.conn);
                    add(&host, tr, REMOTE_PORT, f.port, SCALE_FRAME, true, t);
                }
                for s in 0..SCALE_SOCKETS as u16 {
                    let port = SCALE_SOCKET_PORT + s;
                    assert!(
                        host.stack.bind(IpProto::UDP, port, pids[0], &host.procs),
                        "bind kernel socket {port}"
                    );
                    let t = Target::Socket(port);
                    add(&host, tr, REMOTE_PORT, port, SCALE_FRAME, true, t);
                }
            }
            Kind::TxShaped => {
                for f in &flows {
                    for len in TX_SIZES {
                        let t = Target::Conn(f.conn);
                        add(&host, tr, f.port, REMOTE_PORT, len, false, t);
                    }
                }
            }
        }

        let m = tr.start();
        let sched = schedule(spec.kind, &mut rng);
        tr.stop(Site::Gen, m);

        if spec.kind == (Kind::RxBurst { traced: true }) {
            host.start_trace();
        }
        Rig {
            spec,
            connect_kernel_cpu,
            commit_every: u64::MAX,
            host,
            flows,
            pool,
            target,
            sched,
            policy,
            pos: 0,
            now: Time::ZERO,
            clock: CbrArrivals::new(spec.kind.gap()),
            burst: Vec::with_capacity(BURST),
            since_drain: 0,
            send_time: vec![Time::ZERO; SEND_TIME_SLOTS],
            sent: 0,
            departed: 0,
        }
    }

    /// Frames per driver step: segment sizes are multiples of this.
    pub fn quantum(&self) -> u64 {
        match self.spec.kind {
            Kind::RxBurst { .. } => BURST as u64,
            Kind::RxScale | Kind::TxShaped => 1,
        }
    }

    /// Offers the next `frames` frames (a multiple of
    /// [`Rig::quantum`]) and checks each one's outcome.
    pub fn drive<T: Tracer>(&mut self, frames: u64, acc: &mut Acc, tr: &mut T) {
        acc.frames += frames;
        match self.spec.kind {
            Kind::RxBurst { .. } => self.drive_rx_burst(frames, acc, tr),
            Kind::RxScale => self.drive_rx_scale(frames, acc, tr),
            Kind::TxShaped => self.drive_tx(frames, acc, tr),
        }
    }

    /// The pool index at schedule position `*pos`, advancing `*pos`
    /// cyclically. The replays walk the schedule with this too, from 0.
    #[inline]
    pub fn entry_at(&self, pos: &mut usize) -> usize {
        let e = self.sched[*pos] as usize;
        *pos = (*pos + 1) & (self.sched.len() - 1);
        e
    }

    #[inline]
    fn next_entry(&mut self) -> usize {
        let mut pos = self.pos;
        let e = self.entry_at(&mut pos);
        self.pos = pos;
        e
    }

    fn drive_rx_burst<T: Tracer>(&mut self, frames: u64, acc: &mut Acc, tr: &mut T) {
        debug_assert_eq!(frames % BURST as u64, 0);
        for _ in 0..frames / BURST as u64 {
            let now = self.clock.next_arrival();
            let first = self.pos;
            self.burst.clear();
            for _ in 0..BURST {
                let e = self.next_entry();
                self.burst.push(self.pool[e].clone());
            }
            let m = tr.start();
            let (reports, _) = self.host.pump(&self.burst, now);
            tr.stop(Site::Pump, m);
            if reports.len() != BURST {
                acc.failed += BURST as u64;
                continue;
            }
            for (j, d) in reports.iter().enumerate() {
                let e = self.sched[(first + j) & (self.sched.len() - 1)] as usize;
                let Target::Conn(conn) = self.target[e] else {
                    unreachable!("burst workloads have no kernel sockets");
                };
                acc.mem_ps += u128::from(d.mem_cost.0);
                acc.host_cpu_ps += u128::from(d.kernel_cpu.0);
                acc.latency.record(d.nic_latency);
                let m = tr.start();
                let r = self.host.app_recv(conn, now, false);
                tr.stop(Site::AppRecv, m);
                acc.host_cpu_ps += u128::from(r.cpu.0);
                if d.outcome != DeliveryOutcome::FastPath(conn) || r.len != Some(RX_FAST_FRAME) {
                    acc.failed += 1;
                }
            }
        }
    }

    fn drive_rx_scale<T: Tracer>(&mut self, frames: u64, acc: &mut Acc, tr: &mut T) {
        for _ in 0..frames {
            let now = self.clock.next_arrival();
            let e = self.next_entry();
            let frame = self.pool[e].clone();
            let m = tr.start();
            let d = self.host.deliver_frame(frame, now);
            tr.stop(Site::DeliverFrame, m);
            acc.mem_ps += u128::from(d.mem_cost.0);
            acc.host_cpu_ps += u128::from(d.kernel_cpu.0);
            acc.latency.record(d.nic_latency);
            match self.target[e] {
                Target::Conn(conn) => {
                    let m = tr.start();
                    let r = self.host.app_recv(conn, now, false);
                    tr.stop(Site::AppRecv, m);
                    acc.host_cpu_ps += u128::from(r.cpu.0);
                    if d.outcome != DeliveryOutcome::FastPath(conn) || r.len != Some(SCALE_FRAME) {
                        acc.failed += 1;
                    }
                }
                Target::Socket(port) => {
                    let m = tr.start();
                    let (got, cost) = self.host.stack.recv(IpProto::UDP, port, false);
                    tr.stop(Site::StackRecv, m);
                    acc.host_cpu_ps += u128::from(cost.0);
                    let ok = got.is_some_and(|p| p.len() == SCALE_FRAME);
                    if d.outcome != DeliveryOutcome::SlowPath || !ok {
                        acc.failed += 1;
                    }
                }
            }
        }
    }

    fn drive_tx<T: Tracer>(&mut self, frames: u64, acc: &mut Acc, tr: &mut T) {
        for _ in 0..frames {
            if self.since_drain == self.commit_every {
                // Known issue (README): a shaping commit rebuilds the TX
                // scheduler and forgets queued frames, so drain first.
                self.drain_tx(acc, tr);
                acc.commits += 1;
                let policy = shaping(acc.commits);
                let m = tr.start();
                let committed = self
                    .host
                    .update_policy(self.now, |p| p.shaping = Some(policy));
                tr.stop(Site::UpdatePolicy, m);
                if committed.is_err() {
                    acc.failed += 1;
                }
            }
            if self.since_drain >= TX_PREFILL {
                self.now = self.clock.next_arrival();
            }
            self.since_drain += 1;
            let e = self.next_entry();
            let Target::Conn(conn) = self.target[e] else {
                unreachable!("tx_shaped has no kernel sockets");
            };
            self.send_time[self.sent as usize % SEND_TIME_SLOTS] = self.now;
            let m = tr.start();
            let r = self.host.app_send(conn, &self.pool[e], self.now);
            tr.stop(Site::AppSend, m);
            acc.host_cpu_ps += u128::from(r.cpu.0);
            if r.queued {
                self.sent += 1;
            } else {
                acc.failed += 1;
            }
            self.pump_tx(acc, tr);
            acc.backlog_max = acc.backlog_max.max(self.host.nic.tx_backlog() as u64);
        }
    }

    fn pump_tx<T: Tracer>(&mut self, acc: &mut Acc, tr: &mut T) {
        let m = tr.start();
        let departures = self.host.pump_tx(self.now);
        tr.stop(Site::PumpTx, m);
        for d in &departures {
            let sent_at = self.send_time[d.pkt_id as usize % SEND_TIME_SLOTS];
            acc.latency.record(d.arrives_at - sent_at);
        }
        self.departed += departures.len() as u64;
    }

    /// Advances time until the TX scheduler is empty. The arrival clock
    /// keeps running, so the next send comes after the last departure.
    pub fn drain_tx<T: Tracer>(&mut self, acc: &mut Acc, tr: &mut T) {
        let mut guard = 0;
        while self.host.nic.tx_backlog() > 0 {
            self.now = self.clock.next_arrival();
            self.pump_tx(acc, tr);
            guard += 1;
            if guard > 4 * SEND_TIME_SLOTS {
                acc.failed += self.host.nic.tx_backlog() as u64;
                break;
            }
        }
        self.since_drain = 0;
    }

    /// Ends the run: releases the frame pool, then checks that the host
    /// is consistent and that every arena slot came back. Returns the
    /// violations found.
    pub fn finish(self) -> Vec<String> {
        let Rig {
            mut host,
            pool,
            burst,
            ..
        } = self;
        drop(pool);
        drop(burst);
        let mut problems: Vec<String> = host
            .audit()
            .into_iter()
            .map(|v| format!("audit: {v}"))
            .collect();
        let live = host.arena().live();
        if live != 0 {
            problems.push(format!("arena: {live} slots still live after the drain"));
        }
        problems
    }
}

/// The shaping policy after `commits` live commits: the base weights
/// rotated one uid along per commit.
pub fn shaping(commits: u64) -> ShapingPolicy {
    ShapingPolicy::new(
        UIDS.iter()
            .enumerate()
            .map(|(i, &uid)| (Uid(uid), TX_WEIGHTS[(i + commits as usize) % UIDS.len()]))
            .collect(),
    )
}

/// Generates the seeded schedule of pool indices.
fn schedule(kind: Kind, rng: &mut DetRng) -> Vec<u16> {
    match kind {
        Kind::RxBurst { .. } => (0..1 << 16)
            .map(|_| rng.range_usize(0, RX_FAST_FLOWS) as u16)
            .collect(),
        Kind::RxScale => {
            // The hot set is a seeded sample of the flows, so which
            // connections stay in the NIC's hot tier depends on the seed.
            let mut ids: Vec<u16> = (0..SCALE_FLOWS as u16).collect();
            for i in 0..SCALE_HOT_SET {
                let j = rng.range_usize(i, ids.len());
                ids.swap(i, j);
            }
            ids.truncate(SCALE_HOT_SET);
            (0..1 << 18)
                .map(|_| {
                    if rng.range_usize(0, 16) == 0 {
                        (SCALE_FLOWS + rng.range_usize(0, SCALE_SOCKETS)) as u16
                    } else if rng.range_usize(0, 2) == 0 {
                        ids[rng.range_usize(0, SCALE_HOT_SET)]
                    } else {
                        rng.range_usize(0, SCALE_FLOWS) as u16
                    }
                })
                .collect()
        }
        Kind::TxShaped => (0..1 << 16)
            .map(|_| {
                let flow = rng.range_usize(0, TX_FLOWS);
                (flow * TX_SIZES.len() + rng.range_usize(0, TX_SIZES.len())) as u16
            })
            .collect(),
    }
}
