//! The interposition placements the one [`Host`] can already take, as
//! recipes over its public API — no placement type, flag or branch
//! inside `norman`:
//!
//! * **KOPI** — the default host, a committed policy, `ktrace` running.
//! * **raw bypass** — the same NIC and rings with no kernel on the path:
//!   nothing committed, nothing traced, and the NIC's command register
//!   granted to an application.
//! * **kernel stack** — every flow a kernel socket, the policy as
//!   `iptables -m owner` rules in the INPUT / OUTPUT chains.
//!
//! [`rx_cost`] / [`tx_cost`] charge a run of frames the way normanbench's
//! `sim_*` rows do, so E1, E7 and the benchmark read one cost model. The
//! three probes (T1) and the port attack (E4b) only *drive and read* a
//! placement: what fails under raw bypass fails because its recipe
//! configured nothing privileged to observe or refuse.

use nicsim::ConnId;
use norman::host::DOORBELL_BATCH;
use norman::{Host, HostConfig, PortReservation};
use oskernel::{HookVerdict, Pid, Rule};
use pkt::{IpProto, Packet, PacketBuilder};
use sim::{Dur, Time};

use crate::scenarios::{AliceTestbed, TenantApp, BOB, CHARLIE};

/// Ethernet + IPv4 + UDP header bytes of every testbed frame.
pub const HEADERS: usize = 42;
/// The NIC's policy command register (program load, flow-table writes).
const NIC_CMD_REG: u64 = 0x100;
/// Frames are offered this far apart, so NIC pipeline occupancy does not
/// inflate latency.
const GAP: Dur = Dur::from_us(1);

/// §2's partitioning policy: 5432 is Bob's, 3306 is Charlie's.
pub fn partition_policy() -> Vec<PortReservation> {
    vec![
        PortReservation::new(5432, BOB),
        PortReservation::new(3306, CHARLIE),
    ]
}

/// Where an application's frames land.
#[derive(Clone, Copy, Debug)]
pub enum Flow {
    /// A ring pair the NIC DMAs into.
    Ring(ConnId),
    /// A kernel socket of `pid` on a UDP port.
    Socket(Pid, u16),
}

/// Virtual cost of a run of frames, by normanbench's accounting:
/// Σ `RecvResult.cpu` / `SendResult.cpu` / kernel-socket syscalls on the
/// application's core, Σ `DeliveryReport.kernel_cpu` elsewhere, and
/// Σ `DeliveryReport.nic_latency`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Frames offered.
    pub frames: u64,
    /// Frames that reached the application (RX) or were queued for the
    /// wire (TX).
    pub delivered: u64,
    /// CPU + memory time on the application's core.
    pub app_core: Dur,
    /// Kernel CPU on whichever core took the frame (softirq, protocol,
    /// hooks).
    pub other_core: Dur,
    /// Pipelined in-NIC latency: affects latency, not host throughput.
    pub nic_latency: Dur,
}

impl Cost {
    /// Host CPU across cores — `sim_host_cpu_ns_per_frame`.
    pub fn host(&self) -> Dur {
        self.app_core + self.other_core
    }

    /// `total` per frame, in nanoseconds.
    pub fn per_frame_ns(&self, total: Dur) -> f64 {
        total.as_ns_f64() / self.frames as f64
    }
}

/// Delivers `frame` from the wire `n` times, the application receiving
/// each before the next arrives.
pub fn rx_cost(host: &mut Host, flow: Flow, frame: &Packet, n: u64) -> Cost {
    let mut c = Cost {
        frames: n,
        ..Cost::default()
    };
    let mut t = Time::ZERO;
    for _ in 0..n {
        let d = host.deliver_from_wire(frame, t);
        c.nic_latency += d.nic_latency;
        c.other_core += d.kernel_cpu;
        let (got, cpu) = match flow {
            Flow::Ring(conn) => {
                let r = host.app_recv(conn, t, false);
                (r.len, r.cpu)
            }
            Flow::Socket(_, port) => {
                let (pkt, cpu) = host.stack.recv(IpProto::UDP, port, false);
                (pkt.map(|p| p.len()), cpu)
            }
        };
        c.app_core += cpu;
        c.delivered += u64::from(got == Some(frame.len()));
        t += GAP;
    }
    c
}

/// The application sends `frame` `n` times. A phase of its own, never
/// interleaved with [`rx_cost`]: `Host` batches doorbells on one counter
/// for both directions.
pub fn tx_cost(host: &mut Host, flow: Flow, frame: &Packet, n: u64) -> Cost {
    let mut c = Cost {
        frames: n,
        ..Cost::default()
    };
    let mut t = Time::ZERO;
    for _ in 0..n {
        let (queued, cpu) = match flow {
            Flow::Ring(conn) => {
                let r = host.app_send(conn, frame, t);
                host.pump_tx(t);
                (r.queued, r.cpu)
            }
            Flow::Socket(pid, _) => host.stack.tx(pid, frame, t, &host.procs),
        };
        c.app_core += cpu;
        c.delivered += u64::from(queued);
        t += GAP;
    }
    c
}

/// The most one transfer costs the host by the component model: the
/// descriptor line, the payload's lines and one more where the payload
/// starts mid-line (a ring's slots follow its 16-byte descriptors: two
/// slots put them 32 bytes into a line, 64 slots on a boundary), all at
/// LLC latency, plus one doorbell per batch.
pub fn one_transfer(cfg: &HostConfig, frame_bytes: usize) -> Dur {
    let lines = 2 + frame_bytes.div_ceil(64) as u64;
    cfg.mem.llc_hit * lines + cfg.mem.mmio_write / DOORBELL_BATCH
}

/// What E4b's attacker achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attack {
    /// Frames for Bob's Postgres that reached it.
    pub legit_delivered: u64,
    /// Charlie's sends from source port 5432 that were queued for the wire.
    pub violations: u64,
    /// Whether Charlie's attempt to open port 5432 was refused.
    pub grab_refused: bool,
}

/// §2's server under one placement.
pub struct Placement {
    /// Display name.
    pub name: &'static str,
    /// The host and its cast.
    pub tb: AliceTestbed,
    /// Applications hold kernel sockets, not rings.
    sockets: bool,
}

impl Placement {
    /// The default host with `reservations` committed.
    pub fn kopi(reservations: &[PortReservation]) -> Placement {
        let mut tb = AliceTestbed::new();
        tb.host.nic.regs.define_kernel(NIC_CMD_REG);
        tb.host
            .update_policy(Time::ZERO, |p| p.reservations = reservations.to_vec())
            .expect("commit the reservations");
        tb.host.start_trace();
        Placement {
            name: "kopi",
            tb,
            sockets: false,
        }
    }

    /// The same NIC and rings, and no kernel on the path to hold a policy,
    /// run `ktrace` (whatever `NORMAN_TELEMETRY` says) or keep the
    /// device's command register from the application that mapped it.
    pub fn raw_bypass() -> Placement {
        let mut tb = AliceTestbed::new();
        tb.host.nic.regs.define_app(NIC_CMD_REG, tb.mysql.pid.0);
        tb.host.stop_trace();
        Placement {
            name: "raw-bypass",
            tb,
            sockets: false,
        }
    }

    /// Every flow a kernel socket; each reservation an accept-owner /
    /// drop-the-rest rule pair in INPUT (by destination port) and OUTPUT
    /// (by source port).
    pub fn kernel_stack(reservations: &[PortReservation]) -> Placement {
        let mut tb = AliceTestbed::new();
        let host = &mut tb.host;
        host.nic.regs.define_kernel(NIC_CMD_REG);
        for app in [&tb.postgres, &tb.mysql, &tb.bob_game, &tb.charlie_game] {
            host.close(app.conn);
            let bound = host
                .stack
                .bind(IpProto::UDP, app.port, app.pid, &host.procs);
            assert!(bound, "bind port {}", app.port);
        }
        let rule = |verdict, src_port, dst_port, uid| {
            let mut r = Rule::new(verdict);
            r.matcher.src_port = src_port;
            r.matcher.dst_port = dst_port;
            r.matcher.uid = uid;
            r
        };
        for r in reservations {
            let (port, owner) = (Some(r.port), Some(r.uid.0));
            let (input, output) = (&mut host.stack.input, &mut host.stack.output);
            input.append(rule(HookVerdict::Accept, None, port, owner));
            input.append(rule(HookVerdict::Drop, None, port, None));
            output.append(rule(HookVerdict::Accept, port, None, owner));
            output.append(rule(HookVerdict::Drop, port, None, None));
        }
        host.start_trace();
        Placement {
            name: "kernel-stack",
            tb,
            sockets: true,
        }
    }

    /// The three placements, each under `reservations` where it can hold
    /// any.
    pub fn all(reservations: &[PortReservation]) -> [Placement; 3] {
        [
            Placement::kernel_stack(reservations),
            Placement::raw_bypass(),
            Placement::kopi(reservations),
        ]
    }

    fn flow(&self, app: &TenantApp) -> Flow {
        if self.sockets {
            Flow::Socket(app.pid, app.port)
        } else {
            Flow::Ring(app.conn)
        }
    }

    /// [`rx_cost`] of `n` frames of `frame_bytes` to `app`.
    pub fn rx(&mut self, app: &TenantApp, frame_bytes: usize, n: u64) -> Cost {
        let (frame, flow) = (self.tb.inbound(app, frame_bytes - HEADERS), self.flow(app));
        rx_cost(&mut self.tb.host, flow, &frame, n)
    }

    /// [`tx_cost`] of `n` frames of `frame_bytes` from `app`.
    pub fn tx(&mut self, app: &TenantApp, frame_bytes: usize, n: u64) -> Cost {
        let (frame, flow) = (self.tb.outbound(app, frame_bytes - HEADERS), self.flow(app));
        tx_cost(&mut self.tb.host, flow, &frame, n)
    }

    /// E4b: `attempts` frames to Bob's Postgres, then Charlie tries to
    /// open port 5432 and sends `attempts` frames from source port 5432
    /// over the flow he has.
    pub fn port_attack(&mut self, attempts: u64) -> Attack {
        let (postgres, mysql) = (self.tb.postgres.clone(), self.tb.mysql.clone());
        let legit_delivered = self.rx(&postgres, 100 + HEADERS, attempts).delivered;
        let flow = self.flow(&mysql);
        let host = &mut self.tb.host;
        let grab_refused = if self.sockets {
            !host.stack.bind(IpProto::UDP, 5432, mysql.pid, &host.procs)
        } else {
            host.connect(mysql.pid, IpProto::UDP, 5432, self.tb.peer_ip, 1, false)
                .is_err()
        };
        let spoof = PacketBuilder::new()
            .ether(host.cfg.mac, self.tb.peer_mac)
            .ipv4(host.cfg.ip, self.tb.peer_ip)
            .udp(5432, 9000, b"stolen")
            .build();
        let violations = tx_cost(host, flow, &spoof, attempts).delivered;
        Attack {
            legit_delivered,
            violations,
            grab_refused,
        }
    }

    /// T1, process view: after the buggy application's ARP burst, does the
    /// operator's trace name its pid?
    pub fn process_view(&mut self) -> bool {
        let flooder = self.tb.flooder_pid;
        if self.sockets {
            for seq in 0..10 {
                let frame = self.tb.arp_flood_frame(seq);
                let host = &mut self.tb.host;
                host.stack.tx(flooder, &frame, Time::ZERO, &host.procs);
            }
        } else {
            self.tb.run_arp_flood(10, Time::ZERO);
        }
        let seen = self.tb.host.telemetry().events();
        seen.iter()
            .any(|e| e.tuple.is_none() && e.owner.is_some_and(|o| o.pid == flooder.0))
    }

    /// T1, isolation: an application can neither evade the policy (E4b's
    /// attack gets nothing through) nor rewrite it (its write to the NIC's
    /// command register faults).
    pub fn isolated(&mut self) -> bool {
        let attack = self.port_attack(10);
        let app = Some(self.tb.mysql.pid.0);
        let faulted = self.tb.host.nic.regs.write(NIC_CMD_REG, 1, app).is_err();
        attack.grab_refused && attack.violations == 0 && faulted
    }

    /// T1, fast datapath: a received frame costs the host one transfer —
    /// no kernel time, no copy.
    pub fn fast_datapath(&mut self) -> bool {
        let app = self.tb.bob_game.clone();
        let cost = self.rx(&app, 256, 256);
        cost.delivered == cost.frames
            && cost.host() <= one_transfer(&self.tb.host.cfg, 256) * cost.frames
    }
}
