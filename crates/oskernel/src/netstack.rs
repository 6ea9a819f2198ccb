//! The in-kernel software network stack.
//!
//! This is both the **baseline** (the path every packet takes on a
//! conventional host: syscall, copy, netfilter, protocol) and
//! **KOPI's slow path** for punted traffic. All per-packet costs are
//! explicit so experiments can compare it head-to-head with the other
//! datapath architectures.

use std::collections::{HashMap, VecDeque};

use pkt::{BufArena, FrameMeta, IpProto, Packet};
use qdisc::classify::ClassMatch;
use sim::{Dur, Time};
use telemetry::{DropCause, FrameInfo, Owner, Stage, Telemetry, TraceVerdict};

use crate::hooks::{Chain, HookVerdict};
use crate::process::{Pid, ProcessTable};
use crate::syscall::SyscallCosts;

/// Per-packet software-stack costs.
#[derive(Clone, Debug)]
pub struct StackCosts {
    /// Syscall model.
    pub syscalls: SyscallCosts,
    /// Protocol processing (IP + transport) per packet.
    pub protocol: Dur,
    /// Driver/softirq work per received packet.
    pub softirq: Dur,
}

impl Default for StackCosts {
    fn default() -> StackCosts {
        StackCosts {
            syscalls: SyscallCosts::default(),
            protocol: Dur::from_ns(250),
            softirq: Dur::from_ns(200),
        }
    }
}

/// The fields a netstack lifecycle event shares with the rest of its
/// frame's (every emission site's closure; only runs when the hub keeps
/// the event).
fn stack_frame(
    fid: u64,
    tuple: Option<pkt::FiveTuple>,
    len: u32,
    owner: Option<Owner>,
) -> FrameInfo {
    FrameInfo {
        frame_id: fid,
        tuple,
        len,
        owner,
    }
}

struct SocketEntry {
    pid: Pid,
    uid: u32,
    comm: telemetry::Comm,
    rx_queue: VecDeque<Packet>,
    rx_bytes: u64,
    tx_bytes: u64,
    /// Whether the owner is blocked waiting for data.
    blocking_reader: bool,
}

/// Where an ingress packet ended up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxOutcome {
    /// Queued on a socket owned by `pid`; `wake` means the owner was
    /// blocked and must be woken.
    Delivered {
        /// Socket owner.
        pid: Pid,
        /// Whether a blocked reader should be woken.
        wake: bool,
    },
    /// Dropped by the INPUT chain.
    Filtered,
    /// No socket bound to the destination (port unreachable).
    NoSocket,
}

/// Per-socket statistics row (for `knetstat`).
#[derive(Clone, Debug)]
pub struct SocketStat {
    /// Protocol.
    pub proto: IpProto,
    /// Local port.
    pub port: u16,
    /// Owning pid.
    pub pid: Pid,
    /// Owning uid.
    pub uid: u32,
    /// Owning command.
    pub comm: String,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Packets waiting in the receive queue.
    pub rx_queued: usize,
}

/// The software stack.
pub struct NetStack {
    costs: StackCosts,
    /// The INPUT netfilter chain.
    pub input: Chain,
    /// The OUTPUT netfilter chain.
    pub output: Chain,
    sockets: HashMap<(IpProto, u16), SocketEntry>,
    rx_packets: u64,
    tx_packets: u64,
    rx_degraded: u64,
    tel: Telemetry,
}

impl NetStack {
    /// Creates a stack with default costs and empty accept-all chains.
    pub fn new() -> NetStack {
        NetStack::with_costs(StackCosts::default())
    }

    /// Creates a stack with explicit costs.
    pub(crate) fn with_costs(costs: StackCosts) -> NetStack {
        NetStack {
            costs,
            input: Chain::new(HookVerdict::Accept),
            output: Chain::new(HookVerdict::Accept),
            sockets: HashMap::new(),
            rx_packets: 0,
            tx_packets: 0,
            rx_degraded: 0,
            tel: Telemetry::new(),
        }
    }

    /// Attaches a shared telemetry hub; the stack then emits
    /// `Netstack*` lifecycle events for every frame it handles.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Returns the cost model.
    pub fn costs(&self) -> &StackCosts {
        &self.costs
    }

    /// Binds a socket to `(proto, port)` for `pid`.
    ///
    /// Returns `false` if the port is taken.
    pub fn bind(&mut self, proto: IpProto, port: u16, pid: Pid, procs: &ProcessTable) -> bool {
        if self.sockets.contains_key(&(proto, port)) {
            return false;
        }
        let Some(p) = procs.get(pid) else {
            return false;
        };
        self.sockets.insert(
            (proto, port),
            SocketEntry {
                pid,
                uid: p.cred.uid.0,
                comm: p.comm,
                rx_queue: VecDeque::new(),
                rx_bytes: 0,
                tx_bytes: 0,
                blocking_reader: false,
            },
        );
        true
    }

    /// Unbinds a socket.
    #[cfg(test)]
    pub(crate) fn unbind(&mut self, proto: IpProto, port: u16) -> bool {
        self.sockets.remove(&(proto, port)).is_some()
    }

    /// Processes one received frame with the parse-once descriptor the
    /// NIC's parser stage computed — the stack never re-parses the frame
    /// bytes. Returns the outcome and the kernel CPU time consumed
    /// (softirq + protocol + INPUT chain).
    pub fn rx_with_meta(
        &mut self,
        packet: &Packet,
        meta: &FrameMeta,
        now: Time,
    ) -> (RxOutcome, Dur) {
        self.rx_packets += 1;
        let mut cost = self.costs.softirq + self.costs.protocol;
        let fid = self.tel.adopt_frame_id(meta.frame_id);
        let len = packet.len() as u32;
        let Some(tuple) = meta.tuple else {
            // Non-TCP/UDP (e.g. ARP) is handled by the kernel itself, not
            // delivered to sockets.
            self.tel.emit_stage(
                Stage::NetstackDrop,
                TraceVerdict::Drop(DropCause::NoSocket),
                now,
                || stack_frame(fid, None, len, None),
            );
            return (RxOutcome::NoSocket, cost);
        };
        let key = (tuple.proto, tuple.dst_port);
        // Socket demux first: the INPUT owner match needs the receiving
        // socket's identity.
        let (uid, pid, comm) = match self.sockets.get(&key) {
            Some(s) => (s.uid, s.pid, s.comm),
            None => {
                self.tel.emit_stage(
                    Stage::NetstackDrop,
                    TraceVerdict::Drop(DropCause::NoSocket),
                    now,
                    || stack_frame(fid, Some(tuple), len, None),
                );
                return (RxOutcome::NoSocket, cost);
            }
        };
        let owner = Some(Owner::new(uid, pid.0, comm));
        let m = ClassMatch::from_meta(meta, uid, pid.0);
        let (verdict, hook_cost) = self.input.evaluate(&m, Some(&comm));
        cost += hook_cost;
        if verdict == HookVerdict::Drop {
            self.tel.emit_stage(
                Stage::NetstackDrop,
                TraceVerdict::Drop(DropCause::NetfilterDrop),
                now,
                || stack_frame(fid, Some(tuple), len, owner),
            );
            return (RxOutcome::Filtered, cost);
        }
        let entry = self.sockets.get_mut(&key).expect("checked above");
        entry.rx_queue.push_back(packet.clone());
        entry.rx_bytes += packet.len() as u64;
        let wake = entry.blocking_reader && entry.rx_queue.len() == 1;
        if wake {
            entry.blocking_reader = false;
        }
        self.tel
            .emit_stage(Stage::NetstackDeliver, TraceVerdict::Pass, now, || {
                stack_frame(fid, Some(tuple), len, owner)
            });
        (RxOutcome::Delivered { pid, wake }, cost)
    }

    /// A `recv()` call by `pid` on its socket. Returns the packet (if
    /// any) and the syscall cost. With an empty queue the cost is the
    /// bare syscall and, if `block` is set, the socket is marked so the
    /// next delivery reports `wake = true`.
    pub fn recv(&mut self, proto: IpProto, port: u16, block: bool) -> (Option<Packet>, Dur) {
        let Some(entry) = self.sockets.get_mut(&(proto, port)) else {
            return (None, self.costs.syscalls.control_call());
        };
        match entry.rx_queue.pop_front() {
            Some(pkt) => {
                let cost = self.costs.syscalls.io_call(pkt.len());
                (Some(pkt), cost)
            }
            None => {
                if block {
                    entry.blocking_reader = true;
                }
                (None, self.costs.syscalls.control_call())
            }
        }
    }

    /// A `send()` call: charges the syscall + copy + OUTPUT chain +
    /// protocol work. The send ends at the OUTPUT chain: the stack keeps
    /// no egress queue of its own.
    ///
    /// Returns the total kernel time and whether the frame was accepted
    /// (`false` = dropped by the OUTPUT chain).
    pub fn tx(
        &mut self,
        pid: Pid,
        packet: &Packet,
        now: Time,
        procs: &ProcessTable,
    ) -> (bool, Dur) {
        self.tx_packets += 1;
        let mut cost = self.costs.syscalls.io_call(packet.len()) + self.costs.protocol;
        // Builder-made frames carry their descriptor; `of` only parses
        // for hand-rolled byte buffers.
        let meta = FrameMeta::of(packet).ok();
        let tuple = meta.and_then(|m| m.tuple);
        let (uid, comm) = match procs.get(pid) {
            Some(p) => (p.cred.uid.0, p.comm),
            None => (u32::MAX, telemetry::Comm::default()),
        };
        let m = match &meta {
            Some(meta) => ClassMatch::from_meta(meta, uid, pid.0),
            None => ClassMatch {
                tuple: None,
                uid,
                pid: pid.0,
                mark: 0,
                dscp: 0,
            },
        };
        let owner = Some(Owner::new(uid, pid.0, comm));
        let (verdict, hook_cost) = self.output.evaluate(&m, Some(&comm));
        cost += hook_cost;
        let fid = self.tel.alloc_frame_id();
        let len = packet.len() as u32;
        if verdict == HookVerdict::Drop {
            self.tel.emit_stage(
                Stage::NetstackTxDrop,
                TraceVerdict::Drop(DropCause::NetfilterDrop),
                now,
                || stack_frame(fid, tuple, len, owner),
            );
            return (false, cost);
        }
        if let Some(t) = tuple {
            if let Some(s) = self.sockets.get_mut(&(t.proto, t.src_port)) {
                s.tx_bytes += packet.len() as u64;
            }
        }
        self.tel
            .emit_stage(Stage::NetstackTx, TraceVerdict::Pass, now, || {
                stack_frame(fid, tuple, len, owner)
            });
        (true, cost)
    }

    /// Returns (rx_packets, tx_packets) seen by the stack.
    pub fn counters(&self) -> (u64, u64) {
        (self.rx_packets, self.tx_packets)
    }

    /// Number of packets queued on socket receive queues whose bytes live
    /// in `arena` — the netstack's contribution to the host's
    /// arena-occupancy ledger. Since
    /// [`Packet`] clones are refcount bumps, every packet counted here
    /// pins exactly one slot reference of that arena.
    pub fn arena_resident(&self, arena: &BufArena) -> usize {
        let ours = |p: &&Packet| p.arena_frame().is_some_and(|f| arena.owns(f));
        self.sockets
            .values()
            .map(|s| s.rx_queue.iter().filter(ours).count())
            .sum()
    }

    /// Records that a frame reached this stack because the host demoted
    /// its flow under overload (graceful degradation), not because it
    /// was slow-path traffic to begin with. Called by the host right
    /// after handing the frame to [`NetStack::rx_with_meta`].
    pub fn note_degraded_rx(&mut self) {
        self.rx_degraded += 1;
    }

    /// Frames received via overload demotion (see
    /// [`NetStack::note_degraded_rx`]).
    pub fn rx_degraded(&self) -> u64 {
        self.rx_degraded
    }

    /// Registers the stack's counters into the unified registry under
    /// `netstack.*` keys.
    pub fn fill_registry(&self, reg: &mut telemetry::Registry) {
        reg.set_counter("netstack.rx.packets", self.rx_packets);
        reg.set_counter("netstack.rx.degraded", self.rx_degraded);
        reg.set_counter("netstack.tx.packets", self.tx_packets);
        reg.set_counter("netstack.sockets", self.sockets.len() as u64);
        reg.set_counter("netstack.input.rules", self.input.len() as u64);
        reg.set_counter("netstack.output.rules", self.output.len() as u64);
    }

    /// Returns `knetstat`-style rows for every socket.
    pub fn socket_stats(&self) -> Vec<SocketStat> {
        let mut rows: Vec<SocketStat> = self
            .sockets
            .iter()
            .map(|(&(proto, port), s)| SocketStat {
                proto,
                port,
                pid: s.pid,
                uid: s.uid,
                comm: s.comm.to_string(),
                rx_bytes: s.rx_bytes,
                tx_bytes: s.tx_bytes,
                rx_queued: s.rx_queue.len(),
            })
            .collect();
        rows.sort_by_key(|r| (r.proto.0, r.port));
        rows
    }
}

impl Default for NetStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupId;
    use crate::cred::{Cred, Uid};
    use crate::hooks::Rule;
    use pkt::{Mac, PacketBuilder};
    use qdisc::classify::ClassifierRule;
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn udp(src_port: u16, dst_port: u16, len: usize) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.2"), addr("10.0.0.1"))
            .udp(src_port, dst_port, &vec![0u8; len])
            .build()
    }

    /// The stack's receive with the descriptor the NIC would hand it.
    fn rx(stack: &mut NetStack, p: &Packet) -> (RxOutcome, Dur) {
        stack.rx_with_meta(p, &FrameMeta::of(p).unwrap(), Time::ZERO)
    }

    fn setup() -> (NetStack, ProcessTable, Pid) {
        let mut procs = ProcessTable::new();
        let pid = procs.spawn(Cred::new(Uid(1001), "bob"), "postgres", CgroupId::ROOT);
        let mut stack = NetStack::new();
        assert!(stack.bind(IpProto::UDP, 5432, pid, &procs));
        (stack, procs, pid)
    }

    #[test]
    fn rx_delivers_to_bound_socket() {
        let (mut stack, _procs, pid) = setup();
        let (outcome, cost) = rx(&mut stack, &udp(9000, 5432, 100));
        assert_eq!(outcome, RxOutcome::Delivered { pid, wake: false });
        assert!(cost >= Dur::from_ns(450)); // softirq + protocol at least
        let (pkt, _) = stack.recv(IpProto::UDP, 5432, false);
        assert!(pkt.is_some());
    }

    #[test]
    fn rx_without_socket_is_unreachable() {
        let (mut stack, _, _) = setup();
        let (outcome, _) = rx(&mut stack, &udp(9000, 9999, 10));
        assert_eq!(outcome, RxOutcome::NoSocket);
    }

    #[test]
    fn double_bind_rejected() {
        let (mut stack, procs, pid) = setup();
        assert!(!stack.bind(IpProto::UDP, 5432, pid, &procs));
        assert!(stack.unbind(IpProto::UDP, 5432));
        assert!(stack.bind(IpProto::UDP, 5432, pid, &procs));
    }

    #[test]
    fn input_chain_filters_with_owner() {
        let (mut stack, _procs, _pid) = setup();
        // Drop anything on 5432 not owned by uid 9999 (so: everything).
        let mut allow = Rule::new(HookVerdict::Accept);
        allow.matcher = ClassifierRule {
            dst_port: Some(5432),
            uid: Some(9999),
            ..ClassifierRule::default()
        };
        stack.input.append(allow);
        let mut deny = Rule::new(HookVerdict::Drop);
        deny.matcher = ClassifierRule {
            dst_port: Some(5432),
            ..ClassifierRule::default()
        };
        stack.input.append(deny);
        let (outcome, _) = rx(&mut stack, &udp(9000, 5432, 10));
        assert_eq!(outcome, RxOutcome::Filtered);
    }

    #[test]
    fn blocking_reader_wakes_on_first_packet_only() {
        let (mut stack, _procs, pid) = setup();
        // Empty queue, blocking recv arms the waiter.
        let (pkt, _) = stack.recv(IpProto::UDP, 5432, true);
        assert!(pkt.is_none());
        let (o1, _) = rx(&mut stack, &udp(9000, 5432, 10));
        assert_eq!(o1, RxOutcome::Delivered { pid, wake: true });
        // Second packet while data already queued: no wake needed.
        let (o2, _) = rx(&mut stack, &udp(9000, 5432, 10));
        assert_eq!(o2, RxOutcome::Delivered { pid, wake: false });
    }

    #[test]
    fn tx_charges_syscall_and_copies() {
        let (mut stack, procs, pid) = setup();
        let small = udp(5432, 9000, 10);
        let large = udp(5432, 9000, 1400);
        let (ok, cost_small) = stack.tx(pid, &small, Time::ZERO, &procs);
        assert!(ok);
        let (_, cost_large) = stack.tx(pid, &large, Time::ZERO, &procs);
        assert!(cost_large > cost_small, "copy cost should scale");
        let mut reg = telemetry::Registry::new();
        stack.fill_registry(&mut reg);
        assert_eq!(reg.snapshot().counter("netstack.tx.packets"), Some(2));
    }

    #[test]
    fn output_chain_blocks_spoofed_source_port() {
        let mut procs = ProcessTable::new();
        let thief = procs.spawn(Cred::new(Uid(1002), "charlie"), "netcat", CgroupId::ROOT);
        let mut stack = NetStack::new();
        // Only postgres/uid1001 may send from 5432.
        let mut allow = Rule::new(HookVerdict::Accept);
        allow.matcher = ClassifierRule {
            src_port: Some(5432),
            uid: Some(1001),
            ..ClassifierRule::default()
        };
        allow.comm = Some("postgres".into());
        stack.output.append(allow);
        let mut deny = Rule::new(HookVerdict::Drop);
        deny.matcher = ClassifierRule {
            src_port: Some(5432),
            ..ClassifierRule::default()
        };
        stack.output.append(deny);

        let (sent, _) = stack.tx(thief, &udp(5432, 9000, 10), Time::ZERO, &procs);
        assert!(!sent, "thief's spoofed send must be dropped");
    }

    #[test]
    fn socket_stats_report_attribution() {
        let (mut stack, procs, pid) = setup();
        rx(&mut stack, &udp(9000, 5432, 100));
        stack.tx(pid, &udp(5432, 9000, 50), Time::ZERO, &procs);
        let rows = stack.socket_stats();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.port, 5432);
        assert_eq!(r.comm, "postgres");
        assert_eq!(r.uid, 1001);
        assert!(r.rx_bytes > 0);
        assert!(r.tx_bytes > 0);
        assert_eq!(r.rx_queued, 1);
    }

    #[test]
    fn arp_is_not_delivered_to_sockets() {
        let (mut stack, _, _) = setup();
        let arp = PacketBuilder::arp_request(Mac::local(1), addr("10.0.0.2"), addr("10.0.0.1"));
        let (outcome, _) = rx(&mut stack, &arp);
        assert_eq!(outcome, RxOutcome::NoSocket);
    }
}
