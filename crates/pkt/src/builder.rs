//! Fluent, checksum-correct packet construction.

use std::net::Ipv4Addr;

use crate::arena::BufArena;
use crate::arp::ArpPacket;
use crate::checksum::pseudo_header_checksum;
use crate::ether::{EtherType, EthernetHeader, Mac};
use crate::flow::FiveTuple;
use crate::ipv4::{IpProto, Ipv4Header};
use crate::meta::{self, FrameMeta, PacketClass};
use crate::packet::Packet;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;

/// Typestate-free builder producing valid Ethernet frames.
///
/// Payloads are *borrowed* until [`PacketBuilder::build`] — the bytes
/// are written exactly once, directly into the output frame (a heap
/// buffer for `build`, a pooled arena slot for
/// [`PacketBuilder::build_in`]), never staged through an intermediate
/// `Vec`.
///
/// # Examples
///
/// ```
/// use pkt::{Mac, PacketBuilder};
///
/// let pkt = PacketBuilder::new()
///     .ether(Mac::local(1), Mac::local(2))
///     .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
///     .udp(1234, 80, b"hi")
///     .build();
/// assert!(pkt.parse().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct PacketBuilder<'p> {
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: Option<Ipv4Addr>,
    dst_ip: Option<Ipv4Addr>,
    ttl: u8,
    dscp: u8,
    l4: Option<L4<'p>>,
}

/// An L4 payload source: real bytes, or a run of zeroes of a given
/// length (the synthetic-workload case — no allocation at all).
#[derive(Clone, Copy, Debug)]
enum BuildPayload<'p> {
    Bytes(&'p [u8]),
    Zeroes(usize),
}

impl BuildPayload<'_> {
    fn len(&self) -> usize {
        match self {
            BuildPayload::Bytes(b) => b.len(),
            BuildPayload::Zeroes(n) => *n,
        }
    }

    /// Writes the payload into `out` (exactly `self.len()` bytes).
    fn write_to(&self, out: &mut [u8]) {
        match self {
            BuildPayload::Bytes(b) => out.copy_from_slice(b),
            BuildPayload::Zeroes(_) => out.fill(0),
        }
    }
}

#[derive(Clone, Debug)]
enum L4<'p> {
    Udp {
        src_port: u16,
        dst_port: u16,
        payload: BuildPayload<'p>,
    },
    Tcp {
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        payload: BuildPayload<'p>,
    },
}

impl<'p> PacketBuilder<'p> {
    /// Creates an empty builder (TTL defaults to 64).
    pub fn new() -> PacketBuilder<'static> {
        PacketBuilder {
            ttl: 64,
            ..PacketBuilder::default()
        }
    }

    /// Sets Ethernet source and destination.
    pub fn ether(mut self, src: Mac, dst: Mac) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Sets IPv4 source and destination.
    pub fn ipv4(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.src_ip = Some(src);
        self.dst_ip = Some(dst);
        self
    }

    /// Overrides the IPv4 TTL.
    #[cfg(test)]
    pub(crate) fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the DSCP/ECN byte (QoS marking).
    #[cfg(test)]
    pub(crate) fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = dscp;
        self
    }

    /// Attaches a UDP datagram. The payload is borrowed — it is copied
    /// once, into the final frame, at build time.
    pub fn udp<'q>(self, src_port: u16, dst_port: u16, payload: &'q [u8]) -> PacketBuilder<'q> {
        self.with_l4(L4::Udp {
            src_port,
            dst_port,
            payload: BuildPayload::Bytes(payload),
        })
    }

    /// Attaches a UDP datagram carrying `len` zero bytes — the
    /// synthetic-workload payload, produced without any staging
    /// allocation.
    pub fn udp_zeroes(self, src_port: u16, dst_port: u16, len: usize) -> PacketBuilder<'static> {
        self.with_l4(L4::Udp {
            src_port,
            dst_port,
            payload: BuildPayload::Zeroes(len),
        })
    }

    /// Attaches a TCP segment. The payload is borrowed — it is copied
    /// once, into the final frame, at build time.
    pub fn tcp<'q>(
        self,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        payload: &'q [u8],
    ) -> PacketBuilder<'q> {
        self.with_l4(L4::Tcp {
            src_port,
            dst_port,
            flags,
            seq: 0,
            ack: 0,
            payload: BuildPayload::Bytes(payload),
        })
    }

    /// Replaces the transport layer, rebinding the payload lifetime.
    fn with_l4<'q>(self, l4: L4<'q>) -> PacketBuilder<'q> {
        PacketBuilder {
            src_mac: self.src_mac,
            dst_mac: self.dst_mac,
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            ttl: self.ttl,
            dscp: self.dscp,
            l4: Some(l4),
        }
    }

    /// Sets TCP sequence/ack numbers (applies to a previously attached TCP
    /// segment).
    ///
    /// # Panics
    ///
    /// Panics if no TCP segment has been attached.
    pub fn tcp_seq(mut self, seq: u32, ack: u32) -> Self {
        match &mut self.l4 {
            Some(L4::Tcp { seq: s, ack: a, .. }) => {
                *s = seq;
                *a = ack;
            }
            _ => panic!("tcp_seq requires a TCP segment"),
        }
        self
    }

    /// Builds the frame, computing lengths and checksums — and attaching
    /// a [`FrameMeta`] descriptor, since everything the ingress parse
    /// would discover is already known here (checksums are correct by
    /// construction). Frames from the builder therefore never need a
    /// parse anywhere in the dataplane.
    ///
    /// # Panics
    ///
    /// Panics if IPv4 addresses or the transport layer were not set; use
    /// [`PacketBuilder::arp_request`]/[`PacketBuilder::arp_reply`] for ARP.
    pub fn build(self) -> Packet {
        let plan = self.plan();
        let mut frame = vec![0u8; plan.frame_len()];
        plan.write(&mut frame);
        Packet::from_bytes(frame).with_meta(plan.meta())
    }

    /// Builds the frame directly into a pooled slot of `arena` — the
    /// zero-copy construction path. Headers, payload, and checksums are
    /// written in place; no heap buffer exists at any point. Falls back
    /// to [`PacketBuilder::build`]'s heap frame when the arena is
    /// exhausted or the frame exceeds a slot (the refusal shows up in
    /// [`crate::ArenaStats::exhausted`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PacketBuilder::build`].
    pub fn build_in(self, arena: &BufArena) -> Packet {
        let plan = self.plan();
        let frame_len = plan.frame_len();
        if frame_len > arena.slot_bytes() {
            let mut frame = vec![0u8; frame_len];
            plan.write(&mut frame);
            return Packet::from_bytes(frame).with_meta(plan.meta());
        }
        match arena.alloc() {
            Some(mut w) => {
                plan.write(&mut w.bytes_mut()[..frame_len]);
                Packet::from_arena(w.freeze(frame_len)).with_meta(plan.meta())
            }
            None => {
                let mut frame = vec![0u8; frame_len];
                plan.write(&mut frame);
                Packet::from_bytes(frame).with_meta(plan.meta())
            }
        }
    }

    /// Resolves the builder into a write plan (lengths and descriptor
    /// fields fixed; bytes not yet written anywhere).
    fn plan(self) -> BuildPlan<'p> {
        let src_ip = self.src_ip.expect("ipv4() not called");
        let dst_ip = self.dst_ip.expect("ipv4() not called");
        let l4 = self.l4.expect("no transport layer attached");
        BuildPlan {
            src_mac: self.src_mac,
            dst_mac: self.dst_mac,
            src_ip,
            dst_ip,
            ttl: self.ttl,
            dscp: self.dscp,
            l4,
        }
    }

    /// Builds a broadcast ARP who-has request frame.
    pub fn arp_request(sender_mac: Mac, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Packet {
        Self::arp_frame(
            sender_mac,
            Mac::BROADCAST,
            &ArpPacket::request(sender_mac, sender_ip, target_ip),
        )
    }

    /// Builds a unicast ARP is-at reply frame answering `request`.
    pub fn arp_reply(request: &ArpPacket, my_mac: Mac) -> Packet {
        let reply = ArpPacket::reply_to(request, my_mac);
        Self::arp_frame(my_mac, request.sender_mac, &reply)
    }

    fn arp_frame(src: Mac, dst: Mac, arp: &ArpPacket) -> Packet {
        let mut frame = vec![0u8; EthernetHeader::LEN + ArpPacket::LEN];
        EthernetHeader {
            dst,
            src,
            ethertype: EtherType::ARP,
        }
        .write_to(&mut frame);
        arp.write_to(&mut frame[EthernetHeader::LEN..]);
        let frame_len = frame.len();
        Packet::from_bytes(frame).with_meta(FrameMeta {
            frame_id: 0,
            class: PacketClass::Arp,
            frame_len,
            ethertype: EtherType::ARP.0,
            l3_off: EthernetHeader::LEN,
            l4_off: None,
            payload_off: EthernetHeader::LEN,
            payload_len: ArpPacket::LEN,
            tuple: None,
            flow_hash: 0,
            dscp_ecn: 0,
            l3_checksum_ok: true,
            l4_checksum_ok: true,
            queue: 0,
        })
    }
}

/// A resolved frame: knows its exact length and descriptor, and can
/// write itself into any sufficiently large buffer (heap or arena
/// slot). Every byte of the frame is written — the target needs no
/// pre-zeroing.
struct BuildPlan<'p> {
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ttl: u8,
    dscp: u8,
    l4: L4<'p>,
}

impl BuildPlan<'_> {
    fn proto(&self) -> IpProto {
        match self.l4 {
            L4::Udp { .. } => IpProto::UDP,
            L4::Tcp { .. } => IpProto::TCP,
        }
    }

    fn seg_len(&self) -> usize {
        match &self.l4 {
            L4::Udp { payload, .. } => UdpHeader::LEN + payload.len(),
            L4::Tcp { payload, .. } => TcpHeader::LEN + payload.len(),
        }
    }

    fn frame_len(&self) -> usize {
        EthernetHeader::LEN + Ipv4Header::LEN + self.seg_len()
    }

    /// Writes headers, payload, and checksums into `out[..frame_len]`.
    fn write(&self, out: &mut [u8]) {
        let seg_len = self.seg_len();
        EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::IPV4,
        }
        .write_to(out);

        let mut ip = Ipv4Header::new(self.src_ip, self.dst_ip, self.proto(), seg_len);
        ip.ttl = self.ttl;
        ip.dscp_ecn = self.dscp;
        ip.write_to(&mut out[EthernetHeader::LEN..]);

        let seg = &mut out[EthernetHeader::LEN + Ipv4Header::LEN
            ..EthernetHeader::LEN + Ipv4Header::LEN + seg_len];
        // Header (checksum zero), then payload in place, then the
        // pseudo-header sum over the finished segment: the payload is
        // touched exactly once.
        match &self.l4 {
            L4::Udp {
                src_port,
                dst_port,
                payload,
            } => {
                UdpHeader::new(*src_port, *dst_port, payload.len()).write_to(seg);
                payload.write_to(&mut seg[UdpHeader::LEN..]);
                let sum = pseudo_header_checksum(self.src_ip, self.dst_ip, IpProto::UDP.0, seg, 6);
                seg[6..8].copy_from_slice(&sum.to_be_bytes());
            }
            L4::Tcp {
                src_port,
                dst_port,
                flags,
                seq,
                ack,
                payload,
            } => {
                let mut tcp = TcpHeader::new(*src_port, *dst_port);
                tcp.flags = *flags;
                tcp.seq = *seq;
                tcp.ack = *ack;
                tcp.write_to(seg);
                payload.write_to(&mut seg[TcpHeader::LEN..]);
                let sum = pseudo_header_checksum(self.src_ip, self.dst_ip, IpProto::TCP.0, seg, 16);
                seg[16..18].copy_from_slice(&sum.to_be_bytes());
            }
        }
    }

    fn meta(&self) -> FrameMeta {
        let (class, src_port, dst_port, l4_hdr_len) = match &self.l4 {
            L4::Udp {
                src_port, dst_port, ..
            } => (PacketClass::Udp, *src_port, *dst_port, UdpHeader::LEN),
            L4::Tcp {
                src_port, dst_port, ..
            } => (PacketClass::Tcp, *src_port, *dst_port, TcpHeader::LEN),
        };
        let tuple = FiveTuple {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port,
            dst_port,
            proto: self.proto(),
        };
        let payload_off = EthernetHeader::LEN + Ipv4Header::LEN + l4_hdr_len;
        let frame_len = self.frame_len();
        FrameMeta {
            frame_id: 0,
            class,
            frame_len,
            ethertype: EtherType::IPV4.0,
            l3_off: EthernetHeader::LEN,
            l4_off: Some(EthernetHeader::LEN + Ipv4Header::LEN),
            payload_off,
            payload_len: frame_len - payload_off,
            tuple: Some(tuple),
            flow_hash: meta::flow_hash_of(&tuple),
            dscp_ecn: self.dscp,
            l3_checksum_ok: true,
            l4_checksum_ok: true,
            queue: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;
    use crate::packet::Payload;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn udp_frame_has_valid_checksums() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("192.168.1.1"), addr("192.168.1.2"))
            .udp(1000, 2000, &[0xAA; 32])
            .build();
        let frame = pkt.bytes();
        // IPv4 checksum verifies.
        assert!(checksum::verify(&frame[14..34]));
        // UDP checksum verifies through the parser helper.
        assert!(UdpHeader::verify_segment(
            addr("192.168.1.1"),
            addr("192.168.1.2"),
            &frame[34..]
        ));
    }

    #[test]
    fn tcp_frame_round_trips_seq_numbers() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .tcp(22, 5000, TcpFlags::ACK, b"data")
            .tcp_seq(1000, 2000)
            .build();
        match pkt.parse().unwrap().payload {
            Payload::Tcp { tcp, .. } => {
                assert_eq!(tcp.seq, 1000);
                assert_eq!(tcp.ack, 2000);
                assert!(tcp.flags.contains(TcpFlags::ACK));
            }
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn ttl_and_dscp_applied() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .ttl(7)
            .dscp(0x2E << 2) // EF PHB
            .udp(1, 2, b"")
            .build();
        let ip = *pkt.parse().unwrap().ip().unwrap();
        assert_eq!(ip.ttl, 7);
        assert_eq!(ip.dscp_ecn, 0x2E << 2);
    }

    #[test]
    fn arp_request_is_broadcast() {
        let pkt = PacketBuilder::arp_request(Mac::local(7), addr("10.0.0.7"), addr("10.0.0.1"));
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ether.dst, Mac::BROADCAST);
        match parsed.payload {
            Payload::Arp(arp) => {
                assert_eq!(arp.sender_ip, addr("10.0.0.7"));
                assert_eq!(arp.target_ip, addr("10.0.0.1"));
            }
            other => panic!("expected ARP, got {other:?}"),
        }
    }

    #[test]
    fn arp_reply_is_unicast_to_requester() {
        let req = ArpPacket::request(Mac::local(1), addr("10.0.0.1"), addr("10.0.0.2"));
        let pkt = PacketBuilder::arp_reply(&req, Mac::local(2));
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ether.dst, Mac::local(1));
        assert_eq!(parsed.ether.src, Mac::local(2));
    }

    #[test]
    #[should_panic(expected = "ipv4() not called")]
    fn missing_ip_panics() {
        let _ = PacketBuilder::new().udp(1, 2, b"").build();
    }

    #[test]
    #[should_panic(expected = "tcp_seq requires a TCP segment")]
    fn tcp_seq_without_tcp_panics() {
        let _ = PacketBuilder::new().udp(1, 2, b"").tcp_seq(1, 2);
    }

    #[test]
    fn frame_sizes_are_exact() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("1.1.1.1"), addr("2.2.2.2"))
            .udp(1, 2, &[0u8; 100])
            .build();
        assert_eq!(pkt.len(), 14 + 20 + 8 + 100);
    }

    #[test]
    fn build_in_lands_in_arena_and_matches_heap_build() {
        let arena = BufArena::new(4, 2048);
        let mk = || {
            PacketBuilder::new()
                .ether(Mac::local(1), Mac::local(2))
                .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
                .dscp(8)
                .udp(1234, 80, &[0x5A; 700])
        };
        let heap = mk().build();
        let pooled = mk().build_in(&arena);
        assert!(pooled.arena_frame().is_some());
        assert!(heap.arena_frame().is_none());
        assert_eq!(
            heap.bytes(),
            pooled.bytes(),
            "byte-identical representations"
        );
        assert_eq!(heap.meta(), pooled.meta());
        assert_eq!(arena.live(), 1);
        drop(pooled);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn zeroes_payload_matches_explicit_zero_bytes() {
        let arena = BufArena::new(2, 2048);
        let explicit = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(9000, 7000, &vec![0u8; 1458])
            .build();
        let zeroes = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp_zeroes(9000, 7000, 1458)
            .build_in(&arena);
        // Arena slots start poisoned in debug builds, so equality here
        // proves the zero fill really happened in the slot.
        assert_eq!(explicit.bytes(), zeroes.bytes());
        assert_eq!(explicit.meta(), zeroes.meta());
    }

    #[test]
    fn build_in_falls_back_to_heap_when_exhausted() {
        let arena = BufArena::new(1, 2048);
        let held = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp_zeroes(1, 2, 64)
            .build_in(&arena);
        assert!(held.arena_frame().is_some());
        let spill = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp_zeroes(1, 2, 64)
            .build_in(&arena);
        assert!(
            spill.arena_frame().is_none(),
            "exhausted arena must fall back to heap"
        );
        assert_eq!(held.bytes(), spill.bytes());
        assert_eq!(arena.stats().exhausted, 1);
    }

    #[test]
    fn build_in_oversize_frame_falls_back_to_heap() {
        let arena = BufArena::new(2, 128);
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp_zeroes(1, 2, 1458)
            .build_in(&arena);
        assert!(pkt.arena_frame().is_none());
        assert_eq!(arena.live(), 0);
        assert!(pkt.parse().is_ok());
    }
}
