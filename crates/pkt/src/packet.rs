//! Owned packet buffers and the fully parsed view.

use std::fmt;
use std::rc::Rc;

use crate::arena::FrameRef;
use crate::arp::ArpPacket;
use crate::ether::{EtherType, EthernetHeader};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::meta::FrameMeta;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use crate::{PktError, Result};

/// Backing storage for a packet: either a one-off heap buffer (the
/// slow/control path and tests) or a pooled arena slot (the dataplane
/// fast path). Both clone by refcount bump; the difference is where
/// the bytes live and who recycles them.
#[derive(Clone)]
enum Buf {
    Heap(Rc<[u8]>),
    Arena(FrameRef),
}

impl Buf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Buf::Heap(b) => b,
            Buf::Arena(f) => f.bytes(),
        }
    }
}

/// An owned, immutable packet buffer.
///
/// Cloning is cheap (reference-counted), which lets the sniffer tap a copy
/// of every frame without perturbing the dataplane.
///
/// A packet may carry a parse-once [`FrameMeta`] descriptor (attached at
/// build time or at ingress); equality and hashing consider only the wire
/// bytes, so a frame with and without meta is the same frame.
#[derive(Clone)]
pub struct Packet {
    data: Buf,
    meta: Option<FrameMeta>,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Packet {}

impl Packet {
    /// Wraps raw wire bytes.
    pub fn from_bytes(data: impl Into<Rc<[u8]>>) -> Packet {
        Packet {
            data: Buf::Heap(data.into()),
            meta: None,
        }
    }

    /// Wraps a frozen arena frame: the zero-copy ingress path.
    pub fn from_arena(frame: FrameRef) -> Packet {
        Packet {
            data: Buf::Arena(frame),
            meta: None,
        }
    }

    /// The arena slot handle, when arena-backed.
    pub fn arena_frame(&self) -> Option<&FrameRef> {
        match &self.data {
            Buf::Arena(f) => Some(f),
            Buf::Heap(_) => None,
        }
    }

    /// Mutable access to the wire bytes when this handle is the sole
    /// owner of its buffer (heap `Rc` or arena slot, refcount 1) —
    /// the in-place NAT rewrite path. `None` when the frame is shared;
    /// callers then fall back to copy-on-write.
    pub(crate) fn bytes_mut_unique(&mut self) -> Option<&mut [u8]> {
        match &mut self.data {
            Buf::Heap(rc) => Rc::get_mut(rc),
            Buf::Arena(f) => f.bytes_mut(),
        }
    }

    /// Replaces the attached descriptor in place (after an in-place
    /// header rewrite recomputed it).
    pub(crate) fn set_meta(&mut self, meta: FrameMeta) {
        debug_assert_eq!(
            meta.frame_len,
            self.len(),
            "descriptor/frame length mismatch"
        );
        self.meta = Some(meta);
    }

    /// Attaches a descriptor computed for exactly these bytes.
    pub fn with_meta(mut self, meta: FrameMeta) -> Packet {
        debug_assert_eq!(
            meta.frame_len,
            self.len(),
            "descriptor/frame length mismatch"
        );
        self.meta = Some(meta);
        self
    }

    /// Returns the attached parse-once descriptor, if any.
    pub fn meta(&self) -> Option<&FrameMeta> {
        self.meta.as_ref()
    }

    /// Returns the wire bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// Returns the frame length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Returns `true` for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Parses the frame into a structured view.
    pub fn parse(&self) -> Result<Parsed> {
        Parsed::from_frame(self.bytes())
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Use the attached descriptor when present so debug logging never
        // re-parses the frame (and cannot distort cycle accounting).
        if let Some(meta) = &self.meta {
            return write!(
                f,
                "Packet({} bytes, {})",
                self.len(),
                meta.summarize(self.bytes())
            );
        }
        match self.parse() {
            Ok(p) => write!(f, "Packet({} bytes, {p})", self.len()),
            Err(e) => write!(f, "Packet({} bytes, unparsed: {e})", self.len()),
        }
    }
}

/// The payload of a parsed frame, by protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4/TCP segment; the range indexes the application payload
    /// within the frame.
    Tcp {
        /// The IPv4 header.
        ip: Ipv4Header,
        /// The TCP header.
        tcp: TcpHeader,
        /// Byte range of the application payload within the frame.
        payload: std::ops::Range<usize>,
    },
    /// An IPv4/UDP datagram.
    Udp {
        /// The IPv4 header.
        ip: Ipv4Header,
        /// The UDP header.
        udp: UdpHeader,
        /// Byte range of the application payload within the frame.
        payload: std::ops::Range<usize>,
    },
    /// IPv4 with a transport protocol this stack does not parse.
    OtherIp {
        /// The IPv4 header.
        ip: Ipv4Header,
    },
}

/// A structured view of one Ethernet frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parsed {
    /// The Ethernet header.
    pub ether: EthernetHeader,
    /// The parsed payload.
    pub payload: Payload,
}

impl Parsed {
    /// Parses a complete Ethernet frame.
    pub(crate) fn from_frame(frame: &[u8]) -> Result<Parsed> {
        let ether = EthernetHeader::parse(frame)?;
        let body = &frame[EthernetHeader::LEN..];
        let payload = match ether.ethertype {
            EtherType::ARP => Payload::Arp(ArpPacket::parse(body)?),
            EtherType::IPV4 => {
                let ip = Ipv4Header::parse(body)?;
                let l4 = &body[Ipv4Header::LEN..ip.total_len as usize];
                match ip.proto {
                    IpProto::TCP => {
                        let tcp = TcpHeader::parse(l4)?;
                        let start = EthernetHeader::LEN + Ipv4Header::LEN + TcpHeader::LEN;
                        let end = EthernetHeader::LEN + ip.total_len as usize;
                        Payload::Tcp {
                            ip,
                            tcp,
                            payload: start..end,
                        }
                    }
                    IpProto::UDP => {
                        let udp = UdpHeader::parse(l4)?;
                        let start = EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN;
                        let end = EthernetHeader::LEN + ip.total_len as usize;
                        Payload::Udp {
                            ip,
                            udp,
                            payload: start..end,
                        }
                    }
                    _ => Payload::OtherIp { ip },
                }
            }
            other => return Err(PktError::UnsupportedEtherType(other.0)),
        };
        Ok(Parsed { ether, payload })
    }

    /// Returns the IPv4 header if this is an IP frame.
    pub fn ip(&self) -> Option<&Ipv4Header> {
        match &self.payload {
            Payload::Tcp { ip, .. } | Payload::Udp { ip, .. } | Payload::OtherIp { ip } => Some(ip),
            Payload::Arp(_) => None,
        }
    }

    /// Returns (src_port, dst_port) for TCP/UDP frames.
    pub fn ports(&self) -> Option<(u16, u16)> {
        match &self.payload {
            Payload::Tcp { tcp, .. } => Some((tcp.src_port, tcp.dst_port)),
            Payload::Udp { udp, .. } => Some((udp.src_port, udp.dst_port)),
            _ => None,
        }
    }

    /// Verifies the transport checksum against `frame` (the same buffer
    /// this view was parsed from).
    ///
    /// The IPv4 header checksum is already enforced by
    /// [`Ipv4Header::parse`]; this covers the TCP/UDP pseudo-header sum,
    /// which is what catches payload corruption. Frames without an L4
    /// checksum (ARP, other IP protocols) verify trivially.
    pub fn l4_checksum_ok(&self, frame: &[u8]) -> bool {
        let l4_start = EthernetHeader::LEN + Ipv4Header::LEN;
        match &self.payload {
            Payload::Tcp { ip, .. } => {
                let seg = &frame[l4_start..EthernetHeader::LEN + ip.total_len as usize];
                TcpHeader::verify_segment(ip.src, ip.dst, seg)
            }
            Payload::Udp { ip, .. } => {
                let seg = &frame[l4_start..EthernetHeader::LEN + ip.total_len as usize];
                UdpHeader::verify_segment(ip.src, ip.dst, seg)
            }
            Payload::Arp(_) | Payload::OtherIp { .. } => true,
        }
    }
}

impl fmt::Display for Parsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Payload::Arp(arp) => write!(f, "{arp}"),
            Payload::Tcp { ip, tcp, payload } => write!(
                f,
                "{}:{} > {}:{} tcp [{}] len {}",
                ip.src,
                tcp.src_port,
                ip.dst,
                tcp.dst_port,
                tcp.flags,
                payload.len()
            ),
            Payload::Udp { ip, udp, payload } => write!(
                f,
                "{}:{} > {}:{} udp len {}",
                ip.src,
                udp.src_port,
                ip.dst,
                udp.dst_port,
                payload.len()
            ),
            Payload::OtherIp { ip } => {
                write!(f, "{} > {} {}", ip.src, ip.dst, ip.proto)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ether::Mac;

    #[test]
    fn parse_udp_frame() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1234, 5678, b"payload")
            .build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ports(), Some((1234, 5678)));
        assert!(!matches!(parsed.payload, Payload::Arp(_)));
        match parsed.payload {
            Payload::Udp { ref payload, .. } => {
                assert_eq!(&pkt.bytes()[payload.clone()], b"payload");
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    #[test]
    fn parse_tcp_frame() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .tcp(22, 40000, crate::TcpFlags::SYN, b"")
            .build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ports(), Some((22, 40000)));
        assert!(parsed.ip().is_some());
    }

    #[test]
    fn parse_arp_frame() {
        let pkt = PacketBuilder::arp_request(
            Mac::local(9),
            "10.0.0.9".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        );
        let parsed = pkt.parse().unwrap();
        assert!(matches!(parsed.payload, Payload::Arp(_)));
        assert_eq!(parsed.ports(), None);
        assert!(parsed.ip().is_none());
        assert_eq!(parsed.ether.dst, Mac::BROADCAST);
    }

    #[test]
    fn unsupported_ethertype_errors() {
        let mut frame = vec![0u8; 60];
        frame[12] = 0x86; // IPv6
        frame[13] = 0xDD;
        let err = Packet::from_bytes(frame).parse().unwrap_err();
        assert_eq!(err, PktError::UnsupportedEtherType(0x86DD));
    }

    #[test]
    fn display_is_tcpdump_like() {
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(53, 53, b"x")
            .build();
        let s = pkt.parse().unwrap().to_string();
        assert!(s.contains("10.0.0.1:53 > 10.0.0.2:53"), "got: {s}");
        assert!(s.contains("udp len 1"));
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let pkt = PacketBuilder::arp_request(
            Mac::local(1),
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
        );
        let copy = pkt.clone();
        assert_eq!(pkt, copy);
        assert_eq!(pkt.bytes().as_ptr(), copy.bytes().as_ptr());
    }
}
