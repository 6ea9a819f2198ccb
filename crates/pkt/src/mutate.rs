//! In-place header rewriting with incremental checksum fixup.
//!
//! The §5 offload list includes NAT: the NIC must rewrite addresses and
//! ports at line rate. Hardware does this with RFC 1624 incremental
//! checksum updates — O(1) per rewritten word, never re-reading the
//! payload — and so does this module.

use std::net::Ipv4Addr;

use crate::checksum::incremental_update;
use crate::ether::{EtherType, EthernetHeader};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::meta::{Frame, PacketClass};
use crate::packet::Packet;
use crate::{PktError, Result};

const IP_OFF: usize = EthernetHeader::LEN;

struct Layout {
    proto: IpProto,
    l4_off: usize,
}

fn layout(bytes: &[u8]) -> Result<Layout> {
    let ether = EthernetHeader::parse(bytes)?;
    if ether.ethertype != EtherType::IPV4 {
        return Err(PktError::UnsupportedEtherType(ether.ethertype.0));
    }
    let ip = Ipv4Header::parse(&bytes[IP_OFF..])?;
    Ok(Layout {
        proto: ip.proto,
        l4_off: IP_OFF + Ipv4Header::LEN,
    })
}

/// Offset of the transport checksum field within the L4 header, if the
/// protocol carries one we know how to fix.
fn l4_checksum_off(proto: IpProto) -> Option<usize> {
    match proto {
        IpProto::TCP => Some(16),
        IpProto::UDP => Some(6),
        _ => None,
    }
}

fn patch_word(bytes: &mut [u8], word_off: usize, new: [u8; 2], sum_offs: &[usize]) {
    let old = u16::from_be_bytes([bytes[word_off], bytes[word_off + 1]]);
    let new_w = u16::from_be_bytes(new);
    bytes[word_off] = new[0];
    bytes[word_off + 1] = new[1];
    for &so in sum_offs {
        let sum = u16::from_be_bytes([bytes[so], bytes[so + 1]]);
        // A UDP checksum of zero means "not computed"; leave it be.
        if sum == 0 {
            continue;
        }
        let fixed = incremental_update(sum, old, new_w);
        bytes[so..so + 2].copy_from_slice(&fixed.to_be_bytes());
    }
}

/// Rewrites the IPv4 source and/or destination address, fixing the IP
/// header checksum and the transport pseudo-header checksum
/// incrementally.
pub fn rewrite_ipv4_addrs(
    packet: &Packet,
    new_src: Option<Ipv4Addr>,
    new_dst: Option<Ipv4Addr>,
) -> Result<Packet> {
    let lay = layout(packet.bytes())?;
    let mut bytes = packet.bytes().to_vec();
    let ip_sum = IP_OFF + 10;
    let mut sums = vec![ip_sum];
    if let Some(off) = l4_checksum_off(lay.proto) {
        // Addresses are in the pseudo-header, so the L4 sum changes too.
        sums.push(lay.l4_off + off);
    }
    if let Some(src) = new_src {
        let o = src.octets();
        patch_word(&mut bytes, IP_OFF + 12, [o[0], o[1]], &sums);
        patch_word(&mut bytes, IP_OFF + 14, [o[2], o[3]], &sums);
    }
    if let Some(dst) = new_dst {
        let o = dst.octets();
        patch_word(&mut bytes, IP_OFF + 16, [o[0], o[1]], &sums);
        patch_word(&mut bytes, IP_OFF + 18, [o[2], o[3]], &sums);
    }
    Ok(Packet::from_bytes(bytes))
}

/// Rewrites the transport source and/or destination port, fixing the
/// transport checksum incrementally.
pub fn rewrite_ports(
    packet: &Packet,
    new_src_port: Option<u16>,
    new_dst_port: Option<u16>,
) -> Result<Packet> {
    let lay = layout(packet.bytes())?;
    let Some(sum_off) = l4_checksum_off(lay.proto) else {
        return Err(PktError::BadLength { layer: "l4" });
    };
    let mut bytes = packet.bytes().to_vec();
    let sums = [lay.l4_off + sum_off];
    if let Some(p) = new_src_port {
        patch_word(&mut bytes, lay.l4_off, p.to_be_bytes(), &sums);
    }
    if let Some(p) = new_dst_port {
        patch_word(&mut bytes, lay.l4_off + 2, p.to_be_bytes(), &sums);
    }
    Ok(Packet::from_bytes(bytes))
}

/// Resolves the transport checksum offset for an endpoint rewrite from
/// the frame's descriptor, rejecting frames that cannot be rewritten.
fn endpoint_layout(frame: &Frame) -> Result<(usize, usize)> {
    let sum_off = match frame.meta.class {
        PacketClass::Tcp => 16,
        PacketClass::Udp => 6,
        _ => return Err(PktError::BadLength { layer: "l4" }),
    };
    let Some(l4_off) = frame.meta.l4_off else {
        return Err(PktError::BadLength { layer: "l4" });
    };
    Ok((l4_off, sum_off))
}

/// The endpoint-rewrite core: patches addresses/ports and both
/// checksums in `bytes`, wherever those bytes live (heap copy or arena
/// slot).
fn patch_endpoints(
    bytes: &mut [u8],
    l4_off: usize,
    sum_off: usize,
    new_src: Option<(Ipv4Addr, u16)>,
    new_dst: Option<(Ipv4Addr, u16)>,
) {
    // Addresses are in the pseudo-header, so they touch both checksums;
    // ports only the transport one.
    let both_sums = [IP_OFF + 10, l4_off + sum_off];
    let l4_sum = [l4_off + sum_off];
    if let Some((ip, port)) = new_src {
        let o = ip.octets();
        patch_word(bytes, IP_OFF + 12, [o[0], o[1]], &both_sums);
        patch_word(bytes, IP_OFF + 14, [o[2], o[3]], &both_sums);
        patch_word(bytes, l4_off, port.to_be_bytes(), &l4_sum);
    }
    if let Some((ip, port)) = new_dst {
        let o = ip.octets();
        patch_word(bytes, IP_OFF + 16, [o[0], o[1]], &both_sums);
        patch_word(bytes, IP_OFF + 18, [o[2], o[3]], &both_sums);
        patch_word(bytes, l4_off + 2, port.to_be_bytes(), &l4_sum);
    }
}

/// Rewrites the source and/or destination endpoint (address + port) in a
/// single pass over a single copy of the frame.
///
/// Uses the frame's descriptor for the layout — no parse — fixes the IP
/// and transport checksums incrementally (RFC 1624), and patches the
/// descriptor in place (offsets are stable; the tuple and flow hash
/// update incrementally), so nothing downstream ever re-parses. The
/// input is borrowed, so the output is always a fresh heap buffer; the
/// NAT hot path uses [`rewrite_endpoints_owned`], which rewrites in
/// place when it holds the only reference.
pub(crate) fn rewrite_endpoints(
    frame: &Frame,
    new_src: Option<(Ipv4Addr, u16)>,
    new_dst: Option<(Ipv4Addr, u16)>,
) -> Result<Frame> {
    let (l4_off, sum_off) = endpoint_layout(frame)?;
    let mut bytes = frame.bytes().to_vec();
    patch_endpoints(&mut bytes, l4_off, sum_off, new_src, new_dst);
    let mut new_meta = frame.meta;
    new_meta.rewrite_endpoints(new_src, new_dst);
    Ok(Frame::from_parts(Packet::from_bytes(bytes), new_meta))
}

/// The zero-copy endpoint rewrite: when `frame` is the sole owner of
/// its buffer (heap or arena slot, refcount 1 — the usual case for a
/// frame in flight through NAT), the headers and checksums are patched
/// *in place* and no bytes move at all. A shared buffer falls back to
/// the copying path transparently.
pub fn rewrite_endpoints_owned(
    mut frame: Frame,
    new_src: Option<(Ipv4Addr, u16)>,
    new_dst: Option<(Ipv4Addr, u16)>,
) -> Result<Frame> {
    let (l4_off, sum_off) = endpoint_layout(&frame)?;
    let Some(bytes) = frame.pkt.bytes_mut_unique() else {
        return rewrite_endpoints(&frame, new_src, new_dst);
    };
    patch_endpoints(bytes, l4_off, sum_off, new_src, new_dst);
    let mut new_meta = frame.meta;
    new_meta.rewrite_endpoints(new_src, new_dst);
    frame.pkt.set_meta(new_meta);
    frame.meta = new_meta;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ether::Mac;
    use crate::flow::FiveTuple;
    use crate::tcp::TcpHeader;
    use crate::udp::UdpHeader;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn udp_pkt() -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("192.168.1.10"), addr("8.8.8.8"))
            .udp(5353, 53, b"query-payload")
            .build()
    }

    fn tcp_pkt() -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("192.168.1.10"), addr("8.8.8.8"))
            .tcp(40_000, 443, crate::TcpFlags::ACK, b"tls bytes")
            .build()
    }

    #[test]
    fn snat_rewrite_keeps_checksums_valid() {
        let pkt = udp_pkt();
        let natted = rewrite_ipv4_addrs(&pkt, Some(addr("203.0.113.7")), None).unwrap();
        let natted = rewrite_ports(&natted, Some(61_000), None).unwrap();
        // Re-parse: IPv4 checksum must verify (parse checks it).
        let parsed = natted.parse().unwrap();
        let ft = FiveTuple::from_parsed(&parsed).unwrap();
        assert_eq!(ft.src_ip, addr("203.0.113.7"));
        assert_eq!(ft.src_port, 61_000);
        assert_eq!(ft.dst_ip, addr("8.8.8.8"));
        // UDP checksum verifies against the *new* pseudo-header.
        assert!(UdpHeader::verify_segment(
            addr("203.0.113.7"),
            addr("8.8.8.8"),
            &natted.bytes()[34..]
        ));
        // Payload untouched.
        assert_eq!(&natted.bytes()[42..], &pkt.bytes()[42..]);
    }

    #[test]
    fn dnat_rewrite_tcp() {
        let pkt = tcp_pkt();
        let natted = rewrite_ipv4_addrs(&pkt, None, Some(addr("10.0.0.99"))).unwrap();
        let natted = rewrite_ports(&natted, None, Some(8443)).unwrap();
        let parsed = natted.parse().unwrap();
        let ft = FiveTuple::from_parsed(&parsed).unwrap();
        assert_eq!(ft.dst_ip, addr("10.0.0.99"));
        assert_eq!(ft.dst_port, 8443);
        assert!(TcpHeader::verify_segment(
            addr("192.168.1.10"),
            addr("10.0.0.99"),
            &natted.bytes()[34..]
        ));
    }

    #[test]
    fn rewrite_round_trips() {
        let pkt = udp_pkt();
        let out = rewrite_ipv4_addrs(&pkt, Some(addr("1.2.3.4")), None).unwrap();
        let back = rewrite_ipv4_addrs(&out, Some(addr("192.168.1.10")), None).unwrap();
        assert_eq!(back.bytes(), pkt.bytes());
    }

    #[test]
    fn rewrite_endpoints_single_pass_matches_two_pass() {
        for pkt in [udp_pkt(), tcp_pkt()] {
            let frame = crate::meta::Frame::ingress(pkt.clone()).unwrap();
            let one = rewrite_endpoints(&frame, Some((addr("203.0.113.7"), 61_000)), None).unwrap();
            let two = rewrite_ipv4_addrs(&pkt, Some(addr("203.0.113.7")), None).unwrap();
            let two = rewrite_ports(&two, Some(61_000), None).unwrap();
            assert_eq!(one.bytes(), two.bytes());
            // The incrementally maintained descriptor equals a fresh one.
            assert_eq!(
                one.meta,
                crate::meta::FrameMeta::derive(one.bytes()).unwrap()
            );
        }
    }

    #[test]
    fn rewrite_endpoints_dst_and_roundtrip() {
        let frame = crate::meta::Frame::ingress(udp_pkt()).unwrap();
        let out = rewrite_endpoints(&frame, None, Some((addr("10.0.0.99"), 8443))).unwrap();
        let t = out.meta.tuple.unwrap();
        assert_eq!(t.dst_ip, addr("10.0.0.99"));
        assert_eq!(t.dst_port, 8443);
        let back = rewrite_endpoints(&out, None, Some((addr("8.8.8.8"), 53))).unwrap();
        assert_eq!(back.bytes(), frame.bytes());
        assert_eq!(back.meta, frame.meta);
    }

    #[test]
    fn rewrite_endpoints_owned_is_in_place_for_sole_owner() {
        let arena = crate::arena::BufArena::new(2, 2048);
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("192.168.1.10"), addr("8.8.8.8"))
            .udp(5353, 53, b"query-payload")
            .build_in(&arena);
        let frame = crate::meta::Frame::ingress(pkt).unwrap();
        let before_ptr = frame.bytes().as_ptr();
        let reference =
            rewrite_endpoints(&frame, Some((addr("203.0.113.7"), 61_000)), None).unwrap();
        let out =
            rewrite_endpoints_owned(frame, Some((addr("203.0.113.7"), 61_000)), None).unwrap();
        // Same slot, no copy — and byte-identical to the copying path.
        assert_eq!(out.bytes().as_ptr(), before_ptr, "rewrite must be in place");
        assert!(out.pkt.arena_frame().is_some());
        assert_eq!(out.bytes(), reference.bytes());
        assert_eq!(out.meta, reference.meta);
        assert_eq!(out.pkt.meta(), Some(&out.meta));
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn rewrite_endpoints_owned_falls_back_when_shared() {
        let frame = crate::meta::Frame::ingress(udp_pkt()).unwrap();
        let tap = frame.pkt.clone(); // a second handle: buffer is shared
        let out = rewrite_endpoints_owned(frame.clone(), Some((addr("1.2.3.4"), 9)), None).unwrap();
        let t = out.meta.tuple.unwrap();
        assert_eq!((t.src_ip, t.src_port), (addr("1.2.3.4"), 9));
        // The shared original is untouched.
        assert_eq!(tap.bytes(), frame.bytes());
        assert_ne!(out.bytes().as_ptr(), frame.bytes().as_ptr());
    }

    #[test]
    fn rewrite_endpoints_rejects_non_l4() {
        let arp = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        let frame = crate::meta::Frame::ingress(arp).unwrap();
        assert!(rewrite_endpoints(&frame, Some((addr("1.2.3.4"), 1)), None).is_err());
    }

    #[test]
    fn zero_udp_checksum_left_alone() {
        // Hand-build a UDP frame with checksum 0 (sender opted out).
        let pkt = udp_pkt();
        let mut bytes = pkt.bytes().to_vec();
        bytes[34 + 6] = 0;
        bytes[34 + 7] = 0;
        let pkt = Packet::from_bytes(bytes);
        let natted = rewrite_ports(&pkt, Some(1), None).unwrap();
        assert_eq!(&natted.bytes()[34 + 6..34 + 8], &[0, 0]);
    }

    #[test]
    fn arp_frames_are_rejected() {
        let arp = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        assert!(rewrite_ports(&arp, Some(1), None).is_err());
    }

    #[test]
    fn icmp_port_rewrite_rejected() {
        // Build an IPv4 frame with a protocol we can't fix checksums for.
        let pkt = udp_pkt();
        let mut bytes = pkt.bytes().to_vec();
        bytes[IP_OFF + 9] = 1; // ICMP
                               // Fix the IP checksum for the protocol change so layout() parses.
        let mut hdr = [0u8; 20];
        hdr.copy_from_slice(&bytes[IP_OFF..IP_OFF + 20]);
        hdr[10] = 0;
        hdr[11] = 0;
        let sum = crate::checksum::internet_checksum(&hdr);
        bytes[IP_OFF + 10..IP_OFF + 12].copy_from_slice(&sum.to_be_bytes());
        let pkt = Packet::from_bytes(bytes);
        assert!(rewrite_ports(&pkt, Some(1), None).is_err());
    }
}
