//! Parse-once frame descriptors.
//!
//! The paper's §1 argument is that every avoidable touch of a packet costs
//! dataplane performance. Re-parsing the same wire bytes at every pipeline
//! stage is exactly such a touch, so — like an skb or mbuf — each frame
//! carries a [`FrameMeta`] descriptor computed exactly once: at ingress
//! (the NIC parser stage) or at build time (`crate::builder`, whose
//! output is checksum-correct by construction). Every later stage (flow
//! lookup, filters, NAT, classification, sniffing, the slow-path stack)
//! reads the descriptor instead of the bytes.
//!
//! Mutation discipline: only NAT-style header rewrites may change a
//! descriptor, and they do so incrementally — offsets are stable, the
//! tuple is patched in place, and the flow hash is updated via the
//! Toeplitz linearity identity (see `crate::flow::RssHasher::hash_delta`)
//! rather than recomputed from the bytes. The audit invariant, enforced by
//! property tests, is that a descriptor carried through any pipeline stage
//! equals one freshly derived from the stage's output bytes.

use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::OnceLock;

use crate::arp::ArpPacket;
use crate::ether::EthernetHeader;
use crate::flow::{FiveTuple, RssHasher};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::packet::{Packet, Parsed, Payload};
use crate::tcp::TcpFlags;
use crate::Result;

/// The packet classes the dataplane distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum PacketClass {
    /// An ARP frame (slow path, no five-tuple).
    Arp,
    /// An IPv4/TCP segment.
    Tcp,
    /// An IPv4/UDP datagram.
    Udp,
    /// IPv4 with a transport protocol this stack does not parse.
    OtherIp,
}

/// The hasher used for descriptor flow hashes: the Microsoft verification
/// key, shared by every layer so hashes are comparable across the stack.
/// (The queue count only affects queue steering, never the hash value.)
fn shared_hasher() -> &'static RssHasher {
    static HASHER: OnceLock<RssHasher> = OnceLock::new();
    HASHER.get_or_init(|| RssHasher::with_default_key(1))
}

/// Computes the canonical RSS flow hash of a five-tuple (Microsoft
/// default key — the same value every [`FrameMeta`] carries).
pub fn flow_hash_of(tuple: &FiveTuple) -> u32 {
    shared_hasher().hash(tuple)
}

#[cfg(debug_assertions)]
thread_local! {
    static DERIVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has run [`FrameMeta::derive`] — the one
/// place wire bytes are parsed into a descriptor. Debug builds only:
/// "each frame is parsed once, at the NIC" is a count tests assert, and
/// release builds carry neither the counter nor the bump.
#[cfg(debug_assertions)]
pub fn derive_count() -> u64 {
    DERIVES.with(std::cell::Cell::get)
}

/// A parse-once frame descriptor carried alongside the wire bytes.
///
/// `Copy` on purpose: the descriptor is 64-ish bytes of plain data, cheap
/// to hand through every pipeline stage without allocation.
///
/// Equality is *structural*: [`FrameMeta::frame_id`] — the telemetry
/// lifecycle tag, assigned at dataplane admission — is excluded, so the
/// parse-once audit invariant ("a carried descriptor equals one freshly
/// derived from the bytes") still holds after a frame is tagged.
#[derive(Clone, Copy, Debug)]
pub struct FrameMeta {
    /// Dataplane-unique trace id (0 = not yet admitted/tagged). Assigned
    /// by the first telemetry-aware stage the frame crosses and carried
    /// unchanged through rewrites; excluded from equality.
    pub frame_id: u64,
    /// Packet class (dispatch key for every stage).
    pub(crate) class: PacketClass,
    /// Total frame length in bytes.
    pub(crate) frame_len: usize,
    /// Raw EtherType value.
    pub ethertype: u16,
    /// Offset of the L3 header (always [`EthernetHeader::LEN`] here, but
    /// carried so stages never assume).
    pub(crate) l3_off: usize,
    /// Offset of the L4 header for TCP/UDP frames.
    pub(crate) l4_off: Option<usize>,
    /// Offset of the application payload (for ARP, the ARP body).
    pub(crate) payload_off: usize,
    /// Length of the application payload in bytes.
    pub(crate) payload_len: usize,
    /// The connection five-tuple for TCP/UDP frames.
    pub tuple: Option<FiveTuple>,
    /// Toeplitz RSS hash of the tuple (0 when there is no tuple).
    pub flow_hash: u32,
    /// The IPv4 DSCP/ECN byte (0 for ARP).
    pub dscp_ecn: u8,
    /// L3 checksum verified (IPv4 header sum; trivially true for ARP).
    pub(crate) l3_checksum_ok: bool,
    /// L4 checksum verified (TCP/UDP pseudo-header sum; trivially true
    /// for frames without one).
    pub l4_checksum_ok: bool,
    /// RSS queue the NIC steered this frame to (0 until the frame crosses
    /// the RSS stage — parsing never assigns a queue, the indirection
    /// table does). Like [`FrameMeta::frame_id`], this is a dataplane
    /// tag, not parsed content, so it is excluded from equality.
    pub queue: u16,
}

impl PartialEq for FrameMeta {
    fn eq(&self, other: &FrameMeta) -> bool {
        // Everything except `frame_id` and `queue` (see the struct docs).
        self.class == other.class
            && self.frame_len == other.frame_len
            && self.ethertype == other.ethertype
            && self.l3_off == other.l3_off
            && self.l4_off == other.l4_off
            && self.payload_off == other.payload_off
            && self.payload_len == other.payload_len
            && self.tuple == other.tuple
            && self.flow_hash == other.flow_hash
            && self.dscp_ecn == other.dscp_ecn
            && self.l3_checksum_ok == other.l3_checksum_ok
            && self.l4_checksum_ok == other.l4_checksum_ok
    }
}

impl Eq for FrameMeta {}

impl FrameMeta {
    /// Derives a descriptor from wire bytes: the single ingress parse.
    ///
    /// Structural failures (truncation, bad IPv4 header checksum,
    /// unsupported EtherType) are errors; a bad *transport* checksum is
    /// not — the frame parses, so the descriptor is returned with
    /// [`FrameMeta::l4_checksum_ok`] cleared and the caller decides
    /// (the NIC counts it separately from malformed frames).
    pub fn derive(frame: &[u8]) -> Result<FrameMeta> {
        #[cfg(debug_assertions)]
        DERIVES.with(|n| n.set(n.get() + 1));
        let parsed = Parsed::from_frame(frame)?;
        Ok(FrameMeta::from_parsed(&parsed, frame))
    }

    /// Builds a descriptor from an already-parsed view of `frame`.
    pub(crate) fn from_parsed(parsed: &Parsed, frame: &[u8]) -> FrameMeta {
        let l3_off = EthernetHeader::LEN;
        let l4_ok = parsed.l4_checksum_ok(frame);
        let (class, l4_off, payload, dscp_ecn) = match &parsed.payload {
            Payload::Arp(_) => (PacketClass::Arp, None, l3_off..l3_off + ArpPacket::LEN, 0),
            Payload::Tcp { ip, payload, .. } => (
                PacketClass::Tcp,
                Some(l3_off + Ipv4Header::LEN),
                payload.clone(),
                ip.dscp_ecn,
            ),
            Payload::Udp { ip, payload, .. } => (
                PacketClass::Udp,
                Some(l3_off + Ipv4Header::LEN),
                payload.clone(),
                ip.dscp_ecn,
            ),
            Payload::OtherIp { ip } => (
                PacketClass::OtherIp,
                None,
                l3_off + Ipv4Header::LEN..l3_off + ip.total_len as usize,
                ip.dscp_ecn,
            ),
        };
        let tuple = FiveTuple::from_parsed(parsed);
        FrameMeta {
            frame_id: 0,
            class,
            frame_len: frame.len(),
            ethertype: parsed.ether.ethertype.0,
            l3_off,
            l4_off,
            payload_off: payload.start,
            payload_len: payload.len(),
            tuple,
            flow_hash: tuple.map(|t| flow_hash_of(&t)).unwrap_or(0),
            dscp_ecn,
            l3_checksum_ok: true,
            l4_checksum_ok: l4_ok,
            queue: 0,
        }
    }

    /// Returns the attached descriptor of `packet`, deriving one if the
    /// packet does not carry meta yet (the ingress fallback).
    pub fn of(packet: &Packet) -> Result<FrameMeta> {
        match packet.meta() {
            Some(m) => Ok(*m),
            None => FrameMeta::derive(packet.bytes()),
        }
    }

    /// Returns `true` for ARP frames.
    pub fn is_arp(&self) -> bool {
        self.class == PacketClass::Arp
    }

    /// Byte range of the application payload within the frame.
    pub fn payload(&self) -> Range<usize> {
        self.payload_off..self.payload_off + self.payload_len
    }

    /// Applies a NAT endpoint rewrite to the descriptor incrementally:
    /// the tuple is patched and the flow hash updated via Toeplitz
    /// linearity — no byte access, no re-hash of the full input.
    ///
    /// Offsets, class, lengths and checksum flags are untouched: RFC 1624
    /// fixups keep the sums valid, and NAT never moves headers.
    pub(crate) fn rewrite_endpoints(
        &mut self,
        new_src: Option<(Ipv4Addr, u16)>,
        new_dst: Option<(Ipv4Addr, u16)>,
    ) {
        let Some(old) = self.tuple else { return };
        let mut t = old;
        if let Some((ip, port)) = new_src {
            t.src_ip = ip;
            t.src_port = port;
        }
        if let Some((ip, port)) = new_dst {
            t.dst_ip = ip;
            t.dst_port = port;
        }
        self.flow_hash = shared_hasher().hash_delta(self.flow_hash, &old, &t);
        self.tuple = Some(t);
    }

    /// Renders the same tcpdump-style one-liner as `Parsed`'s `Display`,
    /// reading only the few bytes the descriptor points at (TCP flags,
    /// ARP body, foreign IP protocol) instead of re-parsing the frame.
    pub fn summarize(&self, bytes: &[u8]) -> String {
        match (self.class, self.tuple) {
            (PacketClass::Arp, _) => match ArpPacket::parse(&bytes[self.l3_off..]) {
                Ok(arp) => arp.to_string(),
                Err(e) => format!("unparsed: {e}"),
            },
            (PacketClass::Tcp, Some(t)) => {
                let flags_off = self.l4_off.unwrap_or(self.l3_off + Ipv4Header::LEN) + 13;
                let flags = TcpFlags(bytes.get(flags_off).copied().unwrap_or(0));
                format!(
                    "{}:{} > {}:{} tcp [{}] len {}",
                    t.src_ip, t.src_port, t.dst_ip, t.dst_port, flags, self.payload_len
                )
            }
            (PacketClass::Udp, Some(t)) => format!(
                "{}:{} > {}:{} udp len {}",
                t.src_ip, t.src_port, t.dst_ip, t.dst_port, self.payload_len
            ),
            _ => {
                let ip_at = |off: usize| {
                    Ipv4Addr::new(bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3])
                };
                let src = ip_at(self.l3_off + 12);
                let dst = ip_at(self.l3_off + 16);
                let proto = IpProto(bytes[self.l3_off + 9]);
                format!("{src} > {dst} {proto}")
            }
        }
    }
}

/// A packet buffer paired with its (guaranteed-present) descriptor: the
/// unit the dataplane hands from stage to stage after ingress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The wire bytes (with the descriptor attached for `Debug`/reuse).
    pub pkt: Packet,
    /// The parse-once descriptor.
    pub meta: FrameMeta,
}

impl Frame {
    /// Admits a packet into the dataplane: reuses an attached descriptor
    /// (build-time meta) or derives one — the only parse on the path.
    pub fn ingress(pkt: Packet) -> Result<Frame> {
        let meta = FrameMeta::of(&pkt)?;
        Ok(Frame::from_parts(pkt, meta))
    }

    /// Pairs a packet with a descriptor already computed for its bytes.
    pub(crate) fn from_parts(pkt: Packet, meta: FrameMeta) -> Frame {
        debug_assert_eq!(
            meta.frame_len,
            pkt.len(),
            "descriptor/frame length mismatch"
        );
        Frame {
            pkt: pkt.with_meta(meta),
            meta,
        }
    }

    /// Returns the wire bytes.
    pub fn bytes(&self) -> &[u8] {
        self.pkt.bytes()
    }

    /// Returns the frame length in bytes.
    pub fn len(&self) -> usize {
        self.pkt.len()
    }

    /// Returns `true` for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.pkt.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ether::Mac;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn udp_pkt() -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(5432, 9000, b"payload")
            .build()
    }

    /// What `FrameMeta::derive` costs by frame length and by how many
    /// distinct frames it cycles through — the two things that separate
    /// normanbench's `pkt.parse` row on `rx_scale` (256 B, 2,112 frames)
    /// from `rx_fast` (64 B, 64 frames). Prints; asserts nothing. Run it
    /// with `cargo test --release -p pkt -- --ignored --nocapture derive_cost`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn derive_cost_by_frame_length_and_pool_size() {
        use std::hint::black_box;
        use std::time::Instant;
        for (frame_len, pool_len) in [(64, 64), (256, 64), (64, 2112), (256, 2112), (1500, 64)] {
            let pool: Vec<Packet> = (0..pool_len)
                .map(|i| {
                    PacketBuilder::new()
                        .ether(Mac::local(1), Mac::local(2))
                        .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
                        .udp(5432, 9000 + i as u16, &vec![i as u8; frame_len - 42])
                        .build()
                })
                .collect();
            let rounds = 2_000_000;
            let mut best = f64::MAX;
            for _ in 0..5 {
                let start = Instant::now();
                for i in 0..rounds {
                    // 1,021 is prime and coprime to both pool sizes: every
                    // frame, in an order no prefetcher follows.
                    let frame = &pool[i * 1021 % pool_len];
                    black_box(FrameMeta::derive(black_box(frame.bytes())).unwrap());
                }
                best = best.min(start.elapsed().as_nanos() as f64 / rounds as f64);
            }
            println!("derive: {frame_len:>5} B x {pool_len:>5} frames  {best:6.1} ns");
        }
    }

    #[test]
    fn derive_matches_parse() {
        let pkt = udp_pkt();
        let meta = FrameMeta::derive(pkt.bytes()).unwrap();
        let parsed = pkt.parse().unwrap();
        assert_eq!(meta.class, PacketClass::Udp);
        assert_eq!(meta.tuple, FiveTuple::from_parsed(&parsed));
        assert_eq!(meta.l4_off, Some(34));
        assert_eq!(meta.payload(), 42..42 + 7);
        assert!(meta.l4_checksum_ok);
        assert_eq!(meta.flow_hash, flow_hash_of(&meta.tuple.unwrap()));
    }

    #[test]
    fn builder_attaches_meta() {
        let pkt = udp_pkt();
        let attached = *pkt.meta().expect("builder attaches meta");
        assert_eq!(attached, FrameMeta::derive(pkt.bytes()).unwrap());
    }

    #[test]
    fn bad_l4_checksum_is_flagged_not_error() {
        let pkt = udp_pkt();
        let mut bytes = pkt.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt payload: UDP sum breaks, IP sum fine
        let meta = FrameMeta::derive(&bytes).unwrap();
        assert!(!meta.l4_checksum_ok);
        assert!(meta.l3_checksum_ok);
    }

    #[test]
    fn truncated_frame_errors() {
        assert!(FrameMeta::derive(&[0u8; 6]).is_err());
    }

    #[test]
    fn arp_meta() {
        let pkt = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        let meta = FrameMeta::of(&pkt).unwrap();
        assert!(meta.is_arp());
        assert_eq!(meta.tuple, None);
        assert_eq!(meta.flow_hash, 0);
        assert_eq!(meta.payload(), 14..14 + ArpPacket::LEN);
    }

    #[test]
    fn rewrite_endpoints_updates_tuple_and_hash() {
        let pkt = udp_pkt();
        let mut meta = FrameMeta::of(&pkt).unwrap();
        meta.rewrite_endpoints(Some((addr("203.0.113.1"), 40_000)), None);
        let t = meta.tuple.unwrap();
        assert_eq!(t.src_ip, addr("203.0.113.1"));
        assert_eq!(t.src_port, 40_000);
        assert_eq!(t.dst_ip, addr("10.0.0.2"));
        // The incrementally updated hash equals a from-scratch hash.
        assert_eq!(meta.flow_hash, flow_hash_of(&t));
    }

    #[test]
    fn summarize_matches_parsed_display() {
        let udp = udp_pkt();
        let tcp = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .tcp(22, 40_000, TcpFlags::SYN, b"xy")
            .build();
        let arp = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        for pkt in [udp, tcp, arp] {
            let meta = FrameMeta::of(&pkt).unwrap();
            assert_eq!(
                meta.summarize(pkt.bytes()),
                pkt.parse().unwrap().to_string()
            );
        }
    }

    #[test]
    fn ingress_roundtrip() {
        let frame = Frame::ingress(udp_pkt()).unwrap();
        assert_eq!(frame.pkt.meta(), Some(&frame.meta));
        assert_eq!(frame.len(), frame.meta.frame_len);
    }
}
