//! Flow identification: five-tuples and Toeplitz RSS hashing.
//!
//! The paper's debugging scenario uses RSS custom hashing to partition a
//! NIC into per-user "virtual interfaces"; the SmartNIC flow table keys
//! exact-match connections by [`FiveTuple`]. The Toeplitz implementation
//! follows the Microsoft RSS specification and is validated against its
//! published test vectors.

use std::fmt;
use std::net::Ipv4Addr;

use crate::ipv4::IpProto;
use crate::packet::{Parsed, Payload};

/// A connection five-tuple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: IpProto,
}

impl FiveTuple {
    /// Builds a UDP five-tuple.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IpProto::UDP,
        }
    }

    /// Builds a TCP five-tuple.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IpProto::TCP,
        }
    }

    /// Extracts the five-tuple from a parsed frame, if it is TCP or UDP.
    pub fn from_parsed(p: &Parsed) -> Option<FiveTuple> {
        match &p.payload {
            Payload::Tcp { ip, tcp, .. } => Some(FiveTuple {
                src_ip: ip.src,
                dst_ip: ip.dst,
                src_port: tcp.src_port,
                dst_port: tcp.dst_port,
                proto: IpProto::TCP,
            }),
            Payload::Udp { ip, udp, .. } => Some(FiveTuple {
                src_ip: ip.src,
                dst_ip: ip.dst,
                src_port: udp.src_port,
                dst_port: udp.dst_port,
                proto: IpProto::UDP,
            }),
            _ => None,
        }
    }

    /// Returns the tuple with source and destination swapped (the
    /// direction a reply takes).
    #[cfg(test)]
    pub(crate) fn reversed(self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} > {}:{}",
            self.proto, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// The default RSS secret key from the Microsoft RSS specification; also
/// the key used by most NIC drivers' verification suites.
pub(crate) const MS_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Bytes of Toeplitz input for the TCP/UDP 4-tuple (two addresses, two
/// ports).
const INPUT_LEN: usize = 12;

/// A Toeplitz hasher for receive-side scaling.
///
/// Toeplitz is linear over GF(2), so the hash of an input is the XOR of
/// the hashes of its bytes taken one at a time (each at its own
/// position). `new` precomputes those per-byte hashes — one 256-entry
/// table per input byte, ~12 KB — and hashing is twelve loads and XORs.
#[derive(Clone)]
pub struct RssHasher {
    /// `tables[i][v]`: the hash of an input that is `v` at byte `i` and
    /// zero elsewhere.
    tables: [[u32; 256]; INPUT_LEN],
    queues: u32,
}

impl fmt::Debug for RssHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RssHasher")
            .field("queues", &self.queues)
            .finish_non_exhaustive()
    }
}

impl RssHasher {
    /// Creates a hasher with the given key, steering across `queues`
    /// queues.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub(crate) fn new(key: [u8; 40], queues: u32) -> RssHasher {
        assert!(queues > 0, "need at least one RSS queue");
        // `windows[p]`: the 32 key bits starting at bit `p` — what input
        // bit `p`, when set, contributes to the hash.
        let windows: [u32; INPUT_LEN * 8] = std::array::from_fn(|p| {
            let mut wide = [0u8; 8];
            wide.copy_from_slice(&key[p / 8..p / 8 + 8]);
            ((u64::from_be_bytes(wide) << (p % 8)) >> 32) as u32
        });
        let mut tables = [[0u32; 256]; INPUT_LEN];
        for (i, table) in tables.iter_mut().enumerate() {
            for v in 1..256usize {
                // `v` is `rest` plus its lowest set bit; bit 7 is the
                // byte's first bit on the wire.
                let rest = v & (v - 1);
                let bit = v.trailing_zeros() as usize;
                table[v] = table[rest] ^ windows[i * 8 + 7 - bit];
            }
        }
        RssHasher { tables, queues }
    }

    /// Creates a hasher with the Microsoft verification key.
    pub fn with_default_key(queues: u32) -> RssHasher {
        RssHasher::new(MS_RSS_KEY, queues)
    }

    fn toeplitz(&self, input: &[u8; INPUT_LEN]) -> u32 {
        self.tables
            .iter()
            .zip(input)
            .fold(0, |h, (table, &b)| h ^ table[usize::from(b)])
    }

    fn hash_input(ft: &FiveTuple) -> [u8; INPUT_LEN] {
        let mut input = [0u8; INPUT_LEN];
        input[0..4].copy_from_slice(&ft.src_ip.octets());
        input[4..8].copy_from_slice(&ft.dst_ip.octets());
        input[8..10].copy_from_slice(&ft.src_port.to_be_bytes());
        input[10..12].copy_from_slice(&ft.dst_port.to_be_bytes());
        input
    }

    /// Computes the 32-bit RSS hash of a five-tuple (src ip, dst ip,
    /// src port, dst port), the standard TCP/UDP 4-tuple input.
    pub(crate) fn hash(&self, ft: &FiveTuple) -> u32 {
        self.toeplitz(&Self::hash_input(ft))
    }

    /// Incrementally updates a hash after an endpoint rewrite.
    ///
    /// Toeplitz is linear over GF(2) — `H(a ^ b) == H(a) ^ H(b)` — so the
    /// rewritten tuple's hash is the old hash xored with the hash of the
    /// changed bits. NAT uses this to keep descriptors current without
    /// re-hashing the full input.
    pub(crate) fn hash_delta(&self, old_hash: u32, old: &FiveTuple, new: &FiveTuple) -> u32 {
        let a = Self::hash_input(old);
        let b = Self::hash_input(new);
        let mut delta = [0u8; INPUT_LEN];
        for (d, (x, y)) in delta.iter_mut().zip(a.iter().zip(b.iter())) {
            *d = x ^ y;
        }
        old_hash ^ self.toeplitz(&delta)
    }

    /// Maps a five-tuple to an RSS queue index.
    pub fn queue_for(&self, ft: &FiveTuple) -> u32 {
        self.hash(ft) % self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    // Test vectors from the Microsoft RSS "Verifying the RSS Hash
    // Calculation" documentation (IPv4 with ports).
    #[test]
    fn microsoft_test_vectors() {
        let h = RssHasher::with_default_key(1);
        let cases = [
            (
                ("66.9.149.187", 2794),
                ("161.142.100.80", 1766),
                0x51cc_c178u32,
            ),
            (("199.92.111.2", 14230), ("65.69.140.83", 4739), 0xc626_b0ea),
            (
                ("24.19.198.95", 12898),
                ("12.22.207.184", 38024),
                0x5c2b_394a,
            ),
            (
                ("38.27.205.30", 48228),
                ("209.142.163.6", 2217),
                0xafc7_327f,
            ),
            (
                ("153.39.163.191", 44251),
                ("202.188.127.2", 1303),
                0x10e8_28a2,
            ),
        ];
        for ((src, sp), (dst, dp), expect) in cases {
            let ft = FiveTuple::tcp(addr(src), sp, addr(dst), dp);
            assert_eq!(h.hash(&ft), expect, "vector {src}:{sp} > {dst}:{dp}");
        }
    }

    /// The Microsoft specification's algorithm as written: a 32-bit
    /// window slides over the key one bit per input bit, and every set
    /// input bit XORs the window in. The oracle the tables answer to.
    fn toeplitz_bit_serial(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut result = 0u32;
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        let mut next_key_bit = 32; // absolute bit index into the key
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                let kb = if next_key_bit < key.len() * 8 {
                    (key[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1
                } else {
                    0
                };
                window = (window << 1) | u32::from(kb);
                next_key_bit += 1;
            }
        }
        result
    }

    fn tuple_from(r: u64, s: u64) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::from((r >> 32) as u32),
            r as u16,
            Ipv4Addr::from((s >> 32) as u32),
            s as u16,
        )
    }

    #[test]
    fn tables_match_bit_serial_oracle_on_random_keys() {
        let mut rng = sim::DetRng::seed_from_u64(0x7065_6c69_747a);
        for round in 0..64 {
            let mut key = MS_RSS_KEY;
            if round > 0 {
                for chunk in key.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
                }
            }
            let h = RssHasher::new(key, 1);
            for _ in 0..256 {
                let (a, b) = (
                    tuple_from(rng.next_u64(), rng.next_u64()),
                    tuple_from(rng.next_u64(), rng.next_u64()),
                );
                let (ia, ib) = (RssHasher::hash_input(&a), RssHasher::hash_input(&b));
                assert_eq!(h.hash(&a), toeplitz_bit_serial(&key, &ia), "{a}");
                assert_eq!(h.hash_delta(h.hash(&a), &a, &b), h.hash(&b), "{a} -> {b}");
                let mut xor = [0u8; INPUT_LEN];
                for (x, (p, q)) in xor.iter_mut().zip(ia.iter().zip(&ib)) {
                    *x = p ^ q;
                }
                assert_eq!(h.toeplitz(&xor), h.hash(&a) ^ h.hash(&b), "linearity");
            }
            // Each input bit alone: the window the oracle slides to it.
            for bit in 0..INPUT_LEN * 8 {
                let mut input = [0u8; INPUT_LEN];
                input[bit / 8] = 0x80 >> (bit % 8);
                assert_eq!(
                    h.toeplitz(&input),
                    toeplitz_bit_serial(&key, &input),
                    "bit {bit}"
                );
            }
        }
    }

    #[test]
    fn hash_delta_equals_fresh_hash() {
        let h = RssHasher::with_default_key(1);
        let old = FiveTuple::tcp(addr("192.168.1.10"), 40_000, addr("8.8.8.8"), 443);
        let cases = [
            FiveTuple::tcp(addr("203.0.113.1"), 32_768, addr("8.8.8.8"), 443),
            FiveTuple::tcp(addr("192.168.1.10"), 40_000, addr("10.0.0.9"), 8443),
            old.reversed(),
            old, // no-op rewrite
        ];
        for new in cases {
            assert_eq!(
                h.hash_delta(h.hash(&old), &old, &new),
                h.hash(&new),
                "{new}"
            );
        }
    }

    #[test]
    fn queue_mapping_is_stable_and_bounded() {
        let h = RssHasher::with_default_key(8);
        let ft = FiveTuple::udp(addr("10.0.0.1"), 111, addr("10.0.0.2"), 222);
        let q = h.queue_for(&ft);
        assert!(q < 8);
        assert_eq!(q, h.queue_for(&ft));
    }

    #[test]
    fn different_flows_spread_across_queues() {
        let h = RssHasher::with_default_key(4);
        let mut seen = [false; 4];
        for port in 0..200 {
            let ft = FiveTuple::udp(addr("10.0.0.1"), 1000 + port, addr("10.0.0.2"), 80);
            seen[h.queue_for(&ft) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "queues hit: {seen:?}");
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let ft = FiveTuple::tcp(addr("1.1.1.1"), 10, addr("2.2.2.2"), 20);
        let r = ft.reversed();
        assert_eq!(r.src_ip, addr("2.2.2.2"));
        assert_eq!(r.src_port, 20);
        assert_eq!(r.dst_port, 10);
        assert_eq!(r.reversed(), ft);
    }

    #[test]
    fn from_parsed_extracts_tuple() {
        use crate::builder::PacketBuilder;
        use crate::ether::Mac;
        let pkt = PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr("10.0.0.1"), addr("10.0.0.2"))
            .udp(5432, 9000, b"q")
            .build();
        let ft = FiveTuple::from_parsed(&pkt.parse().unwrap()).unwrap();
        assert_eq!(
            ft,
            FiveTuple::udp(addr("10.0.0.1"), 5432, addr("10.0.0.2"), 9000)
        );
    }

    #[test]
    fn arp_has_no_tuple() {
        use crate::builder::PacketBuilder;
        use crate::ether::Mac;
        let pkt = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        assert!(FiveTuple::from_parsed(&pkt.parse().unwrap()).is_none());
    }

    #[test]
    fn display() {
        let ft = FiveTuple::tcp(addr("10.0.0.1"), 22, addr("10.0.0.2"), 5000);
        assert_eq!(ft.to_string(), "tcp 10.0.0.1:22 > 10.0.0.2:5000");
    }

    #[test]
    #[should_panic(expected = "at least one RSS queue")]
    fn zero_queues_rejected() {
        let _ = RssHasher::with_default_key(0);
    }
}
