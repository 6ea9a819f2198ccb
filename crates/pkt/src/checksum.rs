//! The Internet checksum (RFC 1071) and TCP/UDP pseudo-header sums.

use std::net::Ipv4Addr;

/// The two 32-bit halves of an eight-byte word, added.
fn halves(word: &[u8]) -> u64 {
    let w = u64::from_ne_bytes(word.try_into().expect("an eight-byte chunk"));
    (w >> 32) + (w & 0xFFFF_FFFF)
}

/// Adds `data`, read as big-endian 16-bit words with an odd trailing
/// byte padded with zero, to `acc` in ones'-complement arithmetic.
///
/// 2^16 ≡ 1 (mod 0xFFFF), so a word of any width is congruent to the sum
/// of its 16-bit parts: the halves of each `u64` go into a 64-bit lane
/// that cannot overflow below 2^34 bytes of input. Four lanes take 32
/// bytes per step and do not wait on each other (RFC 1071 §2(C)). The
/// words are read in native byte order, which only swaps the bytes of
/// the folded sum (§2(B)). The fold keeps the two facts [`finish`]
/// depends on: the residue mod 0xFFFF, and whether the sum is zero.
fn sum_words(acc: u32, data: &[u8]) -> u32 {
    let mut lanes = [0u64; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane += halves(word);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    let mut sum = lanes.iter().sum::<u64>() + (&mut words).map(halves).sum::<u64>();
    let mut pairs = words.remainder().chunks_exact(2);
    for c in &mut pairs {
        sum += u64::from(u16::from_ne_bytes([c[0], c[1]]));
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    acc + u32::from(u16::from_be_bytes(fold(sum).to_ne_bytes()))
}

/// Folds a sum to 16 bits with end-around carries, 64 → 32 → 16: each
/// step keeps the residue mod 0xFFFF and maps nonzero to nonzero.
fn fold(sum: u64) -> u16 {
    let (low, carry) = (sum as u32).overflowing_add((sum >> 32) as u32);
    let sum = low + u32::from(carry);
    let sum = (sum >> 16) + (sum & 0xFFFF);
    ((sum >> 16) + (sum & 0xFFFF)) as u16
}

/// Folds the carries and complements, producing the final checksum.
fn finish(mut acc: u32) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Computes the Internet checksum of `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    finish(sum_words(0, data))
}

/// Verifies a buffer whose checksum field is included in `data`.
///
/// A correct buffer sums (with carries folded) to `0xFFFF`, i.e. the
/// finished checksum is zero.
pub fn verify(data: &[u8]) -> bool {
    finish(sum_words(0, data)) == 0
}

/// Computes the TCP/UDP checksum over the IPv4 pseudo-header plus the
/// transport `segment` (header + payload) as if its two-byte checksum
/// field at the even offset `field` were zero, without copying: the
/// bytes on either side of it both start at an even offset, so their
/// words line up with the segment's. Panics if `segment` is shorter
/// than `field + 2`.
pub(crate) fn pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    segment: &[u8],
    field: usize,
) -> u16 {
    debug_assert!(field.is_multiple_of(2), "odd checksum offset {field}");
    let (src, dst) = (u32::from(src), u32::from(dst));
    let mut acc = (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF);
    acc += u32::from(proto);
    acc += segment.len() as u32;
    acc = sum_words(acc, &segment[..field]);
    acc = sum_words(acc, &segment[field + 2..]);
    let sum = finish(acc);
    // RFC 768: a computed UDP checksum of zero is transmitted as all ones.
    if sum == 0 {
        0xFFFF
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpHeader;
    use crate::{IpProto, UdpHeader};

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    /// RFC 1071's definition, one 16-bit word per step.
    fn sum_words_reference(mut acc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            acc += u32::from(u16::from_be_bytes([*last, 0]));
        }
        acc
    }

    #[test]
    fn wide_sum_matches_word_reference_at_every_length() {
        let mut rng = sim::DetRng::seed_from_u64(1071);
        let mut data = vec![0u8; 1514];
        for chunk in data.chunks_mut(8) {
            let word = rng.next_u64().to_be_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        // All-ones words are the carry-heavy case; zeros the one where
        // "is the sum zero" matters.
        let ones = vec![0xFFu8; 1514];
        let zeros = vec![0u8; 1514];
        for len in 0..=1514 {
            for buf in [&data, &ones, &zeros] {
                for acc in [0u32, 17 + 1514, 0xFFFF, 0x0003_FFFC] {
                    assert_eq!(
                        finish(sum_words(acc, &buf[..len])),
                        finish(sum_words_reference(acc, &buf[..len])),
                        "len {len} acc {acc:#x}"
                    );
                }
            }
            let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
            for field in [0, 6, 16].into_iter().filter(|f| f + 2 <= len) {
                assert_eq!(
                    pseudo_header_checksum(src, dst, 17, &data[..len], field),
                    checksum_by_copy(src, dst, 17, &data[..len], field),
                    "len {len} field {field}"
                );
            }
        }
    }

    #[test]
    fn fold_keeps_the_residue_and_whether_the_sum_is_zero() {
        let mut rng = sim::DetRng::seed_from_u64(0xFFFF);
        let edges = [
            0,
            1,
            0xFFFF,
            0x1_0000,
            0xFFFF_FFFF,
            0x1_0000_0000,
            0xFFFF_FFFF_0000_0001,
            u64::MAX - 1,
            u64::MAX,
        ];
        for sum in edges.into_iter().chain((0..10_000).map(|_| rng.next_u64())) {
            let folded = fold(sum);
            assert_eq!(u64::from(folded) % 0xFFFF, sum % 0xFFFF, "{sum:#x}");
            assert_eq!(folded == 0, sum == 0, "{sum:#x}");
        }
    }

    /// The TCP/UDP checksum as the verifiers took it before they summed
    /// in place: copy the segment, zero the field, sum word by word.
    fn checksum_by_copy(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: u8,
        segment: &[u8],
        field: usize,
    ) -> u16 {
        let mut copy = segment.to_vec();
        copy[field..field + 2].fill(0);
        let mut acc = sum_words_reference(0, &src.octets());
        acc = sum_words_reference(acc, &dst.octets());
        acc += u32::from(proto) + copy.len() as u32;
        match finish(sum_words_reference(acc, &copy)) {
            0 => 0xFFFF,
            sum => sum,
        }
    }

    /// A verifier's protocol, header size and checksum field offset.
    struct Verifier {
        proto: IpProto,
        hdr: usize,
        field: usize,
        verify: fn(Ipv4Addr, Ipv4Addr, &[u8]) -> bool,
    }

    const UDP: Verifier = Verifier {
        proto: IpProto::UDP,
        hdr: UdpHeader::LEN,
        field: 6,
        verify: UdpHeader::verify_segment,
    };

    const TCP: Verifier = Verifier {
        proto: IpProto::TCP,
        hdr: TcpHeader::LEN,
        field: 16,
        verify: TcpHeader::verify_segment,
    };

    impl Verifier {
        /// The decision as it was made before: UDP's "0 = not
        /// computed" first, then copy-and-zero.
        fn by_copy(&self, src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
            let sent = u16::from_be_bytes([segment[self.field], segment[self.field + 1]]);
            (self.proto == IpProto::UDP && sent == 0)
                || checksum_by_copy(src, dst, self.proto.0, segment, self.field) == sent
        }

        fn agrees_with_copy(&self, src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
            (self.verify)(src, dst, segment) == self.by_copy(src, dst, segment)
        }

        fn write_sent(&self, segment: &mut [u8], sent: u16) {
            segment[self.field..self.field + 2].copy_from_slice(&sent.to_be_bytes());
        }

        /// Seeded segments of every length from the header to 1514 B:
        /// correct, with one byte corrupted at every offset, and with the
        /// two ones'-complement zeros (0x0000, 0xFFFF) transmitted — also
        /// on a segment whose checksum *is* 0xFFFF (its sum is zero
        /// before RFC 768's 0 → 0xFFFF substitution).
        ///
        /// Every (length, offset) pair is ~1.1M checks: release builds
        /// (`scripts/ci.sh --job release-test`) run them all; debug builds
        /// corrupt every 13th offset, starting at `len % 13`, so each
        /// offset is still hit at a thirteenth of the lengths.
        fn check_against_copy_and_zero(&self) {
            let stride = if cfg!(debug_assertions) { 13 } else { 1 };
            let mut rng = sim::DetRng::seed_from_u64(768 + u64::from(self.proto.0));
            let mut buf = vec![0u8; 1514];
            for len in self.hdr..=1514 {
                let seg = &mut buf[..len];
                seg.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                let src = Ipv4Addr::from(rng.next_u64() as u32);
                let dst = Ipv4Addr::from(rng.next_u64() as u32);
                let sum = checksum_by_copy(src, dst, self.proto.0, seg, self.field);
                self.write_sent(seg, sum);
                assert!((self.verify)(src, dst, seg), "len {len}");
                for i in (len % stride..len).step_by(stride) {
                    let flip = (rng.next_u64() as u8).max(1);
                    seg[i] ^= flip;
                    assert!(self.agrees_with_copy(src, dst, seg), "len {len} byte {i}");
                    seg[i] ^= flip;
                }
                for sent in [0x0000, 0xFFFF] {
                    self.write_sent(seg, sent);
                    assert!(
                        self.agrees_with_copy(src, dst, seg),
                        "len {len} sent {sent:#x}"
                    );
                }
                // The source port absorbs the checksum: the sum becomes zero.
                seg[0..2].fill(0);
                let sum = checksum_by_copy(src, dst, self.proto.0, seg, self.field);
                seg[0..2].copy_from_slice(&sum.to_be_bytes());
                assert_eq!(
                    checksum_by_copy(src, dst, self.proto.0, seg, self.field),
                    0xFFFF
                );
                self.write_sent(seg, 0xFFFF);
                assert!((self.verify)(src, dst, seg), "len {len}");
                for sent in [0x0000, 0xFFFF] {
                    self.write_sent(seg, sent);
                    assert!(
                        self.agrees_with_copy(src, dst, seg),
                        "len {len} sent {sent:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn udp_verifier_matches_copy_and_zero() {
        UDP.check_against_copy_and_zero();
    }

    #[test]
    fn tcp_verifier_matches_copy_and_zero() {
        TCP.check_against_copy_and_zero();
    }

    #[test]
    fn verifiers_reject_every_length_below_the_header() {
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        for v in [UDP, TCP] {
            for fill in [0x00, 0xFF] {
                let buf = vec![fill; v.hdr];
                for len in 0..v.hdr {
                    assert!(
                        !(v.verify)(src, dst, &buf[..len]),
                        "{:?} len {len}",
                        v.proto
                    );
                }
            }
        }
    }

    #[test]
    fn verify_round_trips_at_every_even_length() {
        let mut rng = sim::DetRng::seed_from_u64(1624);
        for len in (4..=1514).step_by(2) {
            let mut data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            data[0..2].copy_from_slice(&[0, 0]); // checksum slot
            let sum = internet_checksum(&data);
            data[0..2].copy_from_slice(&sum.to_be_bytes());
            assert!(verify(&data), "len {len}");
        }
    }

    #[test]
    fn zero_buffer_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xFFFF);
    }

    #[test]
    fn odd_length_is_padded() {
        // [0xAB] pads to 0xAB00.
        assert_eq!(internet_checksum(&[0xAB]), !0xAB00);
    }

    #[test]
    fn verify_accepts_correct_buffer() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x40, 0x00, 0x40, 0x06];
        data.extend_from_slice(&[0, 0]); // checksum slot
        data.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let sum = internet_checksum(&data);
        data[10..12].copy_from_slice(&sum.to_be_bytes());
        assert!(verify(&data));
        // Corrupt one byte: verification fails.
        data[0] ^= 0xFF;
        assert!(!verify(&data));
    }

    #[test]
    fn pseudo_header_includes_addresses() {
        let seg = [0x12u8, 0x34, 0x56, 0x78, 0x00, 0x04, 0x00, 0x00];
        let a = pseudo_header_checksum(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            17,
            &seg,
            6,
        );
        let b = pseudo_header_checksum(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.3".parse().unwrap(),
            17,
            &seg,
            6,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn pseudo_header_never_returns_zero() {
        // Craft a segment whose sum would be zero: all-0xFF words sum to
        // 0xFFFF which complements to 0; construction below exercises the
        // 0 → 0xFFFF substitution path indirectly by brute force.
        let src: Ipv4Addr = "0.0.0.0".parse().unwrap();
        let dst: Ipv4Addr = "0.0.0.0".parse().unwrap();
        for filler in 0..=255u8 {
            let seg = [filler; 6];
            assert_ne!(pseudo_header_checksum(src, dst, 0, &seg, 0), 0);
        }
    }
}
