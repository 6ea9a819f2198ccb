//! The Internet checksum (RFC 1071) and TCP/UDP pseudo-header sums.

use std::net::Ipv4Addr;

/// Adds `data`, read as big-endian 16-bit words with an odd trailing
/// byte padded with zero, to `acc` in ones'-complement arithmetic.
///
/// The sum is taken eight bytes per step: 2^16 ≡ 1 (mod 0xFFFF), so a
/// big-endian word of any width is congruent to the sum of its 16-bit
/// parts, and the halves of each `u64` are added to a 64-bit accumulator
/// that cannot overflow below 2^34 bytes of input. The one fold at the
/// end keeps the two facts [`finish`] depends on: the residue mod
/// 0xFFFF, and whether the sum is zero.
fn sum_words(acc: u32, data: &[u8]) -> u32 {
    let mut sum = u64::from(acc);
    let mut wide = data.chunks_exact(8);
    for c in &mut wide {
        let w = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        sum += (w >> 32) + (w & 0xFFFF_FFFF);
    }
    let mut words = wide.remainder().chunks_exact(2);
    for c in &mut words {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    let folded = (sum & 0xFFFF) + ((sum >> 16) & 0xFFFF) + ((sum >> 32) & 0xFFFF) + (sum >> 48);
    folded as u32
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

/// Incrementally updates a checksum after one 16-bit word changes from
/// `old_word` to `new_word` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
///
/// This is how NAT hardware rewrites headers without re-summing the
/// packet: O(1) per changed word.
pub(crate) fn incremental_update(checksum: u16, old_word: u16, new_word: u16) -> u16 {
    let mut acc = u32::from(!checksum) + u32::from(!old_word) + u32::from(new_word);
    acc = (acc & 0xFFFF) + (acc >> 16);
    acc = (acc & 0xFFFF) + (acc >> 16);
    !(acc as u16)
}

/// Computes the TCP/UDP checksum over the IPv4 pseudo-header plus the
/// transport `segment` (header + payload, with its checksum field zeroed).
pub(crate) fn pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    segment: &[u8],
) -> u16 {
    let mut acc = 0u32;
    acc = sum_words(acc, &src.octets());
    acc = sum_words(acc, &dst.octets());
    acc += u32::from(proto);
    acc += segment.len() as u32;
    acc = sum_words(acc, segment);
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
            let by_words = {
                let mut acc = sum_words_reference(0, &src.octets());
                acc = sum_words_reference(acc, &dst.octets());
                acc += 17 + len as u32;
                match finish(sum_words_reference(acc, &data[..len])) {
                    0 => 0xFFFF,
                    sum => sum,
                }
            };
            assert_eq!(pseudo_header_checksum(src, dst, 17, &data[..len]), by_words);
        }
    }

    #[test]
    fn verify_and_incremental_update_round_trip_at_every_even_length() {
        let mut rng = sim::DetRng::seed_from_u64(1624);
        for len in (4..=1514).step_by(2) {
            let mut data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            data[0..2].copy_from_slice(&[0, 0]); // checksum slot
            let sum = internet_checksum(&data);
            data[0..2].copy_from_slice(&sum.to_be_bytes());
            assert!(verify(&data), "len {len}");
            // Rewrite the last word; RFC 1624 must agree with a re-sum.
            let old_word = u16::from_be_bytes([data[len - 2], data[len - 1]]);
            let new_word = rng.next_u64() as u16;
            data[len - 2..].copy_from_slice(&new_word.to_be_bytes());
            let updated = incremental_update(sum, old_word, new_word);
            data[0..2].copy_from_slice(&updated.to_be_bytes());
            assert!(verify(&data), "len {len} after rewrite");
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
        );
        let b = pseudo_header_checksum(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.3".parse().unwrap(),
            17,
            &seg,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        // Build a header, change one word, and check RFC 1624 equals a
        // full recompute.
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x40, 0x00, 0x40, 0x11];
        data.extend_from_slice(&[0, 0]);
        data.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let sum = internet_checksum(&data);
        data[10..12].copy_from_slice(&sum.to_be_bytes());

        // Rewrite the source address's first word 10.0 -> 192.168.
        let old_word = u16::from_be_bytes([data[12], data[13]]);
        data[12] = 192;
        data[13] = 168;
        let new_word = u16::from_be_bytes([data[12], data[13]]);
        let updated = incremental_update(sum, old_word, new_word);

        data[10..12].copy_from_slice(&[0, 0]);
        let full = internet_checksum(&data);
        assert_eq!(updated, full);
    }

    #[test]
    fn incremental_is_invertible() {
        let sum = 0x1234u16;
        let step = incremental_update(sum, 0xAAAA, 0xBBBB);
        let back = incremental_update(step, 0xBBBB, 0xAAAA);
        assert_eq!(back, sum);
    }

    #[test]
    fn incremental_noop_change_preserves_sum() {
        assert_eq!(incremental_update(0x4242, 0x7777, 0x7777), 0x4242);
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
            assert_ne!(pseudo_header_checksum(src, dst, 0, &seg), 0);
        }
    }
}
