//! UDP headers.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::{PktError, Result};

/// A UDP header (8 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpHeader {
    /// Source port.
    pub(crate) src_port: u16,
    /// Destination port.
    pub(crate) dst_port: u16,
    /// Length of header plus payload.
    pub(crate) len: u16,
    /// Checksum over the pseudo-header and segment (0 = not computed).
    pub(crate) checksum: u16,
}

impl UdpHeader {
    /// Wire size of the header.
    pub(crate) const LEN: usize = 8;

    /// Creates a header for a payload of `payload_len` bytes with the
    /// checksum left at zero (filled in by [`UdpHeader::write_segment`]).
    pub(crate) fn new(src_port: u16, dst_port: u16, payload_len: usize) -> UdpHeader {
        UdpHeader {
            src_port,
            dst_port,
            len: (Self::LEN + payload_len) as u16,
            checksum: 0,
        }
    }

    /// Parses a header from the front of `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> Result<UdpHeader> {
        if bytes.len() < Self::LEN {
            return Err(PktError::Truncated {
                need: Self::LEN,
                have: bytes.len(),
            });
        }
        let len = u16::from_be_bytes([bytes[4], bytes[5]]);
        if (len as usize) < Self::LEN || len as usize > bytes.len() {
            return Err(PktError::BadLength { layer: "udp" });
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            len,
            checksum: u16::from_be_bytes([bytes[6], bytes[7]]),
        })
    }

    /// Writes the header into `out` without computing the checksum.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::LEN`].
    pub(crate) fn write_to(&self, out: &mut [u8]) {
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.len.to_be_bytes());
        out[6..8].copy_from_slice(&self.checksum.to_be_bytes());
    }

    /// Writes header + `payload` into `out` and fills in the checksum
    /// using the IPv4 pseudo-header.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than header + payload.
    #[cfg(test)]
    pub(crate) fn write_segment(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        out: &mut [u8],
    ) {
        let total = Self::LEN + payload.len();
        self.write_to(out);
        out[Self::LEN..total].copy_from_slice(payload);
        let sum =
            checksum::pseudo_header_checksum(src, dst, crate::IpProto::UDP.0, &out[..total], 6);
        out[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Verifies the segment checksum over the pseudo-header, in place. A
    /// zero checksum (sender opted out) verifies trivially per RFC 768; a
    /// segment shorter than the header does not verify.
    pub fn verify_segment(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
        if segment.len() < Self::LEN {
            return false;
        }
        let sent = u16::from_be_bytes([segment[6], segment[7]]);
        sent == 0
            || checksum::pseudo_header_checksum(src, dst, crate::IpProto::UDP.0, segment, 6) == sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn round_trip() {
        let h = UdpHeader::new(5432, 9000, 4);
        let payload = [1u8, 2, 3, 4];
        let mut buf = vec![0u8; UdpHeader::LEN + payload.len()];
        h.write_segment(addr("10.0.0.1"), addr("10.0.0.2"), &payload, &mut buf);
        let parsed = UdpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.src_port, 5432);
        assert_eq!(parsed.dst_port, 9000);
        assert_eq!(parsed.len, 12);
        assert_ne!(parsed.checksum, 0);
        assert!(UdpHeader::verify_segment(
            addr("10.0.0.1"),
            addr("10.0.0.2"),
            &buf
        ));
    }

    #[test]
    fn wrong_pseudo_header_fails_verification() {
        let h = UdpHeader::new(1, 2, 0);
        let mut buf = vec![0u8; UdpHeader::LEN];
        h.write_segment(addr("10.0.0.1"), addr("10.0.0.2"), &[], &mut buf);
        assert!(!UdpHeader::verify_segment(
            addr("10.0.0.9"),
            addr("10.0.0.2"),
            &buf
        ));
    }

    #[test]
    fn corrupt_payload_fails_verification() {
        let h = UdpHeader::new(1, 2, 2);
        let mut buf = vec![0u8; UdpHeader::LEN + 2];
        h.write_segment(addr("1.1.1.1"), addr("2.2.2.2"), &[7, 8], &mut buf);
        buf[9] ^= 0xFF;
        assert!(!UdpHeader::verify_segment(
            addr("1.1.1.1"),
            addr("2.2.2.2"),
            &buf
        ));
    }

    #[test]
    fn zero_checksum_accepted() {
        let h = UdpHeader::new(1, 2, 0);
        let mut buf = vec![0u8; UdpHeader::LEN];
        h.write_to(&mut buf);
        assert!(UdpHeader::verify_segment(
            addr("1.1.1.1"),
            addr("2.2.2.2"),
            &buf
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            UdpHeader::parse(&[0u8; 4]).unwrap_err(),
            PktError::Truncated { need: 8, have: 4 }
        );
    }

    #[test]
    fn bad_length_rejected() {
        let mut buf = [0u8; UdpHeader::LEN];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // shorter than header
        assert_eq!(
            UdpHeader::parse(&buf).unwrap_err(),
            PktError::BadLength { layer: "udp" }
        );
        buf[4..6].copy_from_slice(&100u16.to_be_bytes()); // longer than buffer
        assert_eq!(
            UdpHeader::parse(&buf).unwrap_err(),
            PktError::BadLength { layer: "udp" }
        );
    }
}
