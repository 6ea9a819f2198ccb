//! IPv4 headers (20 bytes, options unsupported).

use std::fmt;
use std::net::Ipv4Addr;

use crate::checksum;
use crate::{PktError, Result};

/// An IP protocol number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IpProto(pub u8);

impl IpProto {
    /// ICMP (1).
    pub(crate) const ICMP: IpProto = IpProto(1);
    /// TCP (6).
    pub const TCP: IpProto = IpProto(6);
    /// UDP (17).
    pub const UDP: IpProto = IpProto(17);
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IpProto::ICMP => write!(f, "icmp"),
            IpProto::TCP => write!(f, "tcp"),
            IpProto::UDP => write!(f, "udp"),
            IpProto(other) => write!(f, "proto-{other}"),
        }
    }
}

/// An IPv4 header without options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits) + ECN (2 bits).
    pub(crate) dscp_ecn: u8,
    /// Total datagram length including this header.
    pub(crate) total_len: u16,
    /// Identification field.
    pub(crate) id: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed.
    pub(crate) flags_frag: u16,
    /// Time to live.
    pub(crate) ttl: u8,
    /// Payload protocol.
    pub(crate) proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Wire size of an optionless header.
    pub(crate) const LEN: usize = 20;

    /// The "don't fragment" flag in [`Ipv4Header::flags_frag`].
    pub(crate) const DONT_FRAGMENT: u16 = 0x4000;

    /// Creates a header with common defaults (TTL 64, DF set).
    pub(crate) fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload_len: usize,
    ) -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (Self::LEN + payload_len) as u16,
            id: 0,
            flags_frag: Self::DONT_FRAGMENT,
            ttl: 64,
            proto,
            src,
            dst,
        }
    }

    /// Parses and checksum-verifies a header from the front of `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Ipv4Header> {
        if bytes.len() < Self::LEN {
            return Err(PktError::Truncated {
                need: Self::LEN,
                have: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(PktError::BadVersion(version));
        }
        let ihl = bytes[0] & 0x0F;
        if ihl != 5 {
            // Options are never produced by this stack; reject rather than
            // silently misparse the payload offset.
            return Err(PktError::BadIhl(ihl));
        }
        if !checksum::verify(&bytes[..Self::LEN]) {
            return Err(PktError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
        if (total_len as usize) < Self::LEN || total_len as usize > bytes.len() {
            return Err(PktError::BadLength { layer: "ipv4" });
        }
        Ok(Ipv4Header {
            dscp_ecn: bytes[1],
            total_len,
            id: u16::from_be_bytes([bytes[4], bytes[5]]),
            flags_frag: u16::from_be_bytes([bytes[6], bytes[7]]),
            ttl: bytes[8],
            proto: IpProto(bytes[9]),
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
        })
    }

    /// Writes the header (with a freshly computed checksum) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::LEN`].
    pub(crate) fn write_to(&self, out: &mut [u8]) {
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.id.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.proto.0;
        out[10..12].copy_from_slice(&[0, 0]);
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let sum = checksum::internet_checksum(&out[..Self::LEN]);
        out[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn round_trip_with_valid_checksum() {
        let h = Ipv4Header::new(addr("10.0.0.1"), addr("10.0.0.2"), IpProto::UDP, 8);
        let mut buf = [0u8; Ipv4Header::LEN];
        h.write_to(&mut buf);
        // Parsing from a buffer exactly total_len long is rejected only if
        // the buffer is shorter than the declared length; extend.
        let mut full = buf.to_vec();
        full.extend_from_slice(&[0u8; 8]);
        let parsed = Ipv4Header::parse(&full).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let h = Ipv4Header::new(addr("1.2.3.4"), addr("5.6.7.8"), IpProto::TCP, 0);
        let mut buf = [0u8; Ipv4Header::LEN];
        h.write_to(&mut buf);
        buf[8] ^= 0x01; // flip a TTL bit
        assert_eq!(
            Ipv4Header::parse(&buf).unwrap_err(),
            PktError::BadChecksum { layer: "ipv4" }
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = [0u8; Ipv4Header::LEN];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Header::parse(&buf).unwrap_err(),
            PktError::BadVersion(6)
        );
    }

    #[test]
    fn options_rejected() {
        let mut buf = [0u8; 24];
        buf[0] = 0x46; // IHL 6 (one option word)
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), PktError::BadIhl(6));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Ipv4Header::parse(&[0u8; 10]).unwrap_err(),
            PktError::Truncated { need: 20, have: 10 }
        );
    }

    #[test]
    fn total_len_beyond_buffer_rejected() {
        let h = Ipv4Header::new(addr("1.1.1.1"), addr("2.2.2.2"), IpProto::UDP, 100);
        let mut buf = [0u8; Ipv4Header::LEN];
        h.write_to(&mut buf);
        // Buffer holds only the header, but total_len declares 120 bytes.
        assert_eq!(
            Ipv4Header::parse(&buf).unwrap_err(),
            PktError::BadLength { layer: "ipv4" }
        );
    }

    #[test]
    fn defaults_are_sane() {
        let h = Ipv4Header::new(addr("1.1.1.1"), addr("2.2.2.2"), IpProto::UDP, 0);
        assert_eq!(h.ttl, 64);
        assert_eq!(h.flags_frag, Ipv4Header::DONT_FRAGMENT);
        assert_eq!(h.total_len as usize, Ipv4Header::LEN);
    }

    #[test]
    fn proto_display() {
        assert_eq!(IpProto::TCP.to_string(), "tcp");
        assert_eq!(IpProto::UDP.to_string(), "udp");
        assert_eq!(IpProto(99).to_string(), "proto-99");
    }
}
