//! TCP headers (20 bytes, options unsupported).

use std::fmt;
use std::net::Ipv4Addr;

use crate::checksum;
use crate::{PktError, Result};

/// TCP flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags(pub(crate) u8);

impl TcpFlags {
    /// FIN.
    pub(crate) const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub(crate) const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub(crate) const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Returns the union of two flag sets.
    pub const fn with(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// Returns `true` if every bit in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ] {
            if self.contains(bit) {
                if wrote {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                wrote = true;
            }
        }
        if !wrote {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A TCP header without options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub(crate) src_port: u16,
    /// Destination port.
    pub(crate) dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub(crate) window: u16,
    /// Checksum (0 until computed).
    pub(crate) checksum: u16,
}

impl TcpHeader {
    /// Wire size of an optionless header.
    pub(crate) const LEN: usize = 20;

    /// Creates a header with an empty window of 65535 and no flags.
    pub(crate) fn new(src_port: u16, dst_port: u16) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 65_535,
            checksum: 0,
        }
    }

    /// Parses a header from the front of `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> Result<TcpHeader> {
        if bytes.len() < Self::LEN {
            return Err(PktError::Truncated {
                need: Self::LEN,
                have: bytes.len(),
            });
        }
        let data_off = bytes[12] >> 4;
        if data_off != 5 {
            // This stack never emits options.
            return Err(PktError::BadLength { layer: "tcp" });
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            flags: TcpFlags(bytes[13]),
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
            checksum: u16::from_be_bytes([bytes[16], bytes[17]]),
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
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 5 << 4;
        out[13] = self.flags.0;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        out[18..20].copy_from_slice(&[0, 0]); // urgent pointer
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
            checksum::pseudo_header_checksum(src, dst, crate::IpProto::TCP.0, &out[..total], 16);
        out[16..18].copy_from_slice(&sum.to_be_bytes());
    }

    /// Verifies the segment checksum over the pseudo-header, in place.
    pub(crate) fn verify_segment(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
        if segment.len() < Self::LEN {
            return false;
        }
        let sent = u16::from_be_bytes([segment[16], segment[17]]);
        checksum::pseudo_header_checksum(src, dst, crate::IpProto::TCP.0, segment, 16) == sent
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
        let mut h = TcpHeader::new(22, 50000);
        h.seq = 0x12345678;
        h.ack = 0x9ABCDEF0;
        h.flags = TcpFlags::SYN.with(TcpFlags::ACK);
        let payload = b"hello";
        let mut buf = vec![0u8; TcpHeader::LEN + payload.len()];
        h.write_segment(addr("10.0.0.1"), addr("10.0.0.2"), payload, &mut buf);
        let parsed = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.src_port, 22);
        assert_eq!(parsed.dst_port, 50000);
        assert_eq!(parsed.seq, 0x12345678);
        assert_eq!(parsed.ack, 0x9ABCDEF0);
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(parsed.flags.contains(TcpFlags::ACK));
        assert!(TcpHeader::verify_segment(
            addr("10.0.0.1"),
            addr("10.0.0.2"),
            &buf
        ));
    }

    #[test]
    fn corrupt_segment_fails_verification() {
        let h = TcpHeader::new(80, 1234);
        let mut buf = vec![0u8; TcpHeader::LEN + 3];
        h.write_segment(addr("1.1.1.1"), addr("2.2.2.2"), &[1, 2, 3], &mut buf);
        buf[21] ^= 0x80;
        assert!(!TcpHeader::verify_segment(
            addr("1.1.1.1"),
            addr("2.2.2.2"),
            &buf
        ));
    }

    #[test]
    fn options_rejected() {
        let mut buf = [0u8; 24];
        buf[12] = 6 << 4;
        assert_eq!(
            TcpHeader::parse(&buf).unwrap_err(),
            PktError::BadLength { layer: "tcp" }
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            TcpHeader::parse(&[0u8; 19]).unwrap_err(),
            PktError::Truncated { need: 20, have: 19 }
        );
        assert!(!TcpHeader::verify_segment(
            addr("1.1.1.1"),
            addr("2.2.2.2"),
            &[0u8; 10]
        ));
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN.to_string(), "SYN");
        assert_eq!(TcpFlags::SYN.with(TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn flags_contains() {
        let f = TcpFlags::SYN.with(TcpFlags::ACK);
        assert!(f.contains(TcpFlags::SYN));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(f.contains(TcpFlags::default()));
    }
}
