//! Ethernet II framing.

use std::fmt;
use std::str::FromStr;

use crate::{PktError, Result};

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Mac(pub(crate) [u8; 6]);

impl Mac {
    /// The all-ones broadcast address.
    pub(crate) const BROADCAST: Mac = Mac([0xFF; 6]);
    /// The all-zeroes address (unset).
    pub(crate) const ZERO: Mac = Mac([0; 6]);

    /// Builds a locally administered unicast MAC from a small integer,
    /// convenient for synthesizing per-host/per-app addresses in tests.
    pub fn local(n: u64) -> Mac {
        let b = n.to_be_bytes();
        // 0x02 sets the locally-administered bit, clears multicast.
        Mac([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns `true` for the broadcast address.
    #[cfg(test)]
    pub(crate) fn is_broadcast(self) -> bool {
        self == Mac::BROADCAST
    }

    /// Returns `true` if the multicast bit is set (includes broadcast).
    #[cfg(test)]
    pub(crate) fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({self})")
    }
}

impl FromStr for Mac {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Mac, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(format!(
                "expected 6 colon-separated octets, got {}",
                parts.len()
            ));
        }
        let mut out = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            out[i] = u8::from_str_radix(p, 16).map_err(|e| format!("octet {i}: {e}"))?;
        }
        Ok(Mac(out))
    }
}

/// An EtherType value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct EtherType(pub(crate) u16);

impl EtherType {
    /// IPv4 (0x0800).
    pub(crate) const IPV4: EtherType = EtherType(0x0800);
    /// ARP (0x0806).
    pub(crate) const ARP: EtherType = EtherType(0x0806);
    /// IPv6 (0x86DD) — recognized but not parsed by this stack.
    pub(crate) const IPV6: EtherType = EtherType(0x86DD);
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EtherType::IPV4 => write!(f, "IPv4"),
            EtherType::ARP => write!(f, "ARP"),
            EtherType::IPV6 => write!(f, "IPv6"),
            EtherType(other) => write!(f, "{other:#06x}"),
        }
    }
}

/// An Ethernet II header (14 bytes, no 802.1Q tag).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub(crate) src: Mac,
    /// Payload EtherType.
    pub(crate) ethertype: EtherType,
}

impl EthernetHeader {
    /// Wire size of the header in bytes.
    pub(crate) const LEN: usize = 14;

    /// Parses a header from the front of `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> Result<EthernetHeader> {
        if bytes.len() < Self::LEN {
            return Err(PktError::Truncated {
                need: Self::LEN,
                have: bytes.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&bytes[0..6]);
        src.copy_from_slice(&bytes[6..12]);
        Ok(EthernetHeader {
            dst: Mac(dst),
            src: Mac(src),
            ethertype: EtherType(u16::from_be_bytes([bytes[12], bytes[13]])),
        })
    }

    /// Writes the header into the front of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::LEN`].
    pub(crate) fn write_to(&self, out: &mut [u8]) {
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.0.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_parse_round_trip() {
        let m = Mac([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let s = m.to_string();
        assert_eq!(s, "de:ad:be:ef:00:01");
        assert_eq!(s.parse::<Mac>().unwrap(), m);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("de:ad:be:ef:00".parse::<Mac>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<Mac>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(Mac::BROADCAST.is_broadcast());
        assert!(Mac::BROADCAST.is_multicast());
        assert!(!Mac::local(7).is_multicast());
        assert!(!Mac::local(7).is_broadcast());
    }

    #[test]
    fn local_macs_are_distinct() {
        assert_ne!(Mac::local(1), Mac::local(2));
        assert_eq!(Mac::local(5), Mac::local(5));
    }

    #[test]
    fn header_round_trip() {
        let h = EthernetHeader {
            dst: Mac::BROADCAST,
            src: Mac::local(3),
            ethertype: EtherType::ARP,
        };
        let mut buf = [0u8; EthernetHeader::LEN];
        h.write_to(&mut buf);
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn truncated_header_errors() {
        let err = EthernetHeader::parse(&[0u8; 13]).unwrap_err();
        assert_eq!(err, PktError::Truncated { need: 14, have: 13 });
    }

    #[test]
    fn ethertype_display() {
        assert_eq!(EtherType::IPV4.to_string(), "IPv4");
        assert_eq!(EtherType::ARP.to_string(), "ARP");
        assert_eq!(EtherType(0x1234).to_string(), "0x1234");
    }
}
