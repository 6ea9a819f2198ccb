//! ARP over Ethernet/IPv4 (RFC 826).
//!
//! ARP matters to this reproduction because the paper's debugging scenario
//! (§2) is a flood of ARP requests from an unknown source that the
//! administrator must trace to a process — only possible with an
//! interposition layer that has both the global and the process view.

use std::fmt;
use std::net::Ipv4Addr;

use crate::ether::Mac;
use crate::{PktError, Result};

/// ARP operation codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
    /// Any other opcode, preserved verbatim.
    Other(u16),
}

impl ArpOp {
    fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
            ArpOp::Other(v) => v,
        }
    }

    fn from_u16(v: u16) -> ArpOp {
        match v {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => ArpOp::Other(other),
        }
    }
}

impl fmt::Display for ArpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArpOp::Request => write!(f, "who-has"),
            ArpOp::Reply => write!(f, "is-at"),
            ArpOp::Other(v) => write!(f, "op-{v}"),
        }
    }
}

/// An ARP packet for IPv4-over-Ethernet (28 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Operation (request/reply).
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: Mac,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: Mac,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Wire size for Ethernet/IPv4 ARP.
    pub(crate) const LEN: usize = 28;

    /// Builds a who-has request from `sender` for `target_ip`.
    pub(crate) fn request(sender_mac: Mac, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: Mac::ZERO,
            target_ip,
        }
    }

    /// Builds an is-at reply answering `request`.
    pub(crate) fn reply_to(request: &ArpPacket, my_mac: Mac) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Parses an ARP packet from the front of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<ArpPacket> {
        if bytes.len() < Self::LEN {
            return Err(PktError::Truncated {
                need: Self::LEN,
                have: bytes.len(),
            });
        }
        let htype = u16::from_be_bytes([bytes[0], bytes[1]]);
        let ptype = u16::from_be_bytes([bytes[2], bytes[3]]);
        if htype != 1 || ptype != 0x0800 || bytes[4] != 6 || bytes[5] != 4 {
            return Err(PktError::BadLength { layer: "arp" });
        }
        let mut sender_mac = [0u8; 6];
        let mut target_mac = [0u8; 6];
        sender_mac.copy_from_slice(&bytes[8..14]);
        target_mac.copy_from_slice(&bytes[18..24]);
        Ok(ArpPacket {
            op: ArpOp::from_u16(u16::from_be_bytes([bytes[6], bytes[7]])),
            sender_mac: Mac(sender_mac),
            sender_ip: Ipv4Addr::new(bytes[14], bytes[15], bytes[16], bytes[17]),
            target_mac: Mac(target_mac),
            target_ip: Ipv4Addr::new(bytes[24], bytes[25], bytes[26], bytes[27]),
        })
    }

    /// Writes the packet into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::LEN`].
    pub(crate) fn write_to(&self, out: &mut [u8]) {
        out[0..2].copy_from_slice(&1u16.to_be_bytes()); // Ethernet
        out[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // IPv4
        out[4] = 6;
        out[5] = 4;
        out[6..8].copy_from_slice(&self.op.to_u16().to_be_bytes());
        out[8..14].copy_from_slice(&self.sender_mac.0);
        out[14..18].copy_from_slice(&self.sender_ip.octets());
        out[18..24].copy_from_slice(&self.target_mac.0);
        out[24..28].copy_from_slice(&self.target_ip.octets());
    }
}

impl fmt::Display for ArpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            ArpOp::Request => write!(
                f,
                "ARP who-has {} tell {} ({})",
                self.target_ip, self.sender_ip, self.sender_mac
            ),
            ArpOp::Reply => write!(f, "ARP {} is-at {}", self.sender_ip, self.sender_mac),
            ArpOp::Other(v) => write!(f, "ARP op-{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn request_round_trip() {
        let req = ArpPacket::request(Mac::local(1), addr("10.0.0.1"), addr("10.0.0.2"));
        let mut buf = [0u8; ArpPacket::LEN];
        req.write_to(&mut buf);
        assert_eq!(ArpPacket::parse(&buf).unwrap(), req);
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpPacket::request(Mac::local(1), addr("10.0.0.1"), addr("10.0.0.2"));
        let rep = ArpPacket::reply_to(&req, Mac::local(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, addr("10.0.0.2"));
        assert_eq!(rep.sender_mac, Mac::local(2));
        assert_eq!(rep.target_ip, addr("10.0.0.1"));
        assert_eq!(rep.target_mac, Mac::local(1));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            ArpPacket::parse(&[0u8; 27]).unwrap_err(),
            PktError::Truncated { need: 28, have: 27 }
        );
    }

    #[test]
    fn non_ethernet_ipv4_rejected() {
        let mut buf = [0u8; ArpPacket::LEN];
        let req = ArpPacket::request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        req.write_to(&mut buf);
        buf[1] = 9; // bogus hardware type
        assert!(ArpPacket::parse(&buf).is_err());
    }

    #[test]
    fn unknown_opcode_preserved() {
        let mut buf = [0u8; ArpPacket::LEN];
        ArpPacket::request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2")).write_to(&mut buf);
        buf[7] = 9;
        let parsed = ArpPacket::parse(&buf).unwrap();
        assert_eq!(parsed.op, ArpOp::Other(9));
    }

    #[test]
    fn display_formats() {
        let req = ArpPacket::request(Mac::local(1), addr("10.0.0.1"), addr("10.0.0.2"));
        let s = req.to_string();
        assert!(s.contains("who-has 10.0.0.2"));
        assert!(s.contains("tell 10.0.0.1"));
    }
}
