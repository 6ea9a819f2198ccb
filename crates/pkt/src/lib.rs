//! Packet substrate: wire formats, parsing, construction, and flow
//! identification.
//!
//! Every packet that crosses the simulated host is a real byte buffer with
//! valid Ethernet/ARP/IPv4/TCP/UDP headers and checksums, so the SmartNIC
//! pipeline, the in-kernel stack baseline, and the sniffer all operate on
//! the same wire representation a hardware implementation would see.
//!
//! * `ether`, `arp`, `ipv4`, `tcp`, `udp` — header types with
//!   `parse`/`write_to` round-trips.
//! * [`checksum`] — the Internet checksum and TCP/UDP pseudo-header sums.
//! * `packet` — the owned [`Packet`] buffer and the fully `Parsed`
//!   view.
//! * `flow` — [`FiveTuple`] flow keys and Toeplitz RSS hashing.
//! * `builder` — fluent, checksum-correct packet construction.
//! * [`meta`] — the parse-once [`FrameMeta`] descriptor every dataplane
//!   stage consumes instead of re-parsing.
//! * `arena` — the pooled frame arena ([`BufArena`]/[`FrameRef`]): slab
//!   slots, refcounted descriptors, and the single-threaded unsafe core.

pub(crate) mod arena;
pub(crate) mod arp;
pub(crate) mod builder;
pub mod checksum;
pub(crate) mod ether;
pub(crate) mod flow;
pub(crate) mod ipv4;
pub mod meta;
pub(crate) mod packet;
pub(crate) mod tcp;
pub(crate) mod udp;

pub use arena::{ArenaStats, BufArena, FrameRef};
pub use arp::{ArpOp, ArpPacket};
pub use builder::PacketBuilder;
pub use ether::Mac;
pub use flow::{FiveTuple, RssHasher};
pub use ipv4::IpProto;
pub use meta::FrameMeta;
pub use packet::{Packet, Payload};
pub use tcp::TcpFlags;
pub use udp::UdpHeader;

use std::fmt;

/// Errors produced while parsing wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PktError {
    /// The buffer ended before the structure being parsed.
    Truncated {
        /// Bytes required by the structure.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// An IPv4 header with a version other than 4.
    BadVersion(u8),
    /// An IPv4 header length below the 20-byte minimum (in 32-bit words).
    BadIhl(u8),
    /// A checksum that failed verification.
    BadChecksum {
        /// The layer whose checksum failed (e.g. `"ipv4"`).
        layer: &'static str,
    },
    /// An EtherType this stack does not parse.
    UnsupportedEtherType(u16),
    /// A declared length field inconsistent with the buffer.
    BadLength {
        /// The layer whose length field is inconsistent.
        layer: &'static str,
    },
}

impl fmt::Display for PktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PktError::Truncated { need, have } => {
                write!(f, "truncated packet: need {need} bytes, have {have}")
            }
            PktError::BadVersion(v) => write!(f, "bad IP version {v}"),
            PktError::BadIhl(ihl) => write!(f, "bad IPv4 IHL {ihl}"),
            PktError::BadChecksum { layer } => write!(f, "bad {layer} checksum"),
            PktError::UnsupportedEtherType(t) => {
                write!(f, "unsupported EtherType {t:#06x}")
            }
            PktError::BadLength { layer } => write!(f, "inconsistent {layer} length"),
        }
    }
}

impl std::error::Error for PktError {}

/// Result alias for packet parsing.
pub(crate) type Result<T> = std::result::Result<T, PktError>;
