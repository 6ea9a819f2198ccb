//! The dataplane capture tap (`ksniff`, the tcpdump equivalent).
//!
//! The §2 debugging scenario: Alice sees an ARP flood and must trace it
//! to a *process*. Application-level capture requires inspecting every
//! application one by one; hypervisor/network capture sees packets but
//! not processes. The KOPI tap sits on the NIC where every frame passes
//! (global view) and reads the flow table's process binding (process
//! view), so each captured frame carries (uid, pid, comm).

use std::fmt;

use pkt::{FiveTuple, FrameMeta, IpProto, Packet};
use sim::Time;

/// Capture direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Received from the wire.
    Rx,
    /// Transmitted by the host.
    Tx,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Rx => write!(f, "RX"),
            Direction::Tx => write!(f, "TX"),
        }
    }
}

/// A BPF-expression-like capture filter (all set fields must match).
#[derive(Clone, Copy, Debug, Default)]
pub struct SnifferFilter {
    /// Only this direction.
    pub direction: Option<Direction>,
    /// Only ARP frames.
    pub arp_only: bool,
    /// Only this protocol.
    pub proto: Option<IpProto>,
    /// Only frames touching this port (src or dst).
    pub port: Option<u16>,
    /// Only frames from this uid (requires process attribution).
    pub uid: Option<u32>,
}

impl SnifferFilter {
    /// Matches everything.
    pub fn all() -> SnifferFilter {
        SnifferFilter::default()
    }

    fn matches(&self, entry: &CaptureEntry) -> bool {
        if let Some(d) = self.direction {
            if entry.direction != d {
                return false;
            }
        }
        if self.arp_only && !entry.is_arp {
            return false;
        }
        if let Some(p) = self.proto {
            if entry.tuple.map(|t| t.proto) != Some(p) {
                return false;
            }
        }
        if let Some(port) = self.port {
            let hit = entry
                .tuple
                .is_some_and(|t| t.src_port == port || t.dst_port == port);
            if !hit {
                return false;
            }
        }
        if let Some(uid) = self.uid {
            if entry.uid != Some(uid) {
                return false;
            }
        }
        true
    }
}

/// One captured frame with attribution.
#[derive(Clone, Debug)]
pub struct CaptureEntry {
    /// Capture instant.
    pub at: Time,
    /// Direction.
    pub direction: Direction,
    /// Frame length.
    pub len: usize,
    /// Flow tuple if TCP/UDP.
    pub tuple: Option<FiveTuple>,
    /// Whether the frame is ARP.
    pub is_arp: bool,
    /// tcpdump-style one-line summary.
    pub summary: String,
    /// Owning uid, when the flow table attributes the frame.
    pub uid: Option<u32>,
    /// Owning pid.
    pub pid: Option<u32>,
    /// Owning command name.
    pub comm: Option<String>,
}

impl fmt::Display for CaptureEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {} {}",
            self.at.to_string(),
            self.direction,
            self.summary
        )?;
        match (&self.comm, self.pid, self.uid) {
            (Some(comm), Some(pid), Some(uid)) => {
                write!(f, "  ({comm}[{pid}] uid={uid})")
            }
            _ => write!(f, "  (unattributed)"),
        }
    }
}

/// The NIC capture tap: disabled by default (zero fast-path cost), a
/// bounded ring when enabled.
pub struct Sniffer {
    filter: Option<SnifferFilter>,
    capacity: usize,
    entries: Vec<CaptureEntry>,
    captured: u64,
    dropped: u64,
}

impl Sniffer {
    /// Creates a disabled sniffer with a capture buffer of `capacity`
    /// entries.
    pub(crate) fn new(capacity: usize) -> Sniffer {
        Sniffer {
            filter: None,
            capacity,
            entries: Vec::new(),
            captured: 0,
            dropped: 0,
        }
    }

    /// Enables capture with `filter` (kernel-only operation; enforced by
    /// the caller via the register file).
    pub(crate) fn enable(&mut self, filter: SnifferFilter) {
        self.filter = Some(filter);
    }

    /// Disables capture.
    pub(crate) fn disable(&mut self) {
        self.filter = None;
    }

    /// Returns whether the tap is active.
    pub fn is_enabled(&self) -> bool {
        self.filter.is_some()
    }

    /// Offers a frame to the tap, reusing the parse-once descriptor the
    /// parser stage already computed — the tap never re-parses.
    ///
    /// `attribution` is the flow-table binding, when one exists.
    pub(crate) fn tap(
        &mut self,
        at: Time,
        direction: Direction,
        packet: &Packet,
        meta: &FrameMeta,
        attribution: Option<(u32, u32, &str)>,
    ) {
        if self.filter.is_none() {
            return;
        }
        self.record(
            at,
            direction,
            packet.len(),
            meta.tuple,
            meta.is_arp(),
            meta.summarize(packet.bytes()),
            attribution,
        );
    }

    /// Offers a frame the parser stage rejected (no descriptor exists).
    pub(crate) fn tap_unparsed(
        &mut self,
        at: Time,
        direction: Direction,
        packet: &Packet,
        err: &pkt::PktError,
        attribution: Option<(u32, u32, &str)>,
    ) {
        if self.filter.is_none() {
            return;
        }
        self.record(
            at,
            direction,
            packet.len(),
            None,
            false,
            format!("unparsed ({err})"),
            attribution,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        at: Time,
        direction: Direction,
        len: usize,
        tuple: Option<FiveTuple>,
        is_arp: bool,
        summary: String,
        attribution: Option<(u32, u32, &str)>,
    ) {
        let Some(filter) = self.filter else {
            return;
        };
        let entry = CaptureEntry {
            at,
            direction,
            len,
            tuple,
            is_arp,
            summary,
            uid: attribution.map(|(uid, _, _)| uid),
            pid: attribution.map(|(_, pid, _)| pid),
            comm: attribution.map(|(_, _, c)| c.to_string()),
        };
        if !filter.matches(&entry) {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.captured += 1;
        self.entries.push(entry);
    }

    /// Returns captured entries.
    pub fn entries(&self) -> &[CaptureEntry] {
        &self.entries
    }

    /// Drains captured entries (the control plane reading the capture
    /// ring).
    pub fn drain(&mut self) -> Vec<CaptureEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Returns (captured, dropped-due-to-full-buffer).
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.captured, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::{Mac, PacketBuilder};

    fn udp_pkt(sport: u16, dport: u16) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(sport, dport, b"x")
            .build()
    }

    fn arp_pkt() -> Packet {
        PacketBuilder::arp_request(
            Mac::local(3),
            "10.0.0.3".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        )
    }

    /// Taps a built packet, supplying its build-time descriptor the way
    /// the NIC parser stage would.
    fn tap_pkt(
        s: &mut Sniffer,
        at: Time,
        dir: Direction,
        p: &Packet,
        attr: Option<(u32, u32, &str)>,
    ) {
        let meta = *p.meta().expect("built packets carry meta");
        s.tap(at, dir, p, &meta, attr);
    }

    #[test]
    fn disabled_tap_captures_nothing() {
        let mut s = Sniffer::new(16);
        tap_pkt(&mut s, Time::ZERO, Direction::Rx, &udp_pkt(1, 2), None);
        assert!(s.entries().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn capture_all_with_attribution() {
        let mut s = Sniffer::new(16);
        s.enable(SnifferFilter::all());
        tap_pkt(
            &mut s,
            Time::from_us(5),
            Direction::Tx,
            &udp_pkt(5432, 9000),
            Some((1001, 314, "postgres")),
        );
        let e = &s.entries()[0];
        assert_eq!(e.uid, Some(1001));
        assert_eq!(e.comm.as_deref(), Some("postgres"));
        let line = e.to_string();
        assert!(line.contains("postgres[314]"), "{line}");
        assert!(line.contains("TX"));
    }

    #[test]
    fn arp_only_filter() {
        let mut s = Sniffer::new(16);
        s.enable(SnifferFilter {
            arp_only: true,
            ..SnifferFilter::all()
        });
        tap_pkt(&mut s, Time::ZERO, Direction::Tx, &udp_pkt(1, 2), None);
        tap_pkt(
            &mut s,
            Time::ZERO,
            Direction::Tx,
            &arp_pkt(),
            Some((0, 999, "flooder")),
        );
        assert_eq!(s.entries().len(), 1);
        assert!(s.entries()[0].is_arp);
        assert_eq!(s.entries()[0].pid, Some(999));
    }

    #[test]
    fn port_filter_matches_either_direction_port() {
        let mut s = Sniffer::new(16);
        s.enable(SnifferFilter {
            port: Some(5432),
            ..SnifferFilter::all()
        });
        tap_pkt(
            &mut s,
            Time::ZERO,
            Direction::Rx,
            &udp_pkt(9000, 5432),
            None,
        );
        tap_pkt(
            &mut s,
            Time::ZERO,
            Direction::Tx,
            &udp_pkt(5432, 9000),
            None,
        );
        tap_pkt(&mut s, Time::ZERO, Direction::Rx, &udp_pkt(1, 2), None);
        assert_eq!(s.entries().len(), 2);
    }

    #[test]
    fn uid_filter_requires_attribution() {
        let mut s = Sniffer::new(16);
        s.enable(SnifferFilter {
            uid: Some(1001),
            ..SnifferFilter::all()
        });
        tap_pkt(
            &mut s,
            Time::ZERO,
            Direction::Tx,
            &udp_pkt(1, 2),
            Some((1001, 3, "app")),
        );
        tap_pkt(
            &mut s,
            Time::ZERO,
            Direction::Tx,
            &udp_pkt(1, 2),
            Some((1002, 4, "other")),
        );
        tap_pkt(&mut s, Time::ZERO, Direction::Tx, &udp_pkt(1, 2), None);
        assert_eq!(s.entries().len(), 1);
        assert_eq!(s.entries()[0].uid, Some(1001));
    }

    #[test]
    fn buffer_bounds_respected() {
        let mut s = Sniffer::new(2);
        s.enable(SnifferFilter::all());
        for _ in 0..5 {
            tap_pkt(&mut s, Time::ZERO, Direction::Rx, &udp_pkt(1, 2), None);
        }
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.counters(), (2, 3));
    }

    #[test]
    fn drain_empties_buffer() {
        let mut s = Sniffer::new(4);
        s.enable(SnifferFilter::all());
        tap_pkt(&mut s, Time::ZERO, Direction::Rx, &udp_pkt(1, 2), None);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert!(s.entries().is_empty());
    }

    #[test]
    fn direction_filter() {
        let mut s = Sniffer::new(16);
        s.enable(SnifferFilter {
            direction: Some(Direction::Rx),
            ..SnifferFilter::all()
        });
        tap_pkt(&mut s, Time::ZERO, Direction::Rx, &udp_pkt(1, 2), None);
        tap_pkt(&mut s, Time::ZERO, Direction::Tx, &udp_pkt(1, 2), None);
        assert_eq!(s.entries().len(), 1);
    }
}
