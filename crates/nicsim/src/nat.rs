//! On-NIC network address translation.
//!
//! §5 names NAT among "everything else the kernel does today" that KOPI
//! must offload. This module is a source-NAT (masquerade) engine as the
//! NIC would implement it: a bounded translation table in SRAM plus
//! RFC 1624 incremental header rewriting ([`pkt::mutate`]) at line rate.
//! Port exhaustion and SRAM exhaustion are both first-class outcomes —
//! NAT state is exactly the kind of per-flow NIC memory §5 worries
//! about.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use pkt::{mutate, Frame, IpProto, Packet};
use sim::Time;
use telemetry::{FrameInfo, Stage, Telemetry, TraceVerdict};

use crate::sram::{Sram, SramCategory, SramError};

/// SRAM bytes per translation entry (two hash slots + timestamps).
pub(crate) const NAT_ENTRY_BYTES: u64 = 64;

/// First external port the allocator hands out.
const PORT_LO: u16 = 32_768;

/// NAT failures.
#[derive(Debug)]
pub enum NatError {
    /// The frame is not rewritable TCP/UDP-over-IPv4.
    NotTranslatable,
    /// No inbound mapping exists for this (proto, port).
    NoMapping {
        /// The transport protocol.
        proto: IpProto,
        /// The untranslated external port.
        port: u16,
    },
    /// The external port pool is exhausted.
    PortsExhausted,
    /// A static rule would collide with an existing mapping on this
    /// (proto, external port).
    Conflict {
        /// The transport protocol.
        proto: IpProto,
        /// The contested external port.
        port: u16,
    },
    /// The NIC SRAM budget refused a new entry.
    Sram(SramError),
}

impl std::fmt::Display for NatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NatError::NotTranslatable => write!(f, "frame is not translatable TCP/UDP/IPv4"),
            NatError::NoMapping { proto, port } => {
                write!(f, "no NAT mapping for inbound {proto} port {port}")
            }
            NatError::PortsExhausted => write!(f, "NAT external port pool exhausted"),
            NatError::Conflict { proto, port } => {
                write!(f, "NAT mapping for {proto} port {port} already exists")
            }
            NatError::Sram(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NatError {}

impl From<SramError> for NatError {
    fn from(e: SramError) -> NatError {
        NatError::Sram(e)
    }
}

/// A source-NAT (masquerade) table for one external address.
pub struct NatTable {
    external_ip: Ipv4Addr,
    /// (internal ip, internal port, proto) → external port.
    outbound: HashMap<(Ipv4Addr, u16, IpProto), u16>,
    /// (proto, external port) → (internal ip, internal port).
    inbound: HashMap<(IpProto, u16), (Ipv4Addr, u16)>,
    /// Keys in `inbound` pinned by control-plane static rules (port
    /// forwards).
    statics: HashMap<(IpProto, u16), (Ipv4Addr, u16)>,
    next_port: u16,
    translated_out: u64,
    translated_in: u64,
    misses: u64,
    tel: Telemetry,
}

impl NatTable {
    /// Creates a NAT table masquerading as `external_ip`.
    pub fn new(external_ip: Ipv4Addr) -> NatTable {
        NatTable {
            external_ip,
            outbound: HashMap::new(),
            inbound: HashMap::new(),
            statics: HashMap::new(),
            next_port: PORT_LO,
            translated_out: 0,
            translated_in: 0,
            misses: 0,
            tel: Telemetry::new(),
        }
    }

    /// Attaches a shared telemetry hub so translations appear in frame
    /// lifecycles (stage [`Stage::RxNat`]), with the NAT engine tagging
    /// untagged frames and downstream stages adopting the same id.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Emits the RxNat lifecycle event for a translated (or missed)
    /// frame.
    fn trace(&self, fid: u64, at: Time, verdict: TraceVerdict, frame: &Frame) {
        self.tel
            .emit_stage(Stage::RxNat, verdict, at, || FrameInfo {
                frame_id: fid,
                tuple: frame.meta.tuple,
                len: frame.len() as u32,
                owner: None,
            });
    }

    /// Returns the external (masquerade) address.
    pub fn external_ip(&self) -> Ipv4Addr {
        self.external_ip
    }

    /// Returns the number of live mappings.
    pub fn len(&self) -> usize {
        self.inbound.len()
    }

    /// Returns `true` when no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.inbound.is_empty()
    }

    /// Returns (outbound translations, inbound translations, inbound
    /// misses).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.translated_out, self.translated_in, self.misses)
    }

    fn alloc_port(&mut self, proto: IpProto) -> Result<u16, NatError> {
        // Linear probe over the dynamic range; u16 wrap bounded by pool
        // size.
        for _ in 0..(u16::MAX - PORT_LO) {
            let candidate = self.next_port;
            self.next_port = if self.next_port == u16::MAX {
                PORT_LO
            } else {
                self.next_port + 1
            };
            if !self.inbound.contains_key(&(proto, candidate)) {
                return Ok(candidate);
            }
        }
        Err(NatError::PortsExhausted)
    }

    /// Translates an outbound frame: rewrites (src ip, src port) to
    /// (external ip, mapped port), allocating a mapping (and SRAM) on
    /// first use.
    ///
    /// Ingress convenience wrapper around
    /// [`NatTable::translate_outbound_frame`]: admits the packet (reusing
    /// an attached descriptor; deriving one only for foreign bytes) and
    /// returns the rewritten buffer. Consumes the packet, so a
    /// sole-owner buffer is rewritten in place — no clone, no copy.
    pub fn translate_outbound(
        &mut self,
        packet: Packet,
        sram: &mut Sram,
    ) -> Result<Packet, NatError> {
        let frame = Frame::ingress(packet).map_err(|_| NatError::NotTranslatable)?;
        Ok(self.translate_outbound_frame(frame, sram, Time::ZERO)?.pkt)
    }

    /// The hot path: translates an outbound frame using its parse-once
    /// descriptor — no parse, RFC 1624 checksum deltas applied in place
    /// when the frame owns its buffer (one copy only when shared), and
    /// an incrementally patched descriptor on the result. `now` stamps
    /// the lifecycle trace event when telemetry is attached.
    pub fn translate_outbound_frame(
        &mut self,
        frame: Frame,
        sram: &mut Sram,
        now: Time,
    ) -> Result<Frame, NatError> {
        let tuple = frame.meta.tuple.ok_or(NatError::NotTranslatable)?;
        let key = (tuple.src_ip, tuple.src_port, tuple.proto);
        let (ext_port, verdict) = match self.outbound.get(&key) {
            Some(&p) => (p, TraceVerdict::Hit),
            None => {
                let p = self.alloc_port(tuple.proto)?;
                sram.alloc(SramCategory::Nat, NAT_ENTRY_BYTES)?;
                self.outbound.insert(key, p);
                self.inbound
                    .insert((tuple.proto, p), (tuple.src_ip, tuple.src_port));
                (p, TraceVerdict::Miss)
            }
        };
        let out = mutate::rewrite_endpoints_owned(frame, Some((self.external_ip, ext_port)), None)
            .map_err(|_| NatError::NotTranslatable)?;
        self.translated_out += 1;
        let out = self.tag_frame(out);
        self.trace(out.meta.frame_id, now, verdict, &out);
        Ok(out)
    }

    /// Translates an inbound frame: rewrites (dst ip, dst port) back to
    /// the internal endpoint. Ingress wrapper around
    /// [`NatTable::translate_inbound_frame`]; consumes the packet for
    /// the in-place rewrite.
    pub fn translate_inbound(&mut self, packet: Packet) -> Result<Packet, NatError> {
        let frame = Frame::ingress(packet).map_err(|_| NatError::NotTranslatable)?;
        Ok(self.translate_inbound_frame(frame, Time::ZERO)?.pkt)
    }

    /// The inbound hot path, descriptor-driven like
    /// [`NatTable::translate_outbound_frame`].
    pub fn translate_inbound_frame(&mut self, frame: Frame, now: Time) -> Result<Frame, NatError> {
        let tuple = frame.meta.tuple.ok_or(NatError::NotTranslatable)?;
        let Some(&(int_ip, int_port)) = self.inbound.get(&(tuple.proto, tuple.dst_port)) else {
            self.misses += 1;
            let fid = self.tel.adopt_frame_id(frame.meta.frame_id);
            self.trace(fid, now, TraceVerdict::Miss, &frame);
            return Err(NatError::NoMapping {
                proto: tuple.proto,
                port: tuple.dst_port,
            });
        };
        let out = mutate::rewrite_endpoints_owned(frame, None, Some((int_ip, int_port)))
            .map_err(|_| NatError::NotTranslatable)?;
        self.translated_in += 1;
        let out = self.tag_frame(out);
        self.trace(out.meta.frame_id, now, TraceVerdict::Hit, &out);
        Ok(out)
    }

    /// Ensures the (rewritten) frame carries a nonzero lifecycle id,
    /// allocating one from the hub when the input was untagged. The id
    /// rides in the descriptor, so the NIC downstream adopts it.
    fn tag_frame(&self, frame: Frame) -> Frame {
        let fid = self.tel.adopt_frame_id(frame.meta.frame_id);
        if fid == frame.meta.frame_id {
            return frame;
        }
        let mut meta = frame.meta;
        meta.frame_id = fid;
        Frame {
            pkt: frame.pkt.with_meta(meta),
            meta,
        }
    }

    /// Registers NAT counters and occupancy into the unified registry.
    pub fn fill_registry(&self, reg: &mut telemetry::Registry) {
        reg.set_counter("nat.translated_out", self.translated_out);
        reg.set_counter("nat.translated_in", self.translated_in);
        reg.set_counter("nat.misses", self.misses);
        reg.set_counter("nat.mappings", self.inbound.len() as u64);
        reg.set_counter("nat.static_mappings", self.statics.len() as u64);
    }

    /// Installs a static inbound rule (port forward): traffic to
    /// `(proto, ext_port)` on the external address is rewritten to
    /// `internal`, and outbound traffic from `internal` masquerades with
    /// the same external port. Charges one SRAM entry; refuses ports
    /// already mapped (dynamically or statically).
    pub fn install_static(
        &mut self,
        proto: IpProto,
        ext_port: u16,
        internal: (Ipv4Addr, u16),
        sram: &mut Sram,
    ) -> Result<(), NatError> {
        if self.inbound.contains_key(&(proto, ext_port)) {
            return Err(NatError::Conflict {
                proto,
                port: ext_port,
            });
        }
        sram.alloc(SramCategory::Nat, NAT_ENTRY_BYTES)?;
        self.inbound.insert((proto, ext_port), internal);
        self.statics.insert((proto, ext_port), internal);
        self.outbound
            .insert((internal.0, internal.1, proto), ext_port);
        Ok(())
    }

    /// Removes a static rule, returning its SRAM. `false` when no such
    /// rule exists.
    pub(crate) fn remove_static(&mut self, proto: IpProto, ext_port: u16, sram: &mut Sram) -> bool {
        let Some(internal) = self.statics.remove(&(proto, ext_port)) else {
            return false;
        };
        self.inbound.remove(&(proto, ext_port));
        self.outbound.remove(&(internal.0, internal.1, proto));
        sram.release(SramCategory::Nat, NAT_ENTRY_BYTES);
        true
    }

    /// Removes every static rule (control-plane bundle teardown).
    pub fn clear_statics(&mut self, sram: &mut Sram) {
        let keys: Vec<(IpProto, u16)> = self.statics.keys().copied().collect();
        for (proto, port) in keys {
            self.remove_static(proto, port, sram);
        }
    }

    /// Re-charges SRAM for every resident mapping after a device crash
    /// wiped the on-NIC tables to zero. The kernel still holds the
    /// authoritative mappings (this table is kernel memory) and
    /// re-installs their device copies wholesale during recovery, so the
    /// fresh SRAM must account for them before any entry can be removed
    /// again — otherwise the first removal would over-free.
    pub fn restore_charges(&self, sram: &mut Sram) -> Result<(), crate::sram::SramError> {
        sram.alloc(
            SramCategory::Nat,
            self.inbound.len() as u64 * NAT_ENTRY_BYTES,
        )
    }

    /// Number of installed static rules.
    pub fn num_statics(&self) -> usize {
        self.statics.len()
    }

    /// The internal endpoint a static rule forwards `(proto, ext_port)`
    /// to, if one is installed (audit hook; non-mutating, no miss count).
    pub fn static_target(&self, proto: IpProto, ext_port: u16) -> Option<(Ipv4Addr, u16)> {
        self.statics.get(&(proto, ext_port)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::{FiveTuple, Mac, PacketBuilder};

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn outbound_pkt(src: &str, sport: u16) -> Packet {
        PacketBuilder::new()
            .ether(Mac::local(1), Mac::local(2))
            .ipv4(addr(src), addr("8.8.8.8"))
            .udp(sport, 53, b"query")
            .build()
    }

    fn setup() -> (NatTable, Sram) {
        (NatTable::new(addr("203.0.113.1")), Sram::new(1 << 20))
    }

    #[test]
    fn outbound_masquerades_and_inbound_restores() {
        let (mut nat, mut sram) = setup();
        let out = nat
            .translate_outbound(outbound_pkt("192.168.1.10", 5555), &mut sram)
            .unwrap();
        let parsed = out.parse().unwrap();
        let ft = FiveTuple::from_parsed(&parsed).unwrap();
        assert_eq!(ft.src_ip, addr("203.0.113.1"));
        assert!(ft.src_port >= 32_768);

        // The reply comes back to the external endpoint.
        let reply = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("8.8.8.8"), addr("203.0.113.1"))
            .udp(53, ft.src_port, b"answer")
            .build();
        let restored = nat.translate_inbound(reply).unwrap();
        let rt = FiveTuple::from_parsed(&restored.parse().unwrap()).unwrap();
        assert_eq!(rt.dst_ip, addr("192.168.1.10"));
        assert_eq!(rt.dst_port, 5555);
        assert_eq!(nat.counters(), (1, 1, 0));
    }

    #[test]
    fn same_flow_reuses_mapping() {
        let (mut nat, mut sram) = setup();
        let a = nat
            .translate_outbound(outbound_pkt("192.168.1.10", 5555), &mut sram)
            .unwrap();
        let b = nat
            .translate_outbound(outbound_pkt("192.168.1.10", 5555), &mut sram)
            .unwrap();
        let pa = FiveTuple::from_parsed(&a.parse().unwrap()).unwrap();
        let pb = FiveTuple::from_parsed(&b.parse().unwrap()).unwrap();
        assert_eq!(pa.src_port, pb.src_port);
        assert_eq!(nat.len(), 1);
        assert_eq!(sram.used_by(SramCategory::Nat), NAT_ENTRY_BYTES);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let (mut nat, mut sram) = setup();
        let mut ports = std::collections::HashSet::new();
        for host in 0..50u8 {
            let out = nat
                .translate_outbound(outbound_pkt(&format!("192.168.1.{host}"), 5555), &mut sram)
                .unwrap();
            ports.insert(
                FiveTuple::from_parsed(&out.parse().unwrap())
                    .unwrap()
                    .src_port,
            );
        }
        assert_eq!(ports.len(), 50);
        assert_eq!(nat.len(), 50);
    }

    #[test]
    fn unknown_inbound_is_dropped_with_miss() {
        let (mut nat, _) = setup();
        let stray = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("8.8.8.8"), addr("203.0.113.1"))
            .udp(53, 40_000, b"stray")
            .build();
        assert!(matches!(
            nat.translate_inbound(stray),
            Err(NatError::NoMapping { port: 40_000, .. })
        ));
        assert_eq!(nat.counters().2, 1);
    }

    #[test]
    fn sram_exhaustion_refuses_new_flows() {
        let mut nat = NatTable::new(addr("203.0.113.1"));
        let mut sram = Sram::new(NAT_ENTRY_BYTES * 2);
        nat.translate_outbound(outbound_pkt("192.168.1.1", 1), &mut sram)
            .unwrap();
        nat.translate_outbound(outbound_pkt("192.168.1.2", 1), &mut sram)
            .unwrap();
        let err = nat.translate_outbound(outbound_pkt("192.168.1.3", 1), &mut sram);
        assert!(matches!(err, Err(NatError::Sram(_))));
        // Existing flows still translate.
        assert!(nat
            .translate_outbound(outbound_pkt("192.168.1.1", 1), &mut sram)
            .is_ok());
    }

    #[test]
    fn static_rules_forward_conflict_and_release() {
        let (mut nat, mut sram) = setup();
        nat.install_static(IpProto::UDP, 8053, (addr("192.168.1.10"), 53), &mut sram)
            .unwrap();
        assert_eq!(nat.num_statics(), 1);
        assert_eq!(
            nat.static_target(IpProto::UDP, 8053),
            Some((addr("192.168.1.10"), 53))
        );
        assert_eq!(sram.used_by(SramCategory::Nat), NAT_ENTRY_BYTES);

        // Inbound traffic to the forwarded port reaches the internal host.
        let inbound = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("8.8.8.8"), addr("203.0.113.1"))
            .udp(5353, 8053, b"query")
            .build();
        let fwd = nat.translate_inbound(inbound).unwrap();
        let ft = FiveTuple::from_parsed(&fwd.parse().unwrap()).unwrap();
        assert_eq!((ft.dst_ip, ft.dst_port), (addr("192.168.1.10"), 53));

        // A second rule on the same port conflicts.
        assert!(matches!(
            nat.install_static(IpProto::UDP, 8053, (addr("192.168.1.11"), 53), &mut sram),
            Err(NatError::Conflict { port: 8053, .. })
        ));

        // Removal returns the SRAM.
        assert!(nat.remove_static(IpProto::UDP, 8053, &mut sram));
        assert_eq!(sram.used_by(SramCategory::Nat), 0);
        let late = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4(addr("8.8.8.8"), addr("203.0.113.1"))
            .udp(5353, 8053, b"late")
            .build();
        assert!(matches!(
            nat.translate_inbound(late),
            Err(NatError::NoMapping { port: 8053, .. })
        ));
    }

    #[test]
    fn clear_statics_releases_everything_but_dynamics() {
        let (mut nat, mut sram) = setup();
        nat.translate_outbound(outbound_pkt("192.168.1.50", 9999), &mut sram)
            .unwrap();
        nat.install_static(IpProto::UDP, 8053, (addr("192.168.1.10"), 53), &mut sram)
            .unwrap();
        nat.install_static(IpProto::UDP, 8054, (addr("192.168.1.11"), 53), &mut sram)
            .unwrap();
        assert_eq!(sram.used_by(SramCategory::Nat), 3 * NAT_ENTRY_BYTES);
        nat.clear_statics(&mut sram);
        assert_eq!(nat.num_statics(), 0);
        assert_eq!(sram.used_by(SramCategory::Nat), NAT_ENTRY_BYTES);
        // The dynamic mapping still translates.
        assert!(nat
            .translate_outbound(outbound_pkt("192.168.1.50", 9999), &mut sram)
            .is_ok());
    }

    #[test]
    fn arp_is_not_translatable() {
        let (mut nat, mut sram) = setup();
        let arp = PacketBuilder::arp_request(Mac::local(1), addr("1.1.1.1"), addr("2.2.2.2"));
        assert!(matches!(
            nat.translate_outbound(arp, &mut sram),
            Err(NatError::NotTranslatable)
        ));
    }

    #[test]
    fn translated_checksums_always_verify() {
        // The parse() in translate paths verifies the IP checksum; run a
        // chain of translations and ensure every product parses.
        let (mut nat, mut sram) = setup();
        for i in 0..20u16 {
            let out = nat
                .translate_outbound(outbound_pkt("192.168.1.77", 1000 + i), &mut sram)
                .unwrap();
            assert!(out.parse().is_ok());
        }
    }
}
