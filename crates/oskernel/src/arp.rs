//! The kernel ARP cache and responder.
//!
//! §2's debugging scenario begins: "Without kernel bypass, Alice can
//! inspect her server's ARP cache and ifconfig to determine if her
//! server is the source of the problem." On a Norman host ARP stays a
//! kernel (slow-path) protocol: the NIC punts ARP frames to the kernel,
//! which maintains this cache and answers who-has requests for the
//! host's address — so the cache exists for Alice to inspect.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use pkt::{ArpOp, ArpPacket, FrameMeta, Mac, Packet, PacketBuilder};
use sim::Time;

/// One cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpEntry {
    /// The resolved hardware address.
    pub mac: Mac,
    /// When it was learned/refreshed.
    pub(crate) updated: Time,
}

/// The kernel ARP cache + responder for one interface.
pub struct ArpCache {
    my_ip: Ipv4Addr,
    my_mac: Mac,
    entries: HashMap<Ipv4Addr, ArpEntry>,
    requests_answered: u64,
    replies_learned: u64,
}

impl ArpCache {
    /// Creates the cache for an interface with address `my_ip`/`my_mac`.
    pub fn new(my_ip: Ipv4Addr, my_mac: Mac) -> ArpCache {
        ArpCache {
            my_ip,
            my_mac,
            entries: HashMap::new(),
            requests_answered: 0,
            replies_learned: 0,
        }
    }

    /// Returns the entry for `ip`.
    #[cfg(test)]
    pub(crate) fn lookup(&self, ip: Ipv4Addr) -> Option<&ArpEntry> {
        self.entries.get(&ip)
    }

    /// Returns all entries (the `ip neigh`/`arp -a` view Alice inspects),
    /// sorted by address.
    pub fn entries(&self) -> Vec<(Ipv4Addr, ArpEntry)> {
        let mut v: Vec<(Ipv4Addr, ArpEntry)> =
            self.entries.iter().map(|(&ip, &e)| (ip, e)).collect();
        v.sort_by_key(|&(ip, _)| ip);
        v
    }

    /// Returns (requests answered, replies learned).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.requests_answered, self.replies_learned)
    }

    /// Processes an ARP frame from the wire. Learns the sender mapping
    /// and, for who-has requests targeting this host, returns the reply
    /// frame to transmit.
    pub fn handle(&mut self, frame: &Packet, now: Time) -> Option<Packet> {
        let meta = FrameMeta::of(frame).ok()?;
        self.handle_meta(frame, &meta, now)
    }

    /// [`ArpCache::handle`] with the parse-once descriptor supplied by
    /// the caller (the KOPI slow path hands down the NIC's descriptor).
    /// Only the 28 ARP payload bytes are decoded — the descriptor already
    /// establishes the frame class and offsets.
    pub fn handle_meta(&mut self, frame: &Packet, meta: &FrameMeta, now: Time) -> Option<Packet> {
        if !meta.is_arp() {
            return None;
        }
        let arp = ArpPacket::parse(&frame.bytes()[meta.payload().start..]).ok()?;
        // Learn (or refresh) the sender's mapping, as kernels do for any
        // ARP traffic that names us or that we already track.
        if arp.sender_ip != Ipv4Addr::UNSPECIFIED {
            let known = self.entries.contains_key(&arp.sender_ip);
            if arp.target_ip == self.my_ip || known {
                self.entries.insert(
                    arp.sender_ip,
                    ArpEntry {
                        mac: arp.sender_mac,
                        updated: now,
                    },
                );
                if arp.op == ArpOp::Reply {
                    self.replies_learned += 1;
                }
            }
        }
        if arp.op == ArpOp::Request && arp.target_ip == self.my_ip {
            self.requests_answered += 1;
            return Some(PacketBuilder::arp_reply(&arp, self.my_mac));
        }
        None
    }

    /// Builds a who-has request the kernel would send to resolve `ip`.
    #[cfg(test)]
    pub(crate) fn request_for(&self, ip: Ipv4Addr) -> Packet {
        PacketBuilder::arp_request(self.my_mac, self.my_ip, ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::Payload;

    fn cache() -> ArpCache {
        ArpCache::new("10.0.0.1".parse().unwrap(), Mac::local(1))
    }

    fn who_has(sender_ip: &str, sender_mac: Mac, target: &str) -> Packet {
        PacketBuilder::arp_request(
            sender_mac,
            sender_ip.parse().unwrap(),
            target.parse().unwrap(),
        )
    }

    #[test]
    fn answers_requests_for_own_address() {
        let mut c = cache();
        let req = who_has("10.0.0.2", Mac::local(2), "10.0.0.1");
        let reply = c.handle(&req, Time::ZERO).expect("must answer");
        let parsed = reply.parse().unwrap();
        match parsed.payload {
            Payload::Arp(arp) => {
                assert_eq!(arp.op, ArpOp::Reply);
                assert_eq!(arp.sender_mac, Mac::local(1));
                assert_eq!(arp.sender_ip, "10.0.0.1".parse::<Ipv4Addr>().unwrap());
                assert_eq!(arp.target_mac, Mac::local(2));
            }
            other => panic!("expected ARP, got {other:?}"),
        }
        assert_eq!(parsed.ether.dst, Mac::local(2));
        assert_eq!(c.counters().0, 1);
    }

    #[test]
    fn ignores_requests_for_other_hosts() {
        let mut c = cache();
        let req = who_has("10.0.0.2", Mac::local(2), "10.0.0.3");
        assert!(c.handle(&req, Time::ZERO).is_none());
    }

    #[test]
    fn learns_requester_mapping() {
        let mut c = cache();
        c.handle(
            &who_has("10.0.0.2", Mac::local(2), "10.0.0.1"),
            Time::from_ms(5),
        );
        let e = c.lookup("10.0.0.2".parse().unwrap()).unwrap();
        assert_eq!(e.mac, Mac::local(2));
        assert_eq!(e.updated, Time::from_ms(5));
    }

    #[test]
    fn learns_replies_to_own_requests() {
        let mut c = cache();
        let our_req = c.request_for("10.0.0.9".parse().unwrap());
        // Peer replies.
        let parsed = our_req.parse().unwrap();
        let Payload::Arp(req) = parsed.payload else {
            unreachable!()
        };
        let reply = PacketBuilder::arp_reply(&req, Mac::local(9));
        c.handle(&reply, Time::ZERO);
        assert_eq!(
            c.lookup("10.0.0.9".parse().unwrap()).unwrap().mac,
            Mac::local(9)
        );
        assert_eq!(c.counters().1, 1);
    }

    #[test]
    fn refresh_updates_timestamp_and_mac() {
        let mut c = cache();
        c.handle(&who_has("10.0.0.2", Mac::local(2), "10.0.0.1"), Time::ZERO);
        c.handle(
            &who_has("10.0.0.2", Mac::local(7), "10.0.0.1"),
            Time::from_secs(1),
        );
        let e = c.lookup("10.0.0.2".parse().unwrap()).unwrap();
        assert_eq!(e.mac, Mac::local(7));
        assert_eq!(e.updated, Time::from_secs(1));
    }

    #[test]
    fn entries_view_is_sorted() {
        let mut c = cache();
        c.handle(&who_has("10.0.0.9", Mac::local(9), "10.0.0.1"), Time::ZERO);
        c.handle(&who_has("10.0.0.2", Mac::local(2), "10.0.0.1"), Time::ZERO);
        let rows = c.entries();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 < rows[1].0);
    }

    #[test]
    fn non_arp_frames_ignored() {
        let mut c = cache();
        let udp = PacketBuilder::new()
            .ether(Mac::local(2), Mac::local(1))
            .ipv4("10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap())
            .udp(1, 2, b"x")
            .build();
        assert!(c.handle(&udp, Time::ZERO).is_none());
        assert!(c.entries().is_empty());
    }
}
