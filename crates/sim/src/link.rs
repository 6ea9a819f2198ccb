//! Fixed-rate link model.
//!
//! A [`Link`] models the serialization pipe of a NIC port: packets occupy
//! the wire back-to-back at the configured line rate, plus a fixed
//! propagation delay. The model tracks when the wire next becomes free so
//! bursts queue behind each other exactly as on real hardware.

use crate::time::{Dur, Time};

/// Ethernet overhead per frame on the wire: preamble (7) + SFD (1) +
/// inter-packet gap (12) bytes.
pub(crate) const WIRE_OVERHEAD_BYTES: u64 = 20;

/// Minimum Ethernet frame size (without wire overhead).
pub(crate) const MIN_FRAME_BYTES: u64 = 64;

/// A point-to-point link with a fixed line rate.
#[derive(Clone, Debug)]
pub struct Link {
    gbps: f64,
    propagation: Dur,
    next_free: Time,
}

impl Link {
    /// Creates a link at `gbps` gigabits per second with the given
    /// propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn new(gbps: f64, propagation: Dur) -> Link {
        assert!(gbps > 0.0, "line rate must be positive");
        Link {
            gbps,
            propagation,
            next_free: Time::ZERO,
        }
    }

    /// Creates a 100 Gbps link with 500 ns propagation (same-rack scale),
    /// the configuration of the paper's testbed.
    pub fn hundred_gbe() -> Link {
        Link::new(100.0, Dur::from_ns(500))
    }

    /// Returns the serialization time of a frame of `bytes` (padded to the
    /// Ethernet minimum, plus preamble/IPG wire overhead).
    pub fn serialization(&self, bytes: u64) -> Dur {
        let on_wire = bytes.max(MIN_FRAME_BYTES) + WIRE_OVERHEAD_BYTES;
        // bits / (Gbps) = ns; work in f64 then round to ps.
        Dur::from_ns_f64((on_wire * 8) as f64 / self.gbps)
    }

    /// Transmits a frame of `bytes` starting no earlier than `at`.
    ///
    /// Returns the instant the last bit arrives at the far end. The wire is
    /// occupied until arrival minus propagation; back-to-back sends queue.
    pub fn transmit(&mut self, at: Time, bytes: u64) -> Time {
        let start = at.max(self.next_free);
        let done_serializing = start + self.serialization(bytes);
        self.next_free = done_serializing;
        done_serializing + self.propagation
    }

    /// Returns the instant the wire next becomes free.
    pub fn next_free(&self) -> Time {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_at_100g_is_672ns_per_kilo() {
        // A 64B frame is 84B on the wire = 672 bits = 6.72 ns at 100 Gbps.
        let link = Link::hundred_gbe();
        assert_eq!(link.serialization(64), Dur::from_ps(6_720));
        // Small frames are padded.
        assert_eq!(link.serialization(1), link.serialization(64));
    }

    #[test]
    fn mtu_frame_serialization() {
        let link = Link::hundred_gbe();
        // 1500B + 20B overhead = 1520B = 12160 bits = 121.6 ns.
        assert_eq!(link.serialization(1500), Dur::from_ps(121_600));
    }

    #[test]
    fn back_to_back_sends_queue() {
        let mut link = Link::new(100.0, Dur::ZERO);
        let t0 = Time::ZERO;
        let a = link.transmit(t0, 64);
        let b = link.transmit(t0, 64);
        assert_eq!(a, Time(6_720));
        assert_eq!(b, Time(13_440));
    }

    #[test]
    fn idle_wire_sends_immediately() {
        let mut link = Link::new(100.0, Dur::from_ns(500));
        link.transmit(Time::ZERO, 64);
        // Long after the wire freed up, a send starts at its own time.
        let arrival = link.transmit(Time::from_us(1), 64);
        assert_eq!(
            arrival,
            Time::from_us(1) + Dur::from_ps(6_720) + Dur::from_ns(500)
        );
    }

    #[test]
    fn propagation_adds_to_arrival_only() {
        let mut link = Link::new(100.0, Dur::from_ns(500));
        let arrival = link.transmit(Time::ZERO, 64);
        assert_eq!(arrival, Time(6_720 + 500_000));
        // The wire frees at serialization end, not arrival.
        assert_eq!(link.next_free(), Time(6_720));
    }

    #[test]
    fn max_mpps_for_min_frames() {
        let link = Link::hundred_gbe();
        let mpps = 1e3 / link.serialization(64).as_ns_f64();
        // 100 Gbps / 672 bits ≈ 148.8 Mpps, the classic line-rate figure.
        assert!((mpps - 148.8).abs() < 0.1, "mpps {mpps}");
    }

    #[test]
    #[should_panic(expected = "line rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Link::new(0.0, Dur::ZERO);
    }
}
