//! On-NIC congestion control.
//!
//! §4.2 lists congestion control among the interposition logic the
//! on-SmartNIC dataplane implements — the NIC, not the application,
//! decides how fast each connection may inject. This module implements a
//! DCTCP-style controller: ECN marks from the bottleneck AQM (see
//! [`qdisc::Red`]) are echoed on acknowledgements; the controller keeps a
//! per-window marked fraction estimate `alpha` and backs the window off
//! proportionally (`cwnd *= 1 - alpha/2`), with classic additive
//! increase, multiplicative loss backoff, and a one-MSS floor.
//!
//! Putting this on the NIC is exactly the kernel-interposition argument:
//! a bypass application could run any congestion control *it* likes (or
//! none); only an isolated on-path layer makes the host's aggregate
//! behaviour trustworthy.

use std::collections::HashMap;

use crate::flowtable::ConnId;

/// Controller parameters.
#[derive(Clone, Copy, Debug)]
pub struct CcParams {
    /// Segment size in bytes (additive-increase step).
    pub(crate) mss: u32,
    /// Initial window in bytes.
    pub(crate) init_cwnd: u32,
    /// Maximum window in bytes.
    pub(crate) max_cwnd: u32,
    /// DCTCP gain for the alpha EWMA (reference value 1/16).
    pub(crate) g: f64,
}

impl Default for CcParams {
    fn default() -> CcParams {
        CcParams {
            mss: 1500,
            init_cwnd: 15_000,    // 10 MSS
            max_cwnd: 12_500_000, // 100 Gbps x 1 ms
            g: 1.0 / 16.0,
        }
    }
}

/// Per-flow controller state.
#[derive(Clone, Debug)]
pub struct FlowCc {
    /// Congestion window in bytes.
    pub cwnd: f64,
    /// DCTCP marked-fraction estimate.
    pub(crate) alpha: f64,
    /// Bytes in flight.
    pub(crate) inflight: u64,
    acked_in_window: u64,
    marked_in_window: u64,
    window_target: u64,
}

impl FlowCc {
    fn new(params: &CcParams) -> FlowCc {
        FlowCc {
            cwnd: f64::from(params.init_cwnd),
            alpha: 0.0,
            inflight: 0,
            acked_in_window: 0,
            marked_in_window: 0,
            window_target: u64::from(params.init_cwnd),
        }
    }
}

/// The NIC's congestion-control engine.
pub struct CongestionControl {
    params: CcParams,
    flows: HashMap<ConnId, FlowCc>,
    backoffs: u64,
    losses: u64,
}

impl CongestionControl {
    /// Creates an engine.
    pub fn new(params: CcParams) -> CongestionControl {
        CongestionControl {
            params,
            flows: HashMap::new(),
            backoffs: 0,
            losses: 0,
        }
    }

    /// Registers a flow.
    pub fn open(&mut self, conn: ConnId) {
        self.flows.insert(conn, FlowCc::new(&self.params));
    }

    /// Returns a flow's state.
    pub fn flow(&self, conn: ConnId) -> Option<&FlowCc> {
        self.flows.get(&conn)
    }

    /// Returns (ECN backoffs, loss backoffs).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.backoffs, self.losses)
    }

    /// May `conn` inject `bytes` more right now?
    pub fn can_send(&self, conn: ConnId, bytes: u32) -> bool {
        match self.flows.get(&conn) {
            Some(f) => (f.inflight + u64::from(bytes)) as f64 <= f.cwnd,
            None => false,
        }
    }

    /// Records an injection.
    pub fn on_send(&mut self, conn: ConnId, bytes: u32) {
        if let Some(f) = self.flows.get_mut(&conn) {
            f.inflight += u64::from(bytes);
        }
    }

    /// Processes an acknowledgement covering `bytes`, with the receiver's
    /// ECN echo.
    pub fn on_ack(&mut self, conn: ConnId, bytes: u32, ecn_echo: bool) {
        let params = self.params;
        let Some(f) = self.flows.get_mut(&conn) else {
            return;
        };
        f.inflight = f.inflight.saturating_sub(u64::from(bytes));
        f.acked_in_window += u64::from(bytes);
        if ecn_echo {
            f.marked_in_window += u64::from(bytes);
        }
        if f.acked_in_window >= f.window_target {
            // End of a congestion window: update alpha and react.
            let frac = f.marked_in_window as f64 / f.acked_in_window as f64;
            f.alpha = (1.0 - params.g) * f.alpha + params.g * frac;
            // Standard additive increase every window (one MSS per RTT),
            // plus DCTCP's alpha-proportional decrease when the window
            // saw marks. Equilibrium: mss ≈ cwnd * alpha / 2.
            f.cwnd += f64::from(params.mss);
            if f.marked_in_window > 0 {
                f.cwnd *= 1.0 - f.alpha / 2.0;
                self.backoffs += 1;
            }
            f.cwnd = f
                .cwnd
                .clamp(f64::from(params.mss), f64::from(params.max_cwnd));
            f.acked_in_window = 0;
            f.marked_in_window = 0;
            f.window_target = f.cwnd as u64;
        }
    }

    /// Processes a loss signal (timeout/retransmit): classic halving.
    pub fn on_loss(&mut self, conn: ConnId) {
        let params = self.params;
        if let Some(f) = self.flows.get_mut(&conn) {
            f.cwnd = (f.cwnd / 2.0).max(f64::from(params.mss));
            f.alpha = (f.alpha + 1.0) / 2.0;
            self.losses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdisc::{QPkt, Qdisc, Red, RedConfig, RedDecision};
    use sim::Time;

    fn engine() -> CongestionControl {
        CongestionControl::new(CcParams::default())
    }

    #[test]
    fn additive_increase_without_marks() {
        let mut cc = engine();
        cc.open(ConnId(1));
        let w0 = cc.flow(ConnId(1)).unwrap().cwnd;
        // Ack two full windows unmarked.
        for _ in 0..2 {
            let target = cc.flow(ConnId(1)).unwrap().cwnd as u32;
            cc.on_send(ConnId(1), target);
            cc.on_ack(ConnId(1), target, false);
        }
        let w2 = cc.flow(ConnId(1)).unwrap().cwnd;
        assert!(
            (w2 - w0 - 3000.0).abs() < 1.0,
            "two MSS of growth, got {}",
            w2 - w0
        );
    }

    #[test]
    fn fully_marked_window_halves() {
        let mut cc = engine();
        cc.open(ConnId(1));
        // Drive alpha to ~1 with several fully marked windows.
        for _ in 0..60 {
            let target = cc.flow(ConnId(1)).unwrap().cwnd as u32;
            cc.on_send(ConnId(1), target);
            cc.on_ack(ConnId(1), target, true);
        }
        let f = cc.flow(ConnId(1)).unwrap();
        assert!(f.alpha > 0.9, "alpha {}", f.alpha);
        // With alpha ~1, each window multiplies by ~0.5; cwnd is at the
        // floor by now.
        assert!(f.cwnd <= 2.0 * 1500.0, "cwnd {}", f.cwnd);
    }

    #[test]
    fn alpha_tracks_marking_fraction() {
        let mut cc = engine();
        cc.open(ConnId(1));
        // 10% of bytes marked, many windows: alpha converges near 0.1.
        for _ in 0..200 {
            let target = cc.flow(ConnId(1)).unwrap().window_target;
            let marked = target / 10;
            cc.on_send(ConnId(1), target as u32);
            cc.on_ack(ConnId(1), marked as u32, true);
            cc.on_ack(ConnId(1), (target - marked) as u32, false);
        }
        let alpha = cc.flow(ConnId(1)).unwrap().alpha;
        assert!((0.05..0.2).contains(&alpha), "alpha {alpha}");
    }

    #[test]
    fn gentle_marking_backs_off_gently() {
        // DCTCP's point: 10% marking cuts the window ~5%, not 50%.
        let mut cc = engine();
        cc.open(ConnId(1));
        for _ in 0..100 {
            let target = cc.flow(ConnId(1)).unwrap().window_target;
            let marked = target / 10;
            cc.on_send(ConnId(1), target as u32);
            cc.on_ack(ConnId(1), marked as u32, true);
            cc.on_ack(ConnId(1), (target - marked) as u32, false);
        }
        // Steady state: growth (1 MSS) balances backoff (alpha/2 * cwnd).
        // With alpha ~0.1, cwnd settles near 2*mss/alpha = 30000.
        let f = cc.flow(ConnId(1)).unwrap();
        assert!(
            (10_000.0..80_000.0).contains(&f.cwnd),
            "equilibrium cwnd {}",
            f.cwnd
        );
    }

    #[test]
    fn loss_halves_and_floors() {
        let mut cc = engine();
        cc.open(ConnId(1));
        for _ in 0..30 {
            cc.on_loss(ConnId(1));
        }
        assert_eq!(cc.flow(ConnId(1)).unwrap().cwnd, 1500.0);
        assert_eq!(cc.counters().1, 30);
    }

    #[test]
    fn can_send_respects_window() {
        let mut cc = engine();
        cc.open(ConnId(1));
        assert!(cc.can_send(ConnId(1), 15_000));
        cc.on_send(ConnId(1), 15_000);
        assert!(!cc.can_send(ConnId(1), 1));
        cc.on_ack(ConnId(1), 1500, false);
        assert!(cc.can_send(ConnId(1), 1500));
        // Unknown flows cannot send at all.
        assert!(!cc.can_send(ConnId(9), 1));
    }

    /// Two flows through one RED bottleneck converge to similar windows —
    /// DCTCP fairness, end to end through the qdisc.
    #[test]
    fn two_flows_converge_through_red() {
        let mut cc = engine();
        cc.open(ConnId(1));
        cc.open(ConnId(2));
        // Give flow 1 a huge head start.
        cc.flows.get_mut(&ConnId(1)).unwrap().cwnd = 600_000.0;
        cc.flows.get_mut(&ConnId(2)).unwrap().cwnd = 15_000.0;

        let mut red = Red::new(
            RedConfig {
                min_th: 10.0,
                max_th: 200.0,
                max_p: 0.3,
                weight: 0.05,
            },
            4096,
        );
        // Fluid round-based simulation: each "RTT", each flow injects a
        // window of 1500B packets; the RED queue marks; marks are echoed.
        let mut id = 0u64;
        for _round in 0..400 {
            for conn in [ConnId(1), ConnId(2)] {
                let window = cc.flow(conn).unwrap().cwnd as u64;
                let pkts = (window / 1500).max(1);
                for _ in 0..pkts {
                    let decision = red
                        .enqueue_ecn(QPkt::new(id, 1500, Time::ZERO), Time::ZERO)
                        .unwrap_or(RedDecision::Mark); // overflow = mark hard
                    id += 1;
                    cc.on_send(conn, 1500);
                    cc.on_ack(conn, 1500, decision == RedDecision::Mark);
                }
            }
            // Bottleneck drains between rounds.
            while red.dequeue(Time::ZERO).is_some() {}
        }
        let w1 = cc.flow(ConnId(1)).unwrap().cwnd;
        let w2 = cc.flow(ConnId(2)).unwrap().cwnd;
        let ratio = w1.max(w2) / w1.min(w2);
        assert!(ratio < 2.5, "flows did not converge: {w1} vs {w2}");
        assert!(cc.counters().0 > 0, "ECN backoffs happened");
    }
}
