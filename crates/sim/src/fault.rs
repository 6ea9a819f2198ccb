//! Deterministic fault injection for the wire.
//!
//! The paper argues kernel interposition must survive hostile reality —
//! loss, corruption, duplication, reordering, and reconfiguration outages
//! (§2, §5) — but a perfect simulated pipe can't exercise any of that.
//! This module adds a seeded, replayable chaos layer:
//!
//! * [`FaultInjector`] issues a per-packet [`Verdict`] from its own
//!   xorshift-derived stream, so fault decisions never perturb the
//!   workload RNG and the same seed replays the identical verdict
//!   sequence.
//! * [`FaultSchedule`] composes a steady or Gilbert–Elliott bursty loss
//!   process with corruption/duplication/reorder rates, extra-delay
//!   jitter, and timed outage windows (modelling e.g. a link flap during
//!   bitstream reprogram).
//! * [`FaultyLink`] wraps a [`Link`] and applies verdicts at
//!   serialization time, mutating the frame bytes for corruption so the
//!   receive side's checksum verification — not injector bookkeeping —
//!   is what catches the damage.
//!
//! Everything is pure state machine over `(Time, frame)`: no wall clock,
//! no global RNG, no allocation beyond the frames themselves.

use crate::link::Link;
use crate::time::{Dur, Time};

/// What the injector decided to do with one frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Deliver untouched.
    Deliver,
    /// Drop silently; the frame never reaches the far end.
    Drop,
    /// Flip bits somewhere in the frame, then deliver.
    Corrupt,
    /// Deliver the frame and a byte-identical copy right behind it.
    Duplicate,
    /// Hold the frame and release it after a later frame (bounded window).
    Reorder,
    /// Deliver after additional queueing delay.
    Delay,
}

/// The loss process driving [`Verdict::Drop`] decisions.
#[derive(Clone, Copy, Debug)]
pub enum LossModel {
    /// Never drop.
    None,
    /// Independent per-packet loss with the given probability.
    Steady(f64),
    /// Two-state Gilbert–Elliott model: `p_good_to_bad`/`p_bad_to_good`
    /// are per-packet transition probabilities, and packets drop with
    /// `loss_good`/`loss_bad` depending on the current state. Captures
    /// bursty loss that independent sampling can't.
    GilbertElliott {
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    },
}

/// A composable description of when and how the wire misbehaves.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    /// Loss process (evaluated first; a dropped frame gets no other fault).
    pub loss: LossModel,
    /// Per-packet probability of bit corruption.
    pub corrupt_rate: f64,
    /// Per-packet probability of duplication.
    pub duplicate_rate: f64,
    /// Per-packet probability of being held for in-window reordering.
    pub reorder_rate: f64,
    /// Maximum frames a reordered frame may slip behind.
    pub reorder_window: u32,
    /// Per-packet probability of extra queueing delay.
    pub delay_rate: f64,
    /// Upper bound of the uniformly sampled extra delay.
    pub max_extra_delay: Dur,
    /// Closed-open `[start, end)` windows during which every frame drops
    /// (link flap / reprogram outage).
    pub outages: Vec<(Time, Time)>,
}

impl FaultSchedule {
    /// A schedule that never injects anything (the perfect pipe).
    pub fn ideal() -> FaultSchedule {
        FaultSchedule {
            loss: LossModel::None,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 0,
            delay_rate: 0.0,
            max_extra_delay: Dur::ZERO,
            outages: Vec::new(),
        }
    }

    /// Steady independent loss at `rate`.
    pub fn steady_loss(rate: f64) -> FaultSchedule {
        FaultSchedule {
            loss: LossModel::Steady(rate),
            ..FaultSchedule::ideal()
        }
    }

    /// Random bit corruption at `rate` (loss-free otherwise).
    pub fn corrupting(rate: f64) -> FaultSchedule {
        FaultSchedule {
            corrupt_rate: rate,
            ..FaultSchedule::ideal()
        }
    }

    /// Bursty Gilbert–Elliott loss with typical WAN-ish parameters scaled
    /// so the long-run loss rate is roughly `target_rate`.
    pub fn bursty_loss(target_rate: f64) -> FaultSchedule {
        // Stationary P(bad) = g2b / (g2b + b2g) = 0.1; loss_bad chosen so
        // stationary loss ≈ target.
        FaultSchedule {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.09,
                loss_good: 0.0,
                loss_bad: (target_rate * 10.0).clamp(0.0, 1.0),
            },
            ..FaultSchedule::ideal()
        }
    }

    /// Returns `true` if `at` falls inside an outage window.
    pub(crate) fn in_outage(&self, at: Time) -> bool {
        self.outages.iter().any(|&(s, e)| at >= s && at < e)
    }
}

/// Counters for every fault the injector has issued.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames examined.
    pub(crate) frames: u64,
    /// Frames delivered untouched.
    pub(crate) delivered: u64,
    /// Frames dropped by the loss process.
    pub dropped: u64,
    /// Frames dropped because they fell inside an outage window.
    pub outage_dropped: u64,
    /// Frames bit-corrupted.
    pub corrupted: u64,
    /// Frames duplicated.
    pub(crate) duplicated: u64,
    /// Frames held for reordering.
    pub(crate) reordered: u64,
    /// Frames given extra delay.
    pub(crate) delayed: u64,
}

/// xorshift64* — small, fast, and completely self-contained; the injector
/// deliberately does not share the workload's xoshiro stream so enabling
/// faults cannot shift workload arrivals.
#[derive(Clone, Debug)]
struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    fn new(seed: u64) -> XorShift64Star {
        // Zero is the one forbidden state.
        XorShift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    fn range(&mut self, n: u64) -> u64 {
        // Multiply-shift; bias is irrelevant for fault sampling.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A seeded, replayable source of per-packet fault verdicts.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    rng: XorShift64Star,
    in_bad_state: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `schedule`, with its own stream derived
    /// from `seed`.
    pub fn new(seed: u64, schedule: FaultSchedule) -> FaultInjector {
        // Run the seed through splitmix so nearby seeds diverge.
        let mut sm = seed;
        let expanded = crate::rng::splitmix64(&mut sm);
        FaultInjector {
            schedule,
            rng: XorShift64Star::new(expanded),
            in_bad_state: false,
            stats: FaultStats::default(),
        }
    }

    /// Returns the counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one frame transmitted at `at`.
    ///
    /// Exactly one `rng` consumption path runs per call in a fixed order
    /// (loss state → loss → corrupt → duplicate → reorder → delay), so a
    /// verdict sequence is a pure function of `(seed, schedule, call
    /// sequence)`.
    pub fn verdict(&mut self, at: Time) -> Verdict {
        self.stats.frames += 1;

        if self.schedule.in_outage(at) {
            self.stats.outage_dropped += 1;
            return Verdict::Drop;
        }

        let lost = match self.schedule.loss {
            LossModel::None => false,
            LossModel::Steady(p) => self.rng.chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.in_bad_state {
                    self.rng.chance(p_bad_to_good)
                } else {
                    self.rng.chance(p_good_to_bad)
                };
                if flip {
                    self.in_bad_state = !self.in_bad_state;
                }
                let p = if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                self.rng.chance(p)
            }
        };
        if lost {
            self.stats.dropped += 1;
            return Verdict::Drop;
        }

        if self.rng.chance(self.schedule.corrupt_rate) {
            self.stats.corrupted += 1;
            return Verdict::Corrupt;
        }
        if self.rng.chance(self.schedule.duplicate_rate) {
            self.stats.duplicated += 1;
            return Verdict::Duplicate;
        }
        if self.schedule.reorder_window > 0 && self.rng.chance(self.schedule.reorder_rate) {
            self.stats.reordered += 1;
            return Verdict::Reorder;
        }
        if self.rng.chance(self.schedule.delay_rate) {
            self.stats.delayed += 1;
            return Verdict::Delay;
        }

        self.stats.delivered += 1;
        Verdict::Deliver
    }

    /// Samples a uniform extra delay in `(0, max_extra_delay]`.
    pub(crate) fn extra_delay(&mut self) -> Dur {
        let max = self.schedule.max_extra_delay.0;
        if max == 0 {
            return Dur::ZERO;
        }
        Dur(self.rng.range(max) + 1)
    }

    /// Flips one to three bits of `frame` at injector-chosen offsets.
    /// Empty frames are left alone.
    pub(crate) fn corrupt_bytes(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let flips = 1 + self.rng.range(3);
        for _ in 0..flips {
            let byte = self.rng.range(frame.len() as u64) as usize;
            let bit = self.rng.range(8) as u8;
            frame[byte] ^= 1 << bit;
        }
    }

    /// Samples how many later frames a reordered frame slips behind
    /// (`1..=reorder_window`).
    pub(crate) fn reorder_slip(&mut self) -> u32 {
        let w = self.schedule.reorder_window.max(1) as u64;
        (self.rng.range(w) + 1) as u32
    }
}

/// A frame that made it through the chaos layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDelivery {
    /// Arrival instant at the far end.
    pub at: Time,
    /// Frame bytes as they arrive (possibly corrupted).
    pub frame: Vec<u8>,
}

/// A frame held back for reordering.
#[derive(Clone, Debug)]
struct HeldFrame {
    /// Deliver once this many more frames have been transmitted.
    release_after: u32,
    frame: Vec<u8>,
}

/// A [`Link`] wrapped in a fault injector.
///
/// `transmit` consults the injector per frame and returns every delivery
/// the far end should observe — possibly none (drop/outage), possibly two
/// (duplicate), possibly a previously held frame released out of order.
#[derive(Clone, Debug)]
pub struct FaultyLink {
    link: Link,
    injector: FaultInjector,
    held: Vec<HeldFrame>,
}

impl FaultyLink {
    /// Wraps `link` with a fault injector seeded by `seed`.
    pub fn new(link: Link, seed: u64, schedule: FaultSchedule) -> FaultyLink {
        FaultyLink {
            link,
            injector: FaultInjector::new(seed, schedule),
            held: Vec::new(),
        }
    }

    /// Returns the injector's counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Transmits `frame` at `at`, returning the deliveries the far end
    /// observes (in arrival order).
    pub fn transmit(&mut self, at: Time, frame: Vec<u8>) -> Vec<WireDelivery> {
        let mut out = Vec::new();
        let verdict = self.injector.verdict(at);

        // The wire is occupied by the serialization attempt even when the
        // frame is ultimately lost — drops happen on the wire, not before.
        let arrival = self.link.transmit(at, frame.len() as u64);

        // Count this transmission against frames held by earlier calls —
        // before the verdict below can hold the current frame, so a slip
        // of 1 means "after the next transmission", never "immediately".
        let mut released = Vec::new();
        self.held.retain_mut(|h| {
            if h.release_after <= 1 {
                released.push(std::mem::take(&mut h.frame));
                false
            } else {
                h.release_after -= 1;
                true
            }
        });

        match verdict {
            Verdict::Drop => {}
            Verdict::Deliver => out.push(WireDelivery { at: arrival, frame }),
            Verdict::Corrupt => {
                let mut damaged = frame;
                self.injector.corrupt_bytes(&mut damaged);
                out.push(WireDelivery {
                    at: arrival,
                    frame: damaged,
                });
            }
            Verdict::Duplicate => {
                let copy = frame.clone();
                let dup_arrival = self.link.transmit(arrival, copy.len() as u64);
                out.push(WireDelivery { at: arrival, frame });
                out.push(WireDelivery {
                    at: dup_arrival,
                    frame: copy,
                });
            }
            Verdict::Reorder => {
                self.held.push(HeldFrame {
                    release_after: self.injector.reorder_slip(),
                    frame,
                });
            }
            Verdict::Delay => {
                let extra = self.injector.extra_delay();
                out.push(WireDelivery {
                    at: arrival + extra,
                    frame,
                });
            }
        }

        for frame in released {
            let arrival = self.link.transmit(at, frame.len() as u64);
            out.push(WireDelivery { at: arrival, frame });
        }

        out
    }

    /// Releases every still-held frame (end of run / link teardown).
    pub fn flush(&mut self, at: Time) -> Vec<WireDelivery> {
        let mut out = Vec::new();
        for h in self.held.drain(..) {
            let arrival = self.link.transmit(at, h.frame.len() as u64);
            out.push(WireDelivery {
                at: arrival,
                frame: h.frame,
            });
        }
        out
    }

    /// Returns how many frames are currently held for reordering.
    #[cfg(test)]
    pub(crate) fn held_frames(&self) -> usize {
        self.held.len()
    }
}

/// A seeded, replayable fault stream for *control-plane operations* (as
/// opposed to the per-packet [`FaultInjector`]). A policy commit asks it
/// once per apply step whether that step fails; the answer sequence is a
/// pure function of the seed and plan, so chaos runs replay bit-identically.
#[derive(Clone, Debug)]
pub struct OpFaultInjector {
    plan: OpFaultPlan,
    rng: XorShift64Star,
    ops: u64,
    injected: u64,
}

#[derive(Clone, Debug)]
enum OpFaultPlan {
    Never,
    /// Fail exactly the `n`th op (1-based), succeed everywhere else.
    Nth(u64),
    /// Fail each op independently with probability `rate`.
    Rate(f64),
}

impl OpFaultInjector {
    /// An injector that never fails an operation.
    pub fn never() -> OpFaultInjector {
        OpFaultInjector {
            plan: OpFaultPlan::Never,
            rng: XorShift64Star::new(1),
            ops: 0,
            injected: 0,
        }
    }

    /// Fails exactly the `n`th operation (1-based) it is asked about,
    /// then recovers. `n == 0` never fails.
    pub fn fail_nth(n: u64) -> OpFaultInjector {
        OpFaultInjector {
            plan: if n == 0 {
                OpFaultPlan::Never
            } else {
                OpFaultPlan::Nth(n)
            },
            rng: XorShift64Star::new(1),
            ops: 0,
            injected: 0,
        }
    }

    /// Fails each operation independently with probability `rate`, from a
    /// stream derived from `seed` (own stream: enabling op faults never
    /// perturbs packet-level fault sampling).
    pub fn seeded_rate(seed: u64, rate: f64) -> OpFaultInjector {
        let mut sm = seed;
        let expanded = crate::rng::splitmix64(&mut sm);
        OpFaultInjector {
            plan: OpFaultPlan::Rate(rate),
            rng: XorShift64Star::new(expanded),
            ops: 0,
            injected: 0,
        }
    }

    /// Decides whether the next operation fails. Advances the stream.
    pub fn should_fail(&mut self) -> bool {
        self.ops += 1;
        let fail = match self.plan {
            OpFaultPlan::Never => false,
            OpFaultPlan::Nth(n) => self.ops == n,
            OpFaultPlan::Rate(rate) => self.rng.chance(rate),
        };
        if fail {
            self.injected += 1;
        }
        fail
    }

    /// Total operations consulted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total failures injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// A seeded, replayable *device-crash* schedule: whereas
/// [`OpFaultInjector`] fails individual control operations (the commit
/// path sees an error and rolls back), a crash verdict kills the whole
/// device — volatile state is gone and only a kernel-driven reset brings
/// it back. The device ticks the injector once per dataplane or control
/// op, so a crash can land at an arbitrary instruction boundary, and the
/// tick sequence is a pure function of `(seed, plan, op sequence)` —
/// crash storms replay bit-identically.
#[derive(Clone, Debug)]
pub struct CrashInjector {
    plan: CrashPlan,
    rng: XorShift64Star,
    ops: u64,
    crashes: u64,
}

#[derive(Clone, Debug)]
enum CrashPlan {
    Never,
    /// Crash exactly at the `n`th op (1-based), then stay quiet.
    AtOp(u64),
    /// Crash each op independently with probability `rate` (a storm).
    Rate(f64),
}

impl CrashInjector {
    /// An injector that never crashes the device.
    pub fn never() -> CrashInjector {
        CrashInjector {
            plan: CrashPlan::Never,
            rng: XorShift64Star::new(1),
            ops: 0,
            crashes: 0,
        }
    }

    /// Crashes the device exactly at the `n`th op (1-based) it is asked
    /// about, never again. `n == 0` never crashes.
    pub fn at_op(n: u64) -> CrashInjector {
        CrashInjector {
            plan: if n == 0 {
                CrashPlan::Never
            } else {
                CrashPlan::AtOp(n)
            },
            rng: XorShift64Star::new(1),
            ops: 0,
            crashes: 0,
        }
    }

    /// Crashes at each op independently with probability `rate`, from a
    /// stream derived from `seed` (own stream: enabling crash storms
    /// never perturbs packet- or op-level fault sampling).
    pub fn seeded_rate(seed: u64, rate: f64) -> CrashInjector {
        let mut sm = seed;
        let expanded = crate::rng::splitmix64(&mut sm);
        CrashInjector {
            plan: CrashPlan::Rate(rate),
            rng: XorShift64Star::new(expanded),
            ops: 0,
            crashes: 0,
        }
    }

    /// Decides whether the device crashes at the next op. Advances the
    /// stream.
    pub fn should_crash(&mut self) -> bool {
        self.ops += 1;
        let crash = match self.plan {
            CrashPlan::Never => false,
            CrashPlan::AtOp(n) => self.ops == n,
            CrashPlan::Rate(rate) => self.rng.chance(rate),
        };
        if crash {
            self.crashes += 1;
        }
        crash
    }

    /// Total operations consulted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total crashes issued.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn ideal_schedule_delivers_everything() {
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 1, FaultSchedule::ideal());
        for i in 0..100 {
            let out = fl.transmit(Time::from_us(i), frame(200));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].frame, frame(200));
        }
        let s = fl.fault_stats();
        assert_eq!(s.frames, 100);
        assert_eq!(s.delivered, 100);
        assert_eq!(s.dropped + s.corrupted + s.duplicated + s.reordered, 0);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let sched = FaultSchedule {
            loss: LossModel::Steady(0.2),
            corrupt_rate: 0.1,
            duplicate_rate: 0.05,
            reorder_rate: 0.05,
            reorder_window: 4,
            delay_rate: 0.1,
            max_extra_delay: Dur::from_us(5),
            outages: vec![(Time::from_us(100), Time::from_us(200))],
        };
        let mut a = FaultInjector::new(99, sched.clone());
        let mut b = FaultInjector::new(99, sched);
        for i in 0..1000 {
            let t = Time::from_us(i);
            assert_eq!(a.verdict(t), b.verdict(t));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let sched = FaultSchedule::steady_loss(0.5);
        let mut a = FaultInjector::new(1, sched.clone());
        let mut b = FaultInjector::new(2, sched);
        let diverged = (0..100).any(|i| {
            let t = Time::from_us(i);
            a.verdict(t) != b.verdict(t)
        });
        assert!(diverged);
    }

    #[test]
    fn steady_loss_rate_is_close() {
        let mut inj = FaultInjector::new(7, FaultSchedule::steady_loss(0.1));
        for i in 0..20_000 {
            inj.verdict(Time::from_ns(i));
        }
        let s = inj.stats();
        let rate = s.dropped as f64 / s.frames as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed loss {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With bursty loss the conditional P(loss | previous loss) should
        // far exceed the marginal loss rate.
        let mut inj = FaultInjector::new(11, FaultSchedule::bursty_loss(0.05));
        let mut prev_lost = false;
        let mut losses = 0u64;
        let mut after_loss = 0u64;
        let mut after_loss_lost = 0u64;
        let n = 50_000;
        for i in 0..n {
            let lost = inj.verdict(Time::from_ns(i)) == Verdict::Drop;
            if lost {
                losses += 1;
            }
            if prev_lost {
                after_loss += 1;
                if lost {
                    after_loss_lost += 1;
                }
            }
            prev_lost = lost;
        }
        let marginal = losses as f64 / n as f64;
        let conditional = after_loss_lost as f64 / after_loss as f64;
        assert!(
            conditional > marginal * 2.0,
            "marginal {marginal}, conditional {conditional}"
        );
    }

    #[test]
    fn outage_window_drops_everything_inside() {
        let sched = FaultSchedule {
            outages: vec![(Time::from_us(10), Time::from_us(20))],
            ..FaultSchedule::ideal()
        };
        let mut inj = FaultInjector::new(3, sched);
        assert_eq!(inj.verdict(Time::from_us(9)), Verdict::Deliver);
        assert_eq!(inj.verdict(Time::from_us(10)), Verdict::Drop);
        assert_eq!(inj.verdict(Time::from_us(19)), Verdict::Drop);
        assert_eq!(inj.verdict(Time::from_us(20)), Verdict::Deliver);
        assert_eq!(inj.stats().outage_dropped, 2);
    }

    #[test]
    fn corruption_changes_bytes_and_preserves_length() {
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 5, FaultSchedule::corrupting(1.0));
        let original = frame(128);
        let out = fl.transmit(Time::ZERO, original.clone());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame.len(), original.len());
        assert_ne!(out[0].frame, original);
        // Damage is small: at most 3 bytes differ.
        let diff = out[0]
            .frame
            .iter()
            .zip(&original)
            .filter(|(a, b)| a != b)
            .count();
        assert!((1..=3).contains(&diff));
    }

    #[test]
    fn duplicate_yields_two_identical_frames() {
        let sched = FaultSchedule {
            duplicate_rate: 1.0,
            ..FaultSchedule::ideal()
        };
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 5, sched);
        let out = fl.transmit(Time::ZERO, frame(100));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].frame, out[1].frame);
        assert!(out[0].at < out[1].at);
    }

    #[test]
    fn reorder_holds_then_releases_within_window() {
        let sched = FaultSchedule {
            reorder_rate: 1.0,
            reorder_window: 2,
            ..FaultSchedule::ideal()
        };
        // Only the first frame can be held: after one hold the injector
        // keeps trying to hold everything, so use a schedule where the
        // rate drops after — simplest is to drive the injector manually.
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 9, sched);
        let out1 = fl.transmit(Time::ZERO, vec![1]);
        assert!(out1.is_empty());
        assert_eq!(fl.held_frames(), 1);
        // Subsequent frames are also held (rate 1.0) but the first's slip
        // counts down; within `window` more transmissions it reappears.
        let mut seen_first = false;
        for i in 1..=3u64 {
            for d in fl.transmit(Time::from_us(i), vec![1 + i as u8]) {
                if d.frame == vec![1] {
                    seen_first = true;
                }
            }
        }
        let flushed = fl.flush(Time::from_us(10));
        seen_first |= flushed.iter().any(|d| d.frame == vec![1]);
        assert!(seen_first, "held frame was lost");
    }

    #[test]
    fn flush_releases_held_frames() {
        let sched = FaultSchedule {
            reorder_rate: 1.0,
            reorder_window: 100,
            ..FaultSchedule::ideal()
        };
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 13, sched);
        assert!(fl.transmit(Time::ZERO, frame(64)).is_empty());
        let out = fl.flush(Time::from_us(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame, frame(64));
        assert_eq!(fl.held_frames(), 0);
    }

    #[test]
    fn delay_pushes_arrival_later() {
        let sched = FaultSchedule {
            delay_rate: 1.0,
            max_extra_delay: Dur::from_us(50),
            ..FaultSchedule::ideal()
        };
        let mut plain = Link::hundred_gbe();
        let baseline = plain.transmit(Time::ZERO, 200);
        let mut fl = FaultyLink::new(Link::hundred_gbe(), 17, sched);
        let out = fl.transmit(Time::ZERO, frame(200));
        assert_eq!(out.len(), 1);
        assert!(out[0].at > baseline);
        assert!(out[0].at <= baseline + Dur::from_us(50));
    }

    #[test]
    fn faulty_link_replay_is_byte_identical() {
        let sched = FaultSchedule {
            loss: LossModel::Steady(0.1),
            corrupt_rate: 0.2,
            duplicate_rate: 0.1,
            reorder_rate: 0.1,
            reorder_window: 3,
            delay_rate: 0.1,
            max_extra_delay: Dur::from_us(2),
            outages: Vec::new(),
        };
        let run = |seed: u64| {
            let mut fl = FaultyLink::new(Link::hundred_gbe(), seed, sched.clone());
            let mut all = Vec::new();
            for i in 0..500u64 {
                all.extend(fl.transmit(Time::from_us(i), frame(64 + (i % 100) as usize)));
            }
            all.extend(fl.flush(Time::from_us(1000)));
            all
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn crash_injector_modes() {
        let mut never = CrashInjector::never();
        assert!((0..100).all(|_| !never.should_crash()));
        assert_eq!(never.ops(), 100);
        assert_eq!(never.crashes(), 0);

        let mut at = CrashInjector::at_op(4);
        let fired: Vec<bool> = (0..6).map(|_| at.should_crash()).collect();
        assert_eq!(fired, vec![false, false, false, true, false, false]);
        assert_eq!(at.crashes(), 1);

        assert!(!CrashInjector::at_op(0).should_crash());

        let draw = |seed: u64| {
            let mut inj = CrashInjector::seeded_rate(seed, 0.5);
            (0..64).map(|_| inj.should_crash()).collect::<Vec<bool>>()
        };
        assert_eq!(draw(5), draw(5), "same seed replays the same stream");
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn op_fault_injector_modes() {
        let mut never = OpFaultInjector::never();
        assert!((0..100).all(|_| !never.should_fail()));
        assert_eq!(never.ops(), 100);
        assert_eq!(never.injected(), 0);

        let mut nth = OpFaultInjector::fail_nth(3);
        let fired: Vec<bool> = (0..5).map(|_| nth.should_fail()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(nth.injected(), 1);

        assert!(!OpFaultInjector::fail_nth(0).should_fail());

        let draw = |seed: u64| {
            let mut inj = OpFaultInjector::seeded_rate(seed, 0.5);
            (0..64).map(|_| inj.should_fail()).collect::<Vec<bool>>()
        };
        assert_eq!(draw(7), draw(7), "same seed replays the same stream");
        assert_ne!(draw(7), draw(8));
    }
}
