//! E4c — the process-scheduling scenario: blocking I/O vs polling.
//!
//! Paper anchor (§2, Process Scheduling): "With kernel bypass the
//! blocking option is not available since the kernel is not able to
//! detect packet arrivals in the dataplane to 'wake' an application. As
//! a consequence, Charlie and Bob are forced to use non-blocking
//! operations and poll for packets, 'burning' CPU cores unnecessarily."
//! §4.3 adds Norman's fix: the NIC posts to a notification queue and the
//! kernel wakes blocked threads, optionally via interrupts for
//! low-activity queues.
//!
//! We run an intermittent server at request rates from 100/s to 1M/s for
//! one simulated second under three modes and report CPU utilization of
//! one core: bypass-polling (spin), KOPI-blocking (notification queue +
//! interrupt), and kernel-blocking (syscall-based, for reference).

use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::IpProto;
use serde::Serialize;
use sim::{DetRng, Dur, Time};
use workloads::PoissonArrivals;

use crate::scenario::{udp_to_host, PEER_IP};
use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct Row {
    mode: &'static str,
    rate_per_sec: f64,
    cpu_utilization: f64,
    efficiency: f64,
    wakeups: u64,
}

const RUN: Time = Time(sim::time::PS_PER_S); // 1 simulated second
/// Application work per request (parse + handle), beyond the recv itself.
const WORK_PER_REQ: Dur = Dur(2_000_000); // 2 us

fn run_mode(mode: &'static str, rate: f64) -> Row {
    let mut host = Host::new(HostConfig::default());
    let pid = host.spawn(Uid(1001), "bob", "server");
    let blocking = mode != "bypass-polling";
    // Adaptive mode (the §4.3 "enable interrupts for notification queues
    // with low activity"): when the gap since the last request is shorter
    // than the break-even threshold (~2 context switches), stay running
    // and spin briefly instead of paying the block/wake pair.
    let adaptive_threshold = Dur::from_us(8);
    let conn = host
        .connect(pid, IpProto::UDP, 7000, PEER_IP, 9000, blocking)
        .unwrap();
    let pktbuf = udp_to_host(&host, 9000, 7000, &[0u8; 128]);

    let mut arrivals = PoissonArrivals::new(rate, DetRng::seed_from_u64(42));
    let mut last_event = Time::ZERO;
    let mut wakeups = 0u64;

    // For the kernel mode, the per-request overhead adds syscall cost on
    // top of the same blocking discipline.
    let kernel_extra = host.stack.costs().syscalls.io_call(170);

    loop {
        let arrival = arrivals.next_arrival();
        if arrival > RUN {
            break;
        }
        let now = arrival;
        match mode {
            "bypass-polling" => {
                // The app span between events is all spin.
                host.sched.charge_polling(pid, now - last_event);
            }
            _ => {
                // The app blocked after the previous request; the idle
                // span costs nothing. (block/wake switching is charged by
                // the scheduler.)
            }
        }
        let rep = host.deliver_from_wire(&pktbuf, now);
        assert!(matches!(rep.outcome, DeliveryOutcome::FastPath(_)));
        if blocking {
            let gap = now - last_event;
            if mode == "kopi-adaptive" && gap < adaptive_threshold {
                // High activity: poll through the short gap instead of
                // blocking (the whole gap is burned spinning).
                host.sched.charge_polling(pid, gap);
            } else if host.sched.block(pid, now, &mut host.procs) {
                // Low activity: block and let this arrival's interrupt
                // wake us, charging the context-switch pair.
                host.sched.wake(pid, now, &mut host.procs);
                wakeups += 1;
            }
        }
        let r = host.app_recv(conn, now, false);
        assert!(r.len.is_some());
        host.sched.charge_busy(pid, WORK_PER_REQ);
        if mode == "kernel-blocking" {
            host.sched.charge_busy(pid, kernel_extra);
        }
        last_event = now;
    }
    if mode == "bypass-polling" {
        host.sched.charge_polling(pid, RUN - last_event);
    }

    let meter = host.sched.meter(pid);
    Row {
        mode,
        rate_per_sec: rate,
        cpu_utilization: (meter.total().as_secs_f64() / RUN.as_secs_f64()).min(1.0),
        efficiency: meter.efficiency(),
        wakeups,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let rates = [100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
    let mut rows = Vec::new();
    for &rate in &rates {
        for mode in [
            "bypass-polling",
            "kopi-blocking",
            "kopi-adaptive",
            "kernel-blocking",
        ] {
            rows.push(run_mode(mode, rate));
        }
    }

    let util = |mode: &str, rate: f64| {
        rows.iter()
            .find(|r| r.mode == mode && r.rate_per_sec == rate)
            .unwrap()
            .cpu_utilization
    };
    let wakeups = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.rate_per_sec == 1_000_000.0)
            .unwrap()
            .wakeups
    };
    let below_1m = &rates[..4];
    let claims = vec![
        claim(
            "e4c/polling-burns-the-core",
            rates.iter().all(|&r| util("bypass-polling", r) > 0.99),
        ),
        claim(
            "e4c/kopi-blocking-idles-near-zero",
            util("kopi-blocking", 100.0) < 0.01,
        ),
        claim(
            "e4c/kopi-blocking-tracks-load",
            util("kopi-blocking", 1_000_000.0) > 0.5,
        ),
        // No per-request syscalls: KOPI blocking is no dearer than
        // kernel blocking, and both beat polling below 1M req/s.
        claim(
            "e4c/kopi-blocking-at-most-kernel",
            below_1m
                .iter()
                .all(|&r| util("kopi-blocking", r) <= util("kernel-blocking", r)),
        ),
        claim(
            "e4c/kernel-blocking-beats-polling",
            below_1m
                .iter()
                .all(|&r| util("kernel-blocking", r) < util("bypass-polling", r)),
        ),
        // §4.3: interrupts only for low-activity queues matches pure
        // blocking when idle and halves the wakeups under load.
        claim(
            "e4c/adaptive-idles-near-zero",
            util("kopi-adaptive", 100.0) < 0.01,
        ),
        claim(
            "e4c/adaptive-halves-wakeups",
            wakeups("kopi-adaptive") < wakeups("kopi-blocking") / 2,
        ),
    ];
    Outcome::new(&rows, claims)
}
