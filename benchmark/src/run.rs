//! One measurement pass: repeated set-up, warm-up, equal timed segments,
//! drain, audit — and the end-to-end run built from it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use memsim::LlcStats;
use nicsim::device::NicStats;
use nicsim::FlowStats;
use norman::host::HostStats;
use pkt::ArenaStats;
use sim::Dur;

use crate::json::Value;
use crate::spans::{NoTrace, Tracer};
use crate::stats::Summary;
use crate::workload::{Acc, Kind, Rig, Spec};

/// Timed segments of an end-to-end run. A segment's size depends only
/// on the workload and `--seconds`; smoke and traced runs have fewer
/// segments, never smaller ones, so a segment always does the same work.
pub const SEGMENTS: usize = 1024;
/// Set-up is repeated on fresh hosts until this much has been sampled in
/// all…
const SETUP_SAMPLE_SECONDS: f64 = 2.0;
/// …in one slice before the warm-up and this many more of the same length
/// spread evenly over the second half of the timed region, between
/// segments.
/// This machine's slow phases can last most of a run, so set-up has to be
/// sampled wherever the quiet stretches are, as the segments are. The
/// first half runs with one host in the process and ends by reading
/// `peak_rss_mb`: with a second host coming and going beside the measured
/// one, the peak depends on which freed memory the allocator recycles (a
/// 6 MB trace ring that is reserved and never written costs nothing in
/// fresh memory and all of it in recycled) and jumped between two values
/// 12 % apart.
const SETUP_SLICES: usize = 32;
/// The first slice makes at least this many repetitions.
const SETUP_MIN_REPS: usize = 20;
/// A flow is taken to last this many frames when its `connect` is charged
/// to `sim_kernel_cpu_ns_per_frame` (see [`measure`]).
const FLOW_LIFETIME_FRAMES: u64 = 1_000_000;
/// `--smoke` divides the segment count by this.
pub const SMOKE_DIVISOR: usize = 64;
/// A traced run has this fraction of the segments.
pub const TRACE_DIVISOR: usize = 4;

/// The end-to-end metrics, with units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_ns_per_frame", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_host_cpu_ns_per_frame", "vns"),
    ("sim_kernel_cpu_ns_per_frame", "vns"),
    ("sim_mem_ns_per_frame", "vns"),
    ("sim_nic_latency_ns_p50", "vns"),
    ("sim_nic_latency_ns_p99", "vns"),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub spec: &'static Spec,
    /// Input seed.
    pub seed: u64,
    /// Measurement length; fixes the frame count (see
    /// [`Spec::frames_per_second`]).
    pub seconds: u64,
    /// Per-layer run (spans + replays) instead of the end-to-end run.
    pub trace: bool,
    /// 1/64 of the frames through the same code paths.
    pub smoke: bool,
    /// Where detail files go; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

/// How a run is cut up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Frames per segment.
    pub seg_frames: u64,
    /// Timed segments.
    pub segments: usize,
    /// Untimed segments before them (caches, hot tier, allocator warm):
    /// 1/64 of the timed ones.
    pub warmup: usize,
}

impl Opts {
    /// The plan of this run; `quantum` is [`Rig::quantum`].
    pub fn plan(&self, quantum: u64) -> Plan {
        let frames = self.spec.frames_per_second * self.seconds;
        let mut segments = SEGMENTS;
        if self.smoke {
            segments /= SMOKE_DIVISOR;
        }
        if self.trace {
            segments /= TRACE_DIVISOR;
        }
        Plan {
            seg_frames: (frames / SEGMENTS as u64 / quantum).max(1) * quantum,
            segments,
            warmup: (segments / 64).max(1),
        }
    }
}

/// A run's result: the line the benchmark prints.
#[derive(Clone, Debug)]
pub struct Report {
    /// Audit clean, arena drained, every metric positive and (traced
    /// run) simulated metrics equal to the untraced pass's.
    pub correct: bool,
    /// Frames offered, warm-up included.
    pub attempted: u64,
    /// Frames whose outcome was not the expected one.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why `correct` is false (also in the detail file).
    pub problems: Vec<String>,
}

impl Report {
    /// The value of one metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result object, exactly as the contract wants it.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for &(name, value, unit) in &self.metrics {
            metrics.set(name, Value::obj().with("value", value).with("unit", unit));
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Every counter the per-layer metrics read, sampled from the host.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// `Host::stats()`.
    pub host: HostStats,
    /// `host.nic.stats()`.
    pub nic: NicStats,
    /// `host.nic.flows.stats()`.
    pub flows: FlowStats,
    /// `host.llc().stats()`.
    pub llc: LlcStats,
    /// `host.mmio.writes()`.
    pub mmio_writes: u64,
    /// `host.mmio.time_spent()`.
    pub mmio_time: Dur,
    /// `host.kernel_cpu`.
    pub kernel_cpu: Dur,
    /// `host.arena().stats()`.
    pub arena: ArenaStats,
    /// `nic.sched.dropped` from `Host::metrics_snapshot()`.
    pub sched_dropped: u64,
    /// Trace events pushed to the hub (buffered + evicted).
    pub tel_events: u64,
    /// Trace events evicted from the in-memory ring.
    pub tel_evicted: u64,
}

impl Counters {
    /// Samples `rig`'s host.
    pub fn sample(rig: &Rig) -> Counters {
        let host = &rig.host;
        let tel = host.telemetry();
        Counters {
            host: host.stats(),
            nic: host.nic.stats(),
            flows: host.nic.flows.stats(),
            llc: host.llc().stats(),
            mmio_writes: host.mmio.writes(),
            mmio_time: host.mmio.time_spent(),
            kernel_cpu: host.kernel_cpu,
            arena: host.arena().stats(),
            sched_dropped: host
                .metrics_snapshot()
                .counter("nic.sched.dropped")
                .unwrap_or(0),
            tel_events: tel.len() as u64 + tel.evicted(),
            tel_evicted: tel.evicted(),
        }
    }
}

/// The five simulated (virtual-time) metrics. Deterministic for a fixed
/// seed and frame count: compared with `==`, never with a tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMetrics {
    /// `sim_host_cpu_ns_per_frame`.
    pub host_cpu: f64,
    /// `sim_kernel_cpu_ns_per_frame`.
    pub kernel_cpu: f64,
    /// `sim_mem_ns_per_frame`.
    pub mem: f64,
    /// `sim_nic_latency_ns_p50`.
    pub latency_p50: f64,
    /// `sim_nic_latency_ns_p99`.
    pub latency_p99: f64,
}

impl SimMetrics {
    /// In `END_TO_END` order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.host_cpu,
            self.kernel_cpu,
            self.mem,
            self.latency_p50,
            self.latency_p99,
        ]
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// Frames per segment.
    pub seg_frames: u64,
    /// Host nanoseconds per frame of each timed segment.
    pub seg_ns: Vec<f64>,
    /// Same for the warm-up segments (detail only).
    pub warm_ns: Vec<f64>,
    /// Simulated-cost accumulators over the timed region.
    pub acc: Acc,
    /// Frames offered in all, warm-up included.
    pub attempted: u64,
    /// Outcome failures in all, warm-up included.
    pub failed: u64,
    /// Counters when the timed region began.
    pub before: Counters,
    /// Counters when it ended (after the final TX drain).
    pub after: Counters,
    /// The simulated metrics.
    pub sim: SimMetrics,
    /// Correctness violations found after the drain.
    pub problems: Vec<String>,
}

impl Pass {
    /// Frames in the timed region.
    pub fn frames(&self) -> u64 {
        self.acc.frames
    }

    /// The reported estimate: the third-fastest segment.
    pub fn host_ns_per_frame(&self) -> f64 {
        Summary::of(&self.seg_ns).low
    }
}

/// Warm-up, timed segments, drain and audit on a rig that was just set
/// up. Consumes the rig: the arena must drain to zero once the frame
/// pool and every ring is empty. `between(done)` runs, untimed, after
/// each timed segment (`done` of them so far).
pub fn measure<T: Tracer>(
    mut rig: Rig,
    plan: Plan,
    tr: &mut T,
    between: &mut dyn FnMut(usize),
) -> Pass {
    let seg_frames = plan.seg_frames;
    // One live commit per segment, so every segment does the same work.
    rig.commit_every = seg_frames;
    let mut warm_acc = Acc::default();
    let segment = |rig: &mut Rig, id: usize, acc: &mut Acc, tr: &mut T| {
        tr.begin_segment(id as u32);
        let start = Instant::now();
        rig.drive(seg_frames, acc, tr);
        let ns = start.elapsed().as_nanos() as f64 / seg_frames as f64;
        tr.end_segment();
        ns
    };
    let warm_ns: Vec<f64> = (0..plan.warmup)
        .map(|id| segment(&mut rig, id, &mut warm_acc, tr))
        .collect();

    let before = Counters::sample(&rig);
    let mut acc = Acc::default();
    let seg_ns: Vec<f64> = (0..plan.segments)
        .map(|id| {
            let ns = segment(&mut rig, plan.warmup + id, &mut acc, tr);
            between(id + 1);
            ns
        })
        .collect();
    if rig.spec.kind == Kind::TxShaped {
        rig.drain_tx(&mut acc, tr);
    }
    let after = Counters::sample(&rig);

    let mut problems = Vec::new();
    if rig.spec.kind == Kind::TxShaped && rig.departed != rig.sent {
        problems.push(format!(
            "tx conservation: {} frames accepted but {} departed",
            rig.sent, rig.departed
        ));
    }
    let frames = acc.frames as f64;
    let ns = |ps: u128| ps as f64 / 1e3 / frames;
    let mem_ps = match rig.spec.kind {
        // RX: DMA and cache cost of landing the frame in its ring.
        Kind::RxBurst { .. } | Kind::RxScale => acc.mem_ps,
        // TX has no delivery report; its uncached traffic is the doorbells.
        Kind::TxShaped => u128::from((after.mmio_time - before.mmio_time).0),
    };
    let sim = SimMetrics {
        host_cpu: ns(acc.host_cpu_ps),
        // What the kernel was charged over the timed region (slow path,
        // live commits), plus one flow's `connect` per million frames.
        // On a pure fast path the first part is exactly 0, which is the
        // paper's claim, but the contract forbids a metric that reads 0
        // (bounds are shares of the median), so every flow pays for its
        // set-up over a fixed lifetime: a constant, whatever `--seconds`
        // says and however many flows the workload opens.
        kernel_cpu: ns(u128::from((after.kernel_cpu - before.kernel_cpu).0))
            + rig.connect_kernel_cpu.0 as f64
                / 1e3
                / rig.flows.len() as f64
                / FLOW_LIFETIME_FRAMES as f64,
        mem: ns(mem_ps),
        latency_p50: acc.latency.quantile(0.50) as f64,
        latency_p99: acc.latency.quantile(0.99) as f64,
    };

    problems.extend(rig.finish());
    Pass {
        seg_frames,
        seg_ns,
        warm_ns,
        attempted: warm_acc.frames + acc.frames,
        failed: warm_acc.failed + acc.failed,
        acc,
        before,
        after,
        sim,
        problems,
    }
}

/// One slice of set-up sampling: fresh hosts, one at a time, until
/// `seconds` were sampled and `min_reps` made. Returns the seconds each
/// repetition took and the last rig. Dropping the previous host is not
/// part of the sample.
pub fn sample_setup(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    min_reps: usize,
) -> (Vec<f64>, Rig) {
    let mut samples = Vec::new();
    let mut total = 0.0;
    loop {
        let start = Instant::now();
        let rig = Rig::setup(spec, seed, &mut NoTrace);
        let s = start.elapsed().as_secs_f64();
        samples.push(s);
        total += s;
        if samples.len() >= min_reps && total >= seconds {
            return (samples, rig);
        }
    }
}

/// `VmHWM` of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `value` to `<out_dir>/<name>`; failures are reported, not fatal.
pub fn write_detail(out_dir: Option<&Path>, name: &str, value: &Value) {
    let Some(dir) = out_dir else { return };
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(name), value.to_line() + "\n"));
    if let Err(e) = write {
        eprintln!(
            "normanbench: cannot write {}: {e}",
            dir.join(name).display()
        );
    }
}

fn summary_json(s: &Summary) -> Value {
    Value::obj()
        .with("n", s.n)
        .with("third_fastest", s.low)
        .with("p10", s.p10)
        .with("p50", s.p50)
        .with("p90", s.p90)
        .with("mean", s.mean)
}

/// What a pass adds to a detail file.
pub fn pass_json(pass: &Pass) -> Value {
    Value::obj()
        .with("frames", pass.frames())
        .with("segments", pass.seg_ns.len())
        .with("warmup_segments", pass.warm_ns.len())
        .with("frames_per_segment", pass.seg_frames)
        .with(
            "host_ns_per_frame",
            summary_json(&Summary::of(&pass.seg_ns)),
        )
        .with("segment_ns_per_frame", pass.seg_ns.clone())
        .with("warmup_ns_per_frame", pass.warm_ns.clone())
        .with("latency_samples", pass.acc.latency.count())
        .with("latency_samples_beyond_p99", pass.acc.latency.beyond(0.99))
        .with("commits", pass.acc.commits)
        .with("problems", pass.problems.clone())
}

/// The end-to-end run (`--trace 0`): every metric in [`END_TO_END`].
pub fn end_to_end(opts: &Opts) -> Report {
    let (slice_seconds, min_reps) = if opts.smoke {
        (0.0, 3)
    } else {
        (
            SETUP_SAMPLE_SECONDS / (SETUP_SLICES + 1) as f64,
            SETUP_MIN_REPS,
        )
    };
    let (mut setup, rig) = sample_setup(opts.spec, opts.seed, slice_seconds, min_reps);
    let plan = opts.plan(rig.quantum());
    // The segment after a slice starts with cold caches; the estimator
    // never picks it, and it is one in `every`.
    let half = plan.segments / 2;
    let every = (half / SETUP_SLICES).max(1);
    let mut peak_rss = None;
    let pass = measure(rig, plan, &mut NoTrace, &mut |done| {
        if done == half {
            peak_rss = Some(peak_rss_mb());
        } else if done > half && (done - half).is_multiple_of(every) {
            setup.extend(sample_setup(opts.spec, opts.seed, slice_seconds, 1).0);
        }
    });
    let peak_rss = peak_rss.expect("a run has at least two segments");
    let setup_summary = Summary::of(&setup);

    let mut values = vec![setup_summary.low, pass.host_ns_per_frame(), peak_rss];
    values.extend(pass.sim.values());
    let mut problems = pass.problems.clone();
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| {
            if !(v.is_finite() && v > 0.0) {
                problems.push(format!("{name} = {v}: metrics must be positive"));
            }
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();
    if pass.acc.latency.beyond(0.99) <= 10 && pass.sim.latency_p99 > pass.sim.latency_p50 {
        // A p99 needs more than ten samples beyond it to mean anything.
        // (Equal p50 and p99 is a flat distribution, not a thin tail.)
        problems.push("fewer than 11 latency samples beyond p99".to_string());
    }

    let report = Report {
        correct: problems.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        problems,
    };
    write_detail(
        opts.out_dir.as_deref(),
        &format!("{}.detail.json", opts.spec.name),
        &pass_json(&pass)
            .with("workload", opts.spec.name)
            .with("seed", opts.seed)
            .with("seconds", opts.seconds)
            .with("smoke", opts.smoke)
            .with("setup_s", summary_json(&setup_summary))
            .with("result", report.to_json()),
    );
    report
}
