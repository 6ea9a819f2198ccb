//! The per-layer run (`--trace 1`): an untraced pass, a pass under the
//! span recorder, the layer replays, and the metrics derived from them.
//!
//! It uses a quarter of the end-to-end run's segments. Layers are the
//! repo's crates; everything is measured from this package — spans wrap
//! the calls the driver makes, replays feed each layer the same input.

use crate::json::Value;
use crate::replay;
use crate::run::{measure, pass_json, write_detail, Counters, Opts, Report};
use crate::spans::{NoTrace, Site, SpanRec};
use crate::stats::{estimate_index, Summary};
use crate::workload::{self, Kind, Rig};

/// Traced set-ups; each set-up span reports its minimum over these.
const TRACED_SETUPS: usize = 5;

/// The per-layer metrics, with units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("norman.pump_ns_per_frame", "ns"),
    ("norman.app_recv_ns_per_frame", "ns"),
    ("norman.deliver_frame_ns_per_frame", "ns"),
    ("norman.app_send_ns_per_frame", "ns"),
    ("norman.pump_tx_ns_per_frame", "ns"),
    ("norman.update_policy_ns_per_commit", "ns"),
    ("norman.host_new_ns", "ns"),
    ("norman.connect_ns_per_conn", "ns"),
    ("norman.self_ns_per_frame", "ns"),
    ("norman.unattributed_pct", "%"),
    ("norman.fast_delivered", "count"),
    ("norman.slowpath", "count"),
    ("norman.ring_drops", "count"),
    ("driver.self_ns_per_frame", "ns"),
    ("span_overhead_pct", "%"),
    ("pkt.parse_ns_per_frame", "ns"),
    ("pkt.build_ns_per_frame", "ns"),
    ("pkt.arena_alloc_free_ns", "ns"),
    ("pkt.arena_high_water", "count"),
    ("pkt.arena_exhausted", "count"),
    ("nicsim.rx_batch_ns_per_frame", "ns"),
    ("nicsim.rx_ns_per_frame", "ns"),
    ("nicsim.flow_lookup_ns_per_frame", "ns"),
    ("nicsim.flow_hot_hit_ratio", "ratio"),
    ("nicsim.flow_promotions_per_kframe", "1/kframe"),
    ("nicsim.flow_evictions_per_kframe", "1/kframe"),
    ("nicsim.flow_promotion_refusals", "count"),
    ("nicsim.tx_enqueue_ns_per_frame", "ns"),
    ("nicsim.tx_poll_ns_per_frame", "ns"),
    ("nicsim.rx_slowpath", "count"),
    ("nicsim.rx_filtered", "count"),
    ("nicsim.tx_filtered", "count"),
    ("nicsim.program_swaps", "count"),
    ("memsim.ring_ns_per_frame", "ns"),
    ("memsim.llc_access_ns_per_line", "ns"),
    ("memsim.llc_dma_hit_ratio", "ratio"),
    ("memsim.ddio_evictions_per_kframe", "1/kframe"),
    ("memsim.mmio_writes_per_frame", "1/frame"),
    ("overlay.run_ns_per_frame", "ns"),
    ("overlay.cycles_per_frame", "cycles"),
    ("overlay.compile_ns_per_program", "ns"),
    ("overlay.verify_ns_per_program", "ns"),
    ("qdisc.enq_deq_ns_per_frame", "ns"),
    ("qdisc.backlog_max", "count"),
    ("qdisc.drops", "count"),
    ("telemetry.emit_ns_per_event", "ns"),
    ("telemetry.emit_disabled_ns_per_event", "ns"),
    ("telemetry.events_per_frame", "1/frame"),
    ("telemetry.evicted", "count"),
    ("telemetry.overhead_ns_per_frame", "ns"),
    ("oskernel.stack_rx_ns_per_frame", "ns"),
    ("oskernel.stack_recv_ns_per_frame", "ns"),
    ("oskernel.slowpath_share", "ratio"),
    ("workloads.gen_ns_per_frame", "ns"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer run: every metric in [`PER_LAYER`].
pub fn per_layer(opts: &Opts) -> Report {
    let spec = opts.spec;
    let kind = spec.kind;

    // Untraced pass: the reference for span overhead, and the simulated
    // metrics the traced pass must reproduce exactly.
    let rig = Rig::setup(spec, opts.seed, &mut NoTrace);
    let plan = opts.plan(rig.quantum());
    let seg_frames = plan.seg_frames;
    let untraced = measure(rig, plan, &mut NoTrace, &mut |_| {});

    // Traced pass. Set-up spans are noisy one-shots, so set up a few
    // times and keep each site's fastest; the last rig is measured.
    let mut setup_min = [f64::INFINITY; Site::ALL.len()];
    let mut last = None;
    for _ in 0..TRACED_SETUPS {
        drop(last.take());
        let mut rec = SpanRec::new();
        let rig = Rig::setup(spec, opts.seed, &mut rec);
        for site in Site::ALL {
            let a = rec.setup[site as usize];
            if a.calls > 0 {
                let per_call = a.ns as f64 / a.calls as f64;
                setup_min[site as usize] = setup_min[site as usize].min(per_call);
            }
        }
        last = Some((rig, rec));
    }
    let (rig, mut rec) = last.expect("at least one traced set-up");
    let sched_len = rig.sched.len() as f64;
    let (span_wall, span_booked) = SpanRec::calibrate();
    let traced = measure(rig, plan, &mut rec, &mut |_| {});

    // rx_traced minus rx_fast, same process, same seed: the telemetry tax.
    let tracing_off = (kind == Kind::RxBurst { traced: true }).then(|| {
        let twin = workload::spec("rx_fast").expect("rx_fast exists");
        measure(
            Rig::setup(twin, opts.seed, &mut NoTrace),
            plan,
            &mut NoTrace,
            &mut |_| {},
        )
    });

    let mut replay_rig = Rig::setup(spec, opts.seed, &mut NoTrace);
    let replay_ops = seg_frames.min(16_384) / if opts.smoke { 64 } else { 1 };
    let layers = replay::replay(&mut replay_rig, replay_ops);
    drop(replay_rig);

    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    if traced.sim != untraced.sim {
        problems.push(format!(
            "simulated metrics differ between passes: traced {:?}, untraced {:?}",
            traced.sim, untraced.sim
        ));
    }
    if traced.failed != untraced.failed {
        problems.push("failure counts differ between passes".to_string());
    }

    // Read the span breakdown off the very segment the traced pass
    // reports, so the parts sum to exactly the whole.
    let star = estimate_index(&traced.seg_ns);
    let seg = &rec.segments[plan.warmup + star];
    let per_frame = |ns: f64| ns / seg_frames as f64;
    let site = |s: Site| {
        let a = seg.site(s);
        per_frame((a.ns as f64 - a.calls as f64 * span_booked).max(0.0))
    };
    let calls = seg.calls() as f64;
    let gaps = (seg.wall_ns() - seg.span_ns()) as f64;
    let driver_self = per_frame((gaps - calls * (span_wall - span_booked)).max(0.0));
    let traced_ns = traced.host_ns_per_frame();
    let untraced_ns = untraced.host_ns_per_frame();
    let explained = traced_ns - per_frame(calls * span_wall);
    let commit = {
        let mut d = rec.kept_durations(Site::UpdatePolicy);
        if d.is_empty() {
            0.0
        } else {
            d.sort_by(f64::total_cmp);
            (Summary::of(&d).p50 - span_booked).max(0.0)
        }
    };

    let frames = traced.frames();
    let d = |f: fn(&Counters) -> u64| f(&traced.after) - f(&traced.before);
    let slow_share = ratio(d(|c| c.host.slowpath), frames);
    let events_per_frame = ratio(d(|c| c.tel_events), frames);
    let facade = site(Site::Pump)
        + site(Site::AppRecv)
        + site(Site::DeliverFrame)
        + site(Site::AppSend)
        + site(Site::PumpTx)
        + site(Site::UpdatePolicy);
    let children = match kind {
        Kind::RxBurst { .. } => {
            layers.nic_rx_batch
                + layers.ring
                + (events_per_frame - layers.nic_events_per_frame).max(0.0) * layers.tel_emit
        }
        Kind::RxScale => layers.nic_rx + layers.ring + slow_share * layers.stack_rx,
        Kind::TxShaped => layers.nic_tx_enqueue + layers.nic_tx_poll + layers.ring,
    };
    let setup = |s: Site| {
        let v = setup_min[s as usize];
        if v.is_finite() {
            (v - span_booked).max(0.0)
        } else {
            0.0
        }
    };
    let lookups = d(|c| c.flows.hot_hits) + d(|c| c.flows.cold_hits);
    let dma = d(|c| c.llc.dma_hits) + d(|c| c.llc.dma_misses);
    let kframes = frames as f64 / 1e3;

    let values: [(&str, f64); PER_LAYER.len()] = [
        ("norman.pump_ns_per_frame", site(Site::Pump)),
        ("norman.app_recv_ns_per_frame", site(Site::AppRecv)),
        (
            "norman.deliver_frame_ns_per_frame",
            site(Site::DeliverFrame),
        ),
        ("norman.app_send_ns_per_frame", site(Site::AppSend)),
        ("norman.pump_tx_ns_per_frame", site(Site::PumpTx)),
        ("norman.update_policy_ns_per_commit", commit),
        ("norman.host_new_ns", setup(Site::HostNew)),
        ("norman.connect_ns_per_conn", setup(Site::Connect)),
        ("norman.self_ns_per_frame", facade - children),
        (
            "norman.unattributed_pct",
            100.0 * (untraced_ns - explained) / untraced_ns,
        ),
        ("norman.fast_delivered", d(|c| c.host.fast_delivered) as f64),
        ("norman.slowpath", d(|c| c.host.slowpath) as f64),
        ("norman.ring_drops", d(|c| c.host.ring_drops) as f64),
        ("driver.self_ns_per_frame", driver_self),
        (
            "span_overhead_pct",
            100.0 * (traced_ns - untraced_ns) / untraced_ns,
        ),
        ("pkt.parse_ns_per_frame", layers.pkt_parse),
        ("pkt.build_ns_per_frame", layers.pkt_build),
        ("pkt.arena_alloc_free_ns", layers.pkt_arena),
        ("pkt.arena_high_water", traced.after.arena.high_water as f64),
        ("pkt.arena_exhausted", traced.after.arena.exhausted as f64),
        ("nicsim.rx_batch_ns_per_frame", layers.nic_rx_batch),
        ("nicsim.rx_ns_per_frame", layers.nic_rx),
        ("nicsim.flow_lookup_ns_per_frame", layers.flow_lookup),
        (
            "nicsim.flow_hot_hit_ratio",
            ratio(d(|c| c.flows.hot_hits), lookups),
        ),
        (
            "nicsim.flow_promotions_per_kframe",
            d(|c| c.flows.promotions) as f64 / kframes,
        ),
        (
            "nicsim.flow_evictions_per_kframe",
            d(|c| c.flows.evictions) as f64 / kframes,
        ),
        (
            "nicsim.flow_promotion_refusals",
            d(|c| c.flows.promotion_refusals) as f64,
        ),
        ("nicsim.tx_enqueue_ns_per_frame", layers.nic_tx_enqueue),
        ("nicsim.tx_poll_ns_per_frame", layers.nic_tx_poll),
        ("nicsim.rx_slowpath", d(|c| c.nic.rx_slowpath) as f64),
        ("nicsim.rx_filtered", d(|c| c.nic.rx_filtered) as f64),
        ("nicsim.tx_filtered", d(|c| c.nic.tx_filtered) as f64),
        ("nicsim.program_swaps", d(|c| c.nic.program_swaps) as f64),
        ("memsim.ring_ns_per_frame", layers.ring),
        ("memsim.llc_access_ns_per_line", layers.llc_line),
        (
            "memsim.llc_dma_hit_ratio",
            ratio(d(|c| c.llc.dma_hits), dma),
        ),
        (
            "memsim.ddio_evictions_per_kframe",
            d(|c| c.llc.ddio_evictions) as f64 / kframes,
        ),
        (
            "memsim.mmio_writes_per_frame",
            ratio(d(|c| c.mmio_writes), frames),
        ),
        ("overlay.run_ns_per_frame", layers.overlay_run),
        ("overlay.cycles_per_frame", layers.overlay_cycles),
        ("overlay.compile_ns_per_program", layers.overlay_compile),
        ("overlay.verify_ns_per_program", layers.overlay_verify),
        ("qdisc.enq_deq_ns_per_frame", layers.qdisc),
        ("qdisc.backlog_max", traced.acc.backlog_max as f64),
        ("qdisc.drops", d(|c| c.sched_dropped) as f64),
        ("telemetry.emit_ns_per_event", layers.tel_emit),
        (
            "telemetry.emit_disabled_ns_per_event",
            layers.tel_emit_disabled,
        ),
        ("telemetry.events_per_frame", events_per_frame),
        ("telemetry.evicted", traced.after.tel_evicted as f64),
        (
            "telemetry.overhead_ns_per_frame",
            tracing_off
                .as_ref()
                .map_or(0.0, |off| untraced_ns - off.host_ns_per_frame()),
        ),
        ("oskernel.stack_rx_ns_per_frame", layers.stack_rx),
        ("oskernel.stack_recv_ns_per_frame", layers.stack_recv),
        ("oskernel.slowpath_share", slow_share),
        ("workloads.gen_ns_per_frame", setup(Site::Gen) / sched_len),
    ];
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (computed, v))| {
            assert_eq!(name, computed, "values are listed in PER_LAYER order");
            if !v.is_finite() {
                problems.push(format!("{name} = {v}"));
            }
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();

    let report = Report {
        correct: problems.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        problems,
    };
    write_detail(
        opts.out_dir.as_deref(),
        &format!("{}.spans.json", spec.name),
        &rec.to_json(spec.name),
    );
    write_detail(
        opts.out_dir.as_deref(),
        &format!("{}.layers.json", spec.name),
        &Value::obj()
            .with("workload", spec.name)
            .with("seed", opts.seed)
            .with("seconds", opts.seconds)
            .with("smoke", opts.smoke)
            .with("untraced", pass_json(&untraced))
            .with("traced", pass_json(&traced))
            .with("estimate_segment", star)
            .with("span_wall_ns", span_wall)
            .with("span_booked_ns", span_booked)
            .with("replayed_children_ns_per_frame", children)
            .with("result", report.to_json()),
    );
    report
}
