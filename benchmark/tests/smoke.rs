//! Every workload in smoke mode (1/64 of the frames, same code paths):
//! simulated metrics and counters repeat exactly for equal seeds, the
//! seeded picks show through for different seeds, and the printed names
//! are exactly the ones `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::path::Path;

use normanbench::json::{self, Value};
use normanbench::layers::{per_layer, PER_LAYER};
use normanbench::run::{end_to_end, Opts, Report, END_TO_END};
use normanbench::workload::{Spec, WORKLOADS};

const SEED: u64 = 20_210_531;
const OTHER_SEED: u64 = 7;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn opts(spec: &'static Spec, seed: u64, trace: bool) -> Opts {
    let seconds = benchmark_json()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds") as u64;
    Opts {
        spec,
        seed,
        seconds,
        trace,
        smoke: true,
        out_dir: None,
    }
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_sound(report: &Report, what: &str) {
    assert!(report.correct, "{what}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.attempted > 0, "{what}");
}

/// The printed object has exactly the four keys, and its metrics are
/// exactly `listed`, units included.
fn assert_prints(report: &Report, listed: &[(String, String)], what: &str) {
    let printed = json::parse(&report.to_json().to_line()).expect("the result line parses");
    let keys: Vec<&str> = printed
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    let got: BTreeSet<(String, String)> = printed
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{what}: {name}"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    let want: BTreeSet<(String, String)> = listed.iter().cloned().collect();
    assert_eq!(got, want, "{what}: printed metrics vs BENCHMARK.json");
}

fn simulated(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|(_, _, unit)| *unit == "vns")
        .map(|&(name, v, _)| (name, v))
        .collect()
}

/// Counts and ratios read off the simulator's own counters; unlike host
/// nanoseconds they must repeat exactly.
fn counters(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|(_, _, unit)| {
            matches!(*unit, "count" | "ratio" | "1/kframe" | "1/frame" | "cycles")
        })
        .map(|&(name, v, _)| (name, v))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_code_defines() {
    let b = benchmark_json();
    let listed: Vec<(String, String)> = b
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("why"))
        })
        .collect();
    let defined: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, defined);
    let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names(b.get("end_to_end").expect("end_to_end")),
        pairs(&END_TO_END)
    );
    assert_eq!(
        names(b.get("per_layer").expect("per_layer")),
        pairs(&PER_LAYER)
    );
}

#[test]
fn end_to_end_runs_repeat_exactly_and_follow_the_seed() {
    let listed = names(benchmark_json().get("end_to_end").expect("end_to_end"));
    for spec in &WORKLOADS {
        let first = end_to_end(&opts(spec, SEED, false));
        let again = end_to_end(&opts(spec, SEED, false));
        let other = end_to_end(&opts(spec, OTHER_SEED, false));
        for (report, what) in [(&first, "first"), (&again, "again"), (&other, "other seed")] {
            let what = format!("{} {what}", spec.name);
            assert_sound(report, &what);
            assert_prints(report, &listed, &what);
            for &(name, v, _) in &report.metrics {
                assert!(v > 0.0, "{what}: {name} = {v}");
            }
        }
        assert_eq!(simulated(&first), simulated(&again), "{}", spec.name);
        assert_eq!(first.attempted, again.attempted, "{}", spec.name);
        // rx_fast/rx_traced cost the same whichever of their 64 hot flows
        // a frame picks; the other two must show their seeded picks.
        if matches!(spec.name, "rx_scale" | "tx_shaped") {
            assert_ne!(simulated(&first), simulated(&other), "{}", spec.name);
        }
    }
}

#[test]
fn per_layer_runs_repeat_exactly_and_cover_every_layer() {
    let listed = names(benchmark_json().get("per_layer").expect("per_layer"));
    for spec in &WORKLOADS {
        let first = per_layer(&opts(spec, SEED, true));
        let again = per_layer(&opts(spec, SEED, true));
        for (report, what) in [(&first, "first"), (&again, "again")] {
            let what = format!("{} traced {what}", spec.name);
            // `correct` includes: traced pass == untraced pass on every
            // simulated metric.
            assert_sound(report, &what);
            assert_prints(report, &listed, &what);
        }
        assert_eq!(counters(&first), counters(&again), "{}", spec.name);
        let m = |name: &str| first.metric(name).expect(name);
        // The layers the workload is there to exercise did run.
        match spec.name {
            "rx_fast" | "rx_traced" => {
                assert!(m("norman.pump_ns_per_frame") > 0.0);
                assert!(m("nicsim.rx_batch_ns_per_frame") > 0.0);
                assert_eq!(m("norman.slowpath"), 0.0);
                assert_eq!(m("nicsim.flow_hot_hit_ratio"), 1.0);
                let traced = spec.name == "rx_traced";
                assert_eq!(m("telemetry.events_per_frame") > 0.0, traced);
            }
            "rx_scale" => {
                assert!(m("norman.deliver_frame_ns_per_frame") > 0.0);
                assert!(m("oskernel.stack_rx_ns_per_frame") > 0.0);
                assert!(m("nicsim.flow_promotions_per_kframe") > 0.0);
                let share = m("oskernel.slowpath_share");
                assert!((0.04..0.09).contains(&share), "1 in 16 frames: {share}");
                assert!(m("nicsim.flow_hot_hit_ratio") < 1.0);
            }
            "tx_shaped" => {
                assert!(m("norman.app_send_ns_per_frame") > 0.0);
                assert!(m("overlay.run_ns_per_frame") > 0.0);
                assert!(m("overlay.cycles_per_frame") > 0.0);
                assert!(m("qdisc.enq_deq_ns_per_frame") > 0.0);
                assert!(m("nicsim.program_swaps") > 0.0, "live commits happened");
                assert_eq!(m("qdisc.drops"), 0.0);
                assert!(m("qdisc.backlog_max") >= 31.0);
            }
            other => panic!("no expectations for workload {other}"),
        }
        assert_eq!(m("norman.ring_drops"), 0.0);
    }
}
