//! `normanbench compare A.json B.json`: do two sets of runs agree?
//!
//! Each file is what `normanbench suite` writes: one JSON object per
//! line, `{"workload": …, "seed": …, "host_ns_per_frame_mean": …,
//! "result": <the line a run prints>}`. One row per (workload, end-to-end
//! metric): both medians, the difference, the bound from
//! `BENCHMARK.json`, and a verdict.
//!
//! `host_ns_per_frame` is a low order statistic over a run's segments, so
//! a cost that skips a few segments (a rehash, a ring wrap, a collection
//! pass) never reaches it. The row after it therefore judges the mean
//! over all segments ([`MEAN`]) by the same rule and the same bound: the
//! mean hides nothing, but on a shared machine it is often `unresolved`.
//!
//! * Simulated (`vns`) metrics are deterministic: for every (workload,
//!   seed) present in both sets the values must be equal, and the verdict
//!   is `identical` or `worse` — a difference is a model change or a
//!   benchmark bug, never noise.
//! * Measured metrics (all lower-is-better) follow the rule of the
//!   choosing-metrics guide: `worse` when B's median exceeds A's by more
//!   than the bound; but when either side's interquartile spread is wider
//!   than the bound the pair is `unresolved`, unless every run of one side
//!   beats every run of the other.
//!
//! Exits non-zero when any row is `worse`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::run::{write_detail, END_TO_END};
use crate::workload::WORKLOADS;

/// The segment mean `suite` stores beside each result; judged with
/// `host_ns_per_frame`'s bound.
pub const MEAN: &str = "host_ns_per_frame_mean";

/// Values of one (workload, metric) in one set: `(seed, value)` per run.
type Samples = Vec<(u64, f64)>;

/// One row of the table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// `(b - a) / a`.
    pub diff: f64,
    /// The wider of the two sets' interquartile ranges over its median.
    pub spread: f64,
    /// Allowed worsening, from `BENCHMARK.json`.
    pub bound: f64,
    /// `agree`, `unresolved`, `worse` or `identical`.
    pub verdict: &'static str,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the rule the acceptance
/// runs are judged by). Zero for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(3) - q(1)) / median(&v)
}

/// What [`judge_measured`] found.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judged {
    /// `agree`, `unresolved` or `worse`.
    pub verdict: &'static str,
    /// Median of A.
    pub a: f64,
    /// Median of B.
    pub b: f64,
    /// `(b - a) / a`.
    pub diff: f64,
    /// The wider interquartile range over its median.
    pub spread: f64,
}

/// Judges one measured (lower-is-better) metric.
pub fn judge_measured(a: &[f64], b: &[f64], bound: f64) -> Judged {
    let sorted = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        s
    };
    let (sa, sb) = (sorted(a), sorted(b));
    let (ma, mb) = (median(&sa), median(&sb));
    let diff = (mb - ma) / ma;
    let spread = iqr_share(a).max(iqr_share(b));
    let b_all_better = sb[sb.len() - 1] < sa[0];
    let b_all_worse = sb[0] > sa[sa.len() - 1];
    let verdict = if spread > bound {
        if b_all_better {
            "agree"
        } else if b_all_worse && diff > bound {
            "worse"
        } else {
            "unresolved"
        }
    } else if diff > bound {
        "worse"
    } else {
        "agree"
    };
    Judged {
        verdict,
        a: ma,
        b: mb,
        diff,
        spread,
    }
}

/// Judges one simulated metric: equal wherever both sets ran the seed.
pub fn judge_simulated(a: &Samples, b: &Samples) -> &'static str {
    let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
    let mut paired = false;
    for &(seed, v) in a {
        if *by_seed.entry(seed).or_insert(v) != v {
            return "worse";
        }
    }
    for &(seed, v) in b {
        match by_seed.get(&seed) {
            Some(&av) if av != v => return "worse",
            Some(_) => paired = true,
            None => {}
        }
    }
    if paired {
        "identical"
    } else {
        "unresolved"
    }
}

/// Reads one set: `(workload, metric) → samples`.
pub fn read_set(text: &str) -> Result<BTreeMap<(String, String), Samples>, String> {
    let mut set: BTreeMap<(String, String), Samples> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| v.get(k).ok_or(format!("line {}: no \"{k}\"", n + 1));
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let seed = field("seed")?.as_f64().ok_or("seed is not a number")? as u64;
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true)
            || result.get("failed").and_then(Value::as_f64) != Some(0.0)
        {
            return Err(format!("line {}: an incorrect or failing run", n + 1));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        let mut add = |name: &str, value: f64| {
            set.entry((workload.to_string(), name.to_string()))
                .or_default()
                .push((seed, value));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            add(name, value);
        }
        if let Some(mean) = v.get(MEAN).and_then(Value::as_f64) {
            add(MEAN, mean);
        }
    }
    Ok(set)
}

/// Reads `name → bound` for the end-to-end metrics of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(text)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("no name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("no bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Builds the table: one row per (workload, end-to-end metric) both sets
/// have, and one for [`MEAN`] after `host_ns_per_frame`.
pub fn compare(
    a: &BTreeMap<(String, String), Samples>,
    b: &BTreeMap<(String, String), Samples>,
    bounds: &BTreeMap<String, f64>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let judged = END_TO_END.iter().flat_map(|&(metric, unit)| {
            let mean = (metric == "host_ns_per_frame").then_some((MEAN, metric, unit));
            std::iter::once((metric, metric, unit)).chain(mean)
        });
        for (metric, bounded_as, unit) in judged {
            let key = (w.name.to_string(), metric.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let values = |s: &Samples| -> Vec<f64> { s.iter().map(|&(_, v)| v).collect() };
            let (va, vb) = (values(sa), values(sb));
            let bound = bounds.get(bounded_as).copied().unwrap_or(0.0);
            let j = judge_measured(&va, &vb, bound);
            let verdict = if unit == "vns" {
                judge_simulated(sa, sb)
            } else {
                j.verdict
            };
            rows.push(Row {
                workload: w.name.to_string(),
                metric: metric.to_string(),
                a: j.a,
                b: j.b,
                diff: j.diff,
                spread: j.spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Renders the rows as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<28} {:>14} {:>14} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "A (median)", "B (median)", "diff %", "spread %", "bound", "verdict"
    );
    for r in rows {
        out += &format!(
            "{:<10} {:<28} {:>14.6} {:>14.6} {:>+8.2} {:>8.2} {:>6.2}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.diff,
            100.0 * r.spread,
            r.bound,
            r.verdict
        );
    }
    out
}

fn rows_json(rows: &[Row]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|r| {
                Value::obj()
                    .with("workload", r.workload.as_str())
                    .with("metric", r.metric.as_str())
                    .with("a", r.a)
                    .with("b", r.b)
                    .with("diff", r.diff)
                    .with("spread", r.spread)
                    .with("bound", r.bound)
                    .with("verdict", r.verdict)
            })
            .collect(),
    )
}

/// The `compare` subcommand: two result files, bounds from
/// `BENCHMARK.json` in the current directory, the table also to
/// `out_dir`.
pub fn main(files: &[String], out_dir: PathBuf) -> ExitCode {
    if files.len() != 2 || files.iter().any(|f| f.starts_with("--")) {
        eprintln!("normanbench compare: expected two result files");
        return ExitCode::from(2);
    }
    let files: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    let load = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let loaded = load(Path::new("BENCHMARK.json"))
        .and_then(|t| read_bounds(&t))
        .and_then(|bounds| {
            let a = load(&files[0]).and_then(|t| read_set(&t))?;
            let b = load(&files[1]).and_then(|t| read_set(&t))?;
            Ok((a, b, bounds))
        });
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("normanbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&a, &b, &bounds);
    print!("{}", render(&rows));
    write_detail(Some(&out_dir), "compare.json", &rows_json(&rows));
    if rows.is_empty() {
        eprintln!("normanbench compare: the two sets share no (workload, metric)");
        return ExitCode::from(2);
    }
    if rows.iter().any(|r| r.verdict == "worse") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr_share(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn measured_verdicts() {
        let a = [100.0, 101.0, 102.0, 101.5, 100.5];
        let same = [100.2, 101.1, 101.9, 101.4, 100.6];
        assert_eq!(judge_measured(&a, &same, 0.06).verdict, "agree");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.10).collect();
        assert_eq!(judge_measured(&a, &slower, 0.06).verdict, "worse");
        let faster: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge_measured(&a, &faster, 0.06).verdict, "agree");
        // Spread wider than the bound and overlapping ranges: no verdict.
        let noisy = [90.0, 100.0, 125.0, 110.0, 140.0];
        assert_eq!(judge_measured(&a, &noisy, 0.06).verdict, "unresolved");
        // Wide spread, but every B run is slower than every A run.
        let noisy_slow = [120.0, 150.0, 180.0, 130.0, 200.0];
        assert_eq!(judge_measured(&a, &noisy_slow, 0.06).verdict, "worse");
    }

    #[test]
    fn simulated_verdicts() {
        let a = vec![(1, 49.0), (1, 49.0), (2, 49.5)];
        assert_eq!(
            judge_simulated(&a, &vec![(2, 49.5), (1, 49.0)]),
            "identical"
        );
        assert_eq!(judge_simulated(&a, &vec![(1, 49.000001)]), "worse");
        assert_eq!(
            judge_simulated(&vec![(1, 1.0), (1, 2.0)], &vec![(1, 1.0)]),
            "worse"
        );
        assert_eq!(judge_simulated(&a, &vec![(3, 7.0)]), "unresolved");
    }

    #[test]
    fn end_to_end_table() {
        let line = |w: &str, seed: u64, host: f64, mean: f64, sim: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": {seed}, \"{MEAN}\": {mean}, \
                 \"result\": {{\"correct\": true, \
                 \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
                 \"host_ns_per_frame\": {{\"value\": {host}, \"unit\": \"ns\"}}, \
                 \"sim_mem_ns_per_frame\": {{\"value\": {sim}, \"unit\": \"vns\"}}}}}}}}\n"
            )
        };
        let set = |runs: [(f64, f64, f64); 2]| {
            let text: String = runs
                .iter()
                .map(|&(host, mean, sim)| line("rx_fast", 1, host, mean, sim))
                .collect();
            read_set(&text).unwrap()
        };
        let a = set([(500.0, 600.0, 30.0), (510.0, 610.0, 30.0)]);
        let b = set([(600.0, 700.0, 30.5), (610.0, 710.0, 30.5)]);
        // A stall in every other segment: the low order statistic is blind.
        let stalls = set([(500.0, 690.0, 30.0), (510.0, 700.0, 30.0)]);
        let bounds = read_bounds(
            "{\"end_to_end\": [{\"name\": \"host_ns_per_frame\", \"bound\": 0.06}, \
             {\"name\": \"sim_mem_ns_per_frame\", \"bound\": 0.01}]}",
        )
        .unwrap();
        let verdicts = |rows: &[Row]| -> Vec<(String, &'static str)> {
            rows.iter().map(|r| (r.metric.clone(), r.verdict)).collect()
        };
        let expect = |host, mean, sim| {
            vec![
                ("host_ns_per_frame".to_string(), host),
                (MEAN.to_string(), mean),
                ("sim_mem_ns_per_frame".to_string(), sim),
            ]
        };
        assert_eq!(
            verdicts(&compare(&a, &a, &bounds)),
            expect("agree", "agree", "identical")
        );
        let rows = compare(&a, &b, &bounds);
        assert_eq!(verdicts(&rows), expect("worse", "worse", "worse"));
        assert_eq!(
            rows[1].bound, 0.06,
            "the mean takes host_ns_per_frame's bound"
        );
        assert_eq!(
            verdicts(&compare(&a, &stalls, &bounds)),
            expect("agree", "worse", "identical")
        );
        assert!(render(&rows).contains("host_ns_per_frame_mean"));
        let failing = line("rx_fast", 1, 1.0, 1.0, 1.0).replace("\"failed\": 0", "\"failed\": 3");
        assert!(read_set(&failing).is_err());
    }
}
