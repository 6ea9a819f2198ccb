//! The unified metrics registry.
//!
//! Every layer (nicsim, oskernel, qdisc, norman) dumps its counters into
//! one [`Registry`] instead of exposing N ad-hoc stat structs; the result
//! is snapshot-able as a single structured document ([`Snapshot`]) and
//! exportable as JSON from the bench harness. Latency histograms reuse
//! [`sim::stats::Histogram`] and are reported as count/mean/percentile
//! rows in nanoseconds (virtual time).

use std::collections::BTreeMap;

use sim::stats::Histogram;

/// Picoseconds (the `Dur` unit histograms record) per nanosecond.
const PS_PER_NS: f64 = 1000.0;

/// A named collection of counters, gauges and latency histograms.
///
/// Keys are dotted paths (`"nic.rx.frames"`, `"lat.nic.parse"`); the
/// `BTreeMap` keeps snapshots deterministically ordered.
#[derive(Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Sets counter `name` to `value` (registering it if new).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Adds `delta` to counter `name` (registering it at 0 if new).
    #[cfg(test)]
    pub(crate) fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Merges `hist` into the histogram registered as `name`.
    pub(crate) fn merge_hist(&mut self, name: &str, hist: &Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(hist);
    }

    /// Freezes the registry into an ordered, serializable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| HistRow::from_hist(k, h))
                .collect(),
        }
    }
}

/// One histogram reduced to its report row (all times in virtual-time
/// nanoseconds).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HistRow {
    /// Registered name.
    pub(crate) name: String,
    /// Number of samples.
    pub(crate) count: u64,
    /// Mean.
    pub(crate) mean_ns: f64,
    /// Median.
    pub(crate) p50_ns: f64,
    /// 99th percentile.
    pub(crate) p99_ns: f64,
    /// Largest sample.
    pub(crate) max_ns: f64,
}

impl HistRow {
    fn from_hist(name: &str, h: &Histogram) -> HistRow {
        HistRow {
            name: name.to_string(),
            count: h.count(),
            mean_ns: h.mean() / PS_PER_NS,
            p50_ns: h.quantile(0.50) as f64 / PS_PER_NS,
            p99_ns: h.quantile(0.99) as f64 / PS_PER_NS,
            max_ns: h.max() as f64 / PS_PER_NS,
        }
    }
}

/// An ordered, immutable view of a [`Registry`] at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, key-sorted.
    pub(crate) counters: Vec<(String, u64)>,
    /// All gauges, key-sorted.
    pub(crate) gauges: Vec<(String, f64)>,
    /// All histogram rows, key-sorted.
    pub(crate) hists: Vec<HistRow>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram row by name.
    #[cfg(test)]
    pub(crate) fn hist(&self, name: &str) -> Option<&HistRow> {
        self.hists.iter().find(|r| r.name == name)
    }

    /// Renders the snapshot as pretty-printed JSON (hand-rolled; the
    /// workspace serde shim is not needed here).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), json_f64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, r) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                escape(&r.name),
                r.count,
                json_f64(r.mean_ns),
                json_f64(r.p50_ns),
                json_f64(r.p99_ns),
                json_f64(r.max_ns),
            ));
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// Escapes a string for a JSON literal (keys are code-controlled dotted
/// paths, but be safe anyway).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (finite; NaN/inf clamp to 0).
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Dur;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut reg = Registry::new();
        reg.set_counter("nic.rx.frames", 10);
        reg.add_counter("nic.rx.frames", 5);
        reg.add_counter("fresh", 1);
        reg.set_gauge("sram.used_frac", 0.25);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("nic.rx.frames"), Some(15));
        assert_eq!(snap.counter("fresh"), Some(1));
        assert_eq!(snap.gauge("sram.used_frac"), Some(0.25));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn hist_rows_convert_ps_to_ns() {
        let mut h = Histogram::new();
        h.record_dur(Dur::from_ns(100));
        h.record_dur(Dur::from_ns(200));
        let mut reg = Registry::new();
        reg.merge_hist("lat.x", &h);
        let snap = reg.snapshot();
        let row = snap.hist("lat.x").unwrap();
        assert_eq!(row.count, 2);
        assert!(row.mean_ns > 100.0 && row.mean_ns <= 200.0);
        assert!(row.max_ns >= 150.0);
    }

    #[test]
    fn snapshot_is_key_sorted_and_deterministic() {
        let mut reg = Registry::new();
        reg.set_counter("b", 2);
        reg.set_counter("a", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.to_json_pretty(), reg.snapshot().to_json_pretty());
    }

    #[test]
    fn json_output_is_well_formed() {
        let mut reg = Registry::new();
        reg.set_counter("nic.rx", 3);
        reg.set_gauge("g", 1.5);
        let mut h = Histogram::new();
        h.record(1000);
        reg.merge_hist("lat.q", &h);
        let json = reg.snapshot().to_json_pretty();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"nic.rx\": 3"));
        assert!(json.contains("\"g\": 1.5"));
        assert!(json.contains("\"lat.q\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
    }
}
