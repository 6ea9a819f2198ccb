//! The experiments behind EXPERIMENTS.md, as one table.
//!
//! Every entry of [`EXPERIMENTS`] runs one experiment and returns its
//! document and its claims: named predicates over the rows it measured,
//! such as `e3/fallback-helps`. The `exp` binary writes the document,
//! prints one `PASS` / `FAIL` line per claim and fails if any claim does
//! not hold. The documents are pretty JSON of deterministic fields only;
//! EXPERIMENTS.md cites them.

mod arch;
mod scenario;

mod e1;
mod e2;
mod e3;
mod e4a;
mod e4b;
mod e4c;
mod e4d;
mod e5;
mod e6;
mod e7;
mod e9;
mod f1;
mod m4;
mod m5;
mod m6;
mod m7;
mod t1;

use std::path::PathBuf;

use serde::Serialize;

/// How an experiment runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// Shrink the sweeps that take minutes (M6, M7) to CI length.
    pub smoke: bool,
}

/// A named predicate over an experiment's rows, evaluated.
pub struct Claim {
    /// `<id>/<what holds>`, e.g. `e3/fallback-helps`.
    pub name: &'static str,
    /// Whether it held on this run.
    pub holds: bool,
}

/// Shorthand for a [`Claim`].
pub(crate) fn claim(name: &'static str, holds: bool) -> Claim {
    Claim { name, holds }
}

/// What one run of an experiment produced.
pub struct Outcome {
    /// The document, pretty JSON.
    pub doc: String,
    /// Every claim, in the order the experiment states them.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// Serializes `rows` as the document.
    pub(crate) fn new<T: Serialize + ?Sized>(rows: &T, claims: Vec<Claim>) -> Outcome {
        let doc = serde_json::to_string_pretty(rows).expect("serialize rows");
        Outcome { doc, claims }
    }
}

/// One row of the table.
pub struct Experiment {
    /// The EXPERIMENTS.md heading, lower-cased: `e1`, `e4a`, `m6`.
    pub id: &'static str,
    /// Where the document is written, relative to the repository root.
    pub doc: &'static str,
    /// Where a `--smoke` run writes it instead, when smoke shrinks the run
    /// and both documents are kept.
    pub smoke_doc: Option<&'static str>,
    /// Runs the experiment.
    pub run: fn(Mode) -> Outcome,
}

impl Experiment {
    /// Whether the document is one of the committed `results/` (M7's
    /// wall-clock document is not).
    pub fn in_results(&self) -> bool {
        self.doc.starts_with("results/")
    }

    /// The document this mode writes, relative to the repository root.
    pub fn doc(&self, mode: Mode) -> &'static str {
        match self.smoke_doc {
            Some(smoke) if mode.smoke => smoke,
            _ => self.doc,
        }
    }
}

const fn entry(id: &'static str, doc: &'static str, run: fn(Mode) -> Outcome) -> Experiment {
    Experiment {
        id,
        doc,
        smoke_doc: None,
        run,
    }
}

/// Every experiment, in EXPERIMENTS.md's order.
pub static EXPERIMENTS: [Experiment; 17] = [
    entry("f1", "results/exp_f1_architecture.json", f1::run),
    entry("e1", "results/exp_e1_datapaths.json", e1::run),
    entry("e2", "results/exp_e2_conn_scaling.json", e2::run),
    entry("e3", "results/exp_e3_sram_exhaustion.json", e3::run),
    entry("e4a", "results/exp_e4a_debugging.json", e4a::run),
    entry("e4b", "results/exp_e4b_port_partition.json", e4b::run),
    entry("e4c", "results/exp_e4c_blocking_io.json", e4c::run),
    entry("e4d", "results/exp_e4d_qos.json", e4d::run),
    entry("e5", "results/exp_e5_reconfig.json", e5::run),
    entry("e6", "results/exp_e6_policy_churn.json", e6::run),
    entry("e7", "results/exp_e7_ablation.json", e7::run),
    entry("t1", "results/exp_t1_capability_matrix.json", t1::run),
    entry("e9", "results/exp_e9_chaos.json", e9::run),
    entry("m4", "results/exp_m4_rss_scaling.json", m4::run),
    entry("m5", "results/exp_m5_recovery.json", m5::run),
    Experiment {
        smoke_doc: Some("results/exp_m6_flow_tiers.smoke.json"),
        ..entry("m6", "results/exp_m6_flow_tiers.json", m6::run)
    },
    entry("m7", "BENCH_PR8.json", m7::run),
];

/// The tree `exp` runs in, not the one it was built from: the nearest
/// directory at or above the current one with `Cargo.toml` and `results/`.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("current directory");
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.toml").is_file() && dir.join("results").is_dir())
        .unwrap_or_else(|| panic!("no workspace with results/ at or above {}", cwd.display()))
        .to_path_buf()
}

/// Runs `exp`, writes its document and prints one line per claim.
/// Returns whether every claim held.
pub fn run(exp: &Experiment, mode: Mode) -> bool {
    let outcome = (exp.run)(mode);
    let path = repo_root().join(exp.doc(mode));
    std::fs::create_dir_all(path.parent().expect("document has a directory"))
        .expect("create document directory");
    std::fs::write(&path, &outcome.doc).expect("write document");
    println!("[{}] wrote {}", exp.id, exp.doc(mode));
    for c in &outcome.claims {
        println!("{} {}", if c.holds { "PASS" } else { "FAIL" }, c.name);
    }
    outcome.claims.iter().all(|c| c.holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_an_experiments_heading() {
        let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
        let headings: Vec<&str> = doc.lines().filter_map(|l| l.strip_prefix("## ")).collect();
        for exp in &EXPERIMENTS {
            let heading = headings
                .iter()
                .find(|h| h.split_whitespace().next().map(str::to_lowercase) == Some(exp.id.into()))
                .unwrap_or_else(|| panic!("no `## {}` heading in EXPERIMENTS.md", exp.id));
            assert!(
                heading.contains(&format!("(`exp {}`)", exp.id)),
                "the {} heading does not name `exp {}`",
                exp.id,
                exp.id
            );
        }
    }

    #[test]
    fn every_results_document_has_exactly_one_entry() {
        let dir = repo_root().join("results");
        for file in std::fs::read_dir(&dir).unwrap() {
            let name = format!("results/{}", file.unwrap().file_name().to_string_lossy());
            let owners = EXPERIMENTS
                .iter()
                .filter(|e| e.doc == name || e.smoke_doc == Some(&name))
                .count();
            assert_eq!(owners, 1, "{name} belongs to {owners} entries");
        }
        for exp in EXPERIMENTS.iter().filter(|e| e.in_results()) {
            for doc in std::iter::once(exp.doc).chain(exp.smoke_doc) {
                assert!(repo_root().join(doc).is_file(), "{doc} is not committed");
            }
        }
    }
}
