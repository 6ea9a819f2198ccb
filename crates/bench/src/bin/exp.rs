//! Runs the experiments of EXPERIMENTS.md.
//!
//! ```text
//! exp <id>… [--smoke]     e.g. `exp e1 e3`
//! exp --all [--smoke]     every experiment with a results/ document
//! ```
//!
//! Each run writes its document and prints one `PASS` / `FAIL` line per
//! claim; the exit status is non-zero if any claim failed. `--smoke`
//! shrinks the sweeps that take minutes (M6, M7) to CI length.

use std::process::ExitCode;

use bench::{Experiment, Mode, EXPERIMENTS};

fn usage() -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!(
        "usage: exp (<id>… | --all) [--smoke]\nids: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut mode = Mode::default();
    let mut all = false;
    let mut chosen: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => mode.smoke = true,
            "--all" => all = true,
            id => match EXPERIMENTS.iter().find(|e| e.id == id) {
                Some(exp) => chosen.push(exp),
                None => return usage(),
            },
        }
    }
    if all {
        chosen.extend(EXPERIMENTS.iter().filter(|e| e.in_results()));
    }
    if chosen.is_empty() {
        return usage();
    }
    let mut failed = 0;
    for exp in chosen {
        if !bench::run(exp, mode) {
            failed += 1;
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} experiment(s) with a failed claim");
        ExitCode::FAILURE
    }
}
