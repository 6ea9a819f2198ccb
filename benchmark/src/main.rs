//! `normanbench` command line. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use normanbench::run::Opts;
use normanbench::{compare, json, layers, run, workload};

const USAGE: &str = "\
usage: normanbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
       normanbench suite --runs N --file OUT.json
       normanbench compare A.json B.json

Prints one JSON object as the last line of standard output:
  {\"correct\": …, \"attempted\": …, \"failed\": …, \"metrics\": {name: {\"value\": …, \"unit\": …}}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`suite` runs every workload N times with the defaults, interleaved, each
run in a fresh process, and writes the set of results `compare` reads;
`compare` takes its bounds from BENCHMARK.json in the current directory.
Detail files (per-segment times, spans, compare tables) go to --out,
by default benchmark/out/ under the current directory.";

/// The default seed (README.md names the held-out one).
const DEFAULT_SEED: u64 = 20_210_531;
const DEFAULT_SECONDS: u64 = 16;

fn default_out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("normanbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..], default_out_dir()),
        Some("suite") => return suite(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut name = None;
    let mut opts = Opts {
        spec: &workload::WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out_dir: Some(default_out_dir()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        let number = value.parse::<u64>();
        match (flag.as_str(), number) {
            ("--workload", _) => name = Some(value.clone()),
            ("--out", _) => opts.out_dir = Some(PathBuf::from(value)),
            ("--seed", Ok(n)) => opts.seed = n,
            ("--seconds", Ok(n)) if (1..=3600).contains(&n) => opts.seconds = n,
            ("--trace", Ok(n)) if n <= 1 => opts.trace = n == 1,
            _ => return fail(&format!("bad argument: {flag} {value}")),
        }
    }
    let Some(name) = name else {
        return fail("--workload is required");
    };
    let Some(spec) = workload::spec(&name) else {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return fail(&format!(
            "unknown workload '{name}' (one of {})",
            known.join(", ")
        ));
    };
    opts.spec = spec;

    let report = if opts.trace {
        layers::per_layer(&opts)
    } else {
        run::end_to_end(&opts)
    };
    for p in &report.problems {
        eprintln!("normanbench: {}: {p}", spec.name);
    }
    println!("{}", report.to_json().to_line());
    ExitCode::SUCCESS
}

/// Runs every workload `--runs` times with the defaults, interleaved
/// (w1 w2 w3 w4 w1 …) so a slow phase of the machine touches every
/// workload alike, each run in a child process so `peak_rss_mb` starts
/// clean. Beside each result goes the mean over the run's segments, read
/// from its detail file: `compare` gates it next to the reported low
/// order statistic, which cannot see a cost that skips a few segments.
fn suite(args: &[String]) -> ExitCode {
    let (mut runs, mut file) = (0u64, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--runs", Some(value)) => runs = value.parse().unwrap_or(0),
            ("--file", Some(value)) => file = Some(PathBuf::from(value)),
            _ => return fail(&format!("bad argument: {flag}")),
        }
    }
    let (Some(file), true) = (file, runs > 0) else {
        return fail("suite needs --runs N and --file OUT.json");
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(&format!("cannot find my own executable: {e}")),
    };
    let out_dir = default_out_dir();
    let mut lines = String::new();
    for run in 0..runs {
        for w in &workload::WORKLOADS {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .output();
            let out = match out {
                Ok(out) if out.status.success() => out,
                Ok(out) => return fail(&format!("{} run failed: {}", w.name, out.status)),
                Err(e) => return fail(&format!("cannot start a run: {e}")),
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            let detail = out_dir.join(format!("{}.detail.json", w.name));
            let mean = std::fs::read_to_string(&detail)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .and_then(|d| d.get("host_ns_per_frame")?.get("mean")?.as_f64());
            let Some(mean) = mean else {
                return fail(&format!("no segment mean in {}", detail.display()));
            };
            eprintln!("run {run} {}: {result}", w.name);
            lines += &format!(
                "{{\"workload\": \"{}\", \"seed\": {DEFAULT_SEED}, \"{}\": {mean}, \"result\": {result}}}\n",
                w.name,
                compare::MEAN
            );
        }
    }
    match std::fs::write(&file, lines) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("cannot write {}: {e}", file.display())),
    }
}
