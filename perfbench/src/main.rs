//! perfbench — the PATCHECKO end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <audit_cold|audit_warm|corpus_scan|scand_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, runs the workload's
//! correctness gate, then either measures the workload for `--seconds`
//! (`--trace 0`: end-to-end metrics) or performs the traced run
//! (`--trace 1`: the workload once more with scope's Chrome-trace capture
//! on, then a single-threaded layer replay; per-layer metrics). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed gate exits 1 without a
//! result line. Timed runs also start `perfbench --host-probe <threads>`
//! child processes, which time a fixed kernel (see `calib`). See
//! `perfbench/README.md`.

mod audit;
mod calib;
mod corpus_scan;
mod layers;
mod replay;
mod report;
mod scand;
mod setup;
mod spans;
mod stats;

use std::path::Path;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Rounds of each comparison in the traced run: untraced/traced pass
/// pairs (`trace_overhead`) and program-run/replay pairs (the residual).
/// Medians over them keep one burst of outside load from deciding either.
pub const TRACE_ROUNDS: usize = 5;

/// The command line.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run instead of the timed one.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["audit_cold", "audit_warm", "corpus_scan", "scand_mixed"];

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Run {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => run.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        usage(&format!("unknown workload '{}'", run.workload));
    }
    run
}

/// Write the scope trace buffer (the traced pass's program spans, the
/// bench-side pass span and the replay's layer spans) under
/// `.bench_work/traces/`.
pub fn trace_file(r: &Run) {
    let dir = Path::new(".bench_work").join("traces");
    let path = dir.join(format!("{}-seed{}.json", r.workload, r.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| scope::trace::write_chrome_trace(&path)) {
        Ok(n) => eprintln!("[perfbench] wrote {n} trace events to {}", path.display()),
        Err(e) => eprintln!("[perfbench] trace not written: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(calib::CHILD_FLAG) {
        let threads = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
        calib::child_main(threads);
        return;
    }
    let run = parse();
    let result = match run.workload.as_str() {
        "audit_cold" => audit::run(&run, false),
        "audit_warm" => audit::run(&run, true),
        "corpus_scan" => corpus_scan::run(&run),
        _ => scand::run(&run),
    };
    match result {
        Ok(outcome) => {
            println!("{}", report::render(&outcome, run.trace));
            if !outcome.correct {
                eprintln!("[perfbench] {}: output check failed", run.workload);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("[perfbench] {}: {e}", run.workload);
            std::process::exit(1);
        }
    }
}
