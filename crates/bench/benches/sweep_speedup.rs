//! Acceptance benchmark of the parallel sweep harness: a 32-cell
//! `{2 policies × 2 scenarios × 8 seeds}` matrix, run serially and with
//! up to 4 worker threads.
//!
//! Prints the `coefficient-sweep-speedup/1` JSON record and exits
//! non-zero if the determinism contract is violated (serial and parallel
//! fingerprints must be byte-identical) or if parallel execution is not
//! actually faster.
//!
//! ```text
//! cargo bench --bench sweep_speedup -- [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` shrinks the matrix (8 cells, short horizon) for CI, where
//! the runner's core count is unreliable — only the determinism contract
//! is enforced there, not the speedup claim. `--out FILE` additionally
//! writes the JSON record to `FILE` (for workflow artifacts).

use bench_harness::sweep::{measure_speedup, speedup_benchmark_spec, speedup_benchmark_threads};
use coefficient::sweep::default_threads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1));

    let mut spec = speedup_benchmark_spec();
    if smoke {
        spec.seeds = 2;
        spec.horizon_ms = 100;
    }
    let threads = speedup_benchmark_threads();
    let report = measure_speedup(&spec, threads).expect("benchmark matrix is schedulable");
    println!(
        "sweep_speedup{}: {} cells, serial {:.0} ms vs {} threads {:.0} ms -> {:.2}x",
        if smoke { " (smoke)" } else { "" },
        report.cells,
        report.serial.as_secs_f64() * 1e3,
        report.threads,
        report.parallel.as_secs_f64() * 1e3,
        report.speedup,
    );
    println!("{}", report.to_json());
    if let Some(path) = out {
        let mut text = report.to_json().pretty();
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    if !report.fingerprints_equal {
        eprintln!("FAIL: serial and parallel sweep fingerprints differ");
        std::process::exit(1);
    }
    // The speedup claim only makes sense where parallel hardware exists
    // and the matrix is big enough to amortize thread startup: on a
    // single-core machine — or in the deliberately tiny smoke matrix —
    // only the determinism contract above is load-bearing.
    if report.speedup < 1.0 && !smoke {
        if default_threads().get() >= 2 {
            eprintln!("FAIL: parallel sweep slower than serial on a multi-core machine");
            std::process::exit(1);
        }
        eprintln!("note: single-core machine, speedup not expected");
    }
}
