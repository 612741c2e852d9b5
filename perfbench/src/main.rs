//! Outside-in host-time benchmark of the CoEfficient simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process. Inputs are
//! generated from `--seed` only; the program under test receives nothing
//! else. Every operation's output is checked (fingerprints and digests
//! must repeat within the run, match `reference.txt` for the recorded
//! seed, and pass the workload's invariants); a mismatch, refusal or
//! panic counts as a failed operation. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced replay of the same inputs. See `DESIGN.md`.

mod backbone_e2e;
mod cycles;
mod fleet_setup;
mod reference;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use stats::{HostClock, Metric, Samples};

/// The seed `reference.txt` records outputs for.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["cycles-coop", "storm-churn", "fleet-setup", "backbone-e2e"];

/// Parsed and range-checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Print `reference.txt` lines for this seed instead of metrics.
    pub record: bool,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line (each
    /// workload's own names for its metrics, sample counts, checks).
    pub notes: Vec<String>,
    /// `reference.txt` lines (with `--record`).
    pub reference: Vec<String>,
}

impl Report {
    /// Counts one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn usage() -> String {
    format!(
        "usage: run --workload <{}> --seed <0..=18446744073709551615> \
         --seconds <1..=120> --trace <0|1> [--record]",
        WORKLOADS.join("|")
    )
}

fn parse_u64(
    flag: &str,
    value: Option<String>,
    range: std::ops::RangeInclusive<u64>,
) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let n: u64 = value.parse().map_err(|_| {
        format!(
            "{flag} {value:?} is not a whole number; valid range {}..={}",
            range.start(),
            range.end()
        )
    })?;
    if !range.contains(&n) {
        return Err(format!(
            "{flag} {n} is out of range; valid range {}..={}",
            range.start(),
            range.end()
        ));
    }
    Ok(n)
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; valid: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = name;
            }
            "--seed" => args.seed = parse_u64("--seed", it.next(), 0..=u64::MAX)?,
            "--seconds" => args.seconds = parse_u64("--seconds", it.next(), 1..=120)?,
            "--trace" => args.trace = parse_u64("--trace", it.next(), 0..=1)? == 1,
            "--record" => args.record = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Set-up repetitions `setup_s` is the median of.
const SETUP_REPS: usize = 9;

/// Host-normalised time of one set-up, summed over its steps. The host
/// clock is calibrated before each step, as before each timed operation,
/// so that a burst of load from other tenants is scaled out of the step
/// it hits.
pub struct SetupTimer<'a> {
    clock: &'a mut HostClock,
    seconds: f64,
}

impl SetupTimer<'_> {
    /// Runs and times one step of the set-up.
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.clock.calibrate();
        let t = Instant::now();
        let out = f();
        self.seconds += t.elapsed().as_secs_f64() * self.clock.scale();
        out
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds and notes every repetition's
/// time. Start-up before the first set-up (argument parsing, the host
/// clock's calibration) is not part of it.
pub fn repeated_setup<T>(
    clock: &mut HostClock,
    report: &mut Report,
    mut setup: impl FnMut(&mut SetupTimer) -> T,
) -> (T, f64) {
    let mut times = Samples::default();
    let mut last = None;
    let mut notes = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let mut timer = SetupTimer {
            clock: &mut *clock,
            seconds: 0.0,
        };
        last = Some(setup(&mut timer));
        times.push(timer.seconds);
        notes.push(format!("{:.1}", timer.seconds * 1e3));
    }
    report.note(format!(
        "setup_s = median of {SETUP_REPS} set-ups (ms: {})",
        notes.join(", ")
    ));
    (
        last.expect("at least one set-up repetition"),
        times.quantile(0.5),
    )
}

/// Stores the end-to-end metrics every workload reports — `setup_s`, then
/// p50 and p90 of `op_us`, `control_us` and `runner_new_us` — and notes
/// each timing under the workload's own name for it, with its sample
/// count.
pub fn end_to_end(report: &mut Report, setup_s: f64, timings: [(&str, &Samples); 3]) {
    report.metrics.push(Metric::new("setup_s", setup_s, "s"));
    for (metric, (label, samples)) in ["op_us", "control_us", "runner_new_us"]
        .into_iter()
        .zip(timings)
    {
        report.note(format!(
            "{metric} = {label}: p50 {:.3} us, p90 {:.3} us (n = {})",
            samples.quantile(0.5),
            samples.quantile(0.9),
            samples.len()
        ));
        report.metrics.extend(samples.p50_p90(metric, "us"));
    }
}

/// Runs `op` with panics caught; a panic is reported as `None`.
pub fn guarded<T>(op: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).ok()
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "cycles-coop" => cycles::run(&args, cycles::Kind::Coop),
        "storm-churn" => cycles::run(&args, cycles::Kind::Storm),
        "fleet-setup" => fleet_setup::run(&args),
        "backbone-e2e" => backbone_e2e::run(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if args.record {
        for line in &report.reference {
            println!("{line}");
        }
        return if report.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if !args.trace {
        match stats::peak_rss_mib() {
            Some(mib) => report.metrics.push(Metric::new("peak_rss_mib", mib, "MiB")),
            None => {
                eprintln!("perfbench: cannot read peak memory from /proc/self/status");
                return ExitCode::from(2);
            }
        }
    }
    if report.attempted == 0 {
        eprintln!("perfbench: refusing to report a run with no operations");
        return ExitCode::from(2);
    }
    for line in &report.notes {
        println!("# {line}");
    }
    println!(
        "# ops_failed_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    println!("{}", json_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
