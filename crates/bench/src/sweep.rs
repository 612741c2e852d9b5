//! Bench-side sweep layer: matrix builders, JSON reports and the
//! serial-vs-parallel speedup measurement.
//!
//! The core harness ([`coefficient::sweep`]) executes a
//! `{policy × scenario × seed}` matrix and guarantees determinism; this
//! module supplies what the binaries need around it:
//!
//! * [`SweepSpec`] — the CLI-facing description of a sweep (parsed from
//!   `experiments sweep` flags) and its [`build_matrix`](SweepSpec::build_matrix);
//! * [`sweep_report_json`] — the stable JSON schema of a sweep result
//!   (see `README.md`, "Running sweeps");
//! * [`measure_speedup`] — times the same matrix serially and in
//!   parallel, checks the fingerprints agree, and reports the ratio.

use std::num::NonZeroUsize;
use std::time::Duration;

use coefficient::sweep::default_threads;
use coefficient::{
    CellOutcome, GroupSummary, PolicyRef, Scenario, SchedulerError, SeedStrategy, StopCondition,
    SweepMatrix, SweepReport, SweepRunner, UnknownPolicy, COEFFICIENT, FSPEC,
};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;
use metrics::AggregateSummary;
use workloads::sae::IdRange;

use crate::experiments::{dynamic_experiment_statics, SEED};
use crate::json::Json;

/// CLI-facing description of a sweep over the paper's mixed geometry.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Minislot count of the `paper_mixed` cluster.
    pub minislots: u64,
    /// Simulated horizon per cell, milliseconds.
    pub horizon_ms: u64,
    /// Number of seeds (seed indices `0..seeds` of `master_seed`).
    pub seeds: u64,
    /// Master seed the per-cell seeds derive from.
    pub master_seed: u64,
    /// Worker threads; `None` means all available parallelism.
    pub threads: Option<NonZeroUsize>,
    /// Policies under test.
    pub policies: Vec<PolicyRef>,
    /// Scenarios under test.
    pub scenarios: Vec<Scenario>,
    /// Seed derivation discipline.
    pub strategy: SeedStrategy,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            minislots: 50,
            horizon_ms: 1000,
            seeds: 8,
            master_seed: SEED,
            threads: None,
            policies: vec![COEFFICIENT, FSPEC],
            scenarios: vec![Scenario::ber7(), Scenario::ber9()],
            strategy: SeedStrategy::PerCell,
        }
    }
}

impl SweepSpec {
    /// Materializes the spec into a core [`SweepMatrix`].
    pub fn build_matrix(&self) -> SweepMatrix {
        SweepMatrix {
            cluster: ClusterConfig::paper_mixed(self.minislots),
            static_messages: dynamic_experiment_statics(),
            dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, self.master_seed),
            policies: self.policies.clone(),
            scenarios: self.scenarios.clone(),
            seeds: (0..self.seeds)
                .map(|i| self.master_seed.wrapping_add(i))
                .collect(),
            stop: StopCondition::Horizon(SimDuration::from_millis(self.horizon_ms)),
            seed_strategy: self.strategy,
        }
    }

    /// Builds and runs the sweep.
    ///
    /// # Errors
    /// Returns [`SchedulerError`] if a cell is unschedulable.
    pub fn run(&self) -> Result<SweepReport, SchedulerError> {
        let mut runner = SweepRunner::new(self.build_matrix());
        if let Some(threads) = self.threads {
            runner = runner.threads(threads);
        }
        runner.run()
    }
}

/// Parses a policy flag value against the [`coefficient::registry`]
/// (keys, labels and aliases, case-insensitively).
///
/// # Errors
/// Returns [`UnknownPolicy`] — whose message lists every registered
/// name — when nothing in the registry matches.
pub fn parse_policy(s: &str) -> Result<PolicyRef, UnknownPolicy> {
    coefficient::registry::resolve(s)
}

/// Every scenario name [`parse_scenario`] accepts, in canonical
/// spelling: the three bases, each with its `-bursty` and `-storm`
/// variants. [`UnknownScenario`] lists these, mirroring how
/// [`UnknownPolicy`] lists the policy registry.
pub fn scenario_names() -> [&'static str; 9] {
    [
        "ber7",
        "ber7-bursty",
        "ber7-storm",
        "ber9",
        "ber9-bursty",
        "ber9-storm",
        "fault-free",
        "fault-free-bursty",
        "fault-free-storm",
    ]
}

/// A scenario flag value that [`parse_scenario`] could not resolve. The
/// `Display` message lists every valid name, exactly as
/// [`UnknownPolicy`] does for policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scenario \"{}\" (valid: {})",
            self.name,
            scenario_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownScenario {}

/// Parses a scenario flag value (`ber7` / `ber9` / `fault-free`, with a
/// `-bursty` suffix selecting the Gilbert–Elliott variant and a `-storm`
/// suffix the fault-storm variant).
///
/// # Errors
/// Returns [`UnknownScenario`] — whose message lists every valid name —
/// when nothing matches.
pub fn parse_scenario(s: &str) -> Result<Scenario, UnknownScenario> {
    let lower = s.to_ascii_lowercase();
    let (base, variant) = if let Some(base) = lower.strip_suffix("-bursty") {
        (base, Some(Scenario::bursty as fn(Scenario) -> Scenario))
    } else if let Some(base) = lower.strip_suffix("-storm") {
        (base, Some(Scenario::storm as fn(Scenario) -> Scenario))
    } else {
        (lower.as_str(), None)
    };
    let scenario = match base {
        "ber7" | "ber-7" => Scenario::ber7(),
        "ber9" | "ber-9" => Scenario::ber9(),
        "fault-free" | "faultfree" => Scenario::fault_free(),
        _ => {
            return Err(UnknownScenario {
                name: s.to_string(),
            })
        }
    };
    Ok(match variant {
        Some(f) => f(scenario),
        None => scenario,
    })
}

/// Human-readable policy label (matches the table output).
pub fn policy_label(p: PolicyRef) -> &'static str {
    p.label()
}

fn hex64(v: u64) -> Json {
    Json::String(format!("{v:016x}"))
}

fn duration_ms(d: Duration) -> Json {
    Json::Float(d.as_secs_f64() * 1e3)
}

/// JSON form of an [`AggregateSummary`].
pub fn summary_json(s: &AggregateSummary) -> Json {
    Json::object([
        ("count", Json::from(s.count)),
        ("mean", Json::from(s.mean)),
        ("std_dev", Json::from(s.std_dev)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("p50", Json::from(s.p50)),
        ("p90", Json::from(s.p90)),
        ("p99", Json::from(s.p99)),
    ])
}

fn group_json(g: &GroupSummary) -> Json {
    Json::object([
        ("policy", Json::str(policy_label(g.policy))),
        ("scenario", Json::str(g.scenario)),
        ("cells", Json::from(g.cells)),
        ("running_time_s", summary_json(&g.running_time_s)),
        ("utilization", summary_json(&g.utilization)),
        ("static_latency_ms", summary_json(&g.static_latency_ms)),
        ("dynamic_latency_ms", summary_json(&g.dynamic_latency_ms)),
        ("miss_ratio", summary_json(&g.miss_ratio)),
        ("delivery_ratio", summary_json(&g.delivery_ratio)),
    ])
}

/// JSON form of one sweep cell (coordinates + seed + headline metrics).
pub fn cell_json(c: &CellOutcome) -> Json {
    let r = &c.report;
    Json::object([
        ("policy", Json::str(policy_label(c.policy))),
        ("scenario", Json::str(c.scenario)),
        ("policy_index", Json::from(c.coord.policy)),
        ("scenario_index", Json::from(c.coord.scenario)),
        ("seed_index", Json::from(c.coord.seed)),
        ("seed", Json::from(c.seed)),
        ("fingerprint", hex64(c.fingerprint)),
        ("running_time_s", Json::from(r.running_time.as_secs_f64())),
        ("utilization", Json::from(r.utilization)),
        (
            "static_latency_ms",
            Json::from(r.static_latency.mean_millis_f64()),
        ),
        (
            "dynamic_latency_ms",
            Json::from(r.dynamic_latency.mean_millis_f64()),
        ),
        ("miss_ratio", Json::from(r.miss_ratio())),
        ("produced", Json::from(r.produced)),
        ("delivered", Json::from(r.delivered)),
        ("corrupted", Json::from(r.corrupted)),
        (
            "counters",
            Json::object(
                r.counters
                    .fields()
                    .iter()
                    .map(|&(name, value)| (name, Json::from(value))),
            ),
        ),
    ])
}

/// The stable JSON schema of a sweep result (`schema:
/// "coefficient-sweep/1"`). Documented in `README.md`.
pub fn sweep_report_json(report: &SweepReport) -> Json {
    Json::object([
        ("schema", Json::str("coefficient-sweep/1")),
        ("threads", Json::from(report.threads)),
        ("wall_clock_ms", duration_ms(report.wall_clock)),
        ("fingerprint", hex64(report.fingerprint())),
        ("cells", Json::array(report.cells.iter().map(cell_json))),
        ("groups", Json::array(report.groups.iter().map(group_json))),
    ])
}

/// Result of [`measure_speedup`].
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Cells in the measured matrix.
    pub cells: usize,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Serial (1-thread) wall clock.
    pub serial: Duration,
    /// Parallel wall clock.
    pub parallel: Duration,
    /// `serial / parallel`.
    pub speedup: f64,
    /// Whether the serial and parallel sweep fingerprints agree (they
    /// must; a mismatch means the determinism contract is broken).
    pub fingerprints_equal: bool,
    /// The (shared) sweep fingerprint.
    pub fingerprint: u64,
}

impl SpeedupReport {
    /// JSON form (`schema: "coefficient-sweep-speedup/1"`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::str("coefficient-sweep-speedup/1")),
            ("cells", Json::from(self.cells)),
            ("threads", Json::from(self.threads)),
            ("serial_ms", duration_ms(self.serial)),
            ("parallel_ms", duration_ms(self.parallel)),
            ("speedup", Json::from(self.speedup)),
            ("fingerprints_equal", Json::from(self.fingerprints_equal)),
            ("fingerprint", hex64(self.fingerprint)),
        ])
    }
}

/// Runs the same matrix serially and with `threads` workers, verifying
/// the determinism contract and measuring the wall-clock ratio.
///
/// # Errors
/// Returns [`SchedulerError`] if a cell is unschedulable.
pub fn measure_speedup(
    spec: &SweepSpec,
    threads: NonZeroUsize,
) -> Result<SpeedupReport, SchedulerError> {
    let matrix = spec.build_matrix();
    let serial = SweepRunner::new(matrix.clone())
        .threads(NonZeroUsize::MIN)
        .run()?;
    let parallel = SweepRunner::new(matrix).threads(threads).run()?;
    Ok(SpeedupReport {
        cells: serial.cells.len(),
        threads: parallel.threads,
        serial: serial.wall_clock,
        parallel: parallel.wall_clock,
        speedup: serial.wall_clock.as_secs_f64() / parallel.wall_clock.as_secs_f64().max(1e-9),
        fingerprints_equal: serial.fingerprint() == parallel.fingerprint(),
        fingerprint: serial.fingerprint(),
    })
}

/// The spec of the acceptance benchmark: a 32-cell sweep
/// (2 policies × 2 scenarios × 8 seeds) on the default geometry, run with
/// up to 4 worker threads.
pub fn speedup_benchmark_spec() -> SweepSpec {
    SweepSpec {
        seeds: 8,
        horizon_ms: 500,
        ..SweepSpec::default()
    }
}

/// Worker-thread count of the acceptance benchmark (≤ 4, so the claimed
/// speedup is what a 4-core machine reproduces).
pub fn speedup_benchmark_threads() -> NonZeroUsize {
    NonZeroUsize::new(default_threads().get().clamp(2, 4)).expect("clamped to 2..=4")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_a_32_cell_matrix() {
        let spec = speedup_benchmark_spec();
        let matrix = spec.build_matrix();
        assert_eq!(matrix.cell_count(), 32);
    }

    #[test]
    fn parse_policy_accepts_every_registered_name() {
        assert_eq!(parse_policy("coefficient").unwrap(), COEFFICIENT);
        assert_eq!(parse_policy("FSPEC").unwrap(), FSPEC);
        for policy in coefficient::registry::all() {
            assert_eq!(parse_policy(policy.key()).unwrap(), *policy);
            assert_eq!(parse_policy(policy.label()).unwrap(), *policy);
        }
        let err = parse_policy("bogus").unwrap_err().to_string();
        assert!(err.contains("unknown policy \"bogus\""), "{err}");
        for policy in coefficient::registry::all() {
            assert!(err.contains(policy.key()), "{err} missing {}", policy.key());
        }
    }

    #[test]
    fn parse_scenario_accepts_variants() {
        assert_eq!(parse_scenario("ber7").unwrap().name, "BER-7");
        assert_eq!(parse_scenario("BER-9").unwrap().name, "BER-9");
        assert_eq!(parse_scenario("fault-free").unwrap().name, "fault-free");
        assert!(parse_scenario("ber7-bursty").is_ok());
        assert_eq!(parse_scenario("ber7-storm").unwrap().name, "BER-7-storm");
        assert_eq!(parse_scenario("BER-9-storm").unwrap().name, "BER-9-storm");
        let err = parse_scenario("nope").unwrap_err();
        assert_eq!(err.name, "nope");
        let message = err.to_string();
        for name in scenario_names() {
            assert!(message.contains(name), "{message} missing {name}");
        }
    }

    #[test]
    fn sweep_json_has_the_documented_shape() {
        let spec = SweepSpec {
            seeds: 2,
            horizon_ms: 20,
            threads: NonZeroUsize::new(2),
            scenarios: vec![Scenario::ber7()],
            ..SweepSpec::default()
        };
        let report = spec.run().unwrap();
        let json = sweep_report_json(&report).to_string();
        assert!(json.starts_with(r#"{"schema":"coefficient-sweep/1""#));
        assert!(json.contains(r#""threads":2"#));
        assert!(json.contains(r#""cells":[{"policy":"CoEfficient""#));
        assert!(json.contains(r#""groups":[{"policy":"CoEfficient""#));
        assert!(json.contains(r#""fingerprint":"#));
    }

    #[test]
    fn speedup_keeps_fingerprints_equal() {
        let spec = SweepSpec {
            seeds: 2,
            horizon_ms: 20,
            scenarios: vec![Scenario::ber7()],
            ..SweepSpec::default()
        };
        let report = measure_speedup(&spec, NonZeroUsize::new(2).unwrap()).unwrap();
        assert!(report.fingerprints_equal);
        assert_eq!(report.cells, 4);
        assert!(report.speedup > 0.0);
    }
}
