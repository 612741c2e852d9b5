//! `cycles-coop` and `storm-churn`: CoEfficient and FSPEC cells, timed
//! per simulated cycle inside `Runner::run` and per `Runner::new`.
//!
//! `cycles-coop` uses the golden `paper_mixed(50)` geometry with large
//! synthetic static sets drawn from the seed, so both the message count
//! and the free static positions are large: the early-copy scan in
//! `cooperative_fill` dominates CoEfficient's cycle. FSPEC never runs
//! that scan and is the control.
//!
//! `storm-churn` uses 25 minislots, the SAE dynamic set and the
//! Gilbert–Elliott storm with the pinned `blackout` campaign: many
//! produce / expire / copy / drop events, a growing dynamic backlog,
//! degraded mode, failover mirrors and monitor transitions.

use std::time::Instant;

use coefficient::{
    CampaignSpec, CampaignTarget, PolicyRef, RunConfig, RunReport, Runner, Scenario, StopCondition,
    TraceConfig, COEFFICIENT, FSPEC,
};
use event_sim::rng::derive;
use flexray::config::ClusterConfig;
use workloads::sae::IdRange;
use workloads::synthetic::SyntheticSpec;

use crate::reference::{self, OutputCheck};
use crate::stats::{micros_since, HostClock, PerOp};
use crate::trace::{self, Replay, TraceSummary};
use crate::{guarded, repeated_setup, Args, Report};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Coop,
    Storm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Coop => "cycles-coop",
            Kind::Storm => "storm-churn",
        }
    }

    /// Input cells per policy.
    fn cells(self) -> u64 {
        match self {
            Kind::Coop => 400,
            Kind::Storm => 200,
        }
    }

    /// Cell pairs each set-up runs untimed after generating the inputs:
    /// enough that the set-up time averages over many inputs.
    fn warm_up(self) -> usize {
        match self {
            Kind::Coop => 16,
            Kind::Storm => 8,
        }
    }

    /// Simulated cycles per cell.
    fn cycles(self) -> u64 {
        match self {
            Kind::Coop => 80,
            // The blackout (cycles 40–90) and fifty cycles of recovery.
            Kind::Storm => 140,
        }
    }
}

/// The two policies every cell runs under, paired on identical inputs.
const POLICIES: [PolicyRef; 2] = [COEFFICIENT, FSPEC];

/// The cell inputs, policy-interleaved: cell `2i` is CoEfficient and
/// `2i + 1` FSPEC on the same inputs, so host drift hits both alike.
pub fn make_cells(kind: Kind, seed: u64) -> Vec<RunConfig> {
    let (cells, cycles) = (kind.cells(), kind.cycles());
    let cluster = match kind {
        Kind::Coop => ClusterConfig::paper_mixed(50),
        Kind::Storm => ClusterConfig::paper_mixed(25),
    };
    let horizon = cluster.cycle_duration() * cycles;
    let mut out = Vec::with_capacity(2 * cells as usize);
    for i in 0..cells {
        let cell_seed = derive(seed, kind.name(), i);
        let (count, scenario) = match kind {
            Kind::Coop => (
                60,
                if i % 2 == 0 {
                    Scenario::ber7()
                } else {
                    Scenario::ber9()
                },
            ),
            Kind::Storm => (
                40,
                Scenario::ber7().storm().with_campaign(
                    "BER-7-storm+blackout",
                    CampaignSpec::new().blackout(CampaignTarget::A, 40, 50),
                ),
            ),
        };
        let statics = workloads::synthetic::message_set(
            &SyntheticSpec {
                count,
                ..SyntheticSpec::default()
            },
            cell_seed,
        );
        let dynamics = workloads::sae::message_set(IdRange::For80Slots, cell_seed);
        for policy in POLICIES {
            out.push(RunConfig {
                cluster: cluster.clone(),
                scenario: scenario.clone(),
                static_messages: statics.clone(),
                dynamic_messages: dynamics.clone(),
                policy,
                stop: StopCondition::Horizon(horizon),
                seed: cell_seed,
                trace: TraceConfig::off(),
            });
        }
    }
    out
}

/// The invariants every cell report must hold.
fn sane(report: &RunReport) -> bool {
    !report.truncated
        && report.produced > 0
        && report.frames > 0
        && report.counters.steal_identity_holds()
}

/// One untimed-or-timed run of a cell: (`Runner::new` µs, `run` µs,
/// report), or `None` on refusal or panic.
fn run_cell(cfg: &RunConfig) -> Option<(f64, f64, RunReport)> {
    let cfg = cfg.clone();
    guarded(move || {
        let t = Instant::now();
        let runner = Runner::new(cfg).ok()?;
        let new_us = micros_since(t);
        let t = Instant::now();
        let report = runner.run();
        Some((new_us, micros_since(t), report))
    })
    .flatten()
}

pub fn run(args: &Args, kind: Kind) -> Report {
    let (cells, cycles) = (kind.cells(), kind.cycles());
    let key = format!("{}/seed={}", kind.name(), args.seed);
    let mut report = Report::default();

    let mut clock = HostClock::new();
    let (cfgs, setup_s) = repeated_setup(&mut clock, &mut report, |timer| {
        let cfgs = timer.step(|| make_cells(kind, args.seed));
        for cfg in &cfgs[..2 * kind.warm_up()] {
            std::hint::black_box(timer.step(|| run_cell(cfg)));
        }
        cfgs
    });
    let mut check = OutputCheck::new(cfgs.len(), &key, args);
    report.note(format!(
        "{}: {cells} cells x 2 policies, {cycles} cycles each, seed {}, reference {}",
        kind.name(),
        args.seed,
        if check.has_reference() {
            "checked"
        } else {
            "not recorded for this seed"
        }
    ));

    if args.trace || args.record {
        traced(args, &key, &cfgs, &mut check, &mut report);
        return report;
    }

    let cycle_ns = cfgs[0].cluster.cycle_duration().as_nanos() as f64;
    let (mut per_cycle, mut runner_new) = (PerOp::new(cfgs.len()), PerOp::new(cfgs.len()));
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        for (i, cfg) in cfgs.iter().enumerate() {
            clock.calibrate();
            let ok = match run_cell(cfg) {
                Some((new_us, run_us, r)) if sane(&r) => {
                    let sim_cycles = r.running_time.as_nanos() as f64 / cycle_ns;
                    let scale = clock.scale();
                    runner_new.record(i, new_us * scale);
                    per_cycle.record(i, run_us * scale / sim_cycles);
                    check.check(i, r.fingerprint())
                }
                _ => false,
            };
            report.op(ok);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    // Even cells run CoEfficient, odd ones FSPEC (see `make_cells`).
    let coefficient = per_cycle.samples(|i| i % 2 == 0);
    let fspec = per_cycle.samples(|i| i % 2 == 1);
    let runner_new = runner_new.samples(|i| i % 2 == 0);
    crate::end_to_end(
        &mut report,
        setup_s,
        [
            ("coefficient.cycle_us", &coefficient),
            ("fspec.cycle_us", &fspec),
            ("coefficient.runner_new_us", &runner_new),
        ],
    );
    report
}

/// One untraced pass for the reference counters and time, then traced
/// replays of the same cells until the time is up.
fn traced(
    args: &Args,
    key: &str,
    cfgs: &[RunConfig],
    check: &mut OutputCheck,
    report: &mut Report,
) {
    let mut summary = TraceSummary::default();
    let mut untraced = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let r = run_cell(cfg).filter(|(_, _, r)| sane(r));
        let ok = r
            .as_ref()
            .is_some_and(|(_, _, r)| check.check(i, r.fingerprint()));
        report.op(ok);
        if let Some((new_us, run_us, r)) = r {
            summary.untraced_ns += (new_us + run_us) * 1e3;
            trace::add_counts(&mut summary.counts, &r);
            untraced.push(Some(r));
        } else {
            untraced.push(None);
        }
    }

    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        for (cfg, expected) in cfgs.iter().zip(&untraced) {
            let _ = trace::take();
            let t = Instant::now();
            let replay = guarded(|| Replay::new(cfg.clone()).ok().map(Replay::run)).flatten();
            let wall = t.elapsed().as_nanos() as f64;
            let accs = trace::take();
            let ok = match (&replay, expected) {
                (Some(out), Some(r)) => {
                    summary.wall_ns += wall - out.probe_ns as f64;
                    summary.accs.merge(&accs);
                    summary.add_replay(out);
                    summary.cells += 1;
                    out.counters == r.counters
                        && out.cooperative_static_serves == r.cooperative_static_serves
                        && out.copy_transmissions == r.copy_transmissions
                        && out.early_copies_sent == r.early_copies_sent
                        && out.scratch_bytes == r.peak_scratch_bytes
                }
                _ => false,
            };
            if !ok {
                summary.counter_mismatches += 1;
            }
            report.op(ok);
        }
        if summary.end_pass(report) {
            if args.record {
                reference::record(report, key, check, &summary);
                return;
            }
            reference::check_pass(key, &summary, report);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    summary.traced_ns = summary.wall_ns / summary.passes as f64;
    summary.report(report);
}
