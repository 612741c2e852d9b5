//! `backbone-e2e`: `backbone::run_cell` over the `paper-duplex` matrix —
//! both reservations × {BER-7, BER-7-storm} × seeds drawn from the
//! workload seed.
//!
//! The only workload that reaches `tasks::simulate`, the reservation
//! planners and the gateway. Cells under the `hypercycle` reservation
//! are the timed operation; cells under `per-cycle` are the control. The
//! traced mode rebuilds each cell's parts from public calls — the plan,
//! each domain's FlexRay run, the CPU schedules and the gateway — and
//! reports the rest of `run_cell` as one unattributed share.

use std::time::Instant;

use backbone::gateway::GatewayArrival;
use backbone::runner::DEFAULT_HYPERCYCLES;
use backbone::topology::{ACTUATOR_TASK_BASE, DOMAINS};
use backbone::{CellReport, CellSpec, MatrixSpec, Topology, HYPERCYCLE, PER_CYCLE};
use coefficient::{RunConfig, Runner, Scenario, StopCondition, COEFFICIENT};
use event_sim::rng::derive;
use event_sim::{SimDuration, SimTime};
use flexray::signal::Signal;
use observe::Tracer;
use tasks::{simulate, ExecutionTrace, PeriodicTask, SimulateOptions, TaskSet};

use crate::reference::{self, OutputCheck};
use crate::stats::{micros_since, HostClock, PerOp};
use crate::trace::{self, Layer, TraceSummary};
use crate::{guarded, repeated_setup, Args, Report};

/// Seeds per (reservation, scenario) pair.
const SEEDS: u64 = 150;
/// Cells each set-up runs untimed after generating the inputs.
const WARM_UP: usize = 32;

fn cells(seed: u64) -> Vec<CellSpec<'static>> {
    let topology = backbone::resolve_topology("paper-duplex").expect("paper-duplex is registered");
    MatrixSpec {
        topology,
        reservations: vec![PER_CYCLE, HYPERCYCLE],
        scenarios: vec![Scenario::ber7(), Scenario::ber7().storm()],
        seeds: (0..SEEDS)
            .map(|i| derive(seed, "backbone-e2e", i))
            .collect(),
        hypercycles: DEFAULT_HYPERCYCLES,
    }
    .cells()
}

/// `run_cell` timed: (µs, report), or `None` on error or panic.
fn run_cell(cell: &CellSpec<'_>) -> Option<(f64, CellReport)> {
    guarded(|| {
        let t = Instant::now();
        let r = backbone::run_cell(cell).ok()?;
        Some((micros_since(t), r))
    })
    .flatten()
}

/// The `RunConfig` `run_cell` builds for `domain`, or `None` for a domain
/// no flow is sourced in.
fn domain_config(cell: &CellSpec<'_>, domain: u8) -> Option<RunConfig> {
    let t = cell.topology;
    let hyper = t.hypercycle();
    let statics: Vec<Signal> = t
        .flows
        .iter()
        .filter(|f| f.source_domain == domain)
        .map(|f| Signal::new(f.id, f.period, SimDuration::ZERO, f.period, f.size_bits))
        .collect();
    (!statics.is_empty()).then(|| RunConfig {
        cluster: t.cluster.clone(),
        scenario: cell.scenario.clone(),
        static_messages: statics,
        dynamic_messages: Vec::new(),
        policy: COEFFICIENT,
        stop: StopCondition::Horizon(hyper * cell.hypercycles + hyper),
        seed: derive(cell.seed, "backbone/domain", u64::from(domain)),
        trace: Default::default(),
    })
}

/// The sensor and actuator tasks of `domain`'s CPU.
fn cpu_tasks(t: &Topology, domain: u8) -> Vec<PeriodicTask> {
    let mut tasks = Vec::new();
    for f in &t.flows {
        if f.source_domain == domain {
            tasks.push(PeriodicTask::new(f.id, f.sensor_wcet, f.period, f.period));
        }
        if f.dest_domain() == domain {
            tasks.push(PeriodicTask::new(
                ACTUATOR_TASK_BASE + f.id,
                f.actuator_wcet,
                f.period,
                f.period,
            ));
        }
    }
    tasks
}

pub fn run(args: &Args) -> Report {
    let key = format!("backbone-e2e/seed={}", args.seed);
    let mut report = Report::default();

    let mut clock = HostClock::new();
    let (specs, setup_s) = repeated_setup(&mut clock, &mut report, |timer| {
        let specs = timer.step(|| cells(args.seed));
        for cell in &specs[..WARM_UP] {
            std::hint::black_box(timer.step(|| run_cell(cell)));
        }
        specs
    });
    let mut check = OutputCheck::new(specs.len(), &key, args);
    report.note(format!(
        "backbone-e2e: {} cells (2 reservations x 2 scenarios x {SEEDS} seeds), \
         {DEFAULT_HYPERCYCLES} hypercycles, seed {}, reference {}",
        specs.len(),
        args.seed,
        if check.has_reference() {
            "checked"
        } else {
            "not recorded for this seed"
        }
    ));

    if args.trace || args.record {
        traced(args, &key, &specs, &mut check, &mut report);
        return report;
    }

    let domains = usize::from(DOMAINS);
    let mut cell_us = PerOp::new(specs.len());
    let mut runner_new = PerOp::new(specs.len() * domains);
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        for (i, cell) in specs.iter().enumerate() {
            clock.calibrate();
            let ok = run_cell(cell).is_some_and(|(us, r)| {
                cell_us.record(i, us * clock.scale());
                r.jitter_violations == 0 && r.admitted > 0 && check.check(i, r.fingerprint())
            });
            report.op(ok);
            for domain in 0..DOMAINS {
                let Some(cfg) = domain_config(cell, domain) else {
                    continue;
                };
                let t = Instant::now();
                let built = guarded(|| Runner::new(cfg).is_ok()).unwrap_or(false);
                runner_new.record(
                    i * domains + usize::from(domain),
                    micros_since(t) * clock.scale(),
                );
                report.op(built);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let storm = |i: usize| specs[i].scenario.name != Scenario::ber7().name;
    let all_ms = cell_us.samples(|_| true);
    let storm_us = cell_us.samples(storm);
    let ber7_us = cell_us.samples(|i| !storm(i));
    let runner_new = runner_new.samples(|_| true);
    report.note(format!(
        "backbone.cell_ms.p50 = {:.3} ms, backbone.cell_ms.p90 = {:.3} ms (n = {})",
        all_ms.quantile(0.5) / 1e3,
        all_ms.quantile(0.9) / 1e3,
        all_ms.len()
    ));
    crate::end_to_end(
        &mut report,
        setup_s,
        [
            ("storm.cell_us", &storm_us),
            ("ber7.cell_us", &ber7_us),
            ("coefficient.runner_new_us", &runner_new),
        ],
    );
    report
}

/// Times `f` as one call of `layer`, returning its result and ns.
fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    trace::record(layer, ns, false);
    (out, ns)
}

/// Rebuilds `cell` from its parts, checking each against `expected`.
/// Returns the nanoseconds the parts took, or `None` on a mismatch.
fn rebuild(cell: &CellSpec<'_>, expected: &CellReport, summary: &mut TraceSummary) -> Option<u64> {
    let t = cell.topology;
    let hyper = t.hypercycle();
    let span = hyper * cell.hypercycles;
    let (plan, mut parts_ns) = timed(Layer::ReservationPlan, || cell.reservation.plan(t));
    for port in &plan.ports {
        summary.windows_reserved += port.windows_reserved();
        summary.windows_total += port.windows_total();
    }
    let releases: Vec<u64> = t
        .flows
        .iter()
        .map(|f| span.as_nanos() / f.period.as_nanos())
        .collect();
    let mut deliveries: Vec<Vec<Option<SimTime>>> = vec![Vec::new(); t.flows.len()];
    let mut cpus: Vec<Option<ExecutionTrace>> = Vec::new();
    for domain in 0..DOMAINS {
        let mut fingerprint = 0;
        if let Some(cfg) = domain_config(cell, domain) {
            let (run, ns) = timed(Layer::DomainRunner, || {
                Runner::new(cfg).ok().map(Runner::run_with_instances)
            });
            let (r, instances) = run?;
            parts_ns += ns;
            fingerprint = r.fingerprint();
            trace::add_counts(&mut summary.counts, &r);
            for (i, f) in t.flows.iter().enumerate() {
                if f.source_domain == domain {
                    deliveries[i] = instances
                        .iter()
                        .filter(|s| s.message == f.id)
                        .take(releases[i] as usize)
                        .map(|s| s.delivered_at)
                        .collect();
                    deliveries[i].resize(releases[i] as usize, None);
                }
            }
        }
        if expected.domain_fingerprints.get(usize::from(domain)) != Some(&fingerprint) {
            return None;
        }
        let tasks = cpu_tasks(t, domain);
        let cpu = if tasks.is_empty() {
            None
        } else {
            let set = TaskSet::deadline_monotonic(tasks).ok()?;
            let (cpu, ns) = timed(Layer::TasksSimulator, || {
                simulate(
                    &set,
                    &[],
                    SimulateOptions::new(SimTime::ZERO + span + hyper * 2),
                )
            });
            parts_ns += ns;
            Some(cpu)
        };
        cpus.push(cpu);
    }
    let mut arrivals: Vec<GatewayArrival> = Vec::new();
    for (i, f) in t.flows.iter().enumerate() {
        if !plan.flows[i].admitted {
            continue;
        }
        let sensor = cpus[usize::from(f.source_domain)].as_ref()?;
        for k in 0..releases[i] {
            let completed = sensor.completion_of_job(f.id, k).map(|c| c.completion);
            if let (Some(c), Some(d)) = (completed, deliveries[i][k as usize]) {
                arrivals.push((c.max(d), f.id, k));
            }
        }
    }
    let (outcomes, ns) = timed(Layer::Gateway, || {
        backbone::simulate_gateway(t, &plan, &arrivals, &Tracer::disabled())
    });
    parts_ns += ns;
    let frames: u64 = expected.ports.iter().map(|p| p.frames).sum();
    (outcomes.len() as u64 == frames).then_some(parts_ns)
}

/// One untraced pass, then per cell: `run_cell` timed again and its parts
/// rebuilt and timed; the remainder of the cell's wall is unattributed.
/// The overhead compares the rebuild, spans included, with the `run_cell`
/// just before it.
fn traced(
    args: &Args,
    key: &str,
    specs: &[CellSpec<'static>],
    check: &mut OutputCheck,
    report: &mut Report,
) {
    let mut summary = TraceSummary::default();
    let mut untraced = Vec::with_capacity(specs.len());
    for (i, cell) in specs.iter().enumerate() {
        let r = run_cell(cell);
        report.op(r
            .as_ref()
            .is_some_and(|(_, r)| check.check(i, r.fingerprint())));
        untraced.push(r.map(|(_, r)| r));
    }

    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        let mut counts = TraceSummary::default();
        for (cell, expected) in specs.iter().zip(&untraced) {
            let Some(expected) = expected else {
                report.op(false);
                continue;
            };
            let _ = trace::take();
            let t = Instant::now();
            let again = run_cell(cell);
            let cell_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            let parts = guarded(|| rebuild(cell, expected, &mut counts)).flatten();
            let rebuild_ns = t.elapsed().as_nanos() as f64;
            let mut accs = trace::take();
            let ok = match (again, parts) {
                (Some((_, r)), Some(parts_ns)) if &r == expected => {
                    accs.add(
                        Layer::BackboneUnattributed,
                        (cell_ns - parts_ns as f64).max(0.0) as u64,
                        false,
                    );
                    summary.accs.merge(&accs);
                    summary.wall_ns += cell_ns;
                    summary.untraced_ns += cell_ns;
                    summary.traced_ns += rebuild_ns;
                    summary.cells += 1;
                    true
                }
                _ => false,
            };
            if !ok {
                summary.counter_mismatches += 1;
            }
            report.op(ok);
        }
        if summary.end_pass(report) {
            summary.counts = counts.counts;
            summary.windows_reserved = counts.windows_reserved;
            summary.windows_total = counts.windows_total;
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
    summary.report(report);
}
