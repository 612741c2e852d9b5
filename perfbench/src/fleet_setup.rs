//! `fleet-setup`: vehicle batches through `fleet::exec::run` on the
//! `mixed` environment, CoEfficient + Greedy, 10 ms horizons.
//!
//! A vehicle's cost is mostly `Runner::new` (the Theorem-1 plan is a
//! large part of it), so set-up optimisations show here and cycle
//! optimisations barely do. Each batch is one `exec::run` call on one
//! worker; a probe then times `Runner::new` and `Runner::run` on the
//! batch's first vehicles directly.

use std::time::Instant;

use coefficient::{PolicyRef, RunReport, Runner, COEFFICIENT, GREEDY};
use event_sim::rng::derive;
use event_sim::SimDuration;
use fleet::{FleetAggregate, FleetSpec};

use crate::reference::{self, OutputCheck};
use crate::stats::{micros_since, HostClock, PerOp};
use crate::trace::{self, Layer, Replay, TraceSummary};
use crate::{guarded, repeated_setup, Args, Report, SetupTimer};

const POLICIES: [PolicyRef; 2] = [COEFFICIENT, GREEDY];
/// Vehicle batches, one `exec::run` each.
const BATCHES: u64 = 300;
/// Vehicles per batch.
const VEHICLES: u64 = 24;
/// Simulated cycles per vehicle (5 ms each).
const CYCLES: u64 = 2;
/// Batches each set-up warms up on after generating the inputs.
const WARM_UP: usize = 6;
/// Vehicles of each batch whose `Runner::new` / `run` the probe times.
const PROBED: u64 = 4;

/// Executor workers. One: on a small shared host a second worker's time
/// depends on the other tenants, which the single-threaded host
/// normalisation cannot see, and the ROADMAP's fleet baseline is
/// single-threaded too.
const WORKERS: usize = 1;

fn batches(seed: u64) -> Vec<FleetSpec> {
    let env = fleet::env::resolve("mixed").expect("the mixed environment is registered");
    (0..BATCHES)
        .map(|i| FleetSpec {
            vehicles: VEHICLES,
            policies: POLICIES.to_vec(),
            env,
            seed: derive(seed, "fleet-setup", i),
            horizon: SimDuration::from_millis(5 * CYCLES),
            minislots: 50,
            // Six shards per batch, so every batch also exercises the
            // executor's shard queue and the aggregate merge.
            shard_size: 4,
        })
        .collect()
}

/// One `exec::run` of `spec`: (µs, digest), or `None` if a vehicle went
/// unaccounted, was unschedulable, or the run panicked.
fn exec(spec: &FleetSpec) -> Option<(f64, u64)> {
    guarded(|| {
        let t = Instant::now();
        let run = fleet::exec::run(spec, WORKERS);
        let us = micros_since(t);
        let agg = &run.aggregate;
        let complete = (0..POLICIES.len()).all(|p| {
            let per = agg.policy(p);
            per.vehicles == spec.vehicles && per.unschedulable == 0 && per.truncated == 0
        });
        complete.then(|| (us, agg.digest()))
    })
    .flatten()
}

/// Runs `spec`'s vehicles into an aggregate as the executor does, shard by
/// shard, but on this thread: the host normalisation calibrates on this
/// thread and cannot see the load on the CPU an executor worker lands on.
/// Each shard is one set-up step.
fn warm_up(spec: &FleetSpec, timer: &mut SetupTimer) {
    let mut global = FleetAggregate::new(&spec.policies);
    for shard in 0..spec.shard_count() {
        timer.step(|| {
            let mut local = FleetAggregate::new(&spec.policies);
            for v in spec.shard_range(shard) {
                for (p, &policy) in POLICIES.iter().enumerate() {
                    let cfg = spec.vehicle_config(v, policy);
                    if let Some(r) = guarded(|| Runner::new(cfg).ok().map(Runner::run)).flatten() {
                        local.record(p, v, spec.vehicle_draw(v).condition, &r);
                    }
                }
            }
            global.merge(&local);
        });
    }
    std::hint::black_box(global);
}

/// Times `Runner::new` and `run` on vehicle `v` under CoEfficient.
fn probe(spec: &FleetSpec, v: u64) -> Option<(f64, f64, RunReport)> {
    guarded(|| {
        let cfg = spec.vehicle_config(v, COEFFICIENT);
        let t = Instant::now();
        let runner = Runner::new(cfg).ok()?;
        let new_us = micros_since(t);
        let t = Instant::now();
        let report = runner.run();
        Some((new_us, micros_since(t), report))
    })
    .flatten()
}

pub fn run(args: &Args) -> Report {
    let key = format!("fleet-setup/seed={}", args.seed);
    let mut report = Report::default();

    let mut clock = HostClock::new();
    let (specs, setup_s) = repeated_setup(&mut clock, &mut report, |timer| {
        let specs = timer.step(|| batches(args.seed));
        for spec in &specs[..WARM_UP] {
            warm_up(spec, timer);
        }
        specs
    });
    // Outputs: one digest per batch, then one fingerprint per probe.
    let ops = specs.len() * (1 + PROBED as usize);
    let mut check = OutputCheck::new(ops, &key, args);
    report.note(format!(
        "fleet-setup: {BATCHES} batches x {VEHICLES} vehicles x {} policies, {} ms horizon, \
         {WORKERS} worker (available parallelism {}), seed {}, reference {}",
        POLICIES.len(),
        5 * CYCLES,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        if check.has_reference() {
            "checked"
        } else {
            "not recorded for this seed"
        }
    ));
    let probe_index = |b: usize, k: u64| specs.len() + b * PROBED as usize + k as usize;

    if args.trace || args.record {
        traced(args, &key, &specs, &mut check, &mut report, probe_index);
        return report;
    }

    let cycle_count = CYCLES as f64;
    let probes = specs.len() * PROBED as usize;
    let mut per_vehicle = PerOp::new(specs.len());
    let (mut runner_new, mut per_cycle) = (PerOp::new(probes), PerOp::new(probes));
    let (mut vehicles, mut exec_us) = (0u64, 0.0);
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        for (b, spec) in specs.iter().enumerate() {
            clock.calibrate();
            let ok = exec(spec).is_some_and(|(us, digest)| {
                per_vehicle.record(b, us * clock.scale() / spec.vehicles as f64);
                vehicles += spec.vehicles;
                exec_us += us;
                check.check(b, digest)
            });
            report.op(ok);
            for k in 0..PROBED {
                let i = b * PROBED as usize + k as usize;
                let ok = probe(spec, k).is_some_and(|(new_us, run_us, r)| {
                    runner_new.record(i, new_us * clock.scale());
                    per_cycle.record(i, run_us * clock.scale() / cycle_count);
                    check.check(probe_index(b, k), r.fingerprint())
                });
                report.op(ok);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    report.note(format!(
        "vehicles_per_s = {:.1} 1/s (raw host time) over {vehicles} vehicles",
        vehicles as f64 / (exec_us / 1e6)
    ));
    let (per_vehicle, runner_new, per_cycle) = (
        per_vehicle.samples(|_| true),
        runner_new.samples(|_| true),
        per_cycle.samples(|_| true),
    );
    crate::end_to_end(
        &mut report,
        setup_s,
        [
            ("vehicle_us", &per_vehicle),
            ("coefficient.cycle_us", &per_cycle),
            ("coefficient.runner_new_us", &runner_new),
        ],
    );
    report
}

/// Per batch: `exec::run` for its wall and digest; the same vehicles
/// serially through `Runner` (untraced) into a rebuilt aggregate whose
/// digest must match; then serially through the traced replay, whose
/// counters must match the untraced reports. `fleet.exec_overhead` is the
/// `exec::run` wall minus the untraced serial work divided by workers.
fn traced(
    args: &Args,
    key: &str,
    specs: &[FleetSpec],
    check: &mut OutputCheck,
    report: &mut Report,
    probe_index: impl Fn(usize, u64) -> usize,
) {
    let mut summary = TraceSummary::default();
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    loop {
        for (b, spec) in specs.iter().enumerate() {
            let Some((exec_us, digest)) = exec(spec) else {
                report.op(false);
                continue;
            };
            report.op(check.check(b, digest));

            // Untraced serial replica of the executor's per-vehicle work.
            let _ = trace::take();
            let t = Instant::now();
            let mut global = FleetAggregate::new(&spec.policies);
            let mut reports = Vec::with_capacity((spec.vehicles as usize) * POLICIES.len());
            for shard in 0..spec.shard_count() {
                let mut local = FleetAggregate::new(&spec.policies);
                for v in spec.shard_range(shard) {
                    for (p, &policy) in POLICIES.iter().enumerate() {
                        let t = Instant::now();
                        let cfg = spec.vehicle_config(v, policy);
                        let condition = spec.vehicle_draw(v).condition;
                        trace::record(Layer::VehicleConfig, t.elapsed().as_nanos() as u64, false);
                        let Some(r) = guarded(|| Runner::new(cfg).ok().map(Runner::run)).flatten()
                        else {
                            report.op(false);
                            continue;
                        };
                        let t = Instant::now();
                        local.record(p, v, condition, &r);
                        trace::record(Layer::AggRecord, t.elapsed().as_nanos() as u64, false);
                        if v < PROBED && policy == COEFFICIENT {
                            report.op(check.check(probe_index(b, v), r.fingerprint()));
                        }
                        reports.push((v, p, r));
                    }
                }
                let t = Instant::now();
                global.merge(&local);
                trace::record(Layer::AggRecord, t.elapsed().as_nanos() as u64, false);
            }
            let serial_ns = t.elapsed().as_nanos() as f64;
            report.op(global.digest() == digest);
            let serial_accs = trace::take();
            summary.untraced_ns += serial_ns;

            // Traced serial replay of the same vehicles.
            let t = Instant::now();
            let mut probe_ns = 0u64;
            for (v, p, r) in &reports {
                let tc = Instant::now();
                let cfg = spec.vehicle_config(*v, POLICIES[*p]);
                let _ = spec.vehicle_draw(*v).condition;
                trace::record(Layer::VehicleConfig, tc.elapsed().as_nanos() as u64, false);
                let out = guarded(|| Replay::new(cfg).ok().map(Replay::run)).flatten();
                let ok = out.is_some_and(|out| {
                    probe_ns += out.probe_ns;
                    summary.add_replay(&out);
                    out.counters == r.counters
                });
                if !ok {
                    summary.counter_mismatches += 1;
                }
                report.op(ok);
                summary.cells += 1;
            }
            let mut accs = trace::take();
            // Folding into the aggregate is not replayed: reuse the
            // untraced measurement of it.
            let agg = serial_accs.get(Layer::AggRecord);
            accs.set(Layer::AggRecord, agg);
            let overhead_ns = (exec_us * 1e3 - serial_ns / WORKERS as f64).max(0.0);
            accs.add(Layer::ExecOverhead, overhead_ns as u64, false);
            let traced_ns =
                (t.elapsed().as_nanos() as u64).saturating_sub(probe_ns) as f64 + agg.ns as f64;
            summary.traced_ns += traced_ns;
            summary.wall_ns += traced_ns + overhead_ns;
            summary.accs.merge(&accs);
            if summary.passes == 0 {
                for (_, _, r) in &reports {
                    trace::add_counts(&mut summary.counts, r);
                }
            }
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
    summary.report(report);
}
