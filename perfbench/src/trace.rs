//! The traced replay: per-layer spans recorded from the benchmark's own
//! code around calls into each layer's public functions.
//!
//! `Runner` hides its engine, so the traced mode rebuilds a run from the
//! same public pieces `Runner::new` and `Runner::run` use — the
//! Theorem-1 planner, `Scheduler`, `BusEngine`, the fault processes and
//! `ReliabilityMonitor` — and drives `BusEngine::run_cycle` with the
//! scheduler wrapped in a forwarding [`TrafficSource`]. The replay must
//! reproduce the untraced run's `RunCounters` exactly; every workload
//! checks that for every cell.
//!
//! Sub-cycle calls are folded into per-layer count and nanosecond
//! accumulators (thread-local, no allocation) instead of one span per
//! call; the workload resets them per cell and folds them into its
//! totals.

use std::cell::RefCell;
use std::time::Instant;

use coefficient::{
    CoefficientOptions, FaultModel, RunConfig, RunCounters, Scheduler, SchedulerError,
    StopCondition,
};
use event_sim::rng::substream;
use event_sim::{SimDuration, SimTime};
use flexray::bus::{BusEngine, OutboundPayload, TrafficSource, TransmissionOutcome};
use flexray::codec::FrameCoding;
use flexray::ChannelId;
use rand::Rng;
use reliability::campaign::{CampaignCounters, CampaignFaults};
use reliability::fault::{
    BernoulliFaults, FaultCounters, FaultProcess, GilbertElliott, SegmentHits,
};
use reliability::monitor::{HealthState, MonitorConfig, ReliabilityMonitor};
use reliability::{Ber, MessageReliability, RetransmissionPlanner};

use crate::stats::Metric;
use crate::Report;

/// The layers the traced run attributes time to, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `RetransmissionPlanner::plan_for_goal`, reached through the
    /// policy's `plan_copies`.
    Plan,
    /// `Scheduler::new_with_options` minus the plan.
    Alloc,
    /// `BusEngine::new … with_health_monitoring`, fault processes included.
    BusBuild,
    /// The rest of `Runner::new` and of the cycle loop: release phases,
    /// instance reservation, stop checks and counter collection.
    RunnerGlue,
    /// `static_frame` on a position the allocation leaves free.
    CoopFill,
    /// `static_frame` on an occupied position.
    StaticOwn,
    /// `dynamic_frame`.
    DynamicArb,
    /// `on_outcome`.
    OnOutcome,
    /// `purge_expired` and the release merge around `produce_static` /
    /// `produce_dynamic`.
    ProducePurge,
    /// Every `FaultProcess::corrupts` draw.
    FaultDraw,
    /// `ReliabilityMonitor::observe` plus `Scheduler::set_health`.
    Monitor,
    /// `BusEngine::run_cycle` minus the scheduler and fault spans inside.
    BusCycleSelf,
    /// `FleetSpec::vehicle_config`.
    VehicleConfig,
    /// `FleetAggregate::record` / `merge` (with `LogHistogram`).
    AggRecord,
    /// `exec::run` wall minus per-vehicle work divided by workers.
    ExecOverhead,
    /// `ReservationRef::plan`.
    ReservationPlan,
    /// A backbone domain's `Runner::new` + `run_with_instances`.
    DomainRunner,
    /// `tasks::simulate`.
    TasksSimulator,
    /// `simulate_gateway`.
    Gateway,
    /// The remainder of `run_cell` no other span covers.
    BackboneUnattributed,
}

pub const LAYERS: [Layer; 20] = [
    Layer::Plan,
    Layer::Alloc,
    Layer::BusBuild,
    Layer::RunnerGlue,
    Layer::CoopFill,
    Layer::StaticOwn,
    Layer::DynamicArb,
    Layer::OnOutcome,
    Layer::ProducePurge,
    Layer::FaultDraw,
    Layer::Monitor,
    Layer::BusCycleSelf,
    Layer::VehicleConfig,
    Layer::AggRecord,
    Layer::ExecOverhead,
    Layer::ReservationPlan,
    Layer::DomainRunner,
    Layer::TasksSimulator,
    Layer::Gateway,
    Layer::BackboneUnattributed,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Plan => "reliability.plan",
            Layer::Alloc => "coefficient.alloc",
            Layer::BusBuild => "flexray.bus_build",
            Layer::RunnerGlue => "coefficient.runner_glue",
            Layer::CoopFill => "coefficient.coop_fill",
            Layer::StaticOwn => "coefficient.static_own",
            Layer::DynamicArb => "coefficient.dynamic_arb",
            Layer::OnOutcome => "coefficient.on_outcome",
            Layer::ProducePurge => "coefficient.produce_purge",
            Layer::FaultDraw => "reliability.fault_draw",
            Layer::Monitor => "reliability.monitor",
            Layer::BusCycleSelf => "flexray.bus_cycle_self",
            Layer::VehicleConfig => "fleet.vehicle_config",
            Layer::AggRecord => "fleet.agg_record",
            Layer::ExecOverhead => "fleet.exec_overhead",
            Layer::ReservationPlan => "backbone.reservation_plan",
            Layer::DomainRunner => "backbone.domain_runner",
            Layer::TasksSimulator => "tasks.simulator",
            Layer::Gateway => "backbone.gateway",
            Layer::BackboneUnattributed => "backbone.unattributed",
        }
    }
}

/// Count, self nanoseconds and useful outcomes of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerAcc {
    pub calls: u64,
    pub ns: u64,
    pub hits: u64,
}

/// Every layer's accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Accs([LayerAcc; LAYERS.len()]);

impl Default for Accs {
    fn default() -> Self {
        Accs(
            [LayerAcc {
                calls: 0,
                ns: 0,
                hits: 0,
            }; LAYERS.len()],
        )
    }
}

impl Accs {
    pub fn add(&mut self, layer: Layer, ns: u64, hit: bool) {
        let acc = &mut self.0[layer as usize];
        acc.calls += 1;
        acc.ns += ns;
        acc.hits += u64::from(hit);
    }

    pub fn get(&self, layer: Layer) -> LayerAcc {
        self.0[layer as usize]
    }

    pub fn set(&mut self, layer: Layer, acc: LayerAcc) {
        self.0[layer as usize] = acc;
    }

    pub fn merge(&mut self, other: &Accs) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.hits += b.hits;
        }
    }

    /// Every layer's calls, in [`LAYERS`] order.
    pub fn calls(&self) -> [u64; LAYERS.len()] {
        self.0.map(|a| a.calls)
    }

    /// Self nanoseconds summed over every layer.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|a| a.ns).sum()
    }
}

thread_local! {
    static ACCS: RefCell<Accs> = RefCell::new(Accs::default());
}

/// Adds one call of `layer` taking `ns` to this thread's accumulators.
pub fn record(layer: Layer, ns: u64, hit: bool) {
    ACCS.with(|a| a.borrow_mut().add(layer, ns, hit));
}

/// Takes and resets this thread's accumulators.
pub fn take() -> Accs {
    ACCS.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Forwarding fault process that times each draw.
#[derive(Debug)]
struct TimedFaults(Box<dyn FaultProcess>);

impl FaultProcess for TimedFaults {
    fn corrupts(&mut self, bits: u32) -> bool {
        let t = Instant::now();
        let hit = self.0.corrupts(bits);
        record(Layer::FaultDraw, ns_since(t), hit);
        hit
    }
    fn frame_failure_probability(&self, bits: u32) -> f64 {
        self.0.frame_failure_probability(bits)
    }
    fn counters(&self) -> FaultCounters {
        self.0.counters()
    }
    fn in_burst(&self) -> bool {
        self.0.in_burst()
    }
    fn on_cycle_start(&mut self, cycle: u64) {
        self.0.on_cycle_start(cycle);
    }
    fn campaign_counters(&self) -> Option<CampaignCounters> {
        self.0.campaign_counters()
    }
    fn corrupts_run(&mut self, bits: u32, frames: u32) -> SegmentHits {
        let t = Instant::now();
        let hits = self.0.corrupts_run(bits, frames);
        record(Layer::FaultDraw, ns_since(t), hits.mask != 0);
        hits
    }
}

/// Forwarding traffic source that times each scheduler decision.
struct TracedSource<'a>(&'a mut Scheduler);

impl TrafficSource for TracedSource<'_> {
    fn static_frame(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        slot: u16,
        channel: ChannelId,
    ) -> Option<OutboundPayload> {
        let free = self
            .0
            .allocation()
            .occupant(channel, slot, cycle_counter)
            .is_none();
        let t = Instant::now();
        let frame = self.0.static_frame(cycle, cycle_counter, slot, channel);
        let layer = if free {
            Layer::CoopFill
        } else {
            Layer::StaticOwn
        };
        record(layer, ns_since(t), frame.is_some());
        frame
    }

    fn dynamic_frame(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        slot_counter: u64,
        max_payload_bytes: u16,
    ) -> Option<OutboundPayload> {
        let t = Instant::now();
        let frame = self
            .0
            .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes);
        record(Layer::DynamicArb, ns_since(t), frame.is_some());
        frame
    }

    fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
        let t = Instant::now();
        self.0.on_outcome(outcome);
        record(Layer::OnOutcome, ns_since(t), false);
    }
}

/// The layers that run inside `BusEngine::run_cycle`.
const CYCLE_CHILDREN: [Layer; 5] = [
    Layer::CoopFill,
    Layer::StaticOwn,
    Layer::DynamicArb,
    Layer::OnOutcome,
    Layer::FaultDraw,
];

fn children_ns() -> u64 {
    ACCS.with(|a| {
        let a = a.borrow();
        CYCLE_CHILDREN.iter().map(|&l| a.get(l).ns).sum()
    })
}

/// The same cap `Runner` applies.
const MAX_CYCLES: u64 = 5_000_000;

/// What a traced replay observed besides layer time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    pub counters: RunCounters,
    pub cycles: u64,
    pub cooperative_static_serves: u64,
    pub copy_transmissions: u64,
    pub early_copies_sent: u64,
    pub scratch_bytes: u64,
    pub backlog_peak: u64,
    pub backlog_sum: u64,
    /// Nanoseconds of the plan probe, which re-runs the plan outside the
    /// replay and so is excluded from its wall time.
    pub probe_ns: u64,
}

/// A run rebuilt from public parts, equivalent to
/// `Runner::new(cfg)?.run()`.
pub struct Replay {
    cfg: RunConfig,
    scheduler: Scheduler,
    engine: BusEngine,
    phases: Vec<SimDuration>,
    monitor: ReliabilityMonitor,
    effective: HealthState,
    health_transitions: u64,
    storm_entries: u64,
    service_restores: u64,
    probe_ns: u64,
}

impl Replay {
    /// Mirrors `Runner::new`, timing the plan, the allocation and the bus
    /// build separately.
    pub fn new(cfg: RunConfig) -> Result<Replay, SchedulerError> {
        let glue = Instant::now();
        let coding = FrameCoding::default();
        let probe_ns = plan_probe(&cfg, coding);
        let t = Instant::now();
        let scheduler = Scheduler::new_with_options(
            cfg.policy,
            cfg.cluster.clone(),
            coding,
            &cfg.scenario,
            &cfg.static_messages,
            &cfg.dynamic_messages,
            CoefficientOptions::default(),
        );
        let sched_ns = ns_since(t);
        record(Layer::Plan, probe_ns, false);
        record(Layer::Alloc, sched_ns.saturating_sub(probe_ns), false);
        let mut scheduler = scheduler?;

        let t = Instant::now();
        let monitor_cfg = MonitorConfig::for_expected_fault_rate(
            cfg.scenario.ber.frame_failure_probability(1000),
        );
        let engine = BusEngine::new(cfg.cluster.clone())
            .with_coding(coding)
            .with_faults(
                fault(&cfg, 0, cfg.seed ^ 0xA),
                fault(&cfg, 1, cfg.seed ^ 0xB),
            )
            .with_health_monitoring(monitor_cfg);
        let bus_ns = ns_since(t);
        record(Layer::BusBuild, bus_ns, false);

        let monitor = ReliabilityMonitor::new(monitor_cfg);
        let mut rng = substream(cfg.seed, "runner/dynamic-phases");
        let phases: Vec<SimDuration> = cfg
            .dynamic_messages
            .iter()
            .map(|d| SimDuration::from_nanos(rng.gen_range(0..d.min_interarrival.as_nanos())))
            .collect();
        scheduler
            .reserve_instances(usize::try_from(expected_instances(&cfg)).unwrap_or(usize::MAX));
        let glue_ns = ns_since(glue).saturating_sub(probe_ns + sched_ns + bus_ns);
        record(Layer::RunnerGlue, glue_ns, false);
        Ok(Replay {
            cfg,
            scheduler,
            engine,
            phases,
            monitor,
            effective: HealthState::Nominal,
            health_transitions: 0,
            storm_entries: 0,
            service_restores: 0,
            probe_ns,
        })
    }

    /// Mirrors `Runner::run`, one span per cycle phase.
    pub fn run(mut self) -> ReplayOutcome {
        let glue_start = Instant::now();
        let mut spans_ns = 0u64;
        let cluster = self.cfg.cluster.clone();
        let cycle_dur = cluster.cycle_duration();
        let (production_target, horizon) = match self.cfg.stop {
            StopCondition::ProducedInstances(n) => (Some(n), None),
            StopCondition::Horizon(h) => (None, Some(SimTime::ZERO + h)),
            StopCondition::DeliveredInstances(_) => (None, None),
        };
        let statics = self.cfg.static_messages.clone();
        let dynamics = self.cfg.dynamic_messages.clone();
        let mut static_next: Vec<SimTime> =
            statics.iter().map(|s| SimTime::ZERO + s.offset).collect();
        let mut dynamic_next: Vec<SimTime> =
            self.phases.iter().map(|p| SimTime::ZERO + *p).collect();
        let max_static_period = statics
            .iter()
            .map(|s| s.period)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let mut produced = 0u64;
        let mut production_done = statics.is_empty() && dynamics.is_empty();
        let mut last_production = SimTime::ZERO;
        let mut cycle = 0u64;
        let (mut backlog_peak, mut backlog_sum) = (0u64, 0u64);

        loop {
            let t = Instant::now();
            let cycle_start = cluster.cycle_start(cycle);
            let cycle_end = cycle_start + cycle_dur;
            self.scheduler.purge_expired(cycle_start);
            while !production_done {
                let next_static = static_next
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .map(|(i, t)| (i, *t));
                let next_dynamic = dynamic_next
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .map(|(i, t)| (i, *t));
                let pick_static = match (next_static, next_dynamic) {
                    (Some((_, ts)), Some((_, td))) => ts <= td,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                let next = if pick_static {
                    next_static
                } else {
                    next_dynamic
                };
                let Some((i, release)) = next else { break };
                if release >= cycle_end {
                    break;
                }
                if horizon.is_some_and(|h| release >= h) {
                    production_done = true;
                    break;
                }
                if pick_static {
                    self.scheduler.produce_static(statics[i].id, release);
                    static_next[i] = release + statics[i].period;
                } else {
                    self.scheduler
                        .produce_dynamic(dynamics[i].frame_id, release);
                    dynamic_next[i] = release + dynamics[i].min_interarrival;
                }
                produced += 1;
                last_production = release;
                if production_target.is_some_and(|n| produced >= n) {
                    production_done = true;
                }
            }
            let produce_ns = ns_since(t);
            record(Layer::ProducePurge, produce_ns, false);

            let before = children_ns();
            let t = Instant::now();
            self.engine
                .run_cycle(cycle, &mut TracedSource(&mut self.scheduler));
            let cycle_ns = ns_since(t);
            record(
                Layer::BusCycleSelf,
                cycle_ns.saturating_sub(children_ns() - before),
                false,
            );
            cycle += 1;

            let t = Instant::now();
            self.observe_health();
            let monitor_ns = ns_since(t);
            record(Layer::Monitor, monitor_ns, false);
            spans_ns += produce_ns + cycle_ns + monitor_ns;

            let backlog = self.scheduler.dynamic_backlog() as u64;
            backlog_peak = backlog_peak.max(backlog);
            backlog_sum += backlog;
            let elapsed = self.engine.elapsed();
            let done = match self.cfg.stop {
                StopCondition::Horizon(h) => elapsed >= SimTime::ZERO + h,
                StopCondition::ProducedInstances(_) => {
                    production_done
                        && elapsed >= last_production.saturating_add(max_static_period)
                        && self.scheduler.pending_work() == 0
                }
                StopCondition::DeliveredInstances(n) => {
                    self.scheduler.tracker().delivered_in_time() >= n
                }
            };
            if done {
                break;
            }
            if cycle >= MAX_CYCLES {
                break;
            }
        }
        let counters = self.counters();
        record(
            Layer::RunnerGlue,
            ns_since(glue_start).saturating_sub(spans_ns),
            false,
        );
        ReplayOutcome {
            counters,
            cycles: cycle,
            cooperative_static_serves: self.scheduler.cooperative_static_serves(),
            copy_transmissions: self.scheduler.copy_transmissions(),
            early_copies_sent: self.scheduler.early_copies_sent(),
            scratch_bytes: self.scheduler.scratch_bytes(),
            backlog_peak,
            backlog_sum,
            probe_ns: self.probe_ns,
        }
    }

    /// Mirrors `Runner::observe_health`.
    fn observe_health(&mut self) {
        let merged = self
            .engine
            .fault_counters(ChannelId::A)
            .merged(self.engine.fault_counters(ChannelId::B));
        let overall = self.monitor.observe(merged);
        let channels = [
            self.engine.channel_health(ChannelId::A),
            self.engine.channel_health(ChannelId::B),
        ];
        let effective = overall.max(channels[0]).max(channels[1]);
        if effective != self.effective {
            self.health_transitions += 1;
            if effective == HealthState::Storm {
                self.storm_entries += 1;
            }
            if effective == HealthState::Nominal {
                self.service_restores += 1;
            }
            self.effective = effective;
        }
        self.scheduler.set_health(effective, channels);
    }

    /// Mirrors `Runner::collect_counters`.
    fn counters(&self) -> RunCounters {
        let tracker = self.scheduler.tracker();
        let sched = self.scheduler.schedule_counters();
        let faults = self
            .engine
            .fault_counters(ChannelId::A)
            .merged(self.engine.fault_counters(ChannelId::B));
        let campaign = [ChannelId::A, ChannelId::B]
            .into_iter()
            .filter_map(|ch| self.engine.campaign_counters(ch))
            .fold(CampaignCounters::default(), CampaignCounters::merged);
        RunCounters {
            steal_attempts: sched.steal_attempts,
            steal_granted: sched.steal_granted,
            steal_denied: sched.steal_denied,
            early_copies_sent: sched.early_copies,
            dropped_copies: self.scheduler.dropped_copies(),
            retransmission_budget_used: self.scheduler.copy_transmissions(),
            preemptions: sched.preemptions,
            frames_checked: faults.frames_checked,
            faults_injected: faults.faults_injected,
            faults_recovered: tracker
                .instances()
                .iter()
                .filter(|i| i.corrupted > 0 && i.is_delivered())
                .count() as u64,
            health_transitions: self.health_transitions,
            storm_entries: self.storm_entries,
            service_restores: self.service_restores,
            soft_shed: sched.degraded_sheds,
            degraded_extra_copies: self.scheduler.degraded_extra_copies(),
            failover_mirrors: self.scheduler.failover_mirrors(),
            campaign_events: campaign.events_started,
            campaign_blackout_faults: campaign.blackout_faults,
            campaign_extra_faults: campaign.extra_faults,
            campaign_dropout_cycles: campaign.dropout_cycles,
        }
    }
}

/// Re-runs the scheduler's plan step — the policy's `plan_copies` over
/// the same planner inputs `Scheduler::new_with_options` builds — and
/// returns its nanoseconds.
fn plan_probe(cfg: &RunConfig, coding: FrameCoding) -> u64 {
    let t = Instant::now();
    let mut rel = Vec::with_capacity(cfg.static_messages.len() + cfg.dynamic_messages.len());
    for s in &cfg.static_messages {
        let wire = coding.message_wire_bits(u64::from(s.size_bits), false) as u32;
        rel.push(MessageReliability::from_ber(
            s.id,
            wire,
            s.period,
            cfg.scenario.ber,
        ));
    }
    for d in &cfg.dynamic_messages {
        let wire = coding.message_wire_bits(u64::from(d.size_bits), true) as u32;
        // The scheduler plans a dynamic message under id 0x1_0000 + frame id.
        rel.push(MessageReliability::from_ber(
            0x0001_0000 + u32::from(d.frame_id),
            wire,
            d.min_interarrival,
            cfg.scenario.ber,
        ));
    }
    let planner = RetransmissionPlanner::new(rel).unit(cfg.scenario.unit);
    std::hint::black_box(
        cfg.policy
            .plan_copies(&planner, cfg.scenario.reliability_goal()),
    );
    ns_since(t)
}

/// The fault process `Runner::new` installs on `channel_index`, wrapped
/// for timing.
fn fault(cfg: &RunConfig, channel_index: usize, seed: u64) -> Box<dyn FaultProcess> {
    let base: Box<dyn FaultProcess> = match cfg.scenario.fault_model {
        FaultModel::Bernoulli => Box::new(BernoulliFaults::new(cfg.scenario.ber, seed)),
        FaultModel::GilbertElliott {
            bad_factor,
            p_gb,
            p_bg,
        } => {
            let bad = Ber::new((cfg.scenario.ber.rate() * bad_factor).min(0.999))
                .expect("scaled BER in range");
            Box::new(GilbertElliott::new(cfg.scenario.ber, bad, p_gb, p_bg, seed))
        }
    };
    let process: Box<dyn FaultProcess> = match &cfg.scenario.campaign {
        Some(spec) => Box::new(CampaignFaults::new(base, spec, channel_index, seed)),
        None => base,
    };
    Box::new(TimedFaults(process))
}

/// The instance count `Runner::new` reserves for `cfg`.
fn expected_instances(cfg: &RunConfig) -> u64 {
    match cfg.stop {
        StopCondition::Horizon(h) => {
            let statics: u64 = cfg
                .static_messages
                .iter()
                .map(|s| h.as_nanos() / s.period.as_nanos() + 1)
                .sum();
            let dynamics: u64 = cfg
                .dynamic_messages
                .iter()
                .map(|d| h.as_nanos() / d.min_interarrival.as_nanos() + 1)
                .sum();
            statics + dynamics
        }
        StopCondition::ProducedInstances(n) => {
            n + (cfg.static_messages.len() + cfg.dynamic_messages.len()) as u64
        }
        StopCondition::DeliveredInstances(n) => n.saturating_mul(2),
    }
}

/// The deterministic program counts a traced run reports, summed over
/// every cell of one pass (`scratch_bytes_peak` is a maximum).
pub const COUNT_NAMES: [&str; 12] = [
    "early_copies_sent",
    "copy_transmissions",
    "dropped_copies",
    "steal_attempts",
    "steal_denied",
    "cooperative_static_serves",
    "soft_shed",
    "failover_mirrors",
    "health_transitions",
    "faults_injected",
    "frames_checked",
    "scratch_bytes_peak",
];

/// Folds one run into the count totals, in [`COUNT_NAMES`] order.
pub fn add_counts(totals: &mut [u64; 12], report: &coefficient::RunReport) {
    let c = &report.counters;
    let values = [
        report.early_copies_sent,
        report.copy_transmissions,
        c.dropped_copies,
        c.steal_attempts,
        c.steal_denied,
        report.cooperative_static_serves,
        c.soft_shed,
        c.failover_mirrors,
        c.health_transitions,
        c.faults_injected,
        c.frames_checked,
    ];
    for (t, v) in totals.iter_mut().zip(values) {
        *t += v;
    }
    totals[11] = totals[11].max(report.peak_scratch_bytes);
}

/// Everything a traced run reports. Every workload prints the same
/// metric set; a layer the workload never reaches reads 0.
///
/// A traced run makes as many passes over its inputs as `--seconds`
/// allows. Times and wall are summed over every pass (self ns per call
/// and shares are ratios of sums); calls, cells and wall are reported per
/// pass, so they do not grow with the host's speed.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub accs: Accs,
    /// Traced wall time the layer shares are taken of.
    pub wall_ns: f64,
    /// Untraced and traced time of the same operations, for the overhead.
    pub untraced_ns: f64,
    pub traced_ns: f64,
    pub cells: u64,
    /// Traced passes ended so far.
    pub passes: u64,
    /// Every layer's calls when the current pass began.
    pass_start: [u64; LAYERS.len()],
    /// Every layer's calls in the first pass; each later pass must repeat
    /// them exactly.
    pub pass_calls: [u64; LAYERS.len()],
    pub counter_mismatches: u64,
    pub counts: [u64; 12],
    pub backlog_peak: u64,
    pub backlog_sum: u64,
    pub cycles: u64,
    pub windows_reserved: u64,
    pub windows_total: u64,
}

impl TraceSummary {
    /// Folds one replay into the totals.
    pub fn add_replay(&mut self, out: &ReplayOutcome) {
        self.backlog_peak = self.backlog_peak.max(out.backlog_peak);
        self.backlog_sum += out.backlog_sum;
        self.cycles += out.cycles;
    }

    /// Ends one traced pass. The first fixes every layer's calls per
    /// pass; a later pass that does not repeat them counts as a failed
    /// operation. Returns `true` after the first pass.
    pub fn end_pass(&mut self, report: &mut Report) -> bool {
        let total = self.accs.calls();
        let mut this = [0; LAYERS.len()];
        for ((t, &now), &start) in this.iter_mut().zip(&total).zip(&self.pass_start) {
            *t = now - start;
        }
        self.pass_start = total;
        self.passes += 1;
        if self.passes == 1 {
            self.pass_calls = this;
            true
        } else {
            let same = this == self.pass_calls;
            if !same {
                report.note(format!(
                    "layer calls of pass {} differ from pass 1",
                    self.passes
                ));
            }
            report.op(same);
            false
        }
    }

    /// `name=value` pairs of the program counts, in [`COUNT_NAMES`] order.
    pub fn count_pairs(&self) -> Vec<(&'static str, u64)> {
        COUNT_NAMES.iter().copied().zip(self.counts).collect()
    }

    /// `name=value` pairs of every layer's calls per pass.
    pub fn call_pairs(&self) -> Vec<(&'static str, u64)> {
        LAYERS
            .iter()
            .map(|l| l.name())
            .zip(self.pass_calls)
            .collect()
    }

    /// Σ layer self time as a share of the traced wall, in percent.
    pub fn cover_pct(&self) -> f64 {
        if self.wall_ns > 0.0 {
            100.0 * self.accs.total_ns() as f64 / self.wall_ns
        } else {
            0.0
        }
    }

    /// Adds the layer breakdown notes and the per-layer metrics to
    /// `report`.
    pub fn report(&self, report: &mut Report) {
        let mut shares: Vec<(f64, &str)> = LAYERS
            .iter()
            .map(|&l| (self.accs.get(l).ns as f64, l.name()))
            .filter(|(ns, _)| *ns > 0.0)
            .collect();
        shares.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (ns, name) in shares {
            report.note(format!(
                "{name}: {:.1}% of traced wall",
                100.0 * ns / self.wall_ns
            ));
        }
        report.note(format!(
            "layers cover {:.1}% of the traced wall; tracing overhead {:.1}%",
            self.cover_pct(),
            100.0 * (self.traced_ns - self.untraced_ns) / self.untraced_ns
        ));
        report.metrics.extend(self.metrics());
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let passes = self.passes.max(1) as f64;
        for (layer, calls) in LAYERS.into_iter().zip(self.pass_calls) {
            let acc = self.accs.get(layer);
            let name = layer.name();
            out.push(Metric::new(format!("{name}.calls"), calls as f64, "count"));
            out.push(Metric::new(
                format!("{name}.self_ns_per_call"),
                ratio(acc.ns as f64, acc.calls as f64),
                "ns",
            ));
            out.push(Metric::new(
                format!("{name}.share_pct"),
                100.0 * ratio(acc.ns as f64, self.wall_ns),
                "%",
            ));
        }
        let hits = |l: Layer| {
            let a = self.accs.get(l);
            ratio(a.hits as f64, a.calls as f64)
        };
        out.push(Metric::new(
            "coefficient.coop_fill.hit_ratio",
            hits(Layer::CoopFill),
            "ratio",
        ));
        out.push(Metric::new(
            "coefficient.dynamic_arb.hit_ratio",
            hits(Layer::DynamicArb),
            "ratio",
        ));
        out.push(Metric::new(
            "coefficient.dynamic_backlog.peak",
            self.backlog_peak as f64,
            "count",
        ));
        out.push(Metric::new(
            "coefficient.dynamic_backlog.mean",
            ratio(self.backlog_sum as f64, self.cycles as f64),
            "count",
        ));
        out.push(Metric::new(
            "reliability.fault_draw.fault_ratio",
            ratio(self.counts[9] as f64, self.counts[10] as f64),
            "ratio",
        ));
        out.push(Metric::new(
            "backbone.reservation_plan.reserved_ratio",
            ratio(self.windows_reserved as f64, self.windows_total as f64),
            "ratio",
        ));
        for (name, value) in COUNT_NAMES.iter().zip(self.counts) {
            out.push(Metric::new(format!("count.{name}"), value as f64, "count"));
        }
        out.push(Metric::new(
            "trace.wall_s",
            self.wall_ns / 1e9 / passes,
            "s",
        ));
        out.push(Metric::new("trace.layer_cover_pct", self.cover_pct(), "%"));
        out.push(Metric::new(
            "trace.overhead_pct",
            100.0 * ratio(self.traced_ns - self.untraced_ns, self.untraced_ns),
            "%",
        ));
        out.push(Metric::new(
            "trace.cells",
            self.cells as f64 / passes,
            "count",
        ));
        out.push(Metric::new(
            "trace.counter_mismatches",
            self.counter_mismatches as f64,
            "count",
        ));
        out
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
