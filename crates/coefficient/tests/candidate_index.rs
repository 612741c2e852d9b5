//! Differential test of the scheduler's free-slot candidate index.
//!
//! `Scheduler` answers its three free-slot searches — the nominal early
//! copy, the degraded-mode hard copy and the dual-channel failover mirror
//! — from an incremental candidate index. Debug builds cross-check every
//! answer against the linear scan the index replaced, so each run below
//! asserts the equivalence on every free static position of both
//! channels. On top of that, every run is replayed with the scan driving
//! the decisions, and the two reports must agree bit for bit.
//!
//! The cross-check exists only with debug assertions, so the whole file
//! does too.
#![cfg(debug_assertions)]

use coefficient::{
    CampaignSpec, CampaignTarget, RunConfig, RunReport, Runner, Scenario, StopCondition,
    TraceConfig,
};
use event_sim::SimDuration;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use proptest::prelude::*;
use workloads::sae::IdRange;

/// Cycles every run spans: the pinned blackout (cycles 40–90) plus
/// recovery.
const HORIZON_CYCLES: u64 = 130;

/// Periods the generated messages draw from, in milliseconds: shorter
/// than, equal to and multiples of both geometries' cycles.
const PERIODS_MS: [u64; 8] = [1, 2, 4, 5, 8, 10, 20, 40];

/// BER-7, BER-9, the fault storm and the pinned `blackout` campaign on
/// top of the storm.
fn scenarios() -> [Scenario; 4] {
    [
        Scenario::ber7(),
        Scenario::ber9(),
        Scenario::ber7().storm(),
        Scenario::ber7().storm().with_campaign(
            "BER-7-storm+blackout",
            CampaignSpec::new().blackout(CampaignTarget::A, 40, 50),
        ),
    ]
}

/// The three geometries: `paper_dynamic(50)` (1 ms cycle, 18 slots),
/// `paper_mixed(50)` (5 ms cycle, 80 slots), and `paper_dynamic(50)` at a
/// bit rate that leaves a slot exactly one bit longer than the largest
/// static frame, so that message's copy frame — two dynamic trailer bits
/// longer — does not fit and the searches' fit check filters it out.
fn cluster(geometry: u8) -> ClusterConfig {
    match geometry {
        0 => ClusterConfig::paper_dynamic(50),
        1 => ClusterConfig::paper_mixed(50),
        _ => ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(18, 40)
            .minislots(50, 2)
            .bit_rate(79_710_527)
            .build()
            .expect("valid geometry"),
    }
}

/// The largest message (in logical bits) whose static frame fits a slot
/// of `cluster`.
fn largest_fitting_bits(cluster: &ClusterConfig) -> u32 {
    let capacity = cluster.static_slot_capacity_bits();
    let coding = FrameCoding::default();
    (16..4096u32)
        .take_while(|&bits| coding.message_wire_bits(u64::from(bits), false) <= capacity)
        .last()
        .expect("small frames fit")
}

/// One generated message: period index, offset (µs), deadline (ms) and
/// size as a per-mille of the largest fitting size (1000 = exactly the
/// largest).
type MessageDraw = (usize, u64, u64, u32);

fn static_set(cluster: &ClusterConfig, first_id: u32, draws: &[MessageDraw]) -> Vec<Signal> {
    let max_bits = largest_fitting_bits(cluster);
    let mut set: Vec<Signal> = draws
        .iter()
        .enumerate()
        .map(|(i, &(period, offset_us, deadline_ms, size))| {
            let period_ms = PERIODS_MS[period];
            let deadline_ms = deadline_ms.min(period_ms);
            let offset_us = offset_us.min(deadline_ms * 1000 - 10);
            let bits = (u64::from(max_bits) * u64::from(size) / 1000).max(8) as u32;
            Signal::new(
                first_id + 3 * i as u32,
                SimDuration::from_millis(period_ms),
                SimDuration::from_micros(offset_us),
                SimDuration::from_millis(deadline_ms),
                bits,
            )
        })
        .collect();
    // Input order opposite to id order: the searches break deadline ties
    // by message id, not by position.
    set.reverse();
    set
}

fn configs(geometry: u8, statics: &[Signal], seed: u64) -> Vec<RunConfig> {
    let cluster = cluster(geometry);
    let ids = if geometry == 1 {
        IdRange::For80Slots
    } else {
        IdRange::StartingAt(20)
    };
    let dynamics = workloads::sae::message_set(ids, seed);
    let horizon = cluster.cycle_duration() * HORIZON_CYCLES;
    let mut out = Vec::new();
    for scenario in scenarios() {
        for &policy in coefficient::registry::all() {
            out.push(RunConfig {
                cluster: cluster.clone(),
                scenario: scenario.clone(),
                static_messages: statics.to_vec(),
                dynamic_messages: dynamics.clone(),
                policy,
                stop: StopCondition::Horizon(horizon),
                seed,
                trace: TraceConfig::off(),
            });
        }
    }
    out
}

/// Runs `cfg` with the index deciding (the scan cross-checking every
/// search) and again with the scan deciding; `None` if the configuration
/// does not schedule.
fn run_both(cfg: &RunConfig) -> Option<(RunReport, RunReport)> {
    let indexed = Runner::new(cfg.clone()).ok()?.run();
    let scanned = Runner::new(cfg.clone())
        .expect("schedules like the indexed run")
        .with_reference_scan()
        .run();
    Some((indexed, scanned))
}

fn label(cfg: &RunConfig) -> String {
    format!("{} / {}", cfg.policy.key(), cfg.scenario.name)
}

proptest! {
    // Each case runs every policy under four scenarios, twice.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn index_and_scan_pick_the_same_instances(
        geometry in 0u8..3,
        first_id in 1u32..40,
        seed in 0u64..1_000,
        draws in proptest::collection::vec(
            (0usize..PERIODS_MS.len(), 0u64..1000, 1u64..=20, 1u32..=1000),
            4..40,
        ),
    ) {
        // Every fourth message is exactly the largest fitting size.
        let draws: Vec<MessageDraw> = draws
            .into_iter()
            .enumerate()
            .map(|(i, (p, o, d, s))| (p, o, d, if i % 4 == 3 { 1000 } else { s }))
            .collect();
        let statics = static_set(&cluster(geometry), first_id, &draws);
        for cfg in configs(geometry, &statics, seed) {
            if let Some((indexed, scanned)) = run_both(&cfg) {
                let (a, b) = (
                    (indexed.counters, indexed.fingerprint()),
                    (scanned.counters, scanned.fingerprint()),
                );
                prop_assert!(a == b, "{}: {a:?} != {b:?}", label(&cfg));
            }
        }
    }
}

#[test]
fn the_tight_geometry_has_frames_too_long_for_a_copy() {
    // Guards the generator above: on the third geometry the largest
    // draws really exercise the searches' fit filter.
    let cluster = cluster(2);
    let bits = u64::from(largest_fitting_bits(&cluster));
    let coding = FrameCoding::default();
    assert!(coding.message_wire_bits(bits, false) <= cluster.static_slot_capacity_bits());
    assert!(coding.message_wire_bits(bits, true) > cluster.static_slot_capacity_bits());
}

#[test]
fn every_search_is_exercised_on_a_dense_static_set() {
    // A cycles-coop-sized set under the storm with the pinned blackout:
    // early copies, degraded-mode copies and failover mirrors all fire,
    // so the equivalence above is not vacuous.
    let statics = workloads::synthetic::message_set(
        &workloads::synthetic::SyntheticSpec {
            count: 40,
            ..Default::default()
        },
        11,
    );
    let (mut early, mut degraded, mut failover) = (0, 0, 0);
    for cfg in configs(1, &statics, 11)
        .into_iter()
        .filter(|c| c.scenario.campaign.is_some())
    {
        let (indexed, scanned) = run_both(&cfg).expect("the synthetic set schedules");
        assert_eq!(indexed.counters, scanned.counters, "{}", label(&cfg));
        assert_eq!(
            indexed.fingerprint(),
            scanned.fingerprint(),
            "{}",
            label(&cfg)
        );
        early += indexed.counters.early_copies_sent;
        degraded += indexed.counters.degraded_extra_copies;
        failover += indexed.counters.failover_mirrors;
    }
    assert!(
        early > 0 && degraded > 0 && failover > 0,
        "early {early}, degraded {degraded}, failover {failover}"
    );
}
