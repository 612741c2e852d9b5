//! Proof that the steady-state cycle loop is allocation-free.
//!
//! A counting global allocator is armed after a warm-up phase long enough
//! for every scratch buffer — scheduler queues, instance tracker, history
//! windows, fault-probability caches — to reach its steady-state
//! capacity. From then on, producing traffic and running bus cycles must
//! not touch the heap at all: the hot path works entirely out of the
//! buffers reserved up front.
//!
//! The storm cells add Gilbert–Elliott bursts and scripted blackouts, with
//! the scheduler's health driven from the bus's per-channel monitors, so
//! the degraded-mode and failover searches run through `Stressed` and
//! `Storm` in both phases.
//!
//! A single `#[test]` covers every cell because the allocator state is
//! global — parallel tests would count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coefficient::{
    CampaignSpec, CampaignTarget, PolicyRef, Scenario, Scheduler, COEFFICIENT, GREEDY, MATCHUP,
};
use event_sim::SimDuration;
use flexray::bus::BusEngine;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use flexray::ChannelId;
use reliability::campaign::CampaignFaults;
use reliability::fault::{BernoulliFaults, FaultProcess, GilbertElliott};
use reliability::monitor::{HealthState, MonitorConfig};
use reliability::Ber;
use workloads::AperiodicMessage;

struct CountingAllocator;

/// Counted while [`ARMED`]: every fresh allocation or reallocation.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are allowed in steady state (retired instances, drained
        // queues); only growth is a regression.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn statics() -> Vec<Signal> {
    vec![
        Signal::new(
            1,
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            SimDuration::from_millis(1),
            400,
        ),
        Signal::new(
            2,
            SimDuration::from_millis(4),
            SimDuration::ZERO,
            SimDuration::from_millis(4),
            800,
        ),
    ]
}

fn dynamics() -> Vec<AperiodicMessage> {
    vec![
        AperiodicMessage::new(
            20,
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            32,
        ),
        AperiodicMessage::new(
            21,
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            64,
        ),
    ]
}

/// Runs `cycles` communication cycles with periodic static production and
/// a sparse dynamic load, starting from bus cycle `first`. When `storm`
/// is set, each cycle hands the scheduler the bus monitors' per-channel
/// health (and the worse of the two as the overall state), the way the
/// runner does; returns whether `Stressed` and `Storm` were seen.
fn drive(
    scheduler: &mut Scheduler,
    engine: &mut BusEngine,
    config: &ClusterConfig,
    first: u64,
    cycles: u64,
    storm: bool,
) -> [bool; 2] {
    let mut seen = [false; 2];
    for cycle in first..first + cycles {
        let now = config.cycle_start(cycle);
        scheduler.produce_static(1, now);
        if cycle % 4 == 0 {
            scheduler.produce_static(2, now);
        }
        if cycle % 16 == 0 {
            scheduler.produce_dynamic(20, now);
            scheduler.produce_dynamic(21, now);
        }
        scheduler.purge_expired(now);
        engine.run_cycle(cycle, scheduler);
        if storm {
            let channels = ChannelId::BOTH.map(|c| engine.channel_health(c));
            let overall = channels[0].max(channels[1]);
            seen[0] |= overall == HealthState::Stressed;
            seen[1] |= overall == HealthState::Storm;
            scheduler.set_health(overall, channels);
        }
    }
    seen
}

/// The bus for one cell: Bernoulli faults at BER 1e-7 on both channels,
/// or — for a storm cell — channel A under the storm scenario's
/// Gilbert–Elliott bursts with one blackout inside the warm-up and one
/// inside the measured window, while channel B stays clean for failover.
fn engine(config: &ClusterConfig, storm: bool) -> BusEngine {
    let ber = Ber::new(1e-7).unwrap();
    let b = Box::new(BernoulliFaults::new(ber, 2));
    if !storm {
        return BusEngine::new(config.clone())
            .with_faults(Box::new(BernoulliFaults::new(ber, 1)), b);
    }
    let campaign = CampaignSpec::new()
        .blackout(CampaignTarget::A, 150, 50)
        .blackout(CampaignTarget::A, 450, 50);
    let bad = Ber::new(1e-7 * 1500.0).unwrap();
    let bursts = Box::new(GilbertElliott::new(ber, bad, 0.002, 0.006, 1));
    let a: Box<dyn FaultProcess> = Box::new(CampaignFaults::new(bursts, &campaign, 0, 1));
    let monitor = MonitorConfig::for_expected_fault_rate(ber.frame_failure_probability(1000));
    BusEngine::new(config.clone())
        .with_faults(a, b)
        .with_health_monitoring(monitor)
}

#[test]
fn steady_state_cycle_loop_does_not_allocate() {
    const WARMUP_CYCLES: u64 = 400;
    const MEASURED_CYCLES: u64 = 200;

    let cells: [(PolicyRef, bool); 4] = [
        (COEFFICIENT, false),
        (GREEDY, false),
        (COEFFICIENT, true),
        (MATCHUP, true),
    ];
    for (policy, storm) in cells {
        let config = ClusterConfig::paper_dynamic(50);
        let mut scheduler = Scheduler::new(
            policy,
            config.clone(),
            FrameCoding::default(),
            &Scenario::ber7(),
            &statics(),
            &dynamics(),
        )
        .unwrap();
        // Upper bound on instances the whole run produces; the tracker
        // reserves this up front so steady-state production never grows it.
        scheduler.reserve_instances(4096);
        let mut engine = engine(&config, storm);

        let warmup_seen = drive(
            &mut scheduler,
            &mut engine,
            &config,
            0,
            WARMUP_CYCLES,
            storm,
        );

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let measured_seen = drive(
            &mut scheduler,
            &mut engine,
            &config,
            WARMUP_CYCLES,
            MEASURED_CYCLES,
            storm,
        );
        ARMED.store(false, Ordering::SeqCst);

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs,
            0,
            "{} (storm: {storm}): {allocs} heap allocations in {MEASURED_CYCLES} steady-state cycles",
            policy.label(),
        );
        if storm {
            // Both phases went through both degraded states, and the
            // recovery search found copies to send.
            assert_eq!(
                [warmup_seen, measured_seen],
                [[true; 2]; 2],
                "{}",
                policy.label()
            );
            assert!(scheduler.degraded_extra_copies() > 0, "{}", policy.label());
        }
        // The run did real work while armed.
        assert!(scheduler.tracker().delivered() as u64 > WARMUP_CYCLES);
    }
}
