//! The observability layer's two contracts, end to end:
//!
//! * **Non-perturbation** — enabling tracing must not change what the
//!   simulation computes: a traced run's fingerprint equals an untraced
//!   run's, bit for bit.
//! * **Determinism** — the event stream itself is part of the replay
//!   contract: the same cell traced twice, serially or across any worker
//!   thread count, yields an identical `TraceLog`.

use std::num::NonZeroUsize;

use coefficient::{
    run_parallel, CellCoord, Scenario, SeedStrategy, StopCondition, SweepMatrix, SweepRunner,
    TraceConfig, TraceMode, COEFFICIENT, FSPEC,
};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;

fn matrix() -> SweepMatrix {
    SweepMatrix {
        cluster: ClusterConfig::paper_mixed(50),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::For80Slots, 9),
        policies: vec![COEFFICIENT, FSPEC],
        scenarios: vec![Scenario::ber7(), Scenario::ber7().storm()],
        seeds: vec![101, 202, 303],
        stop: StopCondition::Horizon(SimDuration::from_millis(40)),
        seed_strategy: SeedStrategy::PerCell,
    }
}

fn traced_configs() -> Vec<coefficient::RunConfig> {
    let m = matrix();
    m.coords()
        .into_iter()
        .map(|coord| {
            let mut cfg = m.config(coord);
            cfg.trace = TraceConfig::ring(1 << 18).sample_every(10);
            cfg
        })
        .collect()
}

#[test]
fn tracing_never_changes_the_fingerprint() {
    let m = matrix();
    let runner = SweepRunner::new(m.clone());
    for coord in m.coords() {
        let untraced = runner.replay(coord).expect("cell is schedulable");
        let mut cfg = m.config(coord);
        cfg.trace = TraceConfig::ring(1 << 18).sample_every(10);
        let traced = coefficient::Runner::new(cfg)
            .expect("cell is schedulable")
            .run();
        assert_eq!(
            traced.fingerprint(),
            untraced.fingerprint,
            "tracing perturbed cell {coord:?}"
        );
        let log = traced.trace.expect("tracing was enabled");
        assert!(!log.events.is_empty(), "cell {coord:?} emitted no events");
    }
}

#[test]
fn event_streams_are_identical_across_replays() {
    let m = matrix();
    let coord = CellCoord {
        policy: 0,
        scenario: 1,
        seed: 2,
    };
    let run = || {
        let mut cfg = m.config(coord);
        cfg.trace = TraceConfig::ring(1 << 18).sample_every(10);
        coefficient::Runner::new(cfg)
            .expect("cell is schedulable")
            .run()
            .trace
            .expect("tracing was enabled")
    };
    let first = run();
    let second = run();
    assert_eq!(first.capacity, second.capacity);
    assert_eq!(first.dropped, second.dropped);
    assert_eq!(
        first.events, second.events,
        "two serial replays diverged in their event streams"
    );
}

#[test]
fn event_streams_are_identical_across_thread_counts() {
    let serial = run_parallel(traced_configs(), NonZeroUsize::MIN).expect("matrix is schedulable");
    let parallel = run_parallel(traced_configs(), NonZeroUsize::new(8).unwrap())
        .expect("matrix is schedulable");
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.fingerprint(), b.fingerprint(), "cell {i}: fingerprint");
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(ta.dropped, tb.dropped, "cell {i}: dropped count");
        assert_eq!(
            ta.events, tb.events,
            "cell {i}: 1-thread vs 8-thread event streams diverged"
        );
    }
}

#[test]
fn default_config_disables_tracing_and_records_no_log() {
    let m = matrix();
    let cfg = m.config(CellCoord {
        policy: 0,
        scenario: 0,
        seed: 0,
    });
    assert_eq!(cfg.trace.mode, TraceMode::Off);
    assert!(!cfg.trace.is_enabled());
    let report = coefficient::Runner::new(cfg)
        .expect("cell is schedulable")
        .run();
    assert!(report.trace.is_none(), "untraced run must carry no log");
}
