//! The sweep harness's determinism contract, end to end:
//!
//! * the same matrix produces byte-identical `SweepReport` fingerprints
//!   at 1, 2 and 8 worker threads;
//! * any cell replayed in isolation from its coordinates reproduces the
//!   fingerprint the sweep recorded for it;
//! * per-cell seeds derived under `SeedStrategy::PerCell` stay paired
//!   across policies (so policy comparisons remain like-for-like).

use std::num::NonZeroUsize;

use coefficient::{
    CellCoord, Scenario, SeedStrategy, StopCondition, SweepMatrix, SweepReport, SweepRunner,
    COEFFICIENT, FSPEC,
};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;

fn matrix(strategy: SeedStrategy) -> SweepMatrix {
    SweepMatrix {
        cluster: ClusterConfig::paper_mixed(50),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::For80Slots, 9),
        policies: vec![COEFFICIENT, FSPEC],
        scenarios: vec![Scenario::ber7(), Scenario::ber9()],
        seeds: vec![101, 202, 303],
        stop: StopCondition::Horizon(SimDuration::from_millis(40)),
        seed_strategy: strategy,
    }
}

fn run_with(threads: usize, strategy: SeedStrategy) -> SweepReport {
    SweepRunner::new(matrix(strategy))
        .threads(NonZeroUsize::new(threads).unwrap())
        .run()
        .expect("matrix is schedulable")
}

#[test]
fn fingerprints_are_identical_across_thread_counts() {
    for strategy in [SeedStrategy::PerCell, SeedStrategy::Shared] {
        let one = run_with(1, strategy);
        let two = run_with(2, strategy);
        let eight = run_with(8, strategy);
        assert_eq!(
            one.fingerprint(),
            two.fingerprint(),
            "{strategy:?}: 1 vs 2 threads"
        );
        assert_eq!(
            one.fingerprint(),
            eight.fingerprint(),
            "{strategy:?}: 1 vs 8 threads"
        );
        // Not just the digest: every cell must agree in coordinate order.
        for (a, b) in one.cells.iter().zip(&eight.cells) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fingerprint, b.fingerprint, "cell {:?}", a.coord);
            assert_eq!(a.report.delivered, b.report.delivered);
            assert_eq!(a.report.corrupted, b.report.corrupted);
        }
    }
}

#[test]
fn every_cell_replays_to_its_recorded_fingerprint() {
    let runner =
        SweepRunner::new(matrix(SeedStrategy::PerCell)).threads(NonZeroUsize::new(8).unwrap());
    let report = runner.run().expect("matrix is schedulable");
    for cell in &report.cells {
        let replayed = runner.replay(cell.coord).expect("cell is schedulable");
        assert_eq!(
            replayed.fingerprint, cell.fingerprint,
            "replay of {:?} diverged from the sweep",
            cell.coord
        );
    }
}

#[test]
fn per_cell_seeds_are_paired_across_policies_and_distinct_otherwise() {
    let m = matrix(SeedStrategy::PerCell);
    let mut seen = std::collections::HashSet::new();
    for scenario in 0..m.scenarios.len() {
        for seed in 0..m.seeds.len() {
            let co = m.cell_seed(CellCoord {
                policy: 0,
                scenario,
                seed,
            });
            let fs = m.cell_seed(CellCoord {
                policy: 1,
                scenario,
                seed,
            });
            assert_eq!(co, fs, "policies must see the same derived seed");
            assert!(
                seen.insert(co),
                "derived seed reused across {{scenario {scenario}, seed {seed}}}"
            );
        }
    }
}

#[test]
fn distinct_seeds_change_the_fingerprint() {
    // A fingerprint that ignores the seed would pass every determinism
    // check while hiding real divergence; make sure it is sensitive.
    let report = run_with(4, SeedStrategy::PerCell);
    let by_seed: Vec<u64> = report
        .cells
        .iter()
        .filter(|c| c.coord.policy == 0 && c.coord.scenario == 0)
        .map(|c| c.fingerprint)
        .collect();
    assert_eq!(by_seed.len(), 3);
    assert!(
        by_seed.windows(2).all(|w| w[0] != w[1]),
        "different seeds produced identical cell fingerprints: {by_seed:x?}"
    );
}
