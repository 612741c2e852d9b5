//! Differential oracle for the Theorem-1 planner.
//!
//! [`RetransmissionPlanner::plan_for_goal`] keeps its greedy candidates in
//! a max-heap and re-scores only the message it just chose. The reference
//! below is the full scan it replaced: every greedy step re-evaluates
//! every message and keeps the first best score. Both must make the same
//! choices in the same order, so the counts, the success probability and
//! the unreachable-goal bound agree bit for bit.

use std::cell::Cell;

use event_sim::SimDuration;
use proptest::{collection, ProptestConfig, TestCaseError, TestCaseResult};
use proptest::{prop_assert_eq, run_cases};
use reliability::{message_success_log, Ber, MessageReliability, PlanError};
use reliability::{RetransmissionPlan, RetransmissionPlanner};

/// The scan planner: `Ok((ks, log success))`, or `Err(best)` when the cap
/// cannot reach the goal.
fn scan_plan(
    msgs: &[MessageReliability],
    unit: SimDuration,
    max_k: u32,
    goal: f64,
) -> Result<(Vec<u32>, f64), f64> {
    let target_log = goal.ln();
    let n = msgs.len();
    let mut ks = vec![0u32; n];
    // Per-message log contribution at the current k.
    let mut contrib: Vec<f64> = msgs
        .iter()
        .map(|m| message_success_log(m, 0, unit))
        .collect();
    let mut total: f64 = contrib.iter().sum();

    while total < target_log {
        // Pick the increment with the best marginal gain per bandwidth
        // bit. Gain: Δ = (u/T_z)·[ln(1−p^{k+2}) − ln(1−p^{k+1})];
        // cost: W_z instances-per-unit bits.
        let mut best: Option<(usize, f64, f64)> = None; // (idx, new_contrib, score)
        for (i, m) in msgs.iter().enumerate() {
            if ks[i] >= max_k || m.failure_probability == 0.0 {
                continue;
            }
            let new_contrib = message_success_log(m, ks[i] + 1, unit);
            let gain = new_contrib - contrib[i];
            if gain <= 0.0 {
                continue;
            }
            let cost = (u64::from(m.size_bits) * m.instances_per_unit(unit)).max(1) as f64;
            let score = gain / cost;
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((i, new_contrib, score));
            }
        }
        let Some((i, new_contrib, _)) = best else {
            return Err(total.exp());
        };
        total += new_contrib - contrib[i];
        contrib[i] = new_contrib;
        ks[i] += 1;
    }
    Ok((ks, total))
}

/// One drawn message: `(period ms, size bits, kind)`. Kind 0 is a
/// fault-free message (`p = 0`) and kind 1 an exact duplicate of the
/// previous one, so that scores tie.
type Drawn = (u64, u32, u8);

/// The message set on a bus of BER `10^(-9 + ber_step/1000)`, i.e. 1e-9
/// to 1e-3.
fn messages(drawn: &[Drawn], ber_step: u32) -> Vec<MessageReliability> {
    let ber =
        Ber::new(10f64.powf(-9.0 + f64::from(ber_step) / 1000.0)).expect("BER within 1e-9..=1e-3");
    let mut msgs: Vec<MessageReliability> = Vec::with_capacity(drawn.len());
    for (id, &(period_ms, size_bits, kind)) in drawn.iter().enumerate() {
        let period = SimDuration::from_millis(period_ms);
        let msg = match (kind, msgs.last()) {
            (0, _) => MessageReliability::new(id as u32, size_bits, period, 0.0),
            (1, Some(prev)) => prev.clone(),
            _ => MessageReliability::from_ber(id as u32, size_bits, period, ber),
        };
        msgs.push(msg);
    }
    msgs
}

const MAX_KS: [u32; 4] = [0, 1, 2, 16];

/// Goal step `s` in `0..=1000` is `1 − 10^(−e)` with `e` running from
/// `log10 2` (goal 0.5) to 12 (goal 1 − 1e-12).
fn goal(step: u32) -> f64 {
    let lo = 2f64.log10();
    1.0 - 10f64.powf(-(lo + (12.0 - lo) * f64::from(step) / 1000.0))
}

fn assert_same(
    heap: &Result<RetransmissionPlan, PlanError>,
    scan: &Result<(Vec<u32>, f64), f64>,
) -> TestCaseResult {
    match (heap, scan) {
        (Ok(plan), Ok((ks, total))) => {
            prop_assert_eq!(plan.retransmission_counts(), ks.as_slice());
            prop_assert_eq!(plan.success_probability().to_bits(), total.exp().to_bits());
        }
        (Err(PlanError::Unreachable { best, .. }), Err(scan_best)) => {
            prop_assert_eq!(best.to_bits(), scan_best.to_bits());
        }
        (heap, scan) => {
            return Err(TestCaseError::fail(format!(
                "heap {heap:?} vs scan {scan:?}"
            )));
        }
    }
    Ok(())
}

#[test]
fn heap_planner_matches_the_scan() {
    let strategy = (
        collection::vec((1u64..=1000, 1u32..=2000, 0u8..6), 1..201),
        0u32..=6000,
        0usize..MAX_KS.len(),
        (0u32..=1000, 0u8..2),
    );
    // Cases that planned retransmissions, met the goal for free, or found
    // it unreachable: the property must see all three.
    let outcomes = Cell::new([0u32; 3]);
    run_cases(
        &ProptestConfig::with_cases(256),
        "heap_planner_matches_the_scan",
        &strategy,
        |(drawn, ber_step, max_k_index, (goal_step, hour_unit))| {
            let msgs = messages(&drawn, ber_step);
            let unit = if hour_unit == 1 {
                SimDuration::from_secs(3600)
            } else {
                SimDuration::from_secs(1)
            };
            let max_k = MAX_KS[max_k_index];
            let goal = goal(goal_step);
            let heap = RetransmissionPlanner::new(msgs.clone())
                .unit(unit)
                .max_retransmissions(max_k)
                .plan_for_goal(goal);
            let scan = scan_plan(&msgs, unit, max_k, goal);
            let mut seen = outcomes.get();
            seen[match &scan {
                Ok((ks, _)) if ks.iter().any(|&k| k > 0) => 0,
                Ok(_) => 1,
                Err(_) => 2,
            }] += 1;
            outcomes.set(seen);
            assert_same(&heap, &scan)
        },
    );
    let [planned, free, unreachable] = outcomes.get();
    assert!(
        planned > 0 && free > 0 && unreachable > 0,
        "{planned} planned, {free} free, {unreachable} unreachable"
    );
}

#[test]
fn duplicates_tie_toward_the_lower_index() {
    // Two identical messages with one retransmission between them: the
    // scan gives it to the first, and so must the heap.
    let ber = Ber::new(1e-4).unwrap();
    let m = MessageReliability::from_ber(7, 1000, SimDuration::from_millis(10), ber);
    let msgs = vec![m.clone(), m.clone(), m];
    let unit = SimDuration::from_secs(1);
    let one_step = RetransmissionPlanner::new(msgs.clone())
        .unit(unit)
        .max_retransmissions(1);
    let k0 = one_step.uniform_success_probability(0);
    let (ks, _) = scan_plan(&msgs, unit, 1, k0 * 1.000_000_1).expect("one copy suffices");
    assert_eq!(ks, [1, 0, 0]);
    let plan = one_step.plan_for_goal(k0 * 1.000_000_1).unwrap();
    assert_eq!(plan.retransmission_counts(), [1, 0, 0]);
}
