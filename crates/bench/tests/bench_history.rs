//! `corpus/bench_history.jsonl` is the repository's performance
//! trajectory: one line per change measured with `perfbench`, holding the
//! parent → change medians of the metrics it reports. These checks keep
//! every line readable by the in-tree JSON parser and in order.

use bench_harness::json::Json;

const HISTORY: &str = include_str!("../../../corpus/bench_history.jsonl");

/// A number, or `null` where a line has no parent measurement.
fn number_or_null(v: &Json) -> bool {
    matches!(v, Json::Null | Json::UInt(_) | Json::Float(_))
}

#[test]
fn every_line_parses_with_the_required_keys_in_pr_order() {
    let mut last_pr = None;
    let mut lines = 0;
    for (n, line) in HISTORY.lines().enumerate() {
        let at = format!("bench_history.jsonl line {}", n + 1);
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let pr = doc
            .get("pr")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{at}: \"pr\" must be an integer"));
        assert!(
            last_pr.is_none_or(|last| pr > last),
            "{at}: PR {pr} does not follow PR {last_pr:?}"
        );
        last_pr = Some(pr);
        let kind = doc.get("kind").and_then(Json::as_str);
        assert!(
            kind.is_some_and(|k| !k.is_empty()),
            "{at}: \"kind\" missing"
        );

        let Some(Json::Object(medians)) = doc.get("medians") else {
            panic!("{at}: \"medians\" must be an object");
        };
        assert!(!medians.is_empty(), "{at}: no medians");
        for (key, entry) in medians {
            let (workload, metric) = key
                .split_once('/')
                .unwrap_or_else(|| panic!("{at}: key {key:?} is not <workload>/<metric>"));
            assert!(!workload.is_empty() && !metric.is_empty(), "{at}: {key:?}");
            let parent = entry.get("parent");
            assert!(parent.is_some_and(number_or_null), "{at}: {key} parent");
            let change = entry.get("change");
            assert!(
                change.is_some_and(|c| c.as_f64().is_some_and(f64::is_finite)),
                "{at}: {key} change must be a number"
            );
            let unit = entry.get("unit").and_then(Json::as_str);
            assert!(unit.is_some_and(|u| !u.is_empty()), "{at}: {key} unit");
        }

        // The claimed metric, if any, is one of the line's medians.
        match doc.get("claim") {
            Some(Json::Null) => {}
            Some(Json::String(claim)) => assert!(
                medians.iter().any(|(k, _)| k == claim),
                "{at}: claim {claim:?} has no median"
            ),
            other => panic!("{at}: \"claim\" must be a string or null, got {other:?}"),
        }
        lines += 1;
    }
    assert!(lines >= 3, "the trajectory holds {lines} lines");
}
