//! Tiny wall-clock benchmarking helper for the `benches/` binaries.
//!
//! The workspace compiles with no external crates, so the bench binaries
//! (`harness = false`) time themselves with `std::time::Instant` instead
//! of Criterion: a warm-up iteration, `iters` measured iterations, then a
//! one-line human summary and a machine-readable JSON line per benchmark.

use std::time::{Duration, Instant};

use crate::json::Json;

/// One timed benchmark case.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Case label (`group/case` by convention).
    pub label: String,
    /// Measured iterations (after one warm-up).
    pub iters: u32,
    /// Mean wall-clock per iteration.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl Timing {
    /// JSON form (`schema: "coefficient-bench-timing/1"`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::str("coefficient-bench-timing/1")),
            ("label", Json::str(self.label.clone())),
            ("iters", Json::from(u64::from(self.iters))),
            ("mean_ms", Json::Float(self.mean.as_secs_f64() * 1e3)),
            ("min_ms", Json::Float(self.min.as_secs_f64() * 1e3)),
            ("max_ms", Json::Float(self.max.as_secs_f64() * 1e3)),
        ])
    }
}

/// Times `f` over one warm-up plus `iters` measured iterations and prints
/// both the human summary and the JSON line. The closure's return value
/// is consumed so the work cannot be optimized away.
///
/// # Panics
/// Panics if `iters` is zero.
pub fn bench<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) -> Timing {
    assert!(iters > 0, "at least one measured iteration required");
    let _warmup = f();
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        drop(value);
        min = min.min(elapsed);
        max = max.max(elapsed);
        total += elapsed;
    }
    let timing = Timing {
        label: label.to_owned(),
        iters,
        mean: total / iters,
        min,
        max,
    };
    crate::outln!(
        "{label}: mean {:.2} ms (min {:.2}, max {:.2}, {iters} iters)",
        timing.mean.as_secs_f64() * 1e3,
        timing.min.as_secs_f64() * 1e3,
        timing.max.as_secs_f64() * 1e3,
    );
    crate::outln!("{}", timing.to_json());
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_all_iterations() {
        let mut calls = 0u32;
        let t = bench("test/case", 3, || calls += 1);
        assert_eq!(calls, 4, "one warm-up + three measured");
        assert_eq!(t.iters, 3);
        assert!(t.min <= t.mean && t.mean <= t.max);
        let json = t.to_json().to_string();
        assert!(json.contains(r#""label":"test/case""#));
    }
}
