//! Sample summaries, process memory and the metric record printed at
//! the end of a run.

use std::time::Instant;

/// One named metric of the final JSON line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Timing samples of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by linear interpolation between order statistics;
    /// NaN when no operation succeeded (the run then reports failure).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// `<name>.p50` and `<name>.p90`, the median and the highest
    /// percentile that keeps at least ten samples beyond it at the
    /// sample counts every workload guarantees (≥ 100).
    pub fn p50_p90(&self, name: &str, unit: &'static str) -> [Metric; 2] {
        [
            Metric::new(format!("{name}.p50"), self.quantile(0.5), unit),
            Metric::new(format!("{name}.p90"), self.quantile(0.9), unit),
        ]
    }
}

/// Each operation's repeats across passes over the inputs; an
/// operation's sample is the median of its repeats, which damps bursts of
/// host interference that hit one pass, and the quantiles over operations
/// keep the spread between inputs.
#[derive(Debug, Clone)]
pub struct PerOp(Vec<Vec<f64>>);

impl PerOp {
    pub fn new(ops: usize) -> Self {
        PerOp(vec![Vec::new(); ops])
    }

    pub fn record(&mut self, op: usize, value: f64) {
        self.0[op].push(value);
    }

    /// One sample per operation `keep` selects that ran at least once.
    pub fn samples(&self, keep: impl Fn(usize) -> bool) -> Samples {
        let mut s = Samples::default();
        for (_, repeats) in self
            .0
            .iter()
            .enumerate()
            .filter(|(i, r)| keep(*i) && !r.is_empty())
        {
            let mut r = Samples::default();
            repeats.iter().for_each(|&v| r.push(v));
            s.push(r.quantile(0.5));
        }
        s
    }
}

/// Host normalisation. Other tenants of a shared host slow it down in
/// regimes lasting seconds, by up to half again on this simulator's
/// branchy code, which no statistic inside one run can filter out. A
/// fixed kernel of the benchmark's own (pseudo-random sorts, as branchy
/// as the scheduler) runs before every operation; times are scaled by
/// `NOMINAL_US` over the median of the last few kernel times, which
/// cancels most of a regime. The kernel is not program code, so a
/// program change moves only the raw time.
#[derive(Debug)]
pub struct HostClock {
    recent: std::collections::VecDeque<f64>,
    buf: Vec<u64>,
}

impl HostClock {
    /// The kernel's time on an unloaded 2.1 GHz Xeon core.
    const NOMINAL_US: f64 = 230.0;
    /// Kernel times the scale takes the median of.
    const WINDOW: usize = 9;

    pub fn new() -> Self {
        let mut clock = HostClock {
            recent: std::collections::VecDeque::with_capacity(Self::WINDOW),
            buf: (0..4096).collect(),
        };
        for _ in 0..Self::WINDOW {
            clock.calibrate();
        }
        clock
    }

    /// Runs the kernel once and remembers its time.
    pub fn calibrate(&mut self) {
        let t = Instant::now();
        for round in 0..4u64 {
            for v in self.buf.iter_mut() {
                *v = v
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(round);
            }
            self.buf.sort_unstable();
        }
        std::hint::black_box(&self.buf);
        if self.recent.len() == Self::WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(micros_since(t));
    }

    /// The factor that maps a raw time to a host-normalised one.
    pub fn scale(&self) -> f64 {
        let mut s = Samples::default();
        self.recent.iter().for_each(|&v| s.push(v));
        Self::NOMINAL_US / s.quantile(0.5)
    }
}

/// Microseconds elapsed since `since`.
pub fn micros_since(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
