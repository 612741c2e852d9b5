//! Recorded outputs of the default seed (`reference.txt`).
//!
//! One line per key: `<key> <value> <value> …`. Output lines hold
//! hexadecimal fingerprints or digests in operation order; count and
//! call lines hold `name=value` pairs. `--record` prints the lines for a seed.

use crate::trace::TraceSummary;
use crate::{Args, Report};

const REFERENCE: &str = include_str!("../reference.txt");

fn find(key: &str) -> Option<std::str::SplitWhitespace<'static>> {
    REFERENCE.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(key)).then_some(parts)
    })
}

/// Fingerprints recorded under `key`, in operation order.
fn outputs(key: &str) -> Option<Vec<u64>> {
    find(key)?
        .map(|h| u64::from_str_radix(h, 16).ok())
        .collect()
}

/// `name=value` pairs recorded under `key`.
fn recorded_pairs(key: &str) -> Option<Vec<(String, u64)>> {
    find(key)?
        .map(|pair| {
            let (name, value) = pair.split_once('=')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Checks each operation's fingerprint against the first run of that
/// operation and, where `reference.txt` records this key, against it.
pub struct OutputCheck {
    seen: Vec<Option<u64>>,
    reference: Option<Vec<u64>>,
}

impl OutputCheck {
    /// A check of `ops` operations against the outputs recorded under
    /// `<key>/outputs`, if any. With `--record` the recorded outputs are
    /// not consulted: they are what is being rewritten.
    pub fn new(ops: usize, key: &str, args: &Args) -> Self {
        let reference =
            outputs(&format!("{key}/outputs")).filter(|r| r.len() == ops && !args.record);
        OutputCheck {
            seen: vec![None; ops],
            reference,
        }
    }

    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// `true` if `fingerprint` is the output op `i` must produce.
    pub fn check(&mut self, i: usize, fingerprint: u64) -> bool {
        if let Some(r) = &self.reference {
            if r[i] != fingerprint {
                return false;
            }
        }
        match self.seen[i] {
            Some(first) => first == fingerprint,
            None => {
                self.seen[i] = Some(fingerprint);
                true
            }
        }
    }
}

/// Checks the first traced pass's program counts and layer calls against
/// those recorded under `<key>/counts` and `<key>/calls`, if any: they
/// must repeat exactly.
pub fn check_pass(key: &str, summary: &TraceSummary, report: &mut Report) {
    for (kind, pairs) in [
        ("counts", summary.count_pairs()),
        ("calls", summary.call_pairs()),
    ] {
        if let Some(recorded) = recorded_pairs(&format!("{key}/{kind}")) {
            let same = recorded.len() == pairs.len()
                && recorded
                    .iter()
                    .zip(&pairs)
                    .all(|((rn, rv), (n, v))| rn == n && rv == v);
            report.op(same);
            report.note(format!(
                "{} {} the recorded seed",
                if kind == "counts" {
                    "program counts"
                } else {
                    "layer calls per pass"
                },
                if same { "repeat" } else { "DIFFER from" }
            ));
        }
    }
}

/// Adds the `reference.txt` lines of this seed to `report` (`--record`).
pub fn record(report: &mut Report, key: &str, check: &OutputCheck, summary: &TraceSummary) {
    let hex: Vec<String> = check
        .seen
        .iter()
        .map(|s| format!("{:016x}", s.unwrap_or(0)))
        .collect();
    report
        .reference
        .push(format!("{key}/outputs {}", hex.join(" ")));
    for (kind, pairs) in [
        ("counts", summary.count_pairs()),
        ("calls", summary.call_pairs()),
    ] {
        let pairs: Vec<String> = pairs.iter().map(|(n, v)| format!("{n}={v}")).collect();
        report
            .reference
            .push(format!("{key}/{kind} {}", pairs.join(" ")));
    }
}
