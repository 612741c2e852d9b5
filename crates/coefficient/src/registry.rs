//! The string-keyed policy registry: every scheduling scheme the crate
//! knows, as one trait object per policy.
//!
//! [`Policy`] is the extension point of the scheduler zoo. A policy is a
//! stateless description — a registry key, a display label, a
//! [`PolicyBehavior`] flag set consumed by [`crate::Scheduler`], and a
//! retransmission-plan function — while all scheduling machinery lives in
//! the shared scheduler engine. Adding a policy is a one-file change:
//! implement the trait on a unit struct here, add the constant to
//! [`ALL`], and the shared `tests/policy_contract.rs` battery picks it up
//! automatically.
//!
//! Policies are addressed as `&'static dyn Policy` trait objects
//! ([`PolicyRef`]), resolved from strings end to end ([`resolve`]): the
//! bench CLI, the golden corpus JSON and the sweep harness all go through
//! the same lookup, so an unknown name fails with a listing of the
//! registered keys instead of a panic.
//!
//! | key | semantics |
//! |---|---|
//! | `coefficient` | the paper's scheme: differentiated Theorem-1 copies in stolen slack, cooperative segments, degraded mode, failover |
//! | `fspec` | FlexRay-specification baseline: blanket B-mirror, uniform best-effort copies serialized through own slots |
//! | `hosa` | dual-channel redundancy only: mirror + one extra copy, no slack use |
//! | `greedy` | greedy best-effort retransmission: uniform copy count, but placed in stolen slack like CoEfficient |
//! | `slack-steal` | slack stealing without criticality differentiation: no shedding, no degraded mode, no failover |
//! | `matchup` | mixed-criticality match-up: after a fault burst, slack switches to a recovery schedule for hard instances only |

use flexray::schedule::MessageId;
use reliability::RetransmissionPlanner;

/// FSPEC's best-effort retransmission cap: the uniform per-message copy
/// count is searched up to this bound (beyond it, best effort gives up —
/// the bandwidth simply is not there).
const FSPEC_MAX_UNIFORM_K: u32 = 4;

/// The switchboard a policy hands the scheduler engine: each flag enables
/// one mechanism of the shared machinery. The legacy schemes are exact
/// flag sets — CoEfficient enables everything except
/// [`matchup_recovery`](Self::matchup_recovery), FSPEC is the
/// mirror/own-slot pair, HOSA is mirror plus dynamic-channel balancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyBehavior {
    /// Whether [`crate::CoefficientOptions`] apply to this policy. When
    /// `false` the scheduler pins the options to their defaults, so the
    /// ablation switches only ever affect policies that opt in (the
    /// baselines keep their fixed behaviour).
    pub uses_options: bool,
    /// Blanket-mirror every static primary on channel B instead of
    /// planning per-message copies into stolen slack.
    pub mirror_allocation: bool,
    /// Serialize all of a static message's transmissions (primary +
    /// best-effort copies) through the message's own slot pattern with a
    /// bounded CHI queue (the FSPEC separate-segments model).
    pub own_slot_serialization: bool,
    /// Alternate dynamic messages' home channels across A and B.
    pub balance_dynamic_channels: bool,
    /// Use free static positions cooperatively (slack stealing for the
    /// dynamic backlog, early copies of released static instances).
    pub cooperative_segments: bool,
    /// Degraded mode sheds soft dynamic traffic by criticality class.
    pub criticality_shedding: bool,
    /// Degraded mode re-plans freed slack into extra hard-message copies.
    pub degraded_hard_copies: bool,
    /// Mirror hard frames onto the healthier channel during an asymmetric
    /// channel storm.
    pub failover: bool,
    /// Match-up recovery: while the health monitor reports a degraded
    /// bus, free slack serves *only* the hard recovery schedule (extra
    /// copies of undelivered static instances); nominal cooperative
    /// service resumes when the monitor returns to `Nominal`.
    pub matchup_recovery: bool,
}

impl PolicyBehavior {
    /// CoEfficient's flag set: everything on except match-up recovery.
    const COEFFICIENT: PolicyBehavior = PolicyBehavior {
        uses_options: true,
        mirror_allocation: false,
        own_slot_serialization: false,
        balance_dynamic_channels: true,
        cooperative_segments: true,
        criticality_shedding: true,
        degraded_hard_copies: true,
        failover: true,
        matchup_recovery: false,
    };
}

/// A scheduling policy: one member of the registry.
///
/// Implementations are stateless unit structs; the scheduler engine
/// reads the [`behavior`](Self::behavior) flags and the retransmission
/// plan and does the rest. The trait is object-safe and every registered
/// policy is reachable as a `Box<dyn Policy + Send>`-compatible trait
/// object via the `&'static` [`PolicyRef`] constants below.
pub trait Policy: std::fmt::Debug + Send + Sync {
    /// Stable registry key (lowercase, e.g. `"slack-steal"`); the string
    /// the CLI and corpus resolve.
    fn key(&self) -> &'static str;

    /// Human-readable display label (e.g. `"CoEfficient"`); also accepted
    /// by [`resolve`], case-insensitively.
    fn label(&self) -> &'static str;

    /// The ordinal folded into [`crate::RunReport::fingerprint`]. Legacy
    /// values are frozen — CoEfficient 0, FSPEC 1, HOSA 2 — so the golden
    /// corpus digests recorded before the registry existed stay
    /// byte-identical; new policies claim the next free ordinal.
    fn fingerprint_tag(&self) -> u64;

    /// The mechanism switchboard the scheduler engine runs under.
    fn behavior(&self) -> PolicyBehavior;

    /// Per-message retransmission copy counts for a reliability goal.
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)>;

    /// Additional names [`resolve`] accepts for this policy.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line semantics, shown in the scheduler-zoo docs.
    fn summary(&self) -> &'static str;
}

/// A registered policy: a `'static` trait object, `Copy` and comparable
/// by registry key.
pub type PolicyRef = &'static (dyn Policy + Send + Sync);

impl PartialEq for dyn Policy + Send + Sync {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn Policy + Send + Sync {}

/// The same copy count `k` for every message the planner covers.
fn uniform_counts(planner: &RetransmissionPlanner, k: u32) -> Vec<(MessageId, u32)> {
    planner.messages().iter().map(|m| (m.id, k)).collect()
}

/// The paper's differentiated Theorem-1 plan: per-message `k_z` copy
/// counts for the goal, falling back to the uniform cap if the goal is
/// unreachable.
fn differentiated_plan(planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
    if goal <= 0.0 {
        return Vec::new();
    }
    match planner.plan_for_goal(goal) {
        Ok(plan) => plan
            .messages()
            .iter()
            .zip(plan.retransmission_counts())
            .map(|(m, &k)| (m.id, k))
            .collect(),
        Err(_) => uniform_counts(planner, FSPEC_MAX_UNIFORM_K),
    }
}

/// Uniform best effort: the smallest `k` meeting the goal, applied to
/// every message (capped at [`FSPEC_MAX_UNIFORM_K`]).
fn uniform_best_effort_plan(planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
    let k = if goal <= 0.0 {
        0
    } else {
        (0..=FSPEC_MAX_UNIFORM_K)
            .find(|&k| planner.uniform_success_probability(k) >= goal)
            .unwrap_or(FSPEC_MAX_UNIFORM_K)
    };
    uniform_counts(planner, k)
}

/// The paper's contribution: cooperative dual-channel scheduling with
/// selective slack stealing and differentiated retransmission.
pub struct CoefficientPolicy;

impl std::fmt::Debug for CoefficientPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CoEfficient")
    }
}

impl Policy for CoefficientPolicy {
    fn key(&self) -> &'static str {
        "coefficient"
    }
    fn label(&self) -> &'static str {
        "CoEfficient"
    }
    fn fingerprint_tag(&self) -> u64 {
        0
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior::COEFFICIENT
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        differentiated_plan(planner, goal)
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["co"]
    }
    fn summary(&self) -> &'static str {
        "differentiated Theorem-1 copies in stolen slack, cooperative segments, \
         degraded mode, dual-channel failover"
    }
}

/// The standard FlexRay-specification behaviour with best-effort
/// retransmission of all segments (the paper's baseline).
pub struct FspecPolicy;

impl std::fmt::Debug for FspecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Fspec")
    }
}

impl Policy for FspecPolicy {
    fn key(&self) -> &'static str {
        "fspec"
    }
    fn label(&self) -> &'static str {
        "FSPEC"
    }
    fn fingerprint_tag(&self) -> u64 {
        1
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior {
            uses_options: false,
            mirror_allocation: true,
            own_slot_serialization: true,
            balance_dynamic_channels: false,
            cooperative_segments: false,
            criticality_shedding: false,
            degraded_hard_copies: false,
            failover: false,
            matchup_recovery: false,
        }
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        uniform_best_effort_plan(planner, goal)
    }
    fn summary(&self) -> &'static str {
        "blanket channel-B mirror; uniform best-effort copies serialized \
         through each message's own slots (separate segments)"
    }
}

/// A HOSA-like scheme (paper §V-B, reference \[7\]): dual-channel
/// redundancy — every static message mirrored on channel B, every dynamic
/// message sent once more on the other channel — but no slack stealing
/// and no cooperative use of idle slots.
pub struct HosaPolicy;

impl std::fmt::Debug for HosaPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Hosa")
    }
}

impl Policy for HosaPolicy {
    fn key(&self) -> &'static str {
        "hosa"
    }
    fn label(&self) -> &'static str {
        "HOSA"
    }
    fn fingerprint_tag(&self) -> u64 {
        2
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior {
            uses_options: false,
            mirror_allocation: true,
            own_slot_serialization: false,
            balance_dynamic_channels: true,
            cooperative_segments: false,
            criticality_shedding: false,
            degraded_hard_copies: false,
            failover: false,
            matchup_recovery: false,
        }
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, _goal: f64) -> Vec<(MessageId, u32)> {
        // HOSA's redundancy is fixed: exactly one extra copy of every
        // message via the second channel.
        uniform_counts(planner, 1)
    }
    fn summary(&self) -> &'static str {
        "dual-channel redundancy only: static B-mirror plus one extra dynamic \
         copy, no slack use"
    }
}

/// Greedy best-effort retransmission: plans the FSPEC-style uniform copy
/// count but places the copies in stolen static slack like CoEfficient.
/// On a fault-free goal both plans are empty, so greedy and CoEfficient
/// produce identical static-segment schedules — they only diverge under
/// faults, where greedy's undifferentiated plan wastes slack on robust
/// messages.
pub struct GreedyPolicy;

impl std::fmt::Debug for GreedyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Greedy")
    }
}

impl Policy for GreedyPolicy {
    fn key(&self) -> &'static str {
        "greedy"
    }
    fn label(&self) -> &'static str {
        "Greedy"
    }
    fn fingerprint_tag(&self) -> u64 {
        3
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior::COEFFICIENT
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        uniform_best_effort_plan(planner, goal)
    }
    fn summary(&self) -> &'static str {
        "greedy best-effort retransmission: uniform copy counts placed in \
         stolen slack (no per-message differentiation)"
    }
}

/// Slack stealing without criticality differentiation: the cooperative
/// machinery of CoEfficient, but health-blind — no soft-traffic
/// shedding, no degraded-mode re-plan, no failover. Every arrival is
/// admitted regardless of bus health.
pub struct SlackStealPolicy;

impl std::fmt::Debug for SlackStealPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SlackSteal")
    }
}

impl Policy for SlackStealPolicy {
    fn key(&self) -> &'static str {
        "slack-steal"
    }
    fn label(&self) -> &'static str {
        "SlackSteal"
    }
    fn fingerprint_tag(&self) -> u64 {
        4
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior {
            criticality_shedding: false,
            degraded_hard_copies: false,
            failover: false,
            ..PolicyBehavior::COEFFICIENT
        }
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        differentiated_plan(planner, goal)
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["slacksteal", "slack_steal"]
    }
    fn summary(&self) -> &'static str {
        "slack stealing without criticality differentiation: cooperative \
         segments but no shedding, degraded mode or failover"
    }
}

/// Mixed-criticality match-up scheduling: nominally identical to
/// CoEfficient, but when the health monitor signals a fault burst
/// (`Stressed`/`Storm`) the free slack switches to a *recovery schedule*
/// — it serves only extra copies of undelivered hard instances until the
/// monitor reports `Nominal` again, at which point the schedule has
/// "matched up" with the nominal plan and cooperative service resumes.
pub struct MatchupPolicy;

impl std::fmt::Debug for MatchupPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Matchup")
    }
}

impl Policy for MatchupPolicy {
    fn key(&self) -> &'static str {
        "matchup"
    }
    fn label(&self) -> &'static str {
        "Matchup"
    }
    fn fingerprint_tag(&self) -> u64 {
        5
    }
    fn behavior(&self) -> PolicyBehavior {
        PolicyBehavior {
            matchup_recovery: true,
            ..PolicyBehavior::COEFFICIENT
        }
    }
    fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        differentiated_plan(planner, goal)
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["match-up"]
    }
    fn summary(&self) -> &'static str {
        "mixed-criticality match-up: during a fault burst, slack serves only \
         the hard recovery schedule; nominal service resumes after the storm"
    }
}

/// The CoEfficient policy (registry key `coefficient`).
pub const COEFFICIENT: PolicyRef = &CoefficientPolicy;
/// The FSPEC baseline (registry key `fspec`).
pub const FSPEC: PolicyRef = &FspecPolicy;
/// The HOSA-like ablation baseline (registry key `hosa`).
pub const HOSA: PolicyRef = &HosaPolicy;
/// The greedy best-effort variant (registry key `greedy`).
pub const GREEDY: PolicyRef = &GreedyPolicy;
/// Undifferentiated slack stealing (registry key `slack-steal`).
pub const SLACK_STEAL: PolicyRef = &SlackStealPolicy;
/// The match-up recovery policy (registry key `matchup`).
pub const MATCHUP: PolicyRef = &MatchupPolicy;

/// Every registered policy, legacy schemes first: the order fixes the
/// policy axis of the default sweep and golden matrices, so appending
/// here never renumbers an existing corpus column.
pub const ALL: &[PolicyRef] = &[COEFFICIENT, FSPEC, HOSA, GREEDY, SLACK_STEAL, MATCHUP];

/// Every registered policy (the registry in iteration order).
pub fn all() -> &'static [PolicyRef] {
    ALL
}

/// The registered policy keys, in registry order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|p| p.key()).collect()
}

/// A policy-name lookup that matched nothing in the registry. The
/// [`Display`](std::fmt::Display) rendering lists every registered key,
/// so CLI and corpus errors tell the user what *would* have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy \"{}\" (registered: {})",
            self.name,
            names().join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Resolves a policy by registry key, display label or alias
/// (case-insensitive, surrounding whitespace ignored).
///
/// # Errors
/// [`UnknownPolicy`] — whose message lists the registered keys — if no
/// registered policy matches.
pub fn resolve(name: &str) -> Result<PolicyRef, UnknownPolicy> {
    let needle = name.trim();
    for &p in ALL {
        if p.key().eq_ignore_ascii_case(needle)
            || p.label().eq_ignore_ascii_case(needle)
            || p.aliases().iter().any(|a| a.eq_ignore_ascii_case(needle))
        {
            return Ok(p);
        }
    }
    Err(UnknownPolicy {
        name: name.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_five_policies_with_unique_identities() {
        assert!(ALL.len() >= 5, "the zoo must hold at least five policies");
        let mut keys: Vec<_> = ALL.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ALL.len(), "registry keys must be unique");
        let mut tags: Vec<_> = ALL.iter().map(|p| p.fingerprint_tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ALL.len(), "fingerprint tags must be unique");
    }

    #[test]
    fn legacy_fingerprint_tags_are_frozen() {
        // The golden corpus digests recorded before the registry existed
        // depend on these exact ordinals.
        assert_eq!(COEFFICIENT.fingerprint_tag(), 0);
        assert_eq!(FSPEC.fingerprint_tag(), 1);
        assert_eq!(HOSA.fingerprint_tag(), 2);
    }

    #[test]
    fn resolve_accepts_keys_labels_and_aliases() {
        assert_eq!(resolve("coefficient").unwrap(), COEFFICIENT);
        assert_eq!(resolve("CoEfficient").unwrap(), COEFFICIENT);
        assert_eq!(resolve("co").unwrap(), COEFFICIENT);
        assert_eq!(resolve("FSPEC").unwrap(), FSPEC);
        assert_eq!(resolve(" hosa ").unwrap(), HOSA);
        assert_eq!(resolve("greedy").unwrap(), GREEDY);
        assert_eq!(resolve("slack-steal").unwrap(), SLACK_STEAL);
        assert_eq!(resolve("slack_steal").unwrap(), SLACK_STEAL);
        assert_eq!(resolve("match-up").unwrap(), MATCHUP);
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = resolve("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown policy \"bogus\""), "{msg}");
        for key in names() {
            assert!(msg.contains(key), "error must list {key}: {msg}");
        }
    }

    #[test]
    fn labels_round_trip_through_resolve() {
        for &p in ALL {
            assert_eq!(resolve(p.label()).unwrap(), p, "label {}", p.label());
            assert_eq!(resolve(p.key()).unwrap(), p, "key {}", p.key());
            assert!(!p.summary().is_empty());
        }
    }

    #[test]
    fn debug_rendering_matches_the_legacy_enum() {
        assert_eq!(format!("{COEFFICIENT:?}"), "CoEfficient");
        assert_eq!(format!("{FSPEC:?}"), "Fspec");
        assert_eq!(format!("{HOSA:?}"), "Hosa");
    }
}
