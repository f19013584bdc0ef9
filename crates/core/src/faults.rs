//! Seeded fault injection: a deterministic fault plane for chaos testing.
//!
//! The runtime is system software — it must stay up while workloads come
//! and go. This module supplies the adversary that proves it: named
//! **fault points** compiled into the hot paths (`worker.steal`,
//! `worker.park`, `worker.body`, `serve.dispatch`, `serve.autopilot`,
//! `kernel.body`) that inject panics, delays, or thread-kills according to
//! a [`FaultPlan`] — a set of seeded probability rules parsed from the
//! `HTVM_FAULTS` environment variable or built programmatically.
//!
//! Injection is **replayable by seed**, in the spirit of the `htvm-check`
//! explorer: each rule keeps a per-rule occurrence counter, and whether
//! occurrence *n* fires is a pure function of `(seed, n)` (a splitmix64
//! hash compared against the probability threshold). Two runs that hit a
//! site the same number of times in the same order inject the same faults.
//!
//! Zero cost when off: an unarmed plane is a single `bool` load at each
//! fault point ([`FaultPlane::is_armed`] is `false` when the plan has no
//! rules, which is the default unless `HTVM_FAULTS` is set).
//!
//! ## Spec grammar
//!
//! ```text
//! HTVM_FAULTS = rule (';' rule)*
//! rule        = site ':' kind (':' attr)*
//! site        = dotted name; matches exactly or as a dot-prefix
//!               ("worker" matches "worker.body", "worker.steal", ...)
//! kind        = 'panic' | 'kill' | 'delay'
//! attr        = 'p=' float    — injection probability (default 1.0)
//!             | 'seed=' u64   — decision seed (default 0)
//!             | 'max=' u64    — cap on injections from this rule
//!             | 'ms=' u64     — delay duration (delay kind; default 1)
//! ```
//!
//! Example: `HTVM_FAULTS='worker.body:panic:p=0.01:seed=42;serve.dispatch:kill:p=0.001:seed=7:max=3'`
//!
//! ## Fault kinds and their blast radius
//!
//! * [`FaultKind::Panic`] — `panic_any(InjectedFault { kill: false, .. })`.
//!   At a site inside a `catch_unwind` boundary (a job body, a dispatcher
//!   pass) this is *contained*: it becomes a failed job / restarted pass.
//! * [`FaultKind::Kill`] — `panic_any(InjectedFault { kill: true, .. })`.
//!   Containment boundaries are expected to **rethrow** a kill payload so
//!   the unwind escapes and the OS thread dies, exercising supervision
//!   (worker respawn, dispatcher watchdog).
//! * [`FaultKind::Delay`] — sleep for the configured duration; perturbs
//!   timing without failing anything (a cheap schedule fuzzer).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an armed fault rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`InjectedFault`] payload (`kill: false`); contained
    /// by the nearest `catch_unwind` boundary.
    Panic,
    /// Panic with a `kill: true` payload; containment boundaries rethrow
    /// it so the hosting OS thread dies and supervision must heal.
    Kill,
    /// Sleep for the given duration, perturbing timing only.
    Delay(Duration),
}

/// The typed panic payload carried by injected panics and kills.
///
/// Supervision layers downcast unwind payloads to this type to classify
/// the failure (`site`) and to decide whether to rethrow (`kill`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault-point name that fired, e.g. `"worker.body"`.
    pub site: &'static str,
    /// `true` for [`FaultKind::Kill`]: boundaries must rethrow so the
    /// thread dies instead of containing the unwind.
    pub kill: bool,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} at {}",
            if self.kill { "kill" } else { "panic" },
            self.site
        )
    }
}

/// One seeded injection rule: *where*, *what*, *how often*.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Site to match: exact name or dot-prefix (`"worker"` matches
    /// `"worker.body"`).
    pub site: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching occurrence fires.
    pub p: f64,
    /// Seed for the per-occurrence decision hash.
    pub seed: u64,
    /// Optional cap on total injections from this rule.
    pub max: Option<u64>,
}

impl FaultRule {
    /// A rule that always fires (`p = 1.0`, seed 0, no cap).
    pub fn new(site: impl Into<String>, kind: FaultKind) -> Self {
        Self {
            site: site.into(),
            kind,
            p: 1.0,
            seed: 0,
            max: None,
        }
    }

    /// Set the injection probability.
    #[must_use]
    pub fn p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Set the decision seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap the number of injections from this rule.
    #[must_use]
    pub fn max(mut self, max: u64) -> Self {
        self.max = Some(max);
        self
    }

    fn matches(&self, site: &str) -> bool {
        site == self.site
            || (site.len() > self.site.len()
                && site.starts_with(self.site.as_str())
                && site.as_bytes()[self.site.len()] == b'.')
    }
}

/// A set of [`FaultRule`]s: the programmatic form of an `HTVM_FAULTS` spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The rules, checked in order at every matching fault point.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan (no injection anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule.
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse a spec string (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            plan.rules.push(parse_rule(raw)?);
        }
        Ok(plan)
    }

    /// Parse `HTVM_FAULTS` from the environment; unset or empty yields the
    /// empty plan, a malformed spec panics (a chaos run with a typo'd spec
    /// silently testing nothing is worse than a crash).
    pub fn from_env() -> Self {
        match std::env::var("HTVM_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec)
                .unwrap_or_else(|e| panic!("malformed HTVM_FAULTS spec {spec:?}: {e}")),
            _ => Self::new(),
        }
    }
}

fn parse_rule(raw: &str) -> Result<FaultRule, String> {
    let mut parts = raw.split(':');
    let site = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("rule {raw:?}: missing site"))?;
    let kind_name = parts
        .next()
        .ok_or_else(|| format!("rule {raw:?}: missing kind"))?;
    let mut p = 1.0f64;
    let mut seed = 0u64;
    let mut max = None;
    let mut ms = 1u64;
    for attr in parts {
        let (key, val) = attr
            .split_once('=')
            .ok_or_else(|| format!("rule {raw:?}: attr {attr:?} is not key=value"))?;
        match key {
            "p" => {
                p = val
                    .parse::<f64>()
                    .map_err(|e| format!("rule {raw:?}: bad p: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("rule {raw:?}: p={p} outside [0, 1]"));
                }
            }
            "seed" => {
                seed = parse_u64(val).map_err(|e| format!("rule {raw:?}: bad seed: {e}"))?;
            }
            "max" => {
                max = Some(parse_u64(val).map_err(|e| format!("rule {raw:?}: bad max: {e}"))?);
            }
            "ms" => {
                ms = parse_u64(val).map_err(|e| format!("rule {raw:?}: bad ms: {e}"))?;
            }
            other => return Err(format!("rule {raw:?}: unknown attr {other:?}")),
        }
    }
    let kind = match kind_name {
        "panic" => FaultKind::Panic,
        "kill" => FaultKind::Kill,
        "delay" => FaultKind::Delay(Duration::from_millis(ms)),
        other => return Err(format!("rule {raw:?}: unknown kind {other:?}")),
    };
    Ok(FaultRule {
        site: site.to_string(),
        kind,
        p,
        seed,
        max,
    })
}

fn parse_u64(val: &str) -> Result<u64, String> {
    if let Some(hex) = val.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
    } else {
        val.parse::<u64>().map_err(|e| e.to_string())
    }
}

/// SplitMix64, the workspace's one seeded mix (`htvm-check`'s scheduler
/// keeps its own copy: it sits below `htvm-core` in the dependency graph).
/// Every injection decision is `splitmix64(seed ^ mix(n))` compared
/// against the probability threshold, so a (plan, hit-order)-identical
/// run replays identically; `htvm_serve`'s retry jitter derives from it
/// the same way.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct ArmedRule {
    rule: FaultRule,
    /// Occurrences of matching sites seen so far (the decision index).
    hits: AtomicU64,
    /// Injections actually performed.
    injected: AtomicU64,
}

/// An armed [`FaultPlan`]: the object fault points consult at runtime.
///
/// One plane is owned per [`crate::Pool`] (shared with the serving layer
/// that drives the pool) so concurrent tests with different plans never
/// interfere. Construction arms the plan; [`FaultPlane::is_armed`] is the
/// single-load fast path every fault point checks first.
pub struct FaultPlane {
    rules: Vec<ArmedRule>,
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlane")
            .field(
                "rules",
                &self.rules.iter().map(|r| &r.rule).collect::<Vec<_>>(),
            )
            .field("injected", &self.injected_total())
            .finish()
    }
}

impl Default for FaultPlane {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultPlane {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            rules: plan
                .rules
                .into_iter()
                .map(|rule| ArmedRule {
                    rule,
                    hits: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The unarmed plane: every fault point is a single `false` check.
    pub fn off() -> Self {
        Self::new(FaultPlan::new())
    }

    /// Arm whatever `HTVM_FAULTS` specifies (unset → off).
    pub fn from_env() -> Self {
        Self::new(FaultPlan::from_env())
    }

    /// True if any rule is armed. Fault points check this first; when
    /// `false` the whole fault plane costs one branch.
    #[inline]
    pub fn is_armed(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Total injections performed across all rules.
    pub fn injected_total(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| r.injected.load(Ordering::Relaxed))
            .sum()
    }

    /// Injections performed at fault points matching `site` (by the same
    /// prefix rule used for matching).
    pub fn injected_at(&self, site: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.rule.matches(site) || r.rule.site == site)
            .map(|r| r.injected.load(Ordering::Relaxed))
            .sum()
    }

    /// Hit a fault point. Returns normally (possibly after a delay) or
    /// panics with an [`InjectedFault`] payload.
    ///
    /// `site` must be a `'static` literal — it travels in the panic
    /// payload.
    #[inline]
    pub fn hit(&self, site: &'static str) {
        if self.is_armed() {
            self.hit_slow(site);
        }
    }

    #[cold]
    fn hit_slow(&self, site: &'static str) {
        for armed in &self.rules {
            if !armed.rule.matches(site) {
                continue;
            }
            let n = armed.hits.fetch_add(1, Ordering::Relaxed);
            if !decide(armed.rule.seed, n, armed.rule.p) {
                continue;
            }
            if let Some(cap) = armed.rule.max {
                // Reserve an injection slot; losers of the cap race undo.
                if armed.injected.fetch_add(1, Ordering::Relaxed) >= cap {
                    armed.injected.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
            } else {
                armed.injected.fetch_add(1, Ordering::Relaxed);
            }
            match armed.rule.kind {
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Panic => {
                    let fault = InjectedFault { site, kill: false };
                    LAST_INJECTED.with(|c| c.set(Some(fault)));
                    std::panic::panic_any(fault)
                }
                FaultKind::Kill => {
                    let fault = InjectedFault { site, kill: true };
                    LAST_INJECTED.with(|c| c.set(Some(fault)));
                    std::panic::panic_any(fault)
                }
            }
        }
    }
}

std::thread_local! {
    /// The fault most recently injected *on this thread*, recorded just
    /// before the panic is raised. Lets drop guards running during the
    /// resulting unwind — which see `std::thread::panicking()` but have
    /// no access to the payload — recover the typed fault.
    static LAST_INJECTED: std::cell::Cell<Option<InjectedFault>> =
        const { std::cell::Cell::new(None) };
}

/// Take (and clear) the fault most recently injected on this thread.
/// Intended for drop guards observing `std::thread::panicking()`: if the
/// unwind tearing them down came from a fault point on this thread, this
/// recovers the typed fault the `Drop` cannot otherwise see. The *take*
/// semantics keep a consumed fault from leaking into some later,
/// unrelated unwind on the same (pooled) thread.
pub fn take_last_injected() -> Option<InjectedFault> {
    LAST_INJECTED.with(|c| c.take())
}

/// Pure injection decision: does occurrence `n` under `seed` fire at
/// probability `p`?
fn decide(seed: u64, n: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    let h = splitmix64(seed ^ splitmix64(n));
    // Compare the hash against p scaled to the u64 range. The f64→u64
    // rounding error is ~2^-53 relative — irrelevant at chaos-test rates.
    (h as f64) < p * (u64::MAX as f64)
}

/// Inspect an unwind payload: the injected fault, if that's what it is.
pub fn injected_from_payload(payload: &(dyn std::any::Any + Send)) -> Option<InjectedFault> {
    payload.downcast_ref::<InjectedFault>().copied()
}

/// Best-effort human-readable message from an unwind payload: injected
/// faults, `&str` and `String` panics render faithfully; anything else is
/// an opaque marker.
pub fn describe_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(f) = injected_from_payload(payload) {
        f.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Hit a fault point on a [`FaultPlane`]: `fault_point!(plane, "site")`.
///
/// Expands to the armed check plus the slow path — the off cost is one
/// branch on a plain `bool`-equivalent load.
#[macro_export]
macro_rules! fault_point {
    ($plane:expr, $site:literal) => {
        $plane.hit($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            FaultPlan::parse("worker.body:panic:p=0.01:seed=42;serve.dispatch:kill:max=3").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].site, "worker.body");
        assert_eq!(plan.rules[0].kind, FaultKind::Panic);
        assert!((plan.rules[0].p - 0.01).abs() < 1e-12);
        assert_eq!(plan.rules[0].seed, 42);
        assert_eq!(plan.rules[1].kind, FaultKind::Kill);
        assert_eq!(plan.rules[1].max, Some(3));
        assert!((plan.rules[1].p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("worker.body").is_err()); // no kind
        assert!(FaultPlan::parse("worker.body:explode").is_err());
        assert!(FaultPlan::parse("worker.body:panic:p=2.0").is_err());
        assert!(FaultPlan::parse("worker.body:panic:wat").is_err());
        assert!(FaultPlan::parse(":panic").is_err());
    }

    #[test]
    fn empty_specs_are_off() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
        assert!(!FaultPlane::off().is_armed());
    }

    #[test]
    fn prefix_matching_covers_subsites_not_substrings() {
        let r = FaultRule::new("worker", FaultKind::Panic);
        assert!(r.matches("worker"));
        assert!(r.matches("worker.body"));
        assert!(r.matches("worker.body.pre"));
        assert!(!r.matches("workers"));
        assert!(!r.matches("serve.dispatch"));
    }

    #[test]
    fn p1_always_fires_and_respects_max() {
        let plane =
            FaultPlane::new(FaultPlan::new().rule(FaultRule::new("x", FaultKind::Panic).max(2)));
        for i in 0..5 {
            let hit = catch_unwind(AssertUnwindSafe(|| plane.hit("x"))).is_err();
            assert_eq!(hit, i < 2, "occurrence {i}");
        }
        assert_eq!(plane.injected_total(), 2);
    }

    #[test]
    fn payload_is_typed_and_describable() {
        let plane = FaultPlane::new(FaultPlan::new().rule(FaultRule::new("x.y", FaultKind::Kill)));
        let err = catch_unwind(AssertUnwindSafe(|| plane.hit("x.y"))).unwrap_err();
        let f = injected_from_payload(err.as_ref()).expect("typed payload");
        assert_eq!(
            f,
            InjectedFault {
                site: "x.y",
                kill: true
            }
        );
        assert_eq!(describe_payload(err.as_ref()), "injected kill at x.y");
    }

    #[test]
    fn decisions_are_seed_deterministic_and_probability_shaped() {
        const N: u64 = 100_000;
        let count = |seed: u64, p: f64| (0..N).filter(|&n| decide(seed, n, p)).count();
        assert_eq!(count(42, 0.01), count(42, 0.01), "replayable");
        let c = count(42, 0.01) as f64;
        let expect = N as f64 * 0.01;
        assert!(
            (c - expect).abs() < expect * 0.3,
            "p=0.01 over {N}: got {c}, expected ~{expect}"
        );
        assert_ne!(count(1, 0.5), count(2, 0.5), "seed changes the schedule");
        assert_eq!(count(7, 1.0), N as usize);
        assert_eq!(count(7, 0.0), 0);
    }

    #[test]
    fn two_runs_of_one_plan_inject_identically() {
        let run = || {
            let plane = FaultPlane::new(
                FaultPlan::new().rule(FaultRule::new("a", FaultKind::Panic).p(0.05).seed(99)),
            );
            (0..1000)
                .map(|_| catch_unwind(AssertUnwindSafe(|| plane.hit("a"))).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_returns_normally() {
        let plane = FaultPlane::new(FaultPlan::new().rule(FaultRule::new(
            "d",
            FaultKind::Delay(Duration::from_millis(1)),
        )));
        plane.hit("d"); // must not panic
        assert_eq!(plane.injected_total(), 1);
    }
}
