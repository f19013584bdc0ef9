//! Per-tenant retry policy: seeded exponential backoff with a budget.
//!
//! A failed attempt ([`crate::Outcome::Failed`] material: a panicking
//! body, an injected kill, a kernel fault) or an overload shed can be
//! **re-admitted** instead of settled, if the tenant opted in with a
//! [`RetryPolicy`]. The policy is deliberately conservative-by-default
//! and fully bounded:
//!
//! * **max attempts** — total tries including the first; when exhausted
//!   the request settles with its last fault.
//! * **exponential backoff with seeded jitter** — attempt *n* waits
//!   `base · 2ⁿ` (clamped to `max_backoff`), scaled by a deterministic
//!   ±50% jitter derived from `jitter_seed` so retry storms decorrelate
//!   yet replay identically under a fixed seed (the same discipline as
//!   the [`htvm_core::faults`] plane it is usually tested against).
//! * **retry budget** — retries are capped at
//!   `budget_floor + submitted · budget_pct / 100`; past it, failures
//!   settle immediately. This is the classic guard against retry
//!   amplification melting an already-degraded service.
//! * **deadline-aware** — a request whose token deadline would expire
//!   before the backoff completes settles immediately instead of
//!   burning a doomed attempt.
//!
//! Retries never touch the conservation ledger until they settle: a
//! retried request is still `pending` (its one [`crate::Outcome`] has
//! not been delivered), and [`crate::TenantStats::retried`] counts
//! re-admissions outside the settled buckets.

use std::time::Duration;

use htvm_core::faults::splitmix64;

/// Per-tenant retry policy (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1; 1 means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
    /// Retry budget as a percentage of submissions (see module docs).
    pub budget_pct: u32,
    /// Retry budget floor — retries always allowed below this count, so
    /// a low-traffic tenant is not starved of its own budget.
    pub budget_floor: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0,
            budget_pct: 20,
            budget_floor: 16,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and defaults
    /// otherwise.
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Whether a request that has already run `attempt + 1` times (the
    /// 0-based `attempt` just failed) may try again.
    pub fn attempts_allow(&self, attempt: u32) -> bool {
        attempt + 1 < self.max_attempts
    }

    /// Whether the tenant's budget admits one more retry, given its
    /// lifetime `retried` and `submitted` counters.
    pub fn budget_allows(&self, retried: u64, submitted: u64) -> bool {
        retried < self.budget_floor + submitted * u64::from(self.budget_pct) / 100
    }

    /// Backoff before re-admitting the retry of 0-based `attempt`,
    /// jittered to 50–150% of the exponential step by a pure function
    /// of `(jitter_seed, salt, attempt)` — replayable under a fixed
    /// seed and salt.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        let step = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_backoff);
        let h = splitmix64(self.jitter_seed ^ splitmix64(salt ^ u64::from(attempt)));
        // 50%..150% of the step, in 1/1024ths.
        let scale = 512 + (h % 1025);
        Duration::from_nanos((step.as_nanos() as u64 / 1024).saturating_mul(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_gate_counts_the_first_run() {
        let p = RetryPolicy::attempts(3);
        assert!(p.attempts_allow(0), "after the 1st failure, 2 tries left");
        assert!(p.attempts_allow(1));
        assert!(!p.attempts_allow(2), "3rd failure exhausts 3 attempts");
        assert!(!RetryPolicy::attempts(1).attempts_allow(0), "1 = no retry");
    }

    #[test]
    fn budget_floor_and_percentage() {
        let p = RetryPolicy {
            budget_pct: 10,
            budget_floor: 2,
            ..RetryPolicy::default()
        };
        assert!(p.budget_allows(1, 0), "floor admits early retries");
        assert!(!p.budget_allows(2, 0), "floor exhausted, no traffic");
        assert!(p.budget_allows(11, 100), "2 + 100·10% = 12");
        assert!(!p.budget_allows(12, 100));
    }

    #[test]
    fn backoff_doubles_clamps_and_jitters_deterministically() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(16),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let b0 = p.backoff_for(0, 1);
        let b3 = p.backoff_for(3, 1);
        let b9 = p.backoff_for(9, 1);
        // Jitter keeps each within 50–150% of the exponential step.
        assert!(b0 >= Duration::from_millis(1) && b0 <= Duration::from_millis(3));
        assert!(b3 >= Duration::from_millis(8) && b3 <= Duration::from_millis(24));
        assert!(b9 <= Duration::from_millis(24), "clamped at max_backoff");
        assert_eq!(b3, p.backoff_for(3, 1), "replayable");
        assert_ne!(
            (p.backoff_for(0, 1), p.backoff_for(0, 2)),
            (p.backoff_for(0, 3), p.backoff_for(0, 4)),
            "salt decorrelates requests"
        );
    }
}
