//! End-to-end deadline propagation for pipeline work.
//!
//! A [`CancelToken`] carries a request's wall-clock deadline from the
//! service edge down through the analysis pipeline. The pipeline checks
//! the token *between* stages (per library, before the dynamic stage,
//! per CVE in an audit) — cheap enough to be free, frequent enough that
//! an expired request never pins an executor for a whole image. A check
//! that observes expiry returns the typed
//! [`ScanError::DeadlineExceeded`], which the service layer maps to a
//! per-tenant `expired` counter and a typed wire rejection.
//!
//! Tokens are plain `Copy` values carried in the
//! [`ScanCtx::cancel`](crate::pipeline::ScanCtx::cancel) field every
//! pipeline operation takes; the default context's unbounded token costs
//! nothing.

use std::time::{Duration, Instant};

use crate::error::ScanError;

/// A deadline-based cancellation token threaded through pipeline stages.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    deadline: Option<Instant>,
    budget_ms: u64,
}

impl CancelToken {
    /// A token that never expires — used by every caller that predates
    /// deadlines (CLI batch audits, benches, the scheduler's own jobs).
    pub fn unbounded() -> CancelToken {
        CancelToken { deadline: None, budget_ms: 0 }
    }

    /// A token expiring `budget` from now. The millisecond budget is
    /// retained so the typed error names the envelope the caller set.
    pub fn with_budget(budget: Duration) -> CancelToken {
        CancelToken {
            deadline: Instant::now().checked_add(budget),
            budget_ms: budget.as_millis() as u64,
        }
    }

    /// A token expiring at an absolute instant (the service edge computes
    /// `arrival + deadline_ms` once so queueing time counts against the
    /// budget).
    pub fn with_deadline(deadline: Instant, budget_ms: u64) -> CancelToken {
        CancelToken { deadline: Some(deadline), budget_ms }
    }

    /// The absolute expiry instant, if bounded.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The original end-to-end budget in milliseconds (0 for unbounded).
    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Time left before expiry; `None` when unbounded, zero when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The between-stages check: `Err(DeadlineExceeded)` once expired.
    pub fn check(&self) -> Result<(), ScanError> {
        if self.expired() {
            Err(ScanError::DeadlineExceeded { budget_ms: self.budget_ms })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let t = CancelToken::unbounded();
        assert!(!t.expired());
        assert!(t.remaining().is_none());
        assert!(t.deadline().is_none());
        t.check().unwrap();
    }

    #[test]
    fn zero_budget_expires_immediately_with_typed_error() {
        let t = CancelToken::with_budget(Duration::from_millis(0));
        assert!(t.expired());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        match t.check() {
            Err(ScanError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_checks_clean_and_reports_envelope() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!t.expired());
        assert_eq!(t.budget_ms(), 3_600_000);
        t.check().unwrap();
        assert!(t.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn absolute_deadline_counts_elapsed_queue_time() {
        let arrival = Instant::now() - Duration::from_millis(50);
        let t = CancelToken::with_deadline(arrival + Duration::from_millis(10), 10);
        assert!(t.expired(), "10ms budget set 50ms ago must read expired");
        assert!(matches!(t.check(), Err(ScanError::DeadlineExceeded { budget_ms: 10 })));
    }
}
