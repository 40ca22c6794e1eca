//! The multi-image job scheduler: fan a queue of (image × CVE × basis)
//! scan jobs across the shared persistent worker pool.
//!
//! Jobs are dispatched to [`neural::pool::global`] — the same pool the
//! GEMM kernels and feature extraction use — so a batch spawns no
//! threads of its own. Workers pull jobs from the pool's shared queue,
//! so long jobs (big libraries, many candidates) don't starve short ones
//! the way static chunking would; a job whose scan reaches a parallel
//! kernel runs that kernel inline on its worker (nested dispatch never
//! deadlocks or oversubscribes).
//!
//! ## Failure handling
//!
//! Every job produces a [`JobRecord`] with wall-clock timing, its attempt
//! count, and a typed outcome. A failing attempt yields a
//! [`ScanError`]; transient errors (corrupt cache artifacts, worker
//! panics, injected faults, I/O) are retried with exponential backoff up
//! to [`RetryPolicy::max_attempts`], while permanent errors (bad input,
//! unknown CVE) fail immediately. No panic escapes the scheduler: a
//! panicking scan is caught, classified as [`ScanError::WorkerPanic`],
//! and retried like any other transient fault. The optional fault hook is
//! the seam the `faultline` chaos harness uses to inject simulated worker
//! deaths ahead of an attempt.

use crate::hub::ScanHub;
use corpus::vulndb::VulnDb;
use fwbin::FirmwareImage;
use patchecko_core::error::ScanError;
use patchecko_core::pipeline::{Basis, ImageMatch};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled unit of work: scan one image for one CVE under one basis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Index into the batch's image list.
    pub image: usize,
    /// CVE identifier to search for.
    pub cve: String,
    /// Search basis.
    pub basis: Basis,
}

/// Bounded retry with exponential backoff for transient job failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per job (first try included). `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff_ms << min(n - 1, 10)` —
    /// exponential doubling capped at 1024× the base (see
    /// [`RetryPolicy::backoff`]).
    pub base_backoff_ms: u64,
    /// Wall-clock budget per *attempt*, milliseconds. An attempt
    /// exceeding it is abandoned and yields a transient
    /// [`ScanError::Timeout`] — retried like any other transient fault,
    /// and a permanent [`JobOutcome::Failed`] once attempts are spent —
    /// so one hung scan can't stall the batch (or wedge the daemon's
    /// fair scheduler). `None` (the default) disables the budget.
    #[serde(default)]
    pub job_timeout_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff_ms: 5, job_timeout_ms: None }
    }
}

impl RetryPolicy {
    /// Fail on the first error, transient or not.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_backoff_ms: 0, job_timeout_ms: None }
    }

    /// This policy with a per-attempt wall-clock budget.
    pub fn with_job_timeout_ms(mut self, budget_ms: u64) -> RetryPolicy {
        self.job_timeout_ms = Some(budget_ms);
        self
    }

    /// Pause before re-running a job that has failed `attempt` times:
    /// `base_backoff_ms << min(attempt - 1, 10)` milliseconds. The shift
    /// is capped at 10 (1024× base) so arbitrarily high attempt counts
    /// neither overflow the shift (`1 << 64` would be UB-adjacent debug
    /// panic territory) nor produce absurd multi-hour sleeps; the
    /// multiplication additionally saturates at `u64::MAX` ms for
    /// pathological bases. The scheduler only ever sleeps *between*
    /// attempts — after the final failed attempt the job returns
    /// immediately, with no trailing backoff.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(10);
        Duration::from_millis(self.base_backoff_ms.saturating_mul(1 << shift))
    }
}

/// Pre-attempt fault seam: given the job and the 1-based attempt number,
/// return `Some(error)` to make that attempt fail before it runs — how
/// the chaos harness simulates a worker dying mid-batch. Production runs
/// leave it unset.
pub type FaultHook = dyn Fn(&JobSpec, u32) -> Option<ScanError> + Send + Sync;

/// How a job ended.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The scan ran to completion.
    Completed {
        /// Static-stage candidates across the image's libraries.
        candidates: usize,
        /// Candidates surviving execution validation.
        validated: usize,
        /// The image-wide best match, if any candidate survived.
        best: Option<ImageMatch>,
    },
    /// The job failed permanently: a permanent error, or a transient one
    /// that survived every retry.
    Failed {
        /// The final attempt's error.
        error: ScanError,
        /// Attempts spent, retries included.
        attempts: u32,
    },
}

fn one_attempt() -> u32 {
    1
}

/// A job plus its measured execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// The scheduled job.
    pub spec: JobSpec,
    /// Wall-clock seconds spent on the job, retries included.
    pub seconds: f64,
    /// Attempts spent (1 = first try succeeded).
    #[serde(default = "one_attempt")]
    pub attempts: u32,
    /// Outcome.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Whether the job completed.
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, JobOutcome::Completed { .. })
    }

    /// The failure, if the job failed.
    pub fn error(&self) -> Option<&ScanError> {
        match &self.outcome {
            JobOutcome::Failed { error, .. } => Some(error),
            JobOutcome::Completed { .. } => None,
        }
    }
}

/// Every (image × featured-CVE × basis) combination for a batch — the
/// exhaustive audit schedule.
pub fn full_schedule(num_images: usize, db: &VulnDb, bases: &[Basis]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for image in 0..num_images {
        for entry in db.featured() {
            for &basis in bases {
                jobs.push(JobSpec { image, cve: entry.entry.cve.clone(), basis });
            }
        }
    }
    jobs
}

/// One attempt of one job. The fault hook fires first so injected worker
/// deaths preempt real work, exactly like a worker lost mid-scan.
fn run_attempt(
    hub: &ScanHub,
    images: &[FirmwareImage],
    db: &VulnDb,
    spec: &JobSpec,
    hook: Option<&Arc<FaultHook>>,
    attempt: u32,
) -> Result<JobOutcome, ScanError> {
    if let Some(hook) = hook {
        if let Some(err) = hook(spec, attempt) {
            return Err(err);
        }
    }
    let image = images
        .get(spec.image)
        .ok_or(ScanError::ImageOutOfRange { index: spec.image, images: images.len() })?;
    let entry = db.get(&spec.cve).ok_or_else(|| ScanError::UnknownCve(spec.cve.clone()))?;
    let analysis = hub.scan_image_tenant(image, entry, spec.basis, "")?;
    Ok(JobOutcome::Completed {
        candidates: analysis.analyses.iter().map(|a| a.scan.candidates.len()).sum(),
        validated: analysis.analyses.iter().map(|a| a.dynamic.validated.len()).sum(),
        best: analysis.best,
    })
}

/// One attempt, panic-contained. The whole attempt — fault hook included
/// — runs under `catch_unwind`, so nothing a worker does can take down
/// the batch; a panic is just a transient `WorkerPanic` to the retry
/// loop.
fn contained_attempt(
    hub: &ScanHub,
    images: &[FirmwareImage],
    db: &VulnDb,
    spec: &JobSpec,
    hook: Option<&Arc<FaultHook>>,
    attempt: u32,
) -> Result<JobOutcome, ScanError> {
    catch_unwind(AssertUnwindSafe(|| run_attempt(hub, images, db, spec, hook, attempt)))
        .unwrap_or_else(|payload| Err(ScanError::from_panic(payload.as_ref())))
}

/// One attempt under a wall-clock budget: the attempt runs on a spawned
/// watcher-side thread and the scheduler waits at most `budget_ms` for
/// its result. On expiry the attempt is *abandoned* — the thread finishes
/// (or hangs) off to the side, its late result discarded, and the
/// scheduler moves on with a transient [`ScanError::Timeout`]. An
/// abandoned extraction that eventually completes still publishes into
/// the content-addressed store, which is harmless (same key, same value).
fn budgeted_attempt(
    hub: &Arc<ScanHub>,
    images: &Arc<Vec<FirmwareImage>>,
    db: &Arc<VulnDb>,
    spec: &JobSpec,
    hook: Option<&Arc<FaultHook>>,
    attempt: u32,
    budget_ms: u64,
) -> Result<JobOutcome, ScanError> {
    let (tx, rx) = std::sync::mpsc::channel();
    let (hub2, images2, db2) = (Arc::clone(hub), Arc::clone(images), Arc::clone(db));
    let (spec2, hook2) = (spec.clone(), hook.cloned());
    std::thread::spawn(move || {
        let _ = tx.send(contained_attempt(&hub2, &images2, &db2, &spec2, hook2.as_ref(), attempt));
    });
    match rx.recv_timeout(Duration::from_millis(budget_ms)) {
        Ok(result) => result,
        Err(_) => {
            hub.store().registry().add("sched.timeouts", 1);
            Err(ScanError::Timeout { budget_ms })
        }
    }
}

fn run_one(
    hub: &Arc<ScanHub>,
    images: &Arc<Vec<FirmwareImage>>,
    db: &Arc<VulnDb>,
    spec: &JobSpec,
    retry: &RetryPolicy,
    hook: Option<&Arc<FaultHook>>,
) -> (JobOutcome, u32) {
    let max = retry.max_attempts.max(1);
    let registry = Arc::clone(hub.store().registry());
    let mut attempt = 1;
    loop {
        registry.add("sched.attempts", 1);
        let attempted = match retry.job_timeout_ms {
            Some(budget_ms) => budgeted_attempt(hub, images, db, spec, hook, attempt, budget_ms),
            None => contained_attempt(hub, images, db, spec, hook, attempt),
        };
        match attempted {
            Ok(done) => return (done, attempt),
            Err(error) if error.is_transient() && attempt < max => {
                let pause = retry.backoff(attempt);
                registry.add("sched.retries", 1);
                registry.add("sched.backoff_ms", pause.as_millis() as u64);
                std::thread::sleep(pause);
                attempt += 1;
            }
            Err(error) => return (JobOutcome::Failed { error, attempts: attempt }, attempt),
        }
    }
}

fn timed(
    hub: &Arc<ScanHub>,
    images: &Arc<Vec<FirmwareImage>>,
    db: &Arc<VulnDb>,
    spec: &JobSpec,
    retry: &RetryPolicy,
    hook: Option<&Arc<FaultHook>>,
) -> JobRecord {
    let _span = scope::SpanGuard::enter("sched.job")
        .with_detail(format!("image {} / {} / {:?}", spec.image, spec.cve, spec.basis));
    let started = Instant::now();
    let (outcome, attempts) = run_one(hub, images, db, spec, retry, hook);
    hub.store().registry().add("sched.jobs", 1);
    JobRecord { spec: spec.clone(), seconds: started.elapsed().as_secs_f64(), attempts, outcome }
}

/// Run `jobs` across up to `threads` shared-pool workers, returning
/// records in job order. `threads == 1` runs inline (no dispatch);
/// transient failures are retried per `retry`, and individual failures
/// are recorded, never propagated. `hook` is the optional pre-attempt
/// fault seam ([`FaultHook`]). The hub, images, and database arrive
/// behind `Arc` because pool tasks are `'static` — each job holds its
/// own handle for the duration of the batch.
pub fn run_jobs(
    hub: &Arc<ScanHub>,
    images: &Arc<Vec<FirmwareImage>>,
    db: &Arc<VulnDb>,
    jobs: &[JobSpec],
    threads: usize,
    retry: RetryPolicy,
    hook: Option<Arc<FaultHook>>,
) -> Vec<JobRecord> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs
            .iter()
            .map(|spec| timed(hub, images, db, spec, &retry, hook.as_ref()))
            .collect();
    }
    let tasks: Vec<Box<dyn FnOnce() -> JobRecord + Send>> = jobs
        .iter()
        .map(|spec| {
            let (hub, images, db, spec) = (hub.clone(), images.clone(), db.clone(), spec.clone());
            let hook = hook.clone();
            Box::new(move || timed(&hub, &images, &db, &spec, &retry, hook.as_ref()))
                as Box<dyn FnOnce() -> JobRecord + Send>
        })
        .collect();
    neural::pool::global().run(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps_at_shift_ten() {
        let retry = RetryPolicy { max_attempts: 100, base_backoff_ms: 3, ..RetryPolicy::default() };
        assert_eq!(retry.backoff(1), Duration::from_millis(3));
        assert_eq!(retry.backoff(2), Duration::from_millis(6));
        assert_eq!(retry.backoff(11), Duration::from_millis(3 * 1024));
        // Every attempt past the cap gets the same ceiling — no shift
        // overflow, no runaway sleeps.
        assert_eq!(retry.backoff(12), retry.backoff(11));
        assert_eq!(retry.backoff(u32::MAX), retry.backoff(11));
        // attempt 0 is out-of-contract but must not underflow the shift.
        assert_eq!(retry.backoff(0), Duration::from_millis(3));
    }

    #[test]
    fn retry_policy_timeout_is_optional_and_serde_defaulted() {
        // Policies persisted before the budget existed still deserialize.
        let p: RetryPolicy =
            serde_json::from_str(r#"{"max_attempts":2,"base_backoff_ms":10}"#).unwrap();
        assert_eq!(p.job_timeout_ms, None);
        let q = RetryPolicy::default().with_job_timeout_ms(500);
        assert_eq!(q.job_timeout_ms, Some(500));
        let back: RetryPolicy = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn backoff_saturates_on_pathological_base() {
        let retry =
            RetryPolicy { max_attempts: 3, base_backoff_ms: u64::MAX / 2, ..RetryPolicy::default() };
        assert_eq!(retry.backoff(40), Duration::from_millis(u64::MAX));
    }
}
