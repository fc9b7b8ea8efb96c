//! Job lifecycle: the awaitable handle and its terminal states.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use krylov::{CancelToken, SolveOutcome};
use poisson::SetupError;

use crate::request::{Priority, SolveRequest};
use crate::sync;

/// Why a submission was refused at the door (admission control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; resubmit later or shed load upstream.
    Overloaded,
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
    /// The request itself can never run (e.g. a Chebyshev preconditioner
    /// with zero sweeps); resubmitting it unchanged fails the same way.
    InvalidRequest(&'static str),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded => write!(f, "service overloaded: admission queue full"),
            Self::ShuttingDown => write!(f, "service shutting down"),
            Self::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted job failed.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The solver refused the input (bad decomposition, zero or
    /// malformed RHS) — the service stays fully healthy.
    Setup(SetupError),
    /// The job panicked; the payload message is preserved. The session
    /// it ran on (or was building) is quarantined, never returned to
    /// the pool.
    Panicked(String),
    /// A checked-mode run produced sanitizer or comm-verifier findings.
    Check(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Setup(e) => write!(f, "setup refused: {e}"),
            Self::Panicked(msg) => write!(f, "job panicked: {msg}"),
            Self::Check(report) => write!(f, "checked run reported findings:\n{report}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job service metrics, attached to every completed job.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Admission to pop (time spent queued).
    pub queue_wait: Duration,
    /// Session acquisition: zero-ish on a warm hit, full construction
    /// (grid, operator, assembly, normalisation, offload) on a cold one.
    pub setup: Duration,
    /// The solve itself.
    pub solve: Duration,
    /// Outer iterations performed.
    pub iterations: usize,
    /// `true` when a cached warm session served this job.
    pub warm: bool,
    /// Lanes in the batched solve this job rode: `1` means it ran solo,
    /// larger values mean the scheduler coalesced it with that many
    /// compatible jobs into one multi-RHS solve (sweeps, halos and
    /// reductions amortised across all of them).
    pub batch_size: usize,
    /// Device spec the job ran on.
    pub device: String,
    /// Global completion order (monotone across the service).
    pub completion_seq: u64,
}

/// A finished job's payload.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Solver outcome (rank 0's; identical on every rank).
    pub outcome: SolveOutcome,
    /// Service-side metrics for this job.
    pub metrics: JobMetrics,
}

/// Terminal state of a job. Every admitted job reaches exactly one.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// The solve ran to completion (converged or not — see the outcome).
    Done(JobOutput),
    /// The job failed; see [`JobError`].
    Failed(JobError),
    /// Shed unstarted: its deadline expired while queued, or the
    /// service shut down before a worker picked it up.
    Shed,
    /// Cancelled, either while queued or cooperatively mid-solve.
    Cancelled,
}

impl JobResult {
    /// The output of a `Done` job, if that is what this is.
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            Self::Done(out) => Some(out),
            _ => None,
        }
    }
}

/// Coarse job state for polling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Reached a terminal [`JobResult`].
    Finished,
}

enum Phase {
    Queued,
    Running,
    Terminal(JobResult),
}

/// Shared core of one job: request, cancel token, state machine.
pub(crate) struct JobShared {
    pub(crate) id: u64,
    pub(crate) priority: Priority,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: CancelToken,
    request: Mutex<Option<SolveRequest>>,
    state: Mutex<Phase>,
    cv: Condvar,
}

impl JobShared {
    pub(crate) fn new(id: u64, request: SolveRequest) -> Self {
        let submitted = Instant::now();
        let deadline = request.deadline.map(|d| submitted + d);
        Self {
            id,
            priority: request.priority,
            submitted,
            deadline,
            cancel: CancelToken::new(),
            request: Mutex::new(Some(request)),
            state: Mutex::new(Phase::Queued),
            cv: Condvar::new(),
        }
    }

    /// Move the request out (exactly once, by the executing worker).
    pub(crate) fn take_request(&self) -> Option<SolveRequest> {
        sync::lock(&self.request).take()
    }

    /// Inspect the request without taking it (batch-formation
    /// fingerprint checks on still-queued jobs). `None` once a worker
    /// has claimed the request.
    pub(crate) fn peek_request<R>(&self, f: impl FnOnce(&SolveRequest) -> R) -> Option<R> {
        sync::lock(&self.request).as_ref().map(f)
    }

    pub(crate) fn set_running(&self) {
        *sync::lock(&self.state) = Phase::Running;
    }

    pub(crate) fn finish(&self, result: JobResult) {
        *sync::lock(&self.state) = Phase::Terminal(result);
        self.cv.notify_all();
    }

    pub(crate) fn deadline_expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    fn wait(&self) -> JobResult {
        let mut state = sync::lock(&self.state);
        loop {
            if let Phase::Terminal(r) = &*state {
                return r.clone();
            }
            state = sync::wait(&self.cv, state);
        }
    }

    fn try_result(&self) -> Option<JobResult> {
        match &*sync::lock(&self.state) {
            Phase::Terminal(r) => Some(r.clone()),
            _ => None,
        }
    }

    fn status(&self) -> JobStatus {
        match &*sync::lock(&self.state) {
            Phase::Queued => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Terminal(_) => JobStatus::Finished,
        }
    }
}

/// The awaitable handle returned by
/// [`SolveService::submit`](crate::SolveService::submit).
///
/// Dropping the handle without awaiting it silently discards the
/// result, so the type is a mandatory-use handle under `cargo xtask
/// lint`, mirroring the `ReduceRequest` rule.
#[must_use = "a submitted job must be awaited with wait() (or cancelled); dropping the handle discards its result"]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// Service-unique job id (admission order).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The scheduling class this job was admitted under.
    pub fn priority(&self) -> Priority {
        self.shared.priority
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobResult {
        self.shared.wait()
    }

    /// The terminal state, if already reached (non-blocking).
    pub fn try_result(&self) -> Option<JobResult> {
        self.shared.try_result()
    }

    /// Coarse state: queued, running, or finished.
    pub fn status(&self) -> JobStatus {
        self.shared.status()
    }

    /// Request cancellation: a queued job resolves to
    /// [`JobResult::Cancelled`] when popped; a running job stops
    /// cooperatively at its next iteration boundary.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }
}
