//! What a tenant submits: one solve, with placement and scheduling hints.

use std::time::Duration;

use krylov::{SolverKind, SolverOptions};
use poisson::PoissonProblem;

use crate::job::SubmitError;

/// Scheduling class of a request; higher classes are always drained
/// first, FIFO within a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Batch work: runs when nothing better is queued.
    Low,
    /// The default class.
    Normal,
    /// Latency-sensitive work: jumps every queued Normal/Low job.
    High,
}

impl Priority {
    /// Queue index, highest class first.
    pub(crate) fn class(self) -> usize {
        match self {
            Self::High => 0,
            Self::Normal => 1,
            Self::Low => 2,
        }
    }

    /// Number of priority classes.
    pub(crate) const COUNT: usize = 3;
}

/// One solve request: the continuous problem, its placement, the solver
/// configuration, and the scheduling envelope.
#[derive(Clone)]
pub struct SolveRequest {
    /// The continuous Poisson problem to discretise and solve.
    pub problem: PoissonProblem,
    /// Process-grid decomposition; `[1, 1, 1]` solves in-process on the
    /// worker thread, anything larger spawns a ranks-as-threads world.
    pub decomp: [usize; 3],
    /// Solver configuration (Table I family).
    pub kind: SolverKind,
    /// Preconditioner tunables.
    pub opts: SolverOptions,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Outer iteration cap.
    pub max_iters: usize,
    /// Optional right-hand side override: the *global* RHS sampled on
    /// the unknown grid in x-fastest order (`discretize().unknowns()`
    /// values). `None` assembles the problem's own `rhs` closure. The
    /// warm path re-normalises and offloads only this vector.
    pub rhs: Option<Vec<f64>>,
    /// Scheduling class.
    pub priority: Priority,
    /// Drop the job unstarted if it is still queued this long after
    /// submission (deadline-based shedding). `None` never sheds.
    pub deadline: Option<Duration>,
    /// Execute under the full correctness harness: sanitized kernels
    /// ([`check::Checked`]) and verified communicators
    /// ([`check::VerifiedComm`]). Checked jobs always run cold (the
    /// harness owns its world) and any finding fails the job.
    pub checked: bool,
}

impl SolveRequest {
    /// A single-rank request with the default solver envelope: paper
    /// tolerances, `Normal` priority, no deadline, unchecked.
    pub fn new(problem: PoissonProblem, kind: SolverKind) -> Self {
        Self {
            problem,
            decomp: [1, 1, 1],
            kind,
            opts: SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            },
            tol: 1e-10,
            max_iters: 50_000,
            rhs: None,
            priority: Priority::Normal,
            deadline: None,
            checked: false,
        }
    }

    /// Total ranks of the decomposition.
    pub fn ranks(&self) -> usize {
        self.decomp.iter().product()
    }

    /// Refuse, before admission, a configuration the solver cannot run.
    pub(crate) fn validate(&self) -> Result<(), SubmitError> {
        let chebyshev = matches!(
            self.kind,
            SolverKind::BiCgsBjCi | SolverKind::BiCgsGCi | SolverKind::BiCgsGNoCommCi
        );
        if chebyshev && self.opts.ci_iterations == 0 {
            return Err(SubmitError::InvalidRequest(
                "a Chebyshev preconditioner needs ci_iterations >= 1",
            ));
        }
        Ok(())
    }
}
