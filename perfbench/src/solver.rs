//! The solver workloads: the paper problem at 128³ solved with
//! BiCGS-G(CI) on one rank, on two ranks, and on two ranks with the
//! mixed-precision preconditioner.

use std::time::{Duration, Instant};

use accel::{Recorder, Serial};
use blockgrid::Decomp;
use comm::{run_ranks_recorded, Communicator, ReduceOp, ReduceOrder, ThreadComm};
use krylov::{ChebyMode, SolveOutcome, SolveParams, SolverKind, SolverOptions};
use poisson::{assemble, paper_problem, PoissonSolver, SetupError};
use serde::Value;

use crate::report::{median, num, Report};
use crate::rng::Rng;

/// Bound on the relative L2 error against the manufactured solution at
/// 128³ (2.15e-7 measured in f64, 2.03e-7 with the f32 preconditioner).
const L2_BOUND_128: f64 = 2.5e-7;
/// Solver constructions timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Solves per run at least, so that `solve_s` is never a single sample.
const MIN_SOLVES: usize = 2;

/// One rank's solver as the workloads build it.
pub type Solver = PoissonSolver<f64, Serial, ThreadComm<f64>>;

/// A solver configuration on the paper problem.
#[derive(Clone, Copy, Debug)]
pub struct SolverWorkload {
    /// Mesh nodes per axis.
    pub nodes: usize,
    /// Ranks, split along x.
    pub ranks: usize,
    pub kind: SolverKind,
    pub mixed: bool,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Bound on the relative L2 error against the manufactured solution.
    pub l2_bound: f64,
}

pub const PAPER_1RANK: SolverWorkload = SolverWorkload {
    nodes: 128,
    ranks: 1,
    kind: SolverKind::BiCgsGCi,
    mixed: false,
    tol: 1e-10,
    l2_bound: L2_BOUND_128,
};
pub const GCI_2RANK: SolverWorkload = SolverWorkload {
    ranks: 2,
    ..PAPER_1RANK
};
pub const GCI_2RANK_MIXED: SolverWorkload = SolverWorkload {
    ranks: 2,
    mixed: true,
    ..PAPER_1RANK
};

impl SolverWorkload {
    pub fn decomp(&self) -> [usize; 3] {
        [self.ranks, 1, 1]
    }

    /// Solve parameters: the default schedule (fused kernels, overlapped
    /// halos and reductions).
    pub fn params(&self) -> SolveParams {
        SolveParams {
            tol: self.tol,
            max_iters: 50_000,
            record_history: false,
            ..Default::default()
        }
    }

    /// The Chebyshev flavour the preconditioner runs.
    pub fn cheby_mode(&self) -> ChebyMode {
        match self.kind {
            SolverKind::BiCgsGCi => ChebyMode::Global,
            SolverKind::BiCgsGNoCommCi => ChebyMode::GlobalNoComm,
            _ => ChebyMode::BlockJacobi,
        }
    }

    pub fn opts(&self) -> SolverOptions {
        SolverOptions {
            eig_min_factor: 10.0,
            mixed_precision: self.mixed,
            ..Default::default()
        }
    }
}

/// The seeded input: the paper right-hand side scaled by `2^k`,
/// `k ∈ [-8, 8]`. A power-of-two scale is exact in floating point and
/// the solver normalises the RHS, so every seed runs bitwise the same
/// iteration (and the same counts) while the solution comes back scaled.
pub fn rhs_scale(seed: u64) -> f64 {
    let k = Rng::new(seed ^ 0x5ca1e).range(0, 16) as i32 - 8;
    2f64.powi(k)
}

/// Build this rank's solver inside a world, timing `try_new` from a
/// common start. Returns the solver and the slowest rank's setup time.
pub fn timed_setup(w: &SolverWorkload, comm: ThreadComm<f64>) -> Result<(Solver, f64), SetupError> {
    comm.barrier();
    let t = Instant::now();
    let dev = Serial::new(comm.recorder().clone());
    let solver =
        PoissonSolver::try_new(paper_problem(w.nodes), Decomp::new(w.decomp()), dev, comm)?;
    let setup_s = max_over_ranks(&solver, t.elapsed().as_secs_f64());
    Ok((solver, setup_s))
}

/// Largest `v` over the ranks of `solver`'s world.
pub fn max_over_ranks(solver: &Solver, v: f64) -> f64 {
    let mut buf = [v];
    solver.ctx().comm.all_reduce(&mut buf, ReduceOp::Max);
    buf[0]
}

/// Install the seeded RHS on this rank.
pub fn install_rhs(solver: &mut Solver, scale: f64) -> Result<(), SetupError> {
    let rhs: Vec<f64> = assemble::local_rhs(solver.problem(), solver.grid())
        .into_iter()
        .map(|v| v * scale)
        .collect();
    solver.set_rhs(&rhs)
}

/// Relative L2 error of the solution against `scale` × the
/// manufactured solution (collective).
pub fn l2_error(solver: &Solver, scale: f64) -> f64 {
    let exact = assemble::local_exact(solver.problem(), solver.grid());
    let got = solver.solution_local();
    let (mut err, mut norm) = (0.0, 0.0);
    for (g, e) in got.iter().zip(&exact) {
        let d = g / scale - e;
        err += d * d;
        norm += e * e;
    }
    let mut sums = [err, norm];
    solver.ctx().comm.all_reduce(&mut sums, ReduceOp::Sum);
    (sums[0] / sums[1]).sqrt()
}

/// One checked solve, identical on every rank.
#[derive(Clone, Debug)]
pub struct Solved {
    /// Slowest rank's wall time of `PoissonSolver::solve`.
    pub wall_s: f64,
    pub outcome: SolveOutcome,
    pub l2: f64,
    /// Converged to the tolerance, no breakdown, L2 error under bound.
    pub ok: bool,
}

/// Solve from a zero guess; returns the outcome and the slowest rank's
/// wall time (collective).
pub fn timed_solve(solver: &mut Solver, w: &SolverWorkload) -> (SolveOutcome, f64) {
    solver.ctx().comm.barrier();
    let t = Instant::now();
    let outcome = solver.solve(w.kind, &w.opts(), &w.params());
    (outcome, max_over_ranks(solver, t.elapsed().as_secs_f64()))
}

/// Check a finished solve against its tolerance and the manufactured
/// solution (collective).
pub fn check(
    solver: &Solver,
    w: &SolverWorkload,
    scale: f64,
    outcome: SolveOutcome,
    wall_s: f64,
) -> Solved {
    let l2 = l2_error(solver, scale);
    let ok = outcome.converged
        && outcome.breakdown.is_none()
        && outcome.final_residual <= w.tol
        && l2 <= w.l2_bound;
    Solved {
        wall_s,
        outcome,
        l2,
        ok,
    }
}

/// [`timed_solve`] then [`check`].
pub fn checked_solve(solver: &mut Solver, w: &SolverWorkload, scale: f64) -> Solved {
    let (outcome, wall_s) = timed_solve(solver, w);
    check(solver, w, scale, outcome, wall_s)
}

/// Run `body` on every rank of a fresh world after a timed setup and
/// collect the per-rank results. `Err` when setup refused the input
/// (decided collectively, so on every rank).
pub fn in_world_all<R: Send>(
    w: &SolverWorkload,
    recorders: Vec<Recorder>,
    body: impl Fn(&mut Solver, f64) -> R + Sync,
) -> Result<Vec<R>, SetupError> {
    run_ranks_recorded::<f64, _, _>(w.ranks, ReduceOrder::RankOrder, recorders, |comm| {
        timed_setup(w, comm).map(|(mut solver, setup_s)| body(&mut solver, setup_s))
    })
    .into_iter()
    .collect()
}

/// [`in_world_all`], keeping rank 0's result.
pub fn in_world<R: Send>(
    w: &SolverWorkload,
    recorders: Vec<Recorder>,
    body: impl Fn(&mut Solver, f64) -> R + Sync,
) -> Result<R, SetupError> {
    in_world_all(w, recorders, body).map(|mut per_rank| per_rank.swap_remove(0))
}

/// The untraced run: `SETUP_REPEATS` timed setups, then checked solves
/// until the next one would overrun `deadline` (at least `MIN_SOLVES`).
pub fn run(w: &SolverWorkload, seed: u64, deadline: Instant, report: &mut Report) {
    let scale = rhs_scale(seed);
    let disabled = || vec![Recorder::disabled(); w.ranks];

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        match in_world(w, disabled(), |_, setup_s| setup_s) {
            Ok(s) => setups.push(s),
            Err(_) => report.check(false),
        }
    }
    let solves = in_world(w, disabled(), |solver, setup_s| {
        let mut solves = Vec::new();
        if install_rhs(solver, scale).is_err() {
            return (setup_s, solves);
        }
        loop {
            let s = checked_solve(solver, w, scale);
            // Another solve runs when one fits before the deadline; the
            // verdict is reduced so every rank leaves the loop together.
            let fits = Instant::now() + Duration::from_secs_f64(s.wall_s) <= deadline;
            let go = max_over_ranks(solver, if fits { 1.0 } else { 0.0 });
            solves.push(s);
            if go == 0.0 && solves.len() >= MIN_SOLVES {
                return (setup_s, solves);
            }
        }
    });
    let solves = match solves {
        Ok((setup_s, solves)) => {
            setups.push(setup_s);
            solves
        }
        Err(_) => Vec::new(),
    };
    if solves.is_empty() {
        report.check(false);
    }
    for s in &solves {
        report.check(s.ok);
    }

    let walls: Vec<f64> = solves.iter().map(|s| s.wall_s).collect();
    let n = solves.len();
    report.push("solve_s", "s", median(&walls), n);
    report.push("setup_s", "s", median(&setups), setups.len());
    if let Some(s) = solves.first() {
        report.note("outer_iters", Value::U64(s.outcome.iterations as u64));
        report.note("l2_error", num(s.l2));
        report.note("rhs_scale", num(scale));
    }
}
