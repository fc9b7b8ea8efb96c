//! Preconditioned Bi-CGSTAB (Alg. 3) on one or many right-hand sides.
//!
//! One driver runs every solve: [`bicgstab_solve`] is the one-lane call of
//! [`bicgstab_solve_batch`]. Each lane is its own Bi-CGSTAB instance; the
//! lanes share each full-grid sweep (one kernel launch strides all live
//! lanes), each halo exchange (one message per face) and each reduction
//! (one message carries every lane's scalars). An iteration is five
//! sweeps, two preconditioner applications, two halo exchanges and, with
//! [`SolveParams::overlap_reduce`] on (the default), two reduction
//! messages, the first posted split-phase:
//!
//! ```text
//! Preconditioner  MPI1+BCs  KernelBiCGS1 (w = A p̂ ⊕ σ = r̃ᵀw)
//!   M1: iall_reduce [σ, ‖r‖²_prev]  ∥  KernelBiCGS4 (x ← (x+α p̂)+ω r̂)  host α
//! KernelBiCGS2F (r −= αw ⊕ σ₃)   Preconditioner
//! MPI3+BCs  KernelBiCGS3F (t = A r̂ ⊕ σ₁,σ₂,σ₄)
//!   M2: reduce [σ₁,σ₂,σ₃,σ₄]                                          host ω, ρ, β
//! KernelBiCGS56 (r −= ωt ⊕ ‖r‖² ⊕ p ← r + β(p − ωw))
//! ```
//!
//! * **ρ by recurrence.** `ρ_{i+1} = r̃ᵀs − ω r̃ᵀt` (`s = r − αw`): the
//!   dots `σ₃ = r̃ᵀs`, `σ₄ = r̃ᵀt` ride in M2 *before* ω exists, which
//!   removes a third reduction. `‖r‖²` stays a direct dot (its recurrence
//!   cancels catastrophically near convergence).
//! * **Lagged convergence check.** `‖r_i‖²` rides iteration `i+1`'s M1
//!   and iteration `i`'s stopping decision is taken one iteration late, at
//!   the cost of one speculative preconditioner application. The merged
//!   x-update is deferred into the same window; its p̂ survives the next
//!   preconditioner application in `Workspace::p_hat_prev`.
//!
//! Every fused sweep keeps the row fold order of the unfused kernels it
//! replaces, so under a deterministic [`comm::ReduceOrder`] the iterates
//! are bitwise those of the textbook schedule in
//! [`bicgstab_reference`](crate::bicgstab_reference), the driver's oracle.
//!
//! Every lane carries the safety net: the drift guard
//! ([`SolveParams::true_residual_every`]), breakdown restarts
//! ([`SolveParams::max_restarts`]) and cancellation. A lane that
//! converges, is cancelled or breaks down for good *freezes*: it drops out
//! of kernels and halo payloads while its message slots carry zero, so the
//! other lanes' bits are untouched. Every decision is taken on reduced
//! values, so all ranks freeze, restart and sample the same lanes.
//!
//! The same routine is the *inner* solver of the `G(BiCGS)` and
//! `BJ(BiCGS)` preconditioners; [`Scope::Local`] skips every exchange and
//! reduction and restricts the operator to the subdomain block (Eq. 13).

use accel::{Device, Scalar, REDUCE_OVERLAP_STAGE};
use blockgrid::Field;
use comm::{Communicator, ReduceOp};
use stencil::apply_physical_bcs;

use crate::cancel::CancelToken;
use crate::ctx::{RankCtx, Workspace};
use crate::kernels::{
    axpy2_chained_batch, axpy2_chained_inplace, axpy_dot_batch, diff_norm2, norm2_axpy_batch,
    residual_p_update_fused_batch, residual_update_fused, INFO_BICGS1, INFO_BICGS2F, INFO_BICGS3F,
    INFO_BICGS4, INFO_BICGS5, INFO_BICGS56, INFO_DOT, INFO_NORM2AXPY,
};
use crate::precond::Preconditioner;

/// Whether the solve is the global problem or a subdomain-restricted one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Global system: halo exchanges and `MPI_Allreduce` reductions.
    Global,
    /// Block-restricted system `R_s A R_sᵀ x = R_s b`: communication-free,
    /// local reductions only (inner solver of `BJ(BiCGS)`).
    Local,
}

/// Stopping parameters of one Bi-CGSTAB solve.
#[derive(Clone, Debug)]
pub struct SolveParams {
    /// Absolute tolerance on the residual 2-norm (the caller normalises
    /// the RHS, making this a relative tolerance as in the paper).
    pub tol: f64,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Record the residual-norm history (Figs. 2–4).
    pub record_history: bool,
    /// Every `k` outer iterations recompute the *true* residual
    /// `‖b − A x‖` (one extra exchange + sweep + reduction) and use it
    /// for the convergence decision; `0` disables. Guards against the
    /// recursive-residual drift inherent to BiCGStab's non-monotone
    /// updates (visible in the paper's Fig. 2).
    pub true_residual_every: usize,
    /// On a ρ/ω breakdown, restart with a fresh shadow residual
    /// (`r̃ = r`, recomputed true residual) up to this many times before
    /// reporting the breakdown.
    pub max_restarts: usize,
    /// Ship the per-iteration reductions as two batched messages, the
    /// first split-phase (see the module docs), instead of three blocking
    /// ones. Under a deterministic reduction order the iterates, history
    /// and stopping decisions are bitwise-identical either way: the
    /// element-wise fold is oblivious to grouping. Effective only in
    /// [`Scope::Global`] on >1 rank (elsewhere reductions are free and
    /// lagging would waste a preconditioner application).
    pub overlap_reduce: bool,
    /// Cooperative cancellation flag, polled collectively once per outer
    /// iteration (see [`CancelToken`]); in a batched solve it cancels
    /// every lane. `None` adds no messages; with `overlap_reduce` active
    /// neither does a token — its flag rides the M1 batch.
    pub cancel: Option<CancelToken>,
}

impl Default for SolveParams {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iters: 10_000,
            record_history: true,
            true_residual_every: 0,
            max_restarts: 0,
            overlap_reduce: true,
            cancel: None,
        }
    }
}

/// Why a solve stopped before converging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Breakdown {
    /// `r̃ᵀ A p̂` vanished (α undefined).
    PSumZero,
    /// `ρ` vanished (β undefined).
    RhoZero,
    /// `ω` vanished with a non-converged residual (stagnation).
    OmegaZero,
    /// A non-finite value appeared (overflow / NaN).
    NonFinite,
}

/// Outcome of one solve; identical on every rank in [`Scope::Global`].
#[derive(Clone, Debug, Default)]
pub struct SolveOutcome {
    /// `true` if the residual tolerance was met.
    pub converged: bool,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Total preconditioner sweeps across all applications.
    pub prec_iterations: u64,
    /// Residual 2-norm per outer iteration, starting with `‖r_0‖`.
    pub residual_history: Vec<f64>,
    /// Final residual 2-norm.
    pub final_residual: f64,
    /// Breakdown cause, if any.
    pub breakdown: Option<Breakdown>,
    /// Number of shadow-residual restarts taken (see
    /// [`SolveParams::max_restarts`]).
    pub restarts: usize,
    /// `(iteration, ‖b − A x‖)` samples when
    /// [`SolveParams::true_residual_every`] is active.
    pub true_residuals: Vec<(usize, f64)>,
    /// `true` when the solve stopped because its [`CancelToken`] fired
    /// (the iterate is valid up to the last completed iteration).
    pub cancelled: bool,
}

impl SolveOutcome {
    /// Mean preconditioner sweeps per outer iteration (Table II column).
    pub fn prec_per_outer(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.prec_iterations as f64 / self.iterations as f64
        }
    }

    /// Clear for a new solve, keeping the vectors' capacity.
    fn reset(&mut self) {
        self.residual_history.clear();
        self.true_residuals.clear();
        *self = Self {
            residual_history: std::mem::take(&mut self.residual_history),
            true_residuals: std::mem::take(&mut self.true_residuals),
            ..Self::default()
        };
    }
}

/// Refresh ghost layers of several lanes for an operator application in
/// `scope`: one batched halo exchange carrying every lane's face planes
/// per message, then the per-lane physical-BC kernels.
pub(crate) fn refresh_ghosts_many<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    fields: &mut [&mut Field<T>],
) {
    if scope == Scope::Global {
        ctx.recorder.stage(stage, || {
            ctx.halo.exchange_batch(&ctx.dev, &ctx.comm, fields)
        });
    }
    for f in fields.iter_mut() {
        apply_physical_bcs(&ctx.grid, f, &ctx.recorder, scope == Scope::Local);
    }
}

/// Sum `vals` across ranks in [`Scope::Global`] (one message); local
/// identity otherwise.
pub(crate) fn global_sum<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    vals: &mut [T],
) {
    if scope == Scope::Global {
        ctx.recorder
            .stage(stage, || ctx.comm.reduce_batch(&mut [vals], ReduceOp::Sum));
    }
}

/// Solve `A x = b` with preconditioned Bi-CGSTAB (Alg. 3): the one-lane
/// call of [`bicgstab_solve_batch`].
///
/// `x` holds the initial guess on entry and the solution on exit.
/// In [`Scope::Global`] the outcome is identical on every rank (all
/// stopping decisions are made on allreduced quantities).
pub fn bicgstab_solve<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    b: &Field<T>,
    x: &mut Field<T>,
    prec: &mut P,
    ws: &mut Workspace<T>,
    params: &SolveParams,
) -> SolveOutcome
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    let mut out = [SolveOutcome::default()];
    let ws = std::slice::from_mut(ws);
    bicgstab_solve_batch(
        ctx,
        scope,
        &[b],
        &mut [x],
        &mut [prec],
        ws,
        params,
        &[],
        &mut out,
    );
    let [out] = out;
    out
}

/// Solve `A x_b = b_b` for a batch of right-hand sides, one Bi-CGSTAB
/// lane per right-hand side (see the module docs), writing lane `b`'s
/// outcome to `outs[b]`.
///
/// Lane `b`'s iterates, residual history and stopping decisions are
/// **bitwise identical** to `bicgstab_solve(ctx, scope, bs[b], xs[b],
/// precs[b], …, params)` under a deterministic [`comm::ReduceOrder`]:
/// batching only regroups which scalars share a message and which sweep
/// covers a row. The reduction messages per iteration stay two
/// (overlapped) or three (blocking) whatever the batch width.
///
/// `ws` holds one workspace per lane (a wider cache is fine); the first
/// keeps the batch's host-side state between solves, so a repeated solve
/// allocates nothing. [`SolveParams::cancel`] cancels every lane; `cancels`
/// is empty or one optional token per lane. Every rank must pass the same
/// batch width.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_solve_batch<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    bs: &[&Field<T>],
    xs: &mut [&mut Field<T>],
    precs: &mut [&mut P],
    ws: &mut [Workspace<T>],
    params: &SolveParams,
    cancels: &[Option<CancelToken>],
    outs: &mut [SolveOutcome],
) where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    let nb = bs.len();
    assert!(
        xs.len() == nb && precs.len() == nb && outs.len() == nb && ws.len() >= nb,
        "one iterate, preconditioner, outcome and workspace per right-hand side"
    );
    assert!(
        cancels.is_empty() || cancels.len() == nb,
        "cancels must be empty or carry one optional token per lane"
    );
    if nb == 0 {
        return;
    }
    outs.iter_mut().for_each(SolveOutcome::reset);
    let mut scratch = std::mem::take(&mut ws[0].scratch);
    scratch.lanes.clear();
    scratch.lanes.resize(nb, Lane::default());
    scratch.s.clear();
    scratch.s.resize(SLOTS * nb, T::ZERO);
    let LaneScratch { lanes, s, lists } = &mut scratch;
    let ws = &mut ws[..nb];
    // Reduction overlap is gated to real multi-rank worlds: on one rank
    // reductions are free and the lag would only spend an extra
    // preconditioner application per solve.
    let lag = params.overlap_reduce && scope == Scope::Global && ctx.comm.size() > 1;
    Run {
        ctx,
        scope,
        params,
        lag,
        bs,
        xs,
        ws,
        outs,
        lanes,
        s,
        lists,
    }
    .drive(precs, cancels);
    ws[0].scratch = scratch;
}

/// Scalars per lane in [`LaneScratch::s`], laid out by lane within each
/// group: `[0, 4B)` message slots (M1 `[σ | ‖r‖²_prev | cancel]`, then M2
/// `[σ₁ | σ₂ | σ₃ | σ₄]`), `[4B, 5B)` the norm slots (ρ₀, ‖r‖², the
/// true residual or the cancel poll), `[5B, 8B)` per-launch accumulators
/// and coefficients.
const SLOTS: usize = 8;

/// Host-side state of the lane driver. It lives in the first lane's
/// [`Workspace`] between solves, so a repeated solve of the same width
/// reuses every buffer.
#[derive(Default)]
pub(crate) struct LaneScratch<T> {
    lanes: Vec<Lane<T>>,
    s: Vec<T>,
    lists: Lists,
}

/// The recurrence state of one lane.
#[derive(Clone, Copy, Default)]
struct Lane<T> {
    rho: T,
    alpha: T,
    omega: T,
    beta: T,
    /// `(i, ‖r_i‖²_local, ω_i, α_i)`: iteration i's not-yet-reduced
    /// norm and deferred merged x-update, completed under the next M1.
    lag: Option<(usize, T, T, T)>,
    /// Iteration whose stopping ladder is due; its global `‖r‖²` sits in
    /// the lane's norm slot.
    due: Option<usize>,
    /// A breakdown this iteration: the lane sits out the rest of the
    /// iteration, then restarts or stops.
    broke: Option<Breakdown>,
    /// Converged, cancelled or broken down for good.
    frozen: bool,
}

impl<T: Copy> Lane<T> {
    /// Takes part in the rest of the current iteration's kernels.
    fn live(&self) -> bool {
        !self.frozen && self.broke.is_none()
    }

    /// `(α, ω)` of the lagged iteration's deferred merged x-update.
    fn deferred(&self) -> Option<(T, T)> {
        self.lag.map(|(_, _, omega, alpha)| (alpha, omega))
    }
}

/// `items` (one per lane) zipped with their lanes, keeping the lanes
/// `pick` selects — the lane order every batched launch lists them in.
fn picked<'l, I: Iterator, T: 'l>(
    items: I,
    lanes: &'l [Lane<T>],
    pick: impl Fn(&Lane<T>) -> bool + 'l,
) -> impl Iterator<Item = (I::Item, &'l Lane<T>)> {
    items.zip(lanes).filter(move |(_, l)| pick(l))
}

/// Spread the accumulators of a launch over the lanes `pick` selected
/// (one `[T; K]` per lane, in lane order): component `k` of lane `b`
/// lands in `slots[groups[k] * B + b]`.
fn scatter<T: Copy, const K: usize>(
    lanes: &[Lane<T>],
    pick: impl Fn(&Lane<T>) -> bool,
    accs: &[[T; K]],
    slots: &mut [T],
    groups: [usize; K],
) {
    for ((b, _), a) in picked(0..lanes.len(), lanes, pick).zip(accs) {
        for (g, v) in groups.iter().zip(a) {
            slots[g * lanes.len() + b] = *v;
        }
    }
}

/// The lane lists of one batched launch: up to two output and three
/// input slices per lane.
struct LaneLists<'l, T> {
    out: Vec<&'l mut [T]>,
    out2: Vec<&'l mut [T]>,
    in0: Vec<&'l [T]>,
    in1: Vec<&'l [T]>,
    in2: Vec<&'l [T]>,
}

/// Buffers behind the lane lists handed to batched kernels and
/// exchanges. A list borrows lane fields for one launch only; between
/// launches its buffer is parked here with the borrows erased, so lists
/// are rebuilt every launch without touching the heap.
#[derive(Default)]
struct Lists {
    slices: [Vec<[usize; 2]>; 5],
    fields: Vec<usize>,
}

/// Hand `v`'s buffer to a list of another element type with the same
/// layout: collecting a `vec::IntoIter` reuses its allocation in place.
fn recycle<A, B>(mut v: Vec<A>) -> Vec<B> {
    v.clear();
    // LINT: alloc-ok(in-place collect into the emptied buffer, no allocation)
    v.into_iter().map(|_| unreachable!()).collect()
}

impl Lists {
    fn lend<'l, T>(&mut self) -> LaneLists<'l, T> {
        let [a, b, c, d, e] = std::mem::take(&mut self.slices);
        let (out, out2) = (recycle(a), recycle(b));
        let (in0, in1, in2) = (recycle(c), recycle(d), recycle(e));
        LaneLists {
            out,
            out2,
            in0,
            in1,
            in2,
        }
    }

    fn park<T>(&mut self, l: LaneLists<'_, T>) {
        let (a, b) = (recycle(l.out), recycle(l.out2));
        self.slices = [a, b, recycle(l.in0), recycle(l.in1), recycle(l.in2)];
    }
}

/// Selects one field of a lane's workspace.
type FieldOf<T> = fn(&mut Workspace<T>) -> &mut Field<T>;
/// Selects the right-hand side and result of a preconditioner application.
type PrecFields<T> = fn(&mut Workspace<T>) -> (&mut Field<T>, &mut Field<T>);

/// One lane-driver solve: the borrowed inputs and the lane state every
/// step touches.
struct Run<'a, 'x, T: Scalar, D: Device, C: Communicator<T>> {
    ctx: &'a RankCtx<T, D, C>,
    scope: Scope,
    params: &'a SolveParams,
    /// The overlapped (lagged) schedule is active.
    lag: bool,
    bs: &'a [&'a Field<T>],
    xs: &'a mut [&'x mut Field<T>],
    ws: &'a mut [Workspace<T>],
    outs: &'a mut [SolveOutcome],
    lanes: &'a mut [Lane<T>],
    s: &'a mut [T],
    lists: &'a mut Lists,
}

impl<T: Scalar, D: Device, C: Communicator<T>> Run<'_, '_, T, D, C> {
    fn nb(&self) -> usize {
        self.lanes.len()
    }

    fn norm(&mut self) -> &mut [T] {
        let nb = self.nb();
        &mut self.s[4 * nb..5 * nb]
    }

    fn any(&self, pick: impl Fn(&Lane<T>) -> bool) -> bool {
        self.lanes.iter().any(pick)
    }

    fn stop(&mut self, b: usize, kind: Breakdown) {
        self.outs[b].breakdown = Some(kind);
        self.lanes[b].frozen = true;
    }

    fn cancel(&mut self, b: usize, iterations: usize) {
        self.outs[b].cancelled = true;
        self.outs[b].iterations = iterations;
        self.lanes[b].frozen = true;
    }

    /// Take the stopping decision of lane `b` on residual norm `res`:
    /// record it, then stop the lane at iteration `j` if it is non-finite
    /// or below the tolerance. Returns whether the lane stopped.
    fn settle(&mut self, b: usize, j: usize, res: f64, record: bool) -> bool {
        let out = &mut self.outs[b];
        out.final_residual = res;
        if record && self.params.record_history {
            out.residual_history.push(res);
        }
        if !res.is_finite() {
            out.breakdown = Some(Breakdown::NonFinite);
        } else if res < self.params.tol {
            out.converged = true;
        } else {
            return false;
        }
        out.iterations = j;
        self.lanes[b].frozen = true;
        true
    }

    /// Solve `M out = rhs` per live lane (preconditioners are per-lane
    /// state; the lane order is fixed, so collectives inside a
    /// communicating preconditioner stay rank-uniform).
    fn precondition<P>(&mut self, precs: &mut [&mut P], fields: PrecFields<T>)
    where
        P: Preconditioner<T, D, C> + ?Sized,
    {
        let ctx = self.ctx;
        for (b, prec) in precs.iter_mut().enumerate() {
            if self.lanes[b].live() {
                let (rhs, out) = fields(&mut self.ws[b]);
                let sweeps = ctx
                    .recorder
                    .stage("Preconditioner", || prec.apply(ctx, rhs, out));
                self.outs[b].prec_iterations += sweeps as u64;
            }
        }
    }

    /// Refresh the ghosts of one field of every lane `pick` selects (one
    /// batched message per face): `field` of its workspace, or its iterate.
    fn exchange(
        &mut self,
        stage: &'static str,
        pick: impl Fn(&Lane<T>) -> bool,
        field: Option<FieldOf<T>>,
    ) {
        let mut fields: Vec<&mut Field<T>> = recycle(std::mem::take(&mut self.lists.fields));
        for ((x, w), _) in picked(self.xs.iter_mut().zip(self.ws.iter_mut()), self.lanes, pick) {
            fields.push(field.map_or(&mut **x, |field| field(w)));
        }
        refresh_ghosts_many(self.ctx, self.scope, stage, &mut fields);
        self.lists.fields = recycle(fields);
    }

    /// `r = b − A x`, `r̃ = p = r` and `ρ = ‖r‖²` for the lanes `pick`
    /// selects (setup and restarts): one batched exchange, one batched
    /// KernelNorm2Axpy sweep and one reduction (`r̃ = r` elementwise, so
    /// the fused norm is the same sequence of products as `r̃ᵀr`).
    fn residuals(&mut self, pick: impl Fn(&Lane<T>) -> bool + Copy) {
        let (ctx, nb) = (self.ctx, self.nb());
        self.exchange("MPI0", pick, None);
        let mut l = self.lists.lend();
        let lanes = self.xs.iter().zip(self.ws.iter_mut()).zip(self.bs);
        for (((x, w), b), _) in picked(lanes, self.lanes, pick) {
            ctx.lap.apply(&ctx.dev, stencil::INFO_APPLY, x, &mut w.w);
            l.out.push(w.r.as_mut_slice());
            l.in0.push(b.as_slice());
            l.in1.push(w.w.as_slice());
        }
        let (norm, accs) = self.s[4 * nb..].split_at_mut(nb);
        let accs = accs[..l.out.len()].as_chunks_mut::<1>().0;
        norm2_axpy_batch(
            &ctx.dev,
            INFO_NORM2AXPY,
            &ctx.grid,
            &mut l.out,
            &l.in0,
            &l.in1,
            accs,
        );
        self.lists.park(l);
        norm.fill(T::ZERO);
        scatter(self.lanes, pick, accs, norm, [0]);
        for (w, _) in picked(self.ws.iter_mut(), self.lanes, pick) {
            w.r0t.copy_from(&w.r);
            w.p.copy_from(&w.r);
        }
        global_sum(ctx, self.scope, "MPI0", norm);
        for (l, &rho) in self.lanes.iter_mut().zip(norm.iter()) {
            if pick(l) {
                l.rho = rho;
            }
        }
    }

    /// Take the stopping ladder of every lane whose iteration `j` is due,
    /// its global `‖r_j‖²` in the lane's norm slot: non-finite → converged
    /// → drift guard. Every `true_residual_every` iterations the guard
    /// forms the true residual `‖b − A x‖` — for all sampled lanes with
    /// one batched exchange and one reduction — and lets it decide
    /// convergence too (the recursive residual can decouple from it in
    /// long stagnating solves).
    fn finish_due(&mut self) {
        let (ctx, nb, every) = (self.ctx, self.nb(), self.params.true_residual_every);
        for b in 0..nb {
            let Some(j) = self.lanes[b].due else { continue };
            let res = self.s[4 * nb + b].to_f64().max(0.0).sqrt();
            if self.settle(b, j, res, true) || every == 0 || j % every != 0 {
                self.lanes[b].due = None;
            }
        }
        if !self.any(|l| l.due.is_some()) {
            return;
        }
        self.exchange("MPI6", |l| l.due.is_some(), None);
        for (b, slot) in self.s[4 * nb..5 * nb].iter_mut().enumerate() {
            *slot = T::ZERO;
            if self.lanes[b].due.is_some() {
                let (x, w) = (&*self.xs[b], &mut self.ws[b]);
                ctx.lap.apply(&ctx.dev, stencil::INFO_APPLY, x, &mut w.t);
                *slot = diff_norm2(&ctx.dev, INFO_DOT, &ctx.grid, self.bs[b], &w.t);
            }
        }
        global_sum(ctx, self.scope, "MPI6", self.norm());
        for b in 0..nb {
            let Some(j) = self.lanes[b].due.take() else {
                continue;
            };
            let tres = self.s[4 * nb + b].to_f64().max(0.0).sqrt();
            self.outs[b].true_residuals.push((j, tres));
            if tres < self.params.tol {
                self.settle(b, j, tres, false);
            }
        }
    }

    /// Merged KernelBiCGS4, `x ← (x + α p̂) + ω r̂`, in one batched sweep
    /// for every lane `coef` gives `(α, ω)`; `p_hat` picks the lane's p̂
    /// (`p_hat_prev` for an update deferred past the next preconditioner
    /// application).
    fn update_iterates(
        &mut self,
        coef: impl Fn(&Lane<T>) -> Option<(T, T)>,
        p_hat: fn(&Workspace<T>) -> &Field<T>,
    ) {
        let (ctx, nb) = (self.ctx, self.nb());
        let (alphas, omegas) = self.s[5 * nb..7 * nb].split_at_mut(nb);
        let mut l = self.lists.lend();
        let lanes = self.lanes.iter();
        for ((x, w), lane) in self.xs.iter_mut().zip(self.ws.iter()).zip(lanes) {
            let Some((alpha, omega)) = coef(lane) else {
                continue;
            };
            (alphas[l.out.len()], omegas[l.out.len()]) = (alpha, omega);
            l.out.push(x.as_mut_slice());
            l.in0.push(p_hat(w).as_slice());
            l.in1.push(w.r_hat.as_slice());
        }
        let (n, grid) = (l.out.len(), &ctx.grid);
        let (alphas, omegas) = (&alphas[..n], &omegas[..n]);
        axpy2_chained_batch(
            &ctx.dev,
            INFO_BICGS4,
            grid,
            &mut l.out,
            &l.in0,
            alphas,
            &l.in1,
            omegas,
        );
        self.lists.park(l);
    }

    /// MPI1 + BCs, then KernelBiCGS1: `w = A p̂ ⊕ σ = r̃ᵀw` per live lane,
    /// σ landing in the first message group.
    fn sigma(&mut self) {
        let (ctx, nb) = (self.ctx, self.nb());
        self.exchange("MPI1", Lane::live, Some(|w| &mut w.p_hat));
        let mut l = self.lists.lend();
        for (w, _) in picked(self.ws.iter_mut(), self.lanes, Lane::live) {
            l.in0.push(w.p_hat.as_slice());
            l.out.push(w.w.as_mut_slice());
            l.in1.push(w.r0t.as_slice());
        }
        let (msg, rest) = self.s.split_at_mut(4 * nb);
        let accs = rest[nb..nb + l.out.len()].as_chunks_mut::<1>().0;
        ctx.lap
            .apply_fused_dot_batch(&ctx.dev, INFO_BICGS1, &l.in0, &mut l.out, &l.in1, accs);
        self.lists.park(l);
        msg[..nb].fill(T::ZERO);
        scatter(self.lanes, Lane::live, accs, msg, [0]);
    }

    /// M1 of the overlapped schedule: σ per lane, batched with the lagged
    /// `‖r‖²` of the previous iteration and the cancel flags (when a token
    /// is installed), posted split-phase so the deferred merged x-updates
    /// compute while the message is in flight. Then the lagged lanes take
    /// iteration i−1's stopping decisions, one message late, and flagged
    /// lanes cancel at the iteration boundary the x-update just completed.
    fn m1(&mut self, i: usize, flags: Option<&dyn Fn(usize) -> bool>) {
        let (ctx, nb) = (self.ctx, self.nb());
        let any_lag = self.any(|l| l.lag.is_some());
        let mut len = nb;
        if any_lag {
            for (slot, l) in self.s[len..len + nb].iter_mut().zip(self.lanes.iter()) {
                *slot = l.lag.map_or(T::ZERO, |lag| lag.1);
            }
            len += nb;
        }
        if let Some(fired) = flags {
            for b in 0..nb {
                let on = self.lanes[b].live() && fired(b);
                self.s[len + b] = if on { T::ONE } else { T::ZERO };
            }
            len += nb;
        }
        ctx.recorder.begin(REDUCE_OVERLAP_STAGE);
        let req = ctx.comm.iall_reduce_many(&self.s[..len], ReduceOp::Sum);
        if any_lag {
            self.update_iterates(Lane::deferred, |w| &w.p_hat_prev);
        }
        ctx.comm.reduce_finish_many(req, &mut self.s[..len]);
        ctx.recorder.end(REDUCE_OVERLAP_STAGE);
        if any_lag {
            for b in 0..nb {
                if let Some((j, ..)) = self.lanes[b].lag.take() {
                    self.s[4 * nb + b] = self.s[nb + b];
                    self.lanes[b].due = Some(j);
                }
            }
            self.finish_due();
        }
        if flags.is_some() {
            for b in 0..nb {
                if self.lanes[b].live() && self.s[len - nb + b] != T::ZERO {
                    self.cancel(b, i - 1);
                }
            }
        }
    }

    /// The rest of iteration `i` after α: KernelBiCGS2F, `M r̂ = r`,
    /// MPI3 + KernelBiCGS3F, M2, then ω, ρ by recurrence and β per lane,
    /// and KernelBiCGS56 for the healthy lanes. A lane whose ρ or ω
    /// vanished has no β: it finishes the iteration eagerly with the plain
    /// residual update and the merged x sweep, then takes its ladder.
    fn omega_step<P>(&mut self, i: usize, precs: &mut [&mut P])
    where
        P: Preconditioner<T, D, C> + ?Sized,
    {
        let (ctx, nb) = (self.ctx, self.nb());
        let (dev, grid) = (&ctx.dev, &ctx.grid);
        self.s[..5 * nb].fill(T::ZERO);
        // KernelBiCGS2F: r ← r − α w ⊕ σ₃ = r̃ᵀs (first half of the ρ
        // recurrence).
        let mut l = self.lists.lend();
        let (msg, rest) = self.s.split_at_mut(4 * nb);
        let (coefs, accs) = rest[nb..].split_at_mut(nb);
        for (w, lane) in picked(self.ws.iter_mut(), self.lanes, Lane::live) {
            coefs[l.out.len()] = -lane.alpha;
            l.out.push(w.r.as_mut_slice());
            l.in0.push(w.w.as_slice());
            l.in1.push(w.r0t.as_slice());
        }
        let n = l.out.len();
        let (coefs, accs) = (&coefs[..n], accs[..n].as_chunks_mut::<1>().0);
        axpy_dot_batch(
            dev,
            INFO_BICGS2F,
            grid,
            &mut l.out,
            &l.in0,
            coefs,
            &l.in1,
            accs,
        );
        self.lists.park(l);
        scatter(self.lanes, Lane::live, accs, msg, [2]);

        // M r̂ = r, MPI3 + BCs, then KernelBiCGS3F: t = A r̂ ⊕ σ₁ = tᵀr,
        // σ₂ = tᵀt, σ₄ = r̃ᵀt.
        self.precondition(precs, |w| (&mut w.r, &mut w.r_hat));
        self.exchange("MPI3", Lane::live, Some(|w| &mut w.r_hat));
        let mut l = self.lists.lend();
        for (w, _) in picked(self.ws.iter_mut(), self.lanes, Lane::live) {
            l.in0.push(w.r_hat.as_slice());
            l.out.push(w.t.as_mut_slice());
            l.in1.push(w.r.as_slice());
            l.in2.push(w.r0t.as_slice());
        }
        let (msg, rest) = self.s.split_at_mut(4 * nb);
        let accs = rest[nb..nb + 3 * l.out.len()].as_chunks_mut::<3>().0;
        ctx.lap
            .apply_fused_dot3_batch(dev, INFO_BICGS3F, &l.in0, &mut l.out, &l.in1, &l.in2, accs);
        self.lists.park(l);
        scatter(self.lanes, Lane::live, accs, msg, [0, 1, 3]);

        // M2: the four scalar groups of every lane in one blocking message
        // (nothing is left to hide under it).
        global_sum(ctx, self.scope, "MPI4", &mut self.s[..4 * nb]);
        for b in 0..nb {
            if !self.lanes[b].live() {
                continue;
            }
            let [p1, p2, c3, c4] = [0, 1, 2, 3].map(|g| self.s[g * nb + b]);
            if !(p1.is_finite() && p2.is_finite()) {
                self.stop(b, Breakdown::NonFinite);
                continue;
            }
            // t = 0 only when r is (numerically) zero; ω = 0 keeps the
            // update well-defined and the convergence check decides.
            let omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
            let rho_new = c3 - omega * c4;
            let lane = &mut self.lanes[b];
            lane.omega = omega;
            if rho_new != T::ZERO && omega != T::ZERO {
                lane.beta = (rho_new / lane.rho) * (lane.alpha / omega);
                lane.rho = rho_new;
                continue;
            }
            let kind = if rho_new == T::ZERO {
                Breakdown::RhoZero
            } else {
                Breakdown::OmegaZero
            };
            (lane.broke, lane.due) = (Some(kind), Some(i));
            let (alpha, w) = (lane.alpha, &mut self.ws[b]);
            let (_, rn) =
                residual_update_fused(dev, INFO_BICGS5, grid, &mut w.r, &w.t, omega, &w.r0t);
            axpy2_chained_inplace(
                dev,
                INFO_BICGS4,
                grid,
                self.xs[b],
                &w.p_hat,
                alpha,
                &w.r_hat,
                omega,
            );
            self.s[4 * nb + b] = rn;
        }

        // KernelBiCGS56: r ← r − ω t ⊕ ‖r‖² ⊕ p ← r + β (p − ω w). The
        // direct ‖r‖² is kept — ρ already came from the recurrence.
        if self.any(Lane::live) {
            let mut l = self.lists.lend();
            let (norm, rest) = self.s[4 * nb..].split_at_mut(nb);
            let (omegas, rest) = rest.split_at_mut(nb);
            let (betas, accs) = rest.split_at_mut(nb);
            for (w, lane) in picked(self.ws.iter_mut(), self.lanes, Lane::live) {
                (omegas[l.out.len()], betas[l.out.len()]) = (lane.omega, lane.beta);
                l.out.push(w.r.as_mut_slice());
                l.out2.push(w.p.as_mut_slice());
                l.in0.push(w.t.as_slice());
                l.in1.push(w.w.as_slice());
            }
            let n = l.out.len();
            let (omegas, betas, accs) =
                (&omegas[..n], &betas[..n], accs[..n].as_chunks_mut::<1>().0);
            let (r, p) = (&mut l.out, &mut l.out2);
            residual_p_update_fused_batch(
                dev,
                INFO_BICGS56,
                grid,
                r,
                p,
                &l.in0,
                &l.in1,
                omegas,
                betas,
                accs,
            );
            self.lists.park(l);
            let live = self
                .lanes
                .iter_mut()
                .zip(self.ws.iter_mut())
                .zip(norm.iter_mut());
            for (((lane, w), slot), a) in live.filter(|((l, _), _)| l.live()).zip(accs.iter()) {
                if self.lag {
                    // Defer the merged x-update and the stopping decision
                    // into the next M1 window; keep this p̂ alive across
                    // the next preconditioner application.
                    lane.lag = Some((i, a[0], lane.omega, lane.alpha));
                    std::mem::swap(&mut w.p_hat, &mut w.p_hat_prev);
                } else {
                    (*slot, lane.due) = (a[0], Some(i));
                }
            }
            if !self.lag {
                self.update_iterates(|l| l.live().then_some((l.alpha, l.omega)), |w| &w.p_hat);
            }
        }
        if self.any(|l| l.due.is_some()) {
            global_sum(ctx, self.scope, "MPI5", self.norm());
            self.finish_due();
        }
    }

    /// Restart every lane that broke down this iteration from its
    /// current iterate with a fresh shadow residual (`r̃ = r`), or stop it
    /// once its restart budget is spent.
    fn restart(&mut self) {
        for b in 0..self.nb() {
            let Some(kind) = self.lanes[b].broke else {
                continue;
            };
            if self.lanes[b].frozen || self.outs[b].restarts == self.params.max_restarts {
                self.lanes[b].broke = None;
                if !self.lanes[b].frozen {
                    self.stop(b, kind);
                }
            } else {
                self.outs[b].restarts += 1;
            }
        }
        if self.any(|l| l.broke.is_some()) {
            self.residuals(|l| l.broke.is_some());
            for b in 0..self.nb() {
                if self.lanes[b].broke.take().is_some() {
                    let res = self.lanes[b].rho.to_f64().max(0.0).sqrt();
                    self.outs[b].final_residual = res;
                    if res < self.params.tol {
                        self.outs[b].converged = true;
                        self.lanes[b].frozen = true;
                    }
                }
            }
        }
    }

    /// The whole solve: setup, outer iterations, lag drain.
    fn drive<P>(&mut self, precs: &mut [&mut P], cancels: &[Option<CancelToken>])
    where
        P: Preconditioner<T, D, C> + ?Sized,
    {
        let (ctx, scope, params, nb) = (self.ctx, self.scope, self.params, self.nb());
        let fired = |b: usize| {
            let lane = cancels.get(b).and_then(Option::as_ref);
            let fired = |t: Option<&CancelToken>| t.is_some_and(CancelToken::is_cancelled);
            fired(params.cancel.as_ref()) || fired(lane)
        };
        let tokens = params.cancel.is_some() || cancels.iter().any(Option::is_some);
        let flags: Option<&dyn Fn(usize) -> bool> = tokens.then_some(&fired);

        // Setup (MPI0): r_0 = b − A x_0, r̃ = p_0 = r_0, ρ_0 = ‖r_0‖².
        self.residuals(|_| true);
        for b in 0..nb {
            let res0 = self.lanes[b].rho.to_f64().max(0.0).sqrt();
            let out = &mut self.outs[b];
            out.final_residual = res0;
            if params.record_history {
                out.residual_history.push(res0);
            }
            out.converged = res0 < params.tol;
            self.lanes[b].frozen = out.converged;
        }

        for i in 1..=params.max_iters {
            // Cooperative cancellation, decided collectively so every rank
            // freezes the same lanes. The blocking poll exists only with a
            // token installed; the overlapped schedule samples the flags
            // into M1 instead.
            if !self.lag && tokens && self.any(|l| !l.frozen) {
                for b in 0..nb {
                    let on = !self.lanes[b].frozen && fired(b);
                    self.s[4 * nb + b] = if on { T::ONE } else { T::ZERO };
                }
                global_sum(ctx, scope, "MPIC", self.norm());
                for b in 0..nb {
                    if !self.lanes[b].frozen && self.s[4 * nb + b] != T::ZERO {
                        self.cancel(b, i - 1);
                    }
                }
            }
            if !self.any(|l| !l.frozen) {
                break;
            }
            for (out, _) in picked(self.outs.iter_mut(), self.lanes, Lane::live) {
                out.iterations = i;
            }
            self.precondition(precs, |w| (&mut w.p, &mut w.p_hat));
            self.sigma();
            if self.lag {
                self.m1(i, flags);
            } else {
                global_sum(ctx, scope, "MPI2", &mut self.s[..nb]);
            }
            for b in 0..nb {
                let psum = self.s[b];
                if !self.lanes[b].live() {
                    continue;
                } else if !psum.is_finite() {
                    self.stop(b, Breakdown::NonFinite);
                } else if psum == T::ZERO {
                    self.lanes[b].broke = Some(Breakdown::PSumZero);
                } else {
                    self.lanes[b].alpha = self.lanes[b].rho / psum;
                }
            }
            if self.any(Lane::live) {
                self.omega_step(i, precs);
            }
            self.restart();
        }

        // Drain the lags when the iteration budget ran out with the last
        // iteration's bookkeeping in flight: one batched deferred
        // x-update, one blocking norm reduction, the stopping ladder.
        if self.any(|l| l.lag.is_some()) {
            self.update_iterates(Lane::deferred, |w| &w.p_hat_prev);
            for b in 0..nb {
                let lag = self.lanes[b].lag.take();
                self.s[4 * nb + b] = lag.map_or(T::ZERO, |lag| lag.1);
                self.lanes[b].due = lag.map(|lag| lag.0);
            }
            global_sum(ctx, scope, "MPI5", self.norm());
            self.finish_due();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SolverKind, SolverOptions};
    use crate::precond::IdentityPrec;
    use crate::reference::bicgstab_reference;
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};
    use stencil::matrix::assemble_poisson;

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn paper_bcs() -> [[BcKind; 2]; 3] {
        [
            [BcKind::Dirichlet, BcKind::Neumann],
            [BcKind::Neumann, BcKind::Dirichlet],
            [BcKind::Neumann, BcKind::Dirichlet],
        ]
    }

    fn ctx_single(n: [usize; 3], bc: [[BcKind; 2]; 3]) -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet(n, [0.15; 3], [0.0; 3]);
        g.bc = bc;
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn solve_single(
        ctx: &RankCtx<f64, Serial, SelfComm<f64>>,
        kind: SolverKind,
        b_host: &[f64],
        tol: f64,
    ) -> (Vec<f64>, SolveOutcome) {
        let b = Field::from_interior(&ctx.dev, &ctx.grid, b_host);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..SolverOptions::default()
        };
        let mut prec = kind.build_preconditioner(ctx, &opts);
        let params = SolveParams {
            tol,
            max_iters: 20_000,
            record_history: true,
            ..Default::default()
        };
        let out = bicgstab_solve(ctx, Scope::Global, &b, &mut x, &mut *prec, &mut ws, &params);
        (x.interior_to_host(&ctx.grid), out)
    }

    #[test]
    fn plain_bicgstab_matches_dense_lu() {
        let ctx = ctx_single([5, 4, 3], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 5);
        let (x, out) = solve_single(&ctx, SolverKind::BiCgs, &b, 1e-12);
        assert!(out.converged, "did not converge: {out:?}");
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let x_ref = m.solve(&b);
        for i in 0..n {
            assert!(
                (x[i] - x_ref[i]).abs() < 1e-8 * x_ref[i].abs().max(1.0),
                "unknown {i}: {} vs {}",
                x[i],
                x_ref[i]
            );
        }
    }

    #[test]
    fn all_six_solvers_converge_to_the_same_solution() {
        let ctx = ctx_single([6, 6, 6], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 17);
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let x_ref = m.solve(&b);
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        for kind in SolverKind::all() {
            let (x, out) = solve_single(&ctx, kind, &b, 1e-10 * bnorm);
            assert!(out.converged, "{kind}: {out:?}");
            let err: f64 = x
                .iter()
                .zip(&x_ref)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(err < 1e-6, "{kind}: solution error {err}");
        }
    }

    #[test]
    fn preconditioning_reduces_outer_iterations() {
        let ctx = ctx_single([8, 8, 8], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 23);
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-10 * bnorm;
        let (_, plain) = solve_single(&ctx, SolverKind::BiCgs, &b, tol);
        let (_, gnocomm) = solve_single(&ctx, SolverKind::BiCgsGNoCommCi, &b, tol);
        assert!(plain.converged && gnocomm.converged);
        assert!(
            gnocomm.iterations * 2 < plain.iterations,
            "GNoComm(CI) should cut iterations at least in half: {} vs {}",
            gnocomm.iterations,
            plain.iterations
        );
    }

    #[test]
    fn residual_history_is_recorded_and_final_matches() {
        let ctx = ctx_single([5, 5, 5], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 31);
        let (_, out) = solve_single(&ctx, SolverKind::BiCgsGNoCommCi, &b, 1e-10);
        assert_eq!(out.residual_history.len(), out.iterations + 1);
        assert_eq!(*out.residual_history.last().unwrap(), out.final_residual);
        assert!(out.final_residual < 1e-10);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let ctx = ctx_single([4, 4, 4], paper_bcs());
        let b = vec![0.0; 64];
        let (x, out) = solve_single(&ctx, SolverKind::BiCgs, &b, 1e-12);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let ctx = ctx_single([4, 4, 4], paper_bcs());
        let n = 64;
        let x_true = rng_values(n, 3);
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let b_host = m.matvec(&x_true);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        // start from the exact solution: must converge in 0 iterations
        let mut x = Field::from_interior(&ctx.dev, &ctx.grid, &x_true);
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-8,
                max_iters: 100,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn multirank_matches_single_rank_solution() {
        // 8 ranks (2x2x2) with deterministic reductions must produce the
        // same solution as 1 rank (different FP grouping is allowed in the
        // iterates, so compare against the true solution, tightly).
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 41);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-11 * bnorm;

        // single-rank reference
        let ctx1 = ctx_single([8, 8, 8], paper_bcs());
        let (x1, out1) = solve_single(&ctx1, SolverKind::BiCgsGNoCommCi, &b_host, tol);
        assert!(out1.converged);

        // distributed solve
        let decomp = Decomp::new([2, 2, 2]);
        let g2 = g.clone();
        let b_ref = &b_host;
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
            // scatter the global RHS to this rank's interior
            let ln = grid.local_n;
            let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
            for k in 0..ln[2] {
                for j in 0..ln[1] {
                    for i in 0..ln[0] {
                        let gidx = (grid.offset[0] + i)
                            + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                        local.push(b_ref[gidx]);
                    }
                }
            }
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..SolverOptions::default()
            };
            let mut prec = SolverKind::BiCgsGNoCommCi.build_preconditioner(&ctx, &opts);
            let params = SolveParams {
                tol,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            };
            let out = bicgstab_solve(
                &ctx,
                Scope::Global,
                &b,
                &mut x,
                &mut *prec,
                &mut ws,
                &params,
            );
            (
                out,
                x.interior_to_host(&ctx.grid),
                ctx.grid.offset,
                ctx.grid.local_n,
            )
        });

        // all ranks converged with identical outcome
        let iters: Vec<usize> = results.iter().map(|(o, _, _, _)| o.iterations).collect();
        assert!(
            results.iter().all(|(o, _, _, _)| o.converged),
            "iters {iters:?}"
        );
        assert!(
            iters.iter().all(|&i| i == iters[0]),
            "ranks disagree: {iters:?}"
        );

        // gather and compare to the single-rank solution
        let mut x_gather = vec![0.0; n];
        for (_, local, off, ln) in &results {
            let mut idx = 0;
            for k in 0..ln[2] {
                for j in 0..ln[1] {
                    for i in 0..ln[0] {
                        let gidx = (off[0] + i) + 8 * ((off[1] + j) + 8 * (off[2] + k));
                        x_gather[gidx] = local[idx];
                        idx += 1;
                    }
                }
            }
        }
        for i in 0..n {
            assert!(
                (x_gather[i] - x1[i]).abs() < 1e-7 * x1[i].abs().max(1.0),
                "unknown {i}: {} vs {}",
                x_gather[i],
                x1[i]
            );
        }
    }

    #[test]
    fn overlap_halo_is_bitwise_identical_to_synchronous() {
        // The determinism guarantee of the split-phase overlapped halo
        // exchange inside the communicating G(CI) preconditioner: it must
        // not perturb a single bit of the iteration — residual histories
        // and solutions agree exactly with the synchronous exchange.
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 47);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-10 * bnorm;

        let solve = |overlap: bool| {
            let decomp = Decomp::new([2, 2, 2]);
            let g2 = g.clone();
            let b_ref = b_host.clone();
            run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
                let ln = grid.local_n;
                let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
                for k in 0..ln[2] {
                    for j in 0..ln[1] {
                        for i in 0..ln[0] {
                            let gidx = (grid.offset[0] + i)
                                + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                            local.push(b_ref[gidx]);
                        }
                    }
                }
                let dev = Serial::new(Recorder::disabled());
                let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let opts = SolverOptions {
                    eig_min_factor: 10.0,
                    overlap_halo: overlap,
                    ..SolverOptions::default()
                };
                let mut prec = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
                let params = SolveParams {
                    tol,
                    max_iters: 20_000,
                    record_history: true,
                    ..Default::default()
                };
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut *prec,
                    &mut ws,
                    &params,
                );
                (out, x.interior_to_host(&ctx.grid))
            })
        };

        let sync = solve(false);
        let over = solve(true);
        for (rank, ((os, xs), (oo, xo))) in sync.iter().zip(&over).enumerate() {
            assert!(
                os.converged && oo.converged,
                "rank {rank}: {os:?} vs {oo:?}"
            );
            assert_eq!(os.iterations, oo.iterations, "rank {rank}");
            let hs: Vec<u64> = os.residual_history.iter().map(|v| v.to_bits()).collect();
            let ho: Vec<u64> = oo.residual_history.iter().map(|v| v.to_bits()).collect();
            assert_eq!(hs, ho, "rank {rank}: residual histories diverge");
            let bs: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
            let bo: Vec<u64> = xo.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bs, bo, "rank {rank}: solutions diverge");
        }
    }

    #[test]
    fn overlap_reduce_is_bitwise_identical_to_synchronous() {
        // The reduction-overlap determinism guarantee: batching the
        // per-iteration dots into two split-phase messages must not
        // perturb a single bit of the iteration under a rank-ordered
        // fold — histories and solutions agree exactly with the blocking
        // schedule. Exercised both with a reduction-free preconditioner
        // (G(CI)) and with inner solves that reduce themselves
        // (FBiCGS-G(BiCGS)), so the flag is covered inside the
        // preconditioner too.
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 53);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-10 * bnorm;

        for kind in [SolverKind::BiCgsGCi, SolverKind::FBiCgsGBiCgs] {
            let solve = |overlap_reduce: bool| {
                let decomp = Decomp::new([2, 2, 2]);
                let g2 = g.clone();
                let b_ref = b_host.clone();
                run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
                    let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
                    let ln = grid.local_n;
                    let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
                    for k in 0..ln[2] {
                        for j in 0..ln[1] {
                            for i in 0..ln[0] {
                                let gidx = (grid.offset[0] + i)
                                    + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                                local.push(b_ref[gidx]);
                            }
                        }
                    }
                    let dev = Serial::new(Recorder::disabled());
                    let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                    let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
                    let mut x = ctx.field();
                    let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                    let opts = SolverOptions {
                        eig_min_factor: 10.0,
                        overlap_reduce,
                        ..SolverOptions::default()
                    };
                    let mut prec = kind.build_preconditioner(&ctx, &opts);
                    let params = SolveParams {
                        tol,
                        max_iters: 20_000,
                        record_history: true,
                        overlap_reduce,
                        ..Default::default()
                    };
                    let out = bicgstab_solve(
                        &ctx,
                        Scope::Global,
                        &b,
                        &mut x,
                        &mut *prec,
                        &mut ws,
                        &params,
                    );
                    (out, x.interior_to_host(&ctx.grid))
                })
            };

            let sync = solve(false);
            let over = solve(true);
            for (rank, ((os, xs), (oo, xo))) in sync.iter().zip(&over).enumerate() {
                assert!(
                    os.converged && oo.converged,
                    "{kind} rank {rank}: {os:?} vs {oo:?}"
                );
                assert_eq!(os.iterations, oo.iterations, "{kind} rank {rank}");
                let hs: Vec<u64> = os.residual_history.iter().map(|v| v.to_bits()).collect();
                let ho: Vec<u64> = oo.residual_history.iter().map(|v| v.to_bits()).collect();
                assert_eq!(hs, ho, "{kind} rank {rank}: residual histories diverge");
                let bs: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
                let bo: Vec<u64> = xo.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bs, bo, "{kind} rank {rank}: solutions diverge");
            }
        }
    }

    #[test]
    fn fused_kernels_are_bitwise_identical_to_unfused() {
        // The fusion determinism guarantee: regrouping the memory-bound
        // work (apply+dot sweeps, the merged x-update, KernelBiCGS56)
        // must not perturb a single bit of the iteration under a
        // rank-ordered fold — the production driver's histories and
        // solutions agree exactly with the unfused reference schedule,
        // on the threaded back-end (whose chunked partial folds must also
        // be regroup-invariant), under both the split-phase and the
        // blocking reduction schedules, and with a preconditioner that
        // runs inner solves (FBiCGS-G(BiCGS)).
        use accel::Threads;
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 61);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-10 * bnorm;

        for kind in [SolverKind::BiCgsGCi, SolverKind::FBiCgsGBiCgs] {
            for overlap_reduce in [true, false] {
                let solve = |reference: bool| {
                    let decomp = Decomp::new([2, 2, 2]);
                    let g2 = g.clone();
                    let b_ref = b_host.clone();
                    run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
                        let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
                        let ln = grid.local_n;
                        let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
                        for k in 0..ln[2] {
                            for j in 0..ln[1] {
                                for i in 0..ln[0] {
                                    let gidx = (grid.offset[0] + i)
                                        + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                                    local.push(b_ref[gidx]);
                                }
                            }
                        }
                        let dev = Threads::new(2, Recorder::disabled());
                        let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                        let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
                        let mut x = ctx.field();
                        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                        let opts = SolverOptions {
                            eig_min_factor: 10.0,
                            overlap_reduce,
                            ..SolverOptions::default()
                        };
                        let mut prec = kind.build_preconditioner(&ctx, &opts);
                        let params = SolveParams {
                            tol,
                            max_iters: 20_000,
                            record_history: true,
                            overlap_reduce,
                            ..Default::default()
                        };
                        let (scope, p) = (Scope::Global, &mut *prec);
                        let out = if reference {
                            bicgstab_reference(&ctx, scope, &b, &mut x, p, &mut ws, &params, false)
                        } else {
                            bicgstab_solve(&ctx, scope, &b, &mut x, p, &mut ws, &params)
                        };
                        (out, x.interior_to_host(&ctx.grid))
                    })
                };

                let unfused = solve(true);
                let fused = solve(false);
                for (rank, ((os, xs), (oo, xo))) in unfused.iter().zip(&fused).enumerate() {
                    let tag = format!("{kind} overlap_reduce={overlap_reduce} rank {rank}");
                    assert!(os.converged && oo.converged, "{tag}: {os:?} vs {oo:?}");
                    assert_eq!(os.iterations, oo.iterations, "{tag}");
                    let hs: Vec<u64> = os.residual_history.iter().map(|v| v.to_bits()).collect();
                    let ho: Vec<u64> = oo.residual_history.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(hs, ho, "{tag}: residual histories diverge");
                    let bs: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
                    let bo: Vec<u64> = xo.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bs, bo, "{tag}: solutions diverge");
                }
            }
        }
    }

    #[test]
    fn overlap_reduce_ships_two_messages_per_iteration() {
        // The headline message-count guarantee of the overlapped
        // schedule: one batch at M1, one at M2 — 2 per iteration, plus
        // the ρ₀ init reduction and the final iteration's lagged-check
        // message. The blocking schedule ships 3 per iteration plus init.
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 59);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;

        let count = |overlap_reduce: bool| {
            let decomp = Decomp::new([2, 2, 2]);
            let g2 = g.clone();
            let b_ref = b_host.clone();
            run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
                let ln = grid.local_n;
                let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
                for k in 0..ln[2] {
                    for j in 0..ln[1] {
                        for i in 0..ln[0] {
                            let gidx = (grid.offset[0] + i)
                                + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                            local.push(b_ref[gidx]);
                        }
                    }
                }
                let dev = Serial::new(Recorder::disabled());
                let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let params = SolveParams {
                    tol,
                    max_iters: 20_000,
                    record_history: false,
                    overlap_reduce,
                    ..Default::default()
                };
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut IdentityPrec,
                    &mut ws,
                    &params,
                );
                (out.converged, out.iterations, ctx.comm.stats().allreduces)
            })
        };

        for (converged, iters, allreduces) in count(true) {
            assert!(converged);
            assert_eq!(
                allreduces,
                2 * iters as u64 + 2,
                "overlapped schedule must ship 2 messages/iteration"
            );
        }
        for (converged, iters, allreduces) in count(false) {
            assert!(converged);
            assert_eq!(
                allreduces,
                3 * iters as u64 + 1,
                "blocking schedule ships 3 messages/iteration"
            );
        }
    }

    #[test]
    fn cancel_poll_adds_no_messages_under_the_overlapped_schedule() {
        // An installed (never-fired) token must ride the M1 batch as one
        // extra scalar instead of shipping its own blocking reduction:
        // allreduce counts stay at the overlapped schedule's 2 per
        // iteration + 2, identical to the token-free solve, and the
        // iteration itself is bitwise untouched.
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 61);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;

        let run = |cancel: Option<CancelToken>| {
            let decomp = Decomp::new([2, 2, 2]);
            let g2 = g.clone();
            let b_ref = b_host.clone();
            run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g2.clone(), decomp, comm.rank());
                let ln = grid.local_n;
                let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
                for k in 0..ln[2] {
                    for j in 0..ln[1] {
                        for i in 0..ln[0] {
                            let gidx = (grid.offset[0] + i)
                                + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                            local.push(b_ref[gidx]);
                        }
                    }
                }
                let dev = Serial::new(Recorder::disabled());
                let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let params = SolveParams {
                    tol,
                    max_iters: 20_000,
                    record_history: true,
                    cancel: cancel.clone(),
                    ..Default::default()
                };
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut IdentityPrec,
                    &mut ws,
                    &params,
                );
                (out, ctx.comm.stats().allreduces)
            })
        };

        let plain = run(None);
        let tokened = run(Some(CancelToken::new()));
        for (rank, ((po, pa), (to, ta))) in plain.iter().zip(&tokened).enumerate() {
            assert!(po.converged && to.converged, "rank {rank}");
            assert!(!to.cancelled, "rank {rank}");
            assert_eq!(po.iterations, to.iterations, "rank {rank}");
            assert_eq!(
                pa, ta,
                "rank {rank}: an uncancelled token must not add messages"
            );
            assert_eq!(*ta, 2 * to.iterations as u64 + 2, "rank {rank}");
            let hp: Vec<u64> = po.residual_history.iter().map(|v| v.to_bits()).collect();
            let ht: Vec<u64> = to.residual_history.iter().map(|v| v.to_bits()).collect();
            assert_eq!(hp, ht, "rank {rank}: residual histories diverge");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_rank_under_the_overlapped_schedule() {
        // The piggybacked flag is decided collectively: a pre-cancelled
        // token stops all ranks at iteration 0 after exactly two
        // messages (the ρ₀ init reduction and the M1 batch carrying the
        // flag).
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_host = rng_values(n, 67);
        let token = CancelToken::new();
        token.cancel();

        let decomp = Decomp::new([2, 2, 2]);
        let b_ref = b_host.clone();
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let ln = grid.local_n;
            let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
            for k in 0..ln[2] {
                for j in 0..ln[1] {
                    for i in 0..ln[0] {
                        let gidx = (grid.offset[0] + i)
                            + 8 * ((grid.offset[1] + j) + 8 * (grid.offset[2] + k));
                        local.push(b_ref[gidx]);
                    }
                }
            }
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &local);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let params = SolveParams {
                tol: 1e-14,
                max_iters: 20_000,
                record_history: false,
                cancel: Some(token.clone()),
                ..Default::default()
            };
            let out = bicgstab_solve(
                &ctx,
                Scope::Global,
                &b,
                &mut x,
                &mut IdentityPrec,
                &mut ws,
                &params,
            );
            (out, ctx.comm.stats().allreduces)
        });
        for (rank, (out, allreduces)) in results.iter().enumerate() {
            assert!(out.cancelled, "rank {rank}: {out:?}");
            assert!(!out.converged, "rank {rank}");
            assert_eq!(out.iterations, 0, "rank {rank}");
            assert_eq!(*allreduces, 2, "rank {rank}: init + flag-carrying M1");
        }
    }

    #[test]
    fn f32_solver_reaches_single_precision_tolerance() {
        let mut g = GlobalGrid::dirichlet([6, 6, 6], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f32, _, _> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let b_host: Vec<f32> = rng_values(216, 2).iter().map(|&v| v as f32).collect();
        let bnorm: f64 = b_host
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-4 * bnorm,
                max_iters: 5_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged, "{out:?}");
    }

    #[test]
    fn local_scope_solves_each_block_independently() {
        // Two ranks, local scope: each solves its restricted block. Verify
        // against per-block dense references.
        let mut g = GlobalGrid::dirichlet([8, 4, 4], [0.2; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let decomp = Decomp::new([2, 1, 1]);
        let g2 = g.clone();
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
            let rank = comm.rank();
            let grid = BlockGrid::new(g2.clone(), decomp, rank);
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let nloc = ctx.grid.local_n.iter().product::<usize>();
            let b_host = rng_values(nloc, 100 + rank as u64);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(
                &ctx,
                Scope::Local,
                &b,
                &mut x,
                &mut IdentityPrec,
                &mut ws,
                &SolveParams {
                    tol: 1e-12,
                    max_iters: 5_000,
                    record_history: false,
                    ..Default::default()
                },
            );
            assert!(out.converged);
            let m = assemble_poisson(&ctx.lap.local_ops(), ctx.grid.global.h);
            let x_ref = m.solve(&b_host);
            let got = x.interior_to_host(&ctx.grid);
            for i in 0..nloc {
                assert!(
                    (got[i] - x_ref[i]).abs() < 1e-8 * x_ref[i].abs().max(1.0),
                    "rank {rank} unknown {i}"
                );
            }
        });
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use crate::config::{SolverKind, SolverOptions};
    use crate::precond::{IdentityPrec, PrecTraits, Preconditioner};
    use crate::reference::bicgstab_reference;
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn ctx() -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet([6, 6, 6], [0.15; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn solve_with(params: &SolveParams) -> SolveOutcome {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 7));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            params,
        )
    }

    #[test]
    fn early_exit_check_still_converges() {
        let params = SolveParams {
            tol: 1e-10,
            ..Default::default()
        };
        let plain = solve_with(&params);
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 7));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let (scope, prec) = (Scope::Global, &mut IdentityPrec);
        let early = bicgstab_reference(&ctx, scope, &b, &mut x, prec, &mut ws, &params, true);
        assert!(plain.converged && early.converged);
        // the mid-loop check can only save work, never add iterations
        assert!(early.iterations <= plain.iterations);
        assert!(early.final_residual < 1e-10);
    }

    #[test]
    fn true_residual_sampling_matches_recursive_residual() {
        let out = solve_with(&SolveParams {
            tol: 1e-12,
            true_residual_every: 3,
            ..Default::default()
        });
        assert!(out.converged);
        assert!(!out.true_residuals.is_empty(), "samples must be taken");
        for (i, tres) in &out.true_residuals {
            assert_eq!(i % 3, 0);
            // recursive residual history[i] and the true residual track
            // each other well in a healthy solve (same order of magnitude;
            // the last bits drift once the residual approaches round-off)
            let recursive = out.residual_history[*i];
            let ratio = tres / recursive.max(1e-300);
            assert!(
                (0.5..2.0).contains(&ratio),
                "iter {i}: true {tres} vs recursive {recursive}"
            );
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_iteration() {
        let token = CancelToken::new();
        token.cancel();
        let out = solve_with(&SolveParams {
            tol: 1e-14,
            cancel: Some(token),
            ..Default::default()
        });
        assert!(out.cancelled);
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing_bitwise() {
        // Installing a token that never fires must not perturb the
        // iteration: identical history and iteration count.
        let plain = solve_with(&SolveParams {
            tol: 1e-10,
            ..Default::default()
        });
        let tokened = solve_with(&SolveParams {
            tol: 1e-10,
            cancel: Some(CancelToken::new()),
            ..Default::default()
        });
        assert!(plain.converged && tokened.converged);
        assert!(!tokened.cancelled);
        assert_eq!(plain.iterations, tokened.iterations);
        let a: Vec<u64> = plain.residual_history.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = tokened
            .residual_history
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clean_solves_take_no_restarts() {
        let out = solve_with(&SolveParams {
            tol: 1e-10,
            max_restarts: 3,
            ..Default::default()
        });
        assert!(out.converged);
        assert_eq!(out.restarts, 0);
    }

    /// A pathological preconditioner that maps everything to zero — it
    /// forces `p̂ = 0`, hence `r̃ᵀ A p̂ = 0`, a PSumZero breakdown every
    /// iteration.
    struct ZeroPrec;
    impl Preconditioner<f64, Serial, SelfComm<f64>> for ZeroPrec {
        fn apply(
            &mut self,
            _ctx: &RankCtx<f64, Serial, SelfComm<f64>>,
            _rhs: &mut Field<f64>,
            out: &mut Field<f64>,
        ) -> usize {
            out.fill_zero();
            0
        }
        fn traits(&self) -> PrecTraits {
            PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }
        }
        fn name(&self) -> &'static str {
            "Zero"
        }
    }

    #[test]
    fn restart_budget_is_spent_then_breakdown_reported() {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 9));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut ZeroPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-10,
                max_iters: 50,
                max_restarts: 2,
                ..Default::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(out.restarts, 2, "both restarts must be attempted");
        assert_eq!(out.breakdown, Some(Breakdown::PSumZero));
    }

    #[test]
    fn early_exit_solution_satisfies_system() {
        // when the early-exit path fires, x must still solve A x = b
        let ctx = ctx();
        let n = 216;
        let b_host = rng_values(n, 21);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..Default::default()
        };
        let mut prec = SolverKind::BiCgsGNoCommCi.build_preconditioner(&ctx, &opts);
        let params = SolveParams {
            tol: 1e-9,
            ..Default::default()
        };
        let (scope, prec) = (Scope::Global, &mut *prec);
        let out = bicgstab_reference(&ctx, scope, &b, &mut x, prec, &mut ws, &params, true);
        assert!(out.converged);
        let dense = stencil::matrix::assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let got = x.interior_to_host(&ctx.grid);
        let ax = dense.matvec(&got);
        let res: f64 = ax
            .iter()
            .zip(&b_host)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-7, "true residual {res}");
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::precond::{IdentityPrec, PrecTraits};
    use accel::{GpuSimParams, Recorder, Serial, SimGpu, Threads};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};
    use proptest::prelude::*;

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn paper_bcs() -> [[BcKind; 2]; 3] {
        [
            [BcKind::Dirichlet, BcKind::Neumann],
            [BcKind::Neumann, BcKind::Dirichlet],
            [BcKind::Neumann, BcKind::Dirichlet],
        ]
    }

    /// Restrict a global lexicographic field to this rank's interior.
    fn scatter(grid: &BlockGrid, nx: [usize; 3], global: &[f64]) -> Vec<f64> {
        let ln = grid.local_n;
        let mut local = Vec::with_capacity(ln[0] * ln[1] * ln[2]);
        for k in 0..ln[2] {
            for j in 0..ln[1] {
                for i in 0..ln[0] {
                    let gidx = (grid.offset[0] + i)
                        + nx[0] * ((grid.offset[1] + j) + nx[1] * (grid.offset[2] + k));
                    local.push(global[gidx]);
                }
            }
        }
        local
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_lane_matches_solo(
        tag: &str,
        solo: &(SolveOutcome, Vec<f64>),
        bo: &SolveOutcome,
        bx: &[f64],
    ) {
        let (so, sx) = solo;
        assert_eq!(so.converged, bo.converged, "{tag}: converged");
        assert_eq!(so.iterations, bo.iterations, "{tag}: iterations");
        assert_eq!(so.breakdown, bo.breakdown, "{tag}: breakdown");
        assert_eq!(so.prec_iterations, bo.prec_iterations, "{tag}: prec sweeps");
        assert_eq!(
            so.final_residual.to_bits(),
            bo.final_residual.to_bits(),
            "{tag}: final residual diverges"
        );
        assert_eq!(
            bits(&so.residual_history),
            bits(&bo.residual_history),
            "{tag}: residual histories diverge"
        );
        assert_eq!(bits(sx), bits(bx), "{tag}: solutions diverge");
    }

    /// Lane-wise bitwise identity on one rank (the synchronous batch
    /// schedule): every lane of a 3-wide batch reproduces the solo
    /// fused solve bit-for-bit on each back-end's fold order.
    fn lanewise_matches_solo_on<D: Device>(label: &str, dev: D) {
        let mut g = GlobalGrid::dirichlet([6, 5, 4], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> = RankCtx::new(dev, SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 5_000,
            ..Default::default()
        };
        let nb = 3;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 70 + l as u64)).collect();

        let mut solo = Vec::new();
        for bh in &b_hosts {
            let b = Field::from_interior(&ctx.dev, &ctx.grid, bh);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(
                &ctx,
                Scope::Global,
                &b,
                &mut x,
                &mut IdentityPrec,
                &mut ws,
                &params,
            );
            assert!(out.converged, "{label}: solo lane failed: {out:?}");
            solo.push((out, x.interior_to_host(&ctx.grid)));
        }

        let bfields: Vec<Field<f64>> = b_hosts
            .iter()
            .map(|bh| Field::from_interior(&ctx.dev, &ctx.grid, bh))
            .collect();
        let bs: Vec<&Field<f64>> = bfields.iter().collect();
        let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
        let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
        let mut ps: Vec<IdentityPrec> = (0..nb).map(|_| IdentityPrec).collect();
        let mut precs: Vec<&mut IdentityPrec> = ps.iter_mut().collect();
        let mut bws: Vec<_> = (0..nb)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let mut outs = vec![SolveOutcome::default(); nb];
        bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &[],
            &mut outs,
        );
        for (l, (s, bo)) in solo.iter().zip(&outs).enumerate() {
            let bx = xfields[l].interior_to_host(&ctx.grid);
            assert_lane_matches_solo(&format!("{label} lane {l}"), s, bo, &bx);
        }
    }

    #[test]
    fn batched_lanes_bitwise_match_solo_on_every_backend() {
        lanewise_matches_solo_on("serial", Serial::new(Recorder::disabled()));
        lanewise_matches_solo_on("threads", Threads::new(3, Recorder::disabled()));
        lanewise_matches_solo_on(
            "simgpu",
            SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        );
    }

    /// Lane-wise bitwise identity across 8 ranks under the overlapped
    /// (lagged) schedule with a communicating preconditioner: batching
    /// regroups messages and sweeps, never a lane's arithmetic.
    #[test]
    fn batched_lanes_bitwise_match_solo_across_ranks() {
        use crate::config::{SolverKind, SolverOptions};
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 2;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 80 + l as u64)).collect();
        let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-9 * bnorm;

        let decomp = Decomp::new([2, 2, 2]);
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let locals: Vec<Vec<f64>> = b_hosts
                .iter()
                .map(|bh| scatter(&ctx.grid, [8, 8, 8], bh))
                .collect();
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..SolverOptions::default()
            };
            let params = SolveParams {
                tol,
                max_iters: 20_000,
                ..Default::default()
            };

            // Solo references, lane by lane (rank-uniform order).
            let mut solo = Vec::new();
            for local in &locals {
                let b = Field::from_interior(&ctx.dev, &ctx.grid, local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let mut prec = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut *prec,
                    &mut ws,
                    &params,
                );
                solo.push((out, x.interior_to_host(&ctx.grid)));
            }

            // One batched solve over both lanes.
            let bfields: Vec<Field<f64>> = locals
                .iter()
                .map(|l| Field::from_interior(&ctx.dev, &ctx.grid, l))
                .collect();
            let bs: Vec<&Field<f64>> = bfields.iter().collect();
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
            let mut boxes: Vec<_> = (0..nb)
                .map(|_| SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts))
                .collect();
            let mut precs: Vec<_> = boxes.iter_mut().map(|p| &mut **p).collect();
            let mut bws: Vec<_> = (0..nb)
                .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                .collect();
            let mut outs = vec![SolveOutcome::default(); nb];
            bicgstab_solve_batch(
                &ctx,
                Scope::Global,
                &bs,
                &mut xs,
                &mut precs,
                &mut bws,
                &params,
                &[],
                &mut outs,
            );
            let batch: Vec<(SolveOutcome, Vec<f64>)> = outs
                .into_iter()
                .zip(&xfields)
                .map(|(o, x)| (o, x.interior_to_host(&ctx.grid)))
                .collect();
            (solo, batch)
        });

        for (rank, (solo, batch)) in results.iter().enumerate() {
            for (l, (s, (bo, bx))) in solo.iter().zip(batch).enumerate() {
                assert!(s.0.converged, "rank {rank} lane {l}: solo failed");
                assert_lane_matches_solo(&format!("rank {rank} lane {l}"), s, bo, bx);
            }
        }
    }

    /// The headline amortisation guarantee: a 4-wide batch ships the
    /// solo overlapped schedule's message count of its *longest* lane —
    /// 2 per iteration + 2 — instead of four solo solves' worth.
    #[test]
    fn batched_reductions_amortize_across_lanes() {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 4;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 90 + l as u64)).collect();
        let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;

        let decomp = Decomp::new([2, 2, 2]);
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let locals: Vec<Vec<f64>> = b_hosts
                .iter()
                .map(|bh| scatter(&ctx.grid, [8, 8, 8], bh))
                .collect();
            let params = SolveParams {
                tol,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            };

            // Solo message bill, lane by lane.
            let before_solo = ctx.comm.stats().allreduces;
            let mut solo_iters = Vec::new();
            for local in &locals {
                let b = Field::from_interior(&ctx.dev, &ctx.grid, local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut IdentityPrec,
                    &mut ws,
                    &params,
                );
                assert!(out.converged);
                solo_iters.push(out.iterations);
            }
            let solo_msgs = ctx.comm.stats().allreduces - before_solo;

            // Batched message bill.
            let bfields: Vec<Field<f64>> = locals
                .iter()
                .map(|l| Field::from_interior(&ctx.dev, &ctx.grid, l))
                .collect();
            let bs: Vec<&Field<f64>> = bfields.iter().collect();
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
            let mut ps: Vec<IdentityPrec> = (0..nb).map(|_| IdentityPrec).collect();
            let mut precs: Vec<&mut IdentityPrec> = ps.iter_mut().collect();
            let mut bws: Vec<_> = (0..nb)
                .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                .collect();
            let mut outs = vec![SolveOutcome::default(); nb];
            let before_batch = ctx.comm.stats().allreduces;
            bicgstab_solve_batch(
                &ctx,
                Scope::Global,
                &bs,
                &mut xs,
                &mut precs,
                &mut bws,
                &params,
                &[],
                &mut outs,
            );
            let batch_msgs = ctx.comm.stats().allreduces - before_batch;
            let batch_iters: Vec<usize> = outs.iter().map(|o| o.iterations).collect();
            assert!(outs.iter().all(|o| o.converged), "{outs:?}");
            (solo_iters, solo_msgs, batch_iters, batch_msgs)
        });

        for (rank, (solo_iters, solo_msgs, batch_iters, batch_msgs)) in results.iter().enumerate() {
            assert_eq!(solo_iters, batch_iters, "rank {rank}: lane iterations");
            let longest = *batch_iters.iter().max().unwrap() as u64;
            let solo_bill: u64 = solo_iters.iter().map(|&i| 2 * i as u64 + 2).sum();
            assert_eq!(*solo_msgs, solo_bill, "rank {rank}: solo bill");
            assert_eq!(
                *batch_msgs,
                2 * longest + 2,
                "rank {rank}: the batch must ship its longest lane's solo bill"
            );
            assert!(
                *batch_msgs < solo_bill,
                "rank {rank}: batching must amortize ({batch_msgs} vs {solo_bill})"
            );
        }
    }

    /// A zero RHS converges at setup (iteration 0) and freezes; its
    /// message slots carry zeros and the surviving lane stays bitwise
    /// identical to its solo solve.
    #[test]
    fn converged_lane_freezes_without_touching_others() {
        let mut g = GlobalGrid::dirichlet([6, 5, 4], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 5_000,
            ..Default::default()
        };
        let live_host = rng_values(n, 7);

        let b_live = Field::from_interior(&ctx.dev, &ctx.grid, &live_host);
        let mut x_solo = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let solo_out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b_live,
            &mut x_solo,
            &mut IdentityPrec,
            &mut ws,
            &params,
        );
        let solo = (solo_out, x_solo.interior_to_host(&ctx.grid));

        let b_zero = ctx.field();
        let bs = [&b_zero, &b_live];
        let mut x0 = ctx.field();
        let mut x1 = ctx.field();
        let mut xs = [&mut x0, &mut x1];
        let mut p0 = IdentityPrec;
        let mut p1 = IdentityPrec;
        let mut precs = [&mut p0, &mut p1];
        let mut bws: Vec<_> = (0..2)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let mut outs = vec![SolveOutcome::default(); 2];
        bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &[],
            &mut outs,
        );
        assert!(outs[0].converged, "{:?}", outs[0]);
        assert_eq!(outs[0].iterations, 0);
        assert_eq!(outs[0].residual_history, vec![0.0]);
        assert!(x0.interior_to_host(&ctx.grid).iter().all(|&v| v == 0.0));
        let bx = x1.interior_to_host(&ctx.grid);
        assert_lane_matches_solo("live lane", &solo, &outs[1], &bx);
    }

    /// An identity preconditioner that fires a cancel token after a set
    /// number of applications — a deterministic stand-in for a client
    /// abandoning one lane mid-solve.
    struct CancelAfter {
        token: CancelToken,
        after: usize,
        count: usize,
    }

    impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for CancelAfter {
        fn apply(
            &mut self,
            _ctx: &RankCtx<T, D, C>,
            rhs: &mut Field<T>,
            out: &mut Field<T>,
        ) -> usize {
            self.count += 1;
            if self.count == self.after {
                self.token.cancel();
            }
            out.copy_from(rhs);
            0
        }

        fn traits(&self) -> PrecTraits {
            PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }
        }

        fn name(&self) -> &'static str {
            "CancelAfter"
        }
    }

    fn cancel_lane_run(
        fire_after: Option<usize>,
        seeds: [u64; 2],
    ) -> (Vec<SolveOutcome>, Vec<Vec<f64>>) {
        let mut g = GlobalGrid::dirichlet([5, 4, 3], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-11,
            max_iters: 5_000,
            ..Default::default()
        };
        let hosts: Vec<Vec<f64>> = seeds.iter().map(|&s| rng_values(n, s)).collect();
        let bfields: Vec<Field<f64>> = hosts
            .iter()
            .map(|h| Field::from_interior(&ctx.dev, &ctx.grid, h))
            .collect();
        let bs: Vec<&Field<f64>> = bfields.iter().collect();
        let mut xfields: Vec<Field<f64>> = (0..2).map(|_| ctx.field()).collect();
        let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
        let token = CancelToken::new();
        let mut p0 = CancelAfter {
            token: token.clone(),
            after: fire_after.unwrap_or(usize::MAX),
            count: 0,
        };
        let mut p1 = CancelAfter {
            token: CancelToken::new(),
            after: usize::MAX,
            count: 0,
        };
        let mut precs = [&mut p0, &mut p1];
        let mut bws: Vec<_> = (0..2)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let mut outs = vec![SolveOutcome::default(); 2];
        let cancels = if fire_after.is_some() {
            vec![Some(token), None]
        } else {
            Vec::new()
        };
        bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &cancels,
            &mut outs,
        );
        let sols = xfields
            .iter()
            .map(|x| x.interior_to_host(&ctx.grid))
            .collect();
        (outs, sols)
    }

    /// Identity preconditioner that returns zero for its first `zeros`
    /// applications: p̂ = 0 forces r̃ᵀA p̂ = 0, a PSumZero breakdown.
    struct ZeroFirst {
        zeros: usize,
    }

    impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for ZeroFirst {
        fn apply(
            &mut self,
            _ctx: &RankCtx<T, D, C>,
            rhs: &mut Field<T>,
            out: &mut Field<T>,
        ) -> usize {
            if self.zeros > 0 {
                self.zeros -= 1;
                out.fill_zero();
            } else {
                out.copy_from(rhs);
            }
            0
        }

        fn traits(&self) -> PrecTraits {
            PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }
        }

        fn name(&self) -> &'static str {
            "ZeroFirst"
        }
    }

    /// Every lane carries the solo safety net: on two ranks, lane 0
    /// breaks down on its first iteration and restarts while lane 1 keeps
    /// iterating, both sample true residuals, and each lane's history,
    /// samples, restarts and solution are bitwise those of its solo solve
    /// — under the overlapped and the blocking reduction schedules.
    #[test]
    fn batched_lanes_restart_and_sample_true_residuals_like_solo() {
        let mut g = GlobalGrid::dirichlet([8, 6, 5], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_hosts: Vec<Vec<f64>> = (0..2).map(|l| rng_values(n, 110 + l as u64)).collect();
        for overlap_reduce in [true, false] {
            let (g, b_hosts) = (g.clone(), b_hosts.clone());
            let decomp = Decomp::new([2, 1, 1]);
            let results = run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
                let dev = Serial::new(Recorder::disabled());
                let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                let bfields: Vec<Field<f64>> = b_hosts
                    .iter()
                    .map(|bh| {
                        Field::from_interior(
                            &ctx.dev,
                            &ctx.grid,
                            &scatter(&ctx.grid, [8, 6, 5], bh),
                        )
                    })
                    .collect();
                let params = SolveParams {
                    tol: 1e-10,
                    max_iters: 5_000,
                    true_residual_every: 2,
                    max_restarts: 2,
                    overlap_reduce,
                    ..Default::default()
                };
                let zeros = [1, 0];

                let mut solo = Vec::new();
                for (b, &z) in bfields.iter().zip(&zeros) {
                    let mut x = ctx.field();
                    let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                    let mut prec = ZeroFirst { zeros: z };
                    let out =
                        bicgstab_solve(&ctx, Scope::Global, b, &mut x, &mut prec, &mut ws, &params);
                    solo.push((out, x.interior_to_host(&ctx.grid)));
                }

                let bs: Vec<&Field<f64>> = bfields.iter().collect();
                let (mut x0, mut x1) = (ctx.field(), ctx.field());
                let mut xs = [&mut x0, &mut x1];
                let (mut p0, mut p1) =
                    (ZeroFirst { zeros: zeros[0] }, ZeroFirst { zeros: zeros[1] });
                let mut precs = [&mut p0, &mut p1];
                let mut bws: Vec<_> = (0..2)
                    .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                    .collect();
                let mut outs = vec![SolveOutcome::default(); 2];
                bicgstab_solve_batch(
                    &ctx,
                    Scope::Global,
                    &bs,
                    &mut xs,
                    &mut precs,
                    &mut bws,
                    &params,
                    &[],
                    &mut outs,
                );
                let xs = [
                    x0.interior_to_host(&ctx.grid),
                    x1.interior_to_host(&ctx.grid),
                ];
                (solo, outs, xs)
            });
            for (rank, (solo, outs, xs)) in results.iter().enumerate() {
                for (l, (s, (bo, bx))) in solo.iter().zip(outs.iter().zip(xs)).enumerate() {
                    let tag = format!("overlap_reduce={overlap_reduce} rank {rank} lane {l}");
                    assert!(s.0.converged, "{tag}: solo failed: {:?}", s.0);
                    assert_eq!(s.0.restarts, 1 - l, "{tag}: restarts");
                    assert!(
                        !s.0.true_residuals.is_empty(),
                        "{tag}: no true-residual samples"
                    );
                    assert_lane_matches_solo(&tag, s, bo, bx);
                    assert_eq!(s.0.restarts, bo.restarts, "{tag}: restarts");
                    let samples = |o: &SolveOutcome| -> Vec<(usize, u64)> {
                        o.true_residuals
                            .iter()
                            .map(|&(i, r)| (i, r.to_bits()))
                            .collect()
                    };
                    assert_eq!(samples(&s.0), samples(bo), "{tag}: true residuals diverge");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Satellite: cancelling one lane mid-solve leaves every other
        // lane's outcome and solution bitwise unchanged, wherever the
        // cancellation lands in the schedule.
        #[test]
        fn cancelled_lane_leaves_other_lanes_bitwise_unchanged(
            fire in 1usize..12,
            seed in 0u64..1000,
        ) {
            let seeds = [seed.wrapping_mul(2).wrapping_add(1), seed.wrapping_mul(2).wrapping_add(2)];
            let (base_outs, base_sols) = cancel_lane_run(None, seeds);
            prop_assert!(base_outs[0].converged && base_outs[1].converged);
            let (outs, sols) = cancel_lane_run(Some(fire), seeds);

            // Lane 0 either got cancelled or converged first — never both.
            if outs[0].cancelled {
                prop_assert!(!outs[0].converged);
                prop_assert!(outs[0].iterations <= base_outs[0].iterations);
            } else {
                prop_assert_eq!(outs[0].iterations, base_outs[0].iterations);
            }

            // Lane 1 is bitwise untouched by its neighbour's fate.
            prop_assert!(outs[1].converged);
            prop_assert_eq!(outs[1].iterations, base_outs[1].iterations);
            prop_assert_eq!(
                bits(&outs[1].residual_history),
                bits(&base_outs[1].residual_history)
            );
            prop_assert_eq!(bits(&sols[1]), bits(&base_sols[1]));
        }
    }
}
