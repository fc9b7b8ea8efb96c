//! The textbook Bi-CGSTAB schedule: the production driver's bitwise
//! oracle and the baseline arm of its fusion and early-exit ablations.
//!
//! [`bicgstab_reference`] runs Algorithm 3 unfused and blocking: every
//! stencil apply, dot and vector update is its own full-grid sweep (eleven
//! per iteration against the production driver's five) and every
//! reduction its own blocking message (three per iteration). It keeps the
//! two choices the fused schedule is built on — ρ by recurrence
//! (`ρ_{i+1} = r̃ᵀs − ω r̃ᵀt`, `‖r‖²` a direct dot) and the x-update split
//! into `KernelBiCGS4a` (`x += α p̂`) and `KernelBiCGS4b` (`x += ω r̂`),
//! which the merged `KernelBiCGS4` chains — so that
//! [`bicgstab_solve`](crate::bicgstab_solve) reproduces it bit for bit
//! under a deterministic [`comm::ReduceOrder`]. It has no restarts, drift
//! guard or cancellation, and ignores [`SolveParams::overlap_reduce`].

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;

use crate::bicgstab::{
    global_sum, refresh_ghosts_many, Breakdown, Scope, SolveOutcome, SolveParams,
};
use crate::ctx::{RankCtx, Workspace};
use crate::kernels::{
    axpy3_inplace, axpy_inplace, dot, dot2, residual_update_fused, INFO_BICGS2, INFO_BICGS4A,
    INFO_BICGS4B, INFO_BICGS5, INFO_BICGS6, INFO_DOT,
};
use crate::precond::Preconditioner;

/// Solve `A x = b` on the unfused, blocking reference schedule (see the
/// module docs); `x` holds the initial guess on entry and the solution on
/// exit. With `early_exit` the loop also takes Algorithm 1's mid-loop
/// convergence check (lines 9–11): one extra reduction per iteration that
/// may save the second half-iteration, which Algorithm 3 trades away.
///
/// Panics if `params` asks for cancellation, the drift guard or restarts.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_reference<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    b: &Field<T>,
    x: &mut Field<T>,
    prec: &mut P,
    ws: &mut Workspace<T>,
    params: &SolveParams,
    early_exit: bool,
) -> SolveOutcome
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    assert!(
        params.cancel.is_none() && params.true_residual_every == 0 && params.max_restarts == 0,
        "the reference schedule has no cancellation, drift guard or restarts"
    );
    let (dev, grid) = (&ctx.dev, &ctx.grid);
    let apply = |u: &mut Field<T>, out: &mut Field<T>, stage| {
        refresh_ghosts_many(ctx, scope, stage, &mut [u]);
        ctx.lap.apply(dev, stencil::INFO_APPLY, u, out);
    };
    let mut out = SolveOutcome::default();
    let record = |out: &mut SolveOutcome, norm2: T| {
        out.final_residual = norm2.to_f64().max(0.0).sqrt();
        if params.record_history {
            out.residual_history.push(out.final_residual);
        }
        out.final_residual
    };

    // r_0 = b − A x_0, r̃ = p_0 = r_0, ρ_0 = r̃ᵀr_0
    apply(x, &mut ws.w, "MPI0");
    ws.r.copy_from(b);
    axpy_inplace(dev, INFO_BICGS2, grid, &mut ws.r, &ws.w, -T::ONE);
    ws.r0t.copy_from(&ws.r);
    ws.p.copy_from(&ws.r);
    let mut s = [dot(dev, INFO_DOT, grid, &ws.r0t, &ws.r)];
    global_sum(ctx, scope, "MPI0", &mut s);
    let mut rho = s[0];
    if record(&mut out, rho) < params.tol {
        out.converged = true;
        return out;
    }

    for i in 1..=params.max_iters {
        out.iterations = i;
        // M p̂ = p, then w = A p̂ and σ = r̃ᵀw
        out.prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.p, &mut ws.p_hat)
        }) as u64;
        apply(&mut ws.p_hat, &mut ws.w, "MPI1");
        let mut s = [dot(dev, INFO_DOT, grid, &ws.r0t, &ws.w)];
        global_sum(ctx, scope, "MPI2", &mut s);
        let psum = s[0];
        if !psum.is_finite() || psum == T::ZERO {
            out.breakdown = Some(if psum == T::ZERO {
                Breakdown::PSumZero
            } else {
                Breakdown::NonFinite
            });
            break;
        }
        let alpha = rho / psum;

        // KernelBiCGS2: s = r − α w
        axpy_inplace(dev, INFO_BICGS2, grid, &mut ws.r, &ws.w, -alpha);
        if early_exit {
            let mut s = [dot(dev, INFO_DOT, grid, &ws.r, &ws.r)];
            global_sum(ctx, scope, "MPI2b", &mut s);
            if s[0].to_f64().max(0.0).sqrt() < params.tol {
                // x ← x + α p̂, then exit (Alg. 1 line 10)
                axpy_inplace(dev, INFO_BICGS4A, grid, x, &ws.p_hat, alpha);
                record(&mut out, s[0]);
                out.converged = true;
                break;
            }
        }
        let c3 = dot(dev, INFO_DOT, grid, &ws.r0t, &ws.r);

        // M r̂ = s, then t = A r̂ with σ₁ = tᵀs, σ₂ = tᵀt, σ₄ = r̃ᵀt
        out.prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.r, &mut ws.r_hat)
        }) as u64;
        apply(&mut ws.r_hat, &mut ws.t, "MPI3");
        let (p1, p2) = dot2(dev, INFO_DOT, grid, &ws.t, &ws.r);
        let mut s = [p1, p2, c3, dot(dev, INFO_DOT, grid, &ws.r0t, &ws.t)];
        global_sum(ctx, scope, "MPI4", &mut s);
        let [p1, p2, c3, c4] = s;
        // KernelBiCGS4a: x ← x + α p̂
        axpy_inplace(dev, INFO_BICGS4A, grid, x, &ws.p_hat, alpha);
        if !(p1.is_finite() && p2.is_finite()) {
            out.breakdown = Some(Breakdown::NonFinite);
            break;
        }
        let omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
        let rho_new = c3 - omega * c4;

        // KernelBiCGS5: r ← s − ω t ⊕ ‖r‖², then KernelBiCGS4b: x ← x + ω r̂
        let (_, rn) =
            residual_update_fused(dev, INFO_BICGS5, grid, &mut ws.r, &ws.t, omega, &ws.r0t);
        axpy_inplace(dev, INFO_BICGS4B, grid, x, &ws.r_hat, omega);
        let mut s = [rn];
        global_sum(ctx, scope, "MPI5", &mut s);
        let res = record(&mut out, s[0]);
        out.converged = res < params.tol;
        out.breakdown = if !res.is_finite() {
            Some(Breakdown::NonFinite)
        } else if out.converged {
            None
        } else if rho_new == T::ZERO {
            Some(Breakdown::RhoZero)
        } else {
            (omega == T::ZERO).then_some(Breakdown::OmegaZero)
        };
        if out.converged || out.breakdown.is_some() {
            break;
        }

        // KernelBiCGS6: p ← r + β (p − ω w)
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        axpy3_inplace(dev, INFO_BICGS6, grid, &mut ws.p, &ws.r, &ws.w, beta, omega);
    }
    out
}
