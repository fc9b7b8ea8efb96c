//! Mixed-precision Chebyshev iteration: `f32` sweeps under an `f64`
//! Bi-CGSTAB recurrence.
//!
//! The solver is memory-bandwidth-bound and the Chebyshev
//! preconditioner's sweeps are the bulk of every iteration's streamed
//! bytes, so running them in single precision nearly halves both the
//! sweep traffic and the halo payloads. Because Bi-CGSTAB tolerates an
//! *inexact* preconditioner — it only has to stay a *fixed* linear
//! operator for the standard (non-flexible) recurrence to hold — the
//! inner iteration can round freely as long as it rounds the same way
//! every application, which a fixed `f32` polynomial does. The outer
//! recurrence stays in `f64`: its scalars (`ρ`, `α`, `ω`) and residual
//! are what convergence is measured with, and single precision there
//! would floor the achievable residual near `1e-7‖b‖`.
//!
//! The precision boundary is one rounding step on entry
//! ([`crate::kernels::cast`] with `KernelCastDown`, round-to-nearest-even
//! per element) and an exact widening on exit (`KernelCastUp`); between
//! them runs the ordinary [`ChebyshevIteration`] at `S = f32`, whose
//! coefficients are computed on the host in `f64` (Eq. 15) and rounded
//! once per sweep, exactly as the `T_data = float` build of the paper's
//! templated kernels would.

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::SpectralBounds;

use crate::cheby::{ChebyMode, ChebyshevIteration};
use crate::ctx::RankCtx;
use crate::kernels::{cast, INFO_CAST_DOWN, INFO_CAST_UP};
use crate::precond::{PrecTraits, Preconditioner};

/// The Chebyshev preconditioner with every sweep, state buffer and halo
/// message in `f32`, applied inside an outer solve of any precision:
/// cast down → [`ChebyshevIteration<f32>`] → cast up. Still a fixed,
/// reduction-free operator — the rounding is deterministic and
/// identical every application.
pub struct MixedChebyshev {
    b32: Field<f32>,
    cheby: ChebyshevIteration<f32>,
    name: &'static str,
}

impl MixedChebyshev {
    /// Configure the iteration for `ctx` with the given (already
    /// rescaled) spectral bounds and sweep count (`iterMax >= 1`).
    pub fn new<T: Scalar, D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        mode: ChebyMode,
        bounds: SpectralBounds,
        iterations: usize,
    ) -> Self {
        let name = match mode {
            ChebyMode::Global => "G(CI/f32)",
            ChebyMode::GlobalNoComm => "GNoComm(CI/f32)",
            ChebyMode::BlockJacobi => "BJ(CI/f32)",
        };
        Self {
            b32: Field::zeros(&ctx.dev, &ctx.grid),
            cheby: ChebyshevIteration::new(ctx, mode, bounds, iterations),
            name,
        }
    }

    /// The underlying single-precision iteration.
    pub fn iteration(&self) -> &ChebyshevIteration<f32> {
        &self.cheby
    }

    /// Enable or disable split-phase halo overlap (forwards to
    /// [`ChebyshevIteration::set_overlap`]).
    pub fn set_overlap(&mut self, on: bool) {
        self.cheby.set_overlap(on);
    }

    /// Run `iterMax` single-precision sweeps of Algorithm 4, writing
    /// `x ≈ A⁻¹ b` widened back to the outer precision. `b`'s interior
    /// is read once through the rounding down-cast; its ghosts are left
    /// untouched (the iteration refreshes its *own* `f32` ghosts).
    /// Returns the number of sweeps performed.
    pub fn solve<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &Field<T>,
        x: &mut Field<T>,
    ) -> usize {
        cast(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut self.b32, b);
        let y = self.cheby.sweep(ctx, &mut self.b32);
        cast(&ctx.dev, INFO_CAST_UP, &ctx.grid, x, y);
        self.cheby.iterations()
    }
}

impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for MixedChebyshev {
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        self.solve(ctx, rhs, out)
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: true,
            comm_free: self.cheby.mode().comm_free(),
            reduction_free: true,
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheby::{global_bounds, ChebyshevIteration};
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;

    fn ctx_single(n: usize) -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet([n, n, n], [0.2; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

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

    #[test]
    fn parameters_match_f64_iteration() {
        let ctx = ctx_single(4);
        let bounds = SpectralBounds {
            min: 2.0,
            max: 10.0,
        };
        let mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 3);
        let wide = ChebyshevIteration::<f64>::new(&ctx, ChebyMode::Global, bounds, 3);
        assert_eq!(mixed.iteration().parameters(), wide.parameters());
        assert_eq!(mixed.iteration().iterations(), 3);
        assert_eq!(mixed.iteration().mode(), ChebyMode::Global);
    }

    #[test]
    fn mixed_tracks_the_f64_iteration_to_f32_accuracy() {
        // The f32 sweeps implement the same polynomial; the result must
        // match the f64 iteration to within single-precision rounding
        // accumulated over the sweeps, far tighter than the inexactness
        // Bi-CGSTAB already tolerates from the preconditioner.
        let ctx = ctx_single(6);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 17);
        let bounds = global_bounds(&ctx);
        let mut b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x_wide = ctx.field();
        let mut wide = ChebyshevIteration::new(&ctx, ChebyMode::Global, bounds, 24);
        wide.solve(&ctx, &mut b, &mut x_wide);

        let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x_mixed = ctx.field();
        let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 24);
        mixed.solve(&ctx, &b, &mut x_mixed);

        let wi = x_wide.interior_to_host(&ctx.grid);
        let mi = x_mixed.interior_to_host(&ctx.grid);
        let scale: f64 = wi.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (a, b) in wi.iter().zip(&mi) {
            assert!(
                (a - b).abs() < 1e-4 * scale,
                "mixed diverged from f64: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn overlap_off_is_bitwise_identical() {
        // Like the f64 iteration, the split-phase schedule must not
        // change a single bit of the result.
        let ctx = ctx_single(5);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 23);
        let bounds = global_bounds(&ctx);
        let run = |overlap: bool| {
            let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            let mut x = ctx.field();
            let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 12);
            mixed.set_overlap(overlap);
            mixed.solve(&ctx, &b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let on = run(true);
        let off = run(false);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn application_is_linear_in_f32() {
        // Fixed single-precision polynomial => linear to f32 rounding.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let u = rng_values(n, 1);
        let two_u: Vec<f64> = u.iter().map(|v| 2.0 * v).collect();
        let apply = |rhs: &[f64]| -> Vec<f64> {
            let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, rhs);
            let mut x = ctx.field();
            let mut mixed =
                MixedChebyshev::new(&ctx, ChebyMode::GlobalNoComm, global_bounds(&ctx), 8);
            mixed.solve(&ctx, &b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let mu = apply(&u);
        let m2u = apply(&two_u);
        for i in 0..n {
            // scaling by 2 is exact in binary floating point
            assert_eq!(m2u[i], 2.0 * mu[i], "homogeneity violated at {i}");
        }
    }

    #[test]
    fn nan_poisoned_rhs_ghosts_do_not_leak() {
        // The down-cast reads only the interior and the iteration
        // refreshes its own f32 ghosts, so NaNs planted in the f64 RHS
        // ghost layers must not perturb a single output bit.
        let ctx = ctx_single(5);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 41);
        let bounds = global_bounds(&ctx);
        let run = |poison: bool| {
            let mut b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            if poison {
                let mi = ctx.grid.interior_map();
                let mut interior = vec![false; b.as_slice().len()];
                for k in 0..mi.nz {
                    for j in 0..mi.ny {
                        let off = mi.row_offset(j, k);
                        interior[off..off + mi.len]
                            .iter_mut()
                            .for_each(|m| *m = true);
                    }
                }
                for (v, keep) in b.as_mut_slice().iter_mut().zip(&interior) {
                    if !keep {
                        *v = f64::NAN;
                    }
                }
            }
            let mut x = ctx.field();
            let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 10);
            mixed.solve(&ctx, &b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let clean = run(false);
        let poisoned = run(true);
        for (c, p) in clean.iter().zip(&poisoned) {
            assert!(p.is_finite(), "a sweep read a poisoned ghost: {p}");
            assert_eq!(c.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn repeated_applications_are_identical() {
        // A *fixed* preconditioner: state carried in the rotation
        // buffers between applications must not change the result.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 55);
        let bounds = global_bounds(&ctx);
        let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 8);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            let mut x = ctx.field();
            mixed.solve(&ctx, &b, &mut x);
            outs.push(x.interior_to_host(&ctx.grid));
        }
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
