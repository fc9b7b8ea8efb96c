//! Matrix-free application of the discrete Poisson operator.
//!
//! The solver never stores the matrix: `A x` is a 7-point stencil sweep
//! over the subdomain interior (Sec. III-B), fused where the algorithm
//! allows with the local scalar products (`KernelBiCGS1/3` in Alg. 3).
//! Before any sweep the ghost layers must be current:
//!
//! 1. interface ghosts — [`blockgrid::HaloExchange`] (the `MPI*` stages);
//! 2. physical ghosts — [`apply_physical_bcs`] (the paper's
//!    `KernelNeumannBCs`): Neumann faces mirror the first interior plane
//!    across the boundary node (realising the `-2` row of Eq. 5), and
//!    Dirichlet faces are pinned to zero (the boundary values live in the
//!    right-hand side).

use accel::{
    fold_row_edge_last, row_has_deep_middle, Device, Extent3, KernelInfo, Recorder, RowMap, Scalar,
};
use blockgrid::{BcKind, BlockGrid, Field, LocalBoundary};

use crate::op1d::{EndKind, Op1d};

/// Cost metadata for the plain stencil sweep: streams u and w once
/// (2 × 8 B) and does ~10 flops per element.
pub const INFO_APPLY: KernelInfo = KernelInfo::new("KernelApplyA", 32, 10);
/// The `KernelNeumannBCs` ghost update (plane traffic folded into a
/// nominal per-element cost; it touches O(N²) of an O(N³) field).
pub const INFO_NEUMANN_BCS: KernelInfo = KernelInfo::new("KernelNeumannBCs", 16, 0);

/// The matrix-free 7-point Laplacian on one subdomain.
#[derive(Clone, Debug)]
pub struct Laplacian {
    grid: BlockGrid,
}

impl Laplacian {
    /// Build the operator for a subdomain.
    ///
    /// Requires at least two local unknowns along any axis whose faces
    /// include a physical Neumann boundary (the mirrored ghost of a
    /// 1-cell-thick subdomain would alias the opposite ghost layer).
    pub fn new(grid: &BlockGrid) -> Self {
        for a in 0..3 {
            let neumann = (0..2).any(|s| {
                matches!(
                    grid.boundary(a, s),
                    LocalBoundary::Physical(BcKind::Neumann)
                )
            });
            assert!(
                !(neumann && grid.local_n[a] < 2),
                "axis {a}: Neumann face needs at least 2 local unknowns, got {}",
                grid.local_n[a]
            );
        }
        Self { grid: grid.clone() }
    }

    /// The subdomain this operator acts on.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Per-axis 1-D operators of the *global* matrix (Eq. 6).
    pub fn global_ops(&self) -> [Op1d; 3] {
        std::array::from_fn(|a| {
            Op1d::new(
                self.grid.global.n[a],
                EndKind::from_bc(self.grid.global.bc[a][0]),
                EndKind::from_bc(self.grid.global.bc[a][1]),
            )
        })
    }

    /// Per-axis 1-D operators of the *local* restricted matrix
    /// `R_s A R_sᵀ` (interfaces truncate to Dirichlet-like ends, Eq. 13).
    pub fn local_ops(&self) -> [Op1d; 3] {
        std::array::from_fn(|a| {
            Op1d::new(
                self.grid.local_n[a],
                EndKind::from_local_boundary(self.grid.boundary(a, 0)),
                EndKind::from_local_boundary(self.grid.boundary(a, 1)),
            )
        })
    }

    #[inline(always)]
    fn coeffs<T: Scalar>(&self) -> ([T; 3], usize, usize) {
        let h = self.grid.global.h;
        let c: [T; 3] = std::array::from_fn(|a| T::from_f64(1.0 / (h[a] * h[a])));
        let p = self.grid.padded();
        (c, p[0], p[0] * p[1])
    }

    /// `w = A u` over the interior. `u`'s ghosts must be current.
    pub fn apply<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        self.apply_on_map(dev, info, self.grid.interior_map(), u, w);
    }

    /// Local interior extent as an [`Extent3`].
    #[inline(always)]
    fn local_extent(&self) -> Extent3 {
        let n = self.grid.local_n;
        Extent3::new(n[0], n[1], n[2])
    }

    /// Stencil sweep restricted to one sub-map of the interior.
    fn apply_on_map<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        map: RowMap,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        let (c, sy, sz) = self.coeffs::<T>();
        let us = u.as_slice();
        let base0 = map.base;
        dev.launch_rows(info, map, w.as_mut_slice(), |j, k, row| {
            let au = stencil_row(us, base0 + j * sy + k * sz, row.len(), sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
        });
    }

    /// `w = A u` over the *deep interior* only — the cells whose stencil
    /// reads no ghost layer. Safe to run while a split-phase halo exchange
    /// (`HaloExchange::begin`) is still in flight; pair with
    /// [`Laplacian::apply_shell`] after `finish` to complete the sweep.
    ///
    /// No-op when any local extent is below 3 (the whole interior is then
    /// ghost-adjacent and `apply_shell` covers it).
    pub fn apply_interior<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        if let Some(map) = RowMap::halo_deep_interior(self.local_extent()) {
            self.apply_on_map(dev, info, map, u, w);
        }
    }

    /// `w = A u` over the *ghost-adjacent shell* of the interior — the
    /// complement of [`Laplacian::apply_interior`]. Requires all ghost
    /// layers (halo + physical) to be current. Together the two cover each
    /// interior cell exactly once with arithmetic identical to
    /// [`Laplacian::apply`], so the split sweep is bitwise-equal to the
    /// monolithic one.
    pub fn apply_shell<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        for map in RowMap::halo_shell(self.local_extent()) {
            self.apply_on_map(dev, info, map, u, w);
        }
    }

    /// `w = A u` fused with the local dot `g · w` (the paper's
    /// `KernelBiCGS1`: `w = A p̂`, `p_sum = r̃ᵀ w`).
    ///
    /// The dot folds each row in the canonical edge-last order
    /// ([`fold_row_edge_last`]), so the result is bitwise identical to a
    /// plain `dot` over `w` after a separate apply.
    pub fn apply_fused_dot<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
        g: &Field<T>,
    ) -> T {
        let (c, sy, sz) = self.coeffs::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        let us = u.as_slice();
        let gs = g.as_slice();
        let base0 = map.base;
        let [dot] = dev.launch_rows_reduce(info, map, w.as_mut_slice(), |j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us, b, n, sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
            let g = &gs[b..][..n];
            let mid = row_has_deep_middle(nx, ny, nz, j, k);
            [fold_row_edge_last(n, mid, |i| g[i] * row[i])]
        });
        dot
    }

    /// Fused affine stencil sweep: `out = ca * (A u) + sum_i c_i * f_i`
    /// over the interior, with up to three extra fields (`N <= 3`,
    /// checked at compile time).
    ///
    /// This is the shape of the Chebyshev kernels of Algorithm 4:
    /// `KernelCI1` is `y = c1*b + ca*(A b)` and `KernelCI2` is
    /// `w = c1*y + c2*b + c3*z + ca*(A y)` — one stencil sweep each, no
    /// reductions (the iteration is reduction-free by construction).
    pub fn apply_combine<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        self.combine_on_map(dev, info, self.grid.interior_map(), u, out, ca, terms);
    }

    /// [`Laplacian::apply_combine`] over the deep interior only (see
    /// [`Laplacian::apply_interior`] for the overlap contract).
    pub fn apply_combine_interior<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        if let Some(map) = RowMap::halo_deep_interior(self.local_extent()) {
            self.combine_on_map(dev, info, map, u, out, ca, terms);
        }
    }

    /// [`Laplacian::apply_combine`] over the ghost-adjacent shell (see
    /// [`Laplacian::apply_shell`] for the overlap contract).
    pub fn apply_combine_shell<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        for map in RowMap::halo_shell(self.local_extent()) {
            self.combine_on_map(dev, info, map, u, out, ca, terms);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn combine_on_map<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        map: RowMap,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        const { assert!(N <= 3, "apply_combine supports at most 3 extra terms") };
        let (c, sy, sz) = self.coeffs::<T>();
        let us = u.as_slice();
        // The term slices live in a stack array sized at compile time: this
        // runs per shell piece in the preconditioner hot loop, where a heap
        // `collect` would break the solver's steady-state zero-allocation
        // guarantee.
        let terms = terms.map(|(f, coeff)| (f.as_slice(), coeff));
        let base0 = map.base;
        dev.launch_rows(info, map, out.as_mut_slice(), |j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us, b, n, sy, sz, c);
            let terms = terms.map(|(f, coeff)| (&f[b..][..n], coeff));
            for (i, o) in row.iter_mut().enumerate() {
                let mut v = ca * au(i);
                for (f, coeff) in &terms {
                    v += *coeff * f[i];
                }
                *o = v;
            }
        });
    }

    /// `t = A u` fused with the two local dots `(t · r, t · t)` (the
    /// paper's `KernelBiCGS3`). Each dot folds per row in the canonical
    /// edge-last order, matching the split form and the standalone
    /// `dot2` bitwise.
    pub fn apply_fused_dot2<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        t: &mut Field<T>,
        r: &Field<T>,
    ) -> (T, T) {
        let (c, sy, sz) = self.coeffs::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        let us = u.as_slice();
        let rs = r.as_slice();
        let base0 = map.base;
        let [tr, tt] = dev.launch_rows_reduce(info, map, t.as_mut_slice(), |j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us, b, n, sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
            let r = &rs[b..][..n];
            let mid = row_has_deep_middle(nx, ny, nz, j, k);
            [
                fold_row_edge_last(n, mid, |i| row[i] * r[i]),
                fold_row_edge_last(n, mid, |i| row[i] * row[i]),
            ]
        });
        (tr, tt)
    }

    /// `t = A u` fused with the three local dots `(t · r, t · t, g · t)`
    /// — the `KernelBiCGS3F` sweep: the second stencil apply of the
    /// Bi-CGSTAB iteration produces every scalar the ω-step needs
    /// (`p1 = t·r`, `p2 = t·t`, `c4 = r̃ᵀ t`) in one pass. Per-component
    /// folds match [`Laplacian::apply_fused_dot2`] plus a separate
    /// `dot(g, t)` bitwise.
    pub fn apply_fused_dot3<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        t: &mut Field<T>,
        r: &Field<T>,
        g: &Field<T>,
    ) -> (T, T, T) {
        let (c, sy, sz) = self.coeffs::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        let us = u.as_slice();
        let rs = r.as_slice();
        let gs = g.as_slice();
        let base0 = map.base;
        let [tr, tt, gt] = dev.launch_rows_reduce(info, map, t.as_mut_slice(), |j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us, b, n, sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
            let (r, g) = (&rs[b..][..n], &gs[b..][..n]);
            let mid = row_has_deep_middle(nx, ny, nz, j, k);
            [
                fold_row_edge_last(n, mid, |i| row[i] * r[i]),
                fold_row_edge_last(n, mid, |i| row[i] * row[i]),
                fold_row_edge_last(n, mid, |i| g[i] * row[i]),
            ]
        });
        (tr, tt, gt)
    }

    /// Batched `KernelBiCGS1`: per-lane `w = A u` fused with the local
    /// dot `g · w`, every lane of a multi-RHS solve in one launch. The
    /// device strides lanes inside a single grid sweep (one kernel-launch
    /// event for the whole batch) while folding each lane's rows with a
    /// private accumulator in solo order, so lane `s` — field and scalar
    /// — is bitwise identical to [`Laplacian::apply_fused_dot`] over the
    /// same fields. Slices are full padded lane arrays with current
    /// ghosts; per-lane dots land in `accs[s]`.
    pub fn apply_fused_dot_batch<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        us: &[&[T]],
        ws: &mut [&mut [T]],
        gs: &[&[T]],
        accs: &mut [[T; 1]],
    ) {
        assert_eq!(us.len(), ws.len(), "lane count mismatch");
        assert_eq!(us.len(), gs.len(), "lane count mismatch");
        let (c, sy, sz) = self.coeffs::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        let base0 = map.base;
        dev.launch_lanes_reduce(info, map, ws, accs, |s, j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us[s], b, n, sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
            let g = &gs[s][b..][..n];
            let mid = row_has_deep_middle(nx, ny, nz, j, k);
            [fold_row_edge_last(n, mid, |i| g[i] * row[i])]
        });
    }

    /// Batched `KernelBiCGS3F`: per-lane `t = A u` fused with the three
    /// local dots `(t · r, t · t, g · t)`, every lane in one launch.
    /// Lane `s` is bitwise identical to
    /// [`Laplacian::apply_fused_dot3`] over the same fields; per-lane
    /// dot triples land in `accs[s]`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_fused_dot3_batch<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        us: &[&[T]],
        ts: &mut [&mut [T]],
        rs: &[&[T]],
        gs: &[&[T]],
        accs: &mut [[T; 3]],
    ) {
        assert_eq!(us.len(), ts.len(), "lane count mismatch");
        assert_eq!(us.len(), rs.len(), "lane count mismatch");
        assert_eq!(us.len(), gs.len(), "lane count mismatch");
        let (c, sy, sz) = self.coeffs::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        let base0 = map.base;
        dev.launch_lanes_reduce(info, map, ts, accs, |s, j, k, row| {
            let (b, n) = (base0 + j * sy + k * sz, row.len());
            let au = stencil_row(us[s], b, n, sy, sz, c);
            for (i, out) in row.iter_mut().enumerate() {
                *out = au(i);
            }
            let (r, g) = (&rs[s][b..][..n], &gs[s][b..][..n]);
            let mid = row_has_deep_middle(nx, ny, nz, j, k);
            [
                fold_row_edge_last(n, mid, |i| row[i] * r[i]),
                fold_row_edge_last(n, mid, |i| row[i] * row[i]),
                fold_row_edge_last(n, mid, |i| g[i] * row[i]),
            ]
        });
    }
}

/// Update the physical-boundary ghost layers of `field` (the paper's
/// `KernelNeumannBCs` stage): mirror interior planes across Neumann faces,
/// zero Dirichlet faces. Interface ghosts are untouched — they belong to
/// the halo exchange.
///
/// When `restricted` is `true`, interface ghosts are *also* zeroed: this
/// turns the sweep into the Block-Jacobi restricted operator `R_s A R_sᵀ`
/// of Eq. 13 (used by the BJ and GNoComm preconditioners, which skip all
/// communication).
pub fn apply_physical_bcs<T: Scalar>(
    grid: &BlockGrid,
    field: &mut Field<T>,
    recorder: &Recorder,
    restricted: bool,
) {
    let n = grid.local_n;
    let mut ghost_elems = 0usize;
    for axis in 0..3 {
        for side in 0..2 {
            enum Action {
                Mirror,
                Zero,
                Skip,
            }
            let action = match (grid.boundary(axis, side), restricted) {
                (LocalBoundary::Physical(BcKind::Neumann), _) => Action::Mirror,
                (LocalBoundary::Physical(BcKind::Dirichlet), _) => Action::Zero,
                (LocalBoundary::Interface { .. }, true) => Action::Zero,
                (LocalBoundary::Interface { .. }, false) => Action::Skip,
            };
            if matches!(action, Action::Skip) {
                continue;
            }
            // ghost plane coordinate and its mirror (one-in from the
            // boundary node, i.e. two steps from the ghost)
            let (ghost, mirror) = if side == 0 {
                (0, 2)
            } else {
                (n[axis] + 1, n[axis] - 1)
            };
            let (pa, pb) = match axis {
                0 => (n[1], n[2]),
                1 => (n[0], n[2]),
                _ => (n[0], n[1]),
            };
            ghost_elems += pa * pb;
            let data = field.as_mut_slice();
            for b in 1..=pb {
                for a in 1..=pa {
                    let (gi, mi) = match axis {
                        0 => (field_idx(grid, ghost, a, b), field_idx(grid, mirror, a, b)),
                        1 => (field_idx(grid, a, ghost, b), field_idx(grid, a, mirror, b)),
                        _ => (field_idx(grid, a, b, ghost), field_idx(grid, a, b, mirror)),
                    };
                    data[gi] = match action {
                        Action::Mirror => data[mi],
                        Action::Zero => T::ZERO,
                        Action::Skip => unreachable!(),
                    };
                }
            }
        }
    }
    recorder.kernel(INFO_NEUMANN_BCS, ghost_elems);
}

#[inline(always)]
fn field_idx(grid: &BlockGrid, i: usize, j: usize, k: usize) -> usize {
    grid.idx(i, j, k)
}

/// The 7-point stencil over one interior row: `b` is the padded index of
/// the row's first cell, `n` its length, `sy`/`sz` the padded strides and
/// `[cx, cy, cz]` the per-axis `1/h²` coefficients.
///
/// Each of the seven input rows (centre, ±x, ±y, ±z) is sliced once to
/// exactly `n` elements, so inside a `0..n` loop every read of the
/// returned evaluator is provably in bounds: the checks fold away and
/// the loop vectorises across `i`. The expression is the single source
/// of the stencil's operation order — no `mul_add`, no reassociation —
/// so vector and scalar code, and every back-end, produce the same bits.
#[inline(always)]
fn stencil_row<T: Scalar>(
    us: &[T],
    b: usize,
    n: usize,
    sy: usize,
    sz: usize,
    [cx, cy, cz]: [T; 3],
) -> impl Fn(usize) -> T + '_ {
    let row = |start: usize| &us[start..][..n];
    let (mid, west, east) = (row(b), row(b - 1), row(b + 1));
    let (south, north) = (row(b - sy), row(b + sy));
    let (down, up) = (row(b - sz), row(b + sz));
    let two = T::from_f64(2.0);
    move |i| {
        let uc = mid[i];
        cx * (two * uc - west[i] - east[i])
            + cy * (two * uc - south[i] - north[i])
            + cz * (two * uc - down[i] - up[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::assemble_poisson;
    use accel::{GpuSimParams, Serial, SimGpu, Threads};
    use blockgrid::{Decomp, GlobalGrid};

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        // small deterministic LCG; avoids pulling rand into the hot crate
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
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
    fn batched_fused_dots_bitwise_match_solo_per_lane() {
        // apply_fused_dot_batch / apply_fused_dot3_batch must leave each
        // lane — output field and reduction scalars — bitwise identical
        // to the solo fused sweeps, on every back-end.
        let bc = [[BcKind::Dirichlet, BcKind::Neumann]; 3];
        let grid = single_rank_grid([5, 4, 3], bc);
        let lap = Laplacian::new(&grid);
        let nb = 3;
        let n = grid.global.unknowns();
        let run = |dev: &dyn Fn() -> accel::AnyDevice| {
            let dev = dev();
            let mk = |seed: u64| {
                let mut f = Field::from_interior(&dev, &grid, &rng_values(n, seed));
                apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
                f
            };
            let us: Vec<Field<f64>> = (0..nb).map(|l| mk(70 + l as u64)).collect();
            let rs: Vec<Field<f64>> = (0..nb).map(|l| mk(80 + l as u64)).collect();
            let gs: Vec<Field<f64>> = (0..nb).map(|l| mk(90 + l as u64)).collect();
            let mut w_b: Vec<Field<f64>> = (0..nb).map(|_| Field::zeros(&dev, &grid)).collect();
            let mut accs1 = vec![[0.0f64; 1]; nb];
            {
                let usl: Vec<&[f64]> = us.iter().map(|f| f.as_slice()).collect();
                let gsl: Vec<&[f64]> = gs.iter().map(|f| f.as_slice()).collect();
                let mut wm: Vec<&mut [f64]> = w_b.iter_mut().map(|f| f.as_mut_slice()).collect();
                lap.apply_fused_dot_batch(&dev, INFO_APPLY, &usl, &mut wm, &gsl, &mut accs1);
            }
            let mut t_b: Vec<Field<f64>> = (0..nb).map(|_| Field::zeros(&dev, &grid)).collect();
            let mut accs3 = vec![[0.0f64; 3]; nb];
            {
                let usl: Vec<&[f64]> = us.iter().map(|f| f.as_slice()).collect();
                let rsl: Vec<&[f64]> = rs.iter().map(|f| f.as_slice()).collect();
                let gsl: Vec<&[f64]> = gs.iter().map(|f| f.as_slice()).collect();
                let mut tm: Vec<&mut [f64]> = t_b.iter_mut().map(|f| f.as_mut_slice()).collect();
                lap.apply_fused_dot3_batch(&dev, INFO_APPLY, &usl, &mut tm, &rsl, &gsl, &mut accs3);
            }
            for l in 0..nb {
                let mut w_ref = Field::zeros(&dev, &grid);
                let d = lap.apply_fused_dot(&dev, INFO_APPLY, &us[l], &mut w_ref, &gs[l]);
                assert_eq!(accs1[l][0].to_bits(), d.to_bits());
                for (a, b) in w_b[l].as_slice().iter().zip(w_ref.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                let mut t_ref = Field::zeros(&dev, &grid);
                let (tr, tt, gt) =
                    lap.apply_fused_dot3(&dev, INFO_APPLY, &us[l], &mut t_ref, &rs[l], &gs[l]);
                assert_eq!(accs3[l][0].to_bits(), tr.to_bits());
                assert_eq!(accs3[l][1].to_bits(), tt.to_bits());
                assert_eq!(accs3[l][2].to_bits(), gt.to_bits());
                for (a, b) in t_b[l].as_slice().iter().zip(t_ref.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        };
        run(&|| accel::AnyDevice::Serial(Serial::new(Recorder::disabled())));
        run(&|| accel::AnyDevice::Threads(Threads::new(3, Recorder::disabled())));
        run(&|| {
            accel::AnyDevice::SimGpu(SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()))
        });
    }

    fn single_rank_grid(n: [usize; 3], bc: [[BcKind; 2]; 3]) -> BlockGrid {
        let mut g = GlobalGrid::dirichlet(n, [0.3, 0.5, 0.7], [0.0; 3]);
        g.bc = bc;
        BlockGrid::new(g, Decomp::single(), 0)
    }

    /// Dense reference: y = A x for the global operator.
    fn dense_apply(grid: &BlockGrid, x: &[f64]) -> Vec<f64> {
        let lap = Laplacian::new(grid);
        let m = assemble_poisson(&lap.global_ops(), grid.global.h);
        m.matvec(x)
    }

    fn check_apply_matches_dense(bc: [[BcKind; 2]; 3]) {
        let grid = single_rank_grid([4, 3, 5], bc);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(grid.global.unknowns(), 42);
        let u = Field::from_interior(&dev, &grid, &x);
        let mut u = u;
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let mut w = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut w);
        let got = w.interior_to_host(&grid);
        let expect = dense_apply(&grid, &x);
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "entry {i}: {a} vs {b} (bc {bc:?})");
        }
    }

    #[test]
    fn apply_matches_dense_all_dirichlet() {
        check_apply_matches_dense([[BcKind::Dirichlet; 2]; 3]);
    }

    #[test]
    fn apply_matches_dense_paper_bcs() {
        // paper: Dirichlet on x-, y+, z+; Neumann on x+, y-, z-
        check_apply_matches_dense([
            [BcKind::Dirichlet, BcKind::Neumann],
            [BcKind::Neumann, BcKind::Dirichlet],
            [BcKind::Neumann, BcKind::Dirichlet],
        ]);
    }

    #[test]
    fn apply_matches_dense_all_neumann_x() {
        check_apply_matches_dense([
            [BcKind::Neumann, BcKind::Neumann],
            [BcKind::Dirichlet, BcKind::Dirichlet],
            [BcKind::Dirichlet, BcKind::Neumann],
        ]);
    }

    #[test]
    fn fused_dot_matches_separate() {
        let grid = single_rank_grid([5, 4, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(grid.global.unknowns(), 7);
        let gv = rng_values(grid.global.unknowns(), 8);
        let mut u = Field::from_interior(&dev, &grid, &x);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let g = Field::from_interior(&dev, &grid, &gv);
        let mut w = Field::zeros(&dev, &grid);
        let dot = lap.apply_fused_dot(&dev, INFO_APPLY, &u, &mut w, &g);
        let wi = w.interior_to_host(&grid);
        let expect: f64 = wi.iter().zip(&gv).map(|(a, b)| a * b).sum();
        assert!((dot - expect).abs() < 1e-12);
    }

    #[test]
    fn fused_dot2_matches_separate() {
        let grid = single_rank_grid([3, 3, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(27, 3);
        let rv = rng_values(27, 4);
        let mut u = Field::from_interior(&dev, &grid, &x);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let r = Field::from_interior(&dev, &grid, &rv);
        let mut t = Field::zeros(&dev, &grid);
        let (tr, tt) = lap.apply_fused_dot2(&dev, INFO_APPLY, &u, &mut t, &r);
        let ti = t.interior_to_host(&grid);
        let e_tr: f64 = ti.iter().zip(&rv).map(|(a, b)| a * b).sum();
        let e_tt: f64 = ti.iter().map(|a| a * a).sum();
        // fused and separate sums use different groupings; compare relatively
        assert!((tr - e_tr).abs() < 1e-12 * e_tr.abs().max(1.0));
        assert!((tt - e_tt).abs() < 1e-12 * e_tt.max(1.0));
    }

    #[test]
    fn apply_combine_matches_composition() {
        let grid = single_rank_grid([4, 4, 4], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let n = 64;
        let uv = rng_values(n, 1);
        let f1v = rng_values(n, 2);
        let f2v = rng_values(n, 3);
        let mut u = Field::from_interior(&dev, &grid, &uv);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let f1 = Field::from_interior(&dev, &grid, &f1v);
        let f2 = Field::from_interior(&dev, &grid, &f2v);
        let mut out = Field::zeros(&dev, &grid);
        let (ca, c1, c2) = (0.25, -1.5, 2.0);
        lap.apply_combine(&dev, INFO_APPLY, &u, &mut out, ca, [(&f1, c1), (&f2, c2)]);
        // reference: separate apply then axpys
        let mut au = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut au);
        let aui = au.interior_to_host(&grid);
        let got = out.interior_to_host(&grid);
        for i in 0..n {
            let expect = ca * aui[i] + c1 * f1v[i] + c2 * f2v[i];
            assert!(
                (got[i] - expect).abs() < 1e-13 * expect.abs().max(1.0),
                "{i}"
            );
        }
    }

    #[test]
    fn apply_combine_no_terms_is_scaled_apply() {
        let grid = single_rank_grid([3, 3, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let uv = rng_values(27, 5);
        let mut u = Field::from_interior(&dev, &grid, &uv);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let mut out = Field::zeros(&dev, &grid);
        lap.apply_combine(&dev, INFO_APPLY, &u, &mut out, -1.0, []);
        let mut au = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut au);
        let a = out.interior_to_host(&grid);
        let b = au.interior_to_host(&grid);
        for i in 0..27 {
            assert_eq!(a[i], -b[i]);
        }
    }

    #[test]
    fn same_result_across_backends() {
        let grid = single_rank_grid(
            [6, 5, 4],
            [
                [BcKind::Dirichlet, BcKind::Neumann],
                [BcKind::Neumann, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
            ],
        );
        let x = rng_values(grid.global.unknowns(), 11);
        let run = |devname: &str| -> Vec<f64> {
            let rec = Recorder::disabled();
            let lap = Laplacian::new(&grid);
            match devname {
                "serial" => {
                    let dev = Serial::new(rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
                "threads" => {
                    let dev = Threads::new(3, rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
                _ => {
                    let dev = SimGpu::new(GpuSimParams::mi250x(), rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
            }
        };
        let a = run("serial");
        let b = run("threads");
        let c = run("gpu");
        assert_eq!(a, b, "elementwise kernels must agree exactly");
        assert_eq!(a, c);
    }

    #[test]
    fn split_apply_bitwise_matches_monolithic() {
        for n in [[5usize, 4, 6], [3, 3, 3], [2, 5, 4], [1, 1, 7]] {
            let grid = single_rank_grid(
                n,
                [
                    [BcKind::Dirichlet, BcKind::Neumann],
                    [BcKind::Neumann, BcKind::Dirichlet],
                    [BcKind::Dirichlet, BcKind::Dirichlet],
                ],
            );
            if (0..3).any(|a| grid.local_n[a] < 2) {
                continue; // Neumann faces need 2 unknowns; keep thin case Dirichlet-only
            }
            let dev = Serial::new(Recorder::disabled());
            let lap = Laplacian::new(&grid);
            let x = rng_values(grid.global.unknowns(), 13);
            let mut u = Field::from_interior(&dev, &grid, &x);
            apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
            let mut w_full = Field::zeros(&dev, &grid);
            lap.apply(&dev, INFO_APPLY, &u, &mut w_full);
            let mut w_split = Field::zeros(&dev, &grid);
            lap.apply_interior(&dev, INFO_APPLY, &u, &mut w_split);
            lap.apply_shell(&dev, INFO_APPLY, &u, &mut w_split);
            assert_eq!(
                w_full.interior_to_host(&grid),
                w_split.interior_to_host(&grid),
                "split sweep must be bitwise equal for {n:?}"
            );
        }
    }

    #[test]
    fn split_combine_bitwise_matches_monolithic() {
        let grid = single_rank_grid([5, 4, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let n = grid.global.unknowns();
        let uv = rng_values(n, 6);
        let f1v = rng_values(n, 7);
        let mut u = Field::from_interior(&dev, &grid, &uv);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let f1 = Field::from_interior(&dev, &grid, &f1v);
        let mut full = Field::zeros(&dev, &grid);
        lap.apply_combine(&dev, INFO_APPLY, &u, &mut full, 0.5, [(&f1, -2.0)]);
        let mut split = Field::zeros(&dev, &grid);
        lap.apply_combine_interior(&dev, INFO_APPLY, &u, &mut split, 0.5, [(&f1, -2.0)]);
        lap.apply_combine_shell(&dev, INFO_APPLY, &u, &mut split, 0.5, [(&f1, -2.0)]);
        assert_eq!(full.interior_to_host(&grid), split.interior_to_host(&grid));
    }

    #[test]
    fn restricted_bcs_zero_interface_ghosts() {
        // two ranks in x; rank 0 high-x face is an interface
        let mut g = GlobalGrid::dirichlet([8, 4, 4], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::new([2, 1, 1]), 0);
        let dev = Serial::new(Recorder::disabled());
        let mut f = Field::from_interior(&dev, &grid, &vec![1.0f64; 4 * 4 * 4]);
        // scribble an "exchanged" value into the interface ghost
        let gi = grid.idx(5, 2, 2);
        f.as_mut_slice()[gi] = 7.0;
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
        assert_eq!(f.as_slice()[gi], 7.0, "unrestricted keeps interface ghosts");
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), true);
        assert_eq!(f.as_slice()[gi], 0.0, "restricted zeroes interface ghosts");
    }

    #[test]
    fn neumann_mirror_values() {
        let grid = single_rank_grid(
            [4, 2, 2],
            [
                [BcKind::Neumann, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
            ],
        );
        let dev = Serial::new(Recorder::disabled());
        let interior: Vec<f64> = (0..16).map(|i| i as f64 + 1.0).collect();
        let mut f = Field::from_interior(&dev, &grid, &interior);
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
        // ghost (0, j, k) must equal interior (2, j, k)
        for k in 1..=2 {
            for j in 1..=2 {
                assert_eq!(
                    f.as_slice()[grid.idx(0, j, k)],
                    f.as_slice()[grid.idx(2, j, k)]
                );
            }
        }
        // Dirichlet high-x ghost is zero
        assert_eq!(f.as_slice()[grid.idx(5, 1, 1)], 0.0);
    }

    #[test]
    fn local_ops_classify_interfaces() {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Neumann, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::new([2, 1, 1]), 0);
        let lap = Laplacian::new(&grid);
        let local = lap.local_ops();
        assert_eq!(local[0].lo, EndKind::Neumann);
        assert_eq!(local[0].hi, EndKind::DirichletLike); // interface
        let global = lap.global_ops();
        assert_eq!(global[0].n, 8);
        assert_eq!(local[0].n, 4);
    }

    #[test]
    #[should_panic(expected = "Neumann face needs at least 2")]
    fn thin_neumann_subdomain_rejected() {
        let mut g = GlobalGrid::dirichlet([1, 4, 4], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Neumann, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let _ = Laplacian::new(&grid);
    }
}
