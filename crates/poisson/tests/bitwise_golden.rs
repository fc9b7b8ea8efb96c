//! Golden bit patterns of the mixed-precision and full-precision paths.
//!
//! Each test folds every output bit (`to_bits`) of a small deterministic
//! run into an FNV-1a hash and compares it with a constant. The
//! constants pin the iterates, residual histories and ghost planes
//! bitwise, so a refactor of the Chebyshev sweep or of the halo wire
//! format that changes a single rounding — or a single ghost value —
//! fails here even when every tolerance-based test still passes.

use accel::{Recorder, Serial};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use comm::{run_ranks, Communicator, ReduceOrder};
use krylov::{
    global_bounds, ChebyMode, MixedChebyshev, RankCtx, SolveParams, SolverKind, SolverOptions,
};
use poisson::{paper_problem, PoissonSolver};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold the little-endian bytes of `bits` into an FNV-1a hash.
fn fnv(hash: u64, bits: u64) -> u64 {
    bits.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn hash_f64(hash: u64, values: &[f64]) -> u64 {
    values.iter().fold(hash, |h, v| fnv(h, v.to_bits()))
}

fn hash_f32(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv(h, u64::from(v.to_bits())))
}

/// Deterministic values in `[-1, 1)` (an LCG, identical on every host).
fn lcg_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

/// Hash of every rank's result, in rank order.
fn combine(per_rank: &[u64]) -> u64 {
    per_rank.iter().fold(FNV_OFFSET, |h, &r| fnv(h, r))
}

#[test]
fn mixed_chebyshev_application_bits_are_pinned() {
    // One G(CI/f32) application on two ranks: the down-cast, 24 f32
    // sweeps with split-phase f32 halo exchanges, and the up-cast.
    let decomp = Decomp::new([2, 1, 1]);
    let global = paper_problem(15).discretize();
    let per_rank = run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
        let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
        let ctx = RankCtx::new(Serial::new(Recorder::disabled()), comm, grid);
        let n: usize = ctx.grid.local_n.iter().product();
        let rhs = lcg_values(n, 7 + ctx.grid.offset[0] as u64);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x = ctx.field();
        let bounds = global_bounds(&ctx).rescaled(1e-4, 10.0);
        let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 24);
        mixed.solve(&ctx, &b, &mut x);
        hash_f64(FNV_OFFSET, &x.interior_to_host(&ctx.grid))
    });
    assert_eq!(
        combine(&per_rank),
        0x37ac29078d506a3d,
        "MixedChebyshev output bits changed"
    );
}

/// Residual history and solution hash of a 2-rank `[2,1,1]` G(CI) solve.
fn gci_two_rank_hash(mixed_precision: bool) -> (usize, u64) {
    let decomp = Decomp::new([2, 1, 1]);
    let per_rank = run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
        let dev = Serial::new(Recorder::disabled());
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(17), decomp, dev, comm);
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            mixed_precision,
            ..Default::default()
        };
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 500,
            record_history: true,
            ..Default::default()
        };
        let out = solver.solve(SolverKind::BiCgsGCi, &opts, &params);
        assert!(out.converged, "G(CI) did not converge");
        let h = hash_f64(FNV_OFFSET, &out.residual_history);
        (out.iterations, hash_f64(h, &solver.solution_local()))
    });
    let hashes: Vec<u64> = per_rank.iter().map(|&(_, h)| h).collect();
    (per_rank[0].0, combine(&hashes))
}

#[test]
fn gci_two_rank_solve_bits_are_pinned() {
    assert_eq!(
        gci_two_rank_hash(false),
        (5, 0xb55f879c7c3b468d),
        "f64 G(CI) solve bits changed"
    );
}

#[test]
fn mixed_gci_two_rank_solve_bits_are_pinned() {
    assert_eq!(
        gci_two_rank_hash(true),
        (5, 0x357f367e24277e98),
        "mixed G(CI) solve bits changed"
    );
}

#[test]
fn f32_exchange_ghost_plane_bits_are_pinned() {
    // Uneven 3x2x2 split: odd face sizes exercise the zero tail lane of
    // the two-lanes-per-word wire packing.
    let decomp = Decomp::new([3, 2, 2]);
    let per_rank = run_ranks::<f64, _, _>(12, ReduceOrder::RankOrder, move |comm| {
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([7, 5, 6], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, decomp, comm.rank());
        let n: usize = grid.local_n.iter().product();
        let interior: Vec<f32> = lcg_values(n, 3 + comm.rank() as u64)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let mut field = Field::from_interior(&dev, &grid, &interior);
        let halo = blockgrid::HaloExchange::<f64>::new(&grid);
        halo.exchange_f32(&dev, &comm, &mut field);
        hash_f32(FNV_OFFSET, field.as_slice())
    });
    assert_eq!(
        combine(&per_rank),
        0x06f314bfe5dcb659,
        "f32 ghost plane bits changed"
    );
}
