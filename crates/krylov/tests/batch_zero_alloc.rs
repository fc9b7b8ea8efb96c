//! Steady-state allocation audit of the batched Bi-CGSTAB lane driver.
//!
//! The lane driver rebuilds its per-launch lane lists every sweep and
//! keeps per-lane scalars between steps; all of it must come from buffers
//! parked in the lanes' [`Workspace`]s, so that after one warm-up solve a
//! repeated 2-lane solve on the default schedule — fused kernels, batched
//! halo exchanges, split-phase batched reductions and the lagged drain at
//! the iteration cap — does not touch the heap.
//!
//! This file holds a single test on purpose: a `#[global_allocator]` is
//! binary-wide, and a lone test keeps other harness threads from muddying
//! the audit. The counter is per-thread, so each rank audits only itself.
//!
//! [`Workspace`]: krylov::Workspace

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel::{Recorder, Serial};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder, ThreadComm};
use krylov::{
    bicgstab_solve_batch, RankCtx, Scope, SolveOutcome, SolveParams, SolverKind, SolverOptions,
    Workspace,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator that bumps the calling thread's counter on every
/// allocation or reallocation (frees are not counted).
struct CountingAlloc;

// SAFETY: pure passthrough to `System`; the only extra work is a TLS
// counter bump, which never allocates and never panics (`try_with`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` come from this allocator (same `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator (same `System`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn batched_solve_is_allocation_free_after_warmup() {
    let decomp = Decomp::new([2, 2, 2]);
    let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
    let counts = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
        let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
        let n: usize = grid.local_n.iter().product();
        let lane = |seed: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i + seed) % 13) as f64 * 0.25 + 1.0)
                .collect()
        };
        let dev = Serial::new(Recorder::disabled());
        let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
        let b0 = Field::from_interior(&ctx.dev, &ctx.grid, &lane(0));
        let b1 = Field::from_interior(&ctx.dev, &ctx.grid, &lane(5));
        let (mut x0, mut x1) = (ctx.field(), ctx.field());
        let mut ws: Vec<Workspace<f64>> = (0..2)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let mut outs = vec![SolveOutcome::default(); 2];
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..SolverOptions::default()
        };
        // The default schedule with a communicating Chebyshev
        // preconditioner per lane. An unreachable tolerance pins the
        // iteration count, so every lane ends in the lagged drain.
        let mut p0 = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
        let mut p1 = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
        let params = SolveParams {
            tol: 1e-300,
            max_iters: 4,
            record_history: false,
            ..Default::default()
        };
        let mut solve = |x0: &mut Field<f64>, x1: &mut Field<f64>| {
            x0.fill_zero();
            x1.fill_zero();
            bicgstab_solve_batch(
                &ctx,
                Scope::Global,
                &[&b0, &b1],
                &mut [x0, x1],
                &mut [&mut *p0, &mut *p1],
                &mut ws,
                &params,
                &[],
                &mut outs,
            );
        };

        // Warm-up: one solve populates the halo buffer pool, the
        // communicator's per-(peer, tag) queues and the lane driver's
        // parked buffers.
        solve(&mut x0, &mut x1);
        // Every rank warm before anyone starts counting.
        ctx.comm.all_reduce(&mut [0.0f64], ReduceOp::Sum);

        let before = my_allocs();
        solve(&mut x0, &mut x1);
        let allocs = my_allocs() - before;
        assert!(
            outs.iter().all(|o| o.iterations == 4 && !o.converged),
            "{outs:?}"
        );
        allocs
    });
    for (rank, &n) in counts.iter().enumerate() {
        assert_eq!(
            n, 0,
            "rank {rank}: {n} heap allocations in the steady-state batched solve"
        );
    }
}
