//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! preconditioner communication, Chebyshev sweep count, eigenvalue
//! rescaling, kernel fusion, and reduction ordering.

use accel::{Recorder, Serial};
use blockgrid::{Decomp, Field};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use krylov::kernels::{dot, INFO_DOT};
use krylov::{SolveParams, SolverKind, SolverOptions};
use poisson::{paper_problem, PoissonSolver};
use stencil::{apply_physical_bcs, Laplacian, INFO_APPLY};

fn solve_time(kind: SolverKind, opts: &SolverOptions) -> usize {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(17),
        Decomp::single(),
        Serial::new(Recorder::disabled()),
        comm::SelfComm::default(),
    );
    let out = solver.solve(
        kind,
        opts,
        &SolveParams {
            tol: 1e-10,
            max_iters: 20_000,
            record_history: false,
            ..Default::default()
        },
    );
    assert!(out.converged);
    out.iterations
}

/// G(CI) vs GNoComm(CI): the cost of communicating in the preconditioner.
fn ablation_comm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_comm");
    group.sample_size(10);
    let opts = SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    };
    for kind in [
        SolverKind::BiCgsGCi,
        SolverKind::BiCgsGNoCommCi,
        SolverKind::BiCgsBjCi,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            b.iter(|| solve_time(k, &opts));
        });
    }
    group.finish();
}

/// Chebyshev sweep-count sweep around the paper's N_s/2 bound.
fn ablation_ci_iters(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ci_iters");
    group.sample_size(10);
    for sweeps in [6usize, 12, 24, 48] {
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ci_iterations: sweeps,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(sweeps), &sweeps, |b, _| {
            b.iter(|| solve_time(SolverKind::BiCgsGNoCommCi, &opts));
        });
    }
    group.finish();
}

/// Bergamaschi eigenvalue rescaling on/off.
fn ablation_rescale(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rescale");
    group.sample_size(10);
    for (label, min_factor) in [("raw_bounds", 1.0), ("rescaled_x10", 10.0)] {
        let opts = SolverOptions {
            eig_min_factor: min_factor,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| solve_time(SolverKind::BiCgsGNoCommCi, &opts));
        });
    }
    group.finish();
}

/// Fused stencil+dot (KernelBiCGS1) vs separate apply-then-dot — the
/// temporal-locality claim of Sec. III-B.
fn ablation_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fusion");
    let n = 32;
    let grid = blockgrid::BlockGrid::new(
        blockgrid::GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
        Decomp::single(),
        0,
    );
    let dev = Serial::new(Recorder::disabled());
    let lap = Laplacian::new(&grid);
    let vals: Vec<f64> = (0..n * n * n).map(|i| (i % 89) as f64 / 89.0).collect();
    let mut u = Field::from_interior(&dev, &grid, &vals);
    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
    let g = Field::from_interior(&dev, &grid, &vals);
    let mut w = Field::zeros(&dev, &grid);
    group.bench_function("fused", |b| {
        b.iter(|| lap.apply_fused_dot(&dev, INFO_APPLY, &u, &mut w, &g));
    });
    group.bench_function("separate", |b| {
        b.iter(|| {
            lap.apply(&dev, INFO_APPLY, &u, &mut w);
            dot(&dev, INFO_DOT, &grid, &g, &w)
        });
    });
    group.finish();
}

/// Split-phase overlapped halo exchange vs the synchronous exchange, per
/// operator application, on the Threads back-end at 8 ranks (2×2×2).
///
/// The in-process communicator delivers messages in nanoseconds, and on a
/// shared CI host the OS scheduler interleaves all eight rank threads on
/// the same cores, so raw wall time cannot expose what overlap buys on a
/// real interconnect (even sleep-based latency emulation is void: while
/// one rank sleeps on a "wire", the scheduler runs the other ranks'
/// compute, hiding the latency in *both* arms). This bench therefore
/// follows the repo's standing methodology (DESIGN.md, EXPERIMENTS.md):
/// run the real 8-rank Threads world, record each rank's logical event
/// stream — kernel launches with measured byte/flop footprints, halo
/// message counts and bytes, overlap windows — and report that stream's
/// modeled time on the paper's LUMI-G machine model, where a split-phase
/// window costs `max(comm, in-window compute)`. The reported duration is
/// the slowest rank's modeled per-application time; the event streams it
/// prices are measured, not synthesized.
fn ablation_halo_overlap(c: &mut Criterion) {
    use accel::{Event, Threads};
    use blockgrid::{BlockGrid, GlobalGrid, HaloExchange};
    use comm::run_ranks_recorded;
    use perfmodel::MachineModel;
    use std::time::Duration;

    const RANKS: usize = 8;

    // One operator application's event stream per rank, measured live.
    let record_world = |overlap: bool| -> Vec<Vec<Event>> {
        let decomp = Decomp::new([2, 2, 2]);
        // Local 96³ per rank: the regime where one face-wave of halo
        // latency rivals the interior sweep (the paper's Fig. 6 balance
        // at 64 ranks), i.e. where split-phase overlap pays off most.
        let global = GlobalGrid::dirichlet([192, 192, 192], [0.05; 3], [0.0; 3]);
        // Size the worker pool like an MPI+OpenMP job: cores / ranks,
        // at least one; oversubscription would only slow the recording.
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let recorders: Vec<Recorder> = (0..RANKS).map(|_| Recorder::enabled()).collect();
        run_ranks_recorded::<f64, _, _>(RANKS, ReduceOrder::RankOrder, recorders, move |comm| {
            let rec = comm.recorder().clone();
            let dev = Threads::new(workers, rec.clone());
            let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
            let vals: Vec<f64> = (0..grid.local_n.iter().product())
                .map(|i| (i % 97) as f64 / 97.0)
                .collect();
            let mut u = Field::from_interior(&dev, &grid, &vals);
            let lap = Laplacian::new(&grid);
            let mut w = Field::zeros(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            // warm the buffer pool and the per-(peer, tag) message
            // queues, then discard the warm-up's events
            halo.exchange(&dev, &comm, &mut u);
            rec.drain();
            if overlap {
                let pending = halo.begin(&dev, &comm, &u);
                apply_physical_bcs(&grid, &mut u, &rec, false);
                lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
                halo.finish(&dev, &comm, pending, &mut u);
                lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
            } else {
                halo.exchange(&dev, &comm, &mut u);
                apply_physical_bcs(&grid, &mut u, &rec, false);
                lap.apply(&dev, INFO_APPLY, &u, &mut w);
            }
            rec.drain()
        })
    };

    let machine = MachineModel::mi250x();
    let modeled = |streams: &[Vec<Event>]| -> Duration {
        Duration::from_secs_f64(bench::worst_rank_replay(streams, &machine, RANKS).total_s())
    };

    let mut group = c.benchmark_group("ablation_halo_overlap");
    group.sample_size(10);
    group.bench_function("synchronous", |b| {
        b.iter_custom(|_| modeled(&record_world(false)))
    });
    group.bench_function("overlapped", |b| {
        b.iter_custom(|_| modeled(&record_world(true)))
    });
    group.finish();

    // The headline claim this ablation exists for: overlapping must be
    // worth >= 1.2x per operator application in this regime.
    let sync_streams = record_world(false);
    let over_streams = record_world(true);
    let sync_b = bench::worst_rank_replay(&sync_streams, &machine, RANKS);
    let over_b = bench::worst_rank_replay(&over_streams, &machine, RANKS);
    let (sync_s, over_s) = (sync_b.total_s(), over_b.total_s());
    assert!(
        sync_s >= 1.2 * over_s,
        "split-phase overlap models below the 1.2x bar: \
         synchronous {sync_s:.3e}s vs overlapped {over_s:.3e}s"
    );

    #[derive(serde::Serialize)]
    struct HaloRecord {
        ranks: usize,
        machine: &'static str,
        synchronous: perfmodel::CostBreakdown,
        overlapped: perfmodel::CostBreakdown,
        speedup: f64,
    }
    bench::write_bench_json(
        "halo_overlap",
        &HaloRecord {
            ranks: RANKS,
            machine: "mi250x",
            synchronous: sync_b,
            overlapped: over_b,
            speedup: sync_s / over_s,
        },
    )
    .expect("write BENCH_halo_overlap.json");
}

/// Split-phase batched reductions vs the blocking per-stage schedule, on
/// a full 8-rank Bi-CGSTAB solve recorded live on the Threads back-end.
///
/// Same methodology as [`ablation_halo_overlap`]: the in-process
/// communicator cannot expose allreduce latency in wall time, so the
/// real 8-rank event streams — with their `ReduceOverlap` windows and
/// per-message reduction counts measured, not synthesized — are replayed
/// through the LUMI-G machine model. The model is replayed at growing
/// *model* rank counts (its allreduce term scales with `ceil(log2 P)`
/// software-tree stages), which is where the 3-to-2 message cut and the
/// compute posted under each window pay off: reduction latency grows
/// with P while the measured local compute stays fixed, exactly the
/// strong-scaling regime of the paper's Fig. 6.
fn ablation_reduce_overlap(c: &mut Criterion) {
    use accel::Event;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::Duration;

    const RANKS: usize = 8;

    // Record one full solve's event stream per rank, live on Threads.
    let record = |overlap_reduce: bool| -> (usize, Vec<Vec<Event>>) {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let mut cfg = bench::RunConfig::small(SolverKind::BiCgs);
        // Global 32³ (local 16³): the strong-scaling limit where the
        // per-iteration dots rival the kernels — the regime Fig. 6's
        // high-rank bars show reduction latency dominating.
        cfg.nodes = 33;
        cfg.decomp = [2, 2, 2];
        cfg.device = format!("threads:{workers}");
        cfg.record_events = true;
        cfg.tol = 1e-8;
        cfg.opts.overlap_reduce = overlap_reduce;
        let res = bench::run_once(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        (res.outcome.iterations, res.events)
    };

    let (iters_sync, sync_streams) = record(false);
    let (iters_over, over_streams) = record(true);
    assert_eq!(
        iters_sync, iters_over,
        "batching must not change the iteration count"
    );

    let machine = MachineModel::mi250x();
    let worst = |streams: &[Vec<Event>], model_ranks: usize| -> CostBreakdown {
        bench::worst_rank_replay(streams, &machine, model_ranks)
    };

    let mut group = c.benchmark_group("ablation_reduce_overlap");
    group.sample_size(10);
    for model_ranks in [8usize, 64, 256, 512] {
        group.bench_with_input(
            BenchmarkId::new("synchronous", model_ranks),
            &model_ranks,
            |b, &p| b.iter_custom(|_| Duration::from_secs_f64(worst(&sync_streams, p).total_s())),
        );
        group.bench_with_input(
            BenchmarkId::new("overlapped", model_ranks),
            &model_ranks,
            |b, &p| b.iter_custom(|_| Duration::from_secs_f64(worst(&over_streams, p).total_s())),
        );
    }
    group.finish();

    #[derive(serde::Serialize)]
    struct Row {
        model_ranks: usize,
        synchronous: CostBreakdown,
        overlapped: CostBreakdown,
        speedup: f64,
    }
    #[derive(serde::Serialize)]
    struct ReduceRecord {
        recorded_ranks: usize,
        machine: &'static str,
        iterations: usize,
        rows: Vec<Row>,
    }
    let rows: Vec<Row> = [8usize, 64, 256, 512]
        .iter()
        .map(|&p| {
            let s = worst(&sync_streams, p);
            let o = worst(&over_streams, p);
            let speedup = s.total_s() / o.total_s();
            // The headline claim: at high model rank counts the batched
            // split-phase schedule must model >= 1.15x faster.
            if p >= 256 {
                assert!(
                    speedup >= 1.15,
                    "reduce overlap below the 1.15x bar at {p} model ranks: {speedup:.3}"
                );
            }
            Row {
                model_ranks: p,
                synchronous: s,
                overlapped: o,
                speedup,
            }
        })
        .collect();
    bench::write_bench_json(
        "reduce_overlap",
        &ReduceRecord {
            recorded_ranks: RANKS,
            machine: "mi250x",
            iterations: iters_sync,
            rows,
        },
    )
    .expect("write BENCH_reduce_overlap.json");
}

/// The kernel-fusion ablation: record 8-rank Threads solves with the
/// fused production driver and the unfused reference schedule, both with
/// blocking reductions (so the arms differ only in kernel grouping),
/// scale the per-rank streams to production-size local blocks, and
/// replay both through the LUMI-G node model. Fusion cuts the hot path
/// from 11 full-grid sweeps per iteration to 5 (264 B → 200 B of
/// streaming traffic per element per iteration), so at
/// memory-bandwidth-bound sizes the modeled per-iteration time must drop
/// by at least the 1.25x bar.
fn ablation_fused_kernels(c: &mut Criterion) {
    use accel::Event;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::Duration;

    const RANKS: usize = 8;
    // nodes = 33 under a 2x2x2 decomp: each rank owns a 16^3 block.
    const RECORDED_LOCAL: f64 = 16.0;
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    let record = |driver: bench::Driver| -> (usize, u64, Vec<Vec<Event>>) {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let mut cfg = bench::RunConfig::small(SolverKind::BiCgs);
        cfg.nodes = 33;
        cfg.decomp = [2, 2, 2];
        cfg.device = format!("threads:{workers}");
        cfg.record_events = true;
        cfg.tol = 1e-8;
        cfg.opts.overlap_reduce = false;
        cfg.params_extra.driver = driver;
        let res = bench::run_once(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        (
            res.outcome.iterations,
            res.comm_stats.allreduces,
            res.events,
        )
    };

    let reference = bench::Driver::Reference { early_exit: false };
    let (iters_unfused, msgs_unfused, unfused_streams) = record(reference);
    let (iters_fused, msgs_fused, fused_streams) = record(bench::Driver::Production);
    assert_eq!(
        iters_unfused, iters_fused,
        "fusion must not change the iteration count"
    );
    assert_eq!(
        msgs_unfused, msgs_fused,
        "fusion must not change the reduction message count"
    );

    let machine = MachineModel::mi250x();
    // Scale the recorded 16^3-per-rank streams to an n^3 local block
    // (volume ratio for kernels/transfers, face ratio for halos) and
    // take the slowest rank's modeled solve time.
    let worst = |streams: &[Vec<Event>], local: usize| -> CostBreakdown {
        let r = local as f64 / RECORDED_LOCAL;
        bench::worst_rank_replay_scaled(streams, &machine, RANKS, r.powi(3), r.powi(2))
    };

    let mut group = c.benchmark_group("ablation_fused_kernels");
    group.sample_size(10);
    for local in LOCALS {
        group.bench_with_input(BenchmarkId::new("unfused", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&unfused_streams, n).total_s()))
        });
        group.bench_with_input(BenchmarkId::new("fused", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&fused_streams, n).total_s()))
        });
    }
    group.finish();

    // Sweep counts from dedicated fixed-cap serial runs (the difference
    // of two caps removes setup and drain), using the same counting
    // rule the bench library's regression test pins to 11 -> 5.
    let sweeps = |driver: bench::Driver| -> f64 {
        let run = |iters: usize| {
            let mut cfg = bench::RunConfig::small(SolverKind::BiCgs);
            cfg.nodes = 17;
            cfg.tol = 1e-300;
            cfg.max_iters = iters;
            cfg.record_events = true;
            cfg.params_extra.driver = driver;
            bench::hot_sweep_elems(&bench::run_once(&cfg).events[0])
        };
        let (lo, interior) = run(3);
        let (hi, _) = run(6);
        (hi - lo) as f64 / (3 * interior) as f64
    };
    let sweeps_unfused = sweeps(reference);
    let sweeps_fused = sweeps(bench::Driver::Production);

    #[derive(serde::Serialize)]
    struct Row {
        local_nodes: usize,
        unfused: CostBreakdown,
        fused: CostBreakdown,
        unfused_iter_s: f64,
        fused_iter_s: f64,
        model_speedup: f64,
    }
    #[derive(serde::Serialize)]
    struct FusedRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        iterations: usize,
        allreduce_messages: u64,
        sweeps_per_iteration_unfused: f64,
        sweeps_per_iteration_fused: f64,
        bytes_per_elem_per_iteration_unfused: u32,
        bytes_per_elem_per_iteration_fused: u32,
        rows: Vec<Row>,
    }
    let rows: Vec<Row> = LOCALS
        .iter()
        .map(|&n| {
            let u = worst(&unfused_streams, n);
            let f = worst(&fused_streams, n);
            let model_speedup = u.total_s() / f.total_s();
            // The headline claim: once the local block is big enough to
            // be bandwidth-bound, fusion must model >= 1.25x faster.
            if n >= 256 {
                assert!(
                    model_speedup >= 1.25,
                    "kernel fusion below the 1.25x bar at {n}^3/rank: {model_speedup:.3}"
                );
            }
            Row {
                local_nodes: n,
                unfused_iter_s: u.total_s() / iters_unfused as f64,
                fused_iter_s: f.total_s() / iters_fused as f64,
                unfused: u,
                fused: f,
                model_speedup,
            }
        })
        .collect();
    let record = FusedRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        iterations: iters_fused,
        allreduce_messages: msgs_fused,
        sweeps_per_iteration_unfused: sweeps_unfused,
        sweeps_per_iteration_fused: sweeps_fused,
        bytes_per_elem_per_iteration_unfused: 264,
        bytes_per_elem_per_iteration_fused: 200,
        rows,
    };
    bench::write_bench_json("fused_kernels", &record).expect("write BENCH_fused_kernels.json");

    // Refresh the committed stable-schema summary artifact at the
    // repository root, so the headline figures travel with the tree.
    bench::update_summary("fused_kernels", serde::Serialize::to_value(&record));
}

/// Batched multi-RHS solves: B independent single-lane solves vs one
/// B-lane batched solve, on the real 8-rank Threads world.
///
/// The batched driver runs every lane through the same iteration
/// schedule — one lane-strided kernel launch per sweep instead of B, one
/// B-face halo message per neighbour instead of B, and one chunked
/// B-wide allreduce per reduction point instead of B — so all the
/// per-launch and per-message fixed costs amortize across lanes while
/// the streamed bytes stay proportional to B. Wall time is measured
/// live (criterion re-runs the world per sample); the headline claim is
/// modeled, same methodology as [`ablation_fused_kernels`]: replay the
/// recorded per-rank event streams through the MI250X node model in the
/// strong-scaling regime (16³ per rank) where those fixed costs
/// dominate, and require the B=4 batched aggregate throughput to model
/// at >= 1.5x four back-to-back solo solves.
fn ablation_batched_rhs(c: &mut Criterion) {
    use accel::{Event, Threads};
    use comm::run_ranks_recorded;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::{Duration, Instant};

    const RANKS: usize = 8;
    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

    struct WorldRun {
        /// Per-lane outer iteration counts (identical on all ranks).
        iters: Vec<usize>,
        /// Slowest rank's wall seconds over the measured solves.
        wall_s: f64,
        /// Rank-0 allreduce messages over the measured solves.
        allreduces: u64,
        /// Per-rank event streams (empty unless recording).
        streams: Vec<Vec<Event>>,
    }

    // One 8-rank Threads world solving `nb` right-hand sides, either as
    // nb sequential single-lane solves or as one nb-lane batched solve.
    // A warm-up lane fills the buffer pools and message queues first and
    // its events/counters are discarded.
    let run_world = |nb: usize, batched: bool, record: bool| -> WorldRun {
        let decomp = Decomp::new([2, 2, 2]);
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let recorders: Vec<Recorder> = (0..RANKS)
            .map(|_| {
                if record {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                }
            })
            .collect();
        let handles = recorders.clone();
        let per_rank = run_ranks_recorded::<f64, _, _>(
            RANKS,
            ReduceOrder::RankOrder,
            recorders,
            move |comm| {
                let rec = comm.recorder().clone();
                let dev = Threads::new(workers, rec.clone());
                // nodes = 33 under 2x2x2: 16^3 per rank, the
                // strong-scaling limit regime of the paper's Fig. 6.
                let mut solver: PoissonSolver<f64, _, _> =
                    PoissonSolver::new(paper_problem(33), decomp, dev, comm);
                let n: usize = solver.grid().local_n.iter().product();
                let rhs: Vec<Vec<f64>> = (0..nb)
                    .map(|lane| {
                        (0..n)
                            .map(|i| 1.0 + (((i + 7 * lane) as f64) * 0.29).sin())
                            .collect()
                    })
                    .collect();
                let opts = SolverOptions {
                    eig_min_factor: 10.0,
                    ..Default::default()
                };
                let params = SolveParams {
                    tol: 1e-8,
                    max_iters: 50_000,
                    record_history: false,
                    ..Default::default()
                };
                let lane_iters = |lane: Result<poisson::LaneSolve, _>| {
                    let lane = lane.expect("valid lane");
                    assert!(lane.outcome.converged, "{:?}", lane.outcome);
                    lane.outcome.iterations
                };
                let warm = solver.solve_batch(&[&rhs[0]], SolverKind::BiCgs, &opts, &params, &[]);
                lane_iters(warm.into_iter().next().expect("one warm-up lane"));
                rec.drain();
                let reduces0 = solver.ctx().comm.stats().allreduces;
                let t0 = Instant::now();
                let iters: Vec<usize> = if batched {
                    let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
                    solver
                        .solve_batch(&refs, SolverKind::BiCgs, &opts, &params, &[])
                        .into_iter()
                        .map(lane_iters)
                        .collect()
                } else {
                    rhs.iter()
                        .map(|b| {
                            let lanes = solver.solve_batch(
                                &[b.as_slice()],
                                SolverKind::BiCgs,
                                &opts,
                                &params,
                                &[],
                            );
                            lane_iters(lanes.into_iter().next().expect("one solo lane"))
                        })
                        .collect()
                };
                let wall = t0.elapsed().as_secs_f64();
                let reduces = solver.ctx().comm.stats().allreduces - reduces0;
                (iters, wall, reduces)
            },
        );
        WorldRun {
            iters: per_rank[0].0.clone(),
            wall_s: per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
            allreduces: per_rank[0].2,
            streams: handles.iter().map(|r| r.drain()).collect(),
        }
    };

    let machine = MachineModel::mi250x();
    let worst = |streams: &[Vec<Event>]| -> CostBreakdown {
        bench::worst_rank_replay(streams, &machine, RANKS)
    };

    // One recorded run per (width, arm) for the model replay; the wall
    // arms below re-run the world unrecorded on every criterion sample.
    let recorded: Vec<(usize, WorldRun, WorldRun)> = WIDTHS
        .iter()
        .map(|&nb| (nb, run_world(nb, false, true), run_world(nb, true, true)))
        .collect();

    let mut group = c.benchmark_group("ablation_batched_rhs");
    group.sample_size(10);
    for &nb in &WIDTHS {
        group.bench_with_input(BenchmarkId::new("solo_wall", nb), &nb, |b, &nb| {
            b.iter_custom(|_| Duration::from_secs_f64(run_world(nb, false, false).wall_s))
        });
        group.bench_with_input(BenchmarkId::new("batched_wall", nb), &nb, |b, &nb| {
            b.iter_custom(|_| Duration::from_secs_f64(run_world(nb, true, false).wall_s))
        });
        let (_, solo, batched) = recorded
            .iter()
            .find(|(w, _, _)| *w == nb)
            .expect("recorded");
        let (solo_s, batched_s) = (
            worst(&solo.streams).total_s(),
            worst(&batched.streams).total_s(),
        );
        group.bench_with_input(BenchmarkId::new("solo_model", nb), &solo_s, |b, &s| {
            b.iter_custom(|_| Duration::from_secs_f64(s))
        });
        group.bench_with_input(
            BenchmarkId::new("batched_model", nb),
            &batched_s,
            |b, &s| b.iter_custom(|_| Duration::from_secs_f64(s)),
        );
    }
    group.finish();

    #[derive(serde::Serialize)]
    struct Row {
        lanes: usize,
        iterations: Vec<usize>,
        wall_solo_s: f64,
        wall_batched_s: f64,
        wall_speedup: f64,
        allreduce_messages_solo: u64,
        allreduce_messages_batched: u64,
        solo: CostBreakdown,
        batched: CostBreakdown,
        model_throughput_x: f64,
    }
    let rows: Vec<Row> = recorded
        .iter()
        .map(|(nb, solo, batched)| {
            assert_eq!(
                solo.iters, batched.iters,
                "batching must not change any lane's iteration count (B={nb})"
            );
            let longest = *batched.iters.iter().max().expect("at least one lane") as u64;
            // The reduction-amortization contract: one chunked B-wide
            // message per reduction point of the longest-running lane
            // (2 per iteration + setup), not B per point. Frozen lanes
            // keep voting, so the count is bounded by the longest lane,
            // with a small constant for rhs-norm and residual setup.
            assert!(
                batched.allreduces <= 2 * longest + 6,
                "B={nb}: {} batched allreduces exceeds 2*{longest}+6",
                batched.allreduces
            );
            if *nb >= 2 {
                assert!(
                    batched.allreduces < solo.allreduces,
                    "B={nb}: batching must cut allreduce messages \
                     ({} batched vs {} solo)",
                    batched.allreduces,
                    solo.allreduces
                );
            }
            let s = worst(&solo.streams);
            let b = worst(&batched.streams);
            // Same nb solves completed in both arms, so the aggregate
            // throughput ratio is the modeled time ratio.
            let model_throughput_x = s.total_s() / b.total_s();
            if *nb == 4 {
                assert!(
                    model_throughput_x >= 1.5,
                    "batched multi-RHS below the 1.5x bar at B=4: {model_throughput_x:.3}"
                );
            }
            Row {
                lanes: *nb,
                iterations: solo.iters.clone(),
                wall_solo_s: solo.wall_s,
                wall_batched_s: batched.wall_s,
                wall_speedup: solo.wall_s / batched.wall_s,
                allreduce_messages_solo: solo.allreduces,
                allreduce_messages_batched: batched.allreduces,
                solo: s,
                batched: b,
                model_throughput_x,
            }
        })
        .collect();

    #[derive(serde::Serialize)]
    struct BatchedRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        local_nodes: usize,
        rows: Vec<Row>,
    }
    let record = BatchedRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        local_nodes: 16,
        rows,
    };
    bench::write_bench_json("batched_rhs", &record).expect("write BENCH_batched_rhs.json");
    bench::update_summary("batched_rhs", serde::Serialize::to_value(&record));
}

/// Mixed-precision Chebyshev preconditioning: f32 inner sweeps, state
/// and halo wire words under the f64 outer recurrence, vs the all-f64
/// baseline, on real 8-rank Threads `G(CI)` solves.
///
/// Same methodology as [`ablation_fused_kernels`]: record the
/// 16³-per-rank event streams live — the halved kernel footprints of
/// the f32 sweeps and the half-width wire words of the f32 halo band
/// are measured, not synthesized — scale them to production-size local
/// blocks and replay through the MI250X node model, reporting the
/// slowest rank. The convergence side of the trade rides on the same
/// runs: the outer iteration count must stay within ±2 of the all-f64
/// baseline (the guard the poisson test suite also pins per back-end).
fn ablation_mixed_precision(c: &mut Criterion) {
    use accel::Event;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::Duration;

    const RANKS: usize = 8;
    // nodes = 33 under a 2x2x2 decomp: each rank owns a 16^3 block.
    const RECORDED_LOCAL: f64 = 16.0;
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    let record = |mixed: bool| -> (usize, Vec<Vec<Event>>) {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let mut cfg = bench::RunConfig::small(SolverKind::BiCgsGCi);
        cfg.nodes = 33;
        cfg.decomp = [2, 2, 2];
        cfg.device = format!("threads:{workers}");
        cfg.record_events = true;
        cfg.tol = 1e-8;
        cfg.opts.mixed_precision = mixed;
        let res = bench::run_once(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        (res.outcome.iterations, res.events)
    };

    let (iters_f64, f64_streams) = record(false);
    let (iters_mixed, mixed_streams) = record(true);
    let drift = (iters_mixed as i64 - iters_f64 as i64).abs();
    assert!(
        drift <= 2,
        "mixed precision drifted {drift} outer iterations \
         ({iters_mixed} mixed vs {iters_f64} f64)"
    );

    let machine = MachineModel::mi250x();
    let worst = |streams: &[Vec<Event>], local: usize| -> CostBreakdown {
        let r = local as f64 / RECORDED_LOCAL;
        bench::worst_rank_replay_scaled(streams, &machine, RANKS, r.powi(3), r.powi(2))
    };

    let mut group = c.benchmark_group("ablation_mixed_precision");
    group.sample_size(10);
    for local in LOCALS {
        group.bench_with_input(BenchmarkId::new("f64", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&f64_streams, n).total_s()))
        });
        group.bench_with_input(BenchmarkId::new("mixed", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&mixed_streams, n).total_s()))
        });
    }
    group.finish();

    #[derive(serde::Serialize)]
    struct Row {
        local_nodes: usize,
        f64_iter_s: f64,
        mixed_iter_s: f64,
        per_iteration_speedup: f64,
        f64_total: CostBreakdown,
        mixed_total: CostBreakdown,
    }
    #[derive(serde::Serialize)]
    struct MixedRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        iterations_f64: usize,
        iterations_mixed: usize,
        rows: Vec<Row>,
    }
    let rows: Vec<Row> = LOCALS
        .iter()
        .map(|&n| {
            let base = worst(&f64_streams, n);
            let mix = worst(&mixed_streams, n);
            let f64_iter_s = base.total_s() / iters_f64 as f64;
            let mixed_iter_s = mix.total_s() / iters_mixed as f64;
            let per_iteration_speedup = f64_iter_s / mixed_iter_s;
            // The headline claim: once the local block is bandwidth
            // bound, halving the preconditioner's streamed bytes must
            // model >= 1.2x faster per outer iteration.
            if n >= 256 {
                assert!(
                    per_iteration_speedup >= 1.2,
                    "mixed precision below the 1.2x bar at {n}^3/rank: \
                     {per_iteration_speedup:.3}"
                );
            }
            Row {
                local_nodes: n,
                f64_iter_s,
                mixed_iter_s,
                per_iteration_speedup,
                f64_total: base,
                mixed_total: mix,
            }
        })
        .collect();
    let record = MixedRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        iterations_f64: iters_f64,
        iterations_mixed: iters_mixed,
        rows,
    };
    bench::write_bench_json("mixed_precision", &record).expect("write BENCH_mixed_precision.json");
    bench::update_summary("mixed_precision", serde::Serialize::to_value(&record));
}

/// Algorithm 1's mid-loop convergence check vs Algorithm 3 (the paper's
/// implementation) — one extra reduction per iteration vs a potentially
/// saved half-iteration — both on the unfused reference schedule.
fn ablation_early_exit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_early_exit");
    group.sample_size(10);
    let opts = SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    };
    for (label, early) in [("alg3_no_check", false), ("alg1_mid_loop_check", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &early, |b, &early| {
            b.iter(|| {
                let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
                    paper_problem(17),
                    Decomp::single(),
                    Serial::new(Recorder::disabled()),
                    comm::SelfComm::default(),
                );
                let params = SolveParams {
                    tol: 1e-10,
                    max_iters: 20_000,
                    record_history: false,
                    ..Default::default()
                };
                let out = solver.solve_reference(SolverKind::BiCgsGNoCommCi, &opts, &params, early);
                assert!(out.converged);
                out.iterations
            });
        });
    }
    group.finish();
}

/// Deterministic (rank-order) vs arrival-order allreduce.
fn ablation_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reduction");
    group.sample_size(10);
    for (label, order) in [
        ("rank_order", ReduceOrder::RankOrder),
        ("arrival", ReduceOrder::Arrival),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &order, |b, &order| {
            b.iter(|| {
                run_ranks::<f64, _, _>(4, order, |comm_handle| {
                    let mut acc = 0.0;
                    for i in 0..200 {
                        let mut v = [comm_handle.rank() as f64 + i as f64];
                        comm_handle.all_reduce(&mut v, ReduceOp::Sum);
                        acc += v[0];
                    }
                    acc
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = ablation_comm, ablation_ci_iters, ablation_rescale, ablation_fusion, ablation_reduction, ablation_early_exit, ablation_halo_overlap, ablation_reduce_overlap, ablation_fused_kernels, ablation_batched_rhs, ablation_mixed_precision
);
criterion_main!(benches);
