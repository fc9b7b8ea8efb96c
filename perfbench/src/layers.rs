//! The traced run: per-layer metrics of one workload.
//!
//! Every workload's traced run measures every layer, at the workload's
//! own problem where the layer has one:
//!
//! * `host` — STREAM-style copy and triad calibration.
//! * a recorded solve of the workload's problem (enabled
//!   `accel::Recorder` on every rank) for exact counts, then an untraced
//!   solve of the same input for the tracing overhead;
//! * `stencil`, `krylov`, `poisson` — timed entry points on the
//!   workload's local grid, with every rank of its world running;
//! * `blockgrid`, `comm` — timed on a 2-rank split of the workload's
//!   problem (a 1-rank workload has no neighbours, but the layer is
//!   still measured so a change to it shows);
//! * `serve` — a short run of the closed-loop serve mix (`serve_mix`);
//! * `perfmodel` — the recorded streams replayed on a host model whose
//!   memory bandwidth is the measured triad, and on the MI250X model.
//!
//! Spans are recorded around each call into a layer and summarised at
//! the end of the run.

use std::time::{Duration, Instant};

use accel::{Event, KernelInfo, Recorder};
use blockgrid::Field;
use comm::{Communicator, ReduceOp};
use krylov::kernels::{self, INFO_BICGS1, INFO_BICGS2F, INFO_BICGS3F, INFO_BICGS4, INFO_BICGS56};
use krylov::{global_bounds, ChebyshevIteration, MixedChebyshev};
use perfmodel::MachineModel;
use poisson::{assemble, SetupError};
use serde::Value;
use serve::SolveService;
use stencil::INFO_APPLY;

use crate::host::{self, Stream};
use crate::report::{median, num, quantile, Report};
use crate::rng::Rng;
use crate::serve_mix::{self, MixResult};
use crate::solver::{self, Solver, SolverWorkload};
use crate::trace::Tracer;

/// Hot-loop kernels outside the preconditioner, in the order
/// [`LocalProbe::hot_s`] times them.
const HOT: [&str; 5] = [
    "KernelBiCGS1",
    "KernelBiCGS2F",
    "KernelBiCGS3F",
    "KernelBiCGS4",
    "KernelBiCGS56",
];
/// Length of the serve mix run.
const SERVE_PROBE: Duration = Duration::from_secs(3);
/// Work per kernel probe: about this many elements swept in total.
const PROBE_ELEMS: usize = 40_000_000;
/// Halo and reduction probe repetitions (fixed: both ranks must agree).
const HALO_REPS: usize = 200;
const OVERLAP_REPS: usize = 20;
const REDUCE_REPS: usize = 2000;

/// The traced run of `w`.
pub fn run(
    w: &SolverWorkload,
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let l3 = host::l3_bytes().ok_or("cannot read the L3 cache size from sysfs")?;
    let stream = tracer.span("host.stream", || host::calibrate(l3));
    let scale = solver::rhs_scale(seed);

    let solve = solve_probe(w, scale, tracer).map_err(|e| format!("setup refused: {e}"))?;
    report.check(solve.ok);
    // The same solve untraced, right after the recorded one: the baseline
    // of the tracing overhead and of the attribution.
    let untraced = solver::in_world(w, vec![Recorder::disabled(); w.ranks], |s, _| {
        solver::install_rhs(s, scale).ok()?;
        Some(solver::checked_solve(s, w, scale))
    })
    .ok()
    .flatten();
    report.check(untraced.as_ref().is_some_and(|s| s.ok));
    let untraced_s = untraced.map_or(f64::NAN, |s| s.wall_s);
    report.note("traced_solve_s", num(solve.traced.wall_s));
    report.note("untraced_solve_s", num(untraced_s));

    let local = solver::in_world(w, enabled(w.ranks), |s, _| local_probe(s, w, scale, tracer))
        .map_err(|e| format!("setup refused: {e}"))?;
    let pair = SolverWorkload { ranks: 2, ..*w };
    let comms = solver::in_world(&pair, enabled(2), |s, _| comm_probe(s, tracer))
        .map_err(|e| format!("setup refused: {e}"))?;

    let mix = {
        let svc = SolveService::try_start(serve_mix::config())
            .map_err(|e| format!("solve service did not start: {e}"))?;
        let mix = serve_mix::drive(&svc, seed, Instant::now() + SERVE_PROBE, tracer);
        let _ = svc.shutdown();
        mix
    };
    report.attempted += mix.attempted;
    report.failed += mix.failed;

    let m = Measured {
        w,
        stream,
        solve,
        untraced_s,
        local,
        comms,
        mix,
    };
    m.report(report);
    report.note("spans", tracer.summary());
    Ok(())
}

fn enabled(ranks: usize) -> Vec<Recorder> {
    (0..ranks).map(|_| Recorder::enabled()).collect()
}

/// Median seconds per call of `f` over `reps` calls; each call is a
/// span when `tr` is set.
fn sample(tr: Option<&Tracer>, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        let end = Instant::now();
        times.push((end - start).as_secs_f64());
        if let Some(tr) = tr {
            tr.record(name, start, end);
        }
    }
    median(&times)
}

/// Rank 0 records spans; the other ranks run the same calls untraced.
fn rank0<'a>(s: &Solver, tracer: &'a Tracer) -> Option<&'a Tracer> {
    (s.ctx().comm.rank() == 0).then_some(tracer)
}

/// The recorded solve: per-rank event streams of setup and solve.
struct SolveProbe {
    traced: solver::Solved,
    /// RHS accepted and the solve passed its checks.
    ok: bool,
    /// Every rank's solve stream (for the worst-rank model replay).
    streams: Vec<Vec<Event>>,
    /// Rank 0's H2D bytes during `try_new`.
    h2d_setup: u64,
    /// Rank 0's communicator deltas over the solve.
    allreduces: u64,
    msgs: u64,
}

fn solve_probe(w: &SolverWorkload, scale: f64, tracer: &Tracer) -> Result<SolveProbe, SetupError> {
    let per_rank = solver::in_world_all(w, enabled(w.ranks), |s, _| {
        let rec = s.ctx().recorder.clone();
        let setup = rec.drain();
        let tr = rank0(s, tracer);
        let rhs_ok = solver::install_rhs(s, scale).is_ok();
        rec.drain();
        let before = s.ctx().comm.stats();
        let (outcome, wall_s) = match tr {
            Some(t) => t.span("poisson.solve", || solver::timed_solve(s, w)),
            None => solver::timed_solve(s, w),
        };
        let after = s.ctx().comm.stats();
        let events = rec.drain();
        let traced = solver::check(s, w, scale, outcome, wall_s);
        let h2d_setup = setup
            .iter()
            .map(|e| match e {
                Event::H2D { bytes } => *bytes,
                _ => 0,
            })
            .sum();
        (
            traced,
            events,
            h2d_setup,
            after.allreduces - before.allreduces,
            after.msgs_sent - before.msgs_sent,
            rhs_ok,
        )
    })?;
    let streams = per_rank.iter().map(|r| r.1.clone()).collect();
    let (traced, _, h2d_setup, allreduces, msgs, rhs_ok) =
        per_rank.into_iter().next().expect("rank 0");
    Ok(SolveProbe {
        ok: rhs_ok && traced.ok,
        traced,
        streams,
        h2d_setup,
        allreduces,
        msgs,
    })
}

/// Timings on the workload's own world and local grid.
struct LocalProbe {
    /// Seconds per call of each [`HOT`] kernel, in that order.
    hot_s: [f64; 5],
    cheby_s: f64,
    /// One Chebyshev application, recorded.
    cheby_events: Vec<Event>,
    mixed_s: f64,
    mixed_events: Vec<Event>,
    assemble_s: f64,
    set_rhs_s: f64,
    interior: usize,
    /// Bytes of the Chebyshev state (four fields) on this rank.
    cheby_state_bytes: usize,
}

fn local_probe(s: &mut Solver, w: &SolverWorkload, scale: f64, tracer: &Tracer) -> LocalProbe {
    let tr = rank0(s, tracer);
    let rec = s.ctx().recorder.clone();
    let interior = s.grid().local_n.iter().product::<usize>();
    let reps = (PROBE_ELEMS / interior).max(10);

    let rhs: Vec<f64> = assemble::local_rhs(s.problem(), s.grid())
        .into_iter()
        .map(|v| v * scale)
        .collect();
    s.ctx().comm.barrier();
    let set_rhs_s = sample(tr, "poisson.set_rhs", 5, || {
        s.set_rhs(&rhs).expect("the probe RHS is valid");
    });
    let assemble_s = sample(tr, "poisson.assemble", 3, || {
        std::hint::black_box(assemble::local_rhs(s.problem(), s.grid()));
    });

    let ctx = s.ctx();
    let (dev, grid) = (&ctx.dev, &ctx.grid);
    let mut rng = Rng::new(0xf1e1d);
    let mut field = || {
        let vals: Vec<f64> = (0..interior).map(|_| rng.uniform() - 0.5).collect();
        Field::from_interior(dev, grid, &vals)
    };
    let (mut u, mut a, b, mut c, mut d) = (field(), field(), field(), field(), field());
    ctx.comm.barrier();
    let hot_s = [
        sample(tr, "stencil.apply_fused_dot", reps, || {
            std::hint::black_box(ctx.lap.apply_fused_dot(dev, INFO_BICGS1, &u, &mut a, &b));
        }),
        sample(tr, "krylov.axpy_dot", reps, || {
            std::hint::black_box(kernels::axpy_dot(
                dev,
                INFO_BICGS2F,
                grid,
                &mut a,
                &b,
                1e-3,
                &c,
            ));
        }),
        sample(tr, "stencil.apply_fused_dot3", reps, || {
            std::hint::black_box(
                ctx.lap
                    .apply_fused_dot3(dev, INFO_BICGS3F, &u, &mut a, &b, &c),
            );
        }),
        sample(tr, "krylov.axpy2_chained", reps, || {
            kernels::axpy2_chained_inplace(dev, INFO_BICGS4, grid, &mut a, &b, 1e-3, &c, -1e-3);
        }),
        sample(tr, "krylov.residual_p_update", reps, || {
            std::hint::black_box(kernels::residual_p_update_fused(
                dev,
                INFO_BICGS56,
                grid,
                &mut c,
                &mut d,
                &b,
                &u,
                1e-3,
                0.5,
            ));
        }),
    ];
    rec.drain();

    let opts = w.opts();
    let bounds = global_bounds(ctx).rescaled(opts.eig_max_shrink, opts.eig_min_factor);
    let cheby_reps = (PROBE_ELEMS / (interior * opts.ci_iterations)).max(5);
    let mut cheby = ChebyshevIteration::new(ctx, w.cheby_mode(), bounds, opts.ci_iterations);
    cheby.solve(ctx, &mut u, &mut a);
    rec.drain();
    cheby.solve(ctx, &mut u, &mut a);
    let cheby_events = rec.drain();
    ctx.comm.barrier();
    let cheby_s = sample(tr, "krylov.cheby_apply", cheby_reps, || {
        cheby.solve(ctx, &mut u, &mut a);
    });
    drop(cheby);
    rec.drain();

    let mut mixed = MixedChebyshev::new(ctx, w.cheby_mode(), bounds, opts.ci_iterations);
    mixed.solve(ctx, &u, &mut a);
    rec.drain();
    mixed.solve(ctx, &u, &mut a);
    let mixed_events = rec.drain();
    ctx.comm.barrier();
    let mixed_s = sample(tr, "krylov.mixed_cheby_apply", cheby_reps, || {
        mixed.solve(ctx, &u, &mut a);
    });
    rec.drain();

    LocalProbe {
        hot_s,
        cheby_s,
        cheby_events,
        mixed_s,
        mixed_events,
        assemble_s,
        set_rhs_s,
        interior,
        cheby_state_bytes: 4 * grid.padded_len() * std::mem::size_of::<f64>(),
    }
}

/// Timings on a 2-rank world: halo exchange (f64 and f32), the overlap
/// of an exchange with the interior sweep, and reduction latency.
struct CommProbe {
    exchange_s: f64,
    exchange_f32_s: f64,
    /// One blocking exchange, recorded.
    exchange_events: Vec<Event>,
    hidden_frac: f64,
    allreduce_s: f64,
    iallreduce_s: f64,
}

fn comm_probe(s: &mut Solver, tracer: &Tracer) -> CommProbe {
    let tr = rank0(s, tracer);
    let ctx = s.ctx();
    let rec = ctx.recorder.clone();
    let (dev, comm) = (&ctx.dev, &ctx.comm);
    let mut u = ctx.field();
    let mut w = ctx.field();
    let mut u32: Field<f32> = Field::zeros(dev, &ctx.grid);

    ctx.halo.exchange(dev, comm, &mut u);
    rec.drain();
    ctx.halo.exchange(dev, comm, &mut u);
    let exchange_events = rec.drain();
    comm.barrier();
    let exchange_s = sample(tr, "blockgrid.exchange", HALO_REPS, || {
        ctx.halo.exchange(dev, comm, &mut u);
    });
    comm.barrier();
    let exchange_f32_s = sample(tr, "blockgrid.exchange_f32", HALO_REPS, || {
        ctx.halo.exchange_f32(dev, comm, &mut u32);
    });
    rec.drain();

    // Blocking exchange then full sweep, against begin → interior sweep →
    // finish → shell sweep, alternated so drift hits both alike.
    let mut saved = Vec::with_capacity(OVERLAP_REPS);
    let mut exch = Vec::with_capacity(OVERLAP_REPS);
    for _ in 0..OVERLAP_REPS {
        comm.barrier();
        let t0 = Instant::now();
        ctx.halo.exchange(dev, comm, &mut u);
        let t1 = Instant::now();
        ctx.lap.apply(dev, INFO_APPLY, &u, &mut w);
        let t2 = Instant::now();
        comm.barrier();
        let t3 = Instant::now();
        let pending = ctx.halo.begin(dev, comm, &u);
        ctx.lap.apply_interior(dev, INFO_APPLY, &u, &mut w);
        ctx.halo.finish(dev, comm, pending, &mut u);
        ctx.lap.apply_shell(dev, INFO_APPLY, &u, &mut w);
        let t4 = Instant::now();
        if let Some(tr) = tr {
            tr.record("blockgrid.blocking_sweep", t0, t2);
            tr.record("blockgrid.overlapped_sweep", t3, t4);
        }
        exch.push((t1 - t0).as_secs_f64());
        saved.push((t2 - t0).as_secs_f64() - (t4 - t3).as_secs_f64());
        rec.drain();
    }
    let hidden_frac = median(&saved) / median(&exch);

    comm.barrier();
    let mut buf = [1.0, 2.0];
    let allreduce_s = sample(tr, "comm.all_reduce", REDUCE_REPS, || {
        comm.all_reduce(&mut buf, ReduceOp::Sum);
        buf = [1.0, 2.0];
    });
    comm.barrier();
    let iallreduce_s = sample(tr, "comm.iall_reduce", REDUCE_REPS, || {
        let req = comm.iall_reduce(&[1.0, 2.0], ReduceOp::Sum);
        comm.reduce_finish(req, &mut buf);
    });
    rec.drain();
    CommProbe {
        exchange_s,
        exchange_f32_s,
        exchange_events,
        hidden_frac,
        allreduce_s,
        iallreduce_s,
    }
}

/// Events outside preconditioner stages: the Bi-CGSTAB loop itself.
fn outside_prec(events: &[Event]) -> Vec<&Event> {
    let mut depth = 0usize;
    events
        .iter()
        .filter(|e| match e {
            Event::Begin {
                name: "Preconditioner",
            } => {
                depth += 1;
                false
            }
            Event::End {
                name: "Preconditioner",
            } => {
                depth -= 1;
                false
            }
            _ => depth == 0,
        })
        .collect()
}

fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

fn kernel_bytes(events: &[Event]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            Event::Kernel { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum()
}

/// GB/s of one call of a kernel with per-element traffic `info`.
fn gbps(info: KernelInfo, elems: usize, secs: f64) -> f64 {
    f64::from(info.bytes_per_elem) * elems as f64 / secs / 1e9
}

struct Measured<'a> {
    w: &'a SolverWorkload,
    stream: Stream,
    solve: SolveProbe,
    untraced_s: f64,
    local: LocalProbe,
    comms: CommProbe,
    mix: MixResult,
}

impl Measured<'_> {
    fn report(&self, r: &mut Report) {
        let Measured {
            w,
            stream: st,
            solve,
            local,
            comms,
            mix,
            ..
        } = self;
        let out = &solve.traced.outcome;
        let iters = out.iterations.max(1) as f64;
        let ev0 = &solve.streams[0];
        let untraced_s = self.untraced_s;
        let triad = st.triad_per_rank(w.ranks);
        let n = local.interior;

        r.push("host.copy_gbps_1t", "GB/s", st.copy_1t, 5);
        r.push("host.triad_gbps_1t", "GB/s", st.triad_1t, 5);
        r.push("host.triad_gbps_2t", "GB/s", st.triad_2t, 5);

        let launches = count(ev0, |e| matches!(e, Event::Kernel { .. }));
        r.push(
            "accel.launches_per_iter",
            "count",
            launches as f64 / iters,
            1,
        );
        r.push(
            "accel.bytes_per_iter",
            "B",
            kernel_bytes(ev0) as f64 / iters,
            1,
        );
        r.push("accel.h2d_bytes_setup", "B", solve.h2d_setup as f64, 1);

        let apply_s = local.hot_s[0];
        let apply_gbps = gbps(INFO_BICGS1, n, apply_s);
        r.push("stencil.apply_ms", "ms", 1e3 * apply_s, 1);
        r.push("stencil.apply_gbps", "GB/s", apply_gbps, 1);
        r.push("stencil.apply_bw_frac", "frac", apply_gbps / triad, 1);

        let (hot_elems, hot_interior) = bench::hot_sweep_elems(ev0);
        r.push("krylov.outer_iters", "count", out.iterations as f64, 1);
        r.push("krylov.prec_sweeps", "count", out.prec_iterations as f64, 1);
        r.push(
            "krylov.hot_sweeps_per_iter",
            "count",
            hot_elems as f64 / hot_interior.max(1) as f64 / iters,
            1,
        );

        let prec_stages = count(ev0, |e| {
            matches!(
                e,
                Event::Begin {
                    name: "Preconditioner"
                }
            )
        });
        let prec_s = if w.mixed {
            local.mixed_s
        } else {
            local.cheby_s
        };
        let cheby_gbps = kernel_bytes(&local.cheby_events) as f64 / local.cheby_s / 1e9;
        r.push("krylov.iter_ms", "ms", 1e3 * untraced_s / iters, 1);
        r.push("krylov.prec_apply_ms", "ms", 1e3 * local.cheby_s, 1);
        r.push(
            "krylov.prec_share",
            "frac",
            prec_stages as f64 * prec_s / untraced_s,
            1,
        );
        r.push("krylov.cheby_sweep_gbps", "GB/s", cheby_gbps, 1);
        r.push("krylov.cheby_bw_frac", "frac", cheby_gbps / triad, 1);
        for (i, (name, info)) in [
            ("krylov.fused_gbps.bicgs2f", INFO_BICGS2F),
            ("krylov.fused_gbps.bicgs3f", INFO_BICGS3F),
            ("krylov.fused_gbps.bicgs4", INFO_BICGS4),
            ("krylov.fused_gbps.bicgs56", INFO_BICGS56),
        ]
        .into_iter()
        .enumerate()
        {
            r.push(name, "GB/s", gbps(info, n, local.hot_s[i + 1]), 1);
        }
        r.push("krylov.f32_prec_apply_ms", "ms", 1e3 * local.mixed_s, 1);
        r.push(
            "krylov.f32_sweep_gbps",
            "GB/s",
            kernel_bytes(&local.mixed_events) as f64 / local.mixed_s / 1e9,
            1,
        );

        let exchanges = || {
            ev0.iter().filter_map(|e| match e {
                Event::Halo { msgs, bytes } if *msgs > 0 => Some(*bytes),
                _ => None,
            })
        };
        r.push(
            "blockgrid.halo_exchanges_per_iter",
            "count",
            exchanges().count() as f64 / iters,
            1,
        );
        r.push(
            "blockgrid.halo_bytes_per_iter",
            "B",
            exchanges().sum::<u64>() as f64 / iters,
            1,
        );
        r.push(
            "blockgrid.halo_exchange_us",
            "us",
            1e6 * comms.exchange_s,
            HALO_REPS,
        );
        r.push(
            "blockgrid.halo_exchange_f32_us",
            "us",
            1e6 * comms.exchange_f32_s,
            HALO_REPS,
        );
        r.push(
            "blockgrid.overlap_hidden_frac",
            "frac",
            comms.hidden_frac,
            OVERLAP_REPS,
        );

        r.push(
            "comm.allreduces_per_iter",
            "count",
            solve.allreduces as f64 / iters,
            1,
        );
        r.push("comm.msgs_per_iter", "count", solve.msgs as f64 / iters, 1);
        r.push(
            "comm.allreduce_us",
            "us",
            1e6 * comms.allreduce_s,
            REDUCE_REPS,
        );
        r.push(
            "comm.iallreduce_us",
            "us",
            1e6 * comms.iallreduce_s,
            REDUCE_REPS,
        );

        r.push("poisson.assemble_ms", "ms", 1e3 * local.assemble_s, 3);
        r.push("poisson.set_rhs_ms", "ms", 1e3 * local.set_rhs_s, 5);
        r.push("poisson.l2_error", "1", solve.traced.l2, 1);

        serve_metrics(mix, r);

        // Model/measured: the host model is the LUMI-C rank with its
        // memory bandwidth replaced by the measured per-rank triad.
        let host_model = MachineModel {
            name: "host (measured triad)".into(),
            mem_bw_gbps: triad,
            ..MachineModel::lumi_c_rank()
        };
        let modelled =
            |evs: &[Event], ranks: usize| perfmodel::replay(evs, &host_model, ranks).total_s();
        let solve_model = bench::worst_rank_replay(&solve.streams, &host_model, w.ranks).total_s();
        let prec_events = if w.mixed {
            &local.mixed_events
        } else {
            &local.cheby_events
        };
        r.push(
            "perfmodel.host_over_measured.solve",
            "ratio",
            solve_model / untraced_s,
            1,
        );
        r.push(
            "perfmodel.host_over_measured.prec",
            "ratio",
            modelled(prec_events, w.ranks) / prec_s,
            1,
        );
        r.push(
            "perfmodel.host_over_measured.halo",
            "ratio",
            modelled(&comms.exchange_events, 2) / comms.exchange_s,
            HALO_REPS,
        );
        r.push(
            "perfmodel.host_over_measured.allreduce",
            "ratio",
            host_model.allreduce_cost_s(16, 2) / comms.allreduce_s,
            REDUCE_REPS,
        );
        let mi250x = bench::worst_rank_replay(&solve.streams, &MachineModel::mi250x(), w.ranks);
        r.push("perfmodel.mi250x_solve_s", "s", mi250x.total_s(), 1);

        // Attribution: count × per-call time over the measured solve. A
        // hot kernel's count is the interiors it swept (split interior and
        // shell launches of one sweep add up to one).
        let hot_loop = outside_prec(ev0);
        let mut attributed = prec_stages as f64 * prec_s;
        for (name, t) in HOT.iter().zip(local.hot_s) {
            let elems: u64 = hot_loop
                .iter()
                .map(|e| match e {
                    Event::Kernel { name: k, elems, .. } if k == name => *elems,
                    _ => 0,
                })
                .sum();
            attributed += elems as f64 / n as f64 * t;
        }
        if w.ranks > 1 {
            let outer_exchanges = hot_loop
                .iter()
                .filter(|e| matches!(e, Event::Halo { msgs, .. } if *msgs > 0))
                .count();
            attributed += outer_exchanges as f64 * comms.exchange_s
                + solve.allreduces as f64 * comms.allreduce_s;
        }
        r.push(
            "bench.trace_overhead_frac",
            "frac",
            (solve.traced.wall_s - untraced_s) / untraced_s,
            1,
        );
        r.push(
            "bench.unattributed_frac",
            "frac",
            1.0 - attributed / untraced_s,
            1,
        );

        let resident = local.cheby_state_bytes * w.ranks <= st.l3_bytes;
        r.note("stream_array_bytes", Value::U64(st.array_bytes as u64));
        r.note(
            "cheby_state_bytes_per_rank",
            Value::U64(local.cheby_state_bytes as u64),
        );
        r.note(
            "cheby_bandwidth_label",
            Value::Str(if resident { "cache-resident" } else { "memory" }.into()),
        );
    }
}

fn serve_metrics(mix: &MixResult, r: &mut Report) {
    let n = mix.metrics.len();
    let ms = |d: Duration| 1e3 * d.as_secs_f64();
    let waits = mix
        .metrics
        .iter()
        .map(|m| ms(m.queue_wait))
        .collect::<Vec<_>>();
    let solves = mix.metrics.iter().map(|m| ms(m.solve)).collect::<Vec<_>>();
    let cold = mix
        .metrics
        .iter()
        .filter(|m| !m.warm)
        .map(|m| ms(m.setup))
        .collect::<Vec<_>>();
    let n_cold = cold.len();
    let batched = mix.metrics.iter().filter(|m| m.batch_size > 1).count();
    let st = &mix.stats;
    r.push("serve.queue_wait_p50_ms", "ms", median(&waits), n);
    r.push("serve.queue_wait_p95_ms", "ms", quantile(&waits, 0.95), n);
    r.push("serve.solve_p50_ms", "ms", median(&solves), n);
    r.push("serve.cold_setup_ms", "ms", median(&cold), n_cold);
    r.push(
        "serve.warm_hit_ratio",
        "frac",
        st.warm_hits as f64 / (st.warm_hits + st.cold_builds).max(1) as f64,
        (st.warm_hits + st.cold_builds) as usize,
    );
    r.push(
        "serve.mean_batch_size",
        "count",
        mix.metrics.iter().map(|m| m.batch_size as f64).sum::<f64>() / n.max(1) as f64,
        n,
    );
    r.push(
        "serve.batched_job_frac",
        "frac",
        batched as f64 / n.max(1) as f64,
        n,
    );
    r.push("serve.cold_builds", "count", st.cold_builds as f64, 1);
    r.push("serve.evictions", "count", st.evicted as f64, 1);
    r.note("serve_jobs", Value::U64(n as u64));
    r.note("serve_jobs_per_s", num(mix.jobs_per_s()));
}
