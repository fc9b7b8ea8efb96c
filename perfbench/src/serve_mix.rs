//! The serve mix of the traced run: a closed loop of eight tenants
//! driven from one client thread against a two-worker `SolveService`.
//!
//! Each tenant keeps exactly one job outstanding and submits its next
//! job only after the previous result arrived, like the time-stepping
//! callers of `examples/incompressible_projection.rs`. Every job brings a
//! fresh seeded right-hand side. Every tenth submission comes from a
//! one-off tenant with a fresh grid size, which forces a cold build and,
//! once the session cache is full, an eviction. One-off sizes stay near
//! the tenants' so that a seed changes which grids run, not how much work
//! the mix holds.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use blockgrid::{BlockGrid, Decomp};
use krylov::SolverKind;
use poisson::{assemble, paper_problem};
use serve::{
    JobHandle, JobMetrics, JobResult, Priority, ServiceConfig, ServiceStats, SolveRequest,
    SolveService,
};

use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

/// Grid size and priority of each regular tenant.
const TENANTS: [(usize, Priority); 8] = [
    (33, Priority::High),
    (41, Priority::Normal),
    (33, Priority::Low),
    (41, Priority::Normal),
    (41, Priority::High),
    (33, Priority::Normal),
    (41, Priority::Low),
    (33, Priority::Normal),
];
/// Relative residual tolerance of every job.
pub const TOL: f64 = 1e-8;
/// Every this many submissions, one comes from a one-off tenant.
const ONE_OFF_EVERY: u64 = 10;
/// One-off grid sizes, visited in a seeded order. There are more of them
/// than cache slots left beside the tenants' sessions, so by the time a
/// size comes round again its session has been evicted: every one-off
/// builds cold.
const ONE_OFF_NODES: [usize; 12] = [35, 36, 37, 38, 39, 40, 42, 43, 44, 45, 46, 47];
/// Client poll period while waiting for results.
const POLL: Duration = Duration::from_micros(500);

/// The service under test: 2 workers, 8 warm sessions, coalescing of up
/// to 4 compatible queued jobs into one batched solve.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        session_capacity: 8,
        batch_window: 4,
        ..Default::default()
    }
}

/// What one closed-loop run observed.
pub struct MixResult {
    /// Submit-to-result latency of every job that passed its checks.
    pub latencies_ms: Vec<f64>,
    /// Service-side metrics of the same jobs.
    pub metrics: Vec<JobMetrics>,
    pub attempted: u64,
    pub failed: u64,
    /// From the first submission to the last result.
    pub wall_s: f64,
    pub stats: ServiceStats,
}

impl MixResult {
    pub fn jobs_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }
}

struct Outstanding {
    tenant: usize,
    submitted: Instant,
    handle: JobHandle,
    span: SpanId,
}

/// The seeded sequence of submissions: tenants' regular jobs, with a
/// one-off every [`ONE_OFF_EVERY`]. Each job's right-hand side is the
/// paper RHS of its grid, scaled by a per-job factor and perturbed
/// element-wise by up to ±5 %.
struct Mix {
    rng: Rng,
    /// Paper RHS per grid size.
    paper_rhs: HashMap<usize, Vec<f64>>,
    submitted: u64,
    one_offs: Vec<usize>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e7e);
        let mut one_offs = ONE_OFF_NODES.to_vec();
        for i in (1..one_offs.len()).rev() {
            one_offs.swap(i, rng.range(0, i));
        }
        Self {
            rng,
            paper_rhs: HashMap::new(),
            submitted: 0,
            one_offs,
        }
    }

    fn fresh_rhs(&mut self, nodes: usize) -> Vec<f64> {
        let base = self.paper_rhs.entry(nodes).or_insert_with(|| {
            let p = paper_problem(nodes);
            let grid = BlockGrid::new(p.discretize(), Decomp::single(), 0);
            assemble::local_rhs(&p, &grid)
        });
        let rng = &mut self.rng;
        let scale = 0.5 + 1.5 * rng.uniform();
        base.iter()
            .map(|v| v * scale * (1.0 + 0.1 * (rng.uniform() - 0.5)))
            .collect()
    }

    fn next_request(&mut self, tenant: usize) -> SolveRequest {
        self.submitted += 1;
        let (mut nodes, mut priority) = TENANTS[tenant];
        if self.submitted.is_multiple_of(ONE_OFF_EVERY) {
            let k = (self.submitted / ONE_OFF_EVERY) as usize % self.one_offs.len();
            nodes = self.one_offs[k];
            priority = Priority::Normal;
        }
        let mut req = SolveRequest::new(paper_problem(nodes), SolverKind::BiCgsGNoCommCi);
        req.tol = TOL;
        req.priority = priority;
        req.rhs = Some(self.fresh_rhs(nodes));
        req
    }
}

/// A finished job is correct when it is `Done`, converged without
/// breakdown and its final relative residual is within the tolerance.
fn job_ok(result: &JobResult) -> Option<&JobMetrics> {
    match result {
        JobResult::Done(out)
            if out.outcome.converged
                && out.outcome.breakdown.is_none()
                && out.outcome.final_residual <= TOL =>
        {
            Some(&out.metrics)
        }
        _ => None,
    }
}

/// Run the closed loop until `deadline`, then let the outstanding jobs
/// finish. Each job, from submission to result, is a span.
pub fn drive(svc: &SolveService, seed: u64, deadline: Instant, tracer: &Tracer) -> MixResult {
    let mut mix = Mix::new(seed);
    let mut res = MixResult {
        latencies_ms: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        stats: ServiceStats::default(),
    };
    let start = Instant::now();
    let mut last = start;
    let mut submit = |tenant: usize, res: &mut MixResult| -> Option<Outstanding> {
        let req = mix.next_request(tenant);
        res.attempted += 1;
        let span = tracer.begin("serve.job");
        let submitted = Instant::now();
        let handle = tracer.span("serve.submit", || svc.submit(req));
        match handle {
            Ok(handle) => Some(Outstanding {
                tenant,
                submitted,
                handle,
                span,
            }),
            Err(_) => {
                tracer.end(span);
                res.failed += 1;
                None
            }
        }
    };
    let mut slots: Vec<Option<Outstanding>> =
        (0..TENANTS.len()).map(|t| submit(t, &mut res)).collect();
    while slots.iter().any(Option::is_some) {
        for slot in slots.iter_mut() {
            let Some(job) = slot else { continue };
            let Some(result) = job.handle.try_result() else {
                continue;
            };
            let now = Instant::now();
            last = now;
            tracer.end(job.span);
            match job_ok(&result) {
                Some(m) => {
                    res.latencies_ms
                        .push(1e3 * (now - job.submitted).as_secs_f64());
                    res.metrics.push(m.clone());
                }
                None => res.failed += 1,
            }
            let tenant = job.tenant;
            *slot = if now < deadline {
                submit(tenant, &mut res)
            } else {
                None
            };
        }
        // The client polls: one thread waits on eight outstanding jobs.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(POLL);
    }
    res.wall_s = (last - start).as_secs_f64().max(1e-9);
    res.stats = svc.stats();
    res
}
