//! Measured benchmark of the Poisson Bi-CGSTAB solver.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Workloads (`BENCHMARK.json` says why
//! each exists):
//!
//! * `paper_1rank` — `paper_problem(128)`, BiCGS-G(CI), tol 1e-10, one
//!   rank on the `Serial` device. It runs, but is not listed in
//!   `BENCHMARK.json`: on a 2-vCPU host shared with other work its
//!   solve time drifted between sets of runs by more than the largest
//!   allowed bound;
//! * `gci_2rank` — the same on two ranks (`[2,1,1]`);
//! * `gci_2rank_mixed` — `gci_2rank` with the f32 preconditioner.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; `--seconds` bounds it (another solve starts only if one more
//! fits, and at least two always run). There is no serve workload: a
//! closed loop of tenants against `SolveService` spread from run to run
//! by more than the largest allowed bound on a 2-vCPU host, so the serve
//! layer is measured only in the traced run and no job-latency metrics
//! are reported.
//! `success_frac` is the share of attempted operations that passed
//! their checks (1 − the failure share, so that it never reads 0).
//!
//! With `--trace 1` the run measures the per-layer metrics instead (see
//! `layers`). Every output is checked in both modes. Human-readable
//! results go to stderr; stdout gets a provenance record and, as its
//! last line, the result object.

mod host;
mod layers;
mod report;
mod rng;
mod serve_mix;
mod solver;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use serde::Value;
use solver::SolverWorkload;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str) -> Option<SolverWorkload> {
    match name {
        "paper_1rank" => Some(solver::PAPER_1RANK),
        "gci_2rank" => Some(solver::GCI_2RANK),
        "gci_2rank_mixed" => Some(solver::GCI_2RANK_MIXED),
        _ => None,
    }
}

/// Git revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the solver crates' sources and manifests and the
/// benchmark's own sources: identifies the measured code when the
/// checkout carries no git metadata.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(args: &Args, report: &Report) -> Value {
    let l3 = host::l3_bytes();
    let mut fields = vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("git_rev".into(), Value::Str(git_rev())),
        ("source_hash".into(), Value::Str(source_hash())),
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        ("l3_bytes".into(), Value::U64(l3.unwrap_or(0) as u64)),
        (
            "stream_array_bytes".into(),
            Value::U64(host::stream_array_bytes(l3.unwrap_or(0)) as u64),
        ),
        (
            "samples".into(),
            Value::Object(
                report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), Value::U64(m.samples as u64)))
                    .collect(),
            ),
        ),
    ];
    fields.extend(report.notes.iter().cloned());
    Value::Object(vec![("provenance".into(), Value::Object(fields))])
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (paper_1rank | gci_2rank | gci_2rank_mixed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let deadline = start + Duration::from_secs(args.seconds);
    let mut report = Report::default();

    if args.trace {
        let tracer = trace::Tracer::new();
        if let Err(e) = layers::run(&w, args.seed, &tracer, &mut report) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        solver::run(&w, args.seed, deadline, &mut report);
        report.push("peak_rss_mb", "MiB", host::peak_rss_mb(), 1);
        let n = report.attempted as usize;
        report.push("success_frac", "frac", report.success_frac(), n);
    }

    eprintln!(
        "perfbench {} seed {} trace {}: {} attempted, {} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        start.elapsed().as_secs_f64()
    );
    eprint!("{}", report.table());
    let record = serde_json::to_string(&provenance(&args, &report));
    println!("{}", record.expect("non-finite values render as null"));
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
