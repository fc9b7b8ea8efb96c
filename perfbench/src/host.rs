//! Host facts and the STREAM-style bandwidth calibration.
//!
//! The calibration is the roofline denominator of every `*_bw_frac`
//! metric: copy and triad over arrays at least four times the last-level
//! cache, on one and on two threads. Bytes are counted the STREAM way
//! (copy 16 B, triad 24 B per element; write-allocate traffic is not
//! counted).

use std::sync::Barrier;
use std::time::Instant;

use crate::report::median;

/// Smallest STREAM array, in bytes: four times the 105 MiB L3 this
/// benchmark was first calibrated on. Larger caches raise it to 4× L3.
const MIN_ARRAY_BYTES: usize = 420 << 20;
/// Timed passes per kernel; the median is reported.
const PASSES: usize = 5;

/// Size of the last-level (L3) cache in bytes, from sysfs. `None` when
/// the kernel does not expose it.
pub fn l3_bytes() -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let level = std::fs::read_to_string(dir.join("level")).unwrap_or_default();
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1usize << 10),
            'M' => (&size[..size.len() - 1], 1 << 20),
            'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        return digits.parse::<usize>().ok().map(|v| v * mult);
    }
    None
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Result of the STREAM-style calibration.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Bytes of one array.
    pub array_bytes: usize,
    /// L3 size the array size was checked against.
    pub l3_bytes: usize,
    /// Copy bandwidth on one thread, GB/s.
    pub copy_1t: f64,
    /// Triad bandwidth on one thread, GB/s.
    pub triad_1t: f64,
    /// Triad bandwidth on two threads, GB/s.
    pub triad_2t: f64,
}

impl Stream {
    /// Triad bandwidth one rank of a `ranks`-rank world can expect when
    /// every rank streams at once (one thread per rank).
    pub fn triad_per_rank(&self, ranks: usize) -> f64 {
        if ranks <= 1 {
            self.triad_1t
        } else {
            self.triad_2t / ranks as f64
        }
    }
}

/// The STREAM array size for this host: at least four times L3.
pub fn stream_array_bytes(l3: usize) -> usize {
    MIN_ARRAY_BYTES.max(4 * l3)
}

/// Run the calibration with arrays of [`stream_array_bytes`]`(l3)`, so
/// that no array fits in cache.
pub fn calibrate(l3: usize) -> Stream {
    let array_bytes = stream_array_bytes(l3);
    let n = array_bytes / std::mem::size_of::<f64>();
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let c = vec![0.5f64; n];

    let copy = median(&passes(|| copy_kernel(&mut b, &a)));
    let triad1 = median(&passes(|| triad_kernel(&mut a, &b, &c, 3.0)));
    let triad2 = median(&two_thread_triad(&mut a, &b, &c));
    let gbps = |bytes_per_elem: usize, s: f64| (bytes_per_elem * n) as f64 / s / 1e9;
    std::hint::black_box((&a, &b));
    Stream {
        array_bytes,
        l3_bytes: l3,
        copy_1t: gbps(16, copy),
        triad_1t: gbps(24, triad1),
        triad_2t: gbps(24, triad2),
    }
}

fn passes(mut f: impl FnMut()) -> Vec<f64> {
    f(); // first pass faults pages in and warms the TLB
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn copy_kernel(dst: &mut [f64], src: &[f64]) {
    dst.copy_from_slice(src);
    std::hint::black_box(dst);
}

fn triad_kernel(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
        *ai = bi + s * ci;
    }
    std::hint::black_box(a);
}

/// Triad split in two halves, one per thread, both started together for
/// every pass; each pass is timed from the common start to the last
/// thread's finish.
fn two_thread_triad(a: &mut [f64], b: &[f64], c: &[f64]) -> Vec<f64> {
    let half = a.len() / 2;
    let (a0, a1) = a.split_at_mut(half);
    let (b0, b1) = b.split_at(half);
    let (c0, c1) = c.split_at(half);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let barrier = &barrier;
        let other = s.spawn(move || {
            for _ in 0..=PASSES {
                barrier.wait();
                triad_kernel(a1, b1, c1, 3.0);
                barrier.wait();
            }
        });
        let mut times = Vec::with_capacity(PASSES);
        for pass in 0..=PASSES {
            barrier.wait();
            let t = Instant::now();
            triad_kernel(a0, b0, c0, 3.0);
            barrier.wait();
            if pass > 0 {
                times.push(t.elapsed().as_secs_f64());
            }
        }
        other.join().expect("STREAM thread panicked");
        times
    })
}
