//! Every Laplacian sweep, bit for bit, against a plain per-element scalar
//! reference written here with the kernels' operation order.
//!
//! The sweeps slice each neighbour row once so the compiler can vectorise
//! them across the row. Vector code must not change a single bit, so the
//! grids are chosen to run every code shape: rows of 41 cells (deep
//! interior rows of 39) run the vector body *and* a scalar remainder at
//! both element widths, and thin grids give shell pieces — or every row —
//! a single cell. Each sweep runs in `f32` and `f64` on the `Serial`,
//! `Threads` and `SimGpu` back-ends.
//!
//! Reductions: each row's terms are folded here in the canonical
//! edge-last order, and the per-row partials are merged by the device's
//! own `launch_reduce` (the cross-row merge is the back-end's contract,
//! tested in `accel`; the row fold and the row values are the kernel's).

use accel::{AnyDevice, Device, GpuSimParams, Recorder, Scalar, Serial, SimGpu, Threads};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use stencil::{Laplacian, INFO_APPLY};

/// Interior sizes: long rows (vector body + remainder), a thin grid
/// whose x-shell and deep-interior rows hold one cell, and a grid whose
/// every row holds one cell (no deep interior at all).
const GRIDS: [[usize; 3]; 3] = [[41, 5, 4], [3, 4, 5], [1, 6, 5]];

fn grid(n: [usize; 3]) -> BlockGrid {
    BlockGrid::new(
        GlobalGrid::dirichlet(n, [0.3, 0.5, 0.7], [0.0; 3]),
        Decomp::single(),
        0,
    )
}

fn backends() -> [AnyDevice; 3] {
    [
        AnyDevice::Serial(Serial::new(Recorder::disabled())),
        AnyDevice::Threads(Threads::new(3, Recorder::disabled())),
        AnyDevice::SimGpu(SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled())),
    ]
}

/// A field whose every padded cell — ghosts included — holds a
/// deterministic pseudo-random value, so a read of the wrong neighbour
/// cannot hide behind a zero ghost.
fn random_field<T: Scalar, D: Device>(dev: &D, g: &BlockGrid, seed: u64) -> Field<T> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut f = Field::zeros(dev, g);
    for v in f.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = T::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
    }
    f
}

/// Reference `(A u)` at padded index `c`, one element at a time.
fn stencil_at<T: Scalar>(g: &BlockGrid, u: &[T], c: usize) -> T {
    let h = g.global.h;
    let [cx, cy, cz]: [T; 3] = std::array::from_fn(|a| T::from_f64(1.0 / (h[a] * h[a])));
    let p = g.padded();
    let (sy, sz) = (p[0], p[0] * p[1]);
    let two = T::from_f64(2.0);
    let uc = u[c];
    cx * (two * uc - u[c - 1] - u[c + 1])
        + cy * (two * uc - u[c - sy] - u[c + sy])
        + cz * (two * uc - u[c - sz] - u[c + sz])
}

/// Padded indices of interior row `(j, k)`, in `i` order.
fn row_cells(g: &BlockGrid, j: usize, k: usize) -> Vec<usize> {
    (1..=g.local_n[0]).map(|i| g.idx(i, j + 1, k + 1)).collect()
}

/// `before` with every interior cell `c` replaced by `value(c)`.
fn expected<T: Scalar>(g: &BlockGrid, before: &[T], value: impl Fn(usize) -> T) -> Vec<T> {
    let mut out = before.to_vec();
    let [_, ny, nz] = g.local_n;
    for k in 0..nz {
        for j in 0..ny {
            for c in row_cells(g, j, k) {
                out[c] = value(c);
            }
        }
    }
    out
}

/// Reference fold of one row's terms in the canonical edge-last order:
/// rows with a deep-interior middle sum the middle first, then the low
/// edge, then the high edge; other rows sum left to right.
fn fold_row<T: Scalar>(g: &BlockGrid, j: usize, k: usize, term: impl Fn(usize) -> T) -> T {
    let [nx, ny, nz] = g.local_n;
    let cells = row_cells(g, j, k);
    let deep = nx >= 3 && ny >= 3 && nz >= 3 && j >= 1 && j + 1 < ny && k >= 1 && k + 1 < nz;
    let mut acc = T::ZERO;
    if deep {
        for &c in &cells[1..nx - 1] {
            acc += term(c);
        }
        (acc + term(cells[0])) + term(cells[nx - 1])
    } else {
        for &c in &cells {
            acc += term(c);
        }
        acc
    }
}

/// Per-row reference folds merged across rows by the device.
fn reduce<T: Scalar, D: Device, const NR: usize>(
    dev: &D,
    g: &BlockGrid,
    row: impl Fn(usize, usize) -> [T; NR] + Sync,
) -> [T; NR] {
    dev.launch_reduce(INFO_APPLY, g.local_n[1], g.local_n[2], row)
}

fn assert_bits<T: Scalar>(what: &str, got: &[T], want: &[T]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (c, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits64(),
            b.to_bits64(),
            "{what}: padded cell {c}: {a:?} vs reference {b:?}"
        );
    }
}

fn assert_scalar<T: Scalar>(what: &str, got: T, want: T) {
    assert_eq!(
        got.to_bits64(),
        want.to_bits64(),
        "{what}: {got:?} vs {want:?}"
    );
}

/// `apply_combine` with `N` extra terms, monolithic and split into
/// deep interior + shell, against `ca * Au + Σ c_t f_t` summed in term
/// order.
fn check_combine<T: Scalar, D: Device, const N: usize>(
    dev: &D,
    g: &BlockGrid,
    u: &Field<T>,
    terms: [(&Field<T>, T); N],
    tag: &str,
) {
    let lap = Laplacian::new(g);
    let ca = T::from_f64(-0.37);
    let before = random_field::<T, D>(dev, g, 900 + N as u64);
    let want = expected(g, before.as_slice(), |c| {
        let mut v = ca * stencil_at(g, u.as_slice(), c);
        for (f, coeff) in &terms {
            v += *coeff * f.as_slice()[c];
        }
        v
    });
    let mut out = random_field::<T, D>(dev, g, 900 + N as u64);
    lap.apply_combine(dev, INFO_APPLY, u, &mut out, ca, terms);
    assert_bits(&format!("{tag} combine/{N}"), out.as_slice(), &want);
    let mut split = random_field::<T, D>(dev, g, 900 + N as u64);
    lap.apply_combine_interior(dev, INFO_APPLY, u, &mut split, ca, terms);
    lap.apply_combine_shell(dev, INFO_APPLY, u, &mut split, ca, terms);
    assert_bits(&format!("{tag} combine/{N} split"), split.as_slice(), &want);
}

fn check_all_sweeps<T: Scalar, D: Device>(dev: &D, n: [usize; 3]) {
    let g = grid(n);
    let lap = Laplacian::new(&g);
    let tag = format!("{} {n:?} {}B", dev.name(), T::BYTES);
    let u = random_field::<T, D>(dev, &g, 1);
    let r = random_field::<T, D>(dev, &g, 2);
    let gf = random_field::<T, D>(dev, &g, 3);
    let us = u.as_slice();
    let au = |c: usize| stencil_at(&g, us, c);
    let before = random_field::<T, D>(dev, &g, 4);
    let want = expected(&g, before.as_slice(), au);
    // The reference `A u` field, for the reference folds below.
    let w_ref = want.as_slice();

    let mut w = random_field::<T, D>(dev, &g, 4);
    lap.apply(dev, INFO_APPLY, &u, &mut w);
    assert_bits(&format!("{tag} apply"), w.as_slice(), &want);

    let mut w = random_field::<T, D>(dev, &g, 4);
    lap.apply_interior(dev, INFO_APPLY, &u, &mut w);
    lap.apply_shell(dev, INFO_APPLY, &u, &mut w);
    assert_bits(&format!("{tag} apply interior+shell"), w.as_slice(), &want);

    let (f1, f2, f3) = (&r, &gf, &u);
    let (c1, c2, c3) = (T::from_f64(0.75), T::from_f64(-1.25), T::from_f64(0.3));
    check_combine(dev, &g, &u, [], &tag);
    check_combine(dev, &g, &u, [(f1, c1)], &tag);
    check_combine(dev, &g, &u, [(f1, c1), (f2, c2)], &tag);
    check_combine(dev, &g, &u, [(f1, c1), (f2, c2), (f3, c3)], &tag);

    let (rs, gs) = (r.as_slice(), gf.as_slice());
    let mut w = random_field::<T, D>(dev, &g, 4);
    let dot = lap.apply_fused_dot(dev, INFO_APPLY, &u, &mut w, &gf);
    assert_bits(&format!("{tag} fused dot field"), w.as_slice(), &want);
    let [want_dot] = reduce(dev, &g, |j, k| [fold_row(&g, j, k, |c| gs[c] * w_ref[c])]);
    assert_scalar(&format!("{tag} fused dot"), dot, want_dot);

    let mut t = random_field::<T, D>(dev, &g, 4);
    let (tr, tt) = lap.apply_fused_dot2(dev, INFO_APPLY, &u, &mut t, &r);
    assert_bits(&format!("{tag} fused dot2 field"), t.as_slice(), &want);
    let [want_tr, want_tt] = reduce(dev, &g, |j, k| {
        [
            fold_row(&g, j, k, |c| w_ref[c] * rs[c]),
            fold_row(&g, j, k, |c| w_ref[c] * w_ref[c]),
        ]
    });
    assert_scalar(&format!("{tag} fused dot2 t.r"), tr, want_tr);
    assert_scalar(&format!("{tag} fused dot2 t.t"), tt, want_tt);

    let mut t = random_field::<T, D>(dev, &g, 4);
    let (tr, tt, gt) = lap.apply_fused_dot3(dev, INFO_APPLY, &u, &mut t, &r, &gf);
    assert_bits(&format!("{tag} fused dot3 field"), t.as_slice(), &want);
    let [want_tr, want_tt, want_gt] = reduce(dev, &g, |j, k| {
        [
            fold_row(&g, j, k, |c| w_ref[c] * rs[c]),
            fold_row(&g, j, k, |c| w_ref[c] * w_ref[c]),
            fold_row(&g, j, k, |c| gs[c] * w_ref[c]),
        ]
    });
    assert_scalar(&format!("{tag} fused dot3 t.r"), tr, want_tr);
    assert_scalar(&format!("{tag} fused dot3 t.t"), tt, want_tt);
    assert_scalar(&format!("{tag} fused dot3 g.t"), gt, want_gt);

    check_batches::<T, D>(dev, &g, &tag);
}

/// The two lane-batched sweeps: every lane against the per-element
/// reference over that lane's own fields.
fn check_batches<T: Scalar, D: Device>(dev: &D, g: &BlockGrid, tag: &str) {
    let lap = Laplacian::new(g);
    let lanes = 2;
    let mk = |base: u64| -> Vec<Field<T>> {
        (0..lanes)
            .map(|l| random_field::<T, D>(dev, g, base + l as u64))
            .collect()
    };
    let (us, rs, gs) = (mk(10), mk(20), mk(30));
    let mut ws = mk(40);
    let before = mk(40);
    let mut accs1 = vec![[T::ZERO; 1]; lanes];
    let mut accs3 = vec![[T::ZERO; 3]; lanes];
    {
        let ul: Vec<&[T]> = us.iter().map(|f| f.as_slice()).collect();
        let gl: Vec<&[T]> = gs.iter().map(|f| f.as_slice()).collect();
        let mut wl: Vec<&mut [T]> = ws.iter_mut().map(|f| f.as_mut_slice()).collect();
        lap.apply_fused_dot_batch(dev, INFO_APPLY, &ul, &mut wl, &gl, &mut accs1);
    }
    for s in 0..lanes {
        let want = expected(g, before[s].as_slice(), |c| {
            stencil_at(g, us[s].as_slice(), c)
        });
        assert_bits(&format!("{tag} batch1 lane {s}"), ws[s].as_slice(), &want);
        let gsl = gs[s].as_slice();
        let [d] = reduce(dev, g, |j, k| [fold_row(g, j, k, |c| gsl[c] * want[c])]);
        assert_scalar(&format!("{tag} batch1 lane {s} dot"), accs1[s][0], d);
    }
    let mut ts = mk(40);
    {
        let ul: Vec<&[T]> = us.iter().map(|f| f.as_slice()).collect();
        let rl: Vec<&[T]> = rs.iter().map(|f| f.as_slice()).collect();
        let gl: Vec<&[T]> = gs.iter().map(|f| f.as_slice()).collect();
        let mut tl: Vec<&mut [T]> = ts.iter_mut().map(|f| f.as_mut_slice()).collect();
        lap.apply_fused_dot3_batch(dev, INFO_APPLY, &ul, &mut tl, &rl, &gl, &mut accs3);
    }
    for s in 0..lanes {
        let want = expected(g, before[s].as_slice(), |c| {
            stencil_at(g, us[s].as_slice(), c)
        });
        assert_bits(&format!("{tag} batch3 lane {s}"), ts[s].as_slice(), &want);
        let (rsl, gsl) = (rs[s].as_slice(), gs[s].as_slice());
        let d = reduce(dev, g, |j, k| {
            [
                fold_row(g, j, k, |c| want[c] * rsl[c]),
                fold_row(g, j, k, |c| want[c] * want[c]),
                fold_row(g, j, k, |c| gsl[c] * want[c]),
            ]
        });
        for (m, (&got, &exp)) in accs3[s].iter().zip(&d).enumerate() {
            assert_scalar(&format!("{tag} batch3 lane {s} dot {m}"), got, exp);
        }
    }
}

#[test]
fn every_sweep_matches_the_scalar_reference_in_f64() {
    for dev in backends() {
        for n in GRIDS {
            check_all_sweeps::<f64, _>(&dev, n);
        }
    }
}

#[test]
fn every_sweep_matches_the_scalar_reference_in_f32() {
    for dev in backends() {
        for n in GRIDS {
            check_all_sweeps::<f32, _>(&dev, n);
        }
    }
}
