//! Halo (ghost-point) exchange between neighbouring subdomains.

use std::borrow::{Borrow, BorrowMut};
use std::sync::Mutex;

use accel::{Device, Event, ExchangeHazard, KernelInfo, RowMap, Scalar, HALO_OVERLAP_STAGE};
use comm::{Communicator, RecvRequest, Tag};

use crate::field::Field;
use crate::grid::BlockGrid;

/// Face pack: one read + one write per face element, no flops.
pub const INFO_HALO_PACK: KernelInfo = KernelInfo::new("KernelHaloPack", 16, 0);
/// Ghost unpack: one read + one write per face element, no flops.
pub const INFO_HALO_UNPACK: KernelInfo = KernelInfo::new("KernelHaloUnpack", 16, 0);
/// Single-precision face pack: half the streamed bytes per face element.
pub const INFO_HALO_PACK_F32: KernelInfo = KernelInfo::new("KernelHaloPackF32", 8, 0);
/// Single-precision ghost unpack: half the streamed bytes per element.
pub const INFO_HALO_UNPACK_F32: KernelInfo = KernelInfo::new("KernelHaloUnpackF32", 8, 0);

/// Face-plane halo exchange for one subdomain (Fig. 1 of the paper).
///
/// Each of the up-to-six interface faces is packed into one contiguous
/// message (the analogue of the paper's per-face `MPI_Datatype`), all
/// sends are posted first, then all ghost planes are received and
/// unpacked — the buffered-`Isend`/`Irecv`/`Waitall` pattern, which is
/// deadlock-free by construction.
///
/// Two modes are offered:
///
/// * [`HaloExchange::exchange`] — the classic synchronous exchange.
/// * [`HaloExchange::begin`] / [`HaloExchange::finish`] — a split-phase
///   exchange that lets the caller overlap interior compute with the
///   in-flight messages (the paper's Sec. V communication-hiding
///   discussion). `begin` packs and posts everything; the caller then
///   runs kernels that do not read ghost values (e.g. the
///   deep-interior stencil via [`accel::RowMap::halo_deep_interior`]);
///   `finish` completes the receives and fills the ghost layers.
///
/// Both are generic over the field's element type `S`, separate from
/// the communicator's scalar `T`: an `f32` field under an `f64` solve
/// travels as packed wire words on its own tag band (see [`Wire`]).
///
/// Pack and unpack run as device kernels through the [`Device`] launch
/// path, so they parallelize on the threaded back-end and are accounted
/// as `KernelHaloPack` / `KernelHaloUnpack` launches by the recorder.
/// Message payloads are recycled through a per-axis buffer pool:
/// neighbouring ranks along an axis share face dimensions, so every
/// received buffer is reusable for the next send and the steady-state
/// exchange performs no heap allocation.
#[derive(Debug)]
pub struct HaloExchange<T: Scalar> {
    grid: BlockGrid,
    /// Per-axis free lists of message buffers (solo, narrow and batched
    /// payloads all share them — `resize` adjusts a recycled buffer).
    pool: Mutex<[Vec<Vec<T>>; 3]>,
}

impl<T: Scalar> Clone for HaloExchange<T> {
    fn clone(&self) -> Self {
        // The pool is a warm-up cache, not state: clones start cold.
        Self::new(&self.grid)
    }
}

/// Token for a split-phase exchange in flight: the posted receives plus
/// the wire format and traffic bookkeeping `finish` will use.
#[must_use = "a begun halo exchange must be completed with finish()"]
#[derive(Debug)]
pub struct PendingExchange {
    recvs: [[Option<RecvRequest>; 2]; 3],
    wire: Wire,
    msgs: u32,
    bytes: u64,
    overlap: bool,
}

/// How a face plane of `S` elements becomes a message on a
/// `Communicator<T>` — the one place the wire format is decided.
///
/// * **Element width.** A face as wide as `T` travels as-is, one element
///   per word. A narrower face (`f32` under an `f64` solve) travels as
///   packed wire words: `T::BYTES / S::BYTES` bit patterns per word,
///   lane 0 in the low bits, an odd tail leaving the high lane zero.
///   The words are opaque bit carriers — only moved, never computed on
///   — so the round trip is bit-exact and the wire bytes genuinely
///   halve instead of being silently re-widened.
/// * **Tag bands.** Six face tags per band: full-width solo faces use
///   `0..6`, narrow faces `6..12`, and a batch of `lanes` full-width
///   planes `(lanes + 1) * 6 ..`. A channel+tag pair therefore always
///   carries one fixed message size — which communication checkers (and
///   real MPI matching) rely on — even when both widths interleave on a
///   channel or the active-lane set of a batched solve shrinks.
/// * **Kernels.** Narrow faces book the half-width pack/unpack traffic.
#[derive(Clone, Copy, Debug)]
struct Wire {
    /// Face elements per wire word.
    lanes: usize,
    /// Bits per face element.
    bits: usize,
    band: Tag,
    pack: KernelInfo,
    unpack: KernelInfo,
}

impl Wire {
    /// The wire format of `S` faces on `T` channels; `batch` is the
    /// lane count of a batched exchange (`None` for a solo one).
    fn new<S: Scalar, T: Scalar>(batch: Option<usize>) -> Self {
        assert!(S::BYTES <= T::BYTES, "a face element must fit a wire word");
        let lanes = T::BYTES / S::BYTES;
        let (band, pack, unpack) = match batch {
            _ if lanes > 1 => (6, INFO_HALO_PACK_F32, INFO_HALO_UNPACK_F32),
            Some(nl) => ((nl as Tag + 1) * 6, INFO_HALO_PACK, INFO_HALO_UNPACK),
            None => (0, INFO_HALO_PACK, INFO_HALO_UNPACK),
        };
        Self {
            lanes,
            bits: 8 * S::BYTES,
            band,
            pack,
            unpack,
        }
    }

    /// Tag of a face moving from side `1 - side` toward `side` along
    /// `axis`: the sender of its own `side` face uses `tag(axis, side)`;
    /// the receiver filling its `side` ghost expects `tag(axis, 1 - side)`.
    fn tag(self, axis: usize, side: usize) -> Tag {
        self.band + (axis * 2 + side) as Tag
    }

    /// Squeeze `buf`'s face elements (one bit pattern per word, as the
    /// pack kernel wrote them) into packed wire words, in place.
    fn squeeze<T: Scalar>(self, buf: &mut Vec<T>) {
        if self.lanes == 1 {
            return;
        }
        let words = buf.len().div_ceil(self.lanes);
        for w in 0..words {
            // Word `w` reads elements at or past `w`: none is overwritten yet.
            let lanes = &buf[w * self.lanes..buf.len().min((w + 1) * self.lanes)];
            let bits = lanes
                .iter()
                .enumerate()
                .fold(0, |acc, (l, v)| acc | (v.to_bits64() << (l * self.bits)));
            buf[w] = T::from_bits64(bits);
        }
        buf.truncate(words);
    }

    /// Inverse of [`Wire::squeeze`]: spread the packed words of a
    /// received `buf` back to `elems` face elements, in place.
    fn unsqueeze<T: Scalar>(self, buf: &mut Vec<T>, elems: usize) {
        assert_eq!(
            buf.len(),
            elems.div_ceil(self.lanes),
            "halo wire length mismatch"
        );
        if self.lanes == 1 {
            return;
        }
        buf.resize(elems, T::ZERO);
        let mask = u64::MAX >> (64 - self.bits);
        // Backwards: element `e` reads word `e / lanes <= e`, still packed.
        for e in (0..elems).rev() {
            let word = buf[e / self.lanes].to_bits64();
            buf[e] = T::from_bits64((word >> ((e % self.lanes) * self.bits)) & mask);
        }
    }
}

impl<T: Scalar> HaloExchange<T> {
    /// Build the exchange plan for `grid`'s subdomain.
    pub fn new(grid: &BlockGrid) -> Self {
        Self {
            grid: grid.clone(),
            pool: Mutex::new([Vec::new(), Vec::new(), Vec::new()]),
        }
    }

    /// Number of interface faces this rank exchanges.
    pub fn interface_faces(&self) -> usize {
        (0..3)
            .flat_map(|a| (0..2).map(move |s| (a, s)))
            .filter(|&(a, s)| self.grid.boundary(a, s).is_interface())
            .count()
    }

    /// Elements in the face plane orthogonal to `axis`.
    fn face_len(&self, axis: usize) -> usize {
        let n = self.grid.local_n;
        match axis {
            0 => n[1] * n[2],
            1 => n[0] * n[2],
            _ => n[0] * n[1],
        }
    }

    /// Take a buffer of exactly `len` elements from the `axis` free list
    /// (or allocate one).
    fn acquire(&self, axis: usize, len: usize) -> Vec<T> {
        let mut buf = self.pool.lock().unwrap_or_else(|p| p.into_inner())[axis]
            .pop()
            .unwrap_or_default();
        buf.resize(len, T::ZERO);
        buf
    }

    /// Return a buffer to the `axis` free list for reuse.
    fn recycle(&self, axis: usize, buf: Vec<T>) {
        self.pool.lock().unwrap_or_else(|p| p.into_inner())[axis].push(buf);
    }

    /// Pack the interior plane adjacent to (`axis`, `side`) into `buf`,
    /// one element bit pattern per word, as a device kernel over the
    /// buffer's rows (`info` carries the per-width traffic accounting).
    fn pack_face<S: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        field: &Field<S>,
        axis: usize,
        side: usize,
        buf: &mut [T],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        let fixed = if side == 0 { 1 } else { n[axis] };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        let us = field.as_slice();
        let word = move |i: usize| T::from_bits64(us[i].to_bits64());
        debug_assert_eq!(buf.len(), self.face_len(axis));
        // Buffer rows are its natural contiguous runs: j-runs for the x
        // faces, i-runs for the y and z faces.
        match axis {
            0 => {
                let map = RowMap {
                    base: 0,
                    len: n[1],
                    ny: n[2],
                    nz: 1,
                    sy: n[1],
                    sz: n[1] * n[2],
                };
                dev.launch_rows(info, map, buf, |kk, _, row| {
                    for (jj, v) in row.iter_mut().enumerate() {
                        *v = word(idx(fixed, jj + 1, kk + 1));
                    }
                });
            }
            1 => {
                let map = RowMap {
                    base: 0,
                    len: n[0],
                    ny: n[2],
                    nz: 1,
                    sy: n[0],
                    sz: n[0] * n[2],
                };
                dev.launch_rows(info, map, buf, |kk, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = word(idx(ii + 1, fixed, kk + 1));
                    }
                });
            }
            _ => {
                let map = RowMap {
                    base: 0,
                    len: n[0],
                    ny: n[1],
                    nz: 1,
                    sy: n[0],
                    sz: n[0] * n[1],
                };
                dev.launch_rows(info, map, buf, |jj, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = word(idx(ii + 1, jj + 1, fixed));
                    }
                });
            }
        }
    }

    /// Unpack a received plane (one element bit pattern per word) into
    /// the ghost layer at (`axis`, `side`) as a device kernel over the
    /// ghost layer's rows.
    fn unpack_face<S: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        field: &mut Field<S>,
        axis: usize,
        side: usize,
        plane: &[T],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        assert_eq!(plane.len(), self.face_len(axis), "halo plane size mismatch");
        let ghost = if side == 0 { 0 } else { n[axis] + 1 };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        let elem = move |i: usize| S::from_bits64(plane[i].to_bits64());
        let (sy, sz) = (pnx, pnx * pny);
        match axis {
            0 => {
                // x ghost plane: single-cell rows with field strides
                let map = RowMap {
                    base: idx(ghost, 1, 1),
                    len: 1,
                    ny: n[1],
                    nz: n[2],
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field.as_mut_slice(), |j, k, row| {
                    row[0] = elem(k * n[1] + j);
                });
            }
            1 => {
                let map = RowMap {
                    base: idx(1, ghost, 1),
                    len: n[0],
                    ny: 1,
                    nz: n[2],
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field.as_mut_slice(), |_, k, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = elem(k * n[0] + ii);
                    }
                });
            }
            _ => {
                let map = RowMap {
                    base: idx(1, 1, ghost),
                    len: n[0],
                    ny: n[1],
                    nz: 1,
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field.as_mut_slice(), |j, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = elem(j * n[0] + ii);
                    }
                });
            }
        }
    }

    /// The sanitizer-hook description of `field`'s in-flight ghost planes:
    /// every interface face, identified by the buffer's base address.
    fn hazard<S: Scalar>(&self, field: &Field<S>) -> ExchangeHazard {
        let mut faces = 0u8;
        for axis in 0..3 {
            for side in 0..2 {
                if self.grid.boundary(axis, side).is_interface() {
                    faces |= 1 << (axis * 2 + side);
                }
            }
        }
        ExchangeHazard {
            base: field.as_slice().as_ptr() as usize,
            elem_bytes: S::BYTES,
            padded: field.padded(),
            faces,
        }
    }

    /// Post every receive, then pack and send every interface face of
    /// `fields` (lane `b`'s plane at `[b * face_len, (b + 1) * face_len)`
    /// of one message per face) — the post → pack → send half shared by
    /// solo, narrow and batched exchanges.
    fn post<S, D, C, F>(
        &self,
        dev: &D,
        comm: &C,
        fields: &[F],
        wire: Wire,
        overlap: bool,
    ) -> PendingExchange
    where
        S: Scalar,
        D: Device,
        C: Communicator<T>,
        F: Borrow<Field<S>>,
    {
        // Post all receives first (`MPI_Irecv`), as the paper's
        // implementation does...
        let mut recvs: [[Option<RecvRequest>; 2]; 3] = [[None; 2]; 3];
        for (axis, slots) in recvs.iter_mut().enumerate() {
            for (side, slot) in slots.iter_mut().enumerate() {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    *slot = Some(comm.irecv(neighbor, wire.tag(axis, 1 - side)));
                }
            }
        }
        // ...then all sends (`MPI_Isend`, buffered).
        let mut msgs = 0u32;
        let mut bytes = 0u64;
        for axis in 0..3 {
            let flen = self.face_len(axis);
            for side in 0..2 {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    let mut words = self.acquire(axis, fields.len() * flen);
                    for (plane, field) in words.chunks_mut(flen).zip(fields) {
                        self.pack_face(dev, wire.pack, field.borrow(), axis, side, plane);
                    }
                    wire.squeeze(&mut words);
                    bytes += (words.len() * T::BYTES) as u64;
                    msgs += 1;
                    comm.send(neighbor, wire.tag(axis, side), words);
                }
            }
        }
        if overlap {
            // Open the overlap window: the halo traffic is in flight from
            // here until `finish`, so kernels recorded inside the window
            // are modeled as hiding it (perfmodel's overlap-aware replay).
            comm.recorder().record(Event::Begin {
                name: HALO_OVERLAP_STAGE,
            });
            comm.recorder().record(Event::Halo { msgs, bytes });
        }
        // From here until `finish`, the interface ghost planes belong to
        // the exchange; tell any sanitizing device wrapper.
        for field in fields {
            dev.on_exchange_begin(self.hazard(field.borrow()));
        }
        PendingExchange {
            recvs,
            wire,
            msgs,
            bytes,
            overlap,
        }
    }

    /// Wait for every posted receive (`MPI_Waitall`), unpack the ghost
    /// planes into `fields` and recycle the buffers — the wait → unpack
    /// half shared by every exchange.
    fn complete<S, D, C, F>(&self, dev: &D, comm: &C, pending: PendingExchange, fields: &mut [F])
    where
        S: Scalar,
        D: Device,
        C: Communicator<T>,
        F: BorrowMut<Field<S>>,
    {
        // The exchange is being completed: the ghost planes return to the
        // caller before any unpack kernel writes them.
        for field in fields.iter() {
            dev.on_exchange_finish(self.hazard(field.borrow()));
        }
        let wire = pending.wire;
        for (axis, slots) in pending.recvs.iter().enumerate() {
            let flen = self.face_len(axis);
            for (side, slot) in slots.iter().enumerate() {
                if let Some(req) = slot {
                    let mut words = comm.wait(*req);
                    wire.unsqueeze(&mut words, fields.len() * flen);
                    for (plane, field) in words.chunks(flen).zip(fields.iter_mut()) {
                        self.unpack_face(dev, wire.unpack, field.borrow_mut(), axis, side, plane);
                    }
                    self.recycle(axis, words);
                }
            }
        }
        if pending.overlap {
            comm.recorder().record(Event::End {
                name: HALO_OVERLAP_STAGE,
            });
        } else {
            comm.recorder().record(Event::Halo {
                msgs: pending.msgs,
                bytes: pending.bytes,
            });
        }
    }

    /// Start a split-phase exchange: pack every interface face of `field`
    /// and post all sends and receives, returning without waiting.
    ///
    /// The caller may now run any kernel that does not read `field`'s
    /// ghost values, then must call [`HaloExchange::finish`] to complete
    /// the exchange before the ghosts are consumed.
    pub fn begin<S: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &Field<S>,
    ) -> PendingExchange {
        self.post(dev, comm, &[field], Wire::new::<S, T>(None), true)
    }

    /// Complete a split-phase exchange: wait for every posted receive
    /// (`MPI_Waitall`) and unpack the ghost planes into `field`.
    ///
    /// Received buffers are recycled into the pool, so the next `begin`
    /// allocates nothing.
    pub fn finish<S: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchange,
        field: &mut Field<S>,
    ) {
        self.complete(dev, comm, pending, &mut [field]);
    }

    /// Exchange all interface ghost layers of `field` with the neighbours
    /// (synchronous: begin + finish back to back).
    ///
    /// Physical-boundary ghosts are left untouched (the boundary-condition
    /// kernel owns them). One [`Event::Halo`] with the total message count
    /// and bytes is recorded on the communicator's recorder.
    pub fn exchange<S: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &mut Field<S>,
    ) {
        let pending = self.post(dev, comm, &[&*field], Wire::new::<S, T>(None), false);
        self.finish(dev, comm, pending, field);
    }

    /// Synchronous single-precision exchange: [`HaloExchange::exchange`]
    /// of an `f32` field.
    pub fn exchange_f32<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &mut Field<f32>,
    ) {
        self.exchange(dev, comm, field);
    }

    /// Exchange the interface ghost layers of **every** field in `fields`
    /// with one message per face: lane `b`'s face plane occupies the range
    /// `[b * face_len, (b + 1) * face_len)` of the payload.
    ///
    /// This is the batched-solve analogue of [`HaloExchange::exchange`]:
    /// a B-lane solve pays the per-message latency once per face instead
    /// of once per face per lane. Pack and unpack are pure copies, so each
    /// lane's ghost values are bitwise identical to what a solo exchange
    /// of that lane's field would produce. All ranks must call this with
    /// the same number of fields (the active-lane set of a batched solve
    /// is decided from reduced values, so it is rank-uniform by
    /// construction). Synchronous: one [`Event::Halo`] with the total
    /// traffic is recorded, no overlap window.
    pub fn exchange_batch<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        fields: &mut [&mut Field<T>],
    ) {
        if fields.is_empty() {
            return;
        }
        let wire = Wire::new::<T, T>(Some(fields.len()));
        let pending = self.post(dev, comm, fields, wire, false);
        self.complete(dev, comm, pending, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Decomp, GlobalGrid};
    use accel::{Recorder, Serial};
    use comm::{run_ranks, ReduceOrder};

    /// Encode a global unknown index as a float so we can verify ghost
    /// provenance exactly.
    fn encode(g: [usize; 3]) -> f64 {
        (g[0] + 1000 * g[1] + 1_000_000 * g[2]) as f64
    }

    fn make_field(dev: &Serial, grid: &BlockGrid) -> Field<f64> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    interior.push(encode([
                        grid.offset[0] + i,
                        grid.offset[1] + j,
                        grid.offset[2] + k,
                    ]));
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    fn check_ghosts(grid: &BlockGrid, field: &Field<f64>) {
        let n = grid.local_n;
        let g = grid.global.n;
        let data = field.as_slice();
        // For every interior-adjacent ghost on an interface, the ghost must
        // hold the encoding of the corresponding global neighbour cell.
        for axis in 0..3 {
            for side in 0..2 {
                if !grid.boundary(axis, side).is_interface() {
                    continue;
                }
                // global coordinate just outside the subdomain
                let ghost_axis_global = if side == 0 {
                    grid.offset[axis]
                        .checked_sub(1)
                        .expect("interface at global edge")
                } else {
                    grid.offset[axis] + n[axis]
                };
                assert!(ghost_axis_global < g[axis]);
                // probe a representative set of face points
                let (pa, pb) = match axis {
                    0 => (n[1], n[2]),
                    1 => (n[0], n[2]),
                    _ => (n[0], n[1]),
                };
                for b in 1..=pb {
                    for a in 1..=pa {
                        let (i, j, k, gc) = match axis {
                            0 => {
                                let i = if side == 0 { 0 } else { n[0] + 1 };
                                (
                                    i,
                                    a,
                                    b,
                                    [
                                        ghost_axis_global,
                                        grid.offset[1] + a - 1,
                                        grid.offset[2] + b - 1,
                                    ],
                                )
                            }
                            1 => {
                                let j = if side == 0 { 0 } else { n[1] + 1 };
                                (
                                    a,
                                    j,
                                    b,
                                    [
                                        grid.offset[0] + a - 1,
                                        ghost_axis_global,
                                        grid.offset[2] + b - 1,
                                    ],
                                )
                            }
                            _ => {
                                let k = if side == 0 { 0 } else { n[2] + 1 };
                                (
                                    a,
                                    b,
                                    k,
                                    [
                                        grid.offset[0] + a - 1,
                                        grid.offset[1] + b - 1,
                                        ghost_axis_global,
                                    ],
                                )
                            }
                        };
                        assert_eq!(
                            data[field.idx(i, j, k)],
                            encode(gc),
                            "axis {axis} side {side} point ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    fn exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            halo.exchange(&dev, &comm, &mut field);
            check_ghosts(&grid, &field);
        });
    }

    fn split_exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
            check_ghosts(&grid, &field);
        });
    }

    #[test]
    fn two_ranks_along_x() {
        exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn eight_ranks_full_3d() {
        exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn uneven_decomposition() {
        exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn pencil_decomposition() {
        exchange_world([4, 4, 12], [1, 1, 4]);
    }

    #[test]
    fn split_phase_two_ranks() {
        split_exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn split_phase_eight_ranks() {
        split_exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn split_phase_uneven() {
        split_exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn repeated_exchanges_stay_consistent() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            for _ in 0..5 {
                halo.exchange(&dev, &comm, &mut field);
                check_ghosts(&grid, &field);
            }
        });
    }

    #[test]
    fn records_halo_event_with_traffic() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (3 * 3 * 8) as u64
                )),
                "missing halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn split_phase_records_overlap_window() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            let begin = evs
                .iter()
                .position(|e| matches!(e, Event::Begin { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap Begin");
            let halo = evs
                .iter()
                .position(|e| matches!(e, Event::Halo { msgs: 1, .. }))
                .expect("missing halo event");
            let end = evs
                .iter()
                .position(|e| matches!(e, Event::End { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap End");
            assert!(begin < halo && halo < end, "window out of order: {evs:?}");
        }
    }

    #[test]
    fn pack_unpack_run_as_device_kernels() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let rec = Recorder::enabled();
            let dev = Serial::new(rec.clone());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            rec.drain(); // discard the H2D upload
            HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
            let evs = rec.drain();
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Kernel {
                        name: "KernelHaloPack",
                        elems: 9,
                        ..
                    }
                )),
                "missing pack kernel: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Kernel {
                        name: "KernelHaloUnpack",
                        elems: 9,
                        ..
                    }
                )),
                "missing unpack kernel: {evs:?}"
            );
        });
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            for _ in 0..4 {
                halo.exchange(&dev, &comm, &mut field);
            }
            // one interface face along x: steady state keeps exactly one
            // recycled buffer in the axis-0 free list
            let pool = halo.pool.lock().unwrap();
            assert_eq!(
                pool[0].len(),
                1,
                "axis-0 pool should hold one recycled buffer"
            );
            assert!(pool[1].is_empty() && pool[2].is_empty());
        });
    }

    fn make_lane_field(dev: &Serial, grid: &BlockGrid, lane: usize) -> Field<f64> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    interior.push(
                        encode([grid.offset[0] + i, grid.offset[1] + j, grid.offset[2] + k])
                            + (lane as f64) * 1e9,
                    );
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    #[test]
    fn batched_exchange_matches_solo_per_lane() {
        let decomp = Decomp::new([2, 2, 2]);
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::new(&grid);
            let lanes = 3;
            let mut batched: Vec<Field<f64>> = (0..lanes)
                .map(|b| make_lane_field(&dev, &grid, b))
                .collect();
            let mut refs: Vec<&mut Field<f64>> = batched.iter_mut().collect();
            halo.exchange_batch(&dev, &comm, &mut refs);
            for (b, lane) in batched.iter().enumerate() {
                let mut solo = make_lane_field(&dev, &grid, b);
                // LINT: collective-uniform(`batched` holds the same 3
                // lanes on every rank, so all ranks loop in lock-step)
                halo.exchange(&dev, &comm, &mut solo);
                assert_eq!(
                    lane.as_slice(),
                    solo.as_slice(),
                    "lane {b} ghosts differ from a solo exchange"
                );
            }
        });
    }

    #[test]
    fn batched_exchange_sends_one_message_per_face() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut fields: Vec<Field<f64>> =
                (0..4).map(|b| make_lane_field(&dev, &grid, b)).collect();
            let mut refs: Vec<&mut Field<f64>> = fields.iter_mut().collect();
            HaloExchange::new(&grid).exchange_batch(&dev, &comm, &mut refs);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            // One interface face along x; the single message carries all
            // four lanes' planes.
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (4 * 3 * 3 * 8) as u64
                )),
                "missing batched halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn batched_exchange_of_one_lane_equals_solo() {
        let decomp = Decomp::new([3, 2, 2]);
        run_ranks::<f64, _, _>(12, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([7, 5, 6], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::new(&grid);
            let mut batched = make_lane_field(&dev, &grid, 0);
            let mut refs: Vec<&mut Field<f64>> = vec![&mut batched];
            halo.exchange_batch(&dev, &comm, &mut refs);
            let mut solo = make_lane_field(&dev, &grid, 0);
            halo.exchange(&dev, &comm, &mut solo);
            assert_eq!(batched.as_slice(), solo.as_slice());
            check_ghosts(&grid, &batched);
        });
    }

    fn make_field_f32(dev: &Serial, grid: &BlockGrid) -> Field<f32> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    // The encoded values stay below 2^24, so they are
                    // exactly representable in f32 and ghost provenance
                    // can be checked with exact equality.
                    interior.push(encode([
                        grid.offset[0] + i,
                        grid.offset[1] + j,
                        grid.offset[2] + k,
                    ]) as f32);
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    fn check_ghosts_f32(grid: &BlockGrid, field: &Field<f32>) {
        // Reuse the f64 checker by widening: the payload is bit-exact.
        let dev = Serial::new(Recorder::disabled());
        let mut wide = Field::<f64>::zeros(&dev, grid);
        for (w, v) in wide.as_mut_slice().iter_mut().zip(field.as_slice()) {
            *w = f64::from(*v);
        }
        check_ghosts(grid, &wide);
    }

    fn f32_exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            halo.exchange_f32(&dev, &comm, &mut field);
            check_ghosts_f32(&grid, &field);
        });
    }

    #[test]
    fn f32_exchange_two_ranks() {
        f32_exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn f32_exchange_eight_ranks() {
        f32_exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn f32_exchange_uneven_odd_faces() {
        // Odd face element counts exercise the zero tail lane of the
        // two-lanes-per-word packing.
        f32_exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn f32_split_phase_eight_ranks() {
        let decomp = Decomp::new([2, 2, 2]);
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
            check_ghosts_f32(&grid, &field);
        });
    }

    #[test]
    fn f32_exchange_halves_wire_bytes() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::<f64>::new(&grid);
            let mut wide = make_field(&dev, &grid);
            halo.exchange(&dev, &comm, &mut wide);
            let mut field = make_field_f32(&dev, &grid);
            halo.exchange_f32(&dev, &comm, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            // 9-element face: 72 B in f64, ceil(9/2) = 5 wire words =
            // 40 B in f32 — the payload genuinely (almost) halves.
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (3 * 3 * 8) as u64
                )),
                "missing f64 halo event: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (5 * 8) as u64
                )),
                "missing halved f32 halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn f32_split_phase_records_overlap_window() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            let mut field = field;
            halo.finish(&dev, &comm, pending, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            let begin = evs
                .iter()
                .position(|e| matches!(e, Event::Begin { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap Begin");
            let halo = evs
                .iter()
                .position(|e| matches!(e, Event::Halo { msgs: 1, .. }))
                .expect("missing halo event");
            let end = evs
                .iter()
                .position(|e| matches!(e, Event::End { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap End");
            assert!(begin < halo && halo < end, "window out of order: {evs:?}");
        }
    }

    #[test]
    fn f32_and_f64_exchanges_interleave_on_disjoint_tags() {
        // Both precisions in flight on the same channels at once: the
        // per-precision tag bands keep the half-size f32 messages from
        // ever matching a full-precision receive.
        let decomp = Decomp::new([2, 2, 1]);
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 4], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut wide = make_field(&dev, &grid);
            let mut narrow = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending_wide = halo.begin(&dev, &comm, &wide);
            let pending_narrow = halo.begin(&dev, &comm, &narrow);
            halo.finish(&dev, &comm, pending_narrow, &mut narrow);
            halo.finish(&dev, &comm, pending_wide, &mut wide);
            check_ghosts(&grid, &wide);
            check_ghosts_f32(&grid, &narrow);
        });
    }

    #[test]
    fn f32_buffers_recycle_through_the_shared_pool() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut wide = make_field(&dev, &grid);
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            for _ in 0..4 {
                halo.exchange(&dev, &comm, &mut wide);
                halo.exchange_f32(&dev, &comm, &mut field);
            }
            // One interface face along x: full-width faces and packed
            // wire words recycle through the same axis-0 free list, one
            // buffer in steady state.
            let pool = halo.pool.lock().unwrap();
            assert_eq!(pool[0].len(), 1, "axis-0 pool should hold one buffer");
        });
    }

    #[test]
    fn f32_wire_words_pack_two_lanes_per_f64_word() {
        // Odd length exercises the zero high tail lane; NaN payload bits
        // and signed zero exercise bit preservation (not value equality).
        let wire = Wire::new::<f32, f64>(None);
        assert_eq!((wire.lanes, wire.band), (2, 6));
        let src = [1.5f32, -0.0, f32::from_bits(0x7fc0_dead), 3.25e-38, -7.0];
        let mut words: Vec<f64> = src
            .iter()
            .map(|v| f64::from_bits64(v.to_bits64()))
            .collect();
        wire.squeeze(&mut words);
        assert_eq!(words.len(), 3);
        let w0 = words[0].to_bits();
        assert_eq!(
            w0 as u32,
            src[0].to_bits(),
            "lane 0 rides in the low 32 bits"
        );
        assert_eq!((w0 >> 32) as u32, src[1].to_bits());
        assert_eq!(
            words[2].to_bits() >> 32,
            0,
            "the tail word's high lane is zero"
        );
        wire.unsqueeze(&mut words, src.len());
        for (a, w) in src.iter().zip(&words) {
            assert_eq!(a.to_bits(), f32::from_bits64(w.to_bits64()).to_bits());
        }
    }

    #[test]
    fn wire_bands_keep_channel_sizes_fixed() {
        assert_eq!(Wire::new::<f64, f64>(None).band, 0);
        assert_eq!(Wire::new::<f64, f64>(Some(1)).band, 12);
        assert_eq!(Wire::new::<f64, f64>(Some(4)).band, 30);
        assert_eq!(Wire::new::<f32, f32>(None).lanes, 1);
        let narrow = Wire::new::<f32, f64>(None);
        assert_eq!(narrow.pack.name, "KernelHaloPackF32");
        assert_eq!(narrow.unpack.name, "KernelHaloUnpackF32");
    }

    #[test]
    fn single_rank_exchange_is_a_noop() {
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([4, 4, 4], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, Decomp::single(), 0);
        let mut field = make_field(&dev, &grid);
        let before = field.as_slice().to_vec();
        let comm = comm::SelfComm::<f64>::default();
        HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
        assert_eq!(field.as_slice(), &before[..]);
    }
}
