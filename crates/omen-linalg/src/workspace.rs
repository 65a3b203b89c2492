//! Reusable scratch storage for the per-point hot path.
//!
//! The GF and SSE kernels perform thousands of small dense operations per
//! energy-momentum point; allocating a fresh [`CMatrix`] for every
//! temporary dominates the runtime of small-block problems and defeats
//! the cache-blocked GEMM. A [`Workspace`] is an arena of scratch slots
//! with a checkout (`take`/`give`) discipline: the first solve through a
//! workspace allocates its slots, every later solve reuses them, so the
//! steady-state hot path performs **zero heap allocations** (asserted by
//! the `integration_alloc` regression test).
//!
//! A [`WorkspacePool`] shares warm workspaces across worker threads and
//! Born iterations: the driver leases one workspace per worker per sweep
//! and returns it on drop, so the whole self-consistent loop allocates
//! only during warmup.

use crate::batched::{BatchArena, PackedB};
use crate::complex::C64;
use crate::dense::CMatrix;
use crate::lu::{LuFactors, SingularMatrix};
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// An arena of reusable scratch buffers (matrices, matrix vectors, raw
/// element buffers) plus LU factorization storage.
///
/// `take*` hands out a buffer (allocating only when the pool has no
/// suitable one); `give*` returns it for reuse. Buffers not given back are
/// simply dropped — the pool never grows beyond what was returned.
#[derive(Default)]
pub struct Workspace {
    /// Free matrices, checked out best-fit by capacity.
    free: Vec<CMatrix>,
    /// Free `Vec<CMatrix>` containers (contents already drained).
    free_vecs: Vec<Vec<CMatrix>>,
    /// Free raw element buffers, checked out best-fit by capacity.
    free_bufs: Vec<Vec<C64>>,
    /// Free split-complex plane buffers (the lane blocks of the RGF row
    /// solve), checked out best-fit by capacity.
    free_planes: Vec<Vec<f64>>,
    /// Free pre-packed-operand packs for the batched kernels.
    free_packed_b: Vec<PackedB>,
    /// Split-complex pack arena of the batched SBSMM path.
    batch: BatchArena,
    /// LU storage shared by [`Workspace::invert_into`].
    lu: LuFactors,
    /// Pivot rows of [`crate::planes_invert`], every step and lane.
    pub(crate) lane_pivots: Vec<usize>,
}

impl Workspace {
    /// An empty workspace. Performs no allocation; slots materialize on
    /// first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Checks out a zeroed `rows × cols` matrix, reusing the smallest
    /// pooled buffer that fits (allocating a fresh one only when none
    /// does).
    pub fn take(&mut self, rows: usize, cols: usize) -> CMatrix {
        let need = rows * cols;
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, m) in self.free.iter().enumerate() {
            let cap = m.capacity();
            if cap >= need && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut m = self.free.swap_remove(i);
                m.resize(rows, cols);
                m
            }
            None => CMatrix::zeros(rows, cols),
        }
    }

    /// Returns a matrix to the pool.
    pub fn give(&mut self, m: CMatrix) {
        self.free.push(m);
    }

    /// Checks out an empty `Vec<CMatrix>` container (capacity reused).
    pub fn take_vec(&mut self) -> Vec<CMatrix> {
        self.free_vecs.pop().unwrap_or_default()
    }

    /// Returns a matrix vector: its matrices go back to the matrix pool,
    /// the emptied container to the container pool.
    pub fn give_vec(&mut self, mut v: Vec<CMatrix>) {
        for m in v.drain(..) {
            self.free.push(m);
        }
        self.free_vecs.push(v);
    }

    /// Checks out a zeroed raw buffer of `len` elements.
    pub fn take_buf(&mut self, len: usize) -> Vec<C64> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free_bufs.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut b = self.free_bufs.swap_remove(i);
                b.clear();
                b.resize(len, C64::ZERO);
                b
            }
            None => vec![C64::ZERO; len],
        }
    }

    /// Returns a raw buffer to the pool.
    pub fn give_buf(&mut self, b: Vec<C64>) {
        self.free_bufs.push(b);
    }

    /// Checks out a plane buffer of `len` `f64`s (contents unspecified:
    /// every user overwrites before reading), reusing the smallest pooled
    /// one that fits.
    pub fn take_planes(&mut self, len: usize) -> Vec<f64> {
        let best = (self.free_planes.iter().enumerate())
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut b = best.map_or_else(Vec::new, |i| self.free_planes.swap_remove(i));
        b.resize(len, 0.0);
        b
    }

    /// Returns a plane buffer to the pool.
    pub fn give_planes(&mut self, b: Vec<f64>) {
        self.free_planes.push(b);
    }

    /// Checks out a [`PackedB`] pack (warm when one was given back). The
    /// per-point SSE kernels pack each shared `G` block once per pair and
    /// sweep it across the three gradient directions.
    pub fn take_packed_b(&mut self) -> PackedB {
        self.free_packed_b.pop().unwrap_or_default()
    }

    /// Returns a [`PackedB`] to the pool for reuse.
    pub fn give_packed_b(&mut self, pb: PackedB) {
        self.free_packed_b.push(pb);
    }

    /// The workspace's split-complex pack arena: workspace-held buffers
    /// for the batched kernels instead of the thread-local arena.
    pub fn batch_arena(&mut self) -> &mut BatchArena {
        &mut self.batch
    }

    /// Writes `a⁻¹` into `out` using the workspace's LU storage. Like
    /// [`crate::lu::invert`], panics on a singular matrix (RGF diagonal
    /// blocks of a well-posed NEGF system are always invertible).
    pub fn invert_into(&mut self, a: &CMatrix, out: &mut CMatrix) {
        self.try_invert_into(a, out)
            .unwrap_or_else(|e| panic!("invert: {e} (matrix {}x{})", a.rows(), a.cols()));
    }

    /// Fallible variant of [`Workspace::invert_into`].
    pub fn try_invert_into(
        &mut self,
        a: &CMatrix,
        out: &mut CMatrix,
    ) -> Result<(), SingularMatrix> {
        self.lu.factorize(a)?;
        self.lu.invert_into(out);
        Ok(())
    }

    /// Solves `A X = B` in place (`b` becomes `X`) using the workspace's
    /// LU storage; panics on a singular matrix.
    pub fn solve_inplace(&mut self, a: &CMatrix, b: &mut CMatrix) {
        self.lu
            .factorize(a)
            .unwrap_or_else(|e| panic!("solve: {e} (matrix {}x{})", a.rows(), a.cols()));
        self.lu.solve_inplace(b);
    }

    /// Drops every pooled buffer, returning the workspace to its freshly
    /// constructed state.
    pub fn reset(&mut self) {
        self.free.clear();
        self.free_vecs.clear();
        self.free_bufs.clear();
        self.free_planes.clear();
        self.free_packed_b.clear();
        self.batch.reset();
        self.lu = LuFactors::new();
        self.lane_pivots = Vec::new();
    }

    /// Approximate bytes held by pooled (checked-in) buffers.
    pub fn pooled_bytes(&self) -> usize {
        let mats: usize = self.free.iter().map(|m| m.capacity() * 16).sum();
        let bufs: usize = self.free_bufs.iter().map(|b| b.capacity() * 16).sum();
        let planes: usize = self.free_planes.iter().map(|b| b.capacity() * 8).sum();
        mats + bufs + planes
    }
}

/// A thread-safe pool of warm [`Workspace`]s.
///
/// Executors lease one workspace per worker; the lease returns it on drop,
/// so the next sweep (or the next Born iteration) reuses the warm buffers
/// instead of re-allocating them.
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Leases a workspace: a warm one when available, else a fresh one.
    pub fn lease(&self) -> WorkspaceLease<'_> {
        let ws = self
            .free
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        WorkspaceLease {
            pool: Some(self),
            ws: Some(ws),
        }
    }

    /// Workspaces currently checked in.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }
}

/// A leased [`Workspace`]; dereferences to the workspace and returns it to
/// its pool on drop.
pub struct WorkspaceLease<'a> {
    pool: Option<&'a WorkspacePool>,
    ws: Option<Workspace>,
}

impl WorkspaceLease<'_> {
    /// A lease not backed by any pool: the workspace is dropped at the end
    /// of the lease. Lets pool-agnostic code hold a `WorkspaceLease`
    /// unconditionally.
    pub fn detached() -> WorkspaceLease<'static> {
        WorkspaceLease {
            pool: None,
            ws: Some(Workspace::new()),
        }
    }
}

impl Deref for WorkspaceLease<'_> {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace lease already returned")
    }
}

impl DerefMut for WorkspaceLease<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace lease already returned")
    }
}

impl Drop for WorkspaceLease<'_> {
    fn drop(&mut self) {
        if let (Some(pool), Some(ws)) = (self.pool, self.ws.take()) {
            pool.free.lock().expect("workspace pool poisoned").push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::matmul;

    #[test]
    fn take_reuses_returned_buffers() {
        let mut ws = Workspace::new();
        let m = ws.take(8, 8);
        let ptr = m.as_slice().as_ptr();
        ws.give(m);
        // Same size: the identical buffer comes back, zeroed.
        let m2 = ws.take(8, 8);
        assert_eq!(m2.as_slice().as_ptr(), ptr);
        assert_eq!(m2.max_abs(), 0.0);
        ws.give(m2);
        // Smaller request still reuses (capacity fits).
        let m3 = ws.take(4, 4);
        assert_eq!(m3.shape(), (4, 4));
        assert_eq!(m3.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.take(2, 2);
        let big = ws.take(16, 16);
        let sp = small.as_slice().as_ptr();
        ws.give(big);
        ws.give(small);
        // A 2x2 request must not consume the 16x16 buffer.
        let got = ws.take(2, 2);
        assert_eq!(got.as_slice().as_ptr(), sp);
    }

    #[test]
    fn vec_and_buf_pools_round_trip() {
        let mut ws = Workspace::new();
        let mut v = ws.take_vec();
        v.push(ws.take(3, 3));
        v.push(ws.take(3, 3));
        ws.give_vec(v);
        let v2 = ws.take_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 2, "container capacity reused");
        let b = ws.take_buf(64);
        assert_eq!(b.len(), 64);
        let bp = b.as_ptr();
        ws.give_buf(b);
        let b2 = ws.take_buf(32);
        assert_eq!(b2.as_ptr(), bp);
    }

    #[test]
    fn invert_into_matches_invert() {
        let a = CMatrix::from_fn(9, 9, |i, j| {
            let base = c64((i as f64 - j as f64) * 0.1, (i * j) as f64 * 0.05);
            if i == j {
                base + c64(4.0, 0.5)
            } else {
                base
            }
        });
        let mut ws = Workspace::new();
        let mut inv = ws.take(9, 9);
        ws.invert_into(&a, &mut inv);
        assert!(matmul(&a, &inv).approx_eq(&CMatrix::identity(9), 1e-9));
        assert!(inv.approx_eq(&crate::lu::invert(&a), 1e-13));
    }

    #[test]
    fn pool_lease_returns_on_drop() {
        let pool = WorkspacePool::new();
        {
            let mut lease = pool.lease();
            let m = lease.take(4, 4);
            lease.give(m);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
        // The warm workspace comes back with its buffers.
        let lease = pool.lease();
        assert!(lease.pooled_bytes() >= 16 * 16);
        drop(lease);
        assert_eq!(pool.idle(), 1);
        // Detached leases never touch a pool.
        drop(WorkspaceLease::detached());
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn reset_drops_pooled_memory() {
        let mut ws = Workspace::new();
        let m = ws.take(32, 32);
        ws.give(m);
        assert!(ws.pooled_bytes() > 0);
        ws.reset();
        assert_eq!(ws.pooled_bytes(), 0);
    }
}
