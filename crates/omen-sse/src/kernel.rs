//! The [`SseKernel`] trait: SSE evaluation as a pluggable strategy.
//!
//! The three kernel variants of the paper (§5.3–5.4) share one signature —
//! Green's function tensors in, self-energy tensors out — so the driver
//! dispatches through a trait object instead of matching on an enum. The
//! contract: `G≷` arrives atom-major, as the GF phase writes it, and every
//! kernel reads it in place and emits `Σ≷` atom-major, so the driver mixes
//! any kernel's output elementwise.
//!
//! Kernels are *stateful*: `run` takes `&mut self` and writes into
//! double-buffered output tensors owned by the kernel (see
//! [`KernelState`]), so a warm Born loop re-applies the kernel without
//! touching the heap. [`TransformedKernel`] and [`MixedKernel`] run on
//! [`SseProblem::workers`] scheduler workers (one, unless a driver sets
//! its executor's count) and keep one pair scratch per worker next to
//! their transients. The previous iteration's output stays readable in
//! the other buffer, which is what makes [`SseKernel::output_delta`] — the
//! relative Σ change between consecutive Born iterations — free to
//! compute.

use crate::mixed::{mixed_into, MixedConfig};
use crate::problem::SseProblem;
use crate::reference::{sse_reference_into, SseOutput};
use crate::tensors::{DTensor, GTensor};
use crate::transformed::{sse_transformed_into, Transients};
use omen_linalg::Workspace;

/// Reusable state shared by every kernel implementation: the
/// double-buffered outputs.
///
/// All buffers start empty and materialize on first use; from the second
/// `run` on the same problem shape onward the kernel performs zero heap
/// allocations (pinned by `tests/integration_alloc.rs`).
#[derive(Default)]
pub struct KernelState {
    out: [SseOutput; 2],
    cur: usize,
    ran: [bool; 2],
}

impl KernelState {
    /// Fresh state; performs no allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances to the other output buffer and returns its index.
    fn flip(&mut self) -> usize {
        if self.ran[self.cur] {
            self.cur = 1 - self.cur;
        }
        self.cur
    }

    /// The most recently produced output.
    pub fn output(&self) -> &SseOutput {
        &self.out[self.cur]
    }

    /// Relative max-norm change of `Σ^<` between the two most recent
    /// applications, or `None` before two runs have completed (or after
    /// [`reset_history`](Self::reset_history)). A cheap convergence
    /// diagnostic for the Born loop that costs no extra storage thanks to
    /// the double buffer.
    pub fn output_delta(&self) -> Option<f64> {
        let prev = 1 - self.cur;
        if !(self.ran[self.cur] && self.ran[prev]) {
            return None;
        }
        let a = &self.out[self.cur].sigma_l;
        let b = &self.out[prev].sigma_l;
        if (a.nk, a.ne, a.na, a.norb) != (b.nk, b.ne, b.na, b.norb) {
            return None;
        }
        let scale = a.max_abs().max(1e-300);
        Some(a.max_deviation(b) / scale)
    }

    /// Forgets run history (e.g. when the same kernel instance is reused
    /// for a different sweep point) while keeping the allocated buffers.
    pub fn reset_history(&mut self) {
        self.ran = [false, false];
    }

    /// Advances the double buffer and hands out the fresh output slot,
    /// marking it as produced. For kernel implementations that assemble
    /// their output elsewhere (e.g. a distributed communication-plan
    /// kernel gathering rank contributions) and then deposit it here so
    /// [`output_delta`](Self::output_delta) keeps working.
    pub fn advance_output(&mut self) -> &mut SseOutput {
        let cur = self.flip();
        self.ran[cur] = true;
        &mut self.out[cur]
    }
}

/// One scattering-self-energy evaluation strategy.
///
/// Implementations must be deterministic — the same inputs produce the
/// same output values — but are stateful for reuse: `run` borrows the
/// kernel mutably and the returned output lives inside the kernel's
/// double buffer. A driver owns one kernel per simulation; concurrent
/// simulations each own their own instance (the trait is `Send` so whole
/// simulations migrate between worker threads, as in `omen-serve`).
pub trait SseKernel: Send {
    /// Short identifier for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Evaluates `Σ^≷` and `Π^≷` from the Green's function tensors
    /// (atom-major `G^≷`) into the kernel's current output buffer, `Σ^≷`
    /// atom-major.
    fn run(
        &mut self,
        prob: &SseProblem,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
    ) -> &SseOutput;

    /// The shared reusable state (the double buffer).
    fn state(&self) -> &KernelState;

    /// Mutable access to the shared state.
    fn state_mut(&mut self) -> &mut KernelState;

    /// Relative `Σ^<` change between the last two applications (see
    /// [`KernelState::output_delta`]).
    fn output_delta(&self) -> Option<f64> {
        self.state().output_delta()
    }
}

/// The OMEN-style reference loop nest (baseline; §5.3, Table 10).
#[derive(Default)]
pub struct ReferenceKernel {
    state: KernelState,
    ws: Workspace,
}

impl ReferenceKernel {
    /// A fresh reference kernel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SseKernel for ReferenceKernel {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn run(
        &mut self,
        prob: &SseProblem,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
    ) -> &SseOutput {
        let _span = omen_trace::span!("sse_kernel");
        let cur = self.state.flip();
        let out = &mut self.state.out[cur];
        sse_reference_into(prob, g_l, g_g, d_l, d_g, &mut self.ws, out);
        omen_trace::add(omen_trace::Counter::SseFlops, out.flops);
        self.state.ran[cur] = true;
        &self.state.out[cur]
    }

    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }
}

/// The DaCe-transformed kernel (map fission, relayout, strided-batched
/// GEMM, fusion; Fig. 6).
#[derive(Default)]
pub struct TransformedKernel {
    state: KernelState,
    tr: Transients,
}

impl TransformedKernel {
    /// A fresh transformed kernel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SseKernel for TransformedKernel {
    fn name(&self) -> &'static str {
        "transformed"
    }

    fn run(
        &mut self,
        prob: &SseProblem,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
    ) -> &SseOutput {
        let _span = omen_trace::span!("sse_kernel");
        let cur = self.state.flip();
        let out = &mut self.state.out[cur];
        sse_transformed_into(prob, g_l, g_g, d_l, d_g, &mut self.tr, out);
        omen_trace::add(omen_trace::Counter::SseFlops, out.flops);
        self.state.ran[cur] = true;
        &self.state.out[cur]
    }

    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }
}

/// The Tensor-Core-emulating binary16 kernel (§5.4): the transformed
/// schedule with binary16-quantised stage-C operands, the `∇H·G` streams
/// quantised as the momentum harmonics the products take (see
/// [`crate::mixed`]).
#[derive(Default)]
pub struct MixedKernel {
    /// Normalization policy of the f16 conversion.
    pub config: MixedConfig,
    state: KernelState,
    tr: Transients,
    /// The quantised copies of the `∇H·G^≷` transients.
    hg16: [Vec<f64>; 2],
}

impl MixedKernel {
    /// A mixed-precision kernel with the given configuration.
    pub fn new(config: MixedConfig) -> Self {
        MixedKernel {
            config,
            ..Default::default()
        }
    }
}

impl SseKernel for MixedKernel {
    fn name(&self) -> &'static str {
        "mixed-f16"
    }

    fn run(
        &mut self,
        prob: &SseProblem,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
    ) -> &SseOutput {
        let _span = omen_trace::span!("sse_kernel");
        let cur = self.state.flip();
        mixed_into(
            prob,
            [g_l, g_g],
            [d_l, d_g],
            self.config,
            &mut self.tr,
            &mut self.hg16,
            &mut self.state.out[cur],
        );
        omen_trace::add(omen_trace::Counter::SseFlops, self.state.out[cur].flops);
        self.state.ran[cur] = true;
        &self.state.out[cur]
    }

    fn state(&self) -> &KernelState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn trait_dispatch_matches_direct_calls() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 7);
        let direct = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let mut kernels: Vec<Box<dyn SseKernel>> = vec![
            Box::new(ReferenceKernel::new()),
            Box::new(TransformedKernel::new()),
            Box::new(MixedKernel::default()),
        ];
        for k in &mut kernels {
            let name = k.name();
            let out = k.run(&prob, &gl, &gg, &dl, &dg);
            let scale = direct.sigma_l.max_abs().max(1e-300);
            let tol = if name == "mixed-f16" { 1e-2 } else { 1e-10 };
            assert!(
                out.sigma_l.max_deviation(&direct.sigma_l) / scale < tol,
                "{name} deviates from reference"
            );
        }
    }

    #[test]
    fn output_delta_sees_nan() {
        let mut state = KernelState::new();
        let mut sigma = GTensor::zeros(1, 2, 1, 2);
        sigma.block_mut(0, 0, 0)[0] = omen_linalg::c64(1.0, 0.0);
        state.advance_output().sigma_l = sigma.clone();
        sigma.block_mut(0, 1, 0)[2] = omen_linalg::c64(f64::NAN, 0.0);
        state.advance_output().sigma_l = sigma;
        let delta = state.output_delta().expect("two outputs");
        assert!(delta.is_nan(), "a NaN Σ reads as change {delta}");
    }

    #[test]
    fn double_buffer_tracks_delta() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 19);
        let mut k = ReferenceKernel::new();
        assert!(k.output_delta().is_none(), "no delta before any run");
        k.run(&prob, &gl, &gg, &dl, &dg);
        assert!(k.output_delta().is_none(), "no delta after a single run");
        k.run(&prob, &gl, &gg, &dl, &dg);
        // Identical inputs: the two buffers must agree exactly.
        assert_eq!(k.output_delta(), Some(0.0));
        // Different inputs: delta becomes nonzero, and the previous
        // output is still intact in the other buffer.
        let (gl2, gg2, ..) = random_inputs(&prob, 23);
        k.run(&prob, &gl2, &gg2, &dl, &dg);
        assert!(k.output_delta().unwrap() > 0.0);
        k.state_mut().reset_history();
        assert!(k.output_delta().is_none(), "history reset clears delta");
    }
}
