//! Allocation-regression test: the per-point hot path must be
//! allocation-free in steady state.
//!
//! A counting global allocator wraps `System`; after one warmup call to
//! populate the [`Workspace`] arena and the reusable outputs, a second
//! `rgf_solve_into` (one lane of the row solve, on the scalar lane of the
//! lane kernel), a second row solve (`rgf_row_into`, energies as SIMD
//! lanes), a `GfSolver::solve_row` whose boundaries are all cached — on
//! energy lanes at the tiny device's blocks and at `gf_heavy`'s 32 × 32 —
//! a second `sse_reference_into` and warm transformed-kernel applications
//! (`gf_heavy`'s shape among them, its `∇H·G` window warm) must perform
//! **zero** heap allocations. This pins
//! the tentpole property of the packed-GEMM/workspace redesign — a future
//! `CMatrix::zeros`, `clone()`, or allocating `matmul` sneaking back into
//! the hot path fails this test.
//!
//! The whole check lives in a single `#[test]` so no concurrent test can
//! pollute the counters (integration-test files build into their own
//! binary, and this one contains nothing else).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dace_omen::comm::{DacePlan, DaceTiling, OmenGrid};
use dace_omen::core::{ExecutorKind, Simulation, SimulationConfig};
use dace_omen::device::{DeviceConfig, DeviceStructure};
use dace_omen::linalg::{
    c64, sbsmm, sbsmm_pb, BatchDims, CMatrix, PackedB, Strides, Workspace, C64,
};
use dace_omen::rgf::testutil::{test_lanes, test_system};
use dace_omen::rgf::{
    rgf_row_into, rgf_solve_into, row_width, BoundaryCache, CacheMode, ElectronParams,
    ElectronSolver, GfSolver, RgfInputs, RgfRow, RgfSolution, RowSink,
};
use dace_omen::sse::testutil::{random_inputs, tiny_device, tiny_problem};
use dace_omen::sse::{
    sse_reference_into, sse_transformed_into, GLayout, MixedConfig, MixedKernel, SseKernel,
    SseOutput, SseProblem, TransformedKernel, Transients,
};
use dace_omen::trace;

// Per-thread counters so the libtest harness's own threads (timers,
// output capture) can't pollute the measurement. `const`-initialized TLS
// of a `Cell<u64>` has no lazy initializer and no destructor, so reading
// it inside the allocator cannot recurse or allocate.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Largest block requested while counting, per entry point:
    /// `[alloc | realloc, alloc_zeroed]`. A block from the first two is
    /// memory the caller goes on to write; a zeroed one may never be
    /// touched.
    static LARGEST: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
}

/// Forwards to `System`, counting this thread's allocation events while
/// counting is on (deallocations are free — dropping into a pool is fine).
struct CountingAllocator;

#[inline]
fn record(entry: usize, size: usize) {
    COUNTING.with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            LARGEST.with(|l| {
                let mut largest = l.get();
                largest[entry] = largest[entry].max(size);
                l.set(largest);
            });
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(0, new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Counts this thread's allocation events during `f`.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    LARGEST.with(|l| l.set([0; 2]));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(|n| n.get())
}

#[test]
fn steady_state_hot_path_is_allocation_free() {
    // ---- RGF: one energy-momentum point at 24 × 24: one lane of the lane
    // kernel (the scalar lane), the lane inverse's factors and pivots from
    // the workspace. ----
    let (m, sl, sg) = test_system(6, 24, 0.13);
    let inputs = RgfInputs {
        m: &m,
        sigma_l: &sl,
        sigma_g: &sg,
    };
    let mut ws = Workspace::new();
    let mut sol = RgfSolution::empty();
    // Warmup: populates the workspace arena, the reusable output blocks,
    // and the GEMM thread-local pack buffers.
    rgf_solve_into(&inputs, &mut ws, &mut sol);
    let baseline_gr = sol.gr_diag[0].clone();

    let rgf_allocs = count_allocations(|| {
        rgf_solve_into(&inputs, &mut ws, &mut sol);
    });
    assert_eq!(
        rgf_allocs, 0,
        "rgf_solve_into allocated {rgf_allocs} times on a warm workspace"
    );
    // The warm re-solve still computes the same answer.
    assert!(
        sol.gr_diag[0].approx_eq(&baseline_gr, 0.0),
        "warm solve must be bit-identical to the warmup solve"
    );

    // ---- RGF row solve: one chunk of energy lanes at the benchmark's
    // `sse_heavy` shape (8 block rows of 12 × 12, one SIMD vector of
    // lanes). The lane blocks come from one workspace plane buffer, the
    // per-lane unpack/invert/emit matrices from the same workspace. ----
    let (nb, bs) = (8, 12);
    let lanes = row_width(bs);
    assert!(lanes > 1, "12 × 12 blocks take the lane path");
    let systems = test_lanes(nb, bs, 0.13, lanes);
    let mut chunk: Vec<RgfInputs> = systems
        .iter()
        .map(|(m, sl, sg)| RgfInputs {
            m,
            sigma_l: sl,
            sigma_g: sg,
        })
        .collect();
    let mut row_ws = Workspace::new();
    let mut checksum = |row_ws: &mut Workspace| {
        let mut sum = 0.0;
        rgf_row_into(&mut chunk[..], row_ws, |_, row| {
            sum += row.gl_diag[(0, 0)].im
        });
        sum
    };
    let baseline_sum = checksum(&mut row_ws);
    let mut warm_sum = 0.0;
    let row_allocs = count_allocations(|| {
        warm_sum = checksum(&mut row_ws);
    });
    assert_eq!(
        row_allocs, 0,
        "rgf_row_into allocated {row_allocs} times on a warm workspace"
    );
    assert_eq!(
        warm_sum.to_bits(),
        baseline_sum.to_bits(),
        "warm row solve must be bit-identical to the warmup solve"
    );

    // ---- GF row solve with every boundary cached: a chunk of energy
    // lanes on a shared cache, as the driver's workers use one. A hit hands
    // out the cached `Arc` and the contact Σ≷ are built in workspace
    // blocks, so a warm all-hit row solve allocates nothing. ----
    struct Checksum(f64);
    impl RowSink for Checksum {
        fn row(&mut self, _: usize, row: &RgfRow<'_>, lg: [&(CMatrix, CMatrix); 2]) {
            self.0 += row.gl_diag[(0, 0)].im + lg[0].0[(0, 0)].im + lg[1].1[(0, 0)].im;
        }
    }
    let gf_dev = DeviceStructure::build(DeviceConfig::tiny());
    let lanes = row_width(gf_dev.block_size_el());
    assert!(lanes > 1, "the tiny device's blocks take the lane path");
    let energies: Vec<f64> = (0..lanes).map(|j| -0.3 + 0.1 * j as f64).collect();
    let bc = Arc::new(BoundaryCache::new(lanes));
    let mut solver = ElectronSolver::new(
        &gf_dev,
        gf_dev.linear_potential(0.2, 0.25, 0.75),
        ElectronParams::default(),
        CacheMode::CacheBcSpec,
        vec![0.0],
        energies,
    )
    .with_shared_boundary(Arc::clone(&bc));
    let mut solved = Checksum(0.0);
    solver.solve_row(0, 0..lanes, None, &mut solved);
    solver.solve_row(0, 0..lanes, None, &mut Checksum(0.0));
    let mut hit = Checksum(0.0);
    let row_hit_allocs = count_allocations(|| {
        solver.solve_row(0, 0..lanes, None, &mut hit);
    });
    assert_eq!(
        row_hit_allocs, 0,
        "an all-hit solve_row allocated {row_hit_allocs} times on a warm solver"
    );
    assert_eq!(
        hit.0.to_bits(),
        solved.0.to_bits(),
        "hits are the solved bits"
    );
    let stats = bc.stats();
    assert_eq!((stats.misses, stats.hits), (lanes as u64, 2 * lanes as u64));

    // ---- The same at the benchmark's `gf_heavy` shape: 32 × 32 blocks on
    // one SIMD vector of energy lanes, every product the lane kernel,
    // every inverse the lane LU. ----
    let heavy_gf = DeviceStructure::build(DeviceConfig {
        nx: 12,
        ny: 8,
        norb: 4,
        ..DeviceConfig::demo()
    });
    assert_eq!(heavy_gf.block_size_el(), 32);
    let lanes = row_width(32);
    assert!(lanes > 1, "32 × 32 blocks take the lane path");
    let energies: Vec<f64> = (0..lanes).map(|j| 0.1 + 0.05 * j as f64).collect();
    let mut solver = ElectronSolver::new(
        &heavy_gf,
        heavy_gf.linear_potential(0.2, 0.25, 0.75),
        ElectronParams::default(),
        CacheMode::CacheBcSpec,
        vec![0.0],
        energies,
    );
    let mut solved = Checksum(0.0);
    solver.solve_row(0, 0..lanes, None, &mut solved);
    solver.solve_row(0, 0..lanes, None, &mut Checksum(0.0));
    let mut hit = Checksum(0.0);
    let heavy_hit_allocs = count_allocations(|| {
        solver.solve_row(0, 0..lanes, None, &mut hit);
    });
    assert_eq!(
        heavy_hit_allocs, 0,
        "an all-hit {lanes}-lane solve_row at 32 × 32 allocated {heavy_hit_allocs} times"
    );
    assert_eq!(
        hit.0.to_bits(),
        solved.0.to_bits(),
        "hits are the solved bits"
    );

    // ---- SSE: one full reference-kernel application ----
    let dev = tiny_device();
    let prob = tiny_problem(&dev);
    let (gl, gg, dl, dg) = random_inputs(&prob, 17);
    let mut sse_ws = Workspace::new();
    let mut sse_out = SseOutput::empty();
    sse_reference_into(&prob, &gl, &gg, &dl, &dg, &mut sse_ws, &mut sse_out);
    let baseline_sigma = sse_out.sigma_l.as_slice().to_vec();

    let sse_allocs = count_allocations(|| {
        sse_reference_into(&prob, &gl, &gg, &dl, &dg, &mut sse_ws, &mut sse_out);
    });
    assert_eq!(
        sse_allocs, 0,
        "sse_reference_into allocated {sse_allocs} times on a warm workspace"
    );
    assert_eq!(
        sse_out.sigma_l.as_slice(),
        &baseline_sigma[..],
        "warm SSE apply must be bit-identical to the warmup apply"
    );

    // ---- Transformed kernel: stages A–D on warm transients, output and
    // the kernel's pair scratch (plane packs, accumulators, `∇H·D`
    // packs), on one worker at every size: the tiny problem, and the
    // benchmark's `sse_heavy` shape, whose 435 456-element `∇H·G` used to
    // take a parallel fork with per-call job buffers and threads. ----
    let gl_am = gl.to_layout(GLayout::AtomMajor);
    let gg_am = gg.to_layout(GLayout::AtomMajor);
    let heavy_dev = DeviceStructure::build(DeviceConfig {
        nx: 8,
        ny: 4,
        norb: 3,
        ..DeviceConfig::demo()
    });
    let heavy = SseProblem::new(&heavy_dev, 4, 24, 4, 6, 1.0, 1.0);
    let (hgl, hgg, hdl, hdg) = random_inputs(&heavy, 17);
    let (hgl, hgg) = (
        hgl.to_layout(GLayout::AtomMajor),
        hgg.to_layout(GLayout::AtomMajor),
    );
    for (prob, gl, gg, dl, dg) in [
        (&prob, &gl_am, &gg_am, &dl, &dg),
        (&heavy, &hgl, &hgg, &hdl, &hdg),
    ] {
        let mut tr = Transients::empty();
        let mut tr_out = SseOutput::empty();
        sse_transformed_into(prob, gl, gg, dl, dg, &mut tr, &mut tr_out);
        let baseline_sigma = tr_out.sigma_l.as_slice().to_vec();
        let transformed_allocs = count_allocations(|| {
            sse_transformed_into(prob, gl, gg, dl, dg, &mut tr, &mut tr_out);
        });
        assert_eq!(
            transformed_allocs,
            0,
            "sse_transformed_into allocated {transformed_allocs} times on warm storage ({} atoms)",
            prob.na()
        );
        assert_eq!(
            tr_out.sigma_l.as_slice(),
            &baseline_sigma[..],
            "warm transformed apply must be bit-identical to the warmup apply"
        );
    }

    // ---- Transformed kernel at `gf_heavy`'s shape (96 atoms of 4 × 4,
    // nk 1, ne 24, one phonon point), one worker: the `∇H·G` window's
    // slots, reader counts and schedule are warm after one application,
    // and the kernel's double-buffered outputs after two. ----
    let heavy_sse = SseProblem::new(&heavy_gf, 1, 24, 1, 1, 1.0, 1.0);
    let (sgl, sgg, sdl, sdg) = random_inputs(&heavy_sse, 29);
    let (sgl, sgg) = (
        sgl.to_layout(GLayout::AtomMajor),
        sgg.to_layout(GLayout::AtomMajor),
    );
    let mut transformed = TransformedKernel::new();
    transformed.run(&heavy_sse, &sgl, &sgg, &sdl, &sdg);
    transformed.run(&heavy_sse, &sgl, &sgg, &sdl, &sdg);
    let window_allocs = count_allocations(|| {
        transformed.run(&heavy_sse, &sgl, &sgg, &sdl, &sdg);
    });
    assert_eq!(
        window_allocs, 0,
        "a warm TransformedKernel::run at gf_heavy's shape allocated {window_allocs} times"
    );

    // ---- DaCe plan tile compute: the transformed stages on a tile's
    // resident tensors. One run builds the plan state and leaves G^≷/D^≷
    // in the tile; the compute between collectives 2 and 3 then touches
    // only buffers the plan owns. (A rank's payloads for the four
    // collectives are the plan's only other per-iteration allocations.) ----
    let tiling = DaceTiling::new(1, 1, prob.na(), prob.ne);
    let grid = OmenGrid::new(1, 1, prob.nk, prob.ne);
    let mut plan = DacePlan::new(&prob, &grid, &tiling);
    let mut plan_out = SseOutput::empty();
    plan.run(&prob, &gl, &gg, &dl, &dg, &mut plan_out);
    // The run computed on a rank thread and sized the tile's own pair
    // scratch; warm this thread's pack arena too.
    plan.tile_mut(0).compute(&prob);
    let mut tile_flops = 0;
    let tile_allocs = count_allocations(|| {
        tile_flops = plan.tile_mut(0).compute(&prob);
    });
    assert_eq!(
        tile_allocs, 0,
        "DaceTile::compute allocated {tile_allocs} times on a warm plan"
    );
    assert_eq!(tile_flops, plan_out.flops, "same work as inside the run");

    // ---- Mixed-precision kernel: the transformed schedule on quantised
    // operands, warm at the `sse_heavy` shape on one worker — its
    // transients, the two quantised `∇H·G` copies, the pair scratch and
    // the double-buffered outputs (two warmup runs fill both halves). ----
    let mut mixed = MixedKernel::new(MixedConfig::default());
    mixed.run(&heavy, &hgl, &hgg, &hdl, &hdg);
    mixed.run(&heavy, &hgl, &hgg, &hdl, &hdg);
    let mixed_allocs = count_allocations(|| {
        mixed.run(&heavy, &hgl, &hgg, &hdl, &hdg);
    });
    assert_eq!(
        mixed_allocs, 0,
        "warm MixedKernel::run allocated {mixed_allocs} times"
    );

    // ---- Batched path: packed sbsmm (stage-C shape: A strided, B shared)
    // and the prepacked-B sweep. One warmup call sizes the thread-local
    // BatchArena; the second pass must not touch the heap. ----
    let dims = BatchDims::square(12);
    let bsz = 12 * 12;
    let batch = 32;
    let s = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let a: Vec<C64> = (0..batch * bsz)
        .map(|i| c64((i as f64).sin() * 1e-3, (i as f64).cos() * 1e-3))
        .collect();
    let b: Vec<C64> = (0..bsz).map(|i| c64(1e-3, i as f64 * 1e-5)).collect();
    let mut c = vec![C64::ZERO; batch * bsz];
    let mut pb = PackedB::empty();
    // Warmup.
    sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
    pb.pack(12, 12, &b);
    sbsmm_pb(dims, batch, C64::ONE, &a, s.a, &pb, C64::ONE, &mut c, s.c);

    let batched_allocs = count_allocations(|| {
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
        pb.pack(12, 12, &b);
        sbsmm_pb(dims, batch, C64::ONE, &a, s.a, &pb, C64::ONE, &mut c, s.c);
    });
    assert_eq!(
        batched_allocs, 0,
        "warm batched sbsmm path allocated {batched_allocs} times"
    );

    // ---- Warm driver SSE path: the sweep service reapplies the SSE
    // kernel on every Born iteration of every warm-started point, so the
    // kernel's double-buffered outputs and internal workspace must absorb
    // repeat calls without touching the heap. Two warmup calls fill both
    // halves of the double buffer; the third call must allocate nothing.
    // (The GF phase is excluded by design: its per-point observable
    // accumulators are built per phase, not per kernel application. One
    // worker, spelled out: a parallel SSE phase allocates its scheduler
    // run just as a parallel GF phase does.) ----
    let mut sim = Simulation::new(SimulationConfig {
        executor: ExecutorKind::Serial,
        ..SimulationConfig::tiny()
    })
    .expect("valid config");
    let gf = sim.gf_phase();
    let (g_l, g_g, d_l, d_g) = (gf.g_l, gf.g_g, gf.d_l, gf.d_g);
    sim.sse_phase(&g_l, &g_g, &d_l, &d_g);
    sim.sse_phase(&g_l, &g_g, &d_l, &d_g);

    let driver_sse_allocs = count_allocations(|| {
        sim.sse_phase(&g_l, &g_g, &d_l, &d_g);
    });
    assert_eq!(
        driver_sse_allocs, 0,
        "warm driver sse_phase allocated {driver_sse_allocs} times"
    );

    // ---- Construction touches no large memory: `Simulation::new` must
    // not obtain a tensor-sized block it then writes (the Σ/Π state stays
    // empty until the first mixing step), so its cost cannot depend on
    // whether the allocator serves such a block from warm heap or from
    // fresh pages. On the demo grids a Σ tensor is 1.9 MiB. ----
    let mut demo = None;
    count_allocations(|| {
        demo = Some(Simulation::new(SimulationConfig::demo()).expect("valid config"));
    });
    let [plain, _zeroed] = LARGEST.with(|l| l.get());
    assert!(
        plain < 64 << 10,
        "Simulation::new requested a {plain}-byte block through alloc/realloc"
    );
    drop(demo);

    // ---- Disarmed tracing: the kernels above are instrumented with
    // omen-trace counters and spans, so the warm point path now passes
    // through the registry's disarmed checks. Pin the contract that a
    // disarmed registry is allocation-free — both through the raw probe
    // loop and through the instrumented sse_phase re-run. ----
    trace::disarm();
    let trace_probe_allocs = count_allocations(|| {
        for i in 0..64u64 {
            let _span = trace::span!("disarmed_probe");
            let _phase = trace::PhaseGuard::enter("disarmed_probe");
            trace::add(trace::Counter::GemmFlops, i);
            trace::add2(trace::Counter::SbsmmCalls, 1, trace::Counter::SbsmmFlops, i);
            trace::event2("disarmed_probe", i as f64, 0.0);
        }
        sim.sse_phase(&g_l, &g_g, &d_l, &d_g);
    });
    trace::rearm_from_env();
    assert_eq!(
        trace_probe_allocs, 0,
        "disarmed tracing allocated {trace_probe_allocs} times on the warm path"
    );
}
