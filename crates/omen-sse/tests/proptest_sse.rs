//! Property-based tests on the SSE kernels: schedule equivalence and
//! linearity must hold for arbitrary grid shapes and random inputs.

use omen_device::{DeviceConfig, DeviceStructure};
use omen_sse::testutil::random_inputs;
use omen_sse::{sse_reference, sse_transformed, SseProblem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn transformed_always_matches_reference(
        nk in 1usize..6,
        ne in 4usize..8,
        nw in 1usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(ne > nw);
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let prob = SseProblem::new(&dev, nk, ne, nk, nw, 1.0, 1.0);
        let (gl, gg, dl, dg) = random_inputs(&prob, seed);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let transformed = sse_transformed(&prob, &gl, &gg, &dl, &dg);
        let scale = reference.sigma_l.max_abs().max(1e-300);
        prop_assert!(transformed.sigma_l.max_deviation(&reference.sigma_l) / scale < 1e-11);
        let scale_p = reference.pi_l.max_abs().max(1e-300);
        prop_assert!(transformed.pi_l.max_deviation(&reference.pi_l) / scale_p < 1e-11);
        // The transformation must never add flops.
        prop_assert!(transformed.flops <= reference.flops);
    }

    #[test]
    fn sse_linear_in_g(seed in 0u64..1000) {
        // Σ[α·G] == α·Σ[G] and Π[α·G] == α²·Π[G] (bilinear in G).
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0);
        let (gl, gg, dl, dg) = random_inputs(&prob, seed);
        let mut gl2 = gl.clone();
        let mut gg2 = gg.clone();
        for v in gl2.as_mut_slice() { *v = v.scale(2.0); }
        for v in gg2.as_mut_slice() { *v = v.scale(2.0); }
        let base = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let scaled = sse_reference(&prob, &gl2, &gg2, &dl, &dg);
        let mut worst_sigma = 0.0f64;
        for (x, y) in base.sigma_l.as_slice().iter().zip(scaled.sigma_l.as_slice()) {
            worst_sigma = worst_sigma.max((y.scale(0.5) - *x).abs());
        }
        prop_assert!(worst_sigma / base.sigma_l.max_abs().max(1e-300) < 1e-12);
        let mut worst_pi = 0.0f64;
        for (x, y) in base.pi_l.as_slice().iter().zip(scaled.pi_l.as_slice()) {
            worst_pi = worst_pi.max((y.scale(0.25) - *x).abs());
        }
        prop_assert!(worst_pi / base.pi_l.max_abs().max(1e-300) < 1e-12);
    }
}

// ---- task-parallel kernels against their one-worker evaluation ----

use omen_sse::{MixedKernel, SseKernel, SseOutput, TransformedKernel};

fn bits(out: &SseOutput) -> Vec<u64> {
    let g = [&out.sigma_l, &out.sigma_g].map(|t| t.as_slice());
    let d = [&out.pi_l, &out.pi_g].map(|t| t.as_slice());
    (g.into_iter().chain(d).flatten())
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

#[test]
fn kernels_are_bitwise_identical_at_every_worker_count() {
    let tiny = DeviceStructure::build(DeviceConfig::tiny());
    // The benchmark's `sweep_warm` shape: 160 704 elements of `∇H·G`,
    // above the size at which stage A used to fork.
    let wide = DeviceStructure::build(DeviceConfig {
        nx: 6,
        ny: 4,
        norb: 3,
        ..DeviceConfig::demo()
    });
    let kernels: [fn() -> Box<dyn SseKernel>; 2] = [
        || Box::new(TransformedKernel::new()),
        || Box::new(MixedKernel::default()),
    ];
    for (dev, nk, ne, nw) in [(&tiny, 2, 6, 2), (&wide, 2, 24, 2)] {
        let mut prob = SseProblem::new(dev, nk, ne, nk, nw, 0.7, 1.3);
        let (gl, gg, dl, dg) = random_inputs(&prob, 11);
        for new_kernel in kernels {
            let mut kernel = new_kernel();
            let one = kernel.run(&prob, &gl, &gg, &dl, &dg).clone();
            assert!(one.sigma_l.max_abs() > 0.0 && one.pi_l.max_abs() > 0.0);
            for workers in [2, 3, 5] {
                prob.workers = workers;
                let mut kernel = new_kernel();
                let what = format!(
                    "{} on {workers} workers, {} atoms",
                    kernel.name(),
                    prob.na()
                );
                let got = kernel.run(&prob, &gl, &gg, &dl, &dg);
                assert_eq!(got.flops, one.flops, "{what}");
                assert!(
                    bits(got) == bits(&one),
                    "{what}: Σ≷/Π≷ differ from one worker"
                );
            }
            prob.workers = 1;
        }
    }
}

// ---- the pair leaves (stages C and D) against their scalar oracles ----

use omen_linalg::{c64, PlaneScratch, C64};
use omen_sse::stages::{pi_pair, sigma_pair, EnergyWindow};
use omen_sse::testutil::{pi_pair_scalar, sigma_pair_scalar, stream_of};
use omen_sse::D_BSZ;

/// Deterministic values of mixed sign and magnitude.
fn noise(n: usize, seed: u64) -> Vec<C64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

/// The `[dir][kz][E − halo.lo]` stream a tile holds of a full-grid one.
fn windowed(full: &[C64], rows: usize, ne: usize, bsz: usize, win: &EnergyWindow) -> Vec<C64> {
    let mut out = Vec::new();
    for row in 0..rows {
        let at = |e: usize| (row * ne + e) * bsz;
        out.extend_from_slice(&full[at(win.halo.0)..at(win.halo.1)]);
    }
    out
}

fn max_dev(a: &[C64], b: &[C64]) -> f64 {
    let dev = a.iter().zip(b).map(|(x, y)| (*x - *y).abs());
    dev.fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Blocks of 1–5 orbitals take the energy-plane kernels, 6 the packed
    // one; `ne ≤ 9` keeps runs around and below one vector; `nw` up to
    // `ne − 1` (the constructor's bound) and windows of one to three
    // energies empty the emission and absorption runs of the edge tiles;
    // halos clamp at both grid ends. Run under `OMEN_FORCE_SCALAR=1` the
    // same properties pin the portable instantiation.
    #[test]
    fn pair_stages_match_scalar_oracles_on_every_window(
        norb in 1usize..7,
        nk in 1usize..6,
        ne in 2usize..10,
        nw_raw in 1usize..9,
        tiles in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let nw = nw_raw.min(ne - 1);
        let tiles = tiles.min(ne);
        let dev = DeviceStructure::build(DeviceConfig { norb, ..DeviceConfig::tiny() });
        let prob = SseProblem::new(&dev, nk, ne, nk, nw, 0.37, 1.0);
        let bsz = norb * norb;
        let stream = 3 * nk * ne * bsz;
        let (hg_l, hg_g) = (noise(stream, seed), noise(stream, seed + 1));
        let (hr_l, hr_g) = (noise(stream, seed + 2), noise(stream, seed + 3));
        let hd_len = 3 * nk * nw * bsz;
        let (hd_l, hd_g) = (noise(hd_len, seed + 4), noise(hd_len, seed + 5));
        let mut scratch = PlaneScratch::default();

        // The single-tile evaluation every tiling must reproduce.
        let full = EnergyWindow::full(ne);
        let base = noise(nk * ne * bsz, seed + 6);
        let (mut full_l, mut full_g) = (base.clone(), base.clone());
        // The kernels read the streams as stage A writes them.
        let st = |s: &[C64], win: &EnergyWindow| stream_of(norb, nk, win.halo_len(), s);
        let [sg_l, sg_g, sr_l, sr_g] = [&hg_l, &hg_g, &hr_l, &hr_g].map(|s| st(s, &full));
        sigma_pair(&prob, &full, &sg_l, &sg_g, &hd_l, &hd_g, &mut scratch, &mut full_l, &mut full_g);
        let mut full_pi = vec![[C64::ZERO; D_BSZ]; 2 * nk * nw];
        pi_pair(&prob, &full, &sr_l, &sr_g, &sg_l, &sg_g, &mut scratch, |q, m, c_l, c_g| {
            full_pi[2 * (q * nw + m)] = *c_l;
            full_pi[2 * (q * nw + m) + 1] = *c_g;
        });

        let mut tiled_pi = vec![[C64::ZERO; D_BSZ]; 2 * nk * nw];
        for t in 0..tiles {
            let own = (t * ne / tiles, (t + 1) * ne / tiles);
            let halo = (own.0.saturating_sub(nw), (own.1 + nw).min(ne));
            let win = EnergyWindow { ne, own, halo };
            let cut = |s: &[C64]| windowed(s, 3 * nk, ne, bsz, &win);
            let (wg_l, wg_g, wr_l, wr_g) = (cut(&hg_l), cut(&hg_g), cut(&hr_l), cut(&hr_g));
            let [sg_l, sg_g, sr_l, sr_g] = [&wg_l, &wg_g, &wr_l, &wr_g].map(|s| st(s, &win));
            let own_of = |s: &[C64]| {
                let w = EnergyWindow { ne, own, halo: own };
                windowed(s, nk, ne, bsz, &w)
            };

            // Stage C: the oracle to rounding, the single tile bitwise.
            let (mut out_l, mut out_g) = (own_of(&base), own_of(&base));
            let (mut want_l, mut want_g) = (out_l.clone(), out_g.clone());
            let flops = sigma_pair(
                &prob, &win, &sg_l, &sg_g, &hd_l, &hd_g, &mut scratch, &mut out_l, &mut out_g,
            );
            sigma_pair_scalar(&prob, &win, &wg_l, &wg_g, &hd_l, &hd_g, &mut want_l, &mut want_g);
            let tol = 1e-13 * (3 * nk * nw * norb) as f64;
            prop_assert!(max_dev(&out_l, &want_l) < tol, "Σ< off by {}", max_dev(&out_l, &want_l));
            prop_assert!(max_dev(&out_g, &want_g) < tol, "Σ> off by {}", max_dev(&out_g, &want_g));
            prop_assert!(out_l == own_of(&full_l), "Σ< depends on the tiling");
            prop_assert!(out_g == own_of(&full_g), "Σ> depends on the tiling");
            let updates: usize = (0..nw)
                .map(|m| {
                    let s = m + 1;
                    own.1.saturating_sub(own.0.max(s)) + own.1.min(ne - s).saturating_sub(own.0)
                })
                .sum();
            // One product per momentum harmonic, not one per `(kz, qz)`.
            prop_assert_eq!(flops, (3 * nk * updates * 2 * 8 * bsz * norb) as u64);

            // Stage D: each point against the oracle, the partials summed.
            let mut seen = 0;
            let mut worst = 0.0f64;
            pi_pair(&prob, &win, &sr_l, &sr_g, &sg_l, &sg_g, &mut scratch, |q, m, c_l, c_g| {
                let (want_l, want_g) = pi_pair_scalar(&prob, q, m, &win, &wr_l, &wr_g, &wg_l, &wg_g);
                worst = worst.max(max_dev(c_l, &want_l)).max(max_dev(c_g, &want_g));
                for x in 0..D_BSZ {
                    tiled_pi[2 * (q * nw + m)][x] += c_l[x];
                    tiled_pi[2 * (q * nw + m) + 1][x] += c_g[x];
                }
                seen += 1;
            });
            prop_assert!(worst < 1e-13 * (nk * ne * bsz) as f64, "Π off by {worst}");
            let points = (0..nw).filter(|m| own.1.min(ne - (m + 1)) > own.0).count();
            prop_assert_eq!(seen, nk * points);
        }
        for (got, want) in tiled_pi.iter().zip(&full_pi) {
            prop_assert!(max_dev(got, want) < 1e-12 * (nk * ne * bsz) as f64);
        }
    }
}
