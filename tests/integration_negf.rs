//! Cross-crate NEGF validation: the device generator, boundary methods,
//! and RGF solver composed end-to-end against dense references and
//! physical invariants.

use dace_omen::device::{DeviceConfig, DeviceStructure};
use dace_omen::linalg::c64;
use dace_omen::rgf::{
    caroli_transmission, dense_solve, interface_current, CacheMode, ElectronParams, ElectronSolver,
    GfSolver,
};

#[test]
fn device_point_matches_dense_reference() {
    let dev = DeviceStructure::build(DeviceConfig::tiny());
    let mut solver = ElectronSolver::new(
        &dev,
        vec![0.0; dev.num_atoms()],
        ElectronParams::default(),
        CacheMode::NoCache,
        vec![0.3],
        vec![0.2],
    );
    let out = solver.solve_point(0, 0, None, None, None);
    // Reassemble the dense problem from the folded M and Σ blocks the
    // solver actually used (boundary conditions included).
    let bs = dev.block_size_el();
    let nb = dev.bnum();
    let mut sl = vec![dace_omen::linalg::CMatrix::zeros(bs, bs); nb];
    let mut sg = vec![dace_omen::linalg::CMatrix::zeros(bs, bs); nb];
    sl[0] += &out.boundary_lg_left.0;
    sg[0] += &out.boundary_lg_left.1;
    sl[nb - 1] += &out.boundary_lg_right.0;
    sg[nb - 1] += &out.boundary_lg_right.1;
    let dense = dense_solve(&out.m, &sl, &sg);
    let dev_max = out.sol.max_deviation_from_dense(&dense, bs);
    assert!(dev_max < 1e-8, "RGF vs dense deviation {dev_max}");
}

#[test]
fn ballistic_device_landauer_consistency() {
    // On the real device: interface current == Caroli transmission × Δf
    // at a fully-biased energy.
    let dev = DeviceStructure::build(DeviceConfig::tiny());
    let params = ElectronParams {
        mu_source: 10.0, // force f_L = 1
        mu_drain: -10.0, // force f_R = 0
        ..ElectronParams::default()
    };
    let mut solver = ElectronSolver::new(
        &dev,
        vec![0.0; dev.num_atoms()],
        params,
        CacheMode::NoCache,
        vec![0.0],
        vec![0.15],
    );
    let out = solver.solve_point(0, 0, None, None, None);
    let t = caroli_transmission(&out.m, &out.gamma.0, &out.gamma.1);
    assert!(t > 0.05, "energy must be inside a band (T = {t})");
    for n in 0..dev.bnum() - 1 {
        let j = interface_current(&out.m.upper[n], &out.sol.gl_lower[n]);
        assert!(
            (j - t).abs() < 1e-4 * t.max(1.0),
            "interface {n}: j = {j}, T = {t}"
        );
    }
}

#[test]
fn hermiticity_invariants_on_device_operators() {
    let dev = DeviceStructure::build(DeviceConfig::demo());
    for &kz in &[0.0, 0.9, -2.1] {
        assert!(dev.hamiltonian(kz).is_hermitian(1e-12));
        assert!(dev.overlap(kz).is_hermitian(1e-12));
        assert!(dev.dynamical(kz).is_hermitian(1e-12));
    }
    // Potential shifts preserve Hermiticity.
    let pot = dev.linear_potential(0.5, 0.2, 0.8);
    let h = dev.hamiltonian_with_potential(1.3, &pot);
    assert!(h.is_hermitian(1e-12));
    let _ = c64(0.0, 0.0);
}
