//! Executor equivalence: every way of selecting the sweep engine must
//! produce the same physics. Each sweep unit writes its own slices of the
//! GF phase's outputs and the integration weights are applied afterwards
//! in global point order, so the engine is *bit-identical* to serial at
//! every worker count, under each of its names.

use dace_omen::core::{
    CommPlan, DagExecutor, DistributedExecutor, ExecutorKind, GfPhaseOutput, PlanKernel,
    PointExecutor, RayonExecutor, SerialExecutor, Simulation, SimulationConfig, SimulationResult,
};
use dace_omen::sse::GLayout;

fn run_with_kind(kind: ExecutorKind) -> SimulationResult {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 6;
    cfg.executor = kind;
    Simulation::new(cfg)
        .expect("valid config")
        .run()
        .expect("run succeeds")
}

/// The same run as [`run_with_kind`] through an explicit engine.
fn run_with_engine(engine: &DagExecutor) -> SimulationResult {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 6;
    Simulation::new(cfg)
        .expect("valid config")
        .run_with(engine)
        .expect("run succeeds")
}

#[test]
fn rayon_is_bitwise_identical_to_serial() {
    let serial = run_with_kind(ExecutorKind::Serial);
    let rayon = run_with_kind(ExecutorKind::Rayon { threads: 4 });
    assert_eq!(serial.records.len(), rayon.records.len());
    for (s, r) in serial.records.iter().zip(&rayon.records) {
        assert_eq!(
            s.current.to_bits(),
            r.current.to_bits(),
            "iteration {}: serial {} vs rayon {}",
            s.iteration,
            s.current,
            r.current
        );
    }
    // Full spectral observables, not just the headline current.
    for (a, (s, r)) in serial
        .spectral
        .el_density
        .iter()
        .zip(&rayon.spectral.el_density)
        .enumerate()
    {
        assert_eq!(s.to_bits(), r.to_bits(), "el_density[{a}]");
    }
    for (a, (s, r)) in serial
        .spectral
        .ph_energy_density
        .iter()
        .zip(&rayon.spectral.ph_energy_density)
        .enumerate()
    {
        assert_eq!(s.to_bits(), r.to_bits(), "ph_energy_density[{a}]");
    }
}

#[test]
fn dag_engine_is_bitwise_identical_to_serial() {
    let serial = run_with_kind(ExecutorKind::Serial);
    let dag = run_with_engine(&DagExecutor::new(3));
    assert_eq!(serial.records.len(), dag.records.len());
    for (s, d) in serial.records.iter().zip(&dag.records) {
        assert_eq!(
            s.current.to_bits(),
            d.current.to_bits(),
            "iteration {}: serial {} vs dag {}",
            s.iteration,
            s.current,
            d.current
        );
        assert_eq!(s.rel_change.to_bits(), d.rel_change.to_bits());
    }
    // Full spectral observables, not just the headline current.
    for (a, (s, d)) in serial
        .spectral
        .el_density
        .iter()
        .zip(&dag.spectral.el_density)
        .enumerate()
    {
        assert_eq!(s.to_bits(), d.to_bits(), "el_density[{a}]");
    }
    for (a, (s, d)) in serial
        .spectral
        .ph_energy_density
        .iter()
        .zip(&dag.spectral.ph_energy_density)
        .enumerate()
    {
        assert_eq!(s.to_bits(), d.to_bits(), "ph_energy_density[{a}]");
    }
}

#[test]
fn dag_thread_counts_do_not_change_results() {
    let serial = run_with_kind(ExecutorKind::Serial);
    // threads: 0 = auto; 1 falls back to the serial engine internally.
    for threads in [0, 1, 2, 5] {
        let d = run_with_engine(&DagExecutor::new(threads));
        assert_eq!(
            serial.current().to_bits(),
            d.current().to_bits(),
            "dag threads = {threads}"
        );
    }
}

#[test]
fn explicit_executors_match_config_dispatch() {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 3;
    cfg.executor = ExecutorKind::Serial;
    let via_config = Simulation::new(cfg.clone())
        .expect("valid config")
        .run()
        .expect("run succeeds");

    // The trait-level entry point accepts any PointExecutor directly.
    let serial = Simulation::new(cfg.clone())
        .expect("valid config")
        .run_with(&SerialExecutor)
        .expect("run succeeds");
    let rayon = Simulation::new(cfg.clone())
        .expect("valid config")
        .run_with(&RayonExecutor::new(2))
        .expect("run succeeds");
    let dag = Simulation::new(cfg.clone())
        .expect("valid config")
        .run_with(&DagExecutor::new(2))
        .expect("run succeeds");
    let dist = Simulation::new(cfg)
        .expect("valid config")
        .run_with(&DistributedExecutor::new(2))
        .expect("run succeeds");

    assert_eq!(via_config.current().to_bits(), serial.current().to_bits());
    assert_eq!(serial.current().to_bits(), rayon.current().to_bits());
    assert_eq!(serial.current().to_bits(), dag.current().to_bits());
    assert_eq!(serial.current().to_bits(), dist.current().to_bits());
}

fn run_distributed(plan: CommPlan, ranks: usize) -> SimulationResult {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 4;
    cfg.executor = ExecutorKind::Distributed { ranks };
    cfg.comm_plan = plan;
    Simulation::new(cfg)
        .expect("valid config")
        .run()
        .expect("run succeeds")
}

/// Serial GF phase driving the same communication-plan SSE kernel: the
/// reference the distributed engine must reproduce *bitwise* (both run
/// the identical plan arithmetic; only the GF-phase threading differs,
/// and per-unit output slices make that invisible).
fn run_serial_plan_baseline(plan: CommPlan, ranks: usize) -> SimulationResult {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 4;
    cfg.executor = ExecutorKind::Serial;
    let mut sim = Simulation::new(cfg).expect("valid config");
    sim.set_kernel(Box::new(PlanKernel::new(plan, ranks)));
    sim.run().expect("run succeeds")
}

#[test]
fn distributed_installs_the_plan_kernel() {
    let mut cfg = SimulationConfig::tiny();
    cfg.executor = ExecutorKind::Distributed { ranks: 2 };
    cfg.comm_plan = CommPlan::Dace;
    let sim = Simulation::new(cfg).expect("valid config");
    assert_eq!(sim.kernel().name(), "plan-dace");
}

#[test]
fn distributed_is_bitwise_identical_to_serial_on_both_plans() {
    for plan in [CommPlan::Omen, CommPlan::Dace] {
        for ranks in [1, 2, 4] {
            let serial = run_serial_plan_baseline(plan, ranks);
            let dist = run_distributed(plan, ranks);
            assert_eq!(serial.records.len(), dist.records.len());
            for (s, d) in serial.records.iter().zip(&dist.records) {
                assert_eq!(
                    s.current.to_bits(),
                    d.current.to_bits(),
                    "{} ranks = {ranks}, iteration {}: serial {} vs distributed {}",
                    plan.name(),
                    s.iteration,
                    s.current,
                    d.current
                );
                assert_eq!(s.rel_change.to_bits(), d.rel_change.to_bits());
            }
            // Full spectral observables, not just the headline current.
            for (a, (s, d)) in serial
                .spectral
                .el_density
                .iter()
                .zip(&dist.spectral.el_density)
                .enumerate()
            {
                assert_eq!(s.to_bits(), d.to_bits(), "el_density[{a}]");
            }
            for (a, (s, d)) in serial
                .spectral
                .ph_energy_density
                .iter()
                .zip(&dist.spectral.ph_energy_density)
                .enumerate()
            {
                assert_eq!(s.to_bits(), d.to_bits(), "ph_energy_density[{a}]");
            }
        }
    }
}

#[test]
fn distributed_runs_record_their_sse_flops() {
    // The plans meter their stages per rank and sum in rank order, so the
    // count is a pure function of the problem, not of thread timing.
    for plan in [CommPlan::Dace, CommPlan::Omen] {
        let flops =
            |r: &SimulationResult| r.records.iter().map(|x| x.sse_flops).collect::<Vec<_>>();
        let (a, b) = (run_distributed(plan, 2), run_distributed(plan, 2));
        assert!(
            flops(&a).iter().all(|&f| f > 0),
            "{} meters SSE",
            plan.name()
        );
        assert_eq!(flops(&a), flops(&b), "{} run to run", plan.name());
    }
}

#[test]
fn distributed_matches_standard_serial_physics() {
    // Against the ordinary (single-address-space) serial kernel the plans
    // agree to cross-schedule reassociation tolerance, accumulated over
    // the Born iterations.
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = 4;
    cfg.executor = ExecutorKind::Serial;
    let serial = Simulation::new(cfg)
        .expect("valid config")
        .run()
        .expect("run succeeds");
    let s = serial.current();
    for plan in [CommPlan::Omen, CommPlan::Dace] {
        let d = run_distributed(plan, 2).current();
        assert!(
            ((s - d) / s).abs() < 1e-8,
            "{} distributed current {d} vs serial {s}",
            plan.name()
        );
    }
}

#[test]
fn thread_and_rank_counts_do_not_change_results() {
    let base = run_with_kind(ExecutorKind::Rayon { threads: 1 });
    for threads in [2, 3, 8] {
        let r = run_with_kind(ExecutorKind::Rayon { threads });
        assert_eq!(
            base.current().to_bits(),
            r.current().to_bits(),
            "rayon threads = {threads}"
        );
    }
    for ranks in [1, 2, 5, 16] {
        let r = run_with_engine(&DistributedExecutor::new(ranks));
        assert_eq!(
            base.current().to_bits(),
            r.current().to_bits(),
            "ranks = {ranks}"
        );
    }
}

/// One scattering-on GF phase of `tiny` with `ne = 23`, `nw = 3`, so every
/// momentum ends in a short electron chunk and a short phonon chunk.
fn scattered_gf_phase<E: PointExecutor>(exec: &E) -> GfPhaseOutput {
    let mut cfg = SimulationConfig::tiny();
    cfg.ne = 23;
    cfg.nw = 3;
    cfg.executor = ExecutorKind::Serial;
    let mut sim = Simulation::new(cfg).expect("valid config");
    sim.iterate();
    sim.gf_phase_with(exec)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn complex_bits(zs: &[dace_omen::linalg::C64]) -> Vec<(u64, u64)> {
    zs.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn gf_phase_outputs_are_bitwise_at_every_worker_count() {
    let serial = scattered_gf_phase(&SerialExecutor);
    // The GF phase writes `G≷` in the layout the SSE reads.
    assert_eq!(serial.g_l.layout, GLayout::AtomMajor);
    assert_eq!(serial.g_g.layout, GLayout::AtomMajor);
    for threads in [2, 3, 5] {
        let dag = scattered_gf_phase(&DagExecutor::new(threads));
        let tensors = |gf: &GfPhaseOutput| {
            [
                complex_bits(gf.g_l.as_slice()),
                complex_bits(gf.g_g.as_slice()),
                complex_bits(gf.d_l.as_slice()),
                complex_bits(gf.d_g.as_slice()),
            ]
        };
        for (name, (s, d)) in ["g_l", "g_g", "d_l", "d_g"]
            .iter()
            .zip(tensors(&serial).iter().zip(&tensors(&dag)))
        {
            assert!(s == d, "{name} differs at {threads} workers");
        }
        let spectral = |gf: &GfPhaseOutput| {
            let s = &gf.spectral;
            let contacts = [s.contact_currents.0, s.contact_currents.1];
            [
                bits(&s.el_current_spectrum.concat()),
                bits(&s.el_current),
                bits(&s.el_energy_current),
                bits(&s.ph_energy_current),
                bits(&s.ph_energy_density),
                bits(&s.ph_dos.concat()),
                bits(&s.el_density),
                bits(&contacts),
            ]
        };
        assert_eq!(spectral(&serial), spectral(&dag), "{threads} workers");
    }
}
