//! Overlapped sweep execution: the Table 6 streams model, run for real.
//!
//! A bias/temperature sweep runs many independent [`Simulation`]s, and
//! each Born iteration inside one alternates a GF phase (the parallel
//! RGF bulk) and an SSE phase (the self-energy reduction). Serially the
//! two phases of one point and the points of the sweep all queue behind
//! each other. The [`omen_sched::StreamExecutor`] pipeline runs the GF
//! phase of sweep point *k+1* concurrently with the SSE phase of point
//! *k* — the overlap the paper's Table 6 models with CUDA streams,
//! reproduced here as a two-stage thread pipeline over owned driver
//! instances.
//!
//! [`SweepPoint`] adapts a [`Simulation`] to the pipeline: it drives the
//! same `BornLoop` termination rule as [`Simulation::run_with`] —
//! interruption checks at iteration boundaries, the NaN/finite guard, the
//! warm-divergence watchdog, tolerance and `require_convergence`
//! semantics live there, once — and adds only the split at the phase
//! boundary via [`Simulation::finish_iteration`]. With the per-point
//! executor set to [`crate::ExecutorKind::Serial`], every point's
//! arithmetic is the exact serial instruction stream, so overlapped
//! results are **bit-identical** to a serial sweep.

use crate::driver::{BornLoop, DriverError, GfPhaseOutput, Simulation, SimulationResult};
use omen_sched::{PipelinedPoint, StreamExecutor, StreamOutcome};

/// Verdict of one sweep point out of the overlapped pipeline.
#[derive(Debug)]
pub enum OverlapOutcome {
    /// The point ran to a usable result (converged or best-effort,
    /// exactly as [`Simulation::run`] would have returned it).
    Finished(SimulationResult),
    /// The point failed with the same typed error a serial
    /// [`Simulation::run`] would have produced.
    Failed(DriverError),
    /// A stage panicked; the pipeline isolated it and every other point
    /// completed normally.
    Panicked,
}

impl OverlapOutcome {
    /// The result, if the point finished.
    pub fn finished(&self) -> Option<&SimulationResult> {
        match self {
            OverlapOutcome::Finished(r) => Some(r),
            _ => None,
        }
    }
}

/// A [`Simulation`] adapted to the two-stage GF/SSE pipeline.
pub struct SweepPoint {
    sim: Simulation,
    /// GF output handed from the GF stage to the SSE stage.
    pending: Option<GfPhaseOutput>,
    born: BornLoop,
}

impl SweepPoint {
    /// Wraps a simulation for pipelined execution.
    pub fn new(sim: Simulation) -> SweepPoint {
        let born = BornLoop::new(&sim);
        SweepPoint {
            sim,
            pending: None,
            born,
        }
    }

    /// The wrapped simulation (e.g. to harvest warm-start data).
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// The verdict `run_with` would have returned.
    pub fn into_outcome(self) -> OverlapOutcome {
        match self.born.finish(&self.sim) {
            Ok(result) => OverlapOutcome::Finished(result),
            Err(err) => OverlapOutcome::Failed(err),
        }
    }
}

impl PipelinedPoint for SweepPoint {
    fn gf_stage(&mut self) {
        if self.born.admits(&self.sim) {
            self.pending = Some(self.sim.gf_phase());
        }
    }

    fn sse_stage(&mut self) -> bool {
        let Some(gf) = self.pending.take() else {
            // The GF stage declined to run: the loop is over.
            return false;
        };
        let step = self.sim.finish_iteration(gf);
        self.born.judge(&mut self.sim, step)
    }
}

// Whole simulations move between the pipeline's stage threads by value.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SweepPoint>();
};

/// A persistent overlapped-sweep engine: the pipeline's stage workers
/// and coordinator scratch survive across [`OverlappedSweep::run`]
/// calls, so a warm sweep's coordinating thread allocates nothing.
pub struct OverlappedSweep {
    exec: StreamExecutor<SweepPoint>,
    points: Vec<SweepPoint>,
    out: Vec<StreamOutcome<SweepPoint>>,
}

impl OverlappedSweep {
    /// An engine with a bounded in-flight window (clamped to ≥ 2): at
    /// most `window` simulations hold live tensors at once.
    pub fn new(window: usize) -> OverlappedSweep {
        OverlappedSweep {
            exec: StreamExecutor::new(window),
            points: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The bounded in-flight window.
    pub fn window(&self) -> usize {
        self.exec.window()
    }

    /// Runs every simulation through the GF/SSE pipeline, returning
    /// verdicts in input order.
    pub fn run(&mut self, sims: Vec<Simulation>) -> Vec<OverlapOutcome> {
        let mut out = Vec::with_capacity(sims.len());
        self.run_into(sims, &mut out);
        out
    }

    /// Like [`OverlappedSweep::run`], but writes the verdicts into `out`
    /// (cleared first). With the engine warm and `out` reused from the
    /// previous sweep, the coordinating thread allocates nothing — the
    /// contract the allocation integration test pins.
    pub fn run_into(&mut self, sims: Vec<Simulation>, out: &mut Vec<OverlapOutcome>) {
        self.points.clear();
        self.points.extend(sims.into_iter().map(SweepPoint::new));
        self.out.clear();
        self.exec.run_into(&mut self.points, &mut self.out);
        out.clear();
        out.extend(self.out.drain(..).map(|o| {
            if o.panicked {
                OverlapOutcome::Panicked
            } else {
                o.point.into_outcome()
            }
        }));
    }
}

/// One-shot convenience over [`OverlappedSweep`]: runs `sims` through a
/// fresh pipeline with the given in-flight window.
pub fn run_overlapped(sims: Vec<Simulation>, window: usize) -> Vec<OverlapOutcome> {
    OverlappedSweep::new(window).run(sims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationConfig;
    use crate::executor::ExecutorKind;

    fn sweep_sims(n: usize) -> Vec<Simulation> {
        (0..n)
            .map(|i| {
                let mut cfg = SimulationConfig::tiny();
                cfg.executor = ExecutorKind::Serial;
                cfg.max_iterations = 4;
                cfg.mu_drain = 0.01 * i as f64;
                Simulation::new(cfg).expect("valid config")
            })
            .collect()
    }

    #[test]
    fn overlapped_sweep_is_bitwise_serial() {
        let serial: Vec<SimulationResult> = sweep_sims(3)
            .into_iter()
            .map(|mut s| s.run().expect("serial run"))
            .collect();
        let overlapped = run_overlapped(sweep_sims(3), 2);
        assert_eq!(overlapped.len(), serial.len());
        for (s, o) in serial.iter().zip(&overlapped) {
            let o = o.finished().expect("clean overlapped run");
            assert_eq!(s.records.len(), o.records.len());
            for (a, b) in s.records.iter().zip(&o.records) {
                assert_eq!(a.current.to_bits(), b.current.to_bits());
                assert_eq!(a.rel_change.to_bits(), b.rel_change.to_bits());
            }
            assert_eq!(s.current().to_bits(), o.current().to_bits());
        }
    }

    #[test]
    fn failing_point_is_isolated_with_typed_error() {
        // Poison one point's Σ^< through a corrupted warm start; its
        // neighbors must still finish.
        let mut sims = sweep_sims(3);
        let donor = {
            let mut d = Simulation::new(sims[0].config().clone()).expect("valid config");
            d.run().expect("donor run");
            let mut data = d.warm_start_data();
            data.sigma_l.as_mut_slice()[0] = omen_linalg::c64(f64::NAN, 0.0);
            data
        };
        sims[1].warm_start_from(&donor).expect("shapes match");
        let outcomes = run_overlapped(sims, 2);
        assert!(matches!(
            outcomes[1],
            OverlapOutcome::Failed(DriverError::NonFinite { .. })
        ));
        assert!(outcomes[0].finished().is_some());
        assert!(outcomes[2].finished().is_some());
    }

    #[test]
    fn warm_engine_reruns_sweeps() {
        let mut engine = OverlappedSweep::new(2);
        let first = engine.run(sweep_sims(2));
        assert!(first.iter().all(|o| o.finished().is_some()));
        let second = engine.run(sweep_sims(2));
        assert!(second.iter().all(|o| o.finished().is_some()));
        // Same inputs, same pipeline: identical results across reruns.
        let (a, b) = (first[0].finished().unwrap(), second[0].finished().unwrap());
        assert_eq!(a.current().to_bits(), b.current().to_bits());
    }

    /// Every way the Born loop ends, through `Simulation::run` and through
    /// the pipeline: one termination rule, so identical verdicts.
    #[test]
    fn every_exit_matches_the_serial_run() {
        use crate::driver::CancelToken;
        type Build<'a> = Box<dyn Fn() -> Simulation + 'a>;
        type Expect = fn(&Result<SimulationResult, DriverError>) -> bool;
        // Only simulations given a fault key consult the plan; this test
        // is the only one in the binary that sets one.
        omen_fault::install(
            omen_fault::FaultPlan::disabled().with_rate(omen_fault::FaultSite::NanPoison, 1.0),
        );
        let sim = |tweak: &dyn Fn(&mut SimulationConfig)| {
            let mut cfg = SimulationConfig::tiny();
            cfg.executor = ExecutorKind::Serial;
            tweak(&mut cfg);
            Simulation::new(cfg).expect("valid config")
        };
        let capped = |cfg: &mut SimulationConfig| {
            cfg.max_iterations = 2;
            cfg.tolerance = 1e-14; // unreachable in 2 iterations
        };
        let donor = {
            let mut d = sim(&|_| {});
            d.run().expect("donor run");
            d.warm_start_data()
        };
        let cases: Vec<(&str, Build, Expect)> = vec![
            ("converged", Box::new(|| sim(&|_| {})), |r| {
                r.as_ref()
                    .is_ok_and(|r| r.records.len() < 20 && r.converged(1e-3))
            }),
            (
                "cap exhausted, best effort",
                Box::new(|| sim(&capped)),
                |r| r.as_ref().is_ok_and(|r| r.records.len() == 2),
            ),
            (
                "cap exhausted under require_convergence",
                Box::new(|| {
                    sim(&|cfg| {
                        capped(cfg);
                        cfg.require_convergence = true;
                    })
                }),
                |r| matches!(r, Err(DriverError::Unconverged { iterations: 2, .. })),
            ),
            (
                "cancelled",
                Box::new(|| {
                    let mut s = sim(&|_| {});
                    let token = CancelToken::new();
                    token.cancel();
                    s.set_cancel_token(token);
                    s
                }),
                |r| matches!(r, Err(DriverError::Cancelled { iteration: 0 })),
            ),
            (
                "deadline exceeded",
                Box::new(|| {
                    let mut s = sim(&|_| {});
                    s.set_deadline(std::time::Instant::now());
                    s
                }),
                |r| matches!(r, Err(DriverError::DeadlineExceeded { iteration: 0 })),
            ),
            (
                "armed NaN fault",
                Box::new(|| {
                    let mut s = sim(&|_| {});
                    s.set_fault_key(1);
                    s
                }),
                |r| matches!(r, Err(DriverError::NonFinite { iteration: 0 })),
            ),
            (
                "warm divergence watchdog",
                Box::new(|| {
                    let mut s = sim(&|cfg| {
                        cfg.mu_drain += 0.05; // move the fixed point
                        cfg.warm_divergence_after = 2;
                        cfg.warm_divergence_threshold = 1e-12;
                    });
                    s.warm_start_from(&donor).expect("shapes match");
                    s
                }),
                |r| matches!(r, Err(DriverError::WarmDiverged { .. })),
            ),
            (
                "second run after the cap",
                Box::new(|| {
                    let mut s = sim(&capped);
                    s.run().expect("first run");
                    s
                }),
                |r| {
                    r.as_ref()
                        .is_ok_and(|r| r.records.is_empty() && r.current() > 0.0)
                },
            ),
        ];
        for (name, build, expect) in &cases {
            let serial = build().run();
            assert!(
                expect(&serial),
                "{name}: unexpected serial verdict {serial:?}"
            );
            let overlapped = run_overlapped(vec![build()], 2).pop().expect("one point");
            match (serial, overlapped) {
                (Ok(s), OverlapOutcome::Finished(o)) => {
                    assert_eq!(s.records.len(), o.records.len(), "{name}");
                    for (a, b) in s.records.iter().zip(&o.records) {
                        assert_eq!(a.current.to_bits(), b.current.to_bits(), "{name}");
                    }
                    assert_eq!(s.current().to_bits(), o.current().to_bits(), "{name}");
                }
                (Err(s), OverlapOutcome::Failed(o)) => assert_eq!(s, o, "{name}"),
                (s, o) => panic!("{name}: serial {s:?} vs overlapped {o:?}"),
            }
        }
    }

    #[test]
    fn cancelled_point_reports_cancelled() {
        let mut sims = sweep_sims(2);
        let token = crate::driver::CancelToken::new();
        token.cancel();
        sims[0].set_cancel_token(token);
        let outcomes = run_overlapped(sims, 2);
        assert!(matches!(
            outcomes[0],
            OverlapOutcome::Failed(DriverError::Cancelled { iteration: 0 })
        ));
        assert!(outcomes[1].finished().is_some());
    }
}
