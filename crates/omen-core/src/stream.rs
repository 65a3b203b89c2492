//! Overlapped sweep execution: whole sweep points as scheduler tasks.
//!
//! A bias/temperature sweep runs many independent [`Simulation`]s.
//! [`run_overlapped`] puts them on the sweep engine the GF and SSE phases
//! already use — one edge-free [`omen_sched::TaskDag`] task per point on
//! `window` workers. A point's Born loop is a chain of strictly
//! sequential GF → SSE → GF … stages with no edge to any other point, so
//! the chain *is* one task: each task calls the point's own
//! [`Simulation::run`], unsplit, which makes every outcome
//! **bit-identical** to the serial run of the same simulation whatever
//! the window. Two symmetric workers finish `T` iterations of stage
//! costs `g`, `s` in `T·(g+s)/2`; the two-resource pipeline
//! `omen_perf::StreamModel` describes (`T·max(g,s) + min(g,s)`) is the
//! floor such a schedule has to beat.

use crate::driver::{DriverError, Simulation, SimulationResult};
use omen_sched::TaskDag;
use std::sync::Mutex;

/// Verdict of one sweep point out of [`run_overlapped`].
#[derive(Debug)]
pub enum OverlapOutcome {
    /// The point ran to a usable result (converged or best-effort,
    /// exactly as [`Simulation::run`] would have returned it).
    Finished(SimulationResult),
    /// The point failed with the same typed error a serial
    /// [`Simulation::run`] would have produced.
    Failed(DriverError),
    /// The point's task panicked; the scheduler isolated it and every
    /// other point completed normally.
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

/// Runs every simulation to its verdict on `window` scheduler workers
/// (clamped to ≥ 1; 1 is the serial order on one worker), returning the
/// verdicts in input order.
///
/// Workers claim the lowest-index ready task, so points are admitted in
/// input order and at most `window` simulations hold live tensors at
/// once: a task takes its simulation out of the point's slot, runs it,
/// and drops it before returning — only the verdict outlives the task.
/// A panicking point unwinds inside its own task (its slot lock is long
/// released) and reads as [`OverlapOutcome::Panicked`].
pub fn run_overlapped(sims: Vec<Simulation>, window: usize) -> Vec<OverlapOutcome> {
    if sims.is_empty() {
        return Vec::new();
    }
    let mut dag = TaskDag::new();
    let slots: Vec<Mutex<Option<Simulation>>> = sims
        .into_iter()
        .map(|sim| {
            dag.add_task("sweep_point", &[]);
            Mutex::new(Some(sim))
        })
        .collect();
    let outcomes: Vec<Mutex<Option<OverlapOutcome>>> =
        slots.iter().map(|_| Mutex::new(None)).collect();
    // `DagRunError::panicked` names exactly the tasks that stored no
    // outcome, so the empty slots below carry the same information.
    let _ = dag.run(window.max(1), |t| {
        let mut sim = slots[t]
            .lock()
            .expect("slot lock")
            .take()
            .expect("the scheduler runs each task once");
        let outcome = match sim.run() {
            Ok(result) => OverlapOutcome::Finished(result),
            Err(err) => OverlapOutcome::Failed(err),
        };
        drop(sim);
        *outcomes[t].lock().expect("outcome lock") = Some(outcome);
    });
    outcomes
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("outcome lock")
                .unwrap_or(OverlapOutcome::Panicked)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationConfig;
    use crate::executor::ExecutorKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    /// Pass-through to the transformed kernel that counts the simulations
    /// holding live tensors (kernels that ran and are not yet dropped),
    /// and panics in application `panic_at` if one is set.
    struct Probe {
        inner: omen_sse::TransformedKernel,
        runs: usize,
        panic_at: Option<usize>,
        /// `[live now, most ever live]`.
        live: Arc<[AtomicUsize; 2]>,
    }

    impl Probe {
        fn install(sim: &mut Simulation, panic_at: Option<usize>, live: &Arc<[AtomicUsize; 2]>) {
            sim.set_kernel(Box::new(Probe {
                inner: omen_sse::TransformedKernel::new(),
                runs: 0,
                panic_at,
                live: Arc::clone(live),
            }));
        }
    }

    impl omen_sse::SseKernel for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn run(
            &mut self,
            prob: &omen_sse::SseProblem,
            g_l: &omen_sse::GTensor,
            g_g: &omen_sse::GTensor,
            d_l: &omen_sse::DTensor,
            d_g: &omen_sse::DTensor,
        ) -> &omen_sse::SseOutput {
            self.runs += 1;
            if self.runs == 1 {
                let live = 1 + self.live[0].fetch_add(1, Ordering::SeqCst);
                self.live[1].fetch_max(live, Ordering::SeqCst);
            }
            assert_ne!(Some(self.runs), self.panic_at, "probe: armed panic");
            self.inner.run(prob, g_l, g_g, d_l, d_g)
        }
        fn state(&self) -> &omen_sse::KernelState {
            self.inner.state()
        }
        fn state_mut(&mut self) -> &mut omen_sse::KernelState {
            self.inner.state_mut()
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            if self.runs > 0 {
                self.live[0].fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    fn serial_sweep(n: usize) -> Vec<SimulationResult> {
        sweep_sims(n)
            .into_iter()
            .map(|mut s| s.run().expect("serial run"))
            .collect()
    }

    fn assert_bitwise(serial: &SimulationResult, o: &OverlapOutcome) {
        let o = o.finished().expect("clean overlapped run");
        assert_eq!(serial.records.len(), o.records.len());
        assert_eq!(serial.current().to_bits(), o.current().to_bits());
    }

    #[test]
    fn window_bounds_live_simulations() {
        let live = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let mut sims = sweep_sims(5);
        for sim in &mut sims {
            Probe::install(sim, None, &live);
        }
        let outcomes = run_overlapped(sims, 2);
        assert!(outcomes.iter().all(|o| o.finished().is_some()));
        let most = live[1].load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&most),
            "{most} simulations held live tensors at once under window 2"
        );
        assert_eq!(live[0].load(Ordering::SeqCst), 0, "every point was dropped");
    }

    #[test]
    fn panicking_point_is_isolated() {
        let serial = serial_sweep(3);
        let live = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let mut sims = sweep_sims(3);
        Probe::install(&mut sims[1], Some(2), &live);
        let outcomes = run_overlapped(sims, 2);
        assert!(matches!(outcomes[1], OverlapOutcome::Panicked));
        assert_bitwise(&serial[0], &outcomes[0]);
        assert_bitwise(&serial[2], &outcomes[2]);
        assert_eq!(live[0].load(Ordering::SeqCst), 0, "the unwind dropped it");
    }

    /// At every window — one worker, two, more workers than points —
    /// each point runs all of its iterations and lands in its input slot.
    #[test]
    fn all_points_complete_in_order_with_full_rounds() {
        let serial = serial_sweep(3);
        // 0 clamps to 1 (the serial order on one worker); 8 > n.
        for window in [0, 1, 2, 8] {
            let outcomes = run_overlapped(sweep_sims(3), window);
            assert_eq!(outcomes.len(), serial.len(), "window {window}");
            for (s, o) in serial.iter().zip(&outcomes) {
                assert_bitwise(s, o);
            }
        }
        assert!(run_overlapped(Vec::new(), 2).is_empty());
    }

    /// Every way the Born loop ends, through `Simulation::run` and through
    /// `run_overlapped`: one termination rule, so identical verdicts.
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
