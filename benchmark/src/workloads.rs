//! The four workloads: what each one solves, generated from the seed.
//!
//! The seed draws the operating point from a narrow band around the
//! nominal one: the source potential within ±10 meV (which moves the
//! potential ramp, so the Hamiltonian too) and the contact temperature
//! within ±4 %. Every seed has its own converged current, checked against
//! its own reference, while the work stays the same: the shapes are fixed
//! and, measured over 16 seeds, so is the Born iteration count. The
//! sweep's bias grid stays put and only its temperature is drawn (see
//! `Workload::bias_shift`). The program under test receives only the
//! generated [`SimulationConfig`].
//!
//! Two wider draws were measured and dropped, because they turn input
//! variance into spread that no bound the benchmark may set can hold.
//! Drawing `DeviceConfig::seed` (the orbital-mixing pattern) moved
//! `sse_heavy` between 7 and 11 iterations and `dist_dace` between 9 and
//! 12: a 21-26 % interquartile spread of `solve_s` over ten seeds. Drawing
//! the lattice constants within ±1 % (even ±0.3 %) did the same, because
//! resonances move against the energy grid. For the same reason the
//! electron-phonon coupling is 0.003 here (and the mixing of `sse_heavy`
//! 0.7): the relative current change then falls geometrically through the
//! tolerance, a factor 1.4-2.5 clear of it on either side, instead of
//! lingering at 1e-4 where a 1 % change of input costs three iterations.

use dace_omen::core::{
    CommPlan, DriverError, ExecutorKind, KernelVariant, Simulation, SimulationConfig,
    SimulationResult,
};
use dace_omen::device::DeviceConfig;
use dace_omen::serve::{linspace, JobMetrics, ServerConfig, SweepAxis, SweepServer, SweepSpec};

/// A draw in `[-1, 1)` from `seed`, one independent stream per `stream`
/// (SplitMix64 finalizer).
fn draw(seed: u64, stream: u64) -> f64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Convergence threshold on the relative current change, all workloads.
pub const TOLERANCE: f64 = 1e-4;
/// A converged current profile flatter than this conserves current.
pub const MAX_NONUNIFORMITY: f64 = 1e-2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GfHeavy,
    SseHeavy,
    SweepWarm,
    DistDace,
}

/// Grid and device sizes of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    pub nx: usize,
    pub ny: usize,
    pub norb: usize,
    pub nk: usize,
    pub ne: usize,
    pub nw: usize,
    /// Energy window `[-window, window]` in eV.
    pub window: f64,
    /// Bias points (1 unless the workload is a sweep).
    pub points: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GfHeavy,
        Workload::SseHeavy,
        Workload::SweepWarm,
        Workload::DistDace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GfHeavy => "gf_heavy",
            Workload::SseHeavy => "sse_heavy",
            Workload::SweepWarm => "sweep_warm",
            Workload::DistDace => "dist_dace",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: which layers the workload stresses,
    /// with the phase shares measured when the sizes were fixed.
    pub fn why(self) -> &'static str {
        match self {
            Workload::GfHeavy => {
                "serial solve on 32x32 blocks: RGF, boundary solves and packed GEMM do the work \
                 (GF 87 %, SSE 13 % of 1.3 s, 6 iterations); the plain single-threaded baseline"
            }
            Workload::SseHeavy => {
                "serial solve with nk=4, nw=6 on 12x12 blocks: SSE and SBSMM dominate \
                 (SSE 75 %, GF 24 % of 2.2 s, 8 iterations); RGF runs the direct GEMM path here"
            }
            Workload::SweepWarm => {
                "8-point warm-started bias sweep through SweepServer on 2 Rayon threads: 66 \
                 iterations in 8 short solves, so per-solve fixed costs, warm starts and caches \
                 weigh most (GF 52 %, SSE 47 % of 2.2 s)"
            }
            Workload::DistDace => {
                "one point on 2 ranks with the DaCe alltoallv plan: PlanKernel pack/exchange/unpack \
                 and rank threads dominate (plan SSE 81 % of 1.4 s, 10 iterations); \
                 single-address-space kernels are bypassed"
            }
        }
    }

    /// Threads the workload keeps busy (the peak `perf.roofline_frac` divides by).
    pub fn threads(self) -> usize {
        match self {
            Workload::GfHeavy | Workload::SseHeavy => 1,
            Workload::SweepWarm | Workload::DistDace => 2,
        }
    }

    pub fn sizes(self, quick: bool) -> Sizes {
        let full = match self {
            Workload::GfHeavy => Sizes {
                nx: 12,
                ny: 8,
                norb: 4,
                nk: 1,
                ne: 24,
                nw: 1,
                window: 0.6,
                points: 1,
            },
            Workload::SseHeavy => Sizes {
                nx: 8,
                ny: 4,
                norb: 3,
                nk: 4,
                ne: 24,
                nw: 6,
                window: 1.2,
                points: 1,
            },
            Workload::SweepWarm => Sizes {
                nx: 6,
                ny: 4,
                norb: 3,
                nk: 2,
                ne: 24,
                nw: 2,
                window: 1.2,
                points: 8,
            },
            Workload::DistDace => Sizes {
                nx: 12,
                ny: 4,
                norb: 3,
                nk: 2,
                ne: 24,
                nw: 2,
                window: 1.2,
                points: 1,
            },
        };
        if !quick {
            return full;
        }
        // Smoke sizes: same shapes and code paths, a fraction of the work.
        Sizes {
            nx: full.nx.min(6),
            ne: full.ne / 2,
            nk: full.nk.min(2),
            nw: full.nw.min(2),
            points: full.points.min(3),
            ..full
        }
    }

    /// The sizes as text, to tell apart results that are not comparable.
    pub fn size_tag(self, quick: bool) -> String {
        let s = self.sizes(quick);
        format!(
            "nx{}.ny{}.norb{}.nk{}.ne{}.nw{}.win{}.pts{}",
            s.nx, s.ny, s.norb, s.nk, s.ne, s.nw, s.window, s.points
        )
    }

    /// The configuration of the workload's solve (for the sweep: of its
    /// base scenario, at the middle of the bias range).
    pub fn config(self, seed: u64, quick: bool) -> SimulationConfig {
        let s = self.sizes(quick);
        let (executor, comm_plan) = match self {
            Workload::GfHeavy | Workload::SseHeavy => (ExecutorKind::Serial, CommPlan::Omen),
            Workload::SweepWarm => (ExecutorKind::Rayon { threads: 2 }, CommPlan::Omen),
            Workload::DistDace => (ExecutorKind::Distributed { ranks: 2 }, CommPlan::Dace),
        };
        SimulationConfig {
            device: DeviceConfig {
                nx: s.nx,
                ny: s.ny,
                norb: s.norb,
                ..DeviceConfig::demo()
            },
            nk: s.nk,
            ne: s.ne,
            nw: s.nw,
            e_min: -s.window,
            e_max: s.window,
            mu_source: 0.3 + self.bias_shift(seed),
            kt: 0.025 * (1.0 + 0.04 * draw(seed, 1)),
            coupling: 0.003,
            mixing: if self == Workload::SseHeavy { 0.7 } else { 0.6 },
            kernel: KernelVariant::Transformed,
            executor,
            comm_plan,
            tolerance: TOLERANCE,
            // A budget no seed comes near (7 to 10 iterations measured).
            max_iterations: 40,
            require_convergence: true,
            ..SimulationConfig::demo()
        }
    }

    /// Offset of the source potential from the nominal one, in eV: the
    /// seed's draw, except for the sweep, whose grid is fixed.
    ///
    /// A warm-started point stops after 2 iterations instead of 8 where
    /// its current change happens to cross zero, and with a drawn offset
    /// some seeds put a grid point there (0.2857 eV at offset 0): seeds
    /// 504-506 took 59 iterations and 501-503 took 65 or 66, a 10 %
    /// spread of `solve_s` that is input variance. At offsets -0.006 to
    /// -0.010 every warm point takes 8 iterations, 66 in all, on all 16
    /// seeds tried.
    fn bias_shift(self, seed: u64) -> f64 {
        match self {
            Workload::SweepWarm => -0.008,
            _ => 0.01 * draw(seed, 0),
        }
    }

    /// The swept source potentials, for the sweep workload: 0.192 to
    /// 0.392 eV.
    pub fn sweep_values(self, seed: u64, quick: bool) -> Option<Vec<f64>> {
        let shift = self.bias_shift(seed);
        (self == Workload::SweepWarm)
            .then(|| linspace(0.20 + shift, 0.40 + shift, self.sizes(quick).points))
    }

    pub fn is_sweep(self) -> bool {
        self == Workload::SweepWarm
    }

    /// The same physics on the reference path: one thread, the OMEN-style
    /// reference SSE loops, nothing shared between sweep points.
    pub fn reference_configs(self, seed: u64, quick: bool) -> Vec<SimulationConfig> {
        let base = SimulationConfig {
            executor: ExecutorKind::Serial,
            kernel: KernelVariant::Reference,
            ..self.config(seed, quick)
        };
        match self.sweep_values(seed, quick) {
            None => vec![base],
            Some(values) => values
                .into_iter()
                .map(|v| SimulationConfig {
                    mu_source: v,
                    ..base.clone()
                })
                .collect(),
        }
    }

    /// Largest relative deviation of a converged current from the
    /// reference that still counts as correct.
    ///
    /// Cold solves follow the reference trajectory iterate by iterate
    /// (kernels and executors agree to ~1e-10) and stop at the same one.
    /// A warm-started sweep point stops where its own current stops
    /// moving by 1e-4 per iteration, which can be further from the fixed
    /// point than that: 2.6e-3 was measured (seed 207, point 3). The
    /// repository's own contract for warm against cold is 1e-2.
    pub fn current_tolerance(self) -> f64 {
        match self {
            Workload::SweepWarm => 1e-2,
            _ => 1e-6,
        }
    }
}

/// What one solve (or one sweep job) produced, one entry per bias point.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub currents: Vec<f64>,
    pub iters: Vec<u32>,
    pub nonuniformity: Vec<f64>,
    /// One message per solve that ended in an error.
    pub errors: Vec<String>,
    /// Sweep only: the server's own accounting.
    pub job: Option<JobMetrics>,
    pub cache_bytes: usize,
}

impl Outcome {
    pub fn born_iters(&self) -> u32 {
        self.iters.iter().sum()
    }

    pub fn push_run(&mut self, run: Result<SimulationResult, DriverError>) {
        match run {
            Ok(r) => {
                self.currents.push(r.current());
                self.iters.push(r.records.len() as u32);
                self.nonuniformity.push(r.current_nonuniformity());
            }
            Err(e) => self.errors.push(e.to_string()),
        }
    }
}

/// A sweep server as the workload uses it: one worker, so one job and one
/// point in flight; the default cache; a fresh server per repetition.
pub fn start_server() -> SweepServer {
    SweepServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
}

pub fn sweep_spec(w: Workload, seed: u64, quick: bool) -> SweepSpec {
    let values = w.sweep_values(seed, quick).expect("sweep workload");
    SweepSpec::new(w.config(seed, quick), SweepAxis::Bias, values)
}

/// Submits the sweep and waits for it: closed loop, one client.
pub fn run_sweep(server: &SweepServer, spec: SweepSpec) -> Outcome {
    let mut out = Outcome::default();
    let job = match server.submit(spec) {
        Ok(job) => job,
        Err(e) => {
            out.errors.push(e.to_string());
            return out;
        }
    };
    match job.wait() {
        Ok(result) => {
            for p in &result.points {
                out.currents.push(p.current);
                out.iters.push(p.iterations);
                // The service reports currents, not profiles; the
                // reference comparison covers conservation here.
                out.nonuniformity.push(0.0);
            }
            out.job = Some(result.metrics);
        }
        Err(e) => out.errors.push(e.to_string()),
    }
    out.cache_bytes = server.cache_bytes();
    out
}

/// Builds and runs one cold solve per configuration.
pub fn run_cold(configs: Vec<SimulationConfig>) -> Outcome {
    let mut out = Outcome::default();
    for cfg in configs {
        match Simulation::new(cfg) {
            Ok(mut sim) => out.push_run(sim.run()),
            Err(e) => out.errors.push(e.to_string()),
        }
    }
    out
}

/// Verdict on an outcome: `(attempted, failed, reasons, worst relative
/// deviation from the reference)`. A solve fails on any error, a
/// non-finite or non-conserved current, or a current off the reference.
pub fn judge(w: Workload, out: &Outcome, reference: &[f64]) -> (usize, usize, Vec<String>, f64) {
    let attempted = reference.len();
    let mut reasons: Vec<String> = out.errors.clone();
    let mut failed = attempted.saturating_sub(out.currents.len());
    let mut worst = 0.0f64;
    for (i, (&got, &want)) in out.currents.iter().zip(reference).enumerate() {
        let rel = ((got - want) / want).abs();
        let flat = out.nonuniformity.get(i).copied().unwrap_or(0.0);
        let reason = if !got.is_finite() {
            Some(format!("point {i}: non-finite current"))
        } else if flat > MAX_NONUNIFORMITY {
            Some(format!("point {i}: current profile spread {flat:.2e}"))
        } else if rel.is_nan() || rel > w.current_tolerance() {
            Some(format!(
                "point {i}: current {got:e} is {rel:.2e} off the reference {want:e}"
            ))
        } else {
            None
        };
        if rel.is_finite() {
            worst = worst.max(rel);
        }
        if let Some(r) = reason {
            failed += 1;
            reasons.push(r);
        }
    }
    (attempted, failed.min(attempted), reasons, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_is_valid_and_seeded() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            for quick in [false, true] {
                let cfg = w.config(7, quick);
                cfg.validate().expect("valid");
                for r in w.reference_configs(7, quick) {
                    r.validate().expect("valid reference");
                    assert_eq!(r.executor, ExecutorKind::Serial);
                    assert_eq!(r.kernel, KernelVariant::Reference);
                }
                assert_eq!(w.reference_configs(7, quick).len(), w.sizes(quick).points);
            }
            assert_ne!(w.size_tag(false), w.size_tag(true));
        }
    }

    #[test]
    fn judge_counts_each_way_a_solve_can_fail() {
        let w = Workload::GfHeavy;
        let good = Outcome {
            currents: vec![1.0],
            iters: vec![8],
            nonuniformity: vec![1e-3],
            ..Outcome::default()
        };
        assert_eq!(judge(w, &good, &[1.0 + 1e-9]).1, 0);
        let off = Outcome {
            currents: vec![1.001],
            ..good.clone()
        };
        assert_eq!(judge(w, &off, &[1.0]).1, 1);
        let nan = Outcome {
            currents: vec![f64::NAN],
            ..good.clone()
        };
        assert_eq!(judge(w, &nan, &[1.0]).1, 1);
        let leaky = Outcome {
            nonuniformity: vec![0.5],
            ..good.clone()
        };
        assert_eq!(judge(w, &leaky, &[1.0]).1, 1);
        let errored = Outcome {
            errors: vec!["boom".into()],
            ..Outcome::default()
        };
        let (attempted, failed, reasons, _) = judge(w, &errored, &[1.0]);
        assert_eq!((attempted, failed, reasons.len()), (1, 1, 1));
        // A sweep that lost two of three points fails those two.
        let partial = Outcome {
            currents: vec![1.0],
            nonuniformity: vec![0.0],
            ..Outcome::default()
        };
        assert_eq!(judge(Workload::SweepWarm, &partial, &[1.0, 2.0, 3.0]).1, 2);
    }
}
