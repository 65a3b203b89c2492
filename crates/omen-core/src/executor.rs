//! The execution engine of the GF phase's point sweeps.
//!
//! The paper's central observation (§4, Fig. 5) is that the GF phase is a
//! pure map over independent `(kz, E)` / `(qz, ω)` points. A
//! [`PointExecutor`] owns *how* that map runs, and there is one engine:
//! [`DagExecutor`] lowers the sweep onto `omen-sched`'s task DAG — the
//! runtime the SSE kernels' stages and the points of an overlapped sweep
//! run on too. The executor maps **units**, one mutable item each; the
//! driver's GF sweeps make a unit `(k, energy chunk)` — the energies of
//! one momentum that a row solve advances together
//! (`omen_rgf::row_width`: one SIMD vector of lanes on blocks up to
//! `LANE_MAX_DIM`, one point on larger ones) — and its item a view of the
//! unit's own slices of the phase's output tensors. A unit's results land
//! in its own item and nowhere else, so results are **bit-identical** at
//! every worker count, and with one worker the engine *is*
//! [`SerialExecutor`]'s loop on the calling thread: serial is the DAG with
//! one worker. All three [`ExecutorKind`] values run on it; they differ in
//! worker count and in whether the SSE phase goes through a communication
//! plan.
//!
//! Workers are created per-thread from a factory closure: GF solvers carry
//! mutable caches, so each worker gets its own cheap solver instance
//! instead of sharing one behind a lock.
//!
//! **Workspace discipline**: each worker owns a per-thread
//! [`omen_linalg::Workspace`] scratch arena for the duration of a sweep —
//! the driver's factories lease one from the simulation's
//! [`omen_linalg::WorkspacePool`] and it returns to the pool when the
//! worker drops. Leases outlive individual points and sweeps outnumber
//! workspaces only during warmup, so across energy points *and* Born
//! iterations the hot path runs allocation-free on warm buffers.

/// One `(i, j)` unit of a sweep: a grid point `(ik, ie)` / `(iq, iw)`, or
/// — in the driver's GF sweeps — `(k, chunk)`, chunk `j` of momentum
/// `k`'s energies.
pub type GridPoint = (usize, usize);

/// An execution engine for embarrassingly-parallel sweeps.
///
/// `make_worker` is called once per worker thread; the returned closure
/// solves one unit into its item. The executor hands every item of
/// `units` to exactly one worker call.
pub trait PointExecutor {
    /// Short identifier for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs the sweep: one worker call per item of `units`.
    fn run<U, W, F>(&self, units: &mut [U], make_worker: F)
    where
        U: Send,
        W: FnMut(&mut U) + Send,
        F: Fn() -> W + Sync;
}

/// Single-worker executor: solves points in order on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl PointExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run<U, W, F>(&self, units: &mut [U], make_worker: F)
    where
        U: Send,
        W: FnMut(&mut U) + Send,
        F: Fn() -> W + Sync,
    {
        units.iter_mut().for_each(make_worker());
    }
}

/// The parallel sweep engine: one edge-free `omen_sched::TaskDag` task
/// per unit, drained on the scheduler's worker pool (`Counter::SchedTasks`
/// counts the tasks of every run alike). Workers claim the
/// lowest unsolved unit — boundary-condition convergence varies per
/// point, so dynamic claiming beats a static split at the margins. With
/// one worker (or one point) the sweep runs [`SerialExecutor`]'s loop
/// inline. A panicking point solve propagates as a panic after the sweep
/// drains — point workers are deterministic solver code; isolation with
/// retry is the service layer's job.
#[derive(Clone, Copy, Debug, Default)]
pub struct DagExecutor {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

/// [`DagExecutor`] under the name of the former atomic-claim engine.
pub type RayonExecutor = DagExecutor;

/// [`DagExecutor`] under the name of the former static rank split.
pub type DistributedExecutor = DagExecutor;

impl DagExecutor {
    /// An executor over `threads` scheduler workers (0 = auto).
    pub fn new(threads: usize) -> Self {
        DagExecutor { threads }
    }

    /// The effective worker count (explicit setting, else all cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

impl PointExecutor for DagExecutor {
    fn name(&self) -> &'static str {
        "dag"
    }

    fn run<U, W, F>(&self, units: &mut [U], make_worker: F)
    where
        U: Send,
        W: FnMut(&mut U) + Send,
        F: Fn() -> W + Sync,
    {
        use std::sync::Mutex;
        let nthreads = self.effective_threads().min(units.len()).max(1);
        if nthreads <= 1 {
            return SerialExecutor.run(units, make_worker);
        }
        let mut dag = omen_sched::TaskDag::new();
        for _ in 0..units.len() {
            dag.add_task("gf_unit", &[]);
        }
        // Workers carry mutable solver caches, so the shared task closure
        // leases them from a pool (scheduler workers outnumber leases only
        // transiently; point solves dwarf the lock). Task `t` is the only
        // one to lock unit `t`, once.
        let workers: Mutex<Vec<W>> = Mutex::new(Vec::new());
        let units: Vec<Mutex<&mut U>> = units.iter_mut().map(Mutex::new).collect();
        dag.run(nthreads, |t| {
            let mut worker = workers
                .lock()
                .expect("worker pool lock")
                .pop()
                .unwrap_or_else(&make_worker);
            worker(&mut units[t].lock().expect("unit lock"));
            workers.lock().expect("worker pool lock").push(worker);
        })
        .unwrap_or_else(|err| panic!("point solve panicked: {err}"));
    }
}

/// Executor selection for [`crate::builder::SimulationConfig`]: worker
/// counts for [`DagExecutor`] (custom executors plug in via
/// [`crate::driver::Simulation::run_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One worker: the sweep runs inline on the calling thread.
    Serial,
    /// The given number of workers (0 = auto).
    Rayon {
        /// Worker threads (0 = all available cores).
        threads: usize,
    },
    /// One worker per rank, and the full Born loop runs rank-decomposed:
    /// the SSE phase exchanges data through a communication plan
    /// (`omen_comm::PlanKernel`).
    Distributed {
        /// Simulated rank count.
        ranks: usize,
    },
}

impl Default for ExecutorKind {
    fn default() -> Self {
        ExecutorKind::Rayon { threads: 0 }
    }
}

impl ExecutorKind {
    /// Short identifier for logs.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Serial => "serial",
            ExecutorKind::Rayon { .. } => "rayon",
            ExecutorKind::Distributed { .. } => "distributed",
        }
    }

    /// The sweep engine this selection runs on.
    pub(crate) fn engine(&self) -> DagExecutor {
        DagExecutor::new(match *self {
            ExecutorKind::Serial => 1,
            ExecutorKind::Rayon { threads } => threads,
            ExecutorKind::Distributed { ranks } => ranks,
        })
    }
}

/// The full `(0..n0) × (0..n1)` point grid in sweep order.
pub fn grid_points(n0: usize, n1: usize) -> Vec<GridPoint> {
    let mut out = Vec::with_capacity(n0 * n1);
    for i in 0..n0 {
        for j in 0..n1 {
            out.push((i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Units that record their own visits: `(point, visits, value)`.
    fn run_with<E: PointExecutor>(exec: &E, points: &[GridPoint]) -> Vec<(GridPoint, u32, f64)> {
        let mut units: Vec<_> = points.iter().map(|&p| (p, 0, 0.0)).collect();
        exec.run(&mut units, || {
            |(p, visits, value): &mut (GridPoint, u32, f64)| {
                *visits += 1;
                *value = (p.0 * 31 + p.1) as f64 * 0.125;
            }
        });
        units
    }

    /// Each unit visited once, and its result bit-equal to serial's.
    fn assert_once_and_bitwise_serial<E: PointExecutor>(exec: &E, points: &[GridPoint]) {
        let serial = run_with(&SerialExecutor, points);
        let got = run_with(exec, points);
        assert_eq!(got.len(), points.len());
        for ((p, visits, value), (_, _, want)) in got.iter().zip(&serial) {
            assert_eq!(*visits, 1, "unit {p:?} visited once by {}", exec.name());
            assert_eq!(value.to_bits(), want.to_bits(), "unit {p:?}");
        }
    }

    #[test]
    fn all_executors_visit_every_point_once() {
        let points = grid_points(3, 17);
        assert_once_and_bitwise_serial(&SerialExecutor, &points);
        assert_once_and_bitwise_serial(&DagExecutor::new(4), &points);
        assert_once_and_bitwise_serial(&ExecutorKind::default().engine(), &points);
    }

    #[test]
    fn rayon_order_is_bitwise_serial() {
        assert_once_and_bitwise_serial(&RayonExecutor::new(3), &grid_points(4, 9));
    }

    #[test]
    fn dag_order_is_bitwise_serial() {
        assert_once_and_bitwise_serial(&DagExecutor::new(3), &grid_points(4, 9));
    }

    #[test]
    fn distributed_order_is_bitwise_serial() {
        for ranks in [1, 2, 3, 4, 36, 50] {
            assert_once_and_bitwise_serial(&DistributedExecutor::new(ranks), &grid_points(4, 9));
        }
    }

    #[test]
    fn degenerate_sizes_handled() {
        let empty: Vec<GridPoint> = Vec::new();
        assert!(run_with(&DagExecutor::new(8), &empty).is_empty());
        assert!(run_with(&DagExecutor::new(0), &empty).is_empty());
        let one = run_with(&DagExecutor::new(7), &grid_points(1, 1));
        assert_eq!(one, [((0, 0), 1, 0.0)]);
    }

    #[test]
    fn kinds_select_worker_counts_on_the_one_engine() {
        assert_eq!(ExecutorKind::Serial.engine().threads, 1);
        assert_eq!(ExecutorKind::Rayon { threads: 3 }.engine().threads, 3);
        assert_eq!(ExecutorKind::default().engine().threads, 0, "auto");
        assert_eq!(ExecutorKind::Distributed { ranks: 4 }.engine().threads, 4);
    }
}
