//! The execution engine of the GF phase's point sweeps.
//!
//! The paper's central observation (§4, Fig. 5) is that the GF phase is a
//! pure map over independent `(kz, E)` / `(qz, ω)` points followed by one
//! ordered reduction. A [`PointExecutor`] owns *how* that map runs, and
//! there is one engine: [`DagExecutor`] lowers the sweep onto
//! `omen-sched`'s task DAG — the runtime the SSE kernels' stages and the
//! points of an overlapped sweep run on too. The executor maps **units**
//! named by a [`GridPoint`]; the driver's GF sweeps make a unit
//! `(k, energy chunk)` — the energies of one momentum that a row solve
//! advances together (`omen_rgf::row_width`: one SIMD vector of lanes on
//! blocks up to `SMALL_DIM`, one point on larger ones). Contributions land
//! in per-unit slots and fold in unit order, which is global point order,
//! so results are **bit-identical** at every worker count, and with one
//! worker the engine *is* [`SerialExecutor`]'s loop on the calling
//! thread: serial is the DAG with one worker. All three
//! [`ExecutorKind`] values run on it; they differ in worker count and in
//! whether the SSE phase goes through a communication plan.
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

use crate::observables::Observables;

/// One `(i, j)` unit of a sweep: a grid point `(ik, ie)` / `(iq, iw)`, or
/// — in the driver's GF sweeps — `(k, chunk)`, chunk `j` of momentum
/// `k`'s energies.
pub type GridPoint = (usize, usize);

/// An execution engine for embarrassingly-parallel sweeps.
///
/// `make_worker` is called once per worker thread; the returned closure
/// solves one unit. The executor feeds every unit exactly once and
/// returns the accumulator after folding all contributions in, in the
/// order of `points`.
pub trait PointExecutor {
    /// Short identifier for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs the sweep, returning the filled accumulator.
    fn run<O, W, F>(&self, points: &[GridPoint], make_worker: F, acc: O) -> O
    where
        O: Observables,
        W: FnMut(GridPoint) -> O::Contribution + Send,
        F: Fn() -> W + Sync;
}

/// Single-worker executor: solves points in order on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl PointExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run<O, W, F>(&self, points: &[GridPoint], make_worker: F, mut acc: O) -> O
    where
        O: Observables,
        W: FnMut(GridPoint) -> O::Contribution + Send,
        F: Fn() -> W + Sync,
    {
        let mut worker = make_worker();
        for &p in points {
            let c = worker(p);
            acc.accumulate(&c);
        }
        acc
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

    fn run<O, W, F>(&self, points: &[GridPoint], make_worker: F, mut acc: O) -> O
    where
        O: Observables,
        W: FnMut(GridPoint) -> O::Contribution + Send,
        F: Fn() -> W + Sync,
    {
        use std::sync::Mutex;
        let nthreads = self.effective_threads().min(points.len()).max(1);
        if nthreads <= 1 {
            return SerialExecutor.run(points, make_worker, acc);
        }
        let mut dag = omen_sched::TaskDag::new();
        for _ in points {
            dag.add_task("gf_unit", &[]);
        }
        // Workers carry mutable solver caches, so the shared task closure
        // leases them from a pool (scheduler workers outnumber leases only
        // transiently; point solves dwarf the lock).
        let workers: Mutex<Vec<W>> = Mutex::new(Vec::new());
        let slots: Vec<Mutex<Option<O::Contribution>>> =
            points.iter().map(|_| Mutex::new(None)).collect();
        dag.run(nthreads, |t| {
            let mut worker = workers
                .lock()
                .expect("worker pool lock")
                .pop()
                .unwrap_or_else(&make_worker);
            let c = worker(points[t]);
            *slots[t].lock().expect("slot lock") = Some(c);
            workers.lock().expect("worker pool lock").push(worker);
        })
        .unwrap_or_else(|err| panic!("point solve panicked: {err}"));
        // Deterministic fold in global point order.
        for slot in slots {
            if let Some(c) = slot.into_inner().expect("slot lock") {
                acc.accumulate(&c);
            }
        }
        acc
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

    /// A toy accumulator: ordered list of visited points + a weighted sum.
    #[derive(Default)]
    struct Trace {
        visited: Vec<GridPoint>,
        sum: f64,
    }

    impl Observables for Trace {
        type Contribution = (GridPoint, f64);

        fn accumulate(&mut self, c: &Self::Contribution) {
            self.visited.push(c.0);
            self.sum += c.1;
        }
    }

    fn run_with<E: PointExecutor>(exec: &E, points: &[GridPoint]) -> Trace {
        exec.run(
            points,
            || |p: GridPoint| (p, (p.0 * 31 + p.1) as f64 * 0.125),
            Trace::default(),
        )
    }

    #[test]
    fn all_executors_visit_every_point_once() {
        let points = grid_points(3, 17);
        for visited in [
            run_with(&SerialExecutor, &points).visited,
            run_with(&DagExecutor::new(4), &points).visited,
            run_with(&ExecutorKind::default().engine(), &points).visited,
        ] {
            let mut sorted = visited.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, points, "every point exactly once");
        }
    }

    /// Slot-ordered folding: same visit order, hence bit-equal sums.
    fn assert_bitwise_serial(exec: &DagExecutor) {
        let points = grid_points(4, 9);
        let serial = run_with(&SerialExecutor, &points);
        let got = run_with(exec, &points);
        assert_eq!(serial.visited, got.visited, "{exec:?}");
        assert_eq!(serial.sum.to_bits(), got.sum.to_bits());
    }

    #[test]
    fn rayon_order_is_bitwise_serial() {
        assert_bitwise_serial(&RayonExecutor::new(3));
    }

    #[test]
    fn dag_order_is_bitwise_serial() {
        assert_bitwise_serial(&DagExecutor::new(3));
    }

    #[test]
    fn distributed_order_is_bitwise_serial() {
        for ranks in [1, 2, 3, 4, 36, 50] {
            assert_bitwise_serial(&DistributedExecutor::new(ranks));
        }
    }

    #[test]
    fn degenerate_sizes_handled() {
        let empty: Vec<GridPoint> = Vec::new();
        assert_eq!(run_with(&DagExecutor::new(8), &empty).visited.len(), 0);
        assert_eq!(run_with(&DagExecutor::new(0), &empty).visited.len(), 0);
        let one = grid_points(1, 1);
        assert_eq!(run_with(&DagExecutor::new(7), &one).visited, one);
    }

    #[test]
    fn kinds_select_worker_counts_on_the_one_engine() {
        assert_eq!(ExecutorKind::Serial.engine().threads, 1);
        assert_eq!(ExecutorKind::Rayon { threads: 3 }.engine().threads, 3);
        assert_eq!(ExecutorKind::default().engine().threads, 0, "auto");
        assert_eq!(ExecutorKind::Distributed { ranks: 4 }.engine().threads, 4);
    }
}
