//! The executable task DAG and its worker-pool runtime.
//!
//! A [`TaskDag`] is the runtime form of a lowered SDFG: tasks in
//! schedule order with forward-only dependency edges (producers have
//! smaller indices than consumers, exactly the invariant
//! `omen_dataflow::lower` guarantees). [`TaskDag::run`] executes it on a
//! scoped worker pool draining a lowest-index-first ready queue. Each
//! task runs under `catch_unwind`: a panic is isolated (counted in
//! `Counter::SchedPanics`), its dependents are skipped, every
//! independent task still runs, and the error names both sets.
//!
//! Determinism of *results* is the caller's job (write into per-task
//! slots, fold in index order — the `DagExecutor` idiom in `omen-core`);
//! determinism of *interleavings* is deliberately absent, and the test
//! suite stresses it with seeded `omen-fault` delays.

use omen_trace::{add as trace_add, Counter};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Deterministic per-task start delays for chaos testing: task `i`
/// sleeps `omen_fault::jitter_ns(seed, i, max_ns)` before running.
#[derive(Clone, Copy, Debug)]
pub struct DelayPlan {
    /// Chaos seed (pure function of `(seed, task)` → delay).
    pub seed: u64,
    /// Exclusive upper bound on the injected delay, nanoseconds.
    pub max_ns: u64,
}

impl DelayPlan {
    fn delay(&self, task: usize) -> std::time::Duration {
        std::time::Duration::from_nanos(omen_fault::jitter_ns(self.seed, task as u64, self.max_ns))
    }
}

/// Why a [`TaskDag::run`] did not complete cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagRunError {
    /// Tasks whose closure panicked (isolated, not propagated).
    pub panicked: Vec<usize>,
    /// Tasks skipped because a (transitive) dependency panicked.
    pub skipped: Vec<usize>,
}

impl std::fmt::Display for DagRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task(s) panicked ({:?}), {} skipped downstream",
            self.panicked.len(),
            self.panicked,
            self.skipped.len()
        )
    }
}

impl std::error::Error for DagRunError {}

/// A task DAG in schedule order: edges always point from a lower index
/// (producer) to a higher one (consumer).
#[derive(Clone, Debug, Default)]
pub struct TaskDag {
    labels: Vec<String>,
    /// Producers each task waits for.
    deps: Vec<Vec<usize>>,
    /// Consumers unblocked when each task completes (derived).
    dependents: Vec<Vec<usize>>,
}

impl TaskDag {
    /// An empty DAG.
    pub fn new() -> TaskDag {
        TaskDag::default()
    }

    /// Appends a task depending on the given earlier tasks, returning
    /// its index.
    ///
    /// # Panics
    /// If any dependency is not an earlier task (forward edges only —
    /// the invariant that makes index order a topological order).
    pub fn add_task(&mut self, label: &str, deps: &[usize]) -> usize {
        let id = self.labels.len();
        for &d in deps {
            assert!(d < id, "task {id} ({label}) depends on non-earlier {d}");
            self.dependents[d].push(id);
        }
        self.labels.push(label.to_string());
        self.deps.push(deps.to_vec());
        self.dependents.push(Vec::new());
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of task `t`.
    pub fn label(&self, t: usize) -> &str {
        &self.labels[t]
    }

    /// Producers task `t` waits for.
    pub fn deps_of(&self, t: usize) -> &[usize] {
        &self.deps[t]
    }

    /// Runs the DAG on `threads` scoped workers (at least one), honoring
    /// every dependency edge and isolating panics. Tasks become ready
    /// when all producers completed; workers drain the ready set lowest
    /// index first. Returns `Err` when any task panicked; independent
    /// tasks still ran to completion.
    pub fn run<F>(&self, threads: usize, f: F) -> Result<(), DagRunError>
    where
        F: Fn(usize) + Sync,
    {
        self.run_with_delays(threads, None, f)
    }

    /// [`TaskDag::run`] with deterministic chaos delays before each task
    /// (interleaving fuzzing for the ordering proptests).
    pub fn run_with_delays<F>(
        &self,
        threads: usize,
        delays: Option<DelayPlan>,
        f: F,
    ) -> Result<(), DagRunError>
    where
        F: Fn(usize) + Sync,
    {
        let n = self.len();
        if n == 0 {
            return Ok(());
        }
        let threads = threads.max(1).min(n);
        let sched = Sched {
            state: Mutex::new(SchedState::new(self)),
            ready_cv: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| self.worker(&sched, delays, &f));
            }
        });
        let state = sched.state.into_inner().expect("workers exited cleanly");
        if state.panicked.is_empty() {
            Ok(())
        } else {
            let mut panicked = state.panicked;
            let mut skipped = state.skipped;
            panicked.sort_unstable();
            skipped.sort_unstable();
            Err(DagRunError { panicked, skipped })
        }
    }

    fn worker<F: Fn(usize) + Sync>(&self, sched: &Sched, delays: Option<DelayPlan>, f: &F) {
        loop {
            let task = {
                let mut st = sched.state.lock().expect("scheduler lock");
                loop {
                    if let Some(std::cmp::Reverse(t)) = st.ready.pop() {
                        break t;
                    }
                    if st.settled == self.len() {
                        return;
                    }
                    st = sched.ready_cv.wait(st).expect("scheduler lock");
                }
            };
            if let Some(plan) = delays {
                std::thread::sleep(plan.delay(task));
            }
            trace_add(Counter::SchedTasks, 1);
            let ok = catch_unwind(AssertUnwindSafe(|| f(task))).is_ok();
            if !ok {
                trace_add(Counter::SchedPanics, 1);
            }
            let mut st = sched.state.lock().expect("scheduler lock");
            st.settle(self, task, if ok { Settle::Done } else { Settle::Panicked });
            // Everyone wakes: new ready tasks, or completion.
            sched.ready_cv.notify_all();
        }
    }
}

struct Sched {
    state: Mutex<SchedState>,
    ready_cv: Condvar,
}

enum Settle {
    Done,
    Panicked,
    Skipped,
}

struct SchedState {
    /// Unmet-producer count per task.
    indegree: Vec<usize>,
    /// Min-heap of runnable tasks (lowest index first).
    ready: BinaryHeap<std::cmp::Reverse<usize>>,
    /// Tasks that reached a terminal state (done/panicked/skipped).
    settled: usize,
    /// True for tasks that panicked or were skipped (poisons dependents).
    poisoned: Vec<bool>,
    panicked: Vec<usize>,
    skipped: Vec<usize>,
}

impl SchedState {
    fn new(dag: &TaskDag) -> SchedState {
        let mut st = SchedState {
            indegree: dag.deps.iter().map(Vec::len).collect(),
            ready: BinaryHeap::new(),
            settled: 0,
            poisoned: vec![false; dag.len()],
            panicked: Vec::new(),
            skipped: Vec::new(),
        };
        for (t, &d) in st.indegree.iter().enumerate() {
            if d == 0 {
                st.ready.push(std::cmp::Reverse(t));
            }
        }
        st
    }

    /// Marks `task` terminal and releases (or poisons) its dependents.
    fn settle(&mut self, dag: &TaskDag, task: usize, how: Settle) {
        self.settled += 1;
        match how {
            Settle::Done => {}
            Settle::Panicked => {
                self.poisoned[task] = true;
                self.panicked.push(task);
            }
            Settle::Skipped => {
                self.poisoned[task] = true;
                self.skipped.push(task);
            }
        }
        for &next in &dag.dependents[task] {
            self.indegree[next] -= 1;
            if self.indegree[next] == 0 {
                if dag.deps[next].iter().any(|&d| self.poisoned[d]) {
                    // A producer died: skip transitively, never run.
                    self.settle(dag, next, Settle::Skipped);
                } else {
                    self.ready.push(std::cmp::Reverse(next));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A diamond: 0 → {1, 2} → 3.
    fn diamond() -> TaskDag {
        let mut dag = TaskDag::new();
        let a = dag.add_task("a", &[]);
        let b = dag.add_task("b", &[a]);
        let c = dag.add_task("c", &[a]);
        dag.add_task("d", &[b, c]);
        dag
    }

    #[test]
    fn parallel_run_honors_dependencies() {
        let dag = diamond();
        let done = [(); 4].map(|_| AtomicUsize::new(0));
        let stamp = AtomicUsize::new(0);
        dag.run(4, |t| {
            for &d in dag.deps_of(t) {
                assert!(
                    done[d].load(Ordering::SeqCst) > 0,
                    "task {t} ran before dep {d}"
                );
            }
            done[t].store(1 + stamp.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        })
        .expect("no panics");
        for d in &done {
            assert!(d.load(Ordering::SeqCst) > 0, "every task ran");
        }
    }

    #[test]
    fn panic_is_isolated_and_dependents_skip() {
        let dag = diamond();
        let ran = [(); 4].map(|_| AtomicUsize::new(0));
        let err = dag
            .run(2, |t| {
                ran[t].fetch_add(1, Ordering::SeqCst);
                if t == 1 {
                    panic!("chaos");
                }
            })
            .expect_err("task 1 panicked");
        assert_eq!(err.panicked, vec![1]);
        assert_eq!(err.skipped, vec![3]);
        // The independent sibling still ran; the dependent did not.
        assert_eq!(ran[2].load(Ordering::SeqCst), 1);
        assert_eq!(ran[3].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn delayed_runs_still_honor_dependencies() {
        let dag = diamond();
        for seed in 0..8 {
            let done = [(); 4].map(|_| AtomicUsize::new(0));
            dag.run_with_delays(
                3,
                Some(DelayPlan {
                    seed,
                    max_ns: 200_000,
                }),
                |t| {
                    for &d in dag.deps_of(t) {
                        assert!(done[d].load(Ordering::SeqCst) == 1);
                    }
                    done[t].store(1, Ordering::SeqCst);
                },
            )
            .expect("no panics");
        }
    }
}
