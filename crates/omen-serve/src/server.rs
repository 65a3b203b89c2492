//! The sweep service: a hand-rolled thread-pool + channel runtime over
//! `std::sync::mpsc` and `std::sync::{Mutex, Condvar}`.
//!
//! [`SweepServer::start`] spawns worker threads that block on a shared
//! job channel. [`SweepClient::submit`] validates a [`SweepSpec`],
//! registers the job, and enqueues its id; the returned [`JobHandle`]
//! polls state, cancels, or blocks until the result is ready. A worker
//! owns a job end-to-end — points run *sequentially within* a job so each
//! point can warm-start from its immediate neighbor, while distinct jobs
//! run concurrently across workers against the shared [`SweepCache`].
//!
//! ## Failure model
//!
//! A point solve can fail four ways: a panic somewhere under
//! [`Simulation::run`], a typed [`DriverError`] (non-finite observables,
//! warm-start divergence, iteration-cap exhaustion), a per-point
//! deadline, or cooperative cancellation. The worker isolates each point
//! attempt behind [`std::panic::catch_unwind`] and retries with capped
//! exponential backoff ([`ServerConfig::max_attempts`]). When the failed
//! attempt was warm-started, the donor entry is quarantined — removed
//! from the shared cache — and the retry restarts cold, so one bad
//! deposit can never wedge a whole sweep. Every decision is surfaced in
//! [`JobMetrics`] (`retries`, `cold_fallbacks`, `quarantined`).

use crate::cache::{CacheConfig, SweepCache};
use crate::checkpoint::CheckpointJournal;
use crate::job::{JobMetrics, JobResult, JobState, PointObservables};
use crate::sweep::SweepSpec;
use omen_core::{
    CancelToken, ConfigError, DriverError, Simulation, SimulationResult, WarmStartData,
};
use omen_fault::FaultSite;
use omen_trace::{Counter, CounterSet};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A panic while holding one of the server's locks leaves the state it
/// guards unknown, so the poison propagates as a panic.
const POISONED: &str = "server lock poisoned";

/// Reserved queue id that tells a worker to exit.
const SHUTDOWN: u64 = u64::MAX;

/// Server sizing knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (jobs in flight concurrently); min 1.
    pub workers: usize,
    /// Warm-start cache budget.
    pub cache: CacheConfig,
    /// Solve attempts per point before the whole job fails; min 1.
    pub max_attempts: u32,
    /// Delay before the first retry of a point; doubles per further
    /// retry up to [`ServerConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the between-retry delay.
    pub backoff_cap: Duration,
    /// Wall-clock budget per point *attempt*; `None` leaves solves
    /// unbounded. An expired budget surfaces as
    /// [`DriverError::DeadlineExceeded`] and counts as a failed attempt.
    pub point_deadline: Option<Duration>,
    /// Directory for per-scenario checkpoint journals. When set, every
    /// completed point is journaled ([`CheckpointJournal`]) and a new
    /// job restores journaled points instead of recomputing them.
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            cache: CacheConfig::default(),
            max_attempts: 4,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            point_deadline: None,
            checkpoint_dir: None,
        }
    }
}

/// The per-point retry knobs, copied out of [`ServerConfig`] at start.
#[derive(Clone, Copy, Debug)]
struct RetryPolicy {
    max_attempts: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    point_deadline: Option<Duration>,
}

struct JobEntry {
    spec: SweepSpec,
    state: JobState,
    cancel: CancelToken,
    result: Option<JobResult>,
}

struct Inner {
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// Notified on every job state change.
    changed: Condvar,
    cache: Mutex<SweepCache>,
    /// Workers take turns blocking on the shared receiver.
    queue: Mutex<Receiver<u64>>,
    retry: RetryPolicy,
    checkpoint_dir: Option<PathBuf>,
}

/// A rejected submission.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// A sweep point's configuration failed validation.
    Invalid(ConfigError),
    /// The sweep has no points.
    EmptySweep,
    /// The server has shut down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(err) => write!(f, "invalid sweep point: {err}"),
            SubmitError::EmptySweep => write!(f, "sweep has no points"),
            SubmitError::Shutdown => write!(f, "server has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job produced no complete result.
#[derive(Clone, Debug)]
pub enum JobError {
    /// Cancelled; carries the partial result (completed points).
    Cancelled(JobResult),
    /// A point failed mid-run.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled(partial) => {
                write!(f, "job cancelled after {} points", partial.points.len())
            }
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Submission endpoint; cheap to clone and hand to other threads.
#[derive(Clone)]
pub struct SweepClient {
    inner: Arc<Inner>,
    tx: Sender<u64>,
    next_id: Arc<AtomicU64>,
}

impl SweepClient {
    /// Validates and enqueues `spec`, returning a handle to await it.
    pub fn submit(&self, spec: SweepSpec) -> Result<JobHandle, SubmitError> {
        if spec.is_empty() {
            return Err(SubmitError::EmptySweep);
        }
        spec.validate().map_err(SubmitError::Invalid)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.jobs.lock().expect(POISONED).insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                result: None,
            },
        );
        if self.tx.send(id).is_err() {
            self.inner.jobs.lock().expect(POISONED).remove(&id);
            return Err(SubmitError::Shutdown);
        }
        Ok(JobHandle {
            id,
            inner: Arc::clone(&self.inner),
        })
    }
}

/// A submitted job: poll, cancel, or block for the result.
pub struct JobHandle {
    id: u64,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// Server-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.inner.jobs.lock().expect(POISONED)[&self.id]
            .state
            .clone()
    }

    /// Requests cancellation. A queued job cancels immediately; a running
    /// job's in-flight point observes the token *between Born iterations*
    /// and aborts, so cancellation lands in bounded time even mid-solve.
    /// Completed points stay available as the partial result.
    pub fn cancel(&self) {
        let mut jobs = self.inner.jobs.lock().expect(POISONED);
        if let Some(entry) = jobs.get_mut(&self.id) {
            entry.cancel.cancel();
            if entry.state == JobState::Queued {
                entry.state = JobState::Cancelled;
                entry.result = Some(JobResult::default());
            }
        }
        drop(jobs);
        self.inner.changed.notify_all();
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        let mut jobs = self.inner.jobs.lock().expect(POISONED);
        loop {
            let entry = &jobs[&self.id];
            match &entry.state {
                JobState::Completed => {
                    return Ok(entry.result.clone().unwrap_or_default());
                }
                JobState::Cancelled => {
                    return Err(JobError::Cancelled(
                        entry.result.clone().unwrap_or_default(),
                    ));
                }
                JobState::Failed(msg) => return Err(JobError::Failed(msg.clone())),
                JobState::Queued | JobState::Running { .. } => {}
            }
            jobs = self.inner.changed.wait(jobs).expect(POISONED);
        }
    }

    /// Blocks until done and returns the per-point observables.
    pub fn await_observables(&self) -> Result<Vec<PointObservables>, JobError> {
        self.wait().map(|result| result.points)
    }
}

/// The service: owns the workers and the warm-start cache.
pub struct SweepServer {
    inner: Arc<Inner>,
    client: SweepClient,
    workers: Vec<JoinHandle<()>>,
}

impl SweepServer {
    /// Starts the worker pool.
    pub fn start(config: ServerConfig) -> SweepServer {
        let (tx, rx) = channel();
        let inner = Arc::new(Inner {
            jobs: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            cache: Mutex::new(SweepCache::new(config.cache)),
            queue: Mutex::new(rx),
            retry: RetryPolicy {
                max_attempts: config.max_attempts.max(1),
                backoff_base: config.backoff_base,
                backoff_cap: config.backoff_cap,
                point_deadline: config.point_deadline,
            },
            checkpoint_dir: config.checkpoint_dir,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("omen-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn sweep worker")
            })
            .collect();
        let client = SweepClient {
            inner: Arc::clone(&inner),
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
        };
        SweepServer {
            inner,
            client,
            workers,
        }
    }

    /// A submission endpoint (cloneable, usable from any thread).
    pub fn client(&self) -> SweepClient {
        self.client.clone()
    }

    /// Submits directly through the server's own client.
    pub fn submit(&self, spec: SweepSpec) -> Result<JobHandle, SubmitError> {
        self.client.submit(spec)
    }

    /// Bytes currently held by the warm-start cache.
    pub fn cache_bytes(&self) -> usize {
        self.inner.cache.lock().expect(POISONED).bytes()
    }
}

impl Drop for SweepServer {
    /// Sends one shutdown sentinel per worker and joins them. In-flight
    /// jobs finish; queued jobs behind the sentinels never start.
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.client.tx.send(SHUTDOWN);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let id = {
            let rx = inner.queue.lock().expect(POISONED);
            match rx.recv() {
                Ok(id) => id,
                Err(_) => return,
            }
        };
        if id == SHUTDOWN {
            return;
        }
        run_job(inner, id);
    }
}

/// What one sweep point produced after the retry loop succeeded.
struct PointSuccess {
    run: SimulationResult,
    data: WarmStartData,
    warm: bool,
    donor_value: Option<f64>,
}

/// Why one sweep point never produced a result.
enum PointFailure {
    /// The job's cancel token fired (before or during an attempt).
    Cancelled,
    /// Every allowed attempt failed; the message names the last error.
    Exhausted(String),
}

/// Runs one sweep job to a terminal state. Points run in sweep order so
/// every point after the first finds a same-sweep donor in the cache.
fn run_job(inner: &Inner, id: u64) {
    let (spec, cancel) = {
        let mut jobs = inner.jobs.lock().expect(POISONED);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return; // cancelled while queued
        }
        entry.state = JobState::Running {
            completed: 0,
            total: entry.spec.len(),
        };
        (entry.spec.clone(), entry.cancel.clone())
    };
    inner.changed.notify_all();

    let _job_span = omen_trace::span!("sweep_job");
    let scenario = spec.scenario_hash();
    let total = spec.len();
    let t0 = Instant::now();
    let mut result = JobResult {
        points: Vec::with_capacity(total),
        metrics: JobMetrics::default(),
    };
    // Per-job accounting is a trace [`CounterSet`]: every increment also
    // lands in the process-global registry when tracing is armed, and
    // [`JobMetrics`] is materialized from this view at finish.
    let mut counters = CounterSet::new();
    // Checkpoint resume: restore journaled points of this scenario so
    // only the remaining values are recomputed. The journal is repaired
    // first so a torn tail from a crashed run never blocks appends.
    let journal = inner.checkpoint_dir.as_deref().map(|dir| {
        let _ = std::fs::create_dir_all(dir);
        let journal = CheckpointJournal::for_scenario(dir, scenario);
        let _ = journal.repair();
        journal
    });
    let mut restored: HashMap<u64, PointObservables> = HashMap::new();
    if let Some(journal) = &journal {
        for (sc, point) in journal.load() {
            if sc == scenario {
                restored.insert(point.value.to_bits(), point);
            }
        }
    }
    // Baseline for "iterations saved": the job's worst cold point.
    let mut cold_baseline: u32 = 0;
    for (i, &value) in spec.values.iter().enumerate() {
        if cancel.is_cancelled() {
            finish(inner, id, JobState::Cancelled, result, &counters, t0);
            return;
        }
        if let Some(point) = restored.get(&value.to_bits()) {
            // Already solved by an earlier (possibly crashed) job over
            // this scenario: restore the observables verbatim. Born
            // iteration counters track work done *by this job*, so a
            // restored point contributes none.
            counters.record(Counter::PointsSolved, 1);
            counters.record(Counter::ResumedPoints, 1);
            result.points.push(*point);
            let mut jobs = inner.jobs.lock().expect(POISONED);
            if let Some(entry) = jobs.get_mut(&id) {
                entry.state = JobState::Running {
                    completed: i + 1,
                    total,
                };
            }
            drop(jobs);
            inner.changed.notify_all();
            continue;
        }
        // Deterministic fault-injection key: a function of the scenario,
        // the swept value, and the point index — never of wall time — so
        // a seeded chaos run replays the exact same fault schedule.
        let point_key = omen_fault::mix(scenario ^ value.to_bits(), i as u64);
        let outcome = {
            let _span = omen_trace::span!("sweep_point");
            run_point(inner, &spec, i, scenario, point_key, &cancel, &mut counters)
        };
        match outcome {
            Ok(point) => {
                let iterations = point.run.records.len() as u32;
                counters.record(Counter::PointsSolved, 1);
                // Local only: the driver already counts BornIterations
                // into the global registry, one per iteration.
                counters.add(Counter::BornIterations, u64::from(iterations));
                if point.warm {
                    counters.record(Counter::WarmPoints, 1);
                    counters.record(
                        Counter::IterationsSaved,
                        u64::from(cold_baseline.saturating_sub(iterations)),
                    );
                } else {
                    cold_baseline = cold_baseline.max(iterations);
                }
                let observables = PointObservables {
                    value,
                    current: point.run.current(),
                    iterations,
                    warm: point.warm,
                    donor: point.donor_value,
                };
                result.points.push(observables);
                inner
                    .cache
                    .lock()
                    .expect(POISONED)
                    .insert(scenario, spec.axis, value, point.data);
                if let Some(journal) = &journal {
                    // Best effort: a failed journal write costs at most
                    // a recomputation on the next resume.
                    let _ = journal.append(scenario, &observables);
                }
            }
            Err(PointFailure::Cancelled) => {
                finish(inner, id, JobState::Cancelled, result, &counters, t0);
                return;
            }
            Err(PointFailure::Exhausted(msg)) => {
                let state = JobState::Failed(format!("point {i} (value {value}): {msg}"));
                finish(inner, id, state, result, &counters, t0);
                return;
            }
        }
        {
            let mut jobs = inner.jobs.lock().expect(POISONED);
            if let Some(entry) = jobs.get_mut(&id) {
                entry.state = JobState::Running {
                    completed: i + 1,
                    total,
                };
            }
        }
        inner.changed.notify_all();
    }
    finish(inner, id, JobState::Completed, result, &counters, t0);
}

/// Solves one sweep point, retrying with capped exponential backoff.
///
/// The first attempt warm-starts when the cache holds a same-scenario
/// donor. A failed warm attempt quarantines that donor and every later
/// attempt restarts cold. Panics under the solve are caught
/// ([`catch_unwind`]) and count as one failed attempt like any typed
/// [`DriverError`]; only [`DriverError::Cancelled`] short-circuits.
fn run_point(
    inner: &Inner,
    spec: &SweepSpec,
    idx: usize,
    scenario: u64,
    point_key: u64,
    cancel: &CancelToken,
    counters: &mut CounterSet,
) -> Result<PointSuccess, PointFailure> {
    let policy = inner.retry;
    let value = spec.values[idx];
    let mut try_warm = true;
    let mut last_error = String::new();
    for attempt in 1..=policy.max_attempts {
        if cancel.is_cancelled() {
            return Err(PointFailure::Cancelled);
        }
        if attempt > 1 {
            counters.record(Counter::Retries, 1);
            let doublings = (attempt - 2).min(16);
            let delay = policy
                .backoff_base
                .saturating_mul(1u32 << doublings)
                .min(policy.backoff_cap);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        let attempt_key = omen_fault::mix(point_key, attempt as u64);
        let mut sim = match Simulation::new(spec.config_for(idx)) {
            Ok(sim) => sim,
            // A rejected configuration can never heal by retrying.
            Err(err) => return Err(PointFailure::Exhausted(err.to_string())),
        };
        sim.set_cancel_token(cancel.clone());
        sim.set_fault_key(attempt_key);
        if let Some(budget) = policy.point_deadline {
            sim.set_deadline(Instant::now() + budget);
        }
        let mut warm = false;
        let mut donor_value = None;
        if try_warm {
            let donor = inner
                .cache
                .lock()
                .expect(POISONED)
                .nearest(scenario, spec.axis, value);
            match donor {
                Some((dv, mut data)) => {
                    counters.record(Counter::CacheHits, 1);
                    if omen_fault::should_inject(FaultSite::DonorCorrupt, attempt_key) {
                        // Damage the donor the way a torn deposit would:
                        // one poisoned self-energy entry. The solve must
                        // fail typed (never hang or panic) and the
                        // quarantine path must retire this donor.
                        if let Some(slot) = data.sigma_l.as_mut_slice().first_mut() {
                            *slot = omen_linalg::c64(f64::NAN, 0.0);
                        }
                    }
                    if sim.warm_start_from(&data).is_ok() {
                        warm = true;
                        donor_value = Some(dv);
                    }
                }
                None => counters.record(Counter::CacheMisses, 1),
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Inside the unwind boundary on purpose: an injected panic
            // unwinds through this armed span, and the guard's drop must
            // still balance the thread's span stack.
            let _span = omen_trace::span!("point_attempt");
            if omen_fault::should_inject(FaultSite::WorkerPanic, attempt_key) {
                panic!("injected worker panic");
            }
            sim.run()
        }));
        match outcome {
            Ok(Ok(run)) => {
                return Ok(PointSuccess {
                    run,
                    data: sim.warm_start_data(),
                    warm,
                    donor_value,
                });
            }
            Ok(Err(DriverError::Cancelled { .. })) => return Err(PointFailure::Cancelled),
            Ok(Err(err)) => last_error = err.to_string(),
            Err(payload) => last_error = panic_message(payload.as_ref()),
        }
        if warm {
            // The donor seeded a failing solve: pull it out of
            // circulation and restart this point cold.
            if let Some(dv) = donor_value {
                if inner
                    .cache
                    .lock()
                    .expect(POISONED)
                    .quarantine(scenario, spec.axis, dv)
                {
                    counters.record(Counter::Quarantined, 1);
                }
            }
            counters.record(Counter::ColdFallbacks, 1);
            try_warm = false;
        }
    }
    Err(PointFailure::Exhausted(format!(
        "{} attempts failed; last error: {last_error}",
        policy.max_attempts
    )))
}

/// Renders a caught panic payload for the job's failure message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        format!("panic: {msg}")
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        format!("panic: {msg}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn finish(
    inner: &Inner,
    id: u64,
    state: JobState,
    mut result: JobResult,
    counters: &CounterSet,
    t0: Instant,
) {
    result.metrics = JobMetrics::from_counters(counters, t0.elapsed().as_secs_f64());
    {
        let mut jobs = inner.jobs.lock().expect(POISONED);
        if let Some(entry) = jobs.get_mut(&id) {
            entry.result = Some(result);
            entry.state = state;
        }
    }
    inner.changed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use omen_core::{Simulation, SimulationConfig};

    fn one_worker() -> SweepServer {
        SweepServer::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn e2e_job_lifecycle() {
        let server = one_worker();
        let handle = server
            .submit(SweepSpec::finfet_bias_quick())
            .expect("valid sweep");
        let result = handle.wait().expect("job completes");
        assert_eq!(handle.state(), JobState::Completed);
        assert_eq!(result.points.len(), 4);
        assert!(result.points.iter().all(|p| p.current > 0.0));
        let m = result.metrics;
        assert_eq!(m.points, 4);
        assert!(server.cache_bytes() > 0);
        // Under a chaos run (OMEN_FAULT_SEED) retries and quarantines
        // legitimately perturb the warm/hit bookkeeping; the exact-count
        // assertions describe the fault-free schedule only.
        if !omen_fault::active() {
            // First point is cold, the rest warm-start off their neighbor.
            assert!(!result.points[0].warm);
            assert!(result.points[1..].iter().all(|p| p.warm));
            assert_eq!(result.points[1].donor, Some(result.points[0].value));
            assert_eq!((m.points, m.warm_points), (4, 3));
            assert_eq!((m.cache_hits, m.cache_misses), (3, 1));
            assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
            assert_eq!((m.retries, m.cold_fallbacks, m.quarantined), (0, 0, 0));
        }
    }

    #[test]
    fn warm_sweep_matches_cold_and_saves_iterations() {
        // Cold reference: each point as an independent simulation.
        let spec = SweepSpec::finfet_bias_quick();
        let tolerance = spec.base.tolerance;
        let mut cold_currents = Vec::new();
        let mut cold_iterations = 0u32;
        for i in 0..spec.len() {
            let run = Simulation::new(spec.config_for(i))
                .expect("valid config")
                .run()
                .expect("cold point converges");
            cold_currents.push(run.current());
            cold_iterations += run.records.len() as u32;
        }

        let server = one_worker();
        let result = server
            .submit(spec)
            .expect("valid sweep")
            .wait()
            .expect("job completes");

        // Observables match the cold references at tight tolerance: both
        // converged the same fixed-point equation to `tolerance`.
        for (point, cold) in result.points.iter().zip(&cold_currents) {
            let rel = ((point.current - cold) / cold).abs();
            assert!(
                rel < 10.0 * tolerance,
                "warm current {} vs cold {} at {} (rel {rel})",
                point.current,
                cold,
                point.value
            );
        }
        // Warm starts strictly reduce the total Born iteration count
        // (when no injected faults force retried points).
        if !omen_fault::active() {
            assert!(
                result.metrics.born_iterations < cold_iterations,
                "warm sweep must save iterations: {} vs cold {}",
                result.metrics.born_iterations,
                cold_iterations
            );
            assert!(result.metrics.iterations_saved > 0);
        }
    }

    #[test]
    fn cancellation_of_queued_job_is_immediate() {
        let server = one_worker();
        // Occupy the single worker …
        let busy = server
            .submit(SweepSpec::finfet_bias_quick())
            .expect("valid sweep");
        // … then cancel a job that is still queued behind it.
        let queued = server
            .submit(SweepSpec::finfet_bias(6))
            .expect("valid sweep");
        queued.cancel();
        match queued.wait() {
            Err(JobError::Cancelled(partial)) => assert!(partial.points.is_empty()),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(queued.state(), JobState::Cancelled);
        // The busy job is unaffected.
        assert_eq!(busy.wait().expect("completes").points.len(), 4);
    }

    #[test]
    fn submit_rejects_bad_sweeps() {
        let server = one_worker();
        let empty = SweepSpec::new(SimulationConfig::tiny(), crate::SweepAxis::Bias, vec![]);
        assert_eq!(server.submit(empty).unwrap_err(), SubmitError::EmptySweep);
        let invalid = SweepSpec::new(
            SimulationConfig::tiny(),
            crate::SweepAxis::Temperature,
            vec![0.025, -1.0],
        );
        assert!(matches!(
            server.submit(invalid).unwrap_err(),
            SubmitError::Invalid(_)
        ));
    }

    #[test]
    fn second_job_reuses_the_shared_cache_across_jobs() {
        let server = one_worker();
        let spec = SweepSpec::finfet_bias_quick();
        let first = server
            .submit(spec.clone())
            .expect("valid sweep")
            .wait()
            .expect("completes");
        // Resubmitting the same sweep finds donors for *every* point.
        let second = server
            .submit(spec)
            .expect("valid sweep")
            .wait()
            .expect("completes");
        if !omen_fault::active() {
            assert_eq!(second.metrics.cache_misses, 0);
            assert_eq!(second.metrics.warm_points, 4);
            assert!(second.metrics.born_iterations <= first.metrics.born_iterations);
        }
    }

    #[test]
    fn checkpoint_journal_resumes_completed_points() {
        let dir = std::env::temp_dir().join(format!("omen-serve-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let start = |dir: &std::path::Path| {
            SweepServer::start(ServerConfig {
                workers: 1,
                checkpoint_dir: Some(dir.to_path_buf()),
                ..ServerConfig::default()
            })
        };
        // First job: the sweep endpoints only.
        let server = start(&dir);
        let first = server
            .submit(SweepSpec::finfet_bias(2))
            .expect("valid sweep")
            .wait()
            .expect("completes");
        drop(server);

        // Second job, fresh server, same journal directory: a denser
        // sweep over the same scenario. Its endpoints match the first
        // sweep's bitwise (same linspace arithmetic), so they restore
        // from the journal and only the interior points solve.
        let server = start(&dir);
        let second = server
            .submit(SweepSpec::finfet_bias_quick())
            .expect("valid sweep")
            .wait()
            .expect("completes");
        assert_eq!(second.points.len(), 4);
        assert!(second.metrics.resumed_points <= 2);
        if !omen_fault::active() {
            assert_eq!(second.metrics.resumed_points, 2);
            assert_eq!(second.metrics.points, 4);
            assert_eq!(
                second.points[0].current.to_bits(),
                first.points[0].current.to_bits(),
                "restored observables are bit-identical"
            );
            assert_eq!(
                second.points[3].current.to_bits(),
                first.points[1].current.to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_point_deadline_exhausts_retries_and_fails_typed() {
        // A zero per-point budget makes every attempt fail with
        // DeadlineExceeded: the retry loop must run its allotted
        // attempts, then fail the job with a typed message — no panic,
        // no hang, no partial-state corruption.
        let server = SweepServer::start(ServerConfig {
            workers: 1,
            max_attempts: 2,
            backoff_base: Duration::ZERO,
            point_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let handle = server
            .submit(SweepSpec::finfet_bias_quick())
            .expect("valid sweep");
        match handle.wait() {
            Err(JobError::Failed(msg)) => {
                assert!(msg.contains("deadline exceeded"), "unexpected: {msg}");
                assert!(msg.contains("2 attempts failed"), "unexpected: {msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(handle.state(), JobState::Failed(_)));
        // The worker survives the failure: a further submission still
        // reaches a terminal state instead of hanging in the queue.
        let next = server
            .submit(SweepSpec::finfet_bias(2))
            .expect("valid sweep");
        assert!(matches!(next.wait(), Err(JobError::Failed(_))));
    }
}
