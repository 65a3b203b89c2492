//! # omen-trace
//!
//! Zero-dependency structured tracing for the whole stack: RAII timing
//! spans, typed performance counters, per-iteration event records, and a
//! process-global registry that is a true no-op when disarmed.
//!
//! The paper's central argument (arXiv 1912.10024) is data-centric: you
//! optimize an extreme-scale solver by knowing where FLOPs, bytes, and
//! communication volume actually go, per dataflow stage. `omen-perf`
//! encodes the *predicted* budgets; this crate records what *happened*,
//! so [`omen_perf::attribution`](../omen_perf/attribution) can join the
//! two. The same discipline as `omen-fault` applies: the hooks are
//! compiled into every build but cost ~one relaxed atomic load until the
//! registry is armed, so instrumentation can live inside `gemm` without
//! taxing the warm path (a `perf_check` floor gates the disarmed
//! overhead at <2% of a warm sweep point).
//!
//! ## Arming
//!
//! | mechanism         | effect                                          |
//! |-------------------|-------------------------------------------------|
//! | `OMEN_TRACE=1`    | arms the registry at first use                  |
//! | [`arm`]           | arms programmatically (benches, tests)          |
//! | [`disarm`]        | disarms programmatically                        |
//! | [`rearm_from_env`]| restores whatever `OMEN_TRACE` dictates         |
//!
//! ## Recording
//!
//! * [`span!`] opens an RAII span; the guard's drop records name, thread,
//!   nesting depth, start, and duration. Guards drop during unwinding, so
//!   spans stay balanced across `catch_unwind` retry boundaries.
//! * [`add`] bumps a typed [`Counter`] (process-global atomics).
//! * [`event`] / [`event2`] record instantaneous samples (e.g. the
//!   convergence residual of one Born iteration).
//! * [`PhaseGuard`] snapshots all counters on entry and records the
//!   per-counter delta plus wall time on drop — the measured side of the
//!   per-stage attribution report.
//!
//! [`snapshot`] clones everything recorded so far; the `export` module
//! renders it as chrome://tracing JSON (loadable in Perfetto) or a flat
//! metrics text dump.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

mod export;

pub use export::{chrome_trace_json, metrics_text, validate_chrome_trace, ChromeTraceStats};

/// A typed performance counter.
///
/// Counters are process-global relaxed atomics; [`add`] is a no-op while
/// the registry is disarmed. The set covers the quantities the paper's
/// performance model predicts (FLOPs per stage, bytes packed and
/// communicated) plus the sweep-service accounting that [`PhaseGuard`]
/// and `omen-serve` attribute per job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Dense complex GEMM invocations (every `omen-linalg` entry point
    /// funnels through one counted call).
    GemmCalls,
    /// Complex FLOPs executed by dense GEMM (`8·m·n·k` per call).
    GemmFlops,
    /// Batched split-complex SBSMM invocations.
    SbsmmCalls,
    /// Complex FLOPs executed by SBSMM (`8·m·n·k·batch` per call).
    SbsmmFlops,
    /// FLOPs reported by the scattering self-energy kernels.
    SseFlops,
    /// Bytes staged into packed split-complex panels by the SBSMM paths.
    BytesPacked,
    /// Bytes moved through the simulated MPI layer (ledger-mirrored).
    BytesCommunicated,
    /// Collective/point-to-point calls issued on the simulated MPI layer.
    CommCalls,
    /// Self-consistent Born iterations completed.
    BornIterations,
    /// Sweep points solved to convergence.
    PointsSolved,
    /// Sweep points that converged from a warm start.
    WarmPoints,
    /// Born iterations saved by warm starts versus the cold baseline.
    IterationsSaved,
    /// Warm-start cache hits.
    CacheHits,
    /// Warm-start cache misses.
    CacheMisses,
    /// Point attempts retried after a failure.
    Retries,
    /// Warm attempts that fell back to a cold solve.
    ColdFallbacks,
    /// Warm-start donors quarantined after a failed warm solve.
    Quarantined,
    /// Points restored from a checkpoint journal instead of recomputed.
    ResumedPoints,
    /// Tasks executed by the `omen-sched` DAG runtime.
    SchedTasks,
    /// DAG/stream tasks isolated after a panic (the run continues).
    SchedPanics,
}

/// Number of [`Counter`] variants (the registry's array width).
pub const NCOUNTERS: usize = 20;

impl Counter {
    /// Every counter, in [`Counter::index`] order.
    pub const ALL: [Counter; NCOUNTERS] = [
        Counter::GemmCalls,
        Counter::GemmFlops,
        Counter::SbsmmCalls,
        Counter::SbsmmFlops,
        Counter::SseFlops,
        Counter::BytesPacked,
        Counter::BytesCommunicated,
        Counter::CommCalls,
        Counter::BornIterations,
        Counter::PointsSolved,
        Counter::WarmPoints,
        Counter::IterationsSaved,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::Retries,
        Counter::ColdFallbacks,
        Counter::Quarantined,
        Counter::ResumedPoints,
        Counter::SchedTasks,
        Counter::SchedPanics,
    ];

    /// Stable snake_case name (used by the exporters and wire format).
    pub fn name(self) -> &'static str {
        match self {
            Counter::GemmCalls => "gemm_calls",
            Counter::GemmFlops => "gemm_flops",
            Counter::SbsmmCalls => "sbsmm_calls",
            Counter::SbsmmFlops => "sbsmm_flops",
            Counter::SseFlops => "sse_flops",
            Counter::BytesPacked => "bytes_packed",
            Counter::BytesCommunicated => "bytes_communicated",
            Counter::CommCalls => "comm_calls",
            Counter::BornIterations => "born_iterations",
            Counter::PointsSolved => "points_solved",
            Counter::WarmPoints => "warm_points",
            Counter::IterationsSaved => "iterations_saved",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::Retries => "retries",
            Counter::ColdFallbacks => "cold_fallbacks",
            Counter::Quarantined => "quarantined",
            Counter::ResumedPoints => "resumed_points",
            Counter::SchedTasks => "sched_tasks",
            Counter::SchedPanics => "sched_panics",
        }
    }

    /// Stable dense index into counter arrays; doubles as the wire tag
    /// for registry snapshots, so existing variants must never be
    /// renumbered (append-only).
    pub fn index(self) -> usize {
        match self {
            Counter::GemmCalls => 0,
            Counter::GemmFlops => 1,
            Counter::SbsmmCalls => 2,
            Counter::SbsmmFlops => 3,
            Counter::SseFlops => 4,
            Counter::BytesPacked => 5,
            Counter::BytesCommunicated => 6,
            Counter::CommCalls => 7,
            Counter::BornIterations => 8,
            Counter::PointsSolved => 9,
            Counter::WarmPoints => 10,
            Counter::IterationsSaved => 11,
            Counter::CacheHits => 12,
            Counter::CacheMisses => 13,
            Counter::Retries => 14,
            Counter::ColdFallbacks => 15,
            Counter::Quarantined => 16,
            Counter::ResumedPoints => 17,
            Counter::SchedTasks => 18,
            Counter::SchedPanics => 19,
        }
    }

    /// Inverse of [`Counter::index`]; `None` for indices this build does
    /// not know (a newer peer's wire snapshot is decoded by skipping
    /// them).
    pub fn from_index(i: usize) -> Option<Counter> {
        Counter::ALL.get(i).copied()
    }
}

// --- arming ------------------------------------------------------------

/// 0 = uninitialized, 1 = disarmed, 2 = armed.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// True when the registry records anything. The hot path is a single
/// relaxed atomic load; the environment (`OMEN_TRACE`) is consulted once
/// on first call.
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("OMEN_TRACE")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    ARMED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Arms the registry process-wide, regardless of `OMEN_TRACE`.
pub fn arm() {
    ARMED.store(2, Ordering::Relaxed);
}

/// Disarms the registry process-wide. Already-open spans still record on
/// drop; new ones become no-ops.
pub fn disarm() {
    ARMED.store(1, Ordering::Relaxed);
}

/// Restores the armed state `OMEN_TRACE` dictates (test/bench cleanup
/// after an explicit [`arm`]/[`disarm`]).
pub fn rearm_from_env() {
    ARMED.store(0, Ordering::Relaxed);
}

// --- counters ----------------------------------------------------------

static COUNTERS: [AtomicU64; NCOUNTERS] = [const { AtomicU64::new(0) }; NCOUNTERS];

/// Adds `v` to `counter` when armed; a single relaxed load otherwise.
#[inline]
pub fn add(counter: Counter, v: u64) {
    if armed() {
        COUNTERS[counter.index()].fetch_add(v, Ordering::Relaxed);
    }
}

/// Adds to two counters behind one armed check (the call+flops pair the
/// kernel entry points record).
#[inline]
pub fn add2(c1: Counter, v1: u64, c2: Counter, v2: u64) {
    if armed() {
        COUNTERS[c1.index()].fetch_add(v1, Ordering::Relaxed);
        COUNTERS[c2.index()].fetch_add(v2, Ordering::Relaxed);
    }
}

/// Current value of one registry counter.
pub fn counter(c: Counter) -> u64 {
    COUNTERS[c.index()].load(Ordering::Relaxed)
}

/// Snapshot of all registry counters, indexed by [`Counter::index`].
pub fn counters() -> [u64; NCOUNTERS] {
    let mut out = [0u64; NCOUNTERS];
    for (slot, atomic) in out.iter_mut().zip(COUNTERS.iter()) {
        *slot = atomic.load(Ordering::Relaxed);
    }
    out
}

/// A plain, local set of counter values: per-job accounting in
/// `omen-serve` and the payload of wire-format registry snapshots.
///
/// [`CounterSet::record`] is the bridge to the global registry: it bumps
/// the local set *and* forwards to the process-global counters when the
/// registry is armed, making per-job metrics a view over the registry
/// rather than a parallel bookkeeping scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; NCOUNTERS],
}

impl CounterSet {
    /// An all-zero set.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Current local value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c.index()]
    }

    /// Overwrites the local value of `c` (wire decoding; does not touch
    /// the global registry).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c.index()] = v;
    }

    /// Adds to the local value only (aggregation, decoding).
    pub fn add(&mut self, c: Counter, v: u64) {
        self.values[c.index()] = self.values[c.index()].saturating_add(v);
    }

    /// Adds to the local value *and* the global registry (when armed):
    /// the instrumented increment used on live paths.
    pub fn record(&mut self, c: Counter, v: u64) {
        self.add(c, v);
        add(c, v);
    }

    /// The non-zero `(counter, value)` entries, in index order.
    pub fn entries(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(move |&c| (c, self.get(c)))
            .filter(|&(_, v)| v != 0)
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

// --- clock and thread identity -----------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use of the clock).
/// Monotonic; shared by spans, phases, and events.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// The calling thread's current span nesting depth. Returns to its
/// pre-entry value after every guard drop — including drops during
/// unwinding, which is what keeps span trees balanced across
/// `catch_unwind` retry boundaries.
pub fn current_depth() -> u32 {
    DEPTH.with(|d| d.get())
}

// --- record store ------------------------------------------------------

/// One completed timing span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (the literal passed to [`span!`]).
    pub name: &'static str,
    /// Trace-local thread id (assigned in first-use order, starting at 1).
    pub tid: u64,
    /// Nesting depth at entry on the recording thread (0 = outermost).
    pub depth: u32,
    /// Start time, [`now_ns`] clock.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
}

/// One instantaneous sample (e.g. a per-iteration convergence residual).
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Event name.
    pub name: &'static str,
    /// Trace-local thread id.
    pub tid: u64,
    /// Sample time, [`now_ns`] clock.
    pub ts_ns: u64,
    /// First numeric argument (meaning is event-specific).
    pub a: f64,
    /// Second numeric argument (0.0 when unused).
    pub b: f64,
}

/// One completed phase: wall time plus the delta of every registry
/// counter across the phase window. Exact per-stage attribution for a
/// single simulation at a time (counters are process-global, so the
/// deltas include work scheduler workers did on the phase's behalf).
#[derive(Clone, Debug)]
pub struct PhaseRecord {
    /// Phase name.
    pub name: &'static str,
    /// Trace-local thread id of the phase owner.
    pub tid: u64,
    /// Start time, [`now_ns`] clock.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Per-counter increments observed during the phase, indexed by
    /// [`Counter::index`].
    pub deltas: [u64; NCOUNTERS],
}

#[derive(Default)]
struct Store {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    phases: Vec<PhaseRecord>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn lock_store() -> MutexGuard<'static, Store> {
    // Survive poisoning: a panicking span guard must still record, and
    // chaos tests unwind through armed spans on purpose.
    store().lock().unwrap_or_else(|e| e.into_inner())
}

// --- spans -------------------------------------------------------------

/// RAII timing span; construct via [`span!`] (or [`SpanGuard::enter`]).
/// Disarmed guards are inert. The drop — which runs during unwinding too
/// — restores the thread's depth and records the span.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    tid: u64,
    depth: u32,
    start_ns: u64,
}

impl SpanGuard {
    /// Opens a span named `name` when the registry is armed; returns an
    /// inert guard otherwise.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !armed() {
            return SpanGuard { live: None };
        }
        let tid = tid();
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            live: Some(LiveSpan {
                name,
                tid,
                depth,
                start_ns: now_ns(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let end = now_ns();
            lock_store().spans.push(SpanRecord {
                name: live.name,
                tid: live.tid,
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns: end.saturating_sub(live.start_ns),
            });
        }
    }
}

/// Opens an RAII timing span: `let _g = omen_trace::span!("gf_phase");`.
/// Expands to an expression returning a [`SpanGuard`]; the span closes
/// when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

// --- events ------------------------------------------------------------

/// Records an instantaneous sample with one numeric argument.
#[inline]
pub fn event(name: &'static str, a: f64) {
    event2(name, a, 0.0);
}

/// Records an instantaneous sample with two numeric arguments (e.g.
/// iteration index and residual).
#[inline]
pub fn event2(name: &'static str, a: f64, b: f64) {
    if !armed() {
        return;
    }
    let rec = EventRecord {
        name,
        tid: tid(),
        ts_ns: now_ns(),
        a,
        b,
    };
    lock_store().events.push(rec);
}

// --- phases ------------------------------------------------------------

/// RAII phase scope: snapshots every registry counter on entry and
/// records the per-counter delta plus wall time on drop. This is the
/// measured side of per-stage attribution — wrap the GF solve, the SSE
/// kernel, or a communication plan in a phase and the record says how
/// many FLOPs/bytes that stage consumed.
#[must_use = "a phase measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct PhaseGuard {
    live: Option<LivePhase>,
}

struct LivePhase {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    base: [u64; NCOUNTERS],
}

impl PhaseGuard {
    /// Opens a phase named `name` when the registry is armed; inert
    /// otherwise.
    #[inline]
    pub fn enter(name: &'static str) -> PhaseGuard {
        if !armed() {
            return PhaseGuard { live: None };
        }
        PhaseGuard {
            live: Some(LivePhase {
                name,
                tid: tid(),
                start_ns: now_ns(),
                base: counters(),
            }),
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end = now_ns();
            let now = counters();
            let mut deltas = [0u64; NCOUNTERS];
            for i in 0..NCOUNTERS {
                deltas[i] = now[i].saturating_sub(live.base[i]);
            }
            lock_store().phases.push(PhaseRecord {
                name: live.name,
                tid: live.tid,
                start_ns: live.start_ns,
                dur_ns: end.saturating_sub(live.start_ns),
                deltas,
            });
        }
    }
}

// --- snapshot ----------------------------------------------------------

/// Everything the registry has recorded: completed spans, events, phase
/// records, and the current counter values. Clonable, inspectable, and
/// the input to both exporters.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Instantaneous events, in record order.
    pub events: Vec<EventRecord>,
    /// Completed phase records, in completion order.
    pub phases: Vec<PhaseRecord>,
    /// Registry counter values at snapshot time, by [`Counter::index`].
    pub counters: [u64; NCOUNTERS],
}

impl TraceSnapshot {
    /// Value of one counter at snapshot time.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Sums `c`'s deltas over every phase record named `name`.
    pub fn phase_delta(&self, name: &str, c: Counter) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.deltas[c.index()])
            .sum()
    }

    /// Total wall nanoseconds of every phase record named `name`.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.dur_ns)
            .sum()
    }
}

/// Clones everything recorded so far.
pub fn snapshot() -> TraceSnapshot {
    let store = lock_store();
    TraceSnapshot {
        spans: store.spans.clone(),
        events: store.events.clone(),
        phases: store.phases.clone(),
        counters: counters(),
    }
}

/// Clears all recorded spans/events/phases and zeroes every counter.
/// Affects the whole process; callers sharing a binary must coordinate
/// (tests serialize on a lock, like the chaos fault-plan tests).
pub fn reset() {
    let mut store = lock_store();
    store.spans.clear();
    store.events.clear();
    store.phases.clear();
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming and the record store are process-global; every test that
    /// touches them holds this lock (same pattern as the chaos tests'
    /// fault-plan lock).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

    fn armed_registry() -> Armed {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        reset();
        Armed(guard)
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            reset();
            rearm_from_env();
        }
    }

    #[test]
    fn counters_accumulate_only_when_armed() {
        let _armed = armed_registry();
        add(Counter::GemmFlops, 10);
        add2(Counter::GemmCalls, 1, Counter::GemmFlops, 5);
        assert_eq!(counter(Counter::GemmFlops), 15);
        assert_eq!(counter(Counter::GemmCalls), 1);

        disarm();
        add(Counter::GemmFlops, 100);
        assert_eq!(
            counter(Counter::GemmFlops),
            15,
            "disarmed add must not count"
        );
        arm();
    }

    #[test]
    fn spans_record_name_depth_and_duration() {
        let _armed = armed_registry();
        {
            let _outer = span!("outer");
            let _inner = span!("inner");
        }
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner drops first.
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[0].depth, 1);
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].depth, 0);
        assert!(snap.spans[1].dur_ns >= snap.spans[0].dur_ns);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        reset();
        {
            let _s = span!("ghost");
            event("ghost", 1.0);
            let _p = PhaseGuard::enter("ghost");
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.phases.is_empty());
        rearm_from_env();
        drop(guard);
    }

    #[test]
    fn unwinding_restores_depth_and_records_spans() {
        let _armed = armed_registry();
        let before = current_depth();
        let result = std::panic::catch_unwind(|| {
            let _outer = span!("unwind_outer");
            let _inner = span!("unwind_inner");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(current_depth(), before, "unwind must pop every span");
        let snap = snapshot();
        assert!(snap.spans.iter().any(|s| s.name == "unwind_outer"));
        assert!(snap.spans.iter().any(|s| s.name == "unwind_inner"));
    }

    #[test]
    fn phase_records_counter_deltas() {
        let _armed = armed_registry();
        add(Counter::GemmFlops, 7); // outside the phase
        {
            let _p = PhaseGuard::enter("work");
            add(Counter::GemmFlops, 35);
            add(Counter::BytesPacked, 64);
        }
        let snap = snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phase_delta("work", Counter::GemmFlops), 35);
        assert_eq!(snap.phase_delta("work", Counter::BytesPacked), 64);
        assert_eq!(snap.phase_delta("work", Counter::SseFlops), 0);
        assert_eq!(snap.counter(Counter::GemmFlops), 42);
    }

    #[test]
    fn events_carry_two_arguments() {
        let _armed = armed_registry();
        event2("residual", 3.0, 1.5e-6);
        let snap = snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "residual");
        assert_eq!(snap.events[0].a, 3.0);
        assert_eq!(snap.events[0].b, 1.5e-6);
    }

    #[test]
    fn counter_index_roundtrips() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}: ALL order must match index()", c.name());
            assert_eq!(Counter::from_index(i), Some(*c));
        }
        assert_eq!(Counter::from_index(NCOUNTERS), None);
        // Names are unique (exporters key on them).
        for a in Counter::ALL {
            assert_eq!(
                Counter::ALL.iter().filter(|b| b.name() == a.name()).count(),
                1
            );
        }
    }

    #[test]
    fn counter_set_records_locally_and_globally() {
        let _armed = armed_registry();
        let mut set = CounterSet::new();
        assert!(set.is_empty());
        set.record(Counter::Retries, 2);
        set.add(Counter::CacheHits, 3); // local only
        assert_eq!(set.get(Counter::Retries), 2);
        assert_eq!(set.get(Counter::CacheHits), 3);
        assert_eq!(counter(Counter::Retries), 2);
        assert_eq!(counter(Counter::CacheHits), 0, "add() must stay local");
        let entries: Vec<_> = set.entries().collect();
        assert_eq!(
            entries,
            vec![(Counter::CacheHits, 3), (Counter::Retries, 2)]
        );
        set.set(Counter::Retries, 9);
        assert_eq!(set.get(Counter::Retries), 9);
        assert_eq!(counter(Counter::Retries), 2, "set() must stay local");
    }
}
