//! A two-resource streams model: GF/SSE phase overlap across sweep points.
//!
//! In the spirit of the paper's Table 6 (what concurrent streams buy),
//! this module models a sweep on two dedicated resources, one per phase:
//! `T` iterations whose GF stage costs `g` seconds and SSE stage `s`
//! seconds take `T·(g+s)` serially, but only `T·max(g,s) + min(g,s)`
//! when every GF stage may run beside another iteration's SSE stage —
//! the smaller stage hides behind the larger one on every iteration but
//! the first (or last), saving `(T−1)·min(g,s)`. Two *symmetric* workers
//! running whole points (`omen_core::run_overlapped`) finish in
//! `T·(g+s)/2`, never later than that, so for them the model is a floor
//! on the speedup rather than a prediction.
//!
//! [`measured_overlap_fraction`] inverts the model against reality: from
//! the busy seconds each phase actually recorded (`omen-trace` phase
//! windows) and the measured wall time of the overlapped sweep, it
//! recovers what fraction of the smaller stage was hidden (clamped at
//! 1, which symmetric workers reach whenever the stages are unequal).

use omen_trace::TraceSnapshot;

/// The two-stage pipeline model: `tasks` units of work, each with a GF
/// stage of `gf_s` seconds and an SSE stage of `sse_s` seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamModel {
    /// Pipelined tasks (sweep points × Born iterations, or any unit
    /// whose two stages alternate).
    pub tasks: usize,
    /// Seconds one GF stage costs.
    pub gf_s: f64,
    /// Seconds one SSE stage costs.
    pub sse_s: f64,
}

impl StreamModel {
    /// Builds the model from a traced **serial** run: per-task stage
    /// costs are the `gf_phase` / `sse_phase` busy sums divided by the
    /// task count.
    pub fn from_trace(snap: &TraceSnapshot, tasks: usize) -> StreamModel {
        let per = |ns: u64| {
            if tasks == 0 {
                0.0
            } else {
                ns as f64 * 1e-9 / tasks as f64
            }
        };
        StreamModel {
            tasks,
            gf_s: per(snap.phase_ns("gf_phase")),
            sse_s: per(snap.phase_ns("sse_phase")),
        }
    }

    /// Wall seconds of the serial schedule: `T·(g+s)`.
    pub fn serial_wall(&self) -> f64 {
        self.tasks as f64 * (self.gf_s + self.sse_s)
    }

    /// Wall seconds of the two-stage pipeline: `T·max(g,s) + min(g,s)`
    /// — the larger stage is the critical path, plus one exposed copy of
    /// the smaller stage to fill/drain the pipe.
    pub fn pipelined_wall(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.tasks as f64 * self.gf_s.max(self.sse_s) + self.gf_s.min(self.sse_s)
    }

    /// Modeled serial/pipelined speedup (1.0 for zero or one task).
    pub fn speedup(&self) -> f64 {
        let p = self.pipelined_wall();
        if p > 0.0 {
            self.serial_wall() / p
        } else {
            1.0
        }
    }

    /// Seconds the pipeline hides: `(T−1)·min(g,s)`.
    pub fn saved_s(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        (self.tasks as f64 - 1.0) * self.gf_s.min(self.sse_s)
    }

    /// Modeled fraction of the smaller stage's total busy time that is
    /// hidden: `(T−1)/T`. This is what [`measured_overlap_fraction`]
    /// should recover from a perfectly pipelined run.
    pub fn overlap_fraction(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            (self.tasks as f64 - 1.0) / self.tasks as f64
        }
    }
}

/// Measured overlap fraction of a pipelined run: how much of the smaller
/// stage's busy time was hidden behind the larger stage.
///
/// With `gf_s`/`sse_s` the *busy* seconds each phase recorded and
/// `wall_s` the measured wall time, the hidden time is
/// `gf_s + sse_s − wall_s` (busy work that did not extend the wall), as
/// a fraction of `min(gf_s, sse_s)` (the most that *could* hide). The
/// result is clamped to `[0, 1]`: timer noise can push the raw ratio
/// slightly outside, and a serial run (`wall ≥ gf + sse`) reads as 0.
pub fn measured_overlap_fraction(gf_s: f64, sse_s: f64, wall_s: f64) -> f64 {
    if !gf_s.is_finite() || !sse_s.is_finite() || !wall_s.is_finite() {
        return 0.0;
    }
    let min = gf_s.min(sse_s);
    if min <= 0.0 {
        return 0.0;
    }
    ((gf_s + sse_s - wall_s) / min).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_trace::{PhaseRecord, NCOUNTERS};

    fn model(tasks: usize, gf_s: f64, sse_s: f64) -> StreamModel {
        StreamModel { tasks, gf_s, sse_s }
    }

    #[test]
    fn walls_and_speedup_follow_the_pipeline_algebra() {
        let m = model(4, 3.0, 1.0);
        assert!((m.serial_wall() - 16.0).abs() < 1e-12);
        // 4·max + min = 4·3 + 1 = 13.
        assert!((m.pipelined_wall() - 13.0).abs() < 1e-12);
        assert!((m.speedup() - 16.0 / 13.0).abs() < 1e-12);
        // Saved = (T−1)·min = 3·1; serial − pipelined agrees.
        assert!((m.saved_s() - 3.0).abs() < 1e-12);
        assert!((m.serial_wall() - m.pipelined_wall() - m.saved_s()).abs() < 1e-12);
    }

    #[test]
    fn balanced_stages_approach_2x() {
        let m = model(100, 1.0, 1.0);
        assert!(m.speedup() > 1.9 && m.speedup() < 2.0);
        assert!((m.overlap_fraction() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn degenerate_task_counts_are_tame() {
        assert_eq!(model(0, 1.0, 1.0).pipelined_wall(), 0.0);
        assert_eq!(model(0, 1.0, 1.0).speedup(), 1.0);
        assert_eq!(model(0, 1.0, 1.0).overlap_fraction(), 0.0);
        // One task has nothing to overlap with: pipeline == serial.
        let one = model(1, 2.0, 1.0);
        assert!((one.pipelined_wall() - one.serial_wall()).abs() < 1e-12);
        assert_eq!(one.saved_s(), 0.0);
        assert_eq!(one.overlap_fraction(), 0.0);
    }

    #[test]
    fn measured_fraction_recovers_the_model_on_ideal_timings() {
        let m = model(8, 2.0, 1.0);
        // Busy sums of a pipelined run are unchanged — only the wall
        // shrinks. The recovered fraction must match (T−1)/T.
        let f = measured_overlap_fraction(
            m.tasks as f64 * m.gf_s,
            m.tasks as f64 * m.sse_s,
            m.pipelined_wall(),
        );
        assert!((f - m.overlap_fraction()).abs() < 1e-12, "f = {f}");
    }

    #[test]
    fn measured_fraction_clamps_and_rejects_degenerate_inputs() {
        // Serial wall (no overlap) → 0.
        assert_eq!(measured_overlap_fraction(4.0, 2.0, 6.0), 0.0);
        // Wall below max busy (impossible, timer noise) → clamped to 1.
        assert_eq!(measured_overlap_fraction(4.0, 2.0, 3.0), 1.0);
        // Zero or NaN inputs never produce NaN.
        assert_eq!(measured_overlap_fraction(0.0, 2.0, 1.0), 0.0);
        assert_eq!(measured_overlap_fraction(f64::NAN, 2.0, 1.0), 0.0);
        assert_eq!(measured_overlap_fraction(4.0, 2.0, f64::NAN), 0.0);
    }

    #[test]
    fn from_trace_divides_phase_busy_time_over_tasks() {
        let phase = |name: &'static str, dur_ns: u64| PhaseRecord {
            name,
            tid: 1,
            start_ns: 0,
            dur_ns,
            deltas: [0u64; NCOUNTERS],
        };
        let snap = TraceSnapshot {
            phases: vec![
                phase("gf_phase", 3_000_000_000),
                phase("gf_phase", 1_000_000_000),
                phase("sse_phase", 2_000_000_000),
            ],
            ..TraceSnapshot::default()
        };
        let m = StreamModel::from_trace(&snap, 2);
        assert!((m.gf_s - 2.0).abs() < 1e-9);
        assert!((m.sse_s - 1.0).abs() < 1e-9);
        assert_eq!(StreamModel::from_trace(&snap, 0).gf_s, 0.0);
    }
}
