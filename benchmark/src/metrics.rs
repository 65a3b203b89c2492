//! The names the benchmark reports: one table, from which the output,
//! `BENCHMARK.json` (`manifest` subcommand) and `compare` are all driven.
//! Every timing is wall clock; what the host did meanwhile is reported
//! beside it (`host.*`) and corrects nothing.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// `compare` only: a worsening smaller than this, in the metric's
    /// unit, is not a regression whatever its share of the median.
    pub floor: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that must repeat exactly run to run.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The timing bounds are the widest the contract allows because the host
/// allows no less: over ten driver runs the interquartile spread of a
/// run's median is 1-11 % of it in a calm half hour, up to 15 % when the
/// host has a slow phase, and two full runs twenty minutes apart differed
/// by up to 27 % (README, *Observed spread*). `compare` calls a change
/// better only when it clears the parent's own spread, whatever the bound.
pub const END_TO_END: &[EndToEnd] = &[
    // Median of 21 back-to-back constructions: 0.07-0.3 ms today, where a
    // quarter is 20-80 us of noise, hence the floor of 2 ms.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 2e-3,
    },
    // One cold solve to tolerance 1e-4: what a user waits for.
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    // ms per Born iteration (the paper's Table 11 unit): the speed of the
    // code, separated from how many iterations it took.
    EndToEnd {
        name: "born_iter_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    // The largest VmHWM at exit among the run's solving processes.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        floor: 0.0,
    },
];

const fn t(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn x(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // omen-core
    x("core.born_iters", "count", Lower),
    t("core.gf_phase_ms", "ms", Lower),
    t("core.finish_ms", "ms", Lower),
    t("core.sse_ms", "ms", Lower),
    t("core.mix_ms", "ms", Lower),
    t("core.other_share", "ratio", Lower),
    t("core.new_ms", "ms", Lower),
    t("core.warm_export_ms", "ms", Lower),
    t("core.warm_import_ms", "ms", Lower),
    t("core.exec.serial.gf_ms", "ms", Lower),
    t("core.exec.rayon2.gf_ms", "ms", Lower),
    t("core.exec.rayon2.speedup", "ratio", Higher),
    t("core.exec.dist2.gf_ms", "ms", Lower),
    t("core.exec.dist2.speedup", "ratio", Higher),
    t("sched.exec.dag2.gf_ms", "ms", Lower),
    t("sched.exec.dag2.speedup", "ratio", Higher),
    t("core.current_rel_err", "ratio", Lower),
    // omen-rgf
    t("rgf.el_point_ms", "ms", Lower),
    t("rgf.ph_point_ms", "ms", Lower),
    t("rgf.spec_share", "ratio", Lower),
    t("rgf.bc_share", "ratio", Lower),
    t("rgf.rgf_share", "ratio", Higher),
    x("rgf.bc_hit_rate", "ratio", Higher),
    t("rgf.point_gflops", "GFLOP/s", Higher),
    t("rgf.roofline_frac", "ratio", Higher),
    x("rgf.flops_ratio", "ratio", Lower),
    // omen-linalg
    t("linalg.gemm_bs_gflops", "GFLOP/s", Higher),
    t("linalg.gemm_bs_roofline_frac", "ratio", Higher),
    t("linalg.invert_bs_ms", "ms", Lower),
    t("linalg.sbsmm_norb_gflops", "GFLOP/s", Higher),
    x("linalg.gemm_calls", "count", Lower),
    x("linalg.gemm_flops", "flop", Lower),
    x("linalg.sbsmm_calls", "count", Lower),
    x("linalg.sbsmm_flops", "flop", Lower),
    x("linalg.bytes_packed", "B", Lower),
    // omen-sse
    t("sse.transformed_ms", "ms", Lower),
    t("sse.reference_ms", "ms", Lower),
    t("sse.mixed_ms", "ms", Lower),
    x("sse.flops", "flop", Lower),
    t("sse.gflops", "GFLOP/s", Higher),
    x("sse.flops_ratio", "ratio", Lower),
    t("sse.mixed_rel_err", "ratio", Lower),
    // omen-comm
    t("comm.dace_plan_ms", "ms", Lower),
    t("comm.omen_plan_ms", "ms", Lower),
    x("comm.dace_bytes_iter", "B", Lower),
    x("comm.omen_bytes_iter", "B", Lower),
    x("comm.dace_calls_iter", "count", Lower),
    x("comm.omen_calls_iter", "count", Lower),
    x("comm.dace_model_ratio", "ratio", Lower),
    x("comm.omen_model_ratio", "ratio", Lower),
    t("comm.plan_vs_local", "ratio", Lower),
    t("comm.alltoallv_mbs", "MB/s", Higher),
    t("comm.bcast_us", "us", Lower),
    t("comm.frame_mbs", "MB/s", Higher),
    // omen-sched
    t("sched.lower_ms", "ms", Lower),
    x("sched.dag_tasks", "count", Lower),
    t("sched.dag_overhead_us", "us", Lower),
    t("sched.overlap_speedup", "ratio", Higher),
    // omen-serve
    x("serve.warm_points", "count", Higher),
    x("serve.iters_saved", "count", Higher),
    x("serve.cache_hit_rate", "ratio", Higher),
    x("serve.retries", "count", Lower),
    x("serve.cache_bytes", "B", Lower),
    t("serve.cache_insert_us", "us", Lower),
    t("serve.cache_nearest_us", "us", Lower),
    t("serve.wire_roundtrip_us", "us", Lower),
    t("serve.ckpt_append_us", "us", Lower),
    // omen-device, omen-dataflow
    t("device.build_ms", "ms", Lower),
    t("device.hamiltonian_ms", "ms", Lower),
    t("dataflow.sdfg_lower_ms", "ms", Lower),
    // omen-trace, omen-perf, the host
    t("trace.overhead_pct", "%", Lower),
    t("trace.calls_per_iter", "count", Lower),
    t("perf.useful_gflops", "GFLOP/s", Higher),
    t("perf.roofline_frac", "ratio", Higher),
    t("host.fma_gflops", "GFLOP/s", Higher),
    t("host.triad_gbs", "GB/s", Higher),
    t("host.spread", "ratio", Lower),
    t("host.steal_share", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ok_chars(s: &str, extra: &str) -> bool {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let mut seen = BTreeSet::new();
        for (name, unit) in names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(ok_chars(name, "_.-"), "name charset: {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(ok_chars(unit, "_/%.-"), "unit charset: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }
}
