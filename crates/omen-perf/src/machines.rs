//! Hardware descriptions of the paper's two platforms (§6.2), and the
//! data-ingestion model that runs on them (§7.1.1).

/// GPU characteristics relevant to the roofline and rate models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gpu {
    /// Marketing name.
    pub name: &'static str,
    /// Peak double-precision flop/s.
    pub peak_dp: f64,
    /// Peak half-precision (Tensor Core) flop/s.
    pub peak_hp: f64,
    /// HBM memory bandwidth (bytes/s).
    pub mem_bw: f64,
    /// L2 cache bandwidth (bytes/s).
    pub l2_bw: f64,
}

/// NVIDIA Tesla P100 (Piz Daint).
pub const P100: Gpu = Gpu {
    name: "P100",
    peak_dp: 4.7e12,
    peak_hp: 18.8e12, // no Tensor Cores; FP16 2× FP32 rate
    mem_bw: 732.0e9,
    l2_bw: 2.0e12,
};

/// NVIDIA Tesla V100 (Summit).
pub const V100: Gpu = Gpu {
    name: "V100",
    peak_dp: 7.0e12,
    peak_hp: 120.0e12, // Tensor Cores
    mem_bw: 900.0e9,
    l2_bw: 2.7e12,
};

/// A whole machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Name.
    pub name: &'static str,
    /// Compute nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// The GPU model.
    pub gpu: Gpu,
    /// CPU peak double-precision flop/s per node.
    pub cpu_peak_dp: f64,
    /// Injection bandwidth per node (bytes/s).
    pub injection_bw: f64,
    /// HPL (effective maximum) performance of the full system (flop/s).
    pub hpl: f64,
}

impl MachineSpec {
    /// OLCF Summit (Top500 #1, June 2019).
    pub fn summit() -> MachineSpec {
        MachineSpec {
            name: "Summit",
            nodes: 4_608,
            gpus_per_node: 6,
            gpu: V100,
            cpu_peak_dp: 515.76e9,
            injection_bw: 23.0e9,
            hpl: 148.6e15,
        }
    }

    /// CSCS Piz Daint (Top500 #6, June 2019).
    pub fn piz_daint() -> MachineSpec {
        MachineSpec {
            name: "Piz Daint",
            nodes: 5_704,
            gpus_per_node: 1,
            gpu: P100,
            cpu_peak_dp: 499.2e9,
            injection_bw: 10.2e9,
            hpl: 21.2e15,
        }
    }

    /// Peak double-precision flop/s of one node (CPU + GPUs).
    pub fn node_peak_dp(&self) -> f64 {
        self.cpu_peak_dp + self.gpus_per_node as f64 * self.gpu.peak_dp
    }

    /// Peak double-precision flop/s of `nodes` nodes.
    pub fn system_peak_dp(&self, nodes: usize) -> f64 {
        nodes as f64 * self.node_peak_dp()
    }

    /// Nodes hosting a GPU count.
    pub fn nodes_for_gpus(&self, gpus: usize) -> usize {
        gpus.div_ceil(self.gpus_per_node)
    }

    /// GPU/CPU per-node performance ratio (the paper quotes 9.4× for Piz
    /// Daint and 81.43× for Summit).
    pub fn gpu_cpu_ratio(&self) -> f64 {
        self.gpus_per_node as f64 * self.gpu.peak_dp / self.cpu_peak_dp
    }
}

/// Latency of one hop of a broadcast tree (s).
const HOP_LATENCY: f64 = 1.0e-6;

/// Data-ingestion time model (§7.1.1): every node reading the material
/// files from the parallel filesystem, against one read plus a chunked
/// broadcast. One rank runs per GPU.
#[derive(Clone, Copy, Debug)]
pub struct StagingModel {
    /// Aggregate PFS read bandwidth under contention (bytes/s).
    pub pfs_bandwidth: f64,
    /// The machine the ranks run on.
    pub machine: MachineSpec,
}

impl StagingModel {
    /// Piz Daint, calibrated so the naive path reproduces the paper's
    /// 1,112 s at 2,589 nodes for a ~5 GiB material set.
    pub fn piz_daint() -> StagingModel {
        StagingModel {
            pfs_bandwidth: 12.5e9,
            machine: MachineSpec::piz_daint(),
        }
    }

    /// Naive ingestion: every node reads the full file set; PFS bandwidth
    /// is shared, so time scales linearly with node count.
    pub fn naive_load_time(&self, file_bytes: u64, nranks: usize) -> f64 {
        let nodes = self.machine.nodes_for_gpus(nranks) as f64;
        nodes * file_bytes as f64 / self.pfs_bandwidth
    }

    /// Staged ingestion: one read plus a pipelined chunked broadcast,
    /// with a per-chunk software overhead of ~1 ms (the dominant cost the
    /// paper observed — 31.1 s at 4,560 nodes).
    pub fn staged_load_time(&self, file_bytes: u64, nranks: usize, chunk_bytes: u64) -> f64 {
        let read = file_bytes as f64 / self.pfs_bandwidth;
        let chunks = file_bytes.div_ceil(chunk_bytes.max(1));
        // The chunks stream through a binomial tree: the payload crosses
        // an injection link once, plus log2(P) hop latencies.
        let bcast = if nranks > 1 {
            let hops = (nranks as f64).log2().ceil();
            file_bytes as f64 / self.machine.injection_bw + hops * HOP_LATENCY
        } else {
            0.0
        };
        read + bcast + chunks as f64 * 1.0e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_matches_paper_quotes() {
        let m = MachineSpec::summit();
        // "six NVIDIA Tesla V100 (42 double-precision Tflop/s in total)"
        let gpu_total = m.gpus_per_node as f64 * m.gpu.peak_dp;
        assert!((gpu_total - 42.0e12).abs() / 42.0e12 < 1e-6);
        // "significantly (81.43×) weaker" CPUs.
        assert!((m.gpu_cpu_ratio() - 81.43).abs() < 0.2);
        // Full machine peak ≈ 196–201 Pflop/s (the paper's 42.55% quote
        // implies 200.8; 4,608 × (42 + 0.516) Tflop/s gives 195.9).
        let peak = m.system_peak_dp(4_608);
        let frac = 85.45e15 / peak;
        assert!((0.42..0.44).contains(&frac), "fraction {frac:.3}");
    }

    #[test]
    fn piz_daint_matches_paper_quotes() {
        let m = MachineSpec::piz_daint();
        // "reasonable balance (GPU/CPU ratio of 9.4×)".
        assert!((m.gpu_cpu_ratio() - 9.41) < 0.1);
        // Node peak: 499.2 Gflop/s CPU + 4.7 Tflop/s GPU.
        assert!((m.node_peak_dp() - 5.1992e12).abs() < 1e9);
    }

    #[test]
    fn gpu_counting() {
        let m = MachineSpec::summit();
        assert_eq!(m.nodes_for_gpus(27_360), 4_560);
        assert_eq!(m.nodes_for_gpus(1_368), 228);
        let d = MachineSpec::piz_daint();
        assert_eq!(d.nodes_for_gpus(5_400), 5_400);
    }

    #[test]
    fn paper_full_scale_prediction() {
        // §7.1.8: 1.85 s to communicate each of D^≷/Π^≷ at full scale, at
        // 100 % utilisation of Summit's injection bandwidth, is 42.55 GB
        // per node.
        let bytes_per_node = 1.85 * MachineSpec::summit().injection_bw;
        assert!((bytes_per_node / 1e9 - 42.55).abs() < 0.1);
    }

    #[test]
    fn naive_time_reproduces_paper_observation() {
        // Paper: 1,112 s at 2,589 Piz Daint nodes, >30 min near full scale
        // (5,300 nodes).
        let model = StagingModel::piz_daint();
        let file = 5 * (1u64 << 30); // 5 GiB
        let ranks_2589 = 2589 * model.machine.gpus_per_node;
        let t = model.naive_load_time(file, ranks_2589);
        assert!(
            (t - 1112.0).abs() / 1112.0 < 0.05,
            "naive load at 2,589 nodes: {t:.0} s (paper: 1,112 s)"
        );
        let ranks_5300 = 5300 * model.machine.gpus_per_node;
        let t_full = model.naive_load_time(file, ranks_5300);
        assert!(
            t_full > 30.0 * 60.0,
            "full-scale naive load {t_full:.0} s > 30 min"
        );
    }

    #[test]
    fn staged_time_under_a_minute() {
        let model = StagingModel::piz_daint();
        let file = 5 * (1u64 << 30);
        let ranks = 5300 * model.machine.gpus_per_node;
        let t = model.staged_load_time(file, ranks, 256 << 20);
        assert!(t < 60.0, "staged load {t:.1} s must be under a minute");
        // Speedup vs naive: two orders of magnitude.
        let naive = model.naive_load_time(file, ranks);
        assert!(naive / t > 50.0, "staging speedup {:.0}×", naive / t);
    }
}
