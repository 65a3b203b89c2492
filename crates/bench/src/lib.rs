//! Shared utilities of the benchmark harness: table formatting, timing,
//! workload construction, and the "eager-temporaries" SSE variant standing
//! in for the paper's plain-Python baseline (Table 10).

use omen_linalg::{matmul, CMatrix, C64};
use omen_sse::{d_combination, DTensor, GTensor, SseProblem};
use std::time::Instant;

/// Prints a formatted table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times a closure `reps` times, returning the minimum seconds.
pub fn timed_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times a closure `reps` times, returning the median seconds (the
/// statistic recorded in `BENCH_kernels.json`).
pub fn timed_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    if reps % 2 == 1 {
        samples[reps / 2]
    } else {
        0.5 * (samples[reps / 2 - 1] + samples[reps / 2])
    }
}

/// One machine-readable benchmark result.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, unique within the file (merge key).
    pub name: String,
    /// Problem size (matrix dimension, block count, …).
    pub n: usize,
    /// Median wall-clock per evaluation in nanoseconds.
    pub median_ns: f64,
    /// Useful throughput in GFLOP/s.
    pub gflops: f64,
}

/// `true` when `--json` was passed on the command line; bench binaries use
/// it to gate [`write_bench_json`].
pub fn json_flag() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// `true` when `--quick` was passed: CI smoke runs shrink sizes and reps.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following `flag` on the command line, when present
/// (e.g. `arg_value("--trace-out")`).
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The shared perf-trajectory file written by the hot-path benches.
pub const BENCH_JSON_PATH: &str = "BENCH_kernels.json";

/// The sweep-service throughput file written by `sweep_throughput`.
pub const BENCH_SWEEPS_JSON_PATH: &str = "BENCH_sweeps.json";

/// Merges `records` into the JSON array at `path` (by `name`; new records
/// replace same-named old ones, everything else is preserved) and writes
/// it back. The format is a plain JSON array of flat objects so any later
/// tooling can diff perf across PRs.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut merged = std::fs::read_to_string(path)
        .map(|s| parse_bench_json(&s))
        .unwrap_or_default();
    for rec in records {
        match merged.iter_mut().find(|r| r.name == rec.name) {
            Some(slot) => *slot = rec.clone(),
            None => merged.push(rec.clone()),
        }
    }
    let mut out = String::from("[\n");
    for (i, r) in merged.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"n\": {}, \"median_ns\": {:.1}, \"gflops\": {:.3}}}{}\n",
            r.name,
            r.n,
            r.median_ns,
            r.gflops,
            if i + 1 < merged.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Parses the subset of JSON that [`write_bench_json`] emits: an array of
/// flat objects with string/number values. Unknown keys are ignored;
/// malformed entries are dropped (the file is regenerated by benches, not
/// hand-edited).
pub fn parse_bench_json(text: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let Some(end) = obj.find('}') else { continue };
        let body = &obj[..end];
        let mut name = None;
        let mut n = None;
        let mut median_ns = None;
        let mut gflops = None;
        for field in body.split(',') {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "name" => name = Some(value.trim_matches('"').to_string()),
                "n" => n = value.parse::<usize>().ok(),
                "median_ns" => median_ns = value.parse::<f64>().ok(),
                "gflops" => gflops = value.parse::<f64>().ok(),
                _ => {}
            }
        }
        if let (Some(name), Some(n), Some(median_ns), Some(gflops)) = (name, n, median_ns, gflops) {
            out.push(BenchRecord {
                name,
                n,
                median_ns,
                gflops,
            });
        }
    }
    out
}

/// Pretty-prints a byte count in TiB.
pub fn tib(bytes: f64) -> String {
    format!("{:.2}", bytes / (1u64 << 40) as f64)
}

/// The "Python" baseline of Table 10: the reference SSE arithmetic
/// evaluated numpy-style — every small operation allocates fresh
/// `CMatrix` temporaries and goes through the generic (interpreter-like,
/// dynamically dispatched) operator path. Produces identical values to
/// `sse_reference`; only the execution style differs.
pub fn sse_eager(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> (GTensor, GTensor) {
    let norb = prob.norb();
    let na = prob.na();
    let mut sigma_l = GTensor::zeros(prob.nk, prob.ne, na, norb);
    let mut sigma_g = GTensor::zeros(prob.nk, prob.ne, na, norb);
    let grads = &prob.device.gradients;
    let to_mat = |s: &[C64]| CMatrix::from_vec(norb, norb, s.to_vec());
    // Boxed closures emulate per-op dynamic dispatch.
    type OpBox<'a> = Box<dyn Fn(&CMatrix, &CMatrix) -> CMatrix + 'a>;
    let mul: OpBox = Box::new(|a: &CMatrix, b: &CMatrix| matmul(a, b));
    let add: OpBox = Box::new(|a: &CMatrix, b: &CMatrix| a + b);

    for a in 0..na {
        for (pair, b) in prob.pairs_of(a) {
            let rev = prob.rev_pair[pair];
            for q in 0..prob.nq {
                for m in 0..prob.nw {
                    let dc_l = d_combination(d_l, q, m, pair, rev, a, b, prob.npairs());
                    let dc_g = d_combination(d_g, q, m, pair, rev, a, b, prob.npairs());
                    let steps = prob.omega_steps(m);
                    for i in 0..3 {
                        let mut c_l = CMatrix::zeros(norb, norb);
                        let mut c_g = CMatrix::zeros(norb, norb);
                        for j in 0..3 {
                            let gj = to_mat(grads.grads[rev][j].as_slice());
                            c_l = add(&c_l, &gj.scaled(dc_l[j * 3 + i]));
                            c_g = add(&c_g, &gj.scaled(dc_g[j * 3 + i]));
                        }
                        let gi = to_mat(grads.grads[pair][i].as_slice());
                        for k in 0..prob.nk {
                            let kk = prob.k_minus_q(k, q);
                            for e in 0..prob.ne {
                                if e >= steps {
                                    let t =
                                        mul(&mul(&gi, &to_mat(g_l.block(kk, e - steps, b))), &c_l);
                                    accum(sigma_l.block_mut(k, e, a), &t);
                                    let t =
                                        mul(&mul(&gi, &to_mat(g_g.block(kk, e - steps, b))), &c_g);
                                    accum(sigma_g.block_mut(k, e, a), &t);
                                }
                                if e + steps < prob.ne {
                                    let t =
                                        mul(&mul(&gi, &to_mat(g_l.block(kk, e + steps, b))), &c_g);
                                    accum(sigma_l.block_mut(k, e, a), &t);
                                    let t =
                                        mul(&mul(&gi, &to_mat(g_g.block(kk, e + steps, b))), &c_l);
                                    accum(sigma_g.block_mut(k, e, a), &t);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (sigma_l, sigma_g)
}

fn accum(dst: &mut [C64], src: &CMatrix) {
    for (d, s) in dst.iter_mut().zip(src.as_slice()) {
        *d += *s;
    }
}

/// Builds a Hamiltonian-like sparse block pair for Tables 7–8: an RGF
/// off-diagonal coupling block (sparse) and a dense `g^R`-like block.
pub fn rgf_like_blocks(n: usize, density: f64, seed: u64) -> (CMatrix, CMatrix) {
    let sparse = CMatrix::from_fn(n, n, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(seed);
        let v = (h >> 11) as f64 / (1u64 << 53) as f64;
        if v < density {
            omen_linalg::c64(v - 0.5, 0.1 * v)
        } else {
            C64::ZERO
        }
    });
    let dense = CMatrix::from_fn(n, n, |i, j| {
        omen_linalg::c64(
            ((i * 7 + j * 13) as f64 + seed as f64).sin() * 0.3,
            ((i + 3 * j) as f64).cos() * 0.2,
        )
    });
    (sparse, dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_sse::sse_reference;
    use omen_sse::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn eager_matches_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 3);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let (sl, sg) = sse_eager(&prob, &gl, &gg, &dl, &dg);
        let d = sl.max_deviation(&reference.sigma_l) / reference.sigma_l.max_abs();
        assert!(d < 1e-12, "eager Σ< deviates by {d}");
        let d = sg.max_deviation(&reference.sigma_g) / reference.sigma_g.max_abs();
        assert!(d < 1e-12, "eager Σ> deviates by {d}");
    }

    #[test]
    fn bench_json_round_trip_and_merge() {
        let dir = std::env::temp_dir().join("omen_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernels.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let a = BenchRecord {
            name: "gemm_packed_nn".into(),
            n: 256,
            median_ns: 1234.5,
            gflops: 33.1,
        };
        let b = BenchRecord {
            name: "rgf_point_warm".into(),
            n: 32,
            median_ns: 99.0,
            gflops: 8.5,
        };
        write_bench_json(path, std::slice::from_ref(&a)).unwrap();
        // Second write merges: replaces same-named, keeps the rest.
        let a2 = BenchRecord { gflops: 40.0, ..a };
        write_bench_json(path, &[a2.clone(), b.clone()]).unwrap();
        let got = parse_bench_json(&std::fs::read_to_string(path).unwrap());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "gemm_packed_nn");
        assert!((got[0].gflops - 40.0).abs() < 1e-9);
        assert_eq!(got[1], b);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn timed_median_is_positive() {
        let t = timed_median(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn helpers() {
        assert_eq!(tib((1u64 << 40) as f64), "1.00");
        let (s, d) = rgf_like_blocks(8, 0.2, 1);
        assert_eq!(s.shape(), (8, 8));
        assert!(s.as_slice().iter().filter(|z| z.abs() > 0.0).count() < 40);
        assert!(d.max_abs() > 0.0);
        let t = timed_min(2, || {
            std::hint::black_box(1 + 1);
        });
        assert!(t >= 0.0);
    }
}
