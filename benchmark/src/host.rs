//! The benchmark's own loops: what the host can do, and how fast it is
//! running right now. No repository code is called from here.

use std::time::Instant;

/// Independent FMA chains: enough to cover the FMA latency × ports.
const CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> (f64, u64) {
    use std::arch::x86_64::*;
    let m = _mm256_set1_pd(0.999_999_9);
    let a = _mm256_set1_pd(1e-9);
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, m, a);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = 0.0;
    for x in acc {
        // SAFETY: `lanes` is four f64 wide and the store is unaligned.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), x) };
        sum += lanes.iter().sum::<f64>();
    }
    (sum, iters * (CHAINS as u64) * 4 * 2)
}

fn fma_portable(iters: u64) -> (f64, u64) {
    let mut acc = [1.0f64; CHAINS * 4];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * 0.999_999_9 + 1e-9;
        }
    }
    (acc.iter().sum(), iters * (CHAINS as u64) * 4 * 2)
}

/// Runs `iters` rounds of the FMA kernel and returns GFLOP/s.
fn fma_rate(iters: u64) -> f64 {
    let t0 = Instant::now();
    #[cfg(target_arch = "x86_64")]
    let (sum, flops) = if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        // SAFETY: both features were just detected on this CPU.
        unsafe { fma_avx2(iters) }
    } else {
        fma_portable(iters)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (sum, flops) = fma_portable(iters);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    flops as f64 / secs / 1e9
}

/// FMA rate of one thread right now, in GFLOP/s: the best of seven ~4 ms
/// slices after ~30 ms of the same kernel unmeasured, so a core that was
/// idle has clocked up.
///
/// A diagnostic, never a correction: every timing the benchmark reports
/// is the wall clock. Each child runs this once, after everything it
/// timed; the spread of the values over a run's children (`host.spread`)
/// says how much the host drifted while the run was measured.
pub fn fma_gflops() -> f64 {
    std::hint::black_box(fma_rate(16_000_000));
    (0..7).map(|_| fma_rate(2_000_000)).fold(0.0, f64::max)
}

/// Seconds the hypervisor has kept runnable virtual CPUs of this machine
/// waiting so far, summed over CPUs (`steal` in `/proc/stat`, 10 ms
/// ticks); 0 where the kernel does not report it. Reported beside each
/// solve, and as `host.steal_share`; subtracted from nothing.
pub fn steal_seconds() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|text| {
        let cpu = text.lines().next()?.strip_prefix("cpu ")?.to_string();
        cpu.split_whitespace().nth(7)?.parse::<u64>().ok()
    });
    ticks.map_or(0.0, |t| t as f64 / 100.0)
}

/// Size in bytes of the largest cache `cpu0` reports, or 32 MiB.
pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            best = best.max(n.saturating_mul(mult));
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

fn meminfo_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    meminfo_kb("/proc/self/status", "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Result of the STREAM-triad probe.
pub struct Triad {
    pub gbs: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

/// Largest triad array. The hypervisor reports the whole socket's cache
/// (260 MiB here), and first-touching three arrays of four times that
/// cost 5 to 47 s, more than a driver run measures for. A virtual machine
/// holds a slice of that cache: measured on this host the triad rate
/// falls from 22 GB/s at 8 MiB per array to 12 GB/s at 64 MiB and stays
/// there (11.5-12.4 GB/s) up to 1040 MiB, so 128 MiB is past the knee and
/// costs 0.3 s. Both sizes are printed with the rate.
const TRIAD_CAP_BYTES: u64 = 128 << 20;

/// `a[i] = b[i] + s·c[i]` over three arrays of `array_bytes` each; the
/// best of three passes, counting 24 bytes per element. The arrays are
/// four times the largest cache, or [`TRIAD_CAP_BYTES`], or a quarter of
/// the free memory, whichever is least.
pub fn triad() -> Triad {
    let llc = llc_bytes();
    let free = meminfo_kb("/proc/meminfo", "MemAvailable").map_or(u64::MAX, |kb| kb * 1024);
    let array_bytes = (4 * llc).min(TRIAD_CAP_BYTES).min(free / 4).max(1 << 20);
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let s = 1.0 + pass as f64;
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    Triad {
        gbs: 24.0 * n as f64 / best / 1e9,
        array_bytes: 8 * n as u64,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fma_kernel_does_more_work_for_more_iterations() {
        // `black_box` is a hint: check the loop was not folded away.
        let time = |iters| {
            let t0 = Instant::now();
            std::hint::black_box(fma_rate(iters));
            t0.elapsed().as_secs_f64()
        };
        time(10_000);
        let (short, long) = (time(20_000), time(400_000));
        assert!(long > 5.0 * short, "short {short} s, long {long} s");
    }

    #[test]
    fn probes_return_positive_finite_numbers() {
        assert!(fma_gflops().is_finite() && fma_gflops() > 0.0);
        assert!(steal_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(llc_bytes() >= 1 << 20);
        let t = triad();
        assert!(t.gbs > 0.0 && t.gbs.is_finite());
        assert!((1 << 20..=TRIAD_CAP_BYTES).contains(&t.array_bytes));
    }
}
