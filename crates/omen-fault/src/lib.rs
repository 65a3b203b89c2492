//! # omen-fault
//!
//! Deterministic, seed-driven fault injection for the fault-tolerance
//! layer spanning `omen-serve`, `omen-core`, and `omen-comm`.
//!
//! The paper's extreme-scale runs (arXiv 1912.10024) survive multi-hour
//! Born loops across thousands of ranks only because no single poisoned
//! point can take the job down. Reproducing that failure model needs a
//! way to *provoke* the failures on demand — reproducibly, so a chaos
//! test that passes once passes always. This crate provides that
//! harness:
//!
//! * a [`FaultPlan`] holds a seed plus one injection probability per
//!   [`FaultSite`];
//! * every injection decision is a pure hash of
//!   `(seed, site, caller key)` — no RNG state, no wall clock, no
//!   thread-interleaving dependence. The same plan and the same call
//!   keys produce the same faults on every run and every machine;
//! * the plan is compiled into the normal build but **inert unless
//!   enabled**: the process-wide plan defaults to
//!   [`FaultPlan::disabled`] and only arms when `OMEN_FAULT_SEED` is
//!   set in the environment (or a test calls [`install`]).
//!
//! ## Environment knobs
//!
//! | variable            | meaning                                             |
//! |---------------------|-----------------------------------------------------|
//! | `OMEN_FAULT_SEED`   | arms the plan with this seed (u64)                  |
//! | `OMEN_FAULT_RATE`   | default per-site rate when armed (default `0.1`)    |
//! | `OMEN_FAULT_PANIC`  | worker-panic rate override                          |
//! | `OMEN_FAULT_NAN`    | point NaN-poisoning rate override                   |
//! | `OMEN_FAULT_FRAME`  | frame-corruption rate override                      |
//! | `OMEN_FAULT_DONOR`  | warm-start donor-corruption rate override           |
//!
//! Sites only fire where a supervisor is prepared to catch them: callers
//! must opt in per call site (e.g. `omen-core` injects NaN poisoning
//! only into simulations that were handed an explicit fault key by
//! `omen-serve`), so arming the plan chaos-tests the *fault-tolerant*
//! paths without poisoning unsupervised unit tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// An injectable failure site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A worker thread panics while processing a sweep point.
    WorkerPanic,
    /// A point's Σ state is poisoned with NaN mid-Born-loop.
    NanPoison,
    /// A serialized frame is corrupted on its way to the journal.
    FrameCorrupt,
    /// A warm-start donor's tensors are corrupted before seeding.
    DonorCorrupt,
}

impl FaultSite {
    /// Every site, for iteration and reporting.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::WorkerPanic,
        FaultSite::NanPoison,
        FaultSite::FrameCorrupt,
        FaultSite::DonorCorrupt,
    ];

    /// Stable short name (used in log/panic messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::NanPoison => "nan-poison",
            FaultSite::FrameCorrupt => "frame-corrupt",
            FaultSite::DonorCorrupt => "donor-corrupt",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::NanPoison => 1,
            FaultSite::FrameCorrupt => 2,
            FaultSite::DonorCorrupt => 3,
        }
    }

    /// Per-site salt so the same key draws independent decisions per
    /// site.
    fn salt(self) -> u64 {
        [
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
            0x27d4_eb2f_1656_67c5,
        ][self.index()]
    }

    fn env_var(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "OMEN_FAULT_PANIC",
            FaultSite::NanPoison => "OMEN_FAULT_NAN",
            FaultSite::FrameCorrupt => "OMEN_FAULT_FRAME",
            FaultSite::DonorCorrupt => "OMEN_FAULT_DONOR",
        }
    }
}

/// A deterministic fault-injection plan: a seed plus one probability per
/// site. Copyable and cheap; decisions are pure functions of the plan
/// and the caller-supplied key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// The seed every decision hash mixes in.
    pub seed: u64,
    rates: [f64; 4],
}

impl FaultPlan {
    /// The inert plan: never injects anything.
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: [0.0; 4],
        }
    }

    /// A plan injecting every site at `rate` under `seed`.
    pub fn seeded(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [rate; 4],
        }
    }

    /// Returns the plan with `site`'s rate replaced.
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The injection probability of `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// True when any site can fire.
    pub fn enabled(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }

    /// The plan the environment describes: [`FaultPlan::disabled`]
    /// unless `OMEN_FAULT_SEED` is set, in which case every site runs at
    /// `OMEN_FAULT_RATE` (default 0.1) with per-site overrides.
    pub fn from_env() -> FaultPlan {
        let Some(seed) = env_u64("OMEN_FAULT_SEED") else {
            return FaultPlan::disabled();
        };
        let base = env_f64("OMEN_FAULT_RATE").unwrap_or(0.1);
        let mut plan = FaultPlan::seeded(seed, base.clamp(0.0, 1.0));
        for site in FaultSite::ALL {
            if let Some(rate) = env_f64(site.env_var()) {
                plan = plan.with_rate(site, rate);
            }
        }
        plan
    }

    /// The deterministic injection decision for `site` at `key`.
    ///
    /// `key` identifies the call site's unit of work (e.g. a hash of the
    /// sweep point's value and retry attempt). The decision is a pure
    /// hash of `(seed, site, key)`: independent of call order, thread
    /// interleaving, and wall clock, so a chaos run is exactly
    /// reproducible from the seed.
    pub fn should_inject(&self, site: FaultSite, key: u64) -> bool {
        let rate = self.rates[site.index()];
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ splitmix64(key));
        unit_f64(h) < rate
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// SplitMix64 finalizer: the decision/derivation hash primitive.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds `b` into key `a` (order-sensitive), for composing call-site
/// keys out of several identifiers (point value bits, attempt index, …).
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Deterministic delay jitter in `[0, max_ns)` for `(seed, key)` — the
/// chaos-scheduling counterpart of [`FaultPlan::should_inject`]. The
/// `omen-sched` tests perturb worker interleavings with it: a pure
/// function of the seed, so any ordering bug it exposes replays exactly.
pub fn jitter_ns(seed: u64, key: u64, max_ns: u64) -> u64 {
    if max_ns == 0 {
        return 0;
    }
    mix(seed, key) % max_ns
}

fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministically flips one bit of `bytes` (keyed by `key`); no-op on
/// an empty slice. The canonical frame-corruption primitive: a single
/// bit flip is the smallest corruption a checksum must catch.
pub fn corrupt_bytes(bytes: &mut [u8], key: u64) {
    if bytes.is_empty() {
        return;
    }
    let h = splitmix64(key ^ 0x5bf0_3635);
    let pos = (h as usize) % bytes.len();
    let bit = (h >> 32) % 8;
    bytes[pos] ^= 1 << bit;
}

// --- process-wide plan -------------------------------------------------

fn global() -> &'static RwLock<FaultPlan> {
    static PLAN: OnceLock<RwLock<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(FaultPlan::from_env()))
}

/// The process-wide plan (a copy).
pub fn plan() -> FaultPlan {
    *global().read().expect("fault plan lock")
}

/// Replaces the process-wide plan. Chaos tests call this to pin their
/// plan regardless of the environment; the override applies to the whole
/// process, so tests sharing a binary must agree on the plan.
pub fn install(plan: FaultPlan) {
    *global().write().expect("fault plan lock") = plan;
}

/// True when the process-wide plan can inject anything. Tests use this
/// to relax exact-count assertions that injected retries legitimately
/// perturb.
pub fn active() -> bool {
    plan().enabled()
}

static COUNTS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// The process-wide injection decision for `site` at `key`; counts every
/// injection so chaos tests can assert faults actually fired.
pub fn should_inject(site: FaultSite, key: u64) -> bool {
    let fire = plan().should_inject(site, key);
    if fire {
        COUNTS[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// Injections fired at `site` since process start.
pub fn injected(site: FaultSite) -> u64 {
    COUNTS[site.index()].load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.enabled());
        for site in FaultSite::ALL {
            for key in 0..1000 {
                assert!(!plan.should_inject(site, key));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::seeded(7, 0.25);
        assert!(plan.enabled());
        let n = 20_000u64;
        for site in FaultSite::ALL {
            let fired = (0..n).filter(|&k| plan.should_inject(site, k)).count() as f64;
            let rate = fired / n as f64;
            assert!(
                (rate - 0.25).abs() < 0.02,
                "{}: empirical rate {rate}",
                site.name()
            );
            // Re-evaluation gives the identical decision set.
            for k in 0..100 {
                assert_eq!(plan.should_inject(site, k), plan.should_inject(site, k));
            }
        }
        // Sites draw independently: the same key need not fire everywhere.
        let k = (0..n)
            .find(|&k| {
                plan.should_inject(FaultSite::WorkerPanic, k)
                    != plan.should_inject(FaultSite::NanPoison, k)
            })
            .expect("sites must be decorrelated");
        assert!(k < n);
    }

    #[test]
    fn seeds_change_the_decision_set() {
        let a = FaultPlan::seeded(1, 0.3);
        let b = FaultPlan::seeded(2, 0.3);
        let differs = (0..1000u64).any(|k| {
            a.should_inject(FaultSite::WorkerPanic, k) != b.should_inject(FaultSite::WorkerPanic, k)
        });
        assert!(differs, "different seeds must draw different faults");
    }

    #[test]
    fn with_rate_overrides_one_site() {
        let plan = FaultPlan::seeded(3, 0.0).with_rate(FaultSite::FrameCorrupt, 1.0);
        assert!(plan.enabled());
        assert_eq!(plan.rate(FaultSite::WorkerPanic), 0.0);
        assert_eq!(plan.rate(FaultSite::FrameCorrupt), 1.0);
        assert!(plan.should_inject(FaultSite::FrameCorrupt, 42));
        assert!(!plan.should_inject(FaultSite::WorkerPanic, 42));
    }

    #[test]
    fn corrupt_bytes_flips_exactly_one_bit() {
        let original: Vec<u8> = (0..64).collect();
        let mut corrupted = original.clone();
        corrupt_bytes(&mut corrupted, 99);
        let diff: u32 = original
            .iter()
            .zip(&corrupted)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        // Deterministic: the same key flips the same bit.
        let mut again = original.clone();
        corrupt_bytes(&mut again, 99);
        assert_eq!(again, corrupted);
        // Empty slices are a no-op.
        corrupt_bytes(&mut [], 1);
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(1, 2), mix(1, 3));
    }
}
