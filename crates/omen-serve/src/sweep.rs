//! Sweep specifications: one scalar knob varied over an ordered value
//! list on top of a fixed base scenario.
//!
//! A sweep is the unit of work the service schedules. Points of the same
//! sweep share everything except the swept value, which is what makes
//! cross-point warm starts physically sound: the converged Σ/Π of a
//! neighboring point is an excellent initial guess, and the boundary
//! caches carry over lead by lead: an entry is reused wherever the
//! neighbor's own lead blocks at that point are bitwise the donor's
//! (`omen_rgf::BoundaryCache`).

use omen_core::{ConfigError, SimulationConfig};

/// Which scalar knob a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepAxis {
    /// Source chemical potential `μ_S` (eV); `Vds = μ_S − μ_D`.
    Bias,
    /// Contact temperature `k_B·T` (eV).
    Temperature,
    /// Electron-phonon coupling prefactor.
    Coupling,
}

impl SweepAxis {
    /// Writes `value` into the swept field of `cfg`.
    pub fn apply(self, cfg: &mut SimulationConfig, value: f64) {
        match self {
            SweepAxis::Bias => cfg.mu_source = value,
            SweepAxis::Temperature => cfg.kt = value,
            SweepAxis::Coupling => cfg.coupling = value,
        }
    }

    /// Reads the swept field back out of `cfg`.
    pub fn read(self, cfg: &SimulationConfig) -> f64 {
        match self {
            SweepAxis::Bias => cfg.mu_source,
            SweepAxis::Temperature => cfg.kt,
            SweepAxis::Coupling => cfg.coupling,
        }
    }

    /// Stable tag for hashing and wire encoding.
    pub fn tag(self) -> u8 {
        match self {
            SweepAxis::Bias => 0,
            SweepAxis::Temperature => 1,
            SweepAxis::Coupling => 2,
        }
    }

    /// Inverse of [`SweepAxis::tag`].
    pub fn from_tag(tag: u8) -> Option<SweepAxis> {
        match tag {
            0 => Some(SweepAxis::Bias),
            1 => Some(SweepAxis::Temperature),
            2 => Some(SweepAxis::Coupling),
            _ => None,
        }
    }
}

/// A sweep job: `base` with `axis` set to each of `values` in order.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The scenario every point shares.
    pub base: SimulationConfig,
    /// The varied knob.
    pub axis: SweepAxis,
    /// Swept values, visited in order (adjacent values warm-start best).
    pub values: Vec<f64>,
}

impl SweepSpec {
    /// Creates a sweep over `values` of `axis` on `base`.
    pub fn new(base: SimulationConfig, axis: SweepAxis, values: Vec<f64>) -> SweepSpec {
        SweepSpec { base, axis, values }
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The full configuration of point `idx`.
    pub fn config_for(&self, idx: usize) -> SimulationConfig {
        let mut cfg = self.base.clone();
        self.axis.apply(&mut cfg, self.values[idx]);
        cfg
    }

    /// Validates every point's configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for idx in 0..self.values.len() {
            self.config_for(idx).validate()?;
        }
        Ok(())
    }

    /// Scenario fingerprint: a hash over every configuration field
    /// *except* the swept value. Two sweep points may share warm-start
    /// state if and only if their scenario hashes (and axes) agree.
    pub fn scenario_hash(&self) -> u64 {
        let mut neutral = self.base.clone();
        // Neutralize the swept field so all points of one sweep — and of
        // any other sweep over the same scenario — hash identically.
        self.axis.apply(&mut neutral, 0.0);
        let mut h = fnv1a(format!("{neutral:?}").as_bytes());
        h ^= self.axis.tag() as u64;
        h.wrapping_mul(0x0000_0100_0000_01b3)
    }

    /// A FinFET drain-bias sweep on the `tiny` preset: `npoints` source
    /// potentials spanning 0.20 eV to 0.40 eV.
    pub fn finfet_bias(npoints: usize) -> SweepSpec {
        SweepSpec::new(
            SimulationConfig::tiny(),
            SweepAxis::Bias,
            linspace(0.20, 0.40, npoints),
        )
    }

    /// The quick CI variant of [`SweepSpec::finfet_bias`]: 4 points.
    pub fn finfet_bias_quick() -> SweepSpec {
        SweepSpec::finfet_bias(4)
    }

    /// A FinFET temperature sweep on the `tiny` preset: `npoints` values
    /// of `k_B·T` spanning 0.020 eV to 0.035 eV. Temperature never enters
    /// the ballistic operators, so every point reuses both leads' cached
    /// boundaries.
    pub fn finfet_temperature(npoints: usize) -> SweepSpec {
        SweepSpec::new(
            SimulationConfig::tiny(),
            SweepAxis::Temperature,
            linspace(0.020, 0.035, npoints),
        )
    }
}

/// `n` evenly spaced values over `[lo, hi]` (endpoints included).
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![lo],
        _ => (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect(),
    }
}

/// FNV-1a over a byte string — the scenario fingerprint primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_apply() {
        let spec = SweepSpec::finfet_bias_quick();
        spec.validate().expect("quick preset valid");
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.axis.read(&spec.config_for(0)), 0.20);
        assert_eq!(spec.axis.read(&spec.config_for(3)), 0.40);
        SweepSpec::finfet_temperature(3)
            .validate()
            .expect("temperature preset valid");
    }

    #[test]
    fn scenario_hash_ignores_swept_value_only() {
        let a = SweepSpec::finfet_bias(3);
        let b = SweepSpec::finfet_bias(7); // different values, same scenario
        assert_eq!(a.scenario_hash(), b.scenario_hash());

        // A different axis on the same base is a different scenario.
        let t = SweepSpec::new(a.base.clone(), SweepAxis::Temperature, vec![0.025]);
        assert_ne!(a.scenario_hash(), t.scenario_hash());

        // A non-swept field change is a different scenario.
        let mut other = a.clone();
        other.base.ne += 2;
        assert_ne!(a.scenario_hash(), other.scenario_hash());
    }

    #[test]
    fn linspace_covers_endpoints() {
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert_eq!((v[0], v[4]), (0.0, 1.0));
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn axis_tags_round_trip() {
        for axis in [SweepAxis::Bias, SweepAxis::Temperature, SweepAxis::Coupling] {
            assert_eq!(SweepAxis::from_tag(axis.tag()), Some(axis));
        }
        assert_eq!(SweepAxis::from_tag(9), None);
    }
}
