//! Reference results: each workload's physics solved once on the
//! reference path (`Serial` executor, `ReferenceKernel`, cold points),
//! stored per seed and compared with every timed solve.
//!
//! `golden/seed-<S>.json` is committed for the default seed. Any other
//! seed (and the `--quick` sizes) is generated on first use into
//! `out/golden/`, which git ignores.

use crate::json::{self, Value};
use crate::workloads::{run_cold, Workload};
use std::path::{Path, PathBuf};

pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's own directory: `./benchmark` when run from the root of
/// a checkout (as the driver and the README do), else where it was built.
pub fn benchmark_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Where generated files go (results, traces, goldens of other seeds).
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

pub fn committed_path(seed: u64) -> PathBuf {
    benchmark_dir()
        .join("golden")
        .join(format!("seed-{seed}.json"))
}

fn generated_path(seed: u64, quick: bool) -> PathBuf {
    let suffix = if quick { "-quick" } else { "" };
    out_dir()
        .join("golden")
        .join(format!("seed-{seed}{suffix}.json"))
}

/// The reference of one workload at one seed and size.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    pub size_tag: String,
    /// Converged current of each bias point.
    pub currents: Vec<f64>,
    /// Born iterations each cold reference solve took.
    pub iters: Vec<u32>,
}

impl Reference {
    fn to_json(&self) -> Value {
        let iters: Vec<f64> = self.iters.iter().map(|&i| f64::from(i)).collect();
        Value::obj(vec![
            ("size", Value::str(&self.size_tag)),
            ("currents", Value::nums(&self.currents)),
            ("iters", Value::nums(&iters)),
        ])
    }

    fn from_json(v: &Value) -> Option<Reference> {
        Some(Reference {
            size_tag: v.get("size")?.as_str()?.to_string(),
            currents: v.f64s("currents")?,
            iters: v.f64s("iters")?.into_iter().map(|x| x as u32).collect(),
        })
    }
}

/// Solves the workload on the reference path. Fails if any point does.
pub fn generate(w: Workload, seed: u64, quick: bool) -> Result<Reference, String> {
    let configs = w.reference_configs(seed, quick);
    let points = configs.len();
    let out = run_cold(configs);
    if !out.errors.is_empty() || out.currents.len() != points {
        return Err(format!(
            "reference solve of {} (seed {seed}) failed: {}",
            w.name(),
            out.errors.join("; ")
        ));
    }
    Ok(Reference {
        size_tag: w.size_tag(quick),
        currents: out.currents,
        iters: out.iters,
    })
}

fn read_entry(path: &Path, seed: u64, w: Workload, size_tag: &str) -> Option<Reference> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if doc.get("seed")?.as_str()? != seed.to_string() {
        return None;
    }
    let r = Reference::from_json(doc.get("workloads")?.get(w.name())?)?;
    (r.size_tag == size_tag).then_some(r)
}

/// Writes `refs` to `path`, keeping the entries already there for other
/// workloads of the same seed.
pub fn write(path: &Path, seed: u64, refs: &[(Workload, Reference)]) -> Result<(), String> {
    let mut entries: Vec<(String, Value)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .filter(|doc| doc.get("seed").and_then(Value::as_str) == Some(&seed.to_string()))
        .and_then(|doc| {
            doc.get("workloads")
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
        })
        .unwrap_or_default();
    for (w, r) in refs {
        entries.retain(|(name, _)| name != w.name());
        entries.push((w.name().to_string(), r.to_json()));
    }
    let doc = Value::obj(vec![
        ("seed", Value::Str(seed.to_string())),
        (
            "path",
            Value::str("ExecutorKind::Serial + KernelVariant::Reference, every point cold"),
        ),
        ("workloads", Value::Obj(entries)),
    ]);
    write_file(path, &doc.to_pretty())
}

/// Writes `text` to `path`, creating the directories above it.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The reference for `w`, from the committed file, else from an earlier
/// generation, else generated now (`true` in the result) and kept.
pub fn load_or_generate(w: Workload, seed: u64, quick: bool) -> Result<(Reference, bool), String> {
    let tag = w.size_tag(quick);
    let generated = generated_path(seed, quick);
    for path in [committed_path(seed), generated.clone()] {
        if let Some(r) = read_entry(&path, seed, w, &tag) {
            return Ok((r, false));
        }
    }
    let r = generate(w, seed, quick)?;
    write(&generated, seed, &[(w, r.clone())])?;
    Ok((r, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = out_dir().join(format!("test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_written_reference_reads_back_and_other_entries_survive() {
        let path = scratch("golden").join("seed-9.json");
        let a = Reference {
            size_tag: Workload::GfHeavy.size_tag(false),
            currents: vec![1.620572577123e0],
            iters: vec![8],
        };
        let b = Reference {
            size_tag: Workload::SweepWarm.size_tag(false),
            currents: vec![0.1, 0.2, 0.3],
            iters: vec![9, 9, 10],
        };
        write(&path, 9, &[(Workload::GfHeavy, a.clone())]).unwrap();
        write(&path, 9, &[(Workload::SweepWarm, b.clone())]).unwrap();
        assert_eq!(
            read_entry(&path, 9, Workload::GfHeavy, &a.size_tag),
            Some(a.clone())
        );
        assert_eq!(
            read_entry(&path, 9, Workload::SweepWarm, &b.size_tag),
            Some(b)
        );
        // Another seed, another size or another workload is a miss.
        assert_eq!(read_entry(&path, 8, Workload::GfHeavy, &a.size_tag), None);
        assert_eq!(read_entry(&path, 9, Workload::GfHeavy, "nx1"), None);
        assert_eq!(read_entry(&path, 9, Workload::DistDace, &a.size_tag), None);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn the_default_seed_is_committed_for_every_workload() {
        for w in Workload::ALL {
            let r = read_entry(
                &committed_path(DEFAULT_SEED),
                DEFAULT_SEED,
                w,
                &w.size_tag(false),
            );
            let r = r.unwrap_or_else(|| panic!("golden/seed-1.json lacks {}", w.name()));
            assert_eq!(r.currents.len(), w.sizes(false).points);
            assert!(r.currents.iter().all(|c| c.is_finite() && *c > 0.0));
        }
    }
}
