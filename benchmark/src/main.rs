//! `omen-benchmark`: time-to-solution of the dace-omen Born loop on four
//! workloads, with a per-layer ladder measured from outside the program.
//! See `README.md` next to this package for the protocol and the metrics.

mod child;
mod compare;
mod executors;
mod golden;
mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Value;
use std::path::PathBuf;
use workloads::Workload;

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 20;

const USAGE: &str = "\
usage: omen-benchmark <command>
  run     [--seed S] [--out FILE] [--quick]                all workloads, table and results file
  bench   --workload W --seed S --seconds T --trace 0|1    one workload, one JSON line (the driver)
  compare A.json B.json                                    verdict per metric and workload
  golden  [--seed S]                                       write golden/seed-<S>.json
  manifest                                                 print BENCHMARK.json";

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.flag(key) => Err(format!("{key} needs a value")),
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {text:?}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }

    /// The arguments that are not flags.
    fn positional(&self) -> Vec<&str> {
        let plain = self.0.iter().filter(|a| !a.starts_with("--"));
        plain.map(String::as_str).collect()
    }
}

/// `BENCHMARK.json`, generated from the tables the binary reports from.
fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "bench",
    ];
    Value::obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name())),
                            ("why", Value::str(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(command: &str, args: &Args) -> Result<i32, String> {
    let quick = args.flag("--quick");
    let seed = args.parsed::<u64>("--seed")?;
    match command {
        "bench" => {
            let seconds = args
                .parsed::<f64>("--seconds")?
                .ok_or("--seconds is required")?;
            let trace = match args.value("--trace") {
                Some("0") => false,
                Some("1") => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            let seed = seed.ok_or("--seed is required")?;
            Ok(harness::bench(
                args.workload()?,
                seed,
                seconds,
                trace,
                quick,
            ))
        }
        "run" => {
            let seed = seed.unwrap_or(golden::DEFAULT_SEED);
            let out = args.value("--out").map_or_else(
                || {
                    let suffix = if quick { "-quick" } else { "" };
                    golden::out_dir().join(format!("results-seed-{seed}{suffix}.json"))
                },
                PathBuf::from,
            );
            Ok(harness::run(seed, quick, &out))
        }
        "compare" => match args.positional()[..] {
            [a, b] => Ok(compare::run(a.as_ref(), b.as_ref())),
            _ => Err("compare takes two results files".to_string()),
        },
        "golden" => {
            let seed = seed.unwrap_or(golden::DEFAULT_SEED);
            let mut refs = Vec::new();
            for w in Workload::ALL {
                let r = golden::generate(w, seed, false)?;
                println!(
                    "{}: {} points, iterations {:?}",
                    w.name(),
                    r.currents.len(),
                    r.iters
                );
                refs.push((w, r));
            }
            let path = golden::committed_path(seed);
            golden::write(&path, seed, &refs)?;
            println!("wrote {}", path.display());
            Ok(0)
        }
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(0)
        }
        "child" => {
            let w = args.workload()?;
            let seed = seed.ok_or("--seed is required")?;
            let result = match args.value("--mode") {
                Some("sample") => child::sample(w, seed, quick),
                Some("traced") => child::traced(
                    w,
                    seed,
                    quick,
                    args.value("--artifacts").map(PathBuf::from).as_deref(),
                ),
                other => return Err(format!("--mode must be sample or traced, got {other:?}")),
            };
            println!("{}", result.to_json());
            Ok(0)
        }
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match dispatch(&command, &Args(argv.collect())) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("omen-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Args {
        Args(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let a = args(&[
            "--workload",
            "dist_dace",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(a.workload().unwrap(), Workload::DistDace);
        assert_eq!(a.parsed::<u64>("--seed").unwrap(), Some(u64::MAX));
        assert_eq!(a.parsed::<f64>("--seconds").unwrap(), Some(20.0));
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(!a.flag("--quick"));
        assert!(args(&["--seed", "x"]).parsed::<u64>("--seed").is_err());
        assert!(args(&["--seed"]).parsed::<u64>("--seed").is_err());
        assert!(args(&["--workload", "nope"]).workload().is_err());
        assert_eq!(
            args(&["a.json", "--quick", "b.json"]).positional(),
            ["a.json", "b.json"]
        );
    }

    /// The names the binary emits are the names `BENCHMARK.json` declares:
    /// the committed file is what `manifest` prints.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `omen-benchmark manifest`"
        );

        let keys: Vec<_> = committed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |section: &str| -> BTreeSet<String> {
            committed
                .get(section)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let declared = |table: Vec<&str>| {
            table
                .into_iter()
                .map(str::to_string)
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(
            names("end_to_end"),
            declared(metrics::END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            names("per_layer"),
            declared(metrics::PER_LAYER.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            names("workloads"),
            declared(Workload::ALL.iter().map(|w| w.name()).collect())
        );
    }

    #[test]
    fn the_manifest_fits_the_contracts_limits() {
        let m = manifest();
        let command = m.get("command").and_then(Value::as_arr).unwrap();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        let seconds = m.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let workloads = m.get("workloads").and_then(Value::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        // 4 + 22 runs per workload must fit in 3420 s with two builds. A
        // run takes its reference solve and up to one repetition (with
        // `--trace 1`, one pair) more than `seconds`: 6 s more on average
        // over the four workloads, 15 s at most, measured.
        let runs = 4 + 22 * workloads.len();
        assert!(runs as f64 * (seconds + 12.0) + 2.0 * 90.0 < 3420.0);
    }
}
