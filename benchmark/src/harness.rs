//! The parent process: spawns one child per repetition, strictly one at
//! a time, checks every result against the reference, and turns the
//! repetitions into medians.
//!
//! Two protocols share the machinery. `bench` is the driver's: one
//! workload, repetitions until `--seconds` have passed, one JSON line.
//! `run` is the full one: all workloads round-robin for R rounds (so the
//! host's drift lands on all of them alike), a traced round, a table and
//! a results file for `compare`.

use crate::child::outcome_from_json;
use crate::golden::{self, write_file, Reference};
use crate::host::{self, Triad};
use crate::json::{self, Value};
use crate::layers::gemm_roofline;
use crate::metrics::{self, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::{judge, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds of the full protocol: each workload gets R cold repetitions of
/// 1.5 to 2.5 s, about 25 s of timed work, and the whole run stays under
/// four minutes. `--quick` makes one.
const ROUNDS: usize = 12;

fn spawn_child(
    mode: &str,
    w: Workload,
    seed: u64,
    quick: bool,
    artifacts: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--mode", mode, "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .arg("--artifacts")
        .arg(artifacts)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end, so none outlives the parent.
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{mode} child of {} ended with {}",
            w.name(),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(line).map_err(|e| format!("{mode} child of {} printed no result: {e}", w.name()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-repetition values of each metric of one table, in table order.
type Columns = Vec<(&'static str, Vec<f64>)>;

/// Everything collected for one workload.
pub struct Runs {
    pub w: Workload,
    pub reference: Reference,
    pub generated_reference: bool,
    samples: Vec<Value>,
    traced: Vec<Value>,
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
    worst_rel_err: Vec<f64>,
}

impl Runs {
    pub fn new(w: Workload, seed: u64, quick: bool) -> Result<Runs, String> {
        let (reference, generated_reference) = golden::load_or_generate(w, seed, quick)?;
        Ok(Runs {
            w,
            reference,
            generated_reference,
            samples: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
            worst_rel_err: Vec::new(),
        })
    }

    /// Spawns one child and files its result. A child that crashes or
    /// prints nothing fails every solve it was to make.
    pub fn repeat(&mut self, mode: &str, seed: u64, quick: bool, artifacts: &Path) {
        let points = self.reference.currents.len();
        let result = spawn_child(mode, self.w, seed, quick, artifacts).and_then(|v| {
            outcome_from_json(&v)
                .map(|o| (v, o))
                .ok_or("malformed result".into())
        });
        match result {
            Ok((value, outcome)) => {
                let (attempted, failed, reasons, worst) =
                    judge(self.w, &outcome, &self.reference.currents);
                self.attempted += attempted;
                self.failed += failed;
                self.reasons.extend(reasons);
                if mode == "traced" {
                    self.worst_rel_err.push(worst);
                    self.traced.push(value);
                } else {
                    self.samples.push(value);
                }
            }
            Err(e) => {
                self.attempted += points;
                self.failed += points;
                self.reasons.push(e);
            }
        }
    }

    fn column<'a>(values: impl IntoIterator<Item = &'a Value>, key: &str) -> Vec<f64> {
        let values = values.into_iter();
        values.filter_map(|v| v.get(key)?.as_f64()).collect()
    }

    fn born_iters(v: &Value) -> f64 {
        v.f64s("iters").map_or(0.0, |i| i.iter().sum())
    }

    /// Per-repetition values of every end-to-end metric, from the
    /// untraced children only.
    pub fn end_to_end(&self) -> Columns {
        let s = &self.samples;
        let per_iter: Vec<f64> = s
            .iter()
            .filter_map(|v| {
                let iters = Self::born_iters(v);
                (iters > 0.0).then_some(1e3 * v.get("solve_s")?.as_f64()? / iters)
            })
            .collect();
        // One value per run, the largest: whether a rank thread gets an
        // allocator arena of its own depends on timing, so a child of
        // `dist_dace` peaks at 19.5 or at 22.9 MB and the median of a run
        // lands on either (10.6 % spread over ten runs); the largest is
        // what the run needed, and repeats within 0.9 %.
        let peak: Vec<f64> = Self::column(s, "peak_rss_mb")
            .into_iter()
            .reduce(f64::max)
            .into_iter()
            .collect();
        vec![
            ("setup_s", Self::column(s, "setup_s")),
            ("solve_s", Self::column(s, "solve_s")),
            ("born_iter_ms", per_iter),
            ("peak_rss_mb", peak),
        ]
    }

    /// Per-repetition values of every per-layer metric: what the traced
    /// children measured, plus the ratios only the parent can form.
    pub fn per_layer(&self, triad: Option<&Triad>) -> Columns {
        let mut columns: Vec<(&'static str, Vec<f64>)> =
            PER_LAYER.iter().map(|m| (m.name, Vec::new())).collect();
        // The host as every child of the run saw it, traced or not.
        let children = || self.samples.iter().chain(&self.traced);
        let probes = Self::column(children(), "fma_gflops");
        if probes.is_empty() {
            return columns;
        }
        let probes = Summary::of(&probes);
        let (fma, spread) = (probes.median, probes.max / probes.min);
        let sum = |key: &str| Self::column(children(), key).iter().sum::<f64>();
        let steal_share = sum("steal_s") / sum("solve_s");
        let triad_gbs = triad.map_or(f64::NAN, |t| t.gbs);
        let untraced = Self::column(&self.samples, "solve_s");
        let base = (!untraced.is_empty()).then(|| median(&untraced));
        let threads = self.w.threads() as f64;

        let mut push = |name: &str, x: f64| {
            let col = columns.iter_mut().find(|(n, _)| *n == name);
            col.unwrap_or_else(|| panic!("{name} is not a declared metric"))
                .1
                .push(x);
        };
        for (t, &rel_err) in self.traced.iter().zip(&self.worst_rel_err) {
            let layer = |name: &str| t.get("layers")?.get(name)?.as_f64();
            for (name, v) in t.get("layers").and_then(Value::as_obj).unwrap_or(&[]) {
                if let Some(x) = v.as_f64() {
                    push(name, x);
                }
            }
            push("core.current_rel_err", rel_err);
            let bs = t.get("block_size").and_then(Value::as_f64).unwrap_or(1.0) as usize;
            let roof = gemm_roofline(bs, fma, triad_gbs);
            if let Some(x) = layer("rgf.point_gflops") {
                push("rgf.roofline_frac", x / roof);
            }
            if let Some(x) = layer("linalg.gemm_bs_gflops") {
                push("linalg.gemm_bs_roofline_frac", x / roof);
            }
            let solve = t.get("solve_s").and_then(Value::as_f64).unwrap_or(f64::NAN);
            // Without untraced repetitions there is nothing to compare.
            let base = base.unwrap_or(solve);
            push("trace.overhead_pct", 100.0 * (solve / base - 1.0));
            let flops = t
                .get("model_flops_per_iter")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                * Self::born_iters(t);
            push("perf.useful_gflops", flops / base / 1e9);
            push("perf.roofline_frac", flops / base / 1e9 / (fma * threads));
            push("host.fma_gflops", fma);
            push("host.triad_gbs", triad_gbs);
            push("host.spread", spread);
            push("host.steal_share", steal_share);
        }
        columns
    }

    /// The benchmark's span list of the first traced repetition and the
    /// path of the `omen-trace` chrome trace the child wrote.
    fn artifacts(&self) -> Option<(&Value, Option<&str>)> {
        let t = self.traced.first()?;
        Some((
            t.get("spans")?,
            t.get("chrome_trace").and_then(Value::as_str),
        ))
    }
}

fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn print_tables(runs: &Runs, end_to_end: &Columns, layers: &Columns) {
    println!("\n== {} ({}) ==", runs.w.name(), runs.reference.size_tag);
    println!(
        "{:<28} {:<8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>3}",
        "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    for (name, values) in end_to_end {
        if values.is_empty() {
            println!("{name:<28} no successful repetition");
            continue;
        }
        let s = Summary::of(values);
        println!(
            "{:<28} {:<8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>3}",
            name,
            metrics::unit_of(name).unwrap_or(""),
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            fmt(s.min),
            fmt(s.max),
            s.n,
        );
    }
    println!("repetitions (solve_s, stolen s, FMA GFLOP/s afterwards, Born iterations):");
    for v in &runs.samples {
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {:>8.4} {:>8.4} {:>7.2} {:>5}",
            num("solve_s"),
            num("steal_s"),
            num("fma_gflops"),
            Runs::born_iters(v)
        );
    }
    println!("failed {} of {} solves", runs.failed, runs.attempted);
    for r in &runs.reasons {
        println!("  failure: {r}");
    }
    if layers.iter().all(|(_, v)| v.is_empty()) {
        return;
    }
    println!(
        "{:<30} {:<8} {:>12} {:>3}",
        "per-layer", "unit", "median", "n"
    );
    for (name, values) in layers {
        if values.is_empty() {
            println!("{name:<30} not measured");
            continue;
        }
        println!(
            "{:<30} {:<8} {:>12} {:>3}",
            name,
            metrics::unit_of(name).unwrap_or(""),
            fmt(median(values)),
            values.len()
        );
    }
}

/// Memory bandwidth, measured once per invocation that reports per-layer
/// metrics (the roofline fractions need it), before any child runs.
fn measure_triad() -> Triad {
    let t = host::triad();
    println!(
        "host: {} threads available; triad {:.2} GB/s over three arrays of {} MiB each \
         (largest cache reported: {} MiB)",
        nproc(),
        t.gbs,
        t.array_bytes >> 20,
        t.llc_bytes >> 20
    );
    t
}

/// Writes the benchmark's span list next to the chrome trace.
fn write_spans(runs: &Runs, dir: &Path, seed: u64) -> Option<PathBuf> {
    let (spans, _) = runs.artifacts()?;
    let path = dir.join(format!("{}.seed-{seed}.spans.json", runs.w.name()));
    match write_file(&path, &spans.to_pretty()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    }
}

/// The driver's protocol. Prints tables for people, then one JSON line.
pub fn bench(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> i32 {
    let started = Instant::now();
    let artifacts = golden::out_dir().join("traces");
    let mut runs = match Runs::new(w, seed, quick) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if runs.generated_reference {
        println!("reference for seed {seed} was missing: generated before timing started");
    }
    let triad = trace.then(measure_triad);
    let measuring = Instant::now();
    loop {
        runs.repeat("sample", seed, quick, &artifacts);
        if trace {
            runs.repeat("traced", seed, quick, &artifacts);
        }
        if measuring.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let end_to_end = runs.end_to_end();
    // Without traced children every per-layer column is empty.
    let layers = runs.per_layer(triad.as_ref());
    print_tables(&runs, &end_to_end, &layers);
    if trace {
        if let Some(path) = write_spans(&runs, &artifacts, seed) {
            println!("spans: {}", path.display());
        }
        if let Some((_, Some(chrome))) = runs.artifacts() {
            println!("chrome trace: {chrome}");
        }
    }
    println!(
        "measured for {:.1} s, {:.1} s in all",
        measuring.elapsed().as_secs_f64(),
        started.elapsed().as_secs_f64()
    );

    let columns = if trace { layers } else { end_to_end };
    let mut complete = true;
    let metrics: Vec<(String, Value)> = columns
        .iter()
        .map(|(name, values)| {
            let value = if values.is_empty() {
                f64::NAN
            } else {
                median(values)
            };
            complete &= value.is_finite();
            let unit = metrics::unit_of(name).unwrap_or("");
            let pair = Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::str(unit)),
            ]);
            (name.to_string(), pair)
        })
        .collect();
    let line = Value::obj(vec![
        ("correct", Value::Bool(runs.failed == 0 && complete)),
        ("attempted", Value::Num(runs.attempted.max(1) as f64)),
        ("failed", Value::Num(runs.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    0
}

fn summaries(columns: &Columns) -> Value {
    Value::Obj(
        columns
            .iter()
            .filter(|(_, values)| !values.is_empty())
            .map(|(name, values)| {
                let unit = metrics::unit_of(name).unwrap_or("");
                (name.to_string(), Summary::of(values).to_json(unit))
            })
            .collect(),
    )
}

/// The full protocol: every workload, round-robin, then a traced round.
pub fn run(seed: u64, quick: bool, out: &Path) -> i32 {
    let started = Instant::now();
    let rounds = if quick { 1 } else { ROUNDS };
    let artifacts = out
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut all = Vec::new();
    for w in Workload::ALL {
        match Runs::new(w, seed, quick) {
            Ok(runs) => {
                if runs.generated_reference {
                    println!(
                        "reference for {} at seed {seed} was missing: generated before timing started",
                        w.name()
                    );
                }
                all.push(runs);
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    if quick {
        println!("QUICK smoke run: shrunken grids, one round. Never compare it with a full run.");
    }
    let triad = measure_triad();
    for round in 0..rounds {
        for runs in &mut all {
            runs.repeat("sample", seed, quick, &artifacts);
        }
        println!(
            "round {} of {rounds} done at {:.0} s",
            round + 1,
            started.elapsed().as_secs_f64()
        );
    }
    for runs in &mut all {
        runs.repeat("traced", seed, quick, &artifacts);
    }
    println!(
        "traced round done at {:.0} s",
        started.elapsed().as_secs_f64()
    );

    let mut workloads = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // Both tables hold a column per declared metric: an empty one is a
    // metric the run failed to measure.
    let mut missing = Vec::new();
    for runs in &all {
        let end_to_end = runs.end_to_end();
        let layers = runs.per_layer(Some(&triad));
        print_tables(runs, &end_to_end, &layers);
        for (name, values) in end_to_end.iter().chain(&layers) {
            if values.is_empty() {
                missing.push(format!("{}/{name}", runs.w.name()));
            }
        }
        let spans = write_spans(runs, &artifacts, seed);
        let chrome = runs.artifacts().and_then(|(_, c)| c);
        attempted += runs.attempted;
        failed += runs.failed;
        workloads.push((
            runs.w.name().to_string(),
            Value::obj(vec![
                ("size", Value::str(&runs.reference.size_tag)),
                ("attempted", Value::Num(runs.attempted as f64)),
                ("failed", Value::Num(runs.failed as f64)),
                ("end_to_end", summaries(&end_to_end)),
                ("per_layer", summaries(&layers)),
                (
                    "spans",
                    spans.map_or(Value::Null, |p| Value::Str(p.display().to_string())),
                ),
                ("chrome_trace", chrome.map_or(Value::Null, Value::str)),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("benchmark", Value::str("omen-benchmark")),
        ("seed", Value::Str(seed.to_string())),
        ("quick", Value::Bool(quick)),
        ("rounds", Value::Num(rounds as f64)),
        (
            "host",
            Value::obj(vec![
                ("nproc", Value::Num(nproc() as f64)),
                ("triad_gbs", Value::Num(triad.gbs)),
                ("triad_array_bytes", Value::Num(triad.array_bytes as f64)),
                ("llc_bytes", Value::Num(triad.llc_bytes as f64)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    if let Err(e) = write_file(out, &doc.to_pretty()) {
        eprintln!("{e}");
        return 1;
    }
    println!(
        "\n{failed} of {attempted} solves failed; results in {}; {:.0} s in all",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    if !missing.is_empty() {
        eprintln!("metrics not measured: {}", missing.join(", "));
    }
    i32::from(failed > 0 || !missing.is_empty())
}
