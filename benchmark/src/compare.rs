//! `compare A.json B.json`: a verdict per end-to-end metric and workload
//! between two results files of the full protocol, A being the parent.
//!
//! The bounds are those of `BENCHMARK.json`: the file is generated from
//! `metrics::END_TO_END` and a unit test pins it to that table, which is
//! what this module reads. A pair whose run-to-run spread (interquartile
//! distance) is wider than what the bound allows is *unresolved*, not
//! unchanged: the data cannot tell.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Smallest gain, as a share of the parent's median, that counts as
/// better. A metric with one value per run (`peak_rss_mb`) has an
/// interquartile distance of 0, and without this any decrease would be
/// a gain; between runs of one binary it moves by up to 1.1 %.
const MIN_GAIN: f64 = 0.02;

/// Verdict on B against its parent A.
///
/// The metric may move by `bound` of the median, or by its absolute
/// `floor` if that is more. Unresolved: either file's interquartile
/// distance is wider than that. Worse: B's median is worse than A's by
/// more than that. Better: B's median is better by more than A's own
/// interquartile distance (a gain must clear the parent's noise, not the
/// bound), the floor, and [`MIN_GAIN`].
pub fn verdict(a: &Summary, b: &Summary, m: &EndToEnd) -> Verdict {
    let allowed = |s: &Summary| (m.bound * s.median.abs()).max(m.floor);
    if a.q3 - a.q1 > allowed(a) || b.q3 - b.q1 > allowed(b) {
        return Verdict::Unresolved;
    }
    let worse_by = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let noise = (a.q3 - a.q1).max(m.floor).max(MIN_GAIN * a.median.abs());
    if worse_by > allowed(a) {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Why two results files cannot be compared, if they cannot.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    for (label, doc) in [("A", a), ("B", b)] {
        match doc.get("quick").and_then(Value::as_bool) {
            Some(false) => {}
            Some(true) => return Some(format!("{label} is a --quick smoke run")),
            None => return Some(format!("{label} is not a results file of `run`")),
        }
    }
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_str).map(str::to_string);
    if seed(a) != seed(b) {
        return Some(format!("seeds differ: {:?} and {:?}", seed(a), seed(b)));
    }
    let sizes = |doc: &Value| -> Vec<(String, Option<String>)> {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(w, v)| {
                (
                    w.clone(),
                    v.get("size").and_then(Value::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let (sa, sb) = (sizes(a), sizes(b));
    if sa.is_empty() || sa != sb {
        return Some(format!(
            "workloads or their sizes differ: {sa:?} and {sb:?}"
        ));
    }
    None
}

fn summary_of(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<Summary> {
    Summary::from_json(
        doc.get("workloads")?
            .get(workload)?
            .get(section)?
            .get(metric)?,
    )
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub verdict: Verdict,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
}

pub fn compare_docs(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    if let Some(why) = refusal(a, b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut rows = Vec::new();
    for (workload, _) in a.get("workloads").and_then(Value::as_obj).unwrap_or(&[]) {
        for m in END_TO_END {
            let get = |doc| summary_of(doc, workload, "end_to_end", m.name);
            let (Some(sa), Some(sb)) = (get(a), get(b)) else {
                return Err(format!(
                    "{workload}/{} is missing from a results file",
                    m.name
                ));
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                verdict: verdict(&sa, &sb, m),
                a: sa,
                b: sb,
                bound: m.bound,
            });
        }
    }
    Ok(rows)
}

/// Exact counts whose medians differ between the two files.
pub fn exact_differences(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, _) in a.get("workloads").and_then(Value::as_obj).unwrap_or(&[]) {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let get = |doc| summary_of(doc, workload, "per_layer", m.name).map(|s| s.median);
            if let (Some(x), Some(y)) = (get(a), get(b)) {
                if x != y {
                    out.push(format!("{workload}/{}: {x} -> {y}", m.name));
                }
            }
        }
    }
    out
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; the exit code is 1 on any `worse`, 2 when the
/// files cannot be compared.
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let rows = load(a_path).and_then(|a| {
        let b = load(b_path)?;
        let rows = compare_docs(&a, &b)?;
        Ok((rows, exact_differences(&a, &b)))
    });
    let (rows, exact) = match rows {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<14} {:<11} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}",
        "workload",
        "metric",
        "verdict",
        "A median",
        "B median",
        "change",
        "A iqr",
        "B iqr",
        "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<14} {:<11} {:>11.5} {:>11.5} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%",
            r.workload,
            r.metric,
            r.verdict.as_str(),
            r.a.median,
            r.b.median,
            100.0 * (r.b.median - r.a.median) / r.a.median,
            100.0 * r.a.spread(),
            100.0 * r.b.spread(),
            100.0 * r.bound,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved (spread wider than the bound)",
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    if exact.is_empty() {
        println!("exact counts: identical");
    } else {
        println!("exact counts that differ:");
        exact.iter().for_each(|d| println!("  {d}"));
    }
    i32::from(count(Verdict::Worse) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(center: f64) -> Summary {
        Summary::of(&[
            0.99 * center,
            center,
            1.01 * center,
            0.995 * center,
            1.005 * center,
        ])
    }

    fn metric(better: Better, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound,
            floor,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_parents_noise() {
        let a = tight(10.0);
        let v = |b: f64, better| verdict(&a, &tight(b), &metric(better, 0.10, 0.0));
        assert_eq!(v(10.0, Better::Lower), Verdict::Same);
        assert_eq!(v(10.9, Better::Lower), Verdict::Same);
        assert_eq!(v(11.2, Better::Lower), Verdict::Worse);
        assert_eq!(v(9.0, Better::Lower), Verdict::Better);
        // Within the parent's interquartile distance is not a gain.
        assert_eq!(v(9.95, Better::Lower), Verdict::Same);
        // Direction flips for a throughput.
        assert_eq!(v(11.2, Better::Higher), Verdict::Better);
        assert_eq!(v(8.8, Better::Higher), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = Summary::of(&[8.0, 9.0, 10.0, 11.0, 12.0]);
        assert!(noisy.spread() > 0.10);
        let m = metric(Better::Lower, 0.10, 0.0);
        assert_eq!(verdict(&noisy, &tight(20.0), &m), Verdict::Unresolved);
        assert_eq!(verdict(&tight(10.0), &noisy, &m), Verdict::Unresolved);
        let wide = metric(Better::Lower, 0.5, 0.0);
        assert_eq!(verdict(&noisy, &tight(10.0), &wide), Verdict::Same);
    }

    /// `setup_s` today: 0.2 ms, where a quarter is 50 us of noise.
    #[test]
    fn below_the_absolute_floor_nothing_is_worse_better_or_unresolved() {
        let m = metric(Better::Lower, 0.25, 2e-3);
        let a = tight(2.0e-4);
        assert_eq!(verdict(&a, &tight(2.7e-4), &m), Verdict::Same);
        assert_eq!(verdict(&a, &tight(1.0e-4), &m), Verdict::Same);
        let noisy = Summary::of(&[1e-4, 2e-4, 3e-4, 4e-4, 5e-4]);
        assert!(noisy.spread() > m.bound);
        assert_eq!(verdict(&noisy, &a, &m), Verdict::Same);
        // Work moved into set-up shows once it clears the floor.
        assert_eq!(verdict(&a, &tight(2.5e-3), &m), Verdict::Worse);
        // Above the floor the relative bound rules again.
        let big = tight(0.1);
        assert_eq!(verdict(&big, &tight(0.12), &m), Verdict::Same);
        assert_eq!(verdict(&big, &tight(0.13), &m), Verdict::Worse);
    }

    /// `peak_rss_mb` has one value per run, so no spread of its own.
    #[test]
    fn a_single_valued_metric_needs_a_minimum_gain_to_be_better() {
        let m = metric(Better::Lower, 0.05, 0.0);
        let one = |x: f64| Summary::of(&[x]);
        assert_eq!(verdict(&one(40.0), &one(39.9), &m), Verdict::Same);
        assert_eq!(verdict(&one(40.0), &one(39.5), &m), Verdict::Same);
        assert_eq!(verdict(&one(40.0), &one(39.0), &m), Verdict::Better);
        assert_eq!(verdict(&one(40.0), &one(42.5), &m), Verdict::Worse);
    }

    fn results(seed: &str, quick: bool, size: &str, solve: f64) -> Value {
        let e2e = Value::obj(vec![
            ("setup_s", tight(2e-4).to_json("s")),
            ("solve_s", tight(solve).to_json("s")),
            ("born_iter_ms", tight(125.0 * solve).to_json("ms")),
            ("peak_rss_mb", tight(40.0).to_json("MB")),
        ]);
        let layers = Value::obj(vec![(
            "core.born_iters",
            Summary::of(&[8.0]).to_json("count"),
        )]);
        let w = Value::obj(vec![
            ("size", Value::str(size)),
            ("end_to_end", e2e),
            ("per_layer", layers),
        ]);
        Value::obj(vec![
            ("seed", Value::str(seed)),
            ("quick", Value::Bool(quick)),
            ("workloads", Value::obj(vec![("gf_heavy", w)])),
        ])
    }

    #[test]
    fn comparable_files_get_one_row_per_metric_and_workload() {
        let rows = compare_docs(
            &results("1", false, "ne24", 2.0),
            &results("1", false, "ne24", 2.6),
        )
        .unwrap();
        let got: Vec<_> = rows.iter().map(|r| (r.metric, r.verdict)).collect();
        assert_eq!(
            got,
            [
                ("setup_s", Verdict::Same),
                ("solve_s", Verdict::Worse),
                ("born_iter_ms", Verdict::Worse),
                ("peak_rss_mb", Verdict::Same)
            ]
        );
    }

    #[test]
    fn quick_files_and_mismatched_seeds_or_sizes_are_refused() {
        let full = results("1", false, "ne24", 2.0);
        assert!(refusal(&full, &full).is_none());
        assert!(refusal(&full, &results("1", true, "ne24", 2.0))
            .unwrap()
            .contains("quick"));
        assert!(refusal(&results("1", true, "ne24", 2.0), &full)
            .unwrap()
            .contains("quick"));
        assert!(refusal(&full, &results("2", false, "ne24", 2.0))
            .unwrap()
            .contains("seeds"));
        assert!(refusal(&full, &results("1", false, "ne32", 2.0))
            .unwrap()
            .contains("sizes"));
        assert!(refusal(&full, &Value::Obj(vec![])).is_some());
        assert!(compare_docs(&full, &results("2", false, "ne24", 2.0)).is_err());
    }

    #[test]
    fn exact_counts_that_moved_are_listed() {
        let a = results("1", false, "ne24", 2.0);
        assert!(exact_differences(&a, &a).is_empty());
        let mut b = a.clone();
        if let Value::Obj(top) = &mut b {
            let w = &mut top.iter_mut().find(|(k, _)| k == "workloads").unwrap().1;
            let text = w.to_json().replace("\"median\":8", "\"median\":9");
            *w = json::parse(&text).unwrap();
        }
        assert_eq!(
            exact_differences(&a, &b),
            ["gf_heavy/core.born_iters: 8 -> 9"]
        );
    }
}
