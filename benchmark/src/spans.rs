//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory while the solve runs and written out afterwards. A
//! span names the call, when it started and ended, the span that caused
//! it, and the solve it belongs to. Self time is the span's duration
//! minus the part its children cover.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub solve_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    solve_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(solve_id: u64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            solve_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            solve_id: self.solve_id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a child of `parent` whose duration the program reported
    /// itself (it ran at the start of the parent, which has ended).
    pub fn reported_child(&mut self, parent: usize, name: &'static str, seconds: f64) {
        let p = &self.spans[parent];
        let start_ns = p.start_ns;
        let end_ns = (start_ns + (seconds * 1e9) as u64).min(p.end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            solve_id: self.solve_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj(vec![
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(self.self_ns(id) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("solve_id", Value::Num(s.solve_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(3);
        let solve = rec.enter("solve");
        let it = rec.enter("born_iteration");
        let gf = rec.enter("core.gf_phase");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(gf);
        let fin = rec.enter("core.finish_iteration");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(fin);
        rec.reported_child(fin, "sse.kernel", 0.001);
        rec.exit(it);
        rec.exit(solve);

        let s = rec.spans();
        assert_eq!(s[gf].parent, Some(it));
        assert_eq!(s[it].parent, Some(solve));
        assert_eq!(s[solve].parent, None);
        assert!(s.iter().all(|x| x.solve_id == 3 && x.end_ns >= x.start_ns));
        assert_eq!(s[4].name, "sse.kernel");
        assert_eq!(s[4].dur_ns(), 1_000_000);
        assert_eq!(rec.self_ns(fin), s[fin].dur_ns() - 1_000_000);
        assert_eq!(
            rec.self_ns(it),
            s[it].dur_ns() - s[gf].dur_ns() - s[fin].dur_ns()
        );
        assert_eq!(rec.total_ns("core.gf_phase"), s[gf].dur_ns());
        assert_eq!(rec.to_json().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn a_reported_child_never_outlasts_its_parent() {
        let mut rec = Recorder::new(0);
        let p = rec.enter("core.finish_iteration");
        rec.exit(p);
        rec.reported_child(p, "sse.kernel", 10.0);
        assert_eq!(rec.spans()[1].end_ns, rec.spans()[p].end_ns);
        assert_eq!(rec.self_ns(p), 0);
    }
}
