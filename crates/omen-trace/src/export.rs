//! Trace exporters: chrome://tracing JSON (Perfetto-loadable) and a flat
//! metrics text dump, plus a validator for the chrome-trace output so CI
//! can assert an exported file is well-formed without external JSON
//! dependencies.

use crate::{Counter, TraceSnapshot, NCOUNTERS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a snapshot as chrome://tracing "JSON Object Format":
/// `{"traceEvents": [...]}` with `ph:"X"` complete events for spans and
/// phases (timestamps/durations in microseconds), `ph:"i"` instants for
/// events, and `ph:"C"` counter samples for the final counter values.
/// Load the output in `about:tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n ");
    };

    for s in &snap.spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}}}}}",
            json_string(s.name),
            s.tid,
            us(s.start_ns),
            us(s.dur_ns),
            s.depth
        );
    }
    for p in &snap.phases {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
            json_string(p.name),
            p.tid,
            us(p.start_ns),
            us(p.dur_ns)
        );
        let mut first_arg = true;
        for c in Counter::ALL {
            let v = p.deltas[c.index()];
            if v != 0 {
                if !first_arg {
                    out.push(',');
                }
                first_arg = false;
                let _ = write!(out, "\"{}\":{}", c.name(), v);
            }
        }
        out.push_str("}}");
    }
    for e in &snap.events {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"args\":{{\"a\":{},\"b\":{}}}}}",
            json_string(e.name),
            e.tid,
            us(e.ts_ns),
            json_f64(e.a),
            json_f64(e.b)
        );
    }
    let end_ts = snap
        .spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .chain(snap.phases.iter().map(|p| p.start_ns + p.dur_ns))
        .chain(snap.events.iter().map(|e| e.ts_ns))
        .max()
        .unwrap_or(0);
    for c in Counter::ALL {
        let v = snap.counters[c.index()];
        if v != 0 {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
                c.name(),
                us(end_ts),
                v
            );
        }
    }
    out.push_str("\n]}");
    out
}

/// Renders a snapshot as a flat, line-oriented metrics dump: every
/// counter, then spans/phases/events aggregated by name. Stable ordering
/// (counters by index, names lexicographically) so dumps diff cleanly.
pub fn metrics_text(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("# omen-trace metrics\n");
    for c in Counter::ALL {
        let _ = writeln!(out, "counter {} {}", c.name(), snap.counters[c.index()]);
    }

    let mut spans: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for s in &snap.spans {
        let e = spans.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    for (name, (count, total)) in spans {
        let _ = writeln!(out, "span {name} count {count} total_ns {total}");
    }

    let mut phases: BTreeMap<&str, (usize, u64, [u64; NCOUNTERS])> = BTreeMap::new();
    for p in &snap.phases {
        let e = phases.entry(p.name).or_insert((0, 0, [0; NCOUNTERS]));
        e.0 += 1;
        e.1 += p.dur_ns;
        for i in 0..NCOUNTERS {
            e.2[i] += p.deltas[i];
        }
    }
    for (name, (count, total, deltas)) in phases {
        let _ = write!(out, "phase {name} count {count} total_ns {total}");
        for c in Counter::ALL {
            if deltas[c.index()] != 0 {
                let _ = write!(out, " {} {}", c.name(), deltas[c.index()]);
            }
        }
        out.push('\n');
    }

    let mut events: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &snap.events {
        *events.entry(e.name).or_insert(0) += 1;
    }
    for (name, count) in events {
        let _ = writeln!(out, "event {name} count {count}");
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral f64 without a dot; keep it valid JSON
        // either way (it already is) but normalize -0.
        if s == "-0" {
            "0".to_string()
        } else {
            s
        }
    } else {
        // JSON has no NaN/Inf; null keeps the document well-formed.
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `ph:"X"` duration event extracted by [`validate_chrome_trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanWindow {
    /// Event name.
    pub name: String,
    /// Thread id (`tid`), 0 when absent.
    pub tid: f64,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Summary a successful [`validate_chrome_trace`] returns.
#[derive(Clone, Debug, Default)]
pub struct ChromeTraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Occurrences of each `ph:"X"` (span/phase) name, sorted by name.
    pub span_names: Vec<(String, usize)>,
    /// Every duration event's time window, in document order.
    pub windows: Vec<SpanWindow>,
}

impl ChromeTraceStats {
    /// Occurrences of duration events named `name`.
    pub fn spans_named(&self, name: &str) -> usize {
        self.span_names
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// Maximum wall-clock overlap (µs) between any duration event named
    /// `a` and any named `b` on *different* threads — an overlapped
    /// sweep's concurrency, measured straight off the exported
    /// artifact.
    pub fn overlap_us(&self, a: &str, b: &str) -> f64 {
        let mut best: f64 = 0.0;
        for wa in self.windows.iter().filter(|w| w.name == a) {
            for wb in self.windows.iter().filter(|w| w.name == b) {
                if wa.tid == wb.tid {
                    continue;
                }
                let lo = wa.ts_us.max(wb.ts_us);
                let hi = (wa.ts_us + wa.dur_us).min(wb.ts_us + wb.dur_us);
                best = best.max(hi - lo);
            }
        }
        best
    }
}

/// Validates a chrome-trace document produced by [`chrome_trace_json`]
/// (or any conforming tool): the text must parse as JSON, carry a
/// `traceEvents` array, and every entry must be an object with a string
/// `name` and `ph`. Returns per-name counts of duration events so
/// callers can assert specific stages were traced.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = json::parse(text)?;
    let json::Value::Object(fields) = &doc else {
        return Err("top level is not an object".into());
    };
    let Some(events) = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        return Err("missing traceEvents".into());
    };
    let json::Value::Array(items) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut windows = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let json::Value::Object(fields) = item else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(json::Value::String(name)) = get("name") else {
            return Err(format!("traceEvents[{i}] has no string name"));
        };
        let Some(json::Value::String(ph)) = get("ph") else {
            return Err(format!("traceEvents[{i}] has no string ph"));
        };
        if ph == "X" {
            *counts.entry(name.clone()).or_insert(0) += 1;
            let num = |key: &str| match get(key) {
                Some(json::Value::Number(v)) => *v,
                _ => 0.0,
            };
            windows.push(SpanWindow {
                name: name.clone(),
                tid: num("tid"),
                ts_us: num("ts"),
                dur_us: num("dur"),
            });
        }
    }
    Ok(ChromeTraceStats {
        events: items.len(),
        span_names: counts.into_iter().collect(),
        windows,
    })
}

/// Minimal recursive-descent JSON parser — just enough to validate
/// exported traces without external dependencies. Not a general-purpose
/// implementation: numbers are parsed as `f64` and surrogate escapes are
/// accepted without pairing checks.
mod json {
    pub enum Value {
        Null,
        // The validator only inspects strings/arrays/objects, but the
        // parsed payloads keep the parser a faithful JSON reader.
        #[allow(dead_code)]
        Bool(bool),
        #[allow(dead_code)]
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", ch as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true").map(|_| Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false").map(|_| Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null").map(|_| Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            _ => Err(format!("unexpected byte at {}", *pos)),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = Vec::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid utf-8".to_string());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            if *pos + 4 >= b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                _ => {
                    out.push(b[*pos]);
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventRecord, PhaseRecord, SpanRecord};

    fn sample_snapshot() -> TraceSnapshot {
        let mut counters = [0u64; NCOUNTERS];
        counters[Counter::GemmFlops.index()] = 4096;
        counters[Counter::BornIterations.index()] = 6;
        let mut deltas = [0u64; NCOUNTERS];
        deltas[Counter::GemmFlops.index()] = 4096;
        TraceSnapshot {
            spans: vec![
                SpanRecord {
                    name: "gf_electrons",
                    tid: 1,
                    depth: 1,
                    start_ns: 1_000,
                    dur_ns: 5_000,
                },
                SpanRecord {
                    name: "born_iteration",
                    tid: 1,
                    depth: 0,
                    start_ns: 500,
                    dur_ns: 9_000,
                },
            ],
            events: vec![EventRecord {
                name: "convergence",
                tid: 1,
                ts_ns: 9_400,
                a: 1.0,
                b: 2.5e-7,
            }],
            phases: vec![PhaseRecord {
                name: "gf_phase",
                tid: 1,
                start_ns: 900,
                dur_ns: 6_000,
                deltas,
            }],
            counters,
        }
    }

    #[test]
    fn chrome_export_validates_and_counts_spans() {
        let text = chrome_trace_json(&sample_snapshot());
        let stats = validate_chrome_trace(&text).expect("exporter output must validate");
        // 2 spans + 1 phase + 1 instant + 2 non-zero counters.
        assert_eq!(stats.events, 6);
        assert_eq!(stats.spans_named("gf_electrons"), 1);
        assert_eq!(stats.spans_named("gf_phase"), 1);
        assert_eq!(stats.spans_named("born_iteration"), 1);
        assert_eq!(stats.spans_named("absent"), 0);
    }

    #[test]
    fn windows_and_overlap_come_from_the_artifact() {
        // Two phases on different threads overlapping for 3ms, plus a
        // same-thread pair that must not count.
        let text = r#"{"traceEvents":[
         {"name":"gf_phase","ph":"X","pid":1,"tid":2,"ts":0.0,"dur":5000.0},
         {"name":"sse_phase","ph":"X","pid":1,"tid":3,"ts":2000.0,"dur":4000.0},
         {"name":"sse_phase","ph":"X","pid":1,"tid":2,"ts":0.0,"dur":5000.0}
        ]}"#;
        let stats = validate_chrome_trace(text).expect("well-formed");
        assert_eq!(stats.windows.len(), 3);
        assert_eq!(stats.overlap_us("gf_phase", "sse_phase"), 3000.0);
        assert_eq!(stats.overlap_us("gf_phase", "absent"), 0.0);
    }

    #[test]
    fn chrome_export_of_empty_snapshot_validates() {
        let text = chrome_trace_json(&TraceSnapshot::default());
        let stats = validate_chrome_trace(&text).expect("empty trace is still well-formed");
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn metrics_text_lists_counters_and_aggregates() {
        let text = metrics_text(&sample_snapshot());
        assert!(text.contains("counter gemm_flops 4096"));
        assert!(text.contains("counter born_iterations 6"));
        assert!(text.contains("span gf_electrons count 1 total_ns 5000"));
        assert!(text.contains("phase gf_phase count 1 total_ns 6000 gemm_flops 4096"));
        assert!(text.contains("event convergence count 1"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("[1,2,3]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
        assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(3.0), "3");
    }
}
