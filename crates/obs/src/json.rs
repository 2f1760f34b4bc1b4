//! Canonical JSONL rendering and reading for trace files.
//!
//! One JSON object per line. Three line types:
//!
//! ```text
//! {"type":"span","path":"execute/skim","start_ns":12,"dur_ns":34,"fields":{"events_in":"200"}}
//! {"type":"counter","name":"events.generated","value":200}
//! {"type":"gauge","name":"exec.threads","value":1}
//! ```
//!
//! The **stable** render (`stable = true`) strips `start_ns`/`dur_ns` and
//! omits gauge lines entirely, leaving only data that is byte-identical
//! for a fixed seed — that file diffs cleanly between preservation
//! re-runs. Spans are always emitted stable-sorted by path, counters and
//! gauges sorted by name.
//!
//! Parsing goes through the workspace's one JSON engine,
//! [`daspos_hep::json`]; so does string escaping, so the renderer and
//! the reader cannot drift apart.

use crate::metrics::MetricsSnapshot;
use crate::SpanRecord;
use daspos_hep::json::{self, write_string, Value};
use std::fmt::Write as FmtWrite;

/// Render one span as a JSON line (no trailing newline).
pub(crate) fn span_line(record: &SpanRecord, stable: bool) -> String {
    let mut line = String::with_capacity(64 + record.path.len());
    line.push_str("{\"type\":\"span\",\"path\":");
    write_string(&mut line, &record.path);
    if !stable {
        let _ = write!(
            line,
            ",\"start_ns\":{},\"dur_ns\":{}",
            record.start_ns, record.duration_ns
        );
    }
    line.push_str(",\"fields\":{");
    for (i, (k, v)) in record.fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_string(&mut line, k);
        line.push(':');
        write_string(&mut line, v);
    }
    line.push_str("}}");
    line
}

fn metric_line(kind: &str, name: &str, value: i128) -> String {
    let mut line = String::with_capacity(48 + name.len());
    let _ = write!(line, "{{\"type\":\"{kind}\",\"name\":");
    write_string(&mut line, name);
    let _ = write!(line, ",\"value\":{value}}}");
    line
}

/// Render a full trace as JSONL: spans stable-sorted by path, then
/// counters, then (unless `stable`) gauges. With `stable = true` the
/// output is byte-identical for a fixed seed regardless of thread count.
pub fn render_trace(
    records: &[SpanRecord],
    metrics: Option<&MetricsSnapshot>,
    stable: bool,
) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    let mut out = String::new();
    for record in sorted {
        out.push_str(&span_line(record, stable));
        out.push('\n');
    }
    if let Some(snapshot) = metrics {
        for (name, value) in &snapshot.counters {
            out.push_str(&metric_line("counter", name, *value as i128));
            out.push('\n');
        }
        if !stable {
            for (name, value) in &snapshot.gauges {
                out.push_str(&metric_line("gauge", name, *value as i128));
                out.push('\n');
            }
        }
    }
    out
}

/// Parse a JSONL document: one JSON value per non-empty line. Returns the
/// parsed values or the first error with its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| json::parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(path: &str, fields: &[(&str, &str)]) -> SpanRecord {
        SpanRecord {
            path: path.to_string(),
            start_ns: 10,
            duration_ns: 20,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn render_round_trips_through_parser() {
        let records = vec![
            record("execute/skim", &[("events_in", "200"), ("events_out", "48")]),
            record("execute", &[("seed", "42")]),
        ];
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("events.generated".into(), 200);
        snapshot.gauges.insert("exec.threads".into(), 4);

        let full = render_trace(&records, Some(&snapshot), false);
        let values = parse_jsonl(&full).expect("parses");
        assert_eq!(values.len(), 4); // 2 spans + 1 counter + 1 gauge
        // Spans sorted by path: "execute" first.
        assert_eq!(
            values[0].get("path").and_then(Value::as_str),
            Some("execute")
        );
        assert_eq!(
            values[0]
                .get("fields")
                .and_then(|f| f.get("seed"))
                .and_then(Value::as_str),
            Some("42")
        );
        assert!(values[0].get("start_ns").is_some());
        assert_eq!(values[3].get("type").and_then(Value::as_str), Some("gauge"));
    }

    #[test]
    fn stable_render_strips_volatile_data() {
        let records = vec![record("execute", &[("seed", "42")])];
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("events.generated".into(), 200);
        snapshot.gauges.insert("exec.threads".into(), 4);

        let stable = render_trace(&records, Some(&snapshot), true);
        assert!(!stable.contains("start_ns"));
        assert!(!stable.contains("dur_ns"));
        assert!(!stable.contains("gauge"));
        assert!(stable.contains("\"counter\""));
        parse_jsonl(&stable).expect("stable output parses");
    }

    #[test]
    fn stable_render_is_order_independent() {
        let a = vec![record("a", &[]), record("b", &[])];
        let b = vec![record("b", &[]), record("a", &[])];
        assert_eq!(render_trace(&a, None, true), render_trace(&b, None, true));
    }

    #[test]
    fn escapes_round_trip() {
        let records = vec![record("weird\"\\\npath", &[("k\t", "v\u{1}")])];
        let text = render_trace(&records, None, true);
        let values = parse_jsonl(&text).expect("parses");
        assert_eq!(
            values[0].get("path").and_then(Value::as_str),
            Some("weird\"\\\npath")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_jsonl("{\"a\":}").is_err());
        assert!(parse_jsonl("{\"a\":1} extra").is_err());
        assert!(parse_jsonl("not json").is_err());
    }
}
