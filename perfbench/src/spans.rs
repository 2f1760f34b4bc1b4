//! Self time of trace spans: a span's duration minus the part of its
//! interval that its direct children cover. Children that overlap each
//! other (pool workers) are counted once; child time outside the parent
//! interval is ignored.

use std::collections::BTreeMap;

use daspos::obs::SpanRecord;

/// Self time in nanoseconds of every span, keyed by path. When several
/// records share a path their self times add up.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for parent in records {
        let start = parent.start_ns;
        let end = start + parent.duration_ns;
        let prefix = format!("{}/", parent.path);
        let mut children: Vec<(u64, u64)> = records
            .iter()
            .filter(|r| r.path.starts_with(&prefix) && !r.path[prefix.len()..].contains('/'))
            .map(|r| (r.start_ns.max(start), (r.start_ns + r.duration_ns).min(end)))
            .filter(|(s, e)| s < e)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = start;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *out.entry(parent.path.clone()).or_insert(0) += parent.duration_ns - covered;
    }
    out
}

/// Total duration of the spans whose path satisfies `pick`.
pub fn total(records: &[SpanRecord], pick: impl Fn(&str) -> bool) -> u64 {
    records
        .iter()
        .filter(|r| pick(&r.path))
        .map(|r| r.duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            path: path.to_string(),
            start_ns,
            duration_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn children_are_subtracted_once_and_grandchildren_not_at_all() {
        let records = vec![
            span("execute", 0, 100),
            span("execute/produce", 10, 40),
            span("execute/produce/chunk-00000", 12, 30),
            span("execute/skim", 60, 20),
        ];
        let st = self_times(&records);
        assert_eq!(st["execute"], 100 - 40 - 20);
        assert_eq!(st["execute/produce"], 40 - 30);
        assert_eq!(st["execute/produce/chunk-00000"], 30);
        assert_eq!(st["execute/skim"], 20);
        // Self times of a fully nested tree add up to the root.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let records = vec![
            span("serve", 100, 100),
            span("serve/a", 110, 50),
            span("serve/b", 140, 40),
            span("serve/c", 190, 30),
            span("serve-other", 0, 500),
        ];
        let st = self_times(&records);
        // a ∪ b = [110, 180), c clipped to [190, 200).
        assert_eq!(st["serve"], 100 - 70 - 10);
        assert_eq!(st["serve-other"], 500);
        assert_eq!(total(&records, |p| p.starts_with("serve/")), 120);
    }
}
