//! The shippable text format for conditions snapshots.
//!
//! ALICE's constants-handling (report §3.2) uses *"text files that can
//! easily be shipped around with the data"*. This module defines that
//! format: one line per `(key, range, payload)` entry, parseable without
//! any library support — the property that makes it preservable.
//!
//! ```text
//! # daspos-conditions snapshot v1
//! digest 9c3f2a7b11e40d58
//! tag data-2013
//! scalar ecal/gain 1..100 1.02
//! vector tracker/alignment 1.. 0.1,0.2,0.3
//! text magnet/fieldmap 5..9 solenoid-3.8T
//! ```
//!
//! The optional `digest` line (second line, FNV-1a 64 of everything after
//! it) makes bit rot in a shipped file detectable: a flipped digit in a
//! constant would otherwise parse cleanly into silently wrong physics.
//! Writers always emit it; readers verify it when present and accept
//! digest-less snapshots from older archives.

use crate::error::ConditionsError;
use crate::iov::{IovKey, RunRange};
use crate::store::Payload;

/// Magic first line of every snapshot file.
pub const HEADER: &str = "# daspos-conditions snapshot v1";

/// Prefix of the optional integrity-digest line (line 2 of the file).
pub const DIGEST_PREFIX: &str = "digest ";

/// Render one entry line.
pub fn format_entry(key: &IovKey, range: RunRange, payload: &Payload) -> String {
    let range_s = if range.last == u32::MAX {
        format!("{}..", range.first)
    } else {
        format!("{}..{}", range.first, range.last)
    };
    match payload {
        Payload::Scalar(v) => format!("scalar {key} {range_s} {v}"),
        Payload::Vector(vs) => {
            let joined = vs
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            format!("vector {key} {range_s} {joined}")
        }
        Payload::Text(t) => format!("text {key} {range_s} {t}"),
    }
}

/// Parse one entry line (inverse of [`format_entry`]).
pub fn parse_entry(
    line: &str,
    line_no: usize,
) -> Result<(IovKey, RunRange, Payload), ConditionsError> {
    let err = |reason: &str| ConditionsError::ParseError {
        line: line_no,
        reason: reason.to_string(),
    };
    let mut parts = line.splitn(4, ' ');
    let kind = parts.next().ok_or_else(|| err("missing kind"))?;
    let key = parts.next().ok_or_else(|| err("missing key"))?;
    let range_s = parts.next().ok_or_else(|| err("missing range"))?;
    let value = parts.next().ok_or_else(|| err("missing value"))?;

    let (first_s, last_s) = range_s
        .split_once("..")
        .ok_or_else(|| err("range must be first..last"))?;
    let first: u32 = first_s.parse().map_err(|_| err("bad range start"))?;
    let last: u32 = if last_s.is_empty() {
        u32::MAX
    } else {
        last_s.parse().map_err(|_| err("bad range end"))?
    };
    let range = RunRange::new(first, last).map_err(|_| err("inverted range"))?;

    let payload = match kind {
        "scalar" => Payload::Scalar(value.parse().map_err(|_| err("bad scalar"))?),
        "vector" => {
            // An empty vector serializes to an empty value field.
            let vs = if value.is_empty() {
                Vec::new()
            } else {
                value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<f64>, _>>()
                    .map_err(|_| err("bad vector element"))?
            };
            Payload::Vector(vs)
        }
        "text" => Payload::Text(value.to_string()),
        other => return Err(err(&format!("unknown payload kind '{other}'"))),
    };
    Ok((IovKey::new(key), range, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let key = IovKey::new("ecal/gain");
        let range = RunRange::new(1, 100).unwrap();
        let p = Payload::Scalar(1.02);
        let line = format_entry(&key, range, &p);
        let (k2, r2, p2) = parse_entry(&line, 1).unwrap();
        assert_eq!(k2, key);
        assert_eq!(r2, range);
        assert_eq!(p2, p);
    }

    #[test]
    fn vector_round_trip() {
        let key = IovKey::new("tracker/alignment");
        let range = RunRange::from(7);
        let p = Payload::Vector(vec![0.125, -3.5, 1e-9]);
        let (k2, r2, p2) = parse_entry(&format_entry(&key, range, &p), 1).unwrap();
        assert_eq!((k2, r2, p2), (key, range, p));
    }

    #[test]
    fn text_payload_may_contain_spaces_in_last_field() {
        let key = IovKey::new("magnet/fieldmap");
        let p = Payload::Text("solenoid 3.8 T".to_string());
        let (_, _, p2) = parse_entry(&format_entry(&key, RunRange::single(5), &p), 1).unwrap();
        assert_eq!(p2, p);
    }

    #[test]
    fn open_range_round_trip() {
        let line = "scalar k 42.. 1.5";
        let (_, r, _) = parse_entry(line, 1).unwrap();
        assert_eq!(r.last, u32::MAX);
        assert_eq!(r.first, 42);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for bad in [
            "scalar onlykey",
            "scalar k 1..2 notanumber",
            "scalar k 9..3 1.0",
            "blob k 1..2 x",
            "vector k 1..2 1.0,x",
            "scalar k 1-2 1.0",
        ] {
            let err = parse_entry(bad, 7).unwrap_err();
            match err {
                ConditionsError::ParseError { line, .. } => assert_eq!(line, 7),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
