//! The simplified Level-2 event model and its format carriers.
//!
//! One in-memory model, three wire formats — reproducing the Table 1
//! situation where each experiment ships a different serialization of
//! essentially the same physics:
//!
//! * **ig-JSON** (CMS-like): JSON with a self-description block,
//! * **event-XML** (ATLAS Jive-like): XML-ish tags, self-documenting by
//!   element names,
//! * **compact** (ALICE/LHCb-like): terse positional text, *not*
//!   self-documenting — you need the experiment's codebook.

use daspos_hep::json::{parse, Value};

/// A simplified physics object for outreach use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleParticle {
    /// Object class: `"track"`, `"electron"`, `"muon"`, `"photon"`,
    /// `"jet"`, `"v0"` encoded as a code for compactness.
    pub kind: SimpleKind,
    /// Transverse momentum (GeV).
    pub pt: f64,
    /// Pseudorapidity.
    pub eta: f64,
    /// Azimuth.
    pub phi: f64,
    /// Charge (−1, 0, +1).
    pub charge: i8,
    /// Auxiliary quantity: mass for `v0`, energy for clusters, 0 else.
    pub aux: f64,
}

/// Simplified object classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimpleKind {
    /// A charged track.
    Track,
    /// An electron candidate.
    Electron,
    /// A muon candidate.
    Muon,
    /// A photon candidate.
    Photon,
    /// A jet.
    Jet,
    /// A displaced two-prong (V⁰/D⁰) candidate.
    V0,
}

impl SimpleKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            SimpleKind::Track => "track",
            SimpleKind::Electron => "electron",
            SimpleKind::Muon => "muon",
            SimpleKind::Photon => "photon",
            SimpleKind::Jet => "jet",
            SimpleKind::V0 => "v0",
        }
    }

    /// Inverse of [`SimpleKind::name`].
    pub fn parse(s: &str) -> Option<SimpleKind> {
        Some(match s {
            "track" => SimpleKind::Track,
            "electron" => SimpleKind::Electron,
            "muon" => SimpleKind::Muon,
            "photon" => SimpleKind::Photon,
            "jet" => SimpleKind::Jet,
            "v0" => SimpleKind::V0,
            _ => return None,
        })
    }

    /// All kinds.
    pub fn all() -> [SimpleKind; 6] {
        [
            SimpleKind::Track,
            SimpleKind::Electron,
            SimpleKind::Muon,
            SimpleKind::Photon,
            SimpleKind::Jet,
            SimpleKind::V0,
        ]
    }
}

/// The simplified event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimplifiedEvent {
    /// Run number.
    pub run: u32,
    /// Event number.
    pub event: u64,
    /// The experiment the event came from.
    pub experiment: String,
    /// The objects.
    pub objects: Vec<SimpleParticle>,
    /// Missing transverse energy.
    pub met: f64,
}

impl SimplifiedEvent {
    /// Objects of one kind.
    pub fn of_kind(&self, kind: SimpleKind) -> impl Iterator<Item = &SimpleParticle> {
        self.objects.iter().filter(move |o| o.kind == kind)
    }
}

/// The three outreach wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutreachFormat {
    /// CMS-like ig JSON — self-documenting.
    IgJson,
    /// ATLAS-like event XML — self-documenting.
    EventXml,
    /// ALICE/LHCb-like compact positional text — requires a codebook.
    Compact,
}

impl OutreachFormat {
    /// Whether the format can be understood without external
    /// documentation — the Table 1 "self-documenting?" row.
    pub fn self_documenting(&self) -> bool {
        matches!(self, OutreachFormat::IgJson | OutreachFormat::EventXml)
    }

    /// Display name matching Table 1's vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            OutreachFormat::IgJson => "ig",
            OutreachFormat::EventXml => "event-xml",
            OutreachFormat::Compact => "compact",
        }
    }

    /// Serialize a simplified event.
    pub fn write(&self, ev: &SimplifiedEvent) -> String {
        match self {
            OutreachFormat::IgJson => write_ig(ev),
            OutreachFormat::EventXml => write_xml(ev),
            OutreachFormat::Compact => write_compact(ev),
        }
    }

    /// Parse a simplified event.
    pub fn read(&self, text: &str) -> Result<SimplifiedEvent, String> {
        match self {
            OutreachFormat::IgJson => read_ig(text),
            OutreachFormat::EventXml => read_xml(text),
            OutreachFormat::Compact => read_compact(text),
        }
    }
}

// --- ig JSON -----------------------------------------------------------------

fn write_ig(ev: &SimplifiedEvent) -> String {
    let objects: Vec<Value> = ev
        .objects
        .iter()
        .map(|o| {
            Value::object(vec![
                ("kind", Value::String(o.kind.name().to_string())),
                ("pt", Value::Number(o.pt)),
                ("eta", Value::Number(o.eta)),
                ("phi", Value::Number(o.phi)),
                ("charge", Value::Number(f64::from(o.charge))),
                ("aux", Value::Number(o.aux)),
            ])
        })
        .collect();
    Value::object(vec![
        (
            "_description",
            Value::String(
                "ig event: objects carry kind/pt[GeV]/eta/phi/charge/aux; met in GeV".to_string(),
            ),
        ),
        ("run", Value::Number(f64::from(ev.run))),
        ("event", Value::Number(ev.event as f64)),
        ("experiment", Value::String(ev.experiment.clone())),
        ("met", Value::Number(ev.met)),
        ("objects", Value::Array(objects)),
    ])
    .to_json()
}

fn read_ig(text: &str) -> Result<SimplifiedEvent, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing number '{key}'"))
    };
    let mut ev = SimplifiedEvent {
        run: num("run")? as u32,
        event: num("event")? as u64,
        experiment: v
            .get("experiment")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        met: num("met")?,
        objects: Vec::new(),
    };
    for obj in v
        .get("objects")
        .and_then(Value::as_array)
        .ok_or("missing objects array")?
    {
        let kind = obj
            .get("kind")
            .and_then(Value::as_str)
            .and_then(SimpleKind::parse)
            .ok_or("bad object kind")?;
        let f = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing object field '{key}'"))
        };
        ev.objects.push(SimpleParticle {
            kind,
            pt: f("pt")?,
            eta: f("eta")?,
            phi: f("phi")?,
            charge: f("charge")? as i8,
            aux: f("aux")?,
        });
    }
    Ok(ev)
}

// --- event XML ---------------------------------------------------------------

fn write_xml(ev: &SimplifiedEvent) -> String {
    let mut out = format!(
        "<event run=\"{}\" number=\"{}\" experiment=\"{}\" met=\"{}\">\n",
        ev.run, ev.event, ev.experiment, ev.met
    );
    for o in &ev.objects {
        out.push_str(&format!(
            "  <{} pt=\"{}\" eta=\"{}\" phi=\"{}\" charge=\"{}\" aux=\"{}\"/>\n",
            o.kind.name(),
            o.pt,
            o.eta,
            o.phi,
            o.charge,
            o.aux
        ));
    }
    out.push_str("</event>\n");
    out
}

fn attr(tag: &str, name: &str) -> Result<String, String> {
    let pattern = format!("{name}=\"");
    let start = tag
        .find(&pattern)
        .ok_or_else(|| format!("missing attribute '{name}'"))?
        + pattern.len();
    let end = tag[start..]
        .find('"')
        .ok_or_else(|| format!("unterminated attribute '{name}'"))?;
    Ok(tag[start..start + end].to_string())
}

fn attr_f64(tag: &str, name: &str) -> Result<f64, String> {
    attr(tag, name)?
        .parse()
        .map_err(|_| format!("non-numeric attribute '{name}'"))
}

fn read_xml(text: &str) -> Result<SimplifiedEvent, String> {
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty xml")?;
    if !head.trim_start().starts_with("<event") {
        return Err("missing <event> root".to_string());
    }
    let mut ev = SimplifiedEvent {
        run: attr_f64(head, "run")? as u32,
        event: attr_f64(head, "number")? as u64,
        experiment: attr(head, "experiment")?,
        met: attr_f64(head, "met")?,
        objects: Vec::new(),
    };
    for line in lines {
        let line = line.trim();
        if line == "</event>" || line.is_empty() {
            continue;
        }
        let tag_name = line
            .strip_prefix('<')
            .and_then(|s| s.split([' ', '/']).next())
            .ok_or("malformed element")?;
        let kind = SimpleKind::parse(tag_name).ok_or_else(|| format!("unknown element '{tag_name}'"))?;
        ev.objects.push(SimpleParticle {
            kind,
            pt: attr_f64(line, "pt")?,
            eta: attr_f64(line, "eta")?,
            phi: attr_f64(line, "phi")?,
            charge: attr_f64(line, "charge")? as i8,
            aux: attr_f64(line, "aux")?,
        });
    }
    Ok(ev)
}

// --- compact -----------------------------------------------------------------

fn write_compact(ev: &SimplifiedEvent) -> String {
    // Positional: header line, then one line per object with a numeric
    // kind code. Unreadable without the codebook — deliberately.
    let mut out = format!("E {} {} {} {}\n", ev.run, ev.event, ev.experiment, ev.met);
    for o in &ev.objects {
        let code = SimpleKind::all()
            .iter()
            .position(|k| *k == o.kind)
            .expect("kind in table");
        out.push_str(&format!(
            "O {code} {} {} {} {} {}\n",
            o.pt, o.eta, o.phi, o.charge, o.aux
        ));
    }
    out
}

fn read_compact(text: &str) -> Result<SimplifiedEvent, String> {
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty compact event")?;
    let parts: Vec<&str> = head.split(' ').collect();
    if parts.len() != 5 || parts[0] != "E" {
        return Err("malformed header".to_string());
    }
    let mut ev = SimplifiedEvent {
        run: parts[1].parse().map_err(|_| "bad run")?,
        event: parts[2].parse().map_err(|_| "bad event")?,
        experiment: parts[3].to_string(),
        met: parts[4].parse().map_err(|_| "bad met")?,
        objects: Vec::new(),
    };
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(' ').collect();
        if parts.len() != 7 || parts[0] != "O" {
            return Err(format!("malformed object line '{line}'"));
        }
        let code: usize = parts[1].parse().map_err(|_| "bad kind code")?;
        let kind = *SimpleKind::all()
            .get(code)
            .ok_or_else(|| format!("unknown kind code {code}"))?;
        ev.objects.push(SimpleParticle {
            kind,
            pt: parts[2].parse().map_err(|_| "bad pt")?,
            eta: parts[3].parse().map_err(|_| "bad eta")?,
            phi: parts[4].parse().map_err(|_| "bad phi")?,
            charge: parts[5].parse().map_err(|_| "bad charge")?,
            aux: parts[6].parse().map_err(|_| "bad aux")?,
        });
    }
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimplifiedEvent {
        SimplifiedEvent {
            run: 7,
            event: 12345,
            experiment: "cms".to_string(),
            met: 23.5,
            objects: vec![
                SimpleParticle {
                    kind: SimpleKind::Muon,
                    pt: 44.25,
                    eta: -1.5,
                    phi: 2.0,
                    charge: 1,
                    aux: 0.0,
                },
                SimpleParticle {
                    kind: SimpleKind::Jet,
                    pt: 120.0,
                    eta: 0.5,
                    phi: -0.75,
                    charge: 0,
                    aux: 130.0,
                },
                SimpleParticle {
                    kind: SimpleKind::V0,
                    pt: 2.5,
                    eta: 0.1,
                    phi: 1.0,
                    charge: 0,
                    aux: 0.4976,
                },
            ],
        }
    }

    #[test]
    fn all_formats_round_trip() {
        let ev = sample();
        for fmt in [
            OutreachFormat::IgJson,
            OutreachFormat::EventXml,
            OutreachFormat::Compact,
        ] {
            let text = fmt.write(&ev);
            let back = fmt
                .read(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", fmt.name()));
            assert_eq!(back, ev, "round trip via {}", fmt.name());
        }
    }

    #[test]
    fn self_documentation_flags_match_table1() {
        assert!(OutreachFormat::IgJson.self_documenting());
        assert!(OutreachFormat::EventXml.self_documenting());
        assert!(!OutreachFormat::Compact.self_documenting());
    }

    #[test]
    fn ig_contains_description_block() {
        let text = OutreachFormat::IgJson.write(&sample());
        assert!(text.contains("_description"));
        assert!(text.contains("GeV"));
    }

    #[test]
    fn formats_reject_each_other() {
        let ev = sample();
        let ig = OutreachFormat::IgJson.write(&ev);
        assert!(OutreachFormat::EventXml.read(&ig).is_err());
        assert!(OutreachFormat::Compact.read(&ig).is_err());
        let xml = OutreachFormat::EventXml.write(&ev);
        assert!(OutreachFormat::IgJson.read(&xml).is_err());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(OutreachFormat::IgJson.read("{}").is_err());
        assert!(OutreachFormat::EventXml.read("<wrong/>").is_err());
        assert!(OutreachFormat::Compact.read("E 1 2\n").is_err());
        assert!(OutreachFormat::Compact.read("E 1 2 cms 0\nO 99 1 1 1 1 1\n").is_err());
    }

    #[test]
    fn of_kind_filters() {
        let ev = sample();
        assert_eq!(ev.of_kind(SimpleKind::Muon).count(), 1);
        assert_eq!(ev.of_kind(SimpleKind::Electron).count(), 0);
    }

    #[test]
    fn compact_is_smallest_ig_is_largest() {
        let ev = sample();
        let compact = OutreachFormat::Compact.write(&ev).len();
        let xml = OutreachFormat::EventXml.write(&ev).len();
        let ig = OutreachFormat::IgJson.write(&ev).len();
        assert!(compact < xml, "compact {compact} vs xml {xml}");
        assert!(xml < ig || compact < ig, "self-documentation costs bytes");
    }
}
