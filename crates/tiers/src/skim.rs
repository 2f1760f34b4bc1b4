//! Declarative skimming and slimming.
//!
//! §3.2 of the report: *"both the dropping of events (known as 'skimming')
//! and the reduction of the event content (known as 'slimming') result in
//! a reduction of the final data size"*, and *"each processing step
//! between the final centrally-processed format and some reduced format
//! can be reduced to a logical skimming/slimming description"*.
//!
//! [`Selection`] is that logical description: a small boolean expression
//! language over AOD quantities with a canonical text form, so a preserved
//! workflow stores the *description* and any future system re-executes it.
//! The alternative — skims as opaque code — is the un-preservable case the
//! P1 ablation quantifies.

use bytes::Bytes;
use daspos_hep::par;
use daspos_reco::objects::AodEvent;
use std::fmt;

use crate::codec::{CodecError, EventReader, EventWriter};

/// A boolean selection over an AOD event.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Always true (the identity skim).
    All,
    /// At least `n` charged leptons (e + μ) with pT ≥ `pt`.
    NLeptons {
        /// Minimum lepton count.
        n: u32,
        /// Minimum lepton pT (GeV).
        pt: f64,
    },
    /// At least `n` photons with pT ≥ `pt`.
    NPhotons {
        /// Minimum photon count.
        n: u32,
        /// Minimum photon pT (GeV).
        pt: f64,
    },
    /// At least `n` jets with pT ≥ `pt`.
    NJets {
        /// Minimum jet count.
        n: u32,
        /// Minimum jet pT (GeV).
        pt: f64,
    },
    /// Missing transverse energy of at least `min` GeV.
    MetAbove(f64),
    /// At least one two-prong candidate with `mass` within ±`window` of
    /// the chosen hypothesis (`"pipi"`, `"ppi"` or `"kpi"`).
    CandidateMass {
        /// Which mass hypothesis to test.
        hypothesis: MassHypothesis,
        /// Window centre (GeV).
        mass: f64,
        /// Window half-width (GeV).
        window: f64,
    },
    /// Charged track multiplicity of at least `n`.
    NTracksAtLeast(u32),
    /// Both sub-selections hold.
    And(Box<Selection>, Box<Selection>),
    /// Either sub-selection holds.
    Or(Box<Selection>, Box<Selection>),
    /// The sub-selection fails.
    Not(Box<Selection>),
}

/// Mass hypothesis for candidate selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MassHypothesis {
    /// (π⁺, π⁻) — K⁰s.
    PiPi,
    /// (p, π) — Λ.
    PPi,
    /// (K, π) — D⁰.
    KPi,
}

impl MassHypothesis {
    fn name(&self) -> &'static str {
        match self {
            MassHypothesis::PiPi => "pipi",
            MassHypothesis::PPi => "ppi",
            MassHypothesis::KPi => "kpi",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pipi" => MassHypothesis::PiPi,
            "ppi" => MassHypothesis::PPi,
            "kpi" => MassHypothesis::KPi,
            _ => return None,
        })
    }
}

impl Selection {
    /// Evaluate the selection on one event.
    pub fn passes(&self, ev: &AodEvent) -> bool {
        match self {
            Selection::All => true,
            Selection::NLeptons { n, pt } => {
                let count = ev
                    .electrons
                    .iter()
                    .map(|e| e.momentum.pt())
                    .chain(ev.muons.iter().map(|m| m.momentum.pt()))
                    .filter(|p| *p >= *pt)
                    .count() as u32;
                count >= *n
            }
            Selection::NPhotons { n, pt } => {
                ev.photons
                    .iter()
                    .filter(|p| p.momentum.pt() >= *pt)
                    .count() as u32
                    >= *n
            }
            Selection::NJets { n, pt } => {
                ev.jets.iter().filter(|j| j.momentum.pt() >= *pt).count() as u32 >= *n
            }
            Selection::MetAbove(min) => ev.met.value() >= *min,
            Selection::CandidateMass {
                hypothesis,
                mass,
                window,
            } => ev.candidates.iter().any(|c| {
                let m = match hypothesis {
                    MassHypothesis::PiPi => c.mass_pipi,
                    MassHypothesis::PPi => c.mass_ppi,
                    MassHypothesis::KPi => c.mass_kpi,
                };
                (m - mass).abs() <= *window
            }),
            Selection::NTracksAtLeast(n) => ev.n_tracks >= *n,
            Selection::And(a, b) => a.passes(ev) && b.passes(ev),
            Selection::Or(a, b) => a.passes(ev) || b.passes(ev),
            Selection::Not(a) => !a.passes(ev),
        }
    }

    /// Convenience conjunction.
    pub fn and(self, other: Selection) -> Selection {
        Selection::And(Box::new(self), Box::new(other))
    }

    /// Convenience disjunction.
    pub fn or(self, other: Selection) -> Selection {
        Selection::Or(Box::new(self), Box::new(other))
    }

    /// Convenience negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Selection {
        Selection::Not(Box::new(self))
    }

    /// Canonical text form — the *preserved* representation.
    pub fn to_text(&self) -> String {
        match self {
            Selection::All => "(all)".to_string(),
            Selection::NLeptons { n, pt } => format!("(nleptons {n} {pt})"),
            Selection::NPhotons { n, pt } => format!("(nphotons {n} {pt})"),
            Selection::NJets { n, pt } => format!("(njets {n} {pt})"),
            Selection::MetAbove(min) => format!("(met>= {min})"),
            Selection::CandidateMass {
                hypothesis,
                mass,
                window,
            } => format!("(candmass {} {mass} {window})", hypothesis.name()),
            Selection::NTracksAtLeast(n) => format!("(ntracks>= {n})"),
            Selection::And(a, b) => format!("(and {} {})", a.to_text(), b.to_text()),
            Selection::Or(a, b) => format!("(or {} {})", a.to_text(), b.to_text()),
            Selection::Not(a) => format!("(not {})", a.to_text()),
        }
    }

    /// Parse the canonical text form.
    pub fn parse(text: &str) -> Result<Selection, String> {
        let tokens = tokenize(text)?;
        let mut pos = 0;
        let sel = parse_expr(&tokens, &mut pos)?;
        if pos != tokens.len() {
            return Err(format!("trailing tokens after expression at {pos}"));
        }
        Ok(sel)
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn tokenize(text: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    if tokens.is_empty() {
        return Err("empty selection text".to_string());
    }
    Ok(tokens)
}

fn expect(tokens: &[String], pos: &mut usize, what: &str) -> Result<String, String> {
    let t = tokens
        .get(*pos)
        .ok_or_else(|| format!("unexpected end of input, wanted {what}"))?;
    *pos += 1;
    Ok(t.clone())
}

fn parse_f64(tokens: &[String], pos: &mut usize) -> Result<f64, String> {
    let t = expect(tokens, pos, "number")?;
    t.parse().map_err(|_| format!("'{t}' is not a number"))
}

fn parse_u32(tokens: &[String], pos: &mut usize) -> Result<u32, String> {
    let t = expect(tokens, pos, "count")?;
    t.parse().map_err(|_| format!("'{t}' is not a count"))
}

fn parse_expr(tokens: &[String], pos: &mut usize) -> Result<Selection, String> {
    let open = expect(tokens, pos, "'('")?;
    if open != "(" {
        return Err(format!("expected '(' found '{open}'"));
    }
    let op = expect(tokens, pos, "operator")?;
    let sel = match op.as_str() {
        "all" => Selection::All,
        "nleptons" => Selection::NLeptons {
            n: parse_u32(tokens, pos)?,
            pt: parse_f64(tokens, pos)?,
        },
        "nphotons" => Selection::NPhotons {
            n: parse_u32(tokens, pos)?,
            pt: parse_f64(tokens, pos)?,
        },
        "njets" => Selection::NJets {
            n: parse_u32(tokens, pos)?,
            pt: parse_f64(tokens, pos)?,
        },
        "met>=" => Selection::MetAbove(parse_f64(tokens, pos)?),
        "ntracks>=" => Selection::NTracksAtLeast(parse_u32(tokens, pos)?),
        "candmass" => {
            let hyp = expect(tokens, pos, "hypothesis")?;
            let hypothesis = MassHypothesis::parse(&hyp)
                .ok_or_else(|| format!("unknown mass hypothesis '{hyp}'"))?;
            Selection::CandidateMass {
                hypothesis,
                mass: parse_f64(tokens, pos)?,
                window: parse_f64(tokens, pos)?,
            }
        }
        "and" => {
            let a = parse_expr(tokens, pos)?;
            let b = parse_expr(tokens, pos)?;
            a.and(b)
        }
        "or" => {
            let a = parse_expr(tokens, pos)?;
            let b = parse_expr(tokens, pos)?;
            a.or(b)
        }
        "not" => parse_expr(tokens, pos)?.not(),
        other => return Err(format!("unknown operator '{other}'")),
    };
    let close = expect(tokens, pos, "')'")?;
    if close != ")" {
        return Err(format!("expected ')' found '{close}'"));
    }
    Ok(sel)
}

/// Content reduction: which AOD collections a slim keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlimSpec {
    /// Keep electron candidates.
    pub keep_electrons: bool,
    /// Keep muon candidates.
    pub keep_muons: bool,
    /// Keep photon candidates.
    pub keep_photons: bool,
    /// Keep at most this many leading jets (`u32::MAX` = all, 0 = none).
    pub max_jets: u32,
    /// Keep two-prong candidates.
    pub keep_candidates: bool,
}

impl SlimSpec {
    /// Keep everything (identity slim).
    pub fn keep_all() -> Self {
        SlimSpec {
            keep_electrons: true,
            keep_muons: true,
            keep_photons: true,
            max_jets: u32::MAX,
            keep_candidates: true,
        }
    }

    /// A lepton-analysis slim: leptons + MET, a couple of jets, nothing
    /// else.
    pub fn leptons_only() -> Self {
        SlimSpec {
            keep_electrons: true,
            keep_muons: true,
            keep_photons: false,
            max_jets: 2,
            keep_candidates: false,
        }
    }

    /// A candidate-analysis slim (V⁰/D⁰ physics).
    pub fn candidates_only() -> Self {
        SlimSpec {
            keep_electrons: false,
            keep_muons: false,
            keep_photons: false,
            max_jets: 0,
            keep_candidates: true,
        }
    }

    /// Apply the slim to an event (non-destructive).
    pub fn apply(&self, ev: &AodEvent) -> AodEvent {
        let mut out = ev.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// Apply the slim directly to an event. Slimming only drops content,
    /// so this never allocates — the single-pass skim uses it on the
    /// decoder's scratch event.
    pub fn apply_in_place(&self, ev: &mut AodEvent) {
        if !self.keep_electrons {
            ev.electrons.clear();
        }
        if !self.keep_muons {
            ev.muons.clear();
        }
        if !self.keep_photons {
            ev.photons.clear();
        }
        if (ev.jets.len() as u32) > self.max_jets {
            ev.jets.truncate(self.max_jets as usize);
        }
        if !self.keep_candidates {
            ev.candidates.clear();
        }
    }

    /// Canonical text form `keep:e,mu;jets:2`.
    pub fn to_text(&self) -> String {
        let mut kept = Vec::new();
        if self.keep_electrons {
            kept.push("e");
        }
        if self.keep_muons {
            kept.push("mu");
        }
        if self.keep_photons {
            kept.push("gamma");
        }
        if self.keep_candidates {
            kept.push("cand");
        }
        format!("keep:{};jets:{}", kept.join(","), self.max_jets)
    }

    /// Parse the canonical text form.
    pub fn parse(text: &str) -> Result<SlimSpec, String> {
        let (keep_part, jets_part) = text
            .split_once(';')
            .ok_or_else(|| format!("missing ';' in slim spec '{text}'"))?;
        let keep = keep_part
            .strip_prefix("keep:")
            .ok_or_else(|| "missing 'keep:' prefix".to_string())?;
        let jets = jets_part
            .strip_prefix("jets:")
            .ok_or_else(|| "missing 'jets:' prefix".to_string())?;
        let mut spec = SlimSpec {
            keep_electrons: false,
            keep_muons: false,
            keep_photons: false,
            max_jets: jets
                .parse()
                .map_err(|_| format!("bad jet count '{jets}'"))?,
            keep_candidates: false,
        };
        for item in keep.split(',').filter(|s| !s.is_empty()) {
            match item {
                "e" => spec.keep_electrons = true,
                "mu" => spec.keep_muons = true,
                "gamma" => spec.keep_photons = true,
                "cand" => spec.keep_candidates = true,
                other => return Err(format!("unknown collection '{other}'")),
            }
        }
        Ok(spec)
    }
}

/// Outcome of a skim/slim pass over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SkimReport {
    /// Events read.
    pub events_in: u64,
    /// Events kept.
    pub events_out: u64,
    /// Bytes before.
    pub bytes_in: u64,
    /// Bytes after.
    pub bytes_out: u64,
}

impl SkimReport {
    /// Fraction of events kept.
    pub fn event_efficiency(&self) -> f64 {
        if self.events_in == 0 {
            0.0
        } else {
            self.events_out as f64 / self.events_in as f64
        }
    }

    /// Size reduction factor (input/output).
    pub fn reduction_factor(&self) -> f64 {
        if self.bytes_out == 0 {
            f64::INFINITY
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }
}

/// Run a skim+slim over in-memory events, producing the surviving slimmed
/// events and a report.
pub fn skim_slim(
    events: &[AodEvent],
    selection: &Selection,
    slim: &SlimSpec,
) -> (Vec<AodEvent>, SkimReport) {
    let bytes_in: u64 = events.iter().map(|e| e.byte_size() as u64).sum();
    let out: Vec<AodEvent> = events
        .iter()
        .filter(|e| selection.passes(e))
        .map(|e| slim.apply(e))
        .collect();
    let bytes_out: u64 = out.iter().map(|e| e.byte_size() as u64).sum();
    let report = SkimReport {
        events_in: events.len() as u64,
        events_out: out.len() as u64,
        bytes_in,
        bytes_out,
    };
    (out, report)
}

/// Chunked variant of [`skim_slim`]: contiguous event chunks are skimmed
/// on up to `threads` worker threads and merged in event order. Selection
/// and slimming are per-event pure functions and the report fields are
/// plain sums, so the surviving events and the report are identical to
/// the sequential pass.
pub fn skim_slim_chunked(
    events: &[AodEvent],
    selection: &Selection,
    slim: &SlimSpec,
    threads: usize,
) -> (Vec<AodEvent>, SkimReport) {
    // Below this size thread spawn overhead dominates; stay sequential.
    const MIN_PARALLEL_EVENTS: usize = 64;
    if threads <= 1 || events.len() < MIN_PARALLEL_EVENTS {
        return skim_slim(events, selection, slim);
    }
    let chunk_len = events.len().div_ceil(threads);
    let parts = par::map_chunks(events.len(), chunk_len, threads, |_, range| {
        skim_slim(&events[range], selection, slim)
    });
    let mut out = Vec::with_capacity(parts.iter().map(|(v, _)| v.len()).sum());
    let mut report = SkimReport {
        events_in: 0,
        events_out: 0,
        bytes_in: 0,
        bytes_out: 0,
    };
    for (events_part, part_report) in parts {
        out.extend(events_part);
        report.events_in += part_report.events_in;
        report.events_out += part_report.events_out;
        report.bytes_in += part_report.bytes_in;
        report.bytes_out += part_report.bytes_out;
    }
    (out, report)
}

/// Single-pass streaming skim+slim straight off a DPEF AOD file: events
/// are decoded one at a time into a reused scratch buffer
/// ([`EventReader`]), filtered, slimmed **in place**, and re-framed
/// through a reused payload buffer ([`EventWriter`]) — the intermediate
/// `Vec<AodEvent>` of the batch path never exists and the hot loop
/// performs no per-event allocation after warm-up.
///
/// The output file and report are byte-for-byte and field-for-field
/// identical to decoding the file, running [`skim_slim`], and encoding
/// the survivors. Decode errors surface exactly as
/// [`Encodable::decode_events`] reports them.
pub fn skim_slim_streaming(
    aod_file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
) -> Result<(Bytes, SkimReport), CodecError> {
    skim_slim_streaming_with(aod_file, selection, slim, |_| {})
}

/// [`skim_slim_streaming`] with a per-survivor callback, invoked on each
/// slimmed event before it is framed — the workflow uses it to fill the
/// analysis ntuple in the same pass.
pub fn skim_slim_streaming_with(
    aod_file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    on_survivor: impl FnMut(&AodEvent),
) -> Result<(Bytes, SkimReport), CodecError> {
    skim_slim_streaming_observed(aod_file, selection, slim, None, on_survivor)
}

/// [`skim_slim_streaming_with`] with optional codec metering: when a
/// registry is supplied, the underlying [`EventReader`]/[`EventWriter`]
/// record their frame traffic into the `codec.*` gauges. The skim result
/// is byte-identical either way.
pub fn skim_slim_streaming_observed(
    aod_file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&daspos_obs::MetricsRegistry>,
    mut on_survivor: impl FnMut(&AodEvent),
) -> Result<(Bytes, SkimReport), CodecError> {
    let mut reader = EventReader::<AodEvent>::new(aod_file)?;
    // Slimming only drops bytes, so the input size bounds the output.
    let mut writer = EventWriter::<AodEvent>::with_capacity(aod_file.len());
    if let Some(registry) = registry {
        reader = reader.with_metrics(registry);
        writer = writer.with_metrics(registry);
    }
    let mut report = SkimReport {
        events_in: 0,
        events_out: 0,
        bytes_in: 0,
        bytes_out: 0,
    };
    while let Some(ev) = reader.next_mut()? {
        report.events_in += 1;
        report.bytes_in += ev.byte_size() as u64;
        if selection.passes(ev) {
            slim.apply_in_place(ev);
            report.events_out += 1;
            report.bytes_out += ev.byte_size() as u64;
            on_survivor(ev);
            writer.push(ev);
        }
    }
    Ok((writer.finish(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encodable;
    use daspos_hep::{EventHeader, FourVector};
    use daspos_reco::objects::{Jet, Met, Muon, TwoProngCandidate};

    fn event_with(n_mu: usize, met: f64, n_jets: usize) -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(1, 1, 1));
        for i in 0..n_mu {
            ev.muons.push(Muon {
                momentum: FourVector::from_pt_eta_phi_m(30.0 - i as f64, 0.0, 0.0, 0.1),
                charge: 1,
                n_stations: 3,
                isolation: 0.0,
            });
        }
        for _ in 0..n_jets {
            ev.jets.push(Jet {
                momentum: FourVector::from_pt_eta_phi_m(50.0, 0.0, 1.0, 5.0),
                n_constituents: 3,
                em_fraction: 0.3,
            });
        }
        ev.met = Met { mex: met, mey: 0.0 };
        ev.n_tracks = 10;
        ev
    }

    #[test]
    fn basic_predicates() {
        let ev = event_with(2, 40.0, 1);
        assert!(Selection::All.passes(&ev));
        assert!(Selection::NLeptons { n: 2, pt: 20.0 }.passes(&ev));
        assert!(!Selection::NLeptons { n: 3, pt: 20.0 }.passes(&ev));
        assert!(Selection::MetAbove(30.0).passes(&ev));
        assert!(!Selection::MetAbove(50.0).passes(&ev));
        assert!(Selection::NJets { n: 1, pt: 40.0 }.passes(&ev));
        assert!(Selection::NTracksAtLeast(10).passes(&ev));
        assert!(!Selection::NTracksAtLeast(11).passes(&ev));
    }

    #[test]
    fn boolean_combinators() {
        let ev = event_with(1, 40.0, 0);
        let sel = Selection::NLeptons { n: 1, pt: 5.0 }
            .and(Selection::MetAbove(25.0));
        assert!(sel.passes(&ev));
        let sel2 = Selection::NJets { n: 2, pt: 20.0 }.or(Selection::MetAbove(25.0));
        assert!(sel2.passes(&ev));
        assert!(!Selection::MetAbove(25.0).not().passes(&ev));
    }

    #[test]
    fn candidate_mass_window() {
        let mut ev = event_with(0, 0.0, 0);
        ev.candidates.push(TwoProngCandidate {
            vertex: FourVector::ZERO,
            flight_xy: 5.0,
            pt: 2.0,
            eta: 0.0,
            mass_pipi: 0.497,
            mass_ppi: 1.2,
            mass_kpi: 1.6,
            proper_time_d0_ns: 1e-4,
            track_indices: (0, 1),
        });
        let k0s = Selection::CandidateMass {
            hypothesis: MassHypothesis::PiPi,
            mass: 0.4976,
            window: 0.02,
        };
        assert!(k0s.passes(&ev));
        let d0 = Selection::CandidateMass {
            hypothesis: MassHypothesis::KPi,
            mass: 1.865,
            window: 0.05,
        };
        assert!(!d0.passes(&ev));
    }

    #[test]
    fn text_round_trip_for_representative_selections() {
        let selections = vec![
            Selection::All,
            Selection::NLeptons { n: 2, pt: 20.0 },
            Selection::MetAbove(25.0),
            Selection::NJets { n: 4, pt: 30.0 }
                .and(Selection::MetAbove(50.0))
                .or(Selection::NPhotons { n: 2, pt: 20.0 }.not()),
            Selection::CandidateMass {
                hypothesis: MassHypothesis::KPi,
                mass: 1.865,
                window: 0.05,
            },
            Selection::NTracksAtLeast(5),
        ];
        for sel in selections {
            let text = sel.to_text();
            let back = Selection::parse(&text)
                .unwrap_or_else(|e| panic!("parse of '{text}' failed: {e}"));
            assert_eq!(back, sel, "round trip of {text}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "met>= 25",
            "(met>=)",
            "(met>= abc)",
            "(unknown 1)",
            "(and (all))",
            "(all) extra",
            "(nleptons 2 20.0", // unclosed
            "(candmass bogus 1.0 0.1)",
        ] {
            assert!(Selection::parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn slim_reduces_content() {
        let ev = event_with(2, 10.0, 5);
        let slim = SlimSpec::leptons_only();
        let out = slim.apply(&ev);
        assert_eq!(out.muons.len(), 2);
        assert_eq!(out.jets.len(), 2);
        assert!(out.photons.is_empty());
        assert!(out.byte_size() < ev.byte_size());
    }

    #[test]
    fn slim_text_round_trip() {
        for spec in [
            SlimSpec::keep_all(),
            SlimSpec::leptons_only(),
            SlimSpec::candidates_only(),
        ] {
            let text = spec.to_text();
            assert_eq!(SlimSpec::parse(&text).unwrap(), spec, "round trip {text}");
        }
    }

    #[test]
    fn slim_parse_rejects_malformed() {
        for bad in ["", "keep:e", "jets:2", "keep:x;jets:2", "keep:e;jets:x"] {
            assert!(SlimSpec::parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn skim_slim_report_accounts() {
        let events = vec![
            event_with(2, 40.0, 3),
            event_with(0, 5.0, 3),
            event_with(1, 60.0, 0),
        ];
        let sel = Selection::NLeptons { n: 1, pt: 5.0 };
        let (out, report) = skim_slim(&events, &sel, &SlimSpec::leptons_only());
        assert_eq!(out.len(), 2);
        assert_eq!(report.events_in, 3);
        assert_eq!(report.events_out, 2);
        assert!(report.reduction_factor() > 1.0);
        assert!((report.event_efficiency() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn skim_is_idempotent() {
        let events = vec![event_with(2, 40.0, 3), event_with(0, 5.0, 3)];
        let sel = Selection::NLeptons { n: 1, pt: 5.0 };
        let slim = SlimSpec::keep_all();
        let (once, _) = skim_slim(&events, &sel, &slim);
        let (twice, report) = skim_slim(&once, &sel, &slim);
        assert_eq!(once, twice);
        assert_eq!(report.event_efficiency(), 1.0);
    }

    #[test]
    fn chunked_skim_matches_sequential() {
        let events: Vec<AodEvent> = (0..250)
            .map(|i| event_with(i % 4, (i % 7) as f64 * 12.0, i % 3))
            .collect();
        let sel = Selection::NLeptons { n: 1, pt: 5.0 }.or(Selection::MetAbove(30.0));
        let slim = SlimSpec::leptons_only();
        let (seq_out, seq_report) = skim_slim(&events, &sel, &slim);
        for threads in [1, 2, 4, 8] {
            let (out, report) = skim_slim_chunked(&events, &sel, &slim, threads);
            assert_eq!(out, seq_out, "threads={threads}");
            assert_eq!(report, seq_report, "threads={threads}");
        }
        // Small inputs take the sequential fallback and still agree.
        let (out, report) = skim_slim_chunked(&events[..10], &sel, &slim, 4);
        let (small_seq, small_report) = skim_slim(&events[..10], &sel, &slim);
        assert_eq!(out, small_seq);
        assert_eq!(report, small_report);
    }

    #[test]
    fn empty_input_report() {
        let (out, report) = skim_slim(&[], &Selection::All, &SlimSpec::keep_all());
        assert!(out.is_empty());
        assert_eq!(report.event_efficiency(), 0.0);
        assert!(report.reduction_factor().is_infinite());
    }

    #[test]
    fn streaming_skim_matches_batch_bytes_and_report() {
        let events: Vec<AodEvent> = (0..200)
            .map(|i| event_with(i % 4, (i % 7) as f64 * 12.0, i % 3))
            .collect();
        let file = AodEvent::encode_events(&events);
        let sel = Selection::NLeptons { n: 1, pt: 5.0 }.or(Selection::MetAbove(30.0));
        for slim in [
            SlimSpec::keep_all(),
            SlimSpec::leptons_only(),
            SlimSpec::candidates_only(),
        ] {
            let (batch_out, batch_report) = skim_slim(&events, &sel, &slim);
            let batch_file = AodEvent::encode_events(&batch_out);
            let (stream_file, stream_report) =
                skim_slim_streaming(&file, &sel, &slim).unwrap();
            assert_eq!(stream_file, batch_file, "slim {}", slim.to_text());
            assert_eq!(stream_report, batch_report, "slim {}", slim.to_text());
        }
    }

    #[test]
    fn streaming_skim_callback_sees_each_slimmed_survivor() {
        let events: Vec<AodEvent> = (0..50)
            .map(|i| event_with(i % 3, (i % 5) as f64 * 15.0, i % 2))
            .collect();
        let file = AodEvent::encode_events(&events);
        let sel = Selection::MetAbove(30.0);
        let slim = SlimSpec::leptons_only();
        let (expected, _) = skim_slim(&events, &sel, &slim);
        let mut seen = Vec::new();
        skim_slim_streaming_with(&file, &sel, &slim, |ev| seen.push(ev.clone())).unwrap();
        assert_eq!(seen, expected);
    }

    #[test]
    fn streaming_skim_surfaces_decode_errors() {
        let events = vec![event_with(2, 40.0, 1)];
        let file = AodEvent::encode_events(&events);
        let truncated = file.slice(0..file.len() - 2);
        let batch_err = AodEvent::decode_events(&truncated).unwrap_err();
        let stream_err = skim_slim_streaming(
            &truncated,
            &Selection::All,
            &SlimSpec::keep_all(),
        )
        .unwrap_err();
        assert_eq!(stream_err, batch_err);
    }
}
