//! Flat ntuples: the final, per-analysis data format.
//!
//! §3.2: *"One or a series of slimming/skimming steps results in a final
//! analysis data format that is usually customized to the needs of a
//! particular individual or analysis group."* An [`Ntuple`] is a columnar
//! table of `f64`s produced from AOD events by a [`ColumnSpec`] — a
//! declarative column description that, like the skim language, can be
//! preserved as text.

use daspos_reco::objects::AodEvent;
use std::fmt;

/// A derivable per-event scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSpec {
    /// Missing transverse energy.
    Met,
    /// pT of the i-th lepton (NaN when absent).
    LeptonPt(u8),
    /// pT of the i-th jet (NaN when absent).
    JetPt(u8),
    /// pT of the i-th photon (NaN when absent).
    PhotonPt(u8),
    /// Invariant mass of the two leading leptons (NaN when < 2).
    DileptonMass,
    /// Invariant mass of the two leading photons (NaN when < 2).
    DiphotonMass,
    /// Number of jets above 20 GeV.
    NJets20,
    /// Charged track multiplicity.
    NTracks,
    /// (π,π) mass of the first candidate (NaN when none).
    CandMassPiPi,
    /// (K,π) mass of the first candidate (NaN when none).
    CandMassKPi,
    /// D⁰-hypothesis proper time of the first candidate in ps (NaN when
    /// none).
    CandProperTimePs,
    /// Transverse flight distance of the first candidate in mm.
    CandFlightXy,
}

impl ColumnSpec {
    /// Column name for schemas and text serialization.
    pub fn name(&self) -> String {
        match self {
            ColumnSpec::Met => "met".to_string(),
            ColumnSpec::LeptonPt(i) => format!("lep{i}_pt"),
            ColumnSpec::JetPt(i) => format!("jet{i}_pt"),
            ColumnSpec::PhotonPt(i) => format!("pho{i}_pt"),
            ColumnSpec::DileptonMass => "m_ll".to_string(),
            ColumnSpec::DiphotonMass => "m_gg".to_string(),
            ColumnSpec::NJets20 => "njets20".to_string(),
            ColumnSpec::NTracks => "ntracks".to_string(),
            ColumnSpec::CandMassPiPi => "cand_m_pipi".to_string(),
            ColumnSpec::CandMassKPi => "cand_m_kpi".to_string(),
            ColumnSpec::CandProperTimePs => "cand_t_ps".to_string(),
            ColumnSpec::CandFlightXy => "cand_lxy".to_string(),
        }
    }

    /// Parse a column name back to its spec.
    pub fn parse(name: &str) -> Option<ColumnSpec> {
        match name {
            "met" => return Some(ColumnSpec::Met),
            "m_ll" => return Some(ColumnSpec::DileptonMass),
            "m_gg" => return Some(ColumnSpec::DiphotonMass),
            "njets20" => return Some(ColumnSpec::NJets20),
            "ntracks" => return Some(ColumnSpec::NTracks),
            "cand_m_pipi" => return Some(ColumnSpec::CandMassPiPi),
            "cand_m_kpi" => return Some(ColumnSpec::CandMassKPi),
            "cand_t_ps" => return Some(ColumnSpec::CandProperTimePs),
            "cand_lxy" => return Some(ColumnSpec::CandFlightXy),
            _ => {}
        }
        for (prefix, make) in [
            ("lep", ColumnSpec::LeptonPt as fn(u8) -> ColumnSpec),
            ("jet", ColumnSpec::JetPt as fn(u8) -> ColumnSpec),
            ("pho", ColumnSpec::PhotonPt as fn(u8) -> ColumnSpec),
        ] {
            if let Some(rest) = name.strip_prefix(prefix) {
                if let Some(idx) = rest.strip_suffix("_pt") {
                    if let Ok(i) = idx.parse() {
                        return Some(make(i));
                    }
                }
            }
        }
        None
    }

    /// Evaluate the column on an event.
    pub fn evaluate(&self, ev: &AodEvent) -> f64 {
        match self {
            ColumnSpec::Met => ev.met.value(),
            ColumnSpec::LeptonPt(i) => ev
                .leptons()
                .get(*i as usize)
                .map(|(m, _)| m.pt())
                .unwrap_or(f64::NAN),
            ColumnSpec::JetPt(i) => ev
                .jets
                .get(*i as usize)
                .map(|j| j.momentum.pt())
                .unwrap_or(f64::NAN),
            ColumnSpec::PhotonPt(i) => ev
                .photons
                .get(*i as usize)
                .map(|p| p.momentum.pt())
                .unwrap_or(f64::NAN),
            ColumnSpec::DileptonMass => {
                let leps = ev.leptons();
                if leps.len() >= 2 {
                    (leps[0].0 + leps[1].0).mass()
                } else {
                    f64::NAN
                }
            }
            ColumnSpec::DiphotonMass => {
                if ev.photons.len() >= 2 {
                    (ev.photons[0].momentum + ev.photons[1].momentum).mass()
                } else {
                    f64::NAN
                }
            }
            ColumnSpec::NJets20 => ev
                .jets
                .iter()
                .filter(|j| j.momentum.pt() >= 20.0)
                .count() as f64,
            ColumnSpec::NTracks => f64::from(ev.n_tracks),
            ColumnSpec::CandMassPiPi => ev
                .candidates
                .first()
                .map(|c| c.mass_pipi)
                .unwrap_or(f64::NAN),
            ColumnSpec::CandMassKPi => ev
                .candidates
                .first()
                .map(|c| c.mass_kpi)
                .unwrap_or(f64::NAN),
            ColumnSpec::CandProperTimePs => ev
                .candidates
                .first()
                .map(|c| c.proper_time_d0_ns * 1.0e3)
                .unwrap_or(f64::NAN),
            ColumnSpec::CandFlightXy => ev
                .candidates
                .first()
                .map(|c| c.flight_xy)
                .unwrap_or(f64::NAN),
        }
    }
}

/// An ordered set of columns — the ntuple's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtupleSchema {
    columns: Vec<ColumnSpec>,
}

impl NtupleSchema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<ColumnSpec>) -> Self {
        NtupleSchema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[ColumnSpec] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Canonical text form: comma-separated column names.
    pub fn to_text(&self) -> String {
        self.columns
            .iter()
            .map(ColumnSpec::name)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parse the canonical text form.
    pub fn parse(text: &str) -> Result<NtupleSchema, String> {
        let columns = text
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|name| {
                ColumnSpec::parse(name.trim())
                    .ok_or_else(|| format!("unknown column '{name}'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if columns.is_empty() {
            return Err("empty schema".to_string());
        }
        Ok(NtupleSchema { columns })
    }
}

impl fmt::Display for NtupleSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A filled ntuple: row-major table of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ntuple {
    schema: NtupleSchema,
    rows: Vec<f64>,
}

impl Ntuple {
    /// An empty ntuple, ready for incremental [`Ntuple::append`] — the
    /// streaming skim fills one row per surviving event as it decodes.
    pub fn empty(schema: NtupleSchema) -> Ntuple {
        Ntuple {
            schema,
            rows: Vec::new(),
        }
    }

    /// Append one event as a row.
    pub fn append(&mut self, ev: &AodEvent) {
        self.rows.reserve(self.schema.width());
        for col in self.schema.columns() {
            self.rows.push(col.evaluate(ev));
        }
    }

    /// The schema.
    pub fn schema(&self) -> &NtupleSchema {
        &self.schema
    }

    /// Number of rows (events).
    pub fn n_rows(&self) -> usize {
        if self.schema.width() == 0 {
            0
        } else {
            self.rows.len() / self.schema.width()
        }
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.schema.width();
        &self.rows[i * w..(i + 1) * w]
    }

    /// Iterator over a single column by index.
    pub fn column(&self, col: usize) -> impl Iterator<Item = f64> + '_ {
        let w = self.schema.width();
        self.rows.iter().skip(col).step_by(w).copied()
    }

    /// Find a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema
            .columns()
            .iter()
            .position(|c| c.name() == name)
    }

    /// Approximate size in bytes.
    pub fn byte_size(&self) -> usize {
        self.rows.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_hep::{EventHeader, FourVector};
    use daspos_reco::objects::{Jet, Met, Muon};

    fn dimuon_event(pt1: f64, pt2: f64) -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(1, 1, 1));
        for (pt, q) in [(pt1, 1i8), (pt2, -1i8)] {
            ev.muons.push(Muon {
                momentum: FourVector::from_pt_eta_phi_m(pt, 0.0, if q > 0 { 0.0 } else { 3.0 }, 0.105),
                charge: q,
                n_stations: 3,
                isolation: 0.0,
            });
        }
        ev.met = Met { mex: 7.0, mey: 0.0 };
        ev.jets.push(Jet {
            momentum: FourVector::from_pt_eta_phi_m(45.0, 1.0, 1.0, 5.0),
            n_constituents: 4,
            em_fraction: 0.4,
        });
        ev.n_tracks = 12;
        ev
    }

    /// An ntuple of `events`, appended one at a time as the skims do.
    fn fill(schema: NtupleSchema, events: &[AodEvent]) -> Ntuple {
        let mut nt = Ntuple::empty(schema);
        for ev in events {
            nt.append(ev);
        }
        nt
    }

    #[test]
    fn schema_text_round_trip() {
        let schema = NtupleSchema::new(vec![
            ColumnSpec::Met,
            ColumnSpec::LeptonPt(0),
            ColumnSpec::LeptonPt(1),
            ColumnSpec::DileptonMass,
            ColumnSpec::JetPt(0),
            ColumnSpec::NJets20,
            ColumnSpec::CandProperTimePs,
        ]);
        let text = schema.to_text();
        assert_eq!(NtupleSchema::parse(&text).unwrap(), schema);
    }

    #[test]
    fn schema_parse_rejects_unknown() {
        assert!(NtupleSchema::parse("met,bogus").is_err());
        assert!(NtupleSchema::parse("").is_err());
    }

    #[test]
    fn fill_and_read_back() {
        let schema = NtupleSchema::new(vec![
            ColumnSpec::Met,
            ColumnSpec::LeptonPt(0),
            ColumnSpec::NTracks,
        ]);
        let events = vec![dimuon_event(40.0, 30.0), dimuon_event(25.0, 10.0)];
        let nt = fill(schema, &events);
        assert_eq!(nt.n_rows(), 2);
        assert_eq!(nt.row(0), &[7.0, 40.0, 12.0]);
        assert_eq!(nt.row(1)[1], 25.0);
        let met_col: Vec<f64> = nt.column(0).collect();
        assert_eq!(met_col, vec![7.0, 7.0]);
        assert_eq!(nt.column_index("lep0_pt"), Some(1));
        assert_eq!(nt.column_index("nope"), None);
    }

    #[test]
    fn missing_objects_are_nan() {
        let schema = NtupleSchema::new(vec![
            ColumnSpec::PhotonPt(0),
            ColumnSpec::DiphotonMass,
            ColumnSpec::CandMassKPi,
            ColumnSpec::JetPt(5),
        ]);
        let nt = fill(schema, &[dimuon_event(40.0, 30.0)]);
        for v in nt.row(0) {
            assert!(v.is_nan(), "expected NaN, got {v}");
        }
    }

    #[test]
    fn dilepton_mass_back_to_back() {
        let schema = NtupleSchema::new(vec![ColumnSpec::DileptonMass]);
        let nt = fill(schema, &[dimuon_event(45.0, 45.0)]);
        // Two 45 GeV muons nearly back to back: mass near 90.
        let m = nt.row(0)[0];
        assert!(m > 85.0 && m < 95.0, "m_ll = {m}");
    }

    #[test]
    fn ntuple_is_smaller_than_aod() {
        let schema = NtupleSchema::new(vec![ColumnSpec::Met, ColumnSpec::DileptonMass]);
        let events = vec![dimuon_event(40.0, 30.0); 10];
        let nt = fill(schema, &events);
        let aod_bytes: usize = events.iter().map(AodEvent::byte_size).sum();
        assert!(nt.byte_size() < aod_bytes);
    }
}
