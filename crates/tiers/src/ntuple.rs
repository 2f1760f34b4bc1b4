//! Flat ntuples: the final, per-analysis data format.
//!
//! §3.2: *"One or a series of slimming/skimming steps results in a final
//! analysis data format that is usually customized to the needs of a
//! particular individual or analysis group."* An [`Ntuple`] is a columnar
//! table of `f64`s produced from AOD events by a [`ColumnSpec`] — a
//! declarative column description that, like the skim language, can be
//! preserved as text.

use daspos_hep::FourVector;
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

    /// Whether the column reads the row's pT-sorted lepton list.
    fn reads_leptons(&self) -> bool {
        matches!(self, ColumnSpec::LeptonPt(_) | ColumnSpec::DileptonMass)
    }

    /// The column's cell for `ev`, whose leptons — electrons then
    /// muons, stably sorted by descending pT, each beside its pT — are
    /// `leptons` (empty when no column of the schema reads them).
    fn cell(&self, ev: &AodEvent, leptons: &[(FourVector, f64)]) -> f64 {
        match self {
            ColumnSpec::Met => ev.met.value(),
            ColumnSpec::LeptonPt(i) => leptons
                .get(*i as usize)
                .map(|&(_, pt)| pt)
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
            ColumnSpec::DileptonMass => match leptons {
                [(a, _), (b, _), ..] => (*a + *b).mass(),
                _ => f64::NAN,
            },
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
///
/// Two ntuples are equal when their schemas and rows are; the row
/// plan's scratch list is neither compared nor cloned.
#[derive(Debug)]
pub struct Ntuple {
    schema: NtupleSchema,
    rows: Vec<f64>,
    /// The schema compiled for [`Ntuple::append`]: whether any column
    /// reads the lepton list.
    plan_leptons: bool,
    /// The current row's leptons beside their pT, reused across rows.
    leptons: Vec<(FourVector, f64)>,
}

impl Ntuple {
    /// An empty ntuple, ready for incremental [`Ntuple::append`] — the
    /// streaming skim fills one row per surviving event as it decodes.
    pub fn empty(schema: NtupleSchema) -> Ntuple {
        Ntuple {
            plan_leptons: schema.columns().iter().any(ColumnSpec::reads_leptons),
            schema,
            rows: Vec::new(),
            leptons: Vec::new(),
        }
    }

    /// Append one event as a row. When any column reads leptons, the
    /// event's electrons then muons are stably sorted by descending pT
    /// once, into a list the ntuple reuses across rows, and every
    /// lepton column reads that list: the order and values of
    /// [`AodEvent::leptons`], with each pT computed once.
    pub fn append(&mut self, ev: &AodEvent) {
        if self.plan_leptons {
            self.leptons.clear();
            let momenta = ev.electrons.iter().map(|e| e.momentum);
            let momenta = momenta.chain(ev.muons.iter().map(|m| m.momentum));
            self.leptons.extend(momenta.map(|p| (p, p.pt())));
            self.leptons.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
        self.rows.reserve(self.schema.width());
        for col in self.schema.columns() {
            self.rows.push(col.cell(ev, &self.leptons));
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

impl Clone for Ntuple {
    fn clone(&self) -> Ntuple {
        Ntuple {
            rows: self.rows.clone(),
            ..Ntuple::empty(self.schema.clone())
        }
    }
}

impl PartialEq for Ntuple {
    fn eq(&self, other: &Ntuple) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_conditions::{ConditionsStore, DbSource, IovKey, Payload, RunRange};
    use daspos_detsim::{DetectorSimulation, Experiment};
    use daspos_gen::{EventGenerator, GeneratorConfig};
    use daspos_hep::event::ProcessKind;
    use daspos_hep::{EventHeader, SeedSequence};
    use daspos_reco::objects::{Electron, Jet, Met, Muon, Photon, TwoProngCandidate};
    use daspos_reco::processor::{RecoConfig, RecoProcessor};
    use std::sync::Arc;

    /// The per-column evaluation the row plan replaced, kept as its
    /// reference: every lepton column sorts its own
    /// [`AodEvent::leptons`] list.
    fn reference_cell(col: ColumnSpec, ev: &AodEvent) -> f64 {
        match col {
            ColumnSpec::Met => ev.met.value(),
            ColumnSpec::LeptonPt(i) => ev
                .leptons()
                .get(i as usize)
                .map(|(m, _)| m.pt())
                .unwrap_or(f64::NAN),
            ColumnSpec::JetPt(i) => ev
                .jets
                .get(i as usize)
                .map(|j| j.momentum.pt())
                .unwrap_or(f64::NAN),
            ColumnSpec::PhotonPt(i) => ev
                .photons
                .get(i as usize)
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

    /// Every variant, the indexed ones past the objects an event holds.
    fn every_column() -> NtupleSchema {
        NtupleSchema::new(vec![
            ColumnSpec::Met,
            ColumnSpec::LeptonPt(0),
            ColumnSpec::LeptonPt(1),
            ColumnSpec::LeptonPt(2),
            ColumnSpec::LeptonPt(3),
            ColumnSpec::LeptonPt(4),
            ColumnSpec::JetPt(0),
            ColumnSpec::JetPt(2),
            ColumnSpec::PhotonPt(0),
            ColumnSpec::PhotonPt(1),
            ColumnSpec::DileptonMass,
            ColumnSpec::DiphotonMass,
            ColumnSpec::NJets20,
            ColumnSpec::NTracks,
            ColumnSpec::CandMassPiPi,
            ColumnSpec::CandMassKPi,
            ColumnSpec::CandProperTimePs,
            ColumnSpec::CandFlightXy,
        ])
    }

    /// Fill one ntuple with `events` in order and hold every cell to
    /// [`reference_cell`] bit for bit.
    fn assert_matches_reference(schema: NtupleSchema, events: &[AodEvent]) {
        let nt = fill(schema.clone(), events);
        assert_eq!(nt.n_rows(), events.len());
        for (r, ev) in events.iter().enumerate() {
            for (c, col) in schema.columns().iter().enumerate() {
                let (got, want) = (nt.row(r)[c], reference_cell(*col, ev));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {r} column {}: {got} != {want}",
                    col.name()
                );
            }
        }
    }

    /// `n` AOD events of `process` through the full chain on `exp`.
    fn chain_events(exp: Experiment, process: ProcessKind, seed: u64, n: u64) -> Vec<AodEvent> {
        let store = Arc::new(ConditionsStore::new());
        store.create_tag("mc").unwrap();
        for key in ["ecal/gain", "hcal/gain", "tracker/alignment-scale"] {
            let payload = Payload::Scalar(1.0);
            store.insert("mc", IovKey::new(key), RunRange::from(0), payload).unwrap();
        }
        let gen = EventGenerator::new(GeneratorConfig::new(process, seed));
        let sim = DetectorSimulation::new(
            exp.detector(),
            Arc::new(DbSource::connect(Arc::clone(&store), "mc")),
            SeedSequence::new(seed),
        );
        let reco = RecoProcessor::new(
            exp.detector(),
            RecoConfig::default(),
            Arc::new(DbSource::connect(store, "mc")),
        );
        (0..n)
            .map(|i| reco.process(&sim.simulate(&gen.event(i), i).unwrap()).unwrap().1)
            .collect()
    }

    fn momentum(px: f64, py: f64, pz: f64) -> FourVector {
        let e = (px * px + py * py + pz * pz).sqrt();
        FourVector { px, py, pz, e }
    }

    fn electron(p: FourVector) -> Electron {
        Electron {
            momentum: p,
            charge: -1,
            e_over_p: 1.0,
            isolation: 0.0,
        }
    }

    fn muon(p: FourVector) -> Muon {
        Muon {
            momentum: p,
            charge: 1,
            n_stations: 3,
            isolation: 0.0,
        }
    }

    /// An event with `n_e` electrons and `n_mu` muons, neither list in
    /// pT order, plus a photon pair, three jets and a candidate.
    fn lepton_event(n_e: usize, n_mu: usize) -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(1, 2, 3));
        for k in 0..n_e {
            let k = k as f64;
            ev.electrons.push(electron(momentum(12.0 + 7.0 * k, -3.0 * k, 5.0)));
        }
        for k in 0..n_mu {
            let k = k as f64;
            ev.muons.push(muon(momentum(-9.0, 40.0 - 11.0 * k, -2.0 - k)));
        }
        for k in 0..2 {
            let p = momentum(25.0 + k as f64, 4.0, 1.0);
            ev.photons.push(Photon {
                momentum: p,
                isolation: 0.0,
            });
        }
        for pt in [60.0, 19.5, 20.0] {
            ev.jets.push(Jet {
                momentum: FourVector::from_pt_eta_phi_m(pt, 0.5, 2.0, 4.0),
                n_constituents: 5,
                em_fraction: 0.3,
            });
        }
        ev.candidates.push(TwoProngCandidate {
            vertex: FourVector::default(),
            flight_xy: 1.25,
            pt: 4.0,
            eta: 3.1,
            mass_pipi: 0.6,
            mass_ppi: 1.2,
            mass_kpi: 1.86,
            proper_time_d0_ns: 4.1e-4,
            track_indices: (0, 1),
        });
        ev.met = Met { mex: 3.0, mey: -4.0 };
        ev.n_tracks = 31;
        ev
    }

    /// 33 leptons over three pT values, so that the leading ones tie and
    /// only the stable order fixes which two make the mass (an unstable
    /// sort of this list picks a different pair).
    fn tied_leptons_event() -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(1, 2, 4));
        for k in 0..33 {
            let p = momentum(0.0, [10.0, 20.0, 30.0][k % 3], k as f64 - 20.0);
            if k < 22 {
                ev.electrons.push(electron(FourVector { px: -p.py, py: 0.0, ..p }));
            } else {
                ev.muons.push(muon(p));
            }
        }
        ev
    }

    #[test]
    fn row_plan_matches_reference_on_chain_events() {
        let z = chain_events(Experiment::Cms, ProcessKind::ZBoson, 42, 120);
        assert!(z.iter().filter(|ev| ev.leptons().len() >= 2).count() > 40);
        assert_matches_reference(every_column(), &z);
        let charm = chain_events(Experiment::Lhcb, ProcessKind::Charm, 2013, 120);
        assert!(charm.iter().any(|ev| !ev.candidates.is_empty()));
        assert_matches_reference(every_column(), &charm);
    }

    #[test]
    fn row_plan_matches_reference_on_hand_built_events() {
        let events: Vec<AodEvent> = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (1, 3)]
            .into_iter()
            .map(|(n_e, n_mu)| lepton_event(n_e, n_mu))
            .chain([tied_leptons_event(), AodEvent::new(EventHeader::new(1, 2, 5))])
            .collect();
        assert_matches_reference(every_column(), &events);
        // A schema without lepton columns never fills the list.
        let no_leptons = NtupleSchema::new(vec![ColumnSpec::Met, ColumnSpec::NJets20]);
        let nt = fill(no_leptons.clone(), &events);
        assert!(nt.leptons.is_empty());
        assert_matches_reference(no_leptons, &events);
    }

    #[test]
    fn equal_pt_keeps_the_electron_first() {
        let mut ev = AodEvent::new(EventHeader::new(1, 2, 6));
        let (lead, e, mu) = (
            momentum(0.0, 45.0, 3.0),
            momentum(30.0, 0.0, 8.0),
            momentum(0.0, -30.0, -20.0),
        );
        assert_eq!(e.pt().to_bits(), mu.pt().to_bits());
        ev.muons.push(muon(lead));
        ev.muons.push(muon(mu));
        ev.electrons.push(electron(e));
        let nt = fill(every_column(), std::slice::from_ref(&ev));
        let m_ll = nt.column_index("m_ll").unwrap();
        assert_eq!(nt.row(0)[m_ll].to_bits(), (lead + e).mass().to_bits());
        assert_ne!((lead + e).mass(), (lead + mu).mass());
        assert_matches_reference(every_column(), &[ev]);
    }

    #[test]
    fn a_sparse_row_after_a_full_one_reads_no_stale_leptons() {
        let events = [lepton_event(2, 1), lepton_event(0, 0), lepton_event(0, 1)];
        assert_matches_reference(every_column(), &events);
        let nt = fill(every_column(), &events);
        assert!(nt.row(1)[1..6].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn equality_ignores_the_fill_history() {
        let schema = NtupleSchema::new(vec![ColumnSpec::Met, ColumnSpec::LeptonPt(0)]);
        // Equal rows from events whose lepton lists differ past the first.
        let (few, many) = (lepton_event(0, 1), lepton_event(0, 3));
        let a = fill(schema.clone(), std::slice::from_ref(&few));
        let b = fill(schema, std::slice::from_ref(&many));
        assert_ne!(a.leptons, b.leptons);
        assert_eq!(a, b);
        let copy = b.clone();
        assert!(copy.leptons.is_empty());
        assert_eq!(copy, b);
    }

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
