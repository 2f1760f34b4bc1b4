//! The binary event codec.
//!
//! A bespoke, versioned, self-framing format — the stand-in for the
//! experiments' ROOT-based persistency. Layout:
//!
//! ```text
//! file   := magic("DPEF") version:u16 tier:u8 n_events:u32 event*
//! event  := length:u32 payload
//! ```
//!
//! Every payload starts with the event header (run, lumi block, event
//! number) so any tier of the same collision can be correlated. The
//! `version` field is the handle the platform-migration experiment (P1)
//! turns: decoding rejects versions it does not support, exactly the
//! failure mode that strands un-migrated archives.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use daspos_detsim::raw::{CaloCell, MuonHit, RawEvent, TrackerHit};
use daspos_hep::digest::FNV64_PRIME;
use daspos_hep::event::EventHeader;
use daspos_hep::par;
use daspos_reco::objects::{
    AodEvent, CaloCluster, Electron, Jet, Met, Muon, MuonSegment, Photon, RecoEvent, Track,
    TwoProngCandidate,
};
use std::fmt;

use crate::tier::DataTier;

/// File magic: "DASPOS Preservation Event File".
pub const MAGIC: &[u8; 4] = b"DPEF";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    UnexpectedEof,
    /// The file does not start with the DPEF magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The tier byte is unknown or does not match the requested decode.
    WrongTier {
        /// Tier code found.
        found: u8,
        /// Tier expected by the caller.
        expected: u8,
    },
    /// A structural inconsistency (bad status code, absurd count).
    Corrupt(String),
    /// An integrity seal's stored digest does not match its payload.
    SealMismatch {
        /// Digest stored in the seal.
        stored: u64,
        /// Digest recomputed over the payload.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("unexpected end of buffer"),
            CodecError::BadMagic => f.write_str("bad file magic (not a DPEF file)"),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads {supported})"
            ),
            CodecError::WrongTier { found, expected } => {
                write!(f, "tier mismatch: file has {found}, expected {expected}")
            }
            CodecError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
            CodecError::SealMismatch { stored, actual } => write!(
                f,
                "integrity seal mismatch: seal says {stored:016x}, payload hashes to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Coarse classification of a decode failure — the taxonomy the
/// fault-injection campaign (`daspos::faultlab`) uses to histogram *how*
/// each corruption was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// The buffer ended before the structure was complete (truncation).
    Framing,
    /// Magic bytes did not match.
    Magic,
    /// A version gate rejected the file.
    Version,
    /// The tier byte was wrong for the requested decode.
    Tier,
    /// Structural corruption: absurd counts, trailing bytes, zero frames.
    Structure,
    /// An integrity digest did not verify.
    Integrity,
}

impl ErrorCategory {
    /// Stable short name used in campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCategory::Framing => "framing",
            ErrorCategory::Magic => "magic",
            ErrorCategory::Version => "version",
            ErrorCategory::Tier => "tier",
            ErrorCategory::Structure => "structure",
            ErrorCategory::Integrity => "integrity",
        }
    }
}

impl CodecError {
    /// The coarse category of this failure.
    pub fn category(&self) -> ErrorCategory {
        match self {
            CodecError::UnexpectedEof => ErrorCategory::Framing,
            CodecError::BadMagic => ErrorCategory::Magic,
            CodecError::UnsupportedVersion { .. } => ErrorCategory::Version,
            CodecError::WrongTier { .. } => ErrorCategory::Tier,
            CodecError::Corrupt(_) => ErrorCategory::Structure,
            CodecError::SealMismatch { .. } => ErrorCategory::Integrity,
        }
    }
}

/// FNV-1a 64 — the toolkit's standard content digest, shared by the
/// integrity seal, the archive container and the conditions-snapshot
/// text form — re-exported from its one definition in `daspos-hep`.
pub use daspos_hep::digest::{fnv64, fnv64_resume, FNV64_OFFSET};

/// Most FNV chains [`fnv64_lanes`] runs in lockstep. Four keeps every
/// state in a register; wider groups measured no faster.
const FNV64_LANES: usize = 4;

/// [`fnv64_resume`] over several independent buffers at once:
/// `states[i]` becomes `fnv64_resume(states[i], bufs[i])`.
///
/// One FNV-1a chain is a serial dependency — each byte's multiply waits
/// for the previous one — so a single digest runs at multiply latency.
/// Interleaving up to four independent chains byte by byte lets their
/// multiplies overlap, which digests a stripe of equal-length shards in
/// roughly the time of one of them. The lanes run in lockstep over the
/// bytes every buffer of a group has; a longer buffer finishes its tail
/// serially, so unequal lengths are correct, merely slower. Outputs are
/// bit-identical to per-buffer [`fnv64`], unlike the word-wide
/// [`fnv64_wide`](crate::colnar::fnv64_wide), which is a different
/// digest.
pub fn fnv64_lanes(states: &mut [u64], bufs: &[&[u8]]) {
    assert_eq!(states.len(), bufs.len(), "one state per buffer");
    for (states, bufs) in states.chunks_mut(FNV64_LANES).zip(bufs.chunks(FNV64_LANES)) {
        let common = bufs.iter().map(|b| b.len()).min().unwrap_or(0);
        match states.len() {
            4 => fnv64_lockstep::<4>(states, bufs, common),
            3 => fnv64_lockstep::<3>(states, bufs, common),
            2 => fnv64_lockstep::<2>(states, bufs, common),
            _ => fnv64_lockstep::<1>(states, bufs, common),
        }
        for (state, buf) in states.iter_mut().zip(bufs) {
            *state = fnv64_resume(*state, &buf[common..]);
        }
    }
}

/// `N` FNV-1a chains over the first `len` bytes of each buffer, one
/// byte of every chain per step.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // byte i of every lane per step is the point
fn fnv64_lockstep<const N: usize>(states: &mut [u64], bufs: &[&[u8]], len: usize) {
    let mut h: [u64; N] = states.try_into().expect("N states");
    let bufs: [&[u8]; N] = std::array::from_fn(|lane| &bufs[lane][..len]);
    for i in 0..len {
        for lane in 0..N {
            h[lane] = (h[lane] ^ u64::from(bufs[lane][i])).wrapping_mul(FNV64_PRIME);
        }
    }
    states.copy_from_slice(&h);
}

/// Magic of the integrity seal: "DASPOS Sealed".
pub const SEAL_MAGIC: &[u8; 4] = b"DPSL";

/// Bytes the seal prepends to a payload: the magic plus the u64 digest.
pub const SEAL_OVERHEAD: usize = 12;

/// Wrap a serialized artifact in an integrity seal:
/// `"DPSL" fnv64(payload):u64 payload`.
///
/// DPEF tier files carry no digest of their own (floats re-parse happily
/// after a payload bit flips), so archived tier files travel sealed: the
/// seal makes any byte-level change detectable before decode, which is
/// what the faultlab invariant "detected or harmless" rests on.
pub fn seal(payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(SEAL_OVERHEAD + payload.len());
    buf.put_slice(SEAL_MAGIC);
    buf.put_u64_le(fnv64(payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// Verify and strip an integrity seal, returning the payload.
///
/// Zero-copy: the returned `Bytes` is a window into the same backing
/// allocation as `data`, offset past the seal — no payload bytes are
/// copied (the digest pass reads them once, as it must). Holding the
/// result keeps the sealed buffer alive.
pub fn unseal(data: &Bytes) -> Result<Bytes, CodecError> {
    let mut b = data.clone();
    need(&b, SEAL_OVERHEAD)?;
    let mut magic = [0u8; 4];
    b.copy_to_slice(&mut magic);
    if &magic != SEAL_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let stored = b.get_u64_le();
    let actual = fnv64(&b);
    if stored != actual {
        return Err(CodecError::SealMismatch { stored, actual });
    }
    Ok(b)
}

#[inline]
fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::UnexpectedEof)
    } else {
        Ok(())
    }
}

#[inline]
fn get_u8(b: &mut impl Buf) -> Result<u8, CodecError> {
    need(b, 1)?;
    Ok(b.get_u8())
}
#[inline]
fn get_i8(b: &mut impl Buf) -> Result<i8, CodecError> {
    need(b, 1)?;
    Ok(b.get_i8())
}
#[inline]
fn get_u16(b: &mut impl Buf) -> Result<u16, CodecError> {
    need(b, 2)?;
    Ok(b.get_u16_le())
}
#[inline]
fn get_u32(b: &mut impl Buf) -> Result<u32, CodecError> {
    need(b, 4)?;
    Ok(b.get_u32_le())
}
#[inline]
fn get_i32(b: &mut impl Buf) -> Result<i32, CodecError> {
    need(b, 4)?;
    Ok(b.get_i32_le())
}
#[inline]
fn get_u64(b: &mut impl Buf) -> Result<u64, CodecError> {
    need(b, 8)?;
    Ok(b.get_u64_le())
}
#[inline]
fn get_f64(b: &mut impl Buf) -> Result<f64, CodecError> {
    need(b, 8)?;
    Ok(b.get_f64_le())
}

/// Counts are sanity-limited so a corrupt length cannot allocate the moon.
/// Shared with the columnar codec, whose row and entry counts obey the
/// same bound.
pub(crate) const MAX_COUNT: u32 = 10_000_000;

fn get_count(b: &mut impl Buf) -> Result<u32, CodecError> {
    let n = get_u32(b)?;
    if n > MAX_COUNT {
        return Err(CodecError::Corrupt(format!("count {n} exceeds sanity limit")));
    }
    Ok(n)
}

/// Pre-allocation bound for a declared element count: never reserve more
/// elements than the remaining bytes could possibly hold. A corrupt count
/// below `MAX_COUNT` but far beyond the actual data (e.g. 10M elements
/// declared in a 30-byte file) then allocates at most
/// `remaining / min_wire_size` slots before the decode loop hits
/// `UnexpectedEof` on the missing bytes.
fn clamped_capacity(declared: u32, remaining: usize, min_wire_size: usize) -> usize {
    (declared as usize).min(remaining / min_wire_size.max(1))
}

// Minimum wire sizes (bytes) per element, used only to bound allocation.
mod wire {
    pub const TRACKER_HIT: usize = 1 + 3 * 8 + 4; // layer, x/y/z, stub
    pub const CALO_CELL: usize = 2 * 4 + 2 * 8; // ieta/iphi, em/had
    pub const MUON_HIT: usize = 1 + 2 * 8 + 4; // station, eta/phi, stub
    pub const TRUTH_LINK: usize = 4;
    pub const TRACK: usize = 10 * 8 + 1 + 1; // ten f64 fields, charge, n_hits
    pub const CLUSTER: usize = 4 * 8 + 4;
    pub const MUON_SEGMENT: usize = 2 * 8 + 1;
    pub const ELECTRON: usize = 4 * 8 + 1 + 2 * 8;
    pub const MUON: usize = 4 * 8 + 1 + 1 + 8;
    pub const PHOTON: usize = 4 * 8 + 8;
    pub const JET: usize = 4 * 8 + 4 + 8;
    pub const CANDIDATE: usize = 4 * 8 + 7 * 8 + 2 * 4;
    // Every event frame carries a u32 length and a payload that starts
    // with the 16-byte event header.
    pub const EVENT_FRAME: usize = 4 + 16;
}

// --- Event header ----------------------------------------------------------

fn put_header(buf: &mut BytesMut, h: &EventHeader) {
    buf.put_u32_le(h.run.0);
    buf.put_u32_le(h.lumi_block.0);
    buf.put_u64_le(h.event.0);
}

fn get_header(b: &mut impl Buf) -> Result<EventHeader, CodecError> {
    Ok(EventHeader::new(get_u32(b)?, get_u32(b)?, get_u64(b)?))
}

// --- RAW -------------------------------------------------------------------

fn put_raw(buf: &mut BytesMut, ev: &RawEvent) {
    put_header(buf, &ev.header);
    buf.put_u32_le(ev.tracker_hits.len() as u32);
    for h in &ev.tracker_hits {
        buf.put_u8(h.layer);
        buf.put_f64_le(h.x);
        buf.put_f64_le(h.y);
        buf.put_f64_le(h.z);
        buf.put_u32_le(h.stub);
    }
    buf.put_u32_le(ev.calo_cells.len() as u32);
    for c in &ev.calo_cells {
        buf.put_i32_le(c.ieta);
        buf.put_i32_le(c.iphi);
        buf.put_f64_le(c.em);
        buf.put_f64_le(c.had);
    }
    buf.put_u32_le(ev.muon_hits.len() as u32);
    for m in &ev.muon_hits {
        buf.put_u8(m.station);
        buf.put_f64_le(m.eta);
        buf.put_f64_le(m.phi);
        buf.put_u32_le(m.stub);
    }
    buf.put_u32_le(ev.truth_links.len() as u32);
    for l in &ev.truth_links {
        buf.put_u32_le(*l);
    }
}

fn get_raw(b: &mut impl Buf) -> Result<RawEvent, CodecError> {
    let mut ev = RawEvent::new(EventHeader::new(0, 0, 0));
    get_raw_into(b, &mut ev)?;
    Ok(ev)
}

/// Decode one RAW event into `ev`, reusing its collection capacity. The
/// previous contents are cleared; on error the event is partially filled
/// and must not be used.
fn get_raw_into(b: &mut impl Buf, ev: &mut RawEvent) -> Result<(), CodecError> {
    ev.header = get_header(b)?;
    ev.tracker_hits.clear();
    ev.calo_cells.clear();
    ev.muon_hits.clear();
    ev.truth_links.clear();
    let n = get_count(b)?;
    ev.tracker_hits
        .reserve(clamped_capacity(n, b.remaining(), wire::TRACKER_HIT));
    for _ in 0..n {
        ev.tracker_hits.push(TrackerHit {
            layer: get_u8(b)?,
            x: get_f64(b)?,
            y: get_f64(b)?,
            z: get_f64(b)?,
            stub: get_u32(b)?,
        });
    }
    let n = get_count(b)?;
    ev.calo_cells
        .reserve(clamped_capacity(n, b.remaining(), wire::CALO_CELL));
    for _ in 0..n {
        ev.calo_cells.push(CaloCell {
            ieta: get_i32(b)?,
            iphi: get_i32(b)?,
            em: get_f64(b)?,
            had: get_f64(b)?,
        });
    }
    let n = get_count(b)?;
    ev.muon_hits
        .reserve(clamped_capacity(n, b.remaining(), wire::MUON_HIT));
    for _ in 0..n {
        ev.muon_hits.push(MuonHit {
            station: get_u8(b)?,
            eta: get_f64(b)?,
            phi: get_f64(b)?,
            stub: get_u32(b)?,
        });
    }
    let n = get_count(b)?;
    ev.truth_links
        .reserve(clamped_capacity(n, b.remaining(), wire::TRUTH_LINK));
    for _ in 0..n {
        ev.truth_links.push(get_u32(b)?);
    }
    Ok(())
}

// --- RECO ------------------------------------------------------------------

fn put_track(buf: &mut BytesMut, t: &Track) {
    buf.put_f64_le(t.pt);
    buf.put_f64_le(t.eta);
    buf.put_f64_le(t.phi);
    buf.put_i8(t.charge);
    buf.put_f64_le(t.d0);
    buf.put_f64_le(t.z0);
    buf.put_u8(t.n_hits);
    buf.put_f64_le(t.first_hit_radius);
    buf.put_f64_le(t.circle_cx);
    buf.put_f64_le(t.circle_cy);
    buf.put_f64_le(t.circle_r);
    buf.put_f64_le(t.cot_theta);
}

fn get_track(b: &mut impl Buf) -> Result<Track, CodecError> {
    Ok(Track {
        pt: get_f64(b)?,
        eta: get_f64(b)?,
        phi: get_f64(b)?,
        charge: get_i8(b)?,
        d0: get_f64(b)?,
        z0: get_f64(b)?,
        n_hits: get_u8(b)?,
        first_hit_radius: get_f64(b)?,
        circle_cx: get_f64(b)?,
        circle_cy: get_f64(b)?,
        circle_r: get_f64(b)?,
        cot_theta: get_f64(b)?,
    })
}

fn put_reco(buf: &mut BytesMut, ev: &RecoEvent) {
    put_header(buf, &ev.header);
    buf.put_u32_le(ev.tracks.len() as u32);
    for t in &ev.tracks {
        put_track(buf, t);
    }
    buf.put_u32_le(ev.clusters.len() as u32);
    for c in &ev.clusters {
        buf.put_f64_le(c.energy);
        buf.put_f64_le(c.eta);
        buf.put_f64_le(c.phi);
        buf.put_f64_le(c.em_fraction);
        buf.put_u32_le(c.n_towers);
    }
    buf.put_u32_le(ev.muon_segments.len() as u32);
    for s in &ev.muon_segments {
        buf.put_f64_le(s.eta);
        buf.put_f64_le(s.phi);
        buf.put_u8(s.n_stations);
    }
}

fn get_reco(b: &mut impl Buf) -> Result<RecoEvent, CodecError> {
    let mut ev = RecoEvent {
        header: EventHeader::new(0, 0, 0),
        tracks: Vec::new(),
        clusters: Vec::new(),
        muon_segments: Vec::new(),
    };
    get_reco_into(b, &mut ev)?;
    Ok(ev)
}

/// Decode one RECO event into `ev`, reusing its collection capacity.
fn get_reco_into(b: &mut impl Buf, ev: &mut RecoEvent) -> Result<(), CodecError> {
    ev.header = get_header(b)?;
    ev.tracks.clear();
    ev.clusters.clear();
    ev.muon_segments.clear();
    let n = get_count(b)?;
    ev.tracks
        .reserve(clamped_capacity(n, b.remaining(), wire::TRACK));
    for _ in 0..n {
        ev.tracks.push(get_track(b)?);
    }
    let n = get_count(b)?;
    ev.clusters
        .reserve(clamped_capacity(n, b.remaining(), wire::CLUSTER));
    for _ in 0..n {
        ev.clusters.push(CaloCluster {
            energy: get_f64(b)?,
            eta: get_f64(b)?,
            phi: get_f64(b)?,
            em_fraction: get_f64(b)?,
            n_towers: get_u32(b)?,
        });
    }
    let n = get_count(b)?;
    ev.muon_segments
        .reserve(clamped_capacity(n, b.remaining(), wire::MUON_SEGMENT));
    for _ in 0..n {
        ev.muon_segments.push(MuonSegment {
            eta: get_f64(b)?,
            phi: get_f64(b)?,
            n_stations: get_u8(b)?,
        });
    }
    Ok(())
}

// --- AOD -------------------------------------------------------------------

fn put_fourvec(buf: &mut BytesMut, v: &daspos_hep::FourVector) {
    buf.put_f64_le(v.px);
    buf.put_f64_le(v.py);
    buf.put_f64_le(v.pz);
    buf.put_f64_le(v.e);
}

fn get_fourvec(b: &mut impl Buf) -> Result<daspos_hep::FourVector, CodecError> {
    Ok(daspos_hep::FourVector::new(
        get_f64(b)?,
        get_f64(b)?,
        get_f64(b)?,
        get_f64(b)?,
    ))
}

fn put_aod(buf: &mut BytesMut, ev: &AodEvent) {
    put_header(buf, &ev.header);
    buf.put_u32_le(ev.electrons.len() as u32);
    for e in &ev.electrons {
        put_fourvec(buf, &e.momentum);
        buf.put_i8(e.charge);
        buf.put_f64_le(e.e_over_p);
        buf.put_f64_le(e.isolation);
    }
    buf.put_u32_le(ev.muons.len() as u32);
    for m in &ev.muons {
        put_fourvec(buf, &m.momentum);
        buf.put_i8(m.charge);
        buf.put_u8(m.n_stations);
        buf.put_f64_le(m.isolation);
    }
    buf.put_u32_le(ev.photons.len() as u32);
    for p in &ev.photons {
        put_fourvec(buf, &p.momentum);
        buf.put_f64_le(p.isolation);
    }
    buf.put_u32_le(ev.jets.len() as u32);
    for j in &ev.jets {
        put_fourvec(buf, &j.momentum);
        buf.put_u32_le(j.n_constituents);
        buf.put_f64_le(j.em_fraction);
    }
    buf.put_f64_le(ev.met.mex);
    buf.put_f64_le(ev.met.mey);
    buf.put_u32_le(ev.candidates.len() as u32);
    for c in &ev.candidates {
        put_fourvec(buf, &c.vertex);
        buf.put_f64_le(c.flight_xy);
        buf.put_f64_le(c.pt);
        buf.put_f64_le(c.eta);
        buf.put_f64_le(c.mass_pipi);
        buf.put_f64_le(c.mass_ppi);
        buf.put_f64_le(c.mass_kpi);
        buf.put_f64_le(c.proper_time_d0_ns);
        buf.put_u32_le(c.track_indices.0);
        buf.put_u32_le(c.track_indices.1);
    }
    buf.put_u32_le(ev.n_tracks);
}

fn get_aod(b: &mut impl Buf) -> Result<AodEvent, CodecError> {
    let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
    get_aod_into(b, &mut ev)?;
    Ok(ev)
}

/// Decode one AOD event into `ev`, reusing its collection capacity.
fn get_aod_into(b: &mut impl Buf, ev: &mut AodEvent) -> Result<(), CodecError> {
    ev.header = get_header(b)?;
    ev.electrons.clear();
    ev.muons.clear();
    ev.photons.clear();
    ev.jets.clear();
    ev.candidates.clear();
    let n = get_count(b)?;
    ev.electrons
        .reserve(clamped_capacity(n, b.remaining(), wire::ELECTRON));
    for _ in 0..n {
        ev.electrons.push(Electron {
            momentum: get_fourvec(b)?,
            charge: get_i8(b)?,
            e_over_p: get_f64(b)?,
            isolation: get_f64(b)?,
        });
    }
    let n = get_count(b)?;
    ev.muons
        .reserve(clamped_capacity(n, b.remaining(), wire::MUON));
    for _ in 0..n {
        ev.muons.push(Muon {
            momentum: get_fourvec(b)?,
            charge: get_i8(b)?,
            n_stations: get_u8(b)?,
            isolation: get_f64(b)?,
        });
    }
    let n = get_count(b)?;
    ev.photons
        .reserve(clamped_capacity(n, b.remaining(), wire::PHOTON));
    for _ in 0..n {
        ev.photons.push(Photon {
            momentum: get_fourvec(b)?,
            isolation: get_f64(b)?,
        });
    }
    let n = get_count(b)?;
    ev.jets
        .reserve(clamped_capacity(n, b.remaining(), wire::JET));
    for _ in 0..n {
        ev.jets.push(Jet {
            momentum: get_fourvec(b)?,
            n_constituents: get_u32(b)?,
            em_fraction: get_f64(b)?,
        });
    }
    ev.met = Met {
        mex: get_f64(b)?,
        mey: get_f64(b)?,
    };
    let n = get_count(b)?;
    ev.candidates
        .reserve(clamped_capacity(n, b.remaining(), wire::CANDIDATE));
    for _ in 0..n {
        ev.candidates.push(TwoProngCandidate {
            vertex: get_fourvec(b)?,
            flight_xy: get_f64(b)?,
            pt: get_f64(b)?,
            eta: get_f64(b)?,
            mass_pipi: get_f64(b)?,
            mass_ppi: get_f64(b)?,
            mass_kpi: get_f64(b)?,
            proper_time_d0_ns: get_f64(b)?,
            track_indices: (get_u32(b)?, get_u32(b)?),
        });
    }
    ev.n_tracks = get_u32(b)?;
    Ok(())
}

// --- File framing -----------------------------------------------------------

fn encode_file<T>(tier: DataTier, events: &[T], put: impl Fn(&mut BytesMut, &T)) -> Bytes {
    encode_file_versioned(tier, events, put, FORMAT_VERSION)
}

/// Encode with an explicit version (the migration experiment writes
/// "future" files this build then refuses to read).
pub fn encode_file_with_version<T>(
    tier: DataTier,
    events: &[T],
    version: u16,
) -> Bytes
where
    T: Encodable,
{
    encode_file_versioned(tier, events, T::put, version)
}

/// Write the file header (magic, version, tier, event count).
///
/// Panics if `n_events` does not fit the u32 count field: silently
/// truncating the count would archive a file claiming fewer events than
/// it holds — a preservation corruption worse than an aborted write.
fn put_file_header(buf: &mut BytesMut, tier: DataTier, version: u16, n_events: usize) {
    let n = u32::try_from(n_events)
        .unwrap_or_else(|_| panic!("event count {n_events} exceeds the u32 DPEF count field"));
    buf.put_slice(MAGIC);
    buf.put_u16_le(version);
    buf.put_u8(tier.code());
    buf.put_u32_le(n);
}

/// Frame one event: length prefix + payload, encoded directly into
/// `buf`. A placeholder length is written first and backpatched once the
/// payload is down, so every event byte is produced exactly once — the
/// scratch-buffer-then-copy of the previous framing cost a second pass
/// over the full payload on the hot encode path. Panics (rather than
/// writing a silently truncated length) if a payload exceeds the u32
/// frame field.
#[inline]
fn put_frame<T>(buf: &mut BytesMut, ev: &T, put: &impl Fn(&mut BytesMut, &T)) {
    let len_pos = buf.len();
    buf.put_u32_le(0);
    put(buf, ev);
    let payload_len = buf.len() - len_pos - 4;
    let len = u32::try_from(payload_len).unwrap_or_else(|_| {
        panic!("event payload of {payload_len} bytes exceeds the u32 DPEF frame field")
    });
    buf[len_pos..len_pos + 4].copy_from_slice(&len.to_le_bytes());
}

fn encode_file_versioned<T>(
    tier: DataTier,
    events: &[T],
    put: impl Fn(&mut BytesMut, &T),
    version: u16,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + events.len() * 256);
    put_file_header(&mut buf, tier, version, events.len());
    for ev in events {
        put_frame(&mut buf, ev, &put);
    }
    buf.freeze()
}

/// Parallel encode: per-event payloads are produced on up to `threads`
/// worker threads over contiguous event chunks, then the DPEF frame is
/// assembled sequentially (header, then each chunk's frames in event
/// order) — the output is byte-identical to the sequential encoder.
fn encode_file_parallel<T>(
    tier: DataTier,
    events: &[T],
    put: fn(&mut BytesMut, &T),
    version: u16,
    threads: usize,
) -> Bytes
where
    T: Sync,
{
    // Below this size thread spawn overhead dominates; stay sequential.
    const MIN_PARALLEL_EVENTS: usize = 64;
    if threads <= 1 || events.len() < MIN_PARALLEL_EVENTS {
        return encode_file_versioned(tier, events, put, version);
    }
    let chunk_len = events.len().div_ceil(threads);
    let chunks = par::map_chunks(events.len(), chunk_len, threads, |_, range| {
        let part = &events[range];
        let mut buf = BytesMut::with_capacity(part.len() * 256);
        for ev in part {
            put_frame(&mut buf, ev, &put);
        }
        buf
    });
    let body: usize = chunks.iter().map(|c| c.len()).sum();
    let mut buf = BytesMut::with_capacity(16 + body);
    put_file_header(&mut buf, tier, version, events.len());
    for chunk in chunks {
        buf.put_slice(&chunk);
    }
    buf.freeze()
}

/// The validated file header plus the frame cursor — the machinery both
/// decode paths share, so the batch and streaming decoders are the same
/// code and cannot disagree on framing or error order.
struct FrameCursor {
    buf: Bytes,
    n_events: u32,
    seen: u32,
}

impl FrameCursor {
    /// Parse and validate the DPEF file header (magic, version, tier,
    /// event count). `buf` is left positioned at the first frame.
    fn new(data: &Bytes, tier: DataTier) -> Result<FrameCursor, CodecError> {
        let mut b = data.clone();
        need(&b, 7)?;
        let mut magic = [0u8; 4];
        b.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = get_u16(&mut b)?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let file_tier = get_u8(&mut b)?;
        if file_tier != tier.code() {
            return Err(CodecError::WrongTier {
                found: file_tier,
                expected: tier.code(),
            });
        }
        let n_events = get_count(&mut b)?;
        Ok(FrameCursor {
            buf: b,
            n_events,
            seen: 0,
        })
    }

    /// The next event payload as a zero-copy window into the file buffer,
    /// or `None` once the declared event count is exhausted.
    fn next_frame(&mut self) -> Result<Option<Bytes>, CodecError> {
        if self.seen == self.n_events {
            return Ok(None);
        }
        let len = get_count(&mut self.buf)? as usize;
        if len == 0 {
            // Every tier's payload starts with the 16-byte event header,
            // so a zero-length frame is structurally impossible.
            return Err(CodecError::Corrupt(
                "zero-length event frame".to_string(),
            ));
        }
        need(&self.buf, len)?;
        self.seen += 1;
        Ok(Some(self.buf.split_to(len)))
    }
}

/// Decode one framed payload, rejecting trailing bytes. Shared by the
/// batch and streaming decoders so both report identical errors.
fn finish_payload(payload: &mut Bytes) -> Result<(), CodecError> {
    if payload.has_remaining() {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes in event payload",
            payload.remaining()
        )));
    }
    Ok(())
}

fn decode_file<T>(
    data: &Bytes,
    tier: DataTier,
    get: impl Fn(&mut Bytes) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut cursor = FrameCursor::new(data, tier)?;
    let mut out = Vec::with_capacity(clamped_capacity(
        cursor.n_events,
        cursor.buf.remaining(),
        wire::EVENT_FRAME,
    ));
    while let Some(mut payload) = cursor.next_frame()? {
        let ev = get(&mut payload)?;
        finish_payload(&mut payload)?;
        out.push(ev);
    }
    Ok(out)
}

/// An incremental DPEF decoder: yields events one at a time from a
/// `Bytes` slice. Each frame payload is a zero-copy window into the file
/// buffer, and every event is decoded into the *same* internal scratch
/// event, so after warm-up the per-event collection buffers (tracker
/// hits, electrons, jets, …) are reused instead of reallocated.
///
/// This is the hot-path counterpart to [`Encodable::decode_events`]:
/// identical framing, identical validation, identical errors in the same
/// order (both run on the same frame cursor) — but no intermediate
/// `Vec<Event>` and no per-event allocations. Use it when events are
/// consumed one at a time (skimming, filling, scanning); use the batch
/// decoder when the whole file must be materialized anyway.
///
/// The borrow returned by [`EventReader::next`] is only valid until the
/// next call (a lending iterator); clone the event to keep it.
pub struct EventReader<T: Encodable> {
    cursor: FrameCursor,
    scratch: T,
    meter: Option<(daspos_obs::Gauge, daspos_obs::Gauge)>,
}

impl<T: Encodable> EventReader<T> {
    /// Open a DPEF file for streaming decode. Validates the file header
    /// exactly as [`Encodable::decode_events`] does.
    pub fn new(data: &Bytes) -> Result<EventReader<T>, CodecError> {
        Ok(EventReader {
            cursor: FrameCursor::new(data, T::TIER)?,
            scratch: T::scratch(),
            meter: None,
        })
    }

    /// Record decode traffic into `registry`: each decoded frame adds to
    /// the `codec.events_decoded` / `codec.bytes_decoded` gauges. Gauges,
    /// not counters — which codec path runs (streaming vs batch) depends
    /// on the execution engine, so these are measurements, not part of
    /// the deterministic trace.
    pub fn with_metrics(mut self, registry: &daspos_obs::MetricsRegistry) -> Self {
        self.meter = Some((
            registry.gauge("codec.events_decoded"),
            registry.gauge("codec.bytes_decoded"),
        ));
        self
    }

    /// Event count declared in the file header.
    pub fn n_events(&self) -> u32 {
        self.cursor.n_events
    }

    /// Events decoded so far.
    pub fn events_decoded(&self) -> u32 {
        self.cursor.seen
    }

    /// Decode the next event into the internal scratch buffers and
    /// borrow it, or return `None` once the file is exhausted. Errors
    /// match the batch decoder's, at the same event position.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrow ties to &mut self
    pub fn next(&mut self) -> Result<Option<&T>, CodecError> {
        self.next_mut().map(|opt| opt.map(|ev| &*ev))
    }

    /// Like [`EventReader::next`], but the borrow is mutable so the
    /// caller may transform the event in place (the single-pass skim
    /// slims the scratch directly). Any mutation is discarded when the
    /// next event is decoded over it.
    pub fn next_mut(&mut self) -> Result<Option<&mut T>, CodecError> {
        match self.cursor.next_frame()? {
            None => Ok(None),
            Some(mut payload) => {
                let frame_bytes = payload.remaining();
                T::get_into(&mut payload, &mut self.scratch)?;
                finish_payload(&mut payload)?;
                if let Some((events, bytes)) = &self.meter {
                    events.add(1);
                    bytes.add(frame_bytes as i64);
                }
                Ok(Some(&mut self.scratch))
            }
        }
    }
}

/// An incremental DPEF encoder: frames events one at a time while
/// reusing a single payload scratch buffer, then stamps the file header
/// with the final count. Byte-identical to [`Encodable::encode_events`]
/// over the same event sequence — the single-pass skim uses it to write
/// survivors without first materializing them in a vector.
pub struct EventWriter<T: Encodable> {
    body: BytesMut,
    n_events: usize,
    meter: Option<(daspos_obs::Gauge, daspos_obs::Gauge)>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Encodable> EventWriter<T> {
    /// An empty writer.
    pub fn new() -> EventWriter<T> {
        EventWriter {
            body: BytesMut::new(),
            n_events: 0,
            meter: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// An empty writer whose body buffer is pre-sized for `bytes` of
    /// framed payload. Writers on a skim hot path pass the input file
    /// size (the output can never exceed it), trading one allocation
    /// for the ~20 doubling reallocs a multi-MB body would otherwise
    /// copy through.
    pub fn with_capacity(bytes: usize) -> EventWriter<T> {
        EventWriter {
            body: BytesMut::with_capacity(bytes),
            ..EventWriter::new()
        }
    }

    /// Record encode traffic into `registry`'s `codec.events_encoded` /
    /// `codec.bytes_encoded` gauges (framed bytes, excluding the file
    /// header). See [`EventReader::with_metrics`] for why these are
    /// gauges rather than counters.
    pub fn with_metrics(mut self, registry: &daspos_obs::MetricsRegistry) -> Self {
        self.meter = Some((
            registry.gauge("codec.events_encoded"),
            registry.gauge("codec.bytes_encoded"),
        ));
        self
    }

    /// Frame one event.
    pub fn push(&mut self, ev: &T) {
        let before = self.body.len();
        put_frame(&mut self.body, ev, &T::put);
        self.n_events += 1;
        if let Some((events, bytes)) = &self.meter {
            events.add(1);
            bytes.add((self.body.len() - before) as i64);
        }
    }

    /// Events framed so far.
    pub fn len(&self) -> usize {
        self.n_events
    }

    /// True when no event has been framed yet.
    pub fn is_empty(&self) -> bool {
        self.n_events == 0
    }

    /// Assemble the DPEF file: header (with the final event count) then
    /// the framed body.
    pub fn finish(self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.body.len());
        put_file_header(&mut buf, T::TIER, FORMAT_VERSION, self.n_events);
        buf.put_slice(&self.body);
        buf.freeze()
    }
}

impl<T: Encodable> Default for EventWriter<T> {
    fn default() -> Self {
        EventWriter::new()
    }
}

/// Types the codec can frame into files.
pub trait Encodable: Sized {
    /// The tier this type belongs to.
    const TIER: DataTier;
    /// Serialize one event.
    fn put(buf: &mut BytesMut, ev: &Self);
    /// Deserialize one event.
    fn get(b: &mut Bytes) -> Result<Self, CodecError>;
    /// A blank event whose collections the streaming decoder reuses.
    fn scratch() -> Self;
    /// Deserialize one event into `out`, clearing and refilling its
    /// collections while keeping their allocated capacity. On error the
    /// event is partially overwritten and must not be used.
    fn get_into(b: &mut Bytes, out: &mut Self) -> Result<(), CodecError>;

    /// Encode a file of events at the current format version.
    fn encode_events(events: &[Self]) -> Bytes {
        encode_file(Self::TIER, events, Self::put)
    }

    /// Encode a file of events with payloads produced on up to `threads`
    /// worker threads. Byte-identical to [`Encodable::encode_events`];
    /// `threads <= 1` (or a small file) takes the sequential path.
    fn encode_events_parallel(events: &[Self], threads: usize) -> Bytes
    where
        Self: Sync,
    {
        encode_file_parallel(Self::TIER, events, Self::put, FORMAT_VERSION, threads)
    }

    /// Decode a file of events.
    fn decode_events(data: &Bytes) -> Result<Vec<Self>, CodecError> {
        decode_file(data, Self::TIER, |b| Self::get(b))
    }
}

impl Encodable for RawEvent {
    const TIER: DataTier = DataTier::Raw;
    fn put(buf: &mut BytesMut, ev: &Self) {
        put_raw(buf, ev);
    }
    fn get(b: &mut Bytes) -> Result<Self, CodecError> {
        get_raw(b)
    }
    fn scratch() -> Self {
        RawEvent::new(EventHeader::new(0, 0, 0))
    }
    fn get_into(b: &mut Bytes, out: &mut Self) -> Result<(), CodecError> {
        get_raw_into(b, out)
    }
}

impl Encodable for RecoEvent {
    const TIER: DataTier = DataTier::Reco;
    fn put(buf: &mut BytesMut, ev: &Self) {
        put_reco(buf, ev);
    }
    fn get(b: &mut Bytes) -> Result<Self, CodecError> {
        get_reco(b)
    }
    fn scratch() -> Self {
        RecoEvent {
            header: EventHeader::new(0, 0, 0),
            tracks: Vec::new(),
            clusters: Vec::new(),
            muon_segments: Vec::new(),
        }
    }
    fn get_into(b: &mut Bytes, out: &mut Self) -> Result<(), CodecError> {
        get_reco_into(b, out)
    }
}

impl Encodable for AodEvent {
    const TIER: DataTier = DataTier::Aod;
    fn put(buf: &mut BytesMut, ev: &Self) {
        put_aod(buf, ev);
    }
    fn get(b: &mut Bytes) -> Result<Self, CodecError> {
        get_aod(b)
    }
    fn scratch() -> Self {
        AodEvent::new(EventHeader::new(0, 0, 0))
    }
    fn get_into(b: &mut Bytes, out: &mut Self) -> Result<(), CodecError> {
        get_aod_into(b, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_hep::FourVector;

    fn sample_aod() -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(3, 7, 99));
        ev.electrons.push(Electron {
            momentum: FourVector::from_pt_eta_phi_m(31.0, 0.4, -1.2, 0.000511),
            charge: -1,
            e_over_p: 1.02,
            isolation: 0.05,
        });
        ev.muons.push(Muon {
            momentum: FourVector::from_pt_eta_phi_m(44.0, -1.7, 2.9, 0.10566),
            charge: 1,
            n_stations: 3,
            isolation: 0.01,
        });
        ev.jets.push(Jet {
            momentum: FourVector::from_pt_eta_phi_m(120.0, 2.2, 0.1, 8.0),
            n_constituents: 14,
            em_fraction: 0.31,
        });
        ev.met = Met {
            mex: -3.2,
            mey: 12.5,
        };
        ev.candidates.push(TwoProngCandidate {
            vertex: FourVector::new(1.0, -0.5, 10.0, 0.0),
            flight_xy: 1.12,
            pt: 6.5,
            eta: 0.9,
            mass_pipi: 0.77,
            mass_ppi: 1.3,
            mass_kpi: 1.866,
            proper_time_d0_ns: 4.2e-4,
            track_indices: (2, 5),
        });
        ev.n_tracks = 17;
        ev
    }

    fn sample_raw() -> RawEvent {
        let mut ev = RawEvent::new(EventHeader::new(1, 2, 3));
        ev.tracker_hits.push(TrackerHit {
            layer: 2,
            x: 33.1,
            y: -12.9,
            z: 110.0,
            stub: 4,
        });
        ev.calo_cells.push(CaloCell {
            ieta: -14,
            iphi: 92,
            em: 21.5,
            had: 0.3,
        });
        ev.muon_hits.push(MuonHit {
            station: 1,
            eta: 1.1,
            phi: -2.2,
            stub: 4,
        });
        ev.truth_links.push(9);
        ev
    }

    #[test]
    fn aod_round_trip() {
        let events = vec![sample_aod(), AodEvent::new(EventHeader::new(1, 1, 2))];
        let data = AodEvent::encode_events(&events);
        let back = AodEvent::decode_events(&data).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn raw_round_trip() {
        let events = vec![sample_raw()];
        let data = RawEvent::encode_events(&events);
        assert_eq!(RawEvent::decode_events(&data).unwrap(), events);
    }

    #[test]
    fn reco_round_trip() {
        let ev = RecoEvent {
            header: EventHeader::new(5, 5, 5),
            tracks: vec![Track {
                pt: 12.0,
                eta: 0.3,
                phi: 1.0,
                charge: -1,
                d0: 0.01,
                z0: -3.0,
                n_hits: 9,
                first_hit_radius: 33.0,
                circle_cx: 100.0,
                circle_cy: -5000.0,
                circle_r: 5001.0,
                cot_theta: 0.3,
            }],
            clusters: vec![CaloCluster {
                energy: 50.0,
                eta: 1.2,
                phi: -0.4,
                em_fraction: 0.9,
                n_towers: 5,
            }],
            muon_segments: vec![MuonSegment {
                eta: 0.3,
                phi: 1.0,
                n_stations: 4,
            }],
        };
        let data = RecoEvent::encode_events(std::slice::from_ref(&ev));
        assert_eq!(RecoEvent::decode_events(&data).unwrap(), vec![ev]);
    }

    #[test]
    fn empty_file_round_trip() {
        let data = AodEvent::encode_events(&[]);
        assert!(AodEvent::decode_events(&data).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = AodEvent::encode_events(&[sample_aod()]).to_vec();
        data[0] = b'X';
        assert_eq!(
            AodEvent::decode_events(&Bytes::from(data)).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn future_version_rejected() {
        let data = encode_file_with_version(DataTier::Aod, &[sample_aod()], 2);
        match AodEvent::decode_events(&data).unwrap_err() {
            CodecError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, 2);
                assert_eq!(supported, 1);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn wrong_tier_rejected() {
        let data = RawEvent::encode_events(&[sample_raw()]);
        assert!(matches!(
            AodEvent::decode_events(&data).unwrap_err(),
            CodecError::WrongTier { .. }
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let data = AodEvent::encode_events(&[sample_aod()]);
        let truncated = data.slice(0..data.len() - 5);
        assert_eq!(
            AodEvent::decode_events(&truncated).unwrap_err(),
            CodecError::UnexpectedEof
        );
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        // Craft a file whose payload length is larger than the payload.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(DataTier::Aod.code());
        buf.put_u32_le(1);
        let mut payload = BytesMut::new();
        put_aod(&mut payload, &AodEvent::new(EventHeader::new(1, 1, 1)));
        payload.put_u8(0xFF); // trailing junk
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        assert!(matches!(
            AodEvent::decode_events(&buf.freeze()).unwrap_err(),
            CodecError::Corrupt(_)
        ));
    }

    #[test]
    fn absurd_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(DataTier::Aod.code());
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            AodEvent::decode_events(&buf.freeze()).unwrap_err(),
            CodecError::Corrupt(_)
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(DataTier::Aod.code());
        buf.put_u32_le(1);
        buf.put_u32_le(0); // impossible: payloads always carry a header
        match AodEvent::decode_events(&buf.freeze()).unwrap_err() {
            CodecError::Corrupt(msg) => assert!(msg.contains("zero-length"), "{msg}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn huge_declared_count_in_tiny_file_errors_without_huge_allocation() {
        // A 30-byte file declaring 10M events: the decoder must fail on
        // the missing data, not reserve 10M slots up front. The same
        // clamp applies inside event payloads.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(DataTier::Raw.code());
        buf.put_u32_le(MAX_COUNT); // declared events: 10M
        while buf.len() < 30 {
            buf.put_u8(0);
        }
        let data = buf.freeze();
        assert_eq!(data.len(), 30);
        // Capacity is bounded by the 19 bytes that remain after the
        // header — at most zero whole frames, never 10M.
        assert_eq!(clamped_capacity(MAX_COUNT, 19, wire::EVENT_FRAME), 0);
        assert!(RawEvent::decode_events(&data).is_err());

        // Same attack one level down: a valid file header, one frame
        // whose payload declares 10M tracker hits but carries none.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(DataTier::Raw.code());
        buf.put_u32_le(1);
        let mut payload = BytesMut::new();
        put_header(&mut payload, &EventHeader::new(1, 1, 1));
        payload.put_u32_le(MAX_COUNT); // declared tracker hits: 10M
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        assert_eq!(
            RawEvent::decode_events(&buf.freeze()).unwrap_err(),
            CodecError::UnexpectedEof
        );
    }

    #[test]
    fn clamped_capacity_bounds() {
        assert_eq!(clamped_capacity(10_000_000, 30, wire::TRACKER_HIT), 1);
        assert_eq!(clamped_capacity(10_000_000, 0, wire::TRUTH_LINK), 0);
        assert_eq!(clamped_capacity(3, 1 << 20, wire::CALO_CELL), 3);
    }

    #[test]
    fn parallel_encode_is_byte_identical() {
        let events: Vec<AodEvent> = (0..300)
            .map(|i| {
                let mut ev = sample_aod();
                ev.header = EventHeader::new(1, 1, i);
                ev.n_tracks = i as u32;
                ev
            })
            .collect();
        let sequential = AodEvent::encode_events(&events);
        for threads in [1, 2, 3, 4, 8] {
            let parallel = AodEvent::encode_events_parallel(&events, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Small inputs (sequential fallback) agree too.
        let few = &events[..5];
        assert_eq!(
            AodEvent::encode_events_parallel(few, 4),
            AodEvent::encode_events(few)
        );
    }

    #[test]
    fn seal_round_trip_is_identity() {
        let payload = AodEvent::encode_events(&[sample_aod()]);
        let sealed = seal(&payload);
        assert_eq!(sealed.len(), payload.len() + SEAL_OVERHEAD);
        assert_eq!(&sealed[..4], SEAL_MAGIC);
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn unseal_is_zero_copy() {
        let payload = AodEvent::encode_events(&[sample_aod()]);
        let sealed = seal(&payload);
        let out = unseal(&sealed).unwrap();
        // The unsealed payload is a window into the sealed allocation,
        // not a copy: same backing bytes, offset past the seal.
        assert_eq!(out.as_ptr(), sealed[SEAL_OVERHEAD..].as_ptr());
    }

    #[test]
    fn event_reader_matches_batch_decode() {
        let events: Vec<AodEvent> = (0..40)
            .map(|i| {
                let mut ev = sample_aod();
                ev.header = EventHeader::new(7, 1, i);
                ev.n_tracks = i as u32;
                ev
            })
            .collect();
        let data = AodEvent::encode_events(&events);
        let batch = AodEvent::decode_events(&data).unwrap();
        let mut reader = EventReader::<AodEvent>::new(&data).unwrap();
        assert_eq!(reader.n_events(), events.len() as u32);
        let mut streamed = Vec::new();
        while let Some(ev) = reader.next().unwrap() {
            streamed.push(ev.clone());
        }
        assert_eq!(streamed, batch);
        assert_eq!(reader.events_decoded(), events.len() as u32);
        // Exhausted readers keep returning None.
        assert!(reader.next().unwrap().is_none());
    }

    #[test]
    fn event_reader_rejects_what_batch_rejects() {
        let data = AodEvent::encode_events(&[sample_aod(), sample_aod()]);
        // Header errors surface at construction.
        let mut bad = data.to_vec();
        bad[0] = b'X';
        assert_eq!(
            EventReader::<AodEvent>::new(&Bytes::from(bad)).err().unwrap(),
            CodecError::BadMagic
        );
        // Truncation surfaces at the same event position with the same
        // error as the batch decoder.
        let truncated = data.slice(0..data.len() - 3);
        let batch_err = AodEvent::decode_events(&truncated).unwrap_err();
        let mut reader = EventReader::<AodEvent>::new(&truncated).unwrap();
        assert!(reader.next().unwrap().is_some());
        assert_eq!(reader.next().unwrap_err(), batch_err);
    }

    #[test]
    fn event_writer_is_byte_identical_to_batch_encode() {
        let events: Vec<AodEvent> = (0..25)
            .map(|i| {
                let mut ev = sample_aod();
                ev.header = EventHeader::new(2, 3, i);
                ev
            })
            .collect();
        let mut writer = EventWriter::<AodEvent>::new();
        assert!(writer.is_empty());
        for ev in &events {
            writer.push(ev);
        }
        assert_eq!(writer.len(), events.len());
        assert_eq!(writer.finish(), AodEvent::encode_events(&events));
        // Empty writer produces the canonical empty file too.
        assert_eq!(
            EventWriter::<AodEvent>::new().finish(),
            AodEvent::encode_events(&[])
        );
    }

    #[test]
    fn get_into_clears_stale_scratch_state() {
        // Decode a populated event into the scratch, then a sparse one:
        // no collections may leak from the first into the second.
        let full = sample_aod();
        let sparse = AodEvent::new(EventHeader::new(9, 9, 9));
        let data = AodEvent::encode_events(&[full.clone(), sparse.clone()]);
        let mut reader = EventReader::<AodEvent>::new(&data).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), &full);
        assert_eq!(reader.next().unwrap().unwrap(), &sparse);
    }

    #[test]
    fn seal_detects_every_single_byte_flip() {
        // fnv64 is bijective per absorbed byte, so any one-byte change in
        // the payload changes the digest; a flip in the stored digest
        // itself obviously mismatches too. Exhaustive over a small file.
        let payload = AodEvent::encode_events(&[sample_aod()]);
        let sealed = seal(&payload);
        for offset in 0..sealed.len() {
            for bit in 0..8 {
                let mut mutated = sealed.to_vec();
                mutated[offset] ^= 1 << bit;
                let err = unseal(&Bytes::from(mutated))
                    .expect_err(&format!("flip at {offset} bit {bit} undetected"));
                if offset < 4 {
                    assert_eq!(err, CodecError::BadMagic);
                } else {
                    assert!(matches!(err, CodecError::SealMismatch { .. }));
                }
            }
        }
    }

    #[test]
    fn seal_rejects_truncation_and_junk() {
        let sealed = seal(&AodEvent::encode_events(&[sample_aod()]));
        for cut in [0, 5, SEAL_OVERHEAD, sealed.len() - 1] {
            let truncated = Bytes::copy_from_slice(&sealed[..cut]);
            assert!(unseal(&truncated).is_err(), "cut at {cut} accepted");
        }
        assert_eq!(
            unseal(&Bytes::from_static(b"XXXXXXXXXXXXXXXX")).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn error_categories_cover_the_taxonomy() {
        let cases = [
            (CodecError::UnexpectedEof, ErrorCategory::Framing),
            (CodecError::BadMagic, ErrorCategory::Magic),
            (
                CodecError::UnsupportedVersion {
                    found: 2,
                    supported: 1,
                },
                ErrorCategory::Version,
            ),
            (
                CodecError::WrongTier {
                    found: 1,
                    expected: 2,
                },
                ErrorCategory::Tier,
            ),
            (
                CodecError::Corrupt("x".to_string()),
                ErrorCategory::Structure,
            ),
            (
                CodecError::SealMismatch {
                    stored: 1,
                    actual: 2,
                },
                ErrorCategory::Integrity,
            ),
        ];
        for (err, cat) in cases {
            assert_eq!(err.category(), cat, "{err}");
            assert!(!cat.name().is_empty());
        }
    }

    #[test]
    fn sizes_match_estimates_roughly() {
        let ev = sample_aod();
        let data = AodEvent::encode_events(std::slice::from_ref(&ev));
        // Within a factor of two of the byte_size() estimate.
        let est = ev.byte_size();
        assert!(
            data.len() > est / 2 && data.len() < est * 2 + 64,
            "encoded {} vs estimated {est}",
            data.len()
        );
    }
}
