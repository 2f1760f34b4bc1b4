//! Columnar AOD tier: the "DPCF" container.
//!
//! The row codec ([`crate::codec`]) frames whole events, so *any* query
//! pays the full decode of every field it never looks at. DPCF re-lays
//! the same AOD events out as per-field columns — the ROOT-TTree-branch
//! idiom — so a skim predicate touches only the bytes it reads: a pT cut
//! over the standard ten-column schema decodes exactly the two lepton-p4
//! columns and copies survivors with plain `memcpy`, never materializing
//! an event. This is the DPHEP argument made structural: preserved data
//! must stay cheap to query even as the access software around it keeps
//! changing, so the layout itself carries the access pattern.
//!
//! ```text
//! file   := "DPCF" version:u16le tier:u8 n_rows:u32le n_cols:u8 table frames
//! table  := n_cols × (col_id:u8 offset:u32le length:u32le digest:u64le)
//! frames := column frames, concatenated in table order
//! v1 frame := raw column payload
//! v2 frame := tag:u8 body        (tag: 0 raw, 1 dict, 2 delta, 3 rle;
//!                                 1 and 3 are read-only legacy tags)
//! ```
//!
//! Offsets are relative to the end of the table and must tile the frames
//! region exactly — any truncation, extension or table edit is caught at
//! [`ColumnarFile::parse`] before a single column byte is read. Each
//! column is independently sealed by the `digest` in its table entry
//! (a 4-lane interleaved FNV-1a, [`fnv64_wide`]), so the verifying reader
//! detects every payload bit flip while the hot skim path may skip the
//! hash exactly as the row path trusts DPEF payloads (archive-level seals
//! cover both). The digest covers the *stored* frame bytes — tag
//! included — so an encoding-tag flip is caught like any payload flip.
//!
//! Version 2 writes each column frame delta-encoded (tag 2) and keeps
//! the raw frame (tag 0) only when delta is not strictly smaller, so
//! the choice is a pure function of the raw column bytes and skim
//! output stays canonical. Tags 1 (dictionary) and 3 (run-length) are
//! read-only legacy encodings: earlier writers emitted them, no chain
//! dataset ever chose them, and every reader still decodes them.
//! Version-1 files still parse and decode; see DESIGN.md §14 for the
//! per-encoding byte layouts and the ablation that retired the
//! dictionary and run-length writers.
//!
//! Fixed columns hold one `stride`-sized record per row; a raw variable
//! column holds `count:u32le` then `count × entry_size` bytes per row,
//! and a delta-coded one a counts block then its entries. Electron/muon/
//! jet objects are split into a *p4* column (the four-momentum every
//! kinematic cut reads) and an *id* column (the identification payload
//! cuts almost never read).
//!
//! Every read walks each column frame once, with one walker
//! ([`walk_rows`], then [`RecordWalk::walk`]) that checks the frame's
//! structure and hands the records it decodes on: all of them to an
//! opened reader's buffer, none at all for the verify, and the
//! survivors' to the skim, which also codes them onto its output frame.
//! Readers hold every
//! column in the writer's shape, whatever its frame: fixed records back
//! to back, or a variable column's entries back to back with per-row
//! entry offsets built from its counts, so consecutive rows are
//! contiguous bytes and the skim copies each run of survivors of a fat
//! column with one `memcpy`.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};
use daspos_hep::digest::{FNV64_OFFSET, FNV64_PRIME};
use daspos_hep::event::EventHeader;
use daspos_hep::fourvec::FourVector;
use daspos_hep::par;
use daspos_obs::MetricsRegistry;
use daspos_reco::objects::{AodEvent, Electron, Jet, Met, Muon, Photon, TwoProngCandidate};

use crate::codec::{fnv64, CodecError, MAX_COUNT};
use crate::skim::{MassHypothesis, Selection, SkimReport, SlimSpec};
use crate::tier::DataTier;

/// Magic of the columnar container: "DASPOS Columnar File".
pub const COLUMNAR_MAGIC: &[u8; 4] = b"DPCF";

/// Current columnar format version: per-column encoded frames.
pub const COLUMNAR_VERSION: u16 = 2;

/// The original raw-frames format; still parsed and decoded.
pub const COLUMNAR_VERSION_V1: u16 = 1;

// v2 frame tags: the first byte of every column frame names the
// encoding of the remainder.
const TAG_RAW: u8 = 0;
const TAG_DICT: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_RLE: u8 = 3;

// Counts-block modes for v2 variable columns.
const COUNTS_VARINT: u8 = 0;
const COUNTS_RLE: u8 = 1;

/// Longest run one RLE pair (counts block or legacy RLE frame) may
/// cover. Caps how many output bytes a single input pair can demand, so
/// a forged tiny frame cannot request an allocation out of proportion
/// to its own size; the encoder just splits longer runs into several
/// pairs.
const MAX_RUN: u64 = 255;

/// Number of columns in the AOD schema.
pub const N_COLUMNS: usize = 10;

/// magic + version + tier + n_rows + n_cols.
const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 1;

/// col_id + offset + length + digest.
const TABLE_ENTRY_LEN: usize = 1 + 4 + 4 + 8;

/// Byte offset of the frames region (end of the column table).
const FRAMES_BASE: usize = HEADER_LEN + N_COLUMNS * TABLE_ENTRY_LEN;

/// Which physical layout a tier file uses. The logical content — events,
/// skim semantics, provenance — is identical; only the byte layout and
/// therefore the access cost of partial reads differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierFormat {
    /// Row-major DPEF event frames (the default; archival baseline).
    #[default]
    Row,
    /// Column-major DPCF (predicate-pushdown skims).
    Columnar,
}

impl TierFormat {
    /// Stable name, used by the CLI switch.
    pub fn name(self) -> &'static str {
        match self {
            TierFormat::Row => "row",
            TierFormat::Columnar => "columnar",
        }
    }

    /// Inverse of [`TierFormat::name`].
    pub fn parse(s: &str) -> Option<TierFormat> {
        Some(match s {
            "row" => TierFormat::Row,
            "columnar" => TierFormat::Columnar,
            _ => return None,
        })
    }
}

/// 4-lane word-interleaved FNV-style mix — the column digest.
///
/// Plain [`fnv64`] is a strict serial dependency chain (one xor-multiply
/// per byte), which would make sealing skim output as expensive as the
/// row re-encode the columnar path exists to avoid. Each lane absorbs a
/// full little-endian u64 word per step (xor then multiply by the FNV
/// prime), and the four lanes stripe over 32-byte blocks, so the four
/// multiplies retire in parallel and the digest moves at word speed
/// instead of byte speed. A single corrupted word is always detected:
/// `lane ← (lane ⊕ w) · prime` is a bijection of `lane` for fixed `w`
/// and injective in `w` for fixed `lane`, so the damaged lane's final
/// state must differ. Trailing bytes (len % 32) feed the lanes
/// round-robin byte-wise; the lane states and the total length are
/// folded through a final plain [`fnv64`].
pub fn fnv64_wide(data: &[u8]) -> u64 {
    let mut lanes = [
        FNV64_OFFSET,
        FNV64_OFFSET.wrapping_mul(FNV64_PRIME),
        FNV64_OFFSET
            .wrapping_mul(FNV64_PRIME)
            .wrapping_mul(FNV64_PRIME),
        FNV64_OFFSET
            .wrapping_mul(FNV64_PRIME)
            .wrapping_mul(FNV64_PRIME)
            .wrapping_mul(FNV64_PRIME),
    ];
    let mut chunks = data.chunks_exact(32);
    for c in chunks.by_ref() {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[k * 8..k * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(FNV64_PRIME);
        }
    }
    for (i, byte) in chunks.remainder().iter().enumerate() {
        let lane = &mut lanes[i % 4];
        *lane ^= u64::from(*byte);
        *lane = lane.wrapping_mul(FNV64_PRIME);
    }
    let mut tail = [0u8; 40];
    for (i, lane) in lanes.iter().enumerate() {
        tail[i * 8..i * 8 + 8].copy_from_slice(&lane.to_le_bytes());
    }
    tail[32..40].copy_from_slice(&(data.len() as u64).to_le_bytes());
    fnv64(&tail)
}

/// The ten columns of the AOD schema, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColumnId {
    /// Event coordinates: run, lumi, event (fixed 16 B/row).
    Header = 0,
    /// Electron four-momenta (32 B/entry).
    ElectronP4 = 1,
    /// Electron identification: charge, E/p, isolation (17 B/entry).
    ElectronId = 2,
    /// Muon four-momenta (32 B/entry).
    MuonP4 = 3,
    /// Muon identification: charge, stations, isolation (10 B/entry).
    MuonId = 4,
    /// Photons: four-momentum + isolation (40 B/entry).
    Photon = 5,
    /// Jet four-momenta (32 B/entry).
    JetP4 = 6,
    /// Jet identification: constituents, EM fraction (12 B/entry).
    JetId = 7,
    /// Two-prong candidates (96 B/entry).
    Candidate = 8,
    /// Event scalars: MET x/y, track multiplicity (fixed 20 B/row).
    Scalars = 9,
}

/// Physical layout of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColumnLayout {
    /// One `stride`-byte record per row.
    Fixed(usize),
    /// A per-row count of `entry`-byte entries.
    Var(usize),
}

impl ColumnId {
    /// All columns in table order.
    pub const ALL: [ColumnId; N_COLUMNS] = [
        ColumnId::Header,
        ColumnId::ElectronP4,
        ColumnId::ElectronId,
        ColumnId::MuonP4,
        ColumnId::MuonId,
        ColumnId::Photon,
        ColumnId::JetP4,
        ColumnId::JetId,
        ColumnId::Candidate,
        ColumnId::Scalars,
    ];

    /// Stable short name (diagnostics, obs counters).
    pub fn name(self) -> &'static str {
        match self {
            ColumnId::Header => "header",
            ColumnId::ElectronP4 => "e-p4",
            ColumnId::ElectronId => "e-id",
            ColumnId::MuonP4 => "mu-p4",
            ColumnId::MuonId => "mu-id",
            ColumnId::Photon => "gamma",
            ColumnId::JetP4 => "jet-p4",
            ColumnId::JetId => "jet-id",
            ColumnId::Candidate => "cand",
            ColumnId::Scalars => "scalars",
        }
    }

    fn layout(self) -> ColumnLayout {
        match self {
            ColumnId::Header => ColumnLayout::Fixed(16),
            ColumnId::ElectronP4 => ColumnLayout::Var(32),
            ColumnId::ElectronId => ColumnLayout::Var(17),
            ColumnId::MuonP4 => ColumnLayout::Var(32),
            ColumnId::MuonId => ColumnLayout::Var(10),
            ColumnId::Photon => ColumnLayout::Var(40),
            ColumnId::JetP4 => ColumnLayout::Var(32),
            ColumnId::JetId => ColumnLayout::Var(12),
            ColumnId::Candidate => ColumnLayout::Var(96),
            ColumnId::Scalars => ColumnLayout::Fixed(20),
        }
    }
}

/// One validated table entry, with the offset made absolute.
#[derive(Debug, Clone, Copy)]
struct ColMeta {
    offset: usize,
    len: usize,
    digest: u64,
}

// --- Little-endian slice readers (columns are random-access, so these
// --- work on offsets rather than a consuming cursor) ------------------------

#[inline]
fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}
#[inline]
fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}
#[inline]
fn rd_f64(b: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}
#[inline]
fn rd_p4(b: &[u8], off: usize) -> FourVector {
    FourVector {
        px: rd_f64(b, off),
        py: rd_f64(b, off + 8),
        pz: rd_f64(b, off + 16),
        e: rd_f64(b, off + 24),
    }
}

/// Length laws a raw (unencoded) column payload must satisfy: fixed
/// columns are exactly `n_rows × stride`; variable columns carry at
/// least one `count:u32` per row.
fn check_raw_len(id: ColumnId, len: usize, n_rows: usize) -> Result<(), CodecError> {
    match id.layout() {
        ColumnLayout::Fixed(stride) => {
            if len != n_rows * stride {
                return Err(CodecError::Corrupt(format!(
                    "fixed column '{}' is {len} bytes for {n_rows} \
                     rows of {stride}",
                    id.name()
                )));
            }
        }
        ColumnLayout::Var(_) => {
            if len < 4 * n_rows {
                return Err(CodecError::Corrupt(format!(
                    "column '{}' is {len} bytes, too short for {n_rows} \
                     row counts",
                    id.name()
                )));
            }
        }
    }
    Ok(())
}

/// A parsed DPCF file: header and column table validated, column payloads
/// untouched. Reading is lazy — a column is decoded only when a query
/// first reads it, so a query pays only for the bytes it asks for.
#[derive(Debug, Clone)]
pub struct ColumnarFile {
    data: Bytes,
    version: u16,
    n_rows: usize,
    cols: [ColMeta; N_COLUMNS],
}

impl ColumnarFile {
    /// Validate the header and column table.
    ///
    /// The table must list the ten schema columns in canonical order with
    /// contiguous offsets that tile the frames region exactly; fixed
    /// columns must have length `n_rows × stride`. Any truncated,
    /// extended or table-edited file fails here, before column reads.
    pub fn parse(data: &Bytes) -> Result<ColumnarFile, CodecError> {
        let d: &[u8] = data;
        if d.len() < HEADER_LEN {
            return Err(CodecError::UnexpectedEof);
        }
        if &d[0..4] != COLUMNAR_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes([d[4], d[5]]);
        if version != COLUMNAR_VERSION && version != COLUMNAR_VERSION_V1 {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: COLUMNAR_VERSION,
            });
        }
        if d[6] != DataTier::Aod.code() {
            return Err(CodecError::WrongTier {
                found: d[6],
                expected: DataTier::Aod.code(),
            });
        }
        let n_rows = rd_u32(d, 7);
        if n_rows > MAX_COUNT {
            return Err(CodecError::Corrupt(format!(
                "row count {n_rows} exceeds sanity limit"
            )));
        }
        let n_rows = n_rows as usize;
        if d[11] as usize != N_COLUMNS {
            return Err(CodecError::Corrupt(format!(
                "expected {N_COLUMNS} columns, found {}",
                d[11]
            )));
        }
        if d.len() < FRAMES_BASE {
            return Err(CodecError::UnexpectedEof);
        }
        let mut cols = [ColMeta {
            offset: 0,
            len: 0,
            digest: 0,
        }; N_COLUMNS];
        let mut expect_off = 0usize;
        for (i, id) in ColumnId::ALL.iter().enumerate() {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            if d[e] as usize != i {
                return Err(CodecError::Corrupt(format!(
                    "column table out of order: slot {i} holds id {}",
                    d[e]
                )));
            }
            let offset = rd_u32(d, e + 1) as usize;
            let len = rd_u32(d, e + 5) as usize;
            let digest = rd_u64(d, e + 9);
            if offset != expect_off {
                return Err(CodecError::Corrupt(format!(
                    "column '{}' offset {offset} breaks the frame tiling \
                     (expected {expect_off})",
                    id.name()
                )));
            }
            if version == COLUMNAR_VERSION_V1 {
                check_raw_len(*id, len, n_rows)?;
            } else if len == 0 {
                return Err(CodecError::Corrupt(format!(
                    "column '{}' has an empty v2 frame (no encoding tag)",
                    id.name()
                )));
            }
            cols[i] = ColMeta {
                offset: FRAMES_BASE + offset,
                len,
                digest,
            };
            expect_off += len;
        }
        if FRAMES_BASE + expect_off != d.len() {
            return Err(CodecError::Corrupt(format!(
                "column frames cover {expect_off} bytes but the file \
                 carries {}",
                d.len() - FRAMES_BASE
            )));
        }
        if version != COLUMNAR_VERSION_V1 {
            // The frames region is fully bounds-checked now; vet every
            // encoding tag, and hold raw frames to the v1 length laws.
            for (i, id) in ColumnId::ALL.iter().enumerate() {
                let tag = d[cols[i].offset];
                if tag > TAG_RLE {
                    return Err(CodecError::Corrupt(format!(
                        "column '{}' carries unknown encoding tag {tag}",
                        id.name()
                    )));
                }
                if tag == TAG_RAW {
                    check_raw_len(*id, cols[i].len - 1, n_rows)?;
                }
            }
        }
        Ok(ColumnarFile {
            data: data.clone(),
            version,
            n_rows,
            cols,
        })
    }

    /// Format version of the parsed file (1 or 2).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Rows (events) in the file.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The stored frame of `id`. `verify` checks the table digest over
    /// it first — the archival read path; the hot skim path skips it,
    /// exactly as row-format DPEF payloads are trusted between archive
    /// seals.
    fn frame(&self, id: ColumnId, verify: bool) -> Result<&[u8], CodecError> {
        let meta = self.cols[id as usize];
        let frame = &self.data[meta.offset..meta.offset + meta.len];
        if verify {
            let actual = fnv64_wide(frame);
            if actual != meta.digest {
                return Err(CodecError::SealMismatch {
                    stored: meta.digest,
                    actual,
                });
            }
        }
        Ok(frame)
    }

    /// Open one column ([`ColumnarFile::frame`] says what `verify`
    /// adds): the walk's records land in the reader's own buffer, or the
    /// reader windows the verbatim entries of a fat column in place.
    /// Every frame comes back in the one [`ColumnReader`] layout, so
    /// callers never see the encoding.
    fn open(&self, id: ColumnId, verify: bool) -> Result<ColumnReader, CodecError> {
        let frame = self.frame(id, verify)?;
        let mut starts = Vec::new();
        let payload = match walk_rows(id, self.version, frame, self.n_rows, &mut starts)? {
            Body::Verbatim(entries) => {
                let at = self.cols[id as usize].offset;
                self.data.slice(at + entries.start..at + entries.end)
            }
            Body::Records(records) => {
                let (all, mut out) = ([(0, records.n_records)], Vec::new());
                records.walk(&starts, &all, &mut out, None)?;
                Bytes::from(out)
            }
        };
        Ok(ColumnReader {
            layout: id.layout(),
            payload,
            starts,
        })
    }

    /// Fully verify the file: every column digest, every structural walk,
    /// every cross-column count invariant. The walk builds nothing: its
    /// records go nowhere, and only a p4 column's row offsets are kept,
    /// until its id column has been walked and compared with them. A
    /// count mismatch is reported only once every column has passed, as
    /// the check over all ten opened columns reported it.
    pub fn verify(&self) -> Result<(), CodecError> {
        let (mut starts, mut p4_starts) = (Vec::new(), Vec::new());
        let mut mismatch = Ok(());
        for id in ColumnId::ALL {
            let frame = self.frame(id, true)?;
            if let Body::Records(records) =
                walk_rows(id, self.version, frame, self.n_rows, &mut starts)?
            {
                records.walk(&starts, &[], &mut Vec::new(), None)?;
            }
            if PAIRS.iter().any(|&(p4, _)| p4 == id) {
                std::mem::swap(&mut starts, &mut p4_starts);
            } else if let Some(&(p4, _)) = PAIRS.iter().find(|&&(_, i)| i == id) {
                mismatch = mismatch.and_then(|()| check_pair(p4, id, &p4_starts, &starts));
            }
        }
        mismatch
    }

    /// Decode every row back into AOD events — the verifying, archival
    /// inverse of [`from_rows`]. Byte-identical round trip:
    /// `AodEvent::encode_events(&file.to_rows()?)` reproduces the row
    /// file the events came from, and `from_rows(&file.to_rows()?)`
    /// reproduces this file.
    pub fn to_rows(&self) -> Result<Vec<AodEvent>, CodecError> {
        let mut readers: [Option<ColumnReader>; N_COLUMNS] = Default::default();
        for id in ColumnId::ALL {
            readers[id as usize] = Some(self.open(id, true)?);
        }
        let r = readers.map(|r| r.expect("all columns opened"));
        for (p4, id) in PAIRS {
            check_pair(p4, id, &r[p4 as usize].starts, &r[id as usize].starts)?;
        }
        let keep_all = SlimSpec::keep_all();
        Ok((0..self.n_rows)
            .map(|row| {
                let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
                decode_row_into(&r, row, &keep_all, &mut ev);
                ev
            })
            .collect())
    }

    /// Encode AOD events into a columnar file (current version, with
    /// each column frame written delta-or-raw).
    /// Deterministic: the same events always produce the same bytes.
    ///
    /// Panics if the row count exceeds the u32 field — truncating the
    /// count would archive a lie, same policy as the row codec.
    pub fn from_rows(events: &[AodEvent]) -> Bytes {
        encode_columnar_parallel(events, 1)
    }

    /// Encode AOD events as a version-1 file (raw frames throughout).
    /// Kept for backward-compat coverage and the v1-vs-v2 size
    /// comparison; new files come from [`ColumnarFile::from_rows`].
    pub fn from_rows_v1(events: &[AodEvent]) -> Bytes {
        let n_rows = row_count(events);
        let size: usize = ColumnId::ALL.iter().map(|&id| raw_len(id, events)).sum();
        let mut buf = BytesMut::with_capacity(FRAMES_BASE + size);
        buf.put_slice(&[0; FRAMES_BASE]);
        let lens = ColumnId::ALL.map(|id| {
            let (counts, entries) = build_column(id, events);
            put_raw(&mut buf, id, &counts, &entries);
            4 * counts.len() + entries.len()
        });
        seal_file(buf, COLUMNAR_VERSION_V1, n_rows, &lens)
    }
}

/// The DPCF row-count field for `events`; panics past u32.
fn row_count(events: &[AodEvent]) -> u32 {
    u32::try_from(events.len()).unwrap_or_else(|_| {
        panic!(
            "event count {} exceeds the u32 DPCF row field",
            events.len()
        )
    })
}

#[inline]
fn put_p4(buf: &mut BytesMut, v: &FourVector) {
    buf.put_f64_le(v.px);
    buf.put_f64_le(v.py);
    buf.put_f64_le(v.pz);
    buf.put_f64_le(v.e);
}

/// Finish a file written in place: `buf` holds [`FRAMES_BASE`] reserved
/// bytes, then the ten frames back to back with the given lengths. The
/// header and the table (with digests over the stored frames) are
/// stamped into the reserved bytes, so no frame is ever copied.
fn seal_file(mut buf: BytesMut, version: u16, n_rows: u32, lens: &[usize; N_COLUMNS]) -> Bytes {
    let mut head = Vec::with_capacity(FRAMES_BASE);
    head.put_slice(COLUMNAR_MAGIC);
    head.put_u16_le(version);
    head.put_u8(DataTier::Aod.code());
    head.put_u32_le(n_rows);
    head.put_u8(N_COLUMNS as u8);
    let (mut at, mut off) = (FRAMES_BASE, 0u32);
    for (i, &len) in lens.iter().enumerate() {
        let len32 = u32::try_from(len)
            .unwrap_or_else(|_| panic!("column {i} of {len} bytes exceeds the u32 length field"));
        head.put_u8(i as u8);
        head.put_u32_le(off);
        head.put_u32_le(len32);
        head.put_u64_le(fnv64_wide(&buf[at..at + len]));
        at += len;
        off = off
            .checked_add(len32)
            .expect("columnar frames exceed the u32 offset field");
    }
    buf[..FRAMES_BASE].copy_from_slice(&head);
    buf.freeze()
}

// --- v2 per-column encodings ------------------------------------------------

/// How the delta encoding treats one record field. `U32`/`U64` store
/// the zigzag-varint of the difference to the previous record's field;
/// `F64` stores the varint of the XOR of the bit patterns (a repeated
/// value — isolation exactly 0.0, a constant run number — costs one
/// byte); `Byte` passes through verbatim.
#[derive(Debug, Clone, Copy)]
enum FieldKind {
    Byte,
    U32,
    U64,
    F64,
}

/// Widest field plan (fields per record) across the schema.
const MAX_PLAN_FIELDS: usize = 3;

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Bytes a delta frame may run past its raw size before the writer
/// notices and falls back to raw: one record's varints, plus the 8-byte
/// store [`put_varint`] makes before cutting back.
const FRAME_SLACK: usize = MAX_PLAN_FIELDS * MAX_VARINT_LEN + 8;

// The field plans of the thin columns, one per column.
const HEADER_PLAN: [FieldKind; 3] = [FieldKind::U32, FieldKind::U32, FieldKind::U64];
const SCALARS_PLAN: [FieldKind; 3] = [FieldKind::F64, FieldKind::F64, FieldKind::U32];
const E_ID_PLAN: [FieldKind; 3] = [FieldKind::Byte, FieldKind::F64, FieldKind::F64];
const MU_ID_PLAN: [FieldKind; 3] = [FieldKind::Byte, FieldKind::Byte, FieldKind::F64];
const JET_ID_PLAN: [FieldKind; 2] = [FieldKind::U32, FieldKind::F64];

/// Per-record field plan for the delta encoding, `None` for the fat
/// four-momentum-bearing columns whose float payloads rarely delta well:
/// there v2 stores the entries verbatim and compresses only the counts
/// block (still a large win — a 4-byte prefix per row shrinks to a
/// varint or a run). The plan is a static function of the column, so
/// the decoder needs no side channel.
fn delta_plan(id: ColumnId) -> Option<&'static [FieldKind]> {
    Some(match id {
        ColumnId::Header => &HEADER_PLAN,
        ColumnId::Scalars => &SCALARS_PLAN,
        ColumnId::ElectronId => &E_ID_PLAN,
        ColumnId::MuonId => &MU_ID_PLAN,
        ColumnId::JetId => &JET_ID_PLAN,
        ColumnId::ElectronP4
        | ColumnId::MuonP4
        | ColumnId::Photon
        | ColumnId::JetP4
        | ColumnId::Candidate => return None,
    })
}

/// LEB128 unsigned varint (7 bits per byte, high bit continues).
/// Varints dominate the delta streams, so this is hot: a one-byte value
/// is one push; a longer one has its low eight 7-bit groups spread one
/// per byte of a `u64` in registers, continuation bits or'd in, and is
/// appended as one fixed 8-byte store (plus a 2-byte store for the
/// groups past 56 bits) cut back to the encoded length — never a
/// variable-length copy.
#[inline]
fn put_varint(buf: &mut BytesMut, v: u64) {
    if v < 0x80 {
        buf.put_u8(v as u8);
        return;
    }
    const CONT: u64 = 0x8080_8080_8080_8080;
    let n = varint_len(v);
    let end = buf.len() + n;
    let spread = (v & 0x7f)
        | (v << 1 & 0x7f00)
        | (v << 2 & 0x7f_0000)
        | (v << 3 & 0x7f00_0000)
        | (v << 4 & 0x7f_0000_0000)
        | (v << 5 & 0x7f00_0000_0000)
        | (v << 6 & 0x7f_0000_0000_0000)
        | (v << 7 & 0x7f00_0000_0000_0000);
    // Continuation bits on every byte but the last (n >= 2 here).
    buf.put_u64_le(spread | CONT >> (8 * (9 - n.min(9))));
    if n > 8 {
        // Groups 8 and 9: bits 56..63 and bit 63 alone.
        let hi = v >> 56;
        let tenth = hi >> 7;
        buf.put_u16_le(((hi & 0x7f) | tenth << 7 | tenth << 8) as u16);
    }
    buf.truncate(end);
}

/// Encoded size of [`put_varint`]'s output, computed from the bit
/// width (branchless; the counts-block mode choice sums this per row).
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bounds-checked varint read; rejects encodings past 10 bytes or
/// overflowing 64 bits, so a corrupt stream cannot spin or wrap. When
/// at least a maximal varint's worth of bytes remains, the read is one
/// 8-byte load: the first byte without a continuation bit ends the
/// varint, and its 7-bit groups are packed by shifts and masks
/// ([`pack_groups`], the inverse of [`put_varint`]'s spread) — no loop
/// over the bytes. XOR'd doubles routinely encode to 8–10 bytes, so this
/// path carries most of the delta decode.
#[inline]
fn get_varint(b: &[u8], off: &mut usize) -> Result<u64, CodecError> {
    let Some(s) = b.get(*off..*off + MAX_VARINT_LEN) else {
        return get_varint_slow(b, off);
    };
    let word = u64::from_le_bytes(s[..8].try_into().expect("8 bytes"));
    if word & 0x80 == 0 {
        *off += 1;
        return Ok(word & 0x7f);
    }
    let stops = !word & 0x8080_8080_8080_8080;
    if stops != 0 {
        let len = stops.trailing_zeros() as usize / 8 + 1; // 2..=8 bytes
        *off += len;
        return Ok(pack_groups(word & u64::MAX >> (64 - 8 * len)));
    }
    // Nine or ten bytes: the first eight carry the low 56 bits.
    let (ninth, tenth) = (u64::from(s[8]), u64::from(s[9]));
    if ninth < 0x80 {
        *off += 9;
        return Ok(pack_groups(word) | ninth << 56);
    }
    if tenth > 1 {
        return Err(varint_overflow());
    }
    *off += 10;
    Ok(pack_groups(word) | (ninth & 0x7f) << 56 | tenth << 63)
}

#[cold]
fn varint_overflow() -> CodecError {
    CodecError::Corrupt("varint overflows u64".into())
}

/// The low 7 bits of each byte of `w`, packed into 56 bits.
#[inline]
fn pack_groups(w: u64) -> u64 {
    let w = w & 0x7f7f_7f7f_7f7f_7f7f;
    (w & 0x7f)
        | (w >> 1 & 0x3f80)
        | (w >> 2 & 0x1f_c000)
        | (w >> 3 & 0xfe0_0000)
        | (w >> 4 & 0x7_f000_0000)
        | (w >> 5 & 0x3f8_0000_0000)
        | (w >> 6 & 0x1_fc00_0000_0000)
        | (w >> 7 & 0xfe_0000_0000_0000)
}

/// Buffer-tail fallback of [`get_varint`]: byte-at-a-time with a
/// bounds check per byte, reachable only within 10 bytes of the end.
fn get_varint_slow(b: &[u8], off: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = b.get(*off) else {
            return Err(CodecError::UnexpectedEof);
        };
        *off += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint runs past 10 bytes".into()));
        }
    }
}

/// Map signed deltas onto small unsigned varints (zigzag).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Call `f(count, run)` for each run of equal counts, runs capped at
/// [`MAX_RUN`] rows (the RLE mode's pairs, in order).
#[inline]
fn for_each_run(counts: &[u32], mut f: impl FnMut(u32, usize)) {
    let mut i = 0usize;
    while i < counts.len() {
        let c = counts[i];
        let mut run = 1usize;
        while i + run < counts.len() && run < MAX_RUN as usize && counts[i + run] == c {
            run += 1;
        }
        f(c, run);
        i += run;
    }
}

/// Mode and byte length of the counts block for the per-row entry
/// counts of a variable column: one mode byte, then either a plain
/// varint per row or (run, count) varint pairs — whichever is smaller
/// (ties go to the varint mode). Both sizes come from one scan.
fn counts_block(counts: &[u32]) -> (u8, usize) {
    let (mut varint_size, mut rle_size) = (0usize, 0usize);
    for_each_run(counts, |c, run| {
        let c_len = varint_len(u64::from(c));
        varint_size += run * c_len;
        rle_size += varint_len(run as u64) + c_len;
    });
    if rle_size < varint_size {
        (COUNTS_RLE, 1 + rle_size)
    } else {
        (COUNTS_VARINT, 1 + varint_size)
    }
}

/// Append the counts block in the `mode` [`counts_block`] chose.
fn put_counts(out: &mut BytesMut, counts: &[u32], mode: u8) {
    out.put_u8(mode);
    if mode == COUNTS_RLE {
        for_each_run(counts, |c, run| {
            put_varint(out, run as u64);
            put_varint(out, u64::from(c));
        });
    } else {
        for &c in counts {
            put_varint(out, u64::from(c));
        }
    }
}

/// Decode a v2 counts block into `starts`: each row's first entry index
/// and, last, the entry total (`n_rows + 1` values). Every count and the
/// running entry total are capped at [`MAX_COUNT`], and the RLE mode may
/// not overshoot the row count, so a forged block cannot demand
/// unbounded memory from the readers that size buffers off these counts.
fn decode_counts(
    b: &[u8],
    off: &mut usize,
    n_rows: usize,
    starts: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let Some(&mode) = b.get(*off) else {
        return Err(CodecError::UnexpectedEof);
    };
    *off += 1;
    starts.reserve((n_rows + 1).min(4096));
    starts.push(0);
    let mut total = 0u64;
    match mode {
        COUNTS_VARINT => {
            for _ in 0..n_rows {
                // Counts below 128 — nearly all of them — are one byte.
                let c = match b.get(*off) {
                    Some(&c) if c < 0x80 => {
                        *off += 1;
                        u64::from(c)
                    }
                    _ => get_varint(b, off)?,
                };
                total += check_count(c, total)?;
                starts.push(total as u32);
            }
        }
        COUNTS_RLE => {
            while starts.len() <= n_rows {
                let run = get_varint(b, off)?;
                if run == 0 || run > MAX_RUN {
                    return Err(CodecError::Corrupt(format!("count run {run} out of range")));
                }
                if run as usize > n_rows + 1 - starts.len() {
                    return Err(CodecError::Corrupt(
                        "count runs overshoot the row count".into(),
                    ));
                }
                let c = get_varint(b, off)?;
                for _ in 0..run {
                    total += check_count(c, total)?;
                    starts.push(total as u32);
                }
            }
        }
        _ => {
            return Err(CodecError::Corrupt(format!("unknown counts mode {mode}")));
        }
    }
    Ok(())
}

/// One count's sanity gate: itself and the running total stay under
/// [`MAX_COUNT`]. Returns the count for accumulation.
fn check_count(c: u64, total_so_far: u64) -> Result<u64, CodecError> {
    if c > u64::from(MAX_COUNT) || total_so_far + c > u64::from(MAX_COUNT) {
        return Err(CodecError::Corrupt(format!(
            "count {c} exceeds sanity limit"
        )));
    }
    Ok(c)
}

/// Delta-encode `records` (concatenated `rec`-byte records) under the
/// field `plan` into `out` (which already carries the frame prefix),
/// against `prev`, the field values of the record before them (zero at
/// the start of a column), which it leaves at the last record's. Stops
/// early once `out` is longer than `limit`, when the caller keeps the
/// raw frame anyway.
fn encode_delta(
    records: &[u8],
    rec: usize,
    plan: &[FieldKind],
    prev: &mut [u64; MAX_PLAN_FIELDS],
    out: &mut BytesMut,
    limit: usize,
) {
    for r in records.chunks_exact(rec) {
        if out.len() > limit {
            return;
        }
        let mut off = 0usize;
        for (fi, kind) in plan.iter().enumerate() {
            match kind {
                FieldKind::Byte => {
                    out.put_u8(r[off]);
                    off += 1;
                }
                FieldKind::U32 => {
                    let v = u64::from(rd_u32(r, off));
                    put_varint(out, zigzag(v as i64 - prev[fi] as i64));
                    prev[fi] = v;
                    off += 4;
                }
                FieldKind::U64 => {
                    let v = rd_u64(r, off);
                    put_varint(out, zigzag((v as i64).wrapping_sub(prev[fi] as i64)));
                    prev[fi] = v;
                    off += 8;
                }
                FieldKind::F64 => {
                    let v = rd_u64(r, off);
                    put_varint(out, v ^ prev[fi]);
                    prev[fi] = v;
                    off += 8;
                }
            }
        }
        debug_assert_eq!(off, rec, "field plan must cover the record");
    }
}

/// The field values [`encode_delta`] takes as `prev` after `rec`.
fn field_state(plan: &[FieldKind], rec: &[u8]) -> [u64; MAX_PLAN_FIELDS] {
    let mut state = [0u64; MAX_PLAN_FIELDS];
    let mut off = 0usize;
    for (fi, kind) in plan.iter().enumerate() {
        match kind {
            FieldKind::Byte => off += 1,
            FieldKind::U32 => {
                state[fi] = u64::from(rd_u32(rec, off));
                off += 4;
            }
            FieldKind::U64 | FieldKind::F64 => {
                state[fi] = rd_u64(rec, off);
                off += 8;
            }
        }
    }
    state
}

/// A column frame whose row index [`walk_rows`] has walked: the fat
/// columns' delta frames hold their entries verbatim, every other frame
/// a stream of records still to be walked.
enum Body<'f> {
    /// The frame range of a fat column's entries.
    Verbatim(Range<usize>),
    /// The records, at `records.off`.
    Records(RecordWalk<'f>),
}

/// The records of one frame, ready for [`RecordWalk::walk`].
struct RecordWalk<'f> {
    id: ColumnId,
    /// The frame's encoding; [`TAG_RAW`] for a v1 payload too.
    tag: u8,
    /// The frame, or the bare payload of a raw one.
    b: &'f [u8],
    off: usize,
    n_records: usize,
    rec: usize,
}

/// The first half of the one walk of a column frame: its encoding and
/// its row index, with every check on them, in one order, so the reader,
/// the verify and the skim fail alike on the same bytes. `starts`
/// receives a variable column's row index (each row's first entry index,
/// then the entry total); it is left empty for a fixed column.
fn walk_rows<'f>(
    id: ColumnId,
    version: u16,
    frame: &'f [u8],
    n_rows: usize,
    starts: &mut Vec<u32>,
) -> Result<Body<'f>, CodecError> {
    starts.clear();
    let layout = id.layout();
    let (tag, body) = if version == COLUMNAR_VERSION_V1 {
        (TAG_RAW, frame)
    } else {
        (frame[0], &frame[1..])
    };
    if tag == TAG_RAW {
        let rec = match layout {
            // The length law was checked at parse.
            ColumnLayout::Fixed(stride) => stride,
            ColumnLayout::Var(entry) => {
                raw_rows(id, entry, body, n_rows, starts)?;
                entry
            }
        };
        return Ok(Body::Records(RecordWalk {
            id,
            tag,
            b: body,
            off: 0,
            n_records: starts.last().map_or(n_rows, |&total| total as usize),
            rec,
        }));
    }
    let mut off = 1usize; // past the encoding tag
    let rec = match layout {
        ColumnLayout::Fixed(stride) => stride,
        ColumnLayout::Var(entry) => {
            decode_counts(frame, &mut off, n_rows, starts)?;
            entry
        }
    };
    let n_records = starts.last().map_or(n_rows, |&total| total as usize);
    if delta_plan(id).is_some() {
        return Ok(Body::Records(RecordWalk {
            id,
            tag,
            b: frame,
            off,
            n_records,
            rec,
        }));
    }
    if tag != TAG_DELTA {
        return Err(unsupported_tag(id, tag));
    }
    if frame.len() - off != n_records * rec {
        return Err(CodecError::Corrupt(format!(
            "column '{}' entries region is {} bytes for \
             {n_records} entries of {rec}",
            id.name(),
            frame.len() - off
        )));
    }
    Ok(Body::Verbatim(off..frame.len()))
}

/// Check a raw variable payload (per row `count:u32le`, then that row's
/// entries) row by row — counts, extents, trailing bytes — into its row
/// index.
fn raw_rows(
    id: ColumnId,
    entry: usize,
    payload: &[u8],
    n_rows: usize,
    starts: &mut Vec<u32>,
) -> Result<(), CodecError> {
    // Raw payloads are at least 4 bytes per row (checked at parse), so
    // `n_rows` is bounded by the bytes actually present.
    starts.reserve(n_rows + 1);
    starts.push(0);
    let (mut off, mut total) = (0usize, 0u32);
    for _ in 0..n_rows {
        if off + 4 > payload.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let count = rd_u32(payload, off);
        if count > MAX_COUNT {
            return Err(CodecError::Corrupt(format!(
                "count {count} exceeds sanity limit"
            )));
        }
        let row_len = 4 + count as usize * entry;
        if payload.len() - off < row_len {
            return Err(CodecError::UnexpectedEof);
        }
        off += row_len;
        total += count; // the entries fit the payload: no overflow
        starts.push(total);
    }
    if off != payload.len() {
        return Err(CodecError::Corrupt(format!(
            "column '{}' has {} trailing bytes",
            id.name(),
            payload.len() - off
        )));
    }
    Ok(())
}

impl RecordWalk<'_> {
    /// The second half of the one walk: every record, checked in order.
    /// Those in the `keep` ranges (record indexes, ascending and
    /// disjoint) are appended to `recs` — all of them for a reader, none
    /// for the verify, the survivors' for the skim — and, with `frame`,
    /// delta-coded onto that output frame as [`put_column`] would code
    /// them. `starts` is the row index [`walk_rows`] returned.
    fn walk(
        mut self,
        starts: &[u32],
        keep: &[(usize, usize)],
        recs: &mut Vec<u8>,
        frame: Option<&mut BytesMut>,
    ) -> Result<(), CodecError> {
        let kept: usize = keep.iter().map(|(a, b)| b - a).sum();
        // Clamped, so a forged count cannot demand memory the frame
        // never backs.
        recs.reserve((kept * self.rec).min(64 * 1024));
        let (id, b, rec, n) = (self.id, self.b, self.rec, self.n_records);
        let off = &mut self.off;
        if self.tag == TAG_DELTA {
            // Each plan gets its own instance of the walker, its record
            // size a constant.
            macro_rules! walk {
                ($plan:ident) => {
                    walk_delta::<_, { plan_len(&$plan) }>($plan, b, off, n, keep, recs, frame)
                };
            }
            match id {
                ColumnId::Header => walk!(HEADER_PLAN)?,
                ColumnId::Scalars => walk!(SCALARS_PLAN)?,
                ColumnId::ElectronId => walk!(E_ID_PLAN)?,
                ColumnId::MuonId => walk!(MU_ID_PLAN)?,
                ColumnId::JetId => walk!(JET_ID_PLAN)?,
                _ => unreachable!("only the columns with a field plan hold delta records"),
            }
        } else {
            let base = recs.len();
            let mut take = Take {
                keep,
                k: 0,
                i: 0,
                out: recs,
            };
            walk_plain(self.tag, id, b, off, n, rec, starts, &mut take)?;
            // No delta bytes to copy: every kept record is coded afresh.
            if let (Some(frame), Some(plan)) = (frame, delta_plan(id)) {
                let mut prev = [0u64; MAX_PLAN_FIELDS];
                encode_delta(&recs[base..], rec, plan, &mut prev, frame, usize::MAX);
            }
        }
        if self.tag != TAG_RAW && *off != b.len() {
            return Err(trailing_bytes(id, b.len() - *off));
        }
        Ok(())
    }
}

/// Appends the records in the `keep` ranges to `out`, one record at a
/// time — the cursor of the frames without delta bytes.
struct Take<'a> {
    keep: &'a [(usize, usize)],
    /// The first range not yet behind record `i`, the next one handed in.
    k: usize,
    i: usize,
    out: &'a mut Vec<u8>,
}

impl Take<'_> {
    fn record(&mut self, rec: &[u8]) {
        while self.keep.get(self.k).is_some_and(|r| r.1 <= self.i) {
            self.k += 1;
        }
        if self.keep.get(self.k).is_some_and(|r| r.0 <= self.i) {
            self.out.extend_from_slice(rec);
        }
        self.i += 1;
    }
}

/// The records of a raw frame, or of a legacy dictionary or RLE one, in
/// order.
#[allow(clippy::too_many_arguments)]
fn walk_plain(
    tag: u8,
    id: ColumnId,
    b: &[u8],
    off: &mut usize,
    n_records: usize,
    rec: usize,
    starts: &[u32],
    take: &mut Take<'_>,
) -> Result<(), CodecError> {
    match tag {
        TAG_RAW if starts.is_empty() => b.chunks_exact(rec).for_each(|r| take.record(r)),
        TAG_RAW => {
            // Row r's entries follow the r + 1 count prefixes before them.
            for row in 0..starts.len() - 1 {
                let at = |i: usize| 4 * (row + 1) + starts[i] as usize * rec;
                b[at(row)..at(row + 1)]
                    .chunks_exact(rec)
                    .for_each(|r| take.record(r));
            }
        }
        TAG_DICT => {
            if b.len() - *off < 2 {
                return Err(CodecError::UnexpectedEof);
            }
            let n_dict = u16::from_le_bytes([b[*off], b[*off + 1]]) as usize;
            *off += 2;
            if n_dict > 256 {
                return Err(CodecError::Corrupt(format!(
                    "dictionary of {n_dict} entries exceeds the index range"
                )));
            }
            if b.len() - *off < n_dict * rec {
                return Err(CodecError::UnexpectedEof);
            }
            let table = &b[*off..*off + n_dict * rec];
            *off += n_dict * rec;
            if b.len() - *off < n_records {
                return Err(CodecError::UnexpectedEof);
            }
            for i in 0..n_records {
                let idx = b[*off + i] as usize;
                if idx >= n_dict {
                    return Err(CodecError::Corrupt(format!(
                        "dictionary index {idx} out of range in column '{}'",
                        id.name()
                    )));
                }
                take.record(&table[idx * rec..(idx + 1) * rec]);
            }
            *off += n_records;
        }
        TAG_RLE => {
            let mut produced = 0usize;
            while produced < n_records {
                let run = get_varint(b, off)?;
                if run == 0 || run > MAX_RUN {
                    return Err(CodecError::Corrupt(format!("rle run {run} out of range")));
                }
                let run = run as usize;
                if run > n_records - produced {
                    return Err(CodecError::Corrupt(
                        "rle runs overshoot the record count".into(),
                    ));
                }
                if b.len() - *off < rec {
                    return Err(CodecError::UnexpectedEof);
                }
                let r = &b[*off..*off + rec];
                *off += rec;
                for _ in 0..run {
                    take.record(r);
                }
                produced += run;
            }
        }
        _ => return Err(unsupported_tag(id, tag)),
    }
    Ok(())
}

/// The one delta walker. Each call site passes a column's field plan and
/// record size as constants; with the fields unrolled by hand, once this
/// is inlined every field's kind and offset are constants too, so each
/// plan gets its own straight-line record loops: one that only checks
/// and tracks the running values, one that also appends the record.
///
/// With `frame`, the kept records are also delta-coded onto the skim's
/// output frame. A kept record whose input predecessor was kept too has
/// the same delta in the output as in the input, so past each range's
/// first record the input's bytes are copied, one copy per range; the
/// first record after a gap (a run start, a dropped row, a jet cap) is
/// coded against the last record kept. A range holding a varint longer
/// than the writer makes it is coded afresh instead.
#[inline(always)]
fn walk_delta<const N: usize, const R: usize>(
    plan: [FieldKind; N],
    b: &[u8],
    off: &mut usize,
    n_records: usize,
    keep: &[(usize, usize)],
    recs: &mut Vec<u8>,
    mut frame: Option<&mut BytesMut>,
) -> Result<(), CodecError> {
    const { assert!(N == 2 || N == 3, "plans have two or three fields") };
    // The running field values of the input, and of the output.
    let (mut prev, mut last) = ([0u64; N], [0u64; N]);
    let mut next = 0usize;
    for &(lo, hi) in keep.iter().filter(|(lo, hi)| lo < hi) {
        debug_assert!(
            next <= lo && hi <= n_records,
            "kept ranges ascend within the stream"
        );
        for _ in next..lo {
            delta_record::<N, R>(&plan, &mut prev, b, off)?;
        }
        recs.extend_from_slice(&delta_record::<N, R>(&plan, &mut prev, b, off)?.0);
        if let Some(frame) = frame.as_deref_mut() {
            put_delta_field(plan[0], prev[0], last[0], frame);
            put_delta_field(plan[1], prev[1], last[1], frame);
            if N == 3 {
                put_delta_field(plan[N - 1], prev[N - 1], last[N - 1], frame);
            }
        }
        let (from, mut canonical) = (*off, true);
        for _ in lo + 1..hi {
            let (rec, exact) = delta_record::<N, R>(&plan, &mut prev, b, off)?;
            canonical &= exact;
            recs.extend_from_slice(&rec);
        }
        if let Some(frame) = frame.as_deref_mut() {
            if canonical {
                frame.put_slice(&b[from..*off]);
            } else {
                let rest = &recs[recs.len() - (hi - lo) * R..];
                let mut state = field_state(&plan, &rest[..R]);
                encode_delta(&rest[R..], R, &plan, &mut state, frame, usize::MAX);
            }
        }
        last = prev;
        next = hi;
    }
    for _ in next..n_records {
        delta_record::<N, R>(&plan, &mut prev, b, off)?;
    }
    Ok(())
}

/// Append one field's delta — `v` against `last`, the same field of the
/// record before — as [`encode_delta`] writes it.
#[inline(always)]
fn put_delta_field(kind: FieldKind, v: u64, last: u64, out: &mut BytesMut) {
    match kind {
        FieldKind::Byte => out.put_u8(v as u8),
        FieldKind::U32 => put_varint(out, zigzag(v as i64 - last as i64)),
        FieldKind::U64 => put_varint(out, zigzag((v as i64).wrapping_sub(last as i64))),
        FieldKind::F64 => put_varint(out, v ^ last),
    }
}

/// Decode one delta record against `prev`, the field values of the one
/// before, which it advances; also says whether its varints are
/// canonical (exactly what the writer emits).
#[inline(always)]
fn delta_record<const N: usize, const R: usize>(
    plan: &[FieldKind; N],
    prev: &mut [u64; N],
    b: &[u8],
    off: &mut usize,
) -> Result<([u8; R], bool), CodecError> {
    let (mut rec, mut at, mut canonical) = ([0u8; R], 0usize, true);
    delta_field(
        plan[0],
        &mut prev[0],
        b,
        off,
        &mut rec,
        &mut at,
        &mut canonical,
    )?;
    delta_field(
        plan[1],
        &mut prev[1],
        b,
        off,
        &mut rec,
        &mut at,
        &mut canonical,
    )?;
    if N == 3 {
        delta_field(
            plan[N - 1],
            &mut prev[N - 1],
            b,
            off,
            &mut rec,
            &mut at,
            &mut canonical,
        )?;
    }
    debug_assert_eq!(at, R, "field plan must cover the record");
    Ok((rec, canonical))
}

/// Decode one field of a delta record into `rec` at `*at`, against
/// `prev`, the same field of the record before, which it leaves at this
/// field's value; `canonical` turns false when its varint is longer than
/// the writer makes it.
#[inline(always)]
fn delta_field(
    kind: FieldKind,
    prev: &mut u64,
    b: &[u8],
    off: &mut usize,
    rec: &mut [u8],
    at: &mut usize,
    canonical: &mut bool,
) -> Result<(), CodecError> {
    if let FieldKind::Byte = kind {
        let Some(&v) = b.get(*off) else {
            return Err(CodecError::UnexpectedEof);
        };
        *off += 1;
        *prev = u64::from(v);
        rec[*at] = v;
        *at += 1;
        return Ok(());
    }
    let start = *off;
    let d = get_varint(b, off)?;
    *canonical &= *off - start == varint_len(d);
    if let FieldKind::U32 = kind {
        let v = (*prev as i64)
            .checked_add(unzigzag(d))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| CodecError::Corrupt("u32 delta lands out of range".into()))?;
        *prev = u64::from(v);
        rec[*at..*at + 4].copy_from_slice(&v.to_le_bytes());
        *at += 4;
    } else {
        *prev = match kind {
            FieldKind::U64 => prev.wrapping_add(unzigzag(d) as u64),
            _ => *prev ^ d,
        };
        rec[*at..*at + 8].copy_from_slice(&prev.to_le_bytes());
        *at += 8;
    }
    Ok(())
}

/// Bytes of one record under `plan`.
const fn plan_len(plan: &[FieldKind]) -> usize {
    let (mut i, mut len) = (0, 0);
    while i < plan.len() {
        len += match plan[i] {
            FieldKind::Byte => 1,
            FieldKind::U32 => 4,
            FieldKind::U64 | FieldKind::F64 => 8,
        };
        i += 1;
    }
    len
}

/// Append one column's v2 frame (tag-prefixed) to `out`. A fixed column
/// comes as its records back to back with `counts` empty; a variable
/// column as its per-row entry counts and its entries back to back. The
/// frame is delta ([`encode_delta`] under the column's field plan, or
/// [`put_fat`]'s verbatim entries behind a compressed counts block) when
/// that is strictly smaller than the raw frame, raw (the v1 layout,
/// [`put_raw`]) otherwise. A pure function of (column, counts, entries),
/// which the skim's frames equal byte for byte — so skim output stays
/// canonical.
fn put_column(out: &mut BytesMut, id: ColumnId, counts: &[u32], entries: &[u8]) {
    let Some(plan) = delta_plan(id) else {
        return put_fat(out, id, counts, [entries]);
    };
    let raw_len = 4 * counts.len() + entries.len();
    out.reserve(1 + raw_len + FRAME_SLACK);
    let start = begin_delta(out, id, counts);
    let rec = match id.layout() {
        ColumnLayout::Fixed(stride) => stride,
        ColumnLayout::Var(entry) => entry,
    };
    let mut prev = [0u64; MAX_PLAN_FIELDS];
    encode_delta(entries, rec, plan, &mut prev, out, start + raw_len);
    end_delta(out, start, id, counts, entries);
}

/// Open a thin column's delta frame on `out`: the tag, and a variable
/// column's counts block. Returns where the frame starts.
fn begin_delta(out: &mut BytesMut, id: ColumnId, counts: &[u32]) -> usize {
    let start = out.len();
    out.put_u8(TAG_DELTA);
    if let ColumnLayout::Var(_) = id.layout() {
        let (mode, _) = counts_block(counts);
        put_counts(out, counts, mode);
    }
    start
}

/// Close the delta frame opened at `start`: when it is not strictly
/// smaller than the raw frame of (counts, entries), the raw frame takes
/// its place — ties go to raw.
fn end_delta(out: &mut BytesMut, start: usize, id: ColumnId, counts: &[u32], entries: &[u8]) {
    if out.len() - start > 4 * counts.len() + entries.len() {
        out.truncate(start);
        out.put_u8(TAG_RAW);
        put_raw(out, id, counts, entries);
    }
}

/// Append a fat column's frame: the counts block, then the entries
/// verbatim from `chunks` in order, when that is strictly smaller than
/// the raw frame. Its size is known before a byte is written, so only
/// the winning frame is built.
fn put_fat<'a>(
    out: &mut BytesMut,
    id: ColumnId,
    counts: &[u32],
    chunks: impl IntoIterator<Item = &'a [u8]> + Clone,
) {
    let n_bytes: usize = chunks.clone().into_iter().map(<[u8]>::len).sum();
    let (mode, block_len) = counts_block(counts);
    if 1 + block_len + n_bytes > 4 * counts.len() + n_bytes {
        let entries = chunks.into_iter().collect::<Vec<_>>().concat();
        out.put_u8(TAG_RAW);
        put_raw(out, id, counts, &entries);
        return;
    }
    out.reserve(1 + block_len + n_bytes);
    out.put_u8(TAG_DELTA);
    put_counts(out, counts, mode);
    for chunk in chunks {
        out.put_slice(chunk);
    }
}

/// Append a column's raw (v1) payload: fixed records as they are,
/// variable rows as `count:u32le` then that row's entries.
fn put_raw(out: &mut BytesMut, id: ColumnId, counts: &[u32], entries: &[u8]) {
    match id.layout() {
        ColumnLayout::Fixed(_) => out.put_slice(entries),
        ColumnLayout::Var(entry) => {
            let mut off = 0usize;
            for &c in counts {
                let len = c as usize * entry;
                out.put_u32_le(c);
                out.put_slice(&entries[off..off + len]);
                off += len;
            }
        }
    }
}

fn unsupported_tag(id: ColumnId, tag: u8) -> CodecError {
    CodecError::Corrupt(format!(
        "column '{}' does not support encoding tag {tag}",
        id.name()
    ))
}

fn trailing_bytes(id: ColumnId, n: usize) -> CodecError {
    CodecError::Corrupt(format!(
        "column '{}' has {n} bytes past its encoded stream",
        id.name()
    ))
}

/// The (p4, id) column pairs whose per-row entry counts must agree, in
/// the order they are checked.
const PAIRS: [(ColumnId, ColumnId); 3] = [
    (ColumnId::ElectronP4, ColumnId::ElectronId),
    (ColumnId::MuonP4, ColumnId::MuonId),
    (ColumnId::JetP4, ColumnId::JetId),
];

/// A p4 column and its id column must agree on every row's entry count.
/// `a` and `b` are their row indexes; both start at 0, so the first index
/// where they differ is one past the first row whose counts differ.
fn check_pair(p4: ColumnId, id: ColumnId, a: &[u32], b: &[u32]) -> Result<(), CodecError> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(CodecError::Corrupt(format!(
            "columns '{}' and '{}' disagree on the entry \
             count at row {}",
            p4.name(),
            id.name(),
            i - 1
        ))),
    }
}

// --- Worker-pool parallel encode --------------------------------------------

/// Encode AOD events into a columnar file with the ten column builds
/// and frame encodes fanned over the worker pool. Each worker lays out
/// and encodes whole columns, back to back into one buffer sized for
/// their raw frames; the first worker's buffer starts with the header
/// and table space and the others' frames are appended to it in column
/// order, so the bytes are the same at any thread count and with one
/// worker ([`ColumnarFile::from_rows`]) the file is written in place.
pub fn encode_columnar_parallel(events: &[AodEvent], threads: usize) -> Bytes {
    let n_rows = row_count(events);
    let chunk_len = N_COLUMNS.div_ceil(threads.max(1));
    let mut chunks = par::map_chunks(N_COLUMNS, chunk_len, threads, |_, range| {
        let head = if range.start == 0 { FRAMES_BASE } else { 0 };
        let ids = &ColumnId::ALL[range];
        let size: usize = ids
            .iter()
            .map(|&id| 1 + raw_len(id, events) + FRAME_SLACK)
            .sum();
        let mut buf = BytesMut::with_capacity(head + size);
        buf.put_slice(&[0; FRAMES_BASE][..head]);
        let lens: Vec<usize> = ids
            .iter()
            .map(|&id| {
                let at = buf.len();
                let (counts, entries) = build_column(id, events);
                put_column(&mut buf, id, &counts, &entries);
                buf.len() - at
            })
            .collect();
        (buf, lens)
    })
    .into_iter();
    let (mut file, mut lens) = chunks.next().expect("at least one chunk");
    let rest: Vec<_> = chunks.collect();
    file.reserve(rest.iter().map(|(buf, _)| buf.len()).sum());
    for (buf, more) in rest {
        file.put_slice(&buf);
        lens.extend(more);
    }
    let lens: [usize; N_COLUMNS] = lens.try_into().expect("one frame per column");
    seal_file(file, COLUMNAR_VERSION, n_rows, &lens)
}

/// Entries `ev` holds in the variable column `id`.
fn entry_count(id: ColumnId, ev: &AodEvent) -> usize {
    match id {
        ColumnId::ElectronP4 | ColumnId::ElectronId => ev.electrons.len(),
        ColumnId::MuonP4 | ColumnId::MuonId => ev.muons.len(),
        ColumnId::Photon => ev.photons.len(),
        ColumnId::JetP4 | ColumnId::JetId => ev.jets.len(),
        ColumnId::Candidate => ev.candidates.len(),
        ColumnId::Header | ColumnId::Scalars => unreachable!("fixed column"),
    }
}

/// Bytes of `id`'s raw (v1) column over `events`: a count per row of a
/// variable column, and the records or entries.
fn raw_len(id: ColumnId, events: &[AodEvent]) -> usize {
    match id.layout() {
        ColumnLayout::Fixed(stride) => events.len() * stride,
        ColumnLayout::Var(entry) => events
            .iter()
            .map(|ev| 4 + entry * entry_count(id, ev))
            .sum(),
    }
}

/// Lay out one column for `events` as [`put_column`] takes it: the
/// per-row entry counts (empty for a fixed column) and the records or
/// entries back to back, the latter reserved at its exact size. The
/// per-column worker of every columnar writer, sequential or parallel.
fn build_column(id: ColumnId, events: &[AodEvent]) -> (Vec<u32>, BytesMut) {
    let (counts, size): (Vec<u32>, usize) = match id.layout() {
        ColumnLayout::Fixed(stride) => (Vec::new(), events.len() * stride),
        ColumnLayout::Var(entry) => {
            let counts: Vec<u32> = events.iter().map(|ev| entry_count(id, ev) as u32).collect();
            let total: usize = counts.iter().map(|&c| c as usize).sum();
            (counts, total * entry)
        }
    };
    let mut col = BytesMut::with_capacity(size);
    match id {
        ColumnId::Header => {
            for ev in events {
                col.put_u32_le(ev.header.run.0);
                col.put_u32_le(ev.header.lumi_block.0);
                col.put_u64_le(ev.header.event.0);
            }
        }
        ColumnId::ElectronP4 => {
            for ev in events {
                for e in &ev.electrons {
                    put_p4(&mut col, &e.momentum);
                }
            }
        }
        ColumnId::ElectronId => {
            for ev in events {
                for e in &ev.electrons {
                    col.put_i8(e.charge);
                    col.put_f64_le(e.e_over_p);
                    col.put_f64_le(e.isolation);
                }
            }
        }
        ColumnId::MuonP4 => {
            for ev in events {
                for m in &ev.muons {
                    put_p4(&mut col, &m.momentum);
                }
            }
        }
        ColumnId::MuonId => {
            for ev in events {
                for m in &ev.muons {
                    col.put_i8(m.charge);
                    col.put_u8(m.n_stations);
                    col.put_f64_le(m.isolation);
                }
            }
        }
        ColumnId::Photon => {
            for ev in events {
                for p in &ev.photons {
                    put_p4(&mut col, &p.momentum);
                    col.put_f64_le(p.isolation);
                }
            }
        }
        ColumnId::JetP4 => {
            for ev in events {
                for j in &ev.jets {
                    put_p4(&mut col, &j.momentum);
                }
            }
        }
        ColumnId::JetId => {
            for ev in events {
                for j in &ev.jets {
                    col.put_u32_le(j.n_constituents);
                    col.put_f64_le(j.em_fraction);
                }
            }
        }
        ColumnId::Candidate => {
            for ev in events {
                for t in &ev.candidates {
                    put_p4(&mut col, &t.vertex);
                    col.put_f64_le(t.flight_xy);
                    col.put_f64_le(t.pt);
                    col.put_f64_le(t.eta);
                    col.put_f64_le(t.mass_pipi);
                    col.put_f64_le(t.mass_ppi);
                    col.put_f64_le(t.mass_kpi);
                    col.put_f64_le(t.proper_time_d0_ns);
                    col.put_u32_le(t.track_indices.0);
                    col.put_u32_le(t.track_indices.1);
                }
            }
        }
        ColumnId::Scalars => {
            for ev in events {
                col.put_f64_le(ev.met.mex);
                col.put_f64_le(ev.met.mey);
                col.put_u32_le(ev.n_tracks);
            }
        }
    }
    debug_assert_eq!(col.len(), size, "column '{}' sized exactly", id.name());
    (counts, col)
}

/// One opened column, in the writer's shape whatever its frame: a fixed
/// column's records back to back, or a variable column's entries back
/// to back with `starts` holding each row's first entry index (`n_rows +
/// 1` of them, the last the entry total). A row, or a run of rows, is
/// therefore one slice, and a row's count one subtraction. The fat
/// columns' delta frames are zero-copy windows into the file buffer;
/// every other column owns the records its walk handed over.
struct ColumnReader {
    layout: ColumnLayout,
    payload: Bytes,
    starts: Vec<u32>,
}

impl ColumnReader {
    /// Entries in `row` (1 for fixed columns).
    #[inline]
    fn count(&self, row: usize) -> usize {
        match self.layout {
            ColumnLayout::Fixed(_) => 1,
            ColumnLayout::Var(_) => (self.starts[row + 1] - self.starts[row]) as usize,
        }
    }

    /// The bytes of rows `a..b`: their records, or their entries.
    #[inline]
    fn span(&self, a: usize, b: usize) -> &[u8] {
        match self.layout {
            ColumnLayout::Fixed(stride) => &self.payload[a * stride..b * stride],
            ColumnLayout::Var(entry) => {
                &self.payload[self.starts[a] as usize * entry..self.starts[b] as usize * entry]
            }
        }
    }

    /// The record or the entries of `row`.
    #[inline]
    fn row(&self, row: usize) -> &[u8] {
        self.span(row, row + 1)
    }
}

// Entry strides, used by the decoders below.
const E_ID_STRIDE: usize = 17;
const MU_ID_STRIDE: usize = 10;
const PHOTON_STRIDE: usize = 40;
const JET_ID_STRIDE: usize = 12;
const CAND_STRIDE: usize = 96;
const P4_STRIDE: usize = 32;

/// Refill `ev` with one row, a slim applied: every collection is
/// cleared and only the kept ones are decoded (the columns of dropped
/// ones are never touched). `keep_all` gives the exact stored event. The
/// one row decoder: [`ColumnarFile::to_rows`] passes a fresh event per
/// row, and the skim's survivor callback one reused scratch event, as
/// the row codec's `get_into` does.
fn decode_row_into(r: &[ColumnReader; N_COLUMNS], row: usize, slim: &SlimSpec, ev: &mut AodEvent) {
    use ColumnId as C;
    let bytes = |id: C| r[id as usize].row(row);
    let count = |id: C| r[id as usize].count(row);
    let hb = bytes(C::Header);
    ev.header = EventHeader::new(rd_u32(hb, 0), rd_u32(hb, 4), rd_u64(hb, 8));
    ev.electrons.clear();
    ev.muons.clear();
    ev.photons.clear();
    ev.jets.clear();
    ev.candidates.clear();
    if slim.keep_electrons {
        let (p4, id) = (bytes(C::ElectronP4), bytes(C::ElectronId));
        ev.electrons
            .extend((0..count(C::ElectronP4)).map(|i| Electron {
                momentum: rd_p4(p4, i * P4_STRIDE),
                charge: id[i * E_ID_STRIDE] as i8,
                e_over_p: rd_f64(id, i * E_ID_STRIDE + 1),
                isolation: rd_f64(id, i * E_ID_STRIDE + 9),
            }));
    }
    if slim.keep_muons {
        let (p4, id) = (bytes(C::MuonP4), bytes(C::MuonId));
        ev.muons.extend((0..count(C::MuonP4)).map(|i| Muon {
            momentum: rd_p4(p4, i * P4_STRIDE),
            charge: id[i * MU_ID_STRIDE] as i8,
            n_stations: id[i * MU_ID_STRIDE + 1],
            isolation: rd_f64(id, i * MU_ID_STRIDE + 2),
        }));
    }
    if slim.keep_photons {
        let b = bytes(C::Photon);
        ev.photons.extend((0..count(C::Photon)).map(|i| Photon {
            momentum: rd_p4(b, i * PHOTON_STRIDE),
            isolation: rd_f64(b, i * PHOTON_STRIDE + 32),
        }));
    }
    if slim.max_jets > 0 {
        let (p4, id) = (bytes(C::JetP4), bytes(C::JetId));
        let n = count(C::JetP4).min(slim.max_jets as usize);
        ev.jets.extend((0..n).map(|i| Jet {
            momentum: rd_p4(p4, i * P4_STRIDE),
            n_constituents: rd_u32(id, i * JET_ID_STRIDE),
            em_fraction: rd_f64(id, i * JET_ID_STRIDE + 4),
        }));
    }
    if slim.keep_candidates {
        let b = bytes(C::Candidate);
        ev.candidates.extend((0..count(C::Candidate)).map(|i| {
            let o = i * CAND_STRIDE;
            TwoProngCandidate {
                vertex: rd_p4(b, o),
                flight_xy: rd_f64(b, o + 32),
                pt: rd_f64(b, o + 40),
                eta: rd_f64(b, o + 48),
                mass_pipi: rd_f64(b, o + 56),
                mass_ppi: rd_f64(b, o + 64),
                mass_kpi: rd_f64(b, o + 72),
                proper_time_d0_ns: rd_f64(b, o + 80),
                track_indices: (rd_u32(b, o + 88), rd_u32(b, o + 92)),
            }
        }));
    }
    let s = bytes(C::Scalars);
    ev.met = Met {
        mex: rd_f64(s, 0),
        mey: rd_f64(s, 8),
    };
    ev.n_tracks = rd_u32(s, 16);
}

// --- Predicate-pushdown skim ------------------------------------------------

/// Lazily opened columns for one skim pass. Tracks which columns were
/// actually touched so the `tier.columnar.cols_read` / `cols_skipped`
/// counters report the real pushdown, not the schema width.
struct ColumnCache<'a> {
    file: &'a ColumnarFile,
    readers: [Option<ColumnReader>; N_COLUMNS],
}

impl<'a> ColumnCache<'a> {
    fn new(file: &'a ColumnarFile) -> Self {
        ColumnCache {
            file,
            readers: Default::default(),
        }
    }

    /// Open (trusted, structural walk only) if not already open.
    fn ensure(&mut self, id: ColumnId) -> Result<(), CodecError> {
        if self.readers[id as usize].is_none() {
            self.readers[id as usize] = Some(self.file.open(id, false)?);
        }
        Ok(())
    }

    /// Borrow a column [`ColumnCache::ensure`]d earlier.
    fn get(&self, id: ColumnId) -> &ColumnReader {
        self.readers[id as usize]
            .as_ref()
            .expect("column opened before use")
    }
}

/// Evaluate a selection into a per-row keep mask, opening only the
/// columns the predicate actually reads. Leaf semantics mirror
/// [`Selection::passes`] operation-for-operation (same `sqrt`-then-compare,
/// same `>=`), so the mask equals the row-path verdicts bit-for-bit.
fn eval_mask(cache: &mut ColumnCache<'_>, sel: &Selection) -> Result<Vec<bool>, CodecError> {
    let n_rows = cache.file.n_rows;
    Ok(match sel {
        Selection::All => vec![true; n_rows],
        Selection::NLeptons { n, pt } => {
            cache.ensure(ColumnId::ElectronP4)?;
            cache.ensure(ColumnId::MuonP4)?;
            let cols = [cache.get(ColumnId::ElectronP4), cache.get(ColumnId::MuonP4)];
            (0..n_rows)
                .map(|row| {
                    let mut count = 0u32;
                    for col in cols {
                        let b = col.row(row);
                        for i in 0..col.count(row) {
                            let px = rd_f64(b, i * P4_STRIDE);
                            let py = rd_f64(b, i * P4_STRIDE + 8);
                            if (px * px + py * py).sqrt() >= *pt {
                                count += 1;
                            }
                        }
                    }
                    count >= *n
                })
                .collect()
        }
        Selection::NPhotons { n, pt } => {
            cache.ensure(ColumnId::Photon)?;
            let col = cache.get(ColumnId::Photon);
            count_mask(col, n_rows, PHOTON_STRIDE, *n, *pt)
        }
        Selection::NJets { n, pt } => {
            cache.ensure(ColumnId::JetP4)?;
            let col = cache.get(ColumnId::JetP4);
            count_mask(col, n_rows, P4_STRIDE, *n, *pt)
        }
        Selection::MetAbove(min) => {
            cache.ensure(ColumnId::Scalars)?;
            let col = cache.get(ColumnId::Scalars);
            (0..n_rows)
                .map(|row| {
                    let s = col.row(row);
                    let (mex, mey) = (rd_f64(s, 0), rd_f64(s, 8));
                    (mex * mex + mey * mey).sqrt() >= *min
                })
                .collect()
        }
        Selection::CandidateMass {
            hypothesis,
            mass,
            window,
        } => {
            cache.ensure(ColumnId::Candidate)?;
            let col = cache.get(ColumnId::Candidate);
            let off = match hypothesis {
                MassHypothesis::PiPi => 56,
                MassHypothesis::PPi => 64,
                MassHypothesis::KPi => 72,
            };
            (0..n_rows)
                .map(|row| {
                    let b = col.row(row);
                    (0..col.count(row))
                        .any(|i| (rd_f64(b, i * CAND_STRIDE + off) - mass).abs() <= *window)
                })
                .collect()
        }
        Selection::NTracksAtLeast(n) => {
            cache.ensure(ColumnId::Scalars)?;
            let col = cache.get(ColumnId::Scalars);
            (0..n_rows)
                .map(|row| rd_u32(col.row(row), 16) >= *n)
                .collect()
        }
        Selection::And(a, b) => {
            let ma = eval_mask(cache, a)?;
            let mb = eval_mask(cache, b)?;
            ma.iter().zip(&mb).map(|(x, y)| *x && *y).collect()
        }
        Selection::Or(a, b) => {
            let ma = eval_mask(cache, a)?;
            let mb = eval_mask(cache, b)?;
            ma.iter().zip(&mb).map(|(x, y)| *x || *y).collect()
        }
        Selection::Not(a) => {
            let ma = eval_mask(cache, a)?;
            ma.iter().map(|x| !*x).collect()
        }
    })
}

/// Mask for "at least `n` entries with four-momentum pT ≥ `pt`" over one
/// var column whose entries start with a four-vector.
fn count_mask(col: &ColumnReader, n_rows: usize, stride: usize, n: u32, pt: f64) -> Vec<bool> {
    (0..n_rows)
        .map(|row| {
            let b = col.row(row);
            let mut count = 0u32;
            for i in 0..col.count(row) {
                let px = rd_f64(b, i * stride);
                let py = rd_f64(b, i * stride + 8);
                if (px * px + py * py).sqrt() >= pt {
                    count += 1;
                }
            }
            count >= n
        })
        .collect()
}

/// Predicate-pushdown skim+slim over a columnar file.
///
/// The selection opens only the columns its leaves read. Every kept
/// column is then walked once, straight into its output frame: a fat
/// column's survivors cost their counts block and one copy per run of
/// their verbatim entries; a thin column's survivors keep their encoded
/// bytes, one copy per run, and only a record after a gap is re-coded.
/// Slim-dropped collections become empty rows without their source
/// column being touched at all, and the jet cap truncates by entry
/// arithmetic. The surviving *events* are exactly those
/// [`crate::skim::skim_slim_streaming_with`] keeps over the row encoding of
/// the same data; byte accounting in the report is per-format (file
/// sizes), since the two layouts price the same events differently. The
/// output is canonical: [`ColumnarFile::from_rows`] over the survivors
/// writes the same bytes.
///
/// When `registry` is given, `tier.columnar.cols_read` /
/// `tier.columnar.cols_skipped` count the columns the pass did and did
/// not open — a deterministic function of the selection and slim.
pub fn skim_slim_columnar(
    file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&MetricsRegistry>,
) -> Result<(Bytes, SkimReport), CodecError> {
    skim_columnar_core(file, selection, slim, registry, None)
}

/// [`skim_slim_columnar`] with a per-survivor callback receiving each
/// slimmed event (the workflow fills the analysis ntuple with it). Only
/// survivors are decoded, only their kept columns — read from the one
/// compact copy of their records the skim keeps while it writes them —
/// each into the one scratch event the callback borrows.
pub fn skim_slim_columnar_with(
    file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&MetricsRegistry>,
    mut on_survivor: impl FnMut(&AodEvent),
) -> Result<(Bytes, SkimReport), CodecError> {
    skim_columnar_core(file, selection, slim, registry, Some(&mut on_survivor))
}

/// The columns a skim's output (and its survivor callback) keeps under
/// `slim`.
fn kept_columns(slim: &SlimSpec) -> [bool; N_COLUMNS] {
    let mut k = [false; N_COLUMNS];
    k[ColumnId::Header as usize] = true;
    k[ColumnId::Scalars as usize] = true;
    k[ColumnId::ElectronP4 as usize] = slim.keep_electrons;
    k[ColumnId::ElectronId as usize] = slim.keep_electrons;
    k[ColumnId::MuonP4 as usize] = slim.keep_muons;
    k[ColumnId::MuonId as usize] = slim.keep_muons;
    k[ColumnId::Photon as usize] = slim.keep_photons;
    k[ColumnId::JetP4 as usize] = slim.max_jets > 0;
    k[ColumnId::JetId as usize] = slim.max_jets > 0;
    k[ColumnId::Candidate as usize] = slim.keep_candidates;
    k
}

/// The survivors' share of a column whose row index is `starts`: for a
/// variable column, their entry counts (capped at `cap`) into `counts`
/// and the input entry ranges they keep into `kept`; for a fixed column,
/// the survivor runs themselves into `kept`. Adjacent ranges are merged.
fn kept_entries(
    layout: ColumnLayout,
    starts: &[u32],
    runs: &[(usize, usize)],
    cap: Option<usize>,
    counts: &mut Vec<u32>,
    kept: &mut Vec<(usize, usize)>,
) {
    counts.clear();
    kept.clear();
    let mut keep = |a: usize, b: usize| {
        if a < b {
            match kept.last_mut() {
                Some(last) if last.1 == a => last.1 = b,
                _ => kept.push((a, b)),
            }
        }
    };
    for &(a, b) in runs {
        match (layout, cap) {
            (ColumnLayout::Fixed(_), _) => keep(a, b),
            (ColumnLayout::Var(_), None) => {
                counts.extend((a..b).map(|row| starts[row + 1] - starts[row]));
                keep(starts[a] as usize, starts[b] as usize);
            }
            (ColumnLayout::Var(_), Some(max)) => {
                for row in a..b {
                    let n = (starts[row + 1] - starts[row]).min(max as u32);
                    counts.push(n);
                    keep(starts[row] as usize, (starts[row] + n) as usize);
                }
            }
        }
    }
}

fn skim_columnar_core(
    file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&MetricsRegistry>,
    on_survivor: Option<&mut dyn FnMut(&AodEvent)>,
) -> Result<(Bytes, SkimReport), CodecError> {
    let cf = ColumnarFile::parse(file)?;
    let mut cache = ColumnCache::new(&cf);
    let mask = eval_mask(&mut cache, selection)?;
    let keep = kept_columns(slim);
    let cols_read = (0..N_COLUMNS)
        .filter(|&i| keep[i] || cache.readers[i].is_some())
        .count() as u64;
    // Only the kept fat columns are read through their reader again.
    for (i, id) in ColumnId::ALL.iter().enumerate() {
        if !keep[i] || delta_plan(*id).is_some() {
            cache.readers[i] = None;
        }
    }

    // Runs of consecutive survivors: contiguous bytes in every column.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for row in (0..cf.n_rows).filter(|&row| mask[row]) {
        match runs.last_mut() {
            Some(last) if last.1 == row => last.1 = row + 1,
            _ => runs.push((row, row + 1)),
        }
    }
    drop(mask);
    let n_out: usize = runs.iter().map(|(a, b)| b - a).sum();

    // The frames go straight into the output file behind the space its
    // header and table take, sized for the input file, which the output
    // does not outgrow in practice. `recs` holds the current column's
    // kept records (absolute), for its raw fallback; with a callback,
    // each kept column's are then handed to the row decoder.
    let with_callback = on_survivor.is_some();
    let mut out = BytesMut::with_capacity(file.len());
    out.put_slice(&[0; FRAMES_BASE]);
    let mut lens = [0usize; N_COLUMNS];
    let mut recs: Vec<u8> = Vec::new();
    let mut decoded: [Option<ColumnReader>; N_COLUMNS] = Default::default();
    let (mut starts, mut counts, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    // The survivor callback decodes off trusted frames, so a p4/id count
    // mismatch is an error there; it is reported once every column is
    // written, as the check over all opened columns reported it.
    let mut mismatch = Ok(());
    for (i, &id) in ColumnId::ALL.iter().enumerate() {
        let at = out.len();
        recs.clear();
        let cap = (matches!(id, ColumnId::JetP4 | ColumnId::JetId) && slim.max_jets != u32::MAX)
            .then_some(slim.max_jets as usize);
        if !keep[i] {
            // Dropped collection: every surviving row becomes count = 0,
            // without ever opening the source column.
            counts.clear();
            counts.resize(n_out, 0);
            put_column(&mut out, id, &counts, &[]);
        } else if delta_plan(id).is_some() {
            let frame = cf.frame(id, false)?;
            let Body::Records(records) = walk_rows(id, cf.version, frame, cf.n_rows, &mut starts)?
            else {
                unreachable!("a column with a field plan holds records");
            };
            kept_entries(id.layout(), &starts, &runs, cap, &mut counts, &mut kept);
            let start = begin_delta(&mut out, id, &counts);
            records.walk(&starts, &kept, &mut recs, Some(&mut out))?;
            end_delta(&mut out, start, id, &counts, &recs);
            if let Some(&(p4, _)) = PAIRS.iter().find(|&&(_, i)| i == id) {
                if with_callback {
                    mismatch =
                        mismatch.and_then(|()| check_pair(p4, id, &cache.get(p4).starts, &starts));
                }
            }
        } else {
            cache.ensure(id)?;
            let col = cache.get(id);
            kept_entries(col.layout, &col.starts, &runs, cap, &mut counts, &mut kept);
            let ColumnLayout::Var(entry) = col.layout else {
                unreachable!("every fat column is variable");
            };
            let chunks = kept
                .iter()
                .map(|&(a, b)| &col.payload[a * entry..b * entry]);
            put_fat(&mut out, id, &counts, chunks.clone());
            if with_callback {
                recs.reserve(chunks.clone().map(<[u8]>::len).sum());
                chunks.for_each(|chunk| recs.extend_from_slice(chunk));
            } else {
                cache.readers[i] = None;
            }
        }
        lens[i] = out.len() - at;
        if with_callback && keep[i] {
            let starts = match id.layout() {
                ColumnLayout::Fixed(_) => Vec::new(),
                ColumnLayout::Var(_) => std::iter::once(0)
                    .chain(counts.iter().scan(0, |total, &c| {
                        *total += c;
                        Some(*total)
                    }))
                    .collect(),
            };
            decoded[i] = Some(ColumnReader {
                layout: id.layout(),
                payload: Bytes::from(std::mem::take(&mut recs)),
                starts,
            });
        }
    }
    drop(cache);

    if let Some(reg) = registry {
        reg.counter("tier.columnar.cols_read").add(cols_read);
        reg.counter("tier.columnar.cols_skipped")
            .add(N_COLUMNS as u64 - cols_read);
    }

    if let Some(cb) = on_survivor {
        mismatch?;
        // Survivors (slimmed) decode off the kept records into one reused
        // scratch event. A dropped collection's reader stays empty: the
        // row decoder never reads it.
        let readers = decoded.map(|r| {
            r.unwrap_or(ColumnReader {
                layout: ColumnLayout::Fixed(0),
                payload: Bytes::new(),
                starts: Vec::new(),
            })
        });
        let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
        for row in 0..n_out {
            decode_row_into(&readers, row, slim, &mut ev);
            cb(&ev);
        }
    }

    let out = seal_file(out, COLUMNAR_VERSION, n_out as u32, &lens);
    let report = SkimReport {
        events_in: cf.n_rows as u64,
        events_out: n_out as u64,
        bytes_in: file.len() as u64,
        bytes_out: out.len() as u64,
    };
    Ok((out, report))
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encodable;
    use crate::skim::skim_slim;

    pub(super) fn sample_events(n: usize) -> Vec<AodEvent> {
        (0..n)
            .map(|i| {
                let mut ev = AodEvent::new(EventHeader::new(
                    194_270 + (i / 7) as u32,
                    1 + (i % 5) as u32,
                    900_000 + i as u64,
                ));
                for k in 0..(i % 3) {
                    ev.electrons.push(Electron {
                        momentum: FourVector {
                            px: 11.0 + i as f64 + k as f64,
                            py: -3.5 * (k as f64 + 1.0),
                            pz: 20.0 - i as f64,
                            e: 40.0 + i as f64,
                        },
                        charge: if k % 2 == 0 { 1 } else { -1 },
                        e_over_p: 0.97 + 0.01 * k as f64,
                        isolation: 0.04 * k as f64,
                    });
                }
                for k in 0..((i + 1) % 4) {
                    ev.muons.push(Muon {
                        momentum: FourVector {
                            px: -8.0 - k as f64,
                            py: 14.0 + i as f64,
                            pz: -2.0,
                            e: 30.0 + k as f64,
                        },
                        charge: if k % 2 == 0 { -1 } else { 1 },
                        n_stations: 2 + (k % 3) as u8,
                        isolation: 0.02 + 0.01 * i as f64,
                    });
                }
                for k in 0..(i % 2) {
                    ev.photons.push(Photon {
                        momentum: FourVector {
                            px: 5.0 + k as f64,
                            py: 6.0,
                            pz: 1.0,
                            e: 9.0,
                        },
                        isolation: 0.1,
                    });
                }
                for k in 0..(i % 5) {
                    ev.jets.push(Jet {
                        momentum: FourVector {
                            px: 25.0 + 3.0 * k as f64,
                            py: -12.0,
                            pz: 40.0,
                            e: 60.0 + k as f64,
                        },
                        n_constituents: 3 + k as u32,
                        em_fraction: 0.3 + 0.05 * k as f64,
                    });
                }
                for k in 0..(i % 2) {
                    ev.candidates.push(TwoProngCandidate {
                        vertex: FourVector {
                            px: 1.0,
                            py: 2.0,
                            pz: 3.0,
                            e: 0.0,
                        },
                        flight_xy: 4.2 + k as f64,
                        pt: 3.3,
                        eta: 0.4,
                        mass_pipi: 0.497 + 0.001 * i as f64,
                        mass_ppi: 1.115,
                        mass_kpi: 1.864,
                        proper_time_d0_ns: 4.1e-4,
                        track_indices: (i as u32, i as u32 + 1),
                    });
                }
                ev.met = Met {
                    mex: 10.0 + i as f64,
                    mey: -7.0,
                };
                ev.n_tracks = 40 + i as u32;
                ev
            })
            .collect()
    }

    fn selections() -> Vec<Selection> {
        vec![
            Selection::All,
            Selection::NLeptons { n: 1, pt: 12.0 },
            Selection::NLeptons { n: 2, pt: 5.0 },
            Selection::NPhotons { n: 1, pt: 5.0 },
            Selection::NJets { n: 2, pt: 20.0 },
            Selection::MetAbove(15.0),
            Selection::CandidateMass {
                hypothesis: MassHypothesis::PiPi,
                mass: 0.4976,
                window: 0.01,
            },
            Selection::NTracksAtLeast(45),
            Selection::NLeptons { n: 1, pt: 10.0 }
                .and(Selection::MetAbove(12.0).not())
                .or(Selection::NJets { n: 3, pt: 10.0 }),
        ]
    }

    #[test]
    fn round_trip_preserves_events_exactly() {
        let events = sample_events(23);
        let file = ColumnarFile::from_rows(&events);
        let parsed = ColumnarFile::parse(&file).expect("parses");
        assert_eq!(parsed.n_rows(), 23);
        let back = parsed.to_rows().expect("decodes");
        assert_eq!(back, events);
    }

    #[test]
    fn round_trip_is_byte_identical_against_the_row_codec() {
        let events = sample_events(17);
        let row_file = AodEvent::encode_events(&events);
        let col_file = ColumnarFile::from_rows(&events);
        // row -> columnar -> row reproduces the row bytes…
        let via_col = ColumnarFile::parse(&col_file)
            .and_then(|f| f.to_rows())
            .expect("col decodes");
        assert_eq!(AodEvent::encode_events(&via_col), row_file);
        // …and columnar -> row -> columnar reproduces the columnar bytes.
        let via_row = AodEvent::decode_events(&row_file).expect("row decodes");
        assert_eq!(ColumnarFile::from_rows(&via_row), col_file);
    }

    #[test]
    fn empty_file_round_trips() {
        let file = ColumnarFile::from_rows(&[]);
        let parsed = ColumnarFile::parse(&file).expect("parses");
        assert_eq!(parsed.n_rows(), 0);
        assert!(parsed.to_rows().expect("decodes").is_empty());
        let (out, report) =
            skim_slim_columnar(&file, &Selection::All, &SlimSpec::keep_all(), None).expect("skims");
        assert_eq!(report.events_in, 0);
        assert_eq!(out, file);
    }

    #[test]
    fn every_truncation_is_detected() {
        let events = sample_events(6);
        let file = ColumnarFile::from_rows(&events);
        for len in 0..file.len() {
            let cut = file.slice(0..len);
            let err = ColumnarFile::parse(&cut)
                .and_then(|f| f.to_rows().map(|_| ()))
                .expect_err("truncation must error");
            let _ = err.category();
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        let events = sample_events(5);
        let file = ColumnarFile::from_rows(&events);
        for pos in 0..file.len() {
            let mut bytes = file.to_vec();
            bytes[pos] ^= 0x40;
            let mutated = Bytes::from(bytes);
            match ColumnarFile::parse(&mutated).and_then(|f| f.to_rows()) {
                Err(_) => {}
                Ok(back) => assert_eq!(
                    back, events,
                    "undetected corruption at byte {pos} changed the decode"
                ),
            }
        }
    }

    #[test]
    fn verify_passes_on_pristine_and_catches_column_swap() {
        let events = sample_events(9);
        let file = ColumnarFile::from_rows(&events);
        ColumnarFile::parse(&file)
            .unwrap()
            .verify()
            .expect("pristine verifies");

        // Swap the e-p4 and mu-p4 frames (equal layout, different data):
        // every per-column structure stays valid, only the table digests
        // can notice.
        let parsed = ColumnarFile::parse(&file).unwrap();
        let e = parsed.cols[ColumnId::ElectronP4 as usize];
        let m = parsed.cols[ColumnId::MuonP4 as usize];
        if e.len == m.len {
            let mut bytes = file.to_vec();
            let (a, b) = (e.offset, m.offset);
            for i in 0..e.len {
                bytes.swap(a + i, b + i);
            }
            let swapped = Bytes::from(bytes);
            assert!(
                ColumnarFile::parse(&swapped).unwrap().verify().is_err(),
                "frame swap must fail digest verification"
            );
        }
    }

    /// One electron whose negative E/p and isolation cost 10-byte
    /// varints: its id column deltas to 1 + 21 bytes behind a 2-byte
    /// counts block, over the 4 + 17 raw bytes, so the `e-id` frame of a
    /// file holding this row is the interleaved raw row.
    fn one_electron_event() -> AodEvent {
        let mut ev = AodEvent::new(EventHeader::new(194_270, 12, 900_000));
        ev.electrons.push(Electron {
            momentum: FourVector {
                px: 30.0,
                py: -4.0,
                pz: 11.0,
                e: 32.5,
            },
            charge: -1,
            e_over_p: -1.5,
            isolation: -0.5,
        });
        ev
    }

    #[test]
    fn skim_matches_the_row_path_for_every_selection_and_slim() {
        let events = sample_events(40);
        let one = [one_electron_event()];
        // The same 40 events as v2 and as v1 (raw throughout), and a
        // one-row file whose e-id frame is raw.
        let inputs: [(&str, &[AodEvent], Bytes); 3] = [
            ("v2", &events, ColumnarFile::from_rows(&events)),
            ("v1", &events, ColumnarFile::from_rows_v1(&events)),
            ("raw e-id", &one, ColumnarFile::from_rows(&one)),
        ];
        // Caps the jets of every row carrying two or more.
        let one_jet = SlimSpec {
            max_jets: 1,
            ..SlimSpec::keep_all()
        };
        for (name, events, col_file) in &inputs {
            for sel in selections() {
                for slim in [
                    SlimSpec::keep_all(),
                    SlimSpec::leptons_only(),
                    SlimSpec::candidates_only(),
                    one_jet,
                ] {
                    let case = format!("{name}: sel {sel} slim {}", slim.to_text());
                    let (expected, exp_report) = skim_slim(events, &sel, &slim);
                    let mut seen = Vec::new();
                    let (out, report) =
                        skim_slim_columnar_with(col_file, &sel, &slim, None, |ev| {
                            seen.push(ev.clone())
                        })
                        .expect("skims");
                    assert_eq!(seen, expected, "{case}");
                    let survivors = ColumnarFile::parse(&out)
                        .and_then(|f| f.to_rows())
                        .expect("output decodes");
                    assert_eq!(survivors, expected, "{case}");
                    assert_eq!(report.events_in, exp_report.events_in, "{case}");
                    assert_eq!(report.events_out, exp_report.events_out, "{case}");
                    // The output is canonical: exactly what encoding the
                    // survivors from scratch produces.
                    assert_eq!(out, ColumnarFile::from_rows(&expected), "{case}");
                }
            }
        }
    }

    #[test]
    fn skim_callback_sees_each_slimmed_survivor_in_order() {
        let events = sample_events(30);
        let col_file = ColumnarFile::from_rows(&events);
        let sel = Selection::NLeptons { n: 1, pt: 10.0 };
        let slim = SlimSpec::leptons_only();
        let (expected, _) = skim_slim(&events, &sel, &slim);
        let mut seen = Vec::new();
        skim_slim_columnar_with(&col_file, &sel, &slim, None, |ev| seen.push(ev.clone()))
            .expect("skims");
        assert_eq!(seen, expected);

        // The callback borrows one scratch event, refilled per survivor:
        // a row carrying every collection, then an empty row, must reach
        // it with every collection of the first cleared.
        let full = sample_events(2).pop().expect("two events");
        assert!(
            !full.electrons.is_empty()
                && !full.muons.is_empty()
                && !full.photons.is_empty()
                && !full.jets.is_empty()
                && !full.candidates.is_empty()
        );
        let events = [full, AodEvent::new(EventHeader::new(194_270, 2, 900_002))];
        let col_file = ColumnarFile::from_rows(&events);
        let mut seen = Vec::new();
        skim_slim_columnar_with(
            &col_file,
            &Selection::All,
            &SlimSpec::keep_all(),
            None,
            |ev| seen.push(ev.clone()),
        )
        .expect("skims");
        assert_eq!(seen, events);
    }

    #[test]
    fn survivor_decode_rejects_p4_and_id_columns_that_disagree() {
        // e-p4 from rows with electrons, e-id from the same rows without
        // them: every frame is well formed and sealed, only the pairing
        // is wrong. The trusted skim skips the seals, so its survivor
        // decode must check the pairing as the verified read does.
        let events = sample_events(4);
        let bare: Vec<AodEvent> = events
            .iter()
            .map(|ev| AodEvent {
                electrons: Vec::new(),
                ..ev.clone()
            })
            .collect();
        let mut buf = BytesMut::new();
        buf.put_slice(&[0; FRAMES_BASE]);
        let lens = ColumnId::ALL.map(|id| {
            let src = if id == ColumnId::ElectronId {
                &bare
            } else {
                &events
            };
            let (counts, entries) = build_column(id, src);
            let at = buf.len();
            put_column(&mut buf, id, &counts, &entries);
            buf.len() - at
        });
        let file = seal_file(buf, COLUMNAR_VERSION, 4, &lens);
        let verified = ColumnarFile::parse(&file)
            .and_then(|f| f.to_rows())
            .expect_err("verified read checks the pairing");
        let trusted =
            skim_slim_columnar_with(&file, &Selection::All, &SlimSpec::keep_all(), None, |_| {
                panic!("no survivor may be decoded")
            })
            .expect_err("survivor decode checks the pairing");
        assert_eq!(trusted.to_string(), verified.to_string());
    }

    #[test]
    fn pushdown_counters_report_the_columns_actually_opened() {
        let events = sample_events(20);
        let col_file = ColumnarFile::from_rows(&events);
        // NLeptons + leptons_only: e/mu p4 for the cut, header + scalars
        // + e/mu id + both jet columns for the copy = 8 read, 2 skipped.
        let registry = MetricsRegistry::default();
        skim_slim_columnar(
            &col_file,
            &Selection::NLeptons { n: 2, pt: 10.0 },
            &SlimSpec::leptons_only(),
            Some(&registry),
        )
        .expect("skims");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tier.columnar.cols_read"), 8);
        assert_eq!(snap.counter("tier.columnar.cols_skipped"), 2);

        // MET cut + candidates_only touches only scalars, header, cand.
        let registry = MetricsRegistry::default();
        skim_slim_columnar(
            &col_file,
            &Selection::MetAbove(12.0),
            &SlimSpec::candidates_only(),
            Some(&registry),
        )
        .expect("skims");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tier.columnar.cols_read"), 3);
        assert_eq!(snap.counter("tier.columnar.cols_skipped"), 7);
    }

    #[test]
    fn wide_digest_is_deterministic_and_discriminating() {
        let a = fnv64_wide(b"daspos columnar tier");
        assert_eq!(a, fnv64_wide(b"daspos columnar tier"));
        assert_ne!(a, fnv64_wide(b"daspos columnar tieR"));
        assert_ne!(fnv64_wide(b""), fnv64_wide(b"\0"));
        assert_ne!(fnv64_wide(b"ab"), fnv64_wide(b"ba"));
    }

    #[test]
    fn tier_format_names_round_trip() {
        for fmt in [TierFormat::Row, TierFormat::Columnar] {
            assert_eq!(TierFormat::parse(fmt.name()), Some(fmt));
        }
        assert_eq!(TierFormat::parse("parquet"), None);
        assert_eq!(TierFormat::default(), TierFormat::Row);
    }

    #[test]
    fn wrong_magic_version_tier_are_rejected() {
        let file = ColumnarFile::from_rows(&sample_events(3));
        let mut bad = file.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            ColumnarFile::parse(&Bytes::from(bad)),
            Err(CodecError::BadMagic)
        ));
        let mut bad = file.to_vec();
        bad[4] = 9;
        assert!(matches!(
            ColumnarFile::parse(&Bytes::from(bad)),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut bad = file.to_vec();
        bad[6] = DataTier::Raw.code();
        assert!(matches!(
            ColumnarFile::parse(&Bytes::from(bad)),
            Err(CodecError::WrongTier { .. })
        ));
    }

    /// The encoding tag a parsed file stores for `col` (first frame byte).
    fn frame_tag(file: &Bytes, parsed: &ColumnarFile, col: ColumnId) -> u8 {
        file[parsed.cols[col as usize].offset]
    }

    #[test]
    fn v1_files_still_parse_decode_and_skim() {
        let events = sample_events(19);
        let v1 = ColumnarFile::from_rows_v1(&events);
        let parsed = ColumnarFile::parse(&v1).expect("v1 parses");
        assert_eq!(parsed.version(), COLUMNAR_VERSION_V1);
        assert_eq!(parsed.to_rows().expect("v1 decodes"), events);
        // A v2 writer re-encoding the same rows carries the new version…
        let v2 = ColumnarFile::from_rows(&events);
        assert_eq!(
            ColumnarFile::parse(&v2).unwrap().version(),
            COLUMNAR_VERSION
        );
        // …and skimming a v1 file yields the canonical v2 output.
        let sel = Selection::NLeptons { n: 1, pt: 10.0 };
        let slim = SlimSpec::leptons_only();
        let (expected, _) = skim_slim(&events, &sel, &slim);
        let (out, _) = skim_slim_columnar(&v1, &sel, &slim, None).expect("v1 skims");
        assert_eq!(out, ColumnarFile::from_rows(&expected));
    }

    #[test]
    fn v1_truncations_and_flips_are_detected_or_harmless() {
        let events = sample_events(4);
        let file = ColumnarFile::from_rows_v1(&events);
        for len in 0..file.len() {
            ColumnarFile::parse(&file.slice(0..len))
                .and_then(|f| f.to_rows().map(|_| ()))
                .expect_err("v1 truncation must error");
        }
        for pos in 0..file.len() {
            let mut bytes = file.to_vec();
            bytes[pos] ^= 0x40;
            match ColumnarFile::parse(&Bytes::from(bytes)).and_then(|f| f.to_rows()) {
                Err(_) => {}
                Ok(back) => assert_eq!(back, events, "undetected v1 flip at byte {pos}"),
            }
        }
    }

    #[test]
    fn writer_keeps_delta_only_when_strictly_smaller_than_raw() {
        // Constant run/lumi + incrementing event number: the header column
        // deltas down to ~3 bytes/row, the all-zero scalars to 3 bytes/row,
        // and the empty fat columns shrink to a counts block.
        let runs: Vec<AodEvent> = (0..600)
            .map(|i| AodEvent::new(EventHeader::new(194_270, 12, 900_000 + i as u64)))
            .collect();
        let file = ColumnarFile::from_rows(&runs);
        let parsed = ColumnarFile::parse(&file).expect("parses");
        for id in ColumnId::ALL {
            assert_eq!(frame_tag(&file, &parsed, id), TAG_DELTA, "{}", id.name());
        }
        // The all-empty fat column compresses to a handful of bytes where
        // raw spends 4 bytes per row on zero counts.
        assert!(parsed.cols[ColumnId::ElectronP4 as usize].len < 32);
        assert_eq!(parsed.to_rows().expect("decodes"), runs);

        // One row whose scalars delta to exactly the 20 raw bytes (a
        // negative f64 costs a 10-byte varint, 3.0 a 9-byte one, 7 one
        // byte): the tie goes to raw. A `mey` whose bits fit 56 bits
        // costs 8 bytes, so delta is one byte smaller and is kept, as it
        // is with `mey` zeroed.
        let one_row = |mey: f64| {
            let mut ev = AodEvent::new(EventHeader::new(194_270, 12, 900_000));
            ev.met = Met { mex: -4.5, mey };
            ev.n_tracks = 7;
            ColumnarFile::from_rows(&[ev])
        };
        for (mey, tag, len) in [
            (3.0, TAG_RAW, 21),
            (f64::from_bits(1 << 55), TAG_DELTA, 20),
            (0.0, TAG_DELTA, 13),
        ] {
            let file = one_row(mey);
            let parsed = ColumnarFile::parse(&file).expect("parses");
            assert_eq!(
                frame_tag(&file, &parsed, ColumnId::Scalars),
                tag,
                "mey {mey}"
            );
            assert_eq!(
                parsed.cols[ColumnId::Scalars as usize].len,
                len,
                "mey {mey}"
            );
            assert_eq!(parsed.to_rows().expect("decodes")[0].met.mey, mey);
        }

        // A variable column falls back to raw the same way: the one
        // electron's id frame is the interleaved raw row.
        let ev = one_electron_event();
        let file = ColumnarFile::from_rows(std::slice::from_ref(&ev));
        let parsed = ColumnarFile::parse(&file).expect("parses");
        assert_eq!(frame_tag(&file, &parsed, ColumnId::ElectronId), TAG_RAW);
        assert_eq!(parsed.cols[ColumnId::ElectronId as usize].len, 1 + 4 + 17);
        assert_eq!(frame_tag(&file, &parsed, ColumnId::ElectronP4), TAG_DELTA);
        assert_eq!(parsed.to_rows().expect("decodes"), [ev]);

        // Counts blocks: the smaller mode wins, ties go to varints, and
        // every block is exactly the size the one sizing scan predicts.
        let block = |counts: &[u32]| {
            let (mode, len) = counts_block(counts);
            let mut out = BytesMut::new();
            put_counts(&mut out, counts, mode);
            assert_eq!(out.len(), len, "sized length of {counts:?}");
            let (mut off, mut starts) = (0usize, Vec::new());
            decode_counts(&out, &mut off, counts.len(), &mut starts).unwrap();
            let decoded: Vec<u32> = starts.windows(2).map(|w| w[1] - w[0]).collect();
            assert_eq!(decoded, counts);
            assert_eq!(off, out.len());
            out.to_vec()
        };
        // A tie: two one-byte varints against one (run 2, count 5) pair.
        // The varint mode wins.
        assert_eq!(block(&[5, 5]), [COUNTS_VARINT, 5, 5]);
        // No rows at all is also a tie (both modes are empty).
        assert_eq!(block(&[]), [COUNTS_VARINT]);
        // A 300-row run crosses MAX_RUN = 255: two pairs, the first a
        // two-byte varint run.
        assert_eq!(
            block(&[3; 300]),
            [COUNTS_RLE, 0xFF, 0x01, 3, 45, 3],
            "run split at MAX_RUN"
        );
        // An all-zero column: 1000 rows in four pairs.
        let zeros = block(&[0; 1000]);
        assert_eq!(zeros[0], COUNTS_RLE);
        assert_eq!(zeros.len(), 1 + 3 * 3 + 3, "runs 255, 255, 255, 235");
        // Where runs do not pay, the varint mode is strictly smaller.
        let mixed: Vec<u32> = (0..64).map(|i| i % 3).collect();
        assert_eq!(block(&mixed)[0], COUNTS_VARINT);
        // A skim that drops a collection writes an all-zero fat column:
        // it is still delta (a counts block), far below raw.
        let mut frame = BytesMut::new();
        put_column(&mut frame, ColumnId::Photon, &[0; 1000], &[]);
        assert_eq!(frame[0], TAG_DELTA);
        assert_eq!(&frame[1..], &zeros[..]);
    }

    #[test]
    fn v2_writer_emits_only_raw_and_delta_frames() {
        for n in [1usize, 7, 300] {
            let events = sample_events(n);
            let file = ColumnarFile::from_rows(&events);
            let parsed = ColumnarFile::parse(&file).expect("parses");
            for id in ColumnId::ALL {
                let tag = frame_tag(&file, &parsed, id);
                assert!(
                    tag == TAG_RAW || tag == TAG_DELTA,
                    "{n} events: column '{}' written with tag {tag}",
                    id.name()
                );
            }
            assert_eq!(parsed.to_rows().expect("decodes"), events);
        }
    }

    /// A v2 file written by a writer that still emitted the dictionary
    /// and RLE encodings, from [`legacy_events`]: its mu-id column is one
    /// RLE run and its scalars column a two-entry dictionary. Readers
    /// keep decoding both.
    const LEGACY_V2: &[u8] = include_bytes!("../../../tests/golden/dpcf-v2-dict-rle.dpcf");

    /// The legacy file [`LEGACY_V2`] as the readers take it.
    pub(super) fn legacy_file() -> Bytes {
        Bytes::from_static(LEGACY_V2)
    }

    /// 40 events with one identical muon each and MET alternating
    /// between two values.
    fn legacy_events() -> Vec<AodEvent> {
        (0..40u64)
            .map(|i| {
                let mut ev = AodEvent::new(EventHeader::new(194_270, 12, 900_000 + i));
                ev.muons.push(Muon {
                    momentum: FourVector {
                        px: -8.0,
                        py: 14.0,
                        pz: -2.0,
                        e: 30.0,
                    },
                    charge: -1,
                    n_stations: 3,
                    isolation: 0.05,
                });
                ev.met = Met {
                    mex: if i % 2 == 0 { 17.25 } else { -4.5 },
                    mey: 3.0,
                };
                ev.n_tracks = 7;
                ev
            })
            .collect()
    }

    #[test]
    fn legacy_dictionary_and_rle_frames_still_decode() {
        let file = legacy_file();
        let events = legacy_events();
        let parsed = ColumnarFile::parse(&file).expect("legacy file parses");
        assert_eq!(parsed.version(), COLUMNAR_VERSION);
        assert_eq!(frame_tag(&file, &parsed, ColumnId::MuonId), TAG_RLE);
        assert_eq!(frame_tag(&file, &parsed, ColumnId::Scalars), TAG_DICT);
        parsed.verify().expect("legacy file verifies");
        assert_eq!(parsed.to_rows().expect("legacy file decodes"), events);

        for sel in selections() {
            for slim in [SlimSpec::keep_all(), SlimSpec::leptons_only()] {
                let (expected, _) = skim_slim(&events, &sel, &slim);
                let (out, _) =
                    skim_slim_columnar(&file, &sel, &slim, None).expect("legacy file skims");
                assert_eq!(out, ColumnarFile::from_rows(&expected), "sel {sel}");
            }
        }

        for len in 0..file.len() {
            ColumnarFile::parse(&file.slice(0..len))
                .and_then(|f| f.to_rows().map(|_| ()))
                .expect_err("legacy truncation must error");
        }
        for pos in 0..file.len() {
            let mut bytes = file.to_vec();
            bytes[pos] ^= 0x40;
            match ColumnarFile::parse(&Bytes::from(bytes)).and_then(|f| f.to_rows()) {
                Err(_) => {}
                Ok(back) => assert_eq!(back, events, "undetected legacy flip at byte {pos}"),
            }
        }
    }

    /// The stack-staged varint writer [`put_varint`] replaced, kept as
    /// the byte-for-byte reference for the word-spread one.
    fn put_varint_reference(buf: &mut BytesMut, mut v: u64) {
        let mut tmp = [0u8; 10];
        let mut n = 0usize;
        while v >= 0x80 {
            tmp[n] = (v as u8) | 0x80;
            v >>= 7;
            n += 1;
        }
        tmp[n] = v as u8;
        buf.put_slice(&tmp[..=n]);
    }

    #[test]
    fn varint_edge_values_round_trip_and_corruption_errors() {
        let mut values = vec![0u64, 300, u64::MAX - 1, u64::MAX];
        for k in 0..64 {
            values.push((1u64 << k) - 1);
            values.push(1u64 << k);
        }
        // Seeded sweep (splitmix64), each value shifted down by a random
        // amount so every encoded length 1..=10 is well covered.
        let mut state = 0x5EED_0FDA_5905u64;
        for _ in 0..20_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            values.push(z >> (z % 64));
        }
        for &v in &values {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut reference = BytesMut::new();
            put_varint_reference(&mut reference, v);
            assert_eq!(buf, reference, "varint bytes of {v:#x}");
            assert_eq!(buf.len(), varint_len(v));
            let mut off = 0usize;
            assert_eq!(get_varint(&buf, &mut off).unwrap(), v);
            assert_eq!(off, buf.len());
        }
        // Back to back in one buffer, as the encoders append them: each
        // store cut back to its length leaves the next value's bytes
        // where the reference puts them.
        let (mut stream, mut reference) = (BytesMut::new(), BytesMut::new());
        for &v in &values {
            put_varint(&mut stream, v);
            put_varint_reference(&mut reference, v);
        }
        assert_eq!(stream, reference);
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Truncated mid-varint: every prefix with the continuation bit
        // still set must error, not loop or read past the end.
        let mut off = 0usize;
        assert!(get_varint(&[0x80, 0x80], &mut off).is_err());
        // An 11-byte continuation chain overflows u64.
        let mut off = 0usize;
        assert!(get_varint(&[0xFF; 11], &mut off).is_err());
        // Ten bytes whose last byte pushes past 64 bits also overflow.
        let mut over = vec![0x80u8; 9];
        over.push(0x02);
        let mut off = 0usize;
        assert!(get_varint(&over, &mut off).is_err());
    }

    #[test]
    fn parallel_encode_is_byte_identical_at_1_2_4_threads() {
        let events = sample_events(50);
        let file = ColumnarFile::from_rows(&events);
        for threads in [1usize, 2, 4] {
            assert_eq!(
                encode_columnar_parallel(&events, threads),
                file,
                "{threads}-thread encode must be byte-identical to sequential"
            );
        }
    }

    /// `(events, v2 len, v2 fnv64, v1 len, v1 fnv64)` of `from_rows` and
    /// `from_rows_v1` over `sample_events(events)`. The v1 values and the
    /// v2 values at 0 and 1 events were recorded before both versions
    /// moved onto the per-column layout; the v2 values at 7, 50 and 301
    /// events were re-recorded when the writer stopped emitting the
    /// dictionary and RLE encodings those synthetic inputs used to pick.
    const GOLDEN_FILES: [(usize, usize, u64, usize, u64); 5] = [
        (0, 192, 0x28476e71586dd950, 182, 0xf2f731f2cfc48d22),
        (1, 278, 0x27f7d9aa5e67db78, 292, 0x4c5d6862b835fd6f),
        (7, 1937, 0xc71d6464319366bb, 2348, 0x23dd93bb839653a4),
        (50, 13716, 0xd8c844e4e02fd238, 16933, 0x1315c1dbee85d1b2),
        (301, 81337, 0xb75d61d19a542934, 101092, 0x8c54582fef16d1d8),
    ];

    #[test]
    fn v1_and_v2_bytes_match_the_recorded_golden_digests() {
        use crate::codec::fnv64;
        for (n, v2_len, v2_digest, v1_len, v1_digest) in GOLDEN_FILES {
            let events = sample_events(n);
            let v2 = ColumnarFile::from_rows(&events);
            let v1 = ColumnarFile::from_rows_v1(&events);
            assert_eq!(
                (v2.len(), fnv64(&v2)),
                (v2_len, v2_digest),
                "v2, {n} events"
            );
            assert_eq!(
                (v1.len(), fnv64(&v1)),
                (v1_len, v1_digest),
                "v1, {n} events"
            );
        }
    }
}
