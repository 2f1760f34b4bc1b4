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
//! Readers hold every column in the writer's shape, whatever its frame:
//! fixed records back to back, or a variable column's entries back to
//! back with per-row entry offsets built from its counts. Consecutive
//! rows are therefore contiguous bytes in every column, so the skim
//! copies each run of survivors with one `memcpy` per column and hands
//! the (counts, entries) pair straight back to the writer.

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

    /// Open one column. `verify` checks the table digest over the stored
    /// frame before the structural walk — the archival read path; the hot
    /// skim path skips it, exactly as row-format DPEF payloads are
    /// trusted between archive seals. Every frame comes back in the one
    /// [`ColumnReader`] layout, so callers never see the encoding.
    fn open(&self, id: ColumnId, verify: bool) -> Result<ColumnReader, CodecError> {
        let meta = self.cols[id as usize];
        let frame = self.data.slice(meta.offset..meta.offset + meta.len);
        if verify {
            let actual = fnv64_wide(&frame);
            if actual != meta.digest {
                return Err(CodecError::SealMismatch {
                    stored: meta.digest,
                    actual,
                });
            }
        }
        let layout = id.layout();
        if self.version == COLUMNAR_VERSION_V1 {
            return reader_from_raw(id, layout, frame, self.n_rows);
        }
        match frame[0] {
            TAG_RAW => reader_from_raw(id, layout, frame.slice(1..), self.n_rows),
            tag => decode_frame(id, layout, tag, &frame, self.n_rows),
        }
    }

    /// Open every column verified and cross-check the paired p4/id counts
    /// — the full-integrity read the verifier and faultlab lean on.
    fn open_checked(&self) -> Result<[ColumnReader; N_COLUMNS], CodecError> {
        let mut readers: [Option<ColumnReader>; N_COLUMNS] = Default::default();
        for id in ColumnId::ALL {
            readers[id as usize] = Some(self.open(id, true)?);
        }
        let readers = readers.map(|r| r.expect("all columns opened"));
        cross_check_counts(&readers, self.n_rows)?;
        Ok(readers)
    }

    /// Fully verify the file: every column digest, every structural walk,
    /// every cross-column count invariant.
    pub fn verify(&self) -> Result<(), CodecError> {
        self.open_checked().map(|_| ())
    }

    /// Decode every row back into AOD events — the verifying, archival
    /// inverse of [`from_rows`]. Byte-identical round trip:
    /// `AodEvent::encode_events(&file.to_rows()?)` reproduces the row
    /// file the events came from, and `from_rows(&file.to_rows()?)`
    /// reproduces this file.
    pub fn to_rows(&self) -> Result<Vec<AodEvent>, CodecError> {
        let r = self.open_checked()?;
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
        let cols = ColumnId::ALL.map(|id| {
            let (counts, entries) = build_column(id, events);
            let mut raw = BytesMut::with_capacity(4 * counts.len() + entries.len());
            put_raw(&mut raw, id, &counts, &entries);
            raw
        });
        assemble_file(COLUMNAR_VERSION_V1, row_count(events), &cols)
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

/// Stamp the header, table (with digests over the stored frames) and
/// frames into one buffer.
fn assemble_file(version: u16, n_rows: u32, cols: &[BytesMut; N_COLUMNS]) -> Bytes {
    let total: usize = cols.iter().map(|c| c.len()).sum();
    let mut buf = BytesMut::with_capacity(FRAMES_BASE + total);
    buf.put_slice(COLUMNAR_MAGIC);
    buf.put_u16_le(version);
    buf.put_u8(DataTier::Aod.code());
    buf.put_u32_le(n_rows);
    buf.put_u8(N_COLUMNS as u8);
    let mut off = 0u32;
    for (i, c) in cols.iter().enumerate() {
        let len = u32::try_from(c.len()).unwrap_or_else(|_| {
            panic!(
                "column {i} of {} bytes exceeds the u32 length field",
                c.len()
            )
        });
        buf.put_u8(i as u8);
        buf.put_u32_le(off);
        buf.put_u32_le(len);
        buf.put_u64_le(fnv64_wide(c));
        off = off
            .checked_add(len)
            .expect("columnar frames exceed the u32 offset field");
    }
    for c in cols {
        buf.put_slice(c);
    }
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

/// Per-record field plan for the delta encoding, `None` for the fat
/// four-momentum-bearing columns whose float payloads rarely delta well:
/// there v2 stores the entries verbatim and compresses only the counts
/// block (still a large win — a 4-byte prefix per row shrinks to a
/// varint or a run). The plan is a static function of the column, so
/// the decoder needs no side channel.
fn delta_plan(id: ColumnId) -> Option<&'static [FieldKind]> {
    use FieldKind::{Byte, F64, U32, U64};
    Some(match id {
        ColumnId::Header => &[U32, U32, U64],
        ColumnId::Scalars => &[F64, F64, U32],
        ColumnId::ElectronId => &[Byte, F64, F64],
        ColumnId::MuonId => &[Byte, Byte, F64],
        ColumnId::JetId => &[U32, F64],
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
/// at least a maximal varint's worth of bytes remains, the read runs
/// in a fixed-trip loop the optimizer can unroll, with the slice
/// bound hoisted out — XOR'd doubles routinely encode to 9–10 bytes,
/// so this path carries most of the delta decode.
fn get_varint(b: &[u8], off: &mut usize) -> Result<u64, CodecError> {
    let Some(s) = b.get(*off..) else {
        return get_varint_slow(b, off);
    };
    if s.len() < 10 {
        return get_varint_slow(b, off);
    }
    let mut v = 0u64;
    for (i, &raw) in s.iter().enumerate().take(9) {
        let byte = u64::from(raw);
        v |= (byte & 0x7f) << (7 * i as u32);
        if byte < 0x80 {
            *off += i + 1;
            return Ok(v);
        }
    }
    let last = u64::from(s[9]);
    if last > 1 {
        return Err(CodecError::Corrupt("varint overflows u64".into()));
    }
    v |= last << 63;
    *off += 10;
    Ok(v)
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

/// Decode a v2 counts block. Every count and the running entry total
/// are capped at [`MAX_COUNT`], and the RLE mode may not overshoot the
/// row count, so a forged block cannot demand unbounded memory from the
/// readers that size buffers off these counts.
fn decode_counts(b: &[u8], off: &mut usize, n_rows: usize) -> Result<Vec<u32>, CodecError> {
    let Some(&mode) = b.get(*off) else {
        return Err(CodecError::UnexpectedEof);
    };
    *off += 1;
    let mut counts: Vec<u32> = Vec::with_capacity((n_rows + 1).min(4096));
    let mut total = 0u64;
    match mode {
        COUNTS_VARINT => {
            for _ in 0..n_rows {
                let c = get_varint(b, off)?;
                total += check_count(c, total)?;
                counts.push(c as u32);
            }
        }
        COUNTS_RLE => {
            while counts.len() < n_rows {
                let run = get_varint(b, off)?;
                if run == 0 || run > MAX_RUN {
                    return Err(CodecError::Corrupt(format!("count run {run} out of range")));
                }
                if run as usize > n_rows - counts.len() {
                    return Err(CodecError::Corrupt(
                        "count runs overshoot the row count".into(),
                    ));
                }
                let c = get_varint(b, off)?;
                for _ in 0..run {
                    total += check_count(c, total)?;
                    counts.push(c as u32);
                }
            }
        }
        _ => {
            return Err(CodecError::Corrupt(format!("unknown counts mode {mode}")));
        }
    }
    Ok(counts)
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
/// field `plan` into `out` (which already carries the frame prefix).
fn encode_delta(records: &[u8], rec: usize, plan: &[FieldKind], out: &mut BytesMut) {
    let mut prev = [0u64; MAX_PLAN_FIELDS];
    for r in records.chunks_exact(rec) {
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

/// Decode exactly `n_records` `rec`-byte records from `b` at `*off`
/// into `out`, under the encoding `tag` was validated to name: delta,
/// or one of the legacy dictionary and RLE encodings. Corrupt
/// streams error before producing data, and the initial reserve is
/// clamped, so allocation stays proportional to the bytes the frame
/// actually carries — a forged count cannot demand memory the stream
/// never backs.
#[allow(clippy::too_many_arguments)]
fn decode_records(
    id: ColumnId,
    tag: u8,
    b: &[u8],
    off: &mut usize,
    n_records: usize,
    rec: usize,
    plan: &[FieldKind],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.reserve((n_records * rec).min(64 * 1024));
    match tag {
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
                out.extend_from_slice(&table[idx * rec..(idx + 1) * rec]);
            }
            *off += n_records;
        }
        TAG_DELTA => {
            let mut prev = [0u64; MAX_PLAN_FIELDS];
            for _ in 0..n_records {
                for (fi, kind) in plan.iter().enumerate() {
                    match kind {
                        FieldKind::Byte => {
                            let Some(&v) = b.get(*off) else {
                                return Err(CodecError::UnexpectedEof);
                            };
                            *off += 1;
                            out.push(v);
                        }
                        FieldKind::U32 => {
                            let d = get_varint(b, off)?;
                            let v = (prev[fi] as i64)
                                .checked_add(unzigzag(d))
                                .and_then(|v| u32::try_from(v).ok())
                                .ok_or_else(|| {
                                    CodecError::Corrupt("u32 delta lands out of range".into())
                                })?;
                            prev[fi] = u64::from(v);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        FieldKind::U64 => {
                            let d = get_varint(b, off)?;
                            let v = prev[fi].wrapping_add(unzigzag(d) as u64);
                            prev[fi] = v;
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        FieldKind::F64 => {
                            let d = get_varint(b, off)?;
                            let v = prev[fi] ^ d;
                            prev[fi] = v;
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
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
                    out.extend_from_slice(r);
                }
                produced += run;
            }
        }
        _ => {
            return Err(CodecError::Corrupt(format!(
                "column '{}' does not support encoding tag {tag}",
                id.name()
            )));
        }
    }
    Ok(())
}

/// Encode one column into its v2 frame (tag-prefixed). A fixed column
/// comes as its records back to back with `counts` empty; a variable
/// column as its per-row entry counts and its entries back to back. The
/// frame is delta ([`encode_delta`] under the column's field plan, or
/// verbatim entries behind a compressed counts block for the fat
/// columns) when that is strictly smaller than the raw frame, raw (the
/// v1 layout, [`put_raw`]) otherwise. A pure function of (column,
/// counts, entries) — so re-encoding the rows a skim keeps equals
/// encoding the same events from scratch, and skim output stays
/// canonical.
fn encode_column(id: ColumnId, counts: &[u32], entries: &[u8]) -> BytesMut {
    let raw_len = 4 * counts.len() + entries.len();
    let Some(plan) = delta_plan(id) else {
        // Fat columns keep their entries verbatim, so the delta frame's
        // size is known before a byte is written: build only the frame
        // that wins, at its exact size.
        let (mode, block_len) = counts_block(counts);
        let delta_len = 1 + block_len + entries.len();
        if delta_len > raw_len {
            return raw_frame(id, counts, entries);
        }
        let mut frame = BytesMut::with_capacity(delta_len);
        frame.put_u8(TAG_DELTA);
        put_counts(&mut frame, counts, mode);
        frame.put_slice(entries);
        return frame;
    };
    // Room for one maximal varint store past a raw-sized frame, so the
    // encode never regrows the buffer before it loses to raw.
    let mut frame = BytesMut::with_capacity(1 + raw_len + MAX_VARINT_LEN);
    frame.put_u8(TAG_DELTA);
    let rec = match id.layout() {
        ColumnLayout::Fixed(stride) => stride,
        ColumnLayout::Var(entry) => {
            let (mode, _) = counts_block(counts);
            put_counts(&mut frame, counts, mode);
            entry
        }
    };
    encode_delta(entries, rec, plan, &mut frame);
    if frame.len() > raw_len {
        // Delta is not strictly smaller than the raw frame: ties go to raw.
        return raw_frame(id, counts, entries);
    }
    // Frames live until the file is assembled: keep an exact-size copy,
    // not the raw-sized encode buffer.
    BytesMut::from(frame.to_vec())
}

/// The `TAG_RAW` frame of a column, at its exact size.
fn raw_frame(id: ColumnId, counts: &[u32], entries: &[u8]) -> BytesMut {
    let mut frame = BytesMut::with_capacity(1 + 4 * counts.len() + entries.len());
    frame.put_u8(TAG_RAW);
    put_raw(&mut frame, id, counts, entries);
    frame
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

/// Decode a non-raw v2 frame into a [`ColumnReader`]. A variable
/// column's counts block becomes the reader's row offsets, in place;
/// the records or entries are then decoded under the column's field
/// plan, or — for the fat four-momentum columns, whose entries v2
/// stores verbatim — kept as a zero-copy window over the entries region.
fn decode_frame(
    id: ColumnId,
    layout: ColumnLayout,
    tag: u8,
    frame: &Bytes,
    n_rows: usize,
) -> Result<ColumnReader, CodecError> {
    let b: &[u8] = frame;
    let mut off = 1usize; // past the encoding tag
    let (rec, n_records, starts) = match layout {
        ColumnLayout::Fixed(stride) => (stride, n_rows, Vec::new()),
        ColumnLayout::Var(entry) => {
            let mut starts = decode_counts(b, &mut off, n_rows)?;
            let mut acc = 0u32;
            for s in &mut starts {
                let count = std::mem::replace(s, acc);
                acc += count * entry as u32; // total·entry < 2³⁰, no overflow
            }
            starts.push(acc);
            (entry, acc as usize / entry, starts)
        }
    };
    let Some(plan) = delta_plan(id) else {
        if tag != TAG_DELTA {
            return Err(CodecError::Corrupt(format!(
                "column '{}' does not support encoding tag {tag}",
                id.name()
            )));
        }
        if b.len() - off != n_records * rec {
            return Err(CodecError::Corrupt(format!(
                "column '{}' entries region is {} bytes for \
                 {n_records} entries of {rec}",
                id.name(),
                b.len() - off
            )));
        }
        return Ok(ColumnReader {
            layout,
            payload: frame.slice(off..),
            starts,
        });
    };
    let mut records = Vec::new();
    decode_records(id, tag, b, &mut off, n_records, rec, plan, &mut records)?;
    if off != b.len() {
        return Err(trailing_bytes(id, b.len() - off));
    }
    Ok(ColumnReader {
        layout,
        payload: Bytes::from(records),
        starts,
    })
}

fn trailing_bytes(id: ColumnId, n: usize) -> CodecError {
    CodecError::Corrupt(format!(
        "column '{}' has {n} bytes past its encoded stream",
        id.name()
    ))
}

/// The paired p4/id columns must agree on every row's entry count.
fn cross_check_counts(
    readers: &[ColumnReader; N_COLUMNS],
    n_rows: usize,
) -> Result<(), CodecError> {
    for (p4, id) in [
        (ColumnId::ElectronP4, ColumnId::ElectronId),
        (ColumnId::MuonP4, ColumnId::MuonId),
        (ColumnId::JetP4, ColumnId::JetId),
    ] {
        let (a, b) = (&readers[p4 as usize], &readers[id as usize]);
        for row in 0..n_rows {
            if a.count(row) != b.count(row) {
                return Err(CodecError::Corrupt(format!(
                    "columns '{}' and '{}' disagree on the entry \
                     count at row {row}",
                    p4.name(),
                    id.name()
                )));
            }
        }
    }
    Ok(())
}

// --- Worker-pool parallel encode --------------------------------------------

/// Encode AOD events into a columnar file with the ten column builds
/// and frame encodes fanned over the worker pool. Each worker lays out
/// and encodes whole columns and the merge keeps column order, so the
/// bytes are the same at any thread count; `threads <= 1` is
/// [`ColumnarFile::from_rows`].
pub fn encode_columnar_parallel(events: &[AodEvent], threads: usize) -> Bytes {
    let n_rows = row_count(events);
    let chunk_len = N_COLUMNS.div_ceil(threads.max(1));
    let frames: Vec<BytesMut> = par::map_chunks(N_COLUMNS, chunk_len, threads, |_, range| {
        ColumnId::ALL[range]
            .iter()
            .map(|&id| {
                let (counts, entries) = build_column(id, events);
                encode_column(id, &counts, &entries)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let frames: [BytesMut; N_COLUMNS] = frames.try_into().expect("one frame per column");
    assemble_file(COLUMNAR_VERSION, n_rows, &frames)
}

/// Lay out one column for `events` as [`encode_column`] takes it: the
/// per-row entry counts (empty for a fixed column) and the records or
/// entries back to back, the latter reserved at its exact size. The
/// per-column worker of every columnar writer, sequential or parallel.
fn build_column(id: ColumnId, events: &[AodEvent]) -> (Vec<u32>, BytesMut) {
    let (counts, size): (Vec<u32>, usize) = match id.layout() {
        ColumnLayout::Fixed(stride) => (Vec::new(), events.len() * stride),
        ColumnLayout::Var(entry) => {
            let counts: Vec<u32> = events
                .iter()
                .map(|ev| {
                    (match id {
                        ColumnId::ElectronP4 | ColumnId::ElectronId => ev.electrons.len(),
                        ColumnId::MuonP4 | ColumnId::MuonId => ev.muons.len(),
                        ColumnId::Photon => ev.photons.len(),
                        ColumnId::JetP4 | ColumnId::JetId => ev.jets.len(),
                        ColumnId::Candidate => ev.candidates.len(),
                        ColumnId::Header | ColumnId::Scalars => unreachable!("fixed column"),
                    }) as u32
                })
                .collect();
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
/// to back with `starts` holding each row's entry-byte offset (`n_rows +
/// 1` of them). A row, or a run of rows, is therefore one slice. Fixed
/// raw columns and the fat delta-coded columns are zero-copy windows
/// into the file buffer; the thin delta-coded columns own their decoded
/// records, and a raw variable column owns its entries, copied once out
/// of the interleaved rows when it is opened.
struct ColumnReader {
    layout: ColumnLayout,
    payload: Bytes,
    starts: Vec<u32>,
}

/// Build a reader over a raw (v1-layout) payload. A fixed column stays a
/// zero-copy window. A variable column is walked row by row, validating
/// counts and extents, and its entries are copied out of the interleaved
/// rows into the reader layout.
fn reader_from_raw(
    id: ColumnId,
    layout: ColumnLayout,
    payload: Bytes,
    n_rows: usize,
) -> Result<ColumnReader, CodecError> {
    let ColumnLayout::Var(entry) = layout else {
        return Ok(ColumnReader {
            layout,
            payload,
            starts: Vec::new(),
        });
    };
    let b: &[u8] = &payload;
    // Raw payloads are at least 4 bytes per row (checked at parse), so
    // `n_rows` is bounded by the bytes actually present and neither
    // preallocation can outrun the file.
    let mut starts = Vec::with_capacity(n_rows + 1);
    let mut entries = Vec::with_capacity(b.len().saturating_sub(4 * n_rows));
    let mut off = 0usize;
    for _ in 0..n_rows {
        starts.push(entries.len() as u32);
        if off + 4 > b.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let count = rd_u32(b, off);
        if count > MAX_COUNT {
            return Err(CodecError::Corrupt(format!(
                "count {count} exceeds sanity limit"
            )));
        }
        let row_len = 4 + count as usize * entry;
        if b.len() - off < row_len {
            return Err(CodecError::UnexpectedEof);
        }
        entries.extend_from_slice(&b[off + 4..off + row_len]);
        off += row_len;
    }
    if off != b.len() {
        return Err(CodecError::Corrupt(format!(
            "column '{}' has {} trailing bytes",
            id.name(),
            b.len() - off
        )));
    }
    starts.push(entries.len() as u32);
    Ok(ColumnReader {
        layout,
        payload: Bytes::from(entries),
        starts,
    })
}

impl ColumnReader {
    /// Entries in `row` (1 for fixed columns).
    #[inline]
    fn count(&self, row: usize) -> usize {
        match self.layout {
            ColumnLayout::Fixed(_) => 1,
            ColumnLayout::Var(entry) => (self.starts[row + 1] - self.starts[row]) as usize / entry,
        }
    }

    /// The bytes of rows `a..b`: their records, or their entries.
    #[inline]
    fn span(&self, a: usize, b: usize) -> &[u8] {
        match self.layout {
            ColumnLayout::Fixed(stride) => &self.payload[a * stride..b * stride],
            ColumnLayout::Var(_) => &self.payload[self.starts[a] as usize..self.starts[b] as usize],
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

    fn opened(&self) -> usize {
        self.readers.iter().filter(|r| r.is_some()).count()
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
/// The selection opens only the columns its leaves read; survivors are
/// carried into the output by verbatim row copies (no event is ever
/// decoded), slim-dropped collections become empty rows without their
/// source column being touched at all, and the jet cap truncates by
/// entry arithmetic. The surviving *events* are exactly those
/// [`crate::skim::skim_slim_streaming_with`] keeps over the row encoding of
/// the same data; byte accounting in the report is per-format (file
/// sizes), since the two layouts price the same events differently.
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
/// survivors are decoded, only their kept columns, each into the one
/// scratch event the callback borrows.
pub fn skim_slim_columnar_with(
    file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&MetricsRegistry>,
    mut on_survivor: impl FnMut(&AodEvent),
) -> Result<(Bytes, SkimReport), CodecError> {
    skim_columnar_core(file, selection, slim, registry, Some(&mut on_survivor))
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

    // Columns the output (and the survivor callback) needs.
    let keep: [bool; N_COLUMNS] = {
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
    };
    for (i, kept) in keep.iter().enumerate() {
        if *kept {
            cache.ensure(ColumnId::ALL[i])?;
        }
    }

    let survivors: Vec<u32> = mask
        .iter()
        .enumerate()
        .filter_map(|(row, keep)| keep.then_some(row as u32))
        .collect();
    let n_out = survivors.len();

    // Consecutive surviving rows are contiguous in every column frame,
    // so each run of the mask is one memcpy per column instead of one
    // per row — on low-rejection skims this collapses ~n_rows copies
    // into a handful.
    let runs: Vec<(usize, usize)> = {
        let mut runs = Vec::new();
        let mut it = survivors.iter().peekable();
        while let Some(&start) = it.next() {
            let mut end = start;
            while it.peek().is_some_and(|&&next| next == end + 1) {
                end = *it.next().expect("peeked");
            }
            runs.push((start as usize, end as usize + 1));
        }
        runs
    };

    // One column scratch (counts + entries) is reused (cleared, capacity
    // kept) across all ten columns, so the pass holds a single column
    // plus the much smaller encoded frames instead of ten columns at
    // once, and is freed before the output is assembled.
    let frames: [BytesMut; N_COLUMNS] = {
        let mut counts: Vec<u32> = Vec::with_capacity(n_out);
        let mut entries = BytesMut::new();
        let mut frames: [BytesMut; N_COLUMNS] = Default::default();
        for (i, id) in ColumnId::ALL.iter().enumerate() {
            counts.clear();
            entries.clear();
            if !keep[i] {
                // Dropped collection: every surviving row becomes count = 0,
                // without ever opening the source column.
                counts.resize(n_out, 0);
                frames[i] = encode_column(*id, &counts, &entries);
                continue;
            }
            let col = cache.get(*id);
            // The runs' extents bound the kept bytes (exactly, under no
            // jet cap).
            entries.reserve(runs.iter().map(|&(a, b)| col.span(a, b).len()).sum());
            let cap = (matches!(id, ColumnId::JetP4 | ColumnId::JetId)
                && slim.max_jets != u32::MAX)
                .then_some(slim.max_jets as usize);
            for &(a, b) in &runs {
                match (id.layout(), cap) {
                    // A run of rows is contiguous in every column: one copy.
                    (ColumnLayout::Fixed(_), _) => entries.put_slice(col.span(a, b)),
                    (ColumnLayout::Var(_), None) => {
                        counts.extend((a..b).map(|row| col.count(row) as u32));
                        entries.put_slice(col.span(a, b));
                    }
                    // Capped jets keep each row's leading entries.
                    (ColumnLayout::Var(entry), Some(max)) => {
                        for row in a..b {
                            let n = col.count(row).min(max);
                            counts.push(n as u32);
                            entries.put_slice(&col.row(row)[..n * entry]);
                        }
                    }
                }
            }
            frames[i] = encode_column(*id, &counts, &entries);
        }
        frames
    };

    if let Some(reg) = registry {
        let read = cache.opened() as u64;
        reg.counter("tier.columnar.cols_read").add(read);
        reg.counter("tier.columnar.cols_skipped")
            .add(N_COLUMNS as u64 - read);
    }

    // The decoded input columns are dropped once the survivors are
    // materialized, so the pass never holds them beside the output.
    let ColumnCache {
        readers: mut slots, ..
    } = cache;
    if let Some(cb) = on_survivor {
        // Decode survivors (slimmed) straight off the kept input columns
        // into one reused scratch event — non-survivors and dropped
        // collections never decode; a dropped collection reads as an
        // empty column. The trusted open skipped the digests, so the
        // decoder's p4/id pairing is checked first, as the verified
        // read checks it.
        let readers: [ColumnReader; N_COLUMNS] = std::array::from_fn(|i| match slots[i].take() {
            Some(r) if keep[i] => r,
            // Only variable columns are ever dropped.
            _ => ColumnReader {
                layout: ColumnId::ALL[i].layout(),
                payload: Bytes::new(),
                starts: vec![0; cf.n_rows + 1],
            },
        });
        cross_check_counts(&readers, cf.n_rows)?;
        let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
        for &row in &survivors {
            decode_row_into(&readers, row as usize, slim, &mut ev);
            cb(&ev);
        }
    }
    drop(slots);

    let out = assemble_file(COLUMNAR_VERSION, n_out as u32, &frames);
    let report = SkimReport {
        events_in: cf.n_rows as u64,
        events_out: n_out as u64,
        bytes_in: file.len() as u64,
        bytes_out: out.len() as u64,
    };
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encodable;
    use crate::skim::skim_slim;

    fn sample_events(n: usize) -> Vec<AodEvent> {
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
        let cols = ColumnId::ALL.map(|id| {
            let src = if id == ColumnId::ElectronId {
                &bare
            } else {
                &events
            };
            let (counts, entries) = build_column(id, src);
            encode_column(id, &counts, &entries)
        });
        let file = assemble_file(COLUMNAR_VERSION, 4, &cols);
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
            let mut off = 0usize;
            assert_eq!(decode_counts(&out, &mut off, counts.len()).unwrap(), counts);
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
        let frame = encode_column(ColumnId::Photon, &[0; 1000], &[]);
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
        let file = Bytes::from_static(LEGACY_V2);
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
