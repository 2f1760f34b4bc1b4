//! Oracle for the one-walk columnar read path.
//!
//! `open`, `verify`, `to_rows` and `skim` below are the DPCF read path
//! that the one column walk replaced: every column is opened by a
//! materializing decoder (counts turned into byte offsets, the thin
//! columns' records decoded through a per-field plan dispatch into a
//! fresh buffer, raw rows copied out), `verify` builds all ten readers,
//! and the skim gathers the survivors of each column into a scratch,
//! re-encodes every frame into its own exact-size buffer and assembles
//! the file from those. The tests below demand that the production path
//! return the same `Result` as this one — error text, output bytes and
//! survivor events included — over every truncation and every
//! single-byte flip of a v1, a v2 and a legacy-tag file.

use bytes::{BufMut, Bytes, BytesMut};
use daspos_hep::event::EventHeader;
use daspos_obs::MetricsRegistry;
use daspos_reco::objects::AodEvent;

use super::tests::{legacy_file, sample_events};
use super::*;
use crate::codec::Encodable;

/// An opened column as the replaced readers held it: `starts` are
/// per-row *byte* offsets into the entries, so a row's count is a
/// division by the entry size.
struct ByteReader {
    layout: ColumnLayout,
    payload: Bytes,
    starts: Vec<u32>,
}

impl ByteReader {
    fn count(&self, row: usize) -> usize {
        match self.layout {
            ColumnLayout::Fixed(_) => 1,
            ColumnLayout::Var(entry) => (self.starts[row + 1] - self.starts[row]) as usize / entry,
        }
    }

    fn span(&self, a: usize, b: usize) -> &[u8] {
        match self.layout {
            ColumnLayout::Fixed(stride) => &self.payload[a * stride..b * stride],
            ColumnLayout::Var(_) => &self.payload[self.starts[a] as usize..self.starts[b] as usize],
        }
    }

    fn row(&self, row: usize) -> &[u8] {
        self.span(row, row + 1)
    }

    /// The production reader over the same bytes, for the one row
    /// decoder both paths share.
    fn into_reader(self) -> ColumnReader {
        let starts = match self.layout {
            ColumnLayout::Fixed(_) => self.starts,
            ColumnLayout::Var(entry) => self.starts.iter().map(|s| s / entry as u32).collect(),
        };
        ColumnReader {
            layout: self.layout,
            payload: self.payload,
            starts,
        }
    }
}

fn open(file: &ColumnarFile, id: ColumnId, verify: bool) -> Result<ByteReader, CodecError> {
    let meta = file.cols[id as usize];
    let frame = file.data.slice(meta.offset..meta.offset + meta.len);
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
    if file.version == COLUMNAR_VERSION_V1 {
        return reader_from_raw(id, layout, frame, file.n_rows);
    }
    match frame[0] {
        TAG_RAW => reader_from_raw(id, layout, frame.slice(1..), file.n_rows),
        tag => decode_frame(id, layout, tag, &frame, file.n_rows),
    }
}

fn open_checked(file: &ColumnarFile) -> Result<[ByteReader; N_COLUMNS], CodecError> {
    let mut readers: [Option<ByteReader>; N_COLUMNS] = Default::default();
    for id in ColumnId::ALL {
        readers[id as usize] = Some(open(file, id, true)?);
    }
    let readers = readers.map(|r| r.expect("all columns opened"));
    cross_check_counts(&readers, file.n_rows)?;
    Ok(readers)
}

pub(super) fn verify(file: &ColumnarFile) -> Result<(), CodecError> {
    open_checked(file).map(|_| ())
}

pub(super) fn to_rows(file: &ColumnarFile) -> Result<Vec<AodEvent>, CodecError> {
    let r = open_checked(file)?.map(ByteReader::into_reader);
    let keep_all = SlimSpec::keep_all();
    Ok((0..file.n_rows)
        .map(|row| {
            let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
            decode_row_into(&r, row, &keep_all, &mut ev);
            ev
        })
        .collect())
}

fn reader_from_raw(
    id: ColumnId,
    layout: ColumnLayout,
    payload: Bytes,
    n_rows: usize,
) -> Result<ByteReader, CodecError> {
    let ColumnLayout::Var(entry) = layout else {
        return Ok(ByteReader {
            layout,
            payload,
            starts: Vec::new(),
        });
    };
    let b: &[u8] = &payload;
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
    Ok(ByteReader {
        layout,
        payload: Bytes::from(entries),
        starts,
    })
}

/// The byte-at-a-time varint read [`get_varint`](super::get_varint)
/// replaced; [`get_varint_slow`] is still the production tail path.
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

fn decode_frame(
    id: ColumnId,
    layout: ColumnLayout,
    tag: u8,
    frame: &Bytes,
    n_rows: usize,
) -> Result<ByteReader, CodecError> {
    let b: &[u8] = frame;
    let mut off = 1usize;
    let (rec, n_records, starts) = match layout {
        ColumnLayout::Fixed(stride) => (stride, n_rows, Vec::new()),
        ColumnLayout::Var(entry) => {
            let mut starts = decode_counts(b, &mut off, n_rows)?;
            let mut acc = 0u32;
            for s in &mut starts {
                let count = std::mem::replace(s, acc);
                acc += count * entry as u32;
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
        return Ok(ByteReader {
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
    Ok(ByteReader {
        layout,
        payload: Bytes::from(records),
        starts,
    })
}

fn cross_check_counts(readers: &[ByteReader; N_COLUMNS], n_rows: usize) -> Result<(), CodecError> {
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

// --- The replaced skim: open, gather, re-encode, assemble -------------------

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
    }
}

fn encode_column(id: ColumnId, counts: &[u32], entries: &[u8]) -> BytesMut {
    let raw_len = 4 * counts.len() + entries.len();
    let Some(plan) = delta_plan(id) else {
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
        return raw_frame(id, counts, entries);
    }
    BytesMut::from(frame.to_vec())
}

fn raw_frame(id: ColumnId, counts: &[u32], entries: &[u8]) -> BytesMut {
    let mut frame = BytesMut::with_capacity(1 + 4 * counts.len() + entries.len());
    frame.put_u8(TAG_RAW);
    put_raw(&mut frame, id, counts, entries);
    frame
}

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
        let len = c.len() as u32;
        buf.put_u8(i as u8);
        buf.put_u32_le(off);
        buf.put_u32_le(len);
        buf.put_u64_le(fnv64_wide(c));
        off += len;
    }
    for c in cols {
        buf.put_slice(c);
    }
    buf.freeze()
}

struct ColumnCache<'a> {
    file: &'a ColumnarFile,
    readers: [Option<ByteReader>; N_COLUMNS],
}

impl<'a> ColumnCache<'a> {
    fn ensure(&mut self, id: ColumnId) -> Result<(), CodecError> {
        if self.readers[id as usize].is_none() {
            self.readers[id as usize] = Some(open(self.file, id, false)?);
        }
        Ok(())
    }

    fn get(&self, id: ColumnId) -> &ByteReader {
        self.readers[id as usize]
            .as_ref()
            .expect("column opened before use")
    }

    fn opened(&self) -> usize {
        self.readers.iter().filter(|r| r.is_some()).count()
    }
}

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
            count_mask(cache.get(ColumnId::Photon), n_rows, PHOTON_STRIDE, *n, *pt)
        }
        Selection::NJets { n, pt } => {
            cache.ensure(ColumnId::JetP4)?;
            count_mask(cache.get(ColumnId::JetP4), n_rows, P4_STRIDE, *n, *pt)
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

fn count_mask(col: &ByteReader, n_rows: usize, stride: usize, n: u32, pt: f64) -> Vec<bool> {
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

pub(super) fn skim(
    file: &Bytes,
    selection: &Selection,
    slim: &SlimSpec,
    registry: Option<&MetricsRegistry>,
    on_survivor: Option<&mut dyn FnMut(&AodEvent)>,
) -> Result<(Bytes, SkimReport), CodecError> {
    let cf = ColumnarFile::parse(file)?;
    let mut cache = ColumnCache {
        file: &cf,
        readers: Default::default(),
    };
    let mask = eval_mask(&mut cache, selection)?;
    let keep = kept_columns(slim);
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
    let frames: [BytesMut; N_COLUMNS] = {
        let mut counts: Vec<u32> = Vec::with_capacity(n_out);
        let mut entries = BytesMut::new();
        let mut frames: [BytesMut; N_COLUMNS] = Default::default();
        for (i, id) in ColumnId::ALL.iter().enumerate() {
            counts.clear();
            entries.clear();
            if !keep[i] {
                counts.resize(n_out, 0);
                frames[i] = encode_column(*id, &counts, &entries);
                continue;
            }
            let col = cache.get(*id);
            let cap = (matches!(id, ColumnId::JetP4 | ColumnId::JetId)
                && slim.max_jets != u32::MAX)
                .then_some(slim.max_jets as usize);
            for &(a, b) in &runs {
                match (id.layout(), cap) {
                    (ColumnLayout::Fixed(_), _) => entries.put_slice(col.span(a, b)),
                    (ColumnLayout::Var(_), None) => {
                        counts.extend((a..b).map(|row| col.count(row) as u32));
                        entries.put_slice(col.span(a, b));
                    }
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
    let ColumnCache {
        readers: mut slots, ..
    } = cache;
    if let Some(cb) = on_survivor {
        let readers: [ByteReader; N_COLUMNS] = std::array::from_fn(|i| match slots[i].take() {
            Some(r) if keep[i] => r,
            _ => ByteReader {
                layout: ColumnId::ALL[i].layout(),
                payload: Bytes::new(),
                starts: vec![0; cf.n_rows + 1],
            },
        });
        cross_check_counts(&readers, cf.n_rows)?;
        let readers = readers.map(ByteReader::into_reader);
        let mut ev = AodEvent::new(EventHeader::new(0, 0, 0));
        for &row in &survivors {
            decode_row_into(&readers, row as usize, slim, &mut ev);
            cb(&ev);
        }
    }
    let out = assemble_file(COLUMNAR_VERSION, n_out as u32, &frames);
    let report = SkimReport {
        events_in: cf.n_rows as u64,
        events_out: n_out as u64,
        bytes_in: file.len() as u64,
        bytes_out: out.len() as u64,
    };
    Ok((out, report))
}

/// The selection × slim cases every mutated file is skimmed under: a
/// lepton cut keeping everything, and a MET cut (a thin column read by
/// the predicate and kept) with one jet per row and the photons dropped.
fn cases() -> [(Selection, SlimSpec); 2] {
    [
        (Selection::NLeptons { n: 1, pt: 12.0 }, SlimSpec::keep_all()),
        (
            Selection::MetAbove(15.0),
            SlimSpec {
                keep_photons: false,
                max_jets: 1,
                ..SlimSpec::keep_all()
            },
        ),
    ]
}

/// Production and oracle agree on `file`: verify and `to_rows` when
/// it parses, and both skims (with the survivor events the callback
/// saw) under every case.
fn assert_same(file: &Bytes, what: &str) {
    // Events are compared by their row encoding: a flipped float may
    // decode to NaN, which no `==` on the events would accept.
    let rows = |events: &[AodEvent]| AodEvent::encode_events(events);
    if let Ok(parsed) = ColumnarFile::parse(file) {
        assert_eq!(parsed.verify(), verify(&parsed), "verify, {what}");
        assert_eq!(
            parsed.to_rows().map(|e| rows(&e)),
            to_rows(&parsed).map(|e| rows(&e)),
            "to_rows, {what}"
        );
    }
    for (sel, slim) in cases() {
        let case = format!("{what}, sel {sel} slim {}", slim.to_text());
        assert_eq!(
            skim_slim_columnar(file, &sel, &slim, None),
            skim(file, &sel, &slim, None, None),
            "skim, {case}"
        );
        let (mut seen, mut expected) = (Vec::new(), Vec::new());
        let got = skim_slim_columnar_with(file, &sel, &slim, None, |ev| seen.push(ev.clone()));
        let want = skim(
            file,
            &sel,
            &slim,
            None,
            Some(&mut |ev: &AodEvent| expected.push(ev.clone())),
        );
        assert_eq!(got, want, "skim with callback, {case}");
        assert_eq!(rows(&seen), rows(&expected), "survivors, {case}");
    }
}

#[test]
fn every_truncation_and_byte_flip_returns_the_replaced_paths_result() {
    let events = sample_events(5);
    for (name, file) in [
        ("v1", ColumnarFile::from_rows_v1(&events)),
        ("v2", ColumnarFile::from_rows(&events)),
        ("legacy", legacy_file()),
    ] {
        assert_same(&file, name);
        for len in 0..file.len() {
            assert_same(&file.slice(0..len), &format!("{name} cut to {len}"));
        }
        for pos in 0..file.len() {
            for mask in [0x01u8, 0x40, 0x80, 0xFF] {
                let mut bytes = file.to_vec();
                bytes[pos] ^= mask;
                assert_same(
                    &Bytes::from(bytes),
                    &format!("{name} byte {pos} ^ {mask:#04x}"),
                );
            }
        }
    }
}
