//! `columnar-tier`: byte edits of the DPCF columnar AOD file. Half the
//! budget is uniform byte noise; the other half aims at the v2
//! per-column encodings — encoding-tag flips, counts-prologue
//! corruption and mid-frame truncations inside the varint streams.

use daspos_tiers::colnar::N_COLUMNS;

use super::*;

/// The columnar AOD tier file.
pub(super) struct ColumnarTier;

/// Header: magic(4) + version(2) + tier(1) + n_rows(4) + n_cols(1).
const TABLE_START: usize = 12;
/// Offset-table entry: col_id(1) + offset(4) + length(4) + digest(8).
const ENTRY_LEN: usize = 17;
/// The column frames follow the table contiguously.
const FRAMES_BASE: usize = TABLE_START + N_COLUMNS * ENTRY_LEN;

impl FaultClass for ColumnarTier {
    type Plan = ByteEdit;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ByteEdit) {
        let file = &fixture.columnar_aod;
        let shape = shape(file);
        // The offset table is authoritative for frame starts (the shape
        // boundaries also carry the +1 body seams).
        let mut starts: Vec<usize> = frame_starts(file).filter(|&b| b < shape.len).collect();
        starts.sort_unstable();
        starts.dedup();
        let edit = if rng.gen_range(0..2u32) == 0 || starts.is_empty() {
            ByteEdit::sample(rng, &shape)
        } else {
            // Flip an encoding tag (to another valid tag — the read-only
            // legacy dictionary and RLE tags included — or an undefined
            // one), corrupt the frame prologue just past the tag (counts
            // mode, leading varints), or truncate mid-frame inside the
            // varint streams. The per-column digest covers the stored
            // frame bytes, tag included, and the decoders bound every
            // read, so all of these must still land detected-or-harmless.
            let i = rng.gen_range(0..starts.len());
            let start = starts[i];
            let end = starts.get(i + 1).copied().unwrap_or(shape.len);
            match rng.gen_range(0..3u32) {
                0 => ByteEdit::ByteSet {
                    offset: start,
                    value: rng.gen_range(0..=5u32) as u8,
                },
                1 => ByteEdit::ByteSet {
                    offset: (start + 1 + rng.gen_range(0..4usize)).min(shape.len - 1),
                    value: rng.gen_range(0..=255u32) as u8,
                },
                _ => ByteEdit::Truncate {
                    len: rng.gen_range(start..end.max(start + 1)),
                },
            }
        };
        (MutationKind::Edit(edit), edit)
    }

    fn check(&self, fixture: &CampaignFixture, edit: &ByteEdit, _: &mut RerunCache) -> Outcome {
        let mutated = Bytes::from(edit.apply(&fixture.columnar_aod));
        // Robustness probe: the pushdown skim, bare and with the
        // survivor callback the workflow fills its ntuple through, must
        // not panic or over-allocate on the mutant, whatever its Ok/Err
        // result — same contract as the raw decoder probe on sealed
        // tiers. The callback path checks more before it decodes rows,
        // so it may fail where the bare skim succeeds; when both
        // succeed they must agree, and the callback must have seen
        // every survivor.
        let (skim, slim) = (&fixture.workflow.skim, &fixture.workflow.slim);
        let bare = daspos_tiers::skim_slim_columnar(&mutated, skim, slim, None);
        let mut called = 0u64;
        let with =
            daspos_tiers::skim_slim_columnar_with(&mutated, skim, slim, None, |_| called += 1);
        if let (Ok(bare), Ok(with)) = (bare, with) {
            if bare != with || called != with.1.events_out {
                return Outcome::Violation(format!(
                    "columnar skims disagree: {} survivor(s) bare, {} with the callback, {called} called back",
                    bare.1.events_out, with.1.events_out
                ));
            }
        }
        let parsed = match ColumnarFile::parse(&mutated) {
            Err(e) => return Outcome::Detected(format!("columnar:{}", e.category().name())),
            Ok(f) => f,
        };
        match parsed.to_rows() {
            Err(e) => Outcome::Detected(format!("columnar:{}", e.category().name())),
            Ok(rows) if rows == fixture.aod_events => Outcome::Harmless,
            Ok(_) => Outcome::Violation(
                "mutated columnar file decoded into different events".to_string(),
            ),
        }
    }
}

/// The absolute start of every column frame of a pristine DPCF file, in
/// offset-table order — the one reader of the table here.
pub(super) fn frame_starts(file: &[u8]) -> impl Iterator<Item = usize> + '_ {
    (0..N_COLUMNS).map(move |entry| {
        let at = TABLE_START + entry * ENTRY_LEN + 1;
        let offset = u32::from_le_bytes([file[at], file[at + 1], file[at + 2], file[at + 3]]);
        FRAMES_BASE + offset as usize
    })
}

/// Boundaries of a columnar DPCF file: every header field edge, every
/// offset-table entry start, every column frame start, and (v2) the
/// body start one byte past each frame's encoding tag — so boundary
/// truncations land exactly on the format's structural seams,
/// including the tag/body seam the v2 encodings introduced.
pub(super) fn shape(file: &Bytes) -> ArtifactShape {
    let mut boundaries = vec![4, 6, 7, 11, TABLE_START];
    boundaries.extend((0..N_COLUMNS).map(|entry| TABLE_START + entry * ENTRY_LEN));
    boundaries.extend(frame_starts(file).flat_map(|start| [start, start + 1]));
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries.retain(|b| *b < file.len());
    ArtifactShape {
        len: file.len(),
        boundaries,
    }
}
