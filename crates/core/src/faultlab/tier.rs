//! `tier-aod` and `tier-raw`: byte edits of sealed DPEF tier files. The
//! seal must catch every edit that changes the payload.

use daspos_detsim::raw::RawEvent;

use super::*;

/// Sealed AOD tier file.
pub(super) struct TierAod;

/// Sealed RAW tier file.
pub(super) struct TierRaw;

impl FaultClass for TierAod {
    type Plan = ByteEdit;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ByteEdit) {
        let edit = ByteEdit::sample(rng, &shape(&fixture.sealed_aod));
        (MutationKind::Edit(edit), edit)
    }

    fn check(&self, fixture: &CampaignFixture, edit: &ByteEdit, _: &mut RerunCache) -> Outcome {
        check::<AodEvent>(edit.apply(&fixture.sealed_aod), &fixture.aod_payload)
    }
}

impl FaultClass for TierRaw {
    type Plan = ByteEdit;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ByteEdit) {
        let edit = ByteEdit::sample(rng, &shape(&fixture.sealed_raw));
        (MutationKind::Edit(edit), edit)
    }

    fn check(&self, fixture: &CampaignFixture, edit: &ByteEdit, _: &mut RerunCache) -> Outcome {
        check::<RawEvent>(edit.apply(&fixture.sealed_raw), &fixture.raw_payload)
    }
}

/// Boundaries of a sealed tier file: the seal/payload edge, the end of
/// the DPEF file header, and every event-frame start.
pub(super) fn shape(sealed: &Bytes) -> ArtifactShape {
    let mut boundaries = vec![codec::SEAL_OVERHEAD];
    // DPEF header: magic(4) + version(2) + tier(1) + n_events(4).
    let header_end = codec::SEAL_OVERHEAD + 11;
    if sealed.len() > header_end {
        boundaries.push(header_end);
        let mut off = header_end;
        while off + 4 <= sealed.len() {
            let len = u32::from_le_bytes([
                sealed[off],
                sealed[off + 1],
                sealed[off + 2],
                sealed[off + 3],
            ]) as usize;
            let next = off + 4 + len;
            if next >= sealed.len() {
                break;
            }
            boundaries.push(next);
            off = next;
        }
    }
    ArtifactShape {
        len: sealed.len(),
        boundaries,
    }
}

fn check<T: Encodable + PartialEq>(mutated: Vec<u8>, payload: &Bytes) -> Outcome {
    let mutated = Bytes::from(mutated);
    // Robustness probe: whatever the seal says, the raw decoder must not
    // panic or over-allocate on the mutated inner bytes. Its Ok/Err
    // result is irrelevant here; a panic is converted to a violation by
    // the campaign's catch_unwind. The slice is a zero-copy window into
    // the mutant.
    if mutated.len() >= codec::SEAL_OVERHEAD {
        let inner = mutated.slice(codec::SEAL_OVERHEAD..);
        let _ = T::decode_events(&inner);
    }
    match codec::unseal(&mutated) {
        Err(e) => Outcome::Detected(format!("seal:{}", e.category().name())),
        Ok(inner) if inner == *payload => match T::decode_events(&inner) {
            Ok(_) => Outcome::Harmless,
            Err(e) => Outcome::Violation(format!("pristine payload no longer decodes: {e}")),
        },
        Ok(_) => {
            Outcome::Violation("seal accepted a modified payload (digest collision)".to_string())
        }
    }
}
