//! `results-text`: byte edits of the reference results, re-inserted
//! through the archive API so every checksum is honest — integrity
//! checks are blind to them, and re-execution must catch them.

use super::*;

/// The reference-results text.
pub(super) struct ResultsText;

impl FaultClass for ResultsText {
    type Plan = ByteEdit;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ByteEdit) {
        let edit = ByteEdit::sample(rng, &ArtifactShape::text(&fixture.results_text));
        (MutationKind::Edit(edit), edit)
    }

    fn check(&self, fixture: &CampaignFixture, edit: &ByteEdit, cache: &mut RerunCache) -> Outcome {
        let mutated = Bytes::from(edit.apply(fixture.results_text.as_bytes()));
        let mut forged = fixture.archive.clone();
        forged.insert(sections::RESULTS, mutated.clone());
        match archive::validate(&forged, cache) {
            Err(detected) => detected,
            Ok(()) if mutated[..] == *fixture.results_text.as_bytes() => Outcome::Harmless,
            Ok(()) => Outcome::Violation("forged results accepted as reproduced".to_string()),
        }
    }
}
