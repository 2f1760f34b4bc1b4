//! `conditions-text`: byte edits of the conditions-snapshot text. The
//! edit must fail to parse or parse back to the same constants.

use super::*;

/// The conditions-snapshot text.
pub(super) struct ConditionsText;

impl FaultClass for ConditionsText {
    type Plan = ByteEdit;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ByteEdit) {
        let edit = ByteEdit::sample(rng, &ArtifactShape::text(&fixture.conditions_text));
        (MutationKind::Edit(edit), edit)
    }

    fn check(&self, fixture: &CampaignFixture, edit: &ByteEdit, _: &mut RerunCache) -> Outcome {
        let mutated = edit.apply(fixture.conditions_text.as_bytes());
        let text = match std::str::from_utf8(&mutated) {
            Ok(t) => t,
            Err(_) => return Outcome::Detected("text:utf8".to_string()),
        };
        match Snapshot::from_text(text) {
            Err(_) => Outcome::Detected("text:parse".to_string()),
            Ok(parsed) if parsed == fixture.snapshot => Outcome::Harmless,
            Ok(_) => Outcome::Violation(
                "mutated conditions text parsed into different constants".to_string(),
            ),
        }
    }
}
