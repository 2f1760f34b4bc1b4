//! Reanalysis requests and their lifecycle.

use daspos_gen::NewPhysicsParams;
use daspos_hep::ids::RequestId;

/// A request to re-run a preserved analysis on a new physics model.
#[derive(Debug, Clone, PartialEq)]
pub struct RecastRequest {
    /// Assigned by the front end on submission.
    pub id: RequestId,
    /// Which preserved analysis to re-run (registry key).
    pub analysis_key: String,
    /// The new-physics model point to inject.
    pub model: NewPhysicsParams,
    /// How many signal events to process.
    pub n_events: u64,
    /// Who asked (the outside theorist).
    pub requester: String,
}

/// Lifecycle of a request inside the front end.
///
/// Results sit in `AwaitingApproval` until the experiment approves or
/// rejects them — *"the results, if approved, are returned to the user"*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Accepted into the queue, not yet processed.
    Queued,
    /// A back-end worker is processing it.
    Running,
    /// Processing finished; awaiting experiment approval.
    AwaitingApproval,
    /// Approved and visible to the requester.
    Released,
    /// The experiment declined to release the result.
    Rejected,
    /// The back end failed.
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_carries_model_point() {
        let req = RecastRequest {
            id: RequestId(1),
            analysis_key: "SEARCH_2013_I0006".to_string(),
            model: NewPhysicsParams {
                mass: 350.0,
                width: 10.0,
                cross_section_pb: 0.7,
            },
            n_events: 1000,
            requester: "pheno-group".to_string(),
        };
        assert_eq!(req.model.mass, 350.0);
        assert_eq!(req.id.to_string(), "req-1");
    }
}
