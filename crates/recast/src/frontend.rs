//! The RECAST front end: submission queue, worker pool and approval gate.
//!
//! *"The RECAST structure includes a 'front end' interface to the outside
//! world where those interested in re-using an analysis can submit
//! requests … The back end does all of the processing and analysis work,
//! and the results, if approved, are returned to the user."*

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use daspos_gen::NewPhysicsParams;
use daspos_hep::ids::{IdAllocator, RequestId};
use parking_lot::{Condvar, Mutex};

use crate::backend::{RecastBackend, RecastOutput};
use crate::request::{RecastRequest, RequestState};

/// Front-end failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// No request with the given id.
    UnknownRequest(RequestId),
    /// The request is not in a state that allows the operation.
    InvalidState {
        /// The request.
        id: RequestId,
        /// Its current state.
        state: RequestState,
    },
    /// The result has not been released to the requester.
    NotReleased(RequestId),
    /// The front end has been shut down.
    ShutDown,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::UnknownRequest(id) => write!(f, "unknown request {id}"),
            FrontendError::InvalidState { id, state } => {
                write!(f, "request {id} is in state {state:?}")
            }
            FrontendError::NotReleased(id) => {
                write!(f, "result of {id} has not been released")
            }
            FrontendError::ShutDown => f.write_str("front end is shut down"),
        }
    }
}

impl std::error::Error for FrontendError {}

#[derive(Default)]
struct Board {
    states: BTreeMap<RequestId, RequestState>,
    outputs: BTreeMap<RequestId, RecastOutput>,
}

/// The front end. Owns worker threads; drop shuts them down.
pub struct RecastFrontEnd {
    tx: Option<Sender<RecastRequest>>,
    workers: Vec<JoinHandle<()>>,
    board: Arc<(Mutex<Board>, Condvar)>,
    ids: IdAllocator,
}

impl RecastFrontEnd {
    /// Start a front end with `n_workers` threads over the given back
    /// end.
    pub fn start(backend: Arc<dyn RecastBackend>, n_workers: usize) -> Self {
        // One queue, shared by the workers: whichever is idle takes the
        // next request, and all of them stop once the sender is gone.
        let (tx, rx) = channel::<RecastRequest>();
        let rx = Arc::new(Mutex::new(rx));
        let board: Arc<(Mutex<Board>, Condvar)> = Arc::new((Mutex::new(Board::default()), Condvar::new()));
        let mut workers = Vec::new();
        for _ in 0..n_workers.max(1) {
            let rx = Arc::clone(&rx);
            let backend = Arc::clone(&backend);
            let board = Arc::clone(&board);
            workers.push(std::thread::spawn(move || loop {
                // The queue lock is released at the end of this statement,
                // before the request is processed.
                let Ok(request) = rx.lock().recv() else {
                    break;
                };
                {
                    let mut b = board.0.lock();
                    b.states.insert(request.id, RequestState::Running);
                }
                let outcome = backend.process(&request);
                let mut b = board.0.lock();
                match outcome {
                    Ok(output) => {
                        b.outputs.insert(request.id, output);
                        b.states.insert(request.id, RequestState::AwaitingApproval);
                    }
                    Err(_) => {
                        b.states.insert(request.id, RequestState::Failed);
                    }
                }
                board.1.notify_all();
            }));
        }
        RecastFrontEnd {
            tx: Some(tx),
            workers,
            board,
            ids: IdAllocator::new(),
        }
    }

    /// Submit a request; returns its id immediately.
    pub fn submit(
        &self,
        analysis_key: &str,
        model: NewPhysicsParams,
        n_events: u64,
        requester: &str,
    ) -> Result<RequestId, FrontendError> {
        let id = RequestId(self.ids.allocate());
        let request = RecastRequest {
            id,
            analysis_key: analysis_key.to_string(),
            model,
            n_events,
            requester: requester.to_string(),
        };
        {
            let mut b = self.board.0.lock();
            b.states.insert(id, RequestState::Queued);
        }
        self.tx
            .as_ref()
            .ok_or(FrontendError::ShutDown)?
            .send(request)
            .map_err(|_| FrontendError::ShutDown)?;
        Ok(id)
    }

    /// Current state of a request.
    pub fn state(&self, id: RequestId) -> Result<RequestState, FrontendError> {
        self.board
            .0
            .lock()
            .states
            .get(&id)
            .copied()
            .ok_or(FrontendError::UnknownRequest(id))
    }

    /// Block until the request leaves the queue/running states.
    pub fn wait(&self, id: RequestId) -> Result<RequestState, FrontendError> {
        let mut guard = self.board.0.lock();
        loop {
            match guard.states.get(&id) {
                None => return Err(FrontendError::UnknownRequest(id)),
                Some(RequestState::Queued) | Some(RequestState::Running) => {
                    self.board.1.wait(&mut guard);
                }
                Some(state) => return Ok(*state),
            }
        }
    }

    /// The experiment approves a processed result, releasing it.
    pub fn approve(&self, id: RequestId) -> Result<(), FrontendError> {
        self.transition(id, RequestState::AwaitingApproval, RequestState::Released)
    }

    /// The experiment rejects a processed result.
    pub fn reject(&self, id: RequestId) -> Result<(), FrontendError> {
        self.transition(id, RequestState::AwaitingApproval, RequestState::Rejected)
    }

    fn transition(
        &self,
        id: RequestId,
        from: RequestState,
        to: RequestState,
    ) -> Result<(), FrontendError> {
        let mut b = self.board.0.lock();
        let state = *b
            .states
            .get(&id)
            .ok_or(FrontendError::UnknownRequest(id))?;
        if state != from {
            return Err(FrontendError::InvalidState { id, state });
        }
        b.states.insert(id, to);
        if to == RequestState::Rejected {
            // Rejected results never leave the experiment.
            b.outputs.remove(&id);
        }
        Ok(())
    }

    /// Fetch a released result (the requester's view). Unreleased results
    /// are invisible — the experiment's control the report highlights.
    pub fn fetch(&self, id: RequestId) -> Result<RecastOutput, FrontendError> {
        let b = self.board.0.lock();
        match b.states.get(&id) {
            None => Err(FrontendError::UnknownRequest(id)),
            Some(RequestState::Released) => Ok(b
                .outputs
                .get(&id)
                .cloned()
                .expect("released request must have output")),
            Some(_) => Err(FrontendError::NotReleased(id)),
        }
    }

    /// Fetch a processed result regardless of release state — the
    /// experiment-internal "back door" the report says RECAST needs to be
    /// useful to the collaboration itself.
    pub fn fetch_internal(&self, id: RequestId) -> Result<RecastOutput, FrontendError> {
        let b = self.board.0.lock();
        b.outputs
            .get(&id)
            .cloned()
            .ok_or(FrontendError::UnknownRequest(id))
    }

    /// Shut down: stop accepting requests and join the workers.
    pub fn shutdown(mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for RecastFrontEnd {
    fn drop(&mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RivetBridgeBackend;
    use daspos_hep::SeedSequence;
    use daspos_rivet::AnalysisRegistry;

    fn frontend(workers: usize) -> RecastFrontEnd {
        let registry = Arc::new(AnalysisRegistry::with_builtin());
        let backend = Arc::new(RivetBridgeBackend::new(registry, SeedSequence::new(3)));
        RecastFrontEnd::start(backend, workers)
    }

    fn model(mass: f64) -> NewPhysicsParams {
        NewPhysicsParams {
            mass,
            width: mass * 0.03,
            cross_section_pb: 1.0,
        }
    }

    #[test]
    fn lifecycle_submit_wait_approve_fetch() {
        let fe = frontend(2);
        let id = fe
            .submit("SEARCH_2013_I0006", model(400.0), 50, "pheno")
            .unwrap();
        let state = fe.wait(id).unwrap();
        assert_eq!(state, RequestState::AwaitingApproval);
        // Requester cannot see the result yet.
        assert_eq!(fe.fetch(id), Err(FrontendError::NotReleased(id)));
        // The experiment can (the internal back door).
        assert!(fe.fetch_internal(id).is_ok());
        fe.approve(id).unwrap();
        let out = fe.fetch(id).unwrap();
        assert!(out.signal_efficiency > 0.0);
        fe.shutdown();
    }

    #[test]
    fn rejection_hides_output_forever() {
        let fe = frontend(1);
        let id = fe
            .submit("SEARCH_2013_I0006", model(300.0), 30, "pheno")
            .unwrap();
        fe.wait(id).unwrap();
        fe.reject(id).unwrap();
        assert_eq!(fe.state(id).unwrap(), RequestState::Rejected);
        assert_eq!(fe.fetch(id), Err(FrontendError::NotReleased(id)));
        assert!(fe.fetch_internal(id).is_err());
        // Cannot approve after rejection.
        assert!(matches!(
            fe.approve(id),
            Err(FrontendError::InvalidState { .. })
        ));
    }

    #[test]
    fn failed_backend_marks_failed() {
        let fe = frontend(1);
        let id = fe.submit("NOPE", model(300.0), 10, "pheno").unwrap();
        assert_eq!(fe.wait(id).unwrap(), RequestState::Failed);
    }

    #[test]
    fn unknown_request_queries_error() {
        let fe = frontend(1);
        let bogus = RequestId(999);
        assert_eq!(fe.state(bogus), Err(FrontendError::UnknownRequest(bogus)));
        assert_eq!(fe.wait(bogus), Err(FrontendError::UnknownRequest(bogus)));
        assert!(fe.approve(bogus).is_err());
    }

    #[test]
    fn many_concurrent_requests_complete() {
        let fe = frontend(4);
        let ids: Vec<RequestId> = (0..12)
            .map(|i| {
                fe.submit(
                    "SEARCH_2013_I0006",
                    model(250.0 + 25.0 * f64::from(i)),
                    20,
                    "pheno",
                )
                .unwrap()
            })
            .collect();
        for id in ids {
            assert_eq!(fe.wait(id).unwrap(), RequestState::AwaitingApproval);
        }
        fe.shutdown();
    }
}
