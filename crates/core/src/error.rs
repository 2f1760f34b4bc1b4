//! The crate-wide typed error.
//!
//! Until PR 4 the execution APIs returned `Result<_, String>`: callers
//! could print a failure but never dispatch on it, and the failing
//! *stage* — the thing a preservation audit needs first — was only
//! recoverable by substring matching. [`Error`] fixes both: an
//! [`ErrorKind`] that keeps the underlying typed errors
//! ([`ArchiveError`], [`CodecError`], [`ConditionsError`], …) intact, and
//! an optional [`Stage`] recording where in the chain the failure
//! occurred.
//!
//! Display output is `stage: underlying message` (or just the underlying
//! message when no stage is attached), so existing substring assertions
//! on the old `String` errors keep matching.
//!
//! The type is deliberately small (well under clippy's
//! `result_large_err` 128-byte threshold, enforced workspace-wide) so
//! `Result<T, Error>` stays cheap to return by value.

use std::fmt;

use daspos_conditions::ConditionsError;
use daspos_obs::Stage;
use daspos_tiers::codec::CodecError;
use daspos_tiers::dataset::CatalogError;
use daspos_vault::VaultError;

use crate::archive::ArchiveError;

/// What went wrong, with the underlying typed error preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// Archive packaging / parsing failed.
    Archive(ArchiveError),
    /// Tier encode/decode failed.
    Codec(CodecError),
    /// Conditions resolution failed.
    Conditions(ConditionsError),
    /// A preservation-vault operation failed (replica storage, scrub,
    /// damaged objects).
    Vault(VaultError),
    /// Dataset catalog rejected a registration or lookup.
    Catalog(String),
    /// A preserved text section failed to parse.
    Parse(String),
    /// A preserved analysis could not run.
    Analysis(String),
    /// The preservation service shed load: the admission gate was full
    /// and the request was rejected with a typed backpressure response.
    Overloaded(String),
    /// Anything else (campaign bookkeeping, I/O adapters, …).
    Msg(String),
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::Archive(e) => e.fmt(f),
            ErrorKind::Codec(e) => e.fmt(f),
            ErrorKind::Conditions(e) => e.fmt(f),
            ErrorKind::Vault(e) => e.fmt(f),
            ErrorKind::Catalog(msg)
            | ErrorKind::Parse(msg)
            | ErrorKind::Analysis(msg)
            | ErrorKind::Overloaded(msg)
            | ErrorKind::Msg(msg) => f.write_str(msg),
        }
    }
}

/// The crate-wide error: a kind plus the chain [`Stage`] it surfaced in.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    stage: Option<Stage>,
    kind: ErrorKind,
}

impl Error {
    /// Wrap a kind with no stage context yet.
    pub fn new(kind: ErrorKind) -> Error {
        Error { stage: None, kind }
    }

    /// A free-form message error.
    pub fn msg(msg: impl Into<String>) -> Error {
        Error::new(ErrorKind::Msg(msg.into()))
    }

    /// Attach (or overwrite) the stage the error surfaced in.
    pub fn at(mut self, stage: Stage) -> Error {
        self.stage = Some(stage);
        self
    }

    /// The chain stage, if one was recorded.
    pub fn stage(&self) -> Option<Stage> {
        self.stage
    }

    /// The underlying kind.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// Recover the archive error for `Result<_, ArchiveError>`
    /// signatures (faultlab's container labels). Non-archive
    /// kinds degrade to `ArchiveError::Packaging` with the full message.
    pub fn into_archive_error(self) -> ArchiveError {
        match self.kind {
            ErrorKind::Archive(e) => e,
            other => ArchiveError::Packaging(other.to_string()),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stage {
            Some(stage) => write!(f, "{stage}: {}", self.kind),
            None => self.kind.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<ArchiveError> for Error {
    fn from(e: ArchiveError) -> Error {
        Error::new(ErrorKind::Archive(e)).at(Stage::Archive)
    }
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Error {
        Error::new(ErrorKind::Codec(e))
    }
}

impl From<ConditionsError> for Error {
    fn from(e: ConditionsError) -> Error {
        Error::new(ErrorKind::Conditions(e))
    }
}

impl From<VaultError> for Error {
    fn from(e: VaultError) -> Error {
        Error::new(ErrorKind::Vault(e)).at(Stage::Vault)
    }
}

impl From<daspos_serve::ServeError> for Error {
    fn from(e: daspos_serve::ServeError) -> Error {
        let kind = match &e {
            daspos_serve::ServeError::Overloaded { .. }
            | daspos_serve::ServeError::QuotaExceeded { .. } => {
                ErrorKind::Overloaded(e.to_string())
            }
            _ => ErrorKind::Msg(e.to_string()),
        };
        Error::new(kind).at(Stage::Serve)
    }
}

impl From<CatalogError> for Error {
    fn from(e: CatalogError) -> Error {
        Error::new(ErrorKind::Catalog(e.to_string()))
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::new(ErrorKind::Msg(msg))
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Error {
        Error::msg(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_underlying_message_and_prefixes_stage() {
        let bare = Error::from(ArchiveError::MissingSection("RESULTS".into()));
        let inner = bare.kind().clone();
        let msg = inner.to_string();
        assert!(msg.contains("RESULTS"), "got: {msg}");
        // `From<ArchiveError>` stamps the archive stage.
        assert_eq!(bare.stage(), Some(Stage::Archive));
        let staged = bare.clone().at(Stage::Validate);
        assert_eq!(staged.to_string(), format!("validate: {msg}"));
        assert!(staged.to_string().contains(&msg));
    }

    #[test]
    fn conversions_preserve_typed_kinds() {
        let e = Error::from(CodecError::UnexpectedEof).at(Stage::Skim);
        assert!(matches!(e.kind(), ErrorKind::Codec(CodecError::UnexpectedEof)));
        assert_eq!(e.stage(), Some(Stage::Skim));

        let e = Error::from("plain message".to_string());
        assert_eq!(e.to_string(), "plain message");
        assert_eq!(e.stage(), None);
    }

    #[test]
    fn into_archive_error_round_trips_and_degrades() {
        let round = Error::from(ArchiveError::Malformed("bad".into())).into_archive_error();
        assert_eq!(round, ArchiveError::Malformed("bad".into()));
        let degraded = Error::msg("not an archive problem").into_archive_error();
        assert!(matches!(degraded, ArchiveError::Packaging(m) if m.contains("not an archive")));
    }

    #[test]
    fn serve_errors_map_to_typed_backpressure() {
        let over = daspos_serve::ServeError::Overloaded {
            op: daspos_serve::Op::Put,
            detail: "64 ops in flight".into(),
        };
        let e = Error::from(over);
        assert!(matches!(e.kind(), ErrorKind::Overloaded(_)), "got {e:?}");
        assert_eq!(e.stage(), Some(Stage::Serve));
        let io = daspos_serve::ServeError::Io("connection reset".into());
        assert!(matches!(Error::from(io).kind(), ErrorKind::Msg(_)));
    }

    #[test]
    fn error_stays_small() {
        // `result_large_err` is denied workspace-wide at the default
        // 128-byte threshold; keep headroom explicit.
        assert!(std::mem::size_of::<Error>() <= 128);
    }
}
