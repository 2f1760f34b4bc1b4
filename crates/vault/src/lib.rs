//! # daspos-vault — redundant bit preservation with self-healing scrub
//!
//! The DASPOS disaster-recovery rubric (Appendix A of the final report)
//! reserves its top levels for experiments that keep *redundant copies*,
//! run *periodic integrity checks*, and can demonstrate *documented
//! recovery*. The sealed tiers and `.dpar` containers of the lower
//! layers detect corruption at read time; this crate supplies the layer
//! above them — the "bit preservation" foundation the DPHEP status
//! report places under every sustainable preservation effort:
//!
//! - [`StorageBackend`] — the narrowest pluggable blob-store API
//!   ([`MemoryBackend`], [`DirBackend`], and the fault-injecting
//!   [`FlakyBackend`] to start);
//! - [`Vault`] — a redundant store of `DPVO`-enveloped objects striped
//!   over a backend pool, one slot per backend, in one of two
//!   [`Redundancy`] modes: full [`Replicas`](Redundancy::Replicas) (a
//!   `k = 1` stripe of plain copies), or
//!   [`Erasure`](Redundancy::Erasure)-coded `k + m` striping (XOR for
//!   `m = 1`, in-repo GF(256) Reed–Solomon beyond) where each backend
//!   holds one digested `DPVS` shard and any `k` survivors reconstruct
//!   the object byte-identically;
//! - [`Vault::scrub`] — the recurring integrity pass, the same
//!   classify → vote → reconstruct → repair pipeline every read runs:
//!   vote on the write generation most slots hold, verify it end to end
//!   (envelope digest plus kind-specific deep checks: DPSL seals,
//!   container manifests, conditions snapshots), and rewrite every
//!   other slot from it byte-identically;
//! - [`RetryPolicy`] — per-operation retry/backoff/timeout for flaky
//!   media, deterministic enough to fault-campaign.
//!
//! ```
//! use std::sync::Arc;
//! use bytes::Bytes;
//! use daspos_vault::{MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};
//!
//! let backends: Vec<Arc<dyn StorageBackend>> = (0..6)
//!     .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
//!     .collect();
//! let vault = Vault::builder()
//!     .backends(backends)
//!     .redundancy(Redundancy::Erasure { k: 4, m: 2 })
//!     .build()
//!     .unwrap();
//! vault.put("blob", ObjectKind::Opaque, &Bytes::from_static(b"bytes")).unwrap();
//! let report = vault.scrub().unwrap();
//! assert!(report.clean());
//! ```

pub mod backend;
pub mod erasure;
pub mod flaky;
pub mod object;
pub mod policy;
pub mod shard;
pub mod vault;

pub use backend::{validate_key, DirBackend, MemoryBackend, StorageBackend, StorageError};
pub use erasure::{Erasure, ErasureError};
pub use flaky::{FlakyBackend, FlakyConfig};
pub use object::{
    decode_envelope, encode_envelope, envelope_digest, ColumnarVerifier, ConditionsVerifier,
    DigestClaim, EnvelopeError, ObjectKind, SealedTierVerifier, Verifier, ENVELOPE_MAGIC,
    ENVELOPE_OVERHEAD, ENVELOPE_VERSION,
};
pub use policy::RetryPolicy;
pub use shard::{
    decode_shard, decode_stripe, encode_shard, encode_stripe, shard_digest, ShardError,
    ShardHeader, SHARD_MAGIC, SHARD_OVERHEAD, SHARD_VERSION,
};
pub use vault::{Redundancy, ScrubReport, Vault, VaultBuilder, VaultError};
