//! `archive`: deposit, re-skim and scrub of archived AOD tiers. Set-up
//! produces the AOD events once from a chain run; every pass then
//!
//! * deposits them as a sealed row file and as a columnar file into an
//!   erasure 4+2 vault over six memory backends,
//! * re-skims both from the vault into ntuples, and
//! * drops one backend's shards and scrubs the vault back to health.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use daspos::prelude::{ExecOptions, ExecutionContext, Experiment, PreservedWorkflow};
use daspos::vault::{
    decode_envelope, decode_shard, encode_envelope, encode_shard, ColumnarVerifier, Erasure,
    MemoryBackend, ObjectKind, Redundancy, SealedTierVerifier, ShardHeader, StorageBackend, Vault,
    Verifier,
};
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::{self, Encodable};
use daspos_tiers::{Ntuple, SkimReport};

use crate::speed::Gauge;
use crate::timing::{Reading, VaultTallies};
use crate::{ensure, latency_metrics, ntuple_digest, stats, Mismatch, Outcome, Run};

/// Events in each archived dataset.
pub const EVENTS: u64 = 250;
/// Distinct datasets a run cycles through, so that one run averages
/// over 2000 different events rather than one seed's few.
pub const DATASETS: usize = 8;
/// Erasure geometry of the vault: 4 data + 2 parity shards.
const K: usize = 4;
const M: usize = 2;
/// How pass time follows the speed kernel (`speed.rs`): by about the
/// square root of its factor, as codec and vault work is partly bound by
/// memory rather than by the core.
const SPEED_SENSITIVITY: f64 = 0.5;
const ROW_KEY: &str = "aod-row.dpsl";
const COL_KEY: &str = "aod-col.dpcf";

/// The archived dataset and the workflow that says how to skim it.
pub struct Dataset {
    wf: PreservedWorkflow,
    events: Vec<AodEvent>,
    /// Survivors and ntuple digest of a skim of the pristine files.
    reference: (u64, u64),
}

impl Dataset {
    /// The datasets of a run, each produced from its own chain run.
    pub fn produce_all(seed: u64) -> Result<Vec<Dataset>, String> {
        let mut rng = crate::Rng::new(seed);
        (0..DATASETS)
            .map(|_| Dataset::produce(rng.next_u64() >> 1))
            .collect()
    }

    /// Produce the AOD events from one chain run.
    pub fn produce(seed: u64) -> Result<Dataset, String> {
        let wf = PreservedWorkflow::standard_z(Experiment::Cms, seed, EVENTS);
        let ctx = ExecutionContext::fresh(&wf);
        let out = wf
            .execute(&ctx, &ExecOptions::sequential())
            .map_err(|e| e.to_string())?;
        let mut ds = Dataset {
            wf,
            events: out.aod_events,
            reference: (0, 0),
        };
        let row = ds.skim_row(&AodEvent::encode_events(&ds.events))?;
        ds.reference = (row.0.events_out, row.1);
        Ok(ds)
    }

    fn skim_row(&self, file: &Bytes) -> Result<(SkimReport, u64), String> {
        let mut nt = Ntuple::empty(self.wf.ntuple_schema.clone());
        let (_, report) = daspos_tiers::skim::skim_slim_streaming_with(
            file,
            &self.wf.skim,
            &self.wf.slim,
            |ev| nt.append(ev),
        )
        .map_err(|e| format!("row skim: {e}"))?;
        Ok((report, ntuple_digest(&nt)))
    }

    fn skim_col(&self, file: &Bytes) -> Result<(SkimReport, u64), String> {
        let mut nt = Ntuple::empty(self.wf.ntuple_schema.clone());
        let (_, report) =
            daspos_tiers::skim_slim_columnar_with(file, &self.wf.skim, &self.wf.slim, None, |ev| {
                nt.append(ev)
            })
            .map_err(|e| format!("columnar skim: {e}"))?;
        Ok((report, ntuple_digest(&nt)))
    }
}

/// The erasure vault over six memory backends. `backends` are the raw
/// stores (for dropping shards and counting bytes); with `tallies` the
/// vault sees them and the kind verifiers through timing wrappers.
pub struct Store {
    pub vault: Vault,
    pub backends: Vec<Arc<dyn StorageBackend>>,
}

impl Store {
    pub fn new(tallies: Option<&Arc<VaultTallies>>) -> Store {
        let backends: Vec<Arc<dyn StorageBackend>> = (0..K + M)
            .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
            .collect();
        let mut builder = Vault::builder().redundancy(Redundancy::Erasure { k: K, m: M });
        match tallies {
            Some(t) => {
                let verifiers: [Arc<dyn Verifier>; 2] =
                    [Arc::new(SealedTierVerifier), Arc::new(ColumnarVerifier)];
                for v in verifiers {
                    builder = builder.verifier(t.verifier(v));
                }
                builder = builder.backends(backends.iter().map(|b| t.backend(b.clone())).collect());
            }
            None => builder = builder.backends(backends.clone()),
        }
        Store {
            vault: builder.build().expect("4+2 fits six backends"),
            backends,
        }
    }

    /// Bytes held across all backends.
    fn stored_bytes(&self) -> Result<u64, String> {
        let mut total = 0;
        for b in &self.backends {
            for key in b.list("").map_err(|e| e.to_string())? {
                total += b.get(&key).map_err(|e| e.to_string())?.len() as u64;
            }
        }
        Ok(total)
    }

    /// Lose every shard on backend `b`.
    fn drop_backend(&self, b: usize) -> Result<usize, String> {
        let backend = &self.backends[b];
        let keys = backend.list("").map_err(|e| e.to_string())?;
        for key in &keys {
            backend.delete(key).map_err(|e| e.to_string())?;
        }
        Ok(keys.len())
    }
}

/// Nanoseconds each part of one pass took.
#[derive(Debug, Default, Clone)]
struct PassTimes {
    row_encode: f64,
    col_encode: f64,
    deposit: f64,
    get_row: f64,
    unseal: f64,
    skim_row: f64,
    get_col: f64,
    skim_col: f64,
    scrub: f64,
    rebuilt: u64,
    /// Bytes of the two objects deposited.
    bytes: u64,
    /// Backend and verifier time inside each `Vault::get` (row, col).
    get_parts: [Reading; 2],
}

impl PassTimes {
    fn reskim_row(&self) -> f64 {
        self.get_row + self.unseal + self.skim_row
    }

    fn reskim_col(&self) -> f64 {
        self.get_col + self.skim_col
    }

    fn total(&self) -> f64 {
        self.deposit + self.reskim_row() + self.reskim_col() + self.scrub
    }

    /// The end-to-end times multiplied by `factor`.
    fn scaled(&self, factor: f64) -> PassTimes {
        PassTimes {
            row_encode: self.row_encode * factor,
            col_encode: self.col_encode * factor,
            deposit: self.deposit * factor,
            get_row: self.get_row * factor,
            unseal: self.unseal * factor,
            skim_row: self.skim_row * factor,
            get_col: self.get_col * factor,
            skim_col: self.skim_col * factor,
            scrub: self.scrub * factor,
            ..self.clone()
        }
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One deposit / re-skim / scrub pass, every output checked.
fn pass(
    run: &Run,
    index: u64,
    ds: &Dataset,
    store: &Store,
    tallies: Option<&Arc<VaultTallies>>,
) -> Result<(PassTimes, [Bytes; 2]), Box<dyn std::error::Error>> {
    let mut t = PassTimes::default();
    let vault = &store.vault;

    let started = Instant::now();
    let sealed = codec::seal(&AodEvent::encode_events(&ds.events));
    t.row_encode = ns(started);
    vault.put(ROW_KEY, ObjectKind::SealedTier, &sealed)?;
    let mid = Instant::now();
    let col = daspos_tiers::encode_columnar_parallel(&ds.events, 1);
    t.col_encode = ns(mid);
    vault.put(COL_KEY, ObjectKind::ColumnarAod, &col)?;
    t.deposit = ns(started);
    t.bytes = (sealed.len() + col.len()) as u64;

    let parts = || {
        tallies
            .map(|t| t.get.read() + t.verify.read())
            .unwrap_or_default()
    };
    let before = parts();
    let started = Instant::now();
    let (kind, mut got) = vault.get(ROW_KEY)?;
    t.get_row = ns(started);
    let after_row = parts();
    if run.corrupts(index) {
        got = crate::flip(&got);
    }
    ensure(kind == ObjectKind::SealedTier && got == sealed, || {
        format!("pass {index}: row get is not byte-identical to its put")
    })?;
    let started = Instant::now();
    let unsealed = codec::unseal(&got)?;
    t.unseal = ns(started);
    let started = Instant::now();
    let row = ds.skim_row(&unsealed)?;
    t.skim_row = ns(started);

    let started = Instant::now();
    let (kind, got) = vault.get(COL_KEY)?;
    t.get_col = ns(started);
    let after_col = parts();
    ensure(kind == ObjectKind::ColumnarAod && got == col, || {
        format!("pass {index}: columnar get is not byte-identical to its put")
    })?;
    let started = Instant::now();
    let colr = ds.skim_col(&got)?;
    t.skim_col = ns(started);
    t.get_parts = [after_row - before, after_col - after_row];
    check_skims(
        index,
        ds.reference,
        (row.0.events_out, row.1),
        (colr.0.events_out, colr.1),
    )?;

    let dropped = store.drop_backend(index as usize % (K + M))?;
    let started = Instant::now();
    let report = vault.scrub()?;
    t.scrub = ns(started);
    t.rebuilt = report.rebuilt;
    ensure(
        report.clean() && report.rebuilt == dropped as u64 && dropped == 2,
        || {
            format!(
                "pass {index}: scrub after losing {dropped} shard(s) reported {}",
                report.to_text()
            )
        },
    )?;
    Ok((t, [sealed, col]))
}

/// Row and columnar re-skims must agree with each other and with the
/// set-up skim on survivors and ntuple rows.
fn check_skims(
    index: u64,
    reference: (u64, u64),
    row: (u64, u64),
    col: (u64, u64),
) -> Result<(), Mismatch> {
    ensure(row == reference && col == reference, || {
        format!(
            "pass {index}: (survivors, ntuple digest) row {row:?}, columnar {col:?}, set-up {reference:?}"
        )
    })
}

/// Set up `times` times (chain run, vault); the median time at the
/// reference speed and the last set-up.
fn set_up(
    out: &mut Outcome,
    run: &Run,
    times: usize,
) -> Result<(f64, Vec<Dataset>, Store), String> {
    let mut secs = Vec::new();
    // Set-up is mostly chain runs, so it follows the kernel as they do.
    let mut gauge = Gauge::new(crate::chain::SPEED_SENSITIVITY);
    let mut last = None;
    for _ in 0..times {
        gauge.ticks(crate::SETUP_TICKS);
        let t = Instant::now();
        let sets = Dataset::produce_all(run.seed)?;
        let store = Store::new(None);
        secs.push(t.elapsed().as_secs_f64());
        last = Some((sets, store));
    }
    let (sets, store) = last.expect("times >= 1");
    Ok((crate::setup_at_reference(out, &secs, &gauge), sets, store))
}

/// The untraced measurement: end-to-end metrics.
pub fn measure(run: &Run) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let (setup_s, sets, store) = set_up(&mut out, run, crate::SETUPS)?;
    out.metric("setup_s", setup_s);
    let mut raw: Vec<PassTimes> = Vec::with_capacity(run.unit_capacity());
    let mut gauge = Gauge::new(SPEED_SENSITIVITY);
    gauge.reserve(run.unit_capacity());
    let mut stored = 0u64;
    let deadline = run.deadline(1.0);
    while Instant::now() < deadline || raw.len() < 1000 {
        out.attempted += 1;
        let i = raw.len();
        gauge.tick();
        let (t, _) = pass(run, i as u64, &sets[i % DATASETS], &store, None)?;
        if i < DATASETS {
            stored += store.stored_bytes()?;
        }
        raw.push(t);
    }
    let raw_ns: Vec<f64> = raw.iter().map(PassTimes::total).collect();
    crate::speed_record(&mut out, "archive.pass", &raw_ns, &gauge);
    let passes: Vec<PassTimes> = raw
        .iter()
        .enumerate()
        .map(|(i, t)| t.scaled(gauge.scale(i)))
        .collect();
    // Rates from the median pass, given each pass's nanoseconds per unit
    // of work.
    let rate = |ns_per_unit: &dyn Fn(&PassTimes) -> f64| {
        let v: Vec<f64> = passes.iter().map(ns_per_unit).collect();
        1e9 / stats::median(&v)
    };
    let events = EVENTS as f64;
    out.metric("throughput_per_s", rate(&|t| t.total() / events));
    let scrub_mb_per_s = rate(&|t| t.scrub / (t.bytes as f64 / 1e6));
    out.metric("mb_per_s", scrub_mb_per_s);
    let reskim: Vec<f64> = passes
        .iter()
        .map(|t| t.reskim_row() + t.reskim_col())
        .collect();
    latency_metrics(&mut out, "archive.reskim_pair", &reskim);
    out.note(
        "archive.deposit_events_per_s",
        rate(&|t| t.deposit / (2.0 * events)),
    );
    out.note(
        "archive.reskim_row_events_per_s",
        rate(&|t| t.reskim_row() / events),
    );
    out.note(
        "archive.reskim_col_events_per_s",
        rate(&|t| t.reskim_col() / events),
    );
    out.note("archive.scrub_mb_per_s", scrub_mb_per_s);
    out.note(
        "archive.stored_bytes_per_event",
        stored as f64 / (EVENTS as usize * DATASETS) as f64,
    );
    out.note("archive.events_per_pass", EVENTS);
    out.note("archive.distinct_datasets", DATASETS);
    Ok(out)
}

/// Direct-call timings of the vault's codec layers on one object.
#[derive(Debug, Default)]
struct CodecProbe {
    envelope: f64,
    envelope_decode: f64,
    rs_encode: f64,
    rs_decode: f64,
    shard_codec: f64,
    shard_decode: f64,
}

/// Time `encode_envelope`/`decode_envelope`, `Erasure::encode`/`decode`
/// and `encode_shard`/`decode_shard` on `payload` as the vault would
/// store it.
fn probe_codecs(kind: ObjectKind, payload: &Bytes) -> Result<CodecProbe, String> {
    let mut p = CodecProbe::default();
    let started = Instant::now();
    let envelope = encode_envelope(kind, payload);
    let mid = Instant::now();
    let (_, back) = decode_envelope(&envelope).map_err(|e| e.to_string())?;
    p.envelope_decode = ns(mid);
    p.envelope = ns(started);
    ensure(back == *payload, || "envelope round trip".to_string()).map_err(|e| e.to_string())?;

    let ec = Erasure::new(K, M).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let shards = ec.encode(&envelope);
    p.rs_encode = ns(started);
    let slots: Vec<Option<&[u8]>> = shards.iter().map(|s| Some(s.as_slice())).collect();
    let started = Instant::now();
    let data = ec
        .decode(&slots, envelope.len())
        .map_err(|e| e.to_string())?;
    p.rs_decode = ns(started);
    ensure(data == envelope[..], || "erasure round trip".to_string()).map_err(|e| e.to_string())?;

    let digest = codec::fnv64(&envelope);
    let started = Instant::now();
    let encoded: Vec<Bytes> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let header = ShardHeader {
                index: i as u8,
                k: K as u8,
                m: M as u8,
                object_len: envelope.len() as u32,
                object_digest: digest,
            };
            encode_shard(&header, s)
        })
        .collect();
    let mid = Instant::now();
    for s in &encoded {
        decode_shard(s).map_err(|e| e.to_string())?;
    }
    p.shard_decode = ns(mid);
    p.shard_codec = ns(started);
    Ok(p)
}

/// The traced measurement: per-layer metrics of the vault and tier
/// codecs for `share` of the run. With `overhead`, passes over an
/// unwrapped vault alternate with traced ones and their time ratio is
/// reported too.
pub fn traced(
    run: &Run,
    share: f64,
    overhead: bool,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let sets = Dataset::produce_all(run.seed)?;
    let tallies = VaultTallies::new();
    let store = Store::new(Some(&tallies));
    let plain = Store::new(None);
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut passes: Vec<PassTimes> = Vec::new();
    let mut probes: Vec<[CodecProbe; 2]> = Vec::new();
    let deadline = run.deadline(share);
    let mut index = 0u64;
    while Instant::now() < deadline || passes.len() < 20 {
        if overhead {
            out.attempted += 1;
            let (t, _) = pass(run, index, &sets[passes.len() % DATASETS], &plain, None)?;
            untraced_ns.push(t.total());
            index += 1;
        }
        out.attempted += 1;
        let ds = &sets[passes.len() % DATASETS];
        let (t, [sealed, col]) = pass(run, index, ds, &store, Some(&tallies))?;
        index += 1;
        traced_ns.push(t.total());
        probes.push([
            probe_codecs(ObjectKind::SealedTier, &sealed)?,
            probe_codecs(ObjectKind::ColumnarAod, &col)?,
        ]);
        passes.push(t);
    }
    let n = passes.len() as f64;
    let mb = passes.iter().map(|t| t.bytes as f64).sum::<f64>() / 1e6;
    let per_mb = |r: Reading| r.ns as f64 / (r.bytes as f64 / 1e6);
    let probe_sum =
        |f: fn(&CodecProbe) -> f64| -> f64 { probes.iter().flat_map(|p| p.iter()).map(f).sum() };
    let pass_sum = |f: fn(&PassTimes) -> f64| -> f64 { passes.iter().map(f).sum() };
    out.metric("vault.backend_put_ns_per_mb", per_mb(tallies.put.read()));
    out.metric("vault.backend_get_ns_per_mb", per_mb(tallies.get.read()));
    let backend_calls =
        tallies.put.read().calls + tallies.get.read().calls + tallies.other.read().calls;
    // Object operations per pass: two puts, two gets, two objects scrubbed.
    out.metric(
        "vault.backend_ops_per_object",
        backend_calls as f64 / (6.0 * n),
    );
    out.metric("vault.verify_ns_per_mb", per_mb(tallies.verify.read()));
    out.metric("vault.envelope_ns_per_mb", probe_sum(|p| p.envelope) / mb);
    out.metric("vault.rs_encode_ns_per_mb", probe_sum(|p| p.rs_encode) / mb);
    out.metric("vault.rs_decode_ns_per_mb", probe_sum(|p| p.rs_decode) / mb);
    out.metric(
        "vault.shard_codec_ns_per_mb",
        probe_sum(|p| p.shard_codec) / mb,
    );
    // What `Vault::get` spends beyond backend reads, deep verification
    // and the decode halves of the codecs it runs.
    let residual: f64 = passes
        .iter()
        .zip(&probes)
        .map(|(t, p)| {
            let gets = t.get_row + t.get_col;
            let parts: f64 = t.get_parts.iter().map(|r| r.ns as f64).sum();
            let codecs: f64 = p
                .iter()
                .map(|c| c.envelope_decode + c.rs_decode + c.shard_decode)
                .sum();
            gets - parts - codecs
        })
        .sum();
    out.metric("vault.get_residual_ns_per_mb", residual / mb);
    let events = EVENTS as f64 * n;
    out.metric(
        "tiers.row_encode_ns_per_event",
        pass_sum(|t| t.row_encode) / events,
    );
    out.metric(
        "tiers.col_encode_ns_per_event",
        pass_sum(|t| t.col_encode) / events,
    );
    out.metric("tiers.unseal_ns_per_event", pass_sum(|t| t.unseal) / events);
    out.metric(
        "tiers.skim_row_ns_per_event",
        pass_sum(|t| t.skim_row) / events,
    );
    out.metric(
        "tiers.skim_col_ns_per_event",
        pass_sum(|t| t.skim_col) / events,
    );
    out.metric(
        "vault.scrub_rebuilt_shards",
        passes.iter().map(|t| t.rebuilt as f64).sum::<f64>() / n,
    );
    out.note("archive.traced_passes", passes.len());
    if overhead {
        out.metric(
            "obs.trace_overhead_ratio",
            stats::median(&traced_ns) / stats::median(&untraced_ns),
        );
        out.note("obs.trace_overhead_pairs", untraced_ns.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skim_disagreement_is_a_mismatch() {
        assert!(check_skims(0, (5, 9), (5, 9), (5, 9)).is_ok());
        assert!(check_skims(0, (5, 9), (5, 9), (4, 9)).is_err());
        assert!(check_skims(0, (5, 9), (5, 8), (5, 9)).is_err());
    }
}
