//! The validation engine: prove preservation by re-execution.
//!
//! §2.4 notes that a RECAST-style preserved analysis *"can be re-run at
//! any time … for example, for validation purposes"*. This engine
//! operationalizes that for whole workflows: from the archive **alone**,
//! restore the conditions, parse the workflow, re-execute the full chain
//! on the stated platform, and compare the analysis results against the
//! archived reference — bit-for-bit, since the chain is deterministic
//! from its master seed.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use daspos_conditions::{ConditionsStore, Snapshot};
use daspos_provenance::{Platform, SoftwareStack};
use daspos_tiers::codec::fnv64;

use daspos_obs::Obs;

use crate::archive::{sections, ArchiveError, PreservationArchive};
use crate::error::Error;
use crate::runner::ExecOptions;
use crate::workflow::{ExecutionContext, PreservedWorkflow};

/// The outcome of validating one archive.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Archive name.
    pub archive: String,
    /// Every section present and checksum-intact.
    pub integrity_ok: bool,
    /// The archived software stack can run on the requested platform.
    pub platform_ok: bool,
    /// The workflow re-executed without error.
    pub executed: bool,
    /// The re-run results match the archived reference exactly.
    pub reproduced: bool,
    /// Human-readable detail for failures.
    pub detail: String,
}

/// The sequential stage a validation failed at. The stages run strictly
/// in order — integrity, then platform compatibility, then re-execution,
/// then reproduction — so a failure at stage N leaves every earlier flag
/// truthfully `true` and every later flag `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// A section is missing or fails its checksum.
    Integrity,
    /// The archived software stack is unreadable or targets another
    /// platform. (An unreadable stack is a platform failure, not an
    /// integrity one: the section's checksum is fine, its *content*
    /// cannot be assessed against the requested platform.)
    Platform,
    /// The chain could not be restored and re-run from the archive.
    Execute,
}

impl ValidationReport {
    /// True when the archive fully validates.
    pub fn passed(&self) -> bool {
        self.integrity_ok && self.platform_ok && self.executed && self.reproduced
    }

    fn failure(archive: &str, stage: Stage, detail: String) -> ValidationReport {
        let (integrity_ok, platform_ok) = match stage {
            Stage::Integrity => (false, false),
            Stage::Platform => (true, false),
            Stage::Execute => (true, true),
        };
        ValidationReport {
            archive: archive.to_string(),
            integrity_ok,
            platform_ok,
            executed: false,
            reproduced: false,
            detail,
        }
    }
}

/// Memoizes the re-execution half of validation. The re-run results are a
/// pure function of the archive's executable content (workflow text,
/// conditions snapshot, software stack, ADL documents), so fleet-scale
/// campaigns — faultlab mutants, migration sweeps — that validate many
/// variants of one archive share a single chain execution instead of
/// re-running it per variant.
#[derive(Debug, Default)]
pub struct RerunCache {
    runs: HashMap<u64, Result<String, String>>,
}

impl RerunCache {
    /// An empty cache.
    pub fn new() -> RerunCache {
        RerunCache::default()
    }

    /// Number of distinct executable contents re-run so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when nothing has been re-run yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Split an ADL section into its documents (separated by `---` lines).
pub fn split_adl_documents(text: &str) -> Vec<String> {
    text.split("\n---\n")
        .map(str::trim)
        .filter(|d| !d.is_empty())
        .map(|d| format!("{d}\n"))
        .collect()
}

/// The one validation entry point, replacing the old
/// `validate` / `validate_with_cache` / `validate_statistical` /
/// `validate_statistical_with_cache` quartet with a builder:
///
/// ```no_run
/// # use daspos::prelude::*;
/// # let archive: PreservationArchive = todo!();
/// let mut cache = validate::RerunCache::new();
/// let report = Validator::new(&Platform::current())
///     .with_cache(&mut cache)     // share chain re-runs across archives
///     .statistical(1e-6)          // accept numeric drift up to 1e-6
///     .run(&archive)?;
/// # Ok::<(), Error>(())
/// ```
///
/// Without `.statistical(..)` the comparison is bit-exact; without
/// `.with_cache(..)` each `run` uses a private cache. With an [`Obs`]
/// bundle attached, every run opens a `validate` span (children per
/// stage) and counts `validate.runs` / `validate.reruns` /
/// `validate.cache_hits`.
pub struct Validator<'c> {
    platform: Platform,
    cache: Option<&'c mut RerunCache>,
    tolerance: Option<f64>,
    obs: Obs,
}

impl<'c> Validator<'c> {
    /// A bit-exact validator for `platform`, with a private cache and
    /// observability off.
    pub fn new(platform: &Platform) -> Validator<'c> {
        Validator {
            platform: platform.clone(),
            cache: None,
            tolerance: None,
            obs: Obs::disabled(),
        }
    }

    /// Share chain re-executions across archives through `cache`.
    pub fn with_cache(mut self, cache: &'c mut RerunCache) -> Validator<'c> {
        self.cache = Some(cache);
        self
    }

    /// Accept numeric drift: when the bit comparison fails but the chain
    /// executed, fall back to a per-bin relative comparison within
    /// `rel_tolerance` (see the statistical-mode notes below).
    pub fn statistical(mut self, rel_tolerance: f64) -> Validator<'c> {
        self.tolerance = Some(rel_tolerance);
        self
    }

    /// Attach spans + metrics. The re-executed chain inherits the same
    /// bundle, so its `execute` spans and `events.*` counters land in the
    /// same trace.
    pub fn with_obs(mut self, obs: &Obs) -> Validator<'c> {
        self.obs = obs.clone();
        self
    }

    /// Validate `archive`.
    ///
    /// Returns `Err` only for archives too damaged to even start (missing
    /// or corrupt sections are reported in the `Ok` report instead
    /// wherever possible); the error carries
    /// [`Stage::Validate`](daspos_obs::Stage) context.
    pub fn run(&mut self, archive: &PreservationArchive) -> Result<ValidationReport, Error> {
        let mut span = self.obs.tracer.span("validate");
        span.field("archive", &archive.name);
        if let Some(m) = self.obs.registry() {
            m.add("validate.runs", 1);
        }
        let mut scratch = RerunCache::new();
        let cache: &mut RerunCache = match self.cache.as_deref_mut() {
            Some(shared) => shared,
            None => &mut scratch,
        };
        let result = match self.tolerance {
            None => validate_core(archive, &self.platform, cache, &self.obs),
            Some(tol) => validate_statistical_core(archive, &self.platform, tol, cache, &self.obs),
        };
        match &result {
            Ok(report) => {
                span.field("passed", report.passed());
                span.field("reproduced", report.reproduced);
            }
            Err(_) => span.field("passed", false),
        }
        span.finish();
        result.map_err(|e| Error::from(e).at(daspos_obs::Stage::Validate))
    }
}

/// The bit-exact validation engine (stage 1–4), with per-stage spans.
fn validate_core(
    archive: &PreservationArchive,
    platform: &Platform,
    cache: &mut RerunCache,
    obs: &Obs,
) -> Result<ValidationReport, ArchiveError> {
    let tracer = &obs.tracer;
    // 1. Integrity.
    let integrity_span = tracer.span("validate/integrity");
    if let Err(e) = archive.verify_integrity() {
        return Ok(ValidationReport::failure(
            &archive.name,
            Stage::Integrity,
            e.to_string(),
        ));
    }
    integrity_span.finish();

    // 2. Platform compatibility of the archived software.
    let platform_span = tracer.span("validate/platform");
    let stack = match archive.software() {
        Ok(s) => s,
        Err(e) => {
            return Ok(ValidationReport::failure(
                &archive.name,
                Stage::Platform,
                format!("archived software stack unreadable: {e}"),
            ))
        }
    };
    if !stack.runs_on(platform) {
        return Ok(ValidationReport::failure(
            &archive.name,
            Stage::Platform,
            format!(
                "archived stack targets {}, requested platform is {platform}",
                stack.platform
            ),
        ));
    }
    platform_span.finish();

    // 3. Re-derive the reference from the archive alone. Archives with
    // identical executable content share a single chain execution. A
    // workflow or conditions section missing entirely is a hard error
    // (the archive cannot even start); every softer problem lands in the
    // report as an execute-stage failure.
    let key = rerun_key(archive)?;
    let mut rerun_span = tracer.span("validate/rerun");
    let rerun = match cache.runs.get(&key) {
        Some(cached) => {
            rerun_span.field("cache", "hit");
            if let Some(m) = obs.registry() {
                m.add("validate.cache_hits", 1);
            }
            cached.clone()
        }
        None => {
            rerun_span.field("cache", "miss");
            if let Some(m) = obs.registry() {
                m.add("validate.reruns", 1);
            }
            let fresh = rerun_archive(archive, stack, obs);
            cache.runs.insert(key, fresh.clone());
            fresh
        }
    };
    rerun_span.finish();

    // 4. Compare against the archived reference, bit for bit.
    let compare_span = tracer.span("validate/compare");
    let rerun = match rerun {
        Ok(text) => text,
        Err(detail) => {
            return Ok(ValidationReport::failure(
                &archive.name,
                Stage::Execute,
                detail,
            ))
        }
    };
    let reference = archive.section_text(sections::RESULTS)?;
    let reproduced = reference == rerun;
    compare_span.finish();
    Ok(ValidationReport {
        archive: archive.name.clone(),
        integrity_ok: true,
        platform_ok: true,
        executed: true,
        reproduced,
        detail: if reproduced {
            "bit-identical re-run".to_string()
        } else {
            format!(
                "results differ: reference {} bytes, re-run {} bytes",
                reference.len(),
                rerun.len()
            )
        },
    })
}

/// The [`RerunCache`] key of an archive's executable content. Everything
/// the re-run depends on — workflow text, conditions snapshot, software
/// stack, ADL documents — is hashed into one key.
fn rerun_key(archive: &PreservationArchive) -> Result<u64, ArchiveError> {
    let mut m = BytesMut::new();
    let adl = archive.sections.get(sections::ADL).map(|s| &s.data);
    for part in [
        Some(archive.section(sections::WORKFLOW)?),
        Some(archive.section(sections::CONDITIONS)?),
        Some(archive.section(sections::SOFTWARE)?),
        adl,
    ] {
        match part {
            Some(bytes) => {
                m.put_u32_le(bytes.len() as u32);
                m.put_slice(bytes);
            }
            None => m.put_u32_le(u32::MAX),
        }
    }
    Ok(fnv64(&m))
}

/// Restore the environment from the archive alone and re-execute the
/// chain, returning the re-run results text. A workflow section that is
/// not declarative text (an opaque binary), an unparsable snapshot, or an
/// execution error all surface as the execute-stage failure detail.
fn rerun_archive(
    archive: &PreservationArchive,
    stack: SoftwareStack,
    obs: &Obs,
) -> Result<String, String> {
    let workflow_text = archive.section_text(sections::WORKFLOW).map_err(|_| {
        "workflow section is not declarative text (opaque binary)".to_string()
    })?;
    let workflow = PreservedWorkflow::parse(workflow_text)
        .map_err(|e| format!("workflow unparsable: {e}"))?;
    let snapshot_text = archive
        .section_text(sections::CONDITIONS)
        .map_err(|e| e.to_string())?;
    let snapshot = Snapshot::from_text(snapshot_text)
        .map_err(|e| format!("conditions snapshot unparsable: {e}"))?;
    let conditions = Arc::new(ConditionsStore::new());
    snapshot
        .restore_into(&conditions, &workflow.conditions_tag)
        .map_err(|e| format!("conditions restore failed: {e}"))?;
    let ctx = ExecutionContext::with_conditions(conditions, stack);

    // Register any ADL analyses the archive carries (the Les Houches
    // "analysis database" entries travel with the data they describe).
    if archive.sections.contains_key(sections::ADL) {
        let adl_text = archive
            .section_text(sections::ADL)
            .map_err(|e| e.to_string())?;
        for doc in split_adl_documents(adl_text) {
            let analysis = daspos_rivet::AdlAnalysis::parse(&doc)
                .map_err(|e| format!("adl section unparsable: {e}"))?;
            ctx.registry.register(Box::new(analysis));
        }
    }

    let opts = ExecOptions::default().with_obs(obs.clone());
    let output = workflow.execute(&ctx, &opts).map_err(|e| e.to_string())?;
    Ok(output.results_to_text())
}

/// Parse a reference-results blob (`== key events=N ==` blocks of
/// YODA-like text) into per-analysis histogram maps.
pub fn parse_results_text(
    text: &str,
) -> Result<std::collections::BTreeMap<String, std::collections::BTreeMap<String, daspos_hep::Hist1D>>, String>
{
    let mut out = std::collections::BTreeMap::new();
    let mut current_key: Option<String> = None;
    let mut current_body = String::new();
    let flush = |key: &mut Option<String>,
                     body: &mut String,
                     out: &mut std::collections::BTreeMap<_, _>|
     -> Result<(), String> {
        if let Some(k) = key.take() {
            let hists = daspos_rivet::yoda::from_text(body).map_err(|e| e.to_string())?;
            out.insert(k, hists);
        }
        body.clear();
        Ok(())
    };
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            flush(&mut current_key, &mut current_body, &mut out)?;
            let key = header
                .split_whitespace()
                .next()
                .ok_or("empty results block header")?;
            current_key = Some(key.to_string());
        } else if current_key.is_some() {
            current_body.push_str(line);
            current_body.push('\n');
        }
    }
    flush(&mut current_key, &mut current_body, &mut out)?;
    Ok(out)
}

/// The statistical engine: bit-exact first, then a per-bin relative
/// comparison against the re-run text the bit pass just produced (or
/// found cached) — the chain is never executed a second time merely to
/// recover histograms.
fn validate_statistical_core(
    archive: &PreservationArchive,
    platform: &Platform,
    rel_tolerance: f64,
    cache: &mut RerunCache,
    obs: &Obs,
) -> Result<ValidationReport, ArchiveError> {
    let mut report = validate_core(archive, platform, cache, obs)?;
    if report.reproduced || !report.executed {
        return Ok(report);
    }
    // Bit comparison failed but execution succeeded: compare numerically.
    let reference = match parse_results_text(archive.section_text(sections::RESULTS)?) {
        Ok(r) => r,
        Err(e) => {
            report.detail = format!("reference results unparsable: {e}");
            return Ok(report);
        }
    };
    // `executed` guarantees the cache holds this archive's successful
    // re-run; the defensive arm is unreachable.
    let Some(Ok(rerun_text)) = cache.runs.get(&rerun_key(archive)?) else {
        report.detail = "re-run text unavailable".to_string();
        return Ok(report);
    };
    let rerun = match parse_results_text(rerun_text) {
        Ok(r) => r,
        Err(e) => {
            report.detail = format!("re-run results unparsable: {e}");
            return Ok(report);
        }
    };
    let mut worst: f64 = 0.0;
    let mut compatible = reference.len() == rerun.len();
    'outer: for (key, ref_hists) in &reference {
        let Some(new_hists) = rerun.get(key) else {
            compatible = false;
            break;
        };
        if ref_hists.len() != new_hists.len() {
            compatible = false;
            break;
        }
        for (path, ref_hist) in ref_hists {
            let Some(new_hist) = new_hists.get(path) else {
                compatible = false;
                break 'outer;
            };
            for i in 0..ref_hist.binning().nbins() {
                let a = ref_hist.bin(i);
                let b = new_hist.bin(i);
                let scale = a.abs().max(b.abs()).max(1e-9);
                let rel = (a - b).abs() / scale;
                worst = worst.max(rel);
                if rel > rel_tolerance {
                    compatible = false;
                    break 'outer;
                }
            }
        }
    }
    if compatible {
        report.reproduced = true;
        report.detail = format!(
            "statistically reproduced (worst relative bin deviation {worst:.2e} <= {rel_tolerance:.2e})"
        );
    } else {
        report.detail = format!(
            "results incompatible beyond tolerance {rel_tolerance:.2e} (worst seen {worst:.2e})"
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::PreservationArchive;
    use bytes::Bytes;
    use daspos_detsim::Experiment;

    fn archive_for(seed: u64) -> PreservationArchive {
        let wf = PreservedWorkflow::standard_z(Experiment::Cms, seed, 30);
        let ctx = ExecutionContext::fresh(&wf);
        let out = wf.execute(&ctx, &ExecOptions::default()).unwrap();
        PreservationArchive::builder("val-test")
            .production(&wf, &ctx, &out)
            .unwrap()
            .build()
    }

    #[test]
    fn intact_archive_validates_bit_exactly() {
        let a = archive_for(1);
        let report = Validator::new(&Platform::current()).run(&a).unwrap();
        assert!(report.passed(), "failed: {}", report.detail);
        assert!(report.reproduced);
    }

    #[test]
    fn wrong_platform_fails_cleanly() {
        let a = archive_for(2);
        let report = Validator::new(&Platform::successor()).run(&a).unwrap();
        assert!(!report.passed());
        assert!(!report.platform_ok);
        assert!(report.detail.contains("platform"));
    }

    #[test]
    fn corrupt_section_fails_integrity() {
        let mut a = archive_for(3);
        // Tamper with the results section after packaging.
        let s = a.sections.get_mut(sections::RESULTS).unwrap();
        let mut data = s.data.to_vec();
        data[0] ^= 0xFF;
        s.data = Bytes::from(data);
        let report = Validator::new(&Platform::current()).run(&a).unwrap();
        assert!(!report.integrity_ok);
        assert!(!report.passed());
    }

    #[test]
    fn tampered_reference_is_caught_as_nonreproduction() {
        let mut a = archive_for(4);
        // Replace the reference with a *valid-checksum* but wrong text:
        // the forger recomputes checksums, so only re-execution catches it.
        a.insert(sections::RESULTS, Bytes::from("== forged ==\n"));
        let report = Validator::new(&Platform::current()).run(&a).unwrap();
        assert!(report.integrity_ok);
        assert!(report.executed);
        assert!(!report.reproduced);
    }

    #[test]
    fn missing_workflow_section_fails() {
        let mut a = archive_for(5);
        a.sections.remove(sections::WORKFLOW);
        assert!(Validator::new(&Platform::current()).run(&a).is_err());
    }

    #[test]
    fn unparsable_workflow_reports_execute_failure() {
        let mut a = archive_for(6);
        a.insert(sections::WORKFLOW, Bytes::from("garbage"));
        let report = Validator::new(&Platform::current()).run(&a).unwrap();
        assert!(!report.executed);
        assert!(report.detail.contains("unparsable"));
    }

    #[test]
    fn failure_flags_follow_the_stage_table() {
        // The stages run in order, so a failure at stage N must leave
        // every earlier flag true and every later flag false. One row per
        // failure mode, plus the all-true success row.
        let current = Platform::current();

        // Integrity failure: (false, false, false, false).
        let mut corrupt = archive_for(31);
        let s = corrupt.sections.get_mut(sections::RESULTS).unwrap();
        let mut data = s.data.to_vec();
        data[0] ^= 0xFF;
        s.data = Bytes::from(data);
        let r = Validator::new(&current).run(&corrupt).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (false, false, false, false),
            "integrity row: {}",
            r.detail
        );

        // Unreadable software stack: the checksum is fine (the forger
        // recomputed it), so integrity_ok must stay true — this was
        // previously misreported as an integrity failure.
        let mut bad_stack = archive_for(32);
        bad_stack.insert(sections::SOFTWARE, Bytes::from("not a stack"));
        let r = Validator::new(&current).run(&bad_stack).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (true, false, false, false),
            "unreadable-stack row: {}",
            r.detail
        );
        assert!(r.detail.contains("unreadable"), "{}", r.detail);

        // Wrong platform: (true, false, false, false).
        let r = Validator::new(&Platform::successor()).run(&archive_for(33)).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (true, false, false, false),
            "platform row: {}",
            r.detail
        );

        // Execution failure (opaque workflow): (true, true, false, false).
        let mut opaque = archive_for(34);
        opaque.insert(sections::WORKFLOW, Bytes::from_static(&[0xDE, 0xAD, 0xBE]));
        let r = Validator::new(&current).run(&opaque).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (true, true, false, false),
            "execute row: {}",
            r.detail
        );

        // Non-reproduction (forged reference): (true, true, true, false).
        let mut forged = archive_for(35);
        forged.insert(sections::RESULTS, Bytes::from("== forged ==\n"));
        let r = Validator::new(&current).run(&forged).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (true, true, true, false),
            "reproduction row: {}",
            r.detail
        );

        // Success: all four true.
        let r = Validator::new(&current).run(&archive_for(36)).unwrap();
        assert_eq!(
            (r.integrity_ok, r.platform_ok, r.executed, r.reproduced),
            (true, true, true, true),
            "success row: {}",
            r.detail
        );
    }

    #[test]
    fn rerun_cache_shares_executions_and_agrees_with_validate() {
        let a = archive_for(21);
        let mut cache = RerunCache::new();
        assert!(cache.is_empty());
        let clean = Validator::new(&Platform::current()).with_cache(&mut cache).run(&a).unwrap();
        assert!(clean.passed(), "{}", clean.detail);
        assert_eq!(cache.len(), 1);

        // A forged-results variant has identical executable content, so
        // validating it must reuse the cached run — and still catch the
        // forgery through the bit-exact comparison.
        let mut forged = a.clone();
        forged.insert(sections::RESULTS, Bytes::from("== forged ==\n"));
        let report = Validator::new(&Platform::current()).with_cache(&mut cache).run(&forged).unwrap();
        assert_eq!(cache.len(), 1, "forgery must not trigger a re-execution");
        assert!(report.executed && !report.reproduced);

        // The cached verdict is identical to the uncached engine's.
        assert_eq!(report, Validator::new(&Platform::current()).run(&forged).unwrap());

        // Different executable content (another workflow seed) misses.
        let b = archive_for(22);
        let fresh = Validator::new(&Platform::current()).with_cache(&mut cache).run(&b).unwrap();
        assert!(fresh.passed(), "{}", fresh.detail);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn statistical_validation_accepts_small_numeric_drift() {
        // Forge a reference whose bins differ from the true re-run by a
        // few parts in 1e6 — bit validation must fail, statistical must
        // pass at 1e-3 and fail at 1e-9.
        let a = archive_for(11);
        let reference = a.section_text(sections::RESULTS).unwrap().to_string();
        let drifted: String = reference
            .lines()
            .map(|line| {
                if let Some(rest) = line.strip_prefix("bin ") {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let w: f64 = parts[1].parse().unwrap();
                    format!("bin {} {} {}
", parts[0], w * (1.0 + 3e-6), parts[2])
                } else {
                    format!("{line}
")
                }
            })
            .collect();
        let mut forged = a.clone();
        forged.insert(sections::RESULTS, Bytes::from(drifted));
        let bitwise = Validator::new(&Platform::current()).run(&forged).unwrap();
        assert!(bitwise.executed && !bitwise.reproduced);
        let loose = Validator::new(&Platform::current()).statistical(1e-3).run(&forged).unwrap();
        assert!(loose.passed(), "{}", loose.detail);
        assert!(loose.detail.contains("statistically"));
        let strict = Validator::new(&Platform::current()).statistical(1e-9).run(&forged).unwrap();
        assert!(!strict.passed());
    }

    #[test]
    fn statistical_validation_rejects_gross_differences() {
        let mut a = archive_for(12);
        a.insert(
            sections::RESULTS,
            Bytes::from("== det:ZLL_2013_I0001 events=30 ==
"),
        );
        let report = Validator::new(&Platform::current()).statistical(0.1).run(&a).unwrap();
        assert!(!report.reproduced, "{}", report.detail);
    }

    #[test]
    fn statistical_validation_shares_the_rerun_cache() {
        let a = archive_for(14);
        let mut cache = RerunCache::new();
        let mut forged = a.clone();
        forged.insert(
            sections::RESULTS,
            Bytes::from("== det:ZLL_2013_I0001 events=30 ==\n"),
        );
        let r =
            Validator::new(&Platform::current()).statistical(0.1).with_cache(&mut cache).run(&forged)
                .unwrap();
        assert!(r.executed && !r.reproduced, "{}", r.detail);
        assert_eq!(cache.len(), 1);

        // A second forgery of the same archive has identical executable
        // content: the statistical pass must not re-execute the chain.
        let mut forged2 = a.clone();
        forged2.insert(sections::RESULTS, Bytes::from("== other ==\n"));
        let r2 =
            Validator::new(&Platform::current()).statistical(0.1).with_cache(&mut cache).run(&forged2)
                .unwrap();
        assert!(r2.executed && !r2.reproduced, "{}", r2.detail);
        assert_eq!(cache.len(), 1, "numeric comparison must reuse the cached re-run");
    }

    #[test]
    fn parse_results_text_round_trips_real_output() {
        let wf = PreservedWorkflow::standard_z(Experiment::Cms, 13, 20);
        let ctx = ExecutionContext::fresh(&wf);
        let out = wf.execute(&ctx, &ExecOptions::default()).unwrap();
        let parsed = parse_results_text(&out.results_to_text()).unwrap();
        assert_eq!(parsed.len(), out.analysis_results.len());
        for (key, result) in &out.analysis_results {
            let hists = &parsed[key];
            assert_eq!(hists.len(), result.histograms.len());
        }
    }

    #[test]
    fn validation_works_after_binary_round_trip() {
        let a = archive_for(7);
        let b = PreservationArchive::from_bytes(&a.to_bytes()).unwrap();
        let report = Validator::new(&Platform::current()).run(&b).unwrap();
        assert!(report.passed(), "{}", report.detail);
    }

    #[test]
    fn validator_emits_spans_and_counters() {
        use daspos_obs::{MemoryCollector, MetricsRegistry, Obs};
        use std::sync::Arc;

        let a = archive_for(42);
        let collector = Arc::new(MemoryCollector::new());
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::collecting(collector.clone(), registry.clone());
        let mut cache = RerunCache::new();
        let report = Validator::new(&Platform::current())
            .with_cache(&mut cache)
            .with_obs(&obs)
            .run(&a)
            .unwrap();
        assert!(report.passed(), "{}", report.detail);

        let paths: Vec<String> = collector
            .sorted_records()
            .into_iter()
            .map(|r| r.path)
            .collect();
        for required in [
            "validate",
            "validate/integrity",
            "validate/platform",
            "validate/rerun",
            "validate/compare",
            "execute", // the re-run chain inherits the same bundle
        ] {
            assert!(
                paths.iter().any(|p| p == required),
                "missing span {required}, have {paths:?}"
            );
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("validate.runs"), 1);
        assert_eq!(snap.counter("validate.reruns"), 1);
        assert_eq!(snap.counter("validate.cache_hits"), 0);

        // Second run over identical executable content: a cache hit.
        Validator::new(&Platform::current())
            .with_cache(&mut cache)
            .with_obs(&obs)
            .run(&a)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("validate.runs"), 2);
        assert_eq!(snap.counter("validate.reruns"), 1);
        assert_eq!(snap.counter("validate.cache_hits"), 1);
    }

    #[test]
    fn validator_errors_carry_the_validate_stage() {
        let mut a = archive_for(43);
        a.sections.remove(sections::WORKFLOW);
        let err = Validator::new(&Platform::current()).run(&a).unwrap_err();
        assert_eq!(err.stage(), Some(daspos_obs::Stage::Validate));
        assert!(err.to_string().contains("validate:"), "{err}");
    }
}
