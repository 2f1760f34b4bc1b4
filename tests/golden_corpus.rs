//! Golden-corpus regression suite.
//!
//! `tests/golden/` holds reference artifacts produced by a fixed seeded
//! chain (CMS Z-boson, seed 20130908, 32 events): the packaged `.dpar`
//! container, sealed AOD and RAW tier files, the conditions-snapshot
//! text, the results text, and an `digests.txt` index of fnv64 digests.
//! This test rebuilds the chain and asserts today's toolchain produces
//! the corpus **byte-for-byte**, then decodes and validates the stored
//! artifacts themselves — so any unintended change to event generation,
//! simulation, codec layout, sealing, or container format shows up as a
//! corpus diff, not as silent drift. `chain-digests.txt` pins the
//! LHCb charm chain and the ATLAS and ALICE Z chains by fnv64 of their
//! RAW, AOD, skim, ntuple and results, and of the DPCF columnar AOD and
//! its columnar skim (so the columnar writer's bytes are pinned on real
//! chain data, not only on synthetic events).
//!
//! After an *intended* format change, refresh the corpus with
//!
//! ```text
//! DASPOS_GOLDEN_REFRESH=1 cargo test --test golden_corpus
//! ```
//!
//! and commit the new files together with the change that explains them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use daspos::archive::sections;
use daspos::prelude::*;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::{self, fnv64, Encodable};
use daspos_tiers::{skim_slim_columnar, ColumnarFile};

const GOLDEN_SEED: u64 = 20130908;
const GOLDEN_EVENTS: u64 = 32;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Rebuild the fixed chain under `opts` and serialize every corpus
/// artifact.
fn build_corpus(opts: &ExecOptions) -> BTreeMap<&'static str, Vec<u8>> {
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, GOLDEN_SEED, GOLDEN_EVENTS);
    let ctx = ExecutionContext::fresh(&workflow);
    let output = workflow.execute(&ctx, opts).expect("chain executes");
    let archive = PreservationArchive::builder("cms-z-golden")
        .production(&workflow, &ctx, &output)
        .expect("packages")
        .build();

    let aod_payload = AodEvent::encode_events(&output.aod_events);
    let raw_payload = ctx
        .catalog
        .get(output.raw_dataset)
        .expect("raw dataset")
        .file_data()
        .next()
        .expect("raw file")
        .clone();

    let mut corpus: BTreeMap<&'static str, Vec<u8>> = BTreeMap::new();
    corpus.insert("cms-z.dpar", archive.to_bytes().to_vec());
    corpus.insert("cms-z.aod.dpefs", codec::seal(&aod_payload).to_vec());
    corpus.insert("cms-z.raw.dpefs", codec::seal(&raw_payload).to_vec());
    corpus.insert(
        "cms-z.conditions.txt",
        archive
            .section_text(sections::CONDITIONS)
            .expect("conditions text")
            .as_bytes()
            .to_vec(),
    );
    corpus.insert(
        "cms-z.results.txt",
        archive
            .section_text(sections::RESULTS)
            .expect("results text")
            .as_bytes()
            .to_vec(),
    );

    let mut index = String::new();
    for (name, data) in &corpus {
        index.push_str(&format!("{name} {:016x} {}\n", fnv64(data), data.len()));
    }
    corpus.insert("digests.txt", index.into_bytes());
    corpus
}

#[test]
fn golden_corpus_is_reproduced_byte_for_byte() {
    let dir = golden_dir();
    let corpus = build_corpus(&ExecOptions::default());

    if std::env::var_os("DASPOS_GOLDEN_REFRESH").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        for (name, data) in &corpus {
            std::fs::write(dir.join(name), data).expect("write golden file");
        }
        eprintln!("golden corpus refreshed in {}", dir.display());
        return;
    }

    assert!(
        dir.join("digests.txt").exists(),
        "golden corpus missing — generate it once with \
         DASPOS_GOLDEN_REFRESH=1 cargo test --test golden_corpus"
    );
    for (name, expected) in &corpus {
        let stored = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("cannot read golden {name}: {e}"));
        assert_eq!(
            fnv64(&stored),
            fnv64(expected),
            "golden {name} drifted: stored {} bytes (fnv64 {:016x}), \
             rebuilt {} bytes (fnv64 {:016x}) — if the change is intended, \
             refresh with DASPOS_GOLDEN_REFRESH=1",
            stored.len(),
            fnv64(&stored),
            expected.len(),
            fnv64(expected)
        );
        assert_eq!(&stored, expected, "fnv64 collision? bytes differ for {name}");
    }
}

/// Preserved bytes describe the workflow, not the host that ran it: the
/// corpus is identical at 1, 2 and 4 worker threads and from another
/// working directory.
#[test]
fn corpus_bytes_do_not_depend_on_threads_or_working_directory() {
    let reference = build_corpus(&ExecOptions::new().threads(1));
    for threads in [2, 4] {
        assert_eq!(
            build_corpus(&ExecOptions::new().threads(threads)),
            reference,
            "corpus differs at {threads} threads"
        );
    }
    let elsewhere = std::env::temp_dir();
    let home = std::env::current_dir().expect("working directory");
    std::env::set_current_dir(&elsewhere).expect("enter temp dir");
    let moved = build_corpus(&ExecOptions::default());
    std::env::set_current_dir(home).expect("restore working directory");
    assert_eq!(
        moved,
        reference,
        "corpus differs when run from {}",
        elsewhere.display()
    );
}

/// Events per workflow in the digest-only chain goldens.
const DIGEST_EVENTS: u64 = 256;

/// The chains the byte corpus above does not cover, pinned by digest
/// only: LHCb charm (vertexing, the forward calorimeter) and Z on the
/// ATLAS and ALICE geometries (their jets, clusters and tracking).
fn chain_digests() -> String {
    let workflows = [
        ("lhcb-charm", PreservedWorkflow::standard_charm(GOLDEN_SEED, DIGEST_EVENTS)),
        (
            "atlas-z",
            PreservedWorkflow::standard_z(Experiment::Atlas, GOLDEN_SEED, DIGEST_EVENTS),
        ),
        (
            "alice-z",
            PreservedWorkflow::standard_z(Experiment::Alice, GOLDEN_SEED, DIGEST_EVENTS),
        ),
    ];
    let mut index = String::new();
    for (name, workflow) in workflows {
        let ctx = ExecutionContext::fresh(&workflow);
        let output = workflow
            .execute(&ctx, &ExecOptions::default())
            .expect("chain executes");
        let files = |id| -> Vec<u8> {
            ctx.catalog
                .get(id)
                .expect("chain dataset")
                .file_data()
                .flat_map(|data| data.iter().copied())
                .collect()
        };
        let mut ntuple = Vec::new();
        for i in 0..output.ntuple.n_rows() {
            for v in output.ntuple.row(i) {
                ntuple.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let aod_dpcf = ColumnarFile::from_rows(&output.aod_events);
        let (skim_dpcf, _) = skim_slim_columnar(&aod_dpcf, &workflow.skim, &workflow.slim, None)
            .expect("columnar skim");
        let artifacts = [
            ("raw", files(output.raw_dataset)),
            ("aod", AodEvent::encode_events(&output.aod_events).to_vec()),
            ("aod.dpcf", aod_dpcf.to_vec()),
            ("skim", files(output.skim_dataset)),
            ("skim.dpcf", skim_dpcf.to_vec()),
            ("ntuple", ntuple),
            ("results", output.results_to_text().into_bytes()),
        ];
        for (tier, data) in artifacts {
            index.push_str(&format!(
                "{name}.{tier} {:016x} {}\n",
                fnv64(&data),
                data.len()
            ));
        }
    }
    index
}

/// The digest-only goldens in `tests/golden/chain-digests.txt` are
/// reproduced exactly (refreshed together with the byte corpus).
#[test]
fn chain_digests_are_reproduced() {
    let path = golden_dir().join("chain-digests.txt");
    let rebuilt = chain_digests();
    if std::env::var_os("DASPOS_GOLDEN_REFRESH").is_some() {
        std::fs::write(&path, &rebuilt).expect("write chain digests");
        return;
    }
    let stored = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        stored, rebuilt,
        "chain digests drifted — if the change is intended, refresh with \
         DASPOS_GOLDEN_REFRESH=1"
    );
}

#[test]
fn golden_artifacts_still_decode_and_validate() {
    let dir = golden_dir();
    if !dir.join("digests.txt").exists() {
        eprintln!("golden corpus absent; run the refresh first");
        return;
    }

    // The stored container parses, verifies, and validates by
    // re-execution on the current platform.
    let dpar = std::fs::read(dir.join("cms-z.dpar")).expect("read dpar");
    let archive = PreservationArchive::from_bytes(&Bytes::from(dpar)).expect("parses");
    archive.verify_integrity().expect("verifies");
    let report =
        Validator::new(&Platform::current()).run(&archive).expect("validates");
    assert!(report.passed(), "golden archive failed validation: {}", report.detail);

    // The sealed tier files unseal and decode.
    let sealed_aod = Bytes::from(std::fs::read(dir.join("cms-z.aod.dpefs")).unwrap());
    let aod_payload = codec::unseal(&sealed_aod).expect("aod seal verifies");
    let aods = AodEvent::decode_events(&aod_payload).expect("aod decodes");
    assert_eq!(aods.len() as u64, GOLDEN_EVENTS);

    let sealed_raw = Bytes::from(std::fs::read(dir.join("cms-z.raw.dpefs")).unwrap());
    let raw_payload = codec::unseal(&sealed_raw).expect("raw seal verifies");
    use daspos_detsim::raw::RawEvent;
    let raws = RawEvent::decode_events(&raw_payload).expect("raw decodes");
    assert_eq!(raws.len() as u64, GOLDEN_EVENTS);

    // The conditions text carries a digest and parses; the results text
    // matches the archive's RESULTS section exactly.
    let cond = std::fs::read_to_string(dir.join("cms-z.conditions.txt")).unwrap();
    assert!(cond.lines().nth(1).unwrap_or("").starts_with("digest "));
    daspos_conditions::Snapshot::from_text(&cond).expect("conditions parse");
    let results = std::fs::read(dir.join("cms-z.results.txt")).unwrap();
    assert_eq!(
        archive.section(sections::RESULTS).expect("results section"),
        &Bytes::from(results)
    );

    // The digest index is consistent with the files it describes.
    let index = std::fs::read_to_string(dir.join("digests.txt")).unwrap();
    for line in index.lines() {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("name");
        let digest = u64::from_str_radix(parts.next().expect("digest"), 16).unwrap();
        let len: usize = parts.next().expect("len").parse().unwrap();
        if name == "digests.txt" {
            continue; // the index cannot contain its own digest
        }
        let data = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(data.len(), len, "stored length drifted for {name}");
        assert_eq!(fnv64(&data), digest, "stored digest drifted for {name}");
    }
}
