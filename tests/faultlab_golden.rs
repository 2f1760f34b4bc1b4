//! Pins the faultlab planner and its verdicts.
//!
//! `tests/golden/faultlab-plan.txt` holds one line per replay
//! coordinate — `class:index seed kind` for every artifact class ×
//! indices 0..40 at master seed 20130908 over a 6-event fixture — and
//! then the campaign report text at seeds 20130908, 424242 and 99 (40
//! mutations per class, 6 events). A `--replay class:index` coordinate
//! recorded in an old report must keep naming the same mutation and the
//! same verdict, so any drift in seed derivation, planning or checking
//! shows up here as a diff.
//!
//! After an *intended* change to the planner, refresh the file with
//!
//! ```text
//! DASPOS_GOLDEN_REFRESH=1 cargo test --test faultlab_golden
//! ```

use std::path::Path;

use daspos::faultlab::{self, ArtifactClass, CampaignConfig};

const PLAN_SEED: u64 = 20130908;
const REPORT_SEEDS: [u64; 3] = [20130908, 424242, 99];

fn config(master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        master_seed,
        mutations_per_class: 40,
        events: 6,
    }
}

fn rendered() -> String {
    let cfg = config(PLAN_SEED);
    let fixture = faultlab::CampaignFixture::build(&cfg).expect("fixture");
    let mut out = String::new();
    for class in ArtifactClass::all() {
        for index in 0..cfg.mutations_per_class {
            let m = faultlab::derive_mutation(&cfg, &fixture, class, index);
            out.push_str(&format!("{class}:{index} {:#018x} {}\n", m.seed, m.kind));
        }
    }
    for seed in REPORT_SEEDS {
        let report = faultlab::run_campaign(&config(seed)).expect("campaign runs");
        out.push_str(&report.to_text());
    }
    out
}

#[test]
fn faultlab_plan_and_verdicts_are_pinned() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/faultlab-plan.txt");
    let rebuilt = rendered();
    if std::env::var_os("DASPOS_GOLDEN_REFRESH").is_some() {
        std::fs::write(&path, &rebuilt).expect("write faultlab golden");
        return;
    }
    let stored = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Some((line, (want, got))) = stored
        .lines()
        .zip(rebuilt.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "faultlab golden line {} drifted:\n  want: {want}\n  got:  {got}\n\
             if the change is intended, refresh with \
             DASPOS_GOLDEN_REFRESH=1 cargo test --test faultlab_golden",
            line + 1
        );
    }
    assert_eq!(
        stored.len(),
        rebuilt.len(),
        "faultlab golden length drifted — refresh with DASPOS_GOLDEN_REFRESH=1 if intended"
    );
}
