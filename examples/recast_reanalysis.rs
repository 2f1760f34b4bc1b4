//! A theorist reinterprets a preserved search through RECAST.
//!
//! ```text
//! cargo run --example recast_reanalysis
//! ```
//!
//! The §2.3 use case end to end: a phenomenologist submits Z′ model
//! points to the experiment's RECAST front end; the back end re-runs the
//! preserved dilepton search through the **full** detector simulation and
//! reconstruction; the experiment approves the results; the theorist
//! turns the released efficiencies into 95% CL cross-section limits and
//! an exclusion verdict per model point.

use std::sync::Arc;

use daspos_conditions::{ConditionsStore, DbSource};
use daspos_detsim::Experiment;
use daspos_gen::NewPhysicsParams;
use daspos_hep::SeedSequence;
use daspos_recast::{cls_upper_limit, FullChainBackend, RecastFrontEnd};
use daspos_rivet::AnalysisRegistry;

fn main() {
    // --- The experiment's side: stand up the closed back end ------------
    let conditions = Arc::new(ConditionsStore::new());
    daspos::workflow::populate_conditions(&conditions, "cms-mc-2013")
        .expect("fresh store accepts tag");
    let registry = Arc::new(AnalysisRegistry::with_builtin());
    let backend = Arc::new(FullChainBackend::new(
        Experiment::Cms.detector(),
        Arc::new(DbSource::connect(conditions, "cms-mc-2013")),
        registry,
        SeedSequence::new(20130321),
    ));
    let frontend = RecastFrontEnd::start(backend, 4);

    // The preserved search's public numbers (what the paper published):
    // background expectation and observation in the signal region, and
    // the dataset's integrated luminosity.
    let background = 4.2; // events expected in m_ll >= 200 GeV
    let n_obs = 4u64; // observed (no excess)
    let lumi_ipb = 5000.0; // 5 fb^-1

    // --- The theorist's side: a scan over Z' masses ---------------------
    println!("Z' -> ll reinterpretation via RECAST (full-chain back end)");
    println!(
        "{:>10} {:>10} {:>12} {:>14} {:>10}",
        "mass GeV", "eff", "sigma_model", "sigma_95CL", "excluded?"
    );
    for (mass, sigma_model) in [
        (250.0, 0.050),
        (300.0, 0.020),
        (400.0, 0.0040),
        (500.0, 0.0012),
        (700.0, 0.0003),
    ] {
        let model = NewPhysicsParams {
            mass,
            width: mass * 0.03,
            cross_section_pb: sigma_model,
        };
        let id = frontend
            .submit("SEARCH_2013_I0006", model, 400, "pheno-group")
            .expect("front end accepts");
        frontend.wait(id).expect("request completes");
        // The experiment reviews and approves.
        frontend.approve(id).expect("approval");
        let output = frontend.fetch(id).expect("released");

        let limit = cls_upper_limit(n_obs, background, output.signal_efficiency, lumi_ipb);
        match limit {
            Some(sigma_limit) => {
                let excluded = sigma_model > sigma_limit;
                println!(
                    "{mass:>10.0} {:>10.3} {sigma_model:>12.3} {sigma_limit:>14.4} {:>10}",
                    output.signal_efficiency,
                    if excluded { "YES" } else { "no" }
                );
            }
            None => println!("{mass:>10.0} {:>10.3} {sigma_model:>12.3} {:>14} {:>10}",
                output.signal_efficiency, "-", "no sens."),
        }
    }
    println!(
        "\n(back end re-ran generation, full detector simulation and reconstruction \
         for every point — the cost the report contrasts with the light RIVET path; \
         see `daspos-cli experiment r1`)"
    );
    frontend.shutdown();
}
