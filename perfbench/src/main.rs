//! `perfbench --workload <chain|archive|service> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `BENCHMARK.json` declares `chain` and `archive`; `service` runs the
//! same way but is not gated (see `UNGATED_WORKLOADS`).
//!
//! Prints a run record line, then one JSON result line. Exits nonzero
//! without a result when an output check fails.

use std::process::ExitCode;

use perfbench::{
    archive, chain, machine_record, peak_rss_mb, render_record, render_result, service, Outcome,
    Run, END_TO_END, PER_LAYER, UNGATED_WORKLOADS, WORKLOADS,
};

struct Args {
    workload: String,
    trace: bool,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut corrupt_at) = (2013u64, 10.0f64, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            // Fault hook for the benchmark's own tests.
            "--corrupt-at" => {
                corrupt_at = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--corrupt-at takes an integer")?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS
        .iter()
        .chain(UNGATED_WORKLOADS)
        .any(|w| *w == workload)
    {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?} or {UNGATED_WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        trace,
        run: Run {
            seed,
            seconds,
            corrupt_at,
        },
    })
}

fn measure(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let run = &args.run;
    let w = args.workload.as_str();
    if !args.trace {
        let mut out = match w {
            "chain" => chain::measure(run)?,
            "archive" => archive::measure(run)?,
            _ => service::measure(run)?,
        };
        out.metric("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }
    // A traced run measures every layer, each on the pipeline that
    // exercises it, a third of the run each; the chosen workload also
    // measures its own tracing overhead.
    let mut out = chain::traced(run, 1.0 / 3.0, w == "chain")?;
    out.absorb(archive::traced(run, 1.0 / 3.0, w == "archive")?);
    out.absorb(service::traced(run, 1.0 / 3.0, w == "service")?);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match measure(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    machine_record(&mut out);
    out.note_str("workload", &args.workload);
    out.note("seed", args.run.seed);
    out.note("seconds", args.run.seconds);
    out.note("trace", u8::from(args.trace));
    out.note(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    match render_result(&out, specs) {
        Ok(line) => {
            println!("{}", render_record(&out));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
