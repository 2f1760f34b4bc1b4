//! The `daspos` command-line tool: produce, inspect, validate, migrate
//! and vault preservation archives from a shell.
//!
//! ```text
//! daspos produce  --experiment cms --process z-boson --events 200 --seed 42 --out z.dpar
//! daspos inspect  z.dpar
//! daspos validate z.dpar [--platform el9-aarch64]
//! daspos migrate  z.dpar --out z-el9.dpar
//! daspos trace    --experiment cms --events 200 --seed 42 --out trace.jsonl
//! daspos vault    put z.dpar --store vault/ --key z.dpar
//! daspos vault    scrub --store vault/
//! daspos table1
//! daspos maturity
//! ```
//!
//! Exit codes are uniform across subcommands: 0 on success, 1 when a
//! validation / integrity / campaign check fails, 2 on usage errors
//! (unknown command, missing or malformed arguments).

use std::process::ExitCode;

use bytes::Bytes;
use daspos::prelude::*;
use daspos::usecases;
use daspos_hep::event::ProcessKind;

/// A CLI failure, split by exit code: operational failures (validation
/// mismatch, integrity damage, campaign violations, I/O) exit 1; usage
/// errors (bad flags, unknown names) exit 2.
#[derive(Debug)]
enum CliError {
    /// Exit 2 — the invocation itself was wrong.
    Usage(String),
    /// Exit 1 — the invocation was fine, the work failed.
    Failure(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
}

/// `format!`-built runtime messages default to failures…
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failure(msg)
    }
}

/// …while the `&'static str` literals in the flag parsers ("bad --seed",
/// "produce needs --out") are usage errors.
impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_string())
    }
}

type CliResult = Result<(), CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("produce") => cmd_produce(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("table1") => {
            println!("{}", daspos_outreach::experiments::render_table1());
            Ok(())
        }
        Some("trace") => cmd_trace(&args[1..]),
        Some("faultlab") => cmd_faultlab(&args[1..]),
        Some("vault") => cmd_vault(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("maturity") => cmd_maturity(),
        Some("help") | Some("--help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command '{other}' (try 'daspos help')"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(msg)) => {
            eprintln!("daspos: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("daspos: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "daspos — data and software preservation toolkit

USAGE:
  daspos produce  --experiment <alice|atlas|cms|lhcb> [--process <name>]
                  [--events N] [--seed N] [--threads N]
                  [--trace-out <file.jsonl>] --out <file.dpar>
        run the full chain and package a preservation archive
        (--threads 1 forces the sequential engine; default is one worker
         per hardware thread — the output is identical either way;
         --trace-out also records a deterministic JSONL trace)
  daspos inspect  <file.dpar>
        list sections, the workflow, and the use cases the archive serves
  daspos validate <file.dpar> [--platform <name>]
        re-execute the archive and compare bit-for-bit
  daspos migrate  <file.dpar> --out <file.dpar>
        rebuild the archived software stack for the successor platform
  daspos trace    [--experiment <name>] [--process <name>] [--events N]
                  [--seed N] [--threads N] [--tier-format <row|columnar>]
                  [--out <file.jsonl>]
        run the full chain with observability on: per-stage spans, chain
        counters, a summary table on stdout and a deterministic JSONL
        trace (timestamp-stripped, byte-stable for a fixed seed at any
        thread count; default trace.jsonl; --tier-format columnar runs
        the predicate-pushdown DPCF skim and reports
        tier.columnar.cols_read/cols_skipped)
  daspos faultlab [--seed N] [--mutations N] [--events N]
                  [--classes <a,b,...>] [--replay <class>:<index>]
                  [--trace-out <file.jsonl>]
        run a deterministic fault-injection campaign over every artifact
        class (sealed tiers, columnar tier, archive container, conditions
        and results text, vault replicas, erasure shard stripes) and
        assert each mutation is detected or harmless; --classes restricts
        the campaign to a comma-separated subset (e.g. --classes
        vault-shard);
        --replay re-runs one mutation by its campaign coordinates
  daspos vault    put <file> --store <dir> [--key <name>] [--kind <kind>]
                  [--replicas N | --erasure k,m]
        copy a file into a preservation vault: either N full replicas
        (default 3, under <dir>/replica-K) or k+m erasure-coded shards
        (--erasure 4,2 stripes each object over 6 <dir>/shard-K backends
        and survives any 2 of them dying); --replicas and --erasure are
        mutually exclusive; an existing store keeps its layout; the kind
        (opaque, sealed-tier, container, conditions, columnar-aod) is
        sniffed from the payload unless given
  daspos vault    get <key> --store <dir> --out <file>
        checksum-verified read: replicated stores return the first copy
        that passes integrity checks, erasure stores reconstruct from any
        k verified shards — healing damaged copies in passing
  daspos vault    scrub --store <dir> [--threads N]
        walk every object, verify envelope and shard digests, DPSL seals
        and container manifests, and repair damaged copies (rebuilding
        lost shards from the surviving k); --threads fans per-object work
        across the worker pool; exits 1 if damage remains
  daspos vault    scrub --selftest [--erasure 4,2] [--seed N]
                  [--mutations N] [--events N]
        deterministic disaster drill: inject seeded corruption into a
        scratch vault and prove scrub detects and repairs every mutation
        (exit 1 otherwise); --erasure 4,2 drills the sharded vault
        instead (backend kills, correlated shard corruption, geometry
        forgeries, scrubs racing writes)
  daspos vault    verify --store <dir> [--threads N]
        like scrub but read-only: report damage without repairing
  daspos serve    [--addr <host:port>] [--store <dir>]
                  [--replicas N | --erasure k,m]
                  [--max-inflight N] [--pool N] [--streams N]
                  [--scrub-ms N] [--default-quota B:I:O]
                  [--quota tenant=B:I:O[,tenant=…]]
        run the multi-tenant preservation service daemon: a framed
        DPRQ/DPRS protocol over one shared vault (a directory store with
        --store, else in-memory), served by a fixed worker pool (--pool,
        default 4) multiplexing every connection, an admission gate that
        answers 'overloaded' past --max-inflight concurrent ops (default
        64) or --streams open chunked uploads (default 32), per-tenant
        quotas (BYTES:INFLIGHT:OPS-per-sec, 0 = unlimited; --default-quota
        for everyone, --quota for per-tenant overrides) answered with
        'quota-exceeded', and a background scrubber (--scrub-ms cadence,
        0 disables) that yields to foreground traffic; objects larger
        than one 16 MiB frame stream through chunked PUT/GET; prints the
        bound address, serves until a client sends shutdown, then drains
        and reports counters
  daspos serve    --selftest
        tier-1 smoke: in-process server + concurrent loadgen burst with
        byte-identity verification, a 64 MiB streamed round trip under
        bounded buffering, and a forced per-tenant quota rejection (exit
        1 on any failure)
  daspos loadgen  --addr <host:port> [--clients N] [--ops N] [--tenants N]
                  [--seed N] [--payload-bytes N] [--mix p:g:v:s]
                  [--large-every N] [--large-bytes N] [--chunk-bytes N]
                  [--shutdown]
        simulate a community of analysts against a running serve: N
        concurrent clients drive a seeded put/get/verify/scrub mix,
        deep-verifying every GET byte-for-byte and absorbing backpressure
        with retries; every --large-every'th put streams a --large-bytes
        object through the chunked protocol (0 disables) and streamed ops
        report their own sput/sget p50/p99 lines; prints latencies and
        throughput, exits 1 on any verification failure; --shutdown stops
        the server afterwards
  daspos table1
        print the Table 1 outreach feature matrix
  daspos maturity
        print the Appendix A maturity rubric table"
    );
}

/// Pull `--name value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse the mutually exclusive redundancy pair `--replicas N` /
/// `--erasure k,m`. `None` means neither flag was given (the caller
/// picks its default).
fn redundancy_flags(args: &[String]) -> Result<Option<Redundancy>, CliError> {
    let replicas = flag(args, "--replicas");
    let erasure = flag(args, "--erasure");
    if replicas.is_some() && erasure.is_some() {
        return Err(CliError::usage(
            "--replicas and --erasure are mutually exclusive: a vault is either \
             fully replicated or striped k+m, not both (try 'daspos help')",
        ));
    }
    if let Some(n) = replicas {
        let n: usize = n.parse().map_err(|_| "bad --replicas")?;
        if n == 0 {
            return Err(CliError::usage("--replicas must be at least 1"));
        }
        return Ok(Some(Redundancy::Replicas(n)));
    }
    if let Some(spec) = erasure {
        let bad = || CliError::usage(format!("bad --erasure '{spec}' (want k,m — e.g. 4,2)"));
        let (k, m) = spec.split_once(',').ok_or_else(bad)?;
        let k: usize = k.trim().parse().map_err(|_| bad())?;
        let m: usize = m.trim().parse().map_err(|_| bad())?;
        if k == 0 || m == 0 || k + m > 255 {
            return Err(CliError::usage(format!(
                "bad --erasure '{spec}': need k >= 1, m >= 1 and k+m <= 255"
            )));
        }
        return Ok(Some(Redundancy::Erasure { k, m }));
    }
    Ok(None)
}

fn positional(args: &[String]) -> Option<String> {
    args.iter().find(|a| !a.starts_with("--")).cloned()
}

fn load_archive(path: &str) -> Result<PreservationArchive, String> {
    let raw = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    PreservationArchive::from_bytes(&Bytes::from(raw)).map_err(|e| e.to_string())
}

fn cmd_produce(args: &[String]) -> CliResult {
    let experiment_name = flag(args, "--experiment").ok_or("produce needs --experiment <name>")?;
    let experiment = Experiment::all()
        .into_iter()
        .find(|e| e.name() == experiment_name)
        .ok_or_else(|| CliError::usage(format!("unknown experiment '{experiment_name}'")))?;
    let out = flag(args, "--out").ok_or("produce needs --out <file.dpar>")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "2013".to_string())
        .parse()
        .map_err(|_| "bad --seed")?;
    let n_events: u64 = flag(args, "--events")
        .unwrap_or_else(|| "200".to_string())
        .parse()
        .map_err(|_| "bad --events")?;
    let process_name = flag(args, "--process").unwrap_or_else(|| "z-boson".to_string());
    let mut opts = match flag(args, "--threads") {
        Some(t) => ExecOptions::new().threads(t.parse().map_err(|_| "bad --threads")?),
        None => ExecOptions::new(),
    };
    let trace_out = flag(args, "--trace-out");
    let trace = trace_out.as_ref().map(|_| {
        let collector = std::sync::Arc::new(MemoryCollector::new());
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        opts = opts
            .clone()
            .with_obs(Obs::collecting(collector.clone(), registry.clone()));
        (collector, registry)
    });

    let mut workflow = match process_name.as_str() {
        "charm" => PreservedWorkflow::standard_charm(seed, n_events),
        _ => {
            let process = ProcessKind::all()
                .iter()
                .copied()
                .find(|p| p.name() == process_name)
                .ok_or_else(|| CliError::usage(format!("unknown process '{process_name}'")))?;
            let mut wf = PreservedWorkflow::standard_z(experiment, seed, n_events);
            wf.process = process;
            wf
        }
    };
    workflow.experiment = experiment;

    eprintln!(
        "producing {} {} events on {} (seed {seed}, {} threads)…",
        n_events,
        workflow.process.name(),
        experiment.name(),
        opts.thread_count()
    );
    let ctx = ExecutionContext::fresh(&workflow);
    let production = workflow.execute(&ctx, &opts).map_err(|e| e.to_string())?;
    for (tier, bytes, events) in &production.tier_bytes {
        eprintln!("  {tier:>8}: {events:>7} events {bytes:>12} bytes");
    }
    let name = format!("{}-{}-{}", experiment.name(), workflow.process.name(), seed);
    let archive = PreservationArchive::builder(&name)
        .production(&workflow, &ctx, &production)
        .map_err(|e| e.to_string())?
        .build();
    std::fs::write(&out, archive.to_bytes()).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "archive '{name}' written to {out} ({} bytes, {} sections)",
        archive.byte_size(),
        archive.sections.len()
    );
    if let (Some(path), Some((collector, registry))) = (trace_out, trace) {
        write_trace(&path, &collector.sorted_records(), &registry.snapshot())?;
    }
    Ok(())
}

/// Write the canonical stable trace (spans sorted by path, timestamps and
/// gauges stripped) and confirm it parses back.
fn write_trace(
    path: &str,
    records: &[daspos::obs::SpanRecord],
    snapshot: &daspos::obs::MetricsSnapshot,
) -> Result<(), String> {
    let jsonl = daspos::obs::render_trace(records, Some(snapshot), true);
    daspos::obs::parse_jsonl(&jsonl).map_err(|e| format!("trace does not round-trip: {e}"))?;
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write '{path}': {e}"))?;
    println!(
        "trace written to {path} ({} spans, {} counters)",
        records.len(),
        snapshot.counters.len()
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let experiment_name = flag(args, "--experiment").unwrap_or_else(|| "cms".to_string());
    let experiment = Experiment::all()
        .into_iter()
        .find(|e| e.name() == experiment_name)
        .ok_or_else(|| CliError::usage(format!("unknown experiment '{experiment_name}'")))?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "2013".to_string())
        .parse()
        .map_err(|_| "bad --seed")?;
    let n_events: u64 = flag(args, "--events")
        .unwrap_or_else(|| "200".to_string())
        .parse()
        .map_err(|_| "bad --events")?;
    let out = flag(args, "--out").unwrap_or_else(|| "trace.jsonl".to_string());
    let process_name = flag(args, "--process").unwrap_or_else(|| "z-boson".to_string());
    let mut workflow = match process_name.as_str() {
        "charm" => PreservedWorkflow::standard_charm(seed, n_events),
        _ => {
            let process = ProcessKind::all()
                .iter()
                .copied()
                .find(|p| p.name() == process_name)
                .ok_or_else(|| CliError::usage(format!("unknown process '{process_name}'")))?;
            let mut wf = PreservedWorkflow::standard_z(experiment, seed, n_events);
            wf.process = process;
            wf
        }
    };
    workflow.experiment = experiment;

    let collector = std::sync::Arc::new(MemoryCollector::new());
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let mut opts =
        ExecOptions::new().with_obs(Obs::collecting(collector.clone(), registry.clone()));
    if let Some(threads) = flag(args, "--threads") {
        opts = opts.threads(threads.parse().map_err(|_| "bad --threads")?);
    }
    if let Some(format) = flag(args, "--tier-format") {
        let format = daspos_tiers::TierFormat::parse(&format).ok_or_else(|| {
            CliError::usage(format!("unknown tier format '{format}' (row or columnar)"))
        })?;
        opts = opts.tier_format(format);
    }

    eprintln!(
        "tracing {} {} events on {} (seed {seed}, {} threads)…",
        n_events,
        workflow.process.name(),
        experiment.name(),
        opts.thread_count()
    );
    let ctx = ExecutionContext::fresh(&workflow);
    workflow.execute(&ctx, &opts).map_err(|e| e.to_string())?;

    let records = collector.sorted_records();
    let missing = daspos::workflow::chain_trace_coverage(&records);
    if !missing.is_empty() {
        return Err(format!("trace is missing chain stages: {}", missing.join(", ")).into());
    }
    let snapshot = registry.snapshot();
    print!("{}", TraceSummary::from_records(&records).to_text());
    println!();
    print!("{}", snapshot.to_text());
    write_trace(&out, &records, &snapshot)?;
    Ok(())
}

fn cmd_inspect(args: &[String]) -> CliResult {
    let path = positional(args).ok_or("inspect needs a file")?;
    let archive = load_archive(&path)?;
    println!(
        "archive '{}' (container v{})",
        archive.name, archive.version
    );
    println!("\nsections:");
    for (name, s) in &archive.sections {
        println!(
            "  {name:>12}: {:>8} bytes  fnv64 {:016x}  {}",
            s.data.len(),
            s.checksum,
            if s.intact() { "intact" } else { "CORRUPT" }
        );
    }
    if let Ok(text) = archive.section_text(daspos::archive::sections::WORKFLOW) {
        println!("\nworkflow:\n{}", indent(text));
    }
    if let Ok(stack) = archive.software() {
        println!("software stack ({}):", stack.platform);
        for p in &stack.packages {
            println!("  {}", p.render());
        }
    }
    println!("\nuse cases served:");
    for uc in usecases::served_by(&archive) {
        println!("  [{:?}] {}", uc.actor, uc.name);
    }
    Ok(())
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cmd_validate(args: &[String]) -> CliResult {
    let path = positional(args).ok_or("validate needs a file")?;
    let platform = flag(args, "--platform")
        .map(daspos_provenance::Platform)
        .unwrap_or_else(Platform::current);
    let archive = load_archive(&path)?;
    eprintln!("re-executing '{}' on {platform}…", archive.name);
    let report = Validator::new(&platform)
        .run(&archive)
        .map_err(|e| e.to_string())?;
    println!("integrity:  {}", report.integrity_ok);
    println!("platform:   {}", report.platform_ok);
    println!("executed:   {}", report.executed);
    println!("reproduced: {}", report.reproduced);
    println!("detail:     {}", report.detail);
    if report.passed() {
        println!("VALID — the archive reproduces its reference bit-for-bit");
        Ok(())
    } else {
        Err(format!("validation FAILED ({})", report.detail).into())
    }
}

fn cmd_migrate(args: &[String]) -> CliResult {
    let path = positional(args).ok_or("migrate needs a file")?;
    let out = flag(args, "--out").ok_or("migrate needs --out <file.dpar>")?;
    let mut archive = load_archive(&path)?;
    let target = flag(args, "--platform")
        .map(daspos_provenance::Platform)
        .unwrap_or_else(Platform::successor);
    let stack = archive.software().map_err(|e| e.to_string())?;
    archive.set_software(&stack.migrated_to(target.clone()));
    let report = Validator::new(&target)
        .run(&archive)
        .map_err(|e| e.to_string())?;
    if !report.passed() {
        return Err(format!(
            "archive does not validate after migration: {}",
            report.detail
        )
        .into());
    }
    std::fs::write(&out, archive.to_bytes()).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "migrated '{}' to {target}; revalidated bit-exactly; written to {out}",
        archive.name
    );
    Ok(())
}

fn cmd_faultlab(args: &[String]) -> CliResult {
    use daspos::faultlab::{self, ArtifactClass, CampaignConfig, Outcome};
    let mut cfg = CampaignConfig::default();
    if let Some(seed) = flag(args, "--seed") {
        cfg.master_seed = seed.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(m) = flag(args, "--mutations") {
        cfg.mutations_per_class = m.parse().map_err(|_| "bad --mutations")?;
    }
    if let Some(e) = flag(args, "--events") {
        cfg.events = e.parse().map_err(|_| "bad --events")?;
    }

    let classes: Vec<ArtifactClass> = match flag(args, "--classes") {
        Some(spec) => {
            let parsed: Vec<ArtifactClass> = spec
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|name| {
                    ArtifactClass::parse(name).ok_or_else(|| {
                        CliError::usage(format!(
                            "unknown class '{name}' (one of: {})",
                            ArtifactClass::all().map(|c| c.name()).join(", ")
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            if parsed.is_empty() {
                return Err(CliError::usage("--classes wants at least one class name"));
            }
            parsed
        }
        None => ArtifactClass::all().to_vec(),
    };

    if let Some(coords) = flag(args, "--replay") {
        let (class_name, index) = coords
            .split_once(':')
            .ok_or("--replay wants <class>:<index>, e.g. tier-aod:17")?;
        let class = ArtifactClass::parse(class_name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown class '{class_name}' (one of: {})",
                ArtifactClass::all().map(|c| c.name()).join(", ")
            ))
        })?;
        let index: u32 = index.parse().map_err(|_| "bad replay index")?;
        let (mutation, outcome) =
            faultlab::replay(&cfg, class, index).map_err(|e| e.to_string())?;
        println!(
            "replay {class}:{index} (seed {:#018x})\n  mutation: {}",
            mutation.seed, mutation.kind
        );
        return match outcome {
            Outcome::Detected(layer) => {
                println!("  outcome:  detected by {layer}");
                Ok(())
            }
            Outcome::Harmless => {
                println!("  outcome:  harmless (content identical)");
                Ok(())
            }
            Outcome::Violation(detail) => Err(format!("invariant VIOLATED: {detail}").into()),
        };
    }

    eprintln!(
        "faultlab: injecting {} mutations x {} classes (seed {})…",
        cfg.mutations_per_class,
        classes.len(),
        cfg.master_seed
    );
    let trace_out = flag(args, "--trace-out");
    let trace = trace_out.as_ref().map(|_| {
        (
            std::sync::Arc::new(MemoryCollector::new()),
            std::sync::Arc::new(MetricsRegistry::new()),
        )
    });
    let obs = match &trace {
        Some((collector, registry)) => Obs::collecting(collector.clone(), registry.clone()),
        None => Obs::disabled(),
    };
    let report = faultlab::run_campaign_for(&cfg, &classes, &obs).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());
    if let (Some(path), Some((collector, registry))) = (trace_out, trace) {
        write_trace(&path, &collector.sorted_records(), &registry.snapshot())?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant violations", report.total_violations()).into())
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    use daspos::serve::{Chaos, Quota, ServeConfig, Server, Service};
    use std::sync::Arc;

    if args.iter().any(|a| a == "--selftest") {
        eprintln!("serve selftest: in-process server + concurrent loadgen burst…");
        let text = daspos::serve::selftest().map_err(|e| CliError::Failure(e.to_string()))?;
        print!("{text}");
        println!("serve selftest PASSED — campaign clean, shutdown drained");
        return Ok(());
    }

    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mut builder = ServeConfig::builder();
    if let Some(m) = flag(args, "--max-inflight") {
        builder = builder.max_inflight(m.parse().map_err(|_| "bad --max-inflight")?);
    }
    if let Some(p) = flag(args, "--pool") {
        builder = builder.pool_size(p.parse().map_err(|_| "bad --pool")?);
    }
    if let Some(s) = flag(args, "--streams") {
        builder = builder.max_streams(s.parse().map_err(|_| "bad --streams")?);
    }
    if let Some(ms) = flag(args, "--scrub-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --scrub-ms")?;
        builder = builder.scrub_interval(std::time::Duration::from_millis(ms));
    }
    if let Some(q) = flag(args, "--default-quota") {
        let quota = Quota::parse(&q).ok_or_else(|| {
            CliError::usage(format!("bad --default-quota '{q}' (want BYTES:INFLIGHT:OPS)"))
        })?;
        builder = builder.default_quota(quota);
    }
    if let Some(list) = flag(args, "--quota") {
        // --quota tenant=BYTES:INFLIGHT:OPS[,tenant=…] — per-tenant
        // overrides on top of the default quota.
        for entry in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (tenant, spec) = entry.split_once('=').ok_or_else(|| {
                CliError::usage(format!(
                    "bad --quota entry '{entry}' (want tenant=BYTES:INFLIGHT:OPS)"
                ))
            })?;
            let quota = Quota::parse(spec).ok_or_else(|| {
                CliError::usage(format!(
                    "bad --quota entry '{entry}' (want tenant=BYTES:INFLIGHT:OPS)"
                ))
            })?;
            builder = builder.quota(tenant, quota);
        }
    }
    if let Some(name) = flag(args, "--chaos") {
        // Test hook: inject server-side faults so loadgen's deep
        // verification can be proven to catch them.
        builder = builder.chaos(Chaos::parse(&name).ok_or_else(|| {
            CliError::usage(format!("unknown chaos mode '{name}' (flip-get)"))
        })?);
    }
    let cfg = builder.build().map_err(|e| CliError::usage(e.to_string()))?;

    // The vault behind the service: a directory store when --store is
    // given (objects survive restarts), else in-memory backends.
    // --replicas / --erasure pick the redundancy either way.
    let requested = redundancy_flags(args)?;
    let vault = match flag(args, "--store") {
        Some(store) => {
            let create = Some(requested.unwrap_or(Redundancy::Replicas(3)));
            open_vault(&store, requested, create, Obs::disabled())?
        }
        None => {
            use daspos::vault::{MemoryBackend, Vault};
            let redundancy = requested.unwrap_or(Redundancy::Replicas(2));
            let n = match redundancy {
                Redundancy::Replicas(n) => n,
                Redundancy::Erasure { k, m } => k + m,
            };
            Vault::builder()
                .backends(
                    (0..n)
                        .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
                        .collect(),
                )
                .redundancy(redundancy)
                .build()
                .map_err(|e| e.to_string())?
        }
    };

    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let scrub = cfg.scrub_interval();
    let service = Arc::new(Service::new(
        vault,
        &cfg,
        Obs::metrics_only(registry.clone()),
    ));
    let server = Server::start(service.clone(), &addr, scrub)
        .map_err(|e| CliError::Failure(e.to_string()))?;
    println!("serving on {}", server.addr());
    eprintln!(
        "  max in-flight {}, {} worker(s), scrub every {:?}; stop with \
         'daspos loadgen --addr {} --shutdown'",
        cfg.max_inflight(),
        cfg.pool_size(),
        scrub,
        server.addr()
    );
    server.join();
    let stats = service.stats();
    let snapshot = registry.snapshot();
    println!(
        "drained: {} op(s) served, {} rejected (backpressure), \
         {} scrub step(s) ({} yield(s) to traffic)",
        stats.ops(),
        stats.rejected(),
        stats.scrub_steps(),
        stats.scrub_yields()
    );
    if !snapshot.counters.is_empty() {
        print!("{}", snapshot.to_text());
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> CliResult {
    use daspos::serve::{loadgen, LoadgenConfig, MixWeights, ServeClient};

    let addr = flag(args, "--addr").ok_or("loadgen needs --addr <host:port>")?;
    let mut cfg = LoadgenConfig {
        addr: addr.clone(),
        ..LoadgenConfig::default()
    };
    if let Some(c) = flag(args, "--clients") {
        cfg.clients = c.parse().map_err(|_| "bad --clients")?;
        if cfg.clients == 0 {
            return Err(CliError::usage("--clients must be at least 1"));
        }
    }
    if let Some(o) = flag(args, "--ops") {
        cfg.ops_per_client = o.parse().map_err(|_| "bad --ops")?;
    }
    if let Some(t) = flag(args, "--tenants") {
        cfg.tenants = t.parse().map_err(|_| "bad --tenants")?;
        if cfg.tenants == 0 {
            return Err(CliError::usage("--tenants must be at least 1"));
        }
    }
    if let Some(s) = flag(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(p) = flag(args, "--payload-bytes") {
        cfg.payload_bytes = p.parse().map_err(|_| "bad --payload-bytes")?;
    }
    if let Some(m) = flag(args, "--mix") {
        cfg.mix = MixWeights::parse(&m).ok_or_else(|| {
            CliError::usage(format!(
                "bad --mix '{m}' (want put:get:verify:scrub, e.g. 6:6:2:1)"
            ))
        })?;
    }
    if let Some(ms) = flag(args, "--timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --timeout-ms")?;
        cfg.op_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(n) = flag(args, "--large-every") {
        // Every n-th PUT streams a large object through the chunked
        // protocol instead of a single frame (0 disables).
        cfg.large_every = n.parse().map_err(|_| "bad --large-every")?;
    }
    if let Some(b) = flag(args, "--large-bytes") {
        cfg.large_payload_bytes = b.parse().map_err(|_| "bad --large-bytes")?;
        if cfg.large_payload_bytes == 0 {
            return Err(CliError::usage("--large-bytes must be at least 1"));
        }
    }
    if let Some(c) = flag(args, "--chunk-bytes") {
        cfg.chunk_bytes = c.parse().map_err(|_| "bad --chunk-bytes")?;
        if cfg.chunk_bytes == 0 {
            return Err(CliError::usage("--chunk-bytes must be at least 1"));
        }
    }

    eprintln!(
        "loadgen: {} client(s) x {} op(s) over {} tenant(s) against {addr} (seed {})…",
        cfg.clients, cfg.ops_per_client, cfg.tenants, cfg.seed
    );
    let report = loadgen::run(&cfg);
    print!("{}", report.to_text());
    if args.iter().any(|a| a == "--shutdown") {
        let mut client = ServeClient::builder("loadgen")
            .connect(&addr)
            .map_err(|e| format!("shutdown connect: {e}"))?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown request: {e}"))?;
        println!("server asked to drain and exit");
    }
    if report.ok() {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "loadgen campaign FAILED: {} failure(s)",
            report.failure_count
        )))
    }
}

fn cmd_vault(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("put") => vault_put(&args[1..]),
        Some("get") => vault_get(&args[1..]),
        Some("scrub") => vault_scan(&args[1..], true),
        Some("verify") => vault_scan(&args[1..], false),
        _ => Err(CliError::usage(
            "vault wants a subcommand: put | get | scrub | verify (try 'daspos help')",
        )),
    }
}

/// Parse `vault.meta`: `erasure k=<k> m=<m> backends=<n>`.
fn parse_vault_meta(text: &str) -> Option<(usize, usize, usize)> {
    let mut words = text.split_whitespace();
    if words.next()? != "erasure" {
        return None;
    }
    let (mut k, mut m, mut n) = (None, None, None);
    for word in words {
        let (name, value) = word.split_once('=')?;
        let value: usize = value.parse().ok()?;
        match name {
            "k" => k = Some(value),
            "m" => m = Some(value),
            "backends" => n = Some(value),
            _ => return None,
        }
    }
    match (k?, m?, n?) {
        (k, m, n) if k >= 1 && m >= 1 && n >= k + m => Some((k, m, n)),
        _ => None,
    }
}

/// Open (or create) the vault under `store`.
///
/// Two on-disk layouts exist: a replicated store is bare `replica-K`
/// subdirectories (one full copy each, the original layout); an erasure
/// store is a `vault.meta` geometry record plus `shard-K` subdirectories
/// (one `DPVS` shard per stripe each). `requested` is what the user's
/// flags asked for — opening an existing store with conflicting flags is
/// a usage error. `create` is the redundancy a fresh store is
/// initialised with (`None` refuses to create one).
fn open_vault(
    store: &str,
    requested: Option<Redundancy>,
    create: Option<Redundancy>,
    obs: Obs,
) -> Result<daspos::vault::Vault, CliError> {
    use daspos::vault::{DirBackend, Vault};
    use std::sync::Arc;
    let root = std::path::Path::new(store);
    let meta_path = root.join("vault.meta");

    // What the store already is, if anything.
    let existing: Option<(Redundancy, Vec<std::path::PathBuf>)> = if meta_path.is_file() {
        let text = std::fs::read_to_string(&meta_path)
            .map_err(|e| format!("cannot read '{}': {e}", meta_path.display()))?;
        let (k, m, n) = parse_vault_meta(&text).ok_or_else(|| {
            CliError::Failure(format!(
                "malformed vault.meta in '{store}' (want 'erasure k=K m=M backends=N')"
            ))
        })?;
        let dirs = (0..n).map(|i| root.join(format!("shard-{i}"))).collect();
        Some((Redundancy::Erasure { k, m }, dirs))
    } else {
        let mut replicas: Vec<std::path::PathBuf> = Vec::new();
        if root.is_dir() {
            let entries = std::fs::read_dir(root)
                .map_err(|e| format!("cannot read store '{store}': {e}"))?;
            for entry in entries.flatten() {
                let path = entry.path();
                let is_replica =
                    path.is_dir() && entry.file_name().to_string_lossy().starts_with("replica-");
                if is_replica {
                    replicas.push(path);
                }
            }
            replicas.sort();
        }
        if replicas.is_empty() {
            None
        } else {
            Some((Redundancy::Replicas(replicas.len()), replicas))
        }
    };

    let (redundancy, dirs) = match (existing, create) {
        (Some((layout, dirs)), _) => {
            if let Some(req) = requested {
                if req != layout {
                    return Err(CliError::usage(format!(
                        "'{store}' is already a {layout} vault — open it with matching \
                         flags (or none), or pick a fresh --store"
                    )));
                }
            }
            (layout, dirs)
        }
        (None, Some(Redundancy::Replicas(n))) => (
            Redundancy::Replicas(n),
            (0..n).map(|i| root.join(format!("replica-{i}"))).collect(),
        ),
        (None, Some(Redundancy::Erasure { k, m })) => {
            let n = k + m;
            std::fs::create_dir_all(root)
                .map_err(|e| format!("cannot create store '{store}': {e}"))?;
            std::fs::write(&meta_path, format!("erasure k={k} m={m} backends={n}\n"))
                .map_err(|e| format!("cannot write '{}': {e}", meta_path.display()))?;
            (
                Redundancy::Erasure { k, m },
                (0..n).map(|i| root.join(format!("shard-{i}"))).collect(),
            )
        }
        (None, None) => {
            return Err(CliError::Failure(format!(
                "'{store}' is not a vault store (no replica-* directories or vault.meta)"
            )))
        }
    };

    Vault::builder()
        .verifier(Arc::new(daspos::archive::ContainerVerifier))
        .with_obs(obs)
        .backends(
            dirs.iter()
                .map(|path| Arc::new(DirBackend::new(path)) as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(redundancy)
        .build()
        .map_err(|e| CliError::Failure(e.to_string()))
}

fn vault_put(args: &[String]) -> CliResult {
    use daspos::vault::ObjectKind;
    let file = positional(args).ok_or("vault put needs a file")?;
    let store = flag(args, "--store").ok_or("vault put needs --store <dir>")?;
    let requested = redundancy_flags(args)?;
    let key = match flag(args, "--key") {
        Some(k) => k,
        None => std::path::Path::new(&file)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .ok_or("cannot derive a key from the file name; pass --key")?,
    };
    let payload =
        Bytes::from(std::fs::read(&file).map_err(|e| format!("cannot read '{file}': {e}"))?);
    let kind = match flag(args, "--kind") {
        Some(name) => ObjectKind::parse(&name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown kind '{name}' (one of: opaque, sealed-tier, container, \
                 conditions, columnar-aod)"
            ))
        })?,
        None => ObjectKind::sniff(&payload),
    };
    let create = Some(requested.unwrap_or(Redundancy::Replicas(3)));
    let vault = open_vault(&store, requested, create, Obs::disabled())?;
    vault.put(&key, kind, &payload).map_err(|e| e.to_string())?;
    match vault.redundancy() {
        Redundancy::Replicas(_) => println!(
            "stored '{key}' ({kind}, {} bytes) on {} replicas under {store}",
            payload.len(),
            vault.replica_count()
        ),
        Redundancy::Erasure { k, m } => println!(
            "striped '{key}' ({kind}, {} bytes) as {k}+{m} shards over {} backends under {store}",
            payload.len(),
            vault.replica_count()
        ),
    }
    Ok(())
}

fn vault_get(args: &[String]) -> CliResult {
    let key = positional(args).ok_or("vault get needs a key")?;
    let store = flag(args, "--store").ok_or("vault get needs --store <dir>")?;
    let out = flag(args, "--out").ok_or("vault get needs --out <file>")?;
    let vault = open_vault(&store, None, None, Obs::disabled())?;
    let (kind, payload) = vault.get(&key).map_err(|e| e.to_string())?;
    std::fs::write(&out, &payload).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "recovered '{key}' ({kind}, {} bytes) to {out}",
        payload.len()
    );
    Ok(())
}

fn vault_scan(args: &[String], repair: bool) -> CliResult {
    use daspos::faultlab::{self, ArtifactClass, CampaignConfig};
    if args.iter().any(|a| a == "--selftest") {
        if !repair {
            return Err(CliError::usage("--selftest only applies to 'vault scrub'"));
        }
        // --erasure k,m drills the sharded vault (the vault-shard fault
        // class); with no redundancy flag the drill is the original
        // single-replica-corruption campaign.
        let class = match redundancy_flags(args)? {
            None => ArtifactClass::VaultReplica,
            Some(Redundancy::Erasure {
                k: faultlab::SHARD_K,
                m: faultlab::SHARD_M,
            }) => ArtifactClass::VaultShard,
            Some(other) => {
                return Err(CliError::usage(format!(
                    "the scrub drill supports --erasure {},{} (the fixture geometry) \
                     or no redundancy flag, not '{other}'",
                    faultlab::SHARD_K,
                    faultlab::SHARD_M
                )))
            }
        };
        let mut cfg = CampaignConfig::default();
        if let Some(seed) = flag(args, "--seed") {
            cfg.master_seed = seed.parse().map_err(|_| "bad --seed")?;
        }
        if let Some(m) = flag(args, "--mutations") {
            cfg.mutations_per_class = m.parse().map_err(|_| "bad --mutations")?;
        }
        if let Some(e) = flag(args, "--events") {
            cfg.events = e.parse().map_err(|_| "bad --events")?;
        }
        match class {
            ArtifactClass::VaultShard => eprintln!(
                "vault scrub drill: {} seeded shard-stripe mutations over a {}+{} \
                 erasure vault (seed {})…",
                cfg.mutations_per_class,
                faultlab::SHARD_K,
                faultlab::SHARD_M,
                cfg.master_seed
            ),
            _ => eprintln!(
                "vault scrub drill: {} seeded single-replica mutations (seed {})…",
                cfg.mutations_per_class, cfg.master_seed
            ),
        }
        let report = faultlab::run_campaign_for(&cfg, &[class], &Obs::disabled())
            .map_err(|e| e.to_string())?;
        print!("{}", report.to_text());
        return if report.passed() {
            println!("vault scrub drill PASSED — every mutation detected and repaired");
            Ok(())
        } else {
            Err(CliError::Failure(format!(
                "{} mutation(s) survived unrepaired",
                report.total_violations()
            )))
        };
    }

    let store = flag(args, "--store").ok_or("vault scrub/verify needs --store <dir>")?;
    let threads: usize = flag(args, "--threads")
        .unwrap_or_else(|| "1".to_string())
        .parse()
        .map_err(|_| "bad --threads")?;
    if threads == 0 {
        return Err(CliError::usage("--threads must be at least 1"));
    }
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let vault = open_vault(&store, None, None, Obs::metrics_only(registry.clone()))?;
    let report = vault.scan(repair, threads).map_err(|e| e.to_string())?;
    println!("{}", report.to_text());
    let snapshot = registry.snapshot();
    println!(
        "counters: checked {} corrupt {} repaired {} rebuilt {} unrecoverable {} \
         backend-retries {}",
        snapshot.counter("vault.scrub.checked"),
        snapshot.counter("vault.scrub.corrupt"),
        snapshot.counter("vault.scrub.repaired"),
        snapshot.counter("vault.scrub.rebuilt"),
        snapshot.counter("vault.scrub.unrecoverable"),
        snapshot.counter("vault.backend.retries"),
    );
    if report.clean() {
        Ok(())
    } else {
        Err(CliError::Failure(if repair {
            "corruption remains unrepaired".to_string()
        } else {
            "vault has unrepaired damage (run 'vault scrub' to repair)".to_string()
        }))
    }
}

fn cmd_maturity() -> CliResult {
    use daspos_metadata::maturity::MaturityReport;
    use daspos_metadata::presets::interview_for;
    use daspos_metadata::sharing::PolicyStatus;
    println!(
        "{:>8} {:>10} {:>12} {:>13} {:>8}  policy",
        "expt", "data-mgmt", "description", "preservation", "sharing"
    );
    for name in ["alice", "atlas", "cms", "lhcb"] {
        let policy = PolicyStatus::report_2014(name);
        let r = MaturityReport::assess(&interview_for(name), policy);
        println!(
            "{name:>8} {:>10} {:>12} {:>13} {:>8}  {}",
            r.data_management.to_string(),
            r.description.to_string(),
            r.preservation.to_string(),
            r.sharing.to_string(),
            policy.describe()
        );
    }
    Ok(())
}
