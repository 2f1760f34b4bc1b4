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
//! daspos experiment t1
//! daspos experiment all
//! ```
//!
//! Each command, `vault` subcommand and `--selftest` mode has one flag
//! table in [`COMMANDS`]. One parser checks every invocation against its
//! table, and `daspos help` is printed from the tables.
//!
//! Exit codes are uniform across subcommands: 0 on success, 1 when a
//! validation / integrity / campaign check fails, 2 on usage errors
//! (unknown command, missing or malformed arguments, a flag the table
//! does not list, a flag given twice or without its value).

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use daspos::faultlab::{ArtifactClass, CampaignConfig};
use daspos::prelude::*;
use daspos::serve::{Chaos, LoadgenConfig, MixWeights, Quota, ServeConfig};
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

/// `format!`-built runtime messages are failures.
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failure(msg)
    }
}

type CliResult = Result<(), CliError>;

/// One row of a command's flag table.
struct Flag {
    name: &'static str,
    /// The value's metavar; `None` for a switch.
    value: Option<&'static str>,
    /// One line of help; for a retired flag, why it was removed.
    help: &'static str,
    /// Naming a retired flag exits 2 with its `help`.
    retired: bool,
}

const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), help, retired: false }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help, retired: false }
}

const fn retired(name: &'static str, why: &'static str) -> Flag {
    Flag { name, value: None, help: why, retired: true }
}

const fn cmd(usage: &'static str, run: Run, flags: Flags, about: &'static str) -> Command {
    Command { usage, about, flags, run }
}

/// A command, a `vault` subcommand or a `--selftest` mode.
struct Command {
    /// The command words, then the switch that selects this table
    /// wherever it stands (`--selftest`), then one `<metavar>` per
    /// positional argument, each required.
    usage: &'static str,
    about: &'static str,
    flags: Flags,
    run: Run,
}

/// A command's table: its flags, in groups some commands share.
type Flags = &'static [&'static [Flag]];
type Run = fn(&Args) -> CliResult;

impl Command {
    /// The words that name the command in messages, e.g. `vault put`.
    fn name(&self) -> &'static str {
        self.usage.split(" <").next().unwrap_or(self.usage)
    }

    fn words(&self) -> impl Iterator<Item = &'static str> {
        self.usage.split(' ')
    }

    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn matches(&self, argv: &[String]) -> bool {
        let mut leading = argv.iter();
        self.words().all(|word| {
            if word.starts_with("--") {
                argv.iter().any(|a| a == word)
            } else {
                word.starts_with('<') || leading.next().is_some_and(|a| a == word)
            }
        })
    }
}

/// The chain `produce` and `trace` run, beside each one's `--experiment`.
const WORKFLOW: &[Flag] = &[
    opt("--process", "<name>", "process to generate (default z-boson)"),
    opt("--events", "<N>", "events to generate (default 200)"),
    opt("--seed", "<N>", "generator seed (default 2013)"),
    opt("--threads", "<N>", "workers; 1 is the sequential engine (default one per core)"),
];

/// The campaign shape `faultlab` and `vault scrub --selftest` share.
const CAMPAIGN: &[Flag] = &[
    opt("--seed", "<N>", "master seed (default 20130908)"),
    opt("--mutations", "<N>", "mutations per artifact class (default 100)"),
    opt("--events", "<N>", "events in the fixture chain (default 10)"),
];

/// How a vault spreads each object; the two are mutually exclusive.
const REDUNDANCY: &[Flag] = &[
    opt("--replicas", "<N>", "keep N full copies"),
    opt("--erasure", "<k,m>", "stripe k+m shards, any m may die (k, m >= 1, k+m <= 255)"),
];

const STORE: &[Flag] = &[opt("--store", "<dir>", "the vault (required)")];
const SWEEP: &[Flag] = &[opt("--threads", "<N>", "workers for the sweep (default 1)")];

/// Every command in the order `daspos help` lists them.
static COMMANDS: &[Command] = &[
    cmd("produce", cmd_produce, &[
        &[opt("--experiment", "<name>", "alice, atlas, cms or lhcb (required)")],
        WORKFLOW,
        &[opt("--trace-out", "<file.jsonl>", "also write a deterministic trace")],
        &[opt("--out", "<file.dpar>", "the archive to write (required)")],
    ], "run the full chain and package a preservation archive"),
    cmd("inspect <file.dpar>", cmd_inspect, &[],
        "list sections, the workflow and the use cases the archive serves"),
    cmd("validate <file.dpar>", cmd_validate, &[&[
        opt("--platform", "<name>", "platform to run on (default this one)"),
    ]], "re-execute the archive and compare bit-for-bit"),
    cmd("migrate <file.dpar>", cmd_migrate, &[&[
        opt("--out", "<file.dpar>", "the migrated archive (required)"),
        opt("--platform", "<name>", "target platform (default the successor)"),
    ]], "rebuild the archived software stack for another platform, revalidated"),
    cmd("trace", cmd_trace, &[
        &[opt("--experiment", "<name>", "alice, atlas, cms or lhcb (default cms)")],
        WORKFLOW,
        &[opt("--tier-format", "<row|columnar>", "AOD and skim tier layout (default row)")],
        &[opt("--out", "<file.jsonl>", "the trace (default trace.jsonl)")],
    ], "run the chain with spans and counters on; write a byte-stable JSONL trace"),
    cmd("faultlab", cmd_faultlab, &[CAMPAIGN, &[
        opt("--classes", "<a,b,...>", "attack only these classes, each named once"),
        opt("--replay", "<class>:<index>", "re-run one mutation by its coordinates"),
        opt("--trace-out", "<file.jsonl>", "also write a deterministic trace"),
    ]], "inject seeded mutations into every artifact class: each detected or harmless"),
    cmd("vault put <file>", vault_put, &[STORE, REDUNDANCY, &[
        opt("--key", "<name>", "object key (default the file name)"),
        opt("--kind", "<kind>", "opaque, sealed-tier, container, conditions or columnar-aod"),
    ]], "copy a file into a vault, 3 replicas unless told; a store keeps its layout"),
    cmd("vault get <key>", vault_get, &[STORE, &[
        opt("--out", "<file>", "where to write the object (required)"),
    ]], "checksum-verified read, healing damaged copies in passing"),
    cmd("vault scrub", |args| vault_scan(args, true), &[STORE, SWEEP],
        "verify every copy and shard and repair; exit 1 if damage remains"),
    cmd("vault scrub --selftest", vault_drill, &[CAMPAIGN, &[
        opt("--erasure", "<4,2>", "drill the sharded vault instead of replicas"),
    ]], "drill: each seeded corruption of a scratch vault must be repaired or reported"),
    cmd("vault verify", |args| vault_scan(args, false), &[STORE, SWEEP],
        "like scrub but read-only: report damage without repairing"),
    cmd("serve", cmd_serve, &[&[
        opt("--addr", "<host:port>", "where to listen (default 127.0.0.1:0)"),
        opt("--store", "<dir>", "a directory vault (default in memory)"),
    ], REDUNDANCY, &[
        opt("--max-inflight", "<N>", "concurrent ops before 'overloaded' (default 64)"),
        opt("--streams", "<N>", "open chunked uploads before 'overloaded' (default 32)"),
        opt("--scrub-ms", "<N>", "background scrub cadence, 0 disables (default 20)"),
        opt("--default-quota", "<B:I:O>", "bytes:inflight:ops-per-sec, 0 = unlimited"),
        opt("--quota", "<tenant=B:I:O,...>", "per-tenant quota overrides"),
        opt("--chaos", "<flip-get>", "test hook: corrupt every GET answer"),
        retired("--pool", "--pool was removed: the server runs one thread per connection"),
    ]], "serve a vault to many tenants, one thread per connection, until told to stop"),
    cmd("serve --selftest", cmd_serve_selftest, &[],
        "in-process server, loadgen burst, 64 MiB stream and quota rejection"),
    cmd("loadgen", cmd_loadgen, &[&[
        opt("--addr", "<host:port>", "the server (required)"),
        opt("--clients", "<N>", "concurrent clients (default 8)"),
        opt("--ops", "<N>", "ops per client (default 32)"),
        opt("--tenants", "<N>", "tenant namespaces (default 4)"),
        opt("--seed", "<N>", "campaign seed (default 2013)"),
        opt("--payload-bytes", "<N>", "bytes per put (default 256)"),
        opt("--mix", "<p:g:v:s>", "put:get:verify:scrub weights (default 6:6:2:1)"),
        opt("--timeout-ms", "<N>", "per-response timeout (default 10000)"),
        opt("--large-every", "<N>", "stream every Nth put, 0 disables (default 0)"),
        opt("--large-bytes", "<N>", "bytes per streamed put (default 262144)"),
        opt("--chunk-bytes", "<N>", "stream chunk size (default 65536)"),
        switch("--shutdown", "ask the server to drain and exit afterwards"),
    ]], "drive a running serve with clients that deep-verify every GET"),
    cmd("experiment <id|all>", cmd_experiment, &[],
        "print one paper experiment's report (EXPERIMENTS.md lists the ids) or all"),
    cmd("help", cmd_help, &[], "print this help"),
];

/// A command's arguments, checked against its table.
struct Args {
    cmd: &'static Command,
    positional: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

/// Find the command `argv` names and check its arguments against the
/// command's table. Nothing runs.
fn parse(argv: &[String]) -> Result<Args, CliError> {
    let cmd = COMMANDS
        .iter()
        .filter(|c| c.matches(argv))
        .max_by_key(|c| c.usage.contains(" --"))
        .ok_or_else(|| unknown_command(&argv[0]))?;
    let name = cmd.name();
    let refuse = |what: String| CliError::usage(format!("{name}: {what} (try 'daspos help')"));
    let lead = cmd.words().take_while(|w| !w.starts_with(['-', '<'])).count();
    let wanted: Vec<&str> = cmd.words().filter(|w| w.starts_with('<')).collect();
    let mut args = Args { cmd, positional: Vec::new(), given: Vec::new() };
    let mut rest = argv[lead..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if args.positional.len() == wanted.len() {
                return Err(refuse(format!("unexpected argument '{arg}'")));
            }
            args.positional.push(arg.clone());
            continue;
        }
        if args.given.iter().any(|(name, _)| name == arg) {
            return Err(refuse(format!("{arg} is given twice")));
        }
        // The switch that selected this table.
        if let Some(mode) = cmd.words().find(|w| w == arg) {
            args.given.push((mode, None));
            continue;
        }
        let flag = cmd.flags().find(|f| f.name == arg);
        let flag = flag.ok_or_else(|| refuse(format!("unknown flag {arg}")))?;
        if flag.retired {
            return Err(CliError::usage(flag.help));
        }
        let value = match flag.value {
            Some(metavar) => match rest.next() {
                Some(value) if !value.starts_with("--") => Some(value.clone()),
                _ => return Err(refuse(format!("{arg} needs a value {metavar}"))),
            },
            None => None,
        };
        args.given.push((flag.name, value));
    }
    match wanted.get(args.positional.len()) {
        Some(missing) => Err(refuse(format!("missing {missing}"))),
        None => Ok(args),
    }
}

fn unknown_command(word: &str) -> CliError {
    let mut subcommands: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.usage.strip_prefix(word)?.strip_prefix(' ')?.split(' ').next())
        .collect();
    subcommands.dedup();
    CliError::usage(if subcommands.is_empty() {
        format!("unknown command '{word}' (try 'daspos help')")
    } else {
        format!("{word} wants a subcommand: {} (try 'daspos help')", subcommands.join(" | "))
    })
}

impl Args {
    /// The table row of `name`; asking for a flag outside the table is a
    /// bug in the command, not in the invocation.
    fn row(&self, name: &str) -> &'static Flag {
        let row = self.cmd.flags().find(|f| f.name == name);
        row.unwrap_or_else(|| panic!("{name} is not in the {} table", self.cmd.name()))
    }

    fn has(&self, name: &str) -> bool {
        self.row(name);
        self.given.iter().any(|(given, _)| *given == name)
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.row(name);
        let given = self.given.iter().find(|(given, _)| *given == name);
        given.and_then(|(_, value)| value.as_deref())
    }

    /// The value of a flag the command cannot run without.
    fn need(&self, name: &str) -> Result<&str, CliError> {
        self.str(name).ok_or_else(|| {
            let metavar = self.row(name).value.unwrap_or_default();
            CliError::usage(format!("{} needs {name} {metavar}", self.cmd.name()))
        })
    }

    /// The value given for `name`, read by `parse`; a value it refuses is
    /// a usage error that names the flag and its metavar.
    fn value<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, CliError> {
        let Some(text) = self.str(name) else {
            return Ok(None);
        };
        let metavar = self.row(name).value.unwrap_or_default();
        let bad = || CliError::usage(format!("bad {name} '{text}' (want {metavar})"));
        parse(text).map(Some).ok_or_else(bad)
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name, |text| text.parse().ok())
    }

    /// A count that must be at least 1 when it is given.
    fn count(&self, name: &str) -> Result<Option<usize>, CliError> {
        match self.get(name)? {
            Some(0) => Err(CliError::usage(format!("{name} must be at least 1"))),
            count => Ok(count),
        }
    }
}

/// `daspos help`, printed from the tables.
fn help() -> String {
    let mut text = "daspos — data and software preservation toolkit\n\nUSAGE:\n".to_string();
    for cmd in COMMANDS {
        text += &format!("  daspos {}\n        {}\n", cmd.usage, cmd.about);
        for flag in cmd.flags().filter(|f| !f.retired) {
            let name = format!("{} {}", flag.name, flag.value.unwrap_or_default());
            text += &format!("      {name:<30} {}\n", flag.help);
        }
    }
    text + "\nExit codes: 0 success, 1 a failed check, 2 a usage error. A flag the command\n\
            does not list, a flag given twice or without its value, and an argument the\n\
            command does not take are usage errors.\n"
}

fn cmd_help(_: &Args) -> CliResult {
    print!("{}", help());
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None => argv.push("help".to_string()),
        Some("--help") => argv[0] = "help".to_string(),
        Some(_) => {}
    }
    match parse(&argv).and_then(|args| (args.cmd.run)(&args)) {
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

fn campaign_config(args: &Args) -> Result<CampaignConfig, CliError> {
    let default = CampaignConfig::default();
    Ok(CampaignConfig {
        master_seed: args.get("--seed")?.unwrap_or(default.master_seed),
        mutations_per_class: args.get("--mutations")?.unwrap_or(default.mutations_per_class),
        events: args.get("--events")?.unwrap_or(default.events),
    })
}

/// `--erasure k,m` with k, m >= 1 and k+m <= 255.
fn erasure(spec: &str) -> Option<Redundancy> {
    let (k, m) = spec.split_once(',')?;
    let (k, m): (usize, usize) = (k.trim().parse().ok()?, m.trim().parse().ok()?);
    (k >= 1 && m >= 1 && k + m <= 255).then_some(Redundancy::Erasure { k, m })
}

/// The mutually exclusive pair `--replicas N` / `--erasure k,m`; `None`
/// when neither is given (the caller picks its default).
fn redundancy(args: &Args) -> Result<Option<Redundancy>, CliError> {
    let replicas = args.count("--replicas")?.map(Redundancy::Replicas);
    let erasure = args.value("--erasure", erasure)?;
    if replicas.is_some() && erasure.is_some() {
        return Err(CliError::usage(
            "--replicas and --erasure are mutually exclusive: a vault is either \
             fully replicated or striped k+m, not both (try 'daspos help')",
        ));
    }
    Ok(replicas.or(erasure))
}

/// The chain `produce` and `trace` run and the engine that runs it;
/// `experiment` is the default when `--experiment` is optional.
fn workflow(
    args: &Args,
    experiment: Option<&str>,
) -> Result<(PreservedWorkflow, ExecOptions), CliError> {
    let name = match experiment {
        Some(default) => args.str("--experiment").unwrap_or(default),
        None => args.need("--experiment")?,
    };
    let experiment = Experiment::all()
        .into_iter()
        .find(|e| e.name() == name)
        .ok_or_else(|| CliError::usage(format!("unknown experiment '{name}'")))?;
    let seed = args.get("--seed")?.unwrap_or(2013);
    let n_events = args.get("--events")?.unwrap_or(200);
    let process = args.value("--process", |name| {
        ProcessKind::all().iter().copied().find(|p| p.name() == name)
    })?;
    let mut workflow = match process.unwrap_or(ProcessKind::ZBoson) {
        ProcessKind::Charm => PreservedWorkflow::standard_charm(seed, n_events),
        process => PreservedWorkflow {
            process,
            ..PreservedWorkflow::standard_z(experiment, seed, n_events)
        },
    };
    workflow.experiment = experiment;
    let mut opts = ExecOptions::new();
    if let Some(threads) = args.get("--threads")? {
        opts = opts.threads(threads);
    }
    Ok((workflow, opts))
}

fn load_archive(path: &str) -> Result<PreservationArchive, String> {
    let raw = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    PreservationArchive::from_bytes(&Bytes::from(raw)).map_err(|e| e.to_string())
}

fn cmd_produce(args: &Args) -> CliResult {
    let (workflow, mut opts) = workflow(args, None)?;
    let out = args.need("--out")?;
    let trace = trace_out(args);
    if let Some((_, collector, registry)) = &trace {
        opts = opts.with_obs(Obs::collecting(collector.clone(), registry.clone()));
    }

    let (experiment, seed) = (workflow.experiment, workflow.seed);
    eprintln!(
        "producing {} {} events on {} (seed {seed}, {} threads)…",
        workflow.n_events,
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
    std::fs::write(out, archive.to_bytes()).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "archive '{name}' written to {out} ({} bytes, {} sections)",
        archive.byte_size(),
        archive.sections.len()
    );
    if let Some((path, collector, registry)) = trace {
        write_trace(path, &collector.sorted_records(), &registry.snapshot())?;
    }
    Ok(())
}

/// `--trace-out`: where to write the run's trace, and the collector and
/// registry that record it.
fn trace_out(args: &Args) -> Option<(&str, Arc<MemoryCollector>, Arc<MetricsRegistry>)> {
    let path = args.str("--trace-out")?;
    Some((path, Arc::new(MemoryCollector::new()), Arc::new(MetricsRegistry::new())))
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

fn cmd_trace(args: &Args) -> CliResult {
    let (workflow, opts) = workflow(args, Some("cms"))?;
    let out = args.str("--out").unwrap_or("trace.jsonl");
    let collector = Arc::new(MemoryCollector::new());
    let registry = Arc::new(MetricsRegistry::new());
    let mut opts = opts.with_obs(Obs::collecting(collector.clone(), registry.clone()));
    if let Some(format) = args.value("--tier-format", daspos_tiers::TierFormat::parse)? {
        opts = opts.tier_format(format);
    }

    eprintln!(
        "tracing {} {} events on {} (seed {}, {} threads)…",
        workflow.n_events,
        workflow.process.name(),
        workflow.experiment.name(),
        workflow.seed,
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
    write_trace(out, &records, &snapshot)?;
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    let archive = load_archive(&args.positional[0])?;
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

fn cmd_validate(args: &Args) -> CliResult {
    let platform = args.str("--platform").map_or_else(Platform::current, |p| Platform(p.into()));
    let archive = load_archive(&args.positional[0])?;
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

fn cmd_migrate(args: &Args) -> CliResult {
    let out = args.need("--out")?;
    let mut archive = load_archive(&args.positional[0])?;
    let target = args.str("--platform").map_or_else(Platform::successor, |p| Platform(p.into()));
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
    std::fs::write(out, archive.to_bytes()).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "migrated '{}' to {target}; revalidated bit-exactly; written to {out}",
        archive.name
    );
    Ok(())
}

/// `--classes`: a comma-separated subset, each class named once; every
/// class when the flag is absent.
fn faultlab_classes(args: &Args) -> Result<Vec<ArtifactClass>, CliError> {
    let Some(spec) = args.str("--classes") else {
        return Ok(ArtifactClass::all().to_vec());
    };
    let mut parsed: Vec<ArtifactClass> = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let class = ArtifactClass::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown class '{name}' (one of: {})",
                ArtifactClass::all().map(|c| c.name()).join(", ")
            ))
        })?;
        if parsed.contains(&class) {
            return Err(CliError::usage(format!("--classes names '{name}' twice")));
        }
        parsed.push(class);
    }
    if parsed.is_empty() {
        return Err(CliError::usage("--classes wants at least one class name"));
    }
    Ok(parsed)
}

fn cmd_faultlab(args: &Args) -> CliResult {
    use daspos::faultlab::{self, Outcome};
    let cfg = campaign_config(args)?;
    let classes = faultlab_classes(args)?;
    let replay = args.value("--replay", |coords| {
        let (class, index) = coords.split_once(':')?;
        Some((ArtifactClass::parse(class)?, index.parse::<u32>().ok()?))
    })?;

    if let Some((class, index)) = replay {
        let (mutation, outcome) =
            faultlab::replay(&cfg, class, index).map_err(|e| e.to_string())?;
        println!(
            "replay {class}:{index} (seed {:#018x})\n  mutation: {}",
            mutation.seed, mutation.kind
        );
        let verdict = match outcome {
            Outcome::Detected(layer) => format!("detected by {layer}"),
            Outcome::Harmless => "harmless (content identical)".to_string(),
            Outcome::Violation(detail) => return Err(format!("invariant VIOLATED: {detail}").into()),
        };
        println!("  outcome:  {verdict}");
        return Ok(());
    }

    eprintln!(
        "faultlab: injecting {} mutations x {} classes (seed {})…",
        cfg.mutations_per_class,
        classes.len(),
        cfg.master_seed
    );
    let trace = trace_out(args);
    let obs = match &trace {
        Some((_, collector, registry)) => Obs::collecting(collector.clone(), registry.clone()),
        None => Obs::disabled(),
    };
    let report = faultlab::run_campaign_for(&cfg, &classes, &obs).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());
    if let Some((path, collector, registry)) = trace {
        write_trace(path, &collector.sorted_records(), &registry.snapshot())?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant violations", report.total_violations()).into())
    }
}

fn cmd_serve_selftest(_: &Args) -> CliResult {
    eprintln!("serve selftest: in-process server + concurrent loadgen burst…");
    let text = daspos::serve::selftest().map_err(|e| CliError::Failure(e.to_string()))?;
    print!("{text}");
    println!("serve selftest PASSED — campaign clean, shutdown drained");
    Ok(())
}

/// `--quota tenant=B:I:O[,tenant=…]`: per-tenant overrides on top of the
/// default quota.
fn tenant_quotas(list: &str) -> Option<Vec<(String, Quota)>> {
    let entries = list.split(',').map(str::trim).filter(|s| !s.is_empty());
    entries
        .map(|entry| {
            let (tenant, spec) = entry.split_once('=')?;
            Some((tenant.to_string(), Quota::parse(spec)?))
        })
        .collect()
}

fn serve_config(args: &Args) -> Result<ServeConfig, CliError> {
    let mut builder = ServeConfig::builder();
    if let Some(n) = args.get("--max-inflight")? {
        builder = builder.max_inflight(n);
    }
    if let Some(n) = args.get("--streams")? {
        builder = builder.max_streams(n);
    }
    if let Some(ms) = args.get("--scrub-ms")? {
        builder = builder.scrub_interval(Duration::from_millis(ms));
    }
    if let Some(quota) = args.value("--default-quota", Quota::parse)? {
        builder = builder.default_quota(quota);
    }
    for (tenant, quota) in args.value("--quota", tenant_quotas)?.unwrap_or_default() {
        builder = builder.quota(&tenant, quota);
    }
    // Test hook: inject server-side faults so loadgen's deep
    // verification can be proven to catch them.
    if let Some(chaos) = args.value("--chaos", Chaos::parse)? {
        builder = builder.chaos(chaos);
    }
    builder.build().map_err(|e| CliError::usage(e.to_string()))
}

fn cmd_serve(args: &Args) -> CliResult {
    use daspos::serve::{Server, Service};

    let cfg = serve_config(args)?;
    // The vault behind the service: a directory store when --store is
    // given (objects survive restarts), else in-memory backends.
    // --replicas / --erasure pick the redundancy either way.
    let requested = redundancy(args)?;
    let vault = match args.str("--store") {
        Some(store) => {
            let create = Some(requested.unwrap_or(Redundancy::Replicas(3)));
            open_vault(store, requested, create, Obs::disabled())?
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

    let registry = Arc::new(MetricsRegistry::new());
    let scrub = cfg.scrub_interval();
    let service = Arc::new(Service::new(
        vault,
        &cfg,
        Obs::metrics_only(registry.clone()),
    ));
    let addr = args.str("--addr").unwrap_or("127.0.0.1:0");
    let server = Server::start(service.clone(), addr, scrub)
        .map_err(|e| CliError::Failure(e.to_string()))?;
    println!("serving on {}", server.addr());
    eprintln!(
        "  max in-flight {}, scrub every {:?}; stop with \
         'daspos loadgen --addr {} --shutdown'",
        cfg.max_inflight(),
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

fn loadgen_config(args: &Args) -> Result<LoadgenConfig, CliError> {
    let default = LoadgenConfig::default();
    Ok(LoadgenConfig {
        addr: args.need("--addr")?.to_string(),
        clients: args.count("--clients")?.unwrap_or(default.clients),
        ops_per_client: args.get("--ops")?.unwrap_or(default.ops_per_client),
        tenants: args.count("--tenants")?.unwrap_or(default.tenants),
        seed: args.get("--seed")?.unwrap_or(default.seed),
        payload_bytes: args.get("--payload-bytes")?.unwrap_or(default.payload_bytes),
        mix: args.value("--mix", MixWeights::parse)?.unwrap_or(default.mix),
        op_timeout: args
            .get("--timeout-ms")?
            .map_or(default.op_timeout, |ms: u64| Duration::from_millis(ms.max(1))),
        large_every: args.get("--large-every")?.unwrap_or(default.large_every),
        large_payload_bytes: args.count("--large-bytes")?.unwrap_or(default.large_payload_bytes),
        chunk_bytes: args.count("--chunk-bytes")?.unwrap_or(default.chunk_bytes),
    })
}

fn cmd_loadgen(args: &Args) -> CliResult {
    use daspos::serve::{loadgen, ServeClient};

    let cfg = loadgen_config(args)?;
    eprintln!(
        "loadgen: {} client(s) x {} op(s) over {} tenant(s) against {} (seed {})…",
        cfg.clients, cfg.ops_per_client, cfg.tenants, cfg.addr, cfg.seed
    );
    let report = loadgen::run(&cfg);
    print!("{}", report.to_text());
    if args.has("--shutdown") {
        let mut client = ServeClient::builder("loadgen")
            .connect(&cfg.addr)
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

fn vault_put(args: &Args) -> CliResult {
    use daspos::vault::ObjectKind;
    let file = &args.positional[0];
    let store = args.need("--store")?;
    let requested = redundancy(args)?;
    let kind = args.value("--kind", ObjectKind::parse)?;
    let key = match args.str("--key") {
        Some(k) => k.to_string(),
        None => std::path::Path::new(file)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .ok_or_else(|| CliError::usage("cannot derive a key from the file name; pass --key"))?,
    };
    let payload =
        Bytes::from(std::fs::read(file).map_err(|e| format!("cannot read '{file}': {e}"))?);
    let kind = kind.unwrap_or_else(|| ObjectKind::sniff(&payload));
    let create = Some(requested.unwrap_or(Redundancy::Replicas(3)));
    let vault = open_vault(store, requested, create, Obs::disabled())?;
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

fn vault_get(args: &Args) -> CliResult {
    let key = &args.positional[0];
    let store = args.need("--store")?;
    let out = args.need("--out")?;
    let vault = open_vault(store, None, None, Obs::disabled())?;
    let (kind, payload) = vault.get(key).map_err(|e| e.to_string())?;
    std::fs::write(out, &payload).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!(
        "recovered '{key}' ({kind}, {} bytes) to {out}",
        payload.len()
    );
    Ok(())
}

/// `vault scrub --selftest`: the seeded disaster drill.
fn vault_drill(args: &Args) -> CliResult {
    use daspos::faultlab::{self, SHARD_K, SHARD_M};
    // --erasure drills the sharded vault (the vault-shard fault class)
    // in the fixture's geometry, the only one it takes; without it the
    // drill is the original single-replica-corruption campaign.
    let fixture = Redundancy::Erasure { k: SHARD_K, m: SHARD_M };
    let (class, drill) = match args.value("--erasure", |s| (erasure(s)? == fixture).then_some(()))? {
        None => (
            ArtifactClass::VaultReplica,
            "single-replica mutations".to_string(),
        ),
        Some(()) => (
            ArtifactClass::VaultShard,
            format!("shard-stripe mutations over a {SHARD_K}+{SHARD_M} erasure vault"),
        ),
    };
    let cfg = campaign_config(args)?;
    eprintln!(
        "vault scrub drill: {} seeded {drill} (seed {})…",
        cfg.mutations_per_class, cfg.master_seed
    );
    let report =
        faultlab::run_campaign_for(&cfg, &[class], &Obs::disabled()).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());
    if !report.passed() {
        return Err(CliError::Failure(format!(
            "{} mutation(s) survived unrepaired",
            report.total_violations()
        )));
    }
    // Losses beyond the redundancy are reported, not repaired.
    let unrecoverable = report.classes[0]
        .detections_by_layer
        .get("scrub:unrecoverable")
        .copied()
        .unwrap_or(0);
    println!(
        "vault scrub drill PASSED — {} mutation(s) detected and repaired, \
         {unrecoverable} reported unrecoverable, {} harmless",
        report.total_detected() - unrecoverable,
        report.total_harmless()
    );
    Ok(())
}

fn vault_scan(args: &Args, repair: bool) -> CliResult {
    let store = args.need("--store")?;
    let threads = args.count("--threads")?.unwrap_or(1);
    let registry = Arc::new(MetricsRegistry::new());
    let vault = open_vault(store, None, None, Obs::metrics_only(registry.clone()))?;
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

fn cmd_experiment(args: &Args) -> CliResult {
    use daspos::experiments;
    let id = &args.positional[0];
    let report = if id == "all" {
        experiments::render_all()
    } else {
        experiments::render(id).ok_or_else(|| {
            let ids = experiments::ALL.map(|(id, _, _)| id).join(", ");
            CliError::usage(format!("unknown experiment '{id}' (want {ids} or all)"))
        })?
    };
    print!("{}", report.map_err(|e| e.to_string())?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos::vault::ObjectKind;
    use daspos_tiers::TierFormat;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parsed(line: &str) -> Args {
        parse(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e:?}"))
    }

    fn campaign(master_seed: u64, mutations_per_class: u32, events: u64) -> CampaignConfig {
        CampaignConfig { master_seed, mutations_per_class, events }
    }

    // The invocations below are every distinct one in README.md, the
    // verify recipe, the tier-1 command and this file's module docs, each
    // with the configuration it yields today.

    #[test]
    fn documented_workflows_parse_to_their_chain_and_engine() {
        use Experiment::Cms;
        let z = PreservedWorkflow::standard_z;
        let cores = ExecOptions::new().thread_count();
        let (row, col) = (TierFormat::Row, TierFormat::Columnar);
        for (line, chain, threads, format, out) in [
            ("produce --experiment cms --events 200 --out z.dpar", z(Cms, 2013, 200), cores, row, "z.dpar"),
            ("produce --experiment cms --events 10000 --out z.dpar", z(Cms, 2013, 10000), cores, row, "z.dpar"),
            ("produce --experiment cms --events 10000 --threads 4 --out z.dpar", z(Cms, 2013, 10000), 4, row, "z.dpar"),
            ("produce --experiment cms --events 300 --threads 4 --out /tmp/z.dpar", z(Cms, 2013, 300), 4, row, "/tmp/z.dpar"),
            ("produce --experiment cms --events 300 --trace-out /tmp/p.jsonl --out /tmp/zz.dpar", z(Cms, 2013, 300), cores, row, "/tmp/zz.dpar"),
            ("produce --experiment cms --process z-boson --events 200 --seed 42 --out z.dpar", z(Cms, 42, 200), cores, row, "z.dpar"),
            ("trace --experiment cms --events 200 --out trace.jsonl", z(Cms, 2013, 200), cores, row, "trace.jsonl"),
            ("trace --experiment cms --events 200 --seed 42 --out trace.jsonl", z(Cms, 42, 200), cores, row, "trace.jsonl"),
            ("trace --events 200 --seed 7 --out /tmp/trace.jsonl", z(Cms, 7, 200), cores, row, "/tmp/trace.jsonl"),
            ("trace --events 200 --seed 7 --tier-format columnar --out /tmp/tc.jsonl", z(Cms, 7, 200), cores, col, "/tmp/tc.jsonl"),
            ("trace --events 64 --seed 2013 --out /tmp/trace.jsonl", z(Cms, 2013, 64), cores, row, "/tmp/trace.jsonl"),
            ("trace --events 64 --seed 2013 --tier-format columnar --out /tmp/trace_col.jsonl", z(Cms, 2013, 64), cores, col, "/tmp/trace_col.jsonl"),
            ("trace --events 64 --seed 2013 --experiment lhcb --process charm --out /tmp/trace_charm.jsonl", PreservedWorkflow::standard_charm(2013, 64), cores, row, "/tmp/trace_charm.jsonl"),
        ] {
            let args = parsed(line);
            let default = (args.cmd.name() == "trace").then_some("cms");
            let (parsed_workflow, opts) = workflow(&args, default).unwrap();
            assert_eq!(parsed_workflow, chain, "{line}");
            assert_eq!(opts.thread_count(), threads, "{line}");
            if default.is_some() {
                let parsed_format = args.value("--tier-format", TierFormat::parse).unwrap();
                assert_eq!(parsed_format.unwrap_or_default(), format, "{line}");
            }
            assert_eq!(args.str("--out"), Some(out), "{line}");
        }
        assert_eq!(workflow(&parsed("trace"), Some("cms")).unwrap().0, z(Cms, 2013, 200));
    }

    #[test]
    fn documented_campaigns_parse_to_their_configuration() {
        use ArtifactClass::{ColumnarTier, ServeFrame, TierAod, VaultShard};
        let all = ArtifactClass::all().to_vec();
        for (line, cfg, classes) in [
            ("faultlab --mutations 40 --events 6", campaign(20130908, 40, 6), all.clone()),
            ("faultlab --seed 20130908 --mutations 100", campaign(20130908, 100, 10), all.clone()),
            ("faultlab --classes tier-aod,vault-shard --mutations 40", campaign(20130908, 40, 10), vec![TierAod, VaultShard]),
            ("faultlab --seed 20130908 --replay tier-aod:17", campaign(20130908, 100, 10), all.clone()),
            ("faultlab --replay tier-aod:3 --mutations 40 --events 6", campaign(20130908, 40, 6), all.clone()),
            ("faultlab --classes columnar-tier --mutations 30 --events 6", campaign(20130908, 30, 6), vec![ColumnarTier]),
            ("faultlab --classes serve-frame --mutations 30 --events 6", campaign(20130908, 30, 6), vec![ServeFrame]),
            ("faultlab --classes vault-shard --mutations 30 --events 6", campaign(20130908, 30, 6), vec![VaultShard]),
        ] {
            let args = parsed(line);
            assert_eq!(campaign_config(&args).unwrap(), cfg, "{line}");
            assert_eq!(faultlab_classes(&args).unwrap(), classes, "{line}");
        }
        assert_eq!(parsed("faultlab --replay tier-aod:17").str("--replay"), Some("tier-aod:17"));

        let shards = Some(Redundancy::Erasure { k: 4, m: 2 });
        for (line, cfg, erasure_flag) in [
            ("vault scrub --selftest --mutations 40 --events 6", campaign(20130908, 40, 6), None),
            ("vault scrub --selftest --erasure 4,2 --mutations 30 --events 6", campaign(20130908, 30, 6), shards),
            ("vault scrub --selftest --mutations 200", campaign(20130908, 200, 10), None),
            ("vault scrub --selftest --erasure 4,2 --mutations 30", campaign(20130908, 30, 10), shards),
        ] {
            let args = parsed(line);
            assert_eq!(args.cmd.usage, "vault scrub --selftest", "{line}");
            assert_eq!(campaign_config(&args).unwrap(), cfg, "{line}");
            assert_eq!(args.value("--erasure", erasure).unwrap(), erasure_flag, "{line}");
        }
    }

    #[test]
    fn documented_archive_and_vault_commands_parse_to_their_arguments() {
        let shards = Some(Redundancy::Erasure { k: 4, m: 2 });
        for (line, file, store, layout, kind) in [
            ("vault put cms-z.dpar --store ./vault --kind container", "cms-z.dpar", "./vault", None, Some(ObjectKind::Container)),
            ("vault put cms-z.dpar --store ./ecvault --erasure 4,2", "cms-z.dpar", "./ecvault", shards, None),
            ("vault put /tmp/z.dpar --store /tmp/vs --kind container", "/tmp/z.dpar", "/tmp/vs", None, Some(ObjectKind::Container)),
            ("vault put /tmp/z.dpar --store /tmp/es --erasure 4,2", "/tmp/z.dpar", "/tmp/es", shards, None),
            ("vault put z.dpar --store vault/ --key z.dpar", "z.dpar", "vault/", None, None),
        ] {
            let args = parsed(line);
            assert_eq!((args.positional.as_slice(), args.str("--store")), ([file.to_string()].as_slice(), Some(store)), "{line}");
            assert_eq!(redundancy(&args).unwrap(), layout, "{line}");
            assert_eq!(args.value("--kind", ObjectKind::parse).unwrap(), kind, "{line}");
        }
        assert_eq!(parsed("vault put z.dpar --store vault/ --key z.dpar").str("--key"), Some("z.dpar"));

        for (line, usage, store, threads, out) in [
            ("vault get cms-z.dpar --store ./ecvault --out restored.dpar", "vault get <key>", "./ecvault", None, Some("restored.dpar")),
            ("vault get z.dpar --store /tmp/vs --out /tmp/z3.dpar", "vault get <key>", "/tmp/vs", None, Some("/tmp/z3.dpar")),
            ("vault get z.dpar --store /tmp/es --out /tmp/z4.dpar", "vault get <key>", "/tmp/es", None, Some("/tmp/z4.dpar")),
            ("vault scrub --store ./ecvault --threads 4", "vault scrub", "./ecvault", Some(4), None),
            ("vault verify --store ./ecvault", "vault verify", "./ecvault", None, None),
            ("vault scrub --store /tmp/vs", "vault scrub", "/tmp/vs", None, None),
            ("vault verify --store /tmp/vs", "vault verify", "/tmp/vs", None, None),
            ("vault scrub --store /tmp/es --threads 2", "vault scrub", "/tmp/es", Some(2), None),
            ("vault scrub --store vault/", "vault scrub", "vault/", None, None),
        ] {
            let args = parsed(line);
            assert_eq!((args.cmd.usage, args.str("--store")), (usage, Some(store)), "{line}");
            if usage == "vault get <key>" {
                assert_eq!(args.str("--out"), out, "{line}");
            } else {
                assert_eq!(args.count("--threads").unwrap(), threads, "{line}");
            }
        }

        for (line, file, out, platform) in [
            ("inspect z.dpar", "z.dpar", None, None),
            ("inspect /tmp/z.dpar", "/tmp/z.dpar", None, None),
            ("validate z.dpar", "z.dpar", None, None),
            ("validate /tmp/z.dpar", "/tmp/z.dpar", None, None),
            ("validate z.dpar --platform el9-aarch64", "z.dpar", None, Some("el9-aarch64")),
            ("validate --platform el9-x86_64 z.dpar", "z.dpar", None, Some("el9-x86_64")),
            ("migrate z.dpar --out z-el9.dpar", "z.dpar", Some("z-el9.dpar"), None),
            ("migrate /tmp/z.dpar --out /tmp/z2.dpar", "/tmp/z.dpar", Some("/tmp/z2.dpar"), None),
        ] {
            let args = parsed(line);
            assert_eq!(args.positional, [file], "{line}");
            if args.cmd.name() == "migrate" {
                assert_eq!(args.str("--out"), out, "{line}");
            }
            if args.cmd.name() != "inspect" {
                assert_eq!(args.str("--platform"), platform, "{line}");
            }
        }
        assert_eq!(parsed("vault get --store v/ z.dpar --out o").positional, ["z.dpar"]);
        for id in ["all", "t1", "m1"] {
            assert_eq!(parsed(&format!("experiment {id}")).positional, [id]);
        }
    }

    #[test]
    fn documented_service_commands_parse_to_their_configuration() {
        let serve = |line: &str| {
            let args = parsed(line);
            (format!("{:?}", serve_config(&args).unwrap()), redundancy(&args).unwrap())
        };
        let quota = |max_bytes, max_inflight, ops_per_sec| Quota { max_bytes, max_inflight, ops_per_sec };
        let readme = ServeConfig::builder()
            .max_inflight(64)
            .scrub_interval(Duration::from_millis(20))
            .default_quota(quota(1073741824, 8, 200))
            .quota("archive", quota(0, 16, 0))
            .build()
            .unwrap();
        assert_eq!(
            serve(
                "serve --addr 127.0.0.1:7413 --store ./vault --replicas 3 --max-inflight 64 \
                 --scrub-ms 20 --default-quota 1073741824:8:200 --quota archive=0:16:0"
            ),
            (format!("{readme:?}"), Some(Redundancy::Replicas(3)))
        );
        let default = format!("{:?}", ServeConfig::default());
        assert_eq!(serve("serve --addr 127.0.0.1:0"), (default, None));
        let chaos = ServeConfig::builder().chaos(Chaos::FlipGet).build().unwrap();
        assert_eq!(serve("serve --addr 127.0.0.1:7414 --chaos flip-get"), (format!("{chaos:?}"), None));
        let capped = ServeConfig::builder().default_quota(quota(8192, 0, 0)).build().unwrap();
        assert_eq!(serve("serve --addr 127.0.0.1:0 --default-quota 8192:0:0").0, format!("{capped:?}"));
        assert_eq!(parsed("serve --addr 127.0.0.1:7413").str("--addr"), Some("127.0.0.1:7413"));
        assert_eq!(parsed("serve --selftest").cmd.usage, "serve --selftest");

        let loadgen = |line: &str| format!("{:?}", loadgen_config(&parsed(line)).unwrap());
        let base = LoadgenConfig { addr: "127.0.0.1:7413".to_string(), ..LoadgenConfig::default() };
        let community = LoadgenConfig {
            clients: 64,
            ops_per_client: 50,
            tenants: 8,
            seed: 2013,
            mix: MixWeights { put: 6, get: 6, verify: 2, scrub: 1 },
            large_every: 8,
            large_payload_bytes: 67108864,
            chunk_bytes: 4194304,
            ..base.clone()
        };
        assert_eq!(
            loadgen(
                "loadgen --addr 127.0.0.1:7413 --clients 64 --ops 50 --tenants 8 --seed 2013 \
                 --mix 6:6:2:1 --large-every 8 --large-bytes 67108864 --chunk-bytes 4194304"
            ),
            format!("{community:?}")
        );
        let drain = LoadgenConfig { clients: 1, ops_per_client: 1, ..base.clone() };
        let line = "loadgen --addr 127.0.0.1:7413 --clients 1 --ops 1 --shutdown";
        assert_eq!(loadgen(line), format!("{drain:?}"));
        assert!(parsed(line).has("--shutdown"));
        let streamed = LoadgenConfig {
            clients: 8,
            ops_per_client: 10,
            large_every: 4,
            large_payload_bytes: 8388608,
            chunk_bytes: 1048576,
            ..base.clone()
        };
        assert_eq!(
            loadgen(
                "loadgen --addr 127.0.0.1:7413 --clients 8 --ops 10 --large-every 4 \
                 --large-bytes 8388608 --chunk-bytes 1048576 --shutdown"
            ),
            format!("{streamed:?}")
        );
        let chaos_probe = LoadgenConfig {
            addr: "127.0.0.1:7414".to_string(),
            op_timeout: Duration::from_millis(2000),
            ..LoadgenConfig::default()
        };
        let line = "loadgen --addr 127.0.0.1:7414 --timeout-ms 2000 --shutdown";
        assert_eq!(loadgen(line), format!("{chaos_probe:?}"));
        let quota_probe = LoadgenConfig { payload_bytes: 4096, ..base };
        assert_eq!(loadgen("loadgen --addr 127.0.0.1:7413 --payload-bytes 4096"), format!("{quota_probe:?}"));
    }

    #[test]
    fn documented_refusals_are_usage_errors() {
        let refused = |line: &str| {
            let outcome = parse(&argv(line)).and_then(|args| match args.cmd.name() {
                "serve" => serve_config(&args).map(drop),
                _ => Ok(()),
            });
            assert!(matches!(outcome, Err(CliError::Usage(_))), "{line}: {outcome:?}");
        };
        for line in [
            "serve --default-quota nonsense",
            "serve --pool 4",
            "serve --quota tenant-without-spec",
            "faultlab --mutatoins 5",
            "experiment t1 --bogus 1",
            "faultlab --mutations 3 --mutations 7",
            "produce --experiment cms --out z.dpar --seed",
            "serve --selftest --addr x",
            "vault get z.dpar --store --out o",
            "inspect a.dpar b.dpar",
        ] {
            refused(line);
        }
    }

    #[test]
    fn help_lists_every_accepted_flag_under_its_command() {
        let text = help();
        let sections: Vec<&str> = text.split("\n  daspos ").skip(1).collect();
        assert_eq!(sections.len(), COMMANDS.len());
        for (cmd, section) in COMMANDS.iter().zip(sections) {
            assert!(section.starts_with(&format!("{}\n", cmd.usage)), "{section}");
            for flag in cmd.flags() {
                let row = format!("\n      {} ", flag.name);
                assert_eq!(section.contains(&row), !flag.retired, "{} {}", cmd.usage, flag.name);
            }
        }
    }

    #[test]
    fn no_table_lists_a_flag_twice() {
        for cmd in COMMANDS {
            let mut names: Vec<&str> = cmd.flags().map(|f| f.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{}", cmd.usage);
        }
    }
}
