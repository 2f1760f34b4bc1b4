//! Integration: the `daspos-cli` exit-code contract. Automation (CI
//! jobs, cron-driven scrubs) keys off these codes, so they are part of
//! the public interface: 0 = success, 1 = validation/integrity failure,
//! 2 = usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_daspos-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("cli spawns")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("cli exited with a code")
}

/// A fresh scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daspos-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn success_paths_exit_zero() {
    assert_eq!(code(&run(&["help"])), 0);

    let dir = scratch("ok");
    let payload = dir.join("note.txt");
    std::fs::write(&payload, b"an opaque preserved note\n").unwrap();
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let put = run(&["vault", "put", payload.to_str().unwrap(), "--store", store_s]);
    assert_eq!(code(&put), 0, "{}", String::from_utf8_lossy(&put.stderr));
    assert_eq!(code(&run(&["vault", "scrub", "--store", store_s])), 0);
    assert_eq!(code(&run(&["vault", "verify", "--store", store_s])), 0);

    let out = dir.join("restored.txt");
    let get = run(&["vault", "get", "note.txt", "--store", store_s, "--out", out.to_str().unwrap()]);
    assert_eq!(code(&get), 0, "{}", String::from_utf8_lossy(&get.stderr));
    assert_eq!(std::fs::read(&out).unwrap(), b"an opaque preserved note\n");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn integrity_failures_exit_one() {
    let dir = scratch("fail");
    let payload = dir.join("note.txt");
    std::fs::write(&payload, b"bytes worth keeping\n").unwrap();
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    assert_eq!(
        code(&run(&["vault", "put", payload.to_str().unwrap(), "--store", store_s])),
        0
    );

    // Corrupt one replica: `verify` (read-only) must report damage with
    // exit 1; `scrub` repairs it and exits 0; a second `verify` is clean.
    let copy = store.join("replica-1").join("note.txt");
    let mut bytes = std::fs::read(&copy).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&copy, &bytes).unwrap();
    assert_eq!(code(&run(&["vault", "verify", "--store", store_s])), 1);
    assert_eq!(code(&run(&["vault", "scrub", "--store", store_s])), 0);
    assert_eq!(code(&run(&["vault", "verify", "--store", store_s])), 0);

    // Asking for a key the vault does not hold is a failure, not a
    // usage error: the command was well-formed.
    let missing = run(&[
        "vault",
        "get",
        "absent.txt",
        "--store",
        store_s,
        "--out",
        dir.join("x").to_str().unwrap(),
    ]);
    assert_eq!(code(&missing), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn erasure_store_survives_two_whole_backend_losses() {
    let dir = scratch("erasure");
    let payload = dir.join("tier.bin");
    let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    std::fs::write(&payload, &bytes).unwrap();
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let put = run(&[
        "vault",
        "put",
        payload.to_str().unwrap(),
        "--store",
        store_s,
        "--erasure",
        "4,2",
    ]);
    assert_eq!(code(&put), 0, "{}", String::from_utf8_lossy(&put.stderr));
    assert!(
        String::from_utf8_lossy(&put.stdout).contains("4+2 shards over 6 backends"),
        "put must report the stripe geometry"
    );
    assert!(store.join("vault.meta").is_file(), "geometry is persisted");

    // Kill two entire backends — the worst loss a 4+2 stripe tolerates.
    std::fs::remove_dir_all(store.join("shard-1")).unwrap();
    std::fs::remove_dir_all(store.join("shard-4")).unwrap();

    // verify reports the damage read-only (exit 1), get still
    // reconstructs byte-identically, scrub rebuilds the lost shards.
    assert_eq!(code(&run(&["vault", "verify", "--store", store_s])), 1);
    let out = dir.join("restored.bin");
    let get = run(&["vault", "get", "tier.bin", "--store", store_s, "--out", out.to_str().unwrap()]);
    assert_eq!(code(&get), 0, "{}", String::from_utf8_lossy(&get.stderr));
    assert_eq!(std::fs::read(&out).unwrap(), bytes, "reconstruction must be byte-identical");

    let scrub = run(&["vault", "scrub", "--store", store_s]);
    assert_eq!(code(&scrub), 0, "{}", String::from_utf8_lossy(&scrub.stderr));
    let text = String::from_utf8_lossy(&scrub.stdout);
    assert!(text.contains("rebuilt"), "scrub reports rebuilt shards: {text}");
    assert_eq!(code(&run(&["vault", "verify", "--store", store_s])), 0);
    assert!(store.join("shard-1").is_dir(), "scrub re-materialized the backend");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn redundancy_flag_conflicts_exit_two() {
    let dir = scratch("conflict");
    let payload = dir.join("note.txt");
    std::fs::write(&payload, b"conflicted\n").unwrap();
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let payload_s = payload.to_str().unwrap();

    // --replicas and --erasure are mutually exclusive, everywhere they
    // are accepted, and the refusal must name both flags.
    let out = run(&[
        "vault", "put", payload_s, "--store", store_s, "--replicas", "3", "--erasure", "4,2",
    ]);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--replicas") && err.contains("--erasure") && err.contains("mutually exclusive"),
        "unhelpful stderr: {err}"
    );
    assert_eq!(code(&run(&["serve", "--replicas", "2", "--erasure", "2,1"])), 2);
    assert_eq!(
        code(&run(&["vault", "scrub", "--selftest", "--replicas", "1", "--erasure", "4,2"])),
        2
    );

    // Malformed geometry never touches the store.
    assert_eq!(
        code(&run(&["vault", "put", payload_s, "--store", store_s, "--erasure", "nonsense"])),
        2
    );
    assert_eq!(
        code(&run(&["vault", "put", payload_s, "--store", store_s, "--erasure", "0,2"])),
        2
    );
    assert!(!store.exists(), "a rejected invocation must not create the store");

    // Opening an existing store with the other layout's flags is a
    // usage error, not silent conversion.
    assert_eq!(code(&run(&["vault", "put", payload_s, "--store", store_s, "--erasure", "2,1"])), 0);
    let out = run(&["vault", "put", payload_s, "--store", store_s, "--replicas", "3"]);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already"), "mismatch must name the existing layout: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn `daspos-cli serve` and wait for its "serving on <addr>" line.
/// The returned reader must stay alive until the child exits — dropping
/// it closes the pipe and turns the server's drain summary into a
/// broken-pipe panic.
fn spawn_server(
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    let mut child = cli()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner readable");
    let addr = banner
        .trim_end()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    (child, addr, reader)
}

#[test]
fn serve_selftest_exits_zero() {
    let out = run(&["serve", "--selftest"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve selftest PASSED"), "stdout: {text}");
}

#[test]
fn loadgen_against_a_healthy_server_exits_zero() {
    let (mut child, addr, _stdout) = spawn_server(&[]);
    let out = run(&[
        "loadgen", "--addr", &addr, "--clients", "4", "--ops", "8", "--seed", "7", "--shutdown",
    ]);
    assert_eq!(
        code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero failures"));
    let status = child.wait().expect("server exits after --shutdown");
    assert_eq!(status.code(), Some(0), "server drain must exit 0");
}

#[test]
fn loadgen_exits_one_when_deep_verification_fails() {
    // A chaos-injected server flips GET payload bytes after sealing the
    // object away — only the client's byte-for-byte comparison of what
    // it PUT can notice, and that is an operational failure: exit 1.
    let (mut child, addr, _stdout) = spawn_server(&["--chaos", "flip-get"]);
    let out = run(&[
        "loadgen", "--addr", &addr, "--clients", "4", "--ops", "10", "--seed", "5", "--shutdown",
    ]);
    assert_eq!(
        code(&out),
        1,
        "corrupted GETs must fail the campaign\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("FAILED"), "stderr names the failure: {err}");
    child.wait().expect("server exits after --shutdown");
}

#[test]
fn serve_and_loadgen_usage_errors_exit_two() {
    // loadgen without a target is a malformed invocation.
    assert_eq!(code(&run(&["loadgen"])), 2);
    // Malformed flag values never reach the network.
    assert_eq!(code(&run(&["loadgen", "--addr", "127.0.0.1:1", "--mix", "nonsense"])), 2);
    assert_eq!(code(&run(&["loadgen", "--addr", "127.0.0.1:1", "--clients", "0"])), 2);
    assert_eq!(code(&run(&["serve", "--max-inflight", "0"])), 2);
    assert_eq!(code(&run(&["serve", "--chaos", "unknown-mode"])), 2);
    // Invalid worker-pool / quota configurations never bind a socket.
    assert_eq!(code(&run(&["serve", "--pool", "0"])), 2);
    assert_eq!(code(&run(&["serve", "--streams", "0"])), 2);
    assert_eq!(code(&run(&["serve", "--default-quota", "nonsense"])), 2);
    assert_eq!(code(&run(&["serve", "--quota", "tenant-without-spec"])), 2);
    assert_eq!(code(&run(&["serve", "--quota", "t=1:2:3:4"])), 2);
    assert_eq!(code(&run(&["loadgen", "--addr", "127.0.0.1:1", "--chunk-bytes", "0"])), 2);
}

#[test]
fn experiment_all_exits_zero() {
    let out = run(&["experiment", "all"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for (id, _, _) in daspos::experiments::ALL {
        let banner = format!("===== {}: ", id.to_uppercase());
        assert!(text.contains(&banner), "missing {banner}");
    }
}

#[test]
fn experiment_reports_are_deterministic() {
    // No report reads a clock, so two renderings in one process agree
    // byte for byte.
    let first = daspos::experiments::render_all().expect("experiments run");
    let second = daspos::experiments::render_all().expect("experiments run");
    assert!(first == second, "experiment reports differ between runs");
}

#[test]
fn usage_errors_exit_two() {
    // Unknown command / subcommand.
    assert_eq!(code(&run(&["no-such-command"])), 2);
    assert_eq!(code(&run(&["vault", "frobnicate"])), 2);
    // `bench` is not a command: perfbench/ is the benchmark.
    assert_eq!(code(&run(&["bench"])), 2);
    // `table1` and `maturity` are not commands: `experiment t1` and
    // `experiment m1` print those reports.
    assert_eq!(code(&run(&["table1"])), 2);
    assert_eq!(code(&run(&["maturity"])), 2);
    // An experiment id is required and must be one of the paper's.
    assert_eq!(code(&run(&["experiment"])), 2);
    assert_eq!(code(&run(&["experiment", "no-such-id"])), 2);
    // Missing required arguments.
    assert_eq!(code(&run(&["vault", "put"])), 2);
    assert_eq!(code(&run(&["vault", "scrub"])), 2);
    assert_eq!(code(&run(&["inspect"])), 2);
    // Malformed flag values.
    assert_eq!(code(&run(&["produce", "--experiment", "not-an-experiment"])), 2);
    assert_eq!(code(&run(&["trace", "--seed", "not-a-number"])), 2);
    // A faultlab class named twice would be attacked twice and
    // double-count its detections; an unknown replay class is refused.
    assert_eq!(code(&run(&["faultlab", "--classes", "tier-aod,tier-aod"])), 2);
    assert_eq!(code(&run(&["faultlab", "--replay", "nope:1"])), 2);
}

#[test]
fn scrub_drill_success_line_separates_repairs_from_losses() {
    // The 4+2 drill erases more than m shards of some objects: those
    // are reported unrecoverable, not repaired, and the line says so.
    let out = run(&[
        "vault", "scrub", "--selftest", "--erasure", "4,2", "--mutations", "30", "--events", "6",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("vault scrub drill PASSED"))
        .unwrap_or_else(|| panic!("no success line in {text}"));
    assert_eq!(
        line,
        "vault scrub drill PASSED — 26 mutation(s) detected and repaired, \
         4 reported unrecoverable, 0 harmless"
    );
    assert!(text.contains("scrub:unrecoverable=4"), "{text}");
}

#[test]
fn usage_errors_name_the_problem_on_stderr() {
    let out = run(&["vault", "frobnicate"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("vault"), "unhelpful stderr: {err}");
    let out = run(&["no-such-command"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-command"), "unhelpful stderr: {err}");
}

#[test]
fn a_flag_before_the_positional_is_not_taken_for_it() {
    // The table knows which flags take a value, so the positional
    // argument is never a flag's value.
    let dir = scratch("order");
    let archive = dir.join("z.dpar");
    let a = archive.to_str().unwrap();
    let produce = run(&["produce", "--experiment", "cms", "--events", "20", "--threads", "1", "--out", a]);
    assert_eq!(code(&produce), 0, "{}", String::from_utf8_lossy(&produce.stderr));

    // An archive validates only on the platform its stack targets, so
    // migrate it there first — with the flags ahead of the file too.
    let el9 = dir.join("z-el9.dpar");
    let el9_s = el9.to_str().unwrap();
    let migrate = run(&["migrate", "--platform", "el9-x86_64", "--out", el9_s, a]);
    assert_eq!(code(&migrate), 0, "{}", String::from_utf8_lossy(&migrate.stderr));
    let validate = run(&["validate", "--platform", "el9-x86_64", el9_s]);
    assert_eq!(code(&validate), 0, "{}", String::from_utf8_lossy(&validate.stderr));

    let store = dir.join("v");
    let store_s = store.to_str().unwrap();
    assert_eq!(code(&run(&["vault", "put", a, "--store", store_s])), 0);
    let out = dir.join("o");
    let get = run(&["vault", "get", "--store", store_s, "z.dpar", "--out", out.to_str().unwrap()]);
    assert_eq!(code(&get), 0, "{}", String::from_utf8_lossy(&get.stderr));
    assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&archive).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Exit 2 with `needle` on stderr.
fn refused(args: &[&str], needle: &str) {
    let out = run(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?} must name {needle}: {err}");
}

#[test]
fn flags_that_were_silently_ignored_are_refused() {
    // Each of these ran (and exited 0) with the flag ignored, or with
    // only its first occurrence read.
    refused(&["faultlab", "--mutatoins", "5", "--events", "6"], "--mutatoins");
    refused(&["experiment", "t1", "--bogus", "1"], "--bogus");
    refused(&["faultlab", "--mutations", "3", "--mutations", "7"], "--mutations");
    refused(&["produce", "--experiment", "cms", "--out", "z.dpar", "--seed"], "--seed");
    refused(&["serve", "--selftest", "--addr", "x"], "--addr");
}

#[test]
fn every_table_refuses_what_it_does_not_understand() {
    // For each command, `vault` subcommand and `--selftest` mode: an
    // invocation it accepts, and a flag it takes a value for but that
    // invocation leaves out (`None` where the table holds no such flag).
    let tables: &[(&[&str], Option<&str>)] = &[
        (&["produce", "--experiment", "cms", "--out", "x.dpar"], Some("--seed")),
        (&["inspect", "x.dpar"], None),
        (&["validate", "x.dpar"], Some("--platform")),
        (&["migrate", "x.dpar", "--out", "y.dpar"], Some("--platform")),
        (&["trace"], Some("--events")),
        (&["faultlab"], Some("--mutations")),
        (&["vault", "put", "x", "--store", "s"], Some("--key")),
        (&["vault", "get", "k", "--store", "s"], Some("--out")),
        (&["vault", "scrub", "--store", "s"], Some("--threads")),
        (&["vault", "scrub", "--selftest"], Some("--mutations")),
        (&["vault", "verify", "--store", "s"], Some("--threads")),
        (&["serve"], Some("--max-inflight")),
        (&["serve", "--selftest"], None),
        (&["loadgen", "--addr", "127.0.0.1:1"], Some("--clients")),
        (&["experiment", "t1"], None),
        (&["help"], None),
    ];
    for &(accepted, valued) in tables {
        let with = |extra: &[&'static str]| [accepted, extra].concat();
        refused(&with(&["--no-such-flag"]), "--no-such-flag");
        refused(&with(&["stray-argument"]), "stray-argument");
        if let Some(flag) = valued {
            refused(&with(&[flag, "1", flag, "2"]), flag);
            refused(&with(&[flag]), flag);
            refused(&with(&[flag, "--no-such-flag"]), flag);
        }
    }
    refused(&["serve", "--selftest", "--selftest"], "--selftest");
}
