//! Integration: an idle server's accept and scrub threads block until an
//! event (a connection, the scrub interval, shutdown) instead of polling,
//! and shutdown still wakes them at once. The wake-up counts are the
//! context switches Linux reports per thread under `/proc/self/task`: a
//! thread that is never switched in uses no CPU.
//!
//! This is its own test binary, with one test, so that no other
//! server's threads share the names it counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use daspos::obs::Obs;
use daspos::serve::{ServeConfig, Server, Service};
use daspos::vault::{MemoryBackend, StorageBackend, Vault};

fn service() -> Arc<Service> {
    let vault = Vault::builder()
        .backends(vec![Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>])
        .build()
        .expect("vault builds");
    Arc::new(Service::new(vault, &ServeConfig::default(), Obs::disabled()))
}

/// Context switches so far of this process's thread named `name`, or
/// `None` when no thread has that name.
#[cfg(target_os = "linux")]
fn switches(name: &str) -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks.flatten().find_map(|task| {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        if comm.trim_end() != name {
            return None;
        }
        let status = std::fs::read_to_string(task.path().join("status")).ok()?;
        let counts = status.lines().filter(|l| l.contains("ctxt_switches:"));
        Some(counts.filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok()).sum())
    })
}

/// Let the accept and scrub threads reach their blocking waits, then
/// require that neither is switched in for half a second.
#[cfg(target_os = "linux")]
fn assert_idle_threads_stay_asleep() {
    std::thread::sleep(Duration::from_millis(100));
    let count = |name| switches(name).unwrap_or_else(|| panic!("no {name} thread"));
    let before = (count("serve-accept"), count("serve-scrub"));
    std::thread::sleep(Duration::from_millis(500));
    let after = (count("serve-accept"), count("serve-scrub"));
    // A 1 ms accept poll reads hundreds here.
    assert!(
        after.0 - before.0 <= 1 && after.1 - before.1 <= 1,
        "idle threads woke: accept {} -> {}, scrub {} -> {}",
        before.0,
        after.0,
        before.1,
        after.1
    );
}

#[test]
fn idle_server_threads_block_and_shutdown_wakes_them_at_once() {
    let server = Server::start(service(), "127.0.0.1:0", Duration::from_secs(60))
        .expect("server starts");
    #[cfg(target_os = "linux")]
    assert_idle_threads_stay_asleep();
    let started = Instant::now();
    server.stop();
    assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());

    // Shutdown wakes an accept on the wildcard address through the
    // local host.
    let server = Server::start(service(), "0.0.0.0:0", Duration::from_secs(60))
        .expect("server starts");
    let started = Instant::now();
    server.stop();
    assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
}
