//! Integration: the multi-tenant preservation service under concurrent
//! load. N client threads (1, 2 and 4) drive the same deterministic
//! workload against one shared vault; whatever the interleaving, the
//! final preserved state must be byte-identical to the serialized run,
//! tenants must never see each other's objects, and a background scrub
//! must repair seeded replica damage while foreground traffic flows.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use daspos::obs::Obs;
use daspos::serve::{expect_ok, ServeClient, ServeConfig, Server, Service};
use daspos::vault::{MemoryBackend, ObjectKind, StorageBackend, Vault};
use daspos_hep::seq::mix64;

/// SplitMix64-expanded deterministic payload bytes.
fn payload(seed: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    let mut word = 0u64;
    for i in 0..len {
        if i % 8 == 0 {
            word = mix64(seed.wrapping_add((i / 8) as u64));
        }
        out.push((word >> ((i % 8) * 8)) as u8);
    }
    Bytes::from(out)
}

/// One deterministic unit of work: a tenant, a key and the exact bytes
/// that must come back out.
#[derive(Clone)]
struct WorkItem {
    tenant: String,
    key: String,
    bytes: Bytes,
}

/// The fixed workload every run preserves: two shared tenants, disjoint
/// keys, deterministic payloads.
fn workload() -> Vec<WorkItem> {
    let tenants = ["atlas", "cms"];
    (0..32)
        .map(|i| WorkItem {
            tenant: tenants[i % tenants.len()].to_string(),
            key: format!("obj-{i:03}.bin"),
            bytes: payload(0xDA5_905 + i as u64, 64 + (i * 17) % 512),
        })
        .collect()
}

fn start_server(replicas: usize, scrub: Duration) -> (Server, Arc<Service>, Vec<Arc<MemoryBackend>>) {
    let backends: Vec<Arc<MemoryBackend>> =
        (0..replicas).map(|_| Arc::new(MemoryBackend::new())).collect();
    let vault = Vault::builder()
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .build()
        .expect("vault builds");
    let service = Arc::new(Service::new(vault, &ServeConfig::default(), Obs::disabled()));
    let server = Server::start(service.clone(), "127.0.0.1:0", scrub).expect("server starts");
    (server, service, backends)
}

/// Run `items` through `clients` concurrent connections (round-robin
/// partition), then read every object back over a fresh connection and
/// return the final state as (tenant, key, bytes) in workload order.
fn drive(clients: usize, items: &[WorkItem]) -> Vec<(String, String, Vec<u8>)> {
    let (server, service, _) = start_server(2, Duration::ZERO);
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let addr = addr.clone();
            let mine: Vec<WorkItem> =
                items.iter().skip(c).step_by(clients).cloned().collect();
            scope.spawn(move || {
                for item in mine {
                    let mut client =
                        ServeClient::builder(&item.tenant).connect(&addr).expect("client connects");
                    expect_ok(
                        client
                            .put(&item.key, ObjectKind::Opaque, &item.bytes)
                            .expect("put sends"),
                    )
                    .expect("put accepted");
                    // Read-your-writes inside the same session.
                    let got = expect_ok(client.get(&item.key).expect("get sends"))
                        .expect("get accepted");
                    assert_eq!(
                        got.payload.as_slice(),
                        item.bytes.as_slice(),
                        "read-your-writes broke for {}/{}",
                        item.tenant,
                        item.key
                    );
                }
            });
        }
    });

    let mut state = Vec::new();
    for item in items {
        let mut client = ServeClient::builder(&item.tenant).connect(&addr).expect("reader connects");
        let got = expect_ok(client.get(&item.key).expect("get sends")).expect("object preserved");
        state.push((item.tenant.clone(), item.key.clone(), got.payload.as_slice().to_vec()));
    }

    service.request_shutdown();
    server.join();
    state
}

#[test]
fn concurrent_runs_are_byte_identical_to_the_serialized_run() {
    let items = workload();
    let serialized = drive(1, &items);

    // The serialized run preserved exactly what was put.
    for ((tenant, key, bytes), item) in serialized.iter().zip(&items) {
        assert_eq!((tenant.as_str(), key.as_str()), (item.tenant.as_str(), item.key.as_str()));
        assert_eq!(bytes.as_slice(), item.bytes.as_slice(), "{tenant}/{key} mangled");
    }

    // 2 and 4 concurrent clients converge on the identical final state.
    for clients in [2usize, 4] {
        let concurrent = drive(clients, &items);
        assert_eq!(
            concurrent, serialized,
            "{clients} concurrent clients diverged from the serialized run"
        );
    }
}

#[test]
fn serves_32_concurrent_connections_plus_32_idle_ones() {
    // 64 connections, 32 busy and 32 held open and idle, must all be
    // served: each holds its own thread, so an idle one never keeps a
    // busy one waiting.
    let backends: Vec<Arc<MemoryBackend>> = (0..2).map(|_| Arc::new(MemoryBackend::new())).collect();
    let vault = Vault::builder()
        .backends(backends.iter().map(|b| b.clone() as Arc<dyn StorageBackend>).collect())
        .build()
        .expect("vault builds");
    let service = Arc::new(Service::new(vault, &ServeConfig::default(), Obs::disabled()));
    let server =
        Server::start(service.clone(), "127.0.0.1:0", Duration::ZERO).expect("server starts");
    let addr = server.addr().to_string();

    // 32 idle connections opened first and held for the whole test.
    let mut idle: Vec<ServeClient> = (0..32)
        .map(|i| {
            ServeClient::builder(&format!("idle-{}", i % 3))
                .connect(&addr)
                .expect("idle connection opens")
        })
        .collect();

    // 32 busy connections, each its own thread, each a multi-op session.
    std::thread::scope(|scope| {
        for c in 0..32u64 {
            let addr = addr.clone();
            scope.spawn(move || {
                let tenant = format!("tenant-{}", c % 4);
                let mut client = ServeClient::builder(&tenant)
                    .op_timeout(Duration::from_secs(30))
                    .connect(&addr)
                    .expect("busy connection opens");
                for round in 0..4u64 {
                    let key = format!("conn-{c:02}-round-{round}.bin");
                    let bytes = payload(c * 1000 + round, 256 + (c as usize * 13) % 1024);
                    expect_ok(client.put(&key, ObjectKind::Opaque, &bytes).expect("put sends"))
                        .expect("put accepted");
                    let got = expect_ok(client.get(&key).expect("get sends")).expect("get ok");
                    assert_eq!(got.payload.as_slice(), bytes.as_slice(), "{key} mangled");
                }
            });
        }
    });

    // Every object from every connection survived, read over one more
    // fresh connection per tenant.
    for c in 0..32u64 {
        let tenant = format!("tenant-{}", c % 4);
        let mut reader = ServeClient::builder(&tenant).connect(&addr).expect("reader connects");
        for round in 0..4u64 {
            let key = format!("conn-{c:02}-round-{round}.bin");
            let bytes = payload(c * 1000 + round, 256 + (c as usize * 13) % 1024);
            let got = expect_ok(reader.get(&key).expect("get sends")).expect("object preserved");
            assert_eq!(got.payload.as_slice(), bytes.as_slice());
        }
    }

    // The idle connections were never starved out: each still answers.
    for client in idle.iter_mut() {
        expect_ok(client.stat().expect("idle connection still wired")).expect("stat ok");
    }

    service.request_shutdown();
    server.join();
}

#[test]
fn tenants_are_isolated_even_under_identical_keys() {
    let (server, service, _) = start_server(2, Duration::ZERO);
    let addr = server.addr().to_string();

    let atlas_bytes = payload(1, 128);
    let cms_bytes = payload(2, 128);
    assert_ne!(atlas_bytes.as_slice(), cms_bytes.as_slice());

    let mut atlas = ServeClient::builder("atlas").connect(&addr).expect("connect");
    let mut cms = ServeClient::builder("cms").connect(&addr).expect("connect");
    expect_ok(atlas.put("shared.bin", ObjectKind::Opaque, &atlas_bytes).unwrap()).unwrap();
    expect_ok(cms.put("shared.bin", ObjectKind::Opaque, &cms_bytes).unwrap()).unwrap();
    expect_ok(atlas.put("atlas-only.bin", ObjectKind::Opaque, &atlas_bytes).unwrap()).unwrap();

    // Same key, different tenants, different bytes — no bleed-through.
    let got = expect_ok(atlas.get("shared.bin").unwrap()).unwrap();
    assert_eq!(got.payload.as_slice(), atlas_bytes.as_slice());
    let got = expect_ok(cms.get("shared.bin").unwrap()).unwrap();
    assert_eq!(got.payload.as_slice(), cms_bytes.as_slice());

    // A third tenant sees nothing at all.
    let mut babar = ServeClient::builder("babar").connect(&addr).expect("connect");
    let miss = babar.get("atlas-only.bin").expect("get sends");
    assert_eq!(
        miss.status,
        daspos::serve::Status::NotFound,
        "cross-tenant read must miss, got {:?} ({})",
        miss.status,
        miss.detail
    );

    service.request_shutdown();
    server.join();
}

#[test]
fn background_scrub_repairs_damage_while_traffic_flows() {
    // Fast scrub ticks so the background pass lands mid-test.
    let (server, service, backends) = start_server(2, Duration::from_millis(2));
    let addr = server.addr().to_string();

    let bytes = payload(99, 4096);
    let mut client = ServeClient::builder("atlas").connect(&addr).expect("connect");
    expect_ok(client.put("damaged.bin", ObjectKind::Opaque, &bytes).unwrap()).unwrap();

    // Seed real damage in one replica, behind the service's back.
    let storage_key = "atlas.damaged.bin";
    let stored = backends[0].get(storage_key).expect("replica holds the object");
    let mut raw = stored.as_slice().to_vec();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x80;
    backends[0].put(storage_key, &Bytes::from(raw)).expect("corrupt replica");

    // Keep foreground traffic flowing — but never read the damaged key,
    // so only the background scrubber (not a read-repair on GET) can
    // heal it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut repaired = false;
    let mut round = 0u64;
    while std::time::Instant::now() < deadline {
        let key = format!("traffic-{round:03}.bin");
        let traffic = payload(round, 64);
        expect_ok(client.put(&key, ObjectKind::Opaque, &traffic).unwrap()).unwrap();
        let got = expect_ok(client.get(&key).unwrap()).unwrap();
        assert_eq!(got.payload.as_slice(), traffic.as_slice());
        let healed = backends[0].get(storage_key).expect("replica readable");
        if healed.as_slice() == backends[1].get(storage_key).unwrap().as_slice() {
            repaired = true;
            break;
        }
        round += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(repaired, "background scrub never repaired the corrupted replica");
    assert!(service.stats().scrub_steps() > 0, "scrubber never ran");

    // The healed object reads back byte-identical.
    let got = expect_ok(client.get("damaged.bin").unwrap()).unwrap();
    assert_eq!(got.payload.as_slice(), bytes.as_slice());

    service.request_shutdown();
    server.join();
}
