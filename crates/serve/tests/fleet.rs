//! Fleet-tier integration tests: a real router in front of real
//! `revel_serve` shard processes — consistent-hash forwarding, failover
//! across a SIGKILL, warm restart from the persistent disk tier, and the
//! `--cache-capacity` / `--assert-evictions` gate over the two shipped
//! binaries.

use revel_serve::client::Client;
use revel_serve::fleet::placement::Ring;
use revel_serve::fleet::router::route_fingerprint;
use revel_serve::fleet::{Fleet, FleetConfig, Supervisor, DEFAULT_MAX_RESTARTS};
use revel_serve::protocol::{encode_response, Request, Response};
use revel_serve::server::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fleet_cfg(shards: usize, base_port: u16, snapshot_dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        shards,
        host: "127.0.0.1".to_string(),
        base_port,
        workers: 1,
        queue_capacity: 8,
        snapshot_dir,
        cache_capacity: None,
        max_restarts: DEFAULT_MAX_RESTARTS,
        failpoints: None,
        binary: PathBuf::from(env!("CARGO_BIN_EXE_revel_serve")),
    }
}

fn simulate_req(bench: &str, params: &str, arch: &str) -> Request {
    Request::Simulate {
        bench: bench.to_string(),
        params: params.to_string(),
        arch: arch.to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The full stack: a router server forwarding to two shard processes.
/// A keyed request is answered through the fleet, the roster is visible
/// over the wire, and SIGKILLing the owning shard mid-session loses
/// nothing — the retried request is byte-identical.
#[test]
fn router_forwards_keyed_requests_and_survives_a_shard_kill() {
    let cfg = fleet_cfg(2, 7520, None);
    let fleet = Arc::new(Fleet::new(&cfg.host, &cfg.shard_ports()));
    let sup = Supervisor::start(Arc::clone(&fleet), cfg).expect("spawn shards");
    assert!(fleet.wait_alive(2, Duration::from_secs(30)), "both shards come up");

    let mut server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        ..Default::default()
    })
    .expect("bind router");
    server.set_fleet(Arc::clone(&fleet));
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("router serves"));

    let mut c = Client::connect(&addr).expect("connect router");
    let req = simulate_req("solver", "n=12", "revel");
    let first = c.request(&req).expect("forwarded simulate");
    assert!(matches!(first, Response::Result { verified: true, .. }), "{first:?}");

    // The roster is visible through the router, and the forwarded request
    // landed on the ring owner the placement layer predicts.
    let owner = Ring::build(&[0, 1])
        .route(route_fingerprint(&req).expect("simulate is keyed"))
        .expect("non-empty ring");
    match c.request(&Request::FleetStats).expect("fleet_stats") {
        Response::FleetStats { shards } => {
            assert_eq!(shards.len(), 2);
            assert!(shards.iter().all(|s| s.alive), "{shards:?}");
            assert!(shards[owner].routed >= 1, "owner carried the request: {shards:?}");
        }
        other => panic!("expected fleet_stats, got {other:?}"),
    }

    // SIGKILL the owner: the survivor re-simulates the cell and the answer
    // does not change by a byte.
    assert!(sup.kill_shard(owner, false), "owner had a live process");
    let second = c.request(&req).expect("failover simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &second),
        "failover must not change the answer"
    );

    // Aggregated stats still answer while a shard is down.
    match c.request(&Request::Stats).expect("stats") {
        Response::Stats { engine, .. } => {
            assert!(engine.misses >= 1, "someone simulated the cell: {engine:?}")
        }
        other => panic!("expected stats, got {other:?}"),
    }

    assert_eq!(c.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    handle.join().expect("router thread");
    sup.shutdown();
}

/// A killed shard warm-starts from its disk tier: the respawned process
/// reports the recovered entries and answers the repeat request from disk
/// (disk_hits moves, misses does not) — byte-identical to the pre-kill
/// answer.
#[test]
fn respawned_shard_warm_starts_from_its_disk_tier() {
    let dir = std::env::temp_dir().join(format!("revel-fleet-test-{}", std::process::id()));
    let cfg = fleet_cfg(1, 7530, Some(dir.clone()));
    let fleet = Arc::new(Fleet::new(&cfg.host, &cfg.shard_ports()));
    let sup = Supervisor::start(Arc::clone(&fleet), cfg).expect("spawn shard");
    assert!(fleet.wait_alive(1, Duration::from_secs(30)), "shard comes up");

    let req = simulate_req("qr", "n=12", "revel");
    let first = fleet.forward(&req);
    assert!(matches!(first, Response::Result { .. }), "{first:?}");

    assert!(sup.kill_shard(0, false), "shard had a live process");
    assert!(
        wait_until(Duration::from_secs(30), || fleet.is_alive(0)),
        "shard respawns and probes healthy"
    );

    let shard_addr = format!("127.0.0.1:{}", fleet.shard_port(0).expect("shard 0 exists"));
    let mut direct = Client::connect(&shard_addr).expect("connect shard");
    let before = match direct.request(&Request::Stats).expect("stats") {
        Response::Stats { engine, .. } => engine,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(before.warm_start_entries >= 1, "disk tier recovered the run: {before:?}");

    let again = direct.request(&req).expect("repeat simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &again),
        "disk-served answer must match the live one"
    );
    let after = match direct.request(&Request::Stats).expect("stats") {
        Response::Stats { engine, .. } => engine,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(after.disk_hits, before.disk_hits + 1, "served from disk: {after:?}");
    assert_eq!(after.misses, before.misses, "no re-simulation: {after:?}");

    sup.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The restart circuit: a shard whose respawns keep failing is struck
/// out after `max_restarts` attempts, permanently evicted from the
/// ring, and the fleet degrades to a structured retryable error instead
/// of respawning forever. The `supervisor.respawn` failpoint (scoped to
/// this fleet's base port) makes every respawn attempt fail.
#[test]
fn flapping_shard_trips_the_restart_circuit_and_is_evicted() {
    let mut cfg = fleet_cfg(1, 7560, None);
    cfg.max_restarts = 2;
    let fleet = Arc::new(Fleet::new(&cfg.host, &cfg.shard_ports()));
    let sup = Supervisor::start(Arc::clone(&fleet), cfg).expect("spawn shard");
    assert!(fleet.wait_alive(1, Duration::from_secs(30)), "shard comes up");

    revel_failpoint::arm(
        "supervisor.respawn",
        "7560",
        revel_failpoint::Action::InjectError,
        revel_failpoint::Trigger::From(1),
    );
    assert!(sup.kill_shard(0, false), "shard had a live process");
    assert!(
        wait_until(Duration::from_secs(30), || fleet.is_evicted(0)),
        "circuit opens after max_restarts failed respawns"
    );
    revel_failpoint::disarm("supervisor.respawn", "7560");

    let roster = fleet.roster();
    assert!(roster[0].evicted, "{roster:?}");
    assert!(!roster[0].alive, "{roster:?}");
    assert_eq!(roster[0].restarts, 2, "exactly max_restarts attempts: {roster:?}");
    match fleet.forward(&simulate_req("solver", "n=12", "revel")) {
        Response::Error { kind, retry_after_ms, .. } => {
            assert_eq!(kind, "fleet_unavailable");
            assert!(retry_after_ms.is_some(), "the error must be retryable");
        }
        other => panic!("expected fleet_unavailable, got {other:?}"),
    }
    sup.shutdown();
}

/// Satellite gate: `revel_serve --cache-capacity` bounds the in-memory
/// cache and `revel_client --assert-evictions` pins the evictions from
/// the outside — the shipped binaries, end to end. An absurd floor makes
/// the same gate fail.
#[test]
fn client_asserts_evictions_against_a_capacity_bounded_server() {
    let port = "7541";
    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_revel_serve"))
        .args(["--host", "127.0.0.1", "--port", port, "--workers", "1", "--queue", "8"])
        .args(["--cache-capacity", "2"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .stdin(std::process::Stdio::null())
        .spawn()
        .expect("spawn revel_serve");
    let addr = format!("127.0.0.1:{port}");
    assert!(
        wait_until(Duration::from_secs(30), || Client::connect(&addr).is_ok()),
        "server comes up"
    );

    // Two passes over the smoke replay push 8 distinct simulate cells
    // through a 2-entry cache: evictions are guaranteed.
    let client = |evictions_floor: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_revel_client"))
            .args(["--host", "127.0.0.1", "--port", port, "--connections", "1"])
            .args(["--replay", "ci/smoke.jsonl", "--passes", "2"])
            .args(["--assert-evictions", evictions_floor])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run revel_client")
    };
    assert!(client("1").success(), "a tiny cache under replay load must evict");
    assert!(!client("1000000").success(), "an absurd eviction floor must fail the gate");

    let mut c = Client::connect(&addr).expect("connect for shutdown");
    assert_eq!(c.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exits cleanly after shutdown");
}
