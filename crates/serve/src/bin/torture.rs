//! Failpoint-driven crash-consistency torture harness (DESIGN.md §17).
//!
//! First a **clean-SIGKILL plan** proves the scale-out tier's acceptance
//! criteria live on a fresh fleet (DESIGN.md §15):
//!
//! * every work-plane reply — cold, warm, and across a SIGKILL of the
//!   shard owning the replay's first cacheable cell — is byte-identical
//!   to a standalone server's answer;
//! * the warm replay meets the hit-rate (>= 0.80) and p99 (<= 250 ms)
//!   floors;
//! * the respawned shard warm-starts from its disk tier
//!   (`warm_start_entries > 0`) and serves a probe cell from disk
//!   (`disk_hits` moves, `misses` does not);
//! * every roster shard ends alive and carried routed traffic.
//!
//! Then it runs N seeded *schedules*. Each schedule derives a fault plan
//! from its seed ([`revel_failpoint::FailPlan`]), plants it into one
//! victim shard of a fresh fleet via `REVEL_FAILPOINTS`, replays the CI
//! smoke traffic through the router, and gates three invariants:
//!
//! 1. **Byte-identity** — every work-plane reply, across every pass and
//!    every crash, is byte-identical to a standalone server's answer
//!    (which the differential gate pins to `Bench::run`);
//! 2. **Disk integrity** — a crashed-and-respawned shard warm-starts
//!    from its persistent tier: recovered entries serve, damage surfaces
//!    as *structured cold starts*, and no reply is ever served from a
//!    torn record (a torn record changing an answer would break gate 1);
//! 3. **Convergence** — the fleet ends every schedule in a settled
//!    state: the victim back alive (crash plans), untouched (error
//!    plans), or permanently evicted by the restart circuit (flap
//!    plans) with the ring routing around it.
//!
//! ```text
//! torture --port 7481 --shards 2 --schedules 32 --seed 1 \
//!         --replay crates/serve/ci/smoke.jsonl --summary /tmp/torture.sum
//! torture --port 7471 --shards 3 --schedules 0   # the kill plan alone
//! ```
//!
//! The kill plan uses ports `port..=port+shards`; each schedule uses the
//! next `shards + 1` ports. The per-schedule summary lines contain only
//! facts that are pure functions of the seed (victim, plan, mode), so two
//! runs with the same seed produce identical summaries — CI diffs them.
//! Timing-dependent diagnostics (the kill plan's gates, observed
//! restarts, cold-start counts) go to stdout and stderr. The router runs
//! in-process (so the harness can SIGKILL a shard through the
//! supervisor); the shards are real `revel_serve` processes. Exits 0 when
//! every gate passes, 1 otherwise.

use revel_failpoint::{splitmix64, Action, FailPlan};
use revel_serve::client::{fmt_ms, percentile, Client};
use revel_serve::fleet::placement::Ring;
use revel_serve::fleet::router::route_fingerprint;
use revel_serve::fleet::{Fleet, FleetConfig, ShardFailpoints, Supervisor, DEFAULT_MAX_RESTARTS};
use revel_serve::harness::{is_work_plane, replay_once, standalone_reference};
use revel_serve::protocol::{decode_request, read_all_frames, EngineStatsWire, Request, Response};
use revel_serve::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Crash-plan sites: places where a hard abort models power loss at a
/// particularly unkind instruction.
const CRASH_SITES: &[&str] = &[
    "persist.append.mid-write",
    "persist.append.before-flush",
    "serve.reply.pre-write",
    "engine.serve.disk-lookup",
];

/// Error-plan sites: places where an injected `io::Error` must degrade
/// persistence without touching the answer (appends are best-effort).
const EIO_SITES: &[&str] = &["persist.append.before-write", "persist.append.before-flush"];

/// Flap-plan site: aborting *every* reply (probe replies included) makes
/// the victim die on every respawn, which must trip the restart circuit.
const FLAP_SITE: &str = "serve.reply.pre-write";

/// How long a schedule waits for fleet state transitions (boot, respawn,
/// eviction) before declaring the invariant violated.
const SETTLE: Duration = Duration::from_secs(60);

/// Passes the kill plan replays while a shard is killed: enough traffic
/// that the dead shard's keys demonstrably fail over and the respawned
/// shard is hit.
const KILL_PASSES: usize = 6;

/// The running supervisor, stashed so a failed gate can reap the shard
/// fleet before exiting instead of leaking processes onto the ports.
static SUPERVISOR: std::sync::Mutex<Option<Supervisor>> = std::sync::Mutex::new(None);

fn teardown_and_exit(code: i32) -> ! {
    let sup = SUPERVISOR.lock().ok().and_then(|mut slot| slot.take());
    if let Some(sup) = sup {
        sup.shutdown();
    }
    std::process::exit(code)
}

struct Args {
    port: u16,
    shards: usize,
    schedules: u64,
    seed: u64,
    max_restarts: u32,
    replay: String,
    summary: Option<PathBuf>,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        port: 7481,
        shards: 2,
        schedules: 32,
        seed: 1,
        max_restarts: 2,
        replay: "crates/serve/ci/smoke.jsonl".to_string(),
        summary: None,
        serve_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--port" => a.port = parse(&val("--port"), "--port"),
            "--shards" => a.shards = parse(&val("--shards"), "--shards"),
            "--schedules" => a.schedules = parse(&val("--schedules"), "--schedules"),
            "--seed" => a.seed = parse(&val("--seed"), "--seed"),
            "--max-restarts" => a.max_restarts = parse(&val("--max-restarts"), "--max-restarts"),
            "--replay" => a.replay = val("--replay"),
            "--summary" => a.summary = Some(PathBuf::from(val("--summary"))),
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(val("--serve-bin"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if a.shards < 2 {
        usage("--shards needs at least 2 (a fleet of one cannot fail over)");
    }
    a
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("torture: {err}");
    }
    eprintln!(
        "usage: torture [--port P] [--shards N] [--schedules N] [--seed S] [--max-restarts N] \
         [--replay FILE] [--summary FILE] [--serve-bin PATH]"
    );
    std::process::exit(2);
}

fn gate(cond: bool, plan: &str, what: &str) {
    if !cond {
        eprintln!("torture: GATE FAILED ({plan}): {what}");
        teardown_and_exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("torture: {msg}");
    teardown_and_exit(1);
}

type Replies = HashMap<u64, String>;

/// A replay file: raw frames plus their decoded `(id, request)` pairs.
struct Replay {
    frames: Vec<String>,
    decoded: Vec<(u64, Request)>,
}

impl Replay {
    fn load(path: &str) -> Replay {
        let file = std::fs::File::open(path)
            .unwrap_or_else(|e| fatal(&format!("cannot open {path}: {e}")));
        let frames = read_all_frames(std::io::BufReader::new(file))
            .unwrap_or_else(|e| fatal(&e.to_string()));
        let decoded = frames
            .iter()
            .map(|f| decode_request(f).unwrap_or_else(|e| fatal(&format!("bad replay frame: {e}"))))
            .collect();
        Replay { frames, decoded }
    }

    /// Ids of the frames whose answers must match the reference.
    fn work_ids(&self) -> Vec<u64> {
        self.decoded.iter().filter(|(_, r)| is_work_plane(r)).map(|(id, _)| *id).collect()
    }
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn replay(addr: &str, frames: &[String], latencies: Option<&mut Vec<Duration>>) -> Replies {
    replay_once(addr, frames, latencies).unwrap_or_else(|e| fatal(&e))
}

fn identical(got: &Replies, reference: &Replies, work_ids: &[u64]) -> bool {
    work_ids.iter().all(|id| got.get(id) == reference.get(id))
}

fn engine_stats(client: &mut Client) -> EngineStatsWire {
    match client.request(&Request::Stats) {
        Ok(Response::Stats { engine, .. }) => engine,
        other => fatal(&format!("stats request got {other:?}")),
    }
}

/// Boots a fleet for `cfg` behind an in-process router on
/// `cfg.base_port` and stashes its supervisor for teardown. Returns the
/// fleet, the router address, and the router thread.
fn boot_fleet(cfg: FleetConfig) -> (Arc<Fleet>, String, JoinHandle<()>) {
    let router_addr = format!("127.0.0.1:{}", cfg.base_port);
    let mut router = Server::bind(&ServerConfig {
        addr: router_addr.clone(),
        workers: 4,
        queue_capacity: 64,
        ..Default::default()
    })
    .unwrap_or_else(|e| fatal(&format!("bind router on {router_addr}: {e}")));
    let fleet = Arc::new(Fleet::new(&cfg.host, &cfg.shard_ports()));
    let supervisor = Supervisor::start(Arc::clone(&fleet), cfg)
        .unwrap_or_else(|e| fatal(&format!("spawn shards: {e}")));
    *SUPERVISOR.lock().expect("supervisor slot") = Some(supervisor);
    router.set_fleet(Arc::clone(&fleet));
    let router_thread = std::thread::spawn(move || {
        let stats = router.serve().expect("router serves");
        eprintln!("torture: router final counters: {stats}");
    });
    (fleet, router_addr, router_thread)
}

/// Drains the router, then reaps the shards.
fn shutdown_fleet(router_addr: &str, router_thread: JoinHandle<()>) {
    let mut control =
        Client::connect(router_addr).unwrap_or_else(|e| fatal(&format!("connect router: {e}")));
    let _ = control.request(&Request::Shutdown);
    router_thread.join().expect("router thread");
    if let Some(sup) = SUPERVISOR.lock().expect("supervisor slot").take() {
        sup.shutdown();
    }
}

fn fleet_cfg(args: &Args, base_port: u16, snapshot_dir: &Path, serve_bin: &Path) -> FleetConfig {
    FleetConfig {
        shards: args.shards,
        host: "127.0.0.1".to_string(),
        base_port,
        workers: 2,
        queue_capacity: 32,
        snapshot_dir: Some(snapshot_dir.to_path_buf()),
        cache_capacity: None,
        max_restarts: args.max_restarts,
        failpoints: None,
        binary: serve_bin.to_path_buf(),
    }
}

/// The clean-SIGKILL plan: a fleet with no failpoints, one shard killed
/// mid-replay by the supervisor, gated on byte-identity, the warm
/// floors, a warm restart from disk, and a fully recovered roster.
fn kill_plan(args: &Args, replay_file: &Replay, reference: &Replies, serve_bin: &Path) {
    let (frames, work_ids) = (&replay_file.frames, &replay_file.work_ids());
    let ok = |cond: bool, what: &str| {
        gate(cond, "kill plan", what);
        println!("torture: kill plan ok — {what}");
    };
    let snapshot_dir =
        std::env::temp_dir().join(format!("revel-torture-{}-kill", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let (fleet, router_addr, router_thread) = boot_fleet(FleetConfig {
        max_restarts: DEFAULT_MAX_RESTARTS,
        ..fleet_cfg(args, args.port, &snapshot_dir, serve_bin)
    });
    ok(fleet.wait_alive(args.shards, Duration::from_secs(20)), "all shards probed healthy");

    let cold = replay(&router_addr, frames, None);
    ok(
        identical(&cold, reference, work_ids),
        "cold replay byte-identical to the standalone server",
    );

    let mut control =
        Client::connect(&router_addr).unwrap_or_else(|e| fatal(&format!("connect router: {e}")));
    let before = engine_stats(&mut control);
    let mut latencies = Vec::new();
    let warm = replay(&router_addr, frames, Some(&mut latencies));
    let after = engine_stats(&mut control);
    ok(
        identical(&warm, reference, work_ids),
        "warm replay byte-identical to the standalone server",
    );
    let d_hits = after.hits.saturating_sub(before.hits);
    let d_misses = after.misses.saturating_sub(before.misses);
    let hit_rate =
        if d_hits + d_misses == 0 { 0.0 } else { d_hits as f64 / (d_hits + d_misses) as f64 };
    println!("torture: warm window: {d_hits} hit(s), {d_misses} miss(es) (rate {hit_rate:.3})");
    ok(hit_rate >= 0.80, "warm hit rate >= 0.80");
    let p99 = percentile(&latencies, 99.0);
    println!("torture: warm p99 {}", fmt_ms(p99));
    ok(p99 <= Duration::from_millis(250), "warm p99 <= 250ms");

    // The victim owns the replay's first cacheable simulate cell
    // (deterministic — the ring is a pure function of the shard set), so
    // the kill demonstrably displaces live keys.
    let ring = Ring::build(&(0..args.shards).collect::<Vec<_>>());
    let victim = replay_file
        .decoded
        .iter()
        .find_map(|(_, req)| match req {
            Request::Simulate { bench, max_cycles: None, .. }
                if bench != revel_serve::probe::BENCH_NAME =>
            {
                ring.route(route_fingerprint(req)?)
            }
            _ => None,
        })
        .unwrap_or_else(|| fatal("no cacheable simulate frame in the replay file"));

    // Seed a private cell onto the victim's disk before the kill: a cell
    // the replay never references, sent directly to the shard (bypassing
    // the router). After the respawn nothing can have pre-loaded it into
    // the memory cache, so probing it isolates the disk tier.
    let probe_req = Request::Simulate {
        bench: "fft".to_string(),
        params: "n=64".to_string(),
        arch: "dataflow".to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    };
    let shard_addr =
        format!("127.0.0.1:{}", fleet.shard_port(victim).expect("victim is in the roster"));
    let mut direct =
        Client::connect(&shard_addr).unwrap_or_else(|e| fatal(&format!("connect shard: {e}")));
    let seeded = direct.request(&probe_req).unwrap_or_else(|e| fatal(&format!("seed: {e}")));
    ok(matches!(seeded, Response::Result { .. }), "probe cell seeded onto the victim's disk tier");
    drop(direct);
    println!("torture: kill plan: killing shard {victim} mid-replay (SIGKILL)");

    // SIGKILL the victim after the first pass of a multi-pass replay;
    // every frame of every pass is still answered byte-identically.
    let passes_done = AtomicUsize::new(0);
    let kill_results: Vec<Replies> = std::thread::scope(|s| {
        let replayer = s.spawn(|| {
            (0..KILL_PASSES)
                .map(|_| {
                    let r = replay(&router_addr, frames, None);
                    passes_done.fetch_add(1, Ordering::SeqCst);
                    r
                })
                .collect()
        });
        while passes_done.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let killed = SUPERVISOR
            .lock()
            .expect("supervisor slot")
            .as_ref()
            .is_some_and(|sup| sup.kill_shard(victim, false));
        ok(killed, "victim shard had a live process to kill");
        replayer.join().expect("replay thread")
    });
    ok(
        kill_results.iter().all(|pass| identical(pass, reference, work_ids)),
        "every frame answered byte-identically across the kill",
    );

    // The victim respawns, warm-starts from disk, and serves the probe
    // from the persistent tier without simulating.
    ok(
        wait_for(Duration::from_secs(20), || fleet.is_alive(victim)),
        "killed shard respawned and probed healthy",
    );
    let mut direct =
        Client::connect(&shard_addr).unwrap_or_else(|e| fatal(&format!("connect shard: {e}")));
    let before = engine_stats(&mut direct);
    ok(before.warm_start_entries > 0, "respawned shard recovered entries from disk");
    let resp = direct.request(&probe_req).unwrap_or_else(|e| fatal(&format!("probe: {e}")));
    ok(matches!(resp, Response::Result { .. }), "respawned shard answered the probe cell");
    ok(resp == seeded, "disk-served probe byte-identical to the pre-kill answer");
    let after = engine_stats(&mut direct);
    ok(
        after.disk_hits == before.disk_hits + 1,
        "probe was served from the disk tier (disk_hits moved)",
    );
    ok(after.misses == before.misses, "probe ran no simulation (misses unchanged)");

    // Roster sanity through the router: every shard is alive again and
    // carried traffic. (`failed` stays 0 on a supervised kill — the
    // supervisor marks the victim down before the router can trip over
    // it; the failover itself is proven by the byte-identity gate above.)
    match control.request(&Request::FleetStats) {
        Ok(Response::FleetStats { shards }) => {
            for s in &shards {
                println!(
                    "torture: kill plan: shard {} port {} alive={} routed={} failed={}",
                    s.shard, s.port, s.alive, s.routed, s.failed
                );
            }
            ok(shards.len() == args.shards, "fleet_stats reports the full roster");
            ok(shards.iter().all(|s| s.alive), "fleet_stats reports every shard alive");
            ok(shards.iter().all(|s| s.routed > 0), "every shard carried routed traffic");
        }
        other => fatal(&format!("fleet_stats got {other:?}")),
    }

    shutdown_fleet(&router_addr, router_thread);
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}

/// Expected terminal class of a plan — a pure function of the plan, so
/// it is safe to put in the deterministic summary. `flap` plans must end
/// evicted; `error` plans must be survived without a restart; `crash`
/// plans must end converged with every shard alive (the abort fires at
/// most once — whether its site collects enough hits to fire at all can
/// depend on ring placement, so the gate is convergence, not a restart
/// count).
fn mode_of(plan: &FailPlan) -> &'static str {
    match (&plan.action, plan.every_hit) {
        (Action::Abort, true) => "flap",
        (Action::InjectError, _) => "error",
        _ => "crash",
    }
}

/// One torture schedule: fresh fleet, one armed victim, replay, gates.
/// Returns the deterministic summary line.
fn run_schedule(
    args: &Args,
    idx: u64,
    frames: &[String],
    work_ids: &[u64],
    reference: &Replies,
    serve_bin: &Path,
) -> String {
    let seed = args.seed.wrapping_add(idx);
    let plan = FailPlan::from_seed(seed, CRASH_SITES, EIO_SITES, FLAP_SITE);
    let mode = mode_of(&plan);
    let mut victim_state = seed ^ 0xd6e8_feb8_6659_fd93;
    let victim = (splitmix64(&mut victim_state) % args.shards as u64) as usize;
    // The kill plan holds the first block of ports.
    let base_port = args.port + (idx as u16 + 1) * (args.shards as u16 + 1);
    let snapshot_dir =
        std::env::temp_dir().join(format!("revel-torture-{}-{idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    eprintln!(
        "torture: schedule {idx}: seed {seed}, victim shard {victim}, plan '{}' ({mode}), \
         ports {base_port}..{}",
        plan.spec(),
        base_port + args.shards as u16
    );

    let (fleet, router_addr, router_thread) = boot_fleet(FleetConfig {
        failpoints: Some(ShardFailpoints {
            shard: victim,
            spec: plan.spec(),
            every_spawn: plan.every_hit,
        }),
        ..fleet_cfg(args, base_port, &snapshot_dir, serve_bin)
    });
    let gate = |cond: bool, what: &str| gate(cond, &format!("schedule {idx}"), what);

    // A flap victim dies on its first probe reply, every spawn — it can
    // never be part of the healthy set.
    let expect_up = if mode == "flap" { args.shards - 1 } else { args.shards };
    gate(
        fleet.wait_alive(expect_up, SETTLE),
        &format!("{expect_up} shard(s) probed healthy at boot"),
    );

    // Invariant 1, passes A (cold) and B (warm): byte-identity to the
    // standalone reference across whatever the plan does mid-replay.
    for pass in ["cold", "warm"] {
        let got = replay(&router_addr, frames, None);
        gate(
            identical(&got, reference, work_ids),
            &format!("{pass} replay byte-identical to the standalone server"),
        );
    }

    // Invariant 3: the fleet settles into the mode's terminal state.
    match mode {
        "flap" => {
            gate(
                wait_for(SETTLE, || fleet.is_evicted(victim)),
                "flapping victim permanently evicted by the restart circuit",
            );
            let roster = fleet.roster();
            gate(roster[victim].evicted, "roster reports the victim evicted");
            gate(
                roster[victim].restarts == u64::from(args.max_restarts),
                "the circuit opened after exactly max_restarts respawns",
            );
        }
        "error" => {
            // An injected io::Error must never kill anything: appends are
            // best-effort, lookups degrade to a miss.
            gate(fleet.is_alive(victim), "error-plan victim still alive");
            gate(!fleet.is_evicted(victim), "error-plan victim not evicted");
            gate(fleet.restarts(victim) == 0, "error-plan victim survived without a restart");
        }
        _ => {
            // Crash plans: the abort fires at most once, so the victim
            // (whether or not its site collected enough hits to die)
            // must end alive, un-evicted, with at most one restart.
            gate(
                wait_for(SETTLE, || fleet.is_alive(victim)),
                "crash-plan victim alive after the schedule",
            );
            gate(!fleet.is_evicted(victim), "crash-plan victim not evicted");
            gate(fleet.restarts(victim) <= 1, "a one-shot abort respawns at most once");
        }
    }

    // Invariant 2: when the victim actually died and came back, its disk
    // tier must be serving sane state — recovered entries and structured
    // cold starts only. Gate 1's pass C (below) proves no torn record
    // ever changes an answer; here we prove the tier itself reopened.
    let restarts = fleet.restarts(victim);
    if mode != "flap" && restarts > 0 {
        let shard_addr = format!("127.0.0.1:{}", fleet.shard_port(victim).expect("victim port"));
        let mut direct = Client::connect(&shard_addr)
            .unwrap_or_else(|e| fatal(&format!("connect respawned victim: {e}")));
        match direct.request(&Request::Stats) {
            Ok(Response::Stats { engine, .. }) => {
                eprintln!(
                    "torture: schedule {idx}: victim respawned ({restarts} restart(s)); disk \
                     tier: {} warm entr{}, {} cold start(s)",
                    engine.warm_start_entries,
                    if engine.warm_start_entries == 1 { "y" } else { "ies" },
                    engine.disk_cold_starts
                );
            }
            other => gate(false, &format!("respawned victim answers stats (got {other:?})")),
        }
    } else {
        eprintln!("torture: schedule {idx}: victim restarts observed: {restarts}");
    }

    // Pass C: after convergence, the settled fleet (respawned victim,
    // warm disk tiers, or reduced ring) still answers byte-identically.
    let settled = replay(&router_addr, frames, None);
    gate(
        identical(&settled, reference, work_ids),
        "settled replay byte-identical to the standalone server",
    );

    // Teardown: drain the router, reap the shards, drop the schedule's
    // disk state.
    shutdown_fleet(&router_addr, router_thread);
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    format!(
        "torture: schedule={idx} seed={seed} victim={victim} mode={mode} plan={} \
         shards={} max_restarts={} outcome=ok",
        plan.spec(),
        args.shards,
        args.max_restarts
    )
}

fn main() {
    let args = parse_args();
    let replay_file = Replay::load(&args.replay);
    let work_ids = replay_file.work_ids();
    if work_ids.is_empty() {
        fatal("replay file holds no work-plane frames");
    }
    let serve_bin = args.serve_bin.clone().unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("own path");
        p.set_file_name("revel_serve");
        p
    });

    // Ground truth once: the pre-fleet serving path every plan must match
    // byte for byte.
    let reference = standalone_reference(&replay_file.frames).unwrap_or_else(|e| fatal(&e));

    kill_plan(&args, &replay_file, &reference, &serve_bin);

    let mut summary = Vec::with_capacity(args.schedules as usize);
    for idx in 0..args.schedules {
        summary.push(run_schedule(
            &args,
            idx,
            &replay_file.frames,
            &work_ids,
            &reference,
            &serve_bin,
        ));
    }

    for line in &summary {
        println!("{line}");
    }
    if let Some(path) = &args.summary {
        std::fs::write(path, summary.join("\n") + "\n")
            .unwrap_or_else(|e| fatal(&format!("write {}: {e}", path.display())));
    }
    println!(
        "torture: PASS — kill plan and {} schedule(s), {} shard(s) each, zero invariant violations",
        args.schedules, args.shards
    );
}
