//! The shard supervisor: spawns the worker processes, probes them
//! healthy, respawns the dead with capped exponential backoff, and
//! opens a restart circuit on flapping shards — a shard that keeps
//! dying without ever probing healthy is marked permanently dead and
//! evicted from the ring instead of being respawned forever.

use super::router::Fleet;
use crate::client::Client;
use crate::protocol::{Request, Response};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervisor sweep interval: how quickly a dead shard is noticed.
const TICK: Duration = Duration::from_millis(100);

/// First respawn delay after a death; doubles per consecutive respawn
/// up to [`RESPAWN_BACKOFF_CAP`] and resets once the shard probes
/// healthy.
const RESPAWN_BACKOFF_FLOOR: Duration = Duration::from_millis(250);

/// Ceiling of the exponential respawn backoff.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Default [`FleetConfig::max_restarts`]: consecutive respawns (without
/// an intervening healthy probe) before the circuit opens and the shard
/// is permanently evicted.
pub const DEFAULT_MAX_RESTARTS: u32 = 8;

/// Read timeout on health probes of a freshly spawned shard.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a graceful fleet shutdown waits for a shard process before
/// killing it.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A failpoint spec the supervisor plants into one shard's environment
/// ([`revel_failpoint::ENV_VAR`]): the torture harness's way of arming
/// crash schedules inside a separate OS process.
#[derive(Debug, Clone)]
pub struct ShardFailpoints {
    /// Which shard is the victim.
    pub shard: usize,
    /// The [`revel_failpoint::arm_spec`] string the shard arms at boot.
    pub spec: String,
    /// `false`: armed only on the initial spawn — the respawn comes back
    /// clean (a transient crash). `true`: re-armed on every respawn —
    /// the shard keeps crashing until the restart circuit evicts it (a
    /// flapping shard).
    pub every_spawn: bool,
}

/// How a fleet's worker shards are spawned.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker shards.
    pub shards: usize,
    /// Host shards bind to (and the router dials), normally loopback.
    pub host: String,
    /// Shard `i` listens on `base_port + 1 + i` (the router itself owns
    /// `base_port`).
    pub base_port: u16,
    /// Worker threads per shard (0 = one per core).
    pub workers: usize,
    /// Bounded-queue capacity per shard.
    pub queue_capacity: usize,
    /// Root of the persistent cache; shard `i` gets `<dir>/shard-i`.
    /// `None` disables the disk tier.
    pub snapshot_dir: Option<PathBuf>,
    /// Memory-cache capacity per shard (`None` keeps the default).
    pub cache_capacity: Option<usize>,
    /// Consecutive respawns without a healthy probe before the restart
    /// circuit opens and the shard is permanently evicted
    /// ([`DEFAULT_MAX_RESTARTS`] by default).
    pub max_restarts: u32,
    /// Failpoints to plant into one shard's environment (torture
    /// harness only; `None` in production).
    pub failpoints: Option<ShardFailpoints>,
    /// The `revel_serve` binary to spawn (the router passes its own
    /// `current_exe`; tests pass `CARGO_BIN_EXE_revel_serve`).
    pub binary: PathBuf,
}

impl FleetConfig {
    /// The port shard `id` listens on.
    pub fn shard_port(&self, id: usize) -> u16 {
        self.base_port + 1 + id as u16
    }

    /// The ports of every shard, in id order.
    pub fn shard_ports(&self) -> Vec<u16> {
        (0..self.shards).map(|id| self.shard_port(id)).collect()
    }
}

struct ShardProcess {
    id: usize,
    child: Option<Child>,
    last_spawn: Instant,
    /// Lifetime respawns (mirrored into the fleet roster).
    restarts: u64,
    /// Consecutive respawns without a healthy probe; at
    /// `cfg.max_restarts` the circuit opens.
    strikes: u32,
    /// Current respawn delay (exponential, capped; resets when the
    /// shard probes healthy).
    backoff: Duration,
    /// Circuit open: permanently dead, evicted from the ring, never
    /// respawned or probed again.
    dead: bool,
}

struct Inner {
    cfg: FleetConfig,
    procs: Mutex<Vec<ShardProcess>>,
    stop: AtomicBool,
}

/// Owns the shard processes. [`Supervisor::start`] spawns them plus a
/// monitor thread that probes each shard healthy (flipping it routable in
/// the [`Fleet`]), notices deaths, and respawns with capped exponential
/// backoff — a respawned shard warm-starts from its persistent tier and
/// reclaims its ring slice once it answers a probe, and a shard that
/// flaps through `max_restarts` respawns without ever probing healthy is
/// permanently evicted so the ring routes around it.
/// [`Supervisor::shutdown`] drains the fleet.
pub struct Supervisor {
    fleet: Arc<Fleet>,
    inner: Arc<Inner>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Supervisor {
    /// Spawns every shard process and the monitor thread.
    ///
    /// # Errors
    /// Propagates spawn failures of the initial shard set (later respawn
    /// failures are retried on the next sweep instead).
    pub fn start(fleet: Arc<Fleet>, cfg: FleetConfig) -> std::io::Result<Supervisor> {
        let mut procs = Vec::with_capacity(cfg.shards);
        for id in 0..cfg.shards {
            let child = spawn_shard(&cfg, id, 0)?;
            procs.push(ShardProcess {
                id,
                child: Some(child),
                last_spawn: Instant::now(),
                restarts: 0,
                strikes: 0,
                backoff: RESPAWN_BACKOFF_FLOOR,
                dead: false,
            });
        }
        let inner = Arc::new(Inner { cfg, procs: Mutex::new(procs), stop: AtomicBool::new(false) });
        let monitor = {
            let fleet = Arc::clone(&fleet);
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                while !inner.stop.load(Ordering::SeqCst) {
                    sweep(&fleet, &inner);
                    std::thread::sleep(TICK);
                }
            })
        };
        Ok(Supervisor { fleet, inner, monitor: Mutex::new(Some(monitor)) })
    }

    /// SIGKILLs shard `id` (no drain, no flush — the failure the fleet is
    /// built to survive). Returns false when the shard has no live
    /// process. The monitor notices and respawns after its backoff.
    /// `wipe_snapshot` removes the shard's persistent-cache directory
    /// between the kill and the respawn, so the shard comes back
    /// cache-cold instead of warm-starting from disk (the
    /// `cache_cold_stampede` scenario).
    pub fn kill_shard(&self, id: usize, wipe_snapshot: bool) -> bool {
        let mut procs = self.inner.procs.lock().expect("procs lock");
        let Some(proc_) = procs.iter_mut().find(|p| p.id == id) else { return false };
        let Some(mut child) = proc_.child.take() else { return false };
        let _ = child.kill();
        let _ = child.wait();
        if wipe_snapshot {
            if let Some(dir) = &self.inner.cfg.snapshot_dir {
                let _ = std::fs::remove_dir_all(dir.join(format!("shard-{id}")));
            }
        }
        self.fleet.mark_down(id);
        true
    }

    /// Graceful teardown: stop the monitor, ask every live shard to
    /// drain via the protocol's `shutdown` op, wait bounded, then kill
    /// stragglers. Takes `&self` so a frontend can share the supervisor
    /// with the scripted-kill hook behind an `Arc`; extra calls are
    /// no-ops.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.lock().expect("monitor lock").take() {
            let _ = monitor.join();
        }
        self.fleet.shutdown_shards();
        let mut procs = self.inner.procs.lock().expect("procs lock");
        for proc_ in procs.iter_mut() {
            let Some(mut child) = proc_.child.take() else { continue };
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
            self.fleet.mark_down(proc_.id);
        }
    }
}

/// One monitor pass: reap deaths, respawn (exponential backoff, circuit
/// at `max_restarts` consecutive strikes), probe not-yet-routable shards
/// healthy.
fn sweep(fleet: &Fleet, inner: &Inner) {
    let mut procs = inner.procs.lock().expect("procs lock");
    for proc_ in procs.iter_mut() {
        if proc_.dead {
            continue;
        }
        if let Some(child) = &mut proc_.child {
            if let Ok(Some(status)) = child.try_wait() {
                eprintln!(
                    "revel-serve: shard {} exited ({status}); respawning in {:?}",
                    proc_.id, proc_.backoff
                );
                proc_.child = None;
                fleet.mark_down(proc_.id);
            }
        }
        if proc_.child.is_none() {
            if proc_.strikes >= inner.cfg.max_restarts {
                eprintln!(
                    "revel-serve: shard {} flapping ({} respawn(s) without a healthy probe); \
                     opening the restart circuit and evicting it from the ring",
                    proc_.id, proc_.strikes
                );
                proc_.dead = true;
                fleet.evict(proc_.id);
                continue;
            }
            if proc_.last_spawn.elapsed() >= proc_.backoff {
                proc_.restarts += 1;
                proc_.strikes += 1;
                fleet.record_restart(proc_.id);
                proc_.backoff = (proc_.backoff * 2).min(RESPAWN_BACKOFF_CAP);
                match spawn_shard(&inner.cfg, proc_.id, proc_.restarts) {
                    Ok(child) => proc_.child = Some(child),
                    Err(e) => {
                        eprintln!("revel-serve: shard {} respawn failed: {e}", proc_.id);
                    }
                }
                proc_.last_spawn = Instant::now();
            }
        }
        if proc_.child.is_some() && !fleet.is_alive(proc_.id) && probe(inner, proc_.id) {
            // A healthy probe closes the strike window: the next death
            // starts the backoff ladder from the floor again.
            proc_.strikes = 0;
            proc_.backoff = RESPAWN_BACKOFF_FLOOR;
            fleet.mark_up(proc_.id);
        }
    }
}

/// One health probe: connect and ask; any structured answer means the
/// shard is serving.
fn probe(inner: &Inner, id: usize) -> bool {
    let addr = format!("{}:{}", inner.cfg.host, inner.cfg.shard_port(id));
    let Ok(mut client) = Client::connect(&addr) else { return false };
    let _ = client.set_read_timeout(Some(PROBE_TIMEOUT));
    matches!(client.request(&Request::Health), Ok(Response::Health { .. }))
}

/// Spawn attempt `spawn_no` (0 = initial) of shard `id`. The
/// `supervisor.respawn` failpoint (context: the fleet's base port) sits
/// at the top so schedules can fail the spawn itself; the configured
/// [`ShardFailpoints`] ride into the child's environment.
fn spawn_shard(cfg: &FleetConfig, id: usize, spawn_no: u64) -> std::io::Result<Child> {
    revel_failpoint::hit_with("supervisor.respawn", || cfg.base_port.to_string())?;
    let mut cmd = Command::new(&cfg.binary);
    cmd.arg("--host")
        .arg(&cfg.host)
        .arg("--port")
        .arg(cfg.shard_port(id).to_string())
        .arg("--workers")
        .arg(cfg.workers.to_string())
        .arg("--queue")
        .arg(cfg.queue_capacity.to_string())
        .arg("--shard-id")
        .arg(id.to_string());
    if let Some(dir) = &cfg.snapshot_dir {
        cmd.arg("--snapshot-dir").arg(dir.join(format!("shard-{id}")));
    }
    if let Some(cap) = cfg.cache_capacity {
        cmd.arg("--cache-capacity").arg(cap.to_string());
    }
    // Never let a spec in the frontend's own environment leak into every
    // shard; the victim (and only the victim) gets its plan explicitly.
    cmd.env_remove(revel_failpoint::ENV_VAR);
    if let Some(fp) = &cfg.failpoints {
        if fp.shard == id && (spawn_no == 0 || fp.every_spawn) {
            cmd.env(revel_failpoint::ENV_VAR, &fp.spec);
        }
    }
    // Shard diagnostics ride the router's stderr; stdout stays quiet.
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit()).stdin(Stdio::null());
    cmd.spawn()
}
