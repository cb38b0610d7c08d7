//! Per-layer probes for the traced run. Each probe times a public call of
//! one layer (named by its module) from the benchmark's own code, records
//! it as a span, and reports the figure under the layer's metric names.

use crate::oracle;
use crate::proc::free_port_run;
use crate::serving::{boot_fleet, certified_small_revel};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;
use revel_bench::grid::Cell;
use revel_core::engine::persist::{fingerprint, PersistentTier};
use revel_core::engine::{self, key_fingerprint};
use revel_core::fabric::{FabricMask, Mesh};
use revel_core::isa::Rng;
use revel_core::scheduler::SpatialScheduler;
use revel_core::sim::Machine;
use revel_core::verify::{certify, Verifier};
use revel_core::workloads::{batch_replayable, record_timing, replay_trace_on, run_built_with};
use revel_serve::client::Client;
use revel_serve::fleet::Fleet;
use revel_serve::protocol::{decode_response, encode_request, Request, Response};
use revel_traffic::stream_seed;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cells each traced run probes in depth (drawn by seed from the
/// workload's own cells).
const PROBE_CELLS: usize = 2;
/// Datasets replayed per probed certified cell.
const REPLAYS: usize = 8;
/// Round trips per latency probe.
const RTTS: usize = 200;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Compiler, verify, scheduler, sim, batch and engine probes on up to
/// [`PROBE_CELLS`] of `cells`.
pub fn cell_probes(
    cells: &[Cell],
    seed: u64,
    tracer: &Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(stream_seed(seed, 0x7072_6F62));
    let mut picked: Vec<Cell> = Vec::new();
    while picked.len() < PROBE_CELLS.min(cells.len()) {
        let c = cells[rng.gen_index(cells.len())];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    let (mut build, mut lint, mut cert, mut place, mut run) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut lints, mut configs, mut cycles, mut skipped, mut run_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u128);
    let mut replay_cell = None;
    for cell in &picked {
        let cfg = &cell.cfg;
        let mc = cfg.machine_config();
        let (built, d) = tracer
            .time(None, "compiler", "Workload::build", 1, |_| cell.bench.workload().build(cfg));
        build.push(ms(d));
        let verifier = Verifier::program_only();
        let n = verifier.lints().len() as u64;
        let (diags, d) = tracer
            .time(None, "verify", "Verifier::verify", n, |_| verifier.verify(&built.program, &mc));
        black_box(diags);
        lint.push(ms(d));
        lints += n;
        let (c, d) = tracer.time(None, "verify", "certify", 1, |_| certify(&built.program, &mc));
        cert.push(ms(d));
        if c.is_ok() && replay_cell.is_none() {
            replay_cell = Some(*cell);
        }
        let sched = SpatialScheduler::new(Mesh::for_lane(&mc.lane))
            .with_dpe_slots(mc.lane.dpe_instr_slots)
            .with_sa_iterations(2000);
        for regions in &built.program.configs {
            let (r, d) = tracer.time(None, "scheduler", "reschedule_degraded", 1, |_| {
                sched.reschedule_degraded(regions, FabricMask::HEALTHY)
            });
            r.map_err(|e| format!("scheduling {:?}: {e}", cell.bench))?;
            place.push(ms(d));
            configs += 1;
        }
        // Warm the lint and schedule caches, then time the simulation alone.
        run_built_with(&built, cfg, cfg.sim_options()).map_err(|e| e.to_string())?;
        let (r, d) = tracer.time(None, "sim", "run_built_with", 1, |_| {
            run_built_with(&built, cfg, cfg.sim_options())
        });
        let r = r.map_err(|e| e.to_string())?;
        run.push(ms(d));
        run_ns += d.as_nanos();
        cycles += r.report.cycles;
        skipped += r.report.stepper.skipped_cycles;
    }
    let stepped = cycles - skipped;
    out.insert("compiler.build_ms".into(), median(&build).unwrap_or(0.0));
    out.insert("verify.lint_ms".into(), median(&lint).unwrap_or(0.0));
    out.insert("verify.lints".into(), lints as f64);
    out.insert("verify.certify_ms".into(), median(&cert).unwrap_or(0.0));
    out.insert("scheduler.place_route_ms".into(), median(&place).unwrap_or(0.0));
    out.insert("scheduler.configs".into(), configs as f64);
    out.insert("sim.run_ms".into(), median(&run).unwrap_or(0.0));
    out.insert("sim.cycles".into(), cycles as f64);
    out.insert("sim.stepped_cycles".into(), stepped as f64);
    out.insert("sim.skipped_cycles".into(), skipped as f64);
    out.insert("sim.ns_per_stepped_cycle".into(), run_ns as f64 / stepped.max(1) as f64);

    // Trace record and replay, on a probed cell when one is certified.
    let cell = match replay_cell {
        Some(c) => c,
        None => *certified_small_revel().first().ok_or("no certified cell to replay")?,
    };
    let cfg = &cell.cfg;
    let built = cell.bench.workload().build(cfg);
    if !batch_replayable(&built, cfg, &cfg.sim_options()) {
        return Err(format!("{:?} is not replayable", cell.bench));
    }
    let (rec, d) = tracer
        .time(None, "batch", "record_timing", 1, |_| record_timing(&built, cfg, cfg.sim_options()));
    let (_, trace) = rec.map_err(|e| e.to_string())?;
    out.insert("batch.record_ms".into(), ms(d));
    let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
    let mut replay = Vec::new();
    for k in 0..REPLAYS {
        let data = cell.bench.workload_seeded(stream_seed(seed, k as u64)).build(cfg);
        let (r, d) = tracer.time(None, "batch", "replay_trace_on", 1, |_| {
            replay_trace_on(&mut machine, &data, &trace)
        });
        r.map_err(|e| e.to_string())?;
        replay.push(us(d));
    }
    out.insert("batch.replay_us_per_dataset".into(), median(&replay).unwrap_or(0.0));
    out.insert("batch.replays".into(), REPLAYS as f64);

    // A memory hit in the engine's run cache.
    let hit = picked[0];
    engine::run_served(hit.bench, &hit.cfg, None).map_err(|e| e.to_string())?;
    const HITS: u32 = 1000;
    let (_, d) = tracer.time(None, "engine", "run_served", u64::from(HITS), |_| {
        for _ in 0..HITS {
            black_box(engine::run_served(black_box(hit.bench), &hit.cfg, None).is_ok());
        }
    });
    out.insert("engine.hit_us".into(), us(d) / f64::from(HITS));
    Ok(())
}

/// Encode and decode cost of the workload's own frames, and their size.
pub fn protocol_probe(
    frames: &[(Request, String)],
    tracer: &Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    if frames.is_empty() {
        return Err("no frames to probe".to_string());
    }
    const REPS: usize = 20;
    let n = (frames.len() * REPS) as f64;
    let (bytes, enc) = tracer.time(None, "protocol", "encode_request", n as u64, |_| {
        let mut bytes = 0;
        for _ in 0..REPS {
            for (i, (req, _)) in frames.iter().enumerate() {
                bytes += black_box(encode_request(i as u64, black_box(req))).len();
            }
        }
        bytes / REPS
    });
    let (ok, dec) = tracer.time(None, "protocol", "decode_response", n as u64, |_| {
        let mut ok = true;
        for _ in 0..REPS {
            for (_, line) in frames {
                ok &= black_box(decode_response(black_box(line))).is_ok();
            }
        }
        ok
    });
    if !ok {
        return Err("a recorded reply frame does not decode".to_string());
    }
    let reply_bytes: usize = frames.iter().map(|(_, l)| l.len() + 1).sum();
    out.insert("protocol.encode_us".into(), us(enc) / n);
    out.insert("protocol.decode_us".into(), us(dec) / n);
    out.insert(
        "protocol.frame_bytes".into(),
        (bytes + reply_bytes) as f64 / (2 * frames.len()) as f64,
    );
    Ok(())
}

fn rtts(
    addr: &str,
    req: &Request,
    tracer: &Tracer,
    layer: &'static str,
    name: &'static str,
) -> Result<f64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let mut v = Vec::with_capacity(RTTS);
    for _ in 0..RTTS {
        let t0 = Instant::now();
        let r = c.request(req).map_err(|e| format!("{name} on {addr}: {e}"))?;
        let t1 = Instant::now();
        if matches!(r, Response::Error { .. } | Response::Overloaded { .. }) {
            return Err(format!("{name} on {addr} answered {r:?}"));
        }
        tracer.record(None, None, layer, name, t0, t1, None, 1);
        v.push(us(t1 - t0));
    }
    Ok(median(&v).expect("RTTS > 0"))
}

/// Round trips the event loop answers inline (`health`) and through its
/// queue and worker (a warm `simulate` of `cell`).
pub fn server_probes(
    addr: &str,
    cell: &Cell,
    tracer: &Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let inline = rtts(addr, &Request::Health, tracer, "server", "health")?;
    let queued = rtts(addr, &oracle::simulate(cell), tracer, "server", "simulate")?;
    out.insert("server.inline_rtt_us".into(), inline);
    out.insert("server.queued_rtt_us".into(), queued - inline);
    Ok(())
}

/// Kills the ring owner of `cell` through the frontend at `addr` and waits
/// until that shard is routable and answers `health` on its own port.
/// Returns the recovery time and the fleet's restart count.
pub fn kill_and_recover(
    addr: &str,
    port: u16,
    cell: &Cell,
    tracer: &Tracer,
) -> Result<(Duration, u64), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let kill = Request::KillShard {
        shard: None,
        bench: Some(cell.bench.name().to_string()),
        params: Some(cell.bench.params()),
        arch: Some(cell.arch.to_string()),
        wipe_snapshot: false,
    };
    let victim = match c.request(&kill) {
        Ok(Response::ShardKilled { shard, .. }) => shard,
        other => return Err(format!("kill_shard answered {other:?}")),
    };
    let killed = Instant::now();
    let shard_addr = format!("127.0.0.1:{}", port + 1 + victim as u16);
    let deadline = killed + Duration::from_secs(60);
    loop {
        let routable = matches!(
            c.request(&Request::FleetStats),
            Ok(Response::FleetStats { ref shards }) if shards.iter().any(|s| s.shard == victim && s.alive)
        );
        let answers = routable
            && Client::connect(&shard_addr)
                .and_then(|mut s| {
                    s.set_read_timeout(Some(Duration::from_secs(2)))?;
                    s.request(&Request::Health)
                })
                .is_ok_and(|r| matches!(r, Response::Health { .. }));
        if answers {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("shard {victim} did not recover within 60 s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let recovered = Instant::now();
    tracer.record(None, None, "supervisor", "respawn", killed, recovered, None, 1);
    let restarts = match c.request(&Request::FleetStats) {
        Ok(Response::FleetStats { shards }) => shards.iter().map(|s| s.restarts).sum(),
        other => return Err(format!("fleet_stats answered {other:?}")),
    };
    Ok((recovered - killed, restarts))
}

/// Router hop and disk-tier probes on a running fleet (frontend on `port`,
/// shard tiers under `dir`).
#[allow(clippy::too_many_arguments)]
pub fn fleet_probes(
    port: u16,
    dir: &Path,
    cells: &[Cell],
    cell: &Cell,
    tracer: &Tracer,
    out_dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    // The router hop: this process's own router over the same shards,
    // against a direct round trip to the owning shard, same frame.
    let fleet = Fleet::new("127.0.0.1", &[port + 1, port + 2]);
    fleet.mark_up(0);
    fleet.mark_up(1);
    let req = oracle::simulate(cell);
    let owner = fleet
        .owner_of_cell(cell.bench.name(), &cell.bench.params(), cell.arch)
        .ok_or("no ring owner")?;
    let mut direct = Client::connect(&format!("127.0.0.1:{}", port + 1 + owner as u16))
        .map_err(|e| e.to_string())?;
    direct.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let (mut fwd, mut dir_rtt) = (Vec::new(), Vec::new());
    for i in 0..RTTS + 10 {
        let t0 = Instant::now();
        let a = fleet.forward(&req);
        let t1 = Instant::now();
        let b = direct.request(&req).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        if a != b {
            return Err(format!("router answered {a:?}, shard answered {b:?}"));
        }
        if i >= 10 {
            tracer.record(None, None, "router", "Fleet::forward", t0, t1, None, 1);
            tracer.record(None, None, "server", "direct", t1, t2, None, 1);
            fwd.push(us(t1 - t0));
            dir_rtt.push(us(t2 - t1));
        }
    }
    out.insert(
        "router.hop_us".into(),
        median(&fwd).expect("rtts") - median(&dir_rtt).expect("rtts"),
    );

    // The disk tier, on a copy of the owner's files.
    let src = dir.join(format!("shard-{owner}"));
    let copy = out_dir.join(format!("tier-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(&src).map_err(|e| format!("{}: {e}", src.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    let (opened, d) =
        tracer.time(None, "persist", "PersistentTier::open", 1, |_| PersistentTier::open(&copy));
    let (mut tier, _) = opened.map_err(|e| e.to_string())?;
    out.insert("persist.open_ms".into(), ms(d));
    let fps: Vec<(u64, u64)> =
        cells.iter().map(|c| key_fingerprint(c.bench, &c.cfg, false)).collect();
    let mut lookups = Vec::new();
    let mut found = None;
    for _ in 0..10 {
        for &fp in &fps {
            let (hit, d) = tracer.time(None, "persist", "lookup", 1, |_| tier.lookup(fp).cloned());
            lookups.push(us(d));
            found = found.or(hit);
        }
    }
    out.insert("persist.lookup_us".into(), median(&lookups).expect("lookups"));
    let rec = found.ok_or("the shard's tier holds none of the grid cells")?;
    let mut appends = Vec::new();
    for i in 0..50 {
        let fp = fingerprint(&format!("revelbench-probe-{i}"));
        let (r, d) = tracer.time(None, "persist", "append", 1, |_| tier.append(fp, &rec));
        r.map_err(|e| e.to_string())?;
        appends.push(us(d));
    }
    out.insert("persist.append_us".into(), median(&appends).expect("appends"));
    drop(tier);
    let _ = std::fs::remove_dir_all(&copy);
    Ok(())
}

/// For workloads that run no fleet: boots a two-shard probe fleet, warms
/// it with `cells`, and takes the router, supervisor and disk-tier probes.
pub fn probe_fleet(
    cells: &[Cell],
    seed: u64,
    tracer: &Tracer,
    out_dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let dir = out_dir.join(format!("probe-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let port = free_port_run(2, seed ^ 0x7072)?;
    let (fleet, _) = boot_fleet(port, &dir, None)?;
    let result = (|| {
        let mut c = Client::connect(&fleet.addr).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        for cell in cells {
            c.request(&oracle::simulate(cell)).map_err(|e| e.to_string())?;
        }
        fleet_probes(port, &dir, cells, &cells[0], tracer, out_dir, out)?;
        let (recovery, restarts) = kill_and_recover(&fleet.addr, port, &cells[0], tracer)?;
        out.insert("supervisor.recovery_ms".into(), ms(recovery));
        out.insert("supervisor.restarts".into(), restarts as f64);
        Ok(())
    })();
    let stopped = fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    result.and(stopped)
}
