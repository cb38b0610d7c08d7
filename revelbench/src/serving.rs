//! The three serving workloads: `serve_warm` (open loop over memory hits),
//! `serve_batch` (closed loop over batched replays) and `fleet_restart`
//! (open loop through a restarted shard fleet, with a shard killed mid-run).

use crate::layers;
use crate::load::{deal, pump, tally, Conn, LanePlan, Reply};
use crate::oracle;
use crate::proc::{free_port_run, wait_until, ServerProc};
use crate::stats::{median, quartiles, tail};
use crate::trace::Tracer;
use crate::Run;
use revel_bench::grid::{self, Cell};
use revel_core::compiler::BuildCfg;
use revel_core::isa::Rng;
use revel_core::workloads::batch_replayable;
use revel_core::{engine, Bench};
use revel_serve::protocol::{encode_response, Request, Response};
use revel_traffic::lane::{Completion, LaneCfg, Outcome};
use revel_traffic::pattern::{PatternEngine, PatternKind};
use revel_traffic::stream_seed;
use std::path::Path;
use std::time::{Duration, Instant};

/// `serve_warm`'s rate ladder: (requests/s, share of the run's seconds).
/// Most of the run goes to the nominal rung, whose percentiles are the
/// reported ones; at 20 s it gets about 9300 arrivals. A rung with fewer
/// than 1000 arrivals is judged at the highest percentile with ten samples
/// beyond it instead of p99.
const LADDER: [(f64, f64); 4] =
    [(250.0, 3.0 / 15.0), (500.0, 2.0 / 15.0), (1000.0, 7.0 / 15.0), (2000.0, 3.0 / 15.0)];
/// The rung whose latencies are reported as `p50_ms` / `p99_ms`.
const NOMINAL_RPS: f64 = 1000.0;
/// The p99 limit a rung must meet to count toward `goodput_per_s`; a rung
/// whose last reply lands later than this after its schedule ends has a
/// growing backlog.
pub const SLO_P99_MS: f64 = 25.0;

/// `fleet_restart`'s arrival rate through the fleet frontend (evenly
/// spaced: the seed varies the cell mix and the victim, not the load).
const FLEET_RPS: f64 = 100.0;
/// Offset of the shard kill, as a share of the measured run.
const KILL_AT: f64 = 1.0 / 3.0;
/// Set-ups per run (the set-up figure is their median): fewer where each
/// pre-warms the whole grid, more where one takes milliseconds.
const WARM_SETUPS: usize = 3;
const BATCH_SETUPS: usize = 5;
const FLEET_BOOTS: usize = 7;

/// Datasets per `simulate_batch` request.
const BATCH: usize = 8;

/// Connections (and load threads) per run: one per core.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pacing for open-loop lanes: pipelined, no retries (a refusal is a miss).
fn open_cfg(max_attempts: u32) -> LaneCfg {
    LaneCfg {
        max_inflight: 64,
        max_attempts,
        backoff_base_ms: 5,
        backoff_cap_ms: 200,
        late_threshold_us: 1_000,
    }
}

/// One request's fate, in arrival order.
type Done = (Completion, Option<Reply>);

/// Runs one open-loop phase: `arrivals[i]` (µs after the phase start)
/// carries `requests[i]`; arrivals are dealt round-robin over the lanes.
/// `during` runs on the calling thread while the lanes pump.
#[allow(clippy::too_many_arguments)]
fn phase<R>(
    addr: &str,
    arrivals: &[u64],
    requests: &[Request],
    cfg: LaneCfg,
    seed: u64,
    tracer: &Tracer,
    wire_layer: &'static str,
    conns: &mut [Option<Conn>],
    req_base: u64,
    during: impl FnOnce(Instant) -> R,
) -> (Vec<Done>, u64, R) {
    let dealt = deal(arrivals, conns.len());
    let start = Instant::now();
    let (outs, r) = std::thread::scope(|s| {
        let handles: Vec<_> = dealt
            .iter()
            .zip(conns.iter_mut())
            .enumerate()
            .map(|(li, ((planned, idx), conn))| {
                let plan = LanePlan {
                    cfg,
                    seed: stream_seed(seed, li as u64),
                    planned: planned.clone(),
                    requests: idx.iter().map(|&i| &requests[i]).collect(),
                    req_base: req_base + li as u64 * 1_000_000,
                };
                let c = conn.take();
                s.spawn(move || pump(addr, plan, start, tracer, wire_layer, c))
            })
            .collect();
        let r = during(start);
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().expect("lane thread")).collect();
        (outs, r)
    });
    let mut done: Vec<Option<Done>> = vec![None; arrivals.len()];
    let mut late = 0;
    for ((c, out), ((_, idx), conn)) in outs.into_iter().zip(dealt.iter().zip(conns.iter_mut())) {
        *conn = c;
        late += out.late_sends;
        let mut replies = out.replies;
        for comp in out.completions {
            done[idx[comp.slot]] = Some((comp, replies[comp.slot].take()));
        }
    }
    let done = done.into_iter().map(|d| d.expect("every arrival completes")).collect();
    (done, late, r)
}

/// Names the first request that was not served, for the report.
fn first_miss(what: &str, done: &[Done], run: &mut Run) {
    if let Some((c, reply)) = done.iter().find(|(c, _)| c.outcome != Outcome::Ok) {
        run.report.push(format!(
            "{what}: first unserved request ended {:?} after {} attempt(s), reply {:?}",
            c.outcome,
            c.attempts,
            reply.as_ref().map(|r| &r.line)
        ));
    }
}

fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter().map(|(c, _)| c.latency_us() as f64 / 1000.0).collect()
}

/// Last reply of a phase, seconds after its start.
fn makespan_s(done: &[Done]) -> f64 {
    done.iter().map(|(c, _)| c.done_us).max().unwrap_or(0) as f64 / 1e6
}

fn simulate_mix(cells: &[Cell], n: usize, rng: &mut Rng) -> (Vec<usize>, Vec<Request>) {
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_index(cells.len())).collect();
    let reqs = picks.iter().map(|&i| oracle::simulate(&cells[i])).collect();
    (picks, reqs)
}

/// Sends `reqs` pipelined on one connection and returns the reply frames.
fn pipelined(addr: &str, reqs: &[Request]) -> Result<Vec<(u64, String)>, String> {
    let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let cfg =
        LaneCfg { max_inflight: reqs.len().max(1), late_threshold_us: u64::MAX, ..open_cfg(1) };
    let plan = LanePlan {
        cfg,
        seed: 0,
        planned: vec![0; reqs.len()],
        requests: reqs.iter().collect(),
        req_base: 0,
    };
    let off = Tracer::new(false);
    let (_, out) = pump(addr, plan, Instant::now(), &off, "server", Some(conn));
    out.replies
        .into_iter()
        .map(|r| {
            r.map(|r| (r.id, r.line)).ok_or_else(|| format!("{addr} left a request unanswered"))
        })
        .collect()
}

/// Replies of a pipelined pass whose bytes differ from the oracle's.
fn wrong_replies(replies: &[(u64, String)], expected: &[Response]) -> usize {
    replies
        .iter()
        .zip(expected)
        .filter(|((id, line), e)| encode_response(*id, e).trim_end() != line)
        .count()
}

/// Flags a set-up or preparation pass whose replies differ from the oracle.
fn check_pass(run: &mut Run, what: &str, replies: &[(u64, String)], expected: &[Response]) {
    let wrong = wrong_replies(replies, expected);
    if wrong > 0 {
        run.correct = false;
        run.report.push(format!("ORACLE {what}: {wrong} replies differ"));
    }
}

fn stats(addr: &str) -> Result<Response, String> {
    let mut c =
        revel_serve::client::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    c.request(&Request::Stats).map_err(|e| format!("stats from {addr}: {e}"))
}

/// Engine, schedule and server counters of the program after a run.
fn wire_counters(addr: &str, run: &mut Run) -> Result<(), String> {
    if let Response::Stats { engine, schedule, server } = stats(addr)? {
        // Batched requests hit the trace cache, not the run cache.
        let (h, m) = ((engine.hits + engine.trace_hits) as f64, engine.misses as f64);
        run.layer.insert("engine.hits".into(), h);
        run.layer.insert("engine.misses".into(), m);
        run.layer.insert("engine.hit_ratio".into(), if h + m > 0.0 { h / (h + m) } else { 0.0 });
        let (sh, sm) = (schedule.hits as f64, schedule.misses as f64);
        run.layer.insert(
            "scheduler.cache_hit_ratio".into(),
            if sh + sm > 0.0 { sh / (sh + sm) } else { 0.0 },
        );
        run.layer.insert("server.overloaded".into(), server.overloaded as f64);
        run.layer.insert("server.errors".into(), server.errors as f64);
        run.layer.insert("persist.disk_hits".into(), engine.disk_hits as f64);
        Ok(())
    } else {
        Err(format!("{addr} answered stats with something else"))
    }
}

/// Keeps a sample of the workload's own frames for the protocol probe.
fn keep_frames(run: &mut Run, requests: &[Request], done: &[Done]) {
    for (req, (_, reply)) in requests.iter().zip(done).take(256) {
        if let Some(r) = reply {
            run.frames.push((req.clone(), r.line.clone()));
        }
    }
}

/// `serve_warm`: a pre-warmed standalone server answers seeded Poisson
/// arrivals over the grid mix at each rung of a fixed rate ladder.
pub fn serve_warm(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let cells = grid::evaluation_grid();
    let expected = oracle::expected_simulate(&cells);

    let warm: Vec<Request> = cells.iter().map(oracle::simulate).collect();
    let (server, warmed, setups) = set_up(WARM_SETUPS, || {
        let t0 = Instant::now();
        let server = ServerProc::standalone(1)?;
        let warmed = pipelined(&server.addr, &warm)?;
        Ok((server, warmed, t0.elapsed().as_secs_f64()))
    })?;
    run.e2e.insert("setup_s".into(), median(&setups).expect("set-ups"));
    for w in &warmed {
        check_pass(&mut run, "serve_warm pre-warm vs Bench::run", w, &expected);
    }

    let mut mix = Rng::seed_from_u64(stream_seed(seed, 0x006D_6978));
    let patterns = PatternEngine::new(seed);
    let mut conns: Vec<Option<Conn>> = (0..lanes()).map(|_| None).collect();
    let mut plan_s = 0.0;
    let mut late_total = 0;
    let mut best: Option<(f64, f64)> = None;
    for (ri, &(rps, share)) in LADDER.iter().enumerate() {
        let dur_ms = (seconds * share * 1000.0).round().max(1.0) as u64;
        let (arrivals, plan_time) = tracer.time(None, "traffic", "phase_arrivals", 1, |_| {
            patterns.phase_arrivals(ri, &PatternKind::Poisson { rps }, dur_ms)
        });
        let arrivals = arrivals.map_err(|e| e.message)?;
        plan_s += plan_time.as_secs_f64();
        let (picks, requests) = simulate_mix(&cells, arrivals.len(), &mut mix);
        let base = (ri as u64 + 1) * 100_000_000;
        let (done, late, ()) = phase(
            &server.addr,
            &arrivals,
            &requests,
            open_cfg(1),
            stream_seed(seed, 0x4C00 + ri as u64),
            tracer,
            "server",
            &mut conns,
            base,
            |_| (),
        );
        let t = tally(&done, |i, id| encode_response(id, &expected[picks[i]]));
        first_miss("serve_warm", &done, &mut run);
        let lat = latencies_ms(&done);
        let span = makespan_s(&done);
        let backlog_ms = (span - dur_ms as f64 / 1000.0).max(0.0) * 1000.0;
        let p = tail(&lat).ok_or("empty rung")?;
        let p50 = median(&lat).ok_or("empty rung")?;
        let meets = p.value < SLO_P99_MS && backlog_ms <= SLO_P99_MS && t.misses() == 0;
        let achieved = t.ok as f64 / (dur_ms as f64 / 1000.0);
        run.report.push(format!(
            "serve_warm rung {rps} req/s: n={} p50 {p50:.3} ms, p{:.1} {:.3} ms, backlog {backlog_ms:.1} ms, late sends {late}, failed_ratio {:.4}, achieved {achieved:.1} req/s, SLO {}",
            p.samples,
            p.percentile,
            p.value,
            t.failed_ratio(),
            if meets { "met" } else { "missed" }
        ));
        if meets {
            best = Some((rps, achieved));
        }
        if rps == NOMINAL_RPS {
            run.e2e.insert("p50_ms".into(), p50);
            run.e2e.insert("p99_ms".into(), p.value);
            keep_frames(&mut run, &requests, &done);
        }
        late_total += late;
        run.tally.absorb(&t);
    }
    run.e2e.insert("goodput_per_s".into(), best.map_or(0.0, |(_, a)| a));
    run.e2e.insert("peak_rss_mb".into(), server.peak_rss_mb());
    run.report.push(format!(
        "serve_warm: max_rps_at_slo = {} (p99 < {SLO_P99_MS} ms, no backlog, no failures)",
        best.map_or("none".to_string(), |(r, a)| format!("{r} req/s rung, {a:.1} achieved"))
    ));
    run.layer.insert("traffic.plan_ms".into(), plan_s * 1000.0);
    run.layer.insert("traffic.late_sends".into(), late_total as f64);
    if tracer.on() {
        wire_counters(&server.addr, &mut run)?;
        layers::server_probes(&server.addr, &cells[0], tracer, &mut run.layer)?;
    }
    drop(conns);
    server.shutdown()?;
    run.probe_cells = cells;
    run.correct &= run.tally.wrong_bytes == 0;
    Ok(run)
}

/// The small-suite cells on REVEL whose programs are certified oblivious,
/// i.e. the cells `simulate_batch` serves by trace replay.
pub fn certified_small_revel() -> Vec<Cell> {
    Bench::suite_small()
        .into_iter()
        .map(|b| Cell { bench: b, cfg: BuildCfg::revel(b.lanes()), arch: "revel" })
        .filter(|c| {
            batch_replayable(&c.bench.workload().build(&c.cfg), &c.cfg, &c.cfg.sim_options())
        })
        .collect()
}

/// `serve_batch`: `nproc` closed-loop connections each send
/// `simulate_batch` requests of fresh dataset seeds over the certified
/// small-suite cells on REVEL.
pub fn serve_batch(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let cells = certified_small_revel();
    if cells.is_empty() {
        return Err("no certified small-suite cell on revel".to_string());
    }

    // Record each cell's timing trace once, so the run measures replays.
    let warm: Vec<Request> = cells.iter().map(|c| oracle::simulate_batch(c, &[seed])).collect();
    let (server, warmed, setups) = set_up(BATCH_SETUPS, || {
        let t0 = Instant::now();
        let server = ServerProc::standalone(1)?;
        let warmed = pipelined(&server.addr, &warm)?;
        Ok((server, warmed, t0.elapsed().as_secs_f64()))
    })?;
    run.e2e.insert("setup_s".into(), median(&setups).expect("set-ups"));

    let lanes = lanes();
    let closed = LaneCfg { max_inflight: 1, late_threshold_us: u64::MAX, ..open_cfg(1) };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    type Sent = (usize, Vec<u64>, Completion, Option<Reply>);
    let per_lane: Vec<(Vec<Sent>, Vec<Request>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|li| {
                let (addr, cells) = (&server.addr, &cells);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stream_seed(seed, 0x4261_7400 + li as u64));
                    // Cells come round-robin in a seeded order, so every
                    // run carries the same share of each cell and only the
                    // datasets (and the order) change with the seed.
                    let mut order: Vec<usize> = (0..cells.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_index(i + 1));
                    }
                    let mut next = li;
                    let mut conn = None;
                    let mut sent = Vec::new();
                    let mut reqs = Vec::new();
                    let mut planning = Duration::ZERO;
                    while Instant::now() < deadline {
                        let t_plan = Instant::now();
                        let cell = order[next % order.len()];
                        next += 1;
                        // Wire numbers are JSON doubles: keep seeds below 2^53.
                        let seeds: Vec<u64> = (0..BATCH).map(|_| rng.next_u64() >> 11).collect();
                        let req = oracle::simulate_batch(&cells[cell], &seeds);
                        planning += t_plan.elapsed();
                        let now = start.elapsed().as_micros() as u64;
                        let plan = LanePlan {
                            cfg: closed,
                            seed: 0,
                            planned: vec![now],
                            requests: vec![&req],
                            req_base: li as u64 * 1_000_000 + sent.len() as u64,
                        };
                        let (c, mut out) = pump(addr, plan, start, tracer, "server", conn);
                        conn = c;
                        let reply = out.replies.pop().flatten();
                        sent.push((cell, seeds, out.completions[0], reply));
                        reqs.push(req);
                    }
                    (sent, reqs, planning)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("lane thread")).collect()
    });
    let measured = start.elapsed().as_secs_f64();

    // Oracle: every request's answer recomputed in process.
    let all: Vec<&Sent> = per_lane.iter().flat_map(|(s, _, _)| s).collect();
    let expected: Vec<Response> = engine::par_map(&all, |(cell, seeds, comp, reply)| {
        if comp.outcome != Outcome::Ok || reply.is_none() {
            // Already a miss; no answer to check.
            return Response::error("unanswered", "");
        }
        let c = &cells[*cell];
        oracle::expected_batch(c.bench, &c.cfg, seeds)
    });
    let done: Vec<Done> = all.iter().map(|(_, _, c, r)| (*c, r.clone())).collect();
    let t = tally(&done, |i, id| encode_response(id, &expected[i]));
    first_miss("serve_batch", &done, &mut run);
    let warm_expected: Vec<Response> =
        cells.iter().map(|c| oracle::expected_batch(c.bench, &c.cfg, &[seed])).collect();
    for w in &warmed {
        check_pass(
            &mut run,
            "serve_batch trace recording vs engine::run_batched",
            w,
            &warm_expected,
        );
    }

    let lat: Vec<f64> =
        done.iter().map(|(c, _)| (c.done_us - c.first_send_us) as f64 / 1000.0).collect();
    let p = tail(&lat).ok_or("no batch request completed")?;
    for (ci, c) in cells.iter().enumerate() {
        let l: Vec<f64> =
            all.iter().zip(&lat).filter(|((cell, ..), _)| *cell == ci).map(|(_, &l)| l).collect();
        run.report.push(format!(
            "serve_batch cell {} {}: n={} p50 {:.3} ms",
            c.bench.name(),
            c.bench.params(),
            l.len(),
            median(&l).unwrap_or(0.0)
        ));
    }
    run.e2e.insert("p50_ms".into(), median(&lat).expect("non-empty"));
    run.e2e.insert("p99_ms".into(), p.value);
    run.e2e.insert("goodput_per_s".into(), (t.ok as usize * BATCH) as f64 / measured);
    run.e2e.insert("peak_rss_mb".into(), server.peak_rss_mb());
    run.report.push(format!(
        "serve_batch: {} certified cell(s), {lanes} closed-loop connection(s), n={} requests x {BATCH} datasets, tail=p{:.1}, failed_ratio {:.4}",
        cells.len(),
        p.samples,
        p.percentile,
        t.failed_ratio()
    ));
    run.tally.absorb(&t);
    for (sent, reqs, _) in &per_lane {
        let d: Vec<Done> = sent.iter().map(|(_, _, c, r)| (*c, r.clone())).collect();
        keep_frames(&mut run, reqs, &d);
    }
    // Closed loop: the plan is drawn request by request, and nothing is
    // ever late against a schedule.
    let planning: Duration = per_lane.iter().map(|(_, _, p)| *p).sum();
    run.layer.insert("traffic.plan_ms".into(), planning.as_secs_f64() * 1000.0);
    run.layer.insert("traffic.late_sends".into(), 0.0);
    if tracer.on() {
        wire_counters(&server.addr, &mut run)?;
        layers::server_probes(&server.addr, &cells[0], tracer, &mut run.layer)?;
    }
    server.shutdown()?;
    run.probe_cells = cells;
    run.correct &= run.tally.wrong_bytes == 0;
    Ok(run)
}

/// `fleet_restart`: a two-shard fleet warm-starts from its disk tiers and
/// serves the grid mix through its router while one shard is killed and
/// respawned.
pub fn fleet_restart(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    out_dir: &Path,
) -> Result<Run, String> {
    let mut run = Run::default();
    let cells = grid::evaluation_grid();
    let requests: Vec<Request> = cells.iter().map(oracle::simulate).collect();

    // Oracle: the same cells answered by a standalone server.
    let standalone = ServerProc::standalone(lanes())?;
    let reference: Vec<String> =
        pipelined(&standalone.addr, &requests)?.into_iter().map(|(_, l)| l).collect();
    standalone.shutdown()?;
    let expected: Vec<Response> = reference
        .iter()
        .map(|l| revel_serve::protocol::decode_response(l).map(|(_, r)| r).map_err(|e| e.message))
        .collect::<Result<_, _>>()?;

    // Preparation: one cold pass fills both shards' disk tiers, then a
    // graceful shutdown compacts them.
    let dir = out_dir.join(format!("fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let port = free_port_run(2, seed)?;
    let (fleet, _) = boot_fleet(port, &dir, None)?;
    let cold = pipelined(&fleet.addr, &requests)?;
    // Then every cell goes straight to each shard as well, so both tiers
    // hold the whole grid: while a shard is down, its successor answers
    // the failed-over cells from its tier instead of simulating them cold,
    // which would swing the tail by seconds with the cells that happen to
    // arrive during the outage.
    let shard_passes: Vec<Result<Vec<(u64, String)>, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = (1..=2u16)
            .map(|i| {
                let (addr, requests) = (format!("127.0.0.1:{}", port + i), &requests);
                s.spawn(move || pipelined(&addr, requests))
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("replication thread")).collect()
    });
    for (pass, replies) in std::iter::once(Ok(cold)).chain(shard_passes).enumerate() {
        let what = format!("fleet_restart preparation pass {pass} vs standalone server");
        check_pass(&mut run, &what, &replies?, &expected);
    }
    fleet.shutdown()?;

    // Set-up: warm boots from disk; the last one stays up.
    let (fleet, _, boots) = set_up(FLEET_BOOTS, || {
        boot_fleet(port, &dir, Some(cells.len() as u64)).map(|(f, t)| (f, (), t))
    })?;
    let q = quartiles(&boots).expect("boots");
    run.report.push(format!(
        "fleet_restart: {FLEET_BOOTS} warm boots, setup_s quartiles {:.3} / {:.3} / {:.3} s",
        q[0], q[1], q[2]
    ));
    run.e2e.insert("setup_s".into(), median(&boots).expect("boots"));

    // Measured run.
    let dur_ms = (seconds * 1000.0).round() as u64;
    let (arrivals, plan_time) = tracer.time(None, "traffic", "phase_arrivals", 1, |_| {
        PatternEngine::new(seed).phase_arrivals(
            0,
            &PatternKind::Constant { rps: FLEET_RPS },
            dur_ms,
        )
    });
    let arrivals = arrivals.map_err(|e| e.message)?;
    let mut mix = Rng::seed_from_u64(stream_seed(seed, 0x006D_6978));
    let (picks, reqs) = simulate_mix(&cells, arrivals.len(), &mut mix);
    let victim_cell =
        &cells[Rng::seed_from_u64(stream_seed(seed, 0x6B69_6C6C)).gen_index(cells.len())];
    let mut conns: Vec<Option<Conn>> = (0..lanes()).map(|_| None).collect();
    let addr = fleet.addr.clone();
    let (done, late, recovery) = phase(
        &addr,
        &arrivals,
        &reqs,
        open_cfg(4),
        stream_seed(seed, 0x4C46),
        tracer,
        "router",
        &mut conns,
        100_000_000,
        |start| {
            let at = start + Duration::from_secs_f64(seconds * KILL_AT);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            layers::kill_and_recover(&addr, port, victim_cell, tracer)
        },
    );
    let (recovery, restarts) = recovery?;
    let t = tally(&done, |i, id| encode_response(id, &expected[picks[i]]));
    first_miss("fleet_restart", &done, &mut run);
    let lat = latencies_ms(&done);
    let p = tail(&lat).ok_or("no request completed")?;
    let span = makespan_s(&done);
    run.e2e.insert("p50_ms".into(), median(&lat).expect("non-empty"));
    run.e2e.insert("p99_ms".into(), p.value);
    run.e2e.insert("goodput_per_s".into(), t.ok as f64 / span);
    run.e2e.insert("peak_rss_mb".into(), fleet.peak_rss_mb());
    let retries: u32 = done.iter().map(|(c, _)| c.attempts - 1).sum();
    run.report.push(format!(
        "fleet_restart: {FLEET_RPS} req/s through the router, n={} tail=p{:.1}, {retries} retried attempt(s), late sends {late}; shard killed at t+{:.1} s, recovery_s {:.3}, failed_ratio {:.4}",
        p.samples,
        p.percentile,
        seconds * KILL_AT,
        recovery.as_secs_f64(),
        t.failed_ratio()
    ));
    run.tally.absorb(&t);
    keep_frames(&mut run, &reqs, &done);
    run.layer.insert("supervisor.recovery_ms".into(), recovery.as_secs_f64() * 1000.0);
    run.layer.insert("supervisor.restarts".into(), restarts as f64);
    run.layer.insert("traffic.plan_ms".into(), plan_time.as_secs_f64() * 1000.0);
    run.layer.insert("traffic.late_sends".into(), late as f64);
    if tracer.on() {
        wire_counters(&fleet.addr, &mut run)?;
        layers::server_probes(&fleet.addr, victim_cell, tracer, &mut run.layer)?;
        layers::fleet_probes(port, &dir, &cells, victim_cell, tracer, out_dir, &mut run.layer)?;
    }
    drop(conns);
    fleet.shutdown()?;
    let _ = std::fs::remove_dir_all(&dir);
    run.probe_cells = cells;
    run.correct &= run.tally.wrong_bytes == 0;
    Ok(run)
}

/// Starts a two-shard fleet on `port` over the tiers under `dir` and waits
/// until both shards are routable. With `warm`, also returns the time
/// until every shard answers on its own port with at least `warm` entries
/// warm-started from disk (the supervisor's health tick, which decides
/// routability, quantizes the rest to 100 ms); without, the time until
/// routable.
pub fn boot_fleet(port: u16, dir: &Path, warm: Option<u64>) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let fleet = ServerProc::fleet(port, 2, 1, dir)?;
    let mut ready = None;
    if let Some(n) = warm {
        for shard in 1..=2u16 {
            wait_until(
                &format!("127.0.0.1:{}", port + shard),
                &Request::Stats,
                Duration::from_secs(60),
                |r| matches!(r, Response::Stats { engine, .. } if engine.warm_start_entries >= n),
            )?;
        }
        ready = Some(t0.elapsed().as_secs_f64());
    }
    wait_until(
        &fleet.addr,
        &Request::FleetStats,
        Duration::from_secs(60),
        |r| matches!(r, Response::FleetStats { shards } if shards.iter().all(|s| s.alive)),
    )?;
    Ok((fleet, ready.unwrap_or_else(|| t0.elapsed().as_secs_f64())))
}

/// Sets the program up `n` times and keeps the last instance, so the
/// set-up figure is a median. `setup` times itself and returns what the
/// caller checks (e.g. the replies of a warm-up pass).
fn set_up<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<(ServerProc, T, f64), String>,
) -> Result<(ServerProc, Vec<T>, Vec<f64>), String> {
    let (mut kept, mut outs, mut times) = (None, Vec::new(), Vec::new());
    for _ in 0..n {
        if let Some(old) = kept.take() {
            ServerProc::shutdown(old)?;
        }
        let (server, out, t) = setup()?;
        kept = Some(server);
        outs.push(out);
        times.push(t);
    }
    Ok((kept.expect("n > 0"), outs, times))
}
