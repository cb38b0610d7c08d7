//! Load generator and replay client for `revel_serve`.
//!
//! ```text
//! # scripted load: phased scenario file with pinned SLOs (exit 1 on miss)
//! revel_client --scenario ci/scenarios/thundering_herd.json --seed 7
//!
//! # replay a canned JSONL request file twice, byte for byte (CI smoke)
//! revel_client --replay ci/smoke.jsonl --passes 2 --assert-hit-rate 0.9
//! ```
//!
//! `--scenario` runs a `revel_traffic` scenario through
//! `revel_serve::scenario`: arrival patterns, workload mixes (grid cells,
//! batched lanes), retries with the lane's seeded backoff, scripted fleet
//! events and SLO gates all live in the file. `--seed` overrides the
//! file's seed and pins every random choice end to end.
//!
//! `--replay` sends a file's frames verbatim — the one load no scenario
//! expresses, since a scenario draws its requests from a mix while a
//! replay file is a fixed sequence of mixed operations. Frames are dealt
//! round-robin across `--connections`, with no retries: any error answer
//! fails the run. It prints a p50/p90/p99 latency histogram plus the
//! server-reported engine cache hit rate over the measurement window
//! (from `stats` deltas); `--assert-p99-ms` / `--assert-hit-rate` /
//! `--assert-trace-hits` / `--assert-evictions` turn the report into a
//! gate: exit 1 when the floor is missed.

use revel_serve::client::{fmt_ms, percentile, Client};
use revel_serve::protocol::{read_all_frames, EngineStatsWire, Request, Response};
use revel_serve::scenario::{human_table, run, RunOptions};
use revel_traffic::scenario::Scenario;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    connections: usize,
    replay: Option<String>,
    scenario: Option<String>,
    seed: Option<u64>,
    dump_requests: Option<String>,
    passes: usize,
    assert_p99_ms: Option<f64>,
    assert_hit_rate: Option<f64>,
    assert_trace_hits: Option<u64>,
    assert_evictions: Option<u64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        addr: String::new(),
        connections: 4,
        replay: None,
        scenario: None,
        seed: None,
        dump_requests: None,
        passes: 1,
        assert_p99_ms: None,
        assert_hit_rate: None,
        assert_trace_hits: None,
        assert_evictions: None,
    };
    let mut host = "127.0.0.1".to_string();
    let mut port = 7411u16;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--host" => host = val("--host"),
            "--port" => port = parse(&val("--port"), "--port"),
            "--connections" => a.connections = parse(&val("--connections"), "--connections"),
            "--replay" => a.replay = Some(val("--replay")),
            "--scenario" => a.scenario = Some(val("--scenario")),
            "--seed" => a.seed = Some(parse(&val("--seed"), "--seed")),
            "--dump-requests" => a.dump_requests = Some(val("--dump-requests")),
            "--passes" => a.passes = parse(&val("--passes"), "--passes"),
            "--assert-p99-ms" => {
                a.assert_p99_ms =
                    Some(parse_float(&val("--assert-p99-ms"), "--assert-p99-ms", 0.0, f64::MAX));
            }
            "--assert-hit-rate" => {
                a.assert_hit_rate =
                    Some(parse_float(&val("--assert-hit-rate"), "--assert-hit-rate", 0.0, 1.0));
            }
            "--assert-trace-hits" => {
                a.assert_trace_hits =
                    Some(parse(&val("--assert-trace-hits"), "--assert-trace-hits"));
            }
            "--assert-evictions" => {
                a.assert_evictions = Some(parse(&val("--assert-evictions"), "--assert-evictions"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    a.addr = format!("{host}:{port}");
    a.connections = a.connections.max(1);
    if a.scenario.is_some() == a.replay.is_some() {
        usage("give exactly one of --scenario FILE or --replay FILE");
    }
    a
}

/// Parses a float flag, rejecting non-finite values and anything outside
/// `[min, max]` **at parse time** — a NaN that reaches the percentile or
/// gate math would otherwise report nonsense (NaN comparisons are all
/// false, so `hit_rate < NaN` silently passes every gate).
fn parse_float(s: &str, flag: &str, min: f64, max: f64) -> f64 {
    let v: f64 = s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")));
    if !v.is_finite() || v < min || v > max {
        let bound =
            if max == f64::MAX { format!(">= {min}") } else { format!("in [{min}, {max}]") };
        usage(&format!("{flag} must be finite and {bound}, got '{s}'"));
    }
    v
}

#[derive(Default)]
struct Tally {
    latencies: Mutex<Vec<Duration>>,
    ok: AtomicU64,
    timed_out: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
}

impl Tally {
    fn record(&self, started: Instant, resp: &Response) {
        self.latencies.lock().expect("latency lock").push(started.elapsed());
        match resp {
            Response::Overloaded { .. } => self.overloaded.fetch_add(1, Ordering::Relaxed),
            Response::TimedOut { .. } => self.timed_out.fetch_add(1, Ordering::Relaxed),
            Response::Error { .. } => self.errors.fetch_add(1, Ordering::Relaxed),
            _ => self.ok.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn total(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
            + self.timed_out.load(Ordering::Relaxed)
            + self.overloaded.load(Ordering::Relaxed)
            + self.errors.load(Ordering::Relaxed)
    }
}

fn main() {
    let args = parse_args();
    match &args.scenario {
        Some(path) => scenario_mode(&args, path),
        None => replay_mode(&args, args.replay.as_deref().expect("parse_args demands one mode")),
    }
}

/// `--replay` mode: replay the file `passes` times inside a window
/// bracketed by server-side stats snapshots, so the hit rate reported is
/// *of this run's traffic only*, then apply the gates.
fn replay_mode(args: &Args, path: &str) -> ! {
    let mut gate_failures: Vec<String> = Vec::new();
    let mut control = Client::connect(&args.addr)
        .unwrap_or_else(|e| fatal(&format!("cannot connect to {}: {e}", args.addr)));
    let before = fetch_engine_stats(&mut control);

    let tally = Tally::default();
    let started = Instant::now();
    replay(args, path, &tally);
    let wall = started.elapsed();

    let after = fetch_engine_stats(&mut control);

    let lat = tally.latencies.lock().expect("latency lock").clone();
    let (p50, p90, p99) = (percentile(&lat, 50.0), percentile(&lat, 90.0), percentile(&lat, 99.0));
    println!(
        "revel-client: {} request(s) in {:.2}s over {} connection(s)",
        tally.total(),
        wall.as_secs_f64(),
        args.connections
    );
    println!(
        "  outcomes: {} ok, {} timed_out, {} overloaded, {} error(s)",
        tally.ok.load(Ordering::Relaxed),
        tally.timed_out.load(Ordering::Relaxed),
        tally.overloaded.load(Ordering::Relaxed),
        tally.errors.load(Ordering::Relaxed),
    );
    println!("  latency: p50 {}  p90 {}  p99 {}", fmt_ms(p50), fmt_ms(p90), fmt_ms(p99));

    let d_hits = after.hits.saturating_sub(before.hits);
    let d_misses = after.misses.saturating_sub(before.misses);
    let d_evictions = after.evictions.saturating_sub(before.evictions);
    let lookups = d_hits + d_misses;
    let hit_rate = if lookups == 0 { 0.0 } else { d_hits as f64 / lookups as f64 };
    println!(
        "  engine cache over this window: {d_hits} hit(s), {d_misses} miss(es) \
         (hit rate {hit_rate:.3}); {d_evictions} eviction(s) in window, {} total",
        after.evictions
    );
    let d_disk_hits = after.disk_hits.saturating_sub(before.disk_hits);
    if after.warm_start_entries > 0 || d_disk_hits > 0 {
        println!(
            "  persistent tier over this window: {d_disk_hits} disk hit(s); \
             {} warm-start entr(ies), {} cold start(s) total",
            after.warm_start_entries, after.disk_cold_starts
        );
    }

    // Batched requests are served by the timing-trace cache, not the run
    // cache, so their reuse shows up here rather than in the hit rate.
    let d_trace_hits = after.trace_hits.saturating_sub(before.trace_hits);
    let d_replays = after.batched_replays.saturating_sub(before.batched_replays);
    println!(
        "  batched trace cache over this window: {d_trace_hits} hit(s), \
         {d_replays} lane replay(s)"
    );

    if let Some(floor) = args.assert_hit_rate {
        if hit_rate < floor {
            gate_failures.push(format!("hit rate {hit_rate:.3} below floor {floor:.3}"));
        }
    }
    if let Some(floor) = args.assert_trace_hits {
        if d_trace_hits < floor {
            gate_failures.push(format!("{d_trace_hits} trace hit(s) below floor {floor}"));
        }
    }
    if let Some(floor) = args.assert_evictions {
        // Pins eviction behavior against a deliberately small
        // --cache-capacity server: the bounded cache must actually evict.
        if d_evictions < floor {
            gate_failures.push(format!("{d_evictions} eviction(s) below floor {floor}"));
        }
    }
    if let Some(ceil_ms) = args.assert_p99_ms {
        let p99_ms = p99.as_secs_f64() * 1e3;
        if p99_ms > ceil_ms {
            gate_failures.push(format!("p99 {p99_ms:.3}ms above ceiling {ceil_ms:.3}ms"));
        }
    }
    // A replay does not retry, so any error answer is fatal.
    if tally.errors.load(Ordering::Relaxed) > 0 {
        gate_failures.push(format!(
            "{} request(s) answered with errors",
            tally.errors.load(Ordering::Relaxed)
        ));
    }
    if gate_failures.is_empty() {
        std::process::exit(0);
    }
    for g in &gate_failures {
        eprintln!("revel-client: GATE FAILED: {g}");
    }
    std::process::exit(1);
}

fn fetch_engine_stats(c: &mut Client) -> EngineStatsWire {
    match c.request(&Request::Stats) {
        Ok(Response::Stats { engine, .. }) => engine,
        Ok(other) => fatal(&format!("stats request got {other:?}")),
        Err(e) => fatal(&format!("stats request failed: {e}")),
    }
}

/// `--scenario` mode: parse and validate the file, expand the plan under
/// `--seed` (or the file's seed), execute every phase, print one JSON
/// summary line per phase plus a human table, and exit nonzero listing
/// every violated SLO.
fn scenario_mode(args: &Args, path: &str) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fatal(&format!("cannot read scenario file {path}: {e}")));
    let scenario = Scenario::parse(&text).unwrap_or_else(|e| fatal(&e.to_string()));
    let opts = RunOptions {
        addr: args.addr.clone(),
        seed_override: args.seed,
        dump_requests: args.dump_requests.is_some(),
    };
    let report = run(&scenario, &opts).unwrap_or_else(|e| fatal(&e));
    if let Some(dump_path) = &args.dump_requests {
        let mut dump = report.dump.join("\n");
        dump.push('\n');
        std::fs::write(dump_path, dump)
            .unwrap_or_else(|e| fatal(&format!("cannot write request dump {dump_path}: {e}")));
    }
    for (name, summary) in &report.phases {
        println!("{}", summary.json_line(&scenario.name, name));
    }
    println!("{}", report.total.json_line(&scenario.name, "all"));
    println!(
        "revel-client: scenario {} (seed {}): {} phase(s), {} request(s) offered",
        scenario.name,
        report.seed,
        report.phases.len(),
        report.total.offered,
    );
    print!("{}", human_table(&report.phases, &report.total));
    for note in &report.event_notes {
        println!("  event: {note}");
    }
    if report.violations.is_empty() {
        std::process::exit(0);
    }
    for v in &report.violations {
        eprintln!("revel-client: GATE FAILED: {v}");
    }
    std::process::exit(1);
}

/// Replays a canned JSONL request file `passes` times, frames sent raw
/// and dealt round-robin across the connections within each pass. A
/// transport error aborts that connection's share of the pass.
fn replay(args: &Args, path: &str, tally: &Tally) {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| fatal(&format!("cannot open replay file {path}: {e}")));
    let frames =
        read_all_frames(std::io::BufReader::new(file)).unwrap_or_else(|e| fatal(&e.to_string()));
    if frames.is_empty() {
        fatal(&format!("replay file {path} holds no frames"));
    }
    for _pass in 0..args.passes.max(1) {
        std::thread::scope(|s| {
            for conn in 0..args.connections {
                let frames = &frames;
                s.spawn(move || replay_connection(args, conn, frames, tally));
            }
        });
    }
}

fn replay_connection(args: &Args, conn: usize, frames: &[String], tally: &Tally) {
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("revel-client: connection {conn}: {e}");
            tally.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    for frame in frames.iter().skip(conn).step_by(args.connections) {
        let t0 = Instant::now();
        match client.request_raw(frame) {
            Ok((_id, resp)) => tally.record(t0, &resp),
            Err(e) => {
                eprintln!("revel-client: connection {conn}: {e}");
                tally.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn fatal(msg: &str) -> ! {
    eprintln!("revel-client: {msg}");
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("revel-client: {err}");
    }
    eprintln!(
        "usage: revel_client [--host H] [--port P] --scenario FILE [--seed N] [--dump-requests FILE]\n\
         \x20      revel_client [--host H] [--port P] --replay FILE [--connections N] [--passes N]\n\
         \x20                   [--assert-p99-ms MS] [--assert-hit-rate F] [--assert-trace-hits N]\n\
         \x20                   [--assert-evictions N]"
    );
    std::process::exit(2);
}
