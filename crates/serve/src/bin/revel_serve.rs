//! The REVEL simulation server.
//!
//! ```text
//! revel_serve                          # 127.0.0.1:7411, one worker/core
//! revel_serve --port 7500 --workers 2 --queue 16 --cache-capacity 256
//! REVEL_FAILPOINTS='serve.worker.dispatch=err%0.1/7' revel_serve   # fail 10% of jobs
//! revel_serve --snapshot-dir /var/cache/revel   # persistent result cache
//! revel_serve --shards 3 --snapshot-dir dir    # scale-out fleet frontend
//! ```
//!
//! Speaks the JSON-lines protocol of `revel_serve::protocol` (DESIGN.md
//! §11). SIGTERM/ctrl-c (or a `shutdown` request) drains in-flight work
//! and exits 0 with a final stats line on stderr; a second signal during
//! the drain force-exits with code 3. `REVEL_FAILPOINTS` arms failpoint
//! sites at startup (DESIGN.md §17); the `serve.worker.dispatch` site
//! fails a seeded fraction of jobs (error, delay or panic) so client
//! retry logic can be drilled (DESIGN.md §12).
//!
//! `--shards N` turns this process into a fleet frontend (DESIGN.md §15):
//! it spawns N single-shard copies of itself on the next N ports, routes
//! work to them by cache-key fingerprint, respawns any that die, and
//! drains them on shutdown. With `--snapshot-dir`, each shard keeps a
//! disk-backed result cache under `<dir>/shard-<i>` and warm-starts from
//! it after a crash.

use revel_serve::fleet::{Fleet, FleetConfig, Supervisor, DEFAULT_MAX_RESTARTS};
use revel_serve::server::{Server, ServerConfig};
use revel_serve::signal;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Fault-injection sites arm from the environment before anything
    // else runs, so a supervisor can target a shard it is about to
    // spawn (DESIGN.md §17).
    match revel_failpoint::init_from_env() {
        Ok(0) => {}
        Ok(n) => {
            eprintln!("revel-serve: {n} failpoint(s) armed from ${}", revel_failpoint::ENV_VAR)
        }
        Err(e) => {
            eprintln!("revel-serve: bad ${}: {e}", revel_failpoint::ENV_VAR);
            std::process::exit(2);
        }
    }
    let mut cfg = ServerConfig::default();
    let mut host = "127.0.0.1".to_string();
    let mut port = 7411u16;
    let mut shards = 0usize;
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match a.as_str() {
            "--host" => host = val("--host"),
            "--port" => port = parse(&val("--port"), "--port"),
            "--workers" => cfg.workers = parse(&val("--workers"), "--workers"),
            "--queue" => cfg.queue_capacity = parse(&val("--queue"), "--queue"),
            "--cache-capacity" => {
                cache_capacity = Some(parse(&val("--cache-capacity"), "--cache-capacity"));
            }
            "--conn-timeout" => {
                cfg.conn_timeout =
                    Duration::from_secs(parse(&val("--conn-timeout"), "--conn-timeout"));
            }
            "--shards" => shards = parse(&val("--shards"), "--shards"),
            "--shard-id" => cfg.shard_id = Some(parse(&val("--shard-id"), "--shard-id")),
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(val("--snapshot-dir"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    cfg.addr = format!("{host}:{port}");
    if shards > 0 && cfg.shard_id.is_some() {
        usage("--shards (frontend) and --shard-id (worker) are mutually exclusive");
    }
    if let Some(cap) = cache_capacity {
        revel_core::engine::set_cache_capacity(cap);
    }
    // The frontend of a fleet never simulates; the disk tier belongs to
    // the shards (each gets its own subdirectory via the supervisor).
    if shards == 0 {
        if let Some(dir) = &snapshot_dir {
            match revel_core::engine::enable_persistence(dir) {
                Ok(warm) => {
                    eprintln!(
                        "revel-serve: persistent cache at {} ({} entr{} warm, {} cold start(s))",
                        dir.display(),
                        warm.entries,
                        if warm.entries == 1 { "y" } else { "ies" },
                        warm.cold_starts.len(),
                    );
                    for cold in &warm.cold_starts {
                        eprintln!("revel-serve: cold start: {cold}");
                    }
                }
                Err(e) => {
                    eprintln!("revel-serve: cannot open snapshot dir {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
    }

    signal::install();
    let mut server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("revel-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().map(|a| a.to_string()).unwrap_or(cfg.addr.clone());
    let bound_port = server.local_addr().map(|a| a.port()).unwrap_or(port);

    // Fleet mode: spawn the shards and route instead of executing.
    let supervisor = if shards > 0 {
        let fleet_cfg = FleetConfig {
            shards,
            host: host.clone(),
            base_port: bound_port,
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            snapshot_dir: snapshot_dir.clone(),
            cache_capacity,
            max_restarts: DEFAULT_MAX_RESTARTS,
            failpoints: None,
            binary: std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("revel-serve: cannot locate own binary: {e}");
                std::process::exit(1);
            }),
        };
        let fleet = Arc::new(Fleet::new(&host, &fleet_cfg.shard_ports()));
        let sup = match Supervisor::start(Arc::clone(&fleet), fleet_cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("revel-serve: cannot spawn shards: {e}");
                std::process::exit(1);
            }
        };
        server.set_fleet(fleet);
        // Scenario runs script shard kills over the wire; the hook hands
        // them to this supervisor (SIGKILL + optional snapshot wipe).
        let sup = Arc::new(sup);
        let hook_sup = Arc::clone(&sup);
        server.set_kill_hook(Box::new(move |id, wipe| hook_sup.kill_shard(id, wipe)));
        Some(sup)
    } else {
        None
    };

    let role = match (shards, cfg.shard_id) {
        (n, _) if n > 0 => format!(", fleet frontend over {n} shard(s)"),
        (_, Some(id)) => format!(", shard {id}"),
        _ => String::new(),
    };
    eprintln!(
        "revel-serve: listening on {addr} ({} worker(s), queue capacity {}, cache capacity {}{role})",
        if cfg.workers == 0 { revel_core::engine::jobs() } else { cfg.workers },
        cfg.queue_capacity,
        revel_core::engine::cache_capacity(),
    );
    let result = server.serve();
    if let Some(sup) = supervisor {
        sup.shutdown();
    }
    match result {
        Ok(stats) => {
            // Fold the segment log into a compact snapshot while the exit
            // is clean; a crashed process just replays the log instead.
            if let Err(e) = revel_core::engine::persist_snapshot() {
                eprintln!("revel-serve: snapshot failed: {e}");
            }
            eprintln!("revel-serve: shutdown — {stats}");
            eprintln!("revel-serve: {}", revel_core::engine::stats());
        }
        Err(e) => {
            eprintln!("revel-serve: fatal: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("revel-serve: {err}");
    }
    eprintln!(
        "usage: revel_serve [--host H] [--port P] [--workers N] [--queue N] [--cache-capacity N] \
         [--conn-timeout SECS] [--shards N] [--shard-id I] [--snapshot-dir DIR]"
    );
    std::process::exit(2);
}
