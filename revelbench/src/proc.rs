//! Processes of the program under test: a standalone `revel_serve`, or a
//! fleet frontend and the shards it spawns. Every process started here is
//! stopped and waited for, on success and on error paths alike.

use revel_serve::client::Client;
use revel_serve::protocol::{Request, Response};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to bind, and to drain on shutdown.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// The `revel_serve` binary, built next to this benchmark's own binary.
pub fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let bin = exe.with_file_name("revel_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found (build it with cargo build --release -p revel-serve)",
            bin.display()
        ))
    }
}

/// A running `revel_serve` process (standalone, or a fleet frontend whose
/// shards are its children).
pub struct ServerProc {
    child: Option<Child>,
    /// `host:port` the server accepts on.
    pub addr: String,
    reader: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// A standalone server with `workers` workers on an ephemeral port.
    pub fn standalone(workers: usize) -> Result<ServerProc, String> {
        let args = ["--port", "0", "--workers", &workers.to_string()];
        Self::spawn(&args, |line| {
            line.split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .map(str::to_string)
        })
    }

    /// A fleet frontend on `port` over `shards` shards (on the next ports),
    /// each with `workers` workers and a disk tier under `snapshot_dir`.
    /// Returns once the frontend is bound; shards come up asynchronously.
    pub fn fleet(
        port: u16,
        shards: usize,
        workers: usize,
        snapshot_dir: &Path,
    ) -> Result<ServerProc, String> {
        let dir = snapshot_dir.to_str().ok_or("snapshot dir is not UTF-8")?;
        let args = [
            "--port",
            &port.to_string(),
            "--shards",
            &shards.to_string(),
            "--workers",
            &workers.to_string(),
            "--snapshot-dir",
            dir,
        ];
        // Shards share the frontend's stderr and announce themselves too;
        // only the frontend's line names the fleet.
        Self::spawn(&args, move |line| {
            line.contains("fleet frontend over").then(|| format!("127.0.0.1:{port}"))
        })
    }

    fn spawn(
        args: &[&str],
        bound: impl Fn(&str) -> Option<String> + Send + 'static,
    ) -> Result<ServerProc, String> {
        let bin = serve_binary()?;
        let mut child = Command::new(&bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the server's stderr for its whole life (a full pipe would
        // block it); ends at EOF, once the server and its shards are gone.
        let reader = std::thread::spawn(move || {
            let mut announced = false;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !announced {
                    if let Some(addr) = bound(&line) {
                        announced = true;
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut proc_ =
            ServerProc { child: Some(child), addr: String::new(), reader: Some(reader) };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                proc_.addr = addr;
                Ok(proc_)
            }
            Err(_) => {
                Err(format!("revel_serve {} did not bind within {START_TIMEOUT:?}", args.join(" ")))
            }
        }
    }

    /// Process id of the server (the frontend, for a fleet).
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The server and every descendant (a fleet's shards).
    pub fn tree_pids(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![self.pid()];
        while let Some(pid) = stack.pop() {
            if pid == 0 || !alive(pid) {
                continue;
            }
            out.push(pid);
            stack.extend(children(pid));
        }
        out
    }

    /// High-water resident memory, MiB, summed over the server's tree.
    pub fn peak_rss_mb(&self) -> f64 {
        self.tree_pids().into_iter().filter_map(vm_hwm_kb).sum::<u64>() as f64 / 1024.0
    }

    /// Graceful stop: a `shutdown` request, then a bounded wait for the
    /// server and its shards to exit (killed if they overstay).
    pub fn shutdown(mut self) -> Result<(), String> {
        let tree = self.tree_pids();
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| {
                c.set_read_timeout(Some(STOP_TIMEOUT))?;
                c.request(&Request::Shutdown)
            })
            .map(|r| matches!(r, Response::ShuttingDown));
        let mut child = self.child.take().expect("server not yet stopped");
        let deadline = Instant::now() + STOP_TIMEOUT;
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        let stragglers: Vec<u32> = tree.into_iter().filter(|&p| alive(p)).collect();
        kill_all(&stragglers);
        if exited.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        match (asked, exited) {
            (Ok(true), Some(s)) if s.success() && stragglers.is_empty() => Ok(()),
            (asked, exited) => Err(format!(
                "unclean shutdown of {}: shutdown reply ok={asked:?}, exit {exited:?}, {} straggler(s)",
                self.addr,
                stragglers.len()
            )),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.child.is_some() {
            kill_all(&self.tree_pids());
            if let Some(mut c) = self.child.take() {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// True while `pid` exists and is not a zombie.
pub fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| s.rsplit(')').next().map(|rest| !rest.trim_start().starts_with('Z')))
        .unwrap_or(false)
}

fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return Vec::new() };
    let mut out = Vec::new();
    for t in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(t.path().join("children")) {
            out.extend(s.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
        }
    }
    out
}

/// `VmHWM` of `pid` in KiB (its resident-memory high-water mark).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// SIGKILLs `pids` through the system `kill` tool (the standard library
/// can only signal its own children) and waits for them to vanish.
fn kill_all(pids: &[u32]) {
    if pids.is_empty() {
        return;
    }
    let _ = Command::new("kill")
        .arg("-KILL")
        .args(pids.iter().map(u32::to_string))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let deadline = Instant::now() + Duration::from_secs(5);
    while pids.iter().any(|&p| alive(p)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A port `p` such that `p..=p+extra` are all free right now, drawn from
/// the dynamic range starting at a point derived from `salt`.
pub fn free_port_run(extra: u16, salt: u64) -> Result<u16, String> {
    let mut rng = revel_core::isa::Rng::seed_from_u64(salt ^ u64::from(std::process::id()));
    for _ in 0..200 {
        let base = 20_000 + rng.gen_index(30_000) as u16;
        let held: Vec<TcpListener> =
            (0..=extra).map_while(|i| TcpListener::bind(("127.0.0.1", base + i)).ok()).collect();
        if held.len() == usize::from(extra) + 1 {
            return Ok(base);
        }
    }
    Err("no run of free ports found".to_string())
}

/// Blocks until `addr` answers a request with `accept`, or `timeout`.
pub fn wait_until(
    addr: &str,
    req: &Request,
    timeout: Duration,
    accept: impl Fn(&Response) -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let ok = Client::connect(addr)
            .and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_secs(5)))?;
                c.request(req)
            })
            .map(|r| accept(&r))
            .unwrap_or(false);
        if ok {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr} not ready within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
