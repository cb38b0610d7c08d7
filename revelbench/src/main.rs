//! `revelbench` — end-to-end and per-layer benchmark of the REVEL stack.
//!
//! ```text
//! bash revelbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads, metrics and their units are read from `BENCHMARK.json` in
//! the working directory (the repository root). Each run checks every
//! output against an oracle and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`. The
//! traced run measures the workload untraced and traced (half the seconds
//! each), reports the difference as the tracing overhead, then probes each
//! layer's public calls. Spans go to `.bench_out/`. See `README.md` here.

mod layers;
mod load;
mod oracle;
mod proc;
mod serving;
mod stats;
mod trace;

use revel_bench::grid::Cell;
use revel_serve::protocol::Request;
use revel_traffic::json::{self, Value};
use stats::Tally;
use std::collections::BTreeMap;
use std::path::Path;
use trace::Tracer;

/// Metric name to measured value.
pub type Metrics = BTreeMap<String, f64>;

/// Where runs leave spans and scratch files (inside the checkout).
const OUT_DIR: &str = ".bench_out";

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics the workload itself measured.
    pub layer: Metrics,
    /// Request (or regeneration) accounting.
    pub tally: Tally,
    /// False once any oracle disagreed.
    pub correct: bool,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
    /// Cells the per-layer probes draw from.
    pub probe_cells: Vec<Cell>,
    /// A sample of the workload's own request/reply frames.
    pub frames: Vec<(Request, String)>,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            e2e: Metrics::new(),
            layer: Metrics::new(),
            tally: Tally::default(),
            correct: true,
            report: Vec::new(),
            probe_cells: Vec::new(),
            frames: Vec::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The parts of `BENCHMARK.json` the benchmark needs.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = bench_main(&argv) {
        eprintln!("revelbench: {e}");
        std::process::exit(1);
    }
}

fn bench_main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let spec = read_spec(Path::new("BENCHMARK.json"))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload '{}' (BENCHMARK.json lists {:?})",
            args.workload, spec.workloads
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = serving::lanes();
    if lanes > nproc {
        return Err(format!("{lanes} load connections would exceed nproc = {nproc}"));
    }
    for line in fingerprint(nproc) {
        println!("{line}");
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    revel_core::engine::set_jobs(nproc);

    let run = if args.trace {
        traced(&args)?
    } else {
        workload(&args.workload, args.seed, args.seconds, &Tracer::new(false))?
    };

    let (wanted, measured) =
        if args.trace { (&spec.per_layer, &run.layer) } else { (&spec.end_to_end, &run.e2e) };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let v = *measured.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number ({v})"));
        }
        metrics.push((
            name.clone(),
            Value::Obj(vec![("value".into(), Value::Num(v)), ("unit".into(), Value::str(unit))]),
        ));
    }
    for line in &run.report {
        println!("{line}");
    }
    for (name, unit) in wanted {
        println!("{name:<28} {:>16.6} {unit}", measured[name]);
    }
    println!(
        "failed_ratio {:.6} ({} of {} attempted: {} failed, {} refused, {} wrong bytes); correct = {}",
        run.tally.failed_ratio(),
        run.tally.misses(),
        run.tally.attempted,
        run.tally.failed,
        run.tally.refused,
        run.tally.wrong_bytes,
        run.correct
    );
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(run.correct)),
        ("attempted".into(), Value::u64(run.tally.attempted.max(1))),
        ("failed".into(), Value::u64(run.tally.misses())),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Result<Run, String> {
    let out = Path::new(OUT_DIR);
    let mut run = match name {
        "serve_warm" => serving::serve_warm(seed, seconds, tracer)?,
        "serve_batch" => serving::serve_batch(seed, seconds, tracer)?,
        "fleet_restart" => serving::fleet_restart(seed, seconds, tracer, out)?,
        other => return Err(format!("workload '{other}' has no implementation")),
    };
    for line in &mut run.report {
        *line = format!("[{}] {line}", if tracer.on() { "traced" } else { "untraced" });
    }
    Ok(run)
}

/// The traced run: the workload untraced, then traced, then the layer probes.
fn traced(args: &Args) -> Result<Run, String> {
    let half = args.seconds / 2.0;
    let base = workload(&args.workload, args.seed, half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let mut run = workload(&args.workload, args.seed, half, &tracer)?;
    let out = Path::new(OUT_DIR);

    let cells = run.probe_cells.clone();
    layers::cell_probes(&cells, args.seed, &tracer, &mut run.layer)?;
    if !run.layer.contains_key("router.hop_us") {
        layers::probe_fleet(&cells[..2], args.seed, &tracer, out, &mut run.layer)?;
    }
    layers::protocol_probe(&run.frames, &tracer, &mut run.layer)?;

    for (name, &v) in &run.e2e {
        let before = base.e2e.get(name).ok_or_else(|| format!("untraced run lacks {name}"))?;
        run.layer.insert(format!("overhead.{name}"), v - before);
        run.report.push(format!(
            "tracing overhead on {name}: {:+.6} (traced {v:.6} - untraced {before:.6})",
            v - before
        ));
    }

    let spans = tracer.spans();
    for (layer, (self_ns, count)) in trace::per_layer(&spans) {
        run.report.push(format!(
            "layer {layer:<12} self {:>12.3} ms over {count} span(s)",
            self_ns as f64 / 1e6
        ));
    }
    let coverage = request_coverage(&spans);
    run.report.push(format!("layer spans cover {:.1}% of request latency", coverage * 100.0));
    run.layer.insert("trace.coverage_pct".into(), coverage * 100.0);
    run.layer.insert("trace.spans".into(), spans.len() as f64);
    let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    run.report.push(format!("{} span(s) written to {}", spans.len(), path.display()));

    run.correct &= base.correct;
    run.tally.absorb(&base.tally);
    let mut report = base.report;
    report.append(&mut run.report);
    run.report = report;
    Ok(run)
}

/// Share of served requests' latency covered by their child spans
/// (encode, wire, decode): one minus the requests' self time over their
/// duration.
fn request_coverage(spans: &[trace::Span]) -> f64 {
    let selfs = trace::self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "request") {
        total += s.end_ns - s.start_ns;
        own += selfs[&s.id];
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let usage = "usage: revelbench --workload NAME --seed N --seconds S --trace 0|1";
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let bad = || format!("bad value '{val}' for {flag}; {usage}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'; {usage}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!("--workload is required; {usage}"));
    }
    Ok(a)
}

fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = |key: &str| -> Result<&[Value], String> {
        v.get(key).and_then(Value::as_arr).ok_or_else(|| format!("BENCHMARK.json lacks {key}"))
    };
    let field = |o: &Value, k: &str| -> Result<String, String> {
        o.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry lacks {k}"))
    };
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        list(key)?.iter().map(|m| Ok((field(m, "name")?, field(m, "unit")?))).collect()
    };
    Ok(Spec {
        workloads: list("workloads")?.iter().map(|w| field(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Host fingerprint lines: cores, CPU, compiler and source revision.
fn fingerprint(nproc: usize) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only this checkout's own repository, never one above it.
    let commit = cmd("git", &["--git-dir=.git", "rev-parse", "HEAD"])
        .unwrap_or_else(|| "n/a (not a git checkout)".into());
    vec![
        format!("host: nproc {nproc}, cpu {cpu}"),
        format!("host: {rustc}, commit {commit}, sources {}", source_digest()),
    ]
}

/// FNV digest of the program's sources (`crates/` and `Cargo.lock`), which
/// identifies the revision where no git metadata is present.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, files),
                Ok(t) if t.is_file() => files.push(p),
                _ => {}
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = String::new();
    for f in &files {
        all.push_str(&f.to_string_lossy());
        all.push_str(&String::from_utf8_lossy(&std::fs::read(f).unwrap_or_default()));
    }
    let (a, b) = revel_core::engine::persist::fingerprint(&all);
    format!("fnv:{a:016x}{b:016x}")
}
