//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer (and, for served requests, around the encode / wire / decode
//! steps of each request), kept in memory, and written out once at the end.
//! With tracing off every call is a no-op, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one run (1-based).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer the span is charged to (a module name, e.g. `"verify"`).
    pub layer: &'static str,
    /// What was timed (the public call, or the request step).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Request the span belongs to, for spans of served requests.
    pub req: Option<u64>,
    /// Items of work the span covered (requests, datasets, configs...).
    pub count: u64,
}

/// Collects spans when on; does nothing when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 before the epoch).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves an id for a span whose end is not known yet, so children
    /// can name it as their parent before it is recorded.
    pub fn reserve(&self) -> Option<u64> {
        self.on.then(|| self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished span under `id` (from [`Tracer::reserve`]; a
    /// fresh id when `None`). Returns the id used.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: Option<u64>,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: Option<u64>,
        count: u64,
    ) -> Option<u64> {
        if !self.on {
            return None;
        }
        let id = id.unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req,
            count,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        Some(id)
    }

    /// Times `f`, recording it as a span of `layer` under `parent`. `f`
    /// gets the new span's id to pass to its own children. Returns the
    /// result and the elapsed time (measured whether tracing is on or not).
    pub fn time<R>(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, Duration) {
        let id = self.reserve();
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.record(id, parent, layer, name, start, end, None, count);
        (r, end - start)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once), by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time (ns) and span count per layer.
pub fn per_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.layer).or_default();
        e.0 += selfs[&s.id];
        e.1 += 1;
    }
    out
}

/// One JSON object per line, for the spans file.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"count\":{}}}\n",
            s.id,
            opt(s.parent),
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.req),
            s.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, layer, name: "t", start_ns: a, end_ns: b, req: None, count: 1 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] with children [10,40] and [30,60] (overlapping) and
        // a grandchild [15,25] under the first child.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60),
            span(4, Some(2), "c", 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);

        let layers = per_layer(&spans);
        assert_eq!(layers["root"], (50, 1));
        assert_eq!(layers["a"], (20, 1));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, "root", 10, 20), span(2, Some(1), "a", 0, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
        assert_eq!(covered_ns(0, 10, &[(2, 4), (4, 6), (8, 30)]), 6);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, _) = t.time(None, "x", "y", 1, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        t.time(None, "x", "outer", 1, |id| t.time(id, "y", "inner", 1, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(spans[0].id)));
    }
}
