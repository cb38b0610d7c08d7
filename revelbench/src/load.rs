//! The load pump: executes `revel_traffic` lane state machines over real
//! connections, keeping every reply's raw bytes for the output oracle.
//!
//! Arrival schedules come from `revel_traffic::pattern::PatternEngine` and
//! pacing, in-flight caps, retries and late-send accounting from
//! `revel_traffic::lane::Lane`; this module only performs the I/O the lane
//! asks for and times each step (encode, wire, decode) as spans.

use crate::stats::Tally;
use crate::trace::Tracer;
use revel_serve::protocol::{
    decode_response, encode_request, Frame, FrameReader, Request, Response,
};
use revel_traffic::lane::{Action, Completion, Lane, LaneCfg, Outcome, ReplyClass};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Consecutive transport failures before a lane gives up on its plan.
const MAX_TRANSPORT_FAILURES: u32 = 40;
const RECONNECT_PAUSE: Duration = Duration::from_millis(20);
/// A server silent this long while requests are outstanding is dead.
const RECV_BACKSTOP: Duration = Duration::from_secs(20);
/// How late a socket read timeout may fire (scheduler-tick granularity,
/// measured at about 8 ms on a 250 Hz kernel).
const COARSE_TICK: Duration = Duration::from_millis(10);
/// Sleep between non-blocking reads while a send is about to fall due.
const POLL: Duration = Duration::from_micros(100);

/// One client connection speaking the JSON-lines protocol.
pub struct Conn {
    writer: TcpStream,
    frames: FrameReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Dials `addr` with Nagle off (requests are single small frames).
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Conn { writer: s.try_clone()?, frames: FrameReader::new(s), next_id: 1 })
    }
}

impl Conn {
    /// Reads the next reply frame; with a deadline, gives up with a
    /// timeout error at the deadline. Socket read timeouts fire up to a
    /// scheduler tick late, which would make the lane send late, so the
    /// last [`COARSE_TICK`] before the deadline polls a non-blocking
    /// socket with short sleeps instead.
    fn next_frame_by(&mut self, deadline: Option<Instant>) -> std::io::Result<Option<Frame>> {
        let Some(deadline) = deadline else {
            self.writer.set_read_timeout(Some(RECV_BACKSTOP))?;
            return self.frames.next_frame();
        };
        let coarse = deadline.saturating_duration_since(Instant::now()).saturating_sub(COARSE_TICK);
        if !coarse.is_zero() {
            self.writer.set_read_timeout(Some(coarse))?;
            match self.frames.next_frame() {
                Err(e) if is_timeout(&e) => {}
                other => return other,
            }
        }
        self.writer.set_nonblocking(true)?;
        let r = loop {
            match self.frames.next_frame() {
                Err(e) if is_timeout(&e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break Err(e);
                    }
                    std::thread::sleep((deadline - now).min(POLL));
                }
                other => break other,
            }
        };
        self.writer.set_nonblocking(false)?;
        r
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// The terminal reply a lane received for one planned request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Frame id the request went out under (the reply echoes it).
    pub id: u64,
    /// The reply frame exactly as received (newline stripped).
    pub line: String,
}

/// What one lane hands back.
#[derive(Debug, Default)]
pub struct LaneOut {
    /// Lane accounting, one entry per planned request.
    pub completions: Vec<Completion>,
    /// Per planned slot: the terminal reply, when one arrived.
    pub replies: Vec<Option<Reply>>,
    /// Sends that slipped past the lane's late threshold.
    pub late_sends: u64,
}

/// One lane's share of a phase.
pub struct LanePlan<'a> {
    /// Lane settings (in-flight cap, retries, late threshold).
    pub cfg: LaneCfg,
    /// Seed of the lane's retry-jitter stream.
    pub seed: u64,
    /// Intended send times, µs after `start`, ascending.
    pub planned: Vec<u64>,
    /// The request for each planned slot.
    pub requests: Vec<&'a Request>,
    /// Request ids for spans: slot `i` is request `req_base + i`.
    pub req_base: u64,
}

/// Drives `plan` against `addr` until every planned request has completed,
/// reusing `conn` when given. `wire_layer` names the layer the time on the
/// wire is charged to (the server, or the router in front of shards).
pub fn pump(
    addr: &str,
    plan: LanePlan<'_>,
    start: Instant,
    tracer: &Tracer,
    wire_layer: &'static str,
    mut conn: Option<Conn>,
) -> (Option<Conn>, LaneOut) {
    let now_us = || start.elapsed().as_micros() as u64;
    let at = |us: u64| start + Duration::from_micros(us);
    let n = plan.planned.len();
    let mut lane = Lane::new(plan.cfg, plan.seed, plan.planned);
    let mut replies: Vec<Option<Reply>> = vec![None; n];
    // Span ids of each request's root span, reserved at first send.
    let mut roots: Vec<Option<u64>> = vec![None; n];
    // (slot, frame id, write-finished instant) in send order.
    let mut in_flight: VecDeque<(usize, u64, Instant)> = VecDeque::new();
    let mut failures = 0u32;
    let mut done_count = 0usize;

    let close_roots = |lane: &Lane, done_count: &mut usize, roots: &mut Vec<Option<u64>>| {
        for c in &lane.completions()[*done_count..] {
            if tracer.on() {
                let id = roots[c.slot].take().or_else(|| tracer.reserve());
                tracer.record(
                    id,
                    None,
                    "traffic",
                    "request",
                    at(c.intended_us.min(c.first_send_us)),
                    at(c.done_us),
                    Some(plan.req_base + c.slot as u64),
                    1,
                );
            }
        }
        *done_count = lane.completions().len();
    };

    loop {
        if failures > MAX_TRANSPORT_FAILURES {
            lane.abort(now_us());
        }
        match lane.next_action(now_us()) {
            Action::Send { slot, .. } => {
                if conn.is_none() {
                    match Conn::connect(addr) {
                        Ok(c) => conn = Some(c),
                        Err(_) => {
                            failures += 1;
                            in_flight.clear();
                            lane.on_transport_error(now_us());
                            std::thread::sleep(RECONNECT_PAUSE);
                            continue;
                        }
                    }
                }
                let c = conn.as_mut().expect("dialed above");
                let id = c.next_id;
                c.next_id += 1;
                if roots[slot].is_none() {
                    roots[slot] = tracer.reserve();
                }
                let t0 = Instant::now();
                let frame = encode_request(id, plan.requests[slot]);
                let t1 = Instant::now();
                tracer.record(
                    None,
                    roots[slot],
                    "protocol",
                    "encode_request",
                    t0,
                    t1,
                    Some(plan.req_base + slot as u64),
                    1,
                );
                match c.writer.write_all(frame.as_bytes()) {
                    Ok(()) => {
                        failures = 0;
                        lane.on_sent(now_us());
                        in_flight.push_back((slot, id, t1));
                    }
                    Err(_) => {
                        failures += 1;
                        conn = None;
                        in_flight.clear();
                        lane.on_transport_error(now_us());
                    }
                }
            }
            Action::Recv { wait_until_us } => {
                let Some(c) = conn.as_mut() else {
                    in_flight.clear();
                    lane.on_transport_error(now_us());
                    continue;
                };
                match c.next_frame_by(wait_until_us.map(at)) {
                    Ok(Some(Frame::Line(line))) => {
                        let t_read = Instant::now();
                        let decoded = decode_response(&line);
                        let t_dec = Instant::now();
                        match (in_flight.pop_front(), decoded) {
                            (Some((slot, id, t_sent)), Ok((rid, resp))) if rid == id => {
                                failures = 0;
                                let req = Some(plan.req_base + slot as u64);
                                tracer.record(
                                    None,
                                    roots[slot],
                                    wire_layer,
                                    "round_trip",
                                    t_sent,
                                    t_read,
                                    req,
                                    1,
                                );
                                tracer.record(
                                    None,
                                    roots[slot],
                                    "protocol",
                                    "decode_response",
                                    t_read,
                                    t_dec,
                                    req,
                                    1,
                                );
                                let class = classify(&resp);
                                if let ReplyClass::Final(_) = class {
                                    replies[slot] = Some(Reply { id, line });
                                }
                                lane.on_reply(class, now_us());
                            }
                            _ => {
                                // Undecodable or out-of-order reply: the
                                // connection can no longer be trusted.
                                failures += 1;
                                conn = None;
                                in_flight.clear();
                                lane.on_transport_error(now_us());
                            }
                        }
                    }
                    Err(e) if is_timeout(&e) => {
                        if wait_until_us.is_none() {
                            failures += 1;
                            conn = None;
                            in_flight.clear();
                            lane.on_transport_error(now_us());
                        }
                    }
                    _ => {
                        failures += 1;
                        conn = None;
                        in_flight.clear();
                        lane.on_transport_error(now_us());
                    }
                }
            }
            Action::Sleep { until_us } => {
                let now = now_us();
                if until_us > now {
                    std::thread::sleep(Duration::from_micros(until_us - now));
                }
            }
            Action::Done => break,
        }
        close_roots(&lane, &mut done_count, &mut roots);
    }
    // An aborted lane completes its residue just before it reports Done.
    close_roots(&lane, &mut done_count, &mut roots);
    let out = LaneOut {
        completions: lane.completions().to_vec(),
        replies,
        late_sends: lane.late_sends(),
    };
    (conn, out)
}

/// Classifies a reply for the lane: retryable refusals carry the server's
/// backoff hint; everything else is terminal.
pub fn classify(resp: &Response) -> ReplyClass {
    if resp.is_retryable() {
        let outcome = match resp {
            Response::Overloaded { .. } => Outcome::Overloaded,
            _ => Outcome::Error,
        };
        ReplyClass::Retryable { outcome, hint_ms: resp.retry_after_ms() }
    } else {
        ReplyClass::Final(match resp {
            Response::TimedOut { .. } => Outcome::TimedOut,
            Response::Error { .. } => Outcome::Error,
            _ => Outcome::Ok,
        })
    }
}

/// Tallies completed requests against the expected reply bytes of each:
/// an `Ok` outcome whose frame differs from the oracle's counts as wrong
/// bytes, a refusal as refused, anything else as failed. `expected` gets
/// the request's index and frame id.
pub fn tally(
    done: &[(Completion, Option<Reply>)],
    expected: impl Fn(usize, u64) -> String,
) -> Tally {
    let mut t = Tally::default();
    for (i, (c, reply)) in done.iter().enumerate() {
        t.attempted += 1;
        match (c.outcome, reply) {
            (Outcome::Ok, Some(r)) => {
                if expected(i, r.id).trim_end_matches('\n') == r.line {
                    t.ok += 1;
                } else {
                    t.wrong_bytes += 1;
                }
            }
            (Outcome::Overloaded, _) => t.refused += 1,
            _ => t.failed += 1,
        }
    }
    t
}

/// Splits a phase's arrivals round-robin over `lanes` connections:
/// `(planned offsets, arrival indices)` per lane.
pub fn deal(arrivals: &[u64], lanes: usize) -> Vec<(Vec<u64>, Vec<usize>)> {
    let mut out = vec![(Vec::new(), Vec::new()); lanes];
    for (i, &at) in arrivals.iter().enumerate() {
        out[i % lanes].0.push(at);
        out[i % lanes].1.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_serve::protocol::encode_response;

    fn done(outcome: Outcome, line: Option<&str>) -> (Completion, Option<Reply>) {
        let c = Completion {
            slot: 0,
            intended_us: 0,
            first_send_us: 0,
            done_us: 5,
            attempts: 1,
            outcome,
        };
        (c, line.map(|l| Reply { id: 7, line: l.to_string() }))
    }

    #[test]
    fn tally_counts_refused_and_wrong_bytes_as_misses() {
        let good = Response::Slept { ms: 1 };
        let expected = |_: usize, id: u64| encode_response(id, &good);
        let right = encode_response(7, &good);
        let wrong = encode_response(7, &Response::Slept { ms: 2 });
        let runs = vec![
            done(Outcome::Ok, Some(right.trim_end())),
            done(Outcome::Ok, Some(wrong.trim_end())),
            done(Outcome::Overloaded, None),
            done(Outcome::Error, None),
            done(Outcome::Ok, None),
        ];
        let t = tally(&runs, expected);
        assert_eq!(t, Tally { attempted: 5, ok: 1, failed: 2, refused: 1, wrong_bytes: 1 });
        assert!((t.failed_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn deal_is_round_robin() {
        let lanes = deal(&[10, 20, 30, 40, 50], 2);
        assert_eq!(lanes[0], (vec![10, 30, 50], vec![0, 2, 4]));
        assert_eq!(lanes[1], (vec![20, 40], vec![1, 3]));
    }
}
