//! Lane state-machine tests under a fake clock: coordinated-omission
//! accounting, in-flight caps, retry backoff, and determinism — no
//! sockets, no sleeping.

use revel_traffic::lane::{Action, Lane, LaneCfg, Outcome, ReplyClass};

fn cfg(max_inflight: usize, max_attempts: u32) -> LaneCfg {
    LaneCfg {
        max_inflight,
        max_attempts,
        backoff_base_ms: 5,
        backoff_cap_ms: 200,
        late_threshold_us: 1_000,
    }
}

/// Drive a lane against a scripted server with fixed reply latency,
/// returning the sequence of (slot, attempt) sends.
fn drive(
    lane: &mut Lane,
    reply_latency_us: u64,
    classify: impl Fn(usize, u32) -> ReplyClass,
) -> Vec<(usize, u32)> {
    let mut now = 0u64;
    let mut sends = Vec::new();
    // (ready_at, slot, attempt) of in-flight replies, FIFO.
    let mut wire: Vec<(u64, usize, u32)> = Vec::new();
    for _ in 0..100_000 {
        match lane.next_action(now) {
            Action::Send { slot, attempt } => {
                lane.on_sent(now);
                sends.push((slot, attempt));
                wire.push((now + reply_latency_us, slot, attempt));
            }
            Action::Recv { wait_until_us } => {
                let (ready, slot, attempt) = wire[0];
                match wait_until_us {
                    // Wake early for a pending send — unless time already
                    // reached it (the lane is at its cap and can only make
                    // progress by draining the reply).
                    Some(t) if t < ready && now < t => now = t,
                    _ => {
                        now = now.max(ready);
                        wire.remove(0);
                        lane.on_reply(classify(slot, attempt), now);
                    }
                }
            }
            Action::Sleep { until_us } => now = now.max(until_us),
            Action::Done => return sends,
        }
    }
    panic!("lane did not finish");
}

#[test]
fn sends_follow_the_plan_in_order() {
    let planned = vec![0, 10_000, 20_000, 30_000];
    let mut lane = Lane::new(cfg(1, 1), 1, planned.clone());
    let sends = drive(&mut lane, 500, |_, _| ReplyClass::Final(Outcome::Ok));
    assert_eq!(sends, vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    let comps = lane.completions();
    assert_eq!(comps.len(), 4);
    for (i, c) in comps.iter().enumerate() {
        assert_eq!(c.slot, i);
        assert_eq!(c.intended_us, planned[i]);
        assert_eq!(c.outcome, Outcome::Ok);
        assert_eq!(c.latency_us(), 500, "fast server, on-time sends: latency is the RTT");
    }
    assert_eq!(lane.late_sends(), 0);
}

#[test]
fn coordinated_omission_latency_from_intended_time() {
    // Three arrivals 1ms apart, one connection, server takes 10ms per
    // reply: sends 2 and 3 are forced late. Latency must stretch from the
    // *intended* slot, not the actual (late) send.
    let mut lane = Lane::new(cfg(1, 1), 1, vec![0, 1_000, 2_000]);
    let sends = drive(&mut lane, 10_000, |_, _| ReplyClass::Final(Outcome::Ok));
    assert_eq!(sends.len(), 3);
    let comps = lane.completions();
    // Slot 0: sent at 0, done at 10ms → 10ms.
    assert_eq!(comps[0].latency_us(), 10_000);
    // Slot 1: intended 1ms, sent 10ms, done 20ms → 19ms (not 10ms).
    assert_eq!(comps[1].latency_us(), 19_000);
    // Slot 2: intended 2ms, sent 20ms, done 30ms → 28ms.
    assert_eq!(comps[2].latency_us(), 28_000);
    assert_eq!(lane.late_sends(), 2, "slots 1 and 2 slipped past the 1ms threshold");
}

#[test]
fn inflight_cap_is_respected() {
    // 10 arrivals all due at t=0, cap 3: the lane must never hold more
    // than 3 on the wire.
    let mut lane = Lane::new(cfg(3, 1), 1, vec![0; 10]);
    let mut now = 0u64;
    let mut wire: Vec<u64> = Vec::new();
    let mut peak = 0usize;
    loop {
        match lane.next_action(now) {
            Action::Send { .. } => {
                lane.on_sent(now);
                wire.push(now + 5_000);
                peak = peak.max(lane.inflight());
                assert!(lane.inflight() <= 3, "in-flight cap breached");
            }
            Action::Recv { .. } => {
                now = now.max(wire.remove(0));
                lane.on_reply(ReplyClass::Final(Outcome::Ok), now);
            }
            Action::Sleep { until_us } => now = now.max(until_us),
            Action::Done => break,
        }
    }
    assert_eq!(peak, 3, "the cap should actually be reached");
    assert_eq!(lane.completions().len(), 10);
}

#[test]
fn retryable_replies_back_off_and_eventually_succeed() {
    // First two attempts of every request bounce as overloaded.
    let mut lane = Lane::new(cfg(1, 4), 7, vec![0, 1_000]);
    let sends = drive(&mut lane, 100, |_, attempt| {
        if attempt < 3 {
            ReplyClass::Retryable { outcome: Outcome::Overloaded, hint_ms: None }
        } else {
            ReplyClass::Final(Outcome::Ok)
        }
    });
    assert_eq!(sends.len(), 6, "2 requests × 3 attempts");
    assert_eq!(lane.retries(), 4);
    for c in lane.completions() {
        assert_eq!(c.outcome, Outcome::Ok);
        assert_eq!(c.attempts, 3);
    }
}

#[test]
fn retries_exhaust_to_the_retryable_outcome() {
    let mut lane = Lane::new(cfg(1, 3), 7, vec![0]);
    drive(&mut lane, 100, |_, _| ReplyClass::Retryable {
        outcome: Outcome::Overloaded,
        hint_ms: Some(10),
    });
    let comps = lane.completions();
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].outcome, Outcome::Overloaded);
    assert_eq!(comps[0].attempts, 3);
    // Backoff with a 10ms hint floor, two waits: at least 20ms of delay.
    assert!(comps[0].done_us >= 20_000, "hinted backoff not respected: {}", comps[0].done_us);
}

#[test]
fn backoff_is_seed_deterministic_and_decorrelated() {
    let run = |seed: u64| {
        let mut lane = Lane::new(cfg(1, 5), seed, vec![0]);
        drive(&mut lane, 100, |_, _| ReplyClass::Retryable {
            outcome: Outcome::Error,
            hint_ms: None,
        });
        lane.completions()[0].done_us
    };
    assert_eq!(run(42), run(42), "same seed, same jittered backoff schedule");
    assert_ne!(run(42), run(43), "different seeds must decorrelate jitter");
}

/// The waits (ms) between each retryable reply and the retry it schedules,
/// for one request that is answered retryably on every attempt.
fn retry_gaps_ms(cfg: LaneCfg, seed: u64, hint_ms: Option<u64>) -> Vec<u64> {
    let mut lane = Lane::new(cfg, seed, vec![0]);
    let (mut now, mut replied_at, mut gaps) = (0u64, None, Vec::new());
    loop {
        match lane.next_action(now) {
            Action::Send { .. } => {
                if let Some(t) = replied_at {
                    gaps.push((now - t) / 1000);
                }
                lane.on_sent(now);
                lane.on_reply(ReplyClass::Retryable { outcome: Outcome::Error, hint_ms }, now);
                replied_at = Some(now);
            }
            Action::Sleep { until_us } => now = until_us,
            Action::Recv { .. } => panic!("every reply is fed at once"),
            Action::Done => return gaps,
        }
    }
}

#[test]
fn backoff_is_deterministic_capped_and_honors_the_hint() {
    let cfg = LaneCfg { max_attempts: 8, backoff_base_ms: 10, backoff_cap_ms: 100, ..cfg(1, 8) };
    let gaps = retry_gaps_ms(cfg, 42, None);
    assert_eq!(gaps, retry_gaps_ms(cfg, 42, None), "same seed, same delays");
    assert_eq!(gaps.len(), 7, "eight attempts, seven waits");
    for (i, &gap) in gaps.iter().enumerate() {
        let raw = (10u64 << i).min(100);
        assert!(
            gap >= raw / 2 && gap <= raw,
            "retry {}: {gap} outside [{}, {raw}]",
            i + 1,
            raw / 2
        );
    }
    // A server hint floors the delay even when the exponential term is
    // still tiny, and may exceed the cap: the server asked for it.
    assert!(retry_gaps_ms(cfg, 42, Some(77)).iter().all(|&g| g >= 77));
    assert!(retry_gaps_ms(cfg, 42, Some(150)).iter().all(|&g| g == 150));
}

#[test]
fn transport_error_retries_then_errors_out() {
    // max_attempts 2: a transport error after the first send reschedules;
    // a second transport error (attempts exhausted) completes as Error.
    let mut lane = Lane::new(cfg(1, 2), 1, vec![0]);
    let mut now = 0;
    let Action::Send { .. } = lane.next_action(now) else { panic!("expected send") };
    lane.on_sent(now);
    lane.on_transport_error(now);
    assert!(lane.completions().is_empty(), "one attempt left: must retry, not complete");
    // The retry is scheduled with backoff; skip to it.
    now = 1_000_000;
    let Action::Send { slot: 0, attempt: 2 } = lane.next_action(now) else {
        panic!("expected retry send")
    };
    lane.on_sent(now);
    lane.on_transport_error(now);
    let comps = lane.completions();
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].outcome, Outcome::Error);
    assert_eq!(comps[0].attempts, 2);
    assert!(matches!(lane.next_action(now), Action::Done));
}

#[test]
fn unsent_flight_survives_a_write_failure() {
    // A write failure between Send and on_sent must not lose the request
    // or count an attempt.
    let mut lane = Lane::new(cfg(1, 2), 1, vec![0]);
    let Action::Send { slot: 0, attempt: 1 } = lane.next_action(0) else { panic!("expected send") };
    lane.on_transport_error(0);
    // Attempt was never consumed: the redo is still attempt 1.
    let retry_at = match lane.next_action(0) {
        Action::Send { slot: 0, attempt: 1 } => 0,
        Action::Sleep { until_us } => until_us,
        other => panic!("unexpected {other:?}"),
    };
    let Action::Send { slot: 0, attempt: 1 } = lane.next_action(retry_at) else {
        panic!("expected the requeued first attempt")
    };
}

#[test]
fn abort_accounts_for_the_whole_plan() {
    let mut lane = Lane::new(cfg(2, 3), 1, vec![0, 0, 5_000, 10_000]);
    // Two on the wire, two never sent.
    let Action::Send { .. } = lane.next_action(0) else { panic!() };
    lane.on_sent(0);
    let Action::Send { .. } = lane.next_action(0) else { panic!() };
    lane.on_sent(0);
    lane.abort(1_000);
    let comps = lane.completions();
    assert_eq!(comps.len(), 4, "abort must account for in-flight AND unsent requests");
    assert!(comps.iter().all(|c| c.outcome == Outcome::Error));
    assert!(matches!(lane.next_action(2_000), Action::Done));
}

#[test]
fn retries_outrank_fresh_sends() {
    // A retry due at the same instant as a fresh arrival goes first (it
    // is older work). A 300ms hint above the 200ms cap pins the backoff
    // to exactly 300ms (hint is a floor), making the tie constructible.
    let mut lane = Lane::new(cfg(1, 2), 1, vec![0, 300_050]);
    let Action::Send { slot: 0, .. } = lane.next_action(0) else { panic!() };
    lane.on_sent(0);
    lane.on_reply(ReplyClass::Retryable { outcome: Outcome::Overloaded, hint_ms: Some(300) }, 50);
    // Both the retry (due 300_050) and the fresh arrival (due 300_050)
    // are now runnable; the retry must go first.
    let Action::Send { slot: 0, attempt: 2 } = lane.next_action(1_000_000) else {
        panic!("retry must outrank the fresh send")
    };
}
