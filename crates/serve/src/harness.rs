//! Shared pieces of the replay harnesses that hold a server or fleet to a
//! standalone reference (the `torture` binary and the chaos tests): the
//! work-plane filter, the standalone oracle, and a replay that waits out
//! retryable replies.

use crate::client::Client;
use crate::protocol::{encode_response, Request};
use crate::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Retryable replies one frame may collect before the replay gives up.
const MAX_RETRIES_PER_FRAME: u32 = 200;

/// True for ops whose responses must be byte-identical between a
/// standalone server and the fleet (control-plane answers legitimately
/// differ: depth, roster, aggregation).
pub fn is_work_plane(req: &Request) -> bool {
    matches!(
        req,
        Request::Simulate { .. }
            | Request::SimulateBatch { .. }
            | Request::Lint { .. }
            | Request::Compare { .. }
            | Request::Sleep { .. }
    )
}

/// Replays `frames` once over one connection; returns `id -> encoded
/// response frame`, waiting out retryable answers (overload, injected
/// faults, `fleet_unavailable` during a kill window) for the server's
/// hint until a terminal one arrives. With `latencies`, each frame's
/// time to its terminal answer is pushed there.
///
/// # Errors
/// A failed connect or request, or a frame still retryable after 200
/// answers.
pub fn replay_once(
    addr: &str,
    frames: &[String],
    mut latencies: Option<&mut Vec<Duration>>,
) -> Result<HashMap<u64, String>, String> {
    let mut out = HashMap::new();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for frame in frames {
        let t0 = Instant::now();
        let mut retries = 0u32;
        let (id, resp) = loop {
            let (id, resp) = client
                .request_raw(frame)
                .map_err(|e| format!("replay frame failed against {addr}: {e}"))?;
            if !resp.is_retryable() {
                break (id, resp);
            }
            retries += 1;
            if retries > MAX_RETRIES_PER_FRAME {
                return Err(format!(
                    "frame {id} still retryable after {retries} answers: {resp:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(resp.retry_after_ms().unwrap_or(10)));
        };
        if let Some(lat) = latencies.as_deref_mut() {
            lat.push(t0.elapsed());
        }
        out.insert(id, encode_response(id, &resp));
    }
    Ok(out)
}

/// The ground truth every fleet replay is held to: `frames` replayed
/// through a standalone in-process server (the pre-fleet serving path,
/// same process-wide deterministic simulator), which is then shut down.
///
/// # Errors
/// Bind or replay failures.
pub fn standalone_reference(frames: &[String]) -> Result<HashMap<u64, String>, String> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        ..Default::default()
    })
    .map_err(|e| format!("bind standalone: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("standalone addr: {e}"))?.to_string();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve());
        let reference = replay_once(&addr, frames, None);
        server.request_shutdown();
        let served = serving.join().map_err(|_| "standalone server panicked".to_string())?;
        served.map_err(|e| format!("standalone serve: {e}"))?;
        reference
    })
}
