//! Chaos loopback tests: a server whose `serve.worker.dispatch`
//! failpoint injects errors, delays and panics into a seeded ~10% of jobs,
//! clients replaying through them with the shared harness, and the
//! acceptance criteria — every eventually-successful response is
//! byte-identical to the batch path and no worker dies permanently.

use revel_core::Bench;
use revel_serve::client::Client;
use revel_serve::harness::replay_once;
use revel_serve::protocol::{encode_request, encode_response, Request, Response};
use revel_serve::server::{response_for_run, FinalStats, Server, ServerConfig, DISPATCH_FAILPOINT};

fn start(workers: usize, queue_capacity: usize) -> (String, std::thread::JoinHandle<FinalStats>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        ..Default::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    // Shutdown is answered inline (control plane): the dispatch failpoint
    // never touches it.
    assert_eq!(c.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
}

fn simulate_req(bench: &Bench, arch: &str) -> Request {
    Request::Simulate {
        bench: bench.name().to_string(),
        params: bench.params(),
        arch: arch.to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    }
}

/// Acceptance criterion: with seeded injections at ~10% of jobs, three
/// clients against two workers converge — every request eventually
/// succeeds, and each success is byte-identical to what `Bench::run`
/// produces. Faults were really injected (server counter) and neither
/// worker died permanently (the pool still serves after the storm).
#[test]
fn chaos_at_ten_percent_converges_to_byte_identical_results() {
    use revel_core::compiler::BuildCfg;
    let (addr, handle) = start(2, 16);
    // Filtered on this server's port, so concurrent tests never fire it.
    let port = addr.rsplit(':').next().expect("addr has a port");
    let spec = format!(
        "{DISPATCH_FAILPOINT}#{port}=err%0.034/7; {DISPATCH_FAILPOINT}#{port}=delay:5%0.033/8; \
         {DISPATCH_FAILPOINT}#{port}=panic%0.033/9"
    );
    assert_eq!(revel_failpoint::arm_spec(&spec), Ok(3));

    let cells: Vec<(Bench, &str, BuildCfg)> = vec![
        (Bench::Solver { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Fft { n: 64 }, "revel", BuildCfg::revel(1)),
        (Bench::Qr { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Svd { n: 12 }, "revel", BuildCfg::revel(1)),
    ];
    let expected: Vec<Response> = cells
        .iter()
        .map(|(b, _, cfg)| response_for_run(&b.run(cfg).expect("batch path runs")))
        .collect();

    std::thread::scope(|s| {
        for client_no in 0..3usize {
            let (addr, cells, expected) = (&addr, &cells, &expected);
            s.spawn(move || {
                // Three passes over the cells, each client starting at a
                // different offset; frame id k answers cell order[k].
                let order: Vec<usize> =
                    (0..3 * cells.len()).map(|k| (k + client_no) % cells.len()).collect();
                let frames: Vec<String> = order
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| encode_request(k as u64, &simulate_req(&cells[i].0, cells[i].1)))
                    .collect();
                let got = replay_once(addr, &frames, None).expect("converges");
                for (k, &i) in order.iter().enumerate() {
                    assert_eq!(
                        got[&(k as u64)],
                        encode_response(k as u64, &expected[i]),
                        "client {client_no}: {} [{}] diverged after retries",
                        cells[i].0.name(),
                        cells[i].1
                    );
                }
            });
        }
    });

    // No worker died permanently: more sequential jobs than workers all
    // complete after the chaos traffic (a dead slot would hang one).
    let sleeps: Vec<String> =
        (0..4).map(|id| encode_request(id, &Request::Sleep { ms: 1 })).collect();
    let got = replay_once(&addr, &sleeps, None).expect("pool alive");
    for id in 0..4 {
        assert_eq!(got[&id], encode_response(id, &Response::Slept { ms: 1 }));
    }

    shutdown(&addr);
    let stats = handle.join().expect("server thread");
    revel_failpoint::disarm(DISPATCH_FAILPOINT, port);
    assert!(stats.injected > 0, "chaos must actually have injected faults: {stats}");
    assert!(
        stats.completed > stats.injected,
        "most traffic still completed around the injections: {stats}"
    );
}

/// A fault-seeded simulate request is answered with a structured `faulted`
/// snapshot (never a cached clean result), and the same seed yields the
/// same snapshot — over the wire, not just in-process.
#[test]
fn fault_seeded_requests_report_deterministic_snapshots() {
    let (addr, handle) = start(2, 8);
    let mut c = Client::connect(&addr).expect("connect");
    let bench = Bench::Qr { n: 12 };
    let fault_req = |seed: u64| Request::Simulate {
        bench: bench.name().to_string(),
        params: bench.params(),
        arch: "revel".to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: Some(seed),
        fault_count: Some(8),
        fault_window: Some(1200),
    };

    // Not every seed's events hit a live target (a drawn port may be idle
    // at that cycle); scan a deterministic seed range for one that applies
    // — the scan itself is reproducible, so the test is too.
    let (seed, first) = (0..32)
        .find_map(|seed| match c.request(&fault_req(seed)).expect("faulted simulate") {
            resp @ Response::Faulted { applied, .. } if applied > 0 => Some((seed, resp)),
            Response::Faulted { .. } => None,
            other => panic!("expected faulted, got {other:?}"),
        })
        .expect("some seed in 0..32 must land a fault");
    let second = c.request(&fault_req(seed)).expect("repeat faulted simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &second),
        "same seed, same snapshot, byte for byte"
    );

    // The clean path is untouched: the same cell without a fault seed
    // still verifies (the faulted runs never reached the cache).
    let clean = c.request(&simulate_req(&bench, "revel")).expect("clean simulate");
    assert!(matches!(clean, Response::Result { verified: true, .. }), "{clean:?}");

    shutdown(&addr);
    handle.join().expect("server thread");
}
