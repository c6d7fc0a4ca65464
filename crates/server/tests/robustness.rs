//! Hostile-peer robustness battery for the epoll event loop.
//!
//! Two hostile peers a shared event-loop shard must survive: a
//! slow-loris peer dripping one byte per write, and a client that
//! vanishes while its request is still estimating. In both cases the
//! contract is the same — the bad connection is torn down (counted in
//! `conn_resets_total`), its slab slot is reclaimed (the
//! `open_connections` gauge returns to zero), and *other* connections on
//! the same shard keep being served throughout. A panicking estimate is
//! the third hazard: its worker answers a 500 and keeps serving.
//! Linux-only, like the server itself.
#![cfg(target_os = "linux")]

use hpcarbon_api::{
    batch_to_json, ApiError, DispatchIntensity, EstimateRequest, Estimator, IntensityProvider,
    SystemId, TraceSource,
};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(
    config: ServerConfig,
) -> (
    String,
    std::sync::Arc<hpcarbon_server::EstimateService>,
    hpcarbon_server::ShutdownHandle,
    std::thread::JoinHandle<hpcarbon_server::ServeSummary>,
) {
    start_with(config, Estimator::builder().build())
}

fn start_with(
    config: ServerConfig,
    estimator: Estimator,
) -> (
    String,
    std::sync::Arc<hpcarbon_server::EstimateService>,
    hpcarbon_server::ShutdownHandle,
    std::thread::JoinHandle<hpcarbon_server::ServeSummary>,
) {
    let server = Server::bind_with("127.0.0.1:0", config, estimator).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let service = server.service();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, service, handle, join)
}

/// One healthz round trip on a fresh connection; panics on any failure.
fn healthz_ok(addr: &str) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
}

/// Spins until `cond` holds or the timeout expires.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn slow_loris_is_dropped_without_stalling_shard_peers() {
    // One shard, so the loris and the healthy client share an event loop;
    // a short deadline keeps the test fast.
    let (addr, service, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0,
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_millis(300),
    });

    // The loris: one byte per write, far slower than the deadline allows.
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let request = b"GET /healthz HTTP/1.1\r\n\r\n";
    let started = Instant::now();
    let mut dropped = false;
    for byte in request {
        if loris.write_all(std::slice::from_ref(byte)).is_err() {
            dropped = true;
            break;
        }
        // While the loris drips, the shard keeps serving everyone else.
        healthz_ok(&addr);
        std::thread::sleep(Duration::from_millis(60));
    }
    if !dropped {
        // The writes may all have landed in socket buffers; the drop is
        // then observed as EOF (or a reset) on the read side.
        let mut buf = [0u8; 64];
        dropped = matches!(loris.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(dropped, "the slow-loris connection was never dropped");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "dropped before the deadline could have expired"
    );

    // The drop was counted, the slot reclaimed, and the shard is healthy.
    assert!(
        wait_until(Duration::from_secs(5), || {
            service.metrics().conn_resets.load(Ordering::Relaxed) >= 1
        }),
        "the reset was never counted"
    );
    healthz_ok(&addr);
    assert!(
        wait_until(Duration::from_secs(5), || {
            service.metrics().open_connections() == 0
        }),
        "the loris slot was not reclaimed"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stalled_pipelined_tail_does_not_outlive_the_deadline() {
    // A complete uncached estimate plus one stray byte of a pipelined
    // next request, then silence. The stray byte's read deadline must
    // survive the worker dispatch: if dispatching clears it, the
    // connection sits mid-request with no deadline after the completion
    // returns — unexpirable by any sweep, holding its slot forever and
    // wedging graceful drain.
    let (addr, service, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force the estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_millis(400),
    });

    let req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    let body = req.to_json();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}G",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();

    // The completed request is answered; then the *server* must close
    // the connection once the stalled tail hits the deadline (a read
    // timeout here means the slot was held forever — the bug).
    let mut out = Vec::new();
    s.read_to_end(&mut out)
        .expect("server never dropped the stalled mid-request connection");
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");

    assert!(
        wait_until(Duration::from_secs(5), || {
            service.metrics().conn_resets.load(Ordering::Relaxed) >= 1
                && service.metrics().open_connections() == 0
        }),
        "stalled tail was not counted as a reset / slot not reclaimed: resets={}, open={}",
        service.metrics().conn_resets.load(Ordering::Relaxed),
        service.metrics().open_connections(),
    );
    healthz_ok(&addr);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn half_closed_client_still_receives_its_response() {
    // A client may legally shutdown(SHUT_WR) after its request and keep
    // reading. The resulting EPOLLRDHUP lands while the estimate is at
    // the workers; teardown must be deferred until the response flushes
    // instead of resetting the connection unanswered.
    let (addr, service, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force the estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_secs(10),
    });

    // Enough simulated jobs that the half-close is observed mid-estimate.
    let mut req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    req.jobs = 200;
    let body = req.to_json();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "half-closed client was torn down unanswered: {text:?}"
    );
    assert!(
        text.contains("\r\n\r\n["),
        "response body missing after half-close: {text:?}"
    );

    assert!(
        wait_until(Duration::from_secs(5), || {
            service.metrics().open_connections() == 0
        }),
        "half-closed slot was not reclaimed"
    );
    healthz_ok(&addr);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn client_disconnect_mid_estimate_reclaims_the_slot() {
    let (addr, service, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force every estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_secs(10),
    });

    // A real, uncached estimate: enough simulated jobs that the client's
    // disconnect is observed while the request is still at the workers.
    let mut req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    req.jobs = 200;
    let body = req.to_json();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    // Vanish without reading a byte of the response.
    drop(s);

    // No panic, the reset is counted, the slot is reclaimed — and the
    // orphaned completion is discarded instead of answering anyone else.
    assert!(
        wait_until(Duration::from_secs(10), || {
            service.metrics().conn_resets.load(Ordering::Relaxed) >= 1
                && service.metrics().open_connections() == 0
        }),
        "disconnect mid-estimate was not cleaned up: resets={}, open={}",
        service.metrics().conn_resets.load(Ordering::Relaxed),
        service.metrics().open_connections(),
    );
    healthz_ok(&addr);

    handle.shutdown();
    let summary = join.join().unwrap();
    // The estimate itself still ran to completion at the worker.
    assert!(summary.estimate_calls <= 1, "{summary:?}");
}

/// The dispatch simulator, except that CISO's trace panics.
struct PanicsForCiso;

impl IntensityProvider for PanicsForCiso {
    fn year_trace(
        &self,
        region: OperatorId,
        source: TraceSource,
        year: i32,
        seed: u64,
    ) -> Arc<IntensityTrace> {
        assert_ne!(region, OperatorId::Ciso, "injected provider panic");
        DispatchIntensity.year_trace(region, source, year, seed)
    }
}

/// One request on a fresh `connection: close` socket: the status line
/// and the body.
fn exchange(addr: &str, method: &str, target: &str, body: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "{method} {target} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("a complete response");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn a_panicking_estimate_gets_a_500_and_the_worker_keeps_serving() {
    // One worker: if the panic killed it, every later miss would queue
    // forever behind a dead thread.
    let (addr, service, handle, join) = start_with(
        ServerConfig {
            shards: 1,
            workers: 1,
            cache_capacity: 16,
            max_body_bytes: 1 << 20,
            read_deadline: Duration::from_secs(10),
        },
        Estimator::builder().intensity(PanicsForCiso).build(),
    );
    let request = |region| {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, region);
        r.jobs = 30;
        r
    };

    let (status, body) = exchange(
        &addr,
        "POST",
        "/v1/estimate",
        &request(OperatorId::Ciso).to_json(),
    );
    assert_eq!(status, "HTTP/1.1 500 Internal Server Error", "{body}");
    assert!(
        body.starts_with("{\"error\": {\"kind\": \"internal\", \"message\": "),
        "{body}"
    );

    // The same worker answers the next miss with the estimator's bytes…
    let eso = request(OperatorId::Eso);
    let expected = batch_to_json(&[Ok::<_, ApiError>(
        Estimator::builder().build().estimate(&eso).unwrap(),
    )]);
    let (status, body) = exchange(&addr, "POST", "/v1/estimate", &eso.to_json());
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, expected);
    // …and its cache still works: the repeat is a hit with the same bytes.
    let (status, repeat) = exchange(&addr, "POST", "/v1/estimate", &eso.to_json());
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(repeat, expected);
    assert_eq!(service.metrics().cache_hits.load(Ordering::Relaxed), 1);

    healthz_ok(&addr);
    let (status, metrics) = exchange(&addr, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(metrics.contains("\nworker_panics_total 1\n"), "{metrics}");
    assert!(metrics.contains("\nresponses_5xx_total 1\n"), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}
