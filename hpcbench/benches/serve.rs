//! `serve-mixed`: an in-process server (one event-loop shard, one
//! estimation worker, the default cache) driven by two keep-alive clients
//! in a closed loop.
//!
//! Each client sends ≈90 % repeats and ≈10 % fresh documents. Repeats are
//! byte-identical copies of the client's own earlier all-`Ok` documents,
//! Zipf-skewed toward the most recent of a window of 24, so they always
//! hit the hot response cache (the window is too small for the LRU to
//! evict). Fresh documents vary system, storage, region, policy, PUE,
//! upgrade and `jobs` but share one request seed, so every miss draws on
//! the same seven region-year trace keys.

use crate::client::{Client, Response};
use crate::common::{
    paper_request, reconcile, Outcome, RunCfg, REPORT_FIXTURE, REQUEST_FIXTURE, SETUP_REPEATS,
};
use crate::estimate::estimate_layers;
use crate::stages::{traced_estimator, Ledger};
use crate::util::{digest, mean, median, peak_rss_mib, records, timed, us_since, zipf_rank, Rng};
use hpcarbon_api::{batch_to_json, EstimateRequest, Estimator, PueSpec};
use hpcarbon_server::http::RequestParser;
use hpcarbon_server::{EstimateService, ServeSummary, Server, ServerConfig, ShutdownHandle};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const FRESH_SHARE: f64 = 0.1;
const REPEAT_WINDOW: usize = 24;
/// Requests of each client's sequence replayed on a shadow service to
/// re-time the server's stages.
const REPLAY_PER_CLIENT: usize = 600;

struct Running {
    addr: SocketAddr,
    stop: ShutdownHandle,
    join: JoinHandle<std::io::Result<ServeSummary>>,
    /// Requests sent to this server outside the clients' timed loops.
    extra_requests: u64,
}

fn start(estimator: Estimator) -> std::io::Result<Running> {
    let config = ServerConfig {
        workers: 1,
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, estimator)?;
    let addr = server.local_addr()?;
    let stop = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let mut running = Running {
        addr,
        stop,
        join,
        extra_requests: 0,
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect(addr) {
            match c.get("/healthz") {
                Ok(r) => {
                    running.extra_requests += 1;
                    if r.status == 200 {
                        return Ok(running);
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    running.finish();
    Err(std::io::Error::other("server never answered /healthz"))
}

impl Running {
    fn finish(self) -> Option<ServeSummary> {
        self.stop.shutdown();
        self.join.join().ok()?.ok()
    }
}

/// One fresh document: a `paper_default` request at the run's single
/// request seed, with a `jobs` count and a PUE made unique per
/// `(client, k)`, so no two fresh documents share a canonical form.
fn fresh_doc(gen: &mut Rng, client: usize, k: usize, seed: u64) -> String {
    let mut r = paper_request(gen, seed);
    r.jobs = gen.pick(&[40, 80, 120, 160]);
    let bump = (CLIENTS * k + client + 1) as f64 * 1e-6;
    r.pue = match r.pue {
        PueSpec::Constant(v) => PueSpec::Constant(v + bump),
        PueSpec::Seasonal { mean, amplitude } => PueSpec::Seasonal {
            mean: mean + bump,
            amplitude,
        },
    };
    r.to_json()
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    send_us: f64,
    lat_us: f64,
    fresh: bool,
    doc: usize,
    digest: u64,
    ok: bool,
}

/// One client's closed loop.
struct ClientRun {
    docs: Vec<String>,
    /// The document index of each request, in send order.
    sequence: Vec<usize>,
    recs: Vec<Rec>,
    transport_errors: u64,
}

fn client_loop(addr: SocketAddr, c: usize, cfg: &RunCfg, epoch: Instant, seed: u64) -> ClientRun {
    let mut gen = Rng::new(cfg.seed).fork(10 + c as u64);
    let mut run = ClientRun {
        docs: records(1 << 16),
        sequence: records(1 << 18),
        recs: records(1 << 18),
        transport_errors: 0,
    };
    let mut pool: Vec<usize> = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        run.transport_errors += 1;
        return run;
    };
    while epoch.elapsed() < cfg.duration() {
        let fresh = pool.is_empty() || gen.unit() < FRESH_SHARE;
        let doc = if fresh {
            let k = run.docs.len();
            run.docs.push(fresh_doc(&mut gen, c, k, seed));
            k
        } else {
            let window = pool.len().min(REPEAT_WINDOW);
            pool[pool.len() - 1 - zipf_rank(&mut gen, window)]
        };
        let send = Instant::now();
        let res = client.post("/v1/estimate", run.docs[doc].as_bytes());
        let lat_us = us_since(send);
        run.sequence.push(doc);
        let (ok, d) = match &res {
            Ok(r) => (r.is_2xx(), digest(&r.body)),
            Err(_) => (false, 0),
        };
        if let Ok(Response { body, .. }) = &res {
            if fresh && ok && !body.windows(8).any(|w| w == b"\"error\":") {
                pool.push(doc);
            }
        }
        run.recs.push(Rec {
            send_us: (send - epoch).as_nanos() as f64 / 1e3,
            lat_us,
            fresh,
            doc,
            digest: d,
            ok,
        });
        if res.is_err() {
            run.transport_errors += 1;
            match Client::connect(addr) {
                Ok(again) => client = again,
                Err(_) => break,
            }
        }
    }
    run
}

struct Pass {
    clients: Vec<ClientRun>,
    elapsed_s: f64,
    metrics: BTreeMap<String, f64>,
    summary: Option<ServeSummary>,
    fixture_ok: bool,
    /// `/metrics` counters that disagree with the clients' own counts.
    counter_failures: Vec<String>,
}

impl Pass {
    fn recs(&self) -> impl Iterator<Item = &Rec> {
        self.clients.iter().flat_map(|c| c.recs.iter())
    }
}

fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let Ok(Response { body, .. }) = Client::connect(addr).and_then(|mut c| c.get("/metrics"))
    else {
        return BTreeMap::new();
    };
    String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Posts the committed request fixture and compares the answer with the
/// committed report.
fn fixture_roundtrip(addr: SocketAddr) -> bool {
    let (Ok(req), Ok(want)) = (
        std::fs::read_to_string(REQUEST_FIXTURE),
        std::fs::read_to_string(REPORT_FIXTURE),
    ) else {
        return false;
    };
    Client::connect(addr)
        .and_then(|mut c| c.post("/v1/estimate", req.as_bytes()))
        .is_ok_and(|r| r.status == 200 && r.body == want.as_bytes())
}

fn pass(mut server: Running, cfg: &RunCfg, seed: u64) -> Pass {
    let epoch = Instant::now();
    let addr = server.addr;
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(addr, c, cfg, epoch, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = epoch.elapsed().as_secs_f64();
    let fixture_ok = fixture_roundtrip(addr);
    server.extra_requests += 1;
    let metrics = scrape(addr);
    server.extra_requests += 1;
    let mut p = Pass {
        clients,
        elapsed_s,
        metrics,
        summary: None,
        fixture_ok,
        counter_failures: Vec::new(),
    };
    p.counter_failures = p.check_counters(server.extra_requests);
    p.summary = server.finish();
    p
}

impl Pass {
    fn counter(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(-1.0)
    }

    /// The server's `/metrics` counters against the clients' own counts
    /// (the fixture round trip adds three missed rows); mismatches are
    /// returned as failed-check descriptions.
    fn check_counters(&self, extra: u64) -> Vec<String> {
        let sent = self.recs().count() as u64;
        let repeats = self.recs().filter(|r| !r.fresh).count() as f64;
        let fresh = self.recs().filter(|r| r.fresh).count() as f64;
        let mut bad = Vec::new();
        for (name, want) in [
            ("http_requests_total", (sent + extra) as f64),
            ("hot_responses_total", repeats),
            ("cache_hits_total", repeats),
            ("cache_misses_total", fresh + 3.0),
        ] {
            let got = self.counter(name);
            if got != want {
                bad.push(format!("/metrics {name} = {got}, clients counted {want}"));
            }
        }
        bad
    }
}

/// Expected response bytes for every document, from an estimator with a
/// context hoisting the documents' shared traces.
fn check(out: &mut Outcome, p: &Pass, corrupt: bool) {
    let mut mismatched = 0u64;
    let mut transport = 0u64;
    for (c, run) in p.clients.iter().enumerate() {
        let rows: Vec<Vec<EstimateRequest>> = run
            .docs
            .iter()
            .map(|d| EstimateRequest::batch_from_json(d).unwrap_or_default())
            .collect();
        let all: Vec<EstimateRequest> = rows.iter().flatten().cloned().collect();
        let plain = Estimator::builder().threads(1).build();
        let est = Estimator::builder()
            .threads(1)
            .context(Arc::new(plain.context_for(&all)))
            .build();
        let expected: Vec<u64> = rows
            .iter()
            .map(|rs| {
                let results: Vec<_> = rs.iter().map(|r| est.estimate(r)).collect();
                digest(batch_to_json(&results).as_bytes())
            })
            .collect();
        for (i, r) in run.recs.iter().enumerate() {
            let got = r.digest ^ u64::from(corrupt && c == 0 && i == 0);
            if !r.ok || got != expected[r.doc] {
                mismatched += 1;
            }
        }
        transport += run.transport_errors;
    }
    out.count_mismatches(
        "responses differ from the estimator's bytes or failed",
        mismatched,
        p.recs().count(),
    );
    out.check(&format!("{transport} transport errors"), transport == 0);
    out.check("committed fixture served byte-identically", p.fixture_ok);
}

/// Per-class means of the server stages, re-timed by replaying the
/// start of each client's request sequence on a shadow service.
/// `miss_residual_us` is the part of a miss the provider decorators do
/// not see (validation, cache, trace stats, scheduling, rendering): the
/// live server's decorators measure the provider part in place.
struct Replay {
    hot_us: f64,
    miss_residual_us: f64,
    /// Provider time per miss on the shadow service.
    miss_providers_us: f64,
    parse_us: f64,
    try_hot_us: f64,
    handle_us: f64,
}

const PROVIDER_STAGES: [&str; 4] = ["year_trace", "job_trace", "build_system", "part_spec"];

fn replay(p: &Pass) -> Replay {
    let mut parse = Vec::new();
    let mut hot_hit = Vec::new();
    let (mut hot_total, mut miss_outside) = (Vec::new(), Vec::new());
    let mut handle = Vec::new();
    let ledger = Ledger::new(false);
    for run in &p.clients {
        let shadow = EstimateService::new(traced_estimator(&ledger).build(), 1024);
        for &doc in run.sequence.iter().take(REPLAY_PER_CLIENT) {
            let bytes = Client::encode("POST", "/v1/estimate", run.docs[doc].as_bytes());
            let (req, us_parse) = timed(|| {
                let mut parser = RequestParser::new(shadow.max_body_bytes());
                parser.feed(&bytes);
                parser.poll()
            });
            let Ok(Some(req)) = req else { continue };
            parse.push(us_parse);
            let (hot, us_hot) = timed(|| shadow.try_hot(&req.body));
            match hot {
                Some(h) => {
                    black_box(h.rows);
                    hot_hit.push(us_hot);
                    hot_total.push(us_parse + us_hot);
                }
                None => {
                    let (resp, us) = timed(|| shadow.handle(&req));
                    black_box(resp.body.len());
                    handle.push(us);
                    miss_outside.push(us_parse + us_hot + us);
                }
            }
        }
    }
    let providers = ledger.sum_us(&PROVIDER_STAGES) / miss_outside.len().max(1) as f64;
    Replay {
        hot_us: mean(&hot_total),
        miss_residual_us: mean(&miss_outside) - providers,
        miss_providers_us: providers,
        parse_us: mean(&parse),
        try_hot_us: mean(&hot_hit),
        handle_us: mean(&handle),
    }
}

/// The transport stage: the median keep-alive `/healthz` round trip on
/// the idle server (socket, event loop and response write, with a
/// negligible handler).
fn wire_round_trip_us(server: &mut Running) -> f64 {
    let Ok(mut c) = Client::connect(server.addr) else {
        return 0.0;
    };
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let (r, us) = timed(|| c.get("/healthz"));
        if r.is_err() {
            break;
        }
        server.extra_requests += 1;
        rtt.push(us);
    }
    median(&rtt)
}

/// Time misses spent queued behind the other client's miss on the single
/// worker: a miss sent while the other client's miss is in flight waits
/// until that one completes.
fn worker_wait_us(p: &Pass) -> f64 {
    let mut misses: Vec<(f64, f64, usize)> = p
        .clients
        .iter()
        .enumerate()
        .flat_map(|(c, run)| {
            run.recs
                .iter()
                .filter(|r| r.fresh)
                .map(move |r| (r.send_us, r.send_us + r.lat_us, c))
        })
        .collect();
    misses.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut wait = 0.0;
    for (i, &(send, _, c)) in misses.iter().enumerate() {
        if let Some(&(_, done, _)) = misses[..i].iter().rev().find(|m| m.2 != c) {
            wait += (done - send).max(0.0);
        }
    }
    wait
}

fn traced(out: &mut Outcome, cfg: &RunCfg, seed: u64, untraced: &Pass) {
    let ledger = Ledger::new(false);
    let Ok(mut server) = start(traced_estimator(&ledger).build()) else {
        out.check("traced server starts", false);
        return;
    };
    let wire_us = wire_round_trip_us(&mut server);
    let t = pass(server, cfg, seed);
    for b in &t.counter_failures {
        out.check(b, false);
    }
    check(out, &t, false);
    let n = t.recs().count() as f64;
    let fresh = t.recs().filter(|r| r.fresh).count() as f64;
    estimate_layers(out, &ledger, n);
    out.layers.remove("sched.sim_runs_per_unit");
    out.layers.insert(
        "grid.year_trace_calls_per_miss",
        ledger.get("year_trace").calls as f64 / fresh.max(1.0),
    );
    let m = |k: &str| t.counter(k);
    out.layers.insert(
        "server.hot_hit_frac",
        m("hot_responses_total") / m("estimate_calls_total"),
    );
    out.layers.insert(
        "server.cache_hit_frac",
        m("cache_hits_total") / (m("cache_hits_total") + m("cache_misses_total")),
    );
    out.layers.insert(
        "server.wakeups_per_request",
        m("shard_wakeups_total{shard=\"0\"}") / m("http_requests_total"),
    );
    out.notes.push(format!(
        "serve bases: hot_responses {} of estimate_calls {}; cache_hits {} of rows {}; \
         wakeups {} of http_requests {}",
        m("hot_responses_total"),
        m("estimate_calls_total"),
        m("cache_hits_total"),
        m("cache_hits_total") + m("cache_misses_total"),
        m("shard_wakeups_total{shard=\"0\"}"),
        m("http_requests_total")
    ));

    let r = replay(&t);
    out.layers.insert("server.http_parse_us", r.parse_us);
    out.layers.insert("server.try_hot_us", r.try_hot_us);
    out.layers.insert("server.miss_handle_us", r.handle_us);
    let e2e: f64 = t.recs().map(|r| r.lat_us).sum();
    let wait = worker_wait_us(&t);
    out.layers.insert("server.worker_wait_frac", wait / e2e);
    // The worker shares two cores with the event loop and both clients,
    // so a live miss runs slower than its quiet replay. The providers are
    // timed in place; the rest of a miss is scaled by the same slowdown.
    let providers = ledger.sum_us(&PROVIDER_STAGES);
    let slowdown = providers / fresh.max(1.0) / r.miss_providers_us.max(1e-9);
    let residual = r.miss_residual_us * slowdown;
    let stages = n * wire_us + (n - fresh) * r.hot_us + fresh * residual + providers + wait;
    out.notes.push(format!(
        "serve stages: wire {wire_us:.1} us/request, hot {:.1} us/request, miss {residual:.1} \
         us/request outside the providers (quiet replay {:.1} x live slowdown {slowdown:.3}), \
         providers {providers:.0} us in place, worker wait {wait:.0} us over {fresh} misses",
        r.hot_us, r.miss_residual_us
    ));
    let mean_lat = |p: &Pass| mean(&p.recs().map(|r| r.lat_us).collect::<Vec<_>>());
    reconcile(out, stages, e2e, mean_lat(&t) / mean_lat(untraced) - 1.0);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let seed = Rng::new(cfg.seed).fork(2).request_seed();
    // Set-up is bind, spawn and the first `/healthz` answer; earlier
    // repeats are shut down outside the timed span.
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let (s, us) = timed(|| start(Estimator::builder().build()));
        secs.push(us / 1e6);
        match s {
            Ok(s) if i + 1 < SETUP_REPEATS => {
                s.finish();
            }
            s => server = s.ok(),
        }
    }
    out.setup_s = median(&secs);
    let Some(server) = server else {
        out.check("server starts and answers /healthz", false);
        return out;
    };
    let p = pass(server, cfg, seed);
    out.peak_rss_mib = peak_rss_mib();
    out.attempted = p.recs().count() as u64;
    out.elapsed_s = p.elapsed_s;
    out.samples = p
        .recs()
        .map(|r| ((r.send_us + r.lat_us) / 1e6, r.lat_us))
        .collect();
    let fresh = p.recs().filter(|r| r.fresh).count();
    out.notes.push(format!(
        "serve-mixed: {} requests ({fresh} fresh) from {CLIENTS} clients in {:.3} s; summary {:?}",
        out.attempted, p.elapsed_s, p.summary
    ));
    if cfg.trace {
        traced(&mut out, cfg, seed, &p);
    }
    for b in &p.counter_failures {
        out.check(b, false);
    }
    check(&mut out, &p, cfg.corrupt);
    out
}
