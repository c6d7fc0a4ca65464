//! The listener, the serving core, and graceful shutdown.
//!
//! ## Architecture
//!
//! [`Server::run`] boots the readiness-based epoll core in
//! `crate::event_loop`: the calling thread becomes the acceptor,
//! feeding `--shards` event-loop threads (nonblocking reads, incremental
//! parsing, zero-copy hot-cache answers) backed by a retained pool of
//! estimation workers. Serving requires Linux; on other targets
//! [`Server::run`] returns [`std::io::ErrorKind::Unsupported`].
//!
//! ## Shutdown
//!
//! [`ShutdownHandle::shutdown`] (wired to SIGTERM/SIGINT by `hpcarbon
//! serve`) flips one flag. The event loop notices within one 25 ms tick:
//! the acceptor stops accepting, and each shard drains — in-flight
//! requests complete and their responses are written announcing
//! `Connection: close` (so even a never-idle client releases its slot),
//! idle keep-alive connections close at the next sweep — then all
//! threads join and [`Server::run`] returns a [`ServeSummary`]. A clean
//! `SIGTERM → exit 0` is observable end to end, which is exactly what
//! CI's smoke job asserts.

use crate::service::EstimateService;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Estimation worker threads.
    pub workers: usize,
    /// Event-loop shards: threads that each own an epoll instance and a
    /// share of the connections.
    pub shards: usize,
    /// Canonical-request cache capacity, entries (0 disables).
    pub cache_capacity: usize,
    /// Request-body limit, bytes.
    pub max_body_bytes: usize,
    /// How long a peer may take to deliver a request once its first byte
    /// arrived (and how long a write may stall with the peer accepting
    /// nothing). Slow-loris protection; tests shrink it.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    /// Workers default to the available parallelism (capped at 16 — the
    /// estimator is CPU-bound, so more threads than cores just thrash),
    /// shards to the parallelism capped at 4 (the event loop is I/O
    /// bound; a few shards saturate the NIC long before the CPUs), a
    /// 1024-entry cache, the 1 MiB body limit, and the 10 s deadline.
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServerConfig {
            workers: cores.min(16),
            shards: cores.min(4),
            cache_capacity: 1024,
            max_body_bytes: crate::service::DEFAULT_MAX_BODY_BYTES,
            read_deadline: crate::http::REQUEST_READ_DEADLINE,
        }
    }
}

/// Requests a running [`Server`] to stop; cloneable across threads.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Initiates graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// HTTP requests parsed.
    pub http_requests: u64,
    /// `POST /v1/estimate` calls.
    pub estimate_calls: u64,
    /// Batch rows answered from the cache.
    pub cache_hits: u64,
    /// Batch rows computed by the estimator.
    pub cache_misses: u64,
}

/// A bound, not-yet-running estimation server.
pub struct Server {
    listener: TcpListener,
    service: Arc<EstimateService>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`, or port 0 for an ephemeral
    /// port) and prepares the service. Nothing is served until
    /// [`Server::run`].
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with(addr, config, hpcarbon_api::Estimator::builder().build())
    }

    /// [`Server::bind`] with an explicit estimator — the `hpcarbon
    /// serve --catalog DIR` path plugs a catalog-backed embodied source
    /// in here. The estimator must be a pure function of each request
    /// (the provider contract), or response caching would be unsound.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        estimator: hpcarbon_api::Estimator,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let service = EstimateService::new(estimator, config.cache_capacity)
            .with_max_body_bytes(config.max_body_bytes);
        Ok(Server {
            listener,
            service: Arc::new(service),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// The shared service (metrics and cache introspection for tests and
    /// the CLI's post-shutdown summary).
    pub fn service(&self) -> Arc<EstimateService> {
        Arc::clone(&self.service)
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// lifetime summary. Blocks the calling thread.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        #[cfg(target_os = "linux")]
        let served = crate::event_loop::run(
            self.listener,
            Arc::clone(&self.service),
            Arc::clone(&self.shutdown),
            crate::event_loop::LoopConfig {
                shards: self.config.shards.max(1),
                workers: self.config.workers.max(1),
                max_body: self.config.max_body_bytes,
                deadline: self.config.read_deadline,
            },
        );
        #[cfg(not(target_os = "linux"))]
        let served: std::io::Result<()> = Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "hpcarbon serve requires Linux (epoll)",
        ));
        served?;

        let m = self.service.metrics();
        let g = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        Ok(ServeSummary {
            http_requests: g(&m.http_requests),
            estimate_calls: g(&m.estimate_calls),
            cache_hits: g(&m.cache_hits),
            cache_misses: g(&m.cache_misses),
        })
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeSummary>,
    ) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn healthz_roundtrips_over_a_real_socket() {
        let (addr, handle, join) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let resp = roundtrip(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 1);
    }

    #[test]
    fn shutdown_with_no_traffic_exits_promptly() {
        let (_addr, handle, join) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 0);
        assert!(handle.is_shutdown());
    }

    #[test]
    fn busy_keep_alive_connections_close_at_shutdown() {
        // A client hammering one keep-alive connection is never idle, so
        // the drain must happen on the response path: after shutdown the
        // in-flight request completes, the response announces the close,
        // and the worker lets go — the server cannot hang on a busy peer.
        let (addr, handle, join) = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
            let mut served = 0u32;
            loop {
                if s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").is_err() {
                    return served;
                }
                match crate::loadgen::read_response(&mut reader) {
                    Ok((200, _)) => served += 1,
                    _ => return served,
                }
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        let served = client.join().unwrap();
        assert!(served >= 1, "the connection served before shutdown");
        // The worker released the busy connection; a hang here is the bug.
        let summary = join.join().unwrap();
        assert!(summary.http_requests >= u64::from(served));
    }

    #[test]
    fn queued_connections_drain_after_shutdown() {
        // One worker; park a connection, queue a second, then shut down:
        // the queued request must still be answered (drain contract).
        let (addr, handle, join) = start(ServerConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        // Give the worker time to claim the first connection.
        std::thread::sleep(Duration::from_millis(100));
        let mut second = TcpStream::connect(addr).unwrap();
        second
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        // The first (keep-alive) connection closes at its idle tick…
        drop(first);
        // …and the queued second connection is still served.
        let mut out = String::new();
        second.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 2);
    }
}
