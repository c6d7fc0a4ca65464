//! # hpcarbon-server
//!
//! An always-on front end for the estimation API: a hand-rolled,
//! **std-only** HTTP/1.1 server (`hpcarbon serve`) and the matching load
//! generator (`hpcarbon loadgen`). No async runtime, no HTTP crate — a
//! readiness-based epoll event loop (raw syscalls declared by hand, same
//! idiom as the `signal(2)` shim): one acceptor feeds N
//! event-loop shards, each owning a connection [`slab::Slab`], driving
//! the incremental [`http::RequestParser`] off non-blocking reads. Cache
//! hits are answered directly on the event loop with zero body copies
//! (`Arc`'d rendered responses); only uncached estimation is handed to
//! the retained worker pool, which signals completion back through an
//! `eventfd`. Serving is Linux only: elsewhere [`Server::run`] returns
//! [`std::io::ErrorKind::Unsupported`]; the cache, parser, service and
//! load generator build everywhere.
//!
//! ## Routes
//!
//! - `POST /v1/estimate` — a schema-versioned [`hpcarbon_api::EstimateRequest`]
//!   (one object or an array) in, a batch report array out. Responses are
//!   **byte-identical** to `hpcarbon estimate` for the same document.
//! - `GET /healthz` — liveness (`ok\n`).
//! - `GET /metrics` — request counts, latency histogram, cache hits in a
//!   plain-text format (glossary in the README).
//!
//! ## The canonical-request cache
//!
//! In front of the estimator sits a sharded LRU cache keyed by each
//! validated request's canonical bytes
//! ([`hpcarbon_api::request::ValidRequest::canonical_json`]). Estimation
//! is a pure function of the request and the providers, and the canonical
//! form is injective over request semantics — so a cache hit returns the
//! exact bytes the uncached path would have computed. Repeated scenario
//! queries skip simulation entirely; determinism is never traded away.
//! The contract is specified in `DESIGN.md` §9.
//!
//! ## Graceful shutdown
//!
//! `SIGTERM`/`SIGINT` (or a programmatic [`ShutdownHandle`]) stop the
//! acceptor; each shard drains — connections already handed over are
//! served, in-flight requests complete and their responses are written,
//! idle keep-alive connections close — then workers join and
//! [`Server::run`] returns a [`ServeSummary`]. The CI smoke job asserts
//! exactly this sequence.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
#[cfg(target_os = "linux")]
pub mod conn;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod http;
pub mod loadgen;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod server;
pub mod service;
pub mod signal;
pub mod slab;

pub use cache::ShardedLru;
pub use http::{HttpError, HttpRequest, HttpResponse};
pub use loadgen::{wait_healthz, LoadGenConfig, LoadSummary};
pub use metrics::Metrics;
pub use server::{ServeSummary, Server, ServerConfig, ShutdownHandle};
pub use service::EstimateService;
