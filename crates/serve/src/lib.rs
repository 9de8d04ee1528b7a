//! `deepdive-serve`: a long-lived HTTP daemon over materialized pipeline
//! state (§4.2 of the DeepDive paper, applied to serving).
//!
//! A completed run's checkpoint is loaded into resident storage once; the
//! daemon then answers relation and marginal queries from an immutable
//! [`ServeSnapshot`] and accepts new documents through the same DRed/IVM
//! path the batch pipeline uses, re-grounding only the touched region and
//! refreshing marginals with a bounded Gibbs pass before atomically
//! publishing the next epoch.
//!
//! Crash + overload posture:
//!
//! * every acknowledged `POST /documents` is fsync'd to a write-ahead log
//!   ([`wal`]) before it is applied — on restart the daemon restores the
//!   checkpoint and replays the WAL through the same ingest path;
//! * admission is bounded (`503 + Retry-After` beyond `max_inflight`),
//!   ingest is rate-limited (429), and slow or stalled peers are cut by
//!   socket timeouts plus a per-request deadline (408);
//! * SIGTERM/SIGINT ([`signals`]) drains in-flight requests, flushes a
//!   final checkpoint, marks the WAL checkpointed, and exits 0. `/readyz`
//!   (distinct from `/healthz`) answers 503 during WAL replay and drain;
//! * a node started with `--follow <primary-url>` ([`replication`]) tails
//!   the primary's WAL over `GET /wal`, persists its own copy, applies
//!   each record through DRed/IVM, and serves reads at bounded epoch lag
//!   while rejecting writes (405).
//!
//! Endpoints:
//!
//! * `GET /relations/{name}?offset=&limit=&<column>=<value>` — paged tuples
//!   with per-column equality filters;
//! * `GET /marginals/{relation}?min_p=&max_p=` — query-relation marginals
//!   with probability thresholds;
//! * `POST /documents` with `{"rows": {relation: [[cell, ...], ...]}}` —
//!   durable incremental ingest;
//! * `GET /healthz`, `GET /readyz`, `GET /metrics` — liveness, readiness,
//!   per-endpoint latency histograms, admission/WAL/replication gauges,
//!   and storage/execution gauges;
//! * `GET /wal?from=<seq>&stream=<id>` — the chunked WAL frame stream a
//!   follower tails (not for interactive use);
//! * `POST /subscriptions` ([`subscriptions`]) — live queries: register a
//!   relation filter and/or marginal threshold band and receive one delta
//!   frame per published epoch, either streamed on the same connection
//!   (chunked ndjson with heartbeats) or fetched by cursor with
//!   `GET /subscriptions/{id}?from=<epoch>&wait_ms=` long-polls. Slow
//!   consumers are shed with an explicit `lagged` frame and re-based on a
//!   fresh snapshot rather than blocking ingest.
//!
//! Everything is hand-rolled over `std::net` — the offline build takes no
//! HTTP or runtime dependencies.

mod admin;
mod handlers;
pub mod http;
mod ingest;
pub mod metrics;
pub mod replication;
pub mod server;
pub mod signals;
pub mod snapshot;
pub mod subscriptions;
pub mod wal;

pub use metrics::ServeMetrics;
pub use replication::{http_request_json, promote, ReplicationStats};
pub use server::{
    DrainSummary, Lifecycle, ScrubStats, ServeConfig, ServeState, Server, ServerHandle,
};
pub use snapshot::{ServeSnapshot, SnapshotCell};
pub use subscriptions::{SubscriptionRegistry, SubscriptionSpec};
pub use wal::{Wal, WalOptions, WalRecovery, DEFAULT_SEGMENT_BYTES};
