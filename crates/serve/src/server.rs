//! The daemon: configuration, shared state, lifecycle, and a thread-pooled
//! TCP accept loop routing requests against the current [`ServeSnapshot`].
//! The write path lives in `ingest.rs`, read handlers in `handlers.rs`,
//! promote/checkpoint/scrub in `admin.rs`.
//!
//! Ownership layout:
//!
//! * Readers (`GET /relations`, `/marginals`, `/healthz`, `/readyz`,
//!   `/metrics`) touch only the snapshot cell and atomics — they never take
//!   the writer lock, so queries stay fast while an ingest is re-grounding.
//! * `POST /documents` only gates and enqueues; the committer thread
//!   serializes every write through `Mutex<DeepDive>` (see
//!   `ServeState::apply_records`) and publishes the next epoch with one
//!   pointer swap. A concurrent reader sees epoch N or N+1, never a mixture.
//!
//! Robustness posture (crash + overload):
//!
//! * **Durability.** Startup restores the checkpoint, then replays the WAL
//!   through the same ingest path; `/readyz` reports 503 until the replayed
//!   epoch swaps in. A successful checkpoint flush (startup replay or
//!   graceful drain) truncates the WAL.
//! * **Admission control.** At most `max_inflight` connections are queued
//!   or being served; beyond that the accept loop sheds with
//!   `503 + Retry-After` instead of queuing unboundedly. `POST /documents`
//!   additionally passes a token-bucket rate limit (429). Per-connection
//!   read/write timeouts plus an overall request deadline cut slowloris and
//!   stalled-mid-body peers with 408.
//! * **Lifecycle.** `graceful_shutdown` stops accepting, drains in-flight
//!   requests up to the drain budget, flushes a final checkpoint, and
//!   marks the WAL checkpointed; `abort` drops everything on the floor
//!   (the chaos tests' in-process `kill -9`).
//! * **Replication.** A primary streams its WAL over `GET /wal`; a node
//!   started with [`ServeConfig::follow`] tails that stream, persists each
//!   record to its own WAL, applies it through the same DRed/IVM path, and
//!   serves reads at observable epoch lag while answering `POST /documents`
//!   with 405. See [`crate::replication`] for the protocol.

use crate::admin::{
    flush_tick, get_checkpoint_bundle, post_promote, read_wal_position, run_every, scrub_once,
};
use crate::handlers::{
    get_marginals, get_relation, healthz, metrics, poll_subscription, post_subscriptions, readyz,
};
use crate::http::{ParseError, ParseLimits, Request, Response};
use crate::ingest::{committer_loop, post_documents, replay_wal, CommitRequest, TokenBucket};
use crate::metrics::ServeMetrics;
use crate::replication::{self, jittered_retry_secs, ReplicationStats};
use crate::snapshot::{ServeSnapshot, SnapshotCell};
use crate::subscriptions::SubscriptionRegistry;
use crate::wal::{Wal, WalOptions, WalRecovery, DEFAULT_RETAIN_RECORDS, DEFAULT_SEGMENT_BYTES};
use deepdive_core::faults::{is_durable_storage_error, points, FaultInjector};
use deepdive_core::{CheckpointTracker, DeepDive};
use deepdive_inference::RefreshBudget;
use deepdive_sampler::GibbsOptions;
use deepdive_storage::{ExecutionContext, MemoryBudget};
use parking_lot::Mutex;
use serde_json::json;
use std::collections::HashSet;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads answering requests (the accept loop is separate).
    pub workers: usize,
    /// Default (and maximum) rows per page on list endpoints.
    pub page_limit: usize,
    /// Gibbs budget for post-ingest refreshes.
    pub refresh: RefreshBudget,
    /// Where the ingest write-ahead log lives. `None` disables durability:
    /// ingests are acknowledged from memory only (the pre-WAL behavior,
    /// still right for exploratory serving over a scratch checkpoint).
    pub wal_dir: Option<PathBuf>,
    /// Where the final checkpoint is flushed on graceful shutdown (and
    /// after startup replay). Normally the `--resume` run directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Admission bound: connections queued or in-flight beyond this are
    /// shed with `503 + Retry-After`.
    pub max_inflight: usize,
    /// Token-bucket rate limit on `POST /documents`, in requests/second
    /// (burst = one second's worth). `None` = unlimited.
    pub ingest_rate: Option<f64>,
    /// How long a graceful shutdown waits for in-flight requests.
    pub drain: Duration,
    /// Per-syscall socket read timeout (each blocking read).
    pub read_timeout: Duration,
    /// Per-syscall socket write timeout (a peer not reading its response).
    pub write_timeout: Duration,
    /// Overall budget for reading one request (header + body); a peer
    /// dribbling bytes slower than this is cut with 408.
    pub request_deadline: Duration,
    /// Fault injection for chaos tests (fsync failures, torn WAL writes,
    /// replay stalls); defaults to a never-tripping injector.
    pub faults: Arc<FaultInjector>,
    /// Follow this primary (`http://host:port`) as a read-only replica:
    /// tail its WAL stream, apply every record locally, answer
    /// `POST /documents` with 405. Requires [`ServeConfig::wal_dir`] — the
    /// follower persists its own WAL copy so a crash resumes from the last
    /// durable offset without re-fetching history.
    pub follow: Option<String>,
    /// A follower whose epoch lag exceeds this fails `/readyz` (503) until
    /// it catches back up; load balancers route around stale replicas.
    pub max_lag_epochs: u64,
    /// Largest batch of WAL frame bytes shipped per chunk on `GET /wal`.
    pub stream_window: usize,
    /// Checkpointed records kept in the WAL for followers to fetch before
    /// compaction trims them (compacted-away offsets answer 410).
    pub wal_retain: u64,
    /// Group-commit linger window: how long the committer thread collects
    /// concurrent `POST /documents` bodies before fsyncing them as one WAL
    /// batch. `Duration::ZERO` means no wait: the committer takes what is
    /// queued at that instant, so every request is a batch of one with its
    /// own fsync.
    pub linger: Duration,
    /// WAL segment rotation threshold: a segment that reaches this many
    /// payload bytes is sealed and a new one started. Compaction later
    /// unlinks whole checkpointed segments past the retention horizon.
    pub wal_segment_bytes: u64,
    /// Full-rewrite cadence for incremental checkpoints: once this many
    /// database deltas are chained onto the base, the next flush rewrites
    /// the base and resets the chain. 0 = never (the first flush is always
    /// a full rewrite regardless).
    pub checkpoint_full_every: u64,
    /// How often the background flusher checkpoints pending WAL records and
    /// compacts checkpointed segments. Not a CLI flag; tests shrink it.
    pub flush_interval: Duration,
    /// Most live subscriptions registered at once; registration beyond this
    /// answers 429.
    pub max_subscriptions: usize,
    /// Byte budget for each subscriber's pending-frame queue. A consumer
    /// that falls further behind than this is shed (queue cleared, `lagged`
    /// frame, snapshot re-base) rather than allowed to block ingest.
    pub sub_queue_bytes: usize,
    /// Anti-entropy scrub cadence: how often the background scrubber
    /// re-verifies every WAL frame checksum and the whole checkpoint chain,
    /// quarantining and repairing what fails. `Duration::ZERO` (the
    /// default) disables the scrubber.
    pub scrub_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            page_limit: 100,
            refresh: RefreshBudget::default(),
            wal_dir: None,
            checkpoint_dir: None,
            max_inflight: 64,
            ingest_rate: None,
            drain: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(15),
            faults: Arc::new(FaultInjector::new()),
            follow: None,
            max_lag_epochs: 16,
            stream_window: 1 << 20,
            wal_retain: DEFAULT_RETAIN_RECORDS,
            linger: Duration::from_millis(2),
            wal_segment_bytes: DEFAULT_SEGMENT_BYTES,
            checkpoint_full_every: 16,
            flush_interval: Duration::from_secs(5),
            max_subscriptions: 64,
            sub_queue_bytes: 1 << 20,
            scrub_interval: Duration::ZERO,
        }
    }
}

/// Where the daemon is in its life: replaying the WAL (serving the
/// pre-replay epoch, not ready), ready, or draining for shutdown.
/// `/healthz` stays 200 throughout — liveness and readiness are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    Replaying,
    Ready,
    Draining,
}

impl Lifecycle {
    pub fn as_str(&self) -> &'static str {
        match self {
            Lifecycle::Replaying => "replaying",
            Lifecycle::Ready => "ready",
            Lifecycle::Draining => "draining",
        }
    }

    fn from_u8(v: u8) -> Lifecycle {
        match v {
            0 => Lifecycle::Replaying,
            2 => Lifecycle::Draining,
            _ => Lifecycle::Ready,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Lifecycle::Replaying => 0,
            Lifecycle::Ready => 1,
            Lifecycle::Draining => 2,
        }
    }
}

/// WAL bookkeeping surfaced in `/metrics` and the replay report.
#[derive(Debug, Default, Clone)]
pub(crate) struct WalStats {
    pub(crate) torn_tail_recovered: bool,
    pub(crate) torn_bytes: u64,
    pub(crate) replayed_records: u64,
    pub(crate) replay_skipped: u64,
}

/// Group-commit counters (monotonic; `/metrics` derives `avg_batch` and
/// `fsyncs_saved` from them).
#[derive(Debug, Default)]
pub(crate) struct GroupCommitStats {
    /// WAL batches durably committed (one fsync each).
    pub(crate) batches: AtomicU64,
    /// Records across those batches.
    pub(crate) records: AtomicU64,
}

/// Incremental-checkpoint bookkeeping surfaced in `/metrics` and
/// `report.json` (cumulative except `chain_len`, which is the current
/// chain depth).
#[derive(Debug, Default, Clone)]
pub(crate) struct CheckpointStats {
    pub(crate) flushes: u64,
    pub(crate) full_rewrites: u64,
    pub(crate) artifacts_written: u64,
    pub(crate) artifacts_skipped: u64,
    pub(crate) chain_len: u64,
}

/// Everything a request handler can reach, shared across workers.
pub struct ServeState {
    pub(crate) snapshot: SnapshotCell,
    /// The single writer. Only `POST /documents`, WAL replay, and the final
    /// checkpoint flush lock it.
    pub(crate) writer: Mutex<DeepDive>,
    pub metrics: ServeMetrics,
    pub(crate) budget: Arc<MemoryBudget>,
    pub(crate) ctx: Arc<ExecutionContext>,
    /// Relations derived by rules — not ingestible.
    pub(crate) derived: HashSet<String>,
    /// Full-quality inference options the run was configured with (the
    /// refresh derives bounded options from these).
    pub(crate) inference: GibbsOptions,
    pub(crate) refresh: RefreshBudget,
    pub(crate) page_limit: usize,
    pub(crate) started: Instant,
    pub(crate) lifecycle: AtomicU8,
    /// Connections admitted (queued or being served) right now.
    pub(crate) inflight: AtomicUsize,
    pub(crate) max_inflight: usize,
    pub(crate) ingest_bucket: Option<Mutex<TokenBucket>>,
    pub(crate) wal: Option<Mutex<Wal>>,
    pub(crate) wal_stats: Mutex<WalStats>,
    pub(crate) wal_dir: Option<PathBuf>,
    pub(crate) checkpoint_dir: Option<PathBuf>,
    /// Commit ingress: workers send [`CommitRequest`]s here and park on
    /// the reply. `None` before [`Server::start`] and again once shutdown
    /// tears the committer down (a late `POST /documents` answers 503).
    pub(crate) committer: Mutex<Option<mpsc::Sender<CommitRequest>>>,
    /// Group-commit linger window (the committer's batching horizon).
    pub(crate) linger: Duration,
    pub(crate) group_commit: GroupCommitStats,
    /// Dirty-tracking state threaded between incremental checkpoint
    /// flushes; lives beside the writer because a flush holds the writer
    /// lock anyway.
    pub(crate) ckpt_tracker: Mutex<CheckpointTracker>,
    pub(crate) ckpt_stats: Mutex<CheckpointStats>,
    pub(crate) checkpoint_full_every: u64,
    pub(crate) faults: Arc<FaultInjector>,
    pub(crate) read_timeout: Duration,
    pub(crate) write_timeout: Duration,
    pub(crate) request_deadline: Duration,
    /// The primary this node follows (`None` = it started as a primary).
    /// The *current* role is [`ServeState::is_follower`] — `POST /promote`
    /// flips a follower to primary at runtime.
    pub(crate) follow: Option<String>,
    pub(crate) max_lag_epochs: u64,
    pub(crate) stream_window: usize,
    /// Set by shutdown/abort; unblocks `GET /wal` streamers and the
    /// follower's tailer, which otherwise run forever.
    pub(crate) stopping: AtomicBool,
    pub(crate) replication: ReplicationStats,
    /// Live subscriptions and the delta router that feeds them.
    pub(crate) subs: SubscriptionRegistry,
    /// This node's fencing term — the election counter persisted in the
    /// WAL v3 header. Mirrors `Wal::term` so handlers read it lock-free.
    pub(crate) term: AtomicU64,
    /// Dynamic role. Starts as `follow.is_some()`; a successful
    /// `POST /promote` flips it to false.
    pub(crate) follower: AtomicBool,
    /// Pauses just the follower's tailer (promotion in flight). Cleared
    /// again if the promotion aborts; permanent once promoted.
    pub(crate) repl_paused: AtomicBool,
    /// Set when a peer's higher term revealed this node is a deposed
    /// primary: writes are refused, `GET /wal` streams end, `/readyz`
    /// answers "fenced".
    pub(crate) fenced: Mutex<Option<String>>,
    /// Set when the WAL or checkpoint hit a durable-storage failure
    /// (ENOSPC/EIO): writes are refused and the CLI exits 8.
    pub(crate) storage_fatal: Mutex<Option<String>>,
    /// Set when the scrubber found corruption it could not repair: the
    /// node degrades to read-only and `/readyz` answers "corrupt".
    pub(crate) corrupt: Mutex<Option<String>>,
    /// Anti-entropy scrubber books (`/metrics`, report.json).
    pub(crate) scrub: ScrubStats,
}

/// Scrub counters: passes run, corruptions found (WAL frames, checkpoint
/// artifacts, cross-node fingerprint mismatches), and repairs completed.
#[derive(Debug, Default)]
pub struct ScrubStats {
    pub runs: AtomicU64,
    pub corrupt_found: AtomicU64,
    pub repaired: AtomicU64,
}

impl ServeState {
    /// The currently served snapshot (for tests and the CLI banner).
    pub fn current(&self) -> Arc<ServeSnapshot> {
        self.snapshot.load()
    }

    pub fn lifecycle(&self) -> Lifecycle {
        Lifecycle::from_u8(self.lifecycle.load(Ordering::SeqCst))
    }

    fn set_lifecycle(&self, l: Lifecycle) {
        self.lifecycle.store(l.as_u8(), Ordering::SeqCst);
    }

    /// The 503 that endpoints accepting new work (`POST /documents`,
    /// `POST /subscriptions`) answer outside `Ready`.
    pub(crate) fn not_ready_response(&self) -> Option<Response> {
        let why = match self.lifecycle() {
            Lifecycle::Ready => return None,
            Lifecycle::Replaying => "not ready: WAL replay in progress",
            Lifecycle::Draining => "draining for shutdown",
        };
        Some(Response::error(503, why).with_retry_after(jittered_retry_secs(1)))
    }

    /// Atomically transition `from` → `to`; false when the state had
    /// already moved on. Replay uses this for Replaying → Ready so it can
    /// never clobber a `Draining` set by a concurrent graceful shutdown
    /// (which would reopen `/readyz` and the ingest gate mid-drain).
    pub(crate) fn lifecycle_cas(&self, from: Lifecycle, to: Lifecycle) -> bool {
        self.lifecycle
            .compare_exchange(from.as_u8(), to.as_u8(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Current admission queue depth (queued + in-flight connections).
    pub fn queue_depth(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// `(records, bytes)` currently in the WAL; zeros when disabled.
    /// `records` counts *pending* records (appended since the last
    /// checkpoint mark) — checkpointed records retained for replication
    /// show up in `physical_records` under `/metrics` instead.
    pub fn wal_gauges(&self) -> (u64, u64) {
        match &self.wal {
            Some(wal) => {
                let wal = wal.lock();
                (wal.records(), wal.bytes())
            }
            None => (0, 0),
        }
    }

    /// True when this node tails a primary instead of taking writes.
    /// Dynamic: a follower stops being one the moment `POST /promote`
    /// succeeds.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// The node's current fencing term (0 = no WAL / never elected).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    /// `"primary"` or `"follower"`, for status bodies.
    pub fn role_str(&self) -> &'static str {
        if self.is_follower() {
            "follower"
        } else {
            "primary"
        }
    }

    /// Adopt a term learned from a peer (never lowers). Persists it in the
    /// WAL manifest so a restart still refuses stale-term primaries.
    pub(crate) fn adopt_term(&self, term: u64) -> io::Result<()> {
        if let Some(wal) = &self.wal {
            wal.lock().set_term(term)?;
        }
        self.term.fetch_max(term, Ordering::SeqCst);
        Ok(())
    }

    /// A peer proved a newer term exists: this node is a deposed primary.
    /// Refuse writes from here on — acking them would split the brain.
    pub(crate) fn fence(&self, peer_term: u64) {
        let mut slot = self.fenced.lock();
        if slot.is_none() {
            let msg = format!(
                "fenced: a peer has seen term {peer_term}, newer than ours ({}); this \
                 deposed primary refuses writes — restart it with --follow pointing \
                 at the new primary",
                self.term()
            );
            eprintln!("deepdive serve: {msg}");
            *slot = Some(msg);
        }
    }

    pub fn fenced_reason(&self) -> Option<String> {
        self.fenced.lock().clone()
    }

    /// True while the tailer must stay off the stream (promote in flight,
    /// or this node was promoted).
    pub(crate) fn replication_paused(&self) -> bool {
        self.repl_paused.load(Ordering::SeqCst)
    }

    /// The durable-storage failure (ENOSPC/EIO) that stopped writes, when
    /// one happened. The CLI maps this to exit 8.
    pub fn storage_fatal_error(&self) -> Option<String> {
        self.storage_fatal.lock().clone()
    }

    /// Classify an I/O error from the WAL or checkpoint path: a
    /// durable-storage failure (disk full, I/O error) latches the node
    /// into refusing writes, and the CLI exits 8.
    pub(crate) fn note_storage_error(&self, e: &io::Error, what: &str) {
        if !is_durable_storage_error(e) {
            return;
        }
        let mut slot = self.storage_fatal.lock();
        if slot.is_none() {
            let msg = format!("durable storage failure during {what}: {e}");
            eprintln!("deepdive serve: FATAL: {msg}");
            *slot = Some(msg);
        }
    }

    /// The unrepairable corruption that degraded this node to read-only,
    /// when the scrubber found one.
    pub fn corrupt_reason(&self) -> Option<String> {
        self.corrupt.lock().clone()
    }

    pub(crate) fn set_corrupt(&self, why: String) {
        let mut slot = self.corrupt.lock();
        if slot.is_none() {
            eprintln!(
                "deepdive serve: scrub: degrading to read-only: {why} \
                 (reads keep serving the last good epoch)"
            );
            *slot = Some(why);
        }
    }

    /// Why writes are currently refused, if they are (fencing, unrepaired
    /// corruption, or a durable-storage failure).
    pub(crate) fn write_block_reason(&self) -> Option<String> {
        self.fenced_reason()
            .or_else(|| self.corrupt_reason())
            .or_else(|| self.storage_fatal_error())
    }

    /// Replication books (`/metrics`, `/readyz`, the CLI's divergence exit).
    pub fn replication(&self) -> &ReplicationStats {
        &self.replication
    }

    /// The live-subscription registry (tests and `/metrics`).
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.subs
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-started server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
    drain: Duration,
    flush_interval: Duration,
    scrub_interval: Duration,
    /// Intact WAL records recovered at open, pending replay on `start`.
    pending_replay: Vec<Vec<u8>>,
}

impl Server {
    /// Materialize the initial snapshot from `dd`'s current state (normally
    /// restored from a checkpoint), open the write-ahead log (recovering
    /// any records a crash left behind), and bind the listener. Marginals
    /// are computed once, up front, with the run's full inference options —
    /// serving never pays that cost again until an ingest.
    ///
    /// If the WAL holds records, the daemon starts in `Replaying` state:
    /// it serves the pre-replay epoch, answers `/readyz` with 503, and
    /// refuses ingests until [`Server::start`]'s replay thread swaps the
    /// replayed epoch in.
    pub fn new(dd: DeepDive, config: &ServeConfig) -> io::Result<Server> {
        if config.follow.is_some() && config.wal_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "follower mode requires a WAL (--wal-dir): the local copy is \
                 what lets a crashed follower resume without re-fetching history",
            ));
        }
        let inference = dd.config.inference.clone();
        let snapshot = ServeSnapshot::capture(&dd, 0, &inference);
        let derived = dd.grounder.engine().program().derived_relations();
        let budget = dd.db.memory_budget().clone();
        let ctx = dd.execution_context().clone();
        let listener = TcpListener::bind(&config.addr)?;

        let mut pending_replay = Vec::new();
        let mut wal_stats = WalStats::default();
        let replication = ReplicationStats::default();
        let mut initial_term = 0u64;
        let wal = match &config.wal_dir {
            Some(dir) => {
                let options = WalOptions {
                    retain_records: config.wal_retain,
                    // A follower's log carries the *primary's* stream id; a
                    // fresh one stays unadopted (0) until the handshake.
                    fresh_stream: config.follow.is_none(),
                    segment_bytes: config.wal_segment_bytes,
                };
                let (mut wal, mut recovery): (Wal, WalRecovery) =
                    Wal::open_with(dir, config.faults.clone(), options)?;
                if recovery.torn_tail {
                    eprintln!(
                        "deepdive serve: WARNING: dropped a torn WAL tail ({} bytes after {} \
                         intact records) — a crash interrupted an unacknowledged append",
                        recovery.torn_bytes,
                        recovery.records.len()
                    );
                }
                if config.follow.is_some() && wal.stream_id() == 0 {
                    // A checkpoint copied from the primary carries the
                    // stream position it was cut at; adopt it so the tail
                    // starts exactly where the seed state ends.
                    if let Some((stream_id, seq, term)) =
                        read_wal_position(config.checkpoint_dir.as_deref())
                    {
                        wal.adopt_stream(stream_id, seq)?;
                        if term > wal.term() {
                            wal.set_term(term)?;
                        }
                        eprintln!(
                            "deepdive serve: follower adopted stream {stream_id:016x} at seq \
                             {seq} (term {term}) from the seed checkpoint"
                        );
                    }
                }
                if recovery.manifest_rebuilt {
                    // The manifest was rebuilt from segment headers, so its
                    // checkpoint mark can be *behind* the truth (the segment
                    // snapshot only moves on rotation). `wal_position.json`
                    // records what the checkpoint actually holds — skip
                    // those records instead of double-applying them, and
                    // restore the persisted term if the headers lost it.
                    eprintln!(
                        "deepdive serve: WARNING: WAL manifest was missing or corrupt; \
                         rebuilt it from segment headers"
                    );
                    if let Some((stream_id, seq, term)) =
                        read_wal_position(config.checkpoint_dir.as_deref())
                    {
                        if stream_id == wal.stream_id() {
                            if term > wal.term() {
                                wal.set_term(term)?;
                            }
                            let through = seq.min(wal.next_seq());
                            if through > recovery.first_pending_seq {
                                let skip = ((through - recovery.first_pending_seq) as usize)
                                    .min(recovery.records.len());
                                recovery.records.drain(..skip);
                                recovery.first_pending_seq = through;
                                wal.mark_checkpointed(through)?;
                                eprintln!(
                                    "deepdive serve: skipped {skip} record(s) already held by \
                                     the checkpoint (wal_position.json says seq {seq})"
                                );
                            }
                        }
                    }
                }
                wal_stats.torn_tail_recovered = recovery.torn_tail;
                wal_stats.torn_bytes = recovery.torn_bytes;
                pending_replay = recovery.records;
                // Until replay finishes, the served state holds exactly the
                // checkpoint: applied = first pending seq.
                replication
                    .applied_seq
                    .store(recovery.first_pending_seq, Ordering::SeqCst);
                replication.observe_watermark(wal.next_seq());
                initial_term = wal.term();
                Some(Mutex::new(wal))
            }
            None => None,
        };

        let lifecycle = if pending_replay.is_empty() {
            Lifecycle::Ready
        } else {
            Lifecycle::Replaying
        };

        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                snapshot: SnapshotCell::new(snapshot),
                writer: Mutex::new(dd),
                metrics: ServeMetrics::default(),
                budget,
                ctx,
                derived,
                inference,
                refresh: config.refresh.clone(),
                page_limit: config.page_limit.max(1),
                started: Instant::now(),
                lifecycle: AtomicU8::new(lifecycle.as_u8()),
                inflight: AtomicUsize::new(0),
                max_inflight: config.max_inflight.max(1),
                ingest_bucket: config
                    .ingest_rate
                    .filter(|r| *r > 0.0)
                    .map(|r| Mutex::new(TokenBucket::new(r))),
                wal,
                wal_stats: Mutex::new(wal_stats),
                wal_dir: config.wal_dir.clone(),
                checkpoint_dir: config.checkpoint_dir.clone(),
                committer: Mutex::new(None),
                linger: config.linger,
                group_commit: GroupCommitStats::default(),
                ckpt_tracker: Mutex::new(CheckpointTracker::default()),
                ckpt_stats: Mutex::new(CheckpointStats::default()),
                checkpoint_full_every: config.checkpoint_full_every,
                faults: config.faults.clone(),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                request_deadline: config.request_deadline,
                follow: config.follow.clone(),
                max_lag_epochs: config.max_lag_epochs,
                stream_window: config.stream_window.max(1),
                stopping: AtomicBool::new(false),
                replication,
                subs: SubscriptionRegistry::new(config.max_subscriptions, config.sub_queue_bytes),
                term: AtomicU64::new(initial_term),
                follower: AtomicBool::new(config.follow.is_some()),
                repl_paused: AtomicBool::new(false),
                fenced: Mutex::new(None),
                storage_fatal: Mutex::new(None),
                corrupt: Mutex::new(None),
                scrub: ScrubStats::default(),
            }),
            workers: config.workers.max(1),
            drain: config.drain,
            flush_interval: config.flush_interval,
            scrub_interval: config.scrub_interval,
            pending_replay,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// WAL records recovered at open and pending replay (for the banner).
    pub fn pending_replay(&self) -> usize {
        self.pending_replay.len()
    }

    /// Spawn the accept loop, worker pool, and (when the WAL recovered
    /// records) the replay thread; returns the handle used to reach and
    /// stop them. Readers are served immediately — from the pre-replay
    /// epoch until replay publishes its single swap.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(std::sync::Mutex::new(rx));

        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = rx.clone();
            let state = self.state.clone();
            workers.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only for the dequeue.
                let stream = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                match stream {
                    Ok(stream) => {
                        handle_connection(stream, &state);
                        state.inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(_) => break, // accept loop dropped the sender
                }
            }));
        }

        let accept_shutdown = shutdown.clone();
        let accept_state = self.state.clone();
        let listener = self.listener;
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &tx, &accept_state, &accept_shutdown);
            // Dropping `tx` (with `listener`) drains the workers.
        });

        let replay = if self.pending_replay.is_empty() {
            self.state.write_wal_report();
            None
        } else {
            let state = self.state.clone();
            let records = self.pending_replay;
            Some(std::thread::spawn(move || replay_wal(&state, records)))
        };

        // The follower's tailer: waits out local replay itself, then tails
        // the primary until shutdown or a fatal replication error.
        let tailer = self.state.follow.clone().map(|primary| {
            let state = self.state.clone();
            std::thread::spawn(move || replication::run_follower(state, primary))
        });

        // The committer: the single consumer every `POST /documents` goes
        // through, turning concurrent POSTs into one WAL fsync per linger
        // window. Every node runs one — a follower's sits idle (its route
        // answers 405) until `POST /promote` makes it the primary.
        let (commit_tx, commit_rx) = mpsc::channel::<CommitRequest>();
        *self.state.committer.lock() = Some(commit_tx);
        let committer = {
            let state = self.state.clone();
            std::thread::spawn(move || committer_loop(&state, &commit_rx))
        };

        // Background flusher: periodic incremental checkpoint + WAL
        // compaction, off the committer thread so neither ever holds up an
        // in-flight ack (and compaction never blocks reads at all — it only
        // takes the wal lock, briefly). Followers flush too: their local
        // checkpoint is what a crash restarts from, what `GET /checkpoint`
        // serves after a promotion, and what bounds their own WAL growth.
        let flusher = (self.state.wal.is_some()
            && self.state.checkpoint_dir.is_some()
            && self.flush_interval > Duration::ZERO)
            .then(|| {
                let state = self.state.clone();
                let interval = self.flush_interval;
                std::thread::spawn(move || run_every(&state, interval, flush_tick))
            });

        // Anti-entropy scrubber: re-verify WAL frame checksums and the
        // checkpoint chain on interval, quarantine + repair what fails.
        let scrubber = (self.scrub_interval > Duration::ZERO).then(|| {
            let state = self.state.clone();
            let interval = self.scrub_interval;
            std::thread::spawn(move || run_every(&state, interval, scrub_once))
        });

        Ok(ServerHandle {
            addr,
            state: self.state,
            shutdown,
            workers,
            accept: Some(accept),
            replay,
            tailer,
            committer: Some(committer),
            flusher,
            scrubber,
            drain: self.drain,
        })
    }
}

/// Blocking accept + admission control: beyond `max_inflight` admitted
/// connections (or during drain) the connection is answered `503` with
/// `Retry-After` and closed — bounded queueing with explicit load-shedding
/// instead of an unbounded backlog that falls over. The thread sleeps in
/// `accept(2)` until a client connects; shutdown sets the flag and then
/// connects once itself ([`wake_accept`]), and that connection — seen with
/// the flag already set — ends the loop without being admitted or shed.
fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::Sender<TcpStream>,
    state: &ServeState,
    shutdown: &AtomicBool,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                if state.lifecycle() == Lifecycle::Draining {
                    shed(stream, state, "draining for shutdown");
                    continue;
                }
                // Admit up front so the gauge covers queued + in-flight.
                let admitted = state.inflight.fetch_add(1, Ordering::SeqCst);
                if admitted >= state.max_inflight {
                    state.inflight.fetch_sub(1, Ordering::SeqCst);
                    shed(stream, state, "admission queue full");
                    continue;
                }
                if tx.send(stream).is_err() {
                    state.inflight.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
            // A real accept error (EMFILE, ENOBUFS, ...): back off briefly
            // so it cannot spin the thread.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Unblock an accept loop parked in `accept(2)` by connecting to its
/// listener once and hanging up. A wildcard bind is reached over loopback.
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Answer a shed connection `503 + Retry-After` without parsing anything;
/// the write is bounded by a short timeout so a dead peer cannot stall the
/// accept loop.
fn shed(mut stream: TcpStream, state: &ServeState, why: &str) {
    state.metrics.record_shed();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = Response::error(503, why)
        .with_retry_after(jittered_retry_secs(1))
        .write_to(&mut stream);
}

/// Handle to a running server: address, shared state, clean shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    replay: Option<JoinHandle<()>>,
    tailer: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
    drain: Duration,
}

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainSummary {
    /// In-flight requests left when the drain budget expired (0 = clean).
    pub stragglers: usize,
    /// Whether the final checkpoint (and WAL truncation) succeeded.
    pub checkpoint_flushed: bool,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// Graceful shutdown: stop accepting (new connections are shed with
    /// 503 while the listener lives, refused once it closes), drain
    /// in-flight requests up to the drain budget, flush a final checkpoint,
    /// truncate the WAL, and join every thread that finished in time.
    pub fn graceful_shutdown(mut self) -> io::Result<DrainSummary> {
        self.state.set_lifecycle(Lifecycle::Draining);
        // Stop replication first: `GET /wal` streamers end their chunked
        // bodies cleanly, and the follower's tailer (which would otherwise
        // reconnect forever) winds down. Subscription streamers end their
        // bodies the same way once the registry closes and wakes them.
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.subs.close_all();
        // Let the replay finish first — it holds the writer lock and is
        // finite; the final checkpoint needs its result anyway. The accept
        // loop stays up meanwhile so new connections get a 503, not a
        // refused connect.
        join_all([self.tailer.take(), self.replay.take()]);
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        join_all([self.accept.take()]);

        // Drain: wait for admitted connections to finish, bounded by the
        // drain budget (socket deadlines bound each one individually).
        let deadline = Instant::now() + self.drain;
        while self.state.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stragglers = self.state.queue_depth();
        if stragglers > 0 {
            eprintln!(
                "deepdive serve: drain budget expired with {stragglers} request(s) still \
                 in flight; detaching workers"
            );
        }
        self.join_threads(stragglers == 0);

        let checkpoint_flushed = match self.state.flush_checkpoint() {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "deepdive serve: WARNING: final checkpoint flush failed ({e}); \
                     keeping the WAL"
                );
                false
            }
        };
        self.state.write_wal_report();
        Ok(DrainSummary {
            stragglers,
            checkpoint_flushed,
        })
    }

    /// Stop accepting, drain in-flight requests, flush the final
    /// checkpoint, join every thread. (The graceful path; chaos tests use
    /// [`ServerHandle::abort`] for the crash path.)
    pub fn shutdown(self) {
        let _ = self.graceful_shutdown();
    }

    /// Simulated `kill -9`: tear the server down with *no* drain, *no*
    /// final checkpoint, and *no* WAL truncation — exactly the state a
    /// crash leaves on disk. Chaos tests restart from the checkpoint + WAL
    /// this leaves behind and assert replay recovers every acknowledged
    /// ingest.
    pub fn abort(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.subs.close_all();
        self.join_threads(true);
    }

    /// Serve until `stop` flips true (the CLI sets it from SIGTERM/SIGINT),
    /// replication fails permanently, or durable storage fails (the CLI
    /// inspects [`ReplicationStats::fatal_error`] /
    /// [`ServeState::storage_fatal_error`] afterwards and exits nonzero),
    /// then drain gracefully.
    pub fn run_until(self, stop: &AtomicBool) -> io::Result<DrainSummary> {
        while !stop.load(Ordering::SeqCst) {
            if self.state.replication.fatal_error().is_some()
                || self.state.storage_fatal_error().is_some()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.graceful_shutdown()
    }

    /// Block until every serving thread exits (a daemon that runs forever).
    pub fn join(mut self) {
        self.join_threads(true);
    }

    /// Join every thread still held, in dependency order. The committer
    /// outlives the workers — an in-flight POST may be parked on its reply
    /// channel — so it goes after them: dropping the stored sender
    /// disconnects the channel and the committer exits once it has drained
    /// anything still queued. With `workers_done == false` (a drain that
    /// left stragglers) the workers are detached instead, and so is the
    /// committer a straggler may still be waiting on.
    fn join_threads(&mut self, workers_done: bool) {
        join_all([self.tailer.take(), self.replay.take(), self.accept.take()]);
        if workers_done {
            join_all(self.workers.drain(..).map(Some));
        } else {
            self.workers.clear();
        }
        *self.state.committer.lock() = None;
        let committer = self.committer.take().filter(|_| workers_done);
        join_all([committer, self.flusher.take(), self.scrubber.take()]);
    }
}

fn join_all(threads: impl IntoIterator<Item = Option<JoinHandle<()>>>) {
    for t in threads.into_iter().flatten() {
        let _ = t.join();
    }
}

fn handle_connection(stream: TcpStream, state: &ServeState) {
    // A silent peer must not pin a worker: every read and write syscall is
    // bounded, and the whole request must arrive within the deadline.
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    let _ = stream.set_write_timeout(Some(state.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let limits = ParseLimits {
        max_body: crate::http::MAX_BODY_BYTES,
        deadline: Some(Instant::now() + state.request_deadline),
    };
    match Request::parse_with(&mut reader, &limits) {
        Ok(req) => {
            let start = Instant::now();
            // A handler panic must cost one connection, not one worker: the
            // dispatch below runs under `catch_unwind`, and an unwound
            // request is answered 500 (best-effort — a stream that already
            // wrote its header just drops) and counted in `/metrics`.
            // `GET /wal` and `POST /subscriptions` own the socket: they
            // write unbounded chunked streams, which the Response type (one
            // buffered body) cannot express.
            if req.method == "GET" && req.path == "/wal" {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    replication::serve_wal_stream(&req, &mut write_half, state)
                }));
                let ok = outcome.unwrap_or_else(|_| {
                    state.metrics.record_panic();
                    false
                });
                state.metrics.record("wal", start.elapsed(), ok);
                return;
            }
            if req.method == "POST" && req.path == "/subscriptions" {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    post_subscriptions(&req, &mut write_half, state)
                }));
                let ok = outcome.unwrap_or_else(|_| {
                    state.metrics.record_panic();
                    let _ = Response::error(500, "handler panicked; the worker survived")
                        .write_to(&mut write_half);
                    false
                });
                state.metrics.record("subscriptions", start.elapsed(), ok);
                return;
            }
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&req, state)));
            let (endpoint, response) = match outcome {
                Ok(routed) => routed,
                Err(_) => {
                    state.metrics.record_panic();
                    (
                        "other",
                        Response::error(500, "handler panicked; the worker survived"),
                    )
                }
            };
            state
                .metrics
                .record(endpoint, start.elapsed(), response.status < 400);
            let _ = response.write_to(&mut write_half);
        }
        Err(ParseError::Bad { status, message }) => {
            if status == 408 {
                state.metrics.record_timeout();
            }
            let _ = Response::error(status, &message).write_to(&mut write_half);
        }
        Err(ParseError::Io(_)) => {}
    }
}

fn route(req: &Request, state: &ServeState) -> (&'static str, Response) {
    if state.faults.trips(points::SERVE_HANDLER_PANIC) {
        // The regression stand-in for any latent handler bug: prove the
        // worker catches the unwind, answers 500, and keeps serving.
        panic!("armed serve_handler_panic fault point");
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(state)),
        ("GET", "/readyz") => ("readyz", readyz(state)),
        ("GET", "/metrics") => ("metrics", metrics(state)),
        ("POST", "/documents") if state.is_follower() => (
            "documents",
            // RFC 7231 §6.5.5: a 405 names the methods that *are* allowed;
            // the forwarding hint tells the client where writes do land.
            Response::error(
                405,
                "this node is a read-only replica; POST /documents to the primary",
            )
            .with_header("Allow", "GET")
            .with_header("X-DD-Primary", state.follow.clone().unwrap_or_default()),
        ),
        ("POST", "/documents") => ("documents", post_documents(req, state)),
        ("POST", "/promote") => ("promote", post_promote(req, state)),
        ("GET", "/checkpoint") => ("checkpoint", get_checkpoint_bundle(state)),
        (_, "/promote" | "/documents") => (
            "other",
            Response::error(405, "use POST").with_header("Allow", "POST"),
        ),
        // `GET /wal` is intercepted in `handle_connection` (it streams);
        // any other method on it lands here.
        (_, "/checkpoint" | "/healthz" | "/readyz" | "/metrics" | "/wal") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        // `POST /subscriptions` is likewise intercepted (stream mode owns
        // the socket); the cursor/list/cancel forms are plain responses.
        ("GET", "/subscriptions") => (
            "subscriptions",
            Response::json(200, &state.subs.list_json()),
        ),
        (_, "/subscriptions") => (
            "other",
            Response::error(405, "use POST to subscribe, GET to list")
                .with_header("Allow", "GET, POST"),
        ),
        ("GET", path) => {
            if let Some(name) = path.strip_prefix("/relations/") {
                ("relations", get_relation(req, name, state))
            } else if let Some(name) = path.strip_prefix("/marginals/") {
                ("marginals", get_marginals(req, name, state))
            } else if let Some(id) = path.strip_prefix("/subscriptions/") {
                ("subscriptions", poll_subscription(req, id, state))
            } else {
                ("other", Response::error(404, "no such route"))
            }
        }
        ("DELETE", path) => {
            if let Some(id) = path.strip_prefix("/subscriptions/") {
                (
                    "subscriptions",
                    if state.subs.remove(id) {
                        Response::json(200, &json!({ "removed": id }))
                    } else {
                        Response::error(404, &format!("no subscription `{id}`"))
                    },
                )
            } else {
                ("other", Response::error(404, "no such route"))
            }
        }
        (_, path) if path.starts_with("/subscriptions/") => (
            "other",
            Response::error(405, "use GET to poll, DELETE to cancel")
                .with_header("Allow", "GET, DELETE"),
        ),
        (_, path) if path.starts_with("/relations/") || path.starts_with("/marginals/") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        _ => ("other", Response::error(404, "no such route")),
    }
}
