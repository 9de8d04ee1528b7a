//! The write path. Every change to the served state goes through
//! [`ServeState::apply_records`]; its three callers differ only in where the
//! bytes came from and what a rejection means: the group committer behind
//! `POST /documents` (400/500 to the client), WAL replay at startup
//! (warn and skip; fatal on a follower), and the follower's tailer in
//! [`crate::replication`] (fatal divergence).

use crate::http::{Request, Response};
use crate::replication::jittered_retry_secs;
use crate::server::{Lifecycle, ServeState};
use crate::snapshot::ServeSnapshot;
use crate::subscriptions::{EpochDelta, IvmTrace};
use deepdive_core::faults::points;
use deepdive_core::DeepDive;
use deepdive_grounding::GroundingDelta;
use deepdive_inference::bounded_options;
use deepdive_sampler::GibbsOptions;
use deepdive_storage::{value_from_tsv, BaseChange, Value as DbValue, ValueType};
use serde_json::{json, Value as Json};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Classic token bucket: `rate` tokens/second refill, burst of one
/// second's worth (at least 1). `try_take` either spends a token or says
/// how long until one is available.
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(rate: f64) -> TokenBucket {
        let burst = rate.max(1.0);
        TokenBucket {
            rate: rate.max(f64::MIN_POSITIVE),
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    fn try_take(&mut self) -> Result<(), u64> {
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - self.tokens) / self.rate).ceil().max(1.0) as u64)
        }
    }
}

/// One ingest handed to the committer thread: the raw body plus the
/// channel its worker is parked on awaiting the batch's fate.
pub(crate) struct CommitRequest {
    body: Vec<u8>,
    reply: mpsc::Sender<Response>,
}

impl ServeState {
    /// Capture and publish the next snapshot — the single epoch swap every
    /// ingest path funnels through — and fan the exact delta out to live
    /// subscribers. The diff against the outgoing snapshot is computed only
    /// while subscribers exist, and routing happens strictly *after* the
    /// swap: a consumer that re-bases on `snapshot.load()` is therefore
    /// always at-or-ahead of any frame it may have missed while shed.
    ///
    /// Callers hold the writer lock, which orders concurrent publications
    /// (and thus frame epochs) totally. Returns `(epoch, fingerprint)`.
    pub(crate) fn publish_epoch(
        &self,
        dd: &DeepDive,
        advance: u64,
        opts: &GibbsOptions,
        trace: IvmTrace,
    ) -> (u64, u64) {
        let prev = self.snapshot.load();
        let epoch = prev.epoch + advance;
        let snapshot = ServeSnapshot::capture(dd, epoch, opts);
        let fingerprint = snapshot.fingerprint;
        let delta = self
            .subs
            .is_active()
            .then(|| EpochDelta::diff(&prev, &snapshot, trace));
        self.snapshot.store(snapshot);
        if let Some(delta) = delta {
            self.subs.route(&delta);
        }
        (epoch, fingerprint)
    }
}

/// Where a batch of records came from, which decides whether it still has
/// to be made durable.
pub(crate) enum Origin {
    /// New to this node — a client's `POST /documents` or a frame from the
    /// primary's stream: fsync'd to the WAL (when there is one) before
    /// anything is applied.
    New,
    /// Recovered from the local WAL at startup: already durable.
    Logged,
}

/// What one accepted record did.
pub(crate) struct Applied {
    /// Base rows the record carried.
    inserted: usize,
    delta: GroundingDelta,
}

/// Why a record left the served state untouched.
pub(crate) enum Rejected {
    /// Failed validation against the live schemas; never reached the log.
    Invalid(String),
    /// The WAL refused the batch; nothing in it was applied.
    Wal(String),
    /// DRed/IVM refused the record; it was cut back off the log.
    Apply(String),
    /// Applied in memory, but the log could not be rewritten after a
    /// batch-mate's apply failure — durability is gone, so no ack.
    Poisoned,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Invalid(why) => write!(f, "failed validation: {why}"),
            Rejected::Wal(e) => write!(f, "WAL append failed: {e}"),
            Rejected::Apply(e) => write!(f, "DRed/IVM refused: {e}"),
            Rejected::Poisoned => f.write_str(
                "WAL rewrite failed after a batch-mate's apply failure; \
                 log poisoned until the next checkpoint flush",
            ),
        }
    }
}

/// The epoch one [`ServeState::apply_records`] call published.
pub(crate) struct Published {
    epoch: u64,
    fingerprint: u64,
    refresh_samples: usize,
}

/// One outcome per input record, in order, plus the epoch they were
/// published as (`None` when no record applied).
pub(crate) struct Commit {
    pub(crate) outcomes: Vec<Result<Applied, Rejected>>,
    published: Option<Published>,
}

impl ServeState {
    /// The one place the served state changes: validate each record, make
    /// the valid ones durable with a single fsync ([`Origin::New`] with a
    /// WAL), apply each through DRed/IVM on its own so one bad record
    /// cannot fail its neighbors, cut records that failed to apply back
    /// off the log, then run one bounded refresh sized by the summed
    /// grounding delta and publish one snapshot swap. The epoch advances
    /// by one per applied record, which keeps it in lockstep with the WAL
    /// seq on every node.
    ///
    /// Lock order: writer for the whole call, wal only briefly inside it —
    /// the same order `flush_checkpoint` and `post_promote` take. Holding
    /// the writer lock across append and apply is what lets a rollback
    /// assume nothing was appended after the batch, and lets a checkpoint
    /// flush assume every logged record is applied.
    ///
    /// Callers decide what a rejection means: a 400/500 to a client, a
    /// warning on a primary's replay, fatal divergence on a follower.
    pub(crate) fn apply_records(&self, records: &[&[u8]], origin: Origin) -> Commit {
        let mut dd = self.writer.lock();
        let wal = match origin {
            Origin::New => self.wal.as_ref(),
            Origin::Logged => None,
        };

        let parsed: Vec<Result<Vec<BaseChange>, Rejected>> = records
            .iter()
            .map(|body| parse_ingest_body(&dd, &self.derived, body).map_err(Rejected::Invalid))
            .collect();

        // Durability first, one fsync for every valid record. A failed
        // append fails them all: nothing was applied, nobody is acked.
        let mut mark = None;
        if let Some(wal) = wal {
            let valid = accepted(records, &parsed);
            if !valid.is_empty() {
                let mut wal = wal.lock();
                mark = Some(wal.mark());
                if let Err(e) = wal.append_batch(&valid) {
                    self.note_storage_error(&e, "WAL append");
                    let outcomes = parsed
                        .into_iter()
                        .map(|p| Err(p.err().unwrap_or_else(|| Rejected::Wal(e.to_string()))))
                        .collect();
                    return Commit {
                        outcomes,
                        published: None,
                    };
                }
                self.group_commit.batches.fetch_add(1, Ordering::Relaxed);
                self.group_commit
                    .records
                    .fetch_add(valid.len() as u64, Ordering::Relaxed);
            }
        }

        let mut trace = IvmTrace::default();
        let mut outcomes: Vec<Result<Applied, Rejected>> = parsed
            .into_iter()
            .map(|p| {
                let changes = p?;
                let inserted = changes.len();
                let (delta, result) = dd
                    .apply_base_changes_traced(changes)
                    .map_err(|e| Rejected::Apply(e.to_string()))?;
                trace.absorb(&result);
                Ok(Applied { inserted, delta })
            })
            .collect();

        if let (Some(wal), Some(mark)) = (wal, &mark) {
            if outcomes
                .iter()
                .any(|o| matches!(o, Err(Rejected::Apply(_))))
            {
                // A rejection promises "no durable trace": cut the batch
                // off the log and re-append only what applied, so a restart
                // can never replay a record whose sender was told it failed.
                let keep = accepted(records, &outcomes);
                let mut wal = wal.lock();
                let rewrite = wal
                    .rollback_to(mark)
                    .and_then(|()| wal.append_batch(&keep).map(|_| ()));
                if let Err(e) = rewrite {
                    // The log no longer matches what was applied and refuses
                    // appends until a checkpoint flush repairs it. The
                    // applied records' in-memory effects surface in a later
                    // epoch (the poison-window caveat, DESIGN §13).
                    eprintln!(
                        "deepdive serve: WARNING: could not roll failed ingests off the WAL \
                         ({e}); log poisoned until the next checkpoint flush"
                    );
                    for o in outcomes.iter_mut().filter(|o| o.is_ok()) {
                        *o = Err(Rejected::Poisoned);
                    }
                    return Commit {
                        outcomes,
                        published: None,
                    };
                }
            }
        }

        let applied = outcomes.iter().flatten().count();
        let published = (applied > 0).then(|| {
            let changed = outcomes.iter().flatten().map(|a| a.delta.total()).sum();
            let opts = bounded_options(&self.inference, &self.refresh, changed);
            let (epoch, fingerprint) = self.publish_epoch(&dd, applied as u64, &opts, trace);
            Published {
                epoch,
                fingerprint,
                refresh_samples: opts.samples,
            }
        });
        // Every record in the local log is now applied or skipped. The
        // books move while the writer lock is still held, so a concurrent
        // checkpoint flush can never mark past what it saved.
        if let Some(wal) = &self.wal {
            let next = wal.lock().next_seq();
            self.replication.applied_seq.store(next, Ordering::SeqCst);
            self.replication.observe_watermark(next);
        }
        Commit {
            outcomes,
            published,
        }
    }
}

/// The records whose result so far is `Ok`, in order.
fn accepted<'a, T>(records: &[&'a [u8]], results: &[Result<T, Rejected>]) -> Vec<&'a [u8]> {
    records
        .iter()
        .zip(results)
        .filter_map(|(body, r)| r.is_ok().then_some(*body))
        .collect()
}

/// Largest batch one group commit will take — past this the committer
/// commits immediately rather than lingering (bounds both ack latency under
/// saturation and the size of a rollback should a batch-mate fail to apply).
const MAX_COMMIT_BATCH: usize = 256;

/// The committer thread: park on the channel, gather one linger window's
/// worth of requests, commit them as a unit. Exits when every sender is
/// gone (shutdown drops the one in `ServeState` after the workers drain);
/// a blocking `recv` still yields all queued requests first, so nothing
/// enqueued is ever abandoned.
pub(crate) fn committer_loop(state: &ServeState, rx: &mpsc::Receiver<CommitRequest>) {
    loop {
        let first = match rx.recv() {
            Ok(req) => req,
            Err(_) => break,
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + state.linger;
        while batch.len() < MAX_COMMIT_BATCH {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        commit_batch(state, batch);
    }
}

/// Commit one batch through [`ServeState::apply_records`] and answer every
/// request — 200 only after both its batch's fsync and its own apply
/// succeeded. Subscribers see the whole batch as one delta set.
fn commit_batch(state: &ServeState, batch: Vec<CommitRequest>) {
    let bodies: Vec<&[u8]> = batch.iter().map(|req| req.body.as_slice()).collect();
    let commit = state.apply_records(&bodies, Origin::New);
    let (wal_records, wal_bytes) = state.wal_gauges();
    for (req, outcome) in batch.into_iter().zip(commit.outcomes) {
        let response = match outcome {
            Ok(applied) => {
                let published = commit
                    .published
                    .as_ref()
                    .expect("an applied record implies a published epoch");
                Response::json(
                    200,
                    &json!({
                        "epoch": published.epoch,
                        "fingerprint": format!("{:016x}", published.fingerprint),
                        "inserted": applied.inserted,
                        "durable": state.wal.is_some(),
                        "wal_records": wal_records,
                        "wal_bytes": wal_bytes,
                        "delta": json!({
                            "added_variables": applied.delta.added_variables,
                            "removed_variables": applied.delta.removed_variables,
                            "added_factors": applied.delta.added_factors,
                            "removed_factors": applied.delta.removed_factors,
                            "evidence_changes": applied.delta.evidence_changes,
                            "total": applied.delta.total(),
                        }),
                        "refresh_samples": published.refresh_samples,
                    }),
                )
            }
            Err(Rejected::Invalid(why)) => Response::error(400, &why),
            Err(why) => Response::error(500, &format!("ingest not applied: {why}")),
        };
        let _ = req.reply.send(response);
    }
}

/// Replay the WAL records recovered at startup, then publish one snapshot
/// swap. Readers keep the pre-replay epoch until that swap; `/readyz` flips
/// to 200 after it. A successful checkpoint flush then truncates the WAL.
pub(crate) fn replay_wal(state: &ServeState, records: Vec<Vec<u8>>) {
    if state.faults.trips(points::WAL_REPLAY_STALL) {
        // Deterministically widen the not-ready window so tests can
        // observe readers during replay.
        std::thread::sleep(Duration::from_millis(50) * records.len() as u32);
    }
    let bodies: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    let commit = state.apply_records(&bodies, Origin::Logged);
    let mut skipped = 0u64;
    for (i, outcome) in commit.outcomes.iter().enumerate() {
        if let Err(why) = outcome {
            eprintln!(
                "deepdive serve: WARNING: WAL record {} was skipped: {why}",
                i + 1
            );
            skipped += 1;
        }
    }
    let replayed = records.len() as u64 - skipped;
    {
        let mut stats = state.wal_stats.lock();
        stats.replayed_records = replayed;
        stats.replay_skipped = skipped;
    }
    if skipped > 0 && state.is_follower() {
        // A primary may carry operator-injected bad records; a follower's
        // log holds only records the primary applied, so one that cannot
        // apply here is a fork, not noise.
        state.replication.set_fatal(
            true,
            format!("{skipped} locally-durable replicated record(s) failed to re-apply"),
        );
    }
    // The replayed state is as durable as the checkpoint we can flush; only
    // a successful flush may truncate the log.
    if let Err(e) = state.flush_checkpoint() {
        eprintln!(
            "deepdive serve: WARNING: post-replay checkpoint flush failed ({e}); \
             keeping the WAL for the next restart"
        );
    }
    if !state.lifecycle_cas(Lifecycle::Replaying, Lifecycle::Ready) {
        eprintln!("deepdive serve: WAL replay finished during shutdown; staying not-ready");
    }
    state.write_wal_report();
    eprintln!("deepdive serve: WAL replay complete: {replayed} records applied, {skipped} skipped");
}

/// Convert one JSON cell to a typed storage value.
fn json_to_value(cell: &Json, ty: ValueType) -> Result<DbValue, String> {
    match cell {
        Json::Null => Ok(DbValue::Null),
        Json::Bool(b) => match ty {
            ValueType::Bool | ValueType::Any => Ok(DbValue::Bool(*b)),
            other => Err(format!("boolean cell for {other} column")),
        },
        Json::Number(n) => match ty {
            ValueType::Int => n
                .as_i64()
                .map(DbValue::Int)
                .ok_or_else(|| "not an i64".into()),
            ValueType::Id => n
                .as_u64()
                .map(DbValue::Id)
                .ok_or_else(|| "not a u64 id".into()),
            ValueType::Float => n
                .as_f64()
                .map(DbValue::Float)
                .ok_or_else(|| "not a float".into()),
            ValueType::Any => Ok(n
                .as_i64()
                .map(DbValue::Int)
                .or_else(|| n.as_f64().map(DbValue::Float))
                .unwrap_or(DbValue::Null)),
            other => Err(format!("numeric cell for {other} column")),
        },
        // Strings parse through the TSV cell grammar, so `"7"` works for an
        // id column and `"\\N"` for NULL — same rules as `deepdive run`.
        Json::String(s) => value_from_tsv(s, ty),
        Json::Array(_) | Json::Object(_) => Err("cell must be a scalar".into()),
    }
}

/// Validate one ingest body (`{"rows": {"Relation": [[cell, ...], ...]}}`)
/// against the live schemas and convert it to base changes; the error is
/// the message a client's 400 carries.
fn parse_ingest_body(
    dd: &DeepDive,
    derived: &HashSet<String>,
    body: &[u8],
) -> Result<Vec<BaseChange>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let body: Json = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let rows = body
        .get("rows")
        .and_then(Json::as_object)
        .ok_or("body must be {\"rows\": {relation: [[cell, ...], ...]}}")?;

    let mut changes: Vec<BaseChange> = Vec::new();
    for (relation, rel_rows) in rows.iter() {
        if derived.contains(relation) {
            return Err(format!(
                "`{relation}` is derived by rules; ingest base relations only"
            ));
        }
        let schema = dd
            .db
            .schema(relation)
            .map_err(|_| format!("unknown relation `{relation}`"))?;
        let rel_rows = rel_rows
            .as_array()
            .ok_or_else(|| format!("`{relation}` must map to an array of rows"))?;
        for (i, row_json) in rel_rows.iter().enumerate() {
            let cells = row_json
                .as_array()
                .ok_or_else(|| format!("{relation}[{i}]: row must be an array"))?;
            if cells.len() != schema.columns.len() {
                return Err(format!(
                    "{relation}[{i}]: {} cells for {} columns",
                    cells.len(),
                    schema.columns.len()
                ));
            }
            let row = cells
                .iter()
                .zip(&schema.columns)
                .map(|(cell, col)| {
                    json_to_value(cell, col.ty)
                        .map_err(|e| format!("{relation}[{i}].{}: {e}", col.name))
                })
                .collect::<Result<Vec<_>, _>>()?;
            changes.push(BaseChange::insert(relation.clone(), row.into_boxed_slice()));
        }
    }
    if changes.is_empty() {
        return Err("no rows to ingest".into());
    }
    Ok(changes)
}

/// `POST /documents` body: `{"rows": {"Relation": [[cell, ...], ...]}}`.
///
/// Ack semantics: a 200 means the body is fsync'd in the WAL *and* applied
/// to the served state — it survives `kill -9` from that point on. Any
/// non-200 means the ingest left no durable trace.
///
/// The handler only gates and enqueues: the committer thread owns the
/// commit, and this worker parks until its record's batch is decided.
pub(crate) fn post_documents(req: &Request, state: &ServeState) -> Response {
    if let Some(not_ready) = state.not_ready_response() {
        return not_ready;
    }
    if let Some(why) = state.write_block_reason() {
        // Fenced (a newer primary exists), corrupt (scrub found rot it
        // could not repair), or dead disk: acking a write here would break
        // the durability promise or split the brain.
        return Response::error(503, &why).with_retry_after(jittered_retry_secs(2));
    }
    if let Some(bucket) = &state.ingest_bucket {
        if let Err(retry_secs) = bucket.lock().try_take() {
            state.metrics.record_rate_limited();
            return Response::error(429, "ingest rate limit exceeded")
                .with_retry_after(jittered_retry_secs(retry_secs));
        }
    }

    let (reply, decided) = mpsc::channel();
    let request = CommitRequest {
        body: req.body.clone(),
        reply,
    };
    let queued = state
        .committer
        .lock()
        .as_ref()
        .is_some_and(|tx| tx.send(request).is_ok());
    if !queued {
        // Shutdown already tore the committer down.
        return Response::error(503, "ingest not applied: the committer has shut down")
            .with_retry_after(jittered_retry_secs(1));
    }
    decided
        .recv()
        .unwrap_or_else(|_| Response::error(500, "ingest not applied: committer exited mid-batch"))
}
