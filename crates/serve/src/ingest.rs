//! The write path: `POST /documents` gating and parsing, the group
//! committer, WAL replay at startup, and the follower's replicated apply —
//! everything that changes the served state.

use crate::http::{Request, Response};
use crate::replication::jittered_retry_secs;
use crate::server::{Lifecycle, ServeState};
use crate::snapshot::ServeSnapshot;
use crate::subscriptions::{EpochDelta, IvmTrace};
use deepdive_core::faults::points;
use deepdive_core::DeepDive;
use deepdive_inference::bounded_options;
use deepdive_sampler::GibbsOptions;
use deepdive_storage::{value_from_tsv, BaseChange, Value as DbValue, ValueType};
use serde_json::{json, Value as Json};
use std::collections::HashSet;
use std::io;
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

    /// Apply one record shipped from the primary: durably append it to the
    /// local WAL (the resume offset moves only over fsync'd records), then
    /// run it through the same validate → DRed/IVM → bounded-refresh →
    /// snapshot-swap path a live `POST /documents` takes — which is what
    /// makes a caught-up follower's marginals bit-identical to the
    /// primary's. `InvalidData` means the record can never apply here
    /// (divergence); other errors are local-disk transients.
    ///
    /// Lock order: wal (append, released), then writer — the same order as
    /// `post_documents` and `flush_checkpoint`, so the three can interleave
    /// but never deadlock.
    pub(crate) fn ingest_replicated(&self, payload: &[u8]) -> io::Result<()> {
        let wal = self.wal.as_ref().expect("follower mode requires a WAL");
        let seq = match wal.lock().append(payload) {
            Ok(seq) => seq,
            Err(e) => {
                self.note_storage_error(&e, "replicated WAL append");
                return Err(e);
            }
        };
        let mut dd = self.writer.lock();
        let changes = parse_ingest_body(&dd, &self.derived, payload).map_err(|resp| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("replicated record failed validation: {}", resp.body),
            )
        })?;
        let (delta, result) = dd.apply_base_changes_traced(changes).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("DRed/IVM refused: {e}"))
        })?;
        let mut trace = IvmTrace::default();
        trace.absorb(&result);
        let opts = bounded_options(&self.inference, &self.refresh, delta.total());
        self.publish_epoch(&dd, 1, &opts, trace);
        // Advance the applied offset while still holding the writer lock so
        // a concurrent checkpoint flush can never mark past what the
        // checkpoint it just saved actually contains.
        self.replication
            .applied_seq
            .store(seq + 1, Ordering::SeqCst);
        self.replication.observe_watermark(seq + 1);
        self.replication
            .records_applied
            .fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
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

/// Commit one batch: parse every body, fsync them as a single WAL append,
/// apply each through DRed/IVM, publish one snapshot swap, and answer every
/// request — 200 only after both its batch's fsync and its own apply
/// succeeded, exactly the per-request ack semantics, amortized.
fn commit_batch(state: &ServeState, batch: Vec<CommitRequest>) {
    let mut dd = state.writer.lock();

    // Validation failures drop out of the batch with a 400 before anything
    // touches the log.
    let mut parsed = Vec::with_capacity(batch.len());
    for req in batch {
        match parse_ingest_body(&dd, &state.derived, &req.body) {
            Ok(changes) => parsed.push((req, changes)),
            Err(resp) => {
                let _ = req.reply.send(resp);
            }
        }
    }
    if parsed.is_empty() {
        return;
    }

    // Durability first, one fsync for the whole batch. A failed append is a
    // failed batch: nothing was applied yet, nobody is acknowledged.
    let wal = state.wal.as_ref().expect("committer runs only with a WAL");
    let mark = wal.lock().mark();
    {
        let bodies: Vec<&[u8]> = parsed.iter().map(|(req, _)| req.body.as_slice()).collect();
        if let Err(e) = wal.lock().append_batch(&bodies) {
            state.note_storage_error(&e, "WAL batch append");
            let msg = format!("ingest not applied: WAL append failed: {e}");
            for (req, _) in parsed {
                let _ = req.reply.send(Response::error(500, &msg));
            }
            return;
        }
    }
    state.group_commit.batches.fetch_add(1, Ordering::Relaxed);
    state
        .group_commit
        .records
        .fetch_add(parsed.len() as u64, Ordering::Relaxed);

    // Apply each record on its own: one bad batch-mate must not fail its
    // neighbors.
    let mut applied: Vec<(CommitRequest, usize, Json, usize)> = Vec::with_capacity(parsed.len());
    let mut failed: Vec<(CommitRequest, String)> = Vec::new();
    let mut trace = IvmTrace::default();
    for (req, changes) in parsed {
        let inserted = changes.len();
        match dd.apply_base_changes_traced(changes) {
            Ok((delta, result)) => {
                trace.absorb(&result);
                let delta_json = json!({
                    "added_variables": delta.added_variables,
                    "removed_variables": delta.removed_variables,
                    "added_factors": delta.added_factors,
                    "removed_factors": delta.removed_factors,
                    "evidence_changes": delta.evidence_changes,
                    "total": delta.total(),
                });
                applied.push((req, inserted, delta_json, delta.total()));
            }
            Err(e) => failed.push((req, e.to_string())),
        }
    }

    if !failed.is_empty() {
        // The 500s promise "no durable trace": cut the whole batch off the
        // log and re-append only the applied records, so a restart can
        // never replay a record whose client was told it failed. The writer
        // lock is still held, so nothing appended after the batch.
        let rewrite = {
            let mut wal = wal.lock();
            wal.rollback_to(&mark).and_then(|()| {
                let keep: Vec<&[u8]> = applied
                    .iter()
                    .map(|(req, ..)| req.body.as_slice())
                    .collect();
                wal.append_batch(&keep).map(|_| ())
            })
        };
        if let Err(re) = rewrite {
            // The log no longer matches what was applied and is poisoned
            // until the next checkpoint flush repairs it. Nobody gets an
            // ack: the durability half of the promise is gone for the
            // applied records too. (Their in-memory effects surface in a
            // later epoch — the same poison-window caveat as the
            // single-request path, see DESIGN §13.)
            eprintln!(
                "deepdive serve: WARNING: could not roll failed ingests off the WAL \
                 ({re}); log poisoned until the next checkpoint flush"
            );
            let msg = "ingest not applied: WAL rewrite failed after a batch-mate's apply \
                       failure; log poisoned until the next checkpoint flush";
            for (req, ..) in applied {
                let _ = req.reply.send(Response::error(500, msg));
            }
            for (req, e) in failed {
                let _ = req
                    .reply
                    .send(Response::error(500, &format!("ingest not applied: {e}")));
            }
            return;
        }
        for (req, e) in failed {
            let _ = req
                .reply
                .send(Response::error(500, &format!("ingest not applied: {e}")));
        }
    }
    if applied.is_empty() {
        return;
    }

    // One bounded refresh sized by the batch's summed grounding delta, one
    // snapshot swap, one epoch advance per applied record (epoch stays in
    // lockstep with the WAL seq, exactly as the inline path keeps it).
    // Subscribers see the whole batch as one delta set.
    let changed_total: usize = applied.iter().map(|(.., total)| *total).sum();
    let opts = bounded_options(&state.inference, &state.refresh, changed_total);
    let (epoch, fingerprint) = state.publish_epoch(&dd, applied.len() as u64, &opts, trace);
    let next = wal.lock().next_seq();
    state.replication.applied_seq.store(next, Ordering::SeqCst);
    state.replication.observe_watermark(next);
    let (wal_records, wal_bytes) = state.wal_gauges();

    for (req, inserted, delta_json, _) in applied {
        let _ = req.reply.send(Response::json(
            200,
            &json!({
                "epoch": epoch,
                "fingerprint": format!("{fingerprint:016x}"),
                "inserted": inserted,
                "durable": true,
                "wal_records": wal_records,
                "wal_bytes": wal_bytes,
                "delta": delta_json,
                "refresh_samples": opts.samples,
            }),
        ));
    }
}

/// Replay recovered WAL records through the same validate → DRed/IVM path a
/// live `POST /documents` takes, then publish one snapshot swap sized by
/// the shared [`RefreshBudget`]. Readers keep the pre-replay epoch until
/// that swap; `/readyz` flips to 200 after it. A successful checkpoint
/// flush then truncates the WAL.
pub(crate) fn replay_wal(state: &ServeState, records: Vec<Vec<u8>>) {
    let stall = state.faults.trips(points::WAL_REPLAY_STALL);
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    let mut changed_total = 0usize;
    let mut trace = IvmTrace::default();
    {
        let mut dd = state.writer.lock();
        for (i, record) in records.iter().enumerate() {
            if stall {
                // Deterministically widen the not-ready window so tests can
                // observe readers during replay.
                std::thread::sleep(Duration::from_millis(50));
            }
            let changes = match parse_ingest_body(&dd, &state.derived, record) {
                Ok(changes) => changes,
                Err(resp) => {
                    eprintln!(
                        "deepdive serve: WARNING: WAL record {} failed validation and was \
                         skipped: {}",
                        i + 1,
                        resp.body
                    );
                    skipped += 1;
                    continue;
                }
            };
            match dd.apply_base_changes_traced(changes) {
                Ok((delta, result)) => {
                    trace.absorb(&result);
                    changed_total += delta.total();
                    replayed += 1;
                }
                Err(e) => {
                    eprintln!(
                        "deepdive serve: WARNING: WAL record {} failed to apply and was \
                         skipped: {e}",
                        i + 1
                    );
                    skipped += 1;
                }
            }
        }
        // One bounded refresh over everything the replay re-grounded, one
        // swap: concurrent readers see the pre-replay epoch, then this one.
        // The epoch advances by the *applied* records only, matching the
        // live path's one-epoch-per-successful-POST.
        let opts = bounded_options(&state.inference, &state.refresh, changed_total);
        state.publish_epoch(&dd, replayed, &opts, trace);
        // Every pending record is now consumed (applied or skipped): the
        // served state covers the whole local log.
        if let Some(wal) = &state.wal {
            let next = wal.lock().next_seq();
            state.replication.applied_seq.store(next, Ordering::SeqCst);
            state.replication.observe_watermark(next);
        }
    }
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
/// against the live schemas and convert it to base changes. Shared by the
/// live `POST /documents` path and WAL replay — by construction, replay
/// revalidates exactly what an ack validated.
fn parse_ingest_body(
    dd: &DeepDive,
    derived: &HashSet<String>,
    body: &[u8],
) -> Result<Vec<BaseChange>, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::error(400, "body is not UTF-8"));
    };
    let body: Json = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Err(Response::error(400, &format!("bad JSON: {e}"))),
    };
    let Some(rows) = body.get("rows").and_then(Json::as_object) else {
        return Err(Response::error(
            400,
            "body must be {\"rows\": {relation: [[cell, ...], ...]}}",
        ));
    };

    let mut changes: Vec<BaseChange> = Vec::new();
    for (relation, rel_rows) in rows.iter() {
        if derived.contains(relation) {
            return Err(Response::error(
                400,
                &format!("`{relation}` is derived by rules; ingest base relations only"),
            ));
        }
        let schema = match dd.db.schema(relation) {
            Ok(s) => s,
            Err(_) => {
                return Err(Response::error(
                    400,
                    &format!("unknown relation `{relation}`"),
                ))
            }
        };
        let Some(rel_rows) = rel_rows.as_array() else {
            return Err(Response::error(
                400,
                &format!("`{relation}` must map to an array of rows"),
            ));
        };
        for (i, row_json) in rel_rows.iter().enumerate() {
            let Some(cells) = row_json.as_array() else {
                return Err(Response::error(
                    400,
                    &format!("{relation}[{i}]: row must be an array"),
                ));
            };
            if cells.len() != schema.columns.len() {
                return Err(Response::error(
                    400,
                    &format!(
                        "{relation}[{i}]: {} cells for {} columns",
                        cells.len(),
                        schema.columns.len()
                    ),
                ));
            }
            let mut row = Vec::with_capacity(cells.len());
            for (cell, col) in cells.iter().zip(&schema.columns) {
                match json_to_value(cell, col.ty) {
                    Ok(v) => row.push(v),
                    Err(e) => {
                        return Err(Response::error(
                            400,
                            &format!("{relation}[{i}].{}: {e}", col.name),
                        ))
                    }
                }
            }
            changes.push(BaseChange::insert(relation.clone(), row.into_boxed_slice()));
        }
    }
    if changes.is_empty() {
        return Err(Response::error(400, "no rows to ingest"));
    }
    Ok(changes)
}

/// `POST /documents` body: `{"rows": {"Relation": [[cell, ...], ...]}}`.
///
/// Ack semantics: a 200 means the body is fsync'd in the WAL *and* applied
/// to the served state — it survives `kill -9` from that point on. Any
/// non-200 means the ingest left no durable trace.
pub(crate) fn post_documents(req: &Request, state: &ServeState) -> Response {
    match state.lifecycle() {
        Lifecycle::Ready => {}
        Lifecycle::Replaying => {
            return Response::error(503, "not ready: WAL replay in progress")
                .with_retry_after(jittered_retry_secs(1));
        }
        Lifecycle::Draining => {
            return Response::error(503, "draining for shutdown")
                .with_retry_after(jittered_retry_secs(1));
        }
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

    // Group commit: hand the body to the committer and park until this
    // record's batch fsyncs and applies — the response carries the same
    // promise as the inline path below, amortized over the batch. Falls
    // through to the inline path when no committer runs (no WAL, zero
    // linger, a follower) or the channel is already torn down by shutdown.
    let committer = state.committer.lock().clone();
    if let Some(tx) = committer {
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = tx
            .send(CommitRequest {
                body: req.body.clone(),
                reply: reply_tx,
            })
            .is_ok();
        if sent {
            return match reply_rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response::error(500, "ingest not applied: committer exited mid-batch"),
            };
        }
    }

    // Single writer: everything from validation through the WAL append to
    // the snapshot swap happens under this lock, so concurrent POSTs
    // serialize (and the WAL orders records exactly as they were applied)
    // and readers keep the previous epoch until `store`.
    let mut dd = state.writer.lock();

    let changes = match parse_ingest_body(&dd, &state.derived, &req.body) {
        Ok(changes) => changes,
        Err(resp) => return resp,
    };
    let inserted = changes.len();

    // Durability first: the record must be fsync'd before anything is
    // applied or acknowledged. A failed append acknowledges nothing.
    let wal_before = state.wal.as_ref().map(|wal| wal.lock().mark());
    let mut appended_seq = None;
    if let Some(wal) = &state.wal {
        match wal.lock().append(&req.body) {
            Ok(seq) => appended_seq = Some(seq),
            Err(e) => {
                state.note_storage_error(&e, "WAL append");
                return Response::error(
                    500,
                    &format!("ingest not applied: WAL append failed: {e}"),
                );
            }
        }
    }

    // DRed/IVM: derive exactly what the new rows imply, nothing else.
    let (delta, ivm_result) = match dd.apply_base_changes_traced(changes) {
        Ok(d) => d,
        Err(e) => {
            // The 500 promises "no durable trace", so the just-appended
            // record must come back off the log — otherwise a restart would
            // replay (and possibly apply) an ingest the client was told
            // failed. The writer lock is still held, so nothing appended
            // after our record. A failed cut poisons the log, refusing
            // appends until a checkpoint flush truncates it.
            if let (Some(wal), Some(mark)) = (&state.wal, wal_before) {
                if let Err(re) = wal.lock().rollback_to(&mark) {
                    eprintln!(
                        "deepdive serve: WARNING: could not roll failed ingest off the WAL \
                         ({re}); log poisoned until the next checkpoint flush"
                    );
                }
            }
            return Response::error(500, &format!("ingest not applied: {e}"));
        }
    };

    // Bounded refresh sized to the touched region, then one atomic swap.
    let opts = bounded_options(&state.inference, &state.refresh, delta.total());
    let mut trace = IvmTrace::default();
    trace.absorb(&ivm_result);
    let (epoch, fingerprint) = state.publish_epoch(&dd, 1, &opts, trace);
    if let Some(seq) = appended_seq {
        // Keep the primary's replication books current so `/metrics`
        // reports the same offsets followers resume from.
        state
            .replication
            .applied_seq
            .store(seq + 1, Ordering::SeqCst);
        state.replication.observe_watermark(seq + 1);
    }
    let (wal_records, wal_bytes) = state.wal_gauges();

    Response::json(
        200,
        &json!({
            "epoch": epoch,
            "fingerprint": format!("{:016x}", fingerprint),
            "inserted": inserted,
            "durable": state.wal.is_some(),
            "wal_records": wal_records,
            "wal_bytes": wal_bytes,
            "delta": json!({
                "added_variables": delta.added_variables,
                "removed_variables": delta.removed_variables,
                "added_factors": delta.added_factors,
                "removed_factors": delta.removed_factors,
                "evidence_changes": delta.evidence_changes,
                "total": delta.total(),
            }),
            "refresh_samples": opts.samples,
        }),
    )
}
