//! Read-side handlers: liveness/readiness, `/metrics` and the `report.json`
//! that mirrors it, relation and marginal queries, and the subscription
//! endpoints. None of them takes the writer lock.

use crate::http::{Request, Response};
use crate::replication::{self, jittered_retry_secs};
use crate::server::{Lifecycle, ServeState};
use crate::snapshot::ServeSnapshot;
use crate::subscriptions::{
    render_snapshot_frame, value_to_json, RowFilter, Subscriber, SubscriptionSpec,
    RESERVED_QUERY_KEYS,
};
use deepdive_storage::{Row, Schema};
use serde_json::{json, Map, Value as Json};
use std::io::{self, Write};
use std::net::TcpStream;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl ServeState {
    /// The scrub counters as the JSON gauge object `/metrics` and
    /// `report.json` share.
    fn scrub_json(&self) -> Json {
        json!({
            "runs": self.scrub.runs.load(Ordering::SeqCst),
            "corrupt_found": self.scrub.corrupt_found.load(Ordering::SeqCst),
            "repaired": self.scrub.repaired.load(Ordering::SeqCst),
        })
    }

    /// The `group_commit` gauge object shared by `/metrics` and
    /// `report.json`: committed batches, mean records per batch, and the
    /// fsyncs batching avoided versus one-fsync-per-request.
    fn group_commit_json(&self) -> Json {
        let batches = self.group_commit.batches.load(Ordering::Relaxed);
        let records = self.group_commit.records.load(Ordering::Relaxed);
        json!({
            "batches": batches,
            "avg_batch": if batches > 0 {
                records as f64 / batches as f64
            } else {
                0.0
            },
            "fsyncs_saved": records.saturating_sub(batches),
        })
    }

    /// The `checkpoint` gauge object shared by `/metrics` and `report.json`.
    fn checkpoint_json(&self) -> Json {
        let ck = self.ckpt_stats.lock().clone();
        json!({
            "enabled": self.checkpoint_dir.is_some(),
            "flushes": ck.flushes,
            "full_rewrites": ck.full_rewrites,
            "incremental": json!({
                "artifacts_written": ck.artifacts_written,
                "artifacts_skipped": ck.artifacts_skipped,
                "chain_len": ck.chain_len,
            }),
        })
    }

    /// Write the replay report (`report.json` in the WAL dir): what the
    /// recovery scan found and what replay did — including `wal_torn_tail`,
    /// the flag operators alert on.
    pub(crate) fn write_wal_report(&self) {
        let Some(dir) = &self.wal_dir else { return };
        let stats = self.wal_stats.lock().clone();
        let (records, bytes) = self.wal_gauges();
        let (segments, segment_bytes, compactions) = match &self.wal {
            Some(wal) => {
                let wal = wal.lock();
                (
                    wal.segments() as u64,
                    wal.segment_target(),
                    wal.compactions(),
                )
            }
            None => (0, 0, 0),
        };
        let report = json!({
            "wal": json!({
                "wal_torn_tail": stats.torn_tail_recovered,
                "torn_bytes_dropped": stats.torn_bytes,
                "records_replayed": stats.replayed_records,
                "records_skipped": stats.replay_skipped,
                "records_pending": records,
                "bytes": bytes,
                "segments": segments,
                "segment_bytes": segment_bytes,
                "compactions": compactions,
                "group_commit": self.group_commit_json(),
            }),
            "checkpoint": self.checkpoint_json(),
            "replication": self.replication.to_json(self.is_follower()),
            "term": self.term(),
            "scrub": self.scrub_json(),
        });
        let text = serde_json::to_string_pretty(&report).expect("report renders");
        if let Err(e) = std::fs::write(dir.join("report.json"), text) {
            eprintln!("deepdive serve: cannot write WAL replay report: {e}");
        }
    }
}

pub(crate) fn healthz(state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    Response::json(
        200,
        &json!({
            "status": "ok",
            "lifecycle": state.lifecycle().as_str(),
            "role": state.role_str(),
            "term": state.term(),
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "wal_offset": state.replication().applied_seq.load(Ordering::SeqCst),
            "uptime_secs": state.started.elapsed().as_secs_f64(),
            "relations": snap.db.len(),
            "total_rows": snap.db.total_rows(),
            "marginal_rows": snap.total_marginals(),
        }),
    )
}

/// Readiness, distinct from liveness: 503 while the WAL is replaying
/// (readers would see the pre-replay epoch) and while draining (new work
/// belongs elsewhere). Load balancers route on this; `/healthz` answers
/// "is the process alive" and stays 200 throughout.
///
/// A follower additionally gates on replication: 503 while it has never
/// completed a handshake ("syncing"), when its history diverged from the
/// primary ("diverged" — permanent until re-seeded), or while its epoch
/// lag exceeds `--max-lag-epochs` ("lagging" — clears when it catches up).
pub(crate) fn readyz(state: &ServeState) -> Response {
    let lifecycle = state.lifecycle();
    let snap = state.snapshot.load();
    let mut not_ready: Option<&str> = match lifecycle {
        Lifecycle::Ready => None,
        Lifecycle::Replaying | Lifecycle::Draining => Some(lifecycle.as_str()),
    };
    let repl = state.replication();
    let replication = state.is_follower().then(|| {
        json!({
            "lag_epochs": repl.lag_epochs(),
            "max_lag_epochs": state.max_lag_epochs,
            "connected": repl.connected.load(Ordering::SeqCst),
            "handshook": repl.handshook.load(Ordering::SeqCst),
            "diverged": repl.diverged.load(Ordering::SeqCst),
        })
    });
    // Self-healing storage gates, in severity order: unrepaired corruption
    // beats fencing beats a dead disk — all three make this node a bad
    // routing target for anything but last-resort reads.
    let mut detail: Option<String> = None;
    if not_ready.is_none() {
        if let Some(why) = state.corrupt_reason() {
            not_ready = Some("corrupt");
            detail = Some(why);
        } else if let Some(why) = state.fenced_reason() {
            not_ready = Some("fenced");
            detail = Some(why);
        } else if let Some(why) = state.storage_fatal_error() {
            not_ready = Some("storage_failed");
            detail = Some(why);
        }
    }
    if not_ready.is_none() && state.is_follower() {
        not_ready = if repl.fatal_error().is_some() {
            Some("diverged")
        } else if !repl.handshook.load(Ordering::SeqCst) {
            Some("syncing")
        } else if repl.lag_epochs() > state.max_lag_epochs {
            Some("lagging")
        } else {
            None
        };
    }
    let mut body = Map::new();
    body.insert("status".into(), json!(not_ready.unwrap_or("ready")));
    body.insert("role".into(), json!(state.role_str()));
    body.insert("term".into(), json!(state.term()));
    body.insert("epoch".into(), json!(snap.epoch));
    body.insert(
        "wal_offset".into(),
        json!(repl.applied_seq.load(Ordering::SeqCst)),
    );
    if let Some(detail) = detail {
        body.insert("detail".into(), json!(detail));
    }
    if let Some(replication) = replication {
        body.insert("replication".into(), replication);
    }
    let body = Json::Object(body);
    match not_ready {
        None => Response::json(200, &body),
        Some(_) => Response::json(503, &body).with_retry_after(jittered_retry_secs(1)),
    }
}

pub(crate) fn metrics(state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    let mut phases = Map::new();
    for (phase, s) in state.ctx.metrics.snapshot() {
        phases.insert(
            phase,
            json!({
                "wall_secs": s.wall.as_secs_f64(),
                "items": s.items,
                "items_per_sec": s.throughput(),
            }),
        );
    }
    let (wal_records, wal_bytes) = state.wal_gauges();
    let wal_stats = state.wal_stats.lock().clone();
    // Stream geometry for operators watching replication: where the log
    // starts (compaction floor), ends, and is checkpointed through — plus
    // the segment layout compaction works in.
    let (wal_stream, wal_segments, wal_segment_bytes, wal_compactions) = match &state.wal {
        Some(wal) => {
            let wal = wal.lock();
            (
                Some(json!({
                    "stream_id": format!("{:016x}", wal.stream_id()),
                    "base_seq": wal.base_seq(),
                    "next_seq": wal.next_seq(),
                    "checkpoint_seq": wal.checkpoint_seq(),
                    "physical_records": wal.physical_records(),
                })),
                wal.segments() as u64,
                wal.segment_target(),
                wal.compactions(),
            )
        }
        None => (None, 0, 0, 0),
    };
    Response::json(
        200,
        &json!({
            "epoch": snap.epoch,
            "lifecycle": state.lifecycle().as_str(),
            "requests": state.metrics.to_json(),
            "admission": json!({
                "queue_depth": state.queue_depth(),
                "max_inflight": state.max_inflight,
                "shed_total": state.metrics.shed_total(),
                "rate_limited_total": state.metrics.rate_limited_total(),
                "timeout_total": state.metrics.timeout_total(),
                "panic_total": state.metrics.panic_total(),
            }),
            "subscriptions": {
                let g = state.subs.gauges();
                json!({
                    "active": g.active,
                    "max": g.max,
                    "frames_routed": g.frames_routed,
                    "sheds": g.sheds,
                })
            },
            "wal": json!({
                "enabled": state.wal.is_some(),
                "records": wal_records,
                "bytes": wal_bytes,
                "torn_tail_recovered": wal_stats.torn_tail_recovered,
                "replayed_records": wal_stats.replayed_records,
                "replay_skipped": wal_stats.replay_skipped,
                "stream": wal_stream,
                "segments": wal_segments,
                "segment_bytes": wal_segment_bytes,
                "compactions": wal_compactions,
                "group_commit": state.group_commit_json(),
            }),
            "checkpoint": state.checkpoint_json(),
            "replication": state.replication().to_json(state.is_follower()),
            "term": state.term(),
            "scrub": state.scrub_json(),
            "storage": json!({
                "resident_bytes": state.budget.resident(),
                "peak_resident_bytes": state.budget.peak_resident(),
                "memory_budget_bytes": state.budget.limit(),
            }),
            "execution": json!({
                "threads": state.ctx.threads(),
                "phases": Json::Object(phases),
            }),
        }),
    )
}

/// One row as a JSON object keyed by column name, plus one extra field
/// (`count` on relations, `probability` on marginals).
fn row_to_json(schema: Option<&Schema>, row: &Row, extra: &str, extra_value: Json) -> Json {
    let mut obj = Map::new();
    for (i, v) in row.iter().enumerate() {
        let name = schema
            .and_then(|s| s.columns.get(i))
            .map(|c| c.name.clone())
            .unwrap_or_else(|| format!("c{i}"));
        obj.insert(name, value_to_json(v));
    }
    obj.insert(extra.into(), extra_value);
    Json::Object(obj)
}

/// Query parameter `key` parsed as a `T` (`default` when absent); the error
/// is the 400 saying what `kind` of value it should have been.
fn query_or<T: FromStr>(req: &Request, key: &str, default: T, kind: &str) -> Result<T, Response> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("{key}: `{raw}` is not {kind}"))),
    }
}

/// Parse `offset`/`limit` query params, clamping `limit` to the configured
/// page cap.
fn paging(req: &Request, page_limit: usize) -> Result<(usize, usize), Response> {
    let offset = query_or(req, "offset", 0, "an integer")?;
    let limit = query_or(req, "limit", page_limit, "an integer")?.min(page_limit);
    Ok((offset, limit))
}

pub(crate) fn get_relation(req: &Request, name: &str, state: &ServeState) -> Response {
    // Pagination is positional within one epoch's snapshot, so a cursor
    // must stay pinned to the epoch it started on: page 1 reports the
    // epoch, later pages pass `?epoch=` back and keep reading the *same*
    // frozen snapshot even while ingest swaps new ones in. A pinned epoch
    // that has fallen out of the retention ring answers `410 Gone` with the
    // current epoch so the client restarts its scan coherently — strictly
    // better than silently skipping or double-seeing rows across a swap.
    let snap = match req.query_param("epoch") {
        None => state.snapshot.load(),
        Some(raw) => {
            let Ok(epoch) = raw.parse::<u64>() else {
                return Response::error(400, &format!("epoch: `{raw}` is not an integer"));
            };
            match state.snapshot.at_epoch(epoch) {
                Some(snap) => snap,
                None => {
                    let current = state.snapshot.load().epoch;
                    return Response::json(
                        410,
                        &json!({
                            "error": format!(
                                "epoch {epoch} is no longer retained; restart from the \
                                 current epoch"
                            ),
                            "current_epoch": current,
                        }),
                    );
                }
            }
        }
    };
    let Some(rel) = snap.db.relation(name) else {
        return Response::error(404, &format!("no relation `{name}`"));
    };
    let (offset, limit) = match paging(req, state.page_limit) {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    // Any query key naming a column filters on that column (`?m1=7`,
    // `?mtext=Barack+Obama`). Each raw value is parsed ONCE against the
    // column's declared type into a typed predicate (see
    // [`crate::subscriptions::RowFilter`], shared with subscriptions), so
    // matching compares `Value`s directly instead of re-rendering every
    // cell to TSV.
    let pairs = req
        .query
        .iter()
        .filter(|(k, _)| !RESERVED_QUERY_KEYS.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), v.as_str()));
    let filter = match RowFilter::parse(rel.schema(), pairs) {
        Ok(f) => f,
        Err(e) => return Response::error(400, &e),
    };

    // Snapshot rows are sorted ascending by full row, so an equality filter
    // on the leading column selects one contiguous range — binary-search it
    // instead of scanning the whole relation.
    let all = rel.rows();
    let scan: &[(Row, i64)] = if filter.unsatisfiable {
        &[]
    } else if let Some(v) = filter.leading_eq() {
        let lo = all.partition_point(|(r, _)| r[0] < *v);
        let hi = all[lo..].partition_point(|(r, _)| r[0] == *v) + lo;
        &all[lo..hi]
    } else {
        all
    };

    let mut total = 0usize;
    let mut rows = Vec::new();
    for (row, count) in scan.iter().filter(|(row, _)| filter.matches(row)) {
        if total >= offset && rows.len() < limit {
            rows.push(row_to_json(Some(rel.schema()), row, "count", json!(*count)));
        }
        total += 1;
    }

    Response::json(
        200,
        &json!({
            "relation": name,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "offset": offset,
            "limit": limit,
            "total": total,
            "rows": rows,
        }),
    )
}

pub(crate) fn get_marginals(req: &Request, name: &str, state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    if !snap.marginals.contains_key(name) {
        return Response::error(
            404,
            &format!("no marginals for `{name}` (not a query relation)"),
        );
    }
    let (offset, limit) = match paging(req, state.page_limit) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let min_p = match query_or(req, "min_p", 0.0, "a number") {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let max_p = match query_or(req, "max_p", 1.0, "a number") {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    let schema = snap.db.relation(name).map(|r| r.schema());
    let mut total = 0usize;
    let mut rows = Vec::new();
    for (row, p) in snap
        .marginal_rows(name)
        .iter()
        .filter(|(_, p)| *p >= min_p && *p <= max_p)
    {
        if total >= offset && rows.len() < limit {
            rows.push(row_to_json(schema, row, "probability", json!(*p)));
        }
        total += 1;
    }

    Response::json(
        200,
        &json!({
            "relation": name,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "min_p": min_p,
            "max_p": max_p,
            "offset": offset,
            "limit": limit,
            "total": total,
            "rows": rows,
        }),
    )
}

/// Subscription stream cadence: a heartbeat frame goes out after this much
/// silence (the `GET /wal` discipline), and the frame-wait wakes at least
/// this often to notice shutdown.
const SUB_HEARTBEAT_EVERY: Duration = Duration::from_secs(1);
const SUB_WAIT_TICK: Duration = Duration::from_millis(100);
/// Longest long-poll wait a client may request (`?wait_ms=`).
const SUB_MAX_WAIT: Duration = Duration::from_secs(30);

/// `POST /subscriptions`: register a subscriber and either stream delta
/// frames on this connection (chunked, heartbeats, `mode: "stream"` — the
/// default) or return its id for cursor polling (`mode: "poll"`).
///
/// Body: `{"relation": {"name": R, "where": {col: val}},
///         "marginals": {"name": Q, "min_p": .., "max_p": ..},
///         "mode": "stream"|"poll", "id": optional, "snapshot": bool}`.
///
/// Owns the socket (like `GET /wal`) because stream mode writes an
/// unbounded chunked body. Returns the `ok` bit for the metrics book.
pub(crate) fn post_subscriptions(req: &Request, w: &mut TcpStream, state: &ServeState) -> bool {
    let respond = |w: &mut TcpStream, resp: Response| -> bool {
        let ok = resp.status < 400;
        let _ = resp.write_to(w);
        ok
    };
    if let Some(not_ready) = state.not_ready_response() {
        return respond(w, not_ready);
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return respond(w, Response::error(400, "body is not UTF-8"));
    };
    let body: Json = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return respond(w, Response::error(400, &format!("bad JSON: {e}"))),
    };
    let mode = body.get("mode").and_then(Json::as_str).unwrap_or("stream");
    if !matches!(mode, "stream" | "poll") {
        return respond(w, Response::error(400, "mode must be `stream` or `poll`"));
    }
    let snap0 = state.snapshot.load();
    let spec = match SubscriptionSpec::parse(&body, &snap0) {
        Ok(spec) => spec,
        Err((status, msg)) => return respond(w, Response::error(status, &msg)),
    };
    let id = body.get("id").and_then(Json::as_str).map(|s| s.to_string());
    let sub = match state.subs.create(spec, id, snap0.epoch) {
        Ok(sub) => sub,
        Err((status, msg)) => {
            let resp = Response::error(status, &msg);
            let resp = if status == 429 || status == 503 {
                resp.with_retry_after(jittered_retry_secs(1))
            } else {
                resp
            };
            return respond(w, resp);
        }
    };

    // Registration-then-load closes the race with a concurrent publish:
    // any delta routed before the subscriber existed is covered by this
    // snapshot, and any frame at-or-below its epoch is dropped as already
    // incorporated.
    let snap = state.snapshot.load();
    sub.ack_through(snap.epoch);

    if mode == "poll" {
        let mut resp = Map::new();
        resp.insert("id".into(), json!(sub.id));
        resp.insert("epoch".into(), json!(snap.epoch));
        if sub.spec.initial_snapshot {
            let frame: Json = serde_json::from_str(&render_snapshot_frame(&sub.spec, &snap))
                .expect("frames render as valid JSON");
            resp.insert("snapshot".into(), frame);
        }
        return respond(w, Response::json(201, &Json::Object(resp)));
    }

    let ok = stream_subscription(w, state, &sub, &snap);
    // A stream-mode subscription lives exactly as long as its connection.
    state.subs.remove(&sub.id);
    ok
}

/// Write one ndjson frame as an HTTP chunk.
fn write_frame(w: &mut TcpStream, frame: &str) -> io::Result<()> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    replication::write_chunk(w, line.as_bytes())
}

/// The streaming half of a subscription: initial snapshot frame, then one
/// delta frame per epoch, 1 s heartbeats through silence, shed/re-base on
/// lag — until the client hangs up or the daemon drains.
fn stream_subscription(
    w: &mut TcpStream,
    state: &ServeState,
    sub: &Arc<Subscriber>,
    first: &Arc<ServeSnapshot>,
) -> bool {
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\
         X-DD-Sub: {}\r\nX-DD-Epoch: {}\r\n\r\n",
        sub.id, first.epoch
    );
    if w.write_all(header.as_bytes()).is_err() {
        return false;
    }
    if sub.spec.initial_snapshot
        && write_frame(w, &render_snapshot_frame(&sub.spec, first)).is_err()
    {
        return false;
    }
    // Everything at or below the cursor is already reflected in the
    // client's base state; frames there would be (idempotent) duplicates.
    let mut cursor = first.epoch;
    let mut last_write = Instant::now();
    loop {
        if state.stop_requested() || state.lifecycle() == Lifecycle::Draining {
            break;
        }
        enum Action {
            Frames(Vec<(u64, String)>),
            Lagged(u64),
            Closed,
            Idle,
        }
        let action = {
            let mut q = sub.q.lock();
            if q.closed {
                Action::Closed
            } else if let Some(at) = q.lagged.take() {
                q.frames.clear();
                q.bytes = 0;
                Action::Lagged(at)
            } else if q.frames.is_empty() {
                drop(sub.wait_on(q, SUB_WAIT_TICK));
                Action::Idle
            } else {
                let frames: Vec<(u64, String)> =
                    q.frames.drain(..).map(|f| (f.epoch, f.body)).collect();
                q.bytes = 0;
                let through = frames.last().expect("nonempty").0;
                q.acked_through = q.acked_through.max(through);
                Action::Frames(frames)
            }
        };
        match action {
            Action::Closed => break,
            Action::Frames(frames) => {
                for (epoch, body) in frames {
                    if epoch <= cursor {
                        continue;
                    }
                    if write_frame(w, &body).is_err() {
                        return false;
                    }
                    cursor = epoch;
                }
                last_write = Instant::now();
            }
            Action::Lagged(shed_at) => {
                // The queue overflowed and was cleared: tell the client
                // exactly where continuity broke, then re-base it on the
                // current snapshot. Because routing happens after the swap,
                // this snapshot covers every frame dropped while lagged.
                let snap = state.snapshot.load();
                sub.ack_through(snap.epoch);
                let lag = json!({
                    "type": "lagged",
                    "shed_at": shed_at,
                    "resume_epoch": snap.epoch,
                })
                .to_string();
                if write_frame(w, &lag).is_err()
                    || write_frame(w, &render_snapshot_frame(&sub.spec, &snap)).is_err()
                {
                    return false;
                }
                cursor = snap.epoch;
                last_write = Instant::now();
            }
            Action::Idle => {
                if last_write.elapsed() >= SUB_HEARTBEAT_EVERY {
                    let hb = json!({ "type": "heartbeat", "epoch": cursor }).to_string();
                    if write_frame(w, &hb).is_err() {
                        return false;
                    }
                    last_write = Instant::now();
                }
            }
        }
    }
    let _ = w.write_all(b"0\r\n\r\n");
    let _ = w.flush();
    true
}

/// `GET /subscriptions/<id>?from=<epoch>&wait_ms=<ms>`: the long-poll
/// cursor mode. Frames strictly above `from` are returned *without* being
/// consumed — the next poll's `from` acknowledges them, so a lost response
/// is re-fetched, not lost. A cursor the queue can no longer serve
/// contiguously (shed while away, `from` before the acked floor, or ahead
/// of the server after a restart) gets `reset: true` with a full snapshot
/// frame at the current epoch instead of a silent gap.
pub(crate) fn poll_subscription(req: &Request, id: &str, state: &ServeState) -> Response {
    let current = state.snapshot.load();
    let Some(sub) = state.subs.get(id) else {
        return Response::json(
            404,
            &json!({
                "error": format!("no subscription `{id}` (re-subscribe and re-base)"),
                "current_epoch": current.epoch,
            }),
        );
    };
    let acked = sub.q.lock().acked_through;
    let from = match query_or(req, "from", acked, "an integer") {
        Ok(from) => from,
        Err(resp) => return resp,
    };
    let wait = match query_or(req, "wait_ms", 0u64, "an integer") {
        Ok(ms) => Duration::from_millis(ms).min(SUB_MAX_WAIT),
        Err(resp) => return resp,
    };

    let needs_reset = {
        let q = sub.q.lock();
        // A queued frame whose `from_epoch` is above the cursor means the
        // chain between them is gone (frames route contiguously, so this
        // only happens across a shed/restart) — deltas alone can't bridge it.
        let gap = q
            .frames
            .iter()
            .find(|f| f.epoch > from)
            .map(|f| f.from_epoch > from)
            .unwrap_or(false);
        q.lagged.is_some() || from < q.acked_through || from > current.epoch || gap
    };
    if needs_reset {
        {
            let mut q = sub.q.lock();
            q.lagged = None;
        }
        // `ack_through` (not clear): frames beyond the re-base epoch stay
        // queued, so continuity holds from the snapshot forward.
        sub.ack_through(current.epoch);
        let frame: Json = serde_json::from_str(&render_snapshot_frame(&sub.spec, &current))
            .expect("frames render as valid JSON");
        return Response::json(
            200,
            &json!({
                "id": sub.id,
                "reset": true,
                "from": current.epoch,
                "through": current.epoch,
                "frames": [frame],
            }),
        );
    }
    sub.ack_through(from);

    if wait > Duration::ZERO {
        let deadline = Instant::now() + wait;
        while !sub.wait_actionable(SUB_WAIT_TICK.min(wait)) {
            if Instant::now() >= deadline || state.stop_requested() {
                break;
            }
        }
    }

    let (frames, through, lagged_now) = {
        let q = sub.q.lock();
        let mut frames = Vec::new();
        let mut through = from;
        for f in q.frames.iter().filter(|f| f.epoch > from) {
            frames.push(serde_json::from_str(&f.body).expect("frames render as valid JSON"));
            through = f.epoch;
        }
        (frames, through, q.lagged.is_some())
    };
    if lagged_now {
        // Shed while we were waiting: surface it now rather than making the
        // client discover the gap next poll.
        let lag = json!({ "type": "lagged", "resume_epoch": current.epoch });
        return Response::json(
            200,
            &json!({
                "id": sub.id,
                "from": from,
                "through": from,
                "frames": [lag],
                "lagged": true,
            }),
        );
    }
    Response::json(
        200,
        &json!({
            "id": sub.id,
            "from": from,
            "through": through,
            "frames": frames,
        }),
    )
}
