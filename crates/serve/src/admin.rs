//! Operator-facing machinery: checkpoint flushing and the background
//! flusher, `POST /promote`, the `GET /checkpoint` bundle a follower resyncs
//! from, and the anti-entropy scrubber with its repair paths.

use crate::http::{Request, Response};
use crate::replication::{self, jittered_retry_secs};
use crate::server::{Lifecycle, ServeState};
use crate::subscriptions::IvmTrace;
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, CheckpointTracker};
use serde_json::{json, Value as Json};
use std::io;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl ServeState {
    /// Run one scrub pass right now (tests; the scrubber thread calls the
    /// same path on its interval).
    pub fn scrub_now(&self) {
        scrub_once(self);
    }

    /// Re-seed this node's entire state from the primary's live checkpoint:
    /// fetch the bundle (hash-verified, tmp+rename installed), verify the
    /// chain, load it over the served state, publish the restored epoch,
    /// and rewrite the local WAL to resume at the checkpoint's position.
    /// Returns the seq the tail resumes from.
    ///
    /// This is the 410 (compacted-history) recovery path and the
    /// follower's scrub-repair path.
    pub(crate) fn resync_from_primary(&self, primary: &str) -> io::Result<u64> {
        let dir = self.checkpoint_dir.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint resync requires a checkpoint dir (nowhere to \
                 install the primary's checkpoint); re-seed this follower manually",
            )
        })?;
        let files = replication::fetch_checkpoint_bundle(primary, dir)?;
        let ckpt = Checkpoint::new(dir.clone()).map_err(io::Error::other)?;
        ckpt.verify().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fetched checkpoint failed verification: {e}"),
            )
        })?;
        let (stream_id, seq, term) = read_wal_position(Some(dir)).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "fetched checkpoint carries no wal_position.json; the primary \
                 must flush at least one checkpoint with a WAL attached",
            )
        })?;
        {
            let mut dd = self.writer.lock();
            dd.load_checkpoint(&ckpt).map_err(io::Error::other)?;
            *self.ckpt_tracker.lock() = CheckpointTracker::default();
            self.publish_epoch(&dd, 1, &self.inference, IvmTrace::default());
            let new_term = term.max(self.term());
            if let Some(wal) = &self.wal {
                wal.lock().reset_stream(stream_id, seq, new_term)?;
            }
            self.term.fetch_max(new_term, Ordering::SeqCst);
            self.replication.applied_seq.store(seq, Ordering::SeqCst);
            self.replication.observe_watermark(seq);
        }
        eprintln!(
            "deepdive serve: installed {files} checkpoint file(s) from the primary; \
             local WAL reset to stream {stream_id:016x} seq {seq}"
        );
        Ok(seq)
    }

    /// Flush a checkpoint capturing every applied ingest, then mark the WAL
    /// checkpointed through what the checkpoint holds — those records are
    /// now owned by the checkpoint (and retained only for followers still
    /// fetching them). Requires the writer lock to be free (callers must
    /// not hold it). The writer lock is held across both the save and the
    /// mark (writer → wal, the same order `apply_records` takes) so no
    /// ingest can append between them — an interleaved append would be
    /// applied and acked, then silently skipped by the mark without being
    /// in the checkpoint.
    ///
    /// On a primary every appended record is applied under the writer lock,
    /// so the mark covers the whole log (`next_seq`). On a follower the
    /// tailer may have fsync'd records it has not applied yet; those stay
    /// pending — marking them would lose them if the follower crashed
    /// before applying.
    ///
    /// The checkpoint directory also gets `wal_position.json` (stream id +
    /// seq + term), so copying the directory to seed a new follower carries
    /// the exact offset it should resume the stream from.
    pub(crate) fn flush_checkpoint(&self) -> io::Result<()> {
        let flushed = self.flush_checkpoint_inner();
        if let Err(e) = &flushed {
            // ENOSPC/EIO here means acked durability can no longer be
            // honored; latch the failure so writes stop and the CLI exits 8.
            self.note_storage_error(e, "checkpoint flush");
        }
        flushed
    }

    fn flush_checkpoint_inner(&self) -> io::Result<()> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(());
        };
        let dd = self.writer.lock();
        let mut ckpt = Checkpoint::new(dir.clone()).map_err(io::Error::other)?;
        ckpt.set_faults(self.faults.clone());
        let report = {
            let mut tracker = self.ckpt_tracker.lock();
            dd.save_checkpoint_incremental(&ckpt, &mut tracker, self.checkpoint_full_every)
                .map_err(io::Error::other)?
        };
        {
            let mut stats = self.ckpt_stats.lock();
            stats.flushes += 1;
            if report.full {
                stats.full_rewrites += 1;
            }
            stats.artifacts_written += report.artifacts_written;
            stats.artifacts_skipped += report.artifacts_skipped;
            stats.chain_len = report.chain_len;
        }
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            let through = if self.is_follower() {
                self.replication.applied_seq.load(Ordering::SeqCst)
            } else {
                wal.next_seq()
            };
            wal.mark_checkpointed(through)?;
            let position = json!({
                "stream_id": format!("{:016x}", wal.stream_id()),
                "seq": through,
                "term": wal.term(),
            });
            std::fs::write(
                dir.join("wal_position.json"),
                serde_json::to_string_pretty(&position).expect("a Value renders"),
            )?;
        }
        Ok(())
    }
}

/// The body of the background flusher and scrubber threads: run `tick`
/// every `interval` while the node is `Ready`, until shutdown.
pub(crate) fn run_every(state: &ServeState, interval: Duration, tick: fn(&ServeState)) {
    let mut last = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if state.stop_requested() {
            break;
        }
        if last.elapsed() < interval || state.lifecycle() != Lifecycle::Ready {
            continue;
        }
        last = Instant::now();
        tick(state);
    }
}

/// One flusher tick: checkpoint pending WAL records incrementally and
/// compact checkpointed segments past the retention horizon. Runs on its
/// own thread — an in-flight flush or compaction never sits between a
/// request and its ack, and `/readyz` never leaves `Ready` for either.
pub(crate) fn flush_tick(state: &ServeState) {
    if state.faults.trips(points::WAL_COMPACT_STALL) {
        // Deterministically widen the in-flight window so tests can
        // watch `/readyz` hold steady across a slow flush cycle.
        std::thread::sleep(Duration::from_millis(200));
    }
    if state.wal_gauges().0 > 0 {
        if let Err(e) = state.flush_checkpoint() {
            eprintln!(
                "deepdive serve: WARNING: periodic checkpoint flush failed ({e}); \
                 keeping the WAL for the next attempt"
            );
            return;
        }
    }
    if let Some(wal) = &state.wal {
        if let Err(e) = wal.lock().compact() {
            eprintln!("deepdive serve: WARNING: WAL compaction failed: {e}");
        }
    }
}

/// One scrub pass: re-verify every WAL frame checksum (fresh reads, not
/// cached state), re-verify the whole checkpoint chain, repair what fails
/// (from the primary for a follower, from a fresh flush for a primary),
/// and — on a caught-up follower — compare served fingerprints with the
/// primary to catch silent divergence no checksum can see.
pub(crate) fn scrub_once(state: &ServeState) {
    state.scrub.runs.fetch_add(1, Ordering::SeqCst);
    if state.corrupt_reason().is_some() {
        // Already degraded; nothing more a scrub can do.
        return;
    }

    // 1. WAL: every frame, every segment, read back from disk.
    if let Some(wal) = &state.wal {
        let verified = wal.lock().verify();
        if let Err(e) = verified {
            state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
            eprintln!("deepdive serve: scrub: WAL corruption: {e}");
            repair_wal(state, &e);
        }
    }

    // 2. Checkpoint chain: every artifact against its manifest hash, every
    // delta against the chain.
    if let Some(dir) = &state.checkpoint_dir {
        if dir.join("MANIFEST.tsv").exists() {
            let verified =
                Checkpoint::new(dir.to_path_buf()).and_then(|ckpt| ckpt.verify().map(|_| ()));
            if let Err(e) = verified {
                state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
                eprintln!("deepdive serve: scrub: checkpoint corruption: {e}");
                let file = match &e {
                    deepdive_core::CheckpointError::Corrupt { file, .. } => Some(file.clone()),
                    _ => None,
                };
                repair_checkpoint(state, file.as_deref(), &e.to_string());
            }
        }
    }

    // 3. Cross-node anti-entropy: a caught-up follower compares its served
    // (epoch, fingerprint) with the primary's. Checksums catch bit-rot;
    // this catches state divergence with intact checksums. A node that has
    // ever resynced from a checkpoint bundle is excluded: the resync
    // re-based its epoch counter, so an epoch collision with the primary
    // no longer implies comparable histories.
    if state.is_follower() && !state.replication.diverged.load(Ordering::SeqCst) {
        if let Some(primary) = &state.follow {
            if state.replication.connected.load(Ordering::SeqCst)
                && state.replication.lag_epochs() == 0
                && state.replication.resyncs.load(Ordering::SeqCst) == 0
            {
                scrub_fingerprint(state, primary);
            }
        }
    }
}

/// Compare this follower's `(epoch, fingerprint)` with the primary's; a
/// different fingerprint at the *same* epoch is divergence — mark it fatal
/// exactly as a refused record would be.
fn scrub_fingerprint(state: &ServeState, primary: &str) {
    let Ok((200, body)) = replication::http_request_json("GET", primary, "/healthz") else {
        return; // primary unreachable or unhealthy: the tailer's problem
    };
    let snap = state.snapshot.load();
    let (Some(p_epoch), Some(p_fp)) = (
        body.get("epoch").and_then(Json::as_u64),
        body.get("fingerprint").and_then(Json::as_str),
    ) else {
        return;
    };
    let ours = format!("{:016x}", snap.fingerprint);
    // Only a stable comparison counts: same epoch before *and* after, so a
    // concurrent ingest cannot fake a mismatch.
    if p_epoch == snap.epoch && p_fp != ours && state.snapshot.load().epoch == snap.epoch {
        state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
        state.replication.set_fatal(
            true,
            format!(
                "scrub: fingerprint mismatch at epoch {p_epoch} (ours {ours}, \
                 primary {p_fp}): silent divergence — re-seed this follower"
            ),
        );
    }
}

/// A follower's repair for either artifact: re-seed everything from the
/// primary's checkpoint. False (after logging why) when that failed.
fn repair_from_primary(state: &ServeState, what: &str) -> bool {
    let Some(primary) = &state.follow else {
        return false;
    };
    match state.resync_from_primary(primary) {
        Ok(_) => {
            state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
            state.replication.resyncs.fetch_add(1, Ordering::SeqCst);
            eprintln!("deepdive serve: scrub: {what} repaired from the primary");
            true
        }
        Err(e) => {
            eprintln!("deepdive serve: scrub: peer repair failed: {e}");
            false
        }
    }
}

/// Repair a corrupt WAL. A follower re-seeds from the primary's checkpoint
/// (peer repair); a primary's applied state is intact in memory, so it
/// flushes a fresh checkpoint and rewrites the log empty at the same
/// stream and term (followers that still needed the dropped records get
/// 410 → resync). When neither works the node degrades to read-only.
fn repair_wal(state: &ServeState, err: &io::Error) {
    if state.is_follower() {
        if !repair_from_primary(state, "WAL") {
            state.set_corrupt(format!("WAL corrupt and peer repair failed: {err}"));
        }
        return;
    }
    let repaired = state.flush_checkpoint().and_then(|()| {
        let wal = state.wal.as_ref().expect("repair runs only with a WAL");
        let mut w = wal.lock();
        let (stream, next, term) = (w.stream_id(), w.next_seq(), w.term());
        w.reset_stream(stream, next, term)
    });
    match repaired {
        Ok(()) => {
            state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "deepdive serve: scrub: WAL repaired — state checkpointed and the \
                 log rewritten clean"
            );
        }
        Err(re) => state.set_corrupt(format!("WAL corrupt ({err}) and local repair failed: {re}")),
    }
}

/// Repair a corrupt checkpoint: quarantine the named artifact (rename to
/// `<file>.quarantine` so nothing ever loads it again), then rebuild — a
/// follower fetches the primary's bundle, a primary rewrites the full
/// checkpoint from its live state.
fn repair_checkpoint(state: &ServeState, file: Option<&str>, reason: &str) {
    if let (Some(dir), Some(file)) = (&state.checkpoint_dir, file) {
        let bad = dir.join(file);
        if bad.exists() {
            match std::fs::rename(&bad, dir.join(format!("{file}.quarantine"))) {
                Ok(()) => eprintln!("deepdive serve: scrub: quarantined {file}"),
                Err(e) => eprintln!("deepdive serve: scrub: could not quarantine {file}: {e}"),
            }
        }
    }
    if state.is_follower() {
        if !repair_from_primary(state, "checkpoint") {
            state.set_corrupt(format!(
                "checkpoint corrupt and peer repair failed: {reason}"
            ));
        }
        return;
    }
    // Primary: the served state is the source of truth; force the next
    // flush to be a full rewrite and take it now.
    *state.ckpt_tracker.lock() = CheckpointTracker::default();
    match state.flush_checkpoint() {
        Ok(()) => {
            state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
            eprintln!("deepdive serve: scrub: checkpoint repaired by a full rewrite");
        }
        Err(re) => state.set_corrupt(format!(
            "checkpoint corrupt ({reason}) and rewrite failed: {re}"
        )),
    }
}

/// Read the `wal_position.json` a checkpoint flush leaves beside the
/// checkpoint: `(stream_id, seq, term)`. Absent or unreadable simply means
/// "no recorded position" (e.g. a pre-replication checkpoint); a position
/// written before terms existed reads as term 0.
pub(crate) fn read_wal_position(dir: Option<&std::path::Path>) -> Option<(u64, u64, u64)> {
    let text = std::fs::read_to_string(dir?.join("wal_position.json")).ok()?;
    let v: Json = serde_json::from_str(&text).ok()?;
    let stream_id = u64::from_str_radix(v.get("stream_id")?.as_str()?, 16).ok()?;
    let seq = v.get("seq")?.as_u64()?;
    let term = v.get("term").and_then(Json::as_u64).unwrap_or(0);
    (stream_id != 0).then_some((stream_id, seq, term))
}

/// `POST /promote`: atomically flip this caught-up follower to primary
/// under a new, strictly higher term. Idempotent on a node that is already
/// primary. Refuses (409) a diverged follower, or one that still trails
/// the last known primary head — unless `?force=1` accepts losing the
/// unfetched records.
///
/// The flip is fencing-safe: the new term is persisted in the WAL manifest
/// *before* the role flips, so the deposed primary — should it come back —
/// sees the higher term in the very first handshake and fences itself.
pub(crate) fn post_promote(req: &Request, state: &ServeState) -> Response {
    let force = matches!(req.query_param("force"), Some("1") | Some("true"));
    if !state.is_follower() {
        return Response::json(
            200,
            &json!({
                "promoted": false,
                "role": "primary",
                "term": state.term(),
                "note": "already primary",
            }),
        );
    }
    if state.lifecycle() != Lifecycle::Ready {
        return Response::error(503, "cannot promote: node is not ready")
            .with_retry_after(jittered_retry_secs(1));
    }
    let repl = state.replication();
    if repl.diverged.load(Ordering::SeqCst) || repl.fatal_error().is_some() {
        return Response::error(
            409,
            "cannot promote a diverged follower; re-seed it from a fresh checkpoint first",
        );
    }
    let Some(wal) = &state.wal else {
        return Response::error(400, "promote requires a WAL (--wal-dir)");
    };

    // Park the tailer and wait for it to let go of the stream; records it
    // already fetched are applied before it pauses, so `applied_seq` is
    // final once `connected` drops.
    state.repl_paused.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while repl.connected.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    if repl.connected.load(Ordering::SeqCst) {
        state.repl_paused.store(false, Ordering::SeqCst);
        return Response::error(
            503,
            "cannot promote: the tailer did not release the stream in time",
        )
        .with_retry_after(jittered_retry_secs(1));
    }

    let new_term;
    {
        // The writer lock orders the flip against any in-flight apply.
        let _dd = state.writer.lock();
        let lag = repl.lag_epochs();
        if lag > 0 && !force {
            state.repl_paused.store(false, Ordering::SeqCst);
            return Response::error(
                409,
                &format!(
                    "cannot promote: this follower trails the last known primary head \
                     by {lag} record(s); let it catch up, or pass ?force=1 to accept \
                     losing them"
                ),
            );
        }
        let mut w = wal.lock();
        new_term = w.term() + 1;
        if let Err(e) = w.set_term(new_term) {
            state.repl_paused.store(false, Ordering::SeqCst);
            return Response::error(
                500,
                &format!("cannot promote: persisting term {new_term} failed: {e}"),
            );
        }
        state.term.store(new_term, Ordering::SeqCst);
        state.follower.store(false, Ordering::SeqCst);
        // A forced promotion abandons the unfetched records; the books
        // must not report them as lag forever.
        let applied = repl.applied_seq.load(Ordering::SeqCst);
        repl.watermark_seq.store(applied, Ordering::SeqCst);
    }
    eprintln!("deepdive serve: promoted to primary at term {new_term}");
    // Record the new term in wal_position.json (best effort — the term is
    // already durable in the WAL manifest).
    if let Err(e) = state.flush_checkpoint() {
        eprintln!("deepdive serve: WARNING: post-promote checkpoint flush failed ({e})");
    }
    let snap = state.snapshot.load();
    Response::json(
        200,
        &json!({
            "promoted": true,
            "role": "primary",
            "term": new_term,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "wal_offset": state.replication().applied_seq.load(Ordering::SeqCst),
        }),
    )
}

/// `GET /checkpoint`: the node's current checkpoint directory as a
/// hash-framed bundle (see [`replication::fetch_checkpoint_bundle`] for
/// the frame format). Flushes first so the bundle is current through every
/// applied record. This is what a 410'd follower resyncs from.
pub(crate) fn get_checkpoint_bundle(state: &ServeState) -> Response {
    let Some(dir) = state.checkpoint_dir.clone() else {
        return Response::error(404, "this node keeps no checkpoint (no checkpoint dir)");
    };
    if state.lifecycle() != Lifecycle::Ready {
        return Response::error(503, "not ready").with_retry_after(jittered_retry_secs(1));
    }
    if let Some(why) = state.write_block_reason() {
        // A fenced or corrupt node must not seed peers from suspect state.
        return Response::error(503, &format!("refusing to serve a checkpoint: {why}"));
    }
    if let Err(e) = state.flush_checkpoint() {
        return Response::error(500, &format!("checkpoint flush failed: {e}"));
    }
    // Hold the writer lock while reading: a flush holds it too, so no
    // half-written chain can be bundled.
    let _dd = state.writer.lock();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => return Response::error(500, &format!("cannot read checkpoint dir: {e}")),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| !n.starts_with('.') && !n.ends_with(".tmp") && !n.ends_with(".quarantine"))
        .collect();
    names.sort();
    let mut body = String::new();
    for name in &names {
        let content = match std::fs::read_to_string(dir.join(name)) {
            Ok(c) => c,
            Err(e) => {
                return Response::error(500, &format!("cannot read checkpoint file {name}: {e}"))
            }
        };
        let hash = deepdive_core::checkpoint::fnv1a64(content.as_bytes());
        body.push_str(&format!("FILE {name} {} {hash:016x}\n", content.len()));
        body.push_str(&content);
        body.push('\n');
    }
    body.push_str("END\n");
    Response::octet(200, body)
        .with_header("X-DD-Term", state.term().to_string())
        .with_header("X-DD-Files", names.len().to_string())
}
