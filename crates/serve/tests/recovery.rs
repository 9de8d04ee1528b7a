//! Crash and overload tests for the daemon: kill-mid-ingest WAL replay
//! parity, torn-tail recovery, fsync-failure ack semantics, admission
//! shedding, ingest rate limiting, slowloris defense, readiness gating
//! during replay, and graceful drain.
//!
//! The crash itself is simulated in-process: [`ServerHandle::abort`] tears
//! the server down with no drain, no final checkpoint, and no WAL
//! truncation — exactly the disk state `kill -9` leaves — and the restart
//! rebuilds a fresh `DeepDive` from the checkpoint plus WAL replay. The CI
//! serve-smoke job runs the same scenario against the real binary with a
//! real `kill -9`.

mod common;

use common::{
    batch_relation, get, http, ingest_body, read_report, restored_dd, send_raw, served_relation,
    spouse_app_config, tmpdir, wait_ready,
};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{stalled_client, Checkpoint, FaultInjector};
use deepdive_serve::{ServeConfig, Server, Wal};
use serde_json::{json, Value as Json};
use std::collections::{BTreeSet, HashMap};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn app_config() -> SpouseAppConfig {
    spouse_app_config(16, 12)
}

/// A smaller pipeline for the tests that only need a served app, not
/// derived-relation parity.
fn tiny_config() -> SpouseAppConfig {
    spouse_app_config(6, 8)
}

/// The tentpole chaos test: acked ingests survive `kill -9`.
///
/// A serve session over a partial corpus acknowledges the held-out
/// document (fsync'd to the WAL), then dies with no checkpoint flush and
/// no WAL truncation. The restart restores the pre-ingest checkpoint,
/// replays the WAL through the same DRed/IVM path, and must land the
/// derived relations exactly where a clean batch run over the *complete*
/// corpus puts them.
#[test]
fn kill_mid_ingest_replay_converges_to_batch_parity() {
    let config = app_config();
    let full_corpus = deepdive_corpus::spouse::generate(&config.corpus);

    // Parity reference: every document, one batch run.
    let mut batch_app =
        SpouseApp::build_with_corpus(config.clone(), full_corpus.clone()).expect("batch app");
    batch_app.run().expect("batch run");

    // Serve session: hold out the last document, run, checkpoint.
    let mut partial_corpus = full_corpus.clone();
    let held_out = partial_corpus.documents.pop().expect("at least one doc");
    let mut app =
        SpouseApp::build_with_corpus(config.clone(), partial_corpus.clone()).expect("serve app");
    app.run().expect("serve base run");

    let ckpt_dir = tmpdir("kill-ckpt");
    let wal_dir = tmpdir("kill-wal");
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    app.dd.save_checkpoint(&ckpt).expect("save checkpoint");
    let changes = app.document_changes(&held_out.text);
    assert!(!changes.is_empty(), "held-out document produced no rows");

    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(&changes)));
    assert_eq!(status, 200, "POST /documents: {v}");
    assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("wal_records").and_then(Json::as_u64), Some(1));

    // kill -9: no drain, no checkpoint flush, no WAL truncation.
    handle.abort();

    // Restart: fresh process state, checkpoint restore, WAL replay.
    let dd2 = restored_dd(config, partial_corpus, &ckpt_dir);
    let server2 = Server::new(dd2, &serve_config).expect("rebind server");
    assert_eq!(server2.pending_replay(), 1, "the acked record is pending");
    let state2 = server2.state();
    let handle2 = server2.start().expect("restart server");
    let addr2 = handle2.addr();
    wait_ready(addr2);

    // The replayed state must equal the clean batch run over all documents.
    for relation in ["MarriedCandidate", "MarriedMentions_Ev"] {
        let served = served_relation(addr2, relation);
        let batch = batch_relation(&batch_app.dd, relation);
        assert_eq!(
            served, batch,
            "derived relation {relation} diverged after crash + replay"
        );
    }

    // Replay flushed a checkpoint and truncated the WAL.
    assert_eq!(state2.wal_gauges().0, 0, "WAL truncated after replay");
    let report = read_report(&wal_dir);
    let wal = report.get("wal").expect("wal section");
    assert_eq!(wal.get("records_replayed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        wal.get("wal_torn_tail").and_then(Json::as_bool),
        Some(false)
    );

    handle2.shutdown();
}

/// A crash mid-append leaves a torn final record. The restart must detect
/// it by checksum, drop it with a warning (it was never acknowledged),
/// replay the intact prefix, and flag `wal_torn_tail` in the report.
#[test]
fn torn_wal_tail_is_dropped_and_flagged_on_restart() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("torn-ckpt");
    let wal_dir = tmpdir("torn-wal");
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    app.dd.save_checkpoint(&ckpt).expect("save checkpoint");
    let doc_a = app.document_changes("Alice Young and her husband Bob Young toured the museum.");
    let doc_b = app.document_changes("Carol King and her husband David King hosted a dinner.");

    let faults = Arc::new(FaultInjector::new());
    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        faults: faults.clone(),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Doc A acks cleanly; doc B's append tears mid-record.
    let (status, _) = http(addr, "POST", "/documents", Some(&ingest_body(&doc_a)));
    assert_eq!(status, 200);
    faults.arm(points::WAL_TORN_WRITE, 1);
    let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(&doc_b)));
    assert_eq!(status, 500, "torn append must not ack: {v}");
    // The WAL's on-disk state is unknown; further acks are refused.
    let (status, _) = http(addr, "POST", "/documents", Some(&ingest_body(&doc_b)));
    assert_eq!(status, 500, "poisoned WAL must keep refusing acks");
    handle.abort();

    // The torn tail is visible to a raw recovery scan — run it on a copy,
    // because opening the WAL truncates the tear away.
    let scan_dir = tmpdir("torn-scan");
    for entry in std::fs::read_dir(&wal_dir).expect("list wal dir") {
        let entry = entry.expect("wal dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), scan_dir.join(entry.file_name())).expect("copy wal file");
        }
    }
    let (wal, recovery) =
        Wal::open(&scan_dir, Arc::new(FaultInjector::new())).expect("recovery scan");
    assert!(recovery.torn_tail, "torn tail detected");
    assert_eq!(recovery.records.len(), 1, "only the acked record survives");
    assert!(recovery.torn_bytes > 0);
    drop(wal);

    // …and a full restart replays the intact prefix and reports the tear.
    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let server2 = Server::new(dd2, &serve_config).expect("rebind");
    assert_eq!(server2.pending_replay(), 1);
    let handle2 = server2.start().expect("restart");
    wait_ready(handle2.addr());

    let (status, health) = get(handle2.addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(
        health.get("epoch").and_then(Json::as_u64),
        Some(1),
        "exactly the acked record was replayed"
    );
    let report = read_report(&wal_dir);
    let wal = report.get("wal").expect("wal section");
    assert_eq!(wal.get("wal_torn_tail").and_then(Json::as_bool), Some(true));
    assert_eq!(wal.get("records_replayed").and_then(Json::as_u64), Some(1));

    handle2.shutdown();
}

/// A failed fsync means no durability promise can be made: the ingest is
/// answered 500, nothing is applied, and the next (healthy) ingest
/// succeeds because the append was rolled back.
#[test]
fn fsync_failure_refuses_the_ack_and_applies_nothing() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");
    let changes = app.document_changes("Erin Stone and her husband Frank Stone sailed north.");

    let faults = Arc::new(FaultInjector::new());
    let serve_config = ServeConfig {
        wal_dir: Some(tmpdir("fsync-wal")),
        faults: faults.clone(),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let state = server.state();
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    faults.arm(points::WAL_FSYNC, 1);
    let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(&changes)));
    assert_eq!(status, 500, "failed fsync must not ack: {v}");
    let (_, health) = get(addr, "/healthz");
    assert_eq!(
        health.get("epoch").and_then(Json::as_u64),
        Some(0),
        "nothing was applied"
    );
    assert_eq!(state.wal_gauges().0, 0, "failed append was rolled back");

    // Fault consumed; the same ingest now goes through.
    let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(&changes)));
    assert_eq!(status, 200, "retry after rollback: {v}");
    assert_eq!(state.wal_gauges().0, 1);

    handle.shutdown();
}

/// Beyond `max_inflight` admitted connections, new ones are shed with
/// `503 + Retry-After` instead of queueing unboundedly — and the daemon
/// recovers as soon as the stalled connection is cut by its deadline.
#[test]
fn overload_sheds_with_503_and_retry_after_then_recovers() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");

    let serve_config = ServeConfig {
        workers: 2,
        max_inflight: 1,
        read_timeout: Duration::from_millis(200),
        request_deadline: Duration::from_millis(800),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let state = server.state();
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Occupy the only admission slot with a peer that never finishes its
    // request.
    let _stalled = stalled_client(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n").expect("stall");
    let wait = Instant::now() + Duration::from_secs(5);
    while state.queue_depth() < 1 {
        assert!(Instant::now() < wait, "stalled peer was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let raw = send_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        raw.starts_with("HTTP/1.1 503"),
        "over-admission connection must be shed: {raw:?}"
    );
    assert!(
        raw.contains("Retry-After:"),
        "shed response carries Retry-After: {raw:?}"
    );
    assert!(state.metrics.shed_total() >= 1);

    // The stalled peer is cut by the request deadline (408), freeing the
    // slot; service resumes.
    let wait = Instant::now() + Duration::from_secs(10);
    loop {
        let raw = send_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if raw.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(
            Instant::now() < wait,
            "daemon never recovered from overload"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        state.metrics.timeout_total() >= 1,
        "the stalled peer got 408"
    );

    handle.shutdown();
}

/// The token bucket refuses ingest bursts over the configured rate with
/// 429 + Retry-After; reads are unaffected.
#[test]
fn ingest_rate_limit_answers_429_with_retry_after() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");

    let serve_config = ServeConfig {
        ingest_rate: Some(0.001), // burst of 1, essentially no refill
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let state = server.state();
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // First POST spends the only token (the body being rejected as empty
    // doesn't matter — admission happens before parsing).
    let body = json!({"rows": Json::Object(serde_json::Map::new())});
    let (status, _) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 400, "empty ingest is a 400 (token spent)");
    let raw = send_raw(
        addr,
        "POST /documents HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\r\n{\"rows\": {}}",
    );
    assert!(
        raw.starts_with("HTTP/1.1 429"),
        "second burst ingest must be rate limited: {raw:?}"
    );
    assert!(
        raw.contains("Retry-After:"),
        "429 carries Retry-After: {raw:?}"
    );
    assert!(state.metrics.rate_limited_total() >= 1);

    // Reads are not rate limited.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    handle.shutdown();
}

/// A peer that stalls mid-body is answered 408 when the request deadline
/// expires — not left holding a worker on a hung socket.
#[test]
fn stalled_mid_body_client_is_cut_with_408() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");

    let serve_config = ServeConfig {
        read_timeout: Duration::from_millis(100),
        request_deadline: Duration::from_millis(400),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let state = server.state();
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Declare 64 body bytes, send 7, then stall.
    let mut stream = stalled_client(
        addr,
        b"POST /documents HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\npartial",
    )
    .expect("stalled client");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("server answers before hanging up");
    assert!(
        raw.starts_with("HTTP/1.1 408"),
        "mid-body stall must be answered 408: {raw:?}"
    );
    assert!(state.metrics.timeout_total() >= 1);

    handle.shutdown();
}

/// During WAL replay, concurrent readers see only the pre-replay epoch —
/// then exactly the post-replay epoch after the single swap. `/readyz`
/// answers 503 (with Retry-After) for the whole window and ingests are
/// refused; `/healthz` stays 200 throughout.
#[test]
fn readers_see_only_whole_epochs_during_replay_and_readyz_gates() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("soak-ckpt");
    let wal_dir = tmpdir("soak-wal");
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    app.dd.save_checkpoint(&ckpt).expect("save checkpoint");

    // Build the WAL a crashed session would have left: three acked docs.
    let bodies: Vec<Vec<u8>> = [
        "Alice Young and her husband Bob Young toured the museum.",
        "Carol King and her husband David King hosted a dinner.",
        "Erin Stone and her husband Frank Stone sailed north.",
    ]
    .iter()
    .map(|text| {
        let changes = app.document_changes(text);
        assert!(!changes.is_empty());
        serde_json::to_string(&ingest_body(&changes))
            .unwrap()
            .into_bytes()
    })
    .collect();
    let num_records = bodies.len() as u64;
    {
        let (mut wal, _) = Wal::open(&wal_dir, Arc::new(FaultInjector::new())).expect("open wal");
        for body in &bodies {
            wal.append(body).expect("append");
        }
    }

    // Restart over the checkpoint; stall the replay so the not-ready
    // window is wide enough to observe deterministically.
    let faults = Arc::new(FaultInjector::new());
    faults.arm(points::WAL_REPLAY_STALL, 1);
    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir),
        checkpoint_dir: None, // keep the WAL after replay: not under test here
        faults,
        ..Default::default()
    };
    let server = Server::new(dd2, &serve_config).expect("bind server");
    assert_eq!(server.pending_replay(), 3);
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Immediately after start: not ready, ingest refused, but alive.
    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 503, "replaying => not ready: {v}");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("replaying"));
    let empty = json!({"rows": Json::Object(serde_json::Map::new())});
    let (status, _) = http(addr, "POST", "/documents", Some(&empty));
    assert_eq!(status, 503, "ingest refused during replay");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "liveness is unaffected by replay");

    // Soak readers across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen: HashMap<u64, BTreeSet<String>> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let (status, v) = get(addr, "/marginals/MarriedMentions?limit=100000");
                    assert_eq!(status, 200, "{v}");
                    let epoch = v.get("epoch").and_then(Json::as_u64).unwrap();
                    let fp = v
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string();
                    seen.entry(epoch).or_default().insert(fp);
                }
                seen
            })
        })
        .collect();

    wait_ready(addr);
    // A few more reads after the swap so every reader sees the new epoch.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);

    let mut observed: HashMap<u64, BTreeSet<String>> = HashMap::new();
    for r in readers {
        for (epoch, fps) in r.join().expect("reader thread") {
            observed.entry(epoch).or_default().extend(fps);
        }
    }
    for (&epoch, fps) in &observed {
        assert!(
            epoch == 0 || epoch == num_records,
            "reader observed a mid-replay epoch {epoch}: replay must publish one swap"
        );
        assert_eq!(fps.len(), 1, "epoch {epoch} served torn snapshots: {fps:?}");
    }
    assert!(
        observed.contains_key(&0),
        "the pre-replay epoch was served during replay"
    );

    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 200);
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(num_records));

    handle.shutdown();
}

/// A graceful shutdown issued while the WAL is still replaying must leave
/// the daemon Draining: replay's final Replaying → Ready transition is a
/// compare-and-swap, so it cannot reopen `/readyz` (and the ingest gate)
/// after shutdown already closed them.
#[test]
fn shutdown_during_replay_never_reopens_readiness() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("drainrace-ckpt");
    let wal_dir = tmpdir("drainrace-wal");
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    app.dd.save_checkpoint(&ckpt).expect("save checkpoint");
    let changes = app.document_changes("Iris Lake and her husband Jack Lake planted a garden.");
    {
        let (mut wal, _) = Wal::open(&wal_dir, Arc::new(FaultInjector::new())).expect("open wal");
        wal.append(
            serde_json::to_string(&ingest_body(&changes))
                .unwrap()
                .as_bytes(),
        )
        .expect("append");
    }

    // Stall the replay so the shutdown reliably lands while it is running.
    let faults = Arc::new(FaultInjector::new());
    faults.arm(points::WAL_REPLAY_STALL, 1);
    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let serve_config = ServeConfig {
        wal_dir: Some(wal_dir),
        checkpoint_dir: Some(ckpt_dir),
        faults,
        ..Default::default()
    };
    let server = Server::new(dd2, &serve_config).expect("bind server");
    assert_eq!(server.pending_replay(), 1);
    let state = server.state();
    let handle = server.start().expect("start server");
    assert_eq!(state.lifecycle(), deepdive_serve::Lifecycle::Replaying);

    // Shutdown races the replay thread; it sets Draining, then joins replay.
    let summary = handle.graceful_shutdown().expect("graceful shutdown");
    assert!(summary.checkpoint_flushed, "final flush covers the replay");
    assert_eq!(
        state.lifecycle(),
        deepdive_serve::Lifecycle::Draining,
        "replay's Ready transition must not clobber Draining"
    );
    assert_eq!(state.wal_gauges().0, 0, "flush still truncated the WAL");
}

/// Graceful shutdown drains, flushes a checkpoint covering every acked
/// ingest, and truncates the WAL — so the next start has nothing to
/// replay but serves the ingested state.
#[test]
fn graceful_drain_flushes_checkpoint_and_truncates_wal() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("drain-ckpt");
    let wal_dir = tmpdir("drain-wal");
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    app.dd.save_checkpoint(&ckpt).expect("save checkpoint");
    let changes = app.document_changes("Grace Hill and her husband Henry Hill opened a shop.");

    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    let (status, _) = http(addr, "POST", "/documents", Some(&ingest_body(&changes)));
    assert_eq!(status, 200);
    let ingested = served_relation(addr, "MarriedCandidate");

    let summary = handle.graceful_shutdown().expect("graceful shutdown");
    assert_eq!(summary.stragglers, 0, "nothing was in flight");
    assert!(summary.checkpoint_flushed, "final checkpoint flushed");

    let (wal, recovery) = Wal::open(&wal_dir, Arc::new(FaultInjector::new())).expect("reopen wal");
    assert_eq!(wal.records(), 0, "drain truncated the WAL");
    assert!(recovery.records.is_empty() && !recovery.torn_tail);
    drop(wal);

    // Restart: nothing to replay, and the ingested rows are in the
    // checkpoint.
    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let server2 = Server::new(dd2, &serve_config).expect("rebind");
    assert_eq!(server2.pending_replay(), 0);
    let handle2 = server2.start().expect("restart");
    wait_ready(handle2.addr());
    assert_eq!(
        served_relation(handle2.addr(), "MarriedCandidate"),
        ingested,
        "checkpoint captured the acked ingest"
    );
    handle2.shutdown();
}
