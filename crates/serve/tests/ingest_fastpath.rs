//! Ingest fast-path tests: group commit under concurrent bursts, crash
//! chaos across segment rotation and compaction, incremental-checkpoint
//! restore through a delta chain, follower parity over a rotating +
//! compacting primary WAL, and readiness steadiness while the flusher
//! works.
//!
//! Crashes are simulated in-process via [`ServerHandle::abort`] — no
//! drain, no final checkpoint, no WAL truncation — the disk state
//! `kill -9` leaves.

mod common;

use common::{
    get, http, ingest_body, restored_dd, served_relation, spouse_app_config, tmpdir, try_http,
    wait_ready,
};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, FaultInjector};
use deepdive_serve::{ServeConfig, Server};
use serde_json::Value as Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_config() -> SpouseAppConfig {
    spouse_app_config(6, 8)
}

/// Deterministic spouse-sentence documents the extraction rules recognize.
const DOC_TEXTS: [&str; 4] = [
    "Alice Young and her husband Bob Young toured the museum.",
    "Carol King and her husband David King hosted a dinner.",
    "Erin Stone and her husband Frank Stone sailed north.",
    "Grace Hill and her husband Henry Hill opened a shop.",
];

/// A burst of concurrent ingests is coalesced by the committer: every
/// request acks durable, all land (epoch == burst size), and the WAL took
/// strictly fewer fsyncs than records — the gauges prove the batching.
#[test]
fn concurrent_burst_is_group_committed_into_fewer_fsyncs() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");
    let bodies: Vec<Json> = (0..12)
        .map(|i| {
            let changes = app.document_changes(DOC_TEXTS[i % DOC_TEXTS.len()]);
            assert!(!changes.is_empty());
            ingest_body(&changes)
        })
        .collect();

    let serve_config = ServeConfig {
        workers: 8,
        page_limit: 100_000,
        wal_dir: Some(tmpdir("burst-wal")),
        linger: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();
    wait_ready(addr);

    let workers: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            std::thread::spawn(move || {
                let (status, v) = http(addr, "POST", "/documents", Some(&body));
                assert_eq!(status, 200, "burst ingest: {v}");
                assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("ingest thread");
    }

    let (_, health) = get(addr, "/healthz");
    assert_eq!(health.get("epoch").and_then(Json::as_u64), Some(12));
    let (_, metrics) = get(addr, "/metrics");
    let gc = &metrics["wal"]["group_commit"];
    let batches = gc["batches"].as_u64().expect("batches gauge");
    let records = gc["records"].as_u64().unwrap_or(12);
    assert_eq!(gc["fsyncs_saved"].as_u64(), Some(12 - batches));
    assert!((1..12).contains(&batches), "12 records, {batches} batches");
    assert!(records >= 12 || gc["avg_batch"].as_f64().unwrap_or(0.0) > 1.0);

    handle.shutdown();
}

/// Chaos: `kill -9` lands mid-burst while the WAL is rotating segments
/// every few hundred bytes. Every acked ingest must survive replay;
/// nothing beyond the burst can materialize.
#[test]
fn crash_mid_group_commit_and_rotation_keeps_every_acked_ingest() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("chaos-ckpt");
    let wal_dir = tmpdir("chaos-wal");
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt_dir.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let bodies: Vec<Json> = (0..8)
        .map(|i| ingest_body(&app.document_changes(DOC_TEXTS[i % DOC_TEXTS.len()])))
        .collect();

    let serve_config = ServeConfig {
        workers: 8,
        page_limit: 100_000,
        wal_dir: Some(wal_dir),
        checkpoint_dir: Some(ckpt_dir.clone()),
        linger: Duration::from_millis(5),
        wal_segment_bytes: 512, // rotate constantly under the burst
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();
    wait_ready(addr);

    let acked = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let workers: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            let acked = acked.clone();
            std::thread::spawn(move || {
                if let Some((200, _)) = try_http(addr, "POST", "/documents", &body) {
                    acked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            })
        })
        .collect();
    // Let part of the burst through, then pull the plug mid-commit.
    std::thread::sleep(Duration::from_millis(12));
    handle.abort();
    for w in workers {
        w.join().expect("ingest thread");
    }
    let acked = acked.load(std::sync::atomic::Ordering::SeqCst);

    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let server2 = Server::new(dd2, &serve_config).expect("rebind");
    let replayable = server2.pending_replay() as u64;
    assert!(
        replayable >= acked,
        "every acked ingest must be on disk: {acked} acked, {replayable} replayable"
    );
    assert!(replayable <= 8, "nothing beyond the burst can appear");
    let handle2 = server2.start().expect("restart");
    wait_ready(handle2.addr());
    let (_, health) = get(handle2.addr(), "/healthz");
    assert_eq!(
        health.get("epoch").and_then(Json::as_u64),
        Some(replayable),
        "replay applied exactly the durable records"
    );
    handle2.shutdown();
}

/// Chaos: the injected crash hits compaction while it is unlinking
/// checkpointed segments. The flusher survives the error, the daemon keeps
/// serving, and the restart finishes the compaction and replays cleanly.
#[test]
fn crash_mid_compaction_is_survivable_and_restart_completes_it() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("compact-ckpt");
    let wal_dir = tmpdir("compact-wal");
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt_dir.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let bodies: Vec<Json> = (0..4)
        .map(|i| ingest_body(&app.document_changes(DOC_TEXTS[i])))
        .collect();

    let faults = Arc::new(FaultInjector::new());
    faults.arm(points::WAL_COMPACT_CRASH, 1);
    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        wal_segment_bytes: 1, // every record seals its own segment
        wal_retain: 0,        // compact everything the checkpoint covers
        flush_interval: Duration::from_millis(50),
        faults,
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();
    wait_ready(addr);

    for body in &bodies {
        let (status, v) = http(addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "ingest: {v}");
    }
    // Wait for a flush + the (injected-crash) compaction, then a healthy
    // compaction pass on a later tick.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200, "daemon must keep serving through the crash");
        if metrics["wal"]["compactions"].as_u64().unwrap_or(0) >= 2
            && metrics["wal"]["records"].as_u64() == Some(0)
        {
            assert_eq!(
                metrics["wal"]["segments"].as_u64(),
                Some(1),
                "recovered compaction frees the checkpointed segments"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "compaction never recovered: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = served_relation(addr, "MarriedCandidate");
    handle.abort();

    let dd2 = restored_dd(config, corpus, &ckpt_dir);
    let server2 = Server::new(dd2, &serve_config).expect("rebind");
    assert_eq!(server2.pending_replay(), 0, "flushes covered every ingest");
    let handle2 = server2.start().expect("restart");
    wait_ready(handle2.addr());
    assert_eq!(
        served_relation(handle2.addr(), "MarriedCandidate"),
        before,
        "state diverged across crash-during-compaction"
    );
    handle2.shutdown();
}

/// Incremental checkpointing chains a base plus ≥2 deltas across
/// flush-interval-driven flushes; a crash then restores by composing the
/// chain — bit-for-bit the pre-crash state, with nothing left to replay.
#[test]
fn incremental_checkpoint_chain_restores_base_plus_deltas() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("app");
    app.run().expect("base run");

    let ckpt_dir = tmpdir("delta-ckpt");
    let wal_dir = tmpdir("delta-wal");
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt_dir.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let bodies: Vec<Json> = (0..3)
        .map(|i| ingest_body(&app.document_changes(DOC_TEXTS[i])))
        .collect();

    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal_dir),
        checkpoint_dir: Some(ckpt_dir.clone()),
        flush_interval: Duration::from_millis(50),
        checkpoint_full_every: 100, // keep chaining; no full rewrite mid-test
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();
    wait_ready(addr);

    // Each ingest is followed by a wait for the flusher to chain another
    // artifact: the first flush writes the full base, the next two write
    // deltas 1 and 2.
    let mut want_chain = 0u64;
    for (i, body) in bodies.iter().enumerate() {
        let (status, v) = http(addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "ingest {i}: {v}");
        if i > 0 {
            want_chain += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, metrics) = get(addr, "/metrics");
            let ck = &metrics["checkpoint"];
            if ck["flushes"].as_u64().unwrap_or(0) > i as u64
                && ck["incremental"]["chain_len"].as_u64() == Some(want_chain)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "flush {i} never chained: {metrics}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(
        metrics["checkpoint"]["incremental"]["chain_len"].as_u64(),
        Some(2)
    );
    assert_eq!(
        metrics["checkpoint"]["full_rewrites"].as_u64(),
        Some(1),
        "only the first flush rewrites the base: {metrics}"
    );
    let before = served_relation(addr, "MarriedCandidate");
    handle.abort();

    // The chain is intact and verifiable on disk: base + 2 deltas.
    let ckpt = Checkpoint::new(ckpt_dir.clone()).expect("checkpoint");
    assert_eq!(ckpt.db_chain_len(), 2, "two deltas chained onto the base");
    ckpt.verify().expect("chain verifies hash-by-hash");

    let mut app2 = SpouseApp::build_with_corpus(config, corpus).expect("restart app");
    app2.dd
        .load_checkpoint(&ckpt)
        .expect("compose base + deltas");
    let server2 = Server::new(app2.dd, &serve_config).expect("rebind");
    assert_eq!(server2.pending_replay(), 0, "flushes covered every ingest");
    let handle2 = server2.start().expect("restart");
    wait_ready(handle2.addr());
    assert_eq!(
        served_relation(handle2.addr(), "MarriedCandidate"),
        before,
        "composed restore diverged from the pre-crash state"
    );
    handle2.shutdown();
}

/// A follower tailing a primary whose WAL rotates tiny segments and
/// compacts aggressively still converges to bit-identical state: segment
/// boundaries and unlinked history are invisible to the stream.
#[test]
fn follower_converges_bit_identically_across_rotation_and_compaction() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut primary_app =
        SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("primary app");
    primary_app.run().expect("primary base run");
    let bodies: Vec<Json> = (0..4)
        .map(|i| ingest_body(&primary_app.document_changes(DOC_TEXTS[i])))
        .collect();
    let mut follower_app =
        SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("follower app");
    follower_app.run().expect("follower base run");

    let p_ckpt = tmpdir("rotpar-p-ckpt");
    let f_ckpt = tmpdir("rotpar-f-ckpt");
    primary_app
        .dd
        .save_checkpoint(&Checkpoint::new(p_ckpt.clone()).expect("ckpt"))
        .expect("save primary checkpoint");
    follower_app
        .dd
        .save_checkpoint(&Checkpoint::new(f_ckpt.clone()).expect("ckpt"))
        .expect("save follower checkpoint");

    let primary_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(tmpdir("rotpar-p-wal")),
        checkpoint_dir: Some(p_ckpt),
        wal_segment_bytes: 256,
        // Retention keeps a follower-sized window; compaction runs on the
        // flusher cadence underneath the live stream.
        wal_retain: 2,
        flush_interval: Duration::from_millis(50),
        ..Default::default()
    };
    let primary = Server::new(primary_app.dd, &primary_cfg)
        .expect("bind primary")
        .start()
        .expect("start primary");
    let p_addr = primary.addr();
    wait_ready(p_addr);

    let follower_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(tmpdir("rotpar-f-wal")),
        checkpoint_dir: Some(f_ckpt),
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    let follower = Server::new(follower_app.dd, &follower_cfg)
        .expect("bind follower")
        .start()
        .expect("start follower");
    let f_addr = follower.addr();
    wait_ready(f_addr);

    // Sequential ingests: one WAL record per epoch on both sides keeps
    // the refresh budgets — and therefore the fingerprints — identical.
    for body in &bodies {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "primary ingest: {v}");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, f_health) = get(f_addr, "/healthz");
        if f_health.get("epoch").and_then(Json::as_u64) == Some(bodies.len() as u64) {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The primary really did rotate (and, once flushed, compact) segments
    // beneath the live stream.
    let (_, p_metrics) = get(p_addr, "/metrics");
    assert!(
        p_metrics["wal"]["segments"].as_u64().unwrap_or(0) > 1
            || p_metrics["wal"]["compactions"].as_u64().unwrap_or(0) >= 1,
        "test must exercise rotation/compaction: {p_metrics}"
    );

    let (_, p_health) = get(p_addr, "/healthz");
    let (_, f_health) = get(f_addr, "/healthz");
    assert_eq!(p_health.get("epoch"), f_health.get("epoch"), "epoch parity");
    assert_eq!(
        p_health.get("fingerprint"),
        f_health.get("fingerprint"),
        "fingerprint parity: primary {p_health}, follower {f_health}"
    );
    let (_, p_marginals) = get(p_addr, "/marginals/MarriedMentions?limit=100000");
    let (_, f_marginals) = get(f_addr, "/marginals/MarriedMentions?limit=100000");
    assert_eq!(p_marginals, f_marginals, "marginals are bit-identical");

    follower.shutdown();
    primary.shutdown();
}

/// `/readyz` must hold steady at 200 while the flusher compacts and
/// writes incremental checkpoints: background durability work never
/// flips readiness or blocks reads.
#[test]
fn readyz_stays_steady_during_compaction_and_flush() {
    let config = tiny_config();
    let mut app = SpouseApp::build(config).expect("app");
    app.run().expect("base run");
    let body = ingest_body(&app.document_changes(DOC_TEXTS[0]));

    let ckpt_dir = tmpdir("steady-ckpt");
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt_dir.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let faults = Arc::new(FaultInjector::new());
    // Stall every flusher pass: each tick dawdles 200ms before flushing +
    // compacting, so the poll below reliably overlaps the "busy" window.
    faults.arm(points::WAL_COMPACT_STALL, 1_000);
    let serve_config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(tmpdir("steady-wal")),
        checkpoint_dir: Some(ckpt_dir),
        wal_segment_bytes: 1,
        wal_retain: 0,
        flush_interval: Duration::from_millis(30),
        faults,
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();
    wait_ready(addr);

    let (status, _) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200);

    // Poll through several stalled flush cycles: readiness and reads must
    // answer 200 every single time.
    let until = Instant::now() + Duration::from_millis(800);
    let mut polls = 0u32;
    while Instant::now() < until {
        let (status, v) = get(addr, "/readyz");
        assert_eq!(status, 200, "readyz flapped during background flush: {v}");
        let (status, _) = get(addr, "/relations/MarriedCandidate?limit=1");
        assert_eq!(status, 200, "reads blocked during background flush");
        polls += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(polls > 20, "poll loop must span multiple flush intervals");
    // The flusher did run (and checkpoint) under the stall.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics["checkpoint"]["flushes"].as_u64().unwrap_or(0) >= 1,
        "flusher never ran: {metrics}"
    );

    handle.shutdown();
}
