//! Failover, fencing, and self-healing storage: promote a caught-up
//! follower to primary under a new term, fence the deposed primary,
//! resync a follower the primary compacted past, scrub-and-repair
//! corrupted WAL/checkpoint artifacts, and surface dead-disk faults as a
//! distinct degraded state.
//!
//! Crashes are simulated in-process with [`ServerHandle::abort`] — no
//! drain, no checkpoint flush, no WAL truncation, exactly the disk state
//! `kill -9` leaves. The CI failover-smoke job replays the promote story
//! against the real binary with real signals.

mod common;

use common::{
    get, http, http_raw, ingest_body, marginal_rows, replication_metrics, restored_dd,
    served_relation, spawn_pair, spouse_app_config, tmpdir, wait_epoch, wait_for, wait_ready,
};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, FaultInjector};
use deepdive_serve::{ServeConfig, Server, ServerHandle};
use serde_json::{json, Value as Json};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tiny_config() -> SpouseAppConfig {
    spouse_app_config(8, 8)
}

/// Assert two nodes serve the same derived relations and the same marginal
/// variable sets — the recovery-grade convergence check.
fn assert_state_parity(a: SocketAddr, b: SocketAddr, context: &str) {
    for relation in ["MarriedCandidate", "MarriedMentions_Ev"] {
        assert_eq!(
            served_relation(a, relation),
            served_relation(b, relation),
            "{context}: relation {relation} diverged"
        );
    }
    assert_eq!(
        marginal_rows(a, "MarriedMentions"),
        marginal_rows(b, "MarriedMentions"),
        "{context}: marginal variable sets diverged"
    );
}

/// A standalone primary (WAL + checkpoint, no replication) for the scrub
/// and disk-fault scenarios.
fn spawn_single(tag: &str, faults: Arc<FaultInjector>) -> (ServerHandle, PathBuf, PathBuf, Json) {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut partial = corpus.clone();
    let doc = loop {
        let doc = partial.documents.pop().expect("enough documents");
        if !doc.text.trim().is_empty() {
            break doc;
        }
    };
    let mut app = SpouseApp::build_with_corpus(config, partial).expect("app");
    app.run().expect("base run");
    let body = ingest_body(&app.document_changes(&doc.text));
    let wal = tmpdir(&format!("{tag}-wal"));
    let ckpt = tmpdir(&format!("{tag}-ckpt"));
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        faults,
        ..Default::default()
    };
    let handle = Server::new(app.dd, &cfg)
        .expect("bind")
        .start()
        .expect("start");
    wait_ready(handle.addr());
    (handle, wal, ckpt, body)
}

/// The tentpole chaos story: `kill -9` the primary, promote the caught-up
/// follower under a bumped term, keep writing, then bring the old primary
/// back as a follower of the new one — it adopts the higher term and the
/// two nodes converge to bit-identical state.
#[test]
fn promote_after_primary_crash_and_rejoin_converges_bit_identical() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("promote", &config, &corpus, 2, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A lands on the primary and replicates; then the primary dies
    // hard, mid-service, with no drain and no checkpoint flush.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    pair.primary.abort();

    // Promote the follower. It was caught up, so no force is needed; the
    // term moves 0 -> 1 and the node starts answering as a primary.
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");
    assert_eq!(v["promoted"], json!(true), "promoted: {v}");
    assert_eq!(v["term"].as_u64(), Some(1), "term bumped: {v}");
    assert_eq!(v["role"], json!("primary"));
    let (_, health) = get(f_addr, "/healthz");
    assert_eq!(health["role"], json!("primary"), "healthz role: {health}");
    assert_eq!(health["term"].as_u64(), Some(1), "healthz term: {health}");
    let (status, ready) = get(f_addr, "/readyz");
    assert_eq!(status, 200, "promoted node is ready: {ready}");
    assert_eq!(ready["role"], json!("primary"));

    // Writes now land on the promoted node.
    let (status, v) = http(f_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "POST doc B on the new primary: {v}");
    assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));

    // The old primary rejoins as a follower of the new one: it replays
    // doc A from its own WAL, sees term 2 in the stream handshake, adopts
    // it, and fetches doc B.
    let dd2 = restored_dd(config, pair.partial.clone(), &pair.p_ckpt);
    let mut rejoin_cfg = pair.primary_cfg.clone();
    rejoin_cfg.addr = "127.0.0.1:0".into();
    rejoin_cfg.follow = Some(format!("http://{f_addr}"));
    let server2 = Server::new(dd2, &rejoin_cfg).expect("rebind old primary");
    assert_eq!(server2.pending_replay(), 1, "doc A replays locally");
    let handle2 = server2.start().expect("start rejoined node");
    let r_addr = handle2.addr();
    wait_ready(r_addr);
    wait_epoch(r_addr, 2);

    // Convergence: same epoch, same offset, same derived rows and marginal
    // variables — and the rejoined node adopted the new primary's term.
    let (_, new_health) = get(f_addr, "/healthz");
    let (_, old_health) = get(r_addr, "/healthz");
    assert_eq!(new_health["epoch"], old_health["epoch"], "epoch parity");
    assert_eq!(
        new_health["wal_offset"], old_health["wal_offset"],
        "offset parity"
    );
    assert_eq!(
        old_health["term"].as_u64(),
        Some(1),
        "rejoined node adopted term 1: {old_health}"
    );
    assert_eq!(old_health["role"], json!("follower"));
    assert_state_parity(f_addr, r_addr, "after rejoin");

    let _ = handle2.graceful_shutdown().expect("drain rejoined node");
    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain new primary");
}

/// A promoted follower is a full primary: its writes go through the group
/// committer like any other primary's, so a concurrent burst shares WAL
/// fsyncs instead of paying one per request.
#[test]
fn promoted_follower_group_commits_a_concurrent_burst() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair(
        "promote-burst",
        &config,
        &corpus,
        4,
        |_| {},
        |follower| {
            follower.workers = 8;
            follower.linger = Duration::from_millis(200);
        },
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    pair.primary.abort();
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");

    let burst: Vec<_> = pair.held_out[1..]
        .iter()
        .cloned()
        .map(|body| {
            std::thread::spawn(move || {
                let (status, v) = http(f_addr, "POST", "/documents", Some(&body));
                assert_eq!(status, 200, "burst ingest on the promoted node: {v}");
                assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
            })
        })
        .collect();
    for t in burst {
        t.join().expect("ingest thread");
    }
    wait_epoch(f_addr, 4);

    let (_, metrics) = get(f_addr, "/metrics");
    let gc = &metrics["wal"]["group_commit"];
    assert!(gc["batches"].as_u64() > Some(0), "committer ran: {gc}");
    assert!(
        gc["fsyncs_saved"].as_u64() > Some(0),
        "the burst shared at least one fsync: {gc}"
    );

    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain promoted node");
}

/// Fencing: after a promotion the deposed primary is still alive and still
/// thinks it leads. The first peer that talks to it with the newer term
/// fences it — it stops taking writes and says so on `/readyz`.
#[test]
fn stale_primary_is_fenced_by_a_newer_term() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("fence", &config, &corpus, 2, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);

    // Promote the follower while the old primary is still running.
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");
    assert_eq!(v["term"].as_u64(), Some(1));

    // The old primary still accepts writes — nobody has told it yet.
    let (status, _) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "unfenced stale primary still acks writes");

    // A peer carrying term 1 shows up on its replication endpoint: the
    // stale primary (still at term 0) must refuse the stream AND fence
    // itself.
    let (status, raw) = http_raw(p_addr, "GET", "/wal?from=0&term=1", None);
    assert_eq!(status, 409, "stale-term stream refused: {raw}");
    assert!(
        raw.contains("stale term"),
        "409 names the stale term: {raw}"
    );
    assert!(
        raw.contains("X-DD-Term: 1"),
        "409 carries the newer term: {raw}"
    );

    // Fenced: writes are refused with the fencing story, /readyz routes
    // traffic away, /healthz stays alive for diagnosis.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 503, "fenced primary refuses writes: {v}");
    assert!(
        v["error"].as_str().unwrap_or("").contains("fenced"),
        "503 explains the fence: {v}"
    );
    let (status, v) = get(p_addr, "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("fenced"), "readyz verdict: {v}");
    assert!(
        v["detail"].as_str().unwrap_or("").contains("--follow"),
        "readyz tells the operator how to rejoin: {v}"
    );
    let (status, _) = get(p_addr, "/healthz");
    assert_eq!(status, 200, "fenced node is still alive for reads");

    pair.primary.abort();
    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain new primary");
}

/// Checkpoint resync: a follower that comes back after the primary
/// compacted its resume point away gets `410 Gone` — and instead of dying
/// it fetches the primary's checkpoint bundle over `GET /checkpoint`,
/// installs it (hash-verified), and resumes tailing from the bundle's
/// recorded offset.
#[test]
fn follower_resyncs_from_checkpoint_bundle_after_410() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    // Aggressive compaction on the primary: every checkpointed record is
    // trimmed (retain 0), segments seal after every record, the flusher
    // runs constantly.
    let pair = spawn_pair(
        "resync",
        &config,
        &corpus,
        3,
        |cfg| {
            cfg.wal_retain = 0;
            cfg.wal_segment_bytes = 1;
            cfg.flush_interval = Duration::from_millis(50);
        },
        |_| {},
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A replicates; then the follower dies hard at offset 1.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    pair.follower.abort();

    // Docs B and C land on the primary; wait until compaction has trimmed
    // the log past the dead follower's resume point (base_seq > 1).
    for body in &pair.held_out[1..] {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST on primary: {v}");
    }
    wait_for("primary compaction past seq 1", || {
        let (_, m) = get(p_addr, "/metrics");
        m["wal"]["stream"]["base_seq"].as_u64().unwrap_or(0) > 1
    });

    // Restart the follower over its stale WAL. Its tailer asks for seq 1,
    // gets 410, and must resync from the primary's checkpoint bundle
    // rather than report a fatal error.
    let dd2 = restored_dd(config, pair.partial.clone(), &pair.f_ckpt);
    let handle2 = Server::new(dd2, &pair.follower_cfg)
        .expect("rebind follower")
        .start()
        .expect("restart follower");
    let f_addr2 = handle2.addr();
    wait_for("checkpoint resync", || {
        replication_metrics(f_addr2)["resyncs"]
            .as_u64()
            .unwrap_or(0)
            >= 1
    });
    wait_ready(f_addr2);

    // The resynced follower holds the primary's exact state: equal offset
    // and identical served rows (epochs differ — the resync re-based its
    // epoch counter — and marginal bits differ after a checkpoint restore,
    // so convergence is asserted set-wise).
    let p_off = replication_metrics(p_addr);
    wait_for("offset parity after resync", || {
        replication_metrics(f_addr2)["wal_offset"] == p_off["wal_offset"]
    });
    assert_state_parity(p_addr, f_addr2, "after resync");
    assert!(
        replication_metrics(f_addr2)["diverged"] == json!(false),
        "a resync is not a divergence"
    );

    // Replication still works on top of the resynced state.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc D: {v}");
    wait_for("doc D replicated", || {
        replication_metrics(f_addr2)["wal_offset"].as_u64()
            == replication_metrics(p_addr)["wal_offset"].as_u64()
    });
    assert_state_parity(p_addr, f_addr2, "after doc D");

    let _ = handle2.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// Anti-entropy scrub on a primary: a corrupted checkpoint artifact is
/// found by re-hashing, quarantined, and repaired by a full rewrite from
/// the live state; a corrupted WAL frame is found by re-reading every
/// segment and repaired by checkpointing the applied state and rewriting
/// the log clean. The scrub books appear in `/metrics` and `report.json`.
#[test]
fn scrub_quarantines_and_repairs_corrupt_artifacts() {
    let (handle, wal_dir, ckpt_dir, body) = spawn_single("scrub", Arc::new(FaultInjector::new()));
    let addr = handle.addr();
    let state = handle.state();

    // A clean pass finds nothing.
    state.scrub_now();
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m["scrub"]["runs"].as_u64(), Some(1), "scrub ran: {m}");
    assert_eq!(m["scrub"]["corrupt_found"].as_u64(), Some(0));

    // Rot a checkpoint artifact on disk. The scrub must catch the hash
    // mismatch, quarantine the artifact, and rewrite the chain.
    let victim = ckpt_dir.join("db.ckpt");
    let mut rotted = std::fs::read(&victim).expect("read db.ckpt");
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x01;
    std::fs::write(&victim, &rotted).expect("rot db.ckpt");
    state.scrub_now();
    assert!(
        ckpt_dir.join("db.ckpt.quarantine").exists(),
        "rotted artifact was quarantined"
    );
    Checkpoint::new(ckpt_dir.clone())
        .and_then(|c| c.verify().map(|_| ()))
        .expect("checkpoint verifies clean after repair");

    // Rot one byte of a WAL frame. First make sure a record is on the log.
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200, "POST doc: {v}");
    let seg = std::fs::read_dir(&wal_dir)
        .expect("read wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("a WAL segment exists");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    assert!(bytes.len() > 64, "segment holds a frame");
    let last = bytes.len() - 8;
    bytes[last] ^= 0x01;
    std::fs::write(&seg, &bytes).expect("rot segment");
    state.scrub_now();

    let (_, m) = get(addr, "/metrics");
    assert_eq!(m["scrub"]["runs"].as_u64(), Some(3), "three passes: {m}");
    assert_eq!(
        m["scrub"]["corrupt_found"].as_u64(),
        Some(2),
        "both corruptions found: {m}"
    );
    assert_eq!(
        m["scrub"]["repaired"].as_u64(),
        Some(2),
        "both corruptions repaired: {m}"
    );

    // Repaired means *usable*: the node is still ready, still accepts
    // writes, and a fresh scrub pass is clean.
    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 200, "repaired node is ready: {v}");
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200, "repaired node accepts writes: {v}");
    state.scrub_now();
    let (_, m) = get(addr, "/metrics");
    assert_eq!(
        m["scrub"]["corrupt_found"].as_u64(),
        Some(2),
        "the post-repair pass found nothing new: {m}"
    );

    let _ = handle.graceful_shutdown().expect("drain");
    let report: Json = serde_json::from_str(
        &std::fs::read_to_string(wal_dir.join("report.json")).expect("report.json"),
    )
    .expect("report parses");
    assert_eq!(report["scrub"]["corrupt_found"].as_u64(), Some(2));
    assert_eq!(report["scrub"]["repaired"].as_u64(), Some(2));
}

/// A follower whose checkpoint rots repairs itself from its *peer*: the
/// scrub quarantines the artifact and resyncs from the primary's bundle.
#[test]
fn follower_scrub_repairs_from_the_primary() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("fscrub", &config, &corpus, 1, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);

    let victim = pair.f_ckpt.join("weights.ckpt");
    let mut rotted = std::fs::read(&victim).expect("read weights.ckpt");
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x01;
    std::fs::write(&victim, &rotted).expect("rot weights.ckpt");

    pair.follower.state().scrub_now();
    let (_, m) = get(f_addr, "/metrics");
    assert_eq!(m["scrub"]["corrupt_found"].as_u64(), Some(1), "found: {m}");
    assert_eq!(m["scrub"]["repaired"].as_u64(), Some(1), "repaired: {m}");
    assert!(
        pair.f_ckpt.join("weights.ckpt.quarantine").exists(),
        "rotted artifact was quarantined"
    );
    assert_eq!(
        m["replication"]["resyncs"].as_u64(),
        Some(1),
        "peer repair is a checkpoint resync: {m}"
    );
    Checkpoint::new(pair.f_ckpt.clone())
        .and_then(|c| c.verify().map(|_| ()))
        .expect("follower checkpoint verifies clean after peer repair");
    wait_ready(f_addr);
    assert_state_parity(p_addr, f_addr, "after peer repair");

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// Dead disk: an `ENOSPC` during a WAL append refuses the ingest with the
/// failing path in the message, latches the node into the `storage_failed`
/// degraded state (reads fine, writes 503), and stops the serve loop so
/// the CLI can exit 8.
#[test]
fn enospc_during_wal_append_degrades_to_storage_failed() {
    let faults = Arc::new(FaultInjector::new());
    let (handle, _wal_dir, _ckpt_dir, body) = spawn_single("enospc", Arc::clone(&faults));
    let addr = handle.addr();
    let state = handle.state();

    faults.arm(points::DISK_ENOSPC, 1);
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 500, "ENOSPC refuses the ingest: {v}");
    let err = v["error"].as_str().unwrap_or("");
    assert!(err.contains("os error 28"), "names the errno: {v}");
    assert!(err.contains("seg-"), "names the failing segment path: {v}");

    // The failure latches: this node no longer trusts its disk.
    let fatal = state
        .storage_fatal_error()
        .expect("storage failure latched");
    assert!(
        fatal.contains("WAL"),
        "latched error names the write: {fatal}"
    );
    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("storage_failed"), "readyz verdict: {v}");
    assert!(
        v["detail"].as_str().unwrap_or("").contains("os error 28"),
        "readyz carries the detail: {v}"
    );
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 503, "subsequent writes refused: {v}");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "reads survive a dead disk");

    handle.abort();
}
