//! End-to-end daemon tests over a real spouse pipeline: snapshot
//! consistency under concurrent reads and writes, and batch/incremental
//! parity for derived relations, and the accept loop's latency and
//! shutdown wake-up.

mod common;

use common::{
    batch_relation, get, http, http_raw, ingest_body, served_relation, spouse_app_config,
};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_serve::{ServeConfig, Server, ServerHandle};
use deepdive_storage::BaseChange;
use serde_json::Value as Json;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn app_config() -> SpouseAppConfig {
    spouse_app_config(16, 12)
}

/// Readers hammering `/marginals` during concurrent `/documents` posts must
/// only ever observe complete epochs: a given epoch always serves the same
/// fingerprint (and the same totals), never a mixture of pre- and
/// post-update state.
#[test]
fn concurrent_readers_never_see_torn_snapshots() {
    let mut app = SpouseApp::build(app_config()).expect("build spouse app");
    app.run().expect("batch run");

    // Three extra documents to ingest while readers are active.
    let extra_docs = [
        "Alice Young and her husband Bob Young toured the museum.",
        "Carol King and her husband David King hosted a dinner.",
        "Erin Stone and her husband Frank Stone sailed north.",
    ];
    let batches: Vec<Vec<BaseChange>> = extra_docs
        .iter()
        .map(|text| app.document_changes(text))
        .collect();
    assert!(batches.iter().all(|b| !b.is_empty()));

    let serve_config = ServeConfig {
        page_limit: 100_000,
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    let (status, before) = get(addr, "/marginals/MarriedMentions");
    assert_eq!(status, 200, "{before}");
    let initial_total = before.get("total").and_then(Json::as_u64).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                // epoch -> set of (fingerprint, total) observed under it.
                let mut seen: HashMap<u64, BTreeSet<(String, u64)>> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let (status, v) = get(addr, "/marginals/MarriedMentions?limit=100000");
                    assert_eq!(status, 200, "{v}");
                    let epoch = v.get("epoch").and_then(Json::as_u64).unwrap();
                    let fp = v
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string();
                    let total = v.get("total").and_then(Json::as_u64).unwrap();
                    seen.entry(epoch).or_default().insert((fp, total));
                }
                seen
            })
        })
        .collect();

    let num_batches = batches.len() as u64;
    for batch in &batches {
        let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(batch)));
        assert_eq!(status, 200, "POST /documents: {v}");
    }
    stop.store(true, Ordering::Relaxed);

    let mut observed: HashMap<u64, BTreeSet<(String, u64)>> = HashMap::new();
    for r in readers {
        for (epoch, states) in r.join().expect("reader thread") {
            observed.entry(epoch).or_default().extend(states);
        }
    }
    for (epoch, states) in &observed {
        assert_eq!(
            states.len(),
            1,
            "epoch {epoch} served {} distinct states — torn snapshot: {states:?}",
            states.len()
        );
    }
    assert!(
        observed.keys().all(|&e| e <= num_batches),
        "epochs beyond the posted batches: {:?}",
        observed.keys().collect::<Vec<_>>()
    );

    let (status, after) = get(addr, "/marginals/MarriedMentions");
    assert_eq!(status, 200);
    assert_eq!(
        after.get("epoch").and_then(Json::as_u64),
        Some(num_batches),
        "every ingest bumped the epoch"
    );
    let final_total = after.get("total").and_then(Json::as_u64).unwrap();
    assert!(
        final_total > initial_total,
        "ingested documents grew the marginal count ({initial_total} -> {final_total})"
    );

    handle.shutdown();
}

/// Incrementally ingesting a held-out document through `POST /documents`
/// must leave the derived relations exactly where a full batch run over the
/// complete corpus puts them (§4.1: DRed delta rules compute the same
/// fixpoint as re-running from scratch).
#[test]
fn incremental_ingest_matches_full_batch_derived_relations() {
    let config = app_config();
    let full_corpus = deepdive_corpus::spouse::generate(&config.corpus);

    // Full batch: every document, one run.
    let mut batch_app =
        SpouseApp::build_with_corpus(config.clone(), full_corpus.clone()).expect("batch app");
    batch_app.run().expect("batch run");

    // Incremental: hold out the last document, run, then ingest it live.
    let mut partial_corpus = full_corpus.clone();
    let held_out = partial_corpus.documents.pop().expect("at least one doc");
    let mut inc_app =
        SpouseApp::build_with_corpus(config, partial_corpus).expect("incremental app");
    inc_app.run().expect("incremental base run");
    let changes = inc_app.document_changes(&held_out.text);
    assert!(!changes.is_empty(), "held-out document produced no rows");

    let serve_config = ServeConfig {
        page_limit: 100_000,
        ..Default::default()
    };
    let server = Server::new(inc_app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(&changes)));
    assert_eq!(status, 200, "POST /documents: {v}");
    assert!(v.get("delta").and_then(|d| d.get("total")).is_some());

    // Derived relations reached through DRed/IVM must match the batch run's.
    for relation in ["MarriedCandidate", "MarriedMentions_Ev"] {
        let served = served_relation(addr, relation);
        let batch = batch_relation(&batch_app.dd, relation);
        assert_eq!(
            served, batch,
            "derived relation {relation} diverged between incremental and batch"
        );
    }

    handle.shutdown();
}

/// `/relations/{name}?col=value` filters parse the value once into a typed
/// predicate; results must be exactly what the old per-row TSV-rendering
/// comparison produced, including the match-nothing cases.
#[test]
fn typed_relation_filters_match_rendered_scan() {
    let mut app = SpouseApp::build(app_config()).expect("build spouse app");
    app.run().expect("batch run");

    let serve_config = ServeConfig {
        page_limit: 100_000,
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Full Mention relation as the oracle.
    let (status, all) = get(addr, "/relations/Mention?limit=100000");
    assert_eq!(status, 200, "{all}");
    let rows = all.get("rows").and_then(Json::as_array).expect("rows");
    assert!(!rows.is_empty(), "spouse corpus always yields mentions");

    // Pick a sentence id that appears in the data and filter on it — the
    // leading column, so this also exercises the binary-search range path.
    let probe_s = rows[0].get("s").and_then(Json::as_u64).expect("s cell");
    let expect: BTreeSet<String> = rows
        .iter()
        .filter(|r| r.get("s").and_then(Json::as_u64) == Some(probe_s))
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let (status, filtered) = get(
        addr,
        &format!("/relations/Mention?s={probe_s}&limit=100000"),
    );
    assert_eq!(status, 200, "{filtered}");
    let got: BTreeSet<String> = filtered
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows")
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(got, expect, "leading-column id filter diverged from scan");
    assert_eq!(
        filtered.get("total").and_then(Json::as_u64),
        Some(expect.len() as u64)
    );

    // Non-leading column, and a text column combined with it.
    let probe_m = rows[0].get("m").and_then(Json::as_u64).expect("m cell");
    let probe_t = rows[0].get("mtext").and_then(Json::as_str).expect("mtext");
    let encoded_t = probe_t.replace(' ', "+");
    let (status, one) = get(
        addr,
        &format!("/relations/Mention?m={probe_m}&mtext={encoded_t}&limit=100000"),
    );
    assert_eq!(status, 200, "{one}");
    let got = one.get("rows").and_then(Json::as_array).expect("rows");
    let expect_both: Vec<&Json> = rows
        .iter()
        .filter(|r| {
            r.get("m").and_then(Json::as_u64) == Some(probe_m)
                && r.get("mtext").and_then(Json::as_str) == Some(probe_t)
        })
        .collect();
    assert_eq!(got.len(), expect_both.len(), "combined filter diverged");

    // Non-canonical renderings and unparseable input match nothing (the old
    // string comparison never matched them either) — 200 with zero rows.
    for bad in [format!("0{probe_s}"), "abc".into(), format!("+{probe_s}")] {
        let (status, v) = get(addr, &format!("/relations/Mention?s={bad}"));
        assert_eq!(status, 200, "{v}");
        assert_eq!(
            v.get("total").and_then(Json::as_u64),
            Some(0),
            "`?s={bad}` must match nothing"
        );
    }

    // Unknown columns are still a 400.
    let (status, _) = get(addr, "/relations/Mention?nope=1");
    assert_eq!(status, 400);

    handle.shutdown();
}

/// A started server over a small batch-run spouse KB, bound to `addr`.
fn start_at(addr: &str) -> ServerHandle {
    let mut app = SpouseApp::build(app_config()).expect("build spouse app");
    app.run().expect("batch run");
    let serve_config = ServeConfig {
        addr: addr.into(),
        ..Default::default()
    };
    let server = Server::new(app.dd, &serve_config).expect("bind server");
    server.start().expect("start server")
}

/// Connection-per-request round trips are not gated by an accept poll:
/// the accept thread blocks in `accept(2)`, so a `GET /healthz` costs the
/// handler plus loopback, well under a millisecond or two. (A 5 ms poll
/// would put the median near 5 ms.) The median, not the max, so a host
/// stall cannot flip the test.
#[test]
fn sequential_requests_are_not_gated_by_an_accept_poll() {
    let handle = start_at("127.0.0.1:0");
    let addr = handle.addr();
    let (status, _) = http_raw(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let (status, _) = http_raw(addr, "GET", "/healthz", None);
            assert_eq!(status, 200);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median /healthz round trip {median:?} (sorted: {rtts:?})"
    );
    handle.shutdown();
}

/// An idle server — no request ever sent, the accept thread parked in
/// `accept(2)` — stops promptly on both the crash and the graceful path,
/// on a loopback bind and on a wildcard bind (woken over loopback). The
/// wake-up connection is never admitted or shed.
#[test]
fn idle_server_stops_within_a_second() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = start_at(bind);
        let t0 = Instant::now();
        handle.abort();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "abort on {bind} took {:?}",
            t0.elapsed()
        );

        let handle = start_at(bind);
        let state = handle.state();
        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "graceful shutdown on {bind} took {:?}",
            t0.elapsed()
        );
        assert_eq!(
            state.metrics.shed_total(),
            0,
            "the shutdown wake-up on {bind} was counted as a shed connection"
        );
        assert_eq!(state.queue_depth(), 0, "the wake-up was admitted on {bind}");
    }
}
