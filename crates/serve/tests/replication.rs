//! Failover-grade chaos tests for WAL-shipping replication: a follower
//! tails a primary to bit-identical marginals, survives `kill -9` of
//! either node mid-stream, refuses divergent histories, and fails
//! `/readyz` while its lag exceeds the bound.
//!
//! Crashes are simulated in-process with [`ServerHandle::abort`] — no
//! drain, no checkpoint flush, no WAL truncation, exactly the disk state
//! `kill -9` leaves. The CI replication-smoke job runs a primary/follower
//! pair against the real binary with real signals.

mod common;

use common::{
    batch_relation, free_port, get, http, marginal_rows, read_report, replication_metrics,
    restored_dd, served_relation, spouse_app_config, tmpdir, wait_epoch, wait_ready, Pair,
};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::FaultInjector;
use deepdive_corpus::spouse::SpouseCorpus;
use deepdive_serve::{ServeConfig, Server, Wal};
use serde_json::{json, Value as Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn app_config() -> SpouseAppConfig {
    spouse_app_config(16, 12)
}

/// A smaller pipeline for tests that need a served pair, not batch parity.
fn tiny_config() -> SpouseAppConfig {
    spouse_app_config(8, 8)
}

/// [`common::spawn_pair`] with the primary on a reserved port (so a
/// "restarted" primary can come back at the address its follower holds)
/// and per-node fault injectors.
fn spawn_pair(
    tag: &str,
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    hold_out: usize,
    max_lag_epochs: u64,
    primary_faults: Arc<FaultInjector>,
    follower_faults: Arc<FaultInjector>,
) -> Pair {
    common::spawn_pair(
        tag,
        config,
        corpus,
        hold_out,
        |primary| {
            primary.addr = format!("127.0.0.1:{}", free_port());
            primary.faults = primary_faults;
        },
        |follower| {
            follower.max_lag_epochs = max_lag_epochs;
            follower.faults = follower_faults;
        },
    )
}

/// The happy tentpole path: a follower tails the primary live and, once
/// caught up, serves the *same bits* — equal epoch, equal content
/// fingerprint, byte-identical `/marginals` — because one WAL record is
/// one epoch and both sides refresh with identical budgets.
#[test]
fn follower_tails_primary_to_bit_identical_marginals() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair(
        "tail",
        &config,
        &corpus,
        2,
        16,
        Arc::new(FaultInjector::new()),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Writes land on the primary only; the follower is read-only.
    let (status, v) = http(f_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 405, "follower must reject writes: {v}");
    assert!(
        v["error"].as_str().unwrap_or("").contains("replica"),
        "405 names the replica role: {v}"
    );

    for body in &pair.held_out {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST /documents on primary: {v}");
        assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
    }
    let epochs = pair.held_out.len() as u64;
    wait_epoch(f_addr, epochs);

    // Bit-identical once caught up: same epoch, same fingerprint, same
    // marginals response byte for byte.
    let (_, p_health) = get(p_addr, "/healthz");
    let (_, f_health) = get(f_addr, "/healthz");
    assert_eq!(p_health.get("epoch"), f_health.get("epoch"), "epoch parity");
    assert_eq!(
        p_health.get("fingerprint"),
        f_health.get("fingerprint"),
        "content fingerprint parity: primary {p_health}, follower {f_health}"
    );
    let (p_status, p_marginals) = get(p_addr, "/marginals/MarriedMentions?limit=100000");
    let (f_status, f_marginals) = get(f_addr, "/marginals/MarriedMentions?limit=100000");
    assert_eq!(
        (p_status, f_status),
        (200, 200),
        "marginals served: {p_marginals}"
    );
    assert_eq!(p_marginals, f_marginals, "marginals are bit-identical");

    // The replication books are served from /metrics on both sides.
    let f_repl = replication_metrics(f_addr);
    assert_eq!(f_repl["role"], json!("follower"));
    assert_eq!(f_repl["lag_epochs"].as_u64(), Some(0));
    assert_eq!(f_repl["wal_offset"].as_u64(), Some(epochs));
    assert_eq!(f_repl["records_applied"].as_u64(), Some(epochs));
    assert_eq!(f_repl["handshook"], json!(true));
    assert_eq!(f_repl["diverged"], json!(false));
    let p_repl = replication_metrics(p_addr);
    assert_eq!(p_repl["role"], json!("primary"));
    assert!(p_repl["streams_served"].as_u64().unwrap_or(0) >= 1);
    assert!(p_repl["frames_shipped"].as_u64().unwrap_or(0) >= epochs);

    // /readyz carries the replication verdict for load balancers.
    let (status, v) = get(f_addr, "/readyz");
    assert_eq!(status, 200);
    assert_eq!(v["replication"]["lag_epochs"].as_u64(), Some(0));

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
    let report = read_report(&pair.f_wal);
    assert_eq!(report["replication"]["role"], json!("follower"));
    assert_eq!(
        report["replication"]["records_applied"].as_u64(),
        Some(epochs)
    );
    let p_report = read_report(&pair.p_wal);
    assert_eq!(p_report["replication"]["role"], json!("primary"));
    assert!(
        p_report["replication"]["streams_served"]
            .as_u64()
            .unwrap_or(0)
            >= 1
    );
}

/// `kill -9` the primary mid-stream — with a fault that tears the stream
/// mid-frame first — restart it from its own checkpoint + WAL, and the
/// follower must reconnect on its own and converge to parity with a clean
/// single-node batch run over the full corpus.
#[test]
fn primary_crash_mid_stream_follower_reconnects_to_batch_parity() {
    let config = app_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);

    // Parity reference: every document, one clean batch run.
    let mut batch_app =
        SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("batch app");
    batch_app.run().expect("batch run");

    let primary_faults = Arc::new(FaultInjector::new());
    // First shipped batch: send half the bytes, then hang up mid-frame.
    primary_faults.arm(points::REPL_STREAM_CUT, 1);
    let pair = spawn_pair(
        "pcrash",
        &config,
        &corpus,
        2,
        16,
        Arc::clone(&primary_faults),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A's frame is torn on the wire; the follower's decoder must
    // refuse the partial frame, reconnect, and fetch it whole.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    assert_eq!(primary_faults.tripped(), 1, "the stream-cut fault fired");
    let f_repl = replication_metrics(f_addr);
    assert!(
        f_repl["reconnects"].as_u64().unwrap_or(0) >= 1,
        "follower reconnected after the cut: {f_repl}"
    );

    // kill -9 the primary: no drain, no checkpoint flush, no truncation.
    pair.primary.abort();

    // Restart it from its checkpoint + WAL replay, same address.
    let dd2 = restored_dd(config, pair.partial.clone(), &pair.p_ckpt);
    let server2 = Server::new(dd2, &pair.primary_cfg).expect("rebind primary");
    assert_eq!(server2.pending_replay(), 1, "doc A's record is pending");
    let handle2 = server2.start().expect("restart primary");
    assert_eq!(handle2.addr(), p_addr, "primary came back at its address");
    wait_ready(p_addr);

    // The follower finds the restarted primary by itself (backoff +
    // jitter), resumes from its durable offset, and applies doc B.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "POST doc B after restart: {v}");
    wait_epoch(f_addr, 2);

    // Derived relations on the follower equal the clean batch run.
    for relation in ["MarriedCandidate", "MarriedMentions_Ev"] {
        let served = served_relation(f_addr, relation);
        let batch = batch_relation(&batch_app.dd, relation);
        assert_eq!(
            served, batch,
            "follower relation {relation} diverged from the clean batch run"
        );
    }
    // Marginal parity: the follower serves marginals for exactly the
    // variables the restarted primary does (probabilities come from
    // different refresh schedules post-crash, so rows, not bits).
    assert_eq!(
        marginal_rows(f_addr, "MarriedMentions"),
        marginal_rows(p_addr, "MarriedMentions"),
        "marginal variable sets diverged"
    );

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = handle2.graceful_shutdown().expect("drain primary");
}

/// `kill -9` the follower mid-apply (an armed stall widens the window),
/// restart it over its own WAL copy, and it must replay to its durable
/// offset locally — no re-fetch, no duplicate application — then resume
/// tailing where it left off.
#[test]
fn follower_crash_mid_apply_resumes_from_durable_offset() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let follower_faults = Arc::new(FaultInjector::new());
    follower_faults.arm(points::REPL_APPLY_STALL, 1000);
    let pair = spawn_pair(
        "fcrash",
        &config,
        &corpus,
        3,
        16,
        Arc::new(FaultInjector::new()),
        follower_faults,
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    let follower_state = pair.follower.state();
    wait_ready(f_addr);

    // Docs A and B land on the primary; wait until both are *durable* on
    // the follower (appended before applied), then kill it — the armed
    // stall makes the abort land mid-apply.
    for body in &pair.held_out[..2] {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST on primary: {v}");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while follower_state.wal_gauges().0 < 2 {
        assert!(Instant::now() < deadline, "records never reached follower");
        std::thread::sleep(Duration::from_millis(5));
    }
    pair.follower.abort();

    // Restart the follower from its checkpoint + its own WAL copy. Both
    // records are pending locally: the restart needs no primary history.
    let dd2 = restored_dd(config.clone(), pair.partial.clone(), &pair.f_ckpt);
    let server2 = Server::new(dd2, &pair.follower_cfg).expect("rebind follower");
    assert_eq!(
        server2.pending_replay(),
        2,
        "both durable records replay locally, not over the wire"
    );
    let handle2 = server2.start().expect("restart follower");
    let f_addr2 = handle2.addr();
    wait_ready(f_addr2);

    // The replay set the durable offset; nothing was re-fetched.
    let f_repl = replication_metrics(f_addr2);
    assert_eq!(
        f_repl["wal_offset"].as_u64(),
        Some(2),
        "resumed at seq 2: {f_repl}"
    );
    assert_eq!(
        f_repl["records_applied"].as_u64(),
        Some(0),
        "local replay is not wire application: {f_repl}"
    );

    // Doc C streams in on top; no record is applied twice (duplicates
    // would double the served row counts).
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[2]));
    assert_eq!(status, 200, "POST doc C: {v}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let repl = replication_metrics(f_addr2);
        if repl["wal_offset"].as_u64() == Some(3) {
            assert_eq!(
                repl["records_applied"].as_u64(),
                Some(1),
                "only doc C: {repl}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "doc C never applied: {repl}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        served_relation(f_addr2, "MarriedCandidate"),
        served_relation(p_addr, "MarriedCandidate"),
        "post-resume row parity (duplicate application would double counts)"
    );

    let _ = handle2.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// A follower whose WAL belongs to a different history is refused at the
/// handshake (409), marks itself permanently diverged, keeps serving
/// reads, and fails `/readyz` with status "diverged".
#[test]
fn divergent_follower_is_refused_and_reports_fatal() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let f_wal = tmpdir("diverge-foreign-wal");
    {
        // Mint a foreign stream id in the follower's WAL before it starts:
        // a replica seeded from some *other* primary's history.
        let (_wal, _) = Wal::open(&f_wal, Arc::new(FaultInjector::new())).expect("pre-mint wal");
    }

    let pair = spawn_pair(
        "diverge",
        &config,
        &corpus,
        1,
        16,
        Arc::new(FaultInjector::new()),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, _f_addr) = (pair.primary.addr(), pair.follower.addr());
    // The pair's own follower is healthy; the divergent one is a third
    // node pointing at the same primary but carrying the foreign WAL.
    let mut foreign_app =
        SpouseApp::build_with_corpus(config, pair.partial.clone()).expect("divergent follower app");
    foreign_app.run().expect("divergent follower run");
    let foreign_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(f_wal),
        checkpoint_dir: None,
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    let foreign = Server::new(foreign_app.dd, &foreign_cfg)
        .expect("bind divergent follower")
        .start()
        .expect("start divergent follower");
    let state = foreign.state();

    let deadline = Instant::now() + Duration::from_secs(60);
    let fatal = loop {
        if let Some(fatal) = state.replication().fatal_error() {
            break fatal;
        }
        assert!(Instant::now() < deadline, "divergence never became fatal");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        fatal.contains("divergent"),
        "fatal error names divergence: {fatal}"
    );

    // Still alive for reads, but never ready, and says why.
    let (status, v) = get(foreign.addr(), "/healthz");
    assert_eq!(status, 200, "divergent follower keeps serving reads: {v}");
    let (status, v) = get(foreign.addr(), "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("diverged"), "readyz verdict: {v}");
    assert_eq!(v["replication"]["diverged"], json!(true));

    foreign.abort();
    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// With `--max-lag-epochs 0` and a stalled apply path, a follower that is
/// behind fails `/readyz` with status "lagging" — and clears it once
/// caught up. Lag, unlike divergence, is a transient verdict.
#[test]
fn lagging_follower_fails_readyz_until_caught_up() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let follower_faults = Arc::new(FaultInjector::new());
    follower_faults.arm(points::REPL_APPLY_STALL, 1000);
    let pair = spawn_pair(
        "lag",
        &config,
        &corpus,
        1,
        0, // any lag at all fails readiness
        Arc::new(FaultInjector::new()),
        follower_faults,
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Re-posting the same body is a legitimate new record each time (row
    // counts increment), so one held-out doc yields as many epochs as we
    // need to hold the apply path busy.
    let writes = 4u64;
    for _ in 0..writes {
        let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
        assert_eq!(status, 200, "POST on primary: {v}");
    }

    // While the stalled follower works through the backlog, /readyz must
    // report "lagging"; once caught up it must report ready again.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_lagging = false;
    loop {
        let (status, v) = get(f_addr, "/readyz");
        if status == 503 && v["status"] == json!("lagging") {
            assert!(
                v["replication"]["lag_epochs"].as_u64().unwrap_or(0) >= 1,
                "lagging verdict carries the lag: {v}"
            );
            saw_lagging = true;
        }
        let (_, health) = get(f_addr, "/healthz");
        if health.get("epoch").and_then(Json::as_u64) >= Some(writes) {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_lagging, "readyz never reported the lag");
    wait_ready(f_addr); // caught up: lag verdict clears
    let f_repl = replication_metrics(f_addr);
    assert_eq!(
        f_repl["lag_epochs"].as_u64(),
        Some(0),
        "caught up: {f_repl}"
    );

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}
