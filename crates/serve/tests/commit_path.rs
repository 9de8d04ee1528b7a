//! The one commit path: every configuration acks through the committer with
//! the same fields and isolates a bad batch-mate; the same records applied
//! live, by restart replay, and by a tailing follower land on the same
//! bits; and replay skips an unappliable record on a primary but treats it
//! as divergence on a follower.

mod common;

use common::{
    free_port, get, http, marginal_rows, read_report, served_relation, spouse_app_config, tmpdir,
    wait_epoch, wait_for, wait_ready,
};
use deepdive_core::apps::SpouseApp;
use deepdive_core::{Checkpoint, DeepDive, FaultInjector, RunConfig};
use deepdive_inference::RefreshBudget;
use deepdive_serve::{ServeConfig, Server, Wal};
use deepdive_storage::Value;
use serde_json::{json, Value as Json};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `Out` is derived through a UDF that panics on `y == 666`: under the
/// default `Fail` policy DRed/IVM refuses that record, which is how a test
/// gets a record that validates but cannot apply.
const CHECKED_PROGRAM: &str = "
    R(x int, y int).
    Out(x int, z int).
    Out(x, z) :- R(x, y), z = check(y).
";

fn checked_app() -> DeepDive {
    DeepDive::builder(CHECKED_PROGRAM)
        .udf("check", |args: &[Value]| match args {
            [Value::Int(666)] => panic!("check: poisoned input"),
            [v] => vec![v.clone()],
            _ => vec![],
        })
        .config(RunConfig {
            threads: 1,
            ..Default::default()
        })
        .build()
        .expect("compile checked program")
}

fn r_row(x: i64, y: i64) -> Json {
    json!({ "rows": json!({ "R": json!([json!([x, y])]) }) })
}

/// WAL on or off, lingering or not, a write is gated by the handler and
/// committed by the committer: the ack carries the same fields, a record
/// that fails validation (400) or apply (500) never fails its neighbours,
/// and neither leaves a trace in the log.
#[test]
fn every_configuration_commits_through_the_committer() {
    let cases = [
        ("no-wal", false, Duration::from_millis(2)),
        ("no-wal-no-linger", false, Duration::ZERO),
        ("no-linger", true, Duration::ZERO),
        ("long-linger", true, Duration::from_millis(200)),
    ];
    for (name, with_wal, linger) in cases {
        let wal_dir = with_wal.then(|| tmpdir(&format!("commit-{name}")));
        let config = ServeConfig {
            workers: 8,
            wal_dir: wal_dir.clone(),
            linger,
            ..Default::default()
        };
        let handle = Server::new(checked_app(), &config)
            .expect("bind server")
            .start()
            .expect("start server");
        let addr = handle.addr();
        wait_ready(addr);

        let bodies = [
            (r_row(1, 10), 200),
            (r_row(2, 20), 200),
            (
                json!({ "rows": json!({ "Nope": json!([json!([1])]) }) }),
                400,
            ),
            (r_row(3, 666), 500),
            (r_row(4, 40), 200),
        ];
        let burst: Vec<_> = bodies
            .into_iter()
            .map(|(body, expect)| {
                std::thread::spawn(move || {
                    let (status, v) = http(addr, "POST", "/documents", Some(&body));
                    assert_eq!(status, expect, "{name}: POST {body}: {v}");
                    v
                })
            })
            .collect();
        let replies: Vec<Json> = burst
            .into_iter()
            .map(|t| t.join().expect("ingest thread"))
            .collect();

        for ack in [&replies[0], &replies[1], &replies[4]] {
            assert_eq!(ack["durable"], json!(with_wal), "{name}: {ack}");
            assert_eq!(ack["inserted"].as_u64(), Some(1), "{name}: {ack}");
            for key in [
                "epoch",
                "fingerprint",
                "wal_records",
                "wal_bytes",
                "refresh_samples",
            ] {
                assert!(ack.get(key).is_some(), "{name}: ack lacks `{key}`: {ack}");
            }
            for key in [
                "added_variables",
                "removed_variables",
                "added_factors",
                "removed_factors",
                "evidence_changes",
                "total",
            ] {
                assert!(
                    ack["delta"].get(key).is_some(),
                    "{name}: ack delta lacks `{key}`: {ack}"
                );
            }
        }
        assert!(
            replies[3]["error"]
                .as_str()
                .is_some_and(|e| e.starts_with("ingest not applied")),
            "{name}: {}",
            replies[3]
        );

        let (_, health) = get(addr, "/healthz");
        assert_eq!(
            health["epoch"].as_u64(),
            Some(3),
            "{name}: one epoch per applied doc"
        );
        let (_, metrics) = get(addr, "/metrics");
        let gc = &metrics["wal"]["group_commit"];
        if !with_wal {
            assert_eq!(
                gc["batches"].as_u64(),
                Some(0),
                "{name}: no WAL, no fsyncs: {gc}"
            );
        } else if linger.is_zero() {
            assert_eq!(
                gc["avg_batch"].as_f64(),
                Some(1.0),
                "{name}: batch of one: {gc}"
            );
            assert_eq!(gc["fsyncs_saved"].as_u64(), Some(0), "{name}: {gc}");
        }

        handle.abort();
        if let Some(dir) = wal_dir {
            let (_, recovery) =
                Wal::open(&dir, Arc::new(FaultInjector::new())).expect("reopen the WAL");
            assert_eq!(
                recovery.records.len(),
                3,
                "{name}: only the acked records are in the log"
            );
            assert!(
                recovery
                    .records
                    .iter()
                    .all(|r| !String::from_utf8_lossy(r).contains("666")),
                "{name}: the refused record was rolled back off the log"
            );
        }
    }
}

/// Restore a node from the shared seed checkpoint and serve it with a fixed
/// refresh budget (so the sample count does not depend on how records were
/// batched) and no background flush (so a crash leaves every record in the
/// WAL).
fn restored_node(
    seed: &Path,
    tag: &str,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (Server, ServeConfig) {
    let mut app = SpouseApp::build(spouse_app_config(8, 8)).expect("app");
    app.dd
        .load_checkpoint(&Checkpoint::new(seed.to_path_buf()).expect("seed checkpoint"))
        .expect("restore seed checkpoint");
    let mut config = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(tmpdir(&format!("{tag}-wal"))),
        refresh: RefreshBudget {
            min_samples: 300,
            max_samples: 300,
            samples_per_change: 0,
        },
        flush_interval: Duration::ZERO,
        ..Default::default()
    };
    tweak(&mut config);
    (Server::new(app.dd, &config).expect("bind node"), config)
}

/// What a node serves, down to the bits: fingerprint plus sorted dumps.
fn served_state(addr: SocketAddr) -> (Json, Vec<BTreeSet<String>>) {
    let (_, health) = get(addr, "/healthz");
    (
        health["fingerprint"].clone(),
        vec![
            served_relation(addr, "MarriedCandidate"),
            served_relation(addr, "MarriedMentions_Ev"),
            marginal_rows(addr, "MarriedMentions"),
        ],
    )
}

/// One payload list, three ways in — posted live, tailed by a follower,
/// replayed from the WAL after `kill -9` — one resulting state. All three
/// nodes start from the same checkpoint bytes, so parity is exact.
#[test]
fn live_replay_and_follower_apply_records_identically() {
    let mut seed_app = SpouseApp::build(spouse_app_config(8, 8)).expect("seed app");
    seed_app.run().expect("seed run");
    let seed = tmpdir("parity-seed");
    seed_app
        .dd
        .save_checkpoint(&Checkpoint::new(seed.clone()).expect("seed checkpoint"))
        .expect("save seed checkpoint");
    let docs = [
        "Alice Young and her husband Bob Young toured the museum.",
        "Carol King and her husband David King hosted a dinner.",
        "Erin Stone and her husband Frank Stone sailed north.",
    ]
    .map(|text| common::ingest_body(&seed_app.document_changes(text)));

    let cases: [(&str, &[usize]); 3] = [
        ("single", &[0]),
        ("sequence", &[0, 1, 2]),
        ("duplicate", &[0, 1, 0]),
    ];
    for (name, order) in cases {
        let port = free_port();
        let (primary, primary_cfg) = restored_node(&seed, &format!("parity-{name}-p"), |c| {
            c.addr = format!("127.0.0.1:{port}");
        });
        let primary = primary.start().expect("start primary");
        let p_addr = primary.addr();
        wait_ready(p_addr);
        let (follower, _) = restored_node(&seed, &format!("parity-{name}-f"), |c| {
            c.follow = Some(format!("http://{p_addr}"));
        });
        let follower = follower.start().expect("start follower");
        let f_addr = follower.addr();

        for &i in order {
            let (status, v) = http(p_addr, "POST", "/documents", Some(&docs[i]));
            assert_eq!(status, 200, "{name}: POST doc {i}: {v}");
        }
        let epoch = order.len() as u64;
        wait_epoch(f_addr, epoch);
        let live = served_state(p_addr);
        assert_eq!(served_state(f_addr), live, "{name}: follower vs live");

        primary.abort();
        let (replayed, _) = restored_node(&seed, "parity-unused", |c| {
            c.wal_dir = primary_cfg.wal_dir.clone();
        });
        assert_eq!(replayed.pending_replay(), order.len(), "{name}");
        let replayed = replayed.start().expect("restart primary");
        wait_ready(replayed.addr());
        let (_, health) = get(replayed.addr(), "/healthz");
        assert_eq!(
            health["epoch"].as_u64(),
            Some(epoch),
            "{name}: replayed epoch"
        );
        assert_eq!(
            served_state(replayed.addr()),
            live,
            "{name}: replay vs live"
        );

        replayed.shutdown();
        follower.shutdown();
    }
}

/// Records in a WAL at startup that cannot apply: a primary warns, skips
/// them and serves the rest (an operator may have injected them); a
/// follower's log holds only what its primary applied, so there the same
/// records are a fork and the node reports fatal divergence.
#[test]
fn replay_skips_bad_records_on_a_primary_and_is_fatal_on_a_follower() {
    for follower in [false, true] {
        let wal_dir = tmpdir(&format!("replay-skip-{follower}"));
        {
            let (mut wal, _) =
                Wal::open(&wal_dir, Arc::new(FaultInjector::new())).expect("seed the WAL");
            for body in [
                r_row(1, 10).to_string(),
                "not json".to_string(),
                r_row(2, 666).to_string(),
                r_row(3, 30).to_string(),
            ] {
                wal.append(body.as_bytes()).expect("append");
            }
        }
        let config = ServeConfig {
            wal_dir: Some(wal_dir.clone()),
            // Nothing listens there: the tailer just keeps retrying.
            follow: follower.then(|| format!("http://127.0.0.1:{}", free_port())),
            ..Default::default()
        };
        let server = Server::new(checked_app(), &config).expect("bind server");
        assert_eq!(server.pending_replay(), 4);
        let state = server.state();
        let handle = server.start().expect("start server");
        let addr = handle.addr();
        wait_for("replay to finish", || {
            state.lifecycle() == deepdive_serve::Lifecycle::Ready
        });

        let (_, health) = get(addr, "/healthz");
        assert_eq!(
            health["epoch"].as_u64(),
            Some(2),
            "two of four records applied"
        );
        let report = read_report(&wal_dir);
        assert_eq!(
            report["wal"]["records_replayed"].as_u64(),
            Some(2),
            "{report}"
        );
        assert_eq!(
            report["wal"]["records_skipped"].as_u64(),
            Some(2),
            "{report}"
        );
        let fatal = state.replication().fatal_error();
        if follower {
            assert!(
                fatal
                    .as_deref()
                    .is_some_and(|e| e.contains("failed to re-apply")),
                "a follower must call skipped records divergence: {fatal:?}"
            );
            let (status, ready) = get(addr, "/readyz");
            assert_eq!(status, 503, "{ready}");
            assert_eq!(ready["status"], json!("diverged"), "{ready}");
        } else {
            assert_eq!(fatal, None, "a primary only warns");
            assert_eq!(get(addr, "/readyz").0, 200);
        }
        handle.abort();
    }
}
