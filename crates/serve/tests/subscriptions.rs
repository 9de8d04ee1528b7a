//! Live-subscription parity tests: a client that applies every delta frame
//! reconstructs exactly the state `/relations` and `/marginals` serve at
//! each epoch — through DRed retractions, shed/re-base cycles, handler
//! panics, and on a follower applying the primary's WAL.
//!
//! The delta router diffs consecutive snapshots, so parity here is the
//! whole contract: every row the server believes in is announced, every
//! retraction is explicit, and counts match bit-for-bit.

mod common;

use common::{free_port, get, http, ingest_body, spouse_app_config, tmpdir, wait_epoch};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, DeepDive, FaultInjector, RunConfig};
use deepdive_serve::{ServeConfig, Server};
use deepdive_storage::BaseChange;
use serde_json::{json, Map, Value as Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A datalog program whose derived relation *retracts* under ingest: every
/// `Excl(x)` insert DReds away previously-derived `Out(x, y)` rows. POST
/// /documents only ever inserts base tuples, so this is how subscription
/// streams get exercised with genuine deletes.
const NEGATION_PROGRAM: &str = "
    R(x int, y int).
    Excl(x int).
    Out(x int, y int).
    Out(x, y) :- R(x, y), !Excl(x).
";

fn negation_app() -> DeepDive {
    DeepDive::builder(NEGATION_PROGRAM)
        .config(RunConfig {
            threads: deepdive_storage::threads_from_env().unwrap_or(2),
            ..Default::default()
        })
        .build()
        .expect("compile negation program")
}

fn spouse_config() -> SpouseAppConfig {
    let mut config = spouse_app_config(12, 10);
    config.corpus.num_sibling_pairs = 3;
    config
}

fn ingest(addr: SocketAddr, rows: &[(&str, Vec<Json>)]) {
    let mut by_relation: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (rel, row) in rows {
        by_relation
            .entry((*rel).to_string())
            .or_default()
            .push(Json::Array(row.clone()));
    }
    let mut obj = Map::new();
    for (rel, r) in by_relation {
        obj.insert(rel, Json::Array(r));
    }
    let body = json!({ "rows": Json::Object(obj) });
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200, "POST /documents: {v}");
}

/// A subscriber's reconstructed view: row (as rendered JSON array) -> count
/// for the relation half, row -> probability bits for the marginal half.
#[derive(Default, Debug, PartialEq)]
struct Replica {
    rows: BTreeMap<String, i64>,
    marginals: BTreeMap<String, u64>,
    epoch: u64,
}

impl Replica {
    /// Apply one frame (snapshot / delta / lagged / heartbeat) exactly as
    /// the protocol specifies.
    fn apply(&mut self, frame: &Json) {
        match frame.get("type").and_then(Json::as_str) {
            Some("snapshot") => {
                self.rows.clear();
                self.marginals.clear();
                if let Some(rows) = frame
                    .get("relation")
                    .and_then(|r| r.get("rows"))
                    .and_then(Json::as_array)
                {
                    for entry in rows {
                        self.rows.insert(
                            entry.get("row").unwrap().to_string(),
                            entry.get("count").and_then(Json::as_i64).unwrap(),
                        );
                    }
                }
                if let Some(rows) = frame
                    .get("marginals")
                    .and_then(|m| m.get("rows"))
                    .and_then(Json::as_array)
                {
                    for entry in rows {
                        self.marginals.insert(
                            entry.get("row").unwrap().to_string(),
                            entry.get("p").and_then(Json::as_f64).unwrap().to_bits(),
                        );
                    }
                }
                self.epoch = frame.get("epoch").and_then(Json::as_u64).unwrap();
            }
            Some("delta") => {
                if let Some(rel) = frame.get("relation") {
                    for up in rel.get("upserts").and_then(Json::as_array).unwrap() {
                        self.rows.insert(
                            up.get("row").unwrap().to_string(),
                            up.get("count").and_then(Json::as_i64).unwrap(),
                        );
                    }
                    for del in rel.get("deletes").and_then(Json::as_array).unwrap() {
                        self.rows.remove(&del.to_string());
                    }
                }
                if let Some(m) = frame.get("marginals") {
                    for up in m.get("upserts").and_then(Json::as_array).unwrap() {
                        self.marginals.insert(
                            up.get("row").unwrap().to_string(),
                            up.get("p").and_then(Json::as_f64).unwrap().to_bits(),
                        );
                    }
                    for del in m.get("deletes").and_then(Json::as_array).unwrap() {
                        self.marginals.remove(&del.to_string());
                    }
                }
                self.epoch = frame.get("epoch").and_then(Json::as_u64).unwrap();
            }
            Some("heartbeat") | Some("lagged") => {}
            other => panic!("unknown frame type {other:?} in {frame}"),
        }
    }
}

/// What the server itself says a relation holds at the current epoch, in
/// the same canonical form [`Replica`] keeps (rows as JSON arrays in column
/// order).
fn served_relation(addr: SocketAddr, name: &str, columns: &[&str]) -> BTreeMap<String, i64> {
    let (status, v) = get(addr, &format!("/relations/{name}?limit=100000"));
    assert_eq!(status, 200, "GET /relations/{name}: {v}");
    v.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .iter()
        .map(|row| {
            let arr: Vec<Json> = columns
                .iter()
                .map(|c| row.get(c).expect("column present").clone())
                .collect();
            (
                Json::Array(arr).to_string(),
                row.get("count").and_then(Json::as_i64).expect("count"),
            )
        })
        .collect()
}

/// The served marginal band in [`Replica`] form (probability bits).
fn served_marginals(
    addr: SocketAddr,
    name: &str,
    columns: &[&str],
    min_p: f64,
) -> BTreeMap<String, u64> {
    let (status, v) = get(
        addr,
        &format!("/marginals/{name}?limit=100000&min_p={min_p}"),
    );
    assert_eq!(status, 200, "GET /marginals/{name}: {v}");
    v.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .iter()
        .map(|row| {
            let arr: Vec<Json> = columns
                .iter()
                .map(|c| row.get(c).expect("column present").clone())
                .collect();
            (
                Json::Array(arr).to_string(),
                row.get("probability")
                    .and_then(Json::as_f64)
                    .expect("probability")
                    .to_bits(),
            )
        })
        .collect()
}

/// A streaming subscription connection: sends `POST /subscriptions` with
/// `mode: "stream"` and decodes the chunked ndjson frames as they arrive.
struct StreamSub {
    reader: BufReader<TcpStream>,
    pending: String,
}

impl StreamSub {
    fn open(addr: SocketAddr, body: &Json) -> StreamSub {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let text = serde_json::to_string(body).expect("body");
        write!(
            stream,
            "POST /subscriptions HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        )
        .expect("send subscribe");
        let mut reader = BufReader::new(stream);
        // Consume the response head; the status must be 200 (streaming).
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(
            line.contains("200"),
            "subscription stream refused: {}",
            line.trim()
        );
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).expect("header line");
            if l == "\r\n" || l == "\n" || l.is_empty() {
                break;
            }
        }
        StreamSub {
            reader,
            pending: String::new(),
        }
    }

    /// Block for the next ndjson frame.
    fn next_frame(&mut self) -> Json {
        loop {
            if let Some(idx) = self.pending.find('\n') {
                let line: String = self.pending.drain(..=idx).collect();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                return serde_json::from_str(line).expect("frame is JSON");
            }
            // Next chunk: hex size line, payload, trailing CRLF.
            let mut size_line = String::new();
            self.reader.read_line(&mut size_line).expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            assert!(size > 0, "stream ended before the expected frame");
            let mut payload = vec![0u8; size + 2];
            self.reader.read_exact(&mut payload).expect("chunk payload");
            payload.truncate(size);
            self.pending
                .push_str(std::str::from_utf8(&payload).expect("utf8 chunk"));
        }
    }

    /// Apply frames into `replica` until it has reached `epoch`.
    fn drive_to(&mut self, replica: &mut Replica, epoch: u64) {
        while replica.epoch < epoch {
            let frame = self.next_frame();
            replica.apply(&frame);
        }
    }
}

/// Deterministic xorshift so the "random" ingest schedule is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Tentpole + satellite 4 (stream half): a randomized insert/exclude
/// sequence drives DRed retractions through `Out`; a streaming subscriber
/// applying every frame must land bit-identically on what `/relations`
/// serves at the final epoch.
#[test]
fn stream_subscriber_reconstructs_relations_through_retractions() {
    let server = Server::new(negation_app(), &ServeConfig::default()).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    let mut sub = StreamSub::open(
        addr,
        &json!({ "relation": json!({ "name": "Out" }), "mode": "stream" }),
    );
    let mut replica = Replica::default();
    // The stream opens with a snapshot of the (empty) initial state.
    let first = sub.next_frame();
    assert_eq!(first.get("type").and_then(Json::as_str), Some("snapshot"));
    replica.apply(&first);

    let mut rng = Rng(0x00c0ffee);
    let mut epochs = 0u64;
    for _ in 0..30 {
        let mut rows: Vec<(&str, Vec<Json>)> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            if rng.below(3) == 0 {
                // Only a slice of the domain is excludable, so retractions
                // happen without eventually emptying `Out`.
                rows.push(("Excl", vec![json!(rng.below(3))]));
            } else {
                rows.push(("R", vec![json!(rng.below(12)), json!(rng.below(12))]));
            }
        }
        ingest(addr, &rows);
        epochs += 1;
    }

    sub.drive_to(&mut replica, epochs);
    assert_eq!(replica.epoch, epochs, "frames arrive one per epoch");
    let served = served_relation(addr, "Out", &["x", "y"]);
    assert_eq!(replica.rows, served, "replayed stream == served relation");
    assert!(!served.is_empty(), "the schedule derived at least one row");

    // The schedule must actually have exercised retractions, or this test
    // proves nothing about DRed deltas.
    let (_, excl) = get(addr, "/relations/Excl?limit=100000");
    assert!(
        excl.get("total").and_then(Json::as_u64).unwrap() > 0,
        "schedule never excluded anything"
    );

    drop(sub); // hang up; the server reaps the stream subscription
    handle.shutdown();
}

/// Tentpole + satellite 4 (long-poll half): the cursor protocol replays to
/// the same exact state, with acks carried by the next poll's `from`.
#[test]
fn long_poll_cursor_reconstructs_relations() {
    let server = Server::new(negation_app(), &ServeConfig::default()).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    let (status, created) = http(
        addr,
        "POST",
        "/subscriptions",
        Some(&json!({ "relation": json!({ "name": "Out" }), "mode": "poll" })),
    );
    assert_eq!(status, 201, "{created}");
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let mut replica = Replica::default();
    replica.apply(created.get("snapshot").expect("initial snapshot"));

    let mut rng = Rng(0xdead2bad);
    let mut epochs = 0u64;
    for round in 0..24 {
        let mut rows: Vec<(&str, Vec<Json>)> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            if rng.below(3) == 0 {
                rows.push(("Excl", vec![json!(rng.below(6))]));
            } else {
                rows.push(("R", vec![json!(rng.below(6)), json!(rng.below(6))]));
            }
        }
        ingest(addr, &rows);
        epochs += 1;

        // Poll mid-schedule too, so acks interleave with routing.
        if round % 5 == 4 {
            let (status, v) = get(
                addr,
                &format!("/subscriptions/{id}?from={}&wait_ms=2000", replica.epoch),
            );
            assert_eq!(status, 200, "{v}");
            for frame in v.get("frames").and_then(Json::as_array).unwrap() {
                replica.apply(frame);
            }
        }
    }

    // Drain the rest. Re-request the same cursor once to prove delivery is
    // at-least-once and re-polling a cursor is harmless.
    let mut polls = 0;
    while replica.epoch < epochs {
        let from = replica.epoch;
        let (status, v) = get(
            addr,
            &format!("/subscriptions/{id}?from={from}&wait_ms=2000"),
        );
        assert_eq!(status, 200, "{v}");
        let (status2, v2) = get(addr, &format!("/subscriptions/{id}?from={from}&wait_ms=0"));
        assert_eq!(status2, 200);
        assert_eq!(
            v.get("frames").unwrap().to_string(),
            v2.get("frames").unwrap().to_string(),
            "un-acked frames are re-served, not consumed"
        );
        for frame in v.get("frames").and_then(Json::as_array).unwrap() {
            replica.apply(frame);
        }
        polls += 1;
        assert!(polls < 200, "cursor never reached epoch {epochs}");
    }
    assert_eq!(replica.rows, served_relation(addr, "Out", &["x", "y"]));

    let (status, v) = http(addr, "DELETE", &format!("/subscriptions/{id}"), None);
    assert_eq!(status, 200, "{v}");
    handle.shutdown();
}

/// Marginal-threshold subscriptions: band entry/exit/retraction deltas
/// across Gibbs refreshes land exactly on `/marginals?min_p=`.
#[test]
fn marginal_threshold_subscription_matches_served_band() {
    let mut app = SpouseApp::build(spouse_config()).expect("build spouse app");
    app.run().expect("batch run");
    let extra_docs = [
        "Alice Young and her husband Bob Young toured the museum.",
        "Carol King and her husband David King hosted a dinner.",
    ];
    let batches: Vec<Vec<BaseChange>> = extra_docs
        .iter()
        .map(|text| app.document_changes(text))
        .collect();
    assert!(batches.iter().all(|b| !b.is_empty()));

    let config = ServeConfig {
        page_limit: 100_000,
        ..Default::default()
    };
    let server = Server::new(app.dd, &config).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    const MIN_P: f64 = 0.5;
    let (status, created) = http(
        addr,
        "POST",
        "/subscriptions",
        Some(&json!({
            "marginals": json!({ "name": "MarriedMentions", "min_p": MIN_P }),
            "mode": "poll",
        })),
    );
    assert_eq!(status, 201, "{created}");
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let mut replica = Replica::default();
    replica.apply(created.get("snapshot").expect("initial snapshot"));

    for batch in &batches {
        let (status, v) = http(addr, "POST", "/documents", Some(&ingest_body(batch)));
        assert_eq!(status, 200, "POST /documents: {v}");
    }
    let epochs = batches.len() as u64;
    while replica.epoch < epochs {
        let (status, v) = get(
            addr,
            &format!("/subscriptions/{id}?from={}&wait_ms=2000", replica.epoch),
        );
        assert_eq!(status, 200, "{v}");
        for frame in v.get("frames").and_then(Json::as_array).unwrap() {
            replica.apply(frame);
        }
    }

    let served = served_marginals(addr, "MarriedMentions", &["m1", "m2"], MIN_P);
    assert_eq!(
        replica.marginals, served,
        "band replay == served thresholded marginals, bit-for-bit"
    );
    assert!(!served.is_empty(), "the pipeline believes in something");
    handle.shutdown();
}

/// Shed/resume: a consumer that ignores its queue past the byte budget is
/// shed (never blocking ingest), then re-based by an explicit reset — and
/// still converges to exact parity.
#[test]
fn shed_subscriber_rebases_and_recovers_parity() {
    let config = ServeConfig {
        sub_queue_bytes: 1024, // the floor: overflow after a few frames
        ..Default::default()
    };
    let server = Server::new(negation_app(), &config).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    let (status, created) = http(
        addr,
        "POST",
        "/subscriptions",
        Some(&json!({ "relation": json!({ "name": "Out" }), "mode": "poll" })),
    );
    assert_eq!(status, 201, "{created}");
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let mut replica = Replica::default();
    replica.apply(created.get("snapshot").expect("initial snapshot"));

    // Never poll while flooding: wide rows overflow the 1 KiB queue.
    let mut rng = Rng(0x5eed);
    let mut epochs = 0u64;
    for _ in 0..12 {
        let rows: Vec<(&str, Vec<Json>)> = (0..8)
            .map(|_| {
                (
                    "R",
                    vec![json!(rng.below(100) as i64), json!(rng.below(100) as i64)],
                )
            })
            .collect();
        ingest(addr, &rows);
        epochs += 1;
    }

    let (status, v) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let sheds = v
        .get("subscriptions")
        .and_then(|s| s.get("sheds"))
        .and_then(Json::as_u64)
        .expect("sheds gauge");
    assert!(sheds >= 1, "the queue never overflowed: {v}");

    // The stale cursor gets an explicit reset carrying a snapshot — not a
    // silent gap, not a block.
    let (status, v) = get(addr, &format!("/subscriptions/{id}?from={}", replica.epoch));
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("reset").and_then(Json::as_bool), Some(true), "{v}");
    for frame in v.get("frames").and_then(Json::as_array).unwrap() {
        replica.apply(frame);
    }
    while replica.epoch < epochs {
        let (status, v) = get(
            addr,
            &format!("/subscriptions/{id}?from={}&wait_ms=2000", replica.epoch),
        );
        assert_eq!(status, 200, "{v}");
        for frame in v.get("frames").and_then(Json::as_array).unwrap() {
            replica.apply(frame);
        }
    }
    assert_eq!(replica.rows, served_relation(addr, "Out", &["x", "y"]));
    handle.shutdown();
}

/// Followers serve subscriptions from replicated epochs: a subscriber on
/// the follower reconstructs exactly the follower's own served state, and
/// `POST /documents` there is refused with the primary's address attached
/// (satellite 2).
#[test]
fn follower_serves_subscriptions_and_redirects_writes() {
    let p_wal = tmpdir("fol-p-wal");
    let f_wal = tmpdir("fol-f-wal");
    let p_ckpt = tmpdir("fol-p-ckpt");
    let f_ckpt = tmpdir("fol-f-ckpt");

    // Identical (empty) base state on both nodes, checkpointed so a
    // follower restart could restore it.
    let primary_dd = negation_app();
    primary_dd
        .save_checkpoint(&Checkpoint::new(p_ckpt.clone()).expect("primary ckpt"))
        .expect("save primary");
    let follower_dd = negation_app();
    follower_dd
        .save_checkpoint(&Checkpoint::new(f_ckpt.clone()).expect("follower ckpt"))
        .expect("save follower");

    let primary_cfg = ServeConfig {
        addr: format!("127.0.0.1:{}", free_port()),
        page_limit: 100_000,
        wal_dir: Some(p_wal.clone()),
        checkpoint_dir: Some(p_ckpt.clone()),
        ..Default::default()
    };
    let primary = Server::new(primary_dd, &primary_cfg)
        .expect("bind primary")
        .start()
        .expect("start primary");
    let p_addr = primary.addr();

    let follower_cfg = ServeConfig {
        addr: format!("127.0.0.1:{}", free_port()),
        page_limit: 100_000,
        wal_dir: Some(f_wal.clone()),
        checkpoint_dir: Some(f_ckpt.clone()),
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    let follower = Server::new(follower_dd, &follower_cfg)
        .expect("bind follower")
        .start()
        .expect("start follower");
    let f_addr = follower.addr();

    let (status, created) = http(
        f_addr,
        "POST",
        "/subscriptions",
        Some(&json!({ "relation": json!({ "name": "Out" }), "mode": "poll" })),
    );
    assert_eq!(status, 201, "follower refused subscription: {created}");
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let mut replica = Replica::default();
    replica.apply(created.get("snapshot").expect("initial snapshot"));

    let mut rng = Rng(0xf0110e);
    let mut epochs = 0u64;
    for _ in 0..10 {
        let mut rows: Vec<(&str, Vec<Json>)> = Vec::new();
        for _ in 0..1 + rng.below(2) {
            if rng.below(3) == 0 {
                rows.push(("Excl", vec![json!(rng.below(5))]));
            } else {
                rows.push(("R", vec![json!(rng.below(5)), json!(rng.below(5))]));
            }
        }
        ingest(p_addr, &rows);
        epochs += 1;
    }
    wait_epoch(f_addr, epochs);

    while replica.epoch < epochs {
        let (status, v) = get(
            f_addr,
            &format!("/subscriptions/{id}?from={}&wait_ms=2000", replica.epoch),
        );
        assert_eq!(status, 200, "{v}");
        for frame in v.get("frames").and_then(Json::as_array).unwrap() {
            replica.apply(frame);
        }
    }
    assert_eq!(
        replica.rows,
        served_relation(f_addr, "Out", &["x", "y"]),
        "follower subscription == follower state"
    );
    assert_eq!(
        replica.rows,
        served_relation(p_addr, "Out", &["x", "y"]),
        "follower state == primary state at the same epoch"
    );

    // Satellite 2: a write to the follower is a 405 that tells the client
    // what it may do here and where writes go.
    let mut stream = TcpStream::connect(f_addr).expect("connect follower");
    let body = json!({ "rows": json!({ "R": json!([json!([1, 1])]) }) }).to_string();
    write!(
        stream,
        "POST /documents HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("send write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read 405");
    let head = raw.split("\r\n\r\n").next().unwrap_or("");
    assert!(raw.starts_with("HTTP/1.1 405"), "{head}");
    assert!(
        head.lines().any(|l| l.eq_ignore_ascii_case("allow: GET")),
        "missing Allow header: {head}"
    );
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase() == format!("x-dd-primary: http://{p_addr}")),
        "missing X-DD-Primary header: {head}"
    );

    follower.shutdown();
    primary.shutdown();
    for d in [p_wal, f_wal, p_ckpt, f_ckpt] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Satellite 3 regression: a handler panic answers 500, bumps
/// `panic_total`, and the worker keeps serving; malformed-but-parseable
/// requests get clean 4xxs, never a dead worker.
#[test]
fn handler_panic_and_malformed_requests_cannot_kill_workers() {
    let faults = Arc::new(FaultInjector::new());
    let config = ServeConfig {
        workers: 1, // one worker: if a panic killed it, nothing would answer
        faults: Arc::clone(&faults),
        ..Default::default()
    };
    let server = Server::new(negation_app(), &config).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    // A genuine panic inside the routed handler: caught, answered 500.
    faults.arm(points::SERVE_HANDLER_PANIC, 1);
    let (status, v) = get(addr, "/relations/Out");
    assert_eq!(status, 500, "{v}");

    // The same (sole) worker keeps serving.
    let (status, _) = get(addr, "/relations/Out");
    assert_eq!(status, 200);
    let (status, v) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        v.get("admission")
            .and_then(|a| a.get("panic_total"))
            .and_then(Json::as_u64),
        Some(1),
        "{v}"
    );

    // Malformed-but-parseable requests: valid HTTP, hostile payloads.
    let cases: Vec<(&str, &str, Option<Json>, u16)> = vec![
        ("POST", "/subscriptions", Some(json!([1, 2, 3])), 400),
        ("POST", "/subscriptions", Some(json!({ "bogus": 1 })), 400),
        (
            "POST",
            "/subscriptions",
            Some(json!({ "relation": json!({ "name": "Nope" }) })),
            404,
        ),
        (
            "POST",
            "/subscriptions",
            Some(json!({ "relation": json!({ "name": "Out", "where": json!({ "zz": 1 }) }) })),
            400,
        ),
        (
            "POST",
            "/subscriptions",
            Some(json!({ "relation": json!({ "name": "Out" }), "mode": "telepathy" })),
            400,
        ),
        ("GET", "/subscriptions/no-such-sub", None, 404),
        ("GET", "/relations/Out?epoch=banana", None, 400),
        ("GET", "/relations/Out?x=notanint", None, 200), // unsatisfiable, empty page
        ("PUT", "/subscriptions", None, 405),
        ("PATCH", "/subscriptions/some-id", None, 405),
    ];
    for (method, path, body, want) in cases {
        let (status, v) = http(addr, method, path, body.as_ref());
        assert_eq!(status, want, "{method} {path}: {v}");
        // And after each hostile request, the worker still answers.
        let (alive, _) = get(addr, "/healthz");
        assert_eq!(alive, 200, "worker died after {method} {path}");
    }

    handle.shutdown();
}

/// Satellite 1: `/relations` page cursors pin to the epoch captured on page
/// one; a retired epoch answers `410 Gone` with the current epoch.
#[test]
fn relation_pages_pin_to_their_epoch_and_retire_to_410() {
    let server = Server::new(negation_app(), &ServeConfig::default()).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    // Epoch 1: twelve rows to page over.
    let rows: Vec<(&str, Vec<Json>)> = (0..12i64)
        .map(|i| ("R", vec![json!(i), json!(i)]))
        .collect();
    ingest(addr, &rows);

    let (status, page1) = get(addr, "/relations/Out?limit=5&offset=0");
    assert_eq!(status, 200, "{page1}");
    let epoch = page1.get("epoch").and_then(Json::as_u64).unwrap();
    assert_eq!(epoch, 1);

    // Concurrent ingest advances the server past the scan's epoch…
    ingest(addr, &[("Excl", vec![json!(0)]), ("Excl", vec![json!(1)])]);

    // …but pinned pages keep reading the same frozen snapshot.
    let (status, page2) = get(
        addr,
        &format!("/relations/Out?limit=5&offset=5&epoch={epoch}"),
    );
    assert_eq!(status, 200, "{page2}");
    assert_eq!(page2.get("epoch").and_then(Json::as_u64), Some(epoch));
    assert_eq!(
        page2.get("total").and_then(Json::as_u64),
        page1.get("total").and_then(Json::as_u64),
        "pinned pages agree on the total even after a swap"
    );
    let (status, page3) = get(
        addr,
        &format!("/relations/Out?limit=5&offset=10&epoch={epoch}"),
    );
    assert_eq!(status, 200);
    let mut seen: Vec<String> = [&page1, &page2, &page3]
        .iter()
        .flat_map(|p| p.get("rows").and_then(Json::as_array).unwrap().clone())
        .map(|r| r.to_string())
        .collect();
    let total = page1.get("total").and_then(Json::as_u64).unwrap() as usize;
    assert_eq!(seen.len(), total, "pages cover the snapshot exactly once");
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), total, "no row served twice across pages");

    // Push the pinned epoch out of the retention ring.
    for i in 0..9i64 {
        ingest(addr, &[("R", vec![json!(100 + i), json!(0)])]);
    }
    let (status, gone) = get(addr, &format!("/relations/Out?limit=5&epoch={epoch}"));
    assert_eq!(status, 410, "{gone}");
    assert_eq!(
        gone.get("current_epoch").and_then(Json::as_u64),
        Some(1 + 1 + 9),
        "410 carries the epoch to restart from"
    );

    handle.shutdown();
}
