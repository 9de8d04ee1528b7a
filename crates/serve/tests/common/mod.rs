//! Helpers shared by the serve integration suites: a minimal HTTP client,
//! readiness/epoch polling, ingest-body rendering, canonical served-state
//! dumps, and the primary/follower pair the replication-shaped suites boot.
//! Each suite uses a subset.
#![allow(dead_code)]

use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::{Checkpoint, DeepDive, RunConfig};
use deepdive_corpus::spouse::SpouseCorpus;
use deepdive_corpus::SpouseConfig;
use deepdive_sampler::{GibbsOptions, LearnOptions};
use deepdive_serve::{ServeConfig, Server, ServerHandle};
use deepdive_storage::{BaseChange, Value};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The spouse pipeline the suites serve, sized by corpus: short learning,
/// a 200-sample Gibbs budget, sequential execution.
pub fn spouse_app_config(num_docs: usize, num_people: usize) -> SpouseAppConfig {
    SpouseAppConfig {
        corpus: SpouseConfig {
            num_docs,
            num_people,
            num_married_pairs: 4,
            num_sibling_pairs: 4,
            ..Default::default()
        },
        run: RunConfig {
            learn: LearnOptions {
                epochs: 30,
                ..Default::default()
            },
            inference: GibbsOptions {
                burn_in: 20,
                samples: 200,
                clamp_evidence: true,
                ..Default::default()
            },
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Fresh per-test scratch directory.
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dd-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmpdir");
    d
}

/// Reserve a port the OS considers free, so a "restarted" node can come
/// back at an address a peer already holds.
pub fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Raw request bytes in, raw response text out (status line and headers
/// intact), for asserting on headers like `Retry-After`.
pub fn send_raw(addr: SocketAddr, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(payload.as_bytes()).expect("send request");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

/// One request, `Connection: close`, the whole raw response out. `None` =
/// the connection died mid-exchange (the chaos tests race requests against
/// `abort`).
pub fn try_http_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let body_text = body.map(|b| b.to_string()).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
        body_text.len(),
        body_text
    )
    .ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, raw))
}

/// [`try_http_raw`] against a daemon that must answer — for endpoints
/// whose bodies are not JSON (or whose headers matter).
pub fn http_raw(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> (u16, String) {
    try_http_raw(addr, method, path, body).expect("HTTP exchange with the daemon")
}

fn json_payload(raw: &str) -> Json {
    let payload = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    serde_json::from_str(payload).unwrap_or(Json::Null)
}

/// Minimal HTTP/1.1 client: one request, `Connection: close`, JSON out.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
    let (status, raw) = http_raw(addr, method, path, body);
    (status, json_payload(&raw))
}

/// Like [`http`] but tolerant of the connection dying mid-exchange.
pub fn try_http(addr: SocketAddr, method: &str, path: &str, body: &Json) -> Option<(u16, Json)> {
    let (status, raw) = try_http_raw(addr, method, path, Some(body))?;
    Some((status, json_payload(&raw)))
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    http(addr, "GET", path, None)
}

/// Poll until `probe` returns true, with a generous deadline.
pub fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Poll `/readyz` until it answers 200. For a follower this also waits
/// out WAL replay, the primary handshake, and the lag bound.
pub fn wait_ready(addr: SocketAddr) {
    wait_for("the server to become ready", || {
        get(addr, "/readyz").0 == 200
    });
}

/// Poll `/healthz` until the served epoch reaches `epoch`.
pub fn wait_epoch(addr: SocketAddr, epoch: u64) {
    wait_for(&format!("epoch {epoch}"), || {
        let (status, v) = get(addr, "/healthz");
        assert_eq!(status, 200, "healthz while waiting for epoch: {v}");
        v.get("epoch").and_then(Json::as_u64) >= Some(epoch)
    });
}

/// The `"replication"` section of a node's `/metrics`.
pub fn replication_metrics(addr: SocketAddr) -> Json {
    let (status, v) = get(addr, "/metrics");
    assert_eq!(status, 200, "GET /metrics: {v}");
    v.get("replication").cloned().expect("replication section")
}

/// Render one storage value as the JSON cell the POST body format takes.
pub fn value_to_cell(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => json!(*b),
        Value::Int(i) => json!(*i),
        Value::Float(f) => json!(*f),
        Value::Text(t) => json!(t.as_ref()),
        Value::Id(id) => json!(*id),
    }
}

/// Group base changes into the `{"rows": {relation: [[cell, ...], ...]}}`
/// ingest body.
pub fn ingest_body(changes: &[BaseChange]) -> Json {
    let mut by_relation: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for ch in changes {
        let cells: Vec<Json> = ch.row.iter().map(value_to_cell).collect();
        by_relation
            .entry(ch.relation.clone())
            .or_default()
            .push(Json::Array(cells));
    }
    let mut rows = serde_json::Map::new();
    for (relation, rel_rows) in by_relation {
        rows.insert(relation, Json::Array(rel_rows));
    }
    json!({ "rows": Json::Object(rows) })
}

fn served_rows(addr: SocketAddr, path: &str) -> Vec<Json> {
    let (status, v) = get(addr, path);
    assert_eq!(status, 200, "GET {path}: {v}");
    v.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .clone()
}

/// Canonical form of a relation as served: the set of JSON row renderings.
/// Set-based, because checkpoint-restored state serves the same rows but
/// not necessarily in the same page order as live-grown state.
pub fn served_relation(addr: SocketAddr, name: &str) -> BTreeSet<String> {
    served_rows(addr, &format!("/relations/{name}?limit=100000"))
        .iter()
        .map(Json::to_string)
        .collect()
}

/// A relation in a batch-run database, in [`served_relation`]'s canonical
/// form — the oracle incremental state is compared against.
pub fn batch_relation(dd: &DeepDive, relation: &str) -> BTreeSet<String> {
    let schema = dd.db.schema(relation).expect("batch relation schema");
    dd.db
        .rows_counted(relation)
        .expect("batch relation")
        .iter()
        .map(|(row, count)| {
            let mut obj = serde_json::Map::new();
            for (col, v) in schema.columns.iter().zip(row.iter()) {
                obj.insert(col.name.clone(), value_to_cell(v));
            }
            obj.insert("count".into(), json!(*count));
            Json::Object(obj).to_string()
        })
        .collect()
}

/// Marginal rows with the probability stripped: the variables a node
/// serves marginals for. Probabilities are refresh-schedule-dependent
/// after a checkpoint restore, so recovery tests compare rows, not bits.
pub fn marginal_rows(addr: SocketAddr, name: &str) -> BTreeSet<String> {
    served_rows(addr, &format!("/marginals/{name}?limit=100000"))
        .iter()
        .map(|row| {
            let mut obj = row.as_object().expect("row object").clone();
            obj.remove("probability");
            Json::Object(obj).to_string()
        })
        .collect()
}

pub fn read_report(wal_dir: &Path) -> Json {
    let text = std::fs::read_to_string(wal_dir.join("report.json")).expect("report.json exists");
    serde_json::from_str(&text).expect("report.json parses")
}

/// What a restarted daemon boots from: the app rebuilt from scratch (fresh
/// process state) with its checkpoint restored.
pub fn restored_dd(config: SpouseAppConfig, corpus: SpouseCorpus, ckpt_dir: &Path) -> DeepDive {
    let mut app = SpouseApp::build_with_corpus(config, corpus).expect("restart app");
    app.dd
        .load_checkpoint(&Checkpoint::new(ckpt_dir.to_path_buf()).expect("checkpoint"))
        .expect("restore checkpoint");
    app.dd
}

/// A primary/follower pair over the same base state: two identical
/// deterministic pipeline runs, each with its own WAL and checkpoint
/// directory, the follower tailing the primary.
pub struct Pair {
    pub primary: ServerHandle,
    pub follower: ServerHandle,
    pub primary_cfg: ServeConfig,
    pub follower_cfg: ServeConfig,
    pub p_wal: PathBuf,
    pub f_wal: PathBuf,
    pub p_ckpt: PathBuf,
    pub f_ckpt: PathBuf,
    /// Ingest bodies for the held-out documents, in order.
    pub held_out: Vec<Json>,
    /// The corpus both nodes ran over — restarts rebuild from this.
    pub partial: SpouseCorpus,
}

/// Build the pair. `hold_out` documents are removed from the served corpus
/// and returned as ingest bodies; both nodes run the pipeline over the
/// same partial corpus so they start from identical state at WAL seq 0.
/// The tweaks adjust each node's config before it boots.
pub fn spawn_pair(
    tag: &str,
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    hold_out: usize,
    tweak_primary: impl FnOnce(&mut ServeConfig),
    tweak_follower: impl FnOnce(&mut ServeConfig),
) -> Pair {
    let mut partial = corpus.clone();
    let mut held_docs = Vec::new();
    while held_docs.len() < hold_out {
        let doc = partial.documents.pop().expect("enough documents");
        // The generator can emit empty documents; they contribute no rows
        // to any run, so dropping them entirely changes nothing.
        if doc.text.trim().is_empty() {
            continue;
        }
        held_docs.push(doc);
    }
    held_docs.reverse(); // restore corpus order

    let mut primary_app =
        SpouseApp::build_with_corpus(config.clone(), partial.clone()).expect("primary app");
    primary_app.run().expect("primary base run");
    let held_out: Vec<Json> = held_docs
        .iter()
        .map(|doc| {
            let changes = primary_app.document_changes(&doc.text);
            assert!(!changes.is_empty(), "held-out document produced no rows");
            ingest_body(&changes)
        })
        .collect();

    let mut follower_app =
        SpouseApp::build_with_corpus(config.clone(), partial.clone()).expect("follower app");
    follower_app.run().expect("follower base run");

    let p_wal = tmpdir(&format!("{tag}-p-wal"));
    let f_wal = tmpdir(&format!("{tag}-f-wal"));
    let p_ckpt = tmpdir(&format!("{tag}-p-ckpt"));
    let f_ckpt = tmpdir(&format!("{tag}-f-ckpt"));
    primary_app
        .dd
        .save_checkpoint(&Checkpoint::new(p_ckpt.clone()).expect("primary checkpoint"))
        .expect("save primary checkpoint");
    follower_app
        .dd
        .save_checkpoint(&Checkpoint::new(f_ckpt.clone()).expect("follower checkpoint"))
        .expect("save follower checkpoint");

    let mut primary_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(p_wal.clone()),
        checkpoint_dir: Some(p_ckpt.clone()),
        ..Default::default()
    };
    tweak_primary(&mut primary_cfg);
    let primary = Server::new(primary_app.dd, &primary_cfg)
        .expect("bind primary")
        .start()
        .expect("start primary");
    let p_addr = primary.addr();
    wait_ready(p_addr);

    let mut follower_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(f_wal.clone()),
        checkpoint_dir: Some(f_ckpt.clone()),
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    tweak_follower(&mut follower_cfg);
    let follower = Server::new(follower_app.dd, &follower_cfg)
        .expect("bind follower")
        .start()
        .expect("start follower");

    Pair {
        primary,
        follower,
        primary_cfg,
        follower_cfg,
        p_wal,
        f_wal,
        p_ckpt,
        f_ckpt,
        held_out,
        partial,
    }
}
