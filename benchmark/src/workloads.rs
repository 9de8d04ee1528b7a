//! The four workloads. Each is one knowledge-base lifecycle — generate,
//! `deepdive run --checkpoint`, `deepdive serve`, read, ingest — sized so a
//! different phase dominates, which is what lets every workload report
//! every end-to-end metric (see README.md, "Why every workload reports
//! every metric").

use crate::gen::{self, Corpus, IngestDoc, InputHash, ReadReq, Rng, ROWS_PER_INGEST_DOC};
use crate::http;
use crate::load::{self, Posted, ReadStats, WriteStats};
use crate::proc::{self, Paths, Server, REQUEST_TIMEOUT};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["batch_run", "serve_read", "serve_ingest", "serve_mixed"];

/// Output threshold of every run and read: the paper's "p >= 0.9".
const THRESHOLD: f64 = 0.9;
/// `batch_run` fails below this.
const MIN_F1: f64 = 0.85;
/// Rate of the short read phases of `batch_run` and `serve_ingest`.
const SMOKE_RATE: u64 = 200;
/// `/healthz` round trips behind `serve.http.roundtrip_ms`.
const ROUNDTRIPS: usize = 50;

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Measured, but not part of the contract: printed for the reader.
    pub info: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub input_hash: String,
    pub scratch: PathBuf,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn count_reads(&mut self, reads: &ReadStats) {
        self.attempted += reads.attempted;
        self.failed += reads.failed;
        self.errors.extend(reads.first_error.clone());
    }

    fn count_writes(&mut self, writes: &WriteStats) {
        self.attempted += writes.attempted;
        self.failed += writes.failed;
        self.errors.extend(writes.first_error.clone());
    }
}

fn put(into: &mut Metrics, name: &str, value: f64, unit: &str, samples: usize) {
    let unit = unit.to_string();
    into.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

struct Plan {
    /// Documents in the base corpus.
    docs: usize,
    /// Fresh-process repetitions of generate + run + serve-until-ready.
    setups: usize,
    /// Open-loop read steps as (req/s, share of `--seconds`).
    reads: &'static [(u64, f64)],
    /// Generator threads of the read steps.
    readers: usize,
    /// New-couple documents to post per second of `--seconds`.
    ingest_per_s: f64,
}

fn plan(workload: &str) -> Option<Plan> {
    let docs = gen::corpus_docs(workload)?;
    Some(match workload {
        "batch_run" => Plan {
            docs,
            setups: 5,
            reads: &[(SMOKE_RATE, 0.375)],
            readers: 2,
            ingest_per_s: 2.0,
        },
        "serve_read" => Plan {
            docs,
            setups: 5,
            reads: &[(100, 0.5), (200, 0.25), (400, 0.25), (800, 0.125)],
            readers: 2,
            ingest_per_s: 2.0,
        },
        // Its reads are the lookups of the durability check, scheduled
        // once it is known which documents were acknowledged.
        "serve_ingest" => Plan {
            docs,
            setups: 15,
            reads: &[],
            readers: 2,
            ingest_per_s: 25.0,
        },
        // The writer stops on time, not on count: this is only a cap (an
        // ack takes 10 ms at the very least).
        "serve_mixed" => Plan {
            docs,
            setups: 5,
            reads: &[(100, 1.0)],
            readers: 1,
            ingest_per_s: 100.0,
        },
        _ => return None,
    })
}

/// Everything a run feeds the program, made from the seed before anything
/// is measured.
pub struct Inputs {
    corpus: Corpus,
    /// One schedule per planned read step: (req/s, requests per thread).
    steps: Vec<(u64, Vec<Vec<ReadReq>>)>,
    /// Documents the writers may post: `gen::ingest_doc(0..ingest)`.
    ingest: u64,
    pub hash: String,
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64, seconds: u64) -> Option<Inputs> {
        let plan = plan(workload)?;
        let corpus = Corpus::generate(seed, plan.docs);
        let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
        let steps: Vec<_> = plan
            .reads
            .iter()
            .map(|&(rate, share)| {
                let count = (rate as f64 * share * seconds as f64) as u64;
                (
                    rate,
                    gen::read_schedule(&mut rng, &corpus, rate, count.max(1), plan.readers),
                )
            })
            .collect();
        let ingest = ((plan.ingest_per_s * seconds as f64) as u64).max(1);
        let mut hash = InputHash::default();
        hash.corpus(&corpus);
        for (_, schedule) in &steps {
            hash.schedule(schedule);
        }
        hash.docs(docs_from(0, ingest));
        Some(Inputs {
            corpus,
            steps,
            ingest,
            hash: hash.hex(),
        })
    }

    /// Write the inputs out for inspection; returns how many files.
    pub fn write(&self, dir: &Path) -> std::io::Result<usize> {
        self.corpus.write(&dir.join("data"))?;
        let mut files = self.corpus.files().len();
        for (step, (rate, schedule)) in self.steps.iter().enumerate() {
            for (thread, reqs) in schedule.iter().enumerate() {
                let text: String = reqs
                    .iter()
                    .map(|r| format!("{}\t{}\n", r.due_us, r.path))
                    .collect();
                std::fs::write(
                    dir.join(format!("reads-step{step}-{rate}rps-thread{thread}.tsv")),
                    text,
                )?;
                files += 1;
            }
        }
        let docs: String = docs_from(0, self.ingest).map(|d| d.body + "\n").collect();
        std::fs::write(dir.join("ingest.jsonl"), docs)?;
        Ok(files + 1)
    }
}

/// A served knowledge base and what building it cost, over all set-up
/// repetitions.
#[derive(Default)]
struct Kb {
    /// The last repetition's server; `None` only between a kill and the
    /// next start.
    server: Option<Server>,
    checkpoint: PathBuf,
    setup_s: Vec<f64>,
    run_wall_s: Vec<f64>,
    start_s: Vec<f64>,
    peak_rss_mib: f64,
    f1: f64,
}

impl Kb {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("a server runs between set-up and the end of the run")
    }

    /// `SIGKILL` the server, keeping its high-water mark.
    fn kill_server(&mut self) {
        if let Some(server) = self.server.take() {
            self.peak_rss_mib = self.peak_rss_mib.max(server.peak_rss_mib());
        }
    }
}

fn f1_against(truth: &[(u64, u64)], tsv: &str) -> Result<f64, String> {
    let truth: BTreeSet<(u64, u64)> = truth.iter().copied().collect();
    let mut predicted = 0usize;
    let mut hits = 0usize;
    for line in tsv.lines() {
        let mut cells = line.split('\t');
        let mut cell = || {
            cells
                .next()
                .ok_or_else(|| format!("short output row {line:?}"))
        };
        let m1: u64 = cell()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let m2: u64 = cell()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let p: f64 = cell()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        if p >= THRESHOLD {
            predicted += 1;
            hits += usize::from(truth.contains(&(m1, m2)));
        }
    }
    Ok(2.0 * hits as f64 / (predicted + truth.len()).max(1) as f64)
}

/// One set-up repetition: inputs from the seed, a fresh `deepdive run` with
/// the E1 settings writing a checkpoint, and a server over it.
fn set_up(
    paths: &Paths,
    dir: &Path,
    seed: u64,
    docs: usize,
    kb: &mut Kb,
    out: &mut Outcome,
) -> Result<(), String> {
    let began = Instant::now();
    let corpus = Corpus::generate(seed, docs);
    corpus
        .write(&dir.join("data"))
        .map_err(|e| format!("writing inputs: {e}"))?;
    let checkpoint = dir.join("ckpt");
    let mut run = Command::new(paths.deepdive());
    run.arg("run")
        .arg(&paths.program)
        .arg("--data")
        .arg(dir.join("data"))
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--checkpoint")
        .arg(&checkpoint)
        .args(["--epochs", "100", "--samples", "1000", "--threads", "2"])
        .args(["--threshold", &THRESHOLD.to_string()]);
    let finished = proc::run_to_completion(run)?;
    let server = Server::spawn(paths, &checkpoint)?;
    kb.setup_s.push(began.elapsed().as_secs_f64());
    kb.run_wall_s.push(finished.wall.as_secs_f64());
    kb.start_s.push(server.start.as_secs_f64());
    kb.peak_rss_mib = kb.peak_rss_mib.max(finished.peak_rss_mib);
    kb.server = Some(server);
    kb.checkpoint = checkpoint;

    let read = |name: &str| {
        std::fs::read_to_string(dir.join("out").join(name))
            .map_err(|e| format!("reading {name}: {e}"))
    };
    let report =
        serde_json::from_str(&read("report.json")?).map_err(|e| format!("report.json: {e}"))?;
    out.check(report["degraded"].as_bool() == Some(false), || {
        "deepdive run reported a degraded result".into()
    });
    kb.f1 = f1_against(&corpus.truth, &read("MarriedMentions.tsv")?)?;
    Ok(())
}

/// Repeat the set-up and keep the last server; the walls of the repeated
/// `deepdive run`s are the batch measurement.
fn build_kb(
    paths: &Paths,
    scratch: &Path,
    seed: u64,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<Kb, String> {
    let mut kb = Kb::default();
    for rep in 0..plan.setups {
        // The earlier server dies before the next repetition starts, so
        // each one has the machine to itself.
        kb.kill_server();
        let dir = scratch.join(format!("setup-{rep}"));
        set_up(paths, &dir, seed, plan.docs, &mut kb, out)?;
    }
    Ok(kb)
}

fn get_json(server: &Server, path: &str) -> Result<Value, String> {
    let resp = http::get(server.addr, path, REQUEST_TIMEOUT)?;
    if resp.status != 200 {
        return Err(format!("{path} answered {}", resp.status));
    }
    serde_json::from_str(&resp.body).map_err(|e| format!("{path}: {e}"))
}

fn total_rows(server: &Server) -> Result<u64, String> {
    get_json(server, "/healthz")?["total_rows"]
        .as_u64()
        .ok_or_else(|| "/healthz has no total_rows".into())
}

/// Server-side counters, summed over the server incarnations of a run
/// (each starts from zero, so one read before an incarnation ends is its
/// whole contribution).
#[derive(Default)]
struct Books {
    micros: BTreeMap<&'static str, (f64, f64)>,
    /// Group commits, and the documents they carried.
    wal_batches: f64,
    wal_docs: f64,
    flushes: f64,
    compactions: f64,
    shed: f64,
}

impl Books {
    fn absorb(&mut self, server: &Server) -> Result<(), String> {
        let m = get_json(server, "/metrics")?;
        let num = |v: &Value| v.as_f64().unwrap_or(0.0);
        for handler in ["relations", "marginals", "documents"] {
            let r = &m["requests"][handler];
            let e = self.micros.entry(handler).or_default();
            e.0 += num(&r["latency_micros_total"]);
            e.1 += num(&r["requests"]);
        }
        let commit = &m["wal"]["group_commit"];
        self.wal_batches += num(&commit["batches"]);
        self.wal_docs += num(&commit["batches"]) * num(&commit["avg_batch"]);
        self.flushes += num(&m["checkpoint"]["flushes"]);
        self.compactions += num(&m["wal"]["compactions"]);
        self.shed += num(&m["admission"]["shed_total"]);
        Ok(())
    }

    fn mean_us(&self, handlers: &[&str]) -> f64 {
        let (total, n) = handlers
            .iter()
            .filter_map(|h| self.micros.get(h))
            .fold((0.0, 0.0), |acc, e| (acc.0 + e.0, acc.1 + e.1));
        total / f64::max(n, 1.0)
    }
}

/// What the traffic phases of a workload measured.
#[derive(Default)]
struct Traffic {
    /// The reads the latency metrics come from.
    reads: ReadStats,
    /// Highest offered rate that was sustained; 0 when none was.
    max_rate: u64,
    writes: WriteStats,
    /// The read steps in order; once the traffic is over, the later ones
    /// only (the first moves to `reads`).
    steps: Vec<ReadStats>,
    recover_s: Option<f64>,
    replayed: Option<f64>,
}

fn docs_from(first: u64, count: u64) -> impl Iterator<Item = IngestDoc> {
    (first..first + count).map(gen::ingest_doc)
}

pub fn run(
    paths: &Paths,
    workload: &str,
    seed: u64,
    seconds: u64,
    layers: bool,
) -> Result<Outcome, String> {
    let scratch = paths.scratch(&format!("{workload}-{seed}-{}", std::process::id()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("clearing {}: {e}", scratch.display()))?;
    }
    let mut out = Outcome {
        scratch,
        ..Outcome::default()
    };
    match run_in(paths, workload, seed, seconds, layers, &mut out) {
        Ok(()) if out.correct() => {
            // Scratch is evidence: removed on success, kept on failure.
            let _ = std::fs::remove_dir_all(&out.scratch);
            Ok(out)
        }
        Ok(()) => Ok(out),
        Err(e) => Err(format!("{e} (scratch kept at {})", out.scratch.display())),
    }
}

fn run_in(
    paths: &Paths,
    workload: &str,
    seed: u64,
    seconds: u64,
    layers: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = &plan(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let inputs = Inputs::generate(workload, seed, seconds).ok_or("plan() vetted the workload")?;
    out.input_hash = inputs.hash.clone();
    let mut kb = build_kb(paths, &out.scratch.clone(), seed, plan, out)?;
    let base_rows = total_rows(kb.server())?;
    let mut books = Books::default();
    let mut traffic = Traffic::default();
    let addr = kb.server().addr;
    match workload {
        // The pipeline repetitions above are the measurement; what follows
        // is the short serve phase that makes the read and ingest metrics
        // exist here, on the largest KB of the suite.
        "batch_run" => {
            out.check(kb.f1 >= MIN_F1, || {
                format!("F1 {:.3} is below {MIN_F1}", kb.f1)
            });
            let (rate, schedule) = &inputs.steps[0];
            traffic
                .steps
                .push(load::read_step(addr, *rate, schedule, Posted::exactly(0)));
            traffic.writes = load::write_client(addr, docs_from(0, inputs.ingest), true, None);
        }
        // Open loop, climbing until a step is not sustained; the ingest
        // path stays idle until the steps are over, then a short
        // closed-loop tail gives the ingest metrics.
        "serve_read" => {
            for (rate, schedule) in &inputs.steps {
                traffic
                    .steps
                    .push(load::read_step(addr, *rate, schedule, Posted::exactly(0)));
                if !traffic.steps.last().is_some_and(ReadStats::sustained) {
                    break;
                }
            }
            traffic.writes = load::write_client(addr, docs_from(0, inputs.ingest), true, None);
        }
        // Closed loop, two clients, a fixed count so the work repeats
        // exactly; then the crash, and one lookup per acknowledged document.
        "serve_ingest" => {
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..2u64)
                    .map(|c| {
                        let docs = (c..inputs.ingest).step_by(2).map(gen::ingest_doc);
                        scope.spawn(move || load::write_client(addr, docs, false, None))
                    })
                    .collect();
                for c in clients {
                    traffic
                        .writes
                        .absorb(c.join().expect("writer thread does not panic"));
                }
            });
            let before = total_rows(kb.server())?;
            recover(paths, &mut kb, &mut books, &mut traffic)?;
            let acked_names: BTreeSet<&String> = traffic.writes.acked.iter().collect();
            let acked: Vec<IngestDoc> = docs_from(0, inputs.ingest)
                .filter(|d| acked_names.contains(&d.names[0]))
                .collect();
            let verify = gen::verify_schedule(&acked, SMOKE_RATE, plan.readers);
            let reads = load::read_step(
                kb.server().addr,
                SMOKE_RATE,
                &verify,
                Posted::exactly(acked.len() as u64),
            );
            put(
                &mut out.info,
                "lost_acked_docs",
                reads.failed as f64,
                "count",
                acked.len(),
            );
            traffic.steps.push(reads);
            let after = total_rows(kb.server())?;
            let want = base_rows + ROWS_PER_INGEST_DOC * acked.len() as u64;
            out.check(before == want && after == want, || {
                format!("total_rows {before} before the crash, {after} after it, expected {want}")
            });
        }
        // One closed-loop writer beside one open-loop reader, same KB.
        "serve_mixed" => {
            let (rate, schedule) = &inputs.steps[0];
            let until = Instant::now() + Duration::from_secs(seconds);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    load::write_client(addr, docs_from(0, inputs.ingest), true, Some(until))
                });
                // Reads tolerate any ingest count up to the writer's cap.
                traffic.steps.push(load::read_step(
                    addr,
                    *rate,
                    schedule,
                    Posted {
                        min: 0,
                        max: inputs.ingest,
                    },
                ));
                traffic.writes = writer.join().expect("writer thread does not panic");
            });
        }
        _ => unreachable!("plan() vetted the workload"),
    }
    // The first step is the one the latency metrics come from; the highest
    // sustained one is the rate metric.
    traffic.max_rate = traffic
        .steps
        .iter()
        .filter(|s| s.sustained())
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    traffic.reads = traffic.steps.remove(0);

    out.count_reads(&traffic.reads);
    for step in &traffic.steps {
        // Later steps probe for the limit: a step that fails it is a
        // finding, not an error, but its failed requests still count.
        out.attempted += step.attempted;
        out.failed += step.failed;
    }
    out.count_writes(&traffic.writes);
    out.check(!traffic.reads.answered.is_empty(), || {
        "no read was answered".into()
    });
    out.check(!traffic.writes.ack_ms.is_empty(), || {
        "no document was acknowledged".into()
    });
    if traffic.reads.answered.is_empty() || traffic.writes.ack_ms.is_empty() {
        return Ok(());
    }

    if layers {
        let roundtrips: Vec<f64> = (0..ROUNDTRIPS)
            .map(|_| {
                let sent = Instant::now();
                http::get(kb.server().addr, "/healthz", REQUEST_TIMEOUT)
                    .map(|_| sent.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<_, _>>()?;
        put(
            &mut out.per_layer,
            "serve.http.roundtrip_ms",
            load::median(&roundtrips),
            "ms",
            ROUNDTRIPS,
        );
        if traffic.recover_s.is_none() {
            recover(paths, &mut kb, &mut books, &mut traffic)?;
        }
        books.absorb(kb.server())?;
    }
    kb.peak_rss_mib = kb.peak_rss_mib.max(kb.server().peak_rss_mib());

    let reads = &traffic.reads;
    let acks = load::sorted(traffic.writes.ack_ms.clone());
    // Host interference only ever adds time, so the fastest repetition is
    // the repeatable one (see README.md, "Sandbox caveats").
    let fastest = kb.run_wall_s.iter().copied().fold(f64::INFINITY, f64::min);
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    let setups = kb.setup_s.len();
    for (name, value, unit, samples) in [
        ("setup_s", load::median(&kb.setup_s), "s", setups),
        (
            "pipeline_docs_per_s",
            plan.docs as f64 / fastest,
            "docs/s",
            setups,
        ),
        ("extraction_f1", kb.f1, "ratio", inputs.corpus.truth.len()),
        ("peak_rss_mb", kb.peak_rss_mib, "MiB", 1),
        ("read_p50_ms", reads.p50(), "ms", reads.samples()),
        ("read_p99_ms", reads.p99(), "ms", reads.samples()),
        (
            "read_max_rate_rps",
            traffic.max_rate as f64,
            "req/s",
            traffic.steps.len() + 1,
        ),
        (
            "ingest_docs_per_s",
            traffic.writes.docs_per_s(),
            "docs/s",
            acks.len(),
        ),
        (
            "ingest_ack_p50_ms",
            load::percentile(&acks, 0.5),
            "ms",
            acks.len(),
        ),
    ] {
        put(&mut out.end_to_end, name, value, unit, samples);
    }
    put(
        &mut out.info,
        "failed_share",
        share,
        "ratio",
        out.attempted as usize,
    );
    put(
        &mut out.info,
        "ingest_ack_p99_ms",
        load::percentile(&acks, 0.99),
        "ms",
        acks.len(),
    );
    for step in std::iter::once(reads).chain(&traffic.steps) {
        if !step.answered.is_empty() {
            let name = format!("read_p99_ms@{}rps", step.rate);
            put(&mut out.info, &name, step.p99(), "ms", step.samples());
        }
    }
    if !layers {
        return Ok(());
    }

    put(&mut out.info, "batch_wall_ms", fastest * 1e3, "ms", setups);
    let reads_us = books.mean_us(&["relations", "marginals"]);
    let late = load::sorted(
        std::iter::once(reads)
            .chain(&traffic.steps)
            .flat_map(|s| s.late_ms.iter().copied())
            .collect(),
    );
    let docs_per_commit = books.wal_docs / f64::max(books.wal_batches, 1.0);
    for (name, value, unit, samples) in [
        (
            "serve.handler.relations_us",
            books.mean_us(&["relations"]),
            "us",
            1,
        ),
        (
            "serve.handler.marginals_us",
            books.mean_us(&["marginals"]),
            "us",
            1,
        ),
        (
            "serve.handler.documents_us",
            books.mean_us(&["documents"]),
            "us",
            1,
        ),
        (
            "serve.accept_wait_ms",
            reads.p50() - reads_us / 1e3,
            "ms",
            reads.samples(),
        ),
        (
            "serve.wal.group_commit_avg_batch",
            docs_per_commit,
            "count",
            1,
        ),
        (
            "serve.wal.fsyncs_per_doc",
            books.wal_batches / f64::max(books.wal_docs, 1.0),
            "count",
            1,
        ),
        ("serve.checkpoint.flushes", books.flushes, "count", 1),
        ("serve.wal.compactions", books.compactions, "count", 1),
        ("serve.admission.shed_total", books.shed, "count", 1),
        (
            "serve.start_s",
            load::median(&kb.start_s),
            "s",
            kb.start_s.len(),
        ),
        ("serve.recover_s", traffic.recover_s.unwrap_or(0.0), "s", 1),
        (
            "serve.recover_replayed_records",
            traffic.replayed.unwrap_or(0.0),
            "count",
            1,
        ),
        (
            "loadgen.late_p99_ms",
            load::percentile(&late, 0.99),
            "ms",
            late.len(),
        ),
        (
            "loadgen.ingest_ack_p99_ms",
            load::percentile(&acks, 0.99),
            "ms",
            acks.len(),
        ),
    ] {
        put(&mut out.per_layer, name, value, unit, samples);
    }
    Ok(())
}

/// Close the books on the running server, `SIGKILL` it, start another on
/// the same directories, and time that one from spawn to `/readyz` 200.
fn recover(
    paths: &Paths,
    kb: &mut Kb,
    books: &mut Books,
    traffic: &mut Traffic,
) -> Result<(), String> {
    books.absorb(kb.server())?;
    kb.kill_server();
    let server = Server::spawn(paths, &kb.checkpoint)?;
    traffic.recover_s = Some(server.start.as_secs_f64());
    traffic.replayed = get_json(&server, "/metrics")?["wal"]["replayed_records"].as_f64();
    kb.server = Some(server);
    Ok(())
}
