//! `ddbench-trace` — the per-layer half of the benchmark. It links the
//! crates and wraps calls into each layer's *public* functions in spans
//! (name, start, end, parent, doc id), on the same generated inputs
//! `ddbench` feeds the binary. Spans stay in memory and are written to
//! `--out` at exit; the last line of stdout is the per-layer metrics as one
//! JSON object for `ddbench` to fold in.
//!
//! The program has no spans of its own yet, so a parent's children here
//! are *replays*: `core.run` is one real `DeepDive::run`, and the layer
//! calls it makes are then repeated, in order, on an identical fresh
//! instance and attached to it by id. Self time is the parent's duration
//! minus its children's durations.
//!
//! The public functions called are listed in ../README.md; their
//! signatures are load-bearing for this package only — `ddbench` itself
//! never links them.

#[allow(dead_code)]
#[path = "../../src/gen.rs"]
mod gen;

use deepdive_core::{Checkpoint, CheckpointTracker, DeepDive, FaultInjector, RunConfig};
use deepdive_factorgraph::WeightStore;
use deepdive_inference::{bounded_options, refresh_marginals, RefreshBudget};
use deepdive_nlp::{Pipeline, PipelineOptions};
use deepdive_sampler::{
    learn_weights, learn_weights_model_averaging, parallel_marginals, GibbsOptions, LearnOptions,
};
use deepdive_serve::{ServeSnapshot, Wal};
use deepdive_storage::{row, BaseChange, Value};
use gen::{Corpus, IngestDoc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Map, Value as Json};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Threads of every traced call unless its metric is suffixed `_1t`.
const THREADS: usize = 2;
/// Documents of the developer-loop update (+N, then -N).
const UPDATE_DOCS: u64 = 20;
/// Documents replayed through the serve-side ingest steps.
const REPLAY_DOCS: u64 = 10;
/// The CLI's defaults, which `ddbench` runs the binary with.
const EPOCHS: usize = 100;
const SAMPLES: usize = 1000;
const RUN_SEED: u64 = 221;

type Error = Box<dyn std::error::Error>;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    doc: Option<u64>,
    start_us: u64,
    end_us: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Time `f` as a span; returns its value and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        doc: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_us = self.origin.elapsed().as_micros() as u64;
        let value = f();
        let end_us = self.origin.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            parent,
            doc,
            start_us,
            end_us,
        });
        (value, self.spans.len() - 1)
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) as f64 / 1e3
    }

    /// Durations of every span called `name`, in ms.
    fn all_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.ms(i))
            .collect()
    }

    fn children_ms(&self, parent: usize) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(parent))
            .map(|i| self.ms(i))
            .sum()
    }

    fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    json!({
                        "id": id,
                        "parent": s.parent,
                        "name": s.name,
                        "doc": s.doc,
                        "start_us": s.start_us,
                        "end_us": s.end_us
                    })
                })
                .collect(),
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

struct Metrics(Map);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.0.insert(
            name.to_string(),
            json!({"value": value, "unit": unit, "samples": samples}),
        );
    }
}

/// The configuration `deepdive run --epochs 100 --samples 1000` builds.
fn run_config(threads: usize, checkpoint: Option<PathBuf>) -> RunConfig {
    RunConfig {
        threshold: 0.9,
        learn: LearnOptions {
            epochs: EPOCHS,
            seed: RUN_SEED,
            ..LearnOptions::default()
        },
        inference: GibbsOptions {
            burn_in: (SAMPLES / 10).max(10),
            samples: SAMPLES,
            seed: RUN_SEED,
            clamp_evidence: true,
            deadline: None,
        },
        compute_calibration: false,
        seed: RUN_SEED,
        checkpoint_dir: checkpoint,
        threads,
        ..RunConfig::default()
    }
}

fn build(program: &str, threads: usize, checkpoint: Option<PathBuf>) -> Result<DeepDive, Error> {
    Ok(DeepDive::builder(program)
        .standard_features()
        .config(run_config(threads, checkpoint))
        .build()?)
}

/// Load the corpus the way the CLI does: one TSV text per base relation.
fn load(dd: &DeepDive, corpus: &Corpus) -> Result<usize, Error> {
    let mut rows = 0;
    for (file, text) in corpus.files() {
        if let Some(relation) = file.strip_suffix(".tsv").filter(|r| dd.db.has_relation(r)) {
            rows += dd.db.load_tsv(relation, &text)?;
        }
    }
    Ok(rows)
}

fn doc_changes(doc: &IngestDoc, delta: i64) -> Vec<BaseChange> {
    let rows = [
        ("Sentence", row![Value::Id(doc.sid), doc.text.as_str()]),
        (
            "Mention",
            row![Value::Id(doc.sid), Value::Id(doc.m1), doc.names[0].as_str()],
        ),
        (
            "Mention",
            row![
                Value::Id(doc.sid),
                Value::Id(doc.m1 + 1),
                doc.names[1].as_str()
            ],
        ),
        ("EL", row![Value::Id(doc.m1), doc.names[0].as_str()]),
        ("EL", row![Value::Id(doc.m1 + 1), doc.names[1].as_str()]),
    ];
    rows.into_iter()
        .map(|(relation, row)| BaseChange {
            relation: relation.into(),
            row,
            delta,
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// The layer calls `DeepDive::run` makes, one span each, on a loaded fresh
/// instance. `suffix_1t` replays record no parent.
fn replay_pipeline(
    t: &mut Tracer,
    dd: &mut DeepDive,
    parent: Option<usize>,
    threads: usize,
) -> Result<[usize; 5], Error> {
    let (delta, initial_load) = t.span("grounding.initial_load", parent, None, || {
        dd.grounder.initial_load(&dd.db)
    });
    delta?;
    // The fixpoint ran inside initial_load; evaluating the program again
    // re-derives the same relations, which times it on its own.
    let (derived, fixpoint) = t.span("storage.fixpoint", Some(initial_load), None, || {
        dd.grounder
            .engine()
            .program()
            .evaluate_ctx(&dd.db, dd.execution_context())
    });
    derived?;
    let ((mut graph, _), compile) = t.span("factorgraph.compile", parent, None, || {
        dd.grounder.state.compile()
    });
    // The holdout split of `DeepDive::run`, so learning sees what it sees.
    let mut rng = StdRng::seed_from_u64(dd.config.seed ^ 0x401D);
    for v in 0..graph.num_variables {
        if graph.is_evidence[v] && rng.gen::<f64>() < dd.config.holdout_fraction {
            graph.is_evidence[v] = false;
        }
    }
    let mut weights: WeightStore = dd.grounder.state.graph.weights.clone();
    weights.reset_learnable(0.0);
    let (_, learn) = t.span("sampler.learn", parent, None, || {
        if threads > 1 {
            learn_weights_model_averaging(&graph, &mut weights, &dd.config.learn, threads, 1)
        } else {
            learn_weights(&graph, &mut weights, &dd.config.learn)
        }
    });
    let (_, gibbs) = t.span("sampler.gibbs", parent, None, || {
        parallel_marginals(&graph, &weights.values(), &dd.config.inference, threads)
    });
    dd.grounder.state.graph.weights = weights;
    Ok([initial_load, fixpoint, compile, learn, gibbs])
}

fn main() -> Result<(), Error> {
    let mut workload = String::new();
    let mut seed = 1u64;
    let mut program = PathBuf::new();
    let mut scratch = PathBuf::new();
    let mut out = PathBuf::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]).into());
        };
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => seed = value.parse()?,
            "--program" => program = value.into(),
            "--scratch" => scratch = value.into(),
            "--out" => out = value.into(),
            other => return Err(format!("unknown option {other}").into()),
        }
    }
    let docs =
        gen::corpus_docs(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let source = std::fs::read_to_string(&program)?;
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)?;
    }
    std::fs::create_dir_all(&scratch)?;

    let corpus = Corpus::generate(seed, docs);
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut m = Metrics(Map::new());

    // nlp: raw text in, sentences out. The CLI ingests pre-tokenised TSVs,
    // so this is off every end-to-end path today.
    let pipeline = Pipeline::new(PipelineOptions::default());
    let (sentences, nlp) = t.span("nlp.process", None, None, || {
        corpus
            .raw_docs
            .iter()
            .enumerate()
            .map(|(i, raw)| pipeline.process(i as u64, raw).sentences.len())
            .sum::<usize>()
    });
    m.put("nlp.process_ms", t.ms(nlp), "ms", corpus.raw_docs.len());
    m.put("nlp.sentences", sentences as f64, "count", 1);

    let (compiled, compile) = t.span("ddlog.compile", None, None, || {
        deepdive_ddlog::compile(&source)
    });
    compiled?;
    m.put("ddlog.compile_ms", t.ms(compile), "ms", 1);

    // The real thing: one DeepDive::run writing a checkpoint, as the CLI's.
    let run_ckpt = scratch.join("run-ckpt");
    let mut dd = build(&source, THREADS, Some(run_ckpt.clone()))?;
    let (rows, load_span) = t.span("storage.load", None, None, || load(&dd, &corpus));
    m.put("storage.load_ms", t.ms(load_span), "ms", 1);
    m.put("storage.base_rows", rows? as f64, "count", 1);
    let (result, run) = t.span("core.run", None, None, || dd.run());
    let result = result?;
    m.put(
        "grounding.variables",
        result.num_variables as f64,
        "count",
        1,
    );
    m.put("grounding.factors", result.num_factors as f64, "count", 1);
    m.put(
        "sampler.learn_epochs",
        result.learn_epochs_run as f64,
        "count",
        1,
    );

    // Its layers, replayed on a fresh instance at the same thread count
    // (children of core.run), then single-threaded (the scaling baseline).
    let mut replay = build(&source, THREADS, None)?;
    load(&replay, &corpus)?;
    let [initial_load, fixpoint, compile, learn, gibbs] =
        replay_pipeline(&mut t, &mut replay, Some(run), THREADS)?;
    let saved = Checkpoint::new(scratch.join("ckpt"))?;
    let (save, save_span) = t.span("core.checkpoint.save", Some(run), None, || {
        replay.save_checkpoint(&saved)
    });
    save?;
    let derived: usize = ["MarriedCandidate", "MarriedMentions_Ev"]
        .iter()
        .filter_map(|r| replay.db.len(r).ok())
        .sum();
    m.put("storage.fixpoint_ms", t.ms(fixpoint), "ms", 1);
    m.put("storage.derived_rows", derived as f64, "count", 1);
    m.put("grounding.initial_load_ms", t.ms(initial_load), "ms", 1);
    m.put("factorgraph.compile_ms", t.ms(compile), "ms", 1);
    m.put("sampler.learn_ms", t.ms(learn), "ms", 1);
    m.put("sampler.gibbs_ms", t.ms(gibbs), "ms", 1);
    m.put(
        "sampler.gibbs_updates_per_s",
        (result.num_variables * SAMPLES) as f64 / (t.ms(gibbs) / 1e3),
        "1/s",
        1,
    );
    m.put("core.run_ms", t.ms(run), "ms", 1);
    m.put("core.self_ms", t.ms(run) - t.children_ms(run), "ms", 1);
    m.put(
        "core.run_children_share",
        t.children_ms(run) / t.ms(run),
        "ratio",
        1,
    );
    m.put("core.checkpoint.save_ms", t.ms(save_span), "ms", 1);
    m.put(
        "core.checkpoint.bytes",
        dir_bytes(saved.dir()) as f64,
        "B",
        1,
    );

    let mut single = build(&source, 1, None)?;
    load(&single, &corpus)?;
    let [initial_load, fixpoint, _, learn, gibbs] = replay_pipeline(&mut t, &mut single, None, 1)?;
    m.put("storage.fixpoint_ms_1t", t.ms(fixpoint), "ms", 1);
    m.put("grounding.initial_load_ms_1t", t.ms(initial_load), "ms", 1);
    m.put("sampler.learn_ms_1t", t.ms(learn), "ms", 1);
    m.put("sampler.gibbs_ms_1t", t.ms(gibbs), "ms", 1);
    drop(single);

    // A server's start: restore the checkpoint into a fresh instance. That
    // instance then plays the server for the per-document replay below.
    let mut served = build(&source, THREADS, None)?;
    let (restored, restore) = t.span("core.checkpoint.restore", None, None, || {
        served.load_checkpoint(&saved)
    });
    restored?;
    m.put("core.checkpoint.restore_ms", t.ms(restore), "ms", 1);

    // The developer loop (§5): +N documents through DeepDive::update —
    // incremental grounding, then a full re-learn and re-infer — and the
    // same N retracted; and the grounding step of each on its own. Inserts
    // beside retractions, so a DRed gain for one that costs the other shows.
    let update_docs: Vec<IngestDoc> = (0..UPDATE_DOCS)
        .map(|i| gen::ingest_doc(1_000_000 + i))
        .collect();
    let changes = |delta: i64| {
        update_docs
            .iter()
            .flat_map(|d| doc_changes(d, delta))
            .collect::<Vec<_>>()
    };
    let (r, ins) = t.span("core.update_insert", None, None, || dd.update(changes(1)));
    r?;
    let (r, del) = t.span("core.update_retract", None, None, || dd.update(changes(-1)));
    r?;
    m.put("core.update_insert_ms", t.ms(ins), "ms", 1);
    m.put("core.update_retract_ms", t.ms(del), "ms", 1);
    let (r, ins) = t.span("grounding.apply_update_insert", None, None, || {
        replay.grounder.apply_update(&replay.db, changes(1))
    });
    r?;
    let (r, del) = t.span("grounding.apply_update_retract", None, None, || {
        replay.grounder.apply_update(&replay.db, changes(-1))
    });
    r?;
    m.put("grounding.apply_update_insert_ms", t.ms(ins), "ms", 1);
    m.put("grounding.apply_update_retract_ms", t.ms(del), "ms", 1);

    // What `POST /documents` does per document, step by step on the served
    // instance: WAL append (fsync), DRed/IVM apply, bounded Gibbs refresh,
    // snapshot capture. The capture runs its own refresh inside, as in the
    // server, so an ack is append + apply + capture and the stand-alone
    // refresh span says how much of the capture it is.
    let (mut wal, _) = Wal::open(&scratch.join("wal"), Arc::new(FaultInjector::new()))?;
    let mut tracker = CheckpointTracker::default();
    served.save_checkpoint_incremental(&saved, &mut tracker, 16)?;
    let budget = RefreshBudget::default();
    let base = run_config(THREADS, None).inference;
    let (mut payload_bytes, mut factors, mut samples) = (0usize, 0usize, 0usize);
    let wal_before = wal.bytes();
    for i in 0..REPLAY_DOCS {
        let doc = gen::ingest_doc(i);
        payload_bytes += doc.body.len();
        let (_, ingest) = t.span("serve.ingest", None, Some(i), || ());
        let (seq, _) = t.span("serve.wal.append", Some(ingest), Some(i), || {
            wal.append(doc.body.as_bytes())
        });
        seq?;
        let (delta, _) = t.span("core.apply_base_changes", Some(ingest), Some(i), || {
            served.apply_base_changes(doc_changes(&doc, 1))
        });
        let delta = delta?;
        factors += delta.added_factors;
        let (graph, _) = served.grounder.state.compile();
        let weights = served.grounder.state.graph.weights.values();
        t.span("inference.refresh", Some(ingest), Some(i), || {
            refresh_marginals(&graph, &weights, &base, &budget, delta.total(), THREADS)
        });
        let opts = bounded_options(&base, &budget, delta.total());
        samples = opts.samples;
        t.span("serve.snapshot.capture", Some(ingest), Some(i), || {
            ServeSnapshot::capture(&served, i + 1, &opts)
        });
        t.spans[ingest].end_us = t.origin.elapsed().as_micros() as u64;
    }
    let n = REPLAY_DOCS as usize;
    let wal_append = median(t.all_ms("serve.wal.append"));
    let apply = median(t.all_ms("core.apply_base_changes"));
    let capture = median(t.all_ms("serve.snapshot.capture"));
    m.put("serve.wal.append_ms", wal_append, "ms", n);
    m.put(
        "serve.wal.bytes_per_doc_byte",
        (wal.bytes() - wal_before) as f64 / payload_bytes as f64,
        "ratio",
        n,
    );
    m.put("core.apply_base_changes_ms", apply, "ms", n);
    m.put(
        "grounding.delta_factors_per_doc",
        factors as f64 / n as f64,
        "count",
        n,
    );
    m.put(
        "inference.refresh_ms",
        median(t.all_ms("inference.refresh")),
        "ms",
        n,
    );
    m.put("inference.refresh_samples", samples as f64, "count", 1);
    m.put("serve.snapshot.capture_ms", capture, "ms", n);
    m.put("serve.replay.ack_ms", wal_append + apply + capture, "ms", n);

    // The background flusher's work after those documents: one incremental
    // checkpoint chained onto the full one written before them.
    let chain_before = dir_bytes(saved.dir());
    let (report, flush) = t.span("core.checkpoint.save_incremental", None, None, || {
        served.save_checkpoint_incremental(&saved, &mut tracker, 16)
    });
    report?;
    m.put("core.checkpoint.save_incremental_ms", t.ms(flush), "ms", 1);
    m.put(
        "core.checkpoint.delta_bytes",
        dir_bytes(saved.dir()).saturating_sub(chain_before) as f64,
        "B",
        1,
    );

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = json!({
        "workload": workload.as_str(),
        "seed": seed,
        "docs": docs,
        "threads": THREADS,
        "host_cpus": std::thread::available_parallelism().map_or(1, usize::from),
        "spans": t.to_json()
    });
    std::fs::write(&out, serde_json::to_string_pretty(&file)?)?;
    std::fs::remove_dir_all(&scratch)?;
    println!("{}", json!({"metrics": Json::Object(m.0)}));
    Ok(())
}
