//! `deepdive` — run DDlog programs from the command line.
//!
//! ```text
//! deepdive check <program.ddl>
//!     Parse and validate a DDlog program; print its relations and rules.
//!
//! deepdive run <program.ddl> --data <dir> [options]
//!     Load `<Relation>.tsv` files from the data directory for every base
//!     relation, execute the full pipeline, and write each query relation to
//!     `<out>/<Relation>.tsv` with a trailing probability column, plus a
//!     machine-readable `report.json`.
//!
//!     --out <dir>            output directory (default: ./deepdive-out)
//!     --threshold <p>        output threshold (default 0.9; 0 = everything)
//!     --epochs <n>           learning epochs (default 100)
//!     --samples <n>          inference sweeps (default 1000)
//!     --seed <n>             run seed (default 221)
//!     --threads <n>          independent Gibbs chains for inference
//!                            (default: $DEEPDIVE_THREADS, else the
//!                            machine's available parallelism); rules,
//!                            grounding and learning are sequential, so the
//!                            grounded graph, plans and learned weights are
//!                            identical at any count and only the marginals
//!                            depend on (seed, threads)
//!     --calibration          print the Figure-5 calibration table
//!
//!   storage engine:
//!     --memory-budget-mb <n> resident-bytes budget for relation storage;
//!                            sealed row groups spill to disk as segments
//!                            and decoded copies are evicted oldest-first
//!                            over the budget (default: unbounded, fully
//!                            in-memory)
//!     --spill-dir <dir>      where spilled segments go (default:
//!                            <tmp>/deepdive-spill/run-<pid>)
//!
//!   fault tolerance:
//!     --strict               reject the load on the first malformed row
//!                            (the default ingest policy)
//!     --max-error-rate <r>   permissive ingest: quarantine malformed rows,
//!                            fail only if their fraction exceeds r
//!     --udf-policy <p>       default UDF failure policy: fail | skip |
//!                            quarantine (default fail)
//!     --deadline-secs <n>    wall-clock budget for learning and for
//!                            inference; on expiry partial results are
//!                            returned and the exit code is 5
//!     --checkpoint <dir>     write per-phase artifacts to a run directory
//!     --resume <dir>         resume from a run directory, skipping phases
//!                            whose artifacts are present (implies
//!                            --checkpoint <dir>)
//!
//! deepdive serve <program.ddl> --resume <dir> [options]
//!     Load a completed run's checkpoint into resident storage and serve it
//!     as a long-lived HTTP daemon. Queries (`GET /relations/{name}`,
//!     `GET /marginals/{relation}`, `GET /healthz`, `GET /readyz`,
//!     `GET /metrics`) are answered from an immutable snapshot;
//!     `POST /documents` is fsync'd to a write-ahead log, then ingested
//!     through the incremental (DRed) grounding path, refreshed with a
//!     bounded Gibbs pass, and atomically published as the next snapshot
//!     epoch. Readers never see a half-applied update. On restart the WAL
//!     is replayed (`/readyz` answers 503 until the replayed epoch is
//!     live); SIGTERM/SIGINT drains in-flight requests, flushes a final
//!     checkpoint, truncates the WAL, and exits 0.
//!
//!     --addr <host:port>     bind address (default 127.0.0.1:8090)
//!     --workers <n>          request worker threads (default 4)
//!     --page-limit <n>       max rows per response page (default 100)
//!     --wal-dir <dir>        where the ingest write-ahead log lives
//!                            (default: <resume dir>/wal)
//!     --no-wal               disable the WAL: acknowledge ingests from
//!                            memory only (exploratory serving)
//!     --linger-ms <n>        group-commit window: concurrent ingests that
//!                            arrive within n ms share one WAL fsync
//!                            (default 2; 0 = no wait, batch of one)
//!     --wal-segment-bytes <n> rotate the WAL into a new segment once the
//!                            active one reaches n bytes (default 4 MiB);
//!                            checkpointed segments are deleted whole
//!     --checkpoint-full-every <n> rewrite the full database checkpoint
//!                            after n incremental deltas (default 16;
//!                            0 keeps chaining deltas forever)
//!     --max-inflight <n>     admission bound; connections beyond this are
//!                            shed with 503 + Retry-After (default 64)
//!     --ingest-rate <r>      token-bucket limit on POST /documents in
//!                            requests/second, answered 429 over the limit
//!                            (default: unlimited)
//!     --drain-secs <n>       graceful-shutdown budget for in-flight
//!                            requests (default 5)
//!     --max-subscriptions <n> cap on live subscriptions registered via
//!                            POST /subscriptions; beyond it new ones are
//!                            refused with 429 (default 64)
//!     --sub-queue-bytes <n>  per-subscriber delta-queue budget; a consumer
//!                            that falls further behind is shed with a
//!                            `lagged` frame and re-based, never blocking
//!                            ingest (default 1 MiB)
//!     plus `run`'s inference options (`--samples`, `--seed`, `--threads`,
//!     ...), which size the marginal refresh after each ingest.
//!
//!   replication:
//!     --follow <url>         run as a read-only replica of the primary at
//!                            `http://host:port`: tail its WAL stream,
//!                            apply each record through DRed/IVM, serve
//!                            reads at bounded epoch lag, answer
//!                            `POST /documents` with 405. Requires the WAL
//!                            (incompatible with --no-wal); seed the
//!                            replica from a copy of the primary's run
//!                            directory. Exits 7 if histories diverge.
//!     --max-lag-epochs <n>   follower readiness gate: `/readyz` answers
//!                            503 while the replica trails the primary by
//!                            more than n epochs (default 16)
//!     --scrub-secs <n>       anti-entropy scrubber interval: re-verify
//!                            every WAL frame checksum and checkpoint
//!                            artifact hash in the background every n
//!                            seconds, quarantine + repair what fails
//!                            (followers resync from the primary, the
//!                            primary rewrites from resident state), and
//!                            degrade to read-only `/readyz` "corrupt" when
//!                            repair is impossible (default: off)
//!
//! deepdive promote <url> [--force]
//!     Ask the follower at `http://host:port` to become the primary
//!     (`POST /promote`): it stops tailing, bumps the replication term,
//!     and starts accepting writes. The deposed primary, on seeing the
//!     higher term, fences itself and must be restarted with --follow
//!     pointing at the new primary. Refused with 409 while the follower
//!     still lags its primary unless --force is given (--force may drop
//!     the unreplicated suffix). Exits 0 on success, 1 otherwise.
//!
//! deepdive requeue <program.ddl> --resume <dir> [options]
//!     Restore the database and grounding state from a run directory's
//!     checkpoint, drain every `<Relation>__errors` quarantine table
//!     (re-parsing ingest payloads against the current schema and releasing
//!     UDF-stage rows for the — presumably fixed — UDFs to reprocess), route
//!     the repaired rows through incremental view maintenance so relations
//!     derived from them refresh too, then re-run learning and inference and
//!     write fresh outputs. Accepts the same options as `run`.
//! ```
//!
//! Exit codes: 0 success; 1 runtime error; 2 usage error; 3 program compile
//! error; 4 ingest failure (malformed data, or over the error budget);
//! 5 completed with degraded (deadline-truncated) results; 6 checkpoint
//! corrupt (an artifact is missing or its content hash disagrees with the
//! manifest — `requeue` and `serve` refuse rather than restore bad state);
//! 7 replication diverged (a follower's history forked from its primary's —
//! the replica drains, keeps its state for inspection, and must be re-seeded);
//! 8 durable storage failure (the disk under the WAL or checkpoint returned
//! ENOSPC/EIO — the daemon refuses further writes, drains, and reports the
//! failing path; restart it once the disk is healthy).
//!
//! The standard feature library (`f_phrase`, `f_words_between`, `f_dist`,
//! `f_left`, `f_right`, `f_neg`, `f_context`) is pre-registered; programs
//! needing custom UDFs should use the `deepdive-core` library API instead.

use deepdive_core::{
    render_calibration, Checkpoint, CheckpointError, DeepDive, DeepDiveError, RunConfig, RunReport,
};
use deepdive_ddlog::compile;
use deepdive_inference::RefreshBudget;
use deepdive_sampler::{GibbsOptions, LearnOptions};
use deepdive_serve::{ServeConfig, Server};
use deepdive_storage::{row_to_tsv, FailurePolicy, IngestPolicy, StorageError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const EXIT_OTHER: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_COMPILE: u8 = 3;
const EXIT_INGEST: u8 = 4;
const EXIT_DEGRADED: u8 = 5;
const EXIT_CHECKPOINT: u8 = 6;
const EXIT_DIVERGED: u8 = 7;
const EXIT_STORAGE: u8 = 8;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(args.get(1)),
        Some("run") => run(&args[1..], Mode::Run),
        Some("requeue") => run(&args[1..], Mode::Requeue),
        Some("serve") => serve(&args[1..]),
        Some("promote") => promote_cmd(&args[1..]),
        _ => {
            usage();
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn usage() {
    eprintln!("usage: deepdive check <program.ddl>");
    eprintln!("       deepdive run <program.ddl> --data <dir> [--out <dir>] [--threshold p]");
    eprintln!("                    [--epochs n] [--samples n] [--seed n] [--threads n]");
    eprintln!("                    [--calibration]");
    eprintln!(
        "                    [--strict | --max-error-rate r] [--udf-policy fail|skip|quarantine]"
    );
    eprintln!("                    [--deadline-secs n] [--checkpoint <dir> | --resume <dir>]");
    eprintln!("                    [--memory-budget-mb n] [--spill-dir <dir>]");
    eprintln!("       deepdive requeue <program.ddl> --resume <dir> [run options]");
    eprintln!("       deepdive serve <program.ddl> --resume <dir> [--addr host:port]");
    eprintln!("                    [--workers n] [--page-limit n] [--wal-dir <dir> | --no-wal]");
    eprintln!("                    [--linger-ms n] [--wal-segment-bytes n]");
    eprintln!("                    [--checkpoint-full-every n]");
    eprintln!("                    [--max-inflight n] [--ingest-rate r] [--drain-secs n]");
    eprintln!("                    [--max-subscriptions n] [--sub-queue-bytes n]");
    eprintln!("                    [--follow <primary-url>] [--max-lag-epochs n]");
    eprintln!("                    [--scrub-secs n]");
    eprintln!("                    [run options]");
    eprintln!("       deepdive promote <url> [--force]");
}

fn check(path: Option<&String>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("deepdive check: missing program path");
        return ExitCode::from(EXIT_USAGE);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("deepdive: cannot read {path}: {e}");
            return ExitCode::from(EXIT_OTHER);
        }
    };
    match compile(&src) {
        Ok(prog) => {
            println!("{path}: OK");
            println!("  relations:");
            for (schema, query) in &prog.schemas {
                println!("    {}{}", schema, if *query { "   [query]" } else { "" });
            }
            println!("  derivation rules: {}", prog.derivation_rules.len());
            for r in &prog.derivation_rules {
                println!("    {} ({})", r.name, r.head.relation);
            }
            println!("  factor rules: {}", prog.factor_rules.len());
            for r in &prog.factor_rules {
                println!("    {} ({:?}, weight {:?})", r.name, r.function, r.weight);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::from(EXIT_COMPILE)
        }
    }
}

/// What the top-level invocation does with the database before the run.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Load `.tsv` files and run the pipeline.
    Run,
    /// Restore the checkpointed database, drain quarantine tables, re-run.
    Requeue,
    /// Restore the checkpointed state and serve it as a long-lived daemon.
    Serve,
}

struct RunArgs {
    program: PathBuf,
    data: Option<PathBuf>,
    out: PathBuf,
    threshold: f64,
    epochs: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    calibration: bool,
    ingest: IngestPolicy,
    udf_policy: FailurePolicy,
    deadline: Option<Duration>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    memory_budget_mb: Option<u64>,
    spill_dir: Option<PathBuf>,
    addr: String,
    workers: usize,
    page_limit: usize,
    wal_dir: Option<PathBuf>,
    no_wal: bool,
    linger_ms: u64,
    wal_segment_bytes: u64,
    checkpoint_full_every: u64,
    max_inflight: usize,
    ingest_rate: Option<f64>,
    drain_secs: f64,
    max_subscriptions: usize,
    sub_queue_bytes: usize,
    follow: Option<String>,
    max_lag_epochs: u64,
    scrub_secs: f64,
}

fn parse_run_args(args: &[String], mode: Mode) -> Result<RunArgs, String> {
    let mut program = None;
    let mut data = None;
    let mut out = PathBuf::from("deepdive-out");
    let mut threshold = 0.9;
    let mut epochs = 100;
    let mut samples = 1000;
    let mut seed = 221u64;
    let mut threads =
        deepdive_storage::threads_from_env().unwrap_or_else(deepdive_storage::default_threads);
    let mut calibration = false;
    let mut ingest = IngestPolicy::Strict;
    let mut udf_policy = FailurePolicy::Fail;
    let mut deadline = None;
    let mut checkpoint = None;
    let mut resume = false;
    let mut memory_budget_mb = None;
    let mut spill_dir = None;
    let mut addr = String::from("127.0.0.1:8090");
    let mut workers = 4usize;
    let mut page_limit = 100usize;
    let mut wal_dir = None;
    let mut no_wal = false;
    let mut linger_ms = 2u64;
    let mut wal_segment_bytes = deepdive_serve::DEFAULT_SEGMENT_BYTES;
    let mut checkpoint_full_every = 16u64;
    let mut max_inflight = 64usize;
    let mut ingest_rate = None;
    let mut drain_secs = 5.0f64;
    let mut max_subscriptions = 64usize;
    let mut sub_queue_bytes = 1usize << 20;
    let mut follow = None;
    let mut max_lag_epochs = 16u64;
    let mut scrub_secs = 0.0f64;

    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let mut take = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--data" => data = Some(PathBuf::from(take("--data")?)),
            "--out" => out = PathBuf::from(take("--out")?),
            "--threshold" => {
                threshold = take("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?
            }
            "--epochs" => {
                epochs = take("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--samples" => {
                samples = take("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                threads = take("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads: must be at least 1".into());
                }
            }
            "--calibration" => calibration = true,
            "--strict" => ingest = IngestPolicy::Strict,
            "--max-error-rate" => {
                let r: f64 = take("--max-error-rate")?
                    .parse()
                    .map_err(|e| format!("--max-error-rate: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--max-error-rate: {r} is not in [0, 1]"));
                }
                ingest = IngestPolicy::Permissive { max_error_rate: r };
            }
            "--udf-policy" => {
                udf_policy = match take("--udf-policy")?.as_str() {
                    "fail" => FailurePolicy::Fail,
                    "skip" => FailurePolicy::SkipTuple,
                    "quarantine" => FailurePolicy::Quarantine,
                    other => {
                        return Err(format!(
                            "--udf-policy: `{other}` is not fail | skip | quarantine"
                        ))
                    }
                };
            }
            "--deadline-secs" => {
                let secs: f64 = take("--deadline-secs")?
                    .parse()
                    .map_err(|e| format!("--deadline-secs: {e}"))?;
                if secs <= 0.0 {
                    return Err(format!("--deadline-secs: {secs} must be positive"));
                }
                deadline = Some(Duration::from_secs_f64(secs));
            }
            "--memory-budget-mb" => {
                let mb: u64 = take("--memory-budget-mb")?
                    .parse()
                    .map_err(|e| format!("--memory-budget-mb: {e}"))?;
                if mb == 0 {
                    return Err("--memory-budget-mb: must be at least 1".into());
                }
                memory_budget_mb = Some(mb);
            }
            "--spill-dir" => spill_dir = Some(PathBuf::from(take("--spill-dir")?)),
            "--addr" => addr = take("--addr")?,
            "--workers" => {
                workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers: must be at least 1".into());
                }
            }
            "--page-limit" => {
                page_limit = take("--page-limit")?
                    .parse()
                    .map_err(|e| format!("--page-limit: {e}"))?;
                if page_limit == 0 {
                    return Err("--page-limit: must be at least 1".into());
                }
            }
            "--wal-dir" => wal_dir = Some(PathBuf::from(take("--wal-dir")?)),
            "--no-wal" => no_wal = true,
            "--linger-ms" => {
                linger_ms = take("--linger-ms")?
                    .parse()
                    .map_err(|e| format!("--linger-ms: {e}"))?;
            }
            "--wal-segment-bytes" => {
                wal_segment_bytes = take("--wal-segment-bytes")?
                    .parse()
                    .map_err(|e| format!("--wal-segment-bytes: {e}"))?;
                if wal_segment_bytes == 0 {
                    return Err("--wal-segment-bytes: must be at least 1".into());
                }
            }
            "--checkpoint-full-every" => {
                checkpoint_full_every = take("--checkpoint-full-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-full-every: {e}"))?;
            }
            "--max-inflight" => {
                max_inflight = take("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
                if max_inflight == 0 {
                    return Err("--max-inflight: must be at least 1".into());
                }
            }
            "--ingest-rate" => {
                let r: f64 = take("--ingest-rate")?
                    .parse()
                    .map_err(|e| format!("--ingest-rate: {e}"))?;
                if r <= 0.0 {
                    return Err(format!("--ingest-rate: {r} must be positive"));
                }
                ingest_rate = Some(r);
            }
            "--drain-secs" => {
                drain_secs = take("--drain-secs")?
                    .parse()
                    .map_err(|e| format!("--drain-secs: {e}"))?;
                if drain_secs < 0.0 {
                    return Err(format!("--drain-secs: {drain_secs} must be non-negative"));
                }
            }
            "--max-subscriptions" => {
                max_subscriptions = take("--max-subscriptions")?
                    .parse()
                    .map_err(|e| format!("--max-subscriptions: {e}"))?;
                if max_subscriptions == 0 {
                    return Err("--max-subscriptions: must be at least 1".into());
                }
            }
            "--sub-queue-bytes" => {
                sub_queue_bytes = take("--sub-queue-bytes")?
                    .parse()
                    .map_err(|e| format!("--sub-queue-bytes: {e}"))?;
                if sub_queue_bytes < 1024 {
                    return Err("--sub-queue-bytes: must be at least 1024".into());
                }
            }
            "--follow" => follow = Some(take("--follow")?),
            "--max-lag-epochs" => {
                max_lag_epochs = take("--max-lag-epochs")?
                    .parse()
                    .map_err(|e| format!("--max-lag-epochs: {e}"))?;
            }
            "--scrub-secs" => {
                scrub_secs = take("--scrub-secs")?
                    .parse()
                    .map_err(|e| format!("--scrub-secs: {e}"))?;
                if scrub_secs < 0.0 {
                    return Err(format!("--scrub-secs: {scrub_secs} must be non-negative"));
                }
            }
            "--checkpoint" => checkpoint = Some(PathBuf::from(take("--checkpoint")?)),
            "--resume" => {
                checkpoint = Some(PathBuf::from(take("--resume")?));
                resume = true;
            }
            other if !other.starts_with("--") && program.is_none() => {
                program = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if matches!(mode, Mode::Requeue | Mode::Serve) && checkpoint.is_none() {
        return Err(format!(
            "{} needs --resume <dir> (or --checkpoint <dir>)",
            if mode == Mode::Requeue {
                "requeue"
            } else {
                "serve"
            }
        ));
    }
    if mode == Mode::Run && data.is_none() {
        return Err("missing --data <dir>".into());
    }
    if follow.is_some() && no_wal {
        return Err(
            "--follow needs the WAL (it is the follower's durable resume point); \
             drop --no-wal"
                .into(),
        );
    }
    Ok(RunArgs {
        program: program.ok_or("missing program path")?,
        data,
        out,
        threshold,
        epochs,
        samples,
        seed,
        threads,
        calibration,
        ingest,
        udf_policy,
        deadline,
        checkpoint,
        resume,
        memory_budget_mb,
        spill_dir,
        addr,
        workers,
        page_limit,
        wal_dir,
        no_wal,
        linger_ms,
        wal_segment_bytes,
        checkpoint_full_every,
        max_inflight,
        ingest_rate,
        drain_secs,
        max_subscriptions,
        sub_queue_bytes,
        follow,
        max_lag_epochs,
        scrub_secs,
    })
}

/// Runtime failures, classified for the exit-code taxonomy.
enum RunFailure {
    Compile(String),
    Ingest(String),
    /// A checkpoint artifact is missing or fails its manifest hash.
    Checkpoint(String),
    /// A follower's history forked from its primary's (or the primary
    /// compacted past its resume point): the replica must be re-seeded.
    Diverged(String),
    /// The disk under the WAL or checkpoint failed (ENOSPC/EIO): durable
    /// writes cannot be trusted, so the daemon stops taking them.
    Storage(String),
    Other(String),
}

impl RunFailure {
    fn code(&self) -> u8 {
        match self {
            RunFailure::Compile(_) => EXIT_COMPILE,
            RunFailure::Ingest(_) => EXIT_INGEST,
            RunFailure::Checkpoint(_) => EXIT_CHECKPOINT,
            RunFailure::Diverged(_) => EXIT_DIVERGED,
            RunFailure::Storage(_) => EXIT_STORAGE,
            RunFailure::Other(_) => EXIT_OTHER,
        }
    }

    fn message(&self) -> &str {
        match self {
            RunFailure::Compile(m)
            | RunFailure::Ingest(m)
            | RunFailure::Checkpoint(m)
            | RunFailure::Diverged(m)
            | RunFailure::Storage(m)
            | RunFailure::Other(m) => m,
        }
    }
}

/// Checkpoint corruption gets its own exit code: restoring from a tampered
/// or half-written run directory is refused, not papered over.
fn classify_checkpoint(e: &DeepDiveError) -> Option<RunFailure> {
    match e {
        DeepDiveError::Checkpoint(c @ CheckpointError::Corrupt { .. }) => {
            Some(RunFailure::Checkpoint(c.to_string()))
        }
        _ => None,
    }
}

fn classify_storage(e: &StorageError) -> Option<RunFailure> {
    match e {
        StorageError::Malformed { .. } | StorageError::IngestBudgetExceeded { .. } => {
            Some(RunFailure::Ingest(e.to_string()))
        }
        _ => None,
    }
}

fn run(args: &[String], mode: Mode) -> ExitCode {
    let name = if mode == Mode::Requeue {
        "requeue"
    } else {
        "run"
    };
    let args = match parse_run_args(args, mode) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deepdive {name}: {e}");
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match run_inner(&args, mode) {
        Ok(degraded) => {
            if degraded {
                eprintln!(
                    "deepdive {name}: completed with DEGRADED results (deadline hit); exit {EXIT_DEGRADED}"
                );
                ExitCode::from(EXIT_DEGRADED)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(f) => {
            eprintln!("deepdive {name}: {}", f.message());
            ExitCode::from(f.code())
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args, Mode::Serve) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deepdive serve: {e}");
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match serve_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("deepdive serve: {}", f.message());
            ExitCode::from(f.code())
        }
    }
}

/// `deepdive promote <url> [--force]` — ask a follower to become primary.
fn promote_cmd(args: &[String]) -> ExitCode {
    let mut url = None;
    let mut force = false;
    for a in args {
        match a.as_str() {
            "--force" => force = true,
            other if !other.starts_with("--") && url.is_none() => url = Some(other.to_string()),
            other => {
                eprintln!("deepdive promote: unknown argument `{other}`");
                usage();
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let Some(url) = url else {
        eprintln!("deepdive promote: missing follower url");
        usage();
        return ExitCode::from(EXIT_USAGE);
    };
    match deepdive_serve::promote(&url, force) {
        Ok((200, body)) => {
            println!("{body}");
            ExitCode::SUCCESS
        }
        Ok((status, body)) => {
            eprintln!("deepdive promote: {url} answered {status}: {body}");
            ExitCode::from(EXIT_OTHER)
        }
        Err(e) => {
            eprintln!("deepdive promote: cannot reach {url}: {e}");
            ExitCode::from(EXIT_OTHER)
        }
    }
}

/// Build the program, restore (and verify) the checkpoint, serve forever.
fn serve_inner(args: &RunArgs) -> Result<(), RunFailure> {
    let src = std::fs::read_to_string(&args.program)
        .map_err(|e| RunFailure::Other(format!("cannot read {}: {e}", args.program.display())))?;
    compile(&src).map_err(|e| RunFailure::Compile(e.to_string()))?;
    let config = RunConfig {
        threshold: args.threshold,
        inference: GibbsOptions {
            burn_in: (args.samples / 10).max(10),
            samples: args.samples,
            seed: args.seed,
            clamp_evidence: true,
            deadline: args.deadline,
        },
        seed: args.seed,
        threads: args.threads,
        memory_budget_mb: args.memory_budget_mb,
        spill_dir: args.spill_dir.clone(),
        ..Default::default()
    };
    let mut dd = DeepDive::builder(&src)
        .standard_features()
        .default_udf_policy(args.udf_policy)
        .config(config)
        .build()
        .map_err(|e| RunFailure::Other(e.to_string()))?;

    let dir = args.checkpoint.clone().expect("serve requires --resume");
    let ckpt = Checkpoint::new(dir.clone()).map_err(|e| RunFailure::Other(e.to_string()))?;
    let phases = dd
        .load_checkpoint(&ckpt)
        .map_err(|e| classify_checkpoint(&e).unwrap_or_else(|| RunFailure::Other(e.to_string())))?;
    let restored: Vec<&str> = phases.iter().map(|p| p.as_str()).collect();
    println!("restored checkpoint phases: {}", restored.join(", "));

    // Durability defaults: the WAL lives next to the checkpoint it extends,
    // and the graceful-shutdown checkpoint overwrites the resume directory's
    // artifacts (the WAL is only truncated once that flush succeeds).
    let wal_dir = if args.no_wal {
        None
    } else {
        Some(args.wal_dir.clone().unwrap_or_else(|| dir.join("wal")))
    };
    let faults = std::sync::Arc::new(deepdive_core::FaultInjector::from_env());
    // Bridge the injector into the storage engine's process-global spill
    // hook so DEEPDIVE_FAULTS=disk_* also bites spilled segments (one
    // server per process in the CLI, so the global is unambiguous).
    {
        let faults = std::sync::Arc::clone(&faults);
        deepdive_storage::install_spill_fault_hook(std::sync::Arc::new(move |point, _path| {
            faults.trips(point)
        }));
    }
    let serve_config = ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        page_limit: args.page_limit,
        refresh: RefreshBudget::default(),
        wal_dir,
        checkpoint_dir: Some(dir),
        linger: Duration::from_millis(args.linger_ms),
        wal_segment_bytes: args.wal_segment_bytes,
        checkpoint_full_every: args.checkpoint_full_every,
        max_inflight: args.max_inflight,
        ingest_rate: args.ingest_rate,
        drain: Duration::from_secs_f64(args.drain_secs),
        faults,
        follow: args.follow.clone(),
        max_lag_epochs: args.max_lag_epochs,
        max_subscriptions: args.max_subscriptions,
        sub_queue_bytes: args.sub_queue_bytes,
        scrub_interval: Duration::from_secs_f64(args.scrub_secs),
        ..Default::default()
    };
    let server = Server::new(dd, &serve_config).map_err(|e| RunFailure::Other(e.to_string()))?;
    let addr = server
        .addr()
        .map_err(|e| RunFailure::Other(e.to_string()))?;
    let snapshot = server.state().current();
    println!(
        "deepdive serve: http://{addr} (epoch {}, {} relations / {} rows, {} marginal rows)",
        snapshot.epoch,
        snapshot.db.len(),
        snapshot.db.total_rows(),
        snapshot.total_marginals()
    );
    if server.pending_replay() > 0 {
        println!(
            "deepdive serve: replaying {} WAL record(s); /readyz answers 503 until done",
            server.pending_replay()
        );
    }
    if let Some(primary) = &args.follow {
        println!(
            "deepdive serve: read-only replica following {primary} \
             (max lag {} epochs)",
            args.max_lag_epochs
        );
    }
    deepdive_serve::signals::install();
    let state = server.state();
    let handle = server
        .start()
        .map_err(|e| RunFailure::Other(e.to_string()))?;
    // `run_until` also returns when replication fails permanently; the
    // drain below still flushes a checkpoint so the diverged state can be
    // inspected, then the dedicated exit code tells the supervisor not to
    // blindly restart (a restart would just diverge again).
    let summary = handle
        .run_until(deepdive_serve::signals::shutdown_flag())
        .map_err(|e| RunFailure::Other(e.to_string()))?;
    if let Some(msg) = state.storage_fatal_error() {
        // The state message already names the failure class and path.
        return Err(RunFailure::Storage(msg));
    }
    if let Some(msg) = state.replication().fatal_error() {
        return Err(RunFailure::Diverged(format!(
            "replication stopped permanently: {msg}"
        )));
    }
    if summary.stragglers > 0 {
        eprintln!(
            "deepdive serve: exited with {} request(s) undrained",
            summary.stragglers
        );
    }
    println!(
        "deepdive serve: shut down cleanly (final checkpoint {})",
        if summary.checkpoint_flushed {
            "flushed"
        } else {
            "NOT flushed; WAL kept"
        }
    );
    Ok(())
}

/// Returns whether the run completed degraded.
fn run_inner(args: &RunArgs, mode: Mode) -> Result<bool, RunFailure> {
    let src = std::fs::read_to_string(&args.program)
        .map_err(|e| RunFailure::Other(format!("cannot read {}: {e}", args.program.display())))?;
    let config = RunConfig {
        threshold: args.threshold,
        learn: LearnOptions {
            epochs: args.epochs,
            seed: args.seed,
            deadline: args.deadline,
            ..Default::default()
        },
        inference: GibbsOptions {
            burn_in: (args.samples / 10).max(10),
            samples: args.samples,
            seed: args.seed,
            clamp_evidence: true,
            deadline: args.deadline,
        },
        compute_calibration: args.calibration,
        seed: args.seed,
        checkpoint_dir: args.checkpoint.clone(),
        // A requeue invalidates the old artifacts: the restored database is
        // about to change, so every phase must re-execute (and re-checkpoint).
        resume: args.resume && mode == Mode::Run,
        threads: args.threads,
        memory_budget_mb: args.memory_budget_mb,
        spill_dir: args.spill_dir.clone(),
        ..Default::default()
    };
    // Compile separately first so program errors exit 3, not 1.
    let ddlog = compile(&src).map_err(|e| RunFailure::Compile(e.to_string()))?;
    let mut dd = DeepDive::builder(&src)
        .standard_features()
        .default_udf_policy(args.udf_policy)
        .config(config)
        .build()
        .map_err(|e| RunFailure::Other(e.to_string()))?;

    let map_run_err = |e: deepdive_core::DeepDiveError| match &e {
        deepdive_core::DeepDiveError::Ddlog(d) => RunFailure::Compile(d.to_string()),
        deepdive_core::DeepDiveError::Storage(s) => {
            classify_storage(s).unwrap_or_else(|| RunFailure::Other(e.to_string()))
        }
        _ => RunFailure::Other(e.to_string()),
    };

    let mut quarantined_rows = 0usize;
    let result = match mode {
        Mode::Serve => unreachable!("serve has its own entry point"),
        Mode::Run => {
            // Load <Relation>.tsv for every relation (query relations usually
            // have no file — they are populated by rules).
            let data = args.data.as_ref().expect("run mode requires --data");
            let mut loaded = 0usize;
            for (schema, _) in &ddlog.schemas {
                let path: PathBuf = data.join(format!("{}.tsv", schema.name));
                if path.exists() {
                    let text = std::fs::read_to_string(&path).map_err(|e| {
                        RunFailure::Other(format!("cannot read {}: {e}", path.display()))
                    })?;
                    let report = dd
                        .db
                        .load_tsv_with_policy(&schema.name, &text, args.ingest)
                        .map_err(|e| {
                            classify_storage(&e).unwrap_or_else(|| RunFailure::Other(e.to_string()))
                        })?;
                    if report.rows_failed > 0 {
                        println!(
                            "loaded {:>7} rows into {} ({} malformed rows quarantined)",
                            report.rows_loaded, schema.name, report.rows_failed
                        );
                    } else {
                        println!("loaded {:>7} rows into {}", report.rows_loaded, schema.name);
                    }
                    loaded += report.rows_loaded;
                    quarantined_rows += report.rows_failed;
                }
            }
            if loaded == 0 && !args.resume {
                return Err(RunFailure::Ingest(format!(
                    "no .tsv files found under {}",
                    data.display()
                )));
            }
            dd.run().map_err(map_run_err)?
        }
        Mode::Requeue => {
            // Restore the last run's database *and* grounding state, then
            // drain the quarantine tables: ingest payloads are re-parsed
            // against the (presumably fixed) schema and routed through
            // incremental view maintenance — so relations derived from the
            // requeued bases refresh too — while UDF payloads are released
            // for the re-run's (presumably fixed) extractors to reprocess.
            let dir = args.checkpoint.clone().expect("requeue requires --resume");
            let ckpt = Checkpoint::new(dir).map_err(|e| RunFailure::Other(e.to_string()))?;
            // Every artifact is re-hashed against the manifest before any
            // state is restored; a mismatch refuses the requeue (exit 6)
            // instead of silently re-running over corrupt state.
            dd.load_checkpoint(&ckpt).map_err(|e| {
                classify_checkpoint(&e).unwrap_or_else(|| RunFailure::Other(e.to_string()))
            })?;
            let (reports, result) = dd.requeue().map_err(map_run_err)?;
            if reports.is_empty() {
                println!("requeue: no quarantined rows found; re-running inference as-is");
            }
            for r in &reports {
                println!(
                    "requeue {}: {} rows re-ingested, {} UDF payloads released, {} still failing",
                    r.relation, r.reingested, r.udf_retries, r.still_failing
                );
            }
            result
        }
    };
    if !result.phases_resumed.is_empty() {
        let resumed: Vec<&str> = result.phases_resumed.iter().map(|p| p.as_str()).collect();
        println!("resumed phases from checkpoint: {}", resumed.join(", "));
    }
    println!(
        "graph: {} variables / {} factors / {} evidence",
        result.num_variables, result.num_factors, result.num_evidence
    );
    println!(
        "phases: candidates {:?}, supervision {:?}, learning+inference {:?} [{} thread{}]",
        result.timings.candidate_extraction,
        result.timings.supervision,
        result.timings.learning_inference(),
        args.threads,
        if args.threads == 1 { "" } else { "s" }
    );

    std::fs::create_dir_all(&args.out).map_err(|e| RunFailure::Other(e.to_string()))?;
    for schema in ddlog.query_relations() {
        let rows = result.output(&schema.name, args.threshold);
        let path: PathBuf = args.out.join(format!("{}.tsv", schema.name));
        let mut text = String::new();
        for (row, p) in &rows {
            text.push_str(&row_to_tsv(row));
            text.push('\t');
            text.push_str(&format!("{p:.4}\n"));
        }
        std::fs::write(&path, text).map_err(|e| RunFailure::Other(e.to_string()))?;
        println!(
            "wrote {:>7} rows (p >= {}) to {}",
            rows.len(),
            args.threshold,
            path.display()
        );
    }

    // Weight summary.
    let weights_path: &Path = &args.out.join("weights.tsv");
    let mut wtext = String::from("# weight\treferences\tkey\n");
    let mut ws: Vec<_> = result.weights.iter().filter(|w| !w.fixed).collect();
    ws.sort_by(|a, b| b.value.abs().total_cmp(&a.value.abs()));
    for w in ws {
        wtext.push_str(&format!("{:+.4}\t{}\t{}\n", w.value, w.references, w.key));
    }
    std::fs::write(weights_path, wtext).map_err(|e| RunFailure::Other(e.to_string()))?;
    println!("wrote learned weights to {}", weights_path.display());

    // Structured run report.
    let report = RunReport::new(&dd, &result);
    let report_path = args.out.join("report.json");
    std::fs::write(&report_path, report.to_json()).map_err(|e| RunFailure::Other(e.to_string()))?;
    println!("wrote run report to {}", report_path.display());
    if report.total_incidents() > 0 {
        println!(
            "fault summary: {} tuples lost across {} stages ({} rows quarantined at ingest)",
            report.total_incidents(),
            report.incidents.len(),
            quarantined_rows
        );
        for (stage, count) in &report.incidents {
            println!("  {stage}: {count}");
        }
    }

    if let Some(cal) = &result.calibration {
        println!("\nFigure-5 calibration (held-out evidence):");
        print!("{}", render_calibration(cal));
    }
    Ok(result.degraded())
}
