//! `ddbench` — the repo's benchmark, measured strictly across the process
//! boundary: it generates inputs from `--seed`, spawns the built
//! `deepdive run` / `deepdive serve`, talks HTTP, and checks every answer.
//! It links no `crates/*` package. See README.md for what is measured, why,
//! and the contract the last line of `run --workload` follows.
//!
//! ```text
//! ddbench run --seed N [--seconds S]
//!     All four workloads with their per-layer trace: every metric by
//!     name, with unit and sample count. Exits 1 on a failed check.
//! ddbench run --workload W --seed N [--seconds S] [--trace 0|1]
//!     One workload; the last line of stdout is the result as one JSON
//!     object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//!     per-layer metrics.
//! ddbench gen --seed N [--workload W] [--out DIR]
//!     Write a workload's generated inputs and print their hash.
//! ddbench selfcheck [--seeds A,B] [--runs K] [--seconds S]
//!     Run the suite twice per seed on this build and fail if any
//!     end-to-end metric's two medians differ by more than its bound.
//! ```

mod gen;
mod http;
mod load;
mod proc;
mod workloads;

use proc::Paths;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Metric, Metrics, Outcome, WORKLOADS};

const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    seeds: Vec<u64>,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        seeds: vec![1, 2],
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = Some(value.clone()),
            "--runs" => parsed.runs = number()?.max(1) as usize,
            "--seeds" => {
                parsed.seeds = value
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--seeds {s}: {e}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(parsed)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_metrics(title: &str, metrics: &Metrics) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}");
    for (name, m) in metrics {
        println!(
            "    {name:<36} {:>14.4} {:<7} n={}",
            m.value, m.unit, m.samples
        );
    }
}

fn print_outcome(workload: &str, args: &Args, out: &Outcome) {
    let cpus = host_cpus();
    println!(
        "== {workload}  seed {}  {} s  host_cpus {cpus}{}  inputs {}",
        args.seed,
        args.seconds,
        if cpus < 2 { "  degraded_host" } else { "" },
        out.input_hash
    );
    print_metrics("end-to-end", &out.end_to_end);
    print_metrics("info", &out.info);
    print_metrics("per-layer", &out.per_layer);
    println!(
        "  checks: {} attempted, {} failed{}",
        out.attempted,
        out.failed,
        if out.correct() { "" } else { "  <-- FAILED" }
    );
    for e in &out.errors {
        println!("    error: {e}");
    }
    if !out.correct() {
        println!("    scratch kept at {}", out.scratch.display());
    }
}

/// Run the in-process tracer for this workload and fold its metrics in. A
/// tracer that fails leaves its metrics absent; the end-to-end numbers
/// never depend on it.
fn add_trace(paths: &Paths, workload: &str, args: &Args, out: &mut Outcome) {
    let traced = (|| {
        let span_file = paths
            .target
            .join("ddbench")
            .join(format!("trace-{workload}.json"));
        let output = Command::new(paths.tracer())
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .arg("--program")
            .arg(&paths.program)
            .arg("--scratch")
            .arg(paths.scratch(&format!("trace-{workload}-{}", std::process::id())))
            .arg("--out")
            .arg(&span_file)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run ddbench-trace: {e}"))?;
        if !output.status.success() {
            return Err(format!("ddbench-trace exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or("ddbench-trace printed nothing")?;
        serde_json::from_str(last).map_err(|e| format!("ddbench-trace output: {e}"))
    })();
    let traced: Value = match traced {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ddbench: traced per-layer metrics absent: {e}");
            return;
        }
    };
    for (name, m) in traced["metrics"].as_object().into_iter().flatten() {
        out.per_layer.insert(
            name.clone(),
            Metric {
                value: m["value"].as_f64().unwrap_or(0.0),
                unit: m["unit"].as_str().unwrap_or("").to_string(),
                samples: m["samples"].as_u64().unwrap_or(1) as usize,
            },
        );
    }
    let value = |m: &Metrics, k: &str| m.get(k).map(|m| m.value);
    if let (Some(wall), Some(run), Some(load)) = (
        value(&out.info, "batch_wall_ms"),
        value(&out.per_layer, "core.run_ms"),
        value(&out.per_layer, "storage.load_ms"),
    ) {
        let m = |value, unit: &str| Metric {
            value,
            unit: unit.to_string(),
            samples: 1,
        };
        out.per_layer
            .insert("cli.overhead_ms".into(), m(wall - run - load, "ms"));
        out.per_layer
            .insert("trace.overhead_ratio".into(), m(run / wall, "ratio"));
    }
}

fn run_one(
    paths: &Paths,
    workload: &str,
    args: &Args,
    layers: bool,
    tracer: bool,
) -> Result<Outcome, String> {
    let mut out = workloads::run(paths, workload, args.seed, args.seconds, layers)?;
    if layers && tracer && out.correct() {
        add_trace(paths, workload, args, &mut out);
    }
    Ok(out)
}

fn result_line(out: &Outcome, metrics: &Metrics) -> Value {
    let mut map = Map::new();
    for (name, m) in metrics {
        map.insert(name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    json!({
        "correct": out.correct(),
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(map)
    })
}

fn cmd_run(paths: &Paths, args: &Args) -> Result<bool, String> {
    paths.build_deepdive()?;
    // Built now even when this run will not trace, so that the one slow
    // build of a fresh checkout lands in its first run.
    let tracer = paths.build_tracer();
    if let Err(e) = &tracer {
        eprintln!("ddbench: {e}; traced per-layer metrics will be absent");
    }
    let tracer = tracer.is_ok();
    if let Some(workload) = &args.workload {
        let out = run_one(paths, workload, args, args.trace, tracer)?;
        print_outcome(workload, args, &out);
        let metrics = if args.trace {
            &out.per_layer
        } else {
            &out.end_to_end
        };
        println!("{}", result_line(&out, metrics));
        return Ok(out.correct());
    }
    let mut all_correct = true;
    for workload in WORKLOADS {
        let out = run_one(paths, workload, args, true, tracer)?;
        print_outcome(workload, args, &out);
        all_correct &= out.correct();
    }
    Ok(all_correct)
}

fn cmd_gen(paths: &Paths, args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().unwrap_or("batch_run");
    let inputs =
        workloads::Inputs::generate(workload, args.seed, args.seconds).ok_or("unknown workload")?;
    let dir = match &args.out {
        Some(dir) => std::path::PathBuf::from(dir),
        None => paths.scratch(&format!("gen-{workload}-{}", args.seed)),
    };
    let files = inputs
        .write(&dir)
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    println!(
        "{workload} seed {} for {} s: {files} files under {}",
        args.seed,
        args.seconds,
        dir.display()
    );
    println!("inputs {}", inputs.hash);
    Ok(true)
}

struct Spec {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn end_to_end_specs(paths: &Paths) -> Result<Vec<Spec>, String> {
    let file = paths.repo.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let json = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let specs = json["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end")?;
    specs
        .iter()
        .map(|s| {
            Ok(Spec {
                name: s["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: s["better"].as_str() == Some("higher"),
                bound: s["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Medians per (workload, metric) over `runs` runs of the whole suite.
fn suite_medians(
    paths: &Paths,
    args: &Args,
    seed: u64,
    log: &mut Vec<String>,
) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in 0..args.runs {
        for workload in WORKLOADS {
            let out = workloads::run(paths, workload, seed, args.seconds, false)?;
            log.push(format!(
                "{workload} seed {seed} run {run}: {}",
                if out.correct() {
                    "ok".to_string()
                } else {
                    format!("FAILED {:?}", out.errors)
                }
            ));
            if !out.correct() {
                return Err(format!(
                    "{workload} seed {seed} failed its checks: {:?}",
                    out.errors
                ));
            }
            for (name, m) in out.end_to_end {
                values
                    .entry((workload.to_string(), name))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    Ok(values
        .into_iter()
        .map(|(k, v)| (k, load::median(&v)))
        .collect())
}

fn cmd_selfcheck(paths: &Paths, args: &Args) -> Result<bool, String> {
    paths.build_deepdive()?;
    let specs = end_to_end_specs(paths)?;
    let mut log = Vec::new();
    let mut agree = true;
    for &seed in &args.seeds {
        let first = suite_medians(paths, args, seed, &mut log)?;
        let second = suite_medians(paths, args, seed, &mut log)?;
        println!(
            "seed {seed}: medians of {} runs, first set | second set | worse by | bound",
            args.runs
        );
        for workload in WORKLOADS {
            for spec in &specs {
                let key = (workload.to_string(), spec.name.clone());
                let (Some(a), Some(b)) = (first.get(&key), second.get(&key)) else {
                    return Err(format!("{workload} did not report {}", spec.name));
                };
                let worse = if spec.higher_is_better {
                    (a - b) / a
                } else {
                    (b - a) / a
                };
                let ok = worse <= spec.bound;
                agree &= ok;
                println!(
                    "  {workload:<13} {:<22} {a:>12.4} | {b:>12.4} | {:>+7.2}% | {:>5.1}%{}",
                    spec.name,
                    worse * 100.0,
                    spec.bound * 100.0,
                    if ok { "" } else { "  <-- DISAGREE" }
                );
            }
        }
    }
    println!("runs made:");
    for line in &log {
        println!("  {line}");
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: ddbench run|gen|selfcheck [options] (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let done = parse(rest).and_then(|args| {
        let paths = Paths::discover()?;
        match command.as_str() {
            "run" => cmd_run(&paths, &args),
            "gen" => cmd_gen(&paths, &args),
            "selfcheck" => cmd_selfcheck(&paths, &args),
            other => Err(format!("unknown command `{other}`")),
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ddbench: {e}");
            ExitCode::from(2)
        }
    }
}
