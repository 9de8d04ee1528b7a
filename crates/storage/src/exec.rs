//! The execution context: thread count plus per-phase metrics.
//!
//! Rule evaluation, IVM, grounding and weight learning always run
//! sequentially on the calling thread. The thread count means one thing:
//! how many independent Gibbs chains inference runs (the DimmWitted-style
//! parallelism of §4.2). The grounded graph, the join plans and the learned
//! weights are therefore identical at any thread count; only marginals
//! depend on `(seed, threads)`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable consulted for a default thread count (the CLI
/// `--threads` flag overrides it).
pub const THREADS_ENV: &str = "DEEPDIVE_THREADS";

/// How [`THREADS_ENV`] parsed, kept around so callers can report the
/// fallback (e.g. `report.json`'s execution section) instead of silently
/// absorbing a typo'd `DEEPDIVE_THREADS=O4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvThreads {
    /// Variable not set.
    Unset,
    /// A positive integer thread count.
    Valid(usize),
    /// Set but not a positive integer (zero, garbage, empty); the raw value
    /// is preserved for diagnostics. Callers fall back to available
    /// parallelism.
    Invalid(String),
}

impl EnvThreads {
    /// Classify a raw environment value (separated from the env read so it
    /// is testable without mutating process state).
    pub fn classify(raw: Option<&str>) -> EnvThreads {
        match raw {
            None => EnvThreads::Unset,
            Some(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => EnvThreads::Valid(n),
                _ => EnvThreads::Invalid(s.to_string()),
            },
        }
    }

    /// The parsed thread count, if valid.
    pub fn threads(&self) -> Option<usize> {
        match self {
            EnvThreads::Valid(n) => Some(*n),
            _ => None,
        }
    }

    /// The rejected raw value, if invalid.
    pub fn invalid_value(&self) -> Option<&str> {
        match self {
            EnvThreads::Invalid(raw) => Some(raw),
            _ => None,
        }
    }
}

/// Read and classify [`THREADS_ENV`] without logging.
pub fn env_threads() -> EnvThreads {
    EnvThreads::classify(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Thread count requested via [`THREADS_ENV`], if set and valid. An invalid
/// or zero value warns once per process on stderr (and is reported via
/// [`env_threads`]) instead of being silently ignored.
pub fn threads_from_env() -> Option<usize> {
    match env_threads() {
        EnvThreads::Valid(n) => Some(n),
        EnvThreads::Invalid(raw) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: {THREADS_ENV}={raw:?} is not a positive integer; \
                     falling back to available parallelism"
                );
            });
            None
        }
        EnvThreads::Unset => None,
    }
}

/// The thread count used when neither `--threads` nor [`THREADS_ENV`] is
/// given: the host's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall-clock and item-throughput counters for one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    pub wall: Duration,
    /// Work items processed (tuples derived, factors grounded, variable
    /// updates sampled — whatever the phase counts).
    pub items: u64,
    pub invocations: u64,
}

impl PhaseStats {
    /// Items per second, 0.0 when no time was recorded.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

/// Shared, thread-safe per-phase metrics, keyed by phase name.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    phases: Mutex<BTreeMap<String, PhaseStats>>,
}

impl ExecMetrics {
    /// Accumulate `wall` and `items` under `phase`.
    pub fn record(&self, phase: &str, wall: Duration, items: u64) {
        let mut phases = self.phases.lock().unwrap_or_else(|p| p.into_inner());
        let entry = phases.entry(phase.to_string()).or_default();
        entry.wall += wall;
        entry.items += items;
        entry.invocations += 1;
    }

    /// Copy of all recorded phases (sorted by name — `BTreeMap`).
    pub fn snapshot(&self) -> BTreeMap<String, PhaseStats> {
        self.phases
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// One run's execution settings: the Gibbs chain count and per-phase
/// metrics. One context is built per run and shared by the app layer and
/// the serving daemon.
#[derive(Debug)]
pub struct ExecutionContext {
    threads: usize,
    pub metrics: ExecMetrics,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        ExecutionContext::sequential()
    }
}

impl ExecutionContext {
    /// A context running `threads` Gibbs chains (at least one).
    pub fn new(threads: usize) -> Self {
        ExecutionContext {
            threads: threads.max(1),
            metrics: ExecMetrics::default(),
        }
    }

    /// A single-chain context (the default).
    pub fn sequential() -> Self {
        ExecutionContext::new(1)
    }

    /// Number of independent Gibbs chains inference runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Time `f`, recording wall-clock and `items` under `phase`.
    pub fn time_phase<R>(&self, phase: &str, items: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.metrics.record(phase, start.elapsed(), items);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_threads_classification() {
        assert_eq!(EnvThreads::classify(None), EnvThreads::Unset);
        assert_eq!(EnvThreads::classify(Some("4")), EnvThreads::Valid(4));
        assert_eq!(EnvThreads::classify(Some(" 2 ")), EnvThreads::Valid(2));
        for bad in ["0", "", "  ", "-1", "4x", "O4", "1.5"] {
            let c = EnvThreads::classify(Some(bad));
            assert_eq!(c, EnvThreads::Invalid(bad.to_string()), "{bad:?}");
            assert_eq!(c.threads(), None);
            assert_eq!(c.invalid_value(), Some(bad));
        }
        assert_eq!(EnvThreads::Valid(3).threads(), Some(3));
        assert_eq!(EnvThreads::Unset.invalid_value(), None);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ctx = ExecutionContext::new(0);
        assert_eq!(ctx.threads(), 1);
    }

    #[test]
    fn metrics_accumulate_per_phase() {
        let ctx = ExecutionContext::sequential();
        ctx.metrics
            .record("fixpoint", Duration::from_millis(10), 100);
        ctx.metrics
            .record("fixpoint", Duration::from_millis(30), 300);
        ctx.metrics.record("sampling", Duration::from_millis(5), 50);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.len(), 2);
        let fp = &snap["fixpoint"];
        assert_eq!(fp.items, 400);
        assert_eq!(fp.invocations, 2);
        assert_eq!(fp.wall, Duration::from_millis(40));
        assert!(fp.throughput() > 0.0);
    }

    #[test]
    fn time_phase_records_and_returns() {
        let ctx = ExecutionContext::sequential();
        let v = ctx.time_phase("probe", 7, || 42);
        assert_eq!(v, 42);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap["probe"].items, 7);
        assert_eq!(snap["probe"].invocations, 1);
    }
}
