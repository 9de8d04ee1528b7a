//! The `DeepDive` application object: the three-phase execution of §3
//! (candidate generation + feature extraction → supervision → learning and
//! inference) over one DDlog program.

use crate::calibration::{figure5, CalibrationData};
use crate::checkpoint::{Checkpoint, CheckpointError, Phase};
use deepdive_ddlog::{compile, DdlogError, DdlogProgram};
use deepdive_factorgraph::{CompiledGraph, VariableId, WeightStore};
use deepdive_grounding::{Grounder, GroundingDelta, LoadTimings, VarKey};
use deepdive_sampler::{
    learn_weights, parallel_marginals, GibbsOptions, LearnOptions, LearnStats, Marginals,
};
use deepdive_storage::{
    default_threads, threads_from_env, BaseChange, Database, ExecutionContext, FailurePolicy,
    MaintenanceResult, RequeueReport, Row, StorageConfig, StorageError, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum DeepDiveError {
    Ddlog(DdlogError),
    Storage(StorageError),
    Checkpoint(CheckpointError),
}

impl fmt::Display for DeepDiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepDiveError::Ddlog(e) => write!(f, "ddlog: {e}"),
            DeepDiveError::Storage(e) => write!(f, "storage: {e}"),
            DeepDiveError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for DeepDiveError {}

/// Dirty-tracking state threaded between incremental checkpoint flushes
/// ([`DeepDive::save_checkpoint_incremental`]): what the previous flush saw,
/// so the next one can skip clean artifacts. A fresh tracker forces a full
/// rewrite first — deltas only ever chain onto a base this process wrote.
#[derive(Debug, Default)]
pub struct CheckpointTracker {
    /// Relation name → generation counter at the last flush.
    relation_gens: HashMap<String, u64>,
    /// `state.ckpt` content hash at the last flush.
    state_hash: Option<u64>,
    /// `weights.ckpt` content hash at the last flush.
    weights_hash: Option<u64>,
    /// Whether a full save has gone through this tracker yet.
    has_base: bool,
}

/// What one incremental checkpoint flush actually wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalSaveReport {
    pub artifacts_written: u64,
    pub artifacts_skipped: u64,
    /// Deltas chained onto the current base after this flush.
    pub chain_len: u64,
    /// True when this flush was a chain-resetting full rewrite.
    pub full: bool,
}

impl From<DdlogError> for DeepDiveError {
    fn from(e: DdlogError) -> Self {
        DeepDiveError::Ddlog(e)
    }
}

impl From<StorageError> for DeepDiveError {
    fn from(e: StorageError) -> Self {
        DeepDiveError::Storage(e)
    }
}

impl From<CheckpointError> for DeepDiveError {
    fn from(e: CheckpointError) -> Self {
        DeepDiveError::Checkpoint(e)
    }
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Output threshold (§3.4: "e.g., p > 0.95").
    pub threshold: f64,
    pub learn: LearnOptions,
    pub inference: GibbsOptions,
    /// Fraction of evidence variables held out as the calibration/test set.
    pub holdout_fraction: f64,
    /// Compute the Figure-5 calibration artifacts (costs one extra
    /// inference pass for the training histogram).
    pub compute_calibration: bool,
    /// Warm-start learning from the previous run's weights instead of
    /// retraining from zero. Off by default: stacking SGD epochs across
    /// developer iterations inflates weights and erodes precision.
    pub warm_start: bool,
    pub seed: u64,
    /// Run directory for phase checkpoints. When set, each completed phase
    /// writes its artifact (and manifest entry) there.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from `checkpoint_dir`: phases whose artifacts are present and
    /// hash-valid are restored instead of re-executed. Requires
    /// `checkpoint_dir`.
    pub resume: bool,
    /// Stop the pipeline after checkpointing this phase (deterministic
    /// kill-point for crash/resume testing). The returned [`RunResult`] has
    /// `halted_after` set and no marginals.
    pub halt_after: Option<Phase>,
    /// Number of independent Gibbs chains inference runs, one per thread,
    /// in batch inference and in the serve refresh. Rule evaluation,
    /// grounding and weight learning are sequential at any value, so the
    /// grounded graph, plans and learned weights do not depend on it; only
    /// the marginals depend on `(seed, threads)`. Defaults to
    /// `$DEEPDIVE_THREADS` when set, else to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Resident-bytes budget for relation storage, in MiB. When set, every
    /// relation is backed by a [`deepdive_storage::SpillStore`]: sealed
    /// row-group segments are written to disk and their decoded copies are
    /// evicted oldest-first whenever the process-wide resident total exceeds
    /// the budget.
    pub memory_budget_mb: Option<u64>,
    /// Directory for spilled row-group segments. Defaults to
    /// `<tmp>/deepdive-spill` when a budget is set; setting it alone (without
    /// a budget) spills segments eagerly but keeps everything resident.
    pub spill_dir: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threshold: 0.9,
            learn: LearnOptions::default(),
            inference: GibbsOptions {
                clamp_evidence: true,
                ..GibbsOptions::default()
            },
            holdout_fraction: 0.25,
            compute_calibration: true,
            warm_start: false,
            seed: 0xDD,
            checkpoint_dir: None,
            resume: false,
            halt_after: None,
            threads: threads_from_env().unwrap_or_else(default_threads),
            memory_budget_mb: None,
            spill_dir: None,
        }
    }
}

/// Phase wall-clock breakdown (Figure 2's runtime annotations).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    pub candidate_extraction: Duration,
    pub supervision: Duration,
    pub grounding: Duration,
    pub learning: Duration,
    pub inference: Duration,
}

impl PhaseTimings {
    pub fn learning_inference(&self) -> Duration {
        self.grounding + self.learning + self.inference
    }

    pub fn total(&self) -> Duration {
        self.candidate_extraction + self.supervision + self.learning_inference()
    }
}

/// Per-weight summary for the error-analysis document (§5.2: "summaries of
/// features, including their learned weights and observed counts").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightSummary {
    pub key: String,
    pub value: f64,
    pub references: usize,
    pub fixed: bool,
}

/// Result of one full pipeline run.
pub struct RunResult {
    /// Marginal probability per query tuple (evidence tuples report their
    /// clamped label; held-out tuples report inferred marginals).
    pub marginals: HashMap<VarKey, f64>,
    /// Held-out evidence tuples with their withheld labels (the test set).
    pub holdout: Vec<(VarKey, bool, f64)>,
    pub timings: PhaseTimings,
    pub calibration: Option<CalibrationData>,
    pub weights: Vec<WeightSummary>,
    pub num_variables: usize,
    pub num_factors: usize,
    pub num_evidence: usize,
    pub grounding_delta: GroundingDelta,
    /// Learning stopped at its deadline before all requested epochs.
    pub learning_degraded: bool,
    /// Inference (or the calibration pass) stopped at its deadline; the
    /// marginals come from fewer sweeps than requested.
    pub inference_degraded: bool,
    /// SGD epochs actually run.
    pub learn_epochs_run: usize,
    /// Inference sweeps actually collected.
    pub inference_samples: u64,
    /// Phases restored from a checkpoint instead of executed.
    pub phases_resumed: Vec<Phase>,
    /// Set when the run stopped early at [`RunConfig::halt_after`].
    pub halted_after: Option<Phase>,
}

impl RunResult {
    /// True when any stage returned partial (deadline-truncated) results.
    pub fn degraded(&self) -> bool {
        self.learning_degraded || self.inference_degraded
    }

    /// A run stopped at a deterministic kill-point: phase artifacts are on
    /// disk, nothing was inferred.
    fn halted(phase: Phase, delta: GroundingDelta, timings: PhaseTimings) -> RunResult {
        RunResult {
            marginals: HashMap::new(),
            holdout: Vec::new(),
            timings,
            calibration: None,
            weights: Vec::new(),
            num_variables: 0,
            num_factors: 0,
            num_evidence: 0,
            grounding_delta: delta,
            learning_degraded: false,
            inference_degraded: false,
            learn_epochs_run: 0,
            inference_samples: 0,
            phases_resumed: Vec::new(),
            halted_after: Some(phase),
        }
    }
    /// The output aspirational table: tuples of `relation` whose probability
    /// clears `threshold`, with their probabilities.
    pub fn output(&self, relation: &str, threshold: f64) -> Vec<(Row, f64)> {
        let mut rows: Vec<(Row, f64)> = self
            .marginals
            .iter()
            .filter(|((rel, _), &p)| rel == relation && p >= threshold)
            .map(|((_, row), &p)| (row.clone(), p))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Probability of one tuple.
    pub fn probability(&self, relation: &str, row: &Row) -> Option<f64> {
        self.marginals
            .get(&(relation.to_string(), row.clone()))
            .copied()
    }

    /// All predictions for a relation as `(row, probability)`.
    pub fn predictions(&self, relation: &str) -> Vec<(Row, f64)> {
        self.output(relation, 0.0)
    }

    /// The most heavily weighted features (for error analysis).
    pub fn top_weights(&self, n: usize) -> Vec<&WeightSummary> {
        let mut ws: Vec<&WeightSummary> = self.weights.iter().filter(|w| !w.fixed).collect();
        ws.sort_by(|a, b| b.value.abs().total_cmp(&a.value.abs()));
        ws.into_iter().take(n).collect()
    }
}

/// The DeepDive application: database + DDlog program + configuration.
pub struct DeepDive {
    pub db: Database,
    pub grounder: Grounder,
    pub config: RunConfig,
    /// The run's execution context: Gibbs chain count and the per-phase
    /// metrics `report.json` and `/metrics` show.
    ctx: Arc<ExecutionContext>,
}

/// Builder: register UDFs before the program is compiled against the
/// database.
pub struct DeepDiveBuilder {
    db: Database,
    ddlog_src: String,
    config: RunConfig,
}

impl DeepDiveBuilder {
    pub fn new(ddlog_src: impl Into<String>) -> Self {
        DeepDiveBuilder {
            db: Database::new(),
            ddlog_src: ddlog_src.into(),
            config: RunConfig::default(),
        }
    }

    /// Register a user-defined function callable from rules.
    pub fn udf(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) -> Self {
        self.db.register_udf(name, f);
        self
    }

    /// Register the standard feature library (§5.3).
    pub fn standard_features(mut self) -> Self {
        crate::features::register_standard_features(&mut self.db);
        self
    }

    /// Set the failure policy of one UDF (panic isolation: `Fail` aborts the
    /// run, `SkipTuple` drops the input, `Quarantine` routes it to the head
    /// relation's `__errors` table).
    pub fn udf_policy(mut self, name: impl Into<String>, policy: FailurePolicy) -> Self {
        self.db.set_udf_policy(name, policy);
        self
    }

    /// Set the failure policy applied to UDFs without an explicit one.
    pub fn default_udf_policy(mut self, policy: FailurePolicy) -> Self {
        self.db.set_default_udf_policy(policy);
        self
    }

    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    pub fn build(mut self) -> Result<DeepDive, DeepDiveError> {
        // Apply the storage configuration before the program is compiled:
        // no relations exist yet, so every table the grounder creates picks
        // up the spill settings.
        if self.config.memory_budget_mb.is_some() || self.config.spill_dir.is_some() {
            self.db.set_storage(StorageConfig {
                memory_budget: self.config.memory_budget_mb.map(|mb| mb * 1024 * 1024),
                spill_dir: self.config.spill_dir.clone(),
            });
        }
        let ddlog: DdlogProgram = compile(&self.ddlog_src)?;
        let grounder = Grounder::new(&mut self.db, ddlog)?;
        let ctx = Arc::new(ExecutionContext::new(self.config.threads));
        Ok(DeepDive {
            db: self.db,
            grounder,
            config: self.config,
            ctx,
        })
    }
}

impl DeepDive {
    pub fn builder(ddlog_src: impl Into<String>) -> DeepDiveBuilder {
        DeepDiveBuilder::new(ddlog_src)
    }

    /// Insert a base tuple (corpus loading).
    pub fn insert(&self, relation: &str, row: Row) -> Result<(), DeepDiveError> {
        self.db.insert(relation, row)?;
        Ok(())
    }

    /// The execution context the pipeline currently runs under.
    pub fn execution_context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }

    /// Run the full pipeline: derivation rules, grounding, holdout split,
    /// weight learning, marginal inference, calibration.
    ///
    /// With [`RunConfig::checkpoint_dir`] set, each phase writes its artifact
    /// as it completes; with [`RunConfig::resume`], phases whose artifacts
    /// already exist (hash-verified against the manifest) are restored
    /// instead of re-executed, with near-zero timings.
    pub fn run(&mut self) -> Result<RunResult, DeepDiveError> {
        let ckpt = match &self.config.checkpoint_dir {
            Some(dir) => Some(Checkpoint::new(dir.clone())?),
            None => None,
        };
        let mut phases_resumed: Vec<Phase> = Vec::new();

        let can_resume_load = self.config.resume
            && ckpt
                .as_ref()
                .is_some_and(|c| c.phase_done(Phase::Extract) && c.phase_done(Phase::Ground));
        let (delta, load) = if can_resume_load {
            let c = ckpt.as_ref().expect("checked above");
            c.restore_db(&self.db)?;
            let (state, delta) = c.restore_state()?;
            self.grounder.state = state;
            phases_resumed.push(Phase::Extract);
            phases_resumed.push(Phase::Ground);
            (delta, LoadTimings::default())
        } else {
            let (delta, load) = self.grounder.initial_load_timed(&self.db)?;
            if let Some(c) = &ckpt {
                c.save_db(
                    &self.db,
                    (load.candidate_extraction + load.supervision).as_secs_f64(),
                )?;
                c.save_state(&self.grounder.state, &delta, load.grounding.as_secs_f64())?;
            }
            (delta, load)
        };
        // Phase boundary: seal open row groups so cold relations spill (and
        // the storage stats reflect the loaded state) before inference.
        self.db.flush_storage();

        if let Some(halt @ (Phase::Extract | Phase::Ground)) = self.config.halt_after {
            let timings = PhaseTimings {
                candidate_extraction: load.candidate_extraction,
                supervision: load.supervision,
                grounding: load.grounding,
                ..Default::default()
            };
            let mut result = RunResult::halted(halt, delta, timings);
            result.phases_resumed = phases_resumed;
            return Ok(result);
        }

        self.infer_phase(delta, load, ckpt.as_ref(), phases_resumed)
    }

    /// Incremental developer iteration: apply base changes, re-ground
    /// incrementally, re-learn and re-infer. (Checkpoints are not consulted:
    /// an incremental step invalidates the full-run artifacts.)
    pub fn update(&mut self, changes: Vec<BaseChange>) -> Result<RunResult, DeepDiveError> {
        let start = Instant::now();
        let delta = self.grounder.apply_update(&self.db, changes)?;
        self.db.flush_storage();
        let load = LoadTimings {
            candidate_extraction: start.elapsed(),
            supervision: Duration::ZERO,
            grounding: Duration::ZERO,
        };
        self.infer_phase(delta, load, None, Vec::new())
    }

    /// Drain every `__errors` quarantine and route the repaired rows through
    /// the *incremental maintenance path*: base counts are adjusted via
    /// [`Grounder::apply_update`], so relations derived from the requeued
    /// base relations refresh immediately (direct re-inserts would leave
    /// them stale until the next full fixpoint), then learning and inference
    /// re-run over the incrementally re-grounded graph. With
    /// [`RunConfig::checkpoint_dir`] set, the post-requeue database and
    /// grounding state replace the checkpoint's artifacts.
    ///
    /// The grounding state must be live (a prior [`DeepDive::run`], or a
    /// state restored from a checkpoint) — on a fresh build the incremental
    /// path has no graph to maintain.
    pub fn requeue(&mut self) -> Result<(Vec<RequeueReport>, RunResult), DeepDiveError> {
        let start = Instant::now();
        let (reports, changes) = self.db.requeue_all_quarantined_changes()?;
        // Quarantines attached to derived relations cannot take base changes
        // (maintenance would clobber them); adjust their counts directly,
        // matching the historical behaviour for that corner.
        let derived = self.grounder.engine().program().derived_relations();
        let mut base_changes = Vec::with_capacity(changes.len());
        for ch in changes {
            if derived.contains(&ch.relation) {
                self.db.adjust(&ch.relation, ch.row, ch.delta)?;
            } else {
                base_changes.push(ch);
            }
        }
        let delta = self.grounder.apply_update(&self.db, base_changes)?;
        self.db.flush_storage();
        let load = LoadTimings {
            candidate_extraction: start.elapsed(),
            supervision: Duration::ZERO,
            grounding: Duration::ZERO,
        };
        let ckpt = match &self.config.checkpoint_dir {
            Some(dir) => Some(Checkpoint::new(dir.clone())?),
            None => None,
        };
        if let Some(c) = &ckpt {
            c.save_db(&self.db, load.candidate_extraction.as_secs_f64())?;
            c.save_state(&self.grounder.state, &delta, 0.0)?;
        }
        let result = self.infer_phase(delta, load, ckpt.as_ref(), Vec::new())?;
        Ok((reports, result))
    }

    /// Restore a completed run from `ckpt` into this (freshly built) app:
    /// verify every manifest entry against its artifact, then restore the
    /// database, grounding state, and — when present and shape-compatible —
    /// the learned weights. Returns the verified phases.
    ///
    /// This is the load path of `deepdive serve`: a daemon must refuse to
    /// build long-lived state on a tampered or torn checkpoint, so
    /// verification is not optional here.
    pub fn load_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<Vec<Phase>, DeepDiveError> {
        let verified = ckpt.verify()?;
        ckpt.restore_db(&self.db)?;
        let (state, _delta) = ckpt.restore_state()?;
        self.grounder.state = state;
        if verified.contains(&Phase::Learn) {
            let values = ckpt.restore_weights()?;
            if values.len() == self.grounder.state.graph.weights.len() {
                self.grounder.state.graph.weights.load_values(&values);
            }
        }
        self.db.flush_storage();
        Ok(verified)
    }

    /// Persist the current database, grounding state, and weights as a full
    /// checkpoint — the durability flush of `deepdive serve`: after the
    /// artifacts commit (each hashed into the manifest), the daemon's
    /// write-ahead log can be truncated because every acknowledged ingest is
    /// now captured by the checkpoint itself.
    pub fn save_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), DeepDiveError> {
        ckpt.save_db(&self.db, 0.0)?;
        ckpt.save_state(&self.grounder.state, &GroundingDelta::default(), 0.0)?;
        ckpt.save_weights(&self.grounder.state.graph.weights, 0.0)?;
        Ok(())
    }

    /// Incremental flavor of [`Self::save_checkpoint`]: persist only what
    /// changed since the last flush through `tracker`. The database goes out
    /// as a chained delta covering just the relations whose generation
    /// counter moved (plus tombstones for dropped ones); `state.ckpt` and
    /// `weights.ckpt` are skipped outright when their serialized content
    /// hashes are unchanged. The first flush through a fresh tracker, and
    /// every flush once the chain reaches `full_every` deltas, is a full
    /// rewrite that resets the chain — bounding both restore time and the
    /// blast radius of a lost artifact.
    pub fn save_checkpoint_incremental(
        &self,
        ckpt: &Checkpoint,
        tracker: &mut CheckpointTracker,
        full_every: u64,
    ) -> Result<IncrementalSaveReport, DeepDiveError> {
        let gens = self.db.relation_generations();
        let mut report = IncrementalSaveReport::default();
        let chain_len = ckpt.db_chain_len();
        let full = !tracker.has_base || (full_every > 0 && chain_len >= full_every);
        if full {
            ckpt.save_db(&self.db, 0.0)?;
            report.artifacts_written += 1;
            report.full = true;
            report.chain_len = 0;
        } else {
            let mut dirty: Vec<String> = gens
                .iter()
                .filter(|(name, gen)| tracker.relation_gens.get(name) != Some(gen))
                .map(|(name, _)| name.clone())
                .collect();
            dirty.sort();
            let mut dropped: Vec<String> = tracker
                .relation_gens
                .keys()
                .filter(|name| !gens.iter().any(|(n, _)| n == *name))
                .cloned()
                .collect();
            dropped.sort();
            if dirty.is_empty() && dropped.is_empty() {
                report.artifacts_skipped += 1;
                report.chain_len = chain_len;
            } else {
                report.chain_len = ckpt.save_db_delta(&self.db, &dirty, &dropped)?;
                report.artifacts_written += 1;
            }
        }
        let (state_hash, wrote) = ckpt.save_state_hashed(
            &self.grounder.state,
            &GroundingDelta::default(),
            tracker.state_hash,
            0.0,
        )?;
        if wrote {
            report.artifacts_written += 1;
        } else {
            report.artifacts_skipped += 1;
        }
        tracker.state_hash = Some(state_hash);
        let (weights_hash, wrote) = ckpt.save_weights_hashed(
            &self.grounder.state.graph.weights,
            tracker.weights_hash,
            0.0,
        )?;
        if wrote {
            report.artifacts_written += 1;
        } else {
            report.artifacts_skipped += 1;
        }
        tracker.weights_hash = Some(weights_hash);
        tracker.relation_gens = gens.into_iter().collect();
        tracker.has_base = true;
        Ok(report)
    }

    /// Apply base-tuple changes through the incremental DRed/IVM path
    /// (§4.1) and flush storage. Grounding only — no learning or inference;
    /// the serving daemon refreshes marginals separately with a bounded
    /// Gibbs pass over the re-grounded graph.
    pub fn apply_base_changes(
        &mut self,
        changes: Vec<BaseChange>,
    ) -> Result<GroundingDelta, DeepDiveError> {
        self.apply_base_changes_traced(changes).map(|(d, _)| d)
    }

    /// Like [`DeepDive::apply_base_changes`], but also surfaces the
    /// membership-level [`MaintenanceResult`] (which derived tuples appeared
    /// and disappeared) instead of dropping it after the epoch swap — the
    /// serve layer routes it to live subscribers.
    pub fn apply_base_changes_traced(
        &mut self,
        changes: Vec<BaseChange>,
    ) -> Result<(GroundingDelta, MaintenanceResult), DeepDiveError> {
        let traced = self.grounder.apply_update_traced(&self.db, changes)?;
        self.db.flush_storage();
        Ok(traced)
    }

    /// Marginals for the current grounding state under the current weights:
    /// no learning, no holdout split. Evidence variables report their
    /// clamped labels (1.0 / 0.0), query variables their inferred
    /// probabilities — the map a serving snapshot exposes.
    pub fn snapshot_marginals(&self, opts: &GibbsOptions) -> HashMap<VarKey, f64> {
        let (graph, tuple_to_var) = self.grounder.state.compile();
        let weights = self.grounder.state.graph.weights.values();
        let marginals = parallel_marginals(&graph, &weights, opts, self.config.threads);
        let mut out = HashMap::with_capacity(tuple_to_var.len());
        for (key, vid) in &tuple_to_var {
            let v = vid.index();
            let p = if graph.is_evidence[v] {
                if graph.evidence_value[v] {
                    1.0
                } else {
                    0.0
                }
            } else {
                marginals.probability(v)
            };
            out.insert(key.clone(), p);
        }
        out
    }

    fn infer_phase(
        &mut self,
        delta: GroundingDelta,
        load: LoadTimings,
        ckpt: Option<&Checkpoint>,
        mut phases_resumed: Vec<Phase>,
    ) -> Result<RunResult, DeepDiveError> {
        let mut timings = PhaseTimings {
            candidate_extraction: load.candidate_extraction,
            supervision: load.supervision,
            grounding: load.grounding,
            ..Default::default()
        };

        let (mut graph, tuple_to_var) = self.grounder.state.compile();
        let mut weights: WeightStore = self.grounder.state.graph.weights.clone();

        // Holdout split: deterministically unclamp a fraction of evidence
        // variables; their labels become the test set.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x401D);
        let mut holdout_vars: Vec<(usize, bool)> = Vec::new();
        let mut num_evidence = 0;
        for v in 0..graph.num_variables {
            if graph.is_evidence[v] {
                num_evidence += 1;
                if rng.gen::<f64>() < self.config.holdout_fraction {
                    holdout_vars.push((v, graph.evidence_value[v]));
                    graph.is_evidence[v] = false;
                }
            }
        }

        // Learning (§3.3 "train weights"). Fresh by default; warm_start
        // reuses the previous iteration's weights; a checkpointed weight
        // vector of matching shape short-circuits the phase entirely.
        let learn_start = Instant::now();
        let resumed_weights = if self.config.resume {
            ckpt.filter(|c| c.phase_done(Phase::Learn))
                .map(|c| c.restore_weights())
                .transpose()?
                .filter(|values| values.len() == weights.len())
        } else {
            None
        };
        let learn_stats = match resumed_weights {
            Some(values) => {
                weights.load_values(&values);
                phases_resumed.push(Phase::Learn);
                LearnStats::default()
            }
            None => {
                if !self.config.warm_start {
                    weights.reset_learnable(0.0);
                }
                let stats = learn_weights(&graph, &mut weights, &self.config.learn);
                if let Some(c) = ckpt {
                    c.save_weights(&weights, learn_start.elapsed().as_secs_f64())?;
                }
                stats
            }
        };
        timings.learning = learn_start.elapsed();
        // Persist learned weights back into the grounding state so
        // incremental reruns warm-start from them.
        self.grounder.state.graph.weights = weights.clone();

        if self.config.halt_after == Some(Phase::Learn) {
            let mut result = RunResult::halted(Phase::Learn, delta, timings);
            result.phases_resumed = phases_resumed;
            result.learning_degraded = learn_stats.degraded;
            result.learn_epochs_run = learn_stats.epochs_run;
            result.num_variables = graph.num_variables;
            result.num_factors = graph.num_factors;
            result.num_evidence = num_evidence;
            return Ok(result);
        }

        // Inference: evidence-clamped marginals for query + held-out vars.
        let infer_start = Instant::now();
        let marginals = parallel_marginals(
            &graph,
            &weights.values(),
            &self.config.inference,
            self.config.threads,
        );
        timings.inference = infer_start.elapsed();

        let mut result = self.assemble_result(
            &graph,
            &tuple_to_var,
            &weights,
            &marginals,
            holdout_vars,
            num_evidence,
            timings,
            delta,
        );
        result.learning_degraded = learn_stats.degraded;
        result.learn_epochs_run = learn_stats.epochs_run;
        result.phases_resumed = phases_resumed;

        // Feed the shared metrics sink so report.json can show per-phase
        // wall-clock and throughput under the active thread count.
        let t = &result.timings;
        let m = &self.ctx.metrics;
        m.record("candidate_extraction", t.candidate_extraction, 0);
        m.record("supervision", t.supervision, 0);
        m.record(
            "grounding",
            t.grounding,
            (result.grounding_delta.added_variables + result.grounding_delta.added_factors) as u64,
        );
        m.record("learning", t.learning, result.learn_epochs_run as u64);
        m.record("inference", t.inference, result.inference_samples);
        Ok(result)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_result(
        &self,
        graph: &CompiledGraph,
        tuple_to_var: &HashMap<VarKey, VariableId>,
        weights: &WeightStore,
        marginals: &Marginals,
        holdout_vars: Vec<(usize, bool)>,
        num_evidence: usize,
        mut timings: PhaseTimings,
        grounding_delta: GroundingDelta,
    ) -> RunResult {
        let prob_of = |v: usize| -> f64 {
            if graph.is_evidence[v] {
                if graph.evidence_value[v] {
                    1.0
                } else {
                    0.0
                }
            } else {
                marginals.probability(v)
            }
        };

        let mut out_marginals = HashMap::with_capacity(tuple_to_var.len());
        for (key, vid) in tuple_to_var {
            out_marginals.insert(key.clone(), prob_of(vid.index()));
        }

        // Holdout predictions with withheld labels.
        let var_to_tuple: HashMap<usize, &VarKey> =
            tuple_to_var.iter().map(|(k, v)| (v.index(), k)).collect();
        let holdout: Vec<(VarKey, bool, f64)> = holdout_vars
            .iter()
            .filter_map(|&(v, label)| {
                var_to_tuple
                    .get(&v)
                    .map(|&k| (k.clone(), label, marginals.probability(v)))
            })
            .collect();

        // Calibration artifacts (Figure 5).
        let mut inference_degraded = marginals.degraded;
        let calibration = if self.config.compute_calibration {
            let cal_start = Instant::now();
            let test: Vec<(f64, Option<bool>)> = holdout
                .iter()
                .map(|(_, label, p)| (*p, Some(*label)))
                .collect();
            // Training histogram: model predictions for training-evidence
            // variables, computed with evidence unclamped.
            let free_opts = GibbsOptions {
                clamp_evidence: false,
                seed: self.config.inference.seed ^ 0xF2EE,
                ..self.config.inference.clone()
            };
            let free =
                parallel_marginals(graph, &weights.values(), &free_opts, self.config.threads);
            inference_degraded |= free.degraded;
            let train: Vec<(f64, Option<bool>)> = (0..graph.num_variables)
                .filter(|&v| graph.is_evidence[v])
                .map(|v| (free.probability(v), Some(graph.evidence_value[v])))
                .collect();
            timings.inference += cal_start.elapsed();
            Some(figure5(&train, &test, 10))
        } else {
            None
        };

        let weight_summaries: Vec<WeightSummary> = weights
            .iter()
            .map(|(_, w)| WeightSummary {
                key: w.key.clone(),
                value: w.value,
                references: w.references,
                fixed: w.fixed,
            })
            .collect();

        RunResult {
            marginals: out_marginals,
            holdout,
            timings,
            calibration,
            weights: weight_summaries,
            num_variables: graph.num_variables,
            num_factors: graph.num_factors,
            num_evidence,
            grounding_delta,
            learning_degraded: false,
            inference_degraded,
            learn_epochs_run: 0,
            inference_samples: marginals.samples,
            phases_resumed: Vec::new(),
            halted_after: None,
        }
    }
}
