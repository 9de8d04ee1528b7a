//! Structured run reports: the machine-readable summary of one pipeline run.
//!
//! Operators of a fault-tolerant pipeline need one artifact answering "what
//! happened?": which phases ran (or were resumed from a checkpoint), how long
//! they took, whether any stage hit its deadline and returned degraded
//! results, and how many tuples were lost to quarantine. [`RunReport`]
//! carries those answers and renders as JSON for downstream tooling.

use crate::app::{DeepDive, RunResult};
use deepdive_storage::{RelationStorageStats, RulePlan};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// Render the planner's per-rule choices as the report's `plan` section:
/// one entry per derivation rule with the chosen atom order, and per step
/// the relation, join strategy, and cardinality estimate.
fn plans_to_json(plans: &[RulePlan]) -> Value {
    Value::Array(
        plans
            .iter()
            .map(|p| {
                let steps: Vec<Value> = p
                    .steps
                    .iter()
                    .map(|s| {
                        json!({
                            "relation": s.relation,
                            "strategy": s.strategy.name(),
                            "estimated_rows": s.estimated_rows,
                        })
                    })
                    .collect();
                json!({
                    "rule": p.rule,
                    "display": p.display,
                    "order": p.order,
                    "cost_based": p.cost_based,
                    "steps": Value::Array(steps),
                })
            })
            .collect(),
    )
}

/// Machine-readable summary of one [`DeepDive::run`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// True when any stage returned partial results (learning or inference
    /// stopped at a deadline).
    pub degraded: bool,
    pub learning_degraded: bool,
    pub inference_degraded: bool,
    /// SGD epochs actually run (may be short of the request under a
    /// deadline).
    pub learn_epochs_run: usize,
    /// Inference sweeps actually collected.
    pub inference_samples: u64,
    pub num_variables: usize,
    pub num_factors: usize,
    pub num_evidence: usize,
    /// Phases skipped because a checkpoint already held their artifact.
    pub phases_resumed: Vec<String>,
    /// Phase wall-clock, in seconds.
    pub timings_secs: BTreeMap<String, f64>,
    /// Failure counters per pipeline stage (`udf:f_phrase`,
    /// `ingest:line:17` → count), from the storage layer.
    pub incidents: BTreeMap<String, u64>,
    /// Distinct quarantined rows per quarantine relation.
    pub quarantine: BTreeMap<String, usize>,
    /// Gibbs chains the run's inference used.
    pub threads: usize,
    /// Raw `DEEPDIVE_THREADS` value that failed to parse, when the run fell
    /// back to available parallelism because of it.
    pub threads_env_fallback: Option<String>,
    /// Per-phase `(wall seconds, items, items/sec)` from the execution
    /// context's metrics sink.
    pub execution_phases: BTreeMap<String, (f64, u64, f64)>,
    /// Per-relation storage footprint (visible rows, bytes resident on the
    /// memory budget, bytes spilled to segments, segment count).
    pub storage: BTreeMap<String, RelationStorageStats>,
    /// Resident-bytes budget the run executed under (absent = unbounded).
    pub memory_budget_bytes: Option<u64>,
    /// High-water mark of budget-charged resident bytes (sealed groups,
    /// open buffers, and the spilled-group read cache) over the run.
    pub peak_resident_bytes: u64,
    /// Distinct strings in the global dictionary (text columns intern into
    /// it) and their total heap bytes.
    pub dictionary_symbols: usize,
    pub dictionary_bytes: usize,
    /// Per-rule join plans chosen by the cost-based planner (atom order,
    /// join strategy, and cardinality estimate per step).
    pub plan: Value,
}

impl RunReport {
    /// Assemble the report for a finished run.
    pub fn new(dd: &DeepDive, result: &RunResult) -> Self {
        let t = &result.timings;
        let mut timings_secs = BTreeMap::new();
        timings_secs.insert(
            "candidate_extraction".into(),
            t.candidate_extraction.as_secs_f64(),
        );
        timings_secs.insert("supervision".into(), t.supervision.as_secs_f64());
        timings_secs.insert("grounding".into(), t.grounding.as_secs_f64());
        timings_secs.insert("learning".into(), t.learning.as_secs_f64());
        timings_secs.insert("inference".into(), t.inference.as_secs_f64());
        RunReport {
            degraded: result.degraded(),
            learning_degraded: result.learning_degraded,
            inference_degraded: result.inference_degraded,
            learn_epochs_run: result.learn_epochs_run,
            inference_samples: result.inference_samples,
            num_variables: result.num_variables,
            num_factors: result.num_factors,
            num_evidence: result.num_evidence,
            phases_resumed: result
                .phases_resumed
                .iter()
                .map(|p| p.to_string())
                .collect(),
            timings_secs,
            incidents: dd.db.incident_counts(),
            quarantine: dd.db.quarantine_counts(),
            threads: dd.execution_context().threads(),
            threads_env_fallback: deepdive_storage::env_threads()
                .invalid_value()
                .map(str::to_string),
            execution_phases: dd
                .execution_context()
                .metrics
                .snapshot()
                .into_iter()
                .map(|(phase, s)| (phase, (s.wall.as_secs_f64(), s.items, s.throughput())))
                .collect(),
            storage: dd.db.storage_stats(),
            memory_budget_bytes: dd.db.memory_budget().limit(),
            peak_resident_bytes: dd.db.memory_budget().peak_resident(),
            dictionary_symbols: deepdive_storage::dictionary_len(),
            dictionary_bytes: deepdive_storage::dictionary_bytes() as usize,
            plan: plans_to_json(dd.grounder.engine().program().plans()),
        }
    }

    /// Total tuples lost across all stages.
    pub fn total_incidents(&self) -> u64 {
        self.incidents.values().sum()
    }

    pub fn to_json_value(&self) -> Value {
        let map_of = |entries: &mut dyn Iterator<Item = (String, Value)>| -> Value {
            Value::Object(entries.collect::<Map>())
        };
        let incidents = map_of(&mut self.incidents.iter().map(|(k, v)| (k.clone(), json!(*v))));
        let quarantine = map_of(&mut self.quarantine.iter().map(|(k, v)| (k.clone(), json!(*v))));
        let timings = map_of(
            &mut self
                .timings_secs
                .iter()
                .map(|(k, v)| (k.clone(), json!(*v))),
        );
        let learning = json!({
            "degraded": self.learning_degraded,
            "epochs_run": self.learn_epochs_run,
        });
        let inference = json!({
            "degraded": self.inference_degraded,
            "samples": self.inference_samples,
        });
        let graph = json!({
            "variables": self.num_variables,
            "factors": self.num_factors,
            "evidence": self.num_evidence,
        });
        let exec_phases = map_of(&mut self.execution_phases.iter().map(
            |(k, (wall, items, tp))| {
                (
                    k.clone(),
                    json!({"wall_secs": wall, "items": items, "items_per_sec": tp}),
                )
            },
        ));
        let execution = json!({
            "threads": self.threads,
            "threads_env_fallback": match &self.threads_env_fallback {
                Some(raw) => json!({
                    "value": raw,
                    "fell_back_to": self.threads,
                }),
                None => Value::Null,
            },
            "phases": exec_phases,
        });
        let relations = map_of(&mut self.storage.iter().map(|(name, s)| {
            (
                name.clone(),
                json!({
                    "rows": s.rows,
                    "bytes_resident": s.bytes_resident,
                    "bytes_spilled": s.bytes_spilled,
                    "segments": s.segments,
                    "read_cache_bytes": s.read_cache_bytes,
                }),
            )
        }));
        let mut totals = RelationStorageStats::default();
        for s in self.storage.values() {
            totals.accumulate(s);
        }
        let dictionary = json!({
            "symbols": self.dictionary_symbols,
            "bytes": self.dictionary_bytes,
        });
        let storage = json!({
            "memory_budget_bytes": self.memory_budget_bytes,
            "bytes_resident": totals.bytes_resident,
            "bytes_spilled": totals.bytes_spilled,
            "segments": totals.segments,
            "read_cache_bytes": totals.read_cache_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "dictionary": dictionary,
            "relations": relations,
        });
        json!({
            "degraded": self.degraded,
            "learning": learning,
            "inference": inference,
            "graph": graph,
            "execution": execution,
            "plan": self.plan.clone(),
            "storage": storage,
            "phases_resumed": self.phases_resumed,
            "timings_secs": timings,
            "incidents": incidents,
            "quarantine": quarantine,
        })
    }

    /// Render as pretty-printed JSON (the `report.json` the CLI writes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_json_value())
            .expect("a Value renders to JSON infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_parseable_json() {
        let mut report = RunReport {
            degraded: true,
            learning_degraded: true,
            learn_epochs_run: 7,
            inference_samples: 123,
            num_variables: 10,
            num_factors: 20,
            num_evidence: 5,
            phases_resumed: vec!["extract".into(), "ground".into()],
            ..Default::default()
        };
        report.incidents.insert("udf:f_bad".into(), 3);
        report.quarantine.insert("Spouse__errors".into(), 2);
        report.timings_secs.insert("learning".into(), 0.5);

        let text = report.to_json();
        let v = serde_json::from_str(&text).expect("report JSON must parse");
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("learning")
                .and_then(|l| l.get("epochs_run"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("incidents")
                .and_then(|i| i.get("udf:f_bad"))
                .and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("phases_resumed")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(2)
        );
        assert_eq!(report.total_incidents(), 3);
    }
}
