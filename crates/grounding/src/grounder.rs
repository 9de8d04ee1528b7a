//! Grounding: rules + relations → explicit factor graph (§3.3, Figure 4),
//! with incremental maintenance (§4.1).
//!
//! "DeepDive explicitly constructs a factor graph for inference and learning
//! using a set of SQL queries. [...] each variable corresponds to one tuple
//! in the database, and each hyperedge f corresponds to the set of groundings
//! for a rule γ."
//!
//! Full grounding evaluates every factor rule's body as a relational query;
//! incremental grounding reuses the storage layer's delta machinery: after
//! the [`IncrementalEngine`] maintains derived relations, each factor rule's
//! grounding set is maintained with the same per-atom counting formula,
//! yielding exactly the "modified variables ΔV and factors ΔF" of §4.1.

use crate::state::{GroundingDelta, GroundingState};
use deepdive_ddlog::{DdlogProgram, FactorRule, WeightSpec};
use deepdive_factorgraph::{FactorArg, VariableId};
use deepdive_storage::{
    Atom, AtomDeltas, BaseChange, CompiledRule, Database, DeltaRelation, IncrementalEngine,
    MaintenanceResult, Program, Row, Rule, Schema, Source, StorageError, StratifiedProgram, Term,
    Value, ValueType,
};
use std::collections::{HashMap, HashSet};

/// Suffix convention tying a query relation `R` to its evidence relation
/// `R_Ev` (paper §3.2: "each user relation is associated with an evidence
/// relation with the same schema [...] and an additional field").
pub const EVIDENCE_SUFFIX: &str = "_Ev";

/// A factor rule compiled against the database: its body is evaluated via a
/// synthetic head relation holding one column per head term (+ the tied
/// weight value).
struct CompiledFactorRule {
    rule: FactorRule,
    compiled: CompiledRule,
    /// Delta-rule variants: positive body position → (rule recompiled with
    /// that atom first, new→old order map). See §4.1's `qδ(x) :- Rδ(x,y)`.
    variants: std::collections::HashMap<usize, (CompiledRule, Vec<usize>)>,
    /// Column span of each head atom within the grounding row.
    head_spans: Vec<(String, usize, usize)>,
    /// Column holding the tied-weight value, if any.
    weight_col: Option<usize>,
}

/// Per-phase wall-clock of one initial load, matching the Figure-2
/// breakdown: candidate generation + feature extraction, supervision
/// (strata deriving `*_Ev` relations), and learning-side grounding.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadTimings {
    pub candidate_extraction: std::time::Duration,
    pub supervision: std::time::Duration,
    pub grounding: std::time::Duration,
}

/// The grounder: owns the DDlog program, the derivation-rule maintenance
/// engine, the factor-rule compilations, and the grounding state.
pub struct Grounder {
    pub ddlog: DdlogProgram,
    engine: IncrementalEngine,
    factor_rules: Vec<CompiledFactorRule>,
    pub state: GroundingState,
    /// Query relation names (owning Boolean variables).
    query_relations: HashSet<String>,
    /// evidence relation name → query relation name.
    evidence_of: HashMap<String, String>,
}

impl Grounder {
    /// Prepare a grounder: create missing relations, compile rules. Does not
    /// evaluate anything yet — call [`Grounder::initial_load`].
    pub fn new(db: &mut Database, ddlog: DdlogProgram) -> Result<Self, StorageError> {
        // Create declared relations that do not exist yet.
        for (schema, _) in &ddlog.schemas {
            if !db.has_relation(&schema.name) {
                db.create_relation(schema.clone())?;
            }
        }

        let query_relations: HashSet<String> =
            ddlog.query_relations().map(|s| s.name.clone()).collect();
        let mut evidence_of = HashMap::new();
        for q in &query_relations {
            let ev = format!("{q}{EVIDENCE_SUFFIX}");
            if db.has_relation(&ev) {
                evidence_of.insert(ev, q.clone());
            }
        }

        // Compile factor rules against synthetic head relations.
        let mut factor_rules = Vec::new();
        for fr in &ddlog.factor_rules {
            let synth_name = format!("__ground__{}", fr.name);
            let mut head_terms: Vec<Term> = Vec::new();
            let mut head_spans = Vec::new();
            for h in &fr.heads {
                let start = head_terms.len();
                head_terms.extend(h.terms.iter().cloned());
                head_spans.push((h.relation.clone(), start, head_terms.len()));
            }
            let weight_col = match &fr.weight {
                WeightSpec::Tied(v) => {
                    head_terms.push(Term::var(v.clone()));
                    Some(head_terms.len() - 1)
                }
                _ => None,
            };
            let mut schema = Schema::build(&synth_name);
            for i in 0..head_terms.len() {
                schema = schema.col(format!("c{i}"), ValueType::Any);
            }
            db.create_or_replace_relation(schema.finish());
            let storage_rule = Rule {
                name: fr.name.clone(),
                head: Atom::new(&synth_name, head_terms),
                body: fr.body.clone(),
                builtins: fr.builtins.clone(),
                udfs: fr.udfs.clone(),
            };
            // UDF failures under `FailurePolicy::Quarantine` should land in
            // the quarantine relation of the user-visible head, not of the
            // synthetic `__ground__*` scratch relation.
            let quarantine_base = fr
                .heads
                .first()
                .map(|h| h.relation.clone())
                .unwrap_or_else(|| synth_name.clone());
            let mut compiled = CompiledRule::compile(&storage_rule, db)?;
            compiled.set_quarantine_base(&quarantine_base);
            let mut variants = std::collections::HashMap::new();
            for (i, lit) in storage_rule.body.iter().enumerate() {
                if lit.negated {
                    continue;
                }
                let (reordered, order) =
                    deepdive_storage::datalog::reorder_body_front(&storage_rule, i);
                let mut variant = CompiledRule::compile(&reordered, db)?;
                variant.set_quarantine_base(&quarantine_base);
                variants.insert(i, (variant, order));
            }
            factor_rules.push(CompiledFactorRule {
                rule: fr.clone(),
                compiled,
                variants,
                head_spans,
                weight_col,
            });
        }

        let program = Program::new(ddlog.derivation_rules.clone());
        // `@cardinality(N)` declaration hints seed the planner's statistics
        // so join orders are sensible even before any data is loaded.
        let engine = IncrementalEngine::new(StratifiedProgram::with_hints(
            program,
            db,
            ddlog.cardinality_hints.clone(),
        )?);

        Ok(Grounder {
            ddlog,
            engine,
            factor_rules,
            state: GroundingState::new(),
            query_relations,
            evidence_of,
        })
    }

    /// Initial load: evaluate derivation rules to fixpoint, then ground every
    /// factor rule from scratch.
    pub fn initial_load(&mut self, db: &Database) -> Result<GroundingDelta, StorageError> {
        self.initial_load_timed(db).map(|(d, _)| d)
    }

    /// [`Grounder::initial_load`] with the per-phase timing breakdown.
    pub fn initial_load_timed(
        &mut self,
        db: &Database,
    ) -> Result<(GroundingDelta, LoadTimings), StorageError> {
        let mut timings = LoadTimings::default();
        // Base relations are loaded before initial evaluation, so live row
        // counts and distinct estimates are available now — replace the
        // construction-time plans (hint-only) with measured ones.
        self.engine.replan(db)?;
        self.engine
            .initial_load_instrumented(db, |stratum, elapsed| {
                let is_supervision = stratum
                    .relations
                    .iter()
                    .all(|r| r.ends_with(EVIDENCE_SUFFIX));
                if is_supervision {
                    timings.supervision += elapsed;
                } else {
                    timings.candidate_extraction += elapsed;
                }
            })?;
        let ground_start = std::time::Instant::now();
        let mut delta = GroundingDelta::default();

        // Variables for every query-relation tuple (sorted relation order —
        // variable ids must be deterministic run to run).
        let mut sorted_qrels: Vec<String> = self.query_relations.iter().cloned().collect();
        sorted_qrels.sort();
        for rel in sorted_qrels {
            // Stream the relation in sorted order, one row group at a time —
            // variable ids are assigned in exactly the order the old
            // materialize-then-sort path produced.
            let schema = db.schema(&rel).ok();
            let state = &mut self.state;
            db.for_each_row_sorted(&rel, &mut |row, _| {
                let label = schema.as_ref().map(|s| s.render(row));
                state.variable(&rel, row, label);
                delta.added_variables += 1;
            })?;
        }

        // Evidence labels (BTreeMap: deterministic tuple order).
        let mut sorted_ev: Vec<(String, String)> = self
            .evidence_of
            .iter()
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        sorted_ev.sort();
        for (ev_rel, q_rel) in sorted_ev {
            let mut by_tuple: std::collections::BTreeMap<Row, (usize, usize)> =
                std::collections::BTreeMap::new();
            db.for_each_row_sorted(&ev_rel, &mut |row, _| {
                let (args, label) = split_evidence_row(row);
                let e = by_tuple.entry(args).or_insert((0, 0));
                if label {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            })?;
            for (args, (pos, neg)) in by_tuple {
                if let Some(label) = majority(pos, neg) {
                    // Evidence may reference tuples the candidate mappings
                    // did not produce; those get variables too so learning
                    // sees every label.
                    let lbl = self.render_label(db, &q_rel, &args);
                    self.state.variable(&q_rel, &args, lbl);
                    if self.state.set_evidence(&q_rel, &args, Some(label)) {
                        delta.evidence_changes += 1;
                    }
                }
            }
        }

        // Ground every factor rule (rows sorted for deterministic factor and
        // weight interning order).
        let no_deltas: AtomDeltas = HashMap::new();
        for i in 0..self.factor_rules.len() {
            delta.rule_evaluations += 1;
            let results = self.factor_rules[i]
                .compiled
                .eval(db, &no_deltas, &|_| Source::Old)?;
            let mut rows: Vec<(Row, i64)> = results.into_iter().collect();
            rows.sort();
            for (grounding, count) in rows {
                if count > 0 {
                    self.apply_grounding_delta(db, i, &grounding, count, &mut delta)?;
                }
            }
        }
        timings.grounding = ground_start.elapsed();
        Ok((delta, timings))
    }

    /// Apply base-table changes: maintain derived relations (counting/DRed),
    /// then maintain variables, evidence, and factor groundings — the ΔV/ΔF
    /// pipeline of §4.1.
    pub fn apply_update(
        &mut self,
        db: &Database,
        changes: Vec<BaseChange>,
    ) -> Result<GroundingDelta, StorageError> {
        self.apply_update_traced(db, changes).map(|(d, _)| d)
    }

    /// Like [`Grounder::apply_update`], but also returns the membership-level
    /// [`MaintenanceResult`] from the storage IVM layer instead of dropping
    /// it — consumers (the serve subscription router) need the per-epoch
    /// appeared/disappeared trace.
    pub fn apply_update_traced(
        &mut self,
        db: &Database,
        changes: Vec<BaseChange>,
    ) -> Result<(GroundingDelta, MaintenanceResult), StorageError> {
        let result = self.engine.apply_update(db, changes)?;
        let mut delta = GroundingDelta::default();
        let mut orphan_candidates: Vec<deepdive_factorgraph::VariableId> = Vec::new();

        // Membership deltas per relation (for factor-rule maintenance).
        let mut deltas: HashMap<String, DeltaRelation> = HashMap::new();
        let mut record = |rel: &String, row: &Row, sign: i64, db: &Database| {
            if let Ok(schema) = db.schema(rel) {
                deltas
                    .entry(rel.clone())
                    .or_insert_with(|| DeltaRelation::new(schema))
                    .add(row.clone(), sign);
            }
        };
        for (rel, rows) in &result.appeared {
            for r in rows {
                record(rel, r, 1, db);
            }
        }
        for (rel, rows) in &result.disappeared {
            for r in rows {
                record(rel, r, -1, db);
            }
        }

        // Variables for changed query-relation tuples (sorted for
        // deterministic variable ids).
        let mut sorted_qrels: Vec<&String> = self.query_relations.iter().collect();
        sorted_qrels.sort();
        for rel in sorted_qrels {
            if let Some(rows) = result.appeared.get(rel) {
                let mut rows = rows.clone();
                rows.sort();
                for row in &rows {
                    let label = self.render_label(db, rel, row);
                    self.state.variable(rel, row, label);
                    delta.added_variables += 1;
                }
            }
            if let Some(rows) = result.disappeared.get(rel) {
                for row in rows {
                    if self.state.remove_variable(rel, row) {
                        delta.removed_variables += 1;
                    }
                }
            }
        }

        // Evidence recomputation for touched tuples (sorted).
        let mut sorted_ev: Vec<(String, String)> = self
            .evidence_of
            .iter()
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        sorted_ev.sort();
        for (ev_rel, q_rel) in sorted_ev {
            let mut touched: std::collections::BTreeSet<Row> = std::collections::BTreeSet::new();
            for source in [&result.appeared, &result.disappeared] {
                if let Some(rows) = source.get(&ev_rel) {
                    for row in rows {
                        touched.insert(split_evidence_row(row).0);
                    }
                }
            }
            for args in touched {
                let label = self.evidence_label(db, &ev_rel, &args)?;
                if label.is_some() {
                    let lbl = self.render_label(db, &q_rel, &args);
                    self.state.variable(&q_rel, &args, lbl);
                }
                if self.state.set_evidence(&q_rel, &args, label) {
                    delta.evidence_changes += 1;
                }
            }
        }

        // Factor-rule maintenance.
        for i in 0..self.factor_rules.len() {
            let fr = &self.factor_rules[i];
            let body_changed = fr
                .rule
                .body
                .iter()
                .any(|l| deltas.contains_key(&l.atom.relation));
            if !body_changed {
                continue;
            }
            let negation_hit = fr
                .rule
                .body
                .iter()
                .any(|l| l.negated && deltas.contains_key(&l.atom.relation));
            let __t = std::time::Instant::now();
            let grounding_deltas = if negation_hit {
                self.recompute_rule_diff(db, i, &mut delta)?
            } else {
                self.counting_rule_delta(db, i, &deltas, &mut delta)?
            };
            if std::env::var("DD_PROFILE").is_ok() {
                eprintln!(
                    "    rule {} eval {:?} -> {} grounding deltas",
                    self.factor_rules[i].rule.name,
                    __t.elapsed(),
                    grounding_deltas.len()
                );
            }
            let mut grounding_deltas = grounding_deltas;
            grounding_deltas.sort();
            for (grounding, count) in grounding_deltas {
                if count > 0 {
                    self.apply_grounding_delta(db, i, &grounding, count, &mut delta)?;
                } else if count < 0 {
                    let rule_name = self.factor_rules[i].rule.name.clone();
                    if let Some(fid) = self.state.remove_grounding(&rule_name, &grounding, -count) {
                        delta.removed_factors += 1;
                        orphan_candidates.extend(self.state.factor_variables(fid));
                    }
                }
            }
        }

        // Garbage-collect variables: a variable dies when its tuple is gone
        // from its relation and no live factor references it.
        for vid in orphan_candidates {
            if self.state.refs(vid) > 0 || self.state.removed_vars.contains(&vid) {
                continue;
            }
            let Some((rel, tuple)) = self.state.var_key.get(&vid).cloned() else {
                continue;
            };
            if !db.contains(&rel, &tuple)? && self.state.remove_variable(&rel, &tuple) {
                delta.removed_variables += 1;
            }
        }
        Ok((delta, result))
    }

    /// Exact counting delta for one factor rule (same per-atom formula as the
    /// storage IVM layer): `Σᵢ New…New Δᵢ Old…Old`, with the db holding NEW.
    fn counting_rule_delta(
        &self,
        db: &Database,
        idx: usize,
        deltas: &HashMap<String, DeltaRelation>,
        delta: &mut GroundingDelta,
    ) -> Result<Vec<(Row, i64)>, StorageError> {
        let fr = &self.factor_rules[idx];
        let mut neg_deltas: HashMap<String, DeltaRelation> = HashMap::new();
        for (rel, d) in deltas {
            let mut nd = DeltaRelation::new(d.schema().clone());
            for (r, c) in d.iter() {
                nd.add(r.clone(), -c);
            }
            neg_deltas.insert(rel.clone(), nd);
        }
        let positions: Vec<usize> = fr
            .rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.negated && deltas.contains_key(&l.atom.relation))
            .map(|(i, _)| i)
            .collect();
        let mut out: HashMap<Row, i64> = HashMap::new();
        for (k, &pos) in positions.iter().enumerate() {
            let pos_rel = &fr.rule.body[pos].atom.relation;
            // Delta-first join order (§4.1 delta-rule shape).
            let (variant, order) = &fr.variants[&pos];
            let later: Vec<usize> = positions[k + 1..].to_vec();
            let mut atom_deltas: AtomDeltas = HashMap::new();
            let mut sources = vec![Source::Old; order.len()];
            for (new_i, &old_i) in order.iter().enumerate() {
                if old_i == pos {
                    atom_deltas.insert(new_i, &deltas[pos_rel]);
                    sources[new_i] = Source::Delta;
                } else if later.contains(&old_i) {
                    atom_deltas.insert(new_i, &neg_deltas[&fr.rule.body[old_i].atom.relation]);
                    sources[new_i] = Source::New; // New ⊎ (−Δ) == Old
                } // else: db as-is == New
            }
            delta.rule_evaluations += 1;
            let contribution = variant.eval(db, &atom_deltas, &|i| sources[i])?;
            for (row, c) in contribution {
                *out.entry(row).or_insert(0) += c;
            }
        }
        Ok(out.into_iter().filter(|(_, c)| *c != 0).collect())
    }

    /// Full re-evaluation diff for rules with negation on changed relations.
    fn recompute_rule_diff(
        &self,
        db: &Database,
        idx: usize,
        delta: &mut GroundingDelta,
    ) -> Result<Vec<(Row, i64)>, StorageError> {
        let fr = &self.factor_rules[idx];
        delta.rule_evaluations += 1;
        let fresh = fr.compiled.eval(db, &HashMap::new(), &|_| Source::Old)?;
        let rule_name = &fr.rule.name;
        let mut diffs: Vec<(Row, i64)> = Vec::new();
        // New or changed groundings.
        for (row, new_count) in &fresh {
            let old = self
                .state
                .factor_index
                .get(&(rule_name.clone(), row.clone()))
                .map(|(_, c)| *c)
                .unwrap_or(0);
            if *new_count != old {
                diffs.push((row.clone(), new_count - old));
            }
        }
        // Vanished groundings.
        for ((rname, row), (_, old_count)) in &self.state.factor_index {
            if rname == rule_name && *old_count > 0 && !fresh.contains_key(row) {
                diffs.push((row.clone(), -old_count));
            }
        }
        Ok(diffs)
    }

    /// Create (or bump) a factor for one grounding row, creating argument
    /// variables as needed and resolving the (possibly tied) weight.
    fn apply_grounding_delta(
        &mut self,
        db: &Database,
        idx: usize,
        grounding: &Row,
        count: i64,
        delta: &mut GroundingDelta,
    ) -> Result<(), StorageError> {
        let (rule_name, function, head_spans, weight_col, weight_spec) = {
            let fr = &self.factor_rules[idx];
            (
                fr.rule.name.clone(),
                fr.rule.function,
                fr.head_spans.clone(),
                fr.weight_col,
                fr.rule.weight.clone(),
            )
        };
        let mut args = Vec::with_capacity(head_spans.len());
        for (rel, start, end) in &head_spans {
            let head_row: Row = grounding[*start..*end].to_vec().into_boxed_slice();
            let existed = self.state.lookup_variable(rel, &head_row).is_some();
            let label = self.render_label(db, rel, &head_row);
            let vid: VariableId = self.state.variable(rel, &head_row, label);
            if !existed {
                delta.added_variables += 1;
            }
            args.push(FactorArg::pos(vid));
        }
        let weight = match &weight_spec {
            WeightSpec::Fixed(v) => self
                .state
                .graph
                .weights
                .fixed(format!("rule:{rule_name}"), *v),
            WeightSpec::PerRule => self
                .state
                .graph
                .weights
                .tied(format!("rule:{rule_name}"), 0.0),
            WeightSpec::Tied(_) => {
                let v: &Value = &grounding[weight_col.expect("tied weight column")];
                self.state
                    .graph
                    .weights
                    .tied(format!("{rule_name}:{v}"), 0.0)
            }
        };
        if self
            .state
            .add_grounding(&rule_name, grounding.clone(), count, function, args, weight)
        {
            delta.added_factors += 1;
        }
        Ok(())
    }

    /// Recompute the evidence label for one tuple from its evidence relation
    /// (majority vote; ties and no-labels → unlabeled).
    fn evidence_label(
        &self,
        db: &Database,
        ev_rel: &str,
        args: &Row,
    ) -> Result<Option<bool>, StorageError> {
        let (mut pos, mut neg) = (0usize, 0usize);
        let arity = args.len();
        let key_cols: Vec<usize> = (0..arity).collect();
        let mut matches = Vec::new();
        db.lookup_counted(ev_rel, &key_cols, args, &mut matches)?;
        for (row, c) in matches {
            if c <= 0 {
                continue;
            }
            if row[arity].as_bool().unwrap_or(false) {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        Ok(majority(pos, neg))
    }

    fn render_label(&self, db: &Database, relation: &str, row: &Row) -> Option<String> {
        db.schema(relation).ok().map(|s| s.render(row))
    }

    /// Access to the derivation-rule maintenance engine (diagnostics).
    pub fn engine(&self) -> &IncrementalEngine {
        &self.engine
    }
}

/// Split an evidence row into (args, label).
fn split_evidence_row(row: &Row) -> (Row, bool) {
    let n = row.len();
    let args: Row = row[..n - 1].to_vec().into_boxed_slice();
    let label = row[n - 1].as_bool().unwrap_or(false);
    (args, label)
}

fn majority(pos: usize, neg: usize) -> Option<bool> {
    use std::cmp::Ordering::*;
    match pos.cmp(&neg) {
        Greater => Some(true),
        Less => Some(false),
        Equal => None,
    }
}
