//! Incremental view maintenance: counting for non-recursive strata, DRed
//! (delete and re-derive, Gupta–Mumick–Subrahmanian \[17\]) for recursive ones.
//!
//! §4.1 of the paper: "DeepDive uses the DRed algorithm that handles both
//! additions and deletions. [...] On an update, DeepDive updates delta
//! relations in two steps. First [...] directly updates the corresponding
//! counts. Second, a SQL query called a 'delta rule' is executed which
//! processes these counts to generate modified variables ΔV and factors ΔF."
//!
//! [`IncrementalEngine::apply_update`] is that machinery: base-table changes
//! enter at the bottom, propagate stratum by stratum, and the result is the
//! set of visible membership changes per derived relation — exactly what
//! incremental grounding consumes to produce ΔV/ΔF.

use crate::database::Database;
use crate::datalog::{AtomDeltas, Source};
use crate::delta::DeltaRelation;
use crate::program::{apply_delta_counted, StratifiedProgram, Stratum};
use crate::table::Membership;
use crate::value::Row;
use crate::StorageError;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Get-or-create the delta accumulator for `rel`, surfacing a missing schema
/// as a typed error instead of panicking mid-maintenance.
fn delta_entry<'m>(
    map: &'m mut HashMap<String, DeltaRelation>,
    rel: &str,
    db: &Database,
) -> Result<&'m mut DeltaRelation, StorageError> {
    match map.entry(rel.to_string()) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => Ok(v.insert(DeltaRelation::new(db.schema(rel)?))),
    }
}

/// Look up a stratum-visible accumulator that maintenance pre-populated;
/// absence is an engine bug, reported as [`StorageError::Internal`].
fn visible_entry<'m>(
    map: &'m mut HashMap<String, DeltaRelation>,
    rel: &str,
) -> Result<&'m mut DeltaRelation, StorageError> {
    map.get_mut(rel).ok_or_else(|| StorageError::Internal {
        context: format!("relation `{rel}` missing from stratum-visible set"),
    })
}

/// One base-table change: insert (`+1`) or delete (`-1`) of a row.
#[derive(Debug, Clone)]
pub struct BaseChange {
    pub relation: String,
    pub row: Row,
    pub delta: i64,
}

impl BaseChange {
    pub fn insert(relation: impl Into<String>, row: Row) -> Self {
        BaseChange {
            relation: relation.into(),
            row,
            delta: 1,
        }
    }

    pub fn delete(relation: impl Into<String>, row: Row) -> Self {
        BaseChange {
            relation: relation.into(),
            row,
            delta: -1,
        }
    }
}

/// Visible membership changes produced by one maintenance pass.
#[derive(Debug, Default)]
pub struct MaintenanceResult {
    /// Per-relation rows that became visible.
    pub appeared: HashMap<String, Vec<Row>>,
    /// Per-relation rows that ceased to be visible.
    pub disappeared: HashMap<String, Vec<Row>>,
    /// Number of rule evaluations performed (effort metric for benches).
    pub rule_evaluations: usize,
}

impl MaintenanceResult {
    pub fn total_changes(&self) -> usize {
        self.appeared.values().map(Vec::len).sum::<usize>()
            + self.disappeared.values().map(Vec::len).sum::<usize>()
    }

    fn record(&mut self, relation: &str, appeared: Vec<Row>, disappeared: Vec<Row>) {
        if !appeared.is_empty() {
            self.appeared
                .entry(relation.to_string())
                .or_default()
                .extend(appeared);
        }
        if !disappeared.is_empty() {
            self.disappeared
                .entry(relation.to_string())
                .or_default()
                .extend(disappeared);
        }
    }
}

/// Incremental maintenance engine over a stratified program.
pub struct IncrementalEngine {
    sp: StratifiedProgram,
}

impl IncrementalEngine {
    pub fn new(sp: StratifiedProgram) -> Self {
        IncrementalEngine { sp }
    }

    pub fn program(&self) -> &StratifiedProgram {
        &self.sp
    }

    /// Re-plan rule execution against current table statistics (see
    /// [`StratifiedProgram::replan`]). The grounder calls this once data is
    /// loaded; plans never change results, only access paths.
    pub fn replan(&mut self, db: &Database) -> Result<(), StorageError> {
        self.sp.replan(db)
    }

    /// Evaluate the program from scratch (initial load; §4.1: DRed always
    /// runs "except on initial load").
    pub fn initial_load(&self, db: &Database) -> Result<(), StorageError> {
        self.sp.evaluate(db)?;
        Ok(())
    }

    /// Initial load with per-stratum timing callbacks.
    pub fn initial_load_instrumented(
        &self,
        db: &Database,
        on_stratum: impl FnMut(&crate::program::Stratum, std::time::Duration),
    ) -> Result<(), StorageError> {
        self.sp.evaluate_instrumented(db, on_stratum)?;
        Ok(())
    }

    /// Apply base changes and propagate through all strata incrementally.
    ///
    /// Base changes must target EDB relations (relations without rules);
    /// changes to derived relations would be clobbered by maintenance.
    pub fn apply_update(
        &self,
        db: &Database,
        changes: Vec<BaseChange>,
    ) -> Result<MaintenanceResult, StorageError> {
        let derived = self.sp.derived_relations();
        let mut result = MaintenanceResult::default();

        // Stage 1 (§4.1 step one): apply base-table count updates, and build
        // the initial delta map of *visible membership* changes. Counting
        // joins must see membership (0/1) deltas for base tables: base
        // tables are sets from the rules' point of view.
        let mut deltas: HashMap<String, DeltaRelation> = HashMap::new();
        for ch in changes {
            if derived.contains(&ch.relation) {
                return Err(StorageError::DuplicateRelation(format!(
                    "cannot apply base change to derived relation `{}`",
                    ch.relation
                )));
            }
            let schema = db.schema(&ch.relation)?;
            let membership = db.adjust(&ch.relation, ch.row.clone(), ch.delta)?;
            let signed = match membership {
                Membership::Appeared => 1,
                Membership::Disappeared => -1,
                _ => continue,
            };
            deltas
                .entry(ch.relation.clone())
                .or_insert_with(|| DeltaRelation::new(schema))
                .add(ch.row.clone(), signed);
            let (app, dis) = if signed > 0 {
                (vec![ch.row], vec![])
            } else {
                (vec![], vec![ch.row])
            };
            result.record(&ch.relation, app, dis);
        }

        // Stage 2: propagate through strata in topological order. Invariant:
        // when a stratum runs, the database holds the NEW state of every
        // relation that already has an entry in `deltas` (base tables were
        // updated in stage 1; derived tables at the end of their stratum).
        for stratum in &self.sp.strata {
            let touches = stratum.rule_indices.iter().any(|&ri| {
                let rule = &self.sp.program.rules[ri];
                rule.body
                    .iter()
                    .any(|l| deltas.contains_key(&l.atom.relation))
            });
            if !touches {
                continue;
            }
            let negation_hit = stratum.rule_indices.iter().any(|&ri| {
                self.sp.program.rules[ri]
                    .body
                    .iter()
                    .any(|l| l.negated && deltas.contains_key(&l.atom.relation))
            });
            let produced = if negation_hit {
                // Exact delta propagation through negation is unsupported;
                // recompute the stratum and diff (correct, costlier).
                result.rule_evaluations += stratum.rule_indices.len();
                self.sp.recompute_stratum_diff(db, stratum)?
            } else if stratum.recursive {
                self.maintain_recursive_dred(db, stratum, &deltas, &mut result)?
            } else {
                self.maintain_counting(db, stratum, &deltas, &mut result)?
            };
            for (rel, delta) in produced {
                for (r, c) in delta.iter() {
                    if c > 0 {
                        result
                            .appeared
                            .entry(rel.clone())
                            .or_default()
                            .push(r.clone());
                    } else {
                        result
                            .disappeared
                            .entry(rel.clone())
                            .or_default()
                            .push(r.clone());
                    }
                }
                deltas
                    .entry(rel)
                    .or_insert_with(|| DeltaRelation::new(delta.schema().clone()))
                    .merge(&delta);
            }
        }
        Ok(result)
    }

    /// Counting maintenance for a non-recursive stratum.
    ///
    /// Exact per-atom formula (valid for self-joins because deltas are keyed
    /// by atom position):
    /// `Δ(⋈ᵢ Aᵢ) = Σᵢ New(A₁)…New(Aᵢ₋₁) ⋈ ΔAᵢ ⋈ Old(Aᵢ₊₁)…Old(Aₙ)`.
    /// The database already holds NEW, so `New` = `Source::Old` against the
    /// db, and `Old` = `Source::New` with the *negated* delta attached.
    fn maintain_counting(
        &self,
        db: &Database,
        stratum: &Stratum,
        deltas: &HashMap<String, DeltaRelation>,
        result: &mut MaintenanceResult,
    ) -> Result<HashMap<String, DeltaRelation>, StorageError> {
        // Negated deltas for Old-state emulation.
        let mut neg_deltas: HashMap<String, DeltaRelation> = HashMap::new();
        for (rel, d) in deltas {
            let mut nd = DeltaRelation::new(d.schema().clone());
            for (r, c) in d.iter() {
                nd.add(r.clone(), -c);
            }
            neg_deltas.insert(rel.clone(), nd);
        }

        let mut produced: HashMap<String, DeltaRelation> = HashMap::new();
        for &ri in &stratum.rule_indices {
            let rule = &self.sp.program.rules[ri];
            let positions: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.negated && deltas.contains_key(&l.atom.relation))
                .map(|(i, _)| i)
                .collect();
            for (k, &pos) in positions.iter().enumerate() {
                let pos_rel = &rule.body[pos].atom.relation;
                let later: Vec<usize> = positions[k + 1..].to_vec();
                result.rule_evaluations += 1;
                let contribution = if rule.udfs.is_empty() {
                    // Delta-first, cost-planned variant: the (small) delta
                    // drives the join instead of sitting mid-pipeline behind
                    // full scans. Sources/deltas are remapped through the
                    // variant's order map so the per-position counting
                    // formula is untouched.
                    let (variant, order) = self.sp.variant(ri, pos);
                    let mut atom_deltas: AtomDeltas = HashMap::new();
                    let mut sources = vec![Source::Old; order.len()];
                    for (new_i, &old_i) in order.iter().enumerate() {
                        if old_i == pos {
                            atom_deltas.insert(new_i, &deltas[pos_rel]);
                            sources[new_i] = Source::Delta;
                        } else if later.contains(&old_i) {
                            let rel = &rule.body[old_i].atom.relation;
                            atom_deltas.insert(new_i, &neg_deltas[rel]);
                            sources[new_i] = Source::New; // db (New) ⊎ (−Δ) == Old
                        }
                    }
                    variant.eval(db, &atom_deltas, &|i| sources[i])?
                } else {
                    // UDF rules keep the authored order: reordering could
                    // change UDF invocation multiplicity, which is observable
                    // through incident counters and quarantines.
                    let c = self.sp.compiled(ri);
                    let mut atom_deltas: AtomDeltas = HashMap::new();
                    atom_deltas.insert(pos, &deltas[pos_rel]);
                    for &l in &later {
                        let rel = &rule.body[l].atom.relation;
                        atom_deltas.insert(l, &neg_deltas[rel]);
                    }
                    c.eval(db, &atom_deltas, &|i| {
                        if i == pos {
                            Source::Delta
                        } else if later.contains(&i) {
                            Source::New // db (New) ⊎ (−Δ) == Old
                        } else {
                            Source::Old // db as-is == New
                        }
                    })?
                };
                let head = &rule.head.relation;
                let entry = delta_entry(&mut produced, head, db)?;
                for (row, count) in contribution {
                    entry.add(row, count);
                }
            }
        }

        // Apply produced count deltas to head tables; return the visible
        // membership changes only (downstream strata join on visibility).
        let mut visible: HashMap<String, DeltaRelation> = HashMap::new();
        for (rel, delta) in produced {
            let applied = apply_delta_counted(db, &rel, &delta)?;
            let mut vis = DeltaRelation::new(db.schema(&rel)?);
            for r in applied.appeared {
                vis.add(r, 1);
            }
            for r in applied.disappeared {
                vis.add(r, -1);
            }
            if !vis.is_empty() {
                visible.insert(rel, vis);
            }
        }
        Ok(visible)
    }

    /// DRed maintenance for a recursive stratum (set semantics).
    fn maintain_recursive_dred(
        &self,
        db: &Database,
        stratum: &Stratum,
        deltas: &HashMap<String, DeltaRelation>,
        result: &mut MaintenanceResult,
    ) -> Result<HashMap<String, DeltaRelation>, StorageError> {
        let mut visible: HashMap<String, DeltaRelation> = HashMap::new();
        for rel in &stratum.relations {
            visible.insert(rel.clone(), DeltaRelation::new(db.schema(rel)?));
        }

        // `restore` re-adds deleted tuples when emulating the OLD state:
        // the db already reflects deletions from stage 1 / lower strata.
        let mut restore: HashMap<String, DeltaRelation> = HashMap::new();
        for (rel, d) in deltas {
            let neg = d.negative_part(); // deleted tuples, positive counts
            if !neg.is_empty() {
                restore.insert(rel.clone(), neg);
            }
        }

        // ---- Phase 1: over-delete. A stratum tuple is suspect if some
        // derivation in the OLD state used a deleted tuple. Old state =
        // current db ⊎ restore (everything deleted so far re-added).
        let mut deleted: HashMap<String, DeltaRelation> = HashMap::new();
        let mut frontier: HashMap<String, DeltaRelation> = restore.clone();
        while !frontier.is_empty() {
            let mut next: HashMap<String, DeltaRelation> = HashMap::new();
            for &ri in &stratum.rule_indices {
                let _ = ri;
                let rule = &self.sp.program.rules[ri];
                for (occ, lit) in rule.body.iter().enumerate() {
                    if lit.negated {
                        continue;
                    }
                    let Some(front) = frontier.get(&lit.atom.relation) else {
                        continue;
                    };
                    // Delta-first variant; other positions read OLD =
                    // db ⊎ restore.
                    let (variant, order) = self.sp.variant(ri, occ);
                    let mut atom_deltas: AtomDeltas = HashMap::new();
                    let mut sources = vec![Source::Old; order.len()];
                    for (new_i, &old_i) in order.iter().enumerate() {
                        if old_i == occ {
                            atom_deltas.insert(new_i, front);
                            sources[new_i] = Source::Delta;
                        } else if !rule.body[old_i].negated {
                            if let Some(rest) = restore.get(&rule.body[old_i].atom.relation) {
                                atom_deltas.insert(new_i, rest);
                                sources[new_i] = Source::New; // db ⊎ restore == Old
                            }
                        }
                    }
                    result.rule_evaluations += 1;
                    let contribution = variant.eval(db, &atom_deltas, &|i| sources[i])?;
                    let head = rule.head.relation.clone();
                    for (row, cnt) in contribution {
                        if cnt <= 0 {
                            continue;
                        }
                        let already = deleted
                            .get(&head)
                            .map(|d| d.count(&row) > 0)
                            .unwrap_or(false);
                        if !already && db.contains(&head, &row)? {
                            delta_entry(&mut deleted, &head, db)?.add(row.clone(), 1);
                            delta_entry(&mut next, &head, db)?.add(row, 1);
                        }
                    }
                }
            }
            // Remove this wave from the tables and remember it for OLD-state
            // emulation in subsequent waves.
            for (rel, wave) in &next {
                for (row, _) in wave.iter() {
                    db.with_table(rel, |t| t.purge(row))?;
                }
                delta_entry(&mut restore, rel, db)?.merge(wave);
            }
            frontier = next;
        }

        // ---- Phase 2: re-derive. A deleted tuple returns if some rule
        // still derives it from surviving tuples; iterate to fixpoint since
        // re-derived tuples can support further re-derivations.
        let mut rederived: HashMap<String, DeltaRelation> = HashMap::new();
        loop {
            let mut wave: HashMap<String, DeltaRelation> = HashMap::new();
            for &ri in &stratum.rule_indices {
                let c = self.sp.compiled(ri);
                let rule = &self.sp.program.rules[ri];
                let head = rule.head.relation.clone();
                let Some(suspects) = deleted.get(&head) else {
                    continue;
                };
                if suspects.is_empty() {
                    continue;
                }
                result.rule_evaluations += 1;
                let derived_now = c.eval(db, &HashMap::new(), &|_| Source::Old)?;
                for (row, cnt) in derived_now {
                    if cnt > 0 && suspects.count(&row) > 0 && !db.contains(&head, &row)? {
                        db.with_table(&head, |t| t.set_count(row.clone(), 1))??;
                        delta_entry(&mut wave, &head, db)?.add(row, 1);
                    }
                }
            }
            if wave.is_empty() {
                break;
            }
            for (rel, w) in wave {
                delta_entry(&mut rederived, &rel, db)?.merge(&w);
            }
        }

        // Net deletions = over-deleted minus re-derived.
        for (rel, del) in &deleted {
            let vis = visible_entry(&mut visible, rel)?;
            for (row, _) in del.iter() {
                let back = rederived
                    .get(rel)
                    .map(|d| d.count(row) > 0)
                    .unwrap_or(false);
                if !back {
                    vis.add(row.clone(), -1);
                }
            }
        }

        // ---- Phase 3: insertions. Semi-naive with positive deltas as seeds
        // against the post-deletion state.
        let mut frontier: HashMap<String, DeltaRelation> = HashMap::new();
        for (rel, d) in deltas {
            let pos = d.positive_part();
            if !pos.is_empty() {
                frontier.insert(rel.clone(), pos);
            }
        }
        while !frontier.is_empty() {
            let mut next: HashMap<String, DeltaRelation> = HashMap::new();
            for &ri in &stratum.rule_indices {
                let _ = ri;
                let rule = &self.sp.program.rules[ri];
                for (occ, lit) in rule.body.iter().enumerate() {
                    if lit.negated {
                        continue;
                    }
                    let Some(front) = frontier.get(&lit.atom.relation) else {
                        continue;
                    };
                    let (variant, _) = self.sp.variant(ri, occ);
                    let atom_deltas: AtomDeltas = HashMap::from([(0usize, front)]);
                    result.rule_evaluations += 1;
                    let contribution = variant.eval(db, &atom_deltas, &|i| {
                        if i == 0 {
                            Source::Delta
                        } else {
                            Source::Old
                        }
                    })?;
                    let head = rule.head.relation.clone();
                    for (row, cnt) in contribution {
                        if cnt > 0 && !db.contains(&head, &row)? {
                            db.with_table(&head, |t| t.set_count(row.clone(), 1))??;
                            delta_entry(&mut next, &head, db)?.add(row.clone(), 1);
                            visible_entry(&mut visible, &head)?.add(row, 1);
                        }
                    }
                }
            }
            frontier = next;
        }

        visible.retain(|_, d| !d.is_empty());
        Ok(visible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{Atom, CmpOp, Literal, Rule, Term};
    use crate::program::Program;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn edge_db() -> Database {
        let db = Database::new();
        db.create_relation(
            Schema::build("edge")
                .col("a", ValueType::Int)
                .col("b", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(
            Schema::build("path")
                .col("a", ValueType::Int)
                .col("b", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db
    }

    fn tc_engine(db: &Database) -> IncrementalEngine {
        let prog = Program::new(vec![
            Rule::new(
                "base",
                Atom::new("path", vec![Term::var("a"), Term::var("b")]),
                vec![Literal::pos(Atom::new(
                    "edge",
                    vec![Term::var("a"), Term::var("b")],
                ))],
            ),
            Rule::new(
                "step",
                Atom::new("path", vec![Term::var("a"), Term::var("c")]),
                vec![
                    Literal::pos(Atom::new("path", vec![Term::var("a"), Term::var("b")])),
                    Literal::pos(Atom::new("edge", vec![Term::var("b"), Term::var("c")])),
                ],
            ),
        ]);
        IncrementalEngine::new(StratifiedProgram::new(prog, db).unwrap())
    }

    /// Reference: full recomputation must agree with incremental maintenance.
    fn assert_agrees_with_recompute(engine: &IncrementalEngine, db: &Database, rels: &[&str]) {
        let mut snapshots = Vec::new();
        for rel in rels {
            snapshots.push(db.rows(rel).unwrap());
        }
        engine.program().evaluate(db).unwrap();
        for (rel, snap) in rels.iter().zip(snapshots) {
            assert_eq!(db.rows(rel).unwrap(), snap, "IVM drift on {rel}");
        }
    }

    #[test]
    fn insertion_extends_transitive_closure() {
        let db = edge_db();
        let engine = tc_engine(&db);
        db.insert("edge", row![1, 2]).unwrap();
        engine.initial_load(&db).unwrap();
        let res = engine
            .apply_update(&db, vec![BaseChange::insert("edge", row![2, 3])])
            .unwrap();
        assert!(db.contains("path", &row![1, 3]).unwrap());
        assert!(res.appeared["path"].contains(&row![2, 3]));
        assert!(res.appeared["path"].contains(&row![1, 3]));
        assert_agrees_with_recompute(&engine, &db, &["path"]);
    }

    #[test]
    fn deletion_retracts_unsupported_paths() {
        let db = edge_db();
        let engine = tc_engine(&db);
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("edge", row![a, b]).unwrap();
        }
        engine.initial_load(&db).unwrap();
        let res = engine
            .apply_update(&db, vec![BaseChange::delete("edge", row![2, 3])])
            .unwrap();
        assert!(!db.contains("path", &row![1, 3]).unwrap());
        assert!(!db.contains("path", &row![1, 4]).unwrap());
        assert!(db.contains("path", &row![1, 2]).unwrap());
        assert!(db.contains("path", &row![3, 4]).unwrap());
        assert!(res.disappeared["path"].contains(&row![2, 3]));
        assert_agrees_with_recompute(&engine, &db, &["path"]);
    }

    #[test]
    fn dred_rederives_alternatively_supported_tuples() {
        let db = edge_db();
        let engine = tc_engine(&db);
        // Two routes 1→3: direct edge and via 2.
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            db.insert("edge", row![a, b]).unwrap();
        }
        engine.initial_load(&db).unwrap();
        engine
            .apply_update(&db, vec![BaseChange::delete("edge", row![2, 3])])
            .unwrap();
        // path(1,3) survives thanks to the direct edge.
        assert!(db.contains("path", &row![1, 3]).unwrap());
        assert_agrees_with_recompute(&engine, &db, &["path"]);
    }

    #[test]
    fn counting_handles_self_join_insertion() {
        // MarriedCandidate-style self-join: C(m1,m2) :- P(s,m1), P(s,m2), m1 < m2.
        let db = Database::new();
        db.create_relation(
            Schema::build("P")
                .col("s", ValueType::Int)
                .col("m", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(
            Schema::build("C")
                .col("m1", ValueType::Int)
                .col("m2", ValueType::Int)
                .finish(),
        )
        .unwrap();
        let prog = Program::new(vec![Rule::new(
            "cand",
            Atom::new("C", vec![Term::var("m1"), Term::var("m2")]),
            vec![
                Literal::pos(Atom::new("P", vec![Term::var("s"), Term::var("m1")])),
                Literal::pos(Atom::new("P", vec![Term::var("s"), Term::var("m2")])),
            ],
        )
        .with_builtin(Term::var("m1"), CmpOp::Lt, Term::var("m2"))]);
        let engine = IncrementalEngine::new(StratifiedProgram::new(prog, &db).unwrap());
        db.insert("P", row![1, 10]).unwrap();
        engine.initial_load(&db).unwrap();
        assert_eq!(db.len("C").unwrap(), 0);
        // Insert two mentions into the same sentence in ONE batch: the
        // self-join delta must produce C(10,20) and C(10,30), C(20,30).
        engine
            .apply_update(
                &db,
                vec![
                    BaseChange::insert("P", row![1, 20]),
                    BaseChange::insert("P", row![1, 30]),
                ],
            )
            .unwrap();
        assert!(db.contains("C", &row![10, 20]).unwrap());
        assert!(db.contains("C", &row![10, 30]).unwrap());
        assert!(db.contains("C", &row![20, 30]).unwrap());
        assert_eq!(db.len("C").unwrap(), 3);
        assert_agrees_with_recompute(&engine, &db, &["C"]);
    }

    #[test]
    fn counting_handles_self_join_deletion() {
        let db = Database::new();
        db.create_relation(
            Schema::build("P")
                .col("s", ValueType::Int)
                .col("m", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(
            Schema::build("C")
                .col("m1", ValueType::Int)
                .col("m2", ValueType::Int)
                .finish(),
        )
        .unwrap();
        let prog = Program::new(vec![Rule::new(
            "cand",
            Atom::new("C", vec![Term::var("m1"), Term::var("m2")]),
            vec![
                Literal::pos(Atom::new("P", vec![Term::var("s"), Term::var("m1")])),
                Literal::pos(Atom::new("P", vec![Term::var("s"), Term::var("m2")])),
            ],
        )
        .with_builtin(Term::var("m1"), CmpOp::Lt, Term::var("m2"))]);
        let engine = IncrementalEngine::new(StratifiedProgram::new(prog, &db).unwrap());
        for m in [10, 20, 30] {
            db.insert("P", row![1, m]).unwrap();
        }
        engine.initial_load(&db).unwrap();
        assert_eq!(db.len("C").unwrap(), 3);
        engine
            .apply_update(&db, vec![BaseChange::delete("P", row![1, 20])])
            .unwrap();
        assert_eq!(db.rows("C").unwrap(), vec![row![10, 30]]);
        assert_agrees_with_recompute(&engine, &db, &["C"]);
    }

    #[test]
    fn mixed_insert_delete_batch() {
        let db = edge_db();
        let engine = tc_engine(&db);
        for (a, b) in [(1, 2), (2, 3)] {
            db.insert("edge", row![a, b]).unwrap();
        }
        engine.initial_load(&db).unwrap();
        engine
            .apply_update(
                &db,
                vec![
                    BaseChange::delete("edge", row![2, 3]),
                    BaseChange::insert("edge", row![2, 4]),
                ],
            )
            .unwrap();
        assert!(db.contains("path", &row![1, 4]).unwrap());
        assert!(!db.contains("path", &row![1, 3]).unwrap());
        assert_agrees_with_recompute(&engine, &db, &["path"]);
    }

    #[test]
    fn negation_strata_recomputed_correctly() {
        let db = Database::new();
        for n in ["Base", "Excl"] {
            db.create_relation(Schema::build(n).col("x", ValueType::Int).finish())
                .unwrap();
        }
        db.create_relation(Schema::build("Out").col("x", ValueType::Int).finish())
            .unwrap();
        let prog = Program::new(vec![Rule::new(
            "out",
            Atom::new("Out", vec![Term::var("x")]),
            vec![
                Literal::pos(Atom::new("Base", vec![Term::var("x")])),
                Literal::neg(Atom::new("Excl", vec![Term::var("x")])),
            ],
        )]);
        let engine = IncrementalEngine::new(StratifiedProgram::new(prog, &db).unwrap());
        db.insert("Base", row![1]).unwrap();
        db.insert("Base", row![2]).unwrap();
        engine.initial_load(&db).unwrap();
        assert_eq!(db.len("Out").unwrap(), 2);
        // Adding an exclusion must retract Out(2).
        let res = engine
            .apply_update(&db, vec![BaseChange::insert("Excl", row![2])])
            .unwrap();
        assert_eq!(db.rows("Out").unwrap(), vec![row![1]]);
        assert!(res.disappeared["Out"].contains(&row![2]));
        // Removing it brings Out(2) back.
        engine
            .apply_update(&db, vec![BaseChange::delete("Excl", row![2])])
            .unwrap();
        assert_eq!(db.len("Out").unwrap(), 2);
    }

    #[test]
    fn base_change_to_derived_relation_rejected() {
        let db = edge_db();
        let engine = tc_engine(&db);
        let err = engine
            .apply_update(&db, vec![BaseChange::insert("path", row![1, 2])])
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateRelation(_)));
    }

    #[test]
    fn redundant_changes_are_noops() {
        let db = edge_db();
        let engine = tc_engine(&db);
        db.insert("edge", row![1, 2]).unwrap();
        engine.initial_load(&db).unwrap();
        // Deleting a non-existent tuple and re-inserting an existing one
        // (count 1 → 2) produce no visible changes downstream.
        let res = engine
            .apply_update(
                &db,
                vec![
                    BaseChange::delete("edge", row![9, 9]),
                    BaseChange::insert("edge", row![1, 2]),
                ],
            )
            .unwrap();
        assert_eq!(res.total_changes(), 0);
        assert!(db.contains("path", &row![1, 2]).unwrap());
    }

    #[test]
    fn multi_stratum_propagation() {
        let db = Database::new();
        db.create_relation(
            Schema::build("R")
                .col("x", ValueType::Int)
                .col("y", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(Schema::build("V1").col("x", ValueType::Int).finish())
            .unwrap();
        db.create_relation(Schema::build("V2").col("x", ValueType::Int).finish())
            .unwrap();
        let prog = Program::new(vec![
            Rule::new(
                "v1",
                Atom::new("V1", vec![Term::var("x")]),
                vec![Literal::pos(Atom::new(
                    "R",
                    vec![Term::var("x"), Term::var("y")],
                ))],
            ),
            Rule::new(
                "v2",
                Atom::new("V2", vec![Term::var("x")]),
                vec![Literal::pos(Atom::new("V1", vec![Term::var("x")]))],
            ),
        ]);
        let engine = IncrementalEngine::new(StratifiedProgram::new(prog, &db).unwrap());
        db.insert("R", row![1, 10]).unwrap();
        engine.initial_load(&db).unwrap();
        // Second derivation of V1(1) must NOT surface a change in V2.
        let res = engine
            .apply_update(&db, vec![BaseChange::insert("R", row![1, 11])])
            .unwrap();
        assert!(!res.appeared.contains_key("V2"));
        assert_eq!(db.count("V1", &row![1]).unwrap(), 2);
        // Deleting one derivation keeps V1(1) visible; deleting both drops V2.
        engine
            .apply_update(&db, vec![BaseChange::delete("R", row![1, 10])])
            .unwrap();
        assert!(db.contains("V2", &row![1]).unwrap());
        let res = engine
            .apply_update(&db, vec![BaseChange::delete("R", row![1, 11])])
            .unwrap();
        assert!(!db.contains("V2", &row![1]).unwrap());
        assert!(res.disappeared["V2"].contains(&row![1]));
    }
}
