//! Programs: collections of rules, stratification, and fixpoint evaluation.
//!
//! A DeepDive program's candidate mappings and grounding queries are a
//! (possibly recursive) datalog program. We stratify by strongly-connected
//! components of the relation dependency graph — negation inside an SCC is
//! rejected ("not stratifiable") — and evaluate SCCs in topological order.
//! Non-recursive components use *counting* semantics (derivation counts, the
//! `count` column of §4.1); recursive components use *set* semantics, which
//! is what the DRed maintenance algorithm requires.

use crate::database::Database;
use crate::datalog::{AtomDeltas, CompiledRule, Rule, Source};
use crate::delta::DeltaRelation;
use crate::exec::ExecutionContext;
use crate::plan::{plan_order, RulePlan, StatsCatalog};
use crate::table::Membership;
use crate::StorageError;
use std::collections::{HashMap, HashSet};

/// A datalog program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn new(rules: Vec<Rule>) -> Self {
        Program { rules }
    }

    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Relations defined by some rule head (the IDB).
    pub fn derived_relations(&self) -> HashSet<String> {
        self.rules.iter().map(|r| r.head.relation.clone()).collect()
    }
}

/// One evaluation unit: an SCC of the relation dependency graph.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Indices into `Program::rules` whose head lives in this SCC.
    pub rule_indices: Vec<usize>,
    /// Relations defined in this SCC.
    pub relations: HashSet<String>,
    /// True if the SCC has an internal edge (self-recursion or mutual).
    pub recursive: bool,
    /// True if any rule of the stratum uses negation.
    pub has_negation: bool,
}

/// A stratified program ready for evaluation and maintenance.
#[derive(Debug)]
pub struct StratifiedProgram {
    pub program: Program,
    pub strata: Vec<Stratum>,
    /// Rules compiled in *authored* body order — the positional reference
    /// frame the IVM layer keys its per-atom deltas to.
    compiled: Vec<CompiledRule>,
    /// Rules compiled in cost-based order with planner-chosen strategies;
    /// used by the all-`Old` evaluation paths (initial load, stratum
    /// recompute), where any join order produces identical results.
    planned: Vec<CompiledRule>,
    /// Explain records, one per rule, for the report's `plan` section.
    plans: Vec<RulePlan>,
    /// Per rule, per positive body position: the rule recompiled with that
    /// atom rotated to the front (the §4.1 "delta rule" shape) plus the
    /// `new index → original index` order map. Built by the planner, so
    /// delta joins pick cost-based residual orders and strategies too.
    variants: Vec<HashMap<usize, (CompiledRule, Vec<usize>)>>,
    /// `@cardinality` hints by relation, for planning before data exists.
    hints: HashMap<String, u64>,
}

impl StratifiedProgram {
    /// Stratify and compile `program` against the catalog of `db`.
    pub fn new(program: Program, db: &Database) -> Result<Self, StorageError> {
        StratifiedProgram::with_hints(program, db, HashMap::new())
    }

    /// Like [`StratifiedProgram::new`] with `@cardinality` hints standing in
    /// for relations that are empty at plan time.
    pub fn with_hints(
        program: Program,
        db: &Database,
        hints: HashMap<String, u64>,
    ) -> Result<Self, StorageError> {
        let compiled: Result<Vec<_>, _> = program
            .rules
            .iter()
            .map(|r| CompiledRule::compile(r, db))
            .collect();
        let compiled = compiled?;

        let (planned, plans, variants) = build_plans(&program, db, &hints)?;

        let derived = program.derived_relations();

        // Dependency edges among *derived* relations: body → head.
        // `neg_edges` additionally records negative dependencies for the
        // stratifiability check.
        let mut edges: HashMap<&str, HashSet<&str>> = HashMap::new();
        let mut neg_edges: HashSet<(&str, &str)> = HashSet::new();
        for rule in &program.rules {
            let head = rule.head.relation.as_str();
            for dep in rule.positive_deps() {
                if derived.contains(dep) {
                    edges.entry(dep).or_default().insert(head);
                }
            }
            for dep in rule.negative_deps() {
                if derived.contains(dep) {
                    edges.entry(dep).or_default().insert(head);
                    neg_edges.insert((dep, head));
                }
            }
        }

        // Tarjan SCC over derived relations.
        let nodes: Vec<&str> = {
            let mut v: Vec<&str> = derived.iter().map(String::as_str).collect();
            v.sort();
            v
        };
        let index_of: HashMap<&str, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let sccs = tarjan_sccs(&nodes, &edges, &index_of);

        // Reject negation within an SCC.
        for scc in &sccs {
            let set: HashSet<&str> = scc.iter().copied().collect();
            for &(from, to) in &neg_edges {
                if set.contains(from) && set.contains(to) {
                    return Err(StorageError::NotStratifiable {
                        relation: to.to_string(),
                    });
                }
            }
        }

        // Build strata in topological order (Tarjan emits reverse-topo).
        let mut strata = Vec::new();
        for scc in sccs.into_iter().rev() {
            let relations: HashSet<String> = scc.iter().map(|s| s.to_string()).collect();
            let rule_indices: Vec<usize> = program
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| relations.contains(&r.head.relation))
                .map(|(i, _)| i)
                .collect();
            let recursive = {
                let self_loop = program.rules.iter().any(|r| {
                    relations.contains(&r.head.relation)
                        && r.positive_deps().any(|d| relations.contains(d))
                });
                scc.len() > 1 || self_loop
            };
            let has_negation = rule_indices
                .iter()
                .any(|&i| program.rules[i].body.iter().any(|l| l.negated));
            strata.push(Stratum {
                rule_indices,
                relations,
                recursive,
                has_negation,
            });
        }

        Ok(StratifiedProgram {
            program,
            strata,
            compiled,
            planned,
            plans,
            variants,
            hints,
        })
    }

    /// Re-plan every rule against current table statistics. Call after bulk
    /// loads (the grounder invokes this at initial-load time), so join orders
    /// and strategies reflect live cardinalities instead of empty tables.
    /// Plans never change results, only access paths, so replanning at any
    /// point is safe.
    pub fn replan(&mut self, db: &Database) -> Result<(), StorageError> {
        let (planned, plans, variants) = build_plans(&self.program, db, &self.hints)?;
        self.planned = planned;
        self.plans = plans;
        self.variants = variants;
        Ok(())
    }

    /// Explain records (join order, per-step strategy, cardinality
    /// estimates), one per rule in program order.
    pub fn plans(&self) -> &[RulePlan] {
        &self.plans
    }

    /// The delta-rule variant of rule `rule_index` with body atom `front`
    /// rotated to drive the join. Returns the compiled variant and the
    /// `new body index → original body index` map (`order[0] == front`).
    pub fn variant(&self, rule_index: usize, front: usize) -> &(CompiledRule, Vec<usize>) {
        &self.variants[rule_index][&front]
    }

    pub fn compiled(&self, rule_index: usize) -> &CompiledRule {
        &self.compiled[rule_index]
    }

    /// Relations defined by the program.
    pub fn derived_relations(&self) -> HashSet<String> {
        self.program.derived_relations()
    }

    /// Evaluate the program from scratch: clears every derived relation and
    /// recomputes to fixpoint. Returns per-relation tuple counts for
    /// diagnostics.
    pub fn evaluate(&self, db: &Database) -> Result<HashMap<String, usize>, StorageError> {
        self.evaluate_instrumented(db, |_, _| {})
    }

    /// Forwards to [`StratifiedProgram::evaluate`]: rules are always
    /// evaluated sequentially, whatever the context's thread count. Kept for
    /// out-of-tree callers written against the context-taking signature.
    pub fn evaluate_ctx(
        &self,
        db: &Database,
        _ctx: &ExecutionContext,
    ) -> Result<HashMap<String, usize>, StorageError> {
        self.evaluate(db)
    }

    /// Like [`StratifiedProgram::evaluate`], invoking `on_stratum` with each
    /// stratum and its evaluation wall-clock (phase attribution for the
    /// Figure-2 runtime breakdown).
    pub fn evaluate_instrumented(
        &self,
        db: &Database,
        mut on_stratum: impl FnMut(&Stratum, std::time::Duration),
    ) -> Result<HashMap<String, usize>, StorageError> {
        for rel in self.derived_relations() {
            db.clear(&rel)?;
        }
        for stratum in &self.strata {
            let start = std::time::Instant::now();
            self.evaluate_stratum(db, stratum)?;
            on_stratum(stratum, start.elapsed());
        }
        let mut sizes = HashMap::new();
        for rel in self.derived_relations() {
            sizes.insert(rel.clone(), db.len(&rel)?);
        }
        Ok(sizes)
    }

    /// Evaluate one stratum assuming lower strata (and the EDB) are complete
    /// and this stratum's relations are empty.
    fn evaluate_stratum(&self, db: &Database, stratum: &Stratum) -> Result<(), StorageError> {
        let no_deltas: AtomDeltas = HashMap::new();

        if !stratum.recursive {
            // Single counted pass, through the cost-ordered compilation
            // (all-`Old` joins are order-insensitive: counts multiply
            // commutatively across scans).
            for &ri in &stratum.rule_indices {
                let c = &self.planned[ri];
                let head = &c.rule.head.relation;
                // Fast path: stream derived rows straight into the head
                // table under one lock, skipping the intermediate dedup map
                // — count adjustments are additive, so per-emit adjustment
                // equals map-then-apply. Holding the head lock while body
                // scans take other table locks is safe exactly when the rule
                // never reads its own head (guaranteed here by the check
                // below) and never re-enters the database through UDF
                // failure handling (no UDFs).
                let reads_own_head = c.rule.body.iter().any(|l| l.atom.relation == *head);
                if !reads_own_head && c.rule.udfs.is_empty() {
                    db.with_table(head, |t| -> Result<(), StorageError> {
                        let mut apply = |row, count| {
                            if count > 0 {
                                t.adjust(row, count)?;
                            }
                            Ok(())
                        };
                        c.eval_sink(db, &no_deltas, &|_| Source::Old, &mut apply)
                    })??;
                    continue;
                }
                let results = c.eval(db, &no_deltas, &|_| Source::Old)?;
                // One lock for the whole batch: per-row `db.adjust` pays a
                // catalog lookup + table lock per tuple, which dominates the
                // apply phase on small-tuple workloads.
                db.adjust_many(head, results.into_iter().filter(|&(_, c)| c > 0))?;
            }
            return Ok(());
        }

        // Recursive stratum: set-semantics semi-naive fixpoint.
        // Iteration 0: all atoms read the (currently empty-for-unit) tables.
        let mut deltas: HashMap<String, DeltaRelation> = HashMap::new();
        for &ri in &stratum.rule_indices {
            let c = &self.planned[ri];
            let results = c.eval(db, &no_deltas, &|_| Source::Old)?;
            let head = c.rule.head.relation.clone();
            // Check membership and mark the new tuples under one table lock.
            let fresh = db.with_table(&head, |t| -> Result<Vec<_>, StorageError> {
                let mut fresh = Vec::new();
                for (row, count) in results {
                    if count > 0 && !t.contains(&row) {
                        t.set_count(row.clone(), 1)?;
                        fresh.push(row);
                    }
                }
                Ok(fresh)
            })??;
            if !fresh.is_empty() {
                let d = deltas
                    .entry(head.clone())
                    .or_insert_with(|| DeltaRelation::new(db.schema(&head).unwrap()));
                for row in fresh {
                    d.add(row, 1);
                }
            }
        }

        while !deltas.is_empty() {
            let mut next: HashMap<String, DeltaRelation> = HashMap::new();
            for &ri in &stratum.rule_indices {
                let c = &self.compiled[ri];
                // One pass per positive occurrence of a stratum relation.
                for (occ, lit) in c.rule.body.iter().enumerate() {
                    if lit.negated || !stratum.relations.contains(&lit.atom.relation) {
                        continue;
                    }
                    let Some(delta) = deltas.get(&lit.atom.relation) else {
                        continue;
                    };
                    // Delta-first join order (the §4.1 delta-rule shape).
                    let (variant, _) = self.variant(ri, occ);
                    let atom_deltas: AtomDeltas = HashMap::from([(0usize, delta)]);
                    let results = variant.eval(db, &atom_deltas, &|i| {
                        if i == 0 {
                            Source::Delta
                        } else {
                            Source::Old
                        }
                    })?;
                    let head = c.rule.head.relation.clone();
                    let fresh = db.with_table(&head, |t| -> Result<Vec<_>, StorageError> {
                        let mut fresh = Vec::new();
                        for (row, count) in results {
                            if count > 0 && !t.contains(&row) {
                                t.set_count(row.clone(), 1)?;
                                fresh.push(row);
                            }
                        }
                        Ok(fresh)
                    })??;
                    if !fresh.is_empty() {
                        let d = next
                            .entry(head.clone())
                            .or_insert_with(|| DeltaRelation::new(db.schema(&head).unwrap()));
                        for row in fresh {
                            d.add(row, 1);
                        }
                    }
                }
            }
            deltas = next;
        }
        Ok(())
    }

    /// Re-evaluate a single stratum from scratch and report visible
    /// membership changes against the previous contents. Used by the IVM
    /// layer when exact delta propagation is unavailable (negation).
    pub(crate) fn recompute_stratum_diff(
        &self,
        db: &Database,
        stratum: &Stratum,
    ) -> Result<HashMap<String, DeltaRelation>, StorageError> {
        // Snapshot old contents.
        let mut old: HashMap<String, Vec<(crate::value::Row, i64)>> = HashMap::new();
        for rel in &stratum.relations {
            old.insert(rel.clone(), db.rows_counted(rel)?);
            db.clear(rel)?;
        }
        self.evaluate_stratum(db, stratum)?;
        let mut diffs = HashMap::new();
        for rel in &stratum.relations {
            let mut delta = DeltaRelation::new(db.schema(rel)?);
            let old_rows = &old[rel];
            let old_set: HashSet<&crate::value::Row> = old_rows.iter().map(|(r, _)| r).collect();
            for (r, _) in old_rows {
                if !db.contains(rel, r)? {
                    delta.add(r.clone(), -1);
                }
            }
            for r in db.rows(rel)? {
                if !old_set.contains(&r) {
                    delta.add(r.clone(), 1);
                }
            }
            if !delta.is_empty() {
                diffs.insert(rel.clone(), delta);
            }
        }
        Ok(diffs)
    }
}

/// Plan and compile every rule (plus its per-position delta variants)
/// against current table statistics.
#[allow(clippy::type_complexity)]
fn build_plans(
    program: &Program,
    db: &Database,
    hints: &HashMap<String, u64>,
) -> Result<
    (
        Vec<CompiledRule>,
        Vec<RulePlan>,
        Vec<HashMap<usize, (CompiledRule, Vec<usize>)>>,
    ),
    StorageError,
> {
    let stats = StatsCatalog::gather(db, &program.rules, hints);
    let mut planned = Vec::with_capacity(program.rules.len());
    let mut plans = Vec::with_capacity(program.rules.len());
    let mut variants = Vec::with_capacity(program.rules.len());
    for rule in &program.rules {
        let pr = plan_order(rule, &stats, None, false);
        let mut c = CompiledRule::compile(&pr.rule, db)?;
        c.set_strategies(&pr.plan.strategies());
        planned.push(c);
        plans.push(pr.plan);

        let mut per_rule = HashMap::new();
        for (i, lit) in rule.body.iter().enumerate() {
            if lit.negated {
                continue;
            }
            let v = plan_order(rule, &stats, Some(i), true);
            let mut cv = CompiledRule::compile(&v.rule, db)?;
            cv.set_strategies(&v.plan.strategies());
            per_rule.insert(i, (cv, v.order));
        }
        variants.push(per_rule);
    }
    Ok((planned, plans, variants))
}

/// Iterative Tarjan strongly-connected components; returns SCCs in reverse
/// topological order (standard Tarjan emission order).
fn tarjan_sccs<'a>(
    nodes: &[&'a str],
    edges: &HashMap<&'a str, HashSet<&'a str>>,
    index_of: &HashMap<&'a str, usize>,
) -> Vec<Vec<&'a str>> {
    let n = nodes.len();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&u| {
            let mut targets: Vec<usize> = edges
                .get(u)
                .map(|s| s.iter().filter_map(|v| index_of.get(v).copied()).collect())
                .unwrap_or_default();
            targets.sort_unstable();
            targets
        })
        .collect();

    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut sccs: Vec<Vec<&str>> = Vec::new();

    // Iterative DFS frames: (node, next child offset).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, child)) = call.last() {
            if child == 0 && index[v] == usize::MAX {
                index[v] = counter;
                lowlink[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if child < adj[v].len() {
                call.last_mut().expect("frame").1 += 1;
                let w = adj[v][child];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack nonempty");
                        on_stack[w] = false;
                        scc.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Visible membership changes recorded while applying counted deltas.
#[derive(Debug, Default)]
pub struct AppliedChanges {
    pub appeared: Vec<crate::value::Row>,
    pub disappeared: Vec<crate::value::Row>,
}

/// Apply a counted delta to a relation, recording visibility transitions.
pub(crate) fn apply_delta_counted(
    db: &Database,
    relation: &str,
    delta: &DeltaRelation,
) -> Result<AppliedChanges, StorageError> {
    db.with_table(relation, |t| -> Result<AppliedChanges, StorageError> {
        let mut changes = AppliedChanges::default();
        for (row, count) in delta.iter() {
            match t.adjust(row.clone(), count)? {
                Membership::Appeared => changes.appeared.push(row.clone()),
                Membership::Disappeared => changes.disappeared.push(row.clone()),
                _ => {}
            }
        }
        Ok(changes)
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{Atom, Literal, Term};
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

    fn tc_program() -> Program {
        Program::new(vec![
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
        ])
    }

    #[test]
    fn transitive_closure_reaches_fixpoint() {
        let db = edge_db();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("edge", row![a, b]).unwrap();
        }
        let sp = StratifiedProgram::new(tc_program(), &db).unwrap();
        sp.evaluate(&db).unwrap();
        assert_eq!(db.len("path").unwrap(), 6);
        assert!(db.contains("path", &row![1, 4]).unwrap());
    }

    #[test]
    fn cyclic_edges_terminate() {
        let db = edge_db();
        for (a, b) in [(1, 2), (2, 1)] {
            db.insert("edge", row![a, b]).unwrap();
        }
        let sp = StratifiedProgram::new(tc_program(), &db).unwrap();
        sp.evaluate(&db).unwrap();
        assert_eq!(db.len("path").unwrap(), 4); // 11,12,21,22
    }

    #[test]
    fn recursive_stratum_detected() {
        let db = edge_db();
        let sp = StratifiedProgram::new(tc_program(), &db).unwrap();
        assert_eq!(sp.strata.len(), 1);
        assert!(sp.strata[0].recursive);
    }

    #[test]
    fn nonrecursive_strata_ordered_topologically() {
        let db = Database::new();
        for n in ["A", "B", "C"] {
            db.create_relation(Schema::build(n).col("x", ValueType::Int).finish())
                .unwrap();
        }
        // C :- B; B :- A.
        let prog = Program::new(vec![
            Rule::new(
                "c",
                Atom::new("C", vec![Term::var("x")]),
                vec![Literal::pos(Atom::new("B", vec![Term::var("x")]))],
            ),
            Rule::new(
                "b",
                Atom::new("B", vec![Term::var("x")]),
                vec![Literal::pos(Atom::new("A", vec![Term::var("x")]))],
            ),
        ]);
        db.insert("A", row![7]).unwrap();
        let sp = StratifiedProgram::new(prog, &db).unwrap();
        assert_eq!(sp.strata.len(), 2);
        assert!(sp.strata[0].relations.contains("B"));
        assert!(sp.strata[1].relations.contains("C"));
        sp.evaluate(&db).unwrap();
        assert!(db.contains("C", &row![7]).unwrap());
    }

    #[test]
    fn negation_across_strata_allowed() {
        let db = Database::new();
        for n in ["Base", "Excl", "Out"] {
            db.create_relation(Schema::build(n).col("x", ValueType::Int).finish())
                .unwrap();
        }
        let prog = Program::new(vec![Rule::new(
            "out",
            Atom::new("Out", vec![Term::var("x")]),
            vec![
                Literal::pos(Atom::new("Base", vec![Term::var("x")])),
                Literal::neg(Atom::new("Excl", vec![Term::var("x")])),
            ],
        )]);
        db.insert("Base", row![1]).unwrap();
        db.insert("Base", row![2]).unwrap();
        db.insert("Excl", row![2]).unwrap();
        let sp = StratifiedProgram::new(prog, &db).unwrap();
        sp.evaluate(&db).unwrap();
        assert_eq!(db.rows("Out").unwrap(), vec![row![1]]);
    }

    #[test]
    fn negative_recursion_rejected() {
        let db = Database::new();
        for n in ["P", "Q"] {
            db.create_relation(Schema::build(n).col("x", ValueType::Int).finish())
                .unwrap();
        }
        // P :- !Q; Q :- P — negation in a cycle.
        let prog = Program::new(vec![
            Rule::new(
                "p",
                Atom::new("P", vec![Term::var("x")]),
                vec![
                    Literal::pos(Atom::new("Q", vec![Term::var("x")])),
                    Literal::neg(Atom::new("Q", vec![Term::var("x")])),
                ],
            ),
            Rule::new(
                "q",
                Atom::new("Q", vec![Term::var("x")]),
                vec![Literal::pos(Atom::new("P", vec![Term::var("x")]))],
            ),
        ]);
        let err = StratifiedProgram::new(prog, &db).unwrap_err();
        assert!(matches!(err, StorageError::NotStratifiable { .. }));
    }

    #[test]
    fn counting_semantics_in_nonrecursive_stratum() {
        let db = Database::new();
        db.create_relation(
            Schema::build("R")
                .col("x", ValueType::Int)
                .col("y", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(Schema::build("V").col("x", ValueType::Int).finish())
            .unwrap();
        let prog = Program::new(vec![Rule::new(
            "v",
            Atom::new("V", vec![Term::var("x")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::var("x"), Term::var("y")],
            ))],
        )]);
        db.insert("R", row![1, 10]).unwrap();
        db.insert("R", row![1, 11]).unwrap();
        let sp = StratifiedProgram::new(prog, &db).unwrap();
        sp.evaluate(&db).unwrap();
        assert_eq!(db.count("V", &row![1]).unwrap(), 2);
    }

    #[test]
    fn reevaluation_is_idempotent() {
        let db = edge_db();
        db.insert("edge", row![1, 2]).unwrap();
        let sp = StratifiedProgram::new(tc_program(), &db).unwrap();
        sp.evaluate(&db).unwrap();
        let n1 = db.len("path").unwrap();
        sp.evaluate(&db).unwrap();
        assert_eq!(db.len("path").unwrap(), n1);
    }
}
