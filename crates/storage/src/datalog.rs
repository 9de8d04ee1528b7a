//! Datalog rules and their evaluation.
//!
//! DeepDive expresses candidate mappings, feature extraction, supervision and
//! grounding as datalog-with-UDF rules over the relational store (§3.1). This
//! module defines the rule IR, safety checking, rule compilation (variables →
//! slots, atoms → indexed scans) and a counted evaluator that supports three
//! *sources* per atom — `Old`, `Delta`, `New` — which is exactly what both
//! semi-naive fixpoint evaluation and counting-based incremental view
//! maintenance need (§4.1).

use crate::database::{Database, FailurePolicy};
use crate::delta::DeltaRelation;
use crate::plan::JoinStrategy;
use crate::value::{Row, Value};
use crate::StorageError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A term in an atom: a named variable, a constant, or `_`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Term {
    Var(String),
    Const(Value),
    Wildcard,
}

impl Term {
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => write!(f, "{c}"),
            Term::Wildcard => f.write_str("_"),
        }
    }
}

/// A predicate applied to terms: `R(x, "a", _)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    pub relation: String,
    pub terms: Vec<Term>,
}

impl Atom {
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// A body literal: possibly negated atom.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Literal {
    pub atom: Atom,
    pub negated: bool,
}

impl Literal {
    pub fn pos(atom: Atom) -> Self {
        Literal {
            atom,
            negated: false,
        }
    }

    pub fn neg(atom: Atom) -> Self {
        Literal {
            atom,
            negated: true,
        }
    }
}

pub use crate::value::CmpOp;

/// A builtin comparison between two terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Builtin {
    pub left: Term,
    pub op: CmpOp,
    pub right: Term,
}

/// A call to a registered user-defined function: `out = name(args...)`.
///
/// A UDF maps one tuple of arguments to zero or more output values; bindings
/// flat-map over the outputs (this is how "bag-of-words"-style feature
/// extractors emit many features per candidate, §3.1 Ex. 3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UdfCall {
    pub name: String,
    pub args: Vec<Term>,
    pub out: String,
}

/// One datalog rule: `head :- body, builtins, udfs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub name: String,
    pub head: Atom,
    pub body: Vec<Literal>,
    pub builtins: Vec<Builtin>,
    pub udfs: Vec<UdfCall>,
}

impl Rule {
    pub fn new(name: impl Into<String>, head: Atom, body: Vec<Literal>) -> Self {
        Rule {
            name: name.into(),
            head,
            body,
            builtins: Vec::new(),
            udfs: Vec::new(),
        }
    }

    pub fn with_builtin(mut self, left: Term, op: CmpOp, right: Term) -> Self {
        self.builtins.push(Builtin { left, op, right });
        self
    }

    pub fn with_udf(
        mut self,
        name: impl Into<String>,
        args: Vec<Term>,
        out: impl Into<String>,
    ) -> Self {
        self.udfs.push(UdfCall {
            name: name.into(),
            args,
            out: out.into(),
        });
        self
    }

    /// Relations this rule reads positively.
    pub fn positive_deps(&self) -> impl Iterator<Item = &str> {
        self.body
            .iter()
            .filter(|l| !l.negated)
            .map(|l| l.atom.relation.as_str())
    }

    /// Relations this rule reads under negation.
    pub fn negative_deps(&self) -> impl Iterator<Item = &str> {
        self.body
            .iter()
            .filter(|l| l.negated)
            .map(|l| l.atom.relation.as_str())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        let mut first = true;
        for l in &self.body {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            if l.negated {
                f.write_str("!")?;
            }
            write!(f, "{}", l.atom)?;
        }
        for b in &self.builtins {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{} {} {}", b.left, b.op, b.right)?;
        }
        for u in &self.udfs {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            let args: Vec<String> = u.args.iter().map(|a| a.to_string()).collect();
            write!(f, "{} = {}({})", u.out, u.name, args.join(", "))?;
        }
        Ok(())
    }
}

/// Which snapshot of a relation an atom scan should read.
///
/// With `new = old ⊎ delta` (counted union), the three sources let a single
/// evaluator express both semi-naive iteration and counting IVM:
/// `Δ(R1 ⋈ … ⋈ Rn) = Σᵢ R1ⁿᵉʷ ⋈ … ⋈ Rᵢ₋₁ⁿᵉʷ ⋈ ΔRᵢ ⋈ Rᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Rnᵒˡᵈ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Old,
    Delta,
    New,
}

/// Slot-compiled term.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Var(usize),
    Const(Value),
    Wildcard,
}

/// One execution step of a compiled rule.
#[derive(Debug)]
enum Step {
    /// Indexed scan over a positive atom. `key` lists (column, slot) pairs
    /// already bound at this point; `bind` lists (column, var) pairs to bind;
    /// `check` lists (column, var) pairs that must equal an already-bound var
    /// appearing earlier in the *same* atom.
    Scan {
        atom_index: usize,
        relation: String,
        key: Vec<(usize, Slot)>,
        bind: Vec<(usize, usize)>,
        check: Vec<(usize, usize)>,
        /// `key`'s columns, precomputed for the probe paths.
        key_cols: Vec<usize>,
        /// `bind`'s columns followed by `check`'s columns — the cells the
        /// cells-only fast paths fetch per matching row.
        needed: Vec<usize>,
        /// Builtin comparisons hoisted into this scan: `(column, op, const)`
        /// predicates evaluated inside the storage layer (vectorized filter
        /// kernels / index probes) instead of as per-row [`Step::Compare`]s.
        pushdown: Vec<(usize, CmpOp, Value)>,
        /// Physical strategy chosen by the planner. `IndexProbe` reproduces
        /// the pre-planner behavior; strategy choice never changes results.
        strategy: JoinStrategy,
    },
    /// Negated atom: succeeds when no visible tuple matches.
    Negation { relation: String, terms: Vec<Slot> },
    /// Builtin comparison.
    Compare { left: Slot, op: CmpOp, right: Slot },
    /// UDF call flat-mapping over outputs.
    Udf {
        name: String,
        args: Vec<Slot>,
        out: usize,
    },
}

/// A rule compiled against a database catalog: variables are slots, every
/// atom has a chosen index key, and steps are ordered so that negations,
/// builtins and UDFs run as soon as their inputs are bound.
#[derive(Debug)]
pub struct CompiledRule {
    pub rule: Rule,
    head_slots: Vec<Slot>,
    steps: Vec<Step>,
    num_vars: usize,
    /// Positions (in `steps`) of each positive atom, by body-literal index.
    positive_atom_count: usize,
    /// Smallest step index such that every step from it onward is a pure
    /// `Compare` filter. Once a scan match reaches this point the fast paths
    /// run the remaining comparisons inline and emit the head directly,
    /// skipping per-match recursion through `eval_step`.
    compare_tail_start: usize,
    /// Relation whose `__errors` quarantine receives tuples dropped by a
    /// `Quarantine` UDF policy. Defaults to the head relation; callers that
    /// evaluate through synthetic heads (factor-rule grounding) override it
    /// with the user-visible relation.
    quarantine_base: String,
}

impl CompiledRule {
    /// Compile and safety-check `rule` against the catalog in `db`.
    pub fn compile(rule: &Rule, db: &Database) -> Result<CompiledRule, StorageError> {
        // Assign slots to variables in order of first appearance in positive
        // atoms, then UDF outputs.
        let mut var_ids: HashMap<String, usize> = HashMap::new();
        let id_of = |name: &str, var_ids: &mut HashMap<String, usize>| -> usize {
            let next = var_ids.len();
            *var_ids.entry(name.to_string()).or_insert(next)
        };

        // Validate arities.
        let check_arity = |atom: &Atom| -> Result<(), StorageError> {
            let schema = db.schema(&atom.relation)?;
            if schema.arity() != atom.terms.len() {
                return Err(StorageError::RuleArityMismatch {
                    relation: atom.relation.clone(),
                    expected: schema.arity(),
                    got: atom.terms.len(),
                });
            }
            Ok(())
        };
        check_arity(&rule.head)?;
        for l in &rule.body {
            check_arity(&l.atom)?;
        }

        let mut steps: Vec<Step> = Vec::new();
        let mut bound: Vec<bool> = Vec::new();
        let mut positive_atom_count = 0usize;

        // Pending items scheduled as soon as their variables are bound.
        let mut pending_neg: Vec<&Literal> = rule.body.iter().filter(|l| l.negated).collect();
        let mut pending_builtin: Vec<&Builtin> = rule.builtins.iter().collect();
        let mut pending_udf: Vec<&UdfCall> = rule.udfs.iter().collect();

        let slot_of = |t: &Term, var_ids: &HashMap<String, usize>| -> Option<Slot> {
            match t {
                Term::Var(v) => var_ids.get(v).map(|&i| Slot::Var(i)),
                Term::Const(c) => Some(Slot::Const(c.clone())),
                Term::Wildcard => Some(Slot::Wildcard),
            }
        };

        let all_bound = |terms: &[Term], var_ids: &HashMap<String, usize>, bound: &[bool]| {
            terms.iter().all(|t| match t {
                Term::Var(v) => var_ids.get(v).map(|&i| bound[i]).unwrap_or(false),
                _ => true,
            })
        };

        // A term that `all_bound` just vouched for must resolve to a slot;
        // failure is an engine bug, surfaced as a typed error rather than a
        // panic mid-compile.
        let slot_req = |t: &Term, var_ids: &HashMap<String, usize>| -> Result<Slot, StorageError> {
            slot_of(t, var_ids).ok_or_else(|| StorageError::Internal {
                context: format!("rule `{}`: term unbound after bound-check", rule.name),
            })
        };

        // Helper: drain pending items whose inputs are now bound. Free
        // identifiers in the macro body resolve at the expansion site, so it
        // reads/writes `steps`, `bound`, `var_ids` and the pending queues of
        // the enclosing function directly.
        macro_rules! drain_pending {
            () => {{
                loop {
                    let mut progressed = false;
                    let mut i = 0;
                    while i < pending_builtin.len() {
                        let b = &pending_builtin[i];
                        let terms = [b.left.clone(), b.right.clone()];
                        if all_bound(&terms, &var_ids, &bound) {
                            steps.push(Step::Compare {
                                left: slot_req(&b.left, &var_ids)?,
                                op: b.op,
                                right: slot_req(&b.right, &var_ids)?,
                            });
                            pending_builtin.remove(i);
                            progressed = true;
                        } else {
                            i += 1;
                        }
                    }
                    let mut i = 0;
                    while i < pending_neg.len() {
                        let l = &pending_neg[i];
                        if all_bound(&l.atom.terms, &var_ids, &bound) {
                            let terms = l
                                .atom
                                .terms
                                .iter()
                                .map(|t| slot_req(t, &var_ids))
                                .collect::<Result<Vec<Slot>, StorageError>>()?;
                            steps.push(Step::Negation {
                                relation: l.atom.relation.clone(),
                                terms,
                            });
                            pending_neg.remove(i);
                            progressed = true;
                        } else {
                            i += 1;
                        }
                    }
                    // UDFs bind their output variable, so draining one may
                    // unblock builtins — handled by the outer loop.
                    let mut fired_udf = None;
                    for (i, u) in pending_udf.iter().enumerate() {
                        if all_bound(&u.args, &var_ids, &bound) {
                            fired_udf = Some(i);
                            break;
                        }
                    }
                    if let Some(i) = fired_udf {
                        let u = pending_udf.remove(i);
                        let args: Vec<Slot> = u
                            .args
                            .iter()
                            .map(|t| slot_req(t, &var_ids))
                            .collect::<Result<Vec<Slot>, StorageError>>()?;
                        let out = id_of(&u.out, &mut var_ids);
                        while bound.len() <= out {
                            bound.push(false);
                        }
                        bound[out] = true;
                        steps.push(Step::Udf {
                            name: u.name.clone(),
                            args,
                            out,
                        });
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
            }};
        }

        for (atom_index, lit) in rule.body.iter().enumerate() {
            if lit.negated {
                continue;
            }
            positive_atom_count += 1;
            let mut key: Vec<(usize, Slot)> = Vec::new();
            let mut bind: Vec<(usize, usize)> = Vec::new();
            let mut check: Vec<(usize, usize)> = Vec::new();
            let mut newly_bound_here: Vec<usize> = Vec::new();
            for (col, term) in lit.atom.terms.iter().enumerate() {
                match term {
                    Term::Wildcard => {}
                    Term::Const(c) => key.push((col, Slot::Const(c.clone()))),
                    Term::Var(v) => {
                        let id = id_of(v, &mut var_ids);
                        while bound.len() <= id {
                            bound.push(false);
                        }
                        if bound[id] {
                            key.push((col, Slot::Var(id)));
                        } else if newly_bound_here.contains(&id) {
                            // Repeated variable within this atom: equality
                            // check against the first occurrence.
                            check.push((col, id));
                        } else {
                            bind.push((col, id));
                            newly_bound_here.push(id);
                        }
                    }
                }
            }
            for id in newly_bound_here {
                bound[id] = true;
            }
            let key_cols = key.iter().map(|(c, _)| *c).collect();
            let needed = bind
                .iter()
                .map(|(c, _)| *c)
                .chain(check.iter().map(|(c, _)| *c))
                .collect();
            steps.push(Step::Scan {
                atom_index,
                relation: lit.atom.relation.clone(),
                key,
                bind,
                check,
                key_cols,
                needed,
                pushdown: Vec::new(),
                strategy: JoinStrategy::IndexProbe,
            });
            drain_pending!();
        }
        drain_pending!();

        // Safety checks: everything pending is unsafe; head vars must be bound.
        if let Some(l) = pending_neg.first() {
            let var = l
                .atom
                .terms
                .iter()
                .find_map(|t| match t {
                    Term::Var(v) if var_ids.get(v).map(|&i| !bound[i]).unwrap_or(true) => {
                        Some(v.clone())
                    }
                    _ => None,
                })
                .unwrap_or_default();
            return Err(StorageError::UnsafeVariable {
                rule: rule.name.clone(),
                var,
            });
        }
        if let Some(b) = pending_builtin.first() {
            let var = [&b.left, &b.right]
                .iter()
                .find_map(|t| match t {
                    Term::Var(v) if var_ids.get(v.as_str()).map(|&i| !bound[i]).unwrap_or(true) => {
                        Some(v.clone())
                    }
                    _ => None,
                })
                .unwrap_or_default();
            return Err(StorageError::UnsafeVariable {
                rule: rule.name.clone(),
                var,
            });
        }
        if let Some(u) = pending_udf.first() {
            let var = u
                .args
                .iter()
                .find_map(|t| match t {
                    Term::Var(v) if var_ids.get(v.as_str()).map(|&i| !bound[i]).unwrap_or(true) => {
                        Some(v.clone())
                    }
                    _ => None,
                })
                .unwrap_or_default();
            return Err(StorageError::UnsafeVariable {
                rule: rule.name.clone(),
                var,
            });
        }

        hoist_pushdowns(&mut steps);

        let mut head_slots = Vec::with_capacity(rule.head.terms.len());
        for t in &rule.head.terms {
            match t {
                Term::Const(c) => head_slots.push(Slot::Const(c.clone())),
                Term::Wildcard => {
                    return Err(StorageError::UnboundHeadVariable {
                        rule: rule.name.clone(),
                        var: "_".into(),
                    })
                }
                Term::Var(v) => match var_ids.get(v) {
                    Some(&id) if bound[id] => head_slots.push(Slot::Var(id)),
                    _ => {
                        return Err(StorageError::UnboundHeadVariable {
                            rule: rule.name.clone(),
                            var: v.clone(),
                        })
                    }
                },
            }
        }

        let mut compare_tail_start = steps.len();
        while compare_tail_start > 0
            && matches!(steps[compare_tail_start - 1], Step::Compare { .. })
        {
            compare_tail_start -= 1;
        }

        Ok(CompiledRule {
            rule: rule.clone(),
            head_slots,
            steps,
            num_vars: var_ids.len(),
            positive_atom_count,
            compare_tail_start,
            quarantine_base: rule.head.relation.clone(),
        })
    }

    /// Override the relation whose quarantine receives UDF failures.
    pub fn set_quarantine_base(&mut self, base: impl Into<String>) {
        self.quarantine_base = base.into();
    }

    /// Apply planner-chosen join strategies to this rule's scan steps, in
    /// step order (the planner's step order matches because the rule body was
    /// planned before compilation). Missing entries keep `IndexProbe`.
    pub(crate) fn set_strategies(&mut self, strategies: &[JoinStrategy]) {
        let mut n = 0;
        for s in &mut self.steps {
            if let Step::Scan { strategy, .. } = s {
                if let Some(&st) = strategies.get(n) {
                    *strategy = st;
                }
                n += 1;
            }
        }
    }

    /// Number of positive body atoms.
    pub fn positive_atoms(&self) -> usize {
        self.positive_atom_count
    }

    /// Evaluate the rule, returning derived head tuples with signed
    /// derivation counts.
    ///
    /// `source_for(atom_index)` selects which snapshot each positive atom
    /// reads; `atom_deltas` supplies, **per atom index**, the delta relation
    /// that `Delta`/`New` sources read at that position. Keying deltas by
    /// atom position (not relation name) is what makes the exact counting
    /// maintenance formula expressible even for self-joins, where the same
    /// relation must read `New` at one occurrence and `Old` at another.
    /// Negated atoms always read the database as-is.
    pub fn eval(
        &self,
        db: &Database,
        atom_deltas: &AtomDeltas<'_>,
        source_for: &dyn Fn(usize) -> Source,
    ) -> Result<RowCounts, StorageError> {
        let mut out = RowCounts::default();
        self.eval_sink(db, atom_deltas, source_for, &mut |row, c| {
            *out.entry(row).or_insert(0) += c;
            Ok(())
        })?;
        Ok(out)
    }

    /// Evaluate the rule, streaming each derived `(row, count)` into `sink`
    /// instead of materializing a dedup map. The same row may be emitted
    /// multiple times (once per derivation); counted consumers must treat
    /// emissions as additive — which is exactly how counting semantics
    /// composes, so `Σ sink(r, cᵢ)` ≡ `sink(r, Σ cᵢ)` for table adjustment.
    pub fn eval_sink(
        &self,
        db: &Database,
        atom_deltas: &AtomDeltas<'_>,
        source_for: &dyn Fn(usize) -> Source,
        sink: &mut dyn FnMut(Row, i64) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut bindings: Vec<Value> = vec![Value::Null; self.num_vars];
        // Per-step hash-join build tables, reused across outer bindings of
        // one evaluation (the build side is `Old`, immutable for the pass).
        let mut scratch: Vec<Option<JoinMap>> = (0..self.steps.len()).map(|_| None).collect();
        self.eval_step(
            db,
            atom_deltas,
            source_for,
            0,
            &mut bindings,
            1,
            sink,
            &mut scratch,
        )
    }

    fn resolve(&self, bindings: &[Value], s: &Slot) -> Value {
        match s {
            Slot::Var(i) => bindings[*i].clone(),
            Slot::Const(c) => c.clone(),
            Slot::Wildcard => Value::Null,
        }
    }

    /// Snapshot the current values of a scan's bind variables so the caller
    /// can restore them after an emit loop.
    fn save_bind(bindings: &[Value], bind: &[(usize, usize)]) -> Vec<(usize, Value)> {
        bind.iter()
            .map(|(_, v)| (*v, bindings[*v].clone()))
            .collect()
    }

    /// Emit one scan match from its `needed` cells: bind the first
    /// `bind.len()` cells, verify the trailing repeated-variable checks, and
    /// recurse into the next step. Shared by the cells-only fast paths.
    ///
    /// Does NOT save/restore the bind variables — callers loop over many
    /// matches and each iteration overwrites the same first-occurrence
    /// variables, so they snapshot once before the loop (`save_bind`) and
    /// restore once after, instead of allocating per match.
    #[allow(clippy::too_many_arguments)]
    fn emit_cells(
        &self,
        db: &Database,
        atom_deltas: &AtomDeltas<'_>,
        source_for: &dyn Fn(usize) -> Source,
        step_idx: usize,
        bindings: &mut Vec<Value>,
        count: i64,
        out: &mut dyn FnMut(Row, i64) -> Result<(), StorageError>,
        scratch: &mut Vec<Option<JoinMap>>,
        bind: &[(usize, usize)],
        check: &[(usize, usize)],
        cells: &[Value],
    ) -> Result<(), StorageError> {
        let nbind = bind.len();
        for (k, (_, var)) in bind.iter().enumerate() {
            bindings[*var] = cells[k].clone();
        }
        let ok = check
            .iter()
            .enumerate()
            .all(|(k, (_, var))| cells[nbind + k] == bindings[*var]);
        if ok {
            if step_idx + 1 >= self.compare_tail_start {
                // Fused filter tail: every remaining step is a pure
                // comparison, so evaluate them inline over the bindings and
                // emit the head without recursing per match.
                let pass = self.steps[step_idx + 1..].iter().all(|s| match s {
                    Step::Compare { left, op, right } => {
                        op.eval(resolve_ref(bindings, left), resolve_ref(bindings, right))
                    }
                    _ => unreachable!("steps past compare_tail_start are Compare"),
                });
                if pass {
                    let head: Row = self
                        .head_slots
                        .iter()
                        .map(|s| self.resolve(bindings, s))
                        .collect();
                    out(head, count)?;
                }
            } else {
                self.eval_step(
                    db,
                    atom_deltas,
                    source_for,
                    step_idx + 1,
                    bindings,
                    count,
                    out,
                    scratch,
                )?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_step(
        &self,
        db: &Database,
        atom_deltas: &AtomDeltas<'_>,
        source_for: &dyn Fn(usize) -> Source,
        step_idx: usize,
        bindings: &mut Vec<Value>,
        count: i64,
        out: &mut dyn FnMut(Row, i64) -> Result<(), StorageError>,
        scratch: &mut Vec<Option<JoinMap>>,
    ) -> Result<(), StorageError> {
        if step_idx == self.steps.len() {
            let head: Row = self
                .head_slots
                .iter()
                .map(|s| self.resolve(bindings, s))
                .collect();
            out(head, count)?;
            return Ok(());
        }
        match &self.steps[step_idx] {
            Step::Scan {
                atom_index,
                relation,
                key,
                bind,
                check,
                key_cols,
                needed,
                pushdown,
                strategy,
            } => {
                let source = source_for(*atom_index);
                // Vectorized fast paths: membership (`Old`) reads of the
                // stored table skip full-row materialization and fetch only
                // the `needed` cells through columnar filter kernels and
                // secondary indexes. Visible rows contribute membership 1, so
                // the recursion count is unchanged.
                if source == Source::Old {
                    if *strategy == JoinStrategy::HashJoin && !key.is_empty() {
                        // Build once per evaluation pass (the build side is
                        // immutable `Old` state), probe without touching the
                        // catalog or table locks again.
                        let map = match scratch[step_idx].take() {
                            Some(m) => m,
                            None => db.join_map(relation, key_cols, needed, pushdown)?,
                        };
                        let key_vals: Vec<Value> =
                            key.iter().map(|(_, s)| self.resolve(bindings, s)).collect();
                        if let Some(hits) = map.get(&key_vals) {
                            let saved = Self::save_bind(bindings, bind);
                            for (cells, c) in hits {
                                self.emit_cells(
                                    db,
                                    atom_deltas,
                                    source_for,
                                    step_idx,
                                    bindings,
                                    count * *c,
                                    out,
                                    scratch,
                                    bind,
                                    check,
                                    cells,
                                )?;
                            }
                            for (v, old) in saved {
                                bindings[v] = old;
                            }
                        }
                        scratch[step_idx] = Some(map);
                        return Ok(());
                    }
                    let mut cells: Vec<Value> = Vec::new();
                    let mut counts: Vec<i64> = Vec::new();
                    if key.is_empty() {
                        db.scan_filtered(relation, pushdown, needed, &mut cells, &mut counts)?;
                    } else {
                        let key_vals: Vec<Value> =
                            key.iter().map(|(_, s)| self.resolve(bindings, s)).collect();
                        db.probe_cells(
                            relation,
                            key_cols,
                            &key_vals,
                            pushdown,
                            needed,
                            &mut cells,
                            &mut counts,
                        )?;
                    }
                    let width = needed.len();
                    let saved = Self::save_bind(bindings, bind);
                    for ri in 0..counts.len() {
                        self.emit_cells(
                            db,
                            atom_deltas,
                            source_for,
                            step_idx,
                            bindings,
                            count,
                            out,
                            scratch,
                            bind,
                            check,
                            &cells[ri * width..(ri + 1) * width],
                        )?;
                    }
                    for (v, old) in saved {
                        bindings[v] = old;
                    }
                    return Ok(());
                }
                let key_vals: Vec<Value> =
                    key.iter().map(|(_, s)| self.resolve(bindings, s)).collect();
                let delta = atom_deltas.get(atom_index).copied();
                let mut matches = fetch(db, delta, relation, source, key_cols, &key_vals)?;
                // Hoisted comparisons still apply on the general path.
                if !pushdown.is_empty() {
                    matches.retain(|(row, _)| {
                        pushdown.iter().all(|(col, op, v)| op.eval(&row[*col], v))
                    });
                }
                for (row, c) in matches {
                    if c == 0 {
                        continue;
                    }
                    let saved: Vec<(usize, Value)> = bind
                        .iter()
                        .map(|(_, v)| (*v, bindings[*v].clone()))
                        .collect();
                    for (col, var) in bind {
                        bindings[*var] = row[*col].clone();
                    }
                    // Within-atom repeated variables: the check compares
                    // against the binding established by the first
                    // occurrence, so it must run after binding.
                    let ok = check.iter().all(|(col, var)| row[*col] == bindings[*var]);
                    if ok {
                        self.eval_step(
                            db,
                            atom_deltas,
                            source_for,
                            step_idx + 1,
                            bindings,
                            count * c,
                            out,
                            scratch,
                        )?;
                    }
                    for (v, old) in saved {
                        bindings[v] = old;
                    }
                }
                Ok(())
            }
            Step::Negation { relation, terms } => {
                // Negation reads the database state as-is; IVM recomputes
                // strata whose negated inputs changed rather than streaming
                // deltas through negation. Wildcard positions are existential
                // ("no tuple matching the bound columns"), so probe by the
                // bound columns only.
                let mut key_cols = Vec::new();
                let mut key_vals = Vec::new();
                for (col, slot) in terms.iter().enumerate() {
                    if !matches!(slot, Slot::Wildcard) {
                        key_cols.push(col);
                        key_vals.push(self.resolve(bindings, slot));
                    }
                }
                let visible = if key_cols.len() == terms.len() {
                    let probe: Row = key_vals.into_boxed_slice();
                    db.count(relation, &probe)? > 0
                } else {
                    let mut hits = Vec::new();
                    db.lookup_counted(relation, &key_cols, &key_vals, &mut hits)?;
                    hits.iter().any(|(_, c)| *c > 0)
                };
                if !visible {
                    self.eval_step(
                        db,
                        atom_deltas,
                        source_for,
                        step_idx + 1,
                        bindings,
                        count,
                        out,
                        scratch,
                    )?;
                }
                Ok(())
            }
            Step::Compare { left, op, right } => {
                let l = resolve_ref(bindings, left);
                let r = resolve_ref(bindings, right);
                if op.eval(l, r) {
                    self.eval_step(
                        db,
                        atom_deltas,
                        source_for,
                        step_idx + 1,
                        bindings,
                        count,
                        out,
                        scratch,
                    )?;
                }
                Ok(())
            }
            Step::Udf {
                name,
                args,
                out: out_var,
            } => {
                let argv: Vec<Value> = args.iter().map(|s| self.resolve(bindings, s)).collect();
                let results = match db.call_udf(name, &argv) {
                    Ok(r) => r,
                    Err(StorageError::UdfPanic { udf, reason }) => {
                        // Panic-isolated UDF: the failure policy decides
                        // whether the input tuple aborts the evaluation, is
                        // dropped, or lands in the head relation's
                        // quarantine. Skipping means this binding derives
                        // nothing — sound for candidate/feature extraction,
                        // where a lost tuple degrades recall, not soundness.
                        match db.udf_policy(&udf) {
                            FailurePolicy::Fail => {
                                return Err(StorageError::UdfPanic { udf, reason })
                            }
                            FailurePolicy::SkipTuple => {
                                db.record_incident(&format!("udf:{udf}"));
                                return Ok(());
                            }
                            FailurePolicy::Quarantine => {
                                let payload = crate::io::row_to_tsv(&argv.into_boxed_slice());
                                db.quarantine(
                                    &self.quarantine_base,
                                    &format!("udf:{udf}"),
                                    &reason,
                                    &payload,
                                )?;
                                return Ok(());
                            }
                        }
                    }
                    Err(e) => return Err(e),
                };
                for v in results {
                    let saved = bindings[*out_var].clone();
                    bindings[*out_var] = v;
                    self.eval_step(
                        db,
                        atom_deltas,
                        source_for,
                        step_idx + 1,
                        bindings,
                        count,
                        out,
                        scratch,
                    )?;
                    bindings[*out_var] = saved;
                }
                Ok(())
            }
        }
    }
}

/// Resolve a slot to a value reference without cloning — the borrow-only
/// twin of `CompiledRule::resolve`, for pure filters (builtin compares).
fn resolve_ref<'a>(bindings: &'a [Value], s: &'a Slot) -> &'a Value {
    static NULL: Value = Value::Null;
    match s {
        Slot::Var(i) => &bindings[*i],
        Slot::Const(c) => c,
        Slot::Wildcard => &NULL,
    }
}

/// Per-atom delta assignment for one evaluation pass: atom index → delta
/// relation read by `Source::Delta`/`Source::New` at that position.
pub type AtomDeltas<'a> = HashMap<usize, &'a DeltaRelation>;

/// Hash-join build side: join key → (needed cells, membership count).
pub type JoinMap = crate::fxhash::FxHashMap<Vec<Value>, Vec<(Box<[Value]>, i64)>>;

/// One evaluation pass's result: derived row → derivation count. Uses the
/// fast fixed-seed hasher — this map takes one probe per emitted tuple.
pub type RowCounts = crate::fxhash::FxHashMap<Row, i64>;

/// Hoist `var op const` (and mirrored `const op var`) comparisons into the
/// scan step that binds the variable, as `(column, op, const)` pushdown
/// predicates evaluated by the storage layer's vectorized kernels.
///
/// Compare steps are pure filters, so absorbing one (or skipping over a
/// non-eligible sibling Compare) never changes results or counts. Hoisting
/// stops at any non-Compare step: moving a filter across a UDF call would
/// change the UDF's invocation multiplicity, which is observable through
/// incident counters and quarantines.
fn hoist_pushdowns(steps: &mut Vec<Step>) {
    let mut i = 0;
    while i < steps.len() {
        // var → column bound by the scan at `i`.
        let binds: Vec<(usize, usize)> = match &steps[i] {
            Step::Scan { bind, .. } => bind.iter().map(|(c, v)| (*v, *c)).collect(),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut j = i + 1;
        while j < steps.len() {
            let hoisted = match &steps[j] {
                Step::Compare {
                    left: Slot::Var(v),
                    op,
                    right: Slot::Const(c),
                } => binds
                    .iter()
                    .find(|&&(bv, _)| bv == *v)
                    .map(|&(_, col)| (col, *op, c.clone())),
                Step::Compare {
                    left: Slot::Const(c),
                    op,
                    right: Slot::Var(v),
                } => binds
                    .iter()
                    .find(|&&(bv, _)| bv == *v)
                    .map(|&(_, col)| (col, op.flipped(), c.clone())),
                Step::Compare { .. } => None,
                _ => break,
            };
            match hoisted {
                Some(p) => {
                    steps.remove(j);
                    if let Step::Scan { pushdown, .. } = &mut steps[i] {
                        pushdown.push(p);
                    }
                }
                None => j += 1,
            }
        }
        i += 1;
    }
}

/// Rotate body literal `front` to the head of the body, preserving the
/// relative order of everything else. Returns the reordered rule and the
/// map `new body index → original body index`.
///
/// This is the paper's "delta rule" shape (§4.1: `qδ(x) :- Rδ(x, y)`): when
/// a rule is evaluated with one atom bound to a small delta, that atom must
/// drive the join (outermost scan), or the prefix atoms degenerate into full
/// relation scans.
pub fn reorder_body_front(rule: &Rule, front: usize) -> (Rule, Vec<usize>) {
    debug_assert!(front < rule.body.len());
    let vars_of = |i: usize| -> Vec<&str> {
        rule.body[i]
            .atom
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.as_str()),
                _ => None,
            })
            .collect()
    };
    let mut order: Vec<usize> = vec![front];
    let mut bound: std::collections::HashSet<&str> = vars_of(front).into_iter().collect();
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&i| i != front).collect();
    // Greedy bound-variable ordering for the rest: naively rotating only the
    // delta atom leaves whichever atom came next potentially fully unbound
    // (a cross-product scan). Pick, at each step, the positive atom sharing
    // the most variables with the bound set (ties resolved by original
    // position); negated atoms keep their slots at the end (the compiler
    // schedules them independently once their variables bind).
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, usize)> = None; // (bound_count, -pos→pos, idx)
        for (slot, &i) in remaining.iter().enumerate() {
            if rule.body[i].negated {
                continue;
            }
            let count = vars_of(i).iter().filter(|v| bound.contains(*v)).count();
            let better = match best {
                None => true,
                Some((bc, bi, _)) => count > bc || (count == bc && i < bi),
            };
            if better {
                best = Some((count, i, slot));
            }
        }
        match best {
            Some((_, i, slot)) => {
                remaining.remove(slot);
                bound.extend(vars_of(i));
                order.push(i);
            }
            None => {
                // Only negated literals left: keep original order.
                order.extend(remaining.iter().copied());
                break;
            }
        }
    }
    let body: Vec<Literal> = order.iter().map(|&i| rule.body[i].clone()).collect();
    (
        Rule {
            body,
            ..rule.clone()
        },
        order,
    )
}

/// Fetch matching `(row, signed count)` pairs for one atom scan.
///
/// Database reads are clamped to *membership* (0/1): joined inputs are sets
/// from the rules' point of view, and head counts are numbers of derivations
/// over visible tuples. Stored counts above 1 (duplicate base inserts,
/// derivation counts of lower-stratum heads) must not multiply into the
/// result — they can change without a visibility transition, and the IVM
/// delta algebra (`New = Old ⊎ Δ` with membership deltas) would drift.
/// Delta reads keep their signed counts: those ARE membership transitions.
fn fetch(
    db: &Database,
    delta: Option<&DeltaRelation>,
    relation: &str,
    source: Source,
    key_cols: &[usize],
    key_vals: &[Value],
) -> Result<Vec<(Row, i64)>, StorageError> {
    let mut out = Vec::new();
    match source {
        Source::Old => {
            db.lookup_counted(relation, key_cols, key_vals, &mut out)?;
            for m in &mut out {
                m.1 = m.1.clamp(0, 1);
            }
        }
        Source::Delta => {
            if let Some(d) = delta {
                d.lookup(key_cols, key_vals, &mut out);
            }
        }
        Source::New => {
            db.lookup_counted(relation, key_cols, key_vals, &mut out)?;
            for m in &mut out {
                m.1 = m.1.clamp(0, 1);
            }
            if let Some(d) = delta {
                d.lookup(key_cols, key_vals, &mut out);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn db() -> Database {
        let db = Database::new();
        db.create_relation(
            Schema::build("R")
                .col("x", ValueType::Int)
                .col("y", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db.create_relation(Schema::build("S").col("y", ValueType::Int).finish())
            .unwrap();
        db.create_relation(
            Schema::build("Q")
                .col("x", ValueType::Int)
                .col("y", ValueType::Int)
                .finish(),
        )
        .unwrap();
        db
    }

    fn all_old(_: usize) -> Source {
        Source::Old
    }

    #[test]
    fn simple_join_produces_expected_tuples() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("R", row![2, 20]).unwrap();
        d.insert("S", row![10]).unwrap();
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("y")]),
            vec![
                Literal::pos(Atom::new("R", vec![Term::var("x"), Term::var("y")])),
                Literal::pos(Atom::new("S", vec![Term::var("y")])),
            ],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[&row![1, 10]], 1);
    }

    #[test]
    fn counts_multiply_across_derivations() {
        let d = db();
        // Two derivations for Q(1,·): R(1,10) joins S(10) and R(1,11) joins S(11).
        d.create_relation(Schema::build("P").col("x", ValueType::Int).finish())
            .unwrap();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("R", row![1, 11]).unwrap();
        d.insert("S", row![10]).unwrap();
        d.insert("S", row![11]).unwrap();
        let rule = Rule::new(
            "p",
            Atom::new("P", vec![Term::var("x")]),
            vec![
                Literal::pos(Atom::new("R", vec![Term::var("x"), Term::var("y")])),
                Literal::pos(Atom::new("S", vec![Term::var("y")])),
            ],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res[&row![1]], 2);
    }

    #[test]
    fn constants_in_atoms_filter() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("R", row![2, 20]).unwrap();
        let rule = Rule::new(
            "q",
            Atom::new("S", vec![Term::var("y")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::constant(2i64), Term::var("y")],
            ))],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains_key(&row![20]));
    }

    #[test]
    fn repeated_variable_in_one_atom_enforces_equality() {
        let d = db();
        d.insert("R", row![3, 3]).unwrap();
        d.insert("R", row![3, 4]).unwrap();
        let rule = Rule::new(
            "q",
            Atom::new("S", vec![Term::var("x")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::var("x"), Term::var("x")],
            ))],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains_key(&row![3]));
    }

    #[test]
    fn negation_excludes_matches() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("R", row![2, 20]).unwrap();
        d.insert("S", row![10]).unwrap();
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("y")]),
            vec![
                Literal::pos(Atom::new("R", vec![Term::var("x"), Term::var("y")])),
                Literal::neg(Atom::new("S", vec![Term::var("y")])),
            ],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains_key(&row![2, 20]));
    }

    #[test]
    fn builtin_comparisons_filter() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("R", row![2, 20]).unwrap();
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("y")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::var("x"), Term::var("y")],
            ))],
        )
        .with_builtin(Term::var("y"), CmpOp::Gt, Term::constant(15i64));
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains_key(&row![2, 20]));
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        let d = db();
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("z")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::var("x"), Term::var("y")],
            ))],
        );
        let err = CompiledRule::compile(&rule, &d).unwrap_err();
        assert!(matches!(err, StorageError::UnboundHeadVariable { .. }));
    }

    #[test]
    fn unsafe_negation_rejected() {
        let d = db();
        let rule = Rule::new(
            "q",
            Atom::new("S", vec![Term::var("y")]),
            vec![
                Literal::pos(Atom::new("S", vec![Term::var("y")])),
                Literal::neg(Atom::new("R", vec![Term::var("w"), Term::var("y")])),
            ],
        );
        let err = CompiledRule::compile(&rule, &d).unwrap_err();
        assert!(matches!(err, StorageError::UnsafeVariable { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let d = db();
        let rule = Rule::new(
            "q",
            Atom::new("S", vec![Term::var("y")]),
            vec![Literal::pos(Atom::new("R", vec![Term::var("y")]))],
        );
        let err = CompiledRule::compile(&rule, &d).unwrap_err();
        assert!(matches!(err, StorageError::RuleArityMismatch { .. }));
    }

    #[test]
    fn udf_flat_maps_outputs() {
        let mut d = db();
        d.create_relation(
            Schema::build("W")
                .col("x", ValueType::Int)
                .col("t", ValueType::Text)
                .finish(),
        )
        .unwrap();
        d.register_udf("range3", |args: &[Value]| {
            let n = args[0].as_int().unwrap_or(0);
            (0..3).map(|i| Value::text(format!("{n}-{i}"))).collect()
        });
        d.insert("S", row![7]).unwrap();
        let rule = Rule::new(
            "w",
            Atom::new("W", vec![Term::var("x"), Term::var("t")]),
            vec![Literal::pos(Atom::new("S", vec![Term::var("x")]))],
        )
        .with_udf("range3", vec![Term::var("x")], "t");
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &HashMap::new(), &all_old).unwrap();
        assert_eq!(res.len(), 3);
        assert!(res.contains_key(&row![7, "7-1"]));
    }

    #[test]
    fn delta_source_only_sees_delta() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        let mut delta = DeltaRelation::new(d.schema("R").unwrap().clone());
        delta.add(row![2, 20], 1);
        let deltas: AtomDeltas = HashMap::from([(0usize, &delta)]);
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("y")]),
            vec![Literal::pos(Atom::new(
                "R",
                vec![Term::var("x"), Term::var("y")],
            ))],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c.eval(&d, &deltas, &|_| Source::Delta).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.contains_key(&row![2, 20]));
        let res_new = c.eval(&d, &deltas, &|_| Source::New).unwrap();
        assert_eq!(res_new.len(), 2);
    }

    #[test]
    fn negative_delta_counts_flow_through() {
        let d = db();
        d.insert("R", row![1, 10]).unwrap();
        d.insert("S", row![10]).unwrap();
        let mut delta = DeltaRelation::new(d.schema("R").unwrap().clone());
        delta.add(row![1, 10], -1);
        let deltas: AtomDeltas = HashMap::from([(0usize, &delta)]);
        let rule = Rule::new(
            "q",
            Atom::new("Q", vec![Term::var("x"), Term::var("y")]),
            vec![
                Literal::pos(Atom::new("R", vec![Term::var("x"), Term::var("y")])),
                Literal::pos(Atom::new("S", vec![Term::var("y")])),
            ],
        );
        let c = CompiledRule::compile(&rule, &d).unwrap();
        let res = c
            .eval(&d, &deltas, &|i| {
                if i == 0 {
                    Source::Delta
                } else {
                    Source::Old
                }
            })
            .unwrap();
        assert_eq!(res[&row![1, 10]], -1);
    }
}
