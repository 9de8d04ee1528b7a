//! Property-based tests for the query-engine upgrade: secondary indexes and
//! the cost-based planner. Two invariants anchor everything here:
//!
//! 1. **Indexes are caches, never truth.** Any lookup answered through a
//!    hash or sorted index must equal a brute-force scan of the table's
//!    visible rows, after arbitrary interleavings of inserts and deletes —
//!    including deletes applied *after* the index was built, which exercise
//!    incremental maintenance rather than rebuild.
//! 2. **Plans never change results.** Counting semantics multiplies
//!    per-atom counts commutatively, so any legal join order (and any
//!    index-nested-loop vs hash-join choice) must produce the identical
//!    result multiset. The planner is free to pick; it is never free to
//!    differ.

use std::collections::HashMap;

use deepdive_storage::{
    row, Atom, BaseChange, CmpOp, Database, IncrementalEngine, Literal, Program, Row, Rule, Schema,
    StratifiedProgram, Term, Value, ValueType,
};
use proptest::prelude::*;

/// One randomly-chosen base mutation against a two-column relation.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(i64, i64),
}

fn op_strategy(universe: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..universe, 0..universe).prop_map(|(a, b)| Op::Insert(a, b)),
        (0..universe, 0..universe).prop_map(|(a, b)| Op::Delete(a, b)),
    ]
}

fn pair_db(name: &str) -> Database {
    let db = Database::new();
    db.create_relation(
        Schema::build(name)
            .col("a", ValueType::Int)
            .col("b", ValueType::Int)
            .finish(),
    )
    .unwrap();
    db
}

fn apply(db: &Database, name: &str, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(a, b) => {
                db.insert(name, row![*a, *b]).unwrap();
            }
            Op::Delete(a, b) => {
                db.delete(name, &row![*a, *b]).unwrap();
            }
        }
    }
}

/// Brute-force oracle: visible `(row, count)` pairs matching `key` at
/// column `col`, via a full scan with no index involvement.
fn scan_oracle(db: &Database, name: &str, col: usize, key: &Value) -> Vec<(Row, i64)> {
    let mut v: Vec<(Row, i64)> = db
        .rows_counted(name)
        .unwrap()
        .into_iter()
        .filter(|(r, _)| &r[col] == key)
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash-index lookups agree with full scans after arbitrary churn.
    ///
    /// The index is forced into existence after the FIRST half of the ops
    /// (by probing), so the second half — including deletes and
    /// re-inserts — flows through incremental maintenance, not a rebuild.
    #[test]
    fn hash_index_agrees_with_scan_under_deletions(
        first in proptest::collection::vec(op_strategy(5), 1..20),
        second in proptest::collection::vec(op_strategy(5), 1..20),
    ) {
        let db = pair_db("r");
        apply(&db, "r", &first);

        // Build the single-column and composite indexes now.
        let mut sink = Vec::new();
        db.lookup_counted("r", &[0], &[Value::Int(0)], &mut sink).unwrap();
        db.lookup_counted("r", &[0, 1], &[Value::Int(0), Value::Int(0)], &mut sink)
            .unwrap();

        // Churn on top of the live indexes.
        apply(&db, "r", &second);

        for k in 0..5i64 {
            let key = Value::Int(k);
            let mut got = Vec::new();
            db.lookup_counted("r", &[0], std::slice::from_ref(&key), &mut got)
                .unwrap();
            got.sort();
            prop_assert_eq!(
                got, scan_oracle(&db, "r", 0, &key),
                "hash index drift on key {} after {:?} then {:?}", k, first, second
            );

            for k2 in 0..5i64 {
                let mut got2 = Vec::new();
                db.lookup_counted("r", &[0, 1], &[Value::Int(k), Value::Int(k2)], &mut got2)
                    .unwrap();
                got2.sort();
                let want: Vec<(Row, i64)> = scan_oracle(&db, "r", 0, &key)
                    .into_iter()
                    .filter(|(r, _)| r[1] == Value::Int(k2))
                    .collect();
                prop_assert_eq!(
                    got2, want,
                    "composite index drift on ({}, {})", k, k2
                );
            }
        }
    }

    /// The vectorized filter kernel (`scan_filtered`) and the
    /// index-nested-loop probe (`probe_cells`) agree with a brute-force
    /// predicate oracle on arbitrary data with deletions.
    #[test]
    fn filter_kernels_agree_with_oracle(
        ops in proptest::collection::vec(op_strategy(6), 1..40),
        bound in 0i64..6,
    ) {
        let db = pair_db("r");
        apply(&db, "r", &ops);

        // Oracle: all visible rows with b < bound, projected to (a, b).
        let mut want: Vec<(Value, Value, i64)> = db
            .rows_counted("r")
            .unwrap()
            .into_iter()
            .filter(|(r, _)| matches!(&r[1], Value::Int(b) if *b < bound))
            .map(|(r, c)| (r[0].clone(), r[1].clone(), c))
            .collect();
        want.sort();

        // Vectorized scan path.
        let preds = [(1usize, CmpOp::Lt, Value::Int(bound))];
        let (mut cells, mut counts) = (Vec::new(), Vec::new());
        db.scan_filtered("r", &preds, &[0, 1], &mut cells, &mut counts).unwrap();
        let mut got: Vec<(Value, Value, i64)> = cells
            .chunks(2)
            .zip(&counts)
            .map(|(ch, &c)| (ch[0].clone(), ch[1].clone(), c))
            .collect();
        got.sort();
        prop_assert_eq!(got, want.clone(), "scan_filtered drift after {:?}", ops);

        // Index-nested-loop path: per-key probes with the same residual
        // predicate must union to the same multiset.
        let mut probed: Vec<(Value, Value, i64)> = Vec::new();
        for k in 0..6i64 {
            let (mut pc, mut pn) = (Vec::new(), Vec::new());
            db.probe_cells("r", &[0], &[Value::Int(k)], &preds, &[0, 1], &mut pc, &mut pn)
                .unwrap();
            probed.extend(
                pc.chunks(2)
                    .zip(&pn)
                    .map(|(ch, &c)| (ch[0].clone(), ch[1].clone(), c)),
            );
        }
        probed.sort();
        prop_assert_eq!(probed, want, "probe_cells drift after {:?}", ops);
    }
}

/// All body-atom orders of a join rule produce the identical result
/// multiset — the planner-parity oracle. The planner may reorder and pick
/// strategies; it must never change what comes out.
fn parity_db(edges: &[(i64, i64)], nodes: &[i64]) -> Database {
    let db = Database::new();
    db.create_relation(
        Schema::build("edge")
            .col("a", ValueType::Int)
            .col("b", ValueType::Int)
            .finish(),
    )
    .unwrap();
    db.create_relation(Schema::build("node").col("x", ValueType::Int).finish())
        .unwrap();
    db.create_relation(
        Schema::build("out")
            .col("a", ValueType::Int)
            .col("c", ValueType::Int)
            .finish(),
    )
    .unwrap();
    for (a, b) in edges {
        db.insert("edge", row![*a, *b]).unwrap();
    }
    for x in nodes {
        db.insert("node", row![*x]).unwrap();
    }
    db
}

fn triangle_rule(order: &[usize; 3]) -> Program {
    let body: Vec<Literal> = order
        .iter()
        .map(|&i| match i {
            0 => Literal::pos(Atom::new("edge", vec![Term::var("a"), Term::var("b")])),
            1 => Literal::pos(Atom::new("edge", vec![Term::var("b"), Term::var("c")])),
            _ => Literal::pos(Atom::new("node", vec![Term::var("b")])),
        })
        .collect();
    Program::new(vec![Rule::new(
        "out",
        Atom::new("out", vec![Term::var("a"), Term::var("c")]),
        body,
    )
    .with_builtin(Term::var("a"), CmpOp::Lt, Term::var("c"))])
}

fn out_multiset(db: &Database) -> Vec<(Row, i64)> {
    let mut v = db.rows_counted("out").unwrap();
    v.sort();
    v
}

const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planner_parity_all_join_orders(
        edges in proptest::collection::vec((0i64..6, 0i64..6), 0..25),
        nodes in proptest::collection::vec(0i64..6, 0..8),
    ) {
        // Reference: authored order, sequential.
        let db0 = parity_db(&edges, &nodes);
        let sp0 = StratifiedProgram::new(triangle_rule(&ORDERS[0]), &db0).unwrap();
        sp0.evaluate(&db0).unwrap();
        let want = out_multiset(&db0);

        // Every other authored order must agree (the planner re-orders each
        // independently, so this also varies the plans it starts from).
        for order in &ORDERS[1..] {
            let db = parity_db(&edges, &nodes);
            let sp = StratifiedProgram::new(triangle_rule(order), &db).unwrap();
            sp.evaluate(&db).unwrap();
            prop_assert_eq!(
                out_multiset(&db), want.clone(),
                "join-order parity broke for body order {:?}", order
            );
        }

        // A program planned against EMPTY tables with deliberately skewed
        // cardinality hints (so the cost model picks a different access
        // path), then handed the data afterwards without replanning.
        let dbh = parity_db(&[], &[]);
        let hints: HashMap<String, u64> =
            [("edge".to_string(), 1_000_000u64), ("node".to_string(), 1u64)]
                .into_iter()
                .collect();
        let sph = StratifiedProgram::with_hints(triangle_rule(&ORDERS[0]), &dbh, hints).unwrap();
        for (a, b) in &edges {
            dbh.insert("edge", row![*a, *b]).unwrap();
        }
        for x in &nodes {
            dbh.insert("node", row![*x]).unwrap();
        }
        sph.evaluate(&dbh).unwrap();
        prop_assert_eq!(out_multiset(&dbh), want, "hinted-plan parity broke");
    }
}

/// IVM / DRed retractions keep secondary indexes consistent: build indexes
/// over base and derived relations, run insert → retract → re-insert
/// through the incremental engine, and check every probe against the scan
/// oracle after each step.
fn ivm_db() -> Database {
    let db = Database::new();
    db.create_relation(
        Schema::build("edge")
            .col("a", ValueType::Int)
            .col("b", ValueType::Int)
            .finish(),
    )
    .unwrap();
    db.create_relation(
        Schema::build("tc")
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
            "tc_base",
            Atom::new("tc", vec![Term::var("a"), Term::var("b")]),
            vec![Literal::pos(Atom::new(
                "edge",
                vec![Term::var("a"), Term::var("b")],
            ))],
        ),
        Rule::new(
            "tc_step",
            Atom::new("tc", vec![Term::var("a"), Term::var("c")]),
            vec![
                Literal::pos(Atom::new("tc", vec![Term::var("a"), Term::var("b")])),
                Literal::pos(Atom::new("edge", vec![Term::var("b"), Term::var("c")])),
            ],
        ),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ivm_retraction_keeps_indexes_consistent(
        seed in proptest::collection::vec((0i64..5, 0i64..5), 1..6),
        churn in proptest::collection::vec((0i64..5, 0i64..5), 1..10),
    ) {
        let db = ivm_db();
        for (a, b) in &seed {
            db.insert("edge", row![*a, *b]).unwrap();
        }
        let engine = IncrementalEngine::new(StratifiedProgram::new(tc_program(), &db).unwrap());
        engine.initial_load(&db).unwrap();

        // Force hash indexes into existence on base AND derived relations,
        // so every subsequent engine-driven mutation must maintain them.
        let mut sink = Vec::new();
        db.lookup_counted("edge", &[0], &[Value::Int(0)], &mut sink).unwrap();
        db.lookup_counted("tc", &[0], &[Value::Int(0)], &mut sink).unwrap();

        let check = |label: &str| -> Result<(), TestCaseError> {
            for rel in ["edge", "tc"] {
                for k in 0..5i64 {
                    let key = Value::Int(k);
                    let mut got = Vec::new();
                    db.lookup_counted(rel, &[0], std::slice::from_ref(&key), &mut got)
                        .unwrap();
                    got.sort();
                    prop_assert_eq!(
                        got, scan_oracle(&db, rel, 0, &key),
                        "index drift on `{}` key {} after {}", rel, k, label
                    );
                }
            }
            Ok(())
        };

        // Insert.
        let inserts: Vec<BaseChange> = churn
            .iter()
            .map(|(a, b)| BaseChange::insert("edge", row![*a, *b]))
            .collect();
        engine.apply_update(&db, inserts.clone()).unwrap();
        check("insert")?;

        // Retract (DRed over-delete/rederive on the recursive tc).
        let deletes: Vec<BaseChange> = churn
            .iter()
            .map(|(a, b)| BaseChange::delete("edge", row![*a, *b]))
            .collect();
        engine.apply_update(&db, deletes).unwrap();
        check("retract")?;

        // Re-insert: the indexes must resurrect the slots, not duplicate.
        engine.apply_update(&db, inserts).unwrap();
        check("reinsert")?;
    }
}

/// Sorted (range) indexes survive churn applied after they are built.
/// Needs a table past the sorted-index row threshold so `scan_filtered`
/// actually routes range predicates through the index; deterministic
/// rather than property-based to keep the row volume out of the proptest
/// inner loop.
#[test]
fn sorted_index_maintained_under_churn() {
    let db = pair_db("big");
    // 6000 rows: a in 0..6000, b = a % 97.
    for a in 0..6000i64 {
        db.insert("big", row![a, a % 97]).unwrap();
    }

    let range_scan = |db: &Database| -> Vec<(Value, i64)> {
        let preds = [(0usize, CmpOp::Lt, Value::Int(100))];
        let (mut cells, mut counts) = (Vec::new(), Vec::new());
        db.scan_filtered("big", &preds, &[0], &mut cells, &mut counts)
            .unwrap();
        let mut v: Vec<(Value, i64)> = cells.into_iter().zip(counts).collect();
        v.sort();
        v
    };
    let oracle = |db: &Database| -> Vec<(Value, i64)> {
        let mut v: Vec<(Value, i64)> = db
            .rows_counted("big")
            .unwrap()
            .into_iter()
            .filter(|(r, _)| matches!(&r[0], Value::Int(a) if *a < 100))
            .map(|(r, c)| (r[0].clone(), c))
            .collect();
        v.sort();
        v
    };

    // First range scan builds the sorted index.
    assert_eq!(range_scan(&db), oracle(&db));

    // Delete every third row under 200, re-insert a few, insert new rows
    // inside and outside the range — all maintained incrementally.
    for a in (0..200i64).step_by(3) {
        db.delete("big", &row![a, a % 97]).unwrap();
    }
    for a in (0..60i64).step_by(3) {
        db.insert("big", row![a, a % 97]).unwrap();
    }
    for a in 6000..6050i64 {
        db.insert("big", row![a, a % 97]).unwrap();
    }
    db.insert("big", row![-5i64, 0i64]).unwrap();

    assert_eq!(
        range_scan(&db),
        oracle(&db),
        "sorted index drifted from scan oracle after churn"
    );
}
