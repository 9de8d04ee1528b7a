//! Storage-layer microbenches: datalog evaluation, counting IVM, DRed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deepdive_storage::{
    row, Atom, BaseChange, CmpOp, Database, IncrementalEngine, Literal, Program, Rule, Schema,
    StratifiedProgram, Term, ValueType,
};

fn spouse_like_db(sentences: usize, mentions_per: usize) -> Database {
    let db = Database::new();
    db.create_relation(
        Schema::build("Mention")
            .col("s", ValueType::Id)
            .col("m", ValueType::Id)
            .finish(),
    )
    .unwrap();
    db.create_relation(
        Schema::build("Cand")
            .col("m1", ValueType::Id)
            .col("m2", ValueType::Id)
            .finish(),
    )
    .unwrap();
    let mut m = 0u64;
    for s in 0..sentences {
        for _ in 0..mentions_per {
            db.insert(
                "Mention",
                row![
                    deepdive_storage::Value::Id(s as u64),
                    deepdive_storage::Value::Id(m)
                ],
            )
            .unwrap();
            m += 1;
        }
    }
    db
}

fn cand_program() -> Program {
    Program::new(vec![Rule::new(
        "cand",
        Atom::new("Cand", vec![Term::var("m1"), Term::var("m2")]),
        vec![
            Literal::pos(Atom::new("Mention", vec![Term::var("s"), Term::var("m1")])),
            Literal::pos(Atom::new("Mention", vec![Term::var("s"), Term::var("m2")])),
        ],
    )
    .with_builtin(Term::var("m1"), CmpOp::Lt, Term::var("m2"))])
}

fn storage_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_ops");
    group.sample_size(20);

    for sentences in [200usize, 1000] {
        group.bench_with_input(
            BenchmarkId::new("full_evaluation", sentences),
            &sentences,
            |b, &n| {
                let db = spouse_like_db(n, 3);
                let sp = StratifiedProgram::new(cand_program(), &db).unwrap();
                b.iter(move || sp.evaluate(&db).unwrap())
            },
        );

        group.bench_with_input(
            BenchmarkId::new("counting_ivm_single_insert", sentences),
            &sentences,
            |b, &n| {
                b.iter_batched(
                    || {
                        let db = spouse_like_db(n, 3);
                        let engine = IncrementalEngine::new(
                            StratifiedProgram::new(cand_program(), &db).unwrap(),
                        );
                        engine.initial_load(&db).unwrap();
                        (db, engine)
                    },
                    |(db, engine)| {
                        engine
                            .apply_update(
                                &db,
                                vec![BaseChange::insert(
                                    "Mention",
                                    row![
                                        deepdive_storage::Value::Id(0),
                                        deepdive_storage::Value::Id(999_999)
                                    ],
                                )],
                            )
                            .unwrap()
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }

    // DRed on transitive closure.
    group.bench_function("dred_delete_tc_chain200", |b| {
        b.iter_batched(
            || {
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
                for i in 0..200i64 {
                    db.insert("edge", row![i, i + 1]).unwrap();
                }
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
                let engine = IncrementalEngine::new(StratifiedProgram::new(prog, &db).unwrap());
                engine.initial_load(&db).unwrap();
                (db, engine)
            },
            |(db, engine)| {
                engine
                    .apply_update(&db, vec![BaseChange::delete("edge", row![199i64, 200i64])])
                    .unwrap()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, storage_ops);
criterion_main!(benches);
