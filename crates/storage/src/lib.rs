//! `deepdive-storage`: the relational substrate of the DeepDive reproduction.
//!
//! DeepDive (SIGMOD 2016) stores *everything* — documents, sentences,
//! candidates, features, labels, inferred marginals — in a relational
//! database and drives candidate generation, supervision and factor-graph
//! grounding with datalog-with-UDF rules (§3 of the paper). The original
//! system delegated this to PostgreSQL/Greenplum; this crate implements the
//! pieces DeepDive actually relies on, from scratch:
//!
//! * typed [`Value`]s, [`Row`]s and [`Schema`]s;
//! * counted [`Table`]s with incrementally-maintained secondary indexes
//!   ([`index`]) — the per-tuple `count` column of §4.1;
//! * a cost-based join planner ([`plan`]) choosing atom order and
//!   index-nested-loop vs hash-join strategies from table statistics;
//! * a [`Database`] catalog with registered user-defined functions;
//! * a datalog IR and evaluator ([`datalog`]) with stratification and
//!   semi-naive fixpoints ([`program`]);
//! * incremental view maintenance ([`ivm`]): counting for non-recursive
//!   strata and the DRed delete/re-derive algorithm for recursive ones,
//!   which is what makes DeepDive's *incremental grounding* possible.
//!
//! # Example
//!
//! ```
//! use deepdive_storage::{
//!     Atom, BaseChange, Database, IncrementalEngine, Literal, Program, Rule, Schema,
//!     StratifiedProgram, Term, ValueType, row,
//! };
//!
//! let mut db = Database::new();
//! db.create_relation(
//!     Schema::build("edge").col("a", ValueType::Int).col("b", ValueType::Int).finish(),
//! ).unwrap();
//! db.create_relation(
//!     Schema::build("path").col("a", ValueType::Int).col("b", ValueType::Int).finish(),
//! ).unwrap();
//!
//! let program = Program::new(vec![
//!     Rule::new("base",
//!         Atom::new("path", vec![Term::var("a"), Term::var("b")]),
//!         vec![Literal::pos(Atom::new("edge", vec![Term::var("a"), Term::var("b")]))]),
//!     Rule::new("step",
//!         Atom::new("path", vec![Term::var("a"), Term::var("c")]),
//!         vec![
//!             Literal::pos(Atom::new("path", vec![Term::var("a"), Term::var("b")])),
//!             Literal::pos(Atom::new("edge", vec![Term::var("b"), Term::var("c")])),
//!         ]),
//! ]);
//!
//! db.insert("edge", row![1, 2]).unwrap();
//! let engine = IncrementalEngine::new(StratifiedProgram::new(program, &db).unwrap());
//! engine.initial_load(&db).unwrap();
//!
//! // Incremental maintenance (DRed): add an edge, the closure follows.
//! engine.apply_update(&db, vec![BaseChange::insert("edge", row![2, 3])]).unwrap();
//! assert!(db.contains("path", &row![1, 3]).unwrap());
//! ```

pub mod column;
pub mod database;
pub mod datalog;
pub mod delta;
pub mod error;
pub mod exec;
pub mod fxhash;
pub mod index;
pub mod interner;
pub mod io;
pub mod ivm;
pub mod plan;
pub mod program;
pub mod schema;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod value;

pub use column::{Bitmap, ColumnBuf};
pub use database::{quarantine_schema, Database, FailurePolicy, Udf, QUARANTINE_SUFFIX};
pub use datalog::{
    Atom, AtomDeltas, Builtin, CmpOp, CompiledRule, Literal, Rule, Source, Term, UdfCall,
};
pub use delta::DeltaRelation;
pub use error::StorageError;
pub use exec::{
    default_threads, env_threads, threads_from_env, EnvThreads, ExecMetrics, ExecutionContext,
    PhaseStats, THREADS_ENV,
};
pub use index::{HashIndex, SortedIndex};
pub use interner::{dictionary_bytes, dictionary_len, intern, resolve, SymbolId};
pub use io::{
    row_from_tsv, row_to_tsv, value_from_tsv, value_to_tsv, IngestIssue, IngestPolicy,
    IngestReport, RequeueReport,
};
pub use ivm::{BaseChange, IncrementalEngine, MaintenanceResult};
pub use plan::{JoinStrategy, PlannedRule, RulePlan, StatsCatalog, StepPlan, TableStats};
pub use program::{Program, StratifiedProgram, Stratum};
pub use schema::{Column, Schema, SchemaBuilder};
pub use snapshot::{DatabaseSnapshot, RelationSnapshot};
pub use store::{
    install_spill_fault_hook, read_segment, write_segment, ColumnarStore, MemoryBudget,
    RelationStorageStats, SpillFaultHook, SpillStore, StorageConfig, TableStore,
};
pub use table::{Membership, Table};
pub use value::{hash_values, Row, Value, ValueType};
