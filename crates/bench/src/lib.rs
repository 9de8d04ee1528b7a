//! `deepdive-bench`: the experiment harness that regenerates every figure
//! and quantitative claim of the DeepDive paper (see EXPERIMENTS.md).
//!
//! Run `cargo run --release -p deepdive-bench --bin reproduce -- all` for the
//! full sweep, or name a single experiment (`fig2`, `fig5`,
//! `dimmwitted-vs-graphlab`, `numa`, `incremental-grounding`,
//! `incremental-inference`, `distant-supervision`, `iteration-loop`,
//! `regex-plateau`, `supervision-leak`, `threshold-sweep`, `paleo-scale`).

pub mod experiments;

use deepdive_core::apps::{spouse_ddlog_program, FeatureSet};

/// The spouse DDlog program with the LEAKED feature appended: a feature UDF
/// that recomputes the distant-supervision signal itself (§8's failure
/// mode).
pub fn leak_program(features: FeatureSet, distant: bool, negatives: bool) -> String {
    let mut src = spouse_ddlog_program(features, distant, negatives, Some(-0.7));
    src.push_str(
        r#"
        @name("fe_leak")
        MarriedMentions(m1, m2) :-
            MarriedCandidate(m1, m2),
            Mention(s, m1, t1), Mention(s, m2, t2),
            f = f_in_kb(t1, t2)
            weight = f.
    "#,
    );
    src
}
