//! Determinism guarantees of the thread count, end to end:
//!
//! * the spouse pipeline grounds the same variables/factors and learns
//!   bit-identical weights at any thread count (only the Gibbs chain count
//!   changes), and reproduces its marginals exactly run-to-run;
//! * multi-chain Gibbs is seeded-deterministic.

use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::{RunConfig, RunResult};
use deepdive_corpus::SpouseConfig;
use deepdive_sampler::{parallel_marginals, GibbsOptions, LearnOptions};

fn spouse_run(threads: usize) -> (SpouseApp, RunResult) {
    let mut app = SpouseApp::build(SpouseAppConfig {
        corpus: SpouseConfig {
            num_docs: 50,
            ..Default::default()
        },
        run: RunConfig {
            learn: LearnOptions {
                epochs: 60,
                ..Default::default()
            },
            inference: GibbsOptions {
                burn_in: 50,
                samples: 400,
                clamp_evidence: true,
                ..Default::default()
            },
            compute_calibration: false,
            threads,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("build spouse app");
    let result = app.run().expect("run spouse app");
    (app, result)
}

#[test]
fn spouse_pipeline_grounds_identically_at_any_thread_count() {
    let (seq_app, seq) = spouse_run(1);
    let (_, par) = spouse_run(4);

    // Grounding is bit-identical: same variables, factors, evidence, and
    // the same derivation effort.
    assert_eq!(seq.num_variables, par.num_variables);
    assert_eq!(seq.num_factors, par.num_factors);
    assert_eq!(seq.num_evidence, par.num_evidence);
    assert_eq!(
        seq.grounding_delta.added_variables,
        par.grounding_delta.added_variables
    );
    assert_eq!(
        seq.grounding_delta.added_factors,
        par.grounding_delta.added_factors
    );
    assert_eq!(
        seq.grounding_delta.evidence_changes,
        par.grounding_delta.evidence_changes
    );

    // Learning is sequential at any thread count: bit-identical weights.
    let weight_bits = |r: &RunResult| -> Vec<(String, u64, usize, bool)> {
        r.weights
            .iter()
            .map(|w| (w.key.clone(), w.value.to_bits(), w.references, w.fixed))
            .collect()
    };
    assert!(!seq.weights.is_empty());
    assert_eq!(weight_bits(&seq), weight_bits(&par));

    // Same tuples get marginals.
    let mut seq_keys: Vec<_> = seq.marginals.keys().cloned().collect();
    let mut par_keys: Vec<_> = par.marginals.keys().cloned().collect();
    seq_keys.sort();
    par_keys.sort();
    assert_eq!(seq_keys, par_keys);

    // With learning held fixed, parallel chains estimate the same posterior
    // as the sequential sweep over the pipeline's actual factor graph.
    let (graph, _) = seq_app.dd.grounder.state.compile();
    let weights = seq_app.dd.grounder.state.graph.weights.values();
    let opts = GibbsOptions {
        burn_in: 80,
        samples: 2_000,
        clamp_evidence: true,
        ..Default::default()
    };
    let seq_marg = parallel_marginals(&graph, &weights, &opts, 1);
    let par_marg = parallel_marginals(&graph, &weights, &opts, 4);
    let mut total_diff = 0.0;
    let mut queries = 0usize;
    for v in 0..graph.num_variables {
        if graph.is_evidence[v] {
            continue;
        }
        let d = (seq_marg.probability(v) - par_marg.probability(v)).abs();
        assert!(
            d < 0.2,
            "var {v}: seq {} vs par {}",
            seq_marg.probability(v),
            par_marg.probability(v)
        );
        total_diff += d;
        queries += 1;
    }
    let mean_diff = total_diff / queries.max(1) as f64;
    assert!(mean_diff < 0.03, "mean marginal divergence {mean_diff}");
}

#[test]
fn spouse_pipeline_is_reproducible_per_thread_count() {
    for threads in [1usize, 4] {
        let (_, a) = spouse_run(threads);
        let (_, b) = spouse_run(threads);
        let mut keys: Vec<_> = a.marginals.keys().cloned().collect();
        keys.sort();
        for key in &keys {
            assert_eq!(
                a.marginals[key].to_bits(),
                b.marginals[key].to_bits(),
                "threads={threads}: {key:?} not reproducible"
            );
        }
    }
}

#[test]
fn multi_chain_gibbs_is_seeded_deterministic() {
    use deepdive_factorgraph::{FactorArg, FactorFunction, FactorGraph, Variable};
    let mut g = FactorGraph::new();
    let vs: Vec<_> = (0..8).map(|_| g.add_variable(Variable::query())).collect();
    let w = g.weights.tied("s", 0.9);
    for pair in vs.windows(2) {
        g.add_factor(
            FactorFunction::Imply,
            vec![FactorArg::pos(pair[0]), FactorArg::pos(pair[1])],
            w,
        );
    }
    let c = g.compile();
    let weights = g.weights.values();
    let opts = GibbsOptions {
        burn_in: 25,
        samples: 333,
        seed: 0xC0FFEE,
        ..Default::default()
    };
    for threads in [2usize, 4, 8] {
        let a = parallel_marginals(&c, &weights, &opts, threads);
        let b = parallel_marginals(&c, &weights, &opts, threads);
        assert_eq!(a.true_counts, b.true_counts, "threads={threads}");
        assert_eq!(a.samples, opts.samples as u64);
    }
    // Different seeds genuinely decorrelate the chains.
    let alt = parallel_marginals(
        &c,
        &weights,
        &GibbsOptions {
            seed: 0xBEEF,
            ..opts.clone()
        },
        4,
    );
    let base = parallel_marginals(&c, &weights, &opts, 4);
    assert_ne!(alt.true_counts, base.true_counts);
}
