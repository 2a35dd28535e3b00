//! The Fig. 10 model runs the real plan: its modeled clusters must produce
//! exactly what local execution produces.

use dj_bench::dist::{run_distributed, Backend, ClusterSpec};
use dj_config::{OpSpec, Recipe};
use dj_core::Dataset;
use dj_exec::{ExecOptions, Executor};
use dj_ops::builtin_registry;
use dj_synth::{web_corpus, WebNoise};

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

#[test]
fn distributed_backends_agree_with_local_execution() {
    let registry = builtin_registry();
    let recipe = Recipe::new("dist-eq")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 4.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
        .then(OpSpec::new("lowercase_mapper"));
    let ops = recipe.build_ops(&registry).unwrap();
    let data = web_corpus(88, 150, WebNoise::default());
    let (local, _) = Executor::new(ops.clone())
        .with_options(ExecOptions {
            num_workers: 2,
            op_fusion: true,
            ..ExecOptions::default()
        })
        .run(data.clone())
        .unwrap();
    for backend in [Backend::Ray, Backend::Beam] {
        for nodes in [2usize, 5] {
            let (out, _) = run_distributed(
                &ops,
                data.clone(),
                ClusterSpec::paper_platform(nodes),
                backend,
            )
            .unwrap();
            assert_eq!(
                texts(&out),
                texts(&local),
                "{backend:?} with {nodes} nodes diverged"
            );
        }
    }
}
