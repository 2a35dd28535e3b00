//! Distributed processing: run the same recipe single-node and on the
//! modeled Ray/Beam clusters, verify identical outputs, and print the
//! Fig. 10 scaling curve.
//!
//! Run with: `cargo run -p dj-bench --example distributed_processing`

use dj_bench::dist::{run_distributed, run_single_node, Backend, ClusterSpec};
use dj_config::{OpSpec, Recipe};
use dj_core::Result;
use dj_ops::builtin_registry;
use dj_synth::dialog_corpus;

fn main() -> Result<()> {
    let ops = Recipe::new("dist-example")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 5.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
        .build_ops(&builtin_registry())?;
    let data = dialog_corpus(99, 2000);
    println!(
        "corpus: {} docs, {:.2} MB",
        data.len(),
        data.text_bytes() as f64 / 1e6
    );

    let (single, wall) = run_single_node(&ops, data.clone(), 4)?;
    println!(
        "single node (np=4): {} docs out in {wall:.3}s\n",
        single.len()
    );

    println!(
        "{:>6} {:>14} {:>14}",
        "nodes", "Ray wall (s)", "Beam wall (s)"
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let spec = ClusterSpec {
            per_node_overhead_s: 0.0,
            single_stream_mbps: 20.0,
            ..ClusterSpec::paper_platform(nodes)
        };
        let (ray_out, ray) = run_distributed(&ops, data.clone(), spec, Backend::Ray)?;
        let (_, beam) = run_distributed(&ops, data.clone(), spec, Backend::Beam)?;
        assert_eq!(
            ray_out.iter().map(|s| s.text()).collect::<Vec<_>>(),
            single.iter().map(|s| s.text()).collect::<Vec<_>>(),
            "distributed output must equal single-node output"
        );
        println!(
            "{nodes:>6} {:>14.4} {:>14.4}",
            ray.modeled_wall_s, beam.modeled_wall_s
        );
    }
    println!("\nRay scales with nodes; Beam is pinned by its serialized loader (Fig. 10).");
    Ok(())
}
