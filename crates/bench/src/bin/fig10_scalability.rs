//! Fig. 10 — processing time vs node count (1..16 nodes × 64 cores) for
//! Data-Juicer-on-Ray and Data-Juicer-on-Beam over StackExchange-like and
//! arXiv-like corpora.
//!
//! Paper reference: Ray time drops near-proportionally with nodes (up to
//! 87.4% / 84.6% reduction at 16 nodes); Beam stays nearly flat because its
//! serialized data loading dominates. Per DESIGN.md, real OPs run on real
//! partitions locally and the cluster wall time is modeled.

use dj_bench::dist::{run_distributed, Backend, ClusterSpec};
use dj_bench::section;
use dj_config::{OpSpec, Recipe};
use dj_synth::{arxiv_corpus, dialog_corpus};

fn pipeline() -> Vec<dj_core::Op> {
    Recipe::new("fig10")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", 5i64)
                .with("max_ratio", 0.6),
        )
        .then(OpSpec::new("document_deduplicator"))
        .build_ops(&dj_ops::builtin_registry())
        .expect("recipe valid")
}

fn main() {
    section("Figure 10: processing time with varying node count (modeled 64-core nodes)");
    let ops = pipeline();
    let corpora = vec![
        ("StackExchange", dialog_corpus(60, 4000)),
        ("arXiv", arxiv_corpus(61, 2500)),
    ];
    let node_counts = [1usize, 2, 4, 8, 16];

    for (name, data) in &corpora {
        println!("\n{name} ({:.1} MB input)", data.text_bytes() as f64 / 1e6);
        println!(
            "{:>6} {:>14} {:>14} {:>16}",
            "nodes", "Ray wall (s)", "Beam wall (s)", "Beam load (s)"
        );
        let mut ray_walls = Vec::new();
        let mut beam_walls = Vec::new();
        for &n in &node_counts {
            let spec = ClusterSpec {
                per_node_overhead_s: 0.0,
                // Flink's deserializing single-stream loader (the §7.2.4
                // bottleneck) reads far below raw NAS line rate.
                single_stream_mbps: 20.0,
                ..ClusterSpec::paper_platform(n)
            };
            let (_, ray) =
                run_distributed(&ops, data.clone(), spec, Backend::Ray).expect("ray runs");
            let (_, beam) =
                run_distributed(&ops, data.clone(), spec, Backend::Beam).expect("beam runs");
            println!(
                "{n:>6} {:>14.4} {:>14.4} {:>16.4}",
                ray.modeled_wall_s, beam.modeled_wall_s, beam.modeled_load_s
            );
            ray_walls.push(ray.modeled_wall_s);
            beam_walls.push(beam.modeled_wall_s);
        }
        let ray_reduction = 1.0 - ray_walls.last().unwrap() / ray_walls[0];
        let beam_spread = (beam_walls.iter().cloned().fold(f64::MIN, f64::max)
            - beam_walls.iter().cloned().fold(f64::MAX, f64::min))
            / beam_walls[0];
        println!(
            "Ray time reduction 1→16 nodes: {:.1}% (paper: up to 87.4%) | Beam spread: {:.1}%",
            ray_reduction * 100.0,
            beam_spread * 100.0
        );
        assert!(
            ray_walls.windows(2).all(|w| w[1] <= w[0] * 1.15),
            "{name}: Ray wall time must not grow with nodes (beyond noise)"
        );
        assert!(
            ray_walls.last().unwrap() < &(ray_walls[0] * 0.5),
            "{name}: 16 nodes must at least halve the 1-node time"
        );
        assert!(
            beam_spread.abs() < 0.35,
            "{name}: Beam must stay nearly flat (spread {beam_spread:.2})"
        );
    }
    println!("\nshape check PASSED: Ray scales down with nodes, Beam flat (load-bound)");
}
