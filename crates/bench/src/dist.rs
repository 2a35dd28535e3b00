//! The distributed wall-time model behind `fig10_scalability` (paper §6,
//! Fig. 10). There is no distributed backend in this workspace; this is
//! the reproduction of the figure.
//!
//! Data-Juicer's distributed story is "the same OP pool, partitioned data":
//! the dataset is split across nodes, every node runs the full plan over its
//! partitions, and dedup barriers exchange fingerprints. This module runs
//! the *real* OPs on real partitions locally — via the sharded pipeline
//! executor in `dj-exec`, whose shards map one-to-one onto cluster
//! partitions — and *models* the cluster wall time from the measured
//! single-stream compute cost plus each backend's load cost structure:
//!
//! * **Ray** — per-node parallel loaders; both load and compute shrink
//!   near-proportionally with node count (the paper's up-to-87.4% curve).
//! * **Beam** — a serialized, deserializing loader pins the job: compute
//!   scales out, loading does not (the flat Fig. 10 line, §7.2.4).
//!
//! Output equality with local execution is guaranteed by construction
//! (the same executor runs the same plan) and asserted in `tests/dist.rs`.

use std::time::Instant;

use dj_core::{Dataset, Op, Result};
use dj_exec::{ExecOptions, Executor};

/// The distributed runtimes compared in Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Ray,
    Beam,
}

/// A modeled cluster: the paper's platform is N nodes × 64 cores on NAS.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    pub nodes: usize,
    pub cores_per_node: usize,
    /// Fixed per-job scheduling/startup overhead added once per node tier.
    pub per_node_overhead_s: f64,
    /// Throughput of one serialized loader stream in megabits/s — Beam's
    /// loader and the per-node stream Ray parallelizes across nodes.
    pub single_stream_mbps: f64,
    /// Parallel-efficiency of scale-out compute (1.0 = perfect scaling).
    pub scaling_efficiency: f64,
}

impl ClusterSpec {
    /// The paper's evaluation platform shape: `nodes` × 64 cores.
    pub fn paper_platform(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes: nodes.max(1),
            cores_per_node: 64,
            per_node_overhead_s: 0.05,
            single_stream_mbps: 100.0,
            scaling_efficiency: 0.85,
        }
    }
}

/// Modeled timings of one distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistReport {
    /// Modeled end-to-end wall time on the cluster (seconds).
    pub modeled_wall_s: f64,
    /// Modeled data-loading time (seconds) — the Beam bottleneck.
    pub modeled_load_s: f64,
    /// Locally measured single-stream compute time the model scales from.
    pub measured_compute_s: f64,
    pub nodes: usize,
}

/// Run the plan single-node with `np` workers; returns output + wall secs.
pub fn run_single_node(ops: &[Op], data: Dataset, np: usize) -> Result<(Dataset, f64)> {
    let exec = Executor::new(ops.to_vec()).with_options(ExecOptions {
        num_workers: np.max(1),
        op_fusion: true,
        shard_size: None,
        ..ExecOptions::default()
    });
    let t0 = Instant::now();
    let (out, _) = exec.run(data)?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Execute the plan over node-count partitions (real OPs, real data) and
/// model the cluster wall time for `backend`.
pub fn run_distributed(
    ops: &[Op],
    data: Dataset,
    spec: ClusterSpec,
    backend: Backend,
) -> Result<(Dataset, DistReport)> {
    let input_mb = data.text_bytes() as f64 / 1e6;
    // Shard exactly as the cluster would partition: one shard per node
    // (the executor's shard merge preserves global sample order, which is
    // what the cluster's ordered partition collect does).
    let exec = Executor::new(ops.to_vec()).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: true,
        shard_size: Some(data.len().div_ceil(spec.nodes.max(1)).max(1)),
        ..ExecOptions::default()
    });
    let t0 = Instant::now();
    let (out, _) = exec.run(data)?;
    let measured_compute_s = t0.elapsed().as_secs_f64();

    let nodes = spec.nodes.max(1) as f64;
    let capacity = nodes * spec.cores_per_node.max(1) as f64 * spec.scaling_efficiency;
    let compute_s = measured_compute_s / capacity.max(1.0);
    let stream_mb_per_s = (spec.single_stream_mbps / 8.0).max(1e-6);
    let modeled_load_s = match backend {
        // Ray: every node pulls its partition concurrently.
        Backend::Ray => input_mb / stream_mb_per_s / nodes,
        // Beam/Flink: one serialized, deserializing input stream (§7.2.4).
        Backend::Beam => input_mb / stream_mb_per_s,
    };
    let modeled_wall_s = spec.per_node_overhead_s + modeled_load_s + compute_s;
    Ok((
        out,
        DistReport {
            modeled_wall_s,
            modeled_load_s,
            measured_compute_s,
            nodes: spec.nodes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::{OpParams, Sample};

    struct Upper;
    impl dj_core::Mapper for Upper {
        fn name(&self) -> &'static str {
            "upper_mapper_dist_test"
        }
        fn process(
            &self,
            sample: &mut Sample,
            _ctx: &mut dj_core::SampleContext,
        ) -> dj_core::Result<bool> {
            let t = sample.text().to_uppercase();
            let changed = t != sample.text();
            sample.set_text(t);
            Ok(changed)
        }
    }

    fn upper_ops() -> Vec<Op> {
        let _ = OpParams::new();
        vec![Op::Mapper(std::sync::Arc::new(Upper))]
    }

    fn corpus(n: usize) -> Dataset {
        Dataset::from_texts((0..n).map(|i| format!("document number {i} body text")))
    }

    #[test]
    fn distributed_output_matches_single_node() {
        let ops = upper_ops();
        let (single, _) = run_single_node(&ops, corpus(103), 2).unwrap();
        for backend in [Backend::Ray, Backend::Beam] {
            for nodes in [1usize, 3, 8] {
                let (out, report) = run_distributed(
                    &ops,
                    corpus(103),
                    ClusterSpec::paper_platform(nodes),
                    backend,
                )
                .unwrap();
                assert_eq!(out, single, "{backend:?}/{nodes}");
                assert_eq!(report.nodes, nodes);
                assert!(report.modeled_wall_s > 0.0);
            }
        }
    }

    #[test]
    fn ray_scales_down_beam_stays_load_bound() {
        let ops = upper_ops();
        let data = corpus(400);
        let spec = |n| ClusterSpec {
            per_node_overhead_s: 0.0,
            single_stream_mbps: 20.0,
            ..ClusterSpec::paper_platform(n)
        };
        let (_, ray1) = run_distributed(&ops, data.clone(), spec(1), Backend::Ray).unwrap();
        let (_, ray16) = run_distributed(&ops, data.clone(), spec(16), Backend::Ray).unwrap();
        assert!(
            ray16.modeled_wall_s < ray1.modeled_wall_s * 0.5,
            "16 nodes must at least halve: {} vs {}",
            ray16.modeled_wall_s,
            ray1.modeled_wall_s
        );
        let (_, beam1) = run_distributed(&ops, data.clone(), spec(1), Backend::Beam).unwrap();
        let (_, beam16) = run_distributed(&ops, data, spec(16), Backend::Beam).unwrap();
        assert!(
            (beam16.modeled_load_s - beam1.modeled_load_s).abs() < 1e-9,
            "Beam load is serialized regardless of nodes"
        );
    }
}
