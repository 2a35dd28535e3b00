//! # dj-analyze — analyzer, visualizer, tracer & samplers (paper §4.2, §5.2)
//!
//! The feedback-loop tooling:
//!
//! * [`analyzer`] — whole-dataset probes over the 13 default statistical
//!   dimensions, plus the verb-noun diversity distribution of Fig. 5;
//! * [`visualize`] — terminal histograms, box plots, before/after diff
//!   plots and the OP-pipeline funnel of Fig. 4;
//! * [`tracer`] — dry-run a single OP and report exactly which samples it
//!   would discard / edit / deduplicate (Fig. 4(a)). [`trace_op`] is the
//!   system's one tracer: the executor keeps no samples for inspection,
//!   so tracing a pipeline is `trace_op` over each OP in turn, on what the
//!   OPs before it left (`fig4_visualization` does this);
//! * [`sampler`] — random, stratified (by meta tag or stat quantile) and
//!   diversity-maximizing samplers (the Table 3 selection machinery).

pub mod analyzer;
pub mod sampler;
pub mod tracer;
pub mod visualize;

pub use analyzer::{Analyzer, ColumnSummary, DataProbe, DEFAULT_DIMENSIONS};
pub use sampler::{diversity_sample, random_sample, stratified_by_stat, stratified_sample};
pub use tracer::{trace_op, Effect, TraceReport};
