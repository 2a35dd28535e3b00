//! # data-juicer — a one-stop data processing system for LLM training data
//!
//! A from-scratch Rust reproduction of **Data-Juicer** (SIGMOD 2024): a
//! composable operator pool for cleaning, filtering and deduplicating LLM
//! training corpora, with a feedback loop of analyzers, visualizers, a
//! tracer, samplers, HPO and (simulated) auto-evaluation, plus the system
//! optimizations the paper describes — context management, OP fusion &
//! reordering, caching/checkpointing with compression, and sharded,
//! out-of-core execution. (Fig. 10's distributed scaling is a wall-time
//! model in the `dj-bench` harnesses, not a backend.)
//!
//! ## Quickstart
//!
//! ```
//! use data_juicer::prelude::*;
//!
//! // 1. A recipe: ordered OPs with hyper-parameters (or parse YAML).
//! let recipe = Recipe::new("quickstart")
//!     .then(OpSpec::new("whitespace_normalization_mapper"))
//!     .then(OpSpec::new("text_length_filter").with("min_len", 15.0).with("max_len", 1e6))
//!     .then(OpSpec::new("document_deduplicator"));
//!
//! // 2. Build the pipeline against the built-in 50+-OP registry.
//! let registry = builtin_registry();
//! let ops = recipe.build_ops(&registry).unwrap();
//!
//! // 3. Run it.
//! let data = Dataset::from_texts([
//!     "a   short doc that   needs whitespace cleanup, long enough to keep",
//!     "tiny",
//!     "a short doc that needs whitespace cleanup, long enough to keep",
//! ]);
//! let (out, report) = Executor::new(ops).run(data).unwrap();
//! assert_eq!(out.len(), 1); // "tiny" filtered, duplicate removed
//! assert_eq!(report.initial_samples, 3);
//! ```
//!
//! ## Crate map
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`core`] | §3.1–3.2 | unified data representation, OP traits, registry |
//! | [`ops`] | §3, Table 1 | the 50+ built-in operators |
//! | [`text`] | substrate | tokenizers (BPE), n-gram LM, language id, text stats |
//! | [`hash`] | substrate | MinHash+LSH, SimHash, union-find, fast hashing |
//! | [`ml`] | §5.2 | HashingTF + logistic regression quality classifiers |
//! | [`config`] | §5.1 | YAML recipes, 20+ built-in recipe templates |
//! | [`exec`] | §6 | executor, context management, OP fusion & reordering |
//! | [`store`] | §4.1.1, §6 | caching/checkpointing, compression, serialization |
//! | [`analyze`] | §4.2, §5.2 | analyzer, visualizer, tracer, samplers |
//! | [`hpo`] | §4.1.2 | search spaces, sweeps, Hyperband, Fig. 3 analysis |
//! | [`eval`] | §4.3 | proxy LLM evaluation, pairwise judge, leaderboard |
//! | [`synth`] | substrate | seeded synthetic corpora (web, wiki, code, IFT...) |

pub use dj_analyze as analyze;
pub use dj_config as config;
pub use dj_core as core;
pub use dj_eval as eval;
pub use dj_exec as exec;
pub use dj_hash as hash;
pub use dj_hpo as hpo;
pub use dj_io as io;
pub use dj_ml as ml;
pub use dj_ops as ops;
pub use dj_store as store;
pub use dj_synth as synth;
pub use dj_text as text;

/// The most common imports in one place.
pub mod prelude {
    pub use dj_analyze::{Analyzer, DataProbe};
    pub use dj_config::{OpSpec, Recipe};
    pub use dj_core::{Dataset, DjError, Op, OpRegistry, Result, Sample, Value};
    pub use dj_exec::{ExecOptions, Executor, RunReport};
    pub use dj_ops::builtin_registry;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let recipe = Recipe::new("smoke").then(OpSpec::new("lowercase_mapper"));
        let ops = recipe.build_ops(&builtin_registry()).unwrap();
        let (out, _) = Executor::new(ops)
            .run(Dataset::from_texts(["ABC"]))
            .unwrap();
        assert_eq!(out.get(0).unwrap().text(), "abc");
    }
}
