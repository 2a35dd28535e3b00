//! Data recipes: the all-in-one configuration of a processing pipeline
//! (paper §5.1).
//!
//! A [`Recipe`] names the project, execution parameters and the ordered OP
//! list with per-OP hyper-parameters. Recipes round-trip through the YAML
//! subset, support the "subtraction"/"addition" editing workflows the paper
//! recommends, and produce a stable fingerprint used as the cache key by the
//! executor (§4.1).

use dj_core::{DjError, OpParams, OpRegistry, Result, Value};

use crate::yaml::{parse_yaml, to_yaml};

/// One OP invocation in a recipe: name plus hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpec {
    pub name: String,
    pub params: OpParams,
}

impl OpSpec {
    pub fn new(name: &str) -> OpSpec {
        OpSpec {
            name: name.to_string(),
            params: OpParams::new(),
        }
    }

    /// Builder-style parameter setting.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> OpSpec {
        self.params.insert(key.to_string(), value.into());
        self
    }
}

/// A complete, executable data recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Project name (config traceability; shows up in cache paths).
    pub project_name: String,
    /// Number of worker processes/threads for the executor.
    pub np: usize,
    /// Target samples per shard for the pipelined executor; `None` lets the
    /// executor auto-shard from `np` (morsel-driven over-partitioning).
    pub shard_size: Option<usize>,
    /// Peak dataset bytes the executor may hold in memory; datasets whose
    /// estimated size exceeds it are spilled to disk and streamed through
    /// stages (out-of-core mode). `None` disables spilling.
    pub memory_budget: Option<u64>,
    /// Directory for spilled shard frames; `None` = the system temp dir.
    pub spill_dir: Option<String>,
    /// Default text field OPs process.
    pub text_key: String,
    /// Input corpus path or glob (`data/*.jsonl`) for file-backed
    /// execution: the corpus streams straight into the shard machinery
    /// without ever being materialized. `None` = the caller supplies an
    /// in-memory dataset.
    pub input_path: Option<String>,
    /// Output directory for file-backed execution: the processed corpus is
    /// written as manifest-tracked shard parts. `None` = the result is
    /// returned in memory.
    pub output_path: Option<String>,
    /// Egress format for `output_path`: `"jsonl"` (default) or `"frames"`
    /// (raw shard frames, re-ingestable without a decode round-trip).
    pub output_format: Option<String>,
    /// Streaming prefetch depth: shards in flight per worker while stages
    /// stream (`2` = double buffering, the default; `1` disables the
    /// prefetch loader). `None` uses the executor default.
    pub prefetch_depth: Option<usize>,
    /// Adaptive, measurement-driven planning: plan steps ordered from the
    /// persisted cost-model sidecar, mid-run re-planning, measured
    /// barrier gating and knob auto-tuning (default `false`).
    pub adaptive: bool,
    /// Directory the cost-model sidecar persists under; `None` = the
    /// cache root (when `adaptive` is set and a cache is attached).
    pub stats_dir: Option<String>,
    /// Per-op prefix caching: cache every plan step's output under a
    /// chained prefix fingerprint so editing op `k` resumes ops `0..k`
    /// from cache (default `false`; costs a materialization per step).
    pub prefix_cache: bool,
    /// Columnar shard frames with field-projection pushdown: spilled
    /// shards are stored as per-column `DJSC` frames and each stage
    /// decodes only the columns its OPs' field footprints name, splicing
    /// every other column through byte-for-byte (default `false`). Output
    /// is byte-identical to the row format.
    pub columnar: bool,
    /// Record-level error policy: `"fail"` (default), `"skip"` or
    /// `"quarantine"`. Under `skip`/`quarantine` a malformed ingest
    /// record or a sample an OP rejects is dropped (and, for quarantine,
    /// preserved in a checksummed sidecar next to the egress manifest)
    /// instead of failing the job.
    pub on_error: Option<String>,
    /// Error budget for `skip`/`quarantine`: the job fails once the
    /// bad-record ratio exceeds this (must be in `[0, 1]`; default 1.0
    /// never trips).
    pub max_error_ratio: Option<f64>,
    /// The ordered OP pipeline.
    pub process: Vec<OpSpec>,
}

impl Default for Recipe {
    fn default() -> Self {
        Recipe {
            project_name: "data-juicer".to_string(),
            np: 1,
            shard_size: None,
            memory_budget: None,
            spill_dir: None,
            text_key: "text".to_string(),
            input_path: None,
            output_path: None,
            output_format: None,
            prefetch_depth: None,
            adaptive: false,
            stats_dir: None,
            prefix_cache: false,
            columnar: false,
            on_error: None,
            max_error_ratio: None,
            process: Vec::new(),
        }
    }
}

impl Recipe {
    pub fn new(project_name: &str) -> Recipe {
        Recipe {
            project_name: project_name.to_string(),
            ..Recipe::default()
        }
    }

    /// Builder: append an OP.
    pub fn then(mut self, op: OpSpec) -> Recipe {
        self.process.push(op);
        self
    }

    /// Builder: set worker count.
    pub fn with_np(mut self, np: usize) -> Recipe {
        self.np = np.max(1);
        self
    }

    /// Builder: set the target shard size for the pipelined executor.
    pub fn with_shard_size(mut self, shard_size: usize) -> Recipe {
        self.shard_size = Some(shard_size.max(1));
        self
    }

    /// Builder: set the executor's memory budget in bytes (enables
    /// out-of-core spilling when the dataset estimate exceeds it).
    pub fn with_memory_budget(mut self, bytes: u64) -> Recipe {
        self.memory_budget = Some(bytes.max(1));
        self
    }

    /// Builder: set the directory spilled shard frames are written under.
    pub fn with_spill_dir(mut self, dir: impl Into<String>) -> Recipe {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder: set the input corpus path or glob (file-backed execution).
    pub fn with_input_path(mut self, path: impl Into<String>) -> Recipe {
        self.input_path = Some(path.into());
        self
    }

    /// Builder: set the sharded-output directory (file-backed execution).
    pub fn with_output_path(mut self, path: impl Into<String>) -> Recipe {
        self.output_path = Some(path.into());
        self
    }

    /// Builder: set the egress format (`"jsonl"` or `"frames"`).
    pub fn with_output_format(mut self, format: impl Into<String>) -> Recipe {
        self.output_format = Some(format.into());
        self
    }

    /// Builder: set the streaming prefetch depth (floored to 1).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Recipe {
        self.prefetch_depth = Some(depth.max(1));
        self
    }

    /// Builder: toggle adaptive, measurement-driven planning.
    pub fn with_adaptive(mut self, enabled: bool) -> Recipe {
        self.adaptive = enabled;
        self
    }

    /// Builder: set the cost-model sidecar directory.
    pub fn with_stats_dir(mut self, dir: impl Into<String>) -> Recipe {
        self.stats_dir = Some(dir.into());
        self
    }

    /// Builder: toggle per-op prefix caching.
    pub fn with_prefix_cache(mut self, enabled: bool) -> Recipe {
        self.prefix_cache = enabled;
        self
    }

    /// Builder: toggle columnar spilled-shard frames with field-projection
    /// pushdown.
    pub fn with_columnar(mut self, enabled: bool) -> Recipe {
        self.columnar = enabled;
        self
    }

    /// Builder: set the record-level error policy (`"fail"`, `"skip"` or
    /// `"quarantine"`).
    pub fn with_on_error(mut self, policy: impl Into<String>) -> Recipe {
        self.on_error = Some(policy.into());
        self
    }

    /// Builder: set the error-ratio budget (clamped to `[0, 1]`).
    pub fn with_max_error_ratio(mut self, ratio: f64) -> Recipe {
        self.max_error_ratio = Some(ratio.clamp(0.0, 1.0));
        self
    }

    // ---- "subtraction"/"addition" editing (paper §5.1) -----------------

    /// Remove every occurrence of an OP by name; returns how many were
    /// removed ("subtraction" workflow).
    pub fn remove_op(&mut self, name: &str) -> usize {
        let before = self.process.len();
        self.process.retain(|op| op.name != name);
        before - self.process.len()
    }

    /// Insert an OP at `index` (clamped to the pipeline length).
    pub fn insert_op(&mut self, index: usize, op: OpSpec) {
        let idx = index.min(self.process.len());
        self.process.insert(idx, op);
    }

    /// Move the OP at `from` to position `to` (reordering workflow).
    pub fn move_op(&mut self, from: usize, to: usize) -> Result<()> {
        if from >= self.process.len() || to >= self.process.len() {
            return Err(DjError::Config(format!(
                "move_op: index out of range ({from} -> {to}, len {})",
                self.process.len()
            )));
        }
        let op = self.process.remove(from);
        self.process.insert(to, op);
        Ok(())
    }

    /// Set a hyper-parameter on the first OP with the given name
    /// (the Fig. 5 "refine parameters" step).
    pub fn set_param(&mut self, op_name: &str, key: &str, value: Value) -> Result<()> {
        let op = self
            .process
            .iter_mut()
            .find(|op| op.name == op_name)
            .ok_or_else(|| DjError::Config(format!("set_param: no op named `{op_name}`")))?;
        op.params.insert(key.to_string(), value);
        Ok(())
    }

    /// Find an OP by name.
    pub fn op(&self, name: &str) -> Option<&OpSpec> {
        self.process.iter().find(|op| op.name == name)
    }

    // ---- (De)serialization ---------------------------------------------

    /// Parse a recipe from YAML-subset text.
    pub fn from_yaml(text: &str) -> Result<Recipe> {
        let v = parse_yaml(text)?;
        Recipe::from_value(&v)
    }

    /// Parse a recipe from an already-parsed config value.
    pub fn from_value(v: &Value) -> Result<Recipe> {
        let mut recipe = Recipe::default();
        if let Some(name) = v.get_path("project_name").and_then(Value::as_str) {
            recipe.project_name = name.to_string();
        }
        if let Some(np) = v.get_path("np").and_then(Value::as_int) {
            if np < 1 {
                return Err(DjError::Config("np must be >= 1".into()));
            }
            recipe.np = np as usize;
        }
        if let Some(sz) = v.get_path("shard_size").and_then(Value::as_int) {
            if sz < 1 {
                return Err(DjError::Config("shard_size must be >= 1".into()));
            }
            recipe.shard_size = Some(sz as usize);
        }
        if let Some(mb) = v.get_path("memory_budget").and_then(Value::as_int) {
            if mb < 1 {
                return Err(DjError::Config("memory_budget must be >= 1 byte".into()));
            }
            recipe.memory_budget = Some(mb as u64);
        }
        if let Some(dir) = v.get_path("spill_dir").and_then(Value::as_str) {
            recipe.spill_dir = Some(dir.to_string());
        }
        if let Some(tk) = v.get_path("text_key").and_then(Value::as_str) {
            recipe.text_key = tk.to_string();
        }
        if let Some(p) = v.get_path("input_path").and_then(Value::as_str) {
            recipe.input_path = Some(p.to_string());
        }
        if let Some(p) = v.get_path("output_path").and_then(Value::as_str) {
            recipe.output_path = Some(p.to_string());
        }
        if let Some(f) = v.get_path("output_format").and_then(Value::as_str) {
            if f != "jsonl" && f != "frames" {
                return Err(DjError::Config(format!(
                    "output_format must be `jsonl` or `frames`, got `{f}`"
                )));
            }
            recipe.output_format = Some(f.to_string());
        }
        if let Some(d) = v.get_path("prefetch_depth").and_then(Value::as_int) {
            if d < 1 {
                return Err(DjError::Config("prefetch_depth must be >= 1".into()));
            }
            recipe.prefetch_depth = Some(d as usize);
        }
        if let Some(a) = v.get_path("adaptive").and_then(Value::as_bool) {
            recipe.adaptive = a;
        }
        if let Some(dir) = v.get_path("stats_dir").and_then(Value::as_str) {
            recipe.stats_dir = Some(dir.to_string());
        }
        if let Some(pc) = v.get_path("prefix_cache").and_then(Value::as_bool) {
            recipe.prefix_cache = pc;
        }
        if let Some(c) = v.get_path("columnar").and_then(Value::as_bool) {
            recipe.columnar = c;
        }
        if let Some(p) = v.get_path("on_error").and_then(Value::as_str) {
            if !matches!(p, "fail" | "skip" | "quarantine") {
                return Err(DjError::Config(format!(
                    "on_error must be `fail`, `skip` or `quarantine`, got `{p}`"
                )));
            }
            recipe.on_error = Some(p.to_string());
        }
        if let Some(r) = v.get_path("max_error_ratio").and_then(Value::as_float) {
            if !(0.0..=1.0).contains(&r) {
                return Err(DjError::Config("max_error_ratio must be in [0, 1]".into()));
            }
            recipe.max_error_ratio = Some(r);
        }
        let process = match v.get_path("process") {
            None => Vec::new(),
            Some(Value::List(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| parse_op_spec(item, i))
                .collect::<Result<Vec<_>>>()?,
            Some(other) => {
                return Err(DjError::Config(format!(
                    "`process` must be a list, got {}",
                    other.kind()
                )))
            }
        };
        recipe.process = process;
        Ok(recipe)
    }

    /// Serialize to the YAML subset.
    pub fn to_yaml(&self) -> String {
        to_yaml(&self.to_value())
    }

    /// Convert to a config [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let mut root = Value::map();
        root.set_path("project_name", Value::from(self.project_name.clone()))
            .expect("map root");
        root.set_path("np", Value::from(self.np)).expect("map root");
        if let Some(sz) = self.shard_size {
            root.set_path("shard_size", Value::from(sz))
                .expect("map root");
        }
        if let Some(mb) = self.memory_budget {
            root.set_path("memory_budget", Value::Int(mb as i64))
                .expect("map root");
        }
        if let Some(dir) = &self.spill_dir {
            root.set_path("spill_dir", Value::from(dir.clone()))
                .expect("map root");
        }
        root.set_path("text_key", Value::from(self.text_key.clone()))
            .expect("map root");
        if let Some(p) = &self.input_path {
            root.set_path("input_path", Value::from(p.clone()))
                .expect("map root");
        }
        if let Some(p) = &self.output_path {
            root.set_path("output_path", Value::from(p.clone()))
                .expect("map root");
        }
        if let Some(f) = &self.output_format {
            root.set_path("output_format", Value::from(f.clone()))
                .expect("map root");
        }
        if let Some(d) = self.prefetch_depth {
            root.set_path("prefetch_depth", Value::from(d))
                .expect("map root");
        }
        if self.adaptive {
            root.set_path("adaptive", Value::Bool(true))
                .expect("map root");
        }
        if let Some(dir) = &self.stats_dir {
            root.set_path("stats_dir", Value::from(dir.clone()))
                .expect("map root");
        }
        if self.prefix_cache {
            root.set_path("prefix_cache", Value::Bool(true))
                .expect("map root");
        }
        // Emitted only when non-default so existing recipe fingerprints
        // (and therefore cache keys) are unchanged for row-format runs.
        if self.columnar {
            root.set_path("columnar", Value::Bool(true))
                .expect("map root");
        }
        // Same fingerprint-stability rule: only emitted when set.
        if let Some(p) = &self.on_error {
            root.set_path("on_error", Value::from(p.clone()))
                .expect("map root");
        }
        if let Some(r) = self.max_error_ratio {
            root.set_path("max_error_ratio", Value::Float(r))
                .expect("map root");
        }
        let ops: Vec<Value> = self
            .process
            .iter()
            .map(|op| {
                let mut m = Value::map();
                let params = if op.params.is_empty() {
                    Value::Null
                } else {
                    Value::Map(op.params.clone())
                };
                m.set_path(&op.name, params).expect("map root");
                m
            })
            .collect();
        root.set_path("process", Value::List(ops))
            .expect("map root");
        root
    }

    /// Validate every OP against a registry; returns the unknown names.
    pub fn validate(&self, registry: &OpRegistry) -> Vec<String> {
        self.process
            .iter()
            .filter(|op| !registry.contains(&op.name))
            .map(|op| op.name.clone())
            .collect()
    }

    /// Instantiate the pipeline against a registry.
    pub fn build_ops(&self, registry: &OpRegistry) -> Result<Vec<dj_core::Op>> {
        self.process
            .iter()
            .map(|spec| {
                let mut params = spec.params.clone();
                // Propagate the recipe-level text key unless the OP overrides.
                if self.text_key != "text" && !params.contains_key("field") {
                    params.insert("field".into(), Value::from(self.text_key.clone()));
                }
                registry.build(&spec.name, &params)
            })
            .collect()
    }

    /// Stable 64-bit fingerprint of the canonical serialization — the cache
    /// key that lets the executor detect configuration changes (§4.1).
    pub fn fingerprint(&self) -> u64 {
        dj_hash::fnv1a(self.to_yaml().as_bytes())
    }
}

fn parse_op_spec(item: &Value, index: usize) -> Result<OpSpec> {
    let map = item.as_map().ok_or_else(|| {
        DjError::Config(format!(
            "process[{index}] must be a map of op name to params"
        ))
    })?;
    if map.len() != 1 {
        return Err(DjError::Config(format!(
            "process[{index}] must contain exactly one op, found {}",
            map.len()
        )));
    }
    let (name, params) = map.iter().next().expect("len checked");
    let params = match params {
        Value::Null => OpParams::new(),
        Value::Map(m) => m.clone(),
        other => {
            return Err(DjError::Config(format!(
                "params of `{name}` must be a map, got {}",
                other.kind()
            )))
        }
    };
    Ok(OpSpec {
        name: name.clone(),
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recipe() -> Recipe {
        Recipe::new("refine-web")
            .with_np(4)
            .then(OpSpec::new("whitespace_normalization_mapper"))
            .then(
                OpSpec::new("word_repetition_filter")
                    .with("rep_len", 10i64)
                    .with("min_ratio", 0.0)
                    .with("max_ratio", 0.5),
            )
            .then(OpSpec::new("document_deduplicator").with("lowercase", true))
    }

    #[test]
    fn yaml_roundtrip() {
        let r = sample_recipe();
        let text = r.to_yaml();
        let parsed = Recipe::from_yaml(&text).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn paper_style_yaml_parses() {
        let y = r#"
project_name: fig5-refined
np: 2
process:
  - word_repetition_filter:
      rep_len: 3
      min_ratio: 0.0
      max_ratio: 0.23
  - special_characters_filter:
      min_ratio: 0.07
      max_ratio: 0.25
"#;
        let r = Recipe::from_yaml(y).unwrap();
        assert_eq!(r.project_name, "fig5-refined");
        assert_eq!(r.process.len(), 2);
        assert_eq!(
            r.op("word_repetition_filter").unwrap().params["max_ratio"].as_float(),
            Some(0.23)
        );
    }

    #[test]
    fn subtraction_and_addition_editing() {
        let mut r = sample_recipe();
        assert_eq!(r.remove_op("whitespace_normalization_mapper"), 1);
        assert_eq!(r.process.len(), 2);
        r.insert_op(0, OpSpec::new("clean_links_mapper"));
        assert_eq!(r.process[0].name, "clean_links_mapper");
        r.set_param("word_repetition_filter", "max_ratio", Value::Float(0.23))
            .unwrap();
        assert_eq!(
            r.op("word_repetition_filter").unwrap().params["max_ratio"].as_float(),
            Some(0.23)
        );
        assert!(r.set_param("missing_op", "k", Value::Null).is_err());
    }

    #[test]
    fn move_op_reorders() {
        let mut r = sample_recipe();
        r.move_op(2, 0).unwrap();
        assert_eq!(r.process[0].name, "document_deduplicator");
        assert!(r.move_op(9, 0).is_err());
    }

    #[test]
    fn fingerprint_tracks_changes() {
        let r = sample_recipe();
        let fp1 = r.fingerprint();
        assert_eq!(fp1, sample_recipe().fingerprint(), "deterministic");
        let mut r2 = sample_recipe();
        r2.set_param("word_repetition_filter", "max_ratio", Value::Float(0.4))
            .unwrap();
        assert_ne!(fp1, r2.fingerprint());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Recipe::from_yaml("np: 0\n").is_err());
        assert!(Recipe::from_yaml("process: 5\n").is_err());
        assert!(Recipe::from_yaml("process:\n  - 42\n").is_err());
    }

    #[test]
    fn empty_recipe_defaults() {
        let r = Recipe::from_yaml("").unwrap();
        assert_eq!(r.np, 1);
        assert_eq!(r.shard_size, None);
        assert_eq!(r.text_key, "text");
        assert!(r.process.is_empty());
    }

    #[test]
    fn out_of_core_knobs_roundtrip_and_validate() {
        let r = sample_recipe()
            .with_memory_budget(64 << 20)
            .with_spill_dir("/tmp/dj-spill");
        assert_eq!(r.memory_budget, Some(64 << 20));
        assert_eq!(r.spill_dir.as_deref(), Some("/tmp/dj-spill"));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_ne!(
            r.fingerprint(),
            sample_recipe().fingerprint(),
            "out-of-core knobs participate in the cache key"
        );
        let y = Recipe::from_yaml("memory_budget: 1048576\nspill_dir: spill\n").unwrap();
        assert_eq!(y.memory_budget, Some(1 << 20));
        assert_eq!(y.spill_dir.as_deref(), Some("spill"));
        assert!(Recipe::from_yaml("memory_budget: 0\n").is_err());
        let none = Recipe::from_yaml("np: 2\n").unwrap();
        assert_eq!(none.memory_budget, None);
        assert_eq!(none.spill_dir, None);
    }

    #[test]
    fn retired_knobs_still_load_and_are_ignored() {
        // `dedup_parallel`, `shard_fill` and `replan_after_shards` were
        // recipe keys once; a recipe that still carries them (whatever the
        // value) loads as if they were absent.
        let old = Recipe::from_yaml(
            "np: 2\ndedup_parallel: false\nshard_fill: 1.5\nreplan_after_shards: 0\n",
        )
        .unwrap();
        let new = Recipe::from_yaml("np: 2\n").unwrap();
        assert_eq!(old, new);
        assert_eq!(old.fingerprint(), new.fingerprint());
        assert!(!old.to_yaml().contains("shard_fill"));
    }

    #[test]
    fn io_knobs_roundtrip_and_validate() {
        let r = sample_recipe()
            .with_input_path("data/*.jsonl")
            .with_output_path("out/clean")
            .with_output_format("frames")
            .with_prefetch_depth(3);
        assert_eq!(r.input_path.as_deref(), Some("data/*.jsonl"));
        assert_eq!(r.output_path.as_deref(), Some("out/clean"));
        assert_eq!(r.output_format.as_deref(), Some("frames"));
        assert_eq!(r.prefetch_depth, Some(3));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_ne!(
            r.fingerprint(),
            sample_recipe().fingerprint(),
            "io knobs participate in the cache key"
        );
        let y = Recipe::from_yaml(
            "input_path: corpus/*.csv\noutput_path: out\noutput_format: jsonl\nprefetch_depth: 1\n",
        )
        .unwrap();
        assert_eq!(y.input_path.as_deref(), Some("corpus/*.csv"));
        assert_eq!(y.output_format.as_deref(), Some("jsonl"));
        assert_eq!(y.prefetch_depth, Some(1));
        assert!(Recipe::from_yaml("output_format: parquet\n").is_err());
        assert!(Recipe::from_yaml("prefetch_depth: 0\n").is_err());
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert_eq!(defaults.input_path, None);
        assert_eq!(defaults.output_path, None);
        assert_eq!(defaults.output_format, None);
        assert_eq!(defaults.prefetch_depth, None);
    }

    #[test]
    fn adaptive_knobs_roundtrip_and_validate() {
        let r = sample_recipe()
            .with_adaptive(true)
            .with_stats_dir("stats")
            .with_prefix_cache(true);
        assert!(r.adaptive);
        assert_eq!(r.stats_dir.as_deref(), Some("stats"));
        assert!(r.prefix_cache);
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_ne!(
            r.fingerprint(),
            sample_recipe().fingerprint(),
            "adaptive knobs participate in the cache key"
        );
        let y = Recipe::from_yaml("adaptive: true\nstats_dir: s\nprefix_cache: true\n").unwrap();
        assert!(y.adaptive);
        assert_eq!(y.stats_dir.as_deref(), Some("s"));
        assert!(y.prefix_cache);
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert!(!defaults.adaptive, "adaptive planning is opt-in");
        assert_eq!(defaults.stats_dir, None);
        assert!(!defaults.prefix_cache);
    }

    #[test]
    fn columnar_knob_roundtrips_and_validates() {
        let r = sample_recipe().with_columnar(true);
        assert!(r.columnar);
        assert!(r.to_yaml().contains("columnar"));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_ne!(
            r.fingerprint(),
            sample_recipe().fingerprint(),
            "columnar participates in the cache key"
        );
        let y = Recipe::from_yaml("columnar: true\n").unwrap();
        assert!(y.columnar);
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert!(!defaults.columnar, "columnar frames are opt-in");
        assert!(
            !defaults.to_yaml().contains("columnar"),
            "default stays out of the canonical serialization so row-format \
             recipe fingerprints are unchanged"
        );
    }

    #[test]
    fn shard_size_roundtrips_and_validates() {
        let r = sample_recipe().with_shard_size(256);
        assert_eq!(r.shard_size, Some(256));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_ne!(
            r.fingerprint(),
            sample_recipe().fingerprint(),
            "shard_size participates in the cache key"
        );
        let y = Recipe::from_yaml("shard_size: 128\n").unwrap();
        assert_eq!(y.shard_size, Some(128));
        assert!(Recipe::from_yaml("shard_size: 0\n").is_err());
    }
}
