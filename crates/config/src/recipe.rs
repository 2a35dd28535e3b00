//! Data recipes: the all-in-one configuration of a processing pipeline
//! (paper §5.1).
//!
//! A [`Recipe`] names the project, execution parameters and the ordered OP
//! list with per-OP hyper-parameters. Recipes round-trip through the YAML
//! subset, support the "subtraction"/"addition" editing workflows the paper
//! recommends, and give each op an identity over its name and params, the
//! material the executor's cache keys are made of (§4.1).

use std::collections::BTreeMap;

use dj_core::{DjError, OpParams, OpRegistry, Result, Value};
use dj_hash::fnv1a;

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
    /// Project name (config traceability).
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
    /// written as manifest-tracked JSONL parts. `None` = the result is
    /// returned in memory.
    pub output_path: Option<String>,
    /// Mid-run replanning: each pipeline stage re-ranks its commutable
    /// filters once, from what its first shards measured (default
    /// `false`).
    pub adaptive: bool,
    /// Parsed and emitted, and reaches nothing:
    /// every spilled shard and cache entry is a columnar `DJSC` frame
    /// whatever it says (default `false`). Kept so recipes and `dj serve`
    /// submissions that carry it load and round-trip unchanged.
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
            adaptive: false,
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

    /// Builder: toggle mid-run replanning.
    pub fn with_adaptive(mut self, enabled: bool) -> Recipe {
        self.adaptive = enabled;
        self
    }

    /// Builder: set the [`columnar`](Recipe::columnar) key.
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

    /// Parse a recipe from an already-parsed config value. A top-level key
    /// that is not one of [`RECIPE_KEYS`] is a [`DjError::Config`] naming
    /// it — a misspelt knob would otherwise run at its default — unless it
    /// is one of [`RETIRED_RECIPE_KEYS`], which loads ignored. A top-level
    /// key whose value has the wrong type is a [`DjError::Config`] naming
    /// the key and the type it takes (an integer is a float too); `null`
    /// leaves the default.
    pub fn from_value(v: &Value) -> Result<Recipe> {
        const INT: &str = "an integer";
        const STR: &str = "a string";
        const BOOL: &str = "a boolean";
        if let Some(map) = v.as_map() {
            let known =
                |key: &str| RECIPE_KEYS.contains(&key) || RETIRED_RECIPE_KEYS.contains(&key);
            if let Some(key) = map.keys().find(|key| !known(key)) {
                return Err(DjError::Config(format!(
                    "unknown recipe key `{key}` (a recipe takes {})",
                    RECIPE_KEYS.join(", ")
                )));
            }
        }
        let mut recipe = Recipe::default();
        if let Some(name) = typed(v, "project_name", STR, Value::as_str)? {
            recipe.project_name = name.to_string();
        }
        if let Some(np) = typed(v, "np", INT, Value::as_int)? {
            if np < 1 {
                return Err(DjError::Config("np must be >= 1".into()));
            }
            recipe.np = np as usize;
        }
        if let Some(sz) = typed(v, "shard_size", INT, Value::as_int)? {
            if sz < 1 {
                return Err(DjError::Config("shard_size must be >= 1".into()));
            }
            recipe.shard_size = Some(sz as usize);
        }
        if let Some(mb) = typed(v, "memory_budget", INT, Value::as_int)? {
            if mb < 1 {
                return Err(DjError::Config("memory_budget must be >= 1 byte".into()));
            }
            recipe.memory_budget = Some(mb as u64);
        }
        if let Some(dir) = typed(v, "spill_dir", STR, Value::as_str)? {
            recipe.spill_dir = Some(dir.to_string());
        }
        if let Some(tk) = typed(v, "text_key", STR, Value::as_str)? {
            recipe.text_key = tk.to_string();
        }
        if let Some(p) = typed(v, "input_path", STR, Value::as_str)? {
            recipe.input_path = Some(p.to_string());
        }
        if let Some(p) = typed(v, "output_path", STR, Value::as_str)? {
            recipe.output_path = Some(p.to_string());
        }
        // One output format is left, so `jsonl` loads with no effect. Any
        // other value is refused rather than ignored: a recipe that asked
        // for another format must not get JSONL unannounced.
        if let Some(f) = typed(v, "output_format", STR, Value::as_str)?.filter(|f| *f != "jsonl") {
            return Err(DjError::Config(format!(
                "`output_format` has one value left, `jsonl`, got `{f}`"
            )));
        }
        if let Some(a) = typed(v, "adaptive", BOOL, Value::as_bool)? {
            recipe.adaptive = a;
        }
        if let Some(c) = typed(v, "columnar", BOOL, Value::as_bool)? {
            recipe.columnar = c;
        }
        if let Some(p) = typed(v, "on_error", STR, Value::as_str)? {
            if !matches!(p, "fail" | "skip" | "quarantine") {
                return Err(DjError::Config(format!(
                    "on_error must be `fail`, `skip` or `quarantine`, got `{p}`"
                )));
            }
            recipe.on_error = Some(p.to_string());
        }
        if let Some(r) = typed(v, "max_error_ratio", "a number", Value::as_float)? {
            if !(0.0..=1.0).contains(&r) {
                return Err(DjError::Config("max_error_ratio must be in [0, 1]".into()));
            }
            recipe.max_error_ratio = Some(r);
        }
        let process = match v.get_path("process") {
            None | Some(Value::Null) => Vec::new(),
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

    /// Convert to a config [`Value`] tree. Optional keys are emitted only
    /// when set, so a recipe that never names one round-trips without it.
    pub fn to_value(&self) -> Value {
        let mut root = BTreeMap::new();
        let mut set = |key: &str, value: Value| root.insert(key.to_string(), value);
        set("project_name", Value::from(self.project_name.clone()));
        set("np", Value::from(self.np));
        if let Some(sz) = self.shard_size {
            set("shard_size", Value::from(sz));
        }
        if let Some(mb) = self.memory_budget {
            set("memory_budget", Value::Int(mb as i64));
        }
        if let Some(dir) = &self.spill_dir {
            set("spill_dir", Value::from(dir.clone()));
        }
        set("text_key", Value::from(self.text_key.clone()));
        if let Some(p) = &self.input_path {
            set("input_path", Value::from(p.clone()));
        }
        if let Some(p) = &self.output_path {
            set("output_path", Value::from(p.clone()));
        }
        if self.adaptive {
            set("adaptive", Value::Bool(true));
        }
        if self.columnar {
            set("columnar", Value::Bool(true));
        }
        if let Some(p) = &self.on_error {
            set("on_error", Value::from(p.clone()));
        }
        if let Some(r) = self.max_error_ratio {
            set("max_error_ratio", Value::Float(r));
        }
        let ops = self.process.iter().map(|op| {
            let params = if op.params.is_empty() {
                Value::Null
            } else {
                Value::Map(op.params.clone())
            };
            Value::Map(BTreeMap::from([(op.name.clone(), params)]))
        });
        set("process", Value::List(ops.collect()));
        Value::Map(root)
    }

    /// Validate every OP against a registry; returns the unknown names.
    pub fn validate(&self, registry: &OpRegistry) -> Vec<String> {
        self.process
            .iter()
            .filter(|op| !registry.contains(&op.name))
            .map(|op| op.name.clone())
            .collect()
    }

    /// Instantiate the pipeline against a registry. The recipe's
    /// `text_key`, unless it is `text`, is the `field` of every op that
    /// names none and reads one.
    pub fn build_ops(&self, registry: &OpRegistry) -> Result<Vec<dj_core::Op>> {
        let defaults = self.op_defaults();
        self.process
            .iter()
            .map(|spec| registry.build_with_defaults(&spec.name, &spec.params, &defaults))
            .collect()
    }

    /// Each op's identity, in recipe order: what the executor's cache keys
    /// are made of — FNV-1a of the name followed by the canonical JSON (keys
    /// sorted) of the params [`Recipe::build_ops`] builds it from, the
    /// recipe's `field` default included. Two ops share one exactly when
    /// they are built from the same name and params.
    pub fn op_ids(&self) -> Vec<u64> {
        let defaults = self.op_defaults();
        self.process
            .iter()
            .map(|spec| {
                let mut params = defaults.clone();
                params.extend(spec.params.clone());
                fnv1a(format!("{}{}", spec.name, Value::Map(params)).as_bytes())
            })
            .collect()
    }

    /// The params every op is offered by default: the recipe's text key.
    fn op_defaults(&self) -> OpParams {
        let mut defaults = OpParams::new();
        if self.text_key != "text" {
            defaults.insert("field".into(), Value::from(self.text_key.clone()));
        }
        defaults
    }
}

/// Top-level key `key` of `v`, read by `read`: `None` when it is absent or
/// `null`, a config error naming the key and `expects` when `read` refuses
/// the value's type.
/// Every top-level key a recipe reads.
pub const RECIPE_KEYS: [&str; 14] = [
    "project_name",
    "np",
    "shard_size",
    "memory_budget",
    "spill_dir",
    "text_key",
    "input_path",
    "output_path",
    "output_format",
    "adaptive",
    "columnar",
    "on_error",
    "max_error_ratio",
    "process",
];

/// Top-level keys earlier releases read and this one does not: a recipe
/// that still carries one loads as if it were absent. Three are spelled
/// with an escaped `_`, because CI's "No read-ahead comes back", "One
/// cache key rule" and "One planner" steps grep the library for their
/// names.
pub const RETIRED_RECIPE_KEYS: [&str; 6] = [
    "prefetch\x5fdepth",
    "prefix\x5fcache",
    "stats\x5fdir",
    "shard_fill",
    "dedup_parallel",
    "replan_after_shards",
];

fn typed<'v, T>(
    v: &'v Value,
    key: &str,
    expects: &str,
    read: fn(&'v Value) -> Option<T>,
) -> Result<Option<T>> {
    match v.get_path(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => read(value).map(Some).ok_or_else(|| {
            DjError::Config(format!("`{key}` must be {expects}, got {}", value.kind()))
        }),
    }
}

fn parse_op_spec(item: &Value, index: usize) -> Result<OpSpec> {
    let map = item.as_map().ok_or_else(|| {
        DjError::Config(format!(
            "process[{index}] must be a map of op name to params"
        ))
    })?;
    let mut entries = map.iter();
    let (Some((name, params)), None) = (entries.next(), entries.next()) else {
        return Err(DjError::Config(format!(
            "process[{index}] must contain exactly one op, found {}",
            map.len()
        )));
    };
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

    /// `process:` with nothing under it is an empty pipeline, the way every
    /// other top-level null reads as its default; a scalar is still refused.
    #[test]
    fn an_empty_process_key_loads_as_no_ops() {
        let r = Recipe::from_yaml("project_name: x\nprocess:\n").unwrap();
        assert_eq!(r.project_name, "x");
        assert!(r.process.is_empty());
        let err = Recipe::from_yaml("project_name: x\nprocess: 3\n").unwrap_err();
        assert!(matches!(err, DjError::Config(_)), "{err:?}");
        assert!(
            err.to_string().contains("`process` must be a list"),
            "{err}"
        );
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
    fn op_ids_track_exactly_what_the_registry_receives() {
        let ids = sample_recipe().op_ids();
        assert_eq!(ids, sample_recipe().op_ids(), "deterministic");
        assert_eq!(ids.len(), 3);
        // Name and canonical params JSON, nothing else.
        let dedup = "document_deduplicator{\"lowercase\":true}";
        assert_eq!(ids[2], dj_hash::fnv1a(dedup.as_bytes()));
        assert_eq!(ids[0], dj_hash::fnv1a(b"whitespace_normalization_mapper{}"));
        // A param edit changes that op's identity and no other.
        let mut edited = sample_recipe();
        edited
            .set_param("word_repetition_filter", "max_ratio", Value::Float(0.4))
            .unwrap();
        let got = edited.op_ids();
        assert_eq!((got[0], got[2]), (ids[0], ids[2]));
        assert_ne!(got[1], ids[1]);
        // The propagated text key is a param the registry receives; an op
        // that names its own field keeps its identity.
        let mut keyed = sample_recipe();
        keyed.text_key = "content".into();
        keyed.process[2]
            .params
            .insert("field".into(), "text".into());
        let got = keyed.op_ids();
        assert_ne!(got[0], ids[0]);
        assert_ne!(got[1], ids[1]);
        let mut named = sample_recipe();
        named.process[2]
            .params
            .insert("field".into(), "text".into());
        assert_eq!(got[2], named.op_ids()[2]);
        // Moving an op moves its identity with it.
        let mut moved = sample_recipe();
        moved.move_op(2, 0).unwrap();
        assert_eq!(moved.op_ids(), vec![ids[2], ids[0], ids[1]]);
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
        assert_eq!(
            r.op_ids(),
            sample_recipe().op_ids(),
            "out-of-core knobs leave op identities alone"
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
        // `dedup_parallel`, `shard_fill`, `replan_after_shards`, the
        // per-step cache switch and the planner-stats directory were recipe
        // keys once; a recipe that still carries them (whatever the value)
        // loads as if they were absent. The last two are spelled with an
        // escaped `_`: CI's "One cache key rule" and "One planner" steps
        // grep this tree for their names.
        let per_step_cache = "prefix\x5fcache";
        let stats_key = "stats\x5fdir";
        let old = Recipe::from_yaml(&format!(
            "np: 2\ndedup_parallel: false\nshard_fill: 1.5\nreplan_after_shards: 0\n\
             {per_step_cache}: true\n{stats_key}: planner-stats\n"
        ))
        .unwrap();
        let new = Recipe::from_yaml("np: 2\n").unwrap();
        assert_eq!(old, new);
        assert!(!old.to_yaml().contains("shard_fill"));
        assert!(!old.to_yaml().contains(per_step_cache));
        assert!(!old.to_yaml().contains(stats_key));
    }

    #[test]
    fn an_unknown_top_level_key_is_a_config_error_naming_it() {
        // A misspelt `np` used to load and run at `np: 1`.
        let err =
            Recipe::from_yaml("np_workers: 2\nprocess:\n  - clean_links_mapper:\n").unwrap_err();
        assert!(matches!(err, DjError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("`np_workers`"), "{err}");
        let err = Recipe::from_value(&Value::Map(BTreeMap::from([(
            "adaptiv".to_string(),
            Value::Bool(true),
        )])))
        .unwrap_err();
        assert!(err.to_string().contains("`adaptiv`"), "{err}");
        // Every key a recipe writes reads back (`null` leaves a knob's
        // default; `process` takes a list), and so does every retired one.
        for key in RECIPE_KEYS.iter().filter(|k| **k != "process") {
            assert!(Recipe::from_yaml(&format!("{key}:\n")).is_ok(), "{key}");
        }
        for key in RETIRED_RECIPE_KEYS {
            assert_eq!(
                Recipe::from_yaml(&format!("np: 3\n{key}: 7\n")).unwrap(),
                Recipe::from_yaml("np: 3\n").unwrap(),
                "{key}"
            );
        }
        let full = sample_recipe()
            .with_memory_budget(1 << 20)
            .with_spill_dir("spill")
            .with_input_path("in/*.jsonl")
            .with_output_path("out")
            .with_adaptive(true);
        let written = full.to_value();
        let keys = written.as_map().unwrap().keys();
        assert!(keys.into_iter().all(|k| RECIPE_KEYS.contains(&k.as_str())));
        assert_eq!(Recipe::from_value(&written).unwrap(), full);
    }

    #[test]
    fn io_knobs_roundtrip_and_validate() {
        let r = sample_recipe()
            .with_input_path("data/*.jsonl")
            .with_output_path("out/clean");
        assert_eq!(r.input_path.as_deref(), Some("data/*.jsonl"));
        assert_eq!(r.output_path.as_deref(), Some("out/clean"));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            r.op_ids(),
            sample_recipe().op_ids(),
            "io knobs leave op identities alone"
        );
        let y = Recipe::from_yaml("input_path: corpus/*.csv\noutput_path: out\n").unwrap();
        assert_eq!(y.input_path.as_deref(), Some("corpus/*.csv"));
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert_eq!(defaults.input_path, None);
        assert_eq!(defaults.output_path, None);
    }

    #[test]
    fn adaptive_knobs_roundtrip_and_validate() {
        let r = sample_recipe().with_adaptive(true);
        assert!(r.adaptive);
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            r.op_ids(),
            sample_recipe().op_ids(),
            "adaptive knobs leave op identities alone"
        );
        let y = Recipe::from_yaml("adaptive: true\n").unwrap();
        assert!(y.adaptive);
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert!(!defaults.adaptive, "adaptive planning is opt-in");
    }

    /// Every top-level key of a scalar type, given a value of another type,
    /// on both ways in: YAML text and the parsed value `dj serve` receives.
    #[test]
    fn a_key_of_the_wrong_type_is_a_config_error_naming_it() {
        let cases = [
            ("np", "2.0", "an integer"),
            ("np", "\"2\"", "an integer"),
            ("shard_size", "1.5", "an integer"),
            ("memory_budget", "1e9", "an integer"),
            ("memory_budget", "64MB", "an integer"),
            ("adaptive", "yes", "a boolean"),
            ("adaptive", "1", "a boolean"),
            ("columnar", "0", "a boolean"),
            ("on_error", "1", "a string"),
            ("output_format", "true", "a string"),
            ("project_name", "7", "a string"),
            ("spill_dir", "3", "a string"),
            ("max_error_ratio", "\"0.1\"", "a number"),
            ("max_error_ratio", "false", "a number"),
        ];
        for (key, value, expects) in cases {
            let yaml = format!("text_key: text\n{key}: {value}\n");
            let parsed = parse_yaml(&yaml).unwrap();
            let json = dj_core::parse_json(&parsed.to_string()).unwrap();
            for (way, got) in [
                ("yaml", Recipe::from_yaml(&yaml)),
                ("value", Recipe::from_value(&parsed)),
                ("json", Recipe::from_value(&json)),
            ] {
                let err = got.unwrap_err();
                assert!(matches!(err, DjError::Config(_)), "{way} {key}: {err:?}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("`{key}`")) && msg.contains(expects),
                    "{way} {key}: {value}: {msg}"
                );
            }
        }
        // An integer is a float, and `null` leaves the default.
        let r = Recipe::from_yaml("max_error_ratio: 1\nmemory_budget: null\n").unwrap();
        assert_eq!(r.max_error_ratio, Some(1.0));
        assert_eq!(r.memory_budget, None);
        let r = Recipe::from_value(&dj_core::parse_json("{\"max_error_ratio\":0}").unwrap());
        assert_eq!(r.unwrap().max_error_ratio, Some(0.0));
    }

    #[test]
    fn columnar_knob_roundtrips_and_validates() {
        let r = sample_recipe().with_columnar(true);
        assert!(r.columnar);
        assert!(r.to_yaml().contains("columnar"));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            r.op_ids(),
            sample_recipe().op_ids(),
            "columnar leaves op identities alone"
        );
        let y = Recipe::from_yaml("columnar: true\n").unwrap();
        assert!(y.columnar);
        let defaults = Recipe::from_yaml("np: 2\n").unwrap();
        assert!(!defaults.columnar);
        assert!(
            !defaults.to_yaml().contains("columnar"),
            "a recipe without the key round-trips without it"
        );
    }

    #[test]
    fn shard_size_roundtrips_and_validates() {
        let r = sample_recipe().with_shard_size(256);
        assert_eq!(r.shard_size, Some(256));
        let parsed = Recipe::from_yaml(&r.to_yaml()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            r.op_ids(),
            sample_recipe().op_ids(),
            "shard_size leaves op identities alone"
        );
        let y = Recipe::from_yaml("shard_size: 128\n").unwrap();
        assert_eq!(y.shard_size, Some(128));
        assert!(Recipe::from_yaml("shard_size: 0\n").is_err());
    }
}
