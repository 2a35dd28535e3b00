//! Operator (OP) abstractions — the standardized pool interface of §3.
//!
//! Mirrors the base classes of the paper's Listing 1:
//!
//! * [`Formatter`]  — `load_dataset(...) -> Dataset`
//! * [`Mapper`]     — `process(sample) -> sample` (in-place text editing)
//! * [`Filter`]     — `compute_stats(sample)` then `process(sample) -> bool`
//! * [`Deduplicator`] — `compute_hash(sample)` then dataset-level `process`
//!   (as `u64` words: `fingerprint` then `cluster`)
//!
//! The Filter split is the stats/decision decoupling the paper highlights:
//! statistics land in the sample's `stats` column, where the decision — and
//! anyone reading the output — finds them. A filter measures its own stat
//! every time; a stat is never reused because its name is already there.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::context::{ContextNeeds, SampleContext};
use crate::dataset::Dataset;
use crate::error::{DjError, Result};
use crate::fingerprints::{words_to_value, Fingerprints};
use crate::sample::Sample;
use crate::value::Value;

/// Relative execution cost of an OP, used by the reordering optimizer:
/// cheaper filters run first so expensive ones see fewer samples (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpCost {
    Cheap,
    Moderate,
    Expensive,
}

impl OpCost {
    /// Replanner fallback estimate of per-sample cost (ns) for a step that
    /// saw no sample in the shards a stage measured, so measured and
    /// unmeasured steps rank on one scale. Order-of-magnitude placeholders, decades apart so a real
    /// measurement of a neighboring tier cannot leapfrog a tier boundary by
    /// noise alone.
    pub fn fallback_ns_per_sample(self) -> f64 {
        match self {
            OpCost::Cheap => 500.0,
            OpCost::Moderate => 5_000.0,
            OpCost::Expensive => 50_000.0,
        }
    }
}

/// The set of sample fields an OP touches — its *field footprint*.
///
/// Footprints drive the columnar projection pushdown: when every step of a
/// pipeline stage declares a bounded footprint, the out-of-core executor
/// decodes only the named top-level columns of each `DJSC` shard frame and
/// splices every other column through byte-for-byte. `All` (the
/// conservative default on every trait) keeps undeclared OPs correct: the
/// stage decodes whole samples exactly as before.
///
/// Fields are dotted paths (`"text"`, `"meta.lang"`); projection resolves
/// each path to its top-level column (`"meta.lang"` → `"meta"`), since
/// columns are the unit of storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldSet {
    /// The OP may read or write any field — decode everything.
    All,
    /// The OP touches only these dotted field paths.
    Fields(Vec<String>),
}

impl FieldSet {
    /// The empty footprint (touches nothing).
    pub fn none() -> FieldSet {
        FieldSet::Fields(Vec::new())
    }

    /// A footprint of the given dotted field paths.
    pub fn of<I, S>(fields: I) -> FieldSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FieldSet::Fields(fields.into_iter().map(Into::into).collect())
    }

    pub fn is_all(&self) -> bool {
        matches!(self, FieldSet::All)
    }

    /// Union of two footprints. `All` absorbs everything.
    pub fn union(self, other: FieldSet) -> FieldSet {
        match (self, other) {
            (FieldSet::All, _) | (_, FieldSet::All) => FieldSet::All,
            (FieldSet::Fields(mut a), FieldSet::Fields(b)) => {
                for f in b {
                    if !a.contains(&f) {
                        a.push(f);
                    }
                }
                FieldSet::Fields(a)
            }
        }
    }

    /// The top-level columns this footprint projects to (`"meta.lang"` →
    /// `"meta"`), or `None` for `All` (every column is needed).
    pub fn top_level_columns(&self) -> Option<std::collections::BTreeSet<String>> {
        match self {
            FieldSet::All => None,
            FieldSet::Fields(fields) => Some(
                fields
                    .iter()
                    .map(|f| f.split('.').next().unwrap_or(f).to_string())
                    .collect(),
            ),
        }
    }

    /// The single dotted field path, when the footprint names exactly one.
    pub fn single_field(&self) -> Option<&str> {
        match self {
            FieldSet::Fields(fields) if fields.len() == 1 => Some(&fields[0]),
            _ => None,
        }
    }
}

/// Formatter: unify a raw input into the intermediate representation.
pub trait Formatter: Send + Sync {
    fn name(&self) -> &'static str;

    /// Parse raw input bytes/text into a dataset.
    fn load_dataset(&self, raw: &str) -> Result<Dataset>;
}

/// Mapper: in-place text editing at single-sample granularity.
pub trait Mapper: Send + Sync {
    fn name(&self) -> &'static str;

    /// Transform the sample in place. Must call `ctx.invalidate()` semantics
    /// are handled by the executor: it invalidates the context whenever the
    /// mapper reports it changed the text (returns `true`).
    fn process(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<bool>;

    /// Derived views this mapper consumes (fusion grouping).
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::NONE
    }

    fn cost(&self) -> OpCost {
        OpCost::Cheap
    }

    /// Dotted field paths this mapper reads. Defaults to [`FieldSet::All`]
    /// so undeclared mappers stay on the decode-everything path.
    fn fields_read(&self) -> FieldSet {
        FieldSet::All
    }

    /// Dotted field paths this mapper writes. Defaults to [`FieldSet::All`].
    fn fields_written(&self) -> FieldSet {
        FieldSet::All
    }
}

/// Filter: conditional removal driven by recorded per-sample statistics.
pub trait Filter: Send + Sync {
    fn name(&self) -> &'static str;

    /// Measure this filter's statistic(s) and record them into
    /// `sample.stats`, replacing whatever is recorded under the same name
    /// (an input line, an analyzer pass, another filter on another field or
    /// with other params). The engine calls it right before
    /// [`process`](Filter::process), one filter at a time — in a fused
    /// step too — so the decision reads this filter's own measurement.
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()>;

    /// Keep-decision from recorded stats only (no recomputation).
    fn process(&self, sample: &Sample) -> Result<bool>;

    /// The primary stats key this filter writes (analyzer dimension name).
    fn stats_key(&self) -> &'static str;

    /// Derived views consumed by `compute_stats` (fusion grouping).
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::NONE
    }

    fn cost(&self) -> OpCost {
        OpCost::Cheap
    }

    /// Whether this filter may be reordered relative to *other commutable
    /// filters* in the same mapper/dedup-free window. Filters measure and
    /// decide per sample from their own stats, so their keep decisions
    /// commute by default; a filter whose decision depends on stats written
    /// by an *earlier* filter (or on side effects) must opt out, and then
    /// ends its filter group where the recipe put it. Two filters that
    /// write the same key still commute in their decisions, but which
    /// one's value a kept sample carries follows the order run.
    fn commutable(&self) -> bool {
        true
    }

    /// Dotted field paths `compute_stats`/`process` read. Defaults to
    /// [`FieldSet::All`] so undeclared filters stay correct.
    fn fields_read(&self) -> FieldSet {
        FieldSet::All
    }

    /// Dotted field paths this filter writes (normally just its stats).
    /// Defaults to [`FieldSet::All`].
    fn fields_written(&self) -> FieldSet {
        FieldSet::All
    }
}

/// Deduplicator: whole-dataset duplicate removal in two decoupled phases.
///
/// A fingerprint is a run of `u64` words ([`Fingerprints`]). An
/// implementation writes two methods — [`fingerprint`](Deduplicator::fingerprint)
/// appends one sample's words, [`cluster`](Deduplicator::cluster) turns
/// everyone's words into the keep mask — and the executor and the analyzer
/// move nothing else. Listing 1's
/// `compute_hash` / `keep_mask` are provided on top of the two for callers
/// that want one [`Value`] per sample.
pub trait Deduplicator: Send + Sync {
    fn name(&self) -> &'static str;

    /// Append this sample's fingerprint words to `out` — the
    /// parallelizable phase. `out` already holds the words of earlier
    /// samples: append only. The number of words may vary from sample to
    /// sample (zero included).
    fn fingerprint(
        &self,
        sample: &Sample,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()>;

    /// Dataset-level keep mask from all fingerprints, computed with up to
    /// `num_workers` threads: `mask[i]` is `true` when sample `i` survives.
    /// Must be deterministic (the first occurrence of a duplicate cluster
    /// is kept) and identical for every worker count — the executor treats
    /// the count as a pure performance knob, and an implementation is free
    /// to ignore it.
    ///
    /// Decisions are made from fingerprints alone — never from sample data —
    /// which is what allows the out-of-core executor to spill shards to
    /// disk between the hashing pass and the mask application pass. The
    /// words may have been read back from disk: a fingerprint of a shape
    /// this deduplicator never writes is an error, not a panic.
    fn cluster(&self, fingerprints: &Fingerprints, num_workers: usize) -> Result<Vec<bool>>;

    /// The single dotted text field this deduplicator fingerprints, when
    /// its hash is a pure function of that field's text. Returning
    /// `Some(field)` is a contract: for every sample,
    /// `fingerprint(sample, ctx, out)` must append what
    /// [`fingerprint_text`](Deduplicator::fingerprint_text)`(sample.text_at(field), ctx, out)`
    /// appends.
    ///
    /// The executor uses this for zero-copy hash passes: it borrows the
    /// field's text straight out of an undecoded frame instead of
    /// decoding whole samples. `None` (the default) keeps custom
    /// deduplicators on the decode-everything path.
    fn hash_field(&self) -> Option<&str> {
        None
    }

    /// Fingerprint raw text (the [`hash_field`](Deduplicator::hash_field)
    /// fast path). Only called when `hash_field` returns `Some`; the
    /// default errors so the two methods cannot fall out of sync silently.
    fn fingerprint_text(
        &self,
        text: &str,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let _ = (text, ctx, out);
        Err(DjError::op(
            self.name(),
            "hash_field() is Some but fingerprint_text is not implemented",
        ))
    }

    /// Listing 1's `compute_hash`: this sample's fingerprint as one
    /// [`Value`], a list of ints (each word as an `i64`) — an adapter over
    /// [`fingerprint`](Deduplicator::fingerprint) for callers outside the
    /// engine.
    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        let mut words = Vec::new();
        self.fingerprint(sample, ctx, &mut words)?;
        Ok(words_to_value(&words))
    }

    /// Listing 1's dataset-level `process`: the keep mask from one
    /// fingerprint [`Value`] per sample, sequentially. `samples` is the
    /// number of samples the fingerprints were computed from; the pair
    /// lets the call sanity-check the contract.
    fn keep_mask(&self, samples: usize, hashes: &[Value]) -> Result<Vec<bool>> {
        self.keep_mask_parallel(samples, hashes, 1)
    }

    /// [`keep_mask`](Deduplicator::keep_mask) with up to `num_workers`
    /// threads — an adapter that unwraps the values (an int, or a list of
    /// ints, per sample) and calls [`cluster`](Deduplicator::cluster).
    fn keep_mask_parallel(
        &self,
        samples: usize,
        hashes: &[Value],
        num_workers: usize,
    ) -> Result<Vec<bool>> {
        if samples != hashes.len() {
            return Err(DjError::op(
                self.name(),
                format!("{} hashes for {samples} samples", hashes.len()),
            ));
        }
        self.cluster(
            &Fingerprints::from_values(self.name(), hashes)?,
            num_workers,
        )
    }

    /// Dotted field paths `fingerprint` reads — the same footprint API the
    /// other OP kinds use. The default derives it from
    /// [`hash_field`](Deduplicator::hash_field): a single-field fingerprint
    /// footprint when that contract holds, `All` otherwise. The executor's
    /// projection and zero-copy hash passes consult *this* method, so a
    /// custom deduplicator only needs to declare its footprint in one place.
    fn fields_read(&self) -> FieldSet {
        match self.hash_field() {
            Some(field) => FieldSet::of([field]),
            None => FieldSet::All,
        }
    }
}

/// A type-erased operator, the unit the executor schedules.
#[derive(Clone)]
pub enum Op {
    Mapper(Arc<dyn Mapper>),
    Filter(Arc<dyn Filter>),
    Deduplicator(Arc<dyn Deduplicator>),
}

impl Op {
    pub fn name(&self) -> &'static str {
        match self {
            Op::Mapper(m) => m.name(),
            Op::Filter(f) => f.name(),
            Op::Deduplicator(d) => d.name(),
        }
    }

    pub fn kind(&self) -> OpKind {
        match self {
            Op::Mapper(_) => OpKind::Mapper,
            Op::Filter(_) => OpKind::Filter,
            Op::Deduplicator(_) => OpKind::Deduplicator,
        }
    }

    pub fn context_needs(&self) -> ContextNeeds {
        match self {
            Op::Mapper(m) => m.context_needs(),
            Op::Filter(f) => f.context_needs(),
            Op::Deduplicator(_) => ContextNeeds::NONE,
        }
    }

    pub fn cost(&self) -> OpCost {
        match self {
            Op::Mapper(m) => m.cost(),
            Op::Filter(f) => f.cost(),
            Op::Deduplicator(_) => OpCost::Expensive,
        }
    }

    /// Whether the planner may move this OP past other commutable OPs in
    /// the same filter window. Mappers rewrite text and deduplicators need
    /// the whole dataset, so both pin their position; filters delegate to
    /// [`Filter::commutable`].
    pub fn commutable(&self) -> bool {
        match self {
            Op::Mapper(_) | Op::Deduplicator(_) => false,
            Op::Filter(f) => f.commutable(),
        }
    }

    /// Dotted field paths this OP reads (projection pushdown input).
    pub fn fields_read(&self) -> FieldSet {
        match self {
            Op::Mapper(m) => m.fields_read(),
            Op::Filter(f) => f.fields_read(),
            Op::Deduplicator(d) => d.fields_read(),
        }
    }

    /// Dotted field paths this OP writes. Deduplicators only drop whole
    /// samples, so their write footprint is empty.
    pub fn fields_written(&self) -> FieldSet {
        match self {
            Op::Mapper(m) => m.fields_written(),
            Op::Filter(f) => f.fields_written(),
            Op::Deduplicator(_) => FieldSet::none(),
        }
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Op::{:?}({})", self.kind(), self.name())
    }
}

/// The four primary OP categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Formatter,
    Mapper,
    Filter,
    Deduplicator,
}

/// Parameters handed to an OP factory: a map parsed from the recipe config.
pub type OpParams = BTreeMap<String, Value>;

/// Factory signature: build an [`Op`] from recipe parameters, read through
/// the [`params`] helpers.
pub type OpFactory = fn(&ParamView<'_>) -> Result<Op>;

/// What an OP factory reads its parameters through: the params a recipe
/// gave, then the defaults its caller offers under keys the params do not
/// set. It records every given key a factory reads, so
/// [`OpRegistry::build`] can refuse one no factory read — a misspelt
/// parameter — rather than run the op with its default.
pub struct ParamView<'a> {
    params: &'a OpParams,
    defaults: &'a OpParams,
    read: RefCell<Vec<&'a str>>,
}

impl<'a> ParamView<'a> {
    pub fn new(params: &'a OpParams, defaults: &'a OpParams) -> ParamView<'a> {
        ParamView {
            params,
            defaults,
            read: RefCell::new(Vec::new()),
        }
    }

    /// The value under `key`, recording the read.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        match self.params.get_key_value(key) {
            Some((k, v)) => {
                self.read.borrow_mut().push(k);
                Some(v)
            }
            None => self.defaults.get(key),
        }
    }

    /// The first given key nothing has read.
    fn unread(&self) -> Option<&'a str> {
        let read = self.read.borrow();
        self.params
            .keys()
            .map(String::as_str)
            .find(|k| !read.contains(k))
    }
}

/// Registry mapping OP names to factories (advanced-extension entry point,
/// paper §5.3: users "register their new OPs" by name).
#[derive(Default)]
pub struct OpRegistry {
    factories: BTreeMap<String, OpFactory>,
    /// Stat key → the filter op registered as recording it.
    measured_by: BTreeMap<String, String>,
}

impl OpRegistry {
    pub fn new() -> OpRegistry {
        OpRegistry::default()
    }

    /// Register a factory under `name`; replaces any previous registration.
    pub fn register(&mut self, name: &str, factory: OpFactory) {
        self.measured_by.retain(|_, op| op != name);
        self.factories.insert(name.to_string(), factory);
    }

    /// [`register`](OpRegistry::register) a filter whose filters record the
    /// stat `stats_key` ([`Filter::stats_key`]), so that
    /// [`filter_measuring`](OpRegistry::filter_measuring) finds it without
    /// building any op.
    pub fn register_filter(&mut self, name: &str, stats_key: &str, factory: OpFactory) {
        self.register(name, factory);
        self.measured_by
            .insert(stats_key.to_string(), name.to_string());
    }

    /// The filter registered as recording the stat `stats_key`.
    pub fn filter_measuring(&self, stats_key: &str) -> Option<&str> {
        self.measured_by.get(stats_key).map(String::as_str)
    }

    /// Instantiate an OP by name with the given parameters. A parameter
    /// the OP's factory does not read is a config error naming both.
    pub fn build(&self, name: &str, params: &OpParams) -> Result<Op> {
        self.build_with_defaults(name, params, &OpParams::new())
    }

    /// [`build`](OpRegistry::build), with `defaults` offered under the keys
    /// `params` does not set (a recipe's `text_key` is the `field` of every
    /// op that names none). A default the factory does not read is no error.
    pub fn build_with_defaults(
        &self,
        name: &str,
        params: &OpParams,
        defaults: &OpParams,
    ) -> Result<Op> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| DjError::Config(format!("unknown operator `{name}`")))?;
        let view = ParamView::new(params, defaults);
        let op = factory(&view)?;
        match view.unread() {
            Some(key) => Err(DjError::Config(format!(
                "operator `{name}` has no parameter `{key}`"
            ))),
            None => Ok(op),
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered OP names in deterministic order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    pub fn len(&self) -> usize {
        self.factories.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

/// Helpers for reading typed parameters out of a [`ParamView`] with
/// defaults.
pub mod params {
    use super::*;

    pub fn f64_or(p: &ParamView<'_>, key: &str, default: f64) -> Result<f64> {
        match p.get(key) {
            None => Ok(default),
            Some(v) => v.as_float().ok_or_else(|| {
                DjError::Config(format!(
                    "parameter `{key}` must be numeric, got {}",
                    v.kind()
                ))
            }),
        }
    }

    pub fn usize_or(p: &ParamView<'_>, key: &str, default: usize) -> Result<usize> {
        match p.get(key) {
            None => Ok(default),
            Some(v) => match v.as_int() {
                Some(i) if i >= 0 => Ok(i as usize),
                _ => Err(DjError::Config(format!(
                    "parameter `{key}` must be a non-negative int, got {}",
                    v.kind()
                ))),
            },
        }
    }

    pub fn bool_or(p: &ParamView<'_>, key: &str, default: bool) -> Result<bool> {
        match p.get(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| {
                DjError::Config(format!(
                    "parameter `{key}` must be a bool, got {}",
                    v.kind()
                ))
            }),
        }
    }

    pub fn str_or<'a>(p: &ParamView<'a>, key: &str, default: &'a str) -> Result<&'a str> {
        match p.get(key) {
            None => Ok(default),
            Some(v) => v.as_str().ok_or_else(|| {
                DjError::Config(format!(
                    "parameter `{key}` must be a string, got {}",
                    v.kind()
                ))
            }),
        }
    }

    pub fn str_list(p: &ParamView<'_>, key: &str) -> Result<Vec<String>> {
        match p.get(key) {
            None => Ok(Vec::new()),
            Some(Value::List(l)) => l
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| DjError::Config(format!("`{key}` entries must be strings")))
                })
                .collect(),
            Some(v) => Err(DjError::Config(format!(
                "parameter `{key}` must be a list, got {}",
                v.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Upper;
    impl Mapper for Upper {
        fn name(&self) -> &'static str {
            "upper_mapper"
        }
        fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
            let t = sample.text().to_uppercase();
            let changed = t != sample.text();
            sample.set_text(t);
            Ok(changed)
        }
    }

    struct MinLen(usize);
    impl Filter for MinLen {
        fn name(&self) -> &'static str {
            "min_len_filter"
        }
        fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
            sample.set_stat("text_len", sample.text().chars().count() as f64);
            Ok(())
        }
        fn process(&self, sample: &Sample) -> Result<bool> {
            Ok(sample.stat("text_len").unwrap_or(0.0) >= self.0 as f64)
        }
        fn stats_key(&self) -> &'static str {
            "text_len"
        }
    }

    fn upper_factory(_: &ParamView<'_>) -> Result<Op> {
        Ok(Op::Mapper(Arc::new(Upper)))
    }

    #[test]
    fn cost_rank_ordering_is_pinned() {
        // The static reorderer sorts by the enum's `Ord`.
        assert!(OpCost::Cheap < OpCost::Moderate && OpCost::Moderate < OpCost::Expensive);
        // Fallback ns estimates are monotone in rank.
        assert!(OpCost::Cheap.fallback_ns_per_sample() < OpCost::Moderate.fallback_ns_per_sample());
        assert!(
            OpCost::Moderate.fallback_ns_per_sample() < OpCost::Expensive.fallback_ns_per_sample()
        );
    }

    #[test]
    fn field_set_union_projection_and_defaults() {
        // Defaults keep every OP on the conservative decode-everything path.
        assert!(Op::Mapper(Arc::new(Upper)).fields_read().is_all());
        assert!(Op::Filter(Arc::new(MinLen(1))).fields_written().is_all());

        // All absorbs unions in either direction.
        assert!(FieldSet::All.union(FieldSet::of(["text"])).is_all());
        assert!(FieldSet::of(["text"]).union(FieldSet::All).is_all());

        // Unions deduplicate, and dotted paths project to top-level columns.
        let u = FieldSet::of(["text", "meta.lang"]).union(FieldSet::of(["meta.url", "text"]));
        let cols = u.top_level_columns().unwrap();
        assert_eq!(
            cols.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["meta", "text"]
        );

        // single_field only fires on exactly one path.
        assert_eq!(FieldSet::of(["text"]).single_field(), Some("text"));
        assert_eq!(FieldSet::of(["a", "b"]).single_field(), None);
        assert_eq!(FieldSet::All.single_field(), None);
        assert_eq!(FieldSet::none().single_field(), None);
        assert!(FieldSet::none().top_level_columns().unwrap().is_empty());

        // A hash_field-declaring deduplicator derives its read footprint.
        struct HashText;
        impl Deduplicator for HashText {
            fn name(&self) -> &'static str {
                "hash_text"
            }
            fn fingerprint(
                &self,
                s: &Sample,
                _ctx: &mut SampleContext,
                out: &mut Vec<u64>,
            ) -> Result<()> {
                out.push(s.text().len() as u64);
                Ok(())
            }
            fn cluster(&self, fingerprints: &Fingerprints, _workers: usize) -> Result<Vec<bool>> {
                Ok(vec![true; fingerprints.len()])
            }
            fn hash_field(&self) -> Option<&str> {
                Some("text")
            }
        }
        assert_eq!(HashText.fields_read().single_field(), Some("text"));
        assert!(Op::Deduplicator(Arc::new(HashText)).fields_written() == FieldSet::none());
    }

    #[test]
    fn commutability_defaults() {
        assert!(!Op::Mapper(Arc::new(Upper)).commutable());
        assert!(Op::Filter(Arc::new(MinLen(1))).commutable());
    }

    #[test]
    fn mapper_reports_change() {
        let mut s = Sample::from_text("abc");
        let mut ctx = SampleContext::new();
        assert!(Upper.process(&mut s, &mut ctx).unwrap());
        assert_eq!(s.text(), "ABC");
        assert!(!Upper.process(&mut s, &mut ctx).unwrap());
    }

    #[test]
    fn filter_decouples_stats_from_decision() {
        let f = MinLen(4);
        let mut s = Sample::from_text("abcde");
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert_eq!(s.stat("text_len"), Some(5.0));
        assert!(f.process(&s).unwrap());
        // Decision uses the recorded stat, not the text: clearing the text
        // does not flip the decision.
        s.set_text("");
        assert!(f.process(&s).unwrap());
    }

    #[test]
    fn filter_measures_over_a_recorded_stat() {
        let f = MinLen(4);
        let mut s = Sample::from_text("abcde");
        s.set_stat("text_len", 1.0); // e.g. an input line carried it
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert_eq!(s.stat("text_len"), Some(5.0));
        assert!(f.process(&s).unwrap());
    }

    #[test]
    fn registry_builds_and_rejects_unknown() {
        let mut reg = OpRegistry::new();
        reg.register("upper_mapper", upper_factory);
        assert!(reg.contains("upper_mapper"));
        assert_eq!(reg.len(), 1);
        let op = reg.build("upper_mapper", &OpParams::new()).unwrap();
        assert_eq!(op.name(), "upper_mapper");
        assert_eq!(op.kind(), OpKind::Mapper);
        let err = reg.build("nope", &OpParams::new()).unwrap_err();
        assert!(err.to_string().contains("unknown operator"));
    }

    #[test]
    fn params_helpers_defaults_and_type_errors() {
        let mut p = OpParams::new();
        p.insert("ratio".into(), Value::Float(0.5));
        p.insert("count".into(), Value::Int(7));
        p.insert("flag".into(), Value::Bool(true));
        p.insert("lang".into(), Value::from("en"));
        p.insert("words".into(), Value::from(vec!["a", "b"]));
        let none = OpParams::new();
        let v = ParamView::new(&p, &none);

        assert_eq!(params::f64_or(&v, "ratio", 0.0).unwrap(), 0.5);
        assert_eq!(params::f64_or(&v, "count", 0.0).unwrap(), 7.0);
        assert_eq!(params::f64_or(&v, "missing", 9.0).unwrap(), 9.0);
        assert_eq!(params::usize_or(&v, "count", 0).unwrap(), 7);
        assert!(params::bool_or(&v, "flag", false).unwrap());
        assert_eq!(params::str_or(&v, "lang", "zh").unwrap(), "en");
        assert_eq!(params::str_list(&v, "words").unwrap(), vec!["a", "b"]);
        assert!(params::usize_or(&v, "ratio", 0).is_err());
        assert!(params::bool_or(&v, "lang", false).is_err());
    }

    fn ratio_factory(p: &ParamView<'_>) -> Result<Op> {
        params::f64_or(p, "ratio", 0.5)?;
        params::str_or(p, "field", "text")?;
        upper_factory(p)
    }

    #[test]
    fn a_parameter_the_factory_does_not_read_is_refused() {
        let mut reg = OpRegistry::new();
        reg.register("ratio_mapper", ratio_factory);
        reg.register("upper_mapper", upper_factory);
        let mut p = OpParams::new();
        p.insert("ratio".into(), Value::Float(0.1));
        assert!(reg.build("ratio_mapper", &p).is_ok());
        p.insert("ratoi".into(), Value::Float(0.2));
        let err = reg.build("ratio_mapper", &p).unwrap_err();
        assert!(matches!(err, DjError::Config(_)), "{err}");
        assert!(err.to_string().contains("`ratio_mapper`"), "{err}");
        assert!(err.to_string().contains("`ratoi`"), "{err}");
        // A default is offered, not given: an op that does not read it
        // builds, and a given key still wins over it.
        let field = OpParams::from([("field".to_string(), Value::from("body"))]);
        let mut given = OpParams::new();
        given.insert("field".into(), Value::from("title"));
        assert!(reg
            .build_with_defaults("upper_mapper", &OpParams::new(), &field)
            .is_ok());
        assert!(reg
            .build_with_defaults("upper_mapper", &given, &field)
            .is_err());
        let v = ParamView::new(&given, &field);
        assert_eq!(params::str_or(&v, "field", "text").unwrap(), "title");
        let empty = OpParams::new();
        let v = ParamView::new(&empty, &field);
        assert_eq!(params::str_or(&v, "field", "text").unwrap(), "body");
    }
}
