//! OP fusion and reordering (paper §6, Fig. 6).
//!
//! The optimizer walks the OP list and:
//!
//! 1. **Finds filter groups** — maximal runs of consecutive Filters
//!    (Filters are commutative with each other; Mappers and Deduplicators
//!    break groups because they are not).
//! 2. **Fuses** the filters inside a group whose context needs intersect
//!    (they share derived views such as segmented words) into a single
//!    fused OP that computes each shared view once per sample.
//! 3. **Reorders** each group so cheap non-fused filters run first and the
//!    fused (time-consuming) OP runs last, shrinking its input: "these
//!    time-consuming OPs only need to handle fewer samples because the
//!    preceding operators have filtered out some of them".
//!
//! With a warm [`CostModel`](crate::cost::CostModel)
//! ([`plan_fused_measured`]) the static reorder of step 3 is replaced by
//! *measured* ranking: steps within a group are stable-sorted by
//! `ns_per_sample / (1 − keep_ratio)` ascending (cheapest and most
//! selective first), with unmeasured steps scored from their static
//! `OpCost` tier so cold and warm plans rank on one scale. Reordering
//! stays within fusion-legality bounds: only whole filter groups
//! (mapper/dedup-free windows) are permuted, and only when every member
//! filter is [`commutable`](dj_core::Filter::commutable).

use std::sync::Arc;

use dj_core::{ContextNeeds, FieldSet, Filter, Mapper, Op, OpCost};

use crate::cost::CostModel;

/// One executable step of a planned pipeline.
#[derive(Clone)]
pub enum PlanStep {
    Mapper(Arc<dyn Mapper>),
    /// One or more filters executed with a shared per-sample context.
    /// `len() > 1` means the step is a fused OP.
    Filters(Vec<Arc<dyn Filter>>),
    Dedup(Arc<dyn dj_core::Deduplicator>),
}

impl PlanStep {
    /// Display name: fused steps list their member OPs.
    pub fn name(&self) -> String {
        match self {
            PlanStep::Mapper(m) => m.name().to_string(),
            PlanStep::Filters(fs) if fs.len() == 1 => fs[0].name().to_string(),
            PlanStep::Filters(fs) => format!(
                "fused({})",
                fs.iter().map(|f| f.name()).collect::<Vec<_>>().join("+")
            ),
            PlanStep::Dedup(d) => d.name().to_string(),
        }
    }

    pub fn is_fused(&self) -> bool {
        matches!(self, PlanStep::Filters(fs) if fs.len() > 1)
    }

    /// Whether the planner may move this step past adjacent commutable
    /// steps. Filter steps commute when every member filter does; mappers
    /// and dedups always pin their position.
    pub fn commutable(&self) -> bool {
        match self {
            PlanStep::Filters(fs) => fs.iter().all(|f| f.commutable()),
            PlanStep::Mapper(_) | PlanStep::Dedup(_) => false,
        }
    }

    /// Union of every field this step reads or writes — the projection the
    /// columnar executor must decode for a stage containing it. Fused
    /// steps union their members; any member declaring
    /// [`FieldSet::All`] makes the whole step opaque.
    pub fn footprint(&self) -> FieldSet {
        match self {
            PlanStep::Mapper(m) => m.fields_read().union(m.fields_written()),
            PlanStep::Filters(fs) => fs.iter().fold(FieldSet::none(), |acc, f| {
                acc.union(f.fields_read()).union(f.fields_written())
            }),
            PlanStep::Dedup(d) => d.fields_read(),
        }
    }
}

impl std::fmt::Debug for PlanStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An execution plan plus bookkeeping about what fusion did.
#[derive(Debug)]
pub struct Plan {
    pub steps: Vec<PlanStep>,
    /// Number of fused groups created.
    pub fused_groups: usize,
    /// Number of filters folded into fused steps.
    pub fused_ops: usize,
    /// Steps whose position came from *measured* rank (a warm cost model)
    /// rather than the static `OpCost` table. `0` for static plans.
    pub measured_steps: usize,
}

/// One pipeline stage of a segmented plan.
///
/// Mappers and filters are sample-local, so a run of them can be driven
/// end-to-end over one shard by one worker with no cross-shard
/// synchronization. Deduplicators need every sample's fingerprint before
/// they can decide anything, so each one is a barrier: shard-parallel
/// hashing followed by a single dataset-level mask.
#[derive(Clone)]
pub enum Stage {
    /// A maximal run of sample-local steps, executed whole-stage-per-shard.
    Pipeline {
        /// Index of the first member step within `Plan::steps`.
        first_step: usize,
        steps: Vec<PlanStep>,
    },
    /// A deduplication barrier.
    Barrier {
        /// Index of the dedup step within `Plan::steps`.
        step_index: usize,
        dedup: Arc<dyn dj_core::Deduplicator>,
    },
}

impl Stage {
    /// Number of plan steps this stage covers.
    pub fn step_count(&self) -> usize {
        match self {
            Stage::Pipeline { steps, .. } => steps.len(),
            Stage::Barrier { .. } => 1,
        }
    }

    /// Stable cache key for the dataset state *after* this stage: the
    /// member step names joined with `+`. Step boundaries inside a stage
    /// no longer materialize the dataset, so the cache is keyed on stage
    /// boundaries — the only points where a full dataset exists.
    ///
    /// Tradeoff vs the old per-op cache: editing any step *inside* a
    /// mapper/filter run changes that stage's key and recomputes the whole
    /// stage, where per-op caching could resume mid-run. Appending steps
    /// after a barrier still resumes everything before it. Finer-grained
    /// intra-stage checkpoints are a ROADMAP open item.
    pub fn name(&self) -> String {
        match self {
            Stage::Pipeline { steps, .. } => steps
                .iter()
                .map(PlanStep::name)
                .collect::<Vec<_>>()
                .join("+"),
            Stage::Barrier { dedup, .. } => dedup.name().to_string(),
        }
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Pipeline { steps, .. } => write!(f, "Pipeline({})", self.name())
                .and_then(|_| write!(f, "[{} steps]", steps.len())),
            Stage::Barrier { .. } => write!(f, "Barrier({})", self.name()),
        }
    }
}

impl Plan {
    /// Segment the plan into *per-step* stages: every mapper/filter step
    /// becomes its own single-step pipeline stage (dedups stay barriers).
    /// This is the prefix-cache segmentation — the dataset materializes at
    /// every step boundary so each step can be cached and resumed
    /// individually, trading intra-stage pipelining for edit-one-op
    /// resume granularity.
    pub fn stages_per_step(&self) -> Vec<Stage> {
        self.steps
            .iter()
            .enumerate()
            .map(|(i, step)| match step {
                PlanStep::Dedup(d) => Stage::Barrier {
                    step_index: i,
                    dedup: Arc::clone(d),
                },
                other => Stage::Pipeline {
                    first_step: i,
                    steps: vec![other.clone()],
                },
            })
            .collect()
    }

    /// Segment the plan into pipeline stages at dedup barriers.
    pub fn stages(&self) -> Vec<Stage> {
        let mut stages = Vec::new();
        let mut run: Vec<PlanStep> = Vec::new();
        let mut run_start = 0;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                PlanStep::Dedup(d) => {
                    if !run.is_empty() {
                        stages.push(Stage::Pipeline {
                            first_step: run_start,
                            steps: std::mem::take(&mut run),
                        });
                    }
                    stages.push(Stage::Barrier {
                        step_index: i,
                        dedup: Arc::clone(d),
                    });
                    run_start = i + 1;
                }
                other => run.push(other.clone()),
            }
        }
        if !run.is_empty() {
            stages.push(Stage::Pipeline {
                first_step: run_start,
                steps: run,
            });
        }
        stages
    }
}

/// Build an execution plan without fusion: one step per OP, original order.
pub fn plan_unfused(ops: &[Op]) -> Plan {
    let steps = ops
        .iter()
        .map(|op| match op {
            Op::Mapper(m) => PlanStep::Mapper(Arc::clone(m)),
            Op::Filter(f) => PlanStep::Filters(vec![Arc::clone(f)]),
            Op::Deduplicator(d) => PlanStep::Dedup(Arc::clone(d)),
        })
        .collect();
    Plan {
        steps,
        fused_groups: 0,
        fused_ops: 0,
        measured_steps: 0,
    }
}

/// Build a fused & reordered execution plan (the Fig. 6 procedure) using
/// the static `OpCost` table for ordering.
pub fn plan_fused(ops: &[Op]) -> Plan {
    plan_fused_measured(ops, None)
}

/// Build a fused execution plan, ordering each filter group by *measured*
/// rank when a warm [`CostModel`] is supplied (cheapest-and-most-selective
/// first), falling back to the static order for unmeasured steps and to
/// [`plan_fused`] semantics exactly when `model` is `None`.
///
/// Legality: fusion grouping is unchanged; only the order of whole steps
/// *within* a filter group moves, and only when every filter in the group
/// is [`commutable`](Filter::commutable). Output is byte-identical for
/// any ordering the model picks (property-tested in `tests/adaptive.rs`).
pub fn plan_fused_measured(ops: &[Op], model: Option<&CostModel>) -> Plan {
    let mut steps = Vec::with_capacity(ops.len());
    let mut fused_groups = 0;
    let mut fused_ops = 0;
    let mut measured_steps = 0;
    let mut group: Vec<Arc<dyn Filter>> = Vec::new();

    let flush = |group: &mut Vec<Arc<dyn Filter>>,
                 steps: &mut Vec<PlanStep>,
                 fused_groups: &mut usize,
                 fused_ops: &mut usize,
                 measured_steps: &mut usize| {
        if group.is_empty() {
            return;
        }
        let commutable = group.iter().all(|f| f.commutable());
        let (fusible, contextless): (Vec<_>, Vec<_>) =
            group.drain(..).partition(|f| !f.context_needs().is_empty());
        // Cluster fusible filters into connected components under the
        // "shares a derived view" relation (transitively merged).
        let mut components: Vec<(ContextNeeds, Vec<Arc<dyn Filter>>)> = Vec::new();
        for f in fusible {
            let needs = f.context_needs();
            let hits: Vec<usize> = components
                .iter()
                .enumerate()
                .filter(|(_, (u, _))| u.intersects(needs))
                .map(|(i, _)| i)
                .collect();
            match hits.split_first() {
                None => components.push((needs, vec![f])),
                Some((&first, rest)) => {
                    // Merge every intersecting component into the first.
                    for &i in rest.iter().rev() {
                        let (u, mut fs) = components.remove(i);
                        components[first].0 = components[first].0.union(u);
                        components[first].1.append(&mut fs);
                    }
                    components[first].0 = components[first].0.union(needs);
                    components[first].1.push(f);
                }
            }
        }
        // Reorder: contextless (cheap) filters first by ascending cost,
        // then singleton fusibles, then fused components by ascending size
        // — the most expensive fused OP sees the fewest samples. This
        // static order is also the tiebreak baseline for measured ranking.
        let mut ordered: Vec<PlanStep> = Vec::new();
        let mut cheap: Vec<Arc<dyn Filter>> = contextless;
        cheap.sort_by_key(|f| f.cost());
        for f in cheap {
            ordered.push(PlanStep::Filters(vec![f]));
        }
        let (singletons, mut fused): (Vec<_>, Vec<_>) =
            components.into_iter().partition(|(_, fs)| fs.len() == 1);
        for (_, fs) in singletons {
            ordered.push(PlanStep::Filters(fs)); // "reorder the only 1 fusible OP"
        }
        fused.sort_by_key(|(_, fs)| fs.len());
        for (_, fs) in fused {
            *fused_groups += 1;
            *fused_ops += fs.len();
            ordered.push(PlanStep::Filters(fs));
        }
        // Measured reorder: with a warm model (and every member filter
        // commutable) steps are stable-sorted by ranking score ascending —
        // ties and unmeasured steps keep the static order above.
        if let Some(model) = model.filter(|m| commutable && m.is_warm()) {
            let mut keyed: Vec<(f64, bool, PlanStep)> = ordered
                .drain(..)
                .map(|step| {
                    let (score, measured) = model.score(&step.name(), step_static_cost(&step));
                    (score, measured, step)
                })
                .collect();
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            *measured_steps += keyed.iter().filter(|(_, m, _)| *m).count();
            ordered = keyed.into_iter().map(|(_, _, s)| s).collect();
        }
        steps.append(&mut ordered);
    };

    for op in ops {
        match op {
            Op::Filter(f) => group.push(Arc::clone(f)),
            Op::Mapper(m) => {
                flush(
                    &mut group,
                    &mut steps,
                    &mut fused_groups,
                    &mut fused_ops,
                    &mut measured_steps,
                );
                steps.push(PlanStep::Mapper(Arc::clone(m)));
            }
            Op::Deduplicator(d) => {
                flush(
                    &mut group,
                    &mut steps,
                    &mut fused_groups,
                    &mut fused_ops,
                    &mut measured_steps,
                );
                steps.push(PlanStep::Dedup(Arc::clone(d)));
            }
        }
    }
    flush(
        &mut group,
        &mut steps,
        &mut fused_groups,
        &mut fused_ops,
        &mut measured_steps,
    );
    Plan {
        steps,
        fused_groups,
        fused_ops,
        measured_steps,
    }
}

/// Static cost of a plan step for fallback scoring: a fused step costs as
/// much as its most expensive member (the shared context is computed once,
/// so the max member dominates).
pub(crate) fn step_static_cost(step: &PlanStep) -> OpCost {
    match step {
        PlanStep::Mapper(m) => m.cost(),
        PlanStep::Filters(fs) => fs.iter().map(|f| f.cost()).max().unwrap_or(OpCost::Cheap),
        PlanStep::Dedup(_) => OpCost::Expensive,
    }
}

/// Costs ordered: `Cheap < Moderate < Expensive` (used by reordering).
/// Delegates to [`OpCost::rank`] — the single source of truth shared with
/// the cost model's unmeasured-step fallback.
pub fn cost_rank(c: OpCost) -> u8 {
    c.rank()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::OpParams;
    use dj_ops::builtin_registry;

    fn build(names: &[&str]) -> Vec<Op> {
        let reg = builtin_registry();
        names
            .iter()
            .map(|n| reg.build(n, &OpParams::new()).unwrap())
            .collect()
    }

    /// The Fig. 9 pipeline shape: 5 mappers, 8 filters, 1 dedup.
    fn fig9_ops() -> Vec<Op> {
        build(&[
            "whitespace_normalization_mapper",
            "fix_unicode_mapper",
            "clean_links_mapper",
            "clean_email_mapper",
            "remove_long_words_mapper",
            "alphanumeric_ratio_filter",  // fusible (CHARS)
            "text_length_filter",         // fusible (CHARS)
            "word_num_filter",            // fusible (WORDS)
            "word_repetition_filter",     // fusible (WORDS)
            "stopwords_filter",           // fusible (WORDS)
            "flagged_words_filter",       // fusible (WORDS)
            "special_characters_filter",  // fusible (CHARS)
            "average_line_length_filter", // LINES: shared with nobody
            "document_deduplicator",
        ])
    }

    #[test]
    fn unfused_plan_preserves_order() {
        let ops = fig9_ops();
        let plan = plan_unfused(&ops);
        assert_eq!(plan.steps.len(), ops.len());
        assert_eq!(plan.fused_groups, 0);
        for (step, op) in plan.steps.iter().zip(&ops) {
            assert_eq!(step.name(), op.name());
        }
    }

    #[test]
    fn fused_plan_groups_word_filters() {
        let ops = fig9_ops();
        let plan = plan_fused(&ops);
        assert!(plan.fused_groups >= 1);
        assert!(plan.fused_ops >= 4, "fused {} ops", plan.fused_ops);
        // A fused step covering the WORDS-sharing filters exists.
        let word_fused = plan
            .steps
            .iter()
            .filter(|s| s.is_fused())
            .find(|s| s.name().contains("word_num_filter"))
            .expect("has a WORDS fused step");
        assert!(word_fused.name().contains("stopwords_filter"));
        assert!(word_fused.name().contains("flagged_words_filter"));
        // Mappers and dedup survive in order.
        assert_eq!(plan.steps[0].name(), "whitespace_normalization_mapper");
        assert_eq!(plan.steps.last().unwrap().name(), "document_deduplicator");
    }

    #[test]
    fn char_class_filters_share_one_fused_step() {
        // `text_length_filter` counts characters, so it declares CHARS and
        // fuses with the ratio filters that read the same one-pass view.
        let ops = fig9_ops();
        let plan = plan_fused(&ops);
        assert_eq!(plan.fused_groups, 2);
        assert_eq!(plan.fused_ops, 7);
        let chars_idx = plan
            .steps
            .iter()
            .position(|s| s.is_fused() && s.name().contains("text_length_filter"))
            .expect("has a CHARS fused step");
        let chars = plan.steps[chars_idx].name();
        assert!(chars.contains("alphanumeric_ratio_filter"));
        assert!(chars.contains("special_characters_filter"));
        assert!(!chars.contains("word_num_filter"));
        // The unshared LINES filter runs first, then the smaller (CHARS)
        // fused step, then the WORDS one.
        let position = |name: &str| {
            plan.steps
                .iter()
                .position(|s| s.name().contains(name))
                .unwrap()
        };
        assert!(position("average_line_length_filter") < chars_idx);
        assert!(chars_idx < position("word_num_filter"));
    }

    #[test]
    fn mapper_breaks_filter_group() {
        let ops = build(&[
            "word_num_filter",
            "lowercase_mapper", // breaks the group
            "word_repetition_filter",
        ]);
        let plan = plan_fused(&ops);
        // No group has 2 filters, so nothing is fused.
        assert_eq!(plan.fused_groups, 0);
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.steps[1].name(), "lowercase_mapper");
    }

    #[test]
    fn empty_and_single_op_plans() {
        assert!(plan_fused(&[]).steps.is_empty());
        let one = build(&["word_num_filter"]);
        let plan = plan_fused(&one);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.fused_groups, 0);
        assert!(!plan.steps[0].is_fused());
    }

    #[test]
    fn stages_split_at_dedup_barriers() {
        let ops = fig9_ops();
        let plan = plan_fused(&ops);
        let stages = plan.stages();
        // 5 mappers + filter groups form one pipeline stage; the trailing
        // dedup is its own barrier.
        assert_eq!(stages.len(), 2);
        assert!(matches!(&stages[0], Stage::Pipeline { first_step: 0, .. }));
        match &stages[1] {
            Stage::Barrier { step_index, dedup } => {
                assert_eq!(*step_index, plan.steps.len() - 1);
                assert_eq!(dedup.name(), "document_deduplicator");
            }
            other => panic!("expected barrier, got {other:?}"),
        }
        // Step coverage is exact and ordered.
        let covered: usize = stages.iter().map(Stage::step_count).sum();
        assert_eq!(covered, plan.steps.len());
    }

    #[test]
    fn stages_handle_interior_and_leading_dedups() {
        let ops = build(&[
            "document_deduplicator",
            "word_num_filter",
            "lowercase_mapper",
            "document_simhash_deduplicator",
            "word_repetition_filter",
        ]);
        let plan = plan_unfused(&ops);
        let stages = plan.stages();
        assert_eq!(stages.len(), 4, "{stages:?}");
        assert!(matches!(stages[0], Stage::Barrier { step_index: 0, .. }));
        assert!(matches!(stages[1], Stage::Pipeline { first_step: 1, .. }));
        assert!(matches!(stages[2], Stage::Barrier { step_index: 3, .. }));
        assert!(matches!(stages[3], Stage::Pipeline { first_step: 4, .. }));
        // Stage names are stable cache keys.
        assert_eq!(stages[1].name(), "word_num_filter+lowercase_mapper");
        assert_eq!(stages[2].name(), "document_simhash_deduplicator");
    }

    #[test]
    fn stage_names_distinguish_fused_plans() {
        let ops = fig9_ops();
        let fused_name = plan_fused(&ops).stages()[0].name();
        let unfused_name = plan_unfused(&ops).stages()[0].name();
        assert_ne!(
            fused_name, unfused_name,
            "fused and unfused stages must not share cache entries"
        );
    }
}
