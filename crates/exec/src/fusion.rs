//! OP fusion and reordering (paper §6, Fig. 6).
//!
//! The optimizer walks the OP list and:
//!
//! 1. **Finds filter groups** — maximal runs of consecutive commutable
//!    Filters (Filters are commutative with each other; Mappers,
//!    Deduplicators and a non-[`commutable`](Filter::commutable) filter
//!    break groups because they are not).
//! 2. **Fuses** the filters inside a group whose context needs intersect
//!    (they share derived views such as segmented words) into a single
//!    fused OP that computes each shared view once per sample.
//! 3. **Reorders** each group so cheap non-fused filters run first and the
//!    fused (time-consuming) OP runs last, shrinking its input: "these
//!    time-consuming OPs only need to handle fewer samples because the
//!    preceding operators have filtered out some of them".
//!
//! The plan is static: it reads the ops' declared `OpCost` tiers and
//! context needs, never a measurement. With `ExecOptions::adaptive` set,
//! the stage driver may reorder a stage's commutable steps mid-run from
//! what its first shards measured (the `stage` module).

use std::sync::Arc;

use dj_core::{ContextNeeds, FieldSet, Filter, Mapper, Op};

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

    /// Number of recipe ops this stage covers: a fused step covers each of
    /// its member filters. The cache key of the data after this stage
    /// chains every op up to its last one.
    pub(crate) fn op_count(&self) -> usize {
        match self {
            Stage::Pipeline { steps, .. } => steps
                .iter()
                .map(|step| match step {
                    PlanStep::Filters(fs) => fs.len(),
                    PlanStep::Mapper(_) | PlanStep::Dedup(_) => 1,
                })
                .sum(),
            Stage::Barrier { .. } => 1,
        }
    }

    /// Display name: the member step names joined with `+`.
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
    /// The top-level columns some step of the plan reads or writes — every
    /// op's footprint, each deduplicator's hashed field included — or
    /// `None` when a step declares [`FieldSet::All`]. Every other column is
    /// *inert*: nothing in the run decodes or changes it, so a file run
    /// reads it as JSON text and writes that text back as it is.
    pub fn columns_touched(&self) -> Option<std::collections::BTreeSet<String>> {
        self.steps
            .iter()
            .fold(FieldSet::none(), |acc, step| acc.union(step.footprint()))
            .top_level_columns()
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
    }
}

/// Build a fused & reordered execution plan (the Fig. 6 procedure) using
/// the static `OpCost` table for ordering.
pub fn plan_fused(ops: &[Op]) -> Plan {
    let mut steps = Vec::with_capacity(ops.len());
    let mut fused_groups = 0;
    let mut fused_ops = 0;
    let mut group: Vec<Arc<dyn Filter>> = Vec::new();

    let flush = |group: &mut Vec<Arc<dyn Filter>>,
                 steps: &mut Vec<PlanStep>,
                 fused_groups: &mut usize,
                 fused_ops: &mut usize| {
        if group.is_empty() {
            return;
        }
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
        // — the most expensive fused OP sees the fewest samples.
        let mut cheap: Vec<Arc<dyn Filter>> = contextless;
        cheap.sort_by_key(|f| f.cost());
        for f in cheap {
            steps.push(PlanStep::Filters(vec![f]));
        }
        let (singletons, mut fused): (Vec<_>, Vec<_>) =
            components.into_iter().partition(|(_, fs)| fs.len() == 1);
        for (_, fs) in singletons {
            steps.push(PlanStep::Filters(fs)); // "reorder the only 1 fusible OP"
        }
        fused.sort_by_key(|(_, fs)| fs.len());
        for (_, fs) in fused {
            *fused_groups += 1;
            *fused_ops += fs.len();
            steps.push(PlanStep::Filters(fs));
        }
    };

    for op in ops {
        match op {
            Op::Filter(f) if f.commutable() => group.push(Arc::clone(f)),
            // A filter that must not move past the filters before it ends
            // their group, as a mapper does.
            Op::Filter(f) => {
                flush(&mut group, &mut steps, &mut fused_groups, &mut fused_ops);
                steps.push(PlanStep::Filters(vec![Arc::clone(f)]));
            }
            Op::Mapper(m) => {
                flush(&mut group, &mut steps, &mut fused_groups, &mut fused_ops);
                steps.push(PlanStep::Mapper(Arc::clone(m)));
            }
            Op::Deduplicator(d) => {
                flush(&mut group, &mut steps, &mut fused_groups, &mut fused_ops);
                steps.push(PlanStep::Dedup(Arc::clone(d)));
            }
        }
    }
    flush(&mut group, &mut steps, &mut fused_groups, &mut fused_ops);
    Plan {
        steps,
        fused_groups,
        fused_ops,
    }
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
    fn a_non_commutable_filter_breaks_the_filter_group() {
        // `stats_range_filter` decides on a stat an earlier op recorded, so
        // it keeps its place and the filters around it do not fuse.
        let ops = build(&[
            "word_repetition_filter",
            "stats_range_filter",
            "word_num_filter",
        ]);
        let plan = plan_fused(&ops);
        assert_eq!(plan.fused_groups, 0);
        let names: Vec<String> = plan.steps.iter().map(PlanStep::name).collect();
        assert_eq!(
            names,
            [
                "word_repetition_filter",
                "stats_range_filter",
                "word_num_filter"
            ]
        );
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
        assert_eq!(stages[1].name(), "word_num_filter+lowercase_mapper");
        assert_eq!(stages[2].name(), "document_simhash_deduplicator");
    }

    /// Fusion and reordering stay inside a stage: fused and unfused plans
    /// of one recipe cut it at the same ops, which is what lets every plan
    /// of a recipe share cache entries.
    #[test]
    fn fused_and_unfused_stages_cover_the_same_ops() {
        let mut ops = fig9_ops();
        ops.insert(7, build(&["document_simhash_deduplicator"]).remove(0));
        let covered = |plan: Plan| {
            plan.stages()
                .iter()
                .map(Stage::op_count)
                .collect::<Vec<_>>()
        };
        assert_eq!(covered(plan_fused(&ops)), vec![7, 1, 6, 1]);
        assert_eq!(covered(plan_unfused(&ops)), vec![7, 1, 6, 1]);
    }
}
