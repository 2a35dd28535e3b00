//! The standalone tracer tool (paper §4.2, Fig. 4(a)): run one OP against a
//! dataset and report exactly what it would do — discarded samples for
//! Filters, pre/post differences for Mappers, (near-)duplicate pairs for
//! Deduplicators — without committing the change.

use dj_core::{Dataset, Fingerprints, Op, Result, SampleContext};

/// One traced effect of an OP on a specific sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Filter would discard sample `index`; `stats` shows the deciding values.
    Discard {
        index: usize,
        stats: Vec<(String, f64)>,
    },
    /// Mapper would rewrite sample `index`.
    Edit {
        index: usize,
        before: String,
        after: String,
    },
    /// Deduplicator would drop `dropped` as a duplicate of `kept`.
    DuplicatePair { kept: usize, dropped: usize },
}

/// Trace report for one OP application.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub op_name: String,
    pub effects: Vec<Effect>,
    pub samples_seen: usize,
}

impl TraceReport {
    /// Number of samples the OP would remove.
    pub fn removed(&self) -> usize {
        self.effects
            .iter()
            .filter(|e| matches!(e, Effect::Discard { .. } | Effect::DuplicatePair { .. }))
            .count()
    }

    /// Number of samples the OP would edit.
    pub fn edited(&self) -> usize {
        self.effects
            .iter()
            .filter(|e| matches!(e, Effect::Edit { .. }))
            .count()
    }

    /// Render a human-readable digest (at most `limit` effects).
    pub fn render(&self, limit: usize) -> String {
        let mut out = format!(
            "trace of `{}` over {} samples: {} removed, {} edited\n",
            self.op_name,
            self.samples_seen,
            self.removed(),
            self.edited()
        );
        for e in self.effects.iter().take(limit) {
            match e {
                Effect::Discard { index, stats } => {
                    let stats_str: Vec<String> =
                        stats.iter().map(|(k, v)| format!("{k}={v:.3}")).collect();
                    out.push_str(&format!(
                        "  - discard #{index} [{}]\n",
                        stats_str.join(", ")
                    ));
                }
                Effect::Edit {
                    index,
                    before,
                    after,
                } => {
                    out.push_str(&format!(
                        "  - edit #{index}: {:?} -> {:?}\n",
                        truncate(before),
                        truncate(after)
                    ));
                }
                Effect::DuplicatePair { kept, dropped } => {
                    out.push_str(&format!("  - dup #{dropped} (duplicate of #{kept})\n"));
                }
            }
        }
        out
    }
}

fn truncate(s: &str) -> String {
    if s.chars().count() <= 60 {
        s.to_string()
    } else {
        format!("{}…", s.chars().take(60).collect::<String>())
    }
}

/// Trace `op` over a *copy* of the dataset: the input is not modified.
pub fn trace_op(op: &Op, dataset: &Dataset) -> Result<TraceReport> {
    let mut report = TraceReport {
        op_name: op.name().to_string(),
        samples_seen: dataset.len(),
        ..TraceReport::default()
    };
    let mut ctx = SampleContext::new();
    match op {
        Op::Mapper(m) => {
            for (i, s) in dataset.iter().enumerate() {
                ctx.invalidate();
                let mut copy = s.clone();
                let before = copy.text().to_string();
                if m.process(&mut copy, &mut ctx)? {
                    report.effects.push(Effect::Edit {
                        index: i,
                        before,
                        after: copy.text().to_string(),
                    });
                }
            }
        }
        Op::Filter(f) => {
            for (i, s) in dataset.iter().enumerate() {
                ctx.invalidate();
                let mut copy = s.clone();
                f.compute_stats(&mut copy, &mut ctx)?;
                if !f.process(&copy)? {
                    report.effects.push(Effect::Discard {
                        index: i,
                        stats: copy.stats(),
                    });
                }
            }
        }
        Op::Deduplicator(d) => {
            let mut hashes = Fingerprints::with_capacity(dataset.len());
            for s in dataset.iter() {
                ctx.invalidate();
                hashes.push_with(|out| d.fingerprint(s, &mut ctx, out))?;
            }
            let mask = d.cluster(&hashes, 1)?;
            // Attribute each drop to the nearest earlier kept sample with an
            // identical fingerprint when possible; otherwise to the first
            // kept sample (an approximation adequate for inspection).
            for (i, &keep) in mask.iter().enumerate() {
                if keep {
                    continue;
                }
                let kept = (0..i)
                    .rev()
                    .find(|&j| mask[j] && hashes.get(j) == hashes.get(i))
                    .or_else(|| (0..i).rev().find(|&j| mask[j]))
                    .unwrap_or(0);
                report
                    .effects
                    .push(Effect::DuplicatePair { kept, dropped: i });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::OpParams;
    use dj_ops::builtin_registry;

    #[test]
    fn traces_filter_discards_without_mutation() {
        let reg = builtin_registry();
        let mut p = OpParams::new();
        p.insert("min_len".into(), dj_core::Value::Float(10.0));
        p.insert("max_len".into(), dj_core::Value::Float(1000.0));
        let op = reg.build("text_length_filter", &p).unwrap();
        let ds = Dataset::from_texts(["tiny", "long enough to survive easily"]);
        let before = ds.clone();
        let report = trace_op(&op, &ds).unwrap();
        assert_eq!(ds, before, "tracing must not mutate");
        assert_eq!(report.removed(), 1);
        assert!(matches!(
            report.effects[0],
            Effect::Discard { index: 0, .. }
        ));
        assert!(report.render(10).contains("discard #0"));
    }

    #[test]
    fn traces_mapper_edits() {
        let reg = builtin_registry();
        let op = reg
            .build("whitespace_normalization_mapper", &OpParams::new())
            .unwrap();
        let ds = Dataset::from_texts(["a   b", "clean"]);
        let report = trace_op(&op, &ds).unwrap();
        assert_eq!(report.edited(), 1);
        match &report.effects[0] {
            Effect::Edit {
                index,
                before,
                after,
            } => {
                assert_eq!(*index, 0);
                assert_eq!(before, "a   b");
                assert_eq!(after, "a b");
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn traces_duplicate_pairs() {
        let reg = builtin_registry();
        let op = reg
            .build("document_deduplicator", &OpParams::new())
            .unwrap();
        let ds = Dataset::from_texts(["same", "other", "same"]);
        let report = trace_op(&op, &ds).unwrap();
        assert_eq!(
            report.effects,
            vec![Effect::DuplicatePair {
                kept: 0,
                dropped: 2
            }]
        );
        assert!(report.render(5).contains("dup #2"));
    }
}
