//! The five workloads: which corpus, which recipe, which execution shape.
//!
//! Every end-to-end run goes through recipe YAML (`Recipe::from_yaml` →
//! `executor_from_recipe` → `run` / `run_io`) or the `dj serve` line
//! protocol, with user-facing keys only, so a refactor of the executor's
//! options or internals leaves the benchmark valid.

use std::path::Path;

use dj_config::Recipe;
use dj_core::Dataset;
use dj_exec::executor_from_recipe;
use dj_ops::builtin_registry;

use crate::corpora::{scaled, text_digest, write_parts, Corpus};

/// Worker count of every end-to-end run. The reference box has two cores.
pub const NP: usize = 2;

pub const WEB_RECIPE: &str = include_str!("../recipes/web.yaml");
pub const DUP_RECIPE: &str = include_str!("../recipes/dup.yaml");
pub const META_RECIPE: &str = include_str!("../recipes/meta.yaml");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `Executor::run` on a resident dataset, result returned in memory.
    InMem,
    /// `Executor::run_io`, JSONL parts in, manifest-tracked JSONL parts out.
    File,
    /// Four file-backed jobs submitted together to the shipped `dj serve`.
    Serve,
}

/// One input of a workload: a slice of a generated corpus and the recipe
/// run over it. Solo workloads have one, `serve-4tenant` has four.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    pub label: &'static str,
    pub corpus: Corpus,
    /// Generator size relative to the corpus's base size.
    pub docs_factor: f64,
    /// Share of the generated corpus this input covers, as
    /// `(first quarter, quarters)`; `(0, 4)` is all of it.
    pub quarters: (usize, usize),
    pub recipe: &'static str,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub tenants: &'static [Tenant],
}

const fn whole(label: &'static str, corpus: Corpus, recipe: &'static str) -> Tenant {
    Tenant {
        label,
        corpus,
        docs_factor: 1.0,
        quarters: (0, 4),
        recipe,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "web-inmem",
        shape: Shape::InMem,
        tenants: &[whole("web", Corpus::Web, WEB_RECIPE)],
    },
    Workload {
        name: "web-file",
        shape: Shape::File,
        tenants: &[whole("web", Corpus::Web, WEB_RECIPE)],
    },
    Workload {
        name: "dup-inmem",
        shape: Shape::InMem,
        tenants: &[whole("dup", Corpus::Dup, DUP_RECIPE)],
    },
    Workload {
        name: "meta-file-col",
        shape: Shape::File,
        tenants: &[whole("meta", Corpus::Meta, META_RECIPE)],
    },
    Workload {
        name: "serve-4tenant",
        shape: Shape::Serve,
        tenants: &[
            Tenant {
                label: "web-part0",
                corpus: Corpus::Web,
                docs_factor: 0.5,
                quarters: (0, 1),
                recipe: WEB_RECIPE,
            },
            Tenant {
                label: "web-part1",
                corpus: Corpus::Web,
                docs_factor: 0.5,
                quarters: (1, 1),
                recipe: WEB_RECIPE,
            },
            Tenant {
                label: "dup-eighth",
                corpus: Corpus::Dup,
                docs_factor: 0.125,
                quarters: (0, 4),
                recipe: DUP_RECIPE,
            },
            Tenant {
                label: "meta-eighth",
                corpus: Corpus::Meta,
                docs_factor: 0.125,
                quarters: (0, 4),
                recipe: META_RECIPE,
            },
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A tenant's generated input.
pub struct Input {
    pub tenant: Tenant,
    pub seed: u64,
    /// Generator size: what the child process needs to regenerate `data`.
    pub docs: usize,
    pub data: Dataset,
    /// Digest of the whole generated corpus (before `quarters` cut it).
    pub corpus_digest: u64,
    /// Total bytes of the JSONL files holding `data`, once written.
    pub file_bytes: u64,
}

impl Tenant {
    /// Generator size at `scale`.
    pub fn docs(&self, scale: f64) -> usize {
        scaled(
            (self.corpus.base_docs() as f64 * self.docs_factor) as usize,
            scale,
        )
    }
}

impl Input {
    /// Write the input as four JSONL part files under `dir`.
    pub fn write(&mut self, dir: &Path) -> std::io::Result<()> {
        self.file_bytes = write_parts(&self.data, dir, self.tenant.label, 4)?.1;
        Ok(())
    }

    /// Glob matching exactly this input's part files.
    pub fn glob(&self, dir: &Path) -> String {
        format!("{}/{}-?.jsonl", dir.display(), self.tenant.label)
    }

    /// Bytes handed to the program: the files for file-backed shapes, the
    /// text for a resident dataset.
    pub fn input_bytes(&self) -> u64 {
        if self.file_bytes > 0 {
            self.file_bytes
        } else {
            self.data.text_bytes() as u64
        }
    }
}

/// Quarters `[first, first + count)` of `full`, by sample position.
pub fn cut(full: &Dataset, (first, count): (usize, usize)) -> Dataset {
    let q = full.len().div_ceil(4);
    let lo = (first * q).min(full.len());
    let hi = ((first + count) * q).min(full.len());
    Dataset::from_samples(full.samples()[lo..hi].to_vec())
}

/// The recipe YAML of one run: the workload's recipe plus the execution
/// keys a user would set.
pub fn recipe_yaml(
    body: &str,
    np: usize,
    shard_size: Option<usize>,
    io: Option<(&str, &Path)>,
) -> String {
    let mut yaml = format!("np: {np}\n");
    if let Some(n) = shard_size {
        yaml.push_str(&format!("shard_size: {n}\n"));
    }
    if let Some((input, output)) = io {
        yaml.push_str(&format!(
            "input_path: {input}\noutput_path: {}\n",
            output.display()
        ));
    }
    yaml.push_str(body);
    yaml
}

/// What a run must produce, computed by the same recipe on a resident
/// dataset with a different shard cut: the engine's contract is the same
/// bytes from every execution shape, so any timed shape is checked against
/// this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub samples_out: usize,
    pub digest: u64,
}

impl std::fmt::Display for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, digest {:#018x}",
            self.samples_out, self.digest
        )
    }
}

pub fn reference(body: &str, data: Dataset) -> Result<Expected, String> {
    let yaml = recipe_yaml(body, NP, Some(2048), None);
    let recipe = Recipe::from_yaml(&yaml).map_err(|e| format!("reference recipe: {e}"))?;
    let exec = executor_from_recipe(&recipe, &builtin_registry(), true)
        .map_err(|e| format!("reference executor: {e}"))?;
    let (out, _) = exec.run(data).map_err(|e| format!("reference run: {e}"))?;
    Ok(Expected {
        samples_out: out.len(),
        digest: text_digest(out.iter().map(|s| s.text())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_recipe_builds_against_the_builtin_registry() {
        let registry = builtin_registry();
        for body in [WEB_RECIPE, DUP_RECIPE, META_RECIPE] {
            let yaml = recipe_yaml(body, NP, None, Some(("in/*.jsonl", Path::new("out"))));
            let recipe = Recipe::from_yaml(&yaml).unwrap();
            assert_eq!(recipe.np, NP);
            assert_eq!(recipe.input_path.as_deref(), Some("in/*.jsonl"));
            assert!(recipe.validate(&registry).is_empty(), "{yaml}");
            executor_from_recipe(&recipe, &registry, true).unwrap();
        }
        assert!(Recipe::from_yaml(META_RECIPE).unwrap().columnar);
    }

    #[test]
    fn quarters_partition_the_corpus() {
        let ds = Corpus::Web.generate(5, 100);
        let n = ds.len();
        let parts: usize = (0..4).map(|q| cut(&ds, (q, 1)).len()).sum();
        assert_eq!(parts, n);
        assert_eq!(cut(&ds, (0, 4)).len(), n);
        assert_eq!(
            cut(&ds, (1, 1)).get(0).unwrap().text(),
            ds.get(n.div_ceil(4)).unwrap().text()
        );
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(!w.tenants.is_empty());
        }
        assert!(find("no-such-workload").is_none());
    }

    #[test]
    fn reference_is_independent_of_the_shard_cut() {
        let ds = Corpus::Web.generate(9, 300);
        let a = reference(WEB_RECIPE, ds.clone()).unwrap();
        let yaml = recipe_yaml(WEB_RECIPE, 1, Some(17), None);
        let exec = executor_from_recipe(
            &Recipe::from_yaml(&yaml).unwrap(),
            &builtin_registry(),
            true,
        )
        .unwrap();
        let (out, _) = exec.run(ds).unwrap();
        assert_eq!(a.samples_out, out.len());
        assert_eq!(a.digest, text_digest(out.iter().map(|s| s.text())));
    }
}
