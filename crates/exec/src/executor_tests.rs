//! Unit tests of the executor: the whole engine through its public entry
//! points, on a small noisy corpus.

use super::*;
use crate::executor_from_recipe;
use dj_config::{OpSpec, Recipe};
use dj_core::OpRegistry;
use dj_ops::builtin_registry;
use dj_store::CacheMode;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn noisy_dataset() -> Dataset {
    let mut texts = vec![
        "The committee reviewed the annual report and found the analysis sound.".to_string(),
        "  The committee   reviewed the annual report and found the analysis sound.".to_string(),
        "short".to_string(),
        "buy now buy now buy now buy now buy now buy now buy now buy now".to_string(),
        "A completely different fluent document describing the budget process.".to_string(),
    ];
    for i in 0..20 {
        texts.push(format!(
            "Unique fluent document number {i} about the research methodology and results."
        ));
    }
    Dataset::from_texts(texts)
}

fn pipeline_recipe() -> Recipe {
    Recipe::new("executor-tests")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 10000.0),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 5.0)
                .with("max_num", 10000.0),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", 3i64)
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.3),
        )
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
}

fn pipeline(reg: &OpRegistry) -> Vec<Op> {
    pipeline_recipe().build_ops(reg).unwrap()
}

/// An executor for `recipe` that carries its op identities, as a cached
/// run needs, under `options`.
fn cached(recipe: &Recipe, options: ExecOptions) -> Executor {
    let exec = executor_from_recipe(recipe, &builtin_registry(), true).unwrap();
    exec.with_options(options)
}

fn opts(np: usize, fusion: bool) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        op_fusion: fusion,
        ..ExecOptions::default()
    }
}

fn spill_opts(np: usize, shard_size: usize, budget: u64) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        op_fusion: true,
        shard_size: Some(shard_size),
        memory_budget: Some(budget),
        ..ExecOptions::default()
    }
}

#[test]
fn pipeline_runs_and_reports() {
    let reg = builtin_registry();
    let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false));
    let (out, report) = exec.run(noisy_dataset()).unwrap();
    assert_eq!(report.initial_samples, 25);
    assert_eq!(report.final_samples, out.len());
    // "short" and the spam line removed; whitespace-variant deduped.
    assert!(out.len() <= 23);
    assert!(report.ops.iter().any(|r| r.removed > 0));
    assert!(report.ops[0].changed >= 1, "whitespace mapper edited");
    assert!(report.peak_bytes > 0);
    assert_eq!(report.stages, 2, "mapper+filters stage, dedup barrier");
    // Funnel is monotone non-increasing.
    let funnel = report.funnel();
    assert!(funnel.windows(2).all(|w| w[1].1 <= w[0].1));
}

#[test]
fn fused_and_unfused_produce_identical_output() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let unfused = Executor::new(pipeline(&reg)).with_options(opts(1, false));
    let fused = Executor::new(pipeline(&reg)).with_options(opts(1, true));
    let (a, ra) = unfused.run(base.clone()).unwrap();
    let (b, rb) = fused.run(base).unwrap();
    // Same surviving texts (order preserved).
    let ta: Vec<_> = a.iter().map(|s| s.text().to_string()).collect();
    let tb: Vec<_> = b.iter().map(|s| s.text().to_string()).collect();
    assert_eq!(ta, tb);
    assert_eq!(ra.fused_groups, 0);
    assert!(rb.fused_groups >= 1);
}

#[test]
fn parallel_equals_serial() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let serial = Executor::new(pipeline(&reg)).with_options(opts(1, true));
    let parallel = Executor::new(pipeline(&reg)).with_options(opts(4, true));
    let (a, _) = serial.run(base.clone()).unwrap();
    let (b, _) = parallel.run(base).unwrap();
    assert_eq!(
        a.iter().map(|s| s.text()).collect::<Vec<_>>(),
        b.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
}

#[test]
fn shard_count_never_changes_output() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let baseline = Executor::new(pipeline(&reg)).with_options(opts(1, false));
    let (expected, _) = baseline.run(base.clone()).unwrap();
    for shard_size in [1usize, 2, 7, 1000] {
        let exec = Executor::new(pipeline(&reg)).with_options(ExecOptions {
            num_workers: 3,
            op_fusion: true,
            shard_size: Some(shard_size),
            ..ExecOptions::default()
        });
        let (out, report) = exec.run(base.clone()).unwrap();
        assert_eq!(out, expected, "shard_size {shard_size} diverged");
        assert!(report.shards >= 1);
    }
}

#[test]
fn spilled_run_matches_in_memory_run() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let baseline = Executor::new(pipeline(&reg)).with_options(opts(1, false));
    let (expected, _) = baseline.run(base.clone()).unwrap();
    for np in [1usize, 3] {
        let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(np, 4, 1));
        let (out, report) = exec.run(base.clone()).unwrap();
        assert_eq!(out, expected, "np {np} spilled run diverged");
        assert!(report.spilled, "budget of 1 byte must force spilling");
        assert!(report.peak_resident_samples > 0);
        assert!(
            report.peak_resident_samples <= np * 4,
            "np {np}: resident {} > {}",
            report.peak_resident_samples,
            np * 4
        );
    }
}

#[test]
fn large_budget_never_spills() {
    let reg = builtin_registry();
    let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 1000, u64::MAX));
    let (_, report) = exec.run(noisy_dataset()).unwrap();
    assert!(!report.spilled);
}

#[test]
fn cache_resume_skips_completed_steps() {
    let dir = std::env::temp_dir().join(format!("dj-exec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    let exec = cached(&pipeline_recipe(), opts(1, false));
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(r1.resumed_steps, 0);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(
        r2.resumed_steps, 5,
        "all plan steps covered by cached stages"
    );
    assert!(r2.ops.is_empty());
    assert_eq!(
        out1.iter().map(|s| s.text()).collect::<Vec<_>>(),
        out2.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spilled_cache_entries_resume_like_in_memory_ones() {
    let dir = std::env::temp_dir().join(format!("dj-exec-spillcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    let exec = cached(&pipeline_recipe(), spill_opts(2, 4, 1));
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(r1.spilled);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(
        r2.resumed_steps,
        exec.plan().steps.len(),
        "streamed entries must resume every step"
    );
    assert!(r2.ops.is_empty());
    assert!(
        r2.spilled,
        "a budgeted resume must rehydrate into a spool, not materialize"
    );
    assert_eq!(out1, out2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_dataset_and_empty_pipeline() {
    let exec = Executor::new(vec![]);
    let (out, report) = exec.run(Dataset::new()).unwrap();
    assert!(out.is_empty());
    assert!(report.ops.is_empty());
    let reg = builtin_registry();
    let exec2 = Executor::new(pipeline(&reg));
    let (out2, _) = exec2.run(Dataset::new()).unwrap();
    assert!(out2.is_empty());
    // An empty dataset never spills, whatever the budget says.
    let exec3 = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 4, 1));
    let (out3, r3) = exec3.run(Dataset::new()).unwrap();
    assert!(out3.is_empty());
    assert!(!r3.spilled);
}

#[test]
fn under_budget_resume_stays_in_memory() {
    // Multi-shard in-memory stages cache as multi-frame entries; a
    // resume under a generous budget must pull them back into memory
    // rather than downgrading the run to out-of-core.
    let dir = std::env::temp_dir().join(format!("dj-exec-memresume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    let mut options = opts(3, true);
    options.shard_size = Some(4);
    let exec = cached(&pipeline_recipe(), options);
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(!r1.spilled);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(r2.resumed_steps > 0);
    assert!(
        !r2.spilled,
        "an under-budget resume must not downgrade to out-of-core"
    );
    assert_eq!(out1, out2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The spill cut sizes shards for the driver's live set, one shard per
/// worker (plus two of slack): at every worker count the shards it cuts fit
/// the budget side by side, and a spilled run's measured peak stays inside
/// it.
#[test]
fn the_budget_derived_spill_cut_fits_every_np() {
    let reg = builtin_registry();
    let base = Dataset::from_texts((0..400).map(|i| {
        format!("Uniform fluent document {i:04} about the research methodology and its results.")
    }));
    let (len, bytes) = (base.len(), base.approx_bytes());
    let budget = (bytes / 3) as u64;
    for np in 1..=4usize {
        let exec = Executor::new(pipeline(&reg)).with_options(ExecOptions {
            num_workers: np,
            memory_budget: Some(budget),
            ..ExecOptions::default()
        });
        let shards = exec.spill_shard_count(len, bytes, budget);
        let shard_bytes = len.div_ceil(shards) * bytes.div_ceil(len);
        assert!(
            (np * shard_bytes) as u64 <= budget,
            "np {np}: {np} live shards of {shard_bytes} B > budget {budget}"
        );
        let (out, report) = exec.run(base.clone()).unwrap();
        assert!(report.spilled, "np {np}");
        assert_eq!(out.len(), 400, "np {np}");
        assert!(
            report.peak_resident_bytes as u64 <= budget,
            "np {np}: {} resident bytes > budget {budget}",
            report.peak_resident_bytes
        );
    }
}

/// An entry's slot files, in slot order: the sealed frames it holds.
fn entry_slots(entry: &Path) -> Vec<Vec<u8>> {
    let mut slots: Vec<PathBuf> = std::fs::read_dir(entry)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "djs"))
        .collect();
    slots.sort();
    slots.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// Every cache entry under `root`, by directory name: name, length and
/// FNV-1a of its slot files concatenated in slot order.
fn cache_entries(root: &Path) -> Vec<(String, usize, u64)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    entries
        .iter()
        .map(|path| {
            let bytes = entry_slots(path).concat();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect()
}

/// One cache entry's frames, each decoded and serialized whole with
/// `dj_store::to_bytes`, in slot order: the concatenation's length and
/// FNV-1a. It pins the samples an entry holds, whatever its frame layout.
fn entry_as_sample_bytes(cache: &CacheManager, key: u64) -> (usize, u64) {
    let entry = cache.root().join(format!("{key:016x}"));
    let bytes: Vec<u8> = entry_slots(&entry)
        .iter()
        .flat_map(|sealed| {
            let samples = dj_store::Frame::parse(sealed).unwrap().decode(None, None);
            dj_store::to_bytes(&samples.unwrap().0)
        })
        .collect();
    (bytes.len(), fnv1a(&bytes))
}

/// A resident barrier leaves its keep mask on the shards, and the cache
/// save right after it compacts them where the bytes leave: each entry is
/// the one a barrier that thinned its shards on the spot saved. Every
/// eighth document repeats an earlier one, so no shard is thinned to half
/// its fill. Pinned by length and FNV-1a; a deliberate frame layout
/// change re-pins them (the last: layout version 3, a region is its
/// entries alone). Each entry's samples are pinned apart from its layout, serialized
/// whole with `to_bytes` (those pins were read where the row-frame pins of
/// the same samples held), so a re-pin cannot change what an entry holds.
/// The entries' keys are pinned too: content identity, the same at every
/// shard size and worker count.
#[test]
fn a_resident_barrier_saves_the_cache_entries_it_always_saved() {
    const STAGE: u64 = 0x703d_5802_4a6a_a89b;
    const BARRIER: u64 = 0xa044_572a_5d24_0761;
    // (shard size, entries): six frames, then one. An entry: key,
    // (length, FNV-1a) as saved, and of its samples serialized whole.
    type Entry = (u64, (usize, u64), (usize, u64));
    let pins: [(usize, [Entry; 2]); 2] = [
        (
            8,
            [
                (
                    STAGE,
                    (4_862, 16_920_525_572_965_210_562),
                    (5_564, 11_312_440_399_066_394_247),
                ),
                (
                    BARRIER,
                    (4_317, 9_930_282_215_807_412_711),
                    (4_875, 3_491_814_906_032_166_870),
                ),
            ],
        ),
        (
            1000,
            [
                (
                    STAGE,
                    (4_442, 9_002_386_420_672_677_747),
                    (5_519, 6_814_472_757_597_413_484),
                ),
                (
                    BARRIER,
                    (3_897, 12_855_576_458_285_644_118),
                    (4_830, 7_312_925_266_278_686_473),
                ),
            ],
        ),
    ];
    let texts = (0..48).map(|i| {
        let n = if i % 8 == 7 { i - 5 } else { i };
        format!("Resident document {n} on the cached barrier path, with   spacing.")
    });
    let base = Dataset::from_texts(texts);
    let recipe = Recipe::new("resident-barrier")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("text_length_filter").with("min_len", 10.0))
        .then(OpSpec::new("document_deduplicator"));
    for (shard_size, want) in pins {
        for np in [1usize, 3] {
            let tag = format!("np {np}, shard_size {shard_size}");
            let dir = std::env::temp_dir().join(format!(
                "dj-exec-mempin-{}-{np}-{shard_size}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = CacheManager::new(dir.join("cache"), CacheMode::Cache);
            let mut options = opts(np, true);
            options.shard_size = Some(shard_size);
            let exec = cached(&recipe, options);
            let (out, report) = exec.run_with_cache(base.clone(), &cache).unwrap();
            assert!(!report.spilled, "{tag}");
            assert_eq!(out.len(), 42, "{tag}");
            let got = cache_entries(&dir.join("cache"));
            let mut saved: Vec<(String, usize, u64)> = want
                .iter()
                .map(|(key, (len, sum), _)| (format!("{key:016x}"), *len, *sum))
                .collect();
            saved.sort();
            assert_eq!(got, saved, "{tag}");
            for (key, _, samples) in want {
                let got = entry_as_sample_bytes(&cache, key);
                assert_eq!(got, samples, "{tag}: {key:016x} holds other samples");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn barrier_worker_count_never_changes_output() {
    // np = 1 is the sequential reference: one hash stepper, sequential
    // clustering. Every np = N run — parallel hash morsels, gated
    // clustering, carried shards under the barrier's mask — must
    // reproduce it byte for byte.
    let reg = builtin_registry();
    let base = noisy_dataset();
    let sequential = Executor::new(pipeline(&reg)).with_options(opts(1, true));
    let (expected, _) = sequential.run(base.clone()).unwrap();
    for np in [2usize, 4] {
        for shard_size in [1usize, 3, 1000] {
            let mut options = opts(np, true);
            options.shard_size = Some(shard_size);
            let exec = Executor::new(pipeline(&reg)).with_options(options);
            let (out, report) = exec.run(base.clone()).unwrap();
            assert_eq!(out, expected, "np={np} shard_size={shard_size} diverged");
            assert!(report.barrier_duration > Duration::ZERO);
            assert!(report.barrier_duration <= report.total_duration);
        }
    }
}
