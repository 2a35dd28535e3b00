//! One end-to-end run of one workload: set up, compute the expected
//! output, warm up once, then repeat for the measuring window, checking
//! every repetition's output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dj_core::{parse_json, Dataset, Value};

use crate::corpora::{Corpus, Fnv, DEFAULT_SEED};
use crate::pins;
use crate::rep::{run_child, RepResult};
use crate::serve::{submit_command, Server};
use crate::stats::median;
use crate::workloads::{cut, recipe_yaml, reference, Expected, Input, Shape, Workload, NP};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where a run finds its programs and may write.
pub struct Ctx {
    /// This benchmark's own executable, spawned again for repetitions.
    pub exe: PathBuf,
    /// The shipped `dj` binary, for `dj serve`.
    pub dj: PathBuf,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Directory spill files of child processes go to; `main` creates it.
    pub fn tmp(&self) -> PathBuf {
        self.scratch.join("tmp")
    }
}

pub struct RunSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: f64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Timed repetitions made even when the window is already over.
    pub min_reps: usize,
}

impl RunSpec {
    /// Pins hold for the default seed at full scale only.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1.0
    }
}

/// Size and digest of one generated input, for the report.
#[derive(Debug, Clone)]
pub struct InputInfo {
    pub label: &'static str,
    pub samples: usize,
    pub bytes: u64,
    pub digest: u64,
}

#[derive(Debug, Default)]
pub struct E2e {
    /// Operations: repetitions, or jobs for `serve-4tenant`; the warm-up
    /// counts, since its output is checked like any other.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setups: Vec<f64>,
    /// Every timed job's latency, from handing over the input (a path, a
    /// resident dataset, a submit line) to the complete result (returned
    /// dataset, sealed manifest, `done` event). A solo repetition is one
    /// job; a `serve-4tenant` round is four.
    pub wall: Vec<f64>,
    /// Peak resident set of the process that ran the jobs: one value per
    /// repetition (warm-up included), or per timed round of the server.
    pub rss: Vec<f64>,
    /// `serve-4tenant` only: first submit → last `done` of each timed round.
    pub makespan: Vec<f64>,
    pub inputs: Vec<InputInfo>,
    pub samples_in: usize,
    pub samples_out: usize,
    pub input_bytes: u64,
}

impl E2e {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("djbench: FAILED: {what}");
        self.errors.push(what);
    }

    /// The gated metrics, by the names `BENCHMARK.json` declares.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        if !self.wall.is_empty() {
            m.insert("wall_s".to_string(), median(&self.wall));
        }
        if !self.rss.is_empty() {
            m.insert("peak_rss_mb".to_string(), median(&self.rss));
        }
        if !self.setups.is_empty() {
            m.insert("setup_s".to_string(), median(&self.setups));
        }
        m
    }

    /// Restatements of `wall_s` and the retained share: informational.
    pub fn info(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        // Throughput is work per batch: a repetition, or a whole round.
        let batch = match self.makespan.is_empty() {
            true => self.metrics().get("wall_s").copied(),
            false => Some(median(&self.makespan)),
        };
        if let Some(batch) = batch {
            m.insert("samples_per_s".into(), self.samples_in as f64 / batch);
            m.insert("mb_per_s".into(), self.input_bytes as f64 / 1e6 / batch);
        }
        if !self.makespan.is_empty() {
            m.insert("round_makespan_s".into(), median(&self.makespan));
        }
        if self.samples_in > 0 {
            m.insert(
                "keep_ratio".into(),
                self.samples_out as f64 / self.samples_in as f64,
            );
        }
        m
    }
}

/// Generate every tenant's input under `dir` (written as JSONL when
/// `files`), reusing a corpus two tenants share.
pub fn prepare(spec: &RunSpec, dir: &Path, files: bool) -> Result<Vec<Input>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut inputs: Vec<Input> = Vec::new();
    // The corpus most recently generated, kept while tenants cut slices
    // of it; a tenant covering a whole corpus takes it over instead.
    let mut full: Option<(Corpus, usize, Dataset, u64)> = None;
    for tenant in spec.workload.tenants {
        let docs = tenant.docs(spec.scale);
        if !matches!(&full, Some((c, d, ..)) if *c == tenant.corpus && *d == docs) {
            let ds = tenant.corpus.generate(spec.seed, docs);
            let digest = tenant.corpus.digest(&ds);
            full = Some((tenant.corpus, docs, ds, digest));
        }
        let (data, corpus_digest) = if tenant.quarters == (0, 4) {
            let (_, _, ds, digest) = full.take().expect("generated above");
            (ds, digest)
        } else {
            let (_, _, ds, digest) = full.as_ref().expect("generated above");
            (cut(ds, tenant.quarters), *digest)
        };
        let mut input = Input {
            tenant: *tenant,
            seed: spec.seed,
            docs,
            data,
            corpus_digest,
            file_bytes: 0,
        };
        if files {
            input
                .write(dir)
                .map_err(|e| format!("write {}: {e}", tenant.label))?;
        }
        inputs.push(input);
    }
    Ok(inputs)
}

/// Check the default-seed inputs against their pins; print the digests of
/// any other seed.
fn check_pins(spec: &RunSpec, inputs: &[Input]) -> Result<(), String> {
    for input in inputs {
        let t = input.tenant;
        if spec.pinned() && t.docs_factor == 1.0 && t.quarters == (0, 4) {
            let want = pins::corpus(t.corpus);
            let got = (
                input.data.len(),
                input.data.text_bytes(),
                input.corpus_digest,
            );
            if got != (want.samples, want.text_bytes, want.digest) {
                return Err(format!(
                    "corpus `{}` no longer matches its pin: {} samples, {} text bytes, digest \
                     {:#018x} (pinned {} / {} / {:#018x}); dj-synth changed the load",
                    t.corpus.name(),
                    got.0,
                    got.1,
                    got.2,
                    want.samples,
                    want.text_bytes,
                    want.digest
                ));
            }
        } else if !spec.pinned() {
            eprintln!(
                "djbench: input {} seed {} scale {}: {} samples, digest {:#018x}",
                t.label,
                spec.seed,
                spec.scale,
                input.data.len(),
                input.corpus_digest
            );
        }
    }
    Ok(())
}

/// What a file-backed job left in its output directory.
pub struct Output {
    pub samples: usize,
    /// FNV over the bytes of every part, in manifest order.
    pub raw_digest: u64,
    /// FNV over every output `text`, when asked for.
    pub text_digest: Option<u64>,
}

/// Read an egress directory back through its sealed manifest.
pub fn read_output(dir: &Path, parse_text: bool) -> Result<Output, String> {
    let manifest = dir.join("manifest.json");
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let v = parse_json(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let declared = v
        .get_path("total_samples")
        .and_then(Value::as_int)
        .ok_or("manifest lacks total_samples")? as usize;
    let parts = v
        .get_path("parts")
        .and_then(Value::as_list)
        .ok_or("manifest lacks parts")?;
    let mut raw = Fnv::new();
    let mut texts = Fnv::new();
    let mut lines = 0usize;
    for part in parts {
        let file = part
            .get_path("file")
            .and_then(Value::as_str)
            .ok_or("manifest part lacks file")?;
        let body = std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        raw.update(body.as_bytes());
        for line in body.lines() {
            lines += 1;
            if parse_text {
                let sample = parse_json(line).map_err(|e| format!("{file}: {e}"))?;
                let t = sample.get_path("text").and_then(Value::as_str);
                texts.update(t.ok_or("output record lacks text")?.as_bytes());
                texts.update(&[0xff]);
            }
        }
    }
    if lines != declared {
        return Err(format!(
            "manifest declares {declared} samples, parts hold {lines}"
        ));
    }
    Ok(Output {
        samples: lines,
        raw_digest: raw.finish(),
        text_digest: parse_text.then(|| texts.finish()),
    })
}

/// Checks each repetition of one file-backed job: the first is compared
/// with the expected text digest, the rest byte for byte with the first.
struct FileCheck {
    expected: Expected,
    first_raw: Option<u64>,
}

impl FileCheck {
    fn new(expected: Expected) -> FileCheck {
        FileCheck {
            expected,
            first_raw: None,
        }
    }

    fn check(&mut self, reported: usize, dir: &Path) -> Result<(), String> {
        let out = read_output(dir, self.first_raw.is_none())?;
        if reported != self.expected.samples_out || out.samples != self.expected.samples_out {
            return Err(format!(
                "samples_out {reported} (parts hold {}), expected {}",
                out.samples, self.expected
            ));
        }
        match (self.first_raw, out.text_digest) {
            (None, Some(d)) if d == self.expected.digest => self.first_raw = Some(out.raw_digest),
            (None, d) => return Err(format!("output digest {d:x?}, expected {}", self.expected)),
            (Some(first), _) if first == out.raw_digest => {}
            (Some(_), _) => return Err("output bytes differ between repetitions".into()),
        }
        Ok(())
    }
}

fn check_resident(rep: &RepResult, expected: Expected) -> Result<(), String> {
    if rep.samples_out != expected.samples_out || rep.digest != Some(expected.digest) {
        return Err(format!(
            "samples_out {} digest {:x?}, expected {expected}",
            rep.samples_out, rep.digest
        ));
    }
    Ok(())
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The expected output of every input, consuming the resident datasets:
/// from here on the inputs live in files or are regenerated by the child.
fn expectations(
    inputs: &mut [Input],
    pinned: Option<&[Expected]>,
) -> Result<Vec<Expected>, String> {
    let mut all = Vec::new();
    for (k, input) in inputs.iter_mut().enumerate() {
        let data = std::mem::replace(&mut input.data, Dataset::new());
        let expected = reference(input.tenant.recipe, data)?;
        if let Some(pins) = pinned {
            if pins[k] != expected {
                return Err(format!(
                    "{}: reference output ({expected}) differs from the pinned one ({})",
                    input.tenant.label, pins[k]
                ));
            }
        }
        all.push(expected);
    }
    Ok(all)
}

/// A library-shaped job of `input` at `np` workers: its recipe file, the
/// directory a file shape writes to, and the input a resident shape
/// regenerates in the child. `tag` keeps jobs of one directory apart.
pub struct Job<'a> {
    pub recipe_file: PathBuf,
    pub out: PathBuf,
    pub regenerate: Option<&'a Input>,
}

pub fn library_job<'a>(
    input: &'a Input,
    shape: Shape,
    np: usize,
    dir: &Path,
    tag: &str,
) -> Result<Job<'a>, String> {
    let resident = shape == Shape::InMem;
    let out = dir.join(format!("{tag}-out-{}", input.tenant.label));
    let glob = input.glob(dir);
    let io = (!resident).then_some((glob.as_str(), out.as_path()));
    let recipe_file = dir.join(format!("{tag}-{}.yaml", input.tenant.label));
    std::fs::write(&recipe_file, recipe_yaml(input.tenant.recipe, np, None, io))
        .map_err(|e| format!("{}: {e}", recipe_file.display()))?;
    Ok(Job {
        recipe_file,
        out,
        regenerate: resident.then_some(input),
    })
}

/// Every input as a file-backed `dj serve` job at `np: 2`: the output
/// directories and the submit commands, in input order.
pub fn serve_jobs(
    inputs: &[Input],
    dir: &Path,
    tag: &str,
) -> Result<(Vec<PathBuf>, Vec<String>), String> {
    let outs: Vec<PathBuf> = inputs
        .iter()
        .map(|i| dir.join(format!("{tag}-out-{}", i.tenant.label)))
        .collect();
    let submits = inputs
        .iter()
        .zip(&outs)
        .map(|(i, out)| {
            submit_command(&recipe_yaml(
                i.tenant.recipe,
                NP,
                None,
                Some((&i.glob(dir), out)),
            ))
        })
        .collect::<Result<_, _>>()?;
    Ok((outs, submits))
}

/// Run one workload end to end with tracing off.
pub fn run_e2e(ctx: &Ctx, spec: &RunSpec) -> Result<E2e, String> {
    let w = spec.workload;
    let dir = ctx.scratch.join("e2e");
    let tmp = ctx.tmp();
    let mut e2e = E2e::default();

    // Set up several times; keep the last.
    let mut kept: Option<(Vec<Input>, Option<Server>)> = None;
    for _ in 0..SETUPS {
        if let Some((_, Some(server))) = kept.take() {
            server.shutdown()?;
        }
        remove_dir(&dir);
        let start = Instant::now();
        let inputs = prepare(spec, &dir, w.shape != Shape::InMem)?;
        let server = match w.shape {
            Shape::Serve => {
                let mut server = Server::spawn(&ctx.dj, &tmp)?;
                server.handshake()?;
                Some(server)
            }
            _ => None,
        };
        e2e.setups.push(start.elapsed().as_secs_f64());
        kept = Some((inputs, server));
    }
    let (mut inputs, server) = kept.expect("SETUPS >= 1");

    check_pins(spec, &inputs)?;
    for input in &inputs {
        e2e.inputs.push(InputInfo {
            label: input.tenant.label,
            samples: input.data.len(),
            bytes: input.input_bytes(),
            digest: input.corpus_digest,
        });
        e2e.samples_in += input.data.len();
        e2e.input_bytes += input.input_bytes();
    }
    let pinned = spec.pinned().then(|| pins::outputs(w.name));
    let expected = expectations(&mut inputs, pinned.as_deref())?;
    e2e.samples_out = expected.iter().map(|e| e.samples_out).sum();

    let min_reps = spec.min_reps.max(1);
    match (w.shape, server) {
        (Shape::Serve, Some(mut server)) => {
            let (outs, submits) = serve_jobs(&inputs, &dir, "serve")?;
            let mut checks: Vec<FileCheck> = expected.iter().map(|e| FileCheck::new(*e)).collect();
            let mut window = Instant::now();
            for k in 0.. {
                outs.iter().for_each(|o| remove_dir(o));
                server.reset_peak_rss();
                let round = server.round(&submits)?;
                for ((job, check), out) in round.jobs.iter().zip(&mut checks).zip(&outs) {
                    e2e.attempted += 1;
                    let verdict = match &job.result {
                        Ok(n) => check.check(*n, out),
                        Err(e) => Err(e.clone()),
                    };
                    if let Err(e) = verdict {
                        e2e.fail(format!("{} round {k}: {e}", w.name));
                    }
                }
                if k == 0 {
                    // The first round is the warm-up; the window opens now.
                    window = Instant::now();
                    continue;
                }
                e2e.wall.extend(round.jobs.iter().map(|j| j.latency_s));
                e2e.makespan.push(round.makespan_s);
                e2e.rss.push(server.peak_rss_mb()?);
                if k >= min_reps && window.elapsed().as_secs_f64() >= spec.seconds {
                    break;
                }
            }
            server.shutdown()?;
        }
        _ => {
            let job = library_job(&inputs[0], w.shape, NP, &dir, "job")?;
            let mut check = FileCheck::new(expected[0]);
            let mut window = Instant::now();
            for k in 0.. {
                remove_dir(&job.out);
                e2e.attempted += 1;
                let rep = run_child(&ctx.exe, &tmp, &job).and_then(|rep| {
                    match w.shape {
                        Shape::InMem => check_resident(&rep, expected[0]),
                        _ => check.check(rep.samples_out, &job.out),
                    }
                    .map(|()| rep)
                });
                let rep = match rep {
                    Ok(rep) => rep,
                    Err(e) => {
                        e2e.fail(format!("{} repetition {k}: {e}", w.name));
                        if e2e.failed >= 3 {
                            return Ok(e2e);
                        }
                        continue;
                    }
                };
                // The warm-up is not timed (the first process after set-up
                // runs slower), but its peak is as good as any other, and
                // the peak is the noisier number: every sample helps.
                e2e.rss.push(rep.rss_mb);
                if k == 0 {
                    window = Instant::now();
                    continue;
                }
                e2e.wall.push(rep.wall_s);
                if e2e.wall.len() >= min_reps && window.elapsed().as_secs_f64() >= spec.seconds {
                    break;
                }
            }
        }
    }
    remove_dir(&dir);
    Ok(e2e)
}
