//! One repetition of a library-shaped workload, in a process of its own.
//!
//! A fresh process per repetition makes `VmHWM` the peak of exactly one
//! job and keeps allocator state, the worker pool and page tables from
//! leaking between repetitions. The parent spawns `djbench child ...`; the
//! child runs the recipe file it is given and prints one JSON line.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use dj_config::Recipe;
use dj_core::{parse_json, Value};
use dj_exec::executor_from_recipe;
use dj_ops::builtin_registry;

use crate::corpora::{text_digest, Corpus};
use crate::run::Job;
use crate::workloads::cut;

/// What one repetition reports back.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    pub wall_s: f64,
    /// Processor time of all threads between the same two instants.
    pub cpu_s: f64,
    pub rss_mb: f64,
    pub samples_in: usize,
    pub samples_out: usize,
    /// Digest of the output text, for shapes that return it in memory.
    pub digest: Option<u64>,
    // The program's own accounting (`RunReport`), read as counts.
    pub ingest_s: f64,
    pub barrier_s: f64,
    pub egress_s: f64,
    pub ingest_bytes: u64,
    pub egress_bytes: u64,
    pub resident_mb: f64,
}

/// `VmHWM` of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User plus system time this process has used so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in ticks of 1/100 s on Linux).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name (field 2) may contain spaces; count from its end.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    match ticks[..] {
        [user, system] => Ok((user + system) / 100.0),
        _ => Err("/proc/self/stat: cannot read utime and stime".into()),
    }
}

/// A command with every `DJ_*` variable removed and its temporary files
/// (spill directories) kept under `tmp`, inside the checkout.
pub fn clean_command(program: &Path, tmp: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DJ_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("TMPDIR", tmp);
    cmd
}

/// Spawn one repetition of `job` and wait for its result. A resident shape
/// is told which input to rebuild from its seed; file shapes read the
/// paths in the recipe.
pub fn run_child(exe: &Path, tmp: &Path, job: &Job) -> Result<RepResult, String> {
    let mut cmd = clean_command(exe, tmp);
    cmd.arg("child").arg(&job.recipe_file);
    if let Some(input) = job.regenerate {
        cmd.args([
            input.tenant.corpus.name().to_string(),
            input.seed.to_string(),
            input.docs.to_string(),
            input.tenant.quarters.0.to_string(),
            input.tenant.quarters.1.to_string(),
            format!("{:016x}", input.corpus_digest),
        ]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse_result(line)
}

fn parse_result(line: &str) -> Result<RepResult, String> {
    let v = parse_json(line).map_err(|e| format!("repetition printed `{line}`: {e}"))?;
    let num = |key: &str| {
        v.get_path(key)
            .and_then(Value::as_float)
            .ok_or_else(|| format!("repetition result lacks `{key}`"))
    };
    let digest = match v.get_path("digest").and_then(Value::as_str) {
        Some(hex) => Some(u64::from_str_radix(hex, 16).map_err(|e| format!("digest: {e}"))?),
        None => None,
    };
    Ok(RepResult {
        wall_s: num("wall_s")?,
        cpu_s: num("cpu_s")?,
        rss_mb: num("rss_mb")?,
        samples_in: num("samples_in")? as usize,
        samples_out: num("samples_out")? as usize,
        digest,
        ingest_s: num("ingest_s")?,
        barrier_s: num("barrier_s")?,
        egress_s: num("egress_s")?,
        ingest_bytes: num("ingest_bytes")? as u64,
        egress_bytes: num("egress_bytes")? as u64,
        resident_mb: num("resident_mb")?,
    })
}

/// The child side: `args` is what follows `djbench child`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let recipe_file = PathBuf::from(args.first().ok_or("child: missing recipe file")?);
    let yaml = std::fs::read_to_string(&recipe_file)
        .map_err(|e| format!("{}: {e}", recipe_file.display()))?;
    let recipe = Recipe::from_yaml(&yaml).map_err(|e| format!("recipe: {e}"))?;
    let exec = executor_from_recipe(&recipe, &builtin_registry(), true)
        .map_err(|e| format!("executor: {e}"))?;

    let resident = match &args[1..] {
        [] => None,
        [corpus, seed, docs, first, count, digest] => {
            let corpus = Corpus::from_name(corpus).ok_or("child: unknown corpus")?;
            let parse = |s: &String| s.parse::<u64>().map_err(|e| format!("child: `{s}`: {e}"));
            let full = corpus.generate(parse(seed)?, parse(docs)? as usize);
            if format!("{:016x}", corpus.digest(&full)) != *digest {
                return Err("child: regenerated corpus differs from the parent's".into());
            }
            match (parse(first)? as usize, parse(count)? as usize) {
                (0, 4) => Some(full),
                quarters => Some(cut(&full, quarters)),
            }
        }
        _ => return Err("child: expected <recipe> [corpus seed docs first count digest]".into()),
    };

    // Forget the generator's transient peak: from here on VmHWM is the
    // resident input plus whatever the job adds. Best effort; without it
    // the peak still bounds the job's from above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let cpu_before = cpu_seconds()?;
    let start = Instant::now();
    let (out, report) = match resident {
        Some(data) => {
            let (out, report) = exec.run(data).map_err(|e| format!("run: {e}"))?;
            (Some(out), report)
        }
        None => exec.run_io().map_err(|e| format!("run_io: {e}"))?,
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu_before;
    let rss_mb = peak_rss_mb("self")?;

    let digest = match &out {
        Some(ds) => format!("\"{:016x}\"", text_digest(ds.iter().map(|s| s.text()))),
        None => "null".to_string(),
    };
    let resident_bytes = if report.spilled {
        report.peak_resident_bytes
    } else {
        report.peak_bytes
    };
    println!(
        "{{\"wall_s\":{wall_s},\"cpu_s\":{cpu_s},\"rss_mb\":{rss_mb},\"samples_in\":{},\"samples_out\":{},\
         \"digest\":{digest},\"ingest_s\":{},\"barrier_s\":{},\"egress_s\":{},\
         \"ingest_bytes\":{},\"egress_bytes\":{},\"resident_mb\":{}}}",
        report.initial_samples,
        report.final_samples,
        report.ingest_duration.as_secs_f64(),
        report.barrier_duration.as_secs_f64(),
        report.egress_duration.as_secs_f64(),
        report.ingest_bytes,
        report.egress_bytes,
        resident_bytes as f64 / 1e6,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = parse_result(
            "{\"wall_s\":1.25,\"cpu_s\":2.5,\"rss_mb\":200.5,\"samples_in\":10,\"samples_out\":7,\
             \"digest\":\"00000000000000ff\",\"ingest_s\":0,\"barrier_s\":0.5,\"egress_s\":0,\
             \"ingest_bytes\":0,\"egress_bytes\":0,\"resident_mb\":3.5}",
        )
        .unwrap();
        assert_eq!(r.wall_s, 1.25);
        assert_eq!(r.samples_out, 7);
        assert_eq!(r.digest, Some(255));
        assert!(parse_result("{\"wall_s\":1}").is_err());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn own_peak_rss_and_cpu_time_are_readable() {
        assert!(peak_rss_mb("self").unwrap() > 1.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
