//! `djbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Two ways to run it (see README.md in this directory):
//!
//! * `djbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` —
//!   one run of one workload, one JSON line as the last line of standard
//!   output: the contract of `BENCHMARK.json`.
//! * `djbench [--seed n] [--scale x] [--seconds s] [--quick]
//!   [--check-repeat]` — every workload, end to end and traced, as one
//!   self-describing JSON document.

mod corpora;
mod layers;
mod pins;
mod rep;
mod report;
mod run;
mod serve;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use corpora::DEFAULT_SEED;
use layers::{run_traced, write_trace, Traced};
use report::{declared, driver_line, json_str, metrics_object, num, Declared};
use run::{run_e2e, Ctx, E2e, RunSpec};
use stats::{median, min_max};
use workloads::{Workload, NP, WORKLOADS};

const USAGE: &str = "usage:
  djbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <x>]
  djbench [--seed <n>] [--scale <x>] [--seconds <s>] [--quick] [--check-repeat]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    scale: f64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        scale: 1.0,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} requires a value\n{USAGE}"))
        };
        fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: cannot read `{v}`\n{USAGE}"))
        }
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = parsed(arg, value()?)?,
            "--scale" => out.scale = parsed(arg, value()?)?,
            "--seconds" => out.seconds = Some(parsed(arg, value()?)?),
            "--trace" => out.trace = parsed::<u8>(arg, value()?)? != 0,
            "--quick" => out.quick = true,
            "--check-repeat" => out.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(out.scale > 0.0 && out.scale.is_finite()) {
        return Err("--scale must be positive".into());
    }
    if out.seconds.is_some_and(|s| !(s >= 0.0 && s.is_finite())) {
        return Err("--seconds must not be negative".into());
    }
    Ok(out)
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cargo's target directory, found from where this executable was built:
/// `<target>/<profile>/djbench`. Everything the benchmark writes goes under
/// `<target>/djbench/`, inside the checkout and already ignored by git.
fn target_dir(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// Build the shipped `dj` binary from the checkout this benchmark was
/// built in, into the same target directory, and return its path. A fresh
/// build is a no-op of a few hundred milliseconds.
fn build_dj(target: &Path) -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark package has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "dj"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", cargo.to_string_lossy()))?;
    let dj = target.join("release").join("dj");
    if !status.success() || !dj.is_file() {
        return Err(format!(
            "`cargo build --release --bin dj` failed ({status}); the serve workload needs {}",
            dj.display()
        ));
    }
    Ok(dj)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("child") {
        match rep::child_main(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("djbench: {e}");
                1
            }
        }
    } else {
        match parse_args(&args).and_then(|a| benchmark(&a)) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("djbench: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Run what `args` ask for; `Ok(false)` when an output was wrong or two
/// sets disagreed.
fn benchmark(args: &Args) -> Result<bool, String> {
    // No toggle of the program may leak in from the caller's environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DJ_") {
            std::env::remove_var(key);
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = target_dir(&exe);
    let out_dir = target.join("djbench");
    let scratch = Scratch(out_dir.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(scratch.0.join("tmp")).map_err(|e| format!("scratch: {e}"))?;
    // Spill directories of runs made in this process stay in the checkout.
    std::env::set_var("TMPDIR", scratch.0.join("tmp"));
    if nproc() < NP {
        eprintln!(
            "djbench: {} core(s) for np: {NP}: timings are unresolved on this machine",
            nproc()
        );
    }
    let declared = declared();

    let ok = match &args.workload {
        Some(name) => {
            let workload = workloads::find(name)
                .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
            let needs_dj = args.trace || workload.shape == workloads::Shape::Serve;
            let ctx = Ctx {
                dj: if needs_dj {
                    build_dj(&target)?
                } else {
                    PathBuf::new()
                },
                exe,
                scratch: scratch.0.clone(),
            };
            let spec = RunSpec {
                workload,
                seed: args.seed,
                scale: args.scale,
                seconds: args.seconds.unwrap_or(declared.run_seconds),
                min_reps: 3,
            };
            driver_run(&ctx, &spec, args.trace, &declared, &out_dir)?
        }
        None => {
            let ctx = Ctx {
                dj: build_dj(&target)?,
                exe,
                scratch: scratch.0.clone(),
            };
            full_run(&ctx, args, &declared, &out_dir)?
        }
    };
    drop(scratch);
    Ok(ok)
}

/// One workload, one JSON line: the `BENCHMARK.json` contract.
fn driver_run(
    ctx: &Ctx,
    spec: &RunSpec,
    trace: bool,
    declared: &Declared,
    out_dir: &Path,
) -> Result<bool, String> {
    let (line, ok) = if trace {
        let traced = run_traced(ctx, spec)?;
        report_prediction(spec.workload, &traced);
        write_trace(&out_dir.join("trace.jsonl"), &[&traced.tracer])
            .map_err(|e| format!("trace.jsonl: {e}"))?;
        (
            driver_line(
                &declared.per_layer,
                &traced.metrics,
                traced.attempted,
                traced.failed,
            )?,
            traced.failed == 0,
        )
    } else {
        let e2e = run_e2e(ctx, spec)?;
        eprintln!("djbench: {} wall_s {:.3?}", spec.workload.name, e2e.wall);
        eprintln!(
            "djbench: {} peak_rss_mb {:.1?}",
            spec.workload.name, e2e.rss
        );
        eprintln!("djbench: {} setup_s {:.3?}", spec.workload.name, e2e.setups);
        eprintln!(
            "djbench: {} makespan {:.3?}",
            spec.workload.name, e2e.makespan
        );
        for (name, value) in e2e.info() {
            eprintln!("djbench: {} {name} = {value:.4}", spec.workload.name);
        }
        (
            driver_line(
                &declared.end_to_end,
                &e2e.metrics(),
                e2e.attempted,
                e2e.failed,
            )?,
            e2e.failed == 0,
        )
    };
    println!("{line}");
    Ok(ok)
}

fn report_prediction(workload: &Workload, traced: &Traced) {
    match &traced.prediction {
        Some(p) => eprintln!(
            "djbench: prediction {}: {} = {:.1} % of the np: 1 run, predicted >= {:.0} %: {}",
            workload.name,
            p.what,
            p.share * 100.0,
            p.at_least * 100.0,
            if p.pass() { "PASS" } else { "FAIL" }
        ),
        None => eprintln!(
            "djbench: prediction {}: none (no single layer predicted)",
            workload.name
        ),
    }
}

/// One workload's part of the full document, and whether its two sets (if
/// there are two) agree within every bound.
fn workload_section(
    workload: &Workload,
    e2e: &E2e,
    second: Option<&E2e>,
    traced: &Traced,
    declared: &Declared,
) -> Result<(String, bool), String> {
    let inputs: Vec<String> = e2e
        .inputs
        .iter()
        .map(|i| {
            format!(
                "{{\"label\":{},\"samples\":{},\"mb\":{},\"digest\":\"{:016x}\"}}",
                json_str(i.label),
                i.samples,
                i.bytes as f64 / 1e6,
                i.digest
            )
        })
        .collect();
    // A handful of repetitions supports a median and a range, and no
    // percentile beyond them.
    let series: BTreeMap<&str, &Vec<f64>> = [
        ("wall_s", &e2e.wall),
        ("peak_rss_mb", &e2e.rss),
        ("setup_s", &e2e.setups),
    ]
    .into();
    let resolved = nproc() >= NP;
    let mut all_agree = true;
    let mut gated = Vec::new();
    for m in &declared.end_to_end {
        let values = series[m.name.as_str()];
        if values.is_empty() {
            return Err(format!("{}: no value for `{}`", workload.name, m.name));
        }
        let (value, bound) = (median(values), m.bound.unwrap_or(0.0));
        let (lo, hi) = min_max(values);
        let shown = if resolved || m.name == "peak_rss_mb" {
            num(value)?
        } else {
            "\"unresolved\"".to_string()
        };
        let mut entry = format!(
            "{}:{{\"value\":{shown},\"unit\":{},\"min\":{},\"max\":{},\"n\":{},\"bound\":{}",
            json_str(&m.name),
            json_str(&m.unit),
            num(lo)?,
            num(hi)?,
            values.len(),
            num(bound)?
        );
        if let Some(second) = second {
            let again = second.metrics()[&m.name];
            let gap = (again - value).abs() / value;
            let agree = gap <= bound;
            all_agree &= agree;
            entry.push_str(&format!(
                ",\"second_set\":{},\"gap\":{},\"agree\":{agree}",
                num(again)?,
                num(gap)?
            ));
            eprintln!(
                "djbench: check-repeat {} {}: {value:.4} vs {again:.4} (gap {:.2} %, bound {:.0} %) {}",
                workload.name,
                m.name,
                gap * 100.0,
                bound * 100.0,
                if agree { "ok" } else { "DISAGREE" }
            );
        }
        entry.push('}');
        gated.push(entry);
    }
    let info: Vec<String> = e2e
        .info()
        .iter()
        .map(|(name, v)| Ok(format!("{}:{}", json_str(name), num(*v)?)))
        .collect::<Result<_, String>>()?;
    let prediction = match &traced.prediction {
        Some(p) => format!(
            "{{\"what\":{},\"share\":{},\"at_least\":{},\"pass\":{}}}",
            json_str(p.what),
            num(p.share)?,
            num(p.at_least)?,
            p.pass()
        ),
        None => "null".to_string(),
    };
    let section = format!(
        "{}:{{\"inputs\":[{}],\"ops_attempted\":{},\"ops_failed\":{},\
         \"metrics\":{{{}}},\"info\":{{{}}},\"layers\":{},\"layer_probes_attempted\":{},\
         \"layer_probes_failed\":{},\"prediction\":{prediction}}}",
        json_str(workload.name),
        inputs.join(","),
        e2e.attempted,
        e2e.failed,
        gated.join(","),
        info.join(","),
        metrics_object(&declared.per_layer, &traced.metrics)?,
        traced.attempted,
        traced.failed
    );
    Ok((section, all_agree))
}

/// Every workload end to end (twice under `--check-repeat`) and traced,
/// reported as one JSON document on standard output and in `result.json`.
fn full_run(ctx: &Ctx, args: &Args, declared: &Declared, out_dir: &Path) -> Result<bool, String> {
    let scale = if args.quick { 0.05 } else { args.scale };
    let (seconds, min_reps) = match (args.quick, args.seconds) {
        (true, _) => (0.0, 1),
        (false, s) => (s.unwrap_or(declared.run_seconds), 3),
    };
    let spec = |workload| RunSpec {
        workload,
        seed: args.seed,
        scale,
        seconds,
        min_reps,
    };
    // One set: every workload end to end.
    let run_set = || -> Result<Vec<E2e>, String> {
        WORKLOADS
            .iter()
            .map(|workload| {
                eprintln!("djbench: {} ...", workload.name);
                run_e2e(ctx, &spec(workload))
            })
            .collect()
    };
    let first = run_set()?;
    let second = if args.check_repeat {
        Some(run_set()?)
    } else {
        None
    };
    let mut traced = Vec::new();
    for workload in &WORKLOADS {
        eprintln!("djbench: {} (traced) ...", workload.name);
        let t = run_traced(ctx, &spec(workload))?;
        report_prediction(workload, &t);
        traced.push(t);
    }
    let tracers: Vec<&layers::Tracer> = traced.iter().map(|t| &t.tracer).collect();
    write_trace(&out_dir.join("trace.jsonl"), &tracers).map_err(|e| format!("trace.jsonl: {e}"))?;

    let mut ok = first
        .iter()
        .chain(second.iter().flatten())
        .all(|e| e.failed == 0 && e.attempted > 0)
        && traced.iter().all(|t| t.failed == 0);
    let mut sections = Vec::new();
    for (k, workload) in WORKLOADS.iter().enumerate() {
        let again = second.as_ref().map(|set| &set[k]);
        let (section, agree) = workload_section(workload, &first[k], again, &traced[k], declared)?;
        ok &= agree;
        sections.push(section);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let doc = format!(
        "{{\"benchmark\":\"djbench\",\"nproc\":{},\"np\":{NP},\"seed\":{},\"scale\":{},\
         \"seconds\":{},\"git\":{},\"rustc\":{},\"correct\":{ok},\"workloads\":{{{}}}}}",
        nproc(),
        args.seed,
        num(scale)?,
        num(seconds)?,
        json_str(&command_line("git", &["rev-parse", "HEAD"], &root)),
        json_str(&command_line("rustc", &["-V"], &root)),
        sections.join(",")
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::write(out_dir.join("result.json"), format!("{doc}\n"))
        .map_err(|e| format!("result.json: {e}"))?;
    println!("{doc}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "web-file",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("web-file"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.scale, d.trace), (DEFAULT_SEED, 1.0, false));
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--scale", "0"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn target_dir_is_two_levels_above_the_executable() {
        assert_eq!(
            target_dir(Path::new("/x/.bench_build/release/djbench")),
            Path::new("/x/.bench_build")
        );
    }
}
