//! Client for the shipped `dj serve` binary: line-delimited JSON over its
//! stdin and stdout (docs/service.md). A closed loop: a round submits its
//! jobs together and the next round starts after the last `done`.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dj_core::{parse_json, Value};

use crate::rep::{clean_command, peak_rss_mb};

/// How long a silent server is waited for before the run is failed.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

/// One job of a round, timed on protocol lines from outside the server.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submit line written → `accepted` line read.
    pub accept_s: f64,
    /// Submit line written → terminal line read.
    pub latency_s: f64,
    /// `samples_out` of a `done` event; `Err` for `failed` / `cancelled`.
    pub result: Result<usize, String>,
}

/// One closed-loop round: every job's outcome in submit order, and the
/// time from the first submit to the last terminal event.
#[derive(Debug, Clone)]
pub struct Round {
    pub jobs: Vec<JobOutcome>,
    pub makespan_s: f64,
}

impl Server {
    /// Start `dj serve` with room for four concurrent jobs.
    pub fn spawn(dj: &Path, tmp: &Path) -> Result<Server, String> {
        let mut child = clean_command(dj, tmp)
            .args(["serve", "--max-jobs", "4"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dj.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, events) = channel();
        // Stamps each event as it arrives, so a latency never includes the
        // time the client spent doing something else.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            child,
            stdin,
            events,
            reader: Some(reader),
        })
    }

    /// Peak resident set of the server so far.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Restart the kernel's high-water mark, so the next `peak_rss_mb` is
    /// the peak since now rather than since the server started. Best
    /// effort: where it is refused, peaks are cumulative.
    pub fn reset_peak_rss(&self) {
        let _ = std::fs::write(format!("/proc/{}/clear_refs", self.child.id()), "5");
    }

    /// Submit every command of `submits` back to back and wait for each
    /// job's terminal event. Outcomes are in submit order.
    pub fn round(&mut self, submits: &[String]) -> Result<Round, String> {
        let stdin = self.stdin.as_mut().ok_or("server already shut down")?;
        let mut sent = Vec::with_capacity(submits.len());
        for cmd in submits {
            sent.push(Instant::now());
            writeln!(stdin, "{cmd}").map_err(|e| format!("submit: {e}"))?;
            stdin.flush().map_err(|e| format!("submit: {e}"))?;
        }
        // The server handles commands in order, so the k-th `accepted`
        // names the k-th submit; terminal events carry the job id.
        let mut ids: Vec<i64> = Vec::new();
        let mut accept = vec![0.0; submits.len()];
        let mut done: Vec<Option<JobOutcome>> = vec![None; submits.len()];
        let mut last = sent[0];
        while done.iter().any(Option::is_none) {
            let (at, line) = self
                .events
                .recv_timeout(EVENT_TIMEOUT)
                .map_err(|e| format!("no event from dj serve: {e}"))?;
            let ev = parse_json(&line).map_err(|e| format!("event `{line}`: {e}"))?;
            let kind = ev.get_path("event").and_then(Value::as_str).unwrap_or("");
            let job = ev.get_path("job").and_then(Value::as_int);
            match kind {
                "accepted" => {
                    let k = ids.len();
                    if k >= submits.len() {
                        return Err(format!("unexpected `{line}`"));
                    }
                    ids.push(job.ok_or("accepted without a job id")?);
                    accept[k] = (at - sent[k]).as_secs_f64();
                }
                "done" | "failed" | "cancelled" => {
                    let k = ids
                        .iter()
                        .position(|id| Some(*id) == job)
                        .ok_or_else(|| format!("terminal event for an unknown job: {line}"))?;
                    let result = match kind {
                        "done" => ev
                            .get_path("samples_out")
                            .and_then(Value::as_int)
                            .map(|n| n as usize)
                            .ok_or_else(|| format!("done without samples_out: {line}")),
                        _ => Err(line.clone()),
                    };
                    last = at;
                    done[k] = Some(JobOutcome {
                        accept_s: accept[k],
                        latency_s: (at - sent[k]).as_secs_f64(),
                        result,
                    });
                }
                _ => return Err(format!("dj serve said `{line}`")),
            }
        }
        Ok(Round {
            jobs: done.into_iter().flatten().collect(),
            makespan_s: (last - sent[0]).as_secs_f64(),
        })
    }

    /// A tiny inline job: proves the server answers and starts its pool.
    pub fn handshake(&mut self) -> Result<(), String> {
        let cmd = "{\"cmd\":\"submit\",\"recipe\":{\"process\":[{\"whitespace_normalization_mapper\":{}}]},\
                   \"texts\":[\"hello   world\"]}";
        match self.round(&[cmd.to_string()])?.jobs.remove(0).result {
            Ok(1) => Ok(()),
            other => Err(format!("handshake job: {other:?}")),
        }
    }

    /// Ask the server to drain and exit, and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "{{\"cmd\":\"shutdown\"}}");
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("dj serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    /// A run that failed half-way must not leave a server behind.
    fn drop(&mut self) {
        self.stdin.take();
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The submit command for a recipe given as YAML.
pub fn submit_command(yaml: &str) -> Result<String, String> {
    let recipe = dj_config::Recipe::from_yaml(yaml).map_err(|e| format!("recipe: {e}"))?;
    Ok(format!(
        "{{\"cmd\":\"submit\",\"recipe\":{}}}",
        recipe.to_value()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{recipe_yaml, META_RECIPE};

    #[test]
    fn submit_command_is_one_json_line_carrying_the_recipe() {
        let yaml = recipe_yaml(META_RECIPE, 2, None, Some(("in/*.jsonl", Path::new("out"))));
        let cmd = submit_command(&yaml).unwrap();
        assert!(!cmd.contains('\n'));
        let v = parse_json(&cmd).unwrap();
        assert_eq!(v.get_path("cmd").and_then(Value::as_str), Some("submit"));
        let recipe = dj_config::Recipe::from_value(v.get_path("recipe").unwrap()).unwrap();
        assert_eq!(recipe, dj_config::Recipe::from_yaml(&yaml).unwrap());
        assert!(recipe.columnar);
        assert_eq!(recipe.output_path.as_deref(), Some("out"));
    }
}
