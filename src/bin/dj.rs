//! `dj` — the Data-Juicer command-line front-end.
//!
//! `dj serve` runs the persistent service runtime: a long-lived process
//! that accepts concurrent job submissions as line-delimited JSON over
//! stdin (or a unix domain socket with `--socket PATH`), schedules them
//! over the shared worker pool with admission control, and emits
//! line-delimited JSON events on the same channel. See `docs/service.md`
//! for the protocol.
//!
//! With `--journal PATH` the service appends every submit and every
//! terminal outcome to an fsynced line-JSON journal. On restart the
//! journal is replayed: jobs without a terminal event are re-admitted
//! (recorded as `readmitted` so a second crash replays correctly) and
//! re-execute deterministically — the committed output is byte-identical
//! to what an uninterrupted run would have produced. See
//! `docs/robustness.md`.
//!
//! This binary is the one place the environment reaches a run: `dj serve`
//! parses `DJ_FAULTS` once at startup (a malformed value exits with code 2
//! before any command is read) and installs that fault plan for the whole
//! process before it replays the journal, so one plan's hit counters count
//! every job, replayed ones and their retries included.
//!
//! It is also the one place that tunes the allocator: before its runtime
//! starts, `dj serve` fixes glibc's mmap threshold at 1 MiB
//! ([`fix_mmap_threshold`]), so every buffer the process frees that large
//! goes back to the OS (`docs/service.md`, "Memory").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use data_juicer::config::Recipe;
use data_juicer::core::faults::{self, FaultPlan, FAULTS_ENV};
use data_juicer::core::sync::lock;
use data_juicer::core::{parse_json, Dataset, Value};
use data_juicer::exec::{executor_from_recipe, JobControl, Runtime, RuntimeConfig};
use data_juicer::ops::builtin_registry;

const USAGE: &str = "usage: dj serve [--socket PATH] [--max-jobs N] [--memory-budget BYTES] [--retries N] [--journal PATH]

Commands are line-delimited JSON on stdin (or the socket); events are
line-delimited JSON on stdout (or the socket). See docs/service.md.
--retries N retries transiently-failed jobs up to N attempts total;
--journal PATH makes submissions crash-recoverable (docs/robustness.md).
DJ_FAULTS=<plan> in the environment installs a fault plan for the process.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => match serve_config(&args[1..]) {
            Ok(opts) => serve(opts),
            Err(e) => {
                eprintln!("dj serve: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

struct ServeOpts {
    cfg: RuntimeConfig,
    socket: Option<String>,
    journal: Option<String>,
    /// The `DJ_FAULTS` plan, installed for the whole process.
    faults: Option<FaultPlan>,
}

fn serve_config(args: &[String]) -> Result<ServeOpts, String> {
    let mut cfg = RuntimeConfig::default();
    let mut socket = None;
    let mut journal = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--journal" => journal = Some(value("--journal")?),
            "--max-jobs" => {
                cfg.max_jobs = value("--max-jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--max-jobs must be a positive integer")?;
            }
            "--retries" => {
                cfg.retry.max_attempts = value("--retries")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--retries must be a positive attempt count")?;
            }
            "--memory-budget" => {
                cfg.memory_budget = Some(
                    value("--memory-budget")?
                        .parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--memory-budget must be a positive byte count")?,
                );
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(ServeOpts {
        cfg,
        socket,
        journal,
        faults: faults_from_env()?,
    })
}

/// The `DJ_FAULTS` plan, if set and not blank. A value that does not
/// parse is an error naming the variable.
fn faults_from_env() -> Result<Option<FaultPlan>, String> {
    let spec = match std::env::var(FAULTS_ENV) {
        Ok(spec) if spec.trim().is_empty() => return Ok(None),
        Ok(spec) => spec,
        Err(std::env::VarError::NotPresent) => return Ok(None),
        Err(e) => return Err(format!("{FAULTS_ENV}: {e}")),
    };
    let plan = FaultPlan::parse(&spec).map_err(|e| format!("{FAULTS_ENV}=`{spec}`: {e}"))?;
    Ok(Some(plan))
}

/// One tracked job: the control block for cancel/progress plus a flag the
/// waiter thread sets when the result resolves.
struct ServeJob {
    ctl: Arc<JobControl>,
    finished: Arc<AtomicBool>,
}

/// Crash-recovery journal: one JSON object per line, fsynced after every
/// append, so a SIGKILL can lose at most the line being written — never
/// a line that was already acknowledged.
///
/// Journaled events: `submit` (with the full original submit command),
/// the terminal outcomes `done` / `failed` / `cancelled`, and
/// `readmitted` (a replayed job got a new id — terminal for the *old*
/// id, so a second crash replays only the new one).
struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Read what `path` holds (nothing if it does not exist), then open it
    /// for appending. The history is read *before* the append handle
    /// opens, so replay sees exactly the pre-crash journal; a last line a
    /// kill tore before its newline is then terminated, so the next event
    /// starts a line of its own.
    fn open(path: &str) -> Result<(Vec<u8>, Journal), String> {
        let history = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("read journal {path}: {e}")),
        };
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open journal {path}: {e}"))?;
        if history.last().is_some_and(|b| *b != b'\n') {
            file.write_all(b"\n")
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("terminate journal {path}: {e}"))?;
        }
        let journal = Journal {
            file: Mutex::new(file),
        };
        Ok((history, journal))
    }

    /// Append one event line, newline included, in one write, and sync
    /// it. A failed append is cut back off the journal where it can be, so
    /// the next event still starts a line of its own.
    fn append(&self, fields: &[(&str, Value)]) -> std::io::Result<()> {
        let mut line = json_line(fields);
        line.push('\n');
        let mut f = lock(&self.file);
        let len = f.metadata()?.len();
        let appended = f.write_all(line.as_bytes()).and_then(|()| f.sync_data());
        if appended.is_err() {
            let _ = f.set_len(len);
        }
        appended
    }
}

/// What a journal replays: the jobs submitted without a terminal event,
/// with their submit commands, and the first id no journaled job holds.
struct Replay {
    pending: Vec<(u64, Value)>,
    next_id: u64,
}

impl Replay {
    /// Read the journal's lines. A line that is not UTF-8 JSON (a kill
    /// can tear the last one, mid-character too), or whose job id is not
    /// one this service hands out (a negative one), is skipped.
    fn parse(history: &[u8]) -> Replay {
        let mut submits: Vec<(u64, Value)> = Vec::new();
        let mut terminal: Vec<u64> = Vec::new();
        let mut next_id = 0;
        for line in history.split(|b| *b == b'\n') {
            let Some(entry) = std::str::from_utf8(line)
                .ok()
                .and_then(|line| parse_json(line).ok())
            else {
                continue;
            };
            let Some(event) = entry.get_path("event").and_then(Value::as_str) else {
                continue;
            };
            let job = entry.get_path("job").and_then(Value::as_int);
            let Some(id) = job.and_then(|id| u64::try_from(id).ok()) else {
                continue;
            };
            next_id = next_id.max(id.saturating_add(1));
            match event {
                "submit" => {
                    if let Some(cmd) = entry.get_path("cmd") {
                        submits.push((id, cmd.clone()));
                    }
                }
                "done" | "failed" | "cancelled" | "readmitted" => terminal.push(id),
                _ => {}
            }
        }
        submits.retain(|(id, _)| !terminal.contains(id));
        Replay {
            pending: submits,
            next_id,
        }
    }
}

struct Service {
    runtime: Runtime,
    jobs: Mutex<HashMap<u64, ServeJob>>,
    /// The id the next accepted job gets: one past the largest id of the
    /// replayed journal, so no id names two jobs across restarts.
    next_id: AtomicU64,
    journal: Option<Arc<Journal>>,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Serve every allocation of 1 MiB or more by its own mapping, returned to
/// the OS when it is freed. glibc's default threshold moves up to the size
/// of each such block freed, and from then on blocks that large come from
/// heaps it grows and keeps, so a long-lived process's peak RSS would be
/// set by what every job ever freed. Setting it turns the adjustment off.
/// The runtime's buffer pool keeps the buffers that are reused, so what is
/// freed is what nothing took back.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets a glibc tunable, here before any thread
    // of the runtime exists; it returns 0 on failure, which leaves the
    // default and changes nothing else.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn serve(opts: ServeOpts) {
    fix_mmap_threshold();
    // The plan is the process's from here on: serve never returns, it
    // exits, so the guard never uninstalls it.
    let _faults = opts.faults.map(|plan| faults::install(Arc::new(plan)));
    let (history, journal) = match &opts.journal {
        Some(path) => match Journal::open(path) {
            Ok((history, j)) => (history, Some(Arc::new(j))),
            Err(e) => {
                eprintln!("dj serve: {e}");
                std::process::exit(2);
            }
        },
        None => (Vec::new(), None),
    };
    let replay = Replay::parse(&history);
    let service = Arc::new(Service {
        runtime: Runtime::new(opts.cfg),
        jobs: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(replay.next_id),
        journal,
    });
    replay_journal(&service, replay.pending);
    match opts.socket {
        None => {
            let out: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
            serve_channel(&service, BufReader::new(std::io::stdin()), Arc::clone(&out));
            drain_and_exit(&service);
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("dj serve: bind {path}: {e}");
                    std::process::exit(2);
                }
            };
            eprintln!("dj serve: listening on {path}");
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                // No second handle (file descriptors ran out): close the
                // connection rather than serve it half.
                let Ok(read_half) = conn.try_clone() else {
                    continue;
                };
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let reader = BufReader::new(read_half);
                    let out: SharedWriter = Arc::new(Mutex::new(Box::new(conn)));
                    if serve_channel(&service, reader, out) == Verdict::Shutdown {
                        drain_and_exit(&service);
                    }
                });
            }
        }
    }
}

/// Re-admit every journaled job without a terminal outcome. Replayed
/// jobs re-execute deterministically from their original submit command
/// under a new id; their events go to the journal only (there is no client
/// channel at startup) and their status is visible to any later `status`
/// command.
fn replay_journal(service: &Arc<Service>, pending: Vec<(u64, Value)>) {
    let Some(journal) = service.journal.clone() else {
        return;
    };
    let sink: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::sink())));
    for (old_id, cmd) in pending {
        match submit(service, &cmd, &sink) {
            Ok(new_id) => {
                let appended = journal.append(&[
                    ("event", Value::from("readmitted")),
                    ("job", Value::from(old_id as i64)),
                    ("as", Value::from(new_id as i64)),
                ]);
                report_append(appended, old_id);
                eprintln!("dj serve: journal: readmitted job {old_id} as {new_id}");
            }
            Err(msg) => {
                // Mark terminal so the next restart does not retry a
                // submission that can no longer be honoured.
                let appended = journal.append(&[
                    ("event", Value::from("failed")),
                    ("job", Value::from(old_id as i64)),
                    ("error", Value::from(msg.clone())),
                ]);
                report_append(appended, old_id);
                eprintln!("dj serve: journal: job {old_id} not readmitted: {msg}");
            }
        }
    }
}

/// Wait for every submitted job's terminal event to hit the wire, then
/// exit the process.
fn drain_and_exit(service: &Service) -> ! {
    loop {
        let all_done = {
            let jobs = lock(&service.jobs);
            jobs.values().all(|j| j.finished.load(Ordering::Acquire))
        };
        if all_done && service.runtime.jobs_in_flight() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    std::process::exit(0);
}

#[derive(PartialEq)]
enum Verdict {
    Eof,
    Shutdown,
}

/// Drive one command channel until EOF or a `shutdown` command.
fn serve_channel(service: &Arc<Service>, reader: impl BufRead, out: SharedWriter) -> Verdict {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match handle_command(service, &line, &out) {
            Ok(true) => {
                emit(&out, &[("event", Value::from("shutdown"))]);
                return Verdict::Shutdown;
            }
            Ok(false) => {}
            Err(msg) => emit(
                &out,
                &[("event", Value::from("error")), ("error", Value::from(msg))],
            ),
        }
    }
    Verdict::Eof
}

/// Handle one command line. `Ok(true)` means shutdown was requested.
fn handle_command(service: &Arc<Service>, line: &str, out: &SharedWriter) -> Result<bool, String> {
    let cmd = parse_json(line).map_err(|e| format!("malformed command: {e}"))?;
    let name = cmd
        .get_path("cmd")
        .and_then(Value::as_str)
        .ok_or("missing `cmd` field")?;
    match name {
        "submit" => {
            submit(service, &cmd, out)?;
            Ok(false)
        }
        "cancel" => {
            let id = job_id(&cmd)?;
            let jobs = lock(&service.jobs);
            let job = jobs.get(&id).ok_or(format!("unknown job {id}"))?;
            job.ctl.cancel();
            emit(
                out,
                &[
                    ("event", Value::from("cancelling")),
                    ("job", Value::from(id as i64)),
                ],
            );
            Ok(false)
        }
        "status" => {
            let jobs = lock(&service.jobs);
            match cmd.get_path("job") {
                Some(_) => {
                    let id = job_id(&cmd)?;
                    let job = jobs.get(&id).ok_or(format!("unknown job {id}"))?;
                    emit_status(out, id, job);
                }
                None => {
                    let mut ids: Vec<u64> = jobs.keys().copied().collect();
                    ids.sort_unstable();
                    for id in ids {
                        emit_status(out, id, &jobs[&id]);
                    }
                }
            }
            Ok(false)
        }
        "shutdown" => Ok(true),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

fn job_id(cmd: &Value) -> Result<u64, String> {
    cmd.get_path("job")
        .and_then(Value::as_int)
        .filter(|i| *i >= 0)
        .map(|i| i as u64)
        .ok_or_else(|| "missing or invalid `job` field".into())
}

fn submit(service: &Arc<Service>, cmd: &Value, out: &SharedWriter) -> Result<u64, String> {
    let recipe_value = cmd.get_path("recipe").ok_or("submit requires `recipe`")?;
    let recipe = Recipe::from_value(recipe_value).map_err(|e| format!("bad recipe: {e}"))?;
    let registry = builtin_registry();
    let exec =
        executor_from_recipe(&recipe, &registry, true).map_err(|e| format!("bad recipe: {e}"))?;

    // File-to-file when the recipe names an input; otherwise the command
    // must carry the samples inline as `texts`.
    let inline = match recipe.input_path {
        Some(_) => None,
        None => {
            let texts = cmd
                .get_path("texts")
                .and_then(Value::as_list)
                .ok_or("submit requires recipe `input_path` or inline `texts`")?;
            let texts: Vec<String> = texts
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or("`texts` must be strings")
                })
                .collect::<Result<_, _>>()?;
            Some(Dataset::from_texts(texts))
        }
    };

    // Journal the acceptance with the full original command *before*
    // starting or acknowledging it, so an acknowledged submission is
    // always recoverable; one the journal refused is neither.
    let id = service.next_id.fetch_add(1, Ordering::Relaxed);
    if let Some(journal) = &service.journal {
        journal
            .append(&[
                ("event", Value::from("submit")),
                ("job", Value::from(id as i64)),
                ("cmd", cmd.clone()),
            ])
            .map_err(|e| format!("journal: job not accepted: {e}"))?;
    }
    let handle = match inline {
        None => service.runtime.submit_io(exec),
        Some(data) => service.runtime.submit(exec, data),
    };
    let finished = Arc::new(AtomicBool::new(false));
    lock(&service.jobs).insert(
        id,
        ServeJob {
            ctl: handle.control(),
            finished: Arc::clone(&finished),
        },
    );
    emit(
        out,
        &[
            ("event", Value::from("accepted")),
            ("job", Value::from(id as i64)),
        ],
    );

    // The waiter thread owns the handle; it emits (and journals) the
    // terminal event.
    let out = Arc::clone(out);
    let journal = service.journal.clone();
    std::thread::spawn(move || {
        let result = handle.wait();
        let terminal: Vec<(&str, Value)> = match &result {
            Ok(output) => vec![
                ("event", Value::from("done")),
                ("job", Value::from(id as i64)),
                (
                    "samples_in",
                    Value::from(output.report.initial_samples as i64),
                ),
                (
                    "samples_out",
                    Value::from(output.report.final_samples as i64),
                ),
                (
                    "seconds",
                    Value::from(output.report.total_duration.as_secs_f64()),
                ),
                ("spilled", Value::from(output.report.spilled)),
                (
                    "records_skipped",
                    Value::from(output.report.records_skipped as i64),
                ),
                (
                    "records_quarantined",
                    Value::from(output.report.records_quarantined as i64),
                ),
            ],
            Err(data_juicer::core::DjError::Cancelled) => vec![
                ("event", Value::from("cancelled")),
                ("job", Value::from(id as i64)),
            ],
            Err(e) => vec![
                ("event", Value::from("failed")),
                ("job", Value::from(id as i64)),
                ("error", Value::from(e.to_string())),
            ],
        };
        // Journal first: once the outcome is durable, tell the client.
        if let Some(journal) = &journal {
            report_append(journal.append(&terminal), id);
        }
        emit(&out, &terminal);
        // Set only after the terminal event is written, so a shutdown
        // drain that waits on this flag never truncates the event stream.
        finished.store(true, Ordering::Release);
    });
    Ok(id)
}

/// Say on stderr that an event of job `id` did not reach the journal: the
/// client has its answer, and a restart will not know it.
fn report_append(appended: std::io::Result<()>, id: u64) {
    if let Err(e) = appended {
        eprintln!("dj serve: journal: an event of job {id} was not journaled: {e}");
    }
}

fn emit_status(out: &SharedWriter, id: u64, job: &ServeJob) {
    emit(
        out,
        &[
            ("event", Value::from("status")),
            ("job", Value::from(id as i64)),
            ("shards_done", Value::from(job.ctl.shards_done() as i64)),
            ("live_samples", Value::from(job.ctl.live_samples() as i64)),
            ("live_bytes", Value::from(job.ctl.live_bytes() as i64)),
            (
                "finished",
                Value::from(job.finished.load(Ordering::Acquire)),
            ),
            ("cancelled", Value::from(job.ctl.is_cancelled())),
            ("attempts", Value::from(job.ctl.attempts() as i64)),
        ],
    );
}

/// Assemble one JSON object line (field order as given — `Value::Map`
/// would sort keys, so the line is built directly).
fn json_line(fields: &[(&str, Value)]) -> String {
    let mut line = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&Value::from(*k).to_string());
        line.push(':');
        line.push_str(&v.to_string());
    }
    line.push('}');
    line
}

/// Write one JSON event line to the client channel.
fn emit(out: &SharedWriter, fields: &[(&str, Value)]) {
    let line = json_line(fields);
    let mut w = lock(out);
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}
