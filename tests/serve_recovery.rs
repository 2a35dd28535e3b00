//! Crash recovery for `dj serve --journal`: a serve process is SIGKILLed
//! mid-job, restarted on the same journal, and must re-admit and finish
//! the interrupted job — with committed output byte-identical to a run
//! that was never interrupted. And a hostile command line must not take
//! the process down in the first place, nor a malformed `DJ_FAULTS` get
//! past startup.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use data_juicer::core::faults::FAULTS_ENV;
use data_juicer::core::{parse_json, Dataset, Sample, Value};
use data_juicer::exec::{executor_from_recipe, EgressManifest};
use data_juicer::ops::builtin_registry;
use data_juicer::store::to_jsonl;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dj-serve-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A corpus big enough that egress is still in flight when the kill
/// lands (~60k samples; the job takes hundreds of milliseconds).
fn write_corpus(path: &Path) {
    let mut lines = String::new();
    for i in 0..60_000 {
        let s = Sample::from_text(format!(
            "serve   recovery   sample {i} with   spacing {}",
            i % 97
        ));
        lines.push_str(&s.value().to_string());
        lines.push('\n');
    }
    std::fs::write(path, lines).unwrap();
}

fn recipe_json(input: &Path, output: &Path) -> String {
    format!(
        concat!(
            "{{\"cmd\":\"submit\",\"recipe\":{{\"project_name\":\"recovery\",",
            "\"process\":[{{\"whitespace_normalization_mapper\":{{}}}},",
            "{{\"document_deduplicator\":{{}}}}],",
            "\"input_path\":\"{}\",\"output_path\":\"{}\"}}}}"
        ),
        input.display(),
        output.display()
    )
}

/// `dj serve` on piped stdin/stdout, with no fault plan unless the test
/// sets one: `DJ_FAULTS` is blank, which means unset — a serve that took
/// it for a malformed plan would fail every test here at startup.
fn serve_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dj"));
    cmd.arg("serve")
        .env(FAULTS_ENV, " ")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

fn spawn_serve(journal: &Path) -> Child {
    serve_command()
        .arg("--journal")
        .arg(journal)
        .spawn()
        .expect("spawn dj serve")
}

/// Committed egress parts, one byte vector each, in manifest order.
fn egress_parts(dir: &Path) -> Vec<Vec<u8>> {
    let manifest = EgressManifest::load(dir).expect("committed manifest");
    let parts = manifest.parts.iter();
    parts
        .map(|p| std::fs::read(dir.join(&p.file)).unwrap())
        .collect()
}

/// Concatenated committed egress bytes, in manifest part order.
fn egress_bytes(dir: &Path) -> Vec<u8> {
    egress_parts(dir).concat()
}

/// The reference: [`recipe_json`]'s recipe over `input`, run to `out` by
/// this process, never interrupted.
fn run_baseline(input: &Path, out: &Path) {
    let recipe = data_juicer::config::Recipe::from_value(
        &parse_json(&recipe_json(input, out))
            .unwrap()
            .get_path("recipe")
            .unwrap()
            .clone(),
    )
    .unwrap();
    executor_from_recipe(&recipe, &builtin_registry(), true)
        .unwrap()
        .run_io()
        .unwrap();
}

/// A journal line's `event` and `job` fields; a line that does not parse
/// fails the test.
fn event_and_job(line: &str) -> (String, i64) {
    let entry = parse_json(line).unwrap_or_else(|e| panic!("`{line}` does not parse: {e}"));
    let event = entry.get_path("event").and_then(Value::as_str).unwrap();
    let job = entry.get_path("job").and_then(Value::as_int).unwrap();
    (event.to_string(), job)
}

/// Poll `journal` until it holds `needle`.
fn await_journal(journal: &Path, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let log = std::fs::read_to_string(journal).unwrap_or_default();
        if log.contains(needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no {needle} in the journal: {log}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Submit `cmd` to a fresh serve on `journal`, wait for its acceptance and
/// SIGKILL it: no destructors, no flush.
fn submit_and_kill(journal: &Path, cmd: &str) {
    let mut serve = spawn_serve(journal);
    let mut stdin = serve.stdin.take().unwrap();
    let stdout = BufReader::new(serve.stdout.take().unwrap());
    writeln!(stdin, "{cmd}").unwrap();
    stdin.flush().unwrap();
    let accepted = stdout
        .lines()
        .any(|line| line.unwrap().contains("\"accepted\""));
    assert!(accepted, "serve never acknowledged the submission");
    serve.kill().unwrap();
    serve.wait().unwrap();
}

/// Restart serve on `journal` and shut it down at once: the replay
/// re-admits what is orphaned, and shutdown drains it first.
fn restart_and_shut_down(journal: &Path) {
    let mut serve = spawn_serve(journal);
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    let status = serve.wait().unwrap();
    assert!(status.success(), "restarted serve exited with {status}");
}

#[test]
fn killed_serve_resumes_from_journal_byte_identically() {
    let dir = fresh_dir("kill");
    let input = dir.join("in.jsonl");
    write_corpus(&input);
    let out_dir = dir.join("out");
    let journal = dir.join("journal.jsonl");

    // Reference: the same recipe, run to a different directory by a
    // process that is never interrupted.
    let baseline_dir = dir.join("baseline");
    run_baseline(&input, &baseline_dir);
    let expected = egress_bytes(&baseline_dir);

    // Round 1: submit, wait for acceptance, SIGKILL mid-job.
    let mut serve = spawn_serve(&journal);
    let mut stdin = serve.stdin.take().unwrap();
    let stdout = BufReader::new(serve.stdout.take().unwrap());
    writeln!(stdin, "{}", recipe_json(&input, &out_dir)).unwrap();
    stdin.flush().unwrap();
    let mut accepted = false;
    for line in stdout.lines() {
        let line = line.unwrap();
        if line.contains("\"accepted\"") {
            accepted = true;
            break;
        }
    }
    assert!(accepted, "serve never acknowledged the submission");
    serve.kill().unwrap(); // SIGKILL: no destructors, no flush
    serve.wait().unwrap();

    // The journal survived the kill and the job has no terminal event.
    let log = std::fs::read_to_string(&journal).unwrap();
    assert!(log.contains("\"submit\""), "journal lost the submission");
    assert!(
        !log.contains("\"done\""),
        "job finished before the kill — grow the corpus: {log}"
    );

    // Round 2: restart on the same journal, ask for shutdown right away.
    // The replay re-admits the orphaned job; shutdown drains it first.
    let mut serve = spawn_serve(&journal);
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    let status = serve.wait().unwrap();
    assert!(status.success(), "restarted serve exited with {status}");

    let log = std::fs::read_to_string(&journal).unwrap();
    assert!(
        log.contains("\"readmitted\""),
        "restart did not re-admit the orphaned job: {log}"
    );
    assert!(
        log.contains("\"done\""),
        "re-admitted job never finished: {log}"
    );

    // The recovered output is byte-identical to the uninterrupted run.
    assert_eq!(
        egress_bytes(&out_dir),
        expected,
        "recovered egress differs from the uninterrupted run"
    );

    // A second restart replays nothing: every journaled job is terminal.
    let mut serve = spawn_serve(&journal);
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    serve.wait().unwrap();
    let log2 = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        log.matches("\"readmitted\"").count(),
        log2.matches("\"readmitted\"").count(),
        "terminal jobs must not be replayed again"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An inline-`texts` job whose recipe names an `output_path` writes it:
/// `output` means egress whatever the input, so the committed parts hold
/// exactly the JSONL of what the same recipe returns in memory.
#[test]
fn inline_texts_with_an_output_path_are_written_as_parts() {
    let dir = fresh_dir("inline-out");
    let out_dir = dir.join("out");
    let texts = [
        "inline   one",
        "inline two",
        "inline   one",
        "inline  three",
    ];
    let quoted: Vec<String> = texts.iter().map(|t| format!("\"{t}\"")).collect();
    let cmd = format!(
        concat!(
            "{{\"cmd\":\"submit\",\"recipe\":{{\"project_name\":\"inline-out\",",
            "\"process\":[{{\"whitespace_normalization_mapper\":{{}}}},",
            "{{\"document_deduplicator\":{{}}}}],\"output_path\":\"{}\"}},",
            "\"texts\":[{}]}}"
        ),
        out_dir.display(),
        quoted.join(",")
    );
    let mut serve = serve_command().spawn().expect("spawn dj serve");
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, "{cmd}").unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    let events: Vec<String> = BufReader::new(serve.stdout.take().unwrap())
        .lines()
        .map(Result::unwrap)
        .collect();
    assert!(serve.wait().unwrap().success(), "{events:?}");
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"done\"") && e.contains("\"samples_out\":3")),
        "{events:?}"
    );

    // The reference: the same recipe, in memory.
    let mut recipe = data_juicer::config::Recipe::from_value(
        &parse_json(&cmd)
            .unwrap()
            .get_path("recipe")
            .unwrap()
            .clone(),
    )
    .unwrap();
    recipe.output_path = None;
    let (expected, _) = executor_from_recipe(&recipe, &builtin_registry(), true)
        .unwrap()
        .run(Dataset::from_texts(texts))
        .unwrap();
    assert_eq!(
        String::from_utf8(egress_bytes(&out_dir)).unwrap(),
        to_jsonl(&expected)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A command line nested 200 000 levels deep must not overflow the
/// protocol parser's stack, which would abort `dj serve` and every tenant
/// with it. It is a malformed command: one `error` event, and the service
/// goes on to run the next submission.
#[test]
fn a_nesting_bomb_on_the_wire_is_an_error_event_and_serve_keeps_going() {
    let mut serve = serve_command().spawn().expect("spawn dj serve");
    let mut stdin = serve.stdin.take().unwrap();
    let bomb = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    writeln!(stdin, "{{\"cmd\":{bomb}}}").unwrap();
    writeln!(
        stdin,
        concat!(
            "{{\"cmd\":\"submit\",\"recipe\":{{\"project_name\":\"after\",",
            "\"process\":[{{\"whitespace_normalization_mapper\":{{}}}}]}},",
            "\"texts\":[\"still   serving\"]}}"
        )
    )
    .unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    // Shutdown drains the job, then the process exits and stdout closes.
    let events: Vec<String> = BufReader::new(serve.stdout.take().unwrap())
        .lines()
        .map(Result::unwrap)
        .collect();
    assert!(serve.wait().unwrap().success(), "{events:?}");
    assert!(
        events[0].contains("\"error\"") && events[0].contains("nested deeper than 128"),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"done\"") && e.contains("\"samples_out\":1")),
        "{events:?}"
    );
}

/// Recipe parameters that size an allocation are checked where the
/// operator is built, not trusted by it: a MinHash `bands × rows` of
/// 9·10¹² words (an allocation that aborts the process) or of 2³² × 2³²
/// (0 once wrapped, a panic in the hasher) must be one `error` event each,
/// and the service goes on to run the next submission.
#[test]
fn oversized_minhash_params_are_error_events_and_serve_keeps_going() {
    let mut serve = serve_command().spawn().expect("spawn dj serve");
    let mut stdin = serve.stdin.take().unwrap();
    for side in ["3000000", "4294967296"] {
        writeln!(
            stdin,
            concat!(
                "{{\"cmd\":\"submit\",\"recipe\":{{\"process\":[",
                "{{\"document_minhash_deduplicator\":{{\"bands\":{side},\"rows\":{side}}}}}",
                "]}},\"texts\":[\"a b c\"]}}"
            ),
            side = side
        )
        .unwrap();
    }
    writeln!(
        stdin,
        concat!(
            "{{\"cmd\":\"submit\",\"recipe\":{{\"project_name\":\"after\",",
            "\"process\":[{{\"whitespace_normalization_mapper\":{{}}}}]}},",
            "\"texts\":[\"still   serving\"]}}"
        )
    )
    .unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    let events: Vec<String> = BufReader::new(serve.stdout.take().unwrap())
        .lines()
        .map(Result::unwrap)
        .collect();
    assert!(serve.wait().unwrap().success(), "{events:?}");
    for event in &events[..2] {
        assert!(
            event.contains("\"error\"") && event.contains("bands × rows"),
            "{events:?}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"done\"") && e.contains("\"samples_out\":1")),
        "{events:?}"
    );
}

/// `dj serve` owns `DJ_FAULTS`: a value that does not parse stops it at
/// startup with exit code 2 and a message naming the variable — before it
/// reads a command, so stdin stays open and unread here.
#[test]
fn a_malformed_fault_plan_stops_serve_before_it_reads_a_command() {
    let mut serve = serve_command()
        .env(FAULTS_ENV, "seed:x")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dj serve");
    let _stdin = serve.stdin.take().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            serve.kill().unwrap();
            serve.wait().unwrap();
            panic!("dj serve started with {FAULTS_ENV}=seed:x and waited for commands");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    serve
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(FAULTS_ENV), "{stderr}");
}

/// Every job `dj serve` runs gets the `DJ_FAULTS` plan, its own copy: a
/// transient fault on the first part write fails attempt 1, and the retry
/// — same plan, the fault spent — writes the parts a fault-free run writes.
#[test]
fn serve_hands_each_job_the_fault_plan_and_a_retry_absorbs_it() {
    let dir = fresh_dir("faults");
    let input = dir.join("in.jsonl");
    let lines: Vec<String> = (0..200)
        .map(|i| Sample::from_text(format!("faulted   serve sample {}", i % 150)))
        .map(|s| s.value().to_string())
        .collect();
    std::fs::write(&input, lines.join("\n") + "\n").unwrap();
    let (out_dir, baseline_dir) = (dir.join("out"), dir.join("baseline"));
    run_baseline(&input, &baseline_dir);

    let mut serve = serve_command()
        .env(FAULTS_ENV, "io.egress.write:io@1")
        .args(["--retries", "2"])
        .spawn()
        .expect("spawn dj serve");
    let mut stdin = serve.stdin.take().unwrap();
    let mut events = BufReader::new(serve.stdout.take().unwrap()).lines();
    writeln!(stdin, "{}", recipe_json(&input, &out_dir)).unwrap();
    stdin.flush().unwrap();
    let terminal = events
        .by_ref()
        .map(Result::unwrap)
        .find(|e| e.contains("\"done\"") || e.contains("\"failed\""))
        .expect("no terminal event");
    assert!(terminal.contains("\"done\""), "{terminal}");
    writeln!(stdin, "{{\"cmd\":\"status\",\"job\":0}}").unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    stdin.flush().unwrap();
    let rest: Vec<String> = events.map(Result::unwrap).collect();
    assert!(serve.wait().unwrap().success(), "{rest:?}");
    assert!(
        rest.iter()
            .any(|e| e.contains("\"status\"") && e.contains("\"attempts\":2")),
        "{rest:?}"
    );
    assert_eq!(egress_parts(&out_dir), egress_parts(&baseline_dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A re-admitted job gets an id no journaled job holds, so a job killed
/// twice — once as submitted, once as re-admitted — is still pending at the
/// second restart, which finishes it byte-identically. (With ids restarting
/// at 0 in every process, the replay journaled `submit 0` and `readmitted 0
/// as 0`, and the second restart took the job for finished.)
#[test]
fn a_job_killed_twice_is_readmitted_twice_and_finishes_byte_identically() {
    let dir = fresh_dir("kill-twice");
    let input = dir.join("in.jsonl");
    write_corpus(&input);
    let (out_dir, baseline_dir) = (dir.join("out"), dir.join("baseline"));
    let journal = dir.join("journal.jsonl");
    run_baseline(&input, &baseline_dir);

    // Round 1: killed while the job runs.
    submit_and_kill(&journal, &recipe_json(&input, &out_dir));

    // Round 2: the restart re-admits the job; killed again while it runs.
    let mut serve = spawn_serve(&journal);
    let _stdin = serve.stdin.take().unwrap();
    await_journal(&journal, "\"readmitted\"");
    serve.kill().unwrap();
    serve.wait().unwrap();
    let log = std::fs::read_to_string(&journal).unwrap();
    assert!(
        !log.contains("\"done\""),
        "re-admitted job finished before the second kill — grow the corpus: {log}"
    );

    // Round 3: re-admitted again, drained by the shutdown.
    restart_and_shut_down(&journal);
    let log = std::fs::read_to_string(&journal).unwrap();
    let events: Vec<(String, i64)> = log.lines().map(event_and_job).collect();
    let submits: Vec<i64> = events
        .iter()
        .filter(|(event, _)| event == "submit")
        .map(|(_, job)| *job)
        .collect();
    assert_eq!(submits, [0, 1, 2], "{log}");
    assert_eq!(log.matches("\"readmitted\"").count(), 2, "{log}");
    let done = ("done".to_string(), 2);
    assert!(events.contains(&done), "the job never finished: {log}");
    assert_eq!(egress_bytes(&out_dir), egress_bytes(&baseline_dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill can tear the journal's last line before its newline, even inside
/// a multi-byte character. The restart skips that fragment, re-admits the
/// complete submission before it and runs it to the end, and every event it
/// appends is a line of its own.
#[test]
fn a_torn_last_journal_line_is_skipped_and_the_next_event_starts_a_line() {
    let dir = fresh_dir("torn");
    let journal = dir.join("journal.jsonl");
    let submit = concat!(
        "{\"cmd\":\"submit\",\"recipe\":{\"project_name\":\"torn\",",
        "\"process\":[{\"whitespace_normalization_mapper\":{}},",
        "{\"document_deduplicator\":{}}]},",
        "\"texts\":[\"torn   one\",\"torn two\",\"torn   one\"]}"
    );
    let mut history = format!("{{\"event\":\"submit\",\"job\":0,\"cmd\":{submit}}}\n").into_bytes();
    // `é` is two bytes; the kill landed between them.
    let torn = "{\"event\":\"submit\",\"job\":1,\"cmd\":{\"recipe\":{\"project_name\":\"café";
    history.extend_from_slice(&torn.as_bytes()[..torn.len() - 1]);
    std::fs::write(&journal, &history).unwrap();

    restart_and_shut_down(&journal);
    let log = std::fs::read(&journal).unwrap();
    assert!(log.starts_with(&history), "the history was rewritten");
    let appended = std::str::from_utf8(&log[history.len()..]).unwrap();
    assert!(
        appended.starts_with('\n'),
        "the torn line was not terminated"
    );
    let mut events: Vec<(String, i64)> = appended
        .lines()
        .filter(|line| !line.is_empty())
        .map(event_and_job)
        .collect();
    // The replay's `readmitted` and the job's `done` may land either way.
    events.sort();
    assert_eq!(
        events,
        [
            ("done".to_string(), 1),
            ("readmitted".to_string(), 0),
            ("submit".to_string(), 1)
        ],
        "{appended}"
    );
    assert!(appended.contains("\"samples_out\":2"), "{appended}");
    let _ = std::fs::remove_dir_all(&dir);
}
