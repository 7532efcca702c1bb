//! End-to-end capacity-ramp contracts, driving the real `experiments`
//! binary:
//!
//! - A short ramp against an overloadable self-spawned daemon finds a
//!   saturation knee inside the tested range and writes a well-formed,
//!   code-rev-stamped capacity report.
//! - Ramping an external daemon (`--addr`) leaves it healthy: a plain
//!   query succeeds after the overload phases, i.e. shedding recovered.
//! - Without `--history-file` a ramp reads and writes no capacity ledger,
//!   and `--trend` is a usage error.

use humnet::serve::ramp::CAPACITY_SCHEMA;
use humnet::serve::CapacityReport;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

/// A unique scratch dir per test so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("humnet-ramp-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A ramp schedule that saturates a held-worker daemon fast: capacity is
/// roughly `concurrency / hold` ≈ 20 rps, far below `--max-rps`, so the
/// knee must be found by shedding (the p99 SLO is set far out of reach).
const RAMP_ARGS: &[&str] = &[
    "--initial-rps",
    "4",
    "--increment-rps",
    "16",
    "--max-rps",
    "200",
    "--step-ms",
    "500",
    "--bisect-iters",
    "2",
    "--workers",
    "8",
    "--mix-seeds",
    "0",
    "--slo-p99-ms",
    "5000",
];

fn assert_well_formed_report(path: &std::path::Path, out: &Output) -> CapacityReport {
    assert!(out.status.success(), "{}", stderr(out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("max sustainable:"),
        "headline line missing:\n{stdout}"
    );
    let text = std::fs::read_to_string(path).expect("capacity report written");
    let report = CapacityReport::from_json(&text).expect("capacity report parses");
    assert_eq!(report.schema, CAPACITY_SCHEMA);
    assert!(!report.code_rev.is_empty(), "report must carry the code rev");
    assert!(report.saturated, "tiny daemon must saturate: {report:?}");
    assert!(
        report.max_sustainable_rps > 0.0 && report.max_sustainable_rps < report.max_rps,
        "knee must sit inside the tested range: {report:?}"
    );
    assert!(report.steps.len() >= 2, "{report:?}");
    assert!(
        report.steps.iter().any(|s| !s.pass),
        "an SLO-breaking step is what brackets the knee: {report:?}"
    );
    assert!(
        report.steps.iter().any(|s| s.pass),
        "a passing step is the other half of the bracket: {report:?}"
    );
    report
}

#[test]
fn self_spawned_ramp_finds_a_knee_and_writes_the_report() {
    let dir = scratch("self");
    let cache = dir.join("cache");
    let out_path = dir.join("CAPACITY.json");
    let history = dir.join("history.jsonl");
    let out = run(&[
        &[
            "ramp",
            "--hold-ms",
            "50",
            "--queue-depth",
            "2",
            "--concurrency",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--capacity-out",
            out_path.to_str().unwrap(),
            "--history-file",
            history.to_str().unwrap(),
        ],
        RAMP_ARGS,
    ]
    .concat());
    let report = assert_well_formed_report(&out_path, &out);
    // mix-seeds 0 = a fresh seed per request: the measured load is all
    // cache misses (every request runs an experiment).
    assert_eq!(report.steps.iter().map(|s| s.hits).sum::<u64>(), 0);
    assert!(
        stderr(&out).contains("spawned in-process daemon"),
        "{}",
        stderr(&out)
    );

    // The ramp appended this code-rev's knee to the trend ledger, and
    // --trend renders it without ramping again.
    assert!(
        stderr(&out).contains("capacity trend appended"),
        "{}",
        stderr(&out)
    );
    let ledger = std::fs::read_to_string(&history).expect("history ledger written");
    assert_eq!(ledger.lines().count(), 1, "{ledger}");
    assert!(ledger.contains(&report.code_rev), "{ledger}");
    let trend = run(&["ramp", "--trend", "--history-file", history.to_str().unwrap()]);
    assert!(trend.status.success(), "{}", stderr(&trend));
    let table = String::from_utf8_lossy(&trend.stdout).into_owned();
    assert!(table.contains("Capacity trend"), "{table}");
    assert!(table.contains(&report.code_rev), "{table}");
    assert!(table.contains("1 revision(s)"), "{table}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ramp_without_history_file_writes_no_ledger() {
    let dir = scratch("no-history");
    let out = Command::new(EXE)
        .current_dir(&dir)
        .args([
            "ramp",
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
            "--initial-rps",
            "5",
            "--increment-rps",
            "5",
            "--max-rps",
            "10",
            "--step-ms",
            "200",
            "--bisect-iters",
            "1",
        ])
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stderr(&out).contains("capacity trend"), "{}", stderr(&out));
    // Only the cache dir it was given: no ledger in the working directory.
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        entries,
        vec!["cache".to_owned()],
        "ramp left {entries:?} behind"
    );

    let trend = Command::new(EXE)
        .current_dir(&dir)
        .args(["ramp", "--trend"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(trend.status.code(), Some(2), "{}", stderr(&trend));
    assert!(
        stderr(&trend).contains("--history-file"),
        "{}",
        stderr(&trend)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the daemon on drop so a failed assertion never leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn ramp_against_an_external_daemon_leaves_it_serving() {
    let dir = scratch("external");
    let ready = dir.join("ready");
    let child = Command::new(EXE)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
            "--ready-file",
            ready.to_str().unwrap(),
            "--hold-ms",
            "50",
            "--queue-depth",
            "2",
            "--concurrency",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let t0 = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&ready) {
            let text = text.trim().to_owned();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "daemon never wrote its ready file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let daemon = Daemon { child, addr };

    let out_path = dir.join("CAPACITY.json");
    let history = dir.join("history.jsonl");
    let out = run(&[
        &[
            "ramp",
            "--addr",
            &daemon.addr,
            "--capacity-out",
            out_path.to_str().unwrap(),
            "--history-file",
            history.to_str().unwrap(),
        ],
        RAMP_ARGS,
    ]
    .concat());
    let report = assert_well_formed_report(&out_path, &out);
    assert_eq!(report.addr, daemon.addr);
    assert!(
        report.steps.iter().map(|s| s.shed).sum::<u64>() > 0,
        "overload past the knee must shed: {report:?}"
    );

    // Shed recovery: after the ramp drove the daemon past saturation, a
    // plain query is answered definitively (miss, not overloaded/hang).
    let after = run(&["query", "f1", "--addr", &daemon.addr, "--seed", "990099"]);
    assert!(after.status.success(), "{}", stderr(&after));
    assert!(stderr(&after).contains("query: miss"), "{}", stderr(&after));

    let down = run(&["query", "--shutdown", "--addr", &daemon.addr]);
    assert!(down.status.success(), "{}", stderr(&down));
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    std::mem::forget(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
