//! Thin handles on the public API of the stack under test: the experiment
//! spec factory, the serve daemon, remote workers, and the load drivers
//! that talk to the daemon through `ServeClient`.

use crate::trace::Tracer;
use humnet_core::experiments::ExperimentId;
use humnet_resilience::{
    dispatch_remote, DispatchConfig, DispatchOutcome, ExperimentSpec, JobError, JobOutput,
    RemoteOptions, RunArtifact, RunnerConfig, Schedule, ShardPlan, ShardSpec, SupervisedRun,
    Supervisor, Worker, WorkerConfig, WorkerFactory, WorkerSummary,
};
use humnet_serve::{
    Request, Response, ServeClient, ServeConfig, ServeSummary, Server, SpecFactory,
};
use humnet_telemetry::TelemetrySnapshot;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Client-side budget for connects and for one response.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// The `experiments` binary's spec factory, rebuilt here so the benchmark
/// runs exactly what the CLI runs.
pub fn spec_for(id: ExperimentId) -> ExperimentSpec {
    ExperimentSpec::new(id.code(), id.title(), id.family(), move |plan, tel| {
        id.run_instrumented(plan, tel)
            .map(|r| JobOutput {
                rendered: r.rendered,
                faults_injected: r.faults_injected,
            })
            .map_err(|e| Box::new(e) as JobError)
    })
}

pub fn lookup(code: &str) -> Option<ExperimentSpec> {
    ExperimentId::parse(code).map(spec_for)
}

pub fn all_specs() -> Vec<ExperimentSpec> {
    ExperimentId::ALL.iter().map(|&id| spec_for(id)).collect()
}

/// A supervisor at the CLI defaults (profile none, one retry), seeded.
pub fn supervisor(seed: u64, shards: u32, schedule: Schedule) -> Supervisor {
    Supervisor::builder()
        .seed(seed)
        .shards(shards)
        .schedule(schedule)
        .build()
}

/// The canonical artifact bytes of a run: what `run --report-out` writes
/// and what the serve cache stores.
pub fn artifact_json(run: &SupervisedRun) -> String {
    RunArtifact {
        report: run.report.clone(),
        outputs: run.outputs.clone(),
    }
    .canonicalized()
    .to_json()
    .expect("a run artifact always serializes")
}

/// Whether the run holds one completed row per spec.
pub fn all_ok(run: &SupervisedRun, expected_rows: usize) -> bool {
    run.report.experiments.len() == expected_rows
        && run.report.experiments.iter().all(|e| e.status.completed())
}

// ------------------------------------------------------------- daemon --

/// An in-process serve daemon on a loopback port with a private cache
/// directory that is removed when the daemon stops.
pub struct Daemon {
    pub addr: String,
    dir: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl Daemon {
    pub fn start(
        dir: PathBuf,
        concurrency: usize,
        max_entries: usize,
        seed: u64,
    ) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: dir.clone(),
            concurrency,
            cache_max_entries: max_entries,
            runner: RunnerConfig {
                seed,
                ..RunnerConfig::default()
            },
            ..ServeConfig::default()
        };
        let factory: SpecFactory = Arc::new(lookup);
        let server = Server::bind(config, factory).map_err(|e| format!("serve bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let stop = server.shutdown_handle();
        let thread = thread::Builder::new()
            .name("perfbench-serve".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn serve thread: {e}"))?;
        Ok(Daemon {
            addr,
            dir,
            stop,
            thread: Some(thread),
        })
    }

    pub fn client(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())
    }

    /// The daemon's telemetry, read through its `stats` command.
    pub fn stats(&self) -> Result<TelemetrySnapshot, String> {
        let resp = self.client()?.stats().map_err(|e| e.to_string())?;
        let json = resp.stats.ok_or("stats reply without a snapshot")?;
        TelemetrySnapshot::from_json(&json).map_err(|e| e.to_string())
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let result = match self.thread.take() {
            Some(thread) => {
                self.stop.store(true, Ordering::SeqCst);
                match thread.join() {
                    Ok(Ok(_)) => Ok(()),
                    Ok(Err(e)) => Err(format!("serve daemon: {e}")),
                    Err(_) => Err("serve daemon panicked".to_owned()),
                }
            }
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }

    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ------------------------------------------------------------ workers --

/// In-process remote workers on loopback ports.
pub struct Workers {
    pub addrs: Vec<String>,
    stops: Vec<Arc<AtomicBool>>,
    threads: Vec<JoinHandle<std::io::Result<WorkerSummary>>>,
}

impl Workers {
    pub fn start(n: usize) -> Result<Workers, String> {
        let mut workers = Workers {
            addrs: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..n {
            let worker =
                Worker::bind(WorkerConfig::default()).map_err(|e| format!("worker bind: {e}"))?;
            let addr = worker
                .local_addr()
                .map_err(|e| format!("worker addr: {e}"))?;
            workers.addrs.push(addr.to_string());
            workers.stops.push(worker.stop_flag());
            let factory: Arc<WorkerFactory> = Arc::new(lookup);
            let thread = thread::Builder::new()
                .name("perfbench-worker".to_owned())
                .spawn(move || worker.run(factory))
                .map_err(|e| format!("spawn worker thread: {e}"))?;
            workers.threads.push(thread);
        }
        Ok(workers)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for (stop, addr) in self.stops.iter().zip(&self.addrs) {
            stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept so the loop sees the flag.
            if let Ok(addr) = addr.parse() {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One `dispatch_remote` pass of `codes` split into `shards` leases, with
/// local failover off so every slice runs on a worker.
pub fn remote_pass(
    addrs: &[String],
    seed: u64,
    codes: &[&str],
    shards: u32,
    scratch: &Path,
) -> Result<DispatchOutcome, String> {
    let plan = ShardPlan::new(shards);
    let specs: Vec<ShardSpec> = (0..shards)
        .map(|k| {
            let range = plan.range(k, codes.len());
            ShardSpec {
                shard: k,
                spec_base: range.start as u64,
                codes: codes[range].iter().map(|c| (*c).to_owned()).collect(),
            }
        })
        .collect();
    let config = DispatchConfig {
        scratch: scratch.to_owned(),
        seed,
        ..DispatchConfig::default()
    };
    let remote = RemoteOptions {
        workers: addrs.to_vec(),
        local_failover: false,
        ..RemoteOptions::default()
    };
    let runner = RunnerConfig {
        seed,
        ..RunnerConfig::default()
    };
    // Never called: failover is off, so no slice is ever run locally.
    let no_local = |_: &ShardSpec, _: &humnet_resilience::ShardPaths| Command::new("false");
    dispatch_remote(&config, &remote, &runner, specs, no_local).map_err(|e| e.to_string())
}

// ------------------------------------------------------------ clients --

/// One planned request: a hit that must carry exactly the artifact that
/// filled the cache.
pub struct Planned {
    pub req: Request,
    /// Index of the expected artifact.
    pub expected: usize,
    /// Keep the response for the protocol timings after the phase.
    pub keep: bool,
}

/// Raw samples of one load phase across all connections.
#[derive(Default)]
pub struct LoadResult {
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub in_flight_max: usize,
    pub elapsed: Duration,
    pub kept: Vec<(Planned, Response)>,
}

impl LoadResult {
    fn absorb(&mut self, other: LoadResult) {
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.in_flight_max = self.in_flight_max.max(other.in_flight_max);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.kept.extend(other.kept);
    }
}

/// A response that is not a hit fails; a hit with other bytes than the
/// artifact that filled the cache is a mismatch, which makes the whole run
/// incorrect.
enum Verdict {
    Ok,
    Failed,
    Mismatch,
}

fn check(expected: &str, resp: &Response) -> Verdict {
    match (resp.status.as_str(), resp.artifact.as_deref()) {
        ("hit", Some(artifact)) if artifact == expected => Verdict::Ok,
        ("hit" | "miss", _) => Verdict::Mismatch,
        _ => Verdict::Failed,
    }
}

/// How requests are offered on each connection.
#[derive(Clone, Copy)]
pub enum Load {
    /// Open loop: request `i` is due at `i / rate` seconds, whatever the
    /// daemon is doing; latency counts from the due time.
    Open { rate_per_conn: f64 },
    /// Closed loop: keep `depth` requests pipelined until time is up.
    Closed { depth: usize },
}

/// Drive the daemon at `addr` from `conns` connections for `duration`.
/// `plan(conn, i)` makes the connection's `i`-th request; `expected`
/// holds the artifacts its hits must reproduce byte for byte. A transport
/// error fails every request still in flight and ends the connection.
pub fn drive<P>(
    addr: &str,
    conns: usize,
    load: Load,
    duration: Duration,
    plan: &P,
    expected: &[String],
    tracer: &Tracer,
) -> LoadResult
where
    P: Fn(usize, u64) -> Planned + Sync,
{
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = LoadResult::default();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    drive_one(
                        addr, conn, conns, load, start, duration, plan, expected, tracer,
                    )
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("load thread never panics"));
        }
    });
    total
}

#[allow(clippy::too_many_arguments)]
fn drive_one<P>(
    addr: &str,
    conn: usize,
    conns: usize,
    load: Load,
    start: Instant,
    duration: Duration,
    plan: &P,
    expected: &[String],
    tracer: &Tracer,
) -> LoadResult
where
    P: Fn(usize, u64) -> Planned + Sync,
{
    let mut out = LoadResult::default();
    let mut client = match ServeClient::connect(addr, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(_) => {
            out.sent = 1;
            out.failed = 1;
            return out;
        }
    };
    let end = start + duration;
    // Connections of one open loop are offset so their sends interleave.
    let due = |i: u64| -> Instant {
        match load {
            Load::Open { rate_per_conn } => {
                let offset = conn as f64 / (conns as f64 * rate_per_conn);
                start + Duration::from_secs_f64(offset + i as f64 / rate_per_conn)
            }
            Load::Closed { .. } => start,
        }
    };
    // (planned request, due time, op id, request span id) in send order.
    let mut pending: std::collections::VecDeque<(Planned, Instant, u64, u64)> = Default::default();
    let mut next: u64 = 0;
    let conn_base = (conn as u64) << 40;
    let mut broken = false;
    while !broken {
        let now = Instant::now();
        let may_send = match load {
            Load::Open { .. } => due(next) < end && now >= due(next),
            Load::Closed { depth } => now < end && pending.len() < depth,
        };
        if may_send {
            let planned = plan(conn, next);
            let due_at = match load {
                Load::Open { .. } => due(next),
                Load::Closed { .. } => now,
            };
            let op = conn_base | next;
            let span = tracer.new_id();
            let t0 = Instant::now();
            let sent = {
                let _s = tracer.span("client.send", op, span);
                client.send(&planned.req)
            };
            out.sent += 1;
            next += 1;
            if sent.is_err() {
                out.failed += 1;
                broken = true;
                continue;
            }
            if matches!(load, Load::Open { .. }) {
                out.lag_us
                    .push(t0.saturating_duration_since(due_at).as_secs_f64() * 1e6);
            }
            pending.push_back((planned, due_at, op, span));
            out.in_flight_max = out.in_flight_max.max(client.in_flight());
            continue;
        }
        if pending.is_empty() {
            match load {
                Load::Open { .. } if due(next) < end => {
                    thread::sleep(due(next).saturating_duration_since(Instant::now()));
                    continue;
                }
                _ => break,
            }
        }
        // Wait for a response, but no longer than the next send is due.
        let wait = match load {
            Load::Open { .. } if due(next) < end => due(next).saturating_duration_since(now),
            _ => CLIENT_TIMEOUT,
        };
        match client.recv_timeout(wait.max(Duration::from_micros(50))) {
            Ok(Some(resp)) => {
                let done = Instant::now();
                let (planned, due_at, op, span) = pending
                    .pop_front()
                    .expect("a response implies a pending request");
                tracer.record(span, "serve.request", op, 0, due_at, done);
                match check(&expected[planned.expected], &resp) {
                    Verdict::Ok => {
                        out.ok += 1;
                        out.latency_us.push((done - due_at).as_secs_f64() * 1e6);
                    }
                    Verdict::Failed => out.failed += 1,
                    Verdict::Mismatch => {
                        out.failed += 1;
                        out.mismatches += 1;
                    }
                }
                if planned.keep {
                    out.kept.push((planned, resp));
                }
            }
            Ok(None) => {
                if wait >= CLIENT_TIMEOUT {
                    broken = true;
                }
            }
            Err(_) => broken = true,
        }
    }
    out.failed += pending.len() as u64;
    // An open loop cut short still owed the rest of its schedule.
    if let Load::Open { .. } = load {
        while due(next) < end {
            out.sent += 1;
            out.failed += 1;
            next += 1;
        }
    }
    out.elapsed = Instant::now().saturating_duration_since(start);
    out
}
