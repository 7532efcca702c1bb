//! The dispatch ladder: supervised shard leases over TCP workers.
//!
//! A [`Worker`] is a long-lived daemon (the `experiments worker`
//! subcommand) listening on a TCP socket for line-delimited JSON frames,
//! framed by the same [`LineBuffer`] the serve daemon uses. The
//! dispatcher leases it one shard slice at a time ([`Lease`]): experiment
//! codes, spec-base offset, and the full run configuration tuple (`seed`,
//! `profile`, `intensity`, `retries`, `deadline_ms`, `breaker_cooldown`).
//! The worker executes the slice on its warm in-process scheduler
//! runtime, streams heartbeat frames inline on the connection while the
//! run is in flight, and returns the serialized [`RunArtifact`] +
//! telemetry snapshot + event journal as the final `done` frame.
//!
//! [`dispatch_remote`] runs one attempt loop per shard with two kinds of
//! target:
//!
//! * a **remote worker** from `--workers`, rotated per attempt so a dead
//!   worker's slice lands on a survivor;
//! * a **fresh local worker** — a child process on loopback, started for
//!   one attempt through the caller's `build` closure, awaited on its
//!   ready file, leased, and killed and reaped when the attempt ends.
//!   `dispatch --procs K` without `--workers` uses only these; with
//!   `--workers` they are the failover rung once the remote attempts are
//!   spent.
//!
//! Every attempt obeys the same supervision contract:
//!
//! * **crash detection** — a worker that closes the connection, was never
//!   reachable, or (local) exited before it was ready fails the attempt;
//! * **deadlines** — a lease outliving the per-shard wall-clock budget is
//!   revoked by dropping the connection;
//! * **liveness** — a connection silent for longer than the grace window
//!   (no heartbeat *or* result frame) is declared partitioned and the
//!   lease revoked;
//! * **retry** — a failed slice is retried with the deterministic
//!   per-shard [`Backoff`] stream (`seed ^ shard`); only when every
//!   attempt is spent does the shard go missing — loudly, or degraded
//!   under `allow_partial`.
//!
//! Merging is [`crate::dispatch::merge_outcomes`], so the merged
//! canonical journal stays **byte-identical** to the in-process 1-shard
//! run even when a worker is killed mid-lease and its slice is re-leased.
//!
//! Fault injection rides on the wire: a [`ChaosNet`] spec (`kill:1`,
//! `stall:0:1`, `garble:1`) makes the dispatcher stamp a chaos directive
//! onto the matching `(target, attempt)` lease frame, and the cooperating
//! worker drops the connection mid-lease, goes silent holding it open,
//! or emits a corrupt frame. A worker can also be poisoned at startup via
//! the [`CHAOS_NET_ENV`] environment variable ([`WorkerChaos`]: `kill:2`
//! fires on its third accepted lease) so partition tests need no
//! dispatcher cooperation at all.

use crate::backoff::Backoff;
use crate::dispatch::{
    merge_outcomes, AttemptFailure, DispatchConfig, DispatchError, DispatchOutcome, MissingShard,
    ShardOutcome, ShardPaths, ShardSpec, ShardYield,
};
use crate::fault::FaultProfile;
use crate::framing::LineBuffer;
use crate::report::RunArtifact;
use crate::runner::{ExperimentSpec, RunnerConfig, Supervisor};
use humnet_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable that poisons a worker daemon at startup:
/// `kill[:n]`, `stall[:n]`, or `garble[:n]` makes the worker misbehave on
/// its `n`-th accepted lease (0-based, default 0). The connection-frame
/// path (`--chaos-net` on `dispatch`) needs no environment at all, and
/// local worker children never inherit this variable.
pub const CHAOS_NET_ENV: &str = "HUMNET_CHAOS_NET";

/// How a chaos-selected worker misbehaves on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Drop the connection abruptly mid-lease (simulated worker crash).
    Kill,
    /// Hold the connection open but send nothing (simulated partition /
    /// wedge — the dispatcher's liveness window must fire).
    Stall,
    /// Emit a corrupt, non-JSON frame (simulated wire damage).
    Garble,
}

impl ChaosKind {
    /// Wire label (`kill` / `stall` / `garble`).
    pub fn label(self) -> &'static str {
        match self {
            ChaosKind::Kill => "kill",
            ChaosKind::Stall => "stall",
            ChaosKind::Garble => "garble",
        }
    }

    /// Parse a wire label back.
    pub fn parse(s: &str) -> Option<ChaosKind> {
        match s {
            "kill" => Some(ChaosKind::Kill),
            "stall" => Some(ChaosKind::Stall),
            "garble" => Some(ChaosKind::Garble),
            _ => None,
        }
    }
}

/// One network-level fault injection, dispatcher-side: which target,
/// which lease attempt. The target of a remote attempt is its index in
/// the `--workers` list; the target of a local attempt is its shard
/// (local worker `k` is shard `k`'s worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosNet {
    /// The fault to inject.
    pub kind: ChaosKind,
    /// Targeted remote worker index, or shard index for local workers.
    pub worker: u32,
    /// Shard attempt the fault fires on (0 = first lease of a shard).
    pub lease: u32,
}

impl ChaosNet {
    /// Parse a `--chaos-net` argument:
    /// `kill:<worker>[:lease]`, `stall:<worker>[:lease]`, or
    /// `garble:<worker>[:lease]`.
    pub fn parse(s: &str) -> Option<ChaosNet> {
        let mut parts = s.split(':');
        let kind = ChaosKind::parse(parts.next()?)?;
        let worker: u32 = parts.next()?.parse().ok()?;
        let lease: u32 = match parts.next() {
            Some(a) => a.parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(ChaosNet { kind, worker, lease })
    }

    /// The directive to stamp onto the lease frame for `(target, attempt)`,
    /// if this fault targets it.
    pub fn directive(&self, worker: u32, attempt: u32) -> Option<ChaosKind> {
        (self.worker == worker && self.lease == attempt).then_some(self.kind)
    }
}

/// A standalone worker-side fault parsed from [`CHAOS_NET_ENV`]:
/// fires on the worker's `lease`-th accepted lease, whatever dispatcher
/// sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerChaos {
    /// The fault to inject.
    pub kind: ChaosKind,
    /// 0-based index of the accepted lease the fault fires on.
    pub lease: u64,
}

impl WorkerChaos {
    /// Parse a [`CHAOS_NET_ENV`] value: `kill[:n]`, `stall[:n]`,
    /// `garble[:n]`.
    pub fn parse(s: &str) -> Option<WorkerChaos> {
        let mut parts = s.split(':');
        let kind = ChaosKind::parse(parts.next()?)?;
        let lease: u64 = match parts.next() {
            Some(a) => a.parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(WorkerChaos { kind, lease })
    }
}

// ---------------------------------------------------------------------------
// Wire frames (line-delimited JSON, one frame per line, framed by
// `LineBuffer`; plain `Option` fields so absent keys read as `None`).
// ---------------------------------------------------------------------------

/// A dispatcher → worker request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// `lease` (execute a shard slice) or `shutdown` (drain the worker).
    pub cmd: String,
    /// Dispatcher-chosen lease id, echoed on every response frame.
    pub lease: Option<u64>,
    /// Shard index the slice belongs to.
    pub shard: Option<u32>,
    /// Offset of the slice in the full experiment list.
    pub spec_base: Option<u64>,
    /// Experiment codes in the slice, canonical order.
    pub experiments: Option<Vec<String>>,
    /// Run seed.
    pub seed: Option<u64>,
    /// Fault profile label.
    pub profile: Option<String>,
    /// Fault intensity multiplier.
    pub intensity: Option<f64>,
    /// Per-experiment retry budget.
    pub retries: Option<u32>,
    /// Per-attempt deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Breaker half-open cooldown.
    pub breaker_cooldown: Option<u32>,
    /// Chaos directive ([`ChaosKind`] label) the worker should cooperate
    /// with on this lease; absent in production traffic.
    pub chaos: Option<String>,
}

impl Lease {
    /// A lease frame for one shard slice under `runner`'s configuration.
    pub fn for_shard(spec: &ShardSpec, runner: &RunnerConfig, lease_id: u64) -> Lease {
        Lease {
            cmd: "lease".to_owned(),
            lease: Some(lease_id),
            shard: Some(spec.shard),
            spec_base: Some(spec.spec_base),
            experiments: Some(spec.codes.clone()),
            seed: Some(runner.seed),
            profile: Some(runner.profile.label().to_owned()),
            intensity: Some(runner.intensity),
            retries: Some(runner.retries),
            deadline_ms: Some(runner.deadline.as_millis() as u64),
            breaker_cooldown: Some(runner.breaker_cooldown),
            chaos: None,
        }
    }

    /// A graceful drain request.
    pub fn shutdown() -> Lease {
        Lease {
            cmd: "shutdown".to_owned(),
            lease: None,
            shard: None,
            spec_base: None,
            experiments: None,
            seed: None,
            profile: None,
            intensity: None,
            retries: None,
            deadline_ms: None,
            breaker_cooldown: None,
            chaos: None,
        }
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parse one wire line.
    pub fn from_line(line: &str) -> Result<Lease, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

/// A worker → dispatcher response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerFrame {
    /// `hb` (inline heartbeat), `done` (final result), `error`, or `ok`
    /// (shutdown acknowledged).
    pub status: String,
    /// Lease id this frame answers.
    pub lease: Option<u64>,
    /// Heartbeat counter, monotonic per lease.
    pub beat: Option<u64>,
    /// Shard index of the slice (on `done`).
    pub shard: Option<u32>,
    /// Serialized canonical [`RunArtifact`] JSON (on `done`).
    pub artifact: Option<String>,
    /// Serialized telemetry snapshot JSON, events included (on `done`).
    pub metrics: Option<String>,
    /// Event journal JSONL (on `done`; debugging aid — the merge reads
    /// events from the metrics snapshot).
    pub journal: Option<String>,
    /// Human-readable failure (on `error`).
    pub message: Option<String>,
}

impl WorkerFrame {
    fn empty(status: &str) -> WorkerFrame {
        WorkerFrame {
            status: status.to_owned(),
            lease: None,
            beat: None,
            shard: None,
            artifact: None,
            metrics: None,
            journal: None,
            message: None,
        }
    }

    /// An inline heartbeat for a lease in flight.
    pub fn hb(lease: u64, beat: u64) -> WorkerFrame {
        WorkerFrame {
            lease: Some(lease),
            beat: Some(beat),
            ..WorkerFrame::empty("hb")
        }
    }

    /// The final result frame of a completed lease.
    pub fn done(
        lease: u64,
        shard: u32,
        artifact: String,
        metrics: String,
        journal: String,
    ) -> WorkerFrame {
        WorkerFrame {
            lease: Some(lease),
            shard: Some(shard),
            artifact: Some(artifact),
            metrics: Some(metrics),
            journal: Some(journal),
            ..WorkerFrame::empty("done")
        }
    }

    /// A lease-level failure the worker could diagnose itself.
    pub fn error(lease: Option<u64>, message: impl Into<String>) -> WorkerFrame {
        WorkerFrame {
            lease,
            message: Some(message.into()),
            ..WorkerFrame::empty("error")
        }
    }

    /// Shutdown acknowledgement.
    pub fn ok() -> WorkerFrame {
        WorkerFrame::empty("ok")
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parse one wire line.
    pub fn from_line(line: &str) -> Result<WorkerFrame, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

// ---------------------------------------------------------------------------
// Dispatcher side
// ---------------------------------------------------------------------------

/// How often a waiting dispatcher re-checks a lease's deadline and
/// liveness, and a local worker child's ready file.
const POLL: Duration = Duration::from_millis(1);

/// Worker-related knobs layered on top of [`DispatchConfig`] (which keeps
/// supplying the shared supervision budget: `shard_retries`,
/// `shard_deadline`, `liveness`, backoff, `allow_partial`).
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Remote worker addresses (`host:port`), in `--workers` order.
    /// Retries rotate through this list so a dead worker's slice lands on
    /// a survivor. Empty means every attempt leases to a fresh local
    /// worker child.
    pub workers: Vec<String>,
    /// Per-dial TCP connect budget; also how long a local worker child
    /// may take to write its ready file.
    pub connect_timeout: Duration,
    /// Network-level fault injections (testing/CI).
    pub chaos: Vec<ChaosNet>,
    /// After the remote attempts are spent, retry the slice on fresh
    /// local worker children before declaring the shard missing.
    pub local_failover: bool,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            workers: Vec::new(),
            connect_timeout: Duration::from_secs(5),
            chaos: Vec::new(),
            local_failover: true,
        }
    }
}

/// Run `shards` as supervised leases and merge their results.
///
/// The ladder per shard: remote attempts `0..=shard_retries` against the
/// `workers` (rotated per attempt), then — with no `workers`, or unless
/// `local_failover` is off — `shard_retries + 1` more attempts on fresh
/// local worker children, then missing. Retries sleep on the
/// deterministic [`Backoff`] stream of `seed ^ shard`.
///
/// `build` constructs the command for a local worker child: the
/// `experiments` binary passes `worker --addr 127.0.0.1:0 --ready-file
/// <paths.ready>`; tests can substitute anything that writes a
/// listening worker's address to the ready file. The dispatcher owns
/// everything around it: the attempt directory, stdio capture into the
/// attempt's log, the ready wait, the lease, and killing and reaping the
/// child when the attempt ends. Merging is shared, so the canonical
/// journal is byte-identical to the in-process run regardless of which
/// target produced each slice.
///
/// Shards with empty `codes` are skipped without leasing (they could not
/// contribute events or report rows).
pub fn dispatch_remote<F>(
    config: &DispatchConfig,
    remote: &RemoteOptions,
    runner: &RunnerConfig,
    shards: Vec<ShardSpec>,
    build: F,
) -> Result<DispatchOutcome, DispatchError>
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command + Sync,
{
    fs::create_dir_all(&config.scratch).map_err(|e| DispatchError::Scratch(e.to_string()))?;
    let planned: usize = shards.iter().map(|s| s.codes.len()).sum();

    let outcomes: Vec<ShardOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .filter(|spec| !spec.codes.is_empty())
            .map(|spec| scope.spawn(|| supervise_shard(config, remote, runner, spec, &build)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard lease watcher never panics"))
            .collect()
    });

    let missing: Vec<MissingShard> = outcomes
        .iter()
        .filter_map(|o| match &o.result {
            Ok(_) => None,
            Err(failure) => Some(MissingShard {
                shard: o.spec.shard,
                attempts: o.attempts,
                codes: o.spec.codes.clone(),
                reason: failure.to_string(),
            }),
        })
        .collect();
    if !missing.is_empty() && !config.allow_partial {
        return Err(DispatchError::ShardsFailed(missing));
    }

    Ok(merge_outcomes(runner, planned, outcomes, missing))
}

/// Supervise one shard: lease, watch, retry — remote attempts first, then
/// local ones.
fn supervise_shard<F>(
    config: &DispatchConfig,
    remote: &RemoteOptions,
    runner: &RunnerConfig,
    spec: ShardSpec,
    build: &F,
) -> ShardOutcome
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command,
{
    let backoff = Backoff::for_shard(config.backoff_base, config.seed, spec.shard);
    let tries = config.shard_retries + 1;
    let remote_tries = if remote.workers.is_empty() { 0 } else { tries };
    let local_tries = if remote_tries == 0 || remote.local_failover { tries } else { 0 };
    let attempts = remote_tries + local_tries;
    let mut last = AttemptFailure::Lease("never attempted".to_owned());
    for attempt in 0..attempts {
        let local = attempt >= remote_tries;
        if attempt > 0 {
            if local && attempt == remote_tries {
                eprintln!(
                    "dispatch: shard {} failing over to a local child worker after {attempt} remote attempts: {last}",
                    spec.shard
                );
            } else {
                let rung = if local { "" } else { "remote " };
                eprintln!(
                    "dispatch: shard {} {rung}attempt {attempt} after failure: {last}",
                    spec.shard
                );
            }
            thread::sleep(backoff.delay(attempt - 1));
        }
        let result = if local {
            let chaos = remote.chaos.iter().find_map(|c| c.directive(spec.shard, attempt));
            local_attempt(config, remote, runner, &spec, attempt, chaos, build)
        } else {
            let widx = (spec.shard + attempt) as usize % remote.workers.len();
            let chaos = remote.chaos.iter().find_map(|c| c.directive(widx as u32, attempt));
            let addr = &remote.workers[widx];
            lease_attempt(config, remote, runner, &spec, attempt, addr, chaos)
        };
        match result {
            Ok(yielded) => {
                return ShardOutcome {
                    spec,
                    attempts: attempt + 1,
                    result: Ok(yielded),
                };
            }
            Err(failure) => last = failure,
        }
    }
    let rung = if local_tries == 0 { "remote " } else { "" };
    eprintln!(
        "dispatch: shard {} gave up after {attempts} {rung}attempts: {last}",
        spec.shard
    );
    ShardOutcome {
        spec,
        attempts,
        result: Err(last),
    }
}

/// A local worker child, killed and reaped when the attempt that started
/// it ends — whichever way it ends.
struct LocalWorker(Child);

impl Drop for LocalWorker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl LocalWorker {
    /// Wait up to `budget` for the child to write its bound address to
    /// `ready`. A child that exits first never becomes ready.
    fn wait_ready(&mut self, ready: &Path, budget: Duration) -> Result<String, AttemptFailure> {
        let started = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(ready) {
                let addr = text.trim();
                if !addr.is_empty() {
                    return Ok(addr.to_owned());
                }
            }
            if let Ok(Some(status)) = self.0.try_wait() {
                return Err(AttemptFailure::Spawn(format!(
                    "exited before it was ready ({status})"
                )));
            }
            if started.elapsed() >= budget {
                return Err(AttemptFailure::Spawn(format!(
                    "not ready within {}ms",
                    budget.as_millis()
                )));
            }
            thread::sleep(POLL);
        }
    }
}

/// One attempt on a fresh local worker child: start it, wait for its
/// ready file, lease to it, then kill and reap it. A successful attempt's
/// directory is removed (unless `keep_scratch`); a failed one keeps the
/// child's log.
fn local_attempt<F>(
    config: &DispatchConfig,
    remote: &RemoteOptions,
    runner: &RunnerConfig,
    spec: &ShardSpec,
    attempt: u32,
    chaos: Option<ChaosKind>,
    build: &F,
) -> Result<ShardYield, AttemptFailure>
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command,
{
    let spawn_err = |e: std::io::Error| AttemptFailure::Spawn(e.to_string());
    let paths = ShardPaths::new(&config.scratch, spec.shard, attempt);
    fs::create_dir_all(&paths.dir).map_err(spawn_err)?;
    let log = fs::File::create(&paths.log).map_err(spawn_err)?;
    let log_err = log.try_clone().map_err(spawn_err)?;
    let mut cmd = build(spec, &paths);
    // Chaos for local workers travels on the lease frame only.
    cmd.env_remove(CHAOS_NET_ENV)
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(log_err);
    let mut worker = LocalWorker(cmd.spawn().map_err(spawn_err)?);
    let addr = worker.wait_ready(&paths.ready, remote.connect_timeout)?;
    let result = lease_attempt(config, remote, runner, spec, attempt, &addr, chaos);
    // Kill and reap before the attempt directory can go.
    drop(worker);
    if result.is_ok() && !config.keep_scratch {
        let _ = fs::remove_dir_all(&paths.dir);
    }
    result
}

/// Dial every resolved address for `addr` until one connects in budget.
fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?;
    let mut last = std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        format!("no addresses resolved for {addr}"),
    );
    for sock in resolved {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One lease-watch-collect cycle against the worker at `addr`. Dropping
/// the stream on any exit path *is* the lease revocation: the worker
/// notices the dead connection on its next frame write and abandons the
/// result.
fn lease_attempt(
    config: &DispatchConfig,
    remote: &RemoteOptions,
    runner: &RunnerConfig,
    spec: &ShardSpec,
    attempt: u32,
    addr: &str,
    chaos: Option<ChaosKind>,
) -> Result<ShardYield, AttemptFailure> {
    let fail = |msg: String| AttemptFailure::Lease(format!("worker {addr}: {msg}"));

    let mut stream =
        connect(addr, remote.connect_timeout).map_err(|e| fail(format!("connect failed: {e}")))?;
    let _ = stream.set_nodelay(true);

    let lease_id = (u64::from(spec.shard) << 16) | u64::from(attempt);
    let mut lease = Lease::for_shard(spec, runner, lease_id);
    lease.chaos = chaos.map(|k| k.label().to_owned());
    let line = lease
        .to_line()
        .map_err(|e| fail(format!("lease not serializable: {e}")))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| fail(format!("lease send failed: {e}")))?;

    // Short read timeout so deadline/liveness checks interleave with the
    // blocking reads.
    let _ = stream.set_read_timeout(Some(POLL));

    let started = Instant::now();
    let mut last_frame = Instant::now();
    let mut framer = LineBuffer::new();
    let mut chunk = [0u8; 8192];
    loop {
        while let Some(line) = framer.next_line() {
            let frame = WorkerFrame::from_line(&line).map_err(|_| {
                let shown: String = line.chars().take(80).collect();
                fail(format!("garbled frame: {shown:?}"))
            })?;
            last_frame = Instant::now();
            match frame.status.as_str() {
                "hb" => {}
                "done" => return collect_done(&frame, config, spec, attempt).map_err(fail),
                "error" => {
                    let msg = frame.message.unwrap_or_else(|| "unspecified".to_owned());
                    return Err(fail(format!("lease refused: {msg}")));
                }
                other => return Err(fail(format!("unexpected frame status {other:?}"))),
            }
        }
        if started.elapsed() >= config.shard_deadline {
            return Err(fail(format!(
                "lease exceeded the {}ms shard deadline; revoked",
                config.shard_deadline.as_millis()
            )));
        }
        if !config.liveness.is_zero() && last_frame.elapsed() >= config.liveness {
            return Err(fail(format!(
                "no heartbeat or result frame for {}ms; worker declared partitioned and lease revoked",
                last_frame.elapsed().as_millis()
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(fail("connection closed mid-lease".to_owned())),
            Ok(n) => framer.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(fail(format!("read failed: {e}"))),
        }
    }
}

/// Parse a `done` frame into the shard's yield; under `keep_scratch`,
/// also persist the frame's artifacts into the attempt's directory for
/// inspection.
fn collect_done(
    frame: &WorkerFrame,
    config: &DispatchConfig,
    spec: &ShardSpec,
    attempt: u32,
) -> Result<ShardYield, String> {
    let artifact_json = frame
        .artifact
        .as_deref()
        .ok_or_else(|| "done frame missing artifact".to_owned())?;
    let metrics_json = frame
        .metrics
        .as_deref()
        .ok_or_else(|| "done frame missing metrics".to_owned())?;
    let artifact = RunArtifact::from_json(artifact_json)
        .map_err(|e| format!("done frame artifact unusable: {e}"))?;
    let telemetry = TelemetrySnapshot::from_json(metrics_json)
        .map_err(|e| format!("done frame metrics unusable: {e}"))?;
    if config.keep_scratch {
        let paths = ShardPaths::new(&config.scratch, spec.shard, attempt);
        if fs::create_dir_all(&paths.dir).is_ok() {
            let _ = fs::write(&paths.report, artifact_json);
            let _ = fs::write(&paths.metrics, metrics_json);
            if let Some(journal) = frame.journal.as_deref() {
                let _ = fs::write(&paths.journal, journal);
            }
        }
    }
    Ok(ShardYield { artifact, telemetry })
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Maps an experiment code to a runnable spec; the worker binary supplies
/// its registry, tests supply toys.
pub type WorkerFactory = dyn Fn(&str) -> Option<ExperimentSpec> + Send + Sync;

/// Worker daemon knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Listen address; port 0 picks a free port (read it back via
    /// [`Worker::local_addr`]).
    pub addr: String,
    /// Base runner configuration; each lease overlays its own tuple
    /// (seed, profile, intensity, retries, deadline, breaker cooldown).
    pub runner: RunnerConfig,
    /// Inline heartbeat cadence while a lease is executing.
    pub heartbeat: Duration,
    /// Standalone startup poison from [`CHAOS_NET_ENV`], if any.
    pub chaos: Option<WorkerChaos>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: "127.0.0.1:0".to_owned(),
            runner: RunnerConfig::default(),
            heartbeat: Duration::from_millis(100),
            chaos: None,
        }
    }
}

/// What a drained worker daemon reports on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases accepted over the daemon's lifetime.
    pub leases: u64,
    /// Leases that returned a `done` frame.
    pub completed: u64,
    /// Leases lost to chaos injection or revoked connections.
    pub faulted: u64,
}

struct WorkerState {
    config: WorkerConfig,
    factory: Arc<WorkerFactory>,
    stop: Arc<AtomicBool>,
    leases: AtomicU64,
    completed: AtomicU64,
    faulted: AtomicU64,
}

/// The long-lived worker daemon behind `experiments worker`.
pub struct Worker {
    listener: TcpListener,
    config: WorkerConfig,
    stop: Arc<AtomicBool>,
}

impl Worker {
    /// Bind the listen socket (so port 0 resolves before [`Worker::run`]
    /// blocks in accept).
    pub fn bind(config: WorkerConfig) -> std::io::Result<Worker> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Worker {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the real port when the config asked for 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Flag that makes the accept loop exit after its next wake; pair with
    /// a throwaway connection to the listen address to wake it promptly.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accept and serve lease connections until a `shutdown` frame (or the
    /// stop flag) drains the daemon. Each connection gets its own thread;
    /// the dispatcher sends one lease at a time per connection.
    pub fn run(self, factory: Arc<WorkerFactory>) -> std::io::Result<WorkerSummary> {
        let addr = self.local_addr()?;
        let state = Arc::new(WorkerState {
            config: self.config,
            factory,
            stop: Arc::clone(&self.stop),
            leases: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
        });
        for conn in self.listener.incoming() {
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let state = Arc::clone(&state);
            let worker_addr = addr;
            thread::spawn(move || serve_lease_connection(&state, stream, worker_addr));
        }
        Ok(WorkerSummary {
            leases: state.leases.load(Ordering::SeqCst),
            completed: state.completed.load(Ordering::SeqCst),
            faulted: state.faulted.load(Ordering::SeqCst),
        })
    }
}

/// Write one frame line; an `Err` means the dispatcher is gone (lease
/// revoked) and the connection should be abandoned.
fn write_frame(stream: &mut TcpStream, frame: &WorkerFrame) -> std::io::Result<()> {
    let line = frame.to_line().map_err(std::io::Error::other)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()
}

/// Serve one dispatcher connection: parse request frames, execute leases
/// with inline heartbeats, answer shutdown.
fn serve_lease_connection(state: &WorkerState, mut stream: TcpStream, addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut framer = LineBuffer::new();
    let mut chunk = [0u8; 8192];
    loop {
        while let Some(line) = framer.next_line() {
            let request = match Lease::from_line(&line) {
                Ok(request) => request,
                Err(e) => {
                    let _ = write_frame(&mut stream, &WorkerFrame::error(None, format!("unparseable request: {e}")));
                    continue;
                }
            };
            match request.cmd.as_str() {
                "lease" => {
                    let nth = state.leases.fetch_add(1, Ordering::SeqCst);
                    if execute_lease(state, &mut stream, request, nth).is_err() {
                        // The dispatcher revoked the lease (or chaos cut the
                        // wire): the connection is dead, abandon it.
                        state.faulted.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
                "shutdown" => {
                    let _ = write_frame(&mut stream, &WorkerFrame::ok());
                    state.stop.store(true, Ordering::SeqCst);
                    // Wake the blocking accept so the daemon can exit.
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                    return;
                }
                other => {
                    let _ = write_frame(
                        &mut stream,
                        &WorkerFrame::error(request.lease, format!("unknown cmd {other:?}")),
                    );
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => framer.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Execute one lease on the warm runtime, streaming heartbeats while the
/// run is in flight. `Err` means the connection died mid-lease.
fn execute_lease(
    state: &WorkerState,
    stream: &mut TcpStream,
    request: Lease,
    nth: u64,
) -> std::io::Result<()> {
    let lease_id = request.lease.unwrap_or(nth);
    let shard = request.shard.unwrap_or(0);

    // Chaos cooperation: a directive stamped on the frame by the
    // dispatcher, or the startup poison from CHAOS_NET_ENV firing on this
    // accepted lease — frame wins when both are present.
    let chaos = request
        .chaos
        .as_deref()
        .and_then(ChaosKind::parse)
        .or_else(|| {
            state
                .config
                .chaos
                .filter(|c| c.lease == nth)
                .map(|c| c.kind)
        });
    if let Some(kind) = chaos {
        return inject_chaos(state, stream, kind, lease_id);
    }

    let codes = request.experiments.clone().unwrap_or_default();
    if codes.is_empty() {
        return write_frame(stream, &WorkerFrame::error(Some(lease_id), "empty lease"));
    }
    let mut specs = Vec::with_capacity(codes.len());
    for code in &codes {
        match (state.factory)(code) {
            Some(spec) => specs.push(spec),
            None => {
                return write_frame(
                    stream,
                    &WorkerFrame::error(Some(lease_id), format!("unknown experiment {code:?}")),
                );
            }
        }
    }

    let mut config = state.config.runner;
    if let Some(label) = request.profile.as_deref() {
        match FaultProfile::parse(label) {
            Some(profile) => config.profile = profile,
            None => {
                return write_frame(
                    stream,
                    &WorkerFrame::error(Some(lease_id), format!("unknown fault profile {label:?}")),
                );
            }
        }
    }
    if let Some(seed) = request.seed {
        config.seed = seed;
    }
    if let Some(intensity) = request.intensity {
        config.intensity = intensity;
    }
    if let Some(retries) = request.retries {
        config.retries = retries;
    }
    if let Some(ms) = request.deadline_ms {
        config.deadline = Duration::from_millis(ms);
    }
    if let Some(cooldown) = request.breaker_cooldown {
        config.breaker_cooldown = cooldown;
    }
    // The global quiet-panics hook is unsafe to toggle from concurrent
    // lease threads (same reasoning as the serve daemon).
    config.quiet_panics = false;

    eprintln!(
        "worker: lease {lease_id} shard {shard} ({} experiments, seed {}, profile {})",
        codes.len(),
        config.seed,
        config.profile.label(),
    );

    // Execute on a runner thread; heartbeat on the connection thread so
    // liveness frames flow while the slice runs.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let run = Supervisor::builder().config(config).build().run(&specs);
        let _ = tx.send(run);
    });
    let mut beat = 0u64;
    loop {
        match rx.recv_timeout(state.config.heartbeat) {
            Ok(run) => {
                let artifact = RunArtifact {
                    report: run.report,
                    outputs: run.outputs,
                }
                .canonicalized();
                let frame = match (
                    artifact.to_json(),
                    run.telemetry.to_json(),
                    run.telemetry.to_jsonl(),
                ) {
                    (Ok(artifact), Ok(metrics), Ok(journal)) => {
                        WorkerFrame::done(lease_id, shard, artifact, metrics, journal)
                    }
                    _ => WorkerFrame::error(Some(lease_id), "result not serializable"),
                };
                write_frame(stream, &frame)?;
                if frame.status == "done" {
                    state.completed.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                beat += 1;
                write_frame(stream, &WorkerFrame::hb(lease_id, beat))?;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return write_frame(
                    stream,
                    &WorkerFrame::error(Some(lease_id), "lease execution thread died"),
                );
            }
        }
    }
}

/// Cooperate with a chaos directive: crash the connection, go silent, or
/// corrupt the stream — always *after* the lease was accepted, so the
/// dispatcher sees a mid-lease fault, not a refused one.
fn inject_chaos(
    state: &WorkerState,
    stream: &mut TcpStream,
    kind: ChaosKind,
    lease_id: u64,
) -> std::io::Result<()> {
    state.faulted.fetch_add(1, Ordering::SeqCst);
    match kind {
        ChaosKind::Kill => {
            eprintln!("worker: chaos-net kill — dropping the connection mid-lease {lease_id}");
            // One heartbeat first: the lease is visibly in flight when the
            // wire goes dead.
            let _ = write_frame(stream, &WorkerFrame::hb(lease_id, 1));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            Err(std::io::Error::other("chaos-net kill"))
        }
        ChaosKind::Stall => {
            eprintln!("worker: chaos-net stall — holding lease {lease_id} open silently");
            // Hold the connection open sending nothing until the dispatcher
            // revokes it (EOF on our side) — bounded so a stalled thread
            // cannot outlive the test run by much.
            let deadline = Instant::now() + Duration::from_secs(3600);
            let mut sink = [0u8; 256];
            loop {
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
                if Instant::now() >= deadline {
                    break;
                }
                thread::sleep(Duration::from_millis(25));
            }
            Err(std::io::Error::other("chaos-net stall"))
        }
        ChaosKind::Garble => {
            eprintln!("worker: chaos-net garble — emitting a corrupt frame on lease {lease_id}");
            let _ = stream.write_all(b"}{ not a frame \xff\n");
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            Err(std::io::Error::other("chaos-net garble"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobOutput;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "humnet-remote-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn toy_factory() -> Arc<WorkerFactory> {
        Arc::new(|code: &str| {
            if !code.starts_with("exp") {
                return None;
            }
            let code = code.to_owned();
            Some(ExperimentSpec::new(
                code.clone(),
                format!("title {code}"),
                "fam",
                move |_plan, _tel| {
                    Ok(JobOutput {
                        rendered: format!("{code} output"),
                        faults_injected: 0,
                    })
                },
            ))
        })
    }

    fn start_worker(chaos: Option<WorkerChaos>) -> (String, Arc<AtomicBool>) {
        let worker = Worker::bind(WorkerConfig {
            heartbeat: Duration::from_millis(20),
            chaos,
            ..WorkerConfig::default()
        })
        .expect("worker binds");
        let addr = worker.local_addr().unwrap().to_string();
        let stop = worker.stop_flag();
        let factory = toy_factory();
        thread::spawn(move || worker.run(factory));
        (addr, stop)
    }

    fn stop_worker(addr: &str, stop: &Arc<AtomicBool>) {
        stop.store(true, Ordering::SeqCst);
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let line = Lease::shutdown().to_line().unwrap();
            let _ = stream.write_all(format!("{line}\n").as_bytes());
        }
    }

    fn quick_config(tag: &str) -> DispatchConfig {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(30),
            liveness: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            scratch: scratch(tag),
            ..DispatchConfig::default()
        }
    }

    fn shard_spec(shard: u32, spec_base: u64, codes: &[&str]) -> ShardSpec {
        ShardSpec {
            shard,
            spec_base,
            codes: codes.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// The in-process ground truth the merged remote run must match.
    fn reference_run(codes: &[&str], runner: &RunnerConfig) -> crate::runner::SupervisedRun {
        let factory = toy_factory();
        let specs: Vec<ExperimentSpec> = codes.iter().map(|c| factory(c).unwrap()).collect();
        let mut cfg = *runner;
        cfg.quiet_panics = false;
        Supervisor::builder().config(cfg).build().run(&specs)
    }

    /// Local-failover child builder that must never be reached.
    fn no_local_children(_: &ShardSpec, _: &ShardPaths) -> Command {
        panic!("test expected no local failover");
    }

    #[test]
    fn chaos_net_specs_parse_and_match() {
        assert_eq!(
            ChaosNet::parse("kill:2"),
            Some(ChaosNet { kind: ChaosKind::Kill, worker: 2, lease: 0 })
        );
        assert_eq!(
            ChaosNet::parse("stall:0:1"),
            Some(ChaosNet { kind: ChaosKind::Stall, worker: 0, lease: 1 })
        );
        assert_eq!(
            ChaosNet::parse("garble:1"),
            Some(ChaosNet { kind: ChaosKind::Garble, worker: 1, lease: 0 })
        );
        for bad in ["", "kill", "kill:", "kill:x", "drop:1", "kill:1:2:3"] {
            assert_eq!(ChaosNet::parse(bad), None, "{bad:?}");
        }
        let c = ChaosNet::parse("kill:1:1").unwrap();
        assert_eq!(c.directive(1, 1), Some(ChaosKind::Kill));
        assert_eq!(c.directive(1, 0), None);
        assert_eq!(c.directive(0, 1), None);
        assert_eq!(
            WorkerChaos::parse("stall:3"),
            Some(WorkerChaos { kind: ChaosKind::Stall, lease: 3 })
        );
        assert_eq!(
            WorkerChaos::parse("kill"),
            Some(WorkerChaos { kind: ChaosKind::Kill, lease: 0 })
        );
        assert_eq!(WorkerChaos::parse("boom:1"), None);
    }

    #[test]
    fn frames_round_trip_through_lines() {
        let spec = shard_spec(2, 5, &["exp1", "exp2"]);
        let lease = Lease::for_shard(&spec, &RunnerConfig::default(), 7);
        let back = Lease::from_line(&lease.to_line().unwrap()).unwrap();
        assert_eq!(back, lease);
        assert_eq!(back.experiments.as_deref(), Some(&["exp1".to_owned(), "exp2".to_owned()][..]));

        let done = WorkerFrame::done(7, 2, "{}".into(), "{}".into(), String::new());
        assert_eq!(WorkerFrame::from_line(&done.to_line().unwrap()).unwrap(), done);
        let hb = WorkerFrame::hb(7, 3);
        assert_eq!(WorkerFrame::from_line(&hb.to_line().unwrap()).unwrap(), hb);
        assert!(WorkerFrame::from_line("}{ not a frame").is_err());
    }

    #[test]
    fn two_workers_merge_byte_identical_to_in_process_run() {
        let (addr_a, stop_a) = start_worker(None);
        let (addr_b, stop_b) = start_worker(None);
        let config = quick_config("identity");
        let remote = RemoteOptions {
            workers: vec![addr_a.clone(), addr_b.clone()],
            ..RemoteOptions::default()
        };
        let runner = RunnerConfig {
            seed: 11,
            ..RunnerConfig::default()
        };
        let shards = vec![
            shard_spec(0, 0, &["exp1", "exp2"]),
            shard_spec(1, 2, &["exp3"]),
        ];
        let outcome =
            dispatch_remote(&config, &remote, &runner, shards, no_local_children).unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![1, 1]);
        assert_eq!(outcome.run.report.experiments.len(), 3);
        assert_eq!(outcome.run.outputs["exp2"], "exp2 output");

        let reference = reference_run(&["exp1", "exp2", "exp3"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events(),
            "remote merge must be byte-identical to the in-process run"
        );
        stop_worker(&addr_a, &stop_a);
        stop_worker(&addr_b, &stop_b);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn killed_worker_lease_is_reissued_to_the_survivor() {
        // Worker 0 is poisoned at startup: it drops every first connection's
        // lease mid-flight. Worker 1 is healthy; rotation retries there.
        let (addr_bad, stop_bad) = start_worker(Some(WorkerChaos {
            kind: ChaosKind::Kill,
            lease: 0,
        }));
        let (addr_good, stop_good) = start_worker(None);
        let config = quick_config("reissue");
        let remote = RemoteOptions {
            workers: vec![addr_bad.clone(), addr_good.clone()],
            ..RemoteOptions::default()
        };
        let runner = RunnerConfig::default();
        let shards = vec![shard_spec(0, 0, &["exp1", "exp2"])];
        let outcome =
            dispatch_remote(&config, &remote, &runner, shards, no_local_children).unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![2], "one remote retry");
        let reference = reference_run(&["exp1", "exp2"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events()
        );
        stop_worker(&addr_bad, &stop_bad);
        stop_worker(&addr_good, &stop_good);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn frame_stamped_chaos_garble_fails_the_attempt_with_a_garbled_reason() {
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("garble");
        config.shard_retries = 0;
        config.allow_partial = true;
        let remote = RemoteOptions {
            workers: vec![addr.clone()],
            chaos: vec![ChaosNet::parse("garble:0").unwrap()],
            local_failover: false,
            ..RemoteOptions::default()
        };
        let outcome = dispatch_remote(
            &config,
            &remote,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("garbled frame"),
            "{}",
            outcome.missing[0].reason
        );
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn stalled_worker_trips_the_liveness_window() {
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("stall");
        config.shard_retries = 0;
        config.allow_partial = true;
        config.liveness = Duration::from_millis(150);
        let remote = RemoteOptions {
            workers: vec![addr.clone()],
            chaos: vec![ChaosNet::parse("stall:0").unwrap()],
            local_failover: false,
            ..RemoteOptions::default()
        };
        let started = Instant::now();
        let outcome = dispatch_remote(
            &config,
            &remote,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "liveness fired early");
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("no heartbeat or result frame"),
            "{}",
            outcome.missing[0].reason
        );
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn unreachable_workers_without_failover_degrade_with_connect_reason() {
        // Bind-then-drop guarantees nobody is listening on the port.
        let dead = {
            let sock = TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let mut config = quick_config("unreachable");
        config.shard_retries = 1;
        config.allow_partial = true;
        let remote = RemoteOptions {
            workers: vec![dead],
            connect_timeout: Duration::from_millis(500),
            local_failover: false,
            ..RemoteOptions::default()
        };
        let outcome = dispatch_remote(
            &config,
            &remote,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(outcome.degraded());
        assert_eq!(outcome.missing[0].attempts, 2);
        assert!(
            outcome.missing[0].reason.contains("connect failed"),
            "{}",
            outcome.missing[0].reason
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    /// A scripted fake worker that misbehaves at a chosen point in the
    /// lease lifecycle, for the kill-point property test.
    fn flaky_worker(kill_point: u8) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        if kill_point == 0 {
            // Nothing ever listens: the bound socket is dropped here.
            return addr;
        }
        thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            // Read (and discard) the lease line first so every kill point
            // is a mid-lease fault, not a refused connection.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut framer = LineBuffer::new();
            let mut chunk = [0u8; 1024];
            while framer.next_line().is_none() {
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => framer.push(&chunk[..n]),
                    Err(_) => return,
                }
            }
            match kill_point {
                // Close before any frame.
                1 => {}
                // Corrupt frame.
                2 => {
                    let _ = stream.write_all(b"%% garbage %%\n");
                }
                // One valid heartbeat, then the wire dies.
                3 => {
                    let line = WorkerFrame::hb(0, 1).to_line().unwrap();
                    let _ = stream.write_all(format!("{line}\n").as_bytes());
                }
                // A done frame cut off mid-line (no newline ever arrives).
                _ => {
                    let line = WorkerFrame::done(0, 0, "{}".into(), "{}".into(), String::new())
                        .to_line()
                        .unwrap();
                    let _ = stream.write_all(&line.as_bytes()[..line.len() / 2]);
                    let _ = stream.flush();
                    thread::sleep(Duration::from_millis(50));
                }
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
        });
        addr
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Satellite: wherever in the lease lifecycle the first worker
        /// dies — refused dial, pre-frame close, garble, post-heartbeat
        /// close, mid-frame cut — the lease is re-issued to the healthy
        /// worker and the merged result is intact and byte-identical.
        #[test]
        fn lease_reissue_survives_any_kill_point(kill_point in 0u8..5) {
            let flaky = flaky_worker(kill_point);
            let (good, stop_good) = start_worker(None);
            let mut config = quick_config(&format!("killpoint-{kill_point}"));
            config.liveness = Duration::from_millis(400);
            let remote = RemoteOptions {
                workers: vec![flaky, good.clone()],
                connect_timeout: Duration::from_millis(500),
                ..RemoteOptions::default()
            };
            let runner = RunnerConfig { seed: 5, ..RunnerConfig::default() };
            let shards = vec![shard_spec(0, 0, &["exp1", "exp2"])];
            let outcome =
                dispatch_remote(&config, &remote, &runner, shards, no_local_children).unwrap();
            prop_assert!(!outcome.degraded());
            prop_assert_eq!(&outcome.shard_attempts, &vec![2]);
            prop_assert_eq!(outcome.run.report.experiments.len(), 2);
            let reference = reference_run(&["exp1", "exp2"], &runner);
            prop_assert_eq!(
                outcome.run.telemetry.canonical_events(),
                reference.telemetry.canonical_events()
            );
            stop_worker(&good, &stop_good);
            let _ = fs::remove_dir_all(&config.scratch);
        }
    }

    // -- local worker children: `sh` stand-ins for `experiments worker` --

    /// A local worker stand-in: an `sh` child that records its pid in the
    /// scratch root, publishes the in-process worker at `addr` through
    /// the ready file, then sleeps until the dispatcher kills it.
    fn sh_worker(addr: &str, paths: &ShardPaths) -> Command {
        let root = paths.dir.parent().unwrap().display().to_string();
        let dir = paths.dir.display();
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!(
            "echo $$ > '{root}/pid-{s}-{a}'; printf %s '{addr}' > '{dir}/ready.tmp'; \
             mv '{dir}/ready.tmp' '{ready}'; exec sleep 30",
            s = paths.shard,
            a = paths.attempt,
            ready = paths.ready.display(),
        ));
        cmd
    }

    fn sh_exit(code: u8) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!("echo 'worker failed to start' >&2; exit {code}"));
        cmd
    }

    /// Whether the process whose pid `sh_worker` recorded is gone —
    /// killed *and* reaped (a zombie still has a `/proc` entry).
    fn reaped(scratch: &Path, shard: u32, attempt: u32) -> bool {
        let pid = fs::read_to_string(scratch.join(format!("pid-{shard}-{attempt}"))).unwrap();
        !Path::new("/proc/self").exists() || !Path::new(&format!("/proc/{}", pid.trim())).exists()
    }

    #[test]
    fn local_worker_that_exits_before_ready_is_retried_and_keeps_its_log() {
        let (addr, stop) = start_worker(None);
        let config = quick_config("local-retry");
        let specs = vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &["exp2"])];
        let outcome = dispatch_remote(
            &config,
            &RemoteOptions::default(),
            &RunnerConfig::default(),
            specs,
            |spec, paths| {
                if spec.shard == 1 && paths.attempt == 0 {
                    sh_exit(7)
                } else {
                    sh_worker(&addr, paths)
                }
            },
        )
        .unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![1, 2]);
        assert_eq!(outcome.run.outputs["exp2"], "exp2 output");
        assert_eq!(
            outcome.run.telemetry.metrics.counters["dispatch.shard.1.attempts"],
            2
        );
        assert!(outcome.render_summary().contains("complete after retries"));
        // Successful attempts leave nothing behind …
        assert!(!ShardPaths::new(&config.scratch, 0, 0).dir.exists());
        assert!(!ShardPaths::new(&config.scratch, 1, 1).dir.exists());
        // … but the failed first attempt of shard 1 keeps the child's log.
        let failed = ShardPaths::new(&config.scratch, 1, 0);
        let log = fs::read_to_string(&failed.log).unwrap();
        assert!(log.contains("worker failed to start"), "{log}");
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn exhausted_local_retries_fail_loudly_or_degrade_under_allow_partial() {
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("local-loud");
        let specs = || vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &["exp2"])];
        let build = |spec: &ShardSpec, paths: &ShardPaths| {
            if spec.shard == 1 {
                sh_exit(3)
            } else {
                sh_worker(&addr, paths)
            }
        };
        let err = dispatch_remote(
            &config,
            &RemoteOptions::default(),
            &RunnerConfig::default(),
            specs(),
            build,
        )
        .unwrap_err();
        let DispatchError::ShardsFailed(missing) = &err else {
            panic!("expected ShardsFailed, got {err:?}");
        };
        assert_eq!(missing.len(), 1);
        assert_eq!((missing[0].shard, missing[0].attempts), (1, 2));
        assert!(err.to_string().contains("exited before it was ready"), "{err}");

        config.allow_partial = true;
        let outcome = dispatch_remote(
            &config,
            &RemoteOptions::default(),
            &RunnerConfig::default(),
            specs(),
            build,
        )
        .unwrap();
        assert_eq!(outcome.exit_code(), 3);
        assert_eq!(outcome.missing[0].codes, vec!["exp2"]);
        assert_eq!(outcome.run.outputs["exp1"], "exp1 output");
        let summary = outcome.render_summary();
        assert!(summary.contains("DEGRADED"), "{summary}");
        assert!(summary.contains("missing shard 1"), "{summary}");
        assert_eq!(
            outcome.run.telemetry.metrics.counters["dispatch.shards_missing"],
            1
        );
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn finished_and_revoked_local_workers_are_killed_and_reaped() {
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("local-reap");
        // Shard 1's worker stalls: with liveness off, the shard deadline
        // revokes the lease.
        config.shard_retries = 0;
        config.allow_partial = true;
        config.liveness = Duration::ZERO;
        config.shard_deadline = Duration::from_millis(300);
        let remote = RemoteOptions {
            chaos: vec![ChaosNet::parse("stall:1").unwrap()],
            ..RemoteOptions::default()
        };
        let specs = vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &["exp2"])];
        let outcome = dispatch_remote(&config, &remote, &RunnerConfig::default(), specs, |_, paths| {
            sh_worker(&addr, paths)
        })
        .unwrap();
        assert_eq!(outcome.shard_attempts, vec![1, 1]);
        assert_eq!(outcome.missing.len(), 1);
        assert!(
            outcome.missing[0].reason.contains("shard deadline"),
            "{}",
            outcome.missing[0].reason
        );
        assert!(reaped(&config.scratch, 0, 0), "finished worker is reaped");
        assert!(reaped(&config.scratch, 1, 0), "revoked worker is reaped");
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn chaos_net_addresses_a_local_worker_by_its_shard() {
        let (addr, stop) = start_worker(None);
        let config = quick_config("local-chaos");
        let remote = RemoteOptions {
            chaos: vec![ChaosNet::parse("kill:1").unwrap()],
            ..RemoteOptions::default()
        };
        let runner = RunnerConfig { seed: 3, ..RunnerConfig::default() };
        let specs = vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &["exp2", "exp3"])];
        let outcome = dispatch_remote(&config, &remote, &runner, specs, |_, paths| {
            sh_worker(&addr, paths)
        })
        .unwrap();
        assert_eq!(outcome.shard_attempts, vec![1, 2], "only shard 1 was killed");
        let reference = reference_run(&["exp1", "exp2", "exp3"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events()
        );
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn keep_scratch_keeps_the_done_frame_artifacts() {
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("local-keep");
        config.keep_scratch = true;
        let outcome = dispatch_remote(
            &config,
            &RemoteOptions::default(),
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            |_, paths| sh_worker(&addr, paths),
        )
        .unwrap();
        assert!(!outcome.degraded());
        let kept = ShardPaths::new(&config.scratch, 0, 0);
        for path in [&kept.report, &kept.metrics, &kept.journal, &kept.log, &kept.ready] {
            assert!(path.exists(), "{} kept", path.display());
        }
        let artifact = RunArtifact::from_json(&fs::read_to_string(&kept.report).unwrap()).unwrap();
        assert_eq!(artifact.outputs["exp1"], "exp1 output");
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn empty_shards_start_no_worker() {
        let (addr, stop) = start_worker(None);
        let config = quick_config("local-empty");
        let specs = vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &[])];
        let outcome = dispatch_remote(
            &config,
            &RemoteOptions::default(),
            &RunnerConfig::default(),
            specs,
            |spec, paths| {
                assert_ne!(spec.shard, 1, "empty shard must not start a worker");
                sh_worker(&addr, paths)
            },
        )
        .unwrap();
        assert_eq!(outcome.shard_attempts, vec![1]);
        assert_eq!(outcome.run.report.experiments.len(), 1);
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn merged_journal_rebases_specs_and_brackets_once() {
        let (addr, stop) = start_worker(None);
        let config = quick_config("local-merge");
        let runner = RunnerConfig { seed: 9, ..RunnerConfig::default() };
        let specs = vec![shard_spec(0, 0, &["exp1"]), shard_spec(1, 1, &["exp2", "exp3"])];
        let outcome = dispatch_remote(&config, &RemoteOptions::default(), &runner, specs, |_, paths| {
            sh_worker(&addr, paths)
        })
        .unwrap();
        let events = &outcome.run.telemetry.events;
        // Exactly one run-start / run-end pair, at the boundaries.
        assert_eq!(events.first().unwrap().kind, "run-start");
        assert_eq!(events.last().unwrap().kind, "run-end");
        assert_eq!(events.iter().filter(|e| e.kind == "run-start").count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == "run-end").count(), 1);
        // Shard 1's events were re-based from spec 0 to spec 1 and stamped.
        let exp2_start = events
            .iter()
            .find(|e| e.kind == "experiment-start" && e.experiment == "exp2")
            .unwrap();
        assert_eq!(exp2_start.spec, Some(1));
        assert_eq!(exp2_start.shard, Some(1));
        // Worker counters summed without re-recording.
        assert_eq!(outcome.run.telemetry.metrics.counters["runner.experiments"], 3);
        // Seqs are dense after the canonical sort.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
        let reference = reference_run(&["exp1", "exp2", "exp3"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events()
        );
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn exhausted_remote_retries_fail_over_to_a_local_worker() {
        // No remote worker listens; the slice must fall through to a fresh
        // local worker child.
        let dead = {
            let sock = TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let (addr, stop) = start_worker(None);
        let mut config = quick_config("failover");
        config.shard_retries = 0;
        let remote = RemoteOptions {
            workers: vec![dead],
            connect_timeout: Duration::from_millis(300),
            ..RemoteOptions::default()
        };
        let outcome = dispatch_remote(
            &config,
            &remote,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            |_, paths| sh_worker(&addr, paths),
        )
        .unwrap();
        assert!(!outcome.degraded());
        // One failed remote attempt + one successful local attempt, which
        // numbers on from the remote ones.
        assert_eq!(outcome.shard_attempts, vec![2]);
        assert_eq!(outcome.run.outputs["exp1"], "exp1 output");
        assert!(reaped(&config.scratch, 0, 1));
        stop_worker(&addr, &stop);
        let _ = fs::remove_dir_all(&config.scratch);
    }
}
