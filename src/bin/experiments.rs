//! Regenerates every table and figure recorded in `EXPERIMENTS.md`, under
//! a supervised runner with optional fault injection, sharding,
//! journal-driven replay, and cross-process dispatch.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin experiments -- run                # run everything
//! cargo run --release --bin experiments -- run f3 t1          # run a subset
//! cargo run --release --bin experiments -- run --fault-profile chaos --shards 4
//! cargo run --release --bin experiments -- run --shards 4 --schedule steal
//! cargo run --release --bin experiments -- run --metrics-out m.json --journal-out j.jsonl
//! cargo run --release --bin experiments -- dispatch --procs 4  # local worker children
//! cargo run --release --bin experiments -- dispatch --procs 4 --chaos-net kill:2
//! cargo run --release --bin experiments -- worker --addr 127.0.0.1:0  # remote shard worker
//! cargo run --release --bin experiments -- dispatch --procs 4 --workers host:7171,host:7172
//! cargo run --release --bin experiments -- list               # experiment catalog
//! cargo run --release --bin experiments -- merge-metrics a.json b.json
//! cargo run --release --bin experiments -- replay j.jsonl     # re-execute a capture
//! cargo run --release --bin experiments -- serve              # long-lived daemon
//! cargo run --release --bin experiments -- query f3 --seed 7  # ask the daemon
//! cargo run --release --bin experiments -- ramp               # capacity search
//! cargo run --release --bin experiments -- f3 t1              # bare form = `run`
//! ```
//!
//! Every experiment executes on a watchdogged worker thread with panic
//! isolation, bounded retries and a per-family circuit breaker. With
//! `--shards N` the experiment list is partitioned across N in-process
//! shards whose merged canonical journal and report are byte-identical to
//! the single-shard run of the same seed. `dispatch --procs K` lifts the
//! same partition across processes: each shard attempt leases its slice
//! over TCP to a fresh local `worker` child (the binary re-invokes itself)
//! or, with `--workers`, to remote worker daemons. Workers heartbeat
//! inline, crashed or silent leases are revoked and retried with
//! deterministic backoff, `--allow-partial` degrades gracefully when a
//! shard stays dead, and the merged canonical output remains
//! byte-identical to the in-process run. `replay`
//! reconstructs a past run's configuration and fault schedule from its
//! captured journal, re-executes it, and diffs the canonical event
//! streams.
//!
//! Output is plain text: each experiment prints its rendered tables and
//! series (with ASCII sparklines standing in for figures). The supervised
//! run also collects telemetry — counters, latency histograms, tracing
//! spans, and a structured event journal — which `--metrics-out`,
//! `--journal-out`, and `--trace-summary` expose; `--report-out` writes
//! the serialized report+outputs artifact.
//!
//! Exit codes: 0 — all experiments completed (or replay matched);
//! 1 — an experiment failed, or replay diverged from the capture;
//! 2 — an experiment timed out, a shard died without `--allow-partial`,
//! or bad arguments / unreadable input / unwritable output;
//! 3 — dispatch degraded to partial results under `--allow-partial`.

use humnet::core::experiments::ExperimentId;
use humnet::resilience::{
    dispatch_remote, replay, ChaosNet, DispatchConfig, DispatchOutcome, ExperimentSpec,
    FaultProfile, JobError, JobOutput, RemoteOptions, RunArtifact, RunnerConfig, Schedule,
    ShardPaths, ShardPlan, ShardSpec, Supervisor, Worker, WorkerChaos, WorkerConfig,
    CHAOS_NET_ENV,
};
use humnet::serve::{
    append_history, install_signal_handlers, read_history, render_trend, run_ramp, ClientPool,
    RampPlan, Request, RequestMix, ServeClient, ServeConfig, Server,
};
use humnet::telemetry::{journal, TelemetrySnapshot, TextTable};
use std::sync::Arc;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(args.split_off(1)),
        Some("dispatch") => cmd_dispatch(args.split_off(1)),
        Some("worker") => cmd_worker(args.split_off(1)),
        Some("list") => cmd_list(args.split_off(1)),
        Some("merge-metrics") => cmd_merge_metrics(args.split_off(1)),
        Some("replay") => cmd_replay(args.split_off(1)),
        Some("serve") => cmd_serve(args.split_off(1)),
        Some("query") => cmd_query(args.split_off(1)),
        Some("ramp") => cmd_ramp(args.split_off(1)),
        // Bare `experiments [OPTIONS] [ID...]` stays an alias for `run`.
        _ => cmd_run(args),
    };
    ExitCode::from(result.unwrap_or_else(Failure::report))
}

/// A command that cannot proceed: the single exit path for every error,
/// so no subcommand calls `std::process::exit` from the middle of its
/// control flow.
enum Failure {
    /// Bad CLI input — print the message and the usage text.
    Usage(String),
    /// Anything else fatal — unreadable input, unwritable output, a dead
    /// shard without `--allow-partial`.
    Fatal(String),
}

impl Failure {
    fn report(self) -> u8 {
        match self {
            Failure::Usage(msg) => {
                eprintln!("{msg}");
                eprintln!("{}", usage());
            }
            Failure::Fatal(msg) => eprintln!("{msg}"),
        }
        2
    }
}

type CmdResult = Result<u8, Failure>;

// ---------------------------------------------------- shared run flags --

/// The run-configuration flags every load-bearing subcommand accepts —
/// `run`, `dispatch`, `serve`, `query`, and `ramp` all take the same
/// `--fault-profile/--seed/--intensity/--retries/--deadline-ms` tuple
/// (plus `--breaker-cooldown` where a runner executes locally). One
/// parse-and-validate path instead of five hand-copied match arms.
///
/// Every field is optional so each consumer can distinguish "given on
/// the command line" from "keep your default": `run` overlays onto a
/// [`RunnerConfig`], `query` onto a wire [`Request`] (absent fields let
/// the daemon's own defaults fill in).
#[derive(Default)]
struct RunFlags {
    profile: Option<FaultProfile>,
    retries: Option<u32>,
    deadline: Option<Duration>,
    seed: Option<u64>,
    intensity: Option<f64>,
    breaker_cooldown: Option<u32>,
}

impl RunFlags {
    /// Consume `arg` (pulling its value from `args`) if it is one of the
    /// shared flags; `Ok(false)` hands it back to the caller's own match.
    /// Call this *before* borrowing `args` for command-specific flags.
    fn try_consume(
        &mut self,
        arg: &str,
        args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    ) -> Result<bool, Failure> {
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg {
            "--fault-profile" => {
                let v = value("--fault-profile")?;
                self.profile = Some(FaultProfile::parse(&v).ok_or_else(|| {
                    Failure::Usage(format!("unknown fault profile '{v}' (none|churn|outage|chaos)"))
                })?);
            }
            "--retries" => self.retries = Some(parse_num(&value("--retries")?, "--retries")?),
            "--deadline-ms" => {
                let ms: u64 = parse_num(&value("--deadline-ms")?, "--deadline-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--deadline-ms must be positive".to_owned()));
                }
                self.deadline = Some(Duration::from_millis(ms));
            }
            "--seed" => self.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--intensity" => {
                let v = value("--intensity")?;
                let x: f64 = v
                    .parse()
                    .map_err(|_| Failure::Usage(format!("bad --intensity value '{v}'")))?;
                if !x.is_finite() || x < 0.0 {
                    return Err(Failure::Usage(
                        "--intensity must be a nonnegative number".to_owned(),
                    ));
                }
                self.intensity = Some(x);
            }
            "--breaker-cooldown" => {
                self.breaker_cooldown =
                    Some(parse_num(&value("--breaker-cooldown")?, "--breaker-cooldown")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Overlay onto a runner config; absent flags keep its defaults.
    fn apply(&self, config: &mut RunnerConfig) {
        if let Some(p) = self.profile {
            config.profile = p;
        }
        if let Some(n) = self.retries {
            config.retries = n;
        }
        if let Some(d) = self.deadline {
            config.deadline = d;
        }
        if let Some(s) = self.seed {
            config.seed = s;
        }
        if let Some(x) = self.intensity {
            config.intensity = x;
        }
        if let Some(n) = self.breaker_cooldown {
            config.breaker_cooldown = n;
        }
    }

    /// Overlay onto a wire request; absent flags stay `None` so the
    /// daemon's per-request defaults fill them in. The breaker cooldown
    /// is not part of the protocol and is ignored here.
    fn fill_request(&self, req: &mut Request) {
        if let Some(p) = self.profile {
            req.profile = Some(p.label().to_owned());
        }
        if let Some(n) = self.retries {
            req.retries = Some(n);
        }
        if let Some(d) = self.deadline {
            req.deadline_ms = Some(d.as_millis() as u64);
        }
        if let Some(s) = self.seed {
            req.seed = Some(s);
        }
        if let Some(x) = self.intensity {
            req.intensity = Some(x);
        }
    }
}

// ---------------------------------------------------------------- run --

struct RunCli {
    config: RunnerConfig,
    shards: u32,
    schedule: Schedule,
    ids: Vec<ExperimentId>,
    report_only: bool,
    metrics_out: Option<String>,
    journal_out: Option<String>,
    report_out: Option<String>,
    trace_summary: bool,
}

fn cmd_run(args: Vec<String>) -> CmdResult {
    let Some(cli) = parse_run_args(args.into_iter())? else {
        return Ok(0); // --help
    };

    // Fail on unwritable output paths *before* spending minutes running
    // experiments: create/truncate each output file up front.
    for (path, what) in [
        (&cli.metrics_out, "metrics snapshot"),
        (&cli.journal_out, "event journal"),
        (&cli.report_out, "report artifact"),
    ] {
        if let Some(path) = path {
            preflight_writable(path, what)?;
        }
    }

    let specs: Vec<ExperimentSpec> = cli.ids.iter().map(|&id| spec_for(id)).collect();
    let run = Supervisor::builder()
        .config(cli.config)
        .shards(cli.shards)
        .schedule(cli.schedule)
        .build()
        .run(&specs);

    if !cli.report_only {
        for (id, row) in cli.ids.iter().zip(&run.report.experiments) {
            banner(&format!("{} — {}", id.code().to_uppercase(), id.title()));
            match run.outputs.get(id.code()) {
                Some(rendered) => println!("{rendered}"),
                None => eprintln!("{} {}: {}", id.code().to_uppercase(), row.status, row.message),
            }
        }
    }

    println!("\n{}", run.report.render());

    // The metrics table carries timings, so it would break the
    // byte-stability of --report-only output across identical runs; the
    // report-only mode is what CI diffs.
    if !cli.report_only {
        println!("\n{}", run.telemetry.render_metrics_table());
    }
    if cli.trace_summary {
        println!("\n{}", run.telemetry.render_trace_summary());
    }
    if let Some(path) = &cli.metrics_out {
        let json = run
            .telemetry
            .to_json()
            .map_err(|e| Failure::Fatal(format!("failed to serialize metrics snapshot: {e}")))?;
        write_file(path, &json, "metrics snapshot")?;
    }
    if let Some(path) = &cli.journal_out {
        let jsonl = run
            .telemetry
            .to_jsonl()
            .map_err(|e| Failure::Fatal(format!("failed to serialize event journal: {e}")))?;
        write_file(path, &jsonl, "event journal")?;
    }
    if let Some(path) = &cli.report_out {
        // Canonicalized: the artifact is the reproducible face of the run
        // (the serve cache equates it byte-for-byte across same-seed
        // runs); wall-clock durations live in render() and the metrics.
        let artifact = RunArtifact {
            report: run.report.clone(),
            outputs: run.outputs.clone(),
        }
        .canonicalized();
        let json = artifact
            .to_json()
            .map_err(|e| Failure::Fatal(format!("failed to serialize report artifact: {e}")))?;
        write_file(path, &json, "report artifact")?;
    }

    Ok(run.report.exit_code() as u8)
}

/// `Ok(None)` means `--help` was printed; there is nothing to run.
fn parse_run_args(args: impl Iterator<Item = String>) -> Result<Option<RunCli>, Failure> {
    let mut cli = RunCli {
        config: RunnerConfig::default(),
        shards: 1,
        schedule: Schedule::Static,
        ids: Vec::new(),
        report_only: false,
        metrics_out: None,
        journal_out: None,
        report_out: None,
        trace_summary: false,
    };
    let mut flags = RunFlags::default();
    let mut args = args.peekable();

    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--shards" => {
                let n: u32 = parse_num(&value("--shards")?, "--shards")?;
                if n == 0 {
                    return Err(Failure::Usage("--shards must be positive".to_owned()));
                }
                cli.shards = n;
            }
            "--schedule" => {
                let v = value("--schedule")?;
                cli.schedule = Schedule::parse(&v).ok_or_else(|| {
                    Failure::Usage(format!("unknown schedule '{v}' (static|steal)"))
                })?;
            }
            "--report-only" => cli.report_only = true,
            "--metrics-out" => cli.metrics_out = Some(value("--metrics-out")?),
            "--journal-out" => cli.journal_out = Some(value("--journal-out")?),
            "--report-out" => cli.report_out = Some(value("--report-out")?),
            "--trace-summary" => cli.trace_summary = true,
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                if !cli.ids.contains(&parsed) {
                    cli.ids.push(parsed);
                }
            }
        }
    }

    flags.apply(&mut cli.config);
    canonicalize_ids(&mut cli.ids);
    Ok(Some(cli))
}

// ----------------------------------------------------------- dispatch --

struct DispatchCli {
    config: RunnerConfig,
    procs: u32,
    ids: Vec<ExperimentId>,
    dispatch: DispatchConfig,
    remote: RemoteOptions,
    heartbeat_every: Duration,
    keep_scratch: bool,
    report_only: bool,
    metrics_out: Option<String>,
    journal_out: Option<String>,
    trace_summary: bool,
}

fn cmd_dispatch(args: Vec<String>) -> CmdResult {
    let Some(cli) = parse_dispatch_args(args.into_iter())? else {
        return Ok(0); // --help
    };

    for (path, what) in [
        (&cli.metrics_out, "metrics snapshot"),
        (&cli.journal_out, "event journal"),
    ] {
        if let Some(path) = path {
            preflight_writable(path, what)?;
        }
    }

    let exe = std::env::current_exe()
        .map_err(|e| Failure::Fatal(format!("cannot locate own executable: {e}")))?;
    let plan = ShardPlan::new(cli.procs);
    let shards: Vec<ShardSpec> = (0..cli.procs)
        .map(|k| {
            let range = plan.range(k, cli.ids.len());
            ShardSpec {
                shard: k,
                spec_base: range.start as u64,
                codes: cli.ids[range].iter().map(|id| id.code().to_owned()).collect(),
            }
        })
        .collect();

    // A local shard attempt leases to a fresh worker child on loopback;
    // the lease carries the run tuple, so the child needs no run flags.
    let heartbeat_ms = cli.heartbeat_every.as_millis().to_string();
    let build = |_: &ShardSpec, paths: &ShardPaths| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["worker", "--addr", "127.0.0.1:0", "--heartbeat-ms", &heartbeat_ms])
            .arg("--ready-file")
            .arg(&paths.ready);
        cmd
    };
    let outcome = dispatch_remote(&cli.dispatch, &cli.remote, &cli.config, shards, build)
        .map_err(|e| Failure::Fatal(format!("dispatch failed: {e}")))?;

    print_dispatch(&cli, &outcome)?;

    if cli.keep_scratch || outcome.degraded() {
        eprintln!(
            "dispatch scratch kept at {}",
            cli.dispatch.scratch.display()
        );
    } else {
        let _ = std::fs::remove_dir_all(&cli.dispatch.scratch);
    }
    Ok(outcome.exit_code() as u8)
}

/// Render a finished dispatch exactly like `run` renders: per-experiment
/// outputs (missing ones flagged), the report, the dispatch verdict with
/// breaker reconciliation, then the optional metrics/journal artifacts.
fn print_dispatch(cli: &DispatchCli, outcome: &DispatchOutcome) -> Result<(), Failure> {
    let run = &outcome.run;
    if !cli.report_only {
        for id in &cli.ids {
            banner(&format!("{} — {}", id.code().to_uppercase(), id.title()));
            match run.outputs.get(id.code()) {
                Some(rendered) => println!("{rendered}"),
                None => {
                    let row = run.report.experiments.iter().find(|r| r.code == id.code());
                    match row {
                        Some(row) => eprintln!(
                            "{} {}: {}",
                            id.code().to_uppercase(),
                            row.status,
                            row.message
                        ),
                        None => eprintln!(
                            "{}: missing — its shard died and --allow-partial degraded the run",
                            id.code().to_uppercase()
                        ),
                    }
                }
            }
        }
    }

    println!("\n{}", run.report.render());
    print!("{}", outcome.render_summary());

    if !cli.report_only {
        println!("\n{}", run.telemetry.render_metrics_table());
    }
    if cli.trace_summary {
        println!("\n{}", run.telemetry.render_trace_summary());
    }
    if let Some(path) = &cli.metrics_out {
        let json = run
            .telemetry
            .to_json()
            .map_err(|e| Failure::Fatal(format!("failed to serialize metrics snapshot: {e}")))?;
        write_file(path, &json, "metrics snapshot")?;
    }
    if let Some(path) = &cli.journal_out {
        let jsonl = run
            .telemetry
            .to_jsonl()
            .map_err(|e| Failure::Fatal(format!("failed to serialize event journal: {e}")))?;
        write_file(path, &jsonl, "event journal")?;
    }
    Ok(())
}

fn parse_dispatch_args(args: impl Iterator<Item = String>) -> Result<Option<DispatchCli>, Failure> {
    let mut cli = DispatchCli {
        config: RunnerConfig::default(),
        procs: 0,
        ids: Vec::new(),
        dispatch: DispatchConfig::default(),
        remote: RemoteOptions::default(),
        heartbeat_every: Duration::from_millis(100),
        keep_scratch: false,
        report_only: false,
        metrics_out: None,
        journal_out: None,
        trace_summary: false,
    };
    let mut flags = RunFlags::default();
    let mut args = args.peekable();

    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--procs" => {
                let n: u32 = parse_num(&value("--procs")?, "--procs")?;
                if n == 0 {
                    return Err(Failure::Usage("--procs must be positive".to_owned()));
                }
                cli.procs = n;
            }
            "--shard-retries" => {
                cli.dispatch.shard_retries =
                    parse_num(&value("--shard-retries")?, "--shard-retries")?;
            }
            "--shard-deadline-ms" => {
                let ms: u64 = parse_num(&value("--shard-deadline-ms")?, "--shard-deadline-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage(
                        "--shard-deadline-ms must be positive".to_owned(),
                    ));
                }
                cli.dispatch.shard_deadline = Duration::from_millis(ms);
            }
            "--liveness-ms" => {
                // 0 is allowed: it disables liveness checking and leaves
                // only the shard deadline.
                let ms: u64 = parse_num(&value("--liveness-ms")?, "--liveness-ms")?;
                cli.dispatch.liveness = Duration::from_millis(ms);
            }
            "--heartbeat-ms" => {
                let ms: u64 = parse_num(&value("--heartbeat-ms")?, "--heartbeat-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--heartbeat-ms must be positive".to_owned()));
                }
                cli.heartbeat_every = Duration::from_millis(ms);
            }
            "--allow-partial" => cli.dispatch.allow_partial = true,
            "--workers" => {
                // Comma-separated and repeatable; order matters (chaos-net
                // and retry rotation address remote workers by index).
                for addr in value("--workers")?.split(',') {
                    let addr = addr.trim();
                    if addr.is_empty() {
                        return Err(Failure::Usage(
                            "--workers needs host:port[,host:port...]".to_owned(),
                        ));
                    }
                    cli.remote.workers.push(addr.to_owned());
                }
            }
            "--chaos-net" => {
                let v = value("--chaos-net")?;
                let chaos = ChaosNet::parse(&v).ok_or_else(|| {
                    Failure::Usage(format!(
                        "bad --chaos-net '{v}' (kill:<k>[:attempt] | stall:<k>[:attempt] \
                         | garble:<k>[:attempt])"
                    ))
                })?;
                cli.remote.chaos.push(chaos);
            }
            "--no-failover" => cli.remote.local_failover = false,
            "--connect-timeout-ms" => {
                let ms: u64 = parse_num(&value("--connect-timeout-ms")?, "--connect-timeout-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage(
                        "--connect-timeout-ms must be positive".to_owned(),
                    ));
                }
                cli.remote.connect_timeout = Duration::from_millis(ms);
            }
            "--scratch" => {
                cli.dispatch.scratch = std::path::PathBuf::from(value("--scratch")?);
            }
            "--keep-scratch" => cli.keep_scratch = true,
            "--report-only" => cli.report_only = true,
            "--metrics-out" => cli.metrics_out = Some(value("--metrics-out")?),
            "--journal-out" => cli.journal_out = Some(value("--journal-out")?),
            "--trace-summary" => cli.trace_summary = true,
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                if !cli.ids.contains(&parsed) {
                    cli.ids.push(parsed);
                }
            }
        }
    }

    if cli.procs == 0 {
        return Err(Failure::Usage(
            "dispatch needs --procs <K> (number of shards)".to_owned(),
        ));
    }
    if cli.remote.workers.is_empty() && !cli.remote.local_failover {
        return Err(Failure::Usage(
            "--no-failover needs --workers (local dispatch has nothing to fail over from)"
                .to_owned(),
        ));
    }
    // A healthy worker is silent for up to one heartbeat between frames;
    // a liveness window that short would revoke every lease.
    let liveness = cli.dispatch.liveness;
    if !liveness.is_zero() && liveness <= cli.heartbeat_every {
        return Err(Failure::Usage(format!(
            "--liveness-ms ({}) must exceed --heartbeat-ms ({}) or be 0",
            liveness.as_millis(),
            cli.heartbeat_every.as_millis()
        )));
    }
    flags.apply(&mut cli.config);
    canonicalize_ids(&mut cli.ids);
    // The retry backoff jitter stream derives from the run seed, like
    // every other deterministic decision.
    cli.dispatch.seed = cli.config.seed;
    cli.dispatch.keep_scratch = cli.keep_scratch;
    Ok(Some(cli))
}

// -------------------------------------------------------------- worker --

/// Long-lived shard worker: accept shard-slice leases over the
/// line-delimited JSON worker protocol, execute each on the warm
/// in-process pool, stream inline heartbeats, and answer with the
/// canonical per-shard artifact. A `dispatch --workers` parent on any
/// machine can lease against it; `dispatch` without `--workers` starts
/// one per shard attempt on loopback.
fn cmd_worker(args: Vec<String>) -> CmdResult {
    let mut cfg = WorkerConfig::default();
    let mut ready_file = None;
    let mut flags = RunFlags::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            "--addr" => cfg.addr = value("--addr")?,
            "--heartbeat-ms" => {
                let ms: u64 = parse_num(&value("--heartbeat-ms")?, "--heartbeat-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--heartbeat-ms must be positive".to_owned()));
                }
                cfg.heartbeat = Duration::from_millis(ms);
            }
            "--ready-file" => ready_file = Some(value("--ready-file")?),
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            stray => {
                return Err(Failure::Usage(format!(
                    "worker takes no positional arguments (got '{stray}')"
                )));
            }
        }
    }

    // The lease overlays its own (seed, profile, intensity, retries,
    // deadline, breaker-cooldown) tuple; these flags only set the
    // defaults a sparse lease falls back to.
    flags.apply(&mut cfg.runner);

    // Startup poison for partition tests that have no cooperating
    // dispatcher: misbehave on the n-th accepted lease.
    if let Ok(spec) = std::env::var(CHAOS_NET_ENV) {
        cfg.chaos = Some(WorkerChaos::parse(&spec).ok_or_else(|| {
            Failure::Fatal(format!(
                "bad {CHAOS_NET_ENV} value '{spec}' (kill[:n] | stall[:n] | garble[:n])"
            ))
        })?);
        eprintln!("worker: chaos poison armed from {CHAOS_NET_ENV}: {spec}");
    }

    let worker =
        Worker::bind(cfg).map_err(|e| Failure::Fatal(format!("worker: cannot bind: {e}")))?;
    let addr = worker
        .local_addr()
        .map_err(|e| Failure::Fatal(format!("worker: cannot read bound address: {e}")))?;
    if let Some(path) = &ready_file {
        // Write-then-rename: a dispatcher polling the ready file never
        // reads a half-written address.
        let tmp = format!("{path}.tmp");
        write_file(&tmp, &addr.to_string(), "ready file")?;
        std::fs::rename(&tmp, path)
            .map_err(|e| Failure::Fatal(format!("failed to write ready file to {path}: {e}")))?;
    }
    eprintln!("worker: listening on {addr}");

    let factory = Arc::new(|code: &str| ExperimentId::parse(code).map(spec_for));
    let summary = worker
        .run(factory)
        .map_err(|e| Failure::Fatal(format!("worker: {e}")))?;
    eprintln!(
        "worker: drained — {} leases ({} completed, {} faulted)",
        summary.leases, summary.completed, summary.faulted
    );
    Ok(0)
}

// --------------------------------------------------------------- list --

fn cmd_list(args: Vec<String>) -> CmdResult {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(0);
    }
    if let Some(stray) = args.first() {
        return Err(Failure::Usage(format!(
            "list takes no arguments (got '{stray}')"
        )));
    }
    let mut table = TextTable::new(&["code", "family", "faults", "experiment"]);
    for id in ExperimentId::ALL {
        table.row(vec![
            id.code().to_owned(),
            id.family().to_owned(),
            if id.fault_capable() { "yes" } else { "-" }.to_owned(),
            id.title().to_owned(),
        ]);
    }
    println!("{}", table.render());
    println!("{} experiments; run with: experiments run [ID...]", ExperimentId::ALL.len());
    Ok(0)
}

// ------------------------------------------------------ merge-metrics --

fn cmd_merge_metrics(args: Vec<String>) -> CmdResult {
    let mut paths = Vec::new();
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => return Err(Failure::Usage("--out needs a value".to_owned())),
            },
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        return Err(Failure::Usage(
            "merge-metrics needs at least one snapshot path".to_owned(),
        ));
    }

    let mut merged = TelemetrySnapshot::default();
    for path in &paths {
        let text = read_file(path, "metrics snapshot")?;
        // Scope "" leaves run-level events unscoped, exactly like the
        // sharded supervisor's own merge.
        let snap = TelemetrySnapshot::from_json(&text).map_err(|e| {
            Failure::Fatal(format!("failed to parse metrics snapshot {path}: {e}"))
        })?;
        merged.merge(&snap, "");
    }
    let json = merged
        .to_json()
        .map_err(|e| Failure::Fatal(format!("failed to serialize merged snapshot: {e}")))?;
    match &out {
        Some(path) => write_file(path, &json, "merged snapshot")?,
        None => println!("{json}"),
    }
    eprintln!(
        "merged {} snapshots: {} counters, {} events",
        paths.len(),
        merged.metrics.counters.len(),
        merged.events.len()
    );
    Ok(0)
}

// -------------------------------------------------------------- replay --

fn cmd_replay(args: Vec<String>) -> CmdResult {
    let mut path = None;
    for arg in &args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            p if path.is_none() => path = Some(p.to_owned()),
            stray => {
                return Err(Failure::Usage(format!(
                    "replay takes one journal path (got '{stray}')"
                )));
            }
        }
    }
    let Some(path) = path else {
        return Err(Failure::Usage(
            "replay needs a journal path (JSONL from --journal-out)".to_owned(),
        ));
    };

    let text = read_file(&path, "event journal")?;
    let events = journal::from_jsonl(&text)
        .map_err(|e| Failure::Fatal(format!("failed to parse event journal {path}: {e}")))?;
    let factory = |code: &str| ExperimentId::parse(code).map(spec_for);
    let report = replay::replay(&events, &factory)
        .map_err(|e| Failure::Fatal(format!("cannot replay {path}: {e}")))?;
    print!("{}", report.render());
    Ok(report.exit_code() as u8)
}

// -------------------------------------------------------------- serve --

const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7077";

fn cmd_serve(args: Vec<String>) -> CmdResult {
    let mut cfg = ServeConfig::default();
    cfg.addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut ready_file = None;
    let mut flags = RunFlags::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            "--addr" => cfg.addr = value("--addr")?,
            "--cache-dir" => cfg.cache_dir = std::path::PathBuf::from(value("--cache-dir")?),
            "--cache-max-entries" => {
                cfg.cache_max_entries =
                    parse_num(&value("--cache-max-entries")?, "--cache-max-entries")?;
            }
            "--cache-max-age-secs" => {
                // 0 (the default) keeps entries forever — age-out only
                // makes sense once code-rev granularity is too coarse.
                let secs: u64 = parse_num(&value("--cache-max-age-secs")?, "--cache-max-age-secs")?;
                cfg.cache_max_age = Duration::from_secs(secs);
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--concurrency" => {
                let n: usize = parse_num(&value("--concurrency")?, "--concurrency")?;
                if n == 0 {
                    return Err(Failure::Usage("--concurrency must be positive".to_owned()));
                }
                cfg.concurrency = n;
            }
            "--handlers" => {
                let n: usize = parse_num(&value("--handlers")?, "--handlers")?;
                if n == 0 {
                    return Err(Failure::Usage("--handlers must be positive".to_owned()));
                }
                cfg.handlers = n;
            }
            "--hold-ms" => {
                // Deterministic-delay knob for overload tests, like
                // --chaos-net is for dispatch tests.
                cfg.hold = Duration::from_millis(parse_num(&value("--hold-ms")?, "--hold-ms")?);
            }
            "--ready-file" => ready_file = Some(value("--ready-file")?),
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            stray => {
                return Err(Failure::Usage(format!(
                    "serve takes no positional arguments (got '{stray}')"
                )));
            }
        }
    }

    flags.apply(&mut cfg.runner);
    install_signal_handlers();
    let factory = Arc::new(|code: &str| ExperimentId::parse(code).map(spec_for));
    let server = Server::bind(cfg, factory)
        .map_err(|e| Failure::Fatal(format!("serve: cannot start: {e}")))?;
    let addr = server.local_addr();
    let rehydrated = server.rehydrated();
    // The ready file lets scripts (and tests) bind to port 0 and discover
    // the actual address without racing the daemon's startup.
    if let Some(path) = &ready_file {
        write_file(path, &addr.to_string(), "ready file")?;
    }
    eprintln!(
        "serve: listening on {addr} ({} cache entries rehydrated, {} evicted, {} stale, {} trimmed)",
        rehydrated.loaded, rehydrated.evicted, rehydrated.stale, rehydrated.trimmed
    );

    let summary = server
        .run()
        .map_err(|e| Failure::Fatal(format!("serve: {e}")))?;
    let counters = &summary.stats.metrics.counters;
    let n = |name: &str| counters.get(name).copied().unwrap_or(0);
    eprintln!(
        "serve: drained — {} requests ({} hits, {} misses, {} shed, {} errors), {} cache entries",
        n("serve.requests"),
        n("serve.cache_hit"),
        n("serve.cache_miss"),
        n("serve.shed"),
        n("serve.error"),
        summary.cache_entries
    );
    Ok(0)
}

// -------------------------------------------------------------- query --

fn cmd_query(args: Vec<String>) -> CmdResult {
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut req = Request::stats();
    req.cmd.clear();
    let mut artifact_out = None;
    let mut timeout = Duration::from_secs(120);
    let mut flags = RunFlags::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            "--addr" => addr = value("--addr")?,
            "--stats" | "--shutdown" => {
                if !req.cmd.is_empty() {
                    return Err(Failure::Usage(
                        "query takes one of: an experiment id, --stats, or --shutdown".to_owned(),
                    ));
                }
                req.cmd = arg.trim_start_matches('-').to_owned();
            }
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--timeout-ms must be positive".to_owned()));
                }
                timeout = Duration::from_millis(ms);
            }
            "--artifact-out" => artifact_out = Some(value("--artifact-out")?),
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                if !req.cmd.is_empty() {
                    return Err(Failure::Usage(
                        "query takes one of: an experiment id, --stats, or --shutdown".to_owned(),
                    ));
                }
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                req.cmd = "run".to_owned();
                req.experiment = Some(parsed.code().to_owned());
            }
        }
    }
    if req.cmd.is_empty() {
        return Err(Failure::Usage(
            "query needs an experiment id, --stats, or --shutdown".to_owned(),
        ));
    }
    flags.fill_request(&mut req);
    if let Some(path) = &artifact_out {
        preflight_writable(path, "artifact")?;
    }

    // One-shot today, but routed through the pool so the CLI exercises
    // the exact checkout/checkin path the ramp workers run at scale.
    let pool = ClientPool::new(&addr, timeout, 1);
    let mut client = pool
        .checkout()
        .map_err(|e| Failure::Fatal(format!("query: {e}")))?;
    let resp = client
        .request(&req)
        .map_err(|e| Failure::Fatal(format!("query: {e}")))?;
    pool.checkin(client);
    match resp.status.as_str() {
        "hit" | "miss" => {
            eprintln!(
                "query: {} key={} rev={}",
                resp.status,
                resp.key.as_deref().unwrap_or("?"),
                resp.code_rev.as_deref().unwrap_or("?")
            );
            let artifact = resp.artifact.unwrap_or_default();
            match &artifact_out {
                Some(path) => write_file(path, &artifact, "artifact")?,
                None => println!("{artifact}"),
            }
            Ok(0)
        }
        "stats" => {
            println!("{}", resp.stats.unwrap_or_default());
            Ok(0)
        }
        "ok" => {
            eprintln!("query: {}", resp.message.unwrap_or_default());
            Ok(0)
        }
        "overloaded" => {
            eprintln!(
                "query: daemon overloaded: {}",
                resp.message.unwrap_or_default()
            );
            Ok(3)
        }
        _ => {
            eprintln!("query: server error: {}", resp.message.unwrap_or_default());
            Ok(1)
        }
    }
}

// --------------------------------------------------------------- ramp --

/// Closed-loop capacity search: drive a daemon with rising open-loop
/// load until an SLO breaks, bisect to the max sustainable RPS, and
/// write the code-rev-stamped `CAPACITY.json`. Without `--addr` the
/// command spawns its own in-process daemon on a loopback port so a bare
/// `experiments ramp` measures this build end to end.
fn cmd_ramp(args: Vec<String>) -> CmdResult {
    let mut target_addr: Option<String> = None;
    let mut plan = RampPlan::default();
    let mut workers: usize = 4;
    let mut mix_seeds: u64 = 8;
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut capacity_out: Option<String> = None;
    let mut history_file: Option<String> = None;
    let mut trend_only = false;
    let mut timeout = Duration::from_secs(10);
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".to_owned();
    let mut cache_dir_set = false;
    let mut flags = RunFlags::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flags.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            "--addr" => target_addr = Some(value("--addr")?),
            "--workers" => {
                let n: usize = parse_num(&value("--workers")?, "--workers")?;
                if n == 0 {
                    return Err(Failure::Usage("--workers must be positive".to_owned()));
                }
                workers = n;
            }
            "--initial-rps" => {
                plan.initial_rps = parse_pos_f64(&value("--initial-rps")?, "--initial-rps")?;
            }
            "--increment-rps" => {
                plan.increment_rps = parse_pos_f64(&value("--increment-rps")?, "--increment-rps")?;
            }
            "--max-rps" => {
                plan.max_rps = parse_pos_f64(&value("--max-rps")?, "--max-rps")?;
            }
            "--step-ms" => {
                let ms: u64 = parse_num(&value("--step-ms")?, "--step-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--step-ms must be positive".to_owned()));
                }
                plan.step_duration = Duration::from_millis(ms);
            }
            "--bisect-iters" => {
                plan.bisect_iters = parse_num(&value("--bisect-iters")?, "--bisect-iters")?;
            }
            "--slo-p99-ms" => {
                let ms: u64 = parse_num(&value("--slo-p99-ms")?, "--slo-p99-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--slo-p99-ms must be positive".to_owned()));
                }
                plan.slo.max_p99_us = ms * 1000;
            }
            "--slo-max-fail" => {
                let x = parse_frac(&value("--slo-max-fail")?, "--slo-max-fail")?;
                plan.slo.max_fail_frac = x;
            }
            "--slo-min-achieved" => {
                let x = parse_frac(&value("--slo-min-achieved")?, "--slo-min-achieved")?;
                plan.slo.min_achieved_frac = x;
            }
            "--mix-seeds" => {
                // 0 is meaningful: a fresh seed per request, so every
                // request is a cache miss (worst-case load).
                mix_seeds = parse_num(&value("--mix-seeds")?, "--mix-seeds")?;
            }
            "--capacity-out" => capacity_out = Some(value("--capacity-out")?),
            "--history-file" => history_file = Some(value("--history-file")?),
            "--trend" => trend_only = true,
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--timeout-ms must be positive".to_owned()));
                }
                timeout = Duration::from_millis(ms);
            }
            "--cache-dir" => {
                cfg.cache_dir = std::path::PathBuf::from(value("--cache-dir")?);
                cache_dir_set = true;
            }
            "--cache-max-entries" => {
                cfg.cache_max_entries =
                    parse_num(&value("--cache-max-entries")?, "--cache-max-entries")?;
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--concurrency" => {
                let n: usize = parse_num(&value("--concurrency")?, "--concurrency")?;
                if n == 0 {
                    return Err(Failure::Usage("--concurrency must be positive".to_owned()));
                }
                cfg.concurrency = n;
            }
            "--handlers" => {
                let n: usize = parse_num(&value("--handlers")?, "--handlers")?;
                if n == 0 {
                    return Err(Failure::Usage("--handlers must be positive".to_owned()));
                }
                cfg.handlers = n;
            }
            "--hold-ms" => {
                cfg.hold = Duration::from_millis(parse_num(&value("--hold-ms")?, "--hold-ms")?);
            }
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                if !ids.contains(&parsed) {
                    ids.push(parsed);
                }
            }
        }
    }
    if trend_only {
        // Render the per-revision capacity ledger and stop — no daemon,
        // no load, no appends.
        let history_file = history_file
            .ok_or_else(|| Failure::Usage("--trend needs --history-file <PATH>".to_owned()))?;
        let entries = read_history(std::path::Path::new(&history_file)).map_err(|e| {
            Failure::Fatal(format!("ramp: cannot read capacity history {history_file}: {e}"))
        })?;
        println!("{}", render_trend(&entries));
        return Ok(0);
    }
    if plan.max_rps < plan.initial_rps {
        return Err(Failure::Usage(
            "--max-rps must be >= --initial-rps".to_owned(),
        ));
    }
    if ids.is_empty() {
        // f1 is the cheapest experiment: the default mix measures daemon
        // overhead, not simulation cost.
        ids.push(ExperimentId::parse("f1").expect("f1 exists"));
    }
    if let Some(path) = &capacity_out {
        preflight_writable(path, "capacity report")?;
    }
    let mix = RequestMix::new(
        ids.iter().map(|id| id.code().to_owned()).collect(),
        flags.profile.unwrap_or(FaultProfile::None).label(),
        flags.intensity.unwrap_or(1.0),
        mix_seeds,
    );

    // Self-spawn unless --addr names a daemon that is already running.
    let mut spawned = None;
    let addr = match target_addr {
        Some(addr) => addr,
        None => {
            if !cache_dir_set {
                // A fresh per-process cache dir: the measured hit-rate is
                // the mix's, not whatever a previous run left on disk.
                cfg.cache_dir =
                    std::env::temp_dir().join(format!("humnet-ramp-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&cfg.cache_dir);
            }
            if cfg.handlers == 0 {
                // Every ramp worker parks a persistent connection on a
                // handler; size the pool so none of them starves.
                cfg.handlers = workers + cfg.queue_depth + cfg.concurrency + 2;
            }
            flags.apply(&mut cfg.runner);
            let factory = Arc::new(|code: &str| ExperimentId::parse(code).map(spec_for));
            let server = Server::bind(cfg, factory)
                .map_err(|e| Failure::Fatal(format!("ramp: cannot start daemon: {e}")))?;
            let addr = server.local_addr().to_string();
            let stop = server.shutdown_handle();
            let handle = std::thread::spawn(move || server.run());
            eprintln!("ramp: spawned in-process daemon on {addr}");
            spawned = Some((handle, stop));
            addr
        }
    };

    let result = run_ramp(&addr, &plan, workers, &mix, timeout);

    if let Some((handle, stop)) = spawned {
        // Drain over the wire; the stop flag is the fallback if the
        // daemon can no longer answer a shutdown request.
        let _ = ServeClient::connect(&addr, Duration::from_secs(5)).and_then(|mut c| c.shutdown());
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        match handle.join() {
            Ok(Ok(summary)) => {
                let counters = &summary.stats.metrics.counters;
                let n = |name: &str| counters.get(name).copied().unwrap_or(0);
                eprintln!(
                    "ramp: daemon drained — {} requests ({} hits, {} misses, {} shed, {} evicted)",
                    n("serve.requests"),
                    n("serve.cache_hit"),
                    n("serve.cache_miss"),
                    n("serve.shed"),
                    n("serve.evicted"),
                );
            }
            Ok(Err(e)) => eprintln!("ramp: daemon exited with error: {e}"),
            Err(_) => eprintln!("ramp: daemon thread panicked"),
        }
        if !cache_dir_set {
            let _ = std::fs::remove_dir_all(
                std::env::temp_dir().join(format!("humnet-ramp-{}", std::process::id())),
            );
        }
    }

    let report = result.map_err(|e| Failure::Fatal(format!("ramp: {e}")))?;
    println!("{}", report.render());
    if let Some(path) = &capacity_out {
        let json = report
            .to_json()
            .map_err(|e| Failure::Fatal(format!("failed to serialize capacity report: {e}")))?;
        write_file(path, &json, "capacity report")?;
        eprintln!("ramp: capacity report written to {path}");
    }
    // Best-effort per-revision ledger, written only when asked for: one
    // line per code-rev, duplicates skipped, so repeated ramps of the same
    // build stay idempotent. A write failure is worth a warning, not a
    // failed ramp.
    let Some(history_file) = history_file else {
        return Ok(0);
    };
    match append_history(std::path::Path::new(&history_file), &report) {
        Ok(true) => eprintln!(
            "ramp: capacity trend appended to {history_file} (code-rev {})",
            report.code_rev
        ),
        Ok(false) => eprintln!(
            "ramp: capacity trend already records code-rev {} — {history_file} unchanged",
            report.code_rev
        ),
        Err(e) => eprintln!("ramp: could not append capacity history to {history_file}: {e}"),
    }
    Ok(0)
}

/// A strictly positive finite float CLI value.
fn parse_pos_f64(v: &str, flag: &str) -> Result<f64, Failure> {
    let x: f64 = v
        .parse()
        .map_err(|_| Failure::Usage(format!("bad {flag} value '{v}'")))?;
    if !x.is_finite() || x <= 0.0 {
        return Err(Failure::Usage(format!("{flag} must be a positive number")));
    }
    Ok(x)
}

/// A fraction in [0, 1].
fn parse_frac(v: &str, flag: &str) -> Result<f64, Failure> {
    let x: f64 = v
        .parse()
        .map_err(|_| Failure::Usage(format!("bad {flag} value '{v}'")))?;
    if !x.is_finite() || !(0.0..=1.0).contains(&x) {
        return Err(Failure::Usage(format!("{flag} must be in [0, 1]")));
    }
    Ok(x)
}

// ------------------------------------------------------------- shared --

/// The supervised-runner job for one experiment — the single definition
/// `run`, `replay`, `serve` and every `worker` execute, so a replayed,
/// served or dispatched experiment is driven by exactly the code that
/// produced the capture.
fn spec_for(id: ExperimentId) -> ExperimentSpec {
    ExperimentSpec::new(id.code(), id.title(), id.family(), move |plan, tel| {
        id.run_instrumented(plan, tel)
            .map(|r| JobOutput {
                rendered: r.rendered,
                faults_injected: r.faults_injected,
            })
            .map_err(|e| Box::new(e) as JobError)
    })
}

/// Default to every experiment; run explicit subsets in canonical order
/// regardless of CLI order (contiguous shard slices depend on it).
fn canonicalize_ids(ids: &mut Vec<ExperimentId>) {
    if ids.is_empty() {
        *ids = ExperimentId::ALL.to_vec();
    } else {
        ids.sort_by_key(|id| ExperimentId::ALL.iter().position(|a| a == id));
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, Failure> {
    v.parse()
        .map_err(|_| Failure::Usage(format!("bad {flag} value '{v}'")))
}

/// Create/truncate `path` now so an unwritable destination fails the
/// process (exit 2) before any experiment runs, not after.
fn preflight_writable(path: &str, what: &str) -> Result<(), Failure> {
    std::fs::File::create(path)
        .map(drop)
        .map_err(|e| Failure::Fatal(format!("cannot write {what} to {path}: {e}")))
}

fn read_file(path: &str, what: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path)
        .map_err(|e| Failure::Fatal(format!("failed to read {what} from {path}: {e}")))
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::Fatal(format!("failed to write {what} to {path}: {e}")))
}

/// The help text, with the IDs line generated from the registry.
fn usage() -> String {
    let ids: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.code()).collect();
    USAGE.replace("{IDS}", &ids.join(" "))
}

const USAGE: &str = "\
usage: experiments <COMMAND> [ARGS]
       experiments [OPTIONS] [ID...]        (alias for `run`)

Commands:
  run [OPTIONS] [ID...]          run experiments under the supervisor
  dispatch --procs <K> [OPTIONS] [ID...]
                                 partition the run into K shards, each leased
                                 over TCP to a fresh local worker child (crash
                                 retry, liveness, graceful partial-result
                                 degradation); with --workers the shards lease
                                 to remote worker daemons first
  worker [OPTIONS]               long-lived shard worker: accept shard
                                 leases over line-delimited JSON on TCP,
                                 execute them on the warm in-process pool,
                                 heartbeat inline, answer with the canonical
                                 per-shard artifact
  list                           print the experiment catalog (codes, families, titles)
  merge-metrics <PATH>... [--out <PATH>]
                                 merge telemetry snapshots (e.g. per-shard
                                 --metrics-out files) into one JSON snapshot
  replay <JOURNAL.jsonl>         re-execute a captured run and diff canonical events
  serve [OPTIONS]                long-lived daemon: answer run requests over
                                 line-delimited JSON on TCP, from a
                                 content-addressed result cache (misses execute
                                 on the warm in-process pool)
  query [OPTIONS] <ID> | --stats | --shutdown
                                 one request against a running daemon
  ramp [OPTIONS] [ID...]         closed-loop capacity search: drive a daemon
                                 (self-spawned unless --addr) with rising
                                 open-loop load, stop at the first SLO break,
                                 bisect to the max sustainable RPS, and report

IDs (default: all, in EXPERIMENTS.md order):
  {IDS}

Shared run-config options (accepted by run, dispatch, serve, query and ramp —
one validation path; each command overlays them on its own defaults):
  --fault-profile <none|churn|outage|chaos>  fault mix to inject (default none)
  --retries <N>        extra attempts per experiment (default 1)
  --deadline-ms <N>    per-attempt wall-clock deadline (default 30000)
  --seed <N>           seed for fault plans and retry jitter (default 42)
  --intensity <X>      multiplier on the profile's fault rates (default 1.0)
  --breaker-cooldown <N>
                       admit one half-open probe after N outcomes recorded
                       against an open breaker; 0 latches open (default 0;
                       not part of the wire protocol, so query ignores it)

Run options (plus the shared options above):
  --shards <N>         partition the run across N in-process shards; the
                       merged canonical output is shard-invariant (default 1)
  --schedule <static|steal>
                       how shards receive work: fixed contiguous slices, or
                       a work-stealing queue that rebalances skewed costs;
                       the canonical output is identical (default static)
  --report-only        print only the final run report
  --metrics-out <PATH> write the telemetry snapshot (metrics + spans) as JSON
  --journal-out <PATH> write the structured event journal as JSONL
  --report-out <PATH>  write the report+outputs artifact as JSON (the bytes
                       a serve cache hit returns)
  --trace-summary      print the per-span flame summary after the report
  --help               show this help

Dispatch options (shared options above plus the run options, minus --shards,
--schedule and --report-out, which dispatch manages itself):
  --procs <K>          number of shards (required); the merged canonical
                       output is byte-identical to the in-process 1-shard
                       run of the same seed
  --shard-retries <N>  extra lease attempts per failed shard (default 1)
  --shard-deadline-ms <N>
                       per-attempt wall-clock budget for one lease (default 120000)
  --liveness-ms <N>    revoke a lease whose worker sends no frame this long;
                       must exceed --heartbeat-ms; 0 disables liveness
                       checking (default 10000)
  --heartbeat-ms <N>   local workers' inline heartbeat cadence (default 100)
  --allow-partial      degrade to a partial merged result (exit 3) instead of
                       failing when a shard exhausts its retries
  --chaos-net <kill:<k>[:attempt] | stall:<k>[:attempt] | garble:<k>[:attempt]>
                       deterministic wire-fault injection on attempt
                       <attempt> (default 0) of target <k> — remote worker
                       <k> under --workers, else shard <k>'s local worker:
                       drop the connection, go silent, or emit a corrupt
                       frame (repeatable)
  --scratch <DIR>      attempt scratch directory (default under the temp dir)
  --keep-scratch       keep per-attempt artifacts and worker logs on success
  --workers <HOST:PORT[,HOST:PORT...]>
                       lease shards to these remote worker daemons (in order;
                       repeatable) before any local worker; the merged
                       canonical output stays byte-identical to the
                       in-process run, failed leases retry on the next
                       surviving worker with the same deterministic backoff
  --no-failover        give up after the remote retries instead of failing
                       the shard over to fresh local worker children
  --connect-timeout-ms <N>
                       TCP connect budget per lease attempt, and how long a
                       local worker may take to become ready (default 5000)

Worker options (plus the shared options above, which set the defaults a
sparse lease falls back to — each lease overlays its own run tuple):
  --addr <HOST:PORT>   listen address (default 127.0.0.1:0 — a free port;
                       see --ready-file)
  --heartbeat-ms <N>   inline heartbeat cadence while a lease executes
                       (default 100)
  --ready-file <PATH>  write the bound address here once listening
                       (write-then-rename, so readers never see half of it)
  The HUMNET_CHAOS_NET env var (kill[:n] | stall[:n] | garble[:n]) arms a
  startup poison that fires on the n-th accepted lease, for partition tests
  without a cooperating dispatcher. The worker drains and exits when a
  dispatcher sends a shutdown frame.

Serve options (plus the shared options above, which set the daemon's
per-request defaults):
  --addr <HOST:PORT>   listen address (default 127.0.0.1:7077; port 0 picks
                       a free port — see --ready-file)
  --cache-dir <DIR>    content-addressed result cache (default under the temp
                       dir; survives restarts and is rehydrated on startup)
  --cache-max-entries <N>
                       bound the result cache; inserting past the bound
                       evicts the least-recently-used entry (counted in
                       `serve.evicted`), and an overfull directory is
                       trimmed on startup; 0 = unbounded (default 0)
  --cache-max-age-secs <N>
                       age out cache entries older than N seconds: stale
                       files die at rehydrate and a background sweep evicts
                       live entries as they expire (counted in
                       `serve.evicted_stale`); 0 = keep forever (default 0)
  --queue-depth <N>    pending-run queue; requests beyond it are answered
                       `overloaded` instead of waiting (default 32)
  --concurrency <N>    worker threads executing cache misses (default 2)
  --handlers <N>       connection-handler threads; a persistent pipelined
                       client occupies one for its connection's lifetime
                       (default: concurrency + queue-depth + 2, min 16)
  --hold-ms <N>        hold each miss N ms before executing — deterministic
                       load knob for overload testing (default 0)
  --ready-file <PATH>  write the bound address here once listening
  The daemon drains and exits on SIGTERM or a `query --shutdown`.

Query options (the shared options form the request tuple; daemon defaults
fill whatever is absent, and deadline is wall-clock only — never part of the
cache key):
  --addr <HOST:PORT>   daemon address (default 127.0.0.1:7077)
  --timeout-ms <N>     socket timeout (default 120000)
  --artifact-out <PATH>
                       write the returned artifact JSON here instead of stdout

Ramp options (shared options: --fault-profile/--intensity shape the request
mix; --seed/--retries/--deadline-ms set the self-spawned daemon's runner
defaults):
  [ID...]              experiments cycled by the request mix (default f1,
                       the cheapest — measures daemon overhead)
  --addr <HOST:PORT>   target an already-running daemon instead of spawning
                       an in-process one on a free loopback port
  --workers <N>        open-loop load worker threads, one persistent
                       pipelined connection each (default 4)
  --initial-rps <X>    first step's offered load (default 100)
  --increment-rps <X>  additive step increase (default 100)
  --max-rps <X>        give up ramping past this rate (default 5000)
  --step-ms <N>        measurement window per step (default 2000)
  --bisect-iters <N>   bisection steps between last-good and first-bad
                       (default 4; stops early once the bracket is tight)
  --slo-p99-ms <N>     SLO: p99 latency ceiling (default 50)
  --slo-max-fail <X>   SLO: max shed+error+unanswered fraction (default 0.01)
  --slo-min-achieved <X>
                       SLO: min achieved/offered throughput (default 0.9)
  --mix-seeds <N>      seeds cycled per experiment — steady-state cache-hit
                       requests after warmup; 0 = a fresh seed per request,
                       every request a miss (default 8)
  --capacity-out <PATH>
                       write the code-rev-stamped capacity report JSON here
  --history-file <PATH>
                       per-revision capacity ledger a successful ramp appends
                       one line to — duplicate code-revs are skipped, so
                       re-ramping the same build is idempotent (default:
                       none; without it no ledger is read or written)
  --trend              render the --history-file ledger as a per-revision
                       table and exit without ramping (needs --history-file)
  --timeout-ms <N>     per-connection socket timeout (default 10000)
  --cache-dir/--cache-max-entries/--queue-depth/--concurrency/--handlers/
  --hold-ms            tune the self-spawned daemon (ignored with --addr;
                       default cache dir is fresh per run so the measured
                       hit-rate is the mix's, and the handler pool is sized
                       so every ramp worker's connection gets one)

Exit codes:
  0  all experiments completed / replay matched the capture / query answered
  1  an experiment failed / replay diverged / the daemon reported an error
  2  an experiment timed out, a shard died without --allow-partial, or bad
     arguments / unreadable or unwritable files / the daemon is unreachable
  3  dispatch degraded to partial results under --allow-partial, or the
     daemon shed the query as overloaded";

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}\n", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_experiment_code() {
        let text = usage();
        let mut lines = text.lines();
        lines.find(|l| l.starts_with("IDs (default: all"));
        let codes: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        let want: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.code()).collect();
        assert_eq!(codes, want);
    }
}
