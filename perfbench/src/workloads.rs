//! The workloads. Each is set up from the seed alone, measured for a
//! given time, and checks every operation's output against a reference
//! made at set-up or against a direct run of the same tuple.
//!
//! - `suite`: closed loop, one caller, the 17-experiment registry through
//!   `Supervisor::run` at CLI defaults. The kernels do nearly all the work.
//! - `steal`: the same suite on `nproc` in-process shards with
//!   `Schedule::Steal`. Kernel work equals `suite`'s, so the difference is
//!   shard, steal and merge overhead.
//! - `remote`: the same suite leased by `dispatch_remote` to `nproc`
//!   loopback `Worker`s with failover off: lease, wire and merge overhead.
//! - `serve_hit`: open loop at a fixed rate over a warmed cache, then a
//!   closed-loop saturation phase. Protocol, index lookup, telemetry and
//!   loopback TCP do all the work; no kernel runs.
//!
//! A `serve_miss` workload (a fresh seed per request) was tried and left
//! out: its open-loop latency moved by 30% between identical runs on a
//! shared 2-core VM. The miss path is priced per layer by the probe.

use crate::layers::{Counts, ServerCounts};
use crate::stack::{self, Daemon, Load, LoadResult, Planned, Workers};
use crate::trace::Tracer;
use crate::{mix, quantile, Ctx, Phase};
use humnet_core::experiments::ExperimentId;
use humnet_resilience::{ExperimentSpec, RunReport, Schedule};
use humnet_serve::{Request, Response};
use std::time::{Duration, Instant};

/// Seeds per experiment warmed into the `serve_hit` cache.
const HIT_SEEDS: usize = 3;
/// Offered rate of the open loop, requests per second: a sixth to a third
/// of the saturation rate on a 2-core VM. Nearer half, queueing turned the
/// host's minute-to-minute speed drift into 2x swings of latency.
const HIT_RATE: f64 = 300.0;
/// Requests each connection keeps pipelined in the saturation phase.
const SAT_DEPTH: usize = 4;
/// Share of a serve run spent in the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.65;

/// What one measurement produced.
#[derive(Default)]
pub struct Measured {
    /// Latency of every successful operation, ms.
    pub op_ms: Vec<f64>,
    pub ops_per_s: f64,
    pub phases: Vec<Phase>,
    pub invalid: Option<String>,
    /// Runner totals over the supervised reports: attempts, rows, ok rows.
    pub runner: (u64, u64, u64),
    /// Remote totals: shards planned, leases spent.
    pub leases: (u64, u64),
    pub lag_p99_us: f64,
    pub in_flight_max: usize,
    pub kept: Vec<(Planned, Response)>,
}

impl Measured {
    /// Fold another slice of the same workload into this one.
    pub fn absorb(&mut self, other: Measured) {
        self.op_ms.extend(other.op_ms);
        self.phases.extend(other.phases);
        self.invalid = self.invalid.take().or(other.invalid);
        add3(&mut self.runner, other.runner);
        self.leases.0 += other.leases.0;
        self.leases.1 += other.leases.1;
        self.lag_p99_us = self.lag_p99_us.max(other.lag_p99_us);
        self.in_flight_max = self.in_flight_max.max(other.in_flight_max);
        self.kept.extend(other.kept);
    }
}

pub trait Workload {
    fn measure(&mut self, ctx: &Ctx, dur: Duration, tracer: &Tracer) -> Result<Measured, String>;

    /// Per-layer counts this workload's own traffic provides.
    fn layer_counts(&mut self, traced: &Measured, counts: &mut Counts) -> Result<(), String>;
}

pub type Factory = Box<dyn FnMut(&Ctx) -> Result<Box<dyn Workload>, String>>;

pub fn factory(name: &str) -> Option<Factory> {
    let f: Factory = match name {
        "suite" => Box::new(|ctx| Passes::setup(ctx, PassKind::Suite)),
        "steal" => Box::new(|ctx| Passes::setup(ctx, PassKind::Steal)),
        "remote" => Box::new(|ctx| Passes::setup(ctx, PassKind::Remote)),
        "serve_hit" => Box::new(Serve::setup),
        _ => return None,
    };
    Some(f)
}

/// A seed the JSON protocol carries exactly (below 2^52).
fn wire_seed(x: u64) -> u64 {
    mix(x) >> 12
}

fn runner_totals(report: &RunReport) -> (u64, u64, u64) {
    let rows = &report.experiments;
    (
        rows.iter().map(|e| u64::from(e.attempts)).sum(),
        rows.len() as u64,
        rows.iter()
            .filter(|e| e.status == humnet_resilience::ExperimentStatus::Ok)
            .count() as u64,
    )
}

fn add3(a: &mut (u64, u64, u64), b: (u64, u64, u64)) {
    a.0 += b.0;
    a.1 += b.1;
    a.2 += b.2;
}

// -------------------------------------------------------- suite passes --

#[derive(Clone, Copy, PartialEq)]
enum PassKind {
    Suite,
    Steal,
    Remote,
}

struct Passes {
    kind: PassKind,
    specs: Vec<ExperimentSpec>,
    /// Artifact of the 1-shard run made at set-up; every pass must match.
    reference: String,
    workers: Option<Workers>,
    pass_no: u64,
}

/// One pass's outcome: the artifact bytes, whether every row completed,
/// runner totals and (remote only) shards and leases.
struct PassOut {
    artifact: String,
    complete: bool,
    runner: (u64, u64, u64),
    leases: (u64, u64),
}

impl Passes {
    fn setup(ctx: &Ctx, kind: PassKind) -> Result<Box<dyn Workload>, String> {
        let specs = stack::all_specs();
        let run = stack::supervisor(ctx.seed, 1, Schedule::Static).run(&specs);
        if !stack::all_ok(&run, specs.len()) {
            return Err(format!(
                "reference pass did not complete: {}",
                run.report.summary_line()
            ));
        }
        let reference = stack::artifact_json(&run);
        let workers = match kind {
            PassKind::Remote => Some(Workers::start(ctx.nproc)?),
            _ => None,
        };
        let mut w = Passes {
            kind,
            specs,
            reference,
            workers,
            pass_no: 0,
        };
        if kind != PassKind::Suite {
            // Warm the shard threads or worker connections once.
            let out = w.pass(ctx, &Tracer::new(false))?;
            if out.artifact != w.reference || !out.complete {
                return Err("warm-up pass differed from the reference".to_owned());
            }
        }
        Ok(Box::new(w))
    }

    fn pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<PassOut, String> {
        let op = self.pass_no;
        self.pass_no += 1;
        let shards = ctx.nproc as u32;
        match self.kind {
            PassKind::Suite | PassKind::Steal => {
                let (name, shards, schedule) = match self.kind {
                    PassKind::Suite => ("suite.pass", 1, Schedule::Static),
                    _ => ("shard.steal", shards, Schedule::Steal),
                };
                let run = {
                    let _s = tracer.span(name, op, 0);
                    stack::supervisor(ctx.seed, shards, schedule).run(&self.specs)
                };
                Ok(PassOut {
                    artifact: stack::artifact_json(&run),
                    complete: stack::all_ok(&run, self.specs.len()),
                    runner: runner_totals(&run.report),
                    leases: (0, 0),
                })
            }
            PassKind::Remote => {
                let addrs = &self
                    .workers
                    .as_ref()
                    .expect("remote workload has workers")
                    .addrs;
                let codes: Vec<&str> = self.specs.iter().map(|s| s.code.as_str()).collect();
                let scratch = ctx.fresh_dir("dispatch");
                let outcome = {
                    let _s = tracer.span("remote.dispatch", op, 0);
                    stack::remote_pass(addrs, ctx.seed, &codes, shards, &scratch)
                };
                let _ = std::fs::remove_dir_all(&scratch);
                let outcome = outcome?;
                Ok(PassOut {
                    artifact: stack::artifact_json(&outcome.run),
                    complete: !outcome.degraded() && stack::all_ok(&outcome.run, self.specs.len()),
                    runner: runner_totals(&outcome.run.report),
                    leases: (
                        outcome.shard_attempts.len() as u64,
                        outcome.shard_attempts.iter().map(|&a| u64::from(a)).sum(),
                    ),
                })
            }
        }
    }
}

impl Workload for Passes {
    fn measure(&mut self, ctx: &Ctx, dur: Duration, tracer: &Tracer) -> Result<Measured, String> {
        let mut m = Measured {
            ..Measured::default()
        };
        let mut phase = Phase::new("passes");
        let start = Instant::now();
        let mut busy = 0.0;
        while start.elapsed() < dur || phase.sent < 3 {
            let t0 = Instant::now();
            let out = self.pass(ctx, tracer);
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            phase.sent += 1;
            match out {
                Ok(out) if out.artifact != self.reference => {
                    phase.failed += 1;
                    phase.mismatches += 1;
                }
                Ok(out) if out.complete => {
                    phase.ok += 1;
                    m.op_ms.push(dt * 1e3);
                    add3(&mut m.runner, out.runner);
                    m.leases.0 += out.leases.0;
                    m.leases.1 += out.leases.1;
                }
                _ => phase.failed += 1,
            }
        }
        m.ops_per_s = phase.ok as f64 / busy;
        m.phases.push(phase);
        Ok(m)
    }

    fn layer_counts(&mut self, traced: &Measured, counts: &mut Counts) -> Result<(), String> {
        counts.runner = Some(traced.runner);
        if self.kind == PassKind::Remote {
            counts.leases = Some(traced.leases);
        }
        Ok(())
    }
}

// ------------------------------------------------------------- serve --

struct Serve {
    daemon: Daemon,
    /// Warmed tuples and the artifact each one's miss returned.
    tuples: Vec<(&'static str, u64)>,
    expected: Vec<String>,
    phase_no: u64,
    /// Whether the warm-up misses were checked against direct runs.
    verified: bool,
    /// The daemon's counters over the traced measurements.
    traced: Option<ServerCounts>,
}

impl Serve {
    fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
        let daemon = Daemon::start(ctx.fresh_dir("serve-hit"), ctx.nproc, 0, ctx.seed)?;
        let codes: Vec<&'static str> = ExperimentId::ALL.iter().map(|id| id.code()).collect();
        let tuples: Vec<(&'static str, u64)> = (0..HIT_SEEDS * codes.len())
            .map(|i| {
                (
                    codes[i % codes.len()],
                    wire_seed(ctx.seed ^ ((i as u64) << 32)),
                )
            })
            .collect();
        // Warm with `nproc` parallel callers; each tuple must miss once.
        let mut expected = vec![String::new(); tuples.len()];
        let results: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.nproc)
                .map(|conn| {
                    let (daemon, tuples) = (&daemon, &tuples);
                    scope.spawn(move || {
                        let mut client = daemon.client()?;
                        let mut got = Vec::new();
                        for i in (conn..tuples.len()).step_by(ctx.nproc) {
                            let (code, seed) = tuples[i];
                            let resp = client
                                .request(&Request::run(code, seed, "none", 1.0))
                                .map_err(|e| e.to_string())?;
                            match (resp.status.as_str(), resp.artifact) {
                                ("miss", Some(artifact)) => got.push((i, artifact)),
                                (status, _) => {
                                    return Err(format!("warm-up {code}/{seed} answered {status}"))
                                }
                            }
                        }
                        Ok(got)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread never panics"))
                .collect()
        });
        for r in results {
            for (i, artifact) in r? {
                expected[i] = artifact;
            }
        }
        Ok(Box::new(Serve {
            daemon,
            tuples,
            expected,
            phase_no: 0,
            verified: false,
            traced: None,
        }))
    }

    /// The first seed of every experiment: its miss must equal a direct
    /// supervised run of the same tuple, byte for byte.
    fn verify_misses(&self) -> Phase {
        let mut sample = Phase::new("miss_vs_direct");
        for (&(code, seed), artifact) in self
            .tuples
            .iter()
            .zip(&self.expected)
            .take(ExperimentId::ALL.len())
        {
            sample.sent += 1;
            let spec = stack::lookup(code).expect("warm-up codes are registry codes");
            let direct = stack::supervisor(seed, 1, Schedule::Static).run(&[spec]);
            if *artifact == stack::artifact_json(&direct) {
                sample.ok += 1;
            } else {
                sample.failed += 1;
                sample.mismatches += 1;
            }
        }
        sample
    }

    fn phase(&mut self, ctx: &Ctx, load: Load, dur: Duration, tracer: &Tracer) -> LoadResult {
        self.phase_no += 1;
        let salt = ctx.seed ^ (self.phase_no << 48);
        let tuples = &self.tuples;
        let plan = move |conn: usize, i: u64| -> Planned {
            let t = (mix(salt ^ ((conn as u64) << 40) ^ i) % tuples.len() as u64) as usize;
            let (code, seed) = tuples[t];
            Planned {
                req: Request::run(code, seed, "none", 1.0),
                expected: t,
                keep: i.is_multiple_of(64),
            }
        };
        stack::drive(
            &self.daemon.addr,
            ctx.nproc,
            load,
            dur,
            &plan,
            &self.expected,
            tracer,
        )
    }
}

fn phase_counts(name: &str, r: &LoadResult) -> Phase {
    Phase {
        name: name.to_owned(),
        sent: r.sent,
        ok: r.ok,
        failed: r.failed,
        mismatches: r.mismatches,
    }
}

impl Workload for Serve {
    fn measure(&mut self, ctx: &Ctx, dur: Duration, tracer: &Tracer) -> Result<Measured, String> {
        let before = if tracer.is_on() {
            Some(self.daemon.stats()?)
        } else {
            None
        };
        let open = self.phase(
            ctx,
            Load::Open {
                rate_per_conn: HIT_RATE / ctx.nproc as f64,
            },
            dur.mul_f64(OPEN_SHARE),
            tracer,
        );
        let sat = self.phase(
            ctx,
            Load::Closed { depth: SAT_DEPTH },
            dur.mul_f64(1.0 - OPEN_SHARE),
            tracer,
        );
        if let Some(before) = before {
            let delta = ServerCounts::between(&before, &self.daemon.stats()?);
            self.traced
                .get_or_insert_with(ServerCounts::default)
                .add(delta);
        }
        let lag_p99_us = quantile(&open.lag_us, 0.99);
        let lag_p50_us = quantile(&open.lag_us, 0.5);
        // A generator whose median send is a whole interval late has
        // fallen behind its schedule: the run measured the generator, not
        // the daemon, and is reported invalid.
        let interval_us = 1e6 * ctx.nproc as f64 / HIT_RATE;
        eprintln!(
            "perfbench: open loop {HIT_RATE}/s: latency p50 {:.0}us p99 {:.0}us, generator lag p50 {lag_p50_us:.0}us p99 {lag_p99_us:.0}us; saturation {:.0}/s",
            quantile(&open.latency_us, 0.5),
            quantile(&open.latency_us, 0.99),
            sat.ok as f64 / sat.elapsed.as_secs_f64(),
        );
        let mut phases = vec![
            phase_counts("open_loop", &open),
            phase_counts("saturation", &sat),
        ];
        if !self.verified {
            self.verified = true;
            phases.push(self.verify_misses());
        }
        Ok(Measured {
            op_ms: open.latency_us.iter().map(|us| us / 1e3).collect(),
            ops_per_s: sat.ok as f64 / sat.elapsed.as_secs_f64(),
            phases,
            invalid: (lag_p50_us > interval_us).then(|| {
                format!("open-loop generator lag p50 {lag_p50_us:.0}us exceeds the {interval_us:.0}us send interval")
            }),
            lag_p99_us,
            in_flight_max: open.in_flight_max.max(sat.in_flight_max),
            kept: open.kept.into_iter().chain(sat.kept).collect(),
            ..Measured::default()
        })
    }

    fn layer_counts(&mut self, traced: &Measured, counts: &mut Counts) -> Result<(), String> {
        let server = self
            .traced
            .take()
            .ok_or("serve layer counts need a traced measurement")?;
        counts.runner = Some((
            server.get("runner.attempts"),
            server.get("runner.experiments"),
            server.get("runner.status.ok"),
        ));
        counts.server = Some(server);
        counts.client = Some((traced.lag_p99_us, traced.in_flight_max as f64));
        counts.hits = traced
            .kept
            .iter()
            .filter(|(_, r)| r.status == "hit")
            .map(|(p, r)| (p.req.clone(), r.clone()))
            .collect();
        Ok(())
    }
}
