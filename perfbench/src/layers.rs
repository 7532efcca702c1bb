//! The traced run's layer probe: prices each layer of the stack by timing
//! calls into its public functions from outside, and reads the counters
//! each layer keeps. Where the workload's own traffic already crossed a
//! layer (its spans, daemon or reports), those numbers are used; the
//! probe fills in the rest with traffic of its own.
//!
//! The ladder runs one light experiment (f1) and one heavy one (f10) at
//! every rung from a direct call up to a serve-daemon hit; a rung's self
//! time is its difference from the rung below.

use crate::stack::{self, Daemon, Workers};
use crate::trace::Tracer;
use crate::{median, metric, Ctx, Metric, Phase};
use humnet_core::experiments::ExperimentId;
use humnet_resilience::{FaultPlan, Schedule};
use humnet_serve::{cache_key, CacheEntry, Request, Response, ResultCache};
use humnet_telemetry::{Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Passes over the registry that price each experiment's kernel.
const CORE_PASSES: u64 = 2;
/// Ladder repetitions per experiment; each rung reports the median.
const LADDER: [(&str, u64); 3] = [("f1", 7), ("t4", 7), ("f10", 5)];
const RUNGS: [&str; 8] = [
    "direct",
    "instrumented",
    "supervised",
    "steal2",
    "remote1",
    "procs1",
    "serve_miss",
    "serve_hit",
];

/// A serve daemon's counters over one measured stretch.
#[derive(Default)]
pub struct ServerCounts {
    counters: BTreeMap<String, u64>,
    /// (sum, count) of the `serve.hit_ns` and `serve.miss_ns` histograms.
    hit_ns: (u64, u64),
    miss_ns: (u64, u64),
}

impl ServerCounts {
    /// The change from `before` to `after` (pass an empty snapshot to
    /// take the daemon's totals).
    pub fn between(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> ServerCounts {
        let hist = |s: &TelemetrySnapshot, name: &str| {
            s.metrics
                .histograms
                .get(name)
                .map_or((0, 0), |h| (h.sum, h.count))
        };
        let delta = |name: &str| {
            let (a, b) = (hist(after, name), hist(before, name));
            (a.0 - b.0, a.1 - b.1)
        };
        let counters = after
            .metrics
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v - before.metrics.counters.get(k).copied().unwrap_or(0),
                )
            })
            .collect();
        ServerCounts {
            counters,
            hit_ns: delta("serve.hit_ns"),
            miss_ns: delta("serve.miss_ns"),
        }
    }

    pub fn add(&mut self, other: ServerCounts) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.hit_ns = (
            self.hit_ns.0 + other.hit_ns.0,
            self.hit_ns.1 + other.hit_ns.1,
        );
        self.miss_ns = (
            self.miss_ns.0 + other.miss_ns.0,
            self.miss_ns.1 + other.miss_ns.1,
        );
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// What the workload's own traffic measured, for the layers it crossed.
#[derive(Default)]
pub struct Counts {
    /// Runner totals: attempts, experiments, experiments ok.
    pub runner: Option<(u64, u64, u64)>,
    /// Remote totals: shards planned, leases spent.
    pub leases: Option<(u64, u64)>,
    pub server: Option<ServerCounts>,
    /// Open-loop generator lag p99 (us) and the deepest pipeline seen.
    pub client: Option<(f64, f64)>,
    /// Hit requests and their responses, for the protocol timings.
    pub hits: Vec<(Request, Response)>,
    pub phases: Vec<Phase>,
}

/// Tallies the probe's own operations; a wrong output is a mismatch.
struct Tally(Phase);

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.0.sent += 1;
        if ok {
            self.0.ok += 1;
        } else {
            eprintln!("perfbench: probe output differed: {what}");
            self.0.failed += 1;
            self.0.mismatches += 1;
        }
    }
}

fn ms(ns: &[f64]) -> f64 {
    median(ns) / 1e6
}

fn us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

/// Median per-call time in ns of `f`, over `batches` batches of `calls`.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

pub fn probe(ctx: &Ctx, tr: &Tracer, counts: &mut Counts) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut tally = Tally(Phase::new("probe"));
    let plan = FaultPlan::none();

    // core: each kernel through a direct `ExperimentId::run`.
    let mut rendered: BTreeMap<&str, String> = BTreeMap::new();
    for pass in 0..CORE_PASSES {
        for id in ExperimentId::ALL {
            let run = {
                let _s = tr.span(format!("core.exp.{}", id.code()), pass, 0);
                id.run(&plan)
            };
            let text = run.map(|r| r.rendered).unwrap_or_default();
            let first = rendered.entry(id.code()).or_insert_with(|| text.clone());
            tally.check(!text.is_empty() && *first == text, id.code());
        }
    }
    for id in ExperimentId::ALL {
        let name = format!("core.exp.{}", id.code());
        metric(
            &mut out,
            format!("{name}_ms"),
            ms(&tr.durations(&name)),
            "ms",
        );
    }

    // ladder: the same experiment at every rung.
    let workers = Workers::start(ctx.nproc)?;
    let daemon = Daemon::start(ctx.fresh_dir("probe-serve"), ctx.nproc, 0, ctx.seed)?;
    let mut client = daemon.client()?;
    let mut hit_samples: Vec<(Request, Response)> = Vec::new();
    for (code, reps) in LADDER {
        let id = ExperimentId::parse(code).expect("ladder codes are registry codes");
        let spec = stack::spec_for(id);
        let reference = rendered[code].clone();
        let full = code != "t4";
        for rep in 0..reps {
            let rung = |name: &str| tr.span(format!("ladder.{name}.{code}"), rep, 0);
            let r = {
                let _s = rung("direct");
                id.run(&plan)
            };
            tally.check(r.is_ok_and(|r| r.rendered == reference), "direct");
            let r = {
                let _s = rung("instrumented");
                id.run_instrumented(&plan, &Telemetry::new())
            };
            tally.check(r.is_ok_and(|r| r.rendered == reference), "instrumented");
            let same = |outputs: &BTreeMap<String, String>| outputs.get(code) == Some(&reference);
            let r = {
                let _s = rung("supervised");
                stack::supervisor(ctx.seed, 1, Schedule::Static).run(std::slice::from_ref(&spec))
            };
            tally.check(same(&r.outputs), "supervised");
            if !full {
                continue;
            }
            let r = {
                let _s = rung("steal2");
                stack::supervisor(ctx.seed, 2, Schedule::Steal).run(std::slice::from_ref(&spec))
            };
            tally.check(same(&r.outputs), "steal2");
            let dir = ctx.fresh_dir("probe-dispatch");
            let r = {
                let _s = rung("remote1");
                stack::remote_pass(&workers.addrs[..1], ctx.seed, &[code], 1, &dir)
            };
            let _ = std::fs::remove_dir_all(&dir);
            tally.check(r.is_ok_and(|o| same(&o.run.outputs)), "remote1");
            let dir = ctx.fresh_dir("probe-procs");
            let r = {
                let _s = rung("procs1");
                Command::new(&ctx.experiments_bin)
                    .args(["dispatch", "--procs", "1", "--report-only", "--seed"])
                    .arg(ctx.seed.to_string())
                    .arg("--scratch")
                    .arg(&dir)
                    .arg(code)
                    .stdin(Stdio::null())
                    .stderr(Stdio::null())
                    .output()
            };
            let _ = std::fs::remove_dir_all(&dir);
            tally.check(
                r.is_ok_and(|o| {
                    o.status.success()
                        && String::from_utf8_lossy(&o.stdout).contains("1 experiments: 1 ok")
                }),
                "procs1",
            );
            let req = Request::run(
                code,
                crate::mix(ctx.seed ^ (rep << 8) ^ 0xAB) >> 12,
                "none",
                1.0,
            );
            let mut ask = |rung_name: &str| -> Option<Response> {
                let s = rung(rung_name);
                {
                    let _send = tr.span("client.send", rep, s.id());
                    client.send(&req).ok()?;
                }
                client.recv().ok()
            };
            let miss = ask("serve_miss");
            let hit = ask("serve_hit");
            let miss_ok = miss
                .as_ref()
                .is_some_and(|r| r.status == "miss" && r.artifact.is_some());
            tally.check(miss_ok, "serve_miss");
            let hit_ok = miss_ok
                && hit.as_ref().is_some_and(|h| {
                    h.status == "hit"
                        && h.artifact == miss.as_ref().and_then(|m| m.artifact.clone())
                });
            tally.check(hit_ok, "serve_hit");
            if let (true, Some(hit)) = (hit_ok, hit) {
                hit_samples.push((req.clone(), hit));
            }
        }
    }
    let rung_ns = |rung: &str, code: &str| tr.durations(&format!("ladder.{rung}.{code}"));
    for code in ["f1", "f10"] {
        for rung in RUNGS {
            metric(
                &mut out,
                format!("ladder.{rung}.{code}_us"),
                us(&rung_ns(rung, code)),
                "us",
            );
        }
    }
    // Overheads pair the two rungs of one repetition, which ran back to
    // back, so drift in machine speed between repetitions cancels.
    let paired = |upper: &str, lower: &str, code: &str| -> Vec<(f64, f64)> {
        let a = tr.spans_by_op(&format!("ladder.{upper}.{code}"));
        let b = tr.spans_by_op(&format!("ladder.{lower}.{code}"));
        a.iter()
            .filter_map(|(op, x)| b.get(op).map(|y| (*x, *y)))
            .collect()
    };
    for code in ["f1", "f10"] {
        let ratios: Vec<f64> = paired("instrumented", "direct", code)
            .iter()
            .map(|(i, d)| (i / d - 1.0) * 100.0)
            .collect();
        metric(
            &mut out,
            format!("telemetry.overhead.{code}_pct"),
            median(&ratios),
            "%",
        );
    }
    for code in ["f1", "t4", "f10"] {
        let diffs: Vec<f64> = paired("supervised", "instrumented", code)
            .iter()
            .map(|(s, i)| s - i)
            .collect();
        metric(
            &mut out,
            format!("runner.attempt_overhead.{code}_us"),
            us(&diffs),
            "us",
        );
    }
    let (attempts, rows, ok_rows) = counts.runner.unwrap_or_default();
    metric(&mut out, "runner.attempts", attempts as f64, "count");
    metric(
        &mut out,
        "runner.retries",
        attempts.saturating_sub(rows) as f64,
        "count",
    );
    metric(
        &mut out,
        "runner.ok_frac",
        ok_rows as f64 / rows.max(1) as f64,
        "frac",
    );

    // shard and remote: whole-suite passes, unless the workload ran them.
    let needs_steal = tr.durations("shard.steal").is_empty();
    let needs_remote = tr.durations("remote.dispatch").is_empty();
    if needs_steal || needs_remote {
        let specs = stack::all_specs();
        let codes: Vec<&str> = specs.iter().map(|s| s.code.as_str()).collect();
        let reference =
            stack::artifact_json(&stack::supervisor(ctx.seed, 1, Schedule::Static).run(&specs));
        let mut leases = (0, 0);
        for pass in 0..2 {
            if needs_steal {
                let run = {
                    let _s = tr.span("shard.steal", pass, 0);
                    stack::supervisor(ctx.seed, ctx.nproc as u32, Schedule::Steal).run(&specs)
                };
                tally.check(stack::artifact_json(&run) == reference, "shard.steal");
            }
            if needs_remote {
                let dir = ctx.fresh_dir("probe-dispatch");
                let r = {
                    let _s = tr.span("remote.dispatch", pass, 0);
                    stack::remote_pass(&workers.addrs, ctx.seed, &codes, ctx.nproc as u32, &dir)
                };
                let _ = std::fs::remove_dir_all(&dir);
                if let Ok(o) = &r {
                    leases.0 += o.shard_attempts.len() as u64;
                    leases.1 += o.shard_attempts.iter().map(|&a| u64::from(a)).sum::<u64>();
                }
                tally.check(
                    r.is_ok_and(|o| stack::artifact_json(&o.run) == reference),
                    "remote.dispatch",
                );
            }
        }
        if needs_remote {
            counts.leases = Some(leases);
        }
    }
    drop(workers);
    metric(
        &mut out,
        "shard.steal.pass_ms",
        ms(&tr.durations("shard.steal")),
        "ms",
    );
    let (shards, leases) = counts.leases.unwrap_or_default();
    metric(
        &mut out,
        "remote.dispatch_ms",
        ms(&tr.durations("remote.dispatch")),
        "ms",
    );
    metric(&mut out, "remote.leases", leases as f64, "count");
    metric(
        &mut out,
        "remote.retries",
        leases.saturating_sub(shards) as f64,
        "count",
    );
    metric(
        &mut out,
        "remote.lease_ok_frac",
        shards as f64 / leases.max(1) as f64,
        "frac",
    );

    // protocol: encode and decode the workload's own hits when it had any.
    let samples = if counts.hits.is_empty() {
        &hit_samples
    } else {
        &counts.hits
    };
    let samples = &samples[..samples.len().min(32)];
    if samples.is_empty() {
        return Err("no hit responses to time the protocol and cache on".to_owned());
    }
    let (mut req_ns, mut to_ns, mut from_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (req, resp)) in samples.iter().enumerate() {
        let _s = tr.span("protocol.codec", i as u64, 0);
        req_ns.push(per_call_ns(5, 200, || {
            std::hint::black_box(std::hint::black_box(req).to_line().ok());
        }));
        to_ns.push(per_call_ns(5, 20, || {
            std::hint::black_box(std::hint::black_box(resp).to_line().ok());
        }));
        let line = resp.to_line().map_err(|e| e.to_string())?;
        tally.check(
            Response::from_line(&line).ok().as_ref() == Some(resp),
            "protocol round trip",
        );
        from_ns.push(per_call_ns(5, 20, || {
            std::hint::black_box(Response::from_line(std::hint::black_box(&line)).ok());
        }));
    }
    metric(
        &mut out,
        "protocol.request_to_line_ns",
        median(&req_ns),
        "ns",
    );
    metric(
        &mut out,
        "protocol.response_to_line_us",
        median(&to_ns) / 1e3,
        "us",
    );
    metric(
        &mut out,
        "protocol.response_from_line_us",
        median(&from_ns) / 1e3,
        "us",
    );

    // cache: a private bounded cache filled with the hit artifacts.
    let dir = ctx.fresh_dir("probe-cache");
    let (cache, _) =
        ResultCache::open_bounded(&dir, 32).map_err(|e| format!("probe cache: {e}"))?;
    let mut insert_ns = Vec::new();
    let mut evicted = 0;
    let mut keys = Vec::new();
    for i in 0..64u64 {
        let (req, resp) = &samples[i as usize % samples.len()];
        let code = req.experiment.clone().unwrap_or_default();
        let key = cache_key(&code, i, "none", 1.0, 1, "perfbench");
        let (artifact, metrics) = (
            resp.artifact.clone().unwrap_or_default(),
            resp.metrics.clone().unwrap_or_default(),
        );
        let entry = CacheEntry {
            key: key.clone(),
            experiment: code,
            seed: i,
            profile: "none".to_owned(),
            intensity: 1.0,
            retries: 1,
            code_rev: "perfbench".to_owned(),
            checksum: CacheEntry::checksum_of(&artifact, &metrics),
            artifact,
            metrics,
        };
        let t0 = Instant::now();
        let r = {
            let _s = tr.span("cache.insert", i, 0);
            cache.insert(entry)
        };
        insert_ns.push(t0.elapsed().as_nanos() as f64);
        tally.check(r.is_ok(), "cache insert");
        evicted += r.unwrap_or(0) as u64;
        keys.push(key);
    }
    let live = &keys[keys.len() - 32..];
    tally.check(live.iter().all(|k| cache.get(k).is_some()), "cache get");
    let mut next = 0;
    let get_ns = per_call_ns(9, 1000, || {
        next = (next + 1) % live.len();
        std::hint::black_box(cache.get(&live[next]));
    });
    let key_ns = per_call_ns(9, 1000, || {
        std::hint::black_box(cache_key(
            std::hint::black_box("f10"),
            7,
            "none",
            1.0,
            1,
            "perfbench",
        ));
    });
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    metric(&mut out, "cache.key_ns", key_ns, "ns");
    metric(&mut out, "cache.get_ns", get_ns, "ns");
    metric(&mut out, "cache.insert_us", us(&insert_ns), "us");
    metric(&mut out, "cache.evictions", evicted as f64, "count");

    // server and client: the workload's daemon, else the probe's.
    let server = match counts.server.take() {
        Some(s) => s,
        None => ServerCounts::between(&TelemetrySnapshot::default(), &daemon.stats()?),
    };
    drop(client);
    daemon.stop()?;
    let mean = |(sum, count): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    };
    let (hits, misses) = (
        server.get("serve.cache_hit"),
        server.get("serve.cache_miss"),
    );
    metric(&mut out, "server.hit_ns_mean", mean(server.hit_ns), "ns");
    metric(&mut out, "server.miss_ns_mean", mean(server.miss_ns), "ns");
    metric(
        &mut out,
        "server.requests",
        server.get("serve.requests") as f64,
        "count",
    );
    metric(&mut out, "server.hits", hits as f64, "count");
    metric(&mut out, "server.misses", misses as f64, "count");
    metric(
        &mut out,
        "server.shed",
        server.get("serve.shed") as f64,
        "count",
    );
    metric(
        &mut out,
        "server.errors",
        server.get("serve.error") as f64,
        "count",
    );
    metric(
        &mut out,
        "server.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "frac",
    );
    let (lag, in_flight) = counts.client.unwrap_or((0.0, 1.0));
    metric(
        &mut out,
        "client.send_us",
        us(&tr.durations("client.send")),
        "us",
    );
    metric(&mut out, "client.gen_lag_p99_us", lag, "us");
    metric(&mut out, "client.in_flight_max", in_flight, "count");

    counts.phases.push(tally.0);
    Ok(out)
}
