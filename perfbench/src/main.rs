//! End-to-end and per-layer benchmark of the humnet stack.
//!
//! ```text
//! perfbench --workload <suite|steal|remote|serve_hit> --seed <n>
//!           --seconds <s> --trace <0|1> --experiments-bin <path> --out <dir>
//! ```
//!
//! With `--trace 0` the run sets up several times, measures the workload
//! for `--seconds` with tracing off, and reports the end-to-end metrics.
//! With `--trace 1` it sets up once, measures 60% of that time in
//! alternating untraced and traced slices (their difference is
//! `trace.overhead_pct`), then prices every layer of the stack and
//! reports the per-layer metrics.
//! Every operation's output is checked; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and a byte
//! mismatch anywhere exits 1. `perfbench/run.py` builds and runs this.

mod ident;
mod layers;
mod stack;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Factory, Measured};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The tail reported as `tail_ms`: p90. On a shared VM a brief host stall
/// delays every request sent during it, which moved p99 by 2-6x between
/// identical runs but leaves p90 alone.
const TAIL_Q: f64 = 0.9;

pub struct Ctx {
    pub seed: u64,
    pub nproc: usize,
    /// Scratch directory for caches and dispatch files, removed at exit.
    pub scratch: PathBuf,
    pub experiments_bin: PathBuf,
}

impl Ctx {
    /// A fresh subdirectory of the scratch directory.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.scratch.join(format!("{tag}-{n}"))
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Sent/ok/failed counts of one phase of a run.
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Phase {
    pub fn new(name: &str) -> Phase {
        Phase {
            name: name.to_owned(),
            sent: 0,
            ok: 0,
            failed: 0,
            mismatches: 0,
        }
    }
}

/// Exact quantile of raw samples, interpolating between order statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// splitmix64 of `x`: the benchmark's only source of generated inputs,
/// a stateless mix of the seed and an input's coordinates.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    experiments_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--experiments-bin" => bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        experiments_bin: bin.ok_or("--experiments-bin is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// Removes the scratch directory however the run ends.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Report {
    phases: Vec<Phase>,
    metrics: Vec<Metric>,
    invalid: Option<String>,
}

fn untraced(w: &mut Factory, ctx: &Ctx, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut wl = None;
    for _ in 0..SETUPS {
        drop(wl.take());
        let t0 = Instant::now();
        wl = Some(w(ctx)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("at least one set-up ran");
    let off = Tracer::new(false);
    let m = wl.measure(ctx, Duration::from_secs_f64(seconds), &off)?;
    drop(wl);
    let mut metrics = Vec::new();
    let attempted: u64 = m.phases.iter().map(|p| p.sent).sum();
    let ok: u64 = m.phases.iter().map(|p| p.ok).sum();
    metric(&mut metrics, "setup_s", median(&setups), "s");
    metric(
        &mut metrics,
        "ok_frac",
        ok as f64 / attempted.max(1) as f64,
        "frac",
    );
    metric(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    metric(&mut metrics, "p50_ms", median(&m.op_ms), "ms");
    metric(&mut metrics, "tail_ms", quantile(&m.op_ms, TAIL_Q), "ms");
    metric(&mut metrics, "ops_per_s", m.ops_per_s, "1/s");
    Ok(Report {
        invalid: m.invalid.clone(),
        phases: m.phases,
        metrics,
    })
}

fn traced(
    w: &mut Factory,
    ctx: &Ctx,
    seconds: f64,
    trace_file: &std::path::Path,
) -> Result<Report, String> {
    let mut wl = w(ctx)?;
    // Untraced and traced slices in ABBA order, so a linear drift in
    // machine speed cancels out of their difference.
    let slice = Duration::from_secs_f64(seconds * 0.15);
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut plain = Measured::default();
    let mut with_spans = Measured::default();
    for traced in [false, true, true, false] {
        if traced {
            with_spans.absorb(wl.measure(ctx, slice, &on)?);
        } else {
            plain.absorb(wl.measure(ctx, slice, &off)?);
        }
    }
    let mut counts = layers::Counts::default();
    wl.layer_counts(&with_spans, &mut counts)?;
    drop(wl);
    let mut metrics = layers::probe(ctx, &on, &mut counts)?;
    let overhead = (median(&with_spans.op_ms) / median(&plain.op_ms) - 1.0) * 100.0;
    metric(&mut metrics, "trace.overhead_pct", overhead, "%");
    let spans = on.take();
    std::fs::write(trace_file, trace::render(&spans)).map_err(|e| format!("write trace: {e}"))?;
    let mut phases: Vec<Phase> = Vec::new();
    let tagged = plain.phases.into_iter().map(|p| ("untraced.", p));
    let tagged = tagged.chain(
        with_spans
            .phases
            .into_iter()
            .chain(counts.phases.drain(..))
            .map(|p| ("traced.", p)),
    );
    for (tag, p) in tagged {
        let name = format!("{tag}{}", p.name);
        match phases.iter_mut().find(|q| q.name == name) {
            Some(q) => {
                q.sent += p.sent;
                q.ok += p.ok;
                q.failed += p.failed;
                q.mismatches += p.mismatches;
            }
            None => phases.push(Phase { name, ..p }),
        }
    }
    Ok(Report {
        invalid: plain.invalid.or(with_spans.invalid),
        phases,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut factory) = workloads::factory(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let scratch = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let _guard = ScratchGuard(scratch.clone());
    let ctx = Ctx {
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch,
        experiments_bin: args.experiments_bin.clone(),
    };
    let identity = ident::identity(ctx.nproc);
    println!("perfbench: identity {identity}");

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let report = if args.trace {
        let trace_file = args.out.join(format!("trace-{tag}.jsonl"));
        traced(&mut factory, &ctx, args.seconds, &trace_file)
    } else {
        untraced(&mut factory, &ctx, args.seconds)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: run invalid, not reported: {why}");
        return ExitCode::from(3);
    }

    let attempted: u64 = report.phases.iter().map(|p| p.sent).sum();
    let failed: u64 = report.phases.iter().map(|p| p.failed).sum();
    let mismatches: u64 = report.phases.iter().map(|p| p.mismatches).sum();
    for p in &report.phases {
        println!(
            "perfbench: phase {} sent={} ok={} failed={} mismatched={}",
            p.name, p.sent, p.ok, p.failed, p.mismatches
        );
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} was not measured", m.name);
        return ExitCode::from(1);
    }
    let correct = mismatches == 0 && attempted > 0;
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    );
    let record = format!(
        "{{\"identity\": {identity}, \"workload\": \"{}\", \"seed\": {}, \"result\": {line}}}\n",
        args.workload, args.seed
    );
    if let Err(e) = std::fs::write(args.out.join(format!("result-{tag}.json")), record) {
        eprintln!("perfbench: cannot write result file: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {mismatches} output(s) differed from their reference");
        ExitCode::from(1)
    }
}
