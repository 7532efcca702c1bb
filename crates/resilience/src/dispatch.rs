//! The shared half of dispatch: configuration, shard layout, outcomes,
//! merge, and circuit-breaker reconciliation.
//!
//! [`crate::remote::dispatch_remote`] runs the one supervision ladder:
//! every shard attempt is a *lease* of the shard's slice to a worker —
//! a long-lived remote daemon from `--workers`, or a fresh local worker
//! child on loopback started for that attempt alone. This module holds
//! what the ladder hands back and how the pieces fold into one run.
//!
//! Because every per-experiment decision derives from `(seed, experiment
//! code, attempt)` alone, a re-leased shard reproduces its predecessor's
//! events exactly, and the merged canonical journal of a K-shard
//! dispatch is **byte-identical** to the in-process 1-shard run of the
//! same seed — including runs where chaos killed and retried shards along
//! the way. The merge ([`merge_outcomes`]) strips each worker's
//! `run-start`/`run-end` boundary events, re-bases its 0-based spec
//! indices onto the shard's slice offset, stamps shard provenance, and
//! emits a single run-level `run-start`/`run-end` pair around the
//! canonical `(class, spec, seq)` sort.
//!
//! Shards that exhaust their retries either fail the dispatch loudly
//! ([`DispatchError::ShardsFailed`]) or — under `allow_partial` — degrade
//! gracefully: the merged report is marked degraded, the missing shards
//! and experiment codes are listed, and the caller exits with a distinct
//! code. Circuit-breaker state is reconciled at merge time
//! ([`reconcile_breakers`]): per-family failure counts are summed across
//! shards and families that would have been open globally are flagged,
//! since per-worker breakers cannot see failures on sibling shards.

use crate::report::{RunArtifact, RunReport};
use crate::runner::{run_start_detail, RunnerConfig, SupervisedRun};
use humnet_telemetry::{spec_order_in_place, Event, Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Knobs for the dispatch ladder.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Extra lease attempts per shard after the first (0 = no retry).
    pub shard_retries: u32,
    /// Per-attempt wall-clock budget for one lease.
    pub shard_deadline: Duration,
    /// Maximum frame silence before a lease is revoked. Zero disables
    /// liveness checking (the deadline still holds).
    pub liveness: Duration,
    /// Degrade to a partial merged result instead of failing the dispatch
    /// when a shard exhausts its retries.
    pub allow_partial: bool,
    /// Scratch directory holding the per-shard attempt directories.
    pub scratch: PathBuf,
    /// Base delay for the shard-retry backoff schedule.
    pub backoff_base: Duration,
    /// Seed for the retry backoff jitter (per-shard streams derive from it).
    pub seed: u64,
    /// Keep per-(shard, attempt) scratch directories after a successful
    /// attempt, with the done frame's artifacts written into them. Failed
    /// local attempts always keep theirs — the worker child's log is the
    /// only evidence of what went wrong.
    pub keep_scratch: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(120),
            liveness: Duration::from_secs(10),
            allow_partial: false,
            scratch: std::env::temp_dir().join(format!("humnet-dispatch-{}", std::process::id())),
            backoff_base: Duration::from_millis(25),
            seed: 42,
            keep_scratch: false,
        }
    }
}

/// One shard's slice of the run: which experiments, and where the slice
/// starts in the full spec list (the spec-index re-base offset).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Shard index (0-based, dense).
    pub shard: u32,
    /// Offset of this slice in the full experiment list.
    pub spec_base: u64,
    /// Experiment codes in the slice, in canonical order.
    pub codes: Vec<String>,
}

/// Filesystem layout of one shard attempt. Attempt-scoped so a retry can
/// never be confused with its crashed predecessor's leftovers.
#[derive(Debug, Clone)]
pub struct ShardPaths {
    /// The attempt's scratch directory.
    pub dir: PathBuf,
    /// Shard index.
    pub shard: u32,
    /// Lease attempt (0 = first).
    pub attempt: u32,
    /// The done frame's telemetry snapshot JSON (under `keep_scratch`).
    pub metrics: PathBuf,
    /// The done frame's serialized [`RunArtifact`] JSON (under
    /// `keep_scratch`).
    pub report: PathBuf,
    /// The done frame's event journal JSONL (under `keep_scratch`).
    pub journal: PathBuf,
    /// Where a local worker child writes its bound address once
    /// listening (`worker --ready-file`).
    pub ready: PathBuf,
    /// Captured stdout+stderr of a local worker child.
    pub log: PathBuf,
}

impl ShardPaths {
    /// Layout for `(shard, attempt)` under `scratch`.
    pub fn new(scratch: &Path, shard: u32, attempt: u32) -> ShardPaths {
        let dir = scratch.join(format!("shard-{shard}-attempt-{attempt}"));
        ShardPaths {
            metrics: dir.join("metrics.json"),
            report: dir.join("report.json"),
            journal: dir.join("journal.jsonl"),
            ready: dir.join("ready"),
            log: dir.join("child.log"),
            shard,
            attempt,
            dir,
        }
    }
}

/// Why one shard attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AttemptFailure {
    /// A local worker child never became ready to take the lease.
    Spawn(String),
    /// The lease failed; the message carries the worker address and the
    /// connection-level reason.
    Lease(String),
}

impl fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptFailure::Spawn(e) => write!(f, "local worker did not start: {e}"),
            AttemptFailure::Lease(e) => write!(f, "{e}"),
        }
    }
}

/// What a successful shard hands back: its parsed done frame.
pub(crate) struct ShardYield {
    pub(crate) artifact: RunArtifact,
    pub(crate) telemetry: TelemetrySnapshot,
}

/// Final per-shard supervision outcome.
pub(crate) struct ShardOutcome {
    pub(crate) spec: ShardSpec,
    pub(crate) attempts: u32,
    pub(crate) result: Result<ShardYield, AttemptFailure>,
}

/// A shard that never produced a usable result (after all retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingShard {
    /// Shard index.
    pub shard: u32,
    /// Lease attempts consumed.
    pub attempts: u32,
    /// Experiment codes the merged run is missing because of it.
    pub codes: Vec<String>,
    /// Last attempt's failure, human-readable.
    pub reason: String,
}

/// Dispatch-level failure: one or more shards exhausted their retries and
/// partial results were not allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The scratch directory could not be created.
    Scratch(String),
    /// Shards died after all retries; `--allow-partial` was off.
    ShardsFailed(Vec<MissingShard>),
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Scratch(e) => write!(f, "cannot create dispatch scratch dir: {e}"),
            DispatchError::ShardsFailed(missing) => {
                write!(f, "{} shard(s) failed after all retries:", missing.len())?;
                for m in missing {
                    write!(
                        f,
                        "\n  shard {} ({} attempts, experiments {}): {}",
                        m.shard,
                        m.attempts,
                        m.codes.join(" "),
                        m.reason
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Merge-time circuit-breaker reconciliation for one family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyBreakerState {
    /// Experiment family (breaker granularity).
    pub family: String,
    /// Executed-and-failed experiments summed across all shards.
    pub failures: u32,
    /// Experiments short-circuited by a shard-local open breaker.
    pub skips: u32,
    /// Whether the summed failure count would have opened a single global
    /// breaker at the run's threshold.
    pub open_globally: bool,
}

/// Cross-shard breaker view: per-worker breakers only see their own shard's
/// failures, so the merge sums per-family failure counts and flags
/// families a run-wide breaker would have opened. (Consecutiveness cannot
/// be reconstructed across shards; the global view over-approximates by
/// using totals, which is the conservative direction for flagging.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakerReconciliation {
    /// The failure threshold the run was configured with.
    pub threshold: u32,
    /// Families with at least one failure or breaker skip, sorted.
    pub families: Vec<FamilyBreakerState>,
}

impl BreakerReconciliation {
    /// Families flagged as globally open, in sorted order.
    pub fn open_families(&self) -> Vec<&str> {
        self.families
            .iter()
            .filter(|f| f.open_globally)
            .map(|f| f.family.as_str())
            .collect()
    }

    /// Human-readable reconciliation lines; empty when nothing failed.
    pub fn render(&self) -> String {
        if self.families.is_empty() {
            return String::new();
        }
        let mut out = format!("breaker reconciliation  threshold={}\n", self.threshold);
        for f in &self.families {
            out.push_str(&format!(
                "  family '{}': {} failures, {} breaker skips across shards — {}\n",
                f.family,
                f.failures,
                f.skips,
                if f.open_globally {
                    "would be OPEN globally"
                } else {
                    "below global threshold"
                },
            ));
        }
        out
    }
}

/// Sum per-family failures across the merged report and flag families a
/// single run-wide breaker (at `threshold`) would have opened. Rows with
/// zero attempts are breaker skips (a shard-local breaker already open),
/// counted separately from executed failures.
pub fn reconcile_breakers(report: &RunReport, threshold: u32) -> BreakerReconciliation {
    let mut families: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
    for row in &report.experiments {
        if row.status.completed() {
            continue;
        }
        let entry = families.entry(&row.family).or_default();
        if row.attempts == 0 {
            entry.1 += 1;
        } else {
            entry.0 += 1;
        }
    }
    BreakerReconciliation {
        threshold,
        families: families
            .into_iter()
            .map(|(family, (failures, skips))| FamilyBreakerState {
                family: family.to_owned(),
                failures,
                skips,
                open_globally: threshold > 0 && failures >= threshold,
            })
            .collect(),
    }
}

/// Result of a dispatch.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// The merged run (report, outputs, telemetry) over every shard that
    /// produced a result.
    pub run: SupervisedRun,
    /// Shards that produced nothing (empty unless `allow_partial` let the
    /// dispatch degrade).
    pub missing: Vec<MissingShard>,
    /// Cross-shard circuit-breaker view of the merged report.
    pub reconciliation: BreakerReconciliation,
    /// Lease attempts consumed per shard, in shard order.
    pub shard_attempts: Vec<u32>,
}

impl DispatchOutcome {
    /// Whether the merged result is partial (at least one shard missing).
    pub fn degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Process exit code: a degraded (partial) result exits with the
    /// distinct code 3; otherwise the merged report's own code applies
    /// (0 completed, 1 failed, 2 timed out).
    pub fn exit_code(&self) -> i32 {
        if self.degraded() {
            3
        } else {
            self.run.report.exit_code()
        }
    }

    /// Per-shard supervision summary plus degradation and breaker
    /// reconciliation sections, for the end-of-dispatch report.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if self.degraded() {
            out.push_str("dispatch verdict: DEGRADED — partial results\n");
            for m in &self.missing {
                out.push_str(&format!(
                    "  missing shard {} after {} attempts: {}\n    lost experiments: {}\n",
                    m.shard,
                    m.attempts,
                    m.reason,
                    m.codes.join(" "),
                ));
            }
        } else {
            let retried = self
                .shard_attempts
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a > 1)
                .map(|(k, &a)| format!("shard {k}: {a} attempts"))
                .collect::<Vec<_>>();
            if retried.is_empty() {
                out.push_str("dispatch verdict: complete — every shard succeeded first try\n");
            } else {
                out.push_str(&format!(
                    "dispatch verdict: complete after retries ({})\n",
                    retried.join(", ")
                ));
            }
        }
        let breakers = self.reconciliation.render();
        if !breakers.is_empty() {
            out.push_str(&breakers);
        }
        out
    }
}

/// Fold the per-shard results into one run-level [`SupervisedRun`].
///
/// Differences from the in-process [`crate::merge_runs`]: workers already
/// recorded their report metrics (`runner.experiments`, statuses, …) into
/// their own snapshots — and counters over a partition sum to the run
/// total — so the merge must *not* re-record them; and each worker's
/// journal carries its own `run-start`/`run-end` pair plus 0-based spec
/// indices, which the merge strips and re-bases before the canonical sort.
/// Remote and local workers answer with the same done frame, so their
/// shards merge identically.
pub(crate) fn merge_outcomes(
    runner: &RunnerConfig,
    planned: usize,
    outcomes: Vec<ShardOutcome>,
    missing: Vec<MissingShard>,
) -> DispatchOutcome {
    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.spec.shard);
    let shard_attempts: Vec<u32> = outcomes.iter().map(|o| o.attempts).collect();

    let tel = Telemetry::new();
    tel.event(Event::new("run-start", run_start_detail(runner, planned)));
    tel.counter("dispatch.procs", outcomes.len() as u64);
    tel.counter("dispatch.shards_missing", missing.len() as u64);
    let mut report = RunReport {
        experiments: Vec::with_capacity(planned),
        profile: runner.profile.label().to_owned(),
        seed: runner.seed,
        code_rev: crate::code_rev(),
    };
    let mut outputs = BTreeMap::new();
    for outcome in outcomes {
        tel.counter(
            &format!("dispatch.shard.{}.attempts", outcome.spec.shard),
            u64::from(outcome.attempts),
        );
        let Ok(yielded) = outcome.result else {
            continue;
        };
        let mut snap = yielded.telemetry;
        snap.events.retain(|e| e.kind != "run-start" && e.kind != "run-end");
        snap.offset_spec(outcome.spec.spec_base);
        snap.stamp_shard(outcome.spec.shard);
        report.absorb(yielded.artifact.report);
        outputs.extend(yielded.artifact.outputs);
        tel.absorb(snap, "");
    }
    tel.event(Event::new("run-end", report.summary_line()));
    let mut telemetry = tel.into_snapshot();
    spec_order_in_place(&mut telemetry.events);
    let reconciliation = reconcile_breakers(&report, runner.breaker_threshold);
    DispatchOutcome {
        run: SupervisedRun {
            report,
            outputs,
            telemetry,
        },
        missing,
        reconciliation,
        shard_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ExperimentReport, ExperimentStatus};

    fn row(code: &str, family: &str, status: ExperimentStatus, attempts: u32) -> ExperimentReport {
        ExperimentReport {
            code: code.to_owned(),
            title: format!("experiment {code}"),
            family: family.to_owned(),
            status,
            attempts,
            faults_injected: 0,
            message: String::new(),
            duration_ms: 0,
        }
    }

    #[test]
    fn reconciliation_sums_failures_across_shards() {
        // Two shards each saw one 'sick' failure: below the local threshold
        // of 2 everywhere, but globally the family would have been open.
        let mut report = RunReport::default();
        report.experiments.push(row("a", "sick", ExperimentStatus::Failed, 2));
        report.experiments.push(row("b", "fine", ExperimentStatus::Ok, 1));
        report.experiments.push(row("c", "sick", ExperimentStatus::TimedOut, 1));
        let rec = reconcile_breakers(&report, 2);
        assert_eq!(rec.families.len(), 1);
        let sick = &rec.families[0];
        assert_eq!(sick.family, "sick");
        assert_eq!(sick.failures, 2);
        assert_eq!(sick.skips, 0);
        assert!(sick.open_globally);
        assert_eq!(rec.open_families(), vec!["sick"]);
        assert!(rec.render().contains("would be OPEN globally"));
    }

    #[test]
    fn reconciliation_counts_breaker_skips_separately() {
        let mut report = RunReport::default();
        report.experiments.push(row("a", "sick", ExperimentStatus::Failed, 1));
        // A zero-attempt failure is a shard-local breaker skip.
        report.experiments.push(row("b", "sick", ExperimentStatus::Failed, 0));
        let rec = reconcile_breakers(&report, 3);
        let sick = &rec.families[0];
        assert_eq!(sick.failures, 1);
        assert_eq!(sick.skips, 1);
        assert!(!sick.open_globally, "1 executed failure < threshold 3");
    }

    #[test]
    fn reconciliation_of_clean_report_is_empty() {
        let mut report = RunReport::default();
        report.experiments.push(row("a", "fine", ExperimentStatus::Ok, 1));
        report.experiments.push(row("b", "fine", ExperimentStatus::Retried, 2));
        let rec = reconcile_breakers(&report, 2);
        assert!(rec.families.is_empty());
        assert_eq!(rec.render(), "");
    }
}
