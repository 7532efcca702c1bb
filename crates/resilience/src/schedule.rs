//! Scheduling policies for supervised runs: the static contiguous
//! partition of [`crate::shard`] and a work-stealing runtime for
//! heterogeneous experiment costs, plus the single deadline (watchdog)
//! thread both paths share.
//!
//! ## Work stealing
//!
//! [`run_stealing`] seeds one deque per worker with the same contiguous
//! slice a static [`crate::ShardPlan`] would assign, then lets idle
//! workers steal the tail half of the busiest peer's deque
//! (chase-lev-style: owners pop their own front, thieves take from the
//! back; a stolen batch lands in the thief's LIFO slot + deque). A global
//! injector accepts out-of-band work; everything is built on `std` sync
//! primitives — `Mutex`-guarded `VecDeque`s, not lock-free buffers — which
//! is plenty below ~10⁵ pops/second and keeps the crate dependency-free.
//!
//! Workers are leased from the process-wide pooled-thread cache in
//! [`crate::runner`], so a K-worker run spawns at most K threads once and
//! reuses them for every subsequent run.
//!
//! ## Determinism under dynamic scheduling
//!
//! Execution order is racy by design, but the *output* is not: every
//! per-experiment decision derives from `(config seed, experiment code,
//! attempt)` alone, each spec's events are recorded into a private
//! per-spec journal, and the final assembly walks the slots in spec
//! order — so the canonical journal, report, and outputs of a steal run
//! are byte-identical to the static 1-shard run of the same seed. The one
//! caveat (shared by static sharding) is circuit-breaker behavior under
//! persistent failures: the steal runtime shares one breaker across
//! workers, so which attempt trips it depends on completion order.
//!
//! ## The watchdog
//!
//! [`arm_deadline`] registers a deadline with a single process-wide timer
//! thread (a binary-heap timer wheel). Cancellation is lazy: dropping the
//! [`DeadlineGuard`] marks the entry and the wheel discards it on pop,
//! with periodic compaction so canceled entries cannot accumulate. This
//! replaces the seed's thread-per-attempt watchdog: one deadline thread
//! total, regardless of shard count or attempt rate.

use crate::breaker::CircuitBreaker;
use crate::report::RunReport;
use crate::runner::{
    pool_execute, run_spec, run_start_detail, BreakerRef, ExecutorSlot, ExperimentSpec,
    QuietPanics, RunnerConfig, SupervisedRun,
};
use crate::shard::ShardPlan;
use humnet_telemetry::{Event, Telemetry, TelemetrySnapshot};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How a multi-shard supervised run distributes experiments to workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous balanced slices, one per shard, fixed up front
    /// (the PR-3 behavior and the default): order-stable, no cross-shard
    /// coordination, best when experiment costs are uniform.
    #[default]
    Static,
    /// Work stealing: the same initial slices, but idle workers steal from
    /// the busiest peer's tail, so skewed costs rebalance dynamically.
    Steal,
}

impl Schedule {
    /// Parse a `--schedule` argument value.
    pub fn parse(s: &str) -> Option<Schedule> {
        match s {
            "static" => Some(Schedule::Static),
            "steal" => Some(Schedule::Steal),
            _ => None,
        }
    }

    /// Stable label (the `--schedule` argument syntax).
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Static => "static",
            Schedule::Steal => "steal",
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog: one process-wide deadline thread
// ---------------------------------------------------------------------------

/// One armed deadline in the wheel.
struct DeadlineEntry {
    fire_at: Instant,
    /// Tiebreak so heap order is total and deterministic.
    id: u64,
    /// Set by whichever side settles first: the guard (cancel) or the
    /// wheel (fire). The loser sees `true` and does nothing.
    settled: Arc<AtomicBool>,
    /// Fired exactly once if the deadline expires before cancellation.
    notify: Box<dyn FnOnce() + Send>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.id == other.id
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    /// Reversed so `BinaryHeap` (a max-heap) pops the *earliest* deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .fire_at
            .cmp(&self.fire_at)
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[derive(Default)]
struct WheelState {
    heap: BinaryHeap<DeadlineEntry>,
    /// Canceled-but-not-yet-popped entries; triggers compaction.
    canceled: usize,
}

struct Wheel {
    state: Mutex<WheelState>,
    wake: Condvar,
}

/// Canceled entries tolerated in the heap before a compaction sweep.
/// Keeps wheel memory proportional to *live* deadlines even when every
/// attempt finishes long before its (say) 30-second deadline.
const COMPACT_THRESHOLD: usize = 256;

fn wheel() -> &'static Arc<Wheel> {
    static WHEEL: OnceLock<Arc<Wheel>> = OnceLock::new();
    WHEEL.get_or_init(|| {
        let wheel = Arc::new(Wheel {
            state: Mutex::new(WheelState::default()),
            wake: Condvar::new(),
        });
        let thread_wheel = Arc::clone(&wheel);
        // The one deadline thread for the whole process; parks on the
        // condvar until the earliest armed deadline (or forever when idle).
        std::thread::Builder::new()
            .name("humnet-watchdog".to_owned())
            .spawn(move || run_watchdog(&thread_wheel))
            .expect("failed to spawn the watchdog thread");
        wheel
    })
}

fn run_watchdog(wheel: &Wheel) {
    let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let now = Instant::now();
        while state.heap.peek().is_some_and(|e| e.fire_at <= now) {
            let entry = state.heap.pop().expect("peeked entry");
            if entry.settled.swap(true, Ordering::AcqRel) {
                // Canceled before firing; drop it and move on.
                state.canceled = state.canceled.saturating_sub(1);
            } else {
                (entry.notify)();
            }
        }
        state = match state.heap.peek().map(|e| e.fire_at) {
            Some(next) => {
                let wait = next.saturating_duration_since(Instant::now());
                wheel
                    .wake
                    .wait_timeout(state, wait)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => wheel.wake.wait(state).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// RAII handle for an armed deadline: dropping it cancels the timer.
pub(crate) struct DeadlineGuard {
    settled: Arc<AtomicBool>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if self.settled.swap(true, Ordering::AcqRel) {
            return; // already fired
        }
        let wheel = wheel();
        let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
        state.canceled += 1;
        if state.canceled >= COMPACT_THRESHOLD {
            let heap = std::mem::take(&mut state.heap);
            state.heap = heap
                .into_iter()
                .filter(|e| !e.settled.load(Ordering::Acquire))
                .collect();
            state.canceled = 0;
        }
    }
}

/// Arm a deadline `after` from now: `notify` runs on the watchdog thread
/// if the returned guard is still alive when the deadline expires.
pub(crate) fn arm_deadline(after: Duration, notify: Box<dyn FnOnce() + Send>) -> DeadlineGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let settled = Arc::new(AtomicBool::new(false));
    let entry = DeadlineEntry {
        fire_at: Instant::now() + after,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        settled: Arc::clone(&settled),
        notify,
    };
    let wheel = wheel();
    let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
    let fire_at = entry.fire_at;
    state.heap.push(entry);
    // Wake the wheel only when this entry becomes the new earliest (or the
    // wheel was idle); otherwise its current wait already expires in time.
    let is_min = state.heap.peek().is_some_and(|e| e.fire_at >= fire_at);
    drop(state);
    if is_min {
        wheel.wake.notify_one();
    }
    DeadlineGuard { settled }
}

// ---------------------------------------------------------------------------
// Work-stealing queue
// ---------------------------------------------------------------------------

/// Per-worker local queue: a LIFO slot for the hottest item plus a deque
/// the owner pops from the front and thieves steal from the back.
#[derive(Default)]
struct WorkerQueue {
    slot: Mutex<Option<usize>>,
    deque: Mutex<VecDeque<usize>>,
}

/// Work-stealing distribution of spec indices across `workers` local
/// queues plus a global injector for out-of-band submissions.
///
/// All items are injected before workers start and none are re-queued
/// (retries run inline on the worker that owns the spec), so termination
/// is simple: a worker that finds every source empty can exit — whatever
/// remains is in flight on some other worker.
pub(crate) struct StealQueue {
    injector: Mutex<VecDeque<usize>>,
    workers: Vec<WorkerQueue>,
}

impl StealQueue {
    /// Queue with `workers` empty local queues.
    pub(crate) fn new(workers: usize) -> Self {
        StealQueue {
            injector: Mutex::new(VecDeque::new()),
            workers: (0..workers).map(|_| WorkerQueue::default()).collect(),
        }
    }

    /// Queue seeded with the same contiguous balanced slices a static
    /// [`ShardPlan`] would assign — steal mode starts from the static
    /// layout and diverges only when a worker runs dry and steals.
    pub(crate) fn seeded(workers: usize, n: usize) -> Self {
        let queue = StealQueue::new(workers);
        let plan = ShardPlan::new(workers as u32);
        for (w, range) in plan.ranges(n).into_iter().enumerate() {
            queue.workers[w]
                .deque
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(range);
        }
        queue
    }

    /// Submit an item to the global injector (out-of-band work). Seeded
    /// runs place everything up front, so only tests drive this today; it
    /// is the designed entry point for future mid-run submission.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn inject(&self, item: usize) {
        self.injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(item);
    }

    /// Next item for worker `w`: LIFO slot, own deque front, injector,
    /// then steal the tail half of the longest peer deque. `None` means
    /// every source is empty and the worker can exit.
    pub(crate) fn pop(&self, w: usize) -> Option<usize> {
        if let Some(item) = self.workers[w]
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            return Some(item);
        }
        if let Some(item) = self.workers[w]
            .deque
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(item);
        }
        if let Some(item) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(item);
        }
        self.steal_into(w)
    }

    /// Steal `ceil(len/2)` items from the back of the longest peer deque;
    /// the first stolen item is returned, the next parks in the LIFO slot,
    /// the rest refill the thief's own deque (preserving their order).
    fn steal_into(&self, w: usize) -> Option<usize> {
        let victim = (0..self.workers.len())
            .filter(|&v| v != w)
            .max_by_key(|&v| {
                self.workers[v]
                    .deque
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .len()
            })?;
        let mut batch: VecDeque<usize> = {
            let mut deque = self.workers[victim]
                .deque
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let keep = deque.len() / 2;
            deque.split_off(keep)
        };
        let first = batch.pop_front()?;
        if let Some(second) = batch.pop_front() {
            *self.workers[w]
                .slot
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(second);
        }
        if !batch.is_empty() {
            self.workers[w]
                .deque
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(batch);
        }
        Some(first)
    }
}

// ---------------------------------------------------------------------------
// The steal runtime
// ---------------------------------------------------------------------------

/// What one worker produced for one spec: the report row, the rendered
/// output, and the spec's private telemetry (journal, metrics, spans).
struct SpecSlot {
    row: crate::report::ExperimentReport,
    rendered: Option<String>,
    telemetry: TelemetrySnapshot,
}

/// Run `specs` under work-stealing scheduling across `workers` pooled
/// worker threads, sharing one circuit breaker, and assemble a
/// [`SupervisedRun`] whose canonical journal, report, and outputs are
/// byte-identical to the static 1-shard run of the same seed (see the
/// module docs for the invariance argument and the breaker caveat).
pub fn run_stealing(
    config: RunnerConfig,
    workers: u32,
    specs: &[ExperimentSpec],
) -> SupervisedRun {
    let _quiet = config.quiet_panics.then(QuietPanics::install);
    let n = specs.len();
    let workers = (workers.max(1) as usize).min(n.max(1));
    let queue = Arc::new(StealQueue::seeded(workers, n));
    let breaker = Arc::new(Mutex::new(
        CircuitBreaker::new(config.breaker_threshold).with_cooldown(config.breaker_cooldown),
    ));
    let specs: Arc<[ExperimentSpec]> = specs.to_vec().into();
    let (slot_tx, slot_rx) = mpsc::channel::<(usize, SpecSlot)>();

    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let queue = Arc::clone(&queue);
            let breaker = Arc::clone(&breaker);
            let specs = Arc::clone(&specs);
            let slot_tx = slot_tx.clone();
            pool_execute(move || {
                let mut executor = ExecutorSlot::default();
                while let Some(index) = queue.pop(w) {
                    let tel = Telemetry::new();
                    let mut breaker_ref = BreakerRef::Shared(&breaker);
                    let (row, rendered) =
                        run_spec(&config, &mut breaker_ref, &mut executor, &specs[index], &tel);
                    let mut telemetry = tel.into_snapshot();
                    telemetry.stamp_shard(w as u32);
                    telemetry.stamp_spec(index as u64);
                    let _ = slot_tx.send((index, SpecSlot { row, rendered, telemetry }));
                }
            })
        })
        .collect();
    drop(slot_tx);

    let mut slots: Vec<Option<SpecSlot>> = (0..n).map(|_| None).collect();
    for (index, slot) in slot_rx {
        slots[index] = Some(slot);
    }
    for handle in handles {
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }

    // Deterministic assembly: walk the slots in spec order, so the event
    // stream below is independent of which worker ran what, when.
    let tel = Telemetry::new();
    tel.event(Event::new("run-start", run_start_detail(&config, n)));
    tel.counter("runner.steal.workers", workers as u64);
    let mut report = RunReport {
        experiments: Vec::with_capacity(n),
        profile: config.profile.label().to_owned(),
        seed: config.seed,
        code_rev: crate::code_rev(),
    };
    let mut outputs = std::collections::BTreeMap::new();
    for (index, slot) in slots.into_iter().enumerate() {
        let slot = slot.unwrap_or_else(|| panic!("spec {index} was never executed"));
        tel.absorb(slot.telemetry, "");
        if let Some(rendered) = slot.rendered {
            outputs.insert(slot.row.code.clone(), rendered);
        }
        report.experiments.push(slot.row);
    }
    report.record_metrics(&tel);
    tel.event(Event::new("run-end", report.summary_line()));
    SupervisedRun {
        report,
        outputs,
        telemetry: tel.into_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn schedule_parses_and_labels() {
        assert_eq!(Schedule::parse("static"), Some(Schedule::Static));
        assert_eq!(Schedule::parse("steal"), Some(Schedule::Steal));
        assert_eq!(Schedule::parse("chaotic"), None);
        assert_eq!(Schedule::Steal.label(), "steal");
        assert_eq!(Schedule::default(), Schedule::Static);
    }

    #[test]
    fn seeded_queue_drains_every_item_exactly_once() {
        let queue = StealQueue::seeded(3, 10);
        let mut seen = Vec::new();
        // Worker 2 drains everything: its own slice, then steals.
        while let Some(item) = queue.pop(2) {
            seen.push(item);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(queue.pop(0), None);
    }

    #[test]
    fn owner_pops_in_seeded_order_when_nobody_steals() {
        let queue = StealQueue::seeded(2, 6);
        // Worker 0 owns 0..3 and pops it front-first, like a static shard.
        assert_eq!(queue.pop(0), Some(0));
        assert_eq!(queue.pop(0), Some(1));
        assert_eq!(queue.pop(0), Some(2));
    }

    #[test]
    fn thief_takes_tail_half_of_longest_peer() {
        let queue = StealQueue::seeded(2, 8);
        // Worker 1 drains its own slice 4..8 first.
        for expected in 4..8 {
            assert_eq!(queue.pop(1), Some(expected));
        }
        // Now it steals the tail half of worker 0's 0..4, i.e. {2, 3}.
        let stolen = queue.pop(1).unwrap();
        assert_eq!(stolen, 2);
        // Worker 0 still owns its front.
        assert_eq!(queue.pop(0), Some(0));
    }

    #[test]
    fn injector_feeds_any_worker() {
        let queue = StealQueue::new(2);
        queue.inject(41);
        queue.inject(42);
        assert_eq!(queue.pop(1), Some(41));
        assert_eq!(queue.pop(0), Some(42));
        assert_eq!(queue.pop(0), None);
    }

    #[test]
    fn armed_deadline_fires_once_and_cancel_suppresses() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_in_wheel = Arc::clone(&fired);
        let guard = arm_deadline(
            Duration::from_millis(10),
            Box::new(move || {
                fired_in_wheel.fetch_add(1, Ordering::SeqCst);
            }),
        );
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        drop(guard); // dropping after the fire is a no-op

        let never = Arc::new(AtomicUsize::new(0));
        let never_in_wheel = Arc::clone(&never);
        let guard = arm_deadline(
            Duration::from_secs(60),
            Box::new(move || {
                never_in_wheel.fetch_add(1, Ordering::SeqCst);
            }),
        );
        drop(guard); // canceled long before the deadline
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(never.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn many_armed_deadlines_fire_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let guards: Vec<_> = [30u64, 10, 20]
            .iter()
            .map(|&ms| {
                let log = Arc::clone(&log);
                arm_deadline(
                    Duration::from_millis(ms),
                    Box::new(move || log.lock().unwrap().push(ms)),
                )
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30]);
        drop(guards);
    }
}
