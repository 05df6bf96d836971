//! Typed abort errors, cooperative cancellation, and query budgets.
//!
//! Everything that can end an execution *early but cleanly* lives here:
//!
//! * [`ExecError`] — the typed abort reasons ([`BudgetExceeded`](ExecError::BudgetExceeded),
//!   [`DeadlineExceeded`](ExecError::DeadlineExceeded), [`Cancelled`](ExecError::Cancelled),
//!   [`WorkerPanicked`](ExecError::WorkerPanicked)) that `try_*` APIs surface instead
//!   of panics or silent truncation;
//! * [`CancelToken`] — a cloneable atomic flag another thread can trip at any time;
//! * [`QueryBudget`] — the per-execution limits (wall-clock deadline, cancel token,
//!   row cap, optional fault-injection registry) handed to the `try_*` entry points;
//! * [`ExecMonitor`] — the per-run shared state the budget compiles into: a sticky
//!   stop flag plus the *first* abort reason, checked cooperatively;
//! * [`ExecCtx`] / [`ExecWatch`] — how the checks reach engine inner loops. A
//!   context is threaded into [`MorselSource::run_morsel`](crate::MorselSource) and
//!   the engines' own entry points; engines derive a [`ExecWatch`] from it and call
//!   [`tick`](ExecWatch::tick) once per search step. The watch only *polls* the
//!   shared state every [`CHECK_STRIDE`] ticks, so the per-step cost is a local
//!   counter decrement and cancellation latency stays bounded by one stride.
//!
//! The monitor records only the **first** abort reason (later trips are ignored):
//! when a deadline fires on one worker while another panics, the surfaced error is
//! whichever tripped first, and both workers stop at their next check.

use gj_storage::fault::{sites, FailpointHit, FailpointRegistry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::queue::JobQueue;

/// How many engine inner-loop steps pass between polls of the shared stop state.
///
/// Large enough that the per-step cost is a branch on a local counter, small enough
/// that cancellation latency through any engine is a few thousand trivial steps
/// (microseconds to low milliseconds).
pub const CHECK_STRIDE: u32 = 1024;

/// Why an execution was aborted before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The run exceeded its row budget ([`QueryBudget::with_max_rows`]), or a
    /// forced budget trip was injected through a failpoint.
    BudgetExceeded {
        /// Rows delivered when the budget tripped.
        rows: u64,
        /// The configured budget (0 for an injected trip with no row cap).
        budget: u64,
    },
    /// The wall-clock deadline ([`QueryBudget::with_timeout`]) passed mid-run.
    DeadlineExceeded,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// A worker panicked; the panic was caught at the worker boundary and shared
    /// state was left reusable.
    WorkerPanicked {
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// The serving layer's admission queue was full: the query was rejected
    /// *before* execution started (see `gj-service`). Retry later or shed load.
    Saturated {
        /// Queries executing or queued when the rejection happened.
        active: usize,
        /// Total admission capacity (concurrent slots + queue depth).
        capacity: usize,
    },
}

impl ExecError {
    /// Short machine-readable label ("budget" / "deadline" / "cancelled" /
    /// "panic" / "saturated"), used by bench outcome cells and abort-parity
    /// assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::BudgetExceeded { .. } => "budget",
            ExecError::DeadlineExceeded => "deadline",
            ExecError::Cancelled => "cancelled",
            ExecError::WorkerPanicked { .. } => "panic",
            ExecError::Saturated { .. } => "saturated",
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BudgetExceeded { rows, budget } => {
                write!(f, "row budget exceeded ({rows} rows delivered, budget {budget})")
            }
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::Cancelled => write!(f, "cancelled"),
            ExecError::WorkerPanicked { payload } => write!(f, "worker panicked: {payload}"),
            ExecError::Saturated { active, capacity } => {
                write!(f, "service saturated ({active} in flight, capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Renders a caught panic payload (`Box<dyn Any>`) to a string.
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A cloneable cancellation flag, trippable from any thread.
///
/// Clones share one flag: cancelling any clone cancels them all. Hand a clone to
/// the [`QueryBudget`] of a run and keep one to cancel it from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Per-execution limits, generalising the row-count-only `ExecLimits` of the
/// pairwise baselines: a wall-clock deadline, a cancel token, a delivered-row cap,
/// and (in tests) a fault-injection registry.
///
/// The default budget is unlimited. Budgets are cheap to clone and are read once
/// per execution — the deadline clock starts when the run starts, not when the
/// budget is built.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    max_rows: Option<u64>,
    failpoints: Option<Arc<FailpointRegistry>>,
}

impl QueryBudget {
    /// An unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aborts the run with [`ExecError::DeadlineExceeded`] once `timeout` of
    /// wall-clock time has passed since the run started.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Aborts the run with [`ExecError::Cancelled`] once `token` is cancelled.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Aborts the run with [`ExecError::BudgetExceeded`] once `max_rows` rows have
    /// been delivered to the sink.
    pub fn with_max_rows(mut self, max_rows: u64) -> Self {
        self.max_rows = Some(max_rows);
        self
    }

    /// Attaches a fault-injection registry (test harness only).
    pub fn with_failpoints(mut self, failpoints: Arc<FailpointRegistry>) -> Self {
        self.failpoints = Some(failpoints);
        self
    }

    /// The attached fault-injection registry, if any.
    pub fn failpoints(&self) -> Option<&Arc<FailpointRegistry>> {
        self.failpoints.as_ref()
    }
}

/// The shared per-run state a [`QueryBudget`] compiles into: sticky stop flag,
/// first abort reason, delivered-row counter, and the resolved deadline instant.
///
/// One monitor is created per execution and shared (by reference) across its
/// workers; `trip` records the *first* reason and every later check observes the
/// stop flag.
#[derive(Debug)]
pub struct ExecMonitor {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    max_rows: Option<u64>,
    rows: AtomicU64,
    stopped: AtomicBool,
    reason: Mutex<Option<ExecError>>,
    failpoints: Option<Arc<FailpointRegistry>>,
}

impl ExecMonitor {
    /// Compiles `budget` into a monitor; the deadline clock starts now.
    pub fn new(budget: &QueryBudget) -> Self {
        ExecMonitor {
            cancel: budget.cancel.clone(),
            deadline: budget.timeout.map(|t| Instant::now() + t),
            max_rows: budget.max_rows,
            rows: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            reason: Mutex::new(None),
            failpoints: budget.failpoints.clone(),
        }
    }

    /// A monitor that never trips on its own (panics can still be recorded).
    pub fn unlimited() -> Self {
        ExecMonitor::new(&QueryBudget::default())
    }

    /// Records an abort reason (first one wins) and trips the stop flag.
    pub fn trip(&self, reason: ExecError) {
        let mut slot = self.reason.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(reason);
        drop(slot);
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Whether the budget can trip on its own: it carries a cancel token, a
    /// deadline, a row cap or a failpoint registry. A monitor that cannot is only
    /// ever tripped by a caught worker panic (or by its owner calling
    /// [`trip`](Self::trip)), which is what lets a one-worker drive hand its
    /// engine an inert watch.
    pub(crate) fn can_trip(&self) -> bool {
        self.cancel.is_some()
            || self.deadline.is_some()
            || self.max_rows.is_some()
            || self.failpoints.is_some()
    }

    /// Whether delivered rows count against a cap ([`QueryBudget::with_max_rows`]).
    pub(crate) fn has_row_cap(&self) -> bool {
        self.max_rows.is_some()
    }

    /// Whether some check already tripped the monitor.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Polls the budget: returns `true` (and trips) when the run must abort —
    /// already stopped, cancelled, or past the deadline.
    pub fn check(&self) -> bool {
        if self.is_stopped() {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(ExecError::Cancelled);
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip(ExecError::DeadlineExceeded);
            return true;
        }
        false
    }

    /// Accounts `n` delivered rows; returns `true` (and trips with
    /// [`ExecError::BudgetExceeded`]) when the row budget is exhausted.
    pub fn note_rows(&self, n: u64) -> bool {
        let Some(budget) = self.max_rows else {
            self.rows.fetch_add(n, Ordering::Relaxed);
            return false;
        };
        let rows = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if rows > budget {
            self.trip(ExecError::BudgetExceeded { rows, budget });
            return true;
        }
        false
    }

    /// Trips with a forced budget error (injected via a failpoint).
    pub fn trip_budget(&self) {
        let rows = self.rows.load(Ordering::Relaxed);
        let budget = self.max_rows.unwrap_or(0);
        self.trip(ExecError::BudgetExceeded { rows, budget });
    }

    /// Takes the recorded abort reason, if any (leaves `None` behind).
    pub fn take_reason(&self) -> Option<ExecError> {
        self.reason.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// The attached fault-injection registry, if any.
    pub fn failpoints(&self) -> Option<&Arc<FailpointRegistry>> {
        self.failpoints.as_ref()
    }
}

/// The execution context threaded from the driver (or an engine's own serial
/// entry point) into engine code: which monitor and which job queue to consult at
/// check points.
///
/// `ExecCtx::none()` is the zero-cost context — what a lone worker gets under a
/// monitor that cannot trip: a watch built from it is inert, so engines run their
/// tick-free search.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    monitor: Option<&'a ExecMonitor>,
    queue: Option<&'a JobQueue>,
}

impl<'a> ExecCtx<'a> {
    /// A context with nothing to check.
    pub fn none() -> ExecCtx<'static> {
        ExecCtx { monitor: None, queue: None }
    }

    /// A context that checks `monitor` (engine entry points called outside a drive).
    pub fn with_monitor(monitor: &'a ExecMonitor) -> Self {
        ExecCtx { monitor: Some(monitor), queue: None }
    }

    /// A context that checks both `monitor` and the driver's stop flag (parallel
    /// workers).
    pub fn for_drive(monitor: &'a ExecMonitor, queue: &'a JobQueue) -> Self {
        ExecCtx { monitor: Some(monitor), queue: Some(queue) }
    }

    /// The monitor this context checks, if any.
    pub fn monitor(&self) -> Option<&'a ExecMonitor> {
        self.monitor
    }

    /// An immediate (stride-free) stop check, for per-row call sites that are not
    /// hot enough to need a stride.
    pub fn should_stop(&self) -> bool {
        self.queue.is_some_and(JobQueue::is_stopped) || self.monitor.is_some_and(ExecMonitor::check)
    }

    /// Builds the stride-counting watch engines tick from their inner loops.
    pub fn watch(&self) -> ExecWatch<'a> {
        ExecWatch {
            monitor: self.monitor,
            queue: self.queue,
            countdown: CHECK_STRIDE,
            stopped: false,
        }
    }
}

/// A per-loop stop probe: [`tick`](Self::tick) is called once per engine search
/// step and polls the shared state every [`CHECK_STRIDE`] ticks.
///
/// The result is sticky: once a poll observes a stop, every later tick returns
/// `true` without polling again.
#[derive(Debug)]
pub struct ExecWatch<'a> {
    monitor: Option<&'a ExecMonitor>,
    queue: Option<&'a JobQueue>,
    countdown: u32,
    stopped: bool,
}

impl ExecWatch<'_> {
    /// Whether this watch can ever trip: a watch with neither a monitor nor a
    /// stop-flag queue always ticks `false`. Engines with very tight inner loops
    /// may branch on this once and run a tick-free monomorphisation.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.monitor.is_none() && self.queue.is_none()
    }

    /// Registers one engine step; returns `true` when the engine must unwind its
    /// search and stop emitting.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.tick_many(1)
    }

    /// Registers `steps` engine steps at once (an engine that counts a batch of
    /// matches without visiting each); polls when the batch crosses the stride,
    /// so a stop lands within one stride plus one batch.
    #[inline]
    pub fn tick_many(&mut self, steps: u64) -> bool {
        if self.stopped {
            return true;
        }
        if steps <= u64::from(self.countdown) {
            self.countdown -= steps as u32;
            return false;
        }
        self.countdown = CHECK_STRIDE;
        self.poll()
    }

    #[cold]
    fn poll(&mut self) -> bool {
        if self.queue.is_some_and(JobQueue::is_stopped) {
            self.stopped = true;
            return true;
        }
        let Some(monitor) = self.monitor else {
            return false;
        };
        if let Some(fp) = monitor.failpoints() {
            match fp.hit(sites::JOIN_STEP) {
                // gj-lint: allow(no-panic-in-engines) — fault-injection failpoint: the panic IS the fault under test
                Some(FailpointHit::Panic) => panic!("failpoint panic: {}", sites::JOIN_STEP),
                Some(FailpointHit::Trip) => monitor.trip_budget(),
                None => {}
            }
        }
        if monitor.check() {
            if let Some(queue) = self.queue {
                queue.stop();
            }
            self.stopped = true;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_storage::fault::FailAction;

    #[test]
    fn cancel_token_clones_share_one_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn monitor_records_the_first_reason_only() {
        let monitor = ExecMonitor::unlimited();
        monitor.trip(ExecError::Cancelled);
        monitor.trip(ExecError::DeadlineExceeded);
        assert!(monitor.is_stopped());
        assert_eq!(monitor.take_reason(), Some(ExecError::Cancelled));
        assert_eq!(monitor.take_reason(), None);
    }

    #[test]
    fn cancellation_is_observed_by_check() {
        let token = CancelToken::new();
        let budget = QueryBudget::new().with_cancel_token(token.clone());
        let monitor = ExecMonitor::new(&budget);
        assert!(!monitor.check());
        token.cancel();
        assert!(monitor.check());
        assert_eq!(monitor.take_reason(), Some(ExecError::Cancelled));
    }

    #[test]
    fn zero_timeout_trips_the_deadline_immediately() {
        let budget = QueryBudget::new().with_timeout(Duration::ZERO);
        let monitor = ExecMonitor::new(&budget);
        assert!(monitor.check());
        assert_eq!(monitor.take_reason(), Some(ExecError::DeadlineExceeded));
    }

    #[test]
    fn row_budget_trips_after_the_cap() {
        let budget = QueryBudget::new().with_max_rows(3);
        let monitor = ExecMonitor::new(&budget);
        assert!(!monitor.note_rows(2));
        assert!(!monitor.note_rows(1), "exactly at the cap is still fine");
        assert!(monitor.note_rows(1));
        match monitor.take_reason() {
            Some(ExecError::BudgetExceeded { rows, budget }) => {
                assert_eq!((rows, budget), (4, 3));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn watch_latency_is_bounded_by_one_stride() {
        let token = CancelToken::new();
        let budget = QueryBudget::new().with_cancel_token(token.clone());
        let monitor = ExecMonitor::new(&budget);
        let ctx = ExecCtx::with_monitor(&monitor);
        let mut watch = ctx.watch();
        token.cancel();
        let mut ticks = 0u64;
        while !watch.tick() {
            ticks += 1;
            assert!(ticks <= u64::from(CHECK_STRIDE) + 1, "stop not seen within one stride");
        }
        assert!(watch.tick(), "the stop is sticky");
    }

    #[test]
    fn a_batch_tick_polls_when_it_crosses_the_stride_and_stays_sticky() {
        let token = CancelToken::new();
        let budget = QueryBudget::new().with_cancel_token(token.clone());
        let monitor = ExecMonitor::new(&budget);
        let ctx = ExecCtx::with_monitor(&monitor);
        let mut watch = ctx.watch();
        token.cancel();
        assert!(!watch.tick_many(u64::from(CHECK_STRIDE) - 1), "inside the stride: no poll");
        assert!(!watch.tick_many(1), "exactly at the stride: still no poll");
        assert!(!watch.tick_many(0), "an empty batch never polls");
        assert!(watch.tick_many(1), "crossing the stride polls and sees the cancel");
        assert!(watch.tick_many(0) && watch.tick(), "the stop is sticky");

        let mut fresh = ctx.watch();
        assert!(fresh.tick_many(u64::MAX), "one batch past the stride polls at once");
        let mut inert = ExecCtx::none().watch();
        assert!(!inert.tick_many(u64::MAX) && !inert.tick(), "nothing to watch never stops");
    }

    #[test]
    fn none_ctx_never_stops() {
        let ctx = ExecCtx::none();
        let mut watch = ctx.watch();
        for _ in 0..(CHECK_STRIDE * 3) {
            assert!(!watch.tick());
        }
        assert!(!ctx.should_stop());
    }

    #[test]
    fn join_step_trip_failpoint_forces_a_budget_error() {
        let fp = Arc::new(FailpointRegistry::new());
        fp.arm(sites::JOIN_STEP, FailAction::Trip);
        let budget = QueryBudget::new().with_failpoints(fp);
        let monitor = ExecMonitor::new(&budget);
        let ctx = ExecCtx::with_monitor(&monitor);
        let mut watch = ctx.watch();
        let mut ticks = 0u64;
        while !watch.tick() {
            ticks += 1;
            assert!(ticks <= u64::from(CHECK_STRIDE) + 1);
        }
        assert!(matches!(monitor.take_reason(), Some(ExecError::BudgetExceeded { .. })));
    }
}
