//! Deterministic cooperative task executor with virtual time.
//!
//! Replaces free-running OS-thread execution with *single-token* cooperative
//! scheduling: every simulated entity (application threads, the master daemon)
//! is a **task** carried by a parked OS thread, and at most one task executes
//! at any instant. At each yield point the scheduler hands the token to the
//! runnable task with the smallest virtual clock (plus an optional seeded
//! jitter), so a given `(seed, jitter)` pair fixes the entire interleaving —
//! a run is a pure function of its inputs and replays bit-identically:
//! journal, TCM and `MasterOutput` alike.
//!
//! ## Lookahead
//!
//! Tasks call [`DetExecutor::yield_now`] only before steps that touch state
//! other tasks can see (*shared* steps); steps confined to the task's own
//! state run without any executor call. The executor publishes a *horizon*:
//! the smallest scheduling key among the runnable tasks other than the running
//! one. A yield whose key is strictly below the horizon keeps the token without
//! taking the lock — the yielding task would have been re-picked anyway — so
//! the token moves only where shared steps of different tasks interleave
//! (conservative lookahead, Chandy & Misra 1979, applied to a single token).
//!
//! ## Token hand-off
//!
//! A pass costs one wake and one park. The dispatcher picks the next task under
//! the state lock, publishes the horizon, and then sets that task's token (an
//! `AtomicBool`, Release). The waker drops the lock and only then unparks the
//! picked carrier, so the woken carrier never runs straight into a lock its
//! waker still holds. A waiting carrier never takes the lock: it loops on the
//! poison flag, then its token (swap, Acquire), then `thread::park`. The token
//! is stored before the unpark, so a carrier that checked just before the
//! store keeps the park permit and returns from `park` at once; a carrier that
//! wakes spuriously and finds the token set runs before the unpark lands, and
//! that late unpark leaves only a permit which the next `park` consumes before
//! re-checking its token — it costs a loop turn, never a lost or extra pass.
//!
//! Serialization is also what closes the LRC fetch-vs-flush race (DESIGN.md
//! §14): with one task running at a time, the write-notice distribution at
//! barriers is schedule-determined, not OS-determined. And because carrier
//! threads are parked except when holding the token, cluster size is bounded
//! by address space rather than cores — 10k+ simulated threads run on one box.
//!
//! ## Task lifecycle
//!
//! ```text
//! NotStarted --register_current--> Runnable --pick--> Running
//!     Running --yield_now--> Runnable
//!     Running --block_internal/block_external--> Blocked --unblock--> Runnable
//!     Running --finish--> Finished
//! ```
//!
//! Dispatch begins only after **all** `n_tasks` tasks have registered, so the
//! first pick is independent of OS spawn order. `Blocked` comes in two
//! flavors: *internal* (waiting on another task — a lock holder, barrier
//! parties) and *external* (waiting on a wakeup from outside the task set —
//! the master daemon's empty mailbox). If no task is runnable, none is
//! running, and at least one is blocked internally, the executor **poisons**
//! itself: every parked task panics with [`POISON_MSG`] (a deterministic
//! deadlock report instead of a wedge).
//!
//! ## Virtual time
//!
//! The executor holds no clock of its own: tasks report their simulated
//! nanoseconds (their `ClockBoard` cell) at every scheduling point, and the
//! scheduler orders by those reports. Manual mode (`new_paused`) adds
//! [`DetExecutor::tick`], [`DetExecutor::run_until_idle`] and
//! [`DetExecutor::fast_forward_to`] for step-by-step driving from a
//! controlling (non-task) thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Panic payload of every task killed by executor poisoning (cooperative
/// deadlock, or explicit [`DetExecutor::poison`]). Carriers classify panics by
/// comparing against this message: a cascade kill is not the root cause.
pub const POISON_MSG: &str = "deterministic executor poisoned: cooperative task deadlock";

/// `DetExecutor::running` when no task holds the token.
const NO_TASK: usize = usize::MAX;

/// Why a task is blocked (drives the deadlock-vs-idle distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Waiting on another task (lock holder, barrier parties). If only such
    /// tasks remain, the task set has deadlocked.
    Internal,
    /// Waiting on a wakeup from outside the task set (e.g. the master daemon
    /// parked on an empty mailbox, woken by the controlling thread).
    External,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    NotStarted,
    Runnable,
    Running,
    Blocked(Block),
    Finished,
}

#[derive(Debug)]
struct TaskSlot {
    state: TaskState,
    /// Last reported virtual time (simulated ns).
    clock_ns: u64,
    /// Tie class on equal scheduling keys: lower runs first (default 1; the
    /// cluster gives the master daemon 0 so it services mail promptly even when
    /// cost models keep every clock at zero).
    priority: u8,
    /// Invalidates stale heap entries (bumped on every re-key).
    generation: u64,
    /// A wakeup arrived while the task was not blocked; consume at next block.
    pending_wake: bool,
}

#[derive(Debug)]
struct ExecState {
    tasks: Vec<TaskSlot>,
    /// Lazy min-heap of `(key, priority, task, generation)`; entries whose
    /// generation is stale or whose task is no longer runnable are skipped on
    /// pop.
    heap: BinaryHeap<Reverse<(u64, u8, usize, u64)>>,
    registered: usize,
    runnable: usize,
    blocked_internal: usize,
    finished: usize,
    /// Remaining dispatches before pausing; `u64::MAX` = free-run.
    budget: u64,
    started: bool,
}

/// Carriers to unpark, decided under the state lock and delivered by
/// [`DetExecutor::wake`] once it is dropped.
#[must_use]
enum Wake {
    Nobody,
    Task(usize),
    /// The executor poisoned: every carrier must see it.
    All,
}

#[cfg(debug_assertions)]
thread_local! {
    /// State locks this thread holds, so [`DetExecutor::wake`] can assert that
    /// no carrier is woken under one (debug builds only).
    static STATE_LOCKS_HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The held state lock. Debug builds also count it in `STATE_LOCKS_HELD`.
struct StateGuard<'a>(MutexGuard<'a, ExecState>);

impl Deref for StateGuard<'_> {
    type Target = ExecState;
    fn deref(&self) -> &ExecState {
        &self.0
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut ExecState {
        &mut self.0
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        STATE_LOCKS_HELD.with(|n| n.set(n.get() - 1));
    }
}

/// Seeded deterministic cooperative executor. See the module docs.
#[derive(Debug)]
pub struct DetExecutor {
    seed: u64,
    jitter_ns: u64,
    state: Mutex<ExecState>,
    /// Signaled whenever the executor goes idle (nothing running, nothing
    /// dispatchable under the current budget) — manual mode waits here.
    idle: Condvar,
    /// Smallest scheduling key among the runnable tasks other than the running
    /// one (`u64::MAX` if none; 0 while poisoned or in manual mode, which sends
    /// every yield through the lock). Written under the state lock before the
    /// next runner's token, read lock-free by the running task's
    /// [`yield_now`](Self::yield_now): the token's Release/Acquire pair makes
    /// every value published before the task ran visible to it; later writes
    /// come from its own calls or from unblocks by non-task threads.
    horizon: AtomicU64,
    /// Scheduling calls per task — feeds the jitter hash. Only the task itself
    /// bumps its counter, so the lock-free yield path can too.
    yields: Box<[AtomicU64]>,
    /// Per-task run token: set by the dispatcher, consumed by the carrier.
    tokens: Box<[AtomicBool]>,
    /// Carrier thread of each registered task, for unpark.
    carriers: Box<[OnceLock<Thread>]>,
    /// The task holding the token, or [`NO_TASK`]. Like `poisoned`, written
    /// only under the state lock (Release) and read lock-free (Acquire) by the
    /// self-queries and waiting carriers; reads under the lock may be Relaxed.
    /// A task reads its own entry after taking its token, whose Release store
    /// follows the `running` store, so a running task always sees itself.
    running: AtomicUsize,
    poisoned: AtomicBool,
}

impl DetExecutor {
    /// Free-running executor over `n_tasks` tasks. `jitter_ns == 0` gives pure
    /// min-clock order (ties broken by task id); a nonzero jitter perturbs
    /// each scheduling key by `hash(seed, task, yield#) % jitter_ns`, so
    /// `seed` selects one reproducible interleaving out of many.
    pub fn new(n_tasks: usize, seed: u64, jitter_ns: u64) -> Arc<Self> {
        Self::with_budget(n_tasks, seed, jitter_ns, u64::MAX)
    }

    /// Paused executor: tasks register and park, but nothing runs until
    /// [`tick`](Self::tick) or [`run_until_idle`](Self::run_until_idle).
    pub fn new_paused(n_tasks: usize, seed: u64, jitter_ns: u64) -> Arc<Self> {
        Self::with_budget(n_tasks, seed, jitter_ns, 0)
    }

    fn with_budget(n_tasks: usize, seed: u64, jitter_ns: u64, budget: u64) -> Arc<Self> {
        let tasks = (0..n_tasks)
            .map(|_| TaskSlot {
                state: TaskState::NotStarted,
                clock_ns: 0,
                priority: 1,
                generation: 0,
                pending_wake: false,
            })
            .collect();
        Arc::new(DetExecutor {
            seed,
            jitter_ns,
            state: Mutex::new(ExecState {
                tasks,
                heap: BinaryHeap::new(),
                registered: 0,
                runnable: 0,
                blocked_internal: 0,
                finished: 0,
                budget,
                started: false,
            }),
            idle: Condvar::new(),
            horizon: AtomicU64::new(0),
            yields: (0..n_tasks).map(|_| AtomicU64::new(0)).collect(),
            tokens: (0..n_tasks).map(|_| AtomicBool::new(false)).collect(),
            carriers: (0..n_tasks).map(|_| OnceLock::new()).collect(),
            running: AtomicUsize::new(NO_TASK),
            poisoned: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> StateGuard<'_> {
        let guard = StateGuard(self.state.lock());
        #[cfg(debug_assertions)]
        STATE_LOCKS_HELD.with(|n| n.set(n.get() + 1));
        guard
    }

    /// Number of tasks this executor schedules.
    pub fn n_tasks(&self) -> usize {
        self.tokens.len()
    }

    fn running(&self) -> Option<usize> {
        Some(self.running.load(Ordering::Acquire)).filter(|&t| t != NO_TASK)
    }

    /// `_g` is the held state lock: `running` changes only under it.
    fn set_running(&self, _g: &mut ExecState, task: Option<usize>) {
        self.running.store(task.unwrap_or(NO_TASK), Ordering::Release);
    }

    fn set_poisoned(&self, g: &mut ExecState) {
        self.poisoned.store(true, Ordering::Release);
        self.publish_horizon(g);
        self.idle.notify_all();
    }

    /// Scheduling key: virtual clock plus seeded jitter. Computed when a task
    /// becomes runnable — sound because a parked task's clock cannot move.
    fn key(&self, task: usize, yields: u64, clock_ns: u64) -> u64 {
        if self.jitter_ns == 0 {
            return clock_ns;
        }
        let h = splitmix64(self.seed ^ ((task as u64) << 32) ^ yields);
        clock_ns.saturating_add(h % self.jitter_ns)
    }

    /// Set `task`'s tie class: on equal scheduling keys, lower `priority` runs
    /// first (default 1). Call before the run starts — re-keying is not applied
    /// to already-queued heap entries.
    pub fn set_priority(&self, task: usize, priority: u8) {
        let mut g = self.lock();
        assert!(task < g.tasks.len(), "task {task} out of range");
        g.tasks[task].priority = priority;
    }

    fn push_runnable(&self, g: &mut ExecState, task: usize) {
        let yields = self.yields[task].load(Ordering::Relaxed);
        let slot = &mut g.tasks[task];
        debug_assert_eq!(slot.state, TaskState::Runnable);
        slot.generation += 1;
        let entry = (
            self.key(task, yields, slot.clock_ns),
            slot.priority,
            task,
            slot.generation,
        );
        g.heap.push(Reverse(entry));
        self.publish_horizon(g);
    }

    /// Drop stale heap entries off the top and publish the smallest live key
    /// as the horizon. Called after every change to the heap, the budget or
    /// the poison flag.
    fn publish_horizon(&self, g: &mut ExecState) {
        let horizon = if self.poisoned.load(Ordering::Relaxed) || g.budget != u64::MAX {
            0
        } else {
            loop {
                match g.heap.peek() {
                    None => break u64::MAX,
                    Some(&Reverse((key, _, task, generation))) => {
                        let slot = &g.tasks[task];
                        if slot.state == TaskState::Runnable && slot.generation == generation {
                            break key;
                        }
                        g.heap.pop();
                    }
                }
            }
        };
        self.horizon.store(horizon, Ordering::Release);
    }

    /// Hand the token to the best runnable task, or detect deadlock/idle.
    /// Caller must hold the state lock with no task running. The picked task's
    /// token is set after the horizon is published; its carrier is returned to
    /// be woken once the lock is dropped — unless it is `caller`, which is awake
    /// and sees `running` name it.
    fn dispatch(&self, g: &mut ExecState, caller: Option<usize>) -> Wake {
        debug_assert!(self.running().is_none());
        let wake = self.pick(g, caller);
        self.publish_horizon(g);
        if let Wake::Task(task) = wake {
            self.tokens[task].store(true, Ordering::Release);
        }
        wake
    }

    fn pick(&self, g: &mut ExecState, caller: Option<usize>) -> Wake {
        if self.poisoned.load(Ordering::Relaxed) {
            return Wake::All;
        }
        if !g.started {
            return Wake::Nobody;
        }
        loop {
            if g.runnable == 0 {
                // Nothing to run: a live internally-blocked task means the
                // task set has deadlocked on itself.
                if g.blocked_internal > 0 {
                    self.set_poisoned(g);
                    return Wake::All;
                }
                self.idle.notify_all();
                return Wake::Nobody;
            }
            if g.budget == 0 {
                self.idle.notify_all();
                return Wake::Nobody;
            }
            let Some(Reverse((_, _, task, generation))) = g.heap.pop() else {
                debug_assert!(false, "runnable count positive but heap empty");
                return Wake::Nobody;
            };
            let slot = &mut g.tasks[task];
            if slot.state != TaskState::Runnable || slot.generation != generation {
                continue; // stale entry (re-keyed by fast_forward_to)
            }
            slot.state = TaskState::Running;
            if g.budget != u64::MAX {
                g.budget -= 1;
            }
            g.runnable -= 1;
            self.set_running(g, Some(task));
            return if caller == Some(task) {
                Wake::Nobody
            } else {
                Wake::Task(task)
            };
        }
    }

    /// Unpark the carriers `wake` names. Never called under the state lock: a
    /// carrier woken while its waker still holds the lock would preempt the
    /// waker only to block on it.
    fn wake(&self, wake: Wake) {
        #[cfg(debug_assertions)]
        assert_eq!(
            STATE_LOCKS_HELD.with(|n| n.get()),
            0,
            "carrier woken under the executor state lock"
        );
        let unpark = |task: usize| {
            if let Some(t) = self.carriers[task].get() {
                t.unpark();
            }
        };
        match wake {
            Wake::Nobody => {}
            Wake::Task(task) => unpark(task),
            Wake::All => (0..self.carriers.len()).for_each(unpark),
        }
    }

    /// Park the calling carrier until its task holds the token (or the
    /// executor is poisoned, in which case this panics with [`POISON_MSG`]).
    /// Lock-free: see the module docs on the token hand-off.
    fn wait_for_token(&self, task: usize) {
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                panic!("{POISON_MSG}");
            }
            if self.tokens[task].swap(false, Ordering::Acquire) {
                return;
            }
            std::thread::park();
        }
    }

    /// After `caller` handed the token back: drop the lock, wake the picked
    /// carrier, and park unless the dispatch re-picked `caller` itself.
    fn hand_off(&self, g: StateGuard<'_>, wake: Wake, caller: usize) {
        let kept = self.running() == Some(caller);
        drop(g);
        self.wake(wake);
        if !kept {
            self.wait_for_token(caller);
        }
    }

    /// Register the calling OS thread as the carrier of `task` and park until
    /// the scheduler first picks it. Dispatch begins only once **all** tasks
    /// have registered, so the initial pick is spawn-order independent.
    ///
    /// # Panics
    /// If `task` is out of range, already registered, or the executor is
    /// poisoned while waiting.
    pub fn register_current(&self, task: usize) {
        let mut g = self.lock();
        assert!(task < g.tasks.len(), "task {task} out of range");
        assert_eq!(
            g.tasks[task].state,
            TaskState::NotStarted,
            "task {task} registered twice"
        );
        self.carriers[task]
            .set(std::thread::current())
            .expect("a task not yet started has no carrier");
        g.tasks[task].state = TaskState::Runnable;
        g.runnable += 1;
        self.push_runnable(&mut g, task);
        g.registered += 1;
        let mut wake = Wake::Nobody;
        if g.registered == g.tasks.len() {
            g.started = true;
            if self.running().is_none() {
                wake = self.dispatch(&mut g, Some(task));
            }
        }
        self.hand_off(g, wake, task);
    }

    /// Cooperative scheduling point: report the task's virtual clock and let
    /// the task with the smallest `(key, priority, id)` run. Called only by the
    /// running task. A key strictly below the [horizon](Self#lookahead) keeps
    /// the token without touching the lock; otherwise the task hands the token
    /// back and parks until re-picked.
    pub fn yield_now(&self, task: usize, now_ns: u64) {
        let yields = self.yields[task].fetch_add(1, Ordering::Relaxed) + 1;
        if self.key(task, yields, now_ns) < self.horizon.load(Ordering::Acquire) {
            return;
        }
        let mut g = self.lock();
        if self.poisoned.load(Ordering::Relaxed) {
            drop(g);
            panic!("{POISON_MSG}");
        }
        debug_assert_eq!(self.running(), Some(task));
        let slot = &mut g.tasks[task];
        slot.clock_ns = slot.clock_ns.max(now_ns);
        slot.state = TaskState::Runnable;
        self.set_running(&mut g, None);
        g.runnable += 1;
        self.push_runnable(&mut g, task);
        let wake = self.dispatch(&mut g, Some(task));
        self.hand_off(g, wake, task);
    }

    /// Block the running task waiting on **another task** (lock holder,
    /// barrier parties). Parks until [`unblock`](Self::unblock). If this
    /// leaves the task set with nothing runnable, the executor poisons.
    pub fn block_internal(&self, task: usize, now_ns: u64) {
        self.block(task, now_ns, Block::Internal);
    }

    /// Block the running task waiting on a wakeup **from outside the task
    /// set** (the controlling thread, typically). Never counts as deadlock.
    pub fn block_external(&self, task: usize, now_ns: u64) {
        self.block(task, now_ns, Block::External);
    }

    fn block(&self, task: usize, now_ns: u64, kind: Block) {
        let mut g = self.lock();
        if self.poisoned.load(Ordering::Relaxed) {
            drop(g);
            panic!("{POISON_MSG}");
        }
        debug_assert_eq!(self.running(), Some(task));
        self.yields[task].fetch_add(1, Ordering::Relaxed);
        self.set_running(&mut g, None);
        let slot = &mut g.tasks[task];
        slot.clock_ns = slot.clock_ns.max(now_ns);
        if slot.pending_wake {
            // A wakeup raced the block (sent from a non-task thread while
            // this task was running): degrade to a plain yield.
            slot.pending_wake = false;
            slot.state = TaskState::Runnable;
            g.runnable += 1;
            self.push_runnable(&mut g, task);
        } else {
            slot.state = TaskState::Blocked(kind);
            if kind == Block::Internal {
                g.blocked_internal += 1;
            }
        }
        let wake = self.dispatch(&mut g, Some(task));
        self.hand_off(g, wake, task);
    }

    /// Make a blocked task runnable again. Callable from any thread (a running
    /// task releasing a resource, or the controlling thread waking an
    /// externally-blocked task). A woken task below the horizon lowers it, so
    /// the running task parks at its next yield. Waking a running task records
    /// a pending wakeup consumed by its next `block_*`; waking a runnable or
    /// finished task is a no-op.
    pub fn unblock(&self, task: usize) {
        let mut g = self.lock();
        if self.poisoned.load(Ordering::Relaxed) || task >= g.tasks.len() {
            return;
        }
        let mut wake = Wake::Nobody;
        match g.tasks[task].state {
            TaskState::Blocked(kind) => {
                g.tasks[task].state = TaskState::Runnable;
                g.runnable += 1;
                if kind == Block::Internal {
                    g.blocked_internal -= 1;
                }
                self.push_runnable(&mut g, task);
                if self.running().is_none() && g.started {
                    wake = self.dispatch(&mut g, None);
                }
            }
            TaskState::Running => g.tasks[task].pending_wake = true,
            _ => {}
        }
        drop(g);
        self.wake(wake);
    }

    /// Retire the calling task and hand the token onward. Safe to call after a
    /// caught panic (including a poison cascade) — it never panics itself.
    pub fn finish(&self, task: usize) {
        let mut g = self.lock();
        if task >= g.tasks.len() {
            return;
        }
        let prior = g.tasks[task].state;
        if prior == TaskState::Finished {
            return;
        }
        g.tasks[task].state = TaskState::Finished;
        g.finished += 1;
        match prior {
            TaskState::Running => self.set_running(&mut g, None),
            TaskState::Runnable => g.runnable -= 1,
            TaskState::Blocked(Block::Internal) => g.blocked_internal -= 1,
            _ => {}
        }
        let mut wake = Wake::Nobody;
        if !self.poisoned.load(Ordering::Relaxed) && self.running().is_none() && g.started {
            wake = self.dispatch(&mut g, None);
        }
        drop(g);
        self.wake(wake);
    }

    /// True while `task` is the currently-running task of a live executor —
    /// the gate cooperative sync primitives use to choose the executor path
    /// over their OS-thread (condvar) fallback. Lock-free: the running task
    /// sees its own `running` entry through the token it took.
    pub fn task_is_live(&self, task: usize) -> bool {
        self.running() == Some(task) && !self.is_poisoned()
    }

    /// True once the executor has poisoned (deadlock or explicit abort).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Poison the executor outright: every parked or future scheduling call
    /// panics with [`POISON_MSG`]. Used to abort cleanly when a carrier could
    /// not be spawned and registration would otherwise never complete.
    pub fn poison(&self) {
        let mut g = self.lock();
        self.set_poisoned(&mut g);
        drop(g);
        self.wake(Wake::All);
    }

    /// Earliest virtual clock over all unfinished tasks (0 if none) — the
    /// front of virtual time. A running task counts with the clock of its last
    /// yield that parked or blocked.
    pub fn time_front(&self) -> u64 {
        let g = self.lock();
        g.tasks
            .iter()
            .filter(|t| t.state != TaskState::Finished)
            .map(|t| t.clock_ns)
            .min()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------ manual mode

    /// Is the executor idle: nothing running and nothing dispatchable under
    /// the current budget?
    fn is_idle(&self, g: &ExecState) -> bool {
        self.running().is_none() && (g.runnable == 0 || g.budget == 0 || !g.started)
    }

    /// Grant dispatches (`steps` more, or `u64::MAX` to free-run), wait for
    /// all tasks to register first, and wake the picked carrier. Returns the
    /// lock re-taken after the wake.
    fn grant(&self, steps: u64) -> StateGuard<'_> {
        let mut g = self.lock();
        while !g.started {
            self.idle.wait(&mut g.0);
        }
        g.budget = g.budget.saturating_add(steps);
        let mut wake = Wake::Nobody;
        if self.running().is_none() {
            wake = self.dispatch(&mut g, None);
        }
        drop(g);
        self.wake(wake);
        self.lock()
    }

    /// Pause again once `done` holds; returns the number of unfinished tasks.
    fn pause_when(&self, mut g: StateGuard<'_>, done: impl Fn(&Self, &ExecState) -> bool) -> usize {
        while !done(self, &g) {
            self.idle.wait(&mut g.0);
        }
        g.budget = 0;
        self.publish_horizon(&mut g);
        g.tasks.len() - g.finished
    }

    /// Grant `steps` dispatches and block the calling (non-task) thread until
    /// the executor is idle again. Waits for all tasks to register first.
    /// Returns the number of unfinished tasks. Manual mode only (created via
    /// [`new_paused`](Self::new_paused)).
    pub fn tick(&self, steps: u64) -> usize {
        let g = self.grant(steps);
        self.pause_when(g, Self::is_idle)
    }

    /// Run until no task is runnable (all blocked or finished), then pause
    /// again. Waits for all tasks to register first. Returns the number of
    /// unfinished tasks.
    pub fn run_until_idle(&self) -> usize {
        let g = self.grant(u64::MAX);
        self.pause_when(g, |e, g| e.running().is_none() && g.runnable == 0)
    }

    /// Raise every unfinished task's virtual clock to at least `ns` (re-keying
    /// runnable tasks), compressing dead virtual time. The tasks' own clocks
    /// (e.g. a `ClockBoard`) must be raised by the caller; this adjusts only
    /// the scheduling view. Manual mode only: a running task's lock-free
    /// yields do not see a clock raised here.
    pub fn fast_forward_to(&self, ns: u64) {
        let mut g = self.lock();
        let n = g.tasks.len();
        for task in 0..n {
            if g.tasks[task].state == TaskState::Finished {
                continue;
            }
            g.tasks[task].clock_ns = g.tasks[task].clock_ns.max(ns);
            if g.tasks[task].state == TaskState::Runnable {
                self.push_runnable(&mut g, task);
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// Spawn `n` tasks that each append `(task, step)` to a shared log at every
    /// scheduling point, with per-task virtual clocks advancing by `pace[t]`.
    fn run_logged(n: usize, seed: u64, jitter: u64, steps: usize, pace: &[u64]) -> Vec<(usize, usize)> {
        let exec = DetExecutor::new(n, seed, jitter);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            let pace = pace[t];
            handles.push(std::thread::spawn(move || {
                exec.register_current(t);
                let mut clock = 0u64;
                for step in 0..steps {
                    log.lock().push((t, step));
                    clock += pace;
                    exec.yield_now(t, clock);
                }
                exec.finish(t);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let out = log.lock().clone();
        out
    }

    #[test]
    fn min_clock_order_is_deterministic_and_fair() {
        let a = run_logged(3, 1, 0, 4, &[10, 10, 10]);
        let b = run_logged(3, 99, 0, 4, &[10, 10, 10]);
        // jitter 0: seed is irrelevant, order is pure (clock, task id).
        assert_eq!(a, b);
        // Equal pace => strict round-robin by task id.
        let first_round: Vec<usize> = a[..3].iter().map(|(t, _)| *t).collect();
        assert_eq!(first_round, vec![0, 1, 2]);
    }

    #[test]
    fn slow_task_yields_to_fast_tasks() {
        let log = run_logged(2, 0, 0, 3, &[100, 1]);
        // Task 1 advances 1ns per step, task 0 100ns: after the first
        // alternation task 1 should run its remaining steps before task 0's
        // second step (clock 100 vs 2).
        let pos = |needle: (usize, usize)| log.iter().position(|&e| e == needle).unwrap();
        assert!(pos((1, 2)) < pos((0, 1)));
    }

    #[test]
    fn seeded_jitter_replays_identically_and_seeds_differ() {
        let a = run_logged(4, 7, 1_000, 6, &[10, 10, 10, 10]);
        let b = run_logged(4, 7, 1_000, 6, &[10, 10, 10, 10]);
        assert_eq!(a, b, "same seed must replay the same interleaving");
        let c = run_logged(4, 8, 1_000, 6, &[10, 10, 10, 10]);
        assert_ne!(a, c, "different seed should pick a different interleaving");
    }

    /// `n` tasks each running `steps` steps that advance its clock by
    /// `pace[t]`; step `s` is shared when `s % every[t] == 0` and yields at its
    /// start clock first, the others run without an executor call. Returns the
    /// shared steps in execution order.
    fn run_lookahead(
        seed: u64,
        jitter: u64,
        steps: usize,
        pace: &[u64],
        every: &[usize],
        priority: &[u8],
    ) -> Vec<(usize, usize)> {
        let n = pace.len();
        let exec = DetExecutor::new(n, seed, jitter);
        for (t, &p) in priority.iter().enumerate() {
            exec.set_priority(t, p);
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..n {
                let (exec, log) = (&exec, &log);
                let (pace, every) = (pace[t], every[t]);
                s.spawn(move || {
                    exec.register_current(t);
                    for step in 0..steps {
                        if step % every == 0 {
                            exec.yield_now(t, step as u64 * pace);
                            log.lock().push((t, step));
                        }
                    }
                    exec.finish(t);
                });
            }
        });
        let out = log.lock().clone();
        out
    }

    #[test]
    fn shared_steps_run_in_clock_priority_id_order() {
        let pace = [7, 3, 5, 3];
        let every = [1, 4, 2, 3];
        let priority = [1, 1, 0, 1];
        let got = run_lookahead(0, 0, 24, &pace, &every, &priority);
        // The order `run_logged` gives when every step yields, restricted to
        // the shared steps: by (start clock, priority, task id).
        let mut want: Vec<(u64, u8, usize, usize)> = (0..pace.len())
            .flat_map(|t| {
                (0..24)
                    .filter(move |s| s % every[t] == 0)
                    .map(move |s| (s as u64 * pace[t], priority[t], t, s))
            })
            .collect();
        want.sort_unstable();
        let want: Vec<(usize, usize)> = want.into_iter().map(|(_, _, t, s)| (t, s)).collect();
        assert_eq!(got, want);
        // With every step shared, the order is exactly `run_logged`'s.
        let all = run_lookahead(0, 0, 6, &[10, 10, 10], &[1, 1, 1], &[1, 1, 1]);
        let logged = run_logged(3, 0, 0, 6, &[10, 10, 10]);
        assert_eq!(all, logged);
    }

    #[test]
    fn jittered_lookahead_runs_replay() {
        let pace = [7, 3, 5, 3];
        let every = [1, 4, 2, 3];
        let a = run_lookahead(11, 40, 32, &pace, &every, &[1; 4]);
        let b = run_lookahead(11, 40, 32, &pace, &every, &[1; 4]);
        assert_eq!(a, b, "same seed must replay the same interleaving");
        let c = run_lookahead(12, 40, 32, &pace, &every, &[1; 4]);
        assert_ne!(a, c, "different seed should pick a different interleaving");
    }

    #[test]
    fn steps_below_the_horizon_never_park() {
        let exec = DetExecutor::new(2, 0, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (e0, l0) = (&exec, &log);
            s.spawn(move || {
                e0.register_current(0);
                e0.yield_now(0, 1_000); // parks: task 1 is still at 0
                l0.lock().push((0, 1_000));
                e0.finish(0);
            });
            let (e1, l1) = (&exec, &log);
            s.spawn(move || {
                e1.register_current(1);
                let generation = e1.state.lock().tasks[1].generation;
                for now in 1..=100 {
                    e1.yield_now(1, now);
                    l1.lock().push((1, now));
                }
                // Every key sat below task 0's 1 000: the task was never
                // re-queued, so it never parked.
                assert_eq!(e1.state.lock().tasks[1].generation, generation);
                e1.finish(1);
            });
        });
        let log = log.lock().clone();
        assert_eq!(log.len(), 101);
        assert_eq!(log.last(), Some(&(0, 1_000)), "task 0 runs only after task 1");
    }

    #[test]
    fn unblocking_a_lower_key_task_parks_the_runner_at_its_next_yield() {
        // Task 0 plays the master: priority 0, blocked on an empty mailbox.
        let exec = DetExecutor::new(2, 0, 0);
        exec.set_priority(0, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (e0, l0) = (&exec, &log);
            s.spawn(move || {
                e0.register_current(0);
                e0.block_external(0, 0);
                l0.lock().push("master");
                e0.finish(0);
            });
            let (e1, l1) = (&exec, &log);
            s.spawn(move || {
                e1.register_current(1);
                e1.yield_now(1, 10);
                l1.lock().push("post");
                e1.unblock(0); // an OAL post wakes the master at clock 0
                assert_eq!(e1.horizon.load(Ordering::Acquire), 0);
                l1.lock().push("private");
                e1.yield_now(1, 30); // the next shared step parks
                l1.lock().push("shared");
                e1.finish(1);
            });
        });
        assert_eq!(log.lock().clone(), vec!["post", "private", "master", "shared"]);
    }

    #[test]
    fn a_re_picked_yielder_leaves_no_stale_park_token() {
        let exec = DetExecutor::new(2, 0, 0);
        std::thread::scope(|s| {
            let e0 = &exec;
            s.spawn(move || {
                e0.register_current(0);
                // Ties task 1's key: the lock path runs dispatch, which
                // re-picks task 0 on its lower id.
                e0.yield_now(0, 0);
                let t0 = std::time::Instant::now();
                std::thread::park_timeout(std::time::Duration::from_millis(200));
                assert!(
                    t0.elapsed() >= std::time::Duration::from_millis(100),
                    "a stale unpark woke the carrier early"
                );
                e0.finish(0);
            });
            let e1 = &exec;
            s.spawn(move || {
                e1.register_current(1);
                e1.finish(1);
            });
        });
    }

    #[test]
    fn a_last_registered_first_pick_leaves_no_stale_park_token() {
        // Task 0 plays the master: priority 0, so it is picked first.
        let exec = DetExecutor::new(2, 0, 0);
        exec.set_priority(0, 0);
        std::thread::scope(|s| {
            let e1 = &exec;
            s.spawn(move || {
                e1.register_current(1);
                e1.finish(1);
            });
            let e0 = &exec;
            s.spawn(move || {
                while e0.state.lock().registered < 1 {
                    std::thread::yield_now();
                }
                // Registers last, so its own call dispatches — and picks it.
                e0.register_current(0);
                let t0 = Instant::now();
                std::thread::park_timeout(Duration::from_millis(200));
                let parked = t0.elapsed();
                e0.finish(0); // before asserting, so a failure cannot hang task 1
                assert!(
                    parked >= Duration::from_millis(100),
                    "a stale unpark woke the carrier early"
                );
            });
        });
    }

    /// Every other test in this module drives some wake path (register, yield,
    /// block, unblock from outside, finish, poison, tick); in debug builds
    /// `wake` asserts on each that the waker does not hold the state lock.
    /// This checks the assertion itself.
    #[cfg(debug_assertions)]
    #[test]
    fn waking_a_carrier_under_the_state_lock_trips_the_guard() {
        let exec = DetExecutor::new(1, 0, 0);
        let g = exec.lock();
        let woke_under_lock = catch_unwind(AssertUnwindSafe(|| exec.wake(Wake::Task(0))));
        drop(g);
        assert!(woke_under_lock.is_err());
        exec.wake(Wake::Task(0));
    }

    /// The order `run_logged` must give: the task with the smallest
    /// `(key, id)` runs next, where a task's key after `s` steps is
    /// `key(task, s, s * pace)` — the key of its `s`-th yield.
    fn model_order(n: usize, seed: u64, jitter: u64, steps: usize, pace: &[u64]) -> Vec<(usize, usize)> {
        let keys = DetExecutor::new(n, seed, jitter);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..n).map(|t| Reverse((keys.key(t, 0, 0), t))).collect();
        let mut done = vec![0usize; n];
        let mut order = Vec::with_capacity(n * steps);
        while let Some(Reverse((_, t))) = heap.pop() {
            order.push((t, done[t]));
            done[t] += 1;
            if done[t] < steps {
                let s = done[t] as u64;
                heap.push(Reverse((keys.key(t, s, s * pace[t]), t)));
            }
        }
        order
    }

    /// Runs `f` on its own thread and fails the test if it has not returned
    /// within `limit`, instead of letting a lost wake-up hang the suite.
    fn with_watchdog<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(limit) {
            Ok(out) => {
                run.join().expect("the run returned").expect("the receiver is alive");
                out
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: the run hung (lost wake-up?)"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
        }
    }

    #[test]
    fn hand_off_stress_reproduces_the_logged_order() {
        const TASKS: usize = 16;
        const STEPS: usize = 5_000;
        let pace: [u64; TASKS] = [1, 1, 2, 3, 5, 8, 1, 2, 3, 1, 7, 2, 1, 4, 1, 3];
        for (seed, jitter) in [(0, 0), (5, 7)] {
            let got = with_watchdog(Duration::from_secs(120), move || {
                run_logged(TASKS, seed, jitter, STEPS, &pace)
            });
            assert_eq!(got.len(), TASKS * STEPS);
            assert!(
                got == model_order(TASKS, seed, jitter, STEPS, &pace),
                "seed {seed}, jitter {jitter}: hand-off order differs from the model"
            );
        }
    }

    #[test]
    fn poison_reaches_every_carrier_in_the_lock_free_wait() {
        const TASKS: usize = 8;
        let exec = DetExecutor::new(TASKS, 0, 0);
        let (running_tx, running_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let mut carriers = Vec::new();
        for t in 0..TASKS {
            let (exec, running_tx, done_tx) = (Arc::clone(&exec), running_tx.clone(), done_tx.clone());
            carriers.push(std::thread::spawn(move || {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    exec.register_current(t);
                    // Task 0 is picked first and keeps the token; the others
                    // wait for it without the lock.
                    running_tx.send(t).unwrap();
                    while !exec.is_poisoned() {
                        std::thread::yield_now();
                    }
                    exec.yield_now(t, 1);
                }))
                .unwrap_err();
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                exec.finish(t);
                done_tx.send(msg).unwrap();
            }));
        }
        assert_eq!(running_rx.recv_timeout(Duration::from_secs(30)), Ok(0));
        assert!(exec.task_is_live(0) && !exec.task_is_live(1));
        // Let the others reach `park`; the poison must reach them either way.
        std::thread::sleep(Duration::from_millis(50));
        exec.poison();
        assert!(!exec.task_is_live(0), "a poisoned executor has no live task");
        for _ in 0..TASKS {
            let msg = done_rx.recv_timeout(Duration::from_secs(30)).expect("a carrier missed the poison");
            assert_eq!(msg, POISON_MSG);
        }
        assert!(running_rx.try_recv().is_err(), "only task 0 ever ran");
        for c in carriers {
            c.join().unwrap();
        }
    }

    #[test]
    fn paused_tick_and_run_until_idle() {
        let exec = DetExecutor::new_paused(2, 0, 0);
        let count = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..2 {
            let exec = Arc::clone(&exec);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || {
                exec.register_current(t);
                for i in 0..3u64 {
                    count.fetch_add(1, Ordering::SeqCst);
                    exec.yield_now(t, (i + 1) * 10);
                }
                exec.finish(t);
            }));
        }
        // Paused: nothing runs until ticked.
        while exec.state.lock().registered < 2 {
            std::thread::yield_now();
        }
        assert_eq!(count.load(Ordering::SeqCst), 0);
        exec.tick(1);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        exec.tick(2);
        assert_eq!(count.load(Ordering::SeqCst), 3);
        let unfinished = exec.run_until_idle();
        assert_eq!(count.load(Ordering::SeqCst), 6);
        assert_eq!(unfinished, 0);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fast_forward_reorders_scheduling() {
        let exec = DetExecutor::new_paused(2, 0, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..2usize {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                exec.register_current(t);
                log.lock().push(t);
                // Task 0 reports a far-future clock, task 1 stays early.
                exec.yield_now(t, if t == 0 { 1_000_000 } else { 5 });
                log.lock().push(t);
                exec.finish(t);
            }));
        }
        exec.tick(2); // both run their first leg
        assert_eq!(log.lock().clone(), vec![0, 1]);
        // Fast-forward past task 0's clock: both now tie at 1_000_000 and the
        // tie breaks by id, so 0 runs before 1 despite its later clock.
        exec.fast_forward_to(1_000_000);
        assert!(exec.time_front() >= 1_000_000);
        exec.run_until_idle();
        assert_eq!(log.lock().clone(), vec![0, 1, 0, 1]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn internal_deadlock_poisons_with_known_payload() {
        let exec = DetExecutor::new(2, 0, 0);
        let mut handles = Vec::new();
        for t in 0..2usize {
            let exec = Arc::clone(&exec);
            handles.push(std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    exec.register_current(t);
                    exec.block_internal(t, 10); // nobody will ever unblock us
                }))
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert_eq!(msg, POISON_MSG);
        }
        assert!(exec.is_poisoned());
    }

    #[test]
    fn deadlock_after_lock_free_yields_still_poisons() {
        let exec = DetExecutor::new(2, 0, 0);
        let mut handles = Vec::new();
        for t in 0..2usize {
            let exec = Arc::clone(&exec);
            handles.push(std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    exec.register_current(t);
                    for now in 1..=50 {
                        exec.yield_now(t, now * (t as u64 + 1));
                    }
                    exec.block_internal(t, 1_000);
                }))
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert_eq!(err.downcast_ref::<&str>().copied().or_else(|| err.downcast_ref::<String>().map(String::as_str)), Some(POISON_MSG));
        }
        assert!(exec.is_poisoned());
        assert_eq!(exec.horizon.load(Ordering::Acquire), 0, "poison closes the lock-free path");
    }

    #[test]
    fn external_block_is_idle_not_deadlock() {
        let exec = DetExecutor::new(2, 0, 0);
        let woke = Arc::new(AtomicU64::new(0));
        let e0 = Arc::clone(&exec);
        let w0 = Arc::clone(&woke);
        let waiter = std::thread::spawn(move || {
            e0.register_current(0);
            e0.block_external(0, 0);
            w0.store(1, Ordering::SeqCst);
            e0.finish(0);
        });
        let e1 = Arc::clone(&exec);
        let worker = std::thread::spawn(move || {
            e1.register_current(1);
            e1.yield_now(1, 5);
            e1.finish(1);
        });
        worker.join().unwrap();
        assert!(!exec.is_poisoned());
        assert_eq!(woke.load(Ordering::SeqCst), 0);
        // Wake from outside the task set — the pending-wake path also covers
        // the race where the wake lands before the task actually blocks.
        exec.unblock(0);
        waiter.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pending_wake_prevents_lost_wakeup() {
        // Task 0 spins: block_external must return immediately if the wake
        // already arrived while it was running.
        let exec = DetExecutor::new(1, 0, 0);
        let e0 = Arc::clone(&exec);
        let t = std::thread::spawn(move || {
            e0.register_current(0);
            // Wake arrives while we are the running task...
            e0.unblock(0);
            // ...so this block consumes it and degrades to a yield.
            e0.block_external(0, 1);
            e0.finish(0);
        });
        t.join().unwrap(); // would hang forever without pending_wake
        assert!(!exec.is_poisoned());
    }
}
