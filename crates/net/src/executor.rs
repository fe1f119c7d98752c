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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::{Condvar, Mutex};

/// Panic payload of every task killed by executor poisoning (cooperative
/// deadlock, or explicit [`DetExecutor::poison`]). Carriers classify panics by
/// comparing against this message: a cascade kill is not the root cause.
pub const POISON_MSG: &str = "deterministic executor poisoned: cooperative task deadlock";

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
    /// Carrier thread handle, for unpark.
    carrier: Option<Thread>,
    /// Token: set by the dispatcher, consumed by the carrier.
    run_token: bool,
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
    running: Option<usize>,
    runnable: usize,
    blocked_internal: usize,
    finished: usize,
    /// Remaining dispatches before pausing; `u64::MAX` = free-run.
    budget: u64,
    started: bool,
    poisoned: bool,
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
    /// every yield through the lock). Written under the state lock, read
    /// lock-free by the running task's [`yield_now`](Self::yield_now): the
    /// task took the token under that lock (Release/Acquire through the
    /// mutex), so it sees every value published before it ran; later writes
    /// come from its own calls or from unblocks by non-task threads.
    horizon: AtomicU64,
    /// Scheduling calls per task — feeds the jitter hash. Only the task itself
    /// bumps its counter, so the lock-free yield path can too.
    yields: Box<[AtomicU64]>,
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
                carrier: None,
                run_token: false,
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
                running: None,
                runnable: 0,
                blocked_internal: 0,
                finished: 0,
                budget,
                started: false,
                poisoned: false,
            }),
            idle: Condvar::new(),
            horizon: AtomicU64::new(0),
            yields: (0..n_tasks).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Number of tasks this executor schedules.
    pub fn n_tasks(&self) -> usize {
        self.state.lock().tasks.len()
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
        let mut g = self.state.lock();
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
        let horizon = if g.poisoned || g.budget != u64::MAX {
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
    /// Caller must hold the state lock and have `running == None`. The picked
    /// task's carrier is unparked unless it is `caller`, which is awake and
    /// takes the token itself.
    fn dispatch(&self, g: &mut ExecState, caller: Option<usize>) {
        debug_assert!(g.running.is_none());
        self.pick(g, caller);
        self.publish_horizon(g);
    }

    fn pick(&self, g: &mut ExecState, caller: Option<usize>) {
        if g.poisoned {
            self.wake_everything(g);
            return;
        }
        if !g.started {
            return;
        }
        loop {
            if g.runnable == 0 {
                // Nothing to run: a live internally-blocked task means the
                // task set has deadlocked on itself.
                if g.blocked_internal > 0 {
                    g.poisoned = true;
                    self.wake_everything(g);
                } else {
                    self.idle.notify_all();
                }
                return;
            }
            if g.budget == 0 {
                self.idle.notify_all();
                return;
            }
            let Some(Reverse((_, _, task, generation))) = g.heap.pop() else {
                debug_assert!(false, "runnable count positive but heap empty");
                return;
            };
            let slot = &mut g.tasks[task];
            if slot.state != TaskState::Runnable || slot.generation != generation {
                continue; // stale entry (re-keyed by fast_forward_to)
            }
            if g.budget != u64::MAX {
                g.budget -= 1;
            }
            slot.state = TaskState::Running;
            slot.run_token = true;
            g.running = Some(task);
            g.runnable -= 1;
            if caller != Some(task) {
                if let Some(t) = &slot.carrier {
                    t.unpark();
                }
            }
            return;
        }
    }

    /// After `caller` handed the token back and dispatched: if the dispatch
    /// re-picked it, take the token without parking. Returns whether it did.
    fn kept_token(g: &mut ExecState, caller: usize) -> bool {
        if g.running != Some(caller) {
            return false;
        }
        g.tasks[caller].run_token = false;
        true
    }

    fn wake_everything(&self, g: &mut ExecState) {
        for slot in &g.tasks {
            if let Some(t) = &slot.carrier {
                t.unpark();
            }
        }
        self.idle.notify_all();
    }

    /// Park the calling carrier until its task holds the token (or the
    /// executor is poisoned, in which case this panics with [`POISON_MSG`]).
    fn wait_for_token(&self, task: usize) {
        loop {
            {
                let mut g = self.state.lock();
                if g.poisoned {
                    drop(g);
                    panic!("{POISON_MSG}");
                }
                let slot = &mut g.tasks[task];
                if slot.run_token {
                    slot.run_token = false;
                    debug_assert_eq!(slot.state, TaskState::Running);
                    return;
                }
            }
            std::thread::park();
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
        {
            let mut g = self.state.lock();
            assert!(task < g.tasks.len(), "task {task} out of range");
            assert_eq!(
                g.tasks[task].state,
                TaskState::NotStarted,
                "task {task} registered twice"
            );
            g.tasks[task].carrier = Some(std::thread::current());
            g.tasks[task].state = TaskState::Runnable;
            g.runnable += 1;
            self.push_runnable(&mut g, task);
            g.registered += 1;
            if g.registered == g.tasks.len() {
                g.started = true;
                if g.running.is_none() {
                    self.dispatch(&mut g, None);
                }
            }
        }
        self.wait_for_token(task);
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
        {
            let mut g = self.state.lock();
            if g.poisoned {
                drop(g);
                panic!("{POISON_MSG}");
            }
            debug_assert_eq!(g.running, Some(task));
            let slot = &mut g.tasks[task];
            slot.clock_ns = slot.clock_ns.max(now_ns);
            slot.state = TaskState::Runnable;
            g.running = None;
            g.runnable += 1;
            self.push_runnable(&mut g, task);
            self.dispatch(&mut g, Some(task));
            if Self::kept_token(&mut g, task) {
                return;
            }
        }
        self.wait_for_token(task);
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
        {
            let mut g = self.state.lock();
            if g.poisoned {
                drop(g);
                panic!("{POISON_MSG}");
            }
            debug_assert_eq!(g.running, Some(task));
            self.yields[task].fetch_add(1, Ordering::Relaxed);
            let slot = &mut g.tasks[task];
            slot.clock_ns = slot.clock_ns.max(now_ns);
            if slot.pending_wake {
                // A wakeup raced the block (sent from a non-task thread while
                // this task was running): degrade to a plain yield.
                slot.pending_wake = false;
                slot.state = TaskState::Runnable;
                g.running = None;
                g.runnable += 1;
                self.push_runnable(&mut g, task);
            } else {
                slot.state = TaskState::Blocked(kind);
                g.running = None;
                if kind == Block::Internal {
                    g.blocked_internal += 1;
                }
            }
            self.dispatch(&mut g, Some(task));
            if Self::kept_token(&mut g, task) {
                return;
            }
        }
        self.wait_for_token(task);
    }

    /// Make a blocked task runnable again. Callable from any thread (a running
    /// task releasing a resource, or the controlling thread waking an
    /// externally-blocked task). A woken task below the horizon lowers it, so
    /// the running task parks at its next yield. Waking a running task records
    /// a pending wakeup consumed by its next `block_*`; waking a runnable or
    /// finished task is a no-op.
    pub fn unblock(&self, task: usize) {
        let mut g = self.state.lock();
        if g.poisoned || task >= g.tasks.len() {
            return;
        }
        match g.tasks[task].state {
            TaskState::Blocked(kind) => {
                g.tasks[task].state = TaskState::Runnable;
                g.runnable += 1;
                if kind == Block::Internal {
                    g.blocked_internal -= 1;
                }
                self.push_runnable(&mut g, task);
                if g.running.is_none() && g.started {
                    self.dispatch(&mut g, None);
                }
            }
            TaskState::Running => g.tasks[task].pending_wake = true,
            _ => {}
        }
    }

    /// Retire the calling task and hand the token onward. Safe to call after a
    /// caught panic (including a poison cascade) — it never panics itself.
    pub fn finish(&self, task: usize) {
        let mut g = self.state.lock();
        if task >= g.tasks.len() {
            return;
        }
        let prior = g.tasks[task].state;
        if prior == TaskState::Finished {
            return;
        }
        g.tasks[task].state = TaskState::Finished;
        g.tasks[task].run_token = false;
        g.finished += 1;
        match prior {
            TaskState::Running => g.running = None,
            TaskState::Runnable => g.runnable -= 1,
            TaskState::Blocked(Block::Internal) => g.blocked_internal -= 1,
            _ => {}
        }
        if !g.poisoned && g.running.is_none() && g.started {
            self.dispatch(&mut g, None);
        }
    }

    /// True while `task` is the currently-running task of a live executor —
    /// the gate cooperative sync primitives use to choose the executor path
    /// over their OS-thread (condvar) fallback.
    pub fn task_is_live(&self, task: usize) -> bool {
        let g = self.state.lock();
        task < g.tasks.len() && g.running == Some(task) && !g.poisoned
    }

    /// True once the executor has poisoned (deadlock or explicit abort).
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned
    }

    /// Poison the executor outright: every parked or future scheduling call
    /// panics with [`POISON_MSG`]. Used to abort cleanly when a carrier could
    /// not be spawned and registration would otherwise never complete.
    pub fn poison(&self) {
        let mut g = self.state.lock();
        g.poisoned = true;
        self.publish_horizon(&mut g);
        self.wake_everything(&mut g);
    }

    /// Earliest virtual clock over all unfinished tasks (0 if none) — the
    /// front of virtual time. A running task counts with the clock of its last
    /// yield that parked or blocked.
    pub fn time_front(&self) -> u64 {
        let g = self.state.lock();
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
    fn is_idle(g: &ExecState) -> bool {
        g.running.is_none() && (g.runnable == 0 || g.budget == 0 || !g.started)
    }

    /// Grant `steps` dispatches and block the calling (non-task) thread until
    /// the executor is idle again. Waits for all tasks to register first.
    /// Returns the number of unfinished tasks. Manual mode only (created via
    /// [`new_paused`](Self::new_paused)).
    pub fn tick(&self, steps: u64) -> usize {
        let mut g = self.state.lock();
        while !g.started {
            self.idle.wait(&mut g);
        }
        g.budget = g.budget.saturating_add(steps);
        if g.running.is_none() && g.started {
            self.dispatch(&mut g, None);
        }
        while !Self::is_idle(&g) {
            self.idle.wait(&mut g);
        }
        g.budget = 0;
        self.publish_horizon(&mut g);
        g.tasks.len() - g.finished
    }

    /// Run until no task is runnable (all blocked or finished), then pause
    /// again. Waits for all tasks to register first. Returns the number of
    /// unfinished tasks.
    pub fn run_until_idle(&self) -> usize {
        let mut g = self.state.lock();
        while !g.started {
            self.idle.wait(&mut g);
        }
        g.budget = u64::MAX;
        if g.running.is_none() && g.started {
            self.dispatch(&mut g, None);
        }
        while !(g.running.is_none() && g.runnable == 0) {
            self.idle.wait(&mut g);
        }
        g.budget = 0;
        self.publish_horizon(&mut g);
        g.tasks.len() - g.finished
    }

    /// Raise every unfinished task's virtual clock to at least `ns` (re-keying
    /// runnable tasks), compressing dead virtual time. The tasks' own clocks
    /// (e.g. a `ClockBoard`) must be raised by the caller; this adjusts only
    /// the scheduling view. Manual mode only: a running task's lock-free
    /// yields do not see a clock raised here.
    pub fn fast_forward_to(&self, ns: u64) {
        let mut g = self.state.lock();
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
    use std::sync::Arc;

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
