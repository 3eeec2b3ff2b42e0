//! # The campaign engine: deterministic simulation fan-out
//!
//! The paper's evaluation is embarrassingly parallel — 16 benchmarks × 4
//! modes for the figures, plus hundreds of independent single-fault
//! injection runs for the detection sweep. This module runs that work as
//! groups on a worker pool ([`Campaign::run_groups`]): each group is a
//! setup step, whose value the group's jobs share (a detection group's
//! fault-free reference pass and snapshot chain), plus the group's jobs;
//! a flat job list is one group with a unit setup. Workers claim one
//! job or setup at a time from one schedule, so imbalanced job lengths
//! (a BlackJack run costs ~3× a Single run) self-level without any
//! static partitioning. A worker builds a group only when no built group
//! has a job left, and a group's value drops with its last job, so at
//! most twice as many group values as workers are ever live, however
//! many groups the campaign has.
//!
//! **Determinism:** results are written into a slot per job and
//! reassembled in job order, so campaign output is bit-identical
//! regardless of worker count. The paper figures, the detection sweep,
//! and the ablations all produce the same tables at `BJ_THREADS=1` and
//! `BJ_THREADS=64`.
//!
//! Worker count defaults to the host's available parallelism and can be
//! overridden with the `BJ_THREADS` environment variable.
//!
//! ```
//! use blackjack::Campaign;
//!
//! let squares: Vec<u64> = Campaign::with_workers(4)
//!     .run((0..100u64).map(|i| move || i * i).collect());
//! assert_eq!(squares[7], 49);
//! ```

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use std::vec;

use crate::metrics::{Metrics, MetricsRegistry};

/// A worker pool executing grouped work: a flat list of independent
/// jobs, or groups of jobs that share a setup step's value.
///
/// Construct with [`Campaign::from_env_or_exit`] (honours `BJ_THREADS`) or
/// [`Campaign::with_workers`]; run job lists with [`Campaign::run`], or
/// with [`Campaign::run_observed`] for timings, metrics and progress, and
/// grouped work with [`Campaign::run_groups`].
#[derive(Debug, Clone)]
pub struct Campaign {
    workers: usize,
}

/// One group of [`Campaign::run_groups`]'s work: a setup step, whose
/// value every one of the group's jobs borrows, and the jobs.
pub struct Group<S, J> {
    /// Builds the value the group's jobs share. It runs once, before any
    /// of the group's jobs, and its value drops once they have all run.
    pub setup: S,
    /// The group's jobs, in job order.
    pub jobs: Vec<J>,
}

impl Campaign {
    /// A campaign sized from the environment: `BJ_THREADS` if set,
    /// otherwise the host's available parallelism. A malformed
    /// `BJ_THREADS` (`0`, `eight`) exits with status 2 — an explicit but
    /// broken override should stop the harness, not silently fall back
    /// to a default worker count.
    pub fn from_env_or_exit() -> Campaign {
        let workers = match crate::envcfg::THREADS.positive() {
            Some(n) => n as usize,
            None => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        };
        Campaign { workers }
    }

    /// A campaign with an explicit worker count (tests use this to avoid
    /// racing on the process environment).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> Campaign {
        assert!(workers > 0, "a campaign needs at least one worker");
        Campaign { workers }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes every job and returns the results **in job order**,
    /// regardless of which worker ran which job or in what order they
    /// finished: [`Campaign::run_observed`] with every observation off.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic once every worker has stopped.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let jobs = jobs.into_iter().map(|j| move |_: &mut Metrics| j()).collect();
        self.run_observed(jobs, ObserveOpts::default()).results
    }

    /// [`Campaign::run_groups`] on one group with a unit setup: a flat job
    /// list, with the observations `opts` asks for.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic once every worker has stopped.
    pub fn run_observed<T, F>(&self, jobs: Vec<F>, opts: ObserveOpts) -> Observed<T>
    where
        T: Send,
        F: FnOnce(&mut Metrics) -> T + Send,
    {
        let jobs = jobs.into_iter().map(|j| move |_: &(), m: &mut Metrics| j(m)).collect();
        self.run_groups(vec![Group { setup: |_: &mut Metrics| (), jobs }], opts)
    }

    /// The campaign engine. Runs every group's setup and jobs, and
    /// returns the job results **in job order** — the groups in order,
    /// each group's jobs in order — whichever worker ran which job.
    ///
    /// **Schedule.** Each worker claims, under one lock, the first of:
    ///
    /// 1. the next unclaimed job of the oldest built group that has one;
    /// 2. the setup of the next unbuilt group, in group order;
    /// 3. nothing, if no group is left unbuilt: it waits until another
    ///    worker's build finishes, or stops when none is building.
    ///
    /// Every job holds a handle on its group's value, and the schedule
    /// hands its own to the group's last job, so the value drops when the
    /// last of the group's jobs retires. On one worker the order is
    /// depth-first: build a group, run its jobs, drop its value, build
    /// the next.
    ///
    /// **Bound.** At most `2 × workers` group values are live at once,
    /// counting each from its setup's claim to its drop. A live group is
    /// being built, open (built, with a job unclaimed), or draining
    /// (every job claimed, one still running). A worker builds or runs
    /// one thing at a time, and drops a job's handle before it claims
    /// again, so at most `workers` groups are being built or draining.
    /// At most `workers` are open: of the groups open now, take the one
    /// whose setup was claimed last, at time `s`. No group was open at
    /// `s` (rule 1 comes first), and an open group stays open until its
    /// last job is claimed, so every other group open now opened after
    /// `s`, yet its setup was claimed before `s`: all their builds were
    /// running at `s`, on a worker each.
    ///
    /// **Observation**, each opt-in through `opts`:
    ///
    /// * **timings** — per-job scheduling records ([`CampaignTrace`]):
    ///   which worker ran each job, how long it waited in the queue (from
    ///   campaign start to the moment a worker *claims* it — with
    ///   work-stealing there is no per-job enqueue time), and how long it
    ///   ran. Setups are not jobs and get no record. Only the timing
    ///   values vary run to run.
    /// * **metrics** — a caller-owned [`MetricsRegistry`]. Each setup and
    ///   job records into `&mut Metrics` (a worker-local handle, or
    ///   [`Metrics::Off`] without a registry), and when it retires its
    ///   worker merges its counts into the registry. Setups and jobs
    ///   record events, never config facts like the worker count, and the
    ///   merge algebra commutes, so the totals are byte-identical for any
    ///   worker count. Several campaigns may share one registry.
    /// * **progress** — a wall-clock-cadence [`ProgressHook`] called from
    ///   whichever worker crosses the deadline as a setup or job retires,
    ///   plus one final call (with [`ProgressTick::done`]) when the
    ///   campaign ends. Each tick carries a copy of the registry as it
    ///   stands; ticks are taken and emitted under the registry's lock,
    ///   so their counts never go backwards. Only timing fields of a tick
    ///   vary run to run.
    ///
    /// # Panics
    ///
    /// A panicking setup or job stops every worker from claiming more
    /// work (a waiting worker wakes up and stops); the first panic is
    /// re-raised once every worker has stopped.
    pub fn run_groups<V, T, S, J>(&self, groups: Vec<Group<S, J>>, opts: ObserveOpts) -> Observed<T>
    where
        V: Send + Sync,
        T: Send,
        S: FnOnce(&mut Metrics) -> V + Send,
        J: FnOnce(&V, &mut Metrics) -> T + Send,
    {
        let n_groups = groups.len();
        let mut n = 0;
        let unbuilt: Vec<(usize, Group<S, J>)> = groups
            .into_iter()
            .map(|g| {
                let first = n;
                n += g.jobs.len();
                (first, g)
            })
            .collect();
        let schedule = Schedule {
            state: Mutex::new(State {
                unbuilt: unbuilt.into_iter(),
                open: VecDeque::new(),
                building: 0,
                failed: false,
            }),
            built: Condvar::new(),
        };
        let t0 = Instant::now();
        let done = AtomicUsize::new(0);
        let busy: Vec<AtomicU64> = (0..self.workers).map(|_| AtomicU64::new(0)).collect();
        // Next progress deadline, nanos since t0. Workers race on it with
        // CAS so each cadence interval emits exactly one tick.
        let deadline = AtomicU64::new(opts.progress.map_or(u64::MAX, |h| h.every_nanos()));
        let results: Vec<Mutex<Option<(T, JobTiming)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // One progress tick of the campaign as it stands. The registry is
        // read and the tick emitted under the registry's lock — setups
        // and jobs merge under it too — so successive ticks never show a
        // count going backwards.
        let tick = |hook: &ProgressHook, elapsed: Duration, finished: bool| {
            let registry = opts.metrics.map(lock);
            let jobs_done = done.load(Ordering::Relaxed);
            let eta = if finished {
                Some(Duration::ZERO)
            } else {
                (jobs_done > 0).then(|| {
                    let nanos = elapsed.as_nanos() * (n - jobs_done) as u128 / jobs_done as u128;
                    Duration::from_nanos(nanos as u64)
                })
            };
            hook.emit(&ProgressTick {
                jobs_done,
                jobs_total: n,
                workers: self.workers,
                done: finished,
                elapsed,
                eta,
                busy: busy.iter().map(|b| Duration::from_nanos(b.load(Ordering::Relaxed))).collect(),
                metrics: registry.as_deref().cloned(),
            });
        };

        // One worker's claim–run–record loop.
        let work = |worker: usize| {
            let mut metrics = Metrics::when(opts.metrics.is_some());
            // A setup or job retired after `ran`: merge its counts, bill
            // the worker, and tick if the cadence deadline has passed.
            let retire = |metrics: &mut Metrics, ran: Duration| {
                if let (Some(registry), Metrics::On(counts)) = (opts.metrics, metrics) {
                    lock(registry).merge(counts);
                    **counts = MetricsRegistry::new();
                }
                busy[worker].fetch_add(ran.as_nanos() as u64, Ordering::Relaxed);
                if let Some(hook) = opts.progress {
                    let elapsed = t0.elapsed();
                    if hook.claim(elapsed, &deadline) {
                        tick(hook, elapsed, false);
                    }
                }
            };
            loop {
                match schedule.claim() {
                    Claim::Job { index, job, shared } => {
                        let queue_wait = t0.elapsed();
                        let jt0 = Instant::now();
                        let out = job(&shared, &mut metrics);
                        let run = jt0.elapsed();
                        // Before the next claim: the group's last job
                        // drops the group's value here.
                        drop(shared);
                        done.fetch_add(1, Ordering::Relaxed);
                        let timing = JobTiming { job: index, worker, queue_wait, run };
                        *results[index].lock().expect("result slot poisoned") = Some((out, timing));
                        retire(&mut metrics, run);
                    }
                    Claim::Setup { first, group } => {
                        let st0 = Instant::now();
                        let value = (group.setup)(&mut metrics);
                        let ran = st0.elapsed();
                        schedule.open(first, value, group.jobs);
                        retire(&mut metrics, ran);
                    }
                    Claim::Done => break,
                }
            }
        };
        // A worker that panics stops the others before re-raising, so
        // none waits on a build that will never finish.
        let guarded = |worker: usize| {
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| work(worker))) {
                schedule.fail();
                panic::resume_unwind(p);
            }
        };
        let workers = self.workers.min(n.max(n_groups));
        if workers <= 1 {
            // Inline on "worker 0": no thread overhead, and exact
            // sequential semantics for debugging.
            guarded(0);
        } else {
            let guarded = &guarded;
            thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || guarded(w))).collect();
                for h in handles {
                    h.join().unwrap_or_else(|p| panic::resume_unwind(p));
                }
            });
        }

        let wall = t0.elapsed();
        if let Some(hook) = opts.progress {
            tick(hook, wall, true);
        }
        let (results, timings): (Vec<T>, Vec<JobTiming>) = results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index below n was executed")
            })
            .unzip();
        Observed {
            results,
            trace: opts.timings.then_some(CampaignTrace { workers: self.workers, wall, timings }),
        }
    }
}

fn lock(registry: &Mutex<MetricsRegistry>) -> MutexGuard<'_, MetricsRegistry> {
    registry.lock().expect("metrics registry poisoned")
}

/// [`Campaign::run_groups`]'s claim state, behind one lock.
struct Schedule<S, J, V> {
    state: Mutex<State<S, J, V>>,
    /// Signalled when a group's build finishes or a worker panics.
    built: Condvar,
}

struct State<S, J, V> {
    /// Groups whose setup no worker has claimed yet, in group order, each
    /// with its first job's index.
    unbuilt: vec::IntoIter<(usize, Group<S, J>)>,
    /// Built groups with an unclaimed job, oldest first.
    open: VecDeque<Open<J, V>>,
    /// Setups claimed and still running.
    building: usize,
    /// A worker panicked: nothing more is claimed.
    failed: bool,
}

/// A built group with an unclaimed job.
struct Open<J, V> {
    /// The schedule's handle on the group's value.
    shared: Arc<V>,
    /// The next unclaimed job's index in the campaign's job list.
    next: usize,
    /// The unclaimed jobs; never empty.
    jobs: vec::IntoIter<J>,
}

enum Claim<S, J, V> {
    Job { index: usize, job: J, shared: Arc<V> },
    Setup { first: usize, group: Group<S, J> },
    Done,
}

impl<S, J, V> Schedule<S, J, V> {
    fn state(&self) -> MutexGuard<'_, State<S, J, V>> {
        self.state.lock().expect("campaign schedule poisoned")
    }

    /// The next unit of work by [`Campaign::run_groups`]'s rule, waiting
    /// while only other workers' builds are left.
    fn claim(&self) -> Claim<S, J, V> {
        let mut st = self.state();
        loop {
            if st.failed {
                return Claim::Done;
            }
            if let Some(open) = st.open.front_mut() {
                let index = open.next;
                open.next += 1;
                let job = open.jobs.next().expect("an open group has an unclaimed job");
                let shared = if open.jobs.as_slice().is_empty() {
                    st.open.pop_front().expect("the group is open").shared
                } else {
                    Arc::clone(&open.shared)
                };
                return Claim::Job { index, job, shared };
            }
            if let Some((first, group)) = st.unbuilt.next() {
                st.building += 1;
                return Claim::Setup { first, group };
            }
            if st.building == 0 {
                return Claim::Done;
            }
            st = self.built.wait(st).expect("campaign schedule poisoned");
        }
    }

    /// Opens a built group whose jobs start at index `first`. A group
    /// without jobs drops its value at once.
    fn open(&self, first: usize, value: V, jobs: Vec<J>) {
        let open = if jobs.is_empty() {
            drop(value);
            None
        } else {
            Some(Open { shared: Arc::new(value), next: first, jobs: jobs.into_iter() })
        };
        let mut st = self.state();
        st.building -= 1;
        st.open.extend(open);
        drop(st);
        self.built.notify_all();
    }

    /// Stops every worker from claiming more work. Called while a panic
    /// unwinds, so a poisoned lock is taken as it stands: the flag is
    /// all it sets.
    fn fail(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).failed = true;
        self.built.notify_all();
    }
}

/// What [`Campaign::run_groups`] should observe.
#[derive(Clone, Copy, Default)]
pub struct ObserveOpts<'a> {
    /// Collect per-job scheduling timings ([`Observed::trace`]).
    pub timings: bool,
    /// Merge every setup's and job's counts into this registry as it
    /// retires.
    pub metrics: Option<&'a Mutex<MetricsRegistry>>,
    /// Emit live progress ticks on this hook's cadence.
    pub progress: Option<&'a ProgressHook<'a>>,
}

/// [`Campaign::run_groups`]'s bundle: results in job order, plus the
/// requested observations.
pub struct Observed<T> {
    /// Job results, in job order (same contract as [`Campaign::run`]).
    pub results: Vec<T>,
    /// Scheduling telemetry, when requested.
    pub trace: Option<CampaignTrace>,
}

/// A live-progress callback with a wall-clock cadence, for
/// [`Campaign::run_groups`]. The callback runs on whichever worker
/// crosses the deadline, so it must be cheap and `Sync` (a harness
/// writing ticks with
/// [`TraceWriter::emit_progress`](crate::telemetry::TraceWriter::emit_progress)
/// serializes through a lock on its writer).
pub struct ProgressHook<'a> {
    every: Duration,
    emit: &'a (dyn Fn(&ProgressTick) + Sync),
}

impl<'a> ProgressHook<'a> {
    /// A hook emitting via `emit` every `every` of wall-clock (plus one
    /// final tick at campaign end).
    pub fn new(every: Duration, emit: &'a (dyn Fn(&ProgressTick) + Sync)) -> ProgressHook<'a> {
        ProgressHook { every, emit }
    }

    fn every_nanos(&self) -> u64 {
        u64::try_from(self.every.as_nanos()).unwrap_or(u64::MAX)
    }

    fn emit(&self, tick: &ProgressTick) {
        (self.emit)(tick);
    }

    /// True when the cadence deadline has passed at `elapsed` and this
    /// caller moved it on: the CAS guarantees one tick per interval.
    fn claim(&self, elapsed: Duration, deadline: &AtomicU64) -> bool {
        let now = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let d = deadline.load(Ordering::Acquire);
        now >= d
            && deadline
                .compare_exchange(
                    d,
                    now.saturating_add(self.every_nanos()),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
    }
}

/// One live-progress observation from the campaign engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressTick {
    /// Jobs retired so far.
    pub jobs_done: usize,
    /// Jobs submitted.
    pub jobs_total: usize,
    /// Campaign worker count.
    pub workers: usize,
    /// True for the single end-of-campaign tick (always emitted).
    pub done: bool,
    /// Wall-clock since campaign start.
    pub elapsed: Duration,
    /// Naive remaining-time estimate — `elapsed × remaining / done` —
    /// `None` before the first job retires.
    pub eta: Option<Duration>,
    /// Cumulative time running jobs and group setups, one slot per
    /// configured worker.
    pub busy: Vec<Duration>,
    /// A copy of the campaign's registry as it stood at this tick, when
    /// the campaign has one ([`ObserveOpts::metrics`]).
    pub metrics: Option<MetricsRegistry>,
}

/// One job's scheduling record from [`Campaign::run_groups`] (with
/// [`ObserveOpts::timings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Job index in the campaign's job list: every group's jobs, in
    /// group order.
    pub job: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Campaign start → claim: the queueing latency this job saw.
    pub queue_wait: Duration,
    /// Claim → completion: the job's own execution time.
    pub run: Duration,
}

/// Per-job scheduling telemetry for one campaign, in job order.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// Workers the campaign was configured with.
    pub workers: usize,
    /// Campaign wall-clock.
    pub wall: Duration,
    /// One record per job, indexed like the submitted job list.
    pub timings: Vec<JobTiming>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order_any_worker_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 8, 32] {
            let jobs: Vec<_> = (0..97).map(|i| move || i * 3 + 1).collect();
            let got = Campaign::with_workers(workers).run(jobs);
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        let c = Campaign::with_workers(4);
        let none: Vec<u32> = c.run(Vec::<fn() -> u32>::new());
        assert!(none.is_empty());
        assert_eq!(c.run(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn uneven_job_lengths_self_level() {
        // Long jobs first: a static split would serialize them on one
        // worker; the shared index lets idle workers steal the rest.
        let jobs: Vec<_> = (0..40u64)
            .map(|i| {
                move || {
                    let spins = if i < 4 { 200_000 } else { 1_000 };
                    let mut acc = i;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    (i, acc)
                }
            })
            .collect();
        let got = Campaign::with_workers(8).run(jobs);
        assert_eq!(got.len(), 40);
        for (slot, (i, _)) in got.iter().enumerate() {
            assert_eq!(slot as u64, *i, "result landed in the wrong slot");
        }
    }

    #[test]
    fn workers_from_env_shape() {
        let c = Campaign::with_workers(3);
        assert_eq!(c.workers(), 3);
        // BJ_THREADS is either unset or set to something valid when the
        // suite runs; either way a campaign must materialize.
        assert!(Campaign::from_env_or_exit().workers() >= 1);
    }

    /// `run_observed` with only per-job timings on.
    fn timed<T: Send>(
        workers: usize,
        jobs: Vec<impl FnOnce() -> T + Send>,
    ) -> (Vec<T>, CampaignTrace) {
        let jobs = jobs.into_iter().map(|j| move |_: &mut Metrics| j()).collect();
        let obs = Campaign::with_workers(workers)
            .run_observed(jobs, ObserveOpts { timings: true, ..ObserveOpts::default() });
        (obs.results, obs.trace.expect("timings were requested"))
    }

    #[test]
    fn run_observed_timings_match_run_and_account_every_job() {
        for workers in [1, 4] {
            let (got, trace) = timed(workers, (0..23u64).map(|i| move || i * i).collect());
            let expect: Vec<u64> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, expect, "{workers} workers");
            assert_eq!(trace.workers, workers);
            assert_eq!(trace.timings.len(), 23);
            for (i, t) in trace.timings.iter().enumerate() {
                assert_eq!(t.job, i, "timings come back in job order");
                assert!(t.worker < workers);
                assert!(t.queue_wait <= trace.wall);
            }
            // Every worker's busy time fits inside the campaign wall.
            let mut busy = vec![Duration::ZERO; workers];
            for t in &trace.timings {
                busy[t.worker] += t.run;
            }
            assert!(busy.iter().all(|b| *b <= trace.wall + Duration::from_millis(5)));
        }
    }

    #[test]
    fn run_observed_timings_on_an_empty_job_list() {
        let (out, trace) = timed(2, Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
        assert!(trace.timings.is_empty());
        assert_eq!(trace.workers, 2);
    }

    /// Runs one group per entry of `sizes`: the setup's value is the
    /// group index, and job `k` of group `g` returns `(g, k)`.
    fn run_sized(workers: usize, sizes: &[usize], opts: ObserveOpts) -> Observed<(usize, usize)> {
        let groups: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(g, &size)| Group {
                setup: move |_: &mut Metrics| g,
                jobs: (0..size).map(|k| move |&v: &usize, _: &mut Metrics| (v, k)).collect(),
            })
            .collect();
        Campaign::with_workers(workers).run_groups(groups, opts)
    }

    #[test]
    fn grouped_results_in_job_order_any_worker_count() {
        let sizes = [3, 0, 17, 1, 40, 5, 0, 9];
        let expect: Vec<(usize, usize)> =
            sizes.iter().enumerate().flat_map(|(g, &n)| (0..n).map(move |k| (g, k))).collect();
        for workers in [1, 2, 8, 32] {
            let timed = ObserveOpts { timings: true, ..ObserveOpts::default() };
            let obs = run_sized(workers, &sizes, timed);
            assert_eq!(obs.results, expect, "{workers} workers");
            let trace = obs.trace.expect("timings were requested");
            assert_eq!(trace.timings.len(), expect.len(), "{workers} workers: one record per job");
            assert!(trace.timings.iter().enumerate().all(|(i, t)| t.job == i));
            let none = run_sized(workers, &[], ObserveOpts::default());
            assert!(none.results.is_empty(), "{workers} workers: an empty group list");
        }
    }

    /// A group value that counts itself live from its setup to its drop.
    struct Live<'a> {
        live: &'a AtomicUsize,
        group: usize,
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn live_group_values_stay_within_twice_the_workers() {
        // Uneven groups of uneven jobs, so builds and drains interleave.
        let sizes: Vec<usize> = (0..40).map(|g| [1, 6, 0, 13, 3][g % 5]).collect();
        let spin = |rounds: usize| {
            let mut acc = 0u64;
            for k in 0..rounds as u64 * 2_000 {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
            }
            acc
        };
        for workers in [1, 2, 3, 8] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let groups: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(g, &size)| {
                    let (live, peak) = (&live, &peak);
                    Group {
                        setup: move |_: &mut Metrics| {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            spin(g % 7);
                            Live { live, group: g }
                        },
                        jobs: (0..size)
                            .map(|k| {
                                move |v: &Live<'_>, _: &mut Metrics| {
                                    spin((v.group + k) % 5);
                                    (v.group, k)
                                }
                            })
                            .collect(),
                    }
                })
                .collect();
            let got = Campaign::with_workers(workers).run_groups(groups, ObserveOpts::default());
            let expect: Vec<(usize, usize)> =
                sizes.iter().enumerate().flat_map(|(g, &n)| (0..n).map(move |k| (g, k))).collect();
            assert_eq!(got.results, expect, "{workers} workers");
            assert_eq!(live.load(Ordering::SeqCst), 0, "{workers} workers: every value dropped");
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= 2 * workers, "{workers} workers: {peak} group values live at once");
            if workers == 1 {
                assert_eq!(peak, 1, "one worker runs depth-first");
            }
        }
    }

    /// The panic message `run` re-raised.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(p) => *p.downcast::<String>().expect("a string panic payload"),
        }
    }

    #[test]
    fn a_panicking_setup_or_job_re_raises_and_leaves_no_worker_waiting() {
        for workers in [2, 8] {
            // A job panic, through the flat `run`.
            let jobs: Vec<_> = (0..50)
                .map(|i| {
                    move || {
                        assert!(i != 17, "job 17 failed");
                        i
                    }
                })
                .collect();
            let err = panic::catch_unwind(|| Campaign::with_workers(workers).run(jobs))
                .expect_err("the job panic re-raises");
            assert_eq!(message(err), "job 17 failed", "{workers} workers");

            // A setup panic while every other worker waits on its build:
            // group 0's setup, claimed first, fails only once the other
            // groups' single jobs have all run, after which nothing is
            // left to claim but that build.
            let (ran, finished) = std::sync::mpsc::channel::<()>();
            let finished = Mutex::new(finished);
            let others = workers - 1;
            let groups: Vec<_> = (0..workers)
                .map(|g| {
                    let (ran, finished) = (ran.clone(), &finished);
                    Group {
                        setup: move |_: &mut Metrics| {
                            if g == 0 {
                                let finished = finished.lock().expect("one receiver");
                                for _ in 0..others {
                                    finished.recv().expect("every other job reports");
                                }
                                panic!("setup 0 failed");
                            }
                        },
                        jobs: vec![move |_: &(), _: &mut Metrics| {
                            ran.send(()).expect("the setup listens");
                        }],
                    }
                })
                .collect();
            drop(ran);
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                Campaign::with_workers(workers).run_groups(groups, ObserveOpts::default()).results
            }))
            .expect_err("the setup panic re-raises");
            assert_eq!(message(err), "setup 0 failed", "{workers} workers");
        }
    }
}
