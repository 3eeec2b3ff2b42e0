//! # The campaign engine: deterministic simulation fan-out
//!
//! The paper's evaluation is embarrassingly parallel — 16 benchmarks × 4
//! modes for the figures, plus hundreds of independent single-fault
//! injection runs for the detection sweep. This module flattens every
//! unit of simulation work into a single job list executed by a
//! work-stealing worker pool: workers race on one atomic job index and
//! each claims the next unstarted job, so imbalanced job lengths (a
//! BlackJack run costs ~3× a Single run) self-level without any static
//! partitioning.
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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::metrics::{Metrics, MetricsRegistry};

/// A worker pool executing a flat list of independent jobs.
///
/// Construct with [`Campaign::from_env_or_exit`] (honours `BJ_THREADS`) or
/// [`Campaign::with_workers`]; run job lists with [`Campaign::run`], or
/// with [`Campaign::run_observed`] for timings, metrics and progress.
#[derive(Debug, Clone)]
pub struct Campaign {
    workers: usize,
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
    /// Propagates the first job panic after all workers have drained.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let jobs = jobs.into_iter().map(|j| move |_: &mut Metrics| j()).collect();
        self.run_observed(jobs, ObserveOpts::default()).results
    }

    /// The campaign engine: [`Campaign::run`]'s determinism contract
    /// plus, each opt-in:
    ///
    /// * **timings** — per-job scheduling records ([`CampaignTrace`]):
    ///   which worker ran each job, how long it waited in the queue (from
    ///   campaign start to the moment a worker *claims* it — with
    ///   work-stealing there is no per-job enqueue time), and how long it
    ///   ran. Only the timing values vary run to run.
    /// * **metrics** — a caller-owned [`MetricsRegistry`]. Each job
    ///   records into `&mut Metrics` (a worker-local handle, or
    ///   [`Metrics::Off`] without a registry), and when the job retires
    ///   its worker merges the job's counts into the registry. Jobs record
    ///   events, never config facts like the worker count, and the merge
    ///   algebra commutes, so the totals are byte-identical for any worker
    ///   count. Several fan-outs may share one registry.
    /// * **progress** — a wall-clock-cadence [`ProgressHook`] called from
    ///   whichever worker crosses the deadline at a job boundary, plus
    ///   one final call (with [`ProgressTick::done`]) when the last job
    ///   retires. Each tick carries a copy of the registry as it stands;
    ///   ticks are taken and emitted under the registry's lock, so their
    ///   counts never go backwards. Only timing fields of a tick vary run
    ///   to run.
    ///
    /// # Panics
    ///
    /// Propagates the first job panic after all workers have drained.
    pub fn run_observed<T, F>(&self, jobs: Vec<F>, opts: ObserveOpts) -> Observed<T>
    where
        T: Send,
        F: FnOnce(&mut Metrics) -> T + Send,
    {
        let n = jobs.len();
        let t0 = Instant::now();
        let done = AtomicUsize::new(0);
        let busy: Vec<AtomicU64> = (0..self.workers).map(|_| AtomicU64::new(0)).collect();
        // Next progress deadline, nanos since t0. Workers race on it with
        // CAS so each cadence interval emits exactly one tick.
        let deadline = AtomicU64::new(opts.progress.map_or(u64::MAX, |h| h.every_nanos()));
        let slots: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<(T, JobTiming)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // One progress tick of the campaign as it stands. The registry is
        // read and the tick emitted under the registry's lock — jobs merge
        // under it too — so successive ticks never show a count going
        // backwards.
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

        // One worker's claim–run–record loop. The shared index is the
        // work-stealing heart: a worker that finishes early immediately
        // claims the next unstarted job.
        let work = |worker: usize| {
            let mut metrics = Metrics::when(opts.metrics.is_some());
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let queue_wait = t0.elapsed();
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each job claimed exactly once");
                let jt0 = Instant::now();
                let out = job(&mut metrics);
                let run = jt0.elapsed();
                if let (Some(registry), Metrics::On(counts)) = (opts.metrics, &mut metrics) {
                    lock(registry).merge(counts);
                    **counts = MetricsRegistry::new();
                }
                busy[worker].fetch_add(run.as_nanos() as u64, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
                let timing = JobTiming { job: i, worker, queue_wait, run };
                *results[i].lock().expect("result slot poisoned") = Some((out, timing));
                if let Some(hook) = opts.progress {
                    let elapsed = t0.elapsed();
                    if hook.claim(elapsed, &deadline) {
                        tick(hook, elapsed, false);
                    }
                }
            }
        };
        let workers = self.workers.min(n);
        if workers <= 1 {
            // Inline on "worker 0": no thread overhead, and exact
            // sequential semantics for debugging.
            work(0);
        } else {
            let work = &work;
            thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
                for h in handles {
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
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

fn lock(registry: &Mutex<MetricsRegistry>) -> std::sync::MutexGuard<'_, MetricsRegistry> {
    registry.lock().expect("metrics registry poisoned")
}

/// What [`Campaign::run_observed`] should observe.
#[derive(Clone, Copy, Default)]
pub struct ObserveOpts<'a> {
    /// Collect per-job scheduling timings ([`Observed::trace`]).
    pub timings: bool,
    /// Merge every job's counts into this registry as the job retires.
    pub metrics: Option<&'a Mutex<MetricsRegistry>>,
    /// Emit live progress ticks on this hook's cadence.
    pub progress: Option<&'a ProgressHook<'a>>,
}

/// [`Campaign::run_observed`]'s bundle: results in job order, plus the
/// requested observations.
pub struct Observed<T> {
    /// Job results, in job order (same contract as [`Campaign::run`]).
    pub results: Vec<T>,
    /// Scheduling telemetry, when requested.
    pub trace: Option<CampaignTrace>,
}

/// A live-progress callback with a wall-clock cadence, for
/// [`Campaign::run_observed`]. The callback runs on whichever worker
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
    /// Cumulative job-execution time, one slot per configured worker.
    pub busy: Vec<Duration>,
    /// A copy of the campaign's registry as it stood at this tick, when
    /// the campaign has one ([`ObserveOpts::metrics`]).
    pub metrics: Option<MetricsRegistry>,
}

/// One job's scheduling record from [`Campaign::run_observed`] (with
/// [`ObserveOpts::timings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Job index in the submitted list.
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
}
