//! Parallel, deterministic Monte-Carlo trial runner.
//!
//! Every figure of the paper is the average of many independent seeded
//! simulations. [`TrialRunner`] fans those trials out across scoped
//! worker threads while keeping the output **bit-identical for any
//! thread count, including 1**:
//!
//! * each trial's seed is derived purely from `(base_seed, trial_index)`
//!   via [`stochastic_noc::seed::derive_trial_seed`] (SplitMix64), never
//!   from scheduling order;
//! * results are collected **in trial-index order**, so downstream
//!   aggregation sees the same sequence regardless of which worker
//!   finished first.
//!
//! The worker count defaults to the process-wide setting installed by
//! the `experiments` binary's `--threads` flag ([`set_default_threads`])
//! or, absent that, to [`std::thread::available_parallelism`].
//!
//! Each completed run deposits a [`RunnerReport`] (trials, worker count,
//! wall-clock) in a process-wide queue the binary drains via
//! [`take_reports`] to surface runner observability next to each table.
//!
//! # Examples
//!
//! ```
//! use noc_experiments::runner::TrialRunner;
//!
//! let squares: Vec<u64> = TrialRunner::new(42, 8)
//!     .threads(2)
//!     .run(|seed| seed.wrapping_mul(seed));
//! let serial: Vec<u64> = TrialRunner::new(42, 8)
//!     .threads(1)
//!     .run(|seed| seed.wrapping_mul(seed));
//! assert_eq!(squares, serial, "output is thread-count independent");
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use noc_obs::{Counter, Gauge, Histogram, Metrics, Stopwatch};
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::EngineObs;

/// Process-wide default worker count; 0 means "auto-detect".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide base seed every figure derives its sweep seed from.
static BASE_SEED: AtomicU64 = AtomicU64::new(0);

/// Completed-run observability records awaiting [`take_reports`].
static REPORTS: Mutex<Vec<RunnerReport>> = Mutex::new(Vec::new());

/// Ends the process with one line on stderr and exit status 1: an
/// output file the command line named, and `main` found creatable
/// before any figure ran, could not be written after all. A failure of
/// the run (a disk filled, a directory vanished), not a bug to unwind.
pub fn output_failed(flag: &str, path: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("{flag}: cannot write {path}: {err}");
    std::process::exit(1)
}

/// Process-wide wall-clock metrics registry (`--metrics-out PATH`);
/// `None` when the observability plane is off, which is the default.
static METRICS: Mutex<Option<Arc<Metrics>>> = Mutex::new(None);

/// Serialises tests (across this crate) that install the process-wide
/// metrics registry, so parallel test execution can't interleave
/// installs and reads.
#[cfg(test)]
pub(crate) static GLOBAL_STATE_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Whether `--progress` heartbeats are on.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Installs (or, with `None`, removes) the process-wide wall-clock
/// metrics registry. While installed, every [`TrialRunner::run`] records
/// per-trial wall time, queue wait, and throughput into it, and figures
/// wire [`engine_obs`] into their simulation builders so engine phases
/// are timed too. Nothing on the deterministic plane (tables, reports,
/// digests) can observe the registry — see DESIGN.md §13.
pub fn install_metrics(metrics: Option<Arc<Metrics>>) {
    *METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = metrics;
}

/// The installed wall-clock metrics registry, if any.
pub fn metrics() -> Option<Arc<Metrics>> {
    METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Engine-phase instruments bound to the installed registry, for
/// figures to pass to `SimulationBuilder::obs`. `None` when the
/// wall-clock plane is off, so the default path builds uninstrumented
/// engines.
pub fn engine_obs() -> Option<EngineObs> {
    metrics().map(|m| EngineObs::new(&m))
}

/// Turns `--progress` heartbeats on or off.
pub fn set_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed);
}

/// Whether `--progress` heartbeats are enabled.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Sets the process-wide default worker count (`--threads N`).
///
/// `0` restores auto-detection. Runs already in flight are unaffected.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The process-wide default worker count; `0` means auto-detect.
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed)
}

/// Sets the process-wide base seed (`--seed N`). Defaults to 0.
pub fn set_base_seed(seed: u64) {
    BASE_SEED.store(seed, Ordering::Relaxed);
}

/// The process-wide base seed figures derive their sweeps from.
pub fn base_seed() -> u64 {
    BASE_SEED.load(Ordering::Relaxed)
}

/// Drains and returns the observability reports accumulated since the
/// previous call, oldest first.
pub fn take_reports() -> Vec<RunnerReport> {
    std::mem::take(&mut REPORTS.lock().expect("runner report lock"))
}

/// Observability record of one completed [`TrialRunner::run`].
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// The experiment the run belonged to (empty when unlabeled).
    pub label: String,
    /// Trials completed.
    pub trials: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
}

impl RunnerReport {
    /// Mean wall-clock time per trial.
    pub fn per_trial(&self) -> Duration {
        if self.trials == 0 {
            Duration::ZERO
        } else {
            self.elapsed / u32::try_from(self.trials).unwrap_or(u32::MAX)
        }
    }
}

/// Wall-clock instruments for one sweep, present only while a metrics
/// registry is installed. All handles are lock-free atomics, so worker
/// threads record without coordination.
struct RunnerObs {
    trial_seconds: Histogram,
    queue_wait: Histogram,
    trials: Counter,
    trials_per_sec: Gauge,
}

impl RunnerObs {
    fn for_label(label: &str) -> Option<Self> {
        let metrics = metrics()?;
        let figure = if label.is_empty() { "unlabeled" } else { label };
        Some(RunnerObs {
            trial_seconds: metrics.histogram("runner_trial_seconds", &[("figure", figure)]),
            queue_wait: metrics.histogram("runner_queue_wait_seconds", &[("figure", figure)]),
            trials: metrics.counter("runner_trials_total", &[("figure", figure)]),
            trials_per_sec: metrics.gauge("runner_trials_per_sec", &[("figure", figure)]),
        })
    }

    /// Records one finished trial: its wall time and how long it sat in
    /// the queue before a worker picked it up.
    fn record_trial(&self, span: &Stopwatch, queue_wait_nanos: u64) {
        self.trial_seconds.observe(span);
        self.queue_wait.observe_nanos(queue_wait_nanos);
        self.trials.inc();
    }
}

/// Throttled `--progress` heartbeat emitter. Heartbeats are JSONL on
/// stderr — stdout stays reserved for the deterministic tables.
struct Heartbeat {
    enabled: bool,
    label: String,
    total: u64,
    /// `engine_rounds_total` when the sweep opened (0 with no registry).
    /// The counter is process-wide and also holds every earlier sweep's
    /// rounds.
    rounds_at_open: u64,
    /// Sweep-relative time of the last beat, for ~2 Hz throttling.
    last_beat_secs: Mutex<f64>,
}

/// Engine rounds counted so far in the installed registry; `None` when no
/// registry counts them.
fn engine_rounds() -> Option<u64> {
    metrics().and_then(|m| m.counter_value("engine_rounds_total"))
}

impl Heartbeat {
    const MIN_INTERVAL_SECS: f64 = 0.5;

    fn new(label: &str, total: u64) -> Self {
        Heartbeat {
            enabled: progress_enabled(),
            label: label.to_string(),
            total,
            rounds_at_open: engine_rounds().unwrap_or(0),
            last_beat_secs: Mutex::new(f64::NEG_INFINITY),
        }
    }

    /// Engine rounds per second since the sweep opened, `elapsed`
    /// seconds ago; `None` when no registry counts rounds.
    fn rounds_per_sec(&self, elapsed: f64) -> Option<f64> {
        let rounds = engine_rounds()?.saturating_sub(self.rounds_at_open);
        Some(if elapsed > 0.0 {
            rounds as f64 / elapsed
        } else {
            0.0
        })
    }

    /// Emits a heartbeat if enough time has passed since the previous
    /// one. The final trial always beats, so every sweep ends with a
    /// `trials_done == trials_total` line.
    fn beat(&self, completed: u64, sweep: &Stopwatch) {
        if !self.enabled {
            return;
        }
        let elapsed = sweep.elapsed_secs();
        {
            let mut last = self
                .last_beat_secs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if completed < self.total && elapsed - *last < Self::MIN_INTERVAL_SECS {
                return;
            }
            *last = elapsed;
        }
        let trials_per_sec = if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        };
        let eta_secs = if trials_per_sec > 0.0 {
            self.total.saturating_sub(completed) as f64 / trials_per_sec
        } else {
            0.0
        };
        eprintln!(
            "{}",
            self.line(completed, elapsed, trials_per_sec, eta_secs)
        );
    }

    /// One heartbeat's JSON object. `rounds_per_sec` is left out when no
    /// registry counts rounds, rather than printed as a rate of 0.
    fn line(&self, completed: u64, elapsed: f64, trials_per_sec: f64, eta_secs: f64) -> String {
        let rounds_per_sec = self.rounds_per_sec(elapsed).map_or(String::new(), |rate| {
            format!(",\"rounds_per_sec\":{:.1}", finite_or_zero(rate))
        });
        format!(
            "{{\"event\":\"progress\",\"figure\":\"{}\",\"trials_done\":{},\"trials_total\":{},\"elapsed_secs\":{:.3},\"trials_per_sec\":{:.2},\"eta_secs\":{:.1}{}}}",
            noc_obs::json_escape(&self.label),
            completed,
            self.total,
            finite_or_zero(elapsed),
            finite_or_zero(trials_per_sec),
            finite_or_zero(eta_secs),
            rounds_per_sec,
        )
    }
}

/// Clamps a rate/duration to 0.0 unless it is finite. Rust formats
/// non-finite floats as `inf`/`NaN`, which is **not JSON** — one
/// degenerate heartbeat (zero-duration sweep, clock anomaly) would
/// poison the whole `--progress` stream for downstream parsers. The CI
/// JSONL validator rejects non-finite values, so this clamp is what
/// keeps heartbeats machine-readable by construction.
fn finite_or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// A deterministic parallel Monte-Carlo sweep: a base seed, a trial
/// count, and (optionally) an explicit worker count.
#[derive(Debug, Clone)]
pub struct TrialRunner {
    base_seed: u64,
    trials: u64,
    threads: Option<usize>,
    label: String,
}

impl TrialRunner {
    /// A runner executing `trials` trials seeded from `base_seed`.
    pub fn new(base_seed: u64, trials: u64) -> Self {
        TrialRunner {
            base_seed,
            trials,
            threads: None,
            label: String::new(),
        }
    }

    /// A runner for the named figure: its sweep seed is derived from the
    /// process-wide [`base_seed`] and the label, so different figures
    /// never share trial seeds even under one `--seed` value.
    pub fn for_figure(label: &str, trials: u64) -> Self {
        let mut runner = TrialRunner::new(derive_labeled_seed(base_seed(), label), trials);
        runner.label = label.to_string();
        runner
    }

    /// Overrides the worker count for this run (`0` restores the
    /// process-wide default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Labels this run in its [`RunnerReport`].
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The seed trial `trial_index` will receive.
    pub fn trial_seed(&self, trial_index: u64) -> u64 {
        derive_trial_seed(self.base_seed, trial_index)
    }

    /// The worker count this run will use.
    pub fn effective_workers(&self) -> usize {
        let configured = self.threads.unwrap_or_else(|| {
            let process_default = default_threads();
            if process_default > 0 {
                process_default
            } else {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }
        });
        let trials = usize::try_from(self.trials).unwrap_or(usize::MAX);
        configured.clamp(1, trials.max(1))
    }

    /// Runs `f` once per trial with that trial's derived seed, fanning
    /// trials out across scoped threads, and returns the results **in
    /// trial-index order**.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        self.run_indexed(|_, seed| f(seed))
    }

    /// Like [`TrialRunner::run`], but also hands `f` the trial index —
    /// for figures that label rows per run.
    pub fn run_indexed<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let trials = usize::try_from(self.trials).expect("trial count fits usize");
        let workers = self.effective_workers();
        // Wall-clock plane only: the sweep stopwatch, per-trial spans and
        // heartbeats never influence trial seeds or table output, which
        // derive purely from the seed tree.
        let sweep = Stopwatch::start();
        let obs = RunnerObs::for_label(&self.label);
        let heartbeat = Heartbeat::new(&self.label, self.trials);
        let done = AtomicU64::new(0);
        let finish = |index_elapsed_nanos: u64, span: Stopwatch| {
            if let Some(obs) = &obs {
                obs.record_trial(&span, index_elapsed_nanos);
            }
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            heartbeat.beat(completed, &sweep);
        };

        let results: Vec<T> = if workers <= 1 || trials <= 1 {
            (0..trials)
                .map(|i| {
                    let queued = sweep.elapsed_nanos();
                    let span = Stopwatch::start();
                    let result = f(i, self.trial_seed(i as u64));
                    finish(queued, span);
                    result
                })
                .collect()
        } else {
            // Work-stealing by atomic counter: each worker claims the next
            // unstarted trial, computes it, and deposits the result into
            // its index's slot. Determinism needs no coordination beyond
            // the slot order, because seeds depend only on the index.
            let next = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..trials).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= trials {
                            break;
                        }
                        // Queue wait: how long the trial sat unclaimed
                        // after the sweep opened.
                        let queued = sweep.elapsed_nanos();
                        let span = Stopwatch::start();
                        let result = f(index, self.trial_seed(index as u64));
                        finish(queued, span);
                        slots.lock().expect("result slot lock")[index] = Some(result);
                    });
                }
            });
            slots
                .into_inner()
                .expect("result slot lock")
                .into_iter()
                .map(|slot| slot.expect("every trial deposits a result"))
                .collect()
        };

        let elapsed = sweep.elapsed();
        if let Some(obs) = &obs {
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                obs.trials_per_sec.set(self.trials as f64 / secs);
            }
        }
        REPORTS
            .lock()
            .expect("runner report lock")
            .push(RunnerReport {
                label: self.label.clone(),
                trials: self.trials,
                workers,
                elapsed,
            });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_trial_index_order() {
        let runner = TrialRunner::new(7, 32).threads(4);
        let expected: Vec<u64> = (0..32).map(|i| runner.trial_seed(i)).collect();
        let got = runner.run(|seed| seed);
        assert_eq!(got, expected);
    }

    #[test]
    fn output_is_identical_for_any_thread_count() {
        let baseline = TrialRunner::new(99, 17).threads(1).run(|seed| {
            // A cheap but seed-sensitive computation.
            (0..100u64).fold(seed, |acc, i| acc.rotate_left(7) ^ i)
        });
        for threads in [2, 3, 8] {
            let parallel = TrialRunner::new(99, 17)
                .threads(threads)
                .run(|seed| (0..100u64).fold(seed, |acc, i| acc.rotate_left(7) ^ i));
            assert_eq!(parallel, baseline, "threads={threads}");
        }
    }

    #[test]
    fn uneven_trial_loads_still_collect_in_order() {
        // Early trials take longest, so late trials finish first under
        // parallel execution; order must be restored by index.
        let runner = TrialRunner::new(1, 12).threads(4);
        let got = runner.run_indexed(|index, seed| {
            std::thread::sleep(Duration::from_millis(12u64.saturating_sub(index as u64)));
            (index, seed)
        });
        let indices: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_is_clamped_to_trials() {
        assert_eq!(TrialRunner::new(0, 2).threads(16).effective_workers(), 2);
        assert_eq!(TrialRunner::new(0, 0).threads(16).effective_workers(), 1);
        assert!(TrialRunner::new(0, 100).effective_workers() >= 1);
    }

    #[test]
    fn figure_runners_use_distinct_seed_streams() {
        let a = TrialRunner::for_figure("fig4-4", 4);
        let b = TrialRunner::for_figure("fig4-5", 4);
        assert_ne!(a.trial_seed(0), b.trial_seed(0));
        // Stable for a fixed global base seed.
        let a2 = TrialRunner::for_figure("fig4-4", 4);
        assert_eq!(a.trial_seed(0), a2.trial_seed(0));
    }

    #[test]
    fn merged_event_counters_are_thread_count_independent() {
        use noc_fabric::NodeId;
        use stochastic_noc::events::CounterSink;
        use stochastic_noc::{SimulationBuilder, StochasticConfig};

        // Per-trial CounterSinks merged in trial-index order must be
        // identical — per-tile, per-link, and in totals — whether the
        // trials ran on 1, 2 or 8 workers.
        let run_merged = |threads: usize| {
            let trials = TrialRunner::new(1234, 12).threads(threads).run(|seed| {
                let mut sim = SimulationBuilder::square_grid(4)
                    .config(StochasticConfig::new(0.5, 8).unwrap().with_max_rounds(20))
                    .fault_model(
                        noc_faults::FaultModel::builder()
                            .p_upset(0.1)
                            .sigma_synch(0.2)
                            .build()
                            .unwrap(),
                    )
                    .seed(seed)
                    .build_with_sink(CounterSink::new());
                sim.inject(NodeId(5), NodeId(11), vec![1, 2, 3]);
                let (report, counters) = sim.run_to_report_and_sink();
                counters.reconcile(&report).expect("trial reconciles");
                counters
            });
            trials
                .into_iter()
                .fold(CounterSink::new(), |mut acc, trial| {
                    acc.merge(&trial);
                    acc
                })
        };

        let serial = run_merged(1);
        assert!(serial.totals().frames_sent > 0, "trials did real work");
        for threads in [2, 8] {
            assert_eq!(run_merged(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn installed_metrics_record_trial_wall_time_and_throughput() {
        // Other tests in this binary share the process-wide registry
        // slot, so install our own, run, and restore promptly. The
        // unique label keeps the assertion independent of what else ran.
        let _guard = GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let registry = Arc::new(Metrics::new());
        install_metrics(Some(Arc::clone(&registry)));
        let baseline = TrialRunner::new(5, 9)
            .threads(3)
            .label("obs-probe")
            .run(|seed| seed.wrapping_mul(3));
        install_metrics(None);
        assert_eq!(baseline.len(), 9);

        let snap = registry.snapshot();
        let labels = vec![("figure".to_string(), "obs-probe".to_string())];
        let trial = snap
            .histograms
            .iter()
            .find(|h| h.name == "runner_trial_seconds" && h.labels == labels)
            .expect("trial histogram registered");
        assert_eq!(trial.count, 9, "one observation per trial");
        let wait = snap
            .histograms
            .iter()
            .find(|h| h.name == "runner_queue_wait_seconds" && h.labels == labels)
            .expect("queue-wait histogram registered");
        assert_eq!(wait.count, 9);
        let trials = snap
            .counters
            .iter()
            .find(|c| c.name == "runner_trials_total" && c.labels == labels)
            .expect("trial counter registered");
        assert_eq!(trials.value, 9);
        let tps = snap
            .gauges
            .iter()
            .find(|g| g.name == "runner_trials_per_sec" && g.labels == labels)
            .expect("throughput gauge registered");
        assert!(tps.value > 0.0, "sweep took nonzero time");

        // With no registry installed the runner records nothing new and
        // figures get no engine instruments. (Kept in this test rather
        // than its own so the process-wide registry slot has a single
        // owner under parallel test execution.)
        assert!(engine_obs().is_none());
        let before = registry.snapshot();
        let _ = TrialRunner::new(5, 4).label("obs-probe").run(|seed| seed);
        let after = registry.snapshot();
        assert_eq!(
            before.counters, after.counters,
            "uninstalled registry sees no new trials"
        );

        install_metrics(Some(Arc::clone(&registry)));
        assert!(engine_obs().is_some(), "instruments bind to the registry");
        install_metrics(None);
    }

    #[test]
    fn heartbeat_rate_counts_only_rounds_since_its_sweep_opened() {
        // The counter is process-wide: rounds counted before the sweep
        // opened belong to earlier sweeps and figures.
        let _guard = GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let registry = Arc::new(Metrics::new());
        install_metrics(Some(Arc::clone(&registry)));
        let rounds = registry.counter("engine_rounds_total", &[]);
        rounds.add(1_000_000);
        let heartbeat = Heartbeat::new("rate-probe", 1);
        rounds.add(30);
        let rate = heartbeat.rounds_per_sec(2.0);
        let line = heartbeat.line(1, 2.0, 0.5, 0.0);
        let at_zero = heartbeat.rounds_per_sec(0.0);
        install_metrics(None);
        assert_eq!(rate, Some(15.0));
        assert_eq!(at_zero, Some(0.0));
        assert!(line.ends_with(",\"rounds_per_sec\":15.0}"), "{line}");
    }

    /// With no registry nothing counts rounds, so a heartbeat carries no
    /// rate at all rather than a rate of 0.
    #[test]
    fn a_heartbeat_without_a_registry_leaves_the_round_rate_out() {
        let _guard = GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install_metrics(None);
        let heartbeat = Heartbeat::new("no-registry", 4);
        assert_eq!(heartbeat.rounds_per_sec(2.0), None);
        assert_eq!(
            heartbeat.line(2, 2.0, 1.0, 2.0),
            "{\"event\":\"progress\",\"figure\":\"no-registry\",\"trials_done\":2,\"trials_total\":4,\"elapsed_secs\":2.000,\"trials_per_sec\":1.00,\"eta_secs\":2.0}"
        );
    }

    #[test]
    fn per_trial_of_a_zero_trial_report_is_zero_not_a_panic() {
        // Regression: a sweep of zero trials (e.g. a filtered figure)
        // used to divide by zero in the observability summary.
        let report = RunnerReport {
            label: "empty".to_string(),
            trials: 0,
            workers: 4,
            elapsed: Duration::from_millis(17),
        };
        assert_eq!(report.per_trial(), Duration::ZERO);
        // Oversized trial counts saturate instead of overflowing.
        let huge = RunnerReport {
            trials: u64::MAX,
            ..report
        };
        assert!(huge.per_trial() <= Duration::from_millis(17));
    }

    #[test]
    fn zero_trial_sweeps_run_and_report_without_panicking() {
        let _ = take_reports();
        let results = TrialRunner::new(9, 0).label("zero").run(|seed| seed);
        assert!(results.is_empty());
        let report = take_reports()
            .into_iter()
            .find(|r| r.label == "zero")
            .expect("zero-trial sweep still reports");
        assert_eq!(report.trials, 0);
        assert_eq!(report.per_trial(), Duration::ZERO);
    }

    #[test]
    fn heartbeat_fields_are_clamped_to_finite_values() {
        assert_eq!(finite_or_zero(2.5), 2.5);
        assert_eq!(finite_or_zero(0.0), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
    }

    #[test]
    fn reports_record_trials_and_workers() {
        let _ = take_reports();
        let _ = TrialRunner::new(3, 6).threads(2).label("probe").run(|s| s);
        let reports = take_reports();
        let report = reports
            .iter()
            .find(|r| r.label == "probe")
            .expect("report recorded");
        assert_eq!(report.trials, 6);
        assert_eq!(report.workers, 2);
        assert!(report.per_trial() <= report.elapsed);
    }
}
