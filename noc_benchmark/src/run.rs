//! One benchmark run: set-up, the timed window, the correctness checks
//! and the two JSON lines a run prints.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A
//! traced run (`--trace 1`) alternates untraced and traced iterations,
//! runs the layer microbenches, writes `trace-<workload>.json` and
//! reports the per-layer metrics; end-to-end metrics never come from it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use noc_experiments::{fig4_5, runner, Scale as FigureScale};
use noc_obs::{HistogramSample, Metrics, MetricsSnapshot, Stopwatch};
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::{spread, EngineObs};

use crate::json;
use crate::layers;
use crate::metrics::{median, Values, END_TO_END, PER_LAYER};
use crate::probe::{calibrate, Probe};
use crate::trace::Tracer;
use crate::workloads::{iterate, oracle_mismatches, Inputs, Outcome, Scale, Workload, FIGURES};

/// Set-up runs this many times in a run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// Length of the measurement window in seconds; at least one
    /// iteration always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Measured sizes or smoke sizes.
    pub scale: Scale,
    /// Directory `trace-<workload>.json` is written to.
    pub out_dir: PathBuf,
}

/// The two lines a run prints on its standard output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Everything beside the contract: workload, seed, `sim_digest`,
    /// sample counts, min/median/max of each timing, failed checks.
    pub detail: String,
    /// The last line: `{"correct", "attempted", "failed", "metrics"}`.
    pub result: String,
}

/// Operations attempted and failed. An operation is a timed iteration
/// or one of the run's cross-checks.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Records one iteration: it must not have failed inside and must
    /// reproduce the reference digest.
    fn iteration(&mut self, kind: &str, outcome: &Outcome, reference: u64) {
        self.record(
            outcome.failures.is_empty() && outcome.digest == reference,
            || {
                format!(
                    "{kind} iteration: digest {:016x} vs {reference:016x}, failures {:?}",
                    outcome.digest, outcome.failures
                )
            },
        );
    }
}

/// The outcome of the repeated set-up.
struct SetUp {
    inputs: Inputs,
    /// Digest of the warm-up iteration every later one must reproduce.
    digest: u64,
    /// Calibrated seconds of each repeat.
    seconds: Vec<f64>,
    oracle_mismatches: u64,
}

/// Set-up, [`SETUP_REPEATS`] times over: input generation, the oracle
/// check and one untimed warm-up iteration, each repeat calibrated by
/// the probe around it.
fn set_up(options: &Options, probe: &mut Probe, checks: &mut Checks) -> SetUp {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    let mut before = probe.sample();
    for _ in 0..SETUP_REPEATS {
        let clock = Stopwatch::start();
        let inputs = options.workload.inputs(options.seed, options.scale);
        let mismatches = oracle_mismatches(&inputs);
        let warm_up = iterate(&inputs, &mut Tracer::off(), None);
        let measured = clock.elapsed_secs();
        let after = probe.sample();
        seconds.push(calibrate(measured, before, after));
        before = after;
        last = Some((inputs, mismatches, warm_up));
    }
    let (inputs, mismatches, warm_up) = last.expect("at least one set-up");
    checks.record(mismatches == 0, || {
        format!("oracle: {mismatches} run(s) disagree with ReferenceSimulation")
    });
    checks.iteration("warm-up", &warm_up, warm_up.digest);
    SetUp {
        inputs,
        digest: warm_up.digest,
        seconds,
        oracle_mismatches: mismatches,
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`; `None` off
/// Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next reading is
/// the peak of what ran in between. Best effort: where the kernel does
/// not offer it the peak stays the whole process's, which is still a
/// true (if coarser) reading.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The cross-checks that need a second, differently configured run of
/// the same inputs. Returns that run's outcome where there is one.
fn cross_check(set_up: &SetUp, checks: &mut Checks) -> Option<Outcome> {
    let (what, plain) = match &set_up.inputs {
        // Sharding must not change a single observable.
        Inputs::Flood(flood) if flood.shards > 1 => {
            ("shards=1 digest", Inputs::Flood(flood.with_shards(1)))
        }
        // A run interrupted by checkpoint cycles ends where the
        // uninterrupted run of the same inputs ends.
        Inputs::Checkpoint(ck) => ("uninterrupted digest", Inputs::Flood(ck.flood.clone())),
        _ => return None,
    };
    let outcome = iterate(&plain, &mut Tracer::off(), None);
    checks.record(outcome.digest == set_up.digest, || {
        format!("{what} {:016x} vs {:016x}", outcome.digest, set_up.digest)
    });
    Some(outcome)
}

/// Runs the benchmark once as `options` describe.
///
/// # Errors
///
/// Returns a message when the trace file cannot be written.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut checks = Checks::default();
    let mut probe = Probe::new();
    let set_up = set_up(options, &mut probe, &mut checks);
    let mut values = Values::new();
    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"scale\":\"{}\",\"event\":\"{}\",\"nproc\":{}",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        if options.scale == Scale::Smoke { "smoke" } else { "full" },
        options.workload.event(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let samples = if options.trace {
        traced(options, &set_up, &mut checks, &mut values, &mut detail)?
    } else {
        untraced(
            options,
            &set_up,
            &mut probe,
            &mut checks,
            &mut values,
            &mut detail,
        )
    };

    let last = samples.last().expect("at least one iteration");
    let _ = write!(
        detail,
        ",\"sim_digest\":\"{:016x}\",\"samples\":{},\"events_per_iteration\":{},\"frames\":{},\"rounds\":{}",
        set_up.digest,
        samples.len(),
        last.events,
        last.frames,
        last.rounds,
    );
    // The detail line keeps the timings as measured; the calibrated
    // medians are in the result line.
    summary(
        &mut detail,
        "raw_wall_s",
        samples.iter().map(|o| o.wall_ns as f64 * 1e-9),
    );
    summary(
        &mut detail,
        "raw_ns_per_event",
        samples.iter().map(ns_per_event),
    );
    summary(&mut detail, "setup_s", set_up.seconds.iter().copied());
    detail.push_str(",\"failures\":[");
    for (i, note) in checks.notes.iter().enumerate() {
        let _ = write!(
            detail,
            "{}\"{}\"",
            if i > 0 { "," } else { "" },
            json::escape(note)
        );
    }
    detail.push_str("]}");

    let mut result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    let listed: Vec<(&str, &str)> = if options.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    debug_assert!(
        values
            .keys()
            .all(|key| listed.iter().any(|(name, _)| name == key)),
        "a value was set under a name BENCHMARK.json does not list"
    );
    for (i, (name, unit)) in listed.into_iter().enumerate() {
        // A per-layer metric nothing set is a layer the workload does
        // not exercise: 0 by the README's convention.
        let value = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let _ = write!(
            result,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    result.push_str("}}");
    Ok(Report { detail, result })
}

fn ns_per_event(outcome: &Outcome) -> f64 {
    outcome.event_ns as f64 / outcome.events.max(1) as f64
}

/// Appends `"name":{"min","median","max","n"}` to the detail line.
fn summary(detail: &mut String, name: &str, samples: impl Iterator<Item = f64>) {
    let samples: Vec<f64> = samples.collect();
    let _ = write!(
        detail,
        ",\"{name}\":{{\"min\":{},\"median\":{},\"max\":{},\"n\":{}}}",
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        median(&samples),
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples.len()
    );
}

/// The untraced run: iterate for the window, then report what a user
/// pays — host seconds, host time per simulated event, host memory —
/// with every timing calibrated by the probe around its iteration.
fn untraced(
    options: &Options,
    set_up: &SetUp,
    probe: &mut Probe,
    checks: &mut Checks,
    values: &mut Values,
    detail: &mut String,
) -> Vec<Outcome> {
    let mut samples = Vec::new();
    let mut probes = Vec::new();
    let mut peaks = Vec::new();
    let mut before = probe.sample();
    let window = Stopwatch::start();
    loop {
        reset_peak_rss();
        let outcome = iterate(&set_up.inputs, &mut Tracer::off(), None);
        // The probe's buffers are resident from before set-up to the
        // end, so the iteration's own peak is the process's less theirs.
        peaks.extend(peak_rss_mb().map(|peak| peak - probe.resident_mb()));
        let after = probe.sample();
        checks.iteration("timed", &outcome, set_up.digest);
        samples.push(outcome);
        probes.push((before, after));
        before = after;
        if window.elapsed_secs() >= options.seconds {
            break;
        }
    }
    cross_check(set_up, checks);

    let calibrated = |measure: fn(&Outcome) -> f64| -> Vec<f64> {
        samples
            .iter()
            .zip(&probes)
            .map(|(o, &(before, after))| calibrate(measure(o), before, after))
            .collect()
    };
    values.insert("wall_s", median(&calibrated(|o| o.wall_ns as f64 * 1e-9)));
    values.insert("ns_per_event", median(&calibrated(ns_per_event)));
    // Off Linux there is no VmHWM and the metric reads 0: absent, not
    // measured.
    values.insert("peak_rss_mb", median(&peaks));
    values.insert("setup_s", median(&set_up.seconds));
    summary(
        detail,
        "probe_s",
        probes.iter().map(|&(b, a)| (b + a) / 2.0),
    );
    samples
}

/// The traced run. Returns the *untraced* samples it interleaved, so
/// the detail line describes the same thing in both modes.
fn traced(
    options: &Options,
    set_up: &SetUp,
    checks: &mut Checks,
    values: &mut Values,
    detail: &mut String,
) -> Result<Vec<Outcome>, String> {
    let registry = Arc::new(Metrics::new());
    let obs = EngineObs::new(&registry);
    let is_suite = matches!(set_up.inputs, Inputs::Suite(_));
    let mut tracer = Tracer::on();
    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    let window = Stopwatch::start();
    loop {
        let untraced = iterate(&set_up.inputs, &mut Tracer::off(), None);
        checks.iteration("untraced", &untraced, set_up.digest);

        tracer.set_iteration(with_trace.len() as u32);
        if is_suite {
            // The figures pick the registry up from the runner; the
            // engine workloads get `obs` through their builder.
            runner::install_metrics(Some(Arc::clone(&registry)));
        }
        let outcome = iterate(&set_up.inputs, &mut tracer, Some(&obs));
        runner::install_metrics(None);
        checks.iteration("traced", &outcome, set_up.digest);
        // The traced engine must have done exactly the untraced work.
        checks.record(
            (outcome.frames, outcome.rounds) == (untraced.frames, untraced.rounds),
            || {
                format!(
                    "traced frames/rounds {}/{} vs untraced {}/{}",
                    outcome.frames, outcome.rounds, untraced.frames, untraced.rounds
                )
            },
        );
        plain.push(untraced);
        with_trace.push(outcome);
        if window.elapsed_secs() >= options.seconds {
            break;
        }
    }

    let wall =
        |samples: &[Outcome]| median(&samples.iter().map(|o| o.wall_ns as f64).collect::<Vec<_>>());
    let untraced_wall = wall(&plain);
    values.insert(
        "trace.overhead_pct",
        100.0 * (wall(&with_trace) - untraced_wall) / untraced_wall,
    );
    span_metrics(values, &tracer, set_up.inputs.rounds_per_step_span());
    count_metrics(
        values,
        with_trace.last().expect("at least one traced iteration"),
    );
    let snapshot = registry.snapshot();
    let iterations = with_trace.len() as f64;
    phase_metrics(values, &snapshot, iterations);
    runner_metrics(values, &snapshot, iterations);

    // Accuracy: the oracle at set-up and the paper's Eq 1.
    values.insert(
        "reference.oracle_mismatches",
        set_up.oracle_mismatches as f64,
    );
    values.insert(
        "spread.eq1_rounds_err_pct",
        eq1_rounds_err_pct(options.seed),
    );

    // core::shard: the same inputs on one shard against this workload.
    if let Some(single) = cross_check(set_up, checks) {
        if matches!(&set_up.inputs, Inputs::Flood(_)) {
            values.insert("shard.speedup_x", single.wall_ns as f64 / untraced_wall);
        }
    }

    layers::measure(values, options.seed);

    let path = options
        .out_dir
        .join(format!("trace-{}.json", options.workload.name()));
    std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(options.workload.name(), options.seed)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let _ = write!(
        detail,
        ",\"trace_file\":\"{}\",\"spans\":{},\"traced_samples\":{}",
        json::escape(&path.to_string_lossy()),
        tracer.spans().len(),
        with_trace.len()
    );
    Ok(plain)
}

/// The outside-timed layers: medians over the spans of each name.
fn span_metrics(values: &mut Values, tracer: &Tracer, rounds_per_step_span: u64) {
    let median_of = |span: &str, scale: f64| {
        let nanos: Vec<f64> = tracer.durations(span).iter().map(|&n| n as f64).collect();
        median(&nanos) * scale
    };
    values.insert("engine.build_ms", median_of("engine.build", 1e-6));
    // A trickle span covers many rounds; report the cost of one.
    let per_step = 1e-6 / rounds_per_step_span as f64;
    let slowest_step = tracer.durations("engine.step").into_iter().max();
    values.insert("engine.step_ms_p50", median_of("engine.step", per_step));
    values.insert(
        "engine.step_ms_max",
        slowest_step.unwrap_or(0) as f64 * per_step,
    );
    for (metric, span) in [
        ("checkpoint.capture_ms", "checkpoint.capture"),
        ("checkpoint.encode_ms", "checkpoint.encode"),
        ("checkpoint.decode_ms", "checkpoint.decode"),
        ("checkpoint.resume_ms", "checkpoint.resume"),
    ] {
        values.insert(metric, median_of(span, 1e-6));
    }
    for figure in &FIGURES {
        values.insert(figure.metric, median_of(figure.span, 1e-9));
    }
}

/// The deterministic counts of one traced iteration.
fn count_metrics(values: &mut Values, last: &Outcome) {
    if last.checkpoint_bytes > 0 {
        values.insert(
            "checkpoint.bytes_per_cycle",
            last.checkpoint_bytes as f64 / last.events.max(1) as f64,
        );
    }
    if let Some(counts) = last.counts {
        let share = |part: u64| part as f64 / counts.frames.max(1) as f64;
        values.insert("engine.frames", counts.frames as f64);
        values.insert("engine.rounds", last.rounds as f64);
        values.insert("engine.deliveries", counts.deliveries as f64);
        values.insert("engine.quiescent_rounds", counts.quiescent_rounds as f64);
        values.insert("engine.dup_share", share(counts.duplicate_drops));
        values.insert("engine.crc_reject_share", share(counts.crc_rejects));
        values.insert("engine.overflow_share", share(counts.overflow_drops));
    }
}

/// The engine's own `EngineObs` histograms, in seconds per traced
/// iteration.
fn phase_metrics(values: &mut Values, snapshot: &MetricsSnapshot, iterations: f64) {
    let phase = |label: &str| {
        histograms(snapshot, "engine_phase_seconds")
            .filter(|h| h.labels.iter().any(|(k, v)| k == "phase" && v == label))
            .map(HistogramSample::sum_secs)
            .sum::<f64>()
            / iterations
    };
    let round = phase("round");
    let attributed = ["tape", "shard_fanout", "merge", "quiescence"].map(phase);
    values.insert("engine.phase_round_s", round);
    values.insert("engine.phase_tape_s", attributed[0]);
    values.insert("engine.phase_fanout_s", attributed[1]);
    values.insert("engine.phase_merge_s", attributed[2]);
    values.insert("engine.phase_quiescence_s", attributed[3]);
    if round > 0.0 {
        values.insert(
            "engine.unattributed_share",
            (round - attributed.iter().sum::<f64>()).max(0.0) / round,
        );
    }
}

/// The runner's own histograms; only the figure suite fills them.
fn runner_metrics(values: &mut Values, snapshot: &MetricsSnapshot, iterations: f64) {
    let trials: Vec<&HistogramSample> = histograms(snapshot, "runner_trial_seconds").collect();
    let trial_count: u64 = trials.iter().map(|h| h.count).sum();
    if trial_count == 0 {
        return;
    }
    let trial_nanos: u64 = trials.iter().map(|h| h.sum_nanos).sum();
    let waited: u64 = histograms(snapshot, "runner_queue_wait_seconds")
        .map(|h| h.sum_nanos)
        .sum();
    values.insert("runner.trials", trial_count as f64 / iterations);
    values.insert(
        "runner.trial_ms_mean",
        trial_nanos as f64 / trial_count as f64 * 1e-6,
    );
    values.insert("runner.trial_ms_p50", merged_quantile(&trials, 0.5) * 1e-6);
    values.insert("runner.trial_ms_p90", merged_quantile(&trials, 0.9) * 1e-6);
    values.insert(
        "runner.queue_wait_share",
        waited as f64 / trial_nanos.max(1) as f64,
    );
    values.insert("runner.parallel_efficiency", parallel_efficiency());
}

fn histograms<'a>(
    snapshot: &'a MetricsSnapshot,
    name: &'a str,
) -> impl Iterator<Item = &'a HistogramSample> {
    snapshot.histograms.iter().filter(move |h| h.name == name)
}

/// Upper-bound estimate (ns) of the `q`-quantile over several log2
/// histograms merged: the upper edge of the first bucket whose
/// cumulative count reaches `ceil(q·count)`, clamped to the exact
/// maximum — the rule `noc_obs::Histogram::quantile_nanos` applies to
/// one histogram.
fn merged_quantile(samples: &[&HistogramSample], q: f64) -> f64 {
    let count: u64 = samples.iter().map(|h| h.count).sum();
    let max = samples.iter().map(|h| h.max_nanos).max().unwrap_or(0);
    if count == 0 {
        return 0.0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let buckets = samples.iter().map(|h| h.buckets.len()).max().unwrap_or(0);
    let mut cumulative = 0u64;
    for i in 0..buckets {
        cumulative += samples
            .iter()
            .map(|h| h.buckets.get(i).copied().unwrap_or(0))
            .sum::<u64>();
        if cumulative >= target {
            // Bucket `i` holds values of bit length `i`: at most 2^i − 1.
            let upper = 1u64.checked_shl(i as u32).map_or(max, |edge| edge - 1);
            return upper.min(max) as f64;
        }
    }
    max as f64
}

/// `t₁ ÷ 2·t₂` of fig4-5 at runner threads 1 and 2: 1 is perfect
/// scaling, 0.5 is no gain from the second thread.
fn parallel_efficiency() -> f64 {
    let time = |threads: usize| {
        runner::set_default_threads(threads);
        let sw = Stopwatch::start();
        std::hint::black_box(fig4_5::run(FigureScale::Quick));
        sw.elapsed_secs()
    };
    let serial = time(1);
    let parallel = time(2);
    runner::set_default_threads(1);
    runner::take_reports();
    serial / (2.0 * parallel)
}

/// The model's only accuracy figure: mean simulated rounds to inform all
/// of fig3-1's 1000 fully connected nodes, over ten seeded rumors,
/// against Eq 1's `log2 n + ln n`, as a signed percentage.
fn eq1_rounds_err_pct(seed: u64) -> f64 {
    const NODES: usize = 1000;
    const RUMORS: u64 = 10;
    let base = derive_labeled_seed(seed, "fig3-1");
    let rounds: Vec<f64> = (0..RUMORS)
        .filter_map(|i| {
            spread::simulated_rounds_to_inform_all(NODES, 100, derive_trial_seed(base, i))
        })
        .map(|r| r as f64)
        .collect();
    if rounds.is_empty() {
        return 0.0;
    }
    let mean = rounds.iter().sum::<f64>() / rounds.len() as f64;
    let predicted = spread::rounds_to_inform_all(NODES);
    100.0 * (mean - predicted) / predicted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_quantile_walks_the_summed_buckets() {
        let histogram = |buckets: Vec<u64>, max_nanos: u64| HistogramSample {
            name: "runner_trial_seconds".to_string(),
            labels: Vec::new(),
            count: buckets.iter().sum(),
            sum_nanos: 0,
            max_nanos,
            p50_nanos: 0,
            p90_nanos: 0,
            p99_nanos: 0,
            buckets,
        };
        // Bit lengths: three values in bucket 3 (4..=7), one in bucket 5.
        let a = histogram(vec![0, 0, 0, 2, 0, 0], 6);
        let b = histogram(vec![0, 0, 0, 1, 0, 1], 20);
        assert_eq!(merged_quantile(&[&a, &b], 0.5), 7.0);
        assert_eq!(merged_quantile(&[&a, &b], 0.75), 7.0);
        // The top bucket's edge (31) is clamped to the exact maximum.
        assert_eq!(merged_quantile(&[&a, &b], 0.9), 20.0);
        assert_eq!(merged_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn eq1_error_is_small_and_seeded() {
        let err = eq1_rounds_err_pct(2003);
        assert!(err.abs() < 25.0, "Eq 1 off by {err}%");
        assert_eq!(err, eq1_rounds_err_pct(2003));
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut checks = Checks::default();
        checks.record(true, || unreachable!("not evaluated when ok"));
        checks.record(false, || "digest drift".to_string());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.notes, ["digest drift"]);
    }
}
