//! The benchmark's metric tables — the one place their names, units,
//! directions and regression bounds are written down in code. A unit
//! test pins them to `BENCHMARK.json`.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator would see, measured with tracing
/// off and emitted by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// * `wall_s` — host seconds of one iteration (build + inject + run).
/// * `ns_per_event` — host nanoseconds per simulated event of the
///   workload's kind (link frame, round, checkpoint cycle, trial), so a
///   licensed digest re-pin that changes the event count does not read
///   as a speed change.
/// * `peak_rss_mb` — `VmHWM` of the process.
/// * `setup_s` — argument parsing, input generation, the oracle check
///   and one untimed warm-up iteration.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced run. No bound. A value
/// of 0 means the workload does not exercise the layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [PerLayer; 56] = [
    // noc-crc — fixed-input microbenches.
    lower("crc.table_ns_per_byte", "ns/B"),
    lower("crc.bitwise_ns_per_byte", "ns/B"),
    lower("crc.codec_verify_ns", "ns"),
    // noc-fabric — fixed 32-byte frame, 64×64 grid.
    lower("fabric.codec_encode_ns", "ns"),
    lower("fabric.codec_peek_id_ns", "ns"),
    lower("fabric.codec_decode_view_ns", "ns"),
    lower("fabric.codec_decode_trusted_ns", "ns"),
    lower("fabric.grid_build_ns_per_tile", "ns"),
    // noc-faults — one draw each under the faulty model.
    lower("faults.upset_draw_ns", "ns"),
    lower("faults.overflow_draw_ns", "ns"),
    lower("faults.skew_draw_ns", "ns"),
    lower("faults.scramble_shared_ns", "ns"),
    // core::send_buffer
    lower("send_buffer.insert_miss_ns", "ns"),
    lower("send_buffer.insert_hit_ns", "ns"),
    lower("send_buffer.age_ns_per_msg", "ns"),
    // core::engine — timed from outside, per traced iteration.
    lower("engine.build_ms", "ms"),
    lower("engine.step_ms_p50", "ms"),
    lower("engine.step_ms_max", "ms"),
    // core::engine — deterministic counts of one iteration.
    lower("engine.frames", "count"),
    lower("engine.rounds", "count"),
    higher("engine.deliveries", "count"),
    lower("engine.quiescent_rounds", "count"),
    lower("engine.dup_share", "share"),
    lower("engine.crc_reject_share", "share"),
    lower("engine.overflow_share", "share"),
    // core::engine — the existing EngineObs histograms, per iteration.
    lower("engine.phase_round_s", "s"),
    lower("engine.phase_tape_s", "s"),
    lower("engine.phase_fanout_s", "s"),
    lower("engine.phase_merge_s", "s"),
    lower("engine.phase_quiescence_s", "s"),
    lower("engine.unattributed_share", "share"),
    // core::shard
    higher("shard.speedup_x", "x"),
    // core::checkpoint — medians over the traced cycles.
    lower("checkpoint.capture_ms", "ms"),
    lower("checkpoint.encode_ms", "ms"),
    lower("checkpoint.decode_ms", "ms"),
    lower("checkpoint.resume_ms", "ms"),
    lower("checkpoint.bytes_per_cycle", "B"),
    // core::events / core::obs
    lower("trace.overhead_pct", "%"),
    // core::spread / core::reference — the model's accuracy figures.
    lower("spread.eq1_rounds_err_pct", "%"),
    lower("reference.oracle_mismatches", "count"),
    // experiments::runner + figures
    higher("runner.trials", "count"),
    lower("runner.trial_ms_mean", "ms"),
    lower("runner.trial_ms_p50", "ms"),
    lower("runner.trial_ms_p90", "ms"),
    lower("runner.queue_wait_share", "share"),
    higher("runner.parallel_efficiency", "share"),
    lower("figure.fig4-4_s", "s"),
    lower("figure.fig4-5_s", "s"),
    lower("figure.fig4-8_s", "s"),
    lower("figure.fig4-9_s", "s"),
    lower("figure.fig4-10_s", "s"),
    lower("figure.fig4-11_s", "s"),
    lower("figure.fig5-3_s", "s"),
    // noc-apps / noc-dsp — fixed-input microbenches.
    lower("apps.mp3_run_ms", "ms"),
    lower("dsp.fft1024_us", "us"),
    lower("dsp.mdct_us", "us"),
];

/// Metric values of one run, by name.
pub type Values = std::collections::BTreeMap<&'static str, f64>;

/// Median of `samples` (mean of the middle pair for an even count);
/// 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The quartile cut points of `samples`, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them, so `--compare`
/// reports the spread the acceptance check measures. `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread. `None` below two samples or at a zero median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::{Workload, FIGURES};

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(well_formed(name, "_.-", 64), "bad name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        for figure in &FIGURES {
            assert!(names.contains(&figure.metric), "{} unlisted", figure.metric);
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(unit, "_/%.-", 16), "bad unit {unit}");
        }
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .to_vec()
        };
        let text = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .expect("string")
                .to_string()
        };

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.keys(), ["name", "why"]);
            assert_eq!(text(entry, "name"), workload.name());
            let why = text(entry, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), metric.better.as_str());
            assert_eq!(
                entry.get("bound").and_then(|b| b.as_f64()),
                Some(metric.bound)
            );
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(entry.keys(), ["name", "unit", "better"]);
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), metric.better.as_str());
        }

        let paths: Vec<String> = listed("paths")
            .iter()
            .map(|p| p.as_str().expect("path").to_string())
            .collect();
        assert_eq!(paths, ["noc_benchmark"]);
        for word in listed("command") {
            let word = word.as_str().expect("command word").to_string();
            assert!(!word.starts_with('/') && !word.contains(".."), "{word}");
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(|s| s.as_f64())
            .expect("number");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
