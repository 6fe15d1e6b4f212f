//! Runs every workload at `--smoke` scale through the real binary,
//! untraced and traced, and validates what it prints against the
//! contract: the result line's schema, the metric names and units of
//! `BENCHMARK.json`, no failed operation, equal one- and two-shard
//! digests, and a trace file whose spans form a tree.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use noc_benchmark::json::{self, Value};
use noc_benchmark::metrics::{END_TO_END, PER_LAYER};
use noc_benchmark::workloads::Workload;

const SEED: &str = "77";

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Runs the binary with `args`.
fn spawn<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noc_benchmark"))
        .args(args)
        .output()
        .expect("spawn noc_benchmark")
}

/// Arguments of one smoke-scale run with an empty window.
fn smoke_args<'a>(workload: &'a str, seed: &'a str, trace: bool) -> [&'a str; 9] {
    let trace = if trace { "1" } else { "0" };
    [
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ]
}

/// Runs one workload and returns its (detail, result) lines, parsed.
fn run(workload: Workload, trace: bool, out: &Path) -> (Value, Value) {
    let output = spawn(
        smoke_args(workload.name(), SEED, trace)
            .iter()
            .map(OsStr::new)
            .chain([OsStr::new("--out"), out.as_os_str()]),
    );
    assert!(
        output.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().expect("a result line")).expect("result parses");
    let detail = json::parse(lines.next().expect("a detail line")).expect("detail parses");
    (detail, result)
}

/// Checks the result line's schema and returns its metrics by name.
fn validated_metrics(workload: Workload, result: &Value, trace: bool) -> Vec<(String, f64)> {
    let name = workload.name();
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{name}"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{name}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{name}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "{name}: {attempted}"
    );

    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = result.get("metrics").expect("metrics");
    assert_eq!(
        metrics.keys(),
        expected.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        "{name}"
    );
    metrics
        .members()
        .iter()
        .zip(expected)
        .map(|((metric, body), (_, unit))| {
            assert_eq!(body.keys(), ["value", "unit"], "{name} {metric}");
            assert_eq!(
                body.get("unit").and_then(Value::as_str),
                Some(unit),
                "{name} {metric}"
            );
            let value = body.get("value").and_then(Value::as_f64).expect("a number");
            assert!(value.is_finite(), "{name} {metric} = {value}");
            (metric.clone(), value)
        })
        .collect()
}

fn digest(detail: &Value) -> String {
    detail
        .get("sim_digest")
        .and_then(Value::as_str)
        .expect("sim_digest")
        .to_string()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let out = out_dir("untraced");
    let mut digests = Vec::new();
    for workload in Workload::ALL {
        let (detail, result) = run(workload, false, &out);
        assert_eq!(
            detail.get("workload").and_then(Value::as_str),
            Some(workload.name())
        );
        assert_eq!(detail.get("scale").and_then(Value::as_str), Some("smoke"));
        for (metric, value) in validated_metrics(workload, &result, false) {
            // End-to-end metrics are chosen never to be 0.
            assert!(value > 0.0, "{} {metric} = {value}", workload.name());
        }
        digests.push(digest(&detail));
    }
    assert!(!out.exists(), "an untraced run writes no trace");
    // Sharding must not change a single observable.
    assert_eq!(
        digests[1], digests[2],
        "flood128_faulty vs flood128_faulty_s2"
    );
    // A different seed changes every digest.
    let other = spawn(smoke_args("flood64_clean", "78", false));
    let stdout = String::from_utf8(other.stdout).expect("utf-8");
    let detail = json::parse(stdout.lines().next().expect("detail")).expect("parses");
    assert_ne!(digest(&detail), digests[0]);
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_write_a_span_tree() {
    let out = out_dir("traced");
    let _ = std::fs::remove_dir_all(&out);
    for workload in Workload::ALL {
        let (detail, result) = run(workload, true, &out);
        let metrics = validated_metrics(workload, &result, true);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} listed"))
                .1
        };
        let name = workload.name();

        // Microbenches and accuracy figures are workload-independent.
        for metric in [
            "crc.table_ns_per_byte",
            "fabric.codec_peek_id_ns",
            "dsp.fft1024_us",
        ] {
            assert!(value(metric) > 0.0, "{name} {metric}");
        }
        assert_eq!(value("reference.oracle_mismatches"), 0.0, "{name}");

        // Workload-derived layers read 0 where the workload bypasses them.
        let engine = workload != Workload::PaperSuite;
        assert_eq!(value("engine.step_ms_p50") > 0.0, engine, "{name}");
        assert_eq!(value("engine.phase_round_s") > 0.0, engine, "{name}");
        assert_eq!(value("runner.trials") > 0.0, !engine, "{name}");
        assert_eq!(value("figure.fig4-8_s") > 0.0, !engine, "{name}");
        assert_eq!(
            value("checkpoint.capture_ms") > 0.0 && value("checkpoint.bytes_per_cycle") > 0.0,
            workload == Workload::CheckpointCycle,
            "{name}"
        );
        assert_eq!(
            value("shard.speedup_x") > 0.0 && value("engine.phase_tape_s") > 0.0,
            workload == Workload::Flood128FaultyS2,
            "{name}"
        );
        if engine {
            // The traced engine did exactly the untraced engine's work.
            assert_eq!(
                Some(value("engine.frames")),
                detail.get("frames").and_then(Value::as_f64)
            );
            assert_eq!(
                Some(value("engine.rounds")),
                detail.get("rounds").and_then(Value::as_f64)
            );
        }

        let path = out.join(format!("trace-{name}.json"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let trace = json::parse(&text).expect("trace parses");
        assert_eq!(trace.get("workload").and_then(Value::as_str), Some(name));
        let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
        assert!(!spans.is_empty());
        for (index, span) in spans.iter().enumerate() {
            assert_eq!(
                span.keys(),
                [
                    "name",
                    "workload",
                    "iteration",
                    "start_ns",
                    "end_ns",
                    "parent"
                ]
            );
            let number = |key: &str| span.get(key).and_then(Value::as_f64).expect("number");
            assert!(number("end_ns") >= number("start_ns"));
            let span_name = span.get("name").and_then(Value::as_str).expect("name");
            match span.get("parent").expect("parent") {
                Value::Null => assert_eq!(span_name, "iteration"),
                parent => {
                    let parent = parent.as_f64().expect("index") as usize;
                    assert!(parent < index, "a span's cause starts before it");
                    assert!(
                        number("start_ns")
                            >= spans[parent]
                                .get("start_ns")
                                .and_then(Value::as_f64)
                                .expect("number")
                    );
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_and_print_no_result() {
    for args in [
        &[][..],
        &["--workload", "nope"],
        &["--workload", "flood64_clean", "--trace", "2"],
        &["--workload", "flood64_clean", "--seconds", "-1"],
        &["--workload", "flood64_clean", "--seed"],
        &["--compare", "only-one"],
    ] {
        let output = spawn(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_captured_set_compares_equal_to_itself() {
    let out = out_dir("compare");
    std::fs::create_dir_all(&out).expect("create dir");
    let mut captured = Vec::new();
    for workload in Workload::ALL {
        captured.extend(spawn(smoke_args(workload.name(), SEED, false)).stdout);
    }
    let set = out.join("set.jsonl");
    std::fs::write(&set, captured).expect("write set");
    let output = spawn([OsStr::new("--compare"), set.as_os_str(), set.as_os_str()]);
    let table = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{table}");
    assert_eq!(
        table.matches("identical").count(),
        Workload::ALL.len(),
        "{table}"
    );
    assert!(!table.contains("MISSING"), "{table}");
}
