//! Point-in-time snapshots of a [`crate::Metrics`] registry and their
//! two text encodings: a JSON document (for artifacts and scripted
//! validation) and Prometheus text exposition (for scraping).
//!
//! Both writers are hand-rolled string formatting, like every other
//! serializer in the workspace. Durations are carried as integer
//! nanoseconds end-to-end and rendered to decimal seconds exactly, so
//! snapshot bytes never depend on float formatting quirks.

use crate::registry::{bucket_upper_nanos, HISTOGRAM_BUCKETS};

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Gauge value.
    pub value: f64,
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations, nanoseconds.
    pub sum_nanos: u64,
    /// Largest observation, nanoseconds.
    pub max_nanos: u64,
    /// Median upper-bound estimate, nanoseconds.
    pub p50_nanos: u64,
    /// 90th-percentile upper-bound estimate, nanoseconds.
    pub p90_nanos: u64,
    /// 99th-percentile upper-bound estimate, nanoseconds.
    pub p99_nanos: u64,
    /// Raw (non-cumulative) per-bucket counts; see
    /// [`crate::HISTOGRAM_BUCKETS`] for the bucket scheme.
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// Sum of observations, seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos as f64 * 1e-9
    }

    /// Largest observation, seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_nanos as f64 * 1e-9
    }
}

/// Everything a registry knew at one instant, in stable order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter samples, ordered by name then labels.
    pub counters: Vec<CounterSample>,
    /// Gauge samples, ordered by name then labels.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples, ordered by name then labels.
    pub histograms: Vec<HistogramSample>,
}

/// Escapes a string for a JSON string literal or a Prometheus label
/// value (the required escapes coincide: backslash, quote, newline).
/// Exported as `noc_obs::json_escape`: every JSONL line the workspace
/// prints interpolates outside input (paths, labels) through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders integer nanoseconds as an exact decimal-seconds literal
/// ("1400" ns → "0.0000014"), with no float rounding involved.
fn secs(nanos: u64) -> String {
    let whole = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let mut s = format!("{whole}.{frac:09}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

/// Renders a float as a JSON-safe number (plain decimal, never NaN/Inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Prometheus label block: `{k="v",...}`, or empty when label-free.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsSnapshot {
    /// The snapshot as one JSON document:
    ///
    /// ```json
    /// {"plane": "wall-clock",
    ///  "counters": [{"name":"...","labels":{},"value":17}],
    ///  "gauges": [{"name":"...","labels":{},"value":42.5}],
    ///  "histograms": [{"name":"...","labels":{},"count":3,
    ///                  "sum_seconds":0.1,"max_seconds":0.05,
    ///                  "p50_seconds":0.01,"p90_seconds":0.05,
    ///                  "p99_seconds":0.05}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"plane\": \"wall-clock\",\n  \"counters\": [");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "\n    {{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                    escape(&c.name),
                    json_labels(&c.labels),
                    c.value
                )
            })
            .collect();
        out.push_str(&counters.join(","));
        if !counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"gauges\": [");
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|g| {
                format!(
                    "\n    {{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                    escape(&g.name),
                    json_labels(&g.labels),
                    num(g.value)
                )
            })
            .collect();
        out.push_str(&gauges.join(","));
        if !gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"histograms\": [");
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "\n    {{\"name\":\"{}\",\"labels\":{},\"count\":{},\
                     \"sum_seconds\":{},\"max_seconds\":{},\
                     \"p50_seconds\":{},\"p90_seconds\":{},\"p99_seconds\":{}}}",
                    escape(&h.name),
                    json_labels(&h.labels),
                    h.count,
                    secs(h.sum_nanos),
                    secs(h.max_nanos),
                    secs(h.p50_nanos),
                    secs(h.p90_nanos),
                    secs(h.p99_nanos)
                )
            })
            .collect();
        out.push_str(&hists.join(","));
        if !hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The snapshot in Prometheus text exposition format: counters and
    /// gauges as single samples, histograms as cumulative `_bucket`
    /// series (sparse — only edges whose bucket is populated — plus the
    /// mandatory `+Inf`), `_sum`, and `_count`, with a `_max` gauge for
    /// the exact maximum the bucket scheme can't represent.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let tag = format!("{name}/{kind}");
            if last_type.as_deref() != Some(tag.as_str()) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type = Some(tag);
            }
        };
        for c in &self.counters {
            type_line(&mut out, &c.name, "counter");
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                prom_labels(&c.labels, None),
                c.value
            ));
        }
        for g in &self.gauges {
            type_line(&mut out, &g.name, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                prom_labels(&g.labels, None),
                num(g.value)
            ));
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "histogram");
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                if n == 0 {
                    continue;
                }
                cum += n;
                let le = bucket_upper_nanos(i).map(secs).unwrap_or_default();
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    prom_labels(&h.labels, Some(("le", &le))),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                h.name,
                prom_labels(&h.labels, Some(("le", "+Inf"))),
                h.count
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                h.name,
                prom_labels(&h.labels, None),
                secs(h.sum_nanos)
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                prom_labels(&h.labels, None),
                h.count
            ));
            out.push_str(&format!(
                "{}_max{} {}\n",
                h.name,
                prom_labels(&h.labels, None),
                secs(h.max_nanos)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn sample_registry() -> Metrics {
        let m = Metrics::new();
        m.counter("engine_rounds_total", &[]).add(17);
        m.gauge("runner_trials_per_sec", &[("figure", "fig3-3")])
            .set(42.5);
        let h = m.histogram("engine_phase_seconds", &[("phase", "merge")]);
        h.observe_nanos(900);
        h.observe_nanos(1100);
        h.observe_nanos(1100);
        m
    }

    #[test]
    fn nanos_render_as_exact_decimal_seconds() {
        assert_eq!(secs(0), "0");
        assert_eq!(secs(1), "0.000000001");
        assert_eq!(secs(1023), "0.000001023");
        assert_eq!(secs(3_100), "0.0000031");
        assert_eq!(secs(1_000_000_000), "1");
        assert_eq!(secs(1_500_000_000), "1.5");
        assert_eq!(secs(12_345_678_901), "12.345678901");
    }

    #[test]
    fn json_snapshot_contains_every_instrument() {
        let json = sample_registry().snapshot().to_json();
        assert!(json.contains("\"plane\": \"wall-clock\""));
        assert!(json.contains("{\"name\":\"engine_rounds_total\",\"labels\":{},\"value\":17}"));
        assert!(json.contains("\"name\":\"runner_trials_per_sec\""));
        assert!(json.contains("\"labels\":{\"figure\":\"fig3-3\"}"));
        assert!(json.contains("\"value\":42.5"));
        assert!(json.contains("\"name\":\"engine_phase_seconds\""));
        assert!(json.contains("\"labels\":{\"phase\":\"merge\"}"));
        assert!(json.contains("\"count\":3"));
        // 900 + 1100 + 1100 ns, rendered exactly.
        assert!(json.contains("\"sum_seconds\":0.0000031"), "{json}");
        assert!(json.contains("\"max_seconds\":0.0000011"), "{json}");
    }

    #[test]
    fn json_snapshot_is_structurally_balanced() {
        // Empty and populated snapshots must both nest correctly (a
        // cheap stand-in for a parser the workspace doesn't vendor; CI
        // runs a real `json.loads` over the artifact).
        for json in [
            MetricsSnapshot::default().to_json(),
            sample_registry().snapshot().to_json(),
        ] {
            let opens = json.matches(['{', '[']).count();
            let closes = json.matches(['}', ']']).count();
            assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
            assert!(!json.contains("NaN") && !json.contains("inf"));
        }
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE engine_rounds_total counter"));
        assert!(text.contains("engine_rounds_total 17"));
        assert!(text.contains("# TYPE runner_trials_per_sec gauge"));
        assert!(text.contains("runner_trials_per_sec{figure=\"fig3-3\"} 42.5"));
        assert!(text.contains("# TYPE engine_phase_seconds histogram"));
        // 900ns has bit length 10 (le 1023ns); 1100ns bit length 11
        // (le 2047ns). Buckets are cumulative: 1 then 3.
        assert!(
            text.contains("engine_phase_seconds_bucket{phase=\"merge\",le=\"0.000001023\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("engine_phase_seconds_bucket{phase=\"merge\",le=\"0.000002047\"} 3"),
            "{text}"
        );
        assert!(text.contains("engine_phase_seconds_bucket{phase=\"merge\",le=\"+Inf\"} 3"));
        assert!(text.contains("engine_phase_seconds_sum{phase=\"merge\"} 0.0000031"));
        assert!(text.contains("engine_phase_seconds_count{phase=\"merge\"} 3"));
        assert!(text.contains("engine_phase_seconds_max{phase=\"merge\"} 0.0000011"));
    }

    #[test]
    fn type_headers_are_not_repeated_within_a_family() {
        let m = Metrics::new();
        m.counter("jobs", &[("kind", "a")]).inc();
        m.counter("jobs", &[("kind", "b")]).inc();
        let text = m.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE jobs counter").count(), 1);
        assert!(text.contains("jobs{kind=\"a\"} 1"));
        assert!(text.contains("jobs{kind=\"b\"} 1"));
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_newlines() {
        let m = Metrics::new();
        m.counter("weird", &[("path", "C:\\tmp\"x\"\nend")]).inc();
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains("weird{path=\"C:\\\\tmp\\\"x\\\"\\nend\"} 1"),
            "{text}"
        );
        let json = m.snapshot().to_json();
        assert!(
            json.contains("\"labels\":{\"path\":\"C:\\\\tmp\\\"x\\\"\\nend\"}"),
            "{json}"
        );
        // Control characters become \u escapes in both encodings.
        let m2 = Metrics::new();
        m2.counter("ctl", &[("v", "a\tb")]).inc();
        assert!(m2.snapshot().to_json().contains("a\\u0009b"));
    }
}
