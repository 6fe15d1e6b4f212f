//! `--compare A B`: two sets of runs, metric by metric.
//!
//! A set is a file holding the standard output of any number of runs
//! (`run_set.sh` writes one). For every workload × end-to-end metric the
//! comparison prints both medians, how much worse B reads than A, the
//! bound, and each set's own run-to-run spread; a pair whose spread
//! exceeds the bound is reported *unresolved*, never passed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{median, spread, Better, END_TO_END};
use crate::workloads::Workload;

/// One untraced or traced run read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Was it a traced run?
    pub traced: bool,
    /// `sim_digest` of the run.
    pub digest: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every run out of `text`: each result line (the one with
/// `metrics`) is paired with the detail line printed before it. Lines
/// that are not JSON objects (cargo's chatter) are skipped.
///
/// # Errors
///
/// Returns a message for a result line with no detail line before it or
/// with a member of the wrong type.
pub fn read_runs(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    let mut detail: Option<Value> = None;
    for (number, line) in text.lines().enumerate() {
        let Ok(value) = json::parse(line) else {
            continue;
        };
        if value.get("workload").is_some() {
            detail = Some(value);
            continue;
        }
        let Some(metrics) = value.get("metrics") else {
            continue;
        };
        let detail = detail.take().ok_or_else(|| {
            format!(
                "line {}: a result with no detail line before it",
                number + 1
            )
        })?;
        let bad = |what: &str| format!("line {}: missing or mistyped `{what}`", number + 1);
        let count =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let text_of = |key: &str| {
            detail
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(key))
        };
        runs.push(RunRecord {
            workload: text_of("workload")?,
            seed: count(&detail, "seed")? as u64,
            traced: count(&detail, "trace")? != 0.0,
            digest: text_of("sim_digest")?,
            attempted: count(&value, "attempted")? as u64,
            failed: count(&value, "failed")? as u64,
            metrics: metrics
                .members()
                .iter()
                .map(|(name, m)| Ok((name.clone(), count(m, "value")?)))
                .collect::<Result<_, String>>()?,
        });
    }
    Ok(runs)
}

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread exceeds the bound, and not every run of B
    /// reads better than every run of A.
    Unresolved,
    /// One of the sets has no run of the workload.
    Missing,
}

/// Judges B against A on one metric. `bound` and both spreads are
/// shares of a median.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0);
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let every_b_better = match better {
        Better::Lower => {
            b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < a.iter().copied().fold(f64::INFINITY, f64::min)
        }
        Better::Higher => {
            b.iter().copied().fold(f64::INFINITY, f64::min)
                > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    };
    let noisy = [a, b]
        .iter()
        .any(|set| spread(set).is_some_and(|s| s > bound));
    let verdict = if noisy && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Compares set B against set A. Returns the printed table and whether
/// every pair passed: no regression, nothing unresolved or missing, no
/// rise in the failed share, and the same `sim_digest` wherever both
/// sets ran the same workload and seed.
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<20} {:<13} {:>13} {:>13} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    let percent =
        |share: Option<f64>| share.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    for workload in Workload::ALL {
        for metric in END_TO_END {
            // End-to-end metrics never come from a traced run.
            let values = |set: &[RunRecord]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == workload.name() && !r.traced)
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let (verdict, worse_by) = judge(&va, &vb, metric.better, metric.bound);
            pass &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<20} {:<13} {:>13.6} {:>13.6} {:>8.1}% {:>6.0}% {:>8} {:>8}  {}",
                workload.name(),
                metric.name,
                median(&va),
                median(&vb),
                100.0 * worse_by,
                100.0 * metric.bound,
                percent(spread(&va)),
                percent(spread(&vb)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Missing => "MISSING",
                }
            );
        }

        // Failures count against attempts, traced runs included.
        let failed_share = |set: &[RunRecord]| {
            let runs: Vec<&RunRecord> = set
                .iter()
                .filter(|r| r.workload == workload.name())
                .collect();
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (failed_share(a), failed_share(b));
        let rose = fb > fa;
        pass &= !rose;
        let _ = writeln!(
            out,
            "{:<20} {:<13} {:>13.6} {:>13.6} {:>9} {:>7} {:>8} {:>8}  {}",
            workload.name(),
            "failed_share",
            fa,
            fb,
            "",
            "0%",
            "",
            "",
            if rose { "ROSE" } else { "ok" }
        );

        // Simulated statistics must be identical: same workload and
        // seed, same digest — within a set and across the two.
        let mut digests: BTreeMap<u64, &str> = BTreeMap::new();
        let mut compared = 0;
        let mut changed = Vec::new();
        for run in a.iter().chain(b).filter(|r| r.workload == workload.name()) {
            match digests.get(&run.seed) {
                None => {
                    digests.insert(run.seed, &run.digest);
                }
                Some(&seen) => {
                    compared += 1;
                    if seen != run.digest && !changed.contains(&run.seed) {
                        changed.push(run.seed);
                    }
                }
            }
        }
        pass &= changed.is_empty();
        let _ = writeln!(
            out,
            "{:<20} {:<13} {} seed(s), {} repeat(s) compared  {}",
            workload.name(),
            "sim_digest",
            digests.len(),
            compared,
            if changed.is_empty() {
                "identical".to_string()
            } else {
                format!("CHANGED on seed(s) {changed:?}")
            }
        );
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, walls: &[f64], failed: u64, digest: &str) -> String {
        let mut text = String::from("   Compiling noc-benchmark\n");
        for (i, wall) in walls.iter().enumerate() {
            text.push_str(&format!(
                "{{\"workload\":\"{workload}\",\"seed\":{i},\"trace\":0,\"sim_digest\":\"{digest}\"}}\n"
            ));
            text.push_str(&format!(
                "{{\"correct\":{},\"attempted\":10,\"failed\":{failed},\"metrics\":{{\
                 \"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}},\
                 \"ns_per_event\":{{\"value\":100.0,\"unit\":\"ns\"}},\
                 \"peak_rss_mb\":{{\"value\":64.0,\"unit\":\"MB\"}},\
                 \"setup_s\":{{\"value\":0.5,\"unit\":\"s\"}}}}}}\n",
                failed == 0
            ));
        }
        text
    }

    fn all_workloads(walls: &[f64], failed: u64, digest: &str) -> Vec<RunRecord> {
        let text: String = Workload::ALL
            .iter()
            .map(|w| set(w.name(), walls, failed, digest))
            .collect();
        read_runs(&text).expect("well-formed set")
    }

    #[test]
    fn reads_runs_and_skips_chatter() {
        let runs = read_runs(&set("flood64_clean", &[1.0, 1.1], 0, "abc")).expect("parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].workload, "flood64_clean");
        assert_eq!((runs[1].seed, runs[1].traced), (1, false));
        assert_eq!(runs[1].metrics["wall_s"], 1.1);
        assert_eq!(runs[1].metrics.len(), 4);
        let orphan = "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n";
        assert!(read_runs(orphan).is_err());
    }

    #[test]
    fn a_set_agrees_with_itself() {
        let a = all_workloads(&[1.0, 1.01, 0.99, 1.0], 0, "abc");
        let (table, pass) = compare(&a, &a);
        assert!(pass, "{table}");
        assert!(table.contains("identical"));
    }

    #[test]
    fn a_slowdown_beyond_the_bound_fails() {
        let a = all_workloads(&[1.0, 1.01, 0.99, 1.0], 0, "abc");
        let b = all_workloads(&[1.4, 1.41, 1.39, 1.4], 0, "abc");
        let (table, pass) = compare(&a, &b);
        assert!(!pass);
        assert!(table.contains("REGRESSED"), "{table}");
        // The other way round it is a gain, not a regression.
        assert!(compare(&b, &a).1);
    }

    #[test]
    fn a_noisy_pair_is_unresolved_unless_every_run_is_better() {
        let bound = 0.1;
        let noisy = [1.0, 1.5, 0.7, 1.2];
        let (verdict, _) = judge(&noisy, &[1.0, 1.0, 1.0, 1.0], Better::Lower, bound);
        assert_eq!(verdict, Verdict::Unresolved);
        let (verdict, _) = judge(&noisy, &[0.5, 0.6, 0.5, 0.6], Better::Lower, bound);
        assert_eq!(verdict, Verdict::Ok);
        let (verdict, _) = judge(&[], &[1.0], Better::Lower, bound);
        assert_eq!(verdict, Verdict::Missing);
        let (verdict, worse_by) = judge(&[10.0, 10.0], &[8.0, 8.0], Better::Higher, bound);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_rise_in_failures_or_a_changed_digest_fails() {
        let a = all_workloads(&[1.0, 1.0], 0, "abc");
        let (table, pass) = compare(&a, &all_workloads(&[1.0, 1.0], 1, "abc"));
        assert!(!pass && table.contains("ROSE"), "{table}");
        let (table, pass) = compare(&a, &all_workloads(&[1.0, 1.0], 0, "abd"));
        assert!(!pass && table.contains("CHANGED"), "{table}");
    }
}
