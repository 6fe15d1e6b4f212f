//! **Figure 5-3** — on-chip diversity: latency and message transmissions
//! of the flat NoC, the hierarchical NoC, and bus-connected NoCs under
//! identical beamforming traffic.
//!
//! Expected shapes from the paper: the hierarchical NoC has the lowest
//! number of message transmissions (lowest power); the flat NoC has a
//! slightly better latency; the bus-connected hybrid is less efficient
//! than both.

use noc_diversity::{
    compare_architectures, ArchitectureKind, ArchitectureResult, ComparisonParams,
};

use crate::{Scale, TrialRunner};

/// Aggregated result per architecture, with the benign baseline and a
/// hostile column (same workload under the adversarial template of
/// [`ComparisonParams::hostile`]).
#[derive(Debug, Clone)]
pub struct DiversityRow {
    /// Which fabric.
    pub kind: ArchitectureKind,
    /// Mean latency in rounds.
    pub latency_rounds: f64,
    /// Mean message transmissions.
    pub transmissions: f64,
    /// Fraction of runs completed.
    pub completion_ratio: f64,
    /// Mean latency under the hostile scenario.
    pub hostile_latency_rounds: f64,
    /// Mean message transmissions under the hostile scenario.
    pub hostile_transmissions: f64,
    /// Fraction of hostile runs completed.
    pub hostile_completion_ratio: f64,
}

/// One sweep (benign or hostile) aggregated per architecture kind.
fn sweep(label: &'static str, base: &ComparisonParams, reps: u64) -> Vec<Vec<ArchitectureResult>> {
    let runs = TrialRunner::for_figure(label, reps).run(|seed| {
        let params = ComparisonParams {
            seed,
            ..base.clone()
        };
        compare_architectures(&params)
    });
    let mut acc: Vec<Vec<ArchitectureResult>> = vec![Vec::new(), Vec::new(), Vec::new()];
    let kinds = [
        ArchitectureKind::Flat,
        ArchitectureKind::Hierarchical,
        ArchitectureKind::BusConnected,
    ];
    for results in runs {
        for result in results {
            let slot = kinds
                .iter()
                .position(|k| *k == result.kind)
                .expect("known kind");
            acc[slot].push(result);
        }
    }
    acc
}

/// Runs the Figure 5-3 comparison over several seeds, benign and
/// hostile.
pub fn run(scale: Scale) -> Vec<DiversityRow> {
    let base = match scale {
        Scale::Quick => ComparisonParams::quick(),
        Scale::Full => ComparisonParams::paper_scale(),
    };
    let reps = scale.repetitions();
    let benign = sweep("fig5-3", &base, reps);
    let hostile = sweep("fig5-3-hostile", &base.clone().hostile(), reps);
    let kinds = [
        ArchitectureKind::Flat,
        ArchitectureKind::Hierarchical,
        ArchitectureKind::BusConnected,
    ];
    kinds
        .iter()
        .zip(benign)
        .zip(hostile)
        .map(|((&kind, results), hostile_results)| {
            let n = results.len() as f64;
            let h = hostile_results.len() as f64;
            DiversityRow {
                kind,
                latency_rounds: results.iter().map(|r| r.latency_rounds as f64).sum::<f64>() / n,
                transmissions: results.iter().map(|r| r.transmissions as f64).sum::<f64>() / n,
                completion_ratio: results.iter().filter(|r| r.completed).count() as f64 / n,
                hostile_latency_rounds: hostile_results
                    .iter()
                    .map(|r| r.latency_rounds as f64)
                    .sum::<f64>()
                    / h,
                hostile_transmissions: hostile_results
                    .iter()
                    .map(|r| r.transmissions as f64)
                    .sum::<f64>()
                    / h,
                hostile_completion_ratio: hostile_results.iter().filter(|r| r.completed).count()
                    as f64
                    / h,
            }
        })
        .collect()
}

/// Prints both bar charts of Figure 5-3, plus the hostile column.
pub fn print(rows: &[DiversityRow]) {
    crate::stats::print_table_header(
        "Figure 5-3: on-chip diversity architecture comparison (beamforming)",
        &[
            "architecture",
            "latency [rounds]",
            "message transmissions",
            "completion",
            "hostile latency",
            "hostile transmissions",
            "hostile completion",
        ],
    );
    for r in rows {
        println!(
            "{}\t{:.1}\t{:.0}\t{:.2}\t{:.1}\t{:.0}\t{:.2}",
            r.kind.name(),
            r.latency_rounds,
            r.transmissions,
            r.completion_ratio,
            r.hostile_latency_rounds,
            r.hostile_transmissions,
            r.hostile_completion_ratio,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_kind(rows: &[DiversityRow], kind: ArchitectureKind) -> &DiversityRow {
        rows.iter().find(|r| r.kind == kind).expect("present")
    }

    #[test]
    fn hierarchical_transmits_least() {
        let rows = run(Scale::Quick);
        let hier = by_kind(&rows, ArchitectureKind::Hierarchical);
        let flat = by_kind(&rows, ArchitectureKind::Flat);
        assert!(
            hier.transmissions < flat.transmissions,
            "hierarchical {} vs flat {}",
            hier.transmissions,
            flat.transmissions
        );
    }

    #[test]
    fn flat_has_best_latency_and_bus_is_worst() {
        let rows = run(Scale::Quick);
        let flat = by_kind(&rows, ArchitectureKind::Flat).latency_rounds;
        let hier = by_kind(&rows, ArchitectureKind::Hierarchical).latency_rounds;
        let bus = by_kind(&rows, ArchitectureKind::BusConnected).latency_rounds;
        assert!(flat <= hier, "flat {flat} vs hierarchical {hier}");
        assert!(bus >= hier, "bus {bus} vs hierarchical {hier}");
    }

    #[test]
    fn hostile_column_is_populated() {
        let rows = run(Scale::Quick);
        for r in &rows {
            assert!(
                r.hostile_transmissions > 0.0,
                "{:?} hostile sweep moved no traffic",
                r.kind
            );
            assert!(r.hostile_latency_rounds > 0.0);
            assert!((0.0..=1.0).contains(&r.hostile_completion_ratio));
        }
    }
}
