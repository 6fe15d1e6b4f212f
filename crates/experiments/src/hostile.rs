//! **Hostile scenario sweep** — ch. 5 style comparison of the gossip
//! protocol under the adversarial fault taxonomy: transient partitions,
//! permanent link/tile death, chaos jitter (latency + reordering), and
//! Byzantine tiles that forge or replay CRC-valid frames.
//!
//! Each scenario replays the identical corner-to-corner workload on a
//! grid; every trial runs with a `CounterSink` and is reconciled
//! against its report, so the table doubles as an end-to-end audit of
//! the adversarial event plumbing.
//!
//! Given a trace path (`--trace-events PATH`), trial 0 of the
//! `combined` scenario streams its full event log there as JSON Lines.
//! Given a reconciliation path (`--reconcile-json PATH`), the merged
//! event-counter totals and report counters of every scenario are
//! written there as a JSON document.

use std::fs::File;
use std::io::{BufWriter, Write};

use noc_fabric::{NodeId, Topology};
use noc_faults::{AdversarialScenario, ByzantineMode, ErrorModel, FaultModel};
use stochastic_noc::events::{CounterSink, EventCounts, EventSink, JsonlSink, TeeSink};
use stochastic_noc::{Simulation, SimulationBuilder, SimulationReport};

use crate::{Scale, TrialRunner};

/// Aggregated outcome of one adversarial scenario.
#[derive(Debug, Clone)]
pub struct HostileRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Fraction of messages delivered, averaged over trials.
    pub delivery_ratio: f64,
    /// Mean delivery latency in rounds (delivered messages only).
    pub latency_rounds: f64,
    /// Mean packet transmissions per trial.
    pub packets: f64,
    /// Total partition drops over all trials.
    pub partition_drops: u64,
    /// Total Byzantine frames (forges + replays) over all trials.
    pub byzantine_frames: u64,
    /// Total chaos interventions (delays + reorders) over all trials.
    pub chaos_interventions: u64,
    /// Total crash drops (includes permanent death) over all trials.
    pub crash_drops: u64,
    /// Merged event-counter totals over all trials.
    pub event_totals: EventCounts,
    /// Summed report counters over all trials, for the reconciliation
    /// artifact: `(partition, forges, replays, delays, reorders,
    /// crash)`.
    pub report_totals: (u64, u64, u64, u64, u64, u64),
}

/// The named scenario grammar the sweep walks. `baseline` comes first
/// so the hostile deltas read against it.
pub fn scenarios() -> Vec<(&'static str, AdversarialScenario)> {
    vec![
        ("baseline", AdversarialScenario::benign()),
        (
            "partition-heal",
            AdversarialScenario::builder()
                .cut_links(20..28, 3, Some(9))
                .build()
                .expect("valid"),
        ),
        (
            "permanent-death",
            AdversarialScenario::builder()
                .kill_tile(14, 2)
                .kill_tile(21, 6)
                .kill_link(40, 0)
                .build()
                .expect("valid"),
        ),
        (
            "chaos-jitter",
            AdversarialScenario::builder()
                .delay_probability(0.15)
                .reorder_probability(0.2)
                .build()
                .expect("valid"),
        ),
        (
            "byzantine-forge",
            AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.5)
                .build()
                .expect("valid"),
        ),
        (
            "byzantine-replay",
            AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Replay)
                .byzantine_activation(0.5)
                .byzantine_until(Some(20))
                .build()
                .expect("valid"),
        ),
        (
            "combined",
            AdversarialScenario::builder()
                .cut_links([10, 11], 2, Some(7))
                .kill_tile(20, 4)
                .delay_probability(0.1)
                .reorder_probability(0.1)
                .byzantine_tile(13)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.4)
                .build()
                .expect("valid"),
        ),
    ]
}

fn builder(scale: Scale, adversary: &AdversarialScenario, seed: u64) -> SimulationBuilder {
    let side = match scale {
        Scale::Quick => 6,
        Scale::Full => 8,
    };
    let model = FaultModel::builder()
        .p_upset(0.05)
        .sigma_synch(0.2)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .expect("valid model");
    let mut builder = SimulationBuilder::new(Topology::grid(side, side))
        .forward_probability(0.6)
        .ttl(15)
        .max_rounds(60)
        .fault_model(model)
        .adversary(adversary.clone())
        .seed(seed);
    if let Some(obs) = crate::runner::engine_obs() {
        builder = builder.obs(obs);
    }
    builder
}

fn inject_workload(sim: &mut Simulation<impl EventSink>, side: usize) {
    let n = side * side;
    sim.inject(NodeId(0), NodeId(n - 1), b"hostile sweep".to_vec());
    sim.inject(NodeId(side - 1), NodeId(n - side), b"cross".to_vec());
}

fn run_one(
    scale: Scale,
    adversary: &AdversarialScenario,
    seed: u64,
) -> (SimulationReport, CounterSink) {
    let side = match scale {
        Scale::Quick => 6,
        Scale::Full => 8,
    };
    let mut sim = builder(scale, adversary, seed).build_with_sink(CounterSink::new());
    inject_workload(&mut sim, side);
    let report = sim.run();
    let counters = sim.into_sink();
    counters
        .reconcile(&report)
        .unwrap_or_else(|m| panic!("hostile trial failed reconciliation: {m}"));
    (report, counters)
}

/// Runs every scenario over the sweep's seeds; with a `trace` path, the
/// `combined` scenario's trial 0 streams its events there, and with a
/// `reconcile_json` path the reconciliation summary is written there.
pub fn run(scale: Scale, trace: Option<&str>, reconcile_json: Option<&str>) -> Vec<HostileRow> {
    let side = match scale {
        Scale::Quick => 6,
        Scale::Full => 8,
    };
    let reps = scale.repetitions();
    let mut rows = Vec::new();
    for (name, adversary) in scenarios() {
        let results: Vec<(SimulationReport, CounterSink)> =
            TrialRunner::for_figure(&format!("hostile-{name}"), reps).run_indexed(|index, seed| {
                if let (Some(path), 0, "combined") = (trace, index, name) {
                    // The traced trial runs ONCE with a tee: the JSONL
                    // stream and the row's reconciled CounterSink observe
                    // the same event sequence from the same run.
                    let file = File::create(path).unwrap_or_else(|e| {
                        crate::runner::output_failed("--trace-events", path, &e)
                    });
                    let tee =
                        TeeSink::new(JsonlSink::new(BufWriter::new(file)), CounterSink::new());
                    let mut sim = builder(scale, &adversary, seed).build_with_sink(tee);
                    inject_workload(&mut sim, side);
                    let report = sim.run();
                    let (jsonl, counters) = sim.into_sink().into_parts();
                    let events = jsonl.events_written();
                    let _ = jsonl.into_inner(); // flushes
                    eprintln!("[trace] hostile/combined trial 0: {events} events -> {path}");
                    counters.reconcile(&report).unwrap_or_else(|m| {
                        panic!("hostile traced trial failed reconciliation: {m}")
                    });
                    return (report, counters);
                }
                run_one(scale, &adversary, seed)
            });
        let n = results.len() as f64;
        let mut merged = CounterSink::new();
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut latency_sum = 0.0;
        let mut latency_trials = 0u64;
        let mut packets = 0u64;
        let mut report_totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for (report, counters) in &results {
            merged.merge(counters);
            injected += report.messages_injected() as u64;
            delivered += report.messages_delivered() as u64;
            if let Some(latency) = report.average_latency() {
                latency_sum += latency;
                latency_trials += 1;
            }
            packets += report.packets_sent;
            report_totals.0 += report.partition_drops;
            report_totals.1 += report.byzantine_forges;
            report_totals.2 += report.byzantine_replays;
            report_totals.3 += report.adversarial_delays;
            report_totals.4 += report.adversarial_reorders;
            report_totals.5 += report.crash_drops;
        }
        let totals = *merged.totals();
        rows.push(HostileRow {
            scenario: name,
            delivery_ratio: if injected == 0 {
                1.0
            } else {
                delivered as f64 / injected as f64
            },
            latency_rounds: if latency_trials == 0 {
                0.0
            } else {
                latency_sum / latency_trials as f64
            },
            packets: packets as f64 / n,
            partition_drops: totals.partition_drops,
            byzantine_frames: totals.byzantine_forges + totals.byzantine_replays,
            chaos_interventions: totals.adversarial_delays + totals.adversarial_reorders,
            crash_drops: totals.crash_drops,
            event_totals: totals,
            report_totals,
        });
    }
    if let Some(path) = reconcile_json {
        write_reconcile_json(path, &rows)
            .unwrap_or_else(|e| crate::runner::output_failed("--reconcile-json", path, &e));
        eprintln!("[reconcile] hostile: {} scenarios -> {path}", rows.len());
    }
    rows
}

/// Writes the hand-rolled reconciliation artifact: per scenario, the
/// merged event-counter totals next to the summed report counters. CI
/// parses this to prove the two bookkeeping paths agree.
fn write_reconcile_json(path: &str, rows: &[HostileRow]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{{\"figure\":\"hostile\",\"scenarios\":[")?;
    for (i, row) in rows.iter().enumerate() {
        let t = &row.event_totals;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"scenario\":\"{}\",\"events\":{{\"partition_drops\":{},\"byzantine_forges\":{},\"byzantine_replays\":{},\"adversarial_delays\":{},\"adversarial_reorders\":{},\"crash_drops\":{}}},\"report\":{{\"partition_drops\":{},\"byzantine_forges\":{},\"byzantine_replays\":{},\"adversarial_delays\":{},\"adversarial_reorders\":{},\"crash_drops\":{}}},\"reconciled\":true}}{}",
            row.scenario,
            t.partition_drops,
            t.byzantine_forges,
            t.byzantine_replays,
            t.adversarial_delays,
            t.adversarial_reorders,
            t.crash_drops,
            row.report_totals.0,
            row.report_totals.1,
            row.report_totals.2,
            row.report_totals.3,
            row.report_totals.4,
            row.report_totals.5,
            comma,
        )?;
    }
    writeln!(out, "]}}")?;
    Ok(())
}

/// Prints the hostile comparison table.
pub fn print(rows: &[HostileRow]) {
    crate::stats::print_table_header(
        "Hostile scenarios: gossip under partitions, permanent death, chaos and Byzantine tiles",
        &[
            "scenario",
            "delivery",
            "latency [rounds]",
            "packets",
            "partition drops",
            "byzantine frames",
            "chaos holds",
            "crash drops",
        ],
    );
    for r in rows {
        println!(
            "{}\t{:.2}\t{:.1}\t{:.0}\t{}\t{}\t{}\t{}",
            r.scenario,
            r.delivery_ratio,
            r.latency_rounds,
            r.packets,
            r.partition_drops,
            r.byzantine_frames,
            r.chaos_interventions,
            r.crash_drops,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_row_is_clean_and_hostile_rows_fire() {
        let rows = run(Scale::Quick, None, None);
        assert_eq!(rows[0].scenario, "baseline");
        assert_eq!(rows[0].partition_drops, 0);
        assert_eq!(rows[0].byzantine_frames, 0);
        assert_eq!(rows[0].chaos_interventions, 0);

        let by_name = |name: &str| {
            rows.iter()
                .find(|r| r.scenario == name)
                .expect("scenario present")
        };
        assert!(by_name("partition-heal").partition_drops > 0);
        assert!(by_name("permanent-death").crash_drops > 0);
        assert!(by_name("chaos-jitter").chaos_interventions > 0);
        assert!(by_name("byzantine-forge").byzantine_frames > 0);
        assert!(by_name("byzantine-replay").byzantine_frames > 0);
        let combined = by_name("combined");
        assert!(combined.partition_drops > 0);
        assert!(combined.byzantine_frames > 0);
        assert!(combined.chaos_interventions > 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(Scale::Quick, None, None);
        let b = run(Scale::Quick, None, None);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.packets, y.packets);
            assert_eq!(x.partition_drops, y.partition_drops);
            assert_eq!(x.byzantine_frames, y.byzantine_frames);
            assert_eq!(x.chaos_interventions, y.chaos_interventions);
        }
    }

    #[test]
    fn event_totals_match_report_totals() {
        for row in run(Scale::Quick, None, None) {
            let t = &row.event_totals;
            assert_eq!(
                (
                    t.partition_drops,
                    t.byzantine_forges,
                    t.byzantine_replays,
                    t.adversarial_delays,
                    t.adversarial_reorders,
                    t.crash_drops,
                ),
                row.report_totals,
                "scenario {}",
                row.scenario
            );
        }
    }

    #[test]
    fn reconcile_json_artifact_is_written() {
        let dir = std::env::temp_dir().join("hostile_reconcile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reconcile.json");
        let rows = run(Scale::Quick, None, path.to_str());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"figure\":\"hostile\""));
        assert!(text.contains("\"reconciled\":true"));
        for row in &rows {
            assert!(text.contains(&format!("\"scenario\":\"{}\"", row.scenario)));
        }
        std::fs::remove_file(&path).ok();
    }
}
