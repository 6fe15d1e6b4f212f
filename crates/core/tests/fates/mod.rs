//! Frame-fate conservation over a recording sink's totals, shared by the
//! golden and adversarial suites.

use stochastic_noc::events::CounterSink;
use stochastic_noc::{Simulation, SimulationReport};

/// Asserts that every frame a finished run sent met exactly one fate its
/// sink counted: a link drop (dead link or partition cut), an arrival-time
/// drop (dead tile or overflow), a CRC reject, a duplicate, or a first
/// sight. A completed run has nothing in flight, so nothing else is left.
///
/// A first sight is a tile joining a message's audience other than its
/// source at injection. That count is exact for these suites: no message
/// is self-addressed (a loopback frame is sent without a `FrameSent`), and
/// no undetected upset rewrites an id to one the engine never assigned.
/// An engine that skips a duplicate without emitting its `DuplicateDrop`
/// to a recording sink leaves the sum short.
pub fn assert_frame_fates_balance(
    name: &str,
    sim: &Simulation<CounterSink>,
    report: &SimulationReport,
) {
    assert!(report.completed, "{name}: frames may still be in flight");
    let first_sights: u64 = report
        .records()
        .map(|record| {
            assert_ne!(record.source, record.destination, "{name}: a loopback");
            let informed = sim.informed_count(record.id) as u64;
            informed - u64::from(sim.node_informed(record.source, record.id))
        })
        .sum();
    let totals = sim.sink().totals();
    let fates = totals.crash_drops
        + totals.partition_drops
        + totals.overflow_drops
        + totals.crc_rejects
        + totals.duplicate_drops
        + first_sights;
    assert_eq!(
        totals.frames_sent, fates,
        "{name}: frames sent against their fates ({totals:?}, {first_sights} first sights)"
    );
}
