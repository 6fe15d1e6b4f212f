//! Simulation outcome metrics: latency, traffic, energy, fault counters.

use std::fmt;

use noc_energy::{communication_energy, Bits, Joules, TechnologyLibrary};
use noc_fabric::{MessageId, NodeId};

/// Lifecycle record of one logical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRecord {
    /// The message's id.
    pub id: MessageId,
    /// Originating tile.
    pub source: NodeId,
    /// Destination tile.
    pub destination: NodeId,
    /// Round at which the message entered the network.
    pub injected_round: u64,
    /// Round at which the destination first received it, if ever.
    pub delivered_round: Option<u64>,
    /// Wire size of the message's frames.
    pub frame_bits: Bits,
}

impl MessageRecord {
    /// Delivery latency in rounds, if delivered.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_round.map(|d| d - self.injected_round)
    }
}

/// Aggregated result of a simulation run.
///
/// # Examples
///
/// ```
/// use noc_fabric::{Grid2d, NodeId};
/// use stochastic_noc::SimulationBuilder;
///
/// let mut sim = SimulationBuilder::new(Grid2d::new(4, 4)).seed(1).build();
/// let m = sim.inject(NodeId(0), NodeId(15), vec![42]);
/// let report = sim.run();
/// assert_eq!(report.messages_injected(), 1);
/// if report.delivered(m) {
///     assert!(report.average_latency().unwrap() >= 1.0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Rounds executed before stopping.
    pub rounds_executed: u64,
    /// True if the run stopped because every IP reported done (rather
    /// than exhausting the round budget).
    pub completed: bool,
    /// Total frame transmissions over links (each hop counts).
    pub packets_sent: u64,
    /// Total bits moved over links.
    pub bits_sent: Bits,
    /// Upset packets receive discards: those the CRC check caught, and
    /// those it passed whose body then failed to parse.
    pub upsets_detected: u64,
    /// Scrambled packets that passed the CRC check (residual errors).
    pub upsets_undetected: u64,
    /// Packets lost to buffer overflow (probabilistic or structural).
    pub overflow_drops: u64,
    /// Packets lost because they arrived at a dead tile or crossed a dead
    /// link.
    pub crash_drops: u64,
    /// Round-boundary slips caused by synchronization errors.
    pub clock_slips: u64,
    /// Messages garbage-collected by TTL expiry, summed over all tiles.
    pub ttl_expirations: u64,
    /// Packets lost because they were forwarded onto a partitioned link.
    pub partition_drops: u64,
    /// CRC-valid forged frames emitted by Byzantine tiles.
    pub byzantine_forges: u64,
    /// Stale frames replayed by Byzantine tiles.
    pub byzantine_replays: u64,
    /// Frames held back one round by adversarial latency jitter.
    pub adversarial_delays: u64,
    /// Frames that jumped a receive queue through adversarial reordering.
    pub adversarial_reorders: u64,
    /// Rounds that ended with zero live messages while the run was still
    /// incomplete (frames in the arrival delay line, or IPs not done) —
    /// the active-frontier worklist's O(active) fast-path rounds.
    pub quiescent_rounds: u64,
    /// Per-message lifecycle records, ordered by id so [`Self::records`]
    /// iterates identically however messages were injected or merged.
    records: Records,
    /// Technology used for energy conversion.
    tech: TechnologyLibrary,
}

impl SimulationReport {
    /// Creates an empty report (engine-side constructor).
    pub fn new(tech: TechnologyLibrary) -> Self {
        Self {
            rounds_executed: 0,
            completed: false,
            packets_sent: 0,
            bits_sent: Bits(0),
            upsets_detected: 0,
            upsets_undetected: 0,
            overflow_drops: 0,
            crash_drops: 0,
            clock_slips: 0,
            ttl_expirations: 0,
            partition_drops: 0,
            byzantine_forges: 0,
            byzantine_replays: 0,
            adversarial_delays: 0,
            adversarial_reorders: 0,
            quiescent_rounds: 0,
            records: Records::default(),
            tech,
        }
    }

    /// Registers an injected message (engine-side), replacing any record
    /// of the same id. An id above every recorded one is appended.
    pub fn record_injection(&mut self, record: MessageRecord) {
        self.records.insert(record);
    }

    /// Marks first delivery of a message (engine-side). Later calls for
    /// the same id are ignored. Returns `true` exactly when this call
    /// marked the delivery — the engine emits one `Delivery` event per
    /// `true`, so event counts reconcile with
    /// [`SimulationReport::messages_delivered`].
    pub fn record_delivery(&mut self, id: MessageId, round: u64) -> bool {
        if let Some(r) = self.records.get_mut(id) {
            if r.delivered_round.is_none() {
                r.delivered_round = Some(round);
                return true;
            }
        }
        false
    }

    /// Number of messages injected into the network.
    pub fn messages_injected(&self) -> usize {
        self.records.0.len()
    }

    /// Number of messages that reached their destination.
    pub fn messages_delivered(&self) -> usize {
        self.records()
            .filter(|r| r.delivered_round.is_some())
            .count()
    }

    /// Fraction of injected messages delivered (1.0 for an empty run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.records.0.is_empty() {
            1.0
        } else {
            self.messages_delivered() as f64 / self.records.0.len() as f64
        }
    }

    /// Was this message delivered?
    pub fn delivered(&self, id: MessageId) -> bool {
        self.record(id).is_some_and(|r| r.delivered_round.is_some())
    }

    /// Latency in rounds of a delivered message.
    pub fn latency(&self, id: MessageId) -> Option<u64> {
        self.record(id).and_then(MessageRecord::latency)
    }

    /// The record of a message.
    pub fn record(&self, id: MessageId) -> Option<&MessageRecord> {
        self.records.get(id)
    }

    /// Iterates over all message records in ascending id order.
    pub fn records(&self) -> impl Iterator<Item = &MessageRecord> {
        self.records.0.iter()
    }

    /// Mean delivery latency over delivered messages, in rounds.
    pub fn average_latency(&self) -> Option<f64> {
        let latencies: Vec<u64> = self.records().filter_map(MessageRecord::latency).collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
        }
    }

    /// Worst delivery latency over delivered messages, in rounds.
    pub fn max_latency(&self) -> Option<u64> {
        self.records().filter_map(MessageRecord::latency).max()
    }

    /// Total communication energy under Equation 3.
    pub fn total_energy(&self) -> Joules {
        communication_energy(self.bits_sent.bits(), Bits(1), self.tech.energy_per_bit)
    }

    /// The technology point energy figures use.
    pub fn technology(&self) -> &TechnologyLibrary {
        &self.tech
    }
}

/// Message records in one `Vec`, strictly ascending by id: a map from id
/// to record at the record's own size. Ids arrive in ascending order from
/// every engine, oracle and restore, so an insert is an append; any other
/// order binary-searches and inserts or replaces, as a map would.
#[derive(Clone, Default)]
struct Records(Vec<MessageRecord>);

impl Records {
    /// Files `record` under its id, replacing a record already there.
    fn insert(&mut self, record: MessageRecord) {
        if self.0.last().is_none_or(|last| last.id < record.id) {
            self.0.push(record);
            return;
        }
        match self.position(record.id) {
            Ok(at) => self.0[at] = record,
            Err(at) => self.0.insert(at, record),
        }
    }

    fn get(&self, id: MessageId) -> Option<&MessageRecord> {
        self.position(id).ok().map(|at| &self.0[at])
    }

    fn get_mut(&mut self, id: MessageId) -> Option<&mut MessageRecord> {
        self.position(id).ok().map(|at| &mut self.0[at])
    }

    fn position(&self, id: MessageId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |r| r.id)
    }
}

/// Renders as the `BTreeMap<MessageId, MessageRecord>` the records once
/// were, so a report's `Debug` text (and every digest of it) is unchanged.
impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|r| (&r.id, r)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn record(id: u64, injected: u64) -> MessageRecord {
        MessageRecord {
            id: MessageId(id),
            source: NodeId(0),
            destination: NodeId(1),
            injected_round: injected,
            delivered_round: None,
            frame_bits: Bits(100),
        }
    }

    fn report() -> SimulationReport {
        SimulationReport::new(TechnologyLibrary::NOC_LINK_0_25UM)
    }

    #[test]
    fn empty_report_statistics() {
        let r = report();
        assert_eq!(r.messages_injected(), 0);
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.average_latency(), None);
        assert_eq!(r.max_latency(), None);
        assert_eq!(r.total_energy(), Joules::ZERO);
    }

    #[test]
    fn delivery_bookkeeping() {
        let mut r = report();
        r.record_injection(record(1, 2));
        r.record_injection(record(2, 0));
        r.record_delivery(MessageId(1), 5);
        assert!(r.delivered(MessageId(1)));
        assert!(!r.delivered(MessageId(2)));
        assert_eq!(r.latency(MessageId(1)), Some(3));
        assert_eq!(r.delivery_ratio(), 0.5);
        assert_eq!(r.average_latency(), Some(3.0));
        assert_eq!(r.max_latency(), Some(3));
    }

    #[test]
    fn first_delivery_wins() {
        let mut r = report();
        r.record_injection(record(1, 0));
        r.record_delivery(MessageId(1), 4);
        r.record_delivery(MessageId(1), 9);
        assert_eq!(r.latency(MessageId(1)), Some(4));
    }

    #[test]
    fn delivery_of_unknown_message_is_ignored() {
        let mut r = report();
        r.record_delivery(MessageId(42), 1);
        assert!(!r.delivered(MessageId(42)));
        assert_eq!(r.messages_injected(), 0);
    }

    #[test]
    fn energy_follows_bits_sent() {
        let mut r = report();
        r.bits_sent = Bits(1_000);
        let expect = 1000.0 * 2.4e-10;
        assert!((r.total_energy().joules() - expect).abs() < 1e-15);
    }

    #[test]
    fn record_view_is_independent_of_insertion_order() {
        // Regression for the map-iteration-order invariant: the records
        // view (which digests, tables and JSON reports iterate) must not
        // depend on the order messages were injected or delivery marks
        // arrived — BTreeMap keys it by id.
        let ids: Vec<u64> = vec![9, 2, 17, 4, 0, 12, 7];
        let mut forward = report();
        for &id in &ids {
            forward.record_injection(record(id, id % 3));
        }
        let mut reversed = report();
        for &id in ids.iter().rev() {
            reversed.record_injection(record(id, id % 3));
        }
        for (i, &id) in ids.iter().enumerate() {
            forward.record_delivery(MessageId(id), 10 + i as u64);
        }
        for (i, &id) in ids.iter().enumerate().collect::<Vec<_>>().into_iter().rev() {
            reversed.record_delivery(MessageId(id), 10 + i as u64);
        }
        let f: Vec<_> = forward.records().collect();
        let r: Vec<_> = reversed.records().collect();
        assert_eq!(f, r, "iteration order must be by id, not insertion");
        let sorted: Vec<u64> = f.iter().map(|rec| rec.id.0).collect();
        let mut expect = ids.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(forward.average_latency(), reversed.average_latency());
    }

    #[test]
    fn average_over_multiple_messages() {
        let mut r = report();
        for (id, inj, del) in [(1, 0, 2), (2, 0, 4), (3, 1, 7)] {
            r.record_injection(record(id, inj));
            r.record_delivery(MessageId(id), del);
        }
        assert_eq!(r.average_latency(), Some((2.0 + 4.0 + 6.0) / 3.0));
        assert_eq!(r.max_latency(), Some(6));
    }

    proptest! {
        /// Arbitrary, sorted, reversed and repeated ids, deliveries of
        /// unknown ids and repeated deliveries: the flat records answer
        /// every query as the `BTreeMap` they replaced, and print as it.
        #[test]
        fn records_agree_with_a_btreemap_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..24, 0u64..40), 0..60),
            order in 0u8..3,
        ) {
            let mut ops = ops;
            match order {
                1 => ops.sort_by_key(|&(_, id, _)| id),
                2 => ops.sort_by_key(|&(_, id, _)| std::cmp::Reverse(id)),
                _ => {}
            }
            let mut r = report();
            let mut model: BTreeMap<MessageId, MessageRecord> = BTreeMap::new();
            for (inject, id, round) in ops {
                let id = MessageId(id);
                if inject {
                    // A replacement differs from the record it replaces.
                    let rec = MessageRecord {
                        source: NodeId(round as usize),
                        ..record(id.0, round % 10)
                    };
                    r.record_injection(rec);
                    model.insert(id, rec);
                } else {
                    let round = 10 + round;
                    let want = match model.get_mut(&id) {
                        Some(m) if m.delivered_round.is_none() => {
                            m.delivered_round = Some(round);
                            true
                        }
                        _ => false,
                    };
                    prop_assert_eq!(r.record_delivery(id, round), want);
                }
            }
            for id in (0..26).map(MessageId) {
                let want = model.get(&id);
                prop_assert_eq!(r.record(id), want);
                prop_assert_eq!(r.delivered(id), want.is_some_and(|m| m.delivered_round.is_some()));
                prop_assert_eq!(r.latency(id), want.and_then(MessageRecord::latency));
            }
            prop_assert!(r.records().eq(model.values()));
            prop_assert_eq!(r.messages_injected(), model.len());
            let delivered = model.values().filter(|m| m.delivered_round.is_some()).count();
            prop_assert_eq!(r.messages_delivered(), delivered);
            prop_assert_eq!(format!("{:?}", r.records), format!("{model:?}"));
            prop_assert_eq!(format!("{:#?}", r.records), format!("{model:#?}"));
        }
    }
}
