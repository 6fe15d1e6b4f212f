//! Shared on-chip bus baseline with arbitration.
//!
//! The traditional SoC interconnect the paper compares against (§4.1.4):
//! all IP modules hang off one shared bus; a transfer occupies the bus
//! exclusively for `bits / f` seconds, so contention serializes traffic.
//! The bus is a single point of failure — if it dies, all communication
//! stops, which is exactly why the paper argues for stochastic NoCs.
//!
//! The built-in technology point is the paper's 0.25 µm extraction: a bus
//! spanning the side of the tile grid runs at 43 MHz and dissipates
//! 21.6e-10 J/bit (versus 381 MHz / 2.4e-10 for a single-tile NoC link).
//!
//! # Examples
//!
//! ```
//! use noc_bus::{Arbitration, BusConfig, BusSimulation, Transfer};
//!
//! let mut bus = BusSimulation::new(16, BusConfig::default());
//! bus.submit(Transfer::new(0, 5, 64, 0.0));
//! bus.submit(Transfer::new(1, 6, 64, 0.0));
//! let report = bus.run();
//! assert_eq!(report.completed_transfers, 2);
//! // Two 64-byte transfers serialized over one 43 MHz bus:
//! assert!(report.makespan.seconds() > 0.0);
//! # let _ = Arbitration::RoundRobin;
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

use noc_energy::{communication_energy, Bits, EnergyDelay, Joules, Seconds, TechnologyLibrary};

/// Bus arbitration policy: who wins when several masters request the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Grants rotate fairly between requesting modules.
    #[default]
    RoundRobin,
    /// Lower module index always wins (fixed priority).
    FixedPriority,
}

/// Configuration of a bus simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Electrical parameters (frequency, energy/bit).
    pub tech: TechnologyLibrary,
    /// Arbitration policy.
    pub arbitration: Arbitration,
}

impl Default for BusConfig {
    /// The paper's 0.25 µm bus point with round-robin arbitration.
    fn default() -> Self {
        Self {
            tech: TechnologyLibrary::BUS_0_25UM,
            arbitration: Arbitration::RoundRobin,
        }
    }
}

/// A requested bus transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Sending module index.
    pub source: usize,
    /// Receiving module index.
    pub destination: usize,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Time at which the request is raised, in seconds.
    pub submit_time: f64,
}

impl Transfer {
    /// Creates a transfer request.
    pub fn new(source: usize, destination: usize, bytes: usize, submit_time: f64) -> Self {
        Self {
            source,
            destination,
            bytes,
            submit_time,
        }
    }

    /// Size on the bus, in bits.
    pub fn bits(&self) -> Bits {
        Bits::from_bytes(self.bytes as u64)
    }
}

/// Outcome of one completed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTransfer {
    /// The original request.
    pub transfer: Transfer,
    /// When the bus was granted.
    pub grant_time: f64,
    /// When the last bit arrived.
    pub finish_time: f64,
}

impl CompletedTransfer {
    /// End-to-end latency (submit to last bit), in seconds.
    pub fn latency(&self) -> Seconds {
        Seconds::new(self.finish_time - self.transfer.submit_time)
    }
}

/// Aggregated result of a bus run.
#[derive(Debug, Clone)]
pub struct BusReport {
    /// Transfers that completed.
    pub completed_transfers: usize,
    /// Total bits moved over the bus.
    pub total_bits: Bits,
    /// Time at which the last transfer finished.
    pub makespan: Seconds,
    /// Per-transfer outcomes, in completion order.
    pub transfers: Vec<CompletedTransfer>,
    /// True if the bus crashed and undelivered transfers were lost.
    pub bus_failed: bool,
    tech: TechnologyLibrary,
}

impl BusReport {
    /// Mean end-to-end latency over completed transfers.
    pub fn average_latency(&self) -> Option<Seconds> {
        if self.transfers.is_empty() {
            return None;
        }
        let total: f64 = self.transfers.iter().map(|t| t.latency().seconds()).sum();
        Some(Seconds::new(total / self.transfers.len() as f64))
    }

    /// Worst end-to-end latency.
    pub fn max_latency(&self) -> Option<Seconds> {
        self.transfers
            .iter()
            .map(|t| t.latency().seconds())
            .max_by(|a, b| a.total_cmp(b))
            .map(Seconds::new)
    }

    /// Total energy under Equation 3 with the bus technology's `E_bit`.
    pub fn total_energy(&self) -> Joules {
        communication_energy(self.total_bits.bits(), Bits(1), self.tech.energy_per_bit)
    }

    /// Energy per transmitted bit.
    pub fn energy_per_bit(&self) -> Joules {
        self.tech.energy_per_bit
    }

    /// Energy×delay figure of merit (total energy × makespan).
    pub fn energy_delay(&self) -> EnergyDelay {
        noc_energy::energy_delay_product(self.total_energy(), self.makespan)
    }

    /// Bus utilization: fraction of the makespan the bus spent actually
    /// transferring bits (the remainder is idle time between bursty
    /// submissions). 0.0 for an empty run.
    pub fn utilization(&self) -> f64 {
        if self.makespan.seconds() <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .transfers
            .iter()
            .map(|t| t.finish_time - t.grant_time)
            .sum();
        busy / self.makespan.seconds()
    }
}

/// A shared-bus interconnect simulation.
///
/// Submit transfer requests, then [`BusSimulation::run`] serializes them
/// under the arbitration policy and reports latency and energy.
#[derive(Debug, Clone)]
pub struct BusSimulation {
    modules: usize,
    config: BusConfig,
    pending: Vec<Transfer>,
    failed: bool,
}

impl BusSimulation {
    /// Creates a bus with `modules` attached IP modules.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is zero.
    pub fn new(modules: usize, config: BusConfig) -> Self {
        assert!(modules > 0, "a bus needs at least one module");
        Self {
            modules,
            config,
            pending: Vec::new(),
            failed: false,
        }
    }

    /// Marks the bus as crashed: pending and future transfers are lost.
    /// Models the single-point-of-failure property of the shared medium.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Queues a transfer request.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the transfer is a
    /// self-transfer, or the submit time is negative/NaN.
    pub fn submit(&mut self, transfer: Transfer) {
        assert!(
            transfer.source < self.modules && transfer.destination < self.modules,
            "endpoint outside 0..{}",
            self.modules
        );
        assert_ne!(
            transfer.source, transfer.destination,
            "self-transfers never touch the bus"
        );
        assert!(
            transfer.submit_time >= 0.0 && !transfer.submit_time.is_nan(),
            "submit time must be non-negative"
        );
        self.pending.push(transfer);
    }

    /// Runs all queued transfers to completion and returns the report.
    ///
    /// The bus serves one transfer at a time: among the requests already
    /// submitted at the moment the bus frees up, the arbiter picks the
    /// winner; the transfer then holds the bus for `bits / f` seconds.
    /// Arbitration overhead itself is ignored, as in the paper.
    pub fn run(&mut self) -> BusReport {
        let mut pending = std::mem::take(&mut self.pending);
        let mut completed: Vec<CompletedTransfer> = Vec::new();
        let mut total_bits = Bits(0);
        let mut now = 0.0_f64;
        let mut rr_next = 0usize; // round-robin pointer

        if self.failed {
            return BusReport {
                completed_transfers: 0,
                total_bits: Bits(0),
                makespan: Seconds::new(0.0),
                transfers: Vec::new(),
                bus_failed: true,
                tech: self.config.tech,
            };
        }

        // Stable processing: sort by submit time for the waiting queue.
        pending.sort_by(|a, b| a.submit_time.total_cmp(&b.submit_time));

        while !pending.is_empty() {
            // Requests raised by `now`:
            let ready: Vec<usize> = pending
                .iter()
                .enumerate()
                .filter(|(_, t)| t.submit_time <= now)
                .map(|(i, _)| i)
                .collect();
            let winner_idx = if ready.is_empty() {
                // Bus idle: jump to the earliest future request.
                now = pending[0].submit_time;
                0
            } else {
                match self.config.arbitration {
                    Arbitration::FixedPriority => *ready
                        .iter()
                        .min_by_key(|&&i| pending[i].source)
                        .expect("ready is non-empty"),
                    Arbitration::RoundRobin => {
                        // First requester at or after the rotating pointer.
                        *ready
                            .iter()
                            .min_by_key(|&&i| {
                                let s = pending[i].source;
                                (s + self.modules - rr_next) % self.modules
                            })
                            .expect("ready is non-empty")
                    }
                }
            };
            let transfer = pending.remove(winner_idx);
            let grant_time = now.max(transfer.submit_time);
            let duration = transfer.bits().bits() as f64 / self.config.tech.max_frequency.hertz();
            let finish_time = grant_time + duration;
            total_bits += transfer.bits();
            rr_next = (transfer.source + 1) % self.modules;
            now = finish_time;
            completed.push(CompletedTransfer {
                transfer,
                grant_time,
                finish_time,
            });
        }

        BusReport {
            completed_transfers: completed.len(),
            total_bits,
            makespan: Seconds::new(now),
            transfers: completed,
            bus_failed: false,
            tech: self.config.tech,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_transfer_duration(bytes: usize) -> f64 {
        (bytes * 8) as f64 / 43.0e6
    }

    #[test]
    fn single_transfer_latency_is_bits_over_frequency() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 100, 0.0));
        let report = bus.run();
        assert_eq!(report.completed_transfers, 1);
        let expect = one_transfer_duration(100);
        assert!((report.makespan.seconds() - expect).abs() < 1e-12);
        assert!((report.transfers[0].latency().seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn contention_serializes_transfers() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        for src in 0..3 {
            bus.submit(Transfer::new(src, 3, 64, 0.0));
        }
        let report = bus.run();
        let d = one_transfer_duration(64);
        assert!((report.makespan.seconds() - 3.0 * d).abs() < 1e-12);
        // The last-granted transfer waited for two others.
        let worst = report.max_latency().unwrap().seconds();
        assert!((worst - 3.0 * d).abs() < 1e-12);
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let mut bus = BusSimulation::new(2, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 64, 0.0));
        bus.submit(Transfer::new(1, 0, 64, 1.0)); // long after the first
        let report = bus.run();
        let d = one_transfer_duration(64);
        assert!((report.makespan.seconds() - (1.0 + d)).abs() < 1e-12);
        // Second transfer saw no queueing delay:
        assert!((report.transfers[1].latency().seconds() - d).abs() < 1e-12);
    }

    #[test]
    fn round_robin_rotates_grants() {
        let mut bus = BusSimulation::new(3, BusConfig::default());
        // All submit at t=0; round-robin starts at module 0 and rotates.
        bus.submit(Transfer::new(2, 0, 8, 0.0));
        bus.submit(Transfer::new(0, 1, 8, 0.0));
        bus.submit(Transfer::new(1, 2, 8, 0.0));
        let report = bus.run();
        let order: Vec<usize> = report.transfers.iter().map(|t| t.transfer.source).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fixed_priority_favors_low_indices() {
        let config = BusConfig {
            arbitration: Arbitration::FixedPriority,
            ..BusConfig::default()
        };
        let mut bus = BusSimulation::new(3, config);
        bus.submit(Transfer::new(2, 0, 8, 0.0));
        bus.submit(Transfer::new(1, 2, 8, 0.0));
        // Module 1 and 2 compete; 1 wins both rounds it contends.
        let report = bus.run();
        let order: Vec<usize> = report.transfers.iter().map(|t| t.transfer.source).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn energy_matches_equation_3_at_bus_rates() {
        let mut bus = BusSimulation::new(2, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 1000, 0.0));
        let report = bus.run();
        let expect = 8000.0 * 21.6e-10;
        assert!((report.total_energy().joules() - expect).abs() < 1e-12);
    }

    #[test]
    fn failed_bus_delivers_nothing() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 64, 0.0));
        bus.fail();
        let report = bus.run();
        assert!(report.bus_failed);
        assert_eq!(report.completed_transfers, 0);
        assert_eq!(report.total_energy(), Joules::ZERO);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        let report = bus.run();
        assert_eq!(report.completed_transfers, 0);
        assert_eq!(report.average_latency(), None);
        assert_eq!(report.max_latency(), None);
        assert_eq!(report.makespan.seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-transfers")]
    fn self_transfer_rejected() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        bus.submit(Transfer::new(1, 1, 64, 0.0));
    }

    #[test]
    #[should_panic(expected = "outside 0..")]
    fn out_of_range_endpoint_rejected() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        bus.submit(Transfer::new(0, 9, 64, 0.0));
    }

    #[test]
    fn saturated_bus_has_full_utilization() {
        let mut bus = BusSimulation::new(4, BusConfig::default());
        for src in 0..3 {
            bus.submit(Transfer::new(src, 3, 64, 0.0));
        }
        let report = bus.run();
        assert!((report.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_lower_utilization() {
        let mut bus = BusSimulation::new(2, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 64, 0.0));
        bus.submit(Transfer::new(1, 0, 64, 1.0));
        let report = bus.run();
        let d = one_transfer_duration(64);
        let expect = 2.0 * d / (1.0 + d);
        assert!((report.utilization() - expect).abs() < 1e-9);
        assert!(report.utilization() < 0.1, "mostly idle");
    }

    #[test]
    fn empty_run_has_zero_utilization() {
        let mut bus = BusSimulation::new(2, BusConfig::default());
        assert_eq!(bus.run().utilization(), 0.0);
    }

    #[test]
    fn energy_delay_combines_energy_and_makespan() {
        let mut bus = BusSimulation::new(2, BusConfig::default());
        bus.submit(Transfer::new(0, 1, 128, 0.0));
        let report = bus.run();
        let ed = report.energy_delay().joule_seconds();
        let expect = report.total_energy().joules() * report.makespan.seconds();
        assert!((ed - expect).abs() < 1e-24);
    }
}
