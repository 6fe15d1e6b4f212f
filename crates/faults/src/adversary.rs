//! Composable adversarial scenarios: partitions, permanent death,
//! link chaos, and Byzantine tiles.
//!
//! Where [`FaultModel`](crate::FaultModel) captures the paper's
//! *transient* deep-sub-micron failures (upsets, overflow, crash-and-
//! recover, clock skew), an [`AdversarialScenario`] models a genuinely
//! hostile fabric in the spirit of the Byzantine reliable-broadcast
//! literature:
//!
//! * [`PartitionSchedule`] — link sets cut at round `r` and healed at
//!   round `r'` (or never), splitting the fabric into islands;
//! * a permanent [`CrashSchedule`] — links and tiles that die at a
//!   scheduled round and never come back;
//! * [`LinkChaos`] — per-link message reordering and latency jitter,
//!   drawn from dedicated per-link RNG streams by the engine;
//! * [`ByzantineSet`] — tiles that forge or replay CRC-valid frames,
//!   attacking the receiver fast path that trusts locally-generated
//!   (never-scrambled) frames.
//!
//! The scenario types here are pure *configuration*: every collection
//! is a `BTreeSet`/`Vec` so iteration order is deterministic, and no
//! RNG state lives here. The simulation engine derives the per-link
//! and per-tile streams from its base seed (via `stochastic_noc::seed`)
//! so that a benign scenario leaves the main fault stream — and hence
//! every existing golden digest — byte-identical.
//!
//! # Examples
//!
//! ```
//! use noc_faults::{AdversarialScenario, ByzantineMode};
//!
//! let scenario = AdversarialScenario::builder()
//!     .cut_links([3, 7], 2, Some(6))
//!     .kill_link(11, 4)
//!     .reorder_probability(0.2)
//!     .delay_probability(0.1)
//!     .byzantine_tile(5)
//!     .byzantine_mode(ByzantineMode::Forge)
//!     .byzantine_activation(0.5)
//!     .byzantine_until(Some(10))
//!     .build()
//!     .expect("parameters in range");
//! assert!(!scenario.is_benign());
//! assert!(scenario.partitions.link_cut(3, 2));
//! assert!(!scenario.partitions.link_cut(3, 6));
//! ```

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::injector::CrashSchedule;

/// One scheduled partition: a set of links severed at `from_round`
/// (inclusive) and restored at `heal_round` (exclusive), or never when
/// `heal_round` is `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCut {
    /// Link indices severed by this cut.
    pub links: BTreeSet<usize>,
    /// First round (inclusive) at which the links are cut.
    pub from_round: u64,
    /// Round (exclusive) at which the links heal; `None` means the cut
    /// is permanent.
    pub heal_round: Option<u64>,
}

impl PartitionCut {
    /// True if `round` falls inside this cut's window, whatever the link.
    #[inline]
    fn active(&self, round: u64) -> bool {
        round >= self.from_round && self.heal_round.is_none_or(|heal| round < heal)
    }

    /// True if this cut severs `link` during `round`.
    #[inline]
    pub fn severs(&self, link: usize, round: u64) -> bool {
        self.active(round) && self.links.contains(&link)
    }
}

/// A schedule of network partitions with optional heals.
///
/// Frames forwarded onto a cut link during its active window are lost
/// (the sender still spends the transmission energy, exactly like a
/// dead link), and the engine reports each loss as a partition drop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionSchedule {
    cuts: Vec<PartitionCut>,
}

impl PartitionSchedule {
    /// An empty schedule: no link is ever cut.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cut severing `links` from `from_round` (inclusive) until
    /// `heal_round` (exclusive; `None` = forever).
    pub fn cut(
        &mut self,
        links: impl IntoIterator<Item = usize>,
        from_round: u64,
        heal_round: Option<u64>,
    ) -> &mut Self {
        self.cuts.push(PartitionCut {
            links: links.into_iter().collect(),
            from_round,
            heal_round,
        });
        self
    }

    /// True if any cut severs `link` during `round`.
    #[inline]
    pub fn link_cut(&self, link: usize, round: u64) -> bool {
        self.cuts.iter().any(|cut| cut.severs(link, round))
    }

    /// True if some cut's window covers `round` — when none does,
    /// [`PartitionSchedule::link_cut`] is `false` for every link.
    pub fn any_active(&self, round: u64) -> bool {
        self.cuts.iter().any(|cut| cut.active(round))
    }

    /// True if the schedule contains no cuts.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// The scheduled cuts, in insertion order.
    pub fn cuts(&self) -> &[PartitionCut] {
        &self.cuts
    }

    /// Validates every cut's window.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScenario`] if any cut heals at or before the
    /// round it starts, or severs no links at all.
    pub fn validate(&self) -> Result<(), InvalidScenario> {
        for (index, cut) in self.cuts.iter().enumerate() {
            if cut.links.is_empty() {
                return Err(InvalidScenario {
                    parameter: "partitions",
                    reason: format!("cut #{index} severs no links"),
                });
            }
            if let Some(heal) = cut.heal_round {
                if heal <= cut.from_round {
                    return Err(InvalidScenario {
                        parameter: "partitions",
                        reason: format!(
                            "cut #{index} heals at round {heal} but starts at round {}",
                            cut.from_round
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per-link message chaos: reordering and latency jitter.
///
/// Each frame that survives link death, partition cuts and upsets is
/// subjected to two independent draws from *that link's* dedicated RNG
/// stream (derived by the engine from the base seed and the link
/// index): first a delay draw, then a reorder draw. A delayed frame
/// arrives one round later than the synchronous schedule; a reordered
/// frame jumps the receive queue of its destination tile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkChaos {
    /// Probability that a delivered frame jumps to the front of its
    /// destination's receive queue.
    pub reorder_probability: f64,
    /// Probability that a delivered frame is delayed by one round.
    pub delay_probability: f64,
}

impl LinkChaos {
    /// Chaos-free configuration (both probabilities zero).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if either probability is non-zero, i.e. the engine must
    /// maintain per-link chaos streams.
    pub fn is_active(&self) -> bool {
        self.reorder_probability > 0.0 || self.delay_probability > 0.0
    }

    /// Validates both probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScenario`] naming the first probability outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidScenario> {
        for (name, p) in [
            ("reorder_probability", self.reorder_probability),
            ("delay_probability", self.delay_probability),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(InvalidScenario {
                    parameter: name,
                    reason: format!("= {p} is not a probability in [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// What a Byzantine tile does when its activation draw fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineMode {
    /// Forge an equivocation: re-encode a buffered message with a
    /// corrupted payload, producing a *CRC-valid* frame whose content
    /// disagrees with the original. This defeats receivers that trust
    /// never-scrambled frames without re-verifying payload bytes.
    #[default]
    Forge,
    /// Replay the frame the tile most recently forwarded legitimately,
    /// re-flooding stale traffic into the fabric.
    Replay,
}

/// The set of Byzantine tiles and their behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ByzantineSet {
    /// Indices of the compromised tiles.
    pub tiles: BTreeSet<usize>,
    /// What a compromised tile does when activated.
    pub mode: ByzantineMode,
    /// Per-round probability that a compromised tile attacks, drawn
    /// from that tile's dedicated RNG stream.
    pub activation_probability: f64,
    /// Last round (exclusive) the attack may fire; `None` = forever.
    /// Bounding the attack lets runs drain and complete.
    pub active_until: Option<u64>,
}

impl ByzantineSet {
    /// No compromised tiles.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if at least one tile is compromised and can ever activate.
    pub fn is_active(&self) -> bool {
        !self.tiles.is_empty() && self.activation_probability > 0.0
    }

    /// True if `tile` is compromised and the attack window covers
    /// `round`.
    #[inline]
    pub fn armed(&self, tile: usize, round: u64) -> bool {
        self.active_until.is_none_or(|until| round < until) && self.tiles.contains(&tile)
    }

    /// Validates the activation probability.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScenario`] if it lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidScenario> {
        let p = self.activation_probability;
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(InvalidScenario {
                parameter: "activation_probability",
                reason: format!("= {p} is not a probability in [0, 1]"),
            });
        }
        Ok(())
    }
}

/// Error returned when an adversarial scenario parameter is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidScenario {
    /// Name of the offending parameter.
    pub parameter: &'static str,
    /// Human-readable description of the violation.
    pub reason: String,
}

impl fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid adversarial scenario: {} {}",
            self.parameter, self.reason
        )
    }
}

impl Error for InvalidScenario {}

/// A composed adversarial scenario: partitions, permanent death, link
/// chaos and Byzantine tiles, any subset of which may be active.
///
/// The default scenario is [benign](AdversarialScenario::is_benign):
/// attaching it to a simulation changes nothing, consumes no RNG
/// draws, and leaves every digest byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversarialScenario {
    /// Scheduled partitions with optional heals.
    pub partitions: PartitionSchedule,
    /// Permanent link/tile death schedule (never heals).
    pub permanent: CrashSchedule,
    /// Per-link reordering and latency jitter.
    pub chaos: LinkChaos,
    /// Byzantine forge/replay tiles.
    pub byzantine: ByzantineSet,
}

impl AdversarialScenario {
    /// The benign scenario: no adversary at all.
    pub fn benign() -> Self {
        Self::default()
    }

    /// Starts building a scenario.
    pub fn builder() -> AdversarialScenarioBuilder {
        AdversarialScenarioBuilder::default()
    }

    /// True if every mechanism is inert: attaching this scenario to a
    /// simulation is a no-op.
    pub fn is_benign(&self) -> bool {
        self.partitions.is_empty()
            && self.permanent.dead_tile_count() == 0
            && self.permanent.dead_link_count() == 0
            && !self.chaos.is_active()
            && !self.byzantine.is_active()
    }

    /// Validates every mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScenario`] naming the first invalid parameter.
    pub fn validate(&self) -> Result<(), InvalidScenario> {
        self.partitions.validate()?;
        self.chaos.validate()?;
        self.byzantine.validate()
    }
}

/// Builder for [`AdversarialScenario`].
#[derive(Debug, Clone, Default)]
pub struct AdversarialScenarioBuilder {
    scenario: AdversarialScenario,
}

impl AdversarialScenarioBuilder {
    /// Adds a partition cut (see [`PartitionSchedule::cut`]).
    pub fn cut_links(
        mut self,
        links: impl IntoIterator<Item = usize>,
        from_round: u64,
        heal_round: Option<u64>,
    ) -> Self {
        self.scenario.partitions.cut(links, from_round, heal_round);
        self
    }

    /// Permanently kills `link` from `round` on.
    pub fn kill_link(mut self, link: usize, round: u64) -> Self {
        self.scenario.permanent.kill_link(link, round);
        self
    }

    /// Permanently kills `tile` from `round` on.
    pub fn kill_tile(mut self, tile: usize, round: u64) -> Self {
        self.scenario.permanent.kill_tile(tile, round);
        self
    }

    /// Sets the per-link reorder probability.
    pub fn reorder_probability(mut self, p: f64) -> Self {
        self.scenario.chaos.reorder_probability = p;
        self
    }

    /// Sets the per-link one-round delay probability.
    pub fn delay_probability(mut self, p: f64) -> Self {
        self.scenario.chaos.delay_probability = p;
        self
    }

    /// Marks `tile` as Byzantine.
    pub fn byzantine_tile(mut self, tile: usize) -> Self {
        self.scenario.byzantine.tiles.insert(tile);
        self
    }

    /// Selects the Byzantine attack mode.
    pub fn byzantine_mode(mut self, mode: ByzantineMode) -> Self {
        self.scenario.byzantine.mode = mode;
        self
    }

    /// Sets the per-round Byzantine activation probability.
    pub fn byzantine_activation(mut self, p: f64) -> Self {
        self.scenario.byzantine.activation_probability = p;
        self
    }

    /// Bounds the Byzantine attack window (exclusive end round).
    pub fn byzantine_until(mut self, round: Option<u64>) -> Self {
        self.scenario.byzantine.active_until = round;
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidScenario`] if any parameter is invalid.
    pub fn build(self) -> Result<AdversarialScenario, InvalidScenario> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_benign_and_valid() {
        let s = AdversarialScenario::benign();
        assert!(s.is_benign());
        s.validate().unwrap();
    }

    #[test]
    fn partition_window_is_inclusive_exclusive() {
        let mut sched = PartitionSchedule::new();
        sched.cut([2, 5], 3, Some(7));
        assert!(!sched.link_cut(2, 2));
        assert!(sched.link_cut(2, 3));
        assert!(sched.link_cut(5, 6));
        assert!(!sched.link_cut(5, 7));
        assert!(!sched.link_cut(4, 5), "uncut link never severed");
    }

    #[test]
    fn unhealed_partition_is_permanent() {
        let mut sched = PartitionSchedule::new();
        sched.cut([0], 1, None);
        assert!(!sched.link_cut(0, 0));
        assert!(sched.link_cut(0, 1_000_000));
    }

    #[test]
    fn overlapping_cuts_union() {
        let mut sched = PartitionSchedule::new();
        sched.cut([1], 0, Some(4)).cut([1], 8, Some(10));
        assert!(sched.link_cut(1, 2));
        assert!(!sched.link_cut(1, 5));
        assert!(sched.link_cut(1, 9));
        // No cut in its window at a round means no link is cut then.
        assert!(sched.any_active(3) && !sched.any_active(4));
        assert!(!sched.any_active(7) && sched.any_active(8));
        assert!(!PartitionSchedule::new().any_active(0));
    }

    #[test]
    fn heal_before_start_is_rejected() {
        let mut sched = PartitionSchedule::new();
        sched.cut([1], 5, Some(5));
        let err = sched.validate().unwrap_err();
        assert_eq!(err.parameter, "partitions");
        assert!(err.to_string().contains("heals"));
    }

    #[test]
    fn empty_cut_is_rejected() {
        let mut sched = PartitionSchedule::new();
        sched.cut([], 0, None);
        assert!(sched.validate().is_err());
    }

    #[test]
    fn chaos_activity_and_validation() {
        assert!(!LinkChaos::none().is_active());
        let chaos = LinkChaos {
            reorder_probability: 0.0,
            delay_probability: 0.3,
        };
        assert!(chaos.is_active());
        chaos.validate().unwrap();
        let bad = LinkChaos {
            reorder_probability: 1.5,
            delay_probability: 0.0,
        };
        assert_eq!(bad.validate().unwrap_err().parameter, "reorder_probability");
        let nan = LinkChaos {
            reorder_probability: 0.0,
            delay_probability: f64::NAN,
        };
        assert_eq!(nan.validate().unwrap_err().parameter, "delay_probability");
    }

    #[test]
    fn byzantine_arming_respects_window_and_membership() {
        let byz = ByzantineSet {
            tiles: [3usize, 9].into_iter().collect(),
            mode: ByzantineMode::Replay,
            activation_probability: 1.0,
            active_until: Some(5),
        };
        assert!(byz.is_active());
        assert!(byz.armed(3, 0));
        assert!(byz.armed(9, 4));
        assert!(!byz.armed(9, 5), "window end is exclusive");
        assert!(!byz.armed(4, 0), "uncompromised tile never armed");
        let unbounded = ByzantineSet {
            active_until: None,
            ..byz
        };
        assert!(unbounded.armed(3, u64::MAX));
    }

    #[test]
    fn byzantine_without_tiles_or_probability_is_inert() {
        let mut byz = ByzantineSet::none();
        assert!(!byz.is_active());
        byz.tiles.insert(1);
        assert!(!byz.is_active(), "p = 0 never activates");
        byz.activation_probability = 0.5;
        assert!(byz.is_active());
    }

    #[test]
    fn builder_composes_all_mechanisms() {
        let s = AdversarialScenario::builder()
            .cut_links([3, 7], 2, Some(6))
            .kill_link(11, 4)
            .kill_tile(2, 9)
            .reorder_probability(0.2)
            .delay_probability(0.1)
            .byzantine_tile(5)
            .byzantine_mode(ByzantineMode::Forge)
            .byzantine_activation(0.5)
            .byzantine_until(Some(10))
            .build()
            .unwrap();
        assert!(!s.is_benign());
        assert!(s.partitions.link_cut(7, 5));
        assert!(s.permanent.link_dead(11, 4));
        assert!(s.permanent.tile_dead(2, 9));
        assert!(s.chaos.is_active());
        assert!(s.byzantine.armed(5, 9));
        assert!(!s.byzantine.armed(5, 10));
    }

    #[test]
    fn builder_rejects_invalid_probability() {
        let err = AdversarialScenario::builder()
            .byzantine_tile(0)
            .byzantine_activation(-0.5)
            .build()
            .unwrap_err();
        assert_eq!(err.parameter, "activation_probability");
        assert!(err.to_string().contains("activation_probability"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn severed_iff_inside_window(
                link in 0usize..16,
                from in 0u64..20,
                span in 1u64..20,
                round in 0u64..60,
            ) {
                let mut sched = PartitionSchedule::new();
                sched.cut([link], from, Some(from + span));
                let expect = round >= from && round < from + span;
                prop_assert_eq!(sched.link_cut(link, round), expect);
                prop_assert_eq!(sched.any_active(round), expect);
            }

            #[test]
            fn in_range_chaos_validates(
                pr in 0.0f64..=1.0,
                pd in 0.0f64..=1.0,
            ) {
                let chaos = LinkChaos { reorder_probability: pr, delay_probability: pd };
                prop_assert!(chaos.validate().is_ok());
                prop_assert_eq!(chaos.is_active(), pr > 0.0 || pd > 0.0);
            }

            #[test]
            fn benign_iff_everything_inert(
                cut in any::<bool>(),
                perm in any::<bool>(),
                chaos in any::<bool>(),
                byz in any::<bool>(),
            ) {
                let mut builder = AdversarialScenario::builder();
                if cut { builder = builder.cut_links([0], 0, None); }
                if perm { builder = builder.kill_tile(0, 0); }
                if chaos { builder = builder.delay_probability(0.5); }
                if byz {
                    builder = builder.byzantine_tile(0).byzantine_activation(0.5);
                }
                let scenario = builder.build().unwrap();
                prop_assert_eq!(scenario.is_benign(), !(cut || perm || chaos || byz));
            }
        }
    }
}
