//! The round-synchronous stochastic communication engine.
//!
//! Executes the algorithm of Figure 3-4 over an arbitrary topology with
//! full fault injection. Each gossip round proceeds in the paper's order:
//!
//! 1. **Receive** — frames that were sent last round arrive; overflow
//!    drops are applied, the CRC check discards scrambled packets, and
//!    surviving messages are merged into the tile's send buffer, one copy
//!    of each message id (the tile keeps only its live copies: the
//!    seen-set is kept per message, for all tiles at once).
//!    Messages whose destination field equals the tile id are delivered
//!    to the local IP (exactly once per message id).
//! 2. **Compute** — the IP core runs (computation time is 0, as in the
//!    paper) and may emit new messages, which join the send buffer.
//! 3. **Age** — every buffered TTL is decremented; expired messages are
//!    garbage-collected.
//! 4. **Forward** — every remaining message is offered to every output
//!    link and transmitted independently with probability `p`; upsets
//!    scramble frames in flight, dead links/tiles swallow them, and tiles
//!    whose clock domain slipped deliver one round late.
//!
//! The engine is deterministic: `(topology, config, fault model, seed)`
//! exactly reproduce a run.
//!
//! A [`Simulation`] is a few phase structs, each owning what one phase
//! writes (DESIGN.md §8 has the table), and each phase is a module:
//! `receive`, `age` and `forward`; compute is [`Simulation::step`]'s own.
//! `capture` writes and restores a checkpoint, and `sharded` holds the
//! receive phase on more than one shard.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod age;
mod capture;
mod forward;
mod receive;
mod sharded;
#[cfg(test)]
mod tests;

use noc_energy::TechnologyLibrary;
use noc_fabric::{
    ClockDomain, Grid2d, IpContext, IpCore, MessageId, NodeId, Topology, WireCodec, MAX_NODES,
    MAX_PAYLOAD_BYTES,
};
use noc_faults::{AdversarialScenario, CrashSchedule, FaultInjector, FaultModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use crate::arrivals::Arrivals;
use crate::audience::Audience;
use crate::body::Held;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::StochasticConfig;
use crate::events::{EventSink, NullSink, SimEvent};
use crate::frontier::TileSet;
use crate::metrics::{MessageRecord, SimulationReport};
use crate::obs::{span_end, span_start, EngineObs, EnginePhase};
use crate::seed::{derive_labeled_seed, derive_trial_seed};
use crate::send_buffer::Live;
use crate::wire::{Frame, WireEntry, WireTable, NO_LINK};

use sharded::ReceiveTape;

/// Per-round statistics returned by [`Simulation::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// The round that was just executed.
    pub round: u64,
    /// Frames transmitted onto links during this round.
    pub transmissions: u64,
    /// First-time deliveries to destination IPs during this round.
    pub deliveries: u64,
    /// Live messages across all send buffers after aging.
    pub live_messages: u64,
}

/// Builder for [`Simulation`].
///
/// # Examples
///
/// ```
/// use noc_fabric::Grid2d;
/// use noc_faults::FaultModel;
/// use stochastic_noc::SimulationBuilder;
///
/// let sim = SimulationBuilder::new(Grid2d::new(4, 4))
///     .forward_probability(0.75)
///     .ttl(10)
///     .max_rounds(200)
///     .fault_model(FaultModel::none())
///     .seed(1234)
///     .build();
/// assert_eq!(sim.node_count(), 16);
/// ```
pub struct SimulationBuilder {
    topology: Topology,
    config: StochasticConfig,
    fault_model: FaultModel,
    crash_schedule: CrashSchedule,
    adversary: AdversarialScenario,
    seed: u64,
    tech: TechnologyLibrary,
    codec: WireCodec,
    ips: BTreeMap<usize, Box<dyn IpCore>>,
    /// Per-tile knob tables: empty until a knob is first set, then one
    /// entry per tile.
    egress_limits: Vec<Option<usize>>,
    forward_overrides: Vec<Option<f64>>,
    shards: usize,
    obs: Option<EngineObs>,
}

impl SimulationBuilder {
    /// Starts building a simulation over `topology`.
    pub fn new(topology: impl Into<Topology>) -> Self {
        let topology = topology.into();
        Self {
            topology,
            config: StochasticConfig::default(),
            fault_model: FaultModel::none(),
            crash_schedule: CrashSchedule::new(),
            adversary: AdversarialScenario::benign(),
            seed: 0,
            tech: TechnologyLibrary::NOC_LINK_0_25UM,
            codec: WireCodec::default(),
            ips: BTreeMap::new(),
            egress_limits: Vec::new(),
            forward_overrides: Vec::new(),
            shards: 1,
            obs: None,
        }
    }

    /// Sets how many tile-partitioned shards a round's receive phase
    /// runs on (scoped worker threads inside a single trial): dedup and
    /// buffer insertion go parallel; the overflow draws, compute, TTL
    /// aging and the whole forward phase stay on the calling thread at
    /// every count. The count is clamped to `1..=tile count`, so `0`
    /// means 1: the execution plan never depends on the host. Defaults
    /// to 1, which spawns nothing; DESIGN.md §12 has what the fan-out
    /// costs and what it has bought on the hosts measured.
    ///
    /// Reports, digests and event streams are byte-identical for every
    /// shard count: all RNG draws stay on the main thread in ascending
    /// tile order, and the cross-shard merge replays that order.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the full protocol configuration.
    pub fn config(mut self, config: StochasticConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the forwarding probability `p`.
    pub fn forward_probability(mut self, p: f64) -> Self {
        self.config.forward_probability = p;
        self
    }

    /// Sets the message TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.config.default_ttl = ttl;
        self
    }

    /// Sets the simulation round budget.
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Sets the fault model (defaults to fault-free).
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.fault_model = model;
        self
    }

    /// Sets explicit crash events.
    pub fn crash_schedule(mut self, schedule: CrashSchedule) -> Self {
        self.crash_schedule = schedule;
        self
    }

    /// Installs an adversarial scenario: partitions, permanent death,
    /// link chaos and Byzantine tiles.
    ///
    /// The default is [`AdversarialScenario::benign`], which changes
    /// nothing — in particular it consumes no RNG draws, so every run
    /// and digest of a benign build is byte-identical to a build that
    /// never called this method. Active mechanisms draw from dedicated
    /// per-link/per-tile streams derived from the base seed, leaving
    /// the main fault stream untouched.
    pub fn adversary(mut self, scenario: AdversarialScenario) -> Self {
        self.adversary = scenario;
        self
    }

    /// Seeds the deterministic fault/forwarding randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the technology point used for energy accounting.
    pub fn technology(mut self, tech: TechnologyLibrary) -> Self {
        self.tech = tech;
        self
    }

    /// Sets the wire codec (CRC parameter choice).
    pub fn wire_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Limits how many distinct messages a tile may forward per round.
    ///
    /// Models serialized shared media: a "bus node" with an egress limit
    /// of 1 transmits one message per round, so traffic funnelled through
    /// it queues — the contention penalty of bus-connected architectures
    /// (Chapter 5).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology or `limit` is zero.
    pub fn egress_limit(mut self, node: NodeId, limit: usize) -> Self {
        assert!(
            node.index() < self.topology.node_count(),
            "{node} outside topology"
        );
        assert!(limit > 0, "egress limit must be at least 1");
        self.egress_limits.resize(self.topology.node_count(), None);
        self.egress_limits[node.index()] = Some(limit);
        self
    }

    /// Overrides the forwarding probability for one tile.
    ///
    /// Supports heterogeneous fabrics (Chapter 5's on-chip diversity):
    /// e.g. a bus bridge forwards deterministically (`p = 1`, every bus
    /// transaction is heard by all listeners) while ordinary tiles gossip
    /// at the global `p`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology or `p` is not a
    /// probability.
    pub fn forward_probability_at(mut self, node: NodeId, p: f64) -> Self {
        assert!(
            node.index() < self.topology.node_count(),
            "{node} outside topology"
        );
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
        self.forward_overrides
            .resize(self.topology.node_count(), None);
        self.forward_overrides[node.index()] = Some(p);
        self
    }

    /// Maps an IP core onto a tile, replacing any mapped there before.
    /// Every tile, mapped or not, takes part in gossip forwarding.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn with_ip(mut self, node: NodeId, ip: Box<dyn IpCore>) -> Self {
        assert!(
            node.index() < self.topology.node_count(),
            "{node} outside topology"
        );
        self.ips.insert(node.index(), ip);
        self
    }

    /// Installs the wall-clock observability plane: the round loop will
    /// time its phases (receive, age, forward, quiescence detection and
    /// the whole round; with more than one shard also the overflow tape
    /// pre-pass, shard fan-out and merge inside receive) into
    /// `obs`'s `engine_phase_seconds` histograms and count rounds into
    /// `engine_rounds_total`.
    ///
    /// The two-plane contract (DESIGN.md §13) holds by construction:
    /// the engine only ever *writes* through these handles, so reports,
    /// event streams, and golden digests are byte-identical with or
    /// without the plane. Without it, each phase costs a single
    /// `Option` test per round.
    pub fn obs(mut self, obs: EngineObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Finalizes the simulation with the default [`NullSink`] — the
    /// zero-overhead engine; every event emission point monomorphizes
    /// away.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration or fault model is invalid
    /// (construct them through their checked builders to avoid this).
    pub fn build(self) -> Simulation {
        self.build_with_sink(NullSink)
    }

    /// Finalizes the simulation with an installed [`EventSink`].
    ///
    /// The sink observes the packet lifecycle ([`SimEvent`]) but cannot
    /// influence it: the run — RNG streams, report, digests — is
    /// byte-identical whatever sink is installed.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration or fault model is invalid
    /// (construct them through their checked builders to avoid this),
    /// or if the topology has more tiles than the wire format's 16-bit
    /// node fields address or more links than a frame handle does.
    #[expect(
        clippy::disallowed_methods,
        reason = "seeds the per-link chaos and per-tile Byzantine streams from labels of the run seed, once, before any round"
    )]
    #[expect(
        clippy::panic,
        reason = "builder-time validation; runs once before the round loop, never per step"
    )]
    pub fn build_with_sink<S: EventSink>(self, sink: S) -> Simulation<S> {
        self.config
            .validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        self.fault_model
            .validate()
            .unwrap_or_else(|e| panic!("{e}"));
        self.adversary
            .validate()
            .unwrap_or_else(|e| panic!("invalid adversarial scenario: {e}"));
        let n = self.topology.node_count();
        let m = self.topology.link_count();
        assert!(
            n <= MAX_NODES,
            "topology has {n} tiles; the wire format addresses at most {MAX_NODES}"
        );
        assert!(
            (m as u64) < u64::from(NO_LINK),
            "topology has {m} links; a frame handle addresses fewer than {NO_LINK}"
        );
        let mut injector = FaultInjector::new(self.fault_model, self.seed);
        let tiles_alive = injector.sample_alive_tiles(n);
        let links_alive = injector.sample_alive_links(m);
        // Permanent adversarial death folds into the crash schedule:
        // identical semantics (dead from round r, never heals), zero new
        // hot-path state.
        let mut crash_schedule = self.crash_schedule;
        for (tile, at) in self.adversary.permanent.tile_events() {
            crash_schedule.kill_tile(tile, at);
        }
        for (link, at) in self.adversary.permanent.link_events() {
            crash_schedule.kill_link(link, at);
        }
        // Adversarial randomness never touches the injector's stream:
        // chaos draws come from one dedicated stream per link, Byzantine
        // activations from one per compromised tile, all derived from the
        // base seed. Inactive mechanisms allocate no streams at all.
        let chaos_streams: Vec<StdRng> = if self.adversary.chaos.is_active() {
            let base = derive_labeled_seed(self.seed, "adversary-link");
            (0..m)
                .map(|link| StdRng::seed_from_u64(derive_trial_seed(base, link as u64)))
                .collect()
        } else {
            Vec::new()
        };
        let compromised: BTreeMap<usize, Compromised> = if self.adversary.byzantine.is_active() {
            let base = derive_labeled_seed(self.seed, "adversary-tile");
            self.adversary
                .byzantine
                .tiles
                .iter()
                .map(|&tile| {
                    let stream = StdRng::seed_from_u64(derive_trial_seed(base, tile as u64));
                    (
                        tile,
                        Compromised {
                            stream,
                            last_frame: None,
                        },
                    )
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        // Ascending by tile, as the map iterates.
        let mapped_ips = self.ips.into_iter().map(|(tile, ip)| MappedIp {
            tile,
            ip,
            inbox: Vec::new(),
        });
        // The first round each kind of scheduled death takes effect.
        let first = |from: Option<u64>| from.unwrap_or(u64::MAX);
        let deaths_from = (
            first(crash_schedule.tile_events().map(|(_, from)| from).min()),
            first(crash_schedule.link_events().map(|(_, from)| from).min()),
        );
        Simulation {
            sink,
            obs: self.obs,
            fabric: Fabric {
                topology: self.topology,
                crash_schedule,
                deaths_from,
                tiles_alive,
                links_alive,
            },
            plan: Plan {
                config: self.config,
                adversary: self.adversary,
                codec: self.codec,
                seed: self.seed,
                shards: self.shards.clamp(1, n.max(1)),
                config_digest: OnceLock::new(),
            },
            spread: Spread {
                buffers: (0..n).map(|_| Live::default()).collect(),
                expired: vec![0; n],
                frontier: TileSet::new(n),
                live_total: 0,
                audience: Audience::new(n, 0),
                terminated: BTreeSet::new(),
                pending_purge: Vec::new(),
                emptied_scratch: Vec::new(),
            },
            flight: Flight {
                injector,
                arrivals: Arrivals::new(n),
                wires: WireTable::default(),
                receive_tape: ReceiveTape::default(),
            },
            egress: Egress {
                egress_next: vec![None; self.egress_limits.len()],
                egress_limits: self.egress_limits,
                forward_overrides: self.forward_overrides,
                clocks: vec![ClockDomain::new(); n],
                compromised,
                chaos_streams,
            },
            report: SimulationReport::new(self.tech),
            run: Run {
                round: 0,
                next_message_id: 0,
                started: false,
                completed: false,
                mapped_ips: mapped_ips.collect(),
            },
        }
    }

    /// Builds the simulation and fast-forwards it to `checkpoint` —
    /// the resumed run replays the remaining rounds byte-identically
    /// (reports, digests, event streams) to the run the checkpoint was
    /// taken from.
    ///
    /// The builder must be configured identically to the one the
    /// checkpointed simulation was built with: same topology, config,
    /// fault model, crash schedule, adversary, seed, codec, technology,
    /// egress limits and forwarding overrides. The shard count (and the
    /// event sink, for [`SimulationBuilder::resume_with_sink`]) may
    /// differ freely — neither is observable. Custom IP cores are *not*
    /// part of the checkpoint: callers that map stateful IPs must
    /// re-map equivalently-stateful ones themselves (the golden
    /// workloads all inject via [`Simulation::inject`] and need
    /// nothing).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ConfigMismatch`] when the checkpoint was
    /// taken under a different configuration, and
    /// [`CheckpointError::Mismatch`] when its body does not fit this
    /// topology or contradicts itself.
    pub fn resume(self, checkpoint: &Checkpoint) -> Result<Simulation, CheckpointError> {
        self.resume_with_sink(checkpoint, NullSink)
    }

    /// [`SimulationBuilder::resume`] with an installed [`EventSink`]:
    /// the resumed run emits exactly the events the original run would
    /// have emitted from the checkpoint round onward.
    ///
    /// # Errors
    ///
    /// As [`SimulationBuilder::resume`].
    pub fn resume_with_sink<S: EventSink>(
        self,
        checkpoint: &Checkpoint,
        sink: S,
    ) -> Result<Simulation<S>, CheckpointError> {
        // Build normally first: this consumes the builder's own RNG
        // draws (alive sampling, stream derivation) exactly as the
        // original build did, then every sampled or drawn value is
        // overwritten from the checkpoint.
        let mut sim = self.build_with_sink(sink);
        sim.restore_from(checkpoint)?;
        Ok(sim)
    }

    /// Convenience: builds over a square grid of `side × side` tiles.
    pub fn square_grid(side: usize) -> Self {
        Self::new(Grid2d::new(side, side))
    }
}

/// A compromised tile's adversary state.
struct Compromised {
    /// The tile's activation/forgery RNG stream.
    stream: StdRng,
    /// The frame the tile most recently forwarded legitimately — the
    /// replay attack's ammunition. Held by value: it outlives the
    /// wire-table generation it was sent in.
    last_frame: Option<(MessageId, WireEntry)>,
}

/// An IP core mapped onto a tile, with the deliveries staged for it
/// between the receive and compute phases.
struct MappedIp {
    tile: usize,
    ip: Box<dyn IpCore>,
    /// `(from, payload)` of each delivery since the core last ran.
    inbox: Vec<(NodeId, Arc<[u8]>)>,
}

impl MappedIp {
    /// Stages a delivery at `tile` for its core, if one is mapped there;
    /// `ips` is sorted by tile.
    fn stage(ips: &mut [MappedIp], tile: usize, from: NodeId, payload: &Arc<[u8]>) {
        if let Ok(at) = ips.binary_search_by_key(&tile, |mapped| mapped.tile) {
            ips[at].inbox.push((from, Arc::clone(payload)));
        }
    }
}

/// The fabric and its liveness: set at build (a restore rewrites the
/// flags) and read-only inside a round.
struct Fabric {
    topology: Topology,
    /// Scheduled crashes, the adversary's permanent deaths folded in.
    crash_schedule: CrashSchedule,
    /// The first round a scheduled tile and a scheduled link death takes
    /// effect (`u64::MAX` when none is scheduled): before it the flags
    /// are the whole check, and the schedule is not scanned.
    deaths_from: (u64, u64),
    tiles_alive: Vec<bool>,
    links_alive: Vec<bool>,
}

impl Fabric {
    /// Is `tile` up in `round`: alive at build and not crashed by then?
    /// The one statement of a tile's liveness, which receive, compute,
    /// forward and the known-duplicate test all ask.
    #[inline]
    fn tile_up(&self, tile: usize, round: u64) -> bool {
        self.tiles_alive[tile]
            && (round < self.deaths_from.0 || !self.crash_schedule.tile_dead(tile, round))
    }

    /// Is `link` up in `round`?
    #[inline]
    fn link_up(&self, link: usize, round: u64) -> bool {
        self.links_alive[link]
            && (round < self.deaths_from.1 || !self.crash_schedule.link_dead(link, round))
    }
}

/// The plan: fixed at build and hashed by the checkpoint config digest,
/// so a resume under any other plan is refused.
struct Plan {
    config: StochasticConfig,
    adversary: AdversarialScenario,
    codec: WireCodec,
    seed: u64,
    /// Tile ranges the receive phase fans out over (1 = none).
    /// Not hashed: every shard count makes the same draws.
    shards: usize,
    /// The config digest, computed by its first caller.
    config_digest: OnceLock<u64>,
}

/// Each tile's send buffer and what the buffers have seen: receive and
/// inject write it, age drains it, forward reads it.
struct Spread {
    /// Each tile's send buffer: the copies it holds, in insertion order.
    buffers: Vec<Live>,
    /// Each tile's TTL expiries so far, beside its buffer: only the report
    /// and a checkpoint read them.
    expired: Vec<u64>,
    /// Tiles whose send buffer is non-empty — the age/forward frontier.
    frontier: TileSet,
    /// Total live messages across all send buffers.
    live_total: u64,
    /// Tiles whose send buffer has seen each message id: the one
    /// seen-set receive dedups against, and the informed population.
    audience: Audience,
    /// Spreads ended by delivery under `terminate_on_delivery`.
    terminated: BTreeSet<MessageId>,
    /// Ids whose spread terminated *this* round: age purges them from
    /// the frontier's buffers, then clears the list. Earlier ones cannot
    /// re-enter a buffer: receive suppresses them at insertion.
    pending_purge: Vec<MessageId>,
    /// Recycled scratch for tiles whose buffer drained during aging.
    emptied_scratch: Vec<u32>,
}

impl Spread {
    /// Buffers a copy `tile` has not seen before; `false`, and an expiry
    /// counted, when it arrived with no TTL left (only an undetected
    /// upset of the TTL field makes one).
    #[inline]
    fn buffer(&mut self, tile: usize, held: Held) -> bool {
        if self.buffers[tile].insert(held) {
            self.live_total += 1;
            self.frontier.insert(tile);
            true
        } else {
            self.expired[tile] += 1;
            false
        }
    }
}

/// Frames in flight and what befalls them: the delay line, the entries
/// its handles name, and the fault stream every forward, upset, overflow
/// and skew draw comes from.
struct Flight {
    injector: FaultInjector,
    /// The delay line: frames sent and not yet received.
    arrivals: Arrivals,
    /// The entries behind every in-flight [`Frame`] handle, rotated with
    /// the arenas (a checkpoint numbers the entries the handles name).
    wires: WireTable,
    /// Overflow verdicts drawn ahead of a sharded receive, recycled.
    receive_tape: ReceiveTape,
}

/// What each tile's forward service reads and where it resumes: the
/// per-tile knobs, egress cursors and clocks, and the adversary's
/// streams. Forward writes it; its buffers are [`Spread`]'s.
struct Egress {
    /// Per-tile egress limits; empty when no tile has one.
    egress_limits: Vec<Option<usize>>,
    /// Round-robin egress resume point per tile: the *id* of the next
    /// message owed service (see `forward::egress_window`). As long as
    /// `egress_limits`, and `None` at every tile without a limit.
    egress_next: Vec<Option<MessageId>>,
    /// Per-tile forwarding probabilities; empty when no tile has one.
    forward_overrides: Vec<Option<f64>>,
    clocks: Vec<ClockDomain>,
    /// The adversary's state at each compromised tile; empty when the
    /// Byzantine mechanism is inactive.
    compromised: BTreeMap<usize, Compromised>,
    /// One chaos RNG stream per link; empty when chaos is inactive, so
    /// benign builds index nothing and draw nothing.
    chaos_streams: Vec<StdRng>,
}

/// The run's progress and the IP cores compute runs.
struct Run {
    /// Rounds executed: the index of the round the next step runs.
    round: u64,
    /// The id the next injection takes.
    next_message_id: u64,
    started: bool,
    completed: bool,
    /// The mapped IP cores, ascending by tile: the compute phase's
    /// worklist. An unmapped tile runs no core.
    mapped_ips: Vec<MappedIp>,
}

/// A stochastic-communication simulation in progress.
///
/// Drive it with [`Simulation::run`] (to completion or budget) or
/// round-by-round with [`Simulation::step`].
///
/// The engine is generic over its [`EventSink`]: the default
/// [`NullSink`] build pays nothing for instrumentation, while
/// [`SimulationBuilder::build_with_sink`] installs an observer of the
/// full packet lifecycle without changing a single observable (enforced
/// by the golden-report digests).
pub struct Simulation<S: EventSink = NullSink> {
    sink: S,
    /// Wall-clock plane handles; `None` (the default) records nothing.
    obs: Option<EngineObs>,
    fabric: Fabric,
    plan: Plan,
    spread: Spread,
    flight: Flight,
    egress: Egress,
    report: SimulationReport,
    run: Run,
}

impl<S: EventSink> Simulation<S> {
    /// Number of tiles in the network.
    pub fn node_count(&self) -> usize {
        self.fabric.topology.node_count()
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.fabric.topology
    }

    /// The protocol configuration in force.
    pub fn config(&self) -> &StochasticConfig {
        &self.plan.config
    }

    /// The current round: the number of rounds fully executed, so after
    /// a step it is the index of the *next* round. A tile first informed
    /// in executed round `r` has latency `r` (on a 1×3 line under
    /// flooding the far tile's is 2), which is one less than `round()`
    /// read after that step.
    pub fn round(&self) -> u64 {
        self.run.round
    }

    /// The resolved shard count this simulation steps with.
    pub fn shards(&self) -> usize {
        self.plan.shards
    }

    /// True once every IP has reported done.
    pub fn is_complete(&self) -> bool {
        self.run.completed
    }

    /// Is this tile currently alive?
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn tile_alive(&self, node: NodeId) -> bool {
        self.assert_in_topology(node);
        self.fabric.tile_up(node.index(), self.run.round)
    }

    fn assert_in_topology(&self, node: NodeId) {
        assert!(node.index() < self.node_count(), "{node} outside topology");
    }

    /// Number of tiles whose send buffer has seen message `id` — the
    /// "informed population" of the epidemic analogy. O(1): experiment
    /// harnesses poll this every round.
    pub fn informed_count(&self, id: MessageId) -> usize {
        self.spread.audience.count(id)
    }

    /// Has this tile's send buffer ever seen message `id`?
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn node_informed(&self, node: NodeId, id: MessageId) -> bool {
        self.assert_in_topology(node);
        self.spread.audience.contains(id, node.index())
    }

    /// Number of live messages currently buffered at a tile.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn buffer_len(&self, node: NodeId) -> usize {
        self.assert_in_topology(node);
        self.spread.buffers[node.index()].len()
    }

    /// The running report (final once the run stops).
    pub fn report(&self) -> &SimulationReport {
        &self.report
    }

    /// The installed event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the simulation, returning the installed sink by move.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Consumes the simulation, returning the report by move.
    pub fn into_report(mut self) -> SimulationReport {
        self.finalize_report();
        self.report
    }

    /// The injection-side fault ledger: how many upsets, overflow drops
    /// and skew draws the fault injector has actually fired so far.
    /// Event attribution is bounded by these totals (a fired upset can
    /// still be crash- or overflow-dropped before the CRC sees it).
    pub fn injection_tally(&self) -> noc_faults::InjectionTally {
        self.flight.injector.tally()
    }

    /// Runs to completion/budget, then returns both the report and the
    /// installed sink by move — the one-call form for trials that want
    /// the attributed event view next to the global totals.
    pub fn run_to_report_and_sink(mut self) -> (SimulationReport, S) {
        while !self.run.completed && self.run.round < self.plan.config.max_rounds {
            self.step();
        }
        self.finalize_report();
        (self.report, self.sink)
    }

    /// Folds the per-component tallies (clock slips, TTL expirations) into
    /// the report — the single finalization point shared by every way of
    /// extracting a report.
    fn finalize_report(&mut self) -> &SimulationReport {
        let clocks = self.egress.clocks.iter();
        self.report.clock_slips = clocks.fold(0, |sum, clock| sum.saturating_add(clock.slips()));
        self.report.ttl_expirations = self.spread.expired.iter().sum();
        &self.report
    }

    /// Injects a message from outside the IP layer (protocol-level use).
    ///
    /// The message enters `source`'s send buffer at the current round. If
    /// the source tile is dead, the message is recorded but lost. A
    /// message addressed to its own source is delivered immediately.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than [`MAX_PAYLOAD_BYTES`], the wire
    /// format's field width, or if `source` or `destination` is outside
    /// the topology.
    pub fn inject(&mut self, source: NodeId, destination: NodeId, payload: Vec<u8>) -> MessageId {
        assert!(
            payload.len() <= MAX_PAYLOAD_BYTES,
            "payload of {} bytes exceeds the wire format's {MAX_PAYLOAD_BYTES}-byte limit",
            payload.len()
        );
        self.assert_in_topology(source);
        self.assert_in_topology(destination);
        let round = self.run.round;
        let id = MessageId(self.run.next_message_id);
        self.run.next_message_id += 1;
        self.spread.audience.assign(id);
        let frame_bits = self.plan.codec.frame_bits(payload.len());
        self.report.record_injection(MessageRecord {
            id,
            source,
            destination,
            injected_round: round,
            delivered_round: None,
            frame_bits,
        });
        if !self.tile_alive(source) {
            return id;
        }
        let held = Held::new(
            id,
            source,
            destination,
            self.plan.config.default_ttl,
            payload,
        );
        if destination == source {
            if self.report.record_delivery(id, round) {
                self.sink.emit(SimEvent::Delivery {
                    round,
                    tile: source,
                    message: id,
                    source,
                });
            }
            // Local loopback skips the network; the IP sees it next round.
            let wire = self.flight.wires.push(WireEntry::clean(held));
            let frame = Frame::new(wire, None);
            self.flight.arrivals.next.push(source.index(), frame, false);
            return id;
        }
        if self.spread.audience.insert(id, source.index()) {
            self.spread.buffer(source.index(), held);
        }
        id
    }

    /// Runs until every IP is done or the round budget is exhausted,
    /// returning the final report.
    pub fn run(&mut self) -> SimulationReport {
        while !self.run.completed && self.run.round < self.plan.config.max_rounds {
            self.step();
        }
        self.finalize_report().clone()
    }

    /// Like [`Simulation::run`], but consumes the simulation so the report
    /// is moved out instead of cloned — the right call for fire-and-forget
    /// trials that never inspect the simulation afterwards.
    pub fn run_to_report(self) -> SimulationReport {
        self.run_to_report_and_sink().0
    }

    /// Runs to completion/budget while collecting every round's
    /// [`RoundStats`] — the traffic-over-time view (power profile via
    /// Equation 3: each round's transmissions × frame bits × `E_bit`).
    pub fn run_with_history(&mut self) -> (SimulationReport, Vec<RoundStats>) {
        let mut history = Vec::new();
        while !self.run.completed && self.run.round < self.plan.config.max_rounds {
            history.push(self.step());
        }
        (self.finalize_report().clone(), history)
    }

    /// Runs until the engine quiesces — live frontier empty, no frames
    /// left in the arrival delay line, every IP done — then returns the
    /// final report. Unlike [`Simulation::run`] the configured
    /// `max_rounds` budget is ignored: the loop steps for exactly as
    /// long as work remains.
    ///
    /// With no IP mapped the TTL guarantees the network drains, so the
    /// loop always terminates. A mapped IP that
    /// never reports done (or emits messages forever) makes this loop
    /// run forever — that contract is the caller's to uphold.
    pub fn run_until_idle(&mut self) -> SimulationReport {
        while !self.run.completed {
            self.step();
        }
        self.finalize_report().clone()
    }

    /// Executes one gossip round: rotate → receive → compute → age →
    /// forward → finish. This is the only round loop. With more than
    /// one shard the receive phase fans out over contiguous tile ranges
    /// on scoped threads (the `sharded` module) and merges in tile
    /// order; age and forward are one serial walk each at every shard
    /// count (every forward decision is a draw from the main thread's
    /// streams). Reports, digests and event streams are
    /// byte-identical for every shard count.
    pub fn step(&mut self) -> RoundStats {
        let round = self.run.round;
        // Wall-clock plane handles, cloned once so spans never contend
        // with the phase borrows. Compute runs user IP code and stays
        // unattributed inside the whole-round span.
        let obs = self.obs.clone();
        let round_span = span_start(&obs);
        // The frames due this round are grouped by tile, the held ones
        // become due next, and the wire table's generations rotate in
        // lockstep.
        self.flight.arrivals.rotate();
        self.flight.wires.rotate();

        // Phase 1: receive.
        let span = span_start(&obs);
        let deliveries = if self.plan.shards > 1 {
            self.receive_sharded(&obs)
        } else {
            self.spread.receive(
                &self.fabric,
                &self.plan,
                &mut self.flight,
                &mut self.report,
                &mut self.sink,
                &mut self.run,
            )
        };
        self.flight.arrivals.grouped.clear();
        span_end(&obs, EnginePhase::Receive, span);

        // Phase 2: compute (IPs run with zero computation time).
        self.compute();

        // Phase 3: age TTLs and garbage-collect over the buffer
        // frontier; spreads terminated this round are purged first.
        // (Spreads terminated in earlier rounds were purged then and can
        // never re-enter a buffer — the receive phase suppresses them.)
        let span = span_start(&obs);
        self.spread.age(round, &mut self.sink);
        self.spread.pending_purge.clear();
        span_end(&obs, EnginePhase::Age, span);

        // Phase 4: forward with probability p per (message, link).
        let span = span_start(&obs);
        let transmissions = self.forward();
        span_end(&obs, EnginePhase::Forward, span);

        let stats = RoundStats {
            round,
            transmissions,
            deliveries,
            live_messages: self.spread.live_total,
        };
        self.finish_round(round, &obs);
        span_end(&obs, EnginePhase::Round, round_span);
        stats
    }

    /// Phase 2: compute (IPs run with zero computation time). Only
    /// mapped tiles run a core; the list is taken out while its cores
    /// inject.
    fn compute(&mut self) {
        let round = self.run.round;
        let mut mapped_ips = std::mem::take(&mut self.run.mapped_ips);
        for MappedIp { tile, ip, inbox } in &mut mapped_ips {
            let node = NodeId(*tile);
            if !self.tile_alive(node) {
                continue;
            }
            let mut ctx = IpContext::new(node, round);
            if !self.run.started {
                ip.on_start(&mut ctx);
            }
            for (from, payload) in inbox.drain(..) {
                ip.on_message(&mut ctx, from, &payload);
            }
            ip.on_round(&mut ctx);
            // The tile is alive (checked above), so this is exactly an
            // outside injection at it.
            for (destination, payload) in ctx.take_outbox() {
                self.inject(node, destination, payload);
            }
        }
        self.run.mapped_ips = mapped_ips;
        self.run.started = true;
    }

    /// Round epilogue: advances the round and evaluates completion and
    /// quiescence from the frontier counters (O(1) instead of O(n)
    /// scans). Debug builds re-assert every counter and frontier bit
    /// against the ground-truth scans.
    fn finish_round(&mut self, round: u64, obs: &Option<EngineObs>) {
        let span = span_start(obs);
        let (spread, run) = (&self.spread, &mut self.run);
        run.round += 1;
        #[cfg(debug_assertions)]
        {
            let live: u64 = spread.buffers.iter().map(|b| b.len() as u64).sum();
            debug_assert_eq!(live, spread.live_total, "live-message counter drifted");
            debug_assert!(
                self.flight.arrivals.grouped.is_reset(),
                "this round's arrivals outlived the receive phase, or a grouping cursor is set"
            );
            for (tile, buffer) in spread.buffers.iter().enumerate() {
                debug_assert_eq!(
                    !buffer.is_empty(),
                    spread.frontier.contains(tile),
                    "buffer frontier inexact at tile {tile}"
                );
            }
        }
        // The run is complete when every IP has finished *and* the network
        // has drained: no live messages buffered and nothing in flight.
        // (Keeping the spread alive until TTL expiry matches the paper's
        // "the spread could be terminated" remark — the TTL is the
        // termination mechanism.) Chaos-delayed frames parked in the
        // `later` arena count as in flight, so quiescence cannot fire
        // early.
        let inflight = self.flight.arrivals.pending_frames();
        let drained = spread.live_total == 0 && inflight == 0;
        run.completed = drained && run.mapped_ips.iter().all(|mapped| mapped.ip.is_done());
        self.report.rounds_executed = run.round;
        self.report.completed = run.completed;
        if spread.live_total == 0 && !run.completed {
            // A quiescent round: the buffer frontier is empty but the
            // run is not over (frames still in the delay line, or IPs
            // not done). These are the frontier's O(active) fast-path
            // rounds.
            self.report.quiescent_rounds += 1;
            self.sink.emit(SimEvent::RoundQuiescent { round, inflight });
        }
        span_end(obs, EnginePhase::Quiescence, span);
        if let Some(obs) = obs {
            obs.count_round();
        }
    }
}
