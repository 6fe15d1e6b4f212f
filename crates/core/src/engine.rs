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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use noc_energy::{Bits, TechnologyLibrary};
use noc_fabric::{
    ClockDomain, Grid2d, IpContext, IpCore, LinkId, MessageId, NodeId, Topology, WireCodec,
    MAX_NODES, MAX_PAYLOAD_BYTES,
};
use noc_faults::{
    AdversarialScenario, ByzantineMode, CrashSchedule, FaultInjector, FaultModel, InjectionTally,
    InjectorSnapshot, OverflowMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

use crate::arrivals::{Arrivals, Grouped, Pending};
use crate::audience::{Audience, Tiles};
use crate::body::Held;
use crate::checkpoint::{Checkpoint, CheckpointError, Defined, Extent, Fnv1a, Numbering, Writer};
use crate::config::StochasticConfig;
use crate::events::{DropSite, EventSink, NullSink, SimEvent};
use crate::frontier::TileSet;
use crate::metrics::{MessageRecord, SimulationReport};
use crate::obs::{span_end, span_start, EngineObs, EnginePhase};
use crate::seed::{derive_labeled_seed, derive_trial_seed};
use crate::send_buffer::Live;
use crate::shard::{
    age_shard, plan_terminations, receive_shard, shard_ranges, split_chunks, AgeOut, OverflowPlan,
    OverflowSpan, ReceiveCtx, ReceiveOut, ReceiveTape,
};
use crate::wire::{Frame, Wire, WireEntry, WireTable, NO_LINK};

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

    /// Sets how many tile-partitioned shards a round's receive and age
    /// phases run on (scoped worker threads inside a single trial): CRC
    /// decode, dedup, buffer insertion and TTL aging go parallel; the
    /// overflow draws, compute and the whole forward phase stay on the
    /// calling thread at every count. The count is clamped to
    /// `1..=tile count`, so `0` means 1: the execution plan never
    /// depends on the host. Defaults to 1, which spawns nothing;
    /// DESIGN.md §12 has what the fan-out costs and what it has bought
    /// on the hosts measured.
    ///
    /// Reports, digests and event streams are byte-identical for every
    /// shard count: all RNG draws stay on the main thread in ascending
    /// tile order, and cross-shard merges replay that order.
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
    /// pre-pass, shard fan-out and merge inside receive and age) into
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
        let mapped_ips = self
            .ips
            .into_iter()
            .map(|(tile, ip)| MappedIp {
                tile,
                ip,
                inbox: Vec::new(),
            })
            .collect();
        let shards = self.shards.clamp(1, n.max(1));
        let buffers: Vec<Live> = (0..n).map(|_| Live::default()).collect();
        let (buffer_frontier, live_total) = derived(&buffers);
        Simulation {
            sink,
            obs: self.obs,
            egress_next: vec![None; self.egress_limits.len()],
            egress_limits: self.egress_limits,
            forward_overrides: self.forward_overrides,
            terminated: BTreeSet::new(),
            report: SimulationReport::new(self.tech),
            buffers,
            expired: vec![0; n],
            clocks: vec![ClockDomain::new(); n],
            arrivals: Arrivals::new(n),
            wires: WireTable::default(),
            audience: Audience::new(n, 0),
            tiles_alive,
            links_alive,
            topology: self.topology,
            config: self.config,
            crash_schedule,
            adversary: self.adversary,
            chaos_streams,
            compromised,
            injector,
            codec: self.codec,
            mapped_ips,
            shards,
            buffer_frontier,
            live_total,
            pending_purge: Vec::new(),
            emptied_scratch: Vec::new(),
            receive_tape: ReceiveTape::default(),
            seed: self.seed,
            config_digest: OnceLock::new(),
            round: 0,
            next_message_id: 0,
            started: false,
            completed: false,
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
}

/// What the send buffers determine and the engine keeps beside them: the
/// frontier of tiles holding a copy and the live total. A build starts
/// from it, and a restore ends with it.
fn derived(buffers: &[Live]) -> (TileSet, u64) {
    let mut frontier = TileSet::new(buffers.len());
    let mut live = 0;
    for (tile, buffer) in buffers.iter().enumerate() {
        if !buffer.is_empty() {
            frontier.insert(tile);
            live += buffer.len() as u64;
        }
    }
    (frontier, live)
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
    topology: Topology,
    config: StochasticConfig,
    crash_schedule: CrashSchedule,
    adversary: AdversarialScenario,
    /// One chaos RNG stream per link; empty when chaos is inactive, so
    /// benign builds index nothing and draw nothing.
    chaos_streams: Vec<StdRng>,
    /// The adversary's state at each compromised tile; empty when the
    /// Byzantine mechanism is inactive.
    compromised: BTreeMap<usize, Compromised>,
    injector: FaultInjector,
    codec: WireCodec,
    tiles_alive: Vec<bool>,
    links_alive: Vec<bool>,
    /// Each tile's send buffer: the copies it holds, in insertion order.
    buffers: Vec<Live>,
    /// Each tile's TTL expiries so far, beside its buffer: only the report
    /// and a checkpoint read them.
    expired: Vec<u64>,
    clocks: Vec<ClockDomain>,
    /// The delay line: frames sent and not yet received.
    arrivals: Arrivals,
    /// The entries behind every in-flight [`Frame`] handle, rotated with
    /// the arenas (a checkpoint numbers the entries the handles name).
    wires: WireTable,
    /// Tiles whose send buffer has seen each message id: the one
    /// seen-set receive dedups against, the informed population, and
    /// what a checkpoint writes window by window.
    audience: Audience,
    /// The mapped IP cores, ascending by tile: the compute phase's
    /// worklist. An unmapped tile runs no core.
    mapped_ips: Vec<MappedIp>,
    /// Per-tile egress limits; empty when no tile has one.
    egress_limits: Vec<Option<usize>>,
    /// Round-robin egress resume point per tile: the *id* of the next
    /// message owed service, so buffer shrinkage between rounds (TTL
    /// expiry, termination purges) cannot skip or double-serve entries.
    /// As long as `egress_limits`, and `None` at every tile without a
    /// limit.
    egress_next: Vec<Option<MessageId>>,
    /// Per-tile forwarding probabilities; empty when no tile has one.
    forward_overrides: Vec<Option<f64>>,
    terminated: BTreeSet<MessageId>,
    report: SimulationReport,
    /// Tile ranges the receive and age phases fan out over (1 = none).
    shards: usize,
    /// Tiles whose send buffer is non-empty — the age/forward frontier.
    buffer_frontier: TileSet,
    /// Total live messages across all send buffers.
    live_total: u64,
    /// Message ids whose spread terminated *this* round (purged from
    /// frontier buffers in the age phase, then cleared). Earlier
    /// terminations cannot re-enter any buffer: the receive phase
    /// suppresses them at insertion.
    pending_purge: Vec<MessageId>,
    /// Recycled scratch for tiles whose buffer drained during aging.
    emptied_scratch: Vec<u32>,
    /// Recycled pre-drawn overflow verdicts (rounds on more than one
    /// shard).
    receive_tape: ReceiveTape,
    /// The base seed the simulation was built with — part of the
    /// checkpoint config digest (two runs with different seeds are
    /// never resume-compatible).
    seed: u64,
    /// `config_digest_value`, computed by its first caller: the plan it
    /// hashes is fixed at build.
    config_digest: OnceLock<u64>,
    round: u64,
    next_message_id: u64,
    started: bool,
    completed: bool,
}

impl<S: EventSink> Simulation<S> {
    /// Number of tiles in the network.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The protocol configuration in force.
    pub fn config(&self) -> &StochasticConfig {
        &self.config
    }

    /// The current round (number of rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The resolved shard count this simulation steps with.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// True once every IP has reported done.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Is this tile currently alive?
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn tile_alive(&self, node: NodeId) -> bool {
        self.assert_in_topology(node);
        self.tiles_alive[node.index()] && !self.crash_schedule.tile_dead(node.index(), self.round)
    }

    fn assert_in_topology(&self, node: NodeId) {
        assert!(
            node.index() < self.topology.node_count(),
            "{node} outside topology"
        );
    }

    /// Number of tiles whose send buffer has seen message `id` — the
    /// "informed population" of the epidemic analogy. O(1): experiment
    /// harnesses poll this every round.
    pub fn informed_count(&self, id: MessageId) -> usize {
        self.audience.count(id)
    }

    /// Has this tile's send buffer ever seen message `id`?
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn node_informed(&self, node: NodeId, id: MessageId) -> bool {
        self.assert_in_topology(node);
        self.audience.contains(id, node.index())
    }

    /// Number of live messages currently buffered at a tile.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn buffer_len(&self, node: NodeId) -> usize {
        self.assert_in_topology(node);
        self.buffers[node.index()].len()
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
        self.injector.tally()
    }

    /// Runs to completion/budget, then returns both the report and the
    /// installed sink by move — the one-call form for trials that want
    /// the attributed event view next to the global totals.
    pub fn run_to_report_and_sink(mut self) -> (SimulationReport, S) {
        while !self.completed && self.round < self.config.max_rounds {
            self.step();
        }
        self.finalize_report();
        (self.report, self.sink)
    }

    /// Folds the per-component tallies (clock slips, TTL expirations) into
    /// the report — the single finalization point shared by every way of
    /// extracting a report.
    fn finalize_report(&mut self) -> &SimulationReport {
        self.report.clock_slips = self
            .clocks
            .iter()
            .fold(0, |sum, clock| sum.saturating_add(clock.slips()));
        self.report.ttl_expirations = self.expired.iter().sum();
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
        let id = MessageId(self.next_message_id);
        self.next_message_id += 1;
        self.audience.assign(id);
        let frame_bits = self.codec.frame_bits(payload.len());
        self.report.record_injection(MessageRecord {
            id,
            source,
            destination,
            injected_round: self.round,
            delivered_round: None,
            frame_bits,
        });
        if !self.tile_alive(source) {
            return id;
        }
        let held = Held::new(id, source, destination, self.config.default_ttl, payload);
        if destination == source {
            if self.report.record_delivery(id, self.round) {
                self.sink.emit(SimEvent::Delivery {
                    round: self.round,
                    tile: source,
                    message: id,
                    source,
                });
            }
            // Local loopback skips the network; the IP sees it next round.
            let wire = self.wires.push(WireEntry::clean(held));
            let frame = Frame::new(wire, None);
            self.arrivals.next.push(source.index(), frame, false);
            return id;
        }
        if self.audience.insert(id, source.index()) {
            if self.buffers[source.index()].insert(held) {
                self.live_total += 1;
                self.buffer_frontier.insert(source.index());
            } else {
                self.expired[source.index()] += 1;
            }
        }
        id
    }

    /// Runs until every IP is done or the round budget is exhausted,
    /// returning the final report.
    pub fn run(&mut self) -> SimulationReport {
        while !self.completed && self.round < self.config.max_rounds {
            self.step();
        }
        self.finalize_report().clone()
    }

    /// Like [`Simulation::run`], but consumes the simulation so the report
    /// is moved out instead of cloned — the right call for fire-and-forget
    /// trials that never inspect the simulation afterwards.
    pub fn run_to_report(mut self) -> SimulationReport {
        while !self.completed && self.round < self.config.max_rounds {
            self.step();
        }
        self.into_report()
    }

    /// Runs to completion/budget while collecting every round's
    /// [`RoundStats`] — the traffic-over-time view (power profile via
    /// Equation 3: each round's transmissions × frame bits × `E_bit`).
    pub fn run_with_history(&mut self) -> (SimulationReport, Vec<RoundStats>) {
        let mut history = Vec::new();
        while !self.completed && self.round < self.config.max_rounds {
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
        while !self.completed {
            self.step();
        }
        self.finalize_report().clone()
    }

    /// Digest of the simulation's defining tuple: topology shape, seed,
    /// protocol config, fault model, (folded) crash schedule, adversary,
    /// codec, technology point, egress limits and forwarding overrides.
    /// Everything that determines the draw sequence and the observables
    /// — and nothing that does not: the shard count, event sink and
    /// observability plane are excluded, so a checkpoint taken at one
    /// shard count resumes at any other. Computed once per simulation:
    /// every field it hashes is fixed at build.
    fn config_digest_value(&self) -> u64 {
        *self.config_digest.get_or_init(|| {
            let n = self.topology.node_count();
            let mut hash = Fnv1a::default();
            hash.update(&(n as u64).to_le_bytes());
            hash.update(&(self.topology.link_count() as u64).to_le_bytes());
            hash.update(&self.seed.to_le_bytes());
            // Hashed as it is formatted; `Fnv1a` takes every write, so
            // formatting cannot fail.
            let _ = write!(
                hash,
                "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.config,
                self.injector.model(),
                self.crash_schedule,
                self.adversary,
                self.codec,
                self.report.technology(),
                PerTile(&self.egress_limits, n),
                PerTile(&self.forward_overrides, n),
            );
            hash.finish()
        })
    }

    /// Captures a serializable snapshot of the full engine state at the
    /// current round boundary.
    ///
    /// Valid whenever the caller holds `&self` outside
    /// [`Simulation::step`]. The snapshot records every input to future
    /// draws and deliveries — RNG stream positions (fault stream with
    /// its Box–Muller spare, per-link chaos streams, per-tile Byzantine
    /// streams), each message's audience, send buffers and egress
    /// cursors, clock-domain phases, the arrival delay line, adversary
    /// replay ammunition, and the report-so-far — so a
    /// [`SimulationBuilder::resume`]d simulation
    /// replays the remaining rounds byte-identically. Custom IP-core
    /// state is *not* captured (see [`Checkpoint`]).
    #[deny(unused_variables)]
    pub fn checkpoint(&self) -> Checkpoint {
        // The compiler is the coverage check: no `..` here, so a new field
        // fails the build (E0027) until it is written below or ignored by
        // name, and a bound field no longer written is an `unused variable`
        // error. A `_` is a reviewed decision: file it under its reason.
        let Simulation {
            // Plan: fixed at build and hashed by `config_digest_value`, so
            // a resume under any other value is refused. That includes the
            // knob tables, empty or not.
            topology: _,
            config: _,
            crash_schedule: _,
            adversary: _,
            codec: _,
            egress_limits: _,
            forward_overrides: _,
            seed: _,
            // Not state. Observers a resumed run installs itself: `sink`,
            // `obs`, and `mapped_ips` (trait objects the builder re-maps,
            // whose inboxes compute drains every round). The
            // execution-plan knob `shards`: every shard count makes the
            // same draws. Scratch that is empty at every round boundary:
            // `pending_purge`, `emptied_scratch`, the arrivals grouped for
            // the round (below), and `receive_tape`, re-drawn each round.
            // Bookkeeping `restore_from` rebuilds from the buffers:
            // `buffer_frontier`, `live_total`. The memo `config_digest`:
            // the plan's digest, which `Writer::new` writes through
            // `config_digest_value`.
            sink: _,
            obs: _,
            mapped_ips: _,
            shards: _,
            buffer_frontier: _,
            live_total: _,
            pending_purge: _,
            emptied_scratch: _,
            receive_tape: _,
            config_digest: _,
            // State: written below, in this order.
            round,
            next_message_id,
            started,
            completed,
            injector,
            chaos_streams,
            compromised,
            tiles_alive,
            links_alive,
            clocks,
            egress_next,
            buffers,
            expired,
            arrivals:
                Arrivals {
                    next,
                    later,
                    grouped: _,
                },
            wires,
            audience,
            terminated,
            report,
        } = self;
        let mut w = Writer::new(self.config_digest_value(), *round, &self.extent());
        w.u64(*next_message_id);
        w.bool(*started);
        w.bool(*completed);
        let snap = injector.snapshot();
        w.rng_state(snap.rng_state);
        w.opt_u64(snap.gauss_spare.map(f64::to_bits));
        w.u64(snap.tally.upsets);
        w.u64(snap.tally.overflow_drops);
        w.u64(snap.tally.skew_draws);
        w.count(chaos_streams.len());
        for stream in chaos_streams {
            w.rng_state(stream.state());
        }
        w.count(compromised.len());
        for (&tile, at) in compromised {
            w.u64(tile as u64);
            w.rng_state(at.stream.state());
        }
        w.count(
            compromised
                .values()
                .filter(|at| at.last_frame.is_some())
                .count(),
        );
        for (&tile, at) in compromised {
            if let Some((id, frame)) = &at.last_frame {
                w.u64(tile as u64);
                w.u64(id.0);
                w.bytes_with(|out| wires.append_bytes(&self.codec, injector, frame, out));
            }
        }
        w.bools(tiles_alive);
        w.bools(links_alive);
        w.count(clocks.len());
        for clock in clocks {
            let (skew, slips) = clock.to_parts();
            w.u64(skew.to_bits());
            w.u64(slips);
        }
        // One cursor a tile, the tiles without a limit included.
        let n = buffers.len();
        w.count(n);
        for tile in 0..n {
            let cursor = egress_next.get(tile).copied().flatten();
            w.opt_u64(cursor.map(|id| id.0));
        }
        // Each message's audience window, whole.
        w.count(audience.windows().count());
        for (id, first, words) in audience.windows() {
            w.u64(id.0);
            w.u32(first as u32);
            w.count(words.len());
            for &word in words {
                w.u64(word);
            }
        }
        // Bodies and clean entries are numbered where first written.
        let mut numbering = Numbering::new(*next_message_id, wires);
        w.count(n);
        for (buffer, &expired) in buffers.iter().zip(expired) {
            w.short_count(buffer.len());
            for held in buffer.as_slice() {
                numbering.copy(&mut w, held);
            }
            w.u64(expired);
        }
        // An arena is written tile by tile: each list is grouped through
        // one scratch, known duplicates back at their places (the target
        // of the link each crossed), and a tile the grouping skips has no
        // frames.
        let mut arena = Grouped::new(n);
        let topology = &self.topology;
        let receiver = |frame: Frame| {
            frame
                .via()
                .map_or(usize::MAX, |link| topology.link(link).to.index())
        };
        for pending in [next, later] {
            arena.group_with_known(pending, receiver);
            w.count(n);
            let mut tiles = arena.tiles(0, n).peekable();
            for tile in 0..n {
                let frames = tiles.next_if(|&(at, _)| at == tile);
                let frames = frames.map_or(&[][..], |(_, frames)| frames);
                w.short_count(frames.len());
                for f in frames {
                    let via = f.via().map_or(NO_LINK, |link| link.index() as u32);
                    numbering.frame(&mut w, via, f.wire);
                }
            }
        }
        w.count(terminated.len());
        for id in terminated {
            w.u64(id.0);
        }
        w.u64(report.rounds_executed);
        w.bool(report.completed);
        for counter in [
            report.packets_sent,
            report.bits_sent.bits(),
            report.upsets_detected,
            report.upsets_undetected,
            report.overflow_drops,
            report.crash_drops,
            report.clock_slips,
            report.ttl_expirations,
            report.partition_drops,
            report.byzantine_forges,
            report.byzantine_replays,
            report.adversarial_delays,
            report.adversarial_reorders,
            report.quiescent_rounds,
        ] {
            w.u64(counter);
        }
        w.count(report.records().count());
        for rec in report.records() {
            w.u64(rec.id.0);
            w.u64(rec.source.index() as u64);
            w.u64(rec.destination.index() as u64);
            w.u64(rec.injected_round);
            w.opt_u64(rec.delivered_round);
            w.u64(rec.frame_bits.bits());
        }
        w.finish()
    }

    /// What [`Simulation::checkpoint`] writes, counted from above. Capture
    /// defines a body once per distinct content, and every content was
    /// minted where a body is made: an inject (one an id), a Byzantine
    /// forge (one a forgery), or the decode of an upset the CRC missed,
    /// which a buffer can take only where receive counts it undetected.
    /// Every other body shares or repeats one of these: a served or
    /// replayed frame shares its copy's body, and a restore reads back
    /// contents its capture had. So the ids assigned and the two report
    /// counters, which never fall, bound the bodies.
    fn extent(&self) -> Extent {
        let frame_bits = self.report.records().map(|rec| rec.frame_bits.bits());
        let windows = self.audience.windows().map(|(_, _, words)| words.len());
        let (windows, window_words) = windows.fold((0, 0), |(n, sum), len| (n + 1, sum + len));
        // The previous round's entries stay named only by a frame held a
        // round longer, which heads its list.
        let held = self
            .arrivals
            .next
            .heads()
            .any(|frame| self.wires.slot(frame.wire).0 == 1);
        let report = &self.report;
        let bodies = self.next_message_id + report.upsets_undetected + report.byzantine_forges;
        Extent {
            tiles: self.node_count(),
            links: self.topology.link_count(),
            cursors: self.egress_next.iter().flatten().count(),
            copies: self.live_total as usize,
            frames: self.arrivals.pending_frames() as usize,
            entries: self.wires.kinds(1 + usize::from(held)),
            bodies: bodies as usize,
            windows,
            window_words,
            replays: self.compromised.len(),
            streams: self.chaos_streams.len() + self.compromised.len(),
            records: report.records().count(),
            terminated: self.terminated.len(),
            frame_bytes: frame_bits.max().unwrap_or(0).div_ceil(8) as usize,
        }
    }

    /// Overwrites this (freshly built) simulation's state with a
    /// checkpoint's, streaming the validated bytes section by section
    /// in the order [`Simulation::checkpoint`] wrote them, then deriving
    /// the buffer frontier and the live total from the buffers as a build
    /// does. Only called from
    /// [`SimulationBuilder::resume_with_sink`] on a simulation that has
    /// executed zero rounds, so that bookkeeping and every scratch
    /// structure start empty; a restore that fails midway leaves a
    /// half-written simulation for the caller to drop.
    #[expect(
        clippy::disallowed_methods,
        reason = "puts the adversary streams back at their checkpointed positions; main thread, before any round"
    )]
    fn restore_from(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        use CheckpointError::Mismatch;
        if ck.config_digest() != self.config_digest_value() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let n = self.topology.node_count();
        let m = self.topology.link_count();
        let per_tile = |count: usize| {
            (count == n)
                .then_some(())
                .ok_or(Mismatch("per-tile state length"))
        };
        let mut r = ck.body();
        self.round = ck.round();
        self.next_message_id = r.u64()?;
        // Every `inject` records its id, so the bytes that follow hold a
        // record (41 bytes at least) per id: refused here, before the
        // audience is sized by it.
        if !r.holds(self.next_message_id, 41) {
            return Err(Mismatch("more message ids than records"));
        }
        self.audience = Audience::new(n, self.next_message_id as usize);
        self.started = r.bool()?;
        self.completed = r.bool()?;
        let rng_state = r.rng_state()?;
        // Scaled by σ_synch, the spare is the next skew handed to
        // `ClockDomain::advance`.
        let gauss_spare = r.opt_u64()?.map(f64::from_bits);
        if gauss_spare.is_some_and(|spare| !spare.is_finite()) {
            return Err(Mismatch("non-finite Gaussian spare"));
        }
        self.injector.restore(&InjectorSnapshot {
            rng_state,
            gauss_spare,
            tally: InjectionTally {
                upsets: r.u64()?,
                overflow_drops: r.u64()?,
                skew_draws: r.u64()?,
            },
        });
        if r.count(32)? != self.chaos_streams.len() {
            return Err(Mismatch("chaos stream count"));
        }
        for stream in &mut self.chaos_streams {
            *stream = StdRng::from_state(r.rng_state()?);
        }
        if r.count(40)? != self.compromised.len() {
            return Err(Mismatch("byzantine tile set"));
        }
        for _ in 0..self.compromised.len() {
            let tile = r.u64()? as usize;
            let at = self.compromised.get_mut(&tile);
            at.ok_or(Mismatch("byzantine tile set"))?.stream = StdRng::from_state(r.rng_state()?);
        }
        let codec = &self.codec;
        // Only a compromised tile replays, and capture lists each one
        // once, in tile order.
        let mut last_tile = None;
        for _ in 0..r.count(24)? {
            let (tile, id, frame) = (r.u64()? as usize, r.u64()?, r.bytes()?);
            if last_tile.is_some_and(|last| tile <= last) {
                return Err(Mismatch("byzantine replay slots out of tile order"));
            }
            last_tile = Some(tile);
            let at = self.compromised.get_mut(&tile);
            let at = at.ok_or(Mismatch("byzantine replay slot at an honest tile"))?;
            let entry = WireEntry::decoded(codec, frame)
                .map_err(|_| Mismatch("unscrambled frame does not decode"))?;
            at.last_frame = Some((MessageId(id), entry));
        }
        for (alive, len, what) in [
            (&mut self.tiles_alive, n, "tile liveness length"),
            (&mut self.links_alive, m, "link liveness length"),
        ] {
            let flags = r.bytes()?;
            if flags.len() != len {
                return Err(Mismatch(what));
            }
            alive.clear();
            alive.extend(flags.iter().map(|&flag| flag != 0));
        }
        per_tile(r.count(16)?)?;
        for clock in &mut self.clocks {
            *clock = ClockDomain::from_parts(f64::from_bits(r.u64()?), r.u64()?)
                .ok_or(Mismatch("clock skew outside (-0.5, 0.5]"))?;
        }
        // Only a tile with a limit moves its cursor.
        per_tile(r.count(1)?)?;
        for tile in 0..n {
            let Some(id) = r.opt_u64()? else {
                continue;
            };
            let limited = matches!(self.egress_limits.get(tile), Some(Some(_)));
            let cursor = self.egress_next.get_mut(tile).filter(|_| limited);
            *cursor.ok_or(Mismatch("egress cursor at a tile without a limit"))? =
                Some(MessageId(id));
        }
        // The audience, window by window, ascending by id; each window's
        // words are bytes of the checkpoint, so what they allocate is too.
        let mut last_id = None;
        for _ in 0..r.count(8 + 4 + 8)? {
            let (id, first) = (MessageId(r.u64()?), r.u32()? as usize);
            if last_id.is_some_and(|last| id <= last) {
                return Err(Mismatch("audience windows out of id order"));
            }
            last_id = Some(id);
            let words = (0..r.count(8)?)
                .map(|_| r.u64())
                .collect::<Result<_, _>>()?;
            self.audience.restore(id, first, words).map_err(Mismatch)?;
        }
        // Tiles buffering the same message share its body, as they do in
        // a live run: a copy names its body by number.
        let mut defined = Defined::default();
        per_tile(r.count(4 + 8)?)?;
        let mut copies = Vec::new();
        let tiles = self.buffers.iter_mut().zip(&mut self.expired);
        for (tile, (buffer, expired)) in tiles.enumerate() {
            for _ in 0..r.short_count(4 + 1)? {
                let copy = defined.copy(&mut r, tile)?;
                // A buffer keeps one copy of a message because its tile
                // has seen the id: a copy of an id the tile's audience
                // lacks would be buffered again by the next to arrive.
                if !self.audience.contains(copy.id(), tile) {
                    return Err(Mismatch("buffered message repeats or was never seen"));
                }
                copies.push(copy);
            }
            *buffer = Live::take_from(&mut copies);
            *expired = r.u64()?;
        }
        // Appended tile by tile, each tile's frames in arrival order: the
        // order grouping gives them back in. A clean entry is registered
        // where it is defined and shared by number after; each upset copy
        // was one transmission's, and gets an entry of its own.
        for pending in [&mut self.arrivals.next, &mut self.arrivals.later] {
            per_tile(r.count(4)?)?;
            for tile in 0..n {
                for _ in 0..r.short_count(4 + 4)? {
                    // The link and the entry word, read as one.
                    let word = r.u64()?;
                    let (via, entry) = (word as u32, (word >> 32) as u32);
                    if via != NO_LINK && via as usize >= m {
                        return Err(Mismatch("arena frame link index"));
                    }
                    let wire = defined.entry(entry, &mut r, &mut self.wires, codec)?;
                    let via = (via != NO_LINK).then_some(LinkId(via as usize));
                    pending.push(tile, Frame::new(wire, via), false);
                }
            }
        }
        (self.buffer_frontier, self.live_total) = derived(&self.buffers);
        for _ in 0..r.count(8)? {
            self.terminated.insert(MessageId(r.u64()?));
        }
        let report = &mut self.report;
        report.rounds_executed = r.u64()?;
        report.completed = r.bool()?;
        report.packets_sent = r.u64()?;
        report.bits_sent = Bits(r.u64()?);
        for counter in [
            &mut report.upsets_detected,
            &mut report.upsets_undetected,
            &mut report.overflow_drops,
            &mut report.crash_drops,
            &mut report.clock_slips,
            &mut report.ttl_expirations,
            &mut report.partition_drops,
            &mut report.byzantine_forges,
            &mut report.byzantine_replays,
            &mut report.adversarial_delays,
            &mut report.adversarial_reorders,
            &mut report.quiescent_rounds,
        ] {
            *counter = r.u64()?;
        }
        if r.count(41)? as u64 != self.next_message_id {
            return Err(Mismatch("records are not the ids injected"));
        }
        for next in 0..self.next_message_id {
            let id = r.u64()?;
            if id != next {
                return Err(Mismatch("records are not the ids injected"));
            }
            report.record_injection(MessageRecord {
                id: MessageId(id),
                source: NodeId(r.u64()? as usize),
                destination: NodeId(r.u64()? as usize),
                injected_round: r.u64()?,
                delivered_round: r.opt_u64()?,
                frame_bits: Bits(r.u64()?),
            });
        }
        Ok(())
    }

    /// Executes one gossip round: rotate → receive → compute → age →
    /// forward → finish. This is the only round loop. With more than
    /// one shard the receive and age phases fan out over contiguous
    /// tile ranges on scoped threads (the `shard` module) and merge in
    /// tile order; forward is one serial walk at every shard count,
    /// because every one of its decisions is a draw from the main
    /// thread's streams. Reports, digests and event streams are
    /// byte-identical for every shard count.
    pub fn step(&mut self) -> RoundStats {
        let round = self.round;
        // Wall-clock plane handles, cloned once so spans never contend
        // with the phase borrows. Compute runs user IP code and stays
        // unattributed inside the whole-round span.
        let obs = self.obs.clone();
        let round_span = span_start(&obs);
        let mut stats = RoundStats {
            round,
            ..RoundStats::default()
        };
        self.rotate_arenas();
        let sharded = self.shards > 1;

        // Phase 1: receive.
        let span = span_start(&obs);
        if sharded {
            self.receive_sharded(&mut stats, &obs);
        } else {
            self.receive_sequential(&mut stats);
        }
        self.arrivals.grouped.clear();
        span_end(&obs, EnginePhase::Receive, span);

        // Phase 2: compute (IPs run with zero computation time).
        self.run_compute(round);

        // Phase 3: age TTLs and garbage-collect over the buffer
        // frontier; spreads terminated this round are purged first.
        // (Spreads terminated in earlier rounds were purged then and can
        // never re-enter a buffer — the receive phase suppresses them.)
        let span = span_start(&obs);
        if sharded {
            self.age_sharded(&obs);
        } else {
            self.age_sequential();
        }
        self.pending_purge.clear();
        span_end(&obs, EnginePhase::Age, span);

        // Phase 4: forward with probability p per (message, link). The
        // buffer is walked by reference, each frame is registered once
        // per round through the wire table's memo (and encoded only if an
        // upset reads its bytes), and fan-out copies the 8-byte handle.
        let span = span_start(&obs);
        {
            let (mut tx, mut out) = self.forward_split(&mut stats);
            for tile in out.frontier.iter() {
                let Some(slips) = tx.open_tile(tile) else {
                    continue;
                };
                let node = NodeId(tile);
                // One event per boundary: up to `u32::MAX` turns that an
                // unoptimised build would take even for a sink that
                // records nothing.
                if S::RECORDS {
                    for _ in 0..slips {
                        out.sink.emit(SimEvent::ClockSlip { round, tile: node });
                    }
                }
                tx.serve_tile(tile, slips > 0, |tx, kind, serve| {
                    out.sink.emit(kind.event(round, node, serve.id));
                    tx.transmit(&mut out, node, serve);
                });
            }
        }
        span_end(&obs, EnginePhase::Forward, span);

        self.finish_round(&mut stats, &obs);
        span_end(&obs, EnginePhase::Round, round_span);
        stats
    }

    /// Shifts the delay line: the frames due this round are grouped by
    /// tile, the held ones become due next ([`Arrivals::rotate`]), and
    /// the wire table's generations rotate in lockstep.
    fn rotate_arenas(&mut self) {
        self.arrivals.rotate();
        self.wires.rotate();
    }

    /// The one-shard receive phase, over the arrival frontier in
    /// ascending tile order: the visit, and therefore RNG draw, sequence
    /// of a full `0..n` scan.
    fn receive_sequential(&mut self, stats: &mut RoundStats) {
        let round = self.round;
        let Simulation {
            ref config,
            ref crash_schedule,
            ref mut injector,
            ref wires,
            ref tiles_alive,
            ref mut buffers,
            ref mut expired,
            ref mut arrivals,
            ref mut mapped_ips,
            ref mut terminated,
            ref mut pending_purge,
            ref mut audience,
            ref mut report,
            ref mut sink,
            ref mut buffer_frontier,
            ref mut live_total,
            ..
        } = *self;
        for (tile, frames) in arrivals.grouped.tiles_mut() {
            let node = NodeId(tile);
            if !tiles_alive[tile] || crash_schedule.tile_dead(tile, round) {
                report.crash_drops += frames.len() as u64;
                for _ in 0..frames.len() {
                    sink.emit(SimEvent::CrashDrop {
                        round,
                        site: DropSite::Tile(node),
                    });
                }
                continue;
            }
            for &frame in apply_overflow_in_place(injector, report, sink, round, node, frames) {
                let entry = wires.entry(frame.wire);
                let held = match entry.held() {
                    // An upset copy is rejected here unless the CRC
                    // missed it (a caught one without a look at bytes
                    // it never built); a missed one took the real CRC
                    // check when it was made, so the residual
                    // undetected-error rate is faithfully possible.
                    None => match entry.upset_view() {
                        Some(view) => {
                            let id = view.id();
                            if terminated.contains(&id) {
                                // Spread already terminated.
                                sink.emit(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: id,
                                });
                                continue;
                            }
                            // The CRC failed to notice the upset: the
                            // corrupt message proceeds, faithfully.
                            report.upsets_undetected += 1;
                            sink.emit(SimEvent::UndetectedUpset {
                                round,
                                tile: node,
                                message: id,
                            });
                            if audience.contains(id, tile) {
                                // Duplicate: insertion is a no-op.
                                sink.emit(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: id,
                                });
                                continue;
                            }
                            view.clone()
                        }
                        None => {
                            report.upsets_detected += 1;
                            sink.emit(SimEvent::CrcReject {
                                round,
                                tile: node,
                                link: frame.via(),
                            });
                            continue;
                        }
                    },
                    // Never-scrambled frames are bit-identical to our
                    // own encoder's output, so the entry's message is
                    // what they decode to. Most arrivals in a flood
                    // are duplicates of an already-buffered message:
                    // they die right here on the entry's id, without
                    // a look at the bytes — on one audience bit, so the
                    // `BTreeSet` walk runs only for the 1 % that pass it.
                    Some(held) => {
                        let id = held.id();
                        if audience.contains(id, tile) || terminated.contains(&id) {
                            sink.emit(SimEvent::DuplicateDrop {
                                round,
                                tile: node,
                                message: id,
                            });
                            continue;
                        }
                        // First sighting: shares the body.
                        held.clone()
                    }
                };
                let body = &*held.body;
                let id = body.id;
                audience.insert(id, tile);
                if body.destination == node {
                    if report.record_delivery(id, round) {
                        sink.emit(SimEvent::Delivery {
                            round,
                            tile: node,
                            message: id,
                            source: body.source,
                        });
                    }
                    stats.deliveries += 1;
                    MappedIp::stage(mapped_ips, tile, body.source, &body.payload);
                    if config.terminate_on_delivery && terminated.insert(id) {
                        pending_purge.push(id);
                    }
                }
                if buffers[tile].insert(held) {
                    *live_total += 1;
                    buffer_frontier.insert(tile);
                } else {
                    // Only reachable when an undetected upset zeroed the
                    // TTL field: the id is consumed, the tile counts an
                    // expiry, and the event stream must agree.
                    expired[tile] += 1;
                    sink.emit(SimEvent::TtlExpiry {
                        round,
                        tile: node,
                        message: id,
                    });
                }
            }
        }
    }

    /// The receive phase on more than one shard (see [`crate::shard`]):
    /// the overflow draws happen here on the main thread, in a serial
    /// pre-pass that walks tiles in exactly the one-shard order; scoped
    /// workers execute the recorded verdicts over disjoint tile ranges;
    /// the merge walks shards in ascending tile order.
    fn receive_sharded(&mut self, stats: &mut RoundStats, obs: &Option<EngineObs>) {
        let round = self.round;
        let record_events = S::RECORDS;
        let ranges = shard_ranges(self.node_count(), self.shards);

        // Receive pre-pass: probabilistic overflow draws one Bernoulli
        // per arriving frame at each alive tile — replay them onto the
        // tape in tile order.
        self.receive_tape.clear();
        let tape_mode = matches!(
            self.injector.model().overflow_mode,
            OverflowMode::Probabilistic
        ) && self.injector.model().p_overflow > 0.0;
        if tape_mode {
            let tape_span = span_start(obs);
            let Simulation {
                ref mut receive_tape,
                ref mut injector,
                ref arrivals,
                ref tiles_alive,
                ref crash_schedule,
                ..
            } = *self;
            for (tile, frames) in arrivals.grouped.tiles(0, tiles_alive.len()) {
                if !tiles_alive[tile] || crash_schedule.tile_dead(tile, round) {
                    continue;
                }
                let start = receive_tape.keeps.len() as u32;
                for _ in 0..frames.len() {
                    receive_tape.keeps.push(!injector.overflow_drop());
                }
                receive_tape.spans.push(OverflowSpan {
                    tile: tile as u32,
                    start,
                    len: frames.len() as u32,
                });
            }
            span_end(obs, EnginePhase::Tape, tape_span);
        }
        let overflow_plan = if tape_mode {
            OverflowPlan::Tape(&self.receive_tape)
        } else {
            match self.injector.model().overflow_mode {
                OverflowMode::Structural { capacity } => OverflowPlan::Structural { capacity },
                OverflowMode::Probabilistic => OverflowPlan::None,
            }
        };

        // Termination plan: under terminate-on-delivery one tile's
        // delivery suppresses later copies of the id — cross-shard
        // information a worker cannot observe, so the delivering tiles
        // are computed up front (RNG-free).
        let newly_terminated = if self.config.terminate_on_delivery {
            plan_terminations(
                round,
                &self.arrivals.grouped,
                &self.audience,
                &self.wires,
                &self.tiles_alive,
                &self.crash_schedule,
                &overflow_plan,
                &self.terminated,
            )
        } else {
            BTreeMap::new()
        };

        // Phase 1: receive, one RNG-free worker per shard.
        let fan_span = if self.arrivals.grouped.is_empty() {
            None
        } else {
            span_start(obs)
        };
        let receive_outs: Vec<ReceiveOut> = if self.arrivals.grouped.is_empty() {
            Vec::new()
        } else {
            let Simulation {
                ref config,
                ref crash_schedule,
                ref wires,
                ref tiles_alive,
                ref mut buffers,
                ref mut expired,
                ref arrivals,
                ref audience,
                ref terminated,
                ..
            } = *self;
            let ctx = ReceiveCtx {
                round,
                arrivals: &arrivals.grouped,
                wires,
                tiles_alive,
                crash_schedule,
                overflow: overflow_plan,
                audience,
                terminated,
                newly_terminated: &newly_terminated,
                terminate_on_delivery: config.terminate_on_delivery,
                record_events,
            };
            let buffers = split_chunks(buffers, &ranges);
            let expired = split_chunks(expired, &ranges);
            let work: Vec<_> = ranges
                .iter()
                .zip(buffers.into_iter().zip(expired))
                .map(|(&(lo, _), tiles)| (lo, tiles))
                .collect();
            run_shards(work, |(lo, (buf, expired))| {
                receive_shard(&ctx, lo, buf, expired)
            })
        };
        span_end(obs, EnginePhase::ShardFanout, fan_span);
        let merge_span = if receive_outs.is_empty() {
            None
        } else {
            span_start(obs)
        };
        for out in &receive_outs {
            self.report.crash_drops += out.crash_drops;
            self.report.overflow_drops += out.overflow_drops;
            self.report.upsets_detected += out.upsets_detected;
            self.report.upsets_undetected += out.upsets_undetected;
            for &(tile, id) in &out.first_sights {
                self.audience.insert(id, tile as usize);
            }
            stats.deliveries += out.deliveries.len() as u64;
            for (tile, from, payload) in &out.staged {
                MappedIp::stage(&mut self.mapped_ips, *tile as usize, *from, payload);
            }
            if record_events {
                // Delivery events are candidates: first-delivery
                // arbitration replays here, in shard (= tile) order.
                for &event in &out.events {
                    if let SimEvent::Delivery { round, message, .. } = event {
                        if self.report.record_delivery(message, round) {
                            self.sink.emit(event);
                        }
                    } else {
                        self.sink.emit(event);
                    }
                }
            } else {
                for &id in &out.deliveries {
                    self.report.record_delivery(id, round);
                }
            }
            self.live_total += out.inserted;
            for &tile in &out.touched {
                self.buffer_frontier.insert(tile as usize);
            }
        }
        span_end(obs, EnginePhase::Merge, merge_span);
        for &id in newly_terminated.keys() {
            if self.terminated.insert(id) {
                self.pending_purge.push(id);
            }
        }
    }

    /// The one-shard age phase over the buffer frontier.
    fn age_sequential(&mut self) {
        let round = self.round;
        let Simulation {
            ref mut buffers,
            ref mut expired,
            ref mut sink,
            ref buffer_frontier,
            ref pending_purge,
            ref mut live_total,
            ref mut emptied_scratch,
            ..
        } = *self;
        emptied_scratch.clear();
        for tile in buffer_frontier.iter() {
            let buffer = &mut buffers[tile];
            for &id in pending_purge.iter() {
                if buffer.remove(id) {
                    *live_total -= 1;
                }
            }
            let gone = buffer.age_with(|id| {
                sink.emit(SimEvent::TtlExpiry {
                    round,
                    tile: NodeId(tile),
                    message: id,
                });
            }) as u64;
            expired[tile] += gone;
            *live_total -= gone;
            if buffer.is_empty() {
                emptied_scratch.push(tile as u32);
            }
        }
        let emptied = std::mem::take(&mut self.emptied_scratch);
        for &tile in &emptied {
            self.buffer_frontier.remove(tile as usize);
        }
        self.emptied_scratch = emptied;
    }

    /// The age phase on more than one shard: one RNG-free worker per
    /// shard over the buffer frontier, merged in ascending tile order.
    fn age_sharded(&mut self, obs: &Option<EngineObs>) {
        let round = self.round;
        let record_events = S::RECORDS;
        let ranges = shard_ranges(self.node_count(), self.shards);
        let fan_span = if self.buffer_frontier.is_empty() {
            None
        } else {
            span_start(obs)
        };
        let age_outs: Vec<AgeOut> = if self.buffer_frontier.is_empty() {
            Vec::new()
        } else {
            let Simulation {
                ref buffer_frontier,
                ref mut buffers,
                ref mut expired,
                ref pending_purge,
                ..
            } = *self;
            let chunks = split_chunks(buffers, &ranges);
            let expired = split_chunks(expired, &ranges);
            let work: Vec<_> = ranges
                .iter()
                .zip(chunks.into_iter().zip(expired))
                .map(|(&(lo, _), tiles)| (lo, tiles))
                .collect();
            run_shards(work, |(lo, (chunk, expired))| {
                age_shard(
                    round,
                    lo,
                    buffer_frontier,
                    chunk,
                    expired,
                    pending_purge,
                    record_events,
                )
            })
        };
        span_end(obs, EnginePhase::ShardFanout, fan_span);
        let merge_span = if age_outs.is_empty() {
            None
        } else {
            span_start(obs)
        };
        for out in &age_outs {
            for &event in &out.events {
                self.sink.emit(event);
            }
            self.live_total -= out.purged + out.expired;
            for &tile in &out.emptied {
                self.buffer_frontier.remove(tile as usize);
            }
        }
        span_end(obs, EnginePhase::Merge, merge_span);
    }

    /// Phase 2: compute (IPs run with zero computation time). Only
    /// mapped tiles run a core; the list is taken out while its cores
    /// inject.
    fn run_compute(&mut self, round: u64) {
        let mut mapped_ips = std::mem::take(&mut self.mapped_ips);
        for MappedIp { tile, ip, inbox } in &mut mapped_ips {
            let node = NodeId(*tile);
            if !self.tile_alive(node) {
                continue;
            }
            let mut ctx = IpContext::new(node, round);
            if !self.started {
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
        self.mapped_ips = mapped_ips;
        self.started = true;
    }

    /// Round epilogue: advances the round, evaluates completion and
    /// quiescence from the frontier counters (O(1) instead of the old
    /// O(n) scans), and fills the live-message stat. Debug builds
    /// re-assert every counter and frontier bit against the
    /// ground-truth scans.
    fn finish_round(&mut self, stats: &mut RoundStats, obs: &Option<EngineObs>) {
        let span = span_start(obs);
        self.round += 1;
        stats.live_messages = self.live_total;
        #[cfg(debug_assertions)]
        {
            let live: u64 = self.buffers.iter().map(|b| b.len() as u64).sum();
            debug_assert_eq!(live, self.live_total, "live-message counter drifted");
            debug_assert!(
                self.arrivals.grouped.is_reset(),
                "this round's arrivals outlived the receive phase, or a grouping cursor is set"
            );
            for (tile, buffer) in self.buffers.iter().enumerate() {
                debug_assert_eq!(
                    !buffer.is_empty(),
                    self.buffer_frontier.contains(tile),
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
        let drained = self.live_total == 0 && self.arrivals.pending_frames() == 0;
        self.completed = drained && self.mapped_ips.iter().all(|mapped| mapped.ip.is_done());
        self.report.rounds_executed = self.round;
        self.report.completed = self.completed;
        if self.live_total == 0 && !self.completed {
            // A quiescent round: the buffer frontier is empty but the
            // run is not over (frames still in the delay line, or IPs
            // not done). These are the frontier's O(active) fast-path
            // rounds.
            self.report.quiescent_rounds += 1;
            self.sink.emit(SimEvent::RoundQuiescent {
                round: stats.round,
                inflight: self.arrivals.pending_frames(),
            });
        }
        span_end(obs, EnginePhase::Quiescence, span);
        if let Some(obs) = obs {
            obs.count_round();
        }
    }

    /// Splits the simulation for the forward phase: the decision
    /// context the walk draws through, and what it files into.
    fn forward_split<'a>(
        &'a mut self,
        stats: &'a mut RoundStats,
    ) -> (TxContext<'a>, ForwardSinks<'a, S>) {
        let round = self.round;
        let model = self.injector.model();
        let elide = !S::RECORDS
            && matches!(model.overflow_mode, OverflowMode::Probabilistic)
            && model.p_overflow == 0.0;
        let tx = TxContext {
            topology: &self.topology,
            tiles_alive: &self.tiles_alive,
            links_alive: &self.links_alive,
            links_scheduled: self.crash_schedule.any_link_dead(round)
                || self.adversary.partitions.any_active(round),
            tiles_scheduled: self
                .crash_schedule
                .tile_events()
                .any(|(_, from)| from <= round + 1),
            elide,
            audience: &self.audience,
            terminated: &self.terminated,
            crash_schedule: &self.crash_schedule,
            adversary: &self.adversary,
            injector: &mut self.injector,
            chaos_streams: &mut self.chaos_streams,
            compromised: &mut self.compromised,
            codec: &self.codec,
            wires: &mut self.wires,
            buffers: &self.buffers,
            clocks: &mut self.clocks,
            egress_limits: &self.egress_limits,
            egress_next: &mut self.egress_next,
            forward_overrides: &self.forward_overrides,
            forward_probability: self.config.forward_probability,
            report: &mut self.report,
            stats,
            round,
        };
        let sinks = ForwardSinks {
            frontier: &self.buffer_frontier,
            sink: &mut self.sink,
            next: &mut self.arrivals.next,
            later: &mut self.arrivals.later,
        };
        (tx, sinks)
    }
}

/// The window of an egress-limited tile's buffer served this round:
/// `(start, count)` into `msgs`, wrapping. The buffer is served
/// round-robin so a long-lived head does not starve later arrivals
/// (bus-style fair arbitration). The resume point `next` is a message
/// *id*: an index cursor would drift whenever the buffer shrinks between
/// rounds (TTL expiry, termination purges) and skip or double-serve
/// survivors.
fn egress_window(
    limit: Option<usize>,
    next: Option<&mut Option<MessageId>>,
    msgs: &[Held],
) -> (usize, usize) {
    let len = msgs.len();
    match (limit, next) {
        (Some(limit), Some(next)) if len > limit => {
            let start = next
                .and_then(|id| msgs.iter().position(|m| m.id() == id))
                .unwrap_or(0);
            *next = Some(msgs[(start + limit) % len].id());
            (start, limit)
        }
        _ => (0, len),
    }
}

/// A knob table as [`Simulation::config_digest_value`] hashes it: the
/// `Debug` text of its dense form, `n` entries with the unset ones `None`,
/// whether the table was ever allocated or not.
struct PerTile<'a, T>(&'a [Option<T>], usize);

impl<T: fmt::Debug> fmt::Debug for PerTile<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PerTile(table, n) = *self;
        f.debug_list()
            .entries((0..n).map(|tile| table.get(tile).and_then(Option::as_ref)))
            .finish()
    }
}

/// Where a transmission ends up, as decided (with every RNG draw) by
/// the engine's forward walk.
#[derive(Debug, Clone, Copy)]
enum TxOutcome {
    /// Swallowed by a dead link.
    DeadLink,
    /// Swallowed by an active partition cut.
    Partitioned,
    /// Filed into the destination inbox.
    Deliver {
        /// The frame that arrives: the served one, or its scrambled
        /// copy when an upset fired.
        wire: Wire,
        /// Arrives one round late (sender slipped or link delayed).
        held: bool,
        /// Chaos delay fired (event attribution).
        delayed: bool,
        /// Chaos reorder fired: jumps to the front of the destination
        /// queue.
        reordered: bool,
    },
}

impl TxOutcome {
    /// Emits the events this fate owes after the transmission's
    /// `FrameSent`, in the engine's order.
    fn emit_after_send(&self, round: u64, link: LinkId, mut emit: impl FnMut(SimEvent)) {
        match *self {
            TxOutcome::DeadLink => emit(SimEvent::CrashDrop {
                round,
                site: DropSite::Link(link),
            }),
            TxOutcome::Partitioned => emit(SimEvent::PartitionDrop { round, link }),
            TxOutcome::Deliver {
                delayed, reordered, ..
            } => {
                if delayed {
                    emit(SimEvent::AdversarialDelay { round, link });
                }
                if reordered {
                    emit(SimEvent::AdversarialReorder { round, link });
                }
            }
        }
    }
}

/// What an egress service transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeKind {
    /// A message of the tile's send buffer.
    Buffer,
    /// A Byzantine forgery (its corruption drawn from the tile's
    /// adversary stream).
    Forge,
    /// A Byzantine replay of the tile's last legitimate frame.
    Replay,
}

impl ServeKind {
    /// The event announcing a service of this kind at `tile`.
    fn event(self, round: u64, tile: NodeId, message: MessageId) -> SimEvent {
        match self {
            ServeKind::Buffer => SimEvent::Forwarded {
                round,
                tile,
                message,
            },
            ServeKind::Forge => SimEvent::ByzantineForge {
                round,
                tile,
                message,
            },
            ServeKind::Replay => SimEvent::ByzantineReplay { round, tile },
        }
    }
}

/// One egress service: a wire frame offered to each output link of the
/// serving tile with probability `p`.
struct Serve {
    id: MessageId,
    wire: Wire,
    frame_len: usize,
    p: f64,
    /// The serving tile's clock slipped: delivery is one round late.
    slipped: bool,
}

/// The frontier the forward walk covers and what it files its decisions
/// into — the event sink and the arrival arenas — beside the
/// [`TxContext`] it draws them through.
struct ForwardSinks<'a, S> {
    frontier: &'a TileSet,
    sink: &'a mut S,
    next: &'a mut Pending,
    later: &'a mut Pending,
}

/// The forward phase's split borrows: everything that decides which
/// tile serves what and each transmission's fate. [`Simulation::step`]
/// runs every frontier tile through [`TxContext::open_tile`] and
/// [`TxContext::serve_tile`] at every shard count, so the decision
/// sequence (and with it the RNG draw order) has one definition.
struct TxContext<'a> {
    topology: &'a Topology,
    tiles_alive: &'a [bool],
    links_alive: &'a [bool],
    /// Some scheduled link crash or partition cut is in effect this
    /// round. When none is, `links_alive[link]` is the whole liveness
    /// check and neither schedule is scanned per transmission.
    links_scheduled: bool,
    /// Some scheduled tile crash is in effect by next round. When none
    /// is, `tiles_alive[tile]` is whether a frame's receiver will take
    /// it.
    tiles_scheduled: bool,
    /// The sink records nothing and an arrival spends no overflow draw,
    /// so a frame whose fate is already decided may be filed as a known
    /// duplicate (DESIGN §8, "Known duplicates").
    elide: bool,
    /// The seen-set and the terminated spreads: receive will find each
    /// a superset of what it is now.
    audience: &'a Audience,
    terminated: &'a BTreeSet<MessageId>,
    crash_schedule: &'a CrashSchedule,
    adversary: &'a AdversarialScenario,
    injector: &'a mut FaultInjector,
    chaos_streams: &'a mut [StdRng],
    compromised: &'a mut BTreeMap<usize, Compromised>,
    codec: &'a WireCodec,
    wires: &'a mut WireTable,
    buffers: &'a [Live],
    clocks: &'a mut [ClockDomain],
    egress_limits: &'a [Option<usize>],
    egress_next: &'a mut [Option<MessageId>],
    forward_overrides: &'a [Option<f64>],
    forward_probability: f64,
    report: &'a mut SimulationReport,
    stats: &'a mut RoundStats,
    round: u64,
}

impl<'a> TxContext<'a> {
    /// Opens `tile`'s forward service: `None` (and no draw) when the
    /// tile is dead or buffers nothing, else the round boundaries its
    /// clock slipped after this round's skew draw — a slipped tile
    /// delivers one round late.
    fn open_tile(&mut self, tile: usize) -> Option<u32> {
        if !self.tiles_alive[tile]
            || self.crash_schedule.tile_dead(tile, self.round)
            || self.buffers[tile].is_empty()
        {
            return None;
        }
        let skew = self.injector.round_skew();
        Some(self.clocks[tile].advance(skew))
    }

    /// Serves an opened tile, handing each service to `file`: every
    /// message of its egress window (one wire entry per round through
    /// the wire table's memo), then the Byzantine attack a
    /// compromised tile makes after its legitimate service.
    fn serve_tile(
        &mut self,
        tile: usize,
        slipped: bool,
        mut file: impl FnMut(&mut Self, ServeKind, Serve),
    ) {
        let (buffers, codec) = (self.buffers, self.codec);
        let msgs = buffers[tile].as_slice();
        let p = self.forward_overrides.get(tile).copied().flatten();
        let p = p.unwrap_or(self.forward_probability);
        let compromised = self.compromised.contains_key(&tile);
        let limit = self.egress_limits.get(tile).copied().flatten();
        let (start, count) = egress_window(limit, self.egress_next.get_mut(tile), msgs);
        let mut at = start;
        for _ in 0..count {
            let held = &msgs[at];
            at += 1;
            if at == msgs.len() {
                at = 0;
            }
            let wire = self.wires.frame_for(held);
            if compromised {
                let entry = self.wires.entry(wire).clone();
                if let Some(at) = self.compromised.get_mut(&tile) {
                    at.last_frame = Some((held.id(), entry));
                }
            }
            let serve = Serve {
                id: held.id(),
                wire,
                frame_len: codec.frame_bytes(held.body.payload.len()),
                p,
                slipped,
            };
            file(self, ServeKind::Buffer, serve);
        }
        // One activation draw per armed round (from the tile's own
        // stream), then a forged equivocation or a stale replay is
        // flooded to *every* output link, ignoring the protocol's
        // forwarding probability.
        if let Some((kind, id, entry)) = self.byzantine_attack(tile, &msgs[start]) {
            let wire = self.wires.push(entry);
            let serve = Serve {
                id,
                frame_len: self.wires.frame_len(codec, wire),
                wire,
                p: 1.0,
                slipped,
            };
            file(self, kind, serve);
        }
    }

    /// Decides one transmission onto `link_id`: swallows it on a dead or
    /// partitioned link, registers a scrambled copy on an upset, and
    /// draws chaos jitter from the link's dedicated stream. Inlined into
    /// the link loop whole; the upset branch is a call.
    #[inline(always)]
    fn decide(&mut self, link_id: LinkId, serve: &Serve) -> TxOutcome {
        let (link, round) = (link_id.index(), self.round);
        if !self.links_alive[link]
            || (self.links_scheduled && self.crash_schedule.link_dead(link, round))
        {
            self.report.crash_drops += 1;
            return TxOutcome::DeadLink;
        }
        // Partition cuts are pure schedule lookups — no RNG draw — so a
        // benign scenario leaves the main fault stream untouched.
        if self.links_scheduled && self.adversary.partitions.link_cut(link, round) {
            self.report.partition_drops += 1;
            return TxOutcome::Partitioned;
        }
        let wire = if self.injector.upset_occurs() {
            self.upset(serve.wire)
        } else {
            serve.wire
        };
        let mut held = serve.slipped;
        let mut delayed = false;
        let mut reordered = false;
        if !self.chaos_streams.is_empty() {
            // Fixed draw order per surviving frame: delay first, then
            // reorder. `gen_bool_p` short-circuits p = 0 without a draw, so
            // a delay-only (or reorder-only) configuration consumes exactly
            // one draw per frame from the link's stream.
            let stream = &mut self.chaos_streams[link];
            if gen_bool_p(stream, self.adversary.chaos.delay_probability) {
                self.report.adversarial_delays += 1;
                held = true;
                delayed = true;
            }
            if gen_bool_p(stream, self.adversary.chaos.reorder_probability) {
                self.report.adversarial_reorders += 1;
                reordered = true;
            }
        }
        TxOutcome::Deliver {
            wire,
            held,
            delayed,
            reordered,
        }
    }

    /// The scrambled copy of `wire` an upset puts on the link: out of
    /// line, so that a fault-free transmission's decision stays small.
    #[inline(never)]
    fn upset(&mut self, wire: Wire) -> Wire {
        self.wires.scrambled_copy(self.codec, self.injector, wire)
    }

    /// Offers `serve` to each output link of `from` (one forwarding
    /// Bernoulli per link when `p < 1`), hands every transmission's link,
    /// target and decided fate to `file`, and counts the transmissions
    /// once for the whole service.
    #[inline]
    fn offer(
        &mut self,
        from: NodeId,
        serve: &Serve,
        mut file: impl FnMut(LinkId, NodeId, TxOutcome),
    ) {
        let topology = self.topology;
        let mut sent = 0;
        for (link_id, to) in topology.out(from) {
            if serve.p < 1.0 && !gen_bool_p(self.injector.rng(), serve.p) {
                continue;
            }
            sent += 1;
            file(link_id, to, self.decide(link_id, serve));
        }
        self.stats.transmissions += sent;
        self.report.packets_sent += sent;
        self.report.bits_sent += Bits(sent * (serve.frame_len * 8) as u64);
    }

    /// One service: emits each transmission's events and appends the
    /// frame to the list it arrives from (`later` when held; at its
    /// destination's queue front when reordered).
    fn transmit<S: EventSink>(
        &mut self,
        out: &mut ForwardSinks<'_, S>,
        from: NodeId,
        serve: Serve,
    ) {
        let round = self.round;
        let known = self.known_at(&serve);
        self.offer(from, &serve, |link_id, to, outcome| {
            out.sink.emit(SimEvent::FrameSent {
                round,
                from,
                link: link_id,
                to,
                message: serve.id,
            });
            outcome.emit_after_send(round, link_id, |event| out.sink.emit(event));
            if let TxOutcome::Deliver {
                wire,
                held,
                reordered,
                ..
            } = outcome
            {
                let (to, frame) = (to.index(), Frame::new(wire, Some(link_id)));
                if !held && !reordered && wire == serve.wire && known.holds(to) {
                    out.next.push_known(frame);
                } else {
                    let pending = if held { &mut out.later } else { &mut out.next };
                    pending.push(to, frame, reordered);
                }
            }
        });
    }

    /// Where a clean, on-time frame of `serve` is already a duplicate:
    /// the receive phase will drop it at a tile alive next round whose
    /// buffer has seen the served entry's id, or anywhere once its spread
    /// terminated. Both sets only grow, so what holds now holds then.
    #[inline]
    fn known_at(&self, serve: &Serve) -> KnownAt<'a> {
        let audience: &'a Audience = self.audience;
        let id = if self.elide {
            let entry = self.wires.entry(serve.wire);
            entry.held().map(Held::id)
        } else {
            None
        };
        KnownAt {
            id,
            seen: id.and_then(|id| audience.get(id)),
            terminated: self.terminated,
            tiles_alive: self.tiles_alive,
            deaths: self
                .tiles_scheduled
                .then_some((self.crash_schedule, self.round + 1)),
        }
    }

    /// A compromised tile's attack for this round, if it is armed and
    /// its activation draw fires: a forgery of `victim` (one corrupted
    /// payload byte, re-encoded so the CRC holds) or a replay of the
    /// tile's last legitimate frame, as the wire entry to flood.
    #[expect(
        clippy::disallowed_methods,
        reason = "draws the forged byte from the compromised tile's own stream, in the serial forward walk"
    )]
    fn byzantine_attack(
        &mut self,
        tile: usize,
        victim: &Held,
    ) -> Option<(ServeKind, MessageId, WireEntry)> {
        let byzantine = &self.adversary.byzantine;
        if !byzantine.armed(tile, self.round) {
            return None;
        }
        let at = self.compromised.get_mut(&tile)?;
        let stream = &mut at.stream;
        if !gen_bool_p(stream, byzantine.activation_probability) {
            return None;
        }
        match byzantine.mode {
            ByzantineMode::Forge => {
                let body = &*victim.body;
                let mut payload = body.payload.to_vec();
                if payload.is_empty() {
                    return None;
                }
                use rand::Rng;
                let at = stream.gen_range(0..payload.len());
                let mask = stream.gen_range(1..=255u64) as u8;
                payload[at] ^= mask;
                let forged = Held::new(body.id, body.source, body.destination, victim.ttl, payload);
                self.report.byzantine_forges += 1;
                Some((ServeKind::Forge, body.id, WireEntry::clean(forged)))
            }
            ByzantineMode::Replay => {
                let (id, entry) = at.last_frame.clone()?;
                self.report.byzantine_replays += 1;
                Some((ServeKind::Replay, id, entry))
            }
        }
    }
}

/// The receivers of one service at which its frame is a known
/// duplicate ([`TxContext::known_at`]): looked up once per service, asked
/// once per link.
#[derive(Clone, Copy)]
struct KnownAt<'a> {
    /// The served entry's id; `None` when nothing may be filed as known.
    id: Option<MessageId>,
    /// The tiles whose buffer has seen it.
    seen: Option<&'a Tiles>,
    /// Its spread is a duplicate everywhere once terminated. Asked only
    /// where `seen` is not enough: a terminated spread is purged from
    /// every buffer, so only a Byzantine replay still serves it.
    terminated: &'a BTreeSet<MessageId>,
    tiles_alive: &'a [bool],
    /// The crash schedule and next round, when a scheduled tile death is
    /// in effect by then.
    deaths: Option<(&'a CrashSchedule, u64)>,
}

impl KnownAt<'_> {
    /// Will receive drop this frame at `to` as a duplicate?
    #[inline]
    fn holds(&self, to: usize) -> bool {
        let Some(id) = self.id else {
            return false;
        };
        (self.seen.is_some_and(|seen| seen.contains(to)) || self.terminated.contains(&id))
            && self.tiles_alive[to]
            && !self
                .deaths
                .is_some_and(|(schedule, round)| schedule.tile_dead(to, round))
    }
}

/// Runs one worker per shard on scoped threads, executing the last
/// shard inline on the calling thread (a one-element work list spawns
/// nothing). Results return in shard order; a worker panic propagates
/// to the caller.
fn run_shards<W, T, F>(mut work: Vec<W>, f: F) -> Vec<T>
where
    W: Send,
    T: Send,
    F: Fn(W) -> T + Sync,
{
    let Some(last) = work.pop() else {
        return Vec::new();
    };
    if work.is_empty() {
        return vec![f(last)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|w| scope.spawn(move || f(w)))
            .collect();
        let inline = f(last);
        let mut results: Vec<T> = handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect();
        results.push(inline);
        results
    })
}

/// Applies the configured overflow policy to one tile's arrivals,
/// compacting the survivors in place, and returns them.
///
/// Equivalent to filtering through [`noc_fabric::ReceiveBuffer`]: the
/// probabilistic mode draws one Bernoulli sample per frame in arrival
/// order, the structural mode keeps the newest `capacity` frames
/// (drop-oldest).
fn apply_overflow_in_place<'f, S: EventSink>(
    injector: &mut FaultInjector,
    report: &mut SimulationReport,
    sink: &mut S,
    round: u64,
    tile: NodeId,
    frames: &'f mut [Frame],
) -> &'f [Frame] {
    let (skip, kept) = match injector.model().overflow_mode {
        OverflowMode::Probabilistic if injector.model().p_overflow == 0.0 => return frames,
        OverflowMode::Probabilistic => {
            let mut kept = 0;
            for at in 0..frames.len() {
                if !injector.overflow_drop() {
                    frames[kept] = frames[at];
                    kept += 1;
                }
            }
            (0, kept)
        }
        OverflowMode::Structural { capacity } => {
            let excess = frames.len().saturating_sub(capacity);
            (excess, frames.len() - excess)
        }
    };
    let dropped = (frames.len() - kept) as u64;
    report.overflow_drops += dropped;
    for _ in 0..dropped {
        sink.emit(SimEvent::OverflowDrop { round, tile });
    }
    &frames[skip..skip + kept]
}

/// A Bernoulli draw from one of the engine's deterministic streams
/// that spends no draw on a certain outcome (`p` of 0 or 1).
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the engine's one Bernoulli draw: its callers are the serial forward walk, handing in a stream the engine owns"
)]
fn gen_bool_p(rng: &mut StdRng, p: f64) -> bool {
    use rand::Rng;
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen_bool(p)
    }
}

impl SimulationBuilder {
    /// Convenience: builds over a square grid of `side × side` tiles.
    pub fn square_grid(side: usize) -> Self {
        Self::new(Grid2d::new(side, side))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CounterSink;
    use noc_faults::{AdversarialScenarioBuilder, ErrorModel};

    fn grid4() -> Grid2d {
        Grid2d::new(4, 4)
    }

    #[test]
    fn flooding_delivers_in_manhattan_distance_rounds() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12))
            .seed(1)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        assert!(report.delivered(id));
        // Tile 5 -> 11 is 3 hops; flooding is latency-optimal.
        assert_eq!(report.latency(id), Some(3));
    }

    #[test]
    fn flooding_informs_every_tile() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12))
            .seed(1)
            .build();
        let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
        for _ in 0..7 {
            sim.step();
        }
        assert_eq!(sim.informed_count(id), 16, "broadcast reaches all tiles");
    }

    #[test]
    fn gossip_delivers_with_half_probability() {
        let mut delivered = 0;
        for seed in 0..20 {
            let mut sim = SimulationBuilder::new(grid4())
                .forward_probability(0.5)
                .ttl(16)
                .max_rounds(100)
                .seed(seed)
                .build();
            let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
            let report = sim.run();
            if report.delivered(id) {
                delivered += 1;
            }
        }
        assert!(delivered >= 19, "p=0.5 delivered only {delivered}/20");
    }

    #[test]
    fn zero_probability_never_delivers_to_remote() {
        let mut sim = SimulationBuilder::new(grid4())
            .forward_probability(0.0)
            .max_rounds(50)
            .seed(3)
            .build();
        let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
        let report = sim.run();
        assert!(!report.delivered(id));
        assert_eq!(report.packets_sent, 0);
    }

    #[test]
    fn zero_shards_build_one_shard_on_every_host() {
        let sim = SimulationBuilder::new(grid4()).shards(0).build();
        assert_eq!(sim.shards(), 1);
    }

    #[test]
    fn self_addressed_messages_deliver_instantly() {
        let mut sim = SimulationBuilder::new(grid4()).seed(4).build();
        let id = sim.inject(NodeId(6), NodeId(6), b"me".to_vec());
        assert!(sim.report().delivered(id));
        assert_eq!(sim.report().latency(id), Some(0));
    }

    #[test]
    fn ttl_bounds_total_traffic() {
        let run = |ttl: u8| {
            let mut sim = SimulationBuilder::new(grid4())
                .config(StochasticConfig::flooding(ttl).with_max_rounds(60))
                .seed(5)
                .build();
            sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
            sim.run().packets_sent
        };
        let short = run(4);
        let long = run(16);
        assert!(long > short, "higher ttl must generate more packets");
        // With ttl t the broadcast lives t rounds; traffic is finite.
        assert!(short > 0);
    }

    #[test]
    fn energy_grows_with_forward_probability() {
        let run = |p: f64| {
            let mut sim = SimulationBuilder::new(grid4())
                .forward_probability(p)
                .ttl(10)
                .max_rounds(40)
                .seed(6)
                .build();
            sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
            sim.run().total_energy().joules()
        };
        let e25 = run(0.25);
        let e100 = run(1.0);
        assert!(
            e100 > e25,
            "flooding must dissipate more than p=0.25 ({e100} vs {e25})"
        );
    }

    #[test]
    fn dead_source_loses_the_message() {
        let mut schedule = CrashSchedule::new();
        schedule.kill_tile(5, 0);
        let mut sim = SimulationBuilder::new(grid4())
            .crash_schedule(schedule)
            .seed(7)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        assert!(!report.delivered(id));
    }

    #[test]
    fn gossip_routes_around_dead_tiles() {
        // Kill two tiles off the direct path; the message still arrives.
        let mut schedule = CrashSchedule::new();
        schedule.kill_tile(3, 0).kill_tile(12, 0);
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12))
            .crash_schedule(schedule)
            .seed(8)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        assert!(report.delivered(id));
    }

    #[test]
    fn partitioned_network_cannot_deliver() {
        // Kill the middle columns entirely: 4x4 grid split between
        // x<=0 and x>=2 when column 1 is dead... need both columns 1 and 2
        // to separate 0 and 15? Column x=1 tiles: 1,5,9,13. Killing them
        // separates x=0 from x>=2.
        let mut schedule = CrashSchedule::new();
        for t in [1usize, 5, 9, 13] {
            schedule.kill_tile(t, 0);
        }
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(20).with_max_rounds(60))
            .crash_schedule(schedule)
            .seed(9)
            .build();
        let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
        let report = sim.run();
        assert!(!report.delivered(id), "no path exists through a dead wall");
    }

    #[test]
    fn upsets_are_detected_and_survived() {
        let model = FaultModel::builder()
            .p_upset(0.3)
            .error_model(ErrorModel::RandomErrorVector)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(16).with_max_rounds(80))
            .fault_model(model)
            .seed(10)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"payload".to_vec());
        let report = sim.run();
        assert!(report.delivered(id), "redundancy defeats 30% upsets");
        assert!(
            report.upsets_detected > 0,
            "some upsets must have been caught"
        );
    }

    #[test]
    fn overflow_drops_are_counted() {
        let model = FaultModel::builder().p_overflow(0.5).build().unwrap();
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12).with_max_rounds(60))
            .fault_model(model)
            .seed(11)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        assert!(report.overflow_drops > 0);
        assert!(report.delivered(id), "50% overflow is survivable");
    }

    #[test]
    fn structural_overflow_mode_also_works() {
        let model = FaultModel::builder()
            .overflow_mode(OverflowMode::Structural { capacity: 1 })
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12).with_max_rounds(60))
            .fault_model(model)
            .seed(12)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        // Flooding generates multiple copies per round: a 1-deep buffer
        // must overflow somewhere.
        assert!(report.overflow_drops > 0);
        assert!(report.delivered(id));
    }

    #[test]
    fn synchronization_errors_cause_jitter_not_loss() {
        let model = FaultModel::builder().sigma_synch(0.4).build().unwrap();
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(16).with_max_rounds(80))
            .fault_model(model)
            .seed(13)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        assert!(report.delivered(id), "sync errors alone never lose packets");
        assert!(report.clock_slips > 0, "sigma=0.4 must cause slips");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let model = FaultModel::builder()
                .p_upset(0.2)
                .p_overflow(0.1)
                .build()
                .unwrap();
            let mut sim = SimulationBuilder::new(grid4())
                .forward_probability(0.5)
                .fault_model(model)
                .seed(seed)
                .max_rounds(60)
                .build();
            sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
            let r = sim.run();
            (
                r.packets_sent,
                r.upsets_detected,
                r.overflow_drops,
                r.rounds_executed,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn step_stats_are_consistent() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(8))
            .seed(14)
            .build();
        sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
        let s0 = sim.step();
        assert_eq!(s0.round, 0);
        assert!(s0.transmissions > 0, "source forwards in round 0");
        let s1 = sim.step();
        assert_eq!(s1.round, 1);
        assert!(s1.transmissions >= s0.transmissions);
    }

    #[test]
    fn report_totals_match_counters() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(6).with_max_rounds(30))
            .seed(15)
            .build();
        sim.inject(NodeId(0), NodeId(15), b"four".to_vec());
        let mut total = 0;
        while sim.round() < 30 && !sim.is_complete() {
            total += sim.step().transmissions;
        }
        let report = sim.into_report();
        assert_eq!(report.packets_sent, total);
        let frame_bits = 8 * (15 + 4 + 2) as u64; // header + payload + crc16
        assert_eq!(report.bits_sent.bits(), total * frame_bits);
    }

    #[test]
    fn ips_communicate_through_the_network() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Producer {
            to: NodeId,
            sent: bool,
        }
        impl IpCore for Producer {
            fn on_round(&mut self, ctx: &mut IpContext) {
                if !self.sent {
                    ctx.send(self.to, b"ping".to_vec());
                    self.sent = true;
                }
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        struct Consumer {
            got: Rc<RefCell<Option<u64>>>,
        }
        impl IpCore for Consumer {
            fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
                if payload == b"ping" {
                    *self.got.borrow_mut() = Some(ctx.round());
                }
            }
            fn is_done(&self) -> bool {
                self.got.borrow().is_some()
            }
        }

        let got = Rc::new(RefCell::new(None));
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(12))
            .with_ip(
                NodeId(5),
                Box::new(Producer {
                    to: NodeId(11),
                    sent: false,
                }),
            )
            .with_ip(
                NodeId(11),
                Box::new(Consumer {
                    got: Rc::clone(&got),
                }),
            )
            .seed(16)
            .build();
        let report = sim.run();
        assert!(report.completed, "both IPs finished");
        assert_eq!(*got.borrow(), Some(3), "ping crossed 3 hops in 3 rounds");
    }

    #[test]
    fn square_grid_convenience() {
        let sim = SimulationBuilder::square_grid(5).build();
        assert_eq!(sim.node_count(), 25);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn mapping_ip_out_of_range_panics() {
        let _ = SimulationBuilder::new(grid4()).with_ip(NodeId(99), Box::new(noc_fabric::NullIp));
    }

    /// The audience would answer `false` for any tile index; the doc
    /// promises a panic.
    #[test]
    #[should_panic(expected = "n16 outside topology")]
    fn asking_whether_a_tile_outside_the_topology_is_informed_panics() {
        let mut sim = SimulationBuilder::new(grid4()).build();
        let id = sim.inject(NodeId(0), NodeId(15), vec![1]);
        sim.node_informed(NodeId(16), id);
    }

    /// An index error, not the documented panic, before they asserted.
    #[test]
    #[should_panic(expected = "n16 outside topology")]
    fn the_buffer_length_of_a_tile_outside_the_topology_panics() {
        let _ = SimulationBuilder::new(grid4())
            .build()
            .buffer_len(NodeId(16));
    }

    #[test]
    #[should_panic(expected = "n16 outside topology")]
    fn the_liveness_of_a_tile_outside_the_topology_panics() {
        let _ = SimulationBuilder::new(grid4())
            .build()
            .tile_alive(NodeId(16));
    }

    #[test]
    fn egress_limit_throttles_a_node() {
        // A 3-node line 0-1-2 where node 1 may forward one message per
        // round: two simultaneous messages through it serialize.
        let line = Topology::from_links(
            "line",
            3,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(0)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(1)),
            ],
        );
        let run = |limit: Option<usize>| {
            let mut builder = SimulationBuilder::new(line.clone())
                .config(StochasticConfig::flooding(10).with_max_rounds(30))
                .seed(1);
            if let Some(l) = limit {
                builder = builder.egress_limit(NodeId(1), l);
            }
            let mut sim = builder.build();
            let a = sim.inject(NodeId(0), NodeId(2), vec![1]);
            let b = sim.inject(NodeId(0), NodeId(2), vec![2]);
            let report = sim.run();
            (report.latency(a), report.latency(b))
        };
        let (ua, ub) = run(None);
        assert_eq!((ua, ub), (Some(2), Some(2)), "unlimited: both in 2 hops");
        let (la, lb) = run(Some(1));
        let (la, lb) = (la.unwrap(), lb.unwrap());
        assert_eq!(la.min(lb), 2, "one message still crosses immediately");
        assert!(la.max(lb) > 2, "the other queued behind the limit");
    }

    #[test]
    fn egress_cursor_survives_expiring_head_message() {
        // Line 0-1-2, node 1 limited to one forward per round. A is a
        // round older than B and C, so it expires out of node 1's buffer
        // while B and C still wait for service. The round-robin resume
        // point must follow the *message* it owes service to: an index
        // cursor recomputed against the shrunken buffer double-serves B
        // and starves C entirely.
        let line = Topology::from_links(
            "line",
            3,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(0)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(1)),
            ],
        );
        let mut sim = SimulationBuilder::new(line)
            .config(StochasticConfig::flooding(5).with_max_rounds(30))
            .egress_limit(NodeId(1), 1)
            .seed(1)
            .build();
        let a = sim.inject(NodeId(0), NodeId(2), vec![b'a']);
        sim.step();
        let b = sim.inject(NodeId(0), NodeId(2), vec![b'b']);
        let c = sim.inject(NodeId(0), NodeId(2), vec![b'c']);
        let report = sim.run();
        assert_eq!(report.latency(a), Some(2), "head crosses unimpeded");
        assert_eq!(report.latency(b), Some(3), "b served the round after a");
        assert_eq!(
            report.latency(c),
            Some(4),
            "c is served after a expires instead of being skipped"
        );
    }

    #[test]
    fn forward_probability_override_applies_per_node() {
        // Global p = 0: nothing moves — except the source tile overridden
        // to p = 1, whose neighbours still receive the message.
        let mut sim = SimulationBuilder::new(grid4())
            .forward_probability(0.0)
            .ttl(6)
            .max_rounds(10)
            .forward_probability_at(NodeId(5), 1.0)
            .seed(2)
            .build();
        let id = sim.inject(NodeId(5), NodeId(15), vec![1]);
        sim.step();
        sim.step();
        // Tile 5's 4 neighbours (1, 4, 6, 9) are informed; nobody else
        // forwards (their p is 0).
        assert_eq!(sim.informed_count(id), 5);
        assert!(sim.node_informed(NodeId(6), id));
        assert!(!sim.node_informed(NodeId(15), id));
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn forward_override_validates_probability() {
        let _ = SimulationBuilder::new(grid4()).forward_probability_at(NodeId(0), 1.5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_egress_limit_rejected() {
        let _ = SimulationBuilder::new(grid4()).egress_limit(NodeId(0), 0);
    }

    /// What a tile carries for a feature exists where the feature is set:
    /// a knob-free 128² build allocates no knob table, replay slot or IP
    /// slot, and the first egress limit allocates one table entry a tile.
    #[test]
    fn per_tile_extras_exist_only_where_set() {
        let n = 128 * 128;
        let plain = SimulationBuilder::square_grid(128).build();
        assert_eq!(plain.node_count(), n);
        assert!(plain.egress_limits.is_empty());
        assert!(plain.egress_next.is_empty());
        assert!(plain.forward_overrides.is_empty());
        assert!(plain.compromised.is_empty());
        assert!(plain.mapped_ips.is_empty());

        let limited = SimulationBuilder::square_grid(128)
            .egress_limit(NodeId(77), 2)
            .build();
        assert_eq!(limited.egress_limits.len(), n);
        assert_eq!(limited.egress_next.len(), n);
        let set: Vec<usize> = (0..n)
            .filter(|&tile| limited.egress_limits[tile].is_some())
            .collect();
        assert_eq!(set, [77]);
        assert!(limited.forward_overrides.is_empty());
    }

    #[test]
    fn termination_purges_buffers_after_delivery() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(
                StochasticConfig::flooding(16)
                    .with_max_rounds(40)
                    .with_termination(true),
            )
            .seed(3)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), vec![1]);
        let report = sim.run();
        assert!(report.delivered(id));
        // Flooding without termination would transmit for all 16 ttl
        // rounds; with termination the spread dies right after round 3.
        let links = 48u64; // 2*(4*3+4*3)
        assert!(
            report.packets_sent < 6 * links,
            "termination left {} packets",
            report.packets_sent
        );
    }

    #[test]
    fn run_with_history_matches_plain_run() {
        let build = || {
            let mut sim = SimulationBuilder::new(grid4())
                .config(StochasticConfig::flooding(8).with_max_rounds(30))
                .seed(21)
                .build();
            sim.inject(NodeId(0), NodeId(15), vec![1]);
            sim
        };
        let plain = build().run();
        let (report, history) = build().run_with_history();
        assert_eq!(report.packets_sent, plain.packets_sent);
        assert_eq!(history.len() as u64, report.rounds_executed);
        let total: u64 = history.iter().map(|s| s.transmissions).sum();
        assert_eq!(total, report.packets_sent);
        // Traffic rises as the broadcast spreads, then dies with the ttl.
        let peak = history.iter().map(|s| s.transmissions).max().unwrap();
        assert!(peak > history[0].transmissions);
        assert_eq!(history.last().unwrap().live_messages, 0);
    }

    #[test]
    fn buffer_len_reports_live_messages() {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(8))
            .seed(4)
            .build();
        assert_eq!(sim.buffer_len(NodeId(5)), 0);
        sim.inject(NodeId(5), NodeId(11), vec![1]);
        assert_eq!(sim.buffer_len(NodeId(5)), 1);
        sim.step();
        sim.step();
        assert!(sim.buffer_len(NodeId(6)) >= 1, "neighbour holds a copy");
    }

    /// A 4×4 flood of two messages (one of them a loopback) under
    /// `p_upset`, stepped to its round budget with `each_round` looking
    /// at the simulation after every step.
    fn flood_watching_the_wires(p_upset: f64, mut each_round: impl FnMut(&Simulation)) {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(6).with_max_rounds(10))
            .fault_model(FaultModel::builder().p_upset(p_upset).build().unwrap())
            .seed(11)
            .build();
        sim.inject(NodeId(0), NodeId(15), vec![7; 40]);
        sim.inject(NodeId(5), NodeId(5), vec![9; 8]);
        let mut served = 0;
        while sim.round() < 10 {
            sim.step();
            served += sim.wires.clean_entries().count();
            each_round(&sim);
        }
        assert!(served > 10, "the watched rounds served frames: {served}");
    }

    #[test]
    fn a_fault_free_run_materialises_zero_frames() {
        flood_watching_the_wires(0.0, |sim| {
            let built = sim
                .wires
                .clean_entries()
                .filter(|(_, bytes)| bytes.is_some());
            assert_eq!(built.count(), 0, "round {}", sim.round());
        });
    }

    /// Every upset is caught by the CRC-16 tag here (a miss would be a
    /// one-in-65 536 draw), so no served entry is ever encoded: each
    /// upset copy is an `Upset::Caught` and receive rejects it unread.
    #[test]
    fn under_certain_upset_a_served_entry_is_built_only_for_a_missed_upset() {
        let mut caught_total = 0;
        flood_watching_the_wires(1.0, |sim| {
            let (caught, missed) = sim.wires.upset_kinds();
            caught_total += caught;
            let built = sim
                .wires
                .clean_entries()
                .filter(|(_, bytes)| bytes.is_some());
            assert!(built.count() <= missed, "round {}", sim.round());
            for (held, bytes) in sim.wires.clean_entries() {
                if let Some(bytes) = bytes {
                    let message = held.message();
                    assert_eq!(bytes[..], sim.codec.encode(&message)[..]);
                }
            }
        });
        assert!(caught_total > 10, "{caught_total} caught copies");
    }

    /// A checkpoint writes a clean entry as its body and TTL, so capture
    /// encodes none: at most once is not at all, round after round.
    #[test]
    fn a_checkpoint_of_a_fault_free_flood_encodes_each_entry_at_most_once() {
        flood_watching_the_wires(0.0, |sim| {
            let first = sim.checkpoint();
            let built = sim
                .wires
                .clean_entries()
                .filter(|(_, bytes)| bytes.is_some());
            assert_eq!(built.count(), 0, "round {}", sim.round());
            assert_eq!(sim.checkpoint().to_bytes(), first.to_bytes());
        });
    }

    #[test]
    fn a_resumed_faulty_flood_holds_one_entry_per_clean_string_and_per_upset_copy() {
        let builder = || {
            SimulationBuilder::new(Topology::grid(8, 8))
                .config(StochasticConfig::flooding(12))
                .fault_model(FaultModel::builder().p_upset(0.2).build().unwrap())
                .seed(5)
        };
        let mut sim = builder().build();
        sim.inject(NodeId(0), NodeId(63), vec![7; 8]);
        sim.inject(NodeId(36), NodeId(9), vec![9; 8]);
        for _ in 0..4 {
            sim.step();
        }
        let resumed = builder().resume(&sim.checkpoint()).unwrap();
        let (mut frames, mut clean, mut scrambled) = (0, BTreeSet::new(), 0);
        let mut arena = Grouped::new(64);
        for pending in [&resumed.arrivals.next, &resumed.arrivals.later] {
            arena.group(pending);
            for f in arena.tiles(0, 64).flat_map(|(_, frames)| frames) {
                let entry = resumed.wires.entry(f.wire);
                frames += 1;
                if entry.held().is_some() {
                    let bytes = entry.bytes(&resumed.codec).unwrap();
                    clean.insert(bytes.to_vec());
                } else {
                    scrambled += 1;
                }
            }
            arena.clear();
        }
        assert!(
            scrambled > 0 && frames > clean.len() + scrambled,
            "{frames} frames"
        );
        let current = resumed.wires.current();
        let upset_entries = current.iter().filter(|e| e.held().is_none()).count();
        assert_eq!(current.len() - upset_entries, clean.len());
        assert_eq!(upset_entries, scrambled);
    }

    /// An 8×8 flood of three messages under CRC-8 and random bit errors:
    /// upsets the CRC misses put variants into circulation.
    fn crc8_flood() -> SimulationBuilder {
        let model = FaultModel::builder()
            .p_upset(0.5)
            .error_model(ErrorModel::RandomBitError)
            .build()
            .unwrap();
        SimulationBuilder::new(Topology::grid(8, 8))
            .config(StochasticConfig::flooding(16).with_max_rounds(30))
            .fault_model(model)
            .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
            .seed(34)
    }

    /// A capture resolves every copy's body and a restore shares them
    /// again: taken while buffers hold several copies and one holds a
    /// corrupted variant of a live message, a checkpoint resumes into a
    /// run that captures the same bytes at once and at every round after.
    #[test]
    fn a_capture_with_spilled_buffers_and_a_buffered_variant_recaptures_byte_identically() {
        let mut sim = crc8_flood().build();
        let mut originals = Vec::new();
        for (from, to) in [(0, 63), (27, 36), (56, 7)] {
            sim.inject(NodeId(from), NodeId(to), b"variant".to_vec());
            originals.push(sim.buffers[from].as_slice()[0].clone());
        }
        // A copy none of the injected ones shares its body with: a
        // variant under a live id, or under one the upset made up.
        let variant_buffered = |sim: &Simulation| {
            let mut held = sim.buffers.iter().flat_map(|buffer| buffer.as_slice());
            held.any(|held| originals.iter().all(|original| !original.same_body(held)))
        };
        while !(variant_buffered(&sim) && sim.buffers.iter().any(|b| b.len() > 1)) {
            assert!(sim.round() < 30, "no variant was buffered");
            sim.step();
        }
        let checkpoint = sim.checkpoint();
        let mut resumed = crc8_flood().resume(&checkpoint).unwrap();
        assert_eq!(resumed.checkpoint().to_bytes(), checkpoint.to_bytes());
        while sim.round() < 30 {
            assert_eq!(sim.step(), resumed.step());
            assert_eq!(
                sim.checkpoint().to_bytes(),
                resumed.checkpoint().to_bytes(),
                "round {}",
                sim.round()
            );
        }
    }

    /// A 6×6 gossip under `adversary`.
    fn grid6_under(adversary: AdversarialScenarioBuilder) -> SimulationBuilder {
        SimulationBuilder::new(Topology::grid(6, 6))
            .forward_probability(0.7)
            .ttl(12)
            .max_rounds(40)
            .adversary(adversary.build().unwrap())
            .seed(13)
    }

    /// A workload's name, builder and `(source, destination)` injections.
    type SinkWorkload = (
        &'static str,
        fn() -> SimulationBuilder,
        &'static [(usize, usize)],
    );

    /// Workloads with no overflow model: what a sink that records nothing
    /// lets the forward walk prove duplicate covers every way a frame can
    /// arrive.
    const SINK_WORKLOADS: [SinkWorkload; 7] = [
        (
            "clean flood with termination",
            || {
                SimulationBuilder::new(Topology::grid(6, 6))
                    .config(
                        StochasticConfig::flooding(10)
                            .with_max_rounds(30)
                            .with_termination(true),
                    )
                    .seed(1)
            },
            &[(0, 35), (30, 5)],
        ),
        (
            "chaos delay and reorder",
            || {
                grid6_under(
                    AdversarialScenario::builder()
                        .delay_probability(0.2)
                        .reorder_probability(0.3),
                )
            },
            &[(0, 35), (30, 5)],
        ),
        (
            "tiles killed mid-run",
            || {
                let mut deaths = CrashSchedule::new();
                deaths.kill_tile(7, 5).kill_tile(21, 6);
                SimulationBuilder::new(Topology::grid(6, 6))
                    .config(StochasticConfig::flooding(12).with_max_rounds(30))
                    .crash_schedule(deaths)
                    .seed(3)
            },
            &[(0, 35), (30, 5)],
        ),
        (
            "Byzantine forge",
            || {
                grid6_under(
                    AdversarialScenario::builder()
                        .byzantine_tile(7)
                        .byzantine_tile(28)
                        .byzantine_mode(ByzantineMode::Forge)
                        .byzantine_activation(0.5),
                )
            },
            &[(0, 35), (30, 5)],
        ),
        (
            "Byzantine replay",
            || {
                grid6_under(
                    AdversarialScenario::builder()
                        .byzantine_tile(7)
                        .byzantine_tile(28)
                        .byzantine_mode(ByzantineMode::Replay)
                        .byzantine_activation(0.5),
                )
            },
            &[(0, 35), (30, 5)],
        ),
        (
            "self-addressed inject",
            || {
                SimulationBuilder::new(grid4())
                    .config(StochasticConfig::flooding(8).with_max_rounds(20))
                    .seed(4)
            },
            &[(5, 5), (0, 15), (9, 9)],
        ),
        (
            "CRC-8 under upsets",
            || {
                let model = FaultModel::builder()
                    .p_upset(0.5)
                    .error_model(ErrorModel::RandomBitError)
                    .build()
                    .unwrap();
                SimulationBuilder::new(Topology::grid(8, 8))
                    .config(StochasticConfig::flooding(16).with_max_rounds(30))
                    .fault_model(model)
                    .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
                    .seed(34)
            },
            &[(0, 63), (27, 36), (56, 7)],
        ),
    ];

    /// The known-duplicate path is invisible: a run whose sink records
    /// nothing, and so files known duplicates, and one whose sink counts
    /// every event, and so files none, hold the same state at every
    /// round boundary — checkpoint bytes and round stats — and end with
    /// the same report.
    #[test]
    fn a_sink_that_records_nothing_changes_nothing() {
        for (name, builder, injections) in SINK_WORKLOADS {
            let mut null = builder().build();
            let mut counter = builder().build_with_sink(CounterSink::new());
            for &(from, to) in injections {
                null.inject(NodeId(from), NodeId(to), b"sink equivalence".to_vec());
                counter.inject(NodeId(from), NodeId(to), b"sink equivalence".to_vec());
            }
            let (mut known, mut counted_known) = (0, 0);
            while !null.is_complete() && null.round() < null.config().max_rounds {
                assert_eq!(null.step(), counter.step(), "{name}: round stats");
                known += null.arrivals.next.known_len();
                counted_known += counter.arrivals.next.known_len();
                assert!(
                    null.checkpoint() == counter.checkpoint(),
                    "{name}: checkpoint after round {}",
                    null.round()
                );
            }
            assert!(counter.is_complete() == null.is_complete());
            assert!(known > 0, "{name}: no frame was filed as a known duplicate");
            assert_eq!(counted_known, 0, "{name}: a recording sink filed one");
            assert_eq!(
                format!("{:?}", null.into_report()),
                format!("{:?}", counter.into_report()),
                "{name}: final report"
            );
        }
    }

    /// Workloads the reserve is held to beside the sink ones: the
    /// benchmark's fault model on a 16×16 grid (overflow and skew
    /// included), upsets the CRC misses often enough to mint many variant
    /// bodies and carry bytes, and a replaying tile under upsets.
    const RESERVE_WORKLOADS: [SinkWorkload; 3] = [
        (
            "16×16 under the benchmark's faults",
            || {
                let model = FaultModel::builder()
                    .p_upset(0.05)
                    .p_overflow(0.02)
                    .sigma_synch(0.1)
                    .build()
                    .unwrap();
                SimulationBuilder::new(Topology::grid(16, 16))
                    .config(
                        StochasticConfig::new(0.75, 38)
                            .unwrap()
                            .with_max_rounds(64)
                            .with_termination(true),
                    )
                    .fault_model(model)
                    .seed(2003)
            },
            &[(0, 255), (15, 240), (136, 119)],
        ),
        (
            "CRC-8 under heavy upsets",
            || {
                let model = FaultModel::builder()
                    .p_upset(0.5)
                    .error_model(ErrorModel::RandomBitError)
                    .build()
                    .unwrap();
                SimulationBuilder::new(Topology::grid(8, 8))
                    .config(StochasticConfig::flooding(16).with_max_rounds(30))
                    .fault_model(model)
                    .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
                    .seed(35)
            },
            &[
                (0, 63),
                (7, 56),
                (56, 7),
                (63, 0),
                (27, 36),
                (36, 27),
                (9, 54),
                (54, 9),
                (18, 45),
                (45, 18),
                (21, 42),
                (42, 21),
            ],
        ),
        (
            "Byzantine replay under upsets",
            || {
                let model = FaultModel::builder()
                    .p_upset(0.3)
                    .error_model(ErrorModel::RandomBitError)
                    .build()
                    .unwrap();
                grid6_under(
                    AdversarialScenario::builder()
                        .byzantine_tile(7)
                        .byzantine_tile(28)
                        .byzantine_mode(ByzantineMode::Replay)
                        .byzantine_activation(0.8),
                )
                .fault_model(model)
                .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
            },
            &[(0, 35), (30, 5)],
        ),
    ];

    /// Capture reserves what its `Extent` counts, and little more: at
    /// every round of every workload the capture fits in its reserve, so
    /// it never reallocates, and the reserve is at most 1.25 × the
    /// capture plus 4 KiB. The second side is not asked of the two
    /// workloads whose missed upsets mint bodies receive then drops or
    /// purges: the body bound counts every upset the CRC missed, live or
    /// not.
    #[test]
    fn every_capture_fits_its_reserve() {
        let tight = SINK_WORKLOADS.iter().chain(&RESERVE_WORKLOADS[..1]);
        let loose = RESERVE_WORKLOADS[1..].iter();
        let workloads = tight.map(|w| (w, true)).chain(loose.map(|w| (w, false)));
        for ((name, builder, injections), tight) in workloads {
            let mut sim = builder().build();
            for &(from, to) in *injections {
                sim.inject(NodeId(from), NodeId(to), b"reserve".to_vec());
            }
            loop {
                let (captured, reserve) = (sim.checkpoint().len(), sim.extent().bytes());
                let round = sim.round();
                assert!(
                    captured <= reserve,
                    "{name}: round {round}: {captured} > {reserve}"
                );
                let slack = captured + captured / 4 + 4096;
                assert!(
                    !tight || reserve <= slack,
                    "{name}: round {round}: reserve {reserve} for {captured}"
                );
                if sim.is_complete() || round >= sim.config().max_rounds {
                    break;
                }
                sim.step();
            }
        }
    }

    #[test]
    fn the_config_digest_is_computed_by_the_first_capture_or_by_a_resume() {
        let builder = || SimulationBuilder::new(grid4()).seed(3);
        let mut sim = builder().build();
        sim.inject(NodeId(0), NodeId(15), vec![1]);
        sim.step();
        assert_eq!(sim.config_digest.get(), None, "a plain build computes none");
        let ck = sim.checkpoint();
        assert_eq!(sim.config_digest.get(), Some(&ck.config_digest()));
        let resumed = builder().resume(&ck).unwrap();
        assert_eq!(resumed.config_digest.get(), Some(&ck.config_digest()));
    }
}
