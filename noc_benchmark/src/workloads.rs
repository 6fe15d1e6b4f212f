//! The six benchmark workloads: input generation and one iteration of
//! each, driven through the simulator's public API only.
//!
//! Inputs are a pure function of `(--seed, workload)`: every seed the
//! simulator sees is derived through [`stochastic_noc::seed`], never by
//! ad-hoc arithmetic. One iteration is what a user of the engine does —
//! build, inject, run to a report — so build cost is inside the timed
//! region; the same iteration code serves the untraced run (a
//! [`Tracer`] that is off, a [`NullSink`]) and the traced run (spans
//! around every call, a [`CounterSink`], an [`EngineObs`]).

use std::fmt::Debug;

use noc_experiments::{
    fig4_10, fig4_11, fig4_4, fig4_5, fig4_8, fig4_9, fig5_3, runner, Scale as FigureScale,
};
use noc_fabric::{NodeId, Topology};
use noc_faults::{CrashSchedule, FaultModel};
use noc_obs::Stopwatch;
use stochastic_noc::reference::ReferenceSimulation;
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::{
    Checkpoint, CounterSink, EngineObs, EventSink, NullSink, Simulation, SimulationBuilder,
    SimulationReport, StochasticConfig,
};

use crate::trace::Tracer;

/// How much work one iteration performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes recorded in `BENCHMARK.json`.
    Full,
    /// 8×8/16×16 grids and 200 trickle rounds: the whole set in seconds,
    /// for the smoke test.
    Smoke,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free striped flood of a 64×64 grid.
    Flood64Clean,
    /// Faulty striped flood of a 128×128 grid, one shard.
    Flood128Faulty,
    /// The same inputs as [`Workload::Flood128Faulty`] on two shards.
    Flood128FaultyS2,
    /// Messages trickled into a 128×128 grid through `inject`/`step`.
    Sparse128Trickle,
    /// A flood interrupted by capture/encode/decode/resume cycles.
    CheckpointCycle,
    /// Seven paper figures through the Monte-Carlo runner.
    PaperSuite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::Flood64Clean,
        Workload::Flood128Faulty,
        Workload::Flood128FaultyS2,
        Workload::Sparse128Trickle,
        Workload::CheckpointCycle,
        Workload::PaperSuite,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood64Clean => "flood64_clean",
            Workload::Flood128Faulty => "flood128_faulty",
            Workload::Flood128FaultyS2 => "flood128_faulty_s2",
            Workload::Sparse128Trickle => "sparse128_trickle",
            Workload::CheckpointCycle => "checkpoint_cycle",
            Workload::PaperSuite => "paper_suite",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated event `ns_per_event` divides by on this workload.
    pub fn event(self) -> &'static str {
        match self {
            Workload::Flood64Clean | Workload::Flood128Faulty | Workload::Flood128FaultyS2 => {
                "link frame"
            }
            Workload::Sparse128Trickle => "round",
            Workload::CheckpointCycle => "checkpoint cycle",
            Workload::PaperSuite => "trial",
        }
    }

    /// The label the input seed is derived under. The two-shard flood
    /// shares its sibling's label so their inputs are byte-for-byte the
    /// same and their digests must be equal.
    fn input_label(self) -> &'static str {
        match self {
            Workload::Flood128FaultyS2 => Workload::Flood128Faulty.name(),
            other => other.name(),
        }
    }

    /// Generates this workload's inputs from the benchmark seed.
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        let derived = derive_labeled_seed(seed, self.input_label());
        let smoke = scale == Scale::Smoke;
        match self {
            Workload::Flood64Clean => Inputs::Flood(FloodInputs::striped(
                if smoke { 8 } else { 64 },
                if smoke { 2 } else { 8 },
                false,
                1,
                derived,
            )),
            Workload::Flood128Faulty | Workload::Flood128FaultyS2 => {
                Inputs::Flood(FloodInputs::striped(
                    if smoke { 16 } else { 128 },
                    if smoke { 2 } else { 1 },
                    true,
                    if self == Workload::Flood128FaultyS2 {
                        2
                    } else {
                        1
                    },
                    derived,
                ))
            }
            Workload::Sparse128Trickle => Inputs::Trickle(TrickleInputs::generate(
                if smoke { 16 } else { 128 },
                if smoke { 200 } else { 40_000 },
                derived,
            )),
            Workload::CheckpointCycle => Inputs::Checkpoint(CheckpointInputs {
                flood: FloodInputs::striped(
                    if smoke { 8 } else { 64 },
                    if smoke { 2 } else { 8 },
                    true,
                    1,
                    derived,
                ),
                every: 8,
            }),
            Workload::PaperSuite => Inputs::Suite(SuiteInputs { base_seed: derived }),
        }
    }
}

/// The fault regime of the faulty workloads (mega-grid's baseline).
pub fn faulty_model() -> FaultModel {
    FaultModel::builder()
        .p_upset(0.05)
        .p_overflow(0.02)
        .sigma_synch(0.1)
        .build()
        .expect("valid model")
}

/// The flood config family of `mega_grid::make_builder`: p = 0.75,
/// enough TTL to cross the diagonal with margin, a `4·side` round
/// budget, spread termination on.
pub fn flood_config(side: usize) -> StochasticConfig {
    let ttl = u8::try_from((2 * (side - 1) + side / 2).min(250)).expect("capped");
    StochasticConfig::new(0.75, ttl)
        .expect("valid config")
        .with_max_rounds(4 * side as u64)
        .with_termination(true)
}

/// Generated inputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// A burst flood run to its report.
    Flood(FloodInputs),
    /// A long `inject`/`step` trickle.
    Trickle(TrickleInputs),
    /// A flood interrupted by checkpoint cycles.
    Checkpoint(CheckpointInputs),
    /// A pass over the paper figures.
    Suite(SuiteInputs),
}

impl Inputs {
    /// Rounds one `engine.step` span covers on these inputs.
    pub fn rounds_per_step_span(&self) -> u64 {
        match self {
            Inputs::Trickle(trickle) => TRICKLE_ROUNDS_PER_SPAN.min(trickle.rounds),
            _ => 1,
        }
    }
}

/// A burst of corner-to-corner broadcasts striped across a square grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodInputs {
    /// Grid side.
    pub side: usize,
    /// Under [`faulty_model`] or fault-free.
    pub faulty: bool,
    /// Intra-trial shard count.
    pub shards: usize,
    /// Engine seed.
    pub engine_seed: u64,
    /// `(source, destination)` of each message, in injection order.
    pub injections: Vec<(NodeId, NodeId)>,
}

impl FloodInputs {
    /// Sources striped across the fabric, each targeting the diagonally
    /// opposite tile, so traffic crosses every shard boundary both ways.
    fn striped(side: usize, messages: usize, faulty: bool, shards: usize, seed: u64) -> Self {
        let n = side * side;
        FloodInputs {
            side,
            faulty,
            shards,
            engine_seed: seed,
            injections: (0..messages)
                .map(|i| {
                    let src = (i * n) / messages;
                    (NodeId(src), NodeId(n - 1 - src))
                })
                .collect(),
        }
    }

    /// The same inputs at another shard count.
    pub fn with_shards(&self, shards: usize) -> Self {
        FloodInputs {
            shards,
            ..self.clone()
        }
    }

    fn builder(&self) -> SimulationBuilder {
        SimulationBuilder::new(Topology::grid(self.side, self.side))
            .config(flood_config(self.side))
            .fault_model(if self.faulty {
                faulty_model()
            } else {
                FaultModel::none()
            })
            .shards(self.shards)
            .seed(self.engine_seed)
    }
}

/// One message injected from outside every `every`-th round at a
/// seed-derived tile, the engine stepped for `rounds` rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TrickleInputs {
    /// Grid side.
    pub side: usize,
    /// Rounds to step.
    pub rounds: u64,
    /// Injection period in rounds.
    pub every: u64,
    /// Engine seed.
    pub engine_seed: u64,
    /// `(source, destination)` of message `k`, injected at round `k·every`.
    pub injections: Vec<(NodeId, NodeId)>,
}

impl TrickleInputs {
    /// TTL of a trickled message: it dies a few hops from its source, so
    /// the active set stays a few dozen tiles of the whole fabric.
    const TTL: u8 = 6;
    const EVERY: u64 = 4;

    fn generate(side: usize, rounds: u64, seed: u64) -> Self {
        let n = (side * side) as u64;
        let engine_seed = derive_labeled_seed(seed, "engine");
        let tiles = derive_labeled_seed(seed, "tiles");
        let injections = (0..rounds.div_ceil(Self::EVERY))
            .map(|k| {
                let src = derive_trial_seed(tiles, 2 * k) % n;
                // A destination one to three tiles down the diagonal (2,
                // 4 or 6 hops, wrapped), so most messages can be
                // delivered within the TTL.
                let hop = 1 + derive_trial_seed(tiles, 2 * k + 1) % 3;
                let dst = (src + hop * (side as u64 + 1)) % n;
                (NodeId(src as usize), NodeId(dst as usize))
            })
            .collect();
        TrickleInputs {
            side,
            rounds,
            every: Self::EVERY,
            engine_seed,
            injections,
        }
    }

    fn builder(&self) -> SimulationBuilder {
        SimulationBuilder::new(Topology::grid(self.side, self.side))
            .config(
                StochasticConfig::new(0.75, Self::TTL)
                    .expect("valid config")
                    .with_max_rounds(self.rounds),
            )
            .fault_model(faulty_model())
            .seed(self.engine_seed)
    }
}

/// A faulty flood stepped with a full capture → encode → decode → resume
/// cycle every `every`-th round, continuing on the resumed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointInputs {
    /// The interrupted flood.
    pub flood: FloodInputs,
    /// Checkpoint period in rounds.
    pub every: u64,
}

/// One pass over the paper figures at the runner's base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteInputs {
    /// `runner::set_base_seed` value of the pass.
    pub base_seed: u64,
}

/// A paper figure of the suite: its span, its metric and its `run`.
pub struct Figure {
    /// Span name, e.g. `figure.fig4-4`.
    pub span: &'static str,
    /// Per-layer metric holding the span's median seconds.
    pub metric: &'static str,
    /// Runs the figure at its quick scale and returns its rows.
    pub run: fn() -> Box<dyn Debug>,
}

/// The figures of `paper_suite`, in run order. They run at the figures'
/// quick scale at both benchmark scales — 144 short trials on 4×4
/// fabrics, ≈0.35 s a pass — because a paper-scale pass (1 790 trials,
/// ≈7 s) leaves a 10 s window one sample.
pub const FIGURES: [Figure; 7] = [
    Figure {
        span: "figure.fig4-4",
        metric: "figure.fig4-4_s",
        run: || Box::new(fig4_4::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig4-5",
        metric: "figure.fig4-5_s",
        run: || Box::new(fig4_5::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig4-8",
        metric: "figure.fig4-8_s",
        run: || Box::new(fig4_8::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig4-9",
        metric: "figure.fig4-9_s",
        run: || Box::new(fig4_9::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig4-10",
        metric: "figure.fig4-10_s",
        run: || Box::new(fig4_10::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig4-11",
        metric: "figure.fig4-11_s",
        run: || Box::new(fig4_11::run(FigureScale::Quick)),
    },
    Figure {
        span: "figure.fig5-3",
        metric: "figure.fig5-3_s",
        run: || Box::new(fig5_3::run(FigureScale::Quick)),
    },
];

/// Deterministic event tallies of one traced engine iteration, read from
/// the [`CounterSink`] and the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Frames pushed onto links.
    pub frames: u64,
    /// First deliveries.
    pub deliveries: u64,
    /// Rounds that ended quiescent.
    pub quiescent_rounds: u64,
    /// Redundant arrivals suppressed — the flood's wasted work.
    pub duplicate_drops: u64,
    /// Frames the CRC check discarded.
    pub crc_rejects: u64,
    /// Frames dropped by receive-buffer overflow.
    pub overflow_drops: u64,
}

/// What one iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host nanoseconds of the iteration: build + inject + run.
    pub wall_ns: u64,
    /// Simulated events of the workload's kind ([`Workload::event`]).
    pub events: u64,
    /// Host nanoseconds spent on those events: the iteration wall,
    /// except on `checkpoint_cycle`, where it is the cycles alone.
    pub event_ns: u64,
    /// FNV-1a of the report's (or the figure rows') `Debug` rendering.
    pub digest: u64,
    /// Frames of the iteration (0 for the figure suite).
    pub frames: u64,
    /// Rounds of the iteration (0 for the figure suite).
    pub rounds: u64,
    /// Encoded checkpoint bytes summed over the iteration's cycles.
    pub checkpoint_bytes: u64,
    /// Event tallies, in the traced run only.
    pub counts: Option<EngineCounts>,
    /// Checks that failed inside the iteration.
    pub failures: Vec<String>,
}

/// FNV-1a over `bytes` — the digest two commits are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn report_digest(report: &SimulationReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Runs one iteration of `inputs`. With a recording `tracer` the engine
/// carries a [`CounterSink`] and `obs`, is driven through `step()` with
/// a span per call, and the sink is reconciled against the report.
pub fn iterate(inputs: &Inputs, tracer: &mut Tracer, obs: Option<&EngineObs>) -> Outcome {
    tracer.begin("iteration");
    let outcome = match inputs {
        Inputs::Flood(flood) if tracer.enabled() => {
            flood_iteration(flood, counter_sink(flood.side), obs, tracer, 0)
        }
        Inputs::Flood(flood) => flood_iteration(flood, NullSink, None, tracer, 0),
        Inputs::Checkpoint(ck) if tracer.enabled() => flood_iteration(
            &ck.flood,
            counter_sink(ck.flood.side),
            obs,
            tracer,
            ck.every,
        ),
        Inputs::Checkpoint(ck) => flood_iteration(&ck.flood, NullSink, None, tracer, ck.every),
        Inputs::Trickle(trickle) if tracer.enabled() => {
            trickle_iteration(trickle, counter_sink(trickle.side), obs, tracer)
        }
        Inputs::Trickle(trickle) => trickle_iteration(trickle, NullSink, None, tracer),
        Inputs::Suite(suite) => suite_iteration(suite, tracer),
    };
    tracer.end();
    outcome
}

fn counter_sink(side: usize) -> CounterSink {
    let topology = Topology::grid(side, side);
    CounterSink::with_capacity(topology.node_count(), topology.link_count())
}

/// What a sink saw, if it counts. [`NullSink`] sees nothing.
pub trait SinkCounts: EventSink {
    /// Reconciles against `report` and returns the tallies.
    fn counts(&self, report: &SimulationReport) -> Option<Result<EngineCounts, String>>;
}

impl SinkCounts for NullSink {
    fn counts(&self, _report: &SimulationReport) -> Option<Result<EngineCounts, String>> {
        None
    }
}

impl SinkCounts for CounterSink {
    fn counts(&self, report: &SimulationReport) -> Option<Result<EngineCounts, String>> {
        let totals = self.totals();
        Some(self.reconcile(report).map(|()| EngineCounts {
            frames: totals.frames_sent,
            deliveries: totals.deliveries,
            quiescent_rounds: self.quiescent_rounds(),
            duplicate_drops: totals.duplicate_drops,
            crc_rejects: totals.crc_rejects,
            overflow_drops: totals.overflow_drops,
        }))
    }
}

fn with_obs(builder: SimulationBuilder, obs: Option<&EngineObs>) -> SimulationBuilder {
    match obs {
        Some(obs) => builder.obs(obs.clone()),
        None => builder,
    }
}

/// Steps `sim` until round `until` (or completion) with a span per
/// `step()` call; a tracer that is off makes the spans free.
fn step_until<S: EventSink>(sim: &mut Simulation<S>, tracer: &mut Tracer, until: u64) {
    while !sim.is_complete() && sim.round() < until {
        tracer.begin("engine.step");
        sim.step();
        tracer.end();
    }
}

fn finish<S: SinkCounts>(
    report: SimulationReport,
    sink: &S,
    wall_ns: u64,
    mut outcome: Outcome,
) -> Outcome {
    outcome.wall_ns = wall_ns;
    outcome.frames = report.packets_sent;
    outcome.rounds = report.rounds_executed;
    outcome.digest = report_digest(&report);
    match sink.counts(&report) {
        Some(Ok(counts)) => outcome.counts = Some(counts),
        Some(Err(why)) => outcome.failures.push(format!("reconcile: {why}")),
        None => {}
    }
    outcome
}

/// A flood run to its report; with `every > 0`, interrupted by a full
/// checkpoint cycle every `every`-th round.
fn flood_iteration<S: SinkCounts>(
    inputs: &FloodInputs,
    sink: S,
    obs: Option<&EngineObs>,
    tracer: &mut Tracer,
    every: u64,
) -> Outcome {
    let mut outcome = Outcome::default();
    let wall = Stopwatch::start();
    tracer.begin("engine.build");
    let mut sim = with_obs(inputs.builder(), obs).build_with_sink(sink);
    tracer.end();
    tracer.begin("engine.inject");
    for &(src, dst) in &inputs.injections {
        sim.inject(src, dst, vec![0x5A; 8]);
    }
    tracer.end();
    tracer.begin("engine.run");
    let max_rounds = sim.config().max_rounds;
    if every > 0 {
        while !sim.is_complete() && sim.round() < max_rounds {
            let until = (sim.round() + every).min(max_rounds);
            step_until(&mut sim, tracer, until);
            // Each stage's input is dropped as soon as the next stage has
            // consumed it, as a user writing the bytes to disk would, so
            // the cycle's resident peak is one copy of the state, not three.
            let cycle = Stopwatch::start();
            tracer.begin("checkpoint.capture");
            let captured = sim.checkpoint();
            tracer.end();
            tracer.begin("checkpoint.encode");
            let bytes = captured.to_bytes();
            drop(captured);
            tracer.end();
            tracer.begin("checkpoint.decode");
            let decoded = Checkpoint::from_bytes(&bytes);
            let encoded_len = bytes.len() as u64;
            drop(bytes);
            tracer.end();
            tracer.begin("checkpoint.resume");
            let resumed = decoded.and_then(|ck| {
                with_obs(inputs.builder(), obs).resume_with_sink(&ck, sim.into_sink())
            });
            tracer.end();
            outcome.event_ns += cycle.elapsed_nanos();
            outcome.events += 1;
            outcome.checkpoint_bytes += encoded_len;
            match resumed {
                Ok(next) => sim = next,
                Err(why) => {
                    tracer.end();
                    outcome.failures.push(format!("checkpoint cycle: {why}"));
                    outcome.wall_ns = wall.elapsed_nanos();
                    return outcome;
                }
            }
        }
    } else if tracer.enabled() {
        // Only the traced run drives a plain flood through `step()`; the
        // untraced run leaves the loop to the call users make, below.
        step_until(&mut sim, tracer, max_rounds);
    }
    let (report, sink) = sim.run_to_report_and_sink();
    tracer.end();
    let wall_ns = wall.elapsed_nanos();
    if every == 0 {
        outcome.events = report.packets_sent;
        outcome.event_ns = wall_ns;
    }
    finish(report, &sink, wall_ns, outcome)
}

/// Rounds one `engine.step` span of the trickle covers: a span per round
/// would be 40 000 spans an iteration.
const TRICKLE_ROUNDS_PER_SPAN: u64 = 1_000;

/// The engine used the other way round: a few dozen active tiles of
/// thousands, driven by `inject`/`step` from outside.
fn trickle_iteration<S: SinkCounts>(
    inputs: &TrickleInputs,
    sink: S,
    obs: Option<&EngineObs>,
    tracer: &mut Tracer,
) -> Outcome {
    let wall = Stopwatch::start();
    tracer.begin("engine.build");
    let mut sim = with_obs(inputs.builder(), obs).build_with_sink(sink);
    tracer.end();
    tracer.begin("engine.run");
    let mut next = inputs.injections.iter();
    for round in 0..inputs.rounds {
        if round % TRICKLE_ROUNDS_PER_SPAN == 0 {
            tracer.begin("engine.step");
        }
        if round % inputs.every == 0 {
            if let Some(&(src, dst)) = next.next() {
                sim.inject(src, dst, vec![0x5A; 8]);
            }
        }
        sim.step();
        if (round + 1) % TRICKLE_ROUNDS_PER_SPAN == 0 || round + 1 == inputs.rounds {
            tracer.end();
        }
    }
    // The round budget equals `rounds`, so this only finalizes the report.
    let (report, sink) = sim.run_to_report_and_sink();
    tracer.end();
    let wall_ns = wall.elapsed_nanos();
    let outcome = Outcome {
        events: report.rounds_executed,
        event_ns: wall_ns,
        ..Outcome::default()
    };
    finish(report, &sink, wall_ns, outcome)
}

/// One single-threaded pass over the seven figures. Single-threaded
/// because at two threads the same suite measured no faster on the
/// 2-core host: mostly scheduler.
fn suite_iteration(inputs: &SuiteInputs, tracer: &mut Tracer) -> Outcome {
    runner::set_default_threads(1);
    runner::set_base_seed(inputs.base_seed);
    runner::take_reports();
    let wall = Stopwatch::start();
    let mut rows = Vec::with_capacity(FIGURES.len());
    for figure in &FIGURES {
        tracer.begin(figure.span);
        rows.push((figure.run)());
        tracer.end();
    }
    let wall_ns = wall.elapsed_nanos();
    let rendered: String = rows.iter().map(|row| format!("{row:?}\n")).collect();
    Outcome {
        wall_ns,
        events: runner::take_reports().iter().map(|r| r.trials).sum(),
        event_ns: wall_ns,
        digest: fnv1a(rendered.as_bytes()),
        ..Outcome::default()
    }
}

/// The set-up oracle check: the workload's config family on an 8×8 grid
/// must agree with [`ReferenceSimulation`] on every observable. Returns
/// the number of mismatching runs (0 or 1; the figure suite has no
/// engine config of its own and checks nothing).
pub fn oracle_mismatches(inputs: &Inputs) -> u64 {
    const SIDE: usize = 8;
    let n = SIDE * SIDE;
    let (config, model, seed) = match inputs {
        Inputs::Flood(f) | Inputs::Checkpoint(CheckpointInputs { flood: f, .. }) => (
            flood_config(SIDE),
            if f.faulty {
                faulty_model()
            } else {
                FaultModel::none()
            },
            f.engine_seed,
        ),
        Inputs::Trickle(t) => (
            StochasticConfig::new(0.75, TrickleInputs::TTL)
                .expect("valid config")
                .with_max_rounds(4 * SIDE as u64),
            faulty_model(),
            t.engine_seed,
        ),
        Inputs::Suite(_) => return 0,
    };
    let topology = Topology::grid(SIDE, SIDE);
    let mut engine = SimulationBuilder::new(topology.clone())
        .config(config)
        .fault_model(model)
        .seed(seed)
        .build();
    let mut oracle = ReferenceSimulation::new(topology, config, model, CrashSchedule::new(), seed);
    for (src, dst) in [(0, n - 1), (n / 2, n / 2 + 2 * SIDE + 2)] {
        engine.inject(NodeId(src), NodeId(dst), vec![0x5A; 8]);
        oracle.inject(NodeId(src), NodeId(dst), vec![0x5A; 8]);
    }
    u64::from(observables(&engine.run()) != observables(&oracle.run()))
}

/// Everything the engine and the oracle must agree on. The oracle does
/// not count quiescent rounds, so the report's `Debug` rendering cannot
/// be compared whole.
fn observables(report: &SimulationReport) -> String {
    let records: Vec<_> = report.records().collect();
    format!(
        "{} {} {} {:?} {} {} {} {} {} {} {records:?}",
        report.rounds_executed,
        report.completed,
        report.packets_sent,
        report.bits_sent,
        report.upsets_detected,
        report.upsets_undetected,
        report.overflow_drops,
        report.crash_drops,
        report.clock_slips,
        report.ttl_expirations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(workload: Workload, seed: u64) -> u64 {
        let inputs = workload.inputs(seed, Scale::Smoke);
        let outcome = iterate(&inputs, &mut Tracer::off(), None);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.events > 0 && outcome.wall_ns > 0);
        outcome.digest
    }

    #[test]
    fn same_seed_same_inputs_and_same_digest() {
        for workload in Workload::ALL {
            assert_eq!(
                workload.inputs(2003, Scale::Smoke),
                workload.inputs(2003, Scale::Smoke),
                "{}",
                workload.name()
            );
            if workload != Workload::PaperSuite {
                assert_eq!(digest(workload, 2003), digest(workload, 2003));
            }
        }
    }

    #[test]
    fn a_different_seed_changes_trickle_tiles_and_every_engine_digest() {
        let (Inputs::Trickle(a), Inputs::Trickle(b)) = (
            Workload::Sparse128Trickle.inputs(1, Scale::Smoke),
            Workload::Sparse128Trickle.inputs(2, Scale::Smoke),
        ) else {
            panic!("trickle inputs");
        };
        assert_ne!(a.injections, b.injections);
        for workload in Workload::ALL {
            if workload != Workload::PaperSuite {
                assert_ne!(
                    digest(workload, 1),
                    digest(workload, 2),
                    "{}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn the_sharded_flood_shares_its_siblings_inputs_and_digest() {
        let (Inputs::Flood(s1), Inputs::Flood(s2)) = (
            Workload::Flood128Faulty.inputs(9, Scale::Smoke),
            Workload::Flood128FaultyS2.inputs(9, Scale::Smoke),
        ) else {
            panic!("flood inputs");
        };
        assert_eq!(s1.with_shards(2), s2);
        assert_eq!(
            digest(Workload::Flood128Faulty, 9),
            digest(Workload::Flood128FaultyS2, 9)
        );
    }

    #[test]
    fn a_checkpointed_flood_ends_where_the_uninterrupted_one_does() {
        let Inputs::Checkpoint(ck) = Workload::CheckpointCycle.inputs(5, Scale::Smoke) else {
            panic!("checkpoint inputs");
        };
        let cycled = iterate(&Inputs::Checkpoint(ck.clone()), &mut Tracer::off(), None);
        let plain = iterate(&Inputs::Flood(ck.flood), &mut Tracer::off(), None);
        assert!(cycled.events > 0 && cycled.checkpoint_bytes > 0);
        assert_eq!(cycled.digest, plain.digest);
    }

    #[test]
    fn traced_iterations_count_what_the_report_counts() {
        for workload in [
            Workload::Flood64Clean,
            Workload::Flood128FaultyS2,
            Workload::Sparse128Trickle,
            Workload::CheckpointCycle,
        ] {
            let inputs = workload.inputs(11, Scale::Smoke);
            let plain = iterate(&inputs, &mut Tracer::off(), None);
            let mut tracer = Tracer::on();
            let traced = iterate(&inputs, &mut tracer, None);
            assert!(traced.failures.is_empty(), "{:?}", traced.failures);
            let counts = traced.counts.expect("counter sink installed");
            assert_eq!(traced.digest, plain.digest, "{}", workload.name());
            assert_eq!((counts.frames, traced.rounds), (plain.frames, plain.rounds));
            assert_eq!(tracer.spans()[0].name, "iteration");
            assert!(!tracer.durations("engine.step").is_empty());
        }
    }

    #[test]
    fn every_engine_config_family_agrees_with_the_oracle() {
        for workload in Workload::ALL {
            assert_eq!(
                oracle_mismatches(&workload.inputs(2003, Scale::Smoke)),
                0,
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn names_resolve_back_to_their_workload() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
