//! The MP3-style encoder pipeline of §4.2 (Figure 4-7).
//!
//! Six pipeline IPs mapped onto NoC tiles, communicating only through
//! stochastic gossip:
//!
//! ```text
//! SignalAcquisition ──frames──► PsychoacousticModel ──weights──► IterativeEncoding
//!         │                                                          ▲      │
//!         └───────────frames──► MDCT ────────coefficients────────────┘      │granules
//!                                                                           ▼
//!                                                   BitReservoir ──► Output
//! ```
//!
//! As documented in DESIGN.md, the paper's LAME-over-PVM setup is
//! substituted by this from-scratch pipeline over synthetic PCM: the same
//! module graph, message kinds and rate behaviour, which is what the
//! communication experiments measure. The Output IP records the arrival
//! round of every encoded granule, giving the bit-rate and jitter curves
//! of Figures 4-8 through 4-11.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use noc_dsp::bitstream::BitReservoir;
use noc_dsp::psycho::PsychoModel;
use noc_dsp::quantize::{code_into_writer, rate_control};
use noc_dsp::signal::SignalGenerator;
use noc_dsp::MdctFrame;
use noc_fabric::{Grid2d, IpContext, IpCore, NodeId};
use noc_faults::{CrashSchedule, FaultModel};
use stochastic_noc::{SimulationBuilder, SimulationReport, StochasticConfig};

use crate::wire::{put_f64_slice, put_u32, PayloadReader};

const TAG_FRAME: u8 = 21;
const TAG_WEIGHTS: u8 = 22;
const TAG_COEFFS: u8 = 23;
const TAG_GRANULE: u8 = 24;
const TAG_BITS: u8 = 25;

/// Samples per pipeline frame (one MDCT hop).
pub const FRAME_SAMPLES: usize = 64;
/// Psychoacoustic analysis bands.
pub const BANDS: usize = 16;

/// Parameters of an MP3-pipeline run.
#[derive(Debug, Clone)]
pub struct Mp3Params {
    /// Grid side (4 in the paper's NoC experiments).
    pub grid_side: usize,
    /// Number of audio frames to encode.
    pub frames: u32,
    /// Nominal bit budget per frame (before reservoir adjustment).
    pub bits_per_frame: usize,
    /// Bit-reservoir capacity.
    pub reservoir_capacity: usize,
    /// Rounds between consecutive source frames (pacing).
    pub frame_interval: u64,
    /// Protocol configuration.
    pub config: StochasticConfig,
    /// Fault model.
    pub fault_model: FaultModel,
    /// Explicit crash events.
    pub crash_schedule: CrashSchedule,
    /// RNG seed (also varies the programme material's noise).
    pub seed: u64,
}

impl Default for Mp3Params {
    fn default() -> Self {
        Self {
            grid_side: 4,
            frames: 24,
            bits_per_frame: 400,
            reservoir_capacity: 1600,
            frame_interval: 2,
            config: StochasticConfig::default().with_max_rounds(600),
            fault_model: FaultModel::none(),
            crash_schedule: CrashSchedule::new(),
            seed: 0,
        }
    }
}

/// Tile mapping of the six pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mp3Mapping {
    /// Signal acquisition (PCM source).
    pub acquisition: NodeId,
    /// Psychoacoustic model.
    pub psycho: NodeId,
    /// MDCT filterbank.
    pub mdct: NodeId,
    /// Iterative (rate-loop) encoder.
    pub encoder: NodeId,
    /// Bit reservoir.
    pub reservoir: NodeId,
    /// Output / bitstream sink.
    pub output: NodeId,
}

impl Mp3Mapping {
    /// The default placement on a 4×4 grid: stages spread across the
    /// fabric so every hop exercises the network.
    pub fn default_on_grid(side: usize) -> Self {
        assert!(side >= 3, "mp3 pipeline needs at least a 3x3 grid");
        let n = |x: usize, y: usize| NodeId(y * side + x);
        Self {
            acquisition: n(0, 0),
            psycho: n(side - 1, 0),
            mdct: n(0, side - 1),
            encoder: n(side / 2, side / 2),
            reservoir: n(side - 1, side - 1),
            output: n(side - 1, side / 2),
        }
    }

    /// All six tiles.
    pub fn tiles(&self) -> [NodeId; 6] {
        [
            self.acquisition,
            self.psycho,
            self.mdct,
            self.encoder,
            self.reservoir,
            self.output,
        ]
    }
}

/// Outcome of an MP3 run.
#[derive(Debug, Clone)]
pub struct Mp3Outcome {
    /// Did every frame reach the output within the round budget?
    pub completed: bool,
    /// Round at which the last frame arrived at the output.
    pub completion_round: Option<u64>,
    /// Frames that reached the output.
    pub frames_delivered: u32,
    /// Frames requested.
    pub frames_requested: u32,
    /// Total encoded bits that reached the output.
    pub output_bits: u64,
    /// Per-frame arrival round at the output (indexed by frame id).
    pub arrival_rounds: Vec<Option<u64>>,
    /// Per-frame encoded size in bits.
    pub frame_bits: Vec<Option<u32>>,
    /// Per-frame coded granule that reached the output: the quantizer
    /// step and the Elias-gamma coded coefficient bytes.
    pub granules: Vec<Option<(f64, Vec<u8>)>>,
    /// Full engine report.
    pub report: SimulationReport,
}

impl Mp3Outcome {
    /// Average output bit-rate in bits per round, measured from first to
    /// last delivered frame. `None` if fewer than two frames arrived.
    pub fn bitrate_per_round(&self) -> Option<f64> {
        let arrivals: Vec<u64> = self.arrival_rounds.iter().flatten().copied().collect();
        if arrivals.len() < 2 {
            return None;
        }
        let first = *arrivals.iter().min().expect("non-empty");
        let last = *arrivals.iter().max().expect("non-empty");
        if last == first {
            return None;
        }
        Some(self.output_bits as f64 / (last - first) as f64)
    }

    /// Decodes one delivered granule back into MDCT coefficients.
    ///
    /// Returns `None` if the frame never arrived or its bitstream is
    /// truncated. This is the decoder half of the "Output" stage: proof
    /// that what crossed the NoC is a playable bitstream, not a byte
    /// count.
    pub fn decode_granule(&self, frame: usize) -> Option<Vec<f64>> {
        let (step, bytes) = self.granules.get(frame)?.as_ref()?;
        let mut reader = noc_dsp::bitstream::BitReader::new(bytes);
        let quants: Option<Vec<i32>> = (0..FRAME_SAMPLES)
            .map(|_| reader.read_signed_gamma())
            .collect();
        Some(noc_dsp::quantize::dequantize_all(&quants?, *step))
    }

    /// Jitter: standard deviation of inter-frame arrival gaps (rounds).
    pub fn jitter(&self) -> Option<f64> {
        let mut arrivals: Vec<u64> = self.arrival_rounds.iter().flatten().copied().collect();
        if arrivals.len() < 3 {
            return None;
        }
        arrivals.sort_unstable();
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        Some(var.sqrt())
    }
}

// ---------------------------------------------------------------------
// Pipeline IPs
// ---------------------------------------------------------------------

struct AcquisitionIp {
    psycho: NodeId,
    mdct: NodeId,
    generator: SignalGenerator,
    frames: u32,
    interval: u64,
    sent: u32,
}

impl IpCore for AcquisitionIp {
    fn on_round(&mut self, ctx: &mut IpContext) {
        if self.sent >= self.frames || !ctx.round().is_multiple_of(self.interval) {
            return;
        }
        let frame = self.generator.next_frame(FRAME_SAMPLES);
        let mut payload = vec![TAG_FRAME];
        put_u32(&mut payload, self.sent);
        put_f64_slice(&mut payload, &frame);
        ctx.send(self.psycho, payload.clone());
        ctx.send(self.mdct, payload);
        self.sent += 1;
    }

    fn is_done(&self) -> bool {
        self.sent >= self.frames
    }

    fn name(&self) -> &str {
        "acquisition"
    }
}

struct PsychoIp {
    encoder: NodeId,
    model: PsychoModel,
    frames: u32,
    processed: u32,
}

impl IpCore for PsychoIp {
    fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        if r.u8() != Some(TAG_FRAME) {
            return;
        }
        let Some(frame_id) = r.u32() else { return };
        let Some(samples) = r.f64_slice() else { return };
        if samples.len() != FRAME_SAMPLES {
            return;
        }
        let analysis = self.model.analyze(&samples);
        let weights = analysis.allocation_weights();
        let mut out = vec![TAG_WEIGHTS];
        put_u32(&mut out, frame_id);
        put_f64_slice(&mut out, &weights);
        ctx.send(self.encoder, out);
        self.processed += 1;
    }

    fn is_done(&self) -> bool {
        self.processed >= self.frames
    }

    fn name(&self) -> &str {
        "psychoacoustic"
    }
}

/// A fresh MDCT engine for one run. Its 64 KiB cosine table is built
/// once per process and shared: a sweep runs thousands of trials, and
/// each used to pay 8 192 `cos` calls for the same table. The template
/// sits behind `&'static`, so nothing can feed it samples and every
/// clone starts from zero history and overlap.
fn mdct_engine() -> MdctFrame {
    static TEMPLATE: OnceLock<MdctFrame> = OnceLock::new();
    TEMPLATE
        .get_or_init(|| MdctFrame::new(FRAME_SAMPLES * 2))
        .clone()
}

struct MdctIp {
    encoder: NodeId,
    engine: MdctFrame,
    frames: u32,
    processed: u32,
}

impl IpCore for MdctIp {
    fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        if r.u8() != Some(TAG_FRAME) {
            return;
        }
        let Some(frame_id) = r.u32() else { return };
        let Some(samples) = r.f64_slice() else { return };
        if samples.len() != FRAME_SAMPLES {
            return;
        }
        let coeffs = self.engine.analyze(&samples);
        let mut out = vec![TAG_COEFFS];
        put_u32(&mut out, frame_id);
        put_f64_slice(&mut out, &coeffs);
        ctx.send(self.encoder, out);
        self.processed += 1;
    }

    fn is_done(&self) -> bool {
        self.processed >= self.frames
    }

    fn name(&self) -> &str {
        "mdct"
    }
}

struct EncoderIp {
    reservoir: NodeId,
    bits_per_frame: usize,
    frames: u32,
    pending_weights: std::collections::BTreeMap<u32, Vec<f64>>,
    pending_coeffs: std::collections::BTreeMap<u32, Vec<f64>>,
    encoded: u32,
}

impl EncoderIp {
    fn try_encode(&mut self, ctx: &mut IpContext, frame_id: u32) {
        let (Some(weights), Some(coeffs)) = (
            self.pending_weights.get(&frame_id),
            self.pending_coeffs.get(&frame_id),
        ) else {
            return;
        };
        // Perceptual weighting: scale coefficients by per-band weights so
        // the rate loop spends bits where the psychoacoustic model wants
        // them (a simplification of MP3's per-band scalefactors).
        let per_band = coeffs.len() / weights.len().max(1);
        let weighted: Vec<f64> = coeffs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let band = (i / per_band.max(1)).min(weights.len() - 1);
                c * (0.5 + weights[band] * weights.len() as f64)
            })
            .collect();
        let result = rate_control(&weighted, self.bits_per_frame);
        let writer = code_into_writer(&result.quantized);
        let mut out = vec![TAG_GRANULE];
        put_u32(&mut out, frame_id);
        put_u32(&mut out, result.bits as u32);
        crate::wire::put_f64(&mut out, result.step);
        out.extend_from_slice(writer.as_bytes());
        ctx.send(self.reservoir, out);
        self.pending_weights.remove(&frame_id);
        self.pending_coeffs.remove(&frame_id);
        self.encoded += 1;
    }
}

impl IpCore for EncoderIp {
    fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        let Some(tag) = r.u8() else { return };
        let Some(frame_id) = r.u32() else { return };
        let Some(values) = r.f64_slice() else { return };
        match tag {
            TAG_WEIGHTS if values.len() == BANDS => {
                self.pending_weights.insert(frame_id, values);
            }
            TAG_COEFFS if values.len() == FRAME_SAMPLES => {
                self.pending_coeffs.insert(frame_id, values);
            }
            _ => return,
        }
        self.try_encode(ctx, frame_id);
    }

    fn is_done(&self) -> bool {
        self.encoded >= self.frames
    }

    fn name(&self) -> &str {
        "iterative-encoder"
    }
}

struct ReservoirIp {
    output: NodeId,
    reservoir: BitReservoir,
    nominal_bits: usize,
    frames: u32,
    processed: u32,
}

impl IpCore for ReservoirIp {
    fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        if r.u8() != Some(TAG_GRANULE) {
            return;
        }
        let (Some(frame_id), Some(bits), Some(step)) = (r.u32(), r.u32(), r.f64()) else {
            return;
        };
        let bits = bits as usize;
        // Smooth the rate: easy frames donate surplus, hard frames draw.
        let final_bits = if bits < self.nominal_bits {
            self.reservoir.deposit(self.nominal_bits - bits);
            bits
        } else {
            let need = bits - self.nominal_bits;
            let granted = self.reservoir.withdraw(need);
            self.nominal_bits + granted
        };
        let mut out = vec![TAG_BITS];
        put_u32(&mut out, frame_id);
        put_u32(&mut out, final_bits as u32);
        crate::wire::put_f64(&mut out, step);
        let coded_start = payload.len() - r.remaining();
        out.extend_from_slice(&payload[coded_start..]);
        ctx.send(self.output, out);
        self.processed += 1;
    }

    fn is_done(&self) -> bool {
        self.processed >= self.frames
    }

    fn name(&self) -> &str {
        "bit-reservoir"
    }
}

#[derive(Debug)]
struct OutputState {
    arrival_rounds: Vec<Option<u64>>,
    frame_bits: Vec<Option<u32>>,
    /// The actual coded granules: (quantizer step, Elias-gamma bytes).
    granules: Vec<Option<(f64, Vec<u8>)>>,
    delivered: u32,
    completion_round: Option<u64>,
}

struct OutputIp {
    frames: u32,
    state: Rc<RefCell<OutputState>>,
}

impl IpCore for OutputIp {
    fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        if r.u8() != Some(TAG_BITS) {
            return;
        }
        let (Some(frame_id), Some(bits), Some(step)) = (r.u32(), r.u32(), r.f64()) else {
            return;
        };
        if frame_id >= self.frames || !step.is_finite() || step <= 0.0 {
            return;
        }
        let mut state = self.state.borrow_mut();
        let slot = frame_id as usize;
        if state.arrival_rounds[slot].is_some() {
            return;
        }
        let coded_start = payload.len() - r.remaining();
        state.arrival_rounds[slot] = Some(ctx.round());
        state.frame_bits[slot] = Some(bits);
        state.granules[slot] = Some((step, payload[coded_start..].to_vec()));
        state.delivered += 1;
        if state.delivered == self.frames {
            state.completion_round = Some(ctx.round());
        }
    }

    fn is_done(&self) -> bool {
        self.state.borrow().delivered >= self.frames
    }

    fn name(&self) -> &str {
        "output"
    }
}

/// A configured MP3-pipeline application.
///
/// # Examples
///
/// ```
/// use noc_apps::mp3::{Mp3App, Mp3Params};
///
/// let params = Mp3Params {
///     frames: 8,
///     ..Mp3Params::default()
/// };
/// let outcome = Mp3App::new(params).run();
/// assert!(outcome.completed);
/// assert_eq!(outcome.frames_delivered, 8);
/// ```
#[derive(Debug)]
pub struct Mp3App {
    params: Mp3Params,
    mapping: Mp3Mapping,
}

impl Mp3App {
    /// Creates the application with the default stage mapping.
    ///
    /// # Panics
    ///
    /// Panics if the grid side is below 3 or no frames are requested.
    pub fn new(params: Mp3Params) -> Self {
        assert!(params.frames > 0, "at least one frame must be encoded");
        assert!(params.frame_interval > 0, "frame interval must be positive");
        let mapping = Mp3Mapping::default_on_grid(params.grid_side);
        Self { params, mapping }
    }

    /// The stage mapping in use.
    pub fn mapping(&self) -> &Mp3Mapping {
        &self.mapping
    }

    /// Runs the encoder pipeline.
    pub fn run(self) -> Mp3Outcome {
        let p = &self.params;
        let m = &self.mapping;
        let state = Rc::new(RefCell::new(OutputState {
            arrival_rounds: vec![None; p.frames as usize],
            frame_bits: vec![None; p.frames as usize],
            granules: vec![None; p.frames as usize],
            delivered: 0,
            completion_round: None,
        }));

        let builder = SimulationBuilder::new(Grid2d::new(p.grid_side, p.grid_side))
            .config(p.config)
            .fault_model(p.fault_model)
            .crash_schedule(p.crash_schedule.clone())
            .seed(p.seed)
            .with_ip(
                m.acquisition,
                Box::new(AcquisitionIp {
                    psycho: m.psycho,
                    mdct: m.mdct,
                    generator: SignalGenerator::music_like(p.seed),
                    frames: p.frames,
                    interval: p.frame_interval,
                    sent: 0,
                }),
            )
            .with_ip(
                m.psycho,
                Box::new(PsychoIp {
                    encoder: m.encoder,
                    model: PsychoModel::new(FRAME_SAMPLES, BANDS),
                    frames: p.frames,
                    processed: 0,
                }),
            )
            .with_ip(
                m.mdct,
                Box::new(MdctIp {
                    encoder: m.encoder,
                    engine: mdct_engine(),
                    frames: p.frames,
                    processed: 0,
                }),
            )
            .with_ip(
                m.encoder,
                Box::new(EncoderIp {
                    reservoir: m.reservoir,
                    bits_per_frame: p.bits_per_frame,
                    frames: p.frames,
                    pending_weights: Default::default(),
                    pending_coeffs: Default::default(),
                    encoded: 0,
                }),
            )
            .with_ip(
                m.reservoir,
                Box::new(ReservoirIp {
                    output: m.output,
                    reservoir: BitReservoir::new(p.reservoir_capacity),
                    nominal_bits: p.bits_per_frame,
                    frames: p.frames,
                    processed: 0,
                }),
            )
            .with_ip(
                m.output,
                Box::new(OutputIp {
                    frames: p.frames,
                    state: Rc::clone(&state),
                }),
            );
        let mut sim = builder.build();
        let report = sim.run();
        let state = state.borrow();
        let output_bits: u64 = state.frame_bits.iter().flatten().map(|&b| b as u64).sum();
        Mp3Outcome {
            completed: state.delivered == p.frames,
            completion_round: state.completion_round,
            frames_delivered: state.delivered,
            frames_requested: p.frames,
            output_bits,
            arrival_rounds: state.arrival_rounds.clone(),
            frame_bits: state.frame_bits.clone(),
            granules: state.granules.clone(),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(frames: u32) -> Mp3Params {
        Mp3Params {
            frames,
            ..Mp3Params::default()
        }
    }

    #[test]
    fn fault_free_pipeline_encodes_everything() {
        let outcome = Mp3App::new(quick_params(12)).run();
        assert!(outcome.completed, "delivered {}", outcome.frames_delivered);
        assert_eq!(outcome.frames_delivered, 12);
        assert!(outcome.output_bits > 0);
        assert!(outcome.frame_bits.iter().all(|b| b.is_some()));
    }

    #[test]
    fn delivered_bitstream_decodes_into_coefficients() {
        let outcome = Mp3App::new(quick_params(6)).run();
        assert!(outcome.completed);
        for frame in 0..6 {
            let coeffs = outcome
                .decode_granule(frame)
                .unwrap_or_else(|| panic!("granule {frame} must decode"));
            assert_eq!(coeffs.len(), FRAME_SAMPLES);
            assert!(coeffs.iter().all(|c| c.is_finite()));
        }
        // Non-silent programme material quantizes to non-zero spectra.
        let any_energy =
            (0..6).any(|f| outcome.decode_granule(f).unwrap().iter().any(|&c| c != 0.0));
        assert!(any_energy, "decoded granules are all silence");
    }

    #[test]
    fn frames_arrive_in_bounded_bits() {
        let params = quick_params(10);
        let budget = params.bits_per_frame + params.reservoir_capacity;
        let outcome = Mp3App::new(params).run();
        for bits in outcome.frame_bits.iter().flatten() {
            assert!(
                (*bits as usize) <= budget,
                "frame exceeded budget+reservoir: {bits}"
            );
        }
    }

    #[test]
    fn bitrate_is_sustained_fault_free() {
        let outcome = Mp3App::new(quick_params(16)).run();
        let rate = outcome.bitrate_per_round().expect("two or more frames");
        assert!(rate > 0.0);
        // One frame every 2 rounds at ~bits_per_frame bits each: the rate
        // should be within a factor of a few of bits_per_frame/interval.
        assert!(rate < 400.0 * 4.0, "rate {rate}");
    }

    #[test]
    fn jitter_is_low_without_faults() {
        // Under deterministic flooding the pipeline latency per frame is
        // constant, so inter-arrival gaps equal the source pacing exactly.
        let params = Mp3Params {
            config: StochasticConfig::flooding(16).with_max_rounds(600),
            ..quick_params(16)
        };
        let outcome = Mp3App::new(params).run();
        let jitter = outcome.jitter().expect("enough frames");
        assert!(jitter < 0.5, "fault-free flooding jitter {jitter}");
    }

    #[test]
    fn sync_errors_increase_jitter_but_not_loss() {
        // Compare under flooding so the only jitter source is the clocks.
        let flood = |sigma: f64| Mp3Params {
            fault_model: FaultModel::builder().sigma_synch(sigma).build().unwrap(),
            config: StochasticConfig::flooding(16).with_max_rounds(800),
            seed: 3,
            ..quick_params(16)
        };
        let base = Mp3App::new(flood(0.0)).run();
        let noisy = Mp3App::new(flood(0.45)).run();
        assert!(noisy.completed, "sync errors must not lose frames");
        assert!(
            noisy.jitter().unwrap() > base.jitter().unwrap(),
            "noisy {} vs base {}",
            noisy.jitter().unwrap(),
            base.jitter().unwrap()
        );
    }

    #[test]
    fn moderate_overflow_is_survivable() {
        let params = Mp3Params {
            fault_model: FaultModel::builder().p_overflow(0.4).build().unwrap(),
            config: StochasticConfig::new(0.75, 20)
                .unwrap()
                .with_max_rounds(900),
            seed: 7,
            ..quick_params(10)
        };
        let outcome = Mp3App::new(params).run();
        assert!(
            outcome.frames_delivered >= 9,
            "40% overflow delivered only {}",
            outcome.frames_delivered
        );
    }

    #[test]
    fn extreme_overflow_kills_the_encode() {
        let params = Mp3Params {
            fault_model: FaultModel::builder().p_overflow(0.97).build().unwrap(),
            config: StochasticConfig::default().with_max_rounds(200),
            seed: 9,
            ..quick_params(10)
        };
        let outcome = Mp3App::new(params).run();
        assert!(!outcome.completed, "97% overflow should prevent completion");
    }

    #[test]
    fn upsets_slow_but_rarely_stop_the_encode() {
        let params = Mp3Params {
            fault_model: FaultModel::builder().p_upset(0.4).build().unwrap(),
            config: StochasticConfig::new(0.75, 24)
                .unwrap()
                .with_max_rounds(1200),
            seed: 11,
            ..quick_params(8)
        };
        let clean_params = Mp3Params {
            config: StochasticConfig::new(0.75, 24)
                .unwrap()
                .with_max_rounds(1200),
            seed: 11,
            ..quick_params(8)
        };
        let noisy = Mp3App::new(params).run();
        let clean = Mp3App::new(clean_params).run();
        assert!(noisy.completed, "40% upsets should be survivable");
        assert!(
            noisy.completion_round.unwrap() >= clean.completion_round.unwrap(),
            "upsets cannot speed things up"
        );
    }

    #[test]
    fn crashed_pipeline_stage_is_fatal() {
        // Unlike fabric tiles, the pipeline stages are single points of
        // computation: killing the encoder mid-run stops the encode (the
        // paper: "the applications will fail completely because too many
        // important modules are not working").
        let mapping = Mp3Mapping::default_on_grid(4);
        let mut schedule = CrashSchedule::new();
        schedule.kill_tile(mapping.encoder.index(), 10);
        let params = Mp3Params {
            crash_schedule: schedule,
            config: StochasticConfig::default().with_max_rounds(200),
            ..quick_params(12)
        };
        let outcome = Mp3App::new(params).run();
        assert!(!outcome.completed);
        assert!(
            outcome.frames_delivered < 12,
            "a dead encoder cannot deliver everything"
        );
    }

    #[test]
    fn crashed_relay_tile_is_survivable() {
        // A dead tile that hosts no pipeline stage only removes gossip
        // paths; the encode still completes.
        let mapping = Mp3Mapping::default_on_grid(4);
        let stage_tiles = mapping.tiles();
        let relay = (0..16)
            .map(NodeId)
            .find(|n| !stage_tiles.contains(n))
            .expect("a free tile exists");
        let mut schedule = CrashSchedule::new();
        schedule.kill_tile(relay.index(), 0);
        let params = Mp3Params {
            crash_schedule: schedule,
            config: StochasticConfig::new(0.7, 20).unwrap().with_max_rounds(600),
            seed: 5,
            ..quick_params(10)
        };
        let outcome = Mp3App::new(params).run();
        assert!(outcome.completed, "gossip routes around a dead relay");
    }

    #[test]
    fn mapping_tiles_are_distinct() {
        let mapping = Mp3Mapping::default_on_grid(4);
        let mut tiles = mapping.tiles().to_vec();
        tiles.sort();
        tiles.dedup();
        assert_eq!(tiles.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least a 3x3")]
    fn tiny_grid_rejected() {
        let _ = Mp3Mapping::default_on_grid(2);
    }
}
