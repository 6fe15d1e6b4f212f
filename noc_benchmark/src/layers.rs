//! Fixed-input layer microbenches, run only in the traced mode.
//!
//! Each times calls into one layer's public functions on inputs that do
//! not depend on the workload, so the same row compares across workloads
//! and commits. A microbench multiplied by the layer's event count from
//! the [`stochastic_noc::CounterSink`] bounds what speeding that layer
//! up can save before anyone writes the optimisation.

use std::hint::black_box;
use std::sync::Arc;

use noc_apps::mp3::{Mp3App, Mp3Params};
use noc_crc::{BitwiseCrc, CrcAlgorithm, CrcParams, PacketCodec, TableCrc};
use noc_dsp::{fft, mdct, Complex64};
use noc_fabric::{Message, MessageId, NodeId, Topology, WireCodec};
use noc_faults::FaultInjector;
use noc_obs::Stopwatch;
use stochastic_noc::{SendBuffer, StochasticConfig};

use crate::metrics::{median, Values};
use crate::workloads::faulty_model;

/// Batches per microbench; the reported cost is the median batch.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of host nanoseconds per operation.
/// Each batch is `run` on a fresh `prepare()`d input and performs `ops`
/// operations; preparing the input and dropping the output are not
/// timed.
fn ns_per_op<T, R>(ops: u64, mut prepare: impl FnMut() -> T, mut run: impl FnMut(T) -> R) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let sw = Stopwatch::start();
            let output = run(input);
            let nanos = sw.elapsed_nanos();
            drop(output);
            nanos as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// [`ns_per_op`] for a batch that needs no prepared input.
fn ns_per_call(ops: u64, mut batch: impl FnMut()) -> f64 {
    ns_per_op(ops, || (), |()| batch())
}

/// A message whose default-codec frame is exactly 32 bytes.
fn frame32_message(id: u64) -> Message {
    Message::new(MessageId(id), NodeId(5), NodeId(11), 12, vec![0x5A; 15])
}

/// Runs every microbench and records its metric in `values`.
pub fn measure(values: &mut Values, seed: u64) {
    crc(values);
    fabric(values);
    faults(values, seed);
    send_buffer(values);
    apps_and_dsp(values, seed);
}

fn crc(values: &mut Values) {
    const BYTES: usize = 1024;
    let data = vec![0xA5u8; BYTES];
    let table = TableCrc::new(CrcParams::CRC16_CCITT);
    values.insert(
        "crc.table_ns_per_byte",
        ns_per_call(200 * BYTES as u64, || {
            for _ in 0..200 {
                black_box(table.checksum(black_box(&data)));
            }
        }),
    );
    let bitwise = BitwiseCrc::new(CrcParams::CRC16_CCITT);
    values.insert(
        "crc.bitwise_ns_per_byte",
        ns_per_call(40 * BYTES as u64, || {
            for _ in 0..40 {
                black_box(bitwise.checksum(black_box(&data)));
            }
        }),
    );
    let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
    let frame = codec.encode(&[0x5A; 30]);
    assert_eq!(frame.len(), 32);
    values.insert(
        "crc.codec_verify_ns",
        ns_per_call(20_000, || {
            for _ in 0..20_000 {
                black_box(codec.verify(black_box(&frame)));
            }
        }),
    );
}

fn fabric(values: &mut Values) {
    const OPS: u64 = 20_000;
    let codec = WireCodec::default();
    let message = frame32_message(7);
    let frame = codec.encode(&message);
    assert_eq!(frame.len(), 32);
    values.insert(
        "fabric.codec_encode_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(codec.encode(black_box(&message)));
            }
        }),
    );
    values.insert(
        "fabric.codec_peek_id_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(codec.peek_id(black_box(&frame)));
            }
        }),
    );
    values.insert(
        "fabric.codec_decode_view_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(codec.decode_view(black_box(&frame)).is_ok());
            }
        }),
    );
    values.insert(
        "fabric.codec_decode_trusted_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(codec.decode_view_trusted(black_box(&frame)).is_ok());
            }
        }),
    );
    const SIDE: usize = 64;
    values.insert(
        "fabric.grid_build_ns_per_tile",
        ns_per_call((SIDE * SIDE) as u64, || {
            black_box(Topology::grid(black_box(SIDE), SIDE));
        }),
    );
}

fn faults(values: &mut Values, seed: u64) {
    const OPS: u64 = 50_000;
    let mut injector = FaultInjector::new(faulty_model(), seed);
    values.insert(
        "faults.upset_draw_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(injector.upset_occurs());
            }
        }),
    );
    values.insert(
        "faults.overflow_draw_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(injector.overflow_drop());
            }
        }),
    );
    values.insert(
        "faults.skew_draw_ns",
        ns_per_call(OPS, || {
            for _ in 0..OPS {
                black_box(injector.round_skew());
            }
        }),
    );
    let clean: Arc<[u8]> = WireCodec::default().encode(&frame32_message(7)).into();
    values.insert(
        "faults.scramble_shared_ns",
        ns_per_call(10_000, || {
            for _ in 0..10_000 {
                // A fresh handle each time: the engine scrambles a frame
                // it shares with the transmission's other copies.
                let mut shared = Arc::clone(&clean);
                injector.scramble_shared(&mut shared);
                black_box(shared);
            }
        }),
    );
}

fn send_buffer(values: &mut Values) {
    const OPS: usize = 20_000;
    /// Ids a tile has already seen in the insert-hit microbench.
    const KNOWN: u64 = 32;
    let payload: Arc<[u8]> = vec![0x5A; 8].into();
    let message = |id: u64| Message::new(MessageId(id), NodeId(0), NodeId(1), 255, payload.clone());

    values.insert(
        "send_buffer.insert_miss_ns",
        ns_per_op(
            OPS as u64,
            || (0..OPS as u64).map(message).collect::<Vec<Message>>(),
            |fresh| {
                let mut buffer = SendBuffer::new();
                for m in fresh {
                    black_box(buffer.insert_checked(m));
                }
                buffer
            },
        ),
    );
    let mut seen = SendBuffer::new();
    for id in 0..KNOWN {
        seen.insert(message(id));
    }
    values.insert(
        "send_buffer.insert_hit_ns",
        ns_per_op(
            OPS as u64,
            || {
                (0..OPS as u64)
                    .map(|i| message(i % KNOWN))
                    .collect::<Vec<Message>>()
            },
            |repeats| {
                for m in repeats {
                    black_box(seen.insert_checked(m));
                }
            },
        ),
    );
    const LIVE: u64 = 64;
    const AGES: u64 = 200;
    values.insert(
        "send_buffer.age_ns_per_msg",
        ns_per_op(
            LIVE * AGES,
            || {
                let mut buffer = SendBuffer::new();
                for id in 0..LIVE {
                    buffer.insert(message(id));
                }
                buffer
            },
            |mut buffer| {
                // TTL 255 outlives the 200 agings, so every call walks
                // all 64 live messages and expires none.
                for _ in 0..AGES {
                    buffer.age();
                }
                buffer
            },
        ),
    );
}

fn apps_and_dsp(values: &mut Values, seed: u64) {
    values.insert(
        "apps.mp3_run_ms",
        ns_per_call(1, || {
            let params = Mp3Params {
                config: StochasticConfig::flooding(16).with_max_rounds(600),
                seed,
                ..Mp3Params::default()
            };
            black_box(Mp3App::new(params).run().frames_delivered);
        }) * 1e-6,
    );
    let signal: Vec<Complex64> = (0..1024)
        .map(|n| Complex64::new((f64::from(n) * 0.1).sin(), 0.0))
        .collect();
    values.insert(
        "dsp.fft1024_us",
        ns_per_call(20, || {
            for _ in 0..20 {
                let mut data = signal.clone();
                fft(black_box(&mut data));
                black_box(data);
            }
        }) * 1e-3,
    );
    let window: Vec<f64> = (0..128).map(|n| (f64::from(n) * 0.1).sin()).collect();
    values.insert(
        "dsp.mdct_us",
        ns_per_call(50, || {
            for _ in 0..50 {
                black_box(mdct(black_box(&window)));
            }
        }) * 1e-3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_microbench_reports_a_positive_cost_under_a_listed_name() {
        let mut values = Values::new();
        measure(&mut values, 2003);
        let mut measured = 0;
        for metric in PER_LAYER {
            if let Some(&value) = values.get(metric.name) {
                assert!(
                    value > 0.0 && value.is_finite(),
                    "{} = {value}",
                    metric.name
                );
                measured += 1;
            }
        }
        assert_eq!(measured, 18);
    }
}
