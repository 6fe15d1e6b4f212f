//! Phase 1, receive, on one shard: the frames due this round arrive at
//! their tiles, overflow drops some, the CRC rejects caught upsets, and
//! each first sighting of an id joins the tile's send buffer and its
//! message's audience, delivering where the tile is the destination.

use noc_fabric::NodeId;
use noc_faults::{FaultInjector, OverflowMode};

use super::{Fabric, Flight, MappedIp, Plan, Run, Spread};
use crate::events::{DropSite, EventSink, SimEvent};
use crate::metrics::SimulationReport;
use crate::wire::Frame;

impl Spread {
    /// Receives the round's grouped arrivals over the arrival frontier
    /// in ascending tile order: the visit, and therefore RNG draw,
    /// sequence of a full `0..n` scan. Returns the round's deliveries.
    pub(super) fn receive<S: EventSink>(
        &mut self,
        fabric: &Fabric,
        plan: &Plan,
        flight: &mut Flight,
        report: &mut SimulationReport,
        sink: &mut S,
        run: &mut Run,
    ) -> u64 {
        let round = run.round;
        let mut deliveries = 0;
        for (tile, frames) in flight.arrivals.grouped.tiles_mut() {
            let node = NodeId(tile);
            if !fabric.tile_up(tile, round) {
                report.crash_drops += frames.len() as u64;
                for _ in 0..frames.len() {
                    sink.emit(SimEvent::CrashDrop {
                        round,
                        site: DropSite::Tile(node),
                    });
                }
                continue;
            }
            let duplicate = |message| SimEvent::DuplicateDrop {
                round,
                tile: node,
                message,
            };
            let injector = &mut flight.injector;
            for &frame in apply_overflow_in_place(injector, report, sink, round, node, frames) {
                let entry = flight.wires.entry(frame.wire);
                let held = match entry.held() {
                    // An upset copy is rejected here unless the CRC
                    // missed it (a caught one without a look at bytes
                    // it never built); a missed one took the real CRC
                    // check when it was made, so the residual
                    // undetected-error rate is faithfully possible.
                    None => match entry.upset_view() {
                        Some(view) => {
                            let id = view.id();
                            if self.terminated.contains(&id) {
                                // Spread already terminated.
                                sink.emit(duplicate(id));
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
                            if self.audience.contains(id, tile) {
                                // Duplicate: insertion is a no-op.
                                sink.emit(duplicate(id));
                                continue;
                            }
                            view.clone()
                        }
                        // Caught, or missed by the CRC but with a body
                        // that does not parse: counted as detected.
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
                        if self.audience.contains(id, tile) || self.terminated.contains(&id) {
                            sink.emit(duplicate(id));
                            continue;
                        }
                        // First sighting: shares the body.
                        held.clone()
                    }
                };
                let body = &*held.body;
                let id = body.id;
                self.audience.insert(id, tile);
                if body.destination == node {
                    if report.record_delivery(id, round) {
                        sink.emit(SimEvent::Delivery {
                            round,
                            tile: node,
                            message: id,
                            source: body.source,
                        });
                    }
                    deliveries += 1;
                    MappedIp::stage(&mut run.mapped_ips, tile, body.source, &body.payload);
                    if plan.config.terminate_on_delivery && self.terminated.insert(id) {
                        self.pending_purge.push(id);
                    }
                }
                if !self.buffer(tile, held) {
                    // The id is consumed and the tile counted an expiry:
                    // the event stream must agree.
                    sink.emit(SimEvent::TtlExpiry {
                        round,
                        tile: node,
                        message: id,
                    });
                }
            }
        }
        deliveries
    }
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
