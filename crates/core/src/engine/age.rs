//! Phase 3, age, on one shard: the spreads terminated this round are
//! purged, every buffered TTL is decremented, and expired copies go.

use noc_fabric::NodeId;

use super::Spread;
use crate::events::{EventSink, SimEvent};

impl Spread {
    /// Ages every buffer on the frontier, dropping from the frontier the
    /// tiles whose buffer drained.
    pub(super) fn age<S: EventSink>(&mut self, round: u64, sink: &mut S) {
        self.emptied_scratch.clear();
        for tile in self.frontier.iter() {
            let buffer = &mut self.buffers[tile];
            for &id in &self.pending_purge {
                if buffer.remove(id) {
                    self.live_total -= 1;
                }
            }
            let gone = buffer.age_with(|id| {
                sink.emit(SimEvent::TtlExpiry {
                    round,
                    tile: NodeId(tile),
                    message: id,
                });
            }) as u64;
            self.expired[tile] += gone;
            self.live_total -= gone;
            if buffer.is_empty() {
                self.emptied_scratch.push(tile as u32);
            }
        }
        for &tile in &self.emptied_scratch {
            self.frontier.remove(tile as usize);
        }
    }
}
