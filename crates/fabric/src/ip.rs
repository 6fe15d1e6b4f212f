//! The IP-core interface: the computation side of the
//! computation/communication separation.
//!
//! An [`IpCore`] never sees links, rounds budgets or gossip decisions — it
//! only receives payloads addressed to its tile and emits payloads
//! addressed to other tiles. The network logic (the stochastic
//! communication engine) is entirely transparent to it, which is exactly
//! the separation the paper advertises.

use crate::node::NodeId;

/// Per-round interaction surface handed to an [`IpCore`].
///
/// Collects the messages the IP wants to send this round; the engine
/// injects them into the tile's send buffer with fresh message ids.
#[derive(Debug)]
pub struct IpContext {
    node: NodeId,
    round: u64,
    outbox: Vec<(NodeId, Vec<u8>)>,
}

impl IpContext {
    /// Creates a context for `node` at `round` (engine-side constructor).
    pub fn new(node: NodeId, round: u64) -> Self {
        Self {
            node,
            round,
            outbox: Vec::new(),
        }
    }

    /// The tile this IP is mapped to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current gossip round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queues `payload` for delivery to the IP on tile `to`.
    ///
    /// The sender does not need to know where `to` is or how to route to
    /// it — the gossip spread handles that.
    pub fn send(&mut self, to: NodeId, payload: Vec<u8>) {
        self.outbox.push((to, payload));
    }

    /// Drains the queued sends (engine-side).
    pub fn take_outbox(&mut self) -> Vec<(NodeId, Vec<u8>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Number of sends queued so far this round.
    pub fn pending_sends(&self) -> usize {
        self.outbox.len()
    }
}

/// An application IP core mapped onto one tile.
///
/// Implementations are driven by the simulation engine:
///
/// 1. [`IpCore::on_start`] once before round 0;
/// 2. each round, [`IpCore::on_message`] for every payload delivered to
///    this tile (each logical message at most once), then
///    [`IpCore::on_round`];
/// 3. the engine may stop early once every IP reports
///    [`IpCore::is_done`].
///
/// # Examples
///
/// A producer that sends one greeting and a consumer that waits for it:
///
/// ```
/// use noc_fabric::{IpContext, IpCore, NodeId};
///
/// struct Producer { to: NodeId }
/// impl IpCore for Producer {
///     fn on_start(&mut self, ctx: &mut IpContext) {
///         ctx.send(self.to, b"hello".to_vec());
///     }
///     fn is_done(&self) -> bool { true }
/// }
///
/// struct Consumer { got: bool }
/// impl IpCore for Consumer {
///     fn on_message(&mut self, _ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
///         self.got = payload == b"hello";
///     }
///     fn is_done(&self) -> bool { self.got }
/// }
/// ```
pub trait IpCore {
    /// Called once, before the first round. Typical producers inject their
    /// initial messages here.
    fn on_start(&mut self, _ctx: &mut IpContext) {}

    /// Called for each logical message delivered to this tile (exactly
    /// once per message id, after CRC filtering and deduplication).
    fn on_message(&mut self, _ctx: &mut IpContext, _from: NodeId, _payload: &[u8]) {}

    /// Called once per round after all of this round's deliveries.
    fn on_round(&mut self, _ctx: &mut IpContext) {}

    /// True when this IP has finished its part of the application.
    /// IPs that never finish (e.g. sinks) may keep the default `false`;
    /// engines then rely on their round budget.
    fn is_done(&self) -> bool {
        false
    }

    /// Diagnostic name shown in traces.
    fn name(&self) -> &str {
        "ip"
    }
}

/// An IP that does nothing and is done from the start: a tile that runs
/// it behaves as an unmapped one, which still takes part in gossip
/// forwarding.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullIp;

impl IpCore for NullIp {
    fn is_done(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_sends() {
        let mut ctx = IpContext::new(NodeId(3), 7);
        assert_eq!(ctx.node(), NodeId(3));
        assert_eq!(ctx.round(), 7);
        ctx.send(NodeId(1), vec![1]);
        ctx.send(NodeId(2), vec![2, 2]);
        assert_eq!(ctx.pending_sends(), 2);
        let out = ctx.take_outbox();
        assert_eq!(out, vec![(NodeId(1), vec![1]), (NodeId(2), vec![2, 2])]);
        assert_eq!(ctx.pending_sends(), 0);
    }

    #[test]
    fn null_ip_is_always_done() {
        let ip = NullIp;
        assert!(ip.is_done());
        assert_eq!(ip.name(), "null");
    }

    #[test]
    fn default_trait_methods_are_callable() {
        struct Passive;
        impl IpCore for Passive {}
        let mut p = Passive;
        let mut ctx = IpContext::new(NodeId(0), 0);
        p.on_start(&mut ctx);
        p.on_message(&mut ctx, NodeId(1), &[1, 2]);
        p.on_round(&mut ctx);
        assert!(!p.is_done());
        assert_eq!(p.name(), "ip");
        assert_eq!(ctx.pending_sends(), 0);
    }

    #[test]
    fn trait_objects_work() {
        let ips: Vec<Box<dyn IpCore>> = vec![Box::new(NullIp), Box::new(NullIp)];
        assert!(ips.iter().all(|ip| ip.is_done()));
    }
}
