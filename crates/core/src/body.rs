//! What a message is, held once: the engine's bodies and buffered copies.
//!
//! A tile's send buffer holds one copy of each message it forwards
//! (§3.2.3), and a flood puts a copy of every message at nearly every
//! tile. What the copies of one message share — its id, source,
//! destination and payload — is a [`Body`], allocated once; a copy is a
//! [`Held`]: the body and the TTL that tile holds it at, 16 bytes.
//!
//! **Variants.** Copies made from one injection share its body. An
//! undetected upset can put a variant into circulation under a live id
//! (or under one not yet assigned); the variant is decoded into a body of
//! its own. Two bodies are the same message exactly when they are one
//! allocation or carry equal contents ([`Held::same_body`]), which is
//! what the round's memo asks of two frames with one `(id, ttl)` key.
//!
//! **Checkpoints.** A checkpoint writes each body once, where a copy or a
//! wire entry first names it, and every later copy as the body's number;
//! equal contents get one number, so a restore shares one body between
//! them.
//!
//! **Release.** A body is freed with the last copy, wire entry or replay
//! slot that holds it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use noc_fabric::{Message, MessageId, MessageView, NodeId};

/// A message's id, source, destination and payload: what every copy of
/// it shares.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Body {
    pub(crate) id: MessageId,
    pub(crate) source: NodeId,
    pub(crate) destination: NodeId,
    pub(crate) payload: Arc<[u8]>,
}

/// A buffered copy of a message: the body it shares with every other
/// copy of the same content, and the TTL this copy has left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Held {
    pub(crate) body: Arc<Body>,
    pub(crate) ttl: u8,
}

const _: () = assert!(std::mem::size_of::<Held>() <= 16);
const _: () = assert!(std::mem::size_of::<Option<Held>>() == std::mem::size_of::<Held>());

impl Held {
    /// A copy of a new body.
    pub(crate) fn new(
        id: MessageId,
        source: NodeId,
        destination: NodeId,
        ttl: u8,
        payload: impl Into<Arc<[u8]>>,
    ) -> Self {
        Held {
            body: Arc::new(Body {
                id,
                source,
                destination,
                payload: payload.into(),
            }),
            ttl,
        }
    }

    /// The copy a decoded frame carries, in a body of its own.
    pub(crate) fn from_view(view: &MessageView<'_>) -> Self {
        Held::new(
            view.id,
            view.source,
            view.destination,
            view.ttl,
            view.payload,
        )
    }

    /// The message's id.
    #[inline]
    pub(crate) fn id(&self) -> MessageId {
        self.body.id
    }

    /// Do `self` and `other` carry the same message, whatever their TTLs:
    /// one body, or two with equal contents?
    #[inline]
    pub(crate) fn same_body(&self, other: &Held) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body == other.body
    }

    /// The copy as a whole message, sharing its body's payload bytes.
    pub(crate) fn message(&self) -> Message {
        let body = &*self.body;
        let payload = Arc::clone(&body.payload);
        Message::new(body.id, body.source, body.destination, self.ttl, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_variant_is_another_body_and_equal_contents_are_the_same() {
        let held = Held::new(MessageId(4), NodeId(0), NodeId(3), 7, b"abcd".to_vec());
        let twin = Held::new(MessageId(4), NodeId(0), NodeId(3), 2, b"abcd".to_vec());
        assert!(held.same_body(&held.clone()));
        assert!(held.same_body(&twin), "equal contents, whatever the TTL");
        let variants = [
            Held::new(MessageId(4), NodeId(1), NodeId(3), 7, b"abcd".to_vec()),
            Held::new(MessageId(4), NodeId(0), NodeId(2), 7, b"abcd".to_vec()),
            Held::new(MessageId(4), NodeId(0), NodeId(3), 7, b"abce".to_vec()),
            Held::new(MessageId(5), NodeId(0), NodeId(3), 7, b"abcd".to_vec()),
        ];
        for (k, variant) in variants.iter().enumerate() {
            assert!(!variant.same_body(&held), "variant {k}");
        }
        assert_eq!(
            variants[0].message(),
            Message::new(MessageId(4), NodeId(1), NodeId(3), 7, b"abcd".to_vec())
        );
    }
}
