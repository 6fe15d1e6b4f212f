//! The on-wire packet format: header + payload + CRC tag.
//!
//! A [`Message`] is the logical unit the gossip protocol spreads; the
//! [`WireCodec`] frames it into bytes protected by a CRC tag, exactly the
//! encode/check path of the tile hardware in Figure 3-5. Upsets scramble
//! the framed bytes; the receive path really recomputes the CRC, so
//! undetected-error leakage is faithfully possible (at the CRC's residual
//! error rate) rather than assumed away.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use noc_crc::{CrcParams, DecodeError, PacketCodec};
use noc_energy::Bits;

use crate::node::NodeId;

/// Globally unique identity of a logical message.
///
/// The send-buffer deduplication of the gossip algorithm ("if a message is
/// already present, a duplicate message will not be inserted") keys on this
/// id, as does exactly-once delivery to the destination IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A logical message travelling through the NoC.
///
/// # Examples
///
/// ```
/// use noc_fabric::{Message, MessageId, NodeId};
///
/// let m = Message::new(MessageId(1), NodeId(5), NodeId(11), 12, vec![1, 2, 3]);
/// assert_eq!(m.ttl, 12);
/// assert!(!m.expired());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique message identity (assigned at injection).
    pub id: MessageId,
    /// Originating tile.
    pub source: NodeId,
    /// Destination tile ("every IP selects only those messages whose
    /// destination field equals the ID of the tile").
    pub destination: NodeId,
    /// Remaining time-to-live in hops; decremented once per round, the
    /// message is garbage-collected at zero.
    pub ttl: u8,
    /// Application payload bytes, shared by reference between the copies a
    /// simulation holds (send-buffer entries, deliveries, wire entries), so
    /// gossip fan-out never duplicates the bytes.
    pub payload: Arc<[u8]>,
}

impl Message {
    /// Creates a message. Accepts anything convertible into shared bytes
    /// (`Vec<u8>`, `&[u8]`, `Arc<[u8]>`, …).
    pub fn new(
        id: MessageId,
        source: NodeId,
        destination: NodeId,
        ttl: u8,
        payload: impl Into<Arc<[u8]>>,
    ) -> Self {
        Self {
            id,
            source,
            destination,
            ttl,
            payload: payload.into(),
        }
    }

    /// True once the TTL has reached zero.
    pub fn expired(&self) -> bool {
        self.ttl == 0
    }
}

/// Fixed header size on the wire: id (8) + source (2) + destination (2) +
/// ttl (1) + payload length (2).
pub const HEADER_BYTES: usize = 8 + 2 + 2 + 1 + 2;

/// Largest payload the header's 16-bit length field can declare.
pub const MAX_PAYLOAD_BYTES: usize = u16::MAX as usize;

/// Most tiles the header's 16-bit source and destination fields can
/// address (indices `0..MAX_NODES`).
pub const MAX_NODES: usize = u16::MAX as usize + 1;

/// A parsed packet borrowing its payload from the frame it was decoded
/// from — the zero-copy result of [`WireCodec::decode_view`].
///
/// Receive paths that only inspect the header (duplicate suppression,
/// destination match) never touch the payload bytes; call
/// [`MessageView::to_message`] only when the message is actually retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageView<'a> {
    /// Unique message identity.
    pub id: MessageId,
    /// Originating tile.
    pub source: NodeId,
    /// Destination tile.
    pub destination: NodeId,
    /// Remaining time-to-live carried on the wire.
    pub ttl: u8,
    /// Payload bytes, borrowed from the decoded frame.
    pub payload: &'a [u8],
}

impl MessageView<'_> {
    /// Materializes an owned [`Message`], allocating shared payload bytes.
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id,
            source: self.source,
            destination: self.destination,
            ttl: self.ttl,
            payload: Arc::from(self.payload),
        }
    }
}

/// Error returned when a received frame cannot be parsed back into a
/// [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePacketError {
    /// CRC verification failed — the packet suffered a data upset and must
    /// be discarded (the common case under fault injection).
    Crc(DecodeError),
    /// The frame's CRC was consistent but the header is malformed (an
    /// undetected upset produced garbage, or the frame was truncated).
    MalformedHeader {
        /// Length of the decoded (tag-stripped) frame.
        len: usize,
    },
    /// The header's payload length disagrees with the frame length.
    LengthMismatch {
        /// Payload length the header claims.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for ParsePacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePacketError::Crc(e) => write!(f, "crc check failed: {e}"),
            ParsePacketError::MalformedHeader { len } => {
                write!(f, "frame of {len} bytes cannot hold a packet header")
            }
            ParsePacketError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "header declares {declared} payload bytes, frame has {actual}"
                )
            }
        }
    }
}

impl Error for ParsePacketError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParsePacketError::Crc(e) => Some(e),
            _ => None,
        }
    }
}

/// Frames [`Message`]s into CRC-protected wire packets and back.
///
/// # Examples
///
/// ```
/// use noc_fabric::{Message, MessageId, NodeId, WireCodec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let codec = WireCodec::default();
/// let m = Message::new(MessageId(9), NodeId(0), NodeId(3), 8, b"fft row".to_vec());
/// let frame = codec.encode(&m);
/// let back = codec.decode(&frame)?;
/// assert_eq!(back, m);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WireCodec {
    codec: PacketCodec,
}

impl Default for WireCodec {
    /// CRC-16/CCITT protection, the library default. Its CRC tables are
    /// built once per process and shared by every default codec: each
    /// simulation holds one, and a sweep builds thousands.
    fn default() -> Self {
        static TEMPLATE: OnceLock<WireCodec> = OnceLock::new();
        TEMPLATE
            .get_or_init(|| Self::new(CrcParams::CRC16_CCITT))
            .clone()
    }
}

impl WireCodec {
    /// Creates a codec with the given CRC parameter set.
    pub fn new(params: CrcParams) -> Self {
        Self {
            codec: PacketCodec::new(params),
        }
    }

    /// Size on the wire of a message with `payload_len` payload bytes.
    pub fn frame_bytes(&self, payload_len: usize) -> usize {
        HEADER_BYTES + payload_len + self.codec.overhead_bytes()
    }

    /// Size on the wire, in bits (the `S` of Equations 2 and 3).
    pub fn frame_bits(&self, payload_len: usize) -> Bits {
        Bits::from_bytes(self.frame_bytes(payload_len) as u64)
    }

    /// Frames a message.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes or either node index
    /// exceeds `u16::MAX` (the wire format's field widths).
    pub fn encode(&self, message: &Message) -> Vec<u8> {
        let mut frame = Vec::with_capacity(self.frame_bytes(message.payload.len()));
        self.encode_into(message, &mut frame);
        frame
    }

    /// Frames a message by appending the wire bytes to `out`, so callers
    /// encoding every round can reuse one scratch buffer instead of
    /// allocating per packet. Same panics as [`WireCodec::encode`].
    pub fn encode_into(&self, message: &Message, out: &mut Vec<u8>) {
        assert!(
            message.payload.len() <= MAX_PAYLOAD_BYTES,
            "payload too large for wire format"
        );
        assert!(
            message.source.index() < MAX_NODES && message.destination.index() < MAX_NODES,
            "node index too large for wire format"
        );
        let body_start = out.len();
        out.extend_from_slice(&message.id.0.to_be_bytes());
        out.extend_from_slice(&(message.source.index() as u16).to_be_bytes());
        out.extend_from_slice(&(message.destination.index() as u16).to_be_bytes());
        out.push(message.ttl);
        out.extend_from_slice(&(message.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&message.payload);
        self.codec.append_tag(out, body_start);
    }

    /// Verifies the CRC and parses the frame back into a message.
    ///
    /// # Errors
    ///
    /// [`ParsePacketError::Crc`] if the tag check fails (a detected upset);
    /// [`ParsePacketError::MalformedHeader`] or
    /// [`ParsePacketError::LengthMismatch`] if a frame with a consistent
    /// tag does not carry a well-formed packet.
    pub fn decode(&self, frame: &[u8]) -> Result<Message, ParsePacketError> {
        self.decode_view(frame).map(|view| view.to_message())
    }

    /// Verifies the CRC and parses the frame into a borrowed
    /// [`MessageView`] without copying the payload. Same errors as
    /// [`WireCodec::decode`].
    ///
    /// # Errors
    ///
    /// See [`WireCodec::decode`].
    pub fn decode_view<'a>(&self, frame: &'a [u8]) -> Result<MessageView<'a>, ParsePacketError> {
        let body = self.codec.decode(frame).map_err(ParsePacketError::Crc)?;
        parse_body(body)
    }

    /// Whether XORing `error` onto any frame this codec encoded fails its
    /// CRC check: [`PacketCodec::catches`]. A caught upset is rejected by
    /// [`WireCodec::decode_view`] whatever the frame, so a receiver need
    /// not build the upset bytes to know it.
    ///
    /// # Panics
    ///
    /// Panics if `error` is shorter than the CRC tag.
    #[inline]
    pub fn catches(&self, error: &[u8]) -> bool {
        self.codec.catches(error)
    }

    /// Parses a frame *known to be exactly as this codec encoded it* —
    /// e.g. one that never left the simulator's control unscrambled —
    /// without recomputing the CRC: the tag is correct by construction.
    /// Debug builds still verify it. Frames that may have been corrupted
    /// must take [`WireCodec::decode_view`] instead.
    ///
    /// # Errors
    ///
    /// Same header errors as [`WireCodec::decode_view`]; unreachable for
    /// genuinely self-encoded frames.
    pub fn decode_view_trusted<'a>(
        &self,
        frame: &'a [u8],
    ) -> Result<MessageView<'a>, ParsePacketError> {
        let tag = self.codec.overhead_bytes();
        if frame.len() < tag {
            return Err(ParsePacketError::MalformedHeader { len: frame.len() });
        }
        debug_assert!(
            self.codec.verify(frame),
            "decode_view_trusted on a frame with an inconsistent crc"
        );
        parse_body(&frame[..frame.len() - tag])
    }

    /// Reads the message id at its fixed header offset without verifying
    /// the CRC or parsing the rest of the frame. Returns `None` for
    /// frames too short to be a packet.
    ///
    /// Duplicate suppression on trusted (never-scrambled) frames needs
    /// only this: most arrivals in a flood are copies of an
    /// already-buffered message, and they can be rejected on the id alone.
    pub fn peek_id(&self, frame: &[u8]) -> Option<MessageId> {
        if frame.len() < HEADER_BYTES + self.codec.overhead_bytes() {
            return None;
        }
        Some(MessageId(u64::from_be_bytes(
            frame[0..8].try_into().expect("8 bytes"),
        )))
    }
}

/// Parses a tag-stripped packet body into a borrowed view.
fn parse_body(body: &[u8]) -> Result<MessageView<'_>, ParsePacketError> {
    if body.len() < HEADER_BYTES {
        return Err(ParsePacketError::MalformedHeader { len: body.len() });
    }
    let id = MessageId(u64::from_be_bytes(body[0..8].try_into().expect("8 bytes")));
    let source = NodeId(u16::from_be_bytes(body[8..10].try_into().expect("2 bytes")) as usize);
    let destination =
        NodeId(u16::from_be_bytes(body[10..12].try_into().expect("2 bytes")) as usize);
    let ttl = body[12];
    let declared = u16::from_be_bytes(body[13..15].try_into().expect("2 bytes")) as usize;
    let payload = &body[HEADER_BYTES..];
    if declared != payload.len() {
        return Err(ParsePacketError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    Ok(MessageView {
        id,
        source,
        destination,
        ttl,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(payload: Vec<u8>) -> Message {
        Message::new(MessageId(77), NodeId(3), NodeId(14), 10, payload)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let codec = WireCodec::default();
        let m = msg(vec![9, 8, 7, 6]);
        assert_eq!(codec.decode(&codec.encode(&m)).unwrap(), m);
    }

    #[test]
    fn empty_payload_round_trips() {
        let codec = WireCodec::default();
        let m = msg(vec![]);
        assert_eq!(codec.decode(&codec.encode(&m)).unwrap(), m);
    }

    #[test]
    fn frame_size_accounting() {
        let codec = WireCodec::default();
        let m = msg(vec![0; 32]);
        let frame = codec.encode(&m);
        assert_eq!(frame.len(), codec.frame_bytes(32));
        assert_eq!(codec.frame_bits(32).bits(), (frame.len() * 8) as u64);
    }

    #[test]
    fn encode_into_matches_encode() {
        let codec = WireCodec::default();
        let mut scratch = Vec::new();
        for m in [msg(vec![]), msg(vec![1]), msg(vec![0xAA; 50])] {
            scratch.clear();
            codec.encode_into(&m, &mut scratch);
            assert_eq!(scratch, codec.encode(&m));
        }
    }

    #[test]
    fn decode_view_borrows_the_frame_payload() {
        let codec = WireCodec::default();
        let m = msg(b"zero copy".to_vec());
        let frame = codec.encode(&m);
        let view = codec.decode_view(&frame).unwrap();
        assert_eq!(view.id, m.id);
        assert_eq!(view.source, m.source);
        assert_eq!(view.destination, m.destination);
        assert_eq!(view.ttl, m.ttl);
        assert_eq!(view.payload, &m.payload[..]);
        // The view's payload is a sub-slice of the frame, not a copy.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(view.payload.as_ptr() as usize)));
        assert_eq!(view.to_message(), m);
    }

    #[test]
    fn trusted_decode_and_peek_match_full_decode() {
        let codec = WireCodec::default();
        let m = msg(b"fast path".to_vec());
        let frame = codec.encode(&m);
        assert_eq!(codec.peek_id(&frame), Some(m.id));
        assert_eq!(
            codec.decode_view_trusted(&frame).unwrap(),
            codec.decode_view(&frame).unwrap()
        );
        assert_eq!(codec.peek_id(&[0u8; 4]), None, "too short to peek");
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let codec = WireCodec::default();
        let mut frame = codec.encode(&msg(vec![1, 2, 3]));
        frame[5] ^= 0x10;
        match codec.decode(&frame) {
            Err(ParsePacketError::Crc(_)) => {}
            other => panic!("expected crc failure, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let codec = WireCodec::default();
        let frame = codec.encode(&msg(vec![1, 2, 3]));
        // Any truncation must fail (either CRC or header checks).
        for cut in 0..frame.len() {
            assert!(codec.decode(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_display_and_source() {
        let codec = WireCodec::default();
        let mut frame = codec.encode(&msg(vec![1]));
        frame[0] ^= 0xFF;
        let err = codec.decode(&frame).unwrap_err();
        assert!(err.to_string().contains("crc"));
        assert!(std::error::Error::source(&err).is_some());
    }

    proptest! {
        #[test]
        fn arbitrary_messages_round_trip(
            id in any::<u64>(),
            src in 0usize..1000,
            dst in 0usize..1000,
            ttl in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let codec = WireCodec::default();
            let m = Message::new(MessageId(id), NodeId(src), NodeId(dst), ttl, payload);
            prop_assert_eq!(codec.decode(&codec.encode(&m)).unwrap(), m);
        }

        #[test]
        fn random_corruption_never_panics(
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            corrupt in proptest::collection::vec(any::<u8>(), 1..128),
        ) {
            // decode() must be total: any byte soup either parses or errors.
            let codec = WireCodec::default();
            let _ = codec.decode(&corrupt);
            let mut frame = codec.encode(&msg(payload));
            for (i, c) in corrupt.iter().enumerate() {
                if i < frame.len() {
                    frame[i] ^= c;
                }
            }
            let _ = codec.decode(&frame);
        }
    }
}
