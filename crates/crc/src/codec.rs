//! Framing payloads with an appended CRC tag, and verifying them.

use std::error::Error;
use std::fmt;

use crate::{CrcAlgorithm, CrcParams, TableCrc};

/// Encodes payloads as `payload || crc` and verifies/strips the tag on
/// receive — the per-tile check of the stochastic communication protocol.
///
/// # Examples
///
/// ```
/// use noc_crc::{CrcParams, PacketCodec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
/// let framed = codec.encode(b"hello tile 12");
/// let payload = codec.decode(&framed)?;
/// assert_eq!(payload, b"hello tile 12");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PacketCodec {
    crc: TableCrc,
}

/// Error returned by [`PacketCodec::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame is shorter than the CRC tag itself.
    TooShort {
        /// Observed frame length in bytes.
        len: usize,
        /// Minimum length (the tag size) in bytes.
        min: usize,
    },
    /// The recomputed CRC did not match the received tag: the packet was
    /// scrambled in flight and must be discarded.
    CrcMismatch {
        /// CRC recomputed over the received payload.
        computed: u64,
        /// CRC tag carried by the frame.
        received: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort { len, min } => {
                write!(f, "frame of {len} bytes shorter than {min}-byte crc tag")
            }
            DecodeError::CrcMismatch { computed, received } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#x}, received {received:#x}"
                )
            }
        }
    }
}

impl Error for DecodeError {}

impl PacketCodec {
    /// Creates a codec using the given CRC parameter set.
    pub fn new(params: CrcParams) -> Self {
        Self {
            crc: TableCrc::new(params),
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &CrcParams {
        self.crc.params()
    }

    /// Number of overhead bytes appended to each payload.
    pub fn overhead_bytes(&self) -> usize {
        self.crc.params().tag_bytes()
    }

    /// Frames `payload`, returning `payload || crc_tag` (big-endian tag).
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + self.overhead_bytes());
        self.encode_into(payload, &mut out);
        out
    }

    /// Appends `payload || crc_tag` to `out` without allocating, so a
    /// caller encoding many packets can reuse one scratch buffer.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(payload);
        self.append_tag(out, start);
    }

    /// Computes the CRC over `frame[body_start..]` and appends the
    /// big-endian tag in place. The body must already be in `frame`; this
    /// is the in-place half of [`PacketCodec::encode`] for callers that
    /// build the packet body directly in a reusable buffer.
    pub fn append_tag(&self, frame: &mut Vec<u8>, body_start: usize) {
        let tag = self.crc.checksum(&frame[body_start..]);
        let n = self.overhead_bytes();
        frame.extend_from_slice(&tag.to_be_bytes()[8 - n..]);
    }

    /// Whether XORing `error` onto any frame this codec tagged makes
    /// [`PacketCodec::decode`] fail, decided from the error vector alone:
    /// the CRC is linear, so the tag check of `frame ⊕ error` fails
    /// exactly when the error's body does not map to the error's tag
    /// bytes under [`TableCrc::linear_checksum`]. The null vector is not
    /// caught.
    ///
    /// # Panics
    ///
    /// Panics if `error` is shorter than the tag (no tagged frame is).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_crc::{CrcParams, PacketCodec};
    ///
    /// let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
    /// let frame = codec.encode(b"gossip");
    /// let mut error = vec![0u8; frame.len()];
    /// error[2] = 0x10;
    /// let upset: Vec<u8> = frame.iter().zip(&error).map(|(f, e)| f ^ e).collect();
    /// assert!(codec.catches(&error));
    /// assert!(codec.decode(&upset).is_err());
    /// ```
    #[inline]
    pub fn catches(&self, error: &[u8]) -> bool {
        let (body, tag) = error.split_at(error.len() - self.overhead_bytes());
        self.crc.linear_checksum(body) != be_word(tag)
    }

    /// Checks whether `frame` carries a consistent CRC tag.
    pub fn verify(&self, frame: &[u8]) -> bool {
        self.decode(frame).is_ok()
    }

    /// Verifies `frame` and returns the payload with the tag stripped.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TooShort`] if the frame cannot even hold the tag;
    /// [`DecodeError::CrcMismatch`] if the recomputed CRC differs from the
    /// carried tag (the packet experienced a data upset).
    pub fn decode<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], DecodeError> {
        let n = self.overhead_bytes();
        if frame.len() < n {
            return Err(DecodeError::TooShort {
                len: frame.len(),
                min: n,
            });
        }
        let (payload, tag_bytes) = frame.split_at(frame.len() - n);
        let tag = be_word(tag_bytes);
        let computed = self.crc.checksum(payload);
        if computed != tag {
            return Err(DecodeError::CrcMismatch {
                computed,
                received: tag,
            });
        }
        Ok(payload)
    }
}

/// A tag's bytes as the big-endian word they encode.
#[inline]
fn be_word(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |word, &b| word << 8 | u64::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn too_short_frames_are_rejected() {
        let codec = PacketCodec::new(CrcParams::CRC32);
        assert_eq!(
            codec.decode(&[0xAB]),
            Err(DecodeError::TooShort { len: 1, min: 4 })
        );
    }

    #[test]
    fn empty_payload_round_trips() {
        let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
        let framed = codec.encode(&[]);
        assert_eq!(framed.len(), 2);
        assert_eq!(codec.decode(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
        let mut scratch = Vec::new();
        for payload in [&b"alpha"[..], &b""[..], &b"a longer payload body"[..]] {
            scratch.clear();
            codec.encode_into(payload, &mut scratch);
            assert_eq!(scratch, codec.encode(payload));
        }
    }

    #[test]
    fn append_tag_respects_body_start() {
        let codec = PacketCodec::new(CrcParams::CRC32);
        let mut frame = b"prefix".to_vec();
        let start = frame.len();
        frame.extend_from_slice(b"body bytes");
        codec.append_tag(&mut frame, start);
        assert_eq!(codec.decode(&frame[start..]).unwrap(), b"body bytes");
    }

    #[test]
    fn error_messages_are_informative() {
        let e = DecodeError::CrcMismatch {
            computed: 0xAB,
            received: 0xCD,
        };
        let s = e.to_string();
        assert!(s.contains("0xab") && s.contains("0xcd"));
    }

    #[test]
    fn round_trip_and_single_bit_flips_at_every_word_and_tail_length() {
        // The slice kernel's every block and tail length, on the encode
        // and on the verify side.
        for params in CrcParams::sweep() {
            let codec = PacketCodec::new(params);
            for len in 0..=CrcParams::SWEEP_MAX_LEN {
                let payload: Vec<u8> = (0..len).map(|i| (i * 89 + 7) as u8).collect();
                let framed = codec.encode(&payload);
                assert_eq!(codec.decode(&framed), Ok(payload.as_slice()));
                // A tag narrower than its bytes leaves padding bits that
                // `decode` compares too, so every flipped bit must show.
                for bit in 0..framed.len() * 8 {
                    let mut upset = framed.clone();
                    upset[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        !codec.verify(&upset),
                        "{}: flip of bit {bit} in a {len}-byte payload",
                        params.name
                    );
                }
            }
        }
    }

    fn xor(frame: &[u8], error: &[u8]) -> Vec<u8> {
        frame.iter().zip(error).map(|(f, e)| f ^ e).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// CRC linearity, over every sweep set and bodies of 0–600 bytes
        /// (a fig4-8 frame body, 530, drawn one time in two): `catches`
        /// is `decode`'s verdict on the upset frame for a random error,
        /// which a CRC-5 or CRC-8 tag misses now and then, and for a
        /// nonzero codeword — a random body and its linear tag — which
        /// every tag misses.
        #[test]
        fn catches_is_the_verdict_of_decode_on_the_upset_frame(
            len in prop_oneof![Just(530usize), 0usize..601],
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bytes = |rng: &mut rand::rngs::StdRng, len: usize| -> Vec<u8> {
                (0..len).map(|_| rng.gen()).collect()
            };
            let body = bytes(&mut rng, len);
            for params in CrcParams::sweep() {
                let codec = PacketCodec::new(params);
                let frame = codec.encode(&body);
                let error = bytes(&mut rng, frame.len());
                prop_assert_eq!(
                    codec.catches(&error),
                    codec.decode(&xor(&frame, &error)).is_err(),
                    "{}: random error", params.name
                );
                let mut codeword = bytes(&mut rng, len);
                let tag = codec.crc.linear_checksum(&codeword);
                let n = codec.overhead_bytes();
                codeword.extend_from_slice(&tag.to_be_bytes()[8 - n..]);
                if len > 0 {
                    prop_assert!(codeword.iter().any(|&b| b != 0), "{}", params.name);
                }
                prop_assert!(!codec.catches(&codeword), "{}: codeword", params.name);
                prop_assert!(codec.decode(&xor(&frame, &codeword)).is_ok(), "{}", params.name);
                // One flipped bit more, and it is an error again.
                let bit = rng.gen_range(0..codeword.len() * 8);
                codeword[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(codec.catches(&codeword), "{}: codeword + bit {bit}", params.name);
                prop_assert!(codec.decode(&xor(&frame, &codeword)).is_err(), "{}", params.name);
            }
        }
    }

    proptest! {
        #[test]
        fn encode_decode_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
            for &params in CrcParams::ALL {
                let codec = PacketCodec::new(params);
                let framed = codec.encode(&payload);
                prop_assert_eq!(codec.decode(&framed).unwrap(), payload.as_slice());
            }
        }

        #[test]
        fn any_single_bit_flip_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            flip_bit in 0usize..512,
        ) {
            let codec = PacketCodec::new(CrcParams::CRC16_CCITT);
            let mut framed = codec.encode(&payload);
            let nbits = framed.len() * 8;
            let bit = flip_bit % nbits;
            framed[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!codec.verify(&framed));
        }
    }
}
