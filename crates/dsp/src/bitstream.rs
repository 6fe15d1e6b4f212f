//! Bit-level I/O, Elias-gamma entropy coding and the bit reservoir — the
//! "Bit Reservoir" and "Output" modules of the encoder pipeline
//! (Figure 4-7).
//!
//! MP3 smooths its instantaneous bit-rate with a *bit reservoir*: frames
//! that need fewer bits than the nominal budget donate the surplus to a
//! bounded reservoir that hard frames may draw from. [`BitReservoir`]
//! implements exactly that accounting; [`BitWriter`]/[`BitReader`] with
//! the signed Elias-gamma code are the entropy-coding layer.

/// Number of bits the signed Elias-gamma code spends on `value`.
///
/// Zigzag maps the signed value to unsigned (`0, -1, 1, -2, …` →
/// `0, 1, 2, 3, …`), then gamma-codes `zigzag + 1`.
///
/// # Examples
///
/// ```
/// use noc_dsp::bitstream::coded_bits;
///
/// assert_eq!(coded_bits(0), 1);  // "1"
/// assert_eq!(coded_bits(-1), 3); // "010"
/// assert_eq!(coded_bits(1), 3);  // "011"
/// ```
pub fn coded_bits(value: i32) -> usize {
    let z = zigzag(value) + 1;
    let n = 64 - z.leading_zeros() as usize; // bit length of z
    2 * n - 1
}

#[inline]
fn zigzag(value: i32) -> u64 {
    let v = value as i64;
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i32 {
    (((z >> 1) as i64) ^ -((z & 1) as i64)) as i32
}

/// An append-only bit buffer.
///
/// # Examples
///
/// ```
/// use noc_dsp::bitstream::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_signed_gamma(-7);
/// let bytes = w.into_bytes();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_signed_gamma(), Some(-7));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        let pos = self.bit_len % 8;
        if pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().expect("just pushed") |= 0x80 >> pos;
        }
        self.bit_len += 1;
    }

    /// Appends the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        for i in (0..count).rev() {
            self.write_bit(value >> i & 1 == 1);
        }
    }

    /// Appends a signed value with the zigzag Elias-gamma code.
    pub fn write_signed_gamma(&mut self, value: i32) {
        let z = zigzag(value) + 1;
        let n = 64 - z.leading_zeros(); // bit length
        for _ in 0..n - 1 {
            self.write_bit(false);
        }
        self.write_bits(z, n);
    }

    /// Finishes the stream, returning the bytes (zero-padded to a byte
    /// boundary).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrow of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A bit-level reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    /// Reads one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.cursor >= self.bytes.len() * 8 {
            return None;
        }
        let byte = self.bytes[self.cursor / 8];
        let bit = byte & (0x80 >> (self.cursor % 8)) != 0;
        self.cursor += 1;
        Some(bit)
    }

    /// Reads `count` bits MSB-first; `None` if fewer remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < count as usize {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..count {
            out = out << 1 | self.read_bit()? as u64;
        }
        Some(out)
    }

    /// Reads one signed Elias-gamma value; `None` on a truncated stream
    /// or on a code no `i32` writes (wider than 32 significant bits).
    pub fn read_signed_gamma(&mut self) -> Option<i32> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 63 {
                return None; // corrupt stream
            }
        }
        let rest = if zeros == 0 {
            0
        } else {
            self.read_bits(zeros)?
        };
        let z = (1u64 << zeros | rest) - 1;
        if z > u64::from(u32::MAX) {
            return None; // corrupt stream: no i32 zigzags this far
        }
        Some(unzigzag(z))
    }
}

/// The MP3-style bit reservoir: a bounded pool of unused bits carried
/// between frames to smooth the output bit-rate.
///
/// # Examples
///
/// ```
/// use noc_dsp::bitstream::BitReservoir;
///
/// let mut reservoir = BitReservoir::new(1000);
/// // An easy frame used 300 of its 400-bit budget:
/// reservoir.deposit(100);
/// // A hard frame can now spend up to budget + reservoir:
/// assert_eq!(reservoir.available(), 100);
/// assert_eq!(reservoir.withdraw(60), 60);
/// assert_eq!(reservoir.available(), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReservoir {
    capacity: usize,
    level: usize,
    overflowed: usize,
}

impl BitReservoir {
    /// Creates an empty reservoir with the given capacity (bits).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            level: 0,
            overflowed: 0,
        }
    }

    /// Bits currently available to withdraw.
    pub fn available(&self) -> usize {
        self.level
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bits lost because the reservoir was full (stuffing bits in a real
    /// encoder).
    pub fn overflowed(&self) -> usize {
        self.overflowed
    }

    /// Deposits surplus bits; anything beyond capacity is lost (and
    /// counted).
    pub fn deposit(&mut self, bits: usize) {
        let space = self.capacity - self.level;
        let stored = bits.min(space);
        self.level += stored;
        self.overflowed += bits - stored;
    }

    /// Withdraws up to `bits`, returning how many were actually granted.
    pub fn withdraw(&mut self, bits: usize) -> usize {
        let granted = bits.min(self.level);
        self.level -= granted;
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [-1000, -2, -1, 0, 1, 2, 1000, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn gamma_code_lengths() {
        assert_eq!(coded_bits(0), 1);
        assert_eq!(coded_bits(-1), 3);
        assert_eq!(coded_bits(1), 3);
        assert_eq!(coded_bits(2), 5);
        // Lengths are monotone in |value|:
        for v in 1..100 {
            assert!(coded_bits(v) >= coded_bits(v - 1));
        }
    }

    #[test]
    fn writer_reader_round_trip_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD, 16);
        w.write_bit(true);
        w.write_bits(0x3, 2);
        assert_eq!(w.bit_len(), 19);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(16), Some(0xDEAD));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(2), Some(0x3));
    }

    #[test]
    fn reading_past_the_end_returns_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn gamma_stream_round_trips() {
        let values = [0, 1, -1, 5, -5, 100, -100, 32767, -32768];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_signed_gamma(v);
        }
        let expected_bits: usize = values.iter().map(|&v| coded_bits(v)).sum();
        assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_signed_gamma(), Some(v));
        }
    }

    #[test]
    fn truncated_gamma_returns_none() {
        let mut w = BitWriter::new();
        w.write_signed_gamma(1000);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..1]);
        assert_eq!(r.read_signed_gamma(), None);
    }

    #[test]
    fn a_gamma_code_wider_than_any_i32_is_corrupt() {
        // 40 zeros, then a 41-bit value: the zigzag of no `i32`, which
        // once decoded to a truncated `Some`.
        let mut w = BitWriter::new();
        for _ in 0..40 {
            w.write_bit(false);
        }
        w.write_bits(1 << 40 | 0x9_1A43, 41);
        assert_eq!(BitReader::new(w.as_bytes()).read_signed_gamma(), None);
        // The widest codes an `i32` writes still read back.
        let mut w = BitWriter::new();
        w.write_signed_gamma(i32::MIN);
        w.write_signed_gamma(i32::MAX);
        let mut r = BitReader::new(w.as_bytes());
        assert_eq!(r.read_signed_gamma(), Some(i32::MIN));
        assert_eq!(r.read_signed_gamma(), Some(i32::MAX));
    }

    #[test]
    fn reservoir_caps_at_capacity() {
        let mut res = BitReservoir::new(100);
        res.deposit(150);
        assert_eq!(res.available(), 100);
        assert_eq!(res.overflowed(), 50);
        assert_eq!(res.withdraw(500), 100);
        assert_eq!(res.available(), 0);
    }

    #[test]
    fn reservoir_accounting_is_exact() {
        let mut res = BitReservoir::new(1000);
        res.deposit(300);
        assert_eq!(res.withdraw(100), 100);
        res.deposit(50);
        assert_eq!(res.available(), 250);
        assert_eq!(res.overflowed(), 0);
        assert_eq!(res.capacity(), 1000);
    }

    proptest! {
        #[test]
        fn arbitrary_gamma_sequences_round_trip(
            values in proptest::collection::vec(any::<i32>(), 0..200)
        ) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_signed_gamma(v);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.read_signed_gamma(), Some(v));
            }
        }

        #[test]
        fn bit_len_matches_coded_bits(
            values in proptest::collection::vec(-10000i32..10000, 0..100)
        ) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_signed_gamma(v);
            }
            let expect: usize = values.iter().map(|&v| coded_bits(v)).sum();
            prop_assert_eq!(w.bit_len(), expect);
        }

        #[test]
        fn reservoir_never_exceeds_capacity(
            ops in proptest::collection::vec((any::<bool>(), 0usize..500), 0..100),
            cap in 1usize..1000,
        ) {
            let mut res = BitReservoir::new(cap);
            for (is_deposit, amount) in ops {
                if is_deposit {
                    res.deposit(amount);
                } else {
                    let granted = res.withdraw(amount);
                    prop_assert!(granted <= amount);
                }
                prop_assert!(res.available() <= cap);
            }
        }
    }
}
