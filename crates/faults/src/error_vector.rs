//! The paper's two analytical error models for data upsets.
//!
//! For an `n`-bit message the error vector is `e = (e1 … en)`, `ei = 1`
//! when bit `i` is flipped. Chapter 2 derives:
//!
//! * **random error vector**: all `2^n − 1` non-null vectors are equally
//!   likely, so each has probability `p_v ≈ p_upset / 2^n`;
//! * **random bit error**: bits flip independently with probability
//!   `p_b ≈ p_upset / n`.

use rand::Rng;

/// Which analytical model generates error vectors for upset packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorModel {
    /// All `2^n − 1` non-null error vectors equally likely.
    #[default]
    RandomErrorVector,
    /// Independent per-bit flips, conditioned on at least one flip.
    RandomBitError,
}

impl ErrorModel {
    /// Draws a non-null error vector for an `n_bits`-long message and
    /// XORs it onto `payload` in place.
    ///
    /// The draw is *conditioned on an upset having occurred* (the caller
    /// decides whether one occurs using `p_upset`), so the returned vector
    /// is never the null vector.
    ///
    /// For [`ErrorModel::RandomBitError`], `p_upset` sets the per-bit flip
    /// probability via `p_b = p_upset / n` (clamped to at least one
    /// expected flip so the conditional rejection loop terminates
    /// quickly).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty — a zero-length message cannot carry a
    /// bit error.
    #[expect(
        clippy::disallowed_methods,
        reason = "draws from the caller's RNG handed in by a sanctioned site; the scramble itself owns no stream"
    )]
    pub fn scramble<R: Rng + ?Sized>(&self, rng: &mut R, payload: &mut [u8], p_upset: f64) {
        assert!(!payload.is_empty(), "cannot scramble an empty payload");
        let n_bits = payload.len() * 8;
        // Both models XOR their draws straight into `payload`: an attempt
        // that drew the null vector XORed nothing but zeros, so the bytes
        // are untouched for the retry.
        match self {
            ErrorModel::RandomErrorVector => {
                // Uniform over non-null vectors: sample uniform bytes and
                // reject the (vanishingly unlikely) null vector. One `u64`
                // per 8-byte word, little-endian, and one for a 1–7-byte
                // tail: the words and bytes one `fill` of the whole vector
                // would spend.
                let mut any = false;
                while !any {
                    let (words, tail) = payload.as_chunks_mut::<8>();
                    for word in words {
                        let v: u64 = rng.gen();
                        *word = (u64::from_le_bytes(*word) ^ v).to_le_bytes();
                        any |= v != 0;
                    }
                    if !tail.is_empty() {
                        let v = rng.gen::<u64>() & (u64::MAX >> (64 - 8 * tail.len()));
                        for (dst, v) in tail.iter_mut().zip(v.to_le_bytes()) {
                            *dst ^= v;
                        }
                        any |= v != 0;
                    }
                }
            }
            ErrorModel::RandomBitError => {
                let p_b = bit_error_probability(p_upset, n_bits).max(1.0 / n_bits as f64);
                let mut any = false;
                while !any {
                    for byte in payload.iter_mut() {
                        for bit in 0..8 {
                            if rng.gen_bool(p_b) {
                                *byte ^= 1 << bit;
                                any = true;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The per-vector probability of the random error vector model:
/// `p_v ≈ p_upset / 2^n`.
///
/// Saturates to `p_upset` for messages longer than 63 bits, where `2^n`
/// overflows — at that point individual vector probabilities are below
/// `f64` resolution anyway.
pub fn vector_probability(p_upset: f64, n_bits: usize) -> f64 {
    if n_bits >= 64 {
        p_upset * (n_bits as f64 * -(2f64.ln())).exp()
    } else {
        p_upset / (1u64 << n_bits) as f64
    }
}

/// The per-bit probability of the random bit error model:
/// `p_b ≈ p_upset / n`.
///
/// # Panics
///
/// Panics if `n_bits` is zero.
pub fn bit_error_probability(p_upset: f64, n_bits: usize) -> f64 {
    assert!(n_bits > 0, "message must contain at least one bit");
    (p_upset / n_bits as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scramble_always_changes_payload() {
        let mut rng = StdRng::seed_from_u64(7);
        for model in [ErrorModel::RandomErrorVector, ErrorModel::RandomBitError] {
            for _ in 0..200 {
                let original = vec![0x55u8; 8];
                let mut copy = original.clone();
                model.scramble(&mut rng, &mut copy, 0.5);
                assert_ne!(copy, original, "scramble produced the null vector");
            }
        }
    }

    /// The scramble as it was before it XORed in place: each attempt
    /// draws a whole error vector into a buffer of its own.
    fn scramble_buffered(model: ErrorModel, rng: &mut StdRng, payload: &mut [u8], p_upset: f64) {
        let n_bits = payload.len() * 8;
        loop {
            let mut vector = vec![0u8; payload.len()];
            match model {
                ErrorModel::RandomErrorVector => rng.fill(vector.as_mut_slice()),
                ErrorModel::RandomBitError => {
                    let p_b = bit_error_probability(p_upset, n_bits).max(1.0 / n_bits as f64);
                    for byte in vector.iter_mut() {
                        for bit in 0..8 {
                            if rng.gen_bool(p_b) {
                                *byte |= 1 << bit;
                            }
                        }
                    }
                }
            }
            if vector.iter().any(|&b| b != 0) {
                for (dst, v) in payload.iter_mut().zip(&vector) {
                    *dst ^= v;
                }
                return;
            }
        }
    }

    #[test]
    fn in_place_scramble_draws_and_flips_what_the_buffered_one_did() {
        // Every length up to five words, 277 bytes, a fig4-8 frame (530
        // bytes) and 4 KiB; then a run of one-byte payloads, which draw
        // the null vector (and retry) once in 256 attempts under the
        // first model, a third of the time under the second.
        let lengths = (1..=40)
            .chain([277, 530, 4_096])
            .flat_map(|len| [len; 8])
            .chain([1; 1_024]);
        for model in [ErrorModel::RandomErrorVector, ErrorModel::RandomBitError] {
            let mut in_place = StdRng::seed_from_u64(2003);
            let mut buffered = StdRng::seed_from_u64(2003);
            for (round, len) in lengths.clone().enumerate() {
                let original: Vec<u8> = (0..len).map(|i| (i * 31 + round) as u8).collect();
                let (mut a, mut b) = (original.clone(), original);
                model.scramble(&mut in_place, &mut a, 0.3);
                scramble_buffered(model, &mut buffered, &mut b, 0.3);
                assert_eq!(a, b, "{model:?}, round {round}, {len} bytes");
                assert_eq!(
                    in_place, buffered,
                    "{model:?}, round {round}: {len} bytes left the stream elsewhere"
                );
            }
        }
    }

    #[test]
    fn random_bit_error_flips_few_bits_on_average() {
        // With p_b = p_upset / n, the expected number of flips per upset
        // event is about max(1, p_upset): overwhelmingly 1-2 bits.
        let mut rng = StdRng::seed_from_u64(11);
        let mut total_flips = 0u32;
        let trials = 500;
        for _ in 0..trials {
            let original = vec![0u8; 16];
            let mut copy = original.clone();
            ErrorModel::RandomBitError.scramble(&mut rng, &mut copy, 0.3);
            total_flips += copy.iter().map(|b| b.count_ones()).sum::<u32>();
        }
        let avg = total_flips as f64 / trials as f64;
        assert!(avg < 3.0, "random bit error flipped {avg} bits on average");
    }

    #[test]
    fn random_error_vector_flips_half_the_bits_on_average() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut total_flips = 0u32;
        let trials = 500;
        let n_bits = 128u32;
        for _ in 0..trials {
            let original = vec![0u8; (n_bits / 8) as usize];
            let mut copy = original.clone();
            ErrorModel::RandomErrorVector.scramble(&mut rng, &mut copy, 0.3);
            total_flips += copy.iter().map(|b| b.count_ones()).sum::<u32>();
        }
        let avg = total_flips as f64 / trials as f64;
        assert!(
            (avg - n_bits as f64 / 2.0).abs() < 8.0,
            "uniform vectors should flip ~half the bits, got {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "empty payload")]
    fn scrambling_nothing_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        ErrorModel::RandomErrorVector.scramble(&mut rng, &mut [], 0.5);
    }

    #[test]
    fn vector_probability_matches_equation() {
        // p_v = p_upset / 2^n for small n.
        assert!((vector_probability(0.8, 4) - 0.8 / 16.0).abs() < 1e-15);
        assert!((vector_probability(0.5, 10) - 0.5 / 1024.0).abs() < 1e-15);
        // Long messages: still finite, tiny, monotone in p_upset.
        let a = vector_probability(0.5, 128);
        let b = vector_probability(1.0, 128);
        assert!(a > 0.0 && b > a);
    }

    #[test]
    fn bit_error_probability_matches_equation() {
        assert!((bit_error_probability(0.4, 8) - 0.05).abs() < 1e-15);
        assert_eq!(bit_error_probability(2.0, 1), 1.0, "clamped to 1");
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn bit_error_probability_rejects_empty_message() {
        let _ = bit_error_probability(0.5, 0);
    }

    #[test]
    fn models_are_deterministic_under_a_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let mut pa = vec![1u8, 2, 3, 4];
        let mut pb = vec![1u8, 2, 3, 4];
        ErrorModel::RandomErrorVector.scramble(&mut a, &mut pa, 0.5);
        ErrorModel::RandomErrorVector.scramble(&mut b, &mut pb, 0.5);
        assert_eq!(pa, pb);
    }
}
