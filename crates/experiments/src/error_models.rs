//! **Chapter 2 error-model validation** — the analytical equations
//! `p_v ≈ p_upset / 2^n` and `p_b ≈ p_upset / n`, plus a Monte-Carlo
//! measurement of the CRC's residual (undetected) error rate under both
//! error models.
//!
//! The stochastic communication protocol discards upsets via the CRC, so
//! the residual rate bounds the corrupt data that can reach an IP. For
//! the byte-aligned wire format, the random-error-vector residual is
//! `2^-(8·tag_bytes)` (unused padding bits in the tag byte double as
//! check bits).

use noc_crc::{undetected_fraction, CrcParams};
use noc_faults::{bit_error_probability, vector_probability, ErrorModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Scale, TrialRunner};

/// One row of the error-model table.
#[derive(Debug, Clone)]
pub struct ErrorModelRow {
    /// CRC parameter set.
    pub crc: CrcParams,
    /// Error model applied.
    pub model: ErrorModel,
    /// Message length in bytes (tag excluded).
    pub message_bytes: usize,
    /// Monte-Carlo vectors drawn.
    pub trials: usize,
    /// Measured undetected fraction among corrupted frames.
    pub undetected: f64,
    /// Theoretical residual rate for the random error vector model:
    /// `2^-(8·tag_bytes)`. The wire format stores the CRC in whole bytes,
    /// and a frame whose unused padding bits are flipped always fails the
    /// tag comparison, so padding acts as additional check bits.
    pub theory_rev: f64,
}

/// Runs the error-model validation.
pub fn run(scale: Scale) -> Vec<ErrorModelRow> {
    let trials = match scale {
        Scale::Quick => 20_000,
        Scale::Full => 400_000,
    };
    let message = b"on-chip stochastic communication packet";
    // Each (CRC, model) row is an independent Monte-Carlo experiment, so
    // the rows themselves are the runner's trials: every row draws its
    // vectors from its own derived seed stream.
    let mut combos = Vec::new();
    for crc in [
        CrcParams::CRC5_USB,
        CrcParams::CRC8_ATM,
        CrcParams::CRC16_CCITT,
    ] {
        for model in [ErrorModel::RandomErrorVector, ErrorModel::RandomBitError] {
            combos.push((crc, model));
        }
    }
    TrialRunner::for_figure("error-models", combos.len() as u64).run_indexed(|index, seed| {
        let (crc, model) = combos[index];
        let framed_len = message.len() + crc.tag_bytes();
        #[expect(
            clippy::disallowed_methods,
            reason = "stream construction from a TrialRunner-derived seed for the CRC study; engine-free figure, no tape interaction"
        )]
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors = (0..trials).map(|_| {
            let mut v = vec![0u8; framed_len];
            model.scramble(&mut rng, &mut v, 0.5);
            v
        });
        let undetected = undetected_fraction(crc, message, vectors);
        ErrorModelRow {
            crc,
            model,
            message_bytes: message.len(),
            trials,
            undetected,
            theory_rev: 2f64.powi(-8 * crc.tag_bytes() as i32),
        }
    })
}

/// Prints the table, plus the Chapter 2 probability formulas at sample
/// points.
pub fn print(rows: &[ErrorModelRow]) {
    crate::stats::print_table_header(
        "Chapter 2: error models and CRC residual error rates",
        &[
            "crc",
            "model",
            "trials",
            "undetected",
            "theory (REV: 2^-tagbits)",
        ],
    );
    for r in rows {
        println!(
            "{}\t{:?}\t{}\t{:.2e}\t{:.2e}",
            r.crc.name, r.model, r.trials, r.undetected, r.theory_rev
        );
    }
    println!("\nChapter 2 equations at sample points (n = 64 bits):");
    for p_upset in [0.1, 0.5, 0.9] {
        println!(
            "p_upset={p_upset:.1}: p_v = {:.3e} (random error vector), p_b = {:.4} (random bit error)",
            vector_probability(p_upset, 64),
            bit_error_probability(p_upset, 64)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_crc_residuals_match_theory_under_random_vectors() {
        // The on-wire residual is 2^-(8*tag_bytes): CRC-5 and CRC-8 both
        // occupy one tag byte, so both leak ~2^-8 under uniform vectors.
        let rows = run(Scale::Quick);
        for width in [5u32, 8] {
            let row = rows
                .iter()
                .find(|r| r.crc.width == width && r.model == ErrorModel::RandomErrorVector)
                .expect("present");
            assert!(
                (row.undetected - row.theory_rev).abs() < row.theory_rev,
                "{}: measured {:.2e} vs theory {:.2e}",
                row.crc.name,
                row.undetected,
                row.theory_rev
            );
        }
    }

    #[test]
    fn wider_tags_leak_less() {
        let rows = run(Scale::Quick);
        let rev = |w: u32| {
            rows.iter()
                .find(|r| r.crc.width == w && r.model == ErrorModel::RandomErrorVector)
                .map(|r| r.undetected)
                .expect("present")
        };
        // 2-byte tag beats the 1-byte tags by orders of magnitude.
        assert!(rev(16) < rev(8) / 10.0);
        assert!(rev(16) < rev(5) / 10.0);
    }

    #[test]
    fn bit_error_model_rarely_escapes() {
        // Random bit errors flip very few bits; single flips are always
        // detected, and only multi-bit patterns aligned with the
        // generator can escape. Wide CRCs essentially never leak; CRC-5
        // leaks ~1% (weight-2 escapes beyond the order of x mod G).
        let rows = run(Scale::Quick);
        for r in rows
            .iter()
            .filter(|r| r.model == ErrorModel::RandomBitError)
        {
            let bound = match r.crc.width {
                5 => 5e-2,
                _ => 5e-3,
            };
            assert!(
                r.undetected < bound,
                "{} leaked {:.2e} under random bit errors",
                r.crc.name,
                r.undetected
            );
        }
    }
}
