//! SEC-DED ECC for the LVQ payload RAM: a Hamming(72,64) code.
//!
//! Each 64-bit captured load value is stored alongside 8 check bits —
//! seven extended-Hamming checks plus one overall-parity bit. Syndrome
//! decode at the read port corrects any single-bit upset (CE), detects
//! any double-bit upset (DUE), and by the code's distance can never
//! miscorrect a single-bit error onto the wrong bit. This closes the
//! known LVQ escape: a load value corrupted *before* capture is shared
//! by both threads, but the code word was generated over the clean
//! value, so the trailing read port restores it and the pair checks
//! then catch the corrupt leading copy. The repair guarantee stops at
//! one flipped bit: of the 59,640 triple-bit upsets, 45,304 (about three
//! quarters) come back `Corrected` with wrong data, the rest
//! `Uncorrectable`.
//!
//! Layout: the canonical extended Hamming construction over codeword
//! positions `1..=71`, where power-of-two positions hold the check bits
//! and the remaining 64 positions hold the data bits in order; the
//! 72nd bit is overall parity of everything else.

/// Codeword position (1-based, in `1..=71`) of data bit `i`: the `i`-th
/// non-power-of-two position.
const DATA_POS: [u8; 64] = {
    let mut table = [0u8; 64];
    let mut pos = 1u8;
    let mut i = 0;
    while i < 64 {
        if !pos.is_power_of_two() {
            table[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    table
};

/// Data bit index for codeword position `pos`, or `0xff` for check-bit
/// positions and out-of-range values.
const POS_TO_DATA: [u8; 128] = {
    let mut table = [0xffu8; 128];
    let mut i = 0;
    while i < 64 {
        table[DATA_POS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The result of a syndrome decode at the LVQ read port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Code word intact: the stored data is returned as-is.
    Clean,
    /// A single-bit upset was corrected.
    Corrected {
        /// The repaired data word.
        data: u64,
        /// Which *data* bit was repaired, or `None` when the upset hit a
        /// check or parity bit (the data was already intact).
        bit: Option<u8>,
    },
    /// A multi-bit upset: detected but uncorrectable (a DUE).
    Uncorrectable,
}

/// Computes the 8 check bits for `data`: bits `0..7` are the Hamming
/// checks, bit 7 is overall parity over the data and Hamming checks.
pub fn encode(data: u64) -> u8 {
    let mut hamming = 0u8;
    let mut rest = data;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        hamming ^= DATA_POS[i];
        rest &= rest - 1;
    }
    debug_assert_eq!(hamming & 0x80, 0, "positions fit in 7 bits");
    let parity = ((data.count_ones() + u32::from(hamming).count_ones()) & 1) as u8;
    hamming | (parity << 7)
}

/// Syndrome-decodes a stored `(data, check)` pair.
pub fn decode(data: u64, check: u8) -> EccOutcome {
    let expected = encode(data);
    let syndrome = (expected ^ check) & 0x7f;
    // Total parity of the received 72-bit code word; even when intact.
    let odd_weight = (data.count_ones() + u32::from(check).count_ones()) & 1 == 1;
    match (syndrome, odd_weight) {
        (0, false) => EccOutcome::Clean,
        // Odd number of flipped bits with a zero syndrome: the overall
        // parity bit itself flipped. Data intact.
        (0, true) => EccOutcome::Corrected { data, bit: None },
        (s, true) => {
            if s.is_power_of_two() {
                // A Hamming check bit flipped; data intact.
                EccOutcome::Corrected { data, bit: None }
            } else {
                match POS_TO_DATA[s as usize] {
                    0xff => EccOutcome::Uncorrectable, // invalid position: ≥3 flips
                    bit => EccOutcome::Corrected { data: data ^ (1u64 << bit), bit: Some(bit) },
                }
            }
        }
        // Non-zero syndrome with even overall weight: double-bit upset.
        (_, false) => EccOutcome::Uncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 6] = [
        0,
        u64::MAX,
        0xdead_beef_cafe_f00d,
        0x0123_4567_89ab_cdef,
        1,
        0x8000_0000_0000_0000,
    ];

    /// Flips codeword bit `pos` (0..64 = data bits, 64..72 = check bits)
    /// of a stored pair.
    fn flip(data: u64, check: u8, pos: usize) -> (u64, u8) {
        if pos < 64 {
            (data ^ (1u64 << pos), check)
        } else {
            (data, check ^ (1u8 << (pos - 64)))
        }
    }

    #[test]
    fn intact_words_decode_clean() {
        for &d in &SAMPLES {
            assert_eq!(decode(d, encode(d)), EccOutcome::Clean, "data {d:#x}");
        }
    }

    #[test]
    fn every_single_bit_upset_is_corrected_exactly() {
        for &d in &SAMPLES {
            let check = encode(d);
            for pos in 0..72 {
                let (fd, fc) = flip(d, check, pos);
                match decode(fd, fc) {
                    EccOutcome::Corrected { data, bit } => {
                        assert_eq!(data, d, "data {d:#x} flipped bit {pos}: repaired wrong");
                        if pos < 64 {
                            assert_eq!(bit, Some(pos as u8), "repaired the wrong position");
                        } else {
                            assert_eq!(bit, None, "check-bit upset must leave data alone");
                        }
                    }
                    other => panic!("data {d:#x} flipped bit {pos}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_double_bit_upset_is_detected_not_miscorrected() {
        for &d in &SAMPLES[..3] {
            let check = encode(d);
            for a in 0..72 {
                for b in (a + 1)..72 {
                    let (fd, fc) = flip(d, check, a);
                    let (fd, fc) = flip(fd, fc, b);
                    assert_eq!(
                        decode(fd, fc),
                        EccOutcome::Uncorrectable,
                        "data {d:#x} flipped bits {a},{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_triple_bit_upset_is_flagged_or_miscorrected() {
        // Past the code's distance the decoder can be fooled: a triple
        // upset either decodes to an invalid position (DUE) or looks like
        // a single-bit upset and is "corrected" to wrong data (a
        // miscorrection — silent data corruption). Never clean, never the
        // original data, and, the code being linear, the same split for
        // every stored value.
        for &d in &SAMPLES[2..4] {
            let check = encode(d);
            let (mut uncorrectable, mut miscorrected) = (0, 0);
            for a in 0..72 {
                for b in (a + 1)..72 {
                    for c in (b + 1)..72 {
                        let (fd, fc) = flip(d, check, a);
                        let (fd, fc) = flip(fd, fc, b);
                        let (fd, fc) = flip(fd, fc, c);
                        match decode(fd, fc) {
                            EccOutcome::Uncorrectable => uncorrectable += 1,
                            EccOutcome::Corrected { data, .. } if data != d => miscorrected += 1,
                            other => panic!("data {d:#x} flipped bits {a},{b},{c}: got {other:?}"),
                        }
                    }
                }
            }
            assert_eq!((uncorrectable, miscorrected), (14_336, 45_304), "data {d:#x}");
        }
    }

    #[test]
    fn parity_matrix_is_miscorrection_free() {
        // Every one of the 72 single-bit error patterns must produce a
        // distinct (syndrome, overall-parity) signature, and none may
        // collide with the clean signature — otherwise the decoder would
        // repair the wrong bit for some upset.
        let d = 0u64;
        let check = encode(d);
        let mut seen = Vec::new();
        for pos in 0..72 {
            let (fd, fc) = flip(d, check, pos);
            let expected = encode(fd);
            let syndrome = (expected ^ fc) & 0x7f;
            let odd = (fd.count_ones() + u32::from(fc).count_ones()) & 1 == 1;
            let sig = (syndrome, odd);
            assert_ne!(sig, (0, false), "single-bit error {pos} looks clean");
            assert!(!seen.contains(&sig), "signature collision at bit {pos}");
            seen.push(sig);
        }
        assert_eq!(seen.len(), 72);
    }

    #[test]
    fn all_data_widths_in_use_round_trip() {
        // Loads narrower than 64 bits still store a full 64-bit LVQ
        // entry (zero- or sign-extended); spot-check the code over the
        // extension patterns those widths produce.
        for width in [8u32, 16, 32, 64] {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            for v in [0, 1, max / 2, max] {
                let sext = (v as i64) << (64 - width) >> (64 - width);
                for d in [v, sext as u64] {
                    assert_eq!(decode(d, encode(d)), EccOutcome::Clean);
                    let (fd, fc) = flip(d, encode(d), (width - 1) as usize);
                    assert!(matches!(decode(fd, fc), EccOutcome::Corrected { data, .. } if data == d));
                }
            }
        }
    }
}
