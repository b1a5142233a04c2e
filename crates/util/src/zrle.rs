//! Zero-run-length encoding of word buffers.
//!
//! Checkpoints and migration images carry whole shared-memory pages.
//! Scientific arrays are overwhelmingly zero early in a run (and often
//! stay sparse), so a trivial zero-run codec buys large, predictable
//! compression with no dependencies.
//!
//! Format (all little-endian `u32` counts):
//!
//! ```text
//! total_words: u32
//! repeat {
//!     zero_run_words: u32        // may be 0
//!     literal_words:  u32        // may be 0
//!     literal data:   u64 * literal_words
//! } until total consumed
//! ```

use crate::wire::{Dec, Enc, WireError};

/// Encode `words` with zero-run compression into `e`.
///
/// Word-wide scanning, byte-for-byte identical output to the original
/// per-word loop (pinned by `prop_matches_reference` below): zero runs
/// are skipped eight words per OR-fold, literal stretches leap four
/// words per all-nonzero test, and the per-word state machine only
/// runs near run boundaries. Literal payloads go out through the bulk
/// [`Enc::put_u64_words`] path.
pub fn encode_words(words: &[u64], e: &mut Enc) {
    e.put_u32(words.len() as u32);
    encode_runs(words, e);
}

/// The runs of [`encode_words`] without its `total_words` header: for
/// a caller that writes the count itself (a page payload, whose count
/// word carries a form marker).
pub fn encode_runs(words: &[u64], e: &mut Enc) {
    let n = words.len();
    let mut i = 0;
    while i < n {
        // Count zeros: wide skip (one OR-fold per 8 words — a couple
        // of 128-bit lanes), then the word tail.
        let zstart = i;
        while i + 8 <= n && or_fold8(&words[i..i + 8]) == 0 {
            i += 8;
        }
        if i + 4 <= n && words[i] | words[i + 1] | words[i + 2] | words[i + 3] == 0 {
            i += 4;
        }
        while i < n && words[i] == 0 {
            i += 1;
        }
        let zeros = i - zstart;
        // Count literals: stop where a run of >= 4 zeros begins (below
        // that threshold a run header costs more than the literal
        // words). Each step looks at a 4-word window as a zero
        // bitmask: all clear leaps 4 (a zero run can only *start* at a
        // zero word), all set is the stop position, otherwise skip to
        // the window's first zero (earlier positions are nonzero and
        // cannot start a run). Fewer than 4 words left can never form
        // a run, so the tail stays literal — same as the byte loop.
        let lstart = i;
        loop {
            if i + 4 > n {
                i = n;
                break;
            }
            let m = (words[i] == 0) as u32
                | (((words[i + 1] == 0) as u32) << 1)
                | (((words[i + 2] == 0) as u32) << 2)
                | (((words[i + 3] == 0) as u32) << 3);
            if m == 0 {
                i += 4;
            } else if m == 0xF {
                break; // 4-zero run starts exactly here
            } else {
                i += (m.trailing_zeros() as usize).max(1);
            }
        }
        // A literal stretch ending at the buffer end keeps any short
        // trailing zero run as literals — simpler and still correct.
        let lits = &words[lstart..i];
        e.put_u32(zeros as u32);
        e.put_u32(lits.len() as u32);
        e.put_u64_words(lits);
        if zeros == 0 && lits.is_empty() {
            // Cannot happen (outer loop guarantees progress), but guard
            // against an infinite loop if the invariant is ever broken.
            debug_assert!(false, "zrle made no progress");
            break;
        }
    }
}

/// OR of 8 words — zero iff all are zero. A fixed-size fold the
/// autovectorizer reduces in two 128-bit (or one 512-bit) lanes.
#[inline]
fn or_fold8(w: &[u64]) -> u64 {
    w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7]
}

/// Decode a zero-run-compressed word buffer from `d`.
pub fn decode_words(d: &mut Dec<'_>) -> Result<Vec<u64>, WireError> {
    let total = d.get_u32()? as usize;
    if total > (1 << 28) {
        return Err(WireError::BadLength {
            what: "zrle total",
            len: total,
        });
    }
    decode_runs(d, total)
}

/// Decode the runs [`encode_runs`] wrote for `total` words. The output
/// is allocated at `total`: a caller reading `total` off the wire
/// bounds it first.
pub fn decode_runs(d: &mut Dec<'_>, total: usize) -> Result<Vec<u64>, WireError> {
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let zeros = d.get_u32()? as usize;
        let lits = d.get_u32()? as usize;
        if out.len() + zeros + lits > total {
            return Err(WireError::BadLength {
                what: "zrle run",
                len: zeros + lits,
            });
        }
        out.resize(out.len() + zeros, 0);
        d.get_u64_words_into(&mut out, lits)?;
        if zeros == 0 && lits == 0 {
            return Err(WireError::BadLength {
                what: "zrle empty run",
                len: 0,
            });
        }
    }
    Ok(out)
}

/// Convenience: encode to a fresh buffer.
pub fn compress(words: &[u64]) -> Vec<u8> {
    let mut e = Enc::with_capacity(words.len() / 4 + 16);
    encode_words(words, &mut e);
    e.finish()
}

/// Convenience: decode from a complete buffer.
pub fn decompress(buf: &[u8]) -> Result<Vec<u64>, WireError> {
    let mut d = Dec::new(buf);
    let v = decode_words(&mut d)?;
    d.expect_done()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original per-word encoder, kept verbatim as the semantic
    /// reference: the widened [`encode_words`] must produce
    /// byte-identical output (`prop_matches_reference`), so the wire
    /// format is pinned by construction, not by sampled round-trips
    /// alone.
    fn encode_words_reference(words: &[u64], e: &mut Enc) {
        e.put_u32(words.len() as u32);
        let mut i = 0;
        while i < words.len() {
            let zstart = i;
            while i < words.len() && words[i] == 0 {
                i += 1;
            }
            let zeros = i - zstart;
            let lstart = i;
            let mut zrun = 0usize;
            while i < words.len() {
                if words[i] == 0 {
                    zrun += 1;
                    if zrun >= 4 {
                        i -= zrun - 1;
                        break;
                    }
                } else {
                    zrun = 0;
                }
                i += 1;
            }
            let lits = &words[lstart..i];
            e.put_u32(zeros as u32);
            e.put_u32(lits.len() as u32);
            for &w in lits {
                e.put_u64(w);
            }
            if zeros == 0 && lits.is_empty() {
                break;
            }
        }
    }

    fn compress_reference(words: &[u64]) -> Vec<u8> {
        let mut e = Enc::with_capacity(words.len() / 4 + 16);
        encode_words_reference(words, &mut e);
        e.finish()
    }

    #[test]
    fn all_zero_page_compresses_hard() {
        let words = vec![0u64; 512]; // one 4 KB page
        let buf = compress(&words);
        assert!(
            buf.len() <= 16,
            "4KB of zeros should encode in <= 16 bytes, got {}",
            buf.len()
        );
        assert_eq!(decompress(&buf).unwrap(), words);
    }

    #[test]
    fn dense_page_roundtrips() {
        let words: Vec<u64> = (0..512u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
            .collect();
        let buf = compress(&words);
        assert_eq!(decompress(&buf).unwrap(), words);
    }

    #[test]
    fn empty_buffer() {
        let words: Vec<u64> = vec![];
        let buf = compress(&words);
        assert_eq!(decompress(&buf).unwrap(), words);
    }

    #[test]
    fn mixed_runs() {
        let mut words = vec![0u64; 100];
        words.extend_from_slice(&[1, 2, 3]);
        words.extend(vec![0u64; 50]);
        words.push(9);
        words.extend(vec![0u64; 7]);
        let buf = compress(&words);
        assert_eq!(decompress(&buf).unwrap(), words);
    }

    #[test]
    fn short_zero_runs_stay_literal() {
        // 0 interleaved singly should not explode into many run headers.
        let words: Vec<u64> = (0..64).map(|i| if i % 2 == 0 { 0 } else { i }).collect();
        let buf = compress(&words);
        assert_eq!(decompress(&buf).unwrap(), words);
    }

    #[test]
    fn corrupt_run_rejected() {
        let words = vec![1u64, 2, 3];
        let mut buf = compress(&words);
        // Claim more total words than runs provide -> decoder must error, not hang.
        buf[0] = 0xFF;
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn adversarial_patterns_roundtrip_and_match_reference() {
        // Deterministic adversarial corpus aimed at the wide-scan
        // boundaries: run lengths straddling the 8-word zero-skip and
        // 4-word literal-leap chunks, alternating single words, and
        // short trailing zero runs that must stay literal.
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0; 512],
            (1..=512u64).collect(),
            (0..512u64).map(|i| u64::from(i % 2 == 0)).collect(),
            (0..512u64).map(|i| u64::from(i % 2 == 1)).collect(),
        ];
        // Every (zero-run, literal-run) length pair around the chunk
        // widths, repeated to cross block boundaries, with and without
        // a trailing zero tail of every sub-threshold length.
        for z in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            for l in [1usize, 3, 4, 5, 7, 8, 9] {
                for tail in 0..4usize {
                    let mut v = Vec::new();
                    for rep in 0..6 {
                        v.extend(std::iter::repeat_n(0u64, z));
                        v.extend((0..l).map(|k| (rep * 100 + k + 1) as u64));
                    }
                    v.extend(std::iter::repeat_n(0u64, tail));
                    cases.push(v);
                }
            }
        }
        for words in cases {
            let buf = compress(&words);
            assert_eq!(
                buf,
                compress_reference(&words),
                "encoding diverged from the byte-loop reference for {} words",
                words.len()
            );
            assert_eq!(decompress(&buf).unwrap(), words);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(words in proptest::collection::vec(prop_oneof![Just(0u64), any::<u64>()], 0..600)) {
            let buf = compress(&words);
            prop_assert_eq!(decompress(&buf).unwrap(), words);
        }

        /// The widened encoder is pinned against the byte-loop
        /// semantics: identical bytes out, for zero-biased inputs whose
        /// run lengths hit every alignment of the wide chunks.
        #[test]
        fn prop_matches_reference(
            words in proptest::collection::vec(
                prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..u64::MAX], 0..700),
        ) {
            prop_assert_eq!(compress(&words), compress_reference(&words));
        }

        /// Adversarial run-structured inputs: explicit (zeros, lits)
        /// segment lists exercise header emission at every boundary.
        #[test]
        fn prop_segments_match_reference(
            segs in proptest::collection::vec((0usize..20, 0usize..12), 0..20),
            tail in 0usize..9,
        ) {
            let mut words = Vec::new();
            for (zi, &(z, l)) in segs.iter().enumerate() {
                words.extend(std::iter::repeat_n(0u64, z));
                words.extend((0..l).map(|k| (zi * 37 + k + 1) as u64));
            }
            words.extend(std::iter::repeat_n(0u64, tail));
            let buf = compress(&words);
            prop_assert_eq!(&buf, &compress_reference(&words));
            prop_assert_eq!(decompress(&buf).unwrap(), words);
        }

        #[test]
        fn prop_sparse_compresses(density in 0usize..8) {
            let words: Vec<u64> = (0..512usize)
                .map(|i| if density > 0 && i % (512 / density.max(1)).max(1) == 0 { i as u64 + 1 } else { 0 })
                .collect();
            let buf = compress(&words);
            // Sparse pages must compress below raw size.
            prop_assert!(buf.len() < 512 * 8);
            prop_assert_eq!(decompress(&buf).unwrap(), words);
        }
    }
}
