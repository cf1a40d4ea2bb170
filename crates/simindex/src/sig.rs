//! 64-bit SimHash signatures over hashed n-gram shingles.
//!
//! Charikar-style SimHash: every shingle hash votes ±1 on each of the 64
//! signature bits, and the sign of the tally becomes the bit. Similar
//! shingle sets therefore produce signatures at small Hamming distance,
//! which is what the banded index exploits.
//!
//! The tally is bit-sliced. Bit `b` is set iff more than half of the
//! shingle hashes have it set, so [`simhash`] counts set bits instead of
//! voting: eight `u64` accumulators each hold eight byte-wide counters,
//! one per bit position, and a shingle adds to all 64 of them with eight
//! shift-mask-adds. A byte counter overflows past 255, so the counts
//! are spilled every 255 shingles.

use smishing_textnlp::ngram::hashed_ngrams;

/// SplitMix64 finalizer — diffuses FNV shingle hashes so every signature
/// bit sees an independent coin flip.
fn diffuse(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// 64-bit SimHash of a shingle set. The empty set hashes to 0.
///
/// Bit `b` of the signature is set iff `2 · ones_b > n`, with `ones_b`
/// the number of diffused shingle hashes that have bit `b` set and `n`
/// the number of shingles (duplicates count each time): the rule of a
/// ±1 vote per shingle and bit whose tally must be positive.
pub fn simhash(shingles: &[u64]) -> u64 {
    /// Bit 0 of every byte lane.
    const LANES: u64 = 0x0101_0101_0101_0101;
    let mut ones = [0u64; 64];
    for chunk in shingles.chunks(255) {
        // acc[k] byte j counts bit 8j + k; at most 255 adds per lane.
        let mut acc = [0u64; 8];
        for &s in chunk {
            let h = diffuse(s);
            for (k, a) in acc.iter_mut().enumerate() {
                *a += (h >> k) & LANES;
            }
        }
        for (k, a) in acc.iter().enumerate() {
            for j in 0..8 {
                ones[8 * j + k] += (a >> (8 * j)) & 0xff;
            }
        }
    }
    let n = shingles.len() as u64;
    ones.iter()
        .enumerate()
        .fold(0, |sig, (b, &c)| sig | u64::from(2 * c > n) << b)
}

/// Hamming distance between two signatures.
pub fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Order-insensitive hash of a whole shingle set — a cheap stable
/// fingerprint for negative-result caching.
pub fn set_hash(shingles: &[u64]) -> u64 {
    shingles
        .iter()
        .fold(shingles.len() as u64, |acc, &s| acc ^ diffuse(s))
}

/// A query prepared for the index: the text's shingle set and signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimQuery {
    /// 64-bit SimHash of the shingle set.
    pub sig: u64,
    /// Sorted, deduplicated n-gram shingle hashes.
    pub shingles: Vec<u64>,
}

impl SimQuery {
    /// Shingle and sign `text` with character n-grams of size `ngram`.
    pub fn of(text: &str, ngram: usize) -> SimQuery {
        let shingles = hashed_ngrams(text, ngram);
        let sig = simhash(&shingles);
        SimQuery { sig, shingles }
    }

    /// Whether the text produced no shingles (empty or URL-only).
    pub fn is_empty(&self) -> bool {
        self.shingles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_identical_signatures() {
        let a = SimQuery::of("your parcel is held, pay the customs fee", 4);
        let b = SimQuery::of("your parcel is held, pay the customs fee", 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn near_duplicates_are_close_unrelated_far() {
        let a = SimQuery::of(
            "USPS: your parcel is held at the depot, pay the fee to release it",
            4,
        );
        let b = SimQuery::of(
            "USPS: your parcel is held at the depot, pay the toll to release it",
            4,
        );
        let c = SimQuery::of("are we still on for dinner tonight with the kids", 4);
        let near = hamming(a.sig, b.sig);
        let far = hamming(a.sig, c.sig);
        assert!(near < far, "near={near} far={far}");
    }

    #[test]
    fn empty_set_signs_to_zero() {
        assert_eq!(simhash(&[]), 0);
        assert!(SimQuery::of("https://only-a-url.test/x", 4).is_empty());
    }

    #[test]
    fn hamming_is_a_metric_on_bits() {
        assert_eq!(hamming(0, 0), 0);
        assert_eq!(hamming(u64::MAX, 0), 64);
        assert_eq!(hamming(0b1010, 0b0110), 2);
    }

    #[test]
    fn set_hash_is_order_insensitive_but_content_sensitive() {
        assert_eq!(set_hash(&[1, 2, 3]), set_hash(&[3, 2, 1]));
        assert_ne!(set_hash(&[1, 2, 3]), set_hash(&[1, 2, 4]));
        assert_ne!(set_hash(&[]), set_hash(&[0]));
    }
}
