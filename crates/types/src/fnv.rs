//! Keyed FNV-1a: the stable 64-bit hash behind the workspace's hash-based
//! draws, hashed features and shingles, and shard routing. It is the same
//! on every run and platform, so a seed reproduces a run.

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `units` (bytes, chars or words), starting from the offset
/// basis XOR `key`: each unit is XORed in, then the state is multiplied
/// by [`FNV_PRIME`]. `key` 0 is plain FNV-1a. Callers mix their seed into
/// `key` and apply their own finalizer to the result.
pub fn fnv1a<U: Into<u64>>(key: u64, units: impl IntoIterator<Item = U>) -> u64 {
    units.into_iter().fold(FNV_OFFSET ^ key, |h, u| {
        (h ^ u.into()).wrapping_mul(FNV_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(0, "".bytes()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0, "a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(0, "foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chars_hash_as_their_code_points() {
        let text = "Ваш пакет";
        assert_eq!(
            fnv1a(7, text.chars()),
            fnv1a(7, text.chars().map(u32::from))
        );
    }
}
