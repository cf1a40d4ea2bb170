//! The store's symbol tables and pivot indexes, property-tested.
//!
//! A snapshot's interner is renumbered from the previous epoch's rather
//! than re-interned: `Renumber` must give exactly the table that
//! `Interner::intern` fills over the same keys in the same order, over
//! chains of epochs in which keys appear, die, resurface and repeat
//! within an epoch, and a key no entry carries any more must miss. The
//! pivot indexes are `SymIndex` offsets plus ids, held to the
//! `HashMap<Sym, Vec<u32>>` build they replaced (`oracle::pivot_index`).

mod oracle;

use proptest::prelude::*;
use smishing_intel::{Interner, Renumber, Sym, SymIndex};

/// Distinct key strings: few enough that epochs share many.
const KEYS: u8 = 24;

fn key(k: u8) -> String {
    format!("key-{k}.example")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each epoch lists its entries' keys in order. A key the previous
    /// table holds is fed either as its old symbol (a reused entry,
    /// `carry`) or as its string (a fresh entry, `intern`); any other key
    /// as its string.
    #[test]
    fn renumbering_equals_interning_in_the_new_order(
        epochs in prop::collection::vec(
            prop::collection::vec((0..KEYS, prop::sample::select(vec![false, true])), 0..40),
            1..10,
        ),
    ) {
        let mut prev = Interner::new();
        for epoch in &epochs {
            let mut next = Renumber::new(&prev);
            let mut want = Interner::new();
            for &(k, reused) in epoch {
                let s = key(k);
                let got = match prev.get(&s) {
                    Some(old) if reused => next.carry(old),
                    _ => next.intern(&s),
                };
                prop_assert_eq!(got, want.intern(&s));
            }
            let next = next.finish();
            prop_assert_eq!(&next, &want);
            for k in 0..KEYS {
                if !epoch.iter().any(|&(e, _)| e == k) {
                    prop_assert_eq!(next.get(&key(k)), None);
                }
            }
            prev = next;
        }
    }

    /// `raw` 30 is an entry without a key; any other value is a symbol
    /// below `n_syms`.
    #[test]
    fn sym_index_matches_the_map_oracle(
        n_syms in 0usize..30,
        raw in prop::collection::vec(0usize..31, 0..80),
    ) {
        let keys: Vec<Option<Sym>> = raw
            .iter()
            .map(|&k| (k < 30 && n_syms > 0).then(|| Sym((k % n_syms) as u32)))
            .collect();
        let idx = SymIndex::build(n_syms, keys.iter().copied());
        let want = oracle::pivot_index(&keys);
        for s in 0..n_syms as u32 + 2 {
            let row = want.get(&Sym(s)).map_or(&[][..], |v| v.as_slice());
            prop_assert_eq!(idx.get(Sym(s)), row);
        }
        prop_assert_eq!(idx.rows(), want.len());
    }
}
