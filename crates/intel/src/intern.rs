//! String interning and symbol-keyed indexes for the snapshot.
//!
//! The same apex domain or sender ID recurs across thousands of entries;
//! interning stores each key string once, as one `Arc<str>` the lookup
//! map and the table share, and lets the indexes hash and compare 4-byte
//! symbols instead of strings. The interner is filled at build time and
//! read-only afterwards — exactly the lifecycle of the immutable
//! [`IntelSnapshot`](crate::IntelSnapshot).
//!
//! Symbols are numbered in first-appearance order over the snapshot's
//! entries, so a table is a pure function of the retained entries.
//! [`Renumber`] builds the next epoch's table from the previous one by
//! integer remap instead of re-interning its strings, and [`SymIndex`]
//! maps the dense symbol space to entry ids.

use std::collections::HashMap;
use std::sync::Arc;

/// A handle to an interned string (index into the interner's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// An append-only string table with O(1) string → symbol lookup.
///
/// Equality compares the full table (map and insertion order) — two
/// interners are equal exactly when the same strings were interned in the
/// same first-appearance order, the property the incremental snapshot
/// build relies on when it renumbers reused keys canonically.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Interner {
    map: HashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.map.insert(s, sym);
        sym
    }

    /// Look up without inserting — the read-path operation.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A previous symbol not yet numbered in the table being built.
const UNSEEN: u32 = u32::MAX;

/// One renumbering pass: the next epoch's [`Interner`], built from the
/// previous one and equal to the interner [`Interner::intern`] fills over
/// the same keys in the same order.
///
/// Feed it the new entries' keys in canonical order: [`carry`] for a
/// symbol of the previous table, [`intern`](Renumber::intern) for a
/// string. A previous symbol is numbered on first sight through an old →
/// new `Vec<u32>`, so a reused entry costs integer work, and only strings
/// the previous table lacks are hashed and allocated. A full build is the
/// same pass over an empty previous table.
///
/// [`carry`]: Renumber::carry
#[derive(Debug)]
pub struct Renumber<'p> {
    prev: &'p Interner,
    /// New symbol of each previous symbol, or [`UNSEEN`].
    remap: Vec<u32>,
    /// The new table, in first-appearance order.
    strings: Vec<Arc<str>>,
    /// Strings the previous table lacks, with their new symbols.
    added: HashMap<Arc<str>, Sym>,
}

impl<'p> Renumber<'p> {
    /// Start a table whose strings may carry over from `prev`.
    pub fn new(prev: &'p Interner) -> Renumber<'p> {
        Renumber {
            prev,
            remap: vec![UNSEEN; prev.len()],
            strings: Vec::with_capacity(prev.len()),
            added: HashMap::new(),
        }
    }

    /// The new symbol of the previous table's `old`.
    pub fn carry(&mut self, old: Sym) -> Sym {
        let slot = &mut self.remap[old.0 as usize];
        if *slot == UNSEEN {
            *slot = self.strings.len() as u32;
            self.strings
                .push(Arc::clone(&self.prev.strings[old.0 as usize]));
        }
        Sym(*slot)
    }

    /// The new symbol of `s`: carried over when the previous table holds
    /// it, numbered next when it is new to both tables.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(old) = self.prev.get(s) {
            return self.carry(old);
        }
        if let Some(&sym) = self.added.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.added.insert(s, sym);
        sym
    }

    /// The new table. Its map is the previous map, cloned, with every
    /// symbol rewritten through the remap and every string no key carried
    /// dropped, joined with the new strings: the smaller of the two is
    /// inserted into the larger, so only it is hashed.
    pub fn finish(self) -> Interner {
        let Renumber {
            prev,
            remap,
            strings,
            added,
        } = self;
        let mut map = prev.map.clone();
        map.retain(|_, sym| {
            *sym = Sym(remap[sym.0 as usize]);
            sym.0 != UNSEEN
        });
        let (mut map, rest) = if map.len() >= added.len() {
            (map, added)
        } else {
            (added, map)
        };
        map.extend(rest);
        Interner { map, strings }
    }
}

/// Ids by symbol over a table's dense symbol space: row `s` lists, in
/// ascending order, the ids whose key is `s`. Offsets plus ids (CSR),
/// filled by a counting sort, so a lookup is a slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymIndex {
    /// Row `s` is `ids[off[s]..off[s + 1]]`.
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl SymIndex {
    /// Index `keys` over symbols `0..n_syms`: id `i` is the position of
    /// its key, and an id without one (`None`) is in no row.
    pub fn build<I>(n_syms: usize, keys: I) -> SymIndex
    where
        I: IntoIterator<Item = Option<Sym>>,
        I::IntoIter: Clone,
    {
        let keys = keys.into_iter();
        let mut off = vec![0u32; n_syms + 1];
        for sym in keys.clone().flatten() {
            off[sym.0 as usize + 1] += 1;
        }
        for s in 1..off.len() {
            off[s] += off[s - 1];
        }
        let mut next = off[..n_syms].to_vec();
        let mut ids = vec![0u32; off[n_syms] as usize];
        for (id, key) in keys.enumerate() {
            if let Some(sym) = key {
                let slot = &mut next[sym.0 as usize];
                ids[*slot as usize] = id as u32;
                *slot += 1;
            }
        }
        SymIndex { off, ids }
    }

    /// The ids whose key is `sym` (empty past the indexed symbols).
    pub fn get(&self, sym: Sym) -> &[u32] {
        let s = sym.0 as usize;
        match self.off.get(s..s + 2) {
            Some(&[a, b]) => &self.ids[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Number of symbols with at least one id.
    pub fn rows(&self) -> usize {
        self.off.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("bit.ly");
        let b = i.intern("cutt.ly");
        assert_eq!(i.intern("bit.ly"), a);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "bit.ly");
        assert_eq!(i.resolve(b), "cutt.ly");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_never_inserts() {
        let mut i = Interner::new();
        assert_eq!(i.get("x.com"), None);
        let s = i.intern("x.com");
        assert_eq!(i.get("x.com"), Some(s));
        assert_eq!(i.len(), 1);
    }

    /// The map and the table hold one allocation per string.
    #[test]
    fn each_string_is_stored_once() {
        let mut i = Interner::new();
        let s = i.intern("sbi.co.in");
        let (key, _) = i.map.get_key_value("sbi.co.in").unwrap();
        assert!(Arc::ptr_eq(key, &i.strings[s.0 as usize]));
    }

    #[test]
    fn renumbering_drops_dead_strings_and_numbers_new_ones_in_order() {
        let mut prev = Interner::new();
        for s in ["a", "b", "c"] {
            prev.intern(s);
        }
        let mut next = Renumber::new(&prev);
        assert_eq!(next.carry(Sym(2)), Sym(0));
        assert_eq!(next.intern("d"), Sym(1));
        assert_eq!(next.intern("a"), Sym(2));
        assert_eq!(next.carry(Sym(2)), Sym(0));
        assert_eq!(next.intern("d"), Sym(1));
        let next = next.finish();
        let mut want = Interner::new();
        for s in ["c", "d", "a"] {
            want.intern(s);
        }
        assert_eq!(next, want);
        assert_eq!(next.get("b"), None);
    }

    #[test]
    fn sym_index_rows_list_ids_in_order() {
        let keys = [Some(Sym(2)), None, Some(Sym(0)), Some(Sym(2))];
        let idx = SymIndex::build(4, keys);
        assert_eq!(idx.get(Sym(0)), &[2]);
        assert_eq!(idx.get(Sym(1)), &[] as &[u32]);
        assert_eq!(idx.get(Sym(2)), &[0, 3]);
        assert_eq!(idx.get(Sym(3)), &[] as &[u32]);
        assert_eq!(idx.get(Sym(9)), &[] as &[u32]);
        assert_eq!(idx.rows(), 2);
        assert_eq!(SymIndex::default().get(Sym(0)), &[] as &[u32]);
    }
}
