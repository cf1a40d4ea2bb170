//! Reference kernel for the store's pivot indexes.
//!
//! Each pivot index is a `SymIndex`: offsets plus ids over the dense
//! symbol space, filled by a counting sort. This is the code it
//! replaced, kept verbatim as a test oracle: every entry pushes its id
//! onto its key's row of a `HashMap<Sym, Vec<u32>>`, in entry order.
//! Both must list the same ids for every symbol, and count the same
//! distinct keys.

use smishing_intel::Sym;
use std::collections::HashMap;

/// The pivot index over `keys`, entry `i` keyed by `keys[i]`.
pub fn pivot_index(keys: &[Option<Sym>]) -> HashMap<Sym, Vec<u32>> {
    let mut index: HashMap<Sym, Vec<u32>> = HashMap::new();
    for (id, key) in keys.iter().enumerate() {
        if let Some(sym) = *key {
            index.entry(sym).or_default().push(id as u32);
        }
    }
    index
}
