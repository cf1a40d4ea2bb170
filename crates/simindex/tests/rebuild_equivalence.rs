//! `SimIndex::rebuild` ≡ `SimIndex::build_with` when docs leave as well as
//! arrive.
//!
//! A rebuild repairs the previous template partition instead of
//! rediscovering it: components that lost no doc are re-imposed, the
//! survivors of a component that lost a doc are re-linked among
//! themselves, and new docs are linked against every doc. The proptest
//! drops an arbitrary subset of a corpus, inserts new texts anywhere
//! (optionally reversing the order) and requires the rebuilt index to
//! equal a from-scratch build over the resulting text sequence:
//! signatures, shingles, template ids and template count.

use proptest::prelude::*;
use smishing_simindex::{DocInput, SimIndex};

/// Template families of twelve words: each doc takes word `p` of a
/// family from the first row, or from the second when bit `p` of its
/// mask is set. Docs whose masks differ in a few bits are near-duplicates,
/// so components chain through intermediate variants and can split when
/// one leaves.
const FAMILIES: [[&str; 2]; 3] = [
    [
        "usps your parcel is held at the depot pay customs fee now",
        "fedex this package was stuck in our warehouse send release charge today",
    ],
    [
        "chase alert your account has been locked verify identity right away please",
        "wellsfargo notice online banking was temporarily suspended confirm details within hours immediately",
    ],
    [
        "hi mum this is my new number old phone broke text back",
        "hello dad here using a friends mobile mine got lost reply asap",
    ],
];

/// The text of a doc of `family` with `mask`. Family 3 is a bare link:
/// no words survive canonicalization, so its shingle set is empty and it
/// never joins a template.
fn text(family: usize, mask: u16, salt: u16) -> String {
    match FAMILIES.get(family) {
        Some(rows) => {
            let rows = rows.map(|row| row.split_whitespace().collect::<Vec<_>>());
            (0..12)
                .map(|p| rows[usize::from(mask >> p & 1)][p])
                .collect::<Vec<_>>()
                .join(" ")
        }
        None => format!("https://link-{salt}.example/x"),
    }
}

/// A sparse 12-bit mask (about three bits set), so variants stay close.
fn mask() -> impl Strategy<Value = u16> {
    (0u16..4096, 0u16..4096).prop_map(|(a, b)| a & b)
}

enum Doc {
    Reuse(u32, String),
    New(String),
}

impl Doc {
    fn text(&self) -> &str {
        match self {
            Doc::Reuse(_, t) | Doc::New(t) => t,
        }
    }

    fn input(&self) -> DocInput<'_> {
        match self {
            Doc::Reuse(old, _) => DocInput::Reuse(*old),
            Doc::New(t) => DocInput::Text(t),
        }
    }
}

fn rebuilt_and_reference(prev: &SimIndex, docs: &[Doc]) -> (SimIndex, SimIndex) {
    (
        SimIndex::rebuild(prev, docs.iter().map(Doc::input)),
        SimIndex::build_with(docs.iter().map(Doc::text), *prev.config()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rebuild_after_departures_equals_a_fresh_build(
        old in prop::collection::vec((0usize..4, mask()), 0..40),
        keep in prop::collection::vec(0u8..3, 40),
        new in prop::collection::vec((0usize..4, mask(), 0usize..64), 0..10),
        reverse in 0u8..2,
    ) {
        let old_texts: Vec<String> = old
            .iter()
            .enumerate()
            .map(|(i, &(f, m))| text(f, m, i as u16))
            .collect();
        let prev = SimIndex::build(old_texts.iter().map(String::as_str));
        // About one doc in three leaves.
        let mut docs: Vec<Doc> = old_texts
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep[i] != 0)
            .map(|(i, t)| Doc::Reuse(i as u32, t.clone()))
            .collect();
        for (k, &(f, m, at)) in new.iter().enumerate() {
            docs.insert(at % (docs.len() + 1), Doc::New(text(f, m, 1000 + k as u16)));
        }
        if reverse == 1 {
            docs.reverse();
        }
        let (rebuilt, reference) = rebuilt_and_reference(&prev, &docs);
        prop_assert_eq!(rebuilt, reference);
    }
}

/// The case the repair exists for: the middle link of a chain leaves and
/// its component splits in two, and the rebuild sees it.
#[test]
fn a_departed_middle_link_splits_its_component() {
    let (a, b, c) = (text(0, 0, 0), text(0, 0b1111, 0), text(0, 0b1111_1111, 0));
    let prev = SimIndex::build([a.as_str(), b.as_str(), c.as_str()]);
    assert_eq!(prev.template_count(), 1, "a~b~c chain into one template");
    let docs = [Doc::Reuse(0, a), Doc::Reuse(2, c)];
    let (rebuilt, reference) = rebuilt_and_reference(&prev, &docs);
    assert_eq!(
        reference.template_count(),
        2,
        "a and c are not near-duplicates"
    );
    assert_eq!(rebuilt, reference);
}
