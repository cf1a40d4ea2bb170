//! Property-based tests for the featurizer: its words are
//! `canonical_text`'s minus pure numbers, and with the markers they match
//! the per-chunk featurizer they replaced, in order.

mod oracle;
#[path = "../../textnlp/tests/oracle/mod.rs"]
mod text_oracle;

use proptest::prelude::*;
use smishing_detect::featurize;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn features_match_the_per_chunk_oracle_on_arbitrary_text(s in "\\PC{0,160}") {
        prop_assert_eq!(featurize(&s), oracle::featurize(&s), "{:?}", s);
    }

    #[test]
    fn features_match_the_per_chunk_oracle_on_chunked_text(s in text_oracle::fold_text()) {
        prop_assert_eq!(featurize(&s), oracle::featurize(&s), "{:?}", s);
    }
}
