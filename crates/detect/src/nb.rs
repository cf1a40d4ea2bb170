//! Multinomial Naive Bayes with Laplace smoothing, from scratch.
//!
//! The classical baseline of the smishing-detection literature (§2 cites
//! Joo et al. and Mishra & Soni building Naive Bayes systems). Generic
//! over the label type so the same code serves the binary and the
//! multi-class study.

use std::collections::HashMap;
use std::hash::Hash;

/// A trained multinomial Naive Bayes model.
#[derive(Debug, Clone)]
pub struct NaiveBayes<L: Eq + Hash + Clone + Ord> {
    /// log P(class)
    class_log_prior: Vec<(L, f64)>,
    /// per-class token counts
    token_counts: HashMap<L, HashMap<String, u32>>,
    /// per-class total token mass
    class_token_total: HashMap<L, u32>,
    /// vocabulary size (for Laplace smoothing)
    vocab: usize,
    /// smoothing constant
    alpha: f64,
}

impl<L: Eq + Hash + Clone + Ord> NaiveBayes<L> {
    /// Train on (tokens, label) samples. `alpha` is the Laplace smoothing
    /// constant (1.0 is the textbook default).
    ///
    /// Returns `None` on an empty training set.
    pub fn train(samples: &[(Vec<String>, L)], alpha: f64) -> Option<NaiveBayes<L>> {
        if samples.is_empty() {
            return None;
        }
        let mut class_counts: HashMap<L, usize> = HashMap::new();
        let mut token_counts: HashMap<L, HashMap<String, u32>> = HashMap::new();
        let mut class_token_total: HashMap<L, u32> = HashMap::new();
        let mut vocab: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (tokens, label) in samples {
            *class_counts.entry(label.clone()).or_default() += 1;
            let bucket = token_counts.entry(label.clone()).or_default();
            for t in tokens {
                vocab.insert(t);
                *bucket.entry(t.clone()).or_default() += 1;
                *class_token_total.entry(label.clone()).or_default() += 1;
            }
        }
        let n = samples.len() as f64;
        let mut class_log_prior: Vec<(L, f64)> = class_counts
            .into_iter()
            .map(|(l, c)| (l, (c as f64 / n).ln()))
            .collect();
        class_log_prior.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic order
        Some(NaiveBayes {
            class_log_prior,
            token_counts,
            class_token_total,
            vocab: vocab.len().max(1),
            alpha,
        })
    }

    /// Log-probability scores per class for a token vector, in the model's
    /// deterministic class order.
    pub fn scores(&self, tokens: &[String]) -> Vec<(L, f64)> {
        self.class_log_prior
            .iter()
            .map(|(label, prior)| {
                let counts = self.token_counts.get(label);
                let total = *self.class_token_total.get(label).unwrap_or(&0) as f64;
                let denom = total + self.alpha * self.vocab as f64;
                let mut score = *prior;
                for t in tokens {
                    let c = counts.and_then(|m| m.get(t)).copied().unwrap_or(0) as f64;
                    score += ((c + self.alpha) / denom).ln();
                }
                (label.clone(), score)
            })
            .collect()
    }

    /// The most likely class (ties break to the lexicographically smaller
    /// label, deterministically).
    pub fn predict(&self, tokens: &[String]) -> L {
        self.scores(tokens)
            .into_iter()
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite")
                    .then_with(|| b.0.cmp(&a.0))
            })
            .map(|(l, _)| l)
            .expect("trained model has classes")
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_log_prior.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn toy_model() -> NaiveBayes<&'static str> {
        let samples = vec![
            (toks("free prize claim now"), "scam"),
            (toks("account locked verify now"), "scam"),
            (toks("parcel fee pay link"), "scam"),
            (toks("dinner at eight tonight"), "ham"),
            (toks("meeting moved to friday"), "ham"),
            (toks("happy birthday love you"), "ham"),
        ];
        NaiveBayes::train(&samples, 1.0).unwrap()
    }

    #[test]
    fn learns_the_obvious() {
        let m = toy_model();
        assert_eq!(m.predict(&toks("claim your free prize")), "scam");
        assert_eq!(m.predict(&toks("see you at dinner friday")), "ham");
        assert_eq!(m.n_classes(), 2);
    }

    #[test]
    fn unseen_tokens_are_smoothed_not_fatal() {
        let m = toy_model();
        let p = m.predict(&toks("zebra qwerty unknown"));
        assert!(p == "scam" || p == "ham"); // falls back to priors, no panic
        for (_, s) in m.scores(&toks("zebra")) {
            assert!(s.is_finite());
        }
    }

    #[test]
    fn empty_training_is_none() {
        let e: Vec<(Vec<String>, u8)> = vec![];
        assert!(NaiveBayes::train(&e, 1.0).is_none());
    }

    #[test]
    fn priors_matter_for_empty_input() {
        let samples = vec![
            (toks("a"), "big"),
            (toks("b"), "big"),
            (toks("c"), "big"),
            (toks("d"), "small"),
        ];
        let m = NaiveBayes::train(&samples, 1.0).unwrap();
        assert_eq!(m.predict(&[]), "big");
    }

    #[test]
    fn deterministic_scores() {
        let m = toy_model();
        assert_eq!(
            m.scores(&toks("pay the fee")),
            m.scores(&toks("pay the fee"))
        );
    }
}
