//! Binary logistic regression over hashed bag-of-words features, trained
//! with SGD — the second classical baseline next to Naive Bayes.
//!
//! Implemented from scratch: feature hashing into a fixed-width weight
//! vector (no vocabulary object), log-loss gradient steps with L2
//! regularization, deterministic epoch shuffling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smishing_types::fnv1a;

/// A trained binary logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    dims: usize,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct LrConfig {
    /// Hashed feature dimensions.
    pub dims: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// SGD epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LrConfig {
    fn default() -> Self {
        LrConfig {
            dims: 1 << 16,
            lr: 0.1,
            l2: 1e-6,
            epochs: 5,
            seed: 0x106,
        }
    }
}

fn hash_token(token: &str, dims: usize) -> usize {
    (fnv1a(0, token.bytes()) % dims as u64) as usize
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Train on (tokens, label) samples; `true` is the positive class.
    /// Returns `None` on an empty training set.
    pub fn train(samples: &[(Vec<String>, bool)], config: LrConfig) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut model = LogisticRegression {
            weights: vec![0.0; config.dims],
            bias: 0.0,
            dims: config.dims,
        };
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (tokens, label) = &samples[i];
                let y = if *label { 1.0 } else { 0.0 };
                let p = model.probability(tokens);
                let err = p - y; // d(logloss)/dz
                model.bias -= config.lr * err;
                for t in tokens {
                    let idx = hash_token(t, model.dims);
                    let w = &mut model.weights[idx];
                    *w -= config.lr * (err + config.l2 * *w);
                }
            }
        }
        Some(model)
    }

    /// P(positive | tokens).
    pub fn probability(&self, tokens: &[String]) -> f64 {
        let mut z = self.bias;
        for t in tokens {
            z += self.weights[hash_token(t, self.dims)];
        }
        sigmoid(z)
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, tokens: &[String]) -> bool {
        self.probability(tokens) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hash_token` as it was before it called `fnv1a`, verbatim.
    fn hash_token_loop(token: &str, dims: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in token.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % dims as u64) as usize
    }

    proptest! {
        #[test]
        fn hash_token_matches_its_former_loop(token in "\\PC{0,24}", dims in 1usize..1 << 20) {
            prop_assert_eq!(hash_token(&token, dims), hash_token_loop(&token, dims));
        }
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn corpus() -> Vec<(Vec<String>, bool)> {
        let mut out = Vec::new();
        for i in 0..80 {
            out.push((toks(&format!("urgent account locked verify fee {i}")), true));
            out.push((
                toks(&format!("dinner friday cat birthday thanks {i}")),
                false,
            ));
        }
        out
    }

    #[test]
    fn learns_a_separable_problem() {
        let model = LogisticRegression::train(&corpus(), LrConfig::default()).unwrap();
        assert!(model.predict(&toks("urgent verify your locked account")));
        assert!(!model.predict(&toks("thanks for dinner friday")));
        assert!(model.probability(&toks("urgent fee")) > 0.8);
        assert!(model.probability(&toks("birthday cat")) < 0.2);
    }

    #[test]
    fn training_is_deterministic() {
        let a = LogisticRegression::train(&corpus(), LrConfig::default()).unwrap();
        let b = LogisticRegression::train(&corpus(), LrConfig::default()).unwrap();
        assert_eq!(
            a.probability(&toks("urgent")),
            b.probability(&toks("urgent"))
        );
    }

    #[test]
    fn empty_training_is_none() {
        assert!(LogisticRegression::train(&[], LrConfig::default()).is_none());
    }

    #[test]
    fn unknown_tokens_fall_back_to_bias() {
        let model = LogisticRegression::train(&corpus(), LrConfig::default()).unwrap();
        let p = model.probability(&toks("zzz qqq www"));
        // Hash collisions make this inexact, but it stays near the prior.
        assert!((0.05..0.95).contains(&p), "{p}");
    }

    #[test]
    fn l2_keeps_weights_bounded() {
        let strong_l2 = LrConfig {
            l2: 0.1,
            ..LrConfig::default()
        };
        let model = LogisticRegression::train(&corpus(), strong_l2).unwrap();
        let max_w = model
            .weights
            .iter()
            .cloned()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(max_w < 5.0, "{max_w}");
    }
}
