//! # smishing-detect
//!
//! Detection models built on the reproduced dataset — the paper's §7.2
//! recommendation made concrete: "Researchers could use our labeled
//! dataset with new features such as scam typologies to develop
//! multi-class detection models, as prior work predominantly relies on
//! decade-old spam/ham datasets to build binary classifiers."
//!
//! Contents:
//!
//! - [`features`]: tokenization + structural features (URL presence,
//!   shortener, sender shape, money/urgency markers),
//! - [`nb`]: a from-scratch multinomial Naive Bayes with Laplace smoothing,
//!   generic over the label type — the classical smishing baseline the
//!   related work (§2) builds on,
//! - [`logreg`]: binary logistic regression over hashed features (SGD,
//!   L2) — the second classical baseline,
//! - [`eval`]: train/test splits, accuracy, per-class precision/recall/F1
//!   and macro-F1, confusion matrices,
//! - [`tasks`]: the two studies — binary smishing-vs-ham and multi-class
//!   scam typology — wired to the world generator, and
//!   [`smish_vs_ham`], the one smishing-vs-ham training set every binary
//!   model here and in `smishing-intel` trains on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod features;
pub mod logreg;
pub mod nb;
pub mod tasks;

pub use eval::{evaluate, evaluate_grouped, ConfusionMatrix, EvalReport};
pub use features::featurize;
pub use logreg::{LogisticRegression, LrConfig};
pub use nb::NaiveBayes;
pub use tasks::{
    baseline_comparison, binary_study, multiclass_study, multiclass_study_grouped, smish_vs_ham,
    StudyResult,
};
