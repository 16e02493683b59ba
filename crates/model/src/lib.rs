//! The BERT family of transformer encoders (Section II of the paper).
//!
//! This crate supplies everything the quantization experiments need
//! from the model side:
//!
//! * [`config`] — the exact layer geometry of BERT-Base, BERT-Large,
//!   DistilBERT, RoBERTa and RoBERTa-Large (Table I), plus tiny
//!   trainable variants used for the accuracy experiments;
//! * [`spec`] — a registry naming every FC layer and embedding table
//!   (the 73 / 145 FC layers of Figure 3) with its dimensions;
//! * [`weights`] — named weight storage and the inference-only
//!   [`weights::TransformerModel`];
//! * [`batch`] / [`compute`] — the encoder forward pass (attention,
//!   intermediate, output, pooler: Figure 1a) over a ragged batch, and
//!   the pluggable weight-product backend that lets a serving engine
//!   run the FC layers directly on compressed weights;
//! * [`forward`] — the one-sequence entry point
//!   ([`TransformerModel::encode`], a batch of one) and input
//!   validation;
//! * [`synth`] — synthetic full-scale weight generation that matches
//!   the paper's observed per-layer Gaussian-plus-outliers shape
//!   (Figures 1b/1c), substituting for the pre-trained checkpoints we
//!   cannot ship;
//! * [`footprint`] — the memory accounting behind Tables I, II and VII.
//!
//! # Example
//!
//! ```
//! use gobo_model::config::ModelConfig;
//!
//! let base = ModelConfig::bert_base();
//! assert_eq!(base.encoder_layers, 12);
//! assert_eq!(base.fc_layer_count(), 73); // 12×6 + pooler
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod compute;
pub mod config;
pub mod error;
pub mod footprint;
pub mod forward;
pub mod io;
pub mod spec;
pub mod synth;
pub mod weights;

pub use batch::EncodeInput;
pub use compute::{DenseCompute, WeightCompute};
pub use config::ModelConfig;
pub use error::ModelError;
pub use spec::{FcLayerSpec, LayerKind};
pub use weights::TransformerModel;
