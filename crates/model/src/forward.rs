//! The encoder's one-sequence entry point and its input contract.
//!
//! [`TransformerModel::encode`] runs the encoder of Figure 1a —
//! embeddings, per-layer self-attention and feed-forward blocks with
//! residual + LayerNorm, and the pooler (FC + tanh over the first
//! token) — as a batch of one through
//! [`TransformerModel::encode_batch_with`] with the dense FP32
//! backend. There is exactly one forward implementation, so
//! a sequence encodes the same alone and inside a served batch.

use gobo_tensor::Tensor;

use crate::batch::EncodeInput;
use crate::compute::DenseCompute;
use crate::error::ModelError;
use crate::weights::TransformerModel;

/// Output of one encoder pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderOutput {
    /// Final hidden states, `(seq_len, hidden)`.
    pub hidden: Tensor,
    /// Pooled first-token representation (`tanh(W·h₀+b)`), when the
    /// model has a pooler.
    pub pooled: Option<Tensor>,
}

impl TransformerModel {
    /// Runs the full encoder over a token sequence.
    ///
    /// `type_ids` may be empty (treated as all zeros) or must match
    /// `ids` in length. Models without token-type embeddings ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for empty/overlong inputs or
    /// out-of-vocabulary ids, and propagates tensor failures.
    pub fn encode(&self, ids: &[usize], type_ids: &[usize]) -> Result<EncoderOutput, ModelError> {
        self.encode_batch_with(&DenseCompute, &[EncodeInput { ids, type_ids }])?
            .pop()
            .ok_or(ModelError::InvalidInput { what: "empty encode batch" })
    }

    /// Validates one token sequence against the model configuration.
    ///
    /// `type_ids` may be empty (treated as all zeros) or must match
    /// `ids` in length; type-id values are only range-checked when the
    /// model actually has token-type embeddings. This is exactly the
    /// admission check [`TransformerModel::encode`] performs, exposed so
    /// batched callers can vet every sequence before any compute runs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for empty/overlong inputs,
    /// out-of-vocabulary ids, or mismatched/out-of-range type ids.
    pub fn validate_input(&self, ids: &[usize], type_ids: &[usize]) -> Result<(), ModelError> {
        let config = self.config();
        if ids.is_empty() {
            return Err(ModelError::InvalidInput { what: "empty token sequence" });
        }
        if ids.len() > config.max_position {
            return Err(ModelError::InvalidInput { what: "sequence longer than max_position" });
        }
        if !type_ids.is_empty() && type_ids.len() != ids.len() {
            return Err(ModelError::InvalidInput { what: "type_ids length mismatch" });
        }
        if ids.iter().any(|&id| id >= config.vocab) {
            return Err(ModelError::InvalidInput { what: "token id outside vocabulary" });
        }
        if config.type_vocab > 0 && type_ids.iter().any(|&t| t >= config.type_vocab) {
            return Err(ModelError::InvalidInput { what: "token type id outside vocabulary" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerModel {
        let config = ModelConfig::tiny("Tiny", 2, 32, 4, 64, 16).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(3)).unwrap()
    }

    #[test]
    fn encode_shapes() {
        let m = tiny();
        let out = m.encode(&[1, 2, 3, 4, 5], &[]).unwrap();
        assert_eq!(out.hidden.dims(), &[5, 32]);
        assert_eq!(out.pooled.as_ref().unwrap().dims(), &[32]);
        assert!(out.hidden.all_finite());
        assert!(out.pooled.unwrap().all_finite());
    }

    #[test]
    fn pooled_values_in_tanh_range() {
        let m = tiny();
        let out = m.encode(&[9, 8, 7], &[]).unwrap();
        assert!(out.pooled.unwrap().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn encode_is_deterministic() {
        let m = tiny();
        let a = m.encode(&[4, 4, 4], &[0, 0, 1]).unwrap();
        let b = m.encode(&[4, 4, 4], &[0, 0, 1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn token_types_change_output() {
        let m = tiny();
        let a = m.encode(&[4, 5, 6], &[0, 0, 0]).unwrap();
        let b = m.encode(&[4, 5, 6], &[1, 1, 1]).unwrap();
        assert_ne!(a.hidden, b.hidden);
    }

    #[test]
    fn position_matters() {
        let m = tiny();
        let a = m.encode(&[10, 11], &[]).unwrap();
        let b = m.encode(&[11, 10], &[]).unwrap();
        assert_ne!(a.hidden, b.hidden);
    }

    #[test]
    fn input_validation() {
        let m = tiny();
        assert!(m.encode(&[], &[]).is_err());
        assert!(m.encode(&[999], &[]).is_err()); // out of vocab
        assert!(m.encode(&[1, 2], &[0]).is_err()); // length mismatch
        assert!(m.encode(&[1, 2], &[0, 9]).is_err()); // bad type id
        let too_long: Vec<usize> = vec![1; 17]; // max_position = 16
        assert!(m.encode(&too_long, &[]).is_err());
    }

    #[test]
    fn distilbert_like_has_no_pooled_output() {
        let mut config = ModelConfig::tiny("TinyD", 1, 16, 2, 30, 8).unwrap();
        config.has_pooler = false;
        config.type_vocab = 0;
        let m = TransformerModel::new(config, &mut StdRng::seed_from_u64(5)).unwrap();
        let out = m.encode(&[1, 2, 3], &[]).unwrap();
        assert!(out.pooled.is_none());
        assert_eq!(out.hidden.dims(), &[3, 16]);
    }

    #[test]
    fn weight_perturbation_changes_output() {
        // Plug-in compatibility sanity: replacing a weight changes the
        // forward result (the quantization pipeline relies on set_weight
        // actually being wired into encode()).
        let mut m = tiny();
        let before = m.encode(&[1, 2, 3], &[]).unwrap();
        let w = m.weight("encoder.0.intermediate").unwrap().scale(1.5);
        m.set_weight("encoder.0.intermediate", w).unwrap();
        let after = m.encode(&[1, 2, 3], &[]).unwrap();
        assert_ne!(before.hidden, after.hidden);
    }
}
