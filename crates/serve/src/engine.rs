//! The compute-on-compressed serving engine.
//!
//! A served model is resident in compressed form only. The engine's
//! model is the container's skeleton — configuration, biases,
//! LayerNorms and unarchived weights — plus archived embedding tables
//! decoded to FP32, because row gathers read FP32 rows. Every archived
//! FC layer is held only as a [`QuantizedMatrix`]; the model has no
//! FP32 copy of it. [`QuantizedEngine`] implements [`WeightCompute`],
//! routing every archived FC product to
//! [`QuantizedMatrix::matmul_blocked`] — the cache-blocked batched GEMM
//! that decodes each weight tile **once** per batch instead of once per
//! request.
//!
//! The blocked kernel is bit-identical to decoding the layer and
//! multiplying dense, so an engine-served output is byte-identical to
//! [`TransformerModel::encode`] on the decoded model — batching and
//! compression are invisible to clients.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode

use std::collections::HashMap;
use std::sync::Arc;

use gobo::format::CompressedModel;
use gobo_model::batch::EncodeInput;
use gobo_model::compute::WeightCompute;
use gobo_model::forward::EncoderOutput;
use gobo_model::{ModelError, TransformerModel};
use gobo_quant::QuantizedMatrix;
use gobo_tensor::Tensor;

use crate::error::ServeError;

/// A model paired with its compressed FC layers, executing batched
/// forwards directly on the packed representation.
#[derive(Debug)]
pub struct QuantizedEngine {
    model: Arc<TransformerModel>,
    fc: HashMap<String, QuantizedMatrix>,
}

impl QuantizedEngine {
    /// Builds the compressed-resident engine for `compressed`: the
    /// skeleton with archived embedding tables decoded, and every
    /// archived FC layer packed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Format`] when an archived embedding table
    /// does not decode to its spec, plus everything
    /// [`QuantizedEngine::new`] rejects.
    pub fn from_compressed(compressed: &CompressedModel) -> Result<Self, ServeError> {
        let model = compressed.decode_layers(|name| name.starts_with("embeddings."))?;
        Self::new(Arc::new(model), compressed)
    }

    /// Builds an engine over `model` — the skeleton of `compressed`,
    /// optionally with archived weights decoded — wrapping every
    /// archived FC weight as a [`QuantizedMatrix`] shaped by the
    /// model's spec. Archived embedding tables are skipped: they are
    /// read by row gathers, so `model` must hold them in FP32.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] when an archive entry names no
    /// weight of the model or its element count disagrees with the
    /// spec's shape.
    pub fn new(
        model: Arc<TransformerModel>,
        compressed: &CompressedModel,
    ) -> Result<Self, ServeError> {
        let mut fc = HashMap::new();
        for (name, layer) in compressed.archive.iter() {
            if name.starts_with("embeddings.") {
                continue;
            }
            let spec = model
                .weight_spec(name)
                .map_err(|_| ServeError::Internal("archive layer unknown to the model"))?;
            let matrix = QuantizedMatrix::new(layer.clone(), spec.rows, spec.cols)
                .map_err(|_| ServeError::Internal("archive layer shape mismatch"))?;
            fc.insert(spec.name, matrix);
        }
        Ok(QuantizedEngine { model, fc })
    }

    /// The model this engine computes for: for an engine from
    /// [`QuantizedEngine::from_compressed`], a skeleton without the
    /// archived FC weights.
    pub fn model(&self) -> &Arc<TransformerModel> {
        &self.model
    }

    /// Bytes the engine keeps resident: the FP32 weights its model
    /// holds plus the compressed FC layers.
    pub fn resident_bytes(&self) -> usize {
        let packed: usize = self.fc.values().map(|m| m.layer().compressed_bytes()).sum();
        self.model.weight_bytes() + packed
    }

    /// Number of FC layers served from the compressed representation.
    pub fn compressed_fc_layers(&self) -> usize {
        self.fc.len()
    }

    /// Runs the ragged batched forward pass with archived FC products
    /// computed on the compressed form.
    ///
    /// # Errors
    ///
    /// As [`TransformerModel::encode_batch`](gobo_model::TransformerModel::encode_batch).
    pub fn encode_batch(
        &self,
        inputs: &[EncodeInput<'_>],
    ) -> Result<Vec<EncoderOutput>, ModelError> {
        self.model.encode_batch_with(self, inputs)
    }
}

impl WeightCompute for QuantizedEngine {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        let Some(matrix) = self.fc.get(name) else {
            // Not archived (FP32 container, or a partially-quantized
            // model): dense product against the skeleton weight.
            return Ok(input.matmul_nt(model.weight(name)?)?);
        };
        let &[m, cols] = input.dims() else {
            return Err(ModelError::InvalidInput { what: "activation panel is not rank 2" });
        };
        if cols != matrix.cols() {
            return Err(ModelError::InvalidInput { what: "activation width mismatch" });
        }
        let out = matrix
            .matmul_blocked(input.as_slice())
            .map_err(|_| ModelError::InvalidInput { what: "compressed product failed" })?;
        Ok(Tensor::from_vec(out, &[m, matrix.rows()])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(bits: u8) -> CompressedModel {
        let config = ModelConfig::tiny("Eng", 2, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(7)).unwrap();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(bits).unwrap()).unwrap();
        CompressedModel::new(&model, outcome.archive)
    }

    #[test]
    fn engine_output_is_byte_identical_to_decoded_model() {
        let c = compressed(3);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        assert!(engine.compressed_fc_layers() > 0);

        let seqs: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![8], vec![4, 5, 6, 7, 9, 10]];
        let inputs: Vec<EncodeInput<'_>> =
            seqs.iter().map(|ids| EncodeInput { ids, type_ids: &[] }).collect();
        let served = engine.encode_batch(&inputs).unwrap();
        for (ids, got) in seqs.iter().zip(&served) {
            let direct = model.encode(ids, &[]).unwrap();
            assert_eq!(got, &direct, "engine must match dense decode bit for bit");
        }
    }

    #[test]
    fn every_fc_layer_is_served_compressed() {
        let c = compressed(4);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        // Everything archived except embedding tables is compressed-served.
        let archived_fc = c.archive.iter().filter(|(n, _)| !n.starts_with("embeddings.")).count();
        assert_eq!(engine.compressed_fc_layers(), archived_fc);
    }

    #[test]
    fn unarchived_weight_falls_back_to_dense() {
        let c = compressed(3);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        // Ask for a product against a weight the archive does not hold:
        // the embedding table (rank 2, never in `fc`).
        let emb = model.weight("embeddings.word").unwrap();
        let x = Tensor::from_vec(vec![0.5; emb.dims()[1]], &[1, emb.dims()[1]]).unwrap();
        let dense = x.matmul_nt(emb).unwrap();
        let via_engine = engine.matmul_nt(&model, "embeddings.word", &x).unwrap();
        assert_eq!(dense, via_engine);
    }
}
