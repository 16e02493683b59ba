//! Named weight storage and the inference-only transformer.

use std::collections::BTreeMap;

use gobo_tensor::rng::{randn, xavier_normal};
use gobo_tensor::Tensor;
use rand::Rng;

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::spec::{enumerate_embedding_tables, enumerate_fc_layers, FcLayerSpec};

/// An FP32 transformer encoder with named, individually replaceable
/// weight matrices.
///
/// This is the "execution engine" side of the paper's plug-in
/// compatibility claim: quantization produces FP32 tensors of identical
/// shape, which are swapped in via [`TransformerModel::set_weight`] and
/// run through the unmodified [`forward`](crate::forward) pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: ModelConfig,
    /// Quantizable weight matrices: FC layers + embedding tables.
    weights: BTreeMap<String, Tensor>,
    /// Non-quantized parameters: biases and LayerNorm gamma/beta.
    aux: BTreeMap<String, Tensor>,
}

impl TransformerModel {
    /// Builds a model with random weights: Xavier-normal FC matrices
    /// (Gaussian-shaped, like trained BERT layers — Figure 1b),
    /// `N(0, 0.02²)` embeddings, zero biases, unit LayerNorm gains.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ModelConfig, rng: &mut impl Rng) -> Result<Self, ModelError> {
        let mut model = Self::skeleton(config)?;
        for spec in enumerate_fc_layers(&model.config) {
            model.weights.insert(spec.name.clone(), xavier_normal(rng, spec.rows, spec.cols));
        }
        for spec in enumerate_embedding_tables(&model.config) {
            model.weights.insert(spec.name.clone(), randn(rng, &[spec.rows, spec.cols], 0.0, 0.02));
        }
        Ok(model)
    }

    /// Builds a model that holds no quantizable weight yet: zero
    /// biases and unit LayerNorm gains only. Weights are added with
    /// [`TransformerModel::set_weight`]; until then
    /// [`TransformerModel::weight`] reports them as unknown, so a dense
    /// product against a missing weight is an error, never a silent
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn skeleton(config: ModelConfig) -> Result<Self, ModelError> {
        config.validate()?;
        let mut aux = BTreeMap::new();
        let h = config.hidden;
        let mut ln = |name: String| {
            aux.insert(format!("{name}.gamma"), Tensor::ones(&[h]));
            aux.insert(format!("{name}.beta"), Tensor::zeros(&[h]));
        };
        ln("embeddings.ln".into());
        for e in 0..config.encoder_layers {
            ln(format!("encoder.{e}.attention.ln"));
            ln(format!("encoder.{e}.output.ln"));
        }
        for spec in enumerate_fc_layers(&config) {
            aux.insert(format!("{}.bias", spec.name), Tensor::zeros(&[spec.rows]));
        }
        Ok(TransformerModel { config, weights: BTreeMap::new(), aux })
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Borrows a quantizable weight matrix by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names.
    pub fn weight(&self, name: &str) -> Result<&Tensor, ModelError> {
        self.weights.get(name).ok_or_else(|| ModelError::UnknownLayer { name: name.into() })
    }

    /// Sets a quantizable weight matrix, enforcing the shape its spec
    /// gives. The weight need not be present yet.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names and
    /// [`ModelError::WeightShape`] when the shapes differ.
    pub fn set_weight(&mut self, name: &str, tensor: Tensor) -> Result<(), ModelError> {
        let spec = self.weight_spec(name)?;
        if tensor.dims() != [spec.rows, spec.cols] {
            return Err(ModelError::WeightShape {
                layer: name.into(),
                expected: vec![spec.rows, spec.cols],
                got: tensor.dims().to_vec(),
            });
        }
        self.weights.insert(spec.name, tensor);
        Ok(())
    }

    /// Removes a quantizable weight matrix, returning it if it was
    /// present.
    pub fn remove_weight(&mut self, name: &str) -> Option<Tensor> {
        self.weights.remove(name)
    }

    /// The spec (kind and shape) of the quantizable weight `name`,
    /// whether or not the model currently holds it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names.
    pub fn weight_spec(&self, name: &str) -> Result<FcLayerSpec, ModelError> {
        self.fc_layers()
            .into_iter()
            .chain(self.embedding_tables())
            .find(|spec| spec.name == name)
            .ok_or_else(|| ModelError::UnknownLayer { name: name.into() })
    }

    /// Borrows an auxiliary (bias / LayerNorm) parameter by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names.
    pub fn aux(&self, name: &str) -> Result<&Tensor, ModelError> {
        self.aux.get(name).ok_or_else(|| ModelError::UnknownLayer { name: name.into() })
    }

    /// Replaces an auxiliary parameter, enforcing shape equality.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::set_weight`].
    pub fn set_aux(&mut self, name: &str, tensor: Tensor) -> Result<(), ModelError> {
        let slot =
            self.aux.get_mut(name).ok_or_else(|| ModelError::UnknownLayer { name: name.into() })?;
        if slot.dims() != tensor.dims() {
            return Err(ModelError::WeightShape {
                layer: name.into(),
                expected: slot.dims().to_vec(),
                got: tensor.dims().to_vec(),
            });
        }
        *slot = tensor;
        Ok(())
    }

    /// Iterates over `(name, tensor)` for the quantizable weights the
    /// model holds, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.weights.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Specs of the model's FC layers.
    pub fn fc_layers(&self) -> Vec<FcLayerSpec> {
        enumerate_fc_layers(&self.config)
    }

    /// Specs of the model's embedding tables.
    pub fn embedding_tables(&self) -> Vec<FcLayerSpec> {
        enumerate_embedding_tables(&self.config)
    }

    /// Total FP32 bytes of the quantizable weights the model holds.
    pub fn weight_bytes(&self) -> usize {
        self.weights.values().map(|t| t.len() * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerModel {
        let config = ModelConfig::tiny("Tiny", 2, 32, 4, 50, 16).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(1)).unwrap()
    }

    #[test]
    fn construction_creates_all_layers() {
        let m = tiny();
        assert_eq!(m.fc_layers().len(), 13); // 2×6 + pooler
        assert!(m.weight("encoder.0.attention.query").is_ok());
        assert!(m.weight("encoder.1.output").is_ok());
        assert!(m.weight("pooler").is_ok());
        assert!(m.weight("embeddings.word").is_ok());
        assert!(m.weight("embeddings.token_type").is_ok());
        assert!(m.aux("encoder.0.attention.ln.gamma").is_ok());
        assert!(m.aux("pooler.bias").is_ok());
    }

    #[test]
    fn unknown_layer_is_error() {
        let m = tiny();
        assert!(matches!(m.weight("encoder.9.output"), Err(ModelError::UnknownLayer { .. })));
        assert!(m.aux("nope").is_err());
    }

    #[test]
    fn skeleton_holds_no_weight_until_set() {
        let mut m = TransformerModel::skeleton(tiny().config().clone()).unwrap();
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.weight_bytes(), 0);
        assert!(matches!(m.weight("pooler"), Err(ModelError::UnknownLayer { .. })));
        assert!(m.aux("pooler.bias").is_ok());
        let spec = m.weight_spec("pooler").unwrap();
        m.set_weight("pooler", Tensor::zeros(&[spec.rows, spec.cols])).unwrap();
        assert!(m.weight("pooler").is_ok());
        assert!(matches!(
            m.set_weight("encoder.0.output", Tensor::zeros(&[2, 2])),
            Err(ModelError::WeightShape { .. })
        ));
        assert!(m.remove_weight("pooler").is_some());
        assert!(m.weight("pooler").is_err());
    }

    #[test]
    fn set_weight_replaces_and_checks_shape() {
        let mut m = tiny();
        let dims = m.weight("pooler").unwrap().dims().to_vec();
        let new = Tensor::full(&dims, 0.5);
        m.set_weight("pooler", new.clone()).unwrap();
        assert_eq!(m.weight("pooler").unwrap(), &new);
        assert!(matches!(
            m.set_weight("pooler", Tensor::zeros(&[2, 2])),
            Err(ModelError::WeightShape { .. })
        ));
        assert!(m.set_weight("missing", Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn shapes_match_specs() {
        let m = tiny();
        for spec in m.fc_layers().iter().chain(&m.embedding_tables()) {
            let w = m.weight(&spec.name).unwrap();
            assert_eq!(w.dims(), &[spec.rows, spec.cols], "{}", spec.name);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ModelConfig::tiny("Tiny", 1, 16, 2, 20, 8).unwrap();
        let a = TransformerModel::new(config.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
        let b = TransformerModel::new(config.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
        let c = TransformerModel::new(config, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weight_bytes_counts_fc_and_embeddings() {
        let m = tiny();
        let expected: usize =
            m.fc_layers().iter().chain(&m.embedding_tables()).map(|s| s.params() * 4).sum();
        assert_eq!(m.weight_bytes(), expected);
    }

    #[test]
    fn iter_visits_every_weight_once() {
        let m = tiny();
        let count = m.iter().count();
        assert_eq!(count, m.fc_layers().len() + m.embedding_tables().len());
    }
}
