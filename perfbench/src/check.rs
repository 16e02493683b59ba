//! Output check: every response is compared with the dense-FP32
//! reference `TransformerModel::encode` computes on the decoded
//! revision. Quantized transformers fail through silently wrong
//! numbers, not crashes, so a response that arrives but deviates counts
//! as a failed request.

use gobo_model::TransformerModel;

use crate::rng::Input;

/// Largest absolute deviation accepted per element: the documented
/// reassociation tolerance of `crates/quant/tests/matrix_parity.rs`.
pub const PARITY_BAR: f32 = 1e-4;

/// Dense-FP32 output for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Final hidden states, row-major `(len, hidden)`.
    pub hidden: Vec<f32>,
    /// Pooled first-token representation.
    pub pooled: Option<Vec<f32>>,
}

/// References for every input of a pool, in pool order, computed on
/// two threads (set-up is not timed as serving).
pub fn references(model: &TransformerModel, pool: &[Input]) -> Vec<Reference> {
    let one = |input: &Input| {
        let out = model
            .encode(&input.ids, &input.type_ids)
            .expect("pool inputs are generated inside the model's vocabulary and length");
        Reference {
            hidden: out.hidden.into_vec(),
            pooled: out.pooled.map(gobo_tensor::Tensor::into_vec),
        }
    };
    let (first, second) = pool.split_at(pool.len() / 2);
    std::thread::scope(|s| {
        let first = s.spawn(|| first.iter().map(one).collect::<Vec<_>>());
        let second: Vec<Reference> = second.iter().map(one).collect();
        let mut out = first.join().expect("reference thread panicked");
        out.extend(second);
        out
    })
}

/// Largest absolute element deviation of a response from its
/// reference; infinite when shapes differ or a value is not finite.
pub fn deviation(want: &Reference, hidden: &[f32], pooled: Option<&[f32]>) -> f32 {
    fn max_dev(a: &[f32], b: &[f32]) -> f32 {
        if a.len() != b.len() {
            return f32::INFINITY;
        }
        a.iter().zip(b).fold(0.0f32, |m, (x, y)| {
            let d = (x - y).abs();
            if d.is_nan() {
                f32::INFINITY
            } else {
                m.max(d)
            }
        })
    }
    let pooled_dev = match (&want.pooled, pooled) {
        (Some(w), Some(g)) => max_dev(w, g),
        (None, None) => 0.0,
        _ => f32::INFINITY,
    };
    max_dev(&want.hidden, hidden).max(pooled_dev)
}

/// Running tally of checked responses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Responses compared.
    pub checked: u64,
    /// Responses beyond [`PARITY_BAR`].
    pub wrong: u64,
    /// Largest deviation seen.
    pub max_dev: f32,
}

impl Tally {
    /// Compares one response; returns whether it passed.
    pub fn check(&mut self, want: &Reference, hidden: &[f32], pooled: Option<&[f32]>) -> bool {
        let dev = deviation(want, hidden, pooled);
        self.checked += 1;
        self.max_dev = self.max_dev.max(dev);
        let ok = dev <= PARITY_BAR;
        if !ok {
            self.wrong += 1;
        }
        ok
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        self.max_dev = self.max_dev.max(other.max_dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_a_perturbed_response() {
        let config = ModelConfig::tiny("Check", 1, 32, 4, 64, 16).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(1)).unwrap();
        let pool = crate::rng::input_pool(5, &[3, 7], 1, 64, false);
        let refs = references(&model, &pool);
        let mut tally = Tally::default();

        let exact = refs[0].clone();
        assert!(tally.check(&refs[0], &exact.hidden, exact.pooled.as_deref()));

        let mut perturbed = refs[0].clone();
        perturbed.hidden[5] += 1e-3;
        assert!(!tally.check(&refs[0], &perturbed.hidden, perturbed.pooled.as_deref()));

        let mut pooled_off = refs[0].clone();
        if let Some(p) = pooled_off.pooled.as_mut() {
            p[0] = f32::NAN;
        }
        assert!(!tally.check(&refs[0], &pooled_off.hidden, pooled_off.pooled.as_deref()));

        // The other input's output, or a truncated one, is wrong too.
        assert!(!tally.check(&refs[0], &refs[1].hidden, refs[1].pooled.as_deref()));
        assert!(!tally.check(&refs[0], &exact.hidden[1..], exact.pooled.as_deref()));
        assert!(!tally.check(&refs[0], &exact.hidden, None));

        assert_eq!((tally.checked, tally.wrong), (6, 5));
        assert!(tally.max_dev.is_infinite());
    }

    #[test]
    fn tolerates_reassociation_noise() {
        let want = Reference { hidden: vec![1.0, -2.0], pooled: None };
        let mut tally = Tally::default();
        assert!(tally.check(&want, &[1.0 + 5e-5, -2.0], None));
        assert!((tally.max_dev - 5e-5).abs() < 1e-6);
    }
}
