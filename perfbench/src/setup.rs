//! Bringing a model up: synthesize, quantize, build the container,
//! publish it into a serving core and warm it up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::{ModelConfig, TransformerModel};
use gobo_serve::{Client, EncodeRequest, ServeCore, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GOBO index width of every FC layer.
pub const BITS: u8 = 3;

/// Weights are fixed, not drawn from the workload seed: the seed varies
/// what is sent, never how much work a request is.
const MODEL_SEED: u64 = 0x60b0;

/// Name the model is served under.
pub const MODEL_NAME: &str = "bench";

/// BERT-Base layer geometry (Table I: hidden 768, intermediate 3072,
/// 12 heads), 2 encoder layers plus the pooler, vocabulary trimmed to
/// 1024 rows and positions to the longest request.
pub fn bert_config() -> ModelConfig {
    ModelConfig {
        name: "BERT-Base-2L".into(),
        encoder_layers: 2,
        vocab: 1024,
        max_position: 128,
        ..ModelConfig::bert_base()
    }
}

/// The small model of the wire workload: 2 layers, hidden 64, 4 heads.
pub fn tiny_config() -> ModelConfig {
    ModelConfig::tiny("Tiny-64", 2, 64, 4, 512, 64).expect("valid tiny geometry")
}

/// Synthesizes the FP32 model. `perturb` > 0 returns a perturbed copy —
/// a second revision of the same model — whose FC weights differ by a
/// deterministic relative wobble of that size.
pub fn synthesize(config: &ModelConfig, perturb: f32) -> TransformerModel {
    let mut model = TransformerModel::new(config.clone(), &mut StdRng::seed_from_u64(MODEL_SEED))
        .expect("valid model geometry");
    if perturb > 0.0 {
        for spec in model.fc_layers() {
            let w = model.weight(&spec.name).expect("enumerated layer");
            let mut data = w.as_slice().to_vec();
            for (i, v) in data.iter_mut().enumerate() {
                *v *= 1.0 + perturb * ((i % 17) as f32 - 8.0) / 8.0;
            }
            let t = gobo_tensor::Tensor::from_vec(data, w.dims()).expect("same shape");
            model.set_weight(&spec.name, t).expect("enumerated layer");
        }
    }
    model
}

/// A quantized revision: its container bytes and what producing it cost.
pub struct Revision {
    /// The serialized `.gobom` container.
    pub bytes: Vec<u8>,
    /// Wall time of `quantize_model`, seconds.
    pub quantize_s: f64,
    /// Original ÷ compressed bytes of the quantized layers.
    pub compression_ratio: f64,
}

/// Quantizes every FC layer with 3-bit GOBO and serializes the result.
pub fn quantize(model: &TransformerModel) -> Revision {
    let options = QuantizeOptions::gobo(BITS).expect("3 bits is supported");
    let started = Instant::now();
    let quantized = quantize_model(model, &options).expect("synthetic weights quantize");
    let quantize_s = started.elapsed().as_secs_f64();
    let compression_ratio = quantized.report.compression_ratio();
    let bytes = CompressedModel::new(&quantized.model, quantized.archive).to_bytes();
    Revision { bytes, quantize_s, compression_ratio }
}

/// The FP32 model a container decodes to: what references are computed on.
pub fn decode(bytes: &[u8]) -> TransformerModel {
    CompressedModel::from_bytes(bytes)
        .and_then(|c| c.decode())
        .expect("a container this benchmark wrote decodes")
}

/// Writes `bytes` to `dir/file` and returns the path.
pub fn write(dir: &Path, file: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(file);
    std::fs::write(&path, bytes).expect("benchmark scratch directory is writable");
    path
}

/// A serving core with the model published and warmed up.
pub struct Served {
    /// The running core.
    pub core: Arc<ServeCore>,
    /// Wall time of the publishing `ServeCore::reload`, ms.
    pub publish_ms: f64,
}

/// Starts a core, publishes the container at `path` through
/// `ServeCore::reload` and serves one request per warm-up input.
pub fn serve(options: ServeOptions, path: &Path, warm: &[Vec<usize>]) -> Served {
    let core = ServeCore::start(options);
    let started = Instant::now();
    core.reload(MODEL_NAME, &path.to_string_lossy()).expect("a fresh container publishes");
    let publish_ms = started.elapsed().as_secs_f64() * 1e3;
    let client = Client::new(Arc::clone(&core));
    for ids in warm {
        client.encode(EncodeRequest::new(MODEL_NAME, ids.clone())).expect("warm-up request");
    }
    Served { core, publish_ms }
}

/// One full set-up of a BERT-geometry model: synthesize, quantize,
/// write the container, publish and warm up.
pub struct Setup {
    /// The FP32 source model (the benchmark drops it before measuring).
    pub model: TransformerModel,
    /// The quantized revision.
    pub revision: Revision,
    /// Where the container was written.
    pub path: PathBuf,
    /// The serving core.
    pub served: Served,
    /// Wall time of the whole set-up, seconds.
    pub setup_s: f64,
}

/// Runs one set-up of `config` into `dir`.
pub fn bring_up(
    config: &ModelConfig,
    options: ServeOptions,
    dir: &Path,
    warm: &[Vec<usize>],
) -> Setup {
    let started = Instant::now();
    let model = synthesize(config, 0.0);
    let revision = quantize(&model);
    let path = write(dir, "rev-a.gobom", &revision.bytes);
    let served = serve(options, &path, warm);
    Setup { model, revision, path, served, setup_s: started.elapsed().as_secs_f64() }
}
