//! Per-layer measurements, each taken from outside by timing calls into
//! one layer's public functions inside a benchmark span.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo_model::batch::EncodeInput;
use gobo_model::compute::WeightCompute;
use gobo_model::{ModelConfig, ModelError, TransformerModel};
use gobo_proto::{read_frame, write_frame, EncodeOkFrame, EncodeResponseFrame, Frame, MAX_PAYLOAD};
use gobo_quant::{QuantConfig, QuantMethod, QuantizedLayer, QuantizedMatrix};
use gobo_serve::json::{parse, Json};
use gobo_serve::{parse_encode_body, QuantizedEngine, ServeCore, ServeOptions};
use gobo_tensor::embed::gather_rows;
use gobo_tensor::linalg::{merge_heads, split_heads, transpose_batched};
use gobo_tensor::norm::LAYER_NORM_EPS;
use gobo_tensor::Tensor;

use crate::report::{shape_label, Report, ROWS, SHAPES};
use crate::rng::{Input, Rng};
use crate::setup;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Calls `f` inside a span named `name` until at least `min_reps` calls
/// and `min_time` have passed (at most `max_reps`), and returns the
/// median span duration in ms.
fn repeat(
    tracer: &Tracer,
    name: &str,
    min_reps: usize,
    max_reps: usize,
    min_time: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps || (started.elapsed() < min_time && reps < max_reps) {
        tracer.span(name, 0, 0, |_| f());
        reps += 1;
    }
    median_ms(tracer, name)
}

fn median_ms(tracer: &Tracer, name: &str) -> f64 {
    Samples::new(tracer.durations_ms(name)).median().unwrap_or(0.0)
}

fn random(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect()
}

/// The FC kernel table at the BERT-Base shapes: the 3-bit blocked
/// compressed kernel beside the dense FP32 product of the same shape
/// and row count, the per-row matvec, the bytes each reads, the largest
/// deviation between them, and the time to quantize each layer.
pub fn kernel_table(tracer: &Tracer, report: &mut Report, lines: &mut Vec<String>) {
    let model = setup::synthesize(&setup::bert_config(), 0.0);
    let mut rng = Rng::new(0, "kernel-table");
    let config = QuantConfig::new(QuantMethod::Gobo, setup::BITS).expect("3 bits is supported");
    lines.push(format!(
        "  {:<10} {:>4} {:>12} {:>12} {:>8}   (us; dense FP32 reads {} B/weight)",
        "shape", "rows", "blocked", "dense", "dense/q", 4
    ));
    for (shape, layer_name) in SHAPES.iter().zip([
        "encoder.0.attention.query",
        "encoder.0.intermediate",
        "encoder.0.output",
    ]) {
        let (rows, cols) = *shape;
        let s = shape_label(*shape);
        let weights = model.weight(layer_name).expect("BERT layer");
        assert_eq!(weights.dims(), [rows, cols], "{layer_name} has the table's shape");
        let mut layer = None;
        let quantize_ms =
            repeat(tracer, &format!("quant.quantize_layer.{s}"), 2, 2, Duration::ZERO, || {
                layer =
                    Some(QuantizedLayer::encode(weights.as_slice(), &config).expect("quantizes"));
            });
        let layer = layer.expect("quantized at least once");
        let sizes = layer.size_breakdown();
        let weight_bytes = sizes.index_bytes
            + sizes.codebook_bytes
            + sizes.outlier_value_bytes
            + sizes.outlier_position_bytes;
        let matrix = QuantizedMatrix::new(layer, rows, cols).expect("shape matches");
        let dense = Tensor::from_vec(matrix.to_dense(), &[rows, cols]).expect("shape matches");
        report.put(&format!("quant.quantize_layer_ms.{s}"), quantize_ms, "median of 2");
        report.put(
            &format!("quant.weight_bytes.{s}"),
            weight_bytes as f64,
            format!("packed+codebook+outliers; dense FP32 is {} B", rows * cols * 4),
        );

        let mut max_dev = 0.0f32;
        for r in ROWS {
            let x = random(&mut rng, r * cols);
            let xt = Tensor::from_vec(x.clone(), &[r, cols]).expect("shape matches");
            let (bname, dname) =
                (format!("quant.blocked.{s}.r{r}"), format!("tensor.dense.{s}.r{r}"));
            // Alternate the two kernels so drift in machine load hits both.
            let started = Instant::now();
            let mut reps = 0;
            let (mut q_out, mut d_out) = (Vec::new(), Vec::new());
            while reps < 3 || (started.elapsed() < Duration::from_millis(400) && reps < 40) {
                q_out = tracer.span(&bname, 0, 0, |_| {
                    black_box(matrix.matmul_blocked(black_box(&x)).expect("shape matches"))
                });
                d_out = tracer.span(&dname, 0, 0, |_| {
                    black_box(xt.matmul_nt(black_box(&dense)).expect("shape matches")).into_vec()
                });
                reps += 1;
            }
            let (q_us, d_us) = (median_ms(tracer, &bname) * 1e3, median_ms(tracer, &dname) * 1e3);
            max_dev = q_out.iter().zip(&d_out).fold(max_dev, |m, (a, b)| m.max((a - b).abs()));
            report.put(&format!("quant.blocked_us.{s}.r{r}"), q_us, format!("median of {reps}"));
            report.put(&format!("tensor.dense_us.{s}.r{r}"), d_us, format!("median of {reps}"));
            lines.push(format!("  {s:<10} {r:>4} {q_us:>12.1} {d_us:>12.1} {:>8.2}", d_us / q_us));
        }
        report.put(
            &format!("quant.max_abs_dev.{s}"),
            f64::from(max_dev),
            "blocked vs dense, all rows",
        );
        let x = random(&mut rng, cols);
        let mv_ms = repeat(
            tracer,
            &format!("quant.matvec.{s}.r1"),
            3,
            40,
            Duration::from_millis(200),
            || {
                black_box(matrix.matvec(black_box(&x)).expect("shape matches"));
            },
        );
        report.put(&format!("quant.matvec_us.{s}.r1"), mv_ms * 1e3, "median");
    }
}

/// Non-FC tensor operations of one encoder layer at sequence length
/// `len`: attention (head split, scores, softmax, context, merge),
/// LayerNorm, GELU over the intermediate panel, and the embedding
/// gather.
pub fn tensor_ops(config: &ModelConfig, len: usize, tracer: &Tracer, report: &mut Report) {
    let mut rng = Rng::new(len as u64, "tensor-ops");
    let h = config.hidden;
    let panel = |rng: &mut Rng, cols: usize| {
        Tensor::from_vec(random(rng, len * cols), &[len, cols]).expect("shape matches")
    };
    let (q, k, v) = (panel(&mut rng, h), panel(&mut rng, h), panel(&mut rng, h));
    let inter = panel(&mut rng, config.intermediate);
    let (gamma, beta) = (Tensor::ones(&[h]), Tensor::zeros(&[h]));
    let table = Tensor::from_vec(random(&mut rng, config.vocab * h), &[config.vocab, h])
        .expect("shape matches");
    let ids: Vec<usize> = (0..len).map(|_| rng.below(config.vocab)).collect();
    let scale = 1.0 / (config.head_dim() as f32).sqrt();
    let min_time = Duration::from_millis(150);
    let note = format!("median, seq len {len}");

    let attention = repeat(tracer, "tensor.attention", 5, 400, min_time, || {
        let qh = split_heads(&q, config.heads).expect("heads divide hidden");
        let kh = split_heads(&k, config.heads).expect("heads divide hidden");
        let vh = split_heads(&v, config.heads).expect("heads divide hidden");
        let scores = qh
            .batch_matmul(&transpose_batched(&kh).expect("rank 3"))
            .expect("shapes match")
            .scale(scale);
        let probs = scores.softmax().expect("rank >= 1");
        black_box(merge_heads(&probs.batch_matmul(&vh).expect("shapes match")).expect("rank 3"));
    });
    report.put("tensor.attention_us", attention * 1e3, note.clone());
    let ln = repeat(tracer, "tensor.layer_norm", 5, 2000, min_time, || {
        black_box(q.layer_norm(&gamma, &beta, LAYER_NORM_EPS).expect("shapes match"));
    });
    report.put("tensor.layer_norm_us", ln * 1e3, note.clone());
    let gelu = repeat(tracer, "tensor.gelu", 5, 2000, min_time, || {
        black_box(inter.gelu());
    });
    report.put("tensor.gelu_us", gelu * 1e3, note.clone());
    let gather = repeat(tracer, "tensor.gather", 5, 5000, min_time, || {
        black_box(gather_rows(&table, &ids).expect("ids in vocabulary"));
    });
    report.put("tensor.gather_us", gather * 1e3, note);
}

/// Container parse (`from_bytes`, CRC included), FP32 decode, engine
/// build and an idle `ServeCore::reload`, each timed alone on `bytes`.
pub fn format_and_publish(
    bytes: &[u8],
    dir: &std::path::Path,
    tracer: &Tracer,
    report: &mut Report,
) {
    let mut compressed = None;
    let parse_ms = repeat(tracer, "format.from_bytes", 3, 3, Duration::ZERO, || {
        compressed = Some(CompressedModel::from_bytes(bytes).expect("valid container"));
    });
    let compressed = compressed.expect("parsed at least once");
    let mut model = None;
    let decode_ms = repeat(tracer, "format.decode", 3, 3, Duration::ZERO, || {
        model = Some(Arc::new(compressed.decode().expect("valid container")));
    });
    let model = model.expect("decoded at least once");
    let build_ms = repeat(tracer, "serve.engine_build", 3, 3, Duration::ZERO, || {
        black_box(QuantizedEngine::new(Arc::clone(&model), &compressed).expect("matching shapes"));
    });
    drop((compressed, model));
    let path = setup::write(dir, "idle-publish.gobom", bytes);
    let core = ServeCore::start(ServeOptions::default());
    let publish_ms = repeat(tracer, "serve.reload.idle", 3, 3, Duration::ZERO, || {
        core.reload("idle", &path.to_string_lossy()).expect("valid container publishes");
    });
    core.shutdown();
    report.put("format.parse_ms", parse_ms, "median of 3, CRC included");
    report.put("format.decode_ms", decode_ms, "median of 3");
    report.put("serve.engine_build_ms", build_ms, "median of 3");
    report.put("serve.publish_ms.idle", publish_ms, "median of 3, no traffic");
    report.put(
        "serve.container_mib",
        bytes.len() as f64 / (1 << 20) as f64,
        format!("{} B", bytes.len()),
    );
}

/// What a served response carried, for the JSON and frame codecs.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Hidden states.
    pub hidden: Vec<f32>,
    /// `[len, hidden]`.
    pub dims: [usize; 2],
    /// Pooled output.
    pub pooled: Option<Vec<f32>>,
    /// Batch the request rode in.
    pub batch_size: usize,
    /// Queue wait, µs.
    pub queue_us: u64,
    /// Batch compute, µs.
    pub compute_us: u64,
}

impl Payload {
    /// The codec view of an in-process response.
    pub fn from_response(resp: &gobo_serve::EncodeResponse) -> Payload {
        Payload {
            hidden: resp.hidden.clone(),
            dims: resp.hidden_dims,
            pooled: resp.pooled.clone(),
            batch_size: resp.batch_size,
            queue_us: resp.queue_us,
            compute_us: resp.compute_us,
        }
    }
}

/// Renders a payload as the node's `POST /v1/encode` body.
pub fn render_json(p: &Payload) -> String {
    let pooled = p.pooled.as_deref().map_or(Json::Null, Json::f32_array);
    Json::obj(vec![
        ("model", Json::from(setup::MODEL_NAME)),
        ("bits", Json::Num(f64::from(setup::BITS))),
        ("batch_size", Json::Num(p.batch_size as f64)),
        ("queue_us", Json::Num(p.queue_us as f64)),
        ("compute_us", Json::Num(p.compute_us as f64)),
        (
            "hidden",
            Json::obj(vec![
                ("dims", Json::usize_array(&p.dims)),
                ("data", Json::f32_array(&p.hidden)),
            ]),
        ),
        ("pooled", pooled),
    ])
    .to_string()
}

/// The `POST /v1/encode` request body for `input`.
pub fn request_body(input: &Input) -> String {
    let mut fields =
        vec![("model", Json::from(setup::MODEL_NAME)), ("ids", Json::usize_array(&input.ids))];
    if !input.type_ids.is_empty() {
        fields.push(("type_ids", Json::usize_array(&input.type_ids)));
    }
    Json::obj(fields).to_string()
}

/// Request parsing (`parse_encode_body`) of the workload's inputs, JSON
/// render/parse and proto frame write/read of served payloads.
pub fn codecs(inputs: &[Input], payloads: &[Payload], tracer: &Tracer, report: &mut Report) {
    for (i, input) in inputs.iter().enumerate() {
        let body = request_body(input);
        let parsed = tracer.span("serve.parse_encode_body", i as u64, 0, |_| {
            parse_encode_body(body.as_bytes()).expect("valid request body")
        });
        assert_eq!(parsed.ids, input.ids, "request body round-trips");
    }
    report.put(
        "serve.request_parse_us",
        median_ms(tracer, "serve.parse_encode_body") * 1e3,
        format!("median of {}", inputs.len()),
    );
    let mut body_bytes = Vec::new();
    let mut frame_bytes = Vec::new();
    for (i, p) in payloads.iter().enumerate() {
        let body = tracer.span("serve.json.render", i as u64, 0, |_| render_json(p));
        body_bytes.push(body.len() as f64);
        tracer.span("serve.json.parse", i as u64, 0, |_| {
            black_box(parse(&body).expect("valid JSON"))
        });
        let frame = Frame::EncodeResponse(EncodeResponseFrame {
            id: i as u64,
            result: Ok(EncodeOkFrame {
                model: setup::MODEL_NAME.to_owned(),
                bits: setup::BITS,
                dims: p.dims.iter().map(|&d| d as u32).collect(),
                hidden: p.hidden.clone(),
                pooled: p.pooled.clone(),
                batch_size: p.batch_size as u32,
                queue_us: p.queue_us,
                compute_us: p.compute_us,
            }),
        });
        let mut wire = Vec::new();
        tracer.span("proto.write_frame", i as u64, 0, |_| {
            write_frame(&mut wire, &frame).expect("in-memory write")
        });
        frame_bytes.push(wire.len() as f64);
        let back = tracer.span("proto.read_frame", i as u64, 0, |_| {
            read_frame(&mut wire.as_slice(), MAX_PAYLOAD).expect("valid frame")
        });
        assert_eq!(back.as_ref(), Some(&frame), "frame round-trips");
    }
    let n = payloads.len();
    let us = |name: &str| median_ms(tracer, name) * 1e3;
    report.put("serve.json_render_us", us("serve.json.render"), format!("median of {n}"));
    report.put("serve.json_parse_us", us("serve.json.parse"), format!("median of {n}"));
    report.put("proto.write_us", us("proto.write_frame"), format!("median of {n}"));
    report.put("proto.read_us", us("proto.read_frame"), format!("median of {n}"));
    let mean = |v: Vec<f64>| Samples::new(v).mean().unwrap_or(0.0);
    report.put("serve.response_bytes.mean", mean(body_bytes), format!("n={n}"));
    report.put("proto.frame_bytes.mean", mean(frame_bytes), format!("n={n}"));
}

/// Times every FC product of a forward pass as a child span of it.
struct TimedEngine<'a> {
    engine: &'a QuantizedEngine,
    tracer: &'a Tracer,
    forward: Cell<u64>,
}

impl WeightCompute for TimedEngine<'_> {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        self.tracer
            .span("model.fc", 0, self.forward.get(), |_| self.engine.matmul_nt(model, name, input))
    }
}

/// Replays observed batches through `encode_batch_with` on the served
/// engine, splitting forward time into FC products and the rest.
/// Stops after `budget`.
pub fn replay(
    engine: &QuantizedEngine,
    batches: &[Vec<Input>],
    budget: Duration,
    tracer: &Tracer,
    report: &mut Report,
) {
    let timed = TimedEngine { engine, tracer, forward: Cell::new(0) };
    let started = Instant::now();
    let mut per_batch = Vec::new();
    for batch in batches {
        if started.elapsed() > budget && per_batch.len() >= 3 {
            break;
        }
        let inputs: Vec<EncodeInput<'_>> =
            batch.iter().map(|i| EncodeInput { ids: &i.ids, type_ids: &i.type_ids }).collect();
        let forward = tracer.reserve();
        timed.forward.set(forward);
        let before = tracer.durations_ms("model.fc").iter().sum::<f64>();
        let t0 = Instant::now();
        black_box(engine.model().encode_batch_with(&timed, &inputs).expect("valid batch"));
        tracer.record(forward, 0, 0, "model.forward", t0, Instant::now());
        let fc = tracer.durations_ms("model.fc").iter().sum::<f64>() - before;
        let total = t0.elapsed().as_secs_f64() * 1e3;
        per_batch.push((total, fc));
    }
    let n = per_batch.len();
    let (sum_total, sum_fc) = per_batch.iter().fold((0.0, 0.0), |(t, f), &(a, b)| (t + a, f + b));
    let median = |f: fn(&(f64, f64)) -> f64| {
        Samples::new(per_batch.iter().map(f).collect()).median().unwrap_or(0.0)
    };
    report.put("model.forward_ms", median(|b| b.0), format!("median of {n} replayed batches"));
    report.put("model.fc_ms", median(|b| b.1), format!("median of {n}"));
    report.put("model.non_fc_ms", median(|b| b.0 - b.1), format!("median of {n}"));
    report.put(
        "model.fc_share",
        if sum_total > 0.0 { sum_fc / sum_total } else { 0.0 },
        "sum FC / sum forward",
    );
}
