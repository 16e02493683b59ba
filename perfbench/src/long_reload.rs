//! `long-reload`: the BERT model in-process, one closed-loop client
//! sending 32–128-token sentence pairs while an operator thread
//! publishes a new revision through `ServeCore::reload` at a fixed
//! interval. FC products run at 32–128 rows (compute-bound), attention
//! and LayerNorm/GELU take a larger share, coalescing is bypassed, and
//! publishing (CRC, decode, engine build) runs beside reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo_serve::{Client, EncodeRequest};

use crate::check::{references, Tally};
use crate::layers::{self, Payload};
use crate::report;
use crate::rng::input_pool;
use crate::serving::{self, Done, RssPeak};
use crate::setup;
use crate::stats::Samples;
use crate::{Ctx, Outcome};

/// Sentence-pair lengths spanning the paper's GLUE tasks.
const LENGTHS: [usize; 5] = [32, 56, 80, 104, 128];
/// Interval between two publishes.
pub const RELOAD_EVERY_S: f64 = 2.0;
/// Relative weight perturbation of the second revision.
const PERTURB: f32 = 0.02;

/// What the operator thread did during a phase.
#[derive(Default)]
struct Publishing {
    /// Wall time of each accepted `ServeCore::reload`, ms.
    publish_ms: Vec<f64>,
    /// Rejected reloads.
    rejected: u64,
    /// Most revisions draining at once.
    draining_peak: usize,
}

/// One closed-loop phase with publishing beside it.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    tally: Tally,
    attempted: u64,
    failed: u64,
    tokens: usize,
    payloads: Vec<Payload>,
    elapsed_s: f64,
    publishing: Publishing,
}

impl Phase {
    fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / self.elapsed_s
    }

    /// Adds the phase to the run's counts; every reload is an operation
    /// attempted beside the requests, and a rejected one a failure.
    fn count(&self, out: &mut Outcome) {
        let reloads = self.publishing.publish_ms.len() as u64 + self.publishing.rejected;
        out.count(self.attempted + reloads, self.failed + self.publishing.rejected, self.tally);
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let config = setup::bert_config();
    let warm = vec![(5..37).collect()];
    let bert = crate::Bert::bring_up(ctx, &warm);
    let setup::Setup { model, revision, path: path_a, served, .. } = bert.setup;
    drop(model);
    let rev_b = setup::quantize(&setup::synthesize(&config, PERTURB));
    let path_b = setup::write(&ctx.dir, "rev-b.gobom", &rev_b.bytes);
    let pool = input_pool(ctx.seed, &LENGTHS, 1, config.vocab, true);
    // Revision numbers alternate: the first publish (rev 1) is A, and
    // every later publish flips to the other container.
    let refs = [
        references(&setup::decode(&revision.bytes), &pool),
        references(&setup::decode(&rev_b.bytes), &pool),
    ];
    drop(rev_b);
    let core = served.core;
    let mut out = Outcome {
        constants: vec![("reload_every_s", RELOAD_EVERY_S), ("perturb", f64::from(PERTURB))],
        ..Outcome::default()
    };

    let secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let client = Client::new(Arc::clone(&core));
    let paths = [path_a.to_string_lossy().into_owned(), path_b.to_string_lossy().into_owned()];
    let phase = |tracer: Option<&crate::trace::Tracer>| {
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        std::thread::scope(|s| {
            let operator = s.spawn(|| {
                let mut ops = Publishing::default();
                // Rev r carries A when odd, B when even; keep it so.
                let last = core.registry().status().iter().map(|m| m.rev).max().unwrap_or(1);
                let mut next = usize::from((last + 1) % 2 == 0);
                let mut due = started + Duration::from_secs_f64(RELOAD_EVERY_S);
                // ORDERING: a stop flag that publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    if Instant::now() < due {
                        std::thread::sleep(Duration::from_millis(5));
                        ops.draining_peak = ops.draining_peak.max(core.registry().draining_len());
                        continue;
                    }
                    let t0 = Instant::now();
                    let result = core.reload(setup::MODEL_NAME, &paths[next]);
                    if let Some(t) = tracer {
                        let id = t.reserve();
                        t.record(id, 0, 0, "serve.reload", t0, Instant::now());
                    }
                    match result {
                        Ok(_) => {
                            ops.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            next = 1 - next;
                        }
                        Err(_) => ops.rejected += 1,
                    }
                    ops.draining_peak = ops.draining_peak.max(core.registry().draining_len());
                    due += Duration::from_secs_f64(RELOAD_EVERY_S);
                }
                ops
            });
            let mut phase = Phase::default();
            let mut i = 0;
            while started.elapsed().as_secs_f64() < secs {
                let input = i % pool.len();
                i += 1;
                let item = &pool[input];
                let req = EncodeRequest {
                    type_ids: item.type_ids.clone(),
                    ..EncodeRequest::new(setup::MODEL_NAME, item.ids.clone())
                };
                phase.attempted += 1;
                let t0 = Instant::now();
                let result = client.encode(req);
                let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
                if let Some(t) = tracer {
                    let id = t.reserve();
                    t.record(id, 0, id, "client.encode", t0, Instant::now());
                }
                let Ok(resp) = result else {
                    phase.failed += 1;
                    continue;
                };
                let want = &refs[usize::from(resp.rev % 2 == 0)][input];
                if !phase.tally.check(want, &resp.hidden, resp.pooled.as_deref()) {
                    phase.failed += 1;
                    continue;
                }
                phase.tokens += item.ids.len();
                if phase.payloads.len() < 8 {
                    phase.payloads.push(Payload::from_response(&resp));
                }
                phase.done.push(Done {
                    input,
                    lat_ms,
                    queue_us: resp.queue_us,
                    compute_us: resp.compute_us,
                    batch_size: resp.batch_size,
                    rev: resp.rev,
                });
            }
            phase.elapsed_s = started.elapsed().as_secs_f64();
            // ORDERING: see the operator loop.
            stop.store(true, Ordering::Relaxed);
            phase.publishing = operator.join().expect("operator thread panicked");
            phase
        })
    };

    let rss = RssPeak::start();
    let main = phase(None);
    let rss_mib = rss.finish();
    let lat = Samples::new(main.done.iter().map(|d| d.lat_ms).collect());
    out.lines.push(format!("closed loop, 1 client: {}", crate::stats::describe(&lat, "ms")));
    let ops = &main.publishing;
    out.lines.push(format!(
        "reload every {RELOAD_EVERY_S} s under load: {}, {} rejected, draining peak {}",
        crate::stats::describe(&Samples::new(ops.publish_ms.clone()), "ms"),
        ops.rejected,
        ops.draining_peak
    ));
    out.report.put_dist("lat_p50_ms", Some("lat_tail_ms"), &lat);
    out.report.put(
        "rps",
        main.done.len() as f64 / main.elapsed_s,
        format!("{} done in {:.2} s", main.done.len(), main.elapsed_s),
    );
    out.report.put("tokens_per_s", main.tokens_per_s(), format!("{} tokens", main.tokens));
    out.report.put("rss_mib", rss_mib, "peak over the measured phase");
    main.count(&mut out);

    if ctx.trace {
        let traced = phase(Some(&ctx.tracer));
        traced.count(&mut out);
        let (base, with) = (main.tokens_per_s(), traced.tokens_per_s());
        out.report.put(
            "trace.overhead_pct",
            100.0 * (base - with) / base,
            "tokens/s, untraced vs traced",
        );
        serving::scheduler_metrics(&traced.done, &pool, &mut out.report);
        out.report.put(
            "serve.draining_peak",
            traced.publishing.draining_peak.max(main.publishing.draining_peak) as f64,
            "revisions draining at once",
        );
        let entry = core.registry().get(setup::MODEL_NAME, None).expect("model is served");
        let batches = serving::batch_inputs(&traced.done, &pool);
        layers::replay(
            &entry.engine,
            &batches,
            Duration::from_secs(4),
            &ctx.tracer,
            &mut out.report,
        );
        drop(entry);
        core.shutdown();
        drop((core, client));
        let median_len =
            Samples::new(traced.done.iter().map(|d| pool[d.input].ids.len() as f64).collect());
        layers::tensor_ops(
            &config,
            median_len.median().unwrap_or(80.0) as usize,
            &ctx.tracer,
            &mut out.report,
        );
        layers::codecs(&pool, &main.payloads, &ctx.tracer, &mut out.report);
        layers::format_and_publish(&revision.bytes, &ctx.dir, &ctx.tracer, &mut out.report);
        out.report.put(
            "quant.compression_ratio",
            revision.compression_ratio,
            "whole model, FC layers",
        );
        layers::kernel_table(&ctx.tracer, &mut out.report, &mut out.lines);
        out.report.not_applicable(report::OPEN_LOOP_ONLY, "closed loop");
        out.report.not_applicable(report::WIRE_ONLY, "in-process, no cluster or HTTP front");
    } else {
        core.shutdown();
    }
    let mut setups = crate::finish_bert_setups(ctx, bert.samples, &warm);
    // Publishing under load replaces the idle set-up publishes here.
    setups.publish_ms = main.publishing.publish_ms;
    setups.put(&mut out.report);
    out
}
