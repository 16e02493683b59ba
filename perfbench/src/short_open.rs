//! `short-open`: the BERT model served in-process through
//! `Scheduler::submit`, 1–8-token requests arriving open-loop (Poisson)
//! at fixed rates. The FC kernel at 1–32 rows, with weights larger than
//! L2, is nearly all the cost; scheduler coalescing sets the row count.
//!
//! The end-to-end metrics come from the `lo` rate, where a request's
//! latency is mostly its own compute. At the `hi` rate the tail is set
//! by a few coalesced batches, each carrying several of the samples
//! beyond it, so the bursts a seed's schedule holds move it well beyond
//! machine drift: over ten seeds on a 2-vCPU VM its IQR ÷ median
//! reached 0.23 at `hi`, while at `lo` the tail stayed within
//! 1.40–1.58× the p50 of its own run. The `hi` rate, the capacity
//! ladder and the scheduler's batching are measured in the traced run.

use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use gobo_serve::{EncodeRequest, EncodeResponse, ServeCore, ServeError};

use crate::check::{references, Reference, Tally};
use crate::layers::{self, Payload};
use crate::report::{self, Report};
use crate::rng::{input_pool, poisson_schedule, Input};
use crate::serving::{self, Done, RssPeak};
use crate::setup;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Light load, about a quarter of capacity: batches are mostly single
/// requests. The rate of the end-to-end metrics.
pub const RATE_LO: f64 = 6.0;
/// Heavy load, about two thirds of capacity: coalesced batches form.
pub const RATE_HI: f64 = 16.0;
/// Latency limit on the tail for `max_rps_at_slo`.
pub const SLO_MS: f64 = 500.0;
/// Lowest rate of the capacity ladder; each step is 1.1× the last.
pub const LADDER_BASE: f64 = 4.0;
/// Ratio between ladder rates.
pub const LADDER_RATIO: f64 = 1.1;
/// Length of one ladder probe, seconds.
pub const PROBE_S: f64 = 4.0;
/// Untimed warm-up at the `hi` rate before the measured phases, seconds:
/// the first coalesced batches grow the engine's buffers and fault in
/// pages, which would otherwise land in the measured tail.
pub const WARM_S: f64 = 2.0;
/// A run whose generator ran later than this at its tail is invalid.
pub const LATE_BOUND_MS: f64 = 50.0;

/// Request lengths: 1–8 tokens, each equally often.
const LENGTHS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// One open-loop phase.
pub struct Phase {
    /// Completed requests.
    pub done: Vec<Done>,
    /// How late each submission was against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Refused, failed or deadline-exceeded requests.
    pub failed: u64,
    /// Output check of the completed ones.
    pub tally: Tally,
    /// Seconds from the last arrival until the last reply.
    pub drain_s: f64,
    /// Seconds from the start until the last reply.
    pub elapsed_s: f64,
    /// Tokens of the completed requests.
    pub tokens: usize,
    /// The first completed responses, for the codec timings.
    pub payloads: Vec<Payload>,
}

impl Phase {
    /// Latency samples, ms.
    pub fn latencies(&self) -> Samples {
        Samples::new(self.done.iter().map(|d| d.lat_ms).collect())
    }
}

/// Sends `schedule` open-loop: one thread submits each request at its
/// due time and polls every outstanding reply, so a slow reply never
/// delays the next submission. Latency runs from the due time.
pub fn open_loop(
    core: &ServeCore,
    pool: &[Input],
    refs: &[Reference],
    schedule: &[(f64, usize)],
    tracer: Option<&Tracer>,
) -> Phase {
    struct Pending {
        input: usize,
        due: Instant,
        rx: Receiver<Result<EncodeResponse, ServeError>>,
        span: u64,
    }
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(schedule.last().map_or(0.0, |s| s.0));
    let mut phase = Phase {
        done: Vec::new(),
        late_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        tally: Tally::default(),
        drain_s: 0.0,
        elapsed_s: 0.0,
        tokens: 0,
        payloads: Vec::new(),
    };
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while let Some(&(at, input)) = schedule.get(next) {
            let due = start + Duration::from_secs_f64(at);
            if due > now {
                break;
            }
            next += 1;
            phase.attempted += 1;
            phase.late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
            let item = &pool[input];
            let req = EncodeRequest {
                type_ids: item.type_ids.clone(),
                ..EncodeRequest::new(crate::setup::MODEL_NAME, item.ids.clone())
            };
            let span = tracer.map_or(0, Tracer::reserve);
            let submitted = match tracer {
                Some(t) => t.span("scheduler.submit", phase.attempted, span, |_| {
                    core.scheduler().submit(req)
                }),
                None => core.scheduler().submit(req),
            };
            match submitted {
                Ok(rx) => pending.push(Pending { input, due, rx, span }),
                Err(_) => phase.failed += 1,
            }
        }
        let now = Instant::now();
        pending.retain(|p| match p.rx.try_recv() {
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) | Ok(Err(_)) => {
                phase.failed += 1;
                false
            }
            Ok(Ok(resp)) => {
                if let Some(t) = tracer {
                    t.record(p.span, 0, p.span, "request", p.due, now);
                }
                let lat_ms = now.duration_since(p.due).as_secs_f64() * 1e3;
                if phase.tally.check(&refs[p.input], &resp.hidden, resp.pooled.as_deref()) {
                    phase.tokens += pool[p.input].ids.len();
                    if phase.payloads.len() < PAYLOADS_KEPT {
                        phase.payloads.push(Payload::from_response(&resp));
                    }
                    phase.done.push(Done {
                        input: p.input,
                        lat_ms,
                        queue_us: resp.queue_us,
                        compute_us: resp.compute_us,
                        batch_size: resp.batch_size,
                        rev: resp.rev,
                    });
                } else {
                    phase.failed += 1;
                }
                false
            }
        });
        if next >= schedule.len() {
            // Requests still out past every deadline count as failed.
            let expired =
                now > end + core.scheduler().config().default_deadline + Duration::from_secs(1);
            if pending.is_empty() || expired {
                phase.failed += pending.len() as u64;
                phase.drain_s = now.saturating_duration_since(end).as_secs_f64();
                phase.elapsed_s = now.duration_since(start).as_secs_f64();
                return phase;
            }
        }
        let wake = schedule
            .get(next)
            .map_or(now + Duration::from_micros(200), |&(at, _)| {
                start + Duration::from_secs_f64(at)
            })
            .min(now + Duration::from_micros(200));
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
}

/// Responses kept per phase for the codec timings.
const PAYLOADS_KEPT: usize = 40;

/// Rate `k` of the capacity ladder.
pub fn ladder(k: usize) -> f64 {
    LADDER_BASE * LADDER_RATIO.powi(k as i32)
}

/// Whether a probe met the limit: nothing failed, the tail stayed
/// within [`SLO_MS`], and the queue drained within it after the last
/// arrival (no growing backlog).
fn meets_slo(phase: &Phase) -> bool {
    phase.failed == 0
        && phase.latencies().tail().is_some_and(|t| t.value <= SLO_MS)
        && phase.drain_s * 1e3 <= SLO_MS
}

/// The highest ladder rate meeting the limit, walking up or down from
/// the ladder rung nearest [`RATE_HI`]; 0 when none does. Probe
/// failures only count as missing the limit. Returns the rate and a
/// log of the probes.
pub fn max_rps_at_slo(
    ctx: &Ctx,
    core: &ServeCore,
    pool: &[Input],
    refs: &[Reference],
) -> (f64, String) {
    const MAX_PROBES: usize = 8;
    let start = (0..64)
        .min_by(|&a, &b| (ladder(a) - RATE_HI).abs().total_cmp(&(ladder(b) - RATE_HI).abs()))
        .unwrap_or(0);
    let probe = |k: usize| {
        let schedule =
            poisson_schedule(ctx.seed, &format!("probe-{k}"), ladder(k), PROBE_S, pool.len());
        meets_slo(&open_loop(core, pool, refs, &schedule, None))
    };
    let mut log = Vec::new();
    let mut k = start;
    let first = probe(k);
    log.push(format!("{:.1}:{}", ladder(k), if first { "ok" } else { "miss" }));
    let mut best = first.then(|| ladder(k));
    for _ in 1..MAX_PROBES {
        if first {
            k += 1;
        } else if k == 0 {
            break;
        } else {
            k -= 1;
        }
        let ok = probe(k);
        log.push(format!("{:.1}:{}", ladder(k), if ok { "ok" } else { "miss" }));
        if ok {
            best = Some(best.map_or(ladder(k), |b: f64| b.max(ladder(k))));
        }
        if ok != first {
            break;
        }
    }
    (best.unwrap_or(0.0), log.join(" "))
}

fn put_latency(report: &mut Report, p50: &str, tail: &str, phase: &Phase) {
    report.put_dist(p50, Some(tail), &phase.latencies());
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let config = setup::bert_config();
    let warm = vec![vec![5], (5..13).collect()];
    let bert = crate::Bert::bring_up(ctx, &warm);
    let pool = input_pool(ctx.seed, &LENGTHS, 4, config.vocab, false);
    let refs = references(&setup::decode(&bert.setup.revision.bytes), &pool);
    let setup::Setup { model, revision, served, .. } = bert.setup;
    drop(model);
    let core = served.core;
    let mut out = Outcome {
        constants: vec![
            ("rate_lo", RATE_LO),
            ("rate_hi", RATE_HI),
            ("slo_ms", SLO_MS),
            ("ladder_base", LADDER_BASE),
            ("ladder_ratio", LADDER_RATIO),
            ("late_bound_ms", LATE_BOUND_MS),
            ("warm_s", WARM_S),
        ],
        ..Outcome::default()
    };
    let hi_schedule = |stream: &str, seconds: f64| {
        poisson_schedule(ctx.seed, stream, RATE_HI, seconds, pool.len())
    };

    // Warm-up requests are checked and counted like any other, but not
    // timed.
    let warm_up = open_loop(&core, &pool, &refs, &hi_schedule("warm-up", WARM_S), None);
    out.count(warm_up.attempted, warm_up.failed, warm_up.tally);
    let rss = RssPeak::start();
    let secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let lo = open_loop(
        &core,
        &pool,
        &refs,
        &poisson_schedule(ctx.seed, "lo", RATE_LO, secs, pool.len()),
        None,
    );
    let rss_mib = rss.finish();
    let late = Samples::new(lo.late_ms.clone());
    let late_tail = late.tail().map_or(0.0, |t| t.value);
    out.lines
        .push(format!("lo {RATE_LO} req/s: {}", crate::stats::describe(&lo.latencies(), "ms")));
    out.lines.push(format!("generator lateness: {}", crate::stats::describe(&late, "ms")));
    if late_tail > LATE_BOUND_MS {
        out.invalid = Some(format!(
            "generator ran {late_tail:.2} ms late at its tail (bound {LATE_BOUND_MS} ms)"
        ));
    }
    put_latency(&mut out.report, "lat_p50_ms", "lat_tail_ms", &lo);
    out.report.put(
        "rps",
        lo.done.len() as f64 / lo.elapsed_s,
        format!("{} done in {:.2} s", lo.done.len(), lo.elapsed_s),
    );
    out.report.put(
        "tokens_per_s",
        lo.tokens as f64 / lo.elapsed_s,
        format!("{} tokens", lo.tokens),
    );
    out.report.put("rss_mib", rss_mib, "peak over the measured phase");
    out.report.put("gen.late_ms.tail", late_tail, format!("of n={}", late.len()));
    out.count(lo.attempted, lo.failed, lo.tally);

    if ctx.trace {
        let hi = open_loop(&core, &pool, &refs, &hi_schedule("hi", secs), None);
        out.lines
            .push(format!("hi {RATE_HI} req/s: {}", crate::stats::describe(&hi.latencies(), "ms")));
        put_latency(&mut out.report, "lat_p50_ms.hi", "lat_tail_ms.hi", &hi);
        out.count(hi.attempted, hi.failed, hi.tally);

        let (max_rps, log) = max_rps_at_slo(ctx, &core, &pool, &refs);
        out.lines.push(format!("capacity ladder (req/s:verdict): {log}"));
        out.report.put(
            "max_rps_at_slo",
            max_rps,
            format!("tail <= {SLO_MS} ms, {PROBE_S} s probes"),
        );

        let traced =
            open_loop(&core, &pool, &refs, &hi_schedule("hi-traced", secs), Some(&ctx.tracer));
        out.count(traced.attempted, traced.failed, traced.tally);
        let (base, with) =
            (hi.latencies().median().unwrap_or(0.0), traced.latencies().median().unwrap_or(0.0));
        out.report.put(
            "trace.overhead_pct",
            100.0 * (with - base) / base,
            "traced vs untraced hi-rate p50",
        );
        serving::scheduler_metrics(&traced.done, &pool, &mut out.report);
        out.report.put(
            "serve.draining_peak",
            core.registry().draining_len() as f64,
            "no reloads on this workload",
        );

        let entry = core.registry().get(setup::MODEL_NAME, None).expect("model is served");
        let batches = serving::batch_inputs(&traced.done, &pool);
        layers::replay(
            &entry.engine,
            &batches,
            Duration::from_secs(3),
            &ctx.tracer,
            &mut out.report,
        );
        drop(entry);
        core.shutdown();
        drop(core);
        let median_len =
            Samples::new(traced.done.iter().map(|d| pool[d.input].ids.len() as f64).collect());
        layers::tensor_ops(
            &config,
            median_len.median().unwrap_or(1.0) as usize,
            &ctx.tracer,
            &mut out.report,
        );
        layers::codecs(&pool, &traced.payloads, &ctx.tracer, &mut out.report);
        layers::format_and_publish(&revision.bytes, &ctx.dir, &ctx.tracer, &mut out.report);
        out.report.put(
            "quant.compression_ratio",
            revision.compression_ratio,
            "whole model, FC layers",
        );
        layers::kernel_table(&ctx.tracer, &mut out.report, &mut out.lines);
        out.report.not_applicable(report::WIRE_ONLY, "in-process, no cluster or HTTP front");
    } else {
        core.shutdown();
    }
    crate::finish_bert_setups(ctx, bert.samples, &warm).put(&mut out.report);
    out
}
