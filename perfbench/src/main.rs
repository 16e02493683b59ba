//! The repository benchmark: one command runs a named workload from a
//! seed, checks every response against a dense-FP32 reference, and
//! prints every metric with its unit. The last line of standard output
//! is the machine-readable result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload short-open --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger, measured in a separate run with the benchmark's own spans.
//! Each result is also appended to `.bench_out/results.jsonl` with the
//! machine and build it was measured on.

mod check;
mod layers;
mod long_reload;
mod machine;
mod report;
mod rng;
mod serving;
mod setup;
mod short_open;
mod stats;
mod tiny_wire;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use gobo_serve::json::Json;
use gobo_serve::{RegistryConfig, SchedulerConfig, ServeOptions};

use crate::check::Tally;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["short-open", "long-reload", "tiny-wire"];

/// Set-ups of the BERT model per untraced run, before and after the
/// measured phase; `setup_s` is their median. Spreading them over the
/// run keeps a passing burst of machine load from setting the median.
const SETUP_BEFORE: usize = 2;
const SETUP_AFTER: usize = 1;

/// Where results, traces and scratch containers go, relative to the
/// checkout root.
const OUT_DIR: &str = ".bench_out";

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for containers, removed at exit.
    pub dir: PathBuf,
    /// The benchmark's span recorder.
    pub tracer: Tracer,
}

impl Ctx {
    /// Set-ups to run before and after the measured phase: several for
    /// the untraced run's set-up medians, one for the traced run, which
    /// reports no set-up time.
    pub fn setup_reps(&self, before: usize, after: usize) -> (usize, usize) {
        if self.trace {
            (1, 0)
        } else {
            (before, after)
        }
    }
}

/// A workload's result.
#[derive(Default)]
pub struct Outcome {
    /// Measured metrics.
    pub report: Report,
    /// Ledger lines printed before the result.
    pub lines: Vec<String>,
    /// Requests attempted in measured phases (not capacity probes).
    pub attempted: u64,
    /// Requests failed, refused, past deadline or wrong.
    pub failed: u64,
    /// Output check over all measured phases.
    pub tally: Tally,
    /// Why the run is invalid, if it is.
    pub invalid: Option<String>,
    /// The workload's fixed constants, recorded with the result.
    pub constants: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Adds a phase's request counts.
    pub fn count(&mut self, attempted: u64, failed: u64, tally: Tally) {
        self.attempted += attempted;
        self.failed += failed;
        self.tally.merge(tally);
    }
}

/// Scheduler deployment setting of the two BERT workloads: two workers
/// (one per core), batches of up to 32 requests gathered for up to
/// 2 ms.
pub fn bert_serve_options() -> ServeOptions {
    ServeOptions {
        registry: RegistryConfig::default(),
        scheduler: SchedulerConfig {
            workers: 2,
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 4096,
            default_deadline: Duration::from_secs(10),
        },
        lifecycle: Default::default(),
    }
}

/// Set-up timings of every repetition.
#[derive(Default)]
pub struct SetupSamples {
    /// Whole set-up, s.
    pub setup_s: Vec<f64>,
    /// `quantize_model`, s.
    pub quantize_s: Vec<f64>,
    /// Publishing `ServeCore::reload`, ms.
    pub publish_ms: Vec<f64>,
}

impl SetupSamples {
    /// Reports the medians as `setup_s`, `publish_ms` and
    /// `quant.quantize_model_s`.
    pub fn put(&self, report: &mut Report) {
        for (name, values) in [
            ("setup_s", &self.setup_s),
            ("publish_ms", &self.publish_ms),
            ("quant.quantize_model_s", &self.quantize_s),
        ] {
            report.put_dist(name, None, &Samples::new(values.clone()));
        }
    }

    /// Records one BERT set-up.
    fn push(&mut self, s: &setup::Setup) {
        self.setup_s.push(s.setup_s);
        self.quantize_s.push(s.revision.quantize_s);
        self.publish_ms.push(s.served.publish_ms);
    }
}

/// The BERT model brought up before the measured phase; the last
/// set-up stays up.
pub struct Bert {
    /// The set-up kept for measuring.
    pub setup: setup::Setup,
    /// Timings of every set-up.
    pub samples: SetupSamples,
}

impl Bert {
    /// Brings the BERT model up, keeping the last set-up.
    pub fn bring_up(ctx: &Ctx, warm: &[Vec<usize>]) -> Bert {
        let mut samples = SetupSamples::default();
        let mut kept: Option<setup::Setup> = None;
        for _ in 0..ctx.setup_reps(SETUP_BEFORE, SETUP_AFTER).0 {
            if let Some(previous) = kept.take() {
                previous.served.core.shutdown();
            }
            let s = setup::bring_up(&setup::bert_config(), bert_serve_options(), &ctx.dir, warm);
            samples.push(&s);
            kept = Some(s);
        }
        Bert { setup: kept.expect("at least one set-up"), samples }
    }
}

/// Runs the set-ups due after the measured phase and returns the
/// timings of every set-up.
pub fn finish_bert_setups(
    ctx: &Ctx,
    mut samples: SetupSamples,
    warm: &[Vec<usize>],
) -> SetupSamples {
    for _ in 0..ctx.setup_reps(SETUP_BEFORE, SETUP_AFTER).1 {
        let s = setup::bring_up(&setup::bert_config(), bert_serve_options(), &ctx.dir, warm);
        s.served.core.shutdown();
        samples.push(&s);
    }
    samples
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn append(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{line}")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let out_dir = root.join(OUT_DIR);
    let dir = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    let machine = machine::Machine::probe(&root);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        dir,
        tracer: Tracer::default(),
    };

    let outcome = match args.workload.as_str() {
        "short-open" => short_open::run(&ctx),
        "long-reload" => long_reload::run(&ctx),
        _ => tiny_wire::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);

    let catalog = if ctx.trace { report::per_layer() } else { report::end_to_end() };
    let (ledger, metrics) = match outcome.report.render(&catalog) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let failed = outcome.failed;
    let error_rate = failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "perfbench {} seed={} seconds={} trace={} | {} cpus, {}, simd [{}], {}, commit {}, source {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine.nproc,
        machine.cpu,
        machine.simd.join(" "),
        machine.rustc,
        machine.commit,
        machine.source_digest
    );
    let constants: Vec<String> =
        outcome.constants.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if !constants.is_empty() {
        println!("constants: {}", constants.join(" "));
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "operations: {} attempted (requests, and reloads on long-reload), {} failed, error_rate {:.6}; output check: {} compared, {} wrong, max |dev| {:.3e} (bar {:.0e})",
        outcome.attempted,
        failed,
        error_rate,
        outcome.tally.checked,
        outcome.tally.wrong,
        outcome.tally.max_dev,
        check::PARITY_BAR
    );
    println!(
        "{}:",
        if ctx.trace { "per-layer metrics (traced run)" } else { "end-to-end metrics" }
    );
    for line in &ledger {
        println!("{line}");
    }
    if ctx.trace {
        let spans = ctx.tracer.spans();
        println!("span self times (ms, count):");
        for (name, (ms, count)) in trace::self_times(&spans) {
            println!("  {name:<36} {ms:>12.3} {count:>7}");
        }
        let path = out_dir.join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::to_json_lines(&spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    if let Some(why) = &outcome.invalid {
        eprintln!("perfbench: run invalid, no result reported: {why}");
        std::process::exit(3);
    }
    let correct = outcome.tally.wrong == 0 && outcome.tally.checked > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.clone()),
    ]);
    let record = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("machine", machine.to_json()),
        (
            "constants",
            Json::Obj(
                outcome.constants.iter().map(|(k, v)| ((*k).to_owned(), Json::Num(*v))).collect(),
            ),
        ),
        ("error_rate", Json::Num(error_rate)),
        ("max_abs_dev", {
            let dev = f64::from(outcome.tally.max_dev);
            if dev.is_finite() {
                Json::Num(dev)
            } else {
                Json::Null
            }
        }),
        ("result", result.clone()),
    ]);
    if let Err(e) = append(&out_dir.join("results.jsonl"), &record.to_string()) {
        eprintln!("perfbench: appending the result: {e}");
    }
    println!("{result}");
}
