//! What every workload records per request, and the scheduler-level
//! metrics derived from the public `EncodeResponse` fields.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::report::Report;
use crate::rng::Input;
use crate::stats::Samples;

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Pool index of the input sent.
    pub input: usize,
    /// Latency as the caller saw it, ms.
    pub lat_ms: f64,
    /// Queue wait the scheduler reported, µs.
    pub queue_us: u64,
    /// Compute time of the batch it rode in, µs.
    pub compute_us: u64,
    /// Size of that batch.
    pub batch_size: usize,
    /// Revision that served it.
    pub rev: u64,
}

/// Batches reconstructed from responses: requests of one batch share
/// its size, revision and compute time, and complete together.
pub fn group_batches(done: &[Done]) -> Vec<Vec<usize>> {
    let mut open: HashMap<(u64, usize, u64), Vec<usize>> = HashMap::new();
    let mut batches = Vec::new();
    for d in done {
        let key = (d.compute_us, d.batch_size, d.rev);
        let members = open.entry(key).or_default();
        members.push(d.input);
        if members.len() == d.batch_size {
            batches.extend(open.remove(&key));
        }
    }
    batches
}

/// Inputs of each reconstructed batch.
pub fn batch_inputs(done: &[Done], pool: &[Input]) -> Vec<Vec<Input>> {
    group_batches(done)
        .into_iter()
        .map(|b| b.into_iter().filter_map(|i| pool.get(i).cloned()).collect())
        .collect()
}

/// Queue wait, batch size and rows, batch compute and the latency no
/// reported stage accounts for.
pub fn scheduler_metrics(done: &[Done], pool: &[Input], report: &mut Report) {
    let ms = |f: &dyn Fn(&Done) -> f64| Samples::new(done.iter().map(f).collect());
    report.put_dist(
        "serve.queue_wait_ms.p50",
        Some("serve.queue_wait_ms.tail"),
        &ms(&|d| d.queue_us as f64 / 1e3),
    );
    report.put_dist("serve.compute_ms.p50", None, &ms(&|d| d.compute_us as f64 / 1e3));
    report.put_dist(
        "serve.unaccounted_ms.p50",
        None,
        &ms(&|d| d.lat_ms - (d.queue_us + d.compute_us) as f64 / 1e3),
    );
    let batches = group_batches(done);
    let n = batches.len().max(1) as f64;
    let rows: usize =
        batches.iter().flatten().filter_map(|&i| pool.get(i)).map(|i| i.ids.len()).sum();
    let requests: usize = batches.iter().map(Vec::len).sum();
    report.put("serve.batch_size.mean", requests as f64 / n, format!("{} batches", batches.len()));
    report.put("serve.batch_rows.mean", rows as f64 / n, format!("{} batches", batches.len()));
}

/// Samples this process's resident set on a background thread and
/// keeps the peak.
pub struct RssPeak {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl RssPeak {
    /// Starts sampling every 20 ms.
    pub fn start() -> RssPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = crate::machine::rss_mib();
            // ORDERING: a stop flag that publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(crate::machine::rss_mib());
            }
            peak
        });
        RssPeak { stop, handle }
    }

    /// Stops sampling and returns the peak, MiB.
    pub fn finish(self) -> f64 {
        // ORDERING: see `start`.
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(input: usize, compute_us: u64, batch_size: usize) -> Done {
        Done { input, lat_ms: 1.0, queue_us: 0, compute_us, batch_size, rev: 1 }
    }

    #[test]
    fn batches_are_regrouped_by_shared_fields() {
        let d = vec![
            done(0, 500, 2),
            done(1, 700, 1),
            done(2, 500, 2),
            done(3, 500, 2),
            done(4, 500, 2),
        ];
        assert_eq!(group_batches(&d), vec![vec![1], vec![0, 2], vec![3, 4]]);
    }
}
