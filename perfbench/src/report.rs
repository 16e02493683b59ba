//! The metric catalog and the run report.
//!
//! Every workload prints every metric of the catalog, so runs of
//! different workloads line up name by name. A per-layer metric whose
//! layer a workload does not exercise (the cluster hop on an in-process
//! workload, say) reads 0 there and is marked `n/a` in the ledger.

use std::collections::BTreeMap;

use gobo_serve::json::Json;

use crate::stats::Samples;

/// A catalog entry: name, unit, and whether higher or lower is better.
pub type Entry = (String, &'static str, &'static str);

/// End-to-end metrics: `(name, unit, better)`. Each is measured on
/// every workload, from untraced runs.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("publish_ms", "ms", "lower"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_tail_ms", "ms", "lower"),
    ("rps", "req/s", "higher"),
    ("tokens_per_s", "tok/s", "higher"),
    ("rss_mib", "MiB", "lower"),
];

/// [`END_TO_END`] as owned entries.
pub fn end_to_end() -> Vec<Entry> {
    END_TO_END.iter().map(|&(n, u, b)| (n.to_owned(), u, b)).collect()
}

/// FC weight shapes of BERT-Base (Table I), `rows x cols` of `W` in
/// `y = x·Wᵀ`: query/key/value/attention-output, intermediate, output.
pub const SHAPES: [(usize, usize); 3] = [(768, 768), (3072, 768), (768, 3072)];

/// Activation rows of the kernel table: single requests, coalesced
/// short batches, and the long-sequence regime.
pub const ROWS: [usize; 4] = [1, 8, 32, 128];

/// `768x3072`-style shape label.
pub fn shape_label((rows, cols): (usize, usize)) -> String {
    format!("{rows}x{cols}")
}

/// Per-layer metrics, `(name, unit, better)`, printed by traced runs.
pub fn per_layer() -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::new();
    for shape in SHAPES {
        let s = shape_label(shape);
        for r in ROWS {
            out.push((format!("quant.blocked_us.{s}.r{r}"), "us", "lower"));
            out.push((format!("tensor.dense_us.{s}.r{r}"), "us", "lower"));
        }
        out.push((format!("quant.matvec_us.{s}.r1"), "us", "lower"));
        out.push((format!("quant.weight_bytes.{s}"), "bytes", "lower"));
        out.push((format!("quant.max_abs_dev.{s}"), "abs", "lower"));
        out.push((format!("quant.quantize_layer_ms.{s}"), "ms", "lower"));
    }
    const HIGHER: &[&str] = &[
        "quant.compression_ratio",
        "serve.batch_size.mean",
        "serve.batch_rows.mean",
        "max_rps_at_slo",
    ];
    let fixed: &[(&str, &'static str)] = &[
        ("quant.quantize_model_s", "s"),
        ("quant.compression_ratio", "x"),
        ("model.forward_ms", "ms"),
        ("model.fc_ms", "ms"),
        ("model.non_fc_ms", "ms"),
        ("model.fc_share", "ratio"),
        ("tensor.attention_us", "us"),
        ("tensor.layer_norm_us", "us"),
        ("tensor.gelu_us", "us"),
        ("tensor.gather_us", "us"),
        ("serve.queue_wait_ms.p50", "ms"),
        ("serve.queue_wait_ms.tail", "ms"),
        ("serve.batch_size.mean", "count"),
        ("serve.batch_rows.mean", "rows"),
        ("serve.compute_ms.p50", "ms"),
        ("serve.unaccounted_ms.p50", "ms"),
        ("format.parse_ms", "ms"),
        ("format.decode_ms", "ms"),
        ("serve.engine_build_ms", "ms"),
        ("serve.publish_ms.idle", "ms"),
        ("serve.draining_peak", "count"),
        ("serve.container_mib", "MiB"),
        ("serve.request_parse_us", "us"),
        ("serve.json_parse_us", "us"),
        ("serve.json_render_us", "us"),
        ("serve.response_bytes.mean", "bytes"),
        ("serve.http_front_ms", "ms"),
        ("proto.write_us", "us"),
        ("proto.read_us", "us"),
        ("proto.frame_bytes.mean", "bytes"),
        ("cluster.route_ms.p50", "ms"),
        ("cluster.route_ms.tail", "ms"),
        ("cluster.hop_ms", "ms"),
        ("cluster.hedge_ratio", "ratio"),
        ("cluster.failovers", "count"),
        ("lat_p50_ms.hi", "ms"),
        ("lat_tail_ms.hi", "ms"),
        ("max_rps_at_slo", "req/s"),
        ("gen.late_ms.tail", "ms"),
        ("trace.overhead_pct", "%"),
    ];
    out.extend(
        fixed
            .iter()
            .map(|&(n, u)| (n.to_owned(), u, if HIGHER.contains(&n) { "higher" } else { "lower" })),
    );
    out
}

/// Per-layer metrics only the wire workload exercises.
pub const WIRE_ONLY: &[&str] = &[
    "serve.http_front_ms",
    "cluster.route_ms.p50",
    "cluster.route_ms.tail",
    "cluster.hop_ms",
    "cluster.hedge_ratio",
    "cluster.failovers",
];

/// Per-layer metrics only the open-loop workload exercises.
pub const OPEN_LOOP_ONLY: &[&str] =
    &["lat_p50_ms.hi", "lat_tail_ms.hi", "max_rps_at_slo", "gen.late_ms.tail"];

/// Whether `name` is a valid metric or workload name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// One measured value with the context a reader needs: sample count,
/// tail percentile, or why it is not applicable.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Free-form context printed next to it.
    pub note: String,
}

/// Measured metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
}

impl Report {
    /// Records `name`.
    pub fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.values.insert(name.to_owned(), Value { value, note: note.into() });
    }

    /// Records the median of `samples` under `name` and, when given,
    /// its tail under `tail_name`, noting counts and the percentile.
    pub fn put_dist(&mut self, name: &str, tail_name: Option<&str>, samples: &Samples) {
        let n = samples.len();
        if let Some(p50) = samples.median() {
            self.put(name, p50, format!("median of n={n}"));
        }
        if let (Some(tail_name), Some(tail)) = (tail_name, samples.tail()) {
            self.put(
                tail_name,
                tail.value,
                format!("p{:.2} of n={n}, {} samples beyond", tail.pct, tail.beyond),
            );
        }
    }

    /// Marks layers this workload does not exercise: value 0.
    pub fn not_applicable(&mut self, names: &[&str], why: &str) {
        for name in names {
            self.values
                .entry((*name).to_owned())
                .or_insert_with(|| Value { value: 0.0, note: format!("n/a: {why}") });
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// The ledger lines and the JSON metrics object for `catalog`;
    /// errors name catalog metrics the run did not produce.
    pub fn render(&self, catalog: &[Entry]) -> Result<(Vec<String>, Json), String> {
        let mut lines = Vec::new();
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit, _) in catalog {
            match self.values.get(name) {
                Some(v) if v.value.is_finite() => {
                    lines.push(format!("  {name:<36} {:>14.4} {unit:<6} {}", v.value, v.note));
                    metrics.push((
                        name.clone(),
                        Json::obj(vec![("value", Json::Num(v.value)), ("unit", Json::from(*unit))]),
                    ));
                }
                _ => missing.push(name.clone()),
            }
        }
        if !missing.is_empty() {
            return Err(format!("metrics not produced: {}", missing.join(", ")));
        }
        Ok((lines, Json::Obj(metrics)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_serve::json::parse;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(catalog: Vec<Entry>) -> Vec<(String, String, String)> {
        catalog.into_iter().map(|(n, u, b)| (n, u.to_owned(), b.to_owned())).collect()
    }

    #[test]
    fn every_name_is_well_formed() {
        for (name, _, _) in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&name), "{name}");
        }
        for name in crate::WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("lat p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = benchmark_json();
        let e2e = owned(end_to_end());
        assert_eq!(entries(&json, "end_to_end"), e2e);
        let layers = owned(per_layer());
        assert!(layers.len() <= 128);
        assert_eq!(entries(&json, "per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_owned())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        let mut all: Vec<String> = e2e.into_iter().map(|(n, _, _)| n).collect();
        all.extend(layers.into_iter().map(|(n, _, _)| n));
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "metric names are unique");
    }

    #[test]
    fn render_requires_every_catalog_metric() {
        let mut report = Report::default();
        report.put("a", 1.5, "");
        let catalog = vec![("a".to_owned(), "ms", "lower"), ("b".to_owned(), "ms", "lower")];
        assert!(report.render(&catalog).unwrap_err().contains('b'));
        report.not_applicable(&["b"], "not on this workload");
        let (_, json) = report.render(&catalog).unwrap();
        assert_eq!(json.get("b").and_then(|b| b.get("value")).and_then(Json::as_f64), Some(0.0));
    }
}
