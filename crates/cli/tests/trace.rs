//! `gobo trace` end to end. The trace ring is process-global, so this
//! test has a binary of its own: a sibling test quantizing a model
//! while the trace is enabled would add its layer spans to the export.

use gobo_cli::cmd::run_str;
use gobo_serve::json::{parse, Json};

/// `gobo trace` on a small synthetic model must produce a Chrome
/// trace that parses as JSON and carries one `gobo.quantize_layer`
/// complete event per quantized layer, on rayon worker threads.
#[test]
fn trace_produces_parseable_chrome_trace_with_layer_spans() {
    let dir = std::env::temp_dir().join("gobo-trace-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = dir.join("trace.json").to_string_lossy().into_owned();
    let msg = run_str(&["trace", "--out", &out, "--layers", "2", "--hidden", "32", "--heads", "2"])
        .unwrap();
    assert!(msg.contains("chrome trace written"), "{msg}");

    let text = std::fs::read_to_string(&out).unwrap();
    let value = parse(&text).expect("trace must be valid JSON");
    let events = value.as_array().unwrap();
    let layer_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("gobo.quantize_layer"))
        .collect();
    // 2 encoder layers x 6 FC mats + pooler = 13 quantized layers.
    assert_eq!(layer_events.len(), 13, "{msg}");
    for event in &layer_events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("dur").and_then(Json::as_f64).is_some());
    }
    // The pool's thread-name metadata shows the spans ran on rayon
    // workers.
    assert!(text.contains("rayon-worker"), "no worker thread names in trace");
}
