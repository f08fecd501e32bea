//! Self-tests of the benchmark, on the tiny form of every workload.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pdc_perfbench::{run, valid_name, Outcome, RunOptions, Spec, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(name: &str) -> Spec {
    Spec::by_name(name).expect("workload exists").tiny()
}

fn run_tiny(spec: &Spec, trace: bool) -> Outcome {
    run(
        spec,
        RunOptions {
            seed: 7,
            seconds: 0.0,
            trace,
        },
    )
}

fn names(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name.as_str()).collect()
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_named_metric_is_reported_for_every_workload() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        listed("end_to_end"),
        e2e,
        "BENCHMARK.json lists the catalogue"
    );
    assert_eq!(
        listed("per_layer"),
        layer,
        "BENCHMARK.json lists the catalogue"
    );
    for w in WORKLOADS {
        let spec = tiny(w);
        let plain = run_tiny(&spec, false);
        assert_eq!(names(&plain), e2e, "{w} end-to-end");
        let traced = run_tiny(&spec, true);
        assert_eq!(names(&traced), layer, "{w} per-layer");
        for m in plain.metrics.iter().chain(&traced.metrics) {
            assert!(m.value.is_finite(), "{w} {} = {}", m.name, m.value);
        }
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{w} end-to-end {} must never be 0", m.name);
        }
        assert_eq!(plain.failed, 0, "{w}: {}", plain.info);
        assert_eq!(traced.failed, 0, "{w}: {}", traced.info);
        assert!(plain.attempted > 0 && traced.attempted > plain.attempted);
    }
}

#[test]
fn metric_names_use_the_allowed_characters() {
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    // Virtual times, accuracy and counts depend only on the inputs; host
    // times may differ.
    let host = |name: &str| {
        name.starts_with("host")
            || name.contains("host_")
            || name == "setup_s"
            || name == "peak_rss_mb"
            || name == "trace.overhead_ratio"
    };
    for w in WORKLOADS {
        let spec = tiny(w);
        for trace in [false, true] {
            let (a, b) = (run_tiny(&spec, trace), run_tiny(&spec, trace));
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.name, y.name);
                if !host(&x.name) {
                    assert_eq!(x.value.to_bits(), y.value.to_bits(), "{w} {}", x.name);
                }
            }
        }
    }
}

#[test]
fn a_failing_check_raises_the_error_rate() {
    let spec = tiny("paper_cell");
    let clean = run_tiny(&spec, false);
    assert_eq!(clean.error_rate(), 0.0);
    let broken = Spec {
        accuracy_floor: 1.01,
        ..spec
    };
    let failed = run_tiny(&broken, false);
    assert!(failed.failed > 0);
    assert!(failed.error_rate() > 0.0, "{}", failed.info);
}
