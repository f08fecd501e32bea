//! Metric names, units and the result line the benchmark prints.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// End-to-end metrics, reported with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("host_krec_per_s", "krec/s"),
    ("host_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virtual_s", "s"),
    ("virtual_p50_batch_ms", "ms"),
    ("virtual_p99_batch_ms", "ms"),
    ("accuracy", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`, with their units. The
/// README maps each to the end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("datagen.host_ns_per_rec", "ns"),
    ("pario.stage_host_s", "s"),
    ("pario.read_mb", "MB"),
    ("pario.write_mb", "MB"),
    ("pario.io_s", "s"),
    ("pario.cache_hit_ratio", "ratio"),
    ("pario.io_stall_s", "s"),
    ("cgm.messages", "count"),
    ("cgm.mb_sent", "MB"),
    ("cgm.comm_s", "s"),
    ("cgm.imbalance", "ratio"),
    ("cgm.host_us_per_msg", "us"),
    ("dnc.large_nodes", "count"),
    ("dnc.small_tasks", "count"),
    ("clouds.host_ns_per_rec", "ns"),
    ("clouds.compute_s", "s"),
    ("clouds.root_survival_ratio", "ratio"),
    ("pclouds.stats_share", "ratio"),
    ("pclouds.derive_share", "ratio"),
    ("pclouds.partition_share", "ratio"),
    ("pclouds.small_redistribute_share", "ratio"),
    ("pclouds.small_solve_share", "ratio"),
    ("serve.compile_host_us.pointer", "us"),
    ("serve.compile_host_us.flat", "us"),
    ("serve.compile_host_us.predicated", "us"),
    ("serve.score_host_ns_per_rec.pointer", "ns"),
    ("serve.score_host_ns_per_rec.flat", "ns"),
    ("serve.score_host_ns_per_rec.predicated", "ns"),
    ("serve.model_bytes.pointer", "bytes"),
    ("serve.model_bytes.flat", "bytes"),
    ("serve.model_bytes.predicated", "bytes"),
    ("serve.deploy_share", "ratio"),
    ("serve.batches", "count"),
    ("trace.self_share.pclouds", "ratio"),
    ("trace.self_share.cgm", "ratio"),
    ("trace.self_share.pario", "ratio"),
    ("trace.self_share.serve", "ratio"),
    ("trace.s.dnc_small", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("host.warmup_s", "s"),
    ("host.setup_reps", "count"),
    ("host.timed_reps", "count"),
    ("bench.n_records", "count"),
    ("bench.p", "count"),
    ("bench.nproc", "count"),
];

/// Whether `name` uses only the characters the result format allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The last line of the benchmark's output: one JSON object with the
/// operation counts and the metrics by name. Non-finite values (which only
/// a failed run can produce) print as 0 so the line stays valid JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn result_line_shape() {
        let m = vec![Metric {
            name: "host_s".into(),
            unit: "s",
            value: 1.25,
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
