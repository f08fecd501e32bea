//! Identity pin: a fixed small F2 training set, trained under both
//! large-node schedules (Mixed and Concatenated) and both boundary
//! evaluation approaches, must reproduce the same tree wire bytes, the
//! same makespan bits and the same total counters as the recorded
//! constants below. Host-side kernel rewrites (routing, scans) must not
//! move any of them: the virtual clock models the paper's algorithm, not
//! the simulator's implementation of it.

use pdc_cgm::wire::Wire;
use pdc_cgm::Cluster;
use pdc_clouds::CloudsParams;
use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train, BoundaryEval, PcloudsConfig};

/// Everything the pin compares for one configuration.
#[derive(Debug, PartialEq)]
struct Pin {
    /// FNV-1a 64 of the tree's wire encoding.
    tree_fnv: u64,
    /// Length of the tree's wire encoding.
    tree_bytes: usize,
    /// `f64::to_bits` of the makespan.
    makespan_bits: u64,
    /// Total operation counts by kind.
    ops: [u64; 7],
    messages_sent: u64,
    bytes_sent: u64,
    disk_read_bytes: u64,
    disk_write_bytes: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn run(strategy: Strategy, boundary_eval: BoundaryEval) -> Pin {
    let records = generate(
        6_000,
        GeneratorConfig {
            function: ClassifyFn::F2,
            ..GeneratorConfig::default()
        },
    );
    let config = PcloudsConfig {
        clouds: CloudsParams {
            q_root: 200,
            q_min: 10,
            sample_size: 2_000,
            ..CloudsParams::default()
        },
        memory_limit_bytes: 32 * 1024,
        switch_threshold_intervals: 10,
        boundary_eval,
        ..PcloudsConfig::default()
    };
    let p = 4;
    let farm = DiskFarm::in_memory(p);
    let root = load_dataset(
        &farm,
        &records,
        config.clouds.sample_size,
        config.clouds.sample_seed,
    );
    let out = train(&Cluster::new(p), &farm, &root, &config, strategy);
    // The pin is only meaningful if the SSE alive-interval path ran.
    let scanned: u64 = out.metrics.iter().map(|m| m.alive_points_scanned).sum();
    assert!(
        scanned > 0,
        "{strategy:?}/{boundary_eval:?}: no alive point scanned"
    );
    let tree = out.tree.to_bytes();
    let c = out.run.total_counters();
    Pin {
        tree_fnv: fnv1a(&tree),
        tree_bytes: tree.len(),
        makespan_bits: out.runtime().to_bits(),
        ops: c.ops,
        messages_sent: c.messages_sent,
        bytes_sent: c.bytes_sent,
        disk_read_bytes: c.disk_read_bytes,
        disk_write_bytes: c.disk_write_bytes,
    }
}

#[test]
fn pinned_runs_reproduce_recorded_trees_times_and_counters() {
    let cases = [
        (
            Strategy::Mixed,
            BoundaryEval::AttributeBased,
            PIN_MIXED_ATTR,
        ),
        (
            Strategy::Mixed,
            BoundaryEval::IntervalBased,
            PIN_MIXED_INTERVAL,
        ),
        (
            Strategy::Concatenated,
            BoundaryEval::AttributeBased,
            PIN_CONCAT_ATTR,
        ),
        (
            Strategy::Concatenated,
            BoundaryEval::IntervalBased,
            PIN_CONCAT_INTERVAL,
        ),
    ];
    for (strategy, eval, expected) in cases {
        let got = run(strategy, eval);
        assert_eq!(got, expected, "{strategy:?}/{eval:?} moved");
    }
}

// Recorded from the commit before the host-kernel rewrite of the SSE
// derive phase (indexed alive-interval routing, allocation-free scans).

const PIN_MIXED_ATTR: Pin = Pin {
    tree_fnv: 10567351257863067888,
    tree_bytes: 17086,
    makespan_bits: 4597099855135479476,
    ops: [43006, 805602, 31467, 10294, 0, 493275, 0],
    messages_sent: 1531,
    bytes_sent: 1347914,
    disk_read_bytes: 3474848,
    disk_write_bytes: 1593592,
};

const PIN_MIXED_INTERVAL: Pin = Pin {
    tree_fnv: 10567351257863067888,
    tree_bytes: 17086,
    makespan_bits: 4596563162780603246,
    ops: [43006, 805602, 31593, 42184, 0, 493275, 0],
    messages_sent: 1573,
    bytes_sent: 1287618,
    disk_read_bytes: 3474848,
    disk_write_bytes: 1593592,
};

const PIN_CONCAT_ATTR: Pin = Pin {
    tree_fnv: 4133145766792447628,
    tree_bytes: 17086,
    makespan_bits: 4601776037128681086,
    ops: [41386, 178055, 66815, 23178, 0, 2261354, 0],
    messages_sent: 4729,
    bytes_sent: 4002303,
    disk_read_bytes: 4575584,
    disk_write_bytes: 1924312,
};

const PIN_CONCAT_INTERVAL: Pin = Pin {
    tree_fnv: 4133145766792447628,
    tree_bytes: 17086,
    makespan_bits: 4601730236035167820,
    ops: [41386, 178055, 66821, 29724, 0, 2261354, 0],
    messages_sent: 4731,
    bytes_sent: 3979383,
    disk_read_bytes: 4575584,
    disk_write_bytes: 1924312,
};
