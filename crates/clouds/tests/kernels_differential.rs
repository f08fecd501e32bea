//! Differential tests of the SSE host kernels against the straightforward
//! code they replaced, which is kept here as the oracle:
//!
//! * routing through an [`AliveIndex`] must pick the same alive interval
//!   (or none) per attribute as testing every interval's
//!   [`AliveInterval::contains`], in the same order;
//! * the allocation-free `best_boundary`, `boundary_ginis` and
//!   `exact_interval_scan` must return bit-identical results to scans that
//!   build a [`Candidate`] at every threshold and keep the winner with
//!   [`Candidate::better`];
//! * the single-pass `evaluate_alive_in_memory` must match one filter pass
//!   per alive interval;
//! * the flat interval statistics (`AttrIntervalStats::add_value`,
//!   `merge`, `NodeStats::add_record`) must hold the same counts, the same
//!   range bits and encode to the same bytes as the per-interval vectors
//!   located by binary search;
//! * the radix sort behind `exact_interval_scan` must order points bit for
//!   bit like the stable `sort_by(partial_cmp)`, and still reject NaN.

use pdc_cgm::Wire;
use pdc_clouds::derive::{accumulate_stats, evaluate_alive_in_memory};
use pdc_clouds::gini::{add_assign, split_gini, sub};
use pdc_clouds::numeric::RADIX_SORT_CUTOFF;
use pdc_clouds::{
    draw_sample, exact_interval_scan, sort_points, AliveIndex, AliveInterval, AttrIntervalStats,
    Candidate, ClassCounts, CloudsParams, IntervalSet, NodeStats, Splitter,
};
use pdc_datagen::{generate, ClassifyFn, GeneratorConfig, Record, NUM_CLASSES, NUM_NUMERIC};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Oracles: the kernels as they were before the routing index and the
// scratch-buffer scans.
// ---------------------------------------------------------------------

/// Every alive interval containing the record's value, by brute force.
fn oracle_hits(alive: &[AliveInterval], r: &Record) -> Vec<(usize, u64)> {
    let mut hits = Vec::new();
    for (k, interval) in alive.iter().enumerate() {
        let v = r.num(interval.attr);
        if interval.contains(v) {
            hits.push((k, v.to_bits()));
        }
    }
    hits
}

fn oracle_boundary_ginis(stats: &AttrIntervalStats, node_total: &ClassCounts) -> Vec<f64> {
    let nb = stats.intervals.boundaries().len();
    let mut out = Vec::with_capacity(nb);
    let mut left = vec![0u64; node_total.len()];
    for i in 0..nb {
        add_assign(&mut left, stats.counts(i));
        let right = sub(node_total, &left);
        out.push(split_gini(&left, &right));
    }
    out
}

fn oracle_best_boundary(stats: &AttrIntervalStats, node_total: &ClassCounts) -> Option<Candidate> {
    let ginis = oracle_boundary_ginis(stats, node_total);
    let boundaries = stats.intervals.boundaries();
    let n: u64 = node_total.iter().sum();
    let mut best: Option<Candidate> = None;
    let mut left = vec![0u64; node_total.len()];
    for (i, &g) in ginis.iter().enumerate() {
        add_assign(&mut left, stats.counts(i));
        let left_n: u64 = left.iter().sum();
        if left_n == 0 || left_n == n {
            continue;
        }
        best = Candidate::better(
            best,
            Candidate {
                gini: g,
                splitter: Splitter::Numeric {
                    attr: stats.attr,
                    threshold: boundaries[i],
                },
                left_counts: left.clone(),
            },
        );
    }
    best
}

fn oracle_exact_scan(
    points: &mut [(f64, u8)],
    alive: &AliveInterval,
    node_total: &ClassCounts,
) -> Option<Candidate> {
    if points.is_empty() {
        return None;
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute value"));
    let mut left = alive.cum_before.clone();
    let mut best: Option<Candidate> = None;
    let n = points.len();
    let mut i = 0;
    while i < n {
        let v = points[i].0;
        while i < n && points[i].0 == v {
            left[points[i].1 as usize] += 1;
            i += 1;
        }
        let right = sub(node_total, &left);
        if right.iter().sum::<u64>() == 0 {
            break;
        }
        let g = split_gini(&left, &right);
        best = Candidate::better(
            best,
            Candidate {
                gini: g,
                splitter: Splitter::Numeric {
                    attr: alive.attr,
                    threshold: v,
                },
                left_counts: left.clone(),
            },
        );
    }
    best
}

fn oracle_evaluate_alive(
    records: &[Record],
    alive: &[AliveInterval],
    total: &ClassCounts,
    mut best: Option<Candidate>,
) -> Option<Candidate> {
    for interval in alive {
        let mut points: Vec<(f64, u8)> = records
            .iter()
            .filter(|r| interval.contains(r.num(interval.attr)))
            .map(|r| (r.num(interval.attr), r.class))
            .collect();
        if let Some(c) = oracle_exact_scan(&mut points, interval, total) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// The interval statistics as they were before the flat layout: one count
/// vector and one optional range per interval, the interval found by a
/// binary search over the boundaries.
#[derive(Clone)]
struct OracleStats {
    attr: usize,
    boundaries: Vec<f64>,
    counts: Vec<ClassCounts>,
    ranges: Vec<Option<(f64, f64)>>,
}

impl OracleStats {
    fn new(attr: usize, intervals: &IntervalSet, nclasses: usize) -> Self {
        let q = intervals.num_intervals();
        OracleStats {
            attr,
            boundaries: intervals.boundaries().to_vec(),
            counts: vec![vec![0; nclasses]; q],
            ranges: vec![None; q],
        }
    }

    fn add_value(&mut self, value: f64, class: u8) {
        let i = self.boundaries.partition_point(|&b| b < value);
        self.counts[i][class as usize] += 1;
        self.ranges[i] = Some(match self.ranges[i] {
            None => (value, value),
            Some((lo, hi)) => (lo.min(value), hi.max(value)),
        });
    }

    fn merge(&mut self, other: &OracleStats) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            add_assign(a, b);
        }
        for (a, b) in self.ranges.iter_mut().zip(&other.ranges) {
            *a = match (*a, *b) {
                (None, r) => r,
                (r, None) => r,
                (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
            };
        }
    }

    /// The wire bytes of the old struct, field by field.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.attr.encode(&mut buf);
        self.boundaries.encode(&mut buf);
        self.counts.encode(&mut buf);
        self.ranges.encode(&mut buf);
        buf
    }
}

/// The old `NodeStats::add_record` over the numeric attributes.
fn oracle_add_record(total: &mut ClassCounts, numeric: &mut [OracleStats], r: &Record) {
    total[r.class as usize] += 1;
    for stats in numeric {
        stats.add_value(r.num(stats.attr), r.class);
    }
}

fn range_bits(r: Option<(f64, f64)>) -> Option<(u64, u64)> {
    r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

/// Same counts, same range bits and same wire bytes as the oracle.
fn check_stats(stats: &AttrIntervalStats, oracle: &OracleStats) {
    prop_assert_eq!(stats.intervals.num_intervals(), oracle.counts.len());
    for (i, row) in oracle.counts.iter().enumerate() {
        prop_assert_eq!(stats.counts(i), &row[..], "interval {}", i);
        prop_assert_eq!(
            range_bits(stats.range(i)),
            range_bits(oracle.ranges[i]),
            "interval {}",
            i
        );
    }
    prop_assert_eq!(stats.to_bytes(), oracle.to_bytes());
}

/// The sort the radix sort replaced.
fn oracle_sort(points: &mut [(f64, u8)]) {
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute value"));
}

fn point_bits(points: &[(f64, u8)]) -> Vec<(u64, u8)> {
    points.iter().map(|&(v, c)| (v.to_bits(), c)).collect()
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Bit-level view of a candidate: gini bits, splitter (threshold bits for
/// numeric splits) and left counts.
fn bits(c: &Option<Candidate>) -> Option<(u64, usize, u64, Vec<u64>)> {
    c.as_ref().map(|c| match c.splitter {
        Splitter::Numeric { attr, threshold } => (
            c.gini.to_bits(),
            attr,
            threshold.to_bits(),
            c.left_counts.clone(),
        ),
        Splitter::Categorical { attr, left_values } => (
            c.gini.to_bits(),
            attr + 1000,
            left_values,
            c.left_counts.clone(),
        ),
    })
}

fn alive_interval(
    attr: usize,
    index: usize,
    lower: Option<f64>,
    upper: Option<f64>,
    cum_before: ClassCounts,
) -> AliveInterval {
    AliveInterval {
        attr,
        index,
        lower,
        upper,
        cum_before,
        est: 0.0,
        count: 0,
    }
}

/// Alive intervals over integer boundaries in `0..24`: `bounds` holds
/// `(attr, boundary)` pairs, `mask` picks which intervals are alive, and
/// attributes whose bit in `skip` is set get no alive interval at all.
fn random_alive(bounds: &[(u8, u32)], mask: u64, skip: u8) -> Vec<AliveInterval> {
    let mut alive = Vec::new();
    for attr in 0..NUM_NUMERIC {
        if skip & (1 << attr) != 0 {
            continue;
        }
        let mut b: Vec<f64> = bounds
            .iter()
            .filter(|&&(a, _)| a as usize == attr)
            .map(|&(_, x)| f64::from(x))
            .collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let intervals = IntervalSet::from_boundaries(b);
        for i in 0..intervals.num_intervals() {
            if mask.rotate_left((attr * 11 + i) as u32) & 1 == 1 {
                alive.push(alive_interval(
                    attr,
                    i,
                    intervals.lower_edge(i),
                    intervals.upper_edge(i),
                    vec![0, 0],
                ));
            }
        }
    }
    alive
}

/// Probe value from a raw integer: half-steps over `-1..25` (so integer
/// boundaries are hit exactly), plus the infinities and NaN.
fn probe(x: u32) -> f64 {
    match x {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        2 => f64::NAN,
        _ => f64::from(x) / 2.0 - 2.5,
    }
}

/// Boundary from a raw integer: integers over `-12..12`, with raw 0 giving
/// −0.0 (which then collides with the +0.0 of raw 12 and is deduplicated).
fn boundary(x: u32) -> f64 {
    if x == 0 {
        -0.0
    } else {
        f64::from(x) - 12.0
    }
}

/// Edge probe for the accumulator: half-steps over `-13..13` (hitting
/// every boundary exactly and falling below the first and above the last),
/// both zeros, the infinities, huge finite values and NaN.
fn edge_value(x: u32) -> f64 {
    match x {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        2 => -0.0,
        3 => 0.0,
        4 => -1e300,
        5 => 1e300,
        6 => f64::NAN,
        _ => f64::from(x) / 2.0 - 16.5,
    }
}

/// Interval sets over the raw boundaries, either directly or through
/// `from_sample`'s quantiles of them (which deduplicate repeats).
fn edge_intervals(raw: &[u32], q: usize, quantiles: bool) -> IntervalSet {
    let mut b: Vec<f64> = raw.iter().map(|&x| boundary(x)).collect();
    if quantiles {
        return IntervalSet::from_sample(&b, q);
    }
    b.sort_by(f64::total_cmp);
    b.dedup();
    IntervalSet::from_boundaries(b)
}

fn template() -> Record {
    generate(1, GeneratorConfig::default())[0]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every attribute set to one value — each interval edge exactly, and
    /// values between edges, beyond them and non-finite: the index hits
    /// the same intervals as the brute-force loop.
    #[test]
    fn index_routes_edge_values_like_brute_force(
        bounds in proptest::collection::vec((0u8..6, 0u32..24), 0..40),
        mask in any::<u64>(),
        skip in any::<u8>(),
        values in proptest::collection::vec(0u32..56, 1..64),
    ) {
        let alive = random_alive(&bounds, mask, skip);
        let index = AliveIndex::new(&alive);
        let edges = alive.iter().flat_map(|a| [a.lower, a.upper]).flatten();
        let mut r = template();
        for v in edges.chain(values.iter().map(|&x| probe(x))) {
            r.numeric = [v; NUM_NUMERIC];
            let mut got = Vec::new();
            index.route(&r, |k, v| got.push((k, v.to_bits())));
            prop_assert_eq!(got, oracle_hits(&alive, &r), "value {}", v);
        }
    }

    /// `route` reports the same `(k, value)` hits, in the same order, as
    /// the loop over all alive intervals.
    #[test]
    fn index_routes_records_like_brute_force(
        bounds in proptest::collection::vec((0u8..6, 0u32..24), 0..40),
        mask in any::<u64>(),
        skip in any::<u8>(),
        values in proptest::collection::vec(0u32..56, 6..120),
    ) {
        let alive = random_alive(&bounds, mask, skip);
        let index = AliveIndex::new(&alive);
        let mut r = template();
        for chunk in values.chunks(NUM_NUMERIC) {
            for (slot, &x) in r.numeric.iter_mut().zip(chunk) {
                *slot = probe(x);
            }
            let mut got = Vec::new();
            index.route(&r, |k, v| got.push((k, v.to_bits())));
            prop_assert_eq!(got, oracle_hits(&alive, &r));
        }
    }

    /// Exact scans match the oracle bit for bit, on heavily duplicated
    /// values (few distinct thresholds, frequent gini ties) and 2–3
    /// classes.
    #[test]
    fn exact_scan_matches_oracle(
        raw in proptest::collection::vec((0u8..6, 0u8..3), 0..200),
        cum in proptest::collection::vec(0u64..20, 3),
        after in proptest::collection::vec(0u64..20, 3),
        nclasses in 2usize..4,
        attr in 0usize..6,
        edges in (any::<bool>(), any::<bool>()),
    ) {
        let points: Vec<(f64, u8)> = raw
            .iter()
            .map(|&(v, c)| (f64::from(v), c % nclasses as u8))
            .collect();
        let mut total: ClassCounts = (0..nclasses).map(|k| cum[k] + after[k]).collect();
        for &(_, c) in &points {
            total[c as usize] += 1;
        }
        let alive = alive_interval(
            attr,
            0,
            edges.0.then_some(-1.0),
            edges.1.then_some(5.0),
            cum[..nclasses].to_vec(),
        );
        let want = oracle_exact_scan(&mut points.clone(), &alive, &total);
        let got = exact_interval_scan(&mut points.clone(), &alive, &total);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Exact scans over wide-ranged values (mostly distinct thresholds).
    #[test]
    fn exact_scan_matches_oracle_on_distinct_values(
        raw in proptest::collection::vec((0u32..100_000, 0u8..2), 1..300),
        cum in proptest::collection::vec(0u64..200, 2),
    ) {
        let points: Vec<(f64, u8)> =
            raw.iter().map(|&(v, c)| (f64::from(v) / 7.0, c)).collect();
        let mut total = cum.clone();
        for &(_, c) in &points {
            total[c as usize] += 1;
        }
        let alive = alive_interval(2, 0, None, None, cum);
        let want = oracle_exact_scan(&mut points.clone(), &alive, &total);
        let got = exact_interval_scan(&mut points.clone(), &alive, &total);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Boundary scans match the oracle bit for bit, including intervals
    /// with no record (degenerate boundaries) and tied ginis.
    #[test]
    fn boundary_scans_match_oracle(
        bounds in proptest::collection::vec(0u32..30, 0..20),
        cells in proptest::collection::vec(0u64..6, 1..64),
        nclasses in 2usize..4,
    ) {
        let mut b: Vec<f64> = bounds.iter().map(|&x| f64::from(x)).collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let intervals = IntervalSet::from_boundaries(b);
        let q = intervals.num_intervals();
        let counts: Vec<ClassCounts> = (0..q)
            .map(|i| {
                (0..nclasses)
                    .map(|k| cells[(i * nclasses + k) % cells.len()].saturating_sub(3))
                    .collect()
            })
            .collect();
        // Ranges do not enter the boundary scans; any value will do where
        // the interval is nonempty.
        let ranges = counts
            .iter()
            .map(|row| row.iter().any(|&c| c != 0).then_some((0.0, 0.0)))
            .collect();
        let stats = AttrIntervalStats::from_parts(4, intervals, counts, ranges).unwrap();
        let total = stats.totals();
        let ginis: Vec<u64> = stats.boundary_ginis(&total).iter().map(|g| g.to_bits()).collect();
        let oracle: Vec<u64> =
            oracle_boundary_ginis(&stats, &total).iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(ginis, oracle);
        prop_assert_eq!(bits(&stats.best_boundary(&total)), bits(&oracle_best_boundary(&stats, &total)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The locator answers exactly what `partition_point(|b| b < v)` does,
    /// over arbitrary (non-NaN) boundaries — infinities, subnormals, spans
    /// that overflow — and probes at, just beside and between them.
    #[test]
    fn locator_matches_binary_search(
        raw in proptest::collection::vec(any::<f64>(), 0..60),
        probes in proptest::collection::vec(any::<f64>(), 0..60),
    ) {
        let mut b: Vec<f64> = raw.into_iter().filter(|v| !v.is_nan()).collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let set = IntervalSet::from_boundaries(b.clone());
        let beside = b.iter().flat_map(|&x| {
            let bits = x.to_bits();
            [x, f64::from_bits(bits.wrapping_add(1)), f64::from_bits(bits.wrapping_sub(1))]
        });
        let fixed = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE];
        for v in probes.into_iter().chain(beside).chain(fixed) {
            prop_assert_eq!(set.interval_of(v), b.partition_point(|&x| x < v), "value {}", v);
        }
    }

    /// `add_value` keeps the oracle's counts, range bits and wire bytes on
    /// edge values, over direct and quantile boundaries (q = 1 included)
    /// and 2–3 classes; `merge` of two halves matches the oracle's merge.
    #[test]
    fn accumulator_matches_oracle(
        raw in proptest::collection::vec(0u32..25, 0..30),
        q in 1usize..12,
        quantiles in any::<bool>(),
        values in proptest::collection::vec((0u32..70, 0u8..3), 0..150),
        nclasses in 2usize..4,
    ) {
        let intervals = edge_intervals(&raw, q, quantiles);
        let mut halves = [
            (AttrIntervalStats::new(1, intervals.clone(), nclasses), OracleStats::new(1, &intervals, nclasses)),
            (AttrIntervalStats::new(1, intervals.clone(), nclasses), OracleStats::new(1, &intervals, nclasses)),
        ];
        for (k, &(x, c)) in values.iter().enumerate() {
            let (stats, oracle) = &mut halves[k % 2];
            let (v, c) = (edge_value(x), c % nclasses as u8);
            stats.add_value(v, c);
            oracle.add_value(v, c);
        }
        for (stats, oracle) in &halves {
            check_stats(stats, oracle);
        }
        let [(mut stats, mut oracle), (other, other_oracle)] = halves;
        stats.merge(&other);
        oracle.merge(&other_oracle);
        check_stats(&stats, &oracle);
        prop_assert_eq!(AttrIntervalStats::from_bytes(&stats.to_bytes()).unwrap(), stats);
    }

    /// `NodeStats::add_record` matches the old per-attribute accumulation
    /// on records whose numeric fields are edge values.
    #[test]
    fn add_record_matches_oracle(
        sample in proptest::collection::vec(0u32..70, 0..40),
        q in 1usize..10,
        values in proptest::collection::vec((0u32..70, 0u8..2), 0..200),
    ) {
        let mut sample_rec = template();
        let sample: Vec<Record> = sample
            .chunks(NUM_NUMERIC)
            .map(|chunk| {
                for (slot, &x) in sample_rec.numeric.iter_mut().zip(chunk.iter().cycle()) {
                    // from_sample sorts with partial_cmp, so no NaN here.
                    *slot = if x == 6 { 1.0 } else { edge_value(x) };
                }
                sample_rec
            })
            .collect();
        let mut stats = NodeStats::from_sample(&sample, q);
        let mut total = vec![0u64; NUM_CLASSES];
        let mut oracle: Vec<OracleStats> = stats
            .numeric
            .iter()
            .map(|s| OracleStats::new(s.attr, &s.intervals, NUM_CLASSES))
            .collect();
        let mut r = template();
        for (k, &(x, c)) in values.iter().enumerate() {
            for (a, slot) in r.numeric.iter_mut().enumerate() {
                *slot = edge_value((x + 7 * a as u32 + k as u32) % 70);
            }
            r.class = c;
            stats.add_record(&r);
            oracle_add_record(&mut total, &mut oracle, &r);
        }
        prop_assert_eq!(&stats.total, &total);
        for (s, o) in stats.numeric.iter().zip(&oracle) {
            check_stats(s, o);
        }
    }

    /// The radix sort orders points bit for bit like the stable
    /// `sort_by(partial_cmp)`, on lengths on both sides of the cutoff and
    /// values from a small pool (many ties, −0.0 mixed with +0.0,
    /// infinities, subnormals).
    #[test]
    fn sort_matches_stable_sort_on_ties(
        raw in proptest::collection::vec((0u8..12, 0u8..3), 0..3 * RADIX_SORT_CUTOFF),
    ) {
        const POOL: [f64; 12] = [
            -0.0, 0.0, 1.0, -1.0, 2.5, f64::INFINITY, f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 4.0, 1e300, -0.0, 0.0,
        ];
        let points: Vec<(f64, u8)> = raw.iter().map(|&(v, c)| (POOL[v as usize], c)).collect();
        let mut want = points.clone();
        oracle_sort(&mut want);
        let mut got = points;
        sort_points(&mut got);
        prop_assert_eq!(point_bits(&got), point_bits(&want));
    }

    /// All-equal keys — only −0.0 and +0.0 — keep their input order.
    #[test]
    fn sort_keeps_signed_zeros_in_input_order(
        signs in proptest::collection::vec((any::<bool>(), 0u8..3), 0..3 * RADIX_SORT_CUTOFF),
    ) {
        let points: Vec<(f64, u8)> =
            signs.iter().map(|&(neg, c)| (if neg { -0.0 } else { 0.0 }, c)).collect();
        let mut got = points.clone();
        sort_points(&mut got);
        prop_assert_eq!(point_bits(&got), point_bits(&points));
    }

    /// Arbitrary non-NaN values, mostly distinct.
    #[test]
    fn sort_matches_stable_sort_on_arbitrary_values(
        raw in proptest::collection::vec((any::<f64>(), 0u8..2), 0..400),
    ) {
        let points: Vec<(f64, u8)> = raw.into_iter().filter(|p| !p.0.is_nan()).collect();
        let mut want = points.clone();
        oracle_sort(&mut want);
        let mut got = points;
        sort_points(&mut got);
        prop_assert_eq!(point_bits(&got), point_bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The single-pass SSE evaluation matches one filter pass per alive
    /// interval on generated data, both with the SS `gini_min` and with
    /// every multi-valued interval alive.
    #[test]
    fn evaluate_alive_matches_per_interval_passes(
        n in 200usize..3_000,
        seed in any::<u64>(),
        q in 4usize..60,
        function in 0usize..3,
    ) {
        let function = [ClassifyFn::F1, ClassifyFn::F2, ClassifyFn::F7][function];
        let records = generate(n, GeneratorConfig { function, seed, ..GeneratorConfig::default() });
        let sample = draw_sample(&records, (n / 4).max(10), seed ^ 1);
        let stats = accumulate_stats(&records, &sample, q);
        let ss = stats.best_ss_split(&CloudsParams::default());
        let gini_min = ss.as_ref().map_or(f64::INFINITY, |c| c.gini);
        for g in [gini_min, f64::INFINITY] {
            let alive = stats.alive_intervals(g);
            let want = oracle_evaluate_alive(&records, &alive, &stats.total, ss.clone());
            let got = evaluate_alive_in_memory(&records, &alive, &stats.total, ss.clone());
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}

#[test]
fn tied_thresholds_resolve_to_the_canonical_key() {
    // Mirror-image classes: the splits at 1 and 3 have the same gini; the
    // canonical key keeps the lower threshold in both implementations.
    let points = [(1.0, 0u8), (2.0, 1), (3.0, 1), (4.0, 0)];
    let alive = alive_interval(0, 0, None, None, vec![0, 0]);
    let total = vec![2, 2];
    let want = oracle_exact_scan(&mut points.clone(), &alive, &total);
    let got = exact_interval_scan(&mut points.clone(), &alive, &total);
    assert_eq!(bits(&got), bits(&want));
    let got = got.expect("a split exists");
    assert_eq!(
        got.splitter,
        Splitter::Numeric {
            attr: 0,
            threshold: 1.0
        }
    );
}

#[test]
#[should_panic(expected = "grouped by ascending attribute")]
fn index_rejects_unsorted_attributes() {
    let alive = [
        alive_interval(3, 0, None, Some(1.0), vec![0, 0]),
        alive_interval(1, 0, None, Some(1.0), vec![0, 0]),
    ];
    AliveIndex::new(&alive);
}

#[test]
#[should_panic(expected = "overlap or are out of order")]
fn index_rejects_overlapping_intervals() {
    let alive = [
        alive_interval(2, 0, None, Some(5.0), vec![0, 0]),
        alive_interval(2, 1, Some(4.0), None, vec![0, 0]),
    ];
    AliveIndex::new(&alive);
}

#[test]
#[should_panic(expected = "NaN attribute value")]
fn exact_scan_still_rejects_nan() {
    let alive = alive_interval(0, 0, None, None, vec![0, 0]);
    exact_interval_scan(&mut [(1.0, 0), (f64::NAN, 1)], &alive, &vec![1, 1]);
}

#[test]
fn sort_handles_lengths_around_the_cutoff() {
    for n in [
        0,
        1,
        2,
        RADIX_SORT_CUTOFF - 1,
        RADIX_SORT_CUTOFF,
        RADIX_SORT_CUTOFF + 1,
        1000,
    ] {
        let points: Vec<(f64, u8)> = (0..n)
            .map(|i| (((i * 7919) % 101) as f64 - 50.0, (i % 3) as u8))
            .collect();
        let mut want = points.clone();
        oracle_sort(&mut want);
        let mut got = points;
        sort_points(&mut got);
        assert_eq!(point_bits(&got), point_bits(&want), "n = {n}");
    }
}

#[test]
#[should_panic(expected = "NaN attribute value")]
fn radix_sort_rejects_nan() {
    let mut points: Vec<(f64, u8)> = (0..2 * RADIX_SORT_CUTOFF).map(|i| (i as f64, 0)).collect();
    points[RADIX_SORT_CUTOFF].0 = f64::NAN;
    sort_points(&mut points);
}

#[test]
#[should_panic(expected = "NaN attribute value")]
fn single_nan_point_panics() {
    let alive = alive_interval(0, 0, None, None, vec![0, 0]);
    exact_interval_scan(&mut [(f64::NAN, 1)], &alive, &vec![0, 1]);
}

#[test]
fn decode_rejects_inconsistent_interval_statistics() {
    let intervals = IntervalSet::from_boundaries(vec![1.0]);
    let encode = |counts: Vec<ClassCounts>, ranges: Vec<Option<(f64, f64)>>| {
        let mut buf = Vec::new();
        0usize.encode(&mut buf);
        intervals.encode(&mut buf);
        counts.encode(&mut buf);
        ranges.encode(&mut buf);
        buf
    };
    let what = |bytes: Vec<u8>| AttrIntervalStats::from_bytes(&bytes).unwrap_err().what;
    assert_eq!(
        what(encode(vec![vec![1, 0], vec![0, 0]], vec![None, None])),
        "interval range presence does not match its count"
    );
    assert_eq!(
        what(encode(
            vec![vec![0, 0], vec![0, 0]],
            vec![None, Some((2.0, 2.0))]
        )),
        "interval range presence does not match its count"
    );
    assert_eq!(
        what(encode(vec![vec![0, 0], vec![0]], vec![None, None])),
        "interval count rows differ in width"
    );
    assert_eq!(
        what(encode(vec![vec![0, 0]], vec![None])),
        "interval statistics do not match the interval count"
    );
    let mut buf = Vec::new();
    vec![2.0, 1.0].encode(&mut buf);
    assert_eq!(
        IntervalSet::from_bytes(&buf).unwrap_err().what,
        "interval boundaries not strictly ascending"
    );
    let ok = encode(vec![vec![1, 0], vec![0, 0]], vec![Some((0.5, 0.5)), None]);
    assert_eq!(AttrIntervalStats::from_bytes(&ok).unwrap().to_bytes(), ok);
}
