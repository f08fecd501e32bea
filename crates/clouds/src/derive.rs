//! Split derivation over in-memory record sets: the SS, SSE and direct
//! methods. The sequential builder uses these directly; pCLOUDS uses the
//! same pieces with communication in between (accumulate locally → combine
//! globally → evaluate).

use pdc_datagen::{Record, CATEGORICAL_CARDINALITY, NUM_CLASSES, NUM_NUMERIC};

use crate::categorical::CountMatrix;
use crate::gini::ClassCounts;
use crate::intervals::IntervalSet;
use crate::numeric::{exact_interval_scan, AliveIndex, AliveInterval, AttrIntervalStats};
use crate::params::{CloudsParams, SplitMethod};
use crate::split::Candidate;

/// All statistics the SS/SSE methods need for one node, accumulated in a
/// single pass over the node's records.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Class distribution of the node.
    pub total: ClassCounts,
    /// Per-numeric-attribute interval statistics.
    pub numeric: Vec<AttrIntervalStats>,
    /// Per-categorical-attribute count matrices.
    pub categorical: Vec<CountMatrix>,
}

impl NodeStats {
    /// Empty statistics with interval boundaries derived from `sample`.
    pub fn from_sample(sample: &[Record], q: usize) -> NodeStats {
        let numeric = (0..NUM_NUMERIC)
            .map(|attr| {
                let values: Vec<f64> = sample.iter().map(|r| r.num(attr)).collect();
                AttrIntervalStats::new(attr, IntervalSet::from_sample(&values, q), NUM_CLASSES)
            })
            .collect();
        let categorical = (0..CATEGORICAL_CARDINALITY.len())
            .map(|attr| CountMatrix::new(attr, CATEGORICAL_CARDINALITY[attr], NUM_CLASSES))
            .collect();
        NodeStats {
            total: vec![0u64; NUM_CLASSES],
            numeric,
            categorical,
        }
    }

    /// Account one record in every attribute's statistics.
    pub fn add_record(&mut self, r: &Record) {
        self.total[r.class as usize] += 1;
        for stats in &mut self.numeric {
            stats.add_value(r.num(stats.attr), r.class);
        }
        for m in &mut self.categorical {
            m.add_value(r.cat(m.attr), r.class);
        }
    }

    /// Merge another processor's statistics (pCLOUDS' global combine).
    pub fn merge(&mut self, other: &NodeStats) {
        crate::gini::add_assign(&mut self.total, &other.total);
        for (a, b) in self.numeric.iter_mut().zip(&other.numeric) {
            a.merge(b);
        }
        for (a, b) in self.categorical.iter_mut().zip(&other.categorical) {
            a.merge(b);
        }
    }

    /// Best split over interval boundaries and categorical attributes — the
    /// SS method's answer, and SSE's `gini_min` starting point.
    pub fn best_ss_split(&self, params: &CloudsParams) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        for stats in &self.numeric {
            if let Some(c) = stats.best_boundary(&self.total) {
                best = Candidate::better(best, c);
            }
        }
        for m in &self.categorical {
            if let Some(c) = m.best_split(&self.total, params.cat_exhaustive_limit) {
                best = Candidate::better(best, c);
            }
        }
        best
    }

    /// All alive intervals across numeric attributes for a given `gini_min`.
    pub fn alive_intervals(&self, gini_min: f64) -> Vec<AliveInterval> {
        self.numeric
            .iter()
            .flat_map(|s| s.alive_intervals(&self.total, gini_min))
            .collect()
    }

    /// Number of records in the node.
    pub fn n(&self) -> u64 {
        self.total.iter().sum()
    }

    /// Survival ratio: fraction of the node's records lying in `alive`
    /// intervals (the paper's measure of how much work SSE's second pass
    /// must do).
    pub fn survival_ratio(&self, alive: &[AliveInterval]) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let alive_count: u64 = alive.iter().map(|a| a.count).sum();
        alive_count as f64 / n as f64
    }
}

/// Accumulate [`NodeStats`] for `records` with intervals from `sample`.
pub fn accumulate_stats(records: &[Record], sample: &[Record], q: usize) -> NodeStats {
    let mut stats = NodeStats::from_sample(sample, q);
    for r in records {
        stats.add_record(r);
    }
    stats
}

/// SSE second pass over in-memory records: exact scans of the alive
/// intervals, returning the best candidate found (if any beats `best`).
/// One pass routes every record through an [`AliveIndex`] into its alive
/// intervals' point lists; `alive` must be in the order
/// [`NodeStats::alive_intervals`] returns.
pub fn evaluate_alive_in_memory(
    records: &[Record],
    alive: &[AliveInterval],
    total: &ClassCounts,
    mut best: Option<Candidate>,
) -> Option<Candidate> {
    let index = AliveIndex::new(alive);
    let mut points: Vec<Vec<(f64, u8)>> = alive
        .iter()
        .map(|a| Vec::with_capacity(usize::try_from(a.count).map_or(0, |c| c.min(records.len()))))
        .collect();
    for r in records {
        index.route(r, |k, v| points[k].push((v, r.class)));
    }
    for (interval, points) in alive.iter().zip(&mut points) {
        if let Some(c) = exact_interval_scan(points, interval, total) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// The direct (exact) method: sort every numeric attribute and evaluate the
/// gini index at each distinct point; categorical attributes via their count
/// matrices. Used for small nodes and as the reference method.
pub fn direct_best_split(records: &[Record], params: &CloudsParams) -> Option<Candidate> {
    if records.is_empty() {
        return None;
    }
    let mut total = vec![0u64; NUM_CLASSES];
    for r in records {
        total[r.class as usize] += 1;
    }
    let mut best: Option<Candidate> = None;
    for attr in 0..NUM_NUMERIC {
        let whole_range = AliveInterval {
            attr,
            index: 0,
            lower: None,
            upper: None,
            cum_before: vec![0u64; NUM_CLASSES],
            est: 0.0,
            count: records.len() as u64,
        };
        let mut points: Vec<(f64, u8)> =
            records.iter().map(|r| (r.num(attr), r.class)).collect();
        if let Some(c) = exact_interval_scan(&mut points, &whole_range, &total) {
            best = Candidate::better(best, c);
        }
    }
    for (attr, &card) in CATEGORICAL_CARDINALITY.iter().enumerate() {
        let mut m = CountMatrix::new(attr, card, NUM_CLASSES);
        for r in records {
            m.add_value(r.cat(attr), r.class);
        }
        if let Some(c) = m.best_split(&total, params.cat_exhaustive_limit) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// Derive the splitter for an in-memory node with the configured method.
pub fn derive_split_in_memory(
    records: &[Record],
    sample: &[Record],
    q: usize,
    params: &CloudsParams,
) -> Option<Candidate> {
    match params.method {
        SplitMethod::Direct => direct_best_split(records, params),
        SplitMethod::SS => {
            let stats = accumulate_stats(records, sample, q);
            stats.best_ss_split(params)
        }
        SplitMethod::SSE => {
            let stats = accumulate_stats(records, sample, q);
            let ss_best = stats.best_ss_split(params);
            let gini_min = ss_best.as_ref().map_or(f64::INFINITY, |c| c.gini);
            let alive = stats.alive_intervals(gini_min);
            evaluate_alive_in_memory(records, &alive, &stats.total, ss_best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::draw_sample;
    use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};

    fn dataset(n: usize) -> Vec<Record> {
        generate(
            n,
            GeneratorConfig {
                function: ClassifyFn::F2,
                ..GeneratorConfig::default()
            },
        )
    }

    #[test]
    fn stats_total_matches_record_count() {
        let records = dataset(500);
        let sample = draw_sample(&records, 100, 1);
        let stats = accumulate_stats(&records, &sample, 20);
        assert_eq!(stats.n(), 500);
        for s in &stats.numeric {
            assert_eq!(s.totals(), stats.total);
        }
        for m in &stats.categorical {
            assert_eq!(m.totals(), stats.total);
        }
    }

    #[test]
    fn merge_equals_whole() {
        let records = dataset(400);
        let sample = draw_sample(&records, 80, 2);
        let mut a = NodeStats::from_sample(&sample, 10);
        let mut b = NodeStats::from_sample(&sample, 10);
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                a.add_record(r);
            } else {
                b.add_record(r);
            }
        }
        a.merge(&b);
        let whole = accumulate_stats(&records, &sample, 10);
        assert_eq!(a, whole);
    }

    #[test]
    fn sse_matches_direct_on_numeric_dominated_data() {
        // SSE must find the exact best split (its bound is sound and the
        // alive scan is exact); the direct method is the reference.
        let records = dataset(2_000);
        let sample = draw_sample(&records, 500, 3);
        let params = CloudsParams::default();
        let sse = derive_split_in_memory(&records, &sample, 50, &params).unwrap();
        let direct = direct_best_split(&records, &params).unwrap();
        assert!(
            (sse.gini - direct.gini).abs() < 1e-10,
            "SSE {} vs direct {}",
            sse.gini,
            direct.gini
        );
    }

    #[test]
    fn ss_is_no_better_than_sse() {
        let records = dataset(2_000);
        let sample = draw_sample(&records, 300, 4);
        let params = CloudsParams::default();
        let ss = derive_split_in_memory(
            &records,
            &sample,
            40,
            &CloudsParams {
                method: SplitMethod::SS,
                ..params.clone()
            },
        )
        .unwrap();
        let sse = derive_split_in_memory(&records, &sample, 40, &params).unwrap();
        assert!(sse.gini <= ss.gini + 1e-12);
    }

    #[test]
    fn survival_ratio_is_small_fraction() {
        // With a good gini_min, few intervals stay alive.
        let records = dataset(5_000);
        let sample = draw_sample(&records, 1_000, 5);
        let stats = accumulate_stats(&records, &sample, 100);
        let params = CloudsParams::default();
        let gini_min = stats.best_ss_split(&params).unwrap().gini;
        let alive = stats.alive_intervals(gini_min);
        let ratio = stats.survival_ratio(&alive);
        assert!(ratio < 0.5, "survival ratio {ratio} suspiciously high");
    }

    #[test]
    fn direct_split_separates_f2_on_age_or_salary() {
        let records = dataset(3_000);
        let c = direct_best_split(&records, &CloudsParams::default()).unwrap();
        match c.splitter {
            crate::split::Splitter::Numeric { attr, .. } => {
                assert!(
                    attr == pdc_datagen::numeric::AGE || attr == pdc_datagen::numeric::SALARY,
                    "unexpected attribute {attr}"
                );
            }
            ref s => panic!("F2 should split numerically, got {s:?}"),
        }
    }

    #[test]
    fn empty_and_pure_nodes_yield_no_split() {
        let params = CloudsParams::default();
        assert!(direct_best_split(&[], &params).is_none());
        let mut records = dataset(100);
        for r in &mut records {
            r.class = 0;
        }
        // A pure node: every split has gini 0 == node gini; splits exist but
        // are valid (both sides non-empty) — builder stops via purity
        // instead. Direct may return a candidate; just ensure no panic.
        let _ = direct_best_split(&records, &params);
    }
}
