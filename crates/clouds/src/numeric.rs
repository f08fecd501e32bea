//! Numeric-attribute split evaluation: interval statistics, boundary gini
//! evaluation (the SS method), alive-interval determination and exact
//! in-interval scans (the SSE method).
//!
//! These are the building blocks shared by sequential CLOUDS and pCLOUDS:
//! pCLOUDS accumulates [`AttrIntervalStats`] locally, merges them with a
//! global combine (the paper's *replication method*), and evaluates alive
//! intervals with the *single-assignment* approach — all through the same
//! functions.

use pdc_cgm::wire::{DecodeResult, Wire};

use pdc_datagen::Record;

use crate::gini::{
    add_assign, gini, interval_gini_lower_bound, split_gini, sub_into, total, ClassCounts,
};
use crate::intervals::IntervalSet;
use crate::split::{Candidate, CandidateKey, Splitter};

/// Per-interval class frequencies of one numeric attribute at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrIntervalStats {
    /// Numeric attribute index.
    pub attr: usize,
    /// Interval boundaries.
    pub intervals: IntervalSet,
    /// `counts[i][k]`: records of class `k` falling in interval `i`.
    pub counts: Vec<ClassCounts>,
    /// Observed `(min, max)` value per interval (`None` if empty). Lets the
    /// SSE pruning discard single-valued intervals — e.g. the huge
    /// `commission == 0` spike of the benchmark data — whose only interior
    /// threshold is equivalent to the boundary split.
    pub ranges: Vec<Option<(f64, f64)>>,
}

impl AttrIntervalStats {
    /// Empty statistics for `attr` over `intervals` with `nclasses` classes.
    pub fn new(attr: usize, intervals: IntervalSet, nclasses: usize) -> Self {
        let q = intervals.num_intervals();
        AttrIntervalStats {
            attr,
            intervals,
            counts: vec![vec![0u64; nclasses]; q],
            ranges: vec![None; q],
        }
    }

    /// Record one attribute value with its class.
    pub fn add_value(&mut self, value: f64, class: u8) {
        let i = self.intervals.interval_of(value);
        self.counts[i][class as usize] += 1;
        self.ranges[i] = Some(match self.ranges[i] {
            None => (value, value),
            Some((lo, hi)) => (lo.min(value), hi.max(value)),
        });
    }

    /// Merge another processor's statistics over the same intervals
    /// (element-wise sum). Panics if the interval structures differ.
    pub fn merge(&mut self, other: &AttrIntervalStats) {
        assert_eq!(self.attr, other.attr);
        assert_eq!(self.intervals, other.intervals, "interval mismatch in merge");
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

    /// Total class counts across all intervals.
    pub fn totals(&self) -> ClassCounts {
        let nclasses = self.counts.first().map_or(0, |c| c.len());
        let mut t = vec![0u64; nclasses];
        for c in &self.counts {
            add_assign(&mut t, c);
        }
        t
    }

    /// Weighted gini of the split at every internal boundary. Entry `i` is
    /// the split at threshold `boundaries[i]`.
    pub fn boundary_ginis(&self, node_total: &ClassCounts) -> Vec<f64> {
        let nb = self.intervals.boundaries().len();
        let mut out = Vec::with_capacity(nb);
        let mut left = vec![0u64; node_total.len()];
        let mut right = vec![0u64; node_total.len()];
        for i in 0..nb {
            add_assign(&mut left, &self.counts[i]);
            sub_into(&mut right, node_total, &left);
            out.push(split_gini(&left, &right));
        }
        out
    }

    /// Best interval-boundary split for this attribute (the SS candidate).
    pub fn best_boundary(&self, node_total: &ClassCounts) -> Option<Candidate> {
        let n = total(node_total);
        let mut left = vec![0u64; node_total.len()];
        let mut right = vec![0u64; node_total.len()];
        let mut best = NumericBest::new(self.attr);
        for (interior, &threshold) in self.counts.iter().zip(self.intervals.boundaries()) {
            add_assign(&mut left, interior);
            let left_n = total(&left);
            if left_n == 0 || left_n == n {
                continue; // degenerate: one side empty, cannot partition
            }
            sub_into(&mut right, node_total, &left);
            best.offer(split_gini(&left, &right), threshold, &left);
        }
        best.finish()
    }

    /// The SSE method's alive intervals: intervals whose gini lower bound is
    /// strictly below `gini_min` and which contain at least two records
    /// (otherwise no interior split can beat the boundaries).
    pub fn alive_intervals(&self, node_total: &ClassCounts, gini_min: f64) -> Vec<AliveInterval> {
        let mut alive = Vec::new();
        let mut cum_before = vec![0u64; node_total.len()];
        for (i, interior) in self.counts.iter().enumerate() {
            let count: u64 = interior.iter().sum();
            // A single-valued interval (min == max) offers only one interior
            // threshold, equivalent to its upper-boundary split, which the
            // boundary pass already evaluated — never alive.
            let multi_valued = matches!(self.ranges[i], Some((lo, hi)) if lo < hi);
            if count >= 2 && multi_valued {
                let est = interval_gini_lower_bound(&cum_before, interior, node_total);
                if est < gini_min {
                    alive.push(AliveInterval {
                        attr: self.attr,
                        index: i,
                        lower: self.intervals.lower_edge(i),
                        upper: self.intervals.upper_edge(i),
                        cum_before: cum_before.clone(),
                        est,
                        count,
                    });
                }
            }
            add_assign(&mut cum_before, interior);
        }
        alive
    }
}

impl Wire for AttrIntervalStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.intervals.encode(buf);
        self.counts.encode(buf);
        self.ranges.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(AttrIntervalStats {
            attr: usize::decode(bytes)?,
            intervals: crate::intervals::IntervalSet::decode(bytes)?,
            counts: Vec::<ClassCounts>::decode(bytes)?,
            ranges: Vec::<Option<(f64, f64)>>::decode(bytes)?,
        })
    }
}

/// One interval that survived the SSE pruning and must be scanned exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct AliveInterval {
    /// Numeric attribute index.
    pub attr: usize,
    /// Interval index within the attribute.
    pub index: usize,
    /// Open lower edge (`None` = −inf).
    pub lower: Option<f64>,
    /// Closed upper edge (`None` = +inf).
    pub upper: Option<f64>,
    /// Class counts of all records strictly before this interval.
    pub cum_before: ClassCounts,
    /// Gini lower bound that kept the interval alive.
    pub est: f64,
    /// Number of records inside the interval.
    pub count: u64,
}

impl AliveInterval {
    /// Does `value` fall inside this interval `(lower, upper]`?
    pub fn contains(&self, value: f64) -> bool {
        self.lower.is_none_or(|lo| value > lo) && self.upper.is_none_or(|hi| value <= hi)
    }
}

impl Wire for AliveInterval {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.index.encode(buf);
        self.lower.encode(buf);
        self.upper.encode(buf);
        self.cum_before.encode(buf);
        self.est.encode(buf);
        self.count.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(AliveInterval {
            attr: usize::decode(bytes)?,
            index: usize::decode(bytes)?,
            lower: Option::<f64>::decode(bytes)?,
            upper: Option::<f64>::decode(bytes)?,
            cum_before: ClassCounts::decode(bytes)?,
            est: f64::decode(bytes)?,
            count: u64::decode(bytes)?,
        })
    }
}

/// Running minimum over the numeric splits of one attribute, by the
/// canonical [`Candidate`] key. The left counts are copied only when the
/// best improves, and the [`Candidate`] is built once, at the end.
struct NumericBest {
    attr: usize,
    key: Option<CandidateKey>,
    gini: f64,
    threshold: f64,
    left: ClassCounts,
}

impl NumericBest {
    fn new(attr: usize) -> Self {
        NumericBest {
            attr,
            key: None,
            gini: 0.0,
            threshold: 0.0,
            left: Vec::new(),
        }
    }

    /// Keep the split at `threshold` if its key beats the best so far
    /// (the rule of [`Candidate::better`]).
    fn offer(&mut self, gini: f64, threshold: f64, left: &[u64]) {
        let splitter = Splitter::Numeric {
            attr: self.attr,
            threshold,
        };
        let key = Candidate::key_of(gini, &splitter);
        if self.key.is_none_or(|best| key < best) {
            self.key = Some(key);
            self.gini = gini;
            self.threshold = threshold;
            self.left.clear();
            self.left.extend_from_slice(left);
        }
    }

    fn finish(self) -> Option<Candidate> {
        self.key.map(|_| Candidate {
            gini: self.gini,
            splitter: Splitter::Numeric {
                attr: self.attr,
                threshold: self.threshold,
            },
            left_counts: self.left,
        })
    }
}

/// Exact gini scan over the points of one alive interval: sorts the points
/// and evaluates the split at every distinct value. Returns the best
/// candidate, or `None` when the interval has no point.
///
/// `points` are `(value, class)` pairs of records inside the interval.
pub fn exact_interval_scan(
    points: &mut [(f64, u8)],
    alive: &AliveInterval,
    node_total: &ClassCounts,
) -> Option<Candidate> {
    if points.is_empty() {
        return None;
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute value"));
    let mut left = alive.cum_before.clone();
    let mut right = vec![0u64; node_total.len()];
    let mut best = NumericBest::new(alive.attr);
    let n = points.len();
    let mut i = 0;
    while i < n {
        let v = points[i].0;
        debug_assert!(
            alive.contains(v),
            "point {v} outside alive interval {:?}..{:?}",
            alive.lower,
            alive.upper
        );
        while i < n && points[i].0 == v {
            left[points[i].1 as usize] += 1;
            i += 1;
        }
        sub_into(&mut right, node_total, &left);
        if total(&right) == 0 {
            break; // threshold at the global maximum cannot partition
        }
        best.offer(split_gini(&left, &right), v, &left);
    }
    best.finish()
}

/// Routes records to the alive intervals that contain them.
///
/// Built once per node from alive intervals grouped by attribute in
/// ascending order, disjoint and ascending within an attribute (the order
/// of [`AttrIntervalStats::alive_intervals`] and of a sort by
/// `(attr, index)`). Only attributes with an alive interval are indexed;
/// for each, one binary search over the upper edges and one containment
/// check find the only interval that can hold a value. Positions `k` refer
/// to the slice the index was built from; since that slice is grouped by
/// attribute, an attribute's entries are the contiguous range `k ∈
/// start..end` of the flat edge arrays.
#[derive(Debug)]
pub struct AliveIndex {
    /// `(attr, start, end)` per indexed attribute, ascending `attr`.
    attrs: Vec<(usize, usize, usize)>,
    /// Open lower edge per alive interval (`None` = −inf).
    lower: Vec<Option<f64>>,
    /// Closed upper edge per alive interval (`None` = +inf).
    upper: Vec<Option<f64>>,
}

impl AliveIndex {
    /// Index `alive`. Panics unless the intervals are grouped by ascending
    /// attribute and disjoint and ascending within one.
    pub fn new(alive: &[AliveInterval]) -> AliveIndex {
        let mut attrs: Vec<(usize, usize, usize)> = Vec::new();
        for (k, a) in alive.iter().enumerate() {
            match attrs.last_mut() {
                Some((attr, _, end)) if *attr == a.attr => {
                    let prev = &alive[k - 1];
                    assert!(
                        matches!((prev.upper, a.lower), (Some(hi), Some(lo)) if lo >= hi),
                        "alive intervals {} and {} of attribute {attr} overlap or are out of order",
                        prev.index,
                        a.index
                    );
                    *end = k + 1;
                }
                last => {
                    assert!(
                        last.is_none_or(|&mut (attr, _, _)| attr < a.attr),
                        "alive intervals must be grouped by ascending attribute"
                    );
                    attrs.push((a.attr, k, k + 1));
                }
            }
        }
        AliveIndex {
            attrs,
            lower: alive.iter().map(|a| a.lower).collect(),
            upper: alive.iter().map(|a| a.upper).collect(),
        }
    }

    /// Position of the interval of `(start, end)` holding `value`, if any.
    #[inline]
    fn find(&self, start: usize, end: usize, value: f64) -> Option<usize> {
        let uppers = &self.upper[start..end];
        let j = start + uppers.partition_point(|u| u.is_some_and(|hi| hi < value));
        let inside = j < end
            && self.lower[j].is_none_or(|lo| value > lo)
            && self.upper[j].is_none_or(|hi| value <= hi);
        inside.then_some(j)
    }

    /// Call `hit(k, value)` for every alive interval `k` containing the
    /// record's value of its attribute, in ascending `k` — the order of a
    /// loop over all of `alive` testing [`AliveInterval::contains`].
    #[inline]
    pub fn route(&self, record: &Record, mut hit: impl FnMut(usize, f64)) {
        for &(attr, start, end) in &self.attrs {
            let v = record.num(attr);
            if let Some(k) = self.find(start, end, v) {
                hit(k, v);
            }
        }
    }
}

/// Gini of the node itself (no split), used as the "don't split" baseline.
pub fn node_gini(node_total: &ClassCounts) -> f64 {
    gini(node_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gini::sub;
    use crate::intervals::IntervalSet;

    fn stats_from(values: &[(f64, u8)], q: usize) -> (AttrIntervalStats, ClassCounts) {
        let sample: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
        let intervals = IntervalSet::from_sample(&sample, q);
        let mut stats = AttrIntervalStats::new(0, intervals, 2);
        let mut total = vec![0u64; 2];
        for &(v, c) in values {
            stats.add_value(v, c);
            total[c as usize] += 1;
        }
        (stats, total)
    }

    /// Brute-force best split over all distinct thresholds.
    fn brute_force_best(values: &[(f64, u8)]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut total = vec![0u64; 2];
        for &(_, c) in &sorted {
            total[c as usize] += 1;
        }
        let mut left = vec![0u64, 0];
        let mut best = f64::INFINITY;
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i].0;
            while i < sorted.len() && sorted[i].0 == v {
                left[sorted[i].1 as usize] += 1;
                i += 1;
            }
            let right = sub(&total, &left);
            best = best.min(split_gini(&left, &right));
        }
        best
    }

    fn synthetic_values(n: usize) -> Vec<(f64, u8)> {
        // Class 0 below 37.5, class 1 above, with some overlap noise.
        (0..n)
            .map(|i| {
                let v = (i as f64 * 7.3) % 100.0;
                let c = if v <= 37.5 {
                    u8::from(i % 13 == 0)
                } else {
                    u8::from(i % 11 != 0)
                };
                (v, c)
            })
            .collect()
    }

    #[test]
    fn interval_counts_sum_to_totals() {
        let values = synthetic_values(500);
        let (stats, total) = stats_from(&values, 8);
        assert_eq!(stats.totals(), total);
        let per_interval: u64 = stats.counts.iter().flatten().sum();
        assert_eq!(per_interval, 500);
    }

    #[test]
    fn merge_equals_combined_accumulation() {
        let values = synthetic_values(300);
        // Build with the same interval set for both halves.
        let sample: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
        let intervals = IntervalSet::from_sample(&sample, 6);
        let mut a = AttrIntervalStats::new(0, intervals.clone(), 2);
        let mut b = AttrIntervalStats::new(0, intervals.clone(), 2);
        let mut whole = AttrIntervalStats::new(0, intervals, 2);
        for (i, &(v, c)) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.add_value(v, c);
            } else {
                b.add_value(v, c);
            }
            whole.add_value(v, c);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn boundary_ginis_match_direct_computation() {
        let values = synthetic_values(400);
        let (stats, total) = stats_from(&values, 10);
        let ginis = stats.boundary_ginis(&total);
        for (i, &b) in stats.intervals.boundaries().iter().enumerate() {
            let mut left = vec![0u64; 2];
            for &(v, c) in &values {
                if v <= b {
                    left[c as usize] += 1;
                }
            }
            let right = sub(&total, &left);
            let expected = split_gini(&left, &right);
            assert!(
                (ginis[i] - expected).abs() < 1e-12,
                "boundary {i}: {} vs {expected}",
                ginis[i]
            );
        }
    }

    #[test]
    fn sse_exact_scan_finds_global_optimum() {
        // SSE with alive intervals must recover the brute-force optimum:
        // the lower bound never prunes the true best interval.
        let values = synthetic_values(800);
        let (stats, total) = stats_from(&values, 16);
        let boundary_best = stats
            .best_boundary(&total)
            .map(|c| c.gini)
            .unwrap_or(f64::INFINITY);
        let alive = stats.alive_intervals(&total, boundary_best);
        let mut best = boundary_best;
        for a in &alive {
            let mut points: Vec<(f64, u8)> =
                values.iter().copied().filter(|&(v, _)| a.contains(v)).collect();
            assert_eq!(points.len() as u64, a.count, "alive interval count");
            if let Some(c) = exact_interval_scan(&mut points, a, &total) {
                best = best.min(c.gini);
            }
        }
        let brute = brute_force_best(&values);
        assert!(
            (best - brute).abs() < 1e-12,
            "SSE best {best} != brute force {brute}"
        );
    }

    #[test]
    fn alive_interval_pruning_is_sound() {
        // Every interval pruned by the bound must contain no split better
        // than gini_min.
        let values = synthetic_values(600);
        let (stats, total) = stats_from(&values, 12);
        let gini_min = stats.best_boundary(&total).unwrap().gini;
        let alive = stats.alive_intervals(&total, gini_min);
        let alive_idx: Vec<usize> = alive.iter().map(|a| a.index).collect();
        for i in 0..stats.intervals.num_intervals() {
            if alive_idx.contains(&i) {
                continue;
            }
            // Scan the pruned interval exactly; nothing should beat gini_min.
            let lo = stats.intervals.lower_edge(i);
            let hi = stats.intervals.upper_edge(i);
            let mut cum_before = vec![0u64; 2];
            for j in 0..i {
                add_assign(&mut cum_before, &stats.counts[j]);
            }
            let fake = AliveInterval {
                attr: 0,
                index: i,
                lower: lo,
                upper: hi,
                cum_before,
                est: 0.0,
                count: stats.counts[i].iter().sum(),
            };
            let mut points: Vec<(f64, u8)> =
                values.iter().copied().filter(|&(v, _)| fake.contains(v)).collect();
            if let Some(c) = exact_interval_scan(&mut points, &fake, &total) {
                assert!(
                    c.gini >= gini_min - 1e-12,
                    "pruned interval {i} hides a better split: {} < {gini_min}",
                    c.gini
                );
            }
        }
    }

    #[test]
    fn alive_interval_contains_respects_half_open_edges() {
        let a = AliveInterval {
            attr: 0,
            index: 1,
            lower: Some(10.0),
            upper: Some(20.0),
            cum_before: vec![0, 0],
            est: 0.0,
            count: 0,
        };
        assert!(!a.contains(10.0));
        assert!(a.contains(10.0001));
        assert!(a.contains(20.0));
        assert!(!a.contains(20.0001));
    }

    #[test]
    fn alive_interval_wire_roundtrip() {
        let a = AliveInterval {
            attr: 3,
            index: 7,
            lower: None,
            upper: Some(1.5),
            cum_before: vec![4, 9],
            est: 0.123,
            count: 13,
        };
        assert_eq!(AliveInterval::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn empty_interval_scan_returns_none() {
        let a = AliveInterval {
            attr: 0,
            index: 0,
            lower: None,
            upper: None,
            cum_before: vec![0, 0],
            est: 0.0,
            count: 0,
        };
        assert_eq!(exact_interval_scan(&mut [], &a, &vec![5, 5]), None);
    }
}
