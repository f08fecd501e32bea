//! Numeric-attribute split evaluation: interval statistics, boundary gini
//! evaluation (the SS method), alive-interval determination and exact
//! in-interval scans (the SSE method).
//!
//! These are the building blocks shared by sequential CLOUDS and pCLOUDS:
//! pCLOUDS accumulates [`AttrIntervalStats`] locally, merges them with a
//! global combine (the paper's *replication method*), and evaluates alive
//! intervals with the *single-assignment* approach — all through the same
//! functions.

use pdc_cgm::wire::{encode_seq, DecodeError, DecodeResult, Wire};

use pdc_datagen::Record;

use crate::gini::{
    add_assign, gini, interval_gini_lower_bound, split_gini, sub_into, total, ClassCounts,
};
use crate::intervals::IntervalSet;
use crate::split::{Candidate, CandidateKey, Splitter};

/// Per-interval class frequencies of one numeric attribute at one node.
///
/// Stored flat, because [`AttrIntervalStats::add_value`] runs once per
/// record and numeric attribute: one `q × classes` count array and one
/// lo/hi array pair, instead of a vector per interval and an optional
/// range per interval. An interval has a range exactly when its count is
/// nonzero; its lo/hi slots hold NaN until the first value arrives, and
/// `NaN.min(v) == v` makes the first update exact without a branch.
#[derive(Debug, Clone)]
pub struct AttrIntervalStats {
    /// Numeric attribute index.
    pub attr: usize,
    /// Interval boundaries.
    pub intervals: IntervalSet,
    /// Number of classes (the row width of `counts`).
    nclasses: usize,
    /// `counts[i * nclasses + k]`: records of class `k` in interval `i`.
    counts: Vec<u64>,
    /// Smallest value seen per interval (NaN while the interval is empty).
    lo: Vec<f64>,
    /// Largest value seen per interval (NaN while the interval is empty).
    hi: Vec<f64>,
}

/// Equality of the counts and of the observed ranges (see
/// [`AttrIntervalStats::range`]).
impl PartialEq for AttrIntervalStats {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr
            && self.intervals == other.intervals
            && self.nclasses == other.nclasses
            && self.counts == other.counts
            && (0..self.lo.len()).all(|i| self.range(i) == other.range(i))
    }
}

impl AttrIntervalStats {
    /// Empty statistics for `attr` over `intervals` with `nclasses` classes.
    pub fn new(attr: usize, intervals: IntervalSet, nclasses: usize) -> Self {
        let q = intervals.num_intervals();
        AttrIntervalStats {
            attr,
            intervals,
            nclasses,
            counts: vec![0; q * nclasses],
            lo: vec![f64::NAN; q],
            hi: vec![f64::NAN; q],
        }
    }

    /// Statistics from per-interval class counts and observed `(min, max)`
    /// ranges, the layout of the wire encoding. Errors unless there is one
    /// count row and one range per interval, every row has the same width,
    /// and an interval has a range exactly when its count is nonzero.
    pub fn from_parts(
        attr: usize,
        intervals: IntervalSet,
        counts: Vec<ClassCounts>,
        ranges: Vec<Option<(f64, f64)>>,
    ) -> Result<Self, &'static str> {
        let q = intervals.num_intervals();
        if counts.len() != q || ranges.len() != q {
            return Err("interval statistics do not match the interval count");
        }
        let nclasses = counts[0].len();
        let mut stats = AttrIntervalStats::new(attr, intervals, nclasses);
        for (i, (row, range)) in counts.iter().zip(&ranges).enumerate() {
            if row.len() != nclasses {
                return Err("interval count rows differ in width");
            }
            if range.is_some() != row.iter().any(|&c| c != 0) {
                return Err("interval range presence does not match its count");
            }
            stats.counts[i * nclasses..(i + 1) * nclasses].copy_from_slice(row);
            if let Some((lo, hi)) = *range {
                stats.lo[i] = lo;
                stats.hi[i] = hi;
            }
        }
        Ok(stats)
    }

    /// Record one attribute value with its class.
    #[inline]
    pub fn add_value(&mut self, value: f64, class: u8) {
        let i = self.intervals.interval_of(value);
        let c = self.nclasses;
        self.counts[i * c..(i + 1) * c][class as usize] += 1;
        self.lo[i] = self.lo[i].min(value);
        self.hi[i] = self.hi[i].max(value);
    }

    /// Number of classes counted per interval.
    pub fn num_classes(&self) -> usize {
        self.nclasses
    }

    /// Class counts of interval `i`.
    #[inline]
    pub fn counts(&self, i: usize) -> &[u64] {
        &self.counts[i * self.nclasses..(i + 1) * self.nclasses]
    }

    /// Class counts of every interval, in interval order.
    pub fn count_rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + Clone + '_ {
        (0..self.lo.len()).map(|i| self.counts(i))
    }

    /// Observed `(min, max)` value of interval `i`, `None` while it is
    /// empty. Lets the SSE pruning discard single-valued intervals — e.g.
    /// the huge `commission == 0` spike of the benchmark data — whose only
    /// interior threshold is equivalent to the boundary split.
    #[inline]
    pub fn range(&self, i: usize) -> Option<(f64, f64)> {
        self.counts(i)
            .iter()
            .any(|&c| c != 0)
            .then(|| (self.lo[i], self.hi[i]))
    }

    /// Merge another processor's statistics over the same intervals
    /// (element-wise sum). Panics if the interval structures differ.
    pub fn merge(&mut self, other: &AttrIntervalStats) {
        assert_eq!(self.attr, other.attr);
        assert_eq!(self.intervals, other.intervals, "interval mismatch in merge");
        assert_eq!(
            self.nclasses, other.nclasses,
            "class count mismatch in merge"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        // NaN marks an empty side: `min`/`max` return the other operand.
        for (a, b) in self.lo.iter_mut().zip(&other.lo) {
            *a = a.min(*b);
        }
        for (a, b) in self.hi.iter_mut().zip(&other.hi) {
            *a = a.max(*b);
        }
    }

    /// Total class counts across all intervals.
    pub fn totals(&self) -> ClassCounts {
        let mut t = vec![0u64; self.nclasses];
        for c in self.count_rows() {
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
            add_assign(&mut left, self.counts(i));
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
        for (interior, &threshold) in self.count_rows().zip(self.intervals.boundaries()) {
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
        for (i, interior) in self.count_rows().enumerate() {
            let count: u64 = interior.iter().sum();
            // A single-valued interval (min == max) offers only one interior
            // threshold, equivalent to its upper-boundary split, which the
            // boundary pass already evaluated — never alive.
            let multi_valued = matches!(self.range(i), Some((lo, hi)) if lo < hi);
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

    /// Append the observed ranges in their wire layout, that of
    /// `Vec<Option<(f64, f64)>>`.
    pub fn encode_ranges(&self, buf: &mut Vec<u8>) {
        encode_seq(buf, 0..self.lo.len(), |buf, i| self.range(i).encode(buf));
    }
}

/// The layout of the per-interval form: `attr`, the interval set, the
/// counts as `Vec<Vec<u64>>` and the ranges as `Vec<Option<(f64, f64)>>`.
impl Wire for AttrIntervalStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.intervals.encode(buf);
        encode_seq(buf, self.count_rows(), |buf, row| {
            encode_seq(buf, row.iter(), |buf, c| c.encode(buf))
        });
        self.encode_ranges(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let attr = usize::decode(bytes)?;
        let intervals = IntervalSet::decode(bytes)?;
        let counts = Vec::<ClassCounts>::decode(bytes)?;
        let ranges = Vec::<Option<(f64, f64)>>::decode(bytes)?;
        AttrIntervalStats::from_parts(attr, intervals, counts, ranges).map_err(|what| DecodeError {
            what,
            remaining: bytes.len(),
            trailing: false,
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

/// Order-preserving radix key of a non-NaN `f64`: `a < b` exactly when
/// `key(a) < key(b)`, and `a == b` exactly when the keys are equal. −0.0 is
/// folded onto +0.0 first (`-0.0 + 0.0 == +0.0`), because the two compare
/// equal.
#[inline]
fn radix_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Below this length [`sort_points`] uses an insertion sort, which beats
/// the radix sort's fixed cost (eight 256-entry histograms) on small inputs.
pub const RADIX_SORT_CUTOFF: usize = 64;

/// Sort `(value, class)` points by value, stably: equal values — −0.0 and
/// +0.0 included — keep their input order, which is exactly the order of
/// `sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap())`. Long inputs take an
/// LSD radix sort over an order-preserving `u64` key of the value, one pass
/// per byte, that skips every byte position on which all keys agree (for
/// the points of one interval, usually the sign, exponent and top mantissa
/// bytes). Panics with "NaN attribute value" on a NaN.
pub fn sort_points(points: &mut [(f64, u8)]) {
    assert!(points.iter().all(|p| !p.0.is_nan()), "NaN attribute value");
    if points.len() < RADIX_SORT_CUTOFF {
        for i in 1..points.len() {
            let p = points[i];
            let key = radix_key(p.0);
            let mut j = i;
            while j > 0 && radix_key(points[j - 1].0) > key {
                points[j] = points[j - 1];
                j -= 1;
            }
            points[j] = p;
        }
        return;
    }
    // One pass counts all eight key bytes; each byte position on which the
    // keys differ then takes one stable scatter between `points` and a
    // scratch copy.
    let mut counts = [[0u32; 256]; 8];
    for p in points.iter() {
        let key = radix_key(p.0);
        for (d, c) in counts.iter_mut().enumerate() {
            c[(key >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    let n = u32::try_from(points.len()).expect("too many points for one scan");
    let first = radix_key(points[0].0);
    let mut scratch = points.to_vec();
    let mut sorted_in_scratch = false;
    for (d, offsets) in counts.iter_mut().enumerate() {
        let shift = 8 * d;
        if offsets[(first >> shift) as usize & 0xff] == n {
            continue; // every key has the same byte here
        }
        let mut next = 0u32;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        let (src, dst) = if sorted_in_scratch {
            (&scratch[..], &mut *points)
        } else {
            (&*points, &mut scratch[..])
        };
        for &p in src {
            let slot = &mut offsets[(radix_key(p.0) >> shift) as usize & 0xff];
            dst[*slot as usize] = p;
            *slot += 1;
        }
        sorted_in_scratch = !sorted_in_scratch;
    }
    if sorted_in_scratch {
        points.copy_from_slice(&scratch);
    }
}

/// Exact gini scan over the points of one alive interval: sorts the points
/// ([`sort_points`]) and evaluates the split at every distinct value.
/// Returns the best candidate, or `None` when the interval has no point.
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
    sort_points(points);
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
/// `(attr, index)`). Only attributes with an alive interval are indexed.
/// For each, the alive intervals' edges form an [`IntervalSet`] whose
/// intervals are the alive intervals and the gaps between them, so one
/// locator lookup and one table load find the only alive interval that can
/// hold a value. Positions `k` refer to the slice the index was built from.
#[derive(Debug)]
pub struct AliveIndex {
    attrs: Vec<AttrRoute>,
}

/// Marks an [`AttrRoute`] slot that is a gap between alive intervals.
const GAP: u32 = u32::MAX;

/// The routing table of one attribute.
#[derive(Debug)]
struct AttrRoute {
    attr: usize,
    /// The finite edges of the attribute's alive intervals, deduplicated.
    edges: IntervalSet,
    /// Per interval of `edges`: the position of the alive interval it is,
    /// or [`GAP`].
    slots: Vec<u32>,
}

impl AliveIndex {
    /// Index `alive`. Panics unless the intervals are grouped by ascending
    /// attribute and disjoint and ascending within one.
    pub fn new(alive: &[AliveInterval]) -> AliveIndex {
        let mut attrs: Vec<AttrRoute> = Vec::new();
        let mut edges: Vec<f64> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        for (k, a) in alive.iter().enumerate() {
            let same_attr = k > 0 && alive[k - 1].attr == a.attr;
            if same_attr {
                let prev = &alive[k - 1];
                assert!(
                    matches!((prev.upper, a.lower), (Some(hi), Some(lo)) if lo >= hi),
                    "alive intervals {} and {} of attribute {} overlap or are out of order",
                    prev.index,
                    a.index,
                    a.attr
                );
            } else {
                assert!(
                    k == 0 || alive[k - 1].attr < a.attr,
                    "alive intervals must be grouped by ascending attribute"
                );
                edges.clear();
                slots.clear();
                slots.push(GAP);
            }
            // The last slot is the interval above the last edge; the alive
            // interval starts there, after a gap if its lower edge is new.
            if let Some(lo) = a.lower {
                if edges.last() != Some(&lo) {
                    edges.push(lo);
                    slots.push(GAP);
                }
            }
            *slots.last_mut().expect("a slot per interval") =
                u32::try_from(k).expect("too many alive intervals");
            if let Some(hi) = a.upper {
                edges.push(hi);
                slots.push(GAP);
            }
            if alive.get(k + 1).is_none_or(|next| next.attr != a.attr) {
                attrs.push(AttrRoute {
                    attr: a.attr,
                    edges: IntervalSet::from_boundaries(std::mem::take(&mut edges)),
                    slots: std::mem::take(&mut slots),
                });
            }
        }
        AliveIndex { attrs }
    }

    /// Call `hit(k, value)` for every alive interval `k` containing the
    /// record's value of its attribute, in ascending `k` — the order of a
    /// loop over all of `alive` testing [`AliveInterval::contains`].
    #[inline]
    pub fn route(&self, record: &Record, mut hit: impl FnMut(usize, f64)) {
        for route in &self.attrs {
            let v = record.num(route.attr);
            let k = route.slots[route.edges.interval_of(v)];
            // NaN lands in the first slot, but only an interval without
            // edges contains it.
            if k != GAP && (!v.is_nan() || route.slots.len() == 1) {
                hit(k as usize, v);
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
        let per_interval: u64 = stats.count_rows().flatten().sum();
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
                add_assign(&mut cum_before, stats.counts(j));
            }
            let fake = AliveInterval {
                attr: 0,
                index: i,
                lower: lo,
                upper: hi,
                cum_before,
                est: 0.0,
                count: stats.counts(i).iter().sum(),
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
