//! Interval construction for numeric attributes.
//!
//! In the SS/SSE methods "the range of each numeric attribute is divided
//! into q intervals such that each interval contains approximately the same
//! number of points. These intervals are generated using a predrawn random
//! sample set S."

/// Internal boundaries of `q` intervals over one numeric attribute.
/// `boundaries.len() == q - 1`; interval `i` covers `(b_{i-1}, b_i]` with
/// `b_{-1} = -inf`, `b_{q-1} = +inf`. A record exactly on a boundary lies in
/// the interval to its **left**, matching the convention that a numeric
/// split at threshold `t` sends `value <= t` left.
///
/// Every set carries a locator built from its boundaries, so
/// [`IntervalSet::interval_of`] — called once per record and numeric
/// attribute in every statistics pass — costs a bucket computation and a
/// few branch-free comparisons instead of a binary search.
#[derive(Debug, Clone)]
pub struct IntervalSet {
    /// The boundaries, followed by `locator.window` `+inf` sentinels.
    padded: Vec<f64>,
    locator: Locator,
}

/// Equality is on the boundaries; the locator is derived from them.
impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.boundaries() == other.boundaries()
    }
}

impl pdc_cgm::Wire for IntervalSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        pdc_cgm::wire::encode_seq(buf, self.boundaries().iter(), |buf, b| b.encode(buf));
    }

    /// Rejects boundaries that are not strictly ascending (NaN included):
    /// the locator, like the binary search it replaces, needs sorted input.
    fn decode(bytes: &mut &[u8]) -> pdc_cgm::wire::DecodeResult<Self> {
        let boundaries = Vec::<f64>::decode(bytes)?;
        if !strictly_ascending(&boundaries) {
            return Err(pdc_cgm::wire::DecodeError {
                what: "interval boundaries not strictly ascending",
                remaining: bytes.len(),
                trailing: false,
            });
        }
        Ok(IntervalSet::new(boundaries))
    }
}

fn strictly_ascending(boundaries: &[f64]) -> bool {
    boundaries.windows(2).all(|w| w[0] < w[1])
}

/// Most boundaries one bucket may hold for the branch-free window; beyond
/// it the locator searches the bucket instead.
const MAX_WINDOW: usize = 8;

/// Equal-width bucket table over ascending boundaries `b`, built in
/// `O(q)`. `bucket(v)` is a monotone (non-decreasing) function of `v`, and
/// `first[j]` counts the boundaries whose bucket is below `j`. For any `v`
/// with `j = bucket(v)`, monotonicity gives `b[i] < v` for every boundary
/// of a lower bucket and `b[i] > v` for every boundary of a higher one, so
///
/// ```text
/// b.partition_point(|x| x < v) == first[j] + #{i ≥ first[j] : b[i] < v}
/// ```
///
/// where the count may stop anywhere at or after the bucket's end. With
/// `window` at least the largest bucket and `+inf` sentinels after the
/// last boundary, counting over `b[first[j]..first[j] + window]` is exact
/// — a fixed number of comparisons, no data-dependent branch — for every
/// `v` including the infinities, ±0 and NaN (bucket 0, no boundary below
/// it). When a bucket holds more than [`MAX_WINDOW`] boundaries, `window`
/// is 0 and the bucket is binary-searched instead. Either way the table
/// never changes an answer; it only narrows the search.
#[derive(Debug, Clone, Default)]
struct Locator {
    /// The lowest boundary.
    lo: f64,
    /// Buckets per unit of value; `0.0` puts everything in one bucket
    /// (used when the boundary span is zero or not finite).
    scale: f64,
    /// `nbuckets + 1` offsets into the boundaries; empty without
    /// boundaries.
    first: Vec<u32>,
    /// Comparisons per lookup (the largest bucket), or 0 to search.
    window: usize,
}

impl Locator {
    fn new(b: &[f64]) -> Locator {
        let (Some(&lo), Some(&hi)) = (b.first(), b.last()) else {
            return Locator::default();
        };
        let m = u32::try_from(b.len()).expect("too many interval boundaries");
        let scale = f64::from(m) / (hi - lo);
        let (scale, nbuckets) = if scale.is_finite() {
            (scale, b.len())
        } else {
            (0.0, 1)
        };
        let mut locator = Locator {
            lo,
            scale,
            first: vec![0; nbuckets + 1],
            window: 0,
        };
        for &x in b {
            let j = locator.bucket(x);
            locator.first[j + 1] += 1;
        }
        let mut largest = 0;
        for j in 1..=nbuckets {
            largest = largest.max(locator.first[j] as usize);
            locator.first[j] += locator.first[j - 1];
        }
        if largest <= MAX_WINDOW {
            locator.window = largest;
        }
        locator
    }

    /// Bucket of `v`: monotone in `v` because subtraction, scaling by a
    /// non-negative constant, the saturating cast and `min` all are
    /// (values below `lo` and NaN go to 0, values beyond the span to the
    /// last bucket).
    #[inline]
    fn bucket(&self, v: f64) -> usize {
        (((v - self.lo) * self.scale) as usize).min(self.first.len() - 2)
    }
}

impl IntervalSet {
    /// Build an interval set directly from ascending internal boundaries.
    pub fn from_boundaries(boundaries: Vec<f64>) -> IntervalSet {
        assert!(
            strictly_ascending(&boundaries),
            "boundaries must be strictly ascending"
        );
        IntervalSet::new(boundaries)
    }

    fn new(mut padded: Vec<f64>) -> IntervalSet {
        let locator = Locator::new(&padded);
        padded.resize(padded.len() + locator.window, f64::INFINITY);
        IntervalSet { padded, locator }
    }

    /// Build interval boundaries from the sample's values for one attribute
    /// (equi-depth quantiles of the sample). Duplicates are removed, so the
    /// result may have fewer than `q` intervals when the sample has few
    /// distinct values.
    pub fn from_sample(values: &[f64], q: usize) -> IntervalSet {
        assert!(q >= 1, "need at least one interval");
        if values.is_empty() || q == 1 {
            return IntervalSet::new(Vec::new());
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN attribute value"));
        let n = sorted.len();
        let mut boundaries = Vec::with_capacity(q - 1 + MAX_WINDOW);
        for i in 1..q {
            // The i-th q-quantile of the sample.
            let idx = (i * n) / q;
            let idx = idx.min(n - 1);
            boundaries.push(sorted[idx]);
        }
        boundaries.dedup();
        // A boundary equal to the maximum value would create an empty last
        // interval; harmless, keep it simple and drop it.
        while boundaries.last() == sorted.last() {
            boundaries.pop();
        }
        IntervalSet::new(boundaries)
    }

    /// Number of intervals (`boundaries + 1`).
    pub fn num_intervals(&self) -> usize {
        self.boundaries().len() + 1
    }

    /// The internal boundary values, ascending.
    pub fn boundaries(&self) -> &[f64] {
        &self.padded[..self.padded.len() - self.locator.window]
    }

    /// Index of the interval containing `v` (boundary values belong to the
    /// left interval): exactly `boundaries().partition_point(|&b| b < v)`,
    /// so NaN goes to interval 0.
    #[inline]
    pub fn interval_of(&self, v: f64) -> usize {
        let locator = &self.locator;
        if locator.first.is_empty() {
            return 0;
        }
        let j = locator.bucket(v);
        let start = locator.first[j] as usize;
        if locator.window > 0 {
            let window = &self.padded[start..start + locator.window];
            start + window.iter().map(|&b| usize::from(b < v)).sum::<usize>()
        } else {
            let end = locator.first[j + 1] as usize;
            start + self.padded[start..end].partition_point(|&b| b < v)
        }
    }

    /// The open lower edge of interval `i` (`None` for the first interval).
    pub fn lower_edge(&self, i: usize) -> Option<f64> {
        if i == 0 {
            None
        } else {
            Some(self.boundaries()[i - 1])
        }
    }

    /// The closed upper edge of interval `i` (`None` for the last interval).
    pub fn upper_edge(&self, i: usize) -> Option<f64> {
        self.boundaries().get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_depth_on_uniform_sample() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let set = IntervalSet::from_sample(&values, 10);
        assert_eq!(set.num_intervals(), 10);
        // Boundaries near 100, 200, ... 900.
        for (i, &b) in set.boundaries().iter().enumerate() {
            let expected = 100.0 * (i + 1) as f64;
            assert!((b - expected).abs() <= 1.0, "boundary {i} = {b}");
        }
    }

    #[test]
    fn interval_of_respects_left_closed_boundaries() {
        let set = IntervalSet::from_boundaries(vec![10.0, 20.0]);
        assert_eq!(set.interval_of(5.0), 0);
        assert_eq!(set.interval_of(10.0), 0, "boundary belongs left");
        assert_eq!(set.interval_of(10.5), 1);
        assert_eq!(set.interval_of(20.0), 1);
        assert_eq!(set.interval_of(25.0), 2);
    }

    #[test]
    fn duplicate_heavy_sample_collapses_intervals() {
        let values = vec![5.0; 100];
        let set = IntervalSet::from_sample(&values, 10);
        assert_eq!(set.num_intervals(), 1);
        assert_eq!(set.interval_of(5.0), 0);
    }

    #[test]
    fn empty_sample_and_single_interval() {
        let set = IntervalSet::from_sample(&[], 10);
        assert_eq!(set.num_intervals(), 1);
        let set = IntervalSet::from_sample(&[1.0, 2.0], 1);
        assert_eq!(set.num_intervals(), 1);
    }

    #[test]
    fn edges_are_consistent() {
        let set = IntervalSet::from_boundaries(vec![1.0, 2.0, 3.0]);
        assert_eq!(set.lower_edge(0), None);
        assert_eq!(set.upper_edge(0), Some(1.0));
        assert_eq!(set.lower_edge(2), Some(2.0));
        assert_eq!(set.upper_edge(3), None);
        assert_eq!(set.num_intervals(), 4);
    }

    #[test]
    fn max_value_boundary_is_dropped() {
        // Skewed sample where high quantiles coincide with the max.
        let mut values = vec![1.0, 2.0, 3.0];
        values.extend(vec![100.0; 97]);
        let set = IntervalSet::from_sample(&values, 10);
        for &b in set.boundaries() {
            assert!(b < 100.0, "boundary {b} would create empty last interval");
        }
    }
}
