//! Gini index machinery: class frequency vectors, split evaluation, and the
//! SSE method's per-interval lower bound.
//!
//! CLOUDS (like CART, SLIQ and SPRINT) derives its splitting criterion from
//! the **gini index**: for a node whose class distribution is
//! `p_1, …, p_c`, `gini = 1 − Σ p_k²`; a candidate binary split is scored by
//! the size-weighted gini of the two sides, and the split with the minimum
//! weighted gini wins.

/// Class frequency vector: `counts[k]` records of class `k`.
pub type ClassCounts = Vec<u64>;

/// Total records in a frequency vector.
pub fn total(counts: &[u64]) -> u64 {
    counts.iter().sum()
}

/// Gini index of one frequency vector: `1 − Σ (c_k/n)²`. An empty vector
/// (n = 0) has gini 0 by convention.
pub fn gini(counts: &[u64]) -> f64 {
    let n = total(counts);
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64 / n).powi(2)).sum();
    1.0 - sum_sq
}

/// Size-weighted gini of a binary split: `(n_l·g_l + n_r·g_r) / n`.
/// This is the quantity CLOUDS minimizes.
pub fn split_gini(left: &[u64], right: &[u64]) -> f64 {
    debug_assert_eq!(left.len(), right.len());
    let nl = total(left) as f64;
    let nr = total(right) as f64;
    let n = nl + nr;
    if n == 0.0 {
        return 0.0;
    }
    (nl * gini(left) + nr * gini(right)) / n
}

/// Unnormalized split score `n_l·g_l + n_r·g_r = n − Σl²/n_l − Σr²/n_r`
/// evaluated on real-valued counts. Shares the argmin with [`split_gini`]
/// within one node; used internally by the lower bound.
fn split_score_real(left: &[f64], right: &[f64]) -> f64 {
    let nl: f64 = left.iter().sum();
    let nr: f64 = right.iter().sum();
    let mut score = nl + nr;
    if nl > 0.0 {
        score -= left.iter().map(|l| l * l).sum::<f64>() / nl;
    }
    if nr > 0.0 {
        score -= right.iter().map(|r| r * r).sum::<f64>() / nr;
    }
    score
}

/// Lower bound on the weighted gini of **any** split point interior to an
/// interval (the SSE method's `gini_est`).
///
/// Setting: the node has total class counts `node_total`; records strictly
/// left of the interval contribute `cum_before`; records inside the interval
/// contribute `interior`. A split at an interior point sends
/// `cum_before + t` left for some integral `0 ≤ t_k ≤ interior_k`.
///
/// The unnormalized score `n_l·g_l + n_r·g_r = n − Σl_k²/n_l − Σr_k²/n_r`
/// is **concave** in the real relaxation of `t` (each `x²/s` term with
/// `s = Σx` is jointly convex — quadratic-over-linear — so its negation is
/// concave). A concave function attains its minimum over the box
/// `Π [0, interior_k]` at a **vertex**, so checking the `2^c` vertices gives
/// an exact bound of the relaxation — a valid (and tight) lower bound for
/// all integral splits. This is stronger than the heuristic estimate
/// described for CLOUDS and never prunes the true optimum.
pub fn interval_gini_lower_bound(
    cum_before: &[u64],
    interior: &[u64],
    node_total: &[u64],
) -> f64 {
    let c = node_total.len();
    debug_assert_eq!(cum_before.len(), c);
    debug_assert_eq!(interior.len(), c);
    assert!(c <= 20, "class count too large for vertex enumeration");
    let n = total(node_total) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mut left = vec![0.0f64; c];
    let mut right = vec![0.0f64; c];
    let mut best = f64::INFINITY;
    for mask in 0..(1u32 << c) {
        for k in 0..c {
            let t = if mask & (1 << k) != 0 {
                interior[k] as f64
            } else {
                0.0
            };
            left[k] = cum_before[k] as f64 + t;
            right[k] = node_total[k] as f64 - left[k];
            debug_assert!(right[k] >= -1e-9);
        }
        let score = split_score_real(&left, &right);
        if score < best {
            best = score;
        }
    }
    best / n
}

/// Element-wise sum of two frequency vectors.
pub fn add(a: &[u64], b: &[u64]) -> ClassCounts {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a − b` (panics on underflow in debug builds).
pub fn sub(a: &[u64], b: &[u64]) -> ClassCounts {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise difference `a − b` written into `out`, without allocating
/// (panics on underflow in debug builds).
pub fn sub_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(a.len(), b.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// In-place element-wise accumulation.
pub fn add_assign(acc: &mut [u64], other: &[u64]) {
    debug_assert_eq!(acc.len(), other.len());
    for (a, o) in acc.iter_mut().zip(other) {
        *a += o;
    }
}

/// The majority class of a frequency vector (ties to the lower class id).
pub fn majority_class(counts: &[u64]) -> u8 {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i as u8)
        .unwrap_or(0)
}

/// Fraction of records in the majority class (1.0 for a pure or empty node).
pub fn purity(counts: &[u64]) -> f64 {
    let n = total(counts);
    if n == 0 {
        return 1.0;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_pure_and_balanced() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        // 3 balanced classes: 1 - 3*(1/3)^2 = 2/3
        assert!((gini(&[4, 4, 4]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_gini_perfect_split_is_zero() {
        assert_eq!(split_gini(&[10, 0], &[0, 10]), 0.0);
    }

    #[test]
    fn split_gini_useless_split_equals_node_gini() {
        // Both sides have the same distribution as the node.
        let g = split_gini(&[5, 5], &[15, 15]);
        assert!((g - 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_gini_weighted_average() {
        // left: [4,0] pure (g=0, n=4); right: [2,2] (g=0.5, n=4) -> 0.25
        assert!((split_gini(&[4, 0], &[2, 2]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_is_a_bound_for_all_integral_splits() {
        let cum_before = [3u64, 7];
        let interior = [5u64, 4];
        let node_total = [20u64, 20];
        let bound = interval_gini_lower_bound(&cum_before, &interior, &node_total);
        // Enumerate every integral interior assignment and check the bound.
        for t0 in 0..=interior[0] {
            for t1 in 0..=interior[1] {
                let left = [cum_before[0] + t0, cum_before[1] + t1];
                let right = [node_total[0] - left[0], node_total[1] - left[1]];
                let g = split_gini(&left, &right);
                assert!(
                    g >= bound - 1e-12,
                    "split t=({t0},{t1}) gini {g} below bound {bound}"
                );
            }
        }
    }

    #[test]
    fn lower_bound_tight_at_vertices() {
        // With nothing before the interval and the interval holding the whole
        // node, the perfect split is a vertex: bound must be 0.
        let bound = interval_gini_lower_bound(&[0, 0], &[10, 10], &[10, 10]);
        assert!(bound.abs() < 1e-12);
    }

    #[test]
    fn lower_bound_empty_node() {
        assert_eq!(interval_gini_lower_bound(&[0, 0], &[0, 0], &[0, 0]), 0.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(add(&[1, 2], &[3, 4]), vec![4, 6]);
        assert_eq!(sub(&[3, 4], &[1, 2]), vec![2, 2]);
        let mut out = [9, 9];
        sub_into(&mut out, &[3, 4], &[1, 2]);
        assert_eq!(out, [2, 2]);
        let mut acc = vec![1, 1];
        add_assign(&mut acc, &[2, 3]);
        assert_eq!(acc, vec![3, 4]);
    }

    #[test]
    fn majority_and_purity() {
        assert_eq!(majority_class(&[3, 9]), 1);
        assert_eq!(majority_class(&[9, 3]), 0);
        assert_eq!(majority_class(&[5, 5]), 0, "tie goes to lower id");
        assert_eq!(majority_class(&[]), 0);
        assert!((purity(&[9, 3]) - 0.75).abs() < 1e-12);
        assert_eq!(purity(&[0, 0]), 1.0);
    }
}
