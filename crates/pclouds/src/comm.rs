//! Batched histogram messages for the replication method (§5.1.1).
//!
//! The stats phase of pCLOUDS combines every attribute's statistics to an
//! owning processor. Historically that was one global combine *per
//! attribute* — `A` message startups per node. [`HistMsg`] lets all
//! attributes of a node (or of a whole concatenated level) travel in **one**
//! batched reduce-scatter: each destination's attributes form one block, the
//! collective merges blocks element-wise, and every owner receives exactly
//! the statistics it would have obtained from the per-attribute combines.
//!
//! The wire format optionally stores the interval count arrays **sparsely**
//! (varint gap/value pairs over the non-zero entries): local partitions of
//! deep nodes leave most interval × class cells at zero, so the sparse form
//! shrinks `beta * m` without changing any decoded value. Because encoded
//! sizes then differ between ranks, collective-algorithm selection must
//! never look at a local encoding — [`HistMsg::dense_hint`] supplies a
//! shape-derived size that is identical on every rank.

use pdc_cgm::wire::{decode_varint, encode_varint, DecodeError, DecodeResult, Wire};
use pdc_clouds::{AttrIntervalStats, ClassCounts, CountMatrix};

/// The SSE point exchange's per-owner batch: `(alive interval, value,
/// class)` points, pushed straight into the wire format of
/// `Vec<(u64, f64, u8)>`, which is what travels.
pub type PointBatch = pdc_pario::RecBatch<(u64, f64, u8)>;

/// One attribute's statistics inside a batched histogram message.
#[derive(Debug, Clone, PartialEq)]
pub enum HistPayload {
    /// Interval class frequencies of a numeric attribute.
    Numeric(AttrIntervalStats),
    /// Count matrix of a categorical attribute.
    Categorical(CountMatrix),
}

/// A batched histogram entry: one attribute's statistics plus the wire
/// representation it travels in (dense or sparse counts).
#[derive(Debug, Clone, PartialEq)]
pub struct HistMsg {
    /// Encode the count arrays sparsely (varint gap/value pairs). Pure wire
    /// representation: decoding restores the exact dense values.
    pub sparse: bool,
    /// The attribute statistics carried by this entry.
    pub payload: HistPayload,
}

// Wire tags: dense/sparse × numeric/categorical.
const TAG_DENSE_NUMERIC: u8 = 0;
const TAG_SPARSE_NUMERIC: u8 = 1;
const TAG_DENSE_CATEGORICAL: u8 = 2;
const TAG_SPARSE_CATEGORICAL: u8 = 3;

impl HistMsg {
    /// Wrap a numeric attribute's statistics.
    pub fn numeric(stats: AttrIntervalStats, sparse: bool) -> Self {
        HistMsg {
            sparse,
            payload: HistPayload::Numeric(stats),
        }
    }

    /// Wrap a categorical attribute's count matrix.
    pub fn categorical(matrix: CountMatrix, sparse: bool) -> Self {
        HistMsg {
            sparse,
            payload: HistPayload::Categorical(matrix),
        }
    }

    /// Merge two entries for the same attribute (element-wise sum), the
    /// combine function of the batched reduce-scatter. Panics when the two
    /// entries describe different attributes — that would mean the batched
    /// blocks were assembled in different orders on different ranks.
    pub fn merged(mut a: HistMsg, b: HistMsg) -> HistMsg {
        match (&mut a.payload, &b.payload) {
            (HistPayload::Numeric(x), HistPayload::Numeric(y)) => x.merge(y),
            (HistPayload::Categorical(x), HistPayload::Categorical(y)) => x.merge(y),
            _ => panic!("batched histogram blocks misaligned: numeric/categorical mismatch"),
        }
        a
    }

    /// Unwrap a numeric entry; panics on a categorical one.
    pub fn into_numeric(self) -> AttrIntervalStats {
        match self.payload {
            HistPayload::Numeric(s) => s,
            HistPayload::Categorical(_) => panic!("expected numeric histogram entry"),
        }
    }

    /// Unwrap a categorical entry; panics on a numeric one.
    pub fn into_categorical(self) -> CountMatrix {
        match self.payload {
            HistPayload::Categorical(m) => m,
            HistPayload::Numeric(_) => panic!("expected categorical histogram entry"),
        }
    }

    /// Size of the **dense** encoding of this entry, derived from the shape
    /// only (interval count, class count, cardinality) — never from the
    /// values. Every rank holds the same shapes for a node, so this hint is
    /// identical on every rank and safe to feed into collective-algorithm
    /// selection (unlike a locally encoded — possibly sparse — size).
    pub fn dense_hint(&self) -> usize {
        // 1 tag byte + the fixed-width field layout of the dense form.
        match &self.payload {
            HistPayload::Numeric(s) => {
                let q = s.intervals.num_intervals();
                let nclasses = s.num_classes();
                let boundaries = s.intervals.boundaries().len();
                // attr + intervals(len + f64s) + counts(len + q rows of
                // (len + nclasses u64s)) + ranges(len + q Some(min,max)).
                1 + 8 + (8 + boundaries * 8) + (8 + q * (8 + nclasses * 8)) + (8 + q * 17)
            }
            HistPayload::Categorical(m) => {
                let card = m.counts.len();
                let nclasses = m.counts.first().map_or(0, |c| c.len());
                1 + 8 + (8 + card * (8 + nclasses * 8))
            }
        }
    }
}

/// Encode a `rows × cols` count table, given as its cells in row-major
/// order, sparsely: dimensions, then varint (gap, value) pairs over the
/// non-zero cells.
fn encode_sparse_counts<'a>(
    buf: &mut Vec<u8>,
    rows: usize,
    cols: usize,
    cells: impl Iterator<Item = &'a u64> + Clone,
) {
    encode_varint(buf, rows as u64);
    encode_varint(buf, cols as u64);
    let nonzero = cells.clone().filter(|&&v| v != 0).count();
    encode_varint(buf, nonzero as u64);
    let mut prev = 0u64;
    for (idx, &v) in cells.enumerate() {
        if v != 0 {
            encode_varint(buf, idx as u64 - prev);
            encode_varint(buf, v);
            prev = idx as u64 + 1;
        }
    }
}

/// Decode the sparse count table back into its exact dense form.
fn decode_sparse_counts(buf: &mut &[u8]) -> DecodeResult<Vec<ClassCounts>> {
    let rows = decode_varint(buf)? as usize;
    let cols = decode_varint(buf)? as usize;
    let cells = rows.checked_mul(cols).ok_or(DecodeError {
        what: "sparse histogram shape overflows",
        remaining: buf.len(),
        trailing: false,
    })?;
    // A corrupt length cannot claim more cells than one varint byte each
    // could have produced non-zeros for.
    let nonzero = decode_varint(buf)? as usize;
    if nonzero > cells || nonzero > buf.len() {
        return Err(DecodeError {
            what: "sparse histogram non-zero count out of range",
            remaining: buf.len(),
            trailing: false,
        });
    }
    let mut counts = vec![vec![0u64; cols]; rows];
    let mut next = 0u64;
    for _ in 0..nonzero {
        let idx = next + decode_varint(buf)?;
        let v = decode_varint(buf)?;
        if idx as usize >= cells {
            return Err(DecodeError {
                what: "sparse histogram index out of range",
                remaining: buf.len(),
                trailing: false,
            });
        }
        counts[idx as usize / cols][idx as usize % cols] = v;
        next = idx + 1;
    }
    Ok(counts)
}

impl Wire for HistMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match (&self.payload, self.sparse) {
            (HistPayload::Numeric(s), false) => {
                buf.push(TAG_DENSE_NUMERIC);
                s.encode(buf);
            }
            (HistPayload::Numeric(s), true) => {
                buf.push(TAG_SPARSE_NUMERIC);
                encode_varint(buf, s.attr as u64);
                s.intervals.encode(buf);
                let rows = s.intervals.num_intervals();
                encode_sparse_counts(buf, rows, s.num_classes(), s.count_rows().flatten());
                s.encode_ranges(buf);
            }
            (HistPayload::Categorical(m), false) => {
                buf.push(TAG_DENSE_CATEGORICAL);
                m.encode(buf);
            }
            (HistPayload::Categorical(m), true) => {
                buf.push(TAG_SPARSE_CATEGORICAL);
                encode_varint(buf, m.attr as u64);
                let cols = m.counts.first().map_or(0, |c| c.len());
                encode_sparse_counts(buf, m.counts.len(), cols, m.counts.iter().flatten());
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let tag = u8::decode(bytes)?;
        match tag {
            TAG_DENSE_NUMERIC => Ok(HistMsg::numeric(AttrIntervalStats::decode(bytes)?, false)),
            TAG_SPARSE_NUMERIC => {
                let attr = decode_varint(bytes)? as usize;
                let intervals = pdc_clouds::IntervalSet::decode(bytes)?;
                let counts = decode_sparse_counts(bytes)?;
                let ranges = Vec::<Option<(f64, f64)>>::decode(bytes)?;
                let stats = AttrIntervalStats::from_parts(attr, intervals, counts, ranges)
                    .map_err(|what| DecodeError {
                        what,
                        remaining: bytes.len(),
                        trailing: false,
                    })?;
                Ok(HistMsg::numeric(stats, true))
            }
            TAG_DENSE_CATEGORICAL => {
                Ok(HistMsg::categorical(CountMatrix::decode(bytes)?, false))
            }
            TAG_SPARSE_CATEGORICAL => {
                let attr = decode_varint(bytes)? as usize;
                let counts = decode_sparse_counts(bytes)?;
                Ok(HistMsg::categorical(CountMatrix { attr, counts }, true))
            }
            _ => Err(DecodeError {
                what: "histogram message tag out of range",
                remaining: bytes.len(),
                trailing: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_clouds::IntervalSet;

    fn sample_numeric() -> AttrIntervalStats {
        AttrIntervalStats::from_parts(
            3,
            IntervalSet::from_boundaries(vec![1.0, 2.5, 7.0]),
            vec![vec![0, 5], vec![0, 0], vec![12, 0], vec![0, 1]],
            vec![Some((0.1, 0.9)), None, Some((3.0, 6.0)), Some((9.0, 9.0))],
        )
        .unwrap()
    }

    fn sample_categorical() -> CountMatrix {
        CountMatrix {
            attr: 1,
            counts: vec![vec![0, 0], vec![7, 0], vec![0, 0], vec![0, 300]],
        }
    }

    #[test]
    fn dense_and_sparse_decode_to_identical_values() {
        for sparse in [false, true] {
            let n = HistMsg::numeric(sample_numeric(), sparse);
            let back = HistMsg::from_bytes(&n.to_bytes()).unwrap();
            assert_eq!(back.payload, n.payload, "sparse={sparse}");
            let c = HistMsg::categorical(sample_categorical(), sparse);
            let back = HistMsg::from_bytes(&c.to_bytes()).unwrap();
            assert_eq!(back.payload, c.payload, "sparse={sparse}");
        }
    }

    #[test]
    fn sparse_encoding_is_smaller_for_sparse_counts() {
        // A mostly-zero table: the sparse form must beat the dense form.
        let mut stats = AttrIntervalStats::new(
            0,
            IntervalSet::from_boundaries((1..64).map(f64::from).collect()),
            2,
        );
        for _ in 0..3 {
            stats.add_value(5.5, 1);
        }
        for _ in 0..17 {
            stats.add_value(40.5, 0);
        }
        let dense = HistMsg::numeric(stats.clone(), false).to_bytes();
        let sparse = HistMsg::numeric(stats, true).to_bytes();
        assert!(
            sparse.len() < dense.len() / 2,
            "sparse {} vs dense {}",
            sparse.len(),
            dense.len()
        );
    }

    #[test]
    fn dense_hint_matches_dense_encoding_and_ignores_values() {
        let full = sample_numeric();
        let empty = AttrIntervalStats::new(full.attr, full.intervals.clone(), 2);
        let dense_full = HistMsg::numeric(full.clone(), false);
        let sparse_empty = HistMsg::numeric(empty, true);
        // Same shape => same hint, regardless of values or wire form...
        assert_eq!(dense_full.dense_hint(), sparse_empty.dense_hint());
        // ...and the hint prices the dense layout (ranges at worst case:
        // every interval holds a value).
        let mut worst = full;
        for v in [2.0, 2.5] {
            worst.add_value(v, 0);
        }
        assert!((0..4).all(|i| worst.range(i).is_some()));
        let encoded = HistMsg::numeric(worst.clone(), false).to_bytes();
        assert_eq!(HistMsg::numeric(worst, false).dense_hint(), encoded.len());
        let cat = HistMsg::categorical(sample_categorical(), false);
        assert_eq!(cat.dense_hint(), cat.to_bytes().len());
    }

    #[test]
    fn merged_matches_per_attribute_merge() {
        let mut a = sample_numeric();
        let b = sample_numeric();
        let merged = HistMsg::merged(
            HistMsg::numeric(a.clone(), true),
            HistMsg::numeric(b.clone(), false),
        );
        a.merge(&b);
        assert_eq!(merged.into_numeric(), a);
        let mut x = sample_categorical();
        let y = sample_categorical();
        let merged = HistMsg::merged(
            HistMsg::categorical(x.clone(), false),
            HistMsg::categorical(y.clone(), false),
        );
        x.merge(&y);
        assert_eq!(merged.into_categorical(), x);
    }

    #[test]
    fn corrupt_sparse_payloads_error_instead_of_panicking() {
        // Index beyond the table.
        let mut buf = vec![TAG_SPARSE_CATEGORICAL];
        encode_varint(&mut buf, 0); // attr
        encode_varint(&mut buf, 2); // rows
        encode_varint(&mut buf, 2); // cols
        encode_varint(&mut buf, 1); // nnz
        encode_varint(&mut buf, 9); // gap -> index 9 >= 4 cells
        encode_varint(&mut buf, 1); // value
        assert!(HistMsg::from_bytes(&buf).is_err());
        // Non-zero count larger than the table.
        let mut buf = vec![TAG_SPARSE_CATEGORICAL];
        encode_varint(&mut buf, 0);
        encode_varint(&mut buf, 1);
        encode_varint(&mut buf, 1);
        encode_varint(&mut buf, 1000);
        assert!(HistMsg::from_bytes(&buf).is_err());
        // Unknown tag.
        assert!(HistMsg::from_bytes(&[99]).is_err());
    }
}
