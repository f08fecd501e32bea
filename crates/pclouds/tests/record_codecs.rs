//! Byte layout of the fixed-width encodings:
//!
//! * `Record`'s codec (used by `Wire` and by `encode_batch`/`decode_batch`,
//!   so by every node file and message) writes the documented 52-byte
//!   layout and round-trips every bit pattern — NaN payloads, −0.0,
//!   subnormals;
//! * a `PointBatch` (the SSE point exchange) travels as exactly the bytes
//!   of the `Vec<(u64, f64, u8)>` it replaces, and a truncated or
//!   overcounted batch is a named decode error, never an allocation sized
//!   by the corrupt count.

use pdc_cgm::Wire;
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};
use pdc_pario::{decode_batch, encode_batch, Rec};
use pdc_pclouds::PointBatch;
use proptest::prelude::*;

/// Bit patterns the generator never produces: signalling and negative
/// NaNs with payloads, both zeros, subnormals, the extremes.
const SPECIAL: [u64; 10] = [
    0x7ff0_0000_0000_0001,
    0xfff8_0000_dead_beef,
    0x7ff8_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800f_ffff_ffff_ffff,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
];

fn record(bits: &[u64], categorical: &[u8], class: u8) -> Record {
    let mut numeric = [0.0; NUM_NUMERIC];
    for (v, &b) in numeric.iter_mut().zip(bits.iter().cycle()) {
        *v = f64::from_bits(b);
    }
    Record {
        numeric,
        categorical: categorical.try_into().unwrap(),
        class,
    }
}

/// Bit-level view of a record (NaN != NaN under `PartialEq`).
fn record_bits(r: &Record) -> ([u64; NUM_NUMERIC], [u8; NUM_CATEGORICAL], u8) {
    (r.numeric.map(f64::to_bits), r.categorical, r.class)
}

/// The documented record layout, written field by field: six
/// little-endian `f64`s, the categorical bytes, the class.
fn layout(r: &Record) -> Vec<u8> {
    let mut out: Vec<u8> = r.numeric.iter().flat_map(|v| v.to_le_bytes()).collect();
    out.extend_from_slice(&r.categorical);
    out.push(r.class);
    out
}

fn check_record(r: &Record) {
    let wire = r.to_bytes();
    assert_eq!(wire, layout(r));
    let mut fixed = vec![0u8; Record::ENCODED_BYTES];
    r.write_fixed(&mut fixed);
    assert_eq!(fixed, wire);
    assert_eq!(record_bits(&Record::read_fixed(&wire)), record_bits(r));
    assert_eq!(
        record_bits(&Record::from_bytes(&wire).unwrap()),
        record_bits(r)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bit patterns in every field.
    #[test]
    fn fixed_record_codec_writes_wire_bytes(
        bits in proptest::collection::vec(any::<u64>(), NUM_NUMERIC),
        categorical in proptest::collection::vec(any::<u8>(), NUM_CATEGORICAL),
        class in any::<u8>(),
        special in proptest::collection::vec(0usize..SPECIAL.len(), NUM_NUMERIC),
    ) {
        check_record(&record(&bits, &categorical, class));
        let special: Vec<u64> = special.iter().map(|&i| SPECIAL[i]).collect();
        check_record(&record(&special, &categorical, class));
    }

    /// A batch is the records' wire bytes back to back, and decodes bit
    /// for bit.
    #[test]
    fn record_batches_concatenate_wire_bytes(
        bits in proptest::collection::vec(any::<u64>(), 0..60),
        class in any::<u8>(),
    ) {
        let records: Vec<Record> = bits
            .chunks(NUM_NUMERIC)
            .map(|chunk| record(chunk, &[chunk.len() as u8, 7, 255], class))
            .collect();
        let bytes = encode_batch(&records);
        let wire: Vec<u8> = records.iter().flat_map(|r| r.to_bytes()).collect();
        prop_assert_eq!(&bytes, &wire);
        let back: Vec<Record> = decode_batch(&bytes);
        let back: Vec<_> = back.iter().map(record_bits).collect();
        let want: Vec<_> = records.iter().map(record_bits).collect();
        prop_assert_eq!(back, want);
    }

    /// Pushing points into a batch gives the wire bytes of the vector of
    /// the same points, and both decodings agree bit for bit.
    #[test]
    fn point_batch_bytes_equal_the_tuple_vector(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..80),
    ) {
        let points: Vec<(u64, f64, u8)> =
            raw.iter().map(|&(k, v, c)| (k, f64::from_bits(v), c)).collect();
        let mut batch = PointBatch::new();
        for p in &points {
            batch.push(p);
        }
        prop_assert_eq!(batch.len(), points.len());
        let bytes = batch.to_bytes();
        prop_assert_eq!(&bytes, &points.to_bytes());
        let bits = |(k, v, c): (u64, f64, u8)| (k, v.to_bits(), c);
        let decoded: Vec<_> = PointBatch::from_bytes(&bytes).unwrap().iter().map(bits).collect();
        let want: Vec<_> = points.iter().copied().map(bits).collect();
        prop_assert_eq!(&decoded, &want);
        let as_vec: Vec<_> =
            Vec::<(u64, f64, u8)>::from_bytes(&bytes).unwrap().into_iter().map(bits).collect();
        prop_assert_eq!(as_vec, want);
    }
}

#[test]
#[should_panic(expected = "whole number of records")]
fn decode_batch_rejects_a_partial_record() {
    let r = record(&[1.5f64.to_bits()], &[1, 2, 3], 1);
    let mut bytes = encode_batch(&[r, r]);
    bytes.pop();
    decode_batch::<Record>(&bytes);
}

#[test]
fn truncated_point_batches_are_named_errors() {
    let mut batch = PointBatch::new();
    for k in 0..4u64 {
        batch.push(&(k, k as f64 * 0.5, 1));
    }
    let bytes = batch.to_bytes();
    for cut in 0..bytes.len() {
        let err = PointBatch::from_bytes(&bytes[..cut]).unwrap_err();
        // Inside the count header the `u64` is short; after it, the count
        // promises more points than the bytes hold.
        let want = if cut < 8 {
            "u64"
        } else {
            "record batch count exceeds its bytes"
        };
        assert_eq!(err.what, want, "cut at {cut}");
        assert!(!err.trailing);
    }
}

#[test]
fn overcounted_point_batches_fail_before_allocating() {
    // Counts whose byte size exceeds the input, up to ones that overflow
    // `usize` when multiplied by the point size: an allocation sized by
    // the count would abort the process instead of returning.
    for count in [2u64, 1 << 40, u64::MAX / 17 + 1, u64::MAX] {
        let mut bytes = count.to_bytes();
        bytes.extend_from_slice(&(7u64, 1.0f64, 0u8).to_bytes());
        let err = PointBatch::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err.what, "record batch count exceeds its bytes",
            "count {count}"
        );
        assert_eq!(err.remaining, 17);
    }
}
