//! The benchmark record: 6 numeric + 3 categorical attributes + class label,
//! exactly the schema the paper generates with "the data generator proposed
//! in \[SLIQ\]" (Agrawal et al.'s synthetic household/credit data).

use pdc_cgm::wire::{take, DecodeResult, Wire};
use pdc_pario::Rec;

/// Number of numeric attributes.
pub const NUM_NUMERIC: usize = 6;
/// Number of categorical attributes.
pub const NUM_CATEGORICAL: usize = 3;

/// Indices of the numeric attributes.
pub mod numeric {
    /// Yearly salary, 20,000..150,000.
    pub const SALARY: usize = 0;
    /// Commission: 0 if salary ≥ 75,000, else 10,000..75,000.
    pub const COMMISSION: usize = 1;
    /// Age in years, 20..80.
    pub const AGE: usize = 2;
    /// House value, depends on zipcode.
    pub const HVALUE: usize = 3;
    /// Years the house has been owned, 1..30.
    pub const HYEARS: usize = 4;
    /// Total loan amount, 0..500,000.
    pub const LOAN: usize = 5;
}

/// Indices of the categorical attributes.
pub mod categorical {
    /// Education level, 0..=4.
    pub const ELEVEL: usize = 0;
    /// Make of car, 0..=19 (the paper's 1..=20 shifted to zero-based).
    pub const CAR: usize = 1;
    /// Zipcode of the town, 0..=8.
    pub const ZIPCODE: usize = 2;
}

/// Cardinality (number of distinct values) of each categorical attribute.
pub const CATEGORICAL_CARDINALITY: [usize; NUM_CATEGORICAL] = [5, 20, 9];

/// Human-readable attribute names, numeric then categorical.
pub const NUMERIC_NAMES: [&str; NUM_NUMERIC] =
    ["salary", "commission", "age", "hvalue", "hyears", "loan"];
/// Names of the categorical attributes.
pub const CATEGORICAL_NAMES: [&str; NUM_CATEGORICAL] = ["elevel", "car", "zipcode"];

/// Number of classes produced by every classification function.
pub const NUM_CLASSES: usize = 2;

/// One training/test example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Numeric attribute values, indexed by [`numeric`] constants.
    pub numeric: [f64; NUM_NUMERIC],
    /// Categorical attribute values, indexed by [`categorical`] constants.
    pub categorical: [u8; NUM_CATEGORICAL],
    /// Class label, `0` = group A, `1` = group B.
    pub class: u8,
}

impl Record {
    /// Value of numeric attribute `idx`.
    pub fn num(&self, idx: usize) -> f64 {
        self.numeric[idx]
    }

    /// Value of categorical attribute `idx`.
    pub fn cat(&self, idx: usize) -> u8 {
        self.categorical[idx]
    }
}

/// The layout is defined once, by [`Rec::write_fixed`]: six little-endian
/// `f64`s, the categorical bytes, the class.
impl Wire for Record {
    fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.resize(at + RECORD_BYTES, 0);
        self.write_fixed(&mut buf[at..]);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(Record::read_fixed(take(bytes, RECORD_BYTES, "Record")?))
    }
}

impl Rec for Record {
    const ENCODED_BYTES: usize = RECORD_BYTES;

    /// Six little-endian `f64`s, the categorical bytes, the class.
    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        let out: &mut [u8; RECORD_BYTES] = out.try_into().expect("record slot is 52 bytes");
        for (slot, v) in out.chunks_exact_mut(8).zip(&self.numeric) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        out[NUMERIC_BYTES..NUMERIC_BYTES + NUM_CATEGORICAL].copy_from_slice(&self.categorical);
        out[RECORD_BYTES - 1] = self.class;
    }

    #[inline]
    fn read_fixed(bytes: &[u8]) -> Self {
        let bytes: &[u8; RECORD_BYTES] = bytes.try_into().expect("record slot is 52 bytes");
        let mut numeric = [0.0; NUM_NUMERIC];
        for (v, field) in numeric.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(field.try_into().expect("8-byte field"));
        }
        let mut categorical = [0u8; NUM_CATEGORICAL];
        categorical.copy_from_slice(&bytes[NUMERIC_BYTES..NUMERIC_BYTES + NUM_CATEGORICAL]);
        Record {
            numeric,
            categorical,
            class: bytes[RECORD_BYTES - 1],
        }
    }
}

/// Bytes of the numeric fields of an encoded [`Record`].
const NUMERIC_BYTES: usize = NUM_NUMERIC * 8;
/// Bytes of one encoded [`Record`].
const RECORD_BYTES: usize = NUMERIC_BYTES + NUM_CATEGORICAL + 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_and_size() {
        let r = Record {
            numeric: [1.5, 0.0, 42.0, 123456.0, 7.0, 99999.0],
            categorical: [3, 17, 8],
            class: 1,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), Record::ENCODED_BYTES);
        assert_eq!(Record::ENCODED_BYTES, 52);
        assert_eq!(Record::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn short_input_is_a_decode_error() {
        let bytes = Record {
            numeric: [0.0; NUM_NUMERIC],
            categorical: [0; NUM_CATEGORICAL],
            class: 0,
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            let err = Record::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(
                (err.what, err.remaining, err.trailing),
                ("Record", cut, false)
            );
        }
    }

    #[test]
    fn cardinalities_match_schema() {
        assert_eq!(CATEGORICAL_CARDINALITY.len(), NUM_CATEGORICAL);
        assert_eq!(NUMERIC_NAMES.len(), NUM_NUMERIC);
    }
}
