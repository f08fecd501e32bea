//! Fixed-size record trait.
//!
//! Out-of-core files store records back to back; a fixed encoded size makes
//! every chunk boundary a record boundary and lets readers seek by index,
//! exactly like the attribute/record files of the paper's implementation.

use std::marker::PhantomData;

use pdc_cgm::wire::{DecodeError, DecodeResult};
use pdc_cgm::Wire;

/// A record with a fixed wire size. `ENCODED_BYTES` must equal the length of
/// `Wire::to_bytes()` for every value of the type, and the fixed-width codec
/// must write and read exactly the bytes of the [`Wire`] encoding.
pub trait Rec: Wire + Clone + Send + 'static {
    /// Exact encoded size in bytes of every value of this type.
    const ENCODED_BYTES: usize;

    /// Write the [`Wire`] encoding into `out`, which is exactly
    /// `ENCODED_BYTES` long.
    fn write_fixed(&self, out: &mut [u8]);

    /// Read a value back from exactly `ENCODED_BYTES` bytes. Cannot fail:
    /// every bit pattern of the right length is a value.
    fn read_fixed(bytes: &[u8]) -> Self;
}

macro_rules! impl_rec_le {
    ($($t:ty),*) => {$(
        impl Rec for $t {
            const ENCODED_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_fixed(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("fixed-width field"))
            }
        }
    )*};
}

impl_rec_le!(u8, u32, u64, i64, f64);

impl<A: Rec, B: Rec> Rec for (A, B) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES;

    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        let (a, b) = out.split_at_mut(A::ENCODED_BYTES);
        self.0.write_fixed(a);
        self.1.write_fixed(b);
    }

    #[inline]
    fn read_fixed(bytes: &[u8]) -> Self {
        let (a, b) = bytes.split_at(A::ENCODED_BYTES);
        (A::read_fixed(a), B::read_fixed(b))
    }
}

impl<A: Rec, B: Rec, C: Rec> Rec for (A, B, C) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES + C::ENCODED_BYTES;

    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        let (a, rest) = out.split_at_mut(A::ENCODED_BYTES);
        let (b, c) = rest.split_at_mut(B::ENCODED_BYTES);
        self.0.write_fixed(a);
        self.1.write_fixed(b);
        self.2.write_fixed(c);
    }

    #[inline]
    fn read_fixed(bytes: &[u8]) -> Self {
        let (a, rest) = bytes.split_at(A::ENCODED_BYTES);
        let (b, c) = rest.split_at(B::ENCODED_BYTES);
        (A::read_fixed(a), B::read_fixed(b), C::read_fixed(c))
    }
}

/// Encode a batch of records into one contiguous buffer.
pub fn encode_batch<R: Rec>(records: &[R]) -> Vec<u8> {
    let mut buf = vec![0u8; records.len() * R::ENCODED_BYTES];
    for (r, out) in records.iter().zip(buf.chunks_exact_mut(R::ENCODED_BYTES)) {
        r.write_fixed(out);
    }
    buf
}

/// Decode a contiguous buffer of back-to-back records.
pub fn decode_batch<R: Rec>(bytes: &[u8]) -> Vec<R> {
    assert_eq!(
        bytes.len() % R::ENCODED_BYTES,
        0,
        "buffer is not a whole number of records"
    );
    bytes
        .chunks_exact(R::ENCODED_BYTES)
        .map(R::read_fixed)
        .collect()
}

/// Records encoded back to back as they are pushed, in exactly the wire
/// format of `Vec<R>`: a `u64` count, then each record's fixed-width bytes.
/// Sending a batch therefore costs one copy of its buffer, with no
/// intermediate `Vec<R>` and no per-record encode at send time.
#[derive(Debug, Clone, PartialEq)]
pub struct RecBatch<R> {
    bytes: Vec<u8>,
    _marker: PhantomData<R>,
}

impl<R: Rec> Default for RecBatch<R> {
    fn default() -> Self {
        RecBatch {
            bytes: Vec::new(),
            _marker: PhantomData,
        }
    }
}

impl<R: Rec> RecBatch<R> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    #[inline]
    pub fn push(&mut self, r: &R) {
        let at = self.bytes.len();
        self.bytes.resize(at + R::ENCODED_BYTES, 0);
        r.write_fixed(&mut self.bytes[at..]);
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / R::ENCODED_BYTES
    }

    /// True when the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Empty the batch, keeping its buffer for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// The records, decoded in push order.
    pub fn iter(&self) -> impl Iterator<Item = R> + '_ {
        self.bytes.chunks_exact(R::ENCODED_BYTES).map(R::read_fixed)
    }
}

impl<R: Rec> Wire for RecBatch<R> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(&self.bytes);
    }

    /// Rejects a count that the remaining bytes cannot hold before
    /// allocating anything, so a corrupt count cannot allocate beyond the
    /// input.
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let count = u64::decode(buf)?;
        let len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(R::ENCODED_BYTES))
            .filter(|&len| len <= buf.len())
            .ok_or(DecodeError {
                what: "record batch count exceeds its bytes",
                remaining: buf.len(),
                trailing: false,
            })?;
        let (head, tail) = buf.split_at(len);
        *buf = tail;
        Ok(RecBatch {
            bytes: head.to_vec(),
            _marker: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrip() {
        let recs: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64 * 0.5)).collect();
        let bytes = encode_batch(&recs);
        assert_eq!(bytes.len(), recs.len() * <(u64, f64)>::ENCODED_BYTES);
        let back: Vec<(u64, f64)> = decode_batch(&bytes);
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_batch() {
        let bytes = encode_batch::<u32>(&[]);
        assert!(bytes.is_empty());
        assert!(decode_batch::<u32>(&bytes).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn ragged_buffer_panics() {
        decode_batch::<u32>(&[0, 1, 2]);
    }
}
