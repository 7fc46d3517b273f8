//! A compact, versioned binary codec for the release state a data owner
//! must retain durably: per-column binning sets, the mark, the ownership
//! proof.
//!
//! The workspace builds hermetically, with no serialization framework, so
//! persistence cannot lean on derived serialization. This module provides
//! the hand-rolled alternative: little-endian fixed-width
//! primitives, `u32`-length-prefixed byte strings, and explicit
//! `write_*`/`read_*` pairs for the three protection-state types. Every
//! reader is **total** — malformed or truncated input yields a
//! [`CodecError`], never a panic — because the write-ahead log of the
//! serving layer replays these bytes after a crash.
//!
//! The serving layer's log and snapshot files frame each encoded record
//! with a length prefix and a [`crc32`] checksum so a torn tail can be
//! detected and truncated on recovery.

use medshield_binning::ColumnBinning;
use medshield_dht::{GeneralizationSet, NodeId};
use medshield_watermark::{Mark, OwnershipProof};

/// Why a byte buffer could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it announced.
    Truncated,
    /// The bytes are structurally invalid (bad tag, impossible length,
    /// non-UTF-8 string).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ends before the announced value"),
            CodecError::Invalid(m) => write!(f, "invalid encoding: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer the `write_*` functions encode into.
///
/// Length conversions are checked with a *sticky overflow* design: a
/// count that does not fit its wire width poisons the writer instead of
/// truncating silently, and [`Writer::into_bytes`] reports it once at
/// the end — callers keep the simple infallible `write_*` call style.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    overflow: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and infinities).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a count/length as a little-endian `u32`; a value above
    /// `u32::MAX` poisons the writer.
    pub fn count_u32(&mut self, v: usize) {
        match u32::try_from(v) {
            Ok(n) => self.u32(n),
            Err(_) => self.overflow = true,
        }
    }

    /// Append a count/length as a little-endian `u64`; lossless for any
    /// `usize` this codebase can run on, but checked all the same.
    pub fn count_u64(&mut self, v: usize) {
        match u64::try_from(v) {
            Ok(n) => self.u64(n),
            Err(_) => self.overflow = true,
        }
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.count_u32(v.len());
        if !self.overflow {
            self.buf.extend_from_slice(v);
        }
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// The encoded bytes — or [`CodecError::Invalid`] if any length
    /// overflowed its wire width along the way.
    pub fn into_bytes(self) -> Result<Vec<u8>, CodecError> {
        if self.overflow {
            return Err(CodecError::Invalid("a length overflowed its wire width".into()));
        }
        Ok(self.buf)
    }
}

/// A cursor over a byte buffer the `read_*` functions decode from.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.take(1)?.first().copied().ok_or(CodecError::Truncated)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = usize::try_from(self.u32()?).map_err(|_| CodecError::Truncated)?;
        self.take(len)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Error unless every byte was consumed — a record with trailing bytes
    /// was not produced by this codec.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!("{} trailing bytes after the value", self.remaining())))
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`. Used by the durable
/// release store to checksum every log and snapshot record.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encode a [`Mark`] (bit count + packed bits).
pub fn write_mark(w: &mut Writer, mark: &Mark) {
    w.count_u64(mark.len());
    w.bytes(&mark.to_packed_bits());
}

/// Decode a [`Mark`] written by [`write_mark`].
pub fn read_mark(r: &mut Reader<'_>) -> Result<Mark, CodecError> {
    let len = usize::try_from(r.u64()?)
        .map_err(|_| CodecError::Invalid("mark length exceeds usize".into()))?;
    let packed = r.bytes()?;
    Mark::from_packed_bits(len, packed).ok_or_else(|| {
        CodecError::Invalid(format!("{} packed bytes cannot hold {len} bits", packed.len()))
    })
}

/// Encode an [`OwnershipProof`].
pub fn write_ownership_proof(w: &mut Writer, proof: &OwnershipProof) {
    w.f64(proof.statistic);
    w.count_u64(proof.mark_len);
}

/// Decode an [`OwnershipProof`] written by [`write_ownership_proof`].
pub fn read_ownership_proof(r: &mut Reader<'_>) -> Result<OwnershipProof, CodecError> {
    let statistic = r.f64()?;
    let mark_len = usize::try_from(r.u64()?)
        .map_err(|_| CodecError::Invalid("mark length exceeds usize".into()))?;
    Ok(OwnershipProof { statistic, mark_len })
}

fn write_generalization_set(w: &mut Writer, set: &GeneralizationSet) {
    w.count_u32(set.nodes().len());
    for node in set.nodes() {
        w.u32(node.0);
    }
}

fn read_generalization_set(r: &mut Reader<'_>) -> Result<GeneralizationSet, CodecError> {
    let count = usize::try_from(r.u32()?).map_err(|_| CodecError::Truncated)?;
    // Cap the preallocation by what the buffer can actually hold (4 bytes
    // per node) so a corrupt count cannot balloon memory.
    if count.saturating_mul(4) > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(NodeId(r.u32()?));
    }
    Ok(GeneralizationSet::from_validated_nodes(nodes))
}

/// Encode a [`ColumnBinning`] (column name + maximal/minimal/ultimate node
/// sets).
pub fn write_column_binning(w: &mut Writer, column: &ColumnBinning) {
    w.str(&column.column);
    write_generalization_set(w, &column.maximal);
    write_generalization_set(w, &column.minimal);
    write_generalization_set(w, &column.ultimate);
}

/// Decode a [`ColumnBinning`] written by [`write_column_binning`].
///
/// Node sets come back through
/// [`GeneralizationSet::from_validated_nodes`], which re-sorts and dedups
/// but does **not** re-check tree validity — the bytes are trusted to have
/// been produced by [`write_column_binning`] over a set that was validated
/// when it was first built (checksums in the store's framing catch
/// corruption before decoding starts).
pub fn read_column_binning(r: &mut Reader<'_>) -> Result<ColumnBinning, CodecError> {
    Ok(ColumnBinning {
        column: r.str()?.to_string(),
        maximal: read_generalization_set(r)?,
        minimal: read_generalization_set(r)?,
        ultimate: read_generalization_set(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bytes(b"raw");
        w.str("caf\u{e9}");
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "caf\u{e9}");
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("column");
        w.u64(42);
        let bytes = w.into_bytes().unwrap();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let first =
                r.str().map(std::string::ToString::to_string).and_then(|s| r.u64().map(|n| (s, n)));
            assert!(first.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u32(1);
        let mut bytes = w.into_bytes().unwrap();
        bytes.push(0);
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn mark_and_proof_round_trip() {
        for len in [0usize, 1, 7, 8, 9, 20, 64, 301] {
            let mark = Mark::from_bytes(b"owner", len);
            let mut w = Writer::new();
            write_mark(&mut w, &mark);
            let bytes = w.into_bytes().unwrap();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_mark(&mut r).unwrap(), mark, "len {len}");
            r.finish().unwrap();
        }
        let proof = OwnershipProof { statistic: 123_456_789.654_321, mark_len: 20 };
        let mut w = Writer::new();
        write_ownership_proof(&mut w, &proof);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_ownership_proof(&mut r).unwrap(), proof);
        r.finish().unwrap();
    }

    #[test]
    fn mark_rejects_impossible_packing() {
        let mut w = Writer::new();
        w.u64(64); // claims 64 bits…
        w.bytes(&[0xFF]); // …but supplies one byte
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(matches!(read_mark(&mut r), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn column_binning_round_trips_through_real_trees() {
        use medshield_datagen::ontology;
        let trees = ontology::all_trees();
        let tree = trees.values().next().expect("ontology has trees");
        let column = ColumnBinning {
            column: "symptom".to_string(),
            maximal: GeneralizationSet::root_only(tree),
            minimal: GeneralizationSet::all_leaves(tree),
            ultimate: GeneralizationSet::at_depth(tree, 1),
        };
        let mut w = Writer::new();
        write_column_binning(&mut w, &column);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let decoded = read_column_binning(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, column);
    }
}
