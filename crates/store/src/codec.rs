//! Little-endian byte packing shared by the WAL and the catalog.
//!
//! Everything the store writes to disk goes through these two helpers so the
//! encoding (little-endian, length-prefixed strings) lives in exactly one
//! place. Reads are fallible: a short or malformed buffer surfaces as
//! [`StoreError::Corrupt`], never a panic — recovery *expects* to meet torn
//! bytes at the WAL tail.

use crate::error::StoreError;
use gj_storage::Val;

/// The FNV-1a 32-bit offset basis: the hash of no bytes, where a running
/// [`fnv1a32_extend`] starts.
pub const FNV1A32_START: u32 = 0x811c_9dc5;

/// FNV-1a 32-bit hash; the checksum on WAL records and catalog extents.
///
/// Not cryptographic — it only needs to catch torn writes and bit rot, and it
/// keeps the crate dependency-free.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    fnv1a32_extend(FNV1A32_START, bytes)
}

/// Continues an FNV-1a hash over more bytes, so an extent can be checksummed
/// one page at a time: `fnv1a32_extend(fnv1a32(a), b) == fnv1a32(a ++ b)`.
pub fn fnv1a32_extend(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// An append-only little-endian byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` value in little-endian order.
    pub fn put_val(&mut self, v: Val) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over a byte slice whose reads fail with [`StoreError::Corrupt`]
/// instead of panicking when the buffer runs short.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string included in corruption errors ("wal record", "catalog").
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `what` labels corruption errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "{}: truncated (wanted {} bytes at offset {}, have {})",
                self.what,
                n,
                self.pos,
                self.buf.len()
            ))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64` value.
    pub fn get_val(&mut self) -> Result<Val, StoreError> {
        let b = self.take(8)?;
        Ok(Val::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{}: invalid utf-8 in string", self.what)))
    }

    /// Bytes not yet consumed.
    #[cfg(test)]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_val(-42);
        w.put_str("edge");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_val().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "edge");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_are_corruption_not_panics() {
        let mut r = ByteReader::new(&[1, 2], "test");
        let err = r.get_u32().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn string_length_overflow_is_caught() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // absurd length prefix with no payload
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert!(r.get_str().is_err());
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_ne!(fnv1a32(b"edge"), fnv1a32(b"edgf"));
    }

    #[test]
    fn fnv_extends_across_split_points() {
        let bytes: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 100, 256] {
            let (a, b) = bytes.split_at(split);
            assert_eq!(fnv1a32_extend(fnv1a32(a), b), fnv1a32(&bytes));
        }
    }
}
