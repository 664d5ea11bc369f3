//! Tiny little-endian wire codec shared by WAL records and snapshots.
//!
//! Everything the journal persists is built from five primitives —
//! `u8`, `u32`, `u64`, `f64` (as IEEE-754 bits, so round-trips are
//! bit-exact), and length-prefixed byte strings. [`Enc`] appends to a
//! growable buffer; [`Dec`] walks a slice and fails with
//! [`EavmError::Durability`] instead of panicking on truncated or
//! malformed input, because decode errors are how torn frames are
//! detected.

// C1: no silent `as` conversions in the wire format; use the checked
// helpers (`try_from`, `put_len`).
#![deny(clippy::as_conversions)]

use eavm_types::EavmError;

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as raw IEEE-754 bits: encode/decode round-trips are
    /// bit-exact, which the recovery parity proof depends on.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Checked `usize -> u32` length prefix: the codec's one narrowing
    /// conversion, in one place. Record collections are bounded far
    /// below `u32::MAX`; a longer one is a logic bug, surfaced by the
    /// debug assert and saturated in release (producing a record the
    /// decoder rejects as truncated — never a silently wrapped length).
    pub fn put_len(&mut self, n: usize) {
        debug_assert!(u32::try_from(n).is_ok(), "record length {n} exceeds u32");
        self.put_u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EavmError> {
        if self.buf.len() - self.pos < n {
            return Err(EavmError::Durability(format!(
                "truncated record: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, EavmError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, EavmError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, EavmError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, EavmError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Checked counterpart of [`Enc::put_len`]: a wire length widened
    /// to `usize` via `try_from`, so even a 16-bit target fails with a
    /// decode error instead of truncating.
    pub fn get_len(&mut self) -> Result<usize, EavmError> {
        let v = self.get_u32()?;
        usize::try_from(v)
            .map_err(|_| EavmError::Durability(format!("record length {v} exceeds usize")))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], EavmError> {
        let len = self.get_len()?;
        self.take(len)
    }

    pub fn get_string(&mut self) -> Result<String, EavmError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| EavmError::Durability("non-utf8 string in record".into()))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole input was consumed — trailing bytes mean a
    /// version/format mismatch, not a benign extension.
    pub fn expect_end(&self) -> Result<(), EavmError> {
        if self.remaining() != 0 {
            return Err(EavmError::Durability(format!(
                "{} trailing bytes after record",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact, bit-reproducible values")]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_f64(-0.0);
        e.put_f64(1234.5678e-9);
        e.put_str("snapshot");
        let buf = e.finish();

        let mut d = Dec::new(&buf);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64().unwrap(), 1234.5678e-9);
        assert_eq!(d.get_string().unwrap(), "snapshot");
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.put_u64(42);
        let buf = e.finish();
        let mut d = Dec::new(&buf[..5]);
        assert!(d.get_u64().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.put_u32(1);
        e.put_u8(0);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        d.get_u32().unwrap();
        assert!(d.expect_end().is_err());
    }
}
