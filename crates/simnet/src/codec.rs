//! Length-prefixed binary encoding for checkpoint payloads.
//!
//! The online [`TrustService`] (crate `tsn-service`) snapshots its full
//! state so long runs can pause and resume *bit-identically*. That rules
//! out text formats: the workspace's hand-rolled JSON emitter
//! (`tsn_core::json`) is write-only, and round-tripping `f64`s through
//! decimal strings is exactly the kind of low-bit drift the determinism
//! discipline (DESIGN.md §4) forbids. So checkpoints use this tiny
//! binary codec instead — still zero external dependencies:
//!
//! * all integers are little-endian fixed width;
//! * `f64`s travel as their IEEE-754 bit pattern ([`f64::to_bits`]), so
//!   encode → decode is the identity on every value including negative
//!   zero and NaN payloads;
//! * variable-length data (byte blobs, sequences) carries a `u64` length
//!   prefix, read back with bounds checks — a truncated or corrupt
//!   checkpoint fails with an error, never a panic or a wild read.
//!
//! The codec deliberately has no schema or field names: framing,
//! versioning and layout belong to the caller (the service writes a
//! magic + version header and refuses unknown versions).
//!
//! [`TrustService`]: https://docs.rs/tsn-service

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) slicing
/// tables, built at compile time. `CRC32_TABLES[0]` is the classic
/// bytewise table; `CRC32_TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so sixteen lookups fold sixteen input
/// bytes into the running CRC at once (see [`crc32`]).
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 checksum (IEEE) of `bytes`.
///
/// Used to frame journal records and checkpoint sections: a CRC-32
/// detects *every* single-bit flip (and all burst errors up to 32 bits)
/// in the checksummed payload, which is exactly the corruption class the
/// storage fault model injects.
///
/// The loop is *slice-by-16*. CRC-32 is linear over GF(2), so a
/// 16-byte block folds in one step: the running CRC is xored into the
/// block's first four bytes, and byte `j` of the block then contributes
/// `CRC32_TABLES[15 - j][byte]` — its CRC carried past the `15 - j`
/// bytes after it. Xoring sixteen independent lookups replaces sixteen
/// dependent table steps. A tail under 16 bytes runs the classic
/// bytewise loop over table 0; either way the value is the IEEE CRC-32.
///
/// ```
/// use tsn_simnet::codec::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the IEEE check value
/// assert_ne!(crc32(b"journal"), crc32(b"jOurnal"));
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends fixed-width and length-prefixed values to a byte buffer.
///
/// ```
/// use tsn_simnet::codec::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.put_u64(7);
/// w.put_f64(-0.0);
/// let bytes = w.finish();
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.take_u64().unwrap(), 7);
/// assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends to the end of `buf`, reusing its
    /// allocation; [`ByteWriter::finish`] hands the grown buffer back.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u64`-length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads values written by [`ByteWriter`], with bounds checking.
///
/// Every `take_*` returns `Err` (naming what was expected and where)
/// instead of panicking when the input is shorter than the read — the
/// decode path for untrusted checkpoint files.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Name of the logical section being decoded, included in
    /// out-of-bounds errors so a truncated checkpoint names *where* it
    /// broke, not just that it did.
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context: "",
        }
    }

    /// Labels the bytes read from here on as belonging to `section`.
    /// Every subsequent out-of-bounds error names the section alongside
    /// the byte offset; pass `""` to clear.
    pub fn set_context(&mut self, section: &'static str) {
        self.context = section;
    }

    /// The current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(format!(
                "truncated input: wanted {n} bytes for {what}{}, have {}",
                self.site(self.pos),
                self.remaining()
            )),
        }
    }

    /// Where an error happened: the section (when one is set) and the
    /// byte offset, as `" in section '…' at offset …"`.
    fn site(&self, offset: usize) -> String {
        if self.context.is_empty() {
            format!(" at offset {offset}")
        } else {
            format!(" in section '{}' at offset {offset}", self.context)
        }
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4, "u32")?;
        // tsn-lint: allow(no-unwrap, "need(4) verified the remaining length; the slice is exactly four bytes")
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8, "u64")?;
        // tsn-lint: allow(no-unwrap, "need(8) verified the remaining length; the slice is exactly eight bytes")
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `u64`-length-prefixed byte blob. The declared length is
    /// bounds-checked against the remaining input before any slicing.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.take_u64()?;
        let len = usize::try_from(len).map_err(|_| format!("blob length {len} overflows usize"))?;
        self.take(len, "length-prefixed bytes")
    }

    /// Reads a `u64` sequence length, validating it against a per-element
    /// minimum size so corrupt headers cannot trigger huge allocations.
    /// Errors name the section and the offset of the length field.
    pub fn take_seq_len(&mut self, min_element_bytes: usize) -> Result<usize, String> {
        let at = self.pos;
        let len = self.take_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| format!("sequence length {len}{} overflows", self.site(at)))?;
        let need = len.saturating_mul(min_element_bytes.max(1));
        if need > self.remaining() {
            return Err(format!(
                "corrupt sequence length {len}{}: needs at least {need} bytes, {} remain",
                self.site(at),
                self.remaining()
            ));
        }
        Ok(len)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64(1.0 / 3.0);
        w.put_bytes(b"checkpoint");
        w.put_bytes(b"");
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.take_f64().unwrap(), 1.0 / 3.0);
        assert_eq!(r.take_bytes().unwrap(), b"checkpoint");
        assert_eq!(r.take_bytes().unwrap(), b"");
        assert!(r.is_empty());
    }

    /// The bytewise CRC-32 loop, kept as the reference the sliced
    /// implementation must agree with bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A fixed xorshift64 byte stream.
    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_sliced_matches_the_bytewise_reference() {
        let buf = xorshift_bytes(4099 + 16);
        // Every short length at every block alignment: exercises the
        // 16-byte loop, the tail, and their seam.
        for start in 0..16 {
            for len in 0..=80 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for len in [1000, 4099] {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value_and_detects_bit_flips() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every single-bit flip of a small payload changes the CRC.
        let payload = b"epoch 7: 42 events".to_vec();
        let reference = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn reader_context_names_the_section_and_offset() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.set_context("mechanism");
        assert_eq!(r.take_u8().unwrap(), 1);
        let err = r.take_u64().unwrap_err();
        assert!(err.contains("section 'mechanism'"), "{err}");
        assert!(err.contains("offset 1"), "{err}");
        // Clearing the context drops the section clause.
        r.set_context("");
        let err = r.take_u64().unwrap_err();
        assert!(!err.contains("section"), "{err}");
        assert_eq!(r.position(), 1);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let err = r.take_u64().unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Position is unchanged after a failed read.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take_u8().unwrap(), 1);
    }

    #[test]
    fn corrupt_blob_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims a blob longer than the input
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(r.take_bytes().is_err());
    }

    #[test]
    fn corrupt_sequence_length_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(1 << 60);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let err = r.take_seq_len(8).unwrap_err();
        assert!(err.contains("corrupt sequence length"), "{err}");
    }

    #[test]
    fn hostile_sequence_length_names_its_section_and_offset() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        r.set_context("mechanism");
        assert_eq!(r.take_u32().unwrap(), 7);
        let err = r.take_seq_len(8).unwrap_err();
        assert!(err.contains("corrupt sequence length"), "{err}");
        assert!(err.contains("in section 'mechanism' at offset 4"), "{err}");
        // Without a section the offset is still named.
        let mut r = ByteReader::new(&bytes[4..]);
        let err = r.take_seq_len(8).unwrap_err();
        assert!(err.contains("at offset 0"), "{err}");
        assert!(!err.contains("section"), "{err}");
    }

    #[test]
    fn seq_len_accepts_exact_fit() {
        let mut w = ByteWriter::new();
        w.put_u64(3);
        for i in 0..3u64 {
            w.put_u64(i);
        }
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let len = r.take_seq_len(8).unwrap();
        assert_eq!(len, 3);
        for i in 0..3u64 {
            assert_eq!(r.take_u64().unwrap(), i);
        }
    }
}
