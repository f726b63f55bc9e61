//! Canonical cache-key construction.
//!
//! A canonical key is built from *validated* request content — objective
//! name, parameters, then the graph's weights — never from raw request
//! bytes, so formatting differences (whitespace, object key order,
//! stray fields that parsing rejects anyway) cannot fragment a cache
//! keyed on it. The finished byte string is meant to be compared for
//! exact equality; consumers may hash it for bucketing but must not
//! trust the hash alone.

/// Builds a canonical key byte string field by field.
///
/// Integers are length-prefix-free but tagged, so adjacent fields cannot
/// collide by concatenation: `write_u64(1); write_u64(2)` and
/// `write_u64(2); write_u64(1)` produce different byte strings.
#[derive(Debug, Clone, Default)]
pub struct KeyBuilder {
    bytes: Vec<u8>,
}

impl KeyBuilder {
    /// Bytes one [`KeyBuilder::write_u64`] appends: the tag and eight
    /// value bytes. With [`KeyBuilder::str_len`] it lets a key's length
    /// be known before the key is built.
    pub const U64_LEN: usize = 9;

    /// Bytes [`KeyBuilder::write_str`] appends for `s`.
    pub fn str_len(s: &str) -> usize {
        Self::U64_LEN + s.len()
    }

    /// Appends raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends one `u64` (little-endian), with a tag byte so that
    /// adjacent fields can't collide by concatenation.
    pub fn write_u64(&mut self, v: u64) {
        self.bytes.push(0xfe);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a string as a tagged length followed by its bytes, so a
    /// string field can never run into its neighbour.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The finished canonical key.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_u64s_do_not_concatenate() {
        let mut a = KeyBuilder::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = KeyBuilder::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = KeyBuilder::default();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyBuilder::default();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
