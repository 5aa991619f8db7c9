//! Compact codecs for the word-sized values CONGEST messages carry.
//!
//! Messages in the CONGEST model are `O(log n)` bits, i.e. a constant number
//! of machine words. These helpers pack/unpack small tagged tuples of `u64`
//! words into byte payloads.

/// Encodes a tag byte followed by `words` little-endian `u64`s.
///
/// ```
/// use das_congest::util::{encode, decode};
/// let p = encode(3, &[7, 9]);
/// let (tag, words) = decode(&p).unwrap();
/// assert_eq!(tag, 3);
/// assert_eq!(words, vec![7, 9]);
/// ```
pub fn encode(tag: u8, words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 * words.len());
    out.push(tag);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Decodes a payload produced by [`encode`]. Returns `None` if the payload
/// is empty or its length is not `1 + 8k`.
pub fn decode(payload: &[u8]) -> Option<(u8, Vec<u64>)> {
    if payload.is_empty() || !(payload.len() - 1).is_multiple_of(8) {
        return None;
    }
    let tag = payload[0];
    let words = payload[1..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect();
    Some((tag, words))
}

/// Reads the tag byte without decoding the words. `None` on empty payloads.
pub fn peek_tag(payload: &[u8]) -> Option<u8> {
    payload.first().copied()
}

/// Mixes two seeds into one, for deriving independent sub-seeds
/// (SplitMix64 of the XOR of `a` with a spread of `b`).
pub fn seed_mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E3779B97F4A7C15);
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Packs two `u32`s into one `u64` word.
pub fn pack2(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack2`].
pub fn unpack2(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = encode(9, &[1, u64::MAX, 0]);
        assert_eq!(p.len(), 1 + 24);
        let (tag, ws) = decode(&p).unwrap();
        assert_eq!(tag, 9);
        assert_eq!(ws, vec![1, u64::MAX, 0]);
        assert_eq!(peek_tag(&p), Some(9));
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[1, 2, 3]), None);
        assert_eq!(peek_tag(&[]), None);
    }

    #[test]
    fn empty_words() {
        let p = encode(5, &[]);
        assert_eq!(decode(&p), Some((5, vec![])));
    }

    #[test]
    fn pack_unpack() {
        let w = pack2(0xDEADBEEF, 42);
        assert_eq!(unpack2(w), (0xDEADBEEF, 42));
        assert_eq!(unpack2(pack2(u32::MAX, u32::MAX)), (u32::MAX, u32::MAX));
    }
}
