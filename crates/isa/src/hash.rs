//! The one hasher for `u64`-keyed maps and sets.
//!
//! Memory words, cache lines, sequence numbers and chain ids are already
//! well-spread integers that no adversary picks, so the simulator hashes
//! them with one multiply and two xor-shifts instead of the standard
//! library's SipHash. The mix folds the high half of the key into the low
//! half before the multiply and the product's high half back into its low
//! half after it, so the low bits — the bits `HashMap` picks buckets
//! from — depend on every key bit. A bare multiply (FxHash style) leaves
//! the low bits a function of the key's low bits only, which piles
//! page-strided words into a few buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-xorshift mix behind [`WordHasher`].
///
/// ```
/// use cdf_isa::word_hash;
/// // Keys one 4 KiB page apart differ in their low bits after the mix.
/// assert_ne!(word_hash(0) & 0xFFF, word_hash(512) & 0xFFF);
/// ```
#[inline]
pub fn word_hash(key: u64) -> u64 {
    let h = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// A [`Hasher`] for `u64` keys: each written word is mixed into the state
/// by [`word_hash`]. Other key types hash their bytes as little-endian
/// words, so they work, but nothing in the simulator uses them.
#[derive(Clone, Copy, Default, Debug)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = word_hash(self.0 ^ key);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The build-hasher of every `u64`-keyed map and set in the simulator.
pub type WordHash = BuildHasherDefault<WordHasher>;

/// A `u64`-keyed [`HashMap`] hashed by [`WordHash`].
pub type WordMap<V> = HashMap<u64, V, WordHash>;

/// A `u64` [`HashSet`] hashed by [`WordHash`].
pub type WordSet = HashSet<u64, WordHash>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// 4,096 words one 4 KiB page (512 words) apart land in most of the
    /// 4,096 buckets their low 12 bits select; a bare multiply puts them
    /// in 8.
    #[test]
    fn page_strided_words_spread_over_the_low_bits() {
        const BUCKETS: usize = 4096;
        let spread = |hash: &dyn Fn(u64) -> u64| {
            let mut seen = vec![false; BUCKETS];
            for i in 0..BUCKETS as u64 {
                seen[(hash(0x1000_0000 + i * 512) as usize) & (BUCKETS - 1)] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        let used = spread(&|k| WordHash::default().hash_one(k));
        assert!(
            used >= BUCKETS * 7 / 10,
            "page-strided words fill {used} of {BUCKETS} buckets"
        );
        let bare = spread(&|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert!(bare <= 8, "a bare multiply fills {bare} buckets");
    }
}
