//! A sparse 64-bit memory image.

use crate::WordMap;

/// Sparse data memory backing functional execution.
///
/// All memory operations in the uop ISA are 8-byte accesses; the image stores
/// 8-byte words keyed by word index (`addr / 8`; sub-word address bits are
/// ignored, i.e. accesses are naturally aligned). Untouched memory reads as
/// zero, which keeps wrong-path execution well-defined without pre-populating
/// every address.
///
/// ```
/// use cdf_isa::MemoryImage;
/// let mut m = MemoryImage::new();
/// assert_eq!(m.load(0x4000), 0);
/// m.store(0x4000, 42);
/// assert_eq!(m.load(0x4000), 42);
/// assert_eq!(m.load(0x4007), 42); // same word
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MemoryImage {
    words: WordMap<u64>,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> MemoryImage {
        MemoryImage::default()
    }

    /// Reads the 8-byte word containing `addr` (0 if never written).
    pub fn load(&self, addr: u64) -> u64 {
        self.words.get(&(addr >> 3)).copied().unwrap_or(0)
    }

    /// Writes the 8-byte word containing `addr`, returning the old value.
    pub fn store(&mut self, addr: u64, value: u64) -> u64 {
        self.words.insert(addr >> 3, value).unwrap_or(0)
    }

    /// Writes a contiguous array of words starting at `base` (which is
    /// rounded down to a word boundary), one word per element.
    ///
    /// ```
    /// use cdf_isa::MemoryImage;
    /// let mut m = MemoryImage::new();
    /// m.store_words(0x100, &[1, 2, 3]);
    /// assert_eq!(m.load(0x108), 2);
    /// ```
    pub fn store_words(&mut self, base: u64, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            self.store(base + 8 * i as u64, v);
        }
    }

    /// Number of words that have been written at least once.
    pub fn written_words(&self) -> usize {
        self.words.len()
    }

    /// Iterates over `(word_address, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(&w, &v)| (w << 3, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let m = MemoryImage::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(u64::MAX), 0);
        assert_eq!(m.written_words(), 0);
    }

    #[test]
    fn store_returns_previous() {
        let mut m = MemoryImage::new();
        assert_eq!(m.store(64, 7), 0);
        assert_eq!(m.store(64, 9), 7);
        assert_eq!(m.load(64), 9);
    }

    #[test]
    fn word_granularity() {
        let mut m = MemoryImage::new();
        m.store(0x1003, 5); // unaligned store hits word 0x1000
        assert_eq!(m.load(0x1000), 5);
        assert_eq!(m.load(0x1008), 0);
    }

    #[test]
    fn store_words_layout() {
        let mut m = MemoryImage::new();
        m.store_words(0x200, &[10, 20, 30, 40]);
        assert_eq!(m.load(0x200), 10);
        assert_eq!(m.load(0x218), 40);
        assert_eq!(m.written_words(), 4);
        let mut pairs: Vec<_> = m.iter().collect();
        pairs.sort();
        assert_eq!(pairs[0], (0x200, 10));
    }
}
