//! Global and path history with checkpoint/rewind support.

/// Global branch history as a 128-bit shift register, plus a 32-bit path
/// history of low PC bits.
///
/// 128 bits of history is ample for the geometric history lengths used by the
/// default [`crate::TageConfig`] (max 128); checkpoints are cheap value
/// copies, which is how the fetch unit repairs speculation after a
/// misprediction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct History {
    pub ghr: u128,
    pub path: u32,
}

/// An opaque snapshot of predictor history, captured inside every
/// [`crate::Prediction`] so a misprediction can rewind speculation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistoryCheckpoint {
    pub(crate) hist: History,
}

impl History {
    /// Shifts a branch outcome into the global history and the branch PC into
    /// the path history.
    pub fn push(&mut self, pc: u64, taken: bool) {
        self.ghr = (self.ghr << 1) | (taken as u128);
        self.path = (self.path << 2) | ((pc >> 2) & 0x3) as u32;
    }

    /// Captures a checkpoint.
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        HistoryCheckpoint { hist: *self }
    }

    /// Restores from a checkpoint.
    pub fn restore(&mut self, cp: &HistoryCheckpoint) {
        *self = cp.hist;
    }

    /// Folds the youngest `len` bits of global history into `bits` bits by
    /// xor-ing `bits`-wide chunks together. This is the definition a
    /// [`Folded`] register tracks; predictors recompute it only after a
    /// checkpoint restore.
    pub fn fold(&self, len: u32, bits: u32) -> u64 {
        debug_assert!(len <= 128 && bits > 0 && bits <= 30);
        if len == 0 {
            return 0;
        }
        let mask: u128 = if len == 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        };
        let mut h = self.ghr & mask;
        let mut out: u64 = 0;
        while h != 0 {
            out ^= (h as u64) & ((1u64 << bits) - 1);
            h >>= bits;
        }
        out
    }

    /// Folds the path history into `bits` bits.
    pub fn fold_path(&self, bits: u32) -> u64 {
        let p = self.path as u64;
        (p ^ (p >> bits) ^ (p >> (2 * bits))) & ((1u64 << bits) - 1)
    }
}

/// A folded-history register: [`History::fold`]`(len, bits)` kept up to date
/// one push at a time, so a prediction reads it instead of refolding.
///
/// Seznec's circular-shift update: pushing outcome `taken` moves history bit
/// `i` to `i + 1`, which in the fold is a one-bit rotate within `bits`; the
/// new bit enters at position 0, and the bit leaving the window (old bit
/// `len - 1`, now at `len`) is cancelled at position `len % bits`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Folded {
    value: u64,
    len: u32,
    bits: u32,
    /// `len % bits`: where the outgoing bit lands after the rotate.
    out_pos: u32,
}

impl Folded {
    /// A register for the youngest `len` bits folded into `bits`, equal to
    /// the fold of an all-zero history.
    pub fn new(len: u32, bits: u32) -> Folded {
        assert!(
            len <= 128 && bits > 0 && bits <= 30,
            "fold {len} into {bits}"
        );
        Folded {
            value: 0,
            len,
            bits,
            out_pos: len % bits,
        }
    }

    /// The folded history.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Advances the register for `taken` about to be pushed onto `before`.
    #[inline]
    pub fn push(&mut self, before: &History, taken: bool) {
        if self.len == 0 {
            return;
        }
        let outgoing = (before.ghr >> (self.len - 1)) as u64 & 1;
        let c = self.value;
        let rotated = (c << 1) | (c >> (self.bits - 1));
        self.value =
            (rotated ^ taken as u64 ^ (outgoing << self.out_pos)) & ((1u64 << self.bits) - 1);
    }

    /// Recomputes the register from `hist` (after a checkpoint restore).
    pub fn refold(&mut self, hist: &History) {
        self.value = hist.fold(self.len, self.bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_in_outcomes() {
        let mut h = History::default();
        h.push(0, true);
        h.push(0, false);
        h.push(0, true);
        assert_eq!(h.ghr & 0b111, 0b101);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut h = History::default();
        for i in 0..50 {
            h.push(i * 4, i % 3 == 0);
        }
        let cp = h.checkpoint();
        let saved = h;
        for i in 0..20 {
            h.push(i * 8, i % 2 == 0);
        }
        assert_ne!(h, saved);
        h.restore(&cp);
        assert_eq!(h, saved);
    }

    #[test]
    fn fold_respects_length() {
        let mut h = History::default();
        // History: 8 taken branches.
        for _ in 0..8 {
            h.push(0, true);
        }
        assert_eq!(h.fold(4, 4), 0b1111);
        assert_eq!(h.fold(8, 4), 0); // 0b1111 ^ 0b1111
        assert_eq!(h.fold(0, 4), 0);
    }

    #[test]
    fn fold_full_width() {
        let mut h = History::default();
        for i in 0..128 {
            h.push(0, i % 2 == 0);
        }
        // Must not panic or overflow at the 128-bit boundary.
        let _ = h.fold(128, 13);
    }

    #[test]
    fn different_histories_fold_differently() {
        let mut a = History::default();
        let mut b = History::default();
        for i in 0..16 {
            a.push(0, i % 2 == 0);
            b.push(0, i % 3 == 0);
        }
        assert_ne!(a.fold(16, 8), b.fold(16, 8));
    }
}
