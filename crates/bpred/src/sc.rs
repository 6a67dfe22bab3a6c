//! The statistical corrector (SC) component of TAGE-SC-L.

use crate::history::{Folded, History};

const NUM_SC_TABLES: usize = 3;
const SC_HIST: [u32; NUM_SC_TABLES] = [8, 16, 32];
const WEIGHT_MAX: i8 = 31;
const WEIGHT_MIN: i8 = -32;

/// GEHL-style statistical corrector: a few tables of signed weights indexed
/// by `pc ⊕ folded-history`, summed together with a bias contribution from
/// the TAGE prediction. If the magnitude of the sum clears a threshold and
/// its sign disagrees with TAGE, the SC overrides.
#[derive(Clone, Debug)]
pub(crate) struct StatisticalCorrector {
    tables: [Vec<i8>; NUM_SC_TABLES],
    /// Per table, `History::fold(SC_HIST[t], index_bits)` of the speculative
    /// history, advanced by [`push_history`](Self::push_history).
    folds: [Folded; NUM_SC_TABLES],
    /// Bias table indexed by pc and the TAGE prediction.
    bias: Vec<i8>,
    index_bits: u32,
    threshold: i32,
}

impl StatisticalCorrector {
    pub fn new(index_bits: u32) -> StatisticalCorrector {
        let mk = || vec![0i8; 1 << index_bits];
        StatisticalCorrector {
            tables: [mk(), mk(), mk()],
            folds: SC_HIST.map(|len| Folded::new(len, index_bits)),
            bias: vec![0i8; 1 << (index_bits + 1)],
            index_bits,
            threshold: 12,
        }
    }

    /// Advances the folded histories for `taken` about to be pushed onto
    /// `before`.
    pub fn push_history(&mut self, before: &History, taken: bool) {
        for f in &mut self.folds {
            f.push(before, taken);
        }
    }

    /// Recomputes the folded histories from `hist` (after a restore).
    pub fn refold(&mut self, hist: &History) {
        for f in &mut self.folds {
            f.refold(hist);
        }
    }

    /// Whether every folded register equals `History::fold` of `hist`.
    #[cfg(test)]
    pub fn folds_match(&self, hist: &History) -> bool {
        SC_HIST
            .iter()
            .zip(&self.folds)
            .all(|(&len, f)| f.value() == hist.fold(len, self.index_bits))
    }

    fn index(&self, pc: u64, t: usize) -> u32 {
        let h = self.folds[t].value();
        (((pc >> 2) ^ h ^ (t as u64) << 3) & ((1 << self.index_bits) as u64 - 1)) as u32
    }

    fn bias_index(&self, pc: u64, tage_taken: bool) -> u32 {
        ((((pc >> 2) << 1) | tage_taken as u64) & ((1 << (self.index_bits + 1)) as u64 - 1)) as u32
    }

    /// Computes the weighted sum over the current folded histories and
    /// returns it with the table indices used (stored in the `Prediction`
    /// for the in-order update).
    pub fn sum(&self, pc: u64, tage_taken: bool) -> (i32, [u32; 4]) {
        let mut indices = [0u32; 4];
        let mut sum: i32 = 0;
        for (t, table) in self.tables.iter().enumerate() {
            let idx = self.index(pc, t);
            indices[t] = idx;
            sum += (2 * table[idx as usize] as i32) + 1;
        }
        let bi = self.bias_index(pc, tage_taken);
        indices[3] = bi;
        sum += (2 * self.bias[bi as usize] as i32) + 1;
        // TAGE's own vote.
        sum += if tage_taken { 8 } else { -8 };
        (sum, indices)
    }

    /// Whether the sum is confident enough to override TAGE.
    pub fn confident(&self, sum: i32) -> bool {
        sum.abs() > self.threshold
    }

    /// Perceptron-style update: train when wrong or not confident.
    pub fn update(&mut self, taken: bool, sum: i32, indices: &[u32; 4]) {
        let predicted = sum >= 0;
        if predicted == taken && sum.abs() > self.threshold {
            return;
        }
        let step = if taken { 1 } else { -1 };
        for (table, &idx) in self.tables.iter_mut().zip(indices.iter()) {
            let w = &mut table[idx as usize];
            *w = (*w + step).clamp(WEIGHT_MIN, WEIGHT_MAX);
        }
        let b = &mut self.bias[indices[3] as usize];
        *b = (*b + step).clamp(WEIGHT_MIN, WEIGHT_MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_toward_bias() {
        let mut sc = StatisticalCorrector::new(8);
        for _ in 0..64 {
            let (sum, idx) = sc.sum(0x40, false);
            sc.update(true, sum, &idx);
        }
        let (sum, _) = sc.sum(0x40, false);
        assert!(sum > 0, "sum should have been pushed positive: {sum}");
        assert!(sc.confident(sum));
    }

    #[test]
    fn stops_training_when_confident_and_correct() {
        let mut sc = StatisticalCorrector::new(8);
        for _ in 0..1000 {
            let (sum, idx) = sc.sum(0x40, true);
            sc.update(true, sum, &idx);
        }
        // Weights saturate rather than growing without bound.
        let (sum, _) = sc.sum(0x40, true);
        let max_possible = 4 * (2 * WEIGHT_MAX as i32 + 1) + 8;
        assert!(sum <= max_possible);
    }

    #[test]
    fn history_changes_index() {
        let sc0 = StatisticalCorrector::new(8);
        let mut sc1 = StatisticalCorrector::new(8);
        let mut hist = History::default();
        for i in 0..32 {
            sc1.push_history(&hist, i % 2 == 0);
            hist.push(0, i % 2 == 0);
        }
        let (_, i0) = sc0.sum(0x40, true);
        let (_, i1) = sc1.sum(0x40, true);
        assert_ne!(i0[..3], i1[..3]);
        assert!(
            sc1.folds_match(&hist),
            "pushed registers fold what they saw"
        );
        assert!(!sc0.folds_match(&hist));
    }

    #[test]
    fn not_confident_near_zero() {
        let sc = StatisticalCorrector::new(8);
        assert!(!sc.confident(0));
        assert!(!sc.confident(12));
        assert!(sc.confident(13));
        assert!(sc.confident(-13));
    }
}
