//! The TAGE-SC-L direction predictor.
//!
//! Structure follows Seznec's CBP-2014 TAGE-SC-L at a reduced size: a bimodal
//! base table, several partially-tagged tables indexed with geometrically
//! increasing history lengths, a loop predictor, and a GEHL-style statistical
//! corrector. The paper's Table 1 core uses TAGE-SC-L; MPKI *shape* across
//! workloads is what matters for CDF (hard-to-predict branches get marked
//! critical), not bit-exact CBP behaviour.

use crate::history::{Folded, History, HistoryCheckpoint};
use crate::loop_pred::LoopPredictor;
use crate::sc::StatisticalCorrector;
use crate::DirectionPredictor;

/// Maximum number of tagged tables supported (configs may use fewer).
pub(crate) const MAX_TABLES: usize = 8;

/// Configuration for [`TageScL`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TageConfig {
    /// log2 of the number of bimodal base entries.
    pub base_bits: u32,
    /// log2 of the number of entries in each tagged table.
    pub table_bits: u32,
    /// Tag width in bits for the tagged tables.
    pub tag_bits: u32,
    /// Geometric history lengths, one per tagged table (youngest-first).
    pub hist_lengths: Vec<u32>,
    /// Enable the loop predictor (the "L").
    pub use_loop: bool,
    /// Enable the statistical corrector (the "SC").
    pub use_sc: bool,
    /// Updates between periodic useful-counter aging resets.
    pub useful_reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> TageConfig {
        TageConfig {
            base_bits: 12,
            table_bits: 10,
            tag_bits: 9,
            hist_lengths: vec![4, 8, 16, 32, 64, 128],
            use_loop: true,
            use_sc: true,
            useful_reset_period: 1 << 18,
        }
    }
}

impl TageConfig {
    /// Approximate storage budget in bits (used by the energy/area model).
    pub fn storage_bits(&self) -> u64 {
        let base = (1u64 << self.base_bits) * 2;
        let per_entry = (self.tag_bits + 3 + 2) as u64;
        let tagged = self.hist_lengths.len() as u64 * (1u64 << self.table_bits) * per_entry;
        base + tagged
    }
}

/// Which component supplied the final prediction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provider {
    /// The bimodal base table.
    Base,
    /// Tagged table `i` (0 = shortest history).
    Tagged(u8),
    /// The loop predictor override.
    Loop,
    /// The statistical corrector override.
    Sc,
}

/// The result of a prediction, carrying everything `update`/`recover` need.
///
/// Opaque internals record the table indices and tags computed at predict
/// time (histories will have moved on by update time) plus the history
/// checkpoint used for misprediction repair.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Component that provided the prediction.
    pub provider: Provider,
    pub(crate) pc: u64,
    pub(crate) indices: [u32; MAX_TABLES],
    pub(crate) tags: [u16; MAX_TABLES],
    pub(crate) base_index: u32,
    pub(crate) provider_table: Option<u8>,
    pub(crate) alt_taken: bool,
    pub(crate) tage_taken: bool,
    pub(crate) provider_weak: bool,
    pub(crate) loop_valid: bool,
    pub(crate) loop_taken: bool,
    pub(crate) sc_sum: i32,
    pub(crate) sc_indices: [u32; 4],
    pub(crate) checkpoint: HistoryCheckpoint,
}

impl Prediction {
    /// A trivially not-taken prediction (used by unconditional flows/tests).
    pub fn not_taken() -> Prediction {
        Prediction {
            taken: false,
            provider: Provider::Base,
            pc: 0,
            indices: [0; MAX_TABLES],
            tags: [0; MAX_TABLES],
            base_index: 0,
            provider_table: None,
            alt_taken: false,
            tage_taken: false,
            provider_weak: false,
            loop_valid: false,
            loop_taken: false,
            sc_sum: 0,
            sc_indices: [0; 4],
            checkpoint: HistoryCheckpoint::default(),
        }
    }
}

/// The folded histories one tagged table hashes with, each tracking
/// `History::fold(len, width)` of the table's history length.
#[derive(Clone, Copy, Debug)]
struct TableFolds {
    /// `table_bits` wide, for the index.
    index: Folded,
    /// `tag_bits` wide, for the tag.
    tag: Folded,
    /// `tag_bits - 1` wide, shifted into the tag.
    tag_narrow: Folded,
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter in `-4..=3`; taken when `>= 0`.
    ctr: i8,
    /// 2-bit useful counter.
    useful: u8,
}

/// TAGE-SC-L predictor. See the [module docs](self) and [`TageConfig`].
#[derive(Clone, Debug)]
pub struct TageScL {
    cfg: TageConfig,
    /// Bimodal base: 2-bit counters in `-2..=1`; taken when `>= 0`.
    base: Vec<i8>,
    tables: Vec<Vec<TaggedEntry>>,
    hist: History,
    /// One entry per tagged table, advanced with every push to `hist`.
    folds: Vec<TableFolds>,
    loop_pred: LoopPredictor,
    sc: StatisticalCorrector,
    /// 4-bit counter choosing alt prediction for weak newly-allocated entries.
    use_alt_on_na: i8,
    lfsr: u32,
    updates: u64,
}

impl Default for TageScL {
    fn default() -> TageScL {
        TageScL::new(TageConfig::default())
    }
}

impl TageScL {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no history lengths, more than
    /// `MAX_TABLES`, any history length over 128, or a `table_bits` or
    /// `tag_bits - 1` outside `1..=30`.
    pub fn new(cfg: TageConfig) -> TageScL {
        assert!(
            !cfg.hist_lengths.is_empty() && cfg.hist_lengths.len() <= MAX_TABLES,
            "between 1 and {MAX_TABLES} tagged tables required"
        );
        assert!(
            cfg.hist_lengths.iter().all(|&l| l <= 128),
            "history lengths must be <= 128"
        );
        let tables = cfg
            .hist_lengths
            .iter()
            .map(|_| vec![TaggedEntry::default(); 1 << cfg.table_bits])
            .collect();
        let folds = cfg
            .hist_lengths
            .iter()
            .map(|&len| TableFolds {
                index: Folded::new(len, cfg.table_bits),
                tag: Folded::new(len, cfg.tag_bits),
                tag_narrow: Folded::new(len, cfg.tag_bits - 1),
            })
            .collect();
        TageScL {
            base: vec![0; 1 << cfg.base_bits],
            tables,
            hist: History::default(),
            folds,
            loop_pred: LoopPredictor::new(6),
            sc: StatisticalCorrector::new(10),
            use_alt_on_na: 0,
            lfsr: 0xACE1_u32,
            updates: 0,
            cfg,
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    fn base_index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.cfg.base_bits) - 1)) as u32
    }

    fn table_index(&self, pc: u64, t: usize) -> u32 {
        let bits = self.cfg.table_bits;
        let h = self.folds[t].index.value();
        let p = self.hist.fold_path(bits.min(16));
        (((pc >> 2) ^ (pc >> (bits as u64 + 2)) ^ h ^ (p << 1)) & ((1 << bits) as u64 - 1)) as u32
    }

    fn table_tag(&self, pc: u64, t: usize) -> u16 {
        let bits = self.cfg.tag_bits;
        let h1 = self.folds[t].tag.value();
        let h2 = self.folds[t].tag_narrow.value() << 1;
        (((pc >> 2) ^ h1 ^ h2) & ((1 << bits) as u64 - 1)) as u16
    }

    /// Speculatively shifts an outcome into the history, advancing every
    /// folded register with it.
    fn push_history(&mut self, pc: u64, taken: bool) {
        for f in &mut self.folds {
            f.index.push(&self.hist, taken);
            f.tag.push(&self.hist, taken);
            f.tag_narrow.push(&self.hist, taken);
        }
        self.sc.push_history(&self.hist, taken);
        self.hist.push(pc, taken);
    }

    /// Recomputes every folded register after `hist` was restored.
    fn refold(&mut self) {
        for f in &mut self.folds {
            f.index.refold(&self.hist);
            f.tag.refold(&self.hist);
            f.tag_narrow.refold(&self.hist);
        }
        self.sc.refold(&self.hist);
    }

    fn rand(&mut self) -> u32 {
        // 32-bit xorshift: deterministic allocation tie-breaking.
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.lfsr = x;
        x
    }

    fn entry(&self, t: usize, idx: u32) -> &TaggedEntry {
        &self.tables[t][idx as usize]
    }
}

impl DirectionPredictor for TageScL {
    fn predict(&mut self, pc: u64) -> Prediction {
        let nt = self.cfg.hist_lengths.len();
        let mut indices = [0u32; MAX_TABLES];
        let mut tags = [0u16; MAX_TABLES];
        for t in 0..nt {
            indices[t] = self.table_index(pc, t);
            tags[t] = self.table_tag(pc, t);
        }
        let base_index = self.base_index(pc);
        let base_taken = self.base[base_index as usize] >= 0;

        // Provider = longest-history hit; alt = next hit (or base).
        let mut provider: Option<u8> = None;
        let mut alt: Option<u8> = None;
        for t in (0..nt).rev() {
            if self.entry(t, indices[t]).tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t as u8);
                } else {
                    alt = Some(t as u8);
                    break;
                }
            }
        }
        let alt_taken = match alt {
            Some(t) => self.entry(t as usize, indices[t as usize]).ctr >= 0,
            None => base_taken,
        };
        let (tage_taken, provider_weak) = match provider {
            Some(t) => {
                let e = self.entry(t as usize, indices[t as usize]);
                let weak = e.ctr == 0 || e.ctr == -1;
                let pred = if weak && self.use_alt_on_na >= 0 {
                    alt_taken
                } else {
                    e.ctr >= 0
                };
                (pred, weak)
            }
            None => (base_taken, false),
        };

        let mut taken = tage_taken;
        let mut who = match provider {
            Some(t) => Provider::Tagged(t),
            None => Provider::Base,
        };

        // Loop predictor override.
        let (loop_valid, loop_taken) = if self.cfg.use_loop {
            match self.loop_pred.predict(pc) {
                Some((p, confident)) => {
                    if confident && p != taken {
                        taken = p;
                        who = Provider::Loop;
                    }
                    (true, p)
                }
                None => (false, false),
            }
        } else {
            (false, false)
        };

        // Statistical corrector.
        let (sc_sum, sc_indices) = if self.cfg.use_sc {
            self.sc.sum(pc, tage_taken)
        } else {
            (0, [0; 4])
        };
        if self.cfg.use_sc && who != Provider::Loop && self.sc.confident(sc_sum) {
            let sc_taken = sc_sum >= 0;
            if sc_taken != taken {
                taken = sc_taken;
                who = Provider::Sc;
            }
        }

        let checkpoint = self.hist.checkpoint();
        self.push_history(pc, taken);

        Prediction {
            taken,
            provider: who,
            pc,
            indices,
            tags,
            base_index,
            provider_table: provider,
            alt_taken,
            tage_taken,
            provider_weak,
            loop_valid,
            loop_taken,
            sc_sum,
            sc_indices,
            checkpoint,
        }
    }

    fn update(&mut self, pc: u64, taken: bool, pred: &Prediction) {
        self.updates += 1;
        let nt = self.cfg.hist_lengths.len();

        if self.cfg.use_loop {
            self.loop_pred
                .update(pc, taken, pred.loop_valid && pred.loop_taken == taken);
        }
        if self.cfg.use_sc {
            self.sc.update(taken, pred.sc_sum, &pred.sc_indices);
        }

        // use_alt_on_na bookkeeping for weak providers.
        if let Some(pt) = pred.provider_table {
            if pred.provider_weak && pred.tage_taken != pred.alt_taken {
                let t = pt as usize;
                let e = self.entry(t, pred.indices[t]);
                if (e.ctr >= 0) == taken {
                    self.use_alt_on_na = (self.use_alt_on_na - 1).max(-8);
                } else {
                    self.use_alt_on_na = (self.use_alt_on_na + 1).min(7);
                }
            }
        }

        // Update provider counter (or base).
        match pred.provider_table {
            Some(t) => {
                let t = t as usize;
                let e = &mut self.tables[t][pred.indices[t] as usize];
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
                // Useful-bit update when provider and alt disagree.
                if pred.tage_taken != pred.alt_taken {
                    if pred.tage_taken == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Also train base if provider was weak (helps convergence).
                if pred.provider_weak {
                    let b = &mut self.base[pred.base_index as usize];
                    *b = if taken {
                        (*b + 1).min(1)
                    } else {
                        (*b - 1).max(-2)
                    };
                }
            }
            None => {
                let b = &mut self.base[pred.base_index as usize];
                *b = if taken {
                    (*b + 1).min(1)
                } else {
                    (*b - 1).max(-2)
                };
            }
        }

        // Allocate a new entry on a TAGE misprediction, in a table with a
        // longer history than the provider.
        if pred.tage_taken != taken {
            let start = pred.provider_table.map(|t| t as usize + 1).unwrap_or(0);
            if start < nt {
                // Find candidate tables with useful == 0.
                let mut allocated = false;
                let r = self.rand();
                // Slightly prefer shorter histories: skip the first candidate
                // with probability 1/2 once.
                let mut skip = (r & 1) == 1;
                for t in start..nt {
                    let idx = pred.indices[t] as usize;
                    if self.tables[t][idx].useful == 0 {
                        if skip && t + 1 < nt {
                            skip = false;
                            continue;
                        }
                        self.tables[t][idx] = TaggedEntry {
                            tag: pred.tags[t],
                            ctr: if taken { 0 } else { -1 },
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay useful counters on the candidate path.
                    for t in start..nt {
                        let idx = pred.indices[t] as usize;
                        let e = &mut self.tables[t][idx];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }

        // Periodic aging of useful counters.
        if self.updates.is_multiple_of(self.cfg.useful_reset_period) {
            for table in &mut self.tables {
                for e in table {
                    e.useful >>= 1;
                }
            }
        }
    }

    fn recover(&mut self, pred: &Prediction, actual_taken: bool) {
        self.hist.restore(&pred.checkpoint);
        self.hist.push(pred.pc, actual_taken);
        self.refold();
    }

    fn rewind(&mut self, pred: &Prediction) {
        self.hist.restore(&pred.checkpoint);
        self.refold();
    }

    fn peek(&self, pc: u64) -> bool {
        // Read-only TAGE lookup: longest-history tag hit wins, base otherwise.
        // The loop predictor and statistical corrector are skipped — runahead
        // only needs a cheap direction estimate.
        let nt = self.cfg.hist_lengths.len();
        for t in (0..nt).rev() {
            let idx = self.table_index(pc, t);
            if self.entry(t, idx).tag == self.table_tag(pc, t) {
                return self.entry(t, idx).ctr >= 0;
            }
        }
        self.base[self.base_index(pc) as usize] >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn train<P: DirectionPredictor>(p: &mut P, seq: &[(u64, bool)], reps: usize) -> (u64, u64) {
        let (mut correct, mut total) = (0, 0);
        for _ in 0..reps {
            for &(pc, taken) in seq {
                let pred = p.predict(pc);
                if pred.taken == taken {
                    correct += 1;
                } else {
                    p.recover(&pred, taken);
                }
                p.update(pc, taken, &pred);
                total += 1;
            }
        }
        (correct, total)
    }

    #[test]
    fn learns_strong_bias() {
        let mut p = TageScL::default();
        let (correct, total) = train(&mut p, &[(0x100, true)], 200);
        assert!(correct * 10 >= total * 9, "{correct}/{total}");
    }

    #[test]
    fn learns_alternating_pattern() {
        // T,N,T,N... requires 1 bit of history; base alone cannot learn it.
        let mut p = TageScL::default();
        let seq: Vec<_> = (0..2).map(|i| (0x200u64, i % 2 == 0)).collect();
        train(&mut p, &seq, 200); // warmup
        let (correct, total) = train(&mut p, &seq, 200);
        assert!(correct * 10 >= total * 9, "{correct}/{total}");
    }

    #[test]
    fn learns_short_loop_exit() {
        // Loop branch taken 7 times then not taken: needs history or loop pred.
        let mut seq = vec![(0x300u64, true); 7];
        seq.push((0x300, false));
        let mut p = TageScL::default();
        train(&mut p, &seq, 100); // warmup
        let (correct, total) = train(&mut p, &seq, 100);
        assert!(correct * 100 >= total * 95, "{correct}/{total}");
    }

    #[test]
    fn random_branch_is_hard() {
        // A never-repeating pseudo-random outcome stream: no predictor can do
        // much better than chance.
        let mut x = 0x1234_5678u64;
        let seq: Vec<_> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (0x400u64, (x >> 40) & 1 == 1)
            })
            .collect();
        let mut p = TageScL::default();
        let (correct, total) = train(&mut p, &seq, 1);
        assert!(correct * 100 <= total * 65, "{correct}/{total}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_much() {
        let mut p = TageScL::default();
        let seq: Vec<_> = (0..32).map(|i| (0x1000 + i * 64, i % 2 == 0)).collect();
        train(&mut p, &seq, 50);
        let (correct, total) = train(&mut p, &seq, 50);
        assert!(correct * 10 >= total * 9, "{correct}/{total}");
    }

    /// Whether every folded register equals `History::fold` of the current
    /// speculative history.
    fn folds_match(p: &TageScL) -> bool {
        let (h, cfg) = (&p.hist, &p.cfg);
        cfg.hist_lengths.iter().zip(&p.folds).all(|(&len, f)| {
            f.index.value() == h.fold(len, cfg.table_bits)
                && f.tag.value() == h.fold(len, cfg.tag_bits)
                && f.tag_narrow.value() == h.fold(len, cfg.tag_bits - 1)
        }) && p.sc.folds_match(h)
    }

    #[test]
    fn recover_rewinds_history() {
        let mut p = TageScL::default();
        for i in 0..200u64 {
            let pred = p.predict(0x40 + (i % 5) * 4);
            p.update(pred.pc, i % 3 == 0, &pred);
        }
        let before = p.hist;
        let pred = p.predict(0x500);
        assert_ne!(p.hist, before);
        p.recover(&pred, !pred.taken);
        // History = checkpoint + actual outcome, and the registers follow.
        let mut expect = before;
        expect.push(0x500, !pred.taken);
        assert_eq!(p.hist, expect);
        assert!(folds_match(&p));
        p.rewind(&pred);
        assert_eq!(p.hist, before);
        assert!(folds_match(&p));
    }

    proptest! {
        /// The folded registers equal `History::fold` after every predict,
        /// update, recover and rewind, for any interleaving the core can
        /// produce: repairs target an in-flight branch and squash the
        /// younger ones, updates retire the oldest.
        #[test]
        fn folded_histories_track_fold(
            ops in prop::collection::vec((0u64..64, any::<bool>(), 0u8..6), 1..400)
        ) {
            let mut p = TageScL::default();
            let mut inflight: Vec<Prediction> = Vec::new();
            for (pc, taken, action) in ops {
                let k = pc as usize % inflight.len().max(1);
                match action {
                    0 if k < inflight.len() => {
                        p.recover(&inflight[k].clone(), taken);
                        inflight.truncate(k + 1);
                    }
                    1 if k < inflight.len() => {
                        p.rewind(&inflight[k].clone());
                        inflight.truncate(k);
                    }
                    2 if !inflight.is_empty() => {
                        let pred = inflight.remove(0);
                        p.update(pred.pc, taken, &pred);
                    }
                    _ => inflight.push(p.predict(pc * 4)),
                }
                prop_assert!(folds_match(&p));
            }
        }
    }

    #[test]
    fn config_without_sc_and_loop() {
        let cfg = TageConfig {
            use_loop: false,
            use_sc: false,
            ..TageConfig::default()
        };
        let mut p = TageScL::new(cfg);
        let (correct, total) = train(&mut p, &[(0x600, true)], 100);
        assert!(correct * 10 >= total * 9);
        // Provider is never Loop or Sc.
        let pred = p.predict(0x600);
        assert!(matches!(
            pred.provider,
            Provider::Base | Provider::Tagged(_)
        ));
    }

    #[test]
    fn storage_bits_positive_and_monotone() {
        let small = TageConfig {
            table_bits: 8,
            ..TageConfig::default()
        };
        let big = TageConfig::default();
        assert!(small.storage_bits() > 0);
        assert!(big.storage_bits() > small.storage_bits());
    }

    #[test]
    #[should_panic(expected = "tagged tables required")]
    fn empty_config_panics() {
        TageScL::new(TageConfig {
            hist_lengths: vec![],
            ..TageConfig::default()
        });
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut p = TageScL::default();
            let seq: Vec<_> = (0..100)
                .map(|i| (0x700 + (i % 7) * 16, i % 3 == 0))
                .collect();
            train(&mut p, &seq, 20)
        };
        assert_eq!(run(), run());
    }
}
