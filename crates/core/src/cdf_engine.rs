//! The CDF trace-construction engine: CCTs → Fill Buffer → backwards walk →
//! Mask Cache → Critical Uop Cache, with the walk latency and periodic mask
//! reset modeled (§3.2).

use crate::cct::{CctConfig, CriticalCountTable};
use crate::config::CdfConfig;
use crate::diag::CdfDiagnostics;
use crate::fill_buffer::{FbEntry, FillBuffer};
use crate::mask_cache::MaskCache;
use crate::types::Seq;
use crate::uop_cache::{CriticalUopCache, Trace};
use cdf_bpred::Prediction;
use cdf_isa::{ArchReg, Pc};
use std::collections::VecDeque;

/// A Delayed Branch Queue entry: the direction/target produced when the
/// critical fetch logic predicted a block-ending branch, consumed in order
/// by the regular fetch stream (§3.3).
#[derive(Clone, Debug)]
pub(crate) struct DbqEntry {
    pub seq: Seq,
    pub taken: bool,
    /// Where fetch continues (target if taken, fall-through otherwise).
    pub next_pc: Pc,
    /// Predictor state (attached to the executing copy if the branch is not
    /// part of the critical stream).
    pub pred: Prediction,
}

/// A Critical Map Queue entry: the destination mapping produced by the
/// critical rename stage, replayed in program order by the regular rename
/// stage (§3.4).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CmqEntry {
    pub seq: Seq,
    /// Destination architectural register (uops without one — stores,
    /// branches — still occupy a CMQ slot so the regular stream discards
    /// them).
    pub areg: Option<ArchReg>,
    pub pdst: Option<crate::types::PhysReg>,
    /// Chain-provenance id of the CUC trace this uop was fetched from
    /// (0 when no provenance is attached).
    pub chain: u64,
}

/// Counters the engine exposes for energy accounting.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EngineActivity {
    pub cct_ops: u64,
    pub fill_pushes: u64,
    pub walk_steps: u64,
    pub mask_ops: u64,
    pub uop_cache_ops: u64,
}

/// The bundled CDF identification/storage machinery. The pipeline stages in
/// `Core` drive it; it never touches the pipeline itself.
#[derive(Clone, Debug)]
pub(crate) struct CdfEngine {
    pub cfg: CdfConfig,
    pub cct_loads: CriticalCountTable,
    pub cct_branches: CriticalCountTable,
    pub fill: FillBuffer,
    pub masks: MaskCache,
    pub traces: CriticalUopCache,
    pub dbq: VecDeque<DbqEntry>,
    pub cmq: VecDeque<CmqEntry>,
    pub activity: EngineActivity,
    /// The trace-construction engine is busy until this cycle.
    walk_busy_until: u64,
    /// Retired-instruction count at the last walk.
    last_walk_retired: u64,
    /// Retired-instruction count at the last mask reset.
    last_mask_reset: u64,
    /// Walk output awaiting installation (completes when the walk latency
    /// elapses).
    pending_install: Option<PendingInstall>,
    /// Next chain-provenance id to hand out (1-based; 0 = "no chain").
    next_chain: u64,
    pub walks: u64,
    pub walks_dropped: u64,
    pub traces_installed: u64,
}

/// A finished walk waiting out the trace-construction latency:
/// (install-at cycle, trace rows as `(pc, block length, mask, chain id)`).
type PendingInstall = (u64, Vec<(Pc, u32, u64, u64)>);

impl CdfEngine {
    pub fn new(cfg: CdfConfig) -> CdfEngine {
        CdfEngine {
            cct_loads: CriticalCountTable::new(CctConfig::loads()),
            cct_branches: CriticalCountTable::new(CctConfig::branches()),
            fill: FillBuffer::new(cfg.fill_buffer),
            masks: MaskCache::new(cfg.mask_sets, cfg.mask_ways),
            traces: CriticalUopCache::new(cfg.uop_cache_sets, cfg.uop_cache_lines_per_set),
            dbq: VecDeque::new(),
            cmq: VecDeque::new(),
            activity: EngineActivity::default(),
            walk_busy_until: 0,
            last_walk_retired: 0,
            last_mask_reset: 0,
            pending_install: None,
            next_chain: 1,
            walks: 0,
            walks_dropped: 0,
            traces_installed: 0,
            cfg,
        }
    }

    /// Records a retired uop. `retired` is the total retired-instruction
    /// count; `now` the current cycle. Triggers the periodic mask reset and,
    /// when the Fill Buffer is full and the walk period has elapsed, the
    /// backwards walk. `diag`, when present, observes walk outcomes; it
    /// never influences them.
    pub fn on_retire(
        &mut self,
        entry: FbEntry,
        retired: u64,
        now: u64,
        diag: Option<&mut CdfDiagnostics>,
    ) {
        if retired - self.last_mask_reset >= self.cfg.mask_reset_period {
            self.masks.reset();
            self.last_mask_reset = retired;
        }
        self.fill.push(entry);
        self.activity.fill_pushes += 1;
        if self.fill.is_full()
            && retired - self.last_walk_retired >= self.cfg.walk_period
            && now >= self.walk_busy_until
            && self.pending_install.is_none()
        {
            self.do_walk(retired, now, diag);
        }
    }

    fn do_walk(&mut self, retired: u64, now: u64, diag: Option<&mut CdfDiagnostics>) {
        let result = if self.cfg.use_mask_cache {
            self.fill.walk(&self.masks)
        } else {
            // Ablation: no cross-path mask accumulation.
            self.fill.walk(&MaskCache::new(1, 1))
        };
        self.activity.walk_steps += result.total as u64;
        self.walks += 1;
        self.last_walk_retired = retired;
        self.walk_busy_until = now + self.cfg.walk_latency;
        let frac = result.marked_fraction();
        let density_ok = !self.cfg.apply_density_guards
            || (frac >= self.cfg.min_density && frac <= self.cfg.max_density);
        // A window with no live CCT seeds means the loads/branches that
        // justified these chains stopped qualifying (the misses went away):
        // tear the blocks down so the core "defaults to regular execution"
        // (§4.3) instead of riding stale masks until the periodic reset.
        let seeds_ok = result.seeds > 0 || !self.cfg.apply_density_guards;
        if result.marked > 0 && density_ok && seeds_ok {
            // Every surviving walk row becomes a chain with a stable
            // provenance id, assigned here — at walk time — regardless of
            // whether diagnostics observe the run, so enabling them can
            // never change engine state.
            let rows = result
                .block_masks
                .into_iter()
                .map(|(block, len, mask)| {
                    let id = self.next_chain;
                    self.next_chain += 1;
                    (block, len, mask, id)
                })
                .collect();
            self.pending_install = Some((self.walk_busy_until, rows));
            if let Some(d) = diag {
                d.note_walk();
            }
        } else {
            // Density guard: remove the involved blocks so the core stops
            // entering CDF mode on them (§3.2).
            self.walks_dropped += 1;
            for (block, _, _) in &result.block_masks {
                self.masks.remove(*block);
                self.traces.remove(*block);
                self.activity.mask_ops += 1;
                self.activity.uop_cache_ops += 1;
            }
            if let Some(d) = diag {
                d.note_walk();
                d.note_walk_dropped();
            }
        }
        // Permissive-counter feedback: too few marked → widen coverage.
        let permissive = frac < self.cfg.permissive_below;
        self.cct_loads.set_permissive(permissive);
        self.cct_branches.set_permissive(permissive);
        self.fill.clear();
    }

    /// Advances the engine one cycle: completes a pending install when the
    /// walk latency has elapsed. `diag`, when present, observes installs.
    pub fn tick(&mut self, now: u64, mut diag: Option<&mut CdfDiagnostics>) {
        if let Some((ready, _)) = &self.pending_install {
            if *ready <= now {
                let (_, blocks) = self.pending_install.take().expect("just checked");
                for (block, len, mask, chain) in blocks {
                    if len > 64 {
                        continue; // offsets ≥ 64 not representable in a mask
                    }
                    let merged = if self.cfg.use_mask_cache {
                        self.activity.mask_ops += 1;
                        self.masks.merge(block, mask)
                    } else {
                        mask
                    };
                    let trace = Trace::from_mask(block, len, merged).with_chain(chain);
                    let crit = trace.crit_count();
                    if self.traces.insert(trace) {
                        self.traces_installed += 1;
                        self.activity.uop_cache_ops += 1;
                        if let Some(d) = diag.as_deref_mut() {
                            d.note_install(chain, block, len, crit, now);
                        }
                    } else if let Some(d) = diag.as_deref_mut() {
                        d.note_install_rejected();
                    }
                }
            }
        }
    }

    /// Whether any trace exists (quick check before probing on every fetch).
    pub fn has_traces(&self) -> bool {
        !self.traces.is_empty()
    }

    /// Hands out the next chain-provenance id (for traces installed outside
    /// the walk pipeline, e.g. compiler-seeded chains). Always advances the
    /// counter so id assignment never depends on diagnostics being enabled.
    pub(crate) fn alloc_chain(&mut self) -> u64 {
        let id = self.next_chain;
        self.next_chain += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdf_isa::RegSet;

    fn seed_entry(i: u32, crit: bool) -> FbEntry {
        FbEntry {
            pc: Pc::new(i),
            block_start: Pc::new(0),
            block_len: 8,
            offset: (i % 8) as u8,
            srcs: RegSet::EMPTY,
            dsts: RegSet::EMPTY,
            mem_read: None,
            mem_write: None,
            crit_seed: crit,
        }
    }

    fn engine(fill: usize) -> CdfEngine {
        CdfEngine::new(CdfConfig {
            fill_buffer: fill,
            walk_period: 0,
            walk_latency: 10,
            ..CdfConfig::default()
        })
    }

    #[test]
    fn walk_triggers_when_full_and_installs_after_latency() {
        let mut e = engine(8);
        for i in 0..8 {
            e.on_retire(seed_entry(i, i == 3), (i + 1) as u64, 100, None);
        }
        assert_eq!(e.walks, 1);
        assert!(e.fill.is_empty(), "buffer cleared after walk");
        assert!(!e.has_traces(), "install delayed by walk latency");
        e.tick(105, None);
        assert!(!e.has_traces());
        e.tick(110, None);
        assert!(e.has_traces());
        assert_eq!(e.traces_installed, 1);
        assert!(e.traces.probe(Pc::new(0)));
    }

    #[test]
    fn density_guard_drops_sparse_walks() {
        let mut e = engine(1024);
        // 1 seed out of 1024 (0.1%) is below the 0.2% guard.
        for i in 0..1024 {
            e.on_retire(seed_entry(i % 8, i == 0), (i + 1) as u64, 50, None);
        }
        assert_eq!(e.walks, 1);
        assert_eq!(e.walks_dropped, 1);
        e.tick(10_000, None);
        assert!(!e.has_traces());
    }

    #[test]
    fn density_guard_drops_dense_walks_and_removes_blocks() {
        let mut e = engine(8);
        // First: a healthy walk installs a trace.
        for i in 0..8 {
            e.on_retire(seed_entry(i, i == 3), (i + 1) as u64, 0, None);
        }
        e.tick(50, None);
        assert!(e.has_traces());
        // Then: everything marked (>50%) → involved blocks removed.
        for i in 0..8 {
            e.on_retire(seed_entry(i, true), (100 + i) as u64, 100, None);
        }
        assert_eq!(e.walks_dropped, 1);
        assert!(!e.has_traces(), "block removed by the density guard");
    }

    #[test]
    fn walk_period_gates_walks() {
        let mut e = CdfEngine::new(CdfConfig {
            fill_buffer: 4,
            walk_period: 1000,
            walk_latency: 1,
            ..CdfConfig::default()
        });
        for i in 0..4 {
            e.on_retire(seed_entry(i, true), (i + 1) as u64, 0, None);
        }
        assert_eq!(e.walks, 0, "period (1000 retires) has not elapsed yet");
        // The buffer keeps the latest window while waiting for the period.
        for i in 0..4 {
            e.on_retire(seed_entry(i, true), 10 + i as u64, 5, None);
        }
        assert_eq!(e.walks, 0);
        assert_eq!(e.fill.len(), 4, "ring keeps only the latest cap entries");
        // Once 1000 retires have passed, the next retire triggers the walk.
        e.on_retire(seed_entry(0, true), 1100, 2000, None);
        assert_eq!(e.walks, 1);
        // And the period gates the next one again.
        for i in 0..8 {
            e.on_retire(seed_entry(i % 4, true), 1101 + i as u64, 2001, None);
        }
        assert_eq!(e.walks, 1);
    }

    #[test]
    fn mask_reset_period() {
        let mut e = CdfEngine::new(CdfConfig {
            fill_buffer: 4,
            walk_period: 0,
            walk_latency: 0,
            mask_reset_period: 1000,
            ..CdfConfig::default()
        });
        for i in 0..4 {
            e.on_retire(seed_entry(i, i == 0), i as u64, 0, None);
        }
        e.tick(1, None);
        assert!(e.masks.get(Pc::new(0)).is_some());
        // Crossing the reset period clears the mask cache.
        e.on_retire(seed_entry(0, false), 2000, 10, None);
        assert!(e.masks.get(Pc::new(0)).is_none());
    }

    #[test]
    fn permissive_feedback_on_sparse_marking() {
        let mut e = engine(128);
        for i in 0..128 {
            e.on_retire(seed_entry(i % 8, i == 0), (i + 1) as u64, 0, None);
        }
        assert!(
            e.cct_loads.is_permissive(),
            "sparse marking flips to permissive"
        );
    }
}
