//! Property tests for the memory system: the set-associative cache against a
//! reference LRU model, MSHR and MLP bookkeeping against eager models, and
//! DRAM timing sanity.

use cdf_mem::{
    Cache, CacheConfig, Dram, DramConfig, EventMshr, EventOutstanding, MshrOutcome, LINE_BYTES,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A straightforward reference model of a set-associative LRU cache.
struct ModelCache {
    sets: usize,
    ways: usize,
    /// Per set: line addresses, MRU first.
    lines: Vec<VecDeque<u64>>,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> ModelCache {
        ModelCache {
            sets,
            ways,
            lines: vec![VecDeque::new(); sets],
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / LINE_BYTES) as usize) % self.sets
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr & !(LINE_BYTES - 1);
        self.lines[self.set_of(addr)].contains(&line)
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = addr & !(LINE_BYTES - 1);
        let set = self.set_of(addr);
        let q = &mut self.lines[set];
        if let Some(pos) = q.iter().position(|&l| l == line) {
            q.remove(pos);
            q.push_front(line);
            return None;
        }
        let victim = if q.len() == self.ways {
            q.pop_back()
        } else {
            None
        };
        q.push_front(line);
        victim
    }
}

proptest! {
    /// The cache's hit/miss/eviction behaviour matches the reference LRU
    /// model under arbitrary access/fill interleavings.
    #[test]
    fn cache_matches_lru_model(ops in prop::collection::vec((0u64..4096, any::<bool>()), 0..300)) {
        let mut cache = Cache::new(CacheConfig { capacity_bytes: 1024, ways: 2 }); // 8 sets
        let mut model = ModelCache::new(8, 2);
        for (addr_raw, is_fill) in ops {
            let addr = addr_raw * 8; // word-aligned addresses over 8 sets
            if is_fill {
                let ev = cache.fill(addr, false);
                let model_ev = model.fill(addr);
                prop_assert_eq!(ev.map(|e| e.line_addr), model_ev);
            } else {
                // probe is side-effect free in both implementations.
                prop_assert_eq!(cache.probe(addr), model.probe(addr));
            }
        }
    }

    /// MSHR occupancy never exceeds capacity; merges return the original
    /// completion; expiry frees capacity.
    #[test]
    fn mshr_capacity_invariants(ops in prop::collection::vec((0u64..16, 1u64..50), 1..100)) {
        let mut mshr = EventMshr::new(4);
        let mut now = 0u64;
        for (line, dur) in ops {
            now += 3;
            let line_addr = line * 64;
            let outcome = mshr.try_alloc(line_addr, now, now + dur);
            prop_assert!(mshr.len(now) <= 4, "capacity exceeded");
            match outcome {
                MshrOutcome::Merged(done) => {
                    prop_assert_eq!(mshr.outstanding(line_addr, now), Some(done));
                    prop_assert!(done > now);
                }
                MshrOutcome::Allocated => {
                    prop_assert_eq!(mshr.outstanding(line_addr, now), Some(now + dur));
                }
                MshrOutcome::Full => {
                    prop_assert_eq!(mshr.len(now), 4);
                }
            }
        }
    }

    /// MSHR retry semantics: the event-driven file and an eagerly-expired
    /// model agree on every outcome, on occupancy, and on
    /// `earliest_release` under arbitrary monotonic alloc/expire
    /// interleavings — and when an allocation reports Full, retrying at the
    /// reported release cycle succeeds.
    #[test]
    fn mshr_event_and_eager_agree(ops in prop::collection::vec((0u64..12, 0u64..8, 1u64..60), 1..150)) {
        let mut event = EventMshr::new(3);
        // Eager model: entries removed the moment their completion passes.
        let mut eager: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        for (line, gap, dur) in ops {
            now += gap;
            eager.retain(|&(_, done)| done > now);
            let line_addr = line * 64;
            let expect = if let Some(&(_, done)) = eager.iter().find(|&&(l, _)| l == line_addr) {
                MshrOutcome::Merged(done)
            } else if eager.len() >= 3 {
                MshrOutcome::Full
            } else {
                eager.push((line_addr, now + dur));
                MshrOutcome::Allocated
            };
            prop_assert_eq!(event.try_alloc(line_addr, now, now + dur), expect, "at cycle {}", now);
            let eager_min = eager.iter().map(|&(_, done)| done).min();
            prop_assert_eq!(event.len(now), eager.len());
            prop_assert_eq!(event.earliest_release(now), eager_min);
            if expect == MshrOutcome::Full {
                // The retry hint is honest: a slot is free at that cycle.
                let retry = eager_min.expect("full file has entries");
                prop_assert!(retry > now);
                let mut e = event.clone();
                prop_assert_eq!(e.try_alloc(line_addr, retry, retry + dur), MshrOutcome::Allocated);
            }
        }
    }

    /// The MLP tracker's heap counts what a rescanned `Vec` of completion
    /// cycles counts, under arbitrary monotonic note/sample interleavings.
    #[test]
    fn outstanding_heap_matches_a_scan(ops in prop::collection::vec((0u64..6, 1u64..80, any::<bool>()), 1..250)) {
        let mut heap = EventOutstanding::default();
        let mut scan: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for (gap, dur, note) in ops {
            now += gap;
            if note {
                heap.note(now + dur);
                scan.push(now + dur);
            }
            let expect = scan.iter().filter(|&&done| done > now).count();
            prop_assert_eq!(heap.outstanding(now), expect, "at cycle {}", now);
        }
    }

    /// DRAM completions are causal (after issue + minimum latency), and
    /// identical request sequences give identical timings.
    #[test]
    fn dram_causal_and_deterministic(reqs in prop::collection::vec((0u64..0x10_0000, 0u64..64), 1..100)) {
        let cfg = DramConfig::default();
        let run = || {
            let mut d = Dram::new(cfg);
            let mut now = 0u64;
            let mut out = Vec::new();
            for &(addr, gap) in &reqs {
                now += gap;
                out.push(d.read(addr * 64, now));
            }
            out
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "deterministic");
        let mut now = 0u64;
        for (&(_, gap), &done) in reqs.iter().zip(&a) {
            now += gap;
            prop_assert!(done >= now + cfg.row_hit_latency(),
                "completion {done} before issue {now} + minimum latency");
        }
    }

    /// Per-bank service times never overlap: consecutive requests to the
    /// same bank are serialized by at least tCL.
    #[test]
    fn dram_same_bank_serializes(count in 2usize..20) {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let bank_stride = (cfg.channels * cfg.bank_groups * cfg.banks_per_group) as u64 * 64;
        let mut done: Vec<u64> = Vec::new();
        for i in 0..count {
            done.push(d.read(i as u64 * bank_stride, 0));
        }
        let mut sorted = done.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            prop_assert!(w[1] - w[0] >= cfg.t_cl, "bank busy time violated: {w:?}");
        }
    }
}
