//! Stream prefetcher with Feedback Directed Prefetching (FDP) throttling.

use crate::LINE_BYTES;

/// Configuration for [`StreamPrefetcher`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefetcherConfig {
    /// Number of stream trackers (Table 1: 64 streams).
    pub streams: usize,
    /// Initial/maximum prefetch degree (lines issued per trigger).
    pub max_degree: u32,
    /// Accesses between FDP feedback evaluations.
    pub fdp_interval: u64,
    /// Enable the prefetcher at all.
    pub enabled: bool,
}

impl Default for PrefetcherConfig {
    fn default() -> PrefetcherConfig {
        PrefetcherConfig {
            streams: 64,
            max_degree: 4,
            fdp_interval: 8192,
            enabled: true,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Stream {
    page: u64,
    last_line: u64,
    /// +1 ascending, -1 descending, 0 untrained.
    dir: i64,
    confidence: u8,
    valid: bool,
    lru: u64,
}

/// The lines one demand miss asks to prefetch: `count` consecutive lines
/// in one direction, starting next to the missing line. It iterates their
/// byte addresses in issue order, nearest first, and is `Copy`, so training
/// the prefetcher allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchRun {
    /// Line number (byte address / [`LINE_BYTES`]) of the next line.
    line: i64,
    /// +1 ascending, -1 descending.
    dir: i64,
    /// Lines left.
    count: u32,
}

impl PrefetchRun {
    /// No lines to prefetch.
    const EMPTY: PrefetchRun = PrefetchRun {
        line: 0,
        dir: 0,
        count: 0,
    };

    /// Whether the run holds no lines.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Iterator for PrefetchRun {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        self.count -= 1;
        let addr = (self.line as u64) * LINE_BYTES;
        self.line += self.dir;
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.count as usize, Some(self.count as usize))
    }
}

impl ExactSizeIterator for PrefetchRun {}

/// A 4KB-page-based stream prefetcher.
///
/// Trained on demand accesses that miss in the L1D; after two same-direction
/// accesses within a page it becomes confident and emits `degree` prefetch
/// line addresses ahead of the demand stream. Feedback Directed Prefetching
/// (Srinath et al., the throttling scheme the paper cites in Table 1)
/// periodically compares useful prefetches against issued prefetches and
/// raises or lowers the degree.
///
/// ```
/// use cdf_mem::{StreamPrefetcher, PrefetcherConfig};
/// let mut p = StreamPrefetcher::new(PrefetcherConfig::default());
/// assert!(p.on_demand_miss(0x1000).is_empty()); // first touch: trains only
/// let mut pf = p.on_demand_miss(0x1040);        // second: direction known
/// assert!(!pf.is_empty());
/// assert_eq!(pf.next(), Some(0x1080));
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    cfg: PrefetcherConfig,
    table: Vec<Stream>,
    degree: u32,
    lru_clock: u64,
    accesses: u64,
    issued_window: u64,
    useful_window: u64,
    issued_total: u64,
    useful_total: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher.
    pub fn new(cfg: PrefetcherConfig) -> StreamPrefetcher {
        StreamPrefetcher {
            table: vec![Stream::default(); cfg.streams],
            degree: cfg.max_degree.max(1),
            lru_clock: 0,
            accesses: 0,
            issued_window: 0,
            useful_window: 0,
            issued_total: 0,
            useful_total: 0,
            cfg,
        }
    }

    /// Current prefetch degree (after FDP throttling).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued_total
    }

    /// Total prefetched lines that saw a demand hit before eviction.
    pub fn useful(&self) -> u64 {
        self.useful_total
    }

    /// Reports a demand access to a line the prefetcher had brought in
    /// (first use). Feeds FDP accuracy.
    pub fn on_prefetch_hit(&mut self) {
        self.useful_window += 1;
        self.useful_total += 1;
    }

    /// Trains on a demand L1D miss at `addr`; returns the line addresses to
    /// prefetch (possibly none).
    pub fn on_demand_miss(&mut self, addr: u64) -> PrefetchRun {
        if !self.cfg.enabled {
            return PrefetchRun::EMPTY;
        }
        self.accesses += 1;
        self.lru_clock += 1;
        if self.accesses.is_multiple_of(self.cfg.fdp_interval) {
            self.fdp_adjust();
        }

        let page = addr >> 12;
        let line = addr / LINE_BYTES;
        // Find the tracker for this page, or allocate the LRU one.
        let idx = match self.table.iter().position(|s| s.valid && s.page == page) {
            Some(i) => i,
            None => {
                let i = self
                    .table
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| if s.valid { s.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("streams > 0");
                self.table[i] = Stream {
                    page,
                    last_line: line,
                    dir: 0,
                    confidence: 0,
                    valid: true,
                    lru: self.lru_clock,
                };
                return PrefetchRun::EMPTY;
            }
        };

        let s = &mut self.table[idx];
        s.lru = self.lru_clock;
        let dir: i64 = match line.cmp(&s.last_line) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        };
        if dir == 0 {
            return PrefetchRun::EMPTY;
        }
        if s.dir == dir {
            s.confidence = (s.confidence + 1).min(3);
        } else {
            s.dir = dir;
            s.confidence = 1;
        }
        s.last_line = line;
        if s.confidence == 0 {
            return PrefetchRun::EMPTY;
        }
        // Prefetches may cross page boundaries, so no page filter here.
        let run = PrefetchRun {
            line: line as i64 + s.dir,
            dir: s.dir,
            count: self.degree,
        };
        self.issued_window += u64::from(self.degree);
        self.issued_total += u64::from(self.degree);
        run
    }

    /// FDP: raise degree when accurate, lower when polluting.
    fn fdp_adjust(&mut self) {
        if self.issued_window >= 32 {
            let acc = self.useful_window as f64 / self.issued_window as f64;
            if acc > 0.5 {
                self.degree = (self.degree + 1).min(self.cfg.max_degree);
            } else if acc < 0.2 {
                self.degree = (self.degree.saturating_sub(1)).max(1);
            }
        }
        self.issued_window = 0;
        self.useful_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetcherConfig::default())
    }

    #[test]
    fn ascending_stream_detected() {
        let mut p = pf();
        assert!(p.on_demand_miss(0x1000).is_empty());
        let out: Vec<u64> = p.on_demand_miss(0x1040).collect();
        assert_eq!(out.len(), p.degree() as usize);
        assert_eq!(out[0], 0x1080);
        assert!(out.windows(2).all(|w| w[1] == w[0] + LINE_BYTES));
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = pf();
        p.on_demand_miss(0x2200);
        let out: Vec<u64> = p.on_demand_miss(0x21C0).collect();
        assert_eq!(out[0], 0x2180);
        assert!(out.windows(2).all(|w| w[1] == w[0] - LINE_BYTES));
    }

    #[test]
    fn direction_flip_resets_confidence_but_recovers() {
        let mut p = pf();
        p.on_demand_miss(0x1000);
        p.on_demand_miss(0x1040);
        // Flip direction: retrains within the page.
        let out: Vec<u64> = p.on_demand_miss(0x1000).collect();
        assert!(!out.is_empty());
        assert_eq!(out[0], 0x1000 - LINE_BYTES);
    }

    #[test]
    fn same_line_repeat_is_ignored() {
        let mut p = pf();
        p.on_demand_miss(0x1000);
        assert!(p.on_demand_miss(0x1010).is_empty(), "same 64B line");
    }

    #[test]
    fn stream_table_replacement() {
        let mut p = StreamPrefetcher::new(PrefetcherConfig {
            streams: 2,
            ..PrefetcherConfig::default()
        });
        p.on_demand_miss(0x1000); // page 1 tracker
        p.on_demand_miss(0x5000); // page 5 tracker
        p.on_demand_miss(0x9000); // evicts LRU (page 1)
                                  // Page 1 must retrain from scratch.
        assert!(p.on_demand_miss(0x1040).is_empty());
    }

    #[test]
    fn fdp_throttles_useless_prefetching() {
        let mut p = StreamPrefetcher::new(PrefetcherConfig {
            fdp_interval: 64,
            ..PrefetcherConfig::default()
        });
        let initial = p.degree();
        // Generate lots of prefetches, none ever useful.
        for i in 0..1024u64 {
            p.on_demand_miss(0x10000 + i * LINE_BYTES);
        }
        assert!(p.degree() < initial, "degree should throttle down");
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn fdp_rewards_useful_prefetching() {
        let mut p = StreamPrefetcher::new(PrefetcherConfig {
            fdp_interval: 64,
            ..PrefetcherConfig::default()
        });
        // Drive degree down first.
        for i in 0..512u64 {
            p.on_demand_miss(0x10000 + i * LINE_BYTES);
        }
        assert_eq!(p.degree(), 1);
        // Now every prefetch is useful.
        for i in 512..2048u64 {
            for _ in 0..2 {
                p.on_prefetch_hit();
            }
            p.on_demand_miss(0x10000 + i * LINE_BYTES);
        }
        assert!(p.degree() > 1, "degree should ramp back up");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(PrefetcherConfig {
            enabled: false,
            ..PrefetcherConfig::default()
        });
        p.on_demand_miss(0x1000);
        assert!(p.on_demand_miss(0x1040).is_empty());
        assert_eq!(p.issued(), 0);
    }
}
