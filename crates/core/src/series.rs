//! The one interval time series both observers sample through: telemetry's
//! [`IntervalSample`](crate::IntervalSample)s and diagnostics'
//! [`DiagIntervalSample`](crate::DiagIntervalSample)s.
//!
//! An observer hands its series a *reading* on every interval boundary and
//! at the end of every run window: its cumulative counters at cycle `now`,
//! which is the sample of the interval `0..now`. The series keeps the
//! difference from the previous reading in a ring; a sample pushed out of
//! the ring folds into a running total, so [`IntervalSeries::totals`] is
//! the sum of every sample ever taken and equals the last reading at any
//! ring capacity. A reading at the cycle of the previous one spans no
//! cycles and is dropped (DESIGN.md § Observation plane).

use std::collections::VecDeque;

/// Cycles between two samples of the diagnostics series, and telemetry's
/// default.
pub const INTERVAL: u64 = 1024;

/// Samples a ring retains before it folds the oldest into its totals: the
/// diagnostics ring, and telemetry's default.
pub const RING_CAPACITY: usize = 512;

/// A sample of an [`IntervalSeries`]: a span of cycles and `u64` counters,
/// declared once with `interval_sample!`.
pub trait Sample: Copy + Default {
    /// The first and the last cycle of the span.
    fn span_mut(&mut self) -> (&mut u64, &mut u64);

    /// Applies `f` to every counter of `self`, `cycles` included, with the
    /// same counter of `other`.
    fn zip_counters(&mut self, other: &Self, f: impl Fn(&mut u64, u64));
}

/// Declares an interval sample type: `start_cycle`, `end_cycle` and
/// `cycles`, then each listed counter, with `read(now, source)` building
/// the reading at `now` from the counters' cumulative values.
macro_rules! interval_sample {
    (
        $(#[$meta:meta])*
        pub struct $name:ident from |$now:ident, $src:ident: $ty:ty| {
            $($(#[$doc:meta])* $field:ident: $read:expr),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct $name {
            /// Cycle the interval starts at (the previous sample's end).
            pub start_cycle: u64,
            /// Cycle the interval ends at.
            pub end_cycle: u64,
            /// Cycles in the interval (`end_cycle - start_cycle`).
            pub cycles: u64,
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// The reading at cycle `now`: the sample of `0..now`.
            pub(crate) fn read($now: u64, $src: $ty) -> $name {
                $name {
                    start_cycle: 0,
                    end_cycle: $now,
                    cycles: $now,
                    $($field: $read,)*
                }
            }
        }

        impl $crate::series::Sample for $name {
            fn span_mut(&mut self) -> (&mut u64, &mut u64) {
                (&mut self.start_cycle, &mut self.end_cycle)
            }

            fn zip_counters(&mut self, other: &Self, f: impl Fn(&mut u64, u64)) {
                f(&mut self.cycles, other.cycles);
                $(f(&mut self.$field, other.$field);)*
            }
        }
    };
}
pub(crate) use interval_sample;

/// A ring of interval samples whose evicted samples fold into running
/// totals, so the series always accounts for the whole run.
#[derive(Clone, PartialEq, Debug)]
pub struct IntervalSeries<S> {
    ring: VecDeque<S>,
    capacity: usize,
    evicted: S,
    evicted_count: u64,
    last: S,
}

impl<S: Sample> Default for IntervalSeries<S> {
    /// A series of [`RING_CAPACITY`] samples.
    fn default() -> IntervalSeries<S> {
        IntervalSeries::new(RING_CAPACITY)
    }
}

impl<S: Sample> IntervalSeries<S> {
    /// An empty series retaining up to `capacity` samples (at least one).
    pub fn new(capacity: usize) -> IntervalSeries<S> {
        IntervalSeries {
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            evicted: S::default(),
            evicted_count: 0,
            last: S::default(),
        }
    }

    /// Closes the interval since the previous reading at `reading`, the
    /// cumulative counters at its end cycle. A reading at the previous
    /// reading's cycle is dropped.
    pub fn sample(&mut self, reading: S) {
        let mut delta = reading;
        delta.zip_counters(&self.last, |d, prev| *d -= prev);
        let (start, end) = delta.span_mut();
        *start = end_cycle(self.last);
        if *start == *end {
            return;
        }
        self.last = reading;
        if self.ring.len() == self.capacity {
            let old = self.ring.pop_front().expect("ring non-empty at capacity");
            fold(&mut self.evicted, &old);
            self.evicted_count += 1;
        }
        self.ring.push_back(delta);
    }

    /// The retained samples, oldest first; each starts where the previous
    /// one ended.
    pub fn samples(&self) -> impl Iterator<Item = &S> {
        self.ring.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted into the running totals.
    pub fn evicted_count(&self) -> u64 {
        self.evicted_count
    }

    /// The sum of **all** samples, evicted and retained: the last reading.
    pub fn totals(&self) -> S {
        let mut t = self.evicted;
        for s in &self.ring {
            fold(&mut t, s);
        }
        t
    }
}

/// The last cycle of `s`'s span.
fn end_cycle<S: Sample>(mut s: S) -> u64 {
    *s.span_mut().1
}

/// Adds sample `s` to the running total `t`, which then ends where `s`
/// ends. Every total starts at cycle 0, where the first sample starts.
fn fold<S: Sample>(t: &mut S, s: &S) {
    t.zip_counters(s, |t, x| *t += x);
    *t.span_mut().1 = end_cycle(*s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    interval_sample! {
        /// Two counters read from a pair.
        pub struct Pair from |now, c: (u64, u64)| {
            /// The first counter.
            a: c.0,
            /// The second counter.
            b: c.1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any ring capacity and any non-decreasing run of readings,
        /// repeats included, the series is a decomposition of the last
        /// reading: its totals equal it, the ring holds at most `capacity`
        /// samples, every step that spans cycles is one sample (retained or
        /// evicted), and the retained samples tile their cycles.
        #[test]
        fn series_decomposes_the_last_reading(
            capacity in 1usize..33,
            steps in prop::collection::vec((0u64..3, 0u64..40, 0u64..40), 0..120),
        ) {
            let mut series = IntervalSeries::new(capacity);
            let (mut now, mut counters, mut spanning) = (0, (0, 0), 0);
            for (width, da, db) in steps {
                if width > 0 {
                    now += width;
                    counters = (counters.0 + da, counters.1 + db);
                    spanning += 1;
                }
                series.sample(Pair::read(now, counters));
            }
            prop_assert_eq!(series.totals(), Pair::read(now, counters));
            prop_assert!(series.len() <= capacity);
            prop_assert_eq!(series.evicted_count() + series.len() as u64, spanning);
            let mut prev_end = None;
            for s in series.samples() {
                prop_assert!(s.start_cycle < s.end_cycle);
                prop_assert_eq!(s.cycles, s.end_cycle - s.start_cycle);
                if let Some(end) = prev_end {
                    prop_assert_eq!(s.start_cycle, end);
                }
                prev_end = Some(s.end_cycle);
            }
        }
    }
}
