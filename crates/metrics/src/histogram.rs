//! Log-bucketed latency histogram that stores only the buckets it has seen.
//!
//! [`LatencyRecorder`](crate::latency::LatencyRecorder) keeps raw samples —
//! exact but O(n) memory. For long-running concurrent drivers (the
//! contention benches, day-long trace replays) this HDR-style histogram
//! records into fixed log-spaced buckets: ~2.4 % relative error, O(1)
//! record. The bucket scale spans 1,312 buckets, but a histogram holds only
//! the window between the lowest and highest bucket it has recorded or
//! merged, so its memory is O(window), at most 1,312 counters, and an empty
//! histogram holds none. Simulated stage latencies typically land in one or
//! two buckets, which is what keeps a registry with thousands of per-function
//! stage sets small.

use simclock::SimDuration;

/// Buckets per power of two (higher = finer resolution).
const SUB_BUCKETS: usize = 32;
/// Number of powers of two covered (1 ns … ~2^40 ns ≈ 18 min).
const OCTAVES: usize = 41;

/// A log-bucketed latency histogram over a sparse window of buckets.
///
/// Bucket `lo + i` is counted in `counts[i]`; the window starts empty and
/// widens to cover each recorded or merged bucket, never past the 1,312
/// buckets of the full scale.
///
/// ```
/// use metrics_lite::LatencyHistogram;
/// use simclock::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for ms in 1..=1000 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// let p99 = h.quantile(0.99).as_millis_f64();
/// assert!((p99 - 990.0).abs() / 990.0 < 0.02); // ≤ ~1.6 % midpoint error
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// First bucket of the window (meaningless while `counts` is empty).
    lo: usize,
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram; allocates nothing until the first sample.
    pub fn new() -> Self {
        LatencyHistogram {
            lo: 0,
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let octave = 63 - ns.leading_zeros() as usize;
        let octave = octave.min(OCTAVES - 1);
        // Position within the octave, scaled into SUB_BUCKETS slots.
        let base = 1u64 << octave;
        let offset = ((ns - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
        octave * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
    }

    /// Representative (midpoint) value of a bucket. Reporting the midpoint
    /// of `[lo, hi)` instead of the lower bound halves the worst-case
    /// quantile bias; the lower bound systematically under-reported by up to
    /// one sub-bucket width.
    fn bucket_value(bucket: usize) -> u64 {
        let octave = bucket / SUB_BUCKETS;
        let offset = (bucket % SUB_BUCKETS) as u64;
        let base = 1u64 << octave;
        let lo = base + base * offset / SUB_BUCKETS as u64;
        let hi = base + base * (offset + 1) / SUB_BUCKETS as u64;
        lo + (hi - lo) / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let bucket = Self::bucket_of(ns);
        // A bucket below `lo` wraps to an index past the window.
        match self.counts.get_mut(bucket.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => {
                self.widen(bucket, bucket + 1);
                self.counts[bucket - self.lo] += 1;
            }
        }
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all samples in nanoseconds (tracked outside the
    /// buckets), for reconciling aggregates against e2e totals.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean (tracked outside the buckets).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / u128::from(self.total)) as u64)
    }

    /// Exact maximum.
    pub fn max(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.max_ns)
        }
    }

    /// Exact minimum.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Approximate quantile (nearest-rank over buckets; ≤ ~3 % relative
    /// error by construction).
    ///
    /// # Panics
    /// Panics when empty or `q` is out of `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let v = Self::bucket_value(self.lo + i).clamp(self.min_ns, self.max_ns);
                return SimDuration::from_nanos(v);
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            self.widen(other.lo, other.lo + other.counts.len());
            let at = other.lo - self.lo;
            for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Widens the window to cover buckets `first..end`, zero-filling the
    /// buckets it gains.
    fn widen(&mut self, first: usize, end: usize) {
        if self.counts.is_empty() {
            self.lo = first;
        } else if first < self.lo {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.lo - first));
            self.lo = first;
        }
        if end - self.lo > self.counts.len() {
            self.counts.resize(end - self.lo, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn exact_stats_track() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30, 40, 50] {
            h.record(ms(v));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean().as_millis(), 30);
        assert_eq!(h.min().as_millis(), 10);
        assert_eq!(h.max().as_millis(), 50);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(ms(v));
        }
        for (q, expected_ms) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = h.quantile(q).as_millis_f64();
            let rel = (got - expected_ms as f64).abs() / expected_ms as f64;
            assert!(rel < 0.02, "q={q}: got {got}, want ~{expected_ms} ({rel})");
        }
    }

    #[test]
    fn bucket_midpoint_removes_lower_bound_bias() {
        // 1540 ns falls in bucket [1536, 1568) (octave 10, 32 ns sub-bucket
        // width). The pre-fix lower-bound representative reported 1536 —
        // biased low for every sample in the bucket — where the midpoint
        // 1552 is the unbiased choice.
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(1540));
        h.record(SimDuration::from_nanos(4096));
        assert_eq!(h.quantile(0.5).as_nanos(), 1552);
        // Exact powers of two clamp to the recorded max, not the midpoint of
        // their (otherwise empty) bucket.
        assert_eq!(h.quantile(1.0).as_nanos(), 4096);
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_quantile_panics() {
        LatencyHistogram::new().quantile(0.5);
    }

    #[test]
    fn zero_and_huge_values_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert!(h.quantile(1.0) <= SimDuration::from_secs(100_000));
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 1..=100 {
            let d = ms(v);
            if v % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
    }

    /// Histogram quantiles track exact quantiles within bucket error.
    #[test]
    fn prop_quantile_accuracy() {
        testkit::check(64, |g| {
            let mut vals = g.vec(10..300, |g| g.u64_in(1..10_000_000));
            let q = g.f64_in(0.01..1.0);
            let mut h = LatencyHistogram::new();
            for &v in &vals {
                h.record(SimDuration::from_nanos(v));
            }
            vals.sort_unstable();
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1] as f64;
            let approx = h.quantile(q).as_nanos() as f64;
            // Bucket resolution: 1/32 per octave, halved by the midpoint
            // representative ⇒ ≤ ~1.6 % plus rank-boundary effects.
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "q={q} exact={exact} approx={approx}"
            );
        });
    }

    /// Quantiles are monotone.
    #[test]
    fn prop_quantiles_monotone() {
        testkit::check(64, |g| {
            let vals = g.vec(2..200, |g| g.u64_in(1..1_000_000));
            let mut h = LatencyHistogram::new();
            for &v in &vals {
                h.record(SimDuration::from_nanos(v));
            }
            let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        });
    }

    /// The dense layout this histogram replaced: every bucket of the scale
    /// allocated up front. Kept as the reference the sparse window must
    /// match sample for sample.
    #[derive(Clone)]
    struct DenseHistogram {
        counts: Vec<u64>,
        total: u64,
        sum_ns: u128,
        max_ns: u64,
        min_ns: u64,
    }

    impl DenseHistogram {
        fn new() -> Self {
            DenseHistogram {
                counts: vec![0; BUCKETS],
                total: 0,
                sum_ns: 0,
                max_ns: 0,
                min_ns: u64::MAX,
            }
        }

        fn record(&mut self, ns: u64) {
            self.counts[LatencyHistogram::bucket_of(ns)] += 1;
            self.total += 1;
            self.sum_ns += u128::from(ns);
            self.max_ns = self.max_ns.max(ns);
            self.min_ns = self.min_ns.min(ns);
        }

        fn merge(&mut self, other: &DenseHistogram) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.total += other.total;
            self.sum_ns += other.sum_ns;
            self.max_ns = self.max_ns.max(other.max_ns);
            self.min_ns = self.min_ns.min(other.min_ns);
        }

        fn quantile(&self, q: f64) -> u64 {
            let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut cum = 0u64;
            for (bucket, &c) in self.counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return LatencyHistogram::bucket_value(bucket).clamp(self.min_ns, self.max_ns);
                }
            }
            self.max_ns
        }
    }

    const BUCKETS: usize = OCTAVES * SUB_BUCKETS;
    const QUANTILE_GRID: [f64; 9] = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

    /// Asserts `sparse` reports exactly what `dense` does, and that its
    /// window is tight: empty when nothing was recorded, otherwise starting
    /// and ending on a nonzero bucket, never wider than the scale.
    fn assert_lockstep(sparse: &LatencyHistogram, dense: &DenseHistogram) {
        assert_eq!(sparse.count(), dense.total);
        assert_eq!(sparse.sum_ns(), dense.sum_ns);
        assert_eq!(sparse.is_empty(), dense.total == 0);
        if dense.total == 0 {
            assert!(sparse.counts.is_empty(), "empty histogram holds buckets");
            assert_eq!(sparse.min(), SimDuration::ZERO);
            assert_eq!(sparse.max(), SimDuration::ZERO);
            assert_eq!(sparse.mean(), SimDuration::ZERO);
            return;
        }
        assert_eq!(sparse.min().as_nanos(), dense.min_ns);
        assert_eq!(sparse.max().as_nanos(), dense.max_ns);
        let mean = (dense.sum_ns / u128::from(dense.total)) as u64;
        assert_eq!(sparse.mean().as_nanos(), mean);
        for q in QUANTILE_GRID {
            assert_eq!(sparse.quantile(q).as_nanos(), dense.quantile(q), "q={q}");
        }
        let window = &sparse.counts;
        assert!(
            window.len() <= BUCKETS,
            "window of {} buckets",
            window.len()
        );
        assert!(
            window[0] > 0 && window[window.len() - 1] > 0,
            "loose window"
        );
        assert_eq!(
            window[..],
            dense.counts[sparse.lo..sparse.lo + window.len()]
        );
    }

    /// A sample around `center_octave`, or one of the edge values: 0 ns
    /// and values past the last octave (clamped into the top bucket).
    fn sample(g: &mut testkit::Gen, center_octave: u64) -> u64 {
        match g.u64_in(0..10) {
            0 => 0,
            1 => (1 << 41) + g.u64_in(0..1 << 50),
            _ => {
                let octave = center_octave + g.u64_in(0..3);
                (1 << octave) + g.u64_in(0..1 << octave)
            }
        }
    }

    /// The sparse and dense layouts, driven through the same random
    /// record/merge/reset sequence, agree after every step. Histograms
    /// center on different octaves, so merges meet disjoint, overlapping,
    /// nested and empty windows in both directions.
    #[test]
    fn prop_sparse_window_matches_dense_reference() {
        testkit::check(128, |g| {
            let n = g.usize_in(2..5);
            let centers: Vec<u64> = (0..n).map(|_| g.u64_in(0..40)).collect();
            let mut sparse: Vec<LatencyHistogram> =
                (0..n).map(|_| LatencyHistogram::new()).collect();
            let mut dense: Vec<DenseHistogram> = (0..n).map(|_| DenseHistogram::new()).collect();
            for _ in 0..g.usize_in(1..120) {
                let i = g.usize_in(0..n);
                match g.u64_in(0..10) {
                    0..=5 => {
                        let ns = sample(g, centers[i]);
                        sparse[i].record(SimDuration::from_nanos(ns));
                        dense[i].record(ns);
                    }
                    6..=8 => {
                        let j = g.usize_in(0..n);
                        let (s, d) = (sparse[j].clone(), dense[j].clone());
                        sparse[i].merge(&s);
                        dense[i].merge(&d);
                    }
                    _ => {
                        sparse[i] = LatencyHistogram::new();
                        dense[i] = DenseHistogram::new();
                    }
                }
                assert_lockstep(&sparse[i], &dense[i]);
            }
            for (s, d) in sparse.iter().zip(&dense) {
                assert_lockstep(s, d);
            }
        });
    }

    /// The memory property: buckets are held only for the recorded window.
    #[test]
    fn window_holds_only_recorded_buckets() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.counts.capacity(), 0, "a new histogram allocates");
        for ns in [1540, 1545, 1550, 1567] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.counts.len(), 1, "one bucket's samples hold one bucket");
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(
            h.counts.len(),
            BUCKETS,
            "the full scale is the widest window"
        );
    }

    /// Disjoint windows merge in both directions, and empty histograms merge
    /// into empty and full ones, exactly as the dense layout does.
    #[test]
    fn merges_of_disjoint_and_empty_windows_match_dense() {
        let build = |values: &[u64]| {
            let mut s = LatencyHistogram::new();
            let mut d = DenseHistogram::new();
            for &ns in values {
                s.record(SimDuration::from_nanos(ns));
                d.record(ns);
            }
            (s, d)
        };
        let low = build(&[3, 5, 7]);
        let high = build(&[1 << 30, 3 << 30, 1 << 45]);
        let empty = build(&[]);
        for (into, from) in [
            (&low, &high),
            (&high, &low),
            (&empty, &empty),
            (&empty, &low),
            (&high, &empty),
        ] {
            let (mut s, mut d) = into.clone();
            s.merge(&from.0);
            d.merge(&from.1);
            assert_lockstep(&s, &d);
        }
    }
}
