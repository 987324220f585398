//! The paper's combined predictor: exponential smoothing + Markov chain.
//!
//! §IV-C: the Markov chain "predicts the results through the transition
//! probability between states and can better compensate for limitations in
//! the prediction process of exponential smoothing", while "the exponential
//! smoothing method can fit the available container data to find out its
//! changing trend, which can rectify the limitations of the Markov chain
//! prediction process".
//!
//! [`EsMarkov`] implements that division of labour directly:
//!
//! 1. A region partition is maintained over a sliding window of the demand
//!    series, and an Eq. 2 Markov chain is trained on the region sequence.
//! 2. At prediction time the chain picks the most probable *next region*
//!    from the current one; Eq. 1 exponential smoothing provides the trend
//!    value, which is **clamped into the predicted region's bounds** — the
//!    region supplies robustness to volatility, the trend supplies precision
//!    within the region (the paper's "predicted value is the midpoint" is
//!    the special case where the trend lies outside the region entirely;
//!    clamping to the nearer bound tightens it without changing the region
//!    decision).
//! 3. When the chain has never been observed leaving the current region
//!    (first-time regime shift), there is no evidence to correct with and
//!    the predictor falls back to pure exponential smoothing.
//!
//! On recurring patterns (the situation of Fig. 10(a), where the demand for
//! a runtime type jumps 8 → 19 and the chain has seen such transitions), the
//! correction pulls the lagging smoother into the right region, reproducing
//! the reported relative-error drop from ≈29 % to ≈10 %.

use crate::markov::{MarkovChain, RegionPartition};
use crate::smoothing::{ExponentialSmoothing, InitialValue};
use crate::Predictor;

use std::collections::{BTreeMap, VecDeque};
use stdshim::{JsonValue, ToJson};

/// The most zero observations [`EsMarkov::zero_run_bound`] vouches for at
/// once. A constant, not a tuning knob: it only bounds the bound's scalar
/// loop and how long a caller may skip a quiet series between checks.
pub const ZERO_RUN_CAP: u64 = 64;

/// Maps an `f64` to a `u64` whose unsigned order matches IEEE-754 total
/// order, so a `BTreeMap` keyed on it acts as an ordered multiset of raw
/// samples (min/max in O(log n), exact under duplicate values).
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`total_order_bits`].
fn from_total_order_bits(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Exponential smoothing with a Markov-chain region correction.
///
/// ```
/// use predictor::{EsMarkov, Predictor};
///
/// let mut p = EsMarkov::paper_default(); // α = 0.8
/// for demand in [8.0, 8.0, 9.0, 8.0, 8.0, 8.0] {
///     p.observe(demand);
/// }
/// let next = p.predict();
/// assert!((7.0..9.5).contains(&next), "{next}");
/// ```
#[derive(Debug, Clone)]
pub struct EsMarkov {
    es: ExponentialSmoothing,
    /// Sliding window of raw observations used to (re)build the partition.
    window: VecDeque<f64>,
    /// Window capacity.
    window_cap: usize,
    /// Number of demand regions.
    regions: usize,
    /// Chain over the windowed demand regions, maintained incrementally and
    /// rebuilt only when the window's value range drifts.
    chain: MarkovChain,
    /// Ordered multiset of the windowed values; its ends are the exact
    /// min/max, which decide whether the partition (and thus every region
    /// assignment) is still valid after an eviction. Built lazily when the
    /// window first saturates: while it is still growing nothing is ever
    /// evicted, so a running min/max tracks the span without tree upkeep.
    values: BTreeMap<u64, u32>,
    /// The `(min, max)` the current partition was built from.
    span: Option<(f64, f64)>,
    observations: usize,
}

impl EsMarkov {
    /// Creates the combined predictor with the given smoothing coefficient,
    /// a 6-region partition, and a 256-sample window.
    pub fn new(alpha: f64) -> Self {
        Self::with_params(alpha, InitialValue::default(), 6, 256)
    }

    /// Full-control constructor (used by the sensitivity experiments).
    pub fn with_params(alpha: f64, init: InitialValue, regions: usize, window_cap: usize) -> Self {
        assert!(regions >= 1, "need at least one region");
        assert!(window_cap >= 2, "window must hold at least two samples");
        EsMarkov {
            es: ExponentialSmoothing::with_init(alpha, init),
            // The window grows on demand past a small initial capacity: a
            // controller builds one predictor per runtime key, and most keys
            // never fill a 256-sample window, so preallocating `window_cap`
            // would waste ~2 KB per key. Starting at 16 keeps the first
            // doublings (the common lifetime of a short-lived key) out of
            // the controller's steady-state ticks.
            window: VecDeque::with_capacity(window_cap.min(16)),
            window_cap,
            regions,
            chain: MarkovChain::new(RegionPartition::new(0.0, 1.0, regions)),
            values: BTreeMap::new(),
            span: None,
            observations: 0,
        }
    }

    /// Creates the combined predictor with an explicit seeding strategy.
    pub fn with_init(alpha: f64, init: InitialValue) -> Self {
        Self::with_params(alpha, init, 6, 256)
    }

    /// The paper's configuration (α = 0.8).
    pub fn paper_default() -> Self {
        Self::new(0.8)
    }

    /// The underlying smoother (for the Fig. 10 strategy comparison).
    pub fn smoother(&self) -> &ExponentialSmoothing {
        &self.es
    }

    /// The demand-region chain (for diagnostics).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Rebuilds the chain from the current window. Only reached when the
    /// window's min/max actually moved — a partition shift reassigns regions
    /// wholesale, so there is nothing to update incrementally. Steady demand
    /// series revisit the same range, making this the rare path;
    /// [`Predictor::observe`] handles the common case in O(log window).
    fn rebuild_chain(&mut self) {
        let (head, tail) = self.window.as_slices();
        self.chain.refit(head, tail, self.regions);
    }

    /// How many more zero observations provably keep [`Predictor::predict`]
    /// in `(0, 1]`, capped at [`ZERO_RUN_CAP`]; 0 when that cannot be
    /// proven. A caller sizing a pool by `ceil(predict())` may skip that
    /// many zero-demand steps of a series sized to one container: each
    /// would size it to exactly one.
    ///
    /// Proof. Under a zero observation a seeded smoother moves
    /// `e ← fl(α·0 + (1−α)·e) = fl((1−α)·e)`, which is non-increasing and
    /// stays positive until it underflows; the loop below runs that exact
    /// arithmetic ([`ExponentialSmoothing::next_smoothed`]). Once a zero is
    /// in a window whose values all lie in `[0, 1]`, the partition spans
    /// `[0, hi]` with `hi ≤ 1` (or the widened `[0, 1]` when every value
    /// is 0), so every region bound lies in `[0, 1]` and a region's upper
    /// bound is positive. Zeros keep the window inside `[0, 1]`. Every
    /// branch of `predict` then returns either the trend or
    /// `clamp(trend, lo, hi)` with `0 ≤ lo < hi ≤ 1`, both in `(0, 1]`
    /// while the trend is.
    pub fn zero_run_bound(&self) -> u64 {
        let (Some(mut trend), Some((lo, hi))) = (self.es.smoothed(), self.span) else {
            return 0;
        };
        // Also rejects a NaN sample, which the total order puts at an end.
        if !(lo >= 0.0 && hi <= 1.0) {
            return 0;
        }
        let mut runs = 0;
        while runs < ZERO_RUN_CAP {
            trend = self.es.next_smoothed(trend, 0.0);
            if !(trend > 0.0 && trend <= 1.0) {
                break;
            }
            runs += 1;
        }
        runs
    }

    /// Exact `(min, max)` of the windowed values via the ordered multiset.
    fn window_span(&self) -> Option<(f64, f64)> {
        let (&lo, _) = self.values.first_key_value()?;
        let (&hi, _) = self.values.last_key_value()?;
        Some((from_total_order_bits(lo), from_total_order_bits(hi)))
    }
}

impl Predictor for EsMarkov {
    fn observe(&mut self, value: f64) {
        self.observations += 1;
        self.es.observe(value);
        let evicted = if self.window.len() == self.window_cap {
            self.window.pop_front()
        } else {
            None
        };
        self.window.push_back(value);
        let span = if let Some(old) = evicted {
            let bits = total_order_bits(old);
            if let Some(count) = self.values.get_mut(&bits) {
                *count -= 1;
                if *count == 0 {
                    self.values.remove(&bits);
                }
            }
            *self.values.entry(total_order_bits(value)).or_insert(0) += 1;
            self.window_span()
        } else if self.window.len() == self.window_cap {
            // The window just saturated: evictions start with the next
            // observation, so materialise the multiset once here.
            for &x in &self.window {
                *self.values.entry(total_order_bits(x)).or_insert(0) += 1;
            }
            self.window_span()
        } else {
            // Growing window: nothing is ever evicted, so the span only
            // extends. Running min/max in IEEE total order matches the
            // multiset's ends exactly, without any tree upkeep.
            let bits = total_order_bits(value);
            Some(match self.span {
                None => (value, value),
                Some((lo, hi)) => (
                    if bits < total_order_bits(lo) {
                        value
                    } else {
                        lo
                    },
                    if bits > total_order_bits(hi) {
                        value
                    } else {
                        hi
                    },
                ),
            })
        };
        // NaN spans compare unequal to themselves, which safely forces the
        // rebuild path until the offending sample leaves the window.
        if span != self.span {
            self.span = span;
            self.rebuild_chain();
            return;
        }
        // Range unchanged ⇒ the partition is byte-identical to what a batch
        // fit over this window would build, and every retained sample keeps
        // its region. Retract the evicted head's outgoing transition, then
        // append the new observation — counts now equal a full refit. The
        // evicted sample's region (and the new head's) is recomputed from
        // the unchanged partition in O(1) rather than stored alongside it.
        if let Some(old) = evicted {
            let partition = self.chain.partition();
            let from = partition.state_of(old);
            if let Some(&head) = self.window.front() {
                self.chain.forget_oldest(from, partition.state_of(head));
            }
        }
        self.chain.observe(value);
    }

    fn predict(&self) -> f64 {
        let trend = self.es.predict();
        let Some(cur) = self.chain.current_state() else {
            return trend.max(0.0);
        };
        if !self.chain.has_outgoing(cur) {
            // No evidence of where demand goes from here: trust the trend.
            return trend.max(0.0);
        }
        // `current_state` exists (checked above), so `predict_state` does
        // too — but degrade to the bare trend rather than panicking.
        let Some(next) = self.chain.predict_state() else {
            return trend.max(0.0);
        };
        let (lo, hi) = self.chain.partition().bounds(next);
        trend.clamp(lo, hi).max(0.0)
    }

    fn name(&self) -> &'static str {
        "es+markov"
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

impl ToJson for EsMarkov {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("model", self.name().to_json()),
            ("alpha", self.es.alpha().to_json()),
            ("regions", self.regions.to_json()),
            ("window", self.window_cap.to_json()),
            ("observations", self.observations().to_json()),
            ("prediction", self.predict().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::mape;
    use crate::one_step_ahead;

    /// The paper's Fig. 10(a) scenario: stable demand around 8, then a jump
    /// to 19 with mild jitter.
    fn fig10_series() -> Vec<f64> {
        let mut s = Vec::new();
        for i in 0..12 {
            s.push(8.0 + (i % 3) as f64 - 1.0); // 7..9
        }
        for i in 0..12 {
            s.push(19.0 + (i % 3) as f64 - 1.0); // 18..20
        }
        s
    }

    #[test]
    fn constant_series_exact() {
        let mut p = EsMarkov::paper_default();
        for _ in 0..30 {
            p.observe(5.0);
        }
        assert!((p.predict() - 5.0).abs() < 0.5);
    }

    #[test]
    fn combined_beats_es_on_volatile_series() {
        // A sawtooth the smoother chronically lags on; the chain learns the
        // alternation exactly.
        let series: Vec<f64> = (0..60)
            .map(|i| if i % 2 == 0 { 4.0 } else { 16.0 })
            .collect();
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        let actual = &series[1..];
        let es_err = mape(&es_preds, actual);
        let combo_err = mape(&combo_preds, actual);
        assert!(
            combo_err < es_err * 0.7,
            "combined {combo_err:.3} should clearly beat ES {es_err:.3}"
        );
    }

    #[test]
    fn combined_no_worse_on_fig10_jump() {
        let series = fig10_series();
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        let actual = &series[1..];
        let es_err = mape(&es_preds, actual);
        let combo_err = mape(&combo_preds, actual);
        assert!(
            combo_err <= es_err * 1.05,
            "combined {combo_err:.3} vs ES {es_err:.3}"
        );
    }

    #[test]
    fn recurring_jump_is_anticipated() {
        // Two full cycles of the 8 → 19 pattern; during the second cycle the
        // chain has seen the regime transitions and corrects the lag.
        let mut series = fig10_series();
        series.extend(fig10_series());
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        // Evaluate only the second cycle.
        let half = series.len() / 2;
        let es_err = mape(&es_preds[half..], &series[half + 1..]);
        let combo_err = mape(&combo_preds[half..], &series[half + 1..]);
        assert!(
            combo_err <= es_err,
            "on recurring patterns combined {combo_err:.3} should not trail ES {es_err:.3}"
        );
    }

    #[test]
    fn never_predicts_negative() {
        let mut p = EsMarkov::paper_default();
        for x in [10.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0] {
            p.observe(x);
            assert!(p.predict() >= 0.0);
        }
    }

    #[test]
    fn before_observations_predicts_zero() {
        let p = EsMarkov::paper_default();
        assert_eq!(p.predict(), 0.0);
    }

    #[test]
    fn tracks_observation_count() {
        let mut p = EsMarkov::paper_default();
        for i in 0..7 {
            p.observe(i as f64);
        }
        assert_eq!(p.observations(), 7);
    }

    #[test]
    fn window_caps_history() {
        let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, 4, 8);
        for i in 0..100 {
            p.observe(i as f64);
        }
        // Partition spans only the window (92..99), not the full history.
        let (lo, _) = p.chain().partition().bounds(0);
        assert!(lo >= 92.0 - 1e-9, "partition lo = {lo}");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_rejected() {
        let _ = EsMarkov::with_params(0.5, InitialValue::FirstObservation, 0, 16);
    }

    /// The incremental chain (subtract-on-evict + online counts) must equal
    /// a batch `MarkovChain::fit` over the same sliding window after every
    /// observation, including window wraparound and duplicate values.
    #[test]
    fn prop_incremental_matches_batch_fit() {
        testkit::check(64, |g| {
            let cap = g.usize_in(2..16);
            let regions = g.usize_in(1..8);
            let len = g.usize_in(1..64);
            let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, regions, cap);
            let mut history: Vec<f64> = Vec::new();
            for _ in 0..len {
                // Mostly revisit a few discrete levels (duplicate values,
                // stable span ⇒ the O(1) path), sometimes a fresh value
                // (span drift ⇒ the rebuild path).
                let value = if g.u8_in(0..4) == 0 {
                    g.f64_in(0.0..40.0)
                } else {
                    g.usize_in(0..5) as f64 * 7.0
                };
                p.observe(value);
                history.push(value);
                let start = history.len().saturating_sub(cap);
                let batch = MarkovChain::fit(&history[start..], regions);
                assert_eq!(p.chain().partition(), batch.partition());
                assert_eq!(p.chain().current_state(), batch.current_state());
                assert_eq!(p.chain().transition_counts(), batch.transition_counts());
                assert_eq!(p.chain().observations(), batch.observations());
            }
        });
    }

    /// The bound is sound: after each of up to `bound` more zeros the
    /// prediction stays in `(0, 1]`, across seeding strategies, window
    /// sizes, and histories that reach the bound's preconditions or miss
    /// them.
    #[test]
    fn prop_zero_run_bound_keeps_prediction_in_unit_interval() {
        testkit::check(96, |g| {
            let alpha = g.f64_in(0.05..0.95);
            let init = if g.bool() {
                InitialValue::FirstObservation
            } else {
                InitialValue::MeanOfFirst5
            };
            let mut p = EsMarkov::with_params(alpha, init, g.usize_in(1..8), g.usize_in(2..40));
            for _ in 0..g.usize_in(0..60) {
                let value = match g.u8_in(0..4) {
                    0 => g.f64_in(0.0..3.0),
                    1 => 1.0,
                    _ => 0.0,
                };
                p.observe(value);
                let bound = p.zero_run_bound();
                assert!(bound <= ZERO_RUN_CAP);
                let mut ahead = p.clone();
                for run in 1..=bound {
                    ahead.observe(0.0);
                    let next = ahead.predict();
                    assert!(
                        next > 0.0 && next <= 1.0,
                        "zero {run} of {bound}: predict {next} left (0, 1]"
                    );
                }
            }
        });
    }

    #[test]
    fn zero_run_bound_needs_a_seeded_unit_window() {
        let mut p = EsMarkov::with_params(0.8, InitialValue::MeanOfFirst5, 6, 16);
        p.observe(1.0);
        assert_eq!(p.zero_run_bound(), 0, "an unseeded smoother proves nothing");
        for _ in 0..4 {
            p.observe(0.0);
        }
        // Seeded at 0.2 with every sample in [0, 1]: α = 0.8 takes far
        // longer than the cap to underflow.
        assert_eq!(p.zero_run_bound(), ZERO_RUN_CAP);
        p.observe(2.0);
        assert_eq!(p.zero_run_bound(), 0, "a sample above 1 is in the window");
    }

    /// Saturated-window regression: a long constant tail after a level shift
    /// keeps evicting duplicates of the old level; counts must track the
    /// batch fit exactly as the old level drains out of the window.
    #[test]
    fn incremental_eviction_drains_old_level() {
        let cap = 8;
        let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, 3, cap);
        let mut history = Vec::new();
        for i in 0..40 {
            let value = if i < 10 { 4.0 } else { 16.0 };
            p.observe(value);
            history.push(value);
            let start = history.len().saturating_sub(cap);
            let batch = MarkovChain::fit(&history[start..], 3);
            assert_eq!(p.chain().partition(), batch.partition());
            assert_eq!(p.chain().transition_counts(), batch.transition_counts());
        }
    }
}
