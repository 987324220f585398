#![warn(missing_docs)]

//! Demand predictors for HotC's adaptive live-container control (§IV-C).
//!
//! The paper predicts, per runtime type, how many live containers the next
//! control interval will need, by combining two methods:
//!
//! * **Exponential smoothing** (Eq. 1): `e_t = α·x_t + (1-α)·e_{t-1}` — fits
//!   the *trend* of a short, non-stationary series. The paper selects
//!   α = 0.8 and, for series shorter than 20 points, seeds the initial value
//!   with the mean of the first five observations ([`smoothing`]).
//! * **A Markov chain over value regions** (Eq. 2): the observed range is
//!   partitioned into `n` region states `R_i = [R_{i1}, R_{i2}]`; a k-step
//!   transition matrix `P_ij(k) = T_ij(k)/T_i` is estimated from history and
//!   the prediction is the midpoint of the most probable next region
//!   ([`markov`]). This compensates for the smoothing lag on volatile
//!   serverless workloads.
//!
//! [`combined::EsMarkov`] is the paper's predictor: exponential smoothing
//! anchors the trend and a Markov chain over the smoothing *residuals*
//! corrects the volatility — Fig. 10(a) shows this dropping the relative
//! error from 29 % to 10 % across a demand jump from 8 to 19 containers.
//!
//! [`baseline`] provides the comparison points (last-value, moving average,
//! fixed provisioning, and a histogram predictor in the spirit of the Azure
//! keep-alive work the paper cites as \[27\]).

pub mod baseline;
pub mod combined;
pub mod error;
pub mod holt;
pub mod markov;
pub mod smoothing;

pub use baseline::{FixedValue, HistogramPredictor, LastValue, MovingAverage};
pub use combined::{EsMarkov, ZERO_RUN_CAP};
pub use error::{mae, mape, max_relative_error, rmse};
pub use holt::Holt;
pub use markov::{MarkovChain, RegionPartition};
pub use smoothing::{ExponentialSmoothing, InitialValue};

/// A one-step-ahead predictor over a scalar time series.
///
/// Implementations observe the series one sample at a time and expose a
/// prediction for the *next* sample. All predictors are deterministic.
pub trait Predictor {
    /// Feeds the next observed value.
    fn observe(&mut self, value: f64);

    /// Predicts the next value. Before any observation this returns the
    /// implementation's neutral prior (usually 0).
    fn predict(&self) -> f64;

    /// Short name for report tables.
    fn name(&self) -> &'static str;

    /// Number of samples observed so far.
    fn observations(&self) -> usize;
}

/// Runs a predictor over a series, returning for each step `t ≥ 1` the
/// prediction that was made *before* observing `series[t]` (one-step-ahead
/// evaluation protocol used for Fig. 10).
pub fn one_step_ahead<P: Predictor + ?Sized>(predictor: &mut P, series: &[f64]) -> Vec<f64> {
    let mut preds = Vec::with_capacity(series.len().saturating_sub(1));
    for (i, &x) in series.iter().enumerate() {
        if i > 0 {
            preds.push(predictor.predict());
        }
        predictor.observe(x);
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_step_ahead_aligns_predictions() {
        let mut p = LastValue::new();
        let series = [1.0, 2.0, 3.0, 4.0];
        let preds = one_step_ahead(&mut p, &series);
        // LastValue predicts the previous observation.
        assert_eq!(preds, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn one_step_ahead_empty_and_single() {
        let mut p = LastValue::new();
        assert!(one_step_ahead(&mut p, &[]).is_empty());
        let mut p = LastValue::new();
        assert!(one_step_ahead(&mut p, &[5.0]).is_empty());
    }
}
