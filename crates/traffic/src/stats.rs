//! Summary statistics across repeated measurements.
//!
//! The paper reports "the average of maximum throughput values measured
//! every second in a 10 second interval" and averages hundreds of latency
//! samples; these helpers compute those aggregates plus confidence
//! intervals for the multi-trial cloud experiments (§7.1, \[4\]).

use serde::Serialize;

/// Mean, standard deviation and a 95% normal-approximation confidence
/// half-width over a set of samples.
#[derive(Debug, Clone, Copy, Serialize, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub stddev: f64,
    /// 95% confidence half-width (1.96 σ/√n).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes a slice of samples. Returns `None` for an empty slice.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let stddev = var.sqrt();
    let ci95 = 1.96 * stddev / (n as f64).sqrt();
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Some(Summary {
        n,
        mean,
        stddev,
        ci95,
        min,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[4.0]).unwrap();
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!((s.min, s.max), (4.0, 4.0));
    }

    #[test]
    fn known_values() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935299395).abs() < 1e-9);
        assert_eq!((s.min, s.max), (2.0, 9.0));
        assert!(s.ci95 > 0.0);
    }
}
