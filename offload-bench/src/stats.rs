//! Order statistics for the report: medians and the tail-percentile rule.

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie above it.
    pub beyond: usize,
}

/// The highest nearest-rank percentile with at least `beyond` samples
/// above it: the sample of rank `n - beyond`, which is percentile
/// `100 (n - beyond) / n`. With too few samples for that, the maximum
/// (percentile 100, nothing beyond).
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 100.0,
            value: 0.0,
            beyond: 0,
        };
    }
    if n <= beyond {
        return Tail {
            percentile: 100.0,
            value: v[n - 1],
            beyond: 0,
        };
    }
    let rank = n - beyond;
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=100 shuffled: p90 is the 90th value and 10 samples exceed it;
        // p91 would leave only 9.
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), 10);

        // 400 samples: the 390th of 400 is p97.5.
        let values: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!(t.percentile, 97.5);
        assert_eq!(t.value, 390.0);
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 9.0], 10);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 9.0, 0));
    }
}
