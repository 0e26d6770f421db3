//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The percentiles a tail is reported at, in thousandths of a percent so
/// ranks come out exact.
const LADDER: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// The tail of `xs`: the highest percentile on the 50/90/99/99.9/99.99
/// ladder with at least ten samples beyond it, as `(percentile, value)`
/// by nearest rank. `None` below twenty samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    LADDER.iter().rev().find_map(|&q| {
        let rank = ((q * n as u64).div_ceil(100_000) as usize).max(1);
        (n >= rank + 10).then(|| (q as f64 / 1000.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).rev().collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves nine beyond, so p90 (rank 900).
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        // 10000 samples: p99.9 is rank 9990, ten beyond.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
    }
}
