//! Order statistics over measured samples.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile of `samples`, up to p99, that has at least ten
/// samples beyond it (p50 with fewer than 20): returns the quantile's
/// level and value.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = (1.0 - 10.0 / samples.len().max(1) as f64).clamp(0.5, 0.99);
    (q, quantile(samples, q))
}

/// The largest sample (0 for an empty sample).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// The `q`-quantile of a distribution known only as `(value, weight)`
/// pairs — each pair standing for `weight` samples at `value`.
pub fn weighted_quantile(pairs: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return *value;
        }
    }
    sorted.last().map_or(0.0, |&(v, _)| v)
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(max(&s), 4.0);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 0.99);
        assert_eq!(tail(&many[..50]).0, 0.8);
        assert_eq!(tail(&s), (0.5, 2.5));
    }

    #[test]
    fn weighted_quantile_counts_weights() {
        let pairs = [(10.0, 1), (20.0, 8), (30.0, 1)];
        assert_eq!(weighted_quantile(&pairs, 0.5), 20.0);
        assert_eq!(weighted_quantile(&pairs, 0.99), 30.0);
        assert_eq!(weighted_quantile(&pairs, 0.05), 10.0);
        assert_eq!(weighted_quantile(&[], 0.5), 0.0);
    }
}
