//! Sample statistics and process memory.

/// Median of `samples` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller records at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (0 < q < 1) of `samples`, or `None` unless at least
/// ten samples lie strictly above it — a tail read off fewer samples than
/// that is one unlucky request, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let sorted = sorted(samples);
    // Nearest rank: the smallest sample with at least q of all samples at
    // or below it.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The process's peak resident set in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 above it.
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        // p95 would leave only 5.
        assert_eq!(percentile(&samples, 0.95), None);
        assert_eq!(percentile(&samples[..99], 0.90), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
    }
}
