//! Order statistics over timing samples.

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of `samples`; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples per slice of [`sliced_quantile`] for quantile `q`: the fewest
/// for which the slice's `q`-quantile has ten samples beyond it (20 for
/// the median, 1000 for p99).
pub fn slice_len(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The `q`-quantile of `samples` taken per slice of [`slice_len`]
/// consecutive samples, then the median over slices. `samples` must be in
/// arrival order. A quantile of one long window follows its worst stretch
/// (a burst, or a spell in which the host ran the VM slowly); the median
/// over slices is the typical value, which repeats far better from run to
/// run. With fewer than two slices it is the plain quantile.
pub fn sliced_quantile(samples: &[f64], q: f64) -> f64 {
    let slices: Vec<f64> = samples
        .chunks_exact(slice_len(q))
        .map(|c| quantile(c, q))
        .collect();
    if slices.len() < 2 {
        return quantile(samples, q);
    }
    median(&slices)
}

/// Median throughput over consecutive stretches of about `window_s`
/// seconds, from `(completion time in s, amount)` pairs: completions are
/// split into `elapsed_s / window_s` runs of equal count, and each run's
/// amount is divided by the time from the previous run's last completion
/// (or the start) to its own last. With fewer than two runs, the overall
/// rate up to `elapsed_s`.
pub fn windowed_rate(done: &[(f64, f64)], window_s: f64, elapsed_s: f64) -> f64 {
    let runs = (elapsed_s / window_s) as usize;
    if runs < 2 || done.len() < runs {
        return done.iter().map(|d| d.1).sum::<f64>() / elapsed_s;
    }
    let mut sorted = done.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut prev_end = 0.0;
    let rates: Vec<f64> = sorted
        .chunks_exact(sorted.len() / runs)
        .map(|c| {
            let end = c[c.len() - 1].0;
            let rate = c.iter().map(|d| d.1).sum::<f64>() / (end - prev_end);
            prev_end = end;
            rate
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sliced_quantile_is_the_median_slice_tail() {
        const SLICE: usize = 1000;
        assert_eq!(slice_len(0.99), SLICE);
        assert_eq!(slice_len(0.5), 20);
        // Three slices whose p99s are 98, 198 and 298 (a trailing partial
        // slice is ignored).
        let v: Vec<f64> = (0..3 * SLICE + 10)
            .map(|i| ((i % SLICE) / 10 + 100 * (i / SLICE)) as f64)
            .collect();
        assert_eq!(sliced_quantile(&v, 0.99), 198.0);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sliced_quantile(&short, 0.99), 99.0);
    }

    #[test]
    fn windowed_rate_is_the_median_stretch() {
        // Two runs of two completions: 20 units over 1 s, then 40 over 4 s.
        let done = [(0.5, 10.0), (1.0, 10.0), (3.0, 30.0), (5.0, 10.0)];
        assert_eq!(windowed_rate(&done, 2.5, 5.0), 10.0);
        assert_eq!(windowed_rate(&done, 3.0, 5.0), 60.0 / 5.0);
    }
}
