//! The benchmark's own arithmetic: order statistics with their sample
//! counts, the failure ratio, and a layer's self time.

/// An order statistic together with the number of samples it was read
/// from, so every printed figure carries its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub samples: usize,
}

/// The median of `xs`, averaging the two middle samples of an even count.
pub fn median(xs: &[f64]) -> Option<Stat> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = sorted.len() / 2;
    let value =
        if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 };
    Some(Stat { value, samples: sorted.len() })
}

/// Nearest-rank percentiles of integer samples (latencies in ns), read in
/// one pass of selections instead of a full sort. `qs` must be ascending.
pub fn percentiles_u64(xs: &mut [u64], qs: &[f64]) -> Vec<u64> {
    assert!(!xs.is_empty(), "percentiles of an empty sample");
    assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must ascend");
    let n = xs.len();
    let mut lo = 0usize;
    qs.iter()
        .map(|&q| {
            assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            // Earlier selections left everything below `lo` no larger than
            // xs[lo - 1], so the next rank is selected in the tail only.
            let (_, v, _) = xs[lo..].select_nth_unstable(idx - lo);
            let v = *v;
            lo = idx;
            v
        })
        .collect()
}

/// Completion rates (per second) over consecutive windows of `window`
/// completions, from completion timestamps in ns (sorted in place). A
/// window's rate counts the completions after its first one over the time
/// they took; a host stall depresses only the windows it overlaps.
pub fn window_rates(done_ns: &mut [u64], window: usize) -> Vec<f64> {
    assert!(window >= 2, "a rate needs at least two completions");
    done_ns.sort_unstable();
    done_ns
        .chunks_exact(window)
        .map(|w| (w.len() - 1) as f64 * 1e9 / (w[w.len() - 1] - w[0]).max(1) as f64)
        .collect()
}

/// The median of each run of `window` consecutive samples (a trailing
/// partial window is dropped).
pub fn window_medians(xs: &[u64], window: usize) -> Vec<f64> {
    assert!(window >= 1, "empty window");
    xs.chunks_exact(window).map(|w| percentiles_u64(&mut w.to_vec(), &[0.5])[0] as f64).collect()
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A layer's self time: the time its workers spent inside it minus the
/// time covered by calls into the layers below it, never negative.
pub fn self_time_ns(worker_ns: u64, child_ns: &[u64]) -> u64 {
    worker_ns.saturating_sub(child_ns.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(Stat { value: 2.0, samples: 3 }));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(Stat { value: 2.5, samples: 4 }));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_u64_match_a_full_sort() {
        let mut xs: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1000).collect();
        let qs = [0.5, 0.9, 0.99, 0.999, 1.0];
        let got = percentiles_u64(&mut xs, &qs);
        // The samples are a permutation of 0..1000, so rank r is r - 1.
        assert_eq!(got, vec![499, 899, 989, 998, 999]);
        let mut one = vec![42u64];
        assert_eq!(percentiles_u64(&mut one, &[0.5, 0.99]), vec![42, 42]);
    }

    #[test]
    fn window_rates_count_completions_per_window() {
        // Ten completions 1 µs apart, then a 1 ms stall, then ten more.
        let mut done: Vec<u64> = (0..10).map(|i| 1_000 * i).collect();
        done.extend((0..10).map(|i| 1_009_000 + 1_000 * i));
        done.reverse();
        let rates = window_rates(&mut done, 10);
        assert_eq!(rates, vec![1e6, 1e6], "the stall falls between the windows");
        let rates = window_rates(&mut done, 20);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 19.0 * 1e9 / 1_018_000.0).abs() < 1e-6);
        assert!(window_rates(&mut done, 21).is_empty());
    }

    #[test]
    fn window_medians_drop_the_partial_tail() {
        let xs = [5, 1, 3, 10, 30, 20, 7];
        assert_eq!(window_medians(&xs, 3), vec![3.0, 20.0]);
        assert_eq!(window_medians(&xs, 7), vec![7.0], "nearest rank 4 of 7");
    }

    #[test]
    fn fail_ratio_counts_failures_over_attempts() {
        assert_eq!(fail_ratio(0, 25), 0.0);
        assert_eq!(fail_ratio(1, 4), 0.25);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_saturates() {
        assert_eq!(self_time_ns(1_000, &[300, 200]), 500);
        assert_eq!(self_time_ns(1_000, &[]), 1_000);
        assert_eq!(self_time_ns(100, &[80, 80]), 0);
    }
}
