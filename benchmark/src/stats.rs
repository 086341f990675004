//! Order statistics used by every workload: medians, interpolated
//! percentiles, the quartile spread the A/A check is judged by, and the
//! per-window quartiles that steady a timing on a shared host.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` in `[0, 1]` of an ascending slice, linearly
/// interpolated between the two neighbouring ranks (rank `q·(n-1)`).
/// Returns 0.0 for an empty slice.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0].into(),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let (below, above): (f64, f64) = (sorted[lo].into(), sorted[hi].into());
            below + (above - below) * (pos - lo as f64)
        }
    }
}

/// [`percentile_sorted`] over unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (its default "exclusive" method), which is what the acceptance
/// check of the benchmark contract computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread each end-to-end metric is held to.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let med = median(values);
    if med == 0.0 {
        return None;
    }
    Some((q3 - q1).abs() / med.abs())
}

/// The time a run reports for a unit of work it timed hundreds of times
/// over: that of the fastest unit.
///
/// Why the fastest and not the mean or the median: the machines this runs
/// on are guests of a shared host. A neighbour takes the CPU, or half of
/// the core's execution units, for anything from a millisecond to minutes
/// at a time; that lengthens the units it touches and never shortens one.
/// Disturbance is one-sided, so the fastest unit is the one that measured
/// the program rather than the neighbour — the reasoning behind taking the
/// minimum of repeated timings, as Python's `timeit` advises — and a run
/// needs one undisturbed unit to read the same as a quiet run. That is why
/// units are kept to 3-20 ms, short enough to fall between a neighbour's
/// bursts: ten runs of each workload on the reference machine spread
/// (quartile distance over median) by 5-17% on their median unit and by
/// 1-7% on their fastest, and `replay_stream` by 10% on the fastest of its
/// units when they were 13 ms long and by 4% at 3.4 ms.
/// A unit is the same deterministic work every time — thousands of records
/// or probes, not one operation — so nothing but an undisturbed machine
/// makes one fast, and a change to the program moves every unit, the
/// fastest with them.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The figure a serving run reports from its windows: the one a twentieth
/// of them beat (the 95th percentile, for figures where higher is better).
///
/// The reason is the one [`fastest`] gives, but a window is not a
/// self-contained unit: replies held up by a stall arrive in the next
/// window and make it read better than the server is, so the very best
/// window is not to be trusted either. Over ten runs of `serve_mix` on the
/// reference machine the share of queries within the latency limit spread
/// by 2-3% on the 95th-percentile window, by 6% on the median window and
/// by 4-6% taken over the whole run.
pub fn sustained(window_figures: &[f64]) -> f64 {
    percentile(window_figures, 0.95)
}

/// Completion rates per time slice, from each slice's completion count
/// and the instant (seconds) of its *first* completion; `first_s` has one
/// more entry than `counts`, for the slice after the last.
///
/// Slice `k`'s rate is its count over the time from its first completion
/// to the next slice's first completion. Cutting at completions rather
/// than at the nominal boundaries keeps whole bursts together — a server
/// that answers 32 queries at a time would otherwise read 6% high or low
/// depending on which side of a boundary a burst fell — and does not
/// quantise the rate to whole completions per slice. A slice with no
/// completions, or with none after it, falls back to `count / slice_s`.
pub fn slice_rates(counts: &[u64], first_s: &[Option<f64>], slice_s: f64) -> Vec<f64> {
    counts
        .iter()
        .enumerate()
        .map(|(k, &count)| match (first_s.get(k), first_s.get(k + 1)) {
            (Some(Some(from)), Some(Some(to))) if to > from => count as f64 / (to - from),
            _ => count as f64 / slice_s,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 6.0);
        assert_eq!(percentile_sorted(&v, 0.9), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 11.0);
        // Rank 0.25·3 = 0.75 → three quarters of the way from 10 to 20.
        assert_eq!(percentile_sorted(&[10.0, 20.0, 30.0, 40.0], 0.25), 17.5);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 0.25), 17.5);
        assert_eq!(percentile_sorted(&[10u32, 20, 30, 40], 0.25), 17.5);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), Some((3.0, 4.0, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&v), Some(5.5 / 5.5));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn the_reported_figures_shrug_off_disturbed_units_and_windows() {
        // Ten units of 10 ms, nine of them lengthened by a neighbour.
        let mut units = vec![0.015, 0.012, 0.020, 0.011, 0.010, 0.030];
        units.extend([0.013, 0.014, 0.012, 0.018]);
        assert_eq!(fastest(&units), 0.010);
        // Every unit slower: the figure moves with them.
        assert_eq!(fastest(&[0.02; 10]), 0.02);
        assert_eq!(fastest(&[]), 0.0);
        // A hundred windows, most of them disturbed, one reading high on
        // the replies a stall held back: the reported rate is that of the
        // undisturbed windows.
        let mut rates = vec![120_000.0; 85];
        rates.extend([200_000.0; 14]);
        rates.push(260_000.0);
        assert_eq!(sustained(&rates), 200_000.0);
        assert_eq!(sustained(&[150_000.0; 100]), 150_000.0);
    }

    #[test]
    fn slice_rates_cut_at_completions_and_their_median_ignores_a_stall() {
        // Bursts of 32 every 64 ms: slice 0 holds 16 bursts (first at
        // 0.010 s), slice 1 holds 15 (first at 1.034 s), the slice after
        // starts at 1.994 s. Counting per nominal second would read 512
        // and 480; cut at completions both read 500.
        let rates = slice_rates(&[512, 480], &[Some(0.010), Some(1.034), Some(1.994)], 1.0);
        assert_eq!(rates, vec![500.0, 500.0]);
        // Nothing after the last slice, or an empty slice: count / slice.
        assert_eq!(slice_rates(&[100], &[Some(0.5), None], 2.0), vec![50.0]);
        assert_eq!(slice_rates(&[0], &[None, Some(1.5)], 1.0), vec![0.0]);
        // Nine slices at 200k and one stalled slice: the mean would read
        // 182k, the median over slices still reads 200k.
        let mut rates = vec![200_000.0; 9];
        rates.push(20_000.0);
        assert_eq!(median(&rates), 200_000.0);
    }
}
