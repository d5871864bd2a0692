//! The benchmark's own statistics: nearest-rank percentiles with the
//! "at least ten samples beyond" reporting rule, medians, and due-time
//! latency accounting for open and closed loops.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`th percentile among `n` samples,
/// clamped to `1..=n`. The product is nudged down before rounding up so
/// that `0.999 * 10_000` lands on 9,990, not 9,991.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether the `p`th percentile of `n` samples may be reported: at
/// least [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` that [`reportable`] allows for `n`
/// samples.
#[must_use]
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| reportable(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of a non-empty sample (mean of the middle pair for even
/// counts). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A latency distribution summary, in the unit of its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, present only when [`reportable`].
    pub p99: Option<f64>,
    /// The highest percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, and its value.
    pub top: Option<(f64, f64)>,
}

/// Summarises latency samples.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = percentile(&v, 50.0)?;
    let p99 = reportable(v.len(), 99.0)
        .then(|| percentile(&v, 99.0))
        .flatten();
    let top = highest_reportable(v.len(), &[50.0, 90.0, 99.0, 99.9, 99.99])
        .and_then(|p| percentile(&v, p).map(|x| (p, x)));
    Some(Summary {
        n: v.len(),
        p50,
        p99,
        top,
    })
}

/// The `p`th percentile of each run of `window` consecutive keys
/// (`keys[i] / window` groups sample `i`), for every window with enough
/// samples to report it.
#[must_use]
pub fn window_percentiles(keys: &[usize], values: &[f64], window: usize, p: f64) -> Vec<f64> {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = std::collections::BTreeMap::new();
    for (&k, &v) in keys.iter().zip(values) {
        groups.entry(k / window.max(1)).or_default().push(v);
    }
    groups
        .into_values()
        .filter(|g| reportable(g.len(), p))
        .filter_map(|mut g| {
            g.sort_by(f64::total_cmp);
            percentile(&g, p)
        })
        .collect()
}

/// Latencies from due times. In an open loop each request is due on
/// its schedule, not when the generator managed to send it, so a stall
/// charges every request queued behind it.
#[must_use]
pub fn open_loop_latencies(due: &[f64], answered: &[f64]) -> Vec<f64> {
    due.iter().zip(answered).map(|(d, a)| a - d).collect()
}

/// Closed-loop due times: request `k` becomes due when it was sent or
/// when request `k - 1` was answered, whichever is later — a server
/// cannot start on it earlier, so time spent queued behind its
/// predecessor is the predecessor's, not its own.
#[must_use]
pub fn closed_loop_due(sent: &[f64], answered: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(sent.len());
    let mut prev_answer = f64::NEG_INFINITY;
    for (&s, &a) in sent.iter().zip(answered) {
        out.push(s.max(prev_answer));
        prev_answer = a;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank ceil(989.01) = 990, 9 beyond — not enough.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!reportable(999, 99.0));
        // 1000 samples: rank 990, 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(reportable(1000, 99.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn highest_reportable_percentile_follows_sample_count() {
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_reportable(19, &c), None);
        assert_eq!(highest_reportable(20, &c), Some(50.0));
        assert_eq!(highest_reportable(100, &c), Some(90.0));
        assert_eq!(highest_reportable(1000, &c), Some(99.0));
        assert_eq!(highest_reportable(10_000, &c), Some(99.9));
    }

    #[test]
    fn summary_omits_an_unsupported_p99() {
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let s = summarize(&small).unwrap();
        assert_eq!(s.n, 500);
        assert_eq!(s.p99, None);
        assert_eq!(s.top.map(|t| t.0), Some(90.0));
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        let s = summarize(&big).unwrap();
        assert_eq!(s.p99, Some(1979.0));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn window_percentiles_skip_windows_too_small_to_report() {
        // Two full windows of 1000 samples and a ragged third of 5.
        let keys: Vec<usize> = (0..2005).collect();
        let values: Vec<f64> = (0..2005).map(|i| f64::from(i % 1000)).collect();
        let p = window_percentiles(&keys, &values, 1000, 99.0);
        assert_eq!(p, vec![989.0, 989.0]);
        // One stalled window moves only its own p99.
        let mut stalled = values.clone();
        for v in &mut stalled[1000..1100] {
            *v = 1e6;
        }
        let p = window_percentiles(&keys, &stalled, 1000, 99.0);
        assert_eq!(p, vec![989.0, 1e6]);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Ten ticks due every 1 ms, each served in 0.1 ms, except that
    /// tick 2 stalls the server for 5 ms. The generator blocked on the
    /// stall, so ticks 3..=7 were *sent* late; timing them from their
    /// send instant would hide the stall.
    #[test]
    fn a_stalled_tick_charges_the_ticks_queued_behind_it() {
        let due: Vec<f64> = (0..10).map(f64::from).collect();
        let mut sent = Vec::new();
        let mut answered = Vec::new();
        let mut server_free = 0.0f64;
        for (k, &d) in due.iter().enumerate() {
            // The generator cannot hand a tick over while the server
            // is stalled: it sends at the later of due time and free.
            let s = d.max(server_free);
            let service = if k == 2 { 5.0 } else { 0.1 };
            let a = s + service;
            server_free = a;
            sent.push(s);
            answered.push(a);
        }
        let lat = open_loop_latencies(&due, &answered);
        // Tick 2 itself takes 5 ms; ticks 3..=7 queue behind it.
        assert!((lat[2] - 5.0).abs() < 1e-9);
        for (k, &l) in lat.iter().enumerate().take(8).skip(3) {
            assert!(l > 0.1 + 1e-9, "tick {k} must carry the stall: {l}");
        }
        // Tick 3 was due at 3 and answered at 7.1.
        assert!((lat[3] - 4.1).abs() < 1e-9);
        // Timing from the send instant loses the queueing entirely.
        let naive: Vec<f64> = sent.iter().zip(&answered).map(|(s, a)| a - s).collect();
        assert!((naive[3] - 0.1).abs() < 1e-9);
        // Once the backlog clears, latency returns to the service time.
        assert!((lat[9] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_due_is_the_later_of_send_and_previous_answer() {
        // All three sent at t=0 (pipelined); answers at 1, 2, 10.
        let answered = [1.0, 2.0, 10.0];
        let due = closed_loop_due(&[0.0, 0.0, 0.0], &answered);
        assert_eq!(due, vec![0.0, 1.0, 2.0]);
        assert_eq!(open_loop_latencies(&due, &answered), vec![1.0, 1.0, 8.0]);
        // A request sent after the previous answer is timed from its send.
        let answered = [1.0, 6.5];
        let due = closed_loop_due(&[0.0, 5.0], &answered);
        assert_eq!(open_loop_latencies(&due, &answered), vec![1.0, 1.5]);
    }
}
