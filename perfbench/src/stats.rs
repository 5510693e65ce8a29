//! Sample statistics and the fixed-ladder capacity rule.
//!
//! Every end-to-end quantile comes from the benchmark's own per-request or
//! per-call timings (never from a server's bucketed histograms), and every
//! quantile travels with the number of samples it rests on.

/// Nearest-rank quantile of an ascending-sorted slice: the smallest value
/// with at least `q·n` samples at or below it. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps exact ranks (0.99 · 100) from rounding up.
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Highest percentile (out of 50, 90, 95, 99, 99.9) that leaves at least
/// ten samples beyond it — the tail a sample of `n` supports.
pub fn supported_tail(n: usize) -> Option<f64> {
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// A timing distribution: median, a stated tail quantile, and the sample
/// count both rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// Which quantile `tail` is (e.g. 0.99).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `values` at the given tail quantile. `None` when empty.
    pub fn at(values: &[f64], tail_q: f64) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            count: v.len(),
            p50: quantile_sorted(&v, 0.5)?,
            tail_q,
            tail: quantile_sorted(&v, tail_q)?,
        })
    }

    /// Label for the tail quantile, e.g. `p99` or `p99.9`.
    pub fn tail_label(&self) -> String {
        let pct = self.tail_q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round())
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Whether enough set-ups have been timed for a steady median: at least
/// three, and more (up to 200) while their total stays under three seconds.
pub fn enough_setups(times: &[f64]) -> bool {
    times.len() >= 200 || (times.len() >= 3 && times.iter().sum::<f64>() >= 3.0)
}

/// A latency summary that resists short bursts of machine noise: with at
/// least two full windows of `window` samples, the median over windows of
/// each window's p50 and `tail_q` quantile; otherwise one window at the
/// highest tail the count supports, at most `tail_q`. Returns the summary
/// and the number of windows.
pub fn windowed(values: &[f64], window: usize, tail_q: f64) -> Option<(Summary, usize)> {
    let k = values.len() / window.max(1);
    if k < 2 {
        let q = supported_tail(values.len())?.min(tail_q);
        return Some((Summary::at(values, q)?, 1));
    }
    let parts: Vec<Summary> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                values.len()
            } else {
                (i + 1) * window
            };
            Summary::at(&values[i * window..end], tail_q).expect("non-empty window")
        })
        .collect();
    let p50s: Vec<f64> = parts.iter().map(|s| s.p50).collect();
    let tails: Vec<f64> = parts.iter().map(|s| s.tail).collect();
    Some((
        Summary {
            count: values.len(),
            p50: median(&p50s)?,
            tail_q,
            tail: median(&tails)?,
        },
        k,
    ))
}

/// An ascending geometric ladder of rates: `from`, `from·ratio`, … up to
/// `to`, each rounded to 0.1.
pub fn geometric_ladder(from: f64, ratio: f64, to: f64) -> Vec<f64> {
    assert!(from > 0.0 && ratio > 1.0 && to >= from);
    let mut ladder = Vec::new();
    let mut r = from;
    while r <= to * (1.0 + 1e-9) {
        ladder.push((r * 10.0).round() / 10.0);
        r *= ratio;
    }
    ladder
}

/// Outcome of one open-loop phase at one offered rate.
#[derive(Clone, Debug)]
pub struct RungResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed (errors, refusals, mismatches).
    pub failed: usize,
    /// Tail of client latency from the scheduled send time, ms: p99, or
    /// the highest percentile the phase's sample supports.
    pub tail_ms: f64,
    /// Generator lateness (actual send − scheduled send) per request, ms,
    /// in schedule order.
    pub late_ms: Vec<f64>,
}

/// Whether the generator fell progressively further behind its schedule:
/// the median lateness of each quarter of the requests exceeds the one
/// before, and the last quarter's exceeds the first's by more than half
/// the latency limit. A system past capacity accumulates a queue, so its
/// lateness climbs quarter after quarter; a system that keeps up shows
/// flat lateness, and a burst of machine noise raises one quarter, not
/// all of them in turn.
pub fn backlog_grows(late_ms: &[f64], limit_ms: f64) -> bool {
    let q = late_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let m: Vec<f64> = (0..4)
        .map(|i| median(&late_ms[i * q..(i + 1) * q]).unwrap_or(0.0))
        .collect();
    m.windows(2).all(|w| w[1] > w[0]) && m[3] - m[0] > 0.5 * limit_ms
}

/// Whether a rung meets the service level: nothing failed, the latency
/// tail within the limit, and no growing backlog.
pub fn rung_passes(r: &RungResult, limit_ms: f64) -> bool {
    r.attempted > 0
        && r.failed == 0
        && r.tail_ms <= limit_ms
        && !backlog_grows(&r.late_ms, limit_ms)
}

/// Searches a fixed ascending `ladder` of offered rates for the highest
/// rung that meets the service level, by bisection over rung indices:
/// `probe(rate)` runs one phase and reports it. Rungs below a passing rung
/// are taken to pass and rungs above a failing one to fail, so at most
/// ⌈log₂(len+1)⌉ phases run. `known` seeds the search with phases already
/// run (e.g. the reference rate). Returns the highest passing rate (0 when
/// even the lowest rung fails) and every phase that ran, in order.
pub fn max_rate_at_slo(
    ladder: &[f64],
    limit_ms: f64,
    known: Vec<RungResult>,
    mut probe: impl FnMut(f64) -> RungResult,
) -> (f64, Vec<RungResult>) {
    // lo: highest index known to pass (or -1); hi: lowest known to fail
    // (or len).
    let mut lo: isize = -1;
    let mut hi: isize = ladder.len() as isize;
    let mut ran = Vec::new();
    let learn = |r: RungResult, lo: &mut isize, hi: &mut isize, ran: &mut Vec<RungResult>| {
        if let Some(i) = ladder.iter().position(|&x| x == r.rate) {
            let i = i as isize;
            if rung_passes(&r, limit_ms) {
                *lo = (*lo).max(i);
            } else {
                *hi = (*hi).min(i);
            }
            // A noisy pass above a fail is discarded: the boundary stays
            // below the lowest failure seen.
            if *lo >= *hi {
                *lo = *hi - 1;
            }
        }
        ran.push(r);
    };
    for r in known {
        learn(r, &mut lo, &mut hi, &mut ran);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let r = probe(ladder[mid as usize]);
        learn(r, &mut lo, &mut hi, &mut ran);
    }
    let best = if lo >= 0 { ladder[lo as usize] } else { 0.0 };
    (best, ran)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn summary_counts_and_sorts() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::at(&v, 0.99).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(Summary::at(&[], 0.99), None);
    }

    #[test]
    fn supported_tail_leaves_ten_samples_beyond() {
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(9_999), Some(0.99));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
        let s = Summary::at(&[1.0; 250], supported_tail(250).expect("supported")).expect("summary");
        assert_eq!(s.tail_label(), "p95");
        assert_eq!(
            Summary::at(&[1.0], 0.999).map(|s| s.tail_label()),
            Some("p99.9".into())
        );
    }

    #[test]
    fn windowed_summary_takes_median_over_windows() {
        // Four windows of 100; one has a burst that dominates its p99.
        let mut v = vec![1.0; 400];
        for x in &mut v[100..110] {
            *x = 50.0;
        }
        let (s, k) = windowed(&v, 100, 0.99).expect("summary");
        assert_eq!(k, 4);
        assert_eq!(s.count, 400);
        assert_eq!(s.tail, 1.0);
        assert_eq!(Summary::at(&v, 0.99).expect("summary").tail, 50.0);
        // Too few for two windows: one window at the supported tail.
        let (s, k) = windowed(&v[..150], 100, 0.99).expect("summary");
        assert_eq!((k, s.tail_q), (1, 0.9));
        let (s, _) = windowed(&vec![2.0; 5000], 10_000, 0.99).expect("summary");
        assert_eq!(s.tail_q, 0.99);
        let (s, k) = windowed(&vec![2.0; 5000], 1000, 0.95).expect("summary");
        assert_eq!((k, s.tail_q), (5, 0.95));
        assert!(windowed(&[1.0; 5], 100, 0.99).is_none());
    }

    #[test]
    fn geometric_ladder_is_fixed_and_ascending() {
        let l = geometric_ladder(100.0, 1.1, 150.0);
        assert_eq!(l, vec![100.0, 110.0, 121.0, 133.1, 146.4]);
        assert_eq!(l, geometric_ladder(100.0, 1.1, 150.0));
    }

    fn rung(rate: f64, tail_ms: f64, failed: usize, late_ms: Vec<f64>) -> RungResult {
        RungResult {
            rate,
            attempted: 100,
            failed,
            tail_ms,
            late_ms,
        }
    }

    #[test]
    fn backlog_detection() {
        assert!(!backlog_grows(&[0.1; 100], 10.0));
        // Lateness climbing linearly to 50 ms: a queue that never drains.
        let climbing: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5).collect();
        assert!(backlog_grows(&climbing, 10.0));
        // A single late burst in the middle is not a growing backlog, nor
        // is a noisy last quarter.
        let mut burst = vec![0.2; 100];
        burst[50] = 40.0;
        assert!(!backlog_grows(&burst, 10.0));
        let mut tail = vec![0.2; 100];
        for x in &mut tail[75..] {
            *x = 30.0;
        }
        assert!(!backlog_grows(&tail, 10.0));
        assert!(!backlog_grows(&[100.0; 3], 10.0));
    }

    #[test]
    fn rung_pass_conditions() {
        assert!(rung_passes(&rung(10.0, 5.0, 0, vec![0.0; 40]), 10.0));
        assert!(!rung_passes(&rung(10.0, 11.0, 0, vec![0.0; 40]), 10.0));
        assert!(!rung_passes(&rung(10.0, 5.0, 1, vec![0.0; 40]), 10.0));
        let climbing: Vec<f64> = (0..40).map(f64::from).collect();
        assert!(!rung_passes(&rung(10.0, 5.0, 0, climbing), 10.0));
    }

    /// A synthetic system whose p99 is fine up to `cap` and whose backlog
    /// grows beyond it.
    fn system(cap: f64) -> impl FnMut(f64) -> RungResult {
        move |rate| {
            if rate <= cap {
                rung(rate, 4.0, 0, vec![0.1; 40])
            } else {
                rung(rate, 4.0, 0, (0..40).map(f64::from).collect())
            }
        }
    }

    #[test]
    fn ladder_selects_highest_passing_rung() {
        let ladder = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0];
        for (cap, want) in [(0.0, 0.0), (100.0, 100.0), (450.0, 400.0), (900.0, 700.0)] {
            let mut probes = 0;
            let mut sys = system(cap);
            let (best, ran) = max_rate_at_slo(&ladder, 10.0, Vec::new(), |r| {
                probes += 1;
                sys(r)
            });
            assert_eq!(best, want, "cap {cap}");
            assert_eq!(ran.len(), probes);
            assert!(probes <= 3, "bisection over 7 rungs takes ≤3 probes");
        }
    }

    #[test]
    fn ladder_uses_known_results_and_backlog() {
        let ladder = [100.0, 200.0, 300.0, 400.0];
        // The reference rung is already known to pass; only rungs above it
        // are probed. 400 fails on backlog alone (p99 within the limit).
        let known = vec![rung(200.0, 3.0, 0, vec![0.0; 40])];
        let mut probed = Vec::new();
        let mut sys = system(300.0);
        let (best, ran) = max_rate_at_slo(&ladder, 10.0, known, |r| {
            probed.push(r);
            sys(r)
        });
        assert_eq!(best, 300.0);
        assert_eq!(probed, vec![300.0, 400.0]);
        assert_eq!(ran.len(), 3);
    }

    #[test]
    fn ladder_failure_at_reference_searches_below() {
        let ladder = [100.0, 200.0, 300.0, 400.0];
        let known = vec![rung(300.0, 50.0, 0, vec![0.0; 40])];
        let (best, _) = max_rate_at_slo(&ladder, 10.0, known, system(150.0));
        assert_eq!(best, 100.0);
    }
}
