//! The benchmark's own arithmetic: which broadcasts count, how they turn
//! into operations and latency percentiles, and how counters are read
//! from a telemetry snapshot without inventing zeros.

use agb_telemetry::Snapshot;

/// One admitted broadcast as the delivery tracker saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Broadcast {
    /// Admission time at the origin, ms since the run's epoch.
    pub admitted_ms: u64,
    /// Distinct nodes that delivered it (the origin included).
    pub receivers: usize,
    /// Time of its last delivery, ms since the run's epoch.
    pub last_delivery_ms: Option<u64>,
}

/// Whether `receivers` out of a group of `n` is more than 95% of it —
/// the paper's atomicity criterion, in integers so that the boundary is
/// exact.
pub fn is_atomic(receivers: usize, n: usize) -> bool {
    receivers * 100 > n * 95
}

/// The admission times whose broadcasts a run can judge.
///
/// A broadcast admitted in the final `settle` of a run has not had the
/// time to reach the group, so counting it would report the run's end as
/// a delivery failure. The window is `[start, end - settle)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionWindow {
    /// First admission time counted, inclusive.
    pub from_ms: u64,
    /// First admission time no longer counted.
    pub until_ms: u64,
}

impl AdmissionWindow {
    /// The window of a run measured over `[start_ms, end_ms)` whose
    /// broadcasts need up to `settle_ms` to finish.
    pub fn new(start_ms: u64, end_ms: u64, settle_ms: u64) -> Self {
        AdmissionWindow {
            from_ms: start_ms,
            until_ms: end_ms.saturating_sub(settle_ms).max(start_ms),
        }
    }

    /// Whether a broadcast admitted at `at_ms` is judged.
    pub fn contains(&self, at_ms: u64) -> bool {
        (self.from_ms..self.until_ms).contains(&at_ms)
    }

    /// Window length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.until_ms - self.from_ms) as f64 / 1_000.0
    }
}

/// What the judged broadcasts of a run came to.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcomes {
    /// Broadcasts admitted inside the window.
    pub admitted: u64,
    /// Of those, the ones delivered to more than 95% of the group.
    pub atomic: u64,
    /// Admission-to-last-delivery latency per judged broadcast, sorted
    /// ascending; a non-atomic broadcast counts as `+inf`.
    pub latencies_ms: Vec<f64>,
}

impl Outcomes {
    /// Judges every broadcast admitted inside `window` in a group of `n`.
    pub fn judge(
        broadcasts: impl IntoIterator<Item = Broadcast>,
        n: usize,
        window: AdmissionWindow,
    ) -> Self {
        let mut admitted = 0;
        let mut atomic = 0;
        let mut latencies_ms = Vec::new();
        for b in broadcasts {
            if !window.contains(b.admitted_ms) {
                continue;
            }
            admitted += 1;
            let latency = match b.last_delivery_ms {
                Some(last) if is_atomic(b.receivers, n) => {
                    atomic += 1;
                    last.saturating_sub(b.admitted_ms) as f64
                }
                _ => f64::INFINITY,
            };
            latencies_ms.push(latency);
        }
        latencies_ms.sort_by(f64::total_cmp);
        Outcomes {
            admitted,
            atomic,
            latencies_ms,
        }
    }

    /// Fraction of judged broadcasts that were atomic.
    pub fn atomicity(&self) -> Option<f64> {
        (self.admitted > 0).then(|| self.atomic as f64 / self.admitted as f64)
    }

    /// The `q`-quantile of the latencies (see [`quantile_ms`]).
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        quantile_ms(&self.latencies_ms, q)
    }

    /// Operations of the run: its judged broadcasts.
    pub fn ops(&self) -> Ops {
        Ops {
            attempted: self.admitted,
            failed: self.admitted - self.atomic,
        }
    }
}

/// Operations attempted and failed. An operation is one broadcast the
/// protocol admitted in the judged window; it fails when it reaches at
/// most 95% of the group. An offer the adaptive throttle or the sender
/// backlog refuses is the protocol's back-pressure working, not a failed
/// operation; refusals are reported as `core.drops_congestion`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ops {
    /// Judged broadcasts.
    pub attempted: u64,
    /// Judged broadcasts that were not atomic.
    pub failed: u64,
}

/// The `q`-quantile (`0..=1`) of ascending `sorted` values, linearly
/// interpolated between the two nearest ranks. `+inf` entries are valid
/// samples: a quantile that falls on or next to one is `+inf`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (a, b) = (sorted[lo], sorted[hi]);
    Some(if frac == 0.0 {
        a
    } else if a.is_infinite() || b.is_infinite() {
        f64::INFINITY
    } else {
        a + (b - a) * frac
    })
}

/// The `q`-quantile (`0..=1`) of ascending whole-millisecond samples.
///
/// Each sample `v` stands for a time somewhere in `[v - 0.5, v + 0.5)`,
/// so the quantile is placed inside the group of samples it falls in, in
/// proportion to its rank (the grouped-data median, generalised). Unlike
/// a plain order statistic it does not stick to whole milliseconds when
/// many samples tie. A quantile falling among `+inf` samples is `+inf`.
pub fn quantile_ms(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let mut below = 0usize;
    while below < sorted.len() {
        let v = sorted[below];
        let at = sorted[below..].iter().take_while(|&&x| x == v).count();
        if (below + at) as f64 >= target {
            if v.is_infinite() {
                return Some(v);
            }
            return Some(v - 0.5 + (target - below as f64) / at as f64);
        }
        below += at;
    }
    sorted.last().copied()
}

/// `count` per application delivery, absent when nothing was delivered.
pub fn per_delivery(count: u64, deliveries: u64) -> Option<f64> {
    (deliveries > 0).then(|| count as f64 / deliveries as f64)
}

/// The median of `values` (unsorted; `None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sum of every series of counter `name` whose labels include all of
/// `labels`, or `None` when no such series is registered. A registered
/// series that reads 0 is a measured 0; an unregistered one is absent,
/// and the benchmark reports it so instead of printing 0.
pub fn counter(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
    let mut found = None;
    for ((n, series_labels), v) in &snap.counters {
        let matches = n == name
            && labels
                .iter()
                .all(|&(k, val)| series_labels.iter().any(|(sk, sv)| sk == k && sv == val));
        if matches {
            *found.get_or_insert(0) += v;
        }
    }
    found
}

/// Growth of a counter between two snapshots, absent when either
/// snapshot lacks it.
pub fn counter_delta(
    before: &Snapshot,
    after: &Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<u64> {
    Some(counter(after, name, labels)?.saturating_sub(counter(before, name, labels)?))
}

/// Samples and sum added to every series of histogram `name` between two
/// snapshots, absent when the histogram is not registered.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> Option<(u64, f64)> {
    let total = |snap: &Snapshot| {
        let mut found = None;
        for ((n, _), h) in &snap.histograms {
            if n == name {
                let (count, sum) = found.get_or_insert((0u64, 0.0f64));
                *count += h.count;
                *sum += h.sum;
            }
        }
        found
    };
    let (c0, s0) = total(before)?;
    let (c1, s1) = total(after)?;
    Some((c1.saturating_sub(c0), s1 - s0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_telemetry::Registry;

    fn b(admitted_ms: u64, receivers: usize, last: u64) -> Broadcast {
        Broadcast {
            admitted_ms,
            receivers,
            last_delivery_ms: Some(last),
        }
    }

    #[test]
    fn atomic_means_strictly_more_than_95_percent() {
        assert!(!is_atomic(9_500, 10_000));
        assert!(is_atomic(9_501, 10_000));
        assert!(!is_atomic(15, 16));
        assert!(is_atomic(16, 16));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn millisecond_quantiles_spread_ties_over_their_millisecond() {
        // Ten samples, six of them tied at 88 ms.
        let v = [86.0, 87.0, 87.0, 88.0, 88.0, 88.0, 88.0, 88.0, 88.0, 90.0];
        // Rank 5 of 10 is the 2nd of the 6 ties: 87.5 + 2/6.
        let p50 = quantile_ms(&v, 0.5).expect("samples");
        assert!((p50 - (87.5 + 2.0 / 6.0)).abs() < 1e-12, "p50 {p50}");
        assert_eq!(quantile_ms(&v, 0.0), Some(85.5));
        assert_eq!(quantile_ms(&v, 1.0), Some(90.5));
        assert_eq!(quantile_ms(&v, 0.1), Some(86.5));
        assert_eq!(quantile_ms(&[], 0.5), None);
        assert_eq!(quantile_ms(&[5.0, f64::INFINITY], 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn non_atomic_broadcasts_are_infinite_latencies() {
        let window = AdmissionWindow::new(0, 10_000, 0);
        // 98 atomic broadcasts at 100..=197 ms, two that reached 50%.
        let mut all: Vec<Broadcast> = (0..98).map(|i| b(0, 10, 100 + i)).collect();
        all.push(b(0, 5, 50));
        all.push(Broadcast {
            admitted_ms: 0,
            receivers: 1,
            last_delivery_ms: None,
        });
        let o = Outcomes::judge(all, 10, window);
        assert_eq!((o.admitted, o.atomic), (100, 98));
        assert_eq!(o.latencies_ms.len(), 100);
        // The median ignores the tail; p99 falls among the +inf samples.
        assert_eq!(o.latency_ms(0.5), Some(149.5));
        assert_eq!(o.latency_ms(0.99), Some(f64::INFINITY));
        assert_eq!(o.latency_ms(0.98), Some(197.5));
        assert_eq!(o.latency_ms(0.975), Some(197.0));
        assert_eq!(o.atomicity(), Some(0.98));
    }

    #[test]
    fn admission_window_drops_broadcasts_too_young_to_finish() {
        let window = AdmissionWindow::new(1_000, 10_000, 2_000);
        assert_eq!(window.until_ms, 8_000);
        assert!(!window.contains(999));
        assert!(window.contains(1_000));
        assert!(window.contains(7_999));
        assert!(!window.contains(8_000));
        assert_eq!(window.seconds(), 7.0);
        // A young broadcast that reached nobody yet is excluded, not
        // counted as a failure.
        let o = Outcomes::judge([b(2_000, 10, 2_100), b(9_500, 1, 9_500)], 10, window);
        assert_eq!((o.admitted, o.atomic), (1, 1));
        // A settle longer than the run leaves an empty window.
        let empty = AdmissionWindow::new(1_000, 2_000, 5_000);
        assert!(!empty.contains(1_000));
        assert_eq!(
            Outcomes::judge([b(1_000, 10, 1_010)], 10, empty).atomicity(),
            None
        );
    }

    #[test]
    fn judged_broadcasts_are_ops_and_partial_ones_fail() {
        let window = AdmissionWindow::new(0, 1_000, 0);
        // The last one is admitted too late to be judged.
        let o = Outcomes::judge(
            [b(0, 10, 5), b(1, 10, 6), b(2, 9, 7), b(1_000, 10, 1_005)],
            10,
            window,
        );
        assert_eq!(
            o.ops(),
            Ops {
                attempted: 3,
                failed: 1
            }
        );
        assert_eq!(per_delivery(3, 12), Some(0.25));
        assert_eq!(per_delivery(0, 12), Some(0.0));
        assert_eq!(per_delivery(3, 0), None);
    }

    #[test]
    fn an_unregistered_series_is_absent_not_zero() {
        let r = Registry::new();
        let refused = r.counter("agb_offers_refused_total", "h", &[("node", "0")]);
        r.counter("agb_drops_total", "h", &[("cause", "age"), ("node", "0")])
            .add(3);
        r.counter("agb_drops_total", "h", &[("cause", "age"), ("node", "1")])
            .add(4);
        r.counter("agb_drops_total", "h", &[("cause", "size"), ("node", "1")])
            .add(5);
        let before = r.snapshot();
        refused.add(2);
        let after = r.snapshot();
        // Registered and never incremented: a measured 0.
        assert_eq!(counter(&before, "agb_offers_refused_total", &[]), Some(0));
        assert_eq!(
            counter_delta(&before, &after, "agb_offers_refused_total", &[]),
            Some(2)
        );
        // Never registered: absent, although a plain sum would read 0.
        assert_eq!(after.counter_sum("agb_duplicates_total"), 0);
        assert_eq!(counter(&after, "agb_duplicates_total", &[]), None);
        assert_eq!(
            counter_delta(&before, &after, "agb_duplicates_total", &[]),
            None
        );
        // Label filters sum across the other labels.
        assert_eq!(
            counter(&after, "agb_drops_total", &[("cause", "age")]),
            Some(7)
        );
        assert_eq!(
            counter(&after, "agb_drops_total", &[("cause", "nope")]),
            None
        );
        assert_eq!(
            histogram_delta(&before, &after, "agb_loop_iteration_seconds"),
            None
        );
    }
}
