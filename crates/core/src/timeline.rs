//! Per-device schedule timelines with idle-slot insertion.
//!
//! The paper's `avail[j]` "is not the time when d_j completes the execution
//! of its last assigned operation: it is possible for our algorithm to insert
//! an operation into an earliest idle time slot between two already-scheduled
//! operations on a device" (Sec. 5.1). This module implements that exact
//! insertion policy.

/// The scheduled busy intervals of one device, kept sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    /// Disjoint, sorted `(start, end)` busy intervals. Being disjoint and
    /// sorted by start, their ends are non-decreasing too, which is what
    /// lets [`DeviceTimeline::earliest_slot`] binary-search its first gap.
    intervals: Vec<(f64, f64)>,
}

impl DeviceTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest start time `t ≥ ready` such that `[t, t + duration)` fits
    /// entirely in an idle gap (possibly between two scheduled ops, possibly
    /// after the last one).
    ///
    /// Intervals ending at or before `ready` cannot move the answer, so the
    /// scan starts at the first one ending after it: O(log n) to find the
    /// start plus one step per interval the op does not fit before.
    pub fn earliest_slot(&self, ready: f64, duration: f64) -> f64 {
        let first = self.intervals.partition_point(|&(_, e)| e <= ready);
        let mut t = ready;
        for &(s, e) in &self.intervals[first..] {
            if t + duration <= s {
                // fits in the gap before this interval
                return t;
            }
            if e > t {
                t = e;
            }
        }
        t
    }

    /// Reserves `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the reservation overlaps an existing
    /// interval — callers must reserve at a time returned by
    /// [`DeviceTimeline::earliest_slot`].
    pub fn reserve(&mut self, start: f64, duration: f64) {
        let end = start + duration;
        let idx = self.intervals.partition_point(|&(s, _)| s < start);
        debug_assert!(
            idx == 0 || self.intervals[idx - 1].1 <= start + 1e-12,
            "overlaps previous interval"
        );
        debug_assert!(
            idx == self.intervals.len() || end <= self.intervals[idx].0 + 1e-12,
            "overlaps next interval"
        );
        if duration > 0.0 {
            self.intervals.insert(idx, (start, end));
            debug_assert!(
                (idx == 0 || self.intervals[idx - 1].1 <= end)
                    && self.intervals.get(idx + 1).is_none_or(|&(_, e)| end <= e),
                "interval ends must stay non-decreasing"
            );
        }
    }

    /// Time when the last scheduled interval ends (0 if empty).
    pub fn horizon(&self) -> f64 {
        self.intervals.last().map(|&(_, e)| e).unwrap_or(0.0)
    }

    /// Total scheduled busy time.
    pub fn busy_time(&self) -> f64 {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of scheduled intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-index gap search, scanning from the first interval: the
    /// reference [`DeviceTimeline::earliest_slot`] must agree with.
    fn earliest_slot_linear(t: &DeviceTimeline, ready: f64, duration: f64) -> f64 {
        let mut at = ready;
        for &(s, e) in &t.intervals {
            if at + duration <= s {
                return at;
            }
            if e > at {
                at = e;
            }
        }
        at
    }

    /// Probes before, inside, at the edges of and after the busy span, and
    /// checks the indexed search against the linear one bit for bit.
    fn assert_probes_agree(t: &DeviceTimeline, rng: &mut StdRng) {
        let mut readies = vec![0.0, t.horizon(), t.horizon() + 1.0];
        for &(s, e) in &t.intervals {
            readies.extend([s, e, (s + e) / 2.0, s - 0.25]);
        }
        for _ in 0..8 {
            readies.push(rng.gen_range(-1.0..t.horizon() + 2.0));
        }
        for ready in readies {
            for duration in [0.0, 0.25, 1.0, rng.gen_range(0.0..4.0), 1e9] {
                let fast = t.earliest_slot(ready, duration);
                let slow = earliest_slot_linear(t, ready, duration);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "ready {ready} duration {duration} on {:?}",
                    t.intervals
                );
            }
        }
    }

    #[test]
    fn indexed_slot_search_matches_linear_scan() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // insertion = true: reserve wherever the search says, with
            // zero-duration ops and exact-fit (touching) reservations mixed in
            let mut t = DeviceTimeline::new();
            for _ in 0..40 {
                let ready = rng.gen_range(0.0..30.0);
                let duration = match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0..3.0),
                };
                let start = t.earliest_slot(ready, duration);
                assert_eq!(
                    start.to_bits(),
                    earliest_slot_linear(&t, ready, duration).to_bits()
                );
                t.reserve(start, duration);
                assert_probes_agree(&t, &mut rng);
            }
            // insertion = false: append at the horizon only
            let mut append = DeviceTimeline::new();
            for _ in 0..20 {
                let ready = rng.gen_range(0.0..20.0);
                let duration = rng.gen_range(0.0..2.0);
                append.reserve(ready.max(append.horizon()), duration);
                assert_probes_agree(&append, &mut rng);
            }
        }
    }

    #[test]
    fn touching_intervals_leave_no_gap() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 1.0);
        t.reserve(1.0, 1.0);
        t.reserve(3.0, 1.0);
        assert_eq!(t.earliest_slot(0.0, 1.0), 2.0);
        assert_eq!(t.earliest_slot(1.0, 0.5), 2.0);
        // a ready time exactly at an interval's end skips it
        assert_eq!(t.earliest_slot(2.0, 1.0), 2.0);
        assert_eq!(t.earliest_slot(2.0, 1.5), 4.0);
    }

    #[test]
    fn appends_after_ready_time() {
        let mut t = DeviceTimeline::new();
        assert_eq!(t.earliest_slot(5.0, 2.0), 5.0);
        t.reserve(5.0, 2.0);
        assert_eq!(t.earliest_slot(0.0, 1.0), 0.0); // gap before 5.0
        assert_eq!(t.earliest_slot(6.0, 1.0), 7.0); // mid-interval pushes out
    }

    #[test]
    fn inserts_into_sufficient_gap() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 2.0);
        t.reserve(10.0, 2.0);
        // a 3-second op fits in the [2, 10) gap
        assert_eq!(t.earliest_slot(0.0, 3.0), 2.0);
        // a 9-second op does not; it goes after everything
        assert_eq!(t.earliest_slot(0.0, 9.0), 12.0);
    }

    #[test]
    fn gap_too_short_is_skipped() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 1.0);
        t.reserve(2.0, 1.0);
        t.reserve(5.0, 1.0);
        // 1.5s doesn't fit in [1,2) but fits in [3,5)
        assert_eq!(t.earliest_slot(0.0, 1.5), 3.0);
    }

    #[test]
    fn respects_ready_time_inside_gap() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 1.0);
        t.reserve(10.0, 1.0);
        assert_eq!(t.earliest_slot(4.0, 2.0), 4.0);
        // ready late in the gap such that it no longer fits
        assert_eq!(t.earliest_slot(9.5, 2.0), 11.0);
    }

    #[test]
    fn zero_duration_ops_do_not_pollute() {
        let mut t = DeviceTimeline::new();
        t.reserve(1.0, 0.0);
        assert!(t.is_empty());
        assert_eq!(t.horizon(), 0.0);
    }

    #[test]
    fn busy_time_and_horizon() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 2.0);
        t.reserve(5.0, 3.0);
        assert_eq!(t.busy_time(), 5.0);
        assert_eq!(t.horizon(), 8.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reserving_returned_slots_never_overlaps() {
        let mut t = DeviceTimeline::new();
        let durations = [3.0, 1.0, 4.0, 1.5, 0.5, 2.0, 8.0];
        for (i, &d) in durations.iter().enumerate() {
            let ready = (i as f64 * 1.3) % 4.0;
            let s = t.earliest_slot(ready, d);
            t.reserve(s, d); // debug_asserts verify no overlap
        }
        assert_eq!(t.len(), durations.len());
    }
}
