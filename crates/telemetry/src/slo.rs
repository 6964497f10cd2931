//! Multi-window SLO burn-rate tracking.
//!
//! An SLO gives each stream a *budget*: the fraction of requests allowed
//! to go bad (miss a deadline, shed, violate an envelope). The burn rate
//! over a window is the observed bad fraction divided by that budget —
//! `1.0` means the stream is consuming budget exactly as fast as the SLO
//! allows, `10.0` means ten times faster. Alerting on a single window is
//! a known trap: a short window pages on noise, a long window pages an
//! hour late. The standard fix is multi-window burn alerts — fire only
//! when *both* a fast and a slow window are over threshold — which is
//! what [`BurnTracker::alerting`] checks, with [`BurnTracker::max_burn`]
//! as the single worst-window reading.
//!
//! Time is an explicit `now_s: f64` parameter rather than `Instant`, so
//! servers feed modelled/simulated clocks and tests are deterministic.

/// Event-bucketed burn-rate tracker for one stream (tenant × priority).
///
/// Events land in coarse time buckets (one per `granularity_s`); the
/// ring holds enough buckets to cover the slowest window. Memory is
/// fixed, record cost is O(1), queries are O(ring).
#[derive(Debug, Clone)]
pub struct BurnTracker {
    /// Allowed bad fraction (e.g. `0.01` = 1% error budget).
    budget: f64,
    windows_s: Vec<f64>,
    granularity_s: f64,
    /// (bucket_index, total, bad) per slot; bucket_index stamps validity.
    ring: Vec<(u64, u64, u64)>,
}

impl BurnTracker {
    /// Tracker over `windows_s` (seconds, need not be sorted).
    /// Bucket granularity is 1/10 of the fastest window so the fast
    /// window still has resolution.
    pub fn with_windows(budget: f64, windows_s: &[f64]) -> Self {
        assert!(!windows_s.is_empty(), "need at least one window");
        let budget = budget.max(1e-9);
        let fastest = windows_s.iter().cloned().fold(f64::INFINITY, f64::min);
        let slowest = windows_s.iter().cloned().fold(0.0, f64::max);
        let granularity_s = (fastest / 10.0).max(1e-3);
        let slots = ((slowest / granularity_s).ceil() as usize + 2).max(4);
        BurnTracker {
            budget,
            windows_s: windows_s.to_vec(),
            granularity_s,
            ring: vec![(u64::MAX, 0, 0); slots],
        }
    }

    fn bucket_index(&self, now_s: f64) -> u64 {
        (now_s.max(0.0) / self.granularity_s) as u64
    }

    /// Record one request outcome at `now_s`.
    pub fn record(&mut self, now_s: f64, bad: bool) {
        let idx = self.bucket_index(now_s);
        let slot = (idx % self.ring.len() as u64) as usize;
        let entry = &mut self.ring[slot];
        if entry.0 != idx {
            // Slot holds a stale bucket from a previous lap; recycle it.
            *entry = (idx, 0, 0);
        }
        entry.1 += 1;
        entry.2 += bad as u64;
    }

    /// `(total, bad)` over the trailing `window_s` ending at `now_s`.
    pub fn window_counts(&self, window_s: f64, now_s: f64) -> (u64, u64) {
        let hi = self.bucket_index(now_s);
        let span = (window_s / self.granularity_s).ceil() as u64;
        let lo = hi.saturating_sub(span.saturating_sub(1));
        let mut total = 0;
        let mut bad = 0;
        for &(idx, t, b) in &self.ring {
            if idx != u64::MAX && idx >= lo && idx <= hi {
                total += t;
                bad += b;
            }
        }
        (total, bad)
    }

    /// Burn rate over the trailing `window_s`: bad-fraction / budget.
    /// `0.0` when the window saw no traffic.
    pub fn burn_rate(&self, window_s: f64, now_s: f64) -> f64 {
        let (total, bad) = self.window_counts(window_s, now_s);
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.budget
    }

    /// Worst burn rate across all configured windows.
    pub fn max_burn(&self, now_s: f64) -> f64 {
        self.windows_s
            .iter()
            .map(|&w| self.burn_rate(w, now_s))
            .fold(0.0, f64::max)
    }

    /// Multiwindow alert: true only when *every* window burns at or
    /// above `threshold` — the fast window proves it is happening now,
    /// the slow window proves it is not a blip.
    pub fn alerting(&self, threshold: f64, now_s: f64) -> bool {
        self.windows_s
            .iter()
            .all(|&w| self.burn_rate(w, now_s) >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut t = BurnTracker::with_windows(0.1, &[10.0]);
        for i in 0..100 {
            t.record(i as f64 * 0.05, i % 5 == 0); // 20% bad
        }
        let b = t.burn_rate(10.0, 5.0);
        assert!((b - 2.0).abs() < 1e-9, "{b}");
        assert_eq!(t.window_counts(10.0, 5.0), (100, 20));
    }

    #[test]
    fn empty_window_burns_zero() {
        let t = BurnTracker::with_windows(0.01, &[5.0, 60.0, 300.0]);
        assert_eq!(t.burn_rate(5.0, 100.0), 0.0);
        assert_eq!(t.max_burn(100.0), 0.0);
        assert!(!t.alerting(1.0, 100.0));
    }

    #[test]
    fn old_events_age_out_of_fast_window() {
        let mut t = BurnTracker::with_windows(0.1, &[5.0, 60.0]);
        // A burst of failures at t=0..1, then clean traffic.
        for i in 0..10 {
            t.record(i as f64 * 0.1, true);
        }
        for i in 0..100 {
            t.record(2.0 + i as f64 * 0.2, false);
        }
        let fast = t.burn_rate(5.0, 22.0);
        let slow = t.burn_rate(60.0, 22.0);
        assert_eq!(fast, 0.0, "burst left the 5s window");
        assert!(slow > 0.0, "burst still inside the 60s window");
        assert!(t.max_burn(22.0) >= slow);
    }

    #[test]
    fn multiwindow_alert_needs_both_windows() {
        let mut t = BurnTracker::with_windows(0.1, &[5.0, 60.0]);
        // Sustained 100% failure: both windows burn at 10x.
        for i in 0..200 {
            t.record(i as f64 * 0.25, true);
        }
        assert!(t.alerting(5.0, 50.0));
        // Quiet period: fast window empties, alert clears even though
        // the slow window still shows the damage.
        assert!(!t.alerting(5.0, 58.0));
        assert!(t.burn_rate(60.0, 58.0) > 0.0);
    }

    #[test]
    fn ring_laps_recycle_stale_buckets() {
        let mut t = BurnTracker::with_windows(0.5, &[1.0]);
        for lap in 0..5 {
            let base = lap as f64 * 100.0;
            for i in 0..10 {
                t.record(base + i as f64 * 0.1, lap % 2 == 0);
            }
            let expect = if lap % 2 == 0 { 2.0 } else { 0.0 };
            let b = t.burn_rate(1.0, base + 0.9);
            assert!((b - expect).abs() < 1e-9, "lap {lap}: {b}");
        }
    }
}
