//! Order statistics and timing windows over measured samples.

use std::ops::Range;
use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// One closed window of a timed loop.
#[derive(Clone, Debug)]
pub struct Window {
    /// Jobs per second over the window.
    pub rate: f64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the window; 0 where Linux does not report it.
    pub steal: f64,
    /// Index range of the request samples taken in the window.
    pub requests: Range<usize>,
    /// Index range of the completion samples taken in the window.
    pub completions: Range<usize>,
}

/// Where the last window closed.
#[derive(Debug)]
struct Mark {
    t: f64,
    jobs: u64,
    requests: usize,
    completions: usize,
    ticks: Option<(u64, u64)>,
}

/// Consecutive windows of a timed loop. A window closes at the first
/// completion at least `len` after the previous close, so each rate is
/// jobs over the window's measured length.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    len: f64,
    last: Mark,
    /// The closed windows, in order.
    pub closed: Vec<Window>,
}

impl Windows {
    /// Start timing windows of at least `len` each.
    pub fn start(len: Duration) -> Self {
        Windows {
            start: Instant::now(),
            len: len.as_secs_f64(),
            last: Mark {
                t: 0.0,
                jobs: 0,
                requests: 0,
                completions: 0,
                ticks: crate::host::cpu_ticks(),
            },
            closed: Vec::new(),
        }
    }

    /// Record that `jobs` jobs in all are done by now, and that
    /// `requests` request and `completions` completion samples are taken.
    pub fn mark(&mut self, jobs: u64, requests: usize, completions: usize) {
        let t = self.start.elapsed().as_secs_f64();
        if t - self.last.t < self.len {
            return;
        }
        let ticks = crate::host::cpu_ticks();
        let steal = self
            .last
            .ticks
            .zip(ticks)
            .map_or(0.0, |(a, b)| crate::host::steal_share(a, b));
        self.closed.push(Window {
            rate: (jobs - self.last.jobs) as f64 / (t - self.last.t),
            steal,
            requests: self.last.requests..requests,
            completions: self.last.completions..completions,
        });
        self.last = Mark {
            t,
            jobs,
            requests,
            completions,
            ticks,
        };
    }
}

/// A window or trial pair in which the hypervisor took more than this
/// share of the machine's CPU time measures the host's neighbours, not
/// the program.
pub const MAX_STEAL: f64 = 0.03;
/// The fewest windows the metrics are taken from.
pub const MIN_CALM: usize = 4;

/// The items in which the hypervisor took at most [`MAX_STEAL`] of the
/// machine's CPU time or, when fewer than `min` qualify, the `min`
/// items it took least from, in their original order.
fn least_stolen<T>(items: &[T], steal: impl Fn(&T) -> f64, min: usize) -> Vec<&T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| steal(&items[a]).total_cmp(&steal(&items[b])));
    let calm = order
        .iter()
        .filter(|&&i| steal(&items[i]) <= MAX_STEAL)
        .count();
    order.truncate(calm.max(min));
    order.sort_unstable();
    order.into_iter().map(|i| &items[i]).collect()
}

/// The calm windows: those in which the hypervisor took at most
/// [`MAX_STEAL`] of the machine's CPU time or, when fewer than
/// [`MIN_CALM`] are, the [`MIN_CALM`] windows it took least from.
pub fn calm(windows: &[Window]) -> Vec<&Window> {
    least_stolen(windows, |w| w.steal, MIN_CALM)
}

/// Run `a` and `b` alternately (A, B, A, B, …) for at least
/// `min_pairs` pairs and until `budget` has passed, and return the
/// median over pairs of `f(a_time, b_time)` with the pair count.
/// Pairing back-to-back trials lets host drift cancel inside each pair
/// instead of landing in a ratio of medians taken at different times.
/// As with [`calm`], the median is over the pairs in which the
/// hypervisor took at most [`MAX_STEAL`], or the `min_pairs` it took
/// least from.
/// Stops at the first failed trial.
pub fn paired(
    budget: Duration,
    min_pairs: usize,
    mut a: impl FnMut() -> Result<f64, String>,
    mut b: impl FnMut() -> Result<f64, String>,
    f: impl Fn(f64, f64) -> f64,
) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let mut pairs = Vec::new();
    while pairs.len() < min_pairs.max(1) || start.elapsed() < budget {
        let before = crate::host::cpu_ticks();
        let ta = a()?;
        let tb = b()?;
        let steal = before
            .zip(crate::host::cpu_ticks())
            .map_or(0.0, |(x, y)| crate::host::steal_share(x, y));
        pairs.push((f(ta, tb), steal));
    }
    let ratios: Vec<f64> = least_stolen(&pairs, |p| p.1, min_pairs.max(1))
        .into_iter()
        .map(|p| p.0)
        .collect();
    Ok((median(&ratios).expect("at least one pair"), ratios.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windows_close_at_the_first_mark_past_their_length() {
        let tick = Duration::from_millis(1);
        let mut w = Windows::start(tick);
        std::thread::sleep(tick);
        w.mark(3, 3, 1);
        std::thread::sleep(tick);
        w.mark(5, 5, 1);
        assert_eq!(w.closed.len(), 2);
        assert!(w.closed.iter().all(|c| c.rate > 0.0 && c.rate.is_finite()));
        assert_eq!(w.closed[1].requests, 3..5);
        assert_eq!(w.closed[1].completions, 1..1);
        let mut long = Windows::start(Duration::from_secs(3600));
        long.mark(1, 1, 1);
        assert!(long.closed.is_empty());
    }

    #[test]
    fn calm_windows_leave_out_stolen_ones_down_to_the_least_stolen() {
        let w = |rate, steal| Window {
            rate,
            steal,
            requests: 0..0,
            completions: 0..0,
        };
        let mut ws = vec![w(1.0, 0.2), w(2.0, 0.1)];
        ws.extend((0..MIN_CALM).map(|i| w(3.0 + i as f64, 0.0)));
        assert_eq!(calm(&ws).len(), MIN_CALM);
        assert!(calm(&ws).iter().all(|c| c.steal == 0.0));
        ws.truncate(MIN_CALM);
        let kept: Vec<f64> = calm(&ws).iter().map(|c| c.rate).collect();
        assert_eq!(kept.len(), MIN_CALM);
        assert_eq!(kept[..2], [1.0, 2.0], "original order kept");
        ws[2].steal = 0.5;
        ws.push(w(9.0, 0.05));
        let kept: Vec<f64> = calm(&ws).iter().map(|c| c.rate).collect();
        assert!(!kept.contains(&3.0), "the most stolen window goes");
    }
}
