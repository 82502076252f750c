//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Work per second over a whole run: total work ÷ total timed seconds.
///
/// Throughput is reported this way rather than as a median over
/// repeats: on a shared host, repeat times cluster around a few speeds
/// (how many of the process's CPUs a neighbour contends), and a median
/// jumps between those clusters while the total moves smoothly.
#[derive(Default)]
pub struct Rate {
    work: f64,
    seconds: f64,
}

impl Rate {
    /// Adds `work` units done in `seconds`.
    pub fn add(&mut self, work: f64, seconds: f64) {
        self.work += work;
        self.seconds += seconds;
    }

    /// Work per second so far; 0 before any time was added.
    pub fn per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.work / self.seconds
        } else {
            0.0
        }
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rate_is_total_work_over_total_time() {
        let mut rate = Rate::default();
        assert_eq!(rate.per_second(), 0.0);
        rate.add(100.0, 1.0);
        rate.add(100.0, 3.0);
        assert_eq!(rate.per_second(), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
