//! Long-run satisfaction (ref \[17\]).

/// Long-run satisfaction: an exponentially weighted average of adequacy.
///
/// Ref \[17\]'s satisfaction is "a long run notion evaluating the capacity
/// of the system to follow the intentions of each participant". The EWMA
/// keeps it long-run (one bad interaction moves it by at most
/// `learning_rate`) while staying responsive to sustained change.
///
/// ```
/// use tsn_satisfaction::SatisfactionTracker;
///
/// let mut tracker = SatisfactionTracker::default();
/// for _ in 0..30 {
///     tracker.observe(0.9);
/// }
/// tracker.observe(0.0); // one bad day is forgiven
/// assert!(tracker.satisfaction() > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SatisfactionTracker {
    value: f64,
    learning_rate: f64,
    observations: u64,
}

impl SatisfactionTracker {
    /// Creates a tracker starting at the neutral prior 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not in `(0, 1]`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0,1]"
        );
        SatisfactionTracker {
            value: 0.5,
            learning_rate,
            observations: 0,
        }
    }

    /// Records the adequacy of one interaction.
    ///
    /// # Panics
    ///
    /// Panics if `adequacy` is not in `\[0, 1\]`.
    pub fn observe(&mut self, adequacy: f64) {
        assert!((0.0..=1.0).contains(&adequacy), "adequacy must be in [0,1]");
        self.value += self.learning_rate * (adequacy - self.value);
        self.observations += 1;
    }

    /// Current satisfaction in `\[0, 1\]`.
    pub fn satisfaction(&self) -> f64 {
        self.value
    }

    /// Number of interactions observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

impl Default for SatisfactionTracker {
    /// Learning rate 0.1: roughly a 10-interaction memory half-life.
    fn default() -> Self {
        SatisfactionTracker::new(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_starts_neutral() {
        let t = SatisfactionTracker::default();
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.observations(), 0);
    }

    #[test]
    fn sustained_good_experience_converges_up() {
        let mut t = SatisfactionTracker::new(0.1);
        for _ in 0..100 {
            t.observe(0.95);
        }
        assert!(t.satisfaction() > 0.9);
        assert_eq!(t.observations(), 100);
    }

    #[test]
    fn sustained_bad_experience_converges_down() {
        let mut t = SatisfactionTracker::new(0.1);
        for _ in 0..100 {
            t.observe(0.05);
        }
        assert!(t.satisfaction() < 0.1);
    }

    #[test]
    fn one_bad_interaction_is_forgiven() {
        // The long-run property ref [17] insists on.
        let mut t = SatisfactionTracker::new(0.1);
        for _ in 0..50 {
            t.observe(0.9);
        }
        let before = t.satisfaction();
        t.observe(0.0);
        let after = t.satisfaction();
        assert!(
            before - after < 0.1,
            "single failure must not crater satisfaction"
        );
        assert!(after > 0.7);
    }

    #[test]
    fn higher_learning_rate_reacts_faster() {
        let mut slow = SatisfactionTracker::new(0.05);
        let mut fast = SatisfactionTracker::new(0.5);
        for _ in 0..5 {
            slow.observe(1.0);
            fast.observe(1.0);
        }
        assert!(fast.satisfaction() > slow.satisfaction());
    }

    #[test]
    #[should_panic(expected = "adequacy must be in [0,1]")]
    fn out_of_range_adequacy_panics() {
        SatisfactionTracker::default().observe(1.5);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_panics() {
        let _ = SatisfactionTracker::new(0.0);
    }
}
