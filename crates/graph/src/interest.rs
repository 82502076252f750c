//! User interest profiles.
//!
//! The satisfaction model (ref \[17\] of the paper) needs each participant to
//! have *intentions*: which content, services or partners they prefer.
//! Interest profiles give those preferences a concrete, measurable form: a
//! point on the simplex over `k` topics. The scenario engine reads each
//! profile's dominant topic to pick preferred providers among a user's
//! friends.

use tsn_simnet::SimRng;

/// The topic space shared by all profiles in one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterestSpace {
    /// Number of topics.
    pub topics: usize,
}

impl InterestSpace {
    /// Creates a space with `topics` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `topics == 0`.
    pub fn new(topics: usize) -> Self {
        assert!(topics > 0, "interest space needs at least one topic");
        InterestSpace { topics }
    }

    /// Samples a random profile: Dirichlet-like via normalized exponential
    /// draws, optionally concentrated on a "home" topic (social users have
    /// a dominant interest).
    pub fn sample_profile(&self, concentration: f64, rng: &mut SimRng) -> InterestProfile {
        assert!(concentration >= 0.0, "concentration must be non-negative");
        let mut w: Vec<f64> = (0..self.topics).map(|_| rng.gen_exp(1.0)).collect();
        if concentration > 0.0 {
            let home = rng.gen_range(0..self.topics);
            w[home] += concentration * w.iter().sum::<f64>();
        }
        InterestProfile::new(w)
    }
}

/// A normalized interest vector (sums to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct InterestProfile {
    weights: Vec<f64>,
}

impl InterestProfile {
    /// Builds a profile from non-negative weights, normalizing to sum 1.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "profile must have at least one topic");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        InterestProfile {
            weights: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// The uniform profile.
    pub fn uniform(topics: usize) -> Self {
        assert!(topics > 0);
        InterestProfile {
            weights: vec![1.0 / topics as f64; topics],
        }
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of topics.
    pub fn topics(&self) -> usize {
        self.weights.len()
    }

    /// The dominant topic (lowest index wins ties).
    pub fn dominant_topic(&self) -> usize {
        let mut best = 0;
        for (i, &w) in self.weights.iter().enumerate() {
            if w > self.weights[best] {
                best = i;
            }
        }
        best
    }

    /// Shannon entropy in nats; 0 for a single-topic profile, `ln(k)` for
    /// the uniform profile. Used as a "breadth of interest" measure.
    #[cfg(test)]
    fn entropy(&self) -> f64 {
        self.weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| -w * w.ln())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_normalize() {
        let p = InterestProfile::new(vec![2.0, 2.0, 4.0]);
        assert_eq!(p.weights(), &[0.25, 0.25, 0.5]);
        assert_eq!(p.topics(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_profile_panics() {
        let _ = InterestProfile::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = InterestProfile::new(vec![1.0, -0.5]);
    }

    #[test]
    fn dominant_topic_and_entropy() {
        let p = InterestProfile::new(vec![0.1, 0.7, 0.2]);
        assert_eq!(p.dominant_topic(), 1);
        assert_eq!(
            InterestProfile::new(vec![0.0, 0.0, 1.0, 0.0]).entropy(),
            0.0
        );
        let u = InterestProfile::uniform(4);
        assert!((u.entropy() - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn sampled_profiles_are_valid_and_deterministic() {
        let space = InterestSpace::new(8);
        let mut r1 = SimRng::seed_from_u64(5);
        let mut r2 = SimRng::seed_from_u64(5);
        let p1 = space.sample_profile(2.0, &mut r1);
        let p2 = space.sample_profile(2.0, &mut r2);
        assert_eq!(p1, p2);
        let sum: f64 = p1.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentration_sharpens_profiles() {
        let space = InterestSpace::new(10);
        let mut rng = SimRng::seed_from_u64(6);
        let n = 200;
        let avg_entropy = |c: f64, rng: &mut SimRng| {
            (0..n)
                .map(|_| space.sample_profile(c, rng).entropy())
                .sum::<f64>()
                / n as f64
        };
        let diffuse = avg_entropy(0.0, &mut rng);
        let sharp = avg_entropy(5.0, &mut rng);
        assert!(
            sharp < diffuse,
            "higher concentration → lower entropy ({sharp} vs {diffuse})"
        );
    }
}
