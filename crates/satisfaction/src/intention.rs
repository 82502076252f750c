//! Participant intentions: what each user wants from the system.
//!
//! Ref \[17\] characterizes autonomous participants by their *intentions*.
//! In a social network the two roles are:
//!
//! * **consumers** — want content/services from providers they prefer
//!   (interest match, known quality) with their privacy respected;
//! * **providers** — intend to treat a bounded load per round and not be
//!   flooded with more requests than that.

/// A consumer's intentions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerIntentions {
    /// Minimum outcome quality the consumer considers adequate.
    pub quality_expectation: f64,
    /// How much the consumer cares that her privacy policy is respected
    /// (0 = indifferent, 1 = paramount).
    pub privacy_concern: f64,
}

impl ConsumerIntentions {
    /// Creates intentions with validation.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is out of `\[0, 1\]`.
    pub fn new(quality_expectation: f64, privacy_concern: f64) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&quality_expectation) {
            return Err("quality_expectation must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&privacy_concern) {
            return Err("privacy_concern must be in [0,1]".into());
        }
        Ok(ConsumerIntentions {
            quality_expectation,
            privacy_concern,
        })
    }
}

impl Default for ConsumerIntentions {
    fn default() -> Self {
        ConsumerIntentions {
            quality_expectation: 0.5,
            privacy_concern: 0.5,
        }
    }
}

/// A provider's intentions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderIntentions {
    /// Maximum load (requests per round) the provider intends to handle.
    pub capacity: u32,
}

impl ProviderIntentions {
    /// Creates intentions.
    ///
    /// # Errors
    ///
    /// Returns a message if `capacity` is zero.
    pub fn new(capacity: u32) -> Result<Self, String> {
        if capacity == 0 {
            return Err("capacity must be positive".into());
        }
        Ok(ProviderIntentions { capacity })
    }

    /// Adequacy of the current `load` against intended capacity: 1 while
    /// within capacity, decaying once overloaded.
    pub fn load_adequacy(&self, load: u32) -> f64 {
        if load <= self.capacity {
            1.0
        } else {
            self.capacity as f64 / load as f64
        }
    }
}

impl Default for ProviderIntentions {
    fn default() -> Self {
        ProviderIntentions { capacity: 10 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_validation() {
        assert!(ConsumerIntentions::new(1.5, 0.5).is_err());
        assert!(ConsumerIntentions::new(0.5, -0.1).is_err());
        assert!(ConsumerIntentions::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn provider_load_adequacy_decays_when_overloaded() {
        let p = ProviderIntentions::new(4).unwrap();
        assert_eq!(p.load_adequacy(0), 1.0);
        assert_eq!(p.load_adequacy(4), 1.0);
        assert_eq!(p.load_adequacy(8), 0.5);
        assert!(p.load_adequacy(100) < 0.05);
    }

    #[test]
    fn provider_validation() {
        assert!(ProviderIntentions::new(0).is_err());
    }
}
