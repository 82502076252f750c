//! From ledger + policies + audit to the scalar *privacy facet*.
//!
//! The paper (Section 4) defines the privacy axis as "the satisfaction in
//! terms of privacy guarantees which can be the amount of information that
//! it is not necessary to share within the system or the respect of PPs".
//! [`PrivacyFacetInputs`] carries those two measured quantities plus the
//! OECD audit score; [`ExposureReport::facet`] combines them.

/// The three measured inputs of the privacy facet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyFacetInputs {
    /// Normalized information exposure in `[0, 1]` (0 = nothing shared):
    /// the disclosure policy's `exposure()` or a ledger-derived
    /// equivalent.
    pub exposure: f64,
    /// Measured PP-respect rate in `[0, 1]` from the ledger.
    pub respect_rate: f64,
    /// OECD audit overall score in `[0, 1]`.
    pub oecd_score: f64,
}

// The paper names non-disclosure and PP respect as the two primary
// readings; the audit is a structural backstop.
/// Weight of (1 − exposure) — "information not shared".
const NON_DISCLOSURE_WEIGHT: f64 = 0.4;
/// Weight of the PP-respect rate.
const RESPECT_WEIGHT: f64 = 0.4;
/// Weight of the OECD audit.
const AUDIT_WEIGHT: f64 = 0.2;

/// The privacy facet and its decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureReport {
    /// The inputs that produced this report.
    pub inputs: PrivacyFacetInputs,
    /// The combined facet in `[0, 1]`.
    pub facet: f64,
}

impl PrivacyFacetInputs {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("exposure", self.exposure),
            ("respect_rate", self.respect_rate),
            ("oecd_score", self.oecd_score),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        Ok(())
    }

    /// Computes the facet: the 0.4 / 0.4 / 0.2 weighted mean of
    /// non-disclosure (1 − exposure), PP respect and the OECD audit.
    ///
    /// # Panics
    ///
    /// Panics if inputs are invalid.
    pub fn facet(&self) -> ExposureReport {
        if let Err(e) = self.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: facet() panics on inputs that validate() rejects; fallible callers validate first")
            panic!("invalid privacy facet inputs: {e}");
        }
        let total = NON_DISCLOSURE_WEIGHT + RESPECT_WEIGHT + AUDIT_WEIGHT;
        let facet = (NON_DISCLOSURE_WEIGHT * (1.0 - self.exposure)
            + RESPECT_WEIGHT * self.respect_rate
            + AUDIT_WEIGHT * self.oecd_score)
            / total;
        ExposureReport {
            inputs: *self,
            facet,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_privacy_scores_one() {
        let r = PrivacyFacetInputs {
            exposure: 0.0,
            respect_rate: 1.0,
            oecd_score: 1.0,
        }
        .facet();
        assert_eq!(r.facet, 1.0);
    }

    #[test]
    fn total_exposure_with_breaches_scores_zero() {
        let r = PrivacyFacetInputs {
            exposure: 1.0,
            respect_rate: 0.0,
            oecd_score: 0.0,
        }
        .facet();
        assert_eq!(r.facet, 0.0);
    }

    #[test]
    fn facet_decreases_with_exposure() {
        let f = |e: f64| {
            PrivacyFacetInputs {
                exposure: e,
                respect_rate: 0.9,
                oecd_score: 0.8,
            }
            .facet()
            .facet
        };
        assert!(f(0.0) > f(0.5));
        assert!(f(0.5) > f(1.0));
    }

    #[test]
    fn facet_increases_with_respect() {
        let f = |r: f64| {
            PrivacyFacetInputs {
                exposure: 0.5,
                respect_rate: r,
                oecd_score: 0.8,
            }
            .facet()
            .facet
        };
        assert!(f(1.0) > f(0.5));
    }

    #[test]
    fn audit_weighs_half_as_much_as_respect() {
        let only = |exposure: f64, respect_rate: f64, oecd_score: f64| {
            PrivacyFacetInputs {
                exposure,
                respect_rate,
                oecd_score,
            }
            .facet()
            .facet
        };
        assert!((only(1.0, 1.0, 0.0) - 0.4).abs() < 1e-12);
        assert!((only(0.0, 0.0, 0.0) - 0.4).abs() < 1e-12);
        assert!((only(1.0, 0.0, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid privacy facet inputs")]
    fn invalid_inputs_panic() {
        let _ = PrivacyFacetInputs {
            exposure: 2.0,
            respect_rate: 0.5,
            oecd_score: 0.5,
        }
        .facet();
    }

    #[test]
    fn validation_messages_name_the_field() {
        let e = PrivacyFacetInputs {
            exposure: 0.5,
            respect_rate: 1.5,
            oecd_score: 0.5,
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("respect_rate"));
    }
}
