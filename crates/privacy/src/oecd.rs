//! The OECD privacy-guideline audit (paper ref \[16\]).
//!
//! The paper lists the eight OECD principles a system "should consider".
//! [`audit_score`] scores a system configuration against each of them,
//! in the guidelines' order, and averages the eight scores into the
//! overall `\[0, 1\]` audit score that feeds the privacy facet:
//!
//! | principle | score |
//! |---|---|
//! | collection limitation | `1 − collection_fraction` |
//! | purpose specification | 1 (every flow carries a declared purpose) |
//! | use limitation | `purpose_respect_rate` |
//! | data quality | 1 (reputation inputs are aged) |
//! | security safeguards | 1 when safeguards are active, else 0 |
//! | openness | 1 (policies are user-visible) |
//! | individual participation | 1 (users read and update their policies) |
//! | accountability | 1 (the ledger attributes every breach) |
//!
//! The five structural principles are met by construction in every
//! configuration this workspace builds; only collection, use and
//! safeguards vary.

/// The overall audit score in `\[0, 1\]`: the unweighted mean of the
/// eight principle scores (the guidelines present them as co-equal),
/// summed in guideline order.
///
/// `collection_fraction` is the fraction of potentially collectable
/// fields the system actually collects (the disclosure policy's
/// exposure); `purpose_respect_rate` is the measured fraction of flows
/// that honoured their declared purpose (from the ledger);
/// `safeguards_active` says whether anonymization / noise safeguards are
/// on.
///
/// # Panics
///
/// Panics if `collection_fraction` or `purpose_respect_rate` lies
/// outside `\[0, 1\]`.
pub fn audit_score(
    collection_fraction: f64,
    purpose_respect_rate: f64,
    safeguards_active: bool,
) -> f64 {
    if !(0.0..=1.0).contains(&collection_fraction) {
        // tsn-lint: allow(no-unwrap, "documented contract: the audit panics on an out-of-range fraction; every caller passes a measured rate in [0, 1]")
        panic!("invalid privacy profile: collection_fraction must be in [0,1]");
    }
    if !(0.0..=1.0).contains(&purpose_respect_rate) {
        // tsn-lint: allow(no-unwrap, "documented contract: the audit panics on an out-of-range fraction; every caller passes a measured rate in [0, 1]")
        panic!("invalid privacy profile: purpose_respect_rate must be in [0,1]");
    }
    let scores = [
        1.0 - collection_fraction,
        1.0,
        purpose_respect_rate,
        1.0,
        if safeguards_active { 1.0 } else { 0.0 },
        1.0,
        1.0,
        1.0,
    ];
    scores.iter().sum::<f64>() / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_practice_scores_one() {
        assert_eq!(audit_score(0.0, 1.0, true), 1.0);
    }

    #[test]
    fn worst_case_scores_the_structural_principles_only() {
        assert_eq!(audit_score(1.0, 0.0, false), 5.0 / 8.0);
    }

    #[test]
    fn collection_limitation_tracks_exposure() {
        let score = audit_score(0.6, 1.0, true);
        assert!((score - (1.0 - 0.6 / 8.0)).abs() < 1e-12);
        assert!(score < 1.0);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        for (collection, respect) in [(1.2, 1.0), (0.5, -0.1), (f64::NAN, 1.0)] {
            let result = std::panic::catch_unwind(|| audit_score(collection, respect, true));
            assert!(result.is_err(), "({collection}, {respect}) must panic");
        }
    }

    #[test]
    fn score_is_the_guideline_order_fold_bit_for_bit() {
        // The eight-principle audit this function reduces: every
        // principle scored, summed in guideline order, divided by 8.
        let fold = |collection: f64, respect: f64, safeguards: bool| {
            let b = |x: bool| if x { 1.0 } else { 0.0 };
            let principles = [
                ("collection limitation", 1.0 - collection),
                ("purpose specification", b(true)),
                ("use limitation", respect),
                ("data quality", b(true)),
                ("security safeguards", b(safeguards)),
                ("openness", b(true)),
                ("individual participation", b(true)),
                ("accountability", b(true)),
            ];
            principles.iter().map(|(_, s)| s).sum::<f64>() / principles.len() as f64
        };
        for safeguards in [false, true] {
            for c in 0..=20 {
                for r in 0..=17 {
                    let collection = f64::from(c) / 20.0;
                    let respect = f64::from(r) / 17.0;
                    assert_eq!(
                        audit_score(collection, respect, safeguards).to_bits(),
                        fold(collection, respect, safeguards).to_bits(),
                        "collection {collection}, respect {respect}, safeguards {safeguards}"
                    );
                }
            }
        }
    }
}
