//! The disclosure ledger: accounting for every personal-data flow.
//!
//! The paper's privacy facet is *measured*, not assumed: "privacy concerns
//! the respect of individual PPs". The ledger counts every disclosure
//! (and every breach), so per-user and system-wide respect rates are exact
//! counts. Footnote 2 of the paper insists breaches by malicious users
//! and breaches by the system itself "should not be treated in the same
//! manner" — [`BreachCause`] keeps them apart.
//!
//! # Counters only
//!
//! The ledger keeps running counters, not a log of flows: every query
//! ([`DisclosureLedger::respect_rate`],
//! [`DisclosureLedger::respect_rate_for`], [`DisclosureLedger::breach_count`],
//! [`DisclosureLedger::total_exposure`])
//! is O(1), and memory grows with the number of owners, never with the
//! number of flows. The counters are exact: integer counts, and exposure
//! sums accumulated in record order, so each answer is bit-identical to
//! a scan over the recorded flows.

use crate::policy::DataCategory;
use tsn_simnet::NodeId;

/// Who is to blame for a breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreachCause {
    /// A malicious *user* leaked data they were granted.
    MaliciousUser,
    /// The *system* violated a policy (bug, misconfiguration, over-sharing
    /// by the reputation pipeline).
    System,
}

/// Sensitivity-weighted exposure of one flow: anonymized flows count 25 %.
fn exposure(category: DataCategory, anonymized: bool) -> f64 {
    category.sensitivity() * if anonymized { 0.25 } else { 1.0 }
}

/// Running aggregates for one owner's data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct OwnerStats {
    total: u64,
    compliant: u64,
}

/// Counters over every recorded disclosure and breach, per owner and
/// system-wide.
///
/// ```
/// use tsn_privacy::{BreachCause, DataCategory, DisclosureLedger};
/// use tsn_simnet::NodeId;
///
/// let mut ledger = DisclosureLedger::new();
/// ledger.record_disclosure(NodeId(0), DataCategory::Content, false);
/// ledger.record_breach(NodeId(0), DataCategory::Content, BreachCause::MaliciousUser);
/// assert_eq!(ledger.respect_rate(), 0.5);
/// assert_eq!(ledger.breach_count(Some(BreachCause::System)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DisclosureLedger {
    /// Per-owner running aggregates, indexed by `owner.index()`.
    owners: Vec<OwnerStats>,
    /// System-wide running totals; compliant flows are the rest.
    total: u64,
    user_breaches: u64,
    system_breaches: u64,
    total_exposure: f64,
}

impl DisclosureLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn count(&mut self, owner: NodeId, compliant: bool, exposure: f64) {
        self.total += 1;
        self.total_exposure += exposure;
        let i = owner.index();
        if i >= self.owners.len() {
            self.owners.resize(i + 1, OwnerStats::default());
        }
        let stats = &mut self.owners[i];
        stats.total += 1;
        stats.compliant += u64::from(compliant);
    }

    /// Records a compliant disclosure of `owner`'s data.
    pub fn record_disclosure(&mut self, owner: NodeId, category: DataCategory, anonymized: bool) {
        self.count(owner, true, exposure(category, anonymized));
    }

    /// Records a breach of `owner`'s data.
    pub fn record_breach(&mut self, owner: NodeId, category: DataCategory, cause: BreachCause) {
        match cause {
            BreachCause::MaliciousUser => self.user_breaches += 1,
            BreachCause::System => self.system_breaches += 1,
        }
        self.count(owner, false, exposure(category, false));
    }

    /// Number of flows recorded.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the ledger has never recorded anything.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of breaches, optionally filtered by cause.
    pub fn breach_count(&self, cause: Option<BreachCause>) -> usize {
        (match cause {
            None => self.user_breaches + self.system_breaches,
            Some(BreachCause::MaliciousUser) => self.user_breaches,
            Some(BreachCause::System) => self.system_breaches,
        }) as usize
    }

    /// System-wide policy-respect rate: compliant / total. An empty
    /// ledger counts as fully respected (no flow, no violation).
    pub fn respect_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let compliant = self.total - self.user_breaches - self.system_breaches;
        compliant as f64 / self.total as f64
    }

    /// Policy-respect rate for one owner's data.
    pub fn respect_rate_for(&self, owner: NodeId) -> f64 {
        match self.owners.get(owner.index()) {
            Some(stats) if stats.total > 0 => stats.compliant as f64 / stats.total as f64,
            _ => 1.0,
        }
    }

    /// Total sensitivity-weighted exposure across all owners.
    pub fn total_exposure(&self) -> f64 {
        self.total_exposure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_fully_respected() {
        let l = DisclosureLedger::new();
        assert_eq!(l.respect_rate(), 1.0);
        assert_eq!(l.respect_rate_for(NodeId(0)), 1.0);
        assert!(l.is_empty());
        assert_eq!(l.total_exposure(), 0.0);
    }

    #[test]
    fn respect_rate_counts_breaches() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(NodeId(0), DataCategory::Content, false);
        l.record_disclosure(NodeId(0), DataCategory::Content, false);
        l.record_breach(NodeId(0), DataCategory::Content, BreachCause::System);
        assert!((l.respect_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.len(), 3);
        assert_eq!(l.breach_count(None), 1);
        assert_eq!(l.breach_count(Some(BreachCause::System)), 1);
        assert_eq!(l.breach_count(Some(BreachCause::MaliciousUser)), 0);
    }

    #[test]
    fn per_owner_rates_are_independent() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(NodeId(0), DataCategory::Profile, false);
        l.record_breach(NodeId(1), DataCategory::Profile, BreachCause::MaliciousUser);
        assert_eq!(l.respect_rate_for(NodeId(0)), 1.0);
        assert_eq!(l.respect_rate_for(NodeId(1)), 0.0);
        assert_eq!(l.respect_rate_for(NodeId(7)), 1.0, "no data, no violation");
    }

    #[test]
    fn exposure_weights_sensitivity_and_anonymization() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(NodeId(0), DataCategory::Location, false);
        l.record_disclosure(NodeId(0), DataCategory::Location, true);
        let expected = 1.0 + 0.25;
        assert!((l.total_exposure() - expected).abs() < 1e-12);
    }

    #[test]
    fn aggregates_match_a_scan_of_the_records() {
        // The counters must agree bit for bit with recomputing every
        // query from the list of recorded flows, summed in record order.
        struct Flow {
            owner: NodeId,
            category: DataCategory,
            anonymized: bool,
            breach: Option<BreachCause>,
        }
        let categories = [
            DataCategory::Content,
            DataCategory::Profile,
            DataCategory::Location,
        ];
        let flows: Vec<Flow> = (0..50u64)
            .map(|i| Flow {
                owner: NodeId((i % 7) as u32),
                category: categories[(i % 3) as usize],
                anonymized: i % 5 >= 2 && i % 2 == 0,
                breach: match i % 5 {
                    0 => Some(BreachCause::MaliciousUser),
                    1 => Some(BreachCause::System),
                    _ => None,
                },
            })
            .collect();
        let mut l = DisclosureLedger::new();
        for f in &flows {
            match f.breach {
                Some(cause) => l.record_breach(f.owner, f.category, cause),
                None => l.record_disclosure(f.owner, f.category, f.anonymized),
            }
        }
        let compliant = |fs: &[&Flow]| fs.iter().filter(|f| f.breach.is_none()).count();
        let all: Vec<&Flow> = flows.iter().collect();
        assert_eq!(l.len(), flows.len());
        assert_eq!(
            l.respect_rate(),
            compliant(&all) as f64 / flows.len() as f64
        );
        let scan_total: f64 = all.iter().map(|f| exposure(f.category, f.anonymized)).sum();
        assert_eq!(l.total_exposure().to_bits(), scan_total.to_bits());
        for owner in (0..7).map(NodeId) {
            let mine: Vec<&Flow> = flows.iter().filter(|f| f.owner == owner).collect();
            let scan_rate = compliant(&mine) as f64 / mine.len() as f64;
            assert_eq!(l.respect_rate_for(owner), scan_rate, "owner {owner:?}");
        }
        for cause in [BreachCause::MaliciousUser, BreachCause::System] {
            let scan = flows.iter().filter(|f| f.breach == Some(cause)).count();
            assert_eq!(l.breach_count(Some(cause)), scan);
        }
    }
}
