//! Privacy policies, after P3P (paper ref \[9\]) and PriServ (ref \[12\]).
//!
//! The paper, Section 2.3: *"we consider that PPs should consider
//! authorized users, allowed operations, access purposes, access
//! conditions, retention time, obligations and the minimal trust level
//! necessary to allow data access"*. [`PrivacyPolicy`] carries exactly
//! those seven elements, per [`DataCategory`].

use std::collections::BTreeSet;
use std::fmt;
use tsn_simnet::{NodeId, SimDuration};

/// Categories of personal data a social-network profile holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataCategory {
    /// Name, photo, public profile.
    Profile,
    /// Posts and shared media.
    Content,
    /// Friend list / social graph edges.
    Contacts,
    /// Behavioural data: who interacted with whom, when.
    Behavior,
    /// Feedback and ratings the user files (reputation input).
    Feedback,
    /// Location or other sensor-derived data.
    Location,
}

impl DataCategory {
    /// All categories.
    pub const ALL: [DataCategory; 6] = [
        DataCategory::Profile,
        DataCategory::Content,
        DataCategory::Contacts,
        DataCategory::Behavior,
        DataCategory::Feedback,
        DataCategory::Location,
    ];

    /// Relative sensitivity in `\[0, 1\]` used for exposure weighting.
    pub fn sensitivity(self) -> f64 {
        match self {
            DataCategory::Profile => 0.3,
            DataCategory::Content => 0.5,
            DataCategory::Contacts => 0.6,
            DataCategory::Behavior => 0.8,
            DataCategory::Feedback => 0.7,
            DataCategory::Location => 1.0,
        }
    }
}

impl fmt::Display for DataCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataCategory::Profile => "profile",
            DataCategory::Content => "content",
            DataCategory::Contacts => "contacts",
            DataCategory::Behavior => "behavior",
            DataCategory::Feedback => "feedback",
            DataCategory::Location => "location",
        };
        f.write_str(s)
    }
}

/// Operations a requester may perform on data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Read the data.
    Read,
    /// Store a copy (e.g. replicate for availability).
    Store,
    /// Aggregate into statistics (e.g. reputation scoring).
    Aggregate,
    /// Re-share with third parties.
    Share,
}

/// Purposes a requester may invoke (P3P purpose element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Purpose {
    /// Social interaction between users.
    Social,
    /// Reputation computation.
    Reputation,
    /// System operation (routing, replication).
    SystemOperation,
    /// Research / analytics.
    Analytics,
    /// Commercial use.
    Commercial,
}

/// Conditions attached to an access grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessCondition {
    /// Requester must be a direct friend (graph neighbour).
    FriendsOnly,
    /// Requester must be within `hops` in the social graph.
    WithinHops(u32),
    /// Data must be anonymized before leaving the owner.
    AnonymizedOnly,
}

/// Obligations the recipient accepts (P3P/PriServ obligation element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Obligation {
    /// Delete after the retention period.
    DeleteAfterRetention,
    /// Notify the owner on every access.
    NotifyOwner,
    /// Never re-share.
    NoOnwardTransfer,
}

/// Policy construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// Minimal trust level outside `\[0, 1\]`.
    InvalidTrustLevel,
    /// Retention of zero duration with a delete obligation is
    /// contradictory.
    ContradictoryRetention,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::InvalidTrustLevel => write!(f, "minimal trust level must be in [0,1]"),
            PolicyError::ContradictoryRetention => {
                write!(
                    f,
                    "zero retention contradicts delete-after-retention obligation"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// One user's privacy policy for one data category.
///
/// Built with [`PrivacyPolicy::builder`]; all seven P3P/PriServ elements
/// are representable.
///
/// ```
/// use tsn_privacy::{DataCategory, Operation, PrivacyPolicy, Purpose};
///
/// let policy = PrivacyPolicy::builder(DataCategory::Content)
///     .allow_operations([Operation::Read])
///     .allow_purposes([Purpose::Social])
///     .min_trust_level(0.6)
///     .build()?;
/// assert!(policy.min_trust_level > PrivacyPolicy::permissive(DataCategory::Content).min_trust_level);
/// # Ok::<(), tsn_privacy::PolicyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyPolicy {
    /// The data category this policy governs.
    pub category: DataCategory,
    /// Explicitly authorized users; `None` = anyone passing the other
    /// checks (`Some(∅)` = nobody).
    pub authorized_users: Option<BTreeSet<NodeId>>,
    /// Allowed operations.
    pub operations: BTreeSet<Operation>,
    /// Allowed purposes.
    pub purposes: BTreeSet<Purpose>,
    /// Additional conditions (all must hold).
    pub conditions: Vec<AccessCondition>,
    /// How long recipients may retain the data.
    pub retention: SimDuration,
    /// Obligations accepted by recipients.
    pub obligations: BTreeSet<Obligation>,
    /// Minimal trust level (toward the requester) to allow access.
    pub min_trust_level: f64,
}

impl PrivacyPolicy {
    /// Starts building a policy for `category`.
    pub fn builder(category: DataCategory) -> PrivacyPolicyBuilder {
        PrivacyPolicyBuilder::new(category)
    }

    /// A permissive policy: anyone may read/aggregate for social or
    /// reputation purposes, no trust requirement.
    pub fn permissive(category: DataCategory) -> Self {
        PrivacyPolicy::builder(category)
            .allow_operations([Operation::Read, Operation::Store, Operation::Aggregate])
            .allow_purposes([
                Purpose::Social,
                Purpose::Reputation,
                Purpose::SystemOperation,
            ])
            .retention(SimDuration::from_secs(30 * 24 * 3600))
            .build()
            // tsn-lint: allow(no-unwrap, "preset literal is valid by inspection and pinned by the policy unit tests")
            .expect("permissive policy is valid")
    }

    /// A strict policy: friends only, read only, social purpose only,
    /// high trust requirement, short retention, full obligations.
    pub fn strict(category: DataCategory) -> Self {
        PrivacyPolicy::builder(category)
            .allow_operations([Operation::Read])
            .allow_purposes([Purpose::Social])
            .condition(AccessCondition::FriendsOnly)
            .retention(SimDuration::from_secs(24 * 3600))
            .obligations([
                Obligation::DeleteAfterRetention,
                Obligation::NotifyOwner,
                Obligation::NoOnwardTransfer,
            ])
            .min_trust_level(0.7)
            .build()
            // tsn-lint: allow(no-unwrap, "preset literal is valid by inspection and pinned by the policy unit tests")
            .expect("strict policy is valid")
    }
}

/// Builder for [`PrivacyPolicy`] (non-consuming terminal, chained setters).
#[derive(Debug, Clone)]
pub struct PrivacyPolicyBuilder {
    category: DataCategory,
    authorized_users: Option<BTreeSet<NodeId>>,
    operations: BTreeSet<Operation>,
    purposes: BTreeSet<Purpose>,
    conditions: Vec<AccessCondition>,
    retention: SimDuration,
    obligations: BTreeSet<Obligation>,
    min_trust_level: f64,
}

impl PrivacyPolicyBuilder {
    fn new(category: DataCategory) -> Self {
        PrivacyPolicyBuilder {
            category,
            authorized_users: None,
            operations: BTreeSet::new(),
            purposes: BTreeSet::new(),
            conditions: Vec::new(),
            retention: SimDuration::from_secs(7 * 24 * 3600),
            obligations: BTreeSet::new(),
            min_trust_level: 0.0,
        }
    }

    /// Restricts access to the given users.
    pub fn authorize_users(mut self, users: impl IntoIterator<Item = NodeId>) -> Self {
        self.authorized_users = Some(users.into_iter().collect());
        self
    }

    /// Adds allowed operations.
    pub fn allow_operations(mut self, ops: impl IntoIterator<Item = Operation>) -> Self {
        self.operations.extend(ops);
        self
    }

    /// Adds allowed purposes.
    pub fn allow_purposes(mut self, purposes: impl IntoIterator<Item = Purpose>) -> Self {
        self.purposes.extend(purposes);
        self
    }

    /// Adds a condition.
    pub fn condition(mut self, condition: AccessCondition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Sets the retention period.
    pub fn retention(mut self, retention: SimDuration) -> Self {
        self.retention = retention;
        self
    }

    /// Adds obligations.
    pub fn obligations(mut self, obligations: impl IntoIterator<Item = Obligation>) -> Self {
        self.obligations.extend(obligations);
        self
    }

    /// Sets the minimal trust level in `\[0, 1\]`.
    pub fn min_trust_level(mut self, level: f64) -> Self {
        self.min_trust_level = level;
        self
    }

    /// Validates and builds the policy.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidTrustLevel`] when the trust level is
    /// outside `\[0, 1\]`, and [`PolicyError::ContradictoryRetention`] when
    /// a delete obligation is combined with zero retention.
    pub fn build(self) -> Result<PrivacyPolicy, PolicyError> {
        if !(0.0..=1.0).contains(&self.min_trust_level) {
            return Err(PolicyError::InvalidTrustLevel);
        }
        if self.retention == SimDuration::ZERO
            && self.obligations.contains(&Obligation::DeleteAfterRetention)
        {
            return Err(PolicyError::ContradictoryRetention);
        }
        Ok(PrivacyPolicy {
            category: self.category,
            authorized_users: self.authorized_users,
            operations: self.operations,
            purposes: self.purposes,
            conditions: self.conditions,
            retention: self.retention,
            obligations: self.obligations,
            min_trust_level: self.min_trust_level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_all_seven_elements() {
        let p = PrivacyPolicy::builder(DataCategory::Content)
            .authorize_users([NodeId(1), NodeId(2)])
            .allow_operations([Operation::Read, Operation::Aggregate])
            .allow_purposes([Purpose::Reputation])
            .condition(AccessCondition::WithinHops(2))
            .retention(SimDuration::from_secs(3600))
            .obligations([Obligation::NotifyOwner])
            .min_trust_level(0.5)
            .build()
            .unwrap();
        assert_eq!(p.category, DataCategory::Content);
        assert_eq!(p.authorized_users.as_ref().unwrap().len(), 2);
        assert!(p.operations.contains(&Operation::Read));
        assert!(p.purposes.contains(&Purpose::Reputation));
        assert_eq!(p.conditions, vec![AccessCondition::WithinHops(2)]);
        assert_eq!(p.retention, SimDuration::from_secs(3600));
        assert!(p.obligations.contains(&Obligation::NotifyOwner));
        assert_eq!(p.min_trust_level, 0.5);
    }

    #[test]
    fn invalid_trust_level_rejected() {
        let r = PrivacyPolicy::builder(DataCategory::Profile)
            .min_trust_level(1.5)
            .build();
        assert_eq!(r.unwrap_err(), PolicyError::InvalidTrustLevel);
    }

    #[test]
    fn contradictory_retention_rejected() {
        let r = PrivacyPolicy::builder(DataCategory::Profile)
            .retention(SimDuration::ZERO)
            .obligations([Obligation::DeleteAfterRetention])
            .build();
        assert_eq!(r.unwrap_err(), PolicyError::ContradictoryRetention);
    }

    #[test]
    fn strict_is_stricter_than_permissive() {
        for category in DataCategory::ALL {
            let strict = PrivacyPolicy::strict(category);
            let permissive = PrivacyPolicy::permissive(category);
            assert!(
                strict.operations.is_subset(&permissive.operations),
                "{category}"
            );
            assert!(
                strict.purposes.is_subset(&permissive.purposes),
                "{category}"
            );
            assert!(strict.conditions.len() > permissive.conditions.len());
            assert!(strict.retention < permissive.retention);
            assert!(strict.obligations.len() > permissive.obligations.len());
            assert!(strict.min_trust_level > permissive.min_trust_level);
        }
    }

    #[test]
    fn sensitivity_ordering_is_sane() {
        assert!(DataCategory::Location.sensitivity() > DataCategory::Profile.sensitivity());
        assert!(DataCategory::Behavior.sensitivity() > DataCategory::Content.sensitivity());
    }

    #[test]
    fn display_names() {
        assert_eq!(DataCategory::Feedback.to_string(), "feedback");
        assert_eq!(
            PolicyError::InvalidTrustLevel.to_string(),
            "minimal trust level must be in [0,1]"
        );
    }

    #[test]
    fn empty_authorized_set_differs_from_none() {
        let nobody = PrivacyPolicy::builder(DataCategory::Profile)
            .authorize_users([])
            .build()
            .unwrap();
        let anybody = PrivacyPolicy::builder(DataCategory::Profile)
            .build()
            .unwrap();
        assert_eq!(nobody.authorized_users, Some(BTreeSet::new()));
        assert_eq!(anybody.authorized_users, None);
    }
}
