//! # tsn-privacy — privacy policies, enforcement and accounting
//!
//! The privacy facet of the `tsn` reproduction. The paper (Section 2.3)
//! grounds privacy in three sources, all implemented here:
//!
//! * **Privacy policies** ([`policy`]) in the style of P3P (ref \[9\]) and
//!   PriServ (ref \[12\]): authorized users, allowed operations, access
//!   purposes, access conditions, retention time, obligations and the
//!   *minimal trust level* required for access;
//! * **The OECD guidelines** (ref \[16\]; [`oecd`]): the eight principles
//!   (collection limitation, purpose specification, use limitation, data
//!   quality, security safeguards, openness, individual participation,
//!   accountability) scored against a system configuration;
//! * **Disclosure accounting** ([`ledger`]): every flow of personal data
//!   is counted — whose data, which category, anonymized or not, and
//!   whether it respected the owner's policy — so "privacy respect" is a
//!   measured rate, not an assumption, and breaches are classified as
//!   *user-caused* vs *system-caused* (the paper's footnote 2 insists on
//!   that distinction).
//!
//! [`enforcement`] is the PriServ-like decision engine gluing these
//! together: a request is granted only when the requester, operation,
//! purpose, conditions and trust level all satisfy the owner's policy.
//! [`exposure`] turns the ledger into the scalar *privacy facet* used by
//! `tsn-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforcement;
pub mod exposure;
pub mod ledger;
pub mod oecd;
pub mod policy;

pub use enforcement::{AccessDecision, AccessRequest, DenialReason, Enforcer};
pub use exposure::{ExposureReport, PrivacyFacetInputs};
pub use ledger::{BreachCause, DisclosureLedger};
pub use policy::{
    AccessCondition, DataCategory, Obligation, Operation, PolicyError, PrivacyPolicy, Purpose,
};
pub use tsn_simnet::NodeId;
