//! # tsn-satisfaction — the participant satisfaction model
//!
//! Implements the satisfaction facet of the `tsn` reproduction, following
//! the model the paper adopts (Section 2.1): the adequacy / satisfaction /
//! allocation-satisfaction framework of Quiané-Ruiz, Lamarre & Valduriez
//! ("A Self-Adaptable Query Allocation Framework for Distributed
//! Information Systems", VLDB J. 18(3), 2009 — the paper's ref \[17\]).
//!
//! The key ideas, as the paper summarizes them:
//!
//! * satisfaction is a **long-run** notion: "a participant is satisfied by
//!   the system process if the latter meets its intentions in the long
//!   term". [`SatisfactionTracker`] realizes this as an exponentially
//!   weighted average of per-interaction [`adequacy`], so one bad
//!   interaction does not destroy satisfaction ("a data provider can be
//!   satisfied even if sometimes the system imposes queries he does not
//!   intend to treat");
//! * **adequacy** measures how well a single interaction matches the
//!   participant's [`intention`]s (preferred partners, expected quality,
//!   privacy respected);
//! * **allocation satisfaction** — whether the *allocation itself*
//!   (which partner the system chose) followed the participant's
//!   intentions — is folded into adequacy's preference term rather than
//!   tracked separately, so it reaches long-run satisfaction through
//!   every observed interaction. The caller decides whether the
//!   provider was intended ([`InteractionAspects::intended`]).
//!
//! [`aggregate`] turns per-participant satisfaction into the global
//! satisfaction axis of the paper's Figure 2, with fairness measures
//! (Jain index, Gini) so "global" is not just a mean hiding misery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adequacy;
pub mod aggregate;
pub mod intention;
pub mod satisfaction;

pub use adequacy::InteractionAspects;
pub use aggregate::GlobalSatisfaction;
pub use intention::{ConsumerIntentions, ProviderIntentions};
pub use satisfaction::SatisfactionTracker;
pub use tsn_simnet::NodeId;
