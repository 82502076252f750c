//! The service's streaming vocabulary: events and operations.
//!
//! A [`ServiceEvent`] is a timestamped fact the service ingests — an
//! interaction outcome or a disclosure decision. A [`ServiceOp`] is one
//! step of a workload timeline: either an ingest or a query, so
//! arrivals and reads interleave on the same sim clock exactly as they
//! would against a deployed service.

use tsn_reputation::InteractionOutcome;
use tsn_simnet::{NodeId, SimTime};

/// One timestamped fact entering the service.
///
/// Events are plain `Copy` data: they are staged verbatim inside the
/// open epoch (and inside checkpoints), so carrying borrowed or boxed
/// payloads would complicate the bit-identical snapshot contract for
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceEvent {
    /// A consumer (`rater`) experienced an interaction with a provider
    /// (`ratee`) that ended at `at` with the given outcome.
    Interaction {
        /// Who experienced the interaction.
        rater: NodeId,
        /// Who provided the service.
        ratee: NodeId,
        /// What happened.
        outcome: InteractionOutcome,
        /// When the interaction ended.
        at: SimTime,
    },
    /// `node` made (or broke) a privacy commitment at `at`: a disclosure
    /// that was respected, or one that leaked (a breach). Feeds the
    /// per-node exposure counters behind
    /// [`TrustService::query_exposure`](crate::TrustService::query_exposure).
    Disclosure {
        /// Whose data was disclosed.
        node: NodeId,
        /// Whether the disclosure respected the owner's policy.
        respected: bool,
        /// When it happened.
        at: SimTime,
    },
}

impl ServiceEvent {
    /// The event's position on the sim clock.
    pub fn at(&self) -> SimTime {
        match *self {
            ServiceEvent::Interaction { at, .. } => at,
            ServiceEvent::Disclosure { at, .. } => at,
        }
    }
}

/// One step of a service workload: an arrival or a query, in timeline
/// order. Produced by the [`ServiceDriver`](crate::ServiceDriver),
/// consumed by [`TrustService::apply`](crate::TrustService::apply).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceOp {
    /// Ingest an event.
    Ingest(ServiceEvent),
    /// Read `node`'s trust score at sim time `at`.
    QueryTrust {
        /// The queried node.
        node: NodeId,
        /// When the query is issued.
        at: SimTime,
    },
    /// Read `node`'s exposure counters at sim time `at`.
    QueryExposure {
        /// The queried node.
        node: NodeId,
        /// When the query is issued.
        at: SimTime,
    },
}

impl ServiceOp {
    /// The operation's position on the sim clock.
    pub fn at(&self) -> SimTime {
        match *self {
            ServiceOp::Ingest(event) => event.at(),
            ServiceOp::QueryTrust { at, .. } => at,
            ServiceOp::QueryExposure { at, .. } => at,
        }
    }

    /// The same operation re-stamped to `at` — what a client does when
    /// it reissues an op after a retry backoff.
    pub fn with_time(self, at: SimTime) -> ServiceOp {
        match self {
            ServiceOp::Ingest(ServiceEvent::Interaction {
                rater,
                ratee,
                outcome,
                ..
            }) => ServiceOp::Ingest(ServiceEvent::Interaction {
                rater,
                ratee,
                outcome,
                at,
            }),
            ServiceOp::Ingest(ServiceEvent::Disclosure {
                node, respected, ..
            }) => ServiceOp::Ingest(ServiceEvent::Disclosure {
                node,
                respected,
                at,
            }),
            ServiceOp::QueryTrust { node, .. } => ServiceOp::QueryTrust { node, at },
            ServiceOp::QueryExposure { node, .. } => ServiceOp::QueryExposure { node, at },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_report_their_clock_position() {
        let at = SimTime::from_secs(7);
        let event = ServiceEvent::Disclosure {
            node: NodeId(1),
            respected: true,
            at,
        };
        assert_eq!(event.at(), at);
        assert_eq!(ServiceOp::Ingest(event).at(), at);
        let q = ServiceOp::QueryTrust {
            node: NodeId(0),
            at,
        };
        assert_eq!(q.at(), at);
    }

    #[test]
    fn with_time_restamps_every_variant() {
        let later = SimTime::from_secs(9);
        let interaction = ServiceOp::Ingest(ServiceEvent::Interaction {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: InteractionOutcome::Failure,
            at: SimTime::from_secs(1),
        });
        assert_eq!(interaction.with_time(later).at(), later);
        let disclosure = ServiceOp::Ingest(ServiceEvent::Disclosure {
            node: NodeId(2),
            respected: false,
            at: SimTime::from_secs(1),
        });
        assert_eq!(disclosure.with_time(later).at(), later);
        let q = ServiceOp::QueryExposure {
            node: NodeId(3),
            at: SimTime::from_secs(1),
        };
        let ServiceOp::QueryExposure { node, at } = q.with_time(later) else {
            panic!("with_time must preserve the variant");
        };
        assert_eq!((node, at), (NodeId(3), later));
    }
}
