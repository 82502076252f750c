//! # tsn-protocol — decentralized reputation as real message passing
//!
//! The paper's objective is "to allow the deployment of **fully
//! decentralized architectures**" (Section 1). The `tsn-reputation`
//! mechanisms compute scores as algorithms; this crate realizes the two
//! canonical *distribution strategies* for those computations as actual
//! protocols over the [`tsn_simnet`] message-passing simulator — paying
//! for latency, loss and churn like a deployment would:
//!
//! * [`gossip`] — **push-sum gossip aggregation** (Kempe et al. style):
//!   every node holds only its own observations; periodic pairwise
//!   exchanges converge to the global average of report values per
//!   subject, with no central aggregator at all. Message loss leaks
//!   "mass" and visibly degrades accuracy — a measurable cost of full
//!   decentralization.
//! * [`score_manager`] — **DHT-style score managers** (the distribution
//!   strategy of EigenTrust's CAN deployment and PowerTrust's overlay):
//!   each subject's reports are routed to `k` deterministic manager
//!   replicas; queries fan out to the replicas and answers are averaged.
//!   Managers can crash; replication covers the gap.
//!
//! Both protocols address peers from global knowledge: gossip pushes to
//! a graph neighbour, and manager replicas sit at hashed offsets over
//! the whole id space. The peer-sampling overlay
//! (`tsn_simnet::membership`) shapes partner choice in the scenario
//! engine and the online driver only.
//!
//! [`host`] provides the round-driver harness both protocols run on, and
//! the `exp_decentralized` binary in `tsn-bench` compares either protocol
//! against the centralized oracle on accuracy and message cost (the A4
//! extension experiment of DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod host;
pub mod score_manager;

pub use gossip::{GossipConfig, GossipNetwork, GossipReport};
pub use host::{ProtocolCosts, RoundDriver};
pub use score_manager::{ManagerConfig, ManagerNetwork, ManagerReport};
pub use tsn_simnet::NodeId;
