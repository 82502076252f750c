//! # tsn-simnet — deterministic discrete-event simulator for P2P networks
//!
//! This crate is the *substrate* on which the `tsn` reproduction of
//! "Trust your Social Network According to Satisfaction, Reputation and
//! Privacy" (Busnel, Serrano-Alvarado, Lamarre, 2010) runs. The paper argues
//! for fully decentralized social networks; since no live deployment is
//! available, every experiment in the repository executes on this simulator.
//!
//! The simulator is:
//!
//! * **virtual-time** — a simulated clock ([`SimTime`]) that the layers
//!   above advance explicitly, round by round or op by op;
//! * **deterministic** — all randomness flows through a seedable
//!   [`SimRng`] (ChaCha-based), so a `(seed, config)` pair reproduces a run
//!   bit-for-bit;
//! * **message-passing** — nodes ([`NodeId`]) exchange [`Envelope`]s through
//!   a [`Network`] that applies a pluggable [`LatencyModel`] and
//!   [`LossModel`];
//! * **churn-aware** — a [`ChurnConfig`] (the [`churn`] module)
//!   parameterizes joins, leaves, crashes and whitewashing re-joins,
//!   the lifecycle vocabulary of the reputation literature the paper
//!   builds on;
//! * **dynamic** — a [`DynamicsPlan`] composes churn, scheduled
//!   partitions and targeted outages into one schedule that a
//!   [`DynamicsRuntime`] samples and executes against the network on
//!   the sim clock (see the [`dynamics`] module);
//! * **fault-injectable** — a [`FaultPlan`] schedules process crashes
//!   and checkpoint-storage faults deterministically from the seed,
//!   executed by a [`FaultInjector`] that the service's hosts consume
//!   (see the [`faults`] module); the transport itself fails only
//!   through the dynamics layer's loss, latency and liveness;
//! * **partially visible** — the [`membership`] module provides the
//!   peer-sampling overlay of the source paper: bounded
//!   [`PartialView`]s per node, refreshed by deterministic view
//!   shuffling and bootstrapped through killable relay nodes, so
//!   higher layers can select partners from local views instead of the
//!   global population.
//!
//! ## Quick example
//!
//! ```
//! use tsn_simnet::{Network, NetworkConfig, SimRng, SimTime};
//!
//! let mut net = Network::new(NetworkConfig::default(), SimRng::seed_from_u64(42));
//! let a = net.add_node();
//! let b = net.add_node();
//! net.send(a, b, "hello".into());
//! // The default transport delivers after 10 ms of virtual time.
//! assert_eq!(net.advance_to(SimTime::from_millis(10)), 1);
//! assert_eq!(net.inbox_len(b), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod codec;
pub mod dynamics;
pub mod faults;
pub mod latency;
pub mod membership;
pub mod message;
pub mod network;
pub mod partition;
pub mod pool;
pub mod rng;
pub mod steal;
pub mod streams;
pub mod time;

pub use churn::ChurnConfig;
pub use codec::{ByteReader, ByteWriter};
pub use dynamics::{DynamicsEvent, DynamicsPlan, DynamicsRuntime, PartitionWindow};
pub use faults::{
    FaultInjector, FaultPlan, FaultTarget, ProcessFault, StorageFault, StorageFaultKind,
};
pub use latency::{BernoulliLoss, ConstantLatency, LatencyModel, LossModel, NoLoss, WanLatency};
pub use membership::{
    MembershipConfig, MembershipRuntime, PartialView, ShuffleStats, ViewEntry, MEMBERSHIP_SEED_SALT,
};
pub use message::{Envelope, MessageId, Payload, Tag};
pub use network::{DeliveryOutcome, Network, NetworkConfig, NetworkStats};
pub use partition::{GroupMap, PartitionedLoss, RegionalLatency};
pub use pool::BufferPool;
pub use rng::SimRng;
pub use streams::{StreamDomain, StreamFamily};
pub use time::{SimDuration, SimTime};

/// Identifier of a simulated node (participant / peer).
///
/// `NodeId`s are dense indices handed out by [`Network::add_node`] (or by
/// higher layers that manage their own populations); they index directly
/// into per-node vectors throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        // tsn-lint: allow(no-unwrap, "documented contract: from_index panics past u32::MAX nodes, far beyond any supported scale")
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(NodeId::from(17u32), id);
        assert_eq!(id.to_string(), "n17");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5), NodeId(5));
    }
}
