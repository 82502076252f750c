//! # tsn-graph — social-graph substrate
//!
//! Synthetic social networks for the `tsn` reproduction. The paper reasons
//! about "large-scale social networks" (Facebook, MySpace, …); since no
//! real trace ships with a position paper, experiments run on generated
//! graphs whose structural properties (degree skew, clustering, short
//! paths) match what the cited reputation literature assumes:
//!
//! * [`generators::watts_strogatz`] — small-world (high clustering, short
//!   paths), the classic social-network shape;
//! * [`generators::barabasi_albert`] — scale-free (power-law degrees),
//!   matching the hub structure PowerTrust exploits.
//!
//! [`Graph`] is a compact undirected adjacency structure indexed by
//! [`NodeId`]; [`metrics`] provides the structural measurements used by
//! tests and the experiments (DESIGN.md §5) to verify each generator
//! produces the shape it promises.
//!
//! ```
//! use tsn_graph::{generators, metrics};
//! use tsn_simnet::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let g = generators::watts_strogatz(100, 6, 0.1, &mut rng).unwrap();
//! assert_eq!(g.node_count(), 100);
//! let cc = metrics::average_clustering(&g);
//! assert!(cc > 0.2, "small-world graphs are clustered, got {cc}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod interest;
pub mod metrics;

pub use generators::GeneratorError;
pub use graph::Graph;
pub use interest::{InterestProfile, InterestSpace};
pub use tsn_simnet::NodeId;
