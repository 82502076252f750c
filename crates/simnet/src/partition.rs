//! Network partitions and regional topologies.
//!
//! Decentralized social networks run across administrative and
//! geographic boundaries; partitions (and the slow links around them)
//! are the failure mode that distinguishes a deployment from a LAN
//! demo. [`PartitionedLoss`] drops cross-group traffic entirely
//! (a clean split) or probabilistically (a lossy border);
//! [`RegionalLatency`] makes cross-region links slower than local ones.

use crate::latency::{LatencyModel, LossModel};
use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::NodeId;

/// The most groups a [`GroupMap`] can tell apart: group ids are `u16`.
pub(crate) const MAX_GROUPS: usize = 1 << 16;

/// Group assignment used by the partition-aware models.
///
/// Nodes map to a group id; unassigned nodes (index beyond the vector)
/// fall into group 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    groups: Vec<u16>,
}

impl GroupMap {
    /// Builds a map from explicit assignments.
    pub fn new(groups: Vec<u16>) -> Self {
        GroupMap { groups }
    }

    /// Splits `n` nodes into exactly `k` contiguous groups whose sizes
    /// differ by at most one: the first `n % k` groups get
    /// `n / k + 1` nodes, the rest `n / k`.
    ///
    /// (The former `div_ceil` sizing could produce *fewer* than `k`
    /// groups — `contiguous(9, 4)` yielded 3 groups of 3 — and badly
    /// unbalanced tails; now `contiguous(9, 4)` is `[3, 2, 2, 2]`.)
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or above 65,536 (more groups would alias
    /// each other's `u16` ids).
    pub fn contiguous(n: usize, k: usize) -> Self {
        assert!(k > 0, "need at least one group");
        assert!(k <= MAX_GROUPS, "at most {MAX_GROUPS} groups, got {k}");
        let base = n / k;
        let remainder = n % k;
        // The first `remainder` groups are one node larger.
        let big_span = remainder * (base + 1);
        GroupMap {
            groups: (0..n)
                .map(|i| {
                    let g = if i < big_span {
                        i / (base + 1)
                    } else {
                        remainder + (i - big_span) / base
                    };
                    g as u16
                })
                .collect(),
        }
    }

    /// The group of a node.
    pub fn group(&self, node: NodeId) -> u16 {
        self.groups.get(node.index()).copied().unwrap_or(0)
    }

    /// Whether two nodes share a group.
    pub fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        self.group(a) == self.group(b)
    }

    /// Number of assigned nodes.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Size of each group, indexed by group id (trailing empty groups
    /// are not represented).
    pub fn group_sizes(&self) -> Vec<usize> {
        let max = self.groups.iter().copied().max().map_or(0, usize::from);
        let mut sizes = vec![0usize; max + 1];
        for &g in &self.groups {
            sizes[usize::from(g)] += 1;
        }
        sizes
    }

    /// The probability that two uniformly random assigned nodes share a
    /// group: `Σ (size_g / n)²`. This is the "partition health" a clean
    /// split degrades — 1.0 for a single group, `1/k` for `k` equal
    /// groups.
    pub fn connectivity(&self) -> f64 {
        let n = self.groups.len();
        if n == 0 {
            return 1.0;
        }
        self.group_sizes()
            .iter()
            .map(|&s| {
                let f = s as f64 / n as f64;
                f * f
            })
            .sum()
    }
}

/// Drops cross-group messages with a configurable probability
/// (1.0 = full partition).
#[derive(Debug, Clone)]
pub struct PartitionedLoss {
    map: GroupMap,
    /// Loss probability for cross-group messages.
    pub cross_loss: f64,
    /// Loss probability for intra-group messages.
    pub intra_loss: f64,
}

impl PartitionedLoss {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(map: GroupMap, cross_loss: f64, intra_loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cross_loss),
            "cross_loss must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&intra_loss),
            "intra_loss must be in [0,1]"
        );
        PartitionedLoss {
            map,
            cross_loss,
            intra_loss,
        }
    }

    /// A clean split: cross-group traffic never arrives.
    pub fn full_partition(map: GroupMap) -> Self {
        PartitionedLoss::new(map, 1.0, 0.0)
    }
}

impl LossModel for PartitionedLoss {
    fn is_lost(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> bool {
        let p = if self.map.same_group(from, to) {
            self.intra_loss
        } else {
            self.cross_loss
        };
        rng.gen_bool(p)
    }
}

/// Constant latency that differs within vs across regions.
#[derive(Debug, Clone)]
pub struct RegionalLatency {
    map: GroupMap,
    /// Delay within a region.
    pub intra: SimDuration,
    /// Delay across regions.
    pub inter: SimDuration,
}

impl RegionalLatency {
    /// Creates the model.
    pub fn new(map: GroupMap, intra: SimDuration, inter: SimDuration) -> Self {
        RegionalLatency { map, intra, inter }
    }
}

impl LatencyModel for RegionalLatency {
    fn delay(&self, from: NodeId, to: NodeId, _rng: &mut SimRng) -> SimDuration {
        if self.map.same_group(from, to) {
            self.intra
        } else {
            self.inter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkConfig};
    use crate::time::SimTime;

    #[test]
    fn contiguous_groups_split_evenly() {
        let map = GroupMap::contiguous(10, 2);
        assert_eq!(map.group(NodeId(0)), 0);
        assert_eq!(map.group(NodeId(4)), 0);
        assert_eq!(map.group(NodeId(5)), 1);
        assert_eq!(map.group(NodeId(9)), 1);
        assert!(map.same_group(NodeId(0), NodeId(4)));
        assert!(!map.same_group(NodeId(4), NodeId(5)));
        assert_eq!(map.len(), 10);
    }

    #[test]
    fn contiguous_produces_exactly_k_balanced_groups() {
        // Regression: div_ceil sizing gave contiguous(9, 4) only THREE
        // groups ([3,3,3]); the remainder must instead spread so exactly
        // k groups differ in size by at most one.
        let map = GroupMap::contiguous(9, 4);
        assert_eq!(map.group_sizes(), vec![3, 2, 2, 2]);

        for (n, k) in [(10, 3), (11, 4), (7, 2), (100, 7), (5, 5), (13, 6)] {
            let map = GroupMap::contiguous(n, k);
            let sizes = map.group_sizes();
            let groups = sizes.iter().filter(|&&size| size > 0).count();
            assert_eq!(groups, k, "n={n} k={k}");
            assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} k={k}");
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "n={n} k={k}: unbalanced {sizes:?}");
            // Groups are contiguous and ascending.
            for i in 1..n {
                let prev = map.group(NodeId::from_index(i - 1));
                let cur = map.group(NodeId::from_index(i));
                assert!(cur == prev || cur == prev + 1, "n={n} k={k} at {i}");
            }
        }
    }

    #[test]
    fn contiguous_with_more_groups_than_nodes_is_safe() {
        let map = GroupMap::contiguous(3, 5);
        assert_eq!(map.group_sizes(), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "at most 65536 groups")]
    fn contiguous_rejects_more_groups_than_ids() {
        let _ = GroupMap::contiguous(70_000, MAX_GROUPS + 1);
    }

    #[test]
    fn connectivity_measures_partition_health() {
        assert_eq!(GroupMap::contiguous(10, 1).connectivity(), 1.0);
        assert!((GroupMap::contiguous(10, 2).connectivity() - 0.5).abs() < 1e-12);
        let quarters = GroupMap::contiguous(8, 4).connectivity();
        assert!((quarters - 0.25).abs() < 1e-12);
        // Empty maps are trivially healthy.
        assert_eq!(GroupMap::new(Vec::new()).connectivity(), 1.0);
    }

    #[test]
    fn unassigned_nodes_default_to_group_zero() {
        let map = GroupMap::new(vec![1, 1]);
        assert_eq!(map.group(NodeId(7)), 0);
    }

    #[test]
    fn full_partition_blocks_cross_traffic_only() {
        let map = GroupMap::contiguous(4, 2);
        let model = PartitionedLoss::full_partition(map);
        let mut rng = SimRng::seed_from_u64(0);
        assert!(
            model.is_lost(NodeId(0), NodeId(2), &mut rng),
            "cross-group always lost"
        );
        assert!(
            !model.is_lost(NodeId(0), NodeId(1), &mut rng),
            "intra-group never lost"
        );
    }

    #[test]
    fn partial_border_loss_matches_probability() {
        let map = GroupMap::contiguous(4, 2);
        let model = PartitionedLoss::new(map, 0.3, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let lost = (0..10_000)
            .filter(|_| model.is_lost(NodeId(0), NodeId(3), &mut rng))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "border loss {rate}");
    }

    #[test]
    fn regional_latency_differs() {
        let map = GroupMap::contiguous(4, 2);
        let model = RegionalLatency::new(
            map,
            SimDuration::from_millis(5),
            SimDuration::from_millis(80),
        );
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(
            model.delay(NodeId(0), NodeId(1), &mut rng),
            SimDuration::from_millis(5)
        );
        assert_eq!(
            model.delay(NodeId(1), NodeId(2), &mut rng),
            SimDuration::from_millis(80)
        );
    }

    #[test]
    fn partitioned_network_end_to_end() {
        let map = GroupMap::contiguous(4, 2);
        let config = NetworkConfig {
            latency: Box::new(RegionalLatency::new(
                map.clone(),
                SimDuration::from_millis(1),
                SimDuration::from_millis(1),
            )),
            loss: Box::new(PartitionedLoss::full_partition(map)),
        };
        let mut net = Network::new(config, SimRng::seed_from_u64(3));
        for _ in 0..4 {
            net.add_node();
        }
        net.send(NodeId(0), NodeId(1), "local".into());
        net.send(NodeId(0), NodeId(3), "remote".into());
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.inbox_len(NodeId(1)), 1);
        assert_eq!(net.inbox_len(NodeId(3)), 0);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    #[should_panic(expected = "cross_loss")]
    fn invalid_probability_panics() {
        let _ = PartitionedLoss::new(GroupMap::contiguous(2, 1), 1.5, 0.0);
    }
}
