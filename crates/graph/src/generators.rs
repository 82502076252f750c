//! Random-graph generators for synthetic social networks.
//!
//! Each generator documents the structural property it provides and is
//! verified by the structural tests in [`crate::metrics`].

use crate::graph::Graph;
use std::fmt;
use tsn_simnet::{NodeId, SimRng};

/// Invalid generator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorError(String);

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid generator parameters: {}", self.0)
    }
}

impl std::error::Error for GeneratorError {}

fn err(msg: impl Into<String>) -> GeneratorError {
    GeneratorError(msg.into())
}

/// Watts–Strogatz small-world graph: a ring lattice where each node links
/// to its `k` nearest neighbours (`k` even), each edge rewired with
/// probability `beta`.
///
/// # Errors
///
/// Returns an error if `k` is odd, `k >= n`, `n < 3`, or `beta` is not in
/// `[0, 1]`.
pub fn watts_strogatz(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut SimRng,
) -> Result<Graph, GeneratorError> {
    if n < 3 {
        return Err(err("watts_strogatz requires n >= 3"));
    }
    if !k.is_multiple_of(2) || k == 0 {
        return Err(err(format!("k = {k} must be even and positive")));
    }
    if k >= n {
        return Err(err(format!("k = {k} must be < n = {n}")));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(err(format!("beta {beta} not in [0,1]")));
    }
    let mut g = Graph::with_nodes(n);
    // Ring lattice.
    for i in 0..n {
        for j in 1..=(k / 2) {
            let a = NodeId::from_index(i);
            let b = NodeId::from_index((i + j) % n);
            g.add_edge(a, b);
        }
    }
    // Rewire each lattice edge (i, i+j) with probability beta.
    for i in 0..n {
        for j in 1..=(k / 2) {
            if !rng.gen_bool(beta) {
                continue;
            }
            let a = NodeId::from_index(i);
            let old = NodeId::from_index((i + j) % n);
            // Choose a new endpoint avoiding self-loops and duplicates.
            // Skip if the node is already connected to everyone.
            if g.degree(a) >= n - 1 {
                continue;
            }
            let new = loop {
                let cand = NodeId::from_index(rng.gen_range(0..n));
                if cand != a && !g.has_edge(a, cand) {
                    break cand;
                }
            };
            if g.remove_edge(a, old) {
                g.add_edge(a, new);
            }
        }
    }
    Ok(g)
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new node to `m` existing nodes with probability
/// proportional to their degree. Produces a power-law degree distribution
/// (the "hub" structure of real social graphs).
///
/// # Errors
///
/// Returns an error if `m == 0` or `n <= m`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut SimRng) -> Result<Graph, GeneratorError> {
    if m == 0 {
        return Err(err("m must be positive"));
    }
    if n <= m {
        return Err(err(format!("n = {n} must exceed m = {m}")));
    }
    let mut g = Graph::with_nodes(n);
    // Seed: clique over the first m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
        }
    }
    // Repeated-nodes list: each node appears once per incident edge, so
    // uniform sampling from it is degree-proportional sampling.
    let mut targets: Vec<usize> = Vec::with_capacity(4 * n * m);
    for (a, b) in g.edges().collect::<Vec<_>>() {
        targets.push(a.index());
        targets.push(b.index());
    }
    for v in (m + 1)..n {
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != v {
                chosen.insert(t);
            }
        }
        for &t in &chosen {
            g.add_edge(NodeId::from_index(v), NodeId::from_index(t));
            targets.push(v);
            targets.push(t);
        }
    }
    Ok(g)
}

/// Complete graph `K_n` (every pair connected). Useful as a degenerate
/// baseline where reputation gossip has full visibility.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
        }
    }
    g
}

/// Ring graph `C_n`: node `i` connected to `i±1 (mod n)`.
///
/// # Errors
///
/// Returns an error if `n < 3`.
pub fn ring(n: usize) -> Result<Graph, GeneratorError> {
    if n < 3 {
        return Err(err("ring requires n >= 3"));
    }
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_strogatz_preserves_edge_count() {
        let mut rng = SimRng::seed_from_u64(2);
        let g = watts_strogatz(100, 6, 0.2, &mut rng).unwrap();
        // Rewiring moves edges but never changes the count.
        assert_eq!(g.edge_count(), 100 * 6 / 2);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_lattice() {
        let mut rng = SimRng::seed_from_u64(3);
        let g = watts_strogatz(10, 4, 0.0, &mut rng).unwrap();
        for i in 0..10usize {
            assert_eq!(g.degree(NodeId::from_index(i)), 4);
            assert!(g.has_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % 10)));
            assert!(g.has_edge(NodeId::from_index(i), NodeId::from_index((i + 2) % 10)));
        }
    }

    #[test]
    fn watts_strogatz_validates() {
        let mut rng = SimRng::seed_from_u64(4);
        assert!(watts_strogatz(10, 3, 0.1, &mut rng).is_err(), "odd k");
        assert!(watts_strogatz(10, 10, 0.1, &mut rng).is_err(), "k >= n");
        assert!(watts_strogatz(2, 2, 0.1, &mut rng).is_err(), "tiny n");
        assert!(watts_strogatz(10, 4, -0.1, &mut rng).is_err(), "beta");
    }

    #[test]
    fn barabasi_albert_edge_count_and_connectivity() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 300;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng).unwrap();
        // clique(m+1) + m per additional node
        let expected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
        assert!(g.is_connected());
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let mut rng = SimRng::seed_from_u64(6);
        let g = barabasi_albert(500, 2, &mut rng).unwrap();
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        let mean_deg = 2.0 * g.edge_count() as f64 / 500.0;
        assert!(
            max_deg as f64 > 4.0 * mean_deg,
            "scale-free graphs have hubs: max {max_deg}, mean {mean_deg}"
        );
    }

    #[test]
    fn barabasi_albert_validates() {
        let mut rng = SimRng::seed_from_u64(7);
        assert!(barabasi_albert(5, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }

    #[test]
    fn complete_and_ring_shapes() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
        let r = ring(6).unwrap();
        assert_eq!(r.edge_count(), 6);
        assert!(r.nodes().all(|v| r.degree(v) == 2));
        assert!(ring(2).is_err());
    }

    #[test]
    fn generators_are_deterministic() {
        let g1 = barabasi_albert(100, 2, &mut SimRng::seed_from_u64(42)).unwrap();
        let g2 = barabasi_albert(100, 2, &mut SimRng::seed_from_u64(42)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = watts_strogatz(10, 4, 2.0, &mut SimRng::seed_from_u64(0)).unwrap_err();
        assert!(e.to_string().contains("invalid generator parameters"));
    }
}
